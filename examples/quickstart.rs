//! Quickstart: build a hypergraph, run `CC1 ∘ TC`, inspect the results.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use sscc::core::sim::Sim;
use sscc::core::{Cc1, ModeRegistry};
use sscc::hypergraph::generators;
use sscc::token::WaveToken;
use std::sync::Arc;

fn main() {
    // The paper's Figure 1 system: 6 professors, 5 committees.
    let h = Arc::new(generators::fig1());
    println!("topology: {h:?}");
    println!(
        "underlying network: {} professors, diameter {}",
        h.n(),
        sscc::hypergraph::network::diameter(&h)
    );

    // Every named engine variant comes from one registry — the same list
    // the bench sweep records and the differential suite lockstep-verifies.
    println!("\nengine modes (ModeRegistry):");
    for m in ModeRegistry::all() {
        println!("  {:<15} {}", m.name, m.summary);
    }

    // CC1 ∘ TC under the distributed weakly fair daemon; professors always
    // request, discuss voluntarily for 2 steps (maxDisc = 2). The engine
    // variant is declarative: any registry mode (or a hand-built
    // `EngineConfig`) — incoherent combinations fail at build, not
    // silently at run time.
    let mut sim = Sim::builder(Arc::clone(&h), Cc1::new(), WaveToken::new(&h))
        .seed(42)
        .max_disc(2)
        .mode("daemon") // trusted daemon + delta view
        .build()
        .expect("registry modes always validate");
    sim.run(5_000);

    println!("\nafter {} steps ({} rounds):", sim.steps(), sim.rounds());
    println!("  meetings convened : {}", sim.ledger().convened_count());
    println!("  currently meeting : {:?}", sim.live_meetings());

    println!("\nper-professor participations:");
    for p in 0..h.n() {
        println!(
            "  professor {:>2} participated in {:>3} meetings",
            h.id(p),
            sim.ledger().participations()[p]
        );
    }

    // The executable specification: Exclusion, Synchronization and 2-Phase
    // Discussion checked on every step.
    if sim.monitor().clean() {
        println!("\nspecification: CLEAN (exclusion, synchronization, 2-phase discussion)");
    } else {
        println!("\nspecification VIOLATIONS:");
        for v in sim.monitor().violations() {
            println!("  {v}");
        }
        std::process::exit(1);
    }

    // Show a few meeting instances with their lifecycle.
    println!("\nfirst meetings on the ledger:");
    for m in sim.ledger().instances().iter().take(8) {
        println!(
            "  committee {:?} convened at step {:?}, ended at {:?}, essential by {:?}",
            h.members_raw(m.edge),
            m.convened_step,
            m.terminated_step,
            m.discussants().map(|q| h.id(q).value()).collect::<Vec<_>>()
        );
    }
}
