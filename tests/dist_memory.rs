//! The message-passing tier stores what its guards read, not the whole
//! configuration — measured at the allocator, so the pin is exact on every
//! host. On `ring(6144, 2)` cut into 4 shards, building the tier and
//! stepping it must never request a block as large as one copy of the
//! configuration (`n · size_of::<State>()`): no actor holds such a copy.
//! Building it requests a small constant times the states the actors keep,
//! `Σ (|members| + |ghosts|) · size_of::<State>()` — the slots themselves,
//! the schedulers' per-member entries and the routing tables.

mod common;

use common::requests_during;
use sscc::core::{Cc1, Composed, DistDrive, DistEngine, RequestFlags};
use sscc::hypergraph::generators;
use sscc::runtime::prelude::{DistributedRandom, StepOutcome, World};
use sscc::token::WaveToken;
use std::sync::Arc;

// One test: the recorder is process-wide, so nothing else may run beside it.
#[test]
fn shard_actors_hold_members_and_ghosts_only() {
    const SHARDS: usize = 4;
    // Debug builds re-evaluate every guard after every refresh: fewer steps.
    let steps = if cfg!(debug_assertions) { 20 } else { 400 };
    let h = Arc::new(generators::ring(6144, 2));
    let n = h.n();
    let mut world = World::new(
        Arc::clone(&h),
        Composed::new(Cc1::new(), WaveToken::new(&h)),
    );
    let state = std::mem::size_of_val(world.state(0));
    let copy = n * state;
    let mut env = RequestFlags::new(n);
    for p in 0..n {
        env.set_in(p, true);
    }
    // The plan is the topology's (cached on the hypergraph, shared by every
    // engine over it), not an actor's.
    let plan = h.shard_plan(SHARDS);
    let kept: usize = (0..plan.shards())
        .map(|s| plan.members(s).len() + plan.frontier_of(&h, s).len())
        .sum();

    let (build, mut dist) = requests_during(copy, || DistEngine::new(&world, SHARDS, false));
    let mut daemon = DistributedRandom::new(7, 0.5);
    let mut out = StepOutcome::default();
    let (stepping, executed) = requests_during(copy, || {
        let mut executed = 0;
        for _ in 0..steps {
            dist.step_into(&mut world, &mut daemon, &env, &mut out);
            executed += out.executed.len();
        }
        executed
    });
    let slots = kept * state;
    eprintln!(
        "ring{n} x {SHARDS} shards, State {state} B, one copy {copy} B, slots kept {kept} ({slots} B)"
    );
    eprintln!(
        "build: {} B total ({:.2} x slots), largest {} B; {steps} steps: {} B total, largest {} B",
        build.total,
        build.total as f64 / slots as f64,
        build.largest,
        stepping.total,
        stepping.largest
    );
    assert!(executed > 0 && dist.stats().frames > 0, "the tier ran");
    assert_eq!(
        build.big, 0,
        "building requested a whole-configuration block"
    );
    assert_eq!(
        stepping.big, 0,
        "stepping requested a whole-configuration block"
    );
    assert!(
        build.total <= 4 * slots,
        "{} B to build, {slots} B of slots",
        build.total
    );
}
