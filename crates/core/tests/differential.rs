//! Differential test: the incremental (dirty-set) engine and the legacy
//! full-scan engine must produce **bit-identical executions** — same
//! executed-action traces, same ledger contents, same monitor verdicts,
//! same round counts, same final configurations — on every algorithm,
//! topology, boot mode and seed.
//!
//! This is the correctness bar of the incremental scheduler: it is a pure
//! optimization, invisible to every observer.
//!
//! Every test here is named `differential_*` — CI's build-test job skips
//! them by that prefix (`cargo test -- --skip differential_`) because the
//! differential job runs this suite on its own, in release mode. (The
//! cheap registry-count smoke test below is the one exception: it runs
//! everywhere.)
//!
//! The lockstep engine list is **derived from the [`ModeRegistry`]** — the
//! same single source of truth the examples and `benchmark/` select from.
//! The `par1` mode (the default engine) drives; *every other registered
//! mode* is a twin. A mode added to the registry is
//! automatically lockstep-verified here; there is no second list to keep
//! in sync. Every row must be bit-identical to the reference driver.

#![deny(deprecated)]

use sscc_core::sim::{default_daemon, Sim};
use sscc_core::{Cc1, Cc2, Cc3, CommitteeAlgorithm, EagerPolicy, EngineConfig, ModeRegistry};
use sscc_hypergraph::{generators, Hypergraph};
use sscc_token::{TokenLayer, WaveToken};
use std::sync::Arc;

fn topologies() -> Vec<(&'static str, Arc<Hypergraph>)> {
    vec![
        ("fig1", Arc::new(generators::fig1())),
        ("fig2", Arc::new(generators::fig2())),
        ("ring6x2", Arc::new(generators::ring(6, 2))),
        ("random", Arc::new(generators::random_uniform(8, 6, 3, 12))),
    ]
}

/// The registry mode the reference driver runs: the default engine.
const REFERENCE_MODE: &str = "par1";

/// One twin per non-reference registry mode, traced.
fn registry_twins<C, TL>(mk: &impl Fn() -> Sim<C, TL>) -> Vec<(&'static str, Sim<C, TL>)>
where
    C: CommitteeAlgorithm + 'static,
    C::State: Copy + sscc_runtime::prelude::StateCodec,
    TL: TokenLayer + 'static,
    TL::State: Copy + sscc_runtime::prelude::StateCodec,
{
    ModeRegistry::all()
        .iter()
        .filter(|m| m.name != REFERENCE_MODE)
        .map(|m| {
            let mut s = mk();
            s.configure(&m.config)
                .unwrap_or_else(|e| panic!("registry mode {} must configure: {e}", m.name));
            s.enable_trace();
            (m.name, s)
        })
        .collect()
}

/// Drive the default engine (the registry's `par1` mode) in lockstep
/// against every other registered engine configuration and assert every
/// observable agrees, stepwise and at the end.
fn assert_equivalent<C, TL>(mk: impl Fn() -> Sim<C, TL>, budget: u64, label: &str)
where
    C: CommitteeAlgorithm + 'static,
    C::State: Copy + sscc_runtime::prelude::StateCodec,
    TL: TokenLayer + 'static,
    TL::State: Copy + sscc_runtime::prelude::StateCodec,
{
    let mut inc = mk();
    inc.enable_trace();
    let mut twins = registry_twins(&mk);
    for step in 0..budget {
        let a = inc.step();
        for (tag, s) in &mut twins {
            let b = s.step();
            assert_eq!(a, b, "{label}/{tag}: step {step} progress disagrees");
            assert_eq!(
                inc.cc_states(),
                s.cc_states(),
                "{label}/{tag}: step {step} configurations diverge"
            );
        }
        if !a {
            break;
        }
    }
    for (tag, s) in &twins {
        assert_eq!(inc.steps(), s.steps(), "{label}/{tag}: step counts");
        assert_eq!(inc.rounds(), s.rounds(), "{label}/{tag}: round counts");
        assert_eq!(
            inc.trace().unwrap().events(),
            s.trace().unwrap().events(),
            "{label}/{tag}: executed-action traces"
        );
        assert_eq!(
            inc.ledger().instances(),
            s.ledger().instances(),
            "{label}/{tag}: ledger instances"
        );
        assert_eq!(
            inc.ledger().participations(),
            s.ledger().participations(),
            "{label}/{tag}: participation counters"
        );
        assert_eq!(
            inc.monitor().violations(),
            s.monitor().violations(),
            "{label}/{tag}: monitor verdicts"
        );
        assert_eq!(
            inc.statuses(),
            s.statuses(),
            "{label}/{tag}: final statuses"
        );
        assert_eq!(inc.flags(), s.flags(), "{label}/{tag}: request flags");
    }
}

macro_rules! differential_suite {
    ($name:ident, $cc:expr, $algo:literal) => {
        #[test]
        fn $name() {
            for (topo, h) in topologies() {
                let n = h.n();
                for seed in 0..20u64 {
                    // Clean boot.
                    let hh = Arc::clone(&h);
                    assert_equivalent(
                        move || {
                            Sim::new(
                                Arc::clone(&hh),
                                $cc,
                                WaveToken::new(&hh),
                                default_daemon(seed, n),
                                Box::new(EagerPolicy::new(n, 1)),
                            )
                        },
                        400,
                        &format!("{}/{topo}/clean/seed{seed}", $algo),
                    );
                    // Arbitrary boot (snap-stabilization: start anywhere).
                    let hh = Arc::clone(&h);
                    assert_equivalent(
                        move || {
                            Sim::arbitrary(
                                Arc::clone(&hh),
                                $cc,
                                WaveToken::new(&hh),
                                default_daemon(seed, n),
                                Box::new(EagerPolicy::new(n, 1)),
                                seed,
                            )
                        },
                        400,
                        &format!("{}/{topo}/arbitrary/seed{seed}", $algo),
                    );
                }
            }
        }
    };
}

differential_suite!(differential_cc1_all_engines_agree, Cc1::new(), "CC1");
differential_suite!(differential_cc2_all_engines_agree, Cc2::new(), "CC2");
differential_suite!(differential_cc3_all_engines_agree, Cc3::new_cc3(), "CC3");

/// Churn lockstep: every registered engine must stay bit-identical while
/// the world is bombarded mid-run — seeded topology mutations applied
/// through [`Sim::mutate`] (incremental index/plan/mirror repair) and
/// transient faults through [`Sim::strike`] (observer-preserving
/// injection), interleaved with ordinary steps. Mutation proposals are
/// drawn per event seed against the reference sim's current graph, so
/// every twin sees the identical proposal sequence; rejected proposals
/// must be rejected identically everywhere. This is the correctness bar
/// of the repair seams: a stale closed-neighborhood cache, shard plan,
/// fact mirror or ledger entry in any one engine shows up as a lockstep
/// divergence at the step that reads it.
macro_rules! churn_differential_suite {
    ($name:ident, $cc:expr, $algo:literal) => {
        #[test]
        fn $name() {
            use rand::{rngs::StdRng, SeedableRng as _};
            use sscc_hypergraph::random_mutation;
            use sscc_runtime::prelude::{CampaignEvent, FaultCampaign};
            for (topo, h) in topologies() {
                let n = h.n();
                for seed in 0..6u64 {
                    let hh = Arc::clone(&h);
                    let mk = move || {
                        Sim::new(
                            Arc::clone(&hh),
                            $cc,
                            WaveToken::new(&hh),
                            default_daemon(seed, n),
                            Box::new(EagerPolicy::new(n, 1)),
                        )
                    };
                    let label = format!("{}/{topo}/churn/seed{seed}", $algo);
                    let mut inc = mk();
                    inc.enable_trace();
                    let mut twins = registry_twins(&mk);
                    // Distributed modes fail mid-run surgery closed by
                    // contract (`Sim::strike`/`Sim::mutate` reject them), so
                    // they cannot ride the churn campaign; the plain and
                    // checkpoint differential rows still cover them.
                    twins.retain(|(_, s)| !s.config().distributed());
                    let mut campaign = FaultCampaign::new(seed, 60, 45);
                    for step in 1..=400u64 {
                        for ev in campaign.poll(step) {
                            match ev {
                                CampaignEvent::Strike { seed: fs } => {
                                    let struck = inc
                                        .strike(fs, 0.3)
                                        .unwrap_or_else(|e| panic!("{label}: strike: {e}"));
                                    for (tag, s) in &mut twins {
                                        assert_eq!(
                                            struck,
                                            s.strike(fs, 0.3).unwrap_or_else(|e| panic!(
                                                "{label}/{tag}: strike: {e}"
                                            )),
                                            "{label}/{tag}: struck sets diverge"
                                        );
                                    }
                                }
                                CampaignEvent::Churn { seed: cs } => {
                                    let mut rng = StdRng::seed_from_u64(cs);
                                    let proposal = random_mutation(inc.h(), &mut rng);
                                    let want = inc.mutate(&proposal);
                                    for (tag, s) in &mut twins {
                                        assert_eq!(
                                            want,
                                            s.mutate(&proposal),
                                            "{label}/{tag}: mutation outcomes diverge"
                                        );
                                    }
                                }
                            }
                            for (tag, s) in &twins {
                                assert_eq!(
                                    inc.cc_states(),
                                    s.cc_states(),
                                    "{label}/{tag}: post-disruption configurations diverge"
                                );
                            }
                        }
                        let a = inc.step();
                        for (tag, s) in &mut twins {
                            let b = s.step();
                            assert_eq!(a, b, "{label}/{tag}: step {step} progress disagrees");
                            assert_eq!(
                                inc.cc_states(),
                                s.cc_states(),
                                "{label}/{tag}: step {step} configurations diverge"
                            );
                        }
                    }
                    for (tag, s) in &twins {
                        assert_eq!(
                            inc.trace().unwrap().events(),
                            s.trace().unwrap().events(),
                            "{label}/{tag}: executed-action traces"
                        );
                        assert_eq!(
                            inc.ledger().instances(),
                            s.ledger().instances(),
                            "{label}/{tag}: ledger instances"
                        );
                        assert_eq!(
                            inc.ledger().participations(),
                            s.ledger().participations(),
                            "{label}/{tag}: participation counters"
                        );
                        assert_eq!(
                            inc.monitor().violations(),
                            s.monitor().violations(),
                            "{label}/{tag}: monitor verdicts"
                        );
                        assert_eq!(inc.rounds(), s.rounds(), "{label}/{tag}: rounds");
                        assert_eq!(inc.flags(), s.flags(), "{label}/{tag}: request flags");
                    }
                }
            }
        }
    };
}

churn_differential_suite!(differential_cc1_churn_all_engines_agree, Cc1::new(), "CC1");
churn_differential_suite!(differential_cc2_churn_all_engines_agree, Cc2::new(), "CC2");
churn_differential_suite!(
    differential_cc3_churn_all_engines_agree,
    Cc3::new_cc3(),
    "CC3"
);

/// Checkpoint/restore lockstep: for **every registered engine mode**,
/// from a clean boot, an arbitrary boot and right after a mid-run strike,
/// freezing a simulation to bytes (`Sim::save_state`) and rehydrating it
/// (`Sim::restore`) must
///
/// * re-encode to **the bytes it came from** — restore loses and invents
///   nothing the blob records, lazily rebuilt engine state (the commit
///   notes' freshness) included — and
/// * continue bit-identically with the uninterrupted original — same step
///   progress, configurations, flags, traces, ledger and monitor.
///
/// One differential row per registry mode; a mode whose scheduler or
/// guard cache holds state the snapshot misses diverges at the first step
/// that reads it.
macro_rules! checkpoint_differential_suite {
    ($name:ident, $cc:expr, $algo:literal) => {
        #[test]
        fn $name() {
            let h = Arc::new(generators::fig2());
            for mode in ModeRegistry::all() {
                for (boot, seed) in [
                    ("clean", 3u64),
                    ("clean", 17),
                    ("arbitrary", 5),
                    ("struck", 11),
                ] {
                    // Distributed sims take faults at boot only.
                    if boot == "struck" && mode.config.distributed() {
                        continue;
                    }
                    let label = format!("{}/{}/{boot}/seed{seed}", $algo, mode.name);
                    let b = Sim::builder(Arc::clone(&h), $cc, WaveToken::new(&h))
                        .seed(seed)
                        .max_disc(1)
                        .engine(mode.config)
                        .trace();
                    let b = if boot == "arbitrary" {
                        b.arbitrary(seed)
                    } else {
                        b
                    };
                    let mut sim = b
                        .build()
                        .unwrap_or_else(|e| panic!("{label}: configure: {e}"));
                    sim.run(250);
                    if boot == "struck" {
                        sim.strike(seed, 0.4)
                            .unwrap_or_else(|e| panic!("{label}: strike: {e}"));
                    }
                    let mut blob = Vec::new();
                    assert!(sim.save_state(&mut blob), "{label}: checkpoint");
                    let mut twin = Sim::restore(Arc::clone(&h), $cc, WaveToken::new(&h), &blob)
                        .unwrap_or_else(|| panic!("{label}: restore"));
                    assert_eq!(sim.steps(), twin.steps(), "{label}: restored cursor");
                    let mut again = Vec::new();
                    assert!(twin.save_state(&mut again), "{label}: re-checkpoint");
                    assert!(again == blob, "{label}: save → restore → save moved bytes");
                    for step in 0..250u64 {
                        let a = sim.step();
                        let b = twin.step();
                        assert_eq!(a, b, "{label}: step {step} progress disagrees");
                        assert_eq!(
                            sim.cc_states(),
                            twin.cc_states(),
                            "{label}: step {step} configurations diverge"
                        );
                        assert_eq!(
                            sim.flags(),
                            twin.flags(),
                            "{label}: step {step} request flags diverge"
                        );
                    }
                    assert_eq!(sim.steps(), twin.steps(), "{label}: step counts");
                    assert_eq!(sim.rounds(), twin.rounds(), "{label}: round counts");
                    assert_eq!(
                        sim.trace().unwrap().events(),
                        twin.trace().unwrap().events(),
                        "{label}: executed-action traces"
                    );
                    assert_eq!(
                        sim.ledger().instances(),
                        twin.ledger().instances(),
                        "{label}: ledger instances"
                    );
                    assert_eq!(
                        sim.ledger().participations(),
                        twin.ledger().participations(),
                        "{label}: participation counters"
                    );
                    assert_eq!(
                        sim.monitor().violations(),
                        twin.monitor().violations(),
                        "{label}: monitor verdicts"
                    );
                }
            }
        }
    };
}

checkpoint_differential_suite!(
    differential_cc1_checkpoint_restore_all_modes,
    Cc1::new(),
    "CC1"
);
checkpoint_differential_suite!(
    differential_cc2_checkpoint_restore_all_modes,
    Cc2::new(),
    "CC2"
);
checkpoint_differential_suite!(
    differential_cc3_checkpoint_restore_all_modes,
    Cc3::new_cc3(),
    "CC3"
);

/// The `Selection::All` fast path (synchronous daemon — no subset `Vec`
/// round-trip, `WeaklyFair` bypass) must also be trace-identical.
#[test]
fn differential_synchronous_daemon_agrees() {
    use sscc_runtime::prelude::Synchronous;
    for (topo, h) in topologies() {
        let n = h.n();
        for (name, cc1, cc2) in [("clean", true, false), ("clean2", false, true)] {
            for seed in 0..5u64 {
                let hh = Arc::clone(&h);
                if cc1 {
                    assert_equivalent(
                        move || {
                            Sim::new(
                                Arc::clone(&hh),
                                Cc1::new(),
                                WaveToken::new(&hh),
                                Box::new(Synchronous),
                                Box::new(EagerPolicy::new(n, seed)),
                            )
                        },
                        300,
                        &format!("CC1/{topo}/sync/{name}/disc{seed}"),
                    );
                } else if cc2 {
                    assert_equivalent(
                        move || {
                            Sim::new(
                                Arc::clone(&hh),
                                Cc2::new(),
                                WaveToken::new(&hh),
                                Box::new(Synchronous),
                                Box::new(EagerPolicy::new(n, seed)),
                            )
                        },
                        300,
                        &format!("CC2/{topo}/sync/{name}/disc{seed}"),
                    );
                }
            }
        }
    }
}

/// External environment scripting through [`Sim::flags_mut`] between steps
/// must reach the incremental engine before the next guard refresh — the
/// two engines must agree even when flags are flipped behind the policy's
/// back (walkthrough scripting, e.g. the Figure 3 replay).
#[test]
fn differential_scripted_flag_flips_agree() {
    let h = Arc::new(generators::fig1());
    let n = h.n();
    for seed in 0..10u64 {
        let mk = || {
            Sim::new(
                Arc::clone(&h),
                Cc1::new(),
                WaveToken::new(&h),
                default_daemon(seed, n),
                Box::new(sscc_core::ScriptedPolicy::new(vec![false; n], 1)),
            )
        };
        let mut inc = mk();
        inc.enable_trace();
        let mut twins = registry_twins(&mk);
        for step in 0..300u64 {
            // Script: wake professor (step % n) up for 3 steps, then drop
            // the request again — and periodically force its out-flag both
            // ways (a full policy tick overwrites external out-flags after
            // one step; the delta tick must too). Identical mutations on
            // every twin.
            let p = (step as usize) % n;
            let want = step % 6 < 3;
            let force_out = (step % 5 == 0).then_some(step % 10 == 0);
            inc.flags_mut().set_in(p, want);
            if let Some(v) = force_out {
                inc.flags_mut().set_out(p, v);
            }
            let a = inc.step();
            for (tag, s) in &mut twins {
                s.flags_mut().set_in(p, want);
                if let Some(v) = force_out {
                    s.flags_mut().set_out(p, v);
                }
                let b = s.step();
                assert_eq!(a, b, "seed {seed}/{tag}: step {step} progress disagrees");
                assert_eq!(
                    inc.cc_states(),
                    s.cc_states(),
                    "seed {seed}/{tag}: step {step} configurations diverge"
                );
            }
        }
        for (tag, s) in &twins {
            assert_eq!(
                inc.trace().unwrap().events(),
                s.trace().unwrap().events(),
                "seed {seed}/{tag}: traces"
            );
            assert_eq!(inc.rounds(), s.rounds(), "seed {seed}/{tag}: rounds");
            assert_eq!(
                inc.monitor().violations(),
                s.monitor().violations(),
                "seed {seed}/{tag}: verdicts"
            );
            assert_eq!(inc.flags(), s.flags(), "seed {seed}/{tag}: flags");
        }
    }
}

/// The lockstep bar tracks the registry: the suite drives exactly one
/// engine per registered mode (reference driver + one twin per other
/// mode), the driver really is the registry's default config, and the
/// registered set is pinned by name, so dropping a mode from the registry
/// (and with it from this suite) is a visible edit here. Cheap — this is
/// the one test here that runs in the build-test job too (no
/// `differential_` prefix).
#[test]
fn lockstep_engine_count_matches_registry() {
    let h = Arc::new(generators::fig1());
    let n = h.n();
    let mk = || {
        Sim::new(
            Arc::clone(&h),
            Cc1::new(),
            WaveToken::new(&h),
            default_daemon(1, n),
            Box::new(EagerPolicy::new(n, 1)),
        )
    };
    assert_eq!(
        ModeRegistry::get(REFERENCE_MODE).unwrap().config,
        EngineConfig::default(),
        "the reference driver must run the registry's default mode"
    );
    let twins = registry_twins(&mk);
    assert_eq!(
        twins.len() + 1,
        ModeRegistry::all().len(),
        "one lockstep engine per registered mode, no more, no fewer"
    );
    let names: Vec<&str> = ModeRegistry::all().iter().map(|m| m.name).collect();
    assert_eq!(
        names,
        [
            "full_scan",
            "par1",
            "daemon",
            "dist2",
            "dist4",
            "trusted",
            "daemon_inc",
        ],
        "the lockstep engine set changed"
    );
}

/// Mid-run surgery on a distributed sim fails closed: the shard actors own
/// the live sub-configurations, so `Sim::strike` and `Sim::mutate` must
/// reject rather than desynchronize them. Cheap — runs in the build-test
/// job too (no `differential_` prefix).
#[test]
fn distributed_sim_rejects_midrun_surgery() {
    use sscc_core::ConfigError;
    use sscc_hypergraph::{MutationError, WorldMutation};
    let h = Arc::new(generators::fig1());
    let n = h.n();
    let mut sim = Sim::new(
        Arc::clone(&h),
        Cc1::new(),
        WaveToken::new(&h),
        default_daemon(1, n),
        Box::new(EagerPolicy::new(n, 1)),
    );
    sim.configure_mode("dist2").unwrap();
    sim.run(50);
    assert!(matches!(
        sim.strike(7, 0.3),
        Err(ConfigError::DistributedUnsupported(_))
    ));
    assert!(matches!(
        sim.mutate(&WorldMutation::RemoveCommittee {
            edge: sscc_hypergraph::EdgeId(0)
        }),
        Err(MutationError::EngineRejected {
            engine: "distributed"
        })
    ));
    // An arbitrary (struck) boot is the supported way in: the fault lands
    // before the actors are built.
    let mut sim = Sim::builder(Arc::clone(&h), Cc1::new(), WaveToken::new(&h))
        .seed(1)
        .arbitrary(9)
        .mode("dist4")
        .build()
        .unwrap();
    sim.run(50);
}

/// Focused distributed lockstep, debug-runnable: the message-passing tier
/// (`dist2`/`dist4`, whose actors evaluate through member scans) against
/// the `full_scan` textbook oracle (the paper's guards one by one) on every
/// algorithm.
/// Small enough for CI's `dist-smoke` job to run in a debug build, where
/// the frame-causality `debug_assert`s (step tags, per-channel sequence
/// numbers) are live; the release differential job covers the full
/// seed × topology matrix through the registry.
#[test]
fn differential_dist_boundary_exchange_agrees() {
    fn dist_rows<C, TL>(mk: impl Fn() -> Sim<C, TL>, budget: u64, label: &str)
    where
        C: CommitteeAlgorithm + 'static,
        C::State: Copy + sscc_runtime::prelude::StateCodec,
        TL: TokenLayer + 'static,
        TL::State: Copy + sscc_runtime::prelude::StateCodec,
    {
        let mut reference = mk();
        reference.configure_mode("full_scan").unwrap();
        reference.enable_trace();
        let mut twins: Vec<(&str, Sim<C, TL>)> = ["dist2", "dist4"]
            .into_iter()
            .map(|mode| {
                let mut s = mk();
                s.configure_mode(mode)
                    .unwrap_or_else(|e| panic!("{mode} must configure: {e}"));
                s.enable_trace();
                (mode, s)
            })
            .collect();
        for step in 0..budget {
            let a = reference.step();
            for (tag, s) in &mut twins {
                let b = s.step();
                assert_eq!(a, b, "{label}/{tag}: step {step} progress disagrees");
                assert_eq!(
                    reference.cc_states(),
                    s.cc_states(),
                    "{label}/{tag}: step {step} configurations diverge"
                );
            }
            if !a {
                break;
            }
        }
        for (tag, s) in &twins {
            assert_eq!(
                reference.trace().unwrap().events(),
                s.trace().unwrap().events(),
                "{label}/{tag}: executed-action traces"
            );
            assert_eq!(reference.rounds(), s.rounds(), "{label}/{tag}: rounds");
            assert_eq!(
                reference.ledger().instances(),
                s.ledger().instances(),
                "{label}/{tag}: ledger instances"
            );
            assert_eq!(
                reference.monitor().violations(),
                s.monitor().violations(),
                "{label}/{tag}: monitor verdicts"
            );
            assert_eq!(reference.flags(), s.flags(), "{label}/{tag}: request flags");
        }
    }
    for (topo, h) in topologies() {
        for seed in 0..4u64 {
            for arbitrary in [false, true] {
                let hh = Arc::clone(&h);
                let mk = move || {
                    let b = Sim::builder(Arc::clone(&hh), Cc1::new(), WaveToken::new(&hh))
                        .seed(seed)
                        .max_disc(1);
                    let b = if arbitrary { b.arbitrary(seed) } else { b };
                    b.build().unwrap()
                };
                dist_rows(
                    mk,
                    300,
                    &format!(
                        "CC1/{topo}/{}/seed{seed}",
                        if arbitrary { "arb" } else { "clean" }
                    ),
                );
            }
            let hh = Arc::clone(&h);
            dist_rows(
                move || {
                    Sim::builder(Arc::clone(&hh), Cc2::new(), WaveToken::new(&hh))
                        .seed(seed)
                        .max_disc(1)
                        .build()
                        .unwrap()
                },
                300,
                &format!("CC2/{topo}/clean/seed{seed}"),
            );
            let hh = Arc::clone(&h);
            dist_rows(
                move || {
                    Sim::builder(Arc::clone(&hh), Cc3::new_cc3(), WaveToken::new(&hh))
                        .seed(seed)
                        .max_disc(1)
                        .build()
                        .unwrap()
                },
                300,
                &format!("CC3/{topo}/clean/seed{seed}"),
            );
        }
    }
}

/// The terminal path of a distributed sim probes through the tier, not the
/// world: a scripted environment in which only some professors request
/// leaves the system momentarily disabled until a `RequestOut` is raised,
/// so steps pass through terminal configurations whose probe finds work
/// again. `dist2` / `dist4` must stay in lockstep with the `full_scan`
/// oracle across them, and the world must stay a plain state store — its
/// commit notes never synced, so no actor can read the world's fact
/// mirror instead of its own slots. Debug-runnable (CI's `dist-smoke`).
#[test]
fn differential_dist_terminal_probe_keeps_world_plain() {
    let h = Arc::new(generators::fig1());
    let n = h.n();
    for seed in 0..4u64 {
        let mk = |mode: &str| {
            let mask = (0..n).map(|p| p % 3 != 0).collect();
            let mut sim = Sim::new(
                Arc::clone(&h),
                Cc1::new(),
                WaveToken::new(&h),
                default_daemon(seed, n),
                Box::new(sscc_core::ScriptedPolicy::new(mask, 3)),
            );
            sim.configure_mode(mode).unwrap();
            sim.enable_trace();
            sim
        };
        let mut reference = mk("full_scan");
        let mut twins = [("dist2", mk("dist2")), ("dist4", mk("dist4"))];
        let mut revived = 0;
        for step in 0..400 {
            let before = reference.world().steps();
            let a = reference.step();
            if a && reference.world().steps() == before {
                revived += 1;
            }
            for (tag, s) in &mut twins {
                assert_eq!(a, s.step(), "seed {seed}/{tag}: step {step} progress");
                assert_eq!(
                    reference.cc_states(),
                    s.cc_states(),
                    "seed {seed}/{tag}: step {step} configurations diverge"
                );
                assert!(
                    s.world().notes_stale(),
                    "seed {seed}/{tag}: step {step} synced the world's commit notes"
                );
            }
        }
        assert!(
            revived > 0,
            "seed {seed}: no terminal step found work again"
        );
        for (tag, s) in &twins {
            assert_eq!(
                reference.trace().unwrap().events(),
                s.trace().unwrap().events(),
                "seed {seed}/{tag}: traces"
            );
            assert_eq!(reference.rounds(), s.rounds(), "seed {seed}/{tag}: rounds");
            assert_eq!(reference.flags(), s.flags(), "seed {seed}/{tag}: flags");
        }
    }
}

/// The terminal/quiescence-horizon path must agree too: a scripted
/// environment in which nobody ever requests quiesces immediately under
/// both engines, after identical environment ticks.
#[test]
fn differential_quiescent_environment_agrees() {
    let h = Arc::new(generators::fig2());
    let n = h.n();
    for seed in 0..20u64 {
        let hh = Arc::clone(&h);
        assert_equivalent(
            move || {
                Sim::new(
                    Arc::clone(&hh),
                    Cc1::new(),
                    WaveToken::new(&hh),
                    default_daemon(seed, n),
                    Box::new(sscc_core::ScriptedPolicy::new(vec![false; n], 1)),
                )
            },
            200,
            &format!("CC1/fig2/no-requests/seed{seed}"),
        );
    }
}
