//! The default incremental path — value-level invalidation over counted
//! committee facts — against its oracles.
//!
//! Three layers of evidence, none of which the release differential suite
//! gives on its own:
//!
//! * **Debug lockstep** (`value_level_*_matches_default`, `*_churn_*`):
//!   the default path and its daemon stack against the mirror-free
//!   `full_scan` oracle in the plain build-test job, where every masked
//!   evaluation is `debug_assert`ed against the per-guard reference and
//!   every refresh checks the *whole* cache against a fresh evaluation — a
//!   stale fact or a pruned-away guard trips at the step that produced it.
//! * **Release soundness** (`filter_is_sound_*`): the same statement without
//!   debug asserts, as explicit assertions — after every step, under
//!   strikes, mutations and request-flag flips, the cache equals
//!   `World::priority_actions`, the counters equal a from-scratch rebuild,
//!   and the trajectory equals `full_scan`'s.
//! * **Exact work pins** (`dirty_marks_*`, `observer_work_*`): the
//!   deterministic number of guards the filter enqueues, and of committees
//!   and view entries the facade hands its observers, over a fixed run — so
//!   neither can silently re-grow.

use proptest::prelude::*;
use sscc_core::compose::ProjCc;
use sscc_core::sim::{default_daemon, Sim};
use sscc_core::{
    Cc1, Cc2, Cc3, CommitteeAlgorithm, Composed, EagerPolicy, EngineConfig, ObserverWork,
    RequestFlags,
};
use sscc_hypergraph::{generators, random_mutation, Hypergraph};
use sscc_runtime::prelude::{
    strike, strike_some, CampaignEvent, DistributedRandom, FaultCampaign, WeaklyFair, World,
};
use sscc_token::{TokenLayer, WaveToken};
use std::sync::Arc;

/// Step the `full_scan` oracle against the default path and its daemon
/// stack and require identical configurations and observables at every
/// step.
fn assert_matches_oracle<C, TL>(mk: impl Fn() -> Sim<C, TL>, budget: u64, label: &str)
where
    C: CommitteeAlgorithm + 'static,
    C::State: Copy + sscc_runtime::prelude::StateCodec,
    TL: TokenLayer + 'static,
    TL::State: Copy + sscc_runtime::prelude::StateCodec,
{
    let mut reference = mk();
    reference.configure_mode("full_scan").unwrap();
    reference.enable_trace();
    let mut twins: Vec<(&str, Sim<C, TL>)> = ["par1", "daemon"]
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
            reference.monitor().violations(),
            s.monitor().violations(),
            "{label}/{tag}: monitor verdicts"
        );
        assert_eq!(
            reference.ledger().instances(),
            s.ledger().instances(),
            "{label}/{tag}: ledger instances"
        );
    }
}

macro_rules! vl_lockstep {
    ($name:ident, $cc:expr, $algo:literal) => {
        #[test]
        fn $name() {
            for (topo, h) in [
                ("fig2", Arc::new(generators::fig2())),
                ("ring6x2", Arc::new(generators::ring(6, 2))),
            ] {
                let n = h.n();
                for seed in 0..6u64 {
                    // Clean boot.
                    let hh = Arc::clone(&h);
                    assert_matches_oracle(
                        move || {
                            Sim::new(
                                Arc::clone(&hh),
                                $cc,
                                WaveToken::new(&hh),
                                default_daemon(seed, n),
                                Box::new(EagerPolicy::new(n, 1)),
                            )
                        },
                        300,
                        &format!("{}/{topo}/clean/seed{seed}", $algo),
                    );
                    // Arbitrary boot: the mirror must be rebuilt from (and
                    // stay coherent under) fault debris too.
                    let hh = Arc::clone(&h);
                    assert_matches_oracle(
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
                        300,
                        &format!("{}/{topo}/arbitrary/seed{seed}", $algo),
                    );
                }
            }
        }
    };
}

vl_lockstep!(value_level_cc1_matches_default, Cc1::new(), "CC1");
vl_lockstep!(value_level_cc2_matches_default, Cc2::new(), "CC2");
vl_lockstep!(value_level_cc3_matches_default, Cc3::new_cc3(), "CC3");

/// Churn lockstep in the debug build: topology mutations and transient
/// faults repair the committee fact mirror in place
/// (`CommitteeAlgorithm::repair_facts`, `World::set_state`'s one-process
/// commit) — and every masked evaluation afterwards is cross-checked against
/// the per-guard reference by the evaluators' `debug_assert_eq!`s, so a
/// stale mirror entry trips at the exact step that reads it, not as a
/// downstream divergence.
macro_rules! vl_churn_lockstep {
    ($name:ident, $cc:expr, $algo:literal) => {
        #[test]
        fn $name() {
            use rand::{rngs::StdRng, SeedableRng as _};
            for (topo, h) in [
                ("fig2", Arc::new(generators::fig2())),
                ("ring6x2", Arc::new(generators::ring(6, 2))),
                ("tree", Arc::new(generators::tree_pairs(10, 3))),
            ] {
                let n = h.n();
                for seed in 0..4u64 {
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
                    let mut reference = mk();
                    reference.configure_mode("full_scan").unwrap();
                    let mut twins: Vec<(&str, _)> = ["par1", "daemon"]
                        .into_iter()
                        .map(|mode| {
                            let mut s = mk();
                            s.configure_mode(mode)
                                .unwrap_or_else(|e| panic!("{mode} must configure: {e}"));
                            (mode, s)
                        })
                        .collect();
                    let mut campaign = FaultCampaign::new(seed, 50, 35);
                    for step in 1..=250u64 {
                        for ev in campaign.poll(step) {
                            match ev {
                                CampaignEvent::Strike { seed: fs } => {
                                    reference.strike(fs, 0.3).unwrap();
                                    for (_, s) in &mut twins {
                                        s.strike(fs, 0.3).unwrap();
                                    }
                                }
                                CampaignEvent::Churn { seed: cs } => {
                                    let mut rng = StdRng::seed_from_u64(cs);
                                    let proposal = random_mutation(reference.h(), &mut rng);
                                    let want = reference.mutate(&proposal).is_ok();
                                    for (tag, s) in &mut twins {
                                        assert_eq!(
                                            want,
                                            s.mutate(&proposal).is_ok(),
                                            "{label}/{tag}: mutation outcomes diverge"
                                        );
                                    }
                                }
                            }
                        }
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
                    }
                    for (tag, s) in &twins {
                        assert_eq!(
                            reference.monitor().violations(),
                            s.monitor().violations(),
                            "{label}/{tag}: monitor verdicts"
                        );
                        assert_eq!(
                            reference.ledger().instances(),
                            s.ledger().instances(),
                            "{label}/{tag}: ledger instances"
                        );
                    }
                }
            }
        }
    };
}

vl_churn_lockstep!(value_level_cc1_churn_matches_default, Cc1::new(), "CC1");
vl_churn_lockstep!(value_level_cc2_churn_matches_default, Cc2::new(), "CC2");
vl_churn_lockstep!(value_level_cc3_churn_matches_default, Cc3::new_cc3(), "CC3");

/// Mid-campaign surgery must keep the commit-note lifecycle honest: every
/// disruption either repairs the mirror **in sync** (`World::set_state`,
/// `repair_after_mutation` with a live mirror) or drops it and marks
/// `notes_stale` for a pre-evaluation rebuild — never leaves a silently
/// stale mirror. Pinned on the engine's own `notes_stale` flag at each stage
/// of a fault/churn/reset sequence.
#[test]
fn value_level_surgery_marks_notes_stale_mid_campaign() {
    use rand::{rngs::StdRng, SeedableRng as _};
    let h = Arc::new(generators::ring(8, 2));
    let n = h.n();
    let mut sim = Sim::new(
        Arc::clone(&h),
        Cc1::new(),
        WaveToken::new(&h),
        default_daemon(5, n),
        Box::new(EagerPolicy::new(n, 1)),
    );
    assert!(
        sim.world().notes_stale(),
        "a booted world has no mirror until its first refresh"
    );
    // A mutation before the first evaluation finds no live mirror: the
    // repair must fall back on the stale-notes path, not fake success.
    sim.mutate(&sscc_hypergraph::WorldMutation::AddCommittee {
        members: vec![0, 3],
    })
    .unwrap();
    assert!(
        sim.world().notes_stale(),
        "no live mirror yet: mutation keeps the rebuild pending"
    );
    for _ in 0..40 {
        sim.step();
    }
    assert!(
        !sim.world().notes_stale(),
        "stepping rebuilds the mirror and clears the flag"
    );
    // Transient fault mid-campaign: each overwrite is a one-process commit
    // that moves the counters, keeping the mirror fresh in sync.
    sim.strike(17, 0.4).unwrap();
    assert!(
        !sim.world().notes_stale(),
        "fault surgery repairs the live mirror in sync (set_state)"
    );
    // Topology churn mid-campaign: repair_after_mutation repairs the live
    // mirror in place — no full rebuild scheduled.
    let mut rng = StdRng::seed_from_u64(23);
    let mut applied = 0;
    while applied < 3 {
        let proposal = random_mutation(sim.h(), &mut rng);
        if sim.mutate(&proposal).is_ok() {
            applied += 1;
            assert!(
                !sim.world().notes_stale(),
                "churn repairs the live mirror in sync (repair_facts)"
            );
        }
    }
    for _ in 0..40 {
        sim.step();
    }
    // Wholesale invalidation still routes through the full rebuild.
    sim.reset_observers();
    assert!(
        sim.world().notes_stale(),
        "observer reset drops the mirror for a full rebuild"
    );
    sim.run(200);
    assert!(sim.monitor().clean(), "{:?}", sim.monitor().violations());
    // The oracle never builds one.
    sim.migrate_mode("full_scan").unwrap();
    sim.run(50);
    assert!(sim.world().notes_stale(), "full_scan evaluates mirror-free");
}

/// State surgery through [`Sim::set_cc_state`] + [`Sim::reset_observers`]
/// drops the engine's commit notes; the next step must rebuild the mirror
/// before evaluating — pinned here because the debug asserts fire
/// immediately if it does not.
#[test]
fn value_level_survives_state_surgery() {
    let h = Arc::new(generators::fig2());
    let n = h.n();
    let mk = || {
        Sim::new(
            Arc::clone(&h),
            Cc1::new(),
            WaveToken::new(&h),
            default_daemon(3, n),
            Box::new(EagerPolicy::new(n, 1)),
        )
    };
    let mut reference = mk();
    reference.configure_mode("full_scan").unwrap();
    let mut vl = mk();
    for round in 0..8 {
        for _ in 0..40 {
            reference.step();
            vl.step();
            assert_eq!(reference.cc_states(), vl.cc_states());
        }
        // Identical surgery on both: corrupt one professor mid-run.
        let p = round % n;
        let corrupted = sscc_core::Cc1State {
            s: sscc_core::Status::Waiting,
            p: None,
            t: round % 2 == 0,
        };
        reference.set_cc_state(p, corrupted);
        vl.set_cc_state(p, corrupted);
        reference.reset_observers();
        vl.reset_observers();
    }
}

/// Regression (release builds): with the notes stale — `set_states`,
/// `invalidate_all`, `algo_mut` — the "pure full evaluation" entry points
/// used to evaluate through the *stale* fact mirror and return wrong
/// answers (563 differing entries over these 20 seeds when value-level was
/// still a mode). The evaluator now reads the mirror only while the engine
/// keeps it in sync.
#[test]
fn stale_mirror_is_never_read() {
    for seed in 0..20u64 {
        let h = Arc::new(generators::power_law(96, 144, 7));
        let mut sim = Sim::builder(Arc::clone(&h), Cc2::new(), WaveToken::new(&h))
            .seed(seed)
            .arbitrary(seed)
            .build()
            .unwrap();
        sim.run(200);
        assert!(!sim.world().notes_stale(), "a live mirror to go stale");
        // An unrelated configuration, and what a mirror-free world makes of
        // it under the same flags.
        let mut donor = World::new(
            Arc::clone(&h),
            Composed::new(Cc2::new(), WaveToken::new(&h)),
        );
        strike(&mut donor, seed + 1000);
        let flags = sim.flags().clone();
        let want = donor.priority_actions(&flags);
        assert!(
            donor.notes_stale(),
            "the donor never evaluated through notes"
        );

        sim.world_mut().set_states(donor.states().to_vec());
        assert!(sim.world().notes_stale());
        assert_eq!(
            sim.world().priority_actions(&flags),
            want,
            "seed {seed}: evaluation after set_states"
        );
        assert_eq!(sim.world().enabled(&flags), donor.enabled(&flags));
        // The cache agrees once it is refreshed, and so does the rebuilt
        // mirror.
        assert_eq!(sim.world_mut().actions_now(&flags), &want[..]);
        assert_eq!(sim.world().priority_actions(&flags), want);
        // `algo_mut` / `invalidate_all` drop the mirror the same way.
        sim.world_mut().invalidate_all();
        assert_eq!(sim.world().priority_actions(&flags), want);
    }
}

/// One soundness run: the default engine against a `full_scan` twin on the
/// same `World`-level inputs, under interleaved strikes, mutations and
/// request-flag flips, asserting after every step that
///
/// * the trajectory is the oracle's (outcome and configuration),
/// * the incremental cache equals a fresh evaluation — both the engine's
///   own `World::priority_actions` (masked, live mirror) and the oracle's
///   (member scan, no mirror): no guard the filter skipped has changed,
/// * the counters and fact bytes equal a from-scratch rebuild.
fn assert_filter_sound<C: CommitteeAlgorithm>(
    mk_cc: fn() -> C,
    h: Hypergraph,
    seed: u64,
    steps: u64,
) where
    C::State: std::fmt::Debug,
{
    use rand::{rngs::StdRng, Rng as _, SeedableRng as _};
    let h = Arc::new(h);
    let n = h.n();
    let mk = || {
        let mut w = World::new(Arc::clone(&h), Composed::new(mk_cc(), WaveToken::new(&h)));
        strike(&mut w, seed);
        w
    };
    let (mut inc, mut oracle) = (mk(), mk());
    oracle.configure(&EngineConfig::full_scan()).unwrap();
    let mut flags = RequestFlags::new(n);
    let mut d_inc = WeaklyFair::new(DistributedRandom::new(seed, 0.5), 4 * n);
    let mut d_oracle = WeaklyFair::new(DistributedRandom::new(seed, 0.5), 4 * n);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    for step in 0..steps {
        match rng.random_range(0..12u32) {
            0 => {
                let fs = rng.random();
                assert_eq!(
                    strike_some(&mut inc, fs, 0.2),
                    strike_some(&mut oracle, fs, 0.2)
                );
            }
            1 => {
                let proposal = random_mutation(inc.h(), &mut rng);
                assert_eq!(inc.mutate(&proposal), oracle.mutate(&proposal));
            }
            2..=4 => {
                for _ in 0..rng.random_range(1..4usize) {
                    let p = rng.random_range(0..n);
                    flags.set_in(p, rng.random_bool(0.7));
                    flags.set_out(p, rng.random_bool(0.6));
                }
                flags.drain_changed(|p| inc.invalidate_env_of(p));
            }
            _ => {}
        }
        let a = inc.step(&mut d_inc, &flags);
        let b = oracle.step(&mut d_oracle, &flags);
        assert_eq!(a, b, "seed {seed} step {step}: outcome");
        assert_eq!(inc.states(), oracle.states(), "seed {seed} step {step}");
        let fresh = oracle.priority_actions(&flags);
        assert_eq!(
            inc.actions_now(&flags),
            &fresh[..],
            "seed {seed} step {step}: a skipped guard changed"
        );
        assert_eq!(
            inc.priority_actions(&flags),
            fresh,
            "seed {seed} step {step}: masked evaluation"
        );
        assert!(!inc.notes_stale() && oracle.notes_stale());
        assert!(
            inc.algo()
                .cc
                .facts_in_sync(inc.h(), &ProjCc::new(inc.states())),
            "seed {seed} step {step}: counters drifted from a rebuild"
        );
    }
}

/// The five topology families of the soundness sweep; `s` picks the draw of
/// the seeded ones.
fn family(ix: usize, s: u64) -> Hypergraph {
    match ix {
        0 => generators::fig1(),
        1 => generators::fig2(),
        2 => generators::ring(12, 2 + (s % 2) as usize),
        3 => generators::grid_pairs(4, 5),
        _ => generators::power_law(96, 144, s),
    }
}

/// Cases × steps per algorithm: the debug profile pays a whole-cache check
/// per refresh and a per-guard reference per evaluation on top, so tier-1
/// runs a sample and CI's release `differential` job the full sweep.
const SWEEP: (u32, u64) = if cfg!(debug_assertions) {
    (10, 120)
} else {
    (60, 300)
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(SWEEP.0))]

    #[test]
    fn filter_is_sound_cc1(seed in 0u64..10_000, topo in 0usize..5) {
        assert_filter_sound(Cc1::new, family(topo, seed % 9), seed, SWEEP.1);
    }

    #[test]
    fn filter_is_sound_cc2(seed in 0u64..10_000, topo in 0usize..5) {
        assert_filter_sound(Cc2::new, family(topo, seed % 9), seed, SWEEP.1);
    }

    #[test]
    fn filter_is_sound_cc3(seed in 0u64..10_000, topo in 0usize..5) {
        assert_filter_sound(Cc3::new_cc3, family(topo, seed % 9), seed, SWEEP.1);
    }
}

/// Guards enqueued between refreshes, summed over a fixed run: the
/// deterministic work counter behind `runtime.dirty_per_step`.
fn dirty_marks<C, TL>(mut sim: Sim<C, TL>, steps: u64) -> u64
where
    C: CommitteeAlgorithm,
    TL: TokenLayer,
{
    let mut marks = 0;
    for _ in 0..steps {
        marks += sim.world().dirty_queue().len() as u64;
        assert!(sim.step(), "the pinned runs never quiesce");
    }
    marks
}

/// Degree-2 footprints: the count when every committee has two members.
/// With topological footprints (the default path before PR 16) the same
/// run enqueued 25 995 guards.
#[test]
fn dirty_marks_are_pinned_on_the_ring() {
    let h = Arc::new(generators::ring(96, 2));
    let sim = Sim::builder(Arc::clone(&h), Cc1::new(), WaveToken::new(&h))
        .seed(7)
        .build()
        .unwrap();
    assert_eq!(dirty_marks(sim, 500), 21_394);
}

/// Hubs: committees of up to a dozen members, where a topological
/// footprint is an order of magnitude wider than the readers of a flipped
/// fact. With topological footprints the same run enqueued 37 907 guards.
#[test]
fn dirty_marks_are_pinned_on_hubs() {
    let h = Arc::new(generators::power_law(96, 144, 7));
    let sim = Sim::builder(Arc::clone(&h), Cc2::new(), WaveToken::new(&h))
        .seed(7)
        .arbitrary(7)
        .build()
        .unwrap();
    assert_eq!(dirty_marks(sim, 500), 28_649);
}

/// What the facade handed its observers over a fixed run at benchmark size.
fn observer_work<C, TL>(mut sim: Sim<C, TL>, steps: u64) -> ObserverWork
where
    C: CommitteeAlgorithm,
    TL: TokenLayer,
{
    for _ in 0..steps {
        assert!(sim.step(), "the pinned runs never quiesce");
    }
    sim.observer_work()
}

/// The `cc1-ring` topology: 114 committees re-checked and 382 view entries
/// re-derived per step. Marking every incident committee and the closed
/// neighbourhood of every executed process (the facade before PR 17) hands
/// over 293 354 and 386 866 on the same run — 587 and 774 per step.
#[test]
fn observer_work_is_pinned_on_the_ring() {
    let h = Arc::new(generators::ring(1536, 2));
    let sim = Sim::builder(Arc::clone(&h), Cc1::new(), WaveToken::new(&h))
        .seed(7)
        .build()
        .unwrap();
    assert_eq!(
        observer_work(sim, 500),
        ObserverWork {
            edges_rechecked: 56_760,
            views_rederived: 191_049,
        }
    );
}

/// The `cc2-powerlaw` topology from an arbitrary boot: 123 and 342 per step
/// against 1 069 and 1 310 (534 649 and 655 009 over the run) — a hub's
/// closed neighbourhood is most of the graph, its `(P, S)` diff names at
/// most two committees.
#[test]
fn observer_work_is_pinned_on_hubs() {
    let h = Arc::new(generators::power_law(1536, 2304, 7));
    let sim = Sim::builder(Arc::clone(&h), Cc2::new(), WaveToken::new(&h))
        .seed(7)
        .arbitrary(7)
        .build()
        .unwrap();
    assert_eq!(
        observer_work(sim, 500),
        ObserverWork {
            edges_rechecked: 61_288,
            views_rederived: 171_248,
        }
    );
}
