//! Mechanized checks of the paper's lemmas on full composed runs —
//! complementing the exhaustive small-model suite at the workspace root
//! with randomized checks on larger topologies.

use sscc_core::sim::{default_daemon, Cc1Sim, Cc2Sim, Sim};
use sscc_core::{Cc2, CommitteeView, EagerPolicy, Status};
use sscc_hypergraph::generators;
use sscc_token::WaveToken;
use std::sync::Arc;

/// Lemma 2 / Corollary 2 (Synchronization): observed for every convene in
/// long random runs (the monitor enforces it; here we assert the monitor
/// itself saw plenty of convenes — no vacuous pass).
#[test]
fn lemma2_synchronization_on_long_runs() {
    for (name, h) in [
        ("fig1", Arc::new(generators::fig1())),
        ("ring5x3", Arc::new(generators::ring(5, 3))),
    ] {
        let mut sim = Cc1Sim::standard(Arc::clone(&h), 31, 2);
        sim.run(20_000);
        assert!(
            sim.monitor().clean(),
            "{name}: {:?}",
            sim.monitor().violations()
        );
        assert!(sim.ledger().convened_count() > 100, "{name}: vacuous");
    }
}

/// Lemma 4 / Corollary 4 (Essential Discussion): after a committee
/// convenes, every participant executes the essential discussion before
/// the meeting can end. Verified per instance on the ledger.
#[test]
fn lemma4_essential_discussion_per_instance() {
    let h = Arc::new(generators::fig1());
    let mut sim = Cc2Sim::standard(Arc::clone(&h), 5, 3);
    sim.run(20_000);
    let mut checked = 0;
    for m in sim.ledger().post_initial_instances() {
        if m.terminated_step.is_some() {
            for q in &m.participants {
                assert!(
                    m.discussed(*q),
                    "participant p{q} skipped essential discussion in {m:?}"
                );
            }
            checked += 1;
        }
    }
    assert!(
        checked > 50,
        "enough terminated instances checked: {checked}"
    );
}

/// Lemma 5 (Voluntary Discussion): meetings end only through a unilateral
/// Step4 leave — every terminated instance records at least one leaver —
/// and the lifecycle takes at least convene → essential → leave (two
/// steps). (`maxDisc` is enforced in *environment time*, which can run
/// faster than steps while the system waits on `RequestOut`; the
/// environment-side contract is tested in `sscc-core`'s oracle tests.)
#[test]
fn lemma5_voluntary_discussion() {
    let h = Arc::new(generators::fig2());
    let mut sim = Cc2Sim::standard(Arc::clone(&h), 11, 4);
    sim.run(20_000);
    let mut checked = 0;
    for m in sim.ledger().post_initial_instances() {
        if let (Some(c), Some(t)) = (m.convened_step, m.terminated_step) {
            assert!(!m.left_by.is_empty(), "involuntary termination: {m:?}");
            assert!(t - c >= 2, "lifecycle needs essential before leave: {m:?}");
            // Leavers must have discussed first (2-phase order).
            for q in m.leavers() {
                assert!(m.discussed(q), "left before discussing: {m:?}");
            }
            checked += 1;
        }
    }
    assert!(checked > 30, "checked {checked}");
}

/// Lemma 6 (Progress): any all-looking committee whose members stay in the
/// waiting state cannot be ignored forever — CC1 keeps convening meetings
/// whenever requests exist, across many seeds.
#[test]
fn lemma6_progress_under_load() {
    let h = Arc::new(generators::path(4, 3));
    for seed in 0..8u64 {
        let mut sim = Cc1Sim::standard(Arc::clone(&h), seed, 1);
        let (_, ok) = sim.run_until(20_000, |s| s.ledger().convened_count() >= 10);
        assert!(ok, "seed {seed}: progress stalled");
    }
}

/// Lemma 11 / Corollary 6: no process holds the token forever under CC2 —
/// the holder set keeps changing, and every process holds it eventually.
#[test]
fn lemma11_token_keeps_moving_under_cc2() {
    let h = Arc::new(generators::ring(4, 2));
    let wave = WaveToken::new(&h);
    let mut sim = Sim::new(
        Arc::clone(&h),
        Cc2::new(),
        WaveToken::new(&h),
        default_daemon(3, h.n()),
        Box::new(EagerPolicy::new(h.n(), 1)),
    );
    let mut held = vec![false; h.n()];
    for _ in 0..40_000u64 {
        if !sim.step() {
            break;
        }
        let toks: Vec<_> = sim.world().states().iter().map(|s| s.tok).collect();
        use sscc_runtime::prelude::{Ctx, SliceAccess};
        let acc = SliceAccess(&toks);
        for (p, held_p) in held.iter_mut().enumerate() {
            let ctx: Ctx<'_, sscc_token::WaveState, ()> = Ctx::new(&h, p, &acc, &());
            if sscc_token::TokenLayer::token(&wave, &ctx) {
                *held_p = true;
            }
        }
        if held.iter().all(|&x| x) {
            break;
        }
    }
    assert!(held.iter().all(|&x| x), "token visited: {held:?}");
}

/// Theorem 2/3 corollary, negatively: the monitors are not vacuous — they
/// do catch violations when fed a corrupted history (meta-test of the
/// verification harness itself).
#[test]
fn monitors_catch_seeded_violations() {
    use sscc_core::{LedgerEvent, MeetingLedger, SpecMonitor};
    use sscc_hypergraph::EdgeId;
    let h = generators::fig2();
    let idle = vec![sscc_core::Cc1State::idle(); h.n()];
    let mut ledger = MeetingLedger::new(&h, &idle);
    let mut monitor = SpecMonitor::new();
    // Convene {3,4} with professor 4 already done: Lemma 2 violation.
    let mut bad = idle.clone();
    bad[h.dense_of(3)] = sscc_core::Cc1State {
        s: Status::Waiting,
        p: Some(EdgeId(2)),
        t: false,
    };
    bad[h.dense_of(4)] = sscc_core::Cc1State {
        s: Status::Done,
        p: Some(EdgeId(2)),
        t: false,
    };
    let events = ledger.observe(&h, &idle, &bad, 1, 0, &[]);
    assert!(matches!(events[..], [LedgerEvent::Convened(_)]));
    monitor.observe(&h, &bad, 1, &ledger, &events);
    assert!(
        !monitor.clean(),
        "the monitor must flag the seeded violation"
    );
}

/// CC1 and CC2 never regress to `idle`/`looking` from inside a live
/// meeting except through Step4 — statuses observed across a long run only
/// move along the legal lifecycle.
#[test]
fn status_lifecycle_is_legal() {
    let h = Arc::new(generators::fig1());
    let mut sim = Cc1Sim::standard(Arc::clone(&h), 17, 2);
    let mut prev = sim.cc_states();
    for _ in 0..5_000u64 {
        if !sim.step() {
            break;
        }
        let now = sim.cc_states();
        for p in 0..h.n() {
            use Status::*;
            let legal = match (prev[p].status(), now[p].status()) {
                (a, b) if a == b => true,
                (Idle, Looking) => true,    // Step1
                (Looking, Waiting) => true, // Step31
                (Waiting, Done) => true,    // Step32
                (Done, Idle) => true,       // Step4
                (Waiting, Looking) => true, // Stab2 (faults only)
                (Done, Looking) => true,    // Stab2 (faults only)
                _ => false,
            };
            assert!(
                legal,
                "illegal status transition at p{p}: {:?} -> {:?}",
                prev[p].status(),
                now[p].status()
            );
        }
        prev = now;
    }
    // From a clean boot the Stab transitions must never have fired:
    assert!(sim.monitor().clean());
}
