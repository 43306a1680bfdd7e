//! An online snapshot costs the live state, not the history — measured at
//! the allocator, so the claim is exact on every host: a primed
//! `Sim::snapshot()` requests the same bytes after 12 000 steps of history
//! as after 1 600, give or take the segment sealed since the previous
//! capture and the live tail (the records behind the oldest open meeting)
//! — under 1 % of what the history grew by. In release builds it is also
//! timed: the capture sits on a service's tick path, so it must cost less
//! than the mean step it rides on.

mod common;

use common::requests_during;
use sscc::core::sim::{Cc1Sim, Cc2Sim, Cc3Sim};
use sscc::core::{CommitteeAlgorithm, MeetingInstance, Sim};
use sscc::hypergraph::generators;
use sscc::runtime::prelude::StateCodec;
use sscc::token::TokenLayer;
use std::sync::Arc;
use std::time::Instant;

/// Debug builds re-evaluate every guard after every refresh, `O(n)` a step:
/// they run the same pin on a ring the tier-1 command can afford.
const RING: usize = if cfg!(debug_assertions) { 48 } else { 1536 };

fn check<C, TL>(algo: &str, mut sim: Sim<C, TL>)
where
    C: CommitteeAlgorithm,
    TL: TokenLayer,
    C::State: Copy + StateCodec,
    TL::State: Copy + StateCodec,
{
    // Warm-up, then the mean steady-state step.
    sim.run(400);
    let start = Instant::now();
    sim.run(1_200);
    let step = start.elapsed().as_secs_f64() / 1_200.0;

    // Bytes a capture requests one step after the previous capture, and the
    // best of 40 such captures in seconds.
    let primed_capture = |sim: &mut Sim<C, TL>| {
        // A checkpoint-on-tick service seals from tick one: prime the seal
        // over the history so far, then capture at tick cadence.
        drop(sim.snapshot().expect("the standard stack snapshots"));
        sim.step();
        let bytes = requests_during(usize::MAX, || sim.snapshot().unwrap()).0;
        let mut best = f64::INFINITY;
        for _ in 0..40 {
            sim.step();
            let start = Instant::now();
            let snapshot = sim.snapshot().unwrap();
            best = best.min(start.elapsed().as_secs_f64());
            drop(snapshot);
        }
        (bytes.total, best)
    };
    let (early, capture) = primed_capture(&mut sim);
    let records = sim.ledger().instances().len();
    sim.run(12_000 - sim.steps());
    let (late, _) = primed_capture(&mut sim);
    let grown = sim.ledger().instances().len() - records;
    let history = grown * std::mem::size_of::<MeetingInstance>();
    eprintln!(
        "{algo} ring{RING}: a capture requests {early} B after 1.6k steps, {late} B after 12k \
         ({history} B of history later); step {:.1} us, capture {:.1} us = {:.2} x step",
        step * 1e6,
        capture * 1e6,
        capture / step
    );
    assert!(grown > 100 * RING, "{algo}: the history must have grown");
    assert!(
        late.abs_diff(early) * 100 < history,
        "{algo}: {early} B → {late} B while the history grew {history} B"
    );
    // A debug step is not the step a capture competes with.
    if !cfg!(debug_assertions) {
        assert!(capture < step, "{algo}: a capture costs more than a step");
    }
}

// One test: the recorder is process-wide, so nothing else may run beside it.
#[test]
fn a_primed_snapshot_costs_the_live_state_not_the_history() {
    let h = Arc::new(generators::ring(RING, 2));
    check("cc1", Cc1Sim::standard(Arc::clone(&h), 7, 1));
    check("cc2", Cc2Sim::standard(Arc::clone(&h), 7, 1));
    check("cc3", Cc3Sim::standard(Arc::clone(&h), 7, 1));
}
