//! The closed-loop workloads: a bare `Sim` (or its replica) stepped under
//! the eager environment.

use super::{
    fault_seed, finish_closed_loop, guard_eval_of, observe_closed_loop, reading_of, Drill, Driver,
    Finish, ReplicaReading, Sojourn,
};
use crate::replica::{Counters, ReplicaSim};
use crate::spans::{self, Kind};
use sscc_core::{
    default_daemon, CommitteeAlgorithm, EagerPolicy, EngineConfig, MeetingLedger, Sim,
};
use sscc_hypergraph::Hypergraph;
use sscc_persist::Checkpoint;
use sscc_runtime::prelude::StateCodec;
use sscc_token::WaveToken;
use std::sync::Arc;

/// Checkpoint round trip of a bare `Sim`, continuing on the restored one.
pub fn drill_sim<C>(sim: &mut Sim<C, WaveToken>, label: &str, make_cc: fn() -> C) -> Drill
where
    C: CommitteeAlgorithm + 'static,
    C::State: Copy + StateCodec,
{
    let t0 = spans::now();
    let snapshot = sim.snapshot().expect("persistable daemon and policy");
    let t1 = spans::now();
    drop(snapshot);
    let mut flat = Vec::new();
    let t2 = spans::now();
    sim.save_state(&mut flat);
    let t3 = spans::now();
    let ckpt = Checkpoint::capture(label, sim).expect("persistable daemon and policy");
    let t4 = spans::now();
    let bytes = ckpt.to_bytes();
    let t5 = spans::now();
    drop(ckpt);
    let back = Checkpoint::from_bytes(&bytes).expect("own container decodes");
    let t6 = spans::now();
    let restored = back
        .restore(|_| make_cc(), WaveToken::new)
        .expect("own checkpoint restores");
    let t7 = spans::now();
    spans::record(Kind::Capture, t3, t4);
    spans::record(Kind::Encode, t4, t5);
    spans::record(Kind::Decode, t5, t6);
    spans::record(Kind::Restore, t6, t7);
    let mut again = Vec::new();
    restored.save_state(&mut again);
    *sim = restored;
    Drill {
        capture_ns: t4 - t3,
        encode_ns: t5 - t4,
        decode_ns: t6 - t5,
        restore_ns: t7 - t6,
        bytes: bytes.len() as u64,
        snapshot_ns: t1 - t0,
        save_state_ns: t3 - t2,
        identical: again == flat,
    }
}

/// A closed-loop workload on the real `Sim`.
pub struct SimDriver<C: CommitteeAlgorithm> {
    sim: Sim<C, WaveToken>,
    label: &'static str,
    make_cc: fn() -> C,
    stalled: u64,
}

impl<C> Driver for SimDriver<C>
where
    C: CommitteeAlgorithm + 'static,
    C::State: Copy + StateCodec,
{
    fn call(&mut self) -> bool {
        let ok = self.sim.step();
        self.stalled += u64::from(!ok);
        ok
    }

    fn observe(&mut self, soj: &mut Sojourn, tick: u64, _t0: u64, t1: u64) -> u64 {
        observe_closed_loop(self.sim.ledger(), self.sim.last_events(), soj, tick, t1)
    }

    fn ledger(&self) -> &MeetingLedger {
        self.sim.ledger()
    }

    fn steps(&self) -> u64 {
        self.sim.steps()
    }

    fn clean(&self) -> bool {
        self.sim.monitor().clean()
    }

    fn drill(&mut self) -> Option<Drill> {
        Some(drill_sim(&mut self.sim, self.label, self.make_cc))
    }

    fn finish(&mut self, _soj: &mut Sojourn, _tick: u64, window_calls: u64) -> Finish {
        finish_closed_loop(
            window_calls,
            self.stalled,
            self.sim.monitor().violations().len(),
        )
    }
}

/// A closed-loop workload on the phase-split replica.
pub struct ReplicaDriver<C: CommitteeAlgorithm> {
    sim: ReplicaSim<C>,
    stalled: u64,
}

impl<C> Driver for ReplicaDriver<C>
where
    C: CommitteeAlgorithm + 'static,
    C::State: Copy + StateCodec,
{
    fn call(&mut self) -> bool {
        let ok = self.sim.step();
        self.stalled += u64::from(!ok);
        ok
    }

    fn observe(&mut self, soj: &mut Sojourn, tick: u64, _t0: u64, t1: u64) -> u64 {
        observe_closed_loop(self.sim.ledger(), self.sim.last_events(), soj, tick, t1)
    }

    fn ledger(&self) -> &MeetingLedger {
        self.sim.ledger()
    }

    fn steps(&self) -> u64 {
        self.sim.world().steps()
    }

    fn clean(&self) -> bool {
        self.sim.monitor().clean()
    }

    fn finish(&mut self, _soj: &mut Sojourn, _tick: u64, window_calls: u64) -> Finish {
        finish_closed_loop(
            window_calls,
            self.stalled,
            self.sim.monitor().violations().len(),
        )
    }

    fn replica(&self) -> Option<ReplicaReading> {
        Some(reading_of(&self.sim))
    }

    fn reset_counters(&mut self) {
        self.sim.counters = Counters::default();
    }

    fn guard_eval_ns(&self) -> Option<f64> {
        Some(guard_eval_of(&self.sim))
    }
}

/// `make_cc()` ∘ WaveToken on `h` under the default daemon (seeded) and the
/// eager environment, in engine mode `mode`, from a clean or an arbitrary
/// (seeded) boot.
pub fn build_closed_loop<C>(
    h: &Arc<Hypergraph>,
    label: &'static str,
    make_cc: fn() -> C,
    seed: u64,
    mode: &str,
    arbitrary: bool,
) -> SimDriver<C>
where
    C: CommitteeAlgorithm + 'static,
    C::State: Copy + StateCodec,
{
    let mut b = Sim::builder(Arc::clone(h), make_cc(), WaveToken::new(h))
        .seed(seed)
        .max_disc(1)
        .mode(mode);
    if arbitrary {
        b = b.arbitrary(fault_seed(seed));
    }
    SimDriver {
        sim: b.build().expect("registry mode"),
        label,
        make_cc,
        stalled: 0,
    }
}

/// The replica of what [`build_closed_loop`] builds.
pub fn build_closed_loop_replica<C>(
    h: &Arc<Hypergraph>,
    make_cc: fn() -> C,
    seed: u64,
    mode: &str,
    arbitrary: bool,
) -> ReplicaDriver<C>
where
    C: CommitteeAlgorithm + 'static,
    C::State: Copy + StateCodec,
{
    let cfg: EngineConfig = mode.parse().expect("registry mode");
    ReplicaDriver {
        sim: ReplicaSim::new(
            Arc::clone(h),
            make_cc(),
            default_daemon(seed, h.n()),
            Box::new(EagerPolicy::new(h.n(), 1)),
            arbitrary.then(|| fault_seed(seed)),
            &cfg,
        ),
        stalled: 0,
    }
}
