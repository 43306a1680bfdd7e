//! The served workloads: `cc1_service` (or its replica) ticked under an
//! open-loop arrival process, with a harness-side mirror of its admission
//! queue.

use super::{
    guard_eval_of, reading_of, Drill, Driver, Finish, ReplicaReading, Sojourn, DRAIN_LIMIT,
};
use crate::replica::{ReplicaService, ReplicaSim};
use crate::spans::{self, Kind};
use crate::wrappers::RecordingSource;
use sscc_core::{default_daemon, Cc1, EngineConfig, LedgerEvent, MeetingLedger, OpenLoopPolicy};
use sscc_hypergraph::Hypergraph;
use sscc_metrics::LatencyHistogram;
use sscc_service::{
    cc1_service, cc1_service_restore, Arrivals, CoordinationService, LatencySummary,
    OverloadPolicy, ServiceConfig, ServiceStats, TrafficGen,
};
use sscc_token::WaveToken;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

/// What the served drivers need from a service, real or replica.
pub trait ServiceLike {
    /// One tick.
    fn tick(&mut self) -> bool;
    /// The admission log so far.
    fn admissions(&self) -> &[(u64, usize)];
    /// Ledger events of the tick's engine step.
    fn events(&self) -> &[LedgerEvent];
    /// The meeting ledger.
    fn ledger(&self) -> &MeetingLedger;
    /// Engine steps.
    fn steps(&self) -> u64;
    /// Monitor verdict.
    fn clean(&self) -> bool;
    /// Cumulative counters.
    fn stats(&self) -> ServiceStats;
    /// Queue depth and in-flight count.
    fn backlog(&self) -> (usize, usize);
    /// Summary of the tick sojourns the service itself recorded (`None`
    /// before the first completion).
    fn sojourn_summary(&self) -> Option<LatencySummary>;
    /// p99 of the arrival → admission waits the service itself recorded,
    /// ticks (0 before the first admission).
    fn queue_wait_p99(&self) -> u64;
    /// Crash drill, continuing on the restored service.
    fn drill(&mut self, fresh_source: RecordingSource) -> Option<Drill>;
    /// The replica sim underneath, if this is the replica service.
    fn replica_sim(&self) -> Option<&ReplicaSim<Cc1>> {
        None
    }
    /// Zero the replica sim's counters.
    fn reset_counters(&mut self) {}
}

/// The service the served workloads run.
pub type RealService = CoordinationService<Cc1, WaveToken>;

impl ServiceLike for RealService {
    fn tick(&mut self) -> bool {
        CoordinationService::tick(self)
    }
    fn admissions(&self) -> &[(u64, usize)] {
        CoordinationService::admissions(self)
    }
    fn events(&self) -> &[LedgerEvent] {
        self.sim().last_events()
    }
    fn ledger(&self) -> &MeetingLedger {
        self.sim().ledger()
    }
    fn steps(&self) -> u64 {
        self.sim().steps()
    }
    fn clean(&self) -> bool {
        self.sim().monitor().clean()
    }
    fn stats(&self) -> ServiceStats {
        *CoordinationService::stats(self)
    }
    fn backlog(&self) -> (usize, usize) {
        (self.queue_depth(), self.in_flight())
    }
    fn sojourn_summary(&self) -> Option<LatencySummary> {
        self.latency_summary()
    }
    fn queue_wait_p99(&self) -> u64 {
        self.queue_wait_summary().map_or(0, |s| s.p99)
    }
    fn drill(&mut self, fresh_source: RecordingSource) -> Option<Drill> {
        let t0 = spans::now();
        let bytes = self.checkpoint().expect("persistable service");
        let t1 = spans::now();
        let restored =
            cc1_service_restore(Box::new(fresh_source), &bytes).expect("own checkpoint restores");
        let t2 = spans::now();
        spans::record(Kind::Capture, t0, t1);
        spans::record(Kind::Restore, t1, t2);
        let identical = restored.checkpoint().as_deref() == Some(&bytes[..]);
        *self = restored;
        Some(Drill {
            capture_ns: t1 - t0,
            restore_ns: t2 - t1,
            bytes: bytes.len() as u64,
            identical,
            ..Drill::default()
        })
    }
}

impl ServiceLike for ReplicaService {
    fn tick(&mut self) -> bool {
        ReplicaService::tick(self)
    }
    fn admissions(&self) -> &[(u64, usize)] {
        &self.admissions
    }
    fn events(&self) -> &[LedgerEvent] {
        self.sim().last_events()
    }
    fn ledger(&self) -> &MeetingLedger {
        self.sim().ledger()
    }
    fn steps(&self) -> u64 {
        self.sim().world().steps()
    }
    fn clean(&self) -> bool {
        self.sim().monitor().clean()
    }
    fn stats(&self) -> ServiceStats {
        *ReplicaService::stats(self)
    }
    fn backlog(&self) -> (usize, usize) {
        (self.queue_depth(), self.in_flight())
    }
    fn sojourn_summary(&self) -> Option<LatencySummary> {
        summary_of(self.latency.clone())
    }
    fn queue_wait_p99(&self) -> u64 {
        summary_of(self.queue_wait.clone()).map_or(0, |s| s.p99)
    }
    fn drill(&mut self, _fresh_source: RecordingSource) -> Option<Drill> {
        None
    }
    fn replica_sim(&self) -> Option<&ReplicaSim<Cc1>> {
        Some(self.sim())
    }
    fn reset_counters(&mut self) {
        ReplicaService::reset_counters(self);
    }
}

/// Summary of tick samples by the service's own rules: the histogram type
/// it records into, the fields `latency_summary()` reports.
fn summary_of(samples: Vec<u64>) -> Option<LatencySummary> {
    let snap = LatencyHistogram::from_samples(samples).snapshot();
    Some(LatencySummary {
        p50: snap.quantile(0.50)?,
        p99: snap.quantile(0.99)?,
        p999: snap.quantile(0.999)?,
        mean: snap.mean(),
        max: snap.max()?,
        completed: snap.len() as u64,
    })
}

/// The traffic a served workload offers.
#[derive(Clone, Copy)]
pub struct Served {
    /// Arrival process.
    pub arrivals: Arrivals,
    /// Engine mode label.
    pub mode: &'static str,
}

/// Service settings of both served workloads.
pub const SERVICE_CONFIG: ServiceConfig = ServiceConfig {
    queue_capacity: 4096,
    admit_batch: usize::MAX,
    overload: OverloadPolicy::Shed,
    record_admissions: true,
    churn: None,
};

/// A served workload: a service (real or replica) plus the harness-side
/// mirror of its admission queue.
pub struct ServeDriver<S: ServiceLike> {
    svc: S,
    h: Arc<Hypergraph>,
    seed: u64,
    served: Served,
    polled: Rc<RefCell<Vec<usize>>>,
    /// Per professor: `(arrival tick, wall at the start of that tick)` of
    /// the requests the service still has queued, oldest first.
    queued: Vec<VecDeque<(u64, u64)>>,
    admissions_seen: usize,
    touched: Vec<usize>,
    arrivals: u64,
    coalesced: u64,
    served_count: u64,
}

fn traffic(
    h: &Hypergraph,
    seed: u64,
    arrivals: Arrivals,
    polled: &Rc<RefCell<Vec<usize>>>,
) -> RecordingSource {
    RecordingSource::new(
        Box::new(TrafficGen::new(h, seed, arrivals, u64::MAX)),
        Rc::clone(polled),
    )
}

impl<S: ServiceLike> ServeDriver<S> {
    fn with(
        svc: S,
        h: &Arc<Hypergraph>,
        seed: u64,
        served: Served,
        polled: Rc<RefCell<Vec<usize>>>,
    ) -> Self {
        ServeDriver {
            svc,
            h: Arc::clone(h),
            seed,
            served,
            polled,
            queued: vec![VecDeque::new(); h.n()],
            admissions_seen: 0,
            touched: Vec::new(),
            arrivals: 0,
            coalesced: 0,
            served_count: 0,
        }
    }

    fn queued_total(&self) -> usize {
        self.queued.iter().map(VecDeque::len).sum()
    }

    /// Requests issued at or before `tick` and not yet served.
    fn pending_since(&self, soj: &Sojourn, tick: u64) -> usize {
        let queued = self
            .queued
            .iter()
            .flatten()
            .filter(|(t, _)| *t <= tick)
            .count();
        queued + soj.open_since(tick)
    }
}

impl<S: ServiceLike> Driver for ServeDriver<S> {
    fn call(&mut self) -> bool {
        self.svc.tick()
    }

    /// Mirror of the tick's admission rotation (`service.rs`, `tick`): the
    /// oldest queued request of an idle professor is admitted; every other
    /// queued request of a professor that is in flight during the rotation
    /// is coalesced into the in-flight one.
    fn observe(&mut self, soj: &mut Sojourn, tick: u64, t0: u64, t1: u64) -> u64 {
        self.touched.clear();
        for p in self.polled.borrow_mut().drain(..) {
            self.queued[p].push_back((tick, t0));
            self.touched.push(p);
            self.arrivals += 1;
        }
        let admitted = &self.svc.admissions()[self.admissions_seen..];
        self.admissions_seen += admitted.len();
        for &(_, p) in admitted {
            let (at, wall) = self.queued[p].pop_front().expect("admitted ⇒ was queued");
            soj.open(p, at, wall);
            self.touched.push(p);
        }
        for &p in &self.touched {
            if soj.is_open(p) {
                self.coalesced += self.queued[p].len() as u64;
                self.queued[p].clear();
            }
        }
        let mut convened = 0;
        for ev in self.svc.events() {
            if let LedgerEvent::Convened(idx) = *ev {
                for &p in &self.svc.ledger().instances()[idx].participants {
                    self.served_count += u64::from(soj.close(p, tick, t1));
                    convened += 1;
                }
            }
        }
        convened
    }

    fn ledger(&self) -> &MeetingLedger {
        self.svc.ledger()
    }

    fn steps(&self) -> u64 {
        self.svc.steps()
    }

    fn clean(&self) -> bool {
        self.svc.clean()
    }

    fn drill(&mut self) -> Option<Drill> {
        let fresh = traffic(&self.h, self.seed, self.served.arrivals, &self.polled);
        self.svc.drill(fresh)
    }

    fn replica(&self) -> Option<ReplicaReading> {
        self.svc.replica_sim().map(reading_of)
    }

    fn reset_counters(&mut self) {
        self.svc.reset_counters();
    }

    fn guard_eval_ns(&self) -> Option<f64> {
        self.svc.replica_sim().map(guard_eval_of)
    }

    fn admission_log(&self) -> Option<&[(u64, usize)]> {
        // Only the real service's log is replayed (the replica's is the
        // same log, or the digest check has already failed).
        self.svc
            .replica_sim()
            .is_none()
            .then(|| self.svc.admissions())
    }

    fn finish(&mut self, soj: &mut Sojourn, tick: u64, _window_calls: u64) -> Finish {
        // Arrivals keep flowing while the window's requests drain (a lone
        // requester needs its committee's other members to request too),
        // but only requests issued inside the window are counted.
        let cutoff = tick;
        let attempted = self.arrivals;
        let mut now = tick;
        while self.pending_since(soj, cutoff) > 0 && now < cutoff + DRAIN_LIMIT {
            now += 1;
            let t0 = spans::now();
            self.svc.tick();
            self.observe(soj, now, t0, spans::now());
        }
        let unserved = self.pending_since(soj, cutoff) as u64;
        let stats = self.svc.stats();
        let (queue, in_flight) = self.svc.backlog();
        let mut checks = vec![
            (
                "serve.conservation",
                stats.accepted
                    == stats.coalesced + stats.completed + in_flight as u64 + queue as u64,
                format!(
                    "accepted {} = coalesced {} + completed {} + in_flight {in_flight} + queued {queue}",
                    stats.accepted, stats.coalesced, stats.completed
                ),
            ),
            (
                "serve.mirror_counts",
                self.coalesced == stats.coalesced
                    && self.served_count == stats.completed
                    && self.queued_total() == queue
                    && soj.open_count() == in_flight
                    && stats.unsolicited == 0,
                format!(
                    "mirror coalesced {} served {} queued {} open {} vs service {} {} {queue} {in_flight}; unsolicited {}",
                    self.coalesced,
                    self.served_count,
                    self.queued_total(),
                    soj.open_count(),
                    stats.coalesced,
                    stats.completed,
                    stats.unsolicited
                ),
            ),
        ];
        let mirror: Vec<u64> = soj.ticks.iter().map(|&t| u64::from(t)).collect();
        let (ours, theirs) = (summary_of(mirror), self.svc.sojourn_summary());
        checks.push((
            "serve.sojourn_mirror",
            ours.is_some() && ours == theirs,
            format!("harness {ours:?} vs latency_summary {theirs:?}"),
        ));
        let ticks = now as f64;
        let extras = vec![
            ("service.arrivals_per_tick", stats.accepted as f64 / ticks),
            (
                "service.admitted_per_tick",
                self.svc.admissions().len() as f64 / ticks,
            ),
            (
                "service.coalesce_ratio",
                stats.coalesced as f64 / stats.accepted.max(1) as f64,
            ),
            (
                "service.queue_wait_p99_ticks",
                self.svc.queue_wait_p99() as f64,
            ),
            (
                "service.mean_queue_depth",
                stats.queue_depth_sum as f64 / ticks,
            ),
            ("service.max_queue_depth", stats.max_queue_depth as f64),
            ("service.shed", stats.shed as f64),
        ];
        Finish {
            attempted,
            failed: stats.shed + unserved,
            checks,
            extras,
        }
    }
}

/// A served workload on the real service.
pub fn build_served(h: &Arc<Hypergraph>, seed: u64, served: Served) -> ServeDriver<RealService> {
    let polled = Rc::new(RefCell::new(Vec::new()));
    let source = traffic(h, seed, served.arrivals, &polled);
    let svc = cc1_service(
        Arc::clone(h),
        seed,
        1,
        served.mode,
        Box::new(source),
        SERVICE_CONFIG,
    )
    .expect("registry mode");
    ServeDriver::with(svc, h, seed, served, polled)
}

/// A served workload on the replica service.
pub fn build_served_replica(
    h: &Arc<Hypergraph>,
    seed: u64,
    served: Served,
) -> ServeDriver<ReplicaService> {
    let polled = Rc::new(RefCell::new(Vec::new()));
    let source = traffic(h, seed, served.arrivals, &polled);
    let cfg: EngineConfig = served.mode.parse().expect("registry mode");
    let sim = ReplicaSim::new(
        Arc::clone(h),
        Cc1::new(),
        default_daemon(seed, h.n()),
        Box::new(OpenLoopPolicy::new(h.n(), 1)),
        None,
        &cfg,
    );
    let svc = ReplicaService::new(sim, Box::new(source), SERVICE_CONFIG);
    ServeDriver::with(svc, h, seed, served, polled)
}

/// A served run at `rate_pct` percent of `n` arrivals per tick for `ticks`
/// ticks (the rate ladder): tick p99 of the sojourns, and whether the queue
/// kept up (its depth over the last quarter no larger than over the second
/// quarter).
pub fn ladder_rung(h: &Arc<Hypergraph>, seed: u64, rate_pct: u32, ticks: u64) -> (u64, bool) {
    let rate = f64::from(rate_pct) / 100.0 * h.n() as f64;
    let gen = TrafficGen::new(h, seed, Arrivals::Poisson { rate }, u64::MAX);
    let mut svc = cc1_service(
        Arc::clone(h),
        seed,
        1,
        "par1",
        Box::new(gen),
        ServiceConfig {
            record_admissions: false,
            ..SERVICE_CONFIG
        },
    )
    .expect("registry mode");
    let depth_sum_at = |svc: &mut RealService, upto: u64| {
        while svc.ticks() < upto {
            svc.tick();
        }
        svc.stats().queue_depth_sum
    };
    let q1 = depth_sum_at(&mut svc, ticks / 4);
    let q2 = depth_sum_at(&mut svc, ticks / 2);
    let q3 = depth_sum_at(&mut svc, ticks * 3 / 4);
    let q4 = depth_sum_at(&mut svc, ticks);
    let p99 = svc.latency_summary().map_or(u64::MAX, |s| s.p99);
    // A queue that keeps up has a stationary depth; allow the sampling
    // noise of two 2 500-tick means.
    let keeps_up =
        svc.stats().shed == 0 && (q4 - q3) as f64 <= 1.5 * (q2 - q1) as f64 + ticks as f64;
    (p99, keeps_up)
}
