//! Phase-split replicas of `Sim::step` and `CoordinationService::tick`.
//!
//! Each replica makes the same public calls, in the same order, that the
//! program's own step makes (`crates/core/src/sim.rs`, `step_incremental`;
//! `crates/service/src/service.rs`, `tick`) — but from here, with a span
//! around each call. Nothing inside the program is touched; that the
//! replica runs *the same program* is checked, not assumed: its trajectory
//! digest must equal the untraced `Sim`'s (runner checks, unit tests).
//!
//! Supported configurations are the ones the workloads use: the default
//! incremental evaluator with a sequential or a distributed drain, and no
//! state surgery (strikes and mutations are traced on the real `Sim`).

use crate::spans::{self, Kind};
use crate::wrappers::{TimedDaemon, TimedTransport};
use sscc_core::{
    ActionClass, CommitteeAlgorithm, CommitteeView, Composed, LedgerEvent, MeetingLedger,
    OraclePolicy, PolicyView, RequestFlags, SpecMonitor,
};
use sscc_dist::{ChannelTransport, DistDrive, DistEngine};
use sscc_hypergraph::{EdgeId, Hypergraph};
use sscc_runtime::prelude::*;
use sscc_service::{CoordRequest, OverloadPolicy, RequestSource, ServiceConfig, ServiceStats};
use sscc_token::WaveToken;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

/// Work counters the replica keeps at the layer boundaries (sums over the
/// steps since construction).
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// Steps attempted (terminal ones included).
    pub steps: u64,
    /// Steps that found nothing enabled.
    pub terminal_steps: u64,
    /// `World::dirty_queue().len()` right before each refresh.
    pub dirty: u64,
    /// Enabled processes after each refresh.
    pub enabled: u64,
    /// Processes executed.
    pub executed: u64,
    /// Size of the symmetric difference between consecutive enabled sets.
    pub flips: u64,
    /// Executed actions that belong to the token substrate.
    pub token_actions: u64,
    /// `LedgerEvent::Convened` events.
    pub convenes: u64,
    /// Edges handed to the ledger as touched.
    pub touched_edges: u64,
    /// Request-flag flips drained into `invalidate_env_of`.
    pub flag_flips: u64,
}

/// The replica of `Sim<C, WaveToken>`.
pub struct ReplicaSim<C: CommitteeAlgorithm> {
    world: World<Composed<C, WaveToken>>,
    daemon: TimedDaemon,
    policy: Box<dyn OraclePolicy>,
    flags: RequestFlags,
    rounds: RoundTracker,
    ledger: MeetingLedger,
    monitor: SpecMonitor,
    out: StepOutcome,
    cc_view: Vec<C::State>,
    view: PolicyView,
    executed_procs: Vec<usize>,
    executed_cc: Vec<(usize, ActionClass, Option<EdgeId>)>,
    touched_edges: Vec<EdgeId>,
    touched_mark: MarkSet,
    recheck: MarkSet,
    flag_changed: MarkSet,
    last_events: Vec<LedgerEvent>,
    dist: Option<DistEngine<Composed<C, WaveToken>>>,
    /// Frames the distributed tier sent (first few thousand), for the codec
    /// micro-measurement.
    pub frames: Rc<RefCell<Vec<Vec<u8>>>>,
    prev_enabled: Vec<usize>,
    /// Work counters.
    pub counters: Counters,
}

impl<C> ReplicaSim<C>
where
    C: CommitteeAlgorithm + 'static,
    C::State: Copy + StateCodec,
{
    /// What `Sim::builder(h, cc, WaveToken::new(&h)).daemon(..).policy(..)
    /// [.arbitrary(fault_seed)].engine(cfg).build()` constructs.
    pub fn new(
        h: Arc<Hypergraph>,
        cc: C,
        daemon: Box<dyn Daemon>,
        mut policy: Box<dyn OraclePolicy>,
        fault_seed: Option<u64>,
        cfg: &EngineConfig,
    ) -> Self {
        assert_eq!(cfg.eval, EvalPath::Incremental, "replica: default eval");
        let tl = WaveToken::new(&h);
        let mut world = World::new(h, Composed::new(cc, tl));
        if let Some(seed) = fault_seed {
            strike(&mut world, seed);
        }
        // `Sim::wrap`.
        let (n, m) = (world.h().n(), world.h().m());
        let cc_view: Vec<C::State> = world.states().iter().map(|s| s.cc).collect();
        let ledger = MeetingLedger::new(world.h(), &cc_view);
        let mut flags = RequestFlags::new(n);
        let view = PolicyView {
            status: cc_view.iter().map(|s| s.status()).collect(),
            in_meeting: (0..n)
                .map(|p| sscc_core::predicates::participates(world.h(), &cc_view, p))
                .collect(),
        };
        policy.update(&mut flags, &view);
        flags.drain_changed(|_| {});
        // `Sim::configure`.
        cfg.validate().expect("replica: valid engine config");
        let mut wcfg = *cfg;
        if cfg.distributed() {
            wcfg.drain = Drain::Sequential;
        }
        wcfg.incremental_daemon = false;
        world.algo_mut().cc.set_reference_eval(false);
        world.algo_mut().cc.set_value_level(false);
        world.configure(&wcfg).expect("replica: engine config");
        let mut daemon = TimedDaemon(daemon);
        daemon.set_incremental_view(cfg.incremental_daemon);
        let frames = Rc::new(RefCell::new(Vec::new()));
        let dist = match cfg.drain {
            Drain::Distributed { shards } => Some(DistEngine::with_transport(
                &world,
                shards,
                cfg.trusted_daemon,
                |k| {
                    Box::new(TimedTransport::new(
                        Box::new(ChannelTransport::new(k)),
                        Rc::clone(&frames),
                    ))
                },
            )),
            _ => None,
        };
        ReplicaSim {
            world,
            daemon,
            policy,
            flags,
            rounds: RoundTracker::new(),
            ledger,
            monitor: SpecMonitor::new(),
            out: StepOutcome::default(),
            cc_view,
            view,
            executed_procs: Vec::new(),
            executed_cc: Vec::new(),
            touched_edges: Vec::new(),
            touched_mark: MarkSet::new(m),
            recheck: MarkSet::new(n),
            flag_changed: MarkSet::new(n),
            last_events: Vec::new(),
            dist,
            frames,
            prev_enabled: Vec::new(),
            counters: Counters::default(),
        }
    }

    /// The world (states, step count, `priority_actions`).
    pub fn world(&self) -> &World<Composed<C, WaveToken>> {
        &self.world
    }

    /// The request flags, for the guard-evaluation probe.
    pub fn flags(&self) -> &RequestFlags {
        &self.flags
    }

    /// Scripted access to the request flags (service admission).
    pub fn flags_mut(&mut self) -> &mut RequestFlags {
        &mut self.flags
    }

    /// The meeting ledger.
    pub fn ledger(&self) -> &MeetingLedger {
        &self.ledger
    }

    /// The specification monitor.
    pub fn monitor(&self) -> &SpecMonitor {
        &self.monitor
    }

    /// Ledger events of the most recent step.
    pub fn last_events(&self) -> &[LedgerEvent] {
        &self.last_events
    }

    /// Message counters of the distributed tier, if configured.
    pub fn dist_stats(&self) -> Option<sscc_dist::MessageStats> {
        self.dist.as_ref().map(|d| d.stats())
    }

    /// Drain flag flips into engine invalidations (start of a step, and
    /// each quiescence tick).
    fn drain_flags(&mut self) {
        let start = spans::now();
        let world = &mut self.world;
        let dist = &mut self.dist;
        let flagged = &mut self.flag_changed;
        let flips = self.flags.drain_changed(|p| {
            world.invalidate_env_of(p);
            if let Some(d) = dist.as_mut() {
                d.invalidate_env_of(p);
            }
            flagged.insert(p);
        });
        self.counters.flag_flips += flips as u64;
        spans::record(Kind::Invalidate, start, spans::now());
    }

    /// One delta policy tick over `changed`.
    fn tick_policy(&mut self, changed: &[usize]) {
        spans::timed(Kind::Policy, || {
            self.policy
                .update_delta(&mut self.flags, &self.view, changed)
        });
    }

    /// `Sim::step` (the incremental path), as one [`Kind::Step`] span with a
    /// child span per call into a layer.
    pub fn step(&mut self) -> bool {
        spans::set_id(self.world.steps());
        let start = spans::now();
        let progressed = self.step_body();
        spans::record(Kind::Step, start, spans::now());
        progressed
    }

    fn step_body(&mut self) -> bool {
        self.counters.steps += 1;
        self.last_events.clear();
        self.drain_flags();
        match self.dist.as_mut() {
            Some(d) => spans::timed(Kind::DistStep, || {
                d.step_into(
                    &mut self.world,
                    &mut self.daemon,
                    &self.flags,
                    &mut self.out,
                )
            }),
            None => {
                self.counters.dirty += self.world.dirty_queue().len() as u64;
                spans::timed(Kind::Refresh, || {
                    self.world.enabled_now(&self.flags);
                });
                spans::timed(Kind::SelectCommit, || {
                    self.world
                        .step_into(&mut self.daemon, &self.flags, &mut self.out)
                });
            }
        }
        spans::timed(Kind::Bookkeeping, || {
            self.counters.enabled += self.out.enabled.len() as u64;
            self.counters.flips += symmetric_difference(&self.prev_enabled, &self.out.enabled);
            self.prev_enabled.clear();
            self.prev_enabled.extend_from_slice(&self.out.enabled);
        });
        spans::timed(Kind::Rounds, || self.rounds.begin_step(&self.out.enabled));
        if self.out.terminal() {
            self.counters.terminal_steps += 1;
            for _ in 0..self.policy.quiescence_horizon() {
                let flagged = std::mem::take(&mut self.flag_changed);
                self.tick_policy(flagged.as_slice());
                self.flag_changed = flagged;
                self.flag_changed.clear();
                self.drain_flags();
                let enabled = spans::timed(Kind::Refresh, || {
                    !self.world.enabled_now(&self.flags).is_empty()
                });
                if enabled {
                    return true;
                }
            }
            return false;
        }

        let mirror_start = spans::now();
        self.executed_procs.clear();
        self.executed_cc.clear();
        self.touched_edges.clear();
        for &(p, a) in &self.out.executed {
            self.executed_procs.push(p);
            match Composed::<C, WaveToken>::committee_action(a) {
                Some(i) => {
                    let class = self.world.algo().cc.action_class(i);
                    self.executed_cc.push((p, class, self.cc_view[p].pointer()));
                }
                None => self.counters.token_actions += 1,
            }
            for &e in self.world.h().incident(p) {
                if self.touched_mark.insert(e.index()) {
                    self.touched_edges.push(e);
                }
            }
            for &q in self.world.h().closed_neighborhood(p) {
                self.recheck.insert(q);
            }
        }
        let k = self.touched_edges.len();
        let m = self.touched_mark.universe();
        if (k as u64) * u64::from(k.max(2).ilog2()) >= m as u64 {
            self.touched_edges.clear();
            self.touched_edges.extend(
                (0..m)
                    .filter(|&e| self.touched_mark.contains(e))
                    .map(|e| EdgeId(e as u32)),
            );
        } else {
            self.touched_edges.sort_unstable();
        }
        self.recheck.sort();
        self.counters.executed += self.executed_procs.len() as u64;
        self.counters.touched_edges += self.touched_edges.len() as u64;
        spans::record(Kind::Mirror, mirror_start, spans::now());

        spans::timed(Kind::Rounds, || {
            self.rounds.record_executed(&self.executed_procs)
        });
        let step_idx = self.world.steps() - 1;

        let mirror_start = spans::now();
        for &p in &self.executed_procs {
            self.cc_view[p] = self.world.state(p).cc;
        }
        spans::record(Kind::Mirror, mirror_start, spans::now());
        let events = spans::timed(Kind::Ledger, || {
            self.ledger.observe_delta(
                self.world.h(),
                &self.cc_view,
                step_idx,
                self.rounds.rounds(),
                &self.executed_cc,
                &self.touched_edges,
            )
        });
        spans::timed(Kind::Monitor, || {
            self.monitor.observe_incremental(
                self.world.h(),
                &self.cc_view,
                step_idx,
                &self.ledger,
                &events,
            )
        });
        self.counters.convenes += events
            .iter()
            .filter(|e| matches!(e, LedgerEvent::Convened(_)))
            .count() as u64;
        self.last_events = events;

        let mirror_start = spans::now();
        for &p in &self.executed_procs {
            self.view.status[p] = self.cc_view[p].status();
        }
        for &q in self.recheck.as_slice() {
            self.view.in_meeting[q] = match self.cc_view[q].pointer() {
                Some(e) => self.world.h().is_member(q, e) && self.ledger.is_live(e),
                None => false,
            };
        }
        self.touched_mark.clear();
        {
            let recheck = &mut self.recheck;
            self.flag_changed.drain(|p| {
                recheck.insert(p);
            });
        }
        spans::record(Kind::Mirror, mirror_start, spans::now());
        let recheck = std::mem::take(&mut self.recheck);
        self.tick_policy(recheck.as_slice());
        self.recheck = recheck;
        self.recheck.clear();
        true
    }
}

/// `|a △ b|` of two ascending lists.
fn symmetric_difference(a: &[usize], b: &[usize]) -> u64 {
    let (mut i, mut j, mut d) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                d += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                d += 1;
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    d + (a.len() - i + b.len() - j) as u64
}

/// The replica of `CoordinationService<Cc1, WaveToken>` (no churn): the
/// tick pipeline ingest → admit → step → complete over a [`ReplicaSim`].
pub struct ReplicaService {
    sim: ReplicaSim<sscc_core::Cc1>,
    source: Box<dyn RequestSource>,
    cfg: ServiceConfig,
    /// `(professor, arrival tick)`, FIFO.
    queue: VecDeque<(usize, u64)>,
    /// Arrival tick of the admitted, not yet convened request per professor.
    in_flight: Vec<Option<u64>>,
    in_flight_count: usize,
    now: u64,
    stats: ServiceStats,
    /// Sojourn of every completed request, ticks, in completion order.
    pub latency: Vec<u64>,
    /// Arrival → admission wait of every admitted request, ticks.
    pub queue_wait: Vec<u64>,
    /// `(tick, professor)` of every admission, in order.
    pub admissions: Vec<(u64, usize)>,
    poll_buf: Vec<CoordRequest>,
}

impl ReplicaService {
    /// Wrap a replica sim built with an `OpenLoopPolicy`.
    pub fn new(
        sim: ReplicaSim<sscc_core::Cc1>,
        source: Box<dyn RequestSource>,
        cfg: ServiceConfig,
    ) -> Self {
        assert!(cfg.churn.is_none(), "replica service: no churn");
        let n = sim.world().h().n();
        ReplicaService {
            sim,
            source,
            cfg,
            queue: VecDeque::new(),
            in_flight: vec![None; n],
            in_flight_count: 0,
            now: 0,
            stats: ServiceStats::default(),
            latency: Vec::new(),
            queue_wait: Vec::new(),
            admissions: Vec::new(),
            poll_buf: Vec::new(),
        }
    }

    /// The replica sim.
    pub fn sim(&self) -> &ReplicaSim<sscc_core::Cc1> {
        &self.sim
    }

    /// Zero the replica sim's work counters.
    pub fn reset_counters(&mut self) {
        self.sim.counters = Counters::default();
    }

    /// Cumulative counters.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Current admission-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Admitted requests not yet served.
    pub fn in_flight(&self) -> usize {
        self.in_flight_count
    }

    /// `CoordinationService::tick`, as one [`Kind::Tick`] span.
    pub fn tick(&mut self) -> bool {
        self.now += 1;
        let start = spans::now();
        spans::set_id(self.now);

        let space = self.cfg.queue_capacity - self.queue.len();
        let budget = match self.cfg.overload {
            OverloadPolicy::Defer => space,
            OverloadPolicy::Shed => usize::MAX,
        };
        if budget > 0 {
            self.poll_buf.clear();
            spans::timed(Kind::Poll, || {
                self.source.poll(self.now, budget, &mut self.poll_buf)
            });
        }
        let admit_start = spans::now();
        if budget > 0 {
            for r in self.poll_buf.drain(..) {
                if self.queue.len() < self.cfg.queue_capacity {
                    self.queue.push_back((r.professor, self.now));
                    self.stats.accepted += 1;
                } else {
                    self.stats.shed += 1;
                }
            }
        }
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queue.len());
        self.stats.queue_depth_sum += self.queue.len() as u64;
        let mut admitted = 0usize;
        for _ in 0..self.queue.len() {
            let (p, arrived) = self.queue.pop_front().expect("sized loop");
            if self.in_flight[p].is_some() {
                self.stats.coalesced += 1;
                continue;
            }
            if admitted < self.cfg.admit_batch
                && self.sim.world().state(p).cc.status() == sscc_core::Status::Idle
            {
                self.sim.flags_mut().set_in(p, true);
                self.in_flight[p] = Some(arrived);
                self.in_flight_count += 1;
                self.queue_wait.push(self.now - arrived);
                self.admissions.push((self.now, p));
                admitted += 1;
            } else {
                self.queue.push_back((p, arrived));
            }
        }
        spans::record(Kind::Admit, admit_start, spans::now());

        let progressed = self.sim.step();
        // `ReplicaSim::step` labelled its spans with the engine step.
        spans::set_id(self.now);

        let complete_start = spans::now();
        for ev in self.sim.last_events() {
            if let LedgerEvent::Convened(idx) = *ev {
                for &p in &self.sim.ledger().instances()[idx].participants {
                    match self.in_flight[p].take() {
                        Some(arrived) => {
                            self.in_flight_count -= 1;
                            self.latency.push(self.now - arrived);
                            self.stats.completed += 1;
                        }
                        None => self.stats.unsolicited += 1,
                    }
                }
            }
        }
        spans::record(Kind::Complete, complete_start, spans::now());
        spans::record(Kind::Tick, start, spans::now());
        progressed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_difference_counts_both_sides() {
        assert_eq!(symmetric_difference(&[], &[]), 0);
        assert_eq!(symmetric_difference(&[1, 2, 3], &[1, 2, 3]), 0);
        assert_eq!(symmetric_difference(&[1, 3, 5], &[2, 3, 6, 7]), 5);
        assert_eq!(symmetric_difference(&[], &[4, 9]), 2);
    }
}
