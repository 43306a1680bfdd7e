//! The [`CoordinationService`]: admission, backpressure, latency.
//!
//! One service tick is: **ingest** (poll the transport into the bounded
//! admission queue) → **admit** (fold eligible requests into the engine's
//! [`RequestFlags`](sscc_core::RequestFlags) as `RequestIn` flips — the incremental engine turns
//! each into an `O(footprint)` `invalidate_env_of`, not a rescan) →
//! **step** the simulation → **complete** (match the step's
//! [`LedgerEvent::Convened`] events back to in-flight requests and record
//! their sojourns).
//!
//! Latency measurement points (all in ticks — one tick, one step attempt):
//!
//! ```text
//!  arrival ──▶ [admission queue] ──▶ RequestIn(p) set ──▶ ... ──▶ convene
//!     │                │                   │                        │
//!     └── sojourn ─────┼───────────────────┼────────────────────────┘
//!                      └── queue wait ─────┘
//! ```
//!
//! The simulation **must** run an [`OpenLoopPolicy`] (the convenience
//! constructors do): every other shipped policy re-derives `RequestIn`
//! each tick and would overwrite the admissions after one step.

use crate::source::{CoordRequest, RequestSource};
use rand::rngs::StdRng;
use rand::SeedableRng as _;
use sscc_core::algo::CommitteeAlgorithm;
use sscc_core::sim::Sim;
use sscc_core::status::{CommitteeView, Status};
use sscc_core::{splitmix64, ConfigError, LedgerEvent, LedgerLayout, OpenLoopPolicy};
use sscc_hypergraph::{random_mutation_with_bias, Hypergraph, MutationBias};
use sscc_metrics::LatencyHistogram;
use sscc_runtime::wire::{self, Envelope, Reader, StateCodec};
use sscc_token::TokenLayer;
use std::collections::VecDeque;
use std::sync::Arc;

/// What to do when arrivals outrun the admission queue.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Stop polling the transport while the queue is full: requests back up
    /// in the transport (a bounded channel then pushes back on clients —
    /// the lossless choice, and the default).
    #[default]
    Defer,
    /// Keep polling and drop what does not fit, counting each drop in
    /// [`ServiceStats::shed`] (the bounded-latency choice).
    Shed,
}

/// Layout version of the service checkpoint blob. Bump on change; restore
/// rejects versions it does not understand. Versions 1 and 2 carry the
/// fixed-width meeting ledger (version 1 under the envelope's earlier
/// checksum); both still restore, neither is written.
pub const SERVICE_CHECKPOINT_VERSION: u16 = 3;

/// Framing of a [`CoordinationService::checkpoint`] blob.
const ENVELOPE: Envelope = Envelope {
    magic: b"SSCCSRV\0",
    version: SERVICE_CHECKPOINT_VERSION,
    previous: Some(2),
    legacy: Some(1),
};

/// Scheduled topology churn: every `period` ticks the service proposes one
/// seeded pseudo-random [`WorldMutation`](sscc_hypergraph::WorldMutation)
/// against its own world (the "members come and go while requests are in
/// flight" regime). Proposals the graph rejects (isolation, disconnection,
/// duplicates) are counted and skipped — the structural invariants hold by
/// construction.
///
/// The proposal stream is **counter-based**: mutation `k` is drawn from a
/// fresh rng seeded by `(seed, k)`, never from a long-lived rng. Same
/// config, same world evolution → same proposals, regardless of when stats
/// are read or checkpoints are taken — and a restored service continues
/// the exact stream from its persisted counter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnConfig {
    /// Ticks between proposals (≥ 1).
    pub period: u64,
    /// Seed of the proposal stream.
    pub seed: u64,
    /// Structural regime restriction.
    pub bias: MutationBias,
}

/// Service tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Bounded admission-queue capacity.
    pub queue_capacity: usize,
    /// Max admissions folded into the engine per tick (batching bound).
    pub admit_batch: usize,
    /// Overload behavior when the queue is full.
    pub overload: OverloadPolicy,
    /// Record every admission as a `(tick, professor)` pair (replay /
    /// equivalence testing; off by default — it grows with the run).
    pub record_admissions: bool,
    /// Scheduled topology churn (off by default).
    pub churn: Option<ChurnConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 1024,
            admit_batch: usize::MAX,
            overload: OverloadPolicy::Defer,
            record_admissions: false,
            churn: None,
        }
    }
}

/// Cumulative service counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests accepted into the admission queue.
    pub accepted: u64,
    /// Requests dropped by [`OverloadPolicy::Shed`].
    pub shed: u64,
    /// Requests merged into an already-in-flight request for the same
    /// professor (served by the same convene; only the first is timed).
    pub coalesced: u64,
    /// In-flight requests served by a convene event.
    pub completed: u64,
    /// Convene participations with no in-flight request behind them
    /// (arbitrary-boot debris; zero on a clean boot under open-loop load).
    pub unsolicited: u64,
    /// Largest admission-queue depth observed at a tick boundary.
    pub max_queue_depth: usize,
    /// Sum of per-tick queue depths (mean = `sum / ticks`).
    pub queue_depth_sum: u64,
    /// Churn proposals the graph accepted.
    pub churn_applied: u64,
    /// Churn proposals the graph rejected (invariant-preserving skips).
    pub churn_rejected: u64,
}

/// Sojourn-distribution summary (units: service ticks).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    /// Median sojourn.
    pub p50: u64,
    /// 99th-percentile sojourn.
    pub p99: u64,
    /// 99.9th-percentile sojourn.
    pub p999: u64,
    /// Mean sojourn.
    pub mean: f64,
    /// Largest sojourn.
    pub max: u64,
    /// Number of completed (timed) requests.
    pub completed: u64,
}

/// A queued request.
#[derive(Clone, Copy, Debug)]
struct Pending {
    professor: usize,
    arrived: u64,
}

/// An admitted request awaiting its convene.
#[derive(Clone, Copy, Debug)]
struct InFlight {
    arrived: u64,
}

/// The proxy front-end: owns the [`Sim`] and the transport, mediates every
/// external interaction (see the module docs for the tick pipeline).
pub struct CoordinationService<C: CommitteeAlgorithm, TL: TokenLayer> {
    sim: Sim<C, TL>,
    source: Box<dyn RequestSource>,
    cfg: ServiceConfig,
    queue: VecDeque<Pending>,
    /// Per-professor admitted-but-not-yet-convened request.
    in_flight: Vec<Option<InFlight>>,
    in_flight_count: usize,
    now: u64,
    stats: ServiceStats,
    latency: LatencyHistogram,
    queue_wait: LatencyHistogram,
    poll_buf: Vec<CoordRequest>,
    admissions: Vec<(u64, usize)>,
    /// Churn proposals drawn so far (the counter of the proposal stream).
    churn_events: u64,
}

impl<C: CommitteeAlgorithm, TL: TokenLayer> CoordinationService<C, TL> {
    /// Wrap a simulation. The sim must have been built with an
    /// [`OpenLoopPolicy`] (see the module docs); use [`cc1_service`] for
    /// the common case.
    pub fn new(sim: Sim<C, TL>, source: Box<dyn RequestSource>, cfg: ServiceConfig) -> Self {
        assert!(cfg.queue_capacity > 0, "zero-capacity admission queue");
        assert!(cfg.admit_batch > 0, "zero admission batch");
        let n = sim.h().n();
        CoordinationService {
            sim,
            source,
            cfg,
            queue: VecDeque::new(),
            in_flight: vec![None; n],
            in_flight_count: 0,
            now: 0,
            stats: ServiceStats::default(),
            latency: LatencyHistogram::new(),
            queue_wait: LatencyHistogram::new(),
            poll_buf: Vec::new(),
            admissions: Vec::new(),
            churn_events: 0,
        }
    }

    /// One service tick: ingest → admit → step → complete. Returns whether
    /// the simulation made progress (`false` = stably terminal *and* no
    /// admission re-enabled it this tick; new arrivals can revive it).
    pub fn tick(&mut self) -> bool {
        self.now += 1;

        // Churn: scheduled topology mutation, before ingest so arrivals of
        // this tick already see the mutated world.
        if let Some(churn) = self.cfg.churn {
            if churn.period > 0 && self.now.is_multiple_of(churn.period) {
                let k = self.churn_events;
                self.churn_events += 1;
                let mut rng = StdRng::seed_from_u64(splitmix64(
                    churn.seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ));
                let mu = random_mutation_with_bias(self.sim.h(), &mut rng, churn.bias);
                match self.sim.mutate(&mu) {
                    Ok(_) => self.stats.churn_applied += 1,
                    Err(_) => self.stats.churn_rejected += 1,
                }
            }
        }

        // Ingest: poll the transport into the bounded queue.
        let space = self.cfg.queue_capacity - self.queue.len();
        let budget = match self.cfg.overload {
            OverloadPolicy::Defer => space,
            OverloadPolicy::Shed => usize::MAX,
        };
        if budget > 0 {
            self.poll_buf.clear();
            self.source.poll(self.now, budget, &mut self.poll_buf);
            for r in self.poll_buf.drain(..) {
                debug_assert!(r.professor < self.in_flight.len(), "unknown professor");
                if self.queue.len() < self.cfg.queue_capacity {
                    self.queue.push_back(Pending {
                        professor: r.professor,
                        arrived: self.now,
                    });
                    self.stats.accepted += 1;
                } else {
                    self.stats.shed += 1;
                }
            }
        }
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queue.len());
        self.stats.queue_depth_sum += self.queue.len() as u64;

        // Admit: one rotation over the queue, folding eligible requests
        // into the environment. Eligible = professor idle (CC1 consumes
        // `RequestIn` only from `idle`; a flip for a busy professor would
        // be cleared unconsumed by the next policy tick) and not already
        // in flight. FIFO order is preserved among the survivors.
        let mut admitted = 0usize;
        for _ in 0..self.queue.len() {
            let pend = self.queue.pop_front().expect("sized loop");
            let p = pend.professor;
            if self.in_flight[p].is_some() {
                self.stats.coalesced += 1;
                continue;
            }
            if admitted < self.cfg.admit_batch
                && self.sim.world().state(p).cc.status() == Status::Idle
            {
                self.sim.flags_mut().set_in(p, true);
                self.in_flight[p] = Some(InFlight {
                    arrived: pend.arrived,
                });
                self.in_flight_count += 1;
                self.queue_wait.record(self.now - pend.arrived);
                if self.cfg.record_admissions {
                    self.admissions.push((self.now, p));
                }
                admitted += 1;
            } else {
                self.queue.push_back(pend);
            }
        }

        // Step: the admissions drain into `invalidate_env_of` at step
        // start, so the engine sees them in this very step.
        let progressed = self.sim.step();

        // Complete: convene events serve their participants' requests.
        for ev in self.sim.last_events() {
            if let LedgerEvent::Convened(idx) = *ev {
                let inst = &self.sim.ledger().instances()[idx];
                for &p in &inst.participants {
                    match self.in_flight[p].take() {
                        Some(fl) => {
                            self.in_flight_count -= 1;
                            self.latency.record(self.now - fl.arrived);
                            self.stats.completed += 1;
                        }
                        None => self.stats.unsolicited += 1,
                    }
                }
            }
        }
        // Conservation: an accepted request is queued, merged into another,
        // in flight, or served — never lost, never counted twice.
        debug_assert_eq!(
            self.stats.accepted,
            self.stats.coalesced
                + self.stats.completed
                + (self.in_flight_count + self.queue.len()) as u64,
            "accepted == coalesced + completed + in_flight + queued"
        );
        progressed
    }

    /// Run `ticks` service ticks.
    pub fn run(&mut self, ticks: u64) {
        for _ in 0..ticks {
            self.tick();
        }
    }

    /// Run until the transport is finished and every accepted request has
    /// been served (or `max_ticks` elapse). Returns `true` when fully
    /// drained.
    pub fn run_until_drained(&mut self, max_ticks: u64) -> bool {
        for _ in 0..max_ticks {
            if self.drained() {
                return true;
            }
            self.tick();
        }
        self.drained()
    }

    /// Transport finished, queue empty, nothing in flight.
    pub fn drained(&self) -> bool {
        self.source.finished() && self.queue.is_empty() && self.in_flight_count == 0
    }

    /// Service ticks elapsed.
    pub fn ticks(&self) -> u64 {
        self.now
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

    /// The owned simulation (read-only: the service mediates mutation).
    pub fn sim(&self) -> &Sim<C, TL> {
        &self.sim
    }

    /// Inject a seeded transient fault into `fraction` of the processes of
    /// the running service — the campaign seam. Forwards to `Sim::strike`
    /// (observers repaired, not reset: latency history and meeting records
    /// span the disruption), then re-arms the `RequestIn` flag of every
    /// in-flight professor the fault left idle: the admitted request is
    /// still owed a convene, but the flag that carried it into the engine
    /// may have been consumed or scrambled. Returns the struck processes.
    ///
    /// # Errors
    /// A distributed sim fails closed — see `Sim::strike`.
    pub fn inject_fault(
        &mut self,
        seed: u64,
        fraction: f64,
    ) -> Result<Vec<usize>, sscc_core::ConfigError> {
        let struck = self.sim.strike(seed, fraction)?;
        for p in 0..self.in_flight.len() {
            if self.in_flight[p].is_some() && self.sim.world().state(p).cc.status() == Status::Idle
            {
                self.sim.flags_mut().set_in(p, true);
            }
        }
        Ok(struck)
    }

    /// Apply a topology mutation to the running service — forwards to
    /// `Sim::mutate` (incremental index/observer repair). The process set
    /// is fixed under mutation, so admission bookkeeping survives as-is.
    ///
    /// # Errors
    /// Anything `Hypergraph::apply_mutation` rejects; the service is
    /// untouched on error.
    pub fn apply_mutation(
        &mut self,
        mutation: &sscc_hypergraph::WorldMutation,
    ) -> Result<sscc_hypergraph::MutationDelta, sscc_hypergraph::MutationError> {
        self.sim.mutate(mutation)
    }

    /// Summarize the sojourn distribution (`None` before any completion).
    /// Read-only: finalization happens on a snapshot of the histogram, so
    /// stats can be exported from a running (or checkpointed) service.
    pub fn latency_summary(&self) -> Option<LatencySummary> {
        let snap = self.latency.snapshot();
        if snap.is_empty() {
            return None;
        }
        Some(LatencySummary {
            p50: snap.quantile(0.50)?,
            p99: snap.quantile(0.99)?,
            p999: snap.quantile(0.999)?,
            mean: snap.mean(),
            max: snap.max()?,
            completed: self.stats.completed,
        })
    }

    /// Queue-wait (arrival → admission) distribution.
    pub fn queue_wait(&self) -> &LatencyHistogram {
        &self.queue_wait
    }

    /// Summarize the queue-wait distribution (`None` before any admission).
    pub fn queue_wait_summary(&self) -> Option<LatencySummary> {
        let snap = self.queue_wait.snapshot();
        if snap.is_empty() {
            return None;
        }
        Some(LatencySummary {
            p50: snap.quantile(0.50)?,
            p99: snap.quantile(0.99)?,
            p999: snap.quantile(0.999)?,
            mean: snap.mean(),
            max: snap.max()?,
            completed: snap.len() as u64,
        })
    }

    /// The admission log (`(tick, professor)` pairs), populated when
    /// [`ServiceConfig::record_admissions`] is on — the replay surface the
    /// scripted-equivalence tests drive.
    pub fn admissions(&self) -> &[(u64, usize)] {
        &self.admissions
    }

    /// Freeze the whole service — engine, topology, admission queue,
    /// in-flight table, stats, latency samples, churn counter and the
    /// transport — into one versioned, checksummed blob. A service
    /// restored from it ([`CoordinationService::restore_with`]) continues
    /// **bit-identically**: same admissions, same convenes, same latency
    /// samples as the uninterrupted original.
    ///
    /// `None` when any layer refuses to persist: a custom daemon/policy
    /// without codec support, or a live transport (e.g.
    /// [`ChannelSource`](crate::ChannelSource)) — the deterministic
    /// [`TrafficGen`](crate::TrafficGen) persists fine.
    pub fn checkpoint(&self) -> Option<Vec<u8>>
    where
        C::State: StateCodec,
        TL::State: StateCodec,
    {
        let mut source_blob = Vec::new();
        if !self.source.save_state(&mut source_blob) {
            return None;
        }
        let mut out = Vec::new();
        let persistable = ENVELOPE.seal(&mut out, |p| {
            wire::put_bytes_with(p, |p| sscc_persist::encode_topology(self.sim.h(), p));
            // Everything that grows with the run comes now — the engine's
            // histories, then the samples and the admission log below: make
            // room once, and write each straight into the sealed blob.
            let samples = self.latency.samples().len() + self.queue_wait.samples().len();
            let rows = self.admissions.len() + self.queue.len() + self.in_flight.len();
            let own = 512 + 8 * samples + 16 * rows + source_blob.len();
            p.reserve(8 + self.sim.encoded_size_hint() + own);
            if !wire::put_bytes_with(p, |p| self.sim.save_state(p)) {
                return false;
            }
            // Config.
            wire::put_usize(p, self.cfg.queue_capacity);
            wire::put_usize(p, self.cfg.admit_batch);
            wire::put_u8(
                p,
                match self.cfg.overload {
                    OverloadPolicy::Defer => 0,
                    OverloadPolicy::Shed => 1,
                },
            );
            wire::put_bool(p, self.cfg.record_admissions);
            match self.cfg.churn {
                None => wire::put_bool(p, false),
                Some(ch) => {
                    wire::put_bool(p, true);
                    wire::put_u64(p, ch.period);
                    wire::put_u64(p, ch.seed);
                    wire::put_u8(
                        p,
                        match ch.bias {
                            MutationBias::Balanced => 0,
                            MutationBias::GrowOnly => 1,
                            MutationBias::ShrinkOnly => 2,
                        },
                    );
                }
            }
            // Queue and in-flight table.
            wire::put_usize(p, self.queue.len());
            for pend in &self.queue {
                wire::put_usize(p, pend.professor);
                wire::put_u64(p, pend.arrived);
            }
            wire::put_usize(p, self.in_flight.len());
            for fl in &self.in_flight {
                match fl {
                    None => wire::put_bool(p, false),
                    Some(f) => {
                        wire::put_bool(p, true);
                        wire::put_u64(p, f.arrived);
                    }
                }
            }
            wire::put_u64(p, self.now);
            // Stats.
            wire::put_u64(p, self.stats.accepted);
            wire::put_u64(p, self.stats.shed);
            wire::put_u64(p, self.stats.coalesced);
            wire::put_u64(p, self.stats.completed);
            wire::put_u64(p, self.stats.unsolicited);
            wire::put_usize(p, self.stats.max_queue_depth);
            wire::put_u64(p, self.stats.queue_depth_sum);
            wire::put_u64(p, self.stats.churn_applied);
            wire::put_u64(p, self.stats.churn_rejected);
            // Histograms (raw samples — summaries are derived on demand).
            wire::put_u64_slice(p, self.latency.samples());
            wire::put_u64_slice(p, self.queue_wait.samples());
            // Admission log.
            wire::put_usize(p, self.admissions.len());
            for &(t, pr) in &self.admissions {
                wire::put_u64(p, t);
                wire::put_usize(p, pr);
            }
            wire::put_u64(p, self.churn_events);
            wire::put_bytes(p, &source_blob);
            true
        });
        persistable.then_some(out)
    }

    /// Thaw a [`CoordinationService::checkpoint`] blob. The topology
    /// travels inside the blob (post-mutation, exact dense indices);
    /// `make_cc`/`make_tl` build fresh algorithm instances over it, and
    /// `source` must be a freshly constructed transport of the same
    /// configuration as the original (its mutable state is restored from
    /// the blob through [`RequestSource::restore_state`]).
    ///
    /// `None` on truncation, corruption, checksum or version mismatch, or
    /// a transport that refuses the embedded state.
    pub fn restore_with(
        make_cc: impl FnOnce(&Hypergraph) -> C,
        make_tl: impl FnOnce(&Hypergraph) -> TL,
        mut source: Box<dyn RequestSource>,
        bytes: &[u8],
    ) -> Option<Self>
    where
        C: 'static,
        TL: 'static,
        C::State: Copy + StateCodec,
        TL::State: Copy + StateCodec,
    {
        let (version, mut r) = ENVELOPE.open_versioned(bytes).ok()?;
        let layout = if version < 3 {
            LedgerLayout::Fixed
        } else {
            LedgerLayout::Compact
        };
        let mut topo = Reader::new(r.bytes()?);
        let h = Arc::new(sscc_persist::decode_topology(&mut topo)?);
        if !topo.is_empty() {
            return None;
        }
        let n = h.n();
        let cc = make_cc(&h);
        let tl = make_tl(&h);
        let sim = Sim::restore_as(Arc::clone(&h), cc, tl, r.bytes()?, layout)?;
        let queue_capacity = r.usize()?;
        let admit_batch = r.usize()?;
        let overload = match r.u8()? {
            0 => OverloadPolicy::Defer,
            1 => OverloadPolicy::Shed,
            _ => return None,
        };
        let record_admissions = r.bool()?;
        let churn = if r.bool()? {
            Some(ChurnConfig {
                period: r.u64()?,
                seed: r.u64()?,
                bias: match r.u8()? {
                    0 => MutationBias::Balanced,
                    1 => MutationBias::GrowOnly,
                    2 => MutationBias::ShrinkOnly,
                    _ => return None,
                },
            })
        } else {
            None
        };
        if queue_capacity == 0 || admit_batch == 0 {
            return None;
        }
        // 16 bytes per queued request, and per admission-log row below.
        let qlen = r.count(16)?;
        if qlen > queue_capacity {
            return None;
        }
        let mut queue = VecDeque::with_capacity(qlen);
        for _ in 0..qlen {
            let professor = r.usize()?;
            if professor >= n {
                return None;
            }
            queue.push_back(Pending {
                professor,
                arrived: r.u64()?,
            });
        }
        let iflen = r.usize()?;
        if iflen != n {
            return None;
        }
        let mut in_flight = Vec::with_capacity(n);
        let mut in_flight_count = 0usize;
        for _ in 0..n {
            if r.bool()? {
                in_flight.push(Some(InFlight { arrived: r.u64()? }));
                in_flight_count += 1;
            } else {
                in_flight.push(None);
            }
        }
        let now = r.u64()?;
        let stats = ServiceStats {
            accepted: r.u64()?,
            shed: r.u64()?,
            coalesced: r.u64()?,
            completed: r.u64()?,
            unsolicited: r.u64()?,
            max_queue_depth: r.usize()?,
            queue_depth_sum: r.u64()?,
            churn_applied: r.u64()?,
            churn_rejected: r.u64()?,
        };
        let latency = LatencyHistogram::from_samples(r.u64_vec()?);
        let queue_wait = LatencyHistogram::from_samples(r.u64_vec()?);
        let alen = r.count(16)?;
        let mut admissions = Vec::with_capacity(alen);
        for _ in 0..alen {
            let t = r.u64()?;
            let pr = r.usize()?;
            if pr >= n {
                return None;
            }
            admissions.push((t, pr));
        }
        let churn_events = r.u64()?;
        if !source.restore_state(r.bytes()?) {
            return None;
        }
        if !r.is_empty() {
            return None;
        }
        Some(CoordinationService {
            sim,
            source,
            cfg: ServiceConfig {
                queue_capacity,
                admit_batch,
                overload,
                record_admissions,
                churn,
            },
            queue,
            in_flight,
            in_flight_count,
            now,
            stats,
            latency,
            queue_wait,
            poll_buf: Vec::new(),
            admissions,
            churn_events,
        })
    }

    /// Run `ticks` ticks, handing a fresh checkpoint blob to `sink` every
    /// `every` ticks — the crash/restore drill loop (and the shape a
    /// checkpoint-to-disk ops loop takes, via
    /// [`CoordinationService::checkpoint`] + `std::fs`).
    pub fn run_with_checkpoints(
        &mut self,
        ticks: u64,
        every: u64,
        mut sink: impl FnMut(u64, Vec<u8>),
    ) where
        C::State: StateCodec,
        TL::State: StateCodec,
    {
        assert!(every > 0, "zero checkpoint period");
        for _ in 0..ticks {
            self.tick();
            if self.now.is_multiple_of(every) {
                if let Some(blob) = self.checkpoint() {
                    sink(self.now, blob);
                }
            }
        }
    }
}

/// The common case: a CC1 service over the wave-token substrate with the
/// default daemon, an [`OpenLoopPolicy`] environment, and any registry
/// `mode`. CC1 is the natural serving algorithm — its professors have a
/// real `idle` state to accept requests from (the §5 fairness algorithms
/// assume professors request infinitely often, which is closed-loop by
/// construction).
///
/// # Errors
/// An unparsable `mode` label or an invalid engine configuration.
pub fn cc1_service(
    h: Arc<Hypergraph>,
    seed: u64,
    max_disc: u64,
    mode: &str,
    source: Box<dyn RequestSource>,
    cfg: ServiceConfig,
) -> Result<CoordinationService<sscc_core::Cc1, sscc_token::WaveToken>, ConfigError> {
    let n = h.n();
    let tl = sscc_token::WaveToken::new(&h);
    let sim = Sim::builder(h, sscc_core::Cc1::new(), tl)
        .seed(seed)
        .policy(Box::new(OpenLoopPolicy::new(n, max_disc)))
        .mode(mode)
        .build()?;
    Ok(CoordinationService::new(sim, source, cfg))
}

/// Thaw a [`CoordinationService::checkpoint`] taken from a [`cc1_service`].
/// `source` must be a freshly constructed transport of the same
/// configuration as the crashed service's (see
/// [`CoordinationService::restore_with`]).
pub fn cc1_service_restore(
    source: Box<dyn RequestSource>,
    bytes: &[u8],
) -> Option<CoordinationService<sscc_core::Cc1, sscc_token::WaveToken>> {
    CoordinationService::restore_with(
        |_| sscc_core::Cc1::new(),
        sscc_token::WaveToken::new,
        source,
        bytes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::channel;
    use crate::traffic::{Arrivals, TrafficGen};
    use sscc_hypergraph::generators;

    #[test]
    fn requests_complete_with_latency() {
        let h = Arc::new(generators::ring(12, 2));
        let (client, src) = channel();
        let mut svc = cc1_service(
            Arc::clone(&h),
            3,
            1,
            "par1",
            Box::new(src),
            ServiceConfig::default(),
        )
        .unwrap();
        // A meeting convenes only when *every* member of a committee is
        // requesting, so request complete (disjoint) committees: the pairs
        // {0,1}, {4,5}, {8,9} of ring(12, 2).
        for p in [0, 1, 4, 5, 8, 9] {
            client.request(p);
        }
        drop(client);
        assert!(svc.run_until_drained(20_000), "all requests served");
        assert_eq!(svc.stats().completed, 6);
        assert_eq!(svc.stats().shed, 0);
        let sum = svc.latency_summary().unwrap();
        assert!(sum.p50 >= 1 && sum.p99 >= sum.p50 && sum.max >= sum.p999);
        assert!(svc.sim().monitor().clean());
    }

    #[test]
    fn no_traffic_means_no_meetings() {
        let h = Arc::new(generators::ring(8, 2));
        let (_client, src) = channel();
        let mut svc = cc1_service(
            Arc::clone(&h),
            1,
            1,
            "par1",
            Box::new(src),
            ServiceConfig::default(),
        )
        .unwrap();
        svc.run(2_000);
        assert_eq!(svc.stats().completed, 0);
        assert_eq!(
            svc.sim().ledger().convened_count(),
            0,
            "open loop: no demand, no meetings"
        );
    }

    #[test]
    fn shed_policy_bounds_the_queue() {
        let h = Arc::new(generators::ring(16, 2));
        let gen = TrafficGen::new(&h, 5, Arrivals::Poisson { rate: 8.0 }, 3_000);
        let cfg = ServiceConfig {
            queue_capacity: 16,
            overload: OverloadPolicy::Shed,
            ..ServiceConfig::default()
        };
        let mut svc = cc1_service(Arc::clone(&h), 2, 1, "par1", Box::new(gen), cfg).unwrap();
        svc.run(3_000);
        assert!(svc.stats().shed > 0, "overload must shed");
        assert!(svc.stats().max_queue_depth <= 16);
        assert!(svc.stats().completed > 0);
        assert!(svc.sim().monitor().clean());
    }

    #[test]
    fn churny_workload_mutates_and_stays_clean() {
        let h = Arc::new(generators::ring(16, 2));
        let gen = TrafficGen::new(&h, 5, Arrivals::Poisson { rate: 1.0 }, 2_000);
        let cfg = ServiceConfig {
            churn: Some(ChurnConfig {
                period: 50,
                seed: 3,
                bias: MutationBias::Balanced,
            }),
            ..ServiceConfig::default()
        };
        let mut svc = cc1_service(Arc::clone(&h), 2, 1, "par1", Box::new(gen), cfg).unwrap();
        svc.run(2_000);
        let s = svc.stats();
        assert_eq!(
            s.churn_applied + s.churn_rejected,
            2_000 / 50,
            "one proposal per period"
        );
        assert!(s.churn_applied > 0, "some proposals land");
        assert!(s.completed > 0, "service keeps serving through churn");
        assert!(svc.sim().monitor().clean());
    }

    #[test]
    fn grow_only_churn_never_shrinks() {
        let h = Arc::new(generators::ring(12, 2));
        let m0 = h.m();
        let gen = TrafficGen::new(&h, 5, Arrivals::Poisson { rate: 0.5 }, 1_000);
        let cfg = ServiceConfig {
            churn: Some(ChurnConfig {
                period: 25,
                seed: 11,
                bias: MutationBias::GrowOnly,
            }),
            ..ServiceConfig::default()
        };
        let mut svc = cc1_service(Arc::clone(&h), 4, 1, "par1", Box::new(gen), cfg).unwrap();
        svc.run(1_000);
        assert!(svc.stats().churn_applied > 0);
        assert!(svc.sim().h().m() >= m0, "grow-only bias never removes");
    }

    #[test]
    fn crash_restore_drill_is_bit_identical() {
        let h = Arc::new(generators::ring(16, 2));
        let traffic =
            |h: &Hypergraph| TrafficGen::new(h, 9, Arrivals::Poisson { rate: 2.0 }, 2_000);
        let cfg = ServiceConfig {
            record_admissions: true,
            churn: Some(ChurnConfig {
                period: 97,
                seed: 5,
                bias: MutationBias::Balanced,
            }),
            ..ServiceConfig::default()
        };

        // Reference: the uninterrupted run.
        let mut reference =
            cc1_service(Arc::clone(&h), 8, 1, "par1", Box::new(traffic(&h)), cfg).unwrap();
        reference.run(3_000);

        // Drill: run, checkpoint, "crash", restore in a fresh stack, finish.
        let mut svc =
            cc1_service(Arc::clone(&h), 8, 1, "par1", Box::new(traffic(&h)), cfg).unwrap();
        svc.run(1_234);
        let blob = svc.checkpoint().expect("whole stack persists");
        drop(svc); // the crash
        let mut revived =
            cc1_service_restore(Box::new(traffic(&h)), &blob).expect("restore from blob");
        revived.run(3_000 - 1_234);

        assert_eq!(revived.ticks(), reference.ticks());
        assert_eq!(revived.stats(), reference.stats());
        assert_eq!(revived.admissions(), reference.admissions());
        assert_eq!(revived.latency_summary(), reference.latency_summary());
        assert_eq!(revived.queue_wait_summary(), reference.queue_wait_summary());
        assert_eq!(
            revived.sim().ledger().instances(),
            reference.sim().ledger().instances()
        );
        assert_eq!(
            revived.sim().monitor().violations(),
            reference.sim().monitor().violations()
        );
        assert_eq!(revived.sim().steps(), reference.sim().steps());
        assert_eq!(
            revived.sim().h(),
            reference.sim().h(),
            "churned topology travels"
        );

        // Corrupt blobs fail closed — including a foreign magic or a future
        // version under a valid checksum, and the compact history relabelled
        // as the fixed-width version 2.
        assert_eq!(blob[8..10], [3, 0]);
        wire::fails_closed(Some(&ENVELOPE), &blob, |b| {
            cc1_service_restore(Box::new(traffic(&h)), b).is_some()
        });
    }

    #[test]
    fn checkpoint_header_is_byte_identical_to_the_pre_envelope_writer() {
        // The committed blobs of the two earlier versions. Version 1 is what
        // the hand-rolled framing the envelope replaced wrote — magic,
        // version 1, FNV-1a 64 of the payload (`ring(16, 2)`, seed 8, 100
        // ticks); version 2 the word-wide checksum over the same payload
        // layout (`ring(24, 2)`, 500 ticks; its continuation is pinned in
        // `tests/service_golden.rs`). Both carry the fixed-width ledger,
        // both still restore, and what they restore writes version 3. The
        // pinned fingerprints and sojourns are the writing tree's own.
        let v1: &[u8] = include_bytes!("../tests/golden/cc1_ring16_v1.srv");
        let v2: &[u8] = include_bytes!("../tests/golden/cc1_ring24_poisson_v2.srv");
        assert_eq!(v1.len(), 5579);
        assert_eq!(
            v1[..18],
            [83, 83, 67, 67, 83, 82, 86, 0, 1, 0, 174, 134, 64, 66, 121, 103, 170, 238]
        );
        assert_eq!(v1[10..18], wire::fnv1a64(&v1[18..]).to_le_bytes());
        assert_eq!(v2[..10], *b"SSCCSRV\0\x02\x00");
        assert_eq!(v2[10..18], wire::checksum64(&v2[18..]).to_le_bytes());
        let h = Arc::new(generators::ring(16, 2));
        let traffic = || TrafficGen::new(&h, 9, Arrivals::Poisson { rate: 2.0 }, 2_000);
        let mut revived =
            cc1_service_restore(Box::new(traffic()), v1).expect("a version-1 blob still restores");
        assert_eq!(revived.ticks(), 100);
        assert_eq!(revived.sim().ledger().fingerprint(), 0x818c_b5bf_b633_490e);
        let v3 = revived.checkpoint().unwrap();
        assert_eq!(v3[8..10], [3, 0], "written back as version 3");
        revived.run(400);
        assert_eq!(revived.sim().ledger().fingerprint(), 0xe088_907d_8b1a_afa8);
        let summary = LatencySummary {
            p50: 16,
            p99: 50,
            p999: 52,
            mean: 17.416129032258066,
            max: 52,
            completed: 310,
        };
        assert_eq!(revived.latency_summary(), Some(summary));
        // Version 2 bytes under the version-1 label: the word-wide checksum
        // does not vouch for the FNV-sealed version.
        let mut relabelled = v2.to_vec();
        relabelled[8] = 1;
        assert!(matches!(
            ENVELOPE.open(&relabelled),
            Err(wire::EnvelopeError::ChecksumMismatch { .. })
        ));
        // Version 3 bytes under the version-2 label pass the checksum the
        // two share; the fixed-width decoder refuses the compact history.
        let mut relabelled = v3;
        relabelled[8] = 2;
        assert!(ENVELOPE.open(&relabelled).is_ok());
        assert!(cc1_service_restore(Box::new(traffic()), &relabelled).is_none());
    }

    #[test]
    fn live_transports_refuse_to_checkpoint() {
        let h = Arc::new(generators::ring(8, 2));
        let (_client, src) = channel();
        let mut svc = cc1_service(
            Arc::clone(&h),
            1,
            1,
            "par1",
            Box::new(src),
            ServiceConfig::default(),
        )
        .unwrap();
        svc.run(10);
        assert!(
            svc.checkpoint().is_none(),
            "an mpsc transport has no serialized form"
        );
    }

    #[test]
    fn defer_policy_never_sheds() {
        let h = Arc::new(generators::ring(16, 2));
        let gen = TrafficGen::new(&h, 5, Arrivals::Poisson { rate: 8.0 }, 1_000);
        let cfg = ServiceConfig {
            queue_capacity: 16,
            overload: OverloadPolicy::Defer,
            ..ServiceConfig::default()
        };
        let mut svc = cc1_service(Arc::clone(&h), 2, 1, "par1", Box::new(gen), cfg).unwrap();
        svc.run(2_000);
        assert_eq!(svc.stats().shed, 0, "defer backpressures, never drops");
        assert!(svc.stats().max_queue_depth <= 16);
        assert!(svc.stats().completed > 0);
    }
}
