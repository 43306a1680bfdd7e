//! One-call simulation facade: topology + algorithm + daemon + environment
//! policy (+ optional fault injection) → executed computation with ledger,
//! specification verdicts, rounds and traces.
//!
//! This is the entry point examples, integration tests, the metrics harness
//! and the benches all share.

use crate::algo::CommitteeAlgorithm;
use crate::compose::Composed;
use crate::meetings::{LedgerEvent, LedgerLayout, MeetingLedger};
use crate::oracle::{OraclePolicy, PolicyView, RequestFlags};
use crate::predicates;
use crate::spec::SpecMonitor;
use crate::status::{ActionClass, CommitteeView, Status};
use sscc_dist::{DistDrive, DistEngine, MessageStats};
use sscc_hypergraph::{EdgeId, Hypergraph};
use sscc_runtime::prelude::*;
use sscc_token::TokenLayer;
use std::sync::Arc;

/// Why a bounded run stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// A terminal configuration was reached (no action enabled).
    Terminal,
    /// The step budget ran out first.
    Budget,
}

/// Cumulative work the facade handed its observers — deterministic per
/// seed, so a marking rule that re-grows shows as a count, not as noise.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObserverWork {
    /// Committees whose meets-status the ledger re-derived from members.
    pub edges_rechecked: u64,
    /// [`PolicyView`] entries re-derived (and handed to the policy as
    /// changed, next to the flag flips).
    pub views_rederived: u64,
}

/// A running composed simulation with full observability.
///
/// The step loop is **delta-aware** by default: it keeps a persistent
/// mirror of the committee-layer configuration and the [`PolicyView`]
/// caches, and after each step diffs the mirror against the committed state
/// of every executed process. The observers read only `S_p` and `P_p`, so
/// the diff names exactly what they must look at again: the ledger/monitor
/// get the committees an executed member started or stopped upholding
/// `Meeting`'s conjunct for, the policy the processes whose status, pointer
/// or meeting changed — `O(|executed|)` per step, against the engine's
/// incremental guard scheduler. The legacy full-scan path
/// (whole-configuration clones and `O(n + |E|)` observers) is kept behind
/// [`EvalPath::FullScan`] for differential testing.
///
/// Engine variants are configured declaratively: build with
/// [`Sim::builder`] (or apply an [`EngineConfig`] / registry mode through
/// [`Sim::configure`] before the first step).
///
/// ```
/// use sscc_core::{sim::Sim, Cc1};
/// use sscc_hypergraph::generators;
/// use sscc_token::WaveToken;
/// use std::sync::Arc;
///
/// let h = Arc::new(generators::fig2());
/// let mut sim = Sim::builder(Arc::clone(&h), Cc1::new(), WaveToken::new(&h))
///     .seed(42)
///     .max_disc(1)
///     .mode("daemon") // any `ModeRegistry` name or `EngineConfig`
///     .build()
///     .unwrap();
/// sim.run(2000);
/// assert!(sim.monitor().clean());             // spec held from step 0
/// assert!(sim.ledger().convened_count() > 0); // and meetings happened
/// ```
pub struct Sim<C: CommitteeAlgorithm, TL: TokenLayer> {
    world: World<Composed<C, TL>>,
    daemon: Box<dyn Daemon>,
    policy: Box<dyn OraclePolicy>,
    flags: RequestFlags,
    rounds: RoundTracker,
    ledger: MeetingLedger,
    monitor: SpecMonitor,
    trace: Option<Trace>,
    /// The maintained view was mutated behind the policy's back (state
    /// surgery): the next tick must be a full one.
    policy_stale: bool,
    /// Reused step outcome (no per-step allocation).
    out: StepOutcome,
    /// Persistent mirror of the committee-layer configuration. At step
    /// entry it *is* the pre-step configuration the executed processes are
    /// diffed against, so everything that writes states refreshes it.
    cc_view: Vec<C::State>,
    /// Maintained status / `Meeting(p)` caches fed to the policy.
    view: PolicyView,
    /// Scratch: executed process indices of the current step.
    executed_procs: Vec<usize>,
    /// Scratch: committee actions with pre-step pointers (ledger input).
    executed_cc: Vec<(usize, ActionClass, Option<EdgeId>)>,
    /// Scratch: committees some executed member started or stopped
    /// upholding `Meeting`'s conjunct for (ascending) — the only ones whose
    /// meets-status can have moved.
    touched_edges: Vec<EdgeId>,
    /// Scratch: processes whose [`PolicyView`] entry must be re-derived.
    recheck: MarkSet,
    /// What the observers were handed so far (see [`Sim::observer_work`]).
    work: ObserverWork,
    /// Processes whose request flags flipped since the last policy tick
    /// (policy flips drained at step start, plus external scripting through
    /// [`Sim::flags_mut`]). A full policy tick re-derives *every* flag, so
    /// external mutations last exactly one step; the delta tick reproduces
    /// that by re-deriving exactly these processes.
    flag_changed: MarkSet,
    /// Ledger events of the most recent step (see [`Sim::last_events`]).
    last_events: Vec<LedgerEvent>,
    /// The engine configuration in force (recorded by [`Sim::configure`];
    /// checkpoints carry it so a restore rebuilds the same mode).
    cfg: EngineConfig,
    /// The message-passing tier, when a [`Drain::Distributed`] mode is in
    /// force: shard actors exchanging serialized boundary frames, driven
    /// through the [`DistDrive`] seam. `None` under every shared-memory
    /// drain. The world stays the single source of truth — the actors
    /// mirror committed states back into it each step.
    dist: Option<Box<dyn DistDrive<Composed<C, TL>>>>,
}

impl<C: CommitteeAlgorithm, TL: TokenLayer> Sim<C, TL> {
    /// Clean boot: designated initial states (idle/looking professors, one
    /// token in place).
    pub fn new(
        h: Arc<Hypergraph>,
        cc: C,
        tl: TL,
        daemon: Box<dyn Daemon>,
        policy: Box<dyn OraclePolicy>,
    ) -> Self {
        let world = World::new(h, Composed::new(cc, tl));
        Self::wrap(world, daemon, policy)
    }

    /// Adversarial boot: every variable of every process (committee layer
    /// *and* token substrate) is sampled from its full domain — the paper's
    /// "arbitrary initial configuration" after transient faults (§2.5).
    pub fn arbitrary(
        h: Arc<Hypergraph>,
        cc: C,
        tl: TL,
        daemon: Box<dyn Daemon>,
        policy: Box<dyn OraclePolicy>,
        fault_seed: u64,
    ) -> Self {
        let mut world = World::new(h, Composed::new(cc, tl));
        strike(&mut world, fault_seed);
        Self::wrap(world, daemon, policy)
    }

    /// Fluent construction: topology + layers now, daemon / policy / boot /
    /// engine mode declaratively, one validation point at
    /// [`SimBuilder::build`].
    ///
    /// ```
    /// use sscc_core::sim::Sim;
    /// use sscc_core::Cc2;
    /// use sscc_hypergraph::generators;
    /// use sscc_token::WaveToken;
    /// use std::sync::Arc;
    ///
    /// let h = Arc::new(generators::fig2());
    /// let mut sim = Sim::builder(Arc::clone(&h), Cc2::new(), WaveToken::new(&h))
    ///     .seed(7)
    ///     .mode("daemon") // any ModeRegistry name
    ///     .build()
    ///     .unwrap();
    /// sim.run(500);
    /// assert!(sim.monitor().clean());
    /// ```
    pub fn builder(h: Arc<Hypergraph>, cc: C, tl: TL) -> SimBuilder<C, TL> {
        SimBuilder {
            h,
            cc,
            tl,
            daemon: None,
            policy: None,
            seed: 0,
            max_disc: 1,
            fault_seed: None,
            config: EngineConfig::default(),
            mode: None,
            trace: false,
        }
    }

    fn wrap(
        world: World<Composed<C, TL>>,
        daemon: Box<dyn Daemon>,
        mut policy: Box<dyn OraclePolicy>,
    ) -> Self {
        let n = world.h().n();
        let initial_cc: Vec<C::State> = world.states().iter().map(|s| s.cc.clone()).collect();
        let ledger = MeetingLedger::new(world.h(), &initial_cc);
        // Prime the environment: the request predicates have values in γ0
        // already (e.g. a professor that never requests must not request in
        // the very first step either).
        let mut flags = RequestFlags::new(n);
        let view = PolicyView {
            status: initial_cc.iter().map(|s| s.status()).collect(),
            in_meeting: (0..n)
                .map(|p| predicates::participates(world.h(), &initial_cc, p))
                .collect(),
        };
        policy.update(&mut flags, &view);
        // The world boots with every guard dirty; the priming flips need no
        // extra invalidation — just clear the change log.
        flags.drain_changed(|_| {});
        Sim {
            world,
            daemon,
            policy,
            flags,
            rounds: RoundTracker::new(),
            ledger,
            monitor: SpecMonitor::new(),
            trace: None,
            policy_stale: false,
            out: StepOutcome::default(),
            cc_view: initial_cc,
            view,
            executed_procs: Vec::new(),
            executed_cc: Vec::new(),
            touched_edges: Vec::new(),
            recheck: MarkSet::new(n),
            work: ObserverWork::default(),
            flag_changed: MarkSet::new(n),
            last_events: Vec::new(),
            cfg: EngineConfig::default(),
            dist: None,
        }
    }

    /// Apply a complete engine configuration in one validated shot — the
    /// declarative replacement for the accreted `set_*` surface, covering
    /// every layer the facade owns: the engine ([`World::configure`]), the
    /// algorithm's evaluator and the observers ([`EvalPath::FullScan`] is
    /// the textbook oracle: the paper's guards evaluated one by one, full
    /// policy ticks, the whole-view step) and the daemon
    /// (`incremental_daemon` feeds it enabled-set deltas).
    ///
    /// Call **before the first step**. Reconfiguring is a full reset:
    /// knobs absent from `cfg` return to their defaults.
    ///
    /// # Errors
    /// Anything [`EngineConfig::validate`] rejects — every combination
    /// that silently no-op'ed under the old setters fails closed here.
    pub fn configure(&mut self, cfg: &EngineConfig) -> Result<(), ConfigError>
    where
        C: 'static,
        TL: 'static,
        C::State: StateCodec,
        TL::State: StateCodec,
    {
        cfg.validate()?;
        let mut wcfg = *cfg;
        // The distributed drain lives *above* the engine: the world stays a
        // plain state store the shard actors mirror their commits into, and
        // the actor/transport tier is built below, once the world accepted
        // the rest of the configuration.
        if cfg.distributed() {
            wcfg.drain = Drain::Sequential;
        }
        // The oracle evaluates the paper's guards one by one. (Where the
        // cascade reads its facts from is the engine's to decide.)
        self.world
            .algo_mut()
            .cc
            .set_reference_eval(cfg.eval == EvalPath::FullScan);
        // The daemon is ours, not the World's.
        wcfg.incremental_daemon = false;
        self.world.configure(&wcfg)?;
        self.daemon.set_incremental_view(cfg.incremental_daemon);
        self.dist = match cfg.drain {
            Drain::Distributed { shards } => Some(Box::new(DistEngine::new(
                &self.world,
                shards,
                cfg.trusted_daemon,
            ))),
            _ => None,
        };
        self.cfg = *cfg;
        Ok(())
    }

    /// The engine configuration in force (the last one [`Sim::configure`]
    /// accepted; the default `"par1"` config when never configured).
    pub fn config(&self) -> EngineConfig {
        self.cfg
    }

    /// [`Sim::configure`] with a mode label — any [`ModeRegistry`] name or
    /// compositional config string (`"daemon"`, `"dist2+trusted"`, …).
    pub fn configure_mode(&mut self, mode: &str) -> Result<(), ConfigError>
    where
        C: 'static,
        TL: 'static,
        C::State: StateCodec,
        TL::State: StateCodec,
    {
        self.configure(&mode.parse()?)
    }

    /// Message-volume counters of the distributed tier — `Some` only under
    /// a [`Drain::Distributed`] mode. Cumulative since the mode was
    /// configured; the bench harness diffs across its measured phase for
    /// per-step frame/byte columns.
    pub fn dist_stats(&self) -> Option<MessageStats> {
        self.dist.as_ref().map(|d| d.stats())
    }

    /// Record a full action trace (off by default; memory grows with run
    /// length).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Trace::new());
    }

    /// Committee-layer states of the current configuration.
    pub fn cc_states(&self) -> Vec<C::State> {
        self.world.states().iter().map(|s| s.cc.clone()).collect()
    }

    /// The topology.
    pub fn h(&self) -> &Hypergraph {
        self.world.h()
    }

    /// The underlying world (composed states, step counter).
    pub fn world(&self) -> &World<Composed<C, TL>> {
        &self.world
    }

    /// Mutable access to the world, for experiment-specific surgery
    /// (engineered configurations, partial faults). Call
    /// [`Sim::reset_observers`] afterwards — **before the next step**: the
    /// step diffs each executed process against the facade's mirror of the
    /// pre-step configuration, so a state written behind its back makes the
    /// ledger and the policy view miss transitions (debug builds abort at
    /// that step). [`Sim::set_cc_state`], [`Sim::strike`] and
    /// [`Sim::mutate`] keep the mirror themselves.
    pub fn world_mut(&mut self) -> &mut World<Composed<C, TL>> {
        &mut self.world
    }

    /// Rebuild ledger, monitor, round tracking, the committee mirror and
    /// the policy view from the *current* configuration — required after
    /// mutating states through [`Sim::world_mut`] (the mutated
    /// configuration becomes the "initial" one in the snap-stabilization
    /// sense, and the mirror the next step diffs against is load-bearing).
    pub fn reset_observers(&mut self) {
        let initial_cc: Vec<C::State> = self.world.states().iter().map(|s| s.cc.clone()).collect();
        self.ledger = MeetingLedger::new(self.world.h(), &initial_cc);
        self.monitor = SpecMonitor::new();
        self.rounds = RoundTracker::new();
        // External surgery invalidates every maintained cache.
        self.view = PolicyView {
            status: initial_cc.iter().map(|s| s.status()).collect(),
            in_meeting: (0..initial_cc.len())
                .map(|p| predicates::participates(self.world.h(), &initial_cc, p))
                .collect(),
        };
        self.cc_view = initial_cc;
        self.world.invalidate_all();
        // Surgery went through the world behind the shard actors' backs:
        // re-seed their slots from the committed configuration.
        if let Some(d) = self.dist.as_deref_mut() {
            d.resync(&self.world);
        }
        self.policy_stale = true;
        self.last_events.clear();
    }

    /// Overwrite the committee-layer state of process `p`, keeping its
    /// substrate state (engineered-configuration convenience).
    pub fn set_cc_state(&mut self, p: usize, cc: C::State) {
        let mut s = self.world.state(p).clone();
        s.cc = cc;
        self.world.set_state(p, s);
        // Keep the maintained caches coherent (the ledger baseline still
        // needs [`Sim::reset_observers`], as documented).
        self.cc_view[p] = self.world.state(p).cc.clone();
        self.view.status[p] = self.cc_view[p].status();
        for &q in self.world.h().closed_neighborhood(p) {
            self.view.in_meeting[q] = predicates::participates(self.world.h(), &self.cc_view, q);
        }
        // The policy did not observe this mutation through an executed
        // footprint: force one full resynchronizing tick.
        self.policy_stale = true;
        // Same for the shard actors: the write bypassed the step protocol.
        if let Some(d) = self.dist.as_deref_mut() {
            d.resync(&self.world);
        }
    }

    /// Apply a topology mutation mid-run, repairing every maintained
    /// observer instead of resetting it — participation counters, meeting
    /// history, violation records and round tracking all survive, which is
    /// what lets a churn campaign measure recovery across mutations.
    ///
    /// Layering: [`World::mutate`] repairs the graph indexes, shard plan,
    /// per-process states and fact mirrors; this method then repairs the
    /// facade's own caches — the committee-view mirror, the ledger
    /// ([`MeetingLedger::apply_mutation`]: the dissolved committee's meeting
    /// is silently terminated, committees meeting under the new topology
    /// without a live instance become pre-initial/spec-exempt), the
    /// monitor's exclusion cache, and the [`PolicyView`] — and schedules one
    /// full policy tick (the environment did not observe the mutation
    /// through an executed footprint).
    ///
    /// # Errors
    /// Anything [`Hypergraph::apply_mutation`] rejects (unknown vertex,
    /// dissolving the last committee of a member, duplicate committee, …);
    /// the simulation is untouched on error. A **distributed** sim fails
    /// closed with [`MutationError::EngineRejected`]: the shard plan *is*
    /// the actor placement, so topology churn would have to re-shard the
    /// live tier — rebuild the sim on the mutated topology instead.
    ///
    /// [`MutationError::EngineRejected`]: sscc_hypergraph::MutationError::EngineRejected
    pub fn mutate(
        &mut self,
        mutation: &sscc_hypergraph::WorldMutation,
    ) -> Result<sscc_hypergraph::MutationDelta, sscc_hypergraph::MutationError> {
        if self.dist.is_some() {
            return Err(sscc_hypergraph::MutationError::EngineRejected {
                engine: "distributed",
            });
        }
        let delta = self.world.mutate(mutation)?;
        let step = self.world.steps();
        // The engine's state repair may have moved or cleared pointers:
        // refresh the whole committee-view mirror from the repaired
        // configuration (O(n) copies — mutations are rare events).
        for (p, v) in self.cc_view.iter_mut().enumerate() {
            *v = self.world.state(p).cc.clone();
        }
        self.ledger
            .apply_mutation(self.world.h(), &self.cc_view, &delta, step);
        self.monitor
            .resync_live_conflicts(self.world.h(), &self.ledger);
        self.refresh_view_from_cc();
        self.policy_stale = true;
        self.last_events.clear();
        Ok(delta)
    }

    /// Inject a seeded transient fault into a `fraction` of the processes
    /// **without resetting the observers** — the campaign-grade counterpart
    /// of [`Sim::world_mut`] + [`Sim::reset_observers`]. Participation
    /// counters, meeting history and violation records survive, so
    /// recovery time and safety windows can be measured across repeated
    /// strikes. Meetings disrupted (or fabricated) by the fault are
    /// silently re-synced in the ledger: fault-born meetings are recorded
    /// as pre-initial (they "started during the faults", §2.5 — exempt),
    /// and fault-killed meetings terminate without violation checks.
    /// Returns the struck processes.
    ///
    /// # Errors
    /// A **distributed** sim fails closed with
    /// [`ConfigError::DistributedUnsupported`]: the shard actors own the
    /// live sub-configurations, so mid-run state surgery from outside the
    /// step protocol would desynchronize them — boot a distributed sim
    /// from an arbitrary (struck) configuration instead
    /// ([`SimBuilder::arbitrary`]).
    pub fn strike(&mut self, seed: u64, fraction: f64) -> Result<Vec<usize>, ConfigError> {
        if self.dist.is_some() {
            return Err(ConfigError::DistributedUnsupported(
                "mid-run transient-fault surgery (boot from an arbitrary configuration instead)",
            ));
        }
        let struck = strike_some(&mut self.world, seed, fraction);
        let step = self.world.steps();
        // Refresh the whole committee-view mirror, not just the struck
        // entries: under the full-scan path the mirror is not maintained
        // per-step, and the ledger resync below reads it for every member
        // of a touched committee.
        for (p, v) in self.cc_view.iter_mut().enumerate() {
            *v = self.world.state(p).cc.clone();
        }
        // Only edges incident to a struck process can change meets-status
        // (resynced in first-touched order: it is the ledger's record order).
        let mut touched = MarkSet::new(self.world.h().m());
        for &p in &struck {
            for &e in self.world.h().incident(p) {
                touched.insert(e.index());
            }
        }
        touched.drain(|ei| {
            self.ledger
                .resync_edge(self.world.h(), &self.cc_view, EdgeId(ei as u32), step);
        });
        self.monitor
            .resync_live_conflicts(self.world.h(), &self.ledger);
        self.refresh_view_from_cc();
        self.policy_stale = true;
        self.last_events.clear();
        Ok(struck)
    }

    /// Recompute the whole [`PolicyView`] from the committee-view mirror
    /// and the ledger's live set (post-disruption resync).
    fn refresh_view_from_cc(&mut self) {
        for (p, v) in self.cc_view.iter().enumerate() {
            self.view.status[p] = v.status();
            self.view.in_meeting[p] = in_live_meeting(self.world.h(), &self.ledger, p, v);
        }
    }

    /// The meeting ledger.
    pub fn ledger(&self) -> &MeetingLedger {
        &self.ledger
    }

    /// Ledger events ([`LedgerEvent::Convened`] / [`LedgerEvent::Terminated`])
    /// produced by the most recent [`Sim::step`] — the step-hook seam the
    /// service layer's latency tracking consumes. Empty when the last step
    /// convened/terminated nothing (or was terminal). Overwritten by the
    /// next step.
    pub fn last_events(&self) -> &[LedgerEvent] {
        &self.last_events
    }

    /// The specification monitor.
    pub fn monitor(&self) -> &SpecMonitor {
        &self.monitor
    }

    /// Completed rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds.rounds()
    }

    /// Steps executed.
    pub fn steps(&self) -> u64 {
        self.world.steps()
    }

    /// Committees re-checked and view entries re-derived since this `Sim`
    /// was built or restored (not persisted).
    pub fn observer_work(&self) -> ObserverWork {
        self.work
    }

    /// The recorded trace, if enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Current request flags (the environment as the algorithms see it).
    pub fn flags(&self) -> &RequestFlags {
        &self.flags
    }

    /// Override the environment flags (walkthrough scripting).
    pub fn flags_mut(&mut self) -> &mut RequestFlags {
        &mut self.flags
    }

    /// Execute one step. Returns `false` on a *stably* terminal
    /// configuration: no action is enabled and advancing the environment
    /// (which evolves independently of the processes — `RequestOut` comes
    /// from the application, §2.3) does not re-enable anyone.
    pub fn step(&mut self) -> bool {
        if self.cfg.eval == EvalPath::FullScan {
            self.step_full_scan()
        } else {
            self.step_incremental()
        }
    }

    /// One policy tick over the maintained view with the given changed set
    /// — through [`OraclePolicy::update_delta`], except when the view was
    /// mutated behind the policy's back, in which case one full tick
    /// resynchronizes it.
    fn tick_policy(&mut self, changed: &[usize]) {
        if !self.policy_stale {
            self.policy
                .update_delta(&mut self.flags, &self.view, changed);
        } else {
            self.policy.update(&mut self.flags, &self.view);
            self.policy_stale = false;
        }
    }

    /// The delta-aware step: `O(affected)` observer and cache maintenance.
    fn step_incremental(&mut self) -> bool {
        debug_assert!(
            self.cc_view
                .iter()
                .zip(self.world.states())
                .all(|(v, s)| *v == s.cc),
            "the committee mirror is not the pre-step configuration: state \
             surgery through `world_mut` must be followed by `reset_observers`"
        );
        self.last_events.clear();
        // Apply environment invalidations recorded since the last step —
        // the policy update at the end of the previous step, or external
        // scripting through [`Sim::flags_mut`] — *before* the engine
        // refreshes its guard cache. (The full-scan engine re-evaluates
        // everything each step and needs no notice.) The flipped processes
        // also feed the next policy tick's changed set, so the delta tick
        // re-derives (and a full tick would overwrite) exactly them.
        {
            let world = &mut self.world;
            let dist = &mut self.dist;
            let flagged = &mut self.flag_changed;
            self.flags.drain_changed(|p| {
                world.invalidate_env_of(p);
                if let Some(d) = dist.as_deref_mut() {
                    d.invalidate_env_of(p);
                }
                flagged.insert(p);
            });
        }
        match self.dist.as_deref_mut() {
            Some(d) => d.step_into(
                &mut self.world,
                &mut *self.daemon,
                &self.flags,
                &mut self.out,
            ),
            None => self
                .world
                .step_into(&mut *self.daemon, &self.flags, &mut self.out),
        }
        self.rounds.begin_step(&self.out.enabled);
        if self.out.terminal() {
            // Let the environment tick: e.g. a meeting of all-done members
            // whose RequestOut has not been raised yet leaves the system
            // momentarily disabled, not deadlocked. The policy's declared
            // horizon bounds how long flags may still evolve with statuses
            // frozen; past it the configuration is truly quiescent.
            // Statuses frozen ⇒ the maintained view is already current,
            // and a delta tick only re-derives flipped flags and advances
            // the timers.
            for _ in 0..self.policy.quiescence_horizon() {
                let flagged = std::mem::take(&mut self.flag_changed);
                self.tick_policy(flagged.as_slice());
                self.flag_changed = flagged;
                self.flag_changed.clear();
                let world = &mut self.world;
                let dist = &mut self.dist;
                let flagged = &mut self.flag_changed;
                self.flags.drain_changed(|p| {
                    world.invalidate_env_of(p);
                    if let Some(d) = dist.as_deref_mut() {
                        d.invalidate_env_of(p);
                    }
                    flagged.insert(p);
                });
                let enabled = match dist.as_deref_mut() {
                    Some(d) => d.probe(world, &self.flags),
                    None => !world.enabled_now(&self.flags).is_empty(),
                };
                if enabled {
                    return true;
                }
            }
            return false;
        }
        // One pass over the executed processes. A step writes only its own
        // variables and the observers read only `S_p` and `P_p` of them, so
        // diffing the pre-step mirror against the committed state — by
        // value, never by action id — names everything they must look at
        // again:
        // * a committee's meets-status can move only if some member started
        //   or stopped upholding `Meeting`'s conjunct for it — at most the
        //   committee `p` pointed at before and the one it points at now
        //   (a `looking` re-point, a `waiting → done` or a token action
        //   names none);
        // * a `PolicyView` entry can move only for a process whose status
        //   or pointer changed, or whose committee convened or terminated
        //   (added below, from the ledger's events).
        // The same pass refreshes the mirror and collects the committee
        // actions with their *pre-step* pointers (ledger attribution).
        self.executed_procs.clear();
        self.executed_cc.clear();
        self.touched_edges.clear();
        let h = self.world.h();
        for &(p, a) in &self.out.executed {
            self.executed_procs.push(p);
            let new = &self.world.state(p).cc;
            let old = std::mem::replace(&mut self.cc_view[p], new.clone());
            if let Some(i) = Composed::<C, TL>::committee_action(a) {
                let class = self.world.algo().cc.action_class(i);
                self.executed_cc.push((p, class, old.pointer()));
            }
            if old.status() == new.status() && old.pointer() == new.pointer() {
                continue;
            }
            self.view.status[p] = new.status();
            self.recheck.insert(p);
            moved_conjuncts(h, p, &old, new, &mut self.touched_edges);
        }
        self.touched_edges.sort_unstable();
        self.touched_edges.dedup();
        self.rounds.record_executed(&self.executed_procs);
        let step_idx = self.world.steps() - 1;

        let events = self.ledger.observe_delta(
            h,
            &self.cc_view,
            step_idx,
            self.rounds.rounds(),
            &self.executed_cc,
            &self.touched_edges,
        );
        #[cfg(debug_assertions)]
        self.assert_no_committee_skipped();
        self.monitor
            .observe_incremental(h, &self.cc_view, step_idx, &self.ledger, &events);
        // A convene or a terminate moves `Meeting(q)` of every participant.
        for &(LedgerEvent::Convened(idx) | LedgerEvent::Terminated(idx)) in &events {
            for &q in &self.ledger.instances()[idx].participants {
                self.recheck.insert(q);
            }
        }
        self.last_events = events;

        // Maintain the policy view (statuses were refreshed by the pass).
        self.recheck.sort();
        for &q in self.recheck.as_slice() {
            let in_meeting = in_live_meeting(h, &self.ledger, q, &self.cc_view[q]);
            debug_assert_eq!(
                in_meeting,
                predicates::participates(h, &self.cc_view, q),
                "ledger live-status diverged from edge_meets for process {q}"
            );
            self.view.in_meeting[q] = in_meeting;
        }
        self.work.edges_rechecked += self.touched_edges.len() as u64;
        self.work.views_rederived += self.recheck.len() as u64;
        #[cfg(debug_assertions)]
        self.assert_no_view_skipped();
        // The recheck set is exactly where the policy's *view* inputs can
        // have moved; union in the processes whose flags flipped since the
        // last tick (a full tick would re-derive them too). The resulting
        // flag flips are drained (into engine invalidations) at the start
        // of the next step.
        {
            let recheck = &mut self.recheck;
            self.flag_changed.drain(|p| {
                recheck.insert(p);
            });
        }
        let recheck = std::mem::take(&mut self.recheck);
        self.tick_policy(recheck.as_slice());
        self.recheck = recheck;
        self.recheck.clear();

        if let Some(t) = &mut self.trace {
            t.record(step_idx, self.rounds.rounds(), &self.out.executed);
        }
        true
    }

    /// Debug builds: no committee in an executed process's footprint that
    /// the diff left alone has changed meets-status — the ledger's recorded
    /// liveness of every incident committee equals a fresh derivation. A
    /// marking rule that skips one aborts at the step that skipped it.
    #[cfg(debug_assertions)]
    fn assert_no_committee_skipped(&self) {
        let h = self.world.h();
        for &p in &self.executed_procs {
            for &e in h.incident(p) {
                assert_eq!(
                    self.ledger.is_live(e),
                    predicates::edge_meets(h, &self.cc_view, e),
                    "committee {e:?} (incident to executed process {p}) was not re-checked"
                );
            }
        }
    }

    /// Debug builds: the same for the policy view — every closed-neighbour
    /// entry of an executed process equals a fresh derivation.
    #[cfg(debug_assertions)]
    fn assert_no_view_skipped(&self) {
        let h = self.world.h();
        for &p in &self.executed_procs {
            for &q in h.closed_neighborhood(p) {
                assert_eq!(
                    (self.view.status[q], self.view.in_meeting[q]),
                    (
                        self.cc_view[q].status(),
                        predicates::participates(h, &self.cc_view, q)
                    ),
                    "view entry of {q} (neighbour of executed process {p}) was not re-derived"
                );
            }
        }
    }

    /// The legacy full-scan step: whole-configuration clones, `O(n + |E|)`
    /// observers and view rebuilds. Kept as the differential-testing
    /// reference for [`Sim::step_incremental`].
    fn step_full_scan(&mut self) -> bool {
        self.last_events.clear();
        let pre = self.cc_states();
        let out = self.world.step(&mut *self.daemon, &self.flags);
        self.rounds.begin_step(&out.enabled);
        if out.terminal() {
            let view = PolicyView {
                status: pre.iter().map(|s| s.status()).collect(),
                in_meeting: (0..pre.len())
                    .map(|p| predicates::participates(self.world.h(), &pre, p))
                    .collect(),
            };
            for _ in 0..self.policy.quiescence_horizon() {
                self.policy.update(&mut self.flags, &view);
                self.flags.drain_changed(|_| {});
                if !self.world.enabled(&self.flags).is_empty() {
                    return true;
                }
            }
            return false;
        }
        let executed_procs: Vec<usize> = out.executed.iter().map(|&(p, _)| p).collect();
        self.rounds.record_executed(&executed_procs);
        let step_idx = self.world.steps() - 1;

        let post = self.cc_states();
        let executed_cc: Vec<(usize, ActionClass)> = out
            .executed
            .iter()
            .filter_map(|&(p, a)| {
                Composed::<C, TL>::committee_action(a)
                    .map(|i| (p, self.world.algo().cc.action_class(i)))
            })
            .collect();
        let events = self.ledger.observe(
            self.world.h(),
            &pre,
            &post,
            step_idx,
            self.rounds.rounds(),
            &executed_cc,
        );
        self.monitor
            .observe(self.world.h(), &post, step_idx, &self.ledger, &events);
        self.last_events = events;

        let view = PolicyView {
            status: post.iter().map(|s| s.status()).collect(),
            in_meeting: (0..post.len())
                .map(|p| predicates::participates(self.world.h(), &post, p))
                .collect(),
        };
        self.policy.update(&mut self.flags, &view);
        self.flags.drain_changed(|_| {});
        self.work.edges_rechecked += self.world.h().m() as u64;
        self.work.views_rederived += post.len() as u64;

        if let Some(t) = &mut self.trace {
            t.record(step_idx, self.rounds.rounds(), &out.executed);
        }
        true
    }

    /// Run until terminal or `budget` steps.
    pub fn run(&mut self, budget: u64) -> StopReason {
        for _ in 0..budget {
            if !self.step() {
                return StopReason::Terminal;
            }
        }
        StopReason::Budget
    }

    /// Run until `pred(self)` holds (checked after each step), terminal, or
    /// budget exhaustion. Returns the steps taken and whether `pred` held.
    pub fn run_until(&mut self, budget: u64, mut pred: impl FnMut(&Self) -> bool) -> (u64, bool) {
        let start = self.steps();
        loop {
            if pred(self) {
                return (self.steps() - start, true);
            }
            if self.steps() - start >= budget || !self.step() {
                return (self.steps() - start, pred(self));
            }
        }
    }

    /// Statuses of all professors (reporting convenience).
    pub fn statuses(&self) -> Vec<Status> {
        self.world.states().iter().map(|s| s.cc.status()).collect()
    }

    /// Committees currently meeting.
    pub fn live_meetings(&self) -> Vec<sscc_hypergraph::EdgeId> {
        self.ledger.live_edges()
    }

    /// Serialize the complete simulation at a step boundary: configuration,
    /// per-process states, daemon RNG/fairness state, policy timers,
    /// request flags (with undrained flips), ledger, monitor, round
    /// tracker, pending invalidations and the optional trace. A [`Sim`]
    /// rebuilt from this blob by [`Sim::restore`] produces the
    /// **bit-identical** continuation of this run.
    ///
    /// Returns `false` — writing nothing — when the daemon or policy is a
    /// custom type that does not implement persistence (see
    /// [`Daemon::save_state`] / [`OraclePolicy::save_state`]).
    ///
    /// The topology is *not* written: it has its own codec in the persist
    /// layer, and the service checkpoint container pairs the two blobs.
    pub fn save_state(&self, out: &mut Vec<u8>) -> bool
    where
        C::State: StateCodec,
        TL::State: StateCodec,
    {
        use sscc_runtime::wire;
        let mut daemon_blob = Vec::new();
        if !self.daemon.save_state(&mut daemon_blob) {
            return false;
        }
        let mut policy_blob = Vec::new();
        if !self.policy.save_state(&mut policy_blob) {
            return false;
        }
        wire::put_str(out, &self.cfg.to_string());
        wire::put_usize(out, self.world.states().len());
        for s in self.world.states() {
            s.encode(out);
        }
        wire::put_u64(out, self.world.steps());
        wire::put_bool_slice(out, &self.world.observation_snapshot());
        wire::put_bool(out, self.world.notes_stale());
        wire::put_bool(out, self.policy_stale);
        wire::put_usize_slice(out, self.flag_changed.as_slice());
        self.flags.save_state(out);
        self.rounds.save_state(out);
        self.ledger.save_state(out);
        self.monitor.save_state(out);
        wire::put_bytes(out, &daemon_blob);
        wire::put_bytes(out, &policy_blob);
        encode_ledger_events(&self.last_events, out);
        match &self.trace {
            None => wire::put_bool(out, false),
            Some(t) => {
                wire::put_bool(out, true);
                t.save_state(out);
            }
        }
        true
    }

    /// Roughly how many bytes [`Sim::save_state`] appends, in `O(1)`, for a
    /// writer to reserve before calling it. The two histories — all that
    /// grows with the run — are bounded from above
    /// ([`MeetingLedger::encoded_size_hint`]; 32 bytes a trace event); the
    /// per-process and per-committee rest is a generous flat estimate. A
    /// wrong hint costs the writer a reallocation, never a byte.
    pub fn encoded_size_hint(&self) -> usize {
        let state = std::mem::size_of::<crate::compose::CcTok<C::State, TL::State>>();
        let live = 512 + (2 * state + 128) * self.world.states().len() + 16 * self.h().m();
        let trace = self.trace.as_ref().map_or(0, |t| 32 * t.events().len());
        live + self.ledger.encoded_size_hint() + trace
    }

    /// Capture an **online snapshot** at a step boundary: `O(live state)`,
    /// never `O(history)`. Mutable state (per-process states, flags,
    /// counters, live meetings) is cloned — mostly flat `memcpy`s — while
    /// the terminated meeting history and the recorded trace are
    /// *referenced* through sealed shared segments maintained by the
    /// ledger and trace (amortized `O(new entries)` per capture). The wire
    /// encoding — [`Snapshot::to_bytes`], bit-identical to
    /// [`Sim::save_state`] — is deferred off the engine's critical path.
    ///
    /// Returns `None` under the same conditions as [`Sim::save_state`]
    /// (a daemon or policy without persistence support).
    // The lint's "`to_vec()` is faster" is wrong for the generic composed
    // state: its derived `Clone` misses the bulk copy, and `to_vec()`
    // measures 8–11 × this `memcpy` (EXPERIMENTS.md "Deletion audit").
    #[allow(clippy::iter_cloned_collect)]
    pub fn snapshot(&mut self) -> Option<Snapshot<C, TL>>
    where
        C::State: Copy,
        TL::State: Copy,
    {
        let mut daemon_blob = Vec::new();
        if !self.daemon.save_state(&mut daemon_blob) {
            return None;
        }
        let mut policy_blob = Vec::new();
        if !self.policy.save_state(&mut policy_blob) {
            return None;
        }
        Some(Snapshot {
            cfg: self.cfg.to_string(),
            states: self.world.states().iter().copied().collect(),
            steps: self.world.steps(),
            observations: self.world.observation_snapshot(),
            notes_stale: self.world.notes_stale(),
            policy_stale: self.policy_stale,
            flag_changed: self.flag_changed.as_slice().to_vec(),
            flags: self.flags.clone(),
            rounds: self.rounds.clone(),
            ledger: self.ledger.snapshot(),
            monitor: self.monitor.clone(),
            daemon_blob,
            policy_blob,
            last_events: self.last_events.clone(),
            trace: self.trace.as_mut().map(Trace::snapshot),
        })
    }

    /// Rebuild a simulation from a [`Sim::save_state`] blob over topology
    /// `h` (the graph as it was *at snapshot time* — after any mutations)
    /// and fresh algorithm instances. `None` on truncation, corruption, or
    /// a blob whose dimensions disagree with `h`.
    ///
    /// The restored sim skips the constructor's priming policy tick (the
    /// blob carries the already-primed flags) and re-enters the exact
    /// engine mode through [`Sim::configure`]; commit notes and guard
    /// caches are recomputed from the restored states, and the daemon's
    /// observation mirror is re-seeded from the blob so the first
    /// incremental drain feeds it the same deltas the uninterrupted run
    /// would have.
    pub fn restore(h: Arc<Hypergraph>, cc: C, tl: TL, bytes: &[u8]) -> Option<Self>
    where
        C: 'static,
        TL: 'static,
        C::State: Copy + StateCodec,
        TL::State: Copy + StateCodec,
    {
        Self::restore_as(h, cc, tl, bytes, LedgerLayout::Compact)
    }

    /// [`Sim::restore`] of a blob whose meeting ledger is laid out as
    /// `layout` says — [`LedgerLayout::Fixed`] inside a container of a
    /// format version before the compact history, the only other layout
    /// there is. Everything else in the blob is the same in both; the
    /// restored sim writes the compact layout from then on.
    pub fn restore_as(
        h: Arc<Hypergraph>,
        cc: C,
        tl: TL,
        bytes: &[u8],
        layout: LedgerLayout,
    ) -> Option<Self>
    where
        C: 'static,
        TL: 'static,
        C::State: Copy + StateCodec,
        TL::State: Copy + StateCodec,
    {
        use sscc_runtime::wire;
        let n = h.n();
        let m = h.m();
        let mut r = wire::Reader::new(bytes);
        let cfg: EngineConfig = r.str()?.parse().ok()?;
        let count = r.count(1)?;
        if count != n {
            return None;
        }
        let mut states = Vec::with_capacity(count);
        for _ in 0..count {
            states.push(crate::compose::CcTok::<C::State, TL::State>::decode(
                &mut r,
            )?);
        }
        // `P_p ∈ E_p ∪ {⊥}`: a pointer naming no incident committee is
        // outside the state domain (and would index past the edge table).
        let outside = |(p, s): (usize, &crate::compose::CcTok<C::State, TL::State>)| {
            s.cc.pointer()
                .is_some_and(|e| e.index() >= m || !h.is_member(p, e))
        };
        if states.iter().enumerate().any(outside) {
            return None;
        }
        let steps = r.u64()?;
        let obs = r.bool_vec()?;
        if obs.len() != n {
            return None;
        }
        let notes_stale = r.bool()?;
        let policy_stale = r.bool()?;
        let flagged = r.usize_vec()?;
        if flagged.iter().any(|&p| p >= n) {
            return None;
        }
        let flags = RequestFlags::restore_state(&mut r)?;
        if flags.processes() != n {
            return None;
        }
        let rounds = RoundTracker::restore_state(&mut r)?;
        let ledger = match layout {
            LedgerLayout::Fixed => MeetingLedger::restore_fixed(&mut r)?,
            LedgerLayout::Compact => MeetingLedger::restore_state(&mut r)?,
        };
        if ledger.edge_slots() != m || ledger.process_slots() != n {
            return None;
        }
        let monitor = SpecMonitor::restore_state(&mut r)?;
        let daemon = restore_daemon(r.bytes()?, n)?;
        let policy = crate::oracle::restore_policy(r.bytes()?)?;
        let ev_count = r.count(9)?;
        let mut last_events = Vec::with_capacity(ev_count);
        for _ in 0..ev_count {
            let tag = r.u8()?;
            let idx = r.usize()?;
            if idx >= ledger.instances().len() {
                return None;
            }
            last_events.push(match tag {
                0 => LedgerEvent::Convened(idx),
                1 => LedgerEvent::Terminated(idx),
                _ => return None,
            });
        }
        let trace = if r.bool()? {
            Some(Trace::restore_state(&mut r)?)
        } else {
            None
        };
        if !r.is_empty() {
            return None;
        }

        let world = World::with_states(h, Composed::new(cc, tl), states);
        let cc_view: Vec<C::State> = world.states().iter().map(|s| s.cc).collect();
        let view = PolicyView {
            status: vec![Status::Idle; n],
            in_meeting: vec![false; n],
        };
        let mut sim = Sim {
            world,
            daemon,
            policy,
            flags,
            rounds,
            ledger,
            monitor,
            trace,
            policy_stale,
            out: StepOutcome::default(),
            cc_view,
            view,
            executed_procs: Vec::new(),
            executed_cc: Vec::new(),
            touched_edges: Vec::new(),
            recheck: MarkSet::new(n),
            work: ObserverWork::default(),
            flag_changed: MarkSet::new(n),
            last_events,
            cfg: EngineConfig::default(),
            dist: None,
        };
        sim.refresh_view_from_cc();
        sim.configure(&cfg).ok()?;
        // The commit notes are a pure function of the configuration, so
        // when they are rebuilt cannot move the continuation — but the blob
        // records whether they were fresh, and a restored sim must
        // re-encode to the bytes it came from.
        if !notes_stale {
            sim.world.sync_notes();
        }
        sim.world.restore_observation(&obs);
        sim.world.set_step_count(steps);
        for p in flagged {
            sim.flag_changed.insert(p);
        }
        Some(sim)
    }

    /// Live migration: swap the engine configuration **mid-run** without
    /// resetting any observer — participation counters, meeting history,
    /// violation records, round tracking, policy timers and the daemon's
    /// fairness state all survive. The committee mirror and policy view
    /// are refreshed wholesale from the committed configuration (the
    /// full-scan path does not maintain them per-step), and the next
    /// policy tick is a full resynchronizing one.
    ///
    /// Migrating *into* an `incremental_daemon` mode zeroes the daemon's
    /// observation mirror, so the first drain under the new mode primes it
    /// with the complete enabled set.
    ///
    /// # Errors
    /// Anything [`EngineConfig::validate`] rejects; the simulation is
    /// untouched on error.
    pub fn migrate(&mut self, cfg: &EngineConfig) -> Result<(), ConfigError>
    where
        C: 'static,
        TL: 'static,
        C::State: Copy + StateCodec,
        TL::State: Copy + StateCodec,
    {
        let was_inc = self.cfg.incremental_daemon;
        self.configure(cfg)?;
        for (p, v) in self.cc_view.iter_mut().enumerate() {
            *v = self.world.state(p).cc;
        }
        self.refresh_view_from_cc();
        self.policy_stale = true;
        if cfg.incremental_daemon && !was_inc {
            let n = self.world.h().n();
            self.world.restore_observation(&vec![false; n]);
        }
        Ok(())
    }

    /// [`Sim::migrate`] with a mode label — any [`ModeRegistry`] name or
    /// compositional config string.
    pub fn migrate_mode(&mut self, mode: &str) -> Result<(), ConfigError>
    where
        C: 'static,
        TL: 'static,
        C::State: Copy + StateCodec,
        TL::State: Copy + StateCodec,
    {
        self.migrate(&mode.parse()?)
    }
}

/// Declarative [`Sim`] construction — see [`Sim::builder`].
///
/// Defaults: the paper's distributed weakly fair daemon
/// ([`default_daemon`]) with seed `0`, an eager environment
/// ([`crate::oracle::EagerPolicy`] with `max_disc = 1`), a clean boot, and
/// the default
/// engine ([`EngineConfig::default`], the `"par1"` registry mode). The
/// engine configuration is validated once, at [`SimBuilder::build`].
pub struct SimBuilder<C: CommitteeAlgorithm, TL: TokenLayer> {
    h: Arc<Hypergraph>,
    cc: C,
    tl: TL,
    daemon: Option<Box<dyn Daemon>>,
    policy: Option<Box<dyn OraclePolicy>>,
    seed: u64,
    max_disc: u64,
    fault_seed: Option<u64>,
    config: EngineConfig,
    mode: Option<String>,
    trace: bool,
}

impl<C: CommitteeAlgorithm, TL: TokenLayer> SimBuilder<C, TL> {
    /// Seed for the default daemon (ignored when [`SimBuilder::daemon`]
    /// supplies one).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Voluntary-discussion length of the default eager policy (the
    /// paper's `maxDisc`; ignored when [`SimBuilder::policy`] supplies a
    /// policy).
    pub fn max_disc(mut self, max_disc: u64) -> Self {
        self.max_disc = max_disc;
        self
    }

    /// Use this daemon instead of [`default_daemon`].
    pub fn daemon(mut self, daemon: Box<dyn Daemon>) -> Self {
        self.daemon = Some(daemon);
        self
    }

    /// Use this environment policy instead of the default eager one.
    pub fn policy(mut self, policy: Box<dyn OraclePolicy>) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Boot from an arbitrary configuration sampled with this fault seed
    /// (the paper's transient-fault model, §2.5) instead of the clean one.
    pub fn arbitrary(mut self, fault_seed: u64) -> Self {
        self.fault_seed = Some(fault_seed);
        self
    }

    /// The engine configuration to apply (validated at build).
    pub fn engine(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self.mode = None;
        self
    }

    /// The engine configuration by mode label — any
    /// [`ModeRegistry`] name or compositional config string; parsed and
    /// validated at build.
    pub fn mode(mut self, mode: &str) -> Self {
        self.mode = Some(mode.to_string());
        self
    }

    /// Record a full action trace from step 0.
    pub fn trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Build the simulation: boot, apply and validate the engine
    /// configuration, optionally enable tracing.
    ///
    /// # Errors
    /// An unparsable [`SimBuilder::mode`] label, or any configuration
    /// [`EngineConfig::validate`] rejects — the combinations that silently
    /// no-op'ed under the legacy setter surface fail closed here.
    pub fn build(self) -> Result<Sim<C, TL>, ConfigError>
    where
        C: 'static,
        TL: 'static,
        C::State: StateCodec,
        TL::State: StateCodec,
    {
        let cfg = match &self.mode {
            Some(label) => label.parse()?,
            None => self.config,
        };
        cfg.validate()?;
        let n = self.h.n();
        let daemon = self.daemon.unwrap_or_else(|| default_daemon(self.seed, n));
        let policy = self
            .policy
            .unwrap_or_else(|| Box::new(crate::oracle::EagerPolicy::new(n, self.max_disc)));
        let mut sim = match self.fault_seed {
            Some(fs) => Sim::arbitrary(self.h, self.cc, self.tl, daemon, policy, fs),
            None => Sim::new(self.h, self.cc, self.tl, daemon, policy),
        };
        sim.configure(&cfg)?;
        if self.trace {
            sim.enable_trace();
        }
        Ok(sim)
    }
}

/// `participates(q)` — `q` points at an incident committee that currently
/// meets — off the ledger's per-edge live bit (kept in sync from every
/// step's touched edges), so the member rescan inside
/// [`predicates::participates`] collapses to an `O(1)` lookup.
fn in_live_meeting<S: CommitteeView>(
    h: &Hypergraph,
    ledger: &MeetingLedger,
    q: usize,
    state: &S,
) -> bool {
    state
        .pointer()
        .is_some_and(|e| h.is_member(q, e) && ledger.is_live(e))
}

/// Append the committees whose meets-status the write `old → new` of process
/// `p` can have moved: those `p` is a member of and started or stopped
/// upholding `Meeting`'s conjunct for — at most the one it pointed at before
/// and the one it points at now (possibly twice the same).
fn moved_conjuncts<S: CommitteeView>(
    h: &Hypergraph,
    p: usize,
    old: &S,
    new: &S,
    out: &mut Vec<EdgeId>,
) {
    for e in [old.pointer(), new.pointer()].into_iter().flatten() {
        if predicates::upholds_meeting(old, e) != predicates::upholds_meeting(new, e)
            && h.is_member(p, e)
        {
            out.push(e);
        }
    }
}

/// The default daemon of the experiment suite: a distributed random daemon
/// with per-process activation probability ½, wrapped in weak-fairness
/// enforcement (forced activation after `4n` steps of continuous
/// enabledness) — the paper's *distributed weakly fair daemon*.
pub fn default_daemon(seed: u64, n: usize) -> Box<dyn Daemon> {
    Box::new(WeaklyFair::new(DistributedRandom::new(seed, 0.5), 4 * n))
}

/// The `last_events` wire encoding shared by [`Sim::save_state`] and
/// [`Snapshot::encode`].
fn encode_ledger_events(events: &[LedgerEvent], out: &mut Vec<u8>) {
    use sscc_runtime::wire;
    wire::put_usize(out, events.len());
    for ev in events {
        match ev {
            LedgerEvent::Convened(idx) => {
                wire::put_u8(out, 0);
                wire::put_usize(out, *idx);
            }
            LedgerEvent::Terminated(idx) => {
                wire::put_u8(out, 1);
                wire::put_usize(out, *idx);
            }
        }
    }
}

/// An online snapshot of a [`Sim`], captured by [`Sim::snapshot`] in
/// `O(live state)`: owned clones of the mutable state plus sealed shared
/// segments referencing the immutable meeting/trace history. Encoding to
/// the flat [`Sim::save_state`] wire format happens here — off the
/// engine's critical path — and is **bit-identical** to what
/// [`Sim::save_state`] would have written at the capture step, so
/// [`Sim::restore`] (and the persist layer's checkpoint container) accept
/// either interchangeably.
pub struct Snapshot<C: CommitteeAlgorithm, TL: TokenLayer> {
    cfg: String,
    states: Vec<crate::compose::CcTok<C::State, TL::State>>,
    steps: u64,
    observations: Vec<bool>,
    notes_stale: bool,
    policy_stale: bool,
    flag_changed: Vec<usize>,
    flags: RequestFlags,
    rounds: RoundTracker,
    ledger: crate::meetings::LedgerSnapshot,
    monitor: SpecMonitor,
    daemon_blob: Vec<u8>,
    policy_blob: Vec<u8>,
    last_events: Vec<LedgerEvent>,
    trace: Option<TraceSnapshot>,
}

impl<C: CommitteeAlgorithm, TL: TokenLayer> Snapshot<C, TL> {
    /// Step count at capture.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Append the flat [`Sim::save_state`] encoding.
    pub fn encode(&self, out: &mut Vec<u8>)
    where
        C::State: StateCodec,
        TL::State: StateCodec,
    {
        use sscc_runtime::wire;
        wire::put_str(out, &self.cfg);
        wire::put_usize(out, self.states.len());
        for s in &self.states {
            s.encode(out);
        }
        wire::put_u64(out, self.steps);
        wire::put_bool_slice(out, &self.observations);
        wire::put_bool(out, self.notes_stale);
        wire::put_bool(out, self.policy_stale);
        wire::put_usize_slice(out, &self.flag_changed);
        self.flags.save_state(out);
        self.rounds.save_state(out);
        self.ledger.encode(out);
        self.monitor.save_state(out);
        wire::put_bytes(out, &self.daemon_blob);
        wire::put_bytes(out, &self.policy_blob);
        encode_ledger_events(&self.last_events, out);
        match &self.trace {
            None => wire::put_bool(out, false),
            Some(t) => {
                wire::put_bool(out, true);
                t.encode(out);
            }
        }
    }

    /// The flat [`Sim::save_state`] blob, assembled from the captured
    /// pieces (a `memcpy` per sealed history segment plus the encoding of
    /// the live state).
    pub fn to_bytes(&self) -> Vec<u8>
    where
        C::State: StateCodec,
        TL::State: StateCodec,
    {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }
}

/// Online snapshot of the standard CC1 ∘ TC stack.
pub type Cc1Snapshot = Snapshot<crate::cc1::Cc1, sscc_token::WaveToken>;
/// Online snapshot of the standard CC2 ∘ TC stack.
pub type Cc2Snapshot = Snapshot<crate::cc2::Cc2, sscc_token::WaveToken>;
/// Online snapshot of the standard CC3 ∘ TC stack.
pub type Cc3Snapshot = Snapshot<crate::cc2::Cc3, sscc_token::WaveToken>;

/// Pre-composed simulation type for CC1 over the wave-token substrate.
pub type Cc1Sim = Sim<crate::cc1::Cc1, sscc_token::WaveToken>;
/// Pre-composed simulation type for CC2.
pub type Cc2Sim = Sim<crate::cc2::Cc2, sscc_token::WaveToken>;
/// Pre-composed simulation type for CC3.
pub type Cc3Sim = Sim<crate::cc2::Cc3, sscc_token::WaveToken>;

impl Cc1Sim {
    /// CC1 ∘ TC with the default daemon and an eager environment.
    pub fn standard(h: Arc<Hypergraph>, seed: u64, max_disc: u64) -> Self {
        let n = h.n();
        let ring = sscc_token::WaveToken::new(&h);
        Sim::new(
            h,
            crate::cc1::Cc1::new(),
            ring,
            default_daemon(seed, n),
            Box::new(crate::oracle::EagerPolicy::new(n, max_disc)),
        )
    }
}

impl Cc2Sim {
    /// CC2 ∘ TC with the default daemon and an eager environment.
    pub fn standard(h: Arc<Hypergraph>, seed: u64, max_disc: u64) -> Self {
        let n = h.n();
        let ring = sscc_token::WaveToken::new(&h);
        Sim::new(
            h,
            crate::cc2::Cc2::new(),
            ring,
            default_daemon(seed, n),
            Box::new(crate::oracle::EagerPolicy::new(n, max_disc)),
        )
    }
}

impl Cc3Sim {
    /// CC3 ∘ TC with the default daemon and an eager environment.
    pub fn standard(h: Arc<Hypergraph>, seed: u64, max_disc: u64) -> Self {
        let n = h.n();
        let ring = sscc_token::WaveToken::new(&h);
        Sim::new(
            h,
            crate::cc2::Cc3::new_cc3(),
            ring,
            default_daemon(seed, n),
            Box::new(crate::oracle::EagerPolicy::new(n, max_disc)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sscc_hypergraph::generators;

    #[test]
    fn cc1_convenes_meetings_on_fig2() {
        let h = Arc::new(generators::fig2());
        let mut sim = Cc1Sim::standard(Arc::clone(&h), 42, 1);
        sim.run(4000);
        assert!(
            sim.ledger().convened_count() >= 3,
            "meetings keep happening"
        );
        assert!(
            sim.monitor().clean(),
            "violations: {:?}",
            sim.monitor().violations()
        );
    }

    #[test]
    fn cc2_convenes_meetings_on_fig2() {
        let h = Arc::new(generators::fig2());
        let mut sim = Cc2Sim::standard(Arc::clone(&h), 42, 1);
        sim.run(4000);
        assert!(sim.ledger().convened_count() >= 3);
        assert!(
            sim.monitor().clean(),
            "violations: {:?}",
            sim.monitor().violations()
        );
    }

    #[test]
    fn cc3_convenes_meetings_on_fig1() {
        let h = Arc::new(generators::fig1());
        let mut sim = Cc3Sim::standard(Arc::clone(&h), 7, 1);
        sim.run(6000);
        assert!(sim.ledger().convened_count() >= 3);
        assert!(
            sim.monitor().clean(),
            "violations: {:?}",
            sim.monitor().violations()
        );
    }

    #[test]
    fn cc2_is_fair_on_ring() {
        // Everybody meets repeatedly under CC2 (professor fairness).
        let h = Arc::new(generators::ring(5, 2));
        let mut sim = Cc2Sim::standard(Arc::clone(&h), 3, 1);
        sim.run(30_000);
        for p in 0..h.n() {
            assert!(
                sim.ledger().participations()[p] >= 2,
                "p{p} starved: {:?}",
                sim.ledger().participations()
            );
        }
        assert!(sim.monitor().clean());
    }

    #[test]
    fn snap_from_arbitrary_configurations_cc1() {
        let h = Arc::new(generators::fig1());
        for seed in 0..10 {
            let n = h.n();
            let ring = sscc_token::WaveToken::new(&h);
            let mut sim = Sim::arbitrary(
                Arc::clone(&h),
                crate::cc1::Cc1::new(),
                ring,
                default_daemon(seed, n),
                Box::new(crate::oracle::EagerPolicy::new(n, 1)),
                seed,
            );
            sim.run(4000);
            assert!(
                sim.monitor().clean(),
                "seed {seed}: {:?}",
                sim.monitor().violations()
            );
            assert!(sim.ledger().convened_count() >= 1, "seed {seed}: progress");
        }
    }

    #[test]
    fn snap_from_arbitrary_configurations_cc2() {
        let h = Arc::new(generators::fig1());
        for seed in 0..10 {
            let n = h.n();
            let ring = sscc_token::WaveToken::new(&h);
            let mut sim = Sim::arbitrary(
                Arc::clone(&h),
                crate::cc2::Cc2::new(),
                ring,
                default_daemon(seed, n),
                Box::new(crate::oracle::EagerPolicy::new(n, 1)),
                seed,
            );
            sim.run(6000);
            assert!(
                sim.monitor().clean(),
                "seed {seed}: {:?}",
                sim.monitor().violations()
            );
            assert!(sim.ledger().convened_count() >= 1, "seed {seed}: progress");
        }
    }

    #[test]
    fn trace_records_actions() {
        let h = Arc::new(generators::fig2());
        let mut sim = Cc1Sim::standard(Arc::clone(&h), 1, 1);
        sim.enable_trace();
        sim.run(50);
        assert!(!sim.trace().unwrap().events().is_empty());
    }

    #[test]
    fn run_until_predicate() {
        let h = Arc::new(generators::fig2());
        let mut sim = Cc1Sim::standard(Arc::clone(&h), 9, 1);
        let (_, ok) = sim.run_until(5000, |s| s.ledger().convened_count() >= 1);
        assert!(ok, "a first meeting convenes within the budget");
    }

    /// Step both sims in lockstep, asserting full observable equality after
    /// every step.
    fn assert_lockstep<C, TL>(a: &mut Sim<C, TL>, b: &mut Sim<C, TL>, steps: u64, label: &str)
    where
        C: CommitteeAlgorithm,
        TL: TokenLayer,
        C::State: std::fmt::Debug + PartialEq,
        TL::State: std::fmt::Debug + PartialEq,
    {
        for i in 0..steps {
            let ra = a.step();
            let rb = b.step();
            assert_eq!(ra, rb, "{label}: step() at {i}");
            assert_eq!(
                a.world().states(),
                b.world().states(),
                "{label}: states {i}"
            );
            assert_eq!(a.flags(), b.flags(), "{label}: flags {i}");
            assert_eq!(a.steps(), b.steps(), "{label}: steps {i}");
            assert_eq!(a.rounds(), b.rounds(), "{label}: rounds {i}");
            assert_eq!(a.live_meetings(), b.live_meetings(), "{label}: live {i}");
            assert_eq!(a.last_events(), b.last_events(), "{label}: events {i}");
            if !ra {
                break;
            }
        }
        assert_eq!(
            a.ledger().instances(),
            b.ledger().instances(),
            "{label}: ledger"
        );
        assert_eq!(
            a.monitor().violations(),
            b.monitor().violations(),
            "{label}: monitor"
        );
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identical() {
        let h = Arc::new(generators::fig2());
        let mut sim = Cc1Sim::standard(Arc::clone(&h), 42, 1);
        sim.enable_trace();
        sim.run(300);
        let mut blob = Vec::new();
        assert!(sim.save_state(&mut blob), "default stack is persistable");
        let mut twin = Cc1Sim::restore(
            Arc::clone(&h),
            crate::cc1::Cc1::new(),
            sscc_token::WaveToken::new(&h),
            &blob,
        )
        .expect("restore");
        assert_eq!(twin.steps(), sim.steps());
        assert_eq!(
            twin.trace().unwrap().events(),
            sim.trace().unwrap().events(),
            "trace survives the checkpoint"
        );
        assert_eq!(twin.config().to_string(), sim.config().to_string());
        assert_lockstep(&mut sim, &mut twin, 400, "fig2/par1");
        // Corrupted blobs are rejected, never panic.
        sscc_runtime::wire::fails_closed(None, &blob, |b| {
            Cc1Sim::restore(
                Arc::clone(&h),
                crate::cc1::Cc1::new(),
                sscc_token::WaveToken::new(&h),
                b,
            )
            .is_some()
        });
    }

    #[test]
    fn checkpoint_restore_after_mutations_and_strikes() {
        use rand::SeedableRng as _;
        // A churny prefix: topology mutations and a mid-run strike, then a
        // snapshot while the repair flags (`policy_stale`, stale commit
        // notes) are still pending — the restored twin must continue
        // bit-identically on the *mutated* topology.
        let h = Arc::new(generators::ring(8, 3));
        let mut sim = Cc2Sim::standard(Arc::clone(&h), 11, 1);
        sim.configure_mode("daemon").unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        sim.run(120);
        for _ in 0..4 {
            let mu = sscc_hypergraph::random_mutation(sim.h(), &mut rng);
            let _ = sim.mutate(&mu);
            sim.run(61);
        }
        sim.strike(5, 0.4).unwrap();
        let mut blob = Vec::new();
        assert!(sim.save_state(&mut blob));
        let h_now = sim.world().h_arc();
        let mut twin = Cc2Sim::restore(
            Arc::clone(&h_now),
            crate::cc2::Cc2::new(),
            sscc_token::WaveToken::new(&h_now),
            &blob,
        )
        .expect("restore on mutated topology");
        assert_lockstep(&mut sim, &mut twin, 500, "ring8/daemon/churn");
    }

    #[test]
    fn migrate_preserves_observer_history() {
        let h = Arc::new(generators::ring(6, 2));
        let mut sim = Cc1Sim::standard(Arc::clone(&h), 3, 1);
        sim.configure_mode("seq").unwrap();
        sim.run(600);
        let convened = sim.ledger().convened_count();
        let rounds = sim.rounds();
        let participations = sim.ledger().participations().to_vec();
        assert!(convened > 0, "history to preserve");

        sim.migrate_mode("dist2").unwrap();
        assert!(
            sim.ledger()
                .participations()
                .iter()
                .zip(&participations)
                .all(|(a, b)| a >= b),
            "participation counters survive migration"
        );
        sim.run(600);
        assert!(sim.ledger().convened_count() > convened, "progress resumes");
        assert!(sim.rounds() >= rounds, "round history survives");
        assert!(sim.monitor().clean(), "{:?}", sim.monitor().violations());

        // Hop again: distributed → sequential with an incremental daemon view.
        let before = sim.ledger().convened_count();
        sim.migrate_mode("daemon").unwrap();
        sim.run(600);
        assert!(sim.ledger().convened_count() > before);
        assert!(sim.monitor().clean(), "{:?}", sim.monitor().violations());
    }

    #[test]
    fn online_snapshot_encodes_the_save_state_bytes() {
        use rand::SeedableRng as _;
        // The online snapshot must assemble *exactly* the flat `save_state`
        // blob at every capture point — including while meetings are live,
        // after topology mutations remapped sealed history (seal reset),
        // and after strikes — so `restore` accepts either interchangeably.
        let h = Arc::new(generators::ring(8, 3));
        let mut sim = Cc2Sim::standard(Arc::clone(&h), 23, 1);
        sim.configure_mode("daemon").unwrap();
        sim.enable_trace();
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let mut captures = 0usize;
        for phase in 0..6 {
            sim.run(83);
            match phase {
                2 | 4 => {
                    let mu = sscc_hypergraph::random_mutation(sim.h(), &mut rng);
                    let _ = sim.mutate(&mu);
                }
                3 => {
                    sim.strike(4, 0.4).unwrap();
                }
                _ => {}
            }
            let mut flat = Vec::new();
            assert!(sim.save_state(&mut flat));
            let snap = sim.snapshot().expect("default stack snapshots");
            assert_eq!(snap.steps(), sim.steps());
            assert_eq!(snap.to_bytes(), flat, "phase {phase}");
            captures += 1;
            // A snapshot is restorable exactly like a flat checkpoint.
            if phase == 5 {
                let h_now = sim.world().h_arc();
                let mut twin = Cc2Sim::restore(
                    Arc::clone(&h_now),
                    crate::cc2::Cc2::new(),
                    sscc_token::WaveToken::new(&h_now),
                    &snap.to_bytes(),
                )
                .expect("restore from snapshot bytes");
                assert_lockstep(&mut sim, &mut twin, 300, "ring8/daemon/snapshot");
            }
        }
        assert_eq!(captures, 6);
    }

    #[test]
    fn restore_rejects_wrong_topology() {
        let h = Arc::new(generators::fig2());
        let mut sim = Cc1Sim::standard(Arc::clone(&h), 1, 1);
        sim.run(50);
        let mut blob = Vec::new();
        assert!(sim.save_state(&mut blob));
        let other = Arc::new(generators::ring(9, 2));
        assert!(
            Cc1Sim::restore(
                Arc::clone(&other),
                crate::cc1::Cc1::new(),
                sscc_token::WaveToken::new(&other),
                &blob
            )
            .is_none(),
            "dimension mismatch must fail closed"
        );
    }

    // ---- the observer delta: what the step hands the ledger and the policy

    use crate::oracle::{EagerPolicy, RequestEnv as _};
    use crate::{Cc1, Cc1State, Cc2, Cc3};
    use sscc_token::WaveToken;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Every cache the facade maintains against a from-scratch derivation.
    fn assert_observers_exact<C, TL>(sim: &Sim<C, TL>, label: &str)
    where
        C: CommitteeAlgorithm,
        TL: TokenLayer,
    {
        let cc = sim.cc_states();
        let h = sim.h();
        assert!(sim.cc_view == cc, "{label}: committee mirror");
        for p in 0..h.n() {
            assert_eq!(
                (sim.view.status[p], sim.view.in_meeting[p]),
                (cc[p].status(), predicates::participates(h, &cc, p)),
                "{label}: view entry of {p}"
            );
        }
        assert_eq!(
            sim.ledger.live_edge_set(),
            predicates::meeting_edges(h, &cc),
            "{label}: live set"
        );
    }

    /// The processes whose enabled action belongs to the token substrate.
    fn substrate_enabled<C, TL>(sim: &Sim<C, TL>) -> Vec<usize>
    where
        C: CommitteeAlgorithm,
        TL: TokenLayer,
    {
        let actions = sim.world.priority_actions(&sim.flags);
        let substrate = |a: &Option<ActionId>| {
            a.is_some_and(|a| Composed::<C, TL>::committee_action(a).is_none())
        };
        (0..actions.len())
            .filter(|&p| substrate(&actions[p]))
            .collect()
    }

    /// One run of the sweep: arbitrary boot, then steps interleaved with
    /// strikes, mutations, scripted flag flips and token-only selections,
    /// the caches checked against scratch after every one of them.
    fn observers_stay_exact<C>(mk_cc: fn() -> C, h: Hypergraph, seed: u64, steps: u64)
    where
        C: CommitteeAlgorithm + 'static,
        C::State: StateCodec,
    {
        use rand::{rngs::StdRng, Rng as _, SeedableRng as _};
        let h = Arc::new(h);
        let n = h.n();
        // Strikes and mutations fail closed on the distributed tier (the
        // `Err` is the exercised path there); flips and token-only steps
        // run on all three. (`full_scan` keeps no per-step mirror to check.)
        let mode = ["par1", "daemon", "dist2"][(seed % 3) as usize];
        let label = format!("{mode}/n{n}/seed{seed}");
        let mut sim = Sim::builder(Arc::clone(&h), mk_cc(), WaveToken::new(&h))
            .seed(seed)
            .arbitrary(seed)
            .mode(mode)
            .build()
            .unwrap();
        assert_observers_exact(&sim, &label);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0b5e);
        for step in 0..steps {
            let mut token_only = None;
            match rng.random_range(0..12u32) {
                0 => {
                    let _ = sim.strike(rng.random(), 0.2);
                }
                1 => {
                    let proposal = sscc_hypergraph::random_mutation(sim.h(), &mut rng);
                    let _ = sim.mutate(&proposal);
                }
                2..=4 => {
                    for _ in 0..rng.random_range(1..4usize) {
                        let p = rng.random_range(0..n);
                        sim.flags_mut().set_in(p, rng.random_bool(0.7));
                        sim.flags_mut().set_out(p, rng.random_bool(0.6));
                    }
                }
                5..=7 => token_only = Some(substrate_enabled(&sim)).filter(|s| !s.is_empty()),
                _ => {}
            }
            assert_observers_exact(&sim, &format!("{label}: before step {step}"));
            let before = sim.observer_work();
            match token_only {
                Some(sel) => {
                    let regular =
                        std::mem::replace(&mut sim.daemon, Box::new(Scripted::new([sel.clone()])));
                    sim.step();
                    sim.daemon = regular;
                    assert!(
                        sim.out
                            .executed
                            .iter()
                            .all(|&(_, a)| Composed::<C, WaveToken>::committee_action(a).is_none()),
                        "{label}: step {step} is token-only"
                    );
                    assert_eq!(sim.observer_work(), before, "{label}: step {step}");
                }
                None => {
                    sim.step();
                }
            }
            assert_observers_exact(&sim, &format!("{label}: after step {step}"));
        }
    }

    /// The five topology families of the sweep.
    fn family(ix: u64, s: u64) -> Hypergraph {
        match ix % 5 {
            0 => generators::fig1(),
            1 => generators::fig2(),
            2 => generators::ring(12, 2 + (s % 2) as usize),
            3 => generators::grid_pairs(4, 5),
            _ => generators::power_law(96, 144, s),
        }
    }

    #[test]
    fn observers_stay_exact_under_everything() {
        for seed in 0..30u64 {
            observers_stay_exact(Cc1::new, family(seed, seed % 9), seed, 200);
            observers_stay_exact(Cc2::new, family(seed + 1, seed % 9), seed, 200);
            observers_stay_exact(Cc3::new_cc3, family(seed + 2, seed % 9), seed, 200);
        }
    }

    #[test]
    fn only_started_or_stopped_conjuncts_are_touched() {
        // Path of pairs: e0 = {0,1}, e1 = {1,2}, e2 = {2,3}.
        let h = Hypergraph::new(&[&[0, 1], &[1, 2], &[2, 3]]);
        let (e0, e1, e2) = (EdgeId(0), EdgeId(1), EdgeId(2));
        let st = |s, p| Cc1State { s, p, t: false };
        let touched = |p: usize, old: Cc1State, new: Cc1State| {
            let mut out = Vec::new();
            moved_conjuncts(&h, p, &old, &new, &mut out);
            out.sort_unstable();
            out.dedup();
            out
        };
        use Status::*;
        // A `looking` process upholds nothing wherever it points.
        assert_eq!(touched(1, st(Looking, Some(e0)), st(Looking, Some(e1))), []);
        assert_eq!(touched(1, st(Looking, None), st(Looking, Some(e1))), []);
        // `waiting → done` keeps upholding the same conjunct.
        assert_eq!(touched(1, st(Waiting, Some(e0)), st(Done, Some(e0))), []);
        // Starting and stopping name the one committee pointed at.
        assert_eq!(
            touched(1, st(Looking, Some(e0)), st(Waiting, Some(e0))),
            [e0]
        );
        assert_eq!(touched(1, st(Done, Some(e1)), st(Idle, None)), [e1]);
        assert_eq!(touched(1, st(Waiting, Some(e1)), st(Looking, None)), [e1]);
        // No statement of CC1/CC2/CC3 re-points a waiting/done process, but
        // the rule reads values, not action ids: both committees move.
        assert_eq!(
            touched(1, st(Waiting, Some(e0)), st(Waiting, Some(e1))),
            [e0, e1]
        );
        assert_eq!(
            touched(1, st(Done, Some(e1)), st(Waiting, Some(e0))),
            [e0, e1]
        );
        // A committee the process is no member of does not read its state.
        assert_eq!(touched(0, st(Waiting, Some(e2)), st(Looking, None)), []);
        assert_eq!(
            touched(0, st(Waiting, Some(e2)), st(Waiting, Some(e0))),
            [e0]
        );
    }

    /// What each policy tick was handed (`None` = a full tick).
    type TickLog = Rc<RefCell<Vec<Option<Vec<usize>>>>>;

    /// Records it.
    struct Recording {
        inner: EagerPolicy,
        log: TickLog,
    }

    impl OraclePolicy for Recording {
        fn update(&mut self, flags: &mut RequestFlags, view: &PolicyView) {
            self.log.borrow_mut().push(None);
            self.inner.update(flags, view);
        }
        fn update_delta(&mut self, flags: &mut RequestFlags, view: &PolicyView, changed: &[usize]) {
            self.log.borrow_mut().push(Some(changed.to_vec()));
            self.inner.update_delta(flags, view, changed);
        }
        fn quiescence_horizon(&self) -> u64 {
            self.inner.quiescence_horizon()
        }
    }

    /// CC1 on the path of pairs `e0 = {0,1}, e1 = {1,2}, e2 = {2,3}`, every
    /// committee state engineered, observers reset on it.
    fn engineered(states: [Cc1State; 4]) -> (Cc1Sim, TickLog) {
        let h = Arc::new(Hypergraph::new(&[&[0, 1], &[1, 2], &[2, 3]]));
        let log = TickLog::default();
        let policy = Recording {
            inner: EagerPolicy::new(4, 1),
            log: Rc::clone(&log),
        };
        let mut sim = Sim::new(
            Arc::clone(&h),
            Cc1::new(),
            WaveToken::new(&h),
            Box::new(Scripted::new([])),
            Box::new(policy),
        );
        for (p, s) in states.into_iter().enumerate() {
            sim.set_cc_state(p, s);
        }
        sim.reset_observers();
        (sim, log)
    }

    /// Step `sim` with exactly `sel` selected; the names of what executed.
    fn step_only(sim: &mut Cc1Sim, sel: &[usize]) -> Vec<(usize, String)> {
        sim.daemon = Box::new(Scripted::new([sel.to_vec()]));
        assert!(sim.step());
        assert_observers_exact(sim, "engineered");
        let name = |a| match Composed::<Cc1, WaveToken>::committee_action(a) {
            Some(i) => sim.world.algo().cc.action_name(i),
            None => "substrate".to_string(),
        };
        sim.out
            .executed
            .iter()
            .map(|&(p, a)| (p, name(a)))
            .collect()
    }

    #[test]
    fn a_looking_repoint_touches_nothing() {
        use Status::Looking;
        let st = |p| Cc1State {
            s: Looking,
            p,
            t: false,
        };
        // 3 is the local maximum and already points at the free e2; 2 points
        // at e1 and follows it.
        let (mut sim, _) =
            engineered([st(None), st(None), st(Some(EdgeId(1))), st(Some(EdgeId(2)))]);
        let ran = step_only(&mut sim, &[2]);
        assert_eq!(ran, [(2, "Step22".to_string())]);
        assert_eq!(sim.cc_view[2], st(Some(EdgeId(2))));
        assert_eq!(sim.touched_edges, []);
        assert_eq!(
            sim.observer_work(),
            ObserverWork {
                edges_rechecked: 0,
                views_rederived: 1
            }
        );
    }

    #[test]
    fn waiting_to_done_touches_nothing() {
        use Status::{Done, Idle, Waiting};
        let st = |s, p| Cc1State { s, p, t: false };
        let e2 = Some(EdgeId(2));
        let (mut sim, log) = engineered([
            st(Idle, None),
            st(Idle, None),
            st(Waiting, e2),
            st(Waiting, e2),
        ]);
        assert_eq!(sim.live_meetings(), [EdgeId(2)]);
        let ran = step_only(&mut sim, &[3]);
        assert_eq!(ran, [(3, "Step32".to_string())]);
        assert_eq!(sim.cc_view[3], st(Done, e2));
        assert_eq!(sim.touched_edges, []);
        assert_eq!(sim.live_meetings(), [EdgeId(2)], "the meeting goes on");
        assert!(sim.last_events().is_empty());
        // The first tick after surgery is a full one; the next is handed
        // the one process whose status moved.
        assert_eq!(*log.borrow().last().unwrap(), None);
        let ran = step_only(&mut sim, &[2]);
        assert_eq!(ran, [(2, "Step32".to_string())]);
        assert_eq!(sim.touched_edges, []);
        assert_eq!(*log.borrow().last().unwrap(), Some(vec![2]));
    }

    #[test]
    fn a_stabilized_waiter_touches_the_committee_it_pointed_at() {
        use Status::{Idle, Looking, Waiting};
        let st = |s, p| Cc1State { s, p, t: false };
        // 1 waits on e0, which its other member never pointed at.
        let (mut sim, _) = engineered([
            st(Looking, None),
            st(Waiting, Some(EdgeId(0))),
            st(Idle, None),
            st(Idle, None),
        ]);
        let ran = step_only(&mut sim, &[1]);
        assert_eq!(ran, [(1, "Stab2".to_string())]);
        assert_eq!(sim.cc_view[1], st(Looking, None));
        assert_eq!(sim.touched_edges, [EdgeId(0)]);
        assert!(sim.last_events().is_empty(), "e0 never met");
    }

    #[test]
    fn a_pointer_at_a_foreign_committee_is_ignored() {
        use Status::{Idle, Looking, Waiting};
        let st = |s, p| Cc1State { s, p, t: false };
        let e2 = Some(EdgeId(2));
        // 0 is no member of e2 = {2,3}, which meets without it.
        let (mut sim, _) = engineered([
            st(Waiting, e2),
            st(Idle, None),
            st(Waiting, e2),
            st(Waiting, e2),
        ]);
        assert_eq!(sim.live_meetings(), [EdgeId(2)]);
        assert!(!sim.view.in_meeting[0]);
        let ran = step_only(&mut sim, &[0]);
        assert_eq!(ran, [(0, "Stab2".to_string())]);
        assert_eq!(sim.cc_view[0], st(Looking, None));
        assert_eq!(sim.touched_edges, []);
        assert_eq!(sim.live_meetings(), [EdgeId(2)]);
    }

    #[test]
    fn a_token_only_step_hands_the_policy_only_the_flag_flips() {
        let h = Arc::new(generators::ring(6, 2));
        let log = TickLog::default();
        let policy = Recording {
            inner: EagerPolicy::new(h.n(), 1),
            log: Rc::clone(&log),
        };
        let mut sim = Sim::new(
            Arc::clone(&h),
            Cc1::new(),
            WaveToken::new(&h),
            default_daemon(5, h.n()),
            Box::new(policy),
        );
        let mut seen = 0;
        for step in 0..400u64 {
            let sel = substrate_enabled(&sim);
            if step % 3 != 0 || sel.is_empty() {
                sim.step();
                continue;
            }
            // A scripted flip rides along: it is all the policy gets.
            let q = (step as usize) % h.n();
            let out = sim.flags().request_out(q);
            sim.flags_mut().set_out(q, !out);
            let mut flips = Vec::new();
            sim.flags.clone().drain_changed(|p| flips.push(p));
            assert!(flips.contains(&q));
            let before = sim.observer_work();
            let regular = std::mem::replace(&mut sim.daemon, Box::new(Scripted::new([sel])));
            assert!(sim.step());
            sim.daemon = regular;
            assert!(sim.executed_cc.is_empty(), "step {step} is token-only");
            assert_eq!(sim.touched_edges, []);
            assert_eq!(sim.observer_work(), before);
            assert_eq!(*log.borrow().last().unwrap(), Some(flips), "step {step}");
            assert_observers_exact(&sim, "token-only");
            seen += 1;
        }
        assert!(seen > 20, "token-only steps were exercised ({seen})");
    }
}
