//! The execution engine: configurations, atomic steps, termination.
//!
//! A *configuration* is the vector of all process states. A *step* evaluates
//! guards against the pre-step configuration, lets the daemon select a
//! non-empty subset of the enabled processes, and then applies the selected
//! statements **atomically** (composite atomicity: every statement reads the
//! pre-step configuration). This is exactly the paper's `γ -> γ'` relation.
//!
//! ## Incremental scheduling
//!
//! Guard evaluation is the hot path, and in a locally-checkable system a
//! step by process `p` can only change the enabledness of processes in
//! `p`'s dependency footprint (its closed hyperedge neighborhood by
//! default — see [`GuardedAlgorithm::state_footprint`]). The engine
//! therefore keeps a persistent per-process cache of priority actions plus
//! a dirty set. A commit diffs every staged state against the one it
//! replaces at write-back and hands each *changed* process to the
//! algorithm ([`GuardedAlgorithm::note_write`] /
//! [`GuardedAlgorithm::flush_writes`]), which names the guards that read
//! what changed — the whole footprint by default, only the readers of a
//! flipped committee fact for the committee algorithms. Those (plus
//! explicitly invalidated ones, e.g. after environment changes reported
//! through [`World::invalidate_env_of`]) are all that is re-evaluated. The
//! result is `O(affected)` work per step instead of `O(n)`, with
//! **bit-identical** [`StepOutcome`] sequences to the full-scan path —
//! enforce it with `World::configure(&EngineConfig::full_scan())` plus a
//! differential test.
//!
//! Engine variants are configured declaratively through
//! [`EngineConfig`] / [`World::configure`]; every *named* variant lives in
//! the [`ModeRegistry`](crate::config::ModeRegistry).

use crate::algorithm::{ActionId, GuardedAlgorithm};
use crate::config::{ConfigError, Drain, EngineConfig, EvalPath};
use crate::ctx::Ctx;
use crate::daemon::Daemon;
use crate::markset::MarkSet;
use sscc_hypergraph::Hypergraph;
use std::sync::Arc;

/// What happened in one step.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StepOutcome {
    /// Processes enabled in the pre-step configuration (ascending).
    pub enabled: Vec<usize>,
    /// `(process, action)` pairs actually executed, ascending by process.
    pub executed: Vec<(usize, ActionId)>,
}

impl StepOutcome {
    /// True iff the pre-step configuration was terminal (nothing enabled).
    pub fn terminal(&self) -> bool {
        self.enabled.is_empty()
    }
}

/// Persistent guard-evaluation state over dense slots: the priority-action
/// cache, the dirty set, and the maintained (sorted) enabled set — one per
/// [`World`], one per shard actor of the message-passing tier.
#[derive(Clone, Debug)]
pub struct Scheduler {
    /// Cached priority action per slot; valid unless dirty.
    cache: Vec<Option<ActionId>>,
    /// Processes whose cache entry must be re-evaluated.
    dirty: MarkSet,
    /// Sorted dense indices of enabled processes, kept in sync with `cache`.
    enabled: Vec<usize>,
    /// Everything is stale (boot, external state surgery, full-scan mode).
    all_dirty: bool,
    /// Enabled-set membership as of the daemon's last delta observation
    /// (the baseline [`Scheduler::take_view_deltas`] diffs against).
    obs: Vec<bool>,
    /// Processes whose membership may have changed since the last
    /// observation. Deduplicated, so a process that flipped and flipped
    /// back nets out at observation time — daemons see *net* deltas.
    changed: MarkSet,
    /// Membership flips of the current refresh, applied to `enabled` in
    /// one batched repair pass ([`Scheduler::repair_enabled`]) instead of
    /// per-flip `Vec::insert`/`remove` memmoves.
    flips: MarkSet,
    /// Scratch for the repair merge.
    repair: Vec<usize>,
}

impl Scheduler {
    /// A scheduler over `n` slots, every one of them stale.
    pub fn new(n: usize) -> Self {
        Scheduler {
            cache: vec![None; n],
            dirty: MarkSet::new(n),
            enabled: Vec::with_capacity(n),
            all_dirty: true,
            obs: vec![false; n],
            changed: MarkSet::new(n),
            flips: MarkSet::new(n),
            repair: Vec::new(),
        }
    }

    /// Queue slot `p` for re-evaluation at the next refresh.
    #[inline]
    pub fn mark(&mut self, p: usize) {
        if !self.all_dirty {
            self.dirty.insert(p);
        }
    }

    /// Make every slot stale (boot, wholesale surgery, full-scan mode).
    pub fn mark_all(&mut self) {
        self.all_dirty = true;
        self.dirty.clear();
    }

    /// The cached priority action of slot `p` (`None` = disabled).
    #[inline]
    pub fn action(&self, p: usize) -> Option<ActionId> {
        self.cache[p]
    }

    /// The enabled slots, ascending.
    pub fn enabled(&self) -> &[usize] {
        &self.enabled
    }

    /// Bring the cache up to date: drain the dirty slots (every slot after
    /// [`Scheduler::mark_all`]) through `eval`, slot `p`'s priority action
    /// in the current configuration, and repair the enabled set.
    pub fn refresh(&mut self, mut eval: impl FnMut(usize) -> Option<ActionId>) {
        let full = std::mem::take(&mut self.all_dirty);
        if full {
            (0..self.cache.len()).for_each(|p| _ = self.dirty.insert(p));
        }
        while let Some(p) = self.dirty.pop() {
            let a = eval(p);
            self.store(p, a);
        }
        self.repair_enabled();
        // The evaluators cross-check the guards that *were* evaluated; a
        // dirtiness-filter bug is a guard that was not. Every debug-build
        // incremental refresh checks the whole cache against a fresh
        // evaluation.
        if cfg!(debug_assertions) && !full {
            for p in 0..self.cache.len() {
                assert_eq!(
                    self.cache[p],
                    eval(p),
                    "slot {p} changed its priority action without being re-enqueued"
                );
            }
        }
    }

    /// Record a fresh evaluation of `p`. Enabled-set maintenance is
    /// *deferred*: the flip is queued and applied by
    /// [`Scheduler::repair_enabled`] at the end of the refresh, so a
    /// flip-heavy drain (CC1 flips hundreds of entries per step) pays one
    /// batched merge instead of hundreds of `Vec::insert` memmoves.
    fn store(&mut self, p: usize, action: Option<ActionId>) {
        let was = self.cache[p].is_some();
        let now = action.is_some();
        self.cache[p] = action;
        if was != now {
            self.changed.insert(p);
            self.flips.insert(p);
        }
    }

    /// Threshold between per-flip binary insertion (cheap for a handful of
    /// flips) and the batched merge (O(|enabled| + |flips|), immune to the
    /// per-insert memmove) in [`Scheduler::repair_enabled`].
    const REPAIR_MERGE_MIN_FLIPS: usize = 8;

    /// Apply queued membership flips to the sorted enabled set.
    fn repair_enabled(&mut self) {
        if self.flips.is_empty() {
            return;
        }
        if self.flips.len() < Self::REPAIR_MERGE_MIN_FLIPS {
            let cache = &self.cache;
            let enabled = &mut self.enabled;
            self.flips.drain(|p| {
                let now = cache[p].is_some();
                match enabled.binary_search(&p) {
                    Ok(i) if !now => {
                        enabled.remove(i);
                    }
                    Err(i) if now => {
                        enabled.insert(i, p);
                    }
                    _ => {}
                }
            });
            return;
        }
        // One merge pass: walk the old enabled set and the sorted flips,
        // emitting the new membership of every flipped process from the
        // cache (a flip queued twice nets out naturally — the cache holds
        // the final verdict).
        self.flips.sort();
        self.repair.clear();
        let flips = self.flips.as_slice();
        let mut f = 0;
        for &p in &self.enabled {
            while f < flips.len() && flips[f] < p {
                // Flipped process not previously enabled: now enabled?
                if self.cache[flips[f]].is_some() {
                    self.repair.push(flips[f]);
                }
                f += 1;
            }
            if f < flips.len() && flips[f] == p {
                // Previously enabled and flipped: keep iff still enabled.
                if self.cache[p].is_some() {
                    self.repair.push(p);
                }
                f += 1;
            } else {
                self.repair.push(p);
            }
        }
        while f < flips.len() {
            if self.cache[flips[f]].is_some() {
                self.repair.push(flips[f]);
            }
            f += 1;
        }
        std::mem::swap(&mut self.enabled, &mut self.repair);
        self.flips.clear();
    }

    /// Net enabled-set deltas since the previous call, ascending — the
    /// feed for [`Daemon::observe_delta`]. `O(|changed|)`, not `O(n)`:
    /// only flipped entries are visited and the observation baseline is
    /// updated lazily for exactly those.
    fn take_view_deltas(&mut self, added: &mut Vec<usize>, removed: &mut Vec<usize>) {
        added.clear();
        removed.clear();
        let cache = &self.cache;
        let obs = &mut self.obs;
        self.changed.drain(|p| {
            let now = cache[p].is_some();
            if now != obs[p] {
                obs[p] = now;
                if now {
                    added.push(p);
                } else {
                    removed.push(p);
                }
            }
        });
        added.sort_unstable();
        removed.sort_unstable();
    }
}

/// Reused per-step buffers (no hot-path allocation after warmup).
#[derive(Debug)]
struct StepScratch<S> {
    selected: Vec<usize>,
    next: Vec<(usize, S)>,
    /// Daemon-view feed: processes enabled since the last observation.
    added: Vec<usize>,
    /// Daemon-view feed: processes disabled since the last observation.
    removed: Vec<usize>,
}

impl<S> StepScratch<S> {
    fn new() -> Self {
        StepScratch {
            selected: Vec::new(),
            next: Vec::new(),
            added: Vec::new(),
            removed: Vec::new(),
        }
    }
}

/// A running system: topology + algorithm + current configuration.
///
/// ```
/// use sscc_runtime::prelude::*;
/// use sscc_hypergraph::{generators, Hypergraph};
/// use std::sync::Arc;
///
/// // One-action algorithm: count to 3.
/// struct Count3;
/// impl GuardedAlgorithm for Count3 {
///     type State = u32;
///     type Env = ();
///     fn action_count(&self) -> usize { 1 }
///     fn action_name(&self, _: ActionId) -> String { "tick".into() }
///     fn initial_state(&self, _: &Hypergraph, _: usize) -> u32 { 0 }
///     fn priority_action<A: StateAccess<u32> + ?Sized>(
///         &self,
///         ctx: &Ctx<'_, u32, (), A>,
///     ) -> Option<ActionId> {
///         (*ctx.my_state() < 3).then_some(0)
///     }
///     fn execute<A: StateAccess<u32> + ?Sized>(
///         &self,
///         ctx: &Ctx<'_, u32, (), A>,
///         _: ActionId,
///     ) -> u32 {
///         ctx.my_state() + 1
///     }
/// }
///
/// let mut w = World::new(Arc::new(generators::fig2()), Count3);
/// let (steps, quiescent) = w.run_to_quiescence(&mut Synchronous, &(), 100);
/// assert!(quiescent && steps == 3);
/// assert!(w.states().iter().all(|&s| s == 3));
/// ```
pub struct World<A: GuardedAlgorithm> {
    h: Arc<Hypergraph>,
    algo: A,
    states: Vec<A::State>,
    steps: u64,
    sched: Scheduler,
    scratch: StepScratch<A::State>,
    full_scan: bool,
    /// Trust the daemon's `Selection` promises: skip release-mode subset
    /// validation (see [`World::trusted_daemon`]).
    trusted: bool,
    /// The algorithm's commit notes (e.g. a committee-fact mirror) are not
    /// in sync with the configuration: the algorithm was told to drop them
    /// ([`GuardedAlgorithm::drop_commit_notes`]) and the next incremental
    /// refresh rebuilds them. Set on boot and after any wholesale
    /// invalidation; permanently set under [`EvalPath::FullScan`], whose
    /// evaluations never read notes.
    notes_stale: bool,
}

impl<A: GuardedAlgorithm> World<A> {
    /// Boot a world in the algorithm's designated initial configuration.
    pub fn new(h: Arc<Hypergraph>, algo: A) -> Self {
        let states: Vec<A::State> = (0..h.n()).map(|p| algo.initial_state(&h, p)).collect();
        Self::with_states(h, algo, states)
    }

    /// Boot a world in an explicit configuration (e.g. an adversarial one:
    /// snap-stabilization experiments start *anywhere*).
    pub fn with_states(h: Arc<Hypergraph>, mut algo: A, states: Vec<A::State>) -> Self {
        assert_eq!(states.len(), h.n(), "one state per process");
        let n = h.n();
        algo.drop_commit_notes();
        World {
            h,
            algo,
            states,
            steps: 0,
            sched: Scheduler::new(n),
            scratch: StepScratch::new(),
            full_scan: false,
            trusted: false,
            notes_stale: true,
        }
    }

    /// The topology.
    pub fn h(&self) -> &Hypergraph {
        &self.h
    }

    /// Shared handle to the topology.
    pub fn h_arc(&self) -> Arc<Hypergraph> {
        Arc::clone(&self.h)
    }

    /// The algorithm.
    pub fn algo(&self) -> &A {
        &self.algo
    }

    /// Mutable access to the algorithm, for pre-run configuration (e.g.
    /// switching guard evaluators). Conservatively invalidates every cached
    /// guard evaluation — the engine cannot see what changed.
    pub fn algo_mut(&mut self) -> &mut A {
        self.sched.mark_all();
        self.drop_notes();
        &mut self.algo
    }

    /// Stop keeping the algorithm's commit notes in sync: evaluations fall
    /// back on the states alone until the next [`World::sync_notes`].
    fn drop_notes(&mut self) {
        self.notes_stale = true;
        self.algo.drop_commit_notes();
    }

    /// Rebuild the algorithm's commit notes from the current configuration
    /// if they are stale — what every incremental refresh does first.
    /// Public as the persistence seam: a restored world reaches the
    /// `notes_stale` reading its checkpoint recorded without evaluating a
    /// guard. No-op under [`EvalPath::FullScan`], which never reads notes.
    pub fn sync_notes(&mut self) {
        if self.notes_stale && !self.full_scan {
            self.algo.init_commit_notes(&self.h, &self.states);
            self.notes_stale = false;
        }
    }

    /// Write `s` to `states[p]` and enqueue every guard that may read the
    /// change: `p` itself and, while the commit notes are `live`, the
    /// readers the algorithm names from the old→new delta (callers follow
    /// up with [`GuardedAlgorithm::flush_writes`]) — otherwise the whole
    /// topological footprint.
    fn write(
        h: &Hypergraph,
        algo: &mut A,
        states: &mut [A::State],
        sched: &mut Scheduler,
        live: bool,
        p: usize,
        s: A::State,
    ) {
        if states[p] == s {
            return;
        }
        let old = std::mem::replace(&mut states[p], s);
        sched.mark(p);
        if live {
            algo.note_write(h, states, p, &old, |q| sched.mark(q));
        } else {
            for &q in algo.state_footprint(h, p) {
                sched.mark(q);
            }
        }
    }

    /// Current configuration (one state per process, dense order).
    pub fn states(&self) -> &[A::State] {
        &self.states
    }

    /// State of process `p`.
    pub fn state(&self, p: usize) -> &A::State {
        &self.states[p]
    }

    /// Write the staged states back, diffing each against the one it
    /// replaces: only a process whose state actually changed can change
    /// anyone's enabledness, and only for the guards that read what changed
    /// (see [`World::write`]).
    ///
    /// Out of line on purpose, with the algorithm's note-keeping chain
    /// (`note_write` → … → the counter update) marked `#[inline]` so it
    /// lands *here* as one body: left to the inliner, the chain ends up in
    /// [`World::step_into`]'s select/execute loop in some builds and in
    /// pieces in others, a 10–20 % swing on the ring workloads (measured in
    /// both the root and the `benchmark/` build).
    #[inline(never)]
    fn commit(
        h: &Hypergraph,
        algo: &mut A,
        states: &mut [A::State],
        sched: &mut Scheduler,
        live: bool,
        staged: &mut Vec<(usize, A::State)>,
    ) {
        for (p, s) in staged.drain(..) {
            Self::write(h, algo, states, sched, live, p, s);
        }
        if live {
            algo.flush_writes(h, states, |q| sched.mark(q));
        }
    }

    /// Overwrite the state of process `p` (fault injection / fixtures).
    /// Live commit notes are repaired in sync, like a one-process commit.
    pub fn set_state(&mut self, p: usize, s: A::State) {
        if self.notes_stale && self.sched.all_dirty {
            // Nothing to keep in sync: every guard is re-evaluated and the
            // notes are rebuilt before the next evaluation anyway (boot-time
            // strikes; the distributed tier mirroring its commits back).
            self.states[p] = s;
            return;
        }
        let World {
            h,
            algo,
            states,
            sched,
            notes_stale,
            ..
        } = self;
        let live = !*notes_stale;
        Self::write(h, algo, states, sched, live, p, s);
        if live {
            algo.flush_writes(h, states, |q| sched.mark(q));
        }
    }

    /// Overwrite the whole configuration.
    pub fn set_states(&mut self, states: Vec<A::State>) {
        assert_eq!(states.len(), self.h.n());
        self.states = states;
        self.sched.mark_all();
        self.drop_notes();
    }

    /// Number of steps executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Must the algorithm's commit notes be rebuilt from the full
    /// configuration before the next guard evaluation? Observability for
    /// the fault/mutation regression tests: state surgery and topology
    /// mutations must either repair the notes in sync
    /// ([`World::set_state`], [`GuardedAlgorithm::repair_after_mutation`])
    /// or drop them and say so here — never leave them silently stale.
    pub fn notes_stale(&self) -> bool {
        self.notes_stale
    }

    /// Persistence seam: the scheduler's enabled-observation mirror, one
    /// flag per process (was `p` enabled at the last view-delta drain?).
    /// Captured at a step boundary and restored with
    /// [`World::restore_observation`], it makes a rebuilt world's first
    /// view-delta drain empty instead of reporting every enabled process
    /// as newly enabled — the property that lets incremental daemons
    /// resume bit-identically.
    pub fn observation_snapshot(&self) -> Vec<bool> {
        self.sched.obs.clone()
    }

    /// Persistence seam: restore the observation mirror captured by
    /// [`World::observation_snapshot`]. Only meaningful on a freshly
    /// rebuilt world (before its first step); panics on a length mismatch.
    pub fn restore_observation(&mut self, obs: &[bool]) {
        assert_eq!(obs.len(), self.sched.obs.len(), "observation length");
        self.sched.obs.copy_from_slice(obs);
    }

    /// Persistence seam: restore the step counter of a checkpointed run.
    pub fn set_step_count(&mut self, steps: u64) {
        self.steps = steps;
    }

    /// Force full guard re-evaluation every step (the naive `O(n)` path the
    /// incremental scheduler is differentially tested against) — the
    /// [`EvalPath::FullScan`] arm of [`World::configure`].
    fn apply_full_scan(&mut self, on: bool) {
        self.full_scan = on;
        if on {
            self.sched.mark_all();
        }
    }

    /// Trust the daemon's `Selection` promises: skip the release-mode
    /// validation that every selected process is enabled (`Sorted` /
    /// `Subset` selections; `All` needs no validation by construction).
    /// With a dense enabled set the membership check is an
    /// `O(k log |enabled|)` tax per step — this removes it for daemons you
    /// control. A lying daemon cannot cause memory unsafety: selecting a
    /// disabled process panics on the cache lookup ("selected ⊆ enabled"),
    /// just later and with a less helpful message.
    ///
    /// Configured through [`EngineConfig::with_trusted_daemon`].
    ///
    /// Is the daemon trusted?
    pub fn trusted_daemon(&self) -> bool {
        self.trusted
    }

    /// Invalidate every cached guard evaluation (external surgery through
    /// an escape hatch the engine cannot see).
    pub fn invalidate_all(&mut self) {
        self.sched.mark_all();
        self.drop_notes();
    }

    /// Apply a topology mutation and repair every engine-held cache.
    ///
    /// The process set is fixed; only the committee structure changes, so
    /// per-process engine state (scheduler, scratch) stays dimensionally
    /// valid. The hypergraph repairs its own indices incrementally
    /// ([`Hypergraph::apply_mutation`]); the engine then
    ///
    /// 1. lets the algorithm repair its substrate, per-process states and
    ///    commit-note mirrors
    ///    ([`GuardedAlgorithm::repair_after_mutation`]) — falling back on
    ///    the `notes_stale` lifecycle when the mirror was not repaired in
    ///    sync, and
    /// 2. marks **every** guard dirty: a substrate rebuild (a new spanning
    ///    tree / tour) changes guard inputs globally, so incremental
    ///    dirty-marking would be unsound here. The incrementality of churn
    ///    lives in the index/mirror repairs, not the re-evaluation.
    ///
    /// A rejected mutation ([`sscc_hypergraph::MutationError`]) leaves the
    /// world untouched.
    pub fn mutate(
        &mut self,
        mutation: &sscc_hypergraph::WorldMutation,
    ) -> Result<sscc_hypergraph::MutationDelta, sscc_hypergraph::MutationError> {
        let delta = Arc::make_mut(&mut self.h).apply_mutation(mutation)?;
        let repaired = self
            .algo
            .repair_after_mutation(&self.h, &delta, &mut self.states);
        if !repaired {
            self.drop_notes();
        }
        self.sched.mark_all();
        Ok(delta)
    }

    /// The processes currently queued for guard re-evaluation, in
    /// insertion order — observability for invalidation tests and
    /// diagnostics. Empty while everything is stale (see
    /// [`World::all_stale`]); the next refresh consumes it.
    pub fn dirty_queue(&self) -> &[usize] {
        self.sched.dirty.as_slice()
    }

    /// True when every cached guard evaluation is stale (boot, wholesale
    /// overwrite, full-scan mode) — [`World::dirty_queue`] is meaningless
    /// until the next refresh.
    pub fn all_stale(&self) -> bool {
        self.sched.all_dirty
    }

    /// Tell the scheduler that the *environment inputs* of process `p`
    /// changed (e.g. its request flags flipped): re-evaluates `p`'s
    /// environment footprint before the next step.
    pub fn invalidate_env_of(&mut self, p: usize) {
        if self.sched.all_dirty {
            return;
        }
        let World { h, algo, sched, .. } = self;
        for &q in algo.env_footprint(h, p) {
            sched.mark(q);
        }
    }

    /// Evaluation context for process `p` over the current configuration.
    ///
    /// The returned context is monomorphic over the engine's slice storage
    /// (`A = [A::State]`): reads inline, no virtual dispatch.
    pub fn ctx<'a>(&'a self, p: usize, env: &'a A::Env) -> Ctx<'a, A::State, A::Env, [A::State]> {
        Ctx::new(&self.h, p, self.states.as_slice(), env)
    }

    /// The priority enabled action of every process (`None` = disabled),
    /// evaluated against the current configuration.
    ///
    /// This is a *pure* full evaluation (no cache involvement) — the
    /// reference the incremental scheduler is tested against. The
    /// algorithm reads its commit notes only while the engine keeps them
    /// in sync, so the answer is the same after any surgery.
    pub fn priority_actions(&self, env: &A::Env) -> Vec<Option<ActionId>> {
        (0..self.h.n())
            .map(|p| self.algo.priority_action(&self.ctx(p, env)))
            .collect()
    }

    /// `Enabled(γ)`: ascending list of enabled processes, by pure full
    /// evaluation (see [`World::priority_actions`]).
    pub fn enabled(&self, env: &A::Env) -> Vec<usize> {
        self.priority_actions(env)
            .iter()
            .enumerate()
            .filter_map(|(p, a)| a.map(|_| p))
            .collect()
    }

    /// Bring the guard cache up to date, re-evaluating only dirty entries
    /// (or everything, after [`World::invalidate_all`] / at boot).
    fn refresh(&mut self, env: &A::Env) {
        // Commit notes (e.g. the committee-fact mirror) must reflect the
        // full configuration before any guard evaluation reads them.
        self.sync_notes();
        let World {
            h,
            algo,
            states,
            sched,
            ..
        } = self;
        sched.refresh(|p| algo.priority_action(&Ctx::new(h, p, states.as_slice(), env)));
    }

    /// Ascending enabled set of the *current* configuration, through the
    /// incremental cache (flushes pending invalidations first).
    pub fn enabled_now(&mut self, env: &A::Env) -> &[usize] {
        if self.full_scan {
            self.sched.mark_all();
        }
        self.refresh(env);
        &self.sched.enabled
    }

    /// The priority action of every process of the *current* configuration
    /// (`None` = disabled), through the incremental cache — what
    /// [`World::priority_actions`] computes from scratch, and the two must
    /// agree: the soundness statement of the dirtiness filter.
    pub fn actions_now(&mut self, env: &A::Env) -> &[Option<ActionId>] {
        self.enabled_now(env);
        &self.sched.cache
    }

    /// Execute one step under `daemon`, writing what happened into `out`
    /// (buffers are reused — no allocation in the common case). If the
    /// configuration is terminal nothing changes.
    ///
    /// # Panics
    /// If the daemon violates its contract (empty or non-enabled selection).
    pub fn step_into(&mut self, daemon: &mut dyn Daemon, env: &A::Env, out: &mut StepOutcome) {
        if self.full_scan {
            self.sched.mark_all();
        }
        self.refresh(env);
        out.enabled.clear();
        out.enabled.extend_from_slice(&self.sched.enabled);
        out.executed.clear();
        if out.enabled.is_empty() {
            return;
        }
        // Daemons maintaining an incremental view get the net enabled-set
        // deltas (accumulated across every refresh since their previous
        // selection) before they choose.
        if daemon.wants_view() {
            self.sched
                .take_view_deltas(&mut self.scratch.added, &mut self.scratch.removed);
            daemon.observe_delta(&self.scratch.added, &self.scratch.removed);
        }
        daemon.select_step(&out.enabled).resolve_into(
            &out.enabled,
            self.trusted,
            &mut self.scratch.selected,
        );
        // Composite atomicity: every statement reads the pre-step
        // configuration, so all next states are staged against it before
        // any of them is written back.
        let World {
            h,
            algo,
            states,
            sched,
            scratch,
            notes_stale,
            ..
        } = self;
        let StepScratch { selected, next, .. } = scratch;
        next.clear();
        for &p in selected.iter() {
            let a = sched.cache[p].expect("selected ⊆ enabled");
            let s = algo.execute(&Ctx::new(h, p, states.as_slice(), env), a);
            out.executed.push((p, a));
            next.push((p, s));
        }
        Self::commit(h, algo, states, sched, !*notes_stale, next);
        self.steps += 1;
    }

    /// Execute one step under `daemon`. Returns what happened; if the
    /// configuration was terminal nothing changes.
    ///
    /// Convenience wrapper around [`World::step_into`] that allocates a
    /// fresh [`StepOutcome`]; hot loops should reuse one via `step_into`.
    ///
    /// # Panics
    /// If the daemon violates its contract (empty or non-enabled selection).
    pub fn step(&mut self, daemon: &mut dyn Daemon, env: &A::Env) -> StepOutcome {
        let mut out = StepOutcome::default();
        self.step_into(daemon, env, &mut out);
        out
    }

    /// Run until terminal or `max_steps` exhausted; returns the number of
    /// steps taken and whether a terminal configuration was reached.
    pub fn run_to_quiescence(
        &mut self,
        daemon: &mut dyn Daemon,
        env: &A::Env,
        max_steps: u64,
    ) -> (u64, bool) {
        let mut taken = 0;
        let mut out = StepOutcome::default();
        while taken < max_steps {
            self.step_into(daemon, env, &mut out);
            if out.terminal() {
                return (taken, true);
            }
            taken += 1;
        }
        (taken, self.enabled_now(env).is_empty())
    }

    /// Apply a complete engine configuration in one validated shot — the
    /// declarative replacement for the accreted `set_*` surface. The
    /// config is applied **before stepping** and compiles down to the same
    /// plain fields the setters wrote: zero added dispatch on the hot path.
    ///
    /// Reconfiguring is a full reset: knobs absent from `cfg` return to
    /// their defaults (the setters, by contrast, were additive and
    /// order-sensitive).
    ///
    /// ```
    /// use sscc_runtime::prelude::*;
    /// use sscc_hypergraph::generators;
    /// use std::sync::Arc;
    /// # struct Nop;
    /// # impl GuardedAlgorithm for Nop {
    /// #     type State = u32;
    /// #     type Env = ();
    /// #     fn action_count(&self) -> usize { 1 }
    /// #     fn action_name(&self, _: ActionId) -> String { "nop".into() }
    /// #     fn initial_state(&self, _: &sscc_hypergraph::Hypergraph, _: usize) -> u32 { 0 }
    /// #     fn priority_action<A: StateAccess<u32> + ?Sized>(
    /// #         &self, _: &Ctx<'_, u32, (), A>,
    /// #     ) -> Option<ActionId> { None }
    /// #     fn execute<A: StateAccess<u32> + ?Sized>(
    /// #         &self, _: &Ctx<'_, u32, (), A>, _: ActionId,
    /// #     ) -> u32 { 0 }
    /// # }
    /// let mut w = World::new(Arc::new(generators::fig1()), Nop);
    /// w.configure(&EngineConfig::default().with_trusted_daemon(true))
    ///     .unwrap();
    /// assert!(w.trusted_daemon());
    ///
    /// // Incoherent requests fail closed instead of silently no-op'ing.
    /// let bad = EngineConfig::full_scan().with_trusted_daemon(true);
    /// assert!(w.configure(&bad).is_err());
    /// ```
    ///
    /// # Errors
    /// Anything [`EngineConfig::validate`] rejects, plus the two knobs a
    /// bare `World` cannot apply: `incremental_daemon` (the daemon object
    /// is owned by the caller — use `Daemon::set_incremental_view` or the
    /// `Sim` layer) and [`Drain::Distributed`] (the shard actors and their
    /// boundary transport live above the engine — apply through
    /// `Sim`/`AnySim`).
    pub fn configure(&mut self, cfg: &EngineConfig) -> Result<(), ConfigError> {
        cfg.validate()?;
        if cfg.incremental_daemon {
            return Err(ConfigError::DaemonViewOutsideWorld);
        }
        if matches!(cfg.drain, Drain::Distributed { .. }) {
            return Err(ConfigError::DistributedOutsideSim);
        }
        self.apply_full_scan(cfg.eval == EvalPath::FullScan);
        // Any commit notes must be rebuilt against the current
        // configuration before the next evaluation reads them.
        self.drop_notes();
        self.trusted = cfg.trusted_daemon;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::testutil::MaxProp;
    use crate::daemon::{Central, DistributedRandom, RoundRobin, Synchronous, WeaklyFair};
    use sscc_hypergraph::generators;

    fn world() -> World<MaxProp> {
        World::new(Arc::new(generators::fig1()), MaxProp)
    }

    #[test]
    fn initial_states_are_ids() {
        let w = world();
        for p in 0..w.h().n() {
            assert_eq!(*w.state(p), w.h().id(p).value());
        }
    }

    #[test]
    fn synchronous_max_prop_converges() {
        let mut w = world();
        let (_, quiescent) = w.run_to_quiescence(&mut Synchronous, &(), 100);
        assert!(quiescent);
        // Everyone holds the global max id = 6.
        assert!(w.states().iter().all(|&s| s == 6));
    }

    #[test]
    fn central_max_prop_converges() {
        let mut w = world();
        let mut d = WeaklyFair::new(Central::new(11), 8);
        let (_, quiescent) = w.run_to_quiescence(&mut d, &(), 10_000);
        assert!(quiescent);
        assert!(w.states().iter().all(|&s| s == 6));
    }

    #[test]
    fn terminal_step_is_a_noop() {
        let mut w = world();
        w.run_to_quiescence(&mut Synchronous, &(), 100);
        let before = w.states().to_vec();
        let steps_before = w.steps();
        let out = w.step(&mut Synchronous, &());
        assert!(out.terminal());
        assert_eq!(w.states(), &before[..]);
        assert_eq!(w.steps(), steps_before, "terminal steps are not counted");
    }

    #[test]
    fn atomicity_reads_pre_step_configuration() {
        // On the path 1-2-3 with values 1,2,3: synchronously, both 1 and 2
        // are enabled; 2 adopts 3's value and 1 adopts 2's OLD value (2),
        // proving statements read the pre-step configuration.
        let h = Arc::new(sscc_hypergraph::Hypergraph::new(&[&[1, 2], &[2, 3]]));
        let mut w = World::new(h, MaxProp);
        let out = w.step(&mut Synchronous, &());
        assert_eq!(out.executed.len(), 2);
        assert_eq!(w.states(), &[2, 3, 3]);
    }

    #[test]
    fn enabled_matches_priority_actions() {
        let w = world();
        let acts = w.priority_actions(&());
        let en = w.enabled(&());
        for (p, a) in acts.iter().enumerate() {
            assert_eq!(a.is_some(), en.contains(&p));
        }
    }

    #[test]
    fn with_states_boots_anywhere() {
        let h = Arc::new(generators::fig1());
        let mut w = World::with_states(Arc::clone(&h), MaxProp, vec![9, 0, 0, 0, 0, 0]);
        let (_, q) = w.run_to_quiescence(&mut RoundRobin::default(), &(), 1000);
        assert!(q);
        assert!(
            w.states().iter().all(|&s| s == 9),
            "arbitrary value propagates"
        );
    }

    #[test]
    fn step_counter_advances() {
        let mut w = world();
        w.step(&mut Synchronous, &());
        assert_eq!(w.steps(), 1);
    }

    #[test]
    fn incremental_enabled_tracks_full_evaluation() {
        // After every step, the maintained enabled set must equal the pure
        // full evaluation.
        let mut w = world();
        let mut d = Central::new(3);
        for _ in 0..50 {
            let out = w.step(&mut d, &());
            assert_eq!(w.enabled_now(&()).to_vec(), w.enabled(&()));
            if out.terminal() {
                break;
            }
        }
    }

    #[test]
    fn incremental_and_full_scan_agree_stepwise() {
        // Same seed, one world incremental, one full-scan: the StepOutcome
        // sequences must be bit-identical.
        for seed in 0..20 {
            let h = Arc::new(generators::fig1());
            let mut wi = World::with_states(Arc::clone(&h), MaxProp, vec![seed, 0, 3, 1, 0, 2]);
            let mut wf = World::with_states(Arc::clone(&h), MaxProp, vec![seed, 0, 3, 1, 0, 2]);
            wf.configure(&EngineConfig::full_scan()).unwrap();
            let mut di = Central::new(seed as u64);
            let mut df = Central::new(seed as u64);
            for _ in 0..200 {
                let oi = wi.step(&mut di, &());
                let of = wf.step(&mut df, &());
                assert_eq!(oi, of, "seed {seed}");
                assert_eq!(wi.states(), wf.states(), "seed {seed}");
                if oi.terminal() {
                    break;
                }
            }
        }
    }

    #[test]
    fn trusted_daemon_matches_untrusted_stepwise() {
        for seed in 0..10u32 {
            let h = Arc::new(generators::fig1());
            let boot = vec![seed, 0, 3, 1, 0, 2];
            let mut wu = World::with_states(Arc::clone(&h), MaxProp, boot.clone());
            let mut wt = World::with_states(Arc::clone(&h), MaxProp, boot);
            wt.configure(&EngineConfig::default().with_trusted_daemon(true))
                .unwrap();
            assert!(wt.trusted_daemon());
            let mut du = WeaklyFair::new(DistributedRandom::new(seed as u64, 0.5), 4);
            let mut dt = WeaklyFair::new(DistributedRandom::new(seed as u64, 0.5), 4);
            for _ in 0..200 {
                let ou = wu.step(&mut du, &());
                let ot = wt.step(&mut dt, &());
                assert_eq!(ou, ot, "seed {seed}");
                if ou.terminal() {
                    break;
                }
            }
        }
    }

    #[test]
    fn incremental_daemon_view_matches_rescan_through_engine() {
        // A WeaklyFair daemon fed engine deltas must select identically to
        // the rescan twin, step for step.
        for seed in 0..20u32 {
            let h = Arc::new(generators::ring(24, 2));
            let mut wr = World::new(Arc::clone(&h), MaxProp);
            let mut wi = World::new(Arc::clone(&h), MaxProp);
            wr.set_state(0, 90 + seed);
            wi.set_state(0, 90 + seed);
            let mut dr = WeaklyFair::new(DistributedRandom::new(seed as u64, 0.3), 2);
            let mut di = WeaklyFair::new(DistributedRandom::new(seed as u64, 0.3), 2);
            di.set_incremental(true);
            for _ in 0..400 {
                let or = wr.step(&mut dr, &());
                let oi = wi.step(&mut di, &());
                assert_eq!(or, oi, "seed {seed}");
                assert_eq!(wr.states(), wi.states(), "seed {seed}");
                if or.terminal() {
                    break;
                }
            }
        }
    }

    #[test]
    fn configure_rejects_what_world_cannot_apply() {
        let mut w = world();
        assert_eq!(
            w.configure(&EngineConfig::default().with_incremental_daemon(true)),
            Err(ConfigError::DaemonViewOutsideWorld)
        );
        assert_eq!(
            w.configure(&EngineConfig::default().with_drain(Drain::distributed(2))),
            Err(ConfigError::DistributedOutsideSim)
        );
        // A failed configure leaves the engine usable.
        let (_, q) = w.run_to_quiescence(&mut Synchronous, &(), 100);
        assert!(q);
    }

    #[test]
    fn configure_is_a_full_reset() {
        let mut w = world();
        w.configure(&EngineConfig::default().with_trusted_daemon(true))
            .unwrap();
        assert!(w.trusted_daemon());
        w.configure(&EngineConfig::default()).unwrap();
        assert!(!w.trusted_daemon());
    }

    #[test]
    fn value_level_matches_default_stepwise() {
        // MaxProp keeps the default commit-note hooks (a changed state
        // re-enqueues its whole footprint), so diffing at write-back must
        // be bit-identical to the full-scan oracle — including across
        // mid-run state surgery, which exercises the set_state diff path.
        for seed in 0..20u32 {
            let h = Arc::new(generators::ring(24, 2));
            let mut wd = World::new(Arc::clone(&h), MaxProp);
            let mut wv = World::new(Arc::clone(&h), MaxProp);
            wd.set_state(0, 90 + seed);
            wv.set_state(0, 90 + seed);
            wd.configure(&EngineConfig::full_scan()).unwrap();
            let mut dd = WeaklyFair::new(DistributedRandom::new(seed as u64, 0.4), 3);
            let mut dv = WeaklyFair::new(DistributedRandom::new(seed as u64, 0.4), 3);
            for step in 0..300 {
                if step == 40 {
                    wd.set_state(1, 200 + seed);
                    wv.set_state(1, 200 + seed);
                }
                let od = wd.step(&mut dd, &());
                let ov = wv.step(&mut dv, &());
                assert_eq!(od, ov, "seed {seed}");
                assert_eq!(wd.states(), wv.states(), "seed {seed}");
                if od.terminal() && step > 40 {
                    break;
                }
            }
        }
    }

    #[test]
    fn value_level_dirty_queue_stays_within_neighborhoods() {
        // After a step, every queued process must lie in the closed
        // neighborhood of some process whose state changed, and every such
        // process must itself be queued.
        let h = Arc::new(generators::ring(24, 2));
        let mut w = World::new(Arc::clone(&h), MaxProp);
        w.set_state(0, 99);
        let mut d = Central::new(7);
        for _ in 0..100 {
            let before = w.states().to_vec();
            let out = w.step(&mut d, &());
            if out.terminal() {
                break;
            }
            assert!(!w.all_stale());
            let changed: Vec<usize> = (0..h.n()).filter(|&p| before[p] != w.states()[p]).collect();
            let dirty = w.dirty_queue().to_vec();
            for &q in &dirty {
                assert!(
                    changed
                        .iter()
                        .any(|&p| h.closed_neighborhood(p).contains(&q)),
                    "dirty {q} outside every changed neighborhood"
                );
            }
            for &p in &changed {
                assert!(dirty.contains(&p), "changed {p} not re-enqueued");
            }
        }
    }

    #[test]
    fn set_state_invalidates_footprint() {
        let mut w = world();
        w.run_to_quiescence(&mut Synchronous, &(), 100);
        assert!(w.enabled_now(&()).is_empty());
        // Bump one value: its neighbors become enabled again.
        w.set_state(0, 99);
        assert_eq!(w.enabled_now(&()).to_vec(), w.enabled(&()));
        assert!(!w.enabled_now(&()).is_empty());
    }
}
