//! Daemons (schedulers) — the adversary of the model (paper §2.2).
//!
//! At each step a daemon picks a non-empty subset of the enabled processes;
//! every selected process atomically executes its priority enabled action.
//! The paper assumes a **distributed weakly fair** daemon: any subset may be
//! chosen (distributed), but a continuously enabled process is eventually
//! selected (weak fairness). Finite simulations cannot observe "eventually",
//! so [`WeaklyFair`] turns the promise into a bounded-delay guarantee.
//!
//! ## Incremental daemon views
//!
//! The engine maintains its enabled set incrementally (`O(affected)` per
//! step), but a stateful daemon that rescans the dense enabled slice every
//! step re-introduces an `O(|enabled|)` floor on dense workloads (CC1 keeps
//! nearly everything enabled). The [`Daemon::observe_delta`] seam fixes
//! that: a daemon that returns `true` from [`Daemon::wants_view`] is fed
//! the enabled-set *deltas* (processes that became enabled / disabled since
//! its last selection) right before each [`Daemon::select_step`], and can
//! maintain its bookkeeping from those instead of rescanning.
//! [`WeaklyFair`] implements the seam behind
//! [`WeaklyFair::set_incremental`]: ages become O(1) timestamps and the
//! over-age check becomes a deadline queue — bit-identical selections to
//! the rescan path (pinned by a property test and the differential suite).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A daemon's choice for one step, in a form that lets the engine skip
/// per-step normalization work the daemon has already done.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Selection {
    /// Every enabled process moves (synchronous-style) — no allocation,
    /// and nothing for the engine to validate (the selection *is* the
    /// enabled set).
    All,
    /// An explicit subset with a **promise**: ascending, deduplicated, and
    /// a subset of the enabled set. The engine skips its sort + dedup
    /// normalization (and, under a trusted-daemon config
    /// ([`World::trusted_daemon`]), the subset validation too).
    ///
    /// [`World::trusted_daemon`]: crate::engine::World::trusted_daemon
    Sorted(Vec<usize>),
    /// An explicit subset with no ordering promise (the engine sorts,
    /// dedups and validates it).
    Subset(Vec<usize>),
}

impl Selection {
    /// Resolve the daemon's choice against the ascending `enabled` set into
    /// `out` (cleared first): ascending, deduplicated, non-empty. The one
    /// enforcement point of the daemon contract — the shared-memory engine
    /// and the message-passing tier both select through it, so a
    /// misbehaving daemon fails the same assert in either.
    ///
    /// # Panics
    /// If the selection is empty, or — unless `trusted` — not a subset of
    /// `enabled`.
    #[inline]
    pub fn resolve_into(self, enabled: &[usize], trusted: bool, out: &mut Vec<usize>) {
        out.clear();
        match self {
            // `All` *is* the enabled set: nothing to sort, dedup or
            // validate, trusted or not.
            Selection::All => out.extend_from_slice(enabled),
            Selection::Sorted(v) => {
                debug_assert!(
                    v.windows(2).all(|w| w[0] < w[1]),
                    "daemon contract: Sorted selections are ascending and deduplicated"
                );
                if !trusted {
                    assert!(
                        v.iter().all(|p| enabled.binary_search(p).is_ok()),
                        "daemon contract: selection must be a subset of the enabled set"
                    );
                }
                out.extend_from_slice(&v);
            }
            Selection::Subset(mut v) => {
                v.sort_unstable();
                v.dedup();
                if !trusted {
                    assert!(
                        v.iter().all(|p| enabled.binary_search(p).is_ok()),
                        "daemon contract: selection must be a subset of the enabled set"
                    );
                }
                out.extend_from_slice(&v);
            }
        }
        assert!(
            !out.is_empty(),
            "daemon contract: non-empty selection from a non-empty enabled set"
        );
    }
}

/// A scheduler choosing, at each step, which enabled processes move.
///
/// Contract: the returned vector is a non-empty subset of `enabled`
/// whenever `enabled` is non-empty (checked by the engine).
pub trait Daemon {
    /// Choose the processes to activate this step.
    fn select(&mut self, enabled: &[usize]) -> Vec<usize>;

    /// Allocation-aware variant used by the engine's hot loop: daemons that
    /// select the whole enabled set can return [`Selection::All`] and skip
    /// the round-trip through a fresh `Vec`; daemons that build ascending
    /// selections can promise it with [`Selection::Sorted`]. The default
    /// defers to [`Daemon::select`].
    fn select_step(&mut self, enabled: &[usize]) -> Selection {
        Selection::Subset(self.select(enabled))
    }

    /// Like [`Daemon::select`], but appends the selection into a reusable
    /// caller buffer (cleared first) instead of returning a fresh vector —
    /// drive loops outside the engine should prefer this. The default
    /// routes through [`Daemon::select_step`], so `Selection::All` daemons
    /// allocate nothing at all.
    fn select_into(&mut self, enabled: &[usize], out: &mut Vec<usize>) {
        out.clear();
        match self.select_step(enabled) {
            Selection::All => out.extend_from_slice(enabled),
            Selection::Sorted(v) | Selection::Subset(v) => out.extend_from_slice(&v),
        }
    }

    /// Does this daemon maintain an incremental view of the enabled set?
    /// When `true`, the engine calls [`Daemon::observe_delta`] with the
    /// enabled-set changes right before every [`Daemon::select_step`].
    fn wants_view(&self) -> bool {
        false
    }

    /// Incremental view maintenance: `added` / `removed` are the processes
    /// that became enabled / disabled since this daemon's previous
    /// selection (ascending, disjoint, *net* — a process that flipped and
    /// flipped back in between is reported in neither). Default: no-op.
    fn observe_delta(&mut self, added: &[usize], removed: &[usize]) {
        let _ = (added, removed);
    }

    /// Ask the daemon to maintain its view incrementally (from
    /// [`Daemon::observe_delta`] feeds) instead of rescanning the enabled
    /// slice each step. Default: no-op — most daemons are stateless.
    /// Toggle only before the first step: an incremental view attached
    /// mid-run has no history to age from.
    fn set_incremental_view(&mut self, on: bool) {
        let _ = on;
    }

    /// Serialize the daemon's complete scheduling state — tag byte plus
    /// payload — so [`restore_daemon`] can rebuild a daemon continuing the
    /// *exact* selection stream (RNG words, ages, deadline queues and all).
    /// Must only be called at a step boundary (per-step scratch is not
    /// captured). Returns `false`, leaving `out` untouched, when the daemon
    /// is not persistable — the default for custom daemons.
    fn save_state(&self, out: &mut Vec<u8>) -> bool {
        let _ = out;
        false
    }
}

/// The synchronous daemon: every enabled process moves every step.
/// Trivially distributed and weakly fair.
#[derive(Debug, Default, Clone)]
pub struct Synchronous;

impl Daemon for Synchronous {
    fn select(&mut self, enabled: &[usize]) -> Vec<usize> {
        enabled.to_vec()
    }

    fn select_step(&mut self, enabled: &[usize]) -> Selection {
        if enabled.is_empty() {
            Selection::Subset(Vec::new())
        } else {
            Selection::All
        }
    }

    fn save_state(&self, out: &mut Vec<u8>) -> bool {
        crate::wire::put_u8(out, TAG_SYNCHRONOUS);
        true
    }
}

/// A central daemon: exactly one enabled process moves per step, chosen
/// uniformly at random (seeded — runs are reproducible).
#[derive(Debug)]
pub struct Central {
    rng: StdRng,
}

impl Central {
    /// Central daemon with the given seed.
    pub fn new(seed: u64) -> Self {
        Central {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Daemon for Central {
    fn select(&mut self, enabled: &[usize]) -> Vec<usize> {
        match self.select_step(enabled) {
            Selection::Sorted(v) | Selection::Subset(v) => v,
            Selection::All => unreachable!("Central never selects everything"),
        }
    }

    fn select_step(&mut self, enabled: &[usize]) -> Selection {
        if enabled.is_empty() {
            return Selection::Sorted(Vec::new());
        }
        let i = self.rng.random_range(0..enabled.len());
        // A singleton is trivially ascending and deduplicated.
        Selection::Sorted(vec![enabled[i]])
    }

    fn save_state(&self, out: &mut Vec<u8>) -> bool {
        crate::wire::put_u8(out, TAG_CENTRAL);
        put_rng(out, &self.rng);
        true
    }
}

/// The distributed daemon: each enabled process is independently selected
/// with probability `p`; if the coin flips select nobody, one enabled
/// process is drawn uniformly (the daemon must pick a non-empty set).
#[derive(Debug)]
pub struct DistributedRandom {
    rng: StdRng,
    p: f64,
}

impl DistributedRandom {
    /// Distributed random daemon with activation probability `p ∈ (0, 1]`.
    pub fn new(seed: u64, p: f64) -> Self {
        assert!(
            p > 0.0 && p <= 1.0,
            "activation probability must be in (0,1]"
        );
        DistributedRandom {
            rng: StdRng::seed_from_u64(seed),
            p,
        }
    }
}

impl Daemon for DistributedRandom {
    fn select(&mut self, enabled: &[usize]) -> Vec<usize> {
        match self.select_step(enabled) {
            Selection::Sorted(v) | Selection::Subset(v) => v,
            Selection::All => unreachable!("DistributedRandom never promises All"),
        }
    }

    fn select_step(&mut self, enabled: &[usize]) -> Selection {
        if enabled.is_empty() {
            return Selection::Sorted(Vec::new());
        }
        let mut picked: Vec<usize> = enabled
            .iter()
            .copied()
            .filter(|_| self.rng.random_bool(self.p))
            .collect();
        if picked.is_empty() {
            picked.push(enabled[self.rng.random_range(0..enabled.len())]);
        }
        // A filter of the ascending enabled slice stays ascending (and the
        // fallback singleton trivially is).
        Selection::Sorted(picked)
    }

    fn save_state(&self, out: &mut Vec<u8>) -> bool {
        crate::wire::put_u8(out, TAG_DISTRIBUTED);
        put_rng(out, &self.rng);
        crate::wire::put_u64(out, self.p.to_bits());
        true
    }
}

/// Weak-fairness enforcement wrapper: delegates to the inner daemon but
/// force-includes any process that has been continuously enabled (without
/// being selected) for more than `bound` steps. With `bound = 0` every
/// continuously enabled process moves every step.
///
/// Two interchangeable bookkeeping modes produce **identical selections**
/// (pinned by `weakly_fair_incremental_matches_rescan` and the
/// differential suite):
///
/// * **Rescan** (default): `O(|enabled| + |picked|)` per step with reused
///   scratch bitmaps — every age is re-walked each step.
/// * **Incremental** ([`WeaklyFair::set_incremental`], requires an engine
///   feeding [`Daemon::observe_delta`]): ages are *timestamps* — a process
///   ages from `max(enabled-at, last-picked + 1, global-reset)` — and the
///   over-age check is a deadline queue holding one lazily-revalidated
///   token per enabled process. Per step: one timestamp store per picked
///   process, O(delta) membership updates, and amortized O(1) queue work —
///   no walk over the enabled slice at all.
#[derive(Debug)]
pub struct WeaklyFair<D> {
    inner: D,
    bound: usize,
    // --- rescan-mode state ---
    /// age[p] = consecutive steps p has been enabled without being selected.
    age: Vec<usize>,
    /// Processes with nonzero age (the only ones needing reset work).
    nonzero: Vec<usize>,
    /// Scratch: membership bitmap of the current selection.
    in_picked: Vec<bool>,
    /// Scratch: membership bitmap of the current enabled set.
    in_enabled: Vec<bool>,
    // --- incremental-mode state ---
    /// Maintain the view from [`Daemon::observe_delta`] feeds.
    incremental: bool,
    /// Selection steps served so far (the incremental clock).
    now: u64,
    /// Enabled-set membership, maintained from deltas.
    member: Vec<bool>,
    /// Step at which `p` last became enabled.
    enabled_at: Vec<u64>,
    /// Step at which aging resumes after `p`'s last selection.
    break_at: Vec<u64>,
    /// Step at which aging resumed after the last `Selection::All` step
    /// (everyone enabled was picked — a global age reset in O(1)).
    global_break: u64,
    /// One deadline token per enabled process: `(deadline, p)` pops when
    /// `p` *may* be over-age; stale tokens are revalidated and re-pushed.
    tokens: BinaryHeap<Reverse<(u64, usize)>>,
    /// Token-ownership bitmap backing the one-token-per-process invariant.
    has_token: Vec<bool>,
    /// Scratch: over-age processes of the current step.
    forced: Vec<usize>,
}

impl<D: Daemon> WeaklyFair<D> {
    /// Wrap `inner`, forcing selection after `bound` steps of continuous
    /// enabledness.
    pub fn new(inner: D, bound: usize) -> Self {
        WeaklyFair {
            inner,
            bound,
            age: Vec::new(),
            nonzero: Vec::new(),
            in_picked: Vec::new(),
            in_enabled: Vec::new(),
            incremental: false,
            now: 0,
            member: Vec::new(),
            enabled_at: Vec::new(),
            break_at: Vec::new(),
            global_break: 0,
            tokens: BinaryHeap::new(),
            has_token: Vec::new(),
            forced: Vec::new(),
        }
    }

    /// The wrapped daemon.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Switch to the incremental (delta-fed) bookkeeping described on
    /// [`WeaklyFair`]. Requires a driver that feeds
    /// [`Daemon::observe_delta`] (the engine does when
    /// [`Daemon::wants_view`] is true); selections are identical to the
    /// rescan mode. Switch only before the first step.
    pub fn set_incremental(&mut self, on: bool) {
        self.incremental = on;
    }

    /// Is the incremental view active?
    pub fn incremental(&self) -> bool {
        self.incremental
    }

    fn reserve(&mut self, n: usize) {
        if self.age.len() < n {
            self.age.resize(n, 0);
            self.in_picked.resize(n, false);
            self.in_enabled.resize(n, false);
        }
    }

    fn reserve_inc(&mut self, n: usize) {
        if self.member.len() < n {
            self.member.resize(n, false);
            self.enabled_at.resize(n, 0);
            self.break_at.resize(n, 0);
            self.has_token.resize(n, false);
        }
    }

    fn reset_all_ages(&mut self) {
        for p in self.nonzero.drain(..) {
            self.age[p] = 0;
        }
    }

    /// Rescan-mode selection: the reference implementation the incremental
    /// mode is pinned against.
    fn select_step_rescan(&mut self, enabled: &[usize]) -> Selection {
        if enabled.is_empty() {
            // Everything quiescent: ages reset.
            self.reset_all_ages();
            return Selection::Subset(Vec::new());
        }
        let n = enabled.iter().copied().max().unwrap() + 1;
        self.reserve(n);
        let (mut picked, sorted) = match self.inner.select_step(enabled) {
            Selection::All => {
                // Everyone moves: nothing to force, every age resets.
                self.reset_all_ages();
                return Selection::All;
            }
            Selection::Sorted(v) => (v, true),
            Selection::Subset(v) => (v, false),
        };
        for &p in &picked {
            self.in_picked[p] = true;
        }
        // Force over-age processes in (ascending, like the enabled set).
        let mut any_forced = false;
        for &p in enabled {
            if self.age[p] >= self.bound && !self.in_picked[p] {
                picked.push(p);
                self.in_picked[p] = true;
                any_forced = true;
            }
        }
        // Age bookkeeping: enabled-and-unselected processes age, everything
        // else resets. Only previously-nonzero or currently-enabled entries
        // can change, so the scan is O(|enabled| + |nonzero|).
        for &p in enabled {
            self.in_enabled[p] = true;
        }
        for i in (0..self.nonzero.len()).rev() {
            let p = self.nonzero[i];
            if !self.in_enabled[p] || self.in_picked[p] {
                self.age[p] = 0;
                self.nonzero.swap_remove(i);
            }
        }
        for &p in enabled {
            if !self.in_picked[p] {
                if self.age[p] == 0 {
                    self.nonzero.push(p);
                }
                self.age[p] += 1;
            }
        }
        // Clear scratch for the next step.
        for &p in &picked {
            self.in_picked[p] = false;
        }
        for &p in enabled {
            self.in_enabled[p] = false;
        }
        if sorted {
            if any_forced {
                // Restore the ascending promise: forced processes were
                // appended out of order (rare — only when someone starved
                // for `bound` steps).
                picked.sort_unstable();
            }
            Selection::Sorted(picked)
        } else {
            Selection::Subset(picked)
        }
    }

    /// Incremental-mode selection: same outputs as
    /// [`WeaklyFair::select_step_rescan`], no walk over `enabled`.
    fn select_step_incremental(&mut self, enabled: &[usize]) -> Selection {
        if enabled.is_empty() {
            // Nothing enabled ⇒ every age is trivially reset; membership
            // removals arrived through the deltas already.
            return Selection::Subset(Vec::new());
        }
        let t = self.now;
        let bound = self.bound as u64;
        let (mut picked, sorted) = match self.inner.select_step(enabled) {
            Selection::All => {
                // Everyone enabled was picked: O(1) global age reset.
                self.global_break = t + 1;
                self.now += 1;
                return Selection::All;
            }
            Selection::Sorted(v) => (v, true),
            Selection::Subset(v) => (v, false),
        };
        // Pop due tokens: candidates whose deadline has arrived. A token's
        // deadline may be stale (its process was picked, or a global reset
        // happened, since the push) — revalidate against the *effective*
        // aging start and reschedule if aging restarted.
        self.forced.clear();
        while let Some(&Reverse((deadline, p))) = self.tokens.peek() {
            if deadline > t {
                break;
            }
            self.tokens.pop();
            if !self.member[p] {
                // Disabled: aging broken; the token is re-issued when the
                // enabling delta arrives.
                self.has_token[p] = false;
                continue;
            }
            let eff = self.enabled_at[p]
                .max(self.break_at[p])
                .max(self.global_break);
            if eff + bound > t {
                // Aging restarted since the push: reschedule.
                self.tokens.push(Reverse((eff + bound, p)));
            } else {
                self.forced.push(p);
            }
        }
        let mut any_forced = false;
        if !self.forced.is_empty() {
            // Ascending, like the rescan walk over the enabled slice.
            self.forced.sort_unstable();
            // Membership tests run against the inner daemon's selection
            // only: appended forced entries would break the sort
            // invariant, and the forced list itself is duplicate-free (one
            // token per process).
            let inner_picked = picked.len();
            for i in 0..self.forced.len() {
                let p = self.forced[i];
                let in_picked = if sorted {
                    picked[..inner_picked].binary_search(&p).is_ok()
                } else {
                    picked[..inner_picked].contains(&p)
                };
                if !in_picked {
                    picked.push(p);
                    any_forced = true;
                }
                // Due tokens are consumed; the process is picked either
                // way (forced here or by the inner daemon), so aging
                // restarts at t + 1 — re-issue its token for then.
                self.tokens.push(Reverse((t + 1 + bound, p)));
            }
        }
        // One timestamp store per picked process — the whole per-step age
        // bookkeeping.
        for &p in &picked {
            self.break_at[p] = t + 1;
        }
        self.now += 1;
        if sorted {
            if any_forced {
                picked.sort_unstable();
            }
            Selection::Sorted(picked)
        } else {
            Selection::Subset(picked)
        }
    }
}

impl<D: Daemon> Daemon for WeaklyFair<D> {
    fn select(&mut self, enabled: &[usize]) -> Vec<usize> {
        // Routed through `select_into`: the `Selection::All` arm extends
        // the output buffer directly instead of `enabled.to_vec()`-ing a
        // temporary first, and callers that loop should call `select_into`
        // with a reused buffer and skip this wrapper's allocation too.
        let mut out = Vec::new();
        self.select_into(enabled, &mut out);
        out
    }

    fn select_step(&mut self, enabled: &[usize]) -> Selection {
        if self.incremental {
            self.select_step_incremental(enabled)
        } else {
            self.select_step_rescan(enabled)
        }
    }

    fn wants_view(&self) -> bool {
        self.incremental || self.inner.wants_view()
    }

    fn observe_delta(&mut self, added: &[usize], removed: &[usize]) {
        if self.incremental {
            if let Some(&max) = added.iter().chain(removed.iter()).max() {
                self.reserve_inc(max + 1);
            }
            for &p in added {
                if !self.member[p] {
                    self.member[p] = true;
                    self.enabled_at[p] = self.now;
                    if !self.has_token[p] {
                        self.has_token[p] = true;
                        self.tokens.push(Reverse((self.now + self.bound as u64, p)));
                    }
                }
            }
            for &p in removed {
                self.member[p] = false;
            }
        }
        self.inner.observe_delta(added, removed);
    }

    fn set_incremental_view(&mut self, on: bool) {
        self.set_incremental(on);
        self.inner.set_incremental_view(on);
    }

    fn save_state(&self, out: &mut Vec<u8>) -> bool {
        write_wf_wrapper(self, out)
    }
}

/// A scripted (adversarial) daemon: replays a fixed schedule of selections,
/// intersected with the actual enabled set. Used by the impossibility
/// experiment (Theorem 1) and the Figure 3 walkthrough. When the script is
/// exhausted, or a scripted selection is entirely disabled, falls back to
/// selecting all enabled processes.
#[derive(Debug)]
pub struct Scripted {
    script: std::collections::VecDeque<Vec<usize>>,
}

impl Scripted {
    /// A daemon that replays `script` (one selection per step).
    pub fn new<I: IntoIterator<Item = Vec<usize>>>(script: I) -> Self {
        Scripted {
            script: script.into_iter().collect(),
        }
    }

    /// Remaining scripted steps.
    pub fn remaining(&self) -> usize {
        self.script.len()
    }
}

impl Daemon for Scripted {
    fn select(&mut self, enabled: &[usize]) -> Vec<usize> {
        if enabled.is_empty() {
            return Vec::new();
        }
        if let Some(want) = self.script.pop_front() {
            let picked: Vec<usize> = want.into_iter().filter(|p| enabled.contains(p)).collect();
            if !picked.is_empty() {
                return picked;
            }
        }
        enabled.to_vec()
    }

    fn save_state(&self, out: &mut Vec<u8>) -> bool {
        crate::wire::put_u8(out, TAG_SCRIPTED);
        crate::wire::put_usize(out, self.script.len());
        for sel in &self.script {
            crate::wire::put_usize_slice(out, sel);
        }
        true
    }
}

/// Round-robin central daemon: deterministically activates the enabled
/// process with the smallest index not served most recently. Useful for
/// exhaustive small-model checks where randomness is unwanted.
#[derive(Debug, Default)]
pub struct RoundRobin {
    last: usize,
}

impl Daemon for RoundRobin {
    fn select(&mut self, enabled: &[usize]) -> Vec<usize> {
        match self.select_step(enabled) {
            Selection::Sorted(v) | Selection::Subset(v) => v,
            Selection::All => unreachable!("RoundRobin never selects everything"),
        }
    }

    fn select_step(&mut self, enabled: &[usize]) -> Selection {
        if enabled.is_empty() {
            return Selection::Sorted(Vec::new());
        }
        // First enabled index strictly after `last`, wrapping — `enabled`
        // is ascending, so this is a binary search, not a linear scan.
        let next = match enabled.binary_search(&(self.last + 1)) {
            Ok(i) => enabled[i],
            Err(i) if i < enabled.len() => enabled[i],
            Err(_) => enabled[0],
        };
        self.last = next;
        Selection::Sorted(vec![next])
    }

    fn save_state(&self, out: &mut Vec<u8>) -> bool {
        crate::wire::put_u8(out, TAG_ROUND_ROBIN);
        crate::wire::put_usize(out, self.last);
        true
    }
}

// --- Persistence -------------------------------------------------------
//
// Closed-world daemon serialization: each shipped daemon writes a tag byte
// plus its full state, and `restore_daemon` rebuilds the matching concrete
// type behind a fresh `Box<dyn Daemon>`. `WeaklyFair<D>` recursively saves
// its inner daemon's bytes and restore re-monomorphizes from the inner tag
// (one wrapper level deep — a `WeaklyFair<WeaklyFair<_>>` is not
// persistable, and nothing in the workspace builds one).

const TAG_SYNCHRONOUS: u8 = 1;
const TAG_CENTRAL: u8 = 2;
const TAG_DISTRIBUTED: u8 = 3;
const TAG_ROUND_ROBIN: u8 = 4;
const TAG_SCRIPTED: u8 = 5;
const TAG_WEAKLY_FAIR: u8 = 6;

fn put_rng(out: &mut Vec<u8>, rng: &StdRng) {
    for w in rng.state() {
        crate::wire::put_u64(out, w);
    }
}

fn read_rng(r: &mut crate::wire::Reader) -> Option<StdRng> {
    let mut s = [0u64; 4];
    for w in &mut s {
        *w = r.u64()?;
    }
    Some(StdRng::from_state(s))
}

/// Shared shape of a serialized [`WeaklyFair`] wrapper, independent of the
/// inner daemon's type.
struct WfState {
    bound: usize,
    ages: Vec<(usize, usize)>,
    incremental: bool,
    now: u64,
    global_break: u64,
    member: Vec<bool>,
    enabled_at: Vec<u64>,
    break_at: Vec<u64>,
    has_token: Vec<bool>,
    tokens: Vec<(u64, usize)>,
}

impl WfState {
    /// Read the state of a wrapper over `processes` processes: every
    /// process index below it, since the rescan ages are a dense vector
    /// sized by the largest.
    fn read(r: &mut crate::wire::Reader, processes: usize) -> Option<Self> {
        let bound = r.usize()?;
        let n_ages = r.count(16)?;
        let ages = (0..n_ages)
            .map(|_| Some((r.usize().filter(|&p| p < processes)?, r.usize()?)))
            .collect::<Option<Vec<_>>>()?;
        let incremental = r.bool()?;
        let now = r.u64()?;
        let global_break = r.u64()?;
        let member = r.bool_vec()?;
        let enabled_at = r.u64_vec()?;
        let break_at = r.u64_vec()?;
        let has_token = r.bool_vec()?;
        if enabled_at.len() != member.len()
            || break_at.len() != member.len()
            || has_token.len() != member.len()
        {
            return None;
        }
        let n_tokens = r.count(16)?;
        let tokens = (0..n_tokens)
            .map(|_| Some((r.u64()?, r.usize().filter(|&p| p < processes)?)))
            .collect::<Option<Vec<_>>>()?;
        Some(WfState {
            bound,
            ages,
            incremental,
            now,
            global_break,
            member,
            enabled_at,
            break_at,
            has_token,
            tokens,
        })
    }

    fn rebuild<D: Daemon>(self, inner: D) -> WeaklyFair<D> {
        let mut wf = WeaklyFair::new(inner, self.bound);
        if let Some(n) = self.ages.iter().map(|&(p, _)| p + 1).max() {
            wf.reserve(n);
        }
        for (p, a) in self.ages {
            wf.age[p] = a;
            wf.nonzero.push(p);
        }
        wf.incremental = self.incremental;
        wf.now = self.now;
        wf.global_break = self.global_break;
        wf.member = self.member;
        wf.enabled_at = self.enabled_at;
        wf.break_at = self.break_at;
        wf.has_token = self.has_token;
        wf.tokens = self.tokens.into_iter().map(Reverse).collect();
        wf
    }
}

/// Write the complete state of a supported daemon and answer whether it
/// succeeded — the shared body behind each concrete `save_state` override.
fn write_wf_wrapper<D: Daemon>(wf: &WeaklyFair<D>, out: &mut Vec<u8>) -> bool {
    use crate::wire::{
        put_bool, put_bool_slice, put_bytes, put_u64, put_u64_slice, put_u8, put_usize,
    };
    let mut inner = Vec::new();
    if !wf.inner.save_state(&mut inner) {
        return false;
    }
    put_u8(out, TAG_WEAKLY_FAIR);
    put_usize(out, wf.bound);
    // Rescan-mode ages, sparse: only nonzero entries exist. Sorted by
    // process so the encoding is a pure function of the logical state (the
    // nonzero list's order is unobservable).
    let mut ages: Vec<(usize, usize)> = wf.nonzero.iter().map(|&p| (p, wf.age[p])).collect();
    ages.sort_unstable();
    put_usize(out, ages.len());
    for (p, a) in ages {
        put_usize(out, p);
        put_usize(out, a);
    }
    // Incremental-mode bookkeeping. Per-step scratch (`in_picked`,
    // `in_enabled`, `forced`) is empty at step boundaries and skipped.
    put_bool(out, wf.incremental);
    put_u64(out, wf.now);
    put_u64(out, wf.global_break);
    put_bool_slice(out, &wf.member);
    put_u64_slice(out, &wf.enabled_at);
    put_u64_slice(out, &wf.break_at);
    put_bool_slice(out, &wf.has_token);
    // The deadline queue as a sorted multiset: heap-internal layout is
    // irrelevant (pops are fully ordered by `(deadline, p)`).
    let mut tokens: Vec<(u64, usize)> = wf.tokens.iter().map(|&Reverse(t)| t).collect();
    tokens.sort_unstable();
    put_usize(out, tokens.len());
    for (deadline, p) in tokens {
        put_u64(out, deadline);
        put_usize(out, p);
    }
    put_bytes(out, &inner);
    true
}

/// Rebuild a daemon serialized by [`Daemon::save_state`]. Closed world:
/// only the daemons shipped by this module restore (a custom daemon that
/// overrides `save_state` cannot be rebuilt here and checkpointing should
/// keep returning `false` for it). `None` on truncated, corrupted, or
/// unknown-tag input, or on one naming a process at or beyond `processes`
/// where the daemon sizes state by it.
pub fn restore_daemon(bytes: &[u8], processes: usize) -> Option<Box<dyn Daemon>> {
    let mut r = crate::wire::Reader::new(bytes);
    let d = read_daemon(&mut r, processes)?;
    r.is_empty().then_some(d)
}

fn read_daemon(r: &mut crate::wire::Reader, processes: usize) -> Option<Box<dyn Daemon>> {
    match r.u8()? {
        TAG_SYNCHRONOUS => Some(Box::new(Synchronous)),
        TAG_CENTRAL => Some(Box::new(Central { rng: read_rng(r)? })),
        TAG_DISTRIBUTED => {
            let rng = read_rng(r)?;
            let p = f64::from_bits(r.u64()?);
            (p > 0.0 && p <= 1.0).then(|| Box::new(DistributedRandom { rng, p }) as _)
        }
        TAG_ROUND_ROBIN => Some(Box::new(RoundRobin { last: r.usize()? })),
        TAG_SCRIPTED => {
            let n = r.count(8)?;
            let script = (0..n).map(|_| r.usize_vec()).collect::<Option<Vec<_>>>()?;
            Some(Box::new(Scripted::new(script)))
        }
        TAG_WEAKLY_FAIR => {
            let st = WfState::read(r, processes)?;
            let mut inner = crate::wire::Reader::new(r.bytes()?);
            let d: Box<dyn Daemon> = match inner.u8()? {
                TAG_SYNCHRONOUS => Box::new(st.rebuild(Synchronous)),
                TAG_CENTRAL => Box::new(st.rebuild(Central {
                    rng: read_rng(&mut inner)?,
                })),
                TAG_DISTRIBUTED => {
                    let rng = read_rng(&mut inner)?;
                    let p = f64::from_bits(inner.u64()?);
                    if !(p > 0.0 && p <= 1.0) {
                        return None;
                    }
                    Box::new(st.rebuild(DistributedRandom { rng, p }))
                }
                TAG_ROUND_ROBIN => Box::new(st.rebuild(RoundRobin {
                    last: inner.usize()?,
                })),
                _ => return None,
            };
            inner.is_empty().then_some(d)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synchronous_selects_all() {
        let mut d = Synchronous;
        assert_eq!(d.select(&[1, 3, 5]), vec![1, 3, 5]);
        assert!(d.select(&[]).is_empty());
    }

    #[test]
    fn central_selects_one() {
        let mut d = Central::new(1);
        for _ in 0..50 {
            let s = d.select(&[2, 4, 6]);
            assert_eq!(s.len(), 1);
            assert!([2, 4, 6].contains(&s[0]));
        }
    }

    #[test]
    fn central_is_deterministic_per_seed() {
        let run = |seed| {
            let mut d = Central::new(seed);
            (0..20)
                .map(|_| d.select(&[0, 1, 2, 3])[0])
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn distributed_random_nonempty() {
        let mut d = DistributedRandom::new(3, 0.01);
        for _ in 0..100 {
            assert!(!d.select(&[0, 1]).is_empty());
        }
    }

    #[test]
    fn distributed_random_promises_sorted() {
        let mut d = DistributedRandom::new(7, 0.5);
        for _ in 0..50 {
            match d.select_step(&[1, 4, 6, 9]) {
                Selection::Sorted(v) => {
                    assert!(v.windows(2).all(|w| w[0] < w[1]), "{v:?}");
                    assert!(v.iter().all(|p| [1, 4, 6, 9].contains(p)));
                }
                other => panic!("expected Sorted, got {other:?}"),
            }
        }
    }

    #[test]
    fn weakly_fair_forces_starved_process() {
        // Inner daemon that always picks process 0 only.
        struct Biased;
        impl Daemon for Biased {
            fn select(&mut self, enabled: &[usize]) -> Vec<usize> {
                vec![enabled[0]]
            }
        }
        let mut d = WeaklyFair::new(Biased, 3);
        let enabled = vec![0, 9];
        let mut steps_until_9 = None;
        for i in 0..10 {
            if d.select(&enabled).contains(&9) {
                steps_until_9 = Some(i);
                break;
            }
        }
        assert_eq!(steps_until_9, Some(3), "forced in after `bound` steps");
    }

    #[test]
    fn weakly_fair_resets_on_selection() {
        struct Biased;
        impl Daemon for Biased {
            fn select(&mut self, enabled: &[usize]) -> Vec<usize> {
                vec![enabled[0]]
            }
        }
        let mut d = WeaklyFair::new(Biased, 2);
        // 9 disabled at step 2: its age must reset.
        assert_eq!(d.select(&[0, 9]), vec![0]); // age(9)=1
        assert_eq!(d.select(&[0, 9]), vec![0]); // age(9)=2
        assert_eq!(d.select(&[0]), vec![0]); // 9 disabled -> reset
        assert_eq!(d.select(&[0, 9]), vec![0]); // age(9)=1 again, not forced
    }

    #[test]
    fn weakly_fair_incremental_forces_starved_process() {
        // The incremental twin of `weakly_fair_forces_starved_process`,
        // driven by hand-fed deltas.
        struct Biased;
        impl Daemon for Biased {
            fn select(&mut self, enabled: &[usize]) -> Vec<usize> {
                vec![enabled[0]]
            }
        }
        let mut d = WeaklyFair::new(Biased, 3);
        d.set_incremental(true);
        assert!(d.wants_view());
        let enabled = vec![0, 9];
        d.observe_delta(&enabled, &[]);
        let mut steps_until_9 = None;
        for i in 0..10 {
            d.observe_delta(&[], &[]);
            if d.select(&enabled).contains(&9) {
                steps_until_9 = Some(i);
                break;
            }
        }
        assert_eq!(steps_until_9, Some(3), "forced in after `bound` steps");
    }

    #[test]
    fn weakly_fair_incremental_resets_on_disable() {
        struct Biased;
        impl Daemon for Biased {
            fn select(&mut self, enabled: &[usize]) -> Vec<usize> {
                vec![enabled[0]]
            }
        }
        let mut d = WeaklyFair::new(Biased, 2);
        d.set_incremental(true);
        d.observe_delta(&[0, 9], &[]);
        assert_eq!(d.select(&[0, 9]), vec![0]); // age(9)=1
        d.observe_delta(&[], &[]);
        assert_eq!(d.select(&[0, 9]), vec![0]); // age(9)=2
        d.observe_delta(&[], &[9]); // 9 disabled -> reset
        assert_eq!(d.select(&[0]), vec![0]);
        d.observe_delta(&[9], &[]); // re-enabled: ages from scratch
        assert_eq!(d.select(&[0, 9]), vec![0]); // age(9)=1 again, not forced
    }

    #[test]
    fn scripted_follows_script_then_falls_back() {
        let mut d = Scripted::new([vec![5], vec![1, 2]]);
        assert_eq!(d.select(&[1, 5]), vec![5]);
        assert_eq!(d.select(&[1, 2, 3]), vec![1, 2]);
        assert_eq!(d.select(&[3]), vec![3], "script exhausted: select all");
    }

    #[test]
    fn scripted_skips_disabled_selection() {
        let mut d = Scripted::new([vec![7]]);
        // 7 is not enabled: fall back to all enabled.
        assert_eq!(d.select(&[1, 2]), vec![1, 2]);
    }

    #[test]
    fn round_robin_cycles() {
        let mut d = RoundRobin::default();
        assert_eq!(d.select(&[1, 2, 3]), vec![1]); // first index > last=0
        assert_eq!(d.select(&[1, 2, 3]), vec![2]);
        assert_eq!(d.select(&[1, 2, 3]), vec![3]);
        assert_eq!(d.select(&[1, 2, 3]), vec![1]); // wraps
    }

    #[test]
    fn round_robin_skips_gaps() {
        let mut d = RoundRobin::default();
        assert_eq!(d.select(&[0, 5, 9]), vec![5], "first index > 0... is 5");
        assert_eq!(d.select(&[0, 5, 9]), vec![9]);
        assert_eq!(d.select(&[0, 5, 9]), vec![0], "wraps past the max");
    }

    /// Drive a daemon mid-stream, save it, and check the restored daemon
    /// continues the *exact* selection stream the original would have.
    fn assert_save_restore_continues(mut d: Box<dyn Daemon>, label: &str) {
        let enabled: Vec<usize> = (0..12).collect();
        for _ in 0..10 {
            d.select(&enabled);
        }
        let mut bytes = Vec::new();
        assert!(d.save_state(&mut bytes), "{label}: must be persistable");
        let mut twin = restore_daemon(&bytes, 12).unwrap_or_else(|| panic!("{label}: restore"));
        for step in 0..25 {
            assert_eq!(
                d.select(&enabled),
                twin.select(&enabled),
                "{label}: selections diverge at post-restore step {step}"
            );
        }
    }

    #[test]
    fn save_restore_continues_selection_stream() {
        assert_save_restore_continues(Box::new(Synchronous), "synchronous");
        assert_save_restore_continues(Box::new(Central::new(7)), "central");
        assert_save_restore_continues(Box::new(DistributedRandom::new(3, 0.4)), "distributed");
        assert_save_restore_continues(Box::new(RoundRobin::default()), "round-robin");
        assert_save_restore_continues(
            Box::new(Scripted::new((0..20).map(|i| vec![i % 12, (i + 3) % 12]))),
            "scripted",
        );
        assert_save_restore_continues(
            Box::new(WeaklyFair::new(DistributedRandom::new(11, 0.2), 4)),
            "weakly-fair(distributed)",
        );
        assert_save_restore_continues(
            Box::new(WeaklyFair::new(Central::new(5), 2)),
            "weakly-fair(central)",
        );
    }

    #[test]
    fn save_restore_incremental_weakly_fair() {
        // The incremental (delta-fed) mode carries the deadline queue and
        // timestamps across the checkpoint.
        let enabled: Vec<usize> = (0..8).collect();
        let mut d = WeaklyFair::new(Central::new(9), 3);
        d.set_incremental(true);
        d.observe_delta(&enabled, &[]);
        for _ in 0..7 {
            d.select(&enabled);
        }
        let mut bytes = Vec::new();
        assert!(d.save_state(&mut bytes));
        let mut twin = restore_daemon(&bytes, 8).unwrap();
        assert!(twin.wants_view(), "incremental flag survives");
        for step in 0..20 {
            d.observe_delta(&[], &[]);
            twin.observe_delta(&[], &[]);
            assert_eq!(d.select(&enabled), twin.select(&enabled), "step {step}");
        }
    }

    #[test]
    fn restore_rejects_garbage() {
        assert!(restore_daemon(&[], 4).is_none(), "empty");
        assert!(restore_daemon(&[0xff], 4).is_none(), "unknown tag");
        let mut bytes = Vec::new();
        assert!(Central::new(1).save_state(&mut bytes));
        assert!(
            restore_daemon(&bytes[..bytes.len() - 1], 4).is_none(),
            "truncated"
        );
        bytes.push(0);
        assert!(restore_daemon(&bytes, 4).is_none(), "trailing bytes");
        // A weakly-fair wrapper aging process 5 belongs to a larger world.
        let mut wf = WeaklyFair::new(Central::new(1), 2);
        wf.select(&[5]);
        wf.select(&[5, 6]);
        let mut bytes = Vec::new();
        assert!(wf.save_state(&mut bytes));
        assert!(restore_daemon(&bytes, 8).is_some());
        assert!(restore_daemon(&bytes, 5).is_none(), "process 5 of 5");
    }

    #[test]
    fn custom_daemons_are_not_persistable_by_default() {
        struct Custom;
        impl Daemon for Custom {
            fn select(&mut self, enabled: &[usize]) -> Vec<usize> {
                enabled.to_vec()
            }
        }
        let mut out = vec![1, 2, 3];
        assert!(!Custom.save_state(&mut out));
        assert_eq!(out, vec![1, 2, 3], "default leaves the buffer untouched");
    }
}
