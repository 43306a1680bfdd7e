//! The guarded-action local algorithm abstraction (paper §2.2).
//!
//! A local algorithm is a finite **ordered** list of guarded actions
//! `label :: guard -> statement`. The order encodes priority: *action A has
//! higher priority than action B iff A appears after B in the code* — so the
//! *last* enabled action in code order is the one a selected process
//! executes. Guards may read the process's own state and its neighbors'
//! states (plus external inputs); statements write only the process's own
//! state.

use crate::ctx::{Ctx, StateAccess};
use sscc_hypergraph::Hypergraph;

/// Index of an action within an algorithm's code-ordered action list.
/// Higher indices mean higher priority (paper §2.2).
pub type ActionId = usize;

/// A process state: cloneable, comparable (for termination/quiescence
/// detection and trace diffing) and printable.
pub trait ProcessState: Clone + PartialEq + std::fmt::Debug {}
impl<T: Clone + PartialEq + std::fmt::Debug> ProcessState for T {}

/// A distributed algorithm in the locally shared memory model.
///
/// One value of the implementing type describes the algorithm for the whole
/// system (all processes run the same code, §2.2); per-process distinctions
/// (identifier, incident committees, tour positions, …) are read from the
/// topology through the [`Ctx`].
pub trait GuardedAlgorithm {
    /// Per-process state (the process's locally shared variables).
    type State: ProcessState;

    /// External input provider (e.g. the `RequestIn`/`RequestOut` predicates
    /// of the committee coordination problem). Use `()` for closed
    /// algorithms. The environment is read-only during a step.
    type Env: ?Sized;

    /// Number of actions in the code-ordered list.
    fn action_count(&self) -> usize;

    /// Human-readable label of action `a` (for traces and debugging).
    fn action_name(&self, a: ActionId) -> String;

    /// The designated fault-free initial state of process `me` (all our
    /// algorithms also stabilize from arbitrary states; this is merely the
    /// "clean boot" state used by non-stabilization experiments).
    fn initial_state(&self, h: &Hypergraph, me: usize) -> Self::State;

    /// The **priority enabled action** of the process in the given context:
    /// the enabled action appearing *latest* in code order, or `None` if the
    /// process is disabled.
    ///
    /// Generic over the accessor `A` so the engine's hot path (where
    /// `A = [Self::State]`) monomorphizes: neighbor reads inline to slice
    /// indexing with zero virtual dispatch. Implementations just write
    /// `fn priority_action<A: StateAccess<Self::State> + ?Sized>(...)` and
    /// read states through the [`Ctx`] as before.
    fn priority_action<A: StateAccess<Self::State> + ?Sized>(
        &self,
        ctx: &Ctx<'_, Self::State, Self::Env, A>,
    ) -> Option<ActionId>;

    /// Execute action `a` (whose guard the caller evaluated as true in this
    /// exact context) and return the process's next state. Statements are
    /// atomic with the guard evaluation: the whole step reads the pre-step
    /// configuration (composite atomicity).
    fn execute<A: StateAccess<Self::State> + ?Sized>(
        &self,
        ctx: &Ctx<'_, Self::State, Self::Env, A>,
        a: ActionId,
    ) -> Self::State;

    /// **Dependency footprint**: the processes whose priority guard may
    /// change enabledness when the *state* of `p` changes, ascending.
    ///
    /// The incremental scheduler re-evaluates this set after `p`'s state
    /// changes (unless [`note_write`](GuardedAlgorithm::note_write) names
    /// a tighter one), instead of scanning all `n` guards. The default — the
    /// closed hyperedge neighborhood `N[p]` — is correct for every
    /// algorithm expressible in the locally shared memory model, because
    /// guards may only read the closed neighborhood of their own process
    /// (§2.2, enforced by [`Ctx`]). Override only to declare a *tighter*
    /// footprint; returning a superset is always safe, a subset is not.
    fn state_footprint<'h>(&self, h: &'h Hypergraph, p: usize) -> &'h [usize] {
        h.closed_neighborhood(p)
    }

    /// The processes whose priority guard may change enabledness when the
    /// *environment inputs* of `p` change (e.g. `p`'s request flags).
    ///
    /// Default: `p` alone — external inputs are per-process in the model
    /// (`RequestIn(p)` is read only by `p` itself). Override with a wider
    /// set if an algorithm's guards read neighbors' environment inputs.
    fn env_footprint<'h>(&self, h: &'h Hypergraph, p: usize) -> &'h [usize] {
        h.singleton(p)
    }

    // --- Commit notes (value-level invalidation) ------------------------
    //
    // Guards read only small *projections* of neighbor state (a committee
    // predicate, a token variable, …). The four hooks below let an
    // algorithm keep derived **commit notes** about those projections (e.g.
    // per-committee fact bits) and tell the engine, after each committed
    // write, exactly which other guards read something that changed —
    // instead of re-enqueueing the whole topological neighborhood. The
    // engine keeps the notes in sync with the configuration
    // (`init` → `note_write`* → `flush_writes` per step) or tells the
    // algorithm it stopped doing so (`drop`). All defaults preserve the
    // conservative topological behavior exactly.

    /// Rebuild the commit notes from a full committed configuration. The
    /// engine calls this before the first guard evaluation and after any
    /// wholesale invalidation; from here until
    /// [`drop_commit_notes`](GuardedAlgorithm::drop_commit_notes) every
    /// write reaches the algorithm through
    /// [`note_write`](GuardedAlgorithm::note_write), so guard evaluation
    /// may read the notes instead of re-deriving them. The default keeps no
    /// notes.
    fn init_commit_notes(&mut self, h: &Hypergraph, states: &[Self::State]) {
        let _ = (h, states);
    }

    /// The engine stops keeping the notes in sync (wholesale overwrite,
    /// reconfiguration, full-scan mode, a mutation the algorithm could not
    /// repair): guard evaluation must derive everything from the states it
    /// is handed until the next
    /// [`init_commit_notes`](GuardedAlgorithm::init_commit_notes).
    fn drop_commit_notes(&mut self) {}

    /// One committed write while the notes are in sync: `states[p]` holds
    /// the new value and `old` the (different) one it replaced. Other
    /// writes of the same step may or may not have landed yet. Update the
    /// notes by the old→new delta and `mark` every **other** process whose
    /// guard reads a part of `p`'s state that changed and that can be named
    /// from this write alone; readers that depend on the step's *net*
    /// effect on the notes are marked in
    /// [`flush_writes`](GuardedAlgorithm::flush_writes). The engine
    /// re-enqueues `p` itself. Marking a superset is always safe, a subset
    /// is not; the default marks the whole
    /// [`state_footprint`](GuardedAlgorithm::state_footprint).
    fn note_write(
        &mut self,
        h: &Hypergraph,
        states: &[Self::State],
        p: usize,
        old: &Self::State,
        mut mark: impl FnMut(usize),
    ) {
        let _ = (states, old);
        for &q in self.state_footprint(h, p) {
            mark(q);
        }
    }

    /// Every write of the step (or of one state surgery) has landed and
    /// been [`note_write`](GuardedAlgorithm::note_write)n: `mark` the
    /// readers of whatever net-changed in the notes. The default has no
    /// notes and marks nothing.
    fn flush_writes(&mut self, h: &Hypergraph, states: &[Self::State], mark: impl FnMut(usize)) {
        let _ = (h, states, mark);
    }

    /// Repair algorithm-held structures and per-process states after a
    /// topology mutation (`h` is the *post-mutation* graph; `delta`
    /// describes the edit). Implementations should
    ///
    /// 1. rebuild any topology-derived substrate (spanning trees, tours),
    /// 2. sanitize states referencing committee ids through
    ///    [`MutationDelta::remap_edge`](sscc_hypergraph::MutationDelta::remap_edge)
    ///    (a dissolved committee repairs to "no pointer" — churn debris is
    ///    absorbed exactly like transient-fault debris), and
    /// 3. repair any commit-note mirror per-edge via
    ///    [`MutationDelta::remap_per_edge`](sscc_hypergraph::MutationDelta::remap_per_edge),
    ///    returning `true` iff the notes are again in sync.
    ///
    /// Returning `false` (the default — no notes, or not repaired) makes
    /// the engine fall back on the `notes_stale` lifecycle: the notes are
    /// dropped and rebuilt from scratch at the next refresh. Either way
    /// the engine re-marks every guard dirty, because substrate rebuilds
    /// (a new tour) change guard inputs globally.
    fn repair_after_mutation(
        &mut self,
        h: &Hypergraph,
        delta: &sscc_hypergraph::MutationDelta,
        states: &mut [Self::State],
    ) -> bool {
        let _ = (h, delta, states);
        false
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! A tiny well-understood algorithm used by runtime unit tests:
    //! "max-propagation" — every process holds a number and copies the
    //! maximum of its neighborhood when strictly larger. Terminates with
    //! all values equal to the global maximum.

    use super::*;

    pub struct MaxProp;

    impl GuardedAlgorithm for MaxProp {
        type State = u32;
        type Env = ();

        fn action_count(&self) -> usize {
            1
        }

        fn action_name(&self, a: ActionId) -> String {
            assert_eq!(a, 0);
            "adopt-max".to_string()
        }

        fn initial_state(&self, h: &Hypergraph, me: usize) -> u32 {
            h.id(me).value()
        }

        fn priority_action<A: StateAccess<u32> + ?Sized>(
            &self,
            ctx: &Ctx<'_, u32, (), A>,
        ) -> Option<ActionId> {
            let best = ctx.neighbor_states().map(|(_, s)| *s).max().unwrap_or(0);
            (best > *ctx.my_state()).then_some(0)
        }

        fn execute<A: StateAccess<u32> + ?Sized>(
            &self,
            ctx: &Ctx<'_, u32, (), A>,
            a: ActionId,
        ) -> u32 {
            assert_eq!(a, 0);
            ctx.neighbor_states()
                .map(|(_, s)| *s)
                .max()
                .expect("guard implies a larger neighbor")
        }
    }
}
