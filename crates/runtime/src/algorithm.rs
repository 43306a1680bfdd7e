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
///
/// The trait (and its state/environment) is `Sync`: guard evaluation is a
/// pure read of the frozen pre-step configuration, so the engine's parallel
/// dirty-set drain may evaluate disjoint shards concurrently, each worker
/// reading the shared algorithm/states/environment and writing only its own
/// result slots.
pub trait GuardedAlgorithm: Sync {
    /// Per-process state (the process's locally shared variables).
    ///
    /// `Sync` lets the parallel drain's workers read the frozen
    /// configuration concurrently; `Send` lets a world move to another
    /// thread. Every state in this workspace is small plain data, so both
    /// hold for free.
    type State: ProcessState + Sync + Send;

    /// External input provider (e.g. the `RequestIn`/`RequestOut` predicates
    /// of the committee coordination problem). Use `()` for closed
    /// algorithms. The environment is read-only during a step.
    type Env: ?Sized + Sync;

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
    /// The incremental scheduler re-evaluates exactly this set after `p`
    /// executes, instead of scanning all `n` guards. The default — the
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

    // --- Read-set descriptor (value-level invalidation) -----------------
    //
    // Guards read only small *projections* of neighbor state (a committee
    // view, a token variable, …). The three hooks below let an algorithm
    // declare those projections so the engine, under
    // `EvalPath::ValueLevel`, can diff committed old/new states per
    // projection and re-enqueue only the processes whose actual read set
    // changed — instead of the whole topological neighborhood. All
    // defaults preserve the conservative topological behavior exactly.

    /// **Read-set diff**: a bitmask with bit `i` set iff projection `i` of
    /// the state — the slice of `p`'s state that *other* processes' guards
    /// may read — differs between `old` and `new`.
    ///
    /// Fields read only by the process itself (cursors, turn bits) need no
    /// projection: the engine always re-enqueues the process whose own
    /// state changed. The default declares a single projection 0 covering
    /// the whole state, which makes value-level invalidation degenerate to
    /// the topological footprint for algorithms that do not override it.
    fn changed_projections(&self, old: &Self::State, new: &Self::State) -> u8 {
        u8::from(old != new)
    }

    /// The processes whose priority guard reads projection `proj` of `p`'s
    /// state, ascending. Must be a subset of
    /// [`state_footprint`](GuardedAlgorithm::state_footprint); the default
    /// returns that footprint unchanged (safe for every projection).
    fn projection_footprint<'h>(&self, h: &'h Hypergraph, p: usize, proj: u32) -> &'h [usize] {
        let _ = proj;
        self.state_footprint(h, p)
    }

    /// Rebuild any derived *commit notes* (e.g. a bitset mirror of shared
    /// committee predicates) from a full committed configuration. The
    /// engine calls this under `EvalPath::ValueLevel` before the first
    /// guard evaluation and after any wholesale state overwrite; the
    /// default keeps no notes.
    fn init_commit_notes(&mut self, h: &Hypergraph, states: &[Self::State]) {
        let _ = (h, states);
    }

    /// Incrementally refresh commit notes after a step commits. Called
    /// once per step, after **all** writes landed, with the fully
    /// committed configuration and the list of `(process, changed
    /// projection mask)` pairs produced by
    /// [`changed_projections`](GuardedAlgorithm::changed_projections).
    fn refresh_commit_notes(
        &mut self,
        h: &Hypergraph,
        states: &[Self::State],
        changed: &[(usize, u8)],
    ) {
        let _ = (h, states, changed);
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
    /// the engine fall back on the `notes_stale` lifecycle: the mirror is
    /// rebuilt from scratch at the next value-level refresh. Either way
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
