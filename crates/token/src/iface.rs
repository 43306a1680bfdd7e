//! The token-circulation interface (paper Property 1).
//!
//! Both committee coordination algorithms treat the token module `TC` as a
//! black box exposing exactly two things to the upper layer: the predicate
//! `Token(p)` and the statement `ReleaseToken_p`. Property 1 is the
//! behavioral contract:
//!
//! 1. `TC` contains one action `T :: Token(p) -> ReleaseToken_p` to pass the
//!    token from neighbor to neighbor;
//! 2. once stabilized, every process executes `T` infinitely often, but when
//!    `T` is enabled at a process it is enabled at no other process;
//! 3. `TC` stabilizes independently of the activations of `T`.
//!
//! In the composition `CC ∘ TC` the action `T` is *emulated* by the
//! committee layer (Remark 1): `CC` decides when to call
//! [`TokenLayer::release`], while any remaining internal stabilization
//! actions of `TC` keep running under fair composition.

use sscc_hypergraph::Hypergraph;
use sscc_runtime::prelude::{ActionId, ArbitraryState, Ctx, ProcessState, StateAccess};

/// A self-stabilizing token-circulation substrate, as consumed by `CC ∘ TC`.
pub trait TokenLayer {
    /// Per-process token-substrate state.
    type State: ProcessState + ArbitraryState;

    /// The designated stabilized initial state of process `me` (a unique
    /// token already in place). Fault-free boots start here; stabilization
    /// experiments overwrite it with arbitrary values.
    fn initial_state(&self, h: &Hypergraph, me: usize) -> Self::State;

    /// The `Token(p)` predicate: does the process currently hold a token?
    /// May read the process's own substrate state and its neighbors'.
    ///
    /// Generic over the accessor `A` (like every guard-evaluation entry
    /// point) so the composed hot path stays monomorphic.
    fn token<E: ?Sized, A: StateAccess<Self::State> + ?Sized>(
        &self,
        ctx: &Ctx<'_, Self::State, E, A>,
    ) -> bool;

    /// The `ReleaseToken_p` statement: pass the token along; returns the
    /// process's next substrate state. Callers only invoke it when
    /// [`TokenLayer::token`] holds; implementations may treat a release
    /// without a token as the identity.
    fn release<E: ?Sized, A: StateAccess<Self::State> + ?Sized>(
        &self,
        ctx: &Ctx<'_, Self::State, E, A>,
    ) -> Self::State;

    /// Number of *internal* (non-`T`) stabilization actions.
    fn internal_action_count(&self) -> usize;

    /// Name of internal action `a`.
    fn internal_action_name(&self, a: ActionId) -> String;

    /// Highest-priority enabled internal action, if any (Property 1.3:
    /// these run regardless of `T` activations).
    fn internal_priority_action<E: ?Sized, A: StateAccess<Self::State> + ?Sized>(
        &self,
        ctx: &Ctx<'_, Self::State, E, A>,
    ) -> Option<ActionId>;

    /// Execute internal action `a`.
    fn execute_internal<E: ?Sized, A: StateAccess<Self::State> + ?Sized>(
        &self,
        ctx: &Ctx<'_, Self::State, E, A>,
        a: ActionId,
    ) -> Self::State;

    /// Rebuild topology-derived substrate structure (spanning trees, Euler
    /// tours) after a mutation of `h`. The process set is fixed across
    /// mutations, so per-process substrate *states* keep their shape; any
    /// that no longer fit the new tour (out-of-range slots, mis-sized
    /// counter vectors) are transient-fault debris the substrate's own
    /// stabilization absorbs — exactly the Property 1.3 contract. The
    /// default is a no-op for substrates that hold no topology-derived
    /// structure; [`crate::WaveToken`] and [`crate::TokenRing`] override.
    fn rebuild(&mut self, h: &Hypergraph) {
        let _ = h;
    }

    /// Did the *neighbor-visible* part of a substrate state change between
    /// `old` and `new`? Used by the composition's value-level invalidation:
    /// when this returns `false`, no other process's `Token`/internal guard
    /// can change enabledness, so neighbors are not re-enqueued. The
    /// default treats the whole state as visible (always sound); override
    /// to exclude fields that only the process itself reads.
    fn changed_visible(&self, old: &Self::State, new: &Self::State) -> bool {
        old != new
    }

    /// `mark` every other process whose `Token`/internal guard reads the
    /// neighbor-visible part of `p`'s substrate state — who to re-enqueue
    /// when [`changed_visible`](TokenLayer::changed_visible) says it
    /// moved. The default is the closed neighborhood (always sound);
    /// override when the substrate reads along a sparser structure.
    fn visible_readers(&self, h: &Hypergraph, p: usize, mut mark: impl FnMut(usize)) {
        for &q in h.closed_neighborhood(p) {
            mark(q);
        }
    }
}

/// Count the token holders in a configuration — the measurement behind all
/// substrate stabilization experiments (Property 1.2 demands this reaches
/// and stays at one).
pub fn token_holders<TL: TokenLayer>(
    layer: &TL,
    h: &Hypergraph,
    states: &[TL::State],
) -> Vec<usize> {
    (0..h.n())
        .filter(|&p| layer.token(&Ctx::new(h, p, states, &())))
        .collect()
}
