//! Fair composition of two guarded algorithms (paper §2.2, after Dolev \[13\]).
//!
//! `P1` and `P2` run "in alternation such that there is no computation
//! suffix where a process is continuously enabled w.r.t. `Pi` without
//! executing any of its enabled actions w.r.t. `Pi`". We realize this with a
//! per-process *turn* bit stored in the composed state: when both layers are
//! enabled the layer owning the turn moves, and every execution hands the
//! turn to the other layer. A layer that is alone enabled simply keeps
//! moving — alternation constrains neither layer when the other is disabled.

use crate::algorithm::{ActionId, GuardedAlgorithm};
use crate::ctx::{Ctx, StateAccess};
use crate::fault::ArbitraryState;
use rand::rngs::StdRng;
use rand::Rng as _;
use sscc_hypergraph::Hypergraph;

/// Which layer of a composition owns the next move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The first composed algorithm.
    A,
    /// The second composed algorithm.
    B,
}

impl Layer {
    /// The other layer.
    pub fn other(self) -> Layer {
        match self {
            Layer::A => Layer::B,
            Layer::B => Layer::A,
        }
    }
}

/// Composed per-process state: both layers' states plus the alternation bit.
/// `Copy` when both layer states are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FairState<SA, SB> {
    /// Layer-A state.
    pub a: SA,
    /// Layer-B state.
    pub b: SB,
    /// Who moves next when both layers are enabled.
    pub turn: Layer,
}

/// Zero-copy view of the `a` components of a composed configuration.
///
/// Generic over the underlying accessor `X` (default: erased), so a
/// projection over a plain slice stays monomorphic — reading a neighbor's
/// `a` component through a sub-[`Ctx`] inlines to a slice index plus a
/// field offset, with no virtual dispatch.
pub struct ProjectA<'x, SA, SB, X: ?Sized = dyn StateAccess<FairState<SA, SB>> + 'x> {
    inner: &'x X,
    _pair: std::marker::PhantomData<fn() -> (SA, SB)>,
}

impl<'x, SA, SB, X: ?Sized> ProjectA<'x, SA, SB, X> {
    /// Project the `a` components out of `inner`.
    pub fn new(inner: &'x X) -> Self {
        ProjectA {
            inner,
            _pair: std::marker::PhantomData,
        }
    }
}

impl<SA, SB, X: StateAccess<FairState<SA, SB>> + ?Sized> StateAccess<SA>
    for ProjectA<'_, SA, SB, X>
{
    #[inline]
    fn state(&self, p: usize) -> &SA {
        &self.inner.state(p).a
    }
}

/// Zero-copy view of the `b` components of a composed configuration (the
/// `b`-side twin of [`ProjectA`]).
pub struct ProjectB<'x, SA, SB, X: ?Sized = dyn StateAccess<FairState<SA, SB>> + 'x> {
    inner: &'x X,
    _pair: std::marker::PhantomData<fn() -> (SA, SB)>,
}

impl<'x, SA, SB, X: ?Sized> ProjectB<'x, SA, SB, X> {
    /// Project the `b` components out of `inner`.
    pub fn new(inner: &'x X) -> Self {
        ProjectB {
            inner,
            _pair: std::marker::PhantomData,
        }
    }
}

impl<SA, SB, X: StateAccess<FairState<SA, SB>> + ?Sized> StateAccess<SB>
    for ProjectB<'_, SA, SB, X>
{
    #[inline]
    fn state(&self, p: usize) -> &SB {
        &self.inner.state(p).b
    }
}

/// Fair composition `A ∘ B` of two algorithms sharing an environment type.
///
/// Composed action identifiers encode the layer in the low bit:
/// `2*i` is A's action `i`, `2*j + 1` is B's action `j`.
pub struct FairPair<PA, PB> {
    /// First layer.
    pub a: PA,
    /// Second layer.
    pub b: PB,
}

impl<PA, PB> FairPair<PA, PB> {
    /// Compose `a` and `b`.
    pub fn new(a: PA, b: PB) -> Self {
        FairPair { a, b }
    }

    /// Decode a composed action id into `(layer, inner id)`.
    pub fn decode(a: ActionId) -> (Layer, ActionId) {
        if a.is_multiple_of(2) {
            (Layer::A, a / 2)
        } else {
            (Layer::B, a / 2)
        }
    }

    /// Encode `(layer, inner id)` into a composed action id.
    pub fn encode(layer: Layer, inner: ActionId) -> ActionId {
        match layer {
            Layer::A => inner * 2,
            Layer::B => inner * 2 + 1,
        }
    }
}

impl<E, PA, PB> GuardedAlgorithm for FairPair<PA, PB>
where
    E: ?Sized,
    PA: GuardedAlgorithm<Env = E>,
    PB: GuardedAlgorithm<Env = E>,
{
    type State = FairState<PA::State, PB::State>;
    type Env = E;

    fn action_count(&self) -> usize {
        2 * self.a.action_count().max(self.b.action_count())
    }

    fn action_name(&self, a: ActionId) -> String {
        match Self::decode(a) {
            (Layer::A, i) => format!("A::{}", self.a.action_name(i)),
            (Layer::B, j) => format!("B::{}", self.b.action_name(j)),
        }
    }

    fn initial_state(&self, h: &Hypergraph, me: usize) -> Self::State {
        FairState {
            a: self.a.initial_state(h, me),
            b: self.b.initial_state(h, me),
            turn: Layer::A,
        }
    }

    fn priority_action<X: StateAccess<Self::State> + ?Sized>(
        &self,
        ctx: &Ctx<'_, Self::State, E, X>,
    ) -> Option<ActionId> {
        let pa = ProjectA::new(ctx.accessor());
        let pb = ProjectB::new(ctx.accessor());
        let ctx_a = Ctx::new(ctx.h(), ctx.me(), &pa, ctx.env());
        let ctx_b = Ctx::new(ctx.h(), ctx.me(), &pb, ctx.env());
        let act_a = self
            .a
            .priority_action(&ctx_a)
            .map(|i| Self::encode(Layer::A, i));
        let act_b = self
            .b
            .priority_action(&ctx_b)
            .map(|j| Self::encode(Layer::B, j));
        match ctx.my_state().turn {
            Layer::A => act_a.or(act_b),
            Layer::B => act_b.or(act_a),
        }
    }

    fn execute<X: StateAccess<Self::State> + ?Sized>(
        &self,
        ctx: &Ctx<'_, Self::State, E, X>,
        a: ActionId,
    ) -> Self::State {
        let mut next = ctx.my_state().clone();
        match Self::decode(a) {
            (Layer::A, i) => {
                let pa = ProjectA::new(ctx.accessor());
                let ctx_a = Ctx::new(ctx.h(), ctx.me(), &pa, ctx.env());
                next.a = self.a.execute(&ctx_a, i);
                next.turn = Layer::B;
            }
            (Layer::B, j) => {
                let pb = ProjectB::new(ctx.accessor());
                let ctx_b = Ctx::new(ctx.h(), ctx.me(), &pb, ctx.env());
                next.b = self.b.execute(&ctx_b, j);
                next.turn = Layer::A;
            }
        }
        next
    }
}

impl<SA: ArbitraryState, SB: ArbitraryState> ArbitraryState for FairState<SA, SB> {
    fn arbitrary(rng: &mut StdRng, h: &Hypergraph, me: usize) -> Self {
        FairState {
            a: SA::arbitrary(rng, h, me),
            b: SB::arbitrary(rng, h, me),
            turn: if rng.random_bool(0.5) {
                Layer::A
            } else {
                Layer::B
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::Synchronous;
    use crate::engine::World;
    use sscc_hypergraph::generators;
    use std::sync::Arc;

    /// Counts to `limit` — one action, enabled while below the limit.
    struct Counter {
        limit: u32,
    }

    impl GuardedAlgorithm for Counter {
        type State = u32;
        type Env = ();

        fn action_count(&self) -> usize {
            1
        }
        fn action_name(&self, _: ActionId) -> String {
            "tick".into()
        }
        fn initial_state(&self, _: &Hypergraph, _: usize) -> u32 {
            0
        }
        fn priority_action<X: StateAccess<u32> + ?Sized>(
            &self,
            ctx: &Ctx<'_, u32, (), X>,
        ) -> Option<ActionId> {
            (*ctx.my_state() < self.limit).then_some(0)
        }
        fn execute<X: StateAccess<u32> + ?Sized>(
            &self,
            ctx: &Ctx<'_, u32, (), X>,
            _: ActionId,
        ) -> u32 {
            ctx.my_state() + 1
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        for layer in [Layer::A, Layer::B] {
            for i in 0..5 {
                let id = FairPair::<Counter, Counter>::encode(layer, i);
                assert_eq!(FairPair::<Counter, Counter>::decode(id), (layer, i));
            }
        }
    }

    #[test]
    fn alternation_is_strict_when_both_enabled() {
        // Two counters with equal limits: the turn bit must interleave
        // their ticks exactly 1:1 under a central schedule of one process.
        let h = Arc::new(generators::fig2());
        let algo = FairPair::new(Counter { limit: 4 }, Counter { limit: 4 });
        let mut w = World::new(Arc::clone(&h), algo);
        let (_, q) = w.run_to_quiescence(&mut Synchronous, &(), 100);
        assert!(q);
        for p in 0..h.n() {
            assert_eq!(w.state(p).a, 4);
            assert_eq!(w.state(p).b, 4);
        }
    }

    #[test]
    fn lone_layer_keeps_running() {
        // B's limit is 0 (never enabled): A must reach its limit anyway.
        let h = Arc::new(generators::fig2());
        let algo = FairPair::new(Counter { limit: 3 }, Counter { limit: 0 });
        let mut w = World::new(Arc::clone(&h), algo);
        let (_, q) = w.run_to_quiescence(&mut Synchronous, &(), 100);
        assert!(q);
        for p in 0..h.n() {
            assert_eq!(w.state(p).a, 3);
            assert_eq!(w.state(p).b, 0);
        }
    }

    #[test]
    fn neither_layer_starves_with_unequal_work() {
        // A needs 10 ticks, B needs 2. After B quiesces A continues alone.
        let h = Arc::new(generators::fig2());
        let algo = FairPair::new(Counter { limit: 10 }, Counter { limit: 2 });
        let mut w = World::new(Arc::clone(&h), algo);
        // Track interleaving on process 0 for the first 4 of its moves:
        // A,B,A,B (turn starts at A, both enabled).
        let mut seen = Vec::new();
        for _ in 0..50 {
            let out = w.step(&mut Synchronous, &());
            if out.terminal() {
                break;
            }
            for &(p, a) in &out.executed {
                if p == 0 && seen.len() < 4 {
                    seen.push(FairPair::<Counter, Counter>::decode(a).0);
                }
            }
        }
        assert_eq!(seen, vec![Layer::A, Layer::B, Layer::A, Layer::B]);
        assert_eq!(w.state(0).a, 10);
        assert_eq!(w.state(0).b, 2);
    }

    #[test]
    fn composed_action_names_carry_layer() {
        let algo = FairPair::new(Counter { limit: 1 }, Counter { limit: 1 });
        assert_eq!(algo.action_name(0), "A::tick");
        assert_eq!(algo.action_name(1), "B::tick");
    }
}
