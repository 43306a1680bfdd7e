//! The composition `CC ∘ TC` (paper §4.1 "Composition", Remark 1).
//!
//! `CC ∘ TC` is a fair composition in which the token module's action `T` is
//! **emulated** by the committee layer: `Token(p)` is evaluated against the
//! substrate state and handed to CC's guards as an input, and CC's
//! statements (`Token2`, `Step4`) emit `ReleaseToken_p`, which we apply to
//! the substrate state in the same atomic step. Any *internal* stabilization
//! actions of the substrate run alternately with CC's actions (per-process
//! turn bit), so the substrate stabilizes regardless of `T` activations
//! (Property 1.3).
//!
//! Remark 1 is what makes the result **snap**- and not merely
//! self-stabilizing: the self-stabilizing token circulation is never used
//! for safety, only for progress/fairness, so CC's safety properties hold
//! from the very first step.

use crate::algo::CommitteeAlgorithm;
use crate::oracle::RequestEnv;
use sscc_hypergraph::Hypergraph;
use sscc_runtime::prelude::{
    ActionId, ArbitraryState, Ctx, GuardedAlgorithm, Layer, StateAccess, StateCodec,
};
use sscc_token::TokenLayer;

/// Composed per-process state: committee layer + token substrate + the
/// fair-composition turn bit. `Copy` when both layer states are — which
/// every shipped committee state and the wave-token substrate state
/// satisfy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CcTok<CS, TS> {
    /// Committee-layer state (`S`, `P`, `T`, …).
    pub cc: CS,
    /// Token-substrate state.
    pub tok: TS,
    /// Fair-composition turn (A = committee layer, B = substrate internal).
    pub turn: Layer,
}

impl<CS: StateCodec, TS: StateCodec> StateCodec for CcTok<CS, TS> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.cc.encode(out);
        self.tok.encode(out);
        self.turn.encode(out);
    }

    fn decode(r: &mut sscc_runtime::wire::Reader) -> Option<Self> {
        Some(CcTok {
            cc: CS::decode(r)?,
            tok: TS::decode(r)?,
            turn: Layer::decode(r)?,
        })
    }
}

/// Zero-copy view of the committee components.
///
/// Generic over the underlying accessor `X` (default: erased): on the
/// engine hot path `X = [CcTok<CS, TS>]`, so reading a neighbor's
/// committee state through the composed context is a slice index plus a
/// field offset — no virtual dispatch anywhere in the chain.
pub struct ProjCc<'x, CS, TS, X: ?Sized = dyn StateAccess<CcTok<CS, TS>> + 'x> {
    inner: &'x X,
    _pair: std::marker::PhantomData<fn() -> (CS, TS)>,
}

impl<'x, CS, TS, X: ?Sized> ProjCc<'x, CS, TS, X> {
    /// Project the committee components out of `inner`.
    pub fn new(inner: &'x X) -> Self {
        ProjCc {
            inner,
            _pair: std::marker::PhantomData,
        }
    }
}

impl<CS, TS, X: StateAccess<CcTok<CS, TS>> + ?Sized> StateAccess<CS> for ProjCc<'_, CS, TS, X> {
    #[inline]
    fn state(&self, p: usize) -> &CS {
        &self.inner.state(p).cc
    }
}

/// Zero-copy view of the substrate components (the token-side twin of
/// [`ProjCc`]).
pub struct ProjTok<'x, CS, TS, X: ?Sized = dyn StateAccess<CcTok<CS, TS>> + 'x> {
    inner: &'x X,
    _pair: std::marker::PhantomData<fn() -> (CS, TS)>,
}

impl<'x, CS, TS, X: ?Sized> ProjTok<'x, CS, TS, X> {
    /// Project the substrate components out of `inner`.
    pub fn new(inner: &'x X) -> Self {
        ProjTok {
            inner,
            _pair: std::marker::PhantomData,
        }
    }
}

impl<CS, TS, X: StateAccess<CcTok<CS, TS>> + ?Sized> StateAccess<TS> for ProjTok<'_, CS, TS, X> {
    #[inline]
    fn state(&self, p: usize) -> &TS {
        &self.inner.state(p).tok
    }
}

/// The composed algorithm `CC ∘ TC`.
///
/// Composed action ids: `2*i` = committee action `i`; `2*j + 1` = substrate
/// internal action `j`.
pub struct Composed<C, TL> {
    /// The committee layer (CC1, CC2 or CC3).
    pub cc: C,
    /// The token substrate.
    pub tl: TL,
}

impl<C: CommitteeAlgorithm, TL: TokenLayer> Composed<C, TL> {
    /// Compose a committee algorithm with a token substrate.
    pub fn new(cc: C, tl: TL) -> Self {
        Composed { cc, tl }
    }

    /// Decode a composed action id.
    pub fn decode(a: ActionId) -> (Layer, ActionId) {
        if a.is_multiple_of(2) {
            (Layer::A, a / 2)
        } else {
            (Layer::B, a / 2)
        }
    }

    /// Encode `(layer, inner)` into a composed action id.
    pub fn encode(layer: Layer, inner: ActionId) -> ActionId {
        match layer {
            Layer::A => inner * 2,
            Layer::B => inner * 2 + 1,
        }
    }

    /// Is the committee-layer action `a` (composed id) — used by ledgers to
    /// classify trace events.
    pub fn committee_action(a: ActionId) -> Option<ActionId> {
        match Self::decode(a) {
            (Layer::A, i) => Some(i),
            (Layer::B, _) => None,
        }
    }

    /// Evaluate `Token(p)` for the context's process.
    pub fn token_of<'a, E: ?Sized, A: StateAccess<CcTok<C::State, TL::State>> + ?Sized>(
        &self,
        ctx: &Ctx<'a, CcTok<C::State, TL::State>, E, A>,
    ) -> bool {
        let pt = ProjTok::new(ctx.accessor());
        let ctx_tok = Ctx::new(ctx.h(), ctx.me(), &pt, ctx.env());
        self.tl.token(&ctx_tok)
    }
}

impl<C, TL> GuardedAlgorithm for Composed<C, TL>
where
    C: CommitteeAlgorithm,
    TL: TokenLayer,
{
    type State = CcTok<C::State, TL::State>;
    type Env = dyn RequestEnv;

    fn action_count(&self) -> usize {
        2 * self.cc.action_count().max(self.tl.internal_action_count())
    }

    fn action_name(&self, a: ActionId) -> String {
        match Self::decode(a) {
            (Layer::A, i) => self.cc.action_name(i),
            (Layer::B, j) => format!("TC::{}", self.tl.internal_action_name(j)),
        }
    }

    fn initial_state(&self, h: &Hypergraph, me: usize) -> Self::State {
        CcTok {
            cc: self.cc.initial_state(h, me),
            tok: self.tl.initial_state(h, me),
            turn: Layer::A,
        }
    }

    fn priority_action<A: StateAccess<Self::State> + ?Sized>(
        &self,
        ctx: &Ctx<'_, Self::State, dyn RequestEnv, A>,
    ) -> Option<ActionId> {
        let token = self.token_of(ctx);
        let pc = ProjCc::new(ctx.accessor());
        let ctx_cc = Ctx::new(ctx.h(), ctx.me(), &pc, ctx.env());
        let cc_act = self
            .cc
            .priority_action(&ctx_cc, token)
            .map(|i| Self::encode(Layer::A, i));

        let pt = ProjTok::new(ctx.accessor());
        let ctx_tok = Ctx::new(ctx.h(), ctx.me(), &pt, ctx.env());
        let tl_act = self
            .tl
            .internal_priority_action(&ctx_tok)
            .map(|j| Self::encode(Layer::B, j));

        match ctx.my_state().turn {
            Layer::A => cc_act.or(tl_act),
            Layer::B => tl_act.or(cc_act),
        }
    }

    fn execute<A: StateAccess<Self::State> + ?Sized>(
        &self,
        ctx: &Ctx<'_, Self::State, dyn RequestEnv, A>,
        a: ActionId,
    ) -> Self::State {
        let mut next = ctx.my_state().clone();
        match Self::decode(a) {
            (Layer::A, i) => {
                let token = self.token_of(ctx);
                let pc = ProjCc::new(ctx.accessor());
                let ctx_cc = Ctx::new(ctx.h(), ctx.me(), &pc, ctx.env());
                let (cc_next, release) = self.cc.execute(&ctx_cc, i, token);
                next.cc = cc_next;
                if release {
                    let pt = ProjTok::new(ctx.accessor());
                    let ctx_tok = Ctx::new(ctx.h(), ctx.me(), &pt, ctx.env());
                    next.tok = self.tl.release(&ctx_tok);
                }
                next.turn = Layer::B;
            }
            (Layer::B, j) => {
                let pt = ProjTok::new(ctx.accessor());
                let ctx_tok = Ctx::new(ctx.h(), ctx.me(), &pt, ctx.env());
                next.tok = self.tl.execute_internal(&ctx_tok, j);
                next.turn = Layer::A;
            }
        }
        next
    }

    // --- Commit notes ---------------------------------------------------
    //
    // Neighbors read exactly two projections of a composed state: the
    // committee view (status/pointer/T/L — every committee guard, through
    // the committee facts) and the visible substrate slice (the wave
    // token's k/fb — KCopy/Certify/Advance guards, along tree edges). The
    // `turn` bit and any self-only layer fields (a round-robin cursor, the
    // wave `done` flag) are read by nobody else, so a step that only
    // touches those re-enqueues just the process that moved — the engine
    // always marks a changed process itself.

    fn init_commit_notes(&mut self, h: &Hypergraph, states: &[Self::State]) {
        self.cc.rebuild_facts(h, &ProjCc::new(states));
    }

    fn drop_commit_notes(&mut self) {
        self.cc.drop_facts();
    }

    #[inline]
    fn note_write(
        &mut self,
        h: &Hypergraph,
        states: &[Self::State],
        p: usize,
        old: &Self::State,
        mut mark: impl FnMut(usize),
    ) {
        let new = &states[p];
        if self.cc.committee_visible_changed(&old.cc, &new.cc) {
            self.cc.apply_write(h, &ProjCc::new(states), p, &old.cc);
        }
        if self.tl.changed_visible(&old.tok, &new.tok) {
            self.tl.visible_readers(h, p, &mut mark);
        }
    }

    #[inline]
    fn flush_writes(&mut self, h: &Hypergraph, states: &[Self::State], mark: impl FnMut(usize)) {
        self.cc.flush_facts(h, &ProjCc::new(states), mark);
    }

    fn repair_after_mutation(
        &mut self,
        h: &Hypergraph,
        delta: &sscc_hypergraph::MutationDelta,
        states: &mut [Self::State],
    ) -> bool {
        // 1. Substrate: fresh tree/tour over the mutated neighbor relation.
        //    Out-of-range substrate debris is absorbed by its own internal
        //    stabilization (Property 1.3).
        self.tl.rebuild(h);
        // 2. Committee states: remap/clear edge references, deterministic
        //    per state — every engine mode repairs to the same configuration.
        let mut repaired = Vec::new();
        for (p, st) in states.iter_mut().enumerate() {
            if self.cc.repair_state(h, delta, p, &mut st.cc) {
                repaired.push(p);
            }
        }
        // 3. Fact mirror: remap in place, re-derive the changed committees.
        let pc = ProjCc::new(&*states);
        self.cc.repair_facts(h, delta, &pc, &repaired)
    }
}

impl<CS: ArbitraryState, TS: ArbitraryState> ArbitraryState for CcTok<CS, TS> {
    fn arbitrary(rng: &mut rand::rngs::StdRng, h: &Hypergraph, me: usize) -> Self {
        use rand::Rng as _;
        CcTok {
            cc: CS::arbitrary(rng, h, me),
            tok: TS::arbitrary(rng, h, me),
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
    use crate::cc1::Cc1;
    use crate::oracle::RequestFlags;
    use crate::status::{CommitteeView, Status};
    use sscc_hypergraph::generators;
    use sscc_runtime::prelude::*;
    use sscc_token::TokenRing;
    use std::sync::Arc;

    #[test]
    fn composed_boot_has_one_token_and_idle_professors() {
        let h = Arc::new(generators::fig2());
        let algo = Composed::new(Cc1::new(), TokenRing::new(&h));
        let w = World::new(Arc::clone(&h), algo);
        let holders: Vec<usize> = (0..h.n())
            .filter(|&p| {
                let env: &dyn RequestEnv = &RequestFlags::new(h.n());
                w.algo().token_of(&w.ctx(p, env))
            })
            .collect();
        assert_eq!(holders.len(), 1);
        for p in 0..h.n() {
            assert_eq!(w.state(p).cc.status(), Status::Idle);
        }
    }

    #[test]
    fn composed_runs_and_professors_start_looking() {
        let h = Arc::new(generators::fig2());
        let algo = Composed::new(Cc1::new(), TokenRing::new(&h));
        let mut w = World::new(Arc::clone(&h), algo);
        let env = RequestFlags::new(h.n());
        let mut d = Synchronous;
        // The token holder first announces (Token1) and releases a useless
        // token (Token2) — both outrank Step1 — so give it a few steps.
        for _ in 0..5 {
            w.step(&mut d, &env);
        }
        for p in 0..h.n() {
            assert_ne!(w.state(p).cc.status(), Status::Idle, "Step1 fired at p{p}");
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        type Cmp = Composed<Cc1, TokenRing>;
        for layer in [Layer::A, Layer::B] {
            for i in 0..10 {
                assert_eq!(Cmp::decode(Cmp::encode(layer, i)), (layer, i));
            }
        }
    }

    #[test]
    fn release_moves_the_token_in_the_same_step() {
        // Professor with a useless token (idle, not requesting) executes
        // Token2; the substrate counter changes atomically.
        let h = Arc::new(generators::fig2());
        let algo = Composed::new(Cc1::new(), TokenRing::new(&h));
        let mut w = World::new(Arc::clone(&h), algo);
        let mut env = RequestFlags::new(h.n());
        for p in 0..h.n() {
            env.set_in(p, false); // nobody requests: tokens are useless
        }
        let before: Vec<_> = w.states().iter().map(|s| s.tok.clone()).collect();
        let mut d = Synchronous;
        let out = w.step(&mut d, &env);
        assert!(!out.terminal());
        let after: Vec<_> = w.states().iter().map(|s| s.tok.clone()).collect();
        assert_ne!(before, after, "Token2 released: substrate state moved");
    }
}
