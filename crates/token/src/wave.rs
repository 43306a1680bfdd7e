//! The default token substrate: a rooted **broadcast/feedback wave token**
//! with stabilization fully independent of `T` activations — i.e. a
//! faithful Property 1 implementation, including clause 1.3.
//!
//! ## Why not plain Dijkstra?
//!
//! [`crate::TokenRing`] (Dijkstra K-state over the Euler tour) satisfies
//! Property 1.1/1.2, but its stabilization *is* the execution of `T`: a
//! transient extra privilege frozen at a process that never releases can
//! survive forever. That is fatal under CC2/CC3, whose holders release only
//! when leaving a meeting — reproducing exactly the multi-token deadlock
//! this crate's integration tests once observed (see DESIGN.md). The
//! paper's clause 1.3 ("TC stabilizes independently of the activations of
//! action T") is load-bearing, and the cited constructions [24–27] honor it
//! by erasing illegitimate tokens with *internal* actions. So does this
//! module.
//!
//! ## Protocol
//!
//! Static BFS spanning tree with root `r`; static Euler tour of length `L`.
//! Per process: a slot counter `k ∈ Z_L`, a certification stamp `fb ∈ Z_L`,
//! and a release flag `done`.
//!
//! * The **designee** of slot `k` is the owner of tour position `k`.
//!   `Token(p) ≡ designee(k_p) = p ∧ ¬done_p`; `ReleaseToken_p` sets
//!   `done_p := true`. This is the emulated action `T`.
//! * `KCopy` (internal, non-root): `k_p := k_parent` when they differ — the
//!   root's slot floods down the tree.
//! * `DoneReset` (internal): clear a `done` flag that no longer matches a
//!   designation.
//! * `Certify` (internal): `fb_p := k_p` once the subtree of `p` agrees on
//!   `k_p`, is certified, and — if the designee lives here — has released.
//! * `Advance` (internal, root): when the whole tree certifies the current
//!   slot (so the designee has released), `k_r := k_r + 1 (mod L)`.
//!
//! Copying `k` automatically *de*-certifies (`fb` goes stale), so a
//! corrupted certification can cause at most one spurious advance before a
//! genuine bottom-up wave is required again: the substrate converges from
//! any state, with every action above internal — no cooperation from token
//! holders needed. Once stabilized, exactly one process at a time satisfies
//! `Token`, and designations walk the Euler tour: neighbor to neighbor,
//! visiting every process infinitely often.

use crate::iface::TokenLayer;
use sscc_hypergraph::{EulerTour, Hypergraph, SpanningTree};
use sscc_runtime::prelude::{ActionId, ArbitraryState, Ctx, GuardedAlgorithm, StateAccess};

/// Per-process wave-token state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaveState {
    /// Current slot (tour position) this process believes in.
    pub k: u32,
    /// Last slot this process certified for its subtree.
    pub fb: u32,
    /// Has the local designation been released?
    pub done: bool,
}

impl sscc_runtime::wire::StateCodec for WaveState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.k.encode(out);
        self.fb.encode(out);
        self.done.encode(out);
    }

    fn decode(r: &mut sscc_runtime::wire::Reader) -> Option<Self> {
        Some(WaveState {
            k: u32::decode(r)?,
            fb: u32::decode(r)?,
            done: bool::decode(r)?,
        })
    }
}

/// The rooted wave-token substrate. Owns the static tree and tour.
pub struct WaveToken {
    tree: SpanningTree,
    tour: EulerTour,
}

/// Internal action identifiers (code order; later = higher priority).
pub mod action {
    use sscc_runtime::prelude::ActionId;
    /// Root advances to the next slot.
    pub const ADVANCE: ActionId = 0;
    /// Certify the subtree for the current slot.
    pub const CERTIFY: ActionId = 1;
    /// Clear a stale release flag.
    pub const DONE_RESET: ActionId = 2;
    /// Copy the parent's slot.
    pub const KCOPY: ActionId = 3;
    /// Number of internal actions.
    pub const COUNT: usize = 4;
}

impl WaveToken {
    /// Wave token rooted at the max-id process (the library default).
    pub fn new(h: &Hypergraph) -> Self {
        Self::with_root(h, h.n() - 1)
    }

    /// Wave token rooted at `root`; the initial designee is `root` itself
    /// (tour position 0).
    pub fn with_root(h: &Hypergraph, root: usize) -> Self {
        let tree = SpanningTree::bfs(h, root);
        let tour = EulerTour::of(&tree);
        WaveToken { tree, tour }
    }

    /// Tour length `L` (number of designation slots).
    pub fn slots(&self) -> u32 {
        self.tour.len() as u32
    }

    /// The underlying tour.
    pub fn tour(&self) -> &EulerTour {
        &self.tour
    }

    /// Owner of slot `k` (defensively reduced mod `L`; the protocol keeps
    /// `k` in range, so the reduction — an integer division on the guard
    /// hot path — only happens on corrupted boots).
    fn designee(&self, k: u32) -> usize {
        let k = if k < self.slots() {
            k
        } else {
            k % self.slots()
        };
        self.tour.owner(k as usize)
    }

    /// Is `p` the designee of its own believed slot, pre-release?
    fn is_token<E: ?Sized, A: StateAccess<WaveState> + ?Sized>(
        &self,
        ctx: &Ctx<'_, WaveState, E, A>,
    ) -> bool {
        let st = ctx.my_state();
        self.designee(st.k) == ctx.me() && !st.done
    }

    /// The certification condition `cond(p)`: subtree agrees on `k_p`, all
    /// children certified it, and a local designation has been released.
    fn cond<E: ?Sized, A: StateAccess<WaveState> + ?Sized>(
        &self,
        ctx: &Ctx<'_, WaveState, E, A>,
    ) -> bool {
        let st = ctx.my_state();
        let me_ok = self.designee(st.k) != ctx.me() || st.done;
        me_ok
            && self.tree.children(ctx.me()).iter().all(|&c| {
                let cs = ctx.state_of(c);
                cs.k == st.k && cs.fb == st.k
            })
    }

    /// Count the `Token`-satisfying processes of a raw configuration
    /// (experiment helper; after stabilization this is always 1).
    pub fn holder_count(&self, h: &Hypergraph, states: &[WaveState]) -> usize {
        (0..h.n())
            .filter(|&p| self.is_token(&Ctx::new(h, p, states, &())))
            .count()
    }
}

impl TokenLayer for WaveToken {
    type State = WaveState;

    fn initial_state(&self, _h: &Hypergraph, _me: usize) -> WaveState {
        // Slot 0 everywhere: the root (owner of position 0) holds the token;
        // nothing is certified yet, which is fine — certification only
        // matters once the holder releases.
        WaveState {
            k: 0,
            fb: self.slots() - 1,
            done: false,
        }
    }

    fn token<E: ?Sized, A: StateAccess<WaveState> + ?Sized>(
        &self,
        ctx: &Ctx<'_, WaveState, E, A>,
    ) -> bool {
        self.is_token(ctx)
    }

    fn release<E: ?Sized, A: StateAccess<WaveState> + ?Sized>(
        &self,
        ctx: &Ctx<'_, WaveState, E, A>,
    ) -> WaveState {
        let mut st = *ctx.my_state();
        if self.is_token(ctx) {
            st.done = true;
        }
        st
    }

    fn internal_action_count(&self) -> usize {
        action::COUNT
    }

    fn internal_action_name(&self, a: ActionId) -> String {
        match a {
            action::ADVANCE => "Advance",
            action::CERTIFY => "Certify",
            action::DONE_RESET => "DoneReset",
            action::KCOPY => "KCopy",
            _ => unreachable!("unknown wave action {a}"),
        }
        .to_string()
    }

    fn rebuild(&mut self, h: &Hypergraph) {
        // Same root (vertices survive every mutation), fresh tree and tour
        // over the mutated neighbor relation. Existing `k`/`fb` values out
        // of the new tour's range are defensively reduced by `designee` and
        // erased by the internal stabilization — churn debris behaves like
        // transient-fault debris.
        *self = WaveToken::with_root(h, self.tree.root());
    }

    fn changed_visible(&self, old: &WaveState, new: &WaveState) -> bool {
        // `done` is read only by its own process (`is_token` and the
        // `me_ok` conjunct of `cond` look at the local flag; children's
        // `done` is never consulted), so a release/DoneReset alone does not
        // perturb any neighbor's guard.
        old.k != new.k || old.fb != new.fb
    }

    fn visible_readers(&self, _h: &Hypergraph, p: usize, mut mark: impl FnMut(usize)) {
        // `k`/`fb` travel along tree edges only: `KCopy` reads the parent's
        // `k`, `cond` (Certify/Advance) the children's `k` and `fb`.
        if let Some(parent) = self.tree.parent(p) {
            mark(parent);
        }
        for &c in self.tree.children(p) {
            mark(c);
        }
    }

    fn internal_priority_action<E: ?Sized, A: StateAccess<WaveState> + ?Sized>(
        &self,
        ctx: &Ctx<'_, WaveState, E, A>,
    ) -> Option<ActionId> {
        let st = ctx.my_state();
        let me = ctx.me();
        // Priority: later in code order wins (like the committee layer).
        if me != self.tree.root() {
            let pk = ctx.state_of(self.tree.parent(me).expect("non-root")).k;
            if st.k != pk {
                return Some(action::KCOPY);
            }
        }
        if st.done && self.designee(st.k) != me {
            return Some(action::DONE_RESET);
        }
        if self.cond(ctx) && st.fb != st.k {
            return Some(action::CERTIFY);
        }
        if me == self.tree.root() && self.cond(ctx) {
            return Some(action::ADVANCE);
        }
        None
    }

    fn execute_internal<E: ?Sized, A: StateAccess<WaveState> + ?Sized>(
        &self,
        ctx: &Ctx<'_, WaveState, E, A>,
        a: ActionId,
    ) -> WaveState {
        let mut st = *ctx.my_state();
        match a {
            action::KCOPY => {
                st.k = ctx
                    .state_of(self.tree.parent(ctx.me()).expect("non-root"))
                    .k;
            }
            action::DONE_RESET => {
                st.done = false;
            }
            action::CERTIFY => {
                st.fb = st.k;
            }
            action::ADVANCE => {
                st.k = (st.k + 1) % self.slots();
            }
            _ => unreachable!("unknown wave action {a}"),
        }
        st
    }
}

/// Standalone guarded-algorithm view (action 0 = `T`, the rest internal) —
/// used to validate Property 1 for this substrate in isolation.
impl GuardedAlgorithm for WaveToken {
    type State = WaveState;
    type Env = ();

    fn action_count(&self) -> usize {
        1 + action::COUNT
    }

    fn action_name(&self, a: ActionId) -> String {
        if a == 0 {
            "T".to_string()
        } else {
            self.internal_action_name(a - 1)
        }
    }

    fn initial_state(&self, h: &Hypergraph, me: usize) -> WaveState {
        TokenLayer::initial_state(self, h, me)
    }

    fn priority_action<A: StateAccess<WaveState> + ?Sized>(
        &self,
        ctx: &Ctx<'_, WaveState, (), A>,
    ) -> Option<ActionId> {
        // Internal stabilization first, then T (the standalone view releases
        // the token as soon as it is held — a maximally cooperative holder).
        if let Some(a) = self.internal_priority_action(ctx) {
            return Some(a + 1);
        }
        self.is_token(ctx).then_some(0)
    }

    fn execute<A: StateAccess<WaveState> + ?Sized>(
        &self,
        ctx: &Ctx<'_, WaveState, (), A>,
        a: ActionId,
    ) -> WaveState {
        if a == 0 {
            self.release(ctx)
        } else {
            self.execute_internal(ctx, a - 1)
        }
    }
}

impl ArbitraryState for WaveState {
    fn arbitrary(rng: &mut rand::rngs::StdRng, h: &Hypergraph, _me: usize) -> Self {
        use rand::Rng as _;
        let l = 2 * (h.n() as u32 - 1); // default tour length
        WaveState {
            k: rng.random_range(0..l),
            fb: rng.random_range(0..l),
            done: rng.random_bool(0.5),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sscc_hypergraph::generators;
    use sscc_runtime::prelude::*;
    use std::sync::Arc;

    #[test]
    fn boot_has_exactly_one_holder_at_root() {
        let h = Arc::new(generators::fig1());
        let wave = WaveToken::new(&h);
        let states: Vec<WaveState> = (0..h.n())
            .map(|p| TokenLayer::initial_state(&wave, &h, p))
            .collect();
        assert_eq!(wave.holder_count(&h, &states), 1);
        let root = wave.tour().root();
        let ctx: Ctx<'_, WaveState, ()> = Ctx::new(&h, root, &states, &());
        assert!(TokenLayer::token(&wave, &ctx));
    }

    #[test]
    fn cooperative_circulation_visits_everyone() {
        // Standalone view: holders release immediately; the designation
        // walks the tour and reaches every process within L handoffs.
        let h = Arc::new(generators::fig1());
        let wave = WaveToken::new(&h);
        let slots = wave.slots() as usize;
        let mut w = World::new(Arc::clone(&h), WaveToken::new(&h));
        let mut d = Synchronous;
        let mut seen = vec![false; h.n()];
        // Each handoff costs O(height) steps; budget generously.
        for _ in 0..slots * 40 {
            let states = w.states().to_vec();
            for (p, seen_p) in seen.iter_mut().enumerate() {
                let acc = SliceAccess(&states);
                let ctx: Ctx<'_, WaveState, ()> = Ctx::new(&h, p, &acc, &());
                if TokenLayer::token(&wave, &ctx) {
                    *seen_p = true;
                }
            }
            w.step(&mut d, &());
        }
        assert!(seen.iter().all(|&s| s), "token visited: {seen:?}");
    }

    #[test]
    fn at_most_one_holder_forever_from_clean_boot() {
        let h = Arc::new(generators::ring(5, 3));
        let wave = WaveToken::new(&h);
        let mut w = World::new(Arc::clone(&h), WaveToken::new(&h));
        let mut d = WeaklyFair::new(DistributedRandom::new(5, 0.6), 10);
        for _ in 0..3000 {
            assert!(wave.holder_count(&h, w.states()) <= 1);
            w.step(&mut d, &());
        }
    }

    #[test]
    fn stabilizes_from_arbitrary_states_without_t() {
        // Property 1.3: freeze T entirely (never release) and let only the
        // internal actions run: the holder count must still converge to at
        // most one and then stay there — the crux Dijkstra lacks.
        let h = Arc::new(generators::fig1());
        for seed in 0..25u64 {
            let wave = WaveToken::new(&h);
            // Drive internal actions only, via the TokenLayer interface.
            use rand::SeedableRng as _;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut states: Vec<WaveState> = (0..h.n())
                .map(|p| WaveState::arbitrary(&mut rng, &h, p))
                .collect();
            let mut stable = 0;
            for _ in 0..10_000 {
                // Synchronously execute every enabled internal action.
                let snapshot = states.clone();
                let mut moved = false;
                for (p, slot) in states.iter_mut().enumerate() {
                    let acc = SliceAccess(&snapshot);
                    let ctx: Ctx<'_, WaveState, ()> = Ctx::new(&h, p, &acc, &());
                    if let Some(a) = wave.internal_priority_action(&ctx) {
                        // A held token (designee, not done) blocks Advance
                        // at the root only through certification — emulate
                        // "nobody ever releases" by skipping nothing: all
                        // actions here are internal by construction.
                        *slot = wave.execute_internal(&ctx, a);
                        moved = true;
                    }
                }
                if !moved {
                    stable += 1;
                    if stable > 5 {
                        break;
                    }
                } else {
                    stable = 0;
                }
            }
            let holders = wave.holder_count(&h, &states);
            assert!(
                holders <= 1,
                "seed {seed}: {holders} holders after internal-only stabilization"
            );
        }
    }

    #[test]
    fn frozen_holder_keeps_token_and_system_quiesces() {
        // A holder that never releases: internal actions run out (no
        // livelock), the designation stays put, holder keeps Token forever.
        let h = Arc::new(generators::fig2());
        let wave = WaveToken::new(&h);
        let mut states: Vec<WaveState> = (0..h.n())
            .map(|p| TokenLayer::initial_state(&wave, &h, p))
            .collect();
        for _ in 0..1000 {
            let snapshot = states.clone();
            let mut moved = false;
            for (p, slot) in states.iter_mut().enumerate() {
                let acc = SliceAccess(&snapshot);
                let ctx: Ctx<'_, WaveState, ()> = Ctx::new(&h, p, &acc, &());
                if let Some(a) = wave.internal_priority_action(&ctx) {
                    *slot = wave.execute_internal(&ctx, a);
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }
        assert_eq!(wave.holder_count(&h, &states), 1, "holder retained");
        // And no internal action remains enabled: true quiescence.
        let acc = SliceAccess(&states);
        for p in 0..h.n() {
            let ctx: Ctx<'_, WaveState, ()> = Ctx::new(&h, p, &acc, &());
            assert_eq!(wave.internal_priority_action(&ctx), None);
        }
    }

    #[test]
    fn release_advances_designation_to_tour_successor() {
        let h = Arc::new(generators::fig2());
        let wave = WaveToken::new(&h);
        let mut w = World::new(Arc::clone(&h), WaveToken::new(&h));
        let mut d = Synchronous;
        let first = wave.tour().owner(0);
        let second = wave.tour().owner(1);
        // Run the standalone (auto-release) view until the second tour
        // position's owner holds the token.
        let mut ok = false;
        for _ in 0..200 {
            w.step(&mut d, &());
            let states = w.states().to_vec();
            let acc = SliceAccess(&states);
            let ctx: Ctx<'_, WaveState, ()> = Ctx::new(&h, second, &acc, &());
            if TokenLayer::token(&wave, &ctx) {
                ok = true;
                break;
            }
        }
        assert!(
            ok,
            "designation moved from {first} to tour successor {second}"
        );
    }

    #[test]
    fn custom_root_designates_that_root_first() {
        let h = Arc::new(generators::fig1());
        let root = h.dense_of(2);
        let wave = WaveToken::with_root(&h, root);
        let states: Vec<WaveState> = (0..h.n())
            .map(|p| TokenLayer::initial_state(&wave, &h, p))
            .collect();
        let acc = SliceAccess(&states);
        let ctx: Ctx<'_, WaveState, ()> = Ctx::new(&h, root, &acc, &());
        assert!(TokenLayer::token(&wave, &ctx));
        assert_eq!(wave.holder_count(&h, &states), 1);
    }
}
