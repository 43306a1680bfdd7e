//! Algorithm `CC2` (paper §5, Algorithm 2): snap-stabilizing 2-phase
//! committee coordination with **Professor Fairness** — and, through a
//! pluggable committee [`Selector`], Algorithm `CC3` (§5.4) with
//! **Committee Fairness**.
//!
//! Action list in code order (priority = position, *later is higher*):
//!
//! ```text
//! Lock    :: Locked(p) ≠ L_p                       -> L := Locked(p)
//! Step11  :: TokenHolderToEdge(p)                  -> P := selected committee
//! Step12  :: JoinTokenHolder(p)                    -> P := token holder's pick
//! Step13  :: MaxToFreeEdge(p)                      -> P := ε ∈ FreeEdges_p
//! Step14  :: JoinLocalMax(p)                       -> P := P_max(FreeNodes_p)
//! Token   :: Token(p) ≠ T_p                        -> T := Token(p)
//! Step2   :: Ready(p) ∧ S_p = looking              -> S := waiting
//! Step3   :: Meeting(p) ∧ S_p = waiting            -> 〈Essential〉; S := done
//! Step4   :: LeaveMeeting(p) ∧ RequestOut(p)       -> S := looking; P := ⊥;
//!                                                     T := false; release if token
//! Stab    :: ¬Correct(p)                           -> S := looking; P := ⊥
//! ```
//!
//! Fairness mechanics: the token is released **only** when its holder leaves
//! a meeting (Step4) — never because it is "useless". The holder pins a
//! committee (`Step11`) and *sticks* with it; its members are `Locked`
//! (announced through `L`) so other professors route around them
//! (`FreeEdges` excludes locked/token processes), preserving as much
//! concurrency as fairness allows (§5.1, Figure 4).

use crate::algo::CommitteeAlgorithm;
use crate::choice::{EdgeChoice, MinSizeFirst};
use crate::facts::{self, EdgeFacts, Quantified};
use crate::oracle::RequestEnv;
use crate::predicates;
use crate::status::{ActionClass, CommitteeView, Status};
use sscc_hypergraph::{EdgeId, Hypergraph};
use sscc_runtime::prelude::{ActionId, ArbitraryState, Ctx, StateAccess};

/// Per-process CC2/CC3 state: `S_p`, `P_p`, `T_p`, `L_p` (+ the CC3
/// selection cursor, inert under CC2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cc2State {
    /// Status `S_p ∈ {looking, waiting, done}` (never `idle`, §5).
    pub s: Status,
    /// Edge pointer `P_p ∈ E_p ∪ {⊥}`.
    pub p: Option<EdgeId>,
    /// Announced token bit `T_p`.
    pub t: bool,
    /// Lock bit `L_p` (member of a token-pinned committee).
    pub l: bool,
    /// CC3 round-robin cursor into `E_p` (always 0 under CC2).
    pub cursor: u16,
}

impl Cc2State {
    /// The clean looking state.
    pub fn looking() -> Self {
        Cc2State {
            s: Status::Looking,
            p: None,
            t: false,
            l: false,
            cursor: 0,
        }
    }
}

impl CommitteeView for Cc2State {
    fn status(&self) -> Status {
        self.s
    }
    fn pointer(&self) -> Option<EdgeId> {
        self.p
    }
    fn t_bit(&self) -> bool {
        self.t
    }
    fn l_bit(&self) -> bool {
        self.l
    }
}

impl sscc_runtime::wire::StateCodec for Cc2State {
    fn encode(&self, out: &mut Vec<u8>) {
        self.s.encode(out);
        self.p.encode(out);
        self.t.encode(out);
        self.l.encode(out);
        self.cursor.encode(out);
    }

    fn decode(r: &mut sscc_runtime::wire::Reader) -> Option<Self> {
        Some(Cc2State {
            s: Status::decode(r)?,
            p: Option::<EdgeId>::decode(r)?,
            t: bool::decode(r)?,
            l: bool::decode(r)?,
            cursor: u16::decode(r)?,
        })
    }
}

/// Action indices, in code order.
pub mod action {
    use sscc_runtime::prelude::ActionId;
    /// `Lock`: refresh the lock bit.
    pub const LOCK: ActionId = 0;
    /// `Step11`: token holder pins a committee.
    pub const STEP11: ActionId = 1;
    /// `Step12`: follow the token holder's pinned committee.
    pub const STEP12: ActionId = 2;
    /// `Step13`: local max points to a free committee.
    pub const STEP13: ActionId = 3;
    /// `Step14`: follow the local max.
    pub const STEP14: ActionId = 4;
    /// `Token`: announce token possession.
    pub const TOKEN: ActionId = 5;
    /// `Step2`: committee agreed — become waiting.
    pub const STEP2: ActionId = 6;
    /// `Step3`: essential discussion — become done.
    pub const STEP3: ActionId = 7;
    /// `Step4`: voluntarily leave (and release the token).
    pub const STEP4: ActionId = 8;
    /// `Stab`: correct a corrupted state.
    pub const STAB: ActionId = 9;
    /// Total number of actions.
    pub const COUNT: usize = 10;
}

/// How the token holder chooses the committee it pins — the only difference
/// between CC2 (smallest incident committee, Theorems 4–6) and CC3
/// (sequential round-robin over `E_p`, Theorems 7–8).
pub trait Selector {
    /// The committee the token holder at `me` should pin.
    fn target(&self, h: &Hypergraph, me: usize, st: &Cc2State) -> EdgeId;
    /// Is the current pointer already an acceptable pin? (Guard of Step11
    /// is `¬acceptable`.)
    fn acceptable(&self, h: &Hypergraph, me: usize, st: &Cc2State) -> bool;
    /// New cursor value when `me` leaves a meeting and releases the token.
    fn advance(&self, h: &Hypergraph, me: usize, cursor: u16) -> u16;
}

/// CC2's selector: a smallest incident committee (`MinEdges_p`); any
/// already-pinned smallest committee is kept (the paper's `P_p ∉ MinEdges_p`
/// guard).
#[derive(Clone, Copy, Debug, Default)]
pub struct MinEdgeSelector<Ch = MinSizeFirst> {
    choice: Ch,
}

impl<Ch: EdgeChoice> Selector for MinEdgeSelector<Ch> {
    fn target(&self, h: &Hypergraph, me: usize, _st: &Cc2State) -> EdgeId {
        let min_edges = h.min_edges(me);
        self.choice.choose(h, me, &min_edges)
    }
    fn acceptable(&self, h: &Hypergraph, me: usize, st: &Cc2State) -> bool {
        // `e ∈ MinEdges_p` without materializing the set: incident to `me`
        // and of minimum incident length.
        match st.p {
            Some(e) => h.is_member(me, e) && h.edge_len(e) == h.min_edge_len(me),
            None => false,
        }
    }
    fn advance(&self, _h: &Hypergraph, _me: usize, cursor: u16) -> u16 {
        cursor
    }
}

/// CC3's selector: `E_p[cursor]`, advancing the cursor cyclically at every
/// token release so that each of `p`'s committees is pinned infinitely often
/// (§5.4 — this is what upgrades Professor Fairness to Committee Fairness).
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundRobinSelector;

impl Selector for RoundRobinSelector {
    fn target(&self, h: &Hypergraph, me: usize, st: &Cc2State) -> EdgeId {
        let inc = h.incident(me);
        inc[st.cursor as usize % inc.len()]
    }
    fn acceptable(&self, h: &Hypergraph, me: usize, st: &Cc2State) -> bool {
        st.p == Some(self.target(h, me, st))
    }
    fn advance(&self, h: &Hypergraph, me: usize, cursor: u16) -> u16 {
        (cursor + 1) % h.incident(me).len() as u16
    }
}

// Committee-fact bits of the mirror, one byte per edge; a fact bit holds iff
// no member falsifies it (see `Quantified`).
/// `∀q ∈ ε : P_q = ε ∧ S_q ∈ {looking, waiting}` — the committee is ready.
const F_READY: u8 = 1 << 0;
/// `∀q ∈ ε : P_q = ε ∧ S_q ∈ {waiting, done}` — the committee is meeting.
pub(crate) const F_MEETING: u8 = 1 << 1;
/// `∀q ∈ ε : S_q = looking ∧ ¬L_q ∧ ¬T_q` — the committee is free.
const F_FREE: u8 = 1 << 2;
/// `∀q ∈ ε : ¬(P_q = ε ∧ T_q ∧ S_q = looking)` — **no** token holder pins
/// `ε`: the negation of the `TPointingEdges` membership test.
const F_UNPINNED: u8 = 1 << 3;
/// `∀q ∈ ε : P_q ≠ ε ∨ S_q ≠ waiting` — nobody still waits on `ε` (the
/// quantified part of CC2's `LeaveMeeting`).
const F_NOWAIT: u8 = 1 << 4;

impl Quantified<5> for Cc2State {
    fn falsifies(&self, points: bool) -> u8 {
        let mut f = 0;
        if !(points && matches!(self.s, Status::Looking | Status::Waiting)) {
            f |= F_READY;
        }
        if !(points && matches!(self.s, Status::Waiting | Status::Done)) {
            f |= F_MEETING;
        }
        if !(self.s == Status::Looking && !self.l && !self.t) {
            f |= F_FREE;
        }
        if points && self.t && self.s == Status::Looking {
            f |= F_UNPINNED;
        }
        if points && self.s == Status::Waiting {
            f |= F_NOWAIT;
        }
        f
    }
}

/// The committee-fact mirror of CC2/CC3 (the twin of `Cc1Facts` — see
/// `cc1.rs`). No per-edge max-token slot is needed: free committees exclude
/// announced holders by definition, so the local maximum ranges over plain
/// members, and the Step12 follow target is only derived inside `execute`
/// (off the evaluation hot path).
#[derive(Clone, Debug, Default)]
struct Cc2Facts {
    edges: EdgeFacts<5>,
    /// Processes whose pointer changed since the last flush.
    repointed: Vec<usize>,
}

/// Algorithm CC2 (or CC3, depending on the selector), parameterized by the
/// committee-choice strategy used for *free* committees (Step13).
#[derive(Clone, Debug, Default)]
pub struct Cc2<Sel = MinEdgeSelector, Ch = MinSizeFirst> {
    selector: Sel,
    choice: Ch,
    /// Evaluate guards one by one through the per-guard reference instead
    /// of the cascade — the `full_scan` oracle's evaluator (bit-identical,
    /// just slower).
    reference_eval: bool,
    facts: Cc2Facts,
}

/// Algorithm CC3 = CC2 with the round-robin selector.
pub type Cc3<Ch = MinSizeFirst> = Cc2<RoundRobinSelector, Ch>;

impl Cc2<MinEdgeSelector, MinSizeFirst> {
    /// CC2 with its default selectors.
    pub fn new() -> Self {
        Cc2::default()
    }
}

impl Cc3<MinSizeFirst> {
    /// CC3 (committee fairness) with the default free-committee choice.
    pub fn new_cc3() -> Self {
        Cc2::with_strategies(RoundRobinSelector, MinSizeFirst)
    }
}

impl<Sel: Selector, Ch: EdgeChoice> Cc2<Sel, Ch> {
    /// CC2/CC3 with explicit strategies.
    pub fn with_strategies(selector: Sel, choice: Ch) -> Self {
        Cc2 {
            selector,
            choice,
            reference_eval: false,
            facts: Cc2Facts::default(),
        }
    }

    /// `FreeEdges_p = {ε ∈ E_p | ∀q ∈ ε : (S_q = looking ∧ ¬L_q ∧ ¬T_q)}`.
    pub fn free_edges<E: ?Sized, A: StateAccess<Cc2State> + ?Sized>(
        ctx: &Ctx<'_, Cc2State, E, A>,
    ) -> Vec<EdgeId> {
        ctx.h()
            .incident(ctx.me())
            .iter()
            .copied()
            .filter(|&e| {
                ctx.h().members(e).iter().all(|&q| {
                    let s = ctx.state_of(q);
                    s.s == Status::Looking && !s.l && !s.t
                })
            })
            .collect()
    }

    /// `TPointingEdges_p = {ε ∈ E_p | ∃q ∈ ε : (P_q = ε ∧ T_q ∧ S_q = looking)}`.
    pub fn t_pointing_edges<E: ?Sized, A: StateAccess<Cc2State> + ?Sized>(
        ctx: &Ctx<'_, Cc2State, E, A>,
    ) -> Vec<EdgeId> {
        ctx.h()
            .incident(ctx.me())
            .iter()
            .copied()
            .filter(|&e| {
                ctx.h().members(e).iter().any(|&q| {
                    let s = ctx.state_of(q);
                    s.p == Some(e) && s.t && s.s == Status::Looking
                })
            })
            .collect()
    }

    /// `Locked(p) ≡ TPointingEdges_p ≠ ∅`.
    pub fn locked<E: ?Sized, A: StateAccess<Cc2State> + ?Sized>(
        ctx: &Ctx<'_, Cc2State, E, A>,
    ) -> bool {
        !Self::t_pointing_edges(ctx).is_empty()
    }

    /// The committee pinned by the highest-identifier announced token holder
    /// visible to `p` — the well-defined refinement of the paper's
    /// `P_max(TPointingNodes_p)` statement (see DESIGN.md: with multiple
    /// transient tokens, the max member of a t-pointing edge need not be the
    /// holder, so we follow the max *witness* instead).
    fn followed_edge<E: ?Sized, A: StateAccess<Cc2State> + ?Sized>(
        ctx: &Ctx<'_, Cc2State, E, A>,
    ) -> Option<EdgeId> {
        let mut best: Option<(sscc_hypergraph::ProcessId, EdgeId)> = None;
        for &e in &Self::t_pointing_edges(ctx) {
            for &q in ctx.h().members(e) {
                let s = ctx.state_of(q);
                if s.p == Some(e) && s.t && s.s == Status::Looking {
                    let id = ctx.h().id(q);
                    if best.is_none_or(|(b, _)| id > b) {
                        best = Some((id, e));
                    }
                }
            }
        }
        best.map(|(_, e)| e)
    }

    /// The free nodes and the local maximum among them.
    fn max_free_node<E: ?Sized, A: StateAccess<Cc2State> + ?Sized>(
        ctx: &Ctx<'_, Cc2State, E, A>,
    ) -> Option<usize> {
        let mut best: Option<usize> = None;
        for &e in &Self::free_edges(ctx) {
            for &q in ctx.h().members(e) {
                if best.is_none_or(|b| ctx.h().id(q) > ctx.h().id(b)) {
                    best = Some(q);
                }
            }
        }
        best
    }

    /// `LocalMax(p) ≡ p = max(FreeNodes_p)`.
    pub fn local_max<E: ?Sized, A: StateAccess<Cc2State> + ?Sized>(
        ctx: &Ctx<'_, Cc2State, E, A>,
    ) -> bool {
        Self::max_free_node(ctx) == Some(ctx.me())
    }

    /// `LeaveMeeting(p) ≡ ∃ε : P_p = ε ∧ S_p = done ∧
    ///  ∀q ∈ ε : (P_q = ε ⇒ S_q ≠ waiting)`.
    pub fn leave_meeting<E: ?Sized, A: StateAccess<Cc2State> + ?Sized>(
        ctx: &Ctx<'_, Cc2State, E, A>,
    ) -> bool {
        let st = ctx.my_state();
        if st.s != Status::Done {
            return false;
        }
        let Some(e) = st.p else { return false };
        if !ctx.h().is_member(ctx.me(), e) {
            return false;
        }
        ctx.h()
            .members(e)
            .iter()
            .all(|&q| ctx.state_of(q).p != Some(e) || ctx.state_of(q).s != Status::Waiting)
    }

    /// `Correct(p)` (Lemma 8's closure predicate).
    pub fn correct<E: ?Sized, A: StateAccess<Cc2State> + ?Sized>(
        ctx: &Ctx<'_, Cc2State, E, A>,
    ) -> bool {
        let st = ctx.my_state();
        let wait_ok = st.s != Status::Waiting || predicates::ready(ctx) || predicates::meeting(ctx);
        let done_ok = st.s != Status::Done || predicates::meeting(ctx) || Self::leave_meeting(ctx);
        wait_ok && done_ok
    }

    /// `MaxToFreeEdge(p)` (guard of Step13).
    fn max_to_free_edge<E: ?Sized, A: StateAccess<Cc2State> + ?Sized>(
        &self,
        ctx: &Ctx<'_, Cc2State, E, A>,
        token: bool,
    ) -> bool {
        if token || Self::locked(ctx) {
            return false;
        }
        let free = Self::free_edges(ctx);
        !free.is_empty()
            && Self::local_max(ctx)
            && !predicates::ready(ctx)
            && !ctx.my_state().p.is_some_and(|e| free.contains(&e))
    }

    /// `JoinLocalMax(p)` (guard of Step14).
    fn join_local_max<E: ?Sized, A: StateAccess<Cc2State> + ?Sized>(
        &self,
        ctx: &Ctx<'_, Cc2State, E, A>,
        token: bool,
    ) -> bool {
        if token || Self::locked(ctx) {
            return false;
        }
        let free = Self::free_edges(ctx);
        if free.is_empty() || Self::local_max(ctx) || predicates::ready(ctx) {
            return false;
        }
        let Some(mx) = Self::max_free_node(ctx) else {
            return false;
        };
        match ctx.state_of(mx).p {
            Some(e) => free.contains(&e) && ctx.my_state().p != Some(e),
            None => false,
        }
    }

    /// `TokenHolderToEdge(p)` (guard of Step11).
    fn token_holder_to_edge<E: ?Sized, A: StateAccess<Cc2State> + ?Sized>(
        &self,
        ctx: &Ctx<'_, Cc2State, E, A>,
        token: bool,
    ) -> bool {
        token
            && ctx.my_state().s == Status::Looking
            && !predicates::ready(ctx)
            && !self.selector.acceptable(ctx.h(), ctx.me(), ctx.my_state())
    }

    /// `JoinTokenHolder(p)` (guard of Step12).
    fn join_token_holder<E: ?Sized, A: StateAccess<Cc2State> + ?Sized>(
        &self,
        ctx: &Ctx<'_, Cc2State, E, A>,
        token: bool,
    ) -> bool {
        if token || ctx.my_state().s != Status::Looking || predicates::ready(ctx) {
            return false;
        }
        let tpe = Self::t_pointing_edges(ctx);
        !tpe.is_empty() && !ctx.my_state().p.is_some_and(|e| tpe.contains(&e))
    }

    /// The guard cascade, highest priority first (the order of
    /// [`Cc2::reference`]), allocation-free: every committee-shared predicate
    /// (`Ready`, `Meeting`, `FreeEdges`, `TPointingEdges`, the quantified
    /// part of `LeaveMeeting`) is a bit of `facts(e)` — read from the
    /// [`Cc2Facts`] mirror while it is live, by member scan otherwise. Dense
    /// order is identifier order, so the local maximum compares dense indices.
    fn cascade<E: RequestEnv + ?Sized, A: StateAccess<Cc2State> + ?Sized>(
        &self,
        ctx: &Ctx<'_, Cc2State, E, A>,
        token: bool,
        facts: impl Fn(EdgeId) -> u8,
    ) -> Option<ActionId> {
        use action::*;
        let st = ctx.my_state();
        let h = ctx.h();
        let me = ctx.me();
        let (mut ready, mut meeting) = (false, false);
        let (mut any_free, mut p_free) = (false, false);
        let (mut any_tpe, mut p_tpe) = (false, false);
        let mut max_free: Option<usize> = None;
        for &e in h.incident(me) {
            let b = facts(e);
            ready |= b & F_READY != 0;
            meeting |= b & F_MEETING != 0;
            if b & F_FREE != 0 {
                any_free = true;
                p_free |= st.p == Some(e);
                let mm = h.max_member(e);
                if max_free.is_none_or(|b| mm > b) {
                    max_free = Some(mm);
                }
            }
            if b & F_UNPINNED == 0 {
                any_tpe = true;
                p_tpe |= st.p == Some(e);
            }
        }
        let locked = any_tpe;
        let lm = st.s == Status::Done
            && st
                .p
                .is_some_and(|e| h.is_member(me, e) && facts(e) & F_NOWAIT != 0);
        let wait_ok = st.s != Status::Waiting || ready || meeting;
        let done_ok = st.s != Status::Done || meeting || lm;
        if !(wait_ok && done_ok) {
            return Some(STAB);
        }
        if lm && ctx.env().request_out(me) {
            return Some(STEP4);
        }
        if meeting && st.s == Status::Waiting {
            return Some(STEP3);
        }
        if ready && st.s == Status::Looking {
            return Some(STEP2);
        }
        if token != st.t {
            return Some(TOKEN);
        }
        if !token && !locked && any_free && !ready {
            if max_free == Some(me) {
                // Step13: the local max points to a free committee it does
                // not already point to.
                if !p_free {
                    return Some(STEP13);
                }
            } else if let Some(e) = max_free.and_then(|mx| ctx.state_of(mx).p) {
                // Step14: follow the local max's pointer if it is one of
                // *our* free committees and not already ours.
                if st.p != Some(e) && h.is_member(me, e) && facts(e) & F_FREE != 0 {
                    return Some(STEP14);
                }
            }
        }
        if !token && st.s == Status::Looking && !ready && any_tpe && !p_tpe {
            return Some(STEP12);
        }
        if token && st.s == Status::Looking && !ready && !self.selector.acceptable(h, me, st) {
            return Some(STEP11);
        }
        if locked != st.l {
            return Some(LOCK);
        }
        None
    }

    /// The per-guard reference: the paper's guards evaluated one by one,
    /// the enabled action latest in code order wins.
    fn reference<E: RequestEnv + ?Sized, A: StateAccess<Cc2State> + ?Sized>(
        &self,
        ctx: &Ctx<'_, Cc2State, E, A>,
        token: bool,
    ) -> Option<ActionId> {
        (0..action::COUNT)
            .rev()
            .find(|&a| self.guard(ctx, token, a))
    }

    fn guard<E: RequestEnv + ?Sized, A: StateAccess<Cc2State> + ?Sized>(
        &self,
        ctx: &Ctx<'_, Cc2State, E, A>,
        token: bool,
        a: ActionId,
    ) -> bool {
        use action::*;
        let st = ctx.my_state();
        match a {
            LOCK => Self::locked(ctx) != st.l,
            STEP11 => self.token_holder_to_edge(ctx, token),
            STEP12 => self.join_token_holder(ctx, token),
            STEP13 => self.max_to_free_edge(ctx, token),
            STEP14 => self.join_local_max(ctx, token),
            TOKEN => token != st.t,
            STEP2 => predicates::ready(ctx) && st.s == Status::Looking,
            STEP3 => predicates::meeting(ctx) && st.s == Status::Waiting,
            STEP4 => Self::leave_meeting(ctx) && ctx.env().request_out(ctx.me()),
            STAB => !Self::correct(ctx),
            _ => unreachable!("unknown CC2 action {a}"),
        }
    }
}

impl<Sel: Selector, Ch: EdgeChoice> CommitteeAlgorithm for Cc2<Sel, Ch> {
    type State = Cc2State;

    fn action_count(&self) -> usize {
        action::COUNT
    }

    fn action_name(&self, a: ActionId) -> String {
        use action::*;
        match a {
            LOCK => "Lock",
            STEP11 => "Step11",
            STEP12 => "Step12",
            STEP13 => "Step13",
            STEP14 => "Step14",
            TOKEN => "Token",
            STEP2 => "Step2",
            STEP3 => "Step3",
            STEP4 => "Step4",
            STAB => "Stab",
            _ => unreachable!("unknown CC2 action {a}"),
        }
        .to_string()
    }

    fn action_class(&self, a: ActionId) -> ActionClass {
        use action::*;
        match a {
            LOCK => ActionClass::Lock,
            STEP11 | STEP12 | STEP13 | STEP14 => ActionClass::Point,
            TOKEN => ActionClass::Token,
            STEP2 => ActionClass::Wait,
            STEP3 => ActionClass::Essential,
            STEP4 => ActionClass::Leave,
            STAB => ActionClass::Stabilize,
            _ => unreachable!("unknown CC2 action {a}"),
        }
    }

    fn initial_state(&self, _h: &Hypergraph, _me: usize) -> Cc2State {
        Cc2State::looking()
    }

    fn priority_action<E: RequestEnv + ?Sized, A: StateAccess<Cc2State> + ?Sized>(
        &self,
        ctx: &Ctx<'_, Cc2State, E, A>,
        token: bool,
    ) -> Option<ActionId> {
        if self.reference_eval {
            return self.reference(ctx, token);
        }
        let fast = if self.facts.edges.live() {
            self.cascade(ctx, token, |e| self.facts.edges.bits(e))
        } else {
            let (h, states) = (ctx.h(), ctx.accessor());
            self.cascade(ctx, token, |e| facts::scan::<Cc2State, 5, _>(h, states, e))
        };
        debug_assert_eq!(
            fast,
            self.reference(ctx, token),
            "guard cascade diverged from the per-guard reference"
        );
        fast
    }

    fn set_reference_eval(&mut self, on: bool) {
        self.reference_eval = on;
    }

    fn rebuild_facts<X: StateAccess<Cc2State> + ?Sized>(&mut self, h: &Hypergraph, states: &X) {
        self.facts.edges.rebuild(h, states);
        self.facts.repointed.clear();
    }

    fn drop_facts(&mut self) {
        self.facts.edges.invalidate();
    }

    fn facts_in_sync<X: StateAccess<Cc2State> + ?Sized>(&self, h: &Hypergraph, states: &X) -> bool {
        let mut fresh = EdgeFacts::default();
        fresh.rebuild(h, states);
        !self.facts.edges.live() || self.facts.edges.same_as(&fresh)
    }

    #[inline]
    fn apply_write<X: StateAccess<Cc2State> + ?Sized>(
        &mut self,
        h: &Hypergraph,
        states: &X,
        p: usize,
        old: &Cc2State,
    ) {
        let new = states.state(p);
        self.facts.edges.apply(h, p, old, new);
        if old.p != new.p {
            self.facts.repointed.push(p);
        }
    }

    #[inline]
    fn flush_facts<X: StateAccess<Cc2State> + ?Sized>(
        &mut self,
        h: &Hypergraph,
        _states: &X,
        mut mark: impl FnMut(usize),
    ) {
        let Cc2Facts { edges, repointed } = &mut self.facts;
        let mut members = |e: EdgeId| h.members(e).iter().for_each(|&q| mark(q));
        // A guard reads the facts of its incident committees …
        edges.flush(|e, was, now| {
            if was != now {
                members(e);
            }
        });
        // … and the pointer of its local maximum (Step14): the max member
        // of a free committee.
        for q in repointed.drain(..) {
            for &e in h.incident(q) {
                if edges.bits(e) & F_FREE != 0 && h.max_member(e) == q {
                    members(e);
                }
            }
        }
    }

    fn repair_state(
        &self,
        h: &Hypergraph,
        delta: &sscc_hypergraph::MutationDelta,
        me: usize,
        st: &mut Cc2State,
    ) -> bool {
        let before = *st;
        st.p =
            st.p.and_then(|e| delta.remap_edge(e))
                .filter(|&e| h.is_member(me, e));
        // Normalize the CC3 cursor into the (possibly shrunk) incident
        // list. The selector already reduces modulo `|E_p|` defensively, so
        // this only canonicalizes the representation — it never changes
        // which committee the cursor targets.
        let inc = h.incident(me).len() as u16;
        if inc > 0 && st.cursor >= inc {
            st.cursor %= inc;
        }
        *st != before
    }

    fn repair_facts<X: StateAccess<Cc2State> + ?Sized>(
        &mut self,
        h: &Hypergraph,
        delta: &sscc_hypergraph::MutationDelta,
        states: &X,
        repaired: &[usize],
    ) -> bool {
        self.facts.edges.repair(h, delta, states, repaired)
    }

    fn committee_visible_changed(&self, old: &Cc2State, new: &Cc2State) -> bool {
        // The CC3 round-robin cursor is consulted only by its own process
        // (the selector's `target`/`acceptable` read `my_state`), so a
        // cursor-only change perturbs no neighbor guard and no edge fact.
        old.s != new.s || old.p != new.p || old.t != new.t || old.l != new.l
    }

    fn execute<E: RequestEnv + ?Sized, A: StateAccess<Cc2State> + ?Sized>(
        &self,
        ctx: &Ctx<'_, Cc2State, E, A>,
        a: ActionId,
        token: bool,
    ) -> (Cc2State, bool) {
        use action::*;
        debug_assert!(self.guard(ctx, token, a), "executing a disabled action");
        let mut st = *ctx.my_state();
        let mut release = false;
        match a {
            LOCK => {
                st.l = Self::locked(ctx);
            }
            STEP11 => {
                st.p = Some(self.selector.target(ctx.h(), ctx.me(), &st));
            }
            STEP12 => {
                st.p = Self::followed_edge(ctx);
                debug_assert!(st.p.is_some(), "guard: TPointingEdges non-empty");
            }
            STEP13 => {
                let free = Self::free_edges(ctx);
                st.p = Some(self.choice.choose(ctx.h(), ctx.me(), &free));
            }
            STEP14 => {
                let mx = Self::max_free_node(ctx).expect("guard: free nodes exist");
                st.p = ctx.state_of(mx).p;
            }
            TOKEN => {
                st.t = token;
            }
            STEP2 => {
                st.s = Status::Waiting;
            }
            STEP3 => {
                // 〈EssentialDiscussion〉 — observed via ActionClass::Essential.
                st.s = Status::Done;
            }
            STEP4 => {
                st.s = Status::Looking;
                st.p = None;
                st.t = false;
                release = token;
                if release {
                    st.cursor = self.selector.advance(ctx.h(), ctx.me(), st.cursor);
                }
            }
            STAB => {
                st.s = Status::Looking;
                st.p = None;
            }
            _ => unreachable!("unknown CC2 action {a}"),
        }
        (st, release)
    }
}

impl ArbitraryState for Cc2State {
    fn arbitrary(rng: &mut rand::rngs::StdRng, h: &Hypergraph, me: usize) -> Self {
        use rand::Rng as _;
        let s = match rng.random_range(0..3) {
            0 => Status::Looking,
            1 => Status::Waiting,
            _ => Status::Done,
        };
        let inc = h.incident(me);
        let p = if rng.random_bool(0.3) {
            None
        } else {
            Some(inc[rng.random_range(0..inc.len())])
        };
        Cc2State {
            s,
            p,
            t: rng.random_bool(0.5),
            l: rng.random_bool(0.5),
            cursor: rng.random_range(0..inc.len()) as u16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::action::*;
    use super::*;
    use crate::oracle::RequestFlags;
    use sscc_hypergraph::generators;

    type S = Cc2State;

    fn st(s: Status, p: Option<u32>, t: bool, l: bool) -> S {
        S {
            s,
            p: p.map(EdgeId),
            t,
            l,
            cursor: 0,
        }
    }

    /// Figure 4 configuration: e0={1,2,5,8}, e1={3,4,5}, e2={6,7,9},
    /// e3={8,9}. Meeting {3,4,5} held (waiting); professor 1 holds the
    /// token, pins e0; 1,2,8 point e0; members of e0 locked.
    fn fig4_states(h: &Hypergraph) -> Vec<S> {
        let mut states = vec![S::looking(); h.n()];
        let d = |raw: u32| h.dense_of(raw);
        states[d(1)] = st(Status::Looking, Some(0), true, true);
        states[d(2)] = st(Status::Looking, Some(0), false, true);
        states[d(8)] = st(Status::Looking, Some(0), false, true);
        states[d(5)] = st(Status::Waiting, Some(1), false, true);
        states[d(3)] = st(Status::Waiting, Some(1), false, false);
        states[d(4)] = st(Status::Waiting, Some(1), false, false);
        // 6, 7, 9 looking, unlocked, pointer ⊥ (default).
        states
    }

    #[test]
    fn fig4_professor9_selects_6_7_9_via_step13() {
        // The paper's Figure 4 punchline: thanks to L_8, professor 9 knows
        // not to prioritize {8,9} and picks {6,7,9} by Step13.
        let h = generators::fig4();
        let states = fig4_states(&h);
        let env = RequestFlags::new(h.n());
        let cc = Cc2::new();
        let p9 = h.dense_of(9);
        let ctx = Ctx::new(&h, p9, &states, &env);
        assert!(!Cc2::<MinEdgeSelector, MinSizeFirst>::locked(&ctx));
        assert_eq!(
            Cc2::<MinEdgeSelector, MinSizeFirst>::free_edges(&ctx),
            vec![EdgeId(2)],
            "{{8,9}} is not free (8 is locked); {{6,7,9}} is"
        );
        assert_eq!(cc.priority_action(&ctx, false), Some(STEP13));
        let (next, _) = cc.execute(&ctx, STEP13, false);
        assert_eq!(next.p, Some(EdgeId(2)), "9 selects {{6,7,9}}");
    }

    #[test]
    fn fig4_locked_members_stick_with_pinned_committee() {
        let h = generators::fig4();
        let states = fig4_states(&h);
        let env = RequestFlags::new(h.n());
        let cc = Cc2::new();
        // 2 points the pinned committee already: every pointer action is
        // disabled (it must wait for e0 to convene).
        let p2 = h.dense_of(2);
        let ctx = Ctx::new(&h, p2, &states, &env);
        assert!(Cc2::<MinEdgeSelector, MinSizeFirst>::locked(&ctx));
        assert_eq!(cc.priority_action(&ctx, false), None, "2 sticks");
        // The token holder 1 also sticks (its pin is acceptable).
        let p1 = h.dense_of(1);
        let ctx = Ctx::new(&h, p1, &states, &env);
        assert_eq!(cc.priority_action(&ctx, true), None, "1 waits for e0");
    }

    #[test]
    fn fig4_unpointed_locked_member_joins_token_holder() {
        // Erase 8's pointer: Step12 re-points it at the pinned committee.
        let h = generators::fig4();
        let mut states = fig4_states(&h);
        let p8 = h.dense_of(8);
        states[p8].p = None;
        let env = RequestFlags::new(h.n());
        let cc = Cc2::new();
        let ctx = Ctx::new(&h, p8, &states, &env);
        assert_eq!(cc.priority_action(&ctx, false), Some(STEP12));
        let (next, _) = cc.execute(&ctx, STEP12, false);
        assert_eq!(next.p, Some(EdgeId(0)), "8 follows the token holder");
    }

    #[test]
    fn lock_bit_tracks_locked_predicate() {
        let h = generators::fig4();
        let mut states = fig4_states(&h);
        // 6 should not be locked; force its bit and watch Lock fix it.
        let p6 = h.dense_of(6);
        states[p6].l = true;
        let env = RequestFlags::new(h.n());
        let cc = Cc2::new();
        let ctx = Ctx::new(&h, p6, &states, &env);
        assert_eq!(cc.priority_action(&ctx, false), Some(LOCK));
        let (next, _) = cc.execute(&ctx, LOCK, false);
        assert!(!next.l);
    }

    #[test]
    fn token_holder_pins_min_edge() {
        // All looking on fig1; the token holder 1 pins its smallest
        // committee {1,2} (not the 4-member one).
        let h = generators::fig1();
        let states = vec![S::looking(); h.n()];
        let env = RequestFlags::new(h.n());
        let cc = Cc2::new();
        let p1 = h.dense_of(1);
        let ctx = Ctx::new(&h, p1, &states, &env);
        // Token priority: announce first (Token > Step11 in priority).
        assert_eq!(cc.priority_action(&ctx, true), Some(TOKEN));
        let mut states = states;
        states[p1].t = true;
        let ctx = Ctx::new(&h, p1, &states, &env);
        assert_eq!(cc.priority_action(&ctx, true), Some(STEP11));
        let (next, _) = cc.execute(&ctx, STEP11, true);
        assert_eq!(next.p, Some(EdgeId(0)), "pins {{1,2}}, the min edge");
    }

    #[test]
    fn cc3_round_robin_cursor_advances_on_release() {
        let h = generators::fig1();
        let cc = Cc3::new_cc3();
        let p2 = h.dense_of(2); // committees e0, e1, e2
        let mut state = S::looking();
        // Pin target cycles through E_2 as the cursor advances.
        let seq: Vec<EdgeId> = (0..4)
            .map(|i| {
                state.cursor = i;
                RoundRobinSelector.target(&h, p2, &state)
            })
            .collect();
        assert_eq!(seq, vec![EdgeId(0), EdgeId(1), EdgeId(2), EdgeId(0)]);

        // Leaving a meeting with the token advances the cursor.
        let mut states = vec![S::looking(); h.n()];
        states[p2] = st(Status::Done, Some(0), true, false);
        states[h.dense_of(1)] = st(Status::Done, Some(0), false, false);
        let mut env = RequestFlags::new(h.n());
        env.set_out(p2, true);
        let ctx = Ctx::new(&h, p2, &states, &env);
        assert_eq!(cc.priority_action(&ctx, true), Some(STEP4));
        let (next, release) = cc.execute(&ctx, STEP4, true);
        assert!(release);
        assert_eq!(next.cursor, 1, "cursor moved to the next committee");
        assert_eq!(next.s, Status::Looking);
    }

    #[test]
    fn stab_fixes_corrupted_waiting() {
        let h = generators::fig1();
        let mut states = vec![S::looking(); h.n()];
        states[0] = st(Status::Waiting, None, false, false);
        let env = RequestFlags::new(h.n());
        let cc = Cc2::new();
        let ctx = Ctx::new(&h, 0, &states, &env);
        assert!(!Cc2::<MinEdgeSelector, MinSizeFirst>::correct(&ctx));
        assert_eq!(cc.priority_action(&ctx, false), Some(STAB));
        let (next, _) = cc.execute(&ctx, STAB, false);
        assert_eq!((next.s, next.p), (Status::Looking, None));
    }

    #[test]
    fn leave_meeting_allows_departure_after_peers_left() {
        // CC2's LeaveMeeting tolerates peers having already left (P_q ≠ ε):
        // done + nobody waiting on ε suffices.
        let h = generators::fig1();
        let mut states = vec![S::looking(); h.n()];
        let (p3, p6) = (h.dense_of(3), h.dense_of(6));
        states[p3] = st(Status::Done, Some(3), false, false); // e3 = {3,6}
        states[p6] = S::looking(); // 6 already left
        let mut env = RequestFlags::new(h.n());
        env.set_out(p3, true);
        let cc = Cc2::new();
        let ctx = Ctx::new(&h, p3, &states, &env);
        assert!(Cc2::<MinEdgeSelector, MinSizeFirst>::leave_meeting(&ctx));
        assert_eq!(cc.priority_action(&ctx, false), Some(STEP4));
    }

    #[test]
    fn done_member_blocked_while_peer_waits() {
        let h = generators::fig1();
        let mut states = vec![S::looking(); h.n()];
        let (p3, p6) = (h.dense_of(3), h.dense_of(6));
        states[p3] = st(Status::Done, Some(3), false, false);
        states[p6] = st(Status::Waiting, Some(3), false, false);
        let mut env = RequestFlags::new(h.n());
        env.set_out(p3, true);
        let cc = Cc2::new();
        let ctx = Ctx::new(&h, p3, &states, &env);
        assert!(!Cc2::<MinEdgeSelector, MinSizeFirst>::leave_meeting(&ctx));
        assert!(predicates::meeting(&ctx), "still a live meeting");
        assert_eq!(cc.priority_action(&ctx, false), None);
    }

    #[test]
    fn remark4_step_guards_mutually_exclusive() {
        use rand::SeedableRng as _;
        let h = generators::fig4();
        let cc = Cc2::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for _ in 0..500 {
            let states: Vec<S> = (0..h.n()).map(|p| S::arbitrary(&mut rng, &h, p)).collect();
            let mut env = RequestFlags::new(h.n());
            for p in 0..h.n() {
                env.set_out(p, true);
            }
            for p in 0..h.n() {
                let ctx = Ctx::new(&h, p, &states, &env);
                for token in [false, true] {
                    let steps = [STEP11, STEP12, STEP13, STEP14, STEP2, STEP3, STEP4];
                    let on: Vec<ActionId> = steps
                        .iter()
                        .copied()
                        .filter(|&a| cc.guard(&ctx, token, a))
                        .collect();
                    assert!(on.len() <= 1, "Remark 4 violated at p{p}: {on:?}");
                }
            }
        }
    }

    #[test]
    fn value_level_mirror_matches_reference_under_surgery() {
        // CC2 and CC3 twins of cc1's mirror test: random configurations
        // with incremental single-process surgery — the cascade over the
        // mirror must agree with the per-guard reference everywhere, and the
        // mirror kept by counter deltas must equal a from-scratch rebuild.
        use rand::SeedableRng as _;
        fn run<Sel: Selector, Ch: EdgeChoice>(mut cc: Cc2<Sel, Ch>, seed: u64) {
            let h = generators::fig4();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut states: Vec<S> = (0..h.n()).map(|p| S::arbitrary(&mut rng, &h, p)).collect();
            cc.rebuild_facts(&h, states.as_slice());
            let mut env = RequestFlags::new(h.n());
            for p in 0..h.n() {
                env.set_out(p, true);
            }
            for round in 0..200 {
                for p in 0..h.n() {
                    let ctx = Ctx::new(&h, p, &states, &env);
                    for token in [false, true] {
                        let fast = cc.priority_action(&ctx, token);
                        let reference = cc.reference(&ctx, token);
                        assert_eq!(fast, reference, "round {round} p{p} token {token}");
                    }
                }
                let p = (round * 11 + 3) % h.n();
                let old = std::mem::replace(&mut states[p], S::arbitrary(&mut rng, &h, p));
                if cc.committee_visible_changed(&old, &states[p]) {
                    cc.apply_write(&h, states.as_slice(), p, &old);
                }
                cc.flush_facts(&h, states.as_slice(), |_| {});
                assert!(cc.facts_in_sync(&h, states.as_slice()), "round {round}");
            }
        }
        run(Cc2::new(), 11);
        run(Cc3::new_cc3(), 12);
    }

    #[test]
    fn fact_sources_are_interchangeable() {
        // The seam the one cascade stands on (cc1's twin, for CC2 and CC3):
        // a member scan derives exactly the fact byte the rebuilt mirror
        // keeps, so the cascade picks the same action with the mirror live
        // and with it dropped.
        use rand::{Rng as _, SeedableRng as _};
        fn run<Sel: Selector, Ch: EdgeChoice>(mut cc: Cc2<Sel, Ch>, h: &Hypergraph, seed: u64) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            for boot in 0..20 {
                let states: Vec<S> = (0..h.n()).map(|p| S::arbitrary(&mut rng, h, p)).collect();
                let mut env = RequestFlags::new(h.n());
                for p in 0..h.n() {
                    env.set_out(p, rng.random_bool(0.5));
                }
                cc.rebuild_facts(h, states.as_slice());
                for e in h.edge_ids() {
                    assert_eq!(
                        facts::scan::<S, 5, _>(h, states.as_slice(), e),
                        cc.facts.edges.bits(e),
                        "n{} boot {boot} e{}",
                        h.n(),
                        e.index()
                    );
                }
                let actions = |cc: &Cc2<Sel, Ch>| -> Vec<Option<ActionId>> {
                    (0..h.n())
                        .flat_map(|p| [false, true].map(|t| (p, t)))
                        .map(|(p, token)| cc.priority_action(&Ctx::new(h, p, &states, &env), token))
                        .collect()
                };
                let live = actions(&cc);
                cc.drop_facts();
                assert_eq!(live, actions(&cc), "n{} boot {boot}", h.n());
            }
        }
        for h in [
            generators::fig1(),
            generators::fig2(),
            generators::ring(24, 2),
            generators::power_law(96, 144, 6), // a hub of 26 neighbours
        ] {
            run(Cc2::new(), &h, h.n() as u64);
            run(Cc3::new_cc3(), &h, h.n() as u64 + 1);
        }
    }

    #[test]
    fn free_edges_exclude_token_and_locked_members() {
        let h = generators::fig4();
        let mut states = vec![S::looking(); h.n()];
        states[h.dense_of(8)].t = true; // announced token at 8
        let env = RequestFlags::new(h.n());
        let p9 = h.dense_of(9);
        let ctx: Ctx<'_, S, RequestFlags> = Ctx::new(&h, p9, &states, &env);
        assert_eq!(
            Cc2::<MinEdgeSelector, MinSizeFirst>::free_edges(&ctx),
            vec![EdgeId(2)],
            "{{8,9}} excluded because T_8"
        );
    }
}
