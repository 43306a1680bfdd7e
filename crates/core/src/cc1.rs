//! Algorithm `CC1` (paper §4, Algorithm 1): snap-stabilizing 2-phase
//! committee coordination with **Maximal Concurrency**.
//!
//! Action list in code order (priority = position, *later is higher*):
//!
//! ```text
//! Step1   :: RequestIn(p) ∧ S_p = idle            -> S := looking; P := ⊥
//! Step21  :: MaxToFreeEdge(p)                     -> P := ε ∈ FreeEdges_p
//! Step22  :: JoinLocalMax(p)                      -> P := P_max(Cands_p)
//! Token1  :: Token(p) ≠ T_p                       -> T := Token(p)
//! Token2  :: Useless(p)                           -> ReleaseToken; T := false
//! Step31  :: Ready(p) ∧ S_p = looking             -> S := waiting
//! Step32  :: Meeting(p) ∧ S_p = waiting           -> 〈Essential〉; S := done
//! Step4   :: LeaveMeeting(p) ∧ RequestOut(p)      -> S := idle; P := ⊥;
//!                                                    release if token; T := false
//! Stab1   :: ¬Correct(p) ∧ S_p = idle             -> P := ⊥
//! Stab2   :: ¬Correct(p) ∧ S_p ≠ idle             -> S := looking; P := ⊥
//! ```
//!
//! The token is *advisory*: it prioritizes who proposes a committee
//! (`TFreeNodes` beat plain `FreeNodes` in `Cands_p`) and is immediately
//! released by holders that cannot use it (`Token2`) — that release is
//! precisely what buys Maximal Concurrency and forfeits fairness (§3.2).

use crate::algo::CommitteeAlgorithm;
use crate::choice::{EdgeChoice, MaxMembersDesc};
use crate::facts::{self, repair_scope, EdgeFacts, Quantified};
use crate::oracle::RequestEnv;
use crate::predicates;
use crate::status::{ActionClass, CommitteeView, Status};
use sscc_hypergraph::{EdgeId, Hypergraph};
use sscc_runtime::prelude::{ActionId, ArbitraryState, Ctx, StateAccess};

/// Per-process CC1 state: `S_p`, `P_p`, `T_p`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cc1State {
    /// Status `S_p ∈ {idle, looking, waiting, done}`.
    pub s: Status,
    /// Edge pointer `P_p ∈ E_p ∪ {⊥}`.
    pub p: Option<EdgeId>,
    /// Announced token bit `T_p`.
    pub t: bool,
}

impl Cc1State {
    /// The clean idle state.
    pub fn idle() -> Self {
        Cc1State {
            s: Status::Idle,
            p: None,
            t: false,
        }
    }
}

impl CommitteeView for Cc1State {
    fn status(&self) -> Status {
        self.s
    }
    fn pointer(&self) -> Option<EdgeId> {
        self.p
    }
    fn t_bit(&self) -> bool {
        self.t
    }
}

impl sscc_runtime::wire::StateCodec for Cc1State {
    fn encode(&self, out: &mut Vec<u8>) {
        self.s.encode(out);
        self.p.encode(out);
        self.t.encode(out);
    }

    fn decode(r: &mut sscc_runtime::wire::Reader) -> Option<Self> {
        Some(Cc1State {
            s: Status::decode(r)?,
            p: Option::<EdgeId>::decode(r)?,
            t: bool::decode(r)?,
        })
    }
}

/// Action indices, in code order.
pub mod action {
    use sscc_runtime::prelude::ActionId;
    /// `Step1`: start looking.
    pub const STEP1: ActionId = 0;
    /// `Step21`: local max points to a free committee.
    pub const STEP21: ActionId = 1;
    /// `Step22`: follow the local max's pointer.
    pub const STEP22: ActionId = 2;
    /// `Token1`: announce token possession.
    pub const TOKEN1: ActionId = 3;
    /// `Token2`: release a useless token.
    pub const TOKEN2: ActionId = 4;
    /// `Step31`: committee agreed — become waiting.
    pub const STEP31: ActionId = 5;
    /// `Step32`: essential discussion — become done.
    pub const STEP32: ActionId = 6;
    /// `Step4`: voluntarily leave the meeting.
    pub const STEP4: ActionId = 7;
    /// `Stab1`: correct a corrupted idle state.
    pub const STAB1: ActionId = 8;
    /// `Stab2`: correct a corrupted non-idle state.
    pub const STAB2: ActionId = 9;
    /// Total number of actions.
    pub const COUNT: usize = 10;
}

// Committee-fact bits of the mirror, one byte per edge. Each predicate
// quantifies over *all* members of the edge; a fact bit holds iff no member
// falsifies it (see `Quantified`).
/// `∀q ∈ ε : P_q = ε ∧ S_q ∈ {looking, waiting}` — the committee is ready.
const F_READY: u8 = 1 << 0;
/// `∀q ∈ ε : P_q = ε ∧ S_q ∈ {waiting, done}` — the committee is meeting.
pub(crate) const F_MEETING: u8 = 1 << 1;
/// `∀q ∈ ε : S_q = looking` — the committee is free.
const F_FREE: u8 = 1 << 2;
/// `∀q ∈ ε : P_q ≠ ε ∨ S_q = done` — members may leave the meeting.
const F_LEAVE: u8 = 1 << 3;

impl Quantified<4> for Cc1State {
    fn falsifies(&self, points: bool) -> u8 {
        let mut f = 0;
        if !(points && matches!(self.s, Status::Looking | Status::Waiting)) {
            f |= F_READY;
        }
        if !(points && matches!(self.s, Status::Waiting | Status::Done)) {
            f |= F_MEETING;
        }
        if self.s != Status::Looking {
            f |= F_FREE;
        }
        if points && self.s != Status::Done {
            f |= F_LEAVE;
        }
        f
    }
}

/// `max_t` slot of a committee none of whose members announces a token.
const NO_HOLDER: u32 = u32::MAX;

/// The committee-fact mirror of CC1: the counted fact bytes plus one "max
/// announced-token member" slot per edge, kept in sync with the committed
/// configuration through [`CommitteeAlgorithm::rebuild_facts`] /
/// [`CommitteeAlgorithm::apply_write`]. While it is live the guard cascade
/// tests these instead of re-scanning every member of every incident
/// committee on every guard evaluation, and
/// [`CommitteeAlgorithm::flush_facts`] reads off them which guards a step
/// can have changed.
#[derive(Clone, Debug, Default)]
struct Cc1Facts {
    edges: EdgeFacts<4>,
    /// Per-edge **max member with `T_q` set**, as a dense index
    /// ([`NO_HOLDER`] when no member announces a token). Dense order is
    /// identifier order, so the maximum dense member is the maximum-id
    /// member. Updated in place; the members are rescanned only when the
    /// current maximum drops its `T`.
    max_t: Vec<u32>,
    /// Edges whose `max_t` moved since the last flush (with repeats).
    t_moved: Vec<usize>,
    /// Processes whose pointer changed since the last flush.
    repointed: Vec<usize>,
}

impl Cc1Facts {
    /// Derive everything from the members of every committee.
    fn rebuild<X: StateAccess<Cc1State> + ?Sized>(&mut self, h: &Hypergraph, states: &X) {
        self.edges.rebuild(h, states);
        self.max_t.clear();
        self.max_t
            .extend(h.edge_ids().map(|e| Self::scan_max_t(h, states, e)));
        self.t_moved.clear();
        self.repointed.clear();
    }

    /// The max announcing member of `e`, by member scan (descending: the
    /// first announcer found is the maximum).
    fn scan_max_t<X: StateAccess<Cc1State> + ?Sized>(h: &Hypergraph, states: &X, e: EdgeId) -> u32 {
        h.members(e)
            .iter()
            .rev()
            .find(|&&q| states.state(q).t)
            .map_or(NO_HOLDER, |&q| q as u32)
    }

    /// `p` flipped its `T` bit (the new value is already in `states`).
    fn retoken<X: StateAccess<Cc1State> + ?Sized>(&mut self, h: &Hypergraph, states: &X, p: usize) {
        let announces = states.state(p).t;
        for &e in h.incident(p) {
            let slot = self.max_t[e.index()];
            let now = if announces {
                if slot == NO_HOLDER || (p as u32) > slot {
                    p as u32
                } else {
                    slot
                }
            } else if slot == p as u32 {
                Self::scan_max_t(h, states, e)
            } else {
                slot
            };
            if now != slot {
                self.t_moved.push(e.index());
                self.max_t[e.index()] = now;
            }
        }
    }
}

/// Algorithm CC1, parameterized by the deterministic committee-choice
/// strategy (see [`crate::choice`]).
#[derive(Clone, Debug, Default)]
pub struct Cc1<Ch = MaxMembersDesc> {
    choice: Ch,
    /// Evaluate guards one by one through the per-guard reference instead
    /// of the cascade — the `full_scan` oracle's evaluator (bit-identical,
    /// just slower).
    reference_eval: bool,
    facts: Cc1Facts,
}

impl Cc1<MaxMembersDesc> {
    /// CC1 with the default (Figure 3 compatible) choice strategy.
    pub fn new() -> Self {
        Self::with_choice(MaxMembersDesc)
    }
}

impl<Ch: EdgeChoice> Cc1<Ch> {
    /// CC1 with an explicit choice strategy.
    pub fn with_choice(choice: Ch) -> Self {
        Cc1 {
            choice,
            reference_eval: false,
            facts: Cc1Facts::default(),
        }
    }

    /// `FreeEdges_p = {ε ∈ E_p | ∀q ∈ ε : S_q = looking}`.
    pub fn free_edges<E: ?Sized, A: StateAccess<Cc1State> + ?Sized>(
        ctx: &Ctx<'_, Cc1State, E, A>,
    ) -> Vec<EdgeId> {
        ctx.h()
            .incident(ctx.me())
            .iter()
            .copied()
            .filter(|&e| {
                ctx.h()
                    .members(e)
                    .iter()
                    .all(|&q| ctx.state_of(q).s == Status::Looking)
            })
            .collect()
    }

    /// `Cands_p`: the free nodes, restricted to announced token holders when
    /// any exist (`TFreeNodes` beats `FreeNodes`). Returned ascending.
    pub fn cands<E: ?Sized, A: StateAccess<Cc1State> + ?Sized>(
        ctx: &Ctx<'_, Cc1State, E, A>,
    ) -> Vec<usize> {
        let free = Self::free_edges(ctx);
        let mut nodes: Vec<usize> = Vec::new();
        for &e in &free {
            for &q in ctx.h().members(e) {
                if !nodes.contains(&q) {
                    nodes.push(q);
                }
            }
        }
        nodes.sort_unstable();
        let with_t: Vec<usize> = nodes
            .iter()
            .copied()
            .filter(|&q| ctx.state_of(q).t)
            .collect();
        if with_t.is_empty() {
            nodes
        } else {
            with_t
        }
    }

    /// The candidate with the maximum identifier, if any.
    fn max_cand<E: ?Sized, A: StateAccess<Cc1State> + ?Sized>(
        ctx: &Ctx<'_, Cc1State, E, A>,
    ) -> Option<usize> {
        Self::cands(ctx).into_iter().max_by_key(|&q| ctx.h().id(q))
    }

    /// `LocalMax(p) ≡ p = max(Cands_p)`.
    pub fn local_max<E: ?Sized, A: StateAccess<Cc1State> + ?Sized>(
        ctx: &Ctx<'_, Cc1State, E, A>,
    ) -> bool {
        Self::max_cand(ctx) == Some(ctx.me())
    }

    /// `MaxToFreeEdge(p)` (guard of Step21).
    pub fn max_to_free_edge<E: ?Sized, A: StateAccess<Cc1State> + ?Sized>(
        ctx: &Ctx<'_, Cc1State, E, A>,
    ) -> bool {
        let free = Self::free_edges(ctx);
        !free.is_empty()
            && Self::local_max(ctx)
            && !predicates::ready(ctx)
            && !ctx.my_state().p.is_some_and(|e| free.contains(&e))
    }

    /// `JoinLocalMax(p)` (guard of Step22).
    pub fn join_local_max<E: ?Sized, A: StateAccess<Cc1State> + ?Sized>(
        ctx: &Ctx<'_, Cc1State, E, A>,
    ) -> bool {
        let free = Self::free_edges(ctx);
        if free.is_empty() || Self::local_max(ctx) || predicates::ready(ctx) {
            return false;
        }
        let Some(mx) = Self::max_cand(ctx) else {
            return false;
        };
        match ctx.state_of(mx).p {
            Some(e) => free.contains(&e) && ctx.my_state().p != Some(e),
            None => false,
        }
    }

    /// `LeaveMeeting(p) ≡ ∃ε : P_p = ε ∧ ∀q ∈ ε : (P_q = ε ⇒ S_q = done)`.
    pub fn leave_meeting<E: ?Sized, A: StateAccess<Cc1State> + ?Sized>(
        ctx: &Ctx<'_, Cc1State, E, A>,
    ) -> bool {
        let Some(e) = ctx.my_state().p else {
            return false;
        };
        if !ctx.h().is_member(ctx.me(), e) {
            return false;
        }
        ctx.h()
            .members(e)
            .iter()
            .all(|&q| ctx.state_of(q).p != Some(e) || ctx.state_of(q).s == Status::Done)
    }

    /// `Useless(p) ≡ Token(p) ∧ [S=idle ∨ (S=looking ∧ FreeEdges_p = ∅)]`.
    pub fn useless<E: ?Sized, A: StateAccess<Cc1State> + ?Sized>(
        ctx: &Ctx<'_, Cc1State, E, A>,
        token: bool,
    ) -> bool {
        token
            && (ctx.my_state().s == Status::Idle
                || (ctx.my_state().s == Status::Looking && Self::free_edges(ctx).is_empty()))
    }

    /// `Correct(p)` (the snap-stabilization closure predicate, Lemma 3).
    pub fn correct<E: ?Sized, A: StateAccess<Cc1State> + ?Sized>(
        ctx: &Ctx<'_, Cc1State, E, A>,
    ) -> bool {
        let st = ctx.my_state();
        let idle_ok = st.s != Status::Idle || st.p.is_none();
        let wait_ok = st.s != Status::Waiting || predicates::ready(ctx) || predicates::meeting(ctx);
        let done_ok = st.s != Status::Done || predicates::meeting(ctx) || Self::leave_meeting(ctx);
        idle_ok && wait_ok && done_ok
    }

    /// The guard cascade, highest priority first (the order of
    /// [`Cc1::reference`]), allocation-free: every committee-shared predicate
    /// is a bit of `facts(e)`, the max announced holder of a free committee
    /// is `holder(e)` ([`NO_HOLDER`] when none) — read from the [`Cc1Facts`]
    /// mirror while it is live, by member scan otherwise. Dense order is
    /// identifier order, so max candidates compare dense indices.
    fn cascade<E: RequestEnv + ?Sized, A: StateAccess<Cc1State> + ?Sized>(
        ctx: &Ctx<'_, Cc1State, E, A>,
        token: bool,
        facts: impl Fn(EdgeId) -> u8,
        holder: impl Fn(EdgeId) -> u32,
    ) -> Option<ActionId> {
        use action::*;
        let st = ctx.my_state();
        let h = ctx.h();
        let me = ctx.me();
        let (mut ready, mut meeting) = (false, false);
        let (mut any_free, mut p_free) = (false, false);
        // Max member over all free committees, and over the announced token
        // holders among them (`TFreeNodes` beat `FreeNodes` in `Cands_p`).
        let mut max_any: Option<usize> = None;
        let mut max_t: Option<usize> = None;
        for &e in h.incident(me) {
            let b = facts(e);
            ready |= b & F_READY != 0;
            meeting |= b & F_MEETING != 0;
            if b & F_FREE != 0 {
                any_free = true;
                p_free |= st.p == Some(e);
                let mm = h.max_member(e);
                if max_any.is_none_or(|b| mm > b) {
                    max_any = Some(mm);
                }
                let mt = holder(e);
                if mt != NO_HOLDER && max_t.is_none_or(|b| mt as usize > b) {
                    max_t = Some(mt as usize);
                }
            }
        }
        let max_cand = max_t.or(max_any);
        let lm =
            st.p.is_some_and(|e| h.is_member(me, e) && facts(e) & F_LEAVE != 0);
        let idle_ok = st.s != Status::Idle || st.p.is_none();
        let wait_ok = st.s != Status::Waiting || ready || meeting;
        let done_ok = st.s != Status::Done || meeting || lm;
        if !(idle_ok && wait_ok && done_ok) {
            return Some(if st.s == Status::Idle { STAB1 } else { STAB2 });
        }
        if lm && ctx.env().request_out(me) {
            return Some(STEP4);
        }
        if meeting && st.s == Status::Waiting {
            return Some(STEP32);
        }
        if ready && st.s == Status::Looking {
            return Some(STEP31);
        }
        if token && (st.s == Status::Idle || (st.s == Status::Looking && !any_free)) {
            return Some(TOKEN2);
        }
        if token != st.t {
            return Some(TOKEN1);
        }
        if any_free && !ready {
            if max_cand == Some(me) {
                // Step21: the local max points to a free committee it does
                // not already point to.
                if !p_free {
                    return Some(STEP21);
                }
            } else if let Some(e) = max_cand.and_then(|mx| ctx.state_of(mx).p) {
                // Step22: follow the local max's pointer if it is one of
                // *our* free committees and not already ours.
                if st.p != Some(e) && h.is_member(me, e) && facts(e) & F_FREE != 0 {
                    return Some(STEP22);
                }
            }
        }
        if ctx.env().request_in(me) && st.s == Status::Idle {
            return Some(STEP1);
        }
        None
    }

    /// The per-guard reference: the paper's guards evaluated one by one,
    /// the enabled action latest in code order wins.
    fn reference<E: RequestEnv + ?Sized, A: StateAccess<Cc1State> + ?Sized>(
        &self,
        ctx: &Ctx<'_, Cc1State, E, A>,
        token: bool,
    ) -> Option<ActionId> {
        (0..action::COUNT)
            .rev()
            .find(|&a| self.guard(ctx, token, a))
    }

    fn guard<E: RequestEnv + ?Sized, A: StateAccess<Cc1State> + ?Sized>(
        &self,
        ctx: &Ctx<'_, Cc1State, E, A>,
        token: bool,
        a: ActionId,
    ) -> bool {
        use action::*;
        let st = ctx.my_state();
        match a {
            STEP1 => ctx.env().request_in(ctx.me()) && st.s == Status::Idle,
            STEP21 => Self::max_to_free_edge(ctx),
            STEP22 => Self::join_local_max(ctx),
            TOKEN1 => token != st.t,
            TOKEN2 => Self::useless(ctx, token),
            STEP31 => predicates::ready(ctx) && st.s == Status::Looking,
            STEP32 => predicates::meeting(ctx) && st.s == Status::Waiting,
            STEP4 => Self::leave_meeting(ctx) && ctx.env().request_out(ctx.me()),
            STAB1 => !Self::correct(ctx) && st.s == Status::Idle,
            STAB2 => !Self::correct(ctx) && st.s != Status::Idle,
            _ => unreachable!("unknown CC1 action {a}"),
        }
    }
}

impl<Ch: EdgeChoice> CommitteeAlgorithm for Cc1<Ch> {
    type State = Cc1State;

    fn action_count(&self) -> usize {
        action::COUNT
    }

    fn action_name(&self, a: ActionId) -> String {
        use action::*;
        match a {
            STEP1 => "Step1",
            STEP21 => "Step21",
            STEP22 => "Step22",
            TOKEN1 => "Token1",
            TOKEN2 => "Token2",
            STEP31 => "Step31",
            STEP32 => "Step32",
            STEP4 => "Step4",
            STAB1 => "Stab1",
            STAB2 => "Stab2",
            _ => unreachable!("unknown CC1 action {a}"),
        }
        .to_string()
    }

    fn action_class(&self, a: ActionId) -> ActionClass {
        use action::*;
        match a {
            STEP1 => ActionClass::Request,
            STEP21 | STEP22 => ActionClass::Point,
            TOKEN1 | TOKEN2 => ActionClass::Token,
            STEP31 => ActionClass::Wait,
            STEP32 => ActionClass::Essential,
            STEP4 => ActionClass::Leave,
            STAB1 | STAB2 => ActionClass::Stabilize,
            _ => unreachable!("unknown CC1 action {a}"),
        }
    }

    fn initial_state(&self, _h: &Hypergraph, _me: usize) -> Cc1State {
        Cc1State::idle()
    }

    fn set_reference_eval(&mut self, on: bool) {
        self.reference_eval = on;
    }

    fn rebuild_facts<X: StateAccess<Cc1State> + ?Sized>(&mut self, h: &Hypergraph, states: &X) {
        self.facts.rebuild(h, states);
    }

    fn drop_facts(&mut self) {
        self.facts.edges.invalidate();
    }

    fn facts_in_sync<X: StateAccess<Cc1State> + ?Sized>(&self, h: &Hypergraph, states: &X) -> bool {
        let mut fresh = Cc1Facts::default();
        fresh.rebuild(h, states);
        !self.facts.edges.live()
            || (self.facts.edges.same_as(&fresh.edges) && self.facts.max_t == fresh.max_t)
    }

    #[inline]
    fn apply_write<X: StateAccess<Cc1State> + ?Sized>(
        &mut self,
        h: &Hypergraph,
        states: &X,
        p: usize,
        old: &Cc1State,
    ) {
        let new = states.state(p);
        self.facts.edges.apply(h, p, old, new);
        if old.t != new.t {
            self.facts.retoken(h, states, p);
        }
        if old.p != new.p {
            self.facts.repointed.push(p);
        }
    }

    #[inline]
    fn flush_facts<X: StateAccess<Cc1State> + ?Sized>(
        &mut self,
        h: &Hypergraph,
        _states: &X,
        mut mark: impl FnMut(usize),
    ) {
        let Cc1Facts {
            edges,
            max_t,
            t_moved,
            repointed,
        } = &mut self.facts;
        let mut members = |e: EdgeId| h.members(e).iter().for_each(|&q| mark(q));
        // A guard reads the facts of its incident committees …
        edges.flush(|e, was, now| {
            if was != now {
                members(e);
            }
        });
        // … the max announced holder of the free ones …
        for i in t_moved.drain(..) {
            let e = EdgeId(i as u32);
            if edges.bits(e) & F_FREE != 0 {
                members(e);
            }
        }
        // … and the pointer of its local maximum (Step22): the max member
        // or max announced holder of a free committee.
        for q in repointed.drain(..) {
            for &e in h.incident(q) {
                if edges.bits(e) & F_FREE != 0
                    && (h.max_member(e) == q || max_t[e.index()] == q as u32)
                {
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
        st: &mut Cc1State,
    ) -> bool {
        let before = *st;
        st.p =
            st.p.and_then(|e| delta.remap_edge(e))
                .filter(|&e| h.is_member(me, e));
        *st != before
    }

    fn repair_facts<X: StateAccess<Cc1State> + ?Sized>(
        &mut self,
        h: &Hypergraph,
        delta: &sscc_hypergraph::MutationDelta,
        states: &X,
        repaired: &[usize],
    ) -> bool {
        let f = &mut self.facts;
        if !f.edges.repair(h, delta, states, repaired) {
            return false;
        }
        delta.remap_per_edge(&mut f.max_t, || NO_HOLDER);
        for e in repair_scope(h, delta, repaired) {
            f.max_t[e.index()] = Cc1Facts::scan_max_t(h, states, e);
        }
        true
    }

    fn priority_action<E: RequestEnv + ?Sized, A: StateAccess<Cc1State> + ?Sized>(
        &self,
        ctx: &Ctx<'_, Cc1State, E, A>,
        token: bool,
    ) -> Option<ActionId> {
        if self.reference_eval {
            return self.reference(ctx, token);
        }
        let fast = if self.facts.edges.live() {
            let f = &self.facts;
            Self::cascade(ctx, token, |e| f.edges.bits(e), |e| f.max_t[e.index()])
        } else {
            let (h, states) = (ctx.h(), ctx.accessor());
            Self::cascade(
                ctx,
                token,
                |e| facts::scan::<Cc1State, 4, _>(h, states, e),
                |e| Cc1Facts::scan_max_t(h, states, e),
            )
        };
        debug_assert_eq!(
            fast,
            self.reference(ctx, token),
            "guard cascade diverged from the per-guard reference"
        );
        fast
    }

    fn execute<E: RequestEnv + ?Sized, A: StateAccess<Cc1State> + ?Sized>(
        &self,
        ctx: &Ctx<'_, Cc1State, E, A>,
        a: ActionId,
        token: bool,
    ) -> (Cc1State, bool) {
        use action::*;
        debug_assert!(self.guard(ctx, token, a), "executing a disabled action");
        let mut st = *ctx.my_state();
        let mut release = false;
        match a {
            STEP1 => {
                st.s = Status::Looking;
                st.p = None;
            }
            STEP21 => {
                let free = Self::free_edges(ctx);
                st.p = Some(self.choice.choose(ctx.h(), ctx.me(), &free));
            }
            STEP22 => {
                let mx = Self::max_cand(ctx).expect("guard: candidates exist");
                st.p = ctx.state_of(mx).p;
                debug_assert!(st.p.is_some());
            }
            TOKEN1 => {
                st.t = token;
            }
            TOKEN2 => {
                release = true;
                st.t = false;
            }
            STEP31 => {
                st.s = Status::Waiting;
            }
            STEP32 => {
                // 〈EssentialDiscussion〉 happens here; the ledger observes it
                // through this action's `ActionClass::Essential`.
                st.s = Status::Done;
            }
            STEP4 => {
                st.s = Status::Idle;
                st.p = None;
                release = token;
                st.t = false;
            }
            STAB1 => {
                st.p = None;
            }
            STAB2 => {
                st.s = Status::Looking;
                st.p = None;
            }
            _ => unreachable!("unknown CC1 action {a}"),
        }
        (st, release)
    }
}

impl ArbitraryState for Cc1State {
    fn arbitrary(rng: &mut rand::rngs::StdRng, h: &Hypergraph, me: usize) -> Self {
        use rand::Rng as _;
        let s = match rng.random_range(0..4) {
            0 => Status::Idle,
            1 => Status::Looking,
            2 => Status::Waiting,
            _ => Status::Done,
        };
        // Domain of P_p is E_p ∪ {⊥} (the variable's type, §4.1).
        let inc = h.incident(me);
        let p = if rng.random_bool(0.3) {
            None
        } else {
            Some(inc[rng.random_range(0..inc.len())])
        };
        Cc1State {
            s,
            p,
            t: rng.random_bool(0.5),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::action::*;
    use super::*;
    use crate::oracle::RequestFlags;
    use sscc_hypergraph::generators;

    type S = Cc1State;

    fn looking(e: Option<u32>) -> S {
        S {
            s: Status::Looking,
            p: e.map(EdgeId),
            t: false,
        }
    }

    fn all_flags(n: usize, out: bool) -> RequestFlags {
        let mut f = RequestFlags::new(n);
        for p in 0..n {
            f.set_out(p, out);
        }
        f
    }

    /// fig2: V={1..5}, e0={1,2}, e1={1,3,5}, e2={3,4}; dense = id-1.
    fn fig2() -> Hypergraph {
        generators::fig2()
    }

    #[test]
    fn step1_fires_for_requesting_idle() {
        let h = fig2();
        let states = vec![S::idle(); h.n()];
        let env = RequestFlags::new(h.n());
        let cc = Cc1::new();
        let ctx = Ctx::new(&h, 0, &states, &env);
        assert_eq!(cc.priority_action(&ctx, false), Some(STEP1));
        let (st, rel) = cc.execute(&ctx, STEP1, false);
        assert_eq!(st.s, Status::Looking);
        assert_eq!(st.p, None);
        assert!(!rel);
    }

    #[test]
    fn idle_without_request_is_disabled() {
        let h = fig2();
        let states = vec![S::idle(); h.n()];
        let mut env = RequestFlags::new(h.n());
        for p in 0..h.n() {
            env.set_in(p, false);
        }
        let cc = Cc1::new();
        let ctx = Ctx::new(&h, 0, &states, &env);
        assert_eq!(cc.priority_action(&ctx, false), None);
    }

    #[test]
    fn free_edges_require_all_looking() {
        let h = fig2();
        let mut states = vec![looking(None); h.n()];
        states[h.dense_of(4)] = S::idle(); // 4 idle kills e2={3,4}
        let env = RequestFlags::new(h.n());
        let ctx: Ctx<'_, S, RequestFlags> = Ctx::new(&h, h.dense_of(3), &states, &env);
        assert_eq!(Cc1::<MaxMembersDesc>::free_edges(&ctx), vec![EdgeId(1)]);
    }

    #[test]
    fn max_points_and_others_join() {
        // All five looking: for p5 (global max among cands of e1), guard
        // Step21 holds; after pointing, 1 and 3 join via Step22.
        let h = fig2();
        let mut states = vec![looking(None); h.n()];
        let env = all_flags(h.n(), false);
        let cc = Cc1::new();

        let p5 = h.dense_of(5);
        let ctx5 = Ctx::new(&h, p5, &states, &env);
        assert!(Cc1::<MaxMembersDesc>::local_max(&ctx5));
        assert_eq!(cc.priority_action(&ctx5, false), Some(STEP21));
        let (st5, _) = cc.execute(&ctx5, STEP21, false);
        assert_eq!(st5.p, Some(EdgeId(1)), "5's only committee is e1");
        states[p5] = st5;

        let p1 = h.dense_of(1);
        let ctx1 = Ctx::new(&h, p1, &states, &env);
        assert!(!Cc1::<MaxMembersDesc>::local_max(&ctx1));
        assert_eq!(cc.priority_action(&ctx1, false), Some(STEP22));
        let (st1, _) = cc.execute(&ctx1, STEP22, false);
        assert_eq!(st1.p, Some(EdgeId(1)), "1 follows max cand 5");
    }

    #[test]
    fn token_holder_outranks_higher_ids() {
        // Announced token at 1 (low id): Cands collapses to {1}; 1 becomes
        // LocalMax despite 5 being around.
        let h = fig2();
        let mut states = vec![looking(None); h.n()];
        states[h.dense_of(1)].t = true;
        let env = all_flags(h.n(), false);
        let ctx1 = Ctx::new(&h, h.dense_of(1), &states, &env);
        assert!(Cc1::<MaxMembersDesc>::local_max(&ctx1));
        let ctx5 = Ctx::new(&h, h.dense_of(5), &states, &env);
        assert!(!Cc1::<MaxMembersDesc>::local_max(&ctx5));
    }

    #[test]
    fn token1_announces_and_clears() {
        let h = fig2();
        let states = vec![looking(None); h.n()];
        let env = all_flags(h.n(), false);
        let cc = Cc1::new();
        let ctx = Ctx::new(&h, 0, &states, &env);
        // Holds token but T=false: Token1 beats Step21/22 by priority.
        assert_eq!(cc.priority_action(&ctx, true), Some(TOKEN1));
        let (st, rel) = cc.execute(&ctx, TOKEN1, true);
        assert!(st.t && !rel);
    }

    #[test]
    fn useless_token_is_released_when_idle() {
        let h = fig2();
        let mut states = vec![looking(None); h.n()];
        states[0] = S::idle();
        let mut env = RequestFlags::new(h.n());
        env.set_in(0, false); // not requesting: Step1 disabled
        let cc = Cc1::new();
        let ctx = Ctx::new(&h, 0, &states, &env);
        assert_eq!(cc.priority_action(&ctx, true), Some(TOKEN2));
        let (st, rel) = cc.execute(&ctx, TOKEN2, true);
        assert!(rel, "ReleaseToken emitted");
        assert!(!st.t);
    }

    #[test]
    fn useless_token_released_when_no_free_edges() {
        // 1 looking but both its committees are blocked (2 idle, 3 idle).
        let h = fig2();
        let mut states = vec![S::idle(); h.n()];
        states[h.dense_of(1)] = looking(None);
        let env = all_flags(h.n(), false);
        let cc = Cc1::new();
        let ctx = Ctx::new(&h, h.dense_of(1), &states, &env);
        assert!(Cc1::<MaxMembersDesc>::useless(&ctx, true));
        assert_eq!(cc.priority_action(&ctx, true), Some(TOKEN2));
    }

    #[test]
    fn ready_committee_becomes_waiting_then_done() {
        let h = fig2();
        let mut states = vec![S::idle(); h.n()];
        let (p3, p4) = (h.dense_of(3), h.dense_of(4));
        states[p3] = looking(Some(2));
        states[p4] = looking(Some(2));
        let env = all_flags(h.n(), false);
        let cc = Cc1::new();

        let ctx3 = Ctx::new(&h, p3, &states, &env);
        assert!(predicates::ready(&ctx3));
        assert_eq!(cc.priority_action(&ctx3, false), Some(STEP31));
        let (st3, _) = cc.execute(&ctx3, STEP31, false);
        states[p3] = st3;

        let ctx4 = Ctx::new(&h, p4, &states, &env);
        assert_eq!(cc.priority_action(&ctx4, false), Some(STEP31));
        let (st4, _) = cc.execute(&ctx4, STEP31, false);
        states[p4] = st4;

        // Both waiting & pointing: the meeting meets; Step32 fires.
        let ctx3 = Ctx::new(&h, p3, &states, &env);
        assert!(predicates::meeting(&ctx3));
        assert_eq!(cc.priority_action(&ctx3, false), Some(STEP32));
        let (st3, _) = cc.execute(&ctx3, STEP32, false);
        assert_eq!(st3.s, Status::Done);
    }

    #[test]
    fn leave_meeting_requires_all_done_and_request_out() {
        let h = fig2();
        let mut states = vec![S::idle(); h.n()];
        let (p3, p4) = (h.dense_of(3), h.dense_of(4));
        states[p3] = S {
            s: Status::Done,
            p: Some(EdgeId(2)),
            t: false,
        };
        states[p4] = S {
            s: Status::Done,
            p: Some(EdgeId(2)),
            t: false,
        };
        let cc = Cc1::new();

        // Without RequestOut: Step4 disabled (voluntary discussion goes on).
        let env = all_flags(h.n(), false);
        let ctx3 = Ctx::new(&h, p3, &states, &env);
        assert!(Cc1::<MaxMembersDesc>::leave_meeting(&ctx3));
        assert_eq!(cc.priority_action(&ctx3, false), None);

        // With RequestOut: leave, resetting everything and releasing token.
        let env = all_flags(h.n(), true);
        let ctx3 = Ctx::new(&h, p3, &states, &env);
        assert_eq!(cc.priority_action(&ctx3, true), Some(STEP4));
        let (st3, rel) = cc.execute(&ctx3, STEP4, true);
        assert_eq!(st3, S::idle());
        assert!(rel, "held token is released on leave");
        // Without the token, no release is emitted.
        let (_, rel) = cc.execute(&ctx3, STEP4, false);
        assert!(!rel);
    }

    #[test]
    fn partially_done_meeting_blocks_step32_member_leaving() {
        // 3 done, 4 still waiting: LeaveMeeting(3) false (4 points with
        // status waiting), Meeting(3) true, so 3 is simply disabled.
        let h = fig2();
        let mut states = vec![S::idle(); h.n()];
        states[h.dense_of(3)] = S {
            s: Status::Done,
            p: Some(EdgeId(2)),
            t: false,
        };
        states[h.dense_of(4)] = S {
            s: Status::Waiting,
            p: Some(EdgeId(2)),
            t: false,
        };
        let env = all_flags(h.n(), true);
        let cc = Cc1::new();
        let ctx = Ctx::new(&h, h.dense_of(3), &states, &env);
        assert!(!Cc1::<MaxMembersDesc>::leave_meeting(&ctx));
        assert!(predicates::meeting(&ctx));
        assert!(Cc1::<MaxMembersDesc>::correct(&ctx));
        assert_eq!(cc.priority_action(&ctx, false), None);
    }

    #[test]
    fn stab2_corrects_stranded_waiting() {
        // Waiting but neither Ready nor Meeting (fault debris): Stab2 fires
        // with top priority and resets to looking.
        let h = fig2();
        let mut states = vec![S::idle(); h.n()];
        let p3 = h.dense_of(3);
        states[p3] = S {
            s: Status::Waiting,
            p: Some(EdgeId(2)),
            t: false,
        };
        let env = all_flags(h.n(), false);
        let cc = Cc1::new();
        let ctx = Ctx::new(&h, p3, &states, &env);
        assert!(!Cc1::<MaxMembersDesc>::correct(&ctx));
        assert_eq!(cc.priority_action(&ctx, false), Some(STAB2));
        let (st, _) = cc.execute(&ctx, STAB2, false);
        assert_eq!(st.s, Status::Looking);
        assert_eq!(st.p, None);
    }

    #[test]
    fn stab1_corrects_idle_with_pointer() {
        let h = fig2();
        let mut states = vec![S::idle(); h.n()];
        states[0] = S {
            s: Status::Idle,
            p: Some(EdgeId(0)),
            t: false,
        };
        let mut env = RequestFlags::new(h.n());
        env.set_in(0, false);
        let cc = Cc1::new();
        let ctx = Ctx::new(&h, 0, &states, &env);
        assert_eq!(cc.priority_action(&ctx, false), Some(STAB1));
        let (st, _) = cc.execute(&ctx, STAB1, false);
        assert_eq!(st.p, None);
    }

    #[test]
    fn stab_beats_everything() {
        // Corrupted waiting + requesting + token: Stab2 wins by priority.
        let h = fig2();
        let mut states = vec![looking(None); h.n()];
        states[0] = S {
            s: Status::Waiting,
            p: None,
            t: false,
        };
        let env = all_flags(h.n(), true);
        let cc = Cc1::new();
        let ctx = Ctx::new(&h, 0, &states, &env);
        assert_eq!(cc.priority_action(&ctx, true), Some(STAB2));
    }

    #[test]
    fn remark2_step_guards_mutually_exclusive() {
        // Exhaustive-ish check on fig2 with random states: at most one of
        // Step1/Step21/Step22/Step31/Step32/Step4 is enabled at any process.
        use rand::SeedableRng as _;
        let h = fig2();
        let cc = Cc1::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        for _ in 0..500 {
            let states: Vec<S> = (0..h.n()).map(|p| S::arbitrary(&mut rng, &h, p)).collect();
            let env = all_flags(h.n(), true);
            for p in 0..h.n() {
                let ctx = Ctx::new(&h, p, &states, &env);
                for token in [false, true] {
                    let step_guards = [STEP1, STEP21, STEP22, STEP31, STEP32, STEP4];
                    let on: Vec<ActionId> = step_guards
                        .iter()
                        .copied()
                        .filter(|&a| cc.guard(&ctx, token, a))
                        .collect();
                    assert!(on.len() <= 1, "Remark 2 violated at p{p}: {on:?}");
                }
            }
        }
    }

    #[test]
    fn value_level_mirror_matches_reference_under_surgery() {
        // Random configurations, incremental single-process surgery: the
        // cascade over the mirror must agree with the per-guard reference at
        // every process, and the mirror kept by counter deltas must equal a
        // from-scratch rebuild.
        use rand::SeedableRng as _;
        let h = fig2();
        let mut cc = Cc1::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut states: Vec<S> = (0..h.n()).map(|p| S::arbitrary(&mut rng, &h, p)).collect();
        cc.rebuild_facts(&h, states.as_slice());
        let env = all_flags(h.n(), true);
        for round in 0..200 {
            for p in 0..h.n() {
                let ctx = Ctx::new(&h, p, &states, &env);
                for token in [false, true] {
                    let fast = cc.priority_action(&ctx, token);
                    let reference = cc.reference(&ctx, token);
                    assert_eq!(fast, reference, "round {round} p{p} token {token}");
                }
            }
            let p = (round * 13 + 5) % h.n();
            let old = std::mem::replace(&mut states[p], S::arbitrary(&mut rng, &h, p));
            if old != states[p] {
                cc.apply_write(&h, states.as_slice(), p, &old);
            }
            cc.flush_facts(&h, states.as_slice(), |_| {});
            assert!(cc.facts_in_sync(&h, states.as_slice()), "round {round}");
        }
    }

    #[test]
    fn fact_sources_are_interchangeable() {
        // The seam the one cascade stands on: a member scan derives exactly
        // the fact byte and max announced holder the rebuilt mirror keeps,
        // so the cascade picks the same action with the mirror live and
        // with it dropped — on the paper's figures, a ring and a hubbed
        // power-law graph, from arbitrary boots.
        use rand::{Rng as _, SeedableRng as _};
        for h in [
            generators::fig1(),
            fig2(),
            generators::ring(24, 2),
            generators::power_law(96, 144, 6), // a hub of 26 neighbours
        ] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(h.n() as u64);
            for boot in 0..20 {
                let states: Vec<S> = (0..h.n()).map(|p| S::arbitrary(&mut rng, &h, p)).collect();
                let mut env = RequestFlags::new(h.n());
                for p in 0..h.n() {
                    env.set_in(p, rng.random_bool(0.5));
                    env.set_out(p, rng.random_bool(0.5));
                }
                let mut cc = Cc1::new();
                cc.rebuild_facts(&h, states.as_slice());
                for e in h.edge_ids() {
                    let label = format!("n{} boot {boot} e{}", h.n(), e.index());
                    let scanned = facts::scan::<S, 4, _>(&h, states.as_slice(), e);
                    assert_eq!(scanned, cc.facts.edges.bits(e), "{label}");
                    assert_eq!(
                        Cc1Facts::scan_max_t(&h, states.as_slice(), e),
                        cc.facts.max_t[e.index()],
                        "{label}"
                    );
                }
                let actions = |cc: &Cc1| -> Vec<Option<ActionId>> {
                    (0..h.n())
                        .flat_map(|p| [false, true].map(|t| (p, t)))
                        .map(|(p, token)| {
                            cc.priority_action(&Ctx::new(&h, p, &states, &env), token)
                        })
                        .collect()
                };
                let live = actions(&cc);
                cc.drop_facts();
                assert_eq!(live, actions(&cc), "n{} boot {boot}", h.n());
            }
        }
    }

    #[test]
    fn arbitrary_states_respect_pointer_domain() {
        use rand::SeedableRng as _;
        let h = fig2();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..200 {
            for me in 0..h.n() {
                let st = S::arbitrary(&mut rng, &h, me);
                if let Some(e) = st.p {
                    assert!(h.incident(me).contains(&e), "P_p ranges over E_p ∪ {{⊥}}");
                }
            }
        }
    }
}
