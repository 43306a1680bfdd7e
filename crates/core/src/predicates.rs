//! Predicates shared verbatim by CC1 and CC2 (they quantify only over
//! statuses and pointers, which both state types expose via
//! [`CommitteeView`]).

use crate::status::{CommitteeView, Status};
use sscc_hypergraph::{EdgeId, Hypergraph};
use sscc_runtime::prelude::{Ctx, StateAccess};

/// `Ready(p) ≡ ∃ε ∈ E_p : ∀q ∈ ε : (P_q = ε ∧ S_q ∈ {looking, waiting})`.
pub fn ready<S: CommitteeView, E: ?Sized, A: StateAccess<S> + ?Sized>(
    ctx: &Ctx<'_, S, E, A>,
) -> bool {
    ctx.h()
        .incident(ctx.me())
        .iter()
        .any(|&e| all_members(ctx, e, is_ready_member))
}

/// `Meeting(p) ≡ ∃ε ∈ E_p : ∀q ∈ ε : (P_q = ε ∧ S_q ∈ {waiting, done})`.
pub fn meeting<S: CommitteeView, E: ?Sized, A: StateAccess<S> + ?Sized>(
    ctx: &Ctx<'_, S, E, A>,
) -> bool {
    ctx.h()
        .incident(ctx.me())
        .iter()
        .any(|&e| all_members(ctx, e, |s, e| upholds_meeting(s, e)))
}

fn is_ready_member(s: &dyn CommitteeView, e: EdgeId) -> bool {
    s.pointer() == Some(e) && matches!(s.status(), Status::Looking | Status::Waiting)
}

/// The one conjunct of `Meeting` a member `q` of `ε` contributes:
/// `P_q = ε ∧ S_q ∈ {waiting, done}`. The guard ([`meeting`]), the
/// analysis-side mirror ([`edge_meets`], [`participates`]) and the
/// simulator's observer marking are all written over it — and a committee's
/// meets-status can only move when some member starts or stops upholding
/// it. The engine counts the same conjunct as the `F_MEETING` fact; a unit
/// test below ties the two definitions together.
#[inline]
pub fn upholds_meeting<S: CommitteeView + ?Sized>(s: &S, e: EdgeId) -> bool {
    s.pointer() == Some(e) && matches!(s.status(), Status::Waiting | Status::Done)
}

fn all_members<S: CommitteeView, E: ?Sized, A: StateAccess<S> + ?Sized>(
    ctx: &Ctx<'_, S, E, A>,
    e: EdgeId,
    pred: fn(&dyn CommitteeView, EdgeId) -> bool,
) -> bool {
    ctx.h()
        .members(e)
        .iter()
        .all(|&q| pred(ctx.state_of(q) as &dyn CommitteeView, e))
}

/// Global (non-local) form of "committee `e` meets" — the analysis-side
/// mirror of `Meeting`, evaluated over a full configuration by the ledger
/// and monitors (§4.2: a committee *meets* iff every member points to it
/// with status waiting/done).
pub fn edge_meets<S: CommitteeView>(h: &Hypergraph, states: &[S], e: EdgeId) -> bool {
    h.members(e).iter().all(|&q| upholds_meeting(&states[q], e))
}

/// All committees currently meeting in a configuration.
pub fn meeting_edges<S: CommitteeView>(h: &Hypergraph, states: &[S]) -> Vec<EdgeId> {
    h.edge_ids().filter(|&e| edge_meets(h, states, e)).collect()
}

/// Is process `p` *participating* in a meeting (member of a meeting
/// committee it points to)?
pub fn participates<S: CommitteeView>(h: &Hypergraph, states: &[S], p: usize) -> bool {
    match states[p].pointer() {
        Some(e) => h.is_member(p, e) && edge_meets(h, states, e),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::Quantified;
    use crate::{cc1, cc2, Cc1State, Cc2State};

    /// The engine counts `Meeting`'s conjunct as the `F_MEETING` fact
    /// (`Quantified::falsifies`), the observers test it through
    /// [`upholds_meeting`]: over every status, pointer and bit they are the
    /// same predicate, for both state types.
    #[test]
    fn the_counted_meeting_fact_is_the_observers_conjunct() {
        let e = EdgeId(3);
        let statuses = [Status::Idle, Status::Looking, Status::Waiting, Status::Done];
        for s in statuses {
            for (p, points) in [(Some(e), true), (Some(EdgeId(4)), false), (None, false)] {
                for bits in 0..4u8 {
                    let (t, l) = (bits & 1 != 0, bits & 2 != 0);
                    let c1 = Cc1State { s, p, t };
                    assert_eq!(
                        c1.falsifies(points) & cc1::F_MEETING != 0,
                        !upholds_meeting(&c1, e),
                        "{c1:?}"
                    );
                    let c2 = Cc2State {
                        s,
                        p,
                        t,
                        l,
                        cursor: 0,
                    };
                    assert_eq!(
                        c2.falsifies(points) & cc2::F_MEETING != 0,
                        !upholds_meeting(&c2, e),
                        "{c2:?}"
                    );
                }
            }
        }
    }
}
