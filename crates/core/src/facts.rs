//! Committee facts kept by counting.
//!
//! Every committee-shared predicate of CC1/CC2/CC3 (`Ready`, `Meeting`,
//! `FreeEdges`, `LeaveMeeting`, `TPointingEdges`) quantifies one per-member
//! conjunct over the members of a committee. Written as a `∀` (an `∃` is
//! the negation of one), each is a **fact** a member either upholds or
//! falsifies. [`EdgeFacts`] keeps, per committee and fact, how many members
//! falsify it; the fact holds iff that count is zero. A committed write
//! then costs `O(deg(p))` counter updates instead of a member rescan of
//! every incident committee, and the guard cascade tests a bit instead of
//! scanning members. It also remembers which fact bytes moved since the
//! last flush and what they were then, so the dirtiness filter can name the
//! committees whose facts *net*-flipped.
//!
//! Where the engine does not keep the counters (the message-passing tier's
//! shard actors, between a surgery and the next rebuild), [`scan`] derives
//! the same fact byte from one member pass over the same
//! [`Quantified::falsifies`]: two sources of fact bytes, one cascade.

use crate::status::CommitteeView;
use sscc_hypergraph::{EdgeId, Hypergraph, MutationDelta};
use sscc_runtime::prelude::StateAccess;

/// A committee state whose shared predicates are `K` facts.
pub(crate) trait Quantified<const K: usize>: CommitteeView {
    /// Bit `i` set iff a member in this state **falsifies** fact `i` of a
    /// committee it points at (`points`) or does not point at.
    fn falsifies(&self, points: bool) -> u8;
}

/// Per-committee falsifier counters and fact bytes (see the module docs).
#[derive(Clone, Debug, Default)]
pub(crate) struct EdgeFacts<const K: usize> {
    /// In sync with the configuration the engine evaluates against.
    live: bool,
    /// Per-edge fact byte: bit `i` set iff `counts[i] == 0`.
    bits: Vec<u8>,
    /// Per-edge fact byte as of the last [`EdgeFacts::flush`].
    flushed: Vec<u8>,
    /// Per-edge count of members falsifying each fact.
    counts: Vec<[u32; K]>,
    /// Edges whose counters moved since the last flush (with repeats).
    touched: Vec<usize>,
}

impl<const K: usize> EdgeFacts<K> {
    /// May the evaluator read the facts?
    #[inline]
    pub(crate) fn live(&self) -> bool {
        self.live
    }

    /// The engine stopped reporting writes: the facts are no longer read.
    pub(crate) fn invalidate(&mut self) {
        self.live = false;
    }

    /// Same counters and fact bytes, nothing pending a flush (test oracle).
    pub(crate) fn same_as(&self, other: &Self) -> bool {
        self.bits == other.bits && self.counts == other.counts && self.bits == self.flushed
    }

    /// The fact byte of committee `e`.
    #[inline]
    pub(crate) fn bits(&self, e: EdgeId) -> u8 {
        self.bits[e.index()]
    }

    /// Derive one committee's counters and fact byte from its members.
    fn recount<S: Quantified<K>, X: StateAccess<S> + ?Sized>(
        &mut self,
        h: &Hypergraph,
        states: &X,
        e: EdgeId,
    ) {
        let mut counts = [0u32; K];
        for &q in h.members(e) {
            let s = states.state(q);
            let f = s.falsifies(s.pointer() == Some(e));
            for (k, n) in counts.iter_mut().enumerate() {
                *n += u32::from(f >> k & 1);
            }
        }
        let bits = (0..K).fold(0, |b, k| b | u8::from(counts[k] == 0) << k);
        self.bits[e.index()] = bits;
        self.flushed[e.index()] = bits;
        self.counts[e.index()] = counts;
    }

    /// Derive everything from a full configuration; the facts are live
    /// afterwards.
    pub(crate) fn rebuild<S: Quantified<K>, X: StateAccess<S> + ?Sized>(
        &mut self,
        h: &Hypergraph,
        states: &X,
    ) {
        for per_edge in [&mut self.bits, &mut self.flushed] {
            per_edge.clear();
            per_edge.resize(h.m(), 0);
        }
        self.counts.clear();
        self.counts.resize(h.m(), [0; K]);
        self.touched.clear();
        for e in h.edge_ids() {
            self.recount(h, states, e);
        }
        self.live = true;
    }

    /// Process `p` went from `old` to `new`: move the counters of its
    /// incident committees by the difference of what it falsifies —
    /// `O(deg(p))`, no member scan.
    #[inline]
    pub(crate) fn apply<S: Quantified<K>>(&mut self, h: &Hypergraph, p: usize, old: &S, new: &S) {
        let (old_p, new_p) = (old.pointer(), new.pointer());
        let old_f = [old.falsifies(false), old.falsifies(true)];
        let new_f = [new.falsifies(false), new.falsifies(true)];
        for &e in h.incident(p) {
            let was = old_f[usize::from(old_p == Some(e))];
            let now = new_f[usize::from(new_p == Some(e))];
            if was == now {
                continue;
            }
            let i = e.index();
            self.touched.push(i);
            let counts = &mut self.counts[i];
            let mut bits = 0;
            for (k, n) in counts.iter_mut().enumerate() {
                *n = *n + u32::from(now >> k & 1) - u32::from(was >> k & 1);
                bits |= u8::from(*n == 0) << k;
            }
            self.bits[i] = bits;
        }
    }

    /// Report `(committee, fact byte at the last flush, fact byte now)` for
    /// every committee whose fact byte net-changed since, and forget them.
    #[inline]
    pub(crate) fn flush(&mut self, mut f: impl FnMut(EdgeId, u8, u8)) {
        for i in self.touched.drain(..) {
            // A repeat finds the byte already flushed.
            let (was, now) = (self.flushed[i], self.bits[i]);
            if was != now {
                self.flushed[i] = now;
                f(EdgeId(i as u32), was, now);
            }
        }
    }

    /// Repair live facts in place after a topology mutation: translate the
    /// per-edge arrays and re-derive, from members, the changed committees
    /// plus every committee incident to a process whose state the mutation
    /// repaired. `false` (nothing done) when the facts are not live.
    pub(crate) fn repair<S: Quantified<K>, X: StateAccess<S> + ?Sized>(
        &mut self,
        h: &Hypergraph,
        delta: &MutationDelta,
        states: &X,
        repaired: &[usize],
    ) -> bool {
        if !self.live {
            return false;
        }
        debug_assert!(self.touched.is_empty(), "mutations land between steps");
        delta.remap_per_edge(&mut self.bits, || 0);
        delta.remap_per_edge(&mut self.flushed, || 0);
        delta.remap_per_edge(&mut self.counts, || [0; K]);
        for e in repair_scope(h, delta, repaired) {
            self.recount(h, states, e);
        }
        true
    }
}

/// The fact byte of committee `e` by one member pass over `states` — what
/// [`EdgeFacts::bits`] reads while the counters are live: bit `i` set iff no
/// member falsifies fact `i`.
#[inline]
pub(crate) fn scan<S: Quantified<K>, const K: usize, X: StateAccess<S> + ?Sized>(
    h: &Hypergraph,
    states: &X,
    e: EdgeId,
) -> u8 {
    let falsified = h.members(e).iter().fold(0, |f, &q| {
        let s = states.state(q);
        f | s.falsifies(s.pointer() == Some(e))
    });
    !falsified & (u8::MAX >> (8 - K))
}

/// The committees a mutation repair re-derives from members: the ones the
/// mutation changed and the ones incident to a process whose state it
/// repaired (with repeats — re-deriving is idempotent).
pub(crate) fn repair_scope<'a>(
    h: &'a Hypergraph,
    delta: &'a MutationDelta,
    repaired: &'a [usize],
) -> impl Iterator<Item = EdgeId> + 'a {
    delta
        .changed_edges()
        .chain(repaired.iter().flat_map(|&p| h.incident(p).iter().copied()))
}
