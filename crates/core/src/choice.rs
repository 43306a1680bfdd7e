//! Deterministic committee-choice strategies.
//!
//! The paper's statements `P_p := ε such that ε ∈ FreeEdges_p` (Step21,
//! Step13) and `ε ∈ MinEdges_p` (Step11) are nondeterministic. Any
//! deterministic resolution is a valid refinement; the choice is a real
//! design lever for concurrency (experiment E12 ablates it). The default,
//! [`MaxMembersDesc`], prefers the committee whose member identifiers read
//! largest — this reproduces the "highest priority committee" picks in the
//! worked example of Figure 3 ({6,9} over {5,6}; {9,10} over {8,9}).

use sscc_hypergraph::{EdgeId, Hypergraph};
use std::cmp::Ordering;

/// A deterministic selection rule among candidate committees.
pub trait EdgeChoice {
    /// Pick one of `candidates` (non-empty, all incident to `me`).
    fn choose(&self, h: &Hypergraph, me: usize, candidates: &[EdgeId]) -> EdgeId;
}

/// Compare committees by their member identifiers sorted descending,
/// lexicographically — "the committee with the most important professors".
fn cmp_members_desc(h: &Hypergraph, a: EdgeId, b: EdgeId) -> Ordering {
    let (ma, mb) = (h.members(a), h.members(b));
    // Members are stored ascending; compare from the back.
    let mut ia = ma.iter().rev();
    let mut ib = mb.iter().rev();
    loop {
        match (ia.next(), ib.next()) {
            (Some(&x), Some(&y)) => match h.id(x).cmp(&h.id(y)) {
                Ordering::Equal => continue,
                o => return o,
            },
            (Some(_), None) => return Ordering::Greater,
            (None, Some(_)) => return Ordering::Less,
            (None, None) => return a.cmp(&b), // identical members: impossible
        }
    }
}

/// Default strategy: the committee with the lexicographically largest
/// descending member-id sequence.
#[derive(Clone, Copy, Debug, Default)]
pub struct MaxMembersDesc;

impl EdgeChoice for MaxMembersDesc {
    fn choose(&self, h: &Hypergraph, _me: usize, candidates: &[EdgeId]) -> EdgeId {
        assert!(
            !candidates.is_empty(),
            "choose from a non-empty candidate set"
        );
        *candidates
            .iter()
            .max_by(|&&a, &&b| cmp_members_desc(h, a, b))
            .expect("non-empty")
    }
}

/// Prefer the smallest committee (fewest members), tie-breaking by
/// [`MaxMembersDesc`] — the "easiest to convene first" heuristic CC2's
/// token holder uses on `MinEdges_p`.
#[derive(Clone, Copy, Debug, Default)]
pub struct MinSizeFirst;

impl EdgeChoice for MinSizeFirst {
    fn choose(&self, h: &Hypergraph, _me: usize, candidates: &[EdgeId]) -> EdgeId {
        assert!(!candidates.is_empty());
        *candidates
            .iter()
            .min_by(|&&a, &&b| {
                h.edge_len(a)
                    .cmp(&h.edge_len(b))
                    .then_with(|| cmp_members_desc(h, b, a))
            })
            .expect("non-empty")
    }
}

/// Baseline for the ablation: always the lowest edge index.
#[derive(Clone, Copy, Debug, Default)]
pub struct LowestIndex;

impl EdgeChoice for LowestIndex {
    fn choose(&self, _h: &Hypergraph, _me: usize, candidates: &[EdgeId]) -> EdgeId {
        *candidates.iter().min().expect("non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sscc_hypergraph::generators;

    #[test]
    fn max_members_matches_fig3_examples() {
        let h = generators::fig3();
        let edge = |members: &[u32]| {
            h.edge_ids()
                .find(|&e| h.members_raw(e) == members)
                .unwrap_or_else(|| panic!("committee {members:?} missing"))
        };
        let c = MaxMembersDesc;
        // Professor 6: {6,9} beats {5,6} (paper, configuration 3(c)).
        let p6 = h.dense_of(6);
        assert_eq!(
            c.choose(&h, p6, &[edge(&[5, 6]), edge(&[6, 9])]),
            edge(&[6, 9])
        );
        // Professor 9: {9,10} beats {6,9} and {8,9}.
        let p9 = h.dense_of(9);
        assert_eq!(
            c.choose(&h, p9, &[edge(&[6, 9]), edge(&[8, 9]), edge(&[9, 10])]),
            edge(&[9, 10])
        );
    }

    #[test]
    fn max_members_prefers_longer_on_shared_prefix() {
        let h = sscc_hypergraph::Hypergraph::new(&[&[1, 9], &[1, 2, 9]]);
        let c = MaxMembersDesc;
        // [9,2,1] > [9,1]: 9=9, then 2 > 1.
        assert_eq!(
            c.choose(&h, h.dense_of(9), &[EdgeId(0), EdgeId(1)]),
            EdgeId(1)
        );
    }

    #[test]
    fn min_size_first_prefers_small() {
        let h = generators::fig1();
        let c = MinSizeFirst;
        // {1,2} (size 2) over {1,2,3,4} (size 4).
        assert_eq!(
            c.choose(&h, h.dense_of(1), &[EdgeId(0), EdgeId(1)]),
            EdgeId(0)
        );
    }

    #[test]
    fn lowest_index_is_stable() {
        let h = generators::fig1();
        assert_eq!(
            LowestIndex.choose(&h, 0, &[EdgeId(3), EdgeId(1), EdgeId(4)]),
            EdgeId(1)
        );
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_candidates_panic() {
        let h = generators::fig1();
        let _ = MaxMembersDesc.choose(&h, 0, &[]);
    }
}
