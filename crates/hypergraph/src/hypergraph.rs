//! The distributed system as a simple, self-loopless hypergraph (paper §2.1).
//!
//! Vertices are processes (professors), hyperedges are synchronization events
//! (committees). Two distinct vertices are *neighbors* iff they share a
//! hyperedge; the neighbor relation induces the underlying communication
//! network handled by [`crate::network`].

use crate::ids::{EdgeId, ProcessId};
use crate::sharding::ShardPlan;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// Validation failure when constructing a [`Hypergraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HypergraphError {
    /// A hyperedge had fewer than two distinct members. The paper assumes
    /// every committee has at least two members (§2.1, footnote 1).
    EdgeTooSmall {
        /// Position of the offending committee in the input list.
        edge: usize,
        /// Number of distinct members it had.
        len: usize,
    },
    /// The same committee (as a set of members) appeared twice: the
    /// hypergraph must be *simple*.
    DuplicateEdge {
        /// Position of the first occurrence in the input list.
        first: usize,
        /// Position of the duplicate.
        second: usize,
    },
    /// A vertex belongs to no committee. Such a professor could never meet,
    /// and the underlying network would be disconnected.
    IsolatedVertex {
        /// The isolated professor.
        id: ProcessId,
    },
    /// The underlying communication network is not connected, so the token
    /// circulation substrate (Property 1) could not cover all processes.
    Disconnected,
    /// No vertices at all.
    Empty,
}

impl fmt::Display for HypergraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HypergraphError::EdgeTooSmall { edge, len } => {
                write!(
                    f,
                    "hyperedge #{edge} has {len} distinct members; committees need >= 2"
                )
            }
            HypergraphError::DuplicateEdge { first, second } => {
                write!(
                    f,
                    "hyperedges #{first} and #{second} have identical member sets"
                )
            }
            HypergraphError::IsolatedVertex { id } => {
                write!(f, "process {id} belongs to no committee")
            }
            HypergraphError::Disconnected => {
                write!(f, "underlying communication network is not connected")
            }
            HypergraphError::Empty => write!(f, "hypergraph has no vertices"),
        }
    }
}

impl std::error::Error for HypergraphError {}

/// An immutable, validated hypergraph `H = (V, E)`.
///
/// Internally vertices are stored densely: process `k` (a `usize` index) has
/// identifier `self.id(k)`. All hot-path structures (members, incidence,
/// neighborhoods) are precomputed boxed slices so that guard evaluation in the
/// runtime never allocates.
pub struct Hypergraph {
    /// Sorted, deduplicated process identifiers; dense index = position.
    pub(crate) ids: Box<[ProcessId]>,
    /// Edge member lists as sorted dense indices.
    pub(crate) edges: Box<[Box<[usize]>]>,
    /// For each dense vertex index, the sorted list of incident edges `E_p`.
    pub(crate) incident: Box<[Box<[EdgeId]>]>,
    /// For each dense vertex index, the sorted neighbor dense indices `N(v)`.
    pub(crate) neighbors: Box<[Box<[usize]>]>,
    /// For each dense vertex index, the sorted *closed* neighborhood
    /// `N[v] = {v} ∪ N(v)` — the dependency footprint of a guard evaluated
    /// at `v` in the locally shared memory model, cached for the runtime's
    /// incremental scheduler.
    pub(crate) closed_nbhd: Box<[Box<[usize]>]>,
    /// Identity table `[0, 1, …, n-1]`; `&identity[v..=v]` is the borrowed
    /// singleton slice `[v]` (allocation-free footprints).
    pub(crate) identity: Box<[usize]>,
    /// Lazily computed shard plans, keyed by shard count (compute once,
    /// share via `Arc`). Excluded from `Clone`/`PartialEq`: a cache, not
    /// part of the graph's value. [`crate::mutation`] clears it after a
    /// topology mutation.
    pub(crate) plans: Mutex<BTreeMap<usize, Arc<ShardPlan>>>,
}

impl Clone for Hypergraph {
    fn clone(&self) -> Self {
        Hypergraph {
            ids: self.ids.clone(),
            edges: self.edges.clone(),
            incident: self.incident.clone(),
            neighbors: self.neighbors.clone(),
            closed_nbhd: self.closed_nbhd.clone(),
            identity: self.identity.clone(),
            plans: Mutex::default(),
        }
    }
}

impl PartialEq for Hypergraph {
    fn eq(&self, other: &Self) -> bool {
        self.ids == other.ids && self.edges == other.edges
    }
}

impl Eq for Hypergraph {}

impl Hypergraph {
    /// Build a hypergraph from committees given as lists of raw identifiers.
    ///
    /// The vertex set is the union of all members. Member lists may be given
    /// in any order; duplicates within one committee are rejected implicitly
    /// by the *self-loopless* simplification (we deduplicate and then require
    /// at least two distinct members).
    ///
    /// # Errors
    ///
    /// See [`HypergraphError`] for the validated invariants.
    pub fn try_new(committees: &[&[u32]]) -> Result<Self, HypergraphError> {
        let mut id_set: BTreeSet<u32> = BTreeSet::new();
        for c in committees {
            id_set.extend(c.iter().copied());
        }
        if id_set.is_empty() {
            return Err(HypergraphError::Empty);
        }
        let ids: Box<[ProcessId]> = id_set.into_iter().map(ProcessId).collect();
        let dense = |raw: u32| -> usize {
            ids.binary_search(&ProcessId(raw))
                .expect("member id is in the union of members by construction")
        };

        // Hashed duplicate detection: O(Σ|ε|) instead of the quadratic
        // pairwise scan (required for the n ≥ 10^5 generator families).
        let mut edges: Vec<Box<[usize]>> = Vec::with_capacity(committees.len());
        let mut seen: HashMap<Box<[usize]>, usize> = HashMap::with_capacity(committees.len());
        for (k, c) in committees.iter().enumerate() {
            let mut members: Vec<usize> = c.iter().map(|&r| dense(r)).collect();
            members.sort_unstable();
            members.dedup();
            if members.len() < 2 {
                return Err(HypergraphError::EdgeTooSmall {
                    edge: k,
                    len: members.len(),
                });
            }
            let members: Box<[usize]> = members.into_boxed_slice();
            if let Some(&prev) = seen.get(&members) {
                return Err(HypergraphError::DuplicateEdge {
                    first: prev,
                    second: k,
                });
            }
            seen.insert(members.clone(), k);
            edges.push(members);
        }

        let n = ids.len();
        let mut incident: Vec<Vec<EdgeId>> = vec![Vec::new(); n];
        // Gather-then-sort neighbor lists (each member pair is pushed twice
        // and deduplicated in one pass) — no per-vertex tree allocations.
        let mut nbr_lists: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (k, e) in edges.iter().enumerate() {
            for &v in e.iter() {
                incident[v].push(EdgeId(k as u32));
                for &u in e.iter() {
                    if u != v {
                        nbr_lists[v].push(u);
                    }
                }
            }
        }
        for (v, inc) in incident.iter().enumerate() {
            if inc.is_empty() {
                return Err(HypergraphError::IsolatedVertex { id: ids[v] });
            }
        }

        let neighbors: Box<[Box<[usize]>]> = nbr_lists
            .into_iter()
            .map(|mut s| {
                s.sort_unstable();
                s.dedup();
                s.into_boxed_slice()
            })
            .collect();
        let closed_nbhd: Box<[Box<[usize]>]> = neighbors
            .iter()
            .enumerate()
            .map(|(v, nbrs)| {
                let mut closed = Vec::with_capacity(nbrs.len() + 1);
                closed.extend_from_slice(nbrs);
                let at = closed.partition_point(|&u| u < v);
                closed.insert(at, v);
                closed.into_boxed_slice()
            })
            .collect();
        let g = Hypergraph {
            ids,
            edges: edges.into_boxed_slice(),
            incident: incident.into_iter().map(Vec::into_boxed_slice).collect(),
            neighbors,
            closed_nbhd,
            identity: (0..n).collect(),
            plans: Mutex::default(),
        };
        if !g.is_connected() {
            return Err(HypergraphError::Disconnected);
        }
        Ok(g)
    }

    /// Like [`Hypergraph::try_new`] but panics on invalid input. Convenient
    /// for the fixed topologies in [`crate::generators`] and in tests.
    pub fn new(committees: &[&[u32]]) -> Self {
        Self::try_new(committees).expect("invalid hypergraph")
    }

    /// Number of processes `|V|`.
    #[inline]
    pub fn n(&self) -> usize {
        self.ids.len()
    }

    /// Number of committees `|E|`.
    #[inline]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Identifier of the process at dense index `v`.
    #[inline]
    pub fn id(&self, v: usize) -> ProcessId {
        self.ids[v]
    }

    /// All identifiers, ascending (dense order).
    #[inline]
    pub fn ids(&self) -> &[ProcessId] {
        &self.ids
    }

    /// Dense index of the process with raw identifier `raw`, if present.
    pub fn dense(&self, raw: u32) -> Option<usize> {
        self.ids.binary_search(&ProcessId(raw)).ok()
    }

    /// Dense index of `raw`; panics if absent. Test/fixture convenience.
    pub fn dense_of(&self, raw: u32) -> usize {
        self.dense(raw)
            .unwrap_or_else(|| panic!("process id {raw} not in hypergraph"))
    }

    /// Members (dense indices, ascending) of edge `e`.
    #[inline]
    pub fn members(&self, e: EdgeId) -> &[usize] {
        &self.edges[e.index()]
    }

    /// Length `|ε|` of edge `e` (paper §5.3).
    #[inline]
    pub fn edge_len(&self, e: EdgeId) -> usize {
        self.edges[e.index()].len()
    }

    /// Incident committees `E_p` of the process at dense index `v`.
    #[inline]
    pub fn incident(&self, v: usize) -> &[EdgeId] {
        &self.incident[v]
    }

    /// Neighbors `N(v)` as dense indices, ascending.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.neighbors[v]
    }

    /// Closed neighborhood `N[v] = {v} ∪ N(v)` as dense indices, ascending.
    ///
    /// This is the *dependency footprint* of `v`: in the locally shared
    /// memory model, a state change of `v` can only affect the guards of
    /// processes in `N[v]` (§2.2 locality). Cached at construction so the
    /// incremental scheduler never allocates on the hot path.
    #[inline]
    pub fn closed_neighborhood(&self, v: usize) -> &[usize] {
        &self.closed_nbhd[v]
    }

    /// The singleton slice `[v]`, borrowed from a cached identity table
    /// (allocation-free way to return "just `v`" as a footprint).
    #[inline]
    pub fn singleton(&self, v: usize) -> &[usize] {
        &self.identity[v..=v]
    }

    /// Whether processes at dense indices `u` and `v` are neighbors.
    pub fn are_neighbors(&self, u: usize, v: usize) -> bool {
        u != v && self.neighbors[u].binary_search(&v).is_ok()
    }

    /// Whether dense index `v` is a member of edge `e`.
    #[inline]
    pub fn is_member(&self, v: usize, e: EdgeId) -> bool {
        self.edges[e.index()].binary_search(&v).is_ok()
    }

    /// The member of `e` with the **largest identifier**, as a dense
    /// index. Members are stored ascending and dense order is identifier
    /// order (ids are sorted at construction), so this is the last member
    /// — an `O(1)` lookup the committee-predicate mirror uses for
    /// max-candidate selection over free edges.
    #[inline]
    pub fn max_member(&self, e: EdgeId) -> usize {
        *self.edges[e.index()]
            .last()
            .expect("committees have >= 2 members")
    }

    /// Iterator over all edge identifiers.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.m() as u32).map(EdgeId)
    }

    /// Two committees are *conflicting* iff they share a member (§2.3).
    pub fn conflicting(&self, a: EdgeId, b: EdgeId) -> bool {
        let (ea, eb) = (self.members(a), self.members(b));
        // Both sorted: linear merge intersection test.
        let (mut i, mut j) = (0, 0);
        while i < ea.len() && j < eb.len() {
            match ea[i].cmp(&eb[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// Minimum committee length incident to `v` (`minE_p`, §5.3).
    pub fn min_edge_len(&self, v: usize) -> usize {
        self.incident[v]
            .iter()
            .map(|&e| self.edge_len(e))
            .min()
            .expect("no isolated vertices")
    }

    /// `MinEdges_p`: incident committees of minimum length (Algorithm 2).
    pub fn min_edges(&self, v: usize) -> Vec<EdgeId> {
        let m = self.min_edge_len(v);
        self.incident[v]
            .iter()
            .copied()
            .filter(|&e| self.edge_len(e) == m)
            .collect()
    }

    /// `MaxMin = max_{p in V} minE_p` (paper §5.3, used by Theorem 5).
    pub fn max_min(&self) -> usize {
        (0..self.n())
            .map(|v| self.min_edge_len(v))
            .max()
            .unwrap_or(0)
    }

    /// `MaxHEdge = max_{ε in E} |ε|` (paper §5.4, used by Theorem 8).
    pub fn max_hedge(&self) -> usize {
        self.edges.iter().map(|e| e.len()).max().unwrap_or(0)
    }

    /// Connectivity of the underlying communication network, via BFS over
    /// the neighbor relation.
    fn is_connected(&self) -> bool {
        let n = self.n();
        if n == 0 {
            return false;
        }
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        seen[0] = true;
        queue.push_back(0usize);
        let mut count = 1;
        while let Some(v) = queue.pop_front() {
            for &u in self.neighbors(v) {
                if !seen[u] {
                    seen[u] = true;
                    count += 1;
                    queue.push_back(u);
                }
            }
        }
        count == n
    }

    /// Members of `e` as raw identifier values (display/report helper).
    pub fn members_raw(&self, e: EdgeId) -> Vec<u32> {
        self.members(e)
            .iter()
            .map(|&v| self.id(v).value())
            .collect()
    }

    /// The `shards`-way [`ShardPlan`] over this graph, computed lazily and
    /// cached.
    pub fn shard_plan(&self, shards: usize) -> Arc<ShardPlan> {
        // The map is only ever inserted into: a poisoned lock still guards
        // a consistent memo.
        let mut cache = self.plans.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            cache
                .entry(shards.clamp(1, self.n()))
                .or_insert_with_key(|&k| Arc::new(ShardPlan::new(self, k))),
        )
    }
}

impl fmt::Debug for Hypergraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hypergraph(n={}, E=[", self.n())?;
        for (k, _) in self.edges.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{{")?;
            for (i, &v) in self.edges[k].iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{}", self.ids[v])?;
            }
            write!(f, "}}")?;
        }
        write!(f, "])")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1() -> Hypergraph {
        // Figure 1(a): V = {1..6}, E = {{1,2},{1,2,3,4},{2,4,5},{3,6},{4,6}}.
        Hypergraph::new(&[&[1, 2], &[1, 2, 3, 4], &[2, 4, 5], &[3, 6], &[4, 6]])
    }

    #[test]
    fn fig1_shape() {
        let h = fig1();
        assert_eq!(h.n(), 6);
        assert_eq!(h.m(), 5);
        assert_eq!(h.members_raw(EdgeId(1)), vec![1, 2, 3, 4]);
    }

    #[test]
    fn fig1_neighbors_match_paper() {
        // Figure 1(b) lists EE = {{1,2},{1,3},{1,4},{2,3},{2,4},{2,5},
        //                         {3,4},{3,6},{4,5},{4,6}}.
        let h = fig1();
        let expected: &[(u32, &[u32])] = &[
            (1, &[2, 3, 4]),
            (2, &[1, 3, 4, 5]),
            (3, &[1, 2, 4, 6]),
            (4, &[1, 2, 3, 5, 6]),
            (5, &[2, 4]),
            (6, &[3, 4]),
        ];
        for &(p, nbrs) in expected {
            let v = h.dense_of(p);
            let got: Vec<u32> = h.neighbors(v).iter().map(|&u| h.id(u).value()).collect();
            assert_eq!(got, nbrs, "neighbors of {p}");
        }
    }

    #[test]
    fn incident_edges() {
        let h = fig1();
        let v2 = h.dense_of(2);
        let inc: Vec<usize> = h.incident(v2).iter().map(|e| e.index()).collect();
        assert_eq!(inc, vec![0, 1, 2]);
    }

    #[test]
    fn conflicts() {
        let h = fig1();
        assert!(h.conflicting(EdgeId(0), EdgeId(1))); // share 1 and 2
        assert!(h.conflicting(EdgeId(3), EdgeId(4))); // share 6
        assert!(!h.conflicting(EdgeId(0), EdgeId(3))); // {1,2} vs {3,6}
    }

    #[test]
    fn min_edges_and_maxmin() {
        let h = fig1();
        let v1 = h.dense_of(1);
        assert_eq!(h.min_edge_len(v1), 2);
        assert_eq!(h.min_edges(v1), vec![EdgeId(0)]);
        // minE: p1->2, p2->2, p3->2, p4->2, p5->3, p6->2 => MaxMin = 3.
        assert_eq!(h.max_min(), 3);
        assert_eq!(h.max_hedge(), 4);
    }

    #[test]
    fn rejects_singleton_committee() {
        assert_eq!(
            Hypergraph::try_new(&[&[1], &[1, 2]]).unwrap_err(),
            HypergraphError::EdgeTooSmall { edge: 0, len: 1 }
        );
    }

    #[test]
    fn rejects_self_loop_duplicate_member() {
        // {3,3} collapses to a singleton after deduplication.
        assert_eq!(
            Hypergraph::try_new(&[&[3, 3], &[1, 3]]).unwrap_err(),
            HypergraphError::EdgeTooSmall { edge: 0, len: 1 }
        );
    }

    #[test]
    fn rejects_duplicate_edges() {
        assert_eq!(
            Hypergraph::try_new(&[&[1, 2], &[2, 1]]).unwrap_err(),
            HypergraphError::DuplicateEdge {
                first: 0,
                second: 1
            }
        );
    }

    #[test]
    fn rejects_disconnected() {
        assert_eq!(
            Hypergraph::try_new(&[&[1, 2], &[3, 4]]).unwrap_err(),
            HypergraphError::Disconnected
        );
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(
            Hypergraph::try_new(&[]).unwrap_err(),
            HypergraphError::Empty
        );
    }

    #[test]
    fn sparse_identifiers_are_fine() {
        let h = Hypergraph::new(&[&[100, 7], &[7, 2000]]);
        assert_eq!(h.n(), 3);
        assert_eq!(h.id(0), ProcessId(7));
        assert_eq!(h.id(2), ProcessId(2000));
        assert!(h.are_neighbors(h.dense_of(100), h.dense_of(7)));
        assert!(!h.are_neighbors(h.dense_of(100), h.dense_of(2000)));
    }

    #[test]
    fn closed_neighborhood_is_sorted_and_contains_self() {
        let h = fig1();
        for v in 0..h.n() {
            let closed = h.closed_neighborhood(v);
            assert!(closed.windows(2).all(|w| w[0] < w[1]), "sorted, dedup");
            assert!(closed.contains(&v), "contains self");
            assert_eq!(closed.len(), h.neighbors(v).len() + 1);
            for &u in closed {
                assert!(u == v || h.are_neighbors(u, v));
            }
        }
    }

    #[test]
    fn singleton_slices() {
        let h = fig1();
        for v in 0..h.n() {
            assert_eq!(h.singleton(v), &[v]);
        }
    }

    #[test]
    fn is_member_checks() {
        let h = fig1();
        assert!(h.is_member(h.dense_of(5), EdgeId(2)));
        assert!(!h.is_member(h.dense_of(5), EdgeId(0)));
    }

    #[test]
    fn max_member_is_the_max_id_member() {
        let h = Hypergraph::new(&[&[100, 7], &[7, 2000]]);
        for e in h.edge_ids() {
            let expect = h
                .members(e)
                .iter()
                .copied()
                .max_by_key(|&v| h.id(v))
                .unwrap();
            assert_eq!(h.max_member(e), expect);
        }
        assert_eq!(h.id(h.max_member(EdgeId(1))).value(), 2000);
    }
}
