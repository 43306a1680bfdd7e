//! Topology churn: in-place mutation of a validated [`Hypergraph`] with
//! **incremental index repair**.
//!
//! The paper's model is static, but snap-stabilization is exactly the
//! property that makes churn survivable: a committee appearing, dissolving
//! or changing membership perturbs the configuration no worse than a
//! transient fault, and every *subsequent* convene must still satisfy the
//! specification. This module provides the structural half of that story:
//! a [`WorldMutation`] applied through [`Hypergraph::apply_mutation`]
//! repairs the cached incidence lists, neighbor sets and closed
//! neighborhoods *incrementally* — `O(Δ)` in the touched membership, never
//! a full rebuild — drops the memoized shard plans, and reports what
//! changed as a [`MutationDelta`] so higher layers (guard caches, fact
//! mirrors, meeting ledgers) can repair their own per-edge state the same
//! way.
//!
//! ## Design: a fixed vertex set, a churning edge set
//!
//! Mutations change only the *committee structure*; the process set is
//! fixed. "Member join/leave" means joining or leaving a committee, not
//! the system. This keeps every per-process structure above (states,
//! daemons, schedulers, request flags) valid across a mutation; only
//! per-committee state needs remapping. Removal uses `swap_remove`, so at
//! most one surviving committee changes identifier per mutation — the
//! delta records the move and [`MutationDelta::remap_edge`] translates old
//! edge ids to new ones.
//!
//! All validation happens **before** any index is touched (connectivity is
//! checked by a BFS that overlays the proposed edit on the current graph),
//! so a rejected mutation leaves the graph byte-identical — there is no
//! rollback path to test, because there is no partial application.

use crate::hypergraph::Hypergraph;
use crate::ids::EdgeId;
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt;
use std::sync::PoisonError;

/// A structural edit of the committee hypergraph. Processes are named by
/// their raw identifiers (the same namespace [`Hypergraph::new`] accepts);
/// committees by their current [`EdgeId`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorldMutation {
    /// Create a new committee from existing processes (≥ 2 distinct).
    AddCommittee {
        /// Raw identifiers of the members.
        members: Vec<u32>,
    },
    /// Dissolve a committee. The last edge id is `swap_remove`d into the
    /// vacated slot.
    RemoveCommittee {
        /// The committee to dissolve.
        edge: EdgeId,
    },
    /// An existing process joins an existing committee.
    Join {
        /// The committee joined.
        edge: EdgeId,
        /// Raw identifier of the joining process.
        member: u32,
    },
    /// A member leaves a committee (which must keep ≥ 2 members).
    Leave {
        /// The committee left.
        edge: EdgeId,
        /// Raw identifier of the leaving member.
        member: u32,
    },
    /// Replace a committee's member set wholesale (edge id is preserved).
    Rewire {
        /// The committee being rewired.
        edge: EdgeId,
        /// Raw identifiers of the new member set (≥ 2 distinct).
        members: Vec<u32>,
    },
}

/// Why a [`WorldMutation`] was rejected. Rejection is total: the graph is
/// untouched.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MutationError {
    /// A named process is not in the (fixed) vertex set.
    UnknownProcess {
        /// The raw identifier that did not resolve.
        id: u32,
    },
    /// A named committee id is out of range.
    UnknownEdge {
        /// The offending edge id.
        edge: EdgeId,
    },
    /// The resulting committee would have fewer than two distinct members.
    EdgeTooSmall {
        /// Distinct member count it would have had.
        len: usize,
    },
    /// The resulting committee would duplicate an existing one (the
    /// hypergraph must stay simple).
    DuplicateEdge {
        /// The existing committee with the identical member set.
        existing: EdgeId,
    },
    /// The named process is not a member of the named committee.
    NotAMember {
        /// Raw identifier of the process.
        id: u32,
    },
    /// The named process is already a member of the named committee.
    AlreadyMember {
        /// Raw identifier of the process.
        id: u32,
    },
    /// The mutation would leave a process in no committee at all.
    WouldIsolate {
        /// Raw identifier of the process that would be isolated.
        id: u32,
    },
    /// The mutation would disconnect the underlying communication network
    /// (the token-circulation substrate requires connectivity).
    WouldDisconnect,
    /// The layer driving the world refused to apply the (otherwise valid)
    /// mutation: its engine cannot repair the derived structures the edit
    /// invalidates. Raised before the graph is touched — e.g. a distributed
    /// sim, whose shard actors' ownership map is keyed to the topology,
    /// fails closed instead of corrupting shard-local state.
    EngineRejected {
        /// Which engine refused, for diagnostics.
        engine: &'static str,
    },
}

impl fmt::Display for MutationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutationError::UnknownProcess { id } => write!(f, "process {id} is not in the world"),
            MutationError::UnknownEdge { edge } => write!(f, "committee {edge:?} does not exist"),
            MutationError::EdgeTooSmall { len } => {
                write!(f, "committee would have {len} members; needs >= 2")
            }
            MutationError::DuplicateEdge { existing } => {
                write!(f, "member set duplicates committee {existing:?}")
            }
            MutationError::NotAMember { id } => write!(f, "process {id} is not a member"),
            MutationError::AlreadyMember { id } => write!(f, "process {id} is already a member"),
            MutationError::WouldIsolate { id } => {
                write!(f, "process {id} would be left in no committee")
            }
            MutationError::WouldDisconnect => {
                write!(f, "mutation would disconnect the communication network")
            }
            MutationError::EngineRejected { engine } => {
                write!(
                    f,
                    "the {engine} engine cannot repair this mutation and failed closed"
                )
            }
        }
    }
}

impl std::error::Error for MutationError {}

/// What a successful [`Hypergraph::apply_mutation`] changed — the repair
/// contract for every layer that caches per-edge or per-neighborhood
/// state. At most one of `added`/`removed`/`modified` is `Some`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MutationDelta {
    /// Committee count before the mutation.
    old_m: usize,
    /// Committee count after.
    new_m: usize,
    /// Id of a newly created committee (always `EdgeId(old_m)`).
    added: Option<EdgeId>,
    /// *Old* id of a dissolved committee (no longer valid).
    removed: Option<EdgeId>,
    /// `(old, new)` id of the committee relocated by `swap_remove` — the
    /// previous last edge, moved into the vacated slot. Its member set is
    /// unchanged.
    moved: Option<(EdgeId, EdgeId)>,
    /// Id (stable across the mutation) of a committee whose member set
    /// changed.
    modified: Option<EdgeId>,
    /// Dense vertices whose incident structure (membership, neighbors,
    /// closed neighborhood) changed: the union of old and new members of
    /// the edited committee. Sorted ascending.
    touched: Vec<usize>,
}

impl MutationDelta {
    /// Committee count before the mutation.
    pub fn old_m(&self) -> usize {
        self.old_m
    }

    /// Committee count after the mutation.
    pub fn new_m(&self) -> usize {
        self.new_m
    }

    /// Id of a newly created committee, if any.
    pub fn added(&self) -> Option<EdgeId> {
        self.added
    }

    /// Old id of a dissolved committee, if any.
    pub fn removed(&self) -> Option<EdgeId> {
        self.removed
    }

    /// `(old, new)` id of the swap-relocated committee, if any.
    pub fn moved(&self) -> Option<(EdgeId, EdgeId)> {
        self.moved
    }

    /// Id of a committee whose member set changed in place, if any.
    pub fn modified(&self) -> Option<EdgeId> {
        self.modified
    }

    /// Dense vertices whose neighborhood structure changed (sorted).
    pub fn touched(&self) -> &[usize] {
        &self.touched
    }

    /// Translate a pre-mutation edge id into the post-mutation id space:
    /// `None` if the committee was dissolved (or the id was already out of
    /// range — corrupted references repair to "no committee").
    pub fn remap_edge(&self, e: EdgeId) -> Option<EdgeId> {
        if e.index() >= self.old_m {
            return None;
        }
        if self.removed == Some(e) {
            return None;
        }
        if let Some((old, new)) = self.moved {
            if e == old {
                return Some(new);
            }
        }
        Some(e)
    }

    /// Apply the structural remap to a dense per-edge vector: `swap_remove`
    /// the dissolved slot, push `fill()` for a new committee. After this,
    /// index `remap_edge(e).unwrap()` holds the value previously at `e` —
    /// callers then recompute the slots named by [`MutationDelta::changed_edges`].
    pub fn remap_per_edge<T>(&self, v: &mut Vec<T>, fill: impl FnOnce() -> T) {
        debug_assert_eq!(v.len(), self.old_m, "per-edge vector out of sync");
        if let Some(e) = self.removed {
            v.swap_remove(e.index());
        }
        if self.added.is_some() {
            v.push(fill());
        }
        debug_assert_eq!(v.len(), self.new_m);
    }

    /// Post-mutation ids of committees whose *content* is new or changed —
    /// the slots a per-edge cache must recompute after
    /// [`MutationDelta::remap_per_edge`]. (The swap-relocated committee is
    /// not listed: its member set is unchanged and its cached value moved
    /// with the remap.)
    pub fn changed_edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.added.into_iter().chain(self.modified)
    }
}

impl Hypergraph {
    /// Apply a [`WorldMutation`] in place, incrementally repairing the
    /// cached incidence lists, neighbor sets and closed neighborhoods and
    /// dropping any memoized shard plan. Validation is complete before the
    /// first write: on `Err` the graph is untouched.
    ///
    /// Cost: `O(Σ_{v ∈ touched} deg(v)·|ε|)` for the index repair plus one
    /// BFS (`O(Σ|ε|)`) when the edit can disconnect the network.
    pub fn apply_mutation(
        &mut self,
        mutation: &WorldMutation,
    ) -> Result<MutationDelta, MutationError> {
        let delta = match mutation {
            WorldMutation::AddCommittee { members } => self.mutate_add(members)?,
            WorldMutation::RemoveCommittee { edge } => self.mutate_remove(*edge)?,
            WorldMutation::Join { edge, member } => {
                let v = self.resolve(*member)?;
                let old = self.edge_checked(*edge)?.to_vec();
                if old.binary_search(&v).is_ok() {
                    return Err(MutationError::AlreadyMember { id: *member });
                }
                let mut new = old;
                let at = new.partition_point(|&u| u < v);
                new.insert(at, v);
                self.mutate_replace(*edge, new)?
            }
            WorldMutation::Leave { edge, member } => {
                let v = self.resolve(*member)?;
                let old = self.edge_checked(*edge)?.to_vec();
                let Ok(at) = old.binary_search(&v) else {
                    return Err(MutationError::NotAMember { id: *member });
                };
                let mut new = old;
                new.remove(at);
                self.mutate_replace(*edge, new)?
            }
            WorldMutation::Rewire { edge, members } => {
                self.edge_checked(*edge)?;
                let new = self.resolve_member_set(members)?;
                self.mutate_replace(*edge, new)?
            }
        };
        // Memoized shard plans describe the pre-mutation graph; the next
        // `shard_plan` call recomputes.
        self.plans
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        Ok(delta)
    }

    /// Resolve a raw identifier to its dense index.
    fn resolve(&self, raw: u32) -> Result<usize, MutationError> {
        self.dense(raw)
            .ok_or(MutationError::UnknownProcess { id: raw })
    }

    /// Resolve, sort and deduplicate a raw member list; reject < 2 distinct.
    fn resolve_member_set(&self, raw: &[u32]) -> Result<Vec<usize>, MutationError> {
        let mut members = Vec::with_capacity(raw.len());
        for &r in raw {
            members.push(self.resolve(r)?);
        }
        members.sort_unstable();
        members.dedup();
        if members.len() < 2 {
            return Err(MutationError::EdgeTooSmall { len: members.len() });
        }
        Ok(members)
    }

    /// Members of `e`, or `UnknownEdge`.
    fn edge_checked(&self, e: EdgeId) -> Result<&[usize], MutationError> {
        self.edges
            .get(e.index())
            .map(|m| &**m)
            .ok_or(MutationError::UnknownEdge { edge: e })
    }

    /// An existing committee with exactly this (sorted) member set, if any.
    /// Only edges incident to `members[0]` can match — `O(deg·|ε|)`.
    fn find_duplicate(&self, members: &[usize]) -> Option<EdgeId> {
        self.incident[members[0]]
            .iter()
            .copied()
            .find(|&e| *self.edges[e.index()] == *members)
    }

    /// Connectivity of the network with committee `edit`'s member set
    /// overlaid as `with` (empty = dissolved), checked on the *current*
    /// graph — the validation BFS that makes rejection rollback-free.
    fn connected_with_override(&self, edit: EdgeId, with: &[usize]) -> bool {
        let n = self.n();
        let mut seen = vec![false; n];
        let mut seen_edge = vec![false; self.m()];
        let mut queue = std::collections::VecDeque::new();
        seen[0] = true;
        queue.push_back(0usize);
        let mut count = 1usize;
        while let Some(v) = queue.pop_front() {
            let mut visit = |u: usize| {
                if !seen[u] {
                    seen[u] = true;
                    count += 1;
                    queue.push_back(u);
                }
            };
            for &e in self.incident[v].iter() {
                if e == edit || seen_edge[e.index()] {
                    continue;
                }
                seen_edge[e.index()] = true;
                for &u in self.edges[e.index()].iter() {
                    visit(u);
                }
            }
            // The overlaid member set is not in any incidence list yet.
            if with.binary_search(&v).is_ok() {
                for &u in with {
                    visit(u);
                }
            }
        }
        count == n
    }

    /// Recompute `neighbors[v]` and `closed_nbhd[v]` from `incident[v]`.
    fn rebuild_vertex(&mut self, v: usize) {
        let mut nb: Vec<usize> = Vec::new();
        for &e in self.incident[v].iter() {
            nb.extend(self.edges[e.index()].iter().copied().filter(|&u| u != v));
        }
        nb.sort_unstable();
        nb.dedup();
        let mut closed = Vec::with_capacity(nb.len() + 1);
        closed.extend_from_slice(&nb);
        let at = closed.partition_point(|&u| u < v);
        closed.insert(at, v);
        self.neighbors[v] = nb.into_boxed_slice();
        self.closed_nbhd[v] = closed.into_boxed_slice();
    }

    /// Rebuild `incident[v]` by applying `f` to a scratch copy.
    fn edit_incident(&mut self, v: usize, f: impl FnOnce(&mut Vec<EdgeId>)) {
        let mut inc = self.incident[v].to_vec();
        f(&mut inc);
        self.incident[v] = inc.into_boxed_slice();
    }

    fn mutate_add(&mut self, raw: &[u32]) -> Result<MutationDelta, MutationError> {
        let members = self.resolve_member_set(raw)?;
        if let Some(existing) = self.find_duplicate(&members) {
            return Err(MutationError::DuplicateEdge { existing });
        }
        let old_m = self.m();
        let id = EdgeId(old_m as u32);
        let mut edges = std::mem::take(&mut self.edges).into_vec();
        edges.push(members.clone().into_boxed_slice());
        self.edges = edges.into_boxed_slice();
        for &v in &members {
            // New id is the maximum: push keeps the incident list sorted.
            self.edit_incident(v, |inc| inc.push(id));
            self.rebuild_vertex(v);
        }
        Ok(MutationDelta {
            old_m,
            new_m: old_m + 1,
            added: Some(id),
            removed: None,
            moved: None,
            modified: None,
            touched: members,
        })
    }

    fn mutate_remove(&mut self, edge: EdgeId) -> Result<MutationDelta, MutationError> {
        let members = self.edge_checked(edge)?.to_vec();
        for &v in &members {
            if self.incident[v].len() == 1 {
                return Err(MutationError::WouldIsolate {
                    id: self.id(v).value(),
                });
            }
        }
        if !self.connected_with_override(edge, &[]) {
            return Err(MutationError::WouldDisconnect);
        }
        let old_m = self.m();
        let last = EdgeId((old_m - 1) as u32);
        let mut edges = std::mem::take(&mut self.edges).into_vec();
        edges.swap_remove(edge.index());
        self.edges = edges.into_boxed_slice();
        for &v in &members {
            self.edit_incident(v, |inc| {
                let at = inc.binary_search(&edge).expect("member lists incidence");
                inc.remove(at);
            });
        }
        let moved = (edge != last).then_some((last, edge));
        if moved.is_some() {
            // The relocated committee's members re-point their incidence
            // entries at the new id (structure otherwise unchanged).
            let relocated = self.edges[edge.index()].to_vec();
            for &v in &relocated {
                self.edit_incident(v, |inc| {
                    let at = inc.binary_search(&last).expect("member lists incidence");
                    inc.remove(at);
                    let ins = inc.partition_point(|&x| x < edge);
                    inc.insert(ins, edge);
                });
            }
        }
        for &v in &members {
            self.rebuild_vertex(v);
        }
        Ok(MutationDelta {
            old_m,
            new_m: old_m - 1,
            added: None,
            removed: Some(edge),
            moved,
            modified: None,
            touched: members,
        })
    }

    /// Shared implementation of `Join`/`Leave`/`Rewire`: replace `edge`'s
    /// member set with the (resolved, sorted, distinct) `new` set.
    fn mutate_replace(
        &mut self,
        edge: EdgeId,
        new: Vec<usize>,
    ) -> Result<MutationDelta, MutationError> {
        if new.len() < 2 {
            return Err(MutationError::EdgeTooSmall { len: new.len() });
        }
        let old = self.edge_checked(edge)?.to_vec();
        if old == new {
            // A no-op rewire: nothing to repair, nothing changed.
            return Ok(MutationDelta {
                old_m: self.m(),
                new_m: self.m(),
                added: None,
                removed: None,
                moved: None,
                modified: None,
                touched: Vec::new(),
            });
        }
        if let Some(existing) = self.find_duplicate(&new) {
            if existing != edge {
                return Err(MutationError::DuplicateEdge { existing });
            }
        }
        // Leavers must survive in some other committee.
        for &v in &old {
            if new.binary_search(&v).is_err() && self.incident[v].len() == 1 {
                return Err(MutationError::WouldIsolate {
                    id: self.id(v).value(),
                });
            }
        }
        // Only losing members can cut the network; a pure join keeps every
        // current connection.
        if old.iter().any(|v| new.binary_search(v).is_err())
            && !self.connected_with_override(edge, &new)
        {
            return Err(MutationError::WouldDisconnect);
        }
        let mut edges = std::mem::take(&mut self.edges).into_vec();
        edges[edge.index()] = new.clone().into_boxed_slice();
        self.edges = edges.into_boxed_slice();
        let mut touched = old.clone();
        touched.extend_from_slice(&new);
        touched.sort_unstable();
        touched.dedup();
        for &v in &touched {
            let was = old.binary_search(&v).is_ok();
            let is = new.binary_search(&v).is_ok();
            if was && !is {
                self.edit_incident(v, |inc| {
                    let at = inc.binary_search(&edge).expect("member lists incidence");
                    inc.remove(at);
                });
            } else if is && !was {
                self.edit_incident(v, |inc| {
                    let at = inc.partition_point(|&x| x < edge);
                    inc.insert(at, edge);
                });
            }
            self.rebuild_vertex(v);
        }
        Ok(MutationDelta {
            old_m: self.m(),
            new_m: self.m(),
            added: None,
            removed: None,
            moved: None,
            modified: Some(edge),
            touched,
        })
    }
}

/// Directional pressure on [`random_mutation_with_bias`] proposals.
///
/// Fault campaigns use this to stress specific structural regimes: a
/// grow-only campaign drives committee counts (and guard fan-out) up, a
/// shrink-only campaign starves the topology toward its connectivity and
/// isolation floors — both regimes exercise repair paths a balanced walk
/// rarely lingers in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MutationBias {
    /// All five mutation kinds, uniformly (the historical behavior).
    #[default]
    Balanced,
    /// Only structure-adding proposals: `AddCommittee` and `Join`.
    GrowOnly,
    /// Only structure-removing proposals: `RemoveCommittee` and `Leave`.
    /// Validation still rejects proposals that would isolate a process or
    /// disconnect the network, so a shrink-only campaign saturates at the
    /// structural floor rather than destroying the graph.
    ShrinkOnly,
}

/// Propose a seeded pseudo-random mutation against the current graph. The
/// proposal is *plausible*, not guaranteed valid — drivers apply it and
/// skip on `Err`, which keeps generation `O(1)`-ish and deterministic in
/// the rng stream regardless of graph shape. Lockstep twins evolving the
/// same graph under the same rng stream therefore see the same mutation
/// sequence.
pub fn random_mutation(h: &Hypergraph, rng: &mut StdRng) -> WorldMutation {
    random_mutation_with_bias(h, rng, MutationBias::Balanced)
}

/// [`random_mutation`] restricted by a [`MutationBias`]. The edge draw
/// always happens first so differently-biased campaigns sharing a seed
/// stay aligned on the same rng stream prefix per proposal.
pub fn random_mutation_with_bias(
    h: &Hypergraph,
    rng: &mut StdRng,
    bias: MutationBias,
) -> WorldMutation {
    let raw_of = |v: usize| h.id(v).value();
    let random_members = |rng: &mut StdRng| -> Vec<u32> {
        let k = rng.random_range(2..=4usize.min(h.n()));
        (0..k).map(|_| raw_of(rng.random_range(0..h.n()))).collect()
    };
    let edge = EdgeId(rng.random_range(0..h.m()) as u32);
    let kind = match bias {
        MutationBias::Balanced => rng.random_range(0..5u32),
        // Remap a binary draw onto the grow/shrink variant pair.
        MutationBias::GrowOnly => [0, 2][rng.random_range(0..2usize)],
        MutationBias::ShrinkOnly => [1, 3][rng.random_range(0..2usize)],
    };
    match kind {
        0 => WorldMutation::AddCommittee {
            members: random_members(rng),
        },
        1 => WorldMutation::RemoveCommittee { edge },
        2 => WorldMutation::Join {
            edge,
            member: raw_of(rng.random_range(0..h.n())),
        },
        3 => {
            let members = h.members(edge);
            let pick = members[rng.random_range(0..members.len())];
            WorldMutation::Leave {
                edge,
                member: raw_of(pick),
            }
        }
        _ => WorldMutation::Rewire {
            edge,
            members: random_members(rng),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::sharding::ShardPlan;
    use rand::SeedableRng as _;

    fn raw_edges(h: &Hypergraph) -> Vec<Vec<u32>> {
        h.edge_ids().map(|e| h.members_raw(e)).collect()
    }

    /// Rebuild from scratch through the validated constructor — the oracle
    /// every repair is compared against.
    fn rebuilt(h: &Hypergraph) -> Hypergraph {
        let committees = raw_edges(h);
        let refs: Vec<&[u32]> = committees.iter().map(|c| c.as_slice()).collect();
        Hypergraph::new(&refs)
    }

    fn assert_repaired(h: &Hypergraph) {
        let fresh = rebuilt(h);
        assert_eq!(h, &fresh, "edge structure");
        for v in 0..h.n() {
            assert_eq!(h.incident(v), fresh.incident(v), "incident[{v}]");
            assert_eq!(h.neighbors(v), fresh.neighbors(v), "neighbors[{v}]");
            assert_eq!(
                h.closed_neighborhood(v),
                fresh.closed_neighborhood(v),
                "closed_nbhd[{v}]"
            );
        }
    }

    #[test]
    fn add_and_remove_round_trip() {
        let mut h = generators::fig1();
        let before = raw_edges(&h);
        let d = h
            .apply_mutation(&WorldMutation::AddCommittee {
                members: vec![5, 6],
            })
            .unwrap();
        assert_eq!(d.added(), Some(EdgeId(5)));
        assert_repaired(&h);
        let d = h
            .apply_mutation(&WorldMutation::RemoveCommittee { edge: EdgeId(5) })
            .unwrap();
        assert_eq!(d.removed(), Some(EdgeId(5)));
        assert_eq!(d.moved(), None, "removing the last edge moves nothing");
        assert_eq!(raw_edges(&h), before);
        assert_repaired(&h);
    }

    #[test]
    fn swap_remove_relocates_only_the_last_edge() {
        let mut h = generators::fig1();
        let last_members = h.members_raw(EdgeId(4));
        let d = h
            .apply_mutation(&WorldMutation::RemoveCommittee { edge: EdgeId(1) })
            .unwrap();
        assert_eq!(d.moved(), Some((EdgeId(4), EdgeId(1))));
        assert_eq!(h.members_raw(EdgeId(1)), last_members);
        assert_eq!(d.remap_edge(EdgeId(4)), Some(EdgeId(1)));
        assert_eq!(d.remap_edge(EdgeId(1)), None);
        assert_eq!(d.remap_edge(EdgeId(0)), Some(EdgeId(0)));
        assert_repaired(&h);
    }

    #[test]
    fn join_and_leave() {
        let mut h = generators::fig2();
        let d = h
            .apply_mutation(&WorldMutation::Join {
                edge: EdgeId(0),
                member: 4,
            })
            .unwrap();
        assert_eq!(d.modified(), Some(EdgeId(0)));
        assert_eq!(h.members_raw(EdgeId(0)), vec![1, 2, 4]);
        assert_repaired(&h);
        h.apply_mutation(&WorldMutation::Leave {
            edge: EdgeId(0),
            member: 4,
        })
        .unwrap();
        assert_eq!(h.members_raw(EdgeId(0)), vec![1, 2]);
        assert_repaired(&h);
    }

    #[test]
    fn rejections_leave_the_graph_untouched() {
        let mut h = generators::fig2();
        let snapshot = h.clone();
        let cases: Vec<(WorldMutation, MutationError)> = vec![
            (
                WorldMutation::AddCommittee {
                    members: vec![1, 99],
                },
                MutationError::UnknownProcess { id: 99 },
            ),
            (
                WorldMutation::AddCommittee {
                    members: vec![1, 2],
                },
                MutationError::DuplicateEdge {
                    existing: EdgeId(0),
                },
            ),
            (
                WorldMutation::AddCommittee {
                    members: vec![1, 1],
                },
                MutationError::EdgeTooSmall { len: 1 },
            ),
            (
                WorldMutation::RemoveCommittee { edge: EdgeId(9) },
                MutationError::UnknownEdge { edge: EdgeId(9) },
            ),
            (
                // {1,2} is 2's only committee.
                WorldMutation::RemoveCommittee { edge: EdgeId(0) },
                MutationError::WouldIsolate { id: 2 },
            ),
            (
                WorldMutation::Join {
                    edge: EdgeId(0),
                    member: 1,
                },
                MutationError::AlreadyMember { id: 1 },
            ),
            (
                WorldMutation::Leave {
                    edge: EdgeId(1),
                    member: 2,
                },
                MutationError::NotAMember { id: 2 },
            ),
            (
                WorldMutation::Leave {
                    edge: EdgeId(0),
                    member: 1,
                },
                MutationError::EdgeTooSmall { len: 1 },
            ),
            (
                // Rewiring {1,3,5} to {3,4} duplicates committee 2 — and
                // would orphan 5 anyway; the duplicate is caught first?
                // No: isolation of 5 is checked after the duplicate scan.
                WorldMutation::Rewire {
                    edge: EdgeId(1),
                    members: vec![3, 4],
                },
                MutationError::DuplicateEdge {
                    existing: EdgeId(2),
                },
            ),
        ];
        for (m, want) in cases {
            assert_eq!(h.apply_mutation(&m).unwrap_err(), want, "{m:?}");
            assert_eq!(h, snapshot, "rejected mutation must not touch: {m:?}");
            assert_repaired(&h);
        }
    }

    #[test]
    fn disconnection_is_rejected() {
        // path4x2: 0-1-2-3-4 as pair committees; removing the middle pair
        // splits the path; so does rewiring it away.
        let mut h = generators::path(4, 2);
        let middle = EdgeId(1); // {1,2}
                                // Every vertex keeps a committee, but the network splits.
        assert_eq!(
            h.apply_mutation(&WorldMutation::RemoveCommittee { edge: middle }),
            Err(MutationError::WouldDisconnect)
        );
        assert_eq!(
            // {2,3,4} is no duplicate, yet it abandons the {0,1} side.
            h.apply_mutation(&WorldMutation::Rewire {
                edge: middle,
                members: vec![2, 3, 4],
            }),
            Err(MutationError::WouldDisconnect)
        );
        assert_repaired(&h);
        // A bridging rewire is fine.
        h.apply_mutation(&WorldMutation::Rewire {
            edge: middle,
            members: vec![1, 2, 3],
        })
        .unwrap();
        assert_repaired(&h);
    }

    #[test]
    fn shard_plan_cache_is_repaired() {
        let mut h = generators::ring(8, 2);
        let stale = h.shard_plan(3);
        h.apply_mutation(&WorldMutation::AddCommittee {
            members: vec![0, 4],
        })
        .unwrap();
        let repaired = h.shard_plan(3);
        assert_eq!(
            *repaired,
            ShardPlan::new(&h, 3),
            "cache serves the mutated graph"
        );
        // The old Arc still describes the pre-mutation graph (holders of a
        // stale plan re-fetch after a mutation).
        assert_eq!(stale.n(), repaired.n());
    }

    #[test]
    fn remap_per_edge_follows_the_swap() {
        let mut h = generators::fig1();
        let mut cache: Vec<u32> = (0..h.m() as u32).collect(); // value = old id
        let d = h
            .apply_mutation(&WorldMutation::RemoveCommittee { edge: EdgeId(1) })
            .unwrap();
        d.remap_per_edge(&mut cache, || u32::MAX);
        for old in 0..5u32 {
            if let Some(new) = d.remap_edge(EdgeId(old)) {
                assert_eq!(cache[new.index()], old, "value moved with the id");
            }
        }
        assert_eq!(d.changed_edges().count(), 0, "a removal recomputes nothing");
    }

    #[test]
    fn biased_mutations_only_propose_their_variants() {
        let h = generators::random_uniform(12, 9, 3, 3);
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..200 {
            let grow = random_mutation_with_bias(&h, &mut rng, MutationBias::GrowOnly);
            assert!(
                matches!(
                    grow,
                    WorldMutation::AddCommittee { .. } | WorldMutation::Join { .. }
                ),
                "{grow:?}"
            );
            let shrink = random_mutation_with_bias(&h, &mut rng, MutationBias::ShrinkOnly);
            assert!(
                matches!(
                    shrink,
                    WorldMutation::RemoveCommittee { .. } | WorldMutation::Leave { .. }
                ),
                "{shrink:?}"
            );
        }
    }

    #[test]
    fn shrink_only_campaign_saturates_instead_of_destroying() {
        let mut h = generators::random_uniform(10, 12, 3, 3);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..400 {
            let m = random_mutation_with_bias(&h, &mut rng, MutationBias::ShrinkOnly);
            let _ = h.apply_mutation(&m);
        }
        assert_repaired(&h);
        assert!(h.m() >= 1, "validation keeps a connected floor");
    }

    #[test]
    fn balanced_bias_matches_unbiased_stream() {
        let h = generators::fig1();
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(
                random_mutation(&h, &mut a),
                random_mutation_with_bias(&h, &mut b, MutationBias::Balanced)
            );
        }
    }

    #[test]
    fn random_mutation_sequences_keep_the_graph_valid() {
        let mut h = generators::random_uniform(12, 9, 3, 3);
        let mut rng = StdRng::seed_from_u64(7);
        let (mut applied, mut rejected) = (0usize, 0usize);
        for _ in 0..300 {
            let m = random_mutation(&h, &mut rng);
            match h.apply_mutation(&m) {
                Ok(_) => applied += 1,
                Err(_) => rejected += 1,
            }
        }
        assert_repaired(&h);
        assert!(applied > 50, "churn actually applied: {applied}/{rejected}");
    }
}
