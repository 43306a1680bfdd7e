//! Footprint-aware sharding of the vertex set, for the message-passing
//! tier (`sscc-dist`).
//!
//! A step by process `p` only re-evaluates guards inside `p`'s closed
//! hyperedge neighborhood (§2.2 locality), so a shard actor that owns a
//! region of the topology needs, besides its own states, only the states
//! on the region's rim. A [`ShardPlan`] partitions the vertices into `k`
//! balanced, neighborhood-contiguous shards along a BFS ordering of the
//! underlying network: contiguous rank ranges are then contiguous regions of
//! the topology, so most of a shard is *interior* (invisible to its peers)
//! and only its *boundary* is published, to the peers whose *frontier* it
//! is on.
//!
//! Any partition is *correct*; a neighborhood-contiguous one merely keeps
//! the boundary — and with it the frame traffic — small.
//! [`ShardPlan::crossing_fraction`] quantifies how disjoint the shard
//! footprints actually are.

use crate::hypergraph::Hypergraph;
use crate::network;

/// A partition of the vertex set into `k` balanced shards, contiguous along
/// a BFS (neighborhood-first) ordering of the underlying network.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    /// BFS ordering of the dense vertex indices: `order[r]` = vertex with
    /// locality rank `r`.
    order: Box<[usize]>,
    /// Shard boundaries into `order`: shard `s` covers
    /// `order[bounds[s]..bounds[s+1]]`. Length `shards + 1`.
    bounds: Box<[usize]>,
    /// Shard of each dense vertex index.
    shard_of: Box<[u32]>,
}

impl ShardPlan {
    /// Plan `shards` balanced shards over `h`'s vertex set (`shards >= 1`;
    /// shards in excess of `h.n()` are dropped — no empty shards).
    pub fn new(h: &Hypergraph, shards: usize) -> Self {
        let n = h.n();
        let k = shards.clamp(1, n);
        // Deterministic BFS from dense index 0 (the hypergraph is connected
        // by construction, so this covers every vertex).
        let order = network::bfs_order(h, 0);
        debug_assert_eq!(order.len(), n, "connected hypergraph: BFS covers V");
        // Balanced contiguous cuts: the first `n % k` shards get one extra.
        let (base, extra) = (n / k, n % k);
        let mut bounds = Vec::with_capacity(k + 1);
        let mut at = 0;
        bounds.push(0);
        for s in 0..k {
            at += base + usize::from(s < extra);
            bounds.push(at);
        }
        let mut shard_of = vec![0u32; n];
        for s in 0..k {
            for &v in &order[bounds[s]..bounds[s + 1]] {
                shard_of[v] = s as u32;
            }
        }
        ShardPlan {
            order: order.into_boxed_slice(),
            bounds: bounds.into_boxed_slice(),
            shard_of: shard_of.into_boxed_slice(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Number of vertices planned over.
    pub fn n(&self) -> usize {
        self.order.len()
    }

    /// The shard of dense vertex `v`.
    #[inline]
    pub fn shard_of(&self, v: usize) -> usize {
        self.shard_of[v] as usize
    }

    /// The vertices of shard `s`, in locality order.
    pub fn members(&self, s: usize) -> &[usize] {
        &self.order[self.bounds[s]..self.bounds[s + 1]]
    }

    /// The **boundary** of shard `s`: its members whose closed hyperedge
    /// neighborhood `N[v]` overlaps another shard, ascending by dense
    /// index. These are exactly the processes whose state a distributed
    /// shard actor must publish to its peers when it changes — every other
    /// member's state is invisible outside the shard.
    pub fn boundary_of(&self, h: &Hypergraph, s: usize) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .members(s)
            .iter()
            .copied()
            .filter(|&v| {
                h.closed_neighborhood(v)
                    .iter()
                    .any(|&u| self.shard_of[u] != s as u32)
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// The **interior** of shard `s`: its members whose closed neighborhood
    /// lies entirely inside the shard, ascending by dense index. Disjoint
    /// complement of [`ShardPlan::boundary_of`] within the shard.
    pub fn interior_of(&self, h: &Hypergraph, s: usize) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .members(s)
            .iter()
            .copied()
            .filter(|&v| {
                h.closed_neighborhood(v)
                    .iter()
                    .all(|&u| self.shard_of[u] == s as u32)
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// The **frontier** of shard `s`: the out-of-shard processes read by
    /// some member's guard (the union of the members' closed neighborhoods
    /// minus the shard itself), ascending by dense index. A distributed
    /// shard actor keeps *ghost* copies of exactly these states, refreshed
    /// by its peers' boundary frames.
    pub fn frontier_of(&self, h: &Hypergraph, s: usize) -> Vec<usize> {
        let mut seen = vec![false; self.n()];
        for &v in self.members(s) {
            for &u in h.closed_neighborhood(v) {
                if self.shard_of[u] != s as u32 {
                    seen[u] = true;
                }
            }
        }
        (0..self.n()).filter(|&u| seen[u]).collect()
    }

    /// Fraction of vertices whose closed neighborhood (their guard
    /// footprint) crosses into another shard. `0.0` means the shards'
    /// footprints are perfectly disjoint; sparse topologies cut along the
    /// BFS order stay close to `2·(k-1)·diam(footprint)/n`.
    pub fn crossing_fraction(&self, h: &Hypergraph) -> f64 {
        if self.n() == 0 {
            return 0.0;
        }
        let crossing = (0..self.n())
            .filter(|&v| {
                let s = self.shard_of[v];
                h.closed_neighborhood(v)
                    .iter()
                    .any(|&u| self.shard_of[u] != s)
            })
            .count();
        crossing as f64 / self.n() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn partition_is_exact_and_balanced() {
        let h = generators::ring(24, 2);
        for k in [1usize, 2, 3, 4, 7] {
            let plan = ShardPlan::new(&h, k);
            assert_eq!(plan.shards(), k);
            let mut seen = vec![false; h.n()];
            for s in 0..k {
                for &v in plan.members(s) {
                    assert!(!seen[v], "vertex {v} in two shards");
                    seen[v] = true;
                    assert_eq!(plan.shard_of(v), s);
                }
            }
            assert!(seen.iter().all(|&b| b), "every vertex in some shard");
            let sizes: Vec<usize> = (0..k).map(|s| plan.members(s).len()).collect();
            let (mn, mx) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(mx - mn <= 1, "balanced within one: {sizes:?}");
        }
    }

    #[test]
    fn more_shards_than_vertices_collapses() {
        let h = generators::fig2();
        let plan = ShardPlan::new(&h, 64);
        assert_eq!(plan.shards(), h.n());
        for s in 0..plan.shards() {
            assert_eq!(plan.members(s).len(), 1);
        }
    }

    #[test]
    fn ring_shards_are_mostly_interior() {
        // On a ring, contiguous BFS chunks only cross at the 2k cut points.
        let h = generators::ring(96, 2);
        let plan = ShardPlan::new(&h, 4);
        let f = plan.crossing_fraction(&h);
        assert!(f < 0.35, "ring96 into 4 shards crosses at cuts only: {f}");
        let one = ShardPlan::new(&h, 1);
        assert_eq!(one.crossing_fraction(&h), 0.0, "one shard never crosses");
    }

    #[test]
    fn plan_is_deterministic() {
        let h = generators::random_uniform(40, 30, 3, 5);
        assert_eq!(ShardPlan::new(&h, 4), ShardPlan::new(&h, 4));
    }

    #[test]
    fn boundary_union_interior_is_the_shard() {
        for h in [
            generators::fig1(),
            generators::fig2(),
            generators::ring(24, 2),
            generators::random_uniform(40, 30, 3, 5),
        ] {
            for k in [2usize, 3, 4] {
                let plan = ShardPlan::new(&h, k);
                for s in 0..plan.shards() {
                    let boundary = plan.boundary_of(&h, s);
                    let interior = plan.interior_of(&h, s);
                    // Disjoint, and together exactly the shard's members.
                    let mut both: Vec<usize> =
                        boundary.iter().chain(interior.iter()).copied().collect();
                    both.sort_unstable();
                    both.dedup();
                    assert_eq!(both.len(), boundary.len() + interior.len(), "disjoint");
                    let mut members: Vec<usize> = plan.members(s).to_vec();
                    members.sort_unstable();
                    assert_eq!(both, members, "boundary ∪ interior = shard {s}");
                    // Boundary = members with out-of-shard footprint overlap.
                    for &v in plan.members(s) {
                        let crosses = h
                            .closed_neighborhood(v)
                            .iter()
                            .any(|&u| plan.shard_of(u) != s);
                        assert_eq!(boundary.binary_search(&v).is_ok(), crosses);
                    }
                }
            }
        }
    }

    #[test]
    fn frontier_is_outside_ghost_set() {
        let h = generators::random_uniform(40, 30, 3, 5);
        let plan = ShardPlan::new(&h, 4);
        for s in 0..plan.shards() {
            let frontier = plan.frontier_of(&h, s);
            assert!(frontier.windows(2).all(|w| w[0] < w[1]), "ascending");
            // Frontier is disjoint from the shard, and is exactly the union
            // of the members' closed neighborhoods minus the shard.
            let mut expect: Vec<usize> = plan
                .members(s)
                .iter()
                .flat_map(|&v| h.closed_neighborhood(v).iter().copied())
                .filter(|&u| plan.shard_of(u) != s)
                .collect();
            expect.sort_unstable();
            expect.dedup();
            assert_eq!(frontier, expect);
            assert!(frontier.iter().all(|&u| plan.shard_of(u) != s));
            // Every frontier vertex of s is a boundary vertex of its own
            // shard — its state crosses, so its owner must publish it.
            for &u in &frontier {
                let owner = plan.shard_of(u);
                assert!(plan.boundary_of(&h, owner).binary_search(&u).is_ok());
            }
        }
        // One shard: nothing crosses.
        let one = ShardPlan::new(&h, 1);
        assert!(one.frontier_of(&h, 0).is_empty());
        assert!(one.boundary_of(&h, 0).is_empty());
        assert_eq!(one.interior_of(&h, 0).len(), h.n());
    }
}
