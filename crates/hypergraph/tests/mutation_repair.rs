//! Property tests for topology churn: after **any** random mutation
//! sequence, the incrementally repaired indices (incidence, neighbors,
//! closed neighborhoods, memoized shard plans) are exactly what a
//! from-scratch rebuild of the mutated committee list produces. This is
//! the structural correctness bar of the churn layer — every higher
//! repair (guard caches, fact mirrors, ledgers) assumes it.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng as _;
use sscc_hypergraph::{generators, random_mutation, Hypergraph, ShardPlan};

/// Rebuild the oracle through the validated constructor.
fn from_scratch(h: &Hypergraph) -> Hypergraph {
    let committees: Vec<Vec<u32>> = h.edge_ids().map(|e| h.members_raw(e)).collect();
    let refs: Vec<&[u32]> = committees.iter().map(|c| c.as_slice()).collect();
    Hypergraph::new(&refs)
}

/// A seed topology drawn from the churn-relevant families.
fn seed_topology(family: u8, size: usize, seed: u64) -> Hypergraph {
    match family % 4 {
        0 => generators::tree_pairs(4 + size, seed),
        1 => generators::grid_pairs(2 + size / 4, 3 + size / 4),
        2 => generators::power_law(4 + size, 4 + size + size / 2, seed),
        _ => {
            let n = 6 + size;
            generators::random_uniform(n, n.div_ceil(2) + 2, 3, seed)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Satellite bar: incremental repair ≡ from-scratch rebuild, for every
    /// cached index and the memoized shard plans, after arbitrary valid
    /// mutation sequences (invalid proposals are skipped, which is itself
    /// exercised — rejection must leave the graph untouched).
    #[test]
    fn repaired_indices_equal_scratch_rebuild(
        family in 0u8..4,
        size in 0usize..12,
        seed in 0u64..1000,
        steps in 1usize..40,
        plan_shards in 1usize..5,
    ) {
        let mut h = seed_topology(family, size, seed);
        // Prime the plan cache: a memo that outlived a mutation would be
        // served below.
        let _ = h.shard_plan(plan_shards);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc0ffee);
        let mut applied = 0usize;
        for _ in 0..steps {
            let m = random_mutation(&h, &mut rng);
            let before = h.clone();
            match h.apply_mutation(&m) {
                Ok(delta) => {
                    applied += 1;
                    prop_assert_eq!(delta.new_m(), h.m());
                    // Remap sanity: every surviving old edge resolves to an
                    // in-range id.
                    for old in 0..delta.old_m() {
                        if let Some(new) = delta.remap_edge(sscc_hypergraph::EdgeId(old as u32)) {
                            prop_assert!(new.index() < h.m());
                        }
                    }
                }
                Err(_) => {
                    prop_assert_eq!(&before, &h, "rejection must be total");
                }
            }
        }
        let fresh = from_scratch(&h);
        prop_assert_eq!(&h, &fresh, "edge structure after {} mutations", applied);
        for v in 0..h.n() {
            prop_assert_eq!(h.incident(v), fresh.incident(v), "incident[{}]", v);
            prop_assert_eq!(h.neighbors(v), fresh.neighbors(v), "neighbors[{}]", v);
            prop_assert_eq!(
                h.closed_neighborhood(v),
                fresh.closed_neighborhood(v),
                "closed_nbhd[{}]", v
            );
        }
        // The memoized plan must equal a plan computed fresh on the mutated
        // graph — the repair is not allowed to serve the seed topology's.
        let repaired = h.shard_plan(plan_shards);
        prop_assert_eq!(&*repaired, &ShardPlan::new(&h, plan_shards));
    }
}
