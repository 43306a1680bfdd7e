//! # sscc-hypergraph
//!
//! Distributed systems as hypergraphs, per §2.1 of *Snap-Stabilizing
//! Committee Coordination* (Bonakdarpour, Devismes, Petit; IPDPS'11 /
//! JPDC'16): professors are vertices, committees are hyperedges, and the
//! neighbor relation induces the underlying communication network used by
//! the locally-shared-memory runtime.
//!
//! The crate also carries the combinatorics behind the paper's analysis:
//! maximal matchings and `minMM` (§5.3), the `Almost`/`AMM`/`AMM'` fairness
//! sets, and the Theorem 4/5/7/8 bound calculators on the degree of fair
//! concurrency.
//!
//! ## Quick tour
//!
//! ```
//! use sscc_hypergraph::{generators, matching, FairnessAnalysis};
//!
//! let h = generators::fig2(); // Theorem 1's 5-professor gadget
//! assert_eq!(h.n(), 5);
//! assert_eq!(matching::min_maximal_matching_size(&h), 1);
//! let a = FairnessAnalysis::compute(&h);
//! assert!(a.thm4_bound() >= a.thm5_bound());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod dot;
pub mod fairness_sets;
pub mod generators;
pub mod hypergraph;
pub mod ids;
pub mod matching;
pub mod mutation;
pub mod network;
pub mod sharding;

pub use fairness_sets::{AmmFamily, FairnessAnalysis};
pub use hypergraph::{Hypergraph, HypergraphError};
pub use ids::{EdgeId, ProcessId};
pub use mutation::{
    random_mutation, random_mutation_with_bias, MutationBias, MutationDelta, MutationError,
    WorldMutation,
};
pub use network::{EulerTour, SpanningTree};
pub use sharding::ShardPlan;
