//! # sscc-token
//!
//! The self-stabilizing token-circulation substrate (`TC`) of
//! *Snap-Stabilizing Committee Coordination*, specified by **Property 1**:
//! one action `T :: Token(p) -> ReleaseToken_p`; once stabilized a unique
//! token exists and visits every process infinitely often; stabilization is
//! independent of `T` activations.
//!
//! * [`WaveToken`] — the **default** substrate: rooted broadcast/feedback
//!   wave, whose stabilization is fully independent of `T` activations
//!   (clause 1.3 — required by CC2/CC3, whose holders release only when
//!   leaving meetings).
//! * [`TokenRing`] — Dijkstra's K-state algorithm over the Euler tour of a
//!   spanning tree: satisfies 1.1/1.2, but *not* 1.3 (kept as the
//!   comparison substrate; see DESIGN.md).
//! * [`LeaderElect`] — self-stabilizing min-id leader election, the `LE`
//!   substrate the paper cites for rooting circulations.
//! * [`BfsTree`] — self-stabilizing rooted BFS spanning tree.
//! * [`TokenLayer`] — the interface the committee layer composes against.
//!
//! ```
//! use sscc_token::{TokenRing, TokenLayer, token_holders};
//! use sscc_hypergraph::generators;
//!
//! let h = generators::fig1();
//! let ring = TokenRing::new(&h);
//! let states: Vec<_> = (0..h.n())
//!     .map(|p| TokenLayer::initial_state(&ring, &h, p))
//!     .collect();
//! assert_eq!(token_holders(&ring, &h, &states).len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs_tree;
pub mod dijkstra;
pub mod iface;
pub mod leader;
pub mod wave;

pub use bfs_tree::{BfsTree, TreeState};
pub use dijkstra::{TokenRing, TokenState};
pub use iface::{token_holders, TokenLayer};
pub use leader::{LeaderElect, LeaderState};
pub use wave::{WaveState, WaveToken};
