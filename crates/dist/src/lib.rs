//! # sscc-dist
//!
//! The **message-passing engine tier**: each [`ShardPlan`] shard of the
//! topology runs as an independent actor owning the sub-configuration of
//! its processes, and cross-shard guard reads flow exclusively through
//! serialized **boundary-state frames** exchanged over a channel transport.
//!
//! The locally-shared-memory model (paper §2.2) lets a guard of process
//! `p` read only the closed hyperedge neighborhood `N[p]`, so a shard
//! actor needs exactly two kinds of state: the authoritative states of its
//! own members and *ghost* copies of its frontier (the out-of-shard slice
//! of its members' neighborhoods, [`ShardPlan::frontier_of`]). When a
//! boundary member commits a new state, the owning actor publishes it to
//! every shard whose members read it — and to nobody else. Frames carry
//! per-shard logical-clock metadata (the committed step tag plus a gap-free
//! per-channel sequence number), so ghost reads are **causally consistent
//! at step boundaries**: a step-`t` guard evaluation sees exactly the
//! pre-step configuration of step `t`, which is the composite-atomicity
//! contract the shared-memory engines implement in one address space. The
//! snap-stabilization literature for message-passing systems
//! (Delaët–Devismes–Nesterenko–Tixeuil) is what licenses the tier: the
//! paper's guarantees survive channels, provided reads stay causally
//! aligned — which the coordinator's two-phase step protocol enforces.
//!
//! The shared-memory engines remain the **oracle**: a distributed drain
//! ([`Drain::Distributed`](sscc_runtime::prelude::Drain)) must be
//! bit-identical — traces, ledger, monitor, rounds — to the sequential
//! engine on every topology, which the 7-mode differential suite pins.
//!
//! Layout:
//! * [`frame`] — the boundary frame, a payload of the shared
//!   [`wire::Envelope`](sscc_runtime::wire::Envelope) (fail-closed decode,
//!   held to the same harness as the persistence container);
//! * [`transport`] — the [`BoundaryTransport`] seam and its in-process
//!   mpsc implementation (a socket backend slots in behind the same
//!   trait without touching the engine);
//! * [`engine`] — the shard actors, the coordinator, and the
//!   [`DistDrive`] dispatch trait the `Sim` layer drives.
//!
//! [`ShardPlan`]: sscc_hypergraph::ShardPlan
//! [`ShardPlan::frontier_of`]: sscc_hypergraph::ShardPlan::frontier_of

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(deprecated)]

pub mod engine;
pub mod frame;
pub mod transport;

pub use engine::{DistDrive, DistEngine, MessageStats};
pub use frame::BoundaryFrame;
pub use transport::{BoundaryTransport, ChannelTransport};
