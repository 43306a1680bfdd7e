//! # sscc-persist
//!
//! Crash-recoverable checkpoints and deterministic replay for the SSCC
//! coordination stack.
//!
//! The core crate knows how to freeze a running [`sscc_core::Sim`] into a
//! flat byte blob ([`sscc_core::Sim::save_state`]) and thaw it into a
//! bit-identical continuation ([`sscc_core::Sim::restore`]). This crate
//! supplies everything around that seam:
//!
//! * [`topology`] — a codec for [`sscc_hypergraph::Hypergraph`], so a
//!   checkpoint taken *after* dynamic mutations still carries the exact
//!   world it was taken on;
//! * [`container`] — the [`Checkpoint`] file format pairing the topology
//!   blob, the engine configuration and the sim blob: one sealed image,
//!   encoded once, shared by handle and decoded in place;
//! * [`steptrace`] — a delta-compressed recording of executed actions
//!   ([`StepTrace`]) small enough to ship alongside a checkpoint;
//! * [`replay`] — a driver that re-executes a restored sim and verifies it
//!   reproduces a recorded trace event for event, turning "it crashed at
//!   step 48 231" into a debuggable, repeatable run.
//!
//! Everything is hand-rolled little-endian + LEB128 on top of
//! [`sscc_runtime::wire`]; no serialization dependency, no unsafe. Both
//! artifacts are payloads of the one versioned, checksummed
//! [`Envelope`](sscc_runtime::wire::Envelope), and every decoder is total —
//! corrupt input yields an error, never a panic
//! ([`fails_closed`](sscc_runtime::wire::fails_closed) is the harness).
//!
//! ```
//! use sscc_core::sim::Cc1Sim;
//! use sscc_hypergraph::generators;
//! use sscc_persist::Checkpoint;
//! use std::sync::Arc;
//!
//! let h = Arc::new(generators::fig2());
//! let mut sim = Cc1Sim::standard(Arc::clone(&h), 7, 1);
//! sim.run(500);
//!
//! let ckpt = Checkpoint::capture_cc1(&sim).unwrap(); // one encode pass
//! let bytes = ckpt.to_bytes();        // the durable artifact: a shared
//! assert_eq!(bytes[..7], *b"SSCCKPT");    // handle on the image, no copy
//! drop(ckpt);
//!
//! let back = Checkpoint::from_bytes(&bytes).unwrap(); // verify, then copy
//! assert_eq!(back.to_bytes(), bytes);
//! let mut twin = back.restore_cc1().unwrap();     // fresh process, same run
//! assert_eq!(twin.steps(), sim.steps());
//! sim.run(500);
//! twin.run(500);
//! assert_eq!(sim.ledger().instances(), twin.ledger().instances());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod container;
pub mod replay;
pub mod steptrace;
pub mod topology;

pub use container::{Checkpoint, CheckpointError, FORMAT_VERSION};
pub use replay::{replay_trace, ReplayError, ReplayReport};
pub use steptrace::{StepTrace, TraceDecodeError};
pub use topology::{decode_topology, encode_topology};

/// FNV-1a 64: the digest of ledger bytes that golden tests and benchmarks
/// pin, and the checksum of version-1 artifacts (which still open; new
/// ones carry [`checksum64`](sscc_runtime::wire::checksum64)).
pub use sscc_runtime::wire::fnv1a64;
