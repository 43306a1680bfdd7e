//! # sscc — Snap-Stabilizing Committee Coordination
//!
//! A faithful, executable reproduction of *Snap-Stabilizing Committee
//! Coordination* (Bonakdarpour, Devismes, Petit; IPDPS 2011 / JPDC 2016):
//! the committee coordination problem in the locally shared memory model,
//! the snap-stabilizing algorithms **CC1** (maximal concurrency), **CC2**
//! (professor fairness) and **CC3** (committee fairness), the
//! self-stabilizing token-circulation substrate they compose with, and the
//! paper's full analysis apparatus (specification monitors, degree of fair
//! concurrency, waiting time).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`hypergraph`] — topologies, matchings, fairness sets (`sscc-hypergraph`)
//! * [`runtime`] — guarded actions, daemons, rounds, faults (`sscc-runtime`)
//! * [`token`] — Property 1 token substrate (`sscc-token`)
//! * [`core`] — CC1/CC2/CC3, composition, spec monitors (`sscc-core`)
//! * [`persist`] — checkpoint containers, step traces, replay (`sscc-persist`)
//! * [`metrics`] — experiment harness (`sscc-metrics`)
//! * [`service`] — coordination-as-a-service front-end (`sscc-service`)
//!
//! See `examples/quickstart.rs` for a five-minute tour and DESIGN.md for the
//! system inventory.

#![forbid(unsafe_code)]
#![deny(deprecated)]

pub use sscc_core as core;
pub use sscc_hypergraph as hypergraph;
pub use sscc_metrics as metrics;
pub use sscc_persist as persist;
pub use sscc_runtime as runtime;
pub use sscc_service as service;
pub use sscc_token as token;
