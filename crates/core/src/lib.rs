//! # sscc-core
//!
//! The heart of the reproduction of *Snap-Stabilizing Committee
//! Coordination* (Bonakdarpour, Devismes, Petit; IPDPS'11 / JPDC'16):
//!
//! * [`cc1`] — Algorithm CC1: Exclusion, Synchronization, Progress, 2-Phase
//!   Discussion and **Maximal Concurrency** (Theorem 2);
//! * [`cc2`] — Algorithm CC2: the same safety plus **Professor Fairness**
//!   under the infinitely-often-requesting assumption (Theorem 3), and
//!   Algorithm CC3 (**Committee Fairness**, §5.4) via a selector swap;
//! * [`compose`] — the `CC ∘ TC` composition with emulated token action
//!   (Remark 1);
//! * [`oracle`] — the `RequestIn`/`RequestOut` environment, including the
//!   infinite-meeting artefact of Definitions 2 and 5;
//! * [`meetings`] + [`spec`] + [`liveness`] — the meeting ledger, the
//!   safety monitors (snap-stabilization semantics), and the
//!   progress/fairness trackers;
//! * [`sim`] — the facade used by examples, tests, metrics and benches.
//!
//! ```
//! use sscc_core::sim::Cc1Sim;
//! use sscc_hypergraph::generators;
//! use std::sync::Arc;
//!
//! let h = Arc::new(generators::fig2());
//! let mut sim = Cc1Sim::standard(Arc::clone(&h), 42, 1);
//! sim.run(2000);
//! assert!(sim.monitor().clean());         // spec held from step 0
//! assert!(sim.ledger().convened_count() > 0); // and meetings happened
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(deprecated)]

pub mod algo;
pub mod cc1;
pub mod cc2;
pub mod choice;
pub mod compose;
mod facts;
pub mod liveness;
pub mod meetings;
pub mod oracle;
pub mod predicates;
pub mod sim;
pub mod spec;
pub mod status;

pub use algo::CommitteeAlgorithm;
pub use cc1::{Cc1, Cc1State};
pub use cc2::{Cc2, Cc2State, Cc3, MinEdgeSelector, RoundRobinSelector, Selector};
pub use compose::{CcTok, Composed};
pub use liveness::{max_participation_gap, FairnessTracker, ProgressWatchdog};
pub use meetings::{Footprint, History, LedgerEvent, LedgerLayout, MeetingInstance, MeetingLedger};
pub use oracle::{
    restore_policy, splitmix64, EagerPolicy, InfiniteMeetingPolicy, OpenLoopPolicy, OraclePolicy,
    PolicyView, RequestEnv, RequestFlags, ScriptedPolicy, StochasticPolicy,
};
pub use sim::{default_daemon, Cc1Sim, Cc2Sim, Cc3Sim, ObserverWork, Sim, SimBuilder, StopReason};
pub use spec::{SpecMonitor, Violation};
pub use sscc_dist::{BoundaryTransport, DistDrive, DistEngine, MessageStats};
pub use status::{ActionClass, CommitteeView, Status};
// The configuration layer (one source of truth for engine variants) lives
// in the runtime crate; re-exported here so facade users need one import.
pub use sscc_runtime::prelude::{ConfigError, Drain, EngineConfig, EvalPath, Mode, ModeRegistry};
