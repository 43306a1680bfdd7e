//! # sscc-runtime
//!
//! The computational model of *Snap-Stabilizing Committee Coordination*
//! (§2.2): processes communicate through locally shared variables, each runs
//! a finite ordered list of guarded actions (later in code = higher
//! priority), and a daemon repeatedly selects a non-empty subset of enabled
//! processes which then execute their priority actions **atomically**
//! against the pre-step configuration.
//!
//! Provided here:
//! * [`algorithm::GuardedAlgorithm`] — the local-algorithm abstraction;
//! * [`ctx::Ctx`] — locality-checked neighbor reads;
//! * [`daemon`] — synchronous / central / distributed-random / scripted
//!   daemons plus the [`daemon::WeaklyFair`] enforcement wrapper;
//! * [`engine::World`] — configurations and atomic steps;
//! * [`rounds::RoundTracker`] — Dolev–Israeli–Moran round counting;
//! * [`trace::Trace`] — structured execution logs;
//! * [`fault`] — arbitrary-configuration sampling (transient faults);
//! * [`compose::FairPair`] — fair composition of two algorithms.
//!
//! ```
//! use sscc_runtime::prelude::*;
//! use sscc_hypergraph::generators;
//! use std::sync::Arc;
//!
//! // A one-action algorithm: adopt the max value in the neighborhood.
//! struct MaxProp;
//! impl GuardedAlgorithm for MaxProp {
//!     type State = u32;
//!     type Env = ();
//!     fn action_count(&self) -> usize { 1 }
//!     fn action_name(&self, _: ActionId) -> String { "adopt".into() }
//!     fn initial_state(&self, h: &sscc_hypergraph::Hypergraph, me: usize) -> u32 {
//!         h.id(me).value()
//!     }
//!     fn priority_action<A: StateAccess<u32> + ?Sized>(
//!         &self,
//!         ctx: &Ctx<'_, u32, (), A>,
//!     ) -> Option<ActionId> {
//!         ctx.neighbor_states().map(|(_, s)| *s).max()
//!             .filter(|m| m > ctx.my_state()).map(|_| 0)
//!     }
//!     fn execute<A: StateAccess<u32> + ?Sized>(&self, ctx: &Ctx<'_, u32, (), A>, _: ActionId) -> u32 {
//!         ctx.neighbor_states().map(|(_, s)| *s).max().unwrap()
//!     }
//! }
//!
//! let mut w = World::new(Arc::new(generators::fig1()), MaxProp);
//! let (_, quiescent) = w.run_to_quiescence(&mut Synchronous, &(), 100);
//! assert!(quiescent && w.states().iter().all(|&s| s == 6));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(deprecated)]

pub mod algorithm;
pub mod compose;
pub mod config;
pub mod ctx;
pub mod daemon;
pub mod engine;
pub mod fault;
pub mod markset;
pub mod rounds;
pub mod seal;
pub mod trace;
pub mod wire;

/// One-line import for downstream crates and examples.
pub mod prelude {
    pub use crate::algorithm::{ActionId, GuardedAlgorithm, ProcessState};
    pub use crate::compose::{FairPair, FairState, Layer};
    pub use crate::config::{ConfigError, Drain, EngineConfig, EvalPath, Mode, ModeRegistry};
    pub use crate::ctx::{Ctx, DynCtx, SliceAccess, StateAccess};
    pub use crate::daemon::{
        restore_daemon, Central, Daemon, DistributedRandom, RoundRobin, Scripted, Selection,
        Synchronous, WeaklyFair,
    };
    pub use crate::engine::{StepOutcome, World};
    pub use crate::fault::{
        arbitrary_configuration, strike, strike_some, ArbitraryState, CampaignEvent, FaultCampaign,
    };
    pub use crate::markset::MarkSet;
    pub use crate::rounds::RoundTracker;
    pub use crate::seal::SealCache;
    pub use crate::trace::{Trace, TraceEvent, TraceSnapshot};
    pub use crate::wire::StateCodec;
    pub use sscc_hypergraph::MutationBias;
}
