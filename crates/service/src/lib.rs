//! # sscc-service
//!
//! Coordination-as-a-service: a proxy-style front-end that owns a
//! long-running [`Sim`](sscc_core::sim::Sim) and mediates **all** external
//! interaction with it — the ROADMAP's open-loop serving tier.
//!
//! Every benchmark below this layer is closed-loop steps/s; production
//! traffic is open-loop. External clients submit *join requests* for
//! professors; the [`CoordinationService`] admits them into the engine's
//! [`RequestFlags`](sscc_core::RequestFlags) environment between steps
//! (through the incremental engine's `invalidate_env_of` path, so an
//! admission costs `O(footprint)`, not a rescan), applies backpressure when
//! arrivals outrun convergence, and measures each request's **sojourn**
//! from enqueue to the [`MeetingLedger`](sscc_core::MeetingLedger) convene
//! event that serves it.
//!
//! The layers:
//!
//! * [`source`] — the transport seam: a [`RequestSource`] trait with an
//!   in-process mpsc implementation ([`ChannelSource`]); a socket/IPC
//!   listener slots in behind the same trait.
//! * [`traffic`] — deterministic open-loop load: Poisson, bursty on/off and
//!   adversarial hotspot arrival processes, all counter-based like
//!   [`StochasticPolicy`](sscc_core::StochasticPolicy) (same seed → same
//!   arrival trace, regardless of how the service interleaves polls).
//! * [`service`] — the [`CoordinationService`] proper: bounded admission
//!   queue, shed/defer overload policy, per-request latency tracking.
//!
//! ```
//! use sscc_service::{cc1_service, ServiceConfig, TrafficGen, Arrivals};
//! use sscc_hypergraph::generators;
//! use std::sync::Arc;
//!
//! let h = Arc::new(generators::ring(16, 2));
//! let traffic = TrafficGen::new(&h, 7, Arrivals::Poisson { rate: 0.5 }, 2_000);
//! let mut svc = cc1_service(h, 42, 1, "par1", Box::new(traffic), ServiceConfig::default())
//!     .unwrap();
//! svc.run(4_000);
//! assert!(svc.stats().completed > 0);
//! assert!(svc.sim().monitor().clean());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(deprecated)]

pub mod service;
pub mod source;
pub mod traffic;

pub use service::{
    cc1_service, cc1_service_restore, ChurnConfig, CoordinationService, LatencySummary,
    OverloadPolicy, ServiceConfig, ServiceStats, SERVICE_CHECKPOINT_VERSION,
};
pub use source::{channel, ChannelSource, CoordRequest, RequestClient, RequestSource};
pub use traffic::{Arrivals, TrafficGen};
