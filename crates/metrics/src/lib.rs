//! # sscc-metrics
//!
//! The experiment harness of the reproduction: every measured quantity the
//! paper defines, plus the sweep machinery to estimate adversarial minima
//! over schedules.
//!
//! * [`runner`] — uniform construction of CC1/CC2/CC3 simulations;
//! * [`campaign`] — sustained-fault/churn campaigns: recovery-time and
//!   safety-violation-window distributions under bombardment;
//! * [`sweep`] — deterministic parallel seed sweeps;
//! * [`degree`] — degree of fair concurrency (Definition 5, Thms 4/5/7/8);
//! * [`waiting`] — waiting time in rounds (Definition 6, Thm 6);
//! * [`throughput`] — meetings/step, live-meeting concurrency, starvation
//!   (the §3.2 fairness-vs-concurrency trade-off, measured);
//! * [`report`] — table/CSV rendering for EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

pub mod adversary;
pub mod campaign;
pub mod degree;
pub mod report;
pub mod runner;
pub mod sweep;
pub mod throughput;
pub mod waiting;

pub use adversary::{cc1_starvation_on_fig2, AlternatingAdversary, StarvationOutcome};
pub use campaign::{
    campaign_table, finalize_campaign, run_campaign, run_campaign_chunk, run_campaign_on,
    CampaignConfig, CampaignProgress, CampaignReport, CampaignRow,
};
pub use degree::{degree_row, measure_degree, DegreeConfig, DegreeOutcome, DegreeRow};
pub use report::{f2, plabel, Table};
pub use runner::{build_sim, restore_sim, AlgoKind, AnySim, AnySnapshot, Boot, PolicyKind};
// The shared configuration layer, re-exported so bench/experiment code
// needs a single import for modes and configs.
pub use sscc_core::{ConfigError, Drain, EngineConfig, EvalPath, Mode, ModeRegistry};
pub use sweep::{parallel_fold, parallel_map};
pub use throughput::{measure_throughput, throughput_row, ThroughputOutcome, ThroughputRow};
pub use waiting::{
    measure_waiting, waiting_row, LatencyHistogram, LatencySnapshot, WaitingOutcome, WaitingRow,
};
