//! `storm-grid`: CC1 under a seeded campaign of transient faults and
//! topology churn, with periodic crash drills.

use super::closed_loop::drill_sim;
use super::{
    fault_seed, finish_closed_loop, observe_closed_loop, Drill, Driver, Finish, Sojourn,
    DRAIN_LIMIT,
};
use crate::spans::{self, Kind};
use rand::{rngs::StdRng, SeedableRng as _};
use sscc_core::{Cc1, MeetingLedger};
use sscc_hypergraph::{random_mutation_with_bias, Hypergraph, MutationBias};
use sscc_metrics::{
    build_sim, finalize_campaign, run_campaign_chunk, AlgoKind, AnySim, Boot, CampaignConfig,
    CampaignProgress, CampaignReport, PolicyKind,
};
use sscc_runtime::prelude::{CampaignEvent, FaultCampaign};
use std::sync::Arc;

fn campaign_config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        steps: u64::MAX,
        fault_every: 200,
        fault_fraction: 0.3,
        churn_every: 50,
        seed: seed ^ 0xca3b,
        bias: MutationBias::Balanced,
    }
}

fn build_storm_sim(h: &Arc<Hypergraph>, seed: u64, mode: &str) -> AnySim {
    let mut sim = build_sim(
        AlgoKind::Cc1,
        Arc::clone(h),
        seed,
        PolicyKind::Eager { max_disc: 1 },
        Boot::Arbitrary(fault_seed(seed)),
    );
    sim.configure_mode(mode).expect("registry mode");
    sim
}

fn cc1_of(sim: &mut AnySim) -> &mut sscc_core::Cc1Sim {
    match sim {
        AnySim::Cc1(s) => s,
        _ => unreachable!("storm-grid runs CC1"),
    }
}

fn finish_storm(sim: &AnySim, report: &CampaignReport) -> Finish {
    let bad_windows = report.safety_windows.iter().filter(|&&v| v > 0).count();
    let disruptions = report.faults_injected + report.mutations_applied;
    Finish {
        attempted: disruptions as u64,
        failed: (report.unrecovered + bad_windows) as u64,
        checks: vec![(
            "storm.zero_violations",
            report.violations == 0 && sim.monitor().clean(),
            format!(
                "{} violations over {disruptions} disruptions",
                report.violations
            ),
        )],
        extras: vec![
            ("metrics.recovery_max_steps", report.max_recovery() as f64),
            ("metrics.recovery_mean_steps", report.mean_recovery()),
            ("metrics.faults_injected", report.faults_injected as f64),
            ("metrics.mutations_applied", report.mutations_applied as f64),
            (
                "metrics.mutations_rejected",
                report.mutations_rejected as f64,
            ),
        ],
    }
}

/// `storm-grid` through the campaign driver of `crates/metrics`, one step
/// per call.
pub struct StormDriver {
    sim: AnySim,
    cfg: CampaignConfig,
    progress: CampaignProgress,
}

impl Driver for StormDriver {
    fn call(&mut self) -> bool {
        run_campaign_chunk(&mut self.sim, &self.cfg, &mut self.progress, 1) == 1
    }

    fn observe(&mut self, soj: &mut Sojourn, tick: u64, _t0: u64, t1: u64) -> u64 {
        observe_closed_loop(self.sim.ledger(), self.sim.last_events(), soj, tick, t1)
    }

    fn ledger(&self) -> &MeetingLedger {
        self.sim.ledger()
    }

    fn steps(&self) -> u64 {
        self.sim.steps()
    }

    fn clean(&self) -> bool {
        self.sim.monitor().clean()
    }

    fn drill(&mut self) -> Option<Drill> {
        Some(drill_sim(cc1_of(&mut self.sim), "cc1", Cc1::new))
    }

    fn finish(&mut self, _soj: &mut Sojourn, _tick: u64, _window_calls: u64) -> Finish {
        // A disruption in the window's last steps is given the chance to
        // recover before it is counted as unrecovered.
        let mut report = finalize_campaign(&self.sim, &self.progress);
        for _ in 0..DRAIN_LIMIT {
            if report.unrecovered == 0 {
                break;
            }
            self.call();
            report = finalize_campaign(&self.sim, &self.progress);
        }
        finish_storm(&self.sim, &report)
    }
}

/// `storm-grid` with the campaign loop written out, so strike, mutate and
/// step are separate spans. Makes the calls `run_campaign_chunk` makes.
pub struct StormTraced {
    sim: AnySim,
    cfg: CampaignConfig,
    campaign: FaultCampaign,
    step: u64,
}

impl Driver for StormTraced {
    fn call(&mut self) -> bool {
        self.step += 1;
        spans::set_id(self.step);
        for ev in self.campaign.poll(self.step) {
            match ev {
                CampaignEvent::Strike { seed } => spans::timed(Kind::Strike, || {
                    self.sim
                        .strike(seed, self.cfg.fault_fraction)
                        .expect("shared-memory engine accepts strikes");
                }),
                CampaignEvent::Churn { seed } => spans::timed(Kind::Mutate, || {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let proposal = random_mutation_with_bias(self.sim.h(), &mut rng, self.cfg.bias);
                    // A rejected proposal leaves the world untouched.
                    let _ = self.sim.mutate(&proposal);
                }),
            }
        }
        spans::timed(Kind::Step, || self.sim.step())
    }

    fn observe(&mut self, soj: &mut Sojourn, tick: u64, _t0: u64, t1: u64) -> u64 {
        observe_closed_loop(self.sim.ledger(), self.sim.last_events(), soj, tick, t1)
    }

    fn ledger(&self) -> &MeetingLedger {
        self.sim.ledger()
    }

    fn steps(&self) -> u64 {
        self.sim.steps()
    }

    fn clean(&self) -> bool {
        self.sim.monitor().clean()
    }

    fn drill(&mut self) -> Option<Drill> {
        Some(drill_sim(cc1_of(&mut self.sim), "cc1", Cc1::new))
    }

    fn finish(&mut self, _soj: &mut Sojourn, _tick: u64, window_calls: u64) -> Finish {
        finish_closed_loop(window_calls, 0, self.sim.monitor().violations().len())
    }
}

/// `storm-grid` on the campaign driver, in engine mode `mode`.
pub fn build(h: &Arc<Hypergraph>, seed: u64, mode: &str) -> StormDriver {
    let cfg = campaign_config(seed);
    StormDriver {
        sim: build_storm_sim(h, seed, mode),
        progress: CampaignProgress::new(&cfg),
        cfg,
    }
}

/// `storm-grid` with the campaign loop written out.
pub fn build_traced(h: &Arc<Hypergraph>, seed: u64, mode: &str) -> StormTraced {
    let cfg = campaign_config(seed);
    StormTraced {
        sim: build_storm_sim(h, seed, mode),
        campaign: FaultCampaign::new(cfg.seed, cfg.fault_every, cfg.churn_every)
            .with_bias(cfg.bias),
        cfg,
        step: 0,
    }
}
