//! Sustained-fault campaigns: the snap-stabilization stress harness.
//!
//! A campaign drives a simulation for a fixed number of steps while a
//! seeded [`FaultCampaign`] schedule injects **transient faults** (a
//! fraction of processes overwritten with arbitrary states, §2.5) and
//! **topology churn** (committee add/remove/join/leave/rewire proposals)
//! into the running system — without ever resetting the observers, so
//! meeting history, participation counters and the violation record span
//! the whole bombardment.
//!
//! Two distributions come out:
//!
//! * **Recovery time** — for each disruption, the number of steps until
//!   the next *post-initial* convene (a meeting started by the algorithm
//!   after the disruption, i.e. covered by the snap-stabilization
//!   guarantee). A new disruption before recovery restarts the clock.
//! * **Safety-violation window** — the number of specification violations
//!   recorded during each such recovery window. Snap-stabilization claims
//!   these are all **zero**: every task started after the faults satisfies
//!   the specification; there is no "stabilization period" during which
//!   the spec may be violated.

use crate::report::Table;
use crate::runner::{build_sim, AlgoKind, AnySim, Boot, PolicyKind};
use rand::{rngs::StdRng, SeedableRng as _};
use sscc_core::LedgerEvent;
use sscc_hypergraph::{random_mutation_with_bias, Hypergraph, MutationBias};
use sscc_runtime::prelude::{CampaignEvent, FaultCampaign};
use sscc_runtime::wire::{self, Reader};
use std::sync::Arc;

/// Campaign parameters.
#[derive(Clone, Copy, Debug)]
pub struct CampaignConfig {
    /// Campaign length in steps.
    pub steps: u64,
    /// Inject a transient fault every this many steps (0 = never).
    pub fault_every: u64,
    /// Fraction of processes struck per fault.
    pub fault_fraction: f64,
    /// Propose a topology mutation every this many steps (0 = never).
    pub churn_every: u64,
    /// Master seed for the fault/churn schedule.
    pub seed: u64,
    /// Structural regime of the churn proposals (grow-only / shrink-only /
    /// balanced).
    pub bias: MutationBias,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            steps: 4_000,
            fault_every: 200,
            fault_fraction: 0.3,
            churn_every: 0,
            seed: 7,
            bias: MutationBias::Balanced,
        }
    }
}

/// What a campaign measured.
#[derive(Clone, Debug, Default)]
pub struct CampaignReport {
    /// Recovery time of each disruption that recovered (steps from the
    /// *latest* disruption to the next post-initial convene).
    pub recovery: Vec<u64>,
    /// Specification violations recorded inside each recovery window
    /// (aligned with [`CampaignReport::recovery`]; snap-stabilization
    /// predicts all zeros).
    pub safety_windows: Vec<u64>,
    /// Disruptions still unrecovered when the campaign ended.
    pub unrecovered: usize,
    /// Post-initial convenes over the whole campaign.
    pub convened: usize,
    /// Total specification violations over the whole campaign.
    pub violations: usize,
    /// Transient faults injected.
    pub faults_injected: usize,
    /// Topology mutations applied.
    pub mutations_applied: usize,
    /// Mutation proposals rejected by validation (skipped, by design).
    pub mutations_rejected: usize,
}

impl CampaignReport {
    /// Largest recovery time observed (0 if none recovered).
    pub fn max_recovery(&self) -> u64 {
        self.recovery.iter().copied().max().unwrap_or(0)
    }

    /// Mean recovery time (0.0 if none recovered).
    pub fn mean_recovery(&self) -> f64 {
        if self.recovery.is_empty() {
            return 0.0;
        }
        self.recovery.iter().sum::<u64>() as f64 / self.recovery.len() as f64
    }

    /// Largest safety-violation window (snap-stabilization predicts 0).
    pub fn max_safety_window(&self) -> u64 {
        self.safety_windows.iter().copied().max().unwrap_or(0)
    }
}

/// Mid-campaign progress: the schedule's rng position, the step cursor,
/// the open recovery window, and the distributions accumulated so far —
/// everything the step loop owns. Persist it alongside the sim blob
/// (`AnySim::save_state`) and a resumed campaign replays the exact
/// remaining event schedule the uninterrupted one would have.
#[derive(Clone, Debug)]
pub struct CampaignProgress {
    campaign: FaultCampaign,
    /// Steps of the campaign already executed.
    step: u64,
    /// Open disruption window: (step it started, violations then).
    open: Option<(u64, usize)>,
    report: CampaignReport,
}

impl CampaignProgress {
    /// Fresh progress for a campaign at step 0.
    pub fn new(cfg: &CampaignConfig) -> Self {
        CampaignProgress {
            campaign: FaultCampaign::new(cfg.seed, cfg.fault_every, cfg.churn_every)
                .with_bias(cfg.bias),
            step: 0,
            open: None,
            report: CampaignReport::default(),
        }
    }

    /// Campaign steps already executed.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Serialize the progress (schedule position + accumulators).
    pub fn save_state(&self, out: &mut Vec<u8>) {
        self.campaign.save_state(out);
        wire::put_u64(out, self.step);
        match self.open {
            None => wire::put_bool(out, false),
            Some((since, viol)) => {
                wire::put_bool(out, true);
                wire::put_u64(out, since);
                wire::put_usize(out, viol);
            }
        }
        wire::put_u64_slice(out, &self.report.recovery);
        wire::put_u64_slice(out, &self.report.safety_windows);
        wire::put_usize(out, self.report.faults_injected);
        wire::put_usize(out, self.report.mutations_applied);
        wire::put_usize(out, self.report.mutations_rejected);
    }

    /// Rebuild progress serialized by [`CampaignProgress::save_state`];
    /// `None` on truncated or corrupted input.
    pub fn restore_state(r: &mut Reader) -> Option<Self> {
        let campaign = FaultCampaign::restore_state(r)?;
        let step = r.u64()?;
        let open = if r.bool()? {
            Some((r.u64()?, r.usize()?))
        } else {
            None
        };
        let report = CampaignReport {
            recovery: r.u64_vec()?,
            safety_windows: r.u64_vec()?,
            faults_injected: r.usize()?,
            mutations_applied: r.usize()?,
            mutations_rejected: r.usize()?,
            ..CampaignReport::default()
        };
        if report.safety_windows.len() != report.recovery.len() {
            return None;
        }
        Some(CampaignProgress {
            campaign,
            step,
            open,
            report,
        })
    }
}

/// Advance a campaign by up to `budget` steps (capped at `cfg.steps`),
/// updating `progress` in place — the resumable core of
/// [`run_campaign_on`]. Returns how many steps were executed.
pub fn run_campaign_chunk(
    sim: &mut AnySim,
    cfg: &CampaignConfig,
    progress: &mut CampaignProgress,
    budget: u64,
) -> u64 {
    let from = progress.step;
    let to = cfg.steps.min(from.saturating_add(budget));
    for step in from + 1..=to {
        for ev in progress.campaign.poll(step) {
            match ev {
                CampaignEvent::Strike { seed } => {
                    // A distributed sim fails mid-run surgery closed; the
                    // campaign skips the injection rather than aborting.
                    if sim.strike(seed, cfg.fault_fraction).is_ok() {
                        progress.report.faults_injected += 1;
                    }
                }
                CampaignEvent::Churn { seed } => {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let proposal = random_mutation_with_bias(sim.h(), &mut rng, cfg.bias);
                    match sim.mutate(&proposal) {
                        Ok(_) => progress.report.mutations_applied += 1,
                        Err(_) => progress.report.mutations_rejected += 1,
                    }
                }
            }
            // Every disruption (re)starts the recovery clock.
            progress.open = Some((step, sim.monitor().violations().len()));
        }
        sim.step();
        let recovered = sim.last_events().iter().any(|ev| {
            matches!(ev, LedgerEvent::Convened(idx)
                if sim.ledger().instances()[*idx].post_initial())
        });
        if recovered {
            if let Some((since, viol_at)) = progress.open.take() {
                progress.report.recovery.push(step - since);
                progress
                    .report
                    .safety_windows
                    .push((sim.monitor().violations().len() - viol_at) as u64);
            }
        }
    }
    progress.step = to;
    to - from
}

/// Close out a finished (or abandoned) campaign: fold the sim's end-state
/// observables into the accumulated distributions.
pub fn finalize_campaign(sim: &AnySim, progress: &CampaignProgress) -> CampaignReport {
    let mut report = progress.report.clone();
    report.unrecovered = usize::from(progress.open.is_some());
    report.convened = sim.ledger().convened_count();
    report.violations = sim.monitor().violations().len();
    report
}

/// Run a sustained-fault campaign against an already-configured simulation.
///
/// The caller owns topology, algorithm, engine mode and boot; the campaign
/// owns the bombardment schedule. Deterministic: the same sim + config
/// replays the same event sequence (mutation proposals are drawn from each
/// event's seed against the *current* graph, so lockstep twins evolving
/// identically see identical proposals). Resumable: see
/// [`CampaignProgress`] / [`run_campaign_chunk`].
pub fn run_campaign_on(sim: &mut AnySim, cfg: &CampaignConfig) -> CampaignReport {
    let mut progress = CampaignProgress::new(cfg);
    run_campaign_chunk(sim, cfg, &mut progress, cfg.steps);
    finalize_campaign(sim, &progress)
}

/// Build a simulation and run a campaign over it: `kind` on `h` under the
/// given registry `mode`, eager environment, clean boot.
///
/// # Panics
/// On an unknown/invalid `mode` label.
pub fn run_campaign(
    kind: AlgoKind,
    h: Arc<Hypergraph>,
    mode: &str,
    cfg: &CampaignConfig,
) -> CampaignReport {
    let mut sim = build_sim(
        kind,
        h,
        cfg.seed ^ 0xdae_5eed,
        PolicyKind::Eager { max_disc: 1 },
        Boot::Clean,
    );
    sim.configure_mode(mode).expect("valid mode label");
    run_campaign_on(&mut sim, cfg)
}

/// One labelled campaign row for the EXPERIMENTS.md table.
#[derive(Clone, Debug)]
pub struct CampaignRow {
    /// Algorithm label.
    pub algo: &'static str,
    /// Topology family label.
    pub topology: String,
    /// The measured report.
    pub report: CampaignReport,
}

/// Render campaign rows as the EXPERIMENTS.md table: recovery-time and
/// safety-window distributions per (algorithm, topology family).
pub fn campaign_table(rows: &[CampaignRow]) -> Table {
    let mut t = Table::new([
        "algo",
        "topology",
        "faults",
        "mutations",
        "recovered",
        "mean rec",
        "max rec",
        "max safety win",
        "convened",
        "violations",
    ]);
    for r in rows {
        t.row([
            r.algo.to_string(),
            r.topology.clone(),
            r.report.faults_injected.to_string(),
            r.report.mutations_applied.to_string(),
            r.report.recovery.len().to_string(),
            format!("{:.1}", r.report.mean_recovery()),
            r.report.max_recovery().to_string(),
            r.report.max_safety_window().to_string(),
            r.report.convened.to_string(),
            r.report.violations.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use sscc_hypergraph::generators;

    #[test]
    fn fault_campaign_recovers_with_zero_safety_windows() {
        let h = Arc::new(generators::ring(12, 3));
        let cfg = CampaignConfig {
            steps: 3_000,
            fault_every: 250,
            fault_fraction: 0.4,
            churn_every: 0,
            seed: 11,
            bias: MutationBias::Balanced,
        };
        let rep = run_campaign(AlgoKind::Cc1, h, "par1", &cfg);
        assert!(rep.faults_injected >= 10, "{rep:?}");
        assert!(!rep.recovery.is_empty(), "meetings resumed: {rep:?}");
        assert_eq!(rep.max_safety_window(), 0, "snap: {rep:?}");
        assert_eq!(rep.violations, 0, "{rep:?}");
    }

    #[test]
    fn churn_campaign_applies_mutations_and_stays_safe() {
        let h = Arc::new(generators::ring(12, 3));
        let cfg = CampaignConfig {
            steps: 3_000,
            fault_every: 300,
            fault_fraction: 0.25,
            churn_every: 170,
            seed: 23,
            bias: MutationBias::Balanced,
        };
        let mut sim = build_sim(
            AlgoKind::Cc2,
            h,
            cfg.seed ^ 0xdae_5eed,
            PolicyKind::Eager { max_disc: 1 },
            Boot::Clean,
        );
        sim.configure_mode("daemon").unwrap();
        let rep = run_campaign_on(&mut sim, &cfg);
        assert!(rep.mutations_applied > 0, "{rep:?}");
        assert_eq!(
            rep.violations,
            0,
            "{:?}\n{rep:?}",
            sim.monitor().violations()
        );
        assert!(rep.convened > 0, "{rep:?}");
    }

    #[test]
    fn campaign_is_deterministic() {
        let h = Arc::new(generators::grid_pairs(4, 4));
        let cfg = CampaignConfig {
            steps: 1_500,
            fault_every: 200,
            fault_fraction: 0.3,
            churn_every: 260,
            seed: 5,
            bias: MutationBias::Balanced,
        };
        let a = run_campaign(AlgoKind::Cc1, Arc::clone(&h), "par1", &cfg);
        let b = run_campaign(AlgoKind::Cc1, h, "par1", &cfg);
        assert_eq!(a.recovery, b.recovery);
        assert_eq!(a.convened, b.convened);
        assert_eq!(a.mutations_applied, b.mutations_applied);
    }

    #[test]
    fn grow_only_campaign_never_shrinks_the_committee_set() {
        let h = Arc::new(generators::ring(10, 3));
        let m0 = h.m();
        let cfg = CampaignConfig {
            steps: 2_000,
            fault_every: 0,
            fault_fraction: 0.0,
            churn_every: 120,
            seed: 31,
            bias: MutationBias::GrowOnly,
        };
        let mut sim = build_sim(
            AlgoKind::Cc1,
            h,
            cfg.seed ^ 0xdae_5eed,
            PolicyKind::Eager { max_disc: 1 },
            Boot::Clean,
        );
        sim.configure_mode("par1").unwrap();
        let mut progress = CampaignProgress::new(&cfg);
        let mut last_m = m0;
        while progress.step() < cfg.steps {
            run_campaign_chunk(&mut sim, &cfg, &mut progress, 120);
            let m = sim.h().m();
            assert!(m >= last_m, "grow-only shrank: {last_m} -> {m}");
            last_m = m;
        }
        let rep = finalize_campaign(&sim, &progress);
        assert!(rep.mutations_applied > 0, "{rep:?}");
        assert!(sim.h().m() > m0, "net growth under GrowOnly: {rep:?}");
        assert_eq!(rep.violations, 0, "{rep:?}");
    }

    #[test]
    fn interrupted_campaign_resumes_bit_identical() {
        let h = Arc::new(generators::ring(12, 3));
        let cfg = CampaignConfig {
            steps: 2_400,
            fault_every: 230,
            fault_fraction: 0.35,
            churn_every: 150,
            seed: 77,
            bias: MutationBias::Balanced,
        };
        let build = || {
            let mut sim = build_sim(
                AlgoKind::Cc2,
                Arc::clone(&h),
                cfg.seed ^ 0xdae_5eed,
                PolicyKind::Eager { max_disc: 1 },
                Boot::Clean,
            );
            sim.configure_mode("daemon").unwrap();
            sim
        };

        // Reference: one uninterrupted run.
        let mut reference = build();
        let want = run_campaign_on(&mut reference, &cfg);

        // Crash drill: run 1,000 steps, freeze sim + progress to bytes,
        // drop everything, rehydrate, finish the campaign.
        let mut sim = build();
        let mut progress = CampaignProgress::new(&cfg);
        run_campaign_chunk(&mut sim, &cfg, &mut progress, 1_000);
        let mut sim_blob = Vec::new();
        assert!(sim.save_state(&mut sim_blob));
        let mut prog_blob = Vec::new();
        progress.save_state(&mut prog_blob);
        let (kind, topo) = (sim.kind(), sim.h_arc());
        drop(sim);
        drop(progress);

        let mut sim = crate::runner::restore_sim(kind, topo, &sim_blob).expect("sim restores");
        let mut r = Reader::new(&prog_blob);
        let mut progress = CampaignProgress::restore_state(&mut r).expect("progress restores");
        assert!(r.is_empty(), "no trailing bytes");
        assert_eq!(progress.step(), 1_000);
        run_campaign_chunk(&mut sim, &cfg, &mut progress, u64::MAX);
        let got = finalize_campaign(&sim, &progress);

        assert_eq!(got.recovery, want.recovery);
        assert_eq!(got.safety_windows, want.safety_windows);
        assert_eq!(got.faults_injected, want.faults_injected);
        assert_eq!(got.mutations_applied, want.mutations_applied);
        assert_eq!(got.mutations_rejected, want.mutations_rejected);
        assert_eq!(got.convened, want.convened);
        assert_eq!(got.violations, want.violations);
        assert_eq!(got.unrecovered, want.unrecovered);
        assert_eq!(sim.steps(), reference.steps());
        assert_eq!(sim.h(), reference.h(), "post-churn topologies agree");

        // Truncated progress blobs fail closed.
        sscc_runtime::wire::fails_closed(None, &prog_blob, |b| {
            CampaignProgress::restore_state(&mut Reader::new(b)).is_some()
        });
    }

    #[test]
    fn table_renders_one_row_per_campaign() {
        let rows = vec![CampaignRow {
            algo: "CC1",
            topology: "ring(12,3)".into(),
            report: CampaignReport::default(),
        }];
        let t = campaign_table(&rows);
        assert_eq!(t.len(), 1);
        assert!(t.render().contains("max safety win"));
    }
}
