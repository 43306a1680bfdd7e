//! The six workloads: what each one builds from the seed, and the driver
//! that turns "one more call" into the program's public API.
//!
//! A [`Driver`] is one running instance of a workload's program. The
//! runner owns the clock; a driver only knows how to make one driving call
//! (`Sim::step`, `CoordinationService::tick`, one campaign step), how to
//! report the convenes of that call to the harness-side [`Sojourn`]
//! mirror, and how to run a crash drill. The untraced pass drives the real
//! program; the traced pass drives the phase-split replica next to it.

mod closed_loop;
mod served;
mod storm;

pub use served::{build_served, build_served_replica, ladder_rung, Served};

use crate::replica::{Counters, ReplicaSim};
use crate::spans;
use closed_loop::{build_closed_loop, build_closed_loop_replica};
use sscc_core::{Cc1, Cc2, CommitteeAlgorithm, LedgerEvent, MeetingLedger};
use sscc_dist::MessageStats;
use sscc_hypergraph::{generators, Hypergraph};
use sscc_runtime::prelude::StateCodec;
use sscc_service::Arrivals;
use std::sync::Arc;

/// Professors of every workload's topology.
pub const N: usize = 1536;

/// The graph a workload runs on. Part of the workload, not of the seeded
/// input.
#[derive(Clone, Copy)]
pub enum Topology {
    /// `ring(1536, 2)`.
    Ring,
    /// `power_law(1536, 2304, 7)`.
    PowerLaw,
    /// `grid_pairs(32, 48)`.
    Grid,
}

/// The program a workload drives.
#[derive(Clone, Copy)]
pub enum Program {
    /// CC1 ∘ WaveToken, closed loop, clean boot.
    Cc1,
    /// CC2 ∘ WaveToken, closed loop, arbitrary boot.
    Cc2Arbitrary,
    /// `cc1_service` under this arrival process.
    Served(Arrivals),
    /// CC1 under a fault-and-churn campaign, arbitrary boot.
    Storm,
}

/// One workload: its name, why it is here, what it runs, and the fixed
/// counts that make its deterministic readings repeat.
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why this workload is part of the set.
    pub why: &'static str,
    /// The graph.
    pub topology: Topology,
    /// The program.
    pub program: Program,
    /// Engine mode label.
    pub mode: &'static str,
    /// `(workload, mode)` this workload must share its trajectory with: the
    /// traced run drives that mode as a reference lane, `all` compares the
    /// two workloads' digests.
    pub same_trajectory_as: Option<(&'static str, &'static str)>,
    /// Run the rate ladder next to the traced run.
    pub rate_ladder: bool,
    /// Calls per chunk; every wall-clock metric is a median over chunks.
    pub chunk: u64,
    /// Window calls after which the deterministic readings are taken
    /// (digest, tick sojourns, crash-drill timings). A multiple of `chunk`,
    /// sized to be reached in about a third of an 8 s window on the
    /// recording host.
    pub mark: u64,
    /// Crash drill after every this many window calls; equal to `mark`
    /// where the drill is not part of the workload (one drill, at the mark).
    pub drill_every: u64,
}

/// Calls before the window opens. Part of set-up: caches fill, the clean
/// boot's first meetings convene, arbitrary boots stabilize.
pub const WARMUP: u64 = 400;

/// Steps of the full-scan oracle prefix check.
pub const ORACLE_PREFIX: u64 = 2_000;

/// Ticks a served workload may take to finish the requests that arrived
/// inside the window, once the window has closed (and steps `storm-grid`
/// may take to recover from its last disruption).
pub const DRAIN_LIMIT: u64 = 5_000;

/// Arrivals per tick of the served workloads.
const RATE: f64 = 0.02 * N as f64;

/// The workload set, in the order `all` runs them.
pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "cc1-ring",
        why: "CC1 on ring(1536,2), clean boot: degree-2 footprints and ~35 convenes/step, so commit and the observers (ledger, monitor, policy) carry a large share; the Maximal-Concurrency regime",
        topology: Topology::Ring,
        program: Program::Cc1,
        mode: "par1",
        same_trajectory_as: None,
        rate_ladder: false,
        chunk: 1_000,
        mark: 15_000,
        drill_every: 15_000,
    },
    Spec {
        name: "cc2-powerlaw",
        why: "CC2 on power_law(1536,2304,7), arbitrary boot: hubs and committees up to 39 make guard evaluation and dirty footprints dominate; token/fairness path and Stab actions run",
        topology: Topology::PowerLaw,
        program: Program::Cc2Arbitrary,
        mode: "par1",
        same_trajectory_as: None,
        rate_ladder: false,
        chunk: 1_000,
        mark: 4_000,
        drill_every: 4_000,
    },
    Spec {
        name: "serve-poisson",
        why: "cc1_service on ring(1536,2), open-loop Poisson 0.02n arrivals/tick, Shed, queue 4096: work enters through admission and invalidate_env_of; engine work scales with admitted requests",
        topology: Topology::Ring,
        program: Program::Served(Arrivals::Poisson { rate: RATE }),
        mode: "par1",
        same_trajectory_as: None,
        rate_ladder: true,
        chunk: 2_000,
        mark: 30_000,
        drill_every: 30_000,
    },
    Spec {
        name: "serve-hotspot",
        why: "same service on power_law(1536,2304,7), Hotspot 0.02n/tick, 80% on the hot pool: arrivals coalesce, the queue rotates over busy professors; an admission gain shows here, an engine gain should not",
        topology: Topology::PowerLaw,
        program: Program::Served(Arrivals::Hotspot {
            rate: RATE,
            hot_fraction: 0.8,
        }),
        mode: "par1",
        same_trajectory_as: None,
        rate_ladder: false,
        chunk: 2_000,
        mark: 8_000,
        drill_every: 8_000,
    },
    Spec {
        name: "dist4-ring",
        why: "cc1-ring under mode dist4: same trajectory by construction (digest equality is checked), so the steps_per_s gap to cc1-ring is the message-passing tier: frames, transport, ghost upkeep",
        topology: Topology::Ring,
        program: Program::Cc1,
        mode: "dist4",
        same_trajectory_as: Some(("cc1-ring", "par1")),
        rate_ladder: false,
        chunk: 1_000,
        mark: 15_000,
        drill_every: 15_000,
    },
    Spec {
        name: "storm-grid",
        why: "CC1 on grid_pairs(32,48), arbitrary boot, strike 30% every 200 steps, churn every 50, crash drill every 2000: surgery, cache rebuilds, ledger resync, persist; zero violations under fire",
        topology: Topology::Grid,
        program: Program::Storm,
        mode: "par1",
        same_trajectory_as: None,
        rate_ladder: false,
        chunk: 1_000,
        mark: 10_000,
        drill_every: 2_000,
    },
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// Harness-side mirror of request sojourns.
///
/// A request is *open* from the moment it is issued until the convene that
/// serves its professor. On a served workload a request is issued by the
/// traffic generator (arrival tick, wall clock at the start of that tick).
/// On a closed-loop workload the eager environment re-issues a professor's
/// request the moment its previous meeting terminates, so that is when the
/// mirror opens it.
pub struct Sojourn {
    open: Vec<Option<(u64, u64)>>,
    /// Tick sojourn of every served request, in completion order.
    pub ticks: Vec<u32>,
    /// Wall-clock sojourn (ns) of every served request, same order.
    pub wall_ns: Vec<u64>,
}

impl Sojourn {
    /// No request open, for `n` professors.
    pub fn new(n: usize) -> Self {
        Sojourn {
            open: vec![None; n],
            ticks: Vec::new(),
            wall_ns: Vec::new(),
        }
    }

    /// Professor `p` issued a request at `(tick, wall)`; ignored while an
    /// earlier one is still open (it is the one being waited for).
    pub fn open(&mut self, p: usize, tick: u64, wall: u64) {
        self.open[p].get_or_insert((tick, wall));
    }

    /// Is a request of `p` open?
    pub fn is_open(&self, p: usize) -> bool {
        self.open[p].is_some()
    }

    /// A convene served `p` during the call that ended at `(tick, wall)`.
    /// Returns whether a request was open.
    pub fn close(&mut self, p: usize, tick: u64, wall: u64) -> bool {
        match self.open[p].take() {
            Some((t0, w0)) => {
                self.ticks.push((tick - t0) as u32);
                self.wall_ns.push(wall - w0);
                true
            }
            None => false,
        }
    }

    /// Open requests issued at or before `tick`.
    pub fn open_since(&self, tick: u64) -> usize {
        self.open
            .iter()
            .filter(|o| o.is_some_and(|(t, _)| t <= tick))
            .count()
    }

    /// Number of open requests.
    pub fn open_count(&self) -> usize {
        self.open_since(u64::MAX)
    }
}

/// Phase timings of one checkpoint → bytes → checkpoint → program round
/// trip, and whether the restored program's state equals the original's.
#[derive(Clone, Copy, Debug, Default)]
pub struct Drill {
    /// `Checkpoint::capture` / `CoordinationService::checkpoint`.
    pub capture_ns: u64,
    /// `Checkpoint::to_bytes` (0 where capture already yields bytes).
    pub encode_ns: u64,
    /// `Checkpoint::from_bytes` (0 where restore takes bytes).
    pub decode_ns: u64,
    /// `Checkpoint::restore` / `cc1_service_restore`.
    pub restore_ns: u64,
    /// Container size.
    pub bytes: u64,
    /// `Sim::snapshot` (online snapshot capture; 0 on served workloads).
    pub snapshot_ns: u64,
    /// `Sim::save_state` (flat encoding; 0 on served workloads).
    pub save_state_ns: u64,
    /// The restored program re-encodes to the original's bytes.
    pub identical: bool,
}

/// How a workload's run ended, in its own terms.
#[derive(Clone, Debug, Default)]
pub struct Finish {
    /// Operations attempted (steps, requests, disruptions).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Named checks and whether they held.
    pub checks: Vec<(&'static str, bool, String)>,
    /// Workload-specific per-layer readings (name, value).
    pub extras: Vec<(&'static str, f64)>,
}

/// One running instance of a workload's program.
pub trait Driver {
    /// One driving call. `false`: the program reported no progress (a
    /// closed-loop workload should never see that).
    fn call(&mut self) -> bool;

    /// Report the convenes (and request issues) of the call just made,
    /// which was call number `tick` since boot and spanned `[t0, t1]` on
    /// the span clock. Returns the number of professors convened.
    fn observe(&mut self, soj: &mut Sojourn, tick: u64, t0: u64, t1: u64) -> u64;

    /// The meeting ledger.
    fn ledger(&self) -> &MeetingLedger;

    /// Engine steps executed.
    fn steps(&self) -> u64;

    /// `SpecMonitor::clean()`.
    fn clean(&self) -> bool;

    /// Crash drill: checkpoint, encode, decode, restore, compare — and
    /// carry on with the *restored* program. `None` for a replica (it has
    /// no checkpoint format; its twin does the drill).
    fn drill(&mut self) -> Option<Drill> {
        None
    }

    /// Close the run after the window: drain what must drain, count
    /// attempts and failures, run the workload's own checks. `window_calls`
    /// is the number of calls the window made.
    fn finish(&mut self, soj: &mut Sojourn, tick: u64, window_calls: u64) -> Finish;

    /// The replica's counters and message statistics (`None` for the real
    /// program, which keeps none).
    fn replica(&self) -> Option<ReplicaReading> {
        None
    }

    /// Zero the replica's counters (the window opens).
    fn reset_counters(&mut self) {}

    /// Time one full guard evaluation over the replica's world, ns per
    /// process (`None` for the real program: its world's flags are not
    /// reachable from outside).
    fn guard_eval_ns(&self) -> Option<f64> {
        None
    }

    /// The admission log of a real service (`None` otherwise).
    fn admission_log(&self) -> Option<&[(u64, usize)]> {
        None
    }
}

/// What a replica has counted, for the per-layer metrics.
pub struct ReplicaReading {
    /// Work counters since the window opened.
    pub counters: Counters,
    /// Message counters of the distributed tier, if configured.
    pub dist: Option<MessageStats>,
    /// Frames the distributed tier sent (the first few thousand).
    pub frames: Vec<Vec<u8>>,
}

fn reading_of<C>(sim: &ReplicaSim<C>) -> ReplicaReading
where
    C: CommitteeAlgorithm + 'static,
    C::State: Copy + StateCodec,
{
    ReplicaReading {
        counters: sim.counters,
        dist: sim.dist_stats(),
        frames: sim.frames.borrow().clone(),
    }
}

fn guard_eval_of<C>(sim: &ReplicaSim<C>) -> f64
where
    C: CommitteeAlgorithm + 'static,
    C::State: Copy + StateCodec,
{
    let t0 = spans::now();
    std::hint::black_box(sim.world().priority_actions(sim.flags()));
    (spans::now() - t0) as f64 / sim.world().h().n() as f64
}

/// Feed one closed-loop step's ledger events into the mirror: a terminated
/// meeting re-opens its members' requests, a convened one serves them.
/// Returns the number of professors convened.
fn observe_closed_loop(
    ledger: &MeetingLedger,
    events: &[LedgerEvent],
    soj: &mut Sojourn,
    tick: u64,
    t1: u64,
) -> u64 {
    let mut convened = 0;
    for ev in events {
        match *ev {
            LedgerEvent::Convened(idx) => {
                for &p in &ledger.instances()[idx].participants {
                    soj.close(p, tick, t1);
                    convened += 1;
                }
            }
            LedgerEvent::Terminated(idx) => {
                for &p in &ledger.instances()[idx].participants {
                    soj.open(p, tick, t1);
                }
            }
        }
    }
    convened
}

/// Closed-loop outcome: every step is an attempt; a step that reported no
/// progress or a specification violation is a failure.
fn finish_closed_loop(window_calls: u64, stalled: u64, violations: usize) -> Finish {
    Finish {
        attempted: window_calls,
        failed: stalled + violations as u64,
        ..Finish::default()
    }
}

/// Seed of the arbitrary boot configuration.
fn fault_seed(seed: u64) -> u64 {
    seed ^ 0xfa17
}

/// The generated input of a workload: its topology, and how long
/// generating it took.
pub struct Input {
    /// The topology.
    pub h: Arc<Hypergraph>,
    /// Wall time of the generator call.
    pub generate_ns: u64,
}

/// Generate the topology of `spec`.
pub fn generate(spec: &Spec) -> Input {
    let t0 = spans::now();
    let h = match spec.topology {
        Topology::Ring => generators::ring(N, 2),
        // m = n would leave only the generator's connectivity backbone (a
        // permuted ring of pairs); 3n/2 adds 768 power-law-sized committees.
        // The generator's seed is fixed: hub sizes differ enough between
        // draws to move steps_per_s by ±12 %, which would drown the
        // run-to-run comparison the seeds are for.
        Topology::PowerLaw => generators::power_law(N, N * 3 / 2, 7),
        Topology::Grid => generators::grid_pairs(32, 48),
    };
    Input {
        h: Arc::new(h),
        generate_ns: spans::now() - t0,
    }
}

/// The program the untraced pass measures (and the traced pass checks the
/// replica against), in engine mode `mode` — the workload's own, its
/// reference's, or `"full_scan"` for the oracle prefix.
pub fn build_real(
    spec: &Spec,
    h: &Arc<Hypergraph>,
    seed: u64,
    mode: &'static str,
) -> Box<dyn Driver> {
    match spec.program {
        Program::Cc1 => Box::new(build_closed_loop(h, "cc1", Cc1::new, seed, mode, false)),
        Program::Cc2Arbitrary => Box::new(build_closed_loop(h, "cc2", Cc2::new, seed, mode, true)),
        Program::Served(arrivals) => Box::new(build_served(h, seed, Served { arrivals, mode })),
        Program::Storm => Box::new(storm::build(h, seed, mode)),
    }
}

/// The traced counterpart of [`build_real`] in the workload's own mode: the
/// phase-split replica (closed loop, served), or the campaign loop written
/// out around the real `Sim` (storm).
pub fn build_traced(spec: &Spec, h: &Arc<Hypergraph>, seed: u64) -> Box<dyn Driver> {
    let mode = spec.mode;
    match spec.program {
        Program::Cc1 => Box::new(build_closed_loop_replica(h, Cc1::new, seed, mode, false)),
        Program::Cc2Arbitrary => Box::new(build_closed_loop_replica(h, Cc2::new, seed, mode, true)),
        Program::Served(arrivals) => {
            Box::new(build_served_replica(h, seed, Served { arrivals, mode }))
        }
        Program::Storm => Box::new(storm::build_traced(h, seed, mode)),
    }
}
