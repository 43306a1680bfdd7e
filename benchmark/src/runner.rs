//! One run of one workload: set-up, the measured window, the checks, and
//! the metrics that come out of it.
//!
//! The window is cut into fixed-count chunks and runs until `--seconds` of
//! driving time have passed *and* the workload's fixed-count mark has been
//! reached. Everything that must repeat exactly for a seed — the trajectory
//! digest, the tick sojourns, peak RSS, the crash-drill state — is read at
//! the mark; everything that is a rate or a wall-clock percentile is taken
//! over the whole window.
//!
//! The traced run drives several *lanes* chunk by chunk in turn: the
//! phase-split replica, the real program next to it (its twin), and for
//! `dist4-ring` a `par1` reference. All lanes make the same number of
//! calls, so their digests must agree, and their times are measured under
//! the same conditions.

use crate::manifest::{END_TO_END, PER_LAYER};
use crate::probes;
use crate::spans::{self, Kind, Span};
use crate::stats;
use crate::workloads::{
    build_real, build_traced, generate, ladder_rung, Drill, Driver, Finish, Input, ReplicaReading,
    Sojourn, Spec, N, ORACLE_PREFIX, WARMUP,
};
use std::collections::BTreeMap;

/// The process's memory at one point of the window.
#[derive(Clone, Copy, Debug)]
pub struct MemoryReading {
    /// `VmHWM`, kB.
    pub hwm_kb: u64,
    /// `VmRSS`, kB.
    pub rss_kb: u64,
    /// Spans recorded by then (all lanes).
    pub spans: usize,
}

/// Readings taken when a lane reaches the workload's mark.
#[derive(Clone, Copy, Debug)]
pub struct MarkReading {
    /// Trajectory digest.
    pub digest: u64,
    /// Served requests mirrored by then.
    pub sojourns: usize,
}

/// One driven instance and everything measured on it.
pub struct Lane {
    drv: Box<dyn Driver>,
    /// The sojourn mirror.
    pub soj: Sojourn,
    tick: u64,
    /// Wall time of each window call, ns.
    pub call_ns: Vec<u32>,
    /// Summed call time of each chunk, ns.
    pub chunk_ns: Vec<u64>,
    /// After each chunk: meetings convened, professors convened and
    /// sojourns mirrored since boot (entry 0: at the window's opening).
    chunk_ends: Vec<(usize, u64, usize)>,
    convened: u64,
    /// The memory reading, taken where the workload's is due.
    pub memory: Option<MemoryReading>,
    /// The reading at the mark.
    pub mark: Option<MarkReading>,
    /// `(window call, drill)` of every crash drill.
    pub drills: Vec<(u64, Drill)>,
    /// Guard-evaluation probe readings, ns per process (replica lanes).
    pub guard_eval: Vec<f64>,
}

impl Lane {
    /// Warm the driver up ([`WARMUP`] calls, mirrored but not measured) and
    /// open its window.
    pub fn open(mut drv: Box<dyn Driver>) -> Self {
        let mut soj = Sojourn::new(N);
        for tick in 1..=WARMUP {
            let t0 = spans::now();
            drv.call();
            drv.observe(&mut soj, tick, t0, spans::now());
        }
        drv.reset_counters();
        Lane {
            chunk_ends: vec![(drv.ledger().convened_count(), 0, soj.ticks.len())],
            drv,
            soj,
            tick: WARMUP,
            call_ns: Vec::new(),
            chunk_ns: Vec::new(),
            convened: 0,
            memory: None,
            mark: None,
            drills: Vec::new(),
            guard_eval: Vec::new(),
        }
    }

    fn chunk(&mut self, len: u64) {
        let mut sum = 0;
        for _ in 0..len {
            self.tick += 1;
            let t0 = spans::now();
            self.drv.call();
            let t1 = spans::now();
            self.call_ns.push((t1 - t0) as u32);
            sum += t1 - t0;
            self.convened += self.drv.observe(&mut self.soj, self.tick, t0, t1);
        }
        self.chunk_ns.push(sum);
        self.chunk_ends.push((
            self.drv.ledger().convened_count(),
            self.convened,
            self.soj.ticks.len(),
        ));
        self.guard_eval.extend(self.drv.guard_eval_ns());
    }

    fn read_memory(&mut self) {
        self.memory = Some(MemoryReading {
            hwm_kb: stats::proc_status_kb("VmHWM"),
            rss_kb: stats::proc_status_kb("VmRSS"),
            spans: spans::count(),
        });
    }

    fn read_mark(&mut self) {
        self.mark = Some(MarkReading {
            digest: self.digest(),
            sojourns: self.soj.ticks.len(),
        });
    }

    /// Calls made inside the window.
    pub fn calls(&self) -> u64 {
        self.call_ns.len() as u64
    }

    /// Summed call time of the window, seconds.
    pub fn busy_s(&self) -> f64 {
        self.chunk_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// Sojourns mirrored before the window opened.
    fn sojourns_at_open(&self) -> usize {
        self.chunk_ends[0].2
    }

    /// Meetings convened before the window opened.
    fn convenes_at_open(&self) -> usize {
        self.chunk_ends[0].0
    }

    /// Per chunk: `(seconds, meetings convened, professors convened,
    /// ascending wall-clock sojourns of the requests served)`.
    fn chunks(&self) -> impl Iterator<Item = (f64, usize, u64, Vec<u64>)> + '_ {
        self.chunk_ends
            .windows(2)
            .zip(&self.chunk_ns)
            .map(|(w, &ns)| {
                let (from, to) = (w[0], w[1]);
                let mut wall = self.soj.wall_ns[from.2..to.2].to_vec();
                wall.sort_unstable();
                (ns as f64 / 1e9, to.0 - from.0, to.1 - from.1, wall)
            })
    }

    /// p99 of the per-call wall time within a chunk (at least 1 000 calls,
    /// so at least ten samples beyond it), median over chunks, µs.
    fn call_p99_us(&self, spec: &Spec) -> f64 {
        let per_chunk: Vec<f64> = self
            .call_ns
            .chunks(spec.chunk as usize)
            .map(|c| stats::quantile(&sorted(c.iter().map(|&ns| u64::from(ns))), 0.99) as f64)
            .collect();
        stats::median(&per_chunk) / 1e3
    }

    /// Trajectory digest now.
    pub fn digest(&self) -> u64 {
        stats::digest(self.drv.ledger(), self.drv.steps())
    }

    fn finish(&mut self) -> Finish {
        let calls = self.calls();
        self.drv.finish(&mut self.soj, self.tick, calls)
    }
}

/// Round trips per crash drill up to the mark (each continues on the
/// program the previous one restored); the drill metrics are medians over
/// them.
const DRILL_REPS: usize = 3;

/// Drive `lanes` chunk by chunk, in turn, until `seconds` of driving time
/// (all lanes together; drills and mark readings excluded) have passed and
/// the mark has been reached.
pub fn run_window(lanes: &mut [Lane], spec: &Spec, seconds: f64) {
    let mut done = 0u64;
    loop {
        for lane in lanes.iter_mut() {
            lane.chunk(spec.chunk);
        }
        done += spec.chunk;
        // Memory is read before the first drill, whose blobs and second
        // program instance would otherwise set the high-water mark.
        if done == spec.mark.min(spec.drill_every) {
            for lane in lanes.iter_mut() {
                lane.read_memory();
            }
        }
        if done == spec.mark {
            for lane in lanes.iter_mut() {
                lane.read_mark();
            }
        }
        // A workload whose drill period is shorter than its mark keeps
        // drilling (the drill is part of the workload); the others drill
        // once, at the mark.
        if done.is_multiple_of(spec.drill_every)
            && (done <= spec.mark || spec.drill_every < spec.mark)
        {
            for lane in lanes.iter_mut() {
                // Past the mark the drills no longer feed a metric.
                let reps = if done <= spec.mark { DRILL_REPS } else { 1 };
                for _ in 0..reps {
                    if let Some(d) = lane.drv.drill() {
                        lane.drills.push((done, d));
                    }
                }
            }
        }
        let busy: f64 = lanes.iter().map(Lane::busy_s).sum();
        if done >= spec.mark && busy >= seconds {
            break;
        }
    }
}

/// A named check and whether it held.
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The correctness checks.
    pub checks: Vec<Check>,
    /// Named digests (`mark`, `end`), for cross-run comparison.
    pub digests: Vec<(&'static str, u64)>,
    /// Free-form facts (sample counts, quartiles).
    pub info: Vec<String>,
}

impl Report {
    fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check { name, ok, detail });
    }

    fn absorb(&mut self, finish: Finish) {
        self.attempted = finish.attempted;
        self.failed = finish.failed;
        for (name, ok, detail) in finish.checks {
            self.check(name, ok, detail);
        }
        for (name, value) in finish.extras {
            self.metrics.insert(name, value);
        }
    }

    /// Did every check hold?
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

fn sorted(v: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut v: Vec<u64> = v.collect();
    v.sort_unstable();
    v
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// The drills a lane ran up to the mark: the ones whose state size is a
/// pure function of the seed.
fn drills_to_mark<'a>(lane: &'a Lane, spec: &Spec) -> Vec<&'a Drill> {
    lane.drills
        .iter()
        .filter(|(at, _)| *at <= spec.mark)
        .map(|(_, d)| d)
        .collect()
}

/// Median of one drill reading; 0 when no drill ran (a failed check says so).
fn median_of(drills: &[&Drill], f: impl Fn(&Drill) -> u64) -> f64 {
    if drills.is_empty() {
        return 0.0;
    }
    stats::median(&drills.iter().map(|d| f(d) as f64).collect::<Vec<_>>())
}

fn common_checks(report: &mut Report, lane: &Lane, spec: &Spec) {
    report.check(
        "monitor.clean",
        lane.drv.clean(),
        "SpecMonitor::clean() after the window".to_string(),
    );
    report.check(
        "drill.restored_identical",
        !lane.drills.is_empty() && lane.drills.iter().all(|(_, d)| d.identical),
        format!(
            "{} crash drills; each restored state re-encodes to the original's bytes",
            lane.drills.len()
        ),
    );
    let threads = stats::threads_alive();
    report.check(
        "threads.at_most_two",
        threads <= 2,
        format!("{threads} threads alive in the {} process", spec.name),
    );
}

/// Set-ups per untraced run: at least this many, and more while they are
/// so short that together they take under [`SETUP_BUDGET_S`] (a 25 ms
/// set-up needs more repeats than a 250 ms one for a steady median).
/// `setup_s` is their median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.0;

/// The untraced run: the real program alone, end-to-end metrics.
pub fn run_untraced(spec: &Spec, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    // Set-up, several times over: generate the input, construct and
    // configure the program, warm it up. The last instance is measured.
    let mut setup_s = Vec::new();
    let mut lane = None;
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(lane.take());
        let t0 = spans::now();
        let input = generate(spec);
        lane = Some(Lane::open(build_real(spec, &input.h, seed, spec.mode)));
        setup_s.push((spans::now() - t0) as f64 / 1e9);
    }
    let mut lane = lane.expect("MIN_SETUPS > 0");
    run_window(std::slice::from_mut(&mut lane), spec, seconds);

    let mark = lane.mark.expect("the window runs past the mark");
    report.digests.push(("mark", mark.digest));
    report.digests.push(("end", lane.digest()));
    let finish = lane.finish();
    report.absorb(finish);
    common_checks(&mut report, &lane, spec);

    // Every wall-clock metric is the median over the window's chunks of the
    // chunk's own reading: a slow stretch of the host then moves a few
    // chunks, not the result.
    let rates = stats::chunk_rates(&lane.chunk_ns, spec.chunk);
    let (q1, q3) = stats::quartiles(&rates);
    let mut convene_rate = Vec::new();
    let mut goodput = Vec::new();
    let mut sojourn_p50 = Vec::new();
    let mut sojourn_p99 = Vec::new();
    for (secs, convenes, convened, wall) in lane.chunks() {
        convene_rate.push(convenes as f64 / secs);
        goodput.push(convened as f64 / secs);
        if !wall.is_empty() {
            sojourn_p50.push(stats::quantile(&wall, 0.50) as f64 / 1e3);
            sojourn_p99.push(stats::quantile(&wall, 0.99) as f64 / 1e3);
        }
    }
    let served_per_chunk = (lane.soj.ticks.len() - lane.sojourns_at_open()) / rates.len();
    let ticks = sorted(
        lane.soj.ticks[lane.sojourns_at_open()..mark.sojourns]
            .iter()
            .map(|&t| u64::from(t)),
    );
    report.check(
        "sojourn.samples",
        served_per_chunk >= 1_000 && ticks.len() >= 1_000 && sojourn_p99.len() == rates.len(),
        format!(
            "{served_per_chunk} requests served per chunk, {} up to the mark",
            ticks.len()
        ),
    );
    let drills = drills_to_mark(&lane, spec);
    let memory = lane
        .memory
        .expect("the window runs past the memory reading");
    let m = &mut report.metrics;
    m.insert("setup_s", stats::median(&setup_s));
    m.insert("steps_per_s", stats::median(&rates));
    m.insert("convenes_per_s", stats::median(&convene_rate));
    m.insert("goodput_rps", stats::median(&goodput));
    if !ticks.is_empty() && !sojourn_p99.is_empty() {
        m.insert("sojourn_p50_us", stats::median(&sojourn_p50));
        m.insert("sojourn_p99_us", stats::median(&sojourn_p99));
        m.insert(
            "sojourn_mean_ticks",
            ticks.iter().sum::<u64>() as f64 / ticks.len() as f64,
        );
        m.insert("sojourn_p99_ticks", stats::quantile(&ticks, 0.99) as f64);
    }
    m.insert(
        "ckpt_p50_us",
        median_of(&drills, |d| d.capture_ns + d.encode_ns) / 1e3,
    );
    m.insert(
        "restore_p50_ms",
        median_of(&drills, |d| d.decode_ns + d.restore_ns) / 1e6,
    );
    m.insert("peak_rss_mb", memory.hwm_kb as f64 / 1024.0);
    report.info.push(format!(
        "window: {} calls in {:.3} s of driving, {} chunks of {}; chunk rate quartiles {q1:.1} / {:.1} / {q3:.1} per s",
        lane.calls(),
        lane.busy_s(),
        rates.len(),
        spec.chunk,
        stats::median(&rates),
    ));
    report.info.push(format!(
        "samples: per chunk {} calls and ~{served_per_chunk} served requests (sojourn_*_us), medians over {} chunks; sojourn_*_ticks over {} requests up to the mark ({} calls); ckpt/restore over {} round trips; peak_rss_mb after {} calls",
        spec.chunk,
        rates.len(),
        ticks.len(),
        spec.mark,
        drills.len(),
        spec.mark.min(spec.drill_every),
    ));
    report.info.push(format!(
        "setup_s: median of {} set-ups {setup_s:?}",
        setup_s.len()
    ));
    report
}

/// The full-scan oracle against the workload's mode, on a prefix.
fn oracle_check(report: &mut Report, spec: &Spec, input: &Input, seed: u64) {
    let prefix_digest = |mode: &'static str| {
        let mut drv = build_real(spec, &input.h, seed, mode);
        for _ in 0..ORACLE_PREFIX {
            drv.call();
        }
        (stats::digest(drv.ledger(), drv.steps()), drv.clean())
    };
    let (oracle, oracle_clean) = prefix_digest("full_scan");
    let (prefix, prefix_clean) = prefix_digest(spec.mode);
    report.check(
        "oracle.full_scan_prefix",
        oracle == prefix && oracle_clean && prefix_clean,
        format!(
            "{ORACLE_PREFIX} calls: full_scan {oracle:016x} vs {} {prefix:016x}",
            spec.mode
        ),
    );
}

/// Write the span dump; returns its path.
fn dump_spans(
    report: &mut Report,
    spec: &Spec,
    all: &[Span],
    analysis: &spans::Analysis,
) -> String {
    // From the repository root (where the driver runs it) or from inside
    // the package.
    let dir = if std::path::Path::new("benchmark").is_dir() {
        "benchmark/spans"
    } else {
        "spans"
    };
    let path = format!("{dir}/{}.jsonl", spec.name);
    if let Err(e) = spans::dump(std::path::Path::new(&path), all, analysis) {
        report
            .info
            .push(format!("span dump {path} not written: {e}"));
    }
    path
}

/// History growth: resident bytes gained per convene between the window's
/// opening (`rss_at_open`, kB) and the memory reading, all lanes together,
/// less what the harness itself kept by then (spans, call times, sojourn
/// samples).
fn history_bytes_per_convene(lanes: &[Lane], spec: &Spec, rss_at_open: u64) -> f64 {
    let read_after = spec.mark.min(spec.drill_every);
    let read_chunk = (read_after / spec.chunk) as usize;
    let memory = lanes[0]
        .memory
        .expect("the window runs past the memory reading");
    let convenes: usize = lanes
        .iter()
        .map(|l| l.chunk_ends[read_chunk].0 - l.convenes_at_open())
        .sum();
    let harness_bytes: usize = memory.spans * std::mem::size_of::<Span>()
        + lanes
            .iter()
            .map(|l| {
                (l.chunk_ends[read_chunk].2 - l.sojourns_at_open()) * 12 + read_after as usize * 4
            })
            .sum::<usize>();
    let grown = (memory.rss_kb.saturating_sub(rss_at_open) * 1024) as f64 - harness_bytes as f64;
    grown.max(0.0) / convenes.max(1) as f64
}

/// Persistence phases, from a lane's drill(s) up to the mark.
fn drill_metrics(report: &mut Report, lane: &Lane, spec: &Spec) {
    let drills = drills_to_mark(lane, spec);
    let us = |f: fn(&Drill) -> u64| median_of(&drills, f) / 1e3;
    let m = &mut report.metrics;
    m.insert("persist.capture_us", us(|d| d.capture_ns));
    m.insert("persist.encode_us", us(|d| d.encode_ns));
    m.insert("persist.decode_us", us(|d| d.decode_ns));
    m.insert("persist.restore_ms", us(|d| d.restore_ns) / 1e3);
    m.insert("persist.bytes", median_of(&drills, |d| d.bytes));
    m.insert(
        "persist.bytes_per_process",
        median_of(&drills, |d| d.bytes) / N as f64,
    );
    m.insert("core.snapshot_us", us(|d| d.snapshot_ns));
    m.insert("core.save_state_us", us(|d| d.save_state_ns));
}

/// The traced run: the phase-split program next to the real one, per-layer
/// metrics, and the checks that tie the two together.
pub fn run_traced(spec: &Spec, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let input = generate(spec);
    oracle_check(&mut report, spec, &input, seed);

    // Lane 0: the traced program. Lane 1: its untraced twin. Lane 2: the
    // mode whose trajectory the workload must share, if it names one.
    let mut lanes = vec![
        Lane::open(build_traced(spec, &input.h, seed)),
        Lane::open(build_real(spec, &input.h, seed, spec.mode)),
    ];
    if let Some((_, reference_mode)) = spec.same_trajectory_as {
        lanes.push(Lane::open(build_real(spec, &input.h, seed, reference_mode)));
    }
    let rss_at_open = stats::proc_status_kb("VmRSS");
    spans::enable(1 << 22);
    run_window(&mut lanes, spec, seconds);
    let all = spans::take();

    let marks: Vec<MarkReading> = lanes
        .iter()
        .map(|l| l.mark.expect("the window runs past the mark"))
        .collect();
    let ends: Vec<u64> = lanes.iter().map(Lane::digest).collect();
    report.digests.push(("mark", marks[1].digest));
    report.digests.push(("end", ends[1]));
    report.check(
        "trace.digest_equal",
        marks.iter().all(|m| m.digest == marks[0].digest) && ends.iter().all(|&e| e == ends[0]),
        format!(
            "traced, twin{}: at the mark {:016x?}, at the end {:016x?}",
            if lanes.len() > 2 { ", reference" } else { "" },
            marks.iter().map(|m| m.digest).collect::<Vec<_>>(),
            ends
        ),
    );
    let busy: Vec<f64> = lanes.iter().map(Lane::busy_s).collect();
    let calls = lanes[0].calls();

    // The twin closes the run in the workload's own terms; the traced lane
    // closes too, so its own checks (the replica service's conservation and
    // sojourn mirror) are run.
    for (name, ok, detail) in lanes[0].finish().checks {
        report.check(name, ok, format!("(traced lane) {detail}"));
    }
    let twin_finish = lanes[1].finish();
    report.absorb(twin_finish);
    common_checks(&mut report, &lanes[1], spec);

    let analysis = spans::analyse(&all);
    let path = dump_spans(&mut report, spec, &all, &analysis);
    span_metrics(&mut report, &analysis, busy[0]);
    if let Some(reading) = lanes[0].drv.replica() {
        replica_metrics(&mut report, &reading);
    }
    drill_metrics(&mut report, &lanes[1], spec);
    let m = &mut report.metrics;
    if !lanes[0].guard_eval.is_empty() {
        m.insert("core.guard_eval_ns", stats::median(&lanes[0].guard_eval));
    }
    m.insert("step_p99_us", lanes[1].call_p99_us(spec));
    m.insert("trace_overhead_ratio", busy[0] / busy[1]);
    if lanes.len() > 2 {
        m.insert(
            "dist.overhead_ns_per_step",
            (busy[1] - busy[2]) * 1e9 / calls as f64,
        );
    }
    m.insert(
        "core.history_bytes_per_convene",
        history_bytes_per_convene(&lanes, spec, rss_at_open),
    );
    // Drift: the twin's rate over the last fifth of the window against its
    // rate over the first fifth.
    let rates = stats::chunk_rates(&lanes[1].chunk_ns, spec.chunk);
    let fifth = (rates.len() / 5).max(1);
    m.insert(
        "core.drift_ratio",
        mean(&rates[rates.len() - fifth..]) / mean(&rates[..fifth]),
    );

    // The proxy is transparent: a bare Sim replaying the twin's admission
    // log reaches the twin's digest.
    if let Some(log) = lanes[1].drv.admission_log() {
        let bare = probes::bare_replay(&input.h, seed, spec.mode, log, WARMUP + spec.mark);
        report.check(
            "serve.bare_replay",
            bare == marks[1].digest,
            format!(
                "bare Sim replaying the admission log: {bare:016x} vs service {:016x} at the mark",
                marks[1].digest
            ),
        );
    }
    report.info.push(format!(
        "lanes: {calls} calls each; driving time {busy:.3?} s; {} spans, first {} in {path}",
        all.len(),
        all.len().min(spans::DUMP_LIMIT),
    ));
    drop(lanes);

    layer_probes(&mut report, spec, &input, seed);
    for m in &PER_LAYER {
        report.metrics.entry(m.name).or_insert(0.0);
    }
    report
}

/// Per-layer times from the analysed spans of lane 0, whose driving time
/// was `busy_s`.
fn span_metrics(report: &mut Report, analysis: &spans::Analysis, busy_s: f64) {
    let of = |k: Kind| analysis.of(k);
    let steps = of(Kind::Step).count.max(1) as f64;
    let ticks = of(Kind::Tick).count.max(1) as f64;
    let per_step = |k: Kind| of(k).self_ns as f64 / steps;
    let per_tick = |k: Kind| of(k).self_ns as f64 / ticks;
    let per_call_us = |k: Kind| of(k).total_ns as f64 / of(k).count.max(1) as f64 / 1e3;
    let m = &mut report.metrics;
    m.insert("runtime.invalidate_ns_per_step", per_step(Kind::Invalidate));
    m.insert("runtime.refresh_ns_per_step", per_step(Kind::Refresh));
    m.insert(
        "runtime.select_commit_ns_per_step",
        per_step(Kind::SelectCommit),
    );
    m.insert("runtime.daemon_ns_per_step", per_step(Kind::Daemon));
    m.insert("runtime.rounds_ns_per_step", per_step(Kind::Rounds));
    m.insert("core.ledger_ns_per_step", per_step(Kind::Ledger));
    m.insert("core.monitor_ns_per_step", per_step(Kind::Monitor));
    m.insert("core.policy_ns_per_step", per_step(Kind::Policy));
    m.insert("core.mirror_ns_per_step", per_step(Kind::Mirror));
    m.insert(
        "core.step_ns_per_step",
        of(Kind::Step).total_ns as f64 / steps,
    );
    m.insert("dist.step_ns_per_step", per_step(Kind::DistStep));
    m.insert("dist.transport_ns_per_step", per_step(Kind::Transport));
    m.insert("service.poll_ns_per_tick", per_tick(Kind::Poll));
    m.insert("service.admit_ns_per_tick", per_tick(Kind::Admit));
    m.insert("service.complete_ns_per_tick", per_tick(Kind::Complete));
    // Everything a tick spends outside the engine step: the three phases
    // above plus the bookkeeping between them.
    m.insert(
        "service.overhead_ns_per_tick",
        of(Kind::Tick)
            .total_ns
            .saturating_sub(of(Kind::Step).total_ns) as f64
            / ticks,
    );
    m.insert("core.strike_us", per_call_us(Kind::Strike));
    m.insert("core.mutate_us", per_call_us(Kind::Mutate));

    // Coverage: the share of lane 0's driving time that lies inside a span
    // attributed to a layer. What is not covered is the root spans' own
    // time (the gaps between their children), harness bookkeeping, and the
    // clock reads around the root. Where the step is one opaque call into
    // the real `Sim` (storm) it has no children and counts as covered.
    let layered = [
        Kind::Invalidate,
        Kind::Refresh,
        Kind::SelectCommit,
        Kind::Daemon,
        Kind::Rounds,
        Kind::Mirror,
        Kind::Ledger,
        Kind::Monitor,
        Kind::Policy,
        Kind::DistStep,
        Kind::Transport,
        Kind::Poll,
        Kind::Admit,
        Kind::Complete,
        Kind::Strike,
        Kind::Mutate,
    ];
    let mut covered: u64 = layered.iter().map(|&k| of(k).self_ns).sum();
    if of(Kind::Step).self_ns == of(Kind::Step).total_ns {
        covered += of(Kind::Step).total_ns;
    }
    m.insert("trace_coverage", covered as f64 / (busy_s * 1e9));
}

fn replica_metrics(report: &mut Report, reading: &ReplicaReading) {
    let c = reading.counters;
    let steps = c.steps.max(1) as f64;
    let m = &mut report.metrics;
    m.insert("runtime.dirty_per_step", c.dirty as f64 / steps);
    m.insert("runtime.enabled_per_step", c.enabled as f64 / steps);
    m.insert("runtime.executed_per_step", c.executed as f64 / steps);
    // Under a distributed drain the shard actors keep their own dirty sets;
    // the world's queue stays empty and the ratio has no meaning.
    if c.dirty > 0 {
        m.insert("runtime.flips_per_dirty", c.flips as f64 / c.dirty as f64);
    }
    m.insert("core.convenes_per_step", c.convenes as f64 / steps);
    m.insert(
        "core.touched_edges_per_step",
        c.touched_edges as f64 / steps,
    );
    m.insert("core.flag_flips_per_step", c.flag_flips as f64 / steps);
    m.insert("core.terminal_step_ratio", c.terminal_steps as f64 / steps);
    m.insert(
        "token.action_share",
        c.token_actions as f64 / c.executed.max(1) as f64,
    );
    if let Some(s) = reading.dist {
        let steps = s.steps.max(1) as f64;
        m.insert("dist.frames_per_step", s.frames as f64 / steps);
        m.insert("dist.bytes_per_step", s.bytes as f64 / steps);
        let (encode, decode) = probes::frame_codec(&reading.frames);
        m.insert("dist.encode_ns_per_frame", encode);
        m.insert("dist.decode_ns_per_frame", decode);
    }
}

/// Ticks of one rung of the rate ladder.
const LADDER_TICKS: u64 = 10_000;

/// Latency limit of the rate ladder: the p99 sojourn a rate must meet.
const LADDER_LIMIT_TICKS: u64 = 200;

/// The stand-alone layer measurements next to a traced run.
fn layer_probes(report: &mut Report, spec: &Spec, input: &Input, seed: u64) {
    let h = &input.h;
    let m = &mut report.metrics;
    m.insert("hypergraph.generate_ms", input.generate_ns as f64 / 1e6);
    m.insert(
        "hypergraph.apply_mutation_us",
        probes::apply_mutation_us(h, seed),
    );
    let (max_degree, mean_footprint) = probes::shape(h);
    m.insert("hypergraph.max_degree", max_degree);
    m.insert("hypergraph.mean_footprint", mean_footprint);
    let (wave_ns, circulation) = probes::token(h);
    m.insert("token.wave_step_ns", wave_ns);
    m.insert("token.circulation_steps", circulation);
    if spec.rate_ladder {
        let mut best = 0;
        for (pct, name) in [
            (1u32, "service.p99_ticks_at_rate_1"),
            (2, "service.p99_ticks_at_rate_2"),
            (4, "service.p99_ticks_at_rate_4"),
            (8, "service.p99_ticks_at_rate_8"),
        ] {
            let (p99, keeps_up) = ladder_rung(h, seed, pct, LADDER_TICKS);
            m.insert(name, p99 as f64);
            if p99 <= LADDER_LIMIT_TICKS && keeps_up {
                best = pct;
            }
        }
        m.insert("service.max_rate_ok_pct", f64::from(best));
    }
}

/// Unit of a metric by name.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
        .expect("a metric of the tables")
}

/// Print a report: one line per fact, then, as the last line, the JSON
/// object with the metrics `names`.
pub fn print(report: &Report, names: impl Iterator<Item = &'static str>) {
    for line in &report.info {
        println!("info {line}");
    }
    for (label, d) in &report.digests {
        println!("digest {label} {d:016x}");
    }
    for c in &report.checks {
        let verdict = if c.ok { "ok" } else { "FAIL" };
        println!("check {} {verdict} {}", c.name, c.detail);
    }
    println!("attempted {} failed {}", report.attempted, report.failed);
    let mut fields = Vec::new();
    for name in names {
        let unit = unit_of(name);
        // A metric the run could not take (no samples) reads 0, which the
        // accompanying failed check explains.
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        println!("metric {name} {value} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
}
