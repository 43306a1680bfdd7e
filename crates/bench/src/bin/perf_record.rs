//! Records the performance trajectory of the step engine — steady-state
//! steps/sec for every algorithm on large rings across engine modes — and
//! gates CI against throughput regressions.
//!
//! ```sh
//! # Full trajectory recording (rings n=384/1536/6144, every registry mode):
//! cargo run -p sscc-bench --release --bin perf_record            # BENCH_5.json
//! cargo run -p sscc-bench --release --bin perf_record -- out.json
//!
//! # What can be recorded (the ModeRegistry, with descriptions):
//! cargo run -p sscc-bench --release --bin perf_record -- --list-modes
//!
//! # Subsets, without editing code (CI smoke + local profiling):
//! cargo run -p sscc-bench --release --bin perf_record -- \
//!     --quick --modes @baseline bench_ci.json
//! cargo run -p sscc-bench --release --bin perf_record -- \
//!     --modes par1,pool profile.json
//!
//! # Regression gate: exit 1 if any (algo, topology, mode, threads) pair in
//! # FRESH regressed more than THRESHOLD (default 0.20) below BASELINE:
//! cargo run -p sscc-bench --release --bin perf_record -- \
//!     --compare BENCH_5.json bench_ci.json --threshold 0.20
//!
//! # Snapshot gate: exit 1 if an online snapshot (`Sim::save_state`) on
//! # ring1536 costs more than one steady-state step:
//! cargo run -p sscc-bench --release --bin perf_record -- --snapshot-cost
//! ```
//!
//! The engine modes are **not** defined here: they are the
//! [`ModeRegistry`] — the single source of truth this binary, the
//! differential lockstep suite and the examples all derive from. `--modes`
//! takes registry names (comma-separated), `@baseline` (the modes of the
//! committed BENCH baseline — what CI's quick gate records), or `@all`.

use sscc_bench::bench_json;
use sscc_hypergraph::generators;
use sscc_metrics::{build_sim, AlgoKind, Boot, Mode, ModeRegistry, PolicyKind};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

struct Record {
    algo: &'static str,
    topology: String,
    n: usize,
    mode: &'static str,
    threads: usize,
    steps: u64,
    secs: f64,
    /// Message volume of the distributed tier across the measured window,
    /// `(frames per step, boundary bytes per step)` — `None` for every
    /// shared-memory mode. The gate's `--compare` join ignores the extra
    /// columns (the parser skips unknown fields), so recording them cannot
    /// perturb the throughput gate.
    messages: Option<(f64, f64)>,
}

impl Record {
    fn steps_per_sec(&self) -> f64 {
        self.steps as f64 / self.secs
    }
}

/// Time `budget` steps of a fresh sim after `warmup` untimed steps (the
/// transient from the clean boot is not steady state), repeating `reps`
/// times and keeping the best wall-clock run.
fn measure(
    algo: AlgoKind,
    h: &Arc<sscc_hypergraph::Hypergraph>,
    mode: &Mode,
    warmup: u64,
    budget: u64,
    reps: usize,
) -> (u64, f64, Option<(f64, f64)>) {
    let mut best = f64::INFINITY;
    let mut steps_done = 0;
    let mut messages = None;
    for _ in 0..reps {
        let mut sim = build_sim(
            algo,
            Arc::clone(h),
            7,
            PolicyKind::Eager { max_disc: 1 },
            Boot::Clean,
        );
        sim.configure(&mode.config)
            .unwrap_or_else(|e| panic!("registry mode {} must validate: {e}", mode.name));
        for _ in 0..warmup {
            if !sim.step() {
                break;
            }
        }
        // Message counters are diffed across exactly the timed window, so
        // the recorded per-step volume matches the throughput measurement.
        let pre = sim.dist_stats();
        let start = Instant::now();
        let mut done = 0;
        for _ in 0..budget {
            if !sim.step() {
                break;
            }
            done += 1;
        }
        let secs = start.elapsed().as_secs_f64();
        if secs < best {
            best = secs;
            steps_done = done;
            messages = sim.dist_stats().zip(pre).map(|(post, pre)| {
                let steps = (post.steps - pre.steps).max(1) as f64;
                (
                    (post.frames - pre.frames) as f64 / steps,
                    (post.bytes - pre.bytes) as f64 / steps,
                )
            });
        }
    }
    (steps_done, best, messages)
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn record(out_path: &str, quick: bool, modes: &[&'static Mode]) {
    // (topology, timed budget): bigger worlds get smaller budgets so the
    // full sweep stays a few minutes. The quick sweep's ring384 cell uses
    // the *same* warmup/budget protocol as the committed baseline, so the
    // CI gate's joined pairs measure identical windows of the trajectory.
    // The tree/grid/power-law cells cover the dynamic-topology families at
    // the same scale; cells absent from the committed baseline are simply
    // skipped by the `--compare` join, never gated against nothing.
    type Cell = (String, Arc<sscc_hypergraph::Hypergraph>, u64);
    let cell = |label: &str, h: sscc_hypergraph::Hypergraph, budget: u64| -> Cell {
        (label.to_string(), Arc::new(h), budget)
    };
    let sweep: Vec<Cell> = if quick {
        vec![
            cell("ring96x2", generators::ring(96, 2), 1000),
            cell("ring384x2", generators::ring(384, 2), 3000),
            cell("tree384", generators::tree_pairs(384, 7), 1500),
            cell("grid16x24", generators::grid_pairs(16, 24), 1500),
            cell("powerlaw384", generators::power_law(384, 384, 7), 1500),
        ]
    } else {
        vec![
            cell("ring384x2", generators::ring(384, 2), 3000),
            cell("ring1536x2", generators::ring(1536, 2), 2400),
            cell("ring6144x2", generators::ring(6144, 2), 1000),
        ]
    };
    let warmup = 400;
    let reps = 4;

    let mut records: Vec<Record> = Vec::new();
    for (topology, h, budget) in &sweep {
        for algo in [AlgoKind::Cc1, AlgoKind::Cc2, AlgoKind::Cc3] {
            for mode in modes {
                let threads = mode.config.threads();
                let (steps, secs, messages) = measure(algo, h, mode, warmup, *budget, reps);
                let msg_note = messages.map_or(String::new(), |(frames, bytes)| {
                    format!("  ({frames:.2} frames/step, {bytes:.0} B/step)")
                });
                eprintln!(
                    "{:>4} {topology} {:>14} x{threads}: {:>12.0} steps/s{msg_note}",
                    algo.label(),
                    mode.name,
                    steps as f64 / secs
                );
                records.push(Record {
                    algo: algo.label(),
                    topology: topology.clone(),
                    n: h.n(),
                    mode: mode.name,
                    threads,
                    steps,
                    secs,
                    messages,
                });
            }
        }
    }

    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"engine_steps\",\n");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"warmup_steps\": {warmup},");
    let _ = writeln!(out, "  \"reps\": {reps},");
    let _ = writeln!(
        out,
        "  \"host_parallelism\": {},",
        std::thread::available_parallelism().map_or(0, |p| p.get())
    );
    out.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"algo\": \"{}\", \"topology\": \"{}\", \"n\": {}, \"mode\": \"{}\", \"threads\": {}, \"steps\": {}, \"secs\": {:.6}, \"steps_per_sec\": {:.1}",
            json_escape(r.algo),
            json_escape(&r.topology),
            r.n,
            r.mode,
            r.threads,
            r.steps,
            r.secs,
            r.steps_per_sec()
        );
        // Distributed modes carry their message-volume columns; the gate's
        // comparison parser ignores fields it does not know.
        if let Some((frames, bytes)) = r.messages {
            let _ = write!(
                out,
                ", \"msgs_per_step\": {frames:.3}, \"boundary_bytes_per_step\": {bytes:.1}"
            );
        }
        out.push('}');
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    // Speedup summary per (algo, topology): the headline numbers are the
    // new engine (parX) against the PR-1 sequential incremental baseline.
    // Emitted only when the sweep recorded every referenced mode (a
    // `--modes` subset may not have).
    out.push_str("  ],\n  \"speedups\": [\n");
    let mut lines = Vec::new();
    for (topo, _, _) in &sweep {
        for algo in ["CC1", "CC2", "CC3"] {
            let find = |mode: &str| {
                records
                    .iter()
                    .find(|r| r.algo == algo && &r.topology == topo && r.mode == mode)
                    .map(Record::steps_per_sec)
            };
            let (Some(full), Some(pr1), Some(par1), Some(par2), Some(par4)) = (
                find("full_scan"),
                find("incremental"),
                find("par1"),
                find("par2"),
                find("par4"),
            ) else {
                continue;
            };
            lines.push(format!(
                "    {{\"algo\": \"{algo}\", \"topology\": \"{topo}\", \
                 \"incremental_over_full_scan\": {:.2}, \
                 \"par1_over_sequential_incremental\": {:.2}, \
                 \"par2_over_sequential_incremental\": {:.2}, \
                 \"par4_over_sequential_incremental\": {:.2}}}",
                pr1 / full,
                par1 / pr1,
                par2 / pr1,
                par4 / pr1,
            ));
        }
    }
    out.push_str(&lines.join(",\n"));
    out.push_str(if lines.is_empty() {
        "  ]\n}\n"
    } else {
        "\n  ]\n}\n"
    });

    std::fs::write(out_path, out).expect("write bench record");
    eprintln!("wrote {out_path}");
}

fn compare(baseline_path: &str, fresh_path: &str, threshold: f64) -> i32 {
    let baseline = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("read {baseline_path}: {e}"));
    let fresh =
        std::fs::read_to_string(fresh_path).unwrap_or_else(|e| panic!("read {fresh_path}: {e}"));
    match bench_json::compare(&baseline, &fresh, threshold) {
        Ok(report) => {
            eprintln!(
                "compared {} (algo, topology, mode, threads) pairs against {baseline_path} \
                 (threshold -{:.0}%):",
                report.compared,
                threshold * 100.0
            );
            for line in &report.lines {
                eprintln!("  {line}");
            }
            if report.regressions.is_empty() {
                eprintln!("perf gate: OK");
                0
            } else {
                eprintln!(
                    "perf gate: {} steady-state throughput regression(s):",
                    report.regressions.len()
                );
                for line in &report.regressions {
                    eprintln!("  REGRESSED {line}");
                }
                1
            }
        }
        Err(e) => {
            eprintln!("perf gate: cannot compare: {e}");
            1
        }
    }
}

/// Measure the online-snapshot cost against steady-state step latency on
/// the ring1536 cell — the acceptance bound of the checkpoint layer: one
/// snapshot must cost **less than one step**, so a checkpoint-on-tick
/// service never loses more than one step's worth of throughput per
/// checkpoint. Exit 1 when any algorithm breaks the bound.
fn snapshot_cost() -> i32 {
    let h = Arc::new(generators::ring(1536, 2));
    let mut failures = 0;
    eprintln!("snapshot cost vs steady-state step latency (ring1536x2, par1):");
    for algo in [AlgoKind::Cc1, AlgoKind::Cc2, AlgoKind::Cc3] {
        let mut sim = build_sim(
            algo,
            Arc::clone(&h),
            7,
            PolicyKind::Eager { max_disc: 1 },
            Boot::Clean,
        );
        sim.configure_mode("par1").expect("registry mode");
        for _ in 0..400 {
            sim.step();
        }
        let budget = 1200u64;
        let start = Instant::now();
        for _ in 0..budget {
            sim.step();
        }
        let step_secs = start.elapsed().as_secs_f64() / budget as f64;
        // Prime one capture so the seal covers the warmup history — a
        // checkpoint-on-tick service seals incrementally from tick one —
        // then time captures at tick cadence (step, capture, repeat), the
        // shape of the real loop. The capture is the on-critical-path
        // part; the flat blob is assembled afterwards, off-path.
        let prime = sim.snapshot().expect("standard stack must snapshot");
        let mut flat = Vec::new();
        assert!(sim.save_state(&mut flat));
        assert_eq!(
            prime.to_bytes(),
            flat,
            "online snapshot must encode the save_state bytes"
        );
        let mut best = f64::INFINITY;
        let mut last = prime;
        for _ in 0..40 {
            sim.step();
            let start = Instant::now();
            last = sim.snapshot().expect("standard stack must snapshot");
            best = best.min(start.elapsed().as_secs_f64());
        }
        let bytes = last.to_bytes().len();
        let ok = best < step_secs;
        if !ok {
            failures += 1;
        }
        eprintln!(
            "  {:>4}: step {:>8.1} us, snapshot {:>8.1} us ({} bytes assembled) = {:.2}x/step {}",
            algo.label(),
            step_secs * 1e6,
            best * 1e6,
            bytes,
            best / step_secs,
            if ok { "OK" } else { "EXCEEDS one step" },
        );
    }
    if failures == 0 {
        eprintln!("snapshot gate: OK");
        0
    } else {
        eprintln!("snapshot gate: {failures} algorithm(s) exceed one step latency");
        1
    }
}

fn list_modes() {
    eprintln!("registered engine modes (the ModeRegistry; * = BENCH baseline sweep):");
    for m in ModeRegistry::all() {
        eprintln!(
            "  {}{:<15} x{}  {}",
            if m.baseline { "*" } else { " " },
            m.name,
            m.config.threads(),
            m.summary
        );
    }
    eprintln!("select with --modes a,b,c | --modes @baseline | --modes @all");
}

/// Resolve a `--modes` argument against the registry. Unknown names are
/// fatal: a typo'd mode silently skipped would un-gate a whole engine path.
fn resolve_modes(spec: &str) -> Vec<&'static Mode> {
    match spec {
        "@all" => ModeRegistry::all().iter().collect(),
        "@baseline" => ModeRegistry::baseline().collect(),
        list => list
            .split(',')
            .map(|name| {
                ModeRegistry::get(name.trim()).unwrap_or_else(|| {
                    let known: Vec<&str> = ModeRegistry::all().iter().map(|m| m.name).collect();
                    panic!(
                        "unknown engine mode '{name}' (registry: {}, plus @baseline/@all)",
                        known.join(", ")
                    )
                })
            })
            .collect(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--compare") {
        let baseline = args.get(1).expect("--compare BASELINE FRESH");
        let fresh = args.get(2).expect("--compare BASELINE FRESH");
        let threshold = match args.get(3).map(String::as_str) {
            Some("--threshold") => args
                .get(4)
                .and_then(|t| t.parse().ok())
                .expect("--threshold takes a fraction, e.g. 0.20"),
            None => 0.20,
            Some(other) => panic!("unknown argument {other}"),
        };
        std::process::exit(compare(baseline, fresh, threshold));
    }
    let mut quick = false;
    let mut modes: Vec<&'static Mode> = ModeRegistry::all().iter().collect();
    let mut out_path: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list-modes" => {
                list_modes();
                return;
            }
            "--snapshot-cost" => std::process::exit(snapshot_cost()),
            "--quick" => quick = true,
            "--modes" => {
                let spec = it.next().expect("--modes takes a,b,c | @baseline | @all");
                modes = resolve_modes(&spec);
            }
            flag if flag.starts_with("--") => panic!("unknown argument {flag}"),
            path => out_path = Some(path.to_string()),
        }
    }
    let default = if quick {
        "bench_ci.json"
    } else {
        "BENCH_5.json"
    };
    let out_path = out_path.unwrap_or_else(|| default.to_string());
    record(&out_path, quick, &modes);
}
