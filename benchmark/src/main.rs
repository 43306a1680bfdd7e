//! Sustained benchmark of the SSCC workspace: six workloads, end-to-end
//! metrics with stated bounds, and a phase-split traced run that says where
//! a step's time goes. See `README.md` next to this package.
//!
//! ```text
//! sscc-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! sscc-benchmark all    [--seed N] [--seconds S]   every workload, both passes, cross-checks
//! sscc-benchmark repeat [--seed N] [--seconds S]   the untraced set twice, differences vs bounds
//! sscc-benchmark manifest                          the text of BENCHMARK.json
//! ```

mod manifest;
mod probes;
mod replica;
mod runner;
mod spans;
mod stats;
mod workloads;
mod wrappers;

#[cfg(test)]
mod tests;

use manifest::{Better, END_TO_END, PER_LAYER, RUN_SECONDS};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use workloads::WORKLOADS;

/// Default `--seed`.
const DEFAULT_SEED: u64 = 7;

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "all" | "repeat" | "manifest" if args.command.is_none() => args.command = Some(a),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err(format!("--seconds {} is outside (0, 60]", args.seconds));
    }
    Ok(args)
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: sscc-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       sscc-benchmark all|repeat [--seed N] [--seconds S]\n       sscc-benchmark manifest",
        names.join("|")
    )
}

/// One workload, one pass, in this process.
fn run_one(name: &str, args: &Args) -> ExitCode {
    let Some(spec) = workloads::spec(name) else {
        eprintln!("unknown workload {name}\n{}", usage());
        return ExitCode::from(2);
    };
    println!(
        "info {} seed {} seconds {} trace {}: {}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        spec.why
    );
    let report = if args.trace {
        let r = runner::run_traced(spec, args.seed, args.seconds);
        runner::print(&r, PER_LAYER.iter().map(|m| m.name));
        r
    } else {
        let r = runner::run_untraced(spec, args.seed, args.seconds);
        runner::print(&r, END_TO_END.iter().map(|m| m.name));
        r
    };
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What the parent reads back from a child run's output.
#[derive(Default)]
struct ChildRun {
    ok: bool,
    metrics: BTreeMap<String, f64>,
    digests: BTreeMap<String, String>,
    failed_checks: Vec<String>,
}

/// Run one workload in a child process of its own (its peak RSS and its
/// thread count are then its own) and echo its output, indented.
fn run_child(name: &str, args: &Args, trace: bool) -> ChildRun {
    let exe = std::env::current_exe().expect("own executable path");
    let out = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("child process starts");
    let mut run = ChildRun {
        ok: out.status.success(),
        ..ChildRun::default()
    };
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["metric", name, value, ..] => {
                println!("    {line}");
                if let Ok(v) = value.parse() {
                    run.metrics.insert((*name).to_string(), v);
                }
            }
            ["digest", label, hex] => {
                println!("    {line}");
                run.digests.insert((*label).to_string(), (*hex).to_string());
            }
            ["check", name, verdict, ..] => {
                println!("    {line}");
                if *verdict != "ok" {
                    run.failed_checks.push((*name).to_string());
                }
            }
            // The JSON line is for the driver; the parent has the rest.
            [first, ..] if first.starts_with('{') => {}
            _ => println!("    {line}"),
        }
    }
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !stderr.trim().is_empty() {
        println!("    stderr: {}", stderr.trim());
    }
    run
}

/// Every workload, untraced then traced, each in its own child process;
/// then the checks that span runs.
fn run_all(args: &Args) -> ExitCode {
    let mut failures = Vec::new();
    let mut untraced = BTreeMap::new();
    let mut traced = BTreeMap::new();
    for w in &WORKLOADS {
        for trace in [false, true] {
            println!("== {} --trace {}", w.name, u8::from(trace));
            let run = run_child(w.name, args, trace);
            if !run.ok {
                failures.push(format!(
                    "{} --trace {}: exit status (failed checks: {:?})",
                    w.name,
                    u8::from(trace),
                    run.failed_checks
                ));
            }
            if trace { &mut traced } else { &mut untraced }.insert(w.name, run);
        }
    }
    println!("== checks across runs");
    let mark = |runs: &BTreeMap<&str, ChildRun>, w: &str| {
        runs.get(w).and_then(|r| r.digests.get("mark").cloned())
    };
    for w in &WORKLOADS {
        let (a, b) = (mark(&untraced, w.name), mark(&traced, w.name));
        let ok = a.is_some() && a == b;
        println!(
            "check {}.untraced_equals_traced {} {a:?} vs {b:?}",
            w.name,
            if ok { "ok" } else { "FAIL" }
        );
        if !ok {
            failures.push(format!("{}: untraced and traced digests differ", w.name));
        }
    }
    for w in &WORKLOADS {
        let Some((other, _)) = w.same_trajectory_as else {
            continue;
        };
        let (a, b) = (mark(&untraced, w.name), mark(&untraced, other));
        let ok = a.is_some() && a == b;
        println!(
            "check {}.equals_{other} {} {a:?} vs {b:?}",
            w.name,
            if ok { "ok" } else { "FAIL" }
        );
        if !ok {
            failures.push(format!("{} and {other} digests differ", w.name));
        }
    }

    println!(
        "== end-to-end metrics (seed {}, {} s)",
        args.seed, args.seconds
    );
    print!("{:<20}{:>7}", "metric", "unit");
    for w in &WORKLOADS {
        print!("{:>15}", w.name);
    }
    println!();
    for m in &END_TO_END {
        print!("{:<20}{:>7}", m.name, m.unit);
        for w in &WORKLOADS {
            match untraced.get(w.name).and_then(|r| r.metrics.get(m.name)) {
                Some(v) => print!("{v:>15.3}"),
                None => print!("{:>15}", "-"),
            }
        }
        println!();
    }
    if failures.is_empty() {
        println!("all checks hold");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            println!("FAILED {f}");
        }
        ExitCode::FAILURE
    }
}

/// The untraced set twice; per metric and workload, the relative difference
/// between the two runs against the metric's bound.
fn run_repeat(args: &Args) -> ExitCode {
    let mut sets = Vec::new();
    for set in ["A", "B"] {
        let mut runs = BTreeMap::new();
        for w in &WORKLOADS {
            println!("== set {set}: {}", w.name);
            runs.insert(w.name, run_child(w.name, args, false));
        }
        sets.push(runs);
    }
    let threads = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "== run-to-run difference, same code, same seed ({} s, seed {}, nproc {threads}, all load on one thread)",
        args.seconds, args.seed
    );
    println!(
        "{:<15}{:<20}{:>14}{:>14}{:>9}{:>7}",
        "workload", "metric", "A", "B", "diff", "bound"
    );
    let mut excess = 0;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let get = |i: usize| sets[i].get(w.name).and_then(|r| r.metrics.get(m.name));
            let (Some(&a), Some(&b)) = (get(0), get(1)) else {
                println!("{:<15}{:<20} missing", w.name, m.name);
                excess += 1;
                continue;
            };
            // Worse-by, as the driver measures it: positive when B is the
            // worse of the two; the bound applies to either direction.
            let worse_by = match m.better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            let over = worse_by.abs() > m.bound;
            excess += usize::from(over);
            println!(
                "{:<15}{:<20}{a:>14.3}{b:>14.3}{:>8.1}%{:>6.0}%{}",
                w.name,
                m.name,
                worse_by * 100.0,
                m.bound * 100.0,
                if over { "  EXCESS" } else { "" }
            );
        }
    }
    let failed = sets.iter().flat_map(|s| s.values()).any(|r| !r.ok);
    if excess == 0 && !failed {
        println!("every difference is within its bound");
        ExitCode::SUCCESS
    } else {
        println!("{excess} differences over their bound; a run failed: {failed}");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match (args.command.as_deref(), args.workload.as_deref()) {
        (None, Some(name)) => run_one(name, &args),
        (Some("all"), None) => run_all(&args),
        (Some("repeat"), None) => run_repeat(&args),
        (Some("manifest"), None) => {
            print!("{}", manifest::benchmark_json());
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
    }
}
