//! Records the open-loop serving trajectory — per-request sojourn
//! quantiles, convene throughput and queue depth for a
//! [`CoordinationService`](sscc_service::CoordinationService) under the
//! deterministic arrival processes — and gates CI against tail latency
//! regressions.
//!
//! ```sh
//! # Full trajectory recording (rings n=384/1536, every arrival process):
//! cargo run -p sscc-bench --release --bin bench_latency       # BENCH_latency.json
//! cargo run -p sscc-bench --release --bin bench_latency -- out.json
//!
//! # CI smoke (rings n=96/384; the ring384 cells use the same protocol as
//! # the committed baseline, so the gate joins on identical trajectories):
//! cargo run -p sscc-bench --release --bin bench_latency -- \
//!     --quick --modes par1,daemon bench_latency_ci.json
//!
//! # Regression gate: exit 1 if any (algo, topology, mode, arrival) pair in
//! # FRESH has a p99 sojourn more than THRESHOLD (default 0.10) above
//! # BASELINE:
//! cargo run -p sscc-bench --release --bin bench_latency -- \
//!     --compare BENCH_latency.json bench_latency_ci.json --threshold 0.10
//! ```
//!
//! Everything the gate compares is measured in **service ticks** (one tick
//! = one poll/admit/step cycle), which are a pure function of the seed:
//! the same cell re-run on any host produces the same quantiles, so the
//! gate only ever trips on behavioral changes, never on CI-host noise.
//! Wall-clock throughput is recorded too, but as information, not gated.

use sscc_bench::bench_json;
use sscc_hypergraph::generators;
use sscc_service::{cc1_service, Arrivals, OverloadPolicy, ServiceConfig, TrafficGen};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// The arrival-process sweep for a topology of `n` professors. Rates scale
/// with `n` so every ring runs at a comparable per-professor load (~2% of
/// the professors request per tick; the burst peaks at 6%).
fn arrival_sweep(n: usize) -> Vec<(&'static str, Arrivals)> {
    let base = 0.02 * n as f64;
    vec![
        ("poisson", Arrivals::Poisson { rate: base }),
        (
            "bursty",
            Arrivals::Bursty {
                rate_on: 3.0 * base,
                rate_off: 0.1 * base,
                on_len: 200,
                off_len: 600,
            },
        ),
        (
            "hotspot",
            Arrivals::Hotspot {
                rate: base,
                hot_fraction: 0.8,
            },
        ),
    ]
}

struct Record {
    topology: String,
    n: usize,
    mode: String,
    arrival: &'static str,
    ticks: u64,
    accepted: u64,
    shed: u64,
    coalesced: u64,
    completed: u64,
    convenes: u64,
    p50: u64,
    p99: u64,
    p999: u64,
    mean: f64,
    max: u64,
    max_queue_depth: usize,
    mean_queue_depth: f64,
    secs: f64,
}

/// Run one cell: a fresh CC1 service on `h` under `arrivals` for `ticks`
/// service ticks, Shed overload (so the queue — and with it the sojourns —
/// stays bounded even if a cell is provisioned past saturation).
fn measure(
    h: &Arc<sscc_hypergraph::Hypergraph>,
    topology: &str,
    mode: &str,
    arrival: &'static str,
    arrivals: Arrivals,
    ticks: u64,
) -> Record {
    let seed = 7;
    let gen = TrafficGen::new(h, seed, arrivals, ticks);
    let cfg = ServiceConfig {
        queue_capacity: 4096,
        overload: OverloadPolicy::Shed,
        ..ServiceConfig::default()
    };
    let mut svc = cc1_service(Arc::clone(h), seed, 1, mode, Box::new(gen), cfg)
        .unwrap_or_else(|e| panic!("mode {mode} must validate: {e}"));
    let start = Instant::now();
    svc.run(ticks);
    let secs = start.elapsed().as_secs_f64();
    let stats = *svc.stats();
    let sum = svc
        .latency_summary()
        .unwrap_or_else(|| panic!("cell {topology}/{mode}/{arrival} completed no requests"));
    Record {
        topology: topology.to_string(),
        n: h.n(),
        mode: mode.to_string(),
        arrival,
        ticks,
        accepted: stats.accepted,
        shed: stats.shed,
        coalesced: stats.coalesced,
        completed: stats.completed,
        convenes: svc.sim().ledger().convened_count() as u64,
        p50: sum.p50,
        p99: sum.p99,
        p999: sum.p999,
        mean: sum.mean,
        max: sum.max,
        max_queue_depth: stats.max_queue_depth,
        mean_queue_depth: stats.queue_depth_sum as f64 / ticks as f64,
        secs,
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn record(out_path: &str, quick: bool, modes: &[String]) {
    // (topology, service ticks): the ring384 cell is identical between the
    // quick and full sweeps so CI's quick run joins the committed baseline
    // on byte-identical trajectories. The tree/grid/power-law cells serve
    // the dynamic-topology families at the same scale; cells without a
    // committed baseline are skipped by the `--compare` join.
    type Cell = (String, Arc<sscc_hypergraph::Hypergraph>, u64);
    let cell = |label: &str, h: sscc_hypergraph::Hypergraph, ticks: u64| -> Cell {
        (label.to_string(), Arc::new(h), ticks)
    };
    let sweep: Vec<Cell> = if quick {
        vec![
            cell("ring96x2", generators::ring(96, 2), 4000),
            cell("ring384x2", generators::ring(384, 2), 6000),
            cell("tree384", generators::tree_pairs(384, 7), 4000),
            cell("grid16x24", generators::grid_pairs(16, 24), 4000),
            cell("powerlaw384", generators::power_law(384, 384, 7), 4000),
        ]
    } else {
        vec![
            cell("ring384x2", generators::ring(384, 2), 6000),
            cell("ring1536x2", generators::ring(1536, 2), 6000),
        ]
    };

    let mut records: Vec<Record> = Vec::new();
    for (topology, h, ticks) in &sweep {
        let ticks = *ticks;
        for mode in modes {
            for (arrival, arrivals) in arrival_sweep(h.n()) {
                let r = measure(h, topology, mode, arrival, arrivals, ticks);
                eprintln!(
                    " CC1 {topology} {mode:>10} {arrival:<8}: p50 {:>5} p99 {:>5} p99.9 {:>5} ticks, \
                     {} completed, {:>9.0} ticks/s",
                    r.p50,
                    r.p99,
                    r.p999,
                    r.completed,
                    r.ticks as f64 / r.secs
                );
                records.push(r);
            }
        }
    }

    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"service_latency\",\n");
    let _ = writeln!(out, "  \"quick\": {quick},");
    out.push_str("  \"algo\": \"CC1\",\n");
    out.push_str("  \"seed\": 7,\n");
    out.push_str("  \"max_disc\": 1,\n");
    out.push_str("  \"queue_capacity\": 4096,\n");
    out.push_str("  \"overload\": \"shed\",\n");
    let _ = writeln!(
        out,
        "  \"host_parallelism\": {},",
        std::thread::available_parallelism().map_or(0, |p| p.get())
    );
    out.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"algo\": \"CC1\", \"topology\": \"{}\", \"n\": {}, \"mode\": \"{}\", \
             \"arrival\": \"{}\", \"ticks\": {}, \"accepted\": {}, \"shed\": {}, \
             \"coalesced\": {}, \"completed\": {}, \"convenes\": {}, \
             \"p50_ticks\": {}, \"p99_ticks\": {}, \"p999_ticks\": {}, \
             \"mean_ticks\": {:.2}, \"max_ticks\": {}, \"max_queue_depth\": {}, \
             \"mean_queue_depth\": {:.2}, \"secs\": {:.6}, \"ticks_per_sec\": {:.1}}}",
            json_escape(&r.topology),
            r.n,
            json_escape(&r.mode),
            r.arrival,
            r.ticks,
            r.accepted,
            r.shed,
            r.coalesced,
            r.completed,
            r.convenes,
            r.p50,
            r.p99,
            r.p999,
            r.mean,
            r.max,
            r.max_queue_depth,
            r.mean_queue_depth,
            r.secs,
            r.ticks as f64 / r.secs,
        );
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");

    std::fs::write(out_path, out).expect("write latency record");
    eprintln!("wrote {out_path}");
}

fn compare(baseline_path: &str, fresh_path: &str, threshold: f64) -> i32 {
    let baseline = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("read {baseline_path}: {e}"));
    let fresh =
        std::fs::read_to_string(fresh_path).unwrap_or_else(|e| panic!("read {fresh_path}: {e}"));
    match bench_json::compare_latency(&baseline, &fresh, threshold) {
        Ok(report) => {
            eprintln!(
                "compared {} (algo, topology, mode, arrival) pairs against {baseline_path} \
                 (threshold +{:.0}%):",
                report.compared,
                threshold * 100.0
            );
            for line in &report.lines {
                eprintln!("  {line}");
            }
            if report.regressions.is_empty() {
                eprintln!("latency gate: OK");
                0
            } else {
                eprintln!(
                    "latency gate: {} p99 sojourn regression(s):",
                    report.regressions.len()
                );
                for line in &report.regressions {
                    eprintln!("  REGRESSED {line}");
                }
                1
            }
        }
        Err(e) => {
            eprintln!("latency gate: cannot compare: {e}");
            1
        }
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
                .expect("--threshold takes a fraction, e.g. 0.10"),
            None => 0.10,
            Some(other) => panic!("unknown argument {other}"),
        };
        std::process::exit(compare(baseline, fresh, threshold));
    }
    let mut quick = false;
    // The default pair spans the engine's two serving configurations of
    // interest: the parallel workhorse and the incremental-daemon path.
    let mut modes: Vec<String> = vec!["par1".into(), "daemon".into()];
    let mut out_path: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--modes" => {
                let spec = it.next().expect("--modes takes a,b,c");
                modes = spec.split(',').map(|s| s.trim().to_string()).collect();
            }
            flag if flag.starts_with("--") => panic!("unknown argument {flag}"),
            path => out_path = Some(path.to_string()),
        }
    }
    let default = if quick {
        "bench_latency_ci.json"
    } else {
        "BENCH_latency.json"
    };
    let out_path = out_path.unwrap_or_else(|| default.to_string());
    record(&out_path, quick, &modes);
}
