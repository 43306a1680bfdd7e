//! The metric tables: every name a later claim may use, with its unit, its
//! direction, and — for end-to-end metrics — the bound by which its median
//! may worsen before that is a regression. `BENCHMARK.json` at the
//! repository root is generated from these tables (`manifest` subcommand);
//! a unit test keeps the two in step.

use crate::workloads::WORKLOADS;

/// Whether a larger or a smaller value is the better one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a user of the system sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// A per-layer metric: a count, a time or a ratio of one layer.
pub struct PerLayer {
    /// `layer.metric` name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

use Better::{Higher, Lower};

/// Seconds one run measures for (`run_seconds`).
pub const RUN_SECONDS: u64 = 8;

/// The end-to-end metrics, measured with tracing off, on every workload.
#[rustfmt::skip]
pub const END_TO_END: [EndToEnd; 11] = [
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
    EndToEnd { name: "steps_per_s", unit: "1/s", better: Higher, bound: 0.25 },
    EndToEnd { name: "convenes_per_s", unit: "1/s", better: Higher, bound: 0.25 },
    EndToEnd { name: "goodput_rps", unit: "1/s", better: Higher, bound: 0.25 },
    EndToEnd { name: "sojourn_p50_us", unit: "us", better: Lower, bound: 0.25 },
    EndToEnd { name: "sojourn_p99_us", unit: "us", better: Lower, bound: 0.25 },
    EndToEnd { name: "sojourn_mean_ticks", unit: "ticks", better: Lower, bound: 0.20 },
    EndToEnd { name: "sojourn_p99_ticks", unit: "ticks", better: Lower, bound: 0.20 },
    EndToEnd { name: "ckpt_p50_us", unit: "us", better: Lower, bound: 0.25 },
    EndToEnd { name: "restore_p50_ms", unit: "ms", better: Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Lower, bound: 0.08 },
];

macro_rules! per_layer {
    ($(($name:literal, $unit:literal, $better:ident)),* $(,)?) => {
        [$(PerLayer { name: $name, unit: $unit, better: $better }),*]
    };
}

/// The per-layer metrics, from the traced run and the probes next to it.
/// Every traced run prints all of them; one that does not apply to the
/// workload reads 0.
pub const PER_LAYER: [PerLayer; 69] = per_layer![
    ("trace_overhead_ratio", "ratio", Lower),
    ("trace_coverage", "ratio", Higher),
    ("step_p99_us", "us", Lower),
    ("runtime.invalidate_ns_per_step", "ns", Lower),
    ("runtime.refresh_ns_per_step", "ns", Lower),
    ("runtime.select_commit_ns_per_step", "ns", Lower),
    ("runtime.daemon_ns_per_step", "ns", Lower),
    ("runtime.rounds_ns_per_step", "ns", Lower),
    ("runtime.dirty_per_step", "count", Lower),
    ("runtime.enabled_per_step", "count", Higher),
    ("runtime.executed_per_step", "count", Higher),
    ("runtime.flips_per_dirty", "ratio", Higher),
    ("core.guard_eval_ns", "ns", Lower),
    ("core.ledger_ns_per_step", "ns", Lower),
    ("core.monitor_ns_per_step", "ns", Lower),
    ("core.policy_ns_per_step", "ns", Lower),
    ("core.mirror_ns_per_step", "ns", Lower),
    ("core.step_ns_per_step", "ns", Lower),
    ("core.convenes_per_step", "count", Higher),
    ("core.touched_edges_per_step", "count", Lower),
    ("core.flag_flips_per_step", "count", Lower),
    ("core.terminal_step_ratio", "ratio", Lower),
    ("core.history_bytes_per_convene", "B", Lower),
    ("core.drift_ratio", "ratio", Higher),
    ("core.strike_us", "us", Lower),
    ("core.mutate_us", "us", Lower),
    ("core.snapshot_us", "us", Lower),
    ("core.save_state_us", "us", Lower),
    ("token.action_share", "ratio", Lower),
    ("token.wave_step_ns", "ns", Lower),
    ("token.circulation_steps", "steps", Lower),
    ("dist.step_ns_per_step", "ns", Lower),
    ("dist.transport_ns_per_step", "ns", Lower),
    ("dist.frames_per_step", "count", Lower),
    ("dist.bytes_per_step", "B", Lower),
    ("dist.encode_ns_per_frame", "ns", Lower),
    ("dist.decode_ns_per_frame", "ns", Lower),
    ("dist.overhead_ns_per_step", "ns", Lower),
    ("persist.capture_us", "us", Lower),
    ("persist.encode_us", "us", Lower),
    ("persist.decode_us", "us", Lower),
    ("persist.restore_ms", "ms", Lower),
    ("persist.bytes", "B", Lower),
    ("persist.bytes_per_process", "B", Lower),
    ("hypergraph.generate_ms", "ms", Lower),
    ("hypergraph.apply_mutation_us", "us", Lower),
    ("hypergraph.max_degree", "count", Lower),
    ("hypergraph.mean_footprint", "count", Lower),
    ("service.poll_ns_per_tick", "ns", Lower),
    ("service.admit_ns_per_tick", "ns", Lower),
    ("service.complete_ns_per_tick", "ns", Lower),
    ("service.overhead_ns_per_tick", "ns", Lower),
    ("service.arrivals_per_tick", "1/tick", Higher),
    ("service.admitted_per_tick", "1/tick", Higher),
    ("service.coalesce_ratio", "ratio", Lower),
    ("service.queue_wait_p99_ticks", "ticks", Lower),
    ("service.mean_queue_depth", "count", Lower),
    ("service.max_queue_depth", "count", Lower),
    ("service.shed", "count", Lower),
    ("service.p99_ticks_at_rate_1", "ticks", Lower),
    ("service.p99_ticks_at_rate_2", "ticks", Lower),
    ("service.p99_ticks_at_rate_4", "ticks", Lower),
    ("service.p99_ticks_at_rate_8", "ticks", Lower),
    ("service.max_rate_ok_pct", "%", Higher),
    ("metrics.recovery_max_steps", "steps", Lower),
    ("metrics.recovery_mean_steps", "steps", Lower),
    ("metrics.faults_injected", "count", Higher),
    ("metrics.mutations_applied", "count", Higher),
    ("metrics.mutations_rejected", "count", Lower),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s += "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n";
    s += "  \"paths\": [\"benchmark\"],\n";
    s += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    s += "  \"workloads\": [\n";
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    s += &rows.join(",\n");
    s += "\n  ],\n  \"end_to_end\": [\n";
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.label(),
                m.bound
            )
        })
        .collect();
    s += &rows.join(",\n");
    s += "\n  ],\n  \"per_layer\": [\n";
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.label()
            )
        })
        .collect();
    s += &rows.join(",\n");
    s += "\n  ]\n}\n";
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('"')));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json(), "regenerate with `manifest`");
    }
}
