//! Order statistics, the trajectory digest and the `/proc` probes.

use sscc_core::MeetingLedger;

/// Nearest-rank quantile of an ascending slice (the rule
/// `LatencySnapshot::quantile` uses, so harness and service histograms can
/// be compared for equality). Panics on an empty slice.
pub fn quantile<T: Copy>(sorted: &[T], q: f64) -> T {
    let n = sorted.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Median of unsorted values (mean of the two middle ones for even counts).
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)` — the rule the driver applies to the
/// ten-seed spread. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        // Cut point i of 4 sits at position i*(n+1)/4 (1-based), linearly
        // interpolated; at the ends Python extrapolates from the outermost
        // pair, hence the signed offset.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Rate of each chunk (`chunk_len` calls in `ns` nanoseconds), per second.
pub fn chunk_rates(chunk_ns: &[u64], chunk_len: u64) -> Vec<f64> {
    chunk_ns
        .iter()
        .map(|&ns| chunk_len as f64 * 1e9 / ns.max(1) as f64)
        .collect()
}

/// Trajectory digest: FNV-1a 64 of the ledger's wire encoding followed by
/// the step count.
pub fn digest(ledger: &MeetingLedger, steps: u64) -> u64 {
    let mut bytes = Vec::new();
    ledger.save_state(&mut bytes);
    bytes.extend_from_slice(&steps.to_le_bytes());
    sscc_persist::fnv1a64(&bytes)
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), in kB.
/// `0` where the file or the field is missing (non-Linux hosts).
pub fn proc_status_kb(field: &str) -> u64 {
    proc_status(field)
        .and_then(|v| v.trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Threads alive in this process (`Threads:` of `/proc/self/status`).
pub fn threads_alive() -> u64 {
    proc_status("Threads")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

fn proc_status(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| {
        let rest = l.strip_prefix(field)?.strip_prefix(':')?;
        Some(rest.trim().to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v = [1u64, 3, 5, 7, 9];
        assert_eq!(quantile(&v, 0.0), 1);
        assert_eq!(quantile(&v, 0.5), 5);
        assert_eq!(quantile(&v, 0.99), 9);
        assert_eq!(quantile(&v, 1.0), 9);
        let many: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&many, 0.99), 990);
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[10.0, 20.0, 30.0]), (10.0, 30.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn chunk_rates_are_per_second() {
        assert_eq!(
            chunk_rates(&[500_000_000, 250_000_000], 1000),
            [2000.0, 4000.0]
        );
    }
}
