//! Reading and regression-gating the `BENCH_*.json` trajectory records.
//!
//! The build environment has no crates.io access (no `serde`), and the
//! bench records are machine-written with a small fixed shape, so a ~100
//! line recursive-descent JSON reader is all the parsing this needs. The
//! interesting part is [`compare`]: the CI perf gate that diffs a fresh run
//! against the committed baseline and fails on steady-state throughput
//! regressions.

use std::collections::BTreeMap;

/// A parsed JSON value (just enough for the bench records).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always read as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion order is irrelevant to the gate).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parse a JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            at: 0,
        };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.at != p.b.len() {
            return Err(format!("trailing garbage at byte {}", p.at));
        }
        Ok(v)
    }

    /// Member `key` of an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.b.get(self.at).is_some_and(|c| c.is_ascii_whitespace()) {
            self.at += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.b.get(self.at) == Some(&c) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.b.get(self.at) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.b[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.at))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while self
            .b
            .get(self.at)
            .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.at += 1;
        }
        std::str::from_utf8(&self.b[start..self.at])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.at) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    let esc = *self.b.get(self.at).ok_or("unterminated escape")?;
                    self.at += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.at += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        c => return Err(format!("bad escape '\\{}'", c as char)),
                    }
                }
                Some(&c) => {
                    // Multi-byte UTF-8 passes through unchanged.
                    let len = match c {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let s = self
                        .b
                        .get(self.at..self.at + len)
                        .and_then(|b| std::str::from_utf8(b).ok())
                        .ok_or("bad utf-8 in string")?;
                    out.push_str(s);
                    self.at += len;
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut m = BTreeMap::new();
        self.ws();
        if self.b.get(self.at) == Some(&b'}') {
            self.at += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            m.insert(k, self.value()?);
            self.ws();
            match self.b.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut v = Vec::new();
        self.ws();
        if self.b.get(self.at) == Some(&b']') {
            self.at += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            self.ws();
            v.push(self.value()?);
            self.ws();
            match self.b.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
            }
        }
    }
}

/// One steady-state throughput record, keyed by
/// `(algo, topology, mode, threads)`.
#[derive(Clone, Debug, PartialEq)]
pub struct ThroughputRecord {
    /// Algorithm label (`CC1`/`CC2`/`CC3`).
    pub algo: String,
    /// Topology label (`ring384x2`, …).
    pub topology: String,
    /// Engine mode (`full_scan`, `incremental`, `par4`, …).
    pub mode: String,
    /// Drain worker threads.
    pub threads: u64,
    /// Steady-state steps per second.
    pub steps_per_sec: f64,
}

impl ThroughputRecord {
    fn key(&self) -> (String, String, String, u64) {
        (
            self.algo.clone(),
            self.topology.clone(),
            self.mode.clone(),
            self.threads,
        )
    }
}

/// Extract the `records` array of a `BENCH_*.json` document.
pub fn records_of(doc: &str) -> Result<Vec<ThroughputRecord>, String> {
    let root = Json::parse(doc)?;
    let records = root
        .get("records")
        .and_then(Json::as_arr)
        .ok_or("no \"records\" array")?;
    records
        .iter()
        .map(|r| {
            Ok(ThroughputRecord {
                algo: r
                    .get("algo")
                    .and_then(Json::as_str)
                    .ok_or("record without algo")?
                    .to_string(),
                topology: r
                    .get("topology")
                    .and_then(Json::as_str)
                    .ok_or("record without topology")?
                    .to_string(),
                mode: r
                    .get("mode")
                    .and_then(Json::as_str)
                    .ok_or("record without mode")?
                    .to_string(),
                threads: r.get("threads").and_then(Json::as_num).unwrap_or(1.0) as u64,
                steps_per_sec: r
                    .get("steps_per_sec")
                    .and_then(Json::as_num)
                    .ok_or("record without steps_per_sec")?,
            })
        })
        .collect()
}

/// Outcome of a baseline/fresh comparison.
#[derive(Clone, Debug, Default)]
pub struct CompareReport {
    /// One line per joined `(algo, topology, mode, threads)` pair.
    pub lines: Vec<String>,
    /// The pairs whose fresh throughput regressed beyond the threshold.
    pub regressions: Vec<String>,
    /// How many pairs were compared.
    pub compared: usize,
}

/// Diff `fresh` against `baseline`: every record sharing a
/// `(algo, topology, mode, threads)` key is compared, and a pair regresses
/// when the fresh steady-state steps/sec drops more than `threshold`
/// (e.g. `0.2` = 20%) below the baseline. An empty join is an error — a
/// gate that never compares anything would pass vacuously.
pub fn compare(baseline: &str, fresh: &str, threshold: f64) -> Result<CompareReport, String> {
    let base = records_of(baseline)?;
    let new = records_of(fresh)?;
    let index: BTreeMap<_, &ThroughputRecord> = base.iter().map(|r| (r.key(), r)).collect();
    let mut report = CompareReport::default();
    for r in &new {
        let Some(b) = index.get(&r.key()) else {
            continue;
        };
        report.compared += 1;
        let ratio = r.steps_per_sec / b.steps_per_sec;
        let line = format!(
            "{:>4} {:<10} {:<12} x{}: {:>12.0} -> {:>12.0} steps/s ({:+.1}%)",
            r.algo,
            r.topology,
            r.mode,
            r.threads,
            b.steps_per_sec,
            r.steps_per_sec,
            (ratio - 1.0) * 100.0
        );
        if ratio < 1.0 - threshold {
            report.regressions.push(line.clone());
        }
        report.lines.push(line);
    }
    if report.compared == 0 {
        return Err("no overlapping (algo, topology, mode, threads) records".into());
    }
    Ok(report)
}

/// One open-loop latency record, keyed by `(algo, topology, mode, arrival)`.
///
/// Sojourns are measured in **service ticks**, which are deterministic in
/// the seed — the p99 gate compares exact trajectories, not wall clock, so
/// it does not flake on loaded CI hosts.
#[derive(Clone, Debug, PartialEq)]
pub struct LatencyRecord {
    /// Algorithm label (`CC1`, …).
    pub algo: String,
    /// Topology label (`ring1536x2`, …).
    pub topology: String,
    /// Engine mode (`par1`, `daemon`, …).
    pub mode: String,
    /// Arrival-process label (`poisson`, `bursty`, `hotspot`).
    pub arrival: String,
    /// Completed (timed) requests.
    pub completed: f64,
    /// 99th-percentile sojourn in ticks.
    pub p99_ticks: f64,
}

impl LatencyRecord {
    fn key(&self) -> (String, String, String, String) {
        (
            self.algo.clone(),
            self.topology.clone(),
            self.mode.clone(),
            self.arrival.clone(),
        )
    }
}

/// Extract the `records` array of a `BENCH_latency.json` document.
pub fn latency_records_of(doc: &str) -> Result<Vec<LatencyRecord>, String> {
    let root = Json::parse(doc)?;
    let records = root
        .get("records")
        .and_then(Json::as_arr)
        .ok_or("no \"records\" array")?;
    records
        .iter()
        .map(|r| {
            let field = |k: &str| {
                r.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("record without {k}"))
            };
            Ok(LatencyRecord {
                algo: field("algo")?,
                topology: field("topology")?,
                mode: field("mode")?,
                arrival: field("arrival")?,
                completed: r
                    .get("completed")
                    .and_then(Json::as_num)
                    .ok_or("record without completed")?,
                p99_ticks: r
                    .get("p99_ticks")
                    .and_then(Json::as_num)
                    .ok_or("record without p99_ticks")?,
            })
        })
        .collect()
}

/// The latency gate: every record sharing an `(algo, topology, mode,
/// arrival)` key is compared, and a pair regresses when the fresh p99
/// sojourn rises more than `threshold` above the baseline (with one tick
/// of absolute slack so tiny-latency cells cannot regress on a ±1-tick
/// quantile wobble). Higher-is-worse, the mirror image of [`compare`];
/// an empty join is still an error.
pub fn compare_latency(
    baseline: &str,
    fresh: &str,
    threshold: f64,
) -> Result<CompareReport, String> {
    let base = latency_records_of(baseline)?;
    let new = latency_records_of(fresh)?;
    let index: BTreeMap<_, &LatencyRecord> = base.iter().map(|r| (r.key(), r)).collect();
    let mut report = CompareReport::default();
    for r in &new {
        let Some(b) = index.get(&r.key()) else {
            continue;
        };
        report.compared += 1;
        let ratio = r.p99_ticks / b.p99_ticks;
        let line = format!(
            "{:>4} {:<11} {:<10} {:<8}: p99 {:>7.0} -> {:>7.0} ticks ({:+.1}%), {} completed",
            r.algo,
            r.topology,
            r.mode,
            r.arrival,
            b.p99_ticks,
            r.p99_ticks,
            (ratio - 1.0) * 100.0,
            r.completed,
        );
        if ratio > 1.0 + threshold && r.p99_ticks > b.p99_ticks + 1.0 {
            report.regressions.push(line.clone());
        }
        report.lines.push(line);
    }
    if report.compared == 0 {
        return Err("no overlapping (algo, topology, mode, arrival) records".into());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(rows: &[(&str, &str, &str, u64, f64)]) -> String {
        let records: Vec<String> = rows
            .iter()
            .map(|(a, t, m, th, s)| {
                format!(
                    "{{\"algo\": \"{a}\", \"topology\": \"{t}\", \"mode\": \"{m}\", \
                     \"threads\": {th}, \"steps\": 100, \"steps_per_sec\": {s}}}"
                )
            })
            .collect();
        format!(
            "{{\"bench\": \"engine_steps\",\n \"records\": [{}]}}",
            records.join(",")
        )
    }

    #[test]
    fn parses_nested_values() {
        let v = Json::parse(r#"{"a": [1, -2.5e1, "x\ny"], "b": {"c": true}}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[1].as_num(),
            Some(-25.0)
        );
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_str(),
            Some("x\ny")
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Bool(true)));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
    }

    #[test]
    fn extracts_records() {
        let d = doc(&[("CC2", "ring384x2", "par4", 4, 12345.6)]);
        let rs = records_of(&d).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].algo, "CC2");
        assert_eq!(rs[0].threads, 4);
        assert!((rs[0].steps_per_sec - 12345.6).abs() < 1e-9);
    }

    #[test]
    fn flags_regressions_beyond_threshold() {
        let base = doc(&[
            ("CC2", "ring384x2", "incremental", 1, 10_000.0),
            ("CC3", "ring384x2", "incremental", 1, 10_000.0),
        ]);
        let fresh = doc(&[
            ("CC2", "ring384x2", "incremental", 1, 9_000.0), // -10%: fine
            ("CC3", "ring384x2", "incremental", 1, 7_000.0), // -30%: regression
        ]);
        let rep = compare(&base, &fresh, 0.2).unwrap();
        assert_eq!(rep.compared, 2);
        assert_eq!(rep.regressions.len(), 1);
        assert!(rep.regressions[0].contains("CC3"));
    }

    #[test]
    fn ignores_unmatched_keys_but_rejects_empty_join() {
        let base = doc(&[("CC2", "ring6144x2", "par4", 4, 10_000.0)]);
        let fresh = doc(&[
            ("CC2", "ring6144x2", "par4", 4, 11_000.0),
            ("CC2", "ring96x2", "par4", 4, 1.0), // only in fresh: skipped
        ]);
        let rep = compare(&base, &fresh, 0.2).unwrap();
        assert_eq!(rep.compared, 1);
        assert!(rep.regressions.is_empty());
        let disjoint = doc(&[("CC1", "fig1", "full_scan", 1, 1.0)]);
        assert!(
            compare(&base, &disjoint, 0.2).is_err(),
            "vacuous gate is an error"
        );
    }

    fn lat_doc(rows: &[(&str, &str, &str, &str, f64)]) -> String {
        let records: Vec<String> = rows
            .iter()
            .map(|(a, t, m, arr, p99)| {
                format!(
                    "{{\"algo\": \"{a}\", \"topology\": \"{t}\", \"mode\": \"{m}\", \
                     \"arrival\": \"{arr}\", \"completed\": 500, \"p99_ticks\": {p99}}}"
                )
            })
            .collect();
        format!(
            "{{\"bench\": \"service_latency\",\n \"records\": [{}]}}",
            records.join(",")
        )
    }

    #[test]
    fn latency_gate_flags_higher_p99() {
        let base = lat_doc(&[
            ("CC1", "ring1536x2", "par1", "poisson", 100.0),
            ("CC1", "ring1536x2", "par1", "bursty", 100.0),
        ]);
        let fresh = lat_doc(&[
            ("CC1", "ring1536x2", "par1", "poisson", 105.0), // +5%: fine
            ("CC1", "ring1536x2", "par1", "bursty", 130.0),  // +30%: regression
        ]);
        let rep = compare_latency(&base, &fresh, 0.10).unwrap();
        assert_eq!(rep.compared, 2);
        assert_eq!(rep.regressions.len(), 1);
        assert!(rep.regressions[0].contains("bursty"));
    }

    #[test]
    fn latency_gate_lower_is_never_a_regression() {
        let base = lat_doc(&[("CC1", "ring1536x2", "vl_daemon", "hotspot", 200.0)]);
        let fresh = lat_doc(&[("CC1", "ring1536x2", "vl_daemon", "hotspot", 50.0)]);
        let rep = compare_latency(&base, &fresh, 0.10).unwrap();
        assert!(rep.regressions.is_empty());
        let disjoint = lat_doc(&[("CC1", "fig1", "par1", "poisson", 1.0)]);
        assert!(
            compare_latency(&base, &disjoint, 0.10).is_err(),
            "vacuous gate is an error"
        );
    }

    #[test]
    fn latency_gate_tick_slack_absorbs_quantile_wobble() {
        // 1 -> 2 ticks is +100% but within the one-tick absolute slack.
        let base = lat_doc(&[("CC1", "ring96x2", "par1", "poisson", 1.0)]);
        let fresh = lat_doc(&[("CC1", "ring96x2", "par1", "poisson", 2.0)]);
        let rep = compare_latency(&base, &fresh, 0.10).unwrap();
        assert!(rep.regressions.is_empty());
    }

    #[test]
    fn faster_is_never_a_regression() {
        let base = doc(&[("CC2", "ring384x2", "par2", 2, 10_000.0)]);
        let fresh = doc(&[("CC2", "ring384x2", "par2", 2, 30_000.0)]);
        let rep = compare(&base, &fresh, 0.2).unwrap();
        assert!(rep.regressions.is_empty());
    }
}
