//! Property tests for the configuration layer: every registry entry
//! validates and round-trips `EngineConfig -> Display -> FromStr ->
//! EngineConfig`, and the same holds for *every* valid configuration in
//! the (finite) config space — the serialized mode labels are a lossless
//! encoding, so checkpoints, CI flags and differential twin labels can
//! never drift from the configs they denote. Labels of deleted modes keep
//! parsing, as spellings of the trajectory-identical mode that survives.

#![deny(deprecated)]

use proptest::prelude::*;
use sscc_runtime::prelude::*;

/// Deterministic enumeration of the whole configuration space (valid and
/// invalid): 2 eval paths × 4 drains × 2² flags = 32 configs.
fn config_space() -> Vec<EngineConfig> {
    let evals = [EvalPath::FullScan, EvalPath::Incremental];
    let drains = [
        Drain::Sequential,
        Drain::distributed(1),
        Drain::distributed(2),
        Drain::distributed(4),
    ];
    let mut all = Vec::new();
    for &eval in &evals {
        for &drain in &drains {
            for bits in 0..4u8 {
                all.push(EngineConfig {
                    eval,
                    drain,
                    trusted_daemon: bits & 1 != 0,
                    incremental_daemon: bits & 2 != 0,
                });
            }
        }
    }
    assert_eq!(all.len(), 32);
    all
}

#[test]
fn every_registry_entry_validates_and_roundtrips() {
    for mode in ModeRegistry::all() {
        mode.config
            .validate()
            .unwrap_or_else(|e| panic!("registry mode {} must validate: {e}", mode.name));
        // Display prefers the registered label…
        assert_eq!(mode.config.to_string(), mode.name, "canonical label");
        // …and both the label and the display form parse back exactly.
        let parsed: EngineConfig = mode.name.parse().unwrap();
        assert_eq!(parsed, mode.config, "{}: FromStr(name)", mode.name);
        let roundtripped: EngineConfig = mode.config.to_string().parse().unwrap();
        assert_eq!(roundtripped, mode.config, "{}: roundtrip", mode.name);
        assert!(!mode.summary.is_empty(), "{}: described", mode.name);
    }
}

#[test]
fn registry_names_and_configs_are_unique() {
    let modes = ModeRegistry::all();
    for (i, a) in modes.iter().enumerate() {
        for b in &modes[i + 1..] {
            assert_ne!(a.name, b.name, "mode registered twice");
            assert_ne!(
                a.config, b.config,
                "{} and {} denote the same config — 'exactly once' violated",
                a.name, b.name
            );
        }
    }
}

#[test]
fn exhaustive_valid_configs_roundtrip() {
    let mut valid = 0;
    for cfg in config_space() {
        if cfg.validate().is_err() {
            continue;
        }
        valid += 1;
        let label = cfg.to_string();
        let parsed: EngineConfig = label
            .parse()
            .unwrap_or_else(|e| panic!("'{label}' must parse: {e}"));
        assert_eq!(parsed, cfg, "roundtrip through '{label}'");
        // The pooled drain's and the PR-1 baseline's labels are read,
        // never written.
        assert!(
            !label.split('+').any(|t| t == "pool"
                || (t.starts_with("par") && t != "par1")
                || ["incremental", "pr1", "reference"].contains(&t)),
            "'{label}' names a deleted mode"
        );
    }
    assert!(
        valid >= ModeRegistry::all().len(),
        "space covers the registry"
    );
}

/// The pooled parallel drain was bit-identical to the sequential one, and
/// the PR-1 per-guard baseline to the default engine, so an artifact
/// labelled with one of their modes denotes the surviving spelling; what
/// never was a label still is not one.
#[test]
fn legacy_pooled_labels_parse_as_their_sequential_spelling() {
    for (legacy, now) in [
        ("incremental", "par1"),
        ("pr1", "par1"),
        ("reference", "par1"),
        ("par2", "par1"),
        ("par4b0", "par1"),
        ("pool", "daemon"),
        ("vl_pool", "daemon"),
        ("par2+trusted", "trusted"),
    ] {
        let cfg: EngineConfig = legacy
            .parse()
            .unwrap_or_else(|e| panic!("'{legacy}' must parse: {e}"));
        assert_eq!(cfg, now.parse().unwrap(), "{legacy}");
        assert_eq!(cfg.to_string(), now, "{legacy}");
        assert!(
            ModeRegistry::get(legacy).is_none(),
            "{legacy}: unregistered"
        );
    }
    for bad in ["parx", "par", "par2+bogus"] {
        assert!(
            matches!(bad.parse::<EngineConfig>(), Err(ConfigError::Parse(_))),
            "{bad}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random walks over the config space: validity is decided by
    /// `validate()` alone, valid configs round-trip through their label,
    /// and parsing is total (Ok or Err, never a panic) on arbitrary
    /// `+`-joined token soup.
    #[test]
    fn sampled_configs_roundtrip(ix in 0usize..32, seed in 0u64..1000) {
        let space = config_space();
        let cfg = space[ix % space.len()];
        match cfg.validate() {
            Ok(()) => {
                let label = cfg.to_string();
                prop_assert_eq!(label.parse::<EngineConfig>().unwrap(), cfg);
            }
            Err(_) => {
                // Invalid configs still serialize to *something* that
                // parses back to the same struct — validation, not
                // serialization, is the gate.
                let label = cfg.to_string();
                if let Ok(parsed) = label.parse::<EngineConfig>() {
                    prop_assert_eq!(parsed, cfg);
                }
            }
        }
        // Arbitrary token soup never panics the parser ("inplace" was a
        // token once; now it is one more bogus word).
        let tokens = ["par2", "bogus", "inplace", "", "par0", "trusted", "vl"];
        let soup = format!(
            "{}+{}",
            tokens[(seed as usize) % tokens.len()],
            tokens[(seed as usize / 7) % tokens.len()]
        );
        let _ = soup.parse::<EngineConfig>();
    }
}
