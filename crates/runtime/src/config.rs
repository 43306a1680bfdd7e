//! The unified configuration layer: one typed, validated, serializable
//! description of an engine variant, and one registry of every named
//! variant the workspace ships.
//!
//! Four engine revisions (ROADMAP PRs 1–4) each added another boolean
//! setter, until configuring a run meant hand-sequencing ~10 order-sensitive
//! `set_*` calls — duplicated across the then bench binary, the
//! differential lockstep suite and the examples, three independently
//! maintained mode lists that could silently drift. [`EngineConfig`]
//! replaces that surface:
//!
//! * **Typed** — the eval path, the drain and the daemon-facing toggles
//!   are fields of one plain `Copy` struct, applied in one shot by
//!   [`World::configure`] / `Sim::configure` / `AnySim::configure` (and
//!   built fluently by `Sim::builder()`).
//! * **Validated** — [`EngineConfig::validate`] rejects the combinations
//!   the old setters silently no-op'ed (a one-shard "distributed" tier, the
//!   `full_scan` oracle composed with the very features it is the oracle
//!   for).
//! * **Serializable** — [`EngineConfig`] round-trips through
//!   `Display`/`FromStr` using the mode labels (`"full_scan"`,
//!   `"daemon"`, `"dist4"`, …), so mode names in checkpoints, benchmark
//!   workloads, CI invocations and CLI flags all parse back into the exact
//!   config.
//! * **Enumerable** — [`ModeRegistry`] lists every supported named config
//!   exactly once; the differential suite's lockstep engine list, the
//!   examples and `benchmark/` all derive from it, so a mode added here is
//!   automatically lockstep-verified and selectable.
//!
//! Snap-stabilization promises correctness *from any configuration*; that
//! guarantee is only checkable if every engine variant we ship is
//! enumerable and lockstep-verified from one source of truth. This module
//! is that source.
//!
//! ```
//! use sscc_runtime::prelude::*;
//!
//! // Parse a mode label, check it, print it back.
//! let cfg: EngineConfig = "daemon".parse().unwrap();
//! assert!(cfg.validate().is_ok() && cfg.trusted_daemon);
//! assert_eq!(cfg.to_string(), "daemon");
//!
//! // Incoherent combinations fail closed instead of silently no-op'ing.
//! let bad = EngineConfig::full_scan().with_trusted_daemon(true);
//! assert!(bad.validate().is_err()); // the oracle composes with nothing
//!
//! // Every named mode is registered exactly once.
//! assert_eq!(ModeRegistry::all().len(), 7);
//! assert!(ModeRegistry::get("par1").is_some());
//! ```
//!
//! [`World::configure`]: crate::engine::World::configure

use std::fmt;
use std::str::FromStr;

/// How guards are (re-)evaluated each step.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EvalPath {
    /// The textbook oracle: every guard re-evaluated every step; under
    /// `Sim` the committee algorithms evaluate through the paper's guards
    /// one by one (the per-guard reference, not the fact cascade), policy
    /// ticks are full `O(n)` ticks and the observers rebuild whole views.
    /// The differential-testing reference; not composable with other knobs.
    FullScan,
    /// The incremental dirty-set scheduler with **value-level**
    /// invalidation — the default engine. A commit diffs each staged state
    /// against the one it replaces and hands the changed processes to the
    /// algorithm's commit-note hooks
    /// ([`GuardedAlgorithm::note_write`] /
    /// [`GuardedAlgorithm::flush_writes`]), which re-enqueue only the
    /// guards that read what changed; the committee algorithms keep
    /// per-committee fact bits in those notes and evaluate through them
    /// while the engine keeps them in sync.
    ///
    /// [`GuardedAlgorithm::note_write`]:
    ///     crate::algorithm::GuardedAlgorithm::note_write
    /// [`GuardedAlgorithm::flush_writes`]:
    ///     crate::algorithm::GuardedAlgorithm::flush_writes
    #[default]
    Incremental,
}

/// How the dirty-guard worklist is drained.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Drain {
    /// Drain inline on the stepping thread.
    #[default]
    Sequential,
    /// The message-passing tier: the topology is cut into `shards`
    /// contiguous [`ShardPlan`](sscc_hypergraph::ShardPlan) shards, each
    /// run by an independent actor that owns the sub-configuration for its
    /// processes and exchanges serialized boundary-state frames (with
    /// per-shard logical-clock metadata) over a
    /// [`BoundaryTransport`](crate::engine::World) channel seam. Engine
    /// dispatch lives above the bare [`World`](crate::engine::World) — a
    /// `World::configure` with this drain fails closed with
    /// [`ConfigError::DistributedOutsideSim`]; apply through `Sim`/`AnySim`.
    Distributed {
        /// Shard-actor count (≥ 2; `1` is spelled [`Drain::Sequential`]).
        shards: usize,
    },
}

impl Drain {
    /// A distributed drain over `shards` shard actors.
    pub const fn distributed(shards: usize) -> Self {
        Drain::Distributed { shards }
    }
}

/// A complete, declarative description of one engine variant.
///
/// The default value is the default engine (the `"par1"` registry mode):
/// sequential incremental drain, value-level invalidation, no daemon
/// shortcuts.
/// Build variants with the `with_*` combinators, parse them from mode
/// labels, or pick them from the [`ModeRegistry`]. Apply
/// with [`World::configure`](crate::engine::World::configure) (engine-level
/// knobs) or `Sim::configure` / `Sim::builder()` (everything).
///
/// The configuration is applied **once, before stepping** — it compiles
/// down to the same plain fields the old setters wrote, so the hot path
/// pays zero extra dispatch for having a declarative surface.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineConfig {
    /// Guard evaluation path.
    pub eval: EvalPath,
    /// Dirty-set drain (sequential or distributed).
    pub drain: Drain,
    /// Trust the daemon's `Selection` promises: skip release-mode subset
    /// validation.
    pub trusted_daemon: bool,
    /// Feed the daemon net enabled-set deltas so it maintains its fairness
    /// bookkeeping incrementally. Daemon-level: applied by the layer that
    /// owns the daemon (`Sim`/`AnySim`), rejected by a bare `World`.
    pub incremental_daemon: bool,
}

/// `EngineConfig { ..Default::default() }`, spellable in `const` items.
const BASE: EngineConfig = EngineConfig {
    eval: EvalPath::Incremental,
    drain: Drain::Sequential,
    trusted_daemon: false,
    incremental_daemon: false,
};

impl EngineConfig {
    /// The full-scan textbook oracle (`"full_scan"`).
    pub const fn full_scan() -> Self {
        EngineConfig {
            eval: EvalPath::FullScan,
            ..BASE
        }
    }

    /// Replace the eval path.
    pub const fn with_eval(mut self, eval: EvalPath) -> Self {
        self.eval = eval;
        self
    }

    /// Replace the drain.
    pub const fn with_drain(mut self, drain: Drain) -> Self {
        self.drain = drain;
        self
    }

    /// Toggle trusted daemon selections.
    pub const fn with_trusted_daemon(mut self, on: bool) -> Self {
        self.trusted_daemon = on;
        self
    }

    /// Toggle the incremental daemon view.
    pub const fn with_incremental_daemon(mut self, on: bool) -> Self {
        self.incremental_daemon = on;
        self
    }

    /// Is this the distributed (message-passing) drain?
    pub const fn distributed(&self) -> bool {
        matches!(self.drain, Drain::Distributed { .. })
    }

    /// Check the configuration for coherence. Every rejected combination
    /// was a *silent no-op or silent override* under the old setter
    /// surface; here they fail closed with a description of the conflict.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if let Drain::Distributed { shards } = self.drain {
            if shards < 2 {
                return Err(ConfigError::DistributedUnsupported(
                    "fewer than two shard actors (a one-shard tier is the sequential drain)",
                ));
            }
            if self.incremental_daemon {
                return Err(ConfigError::DistributedUnsupported(
                    "incremental daemon view (v1 scope: the coordinator rescans merged deltas)",
                ));
            }
        }
        let composed = !matches!(self.drain, Drain::Sequential)
            || self.trusted_daemon
            || self.incremental_daemon;
        if self.eval == EvalPath::FullScan && composed {
            return Err(ConfigError::ComposedBaseline);
        }
        Ok(())
    }
}

/// Why an [`EngineConfig`] was rejected (by [`EngineConfig::validate`], a
/// `configure` call, or mode-label parsing).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// The `full_scan` oracle composed with the very engine features it is
    /// the differential baseline for.
    ComposedBaseline,
    /// `incremental_daemon` applied to a bare
    /// [`World`](crate::engine::World): the daemon object is owned by the
    /// caller (it is passed per step), so only the owning layer
    /// (`Sim`/`AnySim`, or `Daemon::set_incremental_view` directly) can
    /// configure its view.
    DaemonViewOutsideWorld,
    /// [`Drain::Distributed`] composed with a feature the v1
    /// message-passing tier does not support (incremental daemon view,
    /// mid-run surgery), or a degenerate shard count. The payload names
    /// the offending feature.
    DistributedUnsupported(&'static str),
    /// [`Drain::Distributed`] applied to a bare
    /// [`World`](crate::engine::World): the shard actors, the boundary
    /// transport and the coordinator live above the engine, so only the
    /// owning layer (`Sim`/`AnySim`) can run the distributed drain.
    DistributedOutsideSim,
    /// A mode label / config string that does not parse.
    Parse(String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ComposedBaseline => write!(
                f,
                "the 'full_scan' oracle is a differential baseline and cannot be \
                 composed with other engine features"
            ),
            ConfigError::DaemonViewOutsideWorld => write!(
                f,
                "incremental_daemon configures the daemon object, which a bare World does \
                 not own; apply through Sim/AnySim or Daemon::set_incremental_view"
            ),
            ConfigError::DistributedUnsupported(what) => {
                write!(f, "the distributed drain cannot be composed with {what}")
            }
            ConfigError::DistributedOutsideSim => write!(
                f,
                "the distributed drain's shard actors and boundary transport live above the \
                 engine; apply through Sim/AnySim, not a bare World"
            ),
            ConfigError::Parse(what) => write!(f, "unknown engine mode or config token: {what}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl fmt::Display for EngineConfig {
    /// The canonical label: the registry name when this config is a named
    /// mode, otherwise `+`-joined feature tokens (`"dist3"`,
    /// `"dist2+trusted"`; the all-default config is `"par1"`).
    /// [`FromStr`] parses both forms back, so
    /// `cfg.to_string().parse() == cfg` for every valid config.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(mode) = ModeRegistry::find(self) {
            return f.write_str(mode.name);
        }
        let mut parts: Vec<String> = Vec::new();
        if self.eval == EvalPath::FullScan {
            parts.push("full_scan".into());
        }
        if let Drain::Distributed { shards } = self.drain {
            parts.push(format!("dist{shards}"));
        }
        if self.trusted_daemon {
            parts.push("trusted".into());
        }
        if self.incremental_daemon {
            parts.push("daemon_view".into());
        }
        if parts.is_empty() {
            f.write_str("par1")
        } else {
            f.write_str(&parts.join("+"))
        }
    }
}

impl FromStr for EngineConfig {
    type Err = ConfigError;

    /// Parse a registry mode name (`"daemon"`) or a `+`-joined token
    /// string (`"dist2+trusted"`). Tokens: `full_scan`, `par1`/`seq`,
    /// `distN` (distributed drain over N shard actors), `trusted`,
    /// `daemon_view`/`daemon_inc`, plus the composite label `daemon`.
    /// Parsing does **not** validate — call [`EngineConfig::validate`] (the
    /// `configure` entry points do).
    ///
    /// Legacy: three engine features were modes of their own before they
    /// were folded, and checkpoints written then carry their labels. They
    /// still parse — as spellings of the trajectory-identical path that
    /// survives — and `Display` never emits them:
    ///
    /// * the PR-1 per-guard baseline, now the `full_scan` oracle's
    ///   evaluator: `incremental`/`pr1`/`reference` spell the default
    ///   evaluation (`"incremental"` → `"par1"`);
    /// * value-level invalidation, now the default path: the `vl`/`value`
    ///   token and the `vl_` mode prefix (`"vl+trusted+daemon_view"`,
    ///   `"vl_daemon"`);
    /// * the pooled parallel drain, bit-identical to the sequential one by
    ///   construction: `parN` / `parNbM` for numeric `N`, `M` spell the
    ///   sequential drain and `pool` spells `daemon` (`"par2+trusted"` →
    ///   `"trusted"`, `"vl_pool"` → `"daemon"`).
    fn from_str(s: &str) -> Result<Self, ConfigError> {
        let s = s.trim();
        let s = s.strip_prefix("vl_").unwrap_or(s);
        if let Some(mode) = ModeRegistry::get(s) {
            return Ok(mode.config);
        }
        if s.is_empty() {
            return Err(ConfigError::Parse("<empty>".into()));
        }
        let mut cfg = EngineConfig::default();
        for tok in s.split('+') {
            match tok.trim() {
                "par1" | "seq" => cfg.drain = Drain::Sequential,
                "full_scan" => cfg.eval = EvalPath::FullScan,
                "incremental" | "pr1" | "reference" | "vl" | "value" => {}
                "trusted" => cfg.trusted_daemon = true,
                "daemon_view" | "daemon_inc" => cfg.incremental_daemon = true,
                "daemon" | "pool" => {
                    cfg.trusted_daemon = true;
                    cfg.incremental_daemon = true;
                }
                t if t.starts_with("dist") => {
                    let shards: usize = t[4..]
                        .parse()
                        .map_err(|_| ConfigError::Parse(t.to_string()))?;
                    cfg.drain = Drain::Distributed { shards };
                }
                // Legacy `parN` / `parNbM`: the pooled drain's thread count
                // and batch threshold, read as the sequential drain.
                t if t.starts_with("par") => {
                    let (threads, batch) = t[3..].split_once('b').unwrap_or((&t[3..], "0"));
                    if threads.parse::<usize>().is_err() || batch.parse::<usize>().is_err() {
                        return Err(ConfigError::Parse(t.to_string()));
                    }
                    cfg.drain = Drain::Sequential;
                }
                other => return Err(ConfigError::Parse(other.to_string())),
            }
        }
        Ok(cfg)
    }
}

/// One named engine variant: a label, a one-line description, and the
/// [`EngineConfig`] it denotes.
#[derive(Clone, Copy, Debug)]
pub struct Mode {
    /// The label — also the `Display`/`FromStr` form of the config.
    pub name: &'static str,
    /// One-line human description.
    pub summary: &'static str,
    /// The configuration this mode denotes.
    pub config: EngineConfig,
}

/// Every supported named engine configuration, exactly once.
///
/// This is the single source of truth the differential lockstep suite, the
/// examples and `benchmark/` all take their engines from. Adding a mode
/// here is sufficient for it to be lockstep-verified against the reference
/// engine and selectable by name everywhere.
pub struct ModeRegistry;

/// The registry table. Order is presentation order: the oracle, the
/// default engine, the daemon stack, the two distributed message-passing
/// tiers, then the single-knob compositions.
static MODES: [Mode; 7] = [
    Mode {
        name: "full_scan",
        summary: "textbook oracle: every guard re-evaluated one by one, full ticks, whole views",
        config: EngineConfig::full_scan(),
    },
    Mode {
        name: "par1",
        summary: "default engine: sequential drain, value-level invalidation, committee facts",
        config: BASE,
    },
    Mode {
        name: "daemon",
        summary: "trusted daemon + incremental daemon view",
        config: BASE.with_trusted_daemon(true).with_incremental_daemon(true),
    },
    Mode {
        name: "dist2",
        summary: "message-passing tier: 2 shard actors exchanging causal boundary frames",
        config: BASE.with_drain(Drain::distributed(2)),
    },
    Mode {
        name: "dist4",
        summary: "message-passing tier: 4 shard actors exchanging causal boundary frames",
        config: BASE.with_drain(Drain::distributed(4)),
    },
    Mode {
        name: "trusted",
        summary: "daemon selection validation skipped (promises trusted)",
        config: BASE.with_trusted_daemon(true),
    },
    Mode {
        name: "daemon_inc",
        summary: "daemon fairness bookkeeping fed by enabled-set deltas",
        config: BASE.with_incremental_daemon(true),
    },
];

impl ModeRegistry {
    /// Every registered mode, in presentation order.
    pub fn all() -> &'static [Mode] {
        &MODES
    }

    /// Look a mode up by name.
    pub fn get(name: &str) -> Option<&'static Mode> {
        MODES.iter().find(|m| m.name == name)
    }

    /// The mode denoting exactly this configuration, if one is registered.
    pub fn find(config: &EngineConfig) -> Option<&'static Mode> {
        MODES.iter().find(|m| m.config == *config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_par1() {
        assert_eq!(
            ModeRegistry::get("par1").unwrap().config,
            EngineConfig::default()
        );
        assert_eq!(EngineConfig::default().to_string(), "par1");
    }

    // Registry uniqueness (names *and* configs) is pinned by
    // `registry_names_and_configs_are_unique` in tests/config_props.rs,
    // next to the other registry invariants.

    #[test]
    fn silent_noops_now_fail_closed() {
        assert_eq!(
            EngineConfig::full_scan()
                .with_trusted_daemon(true)
                .validate(),
            Err(ConfigError::ComposedBaseline)
        );
    }

    #[test]
    fn distributed_combos_fail_closed() {
        let dist = BASE.with_drain(Drain::distributed(2));
        assert!(dist.validate().is_ok());
        assert!(dist.with_trusted_daemon(true).validate().is_ok());
        for bad in [
            BASE.with_drain(Drain::distributed(1)),
            dist.with_incremental_daemon(true),
        ] {
            assert!(
                matches!(bad.validate(), Err(ConfigError::DistributedUnsupported(_))),
                "{bad:?}"
            );
        }
        // Composing the oracle with the distributed drain is the
        // pre-existing composed-baseline rejection, not a dist-specific one.
        assert_eq!(
            EngineConfig::full_scan()
                .with_drain(Drain::distributed(2))
                .validate(),
            Err(ConfigError::ComposedBaseline)
        );
    }

    #[test]
    fn distributed_labels_roundtrip() {
        for label in ["dist2", "dist4", "dist3", "dist2+trusted"] {
            let cfg: EngineConfig = label.parse().unwrap();
            assert!(cfg.distributed());
            let again: EngineConfig = cfg.to_string().parse().unwrap();
            assert_eq!(cfg, again, "{label}");
        }
        assert_eq!(
            "dist2".parse::<EngineConfig>().unwrap().drain,
            Drain::distributed(2)
        );
        assert!("distx".parse::<EngineConfig>().is_err());
    }

    #[test]
    fn compositional_labels_roundtrip() {
        for label in ["dist3+trusted", "daemon_view+trusted", "trusted+dist2"] {
            let cfg: EngineConfig = label.parse().unwrap();
            let again: EngineConfig = cfg.to_string().parse().unwrap();
            assert_eq!(cfg, again, "{label}");
        }
        // Labels of the former value-level modes, of the deleted pooled
        // drain and of the PR-1 per-guard baseline are spellings of the path
        // that survives them: old artifacts parse, nothing prints them.
        for (legacy, now) in [
            ("incremental", "par1"),
            ("pr1", "par1"),
            ("reference", "par1"),
            ("incremental+trusted", "trusted"),
            ("vl", "par1"),
            ("value", "par1"),
            ("vl+trusted+daemon_view", "daemon"),
            ("vl_daemon", "daemon"),
            ("par2", "par1"),
            ("par4", "par1"),
            ("par4b0", "par1"),
            ("vl_par2", "par1"),
            ("vl+par4b0", "par1"),
            ("pool", "daemon"),
            ("vl_pool", "daemon"),
            ("par2+trusted", "trusted"),
            ("daemon_view+trusted+par2", "daemon"),
            ("par2b0+trusted+daemon_view", "daemon"),
        ] {
            let cfg: EngineConfig = legacy.parse().unwrap();
            assert_eq!(cfg.to_string(), now, "{legacy}");
            assert!(cfg.validate().is_ok(), "{legacy}");
        }
        // The commit-strategy tokens and modes are gone, not aliased: a
        // label recorded before their removal must not silently select the
        // default engine.
        for label in [
            "inplace",
            "buffered",
            "parcommit",
            "poolcommit",
            "pool_all",
            "inplace_par2",
            "par4b0+inplace",
        ] {
            assert!(
                matches!(label.parse::<EngineConfig>(), Err(ConfigError::Parse(_))),
                "{label}"
            );
        }
        for label in ["par2+bogus", "", "parx", "par", "par2b", "parxb0", "par2bx"] {
            assert!(label.parse::<EngineConfig>().is_err(), "{label:?}");
        }
    }
}
