//! The service layer's contract tests.
//!
//! Three layers of guarantees:
//!
//! 1. **Traffic determinism** — the arrival processes are counter-based,
//!    so the trace is a pure function of `(seed, params)`, invariant under
//!    poll interleaving, and distributionally sane (Poisson mean, burst
//!    phasing, hotspot concentration).
//! 2. **Service determinism** — same seed, same config → bit-identical
//!    ledger trace and latency quantiles (what makes the CI latency gate
//!    tick-exact).
//! 3. **Admission equivalence** — a service-driven run is *observationally
//!    identical* to a plain [`Sim`] whose [`RequestFlags`] are scripted
//!    with the service's own admission log: the proxy adds admission
//!    control and measurement, but never changes what the engine computes.

#![deny(deprecated)]

use proptest::prelude::*;
use sscc_core::sim::Sim;
use sscc_core::OpenLoopPolicy;
use sscc_hypergraph::generators;
use sscc_service::{
    cc1_service, Arrivals, OverloadPolicy, RequestSource, ServiceConfig, TrafficGen,
};
use std::sync::Arc;

// ---------------------------------------------------------------- traffic

#[test]
fn same_seed_same_trace_different_seed_different_trace() {
    let h = generators::ring(64, 2);
    let a = TrafficGen::new(&h, 11, Arrivals::Poisson { rate: 1.5 }, 500);
    let b = TrafficGen::new(&h, 11, Arrivals::Poisson { rate: 1.5 }, 500);
    assert_eq!(a.trace(), b.trace(), "seed determines the trace");
    let c = TrafficGen::new(&h, 12, Arrivals::Poisson { rate: 1.5 }, 500);
    assert_ne!(a.trace(), c.trace(), "seeds decorrelate");
}

#[test]
fn trace_is_invariant_under_poll_interleaving() {
    let h = generators::ring(32, 2);
    let mk = || TrafficGen::new(&h, 3, Arrivals::Poisson { rate: 2.0 }, 300);

    // One request at a time, polled far behind the clock.
    let mut trickle = mk();
    let mut got_trickle = Vec::new();
    let mut now = 0;
    while !trickle.finished() {
        now += 1;
        trickle.poll(now, 1, &mut got_trickle);
    }

    // Everything in one poll at the horizon.
    let mut bulk = mk();
    let mut got_bulk = Vec::new();
    bulk.poll(300, usize::MAX, &mut got_bulk);
    assert!(bulk.finished());

    assert_eq!(
        got_trickle, got_bulk,
        "poll budget and cadence never change the request stream"
    );
    assert_eq!(got_bulk.len(), mk().trace().len());
}

#[test]
fn poisson_mean_matches_rate() {
    let h = generators::ring(64, 2);
    let rate = 2.0;
    let horizon = 4_000;
    let g = TrafficGen::new(&h, 17, Arrivals::Poisson { rate }, horizon);
    let got = g.trace().len() as f64;
    let expect = rate * horizon as f64;
    assert!(
        (got - expect).abs() < 0.05 * expect,
        "Poisson sample mean {got} should be within 5% of {expect}"
    );
}

#[test]
fn bursty_arrivals_follow_the_phase() {
    let h = generators::ring(64, 2);
    let (on_len, off_len) = (50, 150);
    let g = TrafficGen::new(
        &h,
        9,
        Arrivals::Bursty {
            rate_on: 4.0,
            rate_off: 0.1,
            on_len,
            off_len,
        },
        4_000,
    );
    let (mut on, mut off) = (0u64, 0u64);
    for (t, _) in g.trace() {
        if t % (on_len + off_len) < on_len {
            on += 1;
        } else {
            off += 1;
        }
    }
    // The on-phase is 1/4 of the time but carries 40x the rate: arrivals
    // must be dominated by it.
    assert!(on > 8 * off, "on-phase {on} vs off-phase {off}");
    assert!(off > 0, "the off-phase still trickles");
}

#[test]
fn hotspot_concentrates_on_the_hot_pool() {
    let h = generators::ring(100, 2);
    let g = TrafficGen::new(
        &h,
        23,
        Arrivals::Hotspot {
            rate: 2.0,
            hot_fraction: 0.8,
        },
        2_000,
    );
    let pool: std::collections::BTreeSet<usize> = g.hot_pool().iter().copied().collect();
    assert!(
        pool.len() * 4 <= h.n(),
        "the pool is a minority of the professors (got {} of {})",
        pool.len(),
        h.n()
    );
    let trace = g.trace();
    let hot = trace.iter().filter(|(_, p)| pool.contains(p)).count();
    let frac = hot as f64 / trace.len() as f64;
    // 80% aimed + uniform spillover: well above any uniform baseline.
    assert!(
        frac > 0.7,
        "hot pool should absorb most arrivals, got {frac:.2}"
    );
}

// ---------------------------------------------------------------- service

fn run_service(
    seed: u64,
    mode: &str,
    record_admissions: bool,
) -> sscc_service::CoordinationService<sscc_core::Cc1, sscc_token::WaveToken> {
    let h = Arc::new(generators::ring(24, 2));
    let gen = TrafficGen::new(&h, seed, Arrivals::Poisson { rate: 0.4 }, 1_500);
    let cfg = ServiceConfig {
        record_admissions,
        ..ServiceConfig::default()
    };
    let mut svc = cc1_service(h, seed, 1, mode, Box::new(gen), cfg).unwrap();
    svc.run(2_000);
    svc
}

#[test]
fn service_runs_are_deterministic() {
    let a = run_service(5, "par1", false);
    let b = run_service(5, "par1", false);
    assert_eq!(
        a.sim().ledger().instances(),
        b.sim().ledger().instances(),
        "same seed, same meeting history"
    );
    assert_eq!(a.latency_summary(), b.latency_summary());
    assert_eq!(a.stats().completed, b.stats().completed);
    assert!(a.stats().completed > 0, "the run must exercise meetings");
    assert!(a.sim().monitor().clean());
}

#[test]
fn engine_mode_does_not_change_the_served_trajectory() {
    // The registry modes are trajectory-equivalent; the service on top
    // must preserve that (same admissions, same meetings, same sojourns).
    let base = run_service(5, "par1", false);
    for mode in ["full_scan", "daemon", "dist2"] {
        let other = run_service(5, mode, false);
        assert_eq!(
            base.sim().ledger().instances(),
            other.sim().ledger().instances(),
            "mode {mode} diverged"
        );
        assert_eq!(base.latency_summary(), other.latency_summary());
    }
}

// ------------------------------------------------------------- equivalence

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The proxy is observationally transparent: replaying the service's
    /// admission log into a bare `Sim` through `flags_mut` — the scripted
    /// interface that predates the service layer — yields a bit-identical
    /// meeting ledger. The service decides *when* a request reaches the
    /// engine (admission control), never *what* the engine does with it.
    #[test]
    fn service_equals_scripted_flag_flips(seed in 0u64..200) {
        let ticks = 1_200u64;
        let svc = {
            let h = Arc::new(generators::ring(16, 2));
            let gen = TrafficGen::new(&h, seed, Arrivals::Poisson { rate: 0.5 }, 1_000);
            let cfg = ServiceConfig {
                record_admissions: true,
                overload: OverloadPolicy::Defer,
                ..ServiceConfig::default()
            };
            let mut svc = cc1_service(h, seed, 1, "par1", Box::new(gen), cfg).unwrap();
            svc.run(ticks);
            svc
        };

        // The twin: the exact construction `cc1_service` performs, driven
        // by scripted flag flips instead of a transport.
        let h = Arc::new(generators::ring(16, 2));
        let n = h.n();
        let tl = sscc_token::WaveToken::new(&h);
        let mut twin = Sim::builder(h, sscc_core::Cc1::new(), tl)
            .seed(seed)
            .policy(Box::new(OpenLoopPolicy::new(n, 1)))
            .mode("par1")
            .build()
            .unwrap();
        let log = svc.admissions().to_vec();
        let mut at = 0usize;
        for t in 1..=ticks {
            while at < log.len() && log[at].0 == t {
                twin.flags_mut().set_in(log[at].1, true);
                at += 1;
            }
            twin.step();
        }
        prop_assert_eq!(at, log.len(), "every admission replayed");
        prop_assert_eq!(
            twin.ledger().instances(),
            svc.sim().ledger().instances(),
            "scripted replay must reproduce the meeting history exactly"
        );
        prop_assert!(svc.sim().monitor().clean());
        prop_assert!(twin.monitor().clean());
    }
}

// --------------------------------------------------------------- campaigns

/// Sustained faults and topology churn during a *service-driven* run: the
/// open-loop proxy keeps serving traffic while a seeded [`FaultCampaign`]
/// strikes processes and mutates committees between ticks. Safety holds
/// across every disruption, requests keep completing, and the whole
/// bombardment — schedule, surgery, admissions — is deterministic in the
/// seed.
#[test]
fn service_survives_fault_and_churn_campaigns() {
    use rand::{rngs::StdRng, SeedableRng as _};
    use sscc_hypergraph::random_mutation;
    use sscc_runtime::prelude::{CampaignEvent, FaultCampaign};

    let run = |seed: u64| {
        let h = Arc::new(generators::ring(24, 2));
        let gen = TrafficGen::new(&h, seed, Arrivals::Poisson { rate: 0.4 }, 2_500);
        let mut svc = cc1_service(
            h,
            seed,
            1,
            "daemon",
            Box::new(gen),
            ServiceConfig::default(),
        )
        .unwrap();
        let mut campaign = FaultCampaign::new(seed, 300, 170);
        let (mut struck, mut mutated) = (0usize, 0usize);
        for tick in 1..=3_000u64 {
            for ev in campaign.poll(tick) {
                match ev {
                    CampaignEvent::Strike { seed } => {
                        svc.inject_fault(seed, 0.3).unwrap();
                        struck += 1;
                    }
                    CampaignEvent::Churn { seed } => {
                        let mut rng = StdRng::seed_from_u64(seed);
                        let proposal = random_mutation(svc.sim().h(), &mut rng);
                        if svc.apply_mutation(&proposal).is_ok() {
                            mutated += 1;
                        }
                    }
                }
            }
            svc.tick();
        }
        (svc, struck, mutated)
    };
    let (a, struck, mutated) = run(9);
    assert!(struck >= 10, "sustained faults: {struck}");
    assert!(mutated > 0, "churn applied: {mutated}");
    assert!(
        a.sim().monitor().clean(),
        "{:?}",
        a.sim().monitor().violations()
    );
    assert!(
        a.stats().completed > 0,
        "requests keep completing under fire"
    );
    let (b, ..) = run(9);
    assert_eq!(
        a.sim().ledger().instances(),
        b.sim().ledger().instances(),
        "campaign service runs are deterministic"
    );
    assert_eq!(a.latency_summary(), b.latency_summary());
}
