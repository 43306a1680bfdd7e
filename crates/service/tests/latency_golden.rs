//! The tick-exact latency pin. Sojourns are measured in **service ticks**
//! (one tick = one poll / admit / step cycle), a pure function of the seed:
//! the same cell on any host, in any build, produces the same quantiles, so
//! a diff here is a behavioural change in admission, the engine or the
//! traffic generators — never noise.
//!
//! The three cells are the `ring384x2` / `par1` rows of the
//! `BENCH_latency.json` baseline that `bench_latency --compare` gated until
//! PR 23 (the file lives in git history): seed 7, 6 000 ticks, `max_disc`
//! 1, a 4 096-deep queue under `Shed`, ≈ 2 % of the professors requesting
//! per tick.

use sscc_hypergraph::generators;
use sscc_service::{cc1_service, Arrivals, OverloadPolicy, ServiceConfig, TrafficGen};
use std::sync::Arc;

#[test]
fn ring384_sojourn_ticks_are_pinned() {
    let h = Arc::new(generators::ring(384, 2));
    let (seed, ticks) = (7, 6_000);
    let base = 0.02 * h.n() as f64;
    let bursty = Arrivals::Bursty {
        rate_on: 3.0 * base,
        rate_off: 0.1 * base,
        on_len: 200,
        off_len: 600,
    };
    let hotspot = Arrivals::Hotspot {
        rate: base,
        hot_fraction: 0.8,
    };
    // (arrivals, accepted, completed, p50, p99)
    for (name, arrivals, expected) in [
        (
            "poisson",
            Arrivals::Poisson { rate: base },
            (46_500, 31_314, 12, 129),
        ),
        ("bursty", bursty, (40_204, 21_702, 12, 456)),
        ("hotspot", hotspot, (46_500, 17_022, 14, 437)),
    ] {
        let traffic = TrafficGen::new(&h, seed, arrivals, ticks);
        let cfg = ServiceConfig {
            queue_capacity: 4096,
            overload: OverloadPolicy::Shed,
            ..ServiceConfig::default()
        };
        let mut svc = cc1_service(Arc::clone(&h), seed, 1, "par1", Box::new(traffic), cfg).unwrap();
        svc.run(ticks);
        let stats = *svc.stats();
        let sojourn = svc.latency_summary().expect("requests completed");
        assert_eq!(
            (stats.accepted, stats.completed, sojourn.p50, sojourn.p99),
            expected,
            "{name}: (accepted, completed, p50 ticks, p99 ticks)"
        );
        assert_eq!(stats.shed, 0, "{name}: provisioned below saturation");
    }
}
