//! The harness's own contract: the replica *is* the program (same
//! trajectory as `Sim` / `CoordinationService`), and the sojourn mirror *is*
//! the service's histogram.

use crate::replica::ReplicaSim;
use crate::workloads::{build_served, build_served_replica, Driver, Finish, Served, Sojourn};
use sscc_core::{default_daemon, Cc1, Cc2, Cc3, CommitteeAlgorithm, EagerPolicy, Sim};
use sscc_hypergraph::{generators, Hypergraph};
use sscc_runtime::prelude::{EngineConfig, StateCodec};
use sscc_service::Arrivals;
use sscc_token::WaveToken;
use std::sync::Arc;

const STEPS: u64 = 2_000;

/// Step a `Sim` and its replica side by side and demand identical states,
/// events, meeting history and violations.
fn replica_matches_sim<C>(
    h: &Arc<Hypergraph>,
    make_cc: fn() -> C,
    mode: &str,
    fault_seed: Option<u64>,
) where
    C: CommitteeAlgorithm + 'static,
    C::State: Copy + StateCodec,
{
    let seed = 11;
    let mut b = Sim::builder(Arc::clone(h), make_cc(), WaveToken::new(h))
        .seed(seed)
        .max_disc(1)
        .mode(mode);
    if let Some(fs) = fault_seed {
        b = b.arbitrary(fs);
    }
    let mut sim = b.build().unwrap();
    let cfg: EngineConfig = mode.parse().unwrap();
    let mut replica = ReplicaSim::new(
        Arc::clone(h),
        make_cc(),
        default_daemon(seed, h.n()),
        Box::new(EagerPolicy::new(h.n(), 1)),
        fault_seed,
        &cfg,
    );
    for step in 0..STEPS {
        assert_eq!(sim.step(), replica.step(), "progress at step {step}");
        assert_eq!(
            sim.last_events(),
            replica.last_events(),
            "events at step {step}"
        );
        assert_eq!(
            sim.world().states(),
            replica.world().states(),
            "configuration after step {step}"
        );
    }
    assert_eq!(sim.steps(), replica.world().steps());
    assert_eq!(sim.ledger().instances(), replica.ledger().instances());
    assert_eq!(sim.monitor().violations(), replica.monitor().violations());
    assert!(
        sim.ledger().convened_count() > 0,
        "the run must exercise meetings"
    );
    assert_eq!(replica.counters.steps, STEPS);
}

fn topologies() -> [Arc<Hypergraph>; 2] {
    [
        Arc::new(generators::fig2()),
        Arc::new(generators::ring(96, 2)),
    ]
}

#[test]
fn replica_is_cc1() {
    for h in topologies() {
        for boot in [None, Some(5)] {
            replica_matches_sim(&h, Cc1::new, "par1", boot);
        }
    }
}

#[test]
fn replica_is_cc2() {
    for h in topologies() {
        for boot in [None, Some(5)] {
            replica_matches_sim(&h, Cc2::new, "par1", boot);
        }
    }
}

#[test]
fn replica_is_cc3() {
    for h in topologies() {
        for boot in [None, Some(5)] {
            replica_matches_sim(&h, Cc3::new_cc3, "par1", boot);
        }
    }
}

#[test]
fn replica_is_cc1_under_dist4() {
    let h = Arc::new(generators::ring(96, 2));
    replica_matches_sim(&h, Cc1::new, "dist4", None);
    replica_matches_sim(&h, Cc1::new, "dist4", Some(9));
}

fn hotspot(h: &Hypergraph) -> Served {
    Served {
        arrivals: Arrivals::Hotspot {
            rate: 0.02 * h.n() as f64,
            hot_fraction: 0.8,
        },
        mode: "par1",
    }
}

/// Drive a served workload for `ticks` ticks through the driver interface,
/// on a fake clock (tick `t` spans `[10t, 10t + 5]`), and close it. Returns
/// the mirror, how many sojourns it held before the close, and the closing
/// checks.
fn drive(drv: &mut dyn Driver, n: usize, ticks: u64) -> (Sojourn, usize, Finish) {
    let mut soj = Sojourn::new(n);
    for tick in 1..=ticks {
        drv.call();
        drv.observe(&mut soj, tick, tick * 10, tick * 10 + 5);
    }
    let in_window = soj.ticks.len();
    let finish = drv.finish(&mut soj, ticks, ticks);
    (soj, in_window, finish)
}

#[test]
fn sojourn_mirror_is_the_service_histogram() {
    let h = Arc::new(generators::ring(96, 2));
    let mut drv = build_served(&h, 3, hotspot(&h));
    let (soj, in_window, finish) = drive(&mut drv, h.n(), 4_000);
    assert!(in_window > 1_000, "requests completed: {in_window}");
    for (name, ok, detail) in &finish.checks {
        assert!(ok, "{name}: {detail}");
    }
    assert_eq!(finish.failed, 0, "every request of the window is served");
    // Wall clock: a request served in its arrival tick took the 5 units of
    // that call; one that waited k ticks took 10k + 5.
    assert!(soj.ticks[..in_window]
        .iter()
        .zip(&soj.wall_ns)
        .all(|(&t, &w)| w == u64::from(t) * 10 + 5));
}

#[test]
fn replica_service_is_the_service() {
    let h = Arc::new(generators::ring(96, 2));
    let mut real = build_served(&h, 3, hotspot(&h));
    let mut replica = build_served_replica(&h, 3, hotspot(&h));
    let (soj_real, _, fin_real) = drive(&mut real, h.n(), 4_000);
    let (soj_replica, _, fin_replica) = drive(&mut replica, h.n(), 4_000);
    assert_eq!(soj_real.ticks, soj_replica.ticks);
    assert_eq!(fin_real.attempted, fin_replica.attempted);
    assert_eq!(
        real.ledger().instances(),
        replica.ledger().instances(),
        "same meeting history, drain included"
    );
    for (name, ok, detail) in &fin_replica.checks {
        assert!(ok, "{name}: {detail}");
    }
    assert_eq!(
        real.admission_log().unwrap().len(),
        soj_real.ticks.len() + soj_real.open_count(),
        "every admission is either served or still open"
    );
}
