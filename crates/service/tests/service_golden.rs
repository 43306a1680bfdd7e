//! A service checkpoint written before the meeting history went compact
//! (format version 3) still restores and continues exactly as the run that
//! wrote it did.
//!
//! `golden/cc1_ring24_poisson_v2.srv` is a version-2 `SSCCSRV` blob written
//! by the tree before version 3: `cc1_service` on `ring(24, 2)`, seed 7,
//! `max_disc` 1, mode `par1`, default config, Poisson arrivals at one a
//! tick (traffic seed 7, horizon 1 000), checkpointed at tick 500. The
//! pinned values are that tree's own: the ledger fingerprint at the mark,
//! and the fingerprint and sojourn summary 500 ticks later. A fingerprint
//! digests what the ledger recorded, not its bytes, so it is the same under
//! every format version.

use sscc_hypergraph::generators;
use sscc_service::{cc1_service_restore, Arrivals, LatencySummary, TrafficGen};
use std::sync::Arc;

const AT_MARK: u64 = 0x1b4c_e17e_127d_dd8d;
const AFTER_500: u64 = 0x79bd_b656_eacb_24c8;

#[test]
fn a_version_2_service_blob_continues_as_its_writer_did() {
    let blob = include_bytes!("golden/cc1_ring24_poisson_v2.srv");
    assert_eq!(blob[..10], *b"SSCCSRV\0\x02\x00", "a version-2 artifact");
    let h = Arc::new(generators::ring(24, 2));
    let traffic = || TrafficGen::new(&h, 7, Arrivals::Poisson { rate: 1.0 }, 1_000);
    let mut svc =
        cc1_service_restore(Box::new(traffic()), blob).expect("a version-2 blob restores");
    assert_eq!(svc.ticks(), 500);
    assert_eq!(svc.sim().ledger().fingerprint(), AT_MARK);

    // What it writes now is the current version, and it carries the same
    // trajectory.
    let current = svc.checkpoint().unwrap();
    assert_eq!(current[8..10], [3, 0]);
    assert!(
        current.len() < blob.len(),
        "the history is smaller on the wire"
    );
    let mut twin = cc1_service_restore(Box::new(traffic()), &current).unwrap();
    assert_eq!(twin.sim().ledger().fingerprint(), AT_MARK);

    svc.run(500);
    twin.run(500);
    let summary = LatencySummary {
        p50: 13,
        p99: 69,
        p999: 146,
        mean: 17.33992805755396,
        max: 146,
        completed: 556,
    };
    for revived in [&svc, &twin] {
        assert_eq!(revived.sim().ledger().fingerprint(), AFTER_500);
        assert_eq!(revived.latency_summary(), Some(summary));
    }
}
