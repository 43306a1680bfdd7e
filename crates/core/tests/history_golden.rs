//! The ledger's wire bytes are pinned: CC1 on `ring(96, 2)`, seed 7, 2 000
//! steps must serialize to the bytes the `Vec` / `BTreeSet` / `Vec` record
//! of PR 13 wrote. The constant was recorded at that commit, before
//! `MeetingInstance` went flat; every digest, checkpoint and seal segment
//! hangs off these bytes, so a layout change that moves them fails here by
//! name.

use sscc_core::sim::Cc1Sim;
use sscc_hypergraph::generators;
use sscc_runtime::wire::fnv1a64;
use std::sync::Arc;

#[test]
fn ledger_bytes_match_the_pr13_record() {
    let mut sim = Cc1Sim::standard(Arc::new(generators::ring(96, 2)), 7, 3);
    sim.run(2_000);
    assert!(sim.ledger().convened_count() > 1_000, "a busy history");
    let mut bytes = Vec::new();
    sim.ledger().save_state(&mut bytes);
    assert_eq!(
        (bytes.len(), fnv1a64(&bytes)),
        (408_202, 0x4f66_9e40_2c13_272c),
        "MeetingLedger::save_state moved"
    );
}
