//! The ledger is pinned twice over one run — CC1 on `ring(96, 2)`, seed 7,
//! 2 000 steps:
//!
//! * its **fingerprint** (`MeetingLedger::fingerprint`, a digest of the
//!   recorded fields, not of any bytes) was recorded before the compact
//!   history layout and holds under it: the trajectory is the one every
//!   earlier commit recorded, and the layout change lost nothing;
//! * its **wire bytes** (`MeetingLedger::save_state`, format version 3:
//!   committee table, varint records) are the layout's own pin. Every
//!   checkpoint, seal segment and benchmark digest hangs off these bytes,
//!   so a layout change moves them here by name — and must leave the
//!   fingerprint where it is.

use sscc_core::sim::Cc1Sim;
use sscc_hypergraph::generators;
use sscc_runtime::wire::fnv1a64;
use std::sync::Arc;

#[test]
fn ledger_bytes_and_trajectory_are_pinned() {
    let mut sim = Cc1Sim::standard(Arc::new(generators::ring(96, 2)), 7, 3);
    sim.run(2_000);
    assert!(sim.ledger().convened_count() > 1_000, "a busy history");
    assert_eq!(
        sim.ledger().fingerprint(),
        0x73ce_0eb5_b8c2_5440,
        "the trajectory moved"
    );
    let mut bytes = Vec::new();
    sim.ledger().save_state(&mut bytes);
    assert_eq!(
        (bytes.len(), fnv1a64(&bytes)),
        (37_025, 0xc04c_a2a5_9ad8_3f67),
        "MeetingLedger::save_state moved"
    );
}
