//! A terminated meeting is resident as its sealed wire bytes, not as a
//! 96-byte struct — counted at the allocator, not argued. CC1 on a ring
//! (`ring(1536, 2)` in release, `ring(48, 2)` in debug, whose guard
//! re-checks make a large ring slow):
//!
//! - while the history grows, the live heap grows by at most 16 bytes a
//!   sealed record, plus the tail the ledger still holds as structs;
//! - a ledger decoded from its own bytes holds the same: the sealed
//!   prefix it adopts, the tail and per-world state;
//! - every step's events are indexed through `instances()[idx]`, as the
//!   service and the benchmark's mirrors do, and not one indexed read
//!   decodes a sealed segment — before a checkpoint round trip or after.

mod common;

use common::live_bytes;
use sscc::core::meetings::{MeetingLedger, SEGMENT};
use sscc::core::sim::Cc1Sim;
use sscc::core::{LedgerEvent, MeetingInstance};
use sscc::hypergraph::generators;
use sscc::persist::Checkpoint;
use sscc::runtime::wire::Reader;
use std::sync::Arc;

const RING: usize = if cfg!(debug_assertions) { 48 } else { 1536 };

/// Resident bytes a sealed record may cost, segment bookkeeping included.
const PER_SEALED: usize = 16;

/// Step `steps` times, indexing every event of every step; the most
/// records the tail held. Panics if an indexed read decoded a segment.
fn step_and_index(sim: &mut Cc1Sim, steps: u64) -> usize {
    let mut tail = 0;
    for _ in 0..steps {
        sim.step();
        for ev in sim.last_events() {
            let (LedgerEvent::Convened(idx) | LedgerEvent::Terminated(idx)) = *ev;
            assert!(sim.ledger().instances()[idx].participants.len() == 2);
        }
        let held = sim.ledger().footprint();
        assert_eq!(held.decoded_records, 0, "step {}: {held:?}", sim.steps());
        tail = tail.max(held.tail_records);
    }
    tail
}

/// Live heap a tail of at most `tail` records may take: a `Vec` that
/// doubled its way there.
fn tail_bytes(tail: usize) -> usize {
    2 * tail * std::mem::size_of::<MeetingInstance>()
}

// One test: the recorder is process-wide, so nothing else may run beside it.
#[test]
fn terminated_meetings_are_resident_as_sealed_bytes() {
    let h = Arc::new(generators::ring(RING, 2));
    let (n, m) = (h.n(), h.m());
    let mut sim = Cc1Sim::standard(Arc::clone(&h), 7, 1);
    // Warm-up: per-step scratch reaches its size.
    step_and_index(&mut sim, 400);

    let (before, start) = (live_bytes(), sim.ledger().footprint());
    let tail = step_and_index(&mut sim, 14_600);
    let (grown, held) = (live_bytes() - before, sim.ledger().footprint());
    let sealed = held.sealed_records - start.sealed_records;
    eprintln!(
        "cc1 ring{RING}: {held:?}; heap grew {grown} B for {sealed} sealed records ({:.1} B each), tail up to {tail}",
        grown as f64 / sealed as f64
    );
    assert!(sealed > 2 * SEGMENT, "several segments sealed: {held:?}");
    assert!(
        grown <= PER_SEALED * sealed + tail_bytes(tail),
        "{grown} B for {sealed} sealed records and a tail of up to {tail}"
    );

    // The ledger decoded from its bytes: the sealed prefix adopted as it
    // is, the tail from the oldest live meeting on, per-world state.
    let mut blob = Vec::new();
    sim.ledger().save_state(&mut blob);
    let before = live_bytes();
    let ledger = MeetingLedger::restore_state(&mut Reader::new(&blob)).unwrap();
    let retained = live_bytes() - before;
    let read = ledger.footprint();
    eprintln!("restored: {read:?}, {retained} B retained");
    let per_world = 64 * (n + m);
    assert!(read.sealed_records >= held.sealed_records, "{read:?}");
    assert!(
        retained <= PER_SEALED * read.sealed_records + tail_bytes(read.tail_records) + per_world,
        "{retained} B for {read:?}"
    );
    drop(ledger);

    // A checkpoint round trip, and the restored sim steps and indexes on.
    let back = Checkpoint::capture_cc1(&sim).unwrap().to_bytes().to_vec();
    let mut restored = Checkpoint::from_bytes(&back)
        .unwrap()
        .restore_cc1()
        .unwrap();
    drop(sim);
    assert_eq!(restored.ledger().footprint().decoded_records, 0);
    step_and_index(&mut restored, 2_000);
}
