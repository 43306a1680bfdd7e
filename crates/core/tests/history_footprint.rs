//! A meeting costs the ledger one flat record and no heap block. Measured,
//! not argued: a counting global allocator watches a bare `MeetingLedger`
//! go through 10 000 convene → essential × 2 → leave → terminate cycles.
//! What may allocate is the event `Vec` of each observing call that has an
//! event (the convene's and the termination's), three calls a sealed
//! segment (its buffer, that buffer trimmed to what was written, and the
//! shared handle) and the amortized growth of the tail and the segment
//! list — nothing per instance. The `Vec` / `BTreeSet` / `Vec` record this
//! replaced made three more calls per meeting (50 000 here).

use sscc_core::cc1::Cc1State;
use sscc_core::meetings::{MeetingLedger, SEGMENT};
use sscc_core::{ActionClass, MeetingInstance, Status};
use sscc_hypergraph::{generators, EdgeId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static CALLS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a relaxed atomic increment,
// which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`; `new_size`
        // is the caller's, passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

// One test: the counter is process-wide, so nothing else may run beside it.
#[test]
fn a_meeting_costs_one_flat_record_and_no_heap_block() {
    assert!(std::mem::size_of::<MeetingInstance>() <= 96);

    let h = generators::fig2();
    let edge = EdgeId(2);
    let (a, b) = (h.dense_of(3), h.dense_of(4));
    let at = |status| Cc1State {
        s: status,
        p: Some(edge),
        t: false,
    };
    let idle = vec![Cc1State::idle(); h.n()];
    let (mut waiting, mut done) = (idle.clone(), idle.clone());
    for q in [a, b] {
        waiting[q] = at(Status::Waiting);
        done[q] = at(Status::Done);
    }
    let discuss = [a, b].map(|q| (q, ActionClass::Essential, Some(edge)));
    let leave = [(a, ActionClass::Leave, Some(edge))];
    let touched = [edge];

    let mut ledger = MeetingLedger::new(&h, &idle);
    const CYCLES: usize = 10_000;
    let before = CALLS.load(Ordering::Relaxed);
    for cycle in 0..CYCLES as u64 {
        let step = 3 * cycle;
        ledger.observe_delta(&h, &waiting, step, cycle, &[], &touched);
        ledger.observe_delta(&h, &done, step + 1, cycle, &discuss, &touched);
        ledger.observe_delta(&h, &idle, step + 2, cycle, &leave, &touched);
    }
    let calls = CALLS.load(Ordering::Relaxed) - before;
    let held = ledger.footprint();
    eprintln!("{calls} allocator calls, {held:?}");

    assert_eq!(ledger.convened_count(), CYCLES);
    let last = ledger.instances().last().unwrap();
    assert_eq!(last.discussants().collect::<Vec<_>>(), [a, b]);
    assert_eq!(last.leavers().collect::<Vec<_>>(), [a]);
    // Observing seals whole segments only.
    let segments = held.sealed_records / SEGMENT;
    assert!(
        segments >= 2 && held.sealed_records.is_multiple_of(SEGMENT),
        "{held:?}"
    );
    assert!(
        calls <= 2 * CYCLES + 3 * segments + 32,
        "{calls} allocator calls over {} observing calls, {held:?}",
        3 * CYCLES
    );
}
