//! No decoder reserves memory from a count it has not checked against the
//! bytes that remain: an artifact whose seal is valid but whose element
//! count lies is refused after allocating at most a small multiple of its
//! own length. Measured, not argued — a counting global allocator records
//! the largest single request made while the decoder runs.

use sscc::persist::{StepTrace, TraceDecodeError};
use sscc::runtime::wire::{self, Envelope, EnvelopeError};
use sscc_dist::BoundaryFrame;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LARGEST_REQUEST: AtomicUsize = AtomicUsize::new(0);

struct Recording;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a relaxed atomic max, which
// neither allocates nor unwinds. `realloc` keeps its default (alloc + copy +
// dealloc), so growth is recorded too.
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Recording = Recording;

/// Largest single allocation requested while `decode` runs.
fn largest_request_during(decode: impl FnOnce()) -> usize {
    LARGEST_REQUEST.store(0, Ordering::Relaxed);
    decode();
    LARGEST_REQUEST.load(Ordering::Relaxed)
}

/// `payload` under a valid seal of `envelope`.
fn sealed(envelope: Envelope, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    envelope.seal(&mut out, |p| p.extend_from_slice(payload));
    out
}

// One test: the recorder is process-wide, so nothing else may run beside it.
#[test]
fn lying_counts_are_refused_without_reserving_for_them() {
    const BODY: usize = 64 * 1024;

    // A step trace claiming one event per body byte (each costs ≥ 4).
    let mut body = Vec::new();
    wire::put_varint(&mut body, BODY as u64);
    body.resize(body.len() + BODY, 0);
    let envelope = Envelope {
        magic: b"STRC",
        version: 1,
    };
    let bytes = sealed(envelope, &body);
    let largest = largest_request_during(|| {
        assert_eq!(
            StepTrace::from_bytes(&bytes),
            Err(TraceDecodeError::Envelope(EnvelopeError::Truncated))
        );
    });
    assert!(
        largest <= bytes.len(),
        "step trace: a {largest}-byte request while refusing {} bytes",
        bytes.len()
    );

    // A boundary frame claiming one entry per payload byte (each costs ≥ 4).
    let mut payload = vec![0u8; 24]; // from, to, step, seq
    wire::put_varint(&mut payload, BODY as u64);
    payload.resize(payload.len() + BODY, 0);
    let envelope = Envelope {
        magic: &[0x57, 0xD1],
        version: 2,
    };
    let bytes = sealed(envelope, &payload);
    let largest = largest_request_during(|| {
        assert_eq!(BoundaryFrame::<u32>::decode(&bytes), None);
    });
    assert!(
        largest <= bytes.len(),
        "frame: a {largest}-byte request while refusing {} bytes",
        bytes.len()
    );
}
