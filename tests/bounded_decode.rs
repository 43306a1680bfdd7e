//! No decoder reserves memory from a count it has not checked against the
//! bytes that remain: an artifact whose seal is valid but whose element
//! count lies is refused after allocating at most a small multiple of its
//! own length. Measured, not argued — a counting global allocator records
//! the largest single request made while the decoder runs.

mod common;

use common::requests_during;
use sscc::persist::{steptrace, StepTrace, TraceDecodeError};
use sscc::runtime::wire::{self, Envelope, EnvelopeError};
use sscc_dist::{frame, BoundaryFrame};

/// `payload` under a valid seal of `envelope` — checked to be one, so that
/// what refuses the artifact below is the payload decoder, not the framing.
fn sealed(envelope: &Envelope, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    envelope.seal(&mut out, |p| p.extend_from_slice(payload));
    assert!(envelope.open(&out).is_ok(), "the envelope itself is intact");
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
    let bytes = sealed(&steptrace::ENVELOPE, &body);
    let (requests, ()) = requests_during(usize::MAX, || {
        assert_eq!(
            StepTrace::from_bytes(&bytes),
            Err(TraceDecodeError::Envelope(EnvelopeError::Truncated))
        );
    });
    assert!(
        requests.largest <= bytes.len(),
        "step trace: {requests:?} while refusing {} bytes",
        bytes.len()
    );

    // A boundary frame claiming one entry per payload byte (each costs ≥ 4).
    let mut payload = vec![0u8; 24]; // from, to, step, seq
    wire::put_varint(&mut payload, BODY as u64);
    payload.resize(payload.len() + BODY, 0);
    let bytes = sealed(&frame::ENVELOPE, &payload);
    let (requests, ()) = requests_during(usize::MAX, || {
        assert_eq!(BoundaryFrame::<u32>::decode(&bytes), None);
    });
    assert!(
        requests.largest <= bytes.len(),
        "frame: {requests:?} while refusing {} bytes",
        bytes.len()
    );
}
