//! Delta-compressed action recordings.
//!
//! A [`StepTrace`] is a [`Trace`] snapshot in
//! a compact durable form. Step and round indices are monotone over the
//! event list, so both are stored as varint *deltas* from the previous
//! event; process and action ids are small varints. A steady-state SSCC
//! event costs 4–6 bytes instead of the 32 of the in-memory struct.
//!
//! The payload of a [`wire::Envelope`] (magic `b"STRC"`, version 2; version
//! 1 is the same layout under the envelope's previous checksum and still
//! opens):
//!
//! ```text
//! count    varint   number of events
//! events   count ×  (Δstep varint, Δround varint, process varint,
//!                    action varint)
//! ```

use sscc_runtime::prelude::{Trace, TraceEvent};
use sscc_runtime::wire::{self, Envelope, EnvelopeError, Reader};
use std::fmt;

/// Framing of a [`StepTrace`] artifact.
pub const ENVELOPE: Envelope = Envelope {
    magic: b"STRC",
    version: 2,
    previous: None,
    legacy: Some(1),
};

/// Why a [`StepTrace`] artifact failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceDecodeError {
    /// Not a readable step-trace artifact: wrong magic, unknown version,
    /// checksum mismatch, or a truncated/malformed event stream.
    Envelope(EnvelopeError),
    /// A delta overflowed `u64` step/round arithmetic.
    Overflow,
}

impl fmt::Display for TraceDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceDecodeError::Envelope(e) => write!(f, "not a readable step trace: {e}"),
            TraceDecodeError::Overflow => write!(f, "step-trace delta overflow"),
        }
    }
}

impl std::error::Error for TraceDecodeError {}

impl From<EnvelopeError> for TraceDecodeError {
    fn from(e: EnvelopeError) -> Self {
        TraceDecodeError::Envelope(e)
    }
}

/// An ordered recording of executed actions, cheap to persist and replay.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StepTrace {
    events: Vec<TraceEvent>,
}

impl StepTrace {
    /// Wrap an event list (must be ordered by step; [`Trace`] records are).
    pub fn from_events(events: Vec<TraceEvent>) -> Self {
        StepTrace { events }
    }

    /// Snapshot a live in-memory trace.
    pub fn from_trace(trace: &Trace) -> Self {
        Self::from_events(trace.events().to_vec())
    }

    /// The recorded events, in execution order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The suffix of events at or after `step` — the replay payload for a
    /// checkpoint taken at step boundary `step`.
    pub fn since(&self, step: u64) -> StepTrace {
        let at = self.events.partition_point(|e| e.step < step);
        StepTrace {
            events: self.events[at..].to_vec(),
        }
    }

    /// Step index of the last recorded event, if any.
    pub fn last_step(&self) -> Option<u64> {
        self.events.last().map(|e| e.step)
    }

    /// Serialize to the compressed artifact format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.events.len() * 5 + 18);
        ENVELOPE.seal(&mut out, |body| {
            wire::put_varint(body, self.events.len() as u64);
            let (mut step, mut round) = (0u64, 0u64);
            for e in &self.events {
                wire::put_varint(body, e.step - step);
                wire::put_varint(body, e.round - round);
                wire::put_varint(body, e.process as u64);
                wire::put_varint(body, e.action as u64);
                step = e.step;
                round = e.round;
            }
        });
        out
    }

    /// Parse and verify an artifact produced by [`StepTrace::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TraceDecodeError> {
        let mut b = ENVELOPE.open(bytes)?;
        let varint = |b: &mut Reader| b.varint().ok_or(EnvelopeError::Truncated);
        let count = varint(&mut b)?;
        // Each event costs ≥ 4 bytes encoded: a count claiming more events
        // than bytes remain is corrupt, not a reservation.
        if count > (b.remaining() / 4) as u64 {
            return Err(EnvelopeError::Truncated.into());
        }
        let mut events = Vec::with_capacity(count as usize);
        let (mut step, mut round) = (0u64, 0u64);
        for _ in 0..count {
            let (ds, dr) = (varint(&mut b)?, varint(&mut b)?);
            let (process, action) = (varint(&mut b)?, varint(&mut b)?);
            step = step.checked_add(ds).ok_or(TraceDecodeError::Overflow)?;
            round = round.checked_add(dr).ok_or(TraceDecodeError::Overflow)?;
            events.push(TraceEvent {
                step,
                round,
                process: usize::try_from(process).map_err(|_| TraceDecodeError::Overflow)?,
                action: usize::try_from(action).map_err(|_| TraceDecodeError::Overflow)?,
            });
        }
        if !b.is_empty() {
            return Err(EnvelopeError::Truncated.into());
        }
        Ok(StepTrace { events })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        let mut v = Vec::new();
        let mut step = 0;
        for i in 0..500u64 {
            step += i % 3; // repeated steps (several actions per step) and gaps
            v.push(TraceEvent {
                step,
                round: step / 7,
                process: (i % 13) as usize,
                action: (i % 5) as usize,
            });
        }
        v
    }

    #[test]
    fn roundtrips_bit_identical() {
        let t = StepTrace::from_events(sample_events());
        let bytes = t.to_bytes();
        assert_eq!(StepTrace::from_bytes(&bytes).unwrap(), t);
        // Compression: well under the 32 B/event in-memory footprint.
        assert!(
            bytes.len() < t.len() * 8,
            "{} bytes for {} events",
            bytes.len(),
            t.len()
        );
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = StepTrace::default();
        assert_eq!(StepTrace::from_bytes(&t.to_bytes()).unwrap(), t);
    }

    #[test]
    fn since_slices_at_the_step_boundary() {
        let t = StepTrace::from_events(sample_events());
        let cut = 100;
        let suffix = t.since(cut);
        assert!(suffix.events().iter().all(|e| e.step >= cut));
        assert_eq!(
            t.len(),
            suffix.len() + t.events().iter().filter(|e| e.step < cut).count()
        );
    }

    #[test]
    fn corruption_fails_closed() {
        let t = StepTrace::from_events(sample_events());
        let bytes = t.to_bytes();
        wire::fails_closed(Some(&ENVELOPE), &bytes, |b| {
            StepTrace::from_bytes(b).is_ok()
        });
        let mut b = bytes.clone();
        *b.last_mut().unwrap() ^= 0x10;
        assert!(matches!(
            StepTrace::from_bytes(&b),
            Err(TraceDecodeError::Envelope(
                EnvelopeError::ChecksumMismatch { .. }
            ))
        ));
    }

    #[test]
    fn count_is_bounded_by_the_bytes_behind_it() {
        // Under a valid seal, 40 zero bytes are exactly ten all-zero events
        // (≥ 4 bytes each); any larger count is refused up front
        // (`tests/bounded_decode.rs` measures that nothing is reserved).
        let sealed = |count: u8| {
            let mut bytes = Vec::new();
            ENVELOPE.seal(&mut bytes, |p| {
                p.push(count);
                p.extend_from_slice(&[0; 40]);
            });
            bytes
        };
        assert_eq!(StepTrace::from_bytes(&sealed(10)).unwrap().len(), 10);
        assert_eq!(
            StepTrace::from_bytes(&sealed(11)),
            Err(TraceDecodeError::Envelope(EnvelopeError::Truncated))
        );
    }

    #[test]
    fn bytes_are_identical_to_the_pre_envelope_writer() {
        // Golden bytes written by the hand-rolled framing the envelope
        // replaced — b"STRC", version 1, FNV-1a 64 of the body, the body —
        // rebuilt here the same way: the artifact is no longer written, but
        // the body layout is still this one and a stored file still reads.
        let event = |step, round, process, action| TraceEvent {
            step,
            round,
            process,
            action,
        };
        let t = StepTrace::from_events(vec![
            event(0, 0, 1, 0),
            event(3, 0, 200, 2),
            event(3, 1, 5, 4),
        ]);
        let v2 = t.to_bytes();
        let body = &v2[ENVELOPE.header_len()..];
        let mut v1 = b"STRC".to_vec();
        wire::put_u16(&mut v1, 1);
        wire::put_u64(&mut v1, wire::fnv1a64(body));
        v1.extend_from_slice(body);
        assert_eq!(
            v1,
            [
                83, 84, 82, 67, 1, 0, 57, 176, 231, 32, 123, 147, 76, 65, 3, 0, 0, 1, 0, 3, 0, 200,
                1, 2, 0, 1, 5, 4
            ]
        );
        let read = StepTrace::from_bytes(&v1).expect("a version-1 artifact still opens");
        assert_eq!(read, t);
        assert_eq!(read.to_bytes(), v2, "and is written back as version 2");
        assert_eq!(v2[4..6], [2, 0]);
        // Version 2 bytes under the version-1 label: the new checksum does
        // not vouch for the old version.
        let mut relabelled = v2.clone();
        relabelled[4] = 1;
        assert!(matches!(
            StepTrace::from_bytes(&relabelled),
            Err(TraceDecodeError::Envelope(
                EnvelopeError::ChecksumMismatch { .. }
            ))
        ));
    }
}
