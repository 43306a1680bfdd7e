//! The boundary-state frame: the one wire format shard actors exchange.
//!
//! A frame is a batch of `(vertex, state)` pairs — the boundary states one
//! sender shard committed this step that one receiver shard's guards read —
//! plus the causal metadata that keeps ghost reads aligned to step
//! boundaries: the **step tag** (the logical clock of the committing step)
//! and a gap-free per-channel **sequence number**. States are serialized
//! with the same [`StateCodec`] implementations the checkpoint writer uses,
//! so any state type that can be persisted can cross a shard boundary.
//!
//! On the wire a frame is the payload of a [`wire::Envelope`] (magic
//! `[0x57, 0xD1]`, version [`FRAME_VERSION`]):
//!
//! ```text
//! from     u32
//! to       u32
//! step     u64
//! seq      u64
//! count    varint
//! entries  count × (vertex u32, state via StateCodec)
//! ```
//!
//! Decoding is total and fail-closed: every corruption decodes to `None`,
//! never to a wrong frame and never to a panic. (Inside the in-process
//! transport a corrupt frame is impossible; the posture is for the socket
//! backends the [`BoundaryTransport`](crate::transport::BoundaryTransport)
//! seam admits, where the bytes really do cross a machine boundary.)

use sscc_runtime::wire::{self, Envelope, StateCodec};

/// Current frame format version. Frames are never persisted, so a bump
/// needs no migration: both ends of a channel are the same build.
pub const FRAME_VERSION: u16 = 3;

/// Framing of a [`BoundaryFrame`].
pub const ENVELOPE: Envelope = Envelope {
    magic: &[0x57, 0xD1],
    version: FRAME_VERSION,
    previous: None,
    legacy: None,
};

/// One batch of boundary states from shard `from` to shard `to`, committed
/// at step `step`, carrying per-channel sequence number `seq`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoundaryFrame<S> {
    /// Sender shard.
    pub from: usize,
    /// Receiver shard.
    pub to: usize,
    /// Logical clock of the committing step (0-based step tag). A receiver
    /// applies step-`t` frames while preparing step `t + 1`, so ghost
    /// values always hold the pre-step configuration — the
    /// composite-atomicity alignment the asserts in the engine pin.
    pub step: u64,
    /// Gap-free per-`(from, to)`-channel sequence number, starting at 1.
    /// Strict monotonicity is the loss/duplication/reorder detector: the
    /// in-process transport can never trip it, a future socket backend can.
    pub seq: u64,
    /// The `(dense vertex, committed state)` pairs, ascending by vertex.
    pub entries: Vec<(usize, S)>,
}

impl<S: StateCodec> BoundaryFrame<S> {
    /// Serialize the frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(40 + self.entries.len() * 8);
        ENVELOPE.seal(&mut out, |p| {
            wire::put_u32(p, self.from as u32);
            wire::put_u32(p, self.to as u32);
            wire::put_u64(p, self.step);
            wire::put_u64(p, self.seq);
            wire::put_varint(p, self.entries.len() as u64);
            for (v, s) in &self.entries {
                wire::put_u32(p, *v as u32);
                s.encode(p);
            }
        });
        out
    }

    /// Deserialize a frame; `None` on any truncation, corruption, unknown
    /// version, or trailing garbage — fail closed, never panic.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = ENVELOPE.open(bytes).ok()?;
        let from = r.u32()? as usize;
        let to = r.u32()? as usize;
        let step = r.u64()?;
        let seq = r.u64()?;
        let count = r.varint()?;
        // Each entry is at least 4 bytes of vertex id: a count claiming
        // more entries than bytes remain is corrupt, not a huge allocation.
        if count > (r.remaining() as u64) / 4 {
            return None;
        }
        let mut entries = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let v = r.u32()? as usize;
            let s = S::decode(&mut r)?;
            entries.push((v, s));
        }
        if !r.is_empty() {
            return None;
        }
        Some(BoundaryFrame {
            from,
            to,
            step,
            seq,
            entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BoundaryFrame<u32> {
        BoundaryFrame {
            from: 1,
            to: 3,
            step: 41,
            seq: 7,
            entries: vec![(2, 10), (5, 0), (9, u32::MAX)],
        }
    }

    #[test]
    fn roundtrip_is_identity() {
        let f = sample();
        assert_eq!(BoundaryFrame::<u32>::decode(&f.encode()), Some(f));
        let empty = BoundaryFrame::<u32> {
            from: 0,
            to: 1,
            step: 0,
            seq: 1,
            entries: vec![],
        };
        assert_eq!(BoundaryFrame::<u32>::decode(&empty.encode()), Some(empty));
    }

    #[test]
    fn corruption_fails_closed() {
        // Every prefix, every single-bit flip, a trailing byte, and a
        // foreign magic / future version under a valid seal: all `None`.
        wire::fails_closed(Some(&ENVELOPE), &sample().encode(), |b| {
            BoundaryFrame::<u32>::decode(b).is_some()
        });
    }

    #[test]
    fn version_1_frame_is_rejected() {
        // The pre-envelope layout: u16 magic, u8 version, fields, trailing
        // FNV-1a 64 over everything before it. The fields did not change.
        let mut old = vec![0x57, 0xD1, 1];
        old.extend_from_slice(&sample().encode()[ENVELOPE.header_len()..]);
        let sum = wire::fnv1a64(&old);
        wire::put_u64(&mut old, sum);
        assert_eq!(BoundaryFrame::<u32>::decode(&old), None);
        // So is version 2, the same fields under the envelope's previous
        // checksum: a frame never outlives the build that sent it.
        let mut v2 = vec![0x57, 0xD1, 2, 0];
        let payload = &sample().encode()[ENVELOPE.header_len()..];
        wire::put_u64(&mut v2, wire::fnv1a64(payload));
        v2.extend_from_slice(payload);
        assert_eq!(
            ENVELOPE.open(&v2).err(),
            Some(wire::EnvelopeError::UnsupportedVersion(2))
        );
        assert_eq!(BoundaryFrame::<u32>::decode(&v2), None);
        assert_eq!(FRAME_VERSION, 3);
    }

    #[test]
    fn oversized_count_is_rejected_without_allocating() {
        // An absurd entry count under a valid seal: the count
        // sanity check fires before `Vec::with_capacity` can see it.
        let empty = BoundaryFrame::<u32> {
            from: 0,
            to: 1,
            step: 3,
            seq: 1,
            entries: vec![],
        };
        // The varint count is the last byte of an empty frame.
        let payload = empty.encode().split_off(ENVELOPE.header_len());
        let (count, fields) = payload.split_last().unwrap();
        assert_eq!(*count, 0, "empty frame carries a zero count");
        let mut bytes = Vec::new();
        ENVELOPE.seal(&mut bytes, |p| {
            p.extend_from_slice(fields);
            p.push(0x7F);
        });
        assert!(ENVELOPE.open(&bytes).is_ok(), "only the count is wrong");
        assert_eq!(BoundaryFrame::<u32>::decode(&bytes), None);
    }
}
