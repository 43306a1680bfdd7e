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
//! Decoding is **total and fail-closed**, mirroring the persistence
//! container: a magic tag rejects foreign bytes, a version byte rejects
//! future formats, and a trailing FNV-1a checksum over the whole payload
//! rejects any bit flip — every corruption decodes to `None`, never to a
//! wrong frame and never to a panic. (Inside the in-process transport a
//! corrupt frame is impossible; the posture is for the socket backends the
//! [`BoundaryTransport`](crate::transport::BoundaryTransport) seam admits,
//! where the bytes really do cross a machine boundary.)

pub use sscc_runtime::wire::fnv1a64;
use sscc_runtime::wire::{put_u16, put_u32, put_u64, put_u8, put_varint, Reader, StateCodec};

/// Magic tag opening every boundary frame.
pub const FRAME_MAGIC: u16 = 0xD157;

/// Current frame format version.
pub const FRAME_VERSION: u8 = 1;

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
    /// composite-atomicity alignment the debug asserts in the engine pin.
    pub step: u64,
    /// Gap-free per-`(from, to)`-channel sequence number, starting at 1.
    /// Strict monotonicity is the loss/reorder detector: the in-process
    /// transport can never trip it, a future socket backend can.
    pub seq: u64,
    /// The `(dense vertex, committed state)` pairs, ascending by vertex.
    pub entries: Vec<(usize, S)>,
}

impl<S: StateCodec> BoundaryFrame<S> {
    /// Serialize the frame: header, entries, trailing FNV-1a checksum over
    /// everything before it.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(40 + self.entries.len() * 8);
        put_u16(&mut out, FRAME_MAGIC);
        put_u8(&mut out, FRAME_VERSION);
        put_u32(&mut out, self.from as u32);
        put_u32(&mut out, self.to as u32);
        put_u64(&mut out, self.step);
        put_u64(&mut out, self.seq);
        put_varint(&mut out, self.entries.len() as u64);
        for (v, s) in &self.entries {
            put_u32(&mut out, *v as u32);
            s.encode(&mut out);
        }
        let sum = fnv1a64(&out);
        put_u64(&mut out, sum);
        out
    }

    /// Deserialize a frame; `None` on any truncation, corruption, unknown
    /// version, or trailing garbage — fail closed, never panic.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 8 {
            return None;
        }
        let (payload, sum_bytes) = bytes.split_at(bytes.len() - 8);
        let sum = u64::from_le_bytes(sum_bytes.try_into().ok()?);
        if fnv1a64(payload) != sum {
            return None;
        }
        let mut r = Reader::new(payload);
        if r.u16()? != FRAME_MAGIC {
            return None;
        }
        if r.u8()? != FRAME_VERSION {
            return None;
        }
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

    /// Rewrite the trailing checksum so a deliberately patched payload is
    /// otherwise self-consistent — isolates the header checks from the
    /// checksum check.
    fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
        let n = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..n]);
        bytes[n..].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    #[test]
    fn truncation_sweep_fails_closed() {
        // Mirrors the persistence container's posture: every prefix of a
        // valid frame decodes to `None`, never to a partial frame or panic.
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            assert_eq!(
                BoundaryFrame::<u32>::decode(&bytes[..len]),
                None,
                "prefix of {len} bytes must be rejected"
            );
        }
    }

    #[test]
    fn bit_flip_sweep_fails_closed() {
        // Any single bit flip — payload or checksum — must be caught.
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                assert_eq!(
                    BoundaryFrame::<u32>::decode(&flipped),
                    None,
                    "flip of byte {i} bit {bit} must be rejected"
                );
            }
        }
    }

    #[test]
    fn foreign_magic_and_future_version_rejected() {
        // A resealed frame with a wrong magic or a future version must be
        // rejected by the header checks, not merely the checksum.
        let bytes = sample().encode();
        let mut foreign = bytes.clone();
        foreign[0] ^= 0xFF;
        assert_eq!(BoundaryFrame::<u32>::decode(&reseal(foreign)), None);
        let mut future = bytes.clone();
        future[2] = FRAME_VERSION + 1;
        assert_eq!(BoundaryFrame::<u32>::decode(&reseal(future)), None);
    }

    #[test]
    fn oversized_count_is_rejected_without_allocating() {
        // Patch the entry count to an absurd value and reseal: the count
        // sanity check fires before `Vec::with_capacity` can see it.
        let empty = BoundaryFrame::<u32> {
            from: 0,
            to: 1,
            step: 3,
            seq: 1,
            entries: vec![],
        };
        let mut bytes = empty.encode();
        // Varint count sits right before the checksum in an empty frame.
        let pos = bytes.len() - 9;
        assert_eq!(bytes[pos], 0, "empty frame carries a zero count");
        bytes[pos] = 0x7F;
        assert_eq!(BoundaryFrame::<u32>::decode(&reseal(bytes)), None);
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        // Appending bytes breaks the checksum position; a frame must parse
        // exactly, not as a prefix.
        let mut bytes = sample().encode();
        bytes.push(0);
        assert_eq!(BoundaryFrame::<u32>::decode(&bytes), None);
    }
}
