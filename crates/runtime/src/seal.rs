//! Sealed-segment caches: the mechanism behind **online snapshots**.
//!
//! Observers like the meeting ledger and the execution trace grow
//! append-mostly histories: past entries become immutable while a small
//! live tail keeps changing. Serializing such a history from scratch on
//! every checkpoint costs `O(history)` — unacceptable inside a service
//! tick loop whose steps are microseconds.
//!
//! A [`SealCache`] keeps the wire encoding of the immutable prefix as a
//! list of shared, immutable segments (`Arc<Vec<u8>>`: the buffer a segment
//! was encoded into *is* the segment — an `Arc<[u8]>` would copy it once
//! more into its own allocation). Extending the seal
//! encodes only the entries that became immutable since the last capture;
//! a snapshot then *references* the segments (an `Arc` clone each) instead
//! of copying or re-encoding them. Assembling the full flat blob — a
//! `memcpy` per segment — happens in `to_bytes`, off the engine's critical
//! path.
//!
//! The owner is responsible for *invalidating* the cache ([`SealCache::reset`])
//! whenever a supposedly-immutable entry is rewritten in place (the ledger
//! does this when a topology mutation remaps historical edge ids).

use std::sync::Arc;

/// The encoded immutable prefix of a growing sequence, in order, as
/// shared segments. `covered` counts the *entries* (not bytes) sealed so
/// far; the caller provides the entry encoding.
#[derive(Clone, Debug, Default)]
pub struct SealCache {
    covered: usize,
    segments: Vec<Arc<Vec<u8>>>,
}

impl SealCache {
    /// An empty cache (nothing sealed).
    pub fn new() -> Self {
        Self::default()
    }

    /// How many entries the sealed segments encode.
    pub fn covered(&self) -> usize {
        self.covered
    }

    /// The sealed segments, oldest first. Concatenated, they are exactly
    /// the wire encoding of entries `0..covered()`.
    pub fn segments(&self) -> &[Arc<Vec<u8>>] {
        &self.segments
    }

    /// Total sealed bytes.
    pub fn bytes(&self) -> usize {
        self.segments.iter().map(|s| s.len()).sum()
    }

    /// Drop everything sealed (entries were rewritten in place; the next
    /// seal re-encodes from entry 0).
    pub fn reset(&mut self) {
        self.covered = 0;
        self.segments.clear();
    }

    /// Seal entries `covered()..upto`: `encode` must append exactly their
    /// wire encoding to the buffer it is given, which is allocated once
    /// with room for `bound` bytes — an upper bound on that encoding keeps
    /// the segment from ever moving; a low one costs reallocations, never a
    /// byte. No-op when `upto` is not ahead of the seal.
    pub fn extend_to(&mut self, upto: usize, bound: usize, encode: impl FnOnce(&mut Vec<u8>)) {
        if upto <= self.covered {
            return;
        }
        let mut buf = Vec::with_capacity(bound);
        encode(&mut buf);
        if !buf.is_empty() {
            self.segments.push(Arc::new(buf));
        }
        self.covered = upto;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;

    #[test]
    fn sealing_accumulates_segments_in_order() {
        let data: Vec<u64> = (0..100).map(|i| i * 7).collect();
        let mut seal = SealCache::new();
        let mut flat = Vec::new();
        for &x in &data {
            wire::put_u64(&mut flat, x);
        }
        // Seal in three uneven waves — under an exact bound, a low one and
        // none at all: the bound sizes the buffer, never the bytes.
        for (upto, bound) in [(13usize, 8 * 13), (13, 0), (61, 3), (100, 0)] {
            let covered = seal.covered();
            seal.extend_to(upto, bound, |buf| {
                for &x in &data[covered..upto] {
                    wire::put_u64(buf, x);
                }
            });
        }
        assert_eq!(seal.covered(), 100);
        let joined: Vec<u8> = seal
            .segments()
            .iter()
            .flat_map(|s| s.iter().copied())
            .collect();
        assert_eq!(joined, flat, "segments concatenate to the flat encoding");
        assert_eq!(seal.bytes(), flat.len());
    }

    #[test]
    fn reset_drops_everything() {
        let mut seal = SealCache::new();
        seal.extend_to(5, 5, |buf| buf.extend_from_slice(b"hello"));
        assert_eq!(seal.covered(), 5);
        assert_eq!(seal.bytes(), 5);
        seal.reset();
        assert_eq!(seal.covered(), 0);
        assert!(seal.segments().is_empty());
    }

    #[test]
    fn empty_extension_adds_no_segment() {
        let mut seal = SealCache::new();
        seal.extend_to(3, 0, |_| {});
        assert_eq!(seal.covered(), 3);
        assert!(seal.segments().is_empty(), "no zero-length segments");
    }
}
