//! The byte layer: hand-rolled (de)serialization primitives, the one
//! [`Envelope`] every durable or transported artifact is framed with, and
//! the one adversarial harness ([`fails_closed`]) every decoder is held to.
//!
//! The build environment has no serde, so every checkpointable type writes
//! itself through these little-endian helpers (the binary twin of
//! `bench_json.rs`'s hand-rolled JSON). Readers are total: every decode
//! returns `Option` and a truncated or corrupted buffer surfaces as `None`,
//! never a panic — checkpoints come from disk and disks lie.

use sscc_hypergraph::EdgeId;

/// FNV-1a 64-bit checksum — the integrity primitive of every durable or
/// transported artifact in the workspace (checkpoints, step traces, service
/// frames, boundary frames). Not cryptographic; it guards against
/// truncation, bit rot and torn writes.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Append a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a `u16` (little-endian).
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32` (little-endian).
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` (little-endian).
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `bool` as one byte.
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Append a `usize` as a `u64`.
pub fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

/// Append an LEB128 varint (the compressed integer encoding the step-trace
/// recorder uses for selected-set and flag-flip deltas).
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append a length-prefixed byte blob.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_usize(out, bytes.len());
    out.extend_from_slice(bytes);
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Append a length-prefixed `usize` slice.
pub fn put_usize_slice(out: &mut Vec<u8>, v: &[usize]) {
    put_usize(out, v.len());
    for &x in v {
        put_usize(out, x);
    }
}

/// Append a length-prefixed `bool` slice.
pub fn put_bool_slice(out: &mut Vec<u8>, v: &[bool]) {
    put_usize(out, v.len());
    for &b in v {
        put_bool(out, b);
    }
}

/// Append a length-prefixed `u64` slice.
pub fn put_u64_slice(out: &mut Vec<u8>, v: &[u64]) {
    put_usize(out, v.len());
    for &x in v {
        put_u64(out, x);
    }
}

/// Append a length-prefixed `Option<u64>` slice (policy timer vectors).
pub fn put_opt_u64_slice(out: &mut Vec<u8>, v: &[Option<u64>]) {
    put_usize(out, v.len());
    for x in v {
        x.encode(out);
    }
}

/// The framing of every durable or transported artifact in the workspace:
///
/// ```text
/// magic    N bytes   names the artifact kind
/// version  u16       layout version of the payload
/// checksum u64       FNV-1a 64 over the payload bytes
/// payload  …         the artifact's own fields, to the end of the buffer
/// ```
///
/// An artifact kind is one `const Envelope`: its encoder writes payload
/// fields inside [`Envelope::seal`], its decoder reads them from the
/// [`Reader`] that [`Envelope::open`] returns. Nothing else in the workspace
/// writes or checks a magic, a version or a checksum.
#[derive(Clone, Copy, Debug)]
pub struct Envelope {
    /// Magic prefix naming the artifact kind.
    pub magic: &'static [u8],
    /// Payload layout version; [`Envelope::open`] rejects every other one.
    pub version: u16,
}

/// Why [`Envelope::open`] (or the payload decoder behind it) refused an
/// artifact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnvelopeError {
    /// The artifact ended early, a length field overran the buffer, or
    /// bytes were left over after the last payload field.
    Truncated,
    /// Not this kind of artifact: the magic differs.
    BadMagic,
    /// A layout version this build cannot read.
    UnsupportedVersion(u16),
    /// The payload does not hash to the checksum in the header.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the payload as read.
        actual: u64,
    },
}

impl std::fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvelopeError::Truncated => write!(f, "truncated or malformed"),
            EnvelopeError::BadMagic => write!(f, "bad magic"),
            EnvelopeError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            EnvelopeError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checksum mismatch: header {expected:#018x}, payload {actual:#018x}"
            ),
        }
    }
}

impl std::error::Error for EnvelopeError {}

impl Envelope {
    /// Append one sealed artifact to `out`: the header, then whatever
    /// `payload` writes — straight into `out`, no intermediate buffer —
    /// then the checksum patched into the header.
    pub fn seal<R>(&self, out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>) -> R) -> R {
        let start = out.len();
        out.extend_from_slice(self.magic);
        put_u16(out, self.version);
        put_u64(out, 0);
        let r = payload(out);
        let sum_at = start + self.magic.len() + 2;
        let sum = fnv1a64(&out[sum_at + 8..]);
        out[sum_at..sum_at + 8].copy_from_slice(&sum.to_le_bytes());
        r
    }

    /// Verify magic, version and checksum; the returned reader spans
    /// exactly the payload.
    pub fn open<'a>(&self, bytes: &'a [u8]) -> Result<Reader<'a>, EnvelopeError> {
        let mut r = Reader::new(bytes);
        if r.take(self.magic.len()).ok_or(EnvelopeError::Truncated)? != self.magic {
            return Err(EnvelopeError::BadMagic);
        }
        let version = r.u16().ok_or(EnvelopeError::Truncated)?;
        if version != self.version {
            return Err(EnvelopeError::UnsupportedVersion(version));
        }
        let expected = r.u64().ok_or(EnvelopeError::Truncated)?;
        let actual = fnv1a64(&r.buf[r.pos..]);
        if actual != expected {
            return Err(EnvelopeError::ChecksumMismatch { expected, actual });
        }
        Ok(r)
    }
}

/// The one adversarial harness every decoder is held to (a test helper: it
/// panics on the first violation). `decode` reports whether it *accepted*
/// its input; `bytes` is a valid encoding. Checked:
///
/// * `bytes` is accepted, every strict prefix rejected;
/// * every single-bit flip and one trailing byte are survived — no panic,
///   no allocation sized by a corrupted count. A bare payload
///   (`sealed: None`) may decode a flipped value to a different valid one;
///   it only ever travels inside an envelope;
/// * a sealed artifact (`sealed: Some(envelope)`) *rejects* each of those
///   too, and refuses a patched magic or version under a still-valid
///   checksum with the distinct [`EnvelopeError`].
///
/// Byte positions are exhaustive below 512 and 256 seeded samples (one
/// seeded bit each) beyond, so a sweep is identical on every run.
pub fn fails_closed(sealed: Option<&Envelope>, bytes: &[u8], decode: impl Fn(&[u8]) -> bool) {
    use rand::{Rng, SeedableRng};
    const EXHAUSTIVE: usize = 512;
    assert!(decode(bytes), "the untouched artifact must decode");
    let must_reject = |input: &[u8], what: std::fmt::Arguments| {
        assert!(!(decode(input) && sealed.is_some()), "{what} was accepted")
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(bytes.len() as u64);
    let mut positions: Vec<usize> = (0..bytes.len().min(EXHAUSTIVE)).collect();
    if bytes.len() > EXHAUSTIVE {
        positions.extend((0..256).map(|_| rng.random_range(EXHAUSTIVE..bytes.len())));
    }
    let mut scratch = bytes.to_vec();
    for at in positions {
        assert!(!decode(&bytes[..at]), "prefix of {at} bytes was accepted");
        let sampled_bit = rng.random_range(0..8);
        for bit in (0..8).filter(|&b| at < EXHAUSTIVE || b == sampled_bit) {
            scratch[at] ^= 1 << bit;
            must_reject(&scratch, format_args!("flip of byte {at} bit {bit}"));
            scratch[at] ^= 1 << bit;
        }
    }
    scratch.push(0);
    must_reject(&scratch, format_args!("a trailing byte"));
    let Some(envelope) = sealed else { return };
    let mut foreign = bytes.to_vec();
    foreign[0] ^= 0xff;
    assert_eq!(envelope.open(&foreign).err(), Some(EnvelopeError::BadMagic));
    must_reject(&foreign, format_args!("a foreign magic"));
    let (mut future, at, next) = (bytes.to_vec(), envelope.magic.len(), envelope.version + 1);
    future[at..at + 2].copy_from_slice(&next.to_le_bytes());
    assert_eq!(
        envelope.open(&future).err(),
        Some(EnvelopeError::UnsupportedVersion(next))
    );
    must_reject(&future, format_args!("a future version"));
}

/// A bounds-checked cursor over a byte buffer; every read is total.
#[derive(Clone, Copy, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Has every byte been consumed?
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Take the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    /// Read a `u16`.
    pub fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// Read a `bool` (rejecting anything but 0/1).
    pub fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Read a `usize` (stored as `u64`; rejects values over `usize::MAX`).
    pub fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    /// Read an LEB128 varint.
    pub fn varint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 64 {
                return None;
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Some(v);
            }
            shift += 7;
        }
    }

    /// Read a length-prefixed byte blob.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.usize()?;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Option<&'a str> {
        std::str::from_utf8(self.bytes()?).ok()
    }

    /// Read an element count, rejecting one the rest of the buffer cannot
    /// hold at `min_bytes` encoded bytes per element — the check that must
    /// precede any allocation sized by a count read from input.
    pub fn count(&mut self, min_bytes: usize) -> Option<usize> {
        let n = self.usize()?;
        (n <= self.remaining() / min_bytes).then_some(n)
    }

    /// Read a length-prefixed `usize` slice.
    pub fn usize_vec(&mut self) -> Option<Vec<usize>> {
        (0..self.count(8)?).map(|_| self.usize()).collect()
    }

    /// Read a length-prefixed `bool` slice.
    pub fn bool_vec(&mut self) -> Option<Vec<bool>> {
        (0..self.count(1)?).map(|_| self.bool()).collect()
    }

    /// Read a length-prefixed `u64` slice.
    pub fn u64_vec(&mut self) -> Option<Vec<u64>> {
        (0..self.count(8)?).map(|_| self.u64()).collect()
    }

    /// Read a length-prefixed `Option<u64>` slice.
    pub fn opt_u64_vec(&mut self) -> Option<Vec<Option<u64>>> {
        (0..self.count(1)?)
            .map(|_| Option::<u64>::decode(self))
            .collect()
    }
}

/// Per-process state (de)serialization, implemented by each layer crate for
/// its own state struct so the checkpoint writer stays generic over the
/// composed algorithm. Encodings must be fixed given the value — a decode
/// of an encode is the identical state, bit for bit.
pub trait StateCodec: Sized {
    /// Append this state to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decode one state; `None` on truncated/invalid input.
    fn decode(r: &mut Reader) -> Option<Self>;
}

impl StateCodec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        put_bool(out, *self);
    }
    fn decode(r: &mut Reader) -> Option<Self> {
        r.bool()
    }
}

impl StateCodec for u16 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u16(out, *self);
    }
    fn decode(r: &mut Reader) -> Option<Self> {
        r.u16()
    }
}

impl StateCodec for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, *self);
    }
    fn decode(r: &mut Reader) -> Option<Self> {
        r.u32()
    }
}

impl StateCodec for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, *self);
    }
    fn decode(r: &mut Reader) -> Option<Self> {
        r.u64()
    }
}

impl StateCodec for crate::compose::Layer {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u8(out, matches!(self, crate::compose::Layer::B).into());
    }
    fn decode(r: &mut Reader) -> Option<Self> {
        match r.u8()? {
            0 => Some(crate::compose::Layer::A),
            1 => Some(crate::compose::Layer::B),
            _ => None,
        }
    }
}

impl StateCodec for EdgeId {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.0);
    }
    fn decode(r: &mut Reader) -> Option<Self> {
        Some(EdgeId(r.u32()?))
    }
}

impl<T: StateCodec> StateCodec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => put_u8(out, 0),
            Some(v) => {
                put_u8(out, 1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader) -> Option<Self> {
        match r.u8()? {
            0 => Some(None),
            1 => Some(Some(T::decode(r)?)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"), "order-sensitive");
    }

    #[test]
    fn scalar_roundtrips() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_u16(&mut out, 300);
        put_u32(&mut out, 70_000);
        put_u64(&mut out, u64::MAX - 1);
        put_bool(&mut out, true);
        put_usize(&mut out, 123);
        put_str(&mut out, "checkpoint");
        let mut r = Reader::new(&out);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.u16(), Some(300));
        assert_eq!(r.u32(), Some(70_000));
        assert_eq!(r.u64(), Some(u64::MAX - 1));
        assert_eq!(r.bool(), Some(true));
        assert_eq!(r.usize(), Some(123));
        assert_eq!(r.str(), Some("checkpoint"));
        assert!(r.is_empty());
    }

    #[test]
    fn slices_roundtrip() {
        let mut out = Vec::new();
        put_usize_slice(&mut out, &[3, 1, 4, 1, 5]);
        put_bool_slice(&mut out, &[true, false, true]);
        put_u64_slice(&mut out, &[9, 8]);
        put_bytes(&mut out, b"\x00\xff");
        let mut r = Reader::new(&out);
        assert_eq!(r.usize_vec(), Some(vec![3, 1, 4, 1, 5]));
        assert_eq!(r.bool_vec(), Some(vec![true, false, true]));
        assert_eq!(r.u64_vec(), Some(vec![9, 8]));
        assert_eq!(r.bytes(), Some(&b"\x00\xff"[..]));
        assert!(r.is_empty());
    }

    #[test]
    fn varint_roundtrips() {
        let mut out = Vec::new();
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            put_varint(&mut out, v);
        }
        let mut r = Reader::new(&out);
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            assert_eq!(r.varint(), Some(v));
        }
        assert!(r.is_empty());
    }

    #[test]
    fn truncation_is_none_not_panic() {
        let mut out = Vec::new();
        put_u64(&mut out, 5);
        let mut r = Reader::new(&out[..4]);
        assert_eq!(r.u64(), None);
        let mut r2 = Reader::new(&[0x80u8; 12]);
        assert_eq!(r2.varint(), None, "unterminated varint");
        let mut r3 = Reader::new(&[2u8]);
        assert_eq!(r3.bool(), None, "bools are strictly 0/1");
    }

    #[test]
    fn state_codec_roundtrips() {
        use crate::compose::Layer;
        let mut out = Vec::new();
        Layer::A.encode(&mut out);
        Layer::B.encode(&mut out);
        Some(EdgeId(4)).encode(&mut out);
        Option::<EdgeId>::None.encode(&mut out);
        true.encode(&mut out);
        7u32.encode(&mut out);
        let mut r = Reader::new(&out);
        assert_eq!(Layer::decode(&mut r), Some(Layer::A));
        assert_eq!(Layer::decode(&mut r), Some(Layer::B));
        assert_eq!(Option::<EdgeId>::decode(&mut r), Some(Some(EdgeId(4))));
        assert_eq!(Option::<EdgeId>::decode(&mut r), Some(None));
        assert_eq!(bool::decode(&mut r), Some(true));
        assert_eq!(u32::decode(&mut r), Some(7));
        assert!(r.is_empty());
    }

    const TEST_ENVELOPE: Envelope = Envelope {
        magic: b"TEST",
        version: 3,
    };

    fn sealed_u64s(values: &[u64]) -> Vec<u8> {
        let mut out = Vec::new();
        TEST_ENVELOPE.seal(&mut out, |p| put_u64_slice(p, values));
        out
    }

    fn open_u64s(bytes: &[u8]) -> Result<Vec<u64>, EnvelopeError> {
        let mut r = TEST_ENVELOPE.open(bytes)?;
        match r.u64_vec() {
            Some(v) if r.is_empty() => Ok(v),
            _ => Err(EnvelopeError::Truncated),
        }
    }

    #[test]
    fn envelope_layout_is_magic_version_checksum_payload() {
        let bytes = sealed_u64s(&[7]);
        let mut payload = Vec::new();
        put_u64_slice(&mut payload, &[7]);
        let mut want = b"TEST".to_vec();
        put_u16(&mut want, 3);
        put_u64(&mut want, fnv1a64(&payload));
        want.extend_from_slice(&payload);
        assert_eq!(bytes, want);
        assert_eq!(open_u64s(&bytes), Ok(vec![7]));
        // Sealing appends: an artifact can follow other bytes in `out`.
        let mut out = vec![0xAA, 0xBB];
        TEST_ENVELOPE.seal(&mut out, |p| put_u64_slice(p, &[7]));
        assert_eq!(&out[2..], &bytes[..]);
    }

    #[test]
    fn envelope_errors_are_distinct() {
        let bytes = sealed_u64s(&[1, 2, 3]);
        assert_eq!(open_u64s(&bytes[..5]), Err(EnvelopeError::Truncated));
        let mut b = bytes.clone();
        b[0] ^= 0xff;
        assert_eq!(open_u64s(&b), Err(EnvelopeError::BadMagic));
        let mut b = bytes.clone();
        b[4] = 0xfe;
        assert_eq!(open_u64s(&b), Err(EnvelopeError::UnsupportedVersion(0xfe)));
        let mut b = bytes.clone();
        *b.last_mut().unwrap() ^= 1;
        assert!(matches!(
            open_u64s(&b),
            Err(EnvelopeError::ChecksumMismatch { expected, actual }) if expected != actual
        ));
        // A corrupt payload under a valid seal passes the envelope and is
        // left to the payload decoder: here a count with no elements.
        let mut b = Vec::new();
        TEST_ENVELOPE.seal(&mut b, |p| put_usize(p, 9));
        assert!(TEST_ENVELOPE.open(&b).is_ok());
        assert_eq!(open_u64s(&b), Err(EnvelopeError::Truncated));
    }

    #[test]
    fn harness_sweeps_small_and_sampled_artifacts() {
        // Below and above the exhaustive size.
        for n in [3usize, 400] {
            let values: Vec<u64> = (0..n as u64).collect();
            let bytes = sealed_u64s(&values);
            fails_closed(Some(&TEST_ENVELOPE), &bytes, |b| open_u64s(b).is_ok());
            // The bare payload passes the unsealed form (a flipped element
            // is a different valid vector, which it tolerates).
            fails_closed(None, &bytes[14..], |b| Reader::new(b).u64_vec().is_some());
        }
    }

    #[test]
    #[should_panic(expected = "prefix of 8 bytes was accepted")]
    fn harness_catches_a_decoder_that_accepts_a_prefix() {
        let mut payload = Vec::new();
        put_u64_slice(&mut payload, &[1]);
        // Ignores everything after the length prefix.
        fails_closed(None, &payload, |b| Reader::new(b).usize().is_some());
    }

    #[test]
    #[should_panic(expected = "flip of byte 6 bit 0 was accepted")]
    fn harness_catches_a_decoder_that_skips_the_checksum() {
        let bytes = sealed_u64s(&[]);
        fails_closed(Some(&TEST_ENVELOPE), &bytes, |b| {
            b.len() == 22 && b.starts_with(b"TEST") && b[4..6] == [3, 0]
        });
    }

    #[test]
    fn bogus_lengths_are_rejected() {
        // A length prefix claiming more elements than bytes remain must
        // fail fast instead of attempting a huge allocation.
        let mut out = Vec::new();
        put_usize(&mut out, usize::MAX);
        let mut r = Reader::new(&out);
        assert_eq!(r.usize_vec(), None);
    }
}
