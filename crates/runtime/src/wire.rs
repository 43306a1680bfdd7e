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

/// FNV-1a 64-bit hash: the digest of ledger bytes the golden tests and the
/// benchmark pin, and the checksum of the artifacts written before
/// [`checksum64`] replaced it ([`Envelope::legacy`]). One multiply per byte
/// on one dependency chain — 51 MB take 73–99 ms.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The checksum [`Envelope::seal`] writes: four independent lanes over the
/// little-endian `u64` words of `bytes` (word `i` goes to lane `i mod 4`),
/// so four multiplies are in flight at once and 51 MB take 10–12 ms. Not
/// cryptographic; like FNV before it, it guards against truncation, bit rot
/// and torn writes, not an adversary.
///
/// One lane step is `lane ← rotl(lane ^ word, 29) · P` with `P` odd: a
/// bijection of the lane for a fixed word *and* of the word for a fixed
/// lane. The last 1–7 bytes are zero-padded into a final word; the length
/// seeds a fifth chain that absorbs the four lanes with the same step, and
/// the closing xor-shift is a bijection too. Hence **any corruption
/// confined to one word changes the sum** — the changed word changes its
/// lane, every later step of that lane and of the closing chain maps
/// distinct values to distinct values — and in particular every single-bit
/// flip does, which is what [`fails_closed`] demands of a sealed artifact.
pub fn checksum64(bytes: &[u8]) -> u64 {
    const P: u64 = 0x9e37_79b1_85eb_ca87;
    fn step(lane: u64, word: u64) -> u64 {
        (lane ^ word).rotate_left(29).wrapping_mul(P)
    }
    fn word(chunk: &[u8]) -> u64 {
        let mut le = [0u8; 8];
        le[..chunk.len()].copy_from_slice(chunk);
        u64::from_le_bytes(le)
    }
    let mut lanes: [u64; 4] = [
        0x9e37_79b9_7f4a_7c15,
        0xbf58_476d_1ce4_e5b9,
        0x94d0_49bb_1331_11eb,
        0xd6e8_feb8_6659_fd93,
    ];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, chunk) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(*lane, word(chunk));
        }
    }
    // Fewer than 32 bytes are left: at most four chunks, the last one short.
    for (lane, chunk) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        *lane = step(*lane, word(chunk));
    }
    let sum = lanes.into_iter().fold(bytes.len() as u64, step);
    sum ^ (sum >> 32)
}

/// Append a `u8`.
#[inline]
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a `u16` (little-endian).
#[inline]
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32` (little-endian).
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` (little-endian).
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `bool` as one byte.
#[inline]
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Append a `usize` as a `u64`.
#[inline]
pub fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

/// Append an LEB128 varint (the compressed integer encoding the step-trace
/// recorder uses for selected-set and flag-flip deltas).
#[inline]
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
#[inline]
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_usize(out, bytes.len());
    out.extend_from_slice(bytes);
}

/// Append a length-prefixed byte blob that `body` writes in place — the
/// bytes [`put_bytes`] would append for the same content, without building
/// the content anywhere else first: a length placeholder, the body, then
/// the length patched in. [`Reader::bytes`] reads it back.
#[inline]
pub fn put_bytes_with<R>(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>) -> R) -> R {
    let at = out.len();
    put_usize(out, 0);
    let r = body(out);
    let len = (out.len() - at - 8) as u64;
    out[at..at + 8].copy_from_slice(&len.to_le_bytes());
    r
}

/// Append a length-prefixed UTF-8 string.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Append a length-prefixed `usize` slice.
#[inline]
pub fn put_usize_slice(out: &mut Vec<u8>, v: &[usize]) {
    put_usize(out, v.len());
    for &x in v {
        put_usize(out, x);
    }
}

/// Append a length-prefixed `bool` slice.
#[inline]
pub fn put_bool_slice(out: &mut Vec<u8>, v: &[bool]) {
    put_usize(out, v.len());
    for &b in v {
        put_bool(out, b);
    }
}

/// Append a length-prefixed `u64` slice.
#[inline]
pub fn put_u64_slice(out: &mut Vec<u8>, v: &[u64]) {
    put_usize(out, v.len());
    for &x in v {
        put_u64(out, x);
    }
}

/// Append a length-prefixed `Option<u64>` slice (policy timer vectors).
#[inline]
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
/// checksum u64       [`checksum64`] over the payload bytes
/// payload  …         the artifact's own fields, to the end of the buffer
/// ```
///
/// An artifact kind is one `const Envelope`: its encoder writes payload
/// fields inside [`Envelope::seal`], its decoder reads them from the
/// [`Reader`] that [`Envelope::open`] returns — or, for a kind that still
/// reads an earlier payload layout, from [`Envelope::open_versioned`],
/// which says which layout it is. Nothing else in the workspace writes or
/// checks a magic, a version or a checksum.
#[derive(Clone, Copy, Debug)]
pub struct Envelope {
    /// Magic prefix naming the artifact kind.
    pub magic: &'static [u8],
    /// Payload layout version, the only one [`Envelope::seal`] writes.
    pub version: u16,
    /// An earlier payload layout, sealed with [`checksum64`] like the
    /// current one, that this build still reads and never writes: the
    /// decoder behind [`Envelope::open_versioned`] picks its layout by the
    /// version. `None` when every readable version shares the current
    /// payload layout.
    pub previous: Option<u16>,
    /// The version artifacts carried while they were sealed with
    /// [`fnv1a64`]: still read (under that checksum) so files written
    /// before the change keep opening, never written. Its payload layout is
    /// that of [`previous`](Envelope::previous) if there is one, else the
    /// current one. `None` for an artifact that is never stored.
    pub legacy: Option<u16>,
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
    /// Bytes before the payload: magic, version, checksum.
    pub const fn header_len(&self) -> usize {
        self.magic.len() + 10
    }

    /// Append one sealed artifact to `out`: the header, then whatever
    /// `payload` writes — straight into `out`, no intermediate buffer —
    /// then the checksum patched into the header.
    pub fn seal<R>(&self, out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>) -> R) -> R {
        out.extend_from_slice(self.magic);
        put_u16(out, self.version);
        put_u64(out, 0);
        let payload_at = out.len();
        let r = payload(out);
        let sum = checksum64(&out[payload_at..]);
        out[payload_at - 8..payload_at].copy_from_slice(&sum.to_le_bytes());
        r
    }

    /// Verify magic, version and checksum; the version found, and a reader
    /// spanning exactly the payload — in the layout that version names.
    pub fn open_versioned<'a>(&self, bytes: &'a [u8]) -> Result<(u16, Reader<'a>), EnvelopeError> {
        let mut r = Reader::new(bytes);
        if r.take(self.magic.len()).ok_or(EnvelopeError::Truncated)? != self.magic {
            return Err(EnvelopeError::BadMagic);
        }
        let version = r.u16().ok_or(EnvelopeError::Truncated)?;
        let sum: fn(&[u8]) -> u64 = match version {
            v if v == self.version || Some(v) == self.previous => checksum64,
            v if Some(v) == self.legacy => fnv1a64,
            v => return Err(EnvelopeError::UnsupportedVersion(v)),
        };
        let expected = r.u64().ok_or(EnvelopeError::Truncated)?;
        let actual = sum(&r.buf[r.pos..]);
        if actual != expected {
            return Err(EnvelopeError::ChecksumMismatch { expected, actual });
        }
        Ok((version, r))
    }

    /// Verify magic, version and checksum; the returned reader spans
    /// exactly the payload. For a kind whose versions share one payload
    /// layout.
    pub fn open<'a>(&self, bytes: &'a [u8]) -> Result<Reader<'a>, EnvelopeError> {
        self.open_versioned(bytes).map(|(_, payload)| payload)
    }

    /// [`Envelope::open_versioned`], then an owned copy of the artifact as
    /// it was sealed, and its version: verified before a byte is
    /// allocated, copied once. For a holder that keeps the sealed image
    /// rather than decoded fields.
    pub fn adopt(&self, bytes: &[u8]) -> Result<(u16, Vec<u8>), EnvelopeError> {
        let (version, _) = self.open_versioned(bytes)?;
        Ok((version, bytes.to_vec()))
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
///   checksum with the distinct [`EnvelopeError`] — the
///   [`legacy`](Envelope::legacy) version included: the checksum of one
///   version never vouches for the other;
/// * relabelled as the [`previous`](Envelope::previous) version, which
///   shares the checksum, it passes the envelope and is refused by the
///   payload decoder reading that version's layout.
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
    let (mut relabelled, at) = (bytes.to_vec(), envelope.magic.len());
    let next = envelope.version + 1;
    relabelled[at..at + 2].copy_from_slice(&next.to_le_bytes());
    assert_eq!(
        envelope.open(&relabelled).err(),
        Some(EnvelopeError::UnsupportedVersion(next))
    );
    must_reject(&relabelled, format_args!("a future version"));
    if let Some(previous) = envelope.previous {
        relabelled[at..at + 2].copy_from_slice(&previous.to_le_bytes());
        let opened = envelope.open_versioned(&relabelled).map(|(v, _)| v);
        assert_eq!(
            opened,
            Ok(previous),
            "the previous version shares the checksum"
        );
        must_reject(&relabelled, format_args!("the previous layout's version"));
    }
    let Some(legacy) = envelope.legacy else {
        return;
    };
    relabelled[at..at + 2].copy_from_slice(&legacy.to_le_bytes());
    let refused = envelope.open(&relabelled).err();
    let mismatch = matches!(refused, Some(EnvelopeError::ChecksumMismatch { .. }));
    assert!(mismatch, "relabelled as the legacy version: {refused:?}");
    must_reject(&relabelled, format_args!("the legacy version"));
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
    #[inline]
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    /// Read a `u8`.
    #[inline]
    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    /// Read a `u16`.
    #[inline]
    pub fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
    }

    /// Read a `u32`.
    #[inline]
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    /// Read a `u64`.
    #[inline]
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// Read a `bool` (rejecting anything but 0/1).
    #[inline]
    pub fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Read a `usize` (stored as `u64`; rejects values over `usize::MAX`).
    #[inline]
    pub fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    /// Read an LEB128 varint in the one form [`put_varint`] writes: no
    /// trailing zero group (overlong), nothing beyond 64 bits.
    #[inline]
    pub fn varint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            let group = u64::from(byte & 0x7f);
            if (shift > 0 && byte == 0) || (shift == 63 && group > 1) {
                return None;
            }
            v |= group << shift;
            if byte & 0x80 == 0 {
                return Some(v);
            }
            shift += 7;
            if shift > 63 {
                return None;
            }
        }
    }

    /// [`Reader::count`] for a count written as a varint.
    #[inline]
    pub fn varint_count(&mut self, min_bytes: usize) -> Option<usize> {
        let n = usize::try_from(self.varint()?).ok()?;
        (n <= self.remaining() / min_bytes).then_some(n)
    }

    /// Read a length-prefixed byte blob.
    #[inline]
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.usize()?;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self) -> Option<&'a str> {
        std::str::from_utf8(self.bytes()?).ok()
    }

    /// Read an element count, rejecting one the rest of the buffer cannot
    /// hold at `min_bytes` encoded bytes per element — the check that must
    /// precede any allocation sized by a count read from input.
    #[inline]
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
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        put_bool(out, *self);
    }
    #[inline]
    fn decode(r: &mut Reader) -> Option<Self> {
        r.bool()
    }
}

impl StateCodec for u16 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        put_u16(out, *self);
    }
    #[inline]
    fn decode(r: &mut Reader) -> Option<Self> {
        r.u16()
    }
}

impl StateCodec for u32 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, *self);
    }
    #[inline]
    fn decode(r: &mut Reader) -> Option<Self> {
        r.u32()
    }
}

impl StateCodec for u64 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, *self);
    }
    #[inline]
    fn decode(r: &mut Reader) -> Option<Self> {
        r.u64()
    }
}

impl StateCodec for crate::compose::Layer {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        put_u8(out, matches!(self, crate::compose::Layer::B).into());
    }
    #[inline]
    fn decode(r: &mut Reader) -> Option<Self> {
        match r.u8()? {
            0 => Some(crate::compose::Layer::A),
            1 => Some(crate::compose::Layer::B),
            _ => None,
        }
    }
}

impl StateCodec for EdgeId {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.0);
    }
    #[inline]
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

    /// `n` bytes of a fixed non-repeating-per-word pattern.
    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 131 + 7) as u8).collect()
    }

    #[test]
    fn checksum64_matches_reference_vectors() {
        // Computed by an independent implementation of the definition in
        // the doc comment; a change to any of them is a format change.
        assert_eq!(checksum64(b""), 0xd912_f97b_98ea_ae1a);
        assert_eq!(checksum64(b"a"), 0x0181_17a3_e33f_7316);
        assert_eq!(checksum64(&pattern(31)), 0x4b98_a9d8_b5ed_de90);
        assert_eq!(checksum64(&pattern(32)), 0xd646_8364_a4e6_ce0e);
        assert_eq!(checksum64(&pattern(33)), 0xd39a_6a6d_b49c_d72f);
        assert_eq!(checksum64(&pattern(4096)), 0xfcc1_81f5_9754_1380);
    }

    #[test]
    fn checksum64_changes_under_every_single_bit_flip() {
        // The bijection argument, checked exhaustively: a 4 KiB artifact
        // (the block loop) and every length 0..=100 (the tail path).
        let lengths = (0..=100).chain([4096]);
        for n in lengths {
            let mut bytes = pattern(n);
            let sum = checksum64(&bytes);
            for at in 0..n {
                for bit in 0..8 {
                    bytes[at] ^= 1 << bit;
                    assert_ne!(checksum64(&bytes), sum, "length {n}, byte {at}, bit {bit}");
                    bytes[at] ^= 1 << bit;
                }
            }
        }
    }

    #[test]
    fn checksum64_sees_length_and_order() {
        let bytes = pattern(4096);
        let sum = checksum64(&bytes);
        // Truncation at and off a word boundary, and at a block boundary.
        for cut in [4095, 4088, 4081, 4064, 8, 1, 0] {
            assert_ne!(checksum64(&bytes[..cut]), sum, "cut to {cut}");
        }
        // Zero-extension: the padded words are the same, the length is not.
        for n in [0usize, 5, 8, 31, 32, 100] {
            let mut longer = vec![0u8; n];
            let short = checksum64(&longer);
            longer.push(0);
            assert_ne!(checksum64(&longer), short, "{n} zero bytes plus one");
        }
        // Two words swapped: in one lane (words 1 and 5), across lanes
        // (words 1 and 2), and in the tail (the last two of 7 words).
        let swapped = |len: usize, a: usize, b: usize| {
            let mut v = pattern(len);
            let (lo, hi) = v.split_at_mut(8 * b);
            lo[8 * a..8 * a + 8].swap_with_slice(&mut hi[..8]);
            checksum64(&v)
        };
        assert_ne!(swapped(4096, 1, 5), sum, "same lane");
        assert_ne!(swapped(4096, 1, 2), sum, "across lanes");
        assert_ne!(swapped(56, 5, 6), checksum64(&pattern(56)), "tail words");
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
    fn put_bytes_with_writes_what_put_bytes_writes() {
        // An empty body, a plain one, and blobs nested in a blob — each
        // against `put_bytes` of the same content built separately.
        let mut inner = Vec::new();
        put_bytes(&mut inner, b"topology");
        put_bytes(&mut inner, b"");
        put_u32(&mut inner, 9);
        let mut want = Vec::new();
        put_bytes(&mut want, b"");
        put_bytes(&mut want, b"sim");
        put_bytes(&mut want, &inner);

        let mut out = Vec::new();
        put_bytes_with(&mut out, |_| {});
        put_bytes_with(&mut out, |o| o.extend_from_slice(b"sim"));
        let answer = put_bytes_with(&mut out, |o| {
            put_bytes_with(o, |o| o.extend_from_slice(b"topology"));
            put_bytes_with(o, |_| {});
            put_u32(o, 9);
            42
        });
        assert_eq!(answer, 42, "the body's result is handed back");
        assert_eq!(out, want);

        let mut r = Reader::new(&out);
        assert_eq!(r.bytes(), Some(&b""[..]));
        assert_eq!(r.bytes(), Some(&b"sim"[..]));
        let mut nested = Reader::new(r.bytes().unwrap());
        assert!(r.is_empty());
        assert_eq!(nested.bytes(), Some(&b"topology"[..]));
        assert_eq!(nested.bytes(), Some(&b""[..]));
        assert_eq!(nested.u32(), Some(9));
        assert!(nested.is_empty());
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
        for overlong in [&[0x80u8, 0x00][..], &[0xff, 0x80, 0x00], &[0xff; 11]] {
            assert_eq!(Reader::new(overlong).varint(), None, "{overlong:?}");
        }
        let mut over_64 = [0xffu8; 10];
        over_64[9] = 0x02;
        assert_eq!(Reader::new(&over_64).varint(), None, "a 65th bit");
        over_64[9] = 0x01;
        assert_eq!(Reader::new(&over_64).varint(), Some(u64::MAX));
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

    // One bit away from its legacy version, so the harness's flips of the
    // version field cross over to the other checksum.
    const TEST_ENVELOPE: Envelope = Envelope {
        magic: b"TEST",
        version: 3,
        previous: None,
        legacy: Some(2),
    };

    /// `payload` framed the way the legacy writer did: FNV-1a sealed.
    fn legacy_sealed(version: u16, payload: &[u8]) -> Vec<u8> {
        let mut out = b"TEST".to_vec();
        put_u16(&mut out, version);
        put_u64(&mut out, fnv1a64(payload));
        out.extend_from_slice(payload);
        out
    }

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
        put_u64(&mut want, checksum64(&payload));
        want.extend_from_slice(&payload);
        assert_eq!(bytes, want);
        assert_eq!(bytes.len(), TEST_ENVELOPE.header_len() + payload.len());
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
    fn legacy_version_opens_under_its_own_checksum_only() {
        let mut payload = Vec::new();
        put_u64_slice(&mut payload, &[4, 5]);
        let old = legacy_sealed(2, &payload);
        assert_eq!(open_u64s(&old), Ok(vec![4, 5]));
        fails_closed(Some(&TEST_ENVELOPE), &sealed_u64s(&[4, 5]), |b| {
            open_u64s(b).is_ok()
        });
        // Neither checksum vouches for the other version's label, and an
        // older version than the legacy one is not read at all.
        let mut relabelled = old.clone();
        relabelled[4] = 3;
        assert!(matches!(
            open_u64s(&relabelled),
            Err(EnvelopeError::ChecksumMismatch { .. })
        ));
        assert_eq!(
            open_u64s(&legacy_sealed(1, &payload)),
            Err(EnvelopeError::UnsupportedVersion(1))
        );
        // No legacy version declared, none read.
        let strict = Envelope {
            legacy: None,
            ..TEST_ENVELOPE
        };
        assert_eq!(
            strict.open(&old).err(),
            Some(EnvelopeError::UnsupportedVersion(2))
        );
    }

    #[test]
    fn adopt_copies_a_verified_artifact_and_names_its_version() {
        let current = sealed_u64s(&[4, 5]);
        assert_eq!(TEST_ENVELOPE.adopt(&current), Ok((3, current.clone())));
        let old = legacy_sealed(2, &current[TEST_ENVELOPE.header_len()..]);
        assert_eq!(TEST_ENVELOPE.adopt(&old), Ok((2, old.clone())));
        let mut torn = old;
        *torn.last_mut().unwrap() ^= 1;
        assert!(TEST_ENVELOPE.adopt(&torn).is_err());
    }

    #[test]
    fn a_previous_layout_opens_under_the_current_checksum_and_names_itself() {
        // Version 4 writes `u64` slices, version 3 wrote `u32` ones, and
        // the FNV-sealed version 2 had version 3's layout.
        const TWO_LAYOUTS: Envelope = Envelope {
            version: 4,
            previous: Some(3),
            ..TEST_ENVELOPE
        };
        let open = |b: &[u8]| -> Option<Vec<u64>> {
            let (version, mut r) = TWO_LAYOUTS.open_versioned(b).ok()?;
            let values = match version {
                4 => r.u64_vec()?,
                _ => (0..r.count(4)?)
                    .map(|_| r.u32().map(u64::from))
                    .collect::<Option<_>>()?,
            };
            r.is_empty().then_some(values)
        };
        let mut current = Vec::new();
        TWO_LAYOUTS.seal(&mut current, |p| put_u64_slice(p, &[7, 8]));
        let mut payload = Vec::new();
        put_usize(&mut payload, 2);
        put_u32(&mut payload, 7);
        put_u32(&mut payload, 8);
        let mut previous = current[..TWO_LAYOUTS.header_len()].to_vec();
        previous[4..6].copy_from_slice(&3u16.to_le_bytes());
        previous[6..14].copy_from_slice(&checksum64(&payload).to_le_bytes());
        previous.extend_from_slice(&payload);
        for bytes in [&current, &previous, &legacy_sealed(2, &payload)] {
            assert_eq!(open(bytes), Some(vec![7, 8]));
        }
        fails_closed(Some(&TWO_LAYOUTS), &current, |b| open(b).is_some());
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
