//! The durable checkpoint container: the payload of a
//! [`wire::Envelope`] (magic `b"SSCCKPT\0"`, version [`FORMAT_VERSION`]).
//!
//! ```text
//! algo      str    algorithm label ("cc1" | "cc2" | "cc3" | custom)
//! topology  bytes  `topology::encode_topology` blob
//! sim       bytes  `Sim::save_state` blob (includes the EngineConfig
//!                  label, per-process states, observers, daemon + policy)
//! ```
//!
//! A half-written checkpoint file fails closed — the envelope or the
//! payload decoder refuses it — instead of restoring a subtly wrong world.
//!
//! A [`Checkpoint`] *is* that sealed image, written once: capture encodes
//! the three fields straight into it, [`Checkpoint::to_bytes`] shares it,
//! [`Checkpoint::from_bytes`] verifies and then copies it once, and
//! [`Checkpoint::restore`] decodes from it in place. What is left is one
//! encode pass over the history, one checksum pass, and on the way back
//! the one copy of a borrowed input plus the first touch of the record
//! vector — a full image per checkpoint either way, until the history
//! itself is checkpointed incrementally.
//!
//! Version 3 writes the meeting history compactly (a committee table and
//! varint records, about 8 bytes a two-member meeting against the 94 of
//! the fixed-width records; see `sscc_core::meetings`), so the image a
//! `cc1-ring` checkpoint writes shrinks from 51 MB to about 5 MB. Versions 1
//! and 2 carry the fixed-width ledger and still open: [`Checkpoint`] keeps
//! the image as written and restores it through the one legacy ledger
//! decoder, chosen by the version the envelope reports; what it restores
//! writes version 3. Capture reserves the image once from
//! `Sim::encoded_size_hint` — exact for the terminated records, a few
//! dozen bytes over for each meeting still running.

use crate::topology::{decode_topology, encode_topology};
use sscc_core::sim::{Cc1Sim, Cc2Sim, Cc3Sim, Sim};
use sscc_core::{CommitteeAlgorithm, LedgerLayout};
use sscc_hypergraph::Hypergraph;
use sscc_runtime::wire::{self, Envelope, EnvelopeError, Reader, StateCodec};
use sscc_token::TokenLayer;
use std::fmt;
use std::io::Write as _;
use std::ops::Range;
use std::sync::Arc;

/// Current container format version. Bump on any layout change; decoders
/// reject versions they do not understand rather than guessing. Versions 1
/// and 2 carry the fixed-width meeting ledger (version 1 under the
/// envelope's earlier checksum); both still open, neither is written.
pub const FORMAT_VERSION: u16 = 3;

const ENVELOPE: Envelope = Envelope {
    magic: b"SSCCKPT\0",
    version: FORMAT_VERSION,
    previous: Some(2),
    legacy: Some(1),
};

/// The meeting-ledger layout inside a container of `version`.
fn ledger_layout(version: u16) -> LedgerLayout {
    if version < 3 {
        LedgerLayout::Fixed
    } else {
        LedgerLayout::Compact
    }
}

/// Why a checkpoint failed to decode or restore.
#[derive(Debug)]
pub enum CheckpointError {
    /// The byte container is not a readable checkpoint: wrong magic,
    /// unknown version, checksum mismatch, or a truncated/malformed payload.
    Envelope(EnvelopeError),
    /// Structurally valid container, but the topology blob does not
    /// describe a valid committee hypergraph.
    BadTopology,
    /// Structurally valid container, but the sim blob is inconsistent
    /// (corrupt, or restored against the wrong algorithm pair).
    BadSimState,
    /// The caller asked for a typed restore (`restore_cc1` & co.) but the
    /// checkpoint was captured from a different algorithm.
    AlgoMismatch {
        /// Label stored in the checkpoint.
        found: String,
        /// Label the typed restore expected.
        expected: &'static str,
    },
    /// Filesystem error while reading or writing the artifact.
    Io(std::io::Error),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Envelope(e) => write!(f, "not a readable checkpoint: {e}"),
            CheckpointError::BadTopology => write!(f, "checkpoint topology is invalid"),
            CheckpointError::BadSimState => write!(f, "checkpoint sim state is inconsistent"),
            CheckpointError::AlgoMismatch { found, expected } => {
                write!(f, "checkpoint holds a {found:?} run, expected {expected:?}")
            }
            CheckpointError::Io(e) => write!(f, "checkpoint i/o: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<EnvelopeError> for CheckpointError {
    fn from(e: EnvelopeError) -> Self {
        CheckpointError::Envelope(e)
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// A decoded (or freshly captured) checkpoint: the sealed container image
/// — as written, whichever version that was — and where its three fields
/// lie in it. The image is immutable and shared, so cloning a checkpoint or
/// taking its bytes copies nothing; two checkpoints are equal when their
/// images are.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    image: Arc<Vec<u8>>,
    algo: Range<usize>,
    topology: Range<usize>,
    sim: Range<usize>,
    /// How the sim blob lays out the history: what the version says.
    ledger: LedgerLayout,
}

impl Checkpoint {
    /// Freeze a running sim. `None` when the sim's daemon or policy is a
    /// custom type without persistence support.
    ///
    /// `algo` is a free-form label stored alongside the blobs; the typed
    /// restore helpers ([`Checkpoint::restore_cc1`] & co.) check it, the
    /// generic [`Checkpoint::restore`] ignores it.
    pub fn capture<C, TL>(algo: &str, sim: &Sim<C, TL>) -> Option<Self>
    where
        C: CommitteeAlgorithm,
        TL: TokenLayer,
        C::State: StateCodec,
        TL::State: StateCodec,
    {
        let mut image = Vec::new();
        let persistable = ENVELOPE.seal(&mut image, |p| {
            wire::put_str(p, algo);
            wire::put_bytes_with(p, |p| encode_topology(sim.h(), p));
            // Everything that grows with the run comes now: make room once.
            p.reserve(8 + sim.encoded_size_hint());
            wire::put_bytes_with(p, |p| sim.save_state(p))
        });
        persistable.then(|| Self::locate(image, FORMAT_VERSION).expect("its own three fields"))
    }

    /// Wrap a sealed image of `version`, finding the three fields; `None`
    /// unless the payload is exactly them, the label valid UTF-8.
    fn locate(image: Vec<u8>, version: u16) -> Option<Self> {
        let mut p = Reader::new(&image[ENVELOPE.header_len()..]);
        let mut field = || {
            let len = p.bytes()?.len();
            let end = image.len() - p.remaining();
            Some(end - len..end)
        };
        let (algo, topology, sim) = (field()?, field()?, field()?);
        let exact = p.is_empty() && std::str::from_utf8(&image[algo.clone()]).is_ok();
        exact.then(|| Checkpoint {
            image: Arc::new(image),
            algo,
            topology,
            sim,
            ledger: ledger_layout(version),
        })
    }

    /// [`Checkpoint::capture`] with the label the typed helpers expect.
    pub fn capture_cc1(sim: &Cc1Sim) -> Option<Self> {
        Self::capture("cc1", sim)
    }

    /// [`Checkpoint::capture`] with the label the typed helpers expect.
    pub fn capture_cc2(sim: &Cc2Sim) -> Option<Self> {
        Self::capture("cc2", sim)
    }

    /// [`Checkpoint::capture`] with the label the typed helpers expect.
    pub fn capture_cc3(sim: &Cc3Sim) -> Option<Self> {
        Self::capture("cc3", sim)
    }

    /// The algorithm label recorded at capture time.
    pub fn algo(&self) -> &str {
        std::str::from_utf8(&self.image[self.algo.clone()]).expect("checked when located")
    }

    /// Decode the topology the checkpoint was taken on.
    pub fn topology(&self) -> Result<Hypergraph, CheckpointError> {
        let mut r = Reader::new(&self.image[self.topology.clone()]);
        let h = decode_topology(&mut r).ok_or(CheckpointError::BadTopology)?;
        if r.is_empty() {
            Ok(h)
        } else {
            Err(CheckpointError::BadTopology)
        }
    }

    /// Thaw into a running sim. The algorithm instances are built by the
    /// callbacks once the stored topology is decoded (token layers need
    /// the graph to dimension themselves).
    pub fn restore<C, TL>(
        &self,
        make_cc: impl FnOnce(&Hypergraph) -> C,
        make_tl: impl FnOnce(&Hypergraph) -> TL,
    ) -> Result<Sim<C, TL>, CheckpointError>
    where
        C: CommitteeAlgorithm + 'static,
        TL: TokenLayer + 'static,
        C::State: Copy + StateCodec,
        TL::State: Copy + StateCodec,
    {
        let h = Arc::new(self.topology()?);
        let cc = make_cc(&h);
        let tl = make_tl(&h);
        let blob = &self.image[self.sim.clone()];
        Sim::restore_as(Arc::clone(&h), cc, tl, blob, self.ledger)
            .ok_or(CheckpointError::BadSimState)
    }

    fn check_algo(&self, expected: &'static str) -> Result<(), CheckpointError> {
        if self.algo() == expected {
            Ok(())
        } else {
            Err(CheckpointError::AlgoMismatch {
                found: self.algo().to_string(),
                expected,
            })
        }
    }

    /// Typed restore for the standard CC1 ∘ TC stack.
    pub fn restore_cc1(&self) -> Result<Cc1Sim, CheckpointError> {
        self.check_algo("cc1")?;
        self.restore(|_| sscc_core::Cc1::new(), sscc_token::WaveToken::new)
    }

    /// Typed restore for the standard CC2 ∘ TC stack.
    pub fn restore_cc2(&self) -> Result<Cc2Sim, CheckpointError> {
        self.check_algo("cc2")?;
        self.restore(|_| sscc_core::Cc2::new(), sscc_token::WaveToken::new)
    }

    /// Typed restore for the standard CC3 ∘ TC stack.
    pub fn restore_cc3(&self) -> Result<Cc3Sim, CheckpointError> {
        self.check_algo("cc3")?;
        self.restore(|_| sscc_core::Cc3::new_cc3(), sscc_token::WaveToken::new)
    }

    /// The durable container format: a shared handle on the image this
    /// checkpoint holds (derefs to `[u8]`) — no encoding, no copy.
    pub fn to_bytes(&self) -> Arc<Vec<u8>> {
        Arc::clone(&self.image)
    }

    /// Parse and verify a container produced by [`Checkpoint::to_bytes`]
    /// (of this or an earlier format version): checked before a byte is
    /// allocated, then copied once.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let (version, image) = ENVELOPE.adopt(bytes)?;
        Self::locate(image, version).ok_or(EnvelopeError::Truncated.into())
    }

    /// Atomically replace `path` with the container: the image goes to a
    /// sibling temp file and is synced to disk *before* the rename, and the
    /// directory is synced (best effort) after it — a crash at any point
    /// leaves either the old checkpoint or the whole new one, never a torn
    /// or empty file under `path`.
    pub fn save_file(&self, path: &std::path::Path) -> Result<(), CheckpointError> {
        let tmp = path.with_extension("ckpt.tmp");
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&self.image)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        // The rename is durable once its directory is; not every platform
        // lets a directory be opened and synced, and the data is safe
        // either way.
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        if let Ok(dir) = std::fs::File::open(dir.unwrap_or(std::path::Path::new("."))) {
            let _ = dir.sync_all();
        }
        Ok(())
    }

    /// Read and verify a container from `path`.
    pub fn load_file(path: &std::path::Path) -> Result<Self, CheckpointError> {
        Self::from_bytes(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sscc_hypergraph::generators;

    fn sample() -> (Arc<Hypergraph>, Cc1Sim) {
        let h = Arc::new(generators::fig2());
        let mut sim = Cc1Sim::standard(Arc::clone(&h), 5, 1);
        sim.run(200);
        (h, sim)
    }

    #[test]
    fn container_roundtrips() {
        let (h, sim) = sample();
        let ckpt = Checkpoint::capture_cc1(&sim).unwrap();
        let bytes = ckpt.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.algo(), "cc1");
        assert_eq!(back.topology().unwrap(), *h);
        let twin = back.restore_cc1().unwrap();
        assert_eq!(twin.steps(), sim.steps());
        // Equality is equality of images: one more step, another checkpoint.
        let mut later = back.restore_cc1().unwrap();
        later.run(1);
        assert_ne!(Checkpoint::capture_cc1(&later).unwrap(), ckpt);
        assert_ne!(Checkpoint::capture("cc9", &sim).unwrap(), ckpt);
    }

    #[test]
    fn image_holds_the_three_fields_in_place() {
        // The fields are what the separate encoders write, found where the
        // layout says — and taking the bytes shares the image.
        let (h, sim) = sample();
        let ckpt = Checkpoint::capture_cc1(&sim).unwrap();
        let (mut topology, mut blob) = (Vec::new(), Vec::new());
        encode_topology(&h, &mut topology);
        assert!(sim.save_state(&mut blob));
        let mut want = Vec::new();
        ENVELOPE.seal(&mut want, |p| {
            wire::put_str(p, "cc1");
            wire::put_bytes(p, &topology);
            wire::put_bytes(p, &blob);
        });
        assert_eq!(*ckpt.to_bytes(), want);
        assert_eq!(ckpt.image[ckpt.topology.clone()], topology[..]);
        assert_eq!(ckpt.image[ckpt.sim.clone()], blob[..]);
        assert!(Arc::ptr_eq(&ckpt.to_bytes(), &ckpt.clone().to_bytes()));
        assert!(blob.len() <= sim.encoded_size_hint(), "the hint is a bound");
    }

    #[test]
    fn every_corruption_fails_closed() {
        let (_, sim) = sample();
        let bytes = Checkpoint::capture_cc1(&sim).unwrap().to_bytes().to_vec();
        assert_eq!(bytes[8..10], [3, 0]);
        wire::fails_closed(Some(&ENVELOPE), &bytes, |b| {
            Checkpoint::from_bytes(b).is_ok_and(|c| c.restore_cc1().is_ok())
        });
        // The envelope's distinct outcomes surface through `CheckpointError`.
        let envelope_error = |b: &[u8]| match Checkpoint::from_bytes(b) {
            Err(CheckpointError::Envelope(e)) => e,
            other => panic!("expected an envelope error, got {other:?}"),
        };
        let mut b = bytes.clone();
        b[0] ^= 0xff;
        assert_eq!(envelope_error(&b), EnvelopeError::BadMagic);
        let mut b = bytes.clone();
        b[8] = 0xfe;
        assert_eq!(envelope_error(&b), EnvelopeError::UnsupportedVersion(0xfe));
        let mut b = bytes.clone();
        *b.last_mut().unwrap() ^= 0x01;
        assert!(matches!(
            envelope_error(&b),
            EnvelopeError::ChecksumMismatch { .. }
        ));
        assert_eq!(envelope_error(&bytes[..17]), EnvelopeError::Truncated);
        // Under a valid seal, past the envelope, refused by the payload
        // decoder: a last length field that overruns, and a label that is
        // not UTF-8.
        let payload = &bytes[ENVELOPE.header_len()..];
        let resealed = |payload: &[u8]| {
            let mut b = Vec::new();
            ENVELOPE.seal(&mut b, |p| p.extend_from_slice(payload));
            assert!(ENVELOPE.open(&b).is_ok());
            b
        };
        let cut = resealed(&payload[..payload.len() - 1]);
        assert_eq!(envelope_error(&cut), EnvelopeError::Truncated);
        let mut label = payload.to_vec();
        label[8] = 0xff;
        assert_eq!(envelope_error(&resealed(&label)), EnvelopeError::Truncated);
    }

    #[test]
    fn header_is_byte_identical_to_the_pre_envelope_writer() {
        // The committed artifacts of the two earlier versions (CC1, fig1,
        // seed 5, 120 steps, one trajectory): version 1 as the hand-rolled
        // framing the envelope replaced wrote it — magic, version 1, FNV-1a
        // 64 of the payload — and version 2 under the word-wide checksum.
        // Both carry the fixed-width ledger; both still open, are kept as
        // written, restore, and what they restore writes version 3.
        let v1: &[u8] = include_bytes!("../tests/golden/cc1_vl_daemon.ckpt");
        let v2: &[u8] = include_bytes!("../tests/golden/cc1_par2b0_trusted_daemon_view.ckpt");
        assert_eq!(v1[..10], *b"SSCCKPT\0\x01\x00");
        assert_eq!(v1[10..18], wire::fnv1a64(&v1[18..]).to_le_bytes());
        assert_eq!(v2[..10], *b"SSCCKPT\0\x02\x00");
        assert_eq!(v2[10..18], wire::checksum64(&v2[18..]).to_le_bytes());
        let fingerprints = [v1, v2].map(|old| {
            let read = Checkpoint::from_bytes(old).expect("an earlier version still opens");
            assert_eq!(**read.to_bytes(), *old, "kept as written");
            let sim = read.restore_cc1().unwrap();
            assert_eq!(sim.steps(), 120);
            let now = Checkpoint::capture_cc1(&sim).unwrap().to_bytes();
            assert_eq!(now[8..10], [3, 0]);
            assert!(now.len() < old.len(), "the history is smaller on the wire");
            let again = Checkpoint::from_bytes(&now).unwrap().restore_cc1().unwrap();
            assert_eq!(again.ledger().fingerprint(), sim.ledger().fingerprint());
            sim.ledger().fingerprint()
        });
        assert_eq!(fingerprints[0], fingerprints[1], "one trajectory");
        // Version 2 bytes under the version-1 label: the word-wide checksum
        // does not vouch for the FNV-sealed version.
        let mut relabelled = v2.to_vec();
        relabelled[8] = 1;
        assert!(matches!(
            Checkpoint::from_bytes(&relabelled),
            Err(CheckpointError::Envelope(
                EnvelopeError::ChecksumMismatch { .. }
            ))
        ));
        // Version 3 bytes under the version-2 label pass the checksum the
        // two share; the fixed-width decoder refuses the compact history.
        let (_, sim) = sample();
        let mut relabelled = Checkpoint::capture_cc1(&sim).unwrap().to_bytes().to_vec();
        relabelled[8] = 2;
        let read = Checkpoint::from_bytes(&relabelled).unwrap();
        assert!(matches!(
            read.restore_cc1(),
            Err(CheckpointError::BadSimState)
        ));
    }

    #[test]
    fn typed_restore_checks_the_label() {
        let (_, sim) = sample();
        let ckpt = Checkpoint::capture_cc1(&sim).unwrap();
        assert!(matches!(
            ckpt.restore_cc2(),
            Err(CheckpointError::AlgoMismatch { .. })
        ));
    }

    #[test]
    fn blob_naming_a_deleted_mode_fails_closed() {
        // A checkpoint written before the in-place commit was removed
        // carries the label "inplace". It must be refused — not panic, and
        // not silently resume on the default engine.
        let (h, sim) = sample();
        let ckpt = Checkpoint::capture_cc1(&sim).unwrap();
        let mut r = Reader::new(&ckpt.image[ckpt.sim.clone()]);
        assert_eq!(r.str(), Some("par1"));
        let rest = r.take(r.remaining()).unwrap();
        let mut spliced = Vec::new();
        wire::put_str(&mut spliced, "inplace");
        spliced.extend_from_slice(rest);
        assert!(Cc1Sim::restore(
            Arc::clone(&h),
            sscc_core::Cc1::new(),
            sscc_token::WaveToken::new(&h),
            &spliced
        )
        .is_none());
        // The same blob inside a container whose checksum is valid.
        let mut stale = Vec::new();
        ENVELOPE.seal(&mut stale, |p| {
            p.extend_from_slice(&ckpt.image[ENVELOPE.header_len()..ckpt.sim.start - 8]);
            wire::put_bytes(p, &spliced);
        });
        let back = Checkpoint::from_bytes(&stale).unwrap();
        assert_eq!(back.topology().unwrap(), *h);
        assert!(matches!(
            back.restore_cc1(),
            Err(CheckpointError::BadSimState)
        ));
    }

    #[test]
    fn file_roundtrip() {
        let (_, sim) = sample();
        let ckpt = Checkpoint::capture_cc1(&sim).unwrap();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("sscc-persist-test-{}.ckpt", std::process::id()));
        ckpt.save_file(&path).unwrap();
        let back = Checkpoint::load_file(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(back, ckpt);
    }

    #[test]
    fn save_file_replaces_the_target_and_leaves_no_temp_file() {
        let (_, mut sim) = sample();
        let dir = std::env::temp_dir().join(format!("sscc-persist-save-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let first = Checkpoint::capture_cc1(&sim).unwrap();
        first.save_file(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), *first.to_bytes());
        sim.run(50);
        let second = Checkpoint::capture_cc1(&sim).unwrap();
        second.save_file(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), *second.to_bytes());
        let left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(left, ["run.ckpt"], "the temp file is gone");
        // A target the temp file cannot be created next to is an error, and
        // nothing is left behind.
        let missing = dir.join("no-such-dir").join("run.ckpt");
        assert!(matches!(
            second.save_file(&missing),
            Err(CheckpointError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
