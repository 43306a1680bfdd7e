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

use crate::topology::{decode_topology, encode_topology};
use sscc_core::sim::{Cc1Sim, Cc2Sim, Cc3Sim, Sim};
use sscc_core::CommitteeAlgorithm;
use sscc_hypergraph::Hypergraph;
use sscc_runtime::wire::{self, Envelope, EnvelopeError, Reader, StateCodec};
use sscc_token::TokenLayer;
use std::fmt;
use std::sync::Arc;

/// Current container format version. Bump on any layout change; decoders
/// reject versions they do not understand rather than guessing.
pub const FORMAT_VERSION: u16 = 1;

const ENVELOPE: Envelope = Envelope {
    magic: b"SSCCKPT\0",
    version: FORMAT_VERSION,
};

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

/// A decoded (or freshly captured) checkpoint: the paired topology and sim
/// blobs plus the algorithm label, independent of any byte container.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    algo: String,
    topology: Vec<u8>,
    sim: Vec<u8>,
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
        let mut sim_blob = Vec::new();
        if !sim.save_state(&mut sim_blob) {
            return None;
        }
        let mut topology = Vec::new();
        encode_topology(sim.h(), &mut topology);
        Some(Checkpoint {
            algo: algo.to_string(),
            topology,
            sim: sim_blob,
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
        &self.algo
    }

    /// Decode the topology the checkpoint was taken on.
    pub fn topology(&self) -> Result<Hypergraph, CheckpointError> {
        let mut r = Reader::new(&self.topology);
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
        Sim::restore(Arc::clone(&h), cc, tl, &self.sim).ok_or(CheckpointError::BadSimState)
    }

    fn check_algo(&self, expected: &'static str) -> Result<(), CheckpointError> {
        if self.algo == expected {
            Ok(())
        } else {
            Err(CheckpointError::AlgoMismatch {
                found: self.algo.clone(),
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

    /// Serialize to the durable container format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.topology.len() + self.sim.len() + 64);
        ENVELOPE.seal(&mut out, |p| {
            wire::put_str(p, &self.algo);
            wire::put_bytes(p, &self.topology);
            wire::put_bytes(p, &self.sim);
        });
        out
    }

    /// Parse and verify a container produced by [`Checkpoint::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut p = ENVELOPE.open(bytes)?;
        let fields = (|| {
            Some(Checkpoint {
                algo: p.str()?.to_string(),
                topology: p.bytes()?.to_vec(),
                sim: p.bytes()?.to_vec(),
            })
        })();
        match fields {
            Some(ckpt) if p.is_empty() => Ok(ckpt),
            _ => Err(EnvelopeError::Truncated.into()),
        }
    }

    /// Atomically-ish write the container to `path` (write to a sibling
    /// temp file, then rename): a crash mid-write leaves either the old
    /// checkpoint or none, never a torn one.
    pub fn save_file(&self, path: &std::path::Path) -> Result<(), CheckpointError> {
        let tmp = path.with_extension("ckpt.tmp");
        std::fs::write(&tmp, self.to_bytes())?;
        std::fs::rename(&tmp, path)?;
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
        let (_, sim) = sample();
        let ckpt = Checkpoint::capture_cc1(&sim).unwrap();
        let bytes = ckpt.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(back.algo(), "cc1");
        let twin = back.restore_cc1().unwrap();
        assert_eq!(twin.steps(), sim.steps());
    }

    #[test]
    fn every_corruption_fails_closed() {
        let (_, sim) = sample();
        let bytes = Checkpoint::capture_cc1(&sim).unwrap().to_bytes();
        wire::fails_closed(Some(&ENVELOPE), &bytes, |b| {
            Checkpoint::from_bytes(b).is_ok()
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
        // A payload whose last length field overruns, under a valid seal:
        // past the envelope, refused by the payload decoder.
        let mut b = Vec::new();
        ENVELOPE.seal(&mut b, |p| p.extend_from_slice(&bytes[18..bytes.len() - 1]));
        assert!(ENVELOPE.open(&b).is_ok());
        assert_eq!(envelope_error(&b), EnvelopeError::Truncated);
    }

    #[test]
    fn header_is_byte_identical_to_the_pre_envelope_writer() {
        // Golden bytes written by the hand-rolled framing this envelope
        // replaced (magic, version 1, FNV-1a 64 of the payload): the
        // checksum pins the whole payload, the length its size. (That
        // writer's default engine kept no commit notes, so the one payload
        // byte recording their freshness read "stale": drop them here to
        // write the same byte.)
        let (_, mut sim) = sample();
        sim.world_mut().invalidate_all();
        let bytes = Checkpoint::capture_cc1(&sim).unwrap().to_bytes();
        assert_eq!(bytes.len(), 2372);
        assert_eq!(
            bytes[..18],
            [83, 83, 67, 67, 75, 80, 84, 0, 1, 0, 148, 110, 222, 143, 136, 182, 96, 254]
        );
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
        let mut r = Reader::new(&ckpt.sim);
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
        let stale = Checkpoint {
            sim: spliced,
            ..ckpt
        };
        let back = Checkpoint::from_bytes(&stale.to_bytes()).unwrap();
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
}
