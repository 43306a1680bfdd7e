//! A format-version-3 checkpoint (compact history) is pinned as written, so
//! the next layout change has an artifact of this one to keep reading.
//!
//! `golden/cc1_daemon_v3.ckpt` is the version-2 pooled-drain golden of
//! `legacy_labels.rs` (CC1 `fig1` seed 5, 120 steps) restored and captured
//! again by the tree that introduced version 3: the same trajectory in the
//! new layout. It must open, restore, write itself back byte for byte, and
//! continue to the fingerprint its version-1 and version-2 twins continue
//! to.

use sscc_persist::Checkpoint;

#[test]
fn a_version_3_checkpoint_restores_and_writes_itself_back() {
    let blob: &[u8] = include_bytes!("golden/cc1_daemon_v3.ckpt");
    assert_eq!(blob[..10], *b"SSCCKPT\0\x03\x00", "a version-3 artifact");
    let ckpt = Checkpoint::from_bytes(blob).expect("a version-3 file opens");
    let mut sim = ckpt.restore_cc1().expect("and restores");
    assert_eq!(sim.config().to_string(), "daemon");
    assert_eq!(sim.steps(), 120);
    assert_eq!(sim.ledger().fingerprint(), 0xc9d8_0fce_4eb8_2918);
    let again = Checkpoint::capture_cc1(&sim).unwrap();
    assert_eq!(
        **again.to_bytes(),
        *blob,
        "restore → capture is the identity"
    );
    sim.run(300);
    assert_eq!(sim.ledger().fingerprint(), 0x27a6_b43c_910d_571d);
}
