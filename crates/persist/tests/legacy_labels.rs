//! Checkpoints written while value-level invalidation was still a mode of
//! its own carry its label (`"vl"`, `"vl_daemon"`). It is the default path
//! now, trajectory-identical by the differential suite, so those artifacts
//! must keep restoring — onto the default path — and continue exactly as
//! the run that wrote them did. The same holds for the pooled parallel
//! drain, deleted in PR 23: bit-identical to the sequential drain by
//! construction, so a blob labelled with it restores onto the sequential
//! spelling of its mode; and for the PR-1 per-guard baseline
//! (`"incremental"`), folded into the `full_scan` oracle in PR 25 and
//! trajectory-identical to the default engine, so its blob restores as
//! `par1`.
//!
//! Each blob under `golden/` was written by the commit before its mode was
//! folded (PR 15's tree: CC2 `fig1` seed 11 under `vl`, CC1 `fig1` seed 5
//! under `vl_daemon`; PR 20's tree: CC1 `fig1` seed 5 under
//! `par2b0+trusted+daemon_view`, every refresh through the pool; PR 23's
//! tree: CC2 `fig2` seed 5, arbitrary boot 5, under `incremental`; 120
//! steps each; the first two are format version 1, the other two version
//! 2, all with the fixed-width ledger). 300 steps later each continuation
//! is pinned twice: by its writer's own ledger fingerprint, recorded before
//! the compact history and unmoved by it — the continuation is still the
//! writer's — and by the ledger's bytes in format version 3, the layout's
//! own pin (re-pinned when that layout replaced the fixed-width one).

use sscc_persist::Checkpoint;
use sscc_runtime::wire::fnv1a64;

fn ledger_digest(ledger: &sscc_core::MeetingLedger) -> (usize, u64) {
    let mut bytes = Vec::new();
    ledger.save_state(&mut bytes);
    (bytes.len(), fnv1a64(&bytes))
}

#[test]
fn vl_labelled_checkpoints_restore_onto_the_default_path() {
    let ckpt = Checkpoint::from_bytes(include_bytes!("golden/cc2_vl.ckpt")).unwrap();
    let mut sim = ckpt.restore_cc2().expect("a `vl` blob still restores");
    assert_eq!(sim.config().to_string(), "par1", "the label is not kept");
    assert_eq!(sim.steps(), 120);
    sim.run(300);
    assert_eq!(ledger_digest(sim.ledger()), (463, 0x4926_6963_d5f3_2b13));
    assert_eq!(sim.ledger().fingerprint(), 0x7326_6b68_ad63_7497);
    // What it writes from now on names the surviving mode.
    let again = Checkpoint::capture_cc2(&sim).unwrap();
    assert!(again.restore_cc2().is_ok());

    let ckpt = Checkpoint::from_bytes(include_bytes!("golden/cc1_vl_daemon.ckpt")).unwrap();
    let mut sim = ckpt
        .restore_cc1()
        .expect("a `vl_daemon` blob still restores");
    assert_eq!(sim.config().to_string(), "daemon");
    sim.run(300);
    assert_eq!(ledger_digest(sim.ledger()), (389, 0x993e_0afd_fe9e_80ed));
    assert_eq!(sim.ledger().fingerprint(), 0x27a6_b43c_910d_571d);

    // Same seed and stack as the blob above, so the pooled run's own
    // continuation is the same ledger: the two drains never differed.
    let blob = include_bytes!("golden/cc1_par2b0_trusted_daemon_view.ckpt");
    let mut sim = Checkpoint::from_bytes(blob)
        .unwrap()
        .restore_cc1()
        .expect("a pooled-drain blob still restores");
    assert_eq!(sim.config().to_string(), "daemon");
    assert_eq!(sim.steps(), 120);
    sim.run(300);
    assert_eq!(ledger_digest(sim.ledger()), (389, 0x993e_0afd_fe9e_80ed));
    assert_eq!(sim.ledger().fingerprint(), 0x27a6_b43c_910d_571d);

    // The PR-1 baseline evaluated every guard one by one; the default
    // engine's cascade picks the same actions, so the continuation is the
    // writer's own.
    let blob = include_bytes!("golden/cc2_incremental.ckpt");
    let mut sim = Checkpoint::from_bytes(blob)
        .unwrap()
        .restore_cc2()
        .expect("an `incremental` blob still restores");
    assert_eq!(sim.config().to_string(), "par1");
    assert_eq!(sim.steps(), 120);
    sim.run(300);
    assert_eq!(ledger_digest(sim.ledger()), (408, 0x9536_1bdb_94b2_1f4a));
    assert_eq!(sim.ledger().fingerprint(), 0x79d4_a1c0_1cf2_b50d);
}
