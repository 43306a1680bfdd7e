//! A checkpoint is one image written once — measured at the allocator, so
//! the pin is exact on every host: capturing and taking the bytes requests
//! barely more than the image (one large block, no second copy, no doubling
//! through the history), a corrupt image is refused before anything is
//! copied, and a restore requests the image, the sealed records it adopts
//! as they are, and per-process state. A writer that goes back to separate
//! blobs, or a reader that copies before it verifies, moves these by
//! integer factors.
//!
//! The image itself is pinned per meeting recorded: at most 16 bytes a
//! record for CC1 on a ring (pair committees) and 32 for CC2 on a power-law
//! graph whose hub committees have dozens of members — everything else in
//! the image included. The fixed-width records of format versions 1 and 2
//! took 95 and more.

mod common;

use common::requests_during;
use sscc::core::sim::{Cc1Sim, Cc2Sim};
use sscc::hypergraph::generators;
use sscc::persist::Checkpoint;
use sscc::service::{cc1_service, cc1_service_restore, Arrivals, ServiceConfig, TrafficGen};
use std::sync::Arc;

// One test: the recorder is process-wide, so nothing else may run beside it.
#[test]
fn checkpoint_round_trip_allocates_one_image() {
    let h = Arc::new(generators::ring(48, 2));
    let (n, m) = (h.n(), h.m());

    // A bare sim with enough history that it dominates the image.
    let mut sim = Cc1Sim::standard(Arc::clone(&h), 5, 1);
    sim.run(12_000);
    let records = sim.ledger().instances().len();
    let probe = Checkpoint::capture_cc1(&sim).unwrap().to_bytes();
    let image = probe.len();
    eprintln!("cc1 ring48: {records} records, image {image} B");
    assert!(records > 5_000, "a long history");
    assert!(image <= 16 * records, "{image} B for {records} records");
    let mut blob = Vec::new();
    assert!(sim.save_state(&mut blob));
    assert!(blob.len() <= sim.encoded_size_hint(), "the hint is a bound");
    drop(probe);

    // Hub committees: every position word is several bytes, and then some.
    let hubs = Arc::new(generators::power_law(1536, 2304, 7));
    let widest = hubs
        .edge_ids()
        .map(|e| hubs.members(e).len())
        .max()
        .unwrap();
    let mut cc2 = Cc2Sim::standard(Arc::clone(&hubs), 5, 1);
    cc2.run(4_000);
    let cc2_records = cc2.ledger().instances().len();
    let cc2_image = Checkpoint::capture_cc2(&cc2).unwrap().to_bytes().len();
    eprintln!("cc2 power_law(1536, 2304): committees up to {widest}, {cc2_records} records, image {cc2_image} B");
    assert!(
        widest > 32 && cc2_records > 5_000,
        "hubs and a long history"
    );
    assert!(
        cc2_image <= 32 * cc2_records,
        "{cc2_image} B for {cc2_records} records"
    );
    let mut blob = Vec::new();
    assert!(cc2.save_state(&mut blob));
    assert!(blob.len() <= cc2.encoded_size_hint(), "the hint is a bound");

    let (wrote, bytes) = requests_during(image / 2, || {
        Checkpoint::capture_cc1(&sim).unwrap().to_bytes()
    });
    eprintln!("capture+to_bytes: image {image}, {wrote:?}");
    assert_eq!(bytes.len(), image);
    assert!(
        wrote.total * 100 <= image * 115,
        "{wrote:?} for a {image}-byte image"
    );
    assert_eq!(wrote.big, 1, "one block holds the image: {wrote:?}");

    // Verify before copy: one flipped bit, and nothing of size is requested.
    let mut torn = bytes.to_vec();
    torn[image / 2] ^= 0x10;
    let (refused, result) = requests_during(image / 2, || Checkpoint::from_bytes(&torn));
    assert!(result.is_err());
    assert!(refused.total < 1024, "{refused:?} while refusing");

    // The way back: the image once, then the sealed prefix adopted as the
    // segments it already is — a block of the image's size only once —
    // and the tail behind the oldest live meeting and state that is per
    // process and per committee: nothing else grows with the run.
    let (read, restored) = requests_during(image / 2, || {
        Checkpoint::from_bytes(&bytes)
            .unwrap()
            .restore_cc1()
            .unwrap()
    });
    let held = restored.ledger().footprint();
    eprintln!("from_bytes+restore: records {records}, {held:?}, {read:?}");
    assert_eq!(restored.steps(), sim.steps());
    assert!(held.sealed_records > records / 2, "{held:?}");
    assert!(held.sealed_bytes <= image, "{held:?}");
    let per_world = 1024 * (n + m);
    assert!(
        read.total <= 2 * image + per_world,
        "{read:?} for {image} bytes of {records} records"
    );
    assert_eq!(read.big, 1, "the image, and the segments apart: {read:?}");

    // The service checkpoint is the same single pass.
    let traffic = || TrafficGen::new(&h, 9, Arrivals::Poisson { rate: 2.0 }, 50_000);
    let cfg = ServiceConfig::default();
    let mut svc = cc1_service(Arc::clone(&h), 8, 1, "par1", Box::new(traffic()), cfg).unwrap();
    svc.run(20_000);
    let blob = svc.checkpoint().unwrap().len();
    let (wrote, bytes) = requests_during(blob / 2, || svc.checkpoint().unwrap());
    eprintln!("service checkpoint: blob {blob}, {wrote:?}");
    assert!(
        wrote.total * 100 <= blob * 115,
        "{wrote:?} for a {blob}-byte blob"
    );
    assert_eq!(wrote.big, 1, "one block holds the blob: {wrote:?}");
    assert!(cc1_service_restore(Box::new(traffic()), &bytes).is_some());
}
