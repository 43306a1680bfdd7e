//! Steady-state engine throughput in the *root-workspace* build: steps per
//! second for CC1 and CC2 on `ring(1536, 2)` under the default mode, 400
//! warm-up steps and 1 200 timed ones.
//!
//! Hot-path speed is build-sensitive (the same engine source has measured
//! −20 % here and +3 % in the `benchmark/` build), so a change to
//! `World::step_into` and its callees is timed in both builds, parent and
//! change interleaved. `benchmark/` is the instrument and the gate; this is
//! the root-workspace reading beside it.
//!
//! ```sh
//! cargo run --release --example steps_per_s
//! ```

use sscc::core::sim::{Cc1Sim, Cc2Sim};
use sscc::hypergraph::generators;
use std::sync::Arc;
use std::time::Instant;

const WARM_UP: u64 = 400;
const TIMED: u64 = 1_200;

/// Steps per second of `step` over [`TIMED`] calls after [`WARM_UP`].
fn steps_per_s(mut step: impl FnMut()) -> f64 {
    for _ in 0..WARM_UP {
        step();
    }
    let start = Instant::now();
    for _ in 0..TIMED {
        step();
    }
    TIMED as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let h = Arc::new(generators::ring(1536, 2));
    let mut cc1 = Cc1Sim::standard(Arc::clone(&h), 7, 1);
    let mut cc2 = Cc2Sim::standard(Arc::clone(&h), 7, 1);
    println!("ring1536x2, mode {}, {TIMED} steps:", cc1.config());
    println!(
        "  cc1 {:>9.0} steps/s",
        steps_per_s(|| {
            cc1.step();
        })
    );
    println!(
        "  cc2 {:>9.0} steps/s",
        steps_per_s(|| {
            cc2.step();
        })
    );
}
