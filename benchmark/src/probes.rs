//! Stand-alone measurements of single layers, made next to the traced run:
//! the token substrate on its own world, the graph's mutation primitive on
//! a clone, the boundary-frame codec on captured frames — and the bare-`Sim`
//! replay of a service's admission log that checks the service against it.

use crate::spans;
use crate::stats;
use rand::{rngs::StdRng, SeedableRng as _};
use sscc_core::{Cc1, Cc1State, CcTok, OpenLoopPolicy, Sim};
use sscc_dist::BoundaryFrame;
use sscc_hypergraph::{random_mutation, Hypergraph};
use sscc_runtime::prelude::{Synchronous, World};
use sscc_token::{token_holders, WaveState, WaveToken};
use std::hint::black_box;
use std::sync::Arc;

/// Steps the stand-alone token world is run for.
const TOKEN_STEPS: u64 = 3_000;

/// `(ns per step, steps per full circulation)` of a stand-alone
/// `World<WaveToken>` on `h` under the synchronous daemon, clean boot. The
/// circulation length is extrapolated from the hand-offs seen in
/// [`TOKEN_STEPS`] steps: `slots × steps ÷ hand-offs` (0 if none was seen).
pub fn token(h: &Arc<Hypergraph>) -> (f64, f64) {
    let layer = WaveToken::new(h);
    let mut world = World::new(Arc::clone(h), WaveToken::new(h));
    let mut daemon = Synchronous;
    let mut holder = token_holders(&layer, h, world.states());
    let mut handoffs = 0u64;
    let mut stepping_ns = 0;
    for _ in 0..TOKEN_STEPS {
        let t0 = spans::now();
        black_box(world.step(&mut daemon, &()));
        stepping_ns += spans::now() - t0;
        let now = token_holders(&layer, h, world.states());
        if !now.is_empty() && now != holder {
            handoffs += 1;
            holder = now;
        }
    }
    let circulation = if handoffs == 0 {
        0.0
    } else {
        f64::from(layer.slots()) * TOKEN_STEPS as f64 / handoffs as f64
    };
    (stepping_ns as f64 / TOKEN_STEPS as f64, circulation)
}

/// Median µs of `Hypergraph::apply_mutation` over 200 seeded proposals,
/// each applied to a fresh clone of `h` (rejected proposals included: they
/// pay validation).
pub fn apply_mutation_us(h: &Hypergraph, seed: u64) -> f64 {
    let samples: Vec<f64> = (0..200u64)
        .map(|k| {
            let mut rng = StdRng::seed_from_u64(seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let proposal = random_mutation(h, &mut rng);
            let mut copy = h.clone();
            let t0 = spans::now();
            let _ = black_box(copy.apply_mutation(&proposal));
            (spans::now() - t0) as f64 / 1e3
        })
        .collect();
    stats::median(&samples)
}

/// `(max committees per professor, mean closed-neighbourhood size)` — the
/// degree that bounds a commit's touched edges, and the footprint a dirty
/// process drags into re-evaluation.
pub fn shape(h: &Hypergraph) -> (f64, f64) {
    let max_degree = (0..h.n()).map(|p| h.incident(p).len()).max().unwrap_or(0);
    let footprint: usize = (0..h.n()).map(|p| h.closed_neighborhood(p).len()).sum();
    (max_degree as f64, footprint as f64 / h.n() as f64)
}

/// `(encode ns per frame, decode ns per frame)` of the boundary-frame codec
/// over frames the distributed tier actually sent (0s when none).
pub fn frame_codec(frames: &[Vec<u8>]) -> (f64, f64) {
    type Frame = BoundaryFrame<CcTok<Cc1State, WaveState>>;
    if frames.is_empty() {
        return (0.0, 0.0);
    }
    let t0 = spans::now();
    let decoded: Vec<Frame> = frames
        .iter()
        .map(|b| Frame::decode(b).expect("a frame the engine sent decodes"))
        .collect();
    let t1 = spans::now();
    for f in &decoded {
        black_box(f.encode());
    }
    let t2 = spans::now();
    let n = frames.len() as f64;
    ((t2 - t1) as f64 / n, (t1 - t0) as f64 / n)
}

/// Replay a service's admission log into a bare `Sim` (the
/// `service_equiv.rs` construction) for `ticks` ticks; the trajectory
/// digest after the last one.
pub fn bare_replay(
    h: &Arc<Hypergraph>,
    seed: u64,
    mode: &str,
    log: &[(u64, usize)],
    ticks: u64,
) -> u64 {
    let mut sim = Sim::builder(Arc::clone(h), Cc1::new(), WaveToken::new(h))
        .seed(seed)
        .policy(Box::new(OpenLoopPolicy::new(h.n(), 1)))
        .mode(mode)
        .build()
        .expect("registry mode");
    let mut at = 0;
    for t in 1..=ticks {
        while at < log.len() && log[at].0 == t {
            sim.flags_mut().set_in(log[at].1, true);
            at += 1;
        }
        sim.step();
    }
    stats::digest(sim.ledger(), sim.steps())
}
