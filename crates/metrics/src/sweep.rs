//! Deterministic parallel seed sweeps.
//!
//! Every experiment in the suite is "run the same scenario under many seeds
//! and aggregate" — embarrassingly parallel. We shard the seed range over
//! scoped worker threads (no `'static` bound needed, results streamed over a
//! channel) and reassemble in seed order so that the output is
//! bit-identical to a sequential run, regardless of thread count.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;

/// Map `f` over `seeds` in parallel; results are returned in seed order.
/// `f` must be deterministic in its seed for reproducibility.
pub fn parallel_map<T, F>(seeds: std::ops::Range<u64>, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let n = (seeds.end - seeds.start) as usize;
    if n == 0 {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n);
    if workers <= 1 {
        return seeds.map(f).collect();
    }
    let (tx, rx) = mpsc::channel::<(u64, T)>();
    let next = AtomicU64::new(seeds.start);
    let end = seeds.end;
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                // Each worker overshoots `end` by at most one ticket, so the
                // counter cannot wrap.
                let seed = next.fetch_add(1, Ordering::Relaxed);
                if seed >= end {
                    return;
                }
                // A worker panic drops `tx`; the collector below then sees a
                // short channel and the final assert reports the loss.
                let _ = tx.send((seed, f(seed)));
            });
        }
        drop(tx);
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for (seed, val) in rx {
            out[(seed - seeds.start) as usize] = Some(val);
        }
        let collected: Vec<T> = out.into_iter().flatten().collect();
        assert_eq!(collected.len(), n, "a sweep worker panicked");
        collected
    })
}

/// Fold a parallel sweep: `map` per seed in parallel, then `fold`
/// sequentially in seed order (deterministic aggregation).
pub fn parallel_fold<T, A, M, F>(seeds: std::ops::Range<u64>, init: A, map: M, fold: F) -> A
where
    T: Send,
    M: Fn(u64) -> T + Sync,
    F: FnMut(A, T) -> A,
{
    parallel_map(seeds, map).into_iter().fold(init, fold)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_seed_order() {
        let out = parallel_map(10..30, |s| s * 2);
        let expect: Vec<u64> = (10..30).map(|s| s * 2).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn empty_range() {
        let out: Vec<u64> = parallel_map(5..5, |s| s);
        assert!(out.is_empty());
    }

    #[test]
    fn matches_sequential_with_stateful_work() {
        use rand::{Rng as _, SeedableRng as _};
        let work = |seed: u64| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            (0..100).map(|_| rng.random_range(0..1000u32)).sum::<u32>()
        };
        let par = parallel_map(0..16, work);
        let seq: Vec<u32> = (0..16).map(work).collect();
        assert_eq!(par, seq, "parallel sweep is bit-identical to sequential");
    }

    #[test]
    fn fold_aggregates_in_order() {
        let sum = parallel_fold(0..100, 0u64, |s| s, |acc, x| acc + x);
        assert_eq!(sum, 4950);
    }
}
