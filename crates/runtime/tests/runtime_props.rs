//! Property and behavioral tests for the runtime: daemon contracts, round
//! semantics, fair composition liveness, and composite atomicity.

use proptest::prelude::*;
use sscc_hypergraph::{generators, Hypergraph};
use sscc_runtime::prelude::*;
use std::sync::Arc;

/// Test algorithm: a bounded counter that also mirrors its left neighbor —
/// rich enough to exercise atomicity and neutralization.
struct Mirror {
    limit: u32,
}

impl GuardedAlgorithm for Mirror {
    type State = u32;
    type Env = ();

    fn action_count(&self) -> usize {
        2
    }
    fn action_name(&self, a: ActionId) -> String {
        ["bump", "mirror"][a].to_string()
    }
    fn initial_state(&self, _h: &Hypergraph, me: usize) -> u32 {
        me as u32
    }
    fn priority_action<A: StateAccess<u32> + ?Sized>(
        &self,
        ctx: &Ctx<'_, u32, (), A>,
    ) -> Option<ActionId> {
        let me = *ctx.my_state();
        let best = ctx.neighbor_states().map(|(_, &s)| s).max().unwrap_or(0);
        // Priority: mirror (1) beats bump (0).
        if best > me {
            Some(1)
        } else if me < self.limit {
            Some(0)
        } else {
            None
        }
    }
    fn execute<A: StateAccess<u32> + ?Sized>(&self, ctx: &Ctx<'_, u32, (), A>, a: ActionId) -> u32 {
        match a {
            0 => ctx.my_state() + 1,
            1 => ctx.neighbor_states().map(|(_, &s)| s).max().unwrap(),
            _ => unreachable!(),
        }
    }
}

/// Two-field state for the value-level invalidation tests: `shared` is
/// read by neighbors' guards, `private` only by the process itself — so a
/// private-only change must not re-enqueue the neighborhood.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Split {
    shared: u32,
    private: u32,
}

struct SplitAlgo {
    limit: u32,
}

impl GuardedAlgorithm for SplitAlgo {
    type State = Split;
    type Env = ();

    fn action_count(&self) -> usize {
        2
    }
    fn action_name(&self, a: ActionId) -> String {
        ["tally", "sync"][a].to_string()
    }
    fn initial_state(&self, _h: &Hypergraph, me: usize) -> Split {
        Split {
            shared: me as u32 % 5,
            private: 0,
        }
    }
    fn priority_action<A: StateAccess<Split> + ?Sized>(
        &self,
        ctx: &Ctx<'_, Split, (), A>,
    ) -> Option<ActionId> {
        let me = ctx.my_state();
        let best = ctx
            .neighbor_states()
            .map(|(_, s)| s.shared)
            .max()
            .unwrap_or(0);
        if best > me.shared {
            Some(1)
        } else if me.private < me.shared.min(self.limit) {
            Some(0)
        } else {
            None
        }
    }
    fn execute<A: StateAccess<Split> + ?Sized>(
        &self,
        ctx: &Ctx<'_, Split, (), A>,
        a: ActionId,
    ) -> Split {
        let me = *ctx.my_state();
        match a {
            1 => Split {
                shared: ctx.neighbor_states().map(|(_, s)| s.shared).max().unwrap(),
                ..me
            },
            0 => Split {
                private: me.private + 1,
                ..me
            },
            _ => unreachable!(),
        }
    }
    fn note_write(
        &mut self,
        h: &Hypergraph,
        states: &[Split],
        p: usize,
        old: &Split,
        mut mark: impl FnMut(usize),
    ) {
        // Neighbors read only `shared`; `private` is read by the process
        // itself, which the engine re-enqueues anyway.
        if old.shared != states[p].shared {
            h.closed_neighborhood(p).iter().for_each(|&q| mark(q));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Value-level invalidation under a declared reader set: the engine
    /// stays bit-identical to the full-scan oracle, and after every step
    /// the dirty queue is a superset of the processes whose
    /// state changed and a subset of the union of their closed
    /// neighborhoods — collapsing to exactly the changed processes when
    /// only self-read fields moved.
    #[test]
    fn value_level_dirty_set_bounds(seed in 0u64..500, boot in 0u32..40) {
        let h = Arc::new(generators::ring(16, 2));
        let mut wd = World::new(Arc::clone(&h), SplitAlgo { limit: 40 });
        let mut wv = World::new(Arc::clone(&h), SplitAlgo { limit: 40 });
        let hot = Split { shared: 50 + boot, private: 0 };
        wd.set_state(0, hot);
        wv.set_state(0, hot);
        wd.configure(&EngineConfig::full_scan()).unwrap();
        let mut dd = WeaklyFair::new(DistributedRandom::new(seed, 0.5), 4);
        let mut dv = WeaklyFair::new(DistributedRandom::new(seed, 0.5), 4);
        for _ in 0..250 {
            let before = wv.states().to_vec();
            let od = wd.step(&mut dd, &());
            let ov = wv.step(&mut dv, &());
            prop_assert_eq!(&od, &ov);
            prop_assert_eq!(wd.states(), wv.states());
            if od.terminal() {
                break;
            }
            let changed: Vec<usize> =
                (0..h.n()).filter(|&p| before[p] != wv.states()[p]).collect();
            let dirty = wv.dirty_queue();
            for &p in &changed {
                prop_assert!(dirty.contains(&p), "changed {} not re-enqueued", p);
            }
            for &q in dirty {
                prop_assert!(
                    changed.iter().any(|&p| h.closed_neighborhood(p).contains(&q)),
                    "dirty {} outside every changed neighborhood", q
                );
            }
            // The tightening the descriptor buys: private-only steps
            // re-enqueue exactly the processes that moved.
            let shared_moved = changed
                .iter()
                .any(|&p| before[p].shared != wv.states()[p].shared);
            if !shared_moved {
                for &q in dirty {
                    prop_assert!(changed.contains(&q), "private-only step leaked {}", q);
                }
            }
        }
    }

    /// Whatever the daemon, execution reaches the same fixpoint: everyone
    /// at `max(limit, n-1)` — the largest initial value propagates through
    /// `mirror` and the maximum then bumps to `limit` if below it
    /// (confluence of this particular algorithm).
    #[test]
    fn daemons_agree_on_fixpoint(seed in 0u64..1000, limit in 1u32..20) {
        let h = Arc::new(generators::fig1());
        let fix = limit.max(h.n() as u32 - 1);
        let mut outcomes = Vec::new();
        let daemons: Vec<Box<dyn Daemon>> = vec![
            Box::new(Synchronous),
            Box::new(WeaklyFair::new(Central::new(seed), 8)),
            Box::new(WeaklyFair::new(DistributedRandom::new(seed, 0.4), 8)),
            Box::new(RoundRobin::default()),
        ];
        for mut d in daemons {
            let mut w = World::new(Arc::clone(&h), Mirror { limit });
            let (_, q) = w.run_to_quiescence(&mut *d, &(), 200_000);
            prop_assert!(q, "must quiesce");
            outcomes.push(w.states().to_vec());
        }
        for o in &outcomes {
            prop_assert!(o.iter().all(|&s| s == fix), "{o:?} vs fix {fix}");
        }
    }

    /// Rounds never exceed steps, and under the synchronous daemon each
    /// step closes exactly one round (every enabled process moves).
    #[test]
    fn synchronous_rounds_equal_steps(limit in 1u32..12) {
        let h = Arc::new(generators::fig2());
        let mut w = World::new(Arc::clone(&h), Mirror { limit });
        let mut rt = RoundTracker::new();
        let mut d = Synchronous;
        let mut steps = 0u64;
        loop {
            let out = w.step(&mut d, &());
            rt.begin_step(&out.enabled);
            if out.terminal() {
                break;
            }
            rt.record_executed(
                &out.executed.iter().map(|&(p, _)| p).collect::<Vec<_>>(),
            );
            steps += 1;
        }
        // Synchronous: every step activates all enabled -> the round closes
        // at the next begin_step; the last round stays open.
        prop_assert!(rt.rounds() <= steps);
        prop_assert!(rt.rounds() + 1 >= steps, "rounds {} steps {}", rt.rounds(), steps);
    }

    /// The weakly fair wrapper preserves the inner selection when no one is
    /// overdue, and never returns an empty or non-enabled set.
    #[test]
    fn weakly_fair_contract(seed in 0u64..1000, bound in 1usize..6) {
        let mut d = WeaklyFair::new(DistributedRandom::new(seed, 0.5), bound);
        use rand::{Rng as _, SeedableRng as _};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 99);
        let mut picked = Vec::new();
        for _ in 0..200 {
            let enabled: Vec<usize> =
                (0..8).filter(|_| rng.random_bool(0.5)).collect();
            // Reused selection buffer: the `Selection::All` arm copies the
            // enabled slice straight into it, no temporary.
            d.select_into(&enabled, &mut picked);
            if enabled.is_empty() {
                prop_assert!(picked.is_empty());
            } else {
                prop_assert!(!picked.is_empty());
                for p in &picked {
                    prop_assert!(enabled.contains(p));
                }
            }
        }
    }

    /// The incremental (delta-fed) WeaklyFair bookkeeping selects
    /// **identically** to the rescan reference — same sets, same order —
    /// under randomly evolving enabled sets, biased inner daemons (to
    /// exercise forcing) and every small bound, including `bound = 0`.
    /// This is the bounded-delay guarantee of the paper's weakly fair
    /// daemon, preserved exactly by the `observe_delta` path.
    #[test]
    fn weakly_fair_incremental_matches_rescan(
        seed in 0u64..2000,
        bound in 0usize..5,
        p_act in 1u32..6,
    ) {
        use rand::{Rng as _, SeedableRng as _};
        let n = 10usize;
        // Same-seeded inner daemons: both twins consume identical RNG
        // streams as long as their selections agree.
        let mk_inner = || DistributedRandom::new(seed ^ 0xfa1, f64::from(p_act) * 0.1);
        let mut rescan = WeaklyFair::new(mk_inner(), bound);
        let mut inc = WeaklyFair::new(mk_inner(), bound);
        inc.set_incremental(true);
        prop_assert!(inc.wants_view() && !rescan.wants_view());

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut member = vec![false; n];
        let (mut added, mut removed) = (Vec::new(), Vec::new());
        for step in 0..300 {
            // Evolve the enabled set: flip a few processes, then report
            // the *net* membership diff — ascending, disjoint — exactly
            // the contract the engine's scheduler delivers.
            let before = member.clone();
            for _ in 0..rng.random_range(0..3usize) {
                let p = rng.random_range(0..n);
                member[p] = !member[p];
            }
            if !member.iter().any(|&m| m) {
                // The engine never consults the daemon on a terminal
                // configuration — keep the enabled set non-empty.
                member[rng.random_range(0..n)] = true;
            }
            added.clear();
            removed.clear();
            for p in 0..n {
                if member[p] != before[p] {
                    if member[p] { added.push(p) } else { removed.push(p) }
                }
            }
            let enabled: Vec<usize> =
                (0..n).filter(|&p| member[p]).collect();
            inc.observe_delta(&added, &removed);
            let sr = rescan.select_step(&enabled);
            let si = inc.select_step(&enabled);
            prop_assert_eq!(&sr, &si, "step {}: rescan {:?} vs incremental {:?}", step, sr, si);
        }
    }

    /// Fault striking stays within the state domain contract (here: any
    /// u32 from the implementor) and is reproducible.
    #[test]
    fn strike_determinism(seed in 0u64..1000) {
        let h = Arc::new(generators::fig2());
        let mut w1 = World::new(Arc::clone(&h), Mirror { limit: 5 });
        let mut w2 = World::new(Arc::clone(&h), Mirror { limit: 5 });
        strike(&mut w1, seed);
        strike(&mut w2, seed);
        prop_assert_eq!(w1.states(), w2.states());
    }
}

/// Composite atomicity, pinned precisely: in one synchronous step, `mirror`
/// reads the *pre-step* neighbor values even while those neighbors bump.
#[test]
fn composite_atomicity_pinned() {
    // Path 1-2-3, values [9, 0, 0]: synchronously, 2 mirrors 9 (pre-step),
    // 3 mirrors 0's pre-step... 3's neighbors = {2} with value 0 -> 3 has
    // no larger neighbor; 3 bumps instead (or is at limit).
    let h = Arc::new(Hypergraph::new(&[&[1, 2], &[2, 3]]));
    let mut w = World::with_states(Arc::clone(&h), Mirror { limit: 100 }, vec![9, 0, 0]);
    w.step(&mut Synchronous, &());
    assert_eq!(w.states()[0], 10, "1 bumps (no larger neighbor)");
    assert_eq!(w.states()[1], 9, "2 mirrors 1's PRE-step value");
    assert_eq!(
        w.states()[2],
        1,
        "3 bumps: its only neighbor was 0 pre-step"
    );
}

/// Fair composition: with both layers continuously enabled, executions
/// alternate exactly; a starved layer is impossible.
#[test]
fn fair_pair_alternation_liveness() {
    struct Tick;
    impl GuardedAlgorithm for Tick {
        type State = u32;
        type Env = ();
        fn action_count(&self) -> usize {
            1
        }
        fn action_name(&self, _: ActionId) -> String {
            "tick".into()
        }
        fn initial_state(&self, _: &Hypergraph, _: usize) -> u32 {
            0
        }
        fn priority_action<A: StateAccess<u32> + ?Sized>(
            &self,
            _: &Ctx<'_, u32, (), A>,
        ) -> Option<ActionId> {
            Some(0) // always enabled
        }
        fn execute<A: StateAccess<u32> + ?Sized>(
            &self,
            ctx: &Ctx<'_, u32, (), A>,
            _: ActionId,
        ) -> u32 {
            ctx.my_state() + 1
        }
    }
    let h = Arc::new(generators::fig2());
    let mut w = World::new(Arc::clone(&h), FairPair::new(Tick, Tick));
    let mut d = Central::new(4);
    for _ in 0..500 {
        w.step(&mut d, &());
    }
    for p in 0..h.n() {
        let s = w.state(p);
        // Strict alternation: the two layer counters differ by at most 1.
        assert!(
            s.a.abs_diff(s.b) <= 1,
            "p{p}: layers diverged: a={} b={}",
            s.a,
            s.b
        );
    }
}

/// Scripted daemons replay their schedule then fall back gracefully.
#[test]
fn scripted_daemon_drives_exact_schedule() {
    let h = Arc::new(generators::fig2());
    let mut w = World::new(Arc::clone(&h), Mirror { limit: 3 });
    // Everyone starts enabled (value < limit or has bigger neighbor).
    let mut d = Scripted::new([vec![0], vec![1], vec![2]]);
    let s1 = w.step(&mut d, &());
    assert_eq!(
        s1.executed.iter().map(|&(p, _)| p).collect::<Vec<_>>(),
        vec![0]
    );
    let s2 = w.step(&mut d, &());
    assert_eq!(
        s2.executed.iter().map(|&(p, _)| p).collect::<Vec<_>>(),
        vec![1]
    );
}

/// Trace recording matches executed actions one-to-one.
#[test]
fn trace_matches_execution() {
    let h = Arc::new(generators::fig2());
    let mut w = World::new(Arc::clone(&h), Mirror { limit: 4 });
    let mut trace = Trace::new();
    let mut d = Synchronous;
    let mut expected = 0usize;
    for step in 0..10u64 {
        let out = w.step(&mut d, &());
        if out.terminal() {
            break;
        }
        trace.record(step, 0, &out.executed);
        expected += out.executed.len();
    }
    assert_eq!(trace.events().len(), expected);
}
