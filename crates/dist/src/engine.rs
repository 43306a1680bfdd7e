//! Shard actors and the coordinating distributed engine.
//!
//! One [`DistEngine`] owns `k` shard actors (one per
//! [`ShardPlan`] shard) and a
//! [`BoundaryTransport`]. Each actor holds the **authoritative** states of
//! its members plus **ghost** copies of its frontier; all cross-shard state
//! flows as serialized [`BoundaryFrame`]s — an actor never reads another
//! actor's memory.
//!
//! A step runs in two phases, cooperatively scheduled by the coordinator
//! (v1 drives actors on the stepping thread; the transport seam is what a
//! multi-process deployment would parallelize over):
//!
//! 1. **Deliver + refresh** — each actor drains its inbox, checks the
//!    frames' causal metadata (step tag = previous committed step,
//!    per-channel sequence gap-free), applies the ghost updates, marks the
//!    member guards whose footprints those ghosts touch, and re-evaluates
//!    its dirty guards against its frozen local view. The coordinator
//!    merges the per-shard enabled sets into the global ascending enabled
//!    set.
//! 2. **Select + commit** — the daemon picks from the merged enabled set
//!    (identical call sequence to the shared-memory engine, so seeded
//!    daemons stay on the same trajectory); each actor executes its
//!    selected members against the *frozen* pre-step local view (composite
//!    atomicity), commits locally, and publishes each changed boundary
//!    state in one frame per reading shard, tagged with the committing
//!    step's logical clock.
//!
//! Frames sent at step `t` are applied in phase 1 of step `t + 1`, so a
//! ghost always holds the pre-step value of its owner — exactly what a
//! shared-memory guard evaluation would read. That alignment (plus pure
//! guards) is the whole bit-identity argument; the differential suite
//! checks it engine-for-engine.

use crate::frame::BoundaryFrame;
use crate::transport::{BoundaryTransport, ChannelTransport};
use sscc_hypergraph::{Hypergraph, ShardPlan};
use sscc_runtime::algorithm::{ActionId, GuardedAlgorithm};
use sscc_runtime::ctx::Ctx;
use sscc_runtime::daemon::Daemon;
use sscc_runtime::engine::{StepOutcome, World};
use sscc_runtime::wire::StateCodec;
use std::sync::Arc;

/// Cumulative message-volume counters, for the bench's per-step columns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MessageStats {
    /// Boundary frames sent.
    pub frames: u64,
    /// Serialized frame bytes sent (headers + entries + checksums).
    pub bytes: u64,
    /// Non-terminal steps the engine committed.
    pub steps: u64,
}

/// Object-safe dispatch seam the `Sim` layer drives: one distributed step,
/// environment invalidation, and message-volume observability. Boxed so
/// the facade stores any engine/transport combination behind one field.
pub trait DistDrive<A: GuardedAlgorithm> {
    /// Execute one step: phase 1 (deliver + refresh + merge), daemon
    /// selection, phase 2 (execute + commit + publish). Mirrors
    /// [`World::step_into`] observationally — `out` is filled with the
    /// identical enabled/executed sets, the world's states and step count
    /// are kept in sync, and terminal configurations return without
    /// consulting the daemon.
    fn step_into(
        &mut self,
        world: &mut World<A>,
        daemon: &mut dyn Daemon,
        env: &A::Env,
        out: &mut StepOutcome,
    );

    /// Queue an environment invalidation for process `p` (a request flag
    /// flipped): the owning actors re-evaluate the guards in `p`'s
    /// [`env_footprint`](GuardedAlgorithm::env_footprint) at the start of
    /// the next step.
    fn invalidate_env_of(&mut self, p: usize);

    /// Re-seed every actor from the world's committed configuration —
    /// the hook for state surgery applied *through the world* (restore,
    /// engineered configurations). Local views are recloned, every guard
    /// is marked dirty, in-flight frames are discarded and the sequence
    /// bookkeeping is reset on both ends (self-consistent because the
    /// channels are left empty).
    fn resync(&mut self, world: &World<A>);

    /// Cumulative message-volume counters.
    fn stats(&self) -> MessageStats;

    /// Number of shard actors (the plan may clamp below the requested
    /// count on tiny topologies).
    fn shards(&self) -> usize;
}

/// One shard's actor: authoritative member states, frontier ghosts, a
/// per-member guard cache, and the routing table for its boundary.
struct ShardActor<S> {
    /// Members, ascending by dense index (ownership itself is
    /// [`ShardPlan::shard_of`]).
    members: Vec<usize>,
    /// Full-length local view: authoritative for members, ghosts for the
    /// frontier; every other slot is never read.
    local: Vec<S>,
    /// Cached priority action per member (the actor-local twin of the
    /// scheduler's cache).
    cache: Vec<Option<ActionId>>,
    /// Members whose guard must be re-evaluated next refresh.
    dirty: Vec<bool>,
    /// Re-evaluate every member next refresh (boot / restore).
    all_dirty: bool,
    /// Ascending enabled members, rebuilt each refresh.
    enabled: Vec<usize>,
    /// Routing: `subs[t]` = this shard's boundary members whose state
    /// shard `t` reads (ascending). Precomputed from
    /// [`ShardPlan::boundary_of`].
    subs: Vec<Vec<usize>>,
    /// Per-destination outgoing sequence numbers (gap-free from 1).
    seq_out: Vec<u64>,
    /// Per-sender last accepted sequence number.
    seq_in: Vec<u64>,
    /// This step's selected members (ascending), coordinator-assigned.
    selected: Vec<usize>,
    /// Phase-2 staging: next states computed against the frozen view.
    staged: Vec<(usize, S)>,
    /// Per-destination outgoing entry batches (reused).
    outbox: Vec<Vec<(usize, S)>>,
    /// Reused inbox drain buffer.
    inbox: Vec<Vec<u8>>,
}

/// The coordinating distributed engine: `k` shard actors over a
/// [`BoundaryTransport`], driven through the [`DistDrive`] seam.
pub struct DistEngine<A: GuardedAlgorithm> {
    h: Arc<Hypergraph>,
    plan: Arc<ShardPlan>,
    actors: Vec<ShardActor<A::State>>,
    transport: Box<dyn BoundaryTransport>,
    /// Trust daemon `Selection` promises (skip subset validation), same
    /// semantics as the shared-memory engine's flag.
    trusted: bool,
    /// Logical clock: number of committed (non-terminal) steps. Frames are
    /// tagged with the clock of their committing step; receivers assert
    /// (in every profile) they apply step-`t` frames while preparing step
    /// `t + 1`.
    step_tag: u64,
    /// Queued env invalidations, resolved through
    /// [`GuardedAlgorithm::env_footprint`] at the next refresh.
    pending_env: Vec<usize>,
    /// Enabled-set observation mirror for daemons that want view deltas.
    obs: Vec<bool>,
    now: Vec<bool>,
    added: Vec<usize>,
    removed: Vec<usize>,
    selected: Vec<usize>,
    stats: MessageStats,
}

impl<A> DistEngine<A>
where
    A: GuardedAlgorithm,
    A::State: StateCodec,
{
    /// Build the tier over `world`'s topology and current configuration,
    /// with an in-process [`ChannelTransport`]. The shard count is clamped
    /// by the plan (no empty shards); `trusted` mirrors the engine's
    /// trusted-daemon flag.
    pub fn new(world: &World<A>, shards: usize, trusted: bool) -> Self {
        Self::with_transport(world, shards, trusted, |k| {
            Box::new(ChannelTransport::new(k))
        })
    }

    /// Build with a caller-supplied transport (the seam a socket backend
    /// plugs into). `make` receives the clamped shard count.
    pub fn with_transport(
        world: &World<A>,
        shards: usize,
        trusted: bool,
        make: impl FnOnce(usize) -> Box<dyn BoundaryTransport>,
    ) -> Self {
        let h = world.h_arc();
        let plan = h.shard_plan(shards);
        let k = plan.shards();
        let n = h.n();
        let states = world.states();
        let mut actors = Vec::with_capacity(k);
        for s in 0..k {
            let mut members = plan.members(s).to_vec();
            members.sort_unstable();
            // Routing: a boundary member's state goes to every shard owning
            // part of its closed neighborhood.
            let mut subs = vec![Vec::new(); k];
            for p in plan.boundary_of(&h, s) {
                let mut dests = vec![false; k];
                for &q in h.closed_neighborhood(p) {
                    let t = plan.shard_of(q);
                    if t != s {
                        dests[t] = true;
                    }
                }
                for (t, sub) in subs.iter_mut().enumerate() {
                    if dests[t] {
                        sub.push(p);
                    }
                }
            }
            actors.push(ShardActor {
                members,
                // Ghost slots start from the same committed configuration
                // the members do; unused slots are never read.
                local: states.to_vec(),
                cache: vec![None; n],
                dirty: vec![false; n],
                all_dirty: true,
                enabled: Vec::new(),
                subs,
                seq_out: vec![0; k],
                seq_in: vec![0; k],
                selected: Vec::new(),
                staged: Vec::new(),
                outbox: vec![Vec::new(); k],
                inbox: Vec::new(),
            });
        }
        let transport = make(k);
        assert_eq!(transport.shards(), k, "transport endpoint count");
        DistEngine {
            h,
            plan,
            actors,
            transport,
            trusted,
            step_tag: 0,
            pending_env: Vec::new(),
            obs: world.observation_snapshot(),
            now: vec![false; n],
            added: Vec::new(),
            removed: Vec::new(),
            selected: Vec::new(),
            stats: MessageStats::default(),
        }
    }
}

impl<A> DistDrive<A> for DistEngine<A>
where
    A: GuardedAlgorithm,
    A::State: StateCodec,
{
    fn step_into(
        &mut self,
        world: &mut World<A>,
        daemon: &mut dyn Daemon,
        env: &A::Env,
        out: &mut StepOutcome,
    ) {
        let DistEngine {
            h,
            plan,
            actors,
            transport,
            trusted,
            step_tag,
            pending_env,
            obs,
            now,
            added,
            removed,
            selected,
            stats,
        } = self;
        let h = &**h;
        {
            let algo = world.algo();
            // Queued env invalidations: mark the env footprints' owners.
            for &p in pending_env.iter() {
                for &q in algo.env_footprint(h, p) {
                    let actor = &mut actors[plan.shard_of(q)];
                    if !actor.all_dirty {
                        actor.dirty[q] = true;
                    }
                }
            }
            pending_env.clear();
            // Phase 1: deliver boundary frames, refresh dirty guards.
            for (s, actor) in actors.iter_mut().enumerate() {
                transport.drain_into(s, &mut actor.inbox);
                let inbox = std::mem::take(&mut actor.inbox);
                for bytes in &inbox {
                    let f = BoundaryFrame::<A::State>::decode(bytes)
                        .expect("boundary frame from an in-process peer decodes");
                    assert_eq!(f.to, s, "frame routed to the wrong shard");
                    // Causal metadata: the frame carries its committing
                    // step's clock — it must be the step immediately before
                    // the one being prepared — and the per-channel sequence
                    // must advance gap-free. Release asserts: a reordered,
                    // duplicated or replayed frame is well-formed, so these
                    // are the only thing between it and the ghosts.
                    assert!(
                        f.step.checked_add(1) == Some(*step_tag),
                        "ghost update from step {} applied while preparing step {}",
                        f.step,
                        *step_tag
                    );
                    assert!(
                        actor.seq_in.get(f.from).and_then(|q| q.checked_add(1)) == Some(f.seq),
                        "boundary channel {} -> {s} lost, duplicated or reordered a frame",
                        f.from
                    );
                    actor.seq_in[f.from] = f.seq;
                    for (v, sv) in f.entries {
                        assert!(
                            v < h.n() && plan.shard_of(v) != s,
                            "peer published a state this shard owns"
                        );
                        actor.local[v] = sv;
                        if !actor.all_dirty {
                            for &q in algo.state_footprint(h, v) {
                                if plan.shard_of(q) == s {
                                    actor.dirty[q] = true;
                                }
                            }
                        }
                    }
                }
                actor.inbox = inbox;
                actor.inbox.clear();
                for i in 0..actor.members.len() {
                    let p = actor.members[i];
                    if actor.all_dirty || actor.dirty[p] {
                        actor.cache[p] =
                            algo.priority_action(&Ctx::new(h, p, actor.local.as_slice(), env));
                        actor.dirty[p] = false;
                    }
                }
                actor.all_dirty = false;
                actor.enabled.clear();
                for &p in &actor.members {
                    if actor.cache[p].is_some() {
                        actor.enabled.push(p);
                    }
                }
            }
            // Merge the per-shard enabled sets (a partition of the global
            // one) into the ascending set the daemon contract expects.
            out.enabled.clear();
            for actor in actors.iter() {
                out.enabled.extend_from_slice(&actor.enabled);
            }
            out.enabled.sort_unstable();
            out.executed.clear();
            if out.enabled.is_empty() {
                return;
            }
            // Daemons maintaining an incremental view get net enabled-set
            // deltas, like the shared-memory engine's observation mirror.
            if daemon.wants_view() {
                added.clear();
                removed.clear();
                for &p in out.enabled.iter() {
                    now[p] = true;
                }
                for (p, o) in obs.iter_mut().enumerate() {
                    if now[p] && !*o {
                        added.push(p);
                    } else if !now[p] && *o {
                        removed.push(p);
                    }
                    *o = now[p];
                }
                for &p in out.enabled.iter() {
                    now[p] = false;
                }
                daemon.observe_delta(added, removed);
            }
            // The same contract enforcement as `World::step_into`.
            daemon
                .select_step(&out.enabled)
                .resolve_into(&out.enabled, *trusted, selected);
            // Phase 2: execute against the frozen pre-step views, commit
            // locally, publish changed boundary states. The global executed
            // list is emitted in ascending order (the selection is
            // ascending and ownership partitions it).
            for actor in actors.iter_mut() {
                actor.selected.clear();
            }
            for &p in selected.iter() {
                let actor = &actors[plan.shard_of(p)];
                let a = actor.cache[p].expect("selected ⊆ enabled");
                out.executed.push((p, a));
                actors[plan.shard_of(p)].selected.push(p);
            }
            for (s, actor) in actors.iter_mut().enumerate() {
                if actor.selected.is_empty() {
                    continue;
                }
                // Composite atomicity: every execute reads the frozen local
                // view; writes land only after the whole shard computed.
                actor.staged.clear();
                for i in 0..actor.selected.len() {
                    let p = actor.selected[i];
                    let a = actor.cache[p].expect("selected ⊆ enabled");
                    let st = algo.execute(&Ctx::new(h, p, actor.local.as_slice(), env), a);
                    actor.staged.push((p, st));
                }
                for (p, st) in actor.staged.drain(..) {
                    let changed = actor.local[p] != st;
                    // Only the executed footprints can change enabledness.
                    for &q in algo.state_footprint(h, p) {
                        if plan.shard_of(q) == s {
                            actor.dirty[q] = true;
                        }
                    }
                    if changed {
                        for (t, sub) in actor.subs.iter().enumerate() {
                            if sub.binary_search(&p).is_ok() {
                                actor.outbox[t].push((p, st.clone()));
                            }
                        }
                    }
                    actor.local[p] = st;
                }
                for t in 0..actor.outbox.len() {
                    if actor.outbox[t].is_empty() {
                        continue;
                    }
                    actor.seq_out[t] += 1;
                    let frame = BoundaryFrame {
                        from: s,
                        to: t,
                        step: *step_tag,
                        seq: actor.seq_out[t],
                        entries: std::mem::take(&mut actor.outbox[t]),
                    };
                    let bytes = frame.encode();
                    stats.frames += 1;
                    stats.bytes += bytes.len() as u64;
                    transport.send(t, bytes);
                }
            }
        }
        // Mirror the committed states into the world, which stays the
        // single source of truth for snapshots, fault surgery pre-checks
        // and the facade's terminal-path `enabled_now` probes.
        for &(p, _) in out.executed.iter() {
            let st = self.actors[self.plan.shard_of(p)].local[p].clone();
            if *world.state(p) != st {
                world.set_state(p, st);
            }
        }
        world.set_step_count(world.steps() + 1);
        self.step_tag += 1;
        self.stats.steps += 1;
    }

    fn invalidate_env_of(&mut self, p: usize) {
        self.pending_env.push(p);
    }

    fn resync(&mut self, world: &World<A>) {
        let states = world.states();
        let mut scratch = Vec::new();
        for s in 0..self.actors.len() {
            self.transport.drain_into(s, &mut scratch);
        }
        for actor in &mut self.actors {
            actor.local = states.to_vec();
            actor.all_dirty = true;
            actor.dirty.iter_mut().for_each(|d| *d = false);
            actor.seq_in.iter_mut().for_each(|q| *q = 0);
            actor.seq_out.iter_mut().for_each(|q| *q = 0);
            actor.outbox.iter_mut().for_each(Vec::clear);
            actor.staged.clear();
        }
        self.pending_env.clear();
        self.obs = world.observation_snapshot();
    }

    fn stats(&self) -> MessageStats {
        self.stats
    }

    fn shards(&self) -> usize {
        self.actors.len()
    }
}

#[cfg(test)]
mod tests {
    //! Engine-level lockstep: the distributed tier must walk the exact
    //! trajectory of the shared-memory engine on a plain guarded algorithm
    //! (the facade-level differential suite covers the composed committee
    //! algorithms).

    use super::*;
    use sscc_hypergraph::generators;
    use sscc_runtime::algorithm::GuardedAlgorithm;
    use sscc_runtime::ctx::StateAccess;
    use sscc_runtime::daemon::DistributedRandom;

    /// Max-propagation: adopt the neighborhood maximum when larger.
    struct MaxProp;
    impl GuardedAlgorithm for MaxProp {
        type State = u32;
        type Env = ();
        fn action_count(&self) -> usize {
            1
        }
        fn action_name(&self, _: ActionId) -> String {
            "adopt".into()
        }
        fn initial_state(&self, h: &Hypergraph, me: usize) -> u32 {
            // A deliberately non-monotone seed so shards exchange traffic.
            (h.id(me).0 * 7) % 23
        }
        fn priority_action<S: StateAccess<u32> + ?Sized>(
            &self,
            ctx: &Ctx<'_, u32, (), S>,
        ) -> Option<ActionId> {
            let best = ctx.neighbor_states().map(|(_, s)| *s).max().unwrap_or(0);
            (best > *ctx.my_state()).then_some(0)
        }
        fn execute<S: StateAccess<u32> + ?Sized>(
            &self,
            ctx: &Ctx<'_, u32, (), S>,
            _: ActionId,
        ) -> u32 {
            ctx.neighbor_states().map(|(_, s)| *s).max().unwrap()
        }
    }

    #[test]
    fn lockstep_with_sequential_world_on_maxprop() {
        for shards in [2usize, 3, 4] {
            for seed in 0..5u64 {
                let h = Arc::new(generators::ring(24, 2));
                let mut seq = World::new(Arc::clone(&h), MaxProp);
                let mut dw = World::new(Arc::clone(&h), MaxProp);
                let mut dist = DistEngine::new(&dw, shards, false);
                let mut d_seq = DistributedRandom::new(seed, 0.5);
                let mut d_dist = DistributedRandom::new(seed, 0.5);
                let mut out_seq = StepOutcome::default();
                let mut out_dist = StepOutcome::default();
                for step in 0..200 {
                    seq.step_into(&mut d_seq, &(), &mut out_seq);
                    dist.step_into(&mut dw, &mut d_dist, &(), &mut out_dist);
                    assert_eq!(out_seq.enabled, out_dist.enabled, "step {step}");
                    assert_eq!(out_seq.executed, out_dist.executed, "step {step}");
                    assert_eq!(seq.states(), dw.states(), "step {step}");
                    assert_eq!(seq.steps(), dw.steps(), "step {step}");
                    if out_seq.enabled.is_empty() {
                        break;
                    }
                }
                assert!(
                    out_seq.enabled.is_empty(),
                    "maxprop terminates within the budget"
                );
                assert!(dist.stats().frames > 0, "shards exchanged traffic");
            }
        }
    }

    #[test]
    fn lying_daemon_fails_the_same_assert_in_both_tiers() {
        struct Liar(Vec<usize>);
        impl Daemon for Liar {
            fn select(&mut self, _: &[usize]) -> Vec<usize> {
                self.0.clone()
            }
        }
        fn panic_message(step: impl FnOnce()) -> &'static str {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(step))
                .expect_err("a lying daemon must panic");
            *payload
                .downcast::<&str>()
                .expect("a literal assert message")
        }
        let h = Arc::new(generators::ring(24, 2));
        let enabled = World::new(Arc::clone(&h), MaxProp).enabled(&());
        let disabled = (0..h.n())
            .find(|p| !enabled.contains(p))
            .expect("the maximum's holder is disabled");
        for (lie, want) in [
            (
                vec![enabled[0], disabled],
                "daemon contract: selection must be a subset of the enabled set",
            ),
            (
                vec![],
                "daemon contract: non-empty selection from a non-empty enabled set",
            ),
        ] {
            let mut out = StepOutcome::default();
            let mut shared = World::new(Arc::clone(&h), MaxProp);
            let from_world =
                panic_message(|| shared.step_into(&mut Liar(lie.clone()), &(), &mut out));
            let mut dw = World::new(Arc::clone(&h), MaxProp);
            let mut dist = DistEngine::new(&dw, 2, false);
            let from_dist =
                panic_message(|| dist.step_into(&mut dw, &mut Liar(lie.clone()), &(), &mut out));
            assert_eq!(from_world, want);
            assert_eq!(from_dist, want);
        }
    }

    /// What [`Tamper`] does to the first frame it is handed.
    #[derive(Clone, Copy, Debug)]
    enum Fault {
        /// Deliver it twice.
        Duplicate,
        /// Deliver it, and again behind the next frame to the same shard.
        Replay,
        /// Withhold it, then deliver it behind the next frame to the same
        /// shard.
        Swap,
        /// Re-address its first entry to the vertex `[for shard 0, for
        /// shard 1]` — one the receiver owns, or one out of range —
        /// re-encoded.
        Foreign([usize; 2]),
    }

    /// A transport that breaks the delivery contract exactly once, with
    /// frames that all decode.
    struct Tamper {
        inner: ChannelTransport,
        fault: Option<Fault>,
        behind_next: Option<(usize, Vec<u8>)>,
    }

    impl BoundaryTransport for Tamper {
        fn shards(&self) -> usize {
            self.inner.shards()
        }
        fn send(&mut self, to: usize, frame: Vec<u8>) {
            // Two shards exchange at most one frame per channel per step,
            // so "the next frame to the same shard" is a later step's.
            if let Some((_, late)) = self.behind_next.take_if(|(dest, _)| *dest == to) {
                self.inner.send(to, frame);
                self.inner.send(to, late);
                return;
            }
            match self.fault.take() {
                Some(Fault::Duplicate) => {
                    self.inner.send(to, frame.clone());
                    self.inner.send(to, frame);
                }
                Some(Fault::Replay) => {
                    self.behind_next = Some((to, frame.clone()));
                    self.inner.send(to, frame);
                }
                Some(Fault::Swap) => self.behind_next = Some((to, frame)),
                Some(Fault::Foreign(owned)) => {
                    let mut f = BoundaryFrame::<u32>::decode(&frame).unwrap();
                    f.entries[0].0 = owned[to];
                    self.inner.send(to, f.encode());
                }
                None => self.inner.send(to, frame),
            }
        }
        fn drain_into(&mut self, shard: usize, out: &mut Vec<Vec<u8>>) {
            self.inner.drain_into(shard, out);
        }
    }

    #[test]
    fn causality_violations_fail_stop_in_every_profile() {
        // Each tampered frame is well-formed — the codec accepts it — so
        // the engine's own checks must stop the step that delivers it.
        // (Plain `assert!`s: this test passes under `--release` too.)
        let h = Arc::new(generators::ring(24, 2));
        let plan = h.shard_plan(2);
        let owned = [plan.members(0)[0], plan.members(1)[0]];
        let owns = "peer published a state this shard owns";
        for (fault, want) in [
            (Fault::Duplicate, "lost, duplicated or reordered a frame"),
            (Fault::Replay, "ghost update from step"),
            (Fault::Swap, "lost, duplicated or reordered a frame"),
            (Fault::Foreign(owned), owns),
            (Fault::Foreign([h.n(); 2]), owns),
            (Fault::Foreign([u32::MAX as usize; 2]), owns),
        ] {
            let mut seq = World::new(Arc::clone(&h), MaxProp);
            let mut dw = World::new(Arc::clone(&h), MaxProp);
            let mut dist = DistEngine::with_transport(&dw, 2, false, |k| {
                Box::new(Tamper {
                    inner: ChannelTransport::new(k),
                    fault: Some(fault),
                    behind_next: None,
                })
            });
            let mut d_seq = DistributedRandom::new(1, 0.5);
            let mut d_dist = DistributedRandom::new(1, 0.5);
            let mut out_seq = StepOutcome::default();
            let mut out_dist = StepOutcome::default();
            let stopped = (0..200).find_map(|_| {
                seq.step_into(&mut d_seq, &(), &mut out_seq);
                let step = std::panic::AssertUnwindSafe(|| {
                    dist.step_into(&mut dw, &mut d_dist, &(), &mut out_dist)
                });
                match std::panic::catch_unwind(step) {
                    Err(payload) => Some(match payload.downcast::<String>() {
                        Ok(formatted) => *formatted,
                        Err(literal) => literal.downcast::<&str>().unwrap().to_string(),
                    }),
                    Ok(()) => {
                        // A withheld frame is undetectable until its
                        // successor arrives; every other fault stops the
                        // engine before a single state diverges.
                        if !matches!(fault, Fault::Swap) {
                            assert_eq!(seq.states(), dw.states(), "{fault:?}");
                        }
                        None
                    }
                }
            });
            let message = stopped.unwrap_or_else(|| panic!("{fault:?} went undetected"));
            assert!(message.contains(want), "{fault:?}: {message}");
        }
    }

    #[test]
    fn single_shard_plan_sends_nothing() {
        // A clamped one-shard tier still runs (and never sends a frame).
        let h = Arc::new(generators::fig1());
        let mut dw = World::new(Arc::clone(&h), MaxProp);
        let mut dist = DistEngine::new(&dw, 1, false);
        let mut daemon = DistributedRandom::new(3, 0.5);
        let mut out = StepOutcome::default();
        for _ in 0..100 {
            dist.step_into(&mut dw, &mut daemon, &(), &mut out);
            if out.enabled.is_empty() {
                break;
            }
        }
        assert!(out.enabled.is_empty());
        assert_eq!(dist.stats().frames, 0);
        assert_eq!(dist.shards(), 1);
    }
}
