//! Shard actors and the coordinating distributed engine.
//!
//! One [`DistEngine`] owns `k` shard actors (one per [`ShardPlan`] shard)
//! and a [`BoundaryTransport`]. An actor holds only what its guards read
//! (§2.2): its members' **authoritative** states, then **ghost** copies of
//! its frontier ([`ShardPlan::frontier_of`]), read through a
//! [`StateAccess`] that panics outside members ∪ ghosts; its guard cache is
//! the runtime's own [`Scheduler`] over its member slots. Cross-shard state
//! flows only as serialized [`BoundaryFrame`]s. The world just mirrors
//! commits (`Sim` never refreshes it here, so guards scan actor slots).
//!
//! A step runs in two phases, cooperatively scheduled by the coordinator
//! on the stepping thread (the transport seam is what a multi-process
//! deployment would parallelize over):
//!
//! 1. **Deliver + refresh** ([`DistDrive::probe`]) — each actor drains its
//!    inbox, checks the frames' causal metadata (step tag = previous
//!    committed step, per-channel sequence gap-free), writes the ghosts,
//!    marks the member guards whose footprints they touch, and refreshes
//!    its scheduler. The coordinator merges the per-shard ascending
//!    enabled lists in one pass.
//! 2. **Select + commit** — the daemon picks from the merged enabled set
//!    (identical call sequence to the shared-memory engine, so seeded
//!    daemons stay on the same trajectory); each actor executes its
//!    selected members against the *frozen* pre-step slots (composite
//!    atomicity), commits locally, and publishes each changed boundary
//!    state in one frame per reading shard, tagged with the committing
//!    step's logical clock.
//!
//! Frames sent at step `t` are applied in phase 1 of step `t + 1`, so a
//! ghost always holds the pre-step value of its owner — exactly what a
//! shared-memory guard evaluation would read. That alignment (plus pure
//! guards) is the whole bit-identity argument; the differential suite
//! checks it engine-for-engine.
//!
//! [`ShardPlan`]: sscc_hypergraph::ShardPlan
//! [`ShardPlan::frontier_of`]: sscc_hypergraph::ShardPlan::frontier_of

use crate::frame::BoundaryFrame;
use crate::transport::{BoundaryTransport, ChannelTransport};
use sscc_hypergraph::Hypergraph;
use sscc_runtime::algorithm::GuardedAlgorithm;
use sscc_runtime::ctx::{Ctx, StateAccess};
use sscc_runtime::daemon::Daemon;
use sscc_runtime::engine::{Scheduler, StepOutcome, World};
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
    /// are kept in sync, terminal configurations return without consulting
    /// the daemon, and a daemon that wants an enabled-set view is refused.
    fn step_into(
        &mut self,
        world: &mut World<A>,
        daemon: &mut dyn Daemon,
        env: &A::Env,
        out: &mut StepOutcome,
    );

    /// Phase 1 only: is any process enabled? The tier's
    /// [`World::enabled_now`], for probing a terminal configuration.
    fn probe(&mut self, world: &World<A>, env: &A::Env) -> bool;

    /// Queue an environment invalidation for process `p` (a request flag
    /// flipped): the owning actors re-evaluate the guards in `p`'s
    /// [`env_footprint`](GuardedAlgorithm::env_footprint) at the start of
    /// the next step.
    fn invalidate_env_of(&mut self, p: usize);

    /// Re-seed every actor from the world's committed configuration —
    /// the hook for state surgery applied *through the world* (restore,
    /// engineered configurations). Every slot is re-read, every guard is
    /// marked stale, in-flight frames are discarded and the sequence
    /// bookkeeping is reset on both ends (self-consistent because the
    /// channels are left empty).
    fn resync(&mut self, world: &World<A>);

    /// Cumulative message-volume counters.
    fn stats(&self) -> MessageStats;

    /// Number of shard actors (the plan may clamp below the requested
    /// count on tiny topologies).
    fn shards(&self) -> usize;
}

/// A shard's states keyed by global id: members ascending, then ghosts
/// ascending. A member is found by its rank, a ghost by binary search.
struct Slots<S> {
    shard: u32,
    /// `(shard, rank among its members)` of every vertex, shared by the
    /// engine's actors.
    place: Arc<[(u32, u32)]>,
    /// Global id of every slot.
    ids: Vec<usize>,
    /// Member slots (the scheduler's range) come first.
    members: usize,
    states: Vec<S>,
}

impl<S> Slots<S> {
    fn ghost(&self, p: usize) -> Option<usize> {
        let at = self.ids[self.members..].binary_search(&p).ok()?;
        Some(self.members + at)
    }
}

impl<S> StateAccess<S> for Slots<S> {
    #[inline]
    fn state(&self, p: usize) -> &S {
        let (owner, rank) = self.place[p];
        let i = if owner == self.shard {
            rank as usize
        } else {
            self.ghost(p)
                .expect("locality violation: a read outside the shard's members and ghosts")
        };
        &self.states[i]
    }
}

/// One shard's actor: its slots, the scheduler over its member slots, and
/// the routing table for its boundary.
struct ShardActor<S> {
    slots: Slots<S>,
    sched: Scheduler,
    /// Routing: `subs[t]` = this shard's boundary members whose state
    /// shard `t` reads (ascending). Precomputed from
    /// [`ShardPlan::boundary_of`](sscc_hypergraph::ShardPlan::boundary_of).
    subs: Vec<Vec<usize>>,
    /// Per-destination outgoing sequence numbers (gap-free from 1).
    seq_out: Vec<u64>,
    /// Per-sender last accepted sequence number.
    seq_in: Vec<u64>,
    /// Phase-2 staging: next states computed against the frozen slots.
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
    /// `(shard, member rank)` of every vertex.
    place: Arc<[(u32, u32)]>,
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
    selected: Vec<usize>,
    /// Per-actor cursors of the enabled-list merge.
    heads: Vec<usize>,
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
        // Members ascending by dense index, each at its rank.
        let (mut members, mut place) = (vec![Vec::new(); k], vec![(0, 0); h.n()]);
        for (p, at) in place.iter_mut().enumerate() {
            let s = plan.shard_of(p);
            *at = (s as u32, members[s].len() as u32);
            members[s].push(p);
        }
        let place: Arc<[(u32, u32)]> = place.into();
        let mut actors = Vec::with_capacity(k);
        for (s, mut ids) in members.into_iter().enumerate() {
            // Routing: a boundary member's state goes to every shard owning
            // part of its closed neighborhood.
            let mut subs = vec![Vec::new(); k];
            for p in plan.boundary_of(&h, s) {
                for &q in h.closed_neighborhood(p) {
                    let t = plan.shard_of(q);
                    if t != s && subs[t].last() != Some(&p) {
                        subs[t].push(p);
                    }
                }
            }
            let members = ids.len();
            ids.extend(plan.frontier_of(&h, s));
            actors.push(ShardActor {
                slots: Slots {
                    shard: s as u32,
                    place: Arc::clone(&place),
                    states: ids.iter().map(|&p| world.state(p).clone()).collect(),
                    ids,
                    members,
                },
                sched: Scheduler::new(members),
                subs,
                seq_out: vec![0; k],
                seq_in: vec![0; k],
                staged: Vec::new(),
                outbox: vec![Vec::new(); k],
                inbox: Vec::new(),
            });
        }
        let transport = make(k);
        assert_eq!(transport.shards(), k, "transport endpoint count");
        DistEngine {
            h,
            place,
            actors,
            transport,
            trusted,
            step_tag: 0,
            pending_env: Vec::new(),
            selected: Vec::new(),
            heads: vec![0; k],
            stats: MessageStats::default(),
        }
    }
}

/// Merge the actors' ascending enabled lists (a partition of the global
/// enabled set) into `out` in one pass: repeatedly copy the run of the
/// actor with the smallest head, up to the next-smallest head.
fn merge_enabled<S>(actors: &[ShardActor<S>], at: &mut [usize], out: &mut Vec<usize>) {
    out.clear();
    at.fill(0);
    let head = |s: usize, at: &[usize]| {
        let (enabled, ids) = (actors[s].sched.enabled(), &actors[s].slots.ids);
        enabled.get(at[s]).map(|&i| ids[i])
    };
    while let Some((_, s)) = (0..actors.len())
        .filter_map(|s| Some((head(s, at)?, s)))
        .min()
    {
        let bound = (0..actors.len())
            .filter(|&t| t != s)
            .filter_map(|t| head(t, at))
            .min();
        while let Some(p) = head(s, at).filter(|&p| bound.is_none_or(|b| p < b)) {
            out.push(p);
            at[s] += 1;
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
        assert!(
            !daemon.wants_view(),
            "daemon contract: the message-passing tier feeds no enabled-set view"
        );
        self.probe(world, env);
        merge_enabled(&self.actors, &mut self.heads, &mut out.enabled);
        out.executed.clear();
        if out.enabled.is_empty() {
            return;
        }
        let (algo, h, place) = (world.algo(), &*self.h, &*self.place);
        // The same contract enforcement as `World::step_into`.
        daemon.select_step(&out.enabled).resolve_into(
            &out.enabled,
            self.trusted,
            &mut self.selected,
        );
        // Phase 2. Composite atomicity: every selected member executes
        // against the frozen pre-step slots before any write lands. The
        // executed list is ascending (the selection is).
        for &p in &self.selected {
            let (s, i) = (place[p].0 as usize, place[p].1 as usize);
            let actor = &mut self.actors[s];
            let a = actor.sched.action(i).expect("selected ⊆ enabled");
            out.executed.push((p, a));
            let st = algo.execute(&Ctx::new(h, p, &actor.slots, env), a);
            actor.staged.push((i, st));
        }
        // Commit locally, mark the owned readers of what changed, publish
        // changed boundary states.
        for (s, actor) in self.actors.iter_mut().enumerate() {
            for (i, st) in actor.staged.drain(..) {
                if actor.slots.states[i] == st {
                    continue;
                }
                let p = actor.slots.ids[i];
                for &q in algo.state_footprint(h, p) {
                    if place[q].0 as usize == s {
                        actor.sched.mark(place[q].1 as usize);
                    }
                }
                for (t, sub) in actor.subs.iter().enumerate() {
                    if sub.binary_search(&p).is_ok() {
                        actor.outbox[t].push((p, st.clone()));
                    }
                }
                actor.slots.states[i] = st;
            }
            for t in 0..actor.outbox.len() {
                if actor.outbox[t].is_empty() {
                    continue;
                }
                actor.seq_out[t] += 1;
                let frame = BoundaryFrame {
                    from: s,
                    to: t,
                    step: self.step_tag,
                    seq: actor.seq_out[t],
                    entries: std::mem::take(&mut actor.outbox[t]),
                };
                let bytes = frame.encode();
                self.stats.frames += 1;
                self.stats.bytes += bytes.len() as u64;
                self.transport.send(t, bytes);
            }
        }
        // Mirror the committed states into the world, which stays the
        // single source of truth for snapshots and the observers.
        for &(p, _) in &out.executed {
            let (s, i) = place[p];
            let st = &self.actors[s as usize].slots.states[i as usize];
            if world.state(p) != st {
                world.set_state(p, st.clone());
            }
        }
        world.set_step_count(world.steps() + 1);
        self.step_tag += 1;
        self.stats.steps += 1;
    }

    fn probe(&mut self, world: &World<A>, env: &A::Env) -> bool {
        let (algo, h, place) = (world.algo(), &*self.h, &*self.place);
        for p in self.pending_env.drain(..) {
            for &q in algo.env_footprint(h, p) {
                self.actors[place[q].0 as usize]
                    .sched
                    .mark(place[q].1 as usize);
            }
        }
        // Deliver each actor's frames into its ghost slots, then refresh.
        for (s, actor) in self.actors.iter_mut().enumerate() {
            self.transport.drain_into(s, &mut actor.inbox);
            for bytes in actor.inbox.drain(..) {
                let f = BoundaryFrame::<A::State>::decode(&bytes).unwrap_or_else(|| {
                    panic!("boundary channel into shard {s} delivered a frame that does not decode")
                });
                assert_eq!(f.to, s, "frame routed to the wrong shard");
                // Causal metadata: the frame carries its committing step's
                // clock — it must be the step immediately before the one
                // being prepared — and the per-channel sequence must
                // advance gap-free. Release asserts: a reordered,
                // duplicated or replayed frame is well-formed, so these are
                // the only thing between it and the ghosts.
                assert!(
                    f.step.checked_add(1) == Some(self.step_tag),
                    "ghost update from step {} applied while preparing step {}",
                    f.step,
                    self.step_tag
                );
                assert!(
                    actor.seq_in.get(f.from).and_then(|q| q.checked_add(1)) == Some(f.seq),
                    "boundary channel {} -> {s} lost, duplicated or reordered a frame",
                    f.from
                );
                actor.seq_in[f.from] = f.seq;
                for (v, sv) in f.entries {
                    assert!(
                        v < h.n() && place[v].0 as usize != s,
                        "peer published a state this shard owns"
                    );
                    let slots = &mut actor.slots;
                    let g = slots
                        .ghost(v)
                        .expect("peer published a state this shard does not read");
                    if slots.states[g] != sv {
                        slots.states[g] = sv;
                        for &q in algo.state_footprint(h, v) {
                            if place[q].0 as usize == s {
                                actor.sched.mark(place[q].1 as usize);
                            }
                        }
                    }
                }
            }
            let ShardActor { slots, sched, .. } = actor;
            sched.refresh(|i| algo.priority_action(&Ctx::new(h, slots.ids[i], &*slots, env)));
        }
        self.actors.iter().any(|a| !a.sched.enabled().is_empty())
    }

    fn invalidate_env_of(&mut self, p: usize) {
        self.pending_env.push(p);
    }

    fn resync(&mut self, world: &World<A>) {
        for (s, actor) in self.actors.iter_mut().enumerate() {
            self.transport.drain_into(s, &mut actor.inbox);
            actor.inbox.clear();
            let slots = &mut actor.slots;
            for (st, &p) in slots.states.iter_mut().zip(&slots.ids) {
                *st = world.state(p).clone();
            }
            actor.sched.mark_all();
            actor.seq_in.iter_mut().for_each(|q| *q = 0);
            actor.seq_out.iter_mut().for_each(|q| *q = 0);
            actor.outbox.iter_mut().for_each(Vec::clear);
        }
        self.pending_env.clear();
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
    use sscc_runtime::algorithm::ActionId;
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
        // One shard owning every vertex (no ghosts, no traffic) up to four;
        // mid-run surgery through the world followed by `resync` re-seeds
        // every slot, and env invalidations mark through the schedulers.
        for shards in [1usize, 2, 3, 4] {
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
                    if step == 5 {
                        for (p, v) in [(3, 40 + seed as u32), (17, 0)] {
                            seq.set_state(p, v);
                            dw.set_state(p, v);
                        }
                        dist.resync(&dw);
                    }
                    let p = (step * 7 + seed as usize) % h.n();
                    seq.invalidate_env_of(p);
                    dist.invalidate_env_of(p);
                    seq.step_into(&mut d_seq, &(), &mut out_seq);
                    dist.step_into(&mut dw, &mut d_dist, &(), &mut out_dist);
                    assert_eq!(out_seq.enabled, out_dist.enabled, "step {step}");
                    assert_eq!(out_seq.executed, out_dist.executed, "step {step}");
                    assert_eq!(seq.states(), dw.states(), "step {step}");
                    assert_eq!(seq.steps(), dw.steps(), "step {step}");
                    if out_seq.enabled.is_empty() && step > 5 {
                        break;
                    }
                }
                assert!(
                    out_seq.enabled.is_empty(),
                    "maxprop terminates within the budget"
                );
                assert_eq!(dist.shards(), shards);
                assert_eq!(dist.stats().frames > 0, shards > 1, "traffic iff shards");
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
        /// Flip one byte of it: a sealed frame that no longer decodes.
        Garble,
    }

    /// A transport that breaks the delivery contract exactly once.
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
                Some(Fault::Garble) => {
                    let mut frame = frame;
                    let mid = frame.len() / 2;
                    frame[mid] ^= 0x20;
                    self.inner.send(to, frame);
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
        // Every tampered frame but the garbled one is well-formed — the
        // codec accepts it — so the engine's own checks must stop the step
        // that delivers it; the garbled one stops it at the decode. (Plain
        // `assert!`s and panics: this test passes under `--release` too.)
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
            (Fault::Garble, "boundary channel into shard"),
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
