//! The meeting ledger: reconstructing meeting lifecycles from executions.
//!
//! §4.2 defines the analysis vocabulary this module implements: a committee
//! `ε` **meets** in `γ` iff every member points at it with status
//! waiting/done; `ε` **convenes** in `γ_i` iff it meets in `γ_i` but not in
//! `γ_{i-1}`; it **terminates** symmetrically; a member **leaves** by
//! executing Step4. The ledger turns a step sequence into
//! [`MeetingInstance`] records that the specification monitors and the
//! fairness/concurrency metrics consume.

use crate::predicates::edge_meets;
use crate::status::{ActionClass, CommitteeView};
use sscc_hypergraph::{EdgeId, Hypergraph, MutationDelta};
use sscc_runtime::seal::SealCache;
use sscc_runtime::wire::{self, StateCodec};
use std::collections::BTreeSet;
use std::sync::Arc;

/// One meeting of one committee, from convening to termination.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MeetingInstance {
    /// Which committee met.
    pub edge: EdgeId,
    /// Step at which it convened; `None` if it already met in the initial
    /// configuration (a meeting "started during the faults", §2.5 — exempt
    /// from the snap-stabilization guarantees).
    pub convened_step: Option<u64>,
    /// Completed rounds when it convened (0 for pre-existing).
    pub convened_round: u64,
    /// Step at which it terminated; `None` while live.
    pub terminated_step: Option<u64>,
    /// Members (dense indices).
    pub participants: Vec<usize>,
    /// Members that executed their essential discussion during this meeting.
    pub essential: BTreeSet<usize>,
    /// Members that executed Step4 (unilateral leave) at termination.
    pub left_by: Vec<usize>,
}

impl MeetingInstance {
    /// Is this meeting still running?
    pub fn live(&self) -> bool {
        self.terminated_step.is_none()
    }

    /// Did the meeting convene after the computation started (i.e. is it
    /// covered by the snap-stabilization guarantee)?
    pub fn post_initial(&self) -> bool {
        self.convened_step.is_some()
    }
}

/// Lifecycle notifications produced by [`MeetingLedger::observe`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LedgerEvent {
    /// Instance `idx` convened this step.
    Convened(usize),
    /// Instance `idx` terminated this step.
    Terminated(usize),
}

/// Accumulates meeting instances over a computation.
#[derive(Clone, Debug)]
pub struct MeetingLedger {
    instances: Vec<MeetingInstance>,
    /// `live[e]` = index into `instances` of the live meeting of edge `e`.
    live: Vec<Option<usize>>,
    /// Ascending edge ids of live meetings (maintained incrementally so
    /// per-step consumers never scan all `|E|` edges).
    live_sorted: Vec<EdgeId>,
    /// Per-process participation counter (meetings convened with them in).
    participations: Vec<u64>,
    /// Last step at which each process participated in a convene.
    last_participation: Vec<Option<u64>>,
    /// Online-snapshot support: the wire encoding of the longest
    /// all-terminated instance prefix, sealed into shared segments.
    /// Terminated instances are immutable — except when a topology
    /// mutation remaps historical edge ids, which resets this cache.
    seal: SealCache,
}

impl MeetingLedger {
    /// Start a ledger on the initial configuration: committees already
    /// meeting become pre-existing instances (`convened_step = None`).
    pub fn new<S: CommitteeView>(h: &Hypergraph, initial: &[S]) -> Self {
        let mut ledger = MeetingLedger {
            instances: Vec::new(),
            live: vec![None; h.m()],
            live_sorted: Vec::new(),
            participations: vec![0; h.n()],
            last_participation: vec![None; h.n()],
            seal: SealCache::new(),
        };
        for e in h.edge_ids() {
            if edge_meets(h, initial, e) {
                ledger.live[e.index()] = Some(ledger.instances.len());
                ledger.live_sorted.push(e);
                ledger.instances.push(MeetingInstance {
                    edge: e,
                    convened_step: None,
                    convened_round: 0,
                    terminated_step: None,
                    participants: h.members(e).to_vec(),
                    essential: BTreeSet::new(),
                    left_by: Vec::new(),
                });
            }
        }
        ledger
    }

    /// Observe one step: `pre`/`post` configurations, the step index, the
    /// completed-round count, and the committee-layer actions executed
    /// (process, class, pre-step pointer of that process).
    pub fn observe<S: CommitteeView>(
        &mut self,
        h: &Hypergraph,
        pre: &[S],
        post: &[S],
        step: u64,
        round: u64,
        executed: &[(usize, ActionClass)],
    ) -> Vec<LedgerEvent> {
        let mut events = Vec::new();
        // Essential discussions and leaves are attributed to the live
        // meeting of the edge the process pointed at in `pre`.
        for &(p, class) in executed {
            match class {
                ActionClass::Essential => {
                    if let Some(e) = pre[p].pointer() {
                        if let Some(idx) = self.live[e.index()] {
                            self.instances[idx].essential.insert(p);
                        }
                    }
                }
                ActionClass::Leave => {
                    if let Some(e) = pre[p].pointer() {
                        if let Some(idx) = self.live[e.index()] {
                            self.instances[idx].left_by.push(p);
                        }
                    }
                }
                _ => {}
            }
        }
        // Convene / terminate detection.
        for e in h.edge_ids() {
            debug_assert_eq!(
                self.live[e.index()].is_some(),
                edge_meets(h, pre, e),
                "ledger live-set is in sync with the configuration"
            );
            self.transition(h, post, e, step, round, &mut events);
        }
        events
    }

    /// Delta-aware variant of [`MeetingLedger::observe`]: only `touched`
    /// edges (those incident to an executed process, ascending) can change
    /// meets-status, so only they are re-checked — `O(affected)` instead of
    /// `O(|E|)`. `executed` carries each action's semantic class and the
    /// executing process's **pre-step** pointer (attribution target).
    ///
    /// Produces the exact event sequence of the full scan: `touched` is
    /// ascending and unaffected edges cannot produce events.
    pub fn observe_delta<S: CommitteeView>(
        &mut self,
        h: &Hypergraph,
        post: &[S],
        step: u64,
        round: u64,
        executed: &[(usize, ActionClass, Option<EdgeId>)],
        touched: &[EdgeId],
    ) -> Vec<LedgerEvent> {
        let mut events = Vec::new();
        for &(p, class, pointer) in executed {
            match class {
                ActionClass::Essential => {
                    if let Some(e) = pointer {
                        if let Some(idx) = self.live[e.index()] {
                            self.instances[idx].essential.insert(p);
                        }
                    }
                }
                ActionClass::Leave => {
                    if let Some(e) = pointer {
                        if let Some(idx) = self.live[e.index()] {
                            self.instances[idx].left_by.push(p);
                        }
                    }
                }
                _ => {}
            }
        }
        debug_assert!(touched.windows(2).all(|w| w[0] < w[1]), "touched ascending");
        for &e in touched {
            self.transition(h, post, e, step, round, &mut events);
        }
        events
    }

    /// Compare edge `e`'s recorded liveness with the configuration `post`
    /// and record a convene/terminate transition if they differ.
    fn transition<S: CommitteeView>(
        &mut self,
        h: &Hypergraph,
        post: &[S],
        e: EdgeId,
        step: u64,
        round: u64,
        events: &mut Vec<LedgerEvent>,
    ) {
        let was = self.live[e.index()].is_some();
        let now = edge_meets(h, post, e);
        if !was && now {
            let idx = self.instances.len();
            self.live[e.index()] = Some(idx);
            let at = self.live_sorted.partition_point(|&x| x < e);
            self.live_sorted.insert(at, e);
            self.instances.push(MeetingInstance {
                edge: e,
                convened_step: Some(step),
                convened_round: round,
                terminated_step: None,
                participants: h.members(e).to_vec(),
                essential: BTreeSet::new(),
                left_by: Vec::new(),
            });
            for &q in h.members(e) {
                self.participations[q] += 1;
                self.last_participation[q] = Some(step);
            }
            events.push(LedgerEvent::Convened(idx));
        } else if was && !now {
            let idx = self.live[e.index()].take().expect("was live");
            let at = self.live_sorted.binary_search(&e).expect("was in live set");
            self.live_sorted.remove(at);
            self.instances[idx].terminated_step = Some(step);
            events.push(LedgerEvent::Terminated(idx));
        }
    }

    /// Mark committee `e` as **disrupted** by an external event (topology
    /// mutation or injected transient fault) and re-synchronize its
    /// recorded liveness with the configuration — **silently**: no
    /// [`LedgerEvent`] is produced, so downstream spec monitors run no
    /// violation checks. Any live instance is closed at `step` regardless
    /// of whether the committee still meets: its recorded obligations
    /// (participant set, essential-discussion progress) refer to
    /// pre-disruption states and would otherwise charge the algorithm with
    /// phantom violations. If the committee meets in `states`, a fresh
    /// **pre-initial** instance is opened (`convened_step = None`): it
    /// "started during the disruption", so it is exempt from the
    /// snap-stabilization guarantees exactly like meetings inherited from
    /// `γ_0` (§2.5). Pre-initial convenes do not bump participation
    /// counters (consistent with [`MeetingLedger::new`]).
    pub fn resync_edge<S: CommitteeView>(
        &mut self,
        h: &Hypergraph,
        states: &[S],
        e: EdgeId,
        step: u64,
    ) {
        if let Some(idx) = self.live[e.index()].take() {
            let at = self.live_sorted.binary_search(&e).expect("was in live set");
            self.live_sorted.remove(at);
            self.instances[idx].terminated_step = Some(step);
        }
        if edge_meets(h, states, e) {
            let idx = self.instances.len();
            self.live[e.index()] = Some(idx);
            let at = self.live_sorted.partition_point(|&x| x < e);
            self.live_sorted.insert(at, e);
            self.instances.push(MeetingInstance {
                edge: e,
                convened_step: None,
                convened_round: 0,
                terminated_step: None,
                participants: h.members(e).to_vec(),
                essential: BTreeSet::new(),
                left_by: Vec::new(),
            });
        }
    }

    /// Repair the ledger after a topology mutation so its live set again
    /// mirrors `edge_meets` on the post-mutation graph `h` and the
    /// post-repair configuration `states`.
    ///
    /// - The dissolved committee's live meeting (if any) is silently
    ///   terminated at `step` — no event, no violation: the meeting was
    ///   ended by the world, not by a misbehaving process.
    /// - Edge references are translated through the swap-remove relocation
    ///   ([`MutationDelta::remap_edge`]); an instance of the dissolved
    ///   committee keeps its old id as a historical label (it is
    ///   terminated, so no live lookup ever resolves it).
    /// - Committees whose membership changed — and the added committee —
    ///   are re-synced via [`MeetingLedger::resync_edge`]: any that now
    ///   meet are recorded as pre-initial (spec-exempt).
    ///
    /// Participation counters and per-process history survive untouched
    /// (the process set is fixed under mutation).
    pub fn apply_mutation<S: CommitteeView>(
        &mut self,
        h: &Hypergraph,
        states: &[S],
        delta: &MutationDelta,
        step: u64,
    ) {
        // Historical instances get their edge ids remapped below — the
        // sealed encoding of the "immutable" prefix is stale. Re-seal from
        // scratch at the next snapshot (mutations are rare next to steps).
        self.seal.reset();
        if let Some(e) = delta.removed() {
            if let Some(idx) = self.live[e.index()].take() {
                self.instances[idx].terminated_step = Some(step);
            }
        }
        delta.remap_per_edge(&mut self.live, || None);
        for inst in &mut self.instances {
            if let Some(ne) = delta.remap_edge(inst.edge) {
                inst.edge = ne;
            }
        }
        self.live_sorted = (0..h.m())
            .filter(|&ei| self.live[ei].is_some())
            .map(|ei| EdgeId(ei as u32))
            .collect();
        for e in delta.changed_edges() {
            self.resync_edge(h, states, e, step);
        }
    }

    /// All recorded instances, in creation order.
    pub fn instances(&self) -> &[MeetingInstance] {
        &self.instances
    }

    /// The live instance of edge `e`, if any.
    pub fn live_instance(&self, e: EdgeId) -> Option<&MeetingInstance> {
        self.live[e.index()].map(|i| &self.instances[i])
    }

    /// Is committee `e` currently meeting? `O(1)` — the ledger maintains
    /// per-edge meets status from the touched edges of every step, so this
    /// mirrors `edge_meets(h, states, e)` without rescanning `e`'s
    /// members. The simulator's `Meeting(p)` view maintenance leans on
    /// exactly this equivalence (and `debug_assert`s it).
    #[inline]
    pub fn is_live(&self, e: EdgeId) -> bool {
        self.live[e.index()].is_some()
    }

    /// Committees currently meeting, ascending (owned copy; the hot path
    /// uses [`MeetingLedger::live_edge_set`]).
    pub fn live_edges(&self) -> Vec<EdgeId> {
        self.live_sorted.clone()
    }

    /// Committees currently meeting, ascending — borrowed from the
    /// incrementally maintained set (`O(1)`, no scan, no allocation).
    pub fn live_edge_set(&self) -> &[EdgeId] {
        &self.live_sorted
    }

    /// Meetings convened after step 0 (covered by snap-stabilization).
    pub fn post_initial_instances(&self) -> impl Iterator<Item = &MeetingInstance> {
        self.instances.iter().filter(|m| m.post_initial())
    }

    /// How many meetings each process participated in (post-initial
    /// convenes only).
    pub fn participations(&self) -> &[u64] {
        &self.participations
    }

    /// Last step at which `p` joined a convening meeting.
    pub fn last_participation(&self, p: usize) -> Option<u64> {
        self.last_participation[p]
    }

    /// Total number of post-initial convenes.
    pub fn convened_count(&self) -> usize {
        self.post_initial_instances().count()
    }

    /// Number of per-edge live slots — the `|E|` this ledger is dimensioned
    /// for (checkpoint restore validates it against the topology).
    pub fn edge_slots(&self) -> usize {
        self.live.len()
    }

    /// Number of per-process slots — the `n` this ledger is dimensioned for.
    pub fn process_slots(&self) -> usize {
        self.participations.len()
    }

    /// Wire encoding of one instance — the unit [`MeetingLedger::save_state`],
    /// the seal cache and [`LedgerSnapshot::encode`] must agree on.
    fn encode_instance(inst: &MeetingInstance, out: &mut Vec<u8>) {
        inst.edge.encode(out);
        inst.convened_step.encode(out);
        wire::put_u64(out, inst.convened_round);
        inst.terminated_step.encode(out);
        wire::put_usize_slice(out, &inst.participants);
        let essential: Vec<usize> = inst.essential.iter().copied().collect();
        wire::put_usize_slice(out, &essential);
        wire::put_usize_slice(out, &inst.left_by);
    }

    /// Wire encoding of everything after the instance list: live slots,
    /// participation counters, last-participation steps.
    fn encode_footer(
        out: &mut Vec<u8>,
        live: &[Option<usize>],
        participations: &[u64],
        last_participation: &[Option<u64>],
    ) {
        wire::put_usize(out, live.len());
        for slot in live {
            match slot {
                None => wire::put_u8(out, 0),
                Some(idx) => {
                    wire::put_u8(out, 1);
                    wire::put_usize(out, *idx);
                }
            }
        }
        wire::put_u64_slice(out, participations);
        wire::put_opt_u64_slice(out, last_participation);
    }

    /// Serialize the full meeting history and live set. `live_sorted` is
    /// derivable (ascending filter of `live`) and not written.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        wire::put_usize(out, self.instances.len());
        for inst in &self.instances {
            Self::encode_instance(inst, out);
        }
        Self::encode_footer(
            out,
            &self.live,
            &self.participations,
            &self.last_participation,
        );
    }

    /// Capture an **online snapshot** of the ledger: the longest
    /// all-terminated instance prefix is sealed into shared segments
    /// (amortized `O(meetings closed since the last capture)`), the live
    /// tail and the per-process counters are cloned (`O(live)` memcpys) —
    /// never `O(history)`. [`LedgerSnapshot::encode`] reassembles the
    /// exact [`MeetingLedger::save_state`] bytes off the critical path.
    pub fn snapshot(&mut self) -> LedgerSnapshot {
        // Advance the seal over instances that terminated since last time.
        // The prefix stops at the first still-live instance: everything
        // before it is immutable (termination closes an instance for good;
        // only `apply_mutation` rewrites history, and it resets the seal).
        let covered = self.seal.covered();
        let upto = self.instances[covered..]
            .iter()
            .take_while(|inst| !inst.live())
            .count()
            + covered;
        let instances = &self.instances;
        self.seal.extend_to(upto, |buf| {
            for inst in &instances[covered..upto] {
                Self::encode_instance(inst, buf);
            }
        });
        LedgerSnapshot {
            total: self.instances.len(),
            sealed: self.seal.segments().to_vec(),
            tail: self.instances[self.seal.covered()..].to_vec(),
            live: self.live.clone(),
            participations: self.participations.clone(),
            last_participation: self.last_participation.clone(),
        }
    }

    /// Decode a ledger written by [`MeetingLedger::save_state`], rebuilding
    /// `live_sorted` and re-validating the live set's invariants (every
    /// live slot names an un-terminated instance of that very edge).
    pub fn restore_state(r: &mut wire::Reader) -> Option<Self> {
        // ≥ 38 bytes per instance (all three member lists empty).
        let count = r.count(38)?;
        let mut instances = Vec::with_capacity(count);
        for _ in 0..count {
            instances.push(MeetingInstance {
                edge: EdgeId::decode(r)?,
                convened_step: Option::<u64>::decode(r)?,
                convened_round: r.u64()?,
                terminated_step: Option::<u64>::decode(r)?,
                participants: r.usize_vec()?,
                essential: r.usize_vec()?.into_iter().collect(),
                left_by: r.usize_vec()?,
            });
        }
        let m = r.count(1)?;
        let mut live = Vec::with_capacity(m);
        for ei in 0..m {
            live.push(match r.u8()? {
                0 => None,
                1 => {
                    let idx = r.usize()?;
                    let inst = instances.get(idx)?;
                    if inst.edge.index() != ei || inst.terminated_step.is_some() {
                        return None;
                    }
                    Some(idx)
                }
                _ => return None,
            });
        }
        let participations = r.u64_vec()?;
        let last_participation = r.opt_u64_vec()?;
        if last_participation.len() != participations.len() {
            return None;
        }
        let live_sorted = (0..m)
            .filter(|&ei| live[ei].is_some())
            .map(|ei| EdgeId(ei as u32))
            .collect();
        Some(MeetingLedger {
            instances,
            live,
            live_sorted,
            participations,
            last_participation,
            seal: SealCache::new(),
        })
    }
}

/// A captured meeting ledger: sealed shared segments for the terminated
/// history plus owned clones of the live tail and counters. Capture
/// ([`MeetingLedger::snapshot`]) is `O(live)`; [`LedgerSnapshot::encode`]
/// produces the exact [`MeetingLedger::save_state`] bytes and is meant
/// for off-critical-path assembly.
#[derive(Clone, Debug)]
pub struct LedgerSnapshot {
    total: usize,
    sealed: Vec<Arc<[u8]>>,
    tail: Vec<MeetingInstance>,
    live: Vec<Option<usize>>,
    participations: Vec<u64>,
    last_participation: Vec<Option<u64>>,
}

impl LedgerSnapshot {
    /// Number of instances captured (sealed + tail).
    pub fn len(&self) -> usize {
        self.total
    }

    /// No instances captured?
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Append the flat [`MeetingLedger::save_state`] encoding.
    pub fn encode(&self, out: &mut Vec<u8>) {
        wire::put_usize(out, self.total);
        for seg in &self.sealed {
            out.extend_from_slice(seg);
        }
        for inst in &self.tail {
            MeetingLedger::encode_instance(inst, out);
        }
        MeetingLedger::encode_footer(
            out,
            &self.live,
            &self.participations,
            &self.last_participation,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc1::Cc1State;
    use crate::status::Status;
    use sscc_hypergraph::generators;

    fn s(status: Status, p: Option<u32>) -> Cc1State {
        Cc1State {
            s: status,
            p: p.map(EdgeId),
            t: false,
        }
    }

    #[test]
    fn preexisting_meetings_are_flagged() {
        let h = generators::fig2();
        let mut init = vec![Cc1State::idle(); h.n()];
        init[h.dense_of(3)] = s(Status::Done, Some(2));
        init[h.dense_of(4)] = s(Status::Waiting, Some(2));
        let ledger = MeetingLedger::new(&h, &init);
        assert_eq!(ledger.instances().len(), 1);
        assert!(!ledger.instances()[0].post_initial());
        assert!(ledger.instances()[0].live());
        assert_eq!(ledger.live_edges(), vec![EdgeId(2)]);
    }

    #[test]
    fn convene_terminate_lifecycle() {
        let h = generators::fig2();
        let idle = vec![Cc1State::idle(); h.n()];
        let mut ledger = MeetingLedger::new(&h, &idle);

        // Step 5: {3,4} convenes (both waiting, pointing e2).
        let mut met = idle.clone();
        met[h.dense_of(3)] = s(Status::Waiting, Some(2));
        met[h.dense_of(4)] = s(Status::Waiting, Some(2));
        let ev = ledger.observe(&h, &idle, &met, 5, 1, &[]);
        assert_eq!(ev, vec![LedgerEvent::Convened(0)]);
        let m = &ledger.instances()[0];
        assert_eq!(m.convened_step, Some(5));
        assert_eq!(m.convened_round, 1);
        assert!(m.post_initial());

        // Step 6: both do essential discussion.
        let mut done = met.clone();
        done[h.dense_of(3)].s = Status::Done;
        done[h.dense_of(4)].s = Status::Done;
        let ev = ledger.observe(
            &h,
            &met,
            &done,
            6,
            1,
            &[
                (h.dense_of(3), ActionClass::Essential),
                (h.dense_of(4), ActionClass::Essential),
            ],
        );
        assert!(ev.is_empty(), "still meets: no lifecycle event");
        assert_eq!(ledger.instances()[0].essential.len(), 2);

        // Step 9: professor 3 leaves; the meeting terminates.
        let mut after = done.clone();
        after[h.dense_of(3)] = Cc1State::idle();
        let ev = ledger.observe(
            &h,
            &done,
            &after,
            9,
            2,
            &[(h.dense_of(3), ActionClass::Leave)],
        );
        assert_eq!(ev, vec![LedgerEvent::Terminated(0)]);
        let m = &ledger.instances()[0];
        assert_eq!(m.terminated_step, Some(9));
        assert_eq!(m.left_by, vec![h.dense_of(3)]);
        assert!(ledger.live_edges().is_empty());
    }

    #[test]
    fn ledger_save_restore_roundtrips() {
        let h = generators::fig2();
        let idle = vec![Cc1State::idle(); h.n()];
        let mut ledger = MeetingLedger::new(&h, &idle);
        let mut met = idle.clone();
        met[h.dense_of(3)] = s(Status::Waiting, Some(2));
        met[h.dense_of(4)] = s(Status::Waiting, Some(2));
        ledger.observe(&h, &idle, &met, 5, 1, &[]);
        let mut done = met.clone();
        done[h.dense_of(3)].s = Status::Done;
        done[h.dense_of(4)].s = Status::Done;
        ledger.observe(
            &h,
            &met,
            &done,
            6,
            1,
            &[
                (h.dense_of(3), ActionClass::Essential),
                (h.dense_of(4), ActionClass::Essential),
            ],
        );
        let mut blob = Vec::new();
        ledger.save_state(&mut blob);
        let twin = MeetingLedger::restore_state(&mut wire::Reader::new(&blob)).unwrap();
        assert_eq!(twin.instances(), ledger.instances());
        assert_eq!(twin.live_edges(), ledger.live_edges());
        assert_eq!(twin.participations(), ledger.participations());
        assert_eq!(twin.last_participation(h.dense_of(3)), Some(5));
        wire::fails_closed(None, &blob, |b| {
            MeetingLedger::restore_state(&mut wire::Reader::new(b)).is_some()
        });
    }

    #[test]
    fn ledger_restore_rejects_inconsistent_live_set() {
        let h = generators::fig2();
        let mut init = vec![Cc1State::idle(); h.n()];
        init[h.dense_of(3)] = s(Status::Done, Some(2));
        init[h.dense_of(4)] = s(Status::Waiting, Some(2));
        let ledger = MeetingLedger::new(&h, &init);
        let mut blob = Vec::new();
        ledger.save_state(&mut blob);
        // A live slot pointing at an out-of-range instance must be refused.
        let mut evil = ledger.clone();
        evil.live[2] = Some(7);
        let mut bad = Vec::new();
        evil.save_state(&mut bad);
        assert!(MeetingLedger::restore_state(&mut wire::Reader::new(&bad)).is_none());
    }

    #[test]
    fn snapshot_matches_flat_encoding_across_the_lifecycle() {
        let h = generators::fig2();
        let idle = vec![Cc1State::idle(); h.n()];
        let mut ledger = MeetingLedger::new(&h, &idle);
        let check = |ledger: &mut MeetingLedger, when: &str| {
            let snap = ledger.snapshot();
            let mut from_snap = Vec::new();
            snap.encode(&mut from_snap);
            let mut flat = Vec::new();
            ledger.save_state(&mut flat);
            assert_eq!(from_snap, flat, "{when}");
            assert_eq!(snap.len(), ledger.instances().len(), "{when}");
        };
        check(&mut ledger, "empty");

        // Convene {3,4}, snapshot while live (instance must land in the
        // tail, not the seal), terminate, snapshot again (now sealed).
        let mut met = idle.clone();
        met[h.dense_of(3)] = s(Status::Waiting, Some(2));
        met[h.dense_of(4)] = s(Status::Waiting, Some(2));
        ledger.observe(&h, &idle, &met, 5, 1, &[]);
        check(&mut ledger, "live meeting");
        ledger.observe(
            &h,
            &met,
            &idle,
            9,
            2,
            &[(h.dense_of(3), ActionClass::Leave)],
        );
        check(&mut ledger, "terminated meeting");

        // Sealed prefix survives further convenes.
        ledger.observe(&h, &idle, &met, 12, 3, &[]);
        check(&mut ledger, "second meeting live");
    }

    #[test]
    fn mutation_remap_resets_the_seal() {
        // Meet on the *last* edge of a redundant ring, seal the terminated
        // instance, then remove edge 0: the swap-remove relocation remaps
        // the sealed instance's historical edge id, so the next snapshot
        // must re-encode from scratch — and still match the flat bytes.
        let mut h = generators::ring(6, 2);
        let last = EdgeId((h.m() - 1) as u32);
        let members: Vec<usize> = h.members(last).to_vec();
        let idle = vec![Cc1State::idle(); h.n()];
        let mut met = idle.clone();
        for &p in &members {
            met[p] = s(Status::Waiting, Some(last.0));
        }
        let mut ledger = MeetingLedger::new(&h, &idle);
        ledger.observe(&h, &idle, &met, 3, 1, &[]);
        ledger.observe(&h, &met, &idle, 7, 1, &[]);
        let sealed = ledger.snapshot();
        assert_eq!(sealed.len(), 1);

        let mutation = sscc_hypergraph::WorldMutation::RemoveCommittee { edge: EdgeId(0) };
        let delta = h.apply_mutation(&mutation).unwrap();
        ledger.apply_mutation(&h, &idle, &delta, 8);
        assert_eq!(
            ledger.instances()[0].edge,
            EdgeId(0),
            "history remapped through the relocation"
        );
        let snap = ledger.snapshot();
        let mut from_snap = Vec::new();
        snap.encode(&mut from_snap);
        let mut flat = Vec::new();
        ledger.save_state(&mut flat);
        assert_eq!(from_snap, flat, "post-remap snapshot re-encodes history");

        // The pre-mutation snapshot still decodes to the pre-mutation
        // ledger (shared segments are immutable).
        let mut old = Vec::new();
        sealed.encode(&mut old);
        let twin = MeetingLedger::restore_state(&mut wire::Reader::new(&old)).unwrap();
        assert_eq!(twin.instances()[0].edge, last);
    }

    #[test]
    fn participations_count_convenes() {
        let h = generators::fig2();
        let idle = vec![Cc1State::idle(); h.n()];
        let mut ledger = MeetingLedger::new(&h, &idle);
        let mut met = idle.clone();
        met[h.dense_of(3)] = s(Status::Waiting, Some(2));
        met[h.dense_of(4)] = s(Status::Waiting, Some(2));
        ledger.observe(&h, &idle, &met, 1, 0, &[]);
        assert_eq!(ledger.participations()[h.dense_of(3)], 1);
        assert_eq!(ledger.participations()[h.dense_of(4)], 1);
        assert_eq!(ledger.participations()[h.dense_of(1)], 0);
        assert_eq!(ledger.last_participation(h.dense_of(3)), Some(1));
        assert_eq!(ledger.convened_count(), 1);
    }
}
