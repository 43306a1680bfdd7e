//! The meeting ledger: reconstructing meeting lifecycles from executions.
//!
//! §4.2 defines the analysis vocabulary this module implements: a committee
//! `ε` **meets** in `γ` iff every member points at it with status
//! waiting/done; `ε` **convenes** in `γ_i` iff it meets in `γ_i` but not in
//! `γ_{i-1}`; it **terminates** symmetrically; a member **leaves** by
//! executing Step4. The ledger turns a step sequence into
//! [`MeetingInstance`] records that the specification monitors and the
//! fairness/concurrency metrics consume.
//!
//! A record is flat and owns no heap block: the member list is a shared
//! per-committee handle ([`Members`]), and who discussed / who left are
//! *positions* in that list ([`Positions`]) — one inline word each for
//! committees of up to 64, a boxed spill beyond. History is the only thing
//! in a run that grows without bound, so its unit cost is pinned
//! (`size_of::<MeetingInstance>() <= 96`, no allocation per convene).
//!
//! A terminated record is a log entry, not state, so it has one resident
//! form: its wire bytes. The ledger keeps the records from the first
//! unsealed one on as structs (the tail: every live meeting is in it), and
//! seals the tail's all-terminated prefix into shared segments of
//! [`SEGMENT`] records once it is that long — about 10 bytes a record
//! where the struct takes 96. [`MeetingLedger::instances`] is a view over
//! both ([`History`]); checkpoints copy the segments as they are, and a
//! restore adopts the bytes it validated instead of rebuilding structs.
//!
//! On the wire (checkpoint and service format version 3) the history is as
//! compact as the record: a committee table holds each distinct
//! (label, member list) once, append-only in first-use order, and a record
//! is that table's index, a flags byte, the convene step and round, the
//! termination as a distance from the convene, and the two position words
//! — all varints, about 8 bytes for a two-member meeting where the
//! fixed-width layout of versions 1 and 2 wrote 94 (field by field in
//! ARCHITECTURE.md, "Snapshots, checkpoints, and replay"). Decoding
//! accepts only what [`MeetingLedger::save_state`] writes, so
//! decode-then-encode is the identity. The size bound a checkpoint
//! reserves from ([`MeetingLedger::encoded_size_hint`]) is exact for
//! terminated records and over by about 30 bytes for each live one. The
//! fixed-width layout is read, never written, by one decoder, reached only
//! when the envelope reports version 1 or 2 ([`LedgerLayout::Fixed`]);
//! [`MeetingLedger::fingerprint`] digests the recorded fields rather than
//! their bytes, so it is the same under both.

use crate::predicates::edge_meets;
use crate::status::{ActionClass, CommitteeView};
use sscc_hypergraph::{EdgeId, Hypergraph, MutationDelta};
use sscc_runtime::seal::SealCache;
use sscc_runtime::wire::{self, StateCodec};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The member list of one committee as its meetings saw it: strictly
/// ascending dense indices, shared by every instance convened on that
/// membership (a convene is a refcount bump, not a copy).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Members(Arc<[usize]>);

impl Members {
    /// `None` unless `members` is strictly ascending — what
    /// [`Hypergraph::members`] always is, and what makes
    /// [`Members::position`] a binary search and ascending positions
    /// ascending processes.
    fn new(members: &[usize]) -> Option<Self> {
        let ascending = members.is_sorted_by(|a, b| a < b);
        ascending.then(|| Members(members.into()))
    }

    /// Index of process `p` in the list, if it is a member.
    pub fn position(&self, p: usize) -> Option<usize> {
        self.0.binary_search(&p).ok()
    }
}

impl std::ops::Deref for Members {
    type Target = [usize];
    fn deref(&self) -> &[usize] {
        &self.0
    }
}

impl<'a> IntoIterator for &'a Members {
    type Item = &'a usize;
    type IntoIter = std::slice::Iter<'a, usize>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// Distinct positions in a [`Members`] list, in order: `essential` keeps
/// them ascending (a set), `left_by` in the order the members left.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Positions(Order);

/// One inline word while the sequence ascends and stays below 64 — every
/// committee of up to 64 whose leavers come in the daemon's ascending
/// order, i.e. every run of the simulator. The first position that breaks
/// either moves the sequence into `Listed` for good, so equal sequences
/// are equal values.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Order {
    Ascending(u64),
    Listed(Box<[u32]>),
}

impl Positions {
    const NONE: Positions = Positions(Order::Ascending(0));

    /// The positions, in order.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let (mut word, listed): (u64, &[u32]) = match &self.0 {
            Order::Ascending(w) => (*w, &[]),
            Order::Listed(l) => (0, l),
        };
        let bits = std::iter::from_fn(move || {
            let bit = (word != 0).then(|| word.trailing_zeros() as usize)?;
            word &= word - 1;
            Some(bit)
        });
        bits.chain(listed.iter().map(|&q| q as usize))
    }

    fn contains(&self, pos: usize) -> bool {
        match &self.0 {
            Order::Ascending(w) => pos < 64 && w >> pos & 1 == 1,
            Order::Listed(l) => l.iter().any(|&q| q as usize == pos),
        }
    }

    /// Add `pos` — where an ascending sequence has it if `sorted` (a set),
    /// at the end otherwise; `false`, and no change, if it is already there.
    fn insert(&mut self, pos: usize, sorted: bool) -> bool {
        if self.contains(pos) {
            return false;
        }
        match &mut self.0 {
            // A bit's place in the sequence is its rank, so the word takes
            // `pos` as long as that is the place asked for.
            Order::Ascending(w) if pos < 64 && (sorted || *w >> pos == 0) => *w |= 1 << pos,
            _ => {
                let mut listed: Vec<u32> = self.iter().map(|q| q as u32).collect();
                let end = listed.len();
                let at = if sorted {
                    listed.partition_point(|&q| (q as usize) < pos)
                } else {
                    end
                };
                listed.insert(at, u32::try_from(pos).expect("fewer than 2^32 members"));
                self.0 = Order::Listed(listed.into());
            }
        }
        true
    }

    /// No position listed?
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    /// Spilled out of the inline word? Read back from the record's flags.
    fn is_listed(&self) -> bool {
        matches!(self.0, Order::Listed(_))
    }

    /// Append the compact wire form: the inline word as one varint, or a
    /// spilled sequence as its length and then each position.
    fn encode(&self, out: &mut Vec<u8>) {
        match &self.0 {
            Order::Ascending(w) => wire::put_varint(out, *w),
            Order::Listed(l) => {
                wire::put_varint(out, l.len() as u64);
                l.iter().for_each(|&q| wire::put_varint(out, u64::from(q)));
            }
        }
    }

    /// Bytes [`Positions::encode`] appends.
    fn encoded_len(&self) -> usize {
        match &self.0 {
            Order::Ascending(w) => varint_len(*w),
            Order::Listed(l) => {
                let items: usize = l.iter().map(|&q| varint_len(u64::from(q))).sum();
                varint_len(l.len() as u64) + items
            }
        }
    }

    /// Most bytes [`Positions::encode`] can append for a committee of
    /// `k`: the word (at most a full varint), or every position listed.
    const fn bound(k: usize) -> usize {
        let listed = varint_len(k as u64) + k * varint_len(k.saturating_sub(1) as u64);
        if listed > 10 {
            listed
        } else {
            10
        }
    }

    /// Read the compact form for a committee of `k`, as [`Positions::encode`]
    /// writes it and nothing else: a word has no bit at or beyond `k`; a
    /// listed sequence holds distinct positions below `k` (ascending, for a
    /// `set`) and is one the word cannot hold.
    fn decode(r: &mut wire::Reader, k: usize, listed: bool, set: bool) -> Option<Self> {
        if !listed {
            let w = r.varint()?;
            return (k >= 64 || w >> k == 0).then_some(Positions(Order::Ascending(w)));
        }
        let (mut out, mut floor) = (Positions::NONE, 0);
        for _ in 0..r.varint_count(1)? {
            let pos = usize::try_from(r.varint()?).ok()?;
            if pos >= k || (set && pos < floor) || !out.insert(pos, false) {
                return None;
            }
            floor = pos + 1;
        }
        out.is_listed().then_some(out)
    }

    /// Read the fixed-width form of format versions 1 and 2 — a length and
    /// then the *process* at each position — as positions in `members`:
    /// every process a member, none twice and, for a set, ascending.
    fn decode_fixed(r: &mut wire::Reader, members: &Members, set: bool) -> Option<Self> {
        let (mut out, mut floor) = (Positions::NONE, 0);
        for _ in 0..r.count(8)? {
            let pos = members.position(r.usize()?)?;
            if (set && pos < floor) || !out.insert(pos, false) {
                return None;
            }
            floor = pos + 1;
        }
        Some(out)
    }
}

/// Bytes [`wire::put_varint`] writes for `v`.
const fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// One meeting of one committee, from convening to termination.
#[derive(Clone, Eq)]
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
    /// Members (dense indices, ascending).
    pub participants: Members,
    /// Members that executed their essential discussion during this
    /// meeting, as positions in `participants`
    /// ([`MeetingInstance::discussed`], [`MeetingInstance::discussants`]).
    pub essential: Positions,
    /// Members that executed Step4 (unilateral leave) at termination, as
    /// positions in `participants` ([`MeetingInstance::leavers`]).
    pub left_by: Positions,
    /// Where `edge` and `participants` sit in the ledger's committee table
    /// — what the wire record names instead of repeating them.
    committee: u32,
}

// History is 520 k records at `cc1-ring`'s mark: the record's size is the
// run's resident set.
const _: () = assert!(std::mem::size_of::<MeetingInstance>() <= 96);

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

    /// Did member `p` execute its essential discussion in this meeting?
    pub fn discussed(&self, p: usize) -> bool {
        (self.participants.position(p)).is_some_and(|at| self.essential.contains(at))
    }

    /// The members that executed their essential discussion, ascending.
    pub fn discussants(&self) -> impl Iterator<Item = usize> + '_ {
        self.essential.iter().map(|at| self.participants[at])
    }

    /// The members that left (Step4), in the order they did.
    pub fn leavers(&self) -> impl Iterator<Item = usize> + '_ {
        self.left_by.iter().map(|at| self.participants[at])
    }
}

/// What the record means: the committee-table index is the ledger's
/// bookkeeping, not part of the meeting.
impl PartialEq for MeetingInstance {
    fn eq(&self, other: &Self) -> bool {
        self.edge == other.edge
            && self.convened_step == other.convened_step
            && self.convened_round == other.convened_round
            && self.terminated_step == other.terminated_step
            && self.participants == other.participants
            && self.essential == other.essential
            && self.left_by == other.left_by
    }
}

/// Prints processes, not positions — what the record means.
impl fmt::Debug for MeetingInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MeetingInstance")
            .field("edge", &self.edge)
            .field("convened_step", &self.convened_step)
            .field("convened_round", &self.convened_round)
            .field("terminated_step", &self.terminated_step)
            .field("participants", &&self.participants[..])
            .field("essential", &self.discussants().collect::<Vec<_>>())
            .field("left_by", &self.leavers().collect::<Vec<_>>())
            .finish()
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

/// The committee table of the wire format: each distinct committee a
/// meeting was recorded on — its label and its member list — once, in the
/// order the history first names it, so a record carries a small index
/// instead of both. Append-only: an id, once given, names the same entry
/// until a relocation merges two entries into one (and re-encodes the
/// sealed history with it).
#[derive(Clone, Debug, Default)]
struct Committees {
    entries: Vec<(EdgeId, Members)>,
    /// Ids of the entries carrying each label — the lookup behind a cache
    /// miss; a label has one entry per membership it met with.
    by_label: HashMap<EdgeId, Vec<u32>>,
    /// Bytes [`Committees::encode_entry`] writes for all of `entries`.
    bytes: usize,
}

impl Committees {
    /// How many members entry `id` has; `None` if there is no such entry.
    fn size(&self, id: usize) -> Option<usize> {
        self.entries.get(id).map(|(_, members)| members.len())
    }

    fn find(&self, edge: EdgeId, members: &[usize]) -> Option<u32> {
        let ids = self.by_label.get(&edge)?;
        ids.iter()
            .copied()
            .find(|&id| *self.entries[id as usize].1 == *members)
    }

    /// Append an entry the table does not hold; its id.
    fn push(&mut self, edge: EdgeId, members: Members) -> u32 {
        let id = u32::try_from(self.entries.len()).expect("fewer than 2^32 committees");
        self.bytes += Self::entry_len(edge, &members);
        self.by_label.entry(edge).or_default().push(id);
        self.entries.push((edge, members));
        id
    }

    /// The id of committee `edge` with `members`, appended if new; `None`
    /// unless `members` is strictly ascending.
    fn intern(&mut self, edge: EdgeId, members: &[usize]) -> Option<u32> {
        match self.find(edge, members) {
            Some(id) => Some(id),
            None => Some(self.push(edge, Members::new(members)?)),
        }
    }

    /// Rename label `old` to `new` — a relocation. `None` when the ids all
    /// stand; otherwise an entry now equals an earlier one, the table is
    /// rebuilt without the duplicates (first-use order kept: the earlier
    /// id survives, later ones close up) and the old-to-new id map returned.
    fn relabel(&mut self, old: EdgeId, new: EdgeId) -> Option<Vec<u32>> {
        let moved = self.by_label.remove(&old)?;
        for &id in &moved {
            let (edge, members) = &mut self.entries[id as usize];
            self.bytes =
                self.bytes - Self::entry_len(*edge, members) + Self::entry_len(new, members);
            *edge = new;
        }
        let held = self.by_label.entry(new).or_default();
        let collides = moved.iter().any(|&a| {
            held.iter()
                .any(|&b| self.entries[a as usize].1 == self.entries[b as usize].1)
        });
        held.extend(moved);
        if !collides {
            return None;
        }
        let entries = std::mem::take(self);
        let map = entries.entries.into_iter().map(|(edge, members)| {
            self.find(edge, &members)
                .unwrap_or_else(|| self.push(edge, members))
        });
        Some(map.collect())
    }

    /// Append one entry: the label, the member count, the first member and
    /// then each gap to the next less one — ascending by construction.
    fn encode_entry(edge: EdgeId, members: &[usize], out: &mut Vec<u8>) {
        wire::put_varint(out, u64::from(edge.0));
        wire::put_varint(out, members.len() as u64);
        let mut next = 0;
        for &p in members {
            wire::put_varint(out, (p - next) as u64);
            next = p + 1;
        }
    }

    fn entry_len(edge: EdgeId, members: &[usize]) -> usize {
        let mut next = 0;
        let gaps = members.iter().map(|&p| {
            let gap = varint_len((p - next) as u64);
            next = p + 1;
            gap
        });
        varint_len(u64::from(edge.0)) + varint_len(members.len() as u64) + gaps.sum::<usize>()
    }

    /// Read the table [`MeetingLedger::save_state`] writes: no entry twice.
    fn decode(r: &mut wire::Reader) -> Option<Self> {
        let mut table = Committees::default();
        for _ in 0..r.varint_count(2)? {
            let edge = EdgeId(u32::try_from(r.varint()?).ok()?);
            let mut members = Vec::with_capacity(r.varint_count(1)?);
            let mut next = 0usize;
            for _ in 0..members.capacity() {
                let p = next.checked_add(usize::try_from(r.varint()?).ok()?)?;
                members.push(p);
                next = p.checked_add(1)?;
            }
            if table.find(edge, &members).is_some() {
                return None;
            }
            table.push(edge, Members(members.into()));
        }
        Some(table)
    }
}

/// Record flags: which optional fields follow, and which position
/// sequences spilled out of their word.
const CONVENED: u8 = 1;
const TERMINATED: u8 = 2;
const ESSENTIAL_LISTED: u8 = 4;
const LEFT_LISTED: u8 = 8;

/// A record as the wire holds it: a [`MeetingInstance`] less the label and
/// member list its committee id stands for.
struct Record {
    committee: u32,
    convened_step: Option<u64>,
    convened_round: u64,
    terminated_step: Option<u64>,
    essential: Positions,
    left_by: Positions,
}

impl Record {
    /// Read one record as [`MeetingLedger::encode_record`] writes it and
    /// nothing else, for a table whose entry `id` has `members(id)`
    /// members (`None`: no such entry): known flags only, no termination
    /// before the convene, positions below the member count, spilled only
    /// where the word cannot hold them.
    fn read(r: &mut wire::Reader, members: impl Fn(usize) -> Option<usize>) -> Option<Record> {
        let committee = u32::try_from(r.varint()?).ok()?;
        let k = members(committee as usize)?;
        let flags = r.u8()?;
        if flags & !(CONVENED | TERMINATED | ESSENTIAL_LISTED | LEFT_LISTED) != 0 {
            return None;
        }
        let convened_step = if flags & CONVENED != 0 {
            Some(r.varint()?)
        } else {
            None
        };
        let convened_round = r.varint()?;
        let terminated_step = if flags & TERMINATED != 0 {
            Some(convened_step.unwrap_or(0).checked_add(r.varint()?)?)
        } else {
            None
        };
        Some(Record {
            committee,
            convened_step,
            convened_round,
            terminated_step,
            essential: Positions::decode(r, k, flags & ESSENTIAL_LISTED != 0, true)?,
            left_by: Positions::decode(r, k, flags & LEFT_LISTED != 0, false)?,
        })
    }

    /// The meeting, its committee looked up in `entries`.
    fn into_instance(self, entries: &[(EdgeId, Members)]) -> MeetingInstance {
        let (edge, participants) = entries[self.committee as usize].clone();
        MeetingInstance {
            edge,
            convened_step: self.convened_step,
            convened_round: self.convened_round,
            terminated_step: self.terminated_step,
            participants,
            essential: self.essential,
            left_by: self.left_by,
            committee: self.committee,
        }
    }
}

/// Records a sealed segment holds at most: what observing seals at once,
/// once that many have terminated, and what a restore adopts at once —
/// 4 096 (8 in this crate's own unit tests, so that their short histories
/// cross many segment boundaries).
pub const SEGMENT: usize = if cfg!(test) { 8 } else { 4096 };

/// Terminated records `start..start + len` in their one resident form: the
/// bytes [`MeetingLedger::encode_record`] wrote for them, shared with every
/// snapshot that captured them.
#[derive(Clone, Debug)]
struct Segment {
    start: usize,
    len: usize,
    /// How many of them convened after step 0 — the conservation check's
    /// share of the history, kept so the check never decodes.
    post_initial: usize,
    bytes: Arc<Vec<u8>>,
    /// The records as structs, decoded by the first indexed read of one —
    /// which only tests and offline readers make: a live meeting, and so
    /// every record a step's events name, is never sealed.
    decoded: OnceLock<Box<[MeetingInstance]>>,
}

impl Segment {
    /// Seal `records`, the first of which is record `start`.
    fn seal(start: usize, records: &[MeetingInstance]) -> Self {
        // One pass over records that have gone cold in the cache: the
        // buffer is sized from the ring's ≈ 10 bytes a record, trimmed to
        // what was written.
        let (mut bytes, mut post_initial) = (Vec::with_capacity(16 * records.len()), 0);
        for inst in records {
            MeetingLedger::encode_record(inst, &mut bytes);
            post_initial += usize::from(inst.post_initial());
        }
        bytes.shrink_to_fit();
        Segment::adopt(start, records.len(), post_initial, bytes)
    }

    /// One past its last record's index.
    fn end(&self) -> usize {
        self.start + self.len
    }

    fn adopt(start: usize, len: usize, post_initial: usize, bytes: Vec<u8>) -> Self {
        Segment {
            start,
            len,
            post_initial,
            bytes: Arc::new(bytes),
            decoded: OnceLock::new(),
        }
    }

    /// The records, read back through the committee table.
    fn records<'a>(&'a self, table: &'a Committees) -> impl Iterator<Item = MeetingInstance> + 'a {
        let mut r = wire::Reader::new(&self.bytes);
        (0..self.len).map(move |_| {
            let record = Record::read(&mut r, |id| table.size(id)).expect("sealed records decode");
            record.into_instance(&table.entries)
        })
    }
}

/// Records [`MeetingLedger::restore_state`] has read but not yet adopted:
/// where they start, how many, how many of them post-initial.
struct Piece<'a> {
    from: wire::Reader<'a>,
    len: usize,
    post_initial: usize,
}

impl Piece<'_> {
    /// Adopt the records read up to `at` as one sealed segment.
    fn adopt(&mut self, at: &wire::Reader, sealed: &mut Vec<Segment>) {
        let start = sealed.last().map_or(0, Segment::end);
        let read = self.from.remaining() - at.remaining();
        let bytes = self.from.take(read).expect("bytes already read");
        sealed.push(Segment::adopt(
            start,
            self.len,
            self.post_initial,
            bytes.to_vec(),
        ));
        (self.len, self.post_initial) = (0, 0);
    }
}

/// What a ledger holds resident ([`MeetingLedger::footprint`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Footprint {
    /// Terminated records held only as their sealed wire bytes.
    pub sealed_records: usize,
    /// The bytes those records take.
    pub sealed_bytes: usize,
    /// Records held as [`MeetingInstance`] structs: every record from the
    /// first unsealed one on.
    pub tail_records: usize,
    /// Sealed records also held as structs, because an indexed read of
    /// sealed history decoded their segment.
    pub decoded_records: usize,
}

/// Which record layout a ledger blob carries — what the envelope version of
/// the artifact around it says.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LedgerLayout {
    /// Format versions 1 and 2: fixed-width fields and three member lists a
    /// record. Read, never written.
    Fixed,
    /// Format version 3 and the bare [`MeetingLedger::save_state`] blob: a
    /// committee table and varint records.
    Compact,
}

/// Accumulates meeting instances over a computation.
#[derive(Clone, Debug)]
pub struct MeetingLedger {
    /// Records `0..covered`, all terminated, as wire bytes, oldest first.
    sealed: Vec<Segment>,
    /// Every record from `covered` on: the live meetings, and whatever
    /// terminated behind the oldest of them or since the last seal.
    tail: Vec<MeetingInstance>,
    /// `tail[..settled]` have all terminated — the cursor sealing advances
    /// and never moves back: a termination is final.
    settled: usize,
    /// `live[e]` = index of the live meeting of edge `e` (always in the
    /// tail).
    live: Vec<Option<usize>>,
    /// Ascending edge ids of live meetings (maintained incrementally so
    /// per-step consumers never scan all `|E|` edges).
    live_sorted: Vec<EdgeId>,
    /// Every committee the history names, each once.
    committees: Committees,
    /// `cached[e]` = the table entry the last meeting of edge `e` was given:
    /// checked against the graph at every use, so a membership change or a
    /// restore costs one table lookup, never a stale participant list.
    cached: Vec<Option<u32>>,
    /// Post-initial instances recorded — [`MeetingLedger::convened_count`]
    /// without the scan. Derived, so not part of the wire format.
    convened: usize,
    /// What the records encode to: exact for terminated ones, the
    /// [`MeetingLedger::live_bound`] of live ones — what lets a checkpoint
    /// reserve its buffer once instead of doubling its way through the
    /// history. Derived, not on the wire.
    encoded_bound: usize,
    /// Per-process participation counter (meetings convened with them in).
    participations: Vec<u64>,
    /// Last step at which each process participated in a convene.
    last_participation: Vec<Option<u64>>,
    /// Online-snapshot support: the wire encoding of the committee table,
    /// whose entries are immutable until a relocation relabels them.
    table_seal: SealCache,
}

impl MeetingLedger {
    /// Start a ledger on the initial configuration: committees already
    /// meeting become pre-existing instances (`convened_step = None`).
    pub fn new<S: CommitteeView>(h: &Hypergraph, initial: &[S]) -> Self {
        let mut ledger = MeetingLedger {
            sealed: Vec::new(),
            tail: Vec::new(),
            settled: 0,
            live: vec![None; h.m()],
            live_sorted: Vec::new(),
            committees: Committees::default(),
            cached: vec![None; h.m()],
            convened: 0,
            encoded_bound: 0,
            participations: vec![0; h.n()],
            last_participation: vec![None; h.n()],
            table_seal: SealCache::new(),
        };
        for e in h.edge_ids() {
            if edge_meets(h, initial, e) {
                ledger.open(h, e, None, 0);
            }
        }
        ledger
    }

    /// Records sealed: the index of the first one in the tail.
    fn covered(&self) -> usize {
        self.sealed.last().map_or(0, Segment::end)
    }

    /// The live record `idx` — in the tail, as every live record is.
    fn live_mut(&mut self, idx: usize) -> &mut MeetingInstance {
        let covered = self.covered();
        &mut self.tail[idx - covered]
    }

    /// Seal the tail's all-terminated prefix into segments of at most
    /// [`SEGMENT`] records and drain it from the tail — only whole
    /// segments' worth if `whole`, leaving the rest for a later seal.
    fn seal(&mut self, whole: bool) {
        while self.tail.get(self.settled).is_some_and(|i| !i.live()) {
            self.settled += 1;
        }
        let upto = if whole {
            self.settled - self.settled % SEGMENT
        } else {
            self.settled
        };
        let mut start = self.covered();
        for records in self.tail[..upto].chunks(SEGMENT) {
            self.sealed.push(Segment::seal(start, records));
            start += records.len();
        }
        self.tail.drain(..upto);
        self.settled -= upto;
    }

    /// Record a new live instance of `e` (which has none) and return its
    /// index. The record is a flat push: the member list is the handle of
    /// `e`'s table entry, looked up again only when the graph's list
    /// differs from the one cached for `e`.
    fn open(&mut self, h: &Hypergraph, e: EdgeId, convened_step: Option<u64>, round: u64) -> usize {
        let idx = self.covered() + self.tail.len();
        self.live[e.index()] = Some(idx);
        let at = self.live_sorted.partition_point(|&x| x < e);
        self.live_sorted.insert(at, e);
        let now = h.members(e);
        let committee = match self.cached[e.index()] {
            Some(id) if *self.committees.entries[id as usize].1 == *now => id,
            _ => {
                let id = self.committees.intern(e, now);
                *self.cached[e.index()].insert(id.expect("committee member lists are ascending"))
            }
        };
        let inst = MeetingInstance {
            edge: e,
            convened_step,
            convened_round: round,
            terminated_step: None,
            participants: self.committees.entries[committee as usize].1.clone(),
            essential: Positions::NONE,
            left_by: Positions::NONE,
            committee,
        };
        self.convened += usize::from(convened_step.is_some());
        self.encoded_bound += Self::live_bound(&inst);
        self.tail.push(inst);
        idx
    }

    /// Close the live instance of `e`, if any, at `step`; its index.
    fn close(&mut self, e: EdgeId, step: u64) -> Option<usize> {
        let idx = self.live[e.index()].take()?;
        let at = self.live_sorted.binary_search(&e).expect("was in live set");
        self.live_sorted.remove(at);
        self.terminate(idx, step);
        Some(idx)
    }

    /// Stamp instance `idx` terminated at `step`; from now on its record is
    /// final, so the encoded bound takes its exact size.
    fn terminate(&mut self, idx: usize, step: u64) {
        let inst = self.live_mut(idx);
        let open = Self::live_bound(inst);
        let convened = inst.convened_step.unwrap_or(0);
        assert!(step >= convened, "a meeting cannot end before it convened");
        inst.terminated_step = Some(step);
        let exact = Self::record_len(inst);
        self.encoded_bound = self.encoded_bound - open + exact;
    }

    /// Attribute an executed essential discussion or leave of `p` to the
    /// live meeting of the edge `p` pointed at before the step. `p` is a
    /// participant of that meeting: pointers range over `E_p`, and a
    /// membership change closes the instance ([`MeetingLedger::resync_edge`]).
    fn attribute(&mut self, p: usize, class: ActionClass, pointer: Option<EdgeId>) {
        if !matches!(class, ActionClass::Essential | ActionClass::Leave) {
            return;
        }
        let Some(idx) = pointer.and_then(|e| self.live[e.index()]) else {
            return;
        };
        let inst = self.live_mut(idx);
        let pos = inst.participants.position(p);
        debug_assert!(pos.is_some(), "process {p} acted in {inst:?}");
        let Some(pos) = pos else { return };
        if class == ActionClass::Essential {
            inst.essential.insert(pos, true);
        } else {
            let fresh = inst.left_by.insert(pos, false);
            debug_assert!(fresh, "process {p} left {inst:?} twice");
        }
    }

    /// Seal whole segments of terminated records, once there are any —
    /// before a step, so no record this step's events name is sealed.
    #[inline]
    fn seal_segments(&mut self) {
        if self.tail.len() >= SEGMENT {
            self.seal(true);
        }
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
        self.seal_segments();
        let mut events = Vec::new();
        // Essential discussions and leaves are attributed to the live
        // meeting of the edge the process pointed at in `pre`.
        for &(p, class) in executed {
            self.attribute(p, class, pre[p].pointer());
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
    /// edges are re-checked — `O(affected)` instead of `O(|E|)`. `touched`
    /// is **any ascending superset of the committees whose meets-status
    /// changed** in this step; the simulator passes the committees for which
    /// some executed member started or stopped upholding `Meeting`'s
    /// conjunct ([`crate::predicates::upholds_meeting`]), at most two per
    /// executed process. `executed` carries each action's semantic class and
    /// the executing process's **pre-step** pointer (attribution target).
    ///
    /// Produces the exact event sequence of the full scan: `touched` is
    /// ascending and a committee outside it produces no event. One that
    /// *did* change and is left out desynchronizes the live set for good
    /// (debug builds of the simulator check for that every step).
    pub fn observe_delta<S: CommitteeView>(
        &mut self,
        h: &Hypergraph,
        post: &[S],
        step: u64,
        round: u64,
        executed: &[(usize, ActionClass, Option<EdgeId>)],
        touched: &[EdgeId],
    ) -> Vec<LedgerEvent> {
        self.seal_segments();
        let mut events = Vec::new();
        for &(p, class, pointer) in executed {
            self.attribute(p, class, pointer);
        }
        debug_assert!(touched.windows(2).all(|w| w[0] < w[1]), "touched ascending");
        for &e in touched {
            self.transition(h, post, e, step, round, &mut events);
        }
        self.debug_check_conservation();
        events
    }

    /// Debug builds: the derived indexes agree with what they index —
    /// `live_sorted` lists exactly the occupied slots of `live`, and
    /// `convened` is the number of post-initial instances: the tail's,
    /// counted, and each sealed segment's, as sealed. `O(live + tail)`.
    #[inline]
    fn debug_check_conservation(&self) {
        debug_assert!(
            Self::live_slots(&self.live).eq(self.live_sorted.iter().copied()),
            "live_sorted lists exactly the live slots"
        );
        debug_assert_eq!(
            self.convened,
            self.sealed.iter().map(|s| s.post_initial).sum::<usize>()
                + self.tail.iter().filter(|i| i.post_initial()).count(),
            "convened counts the post-initial instances"
        );
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
            let idx = self.open(h, e, Some(step), round);
            for &q in h.members(e) {
                self.participations[q] += 1;
                self.last_participation[q] = Some(step);
            }
            events.push(LedgerEvent::Convened(idx));
        } else if was && !now {
            let idx = self.close(e, step).expect("was live");
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
        self.close(e, step);
        if edge_meets(h, states, e) {
            self.open(h, e, None, 0);
        }
        self.debug_check_conservation();
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
        if let Some(e) = delta.removed() {
            if let Some(idx) = self.live[e.index()].take() {
                self.terminate(idx, step);
            }
        }
        delta.remap_per_edge(&mut self.live, || None);
        delta.remap_per_edge(&mut self.cached, || None);
        // Only a relocation changes an id history refers to (a dissolved
        // committee keeps its label), and it changes the table: a sealed
        // record names its table entry, not its label, so its bytes stand
        // unless entries merged — and the tail is the only history walked.
        if let Some((old, new)) = delta.moved() {
            self.table_seal.reset();
            let merged = self.committees.relabel(old, new);
            for inst in &mut self.tail {
                if inst.edge == old {
                    inst.edge = new;
                }
                if let Some(map) = &merged {
                    inst.committee = map[inst.committee as usize];
                }
            }
            for seg in &mut self.sealed {
                // Decoded records carry labels, which just moved.
                seg.decoded = OnceLock::new();
                if let Some(map) = &merged {
                    seg.bytes = Arc::new(Self::remap(seg, map, &self.committees));
                }
            }
            // Merged ids are smaller, so the bound only loosened; a rare
            // event, so it is made exact again rather than carried.
            if merged.is_some() {
                self.cached.fill(None);
                let sealed: usize = self.sealed.iter().map(|s| s.bytes.len()).sum();
                self.encoded_bound = sealed + self.tail.iter().map(Self::bound_of).sum::<usize>();
            }
        }
        self.live_sorted = Self::live_slots(&self.live).collect();
        for e in delta.changed_edges() {
            self.resync_edge(h, states, e, step);
        }
        self.debug_check_conservation();
    }

    /// `seg`'s records re-encoded under the merged `table`, each committee
    /// id sent through `map`.
    fn remap(seg: &Segment, map: &[u32], table: &Committees) -> Vec<u8> {
        let members = |id: usize| table.size(*map.get(id)? as usize);
        let (mut r, mut out) = (
            wire::Reader::new(&seg.bytes),
            Vec::with_capacity(seg.bytes.len()),
        );
        for _ in 0..seg.len {
            let mut record = Record::read(&mut r, members).expect("sealed records decode");
            record.committee = map[record.committee as usize];
            Self::encode_record(&record.into_instance(&table.entries), &mut out);
        }
        out.shrink_to_fit();
        out
    }

    /// The edges with a live slot, ascending.
    fn live_slots(live: &[Option<usize>]) -> impl Iterator<Item = EdgeId> + '_ {
        let ids = (0..live.len()).filter(|&ei| live[ei].is_some());
        ids.map(|ei| EdgeId(ei as u32))
    }

    /// All recorded instances, in creation order.
    pub fn instances(&self) -> History<'_> {
        History { ledger: self }
    }

    /// Record `idx`: from the tail, or from its sealed segment, which the
    /// first such read decodes for good.
    fn record(&self, idx: usize) -> Option<&MeetingInstance> {
        let covered = self.covered();
        if idx >= covered {
            return self.tail.get(idx - covered);
        }
        let seg = &self.sealed[self.sealed.partition_point(|s| s.start <= idx) - 1];
        let records = seg
            .decoded
            .get_or_init(|| seg.records(&self.committees).collect());
        Some(&records[idx - seg.start])
    }

    /// The live instance of edge `e`, if any.
    pub fn live_instance(&self, e: EdgeId) -> Option<&MeetingInstance> {
        self.live[e.index()].map(|i| &self.tail[i - self.covered()])
    }

    /// Is committee `e` currently meeting? `O(1)` — the ledger maintains
    /// per-edge meets status from the touched edges of every step (every
    /// committee whose status moved is among them), so this
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

    /// Meetings convened after step 0 (covered by snap-stabilization),
    /// sealed ones decoded on the fly.
    pub fn post_initial_instances(&self) -> impl Iterator<Item = MeetingInstance> + '_ {
        self.instances()
            .iter()
            .filter(MeetingInstance::post_initial)
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
        self.convened
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

    /// What the history holds resident: how many terminated records are
    /// kept only as sealed wire bytes and in how many bytes, how many
    /// records the tail holds as structs, and how many sealed ones an
    /// indexed read decoded a second time. `O(segments)`.
    pub fn footprint(&self) -> Footprint {
        let decoded = self.sealed.iter().filter(|s| s.decoded.get().is_some());
        Footprint {
            sealed_records: self.covered(),
            sealed_bytes: self.sealed.iter().map(|s| s.bytes.len()).sum(),
            tail_records: self.tail.len(),
            decoded_records: decoded.map(|s| s.len).sum(),
        }
    }

    /// A digest of what the ledger recorded, independent of how it is laid
    /// out on the wire: FNV-1a over the little-endian words of a canonical
    /// walk — per record its edge, convene step, round, termination step,
    /// participants, discussants (ascending) and leavers (in the order they
    /// left); then the live slots, the participation counters and the last
    /// participations. A list is its length and then its items; an absent
    /// value is the word `0`, a present one `1` and then the value. Equal
    /// fingerprints mean the same trajectory was recorded, whatever bytes
    /// a format version writes for it.
    pub fn fingerprint(&self) -> u64 {
        struct Fnv(u64);
        impl Fnv {
            fn word(&mut self, v: u64) {
                for b in v.to_le_bytes() {
                    self.0 ^= u64::from(b);
                    self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            fn opt(&mut self, v: Option<u64>) {
                match v {
                    None => self.word(0),
                    Some(v) => {
                        self.word(1);
                        self.word(v);
                    }
                }
            }
            fn list<I: Iterator<Item = usize>>(&mut self, items: impl Fn() -> I) {
                self.word(items().count() as u64);
                items().for_each(|x| self.word(x as u64));
            }
        }
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        let records = self.instances();
        h.word(records.len() as u64);
        for inst in records.iter() {
            h.word(u64::from(inst.edge.0));
            h.opt(inst.convened_step);
            h.word(inst.convened_round);
            h.opt(inst.terminated_step);
            h.list(|| inst.participants.iter().copied());
            h.list(|| inst.discussants());
            h.list(|| inst.leavers());
        }
        h.word(self.live.len() as u64);
        self.live.iter().for_each(|s| h.opt(s.map(|i| i as u64)));
        h.word(self.participations.len() as u64);
        self.participations.iter().for_each(|&c| h.word(c));
        h.word(self.last_participation.len() as u64);
        self.last_participation.iter().for_each(|&s| h.opt(s));
        h.0
    }

    /// Bytes [`MeetingLedger::encode_record`] writes for `inst` — what the
    /// encoded bound holds for a terminated record.
    fn record_len(inst: &MeetingInstance) -> usize {
        let convened = inst.convened_step.unwrap_or(0);
        varint_len(u64::from(inst.committee))
            + 1
            + inst.convened_step.map_or(0, varint_len)
            + varint_len(inst.convened_round)
            + inst.terminated_step.map_or(0, |t| varint_len(t - convened))
            + inst.essential.encoded_len()
            + inst.left_by.encoded_len()
    }

    /// Most bytes the record of live `inst` can come to once it terminates:
    /// its fixed prefix exactly, a full varint for the termination and the
    /// [`Positions::bound`] of each sequence.
    fn live_bound(inst: &MeetingInstance) -> usize {
        varint_len(u64::from(inst.committee))
            + 1
            + inst.convened_step.map_or(0, varint_len)
            + varint_len(inst.convened_round)
            + 10
            + 2 * Positions::bound(inst.participants.len())
    }

    /// What `inst` contributes to the encoded bound.
    fn bound_of(inst: &MeetingInstance) -> usize {
        if inst.live() {
            Self::live_bound(inst)
        } else {
            Self::record_len(inst)
        }
    }

    /// An upper bound on what [`MeetingLedger::save_state`] appends, in
    /// `O(1)`: the table and the terminated records exactly, the live
    /// records and the footer at their widest varints. Over by the live
    /// records' open fields — on a ring about 30 bytes for each of the
    /// meetings running, against about 9 written for each that ended; sizes
    /// a buffer, nothing else.
    pub fn encoded_size_hint(&self) -> usize {
        let (m, n) = (self.live.len(), self.participations.len());
        30 + self.committees.bytes + self.encoded_bound + 10 * (m + 2 * n)
    }

    /// The wire record of one instance — the unit [`MeetingLedger::save_state`],
    /// the sealed segments and [`LedgerSnapshot::encode`] must agree on:
    ///
    /// ```text
    /// committee  varint  index into the committee table (edge, members)
    /// flags      u8      CONVENED | TERMINATED | ESSENTIAL_LISTED | LEFT_LISTED
    /// convened   varint  convene step, if CONVENED
    /// round      varint  completed rounds at the convene
    /// ended      varint  termination step less the convene step (less 0
    ///                    for a pre-initial meeting), if TERMINATED
    /// essential  varint  the position word, or if listed a count and
    ///                    each position, ascending
    /// left_by    varint  the same, in the order the members left
    /// ```
    fn encode_record(inst: &MeetingInstance, out: &mut Vec<u8>) {
        let flag = |on: bool, bit: u8| if on { bit } else { 0 };
        let flags = flag(inst.convened_step.is_some(), CONVENED)
            | flag(inst.terminated_step.is_some(), TERMINATED)
            | flag(inst.essential.is_listed(), ESSENTIAL_LISTED)
            | flag(inst.left_by.is_listed(), LEFT_LISTED);
        wire::put_varint(out, u64::from(inst.committee));
        wire::put_u8(out, flags);
        if let Some(step) = inst.convened_step {
            wire::put_varint(out, step);
        }
        wire::put_varint(out, inst.convened_round);
        if let Some(step) = inst.terminated_step {
            wire::put_varint(out, step - inst.convened_step.unwrap_or(0));
        }
        inst.essential.encode(out);
        inst.left_by.encode(out);
    }

    /// Wire encoding of everything after the records: each live slot (`0`
    /// for none, else one more than the instance index), the participation
    /// counters, the last-participation steps (`0` for none, else one more
    /// than the step).
    fn encode_footer(
        out: &mut Vec<u8>,
        live: &[Option<usize>],
        participations: &[u64],
        last_participation: &[Option<u64>],
    ) {
        wire::put_varint(out, live.len() as u64);
        for slot in live {
            wire::put_varint(out, slot.map_or(0, |idx| idx as u64 + 1));
        }
        wire::put_varint(out, participations.len() as u64);
        participations
            .iter()
            .for_each(|&c| wire::put_varint(out, c));
        for step in last_participation {
            wire::put_varint(out, step.map_or(0, |s| s + 1));
        }
    }

    /// Serialize the full meeting history and live set: the committee table,
    /// the records — a copy of each sealed segment, then the tail encoded —
    /// and the footer, each list behind a varint count. `live_sorted` is
    /// derivable (ascending filter of `live`) and not written.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        let entries = &self.committees.entries;
        wire::put_varint(out, entries.len() as u64);
        for (edge, members) in entries {
            Committees::encode_entry(*edge, members, out);
        }
        wire::put_varint(out, (self.covered() + self.tail.len()) as u64);
        for seg in &self.sealed {
            out.extend_from_slice(&seg.bytes);
        }
        for inst in &self.tail {
            Self::encode_record(inst, out);
        }
        Self::encode_footer(
            out,
            &self.live,
            &self.participations,
            &self.last_participation,
        );
    }

    /// Capture an **online snapshot** of the ledger in `O(tail)`: the
    /// committee table's new entries and the tail's terminated prefix are
    /// sealed, every sealed segment is shared (an `Arc` clone each), and
    /// the rest of the tail — from the oldest live meeting on — and the
    /// per-process counters are cloned. Never `O(history)`.
    /// [`LedgerSnapshot::encode`] reassembles the exact
    /// [`MeetingLedger::save_state`] bytes off the critical path.
    pub fn snapshot(&mut self) -> LedgerSnapshot {
        let entries = &self.committees.entries;
        let from = self.table_seal.covered();
        let fresh = &entries[from..];
        let bytes = fresh.iter().map(|(e, m)| Committees::entry_len(*e, m));
        self.table_seal
            .extend_to(entries.len(), bytes.sum(), |buf| {
                for (edge, members) in fresh {
                    Committees::encode_entry(*edge, members, buf);
                }
            });
        self.seal(false);
        LedgerSnapshot {
            committees: self.committees.entries.len(),
            table: self.table_seal.segments().to_vec(),
            total: self.covered() + self.tail.len(),
            sealed: self.sealed.iter().map(|s| Arc::clone(&s.bytes)).collect(),
            tail: self.tail.clone(),
            live: self.live.clone(),
            participations: self.participations.clone(),
            last_participation: self.last_participation.clone(),
        }
    }

    /// The ledger around decoded history — sealed segments and the tail
    /// behind them —, its table and footer, once the invariants every
    /// decode shares hold: every live slot names an un-terminated instance
    /// of that very edge (so one in the tail) and every un-terminated
    /// instance has its slot, and no member list names a process outside
    /// the `participations` dimension.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        committees: Committees,
        sealed: Vec<Segment>,
        tail: Vec<MeetingInstance>,
        live: Vec<Option<usize>>,
        participations: Vec<u64>,
        last_participation: Vec<Option<u64>>,
        convened: usize,
        encoded_bound: usize,
    ) -> Option<Self> {
        let n = participations.len();
        let covered = sealed.last().map_or(0, Segment::end);
        let named = live.iter().enumerate().try_fold(0, |named, (ei, slot)| {
            let Some(idx) = *slot else { return Some(named) };
            let inst = tail.get(idx.checked_sub(covered)?)?;
            (inst.edge.index() == ei && inst.live()).then_some(named + 1)
        })?;
        let outside = |(_, m): &(EdgeId, Members)| m.last().is_some_and(|&p| p >= n);
        let running = tail.iter().filter(|inst| inst.live()).count();
        if named != running || last_participation.len() != n {
            return None;
        }
        if committees.entries.iter().any(outside) {
            return None;
        }
        Some(MeetingLedger {
            convened,
            encoded_bound,
            sealed,
            tail,
            settled: 0,
            live_sorted: Self::live_slots(&live).collect(),
            cached: vec![None; live.len()],
            live,
            committees,
            participations,
            last_participation,
            table_seal: SealCache::new(),
        })
    }

    /// Decode a ledger written by [`MeetingLedger::save_state`], rebuilding
    /// `live_sorted`, the convene count and the encoded bound, and
    /// re-validating the rest: the table holds no entry twice and names
    /// each in first-use order; a record names an entry, sets no unknown
    /// flag, ends no earlier than it convened and lists only positions of
    /// its members, spilled only where the word cannot hold them; every
    /// live slot names an unterminated meeting of that very committee and
    /// every unterminated meeting has its slot; no member list names a
    /// process outside the per-process counters. Every varint is the
    /// shortest. Only blobs `save_state` can write decode, so
    /// decode-then-encode is the identity — and a record's table index is
    /// an array lookup, nothing more.
    ///
    /// Every record is validated, but only those from the first live one
    /// on become structs: the all-terminated prefix before it is adopted
    /// as the bytes just read, in segments of [`SEGMENT`] records.
    pub fn restore_state(r: &mut wire::Reader) -> Option<Self> {
        let committees = Committees::decode(r)?;
        // ≥ 5 bytes a record: index, flags, round and two position words.
        let count = r.varint_count(5)?;
        let (mut sealed, mut tail) = (Vec::new(), Vec::new());
        let mut piece = Piece {
            from: *r,
            len: 0,
            post_initial: 0,
        };
        // The derived counters ride the decode loop: another pass over the
        // records is another pass through the cache.
        let (mut convened, mut encoded_bound, mut named) = (0, 0, 0u32);
        for _ in 0..count {
            let (before, at) = (r.remaining(), *r);
            let record = Record::read(r, |id| committees.size(id))?;
            // First-use order: a record names an entry already named or the
            // next one.
            if record.committee > named {
                return None;
            }
            named += u32::from(record.committee == named);
            convened += usize::from(record.convened_step.is_some());
            if tail.is_empty() && record.terminated_step.is_some() {
                encoded_bound += before - r.remaining();
                piece.len += 1;
                piece.post_initial += usize::from(record.convened_step.is_some());
                if piece.len == SEGMENT {
                    piece.adopt(r, &mut sealed);
                }
                continue;
            }
            if tail.is_empty() && piece.len > 0 {
                piece.adopt(&at, &mut sealed);
            }
            let inst = record.into_instance(&committees.entries);
            encoded_bound += if inst.live() {
                Self::live_bound(&inst)
            } else {
                before - r.remaining()
            };
            tail.push(inst);
        }
        if piece.len > 0 {
            piece.adopt(r, &mut sealed);
        }
        if named as usize != committees.entries.len() {
            return None;
        }
        let m = r.varint_count(1)?;
        let mut live = Vec::with_capacity(m);
        for _ in 0..m {
            live.push(match r.varint()? {
                0 => None,
                slot => Some(usize::try_from(slot - 1).ok()?),
            });
        }
        let n = r.varint_count(2)?;
        let participations = (0..n).map(|_| r.varint()).collect::<Option<Vec<_>>>()?;
        let mut last_participation = Vec::with_capacity(n);
        for _ in 0..n {
            last_participation.push(r.varint()?.checked_sub(1));
        }
        Self::assemble(
            committees,
            sealed,
            tail,
            live,
            participations,
            last_participation,
            convened,
            encoded_bound,
        )
    }

    /// Decode the fixed-width ledger of format versions 1 and 2 — the
    /// layout only artifacts written before version 3 carry, read here and
    /// nowhere else — into a ledger that writes the compact layout from now
    /// on, its terminated prefix sealed once decoded. The committee table
    /// is rebuilt in first-use order as the records go by. Validated like
    /// [`MeetingLedger::restore_state`]: every member list strictly
    /// ascending, `essential` an ascending and `left_by` a duplicate-free
    /// selection *of the participants*, no termination before its convene,
    /// and the invariants of [`MeetingLedger::assemble`].
    pub(crate) fn restore_fixed(r: &mut wire::Reader) -> Option<Self> {
        // ≥ 38 bytes per instance (all three member lists empty).
        let count = r.count(38)?;
        let mut instances = Vec::with_capacity(count);
        let mut committees = Committees::default();
        // The entry each label met with last. A map, not a table: a
        // dissolved committee's label may exceed `|E|`, and nothing read
        // from input may size an allocation.
        let mut last: BTreeMap<EdgeId, u32> = BTreeMap::new();
        let mut list = Vec::new();
        let (mut convened, mut encoded_bound) = (0, 0);
        for _ in 0..count {
            let edge = EdgeId::decode(r)?;
            let convened_step = Option::<u64>::decode(r)?;
            let convened_round = r.u64()?;
            let terminated_step = Option::<u64>::decode(r)?;
            if terminated_step.is_some_and(|t| t < convened_step.unwrap_or(0)) {
                return None;
            }
            list.clear();
            for _ in 0..r.count(8)? {
                list.push(r.usize()?);
            }
            let committee = match last.get(&edge) {
                Some(&id) if *committees.entries[id as usize].1 == *list => id,
                _ => {
                    let id = committees.intern(edge, &list)?;
                    last.insert(edge, id);
                    id
                }
            };
            let participants = committees.entries[committee as usize].1.clone();
            let essential = Positions::decode_fixed(r, &participants, true)?;
            let left_by = Positions::decode_fixed(r, &participants, false)?;
            let inst = MeetingInstance {
                edge,
                convened_step,
                convened_round,
                terminated_step,
                participants,
                essential,
                left_by,
                committee,
            };
            convened += usize::from(convened_step.is_some());
            encoded_bound += Self::bound_of(&inst);
            instances.push(inst);
        }
        let m = r.count(1)?;
        let mut live = Vec::with_capacity(m);
        for _ in 0..m {
            live.push(match r.u8()? {
                0 => None,
                1 => Some(r.usize()?),
                _ => return None,
            });
        }
        let participations = r.u64_vec()?;
        let last_participation = r.opt_u64_vec()?;
        // The compact footer writes a step as one more than itself.
        if last_participation.contains(&Some(u64::MAX)) {
            return None;
        }
        let mut ledger = Self::assemble(
            committees,
            Vec::new(),
            instances,
            live,
            participations,
            last_participation,
            convened,
            encoded_bound,
        )?;
        ledger.seal(false);
        Some(ledger)
    }
}

/// Every meeting a ledger recorded, in creation order
/// ([`MeetingLedger::instances`]): a view over the sealed segments and the
/// tail. Iteration yields owned records, sealed ones decoded on the fly;
/// indexing returns the tail's record in place, or decodes the sealed
/// segment holding it once, for good — a path only tests and offline
/// readers take, since live meetings and the records a step's events name
/// are never sealed.
#[derive(Clone, Copy)]
pub struct History<'a> {
    ledger: &'a MeetingLedger,
}

impl<'a> History<'a> {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.ledger.covered() + self.ledger.tail.len()
    }

    /// No record yet?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record `idx`, if there is one.
    pub fn get(&self, idx: usize) -> Option<&'a MeetingInstance> {
        self.ledger.record(idx)
    }

    /// The newest record, if any.
    pub fn last(&self) -> Option<&'a MeetingInstance> {
        self.get(self.len().checked_sub(1)?)
    }

    /// Every record, oldest first, owned.
    pub fn iter(&self) -> impl Iterator<Item = MeetingInstance> + 'a {
        let ledger = self.ledger;
        let sealed = ledger.sealed.iter();
        sealed
            .flat_map(move |seg| seg.records(&ledger.committees))
            .chain(ledger.tail.iter().cloned())
    }
}

impl std::ops::Index<usize> for History<'_> {
    type Output = MeetingInstance;
    fn index(&self, idx: usize) -> &MeetingInstance {
        let len = self.len();
        self.get(idx)
            .unwrap_or_else(|| panic!("record {idx} of a history of {len}"))
    }
}

impl PartialEq for History<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for History<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A captured meeting ledger: shared segments for the committee table and
/// the terminated history plus owned clones of the tail and counters.
/// Capture ([`MeetingLedger::snapshot`]) is `O(tail)`;
/// [`LedgerSnapshot::encode`] produces the exact
/// [`MeetingLedger::save_state`] bytes and is meant for off-critical-path
/// assembly.
#[derive(Clone, Debug)]
pub struct LedgerSnapshot {
    committees: usize,
    table: Vec<Arc<Vec<u8>>>,
    total: usize,
    sealed: Vec<Arc<Vec<u8>>>,
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
        wire::put_varint(out, self.committees as u64);
        for seg in &self.table {
            out.extend_from_slice(seg);
        }
        wire::put_varint(out, self.total as u64);
        for seg in &self.sealed {
            out.extend_from_slice(seg);
        }
        for inst in &self.tail {
            MeetingLedger::encode_record(inst, out);
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
        assert_eq!(ledger.instances()[0].discussants().count(), 2);

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
        assert_eq!(m.leavers().collect::<Vec<_>>(), vec![h.dense_of(3)]);
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
    fn relocations_keep_sealed_bytes_unless_entries_merge() {
        // Meet on the *last* pair of a complete graph on four, seal the
        // terminated instance, then remove pair 0 and pair 2: each
        // swap-remove relocation relabels sealed history, which names its
        // committee by table id — the bytes, the segment and `covered`
        // stand, and the snapshot still matches the flat bytes.
        let mut h = Hypergraph::new(&[&[0, 1], &[1, 2], &[2, 3], &[3, 0], &[0, 2], &[1, 3]]);
        let last = EdgeId((h.m() - 1) as u32);
        let idle = vec![Cc1State::idle(); h.n()];
        let mut met = idle.clone();
        for &p in h.members(last) {
            met[p] = s(Status::Waiting, Some(last.0));
        }
        let mut ledger = MeetingLedger::new(&h, &idle);
        ledger.observe(&h, &idle, &met, 3, 1, &[]);
        ledger.observe(&h, &met, &idle, 7, 1, &[]);
        let sealed = ledger.snapshot();
        assert_eq!(sealed.len(), 1);
        let held = ledger.footprint();
        assert_eq!(held.sealed_records, 1);

        for (gone, step) in [(EdgeId(0), 8), (EdgeId(2), 9)] {
            let mutation = sscc_hypergraph::WorldMutation::RemoveCommittee { edge: gone };
            let delta = h.apply_mutation(&mutation).unwrap();
            assert!(delta.moved().is_some());
            ledger.apply_mutation(&h, &idle, &delta, step);
            let snap = ledger.snapshot();
            assert_eq!(ledger.footprint(), held, "nothing unsealed");
            assert!(
                Arc::ptr_eq(&sealed.sealed[0], &snap.sealed[0]),
                "segment kept"
            );
            let (mut from_snap, mut flat) = (Vec::new(), Vec::new());
            snap.encode(&mut from_snap);
            ledger.save_state(&mut flat);
            assert_eq!(from_snap, flat, "post-remap snapshot");
        }
        assert_eq!(
            ledger.instances()[0].edge,
            EdgeId(0),
            "history relabelled through the relocation"
        );

        // The pre-mutation snapshot still decodes to the pre-mutation
        // ledger (shared segments are immutable).
        let mut old = Vec::new();
        sealed.encode(&mut old);
        let twin = MeetingLedger::restore_state(&mut wire::Reader::new(&old)).unwrap();
        assert_eq!(twin.instances()[0].edge, last);
    }

    #[test]
    fn a_merge_reencodes_sealed_history_as_the_reference_writes_it() {
        // On a ring of pairs, committee 0 = {0, 1} meets, is rewired to
        // {0, 2}, and the last committee, rewired to {0, 1}, meets; then
        // removing committee 0 relocates the last one onto its label, so the
        // two table entries (0, {0, 1}) merge. Before and after, with the
        // history sealed, `save_state` writes what the reference ledger,
        // which never seals, writes.
        let mut h = generators::ring(6, 2);
        let last = EdgeId((h.m() - 1) as u32);
        let idle = vec![Cc1State::idle(); h.n()];
        let mut ledger = MeetingLedger::new(&h, &idle);
        let mut reference = OldLedger::new(&h);
        let meet = |h: &Hypergraph, e: EdgeId| {
            let mut met = idle.clone();
            h.members(e)
                .iter()
                .for_each(|&p| met[p] = s(Status::Waiting, Some(e.0)));
            met
        };
        let same_bytes = |ledger: &mut MeetingLedger, reference: &OldLedger, when: &str| {
            let (mut flat, mut written, mut again, mut captured) =
                (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            ledger.save_state(&mut flat);
            reference.save_state(&mut written);
            let read = MeetingLedger::restore_fixed(&mut wire::Reader::new(&written)).unwrap();
            read.save_state(&mut again);
            assert_eq!(flat, again, "{when}");
            ledger.snapshot().encode(&mut captured);
            assert_eq!(flat, captured, "{when}");
            assert_eq!(ledger.fingerprint(), reference.fingerprint(), "{when}");
        };
        let mut step = 0;
        let mut cycle =
            |ledger: &mut MeetingLedger, reference: &mut OldLedger, h: &Hypergraph, e| {
                let touched: Vec<EdgeId> = h.edge_ids().collect();
                for post in [meet(h, e), idle.clone()] {
                    step += 1;
                    ledger.observe_delta(h, &post, step, 0, &[], &touched);
                    reference.observe_delta(h, &post, step, 0, &[]);
                }
                step
            };
        let mutate =
            |ledger: &mut MeetingLedger, reference: &mut OldLedger, h: &mut Hypergraph, m, at| {
                let delta = h.apply_mutation(&m).unwrap();
                ledger.apply_mutation(h, &idle, &delta, at);
                reference.apply_mutation(h, &idle, &delta, at);
                delta
            };
        assert_eq!(h.members(EdgeId(0)), [0, 1]);
        let mut at = 0;
        for _ in 0..2 * SEGMENT {
            at = cycle(&mut ledger, &mut reference, &h, EdgeId(0));
        }
        for (edge, members) in [(EdgeId(0), vec![0, 2]), (last, vec![0, 1])] {
            let rewire = sscc_hypergraph::WorldMutation::Rewire { edge, members };
            mutate(&mut ledger, &mut reference, &mut h, rewire, at);
        }
        for _ in 0..2 * SEGMENT {
            at = cycle(&mut ledger, &mut reference, &h, last);
        }
        same_bytes(&mut ledger, &reference, "before the merge");
        let entries = ledger.committees.entries.len();
        let held = ledger.footprint();
        assert!(held.sealed_records >= 3 * SEGMENT, "{held:?}");

        let remove = sscc_hypergraph::WorldMutation::RemoveCommittee { edge: EdgeId(0) };
        let delta = mutate(&mut ledger, &mut reference, &mut h, remove, at);
        assert_eq!(delta.moved(), Some((last, EdgeId(0))));
        assert_eq!(ledger.committees.entries.len(), entries - 1, "merged");
        assert_eq!(ledger.footprint().sealed_records, held.sealed_records);
        same_bytes(&mut ledger, &reference, "after the merge");
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

    /// The record this module replaced: the same fields as owned
    /// `Vec` / `BTreeSet` / `Vec`.
    struct OldInstance {
        edge: EdgeId,
        convened_step: Option<u64>,
        convened_round: u64,
        terminated_step: Option<u64>,
        participants: Vec<usize>,
        essential: std::collections::BTreeSet<usize>,
        left_by: Vec<usize>,
    }

    /// The PR 13 ledger, reduced to what its `save_state` wrote — the
    /// reference the flat record is compared against, byte for byte. It
    /// walks all of history on every mutation and knows no positions.
    struct OldLedger {
        instances: Vec<OldInstance>,
        live: Vec<Option<usize>>,
        participations: Vec<u64>,
        last_participation: Vec<Option<u64>>,
    }

    impl OldLedger {
        fn new(h: &Hypergraph) -> Self {
            OldLedger {
                instances: Vec::new(),
                live: vec![None; h.m()],
                participations: vec![0; h.n()],
                last_participation: vec![None; h.n()],
            }
        }

        fn open(&mut self, h: &Hypergraph, e: EdgeId, convened_step: Option<u64>, round: u64) {
            self.live[e.index()] = Some(self.instances.len());
            self.instances.push(OldInstance {
                edge: e,
                convened_step,
                convened_round: round,
                terminated_step: None,
                participants: h.members(e).to_vec(),
                essential: Default::default(),
                left_by: Vec::new(),
            });
        }

        fn observe_delta(
            &mut self,
            h: &Hypergraph,
            post: &[Cc1State],
            step: u64,
            round: u64,
            executed: &[(usize, ActionClass, Option<EdgeId>)],
        ) {
            for &(p, class, pointer) in executed {
                let Some(idx) = pointer.and_then(|e| self.live[e.index()]) else {
                    continue;
                };
                match class {
                    ActionClass::Essential => drop(self.instances[idx].essential.insert(p)),
                    ActionClass::Leave => self.instances[idx].left_by.push(p),
                    _ => {}
                }
            }
            for e in h.edge_ids() {
                match (self.live[e.index()], edge_meets(h, post, e)) {
                    (None, true) => {
                        self.open(h, e, Some(step), round);
                        for &q in h.members(e) {
                            self.participations[q] += 1;
                            self.last_participation[q] = Some(step);
                        }
                    }
                    (Some(idx), false) => {
                        self.live[e.index()] = None;
                        self.instances[idx].terminated_step = Some(step);
                    }
                    _ => {}
                }
            }
        }

        fn resync_edge(&mut self, h: &Hypergraph, states: &[Cc1State], e: EdgeId, step: u64) {
            if let Some(idx) = self.live[e.index()].take() {
                self.instances[idx].terminated_step = Some(step);
            }
            if edge_meets(h, states, e) {
                self.open(h, e, None, 0);
            }
        }

        fn apply_mutation(
            &mut self,
            h: &Hypergraph,
            states: &[Cc1State],
            delta: &MutationDelta,
            step: u64,
        ) {
            if let Some(idx) = delta.removed().and_then(|e| self.live[e.index()].take()) {
                self.instances[idx].terminated_step = Some(step);
            }
            delta.remap_per_edge(&mut self.live, || None);
            for inst in &mut self.instances {
                inst.edge = delta.remap_edge(inst.edge).unwrap_or(inst.edge);
            }
            for e in delta.changed_edges() {
                self.resync_edge(h, states, e, step);
            }
        }

        /// [`MeetingLedger::fingerprint`], by its definition.
        fn fingerprint(&self) -> u64 {
            let mut words = vec![self.instances.len() as u64];
            let opt = |words: &mut Vec<u64>, v: Option<u64>| match v {
                None => words.push(0),
                Some(v) => words.extend([1, v]),
            };
            for inst in &self.instances {
                words.push(u64::from(inst.edge.0));
                opt(&mut words, inst.convened_step);
                words.push(inst.convened_round);
                opt(&mut words, inst.terminated_step);
                let essential: Vec<usize> = inst.essential.iter().copied().collect();
                for list in [&inst.participants, &essential, &inst.left_by] {
                    words.push(list.len() as u64);
                    words.extend(list.iter().map(|&x| x as u64));
                }
            }
            words.push(self.live.len() as u64);
            self.live
                .iter()
                .for_each(|s| opt(&mut words, s.map(|i| i as u64)));
            words.push(self.participations.len() as u64);
            words.extend(&self.participations);
            words.push(self.last_participation.len() as u64);
            self.last_participation
                .iter()
                .for_each(|&s| opt(&mut words, s));
            let bytes = words.iter().flat_map(|w| w.to_le_bytes());
            bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        }

        fn save_state(&self, out: &mut Vec<u8>) {
            wire::put_usize(out, self.instances.len());
            for inst in &self.instances {
                inst.edge.encode(out);
                inst.convened_step.encode(out);
                wire::put_u64(out, inst.convened_round);
                inst.terminated_step.encode(out);
                wire::put_usize_slice(out, &inst.participants);
                let essential: Vec<usize> = inst.essential.iter().copied().collect();
                wire::put_usize_slice(out, &essential);
                wire::put_usize_slice(out, &inst.left_by);
            }
            fixed_footer(
                out,
                &self.live,
                &self.participations,
                &self.last_participation,
            );
        }
    }

    /// The footer of the fixed-width layout: live slots as tagged `u64`s,
    /// then the two per-process vectors.
    fn fixed_footer(
        out: &mut Vec<u8>,
        live: &[Option<usize>],
        participations: &[u64],
        last_participation: &[Option<u64>],
    ) {
        wire::put_usize(out, live.len());
        for slot in live {
            slot.map(|idx| idx as u64).encode(out);
        }
        wire::put_u64_slice(out, participations);
        wire::put_opt_u64_slice(out, last_participation);
    }

    /// What format versions 1 and 2 held for `ledger`, written from its flat
    /// records: the layout [`MeetingLedger::restore_fixed`] reads and
    /// nothing outside the tests writes any more.
    fn save_fixed(ledger: &MeetingLedger, out: &mut Vec<u8>) {
        let records = ledger.instances();
        wire::put_usize(out, records.len());
        for inst in records.iter() {
            inst.edge.encode(out);
            inst.convened_step.encode(out);
            wire::put_u64(out, inst.convened_round);
            inst.terminated_step.encode(out);
            wire::put_usize_slice(out, &inst.participants);
            wire::put_usize_slice(out, &inst.discussants().collect::<Vec<_>>());
            wire::put_usize_slice(out, &inst.leavers().collect::<Vec<_>>());
        }
        let (live, counts, last) = (
            &ledger.live,
            &ledger.participations,
            &ledger.last_participation,
        );
        fixed_footer(out, live, counts, last);
    }

    /// A bare ledger and the reference under one random history: convene,
    /// essential, leave (members leave in a shuffled order half the time),
    /// strike, and mutations that change memberships and relocate ids, on
    /// a graph with committees of 2, 64 (the last inline size), 65 and 70.
    /// With segments of 8 records, 160 operations cross several segment
    /// boundaries: sealing must not show in anything the ledger reads back
    /// or writes.
    struct Rig {
        h: Hypergraph,
        states: Vec<Cc1State>,
        ledger: MeetingLedger,
        old: OldLedger,
        step: u64,
        rng: rand::rngs::StdRng,
        /// Corners reached: three segment boundaries crossed, a live
        /// meeting left behind a boundary, a relocation over sealed
        /// history. (A merge over it has a test of its own.)
        seen: [bool; 3],
    }

    impl Rig {
        fn new(seed: u64) -> Self {
            use rand::SeedableRng as _;
            let mut committees: Vec<Vec<u32>> = (0..80).map(|i| vec![i, (i + 1) % 80]).collect();
            committees.extend([(0..64).collect(), (8..73).collect(), (5..75).collect()]);
            let refs: Vec<&[u32]> = committees.iter().map(|c| &c[..]).collect();
            let h = Hypergraph::new(&refs);
            let states = vec![Cc1State::idle(); h.n()];
            Rig {
                ledger: MeetingLedger::new(&h, &states),
                old: OldLedger::new(&h),
                h,
                states,
                step: 0,
                rng: rand::rngs::StdRng::seed_from_u64(seed),
                seen: [false; 3],
            }
        }

        /// A random non-empty selection of `e`'s members, ascending.
        fn some_members(&mut self, e: EdgeId) -> Vec<usize> {
            use rand::Rng as _;
            let members = self.h.members(e).to_vec();
            let keep = self.rng.random_range(1..=4u32);
            let mut picked: Vec<usize> = members
                .iter()
                .copied()
                .filter(|_| self.rng.random_range(0..4u32) < keep)
                .collect();
            if picked.is_empty() {
                picked.push(members[self.rng.random_range(0..members.len())]);
            }
            picked
        }

        fn observe(&mut self, executed: &[(usize, ActionClass, Option<EdgeId>)]) {
            self.step += 1;
            let (step, round) = (self.step, self.step / 7);
            let touched: Vec<EdgeId> = self.h.edge_ids().collect();
            self.ledger
                .observe_delta(&self.h, &self.states, step, round, executed, &touched);
            self.old
                .observe_delta(&self.h, &self.states, step, round, executed);
        }

        fn op(&mut self) {
            use rand::seq::SliceRandom as _;
            use rand::Rng as _;
            let any = EdgeId(self.rng.random_range(0..self.h.m()) as u32);
            let live = self.ledger.live_edges();
            let busy = live
                .get(self.rng.random_range(0..live.len().max(1)))
                .copied();
            match (self.rng.random_range(0..10u32), busy) {
                (0..=3, _) | (_, None) => {
                    // Big committees get their turn: every fourth convene is
                    // one of the last three.
                    let e = match self.rng.random_range(0..4u32) {
                        0 => EdgeId((self.h.m() - 1 - self.rng.random_range(0..3usize)) as u32),
                        _ => any,
                    };
                    for &q in self.h.members(e) {
                        self.states[q] = s(Status::Waiting, Some(e.0));
                    }
                    self.observe(&[]);
                }
                (4..=5, Some(e)) => {
                    let who = self.some_members(e);
                    let mut executed = Vec::new();
                    for q in who {
                        if self.states[q].s == Status::Waiting {
                            self.states[q].s = Status::Done;
                            executed.push((q, ActionClass::Essential, Some(e)));
                        }
                    }
                    executed.shuffle(&mut self.rng);
                    self.observe(&executed);
                }
                (6..=7, Some(e)) => {
                    let mut who = self.some_members(e);
                    if self.rng.random() {
                        who.shuffle(&mut self.rng);
                    }
                    let executed: Vec<_> = who
                        .iter()
                        .map(|&q| (q, ActionClass::Leave, Some(e)))
                        .collect();
                    for q in who {
                        self.states[q] = Cc1State::idle();
                    }
                    self.observe(&executed);
                }
                (8, Some(e)) => {
                    // A strike: some members forget the meeting, every
                    // committee of theirs is re-synced silently.
                    let struck = self.some_members(e);
                    let mut edges: Vec<EdgeId> = Vec::new();
                    for &q in &struck {
                        self.states[q] = Cc1State::idle();
                        edges.extend(self.h.incident(q));
                    }
                    edges.sort_unstable();
                    edges.dedup();
                    for e in edges {
                        self.ledger.resync_edge(&self.h, &self.states, e, self.step);
                        self.old.resync_edge(&self.h, &self.states, e, self.step);
                    }
                }
                _ => {
                    // Half the removals hit a low id, so the last committee
                    // relocates and history is relabelled.
                    let mutation = match self.rng.random_range(0..4u32) {
                        0 => sscc_hypergraph::WorldMutation::RemoveCommittee { edge: any },
                        _ => sscc_hypergraph::random_mutation(&self.h, &mut self.rng),
                    };
                    let Ok(delta) = self.h.apply_mutation(&mutation) else {
                        return;
                    };
                    for (q, state) in self.states.iter_mut().enumerate() {
                        let kept = state.p.and_then(|e| delta.remap_edge(e));
                        *state = match kept {
                            Some(e) if self.h.is_member(q, e) => s(state.s, Some(e.0)),
                            _ => Cc1State::idle(),
                        };
                    }
                    let sealed = self.ledger.footprint().sealed_records > 0;
                    self.ledger
                        .apply_mutation(&self.h, &self.states, &delta, self.step);
                    self.old
                        .apply_mutation(&self.h, &self.states, &delta, self.step);
                    self.seen[2] |= sealed && delta.moved().is_some();
                }
            }
        }

        /// `save_state`, checked against `snapshot().encode` (when asked:
        /// a capture advances the seal), against the bound, and through
        /// the fixed-width layout: the flat records write the reference's
        /// bytes in it, and those decode to the ledger that wrote `flat`.
        fn bytes(&mut self, capture: bool) -> Vec<u8> {
            let (mut flat, mut captured) = (Vec::new(), Vec::new());
            self.ledger.save_state(&mut flat);
            let hint = self.ledger.encoded_size_hint();
            assert!(flat.len() <= hint, "step {}: hint under", self.step);
            if capture {
                self.ledger.snapshot().encode(&mut captured);
                assert!(flat == captured, "step {}: snapshot moved", self.step);
            }
            let (fixed, mut reference, mut again) = (self.fixed(), Vec::new(), Vec::new());
            self.old.save_state(&mut reference);
            assert!(fixed == reference, "step {}: the records moved", self.step);
            let read = MeetingLedger::restore_fixed(&mut wire::Reader::new(&fixed)).unwrap();
            read.save_state(&mut again);
            assert!(again == flat, "step {}: the layouts disagree", self.step);
            let twin = MeetingLedger::restore_state(&mut wire::Reader::new(&flat)).unwrap();
            again.clear();
            twin.save_state(&mut again);
            assert!(again == flat, "step {}: restore → save moved", self.step);
            self.matches_reference();
            flat
        }

        /// What the ledger reads back — by iteration and by index, the live
        /// instances, the convene count and the fingerprint — is what the
        /// reference, which never seals, recorded.
        fn matches_reference(&mut self) {
            let same = |a: &MeetingInstance, b: &OldInstance| {
                a.edge == b.edge
                    && a.convened_step == b.convened_step
                    && a.convened_round == b.convened_round
                    && a.terminated_step == b.terminated_step
                    && a.participants[..] == b.participants[..]
                    && a.discussants().eq(b.essential.iter().copied())
                    && a.leavers().eq(b.left_by.iter().copied())
            };
            let (records, old) = (self.ledger.instances(), &self.old.instances);
            let step = self.step;
            assert_eq!(records.len(), old.len(), "step {step}");
            assert!(
                records.iter().zip(old).all(|(a, b)| same(&a, b)),
                "step {step}: iterated"
            );
            assert!(
                (0..old.len()).all(|i| same(&records[i], &old[i])),
                "step {step}: indexed"
            );
            for (ei, slot) in self.old.live.iter().enumerate() {
                let live = self.ledger.live_instance(EdgeId(ei as u32));
                let agree = match (live, slot) {
                    (None, None) => true,
                    (Some(a), Some(i)) => same(a, &old[*i]),
                    _ => false,
                };
                assert!(agree, "step {step}: live instance of {ei}");
            }
            let convened = old.iter().filter(|i| i.convened_step.is_some()).count();
            assert_eq!(self.ledger.convened_count(), convened, "step {step}");
            assert_eq!(
                self.ledger.fingerprint(),
                self.old.fingerprint(),
                "step {step}"
            );
            let tail = &self.ledger.tail;
            let behind = tail
                .iter()
                .position(MeetingInstance::live)
                .map(|first| tail[first..].iter().filter(|i| !i.live()).count());
            self.seen[0] |= self.ledger.footprint().sealed_records >= 3 * SEGMENT;
            self.seen[1] |= behind.is_some_and(|ended| ended >= SEGMENT);
        }

        fn fixed(&self) -> Vec<u8> {
            let mut out = Vec::new();
            save_fixed(&self.ledger, &mut out);
            out
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        #[test]
        fn flat_records_write_the_bytes_the_owned_records_wrote(seed in 0u64..u64::MAX) {
            let mut rig = Rig::new(seed);
            for i in 0..160 {
                rig.op();
                rig.bytes(seed.wrapping_add(i) % 3 == 0);
            }
            let blob = rig.bytes(true);
            let twin = MeetingLedger::restore_state(&mut wire::Reader::new(&blob)).unwrap();
            let mut again = Vec::new();
            twin.save_state(&mut again);
            proptest::prop_assert!(again == blob, "restore → save is the identity");
            proptest::prop_assert_eq!(twin.instances(), rig.ledger.instances());
            let convened = rig.ledger.post_initial_instances().count();
            proptest::prop_assert_eq!(rig.ledger.convened_count(), convened);
            proptest::prop_assert_eq!(twin.convened_count(), convened);
            proptest::prop_assert_eq!(twin.encoded_size_hint(), rig.ledger.encoded_size_hint());
            proptest::prop_assert_eq!(twin.fingerprint(), rig.ledger.fingerprint());
        }
    }

    #[test]
    fn the_rig_reaches_every_sealing_corner() {
        let mut seen = [false; 3];
        for seed in 0..8 {
            let mut rig = Rig::new(seed);
            for _ in 0..160 {
                rig.op();
                rig.bytes(false);
            }
            seen.iter_mut()
                .zip(rig.seen)
                .for_each(|(all, one)| *all |= one);
        }
        assert_eq!(
            seen, [true; 3],
            "(3 boundaries, a live meeting behind one, a relocation over sealed history)"
        );
    }

    #[test]
    fn big_committee_history_fails_closed() {
        // Seed chosen for a history with spilled records on both fields.
        let mut rig = Rig::new(0);
        (0..160).for_each(|_| rig.op());
        let spilled = |p: &Positions| matches!(p.0, Order::Listed(_));
        let instances = rig.ledger.instances();
        assert!(instances.iter().any(|i| i.participants.len() > 64));
        assert!(instances.iter().any(|i| spilled(&i.essential)));
        assert!(instances.iter().any(|i| spilled(&i.left_by)));
        wire::fails_closed(None, &rig.bytes(true), |b| {
            MeetingLedger::restore_state(&mut wire::Reader::new(b)).is_some()
        });
        wire::fails_closed(None, &rig.fixed(), |b| {
            MeetingLedger::restore_fixed(&mut wire::Reader::new(b)).is_some()
        });
    }

    #[test]
    fn restore_rejects_discussants_and_leavers_the_meeting_never_had() {
        // One terminated meeting of fig2's {3, 4} and the footer of an
        // otherwise empty ledger, with `essential` / `left_by` as given.
        let h = generators::fig2();
        let (p3, p4) = (h.dense_of(3), h.dense_of(4));
        let outsider = h.dense_of(1);
        let blob = |essential: &[usize], left_by: &[usize]| {
            let mut out = Vec::new();
            wire::put_usize(&mut out, 1);
            EdgeId(2).encode(&mut out);
            Some(5u64).encode(&mut out);
            wire::put_u64(&mut out, 1);
            Some(9u64).encode(&mut out);
            wire::put_usize_slice(&mut out, &[p3, p4]);
            wire::put_usize_slice(&mut out, essential);
            wire::put_usize_slice(&mut out, left_by);
            fixed_footer(&mut out, &vec![None; h.m()], &[0; 5], &[None; 5]);
            out
        };
        let accepts = |essential: &[usize], left_by: &[usize]| {
            let bytes = blob(essential, left_by);
            MeetingLedger::restore_fixed(&mut wire::Reader::new(&bytes)).is_some()
        };
        assert!(accepts(&[p3, p4], &[p4, p3]), "leavers come in any order");
        assert!(!accepts(&[p3, outsider], &[p3]), "a discussant outside");
        assert!(!accepts(&[p3, p3], &[p3]), "a discussant twice");
        assert!(!accepts(&[p4, p3], &[p3]), "discussants out of set order");
        assert!(!accepts(&[p3, p4], &[outsider]), "a leaver outside");
        assert!(!accepts(&[p3, p4], &[p4, p4]), "a leaver twice");
    }

    #[test]
    fn mutation_without_a_relocation_leaves_history_and_seal_alone() {
        // Removing the *last* committee moves no id: the sealed prefix
        // survives (same shared segment), and the bytes still match.
        let mut h = generators::ring(6, 2);
        let idle = vec![Cc1State::idle(); h.n()];
        let mut met = idle.clone();
        for &p in h.members(EdgeId(0)) {
            met[p] = s(Status::Waiting, Some(0));
        }
        let mut ledger = MeetingLedger::new(&h, &idle);
        ledger.observe(&h, &idle, &met, 3, 1, &[]);
        ledger.observe(&h, &met, &idle, 7, 1, &[]);
        let before = ledger.snapshot();
        let last = EdgeId((h.m() - 1) as u32);
        let mutation = sscc_hypergraph::WorldMutation::RemoveCommittee { edge: last };
        let delta = h.apply_mutation(&mutation).unwrap();
        assert!(delta.moved().is_none());
        ledger.apply_mutation(&h, &idle, &delta, 8);
        let after = ledger.snapshot();
        assert!(
            Arc::ptr_eq(&before.sealed[0], &after.sealed[0]),
            "seal kept"
        );
        let (mut captured, mut flat) = (Vec::new(), Vec::new());
        after.encode(&mut captured);
        ledger.save_state(&mut flat);
        assert_eq!(captured, flat);
    }
}
