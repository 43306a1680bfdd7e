//! Structure-aware fuzz of the history decoder (`MeetingLedger::restore_state`).
//!
//! A seeded generator drives bare ledgers through valid histories that
//! cover every corner of the record layout: committees of more than 64
//! members (the spilled position lists), members leaving out of order,
//! pre-initial and still-live meetings, labels of dissolved committees at
//! or beyond `|E|`, and membership changes mid-history. Each ledger's bytes
//! are then taken apart field by field — by a walker written from the
//! layout as documented, not from the decoder — and mutated one field at a
//! time: a varint written overlong, a table index past the table, a
//! position bit at or beyond the member count, a termination that wraps
//! before its convene, a live slot naming a terminated or another
//! committee's meeting, a duplicated table entry, and plain value changes
//! of every field. The contract is canonical form: every mutant is either
//! refused, or decodes to a ledger that re-encodes to the mutant byte for
//! byte — and the named corruptions are refused.

use rand::rngs::StdRng;
use rand::seq::SliceRandom as _;
use rand::{Rng as _, SeedableRng as _};
use sscc_core::cc1::Cc1State;
use sscc_core::meetings::SEGMENT;
use sscc_core::{ActionClass, MeetingLedger, Status};
use sscc_hypergraph::{random_mutation, EdgeId, Hypergraph, WorldMutation};
use sscc_runtime::wire::{self, Reader};
use std::ops::Range;

fn state(s: Status, e: EdgeId) -> Cc1State {
    Cc1State {
        s,
        p: Some(e),
        t: false,
    }
}

/// A bare ledger under one random valid history.
struct History {
    h: Hypergraph,
    states: Vec<Cc1State>,
    ledger: MeetingLedger,
    step: u64,
    rng: StdRng,
}

impl History {
    /// 80 processes on a ring of pairs plus committees of 64, 65 and 70;
    /// three pairs already meet at boot (pre-initial meetings).
    fn new(seed: u64) -> Self {
        let mut committees: Vec<Vec<u32>> = (0..80).map(|i| vec![i, (i + 1) % 80]).collect();
        committees.extend([(0..64).collect(), (8..73).collect(), (5..75).collect()]);
        let refs: Vec<&[u32]> = committees.iter().map(|c| &c[..]).collect();
        let h = Hypergraph::new(&refs);
        let mut states = vec![Cc1State::idle(); h.n()];
        for e in [EdgeId(0), EdgeId(10), EdgeId(20)] {
            for &q in h.members(e) {
                states[q] = state(Status::Waiting, e);
            }
        }
        History {
            ledger: MeetingLedger::new(&h, &states),
            h,
            states,
            step: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn observe(&mut self, executed: &[(usize, ActionClass, Option<EdgeId>)]) {
        self.step += 1;
        let (step, round) = (self.step, self.step / 5);
        let touched: Vec<EdgeId> = self.h.edge_ids().collect();
        self.ledger
            .observe_delta(&self.h, &self.states, step, round, executed, &touched);
    }

    /// Some of `e`'s members, at least one, ascending.
    fn some_members(&mut self, e: EdgeId) -> Vec<usize> {
        let members = self.h.members(e).to_vec();
        let mut picked: Vec<usize> = members
            .iter()
            .copied()
            .filter(|_| self.rng.random_range(0..3u32) > 0)
            .collect();
        if picked.is_empty() {
            picked.push(members[self.rng.random_range(0..members.len())]);
        }
        picked
    }

    fn op(&mut self) {
        let any = EdgeId(self.rng.random_range(0..self.h.m()) as u32);
        let live = self.ledger.live_edges();
        let busy = live
            .get(self.rng.random_range(0..live.len().max(1)))
            .copied();
        match (self.rng.random_range(0..12u32), busy) {
            (0..=3, _) | (_, None) => {
                // Every third convene is one of the big committees.
                let e = match self.rng.random_range(0..3u32) {
                    0 => EdgeId((self.h.m() - 1 - self.rng.random_range(0..3usize)) as u32),
                    _ => any,
                };
                for &q in self.h.members(e) {
                    self.states[q] = state(Status::Waiting, e);
                }
                self.observe(&[]);
            }
            (4..=5, Some(e)) => {
                let mut executed = Vec::new();
                for q in self.some_members(e) {
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
                // A strike: members forget the meeting, their committees
                // are re-synced silently.
                let mut edges = Vec::new();
                for q in self.some_members(e) {
                    self.states[q] = Cc1State::idle();
                    edges.extend(self.h.incident(q));
                }
                edges.sort_unstable();
                edges.dedup();
                for e in edges {
                    self.ledger.resync_edge(&self.h, &self.states, e, self.step);
                }
            }
            _ => {
                // Removing the last committee leaves its label at |E|;
                // removing another relocates the last one; the rest change
                // memberships.
                let last = EdgeId((self.h.m() - 1) as u32);
                let mutation = match self.rng.random_range(0..4u32) {
                    0 => WorldMutation::RemoveCommittee { edge: last },
                    1 => WorldMutation::RemoveCommittee { edge: any },
                    _ => random_mutation(&self.h, &mut self.rng),
                };
                let Ok(delta) = self.h.apply_mutation(&mutation) else {
                    return;
                };
                for (q, s) in self.states.iter_mut().enumerate() {
                    *s = match s.p.and_then(|e| delta.remap_edge(e)) {
                        Some(e) if self.h.is_member(q, e) => state(s.s, e),
                        _ => Cc1State::idle(),
                    };
                }
                self.ledger
                    .apply_mutation(&self.h, &self.states, &delta, self.step);
            }
        }
    }
}

/// The kinds of field in a version-3 ledger blob.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    TableCount,
    Label,
    MemberCount,
    Member,
    RecordCount,
    Committee,
    Flags,
    Convened,
    Round,
    Ended,
    Word,
    PosCount,
    Pos,
    SlotCount,
    Slot,
    ProcessCount,
    Participations,
    Last,
}

#[derive(Clone, Debug)]
struct Field {
    kind: Kind,
    at: Range<usize>,
    value: u64,
}

const CONVENED: u64 = 1;
const TERMINATED: u64 = 2;
const ESSENTIAL_LISTED: u64 = 4;
const LEFT_LISTED: u64 = 8;

/// A record as the walker saw it.
struct Record {
    committee: usize,
    terminated: bool,
    /// The field index of its `ended` varint and its convene step.
    ended: Option<(usize, u64)>,
    /// The field index of each position word.
    words: Vec<usize>,
}

/// The blob taken apart by the documented layout: committee table (count;
/// per entry label, member count, first member and gaps less one),
/// records (committee index, flags, convened?, round, ended?, two
/// position fields), footer (slot count and slots, process count,
/// participations, last participations).
struct Walk {
    fields: Vec<Field>,
    /// Per table entry: its label, its member count and the byte range.
    entries: Vec<(u64, u64, Range<usize>)>,
    records: Vec<Record>,
    /// Field index of the table count, and of each slot.
    table_count: usize,
    slots: Vec<usize>,
}

fn walk(bytes: &[u8]) -> Walk {
    let mut r = Reader::new(bytes);
    let mut fields = Vec::new();
    let mut next = |r: &mut Reader, kind: Kind| -> (usize, u64) {
        let start = bytes.len() - r.remaining();
        let value = if kind == Kind::Flags {
            u64::from(r.u8().unwrap())
        } else {
            r.varint().unwrap()
        };
        let end = bytes.len() - r.remaining();
        fields.push(Field {
            kind,
            at: start..end,
            value,
        });
        (fields.len() - 1, value)
    };
    let (table_count, entries_n) = next(&mut r, Kind::TableCount);
    let mut entries = Vec::new();
    for _ in 0..entries_n {
        let start = bytes.len() - r.remaining();
        let (_, label) = next(&mut r, Kind::Label);
        let (_, k) = next(&mut r, Kind::MemberCount);
        for _ in 0..k {
            next(&mut r, Kind::Member);
        }
        entries.push((label, k, start..bytes.len() - r.remaining()));
    }
    let (_, count) = next(&mut r, Kind::RecordCount);
    let mut records = Vec::new();
    for _ in 0..count {
        let (_, committee) = next(&mut r, Kind::Committee);
        let (_, flags) = next(&mut r, Kind::Flags);
        let convened = if flags & CONVENED != 0 {
            next(&mut r, Kind::Convened).1
        } else {
            0
        };
        next(&mut r, Kind::Round);
        let ended = (flags & TERMINATED != 0).then(|| (next(&mut r, Kind::Ended).0, convened));
        let mut words = Vec::new();
        for listed in [flags & ESSENTIAL_LISTED != 0, flags & LEFT_LISTED != 0] {
            if listed {
                let (_, n) = next(&mut r, Kind::PosCount);
                for _ in 0..n {
                    next(&mut r, Kind::Pos);
                }
            } else {
                words.push(next(&mut r, Kind::Word).0);
            }
        }
        records.push(Record {
            committee: committee as usize,
            terminated: flags & TERMINATED != 0,
            ended,
            words,
        });
    }
    let (_, m) = next(&mut r, Kind::SlotCount);
    let slots = (0..m).map(|_| next(&mut r, Kind::Slot).0).collect();
    let (_, n) = next(&mut r, Kind::ProcessCount);
    for _ in 0..n {
        next(&mut r, Kind::Participations);
    }
    for _ in 0..n {
        next(&mut r, Kind::Last);
    }
    assert!(r.is_empty(), "the walk covers the blob");
    Walk {
        fields,
        entries,
        records,
        table_count,
        slots,
    }
}

fn varint(v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    wire::put_varint(&mut out, v);
    out
}

/// `bytes` with `at` replaced by `with`.
fn splice(bytes: &[u8], at: &Range<usize>, with: &[u8]) -> Vec<u8> {
    [&bytes[..at.start], with, &bytes[at.end..]].concat()
}

/// `bytes` with field `f` holding `v` (a flags byte stays one byte).
fn set(bytes: &[u8], f: &Field, v: u64) -> Vec<u8> {
    if f.kind == Kind::Flags {
        splice(bytes, &f.at, &[v as u8])
    } else {
        splice(bytes, &f.at, &varint(v))
    }
}

fn decode(bytes: &[u8]) -> Option<MeetingLedger> {
    let mut r = Reader::new(bytes);
    MeetingLedger::restore_state(&mut r).filter(|_| r.is_empty())
}

/// The canonical-form contract: refused, or re-encoded byte for byte.
fn canonical(mutant: &[u8], what: &str) -> bool {
    let Some(ledger) = decode(mutant) else {
        return false;
    };
    let mut again = Vec::new();
    ledger.save_state(&mut again);
    assert!(
        again == mutant,
        "{what}: accepted, but re-encodes differently"
    );
    true
}

fn refused(mutant: &[u8], what: &str) {
    assert!(!canonical(mutant, what), "{what} was accepted");
}

/// Every named corruption of one blob is refused; every field changed to
/// nearby and far values keeps the canonical form.
fn mutate(bytes: &[u8], rng: &mut StdRng) {
    let w = walk(bytes);
    // An overlong varint, anywhere: the value is the same, the bytes not.
    for f in w.fields.iter().filter(|f| f.kind != Kind::Flags) {
        let mut long = bytes[f.at.clone()].to_vec();
        *long.last_mut().unwrap() |= 0x80;
        long.push(0);
        refused(
            &splice(bytes, &f.at, &long),
            &format!("overlong {:?}", f.kind),
        );
    }
    // A table index past the table.
    let entries = w.entries.len() as u64;
    for (i, f) in w
        .fields
        .iter()
        .enumerate()
        .filter(|(_, f)| f.kind == Kind::Committee)
    {
        for v in [entries, entries + 1, u64::from(u32::MAX) + 1] {
            refused(
                &set(bytes, f, v),
                &format!("field {i}: committee {v} of {entries}"),
            );
        }
    }
    for rec in &w.records {
        let k = w.entries[rec.committee].1;
        // A position bit at or beyond the member count.
        for &word in rec.words.iter().filter(|_| k < 64) {
            let f = &w.fields[word];
            refused(
                &set(bytes, f, f.value | 1 << k),
                "a position bit past the members",
            );
        }
        // A termination that wraps to before its convene.
        if let Some((ended, convened)) = rec.ended.filter(|&(_, c)| c > 0) {
            let f = &w.fields[ended];
            refused(
                &set(bytes, f, u64::MAX - convened + 1),
                "termination before convene",
            );
        }
    }
    // A live slot naming a terminated meeting, or another committee's.
    for (ei, &slot) in w.slots.iter().enumerate() {
        let ended = w
            .records
            .iter()
            .enumerate()
            .filter(|(_, rec)| rec.terminated);
        let foreign = (w.records.iter().enumerate())
            .filter(|(_, rec)| !rec.terminated && w.entries[rec.committee].0 != ei as u64);
        for (idx, _) in ended.take(3).chain(foreign.take(3)) {
            let what = format!("slot {ei} naming record {idx}");
            refused(&set(bytes, &w.fields[slot], idx as u64 + 1), &what);
        }
    }
    // A duplicate table entry: one appended after the last (its own index
    // would be unused too), and one overwriting its successor.
    if let Some((_, _, last)) = w.entries.last() {
        let count = &w.fields[w.table_count];
        let grown = splice(bytes, &(last.end..last.end), &bytes[last.clone()]);
        refused(
            &set(&grown, count, count.value + 1),
            "an entry twice, at the end",
        );
    }
    for pair in w.entries.windows(2) {
        let (a, b) = (&pair[0].2, &pair[1].2);
        refused(
            &splice(bytes, b, &bytes[a.clone()]),
            "an entry twice, in place",
        );
    }
    // Every field to nearby and far values, and every flag bit.
    for f in &w.fields {
        let far = [
            0,
            1,
            f.value.wrapping_sub(1),
            f.value.wrapping_add(1),
            u64::MAX,
            rng.random(),
        ];
        for v in far.into_iter().filter(|&v| v != f.value) {
            if f.kind != Kind::Flags || v < 256 {
                canonical(&set(bytes, f, v), &format!("{:?} = {v}", f.kind));
            }
        }
        if f.kind == Kind::Flags {
            for bit in 0..8 {
                canonical(
                    &set(bytes, f, f.value ^ 1 << bit),
                    &format!("flag bit {bit}"),
                );
            }
        }
    }
}

#[test]
fn every_field_mutant_is_refused_or_canonical() {
    let mut seen = [false; 6];
    let mut rng = StdRng::seed_from_u64(27);
    for seed in 0..16 {
        let mut history = History::new(seed);
        for _ in 0..120 {
            history.op();
        }
        let ledger = &history.ledger;
        let mut bytes = Vec::new();
        ledger.save_state(&mut bytes);
        let twin = decode(&bytes).expect("a valid ledger decodes");
        assert_eq!(twin.instances(), ledger.instances(), "seed {seed}");
        assert_eq!(twin.fingerprint(), ledger.fingerprint(), "seed {seed}");
        assert!(canonical(&bytes, "the unmutated blob"));

        let m = history.h.m();
        let records = ledger.instances();
        let leaver_order = |i: &sscc_core::MeetingInstance| {
            let l: Vec<usize> = i.leavers().collect();
            !l.is_sorted()
        };
        let relabelled = records.iter().any(|a| {
            (records.iter()).any(|b| a.edge == b.edge && a.participants != b.participants)
        });
        for (hit, covered) in seen.iter_mut().zip([
            records.iter().any(|i| i.participants.len() > 64),
            records.iter().any(|i| leaver_order(&i)),
            records.iter().any(|i| !i.post_initial()),
            records.iter().any(|i| i.live()),
            records.iter().any(|i| i.edge.index() >= m),
            relabelled,
        ]) {
            *hit |= covered;
        }
        mutate(&bytes, &mut rng);
    }
    assert_eq!(
        seen, [true; 6],
        "(> 64 members, leavers out of order, pre-initial, live, label ≥ |E|, membership change)"
    );
}

#[test]
fn corruptions_past_a_segment_boundary_are_refused() {
    // A history long enough that a restore adopts whole segments, and the
    // named corruptions in records it adopts as bytes rather than structs.
    let mut history = History::new(30);
    while history.ledger.instances().len() < 2 * SEGMENT {
        history.op();
    }
    let mut bytes = Vec::new();
    history.ledger.save_state(&mut bytes);
    let adopted = decode(&bytes).expect("a valid ledger decodes");
    let sealed = adopted.footprint().sealed_records;
    assert!(sealed > SEGMENT, "{:?}", adopted.footprint());
    assert!(canonical(&bytes, "the unmutated blob"));

    let w = walk(&bytes);
    // The fields of the first and the last records the restore adopted
    // past the first segment boundary, with the record each belongs to —
    // and, for any record there that names a table entry first, the entry
    // after it named out of order.
    let sampled =
        |r: usize| (SEGMENT..SEGMENT + 16).contains(&r) || (sealed - 16..sealed).contains(&r);
    let in_record = |k: Kind| {
        use Kind::*;
        matches!(
            k,
            Committee | Flags | Convened | Round | Ended | Word | PosCount | Pos
        )
    };
    let mut record = 0;
    let mut named = 0;
    let mut out_of_order = 0;
    let mut fields = Vec::new();
    for (i, f) in w.fields.iter().enumerate() {
        if f.kind == Kind::Committee {
            let first_use = f.value == named && f.value + 1 < w.entries.len() as u64;
            if (SEGMENT..sealed).contains(&record) && first_use {
                let what = format!("record {record} naming entry {} first", f.value + 1);
                refused(&set(&bytes, f, f.value + 1), &what);
                out_of_order += 1;
            }
            named += u64::from(f.value == named);
            record += 1;
        }
        if in_record(f.kind) && sampled(record - 1) {
            fields.push((record - 1, i));
        }
    }
    let adopted_records = &w.records[SEGMENT..sealed];
    assert!(adopted_records.iter().all(|r| r.terminated));
    let mut hits = [0usize; 4];
    for &(rec, i) in &fields {
        let f = &w.fields[i];
        match f.kind {
            Kind::Flags => {
                for bit in 4..8 {
                    refused(&set(&bytes, f, f.value | 1 << bit), "an unknown flag");
                }
                hits[0] += 1;
            }
            Kind::Word if w.entries[w.records[rec].committee].1 < 64 => {
                let k = w.entries[w.records[rec].committee].1;
                refused(
                    &set(&bytes, f, f.value | 1 << k),
                    "a position bit past the members",
                );
                hits[1] += 1;
            }
            Kind::Ended => {
                let convened = w.records[rec].ended.expect("terminated").1;
                if convened > 0 {
                    refused(
                        &set(&bytes, f, u64::MAX - convened + 1),
                        "termination before convene",
                    );
                    hits[2] += 1;
                }
            }
            _ => {}
        }
        if f.kind != Kind::Flags {
            let mut long = bytes[f.at.clone()].to_vec();
            *long.last_mut().unwrap() |= 0x80;
            long.push(0);
            refused(
                &splice(&bytes, &f.at, &long),
                &format!("overlong {:?}", f.kind),
            );
            hits[3] += 1;
        }
    }
    assert!(out_of_order > 0, "a first use past the boundary");
    assert!(hits.iter().all(|&n| n > 0), "{hits:?}");
}
