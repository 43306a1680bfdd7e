//! Structured execution traces.
//!
//! A trace is a flat list of `(step, round, process, action)` events; the
//! specification monitors in `sscc-core` consume traces together with
//! configuration snapshots to reconstruct meeting lifecycles. Traces are
//! optional (hot benchmark loops skip them).

use crate::algorithm::{ActionId, GuardedAlgorithm};
use crate::seal::SealCache;
use crate::wire;
use std::sync::Arc;

/// One action execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Step index (0-based) at which the action fired.
    pub step: u64,
    /// Completed rounds at the time of firing.
    pub round: u64,
    /// Dense index of the process that moved.
    pub process: usize,
    /// Which action it executed.
    pub action: ActionId,
}

/// An append-only event log.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    /// Online-snapshot support: recorded events are immutable, so their
    /// wire encoding is sealed once and shared with every snapshot.
    seal: SealCache,
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append the executions of one step.
    pub fn record(&mut self, step: u64, round: u64, executed: &[(usize, ActionId)]) {
        self.events
            .extend(executed.iter().map(|&(process, action)| TraceEvent {
                step,
                round,
                process,
                action,
            }));
    }

    /// All events, in execution order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Rebuild a trace from a previously captured event list (persistence
    /// seam: checkpoint restore re-creates the log up to the cut).
    pub fn from_events(events: Vec<TraceEvent>) -> Self {
        Trace {
            events,
            seal: SealCache::new(),
        }
    }

    /// Wire encoding of one event — the unit both [`Trace::snapshot`] and
    /// flat serializers must agree on.
    pub fn encode_event(e: &TraceEvent, out: &mut Vec<u8>) {
        wire::put_u64(out, e.step);
        wire::put_u64(out, e.round);
        wire::put_usize(out, e.process);
        wire::put_usize(out, e.action);
    }

    /// Serialize the full log flat: count, then every event.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        wire::put_usize(out, self.events.len());
        for e in &self.events {
            Self::encode_event(e, out);
        }
    }

    /// Decode a log written by [`Trace::save_state`].
    pub fn restore_state(r: &mut wire::Reader) -> Option<Self> {
        let count = r.count(32)?;
        let mut events = Vec::with_capacity(count);
        for _ in 0..count {
            events.push(TraceEvent {
                step: r.u64()?,
                round: r.u64()?,
                process: r.usize()?,
                action: r.usize()?,
            });
        }
        Some(Self::from_events(events))
    }

    /// Capture an **online snapshot** of the log: every recorded event is
    /// immutable, so all of them are sealed into shared segments —
    /// amortized `O(new events since the last capture)`, not
    /// `O(history)` — and the snapshot just references the segments.
    pub fn snapshot(&mut self) -> TraceSnapshot {
        let upto = self.events.len();
        let covered = self.seal.covered();
        let events = &self.events;
        // 32 bytes an event, exactly.
        self.seal.extend_to(upto, 32 * (upto - covered), |buf| {
            for e in &events[covered..upto] {
                Self::encode_event(e, buf);
            }
        });
        TraceSnapshot {
            total: upto,
            segments: self.seal.segments().to_vec(),
        }
    }

    /// Events fired by `process`.
    pub fn of_process(&self, process: usize) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.events.iter().filter(move |e| e.process == process)
    }

    /// How many times `process` executed `action`.
    pub fn count(&self, process: usize, action: ActionId) -> usize {
        self.events
            .iter()
            .filter(|e| e.process == process && e.action == action)
            .count()
    }

    /// Render the trace with action names resolved through `algo`.
    pub fn pretty<A: GuardedAlgorithm>(&self, algo: &A) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for e in &self.events {
            let _ = writeln!(
                s,
                "step {:>5} round {:>4}  p{:<3} {}",
                e.step,
                e.round,
                e.process,
                algo.action_name(e.action)
            );
        }
        s
    }
}

/// A captured trace log: the event count plus sealed shared segments
/// whose concatenation is exactly the [`Trace::save_state`] encoding of
/// the events. Capture is `O(new events)`; [`TraceSnapshot::encode`]
/// (a `memcpy` per segment) is meant for off-critical-path assembly.
#[derive(Clone, Debug)]
pub struct TraceSnapshot {
    total: usize,
    segments: Vec<Arc<Vec<u8>>>,
}

impl TraceSnapshot {
    /// Number of events captured.
    pub fn len(&self) -> usize {
        self.total
    }

    /// No events captured?
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Append the flat [`Trace::save_state`] encoding.
    pub fn encode(&self, out: &mut Vec<u8>) {
        wire::put_usize(out, self.total);
        for seg in &self.segments {
            out.extend_from_slice(seg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut t = Trace::new();
        t.record(0, 0, &[(1, 0), (2, 3)]);
        t.record(1, 0, &[(1, 0)]);
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.of_process(1).count(), 2);
        assert_eq!(t.count(1, 0), 2);
        assert_eq!(t.count(2, 3), 1);
        assert_eq!(t.count(2, 0), 0);
    }

    #[test]
    fn events_keep_order() {
        let mut t = Trace::new();
        t.record(0, 0, &[(0, 1)]);
        t.record(5, 2, &[(3, 0)]);
        assert_eq!(t.events()[0].step, 0);
        assert_eq!(t.events()[1].step, 5);
        assert_eq!(t.events()[1].round, 2);
    }

    #[test]
    fn save_restore_roundtrips() {
        let mut t = Trace::new();
        t.record(0, 0, &[(1, 0), (2, 3)]);
        t.record(7, 1, &[(0, 2)]);
        let mut blob = Vec::new();
        t.save_state(&mut blob);
        let twin = Trace::restore_state(&mut wire::Reader::new(&blob)).unwrap();
        assert_eq!(twin.events(), t.events());
        wire::fails_closed(None, &blob, |b| {
            Trace::restore_state(&mut wire::Reader::new(b)).is_some()
        });
    }

    #[test]
    fn snapshot_segments_match_the_flat_encoding() {
        let mut t = Trace::new();
        let mut flats = Vec::new();
        for wave in 0..5u64 {
            t.record(wave, wave / 2, &[(wave as usize, 1), (0, 0)]);
            // Snapshot after every wave: each capture seals only the new
            // events, yet encodes the identical flat blob.
            let snap = t.snapshot();
            let mut from_snap = Vec::new();
            snap.encode(&mut from_snap);
            let mut flat = Vec::new();
            t.save_state(&mut flat);
            assert_eq!(from_snap, flat, "wave {wave}");
            assert_eq!(snap.len(), t.events().len());
            flats.push(flat);
        }
        // Earlier snapshots were not corrupted by later sealing: shared
        // segments are immutable.
        assert!(flats.windows(2).all(|w| w[0].len() < w[1].len()));
    }
}
