//! In-memory spans recorded from outside the program, around the public
//! calls into each layer.
//!
//! One [`Span`] per call: kind, the id of the step or tick it belongs to,
//! start and end on a process-wide monotonic clock. Spans are kept in
//! memory and only analysed (self time, coverage) and written out as JSON
//! lines once measuring is over. The log is thread-local: every workload
//! drives its program from one thread.

use std::cell::RefCell;
use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

/// What a span covers. The name carries the layer it is attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One service tick of the replica (root span of a served workload).
    Tick,
    /// One engine step of the replica (root span of a closed-loop
    /// workload, child of `Tick` on a served one).
    Step,
    /// `flags.drain_changed` → `World::invalidate_env_of`.
    Invalidate,
    /// `World::enabled_now`: dirty drain + guard evaluation.
    Refresh,
    /// `World::step_into` after a refresh: selection, execute, commit.
    SelectCommit,
    /// `Daemon::observe_delta` / `Daemon::select_step` (inside the engine).
    Daemon,
    /// `RoundTracker::begin_step` / `record_executed`.
    Rounds,
    /// Replica upkeep between the calls: executed/touched-edge collection,
    /// `cc_view` and `PolicyView` refresh.
    Mirror,
    /// `MeetingLedger::observe_delta`.
    Ledger,
    /// `SpecMonitor::observe_incremental`.
    Monitor,
    /// `OraclePolicy::update_delta`.
    Policy,
    /// `DistDrive::step_into`: the whole message-passing step.
    DistStep,
    /// `BoundaryTransport::send` / `drain_into` (inside the dist step).
    Transport,
    /// `RequestSource::poll`.
    Poll,
    /// Service ingest + admission rotation.
    Admit,
    /// Service completion scan over the step's ledger events.
    Complete,
    /// `Sim::strike`.
    Strike,
    /// `Sim::mutate` (including the proposal draw).
    Mutate,
    /// `Checkpoint::capture_*` / `CoordinationService::checkpoint`.
    Capture,
    /// `Checkpoint::to_bytes`.
    Encode,
    /// `Checkpoint::from_bytes`.
    Decode,
    /// `Checkpoint::restore_*` / `cc1_service_restore`.
    Restore,
    /// Harness-only counting work inside a step (tracing overhead, no
    /// layer).
    Bookkeeping,
}

impl Kind {
    /// `layer.call` name used in the span dump.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Tick => "service.tick",
            Kind::Step => "core.step",
            Kind::Invalidate => "runtime.invalidate_env",
            Kind::Refresh => "runtime.refresh",
            Kind::SelectCommit => "runtime.select_commit",
            Kind::Daemon => "runtime.daemon",
            Kind::Rounds => "runtime.rounds",
            Kind::Mirror => "core.mirror",
            Kind::Ledger => "core.ledger",
            Kind::Monitor => "core.monitor",
            Kind::Policy => "core.policy",
            Kind::DistStep => "dist.step",
            Kind::Transport => "dist.transport",
            Kind::Poll => "service.poll",
            Kind::Admit => "service.admit",
            Kind::Complete => "service.complete",
            Kind::Strike => "core.strike",
            Kind::Mutate => "core.mutate",
            Kind::Capture => "persist.capture",
            Kind::Encode => "persist.encode",
            Kind::Decode => "persist.decode",
            Kind::Restore => "persist.restore",
            Kind::Bookkeeping => "trace.bookkeeping",
        }
    }
}

/// One recorded call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What was called.
    pub kind: Kind,
    /// Step or tick the call belongs to (spans of one step share it).
    pub id: u32,
    /// Start, ns on the [`now`] clock.
    pub start: u64,
    /// End, ns on the [`now`] clock.
    pub end: u64,
}

#[derive(Default)]
struct Log {
    on: bool,
    id: u32,
    spans: Vec<Span>,
}

thread_local! {
    static LOG: RefCell<Log> = RefCell::new(Log::default());
}

/// Nanoseconds since the first call in this process (monotonic).
#[inline]
pub fn now() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Start recording, with room for `capacity` spans reserved up front so the
/// measured loop does not reallocate.
pub fn enable(capacity: usize) {
    LOG.with_borrow_mut(|l| {
        l.on = true;
        l.spans = Vec::with_capacity(capacity);
    });
}

/// Set the step/tick id the following spans belong to.
#[inline]
pub fn set_id(id: u64) {
    LOG.with_borrow_mut(|l| l.id = id as u32);
}

/// Record one finished call (no-op while recording is off).
#[inline]
pub fn record(kind: Kind, start: u64, end: u64) {
    LOG.with_borrow_mut(|l| {
        if l.on {
            let id = l.id;
            l.spans.push(Span {
                kind,
                id,
                start,
                end,
            });
        }
    });
}

/// Time `f` as one span of `kind`. The log is not borrowed while `f` runs,
/// so `f` may record child spans.
#[inline]
pub fn timed<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    let start = now();
    let r = f();
    record(kind, start, now());
    r
}

/// Spans recorded so far.
pub fn count() -> usize {
    LOG.with_borrow(|l| l.spans.len())
}

/// Stop recording and hand over everything recorded.
pub fn take() -> Vec<Span> {
    LOG.with_borrow_mut(|l| {
        l.on = false;
        std::mem::take(&mut l.spans)
    })
}

/// Per-kind totals of an analysed span log.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindTotal {
    /// Number of spans.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times (duration minus direct children).
    pub self_ns: u64,
}

/// Result of [`analyse`].
pub struct Analysis {
    totals: Vec<(Kind, KindTotal)>,
    /// `parent[i]` = index of the span directly enclosing span `i`.
    pub parent: Vec<Option<u32>>,
}

impl Analysis {
    /// Totals of one kind (zeros when it never occurred).
    pub fn of(&self, kind: Kind) -> KindTotal {
        self.totals
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, t)| *t)
            .unwrap_or_default()
    }
}

/// Compute every span's parent and self time. Spans are recorded when they
/// *end*, so a parent follows its children; properly nested intervals let
/// one pass with a stack of not-yet-claimed spans find the direct children
/// of each span: exactly the unclaimed ones that started after it did.
pub fn analyse(spans: &[Span]) -> Analysis {
    let mut totals: Vec<(Kind, KindTotal)> = Vec::new();
    let mut parent = vec![None; spans.len()];
    let mut open: Vec<u32> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let mut children_ns = 0;
        while let Some(&c) = open.last() {
            let child = &spans[c as usize];
            if child.start < s.start {
                break;
            }
            children_ns += child.end - child.start;
            parent[c as usize] = Some(i as u32);
            open.pop();
        }
        open.push(i as u32);
        let dur = s.end - s.start;
        let slot = match totals.iter_mut().find(|(k, _)| *k == s.kind) {
            Some((_, t)) => t,
            None => {
                totals.push((s.kind, KindTotal::default()));
                &mut totals.last_mut().expect("just pushed").1
            }
        };
        slot.count += 1;
        slot.total_ns += dur;
        slot.self_ns += dur.saturating_sub(children_ns);
    }
    Analysis { totals, parent }
}

/// Spans written per dump: enough to read several thousand steps of any
/// workload, without a fast-ticking served workload writing hundreds of MB.
pub const DUMP_LIMIT: usize = 200_000;

/// Write the first [`DUMP_LIMIT`] spans as JSON lines: name, step/tick id,
/// start, end, and the line number of the enclosing span (`null` for a
/// root).
pub fn dump(path: &std::path::Path, spans: &[Span], analysis: &Analysis) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate().take(DUMP_LIMIT) {
        let parent = match analysis.parent[i] {
            // A parent beyond the limit is not in the file.
            Some(p) if (p as usize) < DUMP_LIMIT => p.to_string(),
            _ => "null".to_string(),
        };
        writeln!(
            w,
            "{{\"name\":\"{}\",\"id\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
            s.kind.name(),
            s.id,
            s.start,
            s.end,
            parent
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, start: u64, end: u64) -> Span {
        Span {
            kind,
            id: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // step[0,100] ⊃ select[10,60] ⊃ daemon[20,30]; step ⊃ ledger[70,90]
        let spans = [
            span(Kind::Daemon, 20, 30),
            span(Kind::SelectCommit, 10, 60),
            span(Kind::Ledger, 70, 90),
            span(Kind::Step, 0, 100),
        ];
        let a = analyse(&spans);
        assert_eq!(a.of(Kind::Daemon).self_ns, 10);
        assert_eq!(a.of(Kind::SelectCommit).self_ns, 40);
        assert_eq!(a.of(Kind::Ledger).self_ns, 20);
        assert_eq!(a.of(Kind::Step).self_ns, 30);
        assert_eq!(a.of(Kind::Step).total_ns, 100);
        assert_eq!(a.parent, [Some(1), Some(3), Some(3), None]);
        assert_eq!(a.of(Kind::Policy), KindTotal::default());
    }

    #[test]
    fn consecutive_roots_do_not_adopt_each_other() {
        let spans = [
            span(Kind::Ledger, 1, 2),
            span(Kind::Step, 0, 3),
            span(Kind::Ledger, 5, 6),
            span(Kind::Step, 4, 8),
        ];
        let a = analyse(&spans);
        assert_eq!(a.parent, [Some(1), None, Some(3), None]);
        assert_eq!(a.of(Kind::Step).self_ns, 2 + 3);
    }

    #[test]
    fn recording_is_off_until_enabled() {
        record(Kind::Step, 0, 1);
        assert!(take().is_empty());
        enable(4);
        set_id(7);
        timed(Kind::Step, || timed(Kind::Ledger, || ()));
        let got = take();
        assert_eq!(got.len(), 2);
        assert_eq!((got[0].kind, got[0].id), (Kind::Ledger, 7));
        assert_eq!(got[1].kind, Kind::Step);
        assert!(got[1].start <= got[0].start && got[0].end <= got[1].end);
    }
}
