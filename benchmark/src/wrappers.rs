//! Pass-through wrappers at the program's own trait seams (`Daemon`,
//! `BoundaryTransport`, `RequestSource`). Each forwards every call
//! unchanged; what it adds is a span around the call, or a record of what
//! went through.

use crate::spans::{self, Kind};
use sscc_dist::BoundaryTransport;
use sscc_runtime::prelude::{Daemon, Selection};
use sscc_service::{CoordRequest, RequestSource};
use std::cell::RefCell;
use std::rc::Rc;

/// A daemon whose `observe_delta` and `select_step` calls are recorded as
/// [`Kind::Daemon`] spans. Selection is the inner daemon's, untouched.
pub struct TimedDaemon(pub Box<dyn Daemon>);

impl Daemon for TimedDaemon {
    fn select(&mut self, enabled: &[usize]) -> Vec<usize> {
        spans::timed(Kind::Daemon, || self.0.select(enabled))
    }

    fn select_step(&mut self, enabled: &[usize]) -> Selection {
        spans::timed(Kind::Daemon, || self.0.select_step(enabled))
    }

    fn wants_view(&self) -> bool {
        self.0.wants_view()
    }

    fn observe_delta(&mut self, added: &[usize], removed: &[usize]) {
        spans::timed(Kind::Daemon, || self.0.observe_delta(added, removed))
    }

    fn set_incremental_view(&mut self, on: bool) {
        self.0.set_incremental_view(on)
    }

    fn save_state(&self, out: &mut Vec<u8>) -> bool {
        self.0.save_state(out)
    }
}

/// Frames kept by [`TimedTransport`] for the codec micro-measurement.
pub const CAPTURED_FRAMES: usize = 4096;

/// A transport whose `send` / `drain_into` calls are recorded as
/// [`Kind::Transport`] spans, and which keeps a copy of the first
/// [`CAPTURED_FRAMES`] frames it carried.
pub struct TimedTransport {
    inner: Box<dyn BoundaryTransport>,
    captured: Rc<RefCell<Vec<Vec<u8>>>>,
}

impl TimedTransport {
    /// Wrap `inner`; captured frames are appended to `captured`.
    pub fn new(inner: Box<dyn BoundaryTransport>, captured: Rc<RefCell<Vec<Vec<u8>>>>) -> Self {
        TimedTransport { inner, captured }
    }
}

impl BoundaryTransport for TimedTransport {
    fn shards(&self) -> usize {
        self.inner.shards()
    }

    fn send(&mut self, to: usize, frame: Vec<u8>) {
        {
            let mut kept = self.captured.borrow_mut();
            if kept.len() < CAPTURED_FRAMES {
                kept.push(frame.clone());
            }
        }
        spans::timed(Kind::Transport, || self.inner.send(to, frame))
    }

    fn drain_into(&mut self, shard: usize, out: &mut Vec<Vec<u8>>) {
        spans::timed(Kind::Transport, || self.inner.drain_into(shard, out))
    }
}

/// A request source that records the professor of every delivered request
/// into a buffer shared with the harness — the arrivals the sojourn mirror
/// starts from. The harness drains the buffer after each tick. Persistence
/// hooks delegate, so a service over this source checkpoints and restores
/// like one over the inner source.
pub struct RecordingSource {
    inner: Box<dyn RequestSource>,
    polled: Rc<RefCell<Vec<usize>>>,
}

impl RecordingSource {
    /// Wrap `inner`, reporting into `polled`.
    pub fn new(inner: Box<dyn RequestSource>, polled: Rc<RefCell<Vec<usize>>>) -> Self {
        RecordingSource { inner, polled }
    }
}

impl RequestSource for RecordingSource {
    fn poll(&mut self, now: u64, max: usize, out: &mut Vec<CoordRequest>) -> usize {
        let from = out.len();
        let got = self.inner.poll(now, max, out);
        self.polled
            .borrow_mut()
            .extend(out[from..].iter().map(|r| r.professor));
        got
    }

    fn finished(&self) -> bool {
        self.inner.finished()
    }

    fn save_state(&self, out: &mut Vec<u8>) -> bool {
        self.inner.save_state(out)
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        self.inner.restore_state(bytes)
    }
}
