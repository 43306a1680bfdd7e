//! Round counting (paper §2.2, after Dolev–Israeli–Moran \[12\]).
//!
//! Rounds capture the execution rate of the slowest process: the first round
//! of a computation is its minimal prefix in which every process enabled in
//! the initial configuration has been **activated** (executed an action) or
//! **neutralized** (became disabled without executing). The second round is
//! the first round of the remaining suffix, and so on. All the paper's time
//! bounds (Corollary 3, Theorem 6) are stated in rounds.

/// Incremental round counter fed by the simulation loop.
///
/// Protocol per step:
/// 1. call [`RoundTracker::begin_step`] with the enabled set of the current
///    configuration (this detects neutralizations and closes rounds);
/// 2. execute the step;
/// 3. call [`RoundTracker::record_executed`] with the activated processes.
///
/// The pending set is a sorted `Vec` (both inputs arrive ascending from the
/// engine), so the per-step neutralization and activation filters are each
/// one linear merge walk — this tracker sits on the hot path of every step.
#[derive(Clone, Debug, Default)]
pub struct RoundTracker {
    /// Sorted ascending.
    pending: Vec<usize>,
    rounds: u64,
    started: bool,
}

impl RoundTracker {
    /// Fresh tracker: zero completed rounds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of *completed* rounds so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Processes enabled at the start of the current round that have neither
    /// been activated nor neutralized yet, ascending.
    pub fn pending(&self) -> impl Iterator<Item = usize> + '_ {
        self.pending.iter().copied()
    }

    /// Observe the enabled set of the configuration about to take a step.
    pub fn begin_step(&mut self, enabled: &[usize]) {
        if !self.started {
            self.started = true;
            self.pending.clear();
            self.pending.extend_from_slice(enabled);
            return;
        }
        // Neutralization: pending processes no longer enabled leave the
        // set.
        self.filter_pending(enabled, true);
        self.maybe_close(enabled);
    }

    /// Observe which processes executed in the step just taken.
    pub fn record_executed(&mut self, executed: &[usize]) {
        if !executed.is_sorted() {
            // Not the engine's ascending order (a hand-built list): the
            // merge walk needs one.
            let mut sorted = executed.to_vec();
            sorted.sort_unstable();
            return self.record_executed(&sorted);
        }
        // Activation: pending processes that executed leave the set.
        self.filter_pending(executed, false);
        // Round closure is deferred to the next `begin_step`, because the
        // new round's pending set is the enabled set of the configuration
        // *reached* by this step (not yet observable here).
    }

    /// Keep the pending processes whose presence in `other` (ascending)
    /// equals `keep_present`. Both sides sorted: one linear merge walk.
    fn filter_pending(&mut self, other: &[usize], keep_present: bool) {
        let mut keep = 0;
        let mut j = 0;
        for i in 0..self.pending.len() {
            let p = self.pending[i];
            while j < other.len() && other[j] < p {
                j += 1;
            }
            if (j < other.len() && other[j] == p) == keep_present {
                self.pending[keep] = p;
                keep += 1;
            }
        }
        self.pending.truncate(keep);
    }

    fn maybe_close(&mut self, enabled: &[usize]) {
        if self.pending.is_empty() && !enabled.is_empty() {
            self.rounds += 1;
            self.pending.clear();
            self.pending.extend_from_slice(enabled);
        }
    }

    /// Persistence seam: serialize the tracker's complete state.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        crate::wire::put_usize_slice(out, &self.pending);
        crate::wire::put_u64(out, self.rounds);
        crate::wire::put_bool(out, self.started);
    }

    /// Rebuild a tracker serialized by [`RoundTracker::save_state`];
    /// `None` on truncated or corrupted input.
    pub fn restore_state(r: &mut crate::wire::Reader) -> Option<Self> {
        Some(RoundTracker {
            pending: r.usize_vec()?,
            rounds: r.u64()?,
            started: r.bool()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_round_when_all_initially_enabled_execute() {
        let mut rt = RoundTracker::new();
        rt.begin_step(&[0, 1, 2]);
        rt.record_executed(&[0, 1]);
        rt.begin_step(&[0, 1, 2]); // 2 still pending
        assert_eq!(rt.rounds(), 0);
        rt.record_executed(&[2]);
        rt.begin_step(&[0, 1]); // round closed; new pending {0,1}
        assert_eq!(rt.rounds(), 1);
    }

    #[test]
    fn neutralization_counts() {
        let mut rt = RoundTracker::new();
        rt.begin_step(&[0, 1]);
        rt.record_executed(&[0]);
        // 1 became disabled without executing: neutralized -> round over.
        rt.begin_step(&[0]);
        assert_eq!(rt.rounds(), 1);
    }

    #[test]
    fn terminal_configuration_freezes_rounds() {
        let mut rt = RoundTracker::new();
        rt.begin_step(&[0]);
        rt.record_executed(&[0]);
        rt.begin_step(&[]); // terminal: no new round opens
        assert_eq!(rt.rounds(), 0, "round closure requires a successor round");
        rt.begin_step(&[]);
        assert_eq!(rt.rounds(), 0);
    }

    #[test]
    fn synchronous_execution_is_one_round_per_step() {
        let mut rt = RoundTracker::new();
        rt.begin_step(&[0, 1, 2]);
        rt.record_executed(&[0, 1, 2]);
        rt.begin_step(&[0, 1, 2]);
        assert_eq!(rt.rounds(), 1);
        rt.record_executed(&[0, 1, 2]);
        rt.begin_step(&[0, 1, 2]);
        assert_eq!(rt.rounds(), 2);
    }

    #[test]
    fn save_restore_roundtrips_mid_round() {
        let mut rt = RoundTracker::new();
        rt.begin_step(&[0, 1, 2, 3]);
        rt.record_executed(&[1, 3]);
        let mut bytes = Vec::new();
        rt.save_state(&mut bytes);
        let mut twin = RoundTracker::restore_state(&mut crate::wire::Reader::new(&bytes)).unwrap();
        assert_eq!(twin.rounds(), rt.rounds());
        assert_eq!(
            twin.pending().collect::<Vec<_>>(),
            rt.pending().collect::<Vec<_>>()
        );
        // Both trackers close the round at the same future step.
        for t in [&mut rt, &mut twin] {
            t.begin_step(&[0, 2]);
            t.record_executed(&[0, 2]);
            t.begin_step(&[0, 2]);
        }
        assert_eq!(rt.rounds(), twin.rounds());
        assert_eq!(rt.rounds(), 1);
    }

    #[test]
    fn pending_shrinks_monotonically_within_a_round() {
        let mut rt = RoundTracker::new();
        rt.begin_step(&[0, 1, 2, 3]);
        assert_eq!(rt.pending().count(), 4);
        rt.record_executed(&[2]);
        assert_eq!(rt.pending().count(), 3);
        rt.begin_step(&[0, 1, 3]);
        assert_eq!(rt.pending().count(), 3);
    }

    #[test]
    fn executed_in_any_order_with_repeats_leaves_the_same_pending() {
        let enabled: Vec<usize> = (0..40).collect();
        let (mut sorted, mut shuffled) = (RoundTracker::new(), RoundTracker::new());
        sorted.begin_step(&enabled);
        shuffled.begin_step(&enabled);
        sorted.record_executed(&[3, 7, 8, 21, 39]);
        shuffled.record_executed(&[21, 3, 39, 8, 3, 7, 21]);
        assert_eq!(
            sorted.pending().collect::<Vec<_>>(),
            shuffled.pending().collect::<Vec<_>>()
        );
        assert_eq!(sorted.pending().count(), 35);
        // Processes outside the pending set (or the universe) are ignored.
        sorted.record_executed(&[3, 40, 1000]);
        assert_eq!(sorted.pending().count(), 35);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        sorted.save_state(&mut a);
        shuffled.save_state(&mut b);
        assert_eq!(a, b, "same bytes either way");
    }
}
