//! The `RequestIn` / `RequestOut` environment predicates (§2.3, §4.1).
//!
//! These are *inputs from the system*: a professor autonomously decides to
//! wait for a meeting (`RequestIn`) and to stop discussing (`RequestOut`).
//! The paper constrains them with liveness contracts rather than code:
//!
//! * once a meeting involving `p` meets — or `p` is stuck in a terminated
//!   meeting (`LeaveMeeting(p)`) — `RequestOut(p)` eventually holds and then
//!   stays true until `p` leaves;
//! * for the fair algorithms (§5), professors request infinitely often, so
//!   `RequestIn` is identically true;
//! * Definitions 2 and 5 use the *infinite meeting* artefact: participants
//!   of live meetings never request out.
//!
//! The predicates are realized as [`RequestFlags`] (the immutable view the
//! engine reads during a step) updated between steps by an [`OraclePolicy`]
//! (the mutable decision logic, fed the post-step statuses).

use crate::status::Status;
use sscc_runtime::wire;

/// The environment interface the algorithms read during guard evaluation;
/// the environment is frozen (read-only) during a step.
pub trait RequestEnv {
    /// `RequestIn(p)`: does the professor want to join a meeting?
    fn request_in(&self, p: usize) -> bool;
    /// `RequestOut(p)`: does the professor want to stop discussing?
    fn request_out(&self, p: usize) -> bool;
}

/// Materialized predicate values for one step.
///
/// Tracks which processes' flags actually *flipped* since the last
/// [`RequestFlags::drain_changed`], so the simulator can invalidate only
/// the affected guards in the incremental engine.
#[derive(Clone, Debug)]
pub struct RequestFlags {
    r_in: Vec<bool>,
    r_out: Vec<bool>,
    /// Processes whose flags flipped since the last drain.
    changed: sscc_runtime::prelude::MarkSet,
}

impl PartialEq for RequestFlags {
    fn eq(&self, other: &Self) -> bool {
        // Change-tracking bookkeeping is not part of the observable value.
        self.r_in == other.r_in && self.r_out == other.r_out
    }
}

impl Eq for RequestFlags {}

impl RequestFlags {
    /// Flags for `n` processes, initially all-in / none-out.
    pub fn new(n: usize) -> Self {
        RequestFlags {
            r_in: vec![true; n],
            r_out: vec![false; n],
            changed: sscc_runtime::prelude::MarkSet::new(n),
        }
    }

    /// Number of processes these flags are dimensioned for.
    pub fn processes(&self) -> usize {
        self.r_in.len()
    }

    /// Set `RequestIn(p)`.
    pub fn set_in(&mut self, p: usize, v: bool) {
        if self.r_in[p] != v {
            self.r_in[p] = v;
            self.changed.insert(p);
        }
    }

    /// Set `RequestOut(p)`.
    pub fn set_out(&mut self, p: usize, v: bool) {
        if self.r_out[p] != v {
            self.r_out[p] = v;
            self.changed.insert(p);
        }
    }

    /// Report (and forget) every process whose flags flipped since the last
    /// drain. Returns how many there were.
    pub fn drain_changed(&mut self, f: impl FnMut(usize)) -> usize {
        self.changed.drain(f)
    }

    /// Serialize the flags *including* the undrained change set (in
    /// insertion order): at a step boundary the policy's latest flips have
    /// not been drained yet, and a restore must replay them into the next
    /// step exactly as the uninterrupted run would.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        wire::put_bool_slice(out, &self.r_in);
        wire::put_bool_slice(out, &self.r_out);
        wire::put_usize_slice(out, self.changed.as_slice());
    }

    /// Decode flags previously written by [`RequestFlags::save_state`].
    pub fn restore_state(r: &mut wire::Reader) -> Option<Self> {
        let r_in = r.bool_vec()?;
        let r_out = r.bool_vec()?;
        if r_out.len() != r_in.len() {
            return None;
        }
        let flipped = r.usize_vec()?;
        let mut changed = sscc_runtime::prelude::MarkSet::new(r_in.len());
        for p in flipped {
            if p >= r_in.len() {
                return None;
            }
            changed.insert(p);
        }
        Some(RequestFlags {
            r_in,
            r_out,
            changed,
        })
    }
}

impl RequestEnv for RequestFlags {
    fn request_in(&self, p: usize) -> bool {
        self.r_in[p]
    }
    fn request_out(&self, p: usize) -> bool {
        self.r_out[p]
    }
}

/// Minimal view of the post-step configuration a policy needs: per-process
/// status and whether the process is in a (live) meeting.
#[derive(Clone, Debug)]
pub struct PolicyView {
    /// Status of each process.
    pub status: Vec<Status>,
    /// `Meeting(p)` of each process (all members of some pointed committee
    /// are waiting/done).
    pub in_meeting: Vec<bool>,
}

/// Decision logic advancing the request predicates between steps.
///
/// Contract honored by every provided policy: `RequestOut(p)`, once raised
/// while `p` is done, stays raised until `p` leaves (the policies recompute
/// from "time since done", which only resets on leaving).
pub trait OraclePolicy {
    /// Recompute `flags` for the next step from the post-step `view`.
    fn update(&mut self, flags: &mut RequestFlags, view: &PolicyView);

    /// Delta-aware tick: `changed` lists every process whose *inputs* in
    /// `view` (status or `Meeting(p)`) may differ from the previous tick —
    /// the simulator passes the executed processes whose status or pointer
    /// changed, the participants of every committee that convened or
    /// terminated, and the processes whose flags flipped since the last
    /// tick. A process outside `changed` is guaranteed unchanged, so a
    /// delta-aware policy only re-derives flags for `changed` plus its own
    /// pending timers (`O(affected)` instead of `O(n)`), producing
    /// **identical flag trajectories** to [`OraclePolicy::update`]. A
    /// superset of the truly
    /// changed processes is always safe. The default falls back to the full
    /// tick, which is correct for every policy. Randomized policies can be
    /// delta-aware too if their draws are *event-indexed* rather than
    /// tick-indexed — see [`StochasticPolicy`], whose counter-based streams
    /// consume randomness only on state transitions, making the delta tick
    /// draw the very same numbers the full tick would.
    fn update_delta(&mut self, flags: &mut RequestFlags, view: &PolicyView, changed: &[usize]) {
        let _ = changed;
        self.update(flags, view);
    }

    /// Upper bound on the number of environment ticks that may pass — with
    /// all process statuses frozen — before this policy's flags stop
    /// changing forever. The simulator uses it to tell "the system is
    /// waiting on the environment" (e.g. a finished meeting whose members'
    /// `RequestOut` has not fired yet) apart from true quiescence.
    fn quiescence_horizon(&self) -> u64 {
        1
    }

    /// Serialize the policy's full decision state — a type tag followed by
    /// every timer, counter and latch — so [`restore_policy`] can rebuild a
    /// policy whose future flag trajectory is bit-identical. Returns `false`
    /// when this policy is not persistable (the default: custom policies
    /// keep working, checkpointing just refuses cleanly instead of
    /// corrupting).
    fn save_state(&self, out: &mut Vec<u8>) -> bool {
        let _ = out;
        false
    }
}

/// [`EagerPolicy`] type tag in a policy blob.
const TAG_EAGER: u8 = 1;
/// [`InfiniteMeetingPolicy`] type tag.
const TAG_INFINITE: u8 = 2;
/// [`StochasticPolicy`] type tag.
const TAG_STOCHASTIC: u8 = 3;
/// [`ScriptedPolicy`] type tag.
const TAG_SCRIPTED: u8 = 4;
/// [`OpenLoopPolicy`] type tag.
const TAG_OPENLOOP: u8 = 5;

/// Rebuild a boxed policy from a blob written by
/// [`OraclePolicy::save_state`]. `None` on an unknown tag, truncation,
/// internal inconsistency, or trailing garbage.
pub fn restore_policy(bytes: &[u8]) -> Option<Box<dyn OraclePolicy>> {
    let mut r = wire::Reader::new(bytes);
    let pol: Box<dyn OraclePolicy> = match r.u8()? {
        TAG_EAGER => Box::new(EagerPolicy::read_fields(&mut r)?),
        TAG_INFINITE => Box::new(InfiniteMeetingPolicy),
        TAG_STOCHASTIC => Box::new(StochasticPolicy::read_fields(&mut r)?),
        TAG_SCRIPTED => {
            let in_mask = r.bool_vec()?;
            let eager = EagerPolicy::read_fields(&mut r)?;
            if in_mask.len() != eager.armed.len() {
                return None;
            }
            Box::new(ScriptedPolicy { in_mask, eager })
        }
        TAG_OPENLOOP => Box::new(OpenLoopPolicy::read_fields(&mut r)?),
        _ => return None,
    };
    if !r.is_empty() {
        return None;
    }
    Some(pol)
}

/// Everyone always requests in; a professor requests out after sitting
/// `max_disc` steps in the `done` status (the paper's `maxDisc`: the
/// maximum voluntary-discussion length). `max_disc = 0` leaves as soon as
/// allowed. The §5 algorithms assume exactly this environment.
///
/// Delta-aware: between ticks the policy only touches the processes whose
/// status changed plus its *pending* timers (professors sitting `done`
/// whose `RequestOut` has not fired yet) — never all `n`.
#[derive(Clone, Debug)]
pub struct EagerPolicy {
    max_disc: u64,
    done_since: Vec<Option<u64>>,
    now: u64,
    /// Armed-but-not-yet-fired timers: the worklist may lag (removal just
    /// clears the armed bit; stale entries are dropped by the next sweep),
    /// but `armed[p]` is always authoritative.
    pending: Vec<usize>,
    armed: Vec<bool>,
}

impl EagerPolicy {
    /// Policy for `n` processes with voluntary-discussion length `max_disc`.
    pub fn new(n: usize, max_disc: u64) -> Self {
        EagerPolicy {
            max_disc,
            done_since: vec![None; n],
            now: 0,
            pending: Vec::new(),
            armed: vec![false; n],
        }
    }

    fn arm(&mut self, p: usize) {
        if !self.armed[p] {
            self.armed[p] = true;
            self.pending.push(p);
        }
    }

    /// Write every field (no tag — [`ScriptedPolicy`] embeds the same
    /// payload). `pending` keeps its worklist order: `swap_remove`
    /// scheduling makes the order observable through draw-free policies
    /// only via flag *insertion* order, which downstream delta consumers
    /// see.
    fn write_fields(&self, out: &mut Vec<u8>) {
        wire::put_u64(out, self.max_disc);
        wire::put_opt_u64_slice(out, &self.done_since);
        wire::put_u64(out, self.now);
        wire::put_usize_slice(out, &self.pending);
        wire::put_bool_slice(out, &self.armed);
    }

    /// Decode the payload written by [`EagerPolicy::write_fields`].
    fn read_fields(r: &mut wire::Reader) -> Option<Self> {
        let max_disc = r.u64()?;
        let done_since = r.opt_u64_vec()?;
        let now = r.u64()?;
        let pending = r.usize_vec()?;
        let armed = r.bool_vec()?;
        let n = done_since.len();
        if armed.len() != n || pending.iter().any(|&p| p >= n) {
            return None;
        }
        Some(EagerPolicy {
            max_disc,
            done_since,
            now,
            pending,
            armed,
        })
    }

    /// Fire every armed timer that is due, clearing it from the worklist
    /// (and dropping disarmed stragglers).
    fn fire_due(&mut self, flags: &mut RequestFlags) {
        let mut i = 0;
        while i < self.pending.len() {
            let p = self.pending[i];
            if !self.armed[p] {
                self.pending.swap_remove(i);
                continue;
            }
            let since = self.done_since[p].expect("armed implies a done timestamp");
            if self.now - since >= self.max_disc {
                flags.set_out(p, true);
                self.armed[p] = false;
                self.pending.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }
}

impl OraclePolicy for EagerPolicy {
    fn update(&mut self, flags: &mut RequestFlags, view: &PolicyView) {
        self.now += 1;
        for &p in &self.pending {
            self.armed[p] = false;
        }
        self.pending.clear();
        for p in 0..view.status.len() {
            flags.set_in(p, true);
            match view.status[p] {
                Status::Done => {
                    let since = *self.done_since[p].get_or_insert(self.now);
                    let fired = self.now - since >= self.max_disc;
                    flags.set_out(p, fired);
                    if !fired {
                        self.arm(p);
                    }
                }
                _ => {
                    self.done_since[p] = None;
                    flags.set_out(p, false);
                }
            }
        }
    }

    fn update_delta(&mut self, flags: &mut RequestFlags, view: &PolicyView, changed: &[usize]) {
        self.now += 1;
        for &p in changed {
            flags.set_in(p, true);
            if view.status[p] == Status::Done {
                // Re-derive the out-flag exactly as a full tick would —
                // `changed` includes externally scripted flags, which must
                // be overwritten after one step like the full tick does.
                let since = *self.done_since[p].get_or_insert(self.now);
                let fired = self.now - since >= self.max_disc;
                flags.set_out(p, fired);
                if !fired {
                    self.arm(p);
                } else {
                    self.armed[p] = false;
                }
            } else {
                self.done_since[p] = None;
                flags.set_out(p, false);
                self.armed[p] = false;
            }
        }
        self.fire_due(flags);
    }

    fn quiescence_horizon(&self) -> u64 {
        self.max_disc + 2
    }

    fn save_state(&self, out: &mut Vec<u8>) -> bool {
        wire::put_u8(out, TAG_EAGER);
        self.write_fields(out);
        true
    }
}

/// The infinite-meeting artefact of Definitions 2 and 5: participants of a
/// live meeting never request out; a professor stuck in a *terminated*
/// meeting (done but not meeting) requests out, as the paper stipulates, so
/// that fault debris gets cleaned up.
#[derive(Clone, Debug, Default)]
pub struct InfiniteMeetingPolicy;

impl OraclePolicy for InfiniteMeetingPolicy {
    fn update(&mut self, flags: &mut RequestFlags, view: &PolicyView) {
        for p in 0..view.status.len() {
            flags.set_in(p, true);
            flags.set_out(p, view.status[p] == Status::Done && !view.in_meeting[p]);
        }
    }

    fn update_delta(&mut self, flags: &mut RequestFlags, view: &PolicyView, changed: &[usize]) {
        // Memoryless: a process's flags depend only on its own view entry,
        // so unchanged entries keep their flags. `changed` must cover
        // `Meeting(p)` flips too — the simulator passes the participants
        // of every committee that convened or terminated, next to the
        // processes that re-pointed: the only places participation moves.
        for &p in changed {
            flags.set_in(p, true);
            flags.set_out(p, view.status[p] == Status::Done && !view.in_meeting[p]);
        }
    }

    fn save_state(&self, out: &mut Vec<u8>) -> bool {
        // Memoryless: the tag is the whole state.
        wire::put_u8(out, TAG_INFINITE);
        true
    }
}

/// SplitMix64 finalizer: a well-mixed 64-bit hash, the basis of the
/// counter-based random streams in [`StochasticPolicy`] (and of the service
/// layer's deterministic traffic generators, which follow the same idiom:
/// draw `k` of stream `s` is `splitmix64(splitmix64(s) + k)`, so a draw's
/// value never depends on when it is consumed).
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Randomized environment: idle professors start requesting with probability
/// `p_in` per step; done professors request out after a per-sojourn random
/// delay in `out_delay`. Deterministic per seed.
///
/// Randomness is **counter-based**: draw `k` of process `p` is
/// `hash(seed, p, k)`, consumed only on state *transitions* — one geometric
/// draw when `p` turns idle-and-not-requesting (how many steps until the
/// in-request fires, matching per-step Bernoulli(`p_in`) in distribution)
/// and one uniform draw when `p` enters `done` (the out-delay). Because a
/// draw's value depends only on `(seed, p, k)` — never on the tick it is
/// read at or on other processes' draws — the delta tick
/// ([`OraclePolicy::update_delta`]) consumes the identical stream the full
/// tick would, and the two produce bit-identical flag trajectories.
#[derive(Clone, Debug)]
pub struct StochasticPolicy {
    seed: u64,
    p_in: f64,
    out_lo: u64,
    out_hi: u64,
    wants_in: Vec<bool>,
    /// Per-process draw counter: the stream position of the next draw.
    counter: Vec<u64>,
    /// Tick at which the pending in-request fires (idle arming).
    in_fire_at: Vec<Option<u64>>,
    done_since: Vec<Option<(u64, u64)>>, // (entered, sampled delay)
    now: u64,
    /// Armed-but-not-yet-fired timers, as in [`EagerPolicy`]: `armed[p]` is
    /// authoritative; `pending` may hold disarmed stragglers that the next
    /// due-scan drops.
    pending: Vec<usize>,
    armed: Vec<bool>,
}

impl StochasticPolicy {
    /// Policy for `n` processes. `p_in = 0.0` never requests in.
    pub fn new(n: usize, seed: u64, p_in: f64, out_delay: std::ops::Range<u64>) -> Self {
        assert!((0.0..=1.0).contains(&p_in));
        assert!(out_delay.start < out_delay.end);
        StochasticPolicy {
            seed,
            p_in,
            out_lo: out_delay.start,
            out_hi: out_delay.end,
            wants_in: vec![false; n],
            counter: vec![0; n],
            in_fire_at: vec![None; n],
            done_since: vec![None; n],
            now: 0,
            pending: Vec::new(),
            armed: vec![false; n],
        }
    }

    /// The next value of process `p`'s stream.
    fn draw(&mut self, p: usize) -> u64 {
        let k = self.counter[p];
        self.counter[p] += 1;
        splitmix64(splitmix64(self.seed.wrapping_add((p as u64) << 32)).wrapping_add(k))
    }

    /// Number of Bernoulli(`p_in`) failures before the first success —
    /// inverse-transform geometric, so arming once at transition time is
    /// distributed exactly like drawing every idle step.
    fn geometric(&mut self, p: usize) -> u64 {
        if self.p_in >= 1.0 {
            return 0;
        }
        // (0, 1]: never ln(0); u = 0 maps to an immediate success.
        let u = 1.0 - (self.draw(p) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        (u.ln() / (1.0 - self.p_in).ln()) as u64 // `as` saturates
    }

    fn arm(&mut self, p: usize) {
        if !self.armed[p] {
            self.armed[p] = true;
            self.pending.push(p);
        }
    }

    /// Re-derive process `p`'s flags from its status at tick `now` —
    /// the one evaluation both tick flavors share. Idempotent within a
    /// tick: draws are memoized in `in_fire_at` / `done_since`, so calling
    /// this again (e.g. for a process both changed and armed) consumes no
    /// further randomness and writes the same flags.
    fn derive(&mut self, p: usize, status: Status, flags: &mut RequestFlags) {
        match status {
            Status::Idle => {
                if !self.wants_in[p] && self.p_in > 0.0 {
                    let fire_at = match self.in_fire_at[p] {
                        Some(t) => t,
                        None => {
                            let f = self.geometric(p);
                            let t = self.now.saturating_add(f);
                            self.in_fire_at[p] = Some(t);
                            t
                        }
                    };
                    if self.now >= fire_at {
                        self.wants_in[p] = true;
                        self.in_fire_at[p] = None;
                        self.armed[p] = false;
                    } else {
                        self.arm(p);
                    }
                }
                self.done_since[p] = None;
                flags.set_out(p, false);
            }
            Status::Done => {
                self.in_fire_at[p] = None;
                let (entered, delay) = match self.done_since[p] {
                    Some(pair) => pair,
                    None => {
                        let delay = self.out_lo + self.draw(p) % (self.out_hi - self.out_lo);
                        let pair = (self.now, delay);
                        self.done_since[p] = Some(pair);
                        pair
                    }
                };
                let fired = self.now - entered >= delay;
                flags.set_out(p, fired);
                if fired {
                    self.armed[p] = false;
                } else {
                    self.arm(p);
                }
            }
            _ => {
                // Looking/waiting: the in-request has been consumed.
                self.wants_in[p] = false;
                self.in_fire_at[p] = None;
                self.done_since[p] = None;
                self.armed[p] = false;
                flags.set_out(p, false);
            }
        }
        flags.set_in(p, self.wants_in[p]);
    }

    /// Re-derive every armed timer (it may be due this tick), dropping
    /// disarmed stragglers from the worklist.
    fn fire_due(&mut self, flags: &mut RequestFlags, view: &PolicyView) {
        let mut i = 0;
        while i < self.pending.len() {
            let p = self.pending[i];
            if !self.armed[p] {
                self.pending.swap_remove(i);
                continue;
            }
            self.derive(p, view.status[p], flags);
            if !self.armed[p] {
                self.pending.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Write every field. `p_in` travels as its IEEE-754 bit pattern, so
    /// the restored geometric draws replay the identical stream.
    fn write_fields(&self, out: &mut Vec<u8>) {
        wire::put_u64(out, self.seed);
        wire::put_u64(out, self.p_in.to_bits());
        wire::put_u64(out, self.out_lo);
        wire::put_u64(out, self.out_hi);
        wire::put_bool_slice(out, &self.wants_in);
        wire::put_u64_slice(out, &self.counter);
        wire::put_opt_u64_slice(out, &self.in_fire_at);
        wire::put_usize(out, self.done_since.len());
        for d in &self.done_since {
            match d {
                None => wire::put_u8(out, 0),
                Some((entered, delay)) => {
                    wire::put_u8(out, 1);
                    wire::put_u64(out, *entered);
                    wire::put_u64(out, *delay);
                }
            }
        }
        wire::put_u64(out, self.now);
        wire::put_usize_slice(out, &self.pending);
        wire::put_bool_slice(out, &self.armed);
    }

    /// Decode the payload written by [`StochasticPolicy::write_fields`],
    /// re-validating the constructor's invariants.
    fn read_fields(r: &mut wire::Reader) -> Option<Self> {
        let seed = r.u64()?;
        let p_in = f64::from_bits(r.u64()?);
        let out_lo = r.u64()?;
        let out_hi = r.u64()?;
        if !(0.0..=1.0).contains(&p_in) || out_lo >= out_hi {
            return None;
        }
        let wants_in = r.bool_vec()?;
        let counter = r.u64_vec()?;
        let in_fire_at = r.opt_u64_vec()?;
        let m = r.count(1)?;
        let mut done_since = Vec::with_capacity(m);
        for _ in 0..m {
            done_since.push(match r.u8()? {
                0 => None,
                1 => Some((r.u64()?, r.u64()?)),
                _ => return None,
            });
        }
        let now = r.u64()?;
        let pending = r.usize_vec()?;
        let armed = r.bool_vec()?;
        let n = wants_in.len();
        if counter.len() != n
            || in_fire_at.len() != n
            || done_since.len() != n
            || armed.len() != n
            || pending.iter().any(|&p| p >= n)
        {
            return None;
        }
        Some(StochasticPolicy {
            seed,
            p_in,
            out_lo,
            out_hi,
            wants_in,
            counter,
            in_fire_at,
            done_since,
            now,
            pending,
            armed,
        })
    }
}

impl OraclePolicy for StochasticPolicy {
    fn update(&mut self, flags: &mut RequestFlags, view: &PolicyView) {
        self.now += 1;
        // The full sweep re-arms whatever is still pending; resetting the
        // worklist first keeps it free of disarmed stragglers (which only a
        // delta tick's due-scan would otherwise drop).
        for &p in &self.pending {
            self.armed[p] = false;
        }
        self.pending.clear();
        for p in 0..view.status.len() {
            self.derive(p, view.status[p], flags);
        }
    }

    fn update_delta(&mut self, flags: &mut RequestFlags, view: &PolicyView, changed: &[usize]) {
        self.now += 1;
        for &p in changed {
            self.derive(p, view.status[p], flags);
        }
        self.fire_due(flags, view);
    }

    fn quiescence_horizon(&self) -> u64 {
        self.out_hi + 2
    }

    fn save_state(&self, out: &mut Vec<u8>) -> bool {
        wire::put_u8(out, TAG_STOCHASTIC);
        self.write_fields(out);
        true
    }
}

/// Fully scripted environment for walkthroughs (e.g. Figure 3, where
/// professor 4 never requests): fixed `RequestIn` mask, `RequestOut` raised
/// `out_after` steps into `done` like [`EagerPolicy`].
#[derive(Clone, Debug)]
pub struct ScriptedPolicy {
    in_mask: Vec<bool>,
    eager: EagerPolicy,
}

impl ScriptedPolicy {
    /// `in_mask[p]` = does professor `p` ever request in; `max_disc` as in
    /// [`EagerPolicy`].
    pub fn new(in_mask: Vec<bool>, max_disc: u64) -> Self {
        let n = in_mask.len();
        ScriptedPolicy {
            in_mask,
            eager: EagerPolicy::new(n, max_disc),
        }
    }
}

impl OraclePolicy for ScriptedPolicy {
    fn update(&mut self, flags: &mut RequestFlags, view: &PolicyView) {
        self.eager.update(flags, view);
        for (p, &m) in self.in_mask.iter().enumerate() {
            flags.set_in(p, m);
        }
    }

    fn update_delta(&mut self, flags: &mut RequestFlags, view: &PolicyView, changed: &[usize]) {
        self.eager.update_delta(flags, view, changed);
        // The eager tick only raised `RequestIn` for changed processes;
        // re-masking those restores the script (unchanged processes keep
        // their masked value from the previous tick).
        for &p in changed {
            flags.set_in(p, self.in_mask[p]);
        }
    }

    fn quiescence_horizon(&self) -> u64 {
        self.eager.quiescence_horizon()
    }

    fn save_state(&self, out: &mut Vec<u8>) -> bool {
        wire::put_u8(out, TAG_SCRIPTED);
        wire::put_bool_slice(out, &self.in_mask);
        self.eager.write_fields(out);
        true
    }
}

/// Open-loop environment for the service layer: `RequestIn` is **latched
/// externally** (an admission layer scripts it through `Sim::flags_mut`)
/// instead of being derived by the policy.
///
/// The shipped policies all force `RequestIn` back to their own model every
/// tick, so an externally scripted request lasts exactly one step. This
/// policy inverts that contract for *idle* professors: their `RequestIn`
/// bit is left exactly as the outside world set it, persisting until the
/// algorithm consumes it (the professor leaves `idle`). Once consumed —
/// status `looking`/`waiting`/`done` — the bit is cleared, so a request
/// arriving mid-cycle must be re-latched after the professor returns to
/// `idle` (the service layer's admission queue does exactly that).
/// `RequestOut` follows [`EagerPolicy`]: raised after `max_disc` steps of
/// `done`, held until leaving.
///
/// The very first tick (the simulator's priming tick) clears every
/// `RequestIn`: an open-loop system starts with no demand.
///
/// Delta-aware with identical trajectories to the full tick: an idle
/// professor's latch is touched by neither tick flavor, and externally
/// flipped processes are always in the changed set the simulator feeds
/// [`OraclePolicy::update_delta`].
#[derive(Clone, Debug)]
pub struct OpenLoopPolicy {
    max_disc: u64,
    done_since: Vec<Option<u64>>,
    now: u64,
    /// Armed-but-not-yet-fired out-timers, as in [`EagerPolicy`].
    pending: Vec<usize>,
    armed: Vec<bool>,
    primed: bool,
}

impl OpenLoopPolicy {
    /// Policy for `n` processes with voluntary-discussion length `max_disc`.
    pub fn new(n: usize, max_disc: u64) -> Self {
        OpenLoopPolicy {
            max_disc,
            done_since: vec![None; n],
            now: 0,
            pending: Vec::new(),
            armed: vec![false; n],
            primed: false,
        }
    }

    fn arm(&mut self, p: usize) {
        if !self.armed[p] {
            self.armed[p] = true;
            self.pending.push(p);
        }
    }

    /// Re-derive process `p`'s flags from its status — shared by both tick
    /// flavors, idempotent within a tick.
    fn derive(&mut self, p: usize, status: Status, flags: &mut RequestFlags) {
        match status {
            Status::Idle => {
                // The latch: whatever the admission layer wrote stands.
                self.done_since[p] = None;
                flags.set_out(p, false);
                self.armed[p] = false;
            }
            Status::Done => {
                flags.set_in(p, false);
                let since = *self.done_since[p].get_or_insert(self.now);
                let fired = self.now - since >= self.max_disc;
                flags.set_out(p, fired);
                if fired {
                    self.armed[p] = false;
                } else {
                    self.arm(p);
                }
            }
            _ => {
                // Looking/waiting: the in-request has been consumed.
                flags.set_in(p, false);
                self.done_since[p] = None;
                flags.set_out(p, false);
                self.armed[p] = false;
            }
        }
    }

    /// Re-derive every armed out-timer (it may be due this tick), dropping
    /// disarmed stragglers from the worklist.
    fn fire_due(&mut self, flags: &mut RequestFlags, view: &PolicyView) {
        let mut i = 0;
        while i < self.pending.len() {
            let p = self.pending[i];
            if !self.armed[p] {
                self.pending.swap_remove(i);
                continue;
            }
            self.derive(p, view.status[p], flags);
            if !self.armed[p] {
                self.pending.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Decode the payload written by this policy's
    /// [`OraclePolicy::save_state`].
    fn read_fields(r: &mut wire::Reader) -> Option<Self> {
        let max_disc = r.u64()?;
        let done_since = r.opt_u64_vec()?;
        let now = r.u64()?;
        let pending = r.usize_vec()?;
        let armed = r.bool_vec()?;
        let primed = r.bool()?;
        let n = done_since.len();
        if armed.len() != n || pending.iter().any(|&p| p >= n) {
            return None;
        }
        Some(OpenLoopPolicy {
            max_disc,
            done_since,
            now,
            pending,
            armed,
            primed,
        })
    }
}

impl OraclePolicy for OpenLoopPolicy {
    fn update(&mut self, flags: &mut RequestFlags, view: &PolicyView) {
        self.now += 1;
        for &p in &self.pending {
            self.armed[p] = false;
        }
        self.pending.clear();
        if !self.primed {
            // Priming tick (always a full one, in both the simulator and
            // the differential harness): start with an empty request set.
            self.primed = true;
            for p in 0..view.status.len() {
                flags.set_in(p, false);
            }
        }
        for p in 0..view.status.len() {
            self.derive(p, view.status[p], flags);
        }
    }

    fn update_delta(&mut self, flags: &mut RequestFlags, view: &PolicyView, changed: &[usize]) {
        self.now += 1;
        for &p in changed {
            self.derive(p, view.status[p], flags);
        }
        self.fire_due(flags, view);
    }

    fn quiescence_horizon(&self) -> u64 {
        self.max_disc + 2
    }

    fn save_state(&self, out: &mut Vec<u8>) -> bool {
        wire::put_u8(out, TAG_OPENLOOP);
        wire::put_u64(out, self.max_disc);
        wire::put_opt_u64_slice(out, &self.done_since);
        wire::put_u64(out, self.now);
        wire::put_usize_slice(out, &self.pending);
        wire::put_bool_slice(out, &self.armed);
        wire::put_bool(out, self.primed);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(status: Vec<Status>, in_meeting: Vec<bool>) -> PolicyView {
        PolicyView { status, in_meeting }
    }

    #[test]
    fn eager_raises_out_after_max_disc() {
        let mut pol = EagerPolicy::new(1, 2);
        let mut f = RequestFlags::new(1);
        let v = view(vec![Status::Done], vec![true]);
        pol.update(&mut f, &v);
        assert!(!f.request_out(0), "0 steps done");
        pol.update(&mut f, &v);
        assert!(!f.request_out(0), "1 step done");
        pol.update(&mut f, &v);
        assert!(f.request_out(0), "2 steps done: voluntary discussion over");
        // Stays raised until the professor leaves.
        pol.update(&mut f, &v);
        assert!(f.request_out(0));
        pol.update(&mut f, &view(vec![Status::Idle], vec![false]));
        assert!(!f.request_out(0), "reset on leaving");
    }

    #[test]
    fn eager_zero_disc_is_immediate() {
        let mut pol = EagerPolicy::new(1, 0);
        let mut f = RequestFlags::new(1);
        pol.update(&mut f, &view(vec![Status::Done], vec![true]));
        assert!(f.request_out(0));
    }

    #[test]
    fn infinite_meetings_never_release_live_participants() {
        let mut pol = InfiniteMeetingPolicy;
        let mut f = RequestFlags::new(2);
        let v = view(vec![Status::Done, Status::Done], vec![true, false]);
        pol.update(&mut f, &v);
        assert!(!f.request_out(0), "live meeting: stay forever");
        assert!(f.request_out(1), "terminated-meeting debris: leave");
    }

    #[test]
    fn stochastic_is_deterministic_per_seed() {
        let run = |seed| {
            let mut pol = StochasticPolicy::new(3, seed, 0.5, 1..4);
            let mut f = RequestFlags::new(3);
            let mut outs = Vec::new();
            for _ in 0..20 {
                pol.update(
                    &mut f,
                    &view(
                        vec![Status::Idle, Status::Done, Status::Looking],
                        vec![false, true, false],
                    ),
                );
                outs.push((f.request_in(0), f.request_out(1)));
            }
            outs
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn stochastic_in_request_sticks_until_consumed() {
        let mut pol = StochasticPolicy::new(1, 1, 1.0, 1..2);
        let mut f = RequestFlags::new(1);
        pol.update(&mut f, &view(vec![Status::Idle], vec![false]));
        assert!(f.request_in(0), "p_in = 1.0 requests immediately");
        pol.update(&mut f, &view(vec![Status::Idle], vec![false]));
        assert!(f.request_in(0), "request persists while idle");
        pol.update(&mut f, &view(vec![Status::Looking], vec![false]));
        assert!(!f.request_in(0), "consumed once looking");
    }

    /// Drive a full-tick and a delta-tick twin of the same policy through a
    /// pseudo-random status trajectory; the flag trajectories must be
    /// identical at every tick.
    fn assert_delta_matches_full(mk: impl Fn() -> Box<dyn OraclePolicy>, label: &str) {
        use rand::rngs::StdRng;
        use rand::{Rng as _, SeedableRng as _};
        let n = 9;
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut full = mk();
            let mut delta = mk();
            let mut ff = RequestFlags::new(n);
            let mut fd = RequestFlags::new(n);
            let mut v = view(vec![Status::Idle; n], vec![false; n]);
            // Priming tick is a full tick in both (as Sim::wrap does).
            full.update(&mut ff, &v);
            delta.update(&mut fd, &v);
            for tick in 0..120 {
                // Mutate a few processes' view entries; they form `changed`.
                let mut changed = Vec::new();
                for _ in 0..rng.random_range(0..4usize) {
                    let p = rng.random_range(0..n);
                    v.status[p] = match rng.random_range(0..4u8) {
                        0 => Status::Idle,
                        1 => Status::Looking,
                        2 => Status::Waiting,
                        _ => Status::Done,
                    };
                    v.in_meeting[p] = rng.random_bool(0.5);
                    if !changed.contains(&p) {
                        changed.push(p);
                    }
                }
                // External scripting through `flags_mut` (applied to both
                // twins): a full tick overwrites every flag, so the delta
                // tick must re-derive the mutated processes — the Sim
                // feeds them into `changed` via its flag-flip tracking.
                if rng.random_bool(0.3) {
                    let p = rng.random_range(0..n);
                    let v_in = rng.random_bool(0.5);
                    let v_out = rng.random_bool(0.5);
                    ff.set_in(p, v_in);
                    ff.set_out(p, v_out);
                    fd.set_in(p, v_in);
                    fd.set_out(p, v_out);
                    if !changed.contains(&p) {
                        changed.push(p);
                    }
                }
                full.update(&mut ff, &v);
                delta.update_delta(&mut fd, &v, &changed);
                for p in 0..n {
                    assert_eq!(
                        (ff.request_in(p), ff.request_out(p)),
                        (fd.request_in(p), fd.request_out(p)),
                        "{label}: seed {seed} tick {tick} p{p}"
                    );
                }
            }
        }
    }

    #[test]
    fn eager_delta_matches_full() {
        for disc in [0u64, 1, 3] {
            assert_delta_matches_full(
                move || Box::new(EagerPolicy::new(9, disc)),
                &format!("eager/disc{disc}"),
            );
        }
    }

    #[test]
    fn infinite_meeting_delta_matches_full() {
        assert_delta_matches_full(|| Box::new(InfiniteMeetingPolicy), "infinite");
    }

    #[test]
    fn scripted_delta_matches_full() {
        assert_delta_matches_full(
            || {
                Box::new(ScriptedPolicy::new(
                    vec![true, false, true, false, true, false, true, false, true],
                    1,
                ))
            },
            "scripted",
        );
    }

    #[test]
    fn stochastic_delta_matches_full() {
        for (p_in, lo, hi) in [(0.5, 1, 4), (1.0, 1, 2), (0.05, 2, 9), (0.0, 1, 3)] {
            assert_delta_matches_full(
                move || Box::new(StochasticPolicy::new(9, 42, p_in, lo..hi)),
                &format!("stochastic/p{p_in}"),
            );
        }
    }

    #[test]
    fn open_loop_latches_external_requests() {
        let mut pol = OpenLoopPolicy::new(1, 1);
        let mut f = RequestFlags::new(1);
        let idle = view(vec![Status::Idle], vec![false]);
        pol.update(&mut f, &idle); // priming tick
        assert!(!f.request_in(0), "open loop starts with no demand");
        for _ in 0..5 {
            pol.update(&mut f, &idle);
            assert!(!f.request_in(0), "no spontaneous requests");
        }
        f.set_in(0, true); // external admission
        pol.update(&mut f, &idle);
        assert!(f.request_in(0), "latched while idle");
        pol.update(&mut f, &idle);
        assert!(f.request_in(0), "persists until consumed");
        pol.update(&mut f, &view(vec![Status::Looking], vec![false]));
        assert!(!f.request_in(0), "consumed once looking");
        pol.update(&mut f, &view(vec![Status::Idle], vec![false]));
        assert!(!f.request_in(0), "stays down after the cycle");
    }

    #[test]
    fn open_loop_raises_out_after_max_disc() {
        let mut pol = OpenLoopPolicy::new(1, 2);
        let mut f = RequestFlags::new(1);
        pol.update(&mut f, &view(vec![Status::Idle], vec![false]));
        let done = view(vec![Status::Done], vec![true]);
        pol.update(&mut f, &done);
        assert!(!f.request_out(0), "0 steps done");
        pol.update(&mut f, &done);
        assert!(!f.request_out(0), "1 step done");
        pol.update(&mut f, &done);
        assert!(f.request_out(0), "2 steps done: voluntary discussion over");
        pol.update(&mut f, &view(vec![Status::Idle], vec![false]));
        assert!(!f.request_out(0), "reset on leaving");
    }

    #[test]
    fn open_loop_delta_matches_full() {
        for disc in [0u64, 1, 3] {
            assert_delta_matches_full(
                move || Box::new(OpenLoopPolicy::new(9, disc)),
                &format!("open_loop/disc{disc}"),
            );
        }
    }

    #[test]
    fn stochastic_zero_p_in_never_requests() {
        let mut pol = StochasticPolicy::new(2, 9, 0.0, 1..3);
        let mut f = RequestFlags::new(2);
        f.set_in(0, false);
        f.set_in(1, false);
        let v = view(vec![Status::Idle, Status::Idle], vec![false, false]);
        for _ in 0..50 {
            pol.update(&mut f, &v);
            assert!(!f.request_in(0) && !f.request_in(1), "p_in = 0 never fires");
        }
    }

    #[test]
    fn default_update_delta_falls_back_to_full() {
        // The trait default must remain "run the full tick" — policies that
        // opt out of delta awareness stay correct without any override.
        struct CountingPolicy(u64);
        impl OraclePolicy for CountingPolicy {
            fn update(&mut self, flags: &mut RequestFlags, view: &PolicyView) {
                self.0 += 1;
                for p in 0..view.status.len() {
                    flags.set_in(p, self.0.is_multiple_of(2));
                }
            }
        }
        let mut a = CountingPolicy(0);
        let mut b = CountingPolicy(0);
        let mut fa = RequestFlags::new(3);
        let mut fb = RequestFlags::new(3);
        let v = view(vec![Status::Idle; 3], vec![false; 3]);
        for _ in 0..6 {
            a.update(&mut fa, &v);
            b.update_delta(&mut fb, &v, &[]);
            assert_eq!(fa, fb, "default delta tick is the full tick");
        }
        assert_eq!(a.0, b.0);
    }

    /// Snapshot a policy mid-trajectory, restore it through the tag
    /// dispatcher, and check the restored twin's future flag trajectory is
    /// identical to the original's.
    fn assert_save_restore_resumes(mk: impl Fn() -> Box<dyn OraclePolicy>, label: &str) {
        use rand::rngs::StdRng;
        use rand::{Rng as _, SeedableRng as _};
        let n = 7;
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let mut pol = mk();
        let mut flags = RequestFlags::new(n);
        let mut v = view(vec![Status::Idle; n], vec![false; n]);
        let stir = |v: &mut PolicyView, rng: &mut StdRng| {
            for _ in 0..rng.random_range(0..4usize) {
                let p = rng.random_range(0..n);
                v.status[p] = match rng.random_range(0..4u8) {
                    0 => Status::Idle,
                    1 => Status::Looking,
                    2 => Status::Waiting,
                    _ => Status::Done,
                };
                v.in_meeting[p] = rng.random_bool(0.5);
            }
        };
        for _ in 0..25 {
            stir(&mut v, &mut rng);
            pol.update(&mut flags, &v);
        }
        let mut blob = Vec::new();
        assert!(pol.save_state(&mut blob), "{label}: persistable");
        let mut flag_blob = Vec::new();
        flags.save_state(&mut flag_blob);
        let mut twin = restore_policy(&blob).expect(label);
        let mut twin_flags =
            RequestFlags::restore_state(&mut wire::Reader::new(&flag_blob)).expect(label);
        assert_eq!(flags, twin_flags, "{label}: flags roundtrip");
        for tick in 0..60 {
            stir(&mut v, &mut rng);
            pol.update(&mut flags, &v);
            twin.update(&mut twin_flags, &v);
            for p in 0..n {
                assert_eq!(
                    (flags.request_in(p), flags.request_out(p)),
                    (twin_flags.request_in(p), twin_flags.request_out(p)),
                    "{label}: tick {tick} p{p}"
                );
            }
        }
        // Truncated blobs are rejected, never panics.
        wire::fails_closed(None, &blob, |b| restore_policy(b).is_some());
    }

    #[test]
    fn eager_save_restore_resumes() {
        assert_save_restore_resumes(|| Box::new(EagerPolicy::new(7, 2)), "eager");
    }

    #[test]
    fn infinite_save_restore_resumes() {
        assert_save_restore_resumes(|| Box::new(InfiniteMeetingPolicy), "infinite");
    }

    #[test]
    fn stochastic_save_restore_resumes() {
        assert_save_restore_resumes(
            || Box::new(StochasticPolicy::new(7, 99, 0.4, 1..5)),
            "stochastic",
        );
    }

    #[test]
    fn scripted_save_restore_resumes() {
        assert_save_restore_resumes(
            || {
                Box::new(ScriptedPolicy::new(
                    vec![true, false, true, true, false, true, false],
                    1,
                ))
            },
            "scripted",
        );
    }

    #[test]
    fn open_loop_save_restore_resumes() {
        assert_save_restore_resumes(|| Box::new(OpenLoopPolicy::new(7, 2)), "open-loop");
    }

    #[test]
    fn restore_rejects_unknown_tag_and_trailing_garbage() {
        assert!(restore_policy(&[]).is_none());
        assert!(restore_policy(&[200]).is_none(), "unknown tag");
        let mut blob = Vec::new();
        assert!(InfiniteMeetingPolicy.save_state(&mut blob));
        assert!(restore_policy(&blob).is_some());
        blob.push(0);
        assert!(restore_policy(&blob).is_none(), "trailing garbage");
    }

    #[test]
    fn default_save_state_refuses() {
        struct Custom;
        impl OraclePolicy for Custom {
            fn update(&mut self, _flags: &mut RequestFlags, _view: &PolicyView) {}
        }
        let mut out = Vec::new();
        assert!(!Custom.save_state(&mut out));
        assert!(out.is_empty());
    }

    #[test]
    fn scripted_mask_overrides_in() {
        let mut pol = ScriptedPolicy::new(vec![true, false], 0);
        let mut f = RequestFlags::new(2);
        pol.update(
            &mut f,
            &view(vec![Status::Idle, Status::Idle], vec![false, false]),
        );
        assert!(f.request_in(0));
        assert!(!f.request_in(1), "professor 1 never requests (Fig 3's #4)");
    }
}
