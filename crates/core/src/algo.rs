//! The committee-algorithm abstraction `CC1`/`CC2`/`CC3` share, as consumed
//! by the composition `CC ∘ TC` (paper Remark 1).
//!
//! A committee algorithm is *almost* a [`sscc_runtime::prelude::GuardedAlgorithm`],
//! except that it imports two things from the token substrate: the predicate
//! `Token(p)` (a `bool` input to guards/statements) and the statement
//! `ReleaseToken_p` (a `bool` output: "emit a release"). The composition in
//! [`crate::compose`] wires those to a [`sscc_token::TokenLayer`].

use crate::oracle::RequestEnv;
use crate::status::{ActionClass, CommitteeView};
use sscc_hypergraph::{Hypergraph, MutationDelta};
use sscc_runtime::prelude::{ActionId, ArbitraryState, Ctx, ProcessState, StateAccess};

/// A committee coordination local algorithm with token inputs/outputs.
pub trait CommitteeAlgorithm {
    /// Per-process state.
    type State: ProcessState + ArbitraryState + CommitteeView;

    /// Number of actions in code order.
    fn action_count(&self) -> usize;

    /// Paper label of action `a` (e.g. `"Step21"`).
    fn action_name(&self, a: ActionId) -> String;

    /// Semantic class of action `a` (for ledgers/monitors).
    fn action_class(&self, a: ActionId) -> ActionClass;

    /// Clean-boot state.
    fn initial_state(&self, h: &Hypergraph, me: usize) -> Self::State;

    /// The priority enabled action given `Token(p) = token`.
    ///
    /// Generic over the accessor `A` so guard evaluation monomorphizes on
    /// the engine hot path (`A` is a slice or a projection over one).
    fn priority_action<E: RequestEnv + ?Sized, A: StateAccess<Self::State> + ?Sized>(
        &self,
        ctx: &Ctx<'_, Self::State, E, A>,
        token: bool,
    ) -> Option<ActionId>;

    /// The `full_scan` switch: evaluate through the paper's guards one by
    /// one (the per-guard *reference*) instead of the allocation-free guard
    /// cascade. `Sim::configure` turns it on exactly under
    /// [`EvalPath::FullScan`](sscc_runtime::prelude::EvalPath::FullScan),
    /// so the differential suite compares the cascade against the textbook
    /// guards on every step. Bit-identical results either way; no-op for
    /// algorithms that only have one evaluator.
    fn set_reference_eval(&mut self, on: bool) {
        let _ = on;
    }

    /// Inert. The evaluator no longer has a fact-mirror switch: it reads the
    /// mirror exactly while the engine keeps it in sync
    /// ([`rebuild_facts`](CommitteeAlgorithm::rebuild_facts) …
    /// [`drop_facts`](CommitteeAlgorithm::drop_facts)). Kept only because
    /// the frozen `benchmark/src/replica.rs` calls it; ROADMAP item 2
    /// deletes it with the benchmark's other pins.
    fn set_value_level(&mut self, on: bool) {
        let _ = on;
    }

    /// Rebuild the committee-fact mirror (counters and fact bits) from the
    /// members of every committee of a full configuration. Called through
    /// the composition's `init_commit_notes`; from here until
    /// [`drop_facts`](CommitteeAlgorithm::drop_facts) the engine reports
    /// every write through
    /// [`apply_write`](CommitteeAlgorithm::apply_write), so
    /// [`priority_action`](CommitteeAlgorithm::priority_action) may test
    /// fact bits instead of scanning members.
    fn rebuild_facts<X: StateAccess<Self::State> + ?Sized>(&mut self, h: &Hypergraph, states: &X);

    /// The engine stopped keeping the mirror in sync: evaluate by member
    /// scan until the next
    /// [`rebuild_facts`](CommitteeAlgorithm::rebuild_facts).
    fn drop_facts(&mut self);

    /// Diagnostic: is the mirror — when live — exactly what
    /// [`rebuild_facts`](CommitteeAlgorithm::rebuild_facts) would derive
    /// from `states`? `O(Σ|ε|)`; the incremental upkeep's test oracle.
    fn facts_in_sync<X: StateAccess<Self::State> + ?Sized>(
        &self,
        h: &Hypergraph,
        states: &X,
    ) -> bool;

    /// Did the *neighbor-visible* part of a committee state change between
    /// `old` and `new`? When `false`, no neighbor's committee guard can
    /// change enabledness and no edge fact can move, so the composition
    /// skips [`apply_write`](CommitteeAlgorithm::apply_write). The default
    /// treats the whole state as visible; override to exclude self-only
    /// fields (e.g. a round-robin cursor).
    fn committee_visible_changed(&self, old: &Self::State, new: &Self::State) -> bool {
        old != new
    }

    /// Process `p`'s committee state visibly changed from `old` to
    /// `states.state(p)` while the mirror is live (other writes of the same
    /// step may or may not have landed): apply the old→new delta to the
    /// counters of `p`'s incident committees — `O(deg(p))`, no member scan.
    /// Who has to be re-evaluated is decided from the step's *net* effect,
    /// by [`flush_facts`](CommitteeAlgorithm::flush_facts).
    fn apply_write<X: StateAccess<Self::State> + ?Sized>(
        &mut self,
        h: &Hypergraph,
        states: &X,
        p: usize,
        old: &Self::State,
    );

    /// All writes of the step landed: `mark` the members of every committee
    /// whose facts net-flipped, and of every still-free committee whose
    /// local maximum re-pointed (the one neighbor *field* a guard reads
    /// besides the facts).
    fn flush_facts<X: StateAccess<Self::State> + ?Sized>(
        &mut self,
        h: &Hypergraph,
        states: &X,
        mark: impl FnMut(usize),
    );

    /// Sanitize one process's committee state after a topology mutation
    /// (`h` is the post-mutation graph). The committee state's domain is
    /// topology-relative (`P_p ∈ E_p ∪ {⊥}`, a cursor into `E_p`), so a
    /// mutation must translate edge references through
    /// [`MutationDelta::remap_edge`] and clear any that no longer resolve
    /// to an incident committee — a pointer into a dissolved committee
    /// repairs to `⊥`, exactly like transient-fault debris under `Stab1`/
    /// `Stab2`, just eagerly and deterministically. Returns `true` iff the
    /// state changed (callers collect these processes for fact repair).
    fn repair_state(
        &self,
        h: &Hypergraph,
        delta: &MutationDelta,
        me: usize,
        st: &mut Self::State,
    ) -> bool {
        let _ = (h, delta, me, st);
        false
    }

    /// Repair the committee-fact mirror in place after a topology mutation:
    /// translate the per-edge arrays through
    /// [`MutationDelta::remap_per_edge`] and re-derive, from members, the
    /// facts of the changed committees plus every committee incident to a
    /// process whose state
    /// [`repair_state`](CommitteeAlgorithm::repair_state) altered.
    /// Returns `true` iff the mirror is again in sync with the committed
    /// configuration; `false` (the default — no mirror, or the mirror was
    /// not live) routes the caller onto the full-rebuild path.
    fn repair_facts<X: StateAccess<Self::State> + ?Sized>(
        &mut self,
        h: &Hypergraph,
        delta: &MutationDelta,
        states: &X,
        repaired: &[usize],
    ) -> bool {
        let _ = (h, delta, states, repaired);
        false
    }

    /// Execute `a`; returns the next state and whether `ReleaseToken_p` was
    /// emitted.
    fn execute<E: RequestEnv + ?Sized, A: StateAccess<Self::State> + ?Sized>(
        &self,
        ctx: &Ctx<'_, Self::State, E, A>,
        a: ActionId,
        token: bool,
    ) -> (Self::State, bool);
}
