//! The live admission state of a run, also used alone for search replays.
//!
//! [`ScratchRun`] keeps exactly the state needed to decide whether the next
//! event applies and what each peer observes of it: the current instance,
//! the incrementally maintained view plane, and the freshness avoid-set.
//! Its step is the one implementation of admission (Section 2): head-only
//! values must be globally fresh, the transition is evaluated on the acting
//! peer's view, and the values the diff introduces join the avoid-set.
//!
//! A [`Run`] is this state plus history: it holds a `ScratchRun` and keeps
//! the events, their diffs, and the derived planes beside it, so
//! [`Run::push`] and [`ScratchRun::try_push`] accept and reject exactly the
//! same events. On its own a `ScratchRun` is what the branch-and-bound
//! searches of `cwf-core` replay event subsequences with, millions of
//! times: cloning one is O(current state) rather than O(history), and a
//! push is one transition plus delta propagation.
//!
//! The searches take their steps in place: [`ScratchRun::apply`] advances
//! the state through the same bookkeeping as a push and returns an [`Undo`]
//! record, and [`ScratchRun::undo`] reverts the step from it — the instance
//! from the moved-out pre-instance, the view plane by stepping it with the
//! diff's inverse, the avoid-set and the last deltas from what the step
//! replaced. A branch-and-bound search thus owns one state and copies none
//! per node.
//!
//! A replay whose events so far are the run's own first events need not
//! run their transitions: the run has recorded what they did.
//! [`Run::prefix_state`] returns the state after the first `k` events from
//! the recorded history, and [`ScratchRun::apply_recorded`] advances such a
//! prefix state by the run's recorded diff of its next event. Both leave
//! exactly the state the transitions would; the recorded step's
//! precondition (the state *is* the run's prefix) is the caller's, checked
//! in debug builds. A recorded step is forward only: the search never
//! takes one back, because it moves its state along the run's prefix in
//! one direction (see `cwf-core`'s `minimum` module).

use std::collections::BTreeSet;
use std::sync::Arc;

use cwf_lang::WorkflowSpec;
use cwf_model::{Instance, InstanceDiff, PeerId, Value, ViewInstance};

use crate::error::EngineError;
use crate::event::Event;
use crate::run::Run;
use crate::transition::{apply_event_with_view, Applied};
use crate::view_plane::{ViewDelta, ViewPlane};

/// A run reduced to its live state: no event history, no intermediate
/// instances — just what the next push needs.
#[derive(Debug, Clone)]
pub struct ScratchRun {
    spec: Arc<WorkflowSpec>,
    current: Instance,
    plane: ViewPlane,
    /// `const(P) ∪ adom(initial) ∪ ⋃ adom(I_j)` — the values a fresh
    /// instantiation must avoid. Grown from each accepted diff: new values
    /// only ever enter through created tuples and modification
    /// after-values.
    past_adom: BTreeSet<Value>,
    /// The non-empty per-peer view deltas of the most recent push.
    last_deltas: Vec<(PeerId, ViewDelta)>,
    len: usize,
}

/// What [`ScratchRun::undo`] needs to take one in-place step back.
#[derive(Debug)]
#[must_use = "a step that is not undone stays applied"]
pub struct Undo {
    /// The pre-step instance, moved out by [`ScratchRun::apply`].
    pre: Instance,
    /// The step's diff, inverted: steps the view plane back.
    inverse: InstanceDiff,
    /// The deltas of the push before the step.
    last_deltas: Vec<(PeerId, ViewDelta)>,
    /// The values the step newly added to the avoid-set.
    added: Vec<Value>,
}

/// `const(P) ∪ adom(initial)`, `⊥` excluded: the avoid-set of an empty run.
fn base_avoid_set(spec: &WorkflowSpec, initial: &Instance) -> BTreeSet<Value> {
    let mut past_adom = spec.program().const_set();
    past_adom.remove(&Value::Null);
    past_adom.extend(initial.adom());
    past_adom
}

/// The values `diff` brings into the active domain: its created tuples'
/// values and its modification after-values, `⊥` excluded. Deletions and
/// before-values were already there.
fn introduced(diff: &InstanceDiff) -> impl Iterator<Item = Value> + '_ {
    let created = diff.created.iter().flat_map(|(_, t)| t.values());
    let after = diff
        .modified
        .iter()
        .flat_map(|(_, _, changes)| changes.iter().map(|c| &c.after));
    created.chain(after).filter(|v| !v.is_null()).copied()
}

impl ScratchRun {
    /// An empty state over `initial`: the avoid-set starts as
    /// `const(P) ∪ adom(initial)`.
    pub fn new(spec: Arc<WorkflowSpec>, initial: Instance) -> Self {
        let past_adom = base_avoid_set(&spec, &initial);
        ScratchRun::at(spec, initial, past_adom, 0)
    }

    /// An empty scratch run sharing `run`'s spec and starting from its
    /// initial instance — the seed of every subsequence replay.
    pub fn restart_of(run: &Run) -> Self {
        ScratchRun::new(run.spec_arc(), run.initial().clone())
    }

    /// The state `diffs` lead to from `initial`, given the instance
    /// `current` they produce, rebuilt without re-running the transitions:
    /// the view plane from `current`, the avoid-set from the diffs.
    pub(crate) fn rebuilt(
        spec: Arc<WorkflowSpec>,
        initial: &Instance,
        diffs: &[InstanceDiff],
        current: Instance,
    ) -> Self {
        let mut past_adom = base_avoid_set(&spec, initial);
        past_adom.extend(diffs.iter().flat_map(introduced));
        ScratchRun::at(spec, current, past_adom, diffs.len())
    }

    /// The state after `len` events at `current`, with its view plane built
    /// from `current` and no last deltas.
    fn at(spec: Arc<WorkflowSpec>, current: Instance, avoid: BTreeSet<Value>, len: usize) -> Self {
        ScratchRun {
            plane: ViewPlane::new(spec.collab(), &current),
            spec,
            current,
            past_adom: avoid,
            last_deltas: Vec::new(),
            len,
        }
    }

    /// This state with the last push's deltas set to those of `diff`, the
    /// recorded diff that led to the current instance — for a state rebuilt
    /// or cloned rather than stepped into.
    pub(crate) fn with_last_deltas_of(mut self, diff: &InstanceDiff) -> Self {
        self.last_deltas = ViewPlane::deltas(self.spec.collab(), diff, &self.current);
        self
    }

    /// Number of events pushed so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Has nothing been pushed yet?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The workflow spec.
    pub fn spec(&self) -> &WorkflowSpec {
        &self.spec
    }

    /// A shared handle to the spec.
    pub(crate) fn spec_arc(&self) -> Arc<WorkflowSpec> {
        Arc::clone(&self.spec)
    }

    /// The current instance.
    pub fn current(&self) -> &Instance {
        &self.current
    }

    /// Peer `p`'s incrementally maintained view of [`ScratchRun::current`].
    pub fn view(&self, p: PeerId) -> &ViewInstance {
        self.plane.view(p)
    }

    /// The values a fresh instantiation must avoid.
    pub fn used_values(&self) -> &BTreeSet<Value> {
        &self.past_adom
    }

    /// The non-empty per-peer view deltas of the most recent push, in
    /// peer-id order.
    pub(crate) fn last_deltas(&self) -> &[(PeerId, ViewDelta)] {
        &self.last_deltas
    }

    /// Did the most recent push change `p`'s view? Together with event
    /// ownership this is exactly the visibility test of Section 3
    /// (`I_{i−1}@p ≠ I_i@p` ⟺ the peer's delta is non-empty).
    pub fn changed(&self, p: PeerId) -> bool {
        self.delta(p).is_some()
    }

    /// The change the most recent push made to `p`'s view, `None` when it
    /// made none.
    pub fn delta(&self, p: PeerId) -> Option<&ViewDelta> {
        self.last_deltas
            .iter()
            .find_map(|(q, delta)| (*q == p).then_some(delta))
    }

    /// Appends an event under the admission rule of the module docs —
    /// global freshness of head-only values, then the transition on the
    /// acting peer's maintained view. On error the state is untouched.
    pub fn try_push(&mut self, event: &Event) -> Result<(), EngineError> {
        let applied = self.step(event)?;
        self.commit(applied.instance, &applied.diff);
        Ok(())
    }

    /// Decides `event` against this state and returns the successor
    /// without changing anything. Head-only variables must take values
    /// outside the avoid-set, and *distinct* head-only variables of one
    /// event pairwise distinct values (a mild strengthening of the paper
    /// that lets rules rely on the distinctness of created keys); then the
    /// transition is evaluated on the acting peer's maintained view.
    pub(crate) fn step(&self, event: &Event) -> Result<Applied, EngineError> {
        let rule = self.spec.program().rule(event.rule);
        let mut seen_fresh: Vec<&Value> = Vec::new();
        for var in rule.fresh_vars() {
            let v = event.valuation.get(var).expect("valuation is total");
            if self.past_adom.contains(v) || seen_fresh.contains(&v) {
                return Err(EngineError::NotGloballyFresh { value: *v });
            }
            seen_fresh.push(v);
        }
        apply_event_with_view(
            &self.spec,
            &self.current,
            self.plane.view(event.peer),
            event,
        )
    }

    /// Makes an accepted successor `next`, reached through `diff`, this
    /// state's current one, and returns the instance it replaces.
    pub(crate) fn commit(&mut self, next: Instance, diff: &InstanceDiff) -> Instance {
        let pre = std::mem::replace(&mut self.current, next);
        self.advanced(diff);
        pre
    }

    /// [`ScratchRun::try_push`] in place, returning the [`Undo`] record
    /// that takes the step back. On error the state is untouched.
    pub fn apply(&mut self, event: &Event) -> Result<Undo, EngineError> {
        let Applied { instance, diff, .. } = self.step(event)?;
        let added = introduced(&diff)
            .filter(|v| !self.past_adom.contains(v))
            .collect();
        let last_deltas = std::mem::take(&mut self.last_deltas);
        Ok(Undo {
            inverse: diff.inverse(),
            pre: self.commit(instance, &diff),
            last_deltas,
            added,
        })
    }

    /// Advances this state, which must be `run`'s own prefix of
    /// [`ScratchRun::len`] events, by the diff the run recorded for its
    /// next event: the state [`ScratchRun::apply`] of that event would
    /// leave, without re-running the transition. The step is forward only:
    /// it returns no [`Undo`]. The precondition is checked in debug builds
    /// only (it holds for every state seeded by [`Run::prefix_state`] and
    /// advanced only by this step).
    ///
    /// # Panics
    ///
    /// Panics if the run has no event at position `len()`.
    pub fn apply_recorded(&mut self, run: &Run) {
        let i = self.len;
        debug_assert!(
            std::ptr::eq(self.spec(), run.spec()) && self.current == run.rolled(i),
            "apply_recorded needs the run's own {i}-event prefix"
        );
        let diff = run.diff(i);
        diff.apply_to(&mut self.current);
        self.advanced(diff);
    }

    /// Takes back the [`ScratchRun::apply`] step `undo` was returned by,
    /// which must be the last step not yet undone: the state is again
    /// exactly what it was before.
    pub fn undo(&mut self, undo: Undo) {
        self.current = undo.pre;
        self.plane
            .step(self.spec.collab(), &undo.inverse, &self.current);
        for v in &undo.added {
            self.past_adom.remove(v);
        }
        self.last_deltas = undo.last_deltas;
        self.len -= 1;
    }

    /// The bookkeeping of an accepted step whose successor is already
    /// `current`: the avoid-set, the view plane and its deltas, the length.
    fn advanced(&mut self, diff: &InstanceDiff) {
        self.past_adom.extend(introduced(diff));
        self.last_deltas = self.plane.step(self.spec.collab(), diff, &self.current);
        self.len += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Bindings;
    use cwf_lang::parse_workflow;
    use proptest::prelude::*;

    fn spec() -> Arc<WorkflowSpec> {
        Arc::new(
            parse_workflow(
                r#"
                schema { V1(K); V2(K); C1(K); OK(K); }
                peers {
                    q sees V1(*), V2(*), C1(*), OK(*);
                    p sees OK(*);
                }
                rules {
                    a1 @ q: +V1(0) :- ;
                    a2 @ q: +V2(0) :- ;
                    b1 @ q: +C1(0) :- V1(0);
                    b2 @ q: +C1(0) :- V2(0);
                    ok @ q: +OK(0) :- C1(0);
                }
                "#,
            )
            .unwrap(),
        )
    }

    fn ground(spec: &WorkflowSpec, name: &str) -> Event {
        let id = spec.program().rule_by_name(name).unwrap();
        Event::new(spec, id, Bindings::empty(0)).unwrap()
    }

    /// Pushing the same events into a `Run` and a `ScratchRun` must agree on
    /// acceptance, current instance, and every peer view at every step.
    #[test]
    fn tracks_run_step_for_step() {
        let spec = spec();
        let mut run = Run::new(Arc::clone(&spec));
        let mut scratch = ScratchRun::restart_of(&run);
        let p = spec.collab().peer("p").unwrap();
        let q = spec.collab().peer("q").unwrap();
        for name in ["a1", "b1", "ok"] {
            let e = ground(&spec, name);
            run.push(e.clone()).unwrap();
            scratch.try_push(&e).unwrap();
            assert_eq!(scratch.current(), run.current());
            for peer in [p, q] {
                assert_eq!(scratch.view(peer), run.peer_view(peer));
                // Visibility of the just-pushed event agrees with the run's.
                let i = run.len() - 1;
                let own = run.event(i).peer == peer;
                assert_eq!(own || scratch.changed(peer), run.visible_at(i, peer));
            }
        }
        assert_eq!(scratch.len(), 3);
    }

    /// Rejections mirror `Run::push` and leave the state untouched.
    #[test]
    fn rejects_like_run_and_stays_consistent() {
        let spec = spec();
        let mut scratch =
            ScratchRun::new(Arc::clone(&spec), Instance::empty(spec.collab().schema()));
        // `ok` needs C1: rejected on the empty state.
        let before = scratch.current().clone();
        assert!(scratch.try_push(&ground(&spec, "ok")).is_err());
        assert_eq!(scratch.current(), &before);
        assert_eq!(scratch.len(), 0);
        // After the enabling chain it is accepted.
        scratch.try_push(&ground(&spec, "a1")).unwrap();
        scratch.try_push(&ground(&spec, "b1")).unwrap();
        scratch.try_push(&ground(&spec, "ok")).unwrap();
        assert_eq!(scratch.len(), 3);
    }

    /// Asserts that `got` equals `want` in every part: length, current
    /// instance, every peer view, avoid-set and last deltas.
    fn same(got: &ScratchRun, want: &ScratchRun, at: &str) -> Result<(), TestCaseError> {
        prop_assert_eq!(got.len(), want.len(), "length {}", at);
        prop_assert_eq!(got.current(), want.current(), "instance {}", at);
        for p in got.spec().collab().peer_ids() {
            prop_assert_eq!(got.view(p), want.view(p), "view of {:?} {}", p, at);
        }
        prop_assert_eq!(got.used_values(), want.used_values(), "avoid-set {}", at);
        prop_assert_eq!(got.last_deltas(), want.last_deltas(), "deltas {}", at);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Random walks over the chaos specs (fresh values, key deletions,
        /// in-place modifications, filtered views). One state walks the
        /// run's prefix forward by recorded steps only, as the search does.
        /// At every position both steps leave the state `Run::prefix_state`
        /// returns for the next position, and `undo` restores the pre-state
        /// of an `apply` in every part. Events of the walk applied out of
        /// place are either rejected, leaving the state untouched, or
        /// accepted and undone. Finally, applying the whole walk from a
        /// recorded half-way prefix and undoing every step in reverse
        /// returns to that prefix.
        #[test]
        fn undo_takes_every_step_back(seed in 0u64..1_000, which in 0usize..2) {
            use crate::chaos::{default_spec, modification_spec};
            use crate::simulate::Simulator;
            use rand::rngs::StdRng;
            use rand::SeedableRng;

            let spec = [default_spec(), modification_spec()][which].clone();
            let mut sim = Simulator::new(Run::new(spec), StdRng::seed_from_u64(seed));
            sim.steps(40).unwrap();
            let run = sim.into_run();
            let mut rejected = 0;
            let mut state = ScratchRun::restart_of(&run);
            for i in 0..run.len() {
                let pre = run.prefix_state(i);
                let next = run.prefix_state(i + 1);
                same(&state, &pre, &format!("before step {i}"))?;
                let undo = state.apply(run.event(i)).unwrap();
                same(&state, &next, &format!("after apply {i}"))?;
                state.undo(undo);
                same(&state, &pre, &format!("after undoing apply {i}"))?;
                state.apply_recorded(&run);
                same(&state, &next, &format!("after apply_recorded {i}"))?;
                // Out of place: the same event again, and a later one.
                for j in [i, i + 2].into_iter().filter(|&j| j < run.len()) {
                    match state.apply(run.event(j)) {
                        Ok(undo) => state.undo(undo),
                        Err(_) => rejected += 1,
                    }
                    same(&state, &next, &format!("after event {j} at {}", i + 1))?;
                }
            }
            prop_assert!(rejected > 0, "the walk exercised no rejection");
            let half = run.len() / 2;
            let mut state = ScratchRun::restart_of(&run);
            for _ in 0..half {
                state.apply_recorded(&run);
            }
            let start = run.prefix_state(half);
            same(&state, &start, "after the recorded half")?;
            let undos: Vec<Undo> = (half..run.len())
                .map(|i| state.apply(run.event(i)).unwrap())
                .collect();
            same(&state, &run.prefix_state(run.len()), "after the whole walk")?;
            for undo in undos.into_iter().rev() {
                state.undo(undo);
            }
            same(&state, &start, "after undoing the walk's second half")?;
        }
    }
}
