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
//! Search arenas reuse scratch states across sibling branches:
//! [`ScratchRun::try_push_into`] applies an event to a parent slot and
//! fills the child slot only on success, through `Clone::clone_from`, which
//! the columnar stores turn into buffer reuse instead of fresh allocations.

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
#[derive(Debug)]
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

impl ScratchRun {
    /// An empty state over `initial`: the avoid-set starts as
    /// `const(P) ∪ adom(initial)`.
    pub fn new(spec: Arc<WorkflowSpec>, initial: Instance) -> Self {
        let mut past_adom = spec.program().const_set();
        past_adom.remove(&Value::Null);
        past_adom.extend(initial.adom());
        let plane = ViewPlane::new(spec.collab(), &initial);
        ScratchRun {
            spec,
            current: initial,
            plane,
            past_adom,
            last_deltas: Vec::new(),
            len: 0,
        }
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
        let mut state = ScratchRun::new(spec, initial.clone());
        for diff in diffs {
            state.avoid_introduced(diff);
        }
        state.plane = ViewPlane::new(state.spec.collab(), &current);
        state.current = current;
        state.len = diffs.len();
        state
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
    pub(crate) fn used_values(&self) -> &BTreeSet<Value> {
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
        self.last_deltas.iter().any(|(q, _)| *q == p)
    }

    /// Appends an event under the admission rule of the module docs —
    /// global freshness of head-only values, then the transition on the
    /// acting peer's maintained view. On error the state is untouched.
    pub fn try_push(&mut self, event: &Event) -> Result<(), EngineError> {
        let applied = self.step(event)?;
        self.commit(applied.instance, &applied.diff);
        Ok(())
    }

    /// Writes into `dst` the state [`ScratchRun::try_push`] would leave on a
    /// clone of `self`, without cloning first: the event is applied to this
    /// state, and `dst` is overwritten (reusing its buffers) only on
    /// success. An accepted event costs the transition's one instance copy
    /// instead of a clone plus that copy; an event rejected before the
    /// transition copies nothing. On error `dst` is untouched.
    pub fn try_push_into(&self, event: &Event, dst: &mut ScratchRun) -> Result<(), EngineError> {
        let applied = self.step(event)?;
        dst.spec.clone_from(&self.spec);
        dst.plane.clone_from(&self.plane);
        dst.past_adom.clone_from(&self.past_adom);
        dst.len = self.len;
        dst.commit(applied.instance, &applied.diff);
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
    /// state's current one.
    pub(crate) fn commit(&mut self, next: Instance, diff: &InstanceDiff) {
        self.avoid_introduced(diff);
        self.last_deltas = self.plane.step(self.spec.collab(), diff, &next);
        self.current = next;
        self.len += 1;
    }

    /// Adds the values `diff` brings into the active domain to the
    /// avoid-set: its created tuples' values and its modification
    /// after-values, `⊥` excluded. Deletions and before-values were already
    /// there.
    fn avoid_introduced(&mut self, diff: &InstanceDiff) {
        let created = diff.created.iter().flat_map(|(_, t)| t.values());
        let after = diff
            .modified
            .iter()
            .flat_map(|(_, _, changes)| changes.iter().map(|c| &c.after));
        self.past_adom
            .extend(created.chain(after).filter(|v| !v.is_null()).copied());
    }
}

impl Clone for ScratchRun {
    fn clone(&self) -> Self {
        ScratchRun {
            spec: Arc::clone(&self.spec),
            current: self.current.clone(),
            plane: self.plane.clone(),
            past_adom: self.past_adom.clone(),
            last_deltas: self.last_deltas.clone(),
            len: self.len,
        }
    }

    /// Reuses the destination's buffers where the columnar layout allows —
    /// this is what makes per-depth arena slots cheap to overwrite.
    fn clone_from(&mut self, src: &Self) {
        self.spec.clone_from(&src.spec);
        self.current.clone_from(&src.current);
        self.plane.clone_from(&src.plane);
        self.past_adom.clone_from(&src.past_adom);
        self.last_deltas.clone_from(&src.last_deltas);
        self.len = src.len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Bindings;
    use cwf_lang::parse_workflow;

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

    /// `clone_from` produces a state indistinguishable from a fresh clone.
    #[test]
    fn clone_from_matches_clone() {
        let spec = spec();
        let mut a = ScratchRun::new(Arc::clone(&spec), Instance::empty(spec.collab().schema()));
        a.try_push(&ground(&spec, "a1")).unwrap();
        a.try_push(&ground(&spec, "b1")).unwrap();
        // A dirty destination from a different branch.
        let mut slot = ScratchRun::new(Arc::clone(&spec), Instance::empty(spec.collab().schema()));
        slot.try_push(&ground(&spec, "a2")).unwrap();
        slot.clone_from(&a);
        let q = spec.collab().peer("q").unwrap();
        assert_eq!(slot.current(), a.current());
        assert_eq!(slot.view(q), a.view(q));
        assert_eq!(slot.len(), a.len());
        // Both continue identically.
        let e = ground(&spec, "ok");
        slot.try_push(&e).unwrap();
        a.try_push(&e).unwrap();
        assert_eq!(slot.current(), a.current());
    }

    /// `try_push_into` leaves `dst` exactly as a clone-then-push would, and
    /// a rejected event leaves `dst` untouched.
    #[test]
    fn push_into_matches_clone_then_push() {
        let spec = spec();
        let q = spec.collab().peer("q").unwrap();
        let mut parent =
            ScratchRun::new(Arc::clone(&spec), Instance::empty(spec.collab().schema()));
        parent.try_push(&ground(&spec, "a1")).unwrap();
        let mut dst = ScratchRun::new(Arc::clone(&spec), Instance::empty(spec.collab().schema()));
        dst.try_push(&ground(&spec, "a2")).unwrap();
        let stale = dst.clone();
        assert!(parent
            .try_push_into(&ground(&spec, "ok"), &mut dst)
            .is_err());
        assert_eq!(dst.current(), stale.current());
        assert_eq!(dst.len(), stale.len());
        let e = ground(&spec, "b1");
        parent.try_push_into(&e, &mut dst).unwrap();
        let mut expected = parent.clone();
        expected.try_push(&e).unwrap();
        assert_eq!(dst.current(), expected.current());
        assert_eq!(dst.view(q), expected.view(q));
        assert_eq!(dst.changed(q), expected.changed(q));
        assert_eq!(dst.len(), expected.len());
        assert_eq!(parent.len(), 1, "the parent state is read only");
        // Both continue identically, freshness set included.
        let e = ground(&spec, "ok");
        dst.try_push(&e).unwrap();
        expected.try_push(&e).unwrap();
        assert_eq!(dst.current(), expected.current());
    }
}
