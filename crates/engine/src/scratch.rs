//! History-free replay state for search loops.
//!
//! The branch-and-bound searches of `cwf-core` replay event subsequences
//! millions of times. A full [`Run`] is the wrong vehicle for that: it keeps
//! every event and diff, plus every past instance a reader has asked for
//! (rebuilt from the diffs and cached), so cloning one at each search node
//! is O(history), and the old search recomputed `view_of` per step on top.
//!
//! [`ScratchRun`] keeps exactly the state needed to decide whether the next
//! event applies and what each peer observes of it: the current instance,
//! the incrementally maintained view plane, and the freshness avoid-set.
//! Cloning is O(current state); a push is one transition plus delta
//! propagation. [`ScratchRun::try_push`] accepts and rejects exactly the
//! events [`Run::push`] would — same freshness check, same transition, in
//! the same order — so searches driven by either are decision-identical.
//!
//! Search arenas reuse scratch states across sibling branches:
//! [`ScratchRun::try_push_into`] applies an event to a parent slot and
//! fills the child slot only on success, through `Clone::clone_from`, which
//! the columnar stores turn into buffer reuse instead of fresh allocations
//! (see [`crate::run`] for the full-run type).

use std::collections::BTreeSet;
use std::sync::Arc;

use cwf_lang::WorkflowSpec;
use cwf_model::{Instance, PeerId, Value, ViewInstance};

use crate::error::EngineError;
use crate::event::Event;
use crate::run::Run;
use crate::transition::{apply_event_with_view, Applied};
use crate::view_plane::{ViewDelta, ViewPlane};

/// A replayed subrun reduced to its live state: no event history, no
/// intermediate instances — just what the next push needs.
#[derive(Debug)]
pub struct ScratchRun {
    spec: Arc<WorkflowSpec>,
    current: Instance,
    plane: ViewPlane,
    /// `const(P) ∪ adom(initial) ∪ ⋃ adom(I_j)` — maintained exactly like
    /// [`Run::push`] does, so freshness decisions agree.
    past_adom: BTreeSet<Value>,
    /// The non-empty per-peer view deltas of the most recent push.
    last_deltas: Vec<(PeerId, ViewDelta)>,
    len: usize,
}

impl ScratchRun {
    /// An empty scratch run over `initial` (mirrors [`Run::with_initial`]).
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

    /// The current instance.
    pub fn current(&self) -> &Instance {
        &self.current
    }

    /// Peer `p`'s incrementally maintained view of [`ScratchRun::current`].
    pub fn view(&self, p: PeerId) -> &ViewInstance {
        self.plane.view(p)
    }

    /// Did the most recent push change `p`'s view? Together with event
    /// ownership this is exactly the visibility test of Section 3
    /// (`I_{i−1}@p ≠ I_i@p` ⟺ the peer's delta is non-empty).
    pub fn changed(&self, p: PeerId) -> bool {
        self.last_deltas.iter().any(|(q, _)| *q == p)
    }

    /// Appends an event under the same admission rules as [`Run::push`]:
    /// the global-freshness check first, then the transition evaluated on
    /// the acting peer's maintained view. On error the state is untouched.
    pub fn try_push(&mut self, event: &Event) -> Result<(), EngineError> {
        let applied = self.apply(event)?;
        self.absorb(applied);
        Ok(())
    }

    /// Writes into `dst` the state [`ScratchRun::try_push`] would leave on a
    /// clone of `self`, without cloning first: the event is applied to this
    /// state, and `dst` is overwritten (reusing its buffers) only on
    /// success. An accepted event costs the transition's one instance copy
    /// instead of a clone plus that copy; an event rejected before the
    /// transition copies nothing. On error `dst` is untouched.
    pub fn try_push_into(&self, event: &Event, dst: &mut ScratchRun) -> Result<(), EngineError> {
        let applied = self.apply(event)?;
        dst.spec.clone_from(&self.spec);
        dst.plane.clone_from(&self.plane);
        dst.past_adom.clone_from(&self.past_adom);
        dst.len = self.len;
        dst.absorb(applied);
        Ok(())
    }

    /// Decides `event` against this state — freshness, then the transition
    /// — and returns the successor without changing anything.
    fn apply(&self, event: &Event) -> Result<Applied, EngineError> {
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

    /// Makes an accepted transition this state's current one.
    fn absorb(&mut self, applied: Applied) {
        let next = applied.instance;
        let diff = applied.diff;
        for (_, t) in &diff.created {
            for v in t.values() {
                if !v.is_null() && !self.past_adom.contains(v) {
                    self.past_adom.insert(*v);
                }
            }
        }
        for (_, _, changes) in &diff.modified {
            for c in changes {
                if !c.after.is_null() && !self.past_adom.contains(&c.after) {
                    self.past_adom.insert(c.after);
                }
            }
        }
        self.last_deltas = self.plane.step(self.spec.collab(), &diff, &next);
        self.current = next;
        self.len += 1;
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
