//! Incremental maintenance of minimal p-faithful scenarios (end of
//! Section 4).
//!
//! The explainer maintains, for a growing run `ρ`:
//!
//! * `per_event[f] = T_p^ω(ρ, {f})` — the minimal boundary/modification
//!   p-faithful "explanation" of each individual event `f`, and
//! * `main = T_p^ω(ρ, α)` where `α` is the set of events visible at `p` —
//!   the minimal p-faithful scenario.
//!
//! When an event `e` arrives, only *single* incremental updates are needed
//! (no fixpoint from scratch), exploiting the additivity of `T_p`
//! (Lemma A.1):
//!
//! 1. `per_event[e] = {e} ∪ ⋃ { per_event[g] | g ∈ direct-requirements(e) }`;
//! 2. for an old `f`, if `e` is the right boundary of an open lifecycle of a
//!    key occurring in `per_event[f]` — i.e. `e ∈ T_p(ρ.e, per_event[f])` —
//!    then `per_event[f] ∪= per_event[e]`, otherwise it is unchanged;
//! 3. `main ∪= per_event[e]` iff `e` is visible at `p` or `e` closes a
//!    lifecycle used by `main`; otherwise unchanged.
//!
//! The direct requirements of step 1 come from the same walker that
//! [`crate::tp_closure`] and [`crate::why()`] use. Tests cross-check every
//! maintained set against from-scratch fixpoints.

use cwf_engine::{EngineError, Event, GroundUpdate, Run};
use cwf_model::PeerId;

use crate::index::RunIndex;
use crate::set::EventSet;
use crate::tp::{for_each_requirement, tp_closure};

/// Incrementally maintained explanations of a growing run.
#[derive(Debug, Clone)]
pub struct IncrementalExplainer {
    run: Run,
    peer: PeerId,
    index: RunIndex,
    main: EventSet,
    per_event: Vec<EventSet>,
}

impl IncrementalExplainer {
    /// Wraps an existing run, computing the initial state (from scratch, in
    /// polynomial time).
    pub fn new(run: Run, peer: PeerId) -> Self {
        let index = RunIndex::build(&run);
        let n = run.len();
        let per_event = (0..n)
            .map(|i| tp_closure(&run, &index, peer, &EventSet::from_iter(n, [i])))
            .collect();
        let main = tp_closure(
            &run,
            &index,
            peer,
            &EventSet::from_iter(n, run.visible_events(peer)),
        );
        IncrementalExplainer {
            run,
            peer,
            index,
            main,
            per_event,
        }
    }

    /// The underlying run.
    pub fn run(&self) -> &Run {
        &self.run
    }

    /// The observing peer.
    pub fn peer(&self) -> PeerId {
        self.peer
    }

    /// The event set of the minimal p-faithful scenario (`T_p^ω(ρ, α)`).
    pub fn minimal_events(&self) -> &EventSet {
        &self.main
    }

    /// The minimal explanation of individual event `f` (`T_p^ω(ρ, {f})`).
    pub fn explanation_of(&self, f: usize) -> &EventSet {
        &self.per_event[f]
    }

    /// Replays the minimal p-faithful scenario as a subrun.
    pub fn minimal_scenario(&self) -> Run {
        self.run
            .try_subrun(&self.main.to_vec())
            .expect("Lemma 4.6: the maintained set is faithful, hence a subrun")
    }

    /// Appends an event and updates all maintained explanations.
    pub fn push(&mut self, event: Event) -> Result<(), EngineError> {
        self.run.push(event)?;
        self.index.extend(&self.run);
        let n = self.run.len();
        let j = n - 1;
        self.main.grow(n);
        for s in &mut self.per_event {
            s.grow(n);
        }
        // (1) The new event's own explanation: {j} plus the (old, hence
        // still-valid) explanations of its direct requirements.
        let mut expl_j = EventSet::from_iter(n, [j]);
        for g in self.direct_requirements(j) {
            if g != j {
                expl_j = expl_j.union(&self.per_event[g]);
            }
        }
        // j's requirements of *itself* via closed lifecycles are covered by
        // membership; second-order requirements of pulled-in events are
        // already inside their memoized closures.
        self.per_event.push(expl_j);
        // (2) Old explanations that now require j (j closes a lifecycle one
        // of their members uses).
        let closed = self.lifecycles_closed_by(j);
        let expl_j = self.per_event[j].clone();
        for f in 0..j {
            if self.set_uses_closed_lifecycle(&self.per_event[f], &closed) {
                self.per_event[f] = self.per_event[f].union(&expl_j);
            }
        }
        // (3) The main scenario.
        let needs_j = self.run.visible_at(j, self.peer)
            || self.set_uses_closed_lifecycle(&self.main, &closed);
        if needs_j {
            self.main = self.main.union(&expl_j);
        }
        Ok(())
    }

    /// The direct (one-step) requirements of event `j`: lifecycle boundaries
    /// and relevant modifications for every key occurrence of `j`.
    fn direct_requirements(&self, j: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for_each_requirement(&self.run, &self.index, self.peer, j, |i, _| out.push(i));
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The `(rel, key, lifecycle)` triples whose lifecycle `j` closes.
    fn lifecycles_closed_by(
        &self,
        j: usize,
    ) -> Vec<(cwf_model::RelId, cwf_model::Value, crate::index::Lifecycle)> {
        let spec = self.run.spec();
        let mut out = Vec::new();
        for upd in self.run.event(j).ground_updates(spec) {
            if let GroundUpdate::Delete { rel, key } = upd {
                if let Some(lc) = self
                    .index
                    .lifecycles_of(rel, &key)
                    .iter()
                    .find(|lc| lc.end == Some(j))
                {
                    out.push((rel, key, *lc));
                }
            }
        }
        out
    }

    /// Does `set` contain a member using one of the given closed lifecycles
    /// (so that the closing event becomes required)?
    fn set_uses_closed_lifecycle(
        &self,
        set: &EventSet,
        closed: &[(cwf_model::RelId, cwf_model::Value, crate::index::Lifecycle)],
    ) -> bool {
        if closed.is_empty() {
            return false;
        }
        for m in set.iter() {
            for (rel, key, lc) in closed {
                if lc.contains(m)
                    && self
                        .index
                        .key_occurrences(m)
                        .get(rel)
                        .is_some_and(|ks| ks.contains(key))
                {
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwf_engine::Bindings;
    use cwf_lang::parse_workflow;
    use std::sync::Arc;

    fn spec() -> Arc<cwf_lang::WorkflowSpec> {
        Arc::new(
            parse_workflow(
                r#"
                schema { Ok(K); Approval(K); }
                peers {
                    cto sees Ok(*), Approval(*);
                    ceo sees Ok(*), Approval(*);
                    assistant sees Ok(*), Approval(*);
                    applicant sees Approval(*);
                }
                rules {
                    e @ cto: +Ok(0) :- ;
                    f @ cto: -key Ok(0) :- Ok(0);
                    g @ ceo: +Ok(0) :- ;
                    h @ assistant: +Approval(0) :- Ok(0);
                }
                "#,
            )
            .unwrap(),
        )
    }

    fn ground(spec: &cwf_lang::WorkflowSpec, name: &str) -> Event {
        let rid = spec.program().rule_by_name(name).unwrap();
        Event::new(spec, rid, Bindings::empty(0)).unwrap()
    }

    /// The invariant: every maintained set equals its from-scratch fixpoint.
    fn check_consistent(x: &IncrementalExplainer) {
        let run = x.run();
        let index = RunIndex::build(run);
        let n = run.len();
        for f in 0..n {
            let scratch = tp_closure(run, &index, x.peer(), &EventSet::from_iter(n, [f]));
            assert_eq!(
                x.explanation_of(f),
                &scratch,
                "per-event explanation of {f} diverged"
            );
        }
        let scratch_main = tp_closure(
            run,
            &index,
            x.peer(),
            &EventSet::from_iter(n, run.visible_events(x.peer())),
        );
        assert_eq!(x.minimal_events(), &scratch_main, "main scenario diverged");
    }

    #[test]
    fn example_4_2_incrementally() {
        let spec = spec();
        let applicant = spec.collab().peer("applicant").unwrap();
        let mut x = IncrementalExplainer::new(Run::new(Arc::clone(&spec)), applicant);
        for name in ["e", "f", "g", "h"] {
            x.push(ground(&spec, name)).unwrap();
            check_consistent(&x);
        }
        assert_eq!(x.minimal_events().to_vec(), vec![2, 3], "g then h");
        assert_eq!(x.minimal_scenario().len(), 2);
        // The explanation of e (invisible at the applicant) includes its
        // lifecycle closer f.
        assert_eq!(x.explanation_of(0).to_vec(), vec![0, 1]);
    }

    #[test]
    fn closing_event_updates_older_explanations() {
        let spec = spec();
        let applicant = spec.collab().peer("applicant").unwrap();
        let mut x = IncrementalExplainer::new(Run::new(Arc::clone(&spec)), applicant);
        x.push(ground(&spec, "e")).unwrap();
        // Before f arrives, e's explanation is {e} (open lifecycle).
        assert_eq!(x.explanation_of(0).to_vec(), vec![0]);
        x.push(ground(&spec, "f")).unwrap();
        // f closes e's lifecycle: e's explanation gains f.
        assert_eq!(x.explanation_of(0).to_vec(), vec![0, 1]);
        check_consistent(&x);
    }

    #[test]
    fn main_gains_closing_events() {
        // applicant-visible event first (h needs Ok, so use a run where the
        // visible event's lifecycle is later closed).
        let spec = spec();
        let applicant = spec.collab().peer("applicant").unwrap();
        let mut x = IncrementalExplainer::new(Run::new(Arc::clone(&spec)), applicant);
        x.push(ground(&spec, "e")).unwrap(); // 0: +Ok by cto
        x.push(ground(&spec, "h")).unwrap(); // 1: +Approval, visible
        check_consistent(&x);
        assert_eq!(x.minimal_events().to_vec(), vec![0, 1]);
        // Now the cto retracts: f closes Ok's lifecycle, which the main
        // scenario uses ⇒ f joins the scenario.
        x.push(ground(&spec, "f")).unwrap(); // 2: -Ok
        check_consistent(&x);
        assert_eq!(x.minimal_events().to_vec(), vec![0, 1, 2]);
    }

    #[test]
    fn new_on_nonempty_run_matches_incremental() {
        let spec = spec();
        let applicant = spec.collab().peer("applicant").unwrap();
        // Build a run first, then wrap.
        let mut run = Run::new(Arc::clone(&spec));
        for n in ["e", "f", "g", "h"] {
            run.push(ground(&spec, n)).unwrap();
        }
        let from_scratch = IncrementalExplainer::new(run, applicant);
        check_consistent(&from_scratch);
        let mut incremental = IncrementalExplainer::new(Run::new(Arc::clone(&spec)), applicant);
        for n in ["e", "f", "g", "h"] {
            incremental.push(ground(&spec, n)).unwrap();
        }
        assert_eq!(from_scratch.minimal_events(), incremental.minimal_events());
    }

    #[test]
    fn push_propagates_engine_errors() {
        let spec = spec();
        let applicant = spec.collab().peer("applicant").unwrap();
        let mut x = IncrementalExplainer::new(Run::new(Arc::clone(&spec)), applicant);
        // h requires Ok: not applicable on the empty instance.
        assert!(x.push(ground(&spec, "h")).is_err());
        assert_eq!(x.run().len(), 0, "failed push leaves the run unchanged");
    }
}
