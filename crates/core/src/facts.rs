//! Facts about a whole run, built once per run and stepped as it grows.
//!
//! The explanation queries are asked again and again of runs, and each of
//! them reads the same facts of the run: the faithfulness index
//! ([`RunIndex`]), the closed dependency sets `D(e_i)` the pruning cone is a
//! union of, the set of events visible at each peer, the relations each
//! event's head updates, and each peer's minimal faithful set
//! `T_p^ω(ρ, v̄)` (Thm 4.7). [`RunFacts`] keeps them in the run's facts slot
//! ([`Run::facts`]). Each part is built on its first read, so a caller that
//! reads one part builds only that part.
//!
//! The slot is stepped by push and emptied by pop. A push steps every
//! filled part from the new event's recorded diff, never from a past
//! instance: the index and the visible and head parts append the event, and
//! each faithful set advances by the additivity of `T_p` (Lemma A.1) — it
//! gains the new event `e` when `e` is visible at the peer or closes a
//! lifecycle one of its members uses, and is then closed from `e` alone.
//! The closed dependency sets have no per-event step: a push empties them
//! and the next read rebuilds them.

use std::sync::OnceLock;

use cwf_engine::{EventView, Run, StepFacts, ViewDelta};
use cwf_model::{PeerId, RelId};

use crate::cone::{build_closed_deps, build_peer_cone};
use crate::index::RunIndex;
use crate::set::EventSet;
use crate::tp::{close_from, tp_closure};

/// The cached facts of one run, each part filled on first read through
/// [`facts`] and stepped by every push. Two values are equal when the same
/// parts are filled with the same facts.
#[derive(Debug, PartialEq)]
pub struct RunFacts {
    index: OnceLock<RunIndex>,
    deps: OnceLock<Vec<EventSet>>,
    /// Per peer (by id): its pruning cone ([`crate::cone::peer_cone`]).
    cones: Vec<OnceLock<EventSet>>,
    /// Per peer (by id): the positions of the events visible at it.
    visible: Vec<OnceLock<EventSet>>,
    /// Per peer (by id): its observations, one per visible event.
    observations: Vec<OnceLock<Vec<Observation>>>,
    /// Per event: the relations its head updates, sorted and distinct.
    heads: OnceLock<Vec<Vec<RelId>>>,
    /// Per peer (by id): its minimal faithful set `T_p^ω(ρ, v̄)`.
    faithful: Vec<OnceLock<EventSet>>,
}

impl RunFacts {
    /// No part filled yet, sized for `run`'s peers.
    fn empty(run: &Run) -> Self {
        RunFacts {
            index: OnceLock::new(),
            deps: OnceLock::new(),
            cones: per_peer(run),
            visible: per_peer(run),
            observations: per_peer(run),
            heads: OnceLock::new(),
            faithful: per_peer(run),
        }
    }

    /// Every part of the facts of `run`, built from scratch beside the
    /// run's slot (which it neither reads nor fills).
    pub fn build(run: &Run) -> Self {
        let fresh = RunFacts::empty(run);
        Facts { run, slot: &fresh }.filled();
        fresh
    }
}

/// One empty part per peer of `run`.
fn per_peer<T>(run: &Run) -> Vec<OnceLock<T>> {
    (0..run.spec().collab().peer_count())
        .map(|_| OnceLock::new())
        .collect()
}

impl StepFacts for RunFacts {
    fn step(&mut self, run: &Run) {
        let n = run.len();
        let e = n - 1;
        if let Some(index) = self.index.get_mut() {
            index.extend(run);
        }
        self.deps = OnceLock::new();
        for cone in &mut self.cones {
            cone.take();
        }
        if let Some(heads) = self.heads.get_mut() {
            heads.push(head_rels(run, e));
        }
        let peers = run.spec().collab().peer_ids();
        let parts = self.visible.iter_mut().zip(&mut self.observations);
        for ((peer, (visible, observations)), faithful) in peers.zip(parts).zip(&mut self.faithful)
        {
            if visible.get().is_none() && observations.get().is_none() && faithful.get().is_none() {
                continue;
            }
            let delta = run
                .last_deltas()
                .iter()
                .find_map(|(q, delta)| (*q == peer).then_some(delta));
            let seen = delta.is_some() || run.event(e).peer == peer;
            if let Some(visible) = visible.get_mut() {
                visible.grow(n);
                if seen {
                    visible.insert(e);
                }
            }
            if let Some(observations) = observations.get_mut() {
                let delta = delta.cloned().unwrap_or_default();
                observations.extend(Observation::of(run, peer, e, delta));
            }
            if let Some(faithful) = faithful.get_mut() {
                let index = self.index.get().expect("a faithful set reads the index");
                faithful.grow(n);
                if seen || closes_used_lifecycle(run, index, faithful, e) {
                    faithful.insert(e);
                    close_from(run, index, peer, faithful, vec![e]);
                }
            }
        }
    }
}

/// One visible step of a run at a peer (Definition 3.1), kept as the change
/// it made to the peer's view rather than as the view it led to: the step's
/// view is the run's initial view at the peer with the deltas of every
/// observation up to it applied. A scenario search compares its replay's
/// visible steps with these one at a time ([`crate::scenario`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Position of the event in the run.
    pub index: usize,
    /// `e_i@p`: the event itself for the peer's own events, `ω` otherwise.
    pub event: EventView,
    /// `I_i@p − I_{i−1}@p`, in [`ViewDelta::canonical`] form; empty only
    /// for one of the peer's own events that changed nothing it sees.
    pub delta: ViewDelta,
}

impl Observation {
    /// The observation event `i` of `run`, whose delta at `peer` is
    /// `delta`, gives `peer`: `None` when the event is invisible at it.
    fn of(run: &Run, peer: PeerId, i: usize, delta: ViewDelta) -> Option<Observation> {
        let event = run.event(i);
        let event = if event.peer == peer {
            EventView::Own(event.clone())
        } else if delta.is_empty() {
            return None;
        } else {
            EventView::World
        };
        Some(Observation {
            index: i,
            event,
            delta: delta.canonical(),
        })
    }
}

/// Every observation of `run` at `peer`, from the recorded diffs.
fn observations_of(run: &Run, peer: PeerId) -> Vec<Observation> {
    let mut out = Vec::new();
    run.for_each_peer_delta(peer, |i, delta| {
        out.extend(Observation::of(run, peer, i, delta))
    });
    out.shrink_to_fit();
    out
}

/// Does event `e` close a lifecycle that a member of `set` uses (so that
/// `T_p` now requires `e` of that member)?
fn closes_used_lifecycle(run: &Run, index: &RunIndex, set: &EventSet, e: usize) -> bool {
    run.diff(e).deleted.iter().any(|(rel, t)| {
        let key = t.key();
        let Some(lc) = index.lifecycles_of(*rel, key).last() else {
            return false;
        };
        lc.end == Some(e)
            && set.iter().any(|m| {
                lc.contains(m)
                    && index
                        .key_occurrences(m)
                        .get(rel)
                        .is_some_and(|keys| keys.contains(key))
            })
    })
}

/// The relations the head of event `i` updates, sorted and distinct.
fn head_rels(run: &Run, i: usize) -> Vec<RelId> {
    let mut rels: Vec<RelId> = run
        .event(i)
        .ground_updates(run.spec())
        .iter()
        .map(|u| u.rel())
        .collect();
    rels.sort_unstable();
    rels.dedup();
    rels
}

/// The facts of `run`, read from (and filled into) its facts slot.
pub fn facts(run: &Run) -> Facts<'_> {
    Facts {
        run,
        slot: run.facts(RunFacts::empty),
    }
}

/// A run together with its [`RunFacts`]: each accessor returns the cached
/// part, building it on first read.
#[derive(Clone, Copy)]
pub struct Facts<'a> {
    pub(crate) run: &'a Run,
    slot: &'a RunFacts,
}

impl<'a> Facts<'a> {
    /// The run's faithfulness index.
    pub fn index(self) -> &'a RunIndex {
        self.slot.index.get_or_init(|| RunIndex::build(self.run))
    }

    /// The closed dependency sets `D(e_i)` of every event (see
    /// [`crate::cone::closed_deps`]).
    pub fn closed_deps(self) -> &'a [EventSet] {
        self.slot.deps.get_or_init(|| build_closed_deps(self.run))
    }

    /// The pruning cone of `peer` ([`crate::cone::peer_cone`]).
    pub fn cone(self, peer: PeerId) -> &'a EventSet {
        self.slot.cones[peer.index()].get_or_init(|| build_peer_cone(self, peer))
    }

    /// The positions of the events visible at `peer`.
    pub fn visible(self, peer: PeerId) -> &'a EventSet {
        self.slot.visible[peer.index()]
            .get_or_init(|| EventSet::from_iter(self.run.len(), self.run.visible_events(peer)))
    }

    /// The observations of `peer`: the run view `ρ@p` as one
    /// [`Observation`] per visible event, in run order.
    pub fn observations(self, peer: PeerId) -> &'a [Observation] {
        self.slot.observations[peer.index()].get_or_init(|| observations_of(self.run, peer))
    }

    /// The relations the head of event `i` updates, sorted and distinct.
    pub fn heads(self, i: usize) -> &'a [RelId] {
        &self.all_heads()[i]
    }

    fn all_heads(self) -> &'a [Vec<RelId>] {
        self.slot.heads.get_or_init(|| {
            (0..self.run.len())
                .map(|i| head_rels(self.run, i))
                .collect()
        })
    }

    /// The event positions of `peer`'s unique minimal faithful scenario,
    /// `T_p^ω(ρ, v̄)` (Thm 4.7), without replaying them into a subrun.
    pub fn faithful(self, peer: PeerId) -> &'a EventSet {
        self.slot.faithful[peer.index()]
            .get_or_init(|| tp_closure(self.run, self.index(), peer, self.visible(peer)))
    }

    /// Fills every part and returns the cached facts.
    pub fn filled(self) -> &'a RunFacts {
        self.index();
        self.closed_deps();
        for peer in self.run.spec().collab().peer_ids() {
            self.faithful(peer);
            self.cone(peer);
            self.observations(peer);
        }
        self.all_heads();
        self.slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwf_engine::{Bindings, Event};
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

    /// A fresh run of `spec` whose applicant faithful set is filled, so
    /// that every push steps it.
    fn stepped(spec: &Arc<cwf_lang::WorkflowSpec>) -> (Run, PeerId) {
        let applicant = spec.collab().peer("applicant").unwrap();
        let run = Run::new(Arc::clone(spec));
        facts(&run).faithful(applicant);
        (run, applicant)
    }

    /// `T_p^ω(ρ, {f})`, closed on demand over the run's index.
    fn explanation_of(run: &Run, peer: PeerId, f: usize) -> Vec<usize> {
        let one = EventSet::from_iter(run.len(), [f]);
        tp_closure(run, facts(run).index(), peer, &one).to_vec()
    }

    /// The invariant: the stepped facts equal a fresh build.
    fn check_consistent(run: &Run) {
        assert_eq!(facts(run).filled(), &RunFacts::build(run));
    }

    #[test]
    fn example_4_2_incrementally() {
        let spec = spec();
        let (mut run, applicant) = stepped(&spec);
        for name in ["e", "f", "g", "h"] {
            run.push(ground(&spec, name)).unwrap();
            check_consistent(&run);
        }
        assert_eq!(
            facts(&run).faithful(applicant).to_vec(),
            vec![2, 3],
            "g then h"
        );
        // The explanation of e (invisible at the applicant) includes its
        // lifecycle closer f.
        assert_eq!(explanation_of(&run, applicant, 0), vec![0, 1]);
    }

    #[test]
    fn closing_event_updates_older_explanations() {
        let spec = spec();
        let (mut run, applicant) = stepped(&spec);
        run.push(ground(&spec, "e")).unwrap();
        // Before f arrives, e's explanation is {e} (open lifecycle).
        assert_eq!(explanation_of(&run, applicant, 0), vec![0]);
        run.push(ground(&spec, "f")).unwrap();
        // f closes e's lifecycle: e's explanation gains f.
        assert_eq!(explanation_of(&run, applicant, 0), vec![0, 1]);
        check_consistent(&run);
    }

    #[test]
    fn faithful_set_gains_closing_events() {
        let spec = spec();
        let (mut run, applicant) = stepped(&spec);
        run.push(ground(&spec, "e")).unwrap(); // 0: +Ok by cto
        run.push(ground(&spec, "h")).unwrap(); // 1: +Approval, visible
        check_consistent(&run);
        assert_eq!(facts(&run).faithful(applicant).to_vec(), vec![0, 1]);
        // Now the cto retracts: f closes Ok's lifecycle, which the faithful
        // set uses ⇒ f joins it.
        run.push(ground(&spec, "f")).unwrap(); // 2: -Ok
        check_consistent(&run);
        assert_eq!(facts(&run).faithful(applicant).to_vec(), vec![0, 1, 2]);
    }

    #[test]
    fn filled_after_the_pushes_matches_stepped() {
        let spec = spec();
        let applicant = spec.collab().peer("applicant").unwrap();
        let mut late = Run::new(Arc::clone(&spec));
        let (mut early, _) = stepped(&spec);
        for name in ["e", "f", "g", "h"] {
            late.push(ground(&spec, name)).unwrap();
            early.push(ground(&spec, name)).unwrap();
        }
        assert_eq!(
            facts(&late).faithful(applicant),
            facts(&early).faithful(applicant)
        );
    }

    #[test]
    fn failed_push_leaves_the_facts_unchanged() {
        let spec = spec();
        let (mut run, _) = stepped(&spec);
        facts(&run).filled();
        // h requires Ok: not applicable on the empty instance.
        assert!(run.push(ground(&spec, "h")).is_err());
        assert_eq!(run.len(), 0, "failed push leaves the run unchanged");
        assert_eq!(facts(&run).filled(), &RunFacts::build(&run));
        run.push(ground(&spec, "e")).unwrap();
        assert!(run.push(ground(&spec, "h")).is_ok());
        facts(&run).filled();
        assert!(run.push(ground(&spec, "f")).is_ok());
        let before = RunFacts::build(&run);
        facts(&run).filled();
        assert!(run.push(ground(&spec, "f")).is_err(), "Ok(0) is gone");
        assert_eq!(facts(&run).filled(), &before);
    }
}
