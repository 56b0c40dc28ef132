//! The operator `T_p(ρ, ·)` and the unique minimal p-faithful scenario
//! (Theorem 4.7).
//!
//! `T_p(ρ, α)` adds to `α` every event whose presence is required by
//! boundary or modification p-faithfulness *because of* events already in
//! `α`. It is monotone and inflationary, so its least fixpoint above `α`
//! exists and equals `T_p^ω(ρ, α)`; [`tp_closure`] computes it with a
//! worklist (each event is processed once, so the closure is linear in the
//! number of generated requirements — comfortably polynomial, as the theorem
//! demands).
//!
//! The **minimal p-faithful scenario** of a run is `run(T_p^ω(ρ, v̄))` where
//! `v̄` is the set of events visible at `p`; it is unique and contained in
//! every p-faithful scenario.

use std::collections::BTreeSet;

use cwf_engine::Run;
use cwf_model::{AttrId, PeerId, RelId, Value};

use crate::facts::facts;
use crate::faithful::relevant_attrs;
use crate::index::RunIndex;
use crate::scenario::is_subrun;
use crate::set::EventSet;

/// Why [`for_each_requirement`] requires an event of event `j`.
pub(crate) enum Requirement<'a> {
    /// Boundary faithfulness: the event opened the lifecycle of
    /// `(rel, key)` that `j` uses.
    Opened(RelId, &'a Value),
    /// Boundary faithfulness: the event closed that lifecycle.
    Closed(RelId, &'a Value),
    /// Modification faithfulness: earlier in that lifecycle, the event
    /// turned the attributes in the first set from `⊥` to a value, and
    /// they meet the second, `att(R, peer(e_j)) ∪ att(R, p)`.
    Wrote(RelId, &'a Value, &'a BTreeSet<AttrId>, &'a BTreeSet<AttrId>),
}

/// Calls `f(i, why)` for every direct requirement `i` of event `j` under
/// `T_p(ρ, ·)` (Definitions 4.3–4.4), per key occurrence of `j` in index
/// order: the lifecycle's opening event, its closing event, then its
/// earlier writers of relevant attributes in chronological order. An event
/// is reported once per requirement it meets.
pub(crate) fn for_each_requirement(
    run: &Run,
    index: &RunIndex,
    peer: PeerId,
    j: usize,
    mut f: impl FnMut(usize, Requirement<'_>),
) {
    let q = run.event(j).peer;
    for (rel, keys) in index.key_occurrences(j) {
        let mut relevant = relevant_attrs(run, q, *rel);
        relevant.extend(relevant_attrs(run, peer, *rel));
        for key in keys {
            let Some(lc) = index.lifecycle_containing(*rel, key, j) else {
                continue;
            };
            f(lc.start, Requirement::Opened(*rel, key));
            if let Some(end) = lc.end {
                f(end, Requirement::Closed(*rel, key));
            }
            for m in index.modifications_of(*rel, key) {
                if m.at < j && lc.contains(m.at) && m.attrs.iter().any(|a| relevant.contains(a)) {
                    f(m.at, Requirement::Wrote(*rel, key, &m.attrs, &relevant));
                }
            }
        }
    }
}

/// One application of `T_p(ρ, ·)`: `alpha` plus the directly-required
/// events. Tests only: [`tp_closure`] computes the fixpoint without
/// re-scanning.
#[cfg(test)]
fn tp_step(run: &Run, index: &RunIndex, peer: PeerId, alpha: &EventSet) -> EventSet {
    let mut out = alpha.clone();
    for j in alpha.iter() {
        for_each_requirement(run, index, peer, j, |i, _| {
            out.insert(i);
        });
    }
    out
}

/// The fixpoint `T_p^ω(ρ, seed)`.
pub fn tp_closure(run: &Run, index: &RunIndex, peer: PeerId, seed: &EventSet) -> EventSet {
    let mut out = seed.clone();
    close_from(
        run,
        index,
        peer,
        &mut out,
        seed.iter().collect(),
        |_, _, _| {},
    );
    out
}

/// Closes `set` under `T_p(ρ, ·)` from the members in `worklist`: adds
/// every event they require, transitively. Members not in the worklist
/// must already have their requirements in `set`. Each event that enters
/// `set` is reported once, as `pulled(by, i, why)`: the first requirement
/// of `by` that demanded it.
pub(crate) fn close_from(
    run: &Run,
    index: &RunIndex,
    peer: PeerId,
    set: &mut EventSet,
    mut worklist: Vec<usize>,
    mut pulled: impl FnMut(usize, usize, Requirement<'_>),
) {
    while let Some(by) = worklist.pop() {
        for_each_requirement(run, index, peer, by, |i, why| {
            if set.insert(i) {
                pulled(by, i, why);
                worklist.push(i);
            }
        });
    }
}

/// The unique minimal p-faithful scenario of a run (Theorem 4.7).
#[derive(Debug, Clone)]
pub struct FaithfulExplanation {
    /// The scenario's event positions within the original run. Lemma 4.6
    /// makes them a subrun; [`crate::subrun`] replays it.
    pub events: EventSet,
}

/// Computes the unique minimal p-faithful scenario `run(T_p^ω(ρ, v̄))`,
/// where `v̄` is the set of events visible at `peer`. The event set is read
/// from the run's facts ([`crate::Facts::faithful`]), not replayed; Lemma
/// 4.6 makes it a scenario, so its length bounds every minimum scenario
/// from above. Debug builds check that it replays.
pub fn minimal_faithful_scenario(run: &Run, peer: PeerId) -> FaithfulExplanation {
    let events = facts(run).faithful(peer).clone();
    debug_assert!(
        is_subrun(run, &events),
        "Lemma 4.6: p-faithful subsequences yield subruns"
    );
    FaithfulExplanation { events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faithful::{is_faithful, is_tp_fixpoint};
    use crate::scenario::{is_scenario, subrun};
    use cwf_engine::{Bindings, Event};
    use cwf_lang::parse_workflow;
    use std::sync::Arc;

    fn example_4_2() -> Run {
        let spec = Arc::new(
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
        );
        let mut run = Run::new(Arc::clone(&spec));
        for n in ["e", "f", "g", "h"] {
            let rid = spec.program().rule_by_name(n).unwrap();
            run.push(Event::new(&spec, rid, Bindings::empty(0)).unwrap())
                .unwrap();
        }
        run
    }

    #[test]
    fn example_4_2_minimal_faithful_scenario_is_gh() {
        let run = example_4_2();
        let applicant = run.spec().collab().peer("applicant").unwrap();
        let expl = minimal_faithful_scenario(&run, applicant);
        assert_eq!(
            expl.events.to_vec(),
            vec![2, 3],
            "g then h — not the misleading e h"
        );
        assert_eq!(subrun(&run, &expl.events).unwrap().len(), 2);
    }

    #[test]
    fn closure_is_a_fixpoint_and_faithful() {
        let run = example_4_2();
        let index = RunIndex::build(&run);
        let applicant = run.spec().collab().peer("applicant").unwrap();
        let expl = minimal_faithful_scenario(&run, applicant);
        assert!(is_tp_fixpoint(&run, &index, applicant, &expl.events));
        assert!(is_faithful(&run, &index, applicant, &expl.events));
        assert_eq!(
            tp_step(&run, &index, applicant, &expl.events),
            expl.events,
            "fixpoint of a single T_p application"
        );
        assert!(is_scenario(&run, applicant, &expl.events));
    }

    #[test]
    fn closure_is_minimal_among_faithful_scenarios() {
        let run = example_4_2();
        let index = RunIndex::build(&run);
        let applicant = run.spec().collab().peer("applicant").unwrap();
        let minimal = minimal_faithful_scenario(&run, applicant).events;
        // Enumerate all faithful scenarios (run length 4 ⇒ 16 subsequences)
        // and check containment — the uniqueness/minimality of Theorem 4.7.
        for mask in 0u32..16 {
            let set = EventSet::from_iter(4, (0..4).filter(|i| mask & (1 << i) != 0));
            if is_faithful(&run, &index, applicant, &set) {
                assert!(
                    minimal.is_subset(&set),
                    "minimal ⊴ every faithful scenario; failed for {set:?}"
                );
            }
        }
    }

    #[test]
    fn tp_step_adds_direct_requirements_only() {
        let run = example_4_2();
        let index = RunIndex::build(&run);
        let applicant = run.spec().collab().peer("applicant").unwrap();
        // Seed {h}: one step adds g (left boundary of h's Ok-lifecycle).
        let seed = EventSet::from_iter(4, [3]);
        let one = tp_step(&run, &index, applicant, &seed);
        assert_eq!(one.to_vec(), vec![2, 3]);
    }

    #[test]
    fn seeding_with_e_pulls_in_f() {
        let run = example_4_2();
        let index = RunIndex::build(&run);
        let applicant = run.spec().collab().peer("applicant").unwrap();
        // The per-event explanation of e must contain its lifecycle closer f.
        let closure = tp_closure(&run, &index, applicant, &EventSet::from_iter(4, [0]));
        assert_eq!(closure.to_vec(), vec![0, 1]);
    }

    #[test]
    fn monotone_in_the_seed() {
        let run = example_4_2();
        let index = RunIndex::build(&run);
        let applicant = run.spec().collab().peer("applicant").unwrap();
        let small = tp_closure(&run, &index, applicant, &EventSet::from_iter(4, [3]));
        let large = tp_closure(&run, &index, applicant, &EventSet::from_iter(4, [0, 3]));
        assert!(small.is_subset(&large));
    }

    #[test]
    fn empty_run_yields_empty_explanation() {
        let spec = Arc::new(
            parse_workflow("schema { T(K); } peers { p sees T(*); } rules { r @ p: +T(0) :- ; }")
                .unwrap(),
        );
        let run = Run::new(spec);
        let p = run.spec().collab().peer("p").unwrap();
        let expl = minimal_faithful_scenario(&run, p);
        assert!(expl.events.is_empty());
        assert!(subrun(&run, &expl.events).unwrap().is_empty());
    }
}
