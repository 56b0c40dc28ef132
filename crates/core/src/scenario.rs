//! Subruns and scenarios (Section 3, Definition 3.2).
//!
//! A *subrun* of `ρ` is a run whose event sequence is a subsequence of
//! `e(ρ)`; a *scenario of `ρ` at `p`* is a subrun observationally equivalent
//! to `ρ` for `p` (`ρ@p = ρ̂@p`).

use cwf_engine::{EventView, Run, RunView, ScratchRun};
use cwf_model::PeerId;

use crate::facts::facts;
use crate::set::EventSet;

/// Does the subsequence `events` of `run`'s events yield a subrun?
/// Streams through a history-free [`ScratchRun`] — no intermediate
/// instances are retained, and the replay stops at the first rejection.
/// The longest leading stretch `0..k` of `events` is the run's own prefix,
/// which always replays: the stream resumes from [`Run::prefix_state`].
pub fn is_subrun(run: &Run, events: &EventSet) -> bool {
    let k = (0..run.len()).take_while(|&i| events.contains(i)).count();
    let mut sub = run.prefix_state(k);
    events
        .iter()
        .skip(k)
        .all(|i| sub.try_push(run.event(i)).is_ok())
}

/// Replays the subsequence, returning the subrun if it exists.
pub fn subrun(run: &Run, events: &EventSet) -> Option<Run> {
    run.try_subrun(&events.to_vec()).ok()
}

/// Is `events` a scenario of `run` at `peer`? (Definition 3.2: it yields a
/// subrun whose `peer`-view equals the run's.)
pub fn is_scenario(run: &Run, peer: PeerId, events: &EventSet) -> bool {
    is_scenario_against(run, peer, events, &run.view(peer))
}

/// Scenario test against a precomputed target view (avoids recomputing
/// `ρ@p` inside search loops).
///
/// Streams the replay: each visible step is compared against the next
/// expected `(e@p, I@p)` observation as soon as it is produced, bailing out
/// on the first mismatch instead of materializing the whole subrun view.
/// Decision-identical to `subrun(..).view(peer) == target`.
pub fn is_scenario_against(run: &Run, peer: PeerId, events: &EventSet, target: &RunView) -> bool {
    if target.peer != peer {
        return false;
    }
    let mut sub = ScratchRun::restart_of(run);
    let mut matched = 0;
    for i in events.iter() {
        let event = run.event(i);
        if sub.try_push(event).is_err() {
            return false;
        }
        let own = event.peer == peer;
        if own || sub.changed(peer) {
            let Some(expected) = target.steps.get(matched) else {
                return false;
            };
            let event_matches = match (&expected.event, own) {
                (EventView::Own(e), true) => e == event,
                (EventView::World, false) => true,
                _ => false,
            };
            if !event_matches || expected.view != *sub.view(peer) {
                return false;
            }
            matched += 1;
        }
    }
    matched == target.steps.len()
}

/// The positions of the events of `run` visible at `peer`, as a set — every
/// scenario's view must reproduce exactly these observations, and every
/// p-faithful subsequence must *contain* them (Definition 4.5).
pub fn visible_set(run: &Run, peer: PeerId) -> EventSet {
    facts(run).visible(peer).clone()
}

/// Total order on event sets by their characteristic bitmask (position 0 is
/// the least significant bit) — the order the exhaustive mask enumeration of
/// [`crate::minimal::all_minimal_scenarios`] visits candidates in. The
/// parallel enumeration asserts its merged output respects this order,
/// which is what makes it byte-identical to the sequential sweep.
pub fn mask_order(a: &EventSet, b: &EventSet) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    // Compare the *largest* differing position: whichever set contains it
    // has the numerically larger mask. Walk both sorted position lists from
    // the top.
    let av = a.to_vec();
    let bv = b.to_vec();
    let (mut i, mut j) = (av.len(), bv.len());
    loop {
        match (i, j) {
            (0, 0) => return Ordering::Equal,
            (0, _) => return Ordering::Less,
            (_, 0) => return Ordering::Greater,
            _ => match av[i - 1].cmp(&bv[j - 1]) {
                Ordering::Less => return Ordering::Less,
                Ordering::Greater => return Ordering::Greater,
                Ordering::Equal => {
                    i -= 1;
                    j -= 1;
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwf_engine::{Bindings, Event};
    use cwf_lang::parse_workflow;
    use std::sync::Arc;

    /// The hitting-set-flavoured workflow of Theorem 3.3 with two ways to
    /// derive C1.
    fn run_with(names: &[&str]) -> Run {
        let spec = Arc::new(
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
        );
        let mut run = Run::new(Arc::clone(&spec));
        for n in names {
            let rid = spec.program().rule_by_name(n).unwrap();
            run.push(Event::new(&spec, rid, Bindings::empty(0)).unwrap())
                .unwrap();
        }
        run
    }

    #[test]
    fn the_run_itself_is_a_scenario() {
        let run = run_with(&["a1", "a2", "b1", "ok"]);
        let p = run.spec().collab().peer("p").unwrap();
        let all = EventSet::full(run.len());
        assert!(is_subrun(&run, &all));
        assert!(is_scenario(&run, p, &all));
    }

    #[test]
    fn irrelevant_events_can_be_dropped() {
        let run = run_with(&["a1", "a2", "b1", "ok"]);
        let p = run.spec().collab().peer("p").unwrap();
        // a2 (position 1) is irrelevant to p.
        let sub = EventSet::from_iter(run.len(), [0, 2, 3]);
        assert!(is_scenario(&run, p, &sub));
        // …but not to q, who observes every event.
        let q = run.spec().collab().peer("q").unwrap();
        assert!(!is_scenario(&run, q, &sub));
    }

    #[test]
    fn alternative_derivations_are_scenarios_for_p() {
        let run = run_with(&["a1", "a2", "b1", "b2", "ok"]);
        let p = run.spec().collab().peer("p").unwrap();
        // Derive C1 via a2/b2 instead of a1/b1: same observations at p.
        let alt = EventSet::from_iter(run.len(), [1, 3, 4]);
        assert!(is_scenario(&run, p, &alt));
        // Note: b2 (position 3) is a *different event* than b1, and both
        // insert the same C1 fact — for p both appear as ω.
    }

    #[test]
    fn broken_dependencies_are_not_subruns() {
        let run = run_with(&["a1", "b1", "ok"]);
        let p = run.spec().collab().peer("p").unwrap();
        // Dropping a1 leaves b1's body unsatisfied.
        let bad = EventSet::from_iter(run.len(), [1, 2]);
        assert!(!is_subrun(&run, &bad));
        assert!(!is_scenario(&run, p, &bad));
    }

    #[test]
    fn subruns_missing_observations_are_not_scenarios() {
        let run = run_with(&["a1", "b1", "ok"]);
        let p = run.spec().collab().peer("p").unwrap();
        // a1 alone is a subrun but shows p nothing.
        let tiny = EventSet::from_iter(run.len(), [0]);
        assert!(is_subrun(&run, &tiny));
        assert!(!is_scenario(&run, p, &tiny));
        // The empty subsequence is a subrun and (for this run) not a
        // scenario either.
        assert!(is_subrun(&run, &EventSet::empty(run.len())));
        assert!(!is_scenario(&run, p, &EventSet::empty(run.len())));
    }

    #[test]
    fn mask_order_is_the_numeric_bitmask_order() {
        use std::cmp::Ordering;
        let set = |xs: &[usize]| EventSet::from_iter(6, xs.iter().copied());
        // Enumerate all 6-bit masks; mask_order must agree with u64 order.
        let sets: Vec<(u64, EventSet)> = (0u64..64)
            .map(|m| {
                (
                    m,
                    EventSet::from_iter(6, (0..6).filter(|i| m & (1 << i) != 0)),
                )
            })
            .collect();
        for (ma, a) in &sets {
            for (mb, b) in &sets {
                assert_eq!(mask_order(a, b), ma.cmp(mb), "{a:?} vs {b:?}");
            }
        }
        // Spot checks: {0,1} (mask 3) sits between {1} (2) and {2} (4).
        assert_eq!(mask_order(&set(&[1]), &set(&[0, 1])), Ordering::Less);
        assert_eq!(mask_order(&set(&[0, 1]), &set(&[2])), Ordering::Less);
    }

    #[test]
    fn visible_set_matches_run_view() {
        let run = run_with(&["a1", "a2", "b1", "ok"]);
        let p = run.spec().collab().peer("p").unwrap();
        assert_eq!(visible_set(&run, p).to_vec(), vec![3]);
        let q = run.spec().collab().peer("q").unwrap();
        assert_eq!(visible_set(&run, q).to_vec(), vec![0, 1, 2, 3]);
    }
}
