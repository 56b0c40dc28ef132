//! Subruns and scenarios (Section 3, Definition 3.2).
//!
//! A *subrun* of `ρ` is a run whose event sequence is a subsequence of
//! `e(ρ)`; a *scenario of `ρ` at `p`* is a subrun observationally equivalent
//! to `ρ` for `p` (`ρ@p = ρ̂@p`).

use cwf_engine::{Event, EventView, Run, ScratchRun};
use cwf_model::PeerId;

use crate::facts::{facts, Observation};
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
///
/// Streams the replay and checks each visible step against the peer's next
/// cached [`Observation`] as soon as it is produced (`observe`), bailing
/// out on the first mismatch instead of materializing the subrun's view.
/// The longest leading stretch `0..k` of `events` is the run's own prefix,
/// whose steps are the run's own observations: the replay resumes from
/// [`Run::prefix_state`] with those observations matched. Decision-identical
/// to `subrun(..).view(peer) == run.view(peer)`.
pub fn is_scenario(run: &Run, peer: PeerId, events: &EventSet) -> bool {
    let observations = facts(run).observations(peer);
    let k = (0..run.len()).take_while(|&i| events.contains(i)).count();
    let mut sub = run.prefix_state(k);
    let mut matched = observations.partition_point(|o| o.index < k);
    for i in events.iter().skip(k) {
        let event = run.event(i);
        if sub.try_push(event).is_err() {
            return false;
        }
        match observe(&sub, peer, event, observations, matched) {
            Some(now) => matched = now,
            None => return false,
        }
    }
    matched == observations.len()
}

/// The number of `peer`'s observations a replay has matched once its state
/// has just stepped by `event`, `matched` of them having been matched
/// before; `None` when the step is visible at `peer` but is not its next
/// observation.
///
/// The replay's view before the step must be the view the first `matched`
/// observations lead to — true of every replay checked step by step from
/// the initial instance, and of the run's own prefix. Then comparing the
/// step's view delta with the observation's decides as comparing the views
/// it leads to would: the engine's deltas are normalised (each upsert
/// changes the view and each removal drops a present key, see
/// [`cwf_engine::view_plane`]), so from one view, equal deltas lead to
/// equal views and different deltas to different ones.
pub(crate) fn observe(
    state: &ScratchRun,
    peer: PeerId,
    event: &Event,
    observations: &[Observation],
    matched: usize,
) -> Option<usize> {
    let own = event.peer == peer;
    let delta = state.delta(peer);
    if !own && delta.is_none() {
        return Some(matched);
    }
    let expected = observations.get(matched)?;
    let event_matches = match (&expected.event, own) {
        (EventView::Own(e), true) => e == event,
        (EventView::World, false) => true,
        _ => false,
    };
    let delta_matches = delta.map_or(expected.delta.is_empty(), |d| d.matches(&expected.delta));
    (event_matches && delta_matches).then_some(matched + 1)
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
pub(crate) fn mask_order(a: &EventSet, b: &EventSet) -> std::cmp::Ordering {
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
    use cwf_engine::{Bindings, ViewDelta};
    use cwf_lang::parse_workflow;
    use cwf_model::{RelId, Tuple, Value};
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

    /// T(K, A, B) filled in place: `w` sees everything, `enter` sees a key
    /// once A = "in", `leave` sees it while A = ⊥, `proj` sees B.
    fn selections_run(names: &[&str]) -> Run {
        let spec = Arc::new(
            parse_workflow(
                r#"
                schema { T(K, A, B); }
                peers {
                    w sees T(*);
                    enter sees T(K) where A = "in";
                    leave sees T(K) where A = null;
                    proj sees T(K, B);
                }
                rules {
                    mk0 @ w: +T(0, null, null) :- ;
                    mk1 @ w: +T(1, null, null) :- ;
                    fill_a @ w: +T(0, "in", null) :- T(0, null, null);
                    fill_b @ w: +T(0, "in", "x") :- T(0, "in", null);
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

    /// The observation of every kind of visible step, and the step check
    /// deciding by its delta: an own event that changes nothing the peer
    /// sees, a tuple entering its selection, a tuple leaving it, and a
    /// change of a projected attribute.
    #[test]
    fn each_kind_of_visible_step_is_checked_by_its_delta() {
        // 0: mk0, 1: mk0 again (a no-op), 2: mk1, 3: fill_a, 4: fill_b.
        let run = selections_run(&["mk0", "mk0", "mk1", "fill_a", "fill_b"]);
        let collab = run.spec().collab();
        let peer = |name| collab.peer(name).unwrap();
        let t = |vals: &[Value]| Tuple::new(vals.iter().copied());
        let (rel, k0, k1) = (RelId(0), Value::Int(0), Value::Int(1));
        let set = |xs: &[usize]| EventSet::from_iter(run.len(), xs.iter().copied());
        let observed = |name| -> Vec<(usize, bool, ViewDelta)> {
            facts(&run)
                .observations(peer(name))
                .iter()
                .map(|o| {
                    (
                        o.index,
                        matches!(o.event, EventView::Own(_)),
                        o.delta.clone(),
                    )
                })
                .collect()
        };
        let upsert = |tuple| ViewDelta {
            upserts: vec![(rel, tuple)],
            removals: vec![],
        };

        // An own event with an empty delta is still an observation: `w`
        // sees its no-op re-insert, so no scenario at `w` may drop it.
        assert_eq!(observed("w")[1], (1, true, ViewDelta::default()));
        assert!(is_scenario(&run, peer("w"), &EventSet::full(run.len())));
        assert!(!is_scenario(&run, peer("w"), &set(&[0, 2, 3, 4])));

        // A tuple entering its selection: fill_a makes T(0) appear.
        assert_eq!(observed("enter"), vec![(3, false, upsert(t(&[k0])))]);
        assert!(is_scenario(&run, peer("enter"), &set(&[0, 3])));
        assert!(!is_scenario(&run, peer("enter"), &set(&[0])));

        // A tuple leaving its selection: fill_a removes T(0).
        let leave = observed("leave");
        let removal = ViewDelta {
            upserts: vec![],
            removals: vec![(rel, k0)],
        };
        assert_eq!(leave[2], (3, false, removal));
        assert!(is_scenario(&run, peer("leave"), &set(&[0, 2, 3])));
        assert!(!is_scenario(&run, peer("leave"), &set(&[0, 2])));
        // The right kinds of step in the wrong order: with the run's mk0
        // dropped, its later no-op re-insert creates T(0) after T(1). The
        // final views agree, but the first step's delta differs.
        let late = selections_run(&["mk0", "mk1", "mk0"]);
        let both = |xs: &[usize]| EventSet::from_iter(3, xs.iter().copied());
        assert!(is_scenario(&late, peer("leave"), &both(&[0, 1])));
        assert!(!is_scenario(&late, peer("leave"), &both(&[1, 2])));

        // A change of a projected attribute: fill_b turns B from ⊥ to "x"
        // while T(0) stays selected; fill_a changes nothing `proj` sees.
        let proj = observed("proj");
        assert_eq!(proj.len(), 3);
        assert_eq!(proj[2], (4, false, upsert(t(&[k0, Value::str("x")]))));
        assert!(is_scenario(&run, peer("proj"), &set(&[0, 2, 3, 4])));
        assert!(!is_scenario(&run, peer("proj"), &set(&[0, 2, 3])));
        // Dropping mk1 drops `proj`'s second observation, T(1) appearing.
        assert_eq!(proj[1], (2, false, upsert(t(&[k1, Value::Null]))));
        assert!(!is_scenario(&run, peer("proj"), &set(&[0, 3, 4])));
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
