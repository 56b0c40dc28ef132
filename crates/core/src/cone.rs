//! Provenance cones for scenario-search pruning.
//!
//! [`peer_cone`] computes, in one linear pass over the run, a set of event
//! positions that provably contains every minimum and every minimal
//! scenario of the run at a peer. The optimizing searches of
//! [`crate::minimum`] and the enumeration of [`crate::minimal`] restrict
//! themselves to this cone by default, shrinking the exponential subset
//! space without changing any completed answer.
//!
//! The cone is deliberately *wider* than the explanation cone: the union of
//! the closed dependencies that the engine's provenance plane records for
//! the events visible at the peer. An explanation only needs
//! the closed writer history of what the peer actually observed;
//! byte-identical search pruning additionally has to keep every event that
//! could *impersonate* a visible write in some sub-replay — e.g. a
//! re-insertion that was a no-op in the original run but re-creates the
//! fact once the original writer is dropped from the subsequence. Two
//! generalisations achieve that:
//!
//! * **Seeds.** Besides the events visible at the peer, every event with a
//!   head update on a peer-visible relation seeds the cone: only such
//!   events can ever produce a view delta at the peer, in any replay.
//! * **Histories.** The per-key history joins the closure of every event
//!   whose head *targets* the key, not just of those whose update changed
//!   the instance — an insert that was a no-op is still a potential writer
//!   once earlier writers are dropped.
//!
//! With both, any event `x` outside the cone (a) touches no peer-visible
//! relation in its head, so its delta at the peer is empty in every
//! replay, and (b) targets no key in the footprint `K(e)` of any cone
//! event `e` after it — otherwise `x` would sit in `e`'s key history and
//! hence in the cone. So for any scenario `S`, dropping `S`'s non-cone
//! events leaves the replay of the remaining events byte-identical on
//! their footprints and removes no visible step: `S ∩ cone` is a scenario
//! too. A minimum or minimal scenario therefore never leaves the cone.

use std::collections::BTreeMap;

use cwf_engine::Run;
use cwf_model::{PeerId, RelId, Value};

use crate::facts::{facts, Facts};
use crate::set::EventSet;

/// The closed dependency sets `D(e_i)` of every event: the event itself,
/// plus — for every key in its footprint `K(e_i)` — the closures of every
/// earlier event whose head targeted that key (actual writers and no-op
/// inserters alike). Built once per run, into the run's facts
/// ([`crate::Facts::closed_deps`]).
pub(crate) fn build_closed_deps(run: &Run) -> Vec<EventSet> {
    let n = run.len();
    let spec = run.spec();
    let mut hist: BTreeMap<(RelId, Value), EventSet> = BTreeMap::new();
    let mut deps = Vec::with_capacity(n);
    for i in 0..n {
        let event = run.event(i);
        let mut d = EventSet::empty(n);
        d.insert(i);
        for (rel, keys) in event.key_occurrences(spec) {
            for k in keys {
                if let Some(h) = hist.get(&(rel, k)) {
                    d = d.union(h);
                }
            }
        }
        // Every key the head targets gains this event's closure — whether
        // or not the update changed the instance.
        for u in event.ground_updates(spec) {
            let entry = hist
                .entry((u.rel(), *u.key()))
                .or_insert_with(|| EventSet::empty(n));
            *entry = entry.union(&d);
        }
        deps.push(d);
    }
    deps
}

/// The pruning cone of `peer`: the union of the closed dependency sets
/// ([`crate::Facts::closed_deps`]) over the
/// seed events — those visible at `peer` plus those whose head updates a
/// relation `peer` sees. Every minimum and every minimal scenario of the
/// run at `peer` is a subset of this set. Built from the run's cached
/// facts on every call; the searches read the copy the facts slot keeps
/// ([`crate::Facts::cone`]).
pub fn peer_cone(run: &Run, peer: PeerId) -> EventSet {
    build_peer_cone(facts(run), peer)
}

/// Builds [`peer_cone`] from `facts`.
pub(crate) fn build_peer_cone(facts: Facts<'_>, peer: PeerId) -> EventSet {
    let collab = facts.run.spec().collab();
    let visible = facts.visible(peer);
    let mut cone = EventSet::empty(facts.run.len());
    for (i, d) in facts.closed_deps().iter().enumerate() {
        let seed = visible.contains(i) || facts.heads(i).iter().any(|&r| collab.sees(peer, r));
        if seed {
            cone = cone.union(d);
        }
    }
    cone
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimal::all_minimal_scenarios;
    use cwf_engine::{Bindings, Event};
    use cwf_lang::parse_workflow;
    use cwf_model::Governor;
    use std::sync::Arc;

    fn run_of(src: &str, names: &[&str]) -> Run {
        let spec = Arc::new(parse_workflow(src).unwrap());
        let mut run = Run::new(Arc::clone(&spec));
        for n in names {
            let rid = spec.program().rule_by_name(n).unwrap();
            run.push(Event::new(&spec, rid, Bindings::empty(0)).unwrap())
                .unwrap();
        }
        run
    }

    const HITTING: &str = r#"
        schema { V1(K); V2(K); V3(K); C1(K); C2(K); OK(K); }
        peers {
            q sees V1(*), V2(*), V3(*), C1(*), C2(*), OK(*);
            p sees OK(*);
        }
        rules {
            a1 @ q: +V1(0) :- ;
            a2 @ q: +V2(0) :- ;
            a3 @ q: +V3(0) :- ;
            b11 @ q: +C1(0) :- V1(0);
            b22 @ q: +C2(0) :- V2(0);
            ok @ q: +OK(0) :- C1(0), C2(0);
        }
    "#;

    #[test]
    fn cone_drops_events_no_derivation_can_use() {
        let run = run_of(HITTING, &["a1", "a2", "a3", "b11", "b22", "ok"]);
        let p = run.spec().collab().peer("p").unwrap();
        // a3 feeds nothing the observer can ever see: pruned.
        assert_eq!(peer_cone(&run, p).to_vec(), vec![0, 1, 3, 4, 5]);
        // q sees everything, so everything is in q's cone.
        let q = run.spec().collab().peer("q").unwrap();
        assert_eq!(peer_cone(&run, q), EventSet::full(run.len()));
    }

    #[test]
    fn cone_keeps_noop_reinsertions_as_alternative_writers() {
        // b2 re-inserts C1(0) as a no-op (b1 already created it), yet once
        // b1 is dropped b2 re-creates the fact: {a2, b2, ok} is a scenario
        // that a visible-writers-only cone would lose.
        let run = run_of(
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
            &["a1", "a2", "b1", "b2", "ok"],
        );
        let p = run.spec().collab().peer("p").unwrap();
        let cone = peer_cone(&run, p);
        assert_eq!(cone, EventSet::full(run.len()), "b2 must stay in the cone");
    }

    #[test]
    fn every_minimal_scenario_is_inside_the_cone() {
        let run = run_of(HITTING, &["a1", "a2", "a3", "b11", "b22", "ok"]);
        let p = run.spec().collab().peer("p").unwrap();
        let cone = peer_cone(&run, p);
        let minimal = all_minimal_scenarios(&run, p, 64, &Governor::unlimited())
            .into_value()
            .unwrap();
        assert!(!minimal.is_empty());
        for s in &minimal {
            assert!(s.is_subset(&cone), "{s:?} escapes the cone {cone:?}");
        }
    }
}
