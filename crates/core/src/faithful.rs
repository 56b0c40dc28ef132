//! Faithfulness of subsequences (Section 4, Definitions 4.3–4.5).
//!
//! * **Boundary faithfulness** (Def. 4.3): whenever a subsequence event uses
//!   a key inside an `R`-lifecycle, the lifecycle's left boundary (and, for
//!   closed lifecycles, its right boundary) must also be in the subsequence.
//! * **Modification faithfulness for `p`** (Def. 4.4): whenever a
//!   subsequence event of peer `q` uses key `k` inside a lifecycle, every
//!   earlier event of the lifecycle that turned an attribute of
//!   `att(R, q) ∪ att(R, p)` of the tuple from `⊥` to a value must also be
//!   in the subsequence.
//! * A subsequence is **p-faithful** (Def. 4.5) when it contains all events
//!   visible at `p`, is boundary faithful, and is modification faithful for
//!   `p`.

use std::collections::BTreeSet;

use cwf_engine::Run;
use cwf_model::{AttrId, PeerId, RelId};

use crate::facts::facts;
use crate::index::RunIndex;
use crate::set::EventSet;

/// `att(R, q) = att(R@q) ∪ att(σ(R@q))` — empty when `q` does not see `R`.
pub fn relevant_attrs(run: &Run, peer: PeerId, rel: RelId) -> BTreeSet<AttrId> {
    run.spec()
        .collab()
        .relevant_attrs(peer, rel)
        .unwrap_or_default()
}

/// Boundary faithfulness of `alpha` (Definition 4.3). (The run itself is
/// not needed — the index carries all lifecycle structure — but the
/// signature mirrors the other checks.)
pub(crate) fn is_boundary_faithful(_run: &Run, index: &RunIndex, alpha: &EventSet) -> bool {
    for j in alpha.iter() {
        for (rel, keys) in index.key_occurrences(j) {
            for k in keys {
                // A key may occur without being in a lifecycle containing j
                // (e.g. a ¬Key literal): then no requirement.
                if let Some(lc) = index.lifecycle_containing(*rel, k, j) {
                    if !alpha.contains(lc.start) {
                        return false;
                    }
                    if let Some(end) = lc.end {
                        if !alpha.contains(end) {
                            return false;
                        }
                    }
                }
            }
        }
    }
    true
}

/// Modification faithfulness of `alpha` for `peer` (Definition 4.4).
pub fn is_modification_faithful(
    run: &Run,
    index: &RunIndex,
    peer: PeerId,
    alpha: &EventSet,
) -> bool {
    for j in alpha.iter() {
        let q = run.event(j).peer;
        for (rel, keys) in index.key_occurrences(j) {
            let mut relevant = relevant_attrs(run, q, *rel);
            relevant.extend(relevant_attrs(run, peer, *rel));
            for k in keys {
                let Some(lc) = index.lifecycle_containing(*rel, k, j) else {
                    continue;
                };
                for m in index.modifications_of(*rel, k) {
                    if m.at < j
                        && lc.contains(m.at)
                        && m.attrs.iter().any(|a| relevant.contains(a))
                        && !alpha.contains(m.at)
                    {
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// Is `alpha` a p-faithful subsequence of `e(ρ)` (Definition 4.5)?
pub fn is_faithful(run: &Run, index: &RunIndex, peer: PeerId, alpha: &EventSet) -> bool {
    facts(run).visible(peer).is_subset(alpha)
        && is_boundary_faithful(run, index, alpha)
        && is_modification_faithful(run, index, peer, alpha)
}

/// Boundary + modification faithfulness without the visible-events
/// requirement — i.e. `alpha` is a fixed-point of `T_p(ρ, ·)`. This is the
/// carrier of the semiring in Theorem 4.8 (per-event explanations
/// `T_p^ω(ρ, f)` are of this kind even when `f` is invisible at `p`).
pub fn is_tp_fixpoint(run: &Run, index: &RunIndex, peer: PeerId, alpha: &EventSet) -> bool {
    is_boundary_faithful(run, index, alpha) && is_modification_faithful(run, index, peer, alpha)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::is_scenario;
    use cwf_engine::{Bindings, Event};
    use cwf_lang::parse_workflow;
    use std::sync::Arc;

    /// Example 4.2: peers cto, ceo, assistant see ok and approval;
    /// applicant sees only approval.
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
    fn example_4_2_eh_is_a_misleading_scenario_but_not_faithful() {
        let run = example_4_2();
        let applicant = run.spec().collab().peer("applicant").unwrap();
        let index = RunIndex::build(&run);
        // e h is a scenario at the applicant…
        let eh = EventSet::from_iter(4, [0, 3]);
        assert!(is_scenario(&run, applicant, &eh));
        // …but not boundary faithful: e opens a *closed* lifecycle of Ok
        // whose right boundary f is missing, and h sits in g's lifecycle
        // whose left boundary g is missing.
        assert!(!is_boundary_faithful(&run, &index, &eh));
        assert!(!is_faithful(&run, &index, applicant, &eh));
    }

    #[test]
    fn example_4_2_gh_is_faithful() {
        let run = example_4_2();
        let applicant = run.spec().collab().peer("applicant").unwrap();
        let index = RunIndex::build(&run);
        let gh = EventSet::from_iter(4, [2, 3]);
        assert!(is_boundary_faithful(&run, &index, &gh));
        assert!(is_modification_faithful(&run, &index, applicant, &gh));
        assert!(is_faithful(&run, &index, applicant, &gh));
        assert!(is_scenario(&run, applicant, &gh), "Lemma 4.6 in action");
    }

    #[test]
    fn including_e_forces_f_by_boundary_faithfulness() {
        let run = example_4_2();
        let index = RunIndex::build(&run);
        // e alone: its closed lifecycle [e, f] demands f.
        let e_only = EventSet::from_iter(4, [0]);
        assert!(!is_boundary_faithful(&run, &index, &e_only));
        let ef = EventSet::from_iter(4, [0, 1]);
        assert!(is_boundary_faithful(&run, &index, &ef));
    }

    #[test]
    fn faithfulness_requires_visible_events() {
        let run = example_4_2();
        let applicant = run.spec().collab().peer("applicant").unwrap();
        let index = RunIndex::build(&run);
        // The empty set is a T_p fixpoint but not faithful (h is visible).
        let empty = EventSet::empty(4);
        assert!(is_tp_fixpoint(&run, &index, applicant, &empty));
        assert!(!is_faithful(&run, &index, applicant, &empty));
    }

    /// Example 4.1 shape: modifications of a tuple's relevant attributes
    /// must be retained.
    #[test]
    fn modification_faithfulness_pulls_in_attribute_writers() {
        let spec = Arc::new(
            parse_workflow(
                r#"
                schema { R(K, A, B); Out(K); Pool(K); }
                peers {
                    p1 sees R(K, A), Pool(*);
                    p2 sees R(K, B), Out(K), Pool(*);
                    p sees Out(*);
                }
                rules {
                    open @ p1: +R(x, a) :- Pool(x), Pool(a);
                    fill @ p2: +R(x, b) :- Pool(x), Pool(b);
                    use  @ p2: +Out(0) :- R(x, b);
                }
                "#,
            )
            .unwrap(),
        );
        use cwf_model::Value;
        let pool = spec.collab().schema().rel("Pool").unwrap();
        let mut init = cwf_model::Instance::empty(spec.collab().schema());
        for v in ["k", "a", "b"] {
            init.rel_mut(pool)
                .insert(cwf_model::Tuple::new([Value::str(v)]))
                .unwrap();
        }
        let mut run = Run::with_initial(Arc::clone(&spec), init);
        let k = Value::str("k");
        let push = |run: &mut Run, name: &str, vals: &[Value]| {
            let rid = run.spec().program().rule_by_name(name).unwrap();
            let mut b = Bindings::empty(vals.len());
            for (i, v) in vals.iter().enumerate() {
                b.set(cwf_lang::VarId(i as u32), *v);
            }
            let e = Event::new(run.spec(), rid, b).unwrap();
            run.push(e).unwrap();
        };
        push(&mut run, "open", &[k, Value::str("a")]); // 0: creates tuple
        push(&mut run, "fill", &[k, Value::str("b")]); // 1: fills B (relevant to p2)
        push(&mut run, "use", &[k, Value::str("b")]); // 2: uses R(k, b), visible at p
        let index = RunIndex::build(&run);
        let p = run.spec().collab().peer("p").unwrap();
        // {0, 2} is boundary faithful (0 is the lifecycle start) but drops
        // the modification (event 1) of attribute B, relevant to event 2's
        // peer p2.
        let without_fill = EventSet::from_iter(3, [0, 2]);
        assert!(is_boundary_faithful(&run, &index, &without_fill));
        assert!(!is_modification_faithful(&run, &index, p, &without_fill));
        let full = EventSet::full(3);
        assert!(is_faithful(&run, &index, p, &full));
    }

    #[test]
    fn relevant_attrs_empty_for_blind_peer() {
        let run = example_4_2();
        let applicant = run.spec().collab().peer("applicant").unwrap();
        let ok = run.spec().collab().schema().rel("Ok").unwrap();
        assert!(relevant_attrs(&run, applicant, ok).is_empty());
        let cto = run.spec().collab().peer("cto").unwrap();
        assert!(!relevant_attrs(&run, cto, ok).is_empty());
    }
}
