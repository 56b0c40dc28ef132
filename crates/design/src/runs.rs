//! Run-level transparency and h-boundedness (Definition 6.4).
//!
//! While Section 5 analyses whole *programs*, Section 6's enforcement works
//! run by run: `tRuns_{p,h}(P)` is the set of runs every stage of which (a)
//! has a minimum p-faithful subrun of length ≤ h, and (b) transplants to
//! every p-fresh instance with the same p-view. The checkers here decide
//! membership against a caller-provided pool of candidate p-fresh instances
//! (exhaustive over a constant pool via `cwf-analysis`, or harvested from
//! sampled runs).

use std::collections::BTreeSet;

use cwf_analysis::{chain_fails_on, minimum_faithful_of_stage, stages};
use cwf_engine::{Event, Run};
use cwf_model::{Instance, PeerId, Value};

/// A violation of run-level transparency.
#[derive(Debug, Clone)]
pub struct RunTransparencyViolation {
    /// Index of the offending stage.
    pub stage: usize,
    /// The p-fresh instance the stage chain does not transplant to.
    pub against: Instance,
    /// Why.
    pub reason: String,
}

/// Is every closed stage's minimum p-faithful subrun of length ≤ h?
/// (The h-boundedness half of Definition 6.4.)
pub(crate) fn is_run_h_bounded(run: &Run, peer: PeerId, h: usize) -> bool {
    stages(run, peer).iter().all(|st| {
        match minimum_faithful_of_stage(run, peer, st) {
            Some((offsets, _)) => offsets.len() <= h,
            None => true, // open stage: no observation yet
        }
    })
}

/// Checks run-level transparency (Definition 6.4) against a pool of
/// candidate p-fresh instances.
pub(crate) fn run_transparency_violation(
    run: &Run,
    peer: PeerId,
    candidates: &[Instance],
) -> Option<RunTransparencyViolation> {
    let spec = run.spec_arc();
    for (si, st) in stages(run, peer).iter().enumerate() {
        let Some((_, sub)) = minimum_faithful_of_stage(run, peer, st) else {
            continue;
        };
        let pre = run.pre_instance(st.start);
        let chain: Vec<Event> = sub.events().to_vec();
        let mut new_vals: BTreeSet<Value> = BTreeSet::new();
        for e in &chain {
            new_vals.extend(e.new_values(run.spec()));
        }
        let view = run.spec().collab().view_of(pre, peer);
        for j in candidates {
            if j == pre || run.spec().collab().view_of(j, peer) != view {
                continue;
            }
            if !new_vals.is_disjoint(&j.adom()) {
                continue;
            }
            if let Some(reason) = chain_fails_on(&spec, peer, pre, j, &chain) {
                return Some(RunTransparencyViolation {
                    stage: si,
                    against: j.clone(),
                    reason,
                });
            }
        }
    }
    None
}

/// Membership in `tRuns_{p,h}(P)` relative to a candidate pool.
pub fn in_t_runs(run: &Run, peer: PeerId, h: usize, candidates: &[Instance]) -> bool {
    is_run_h_bounded(run, peer, h) && run_transparency_violation(run, peer, candidates).is_none()
}

/// Harvests the genuinely p-fresh instances a run witnesses: the empty
/// instance (if the run starts there) and every state immediately after a
/// p-visible event. These are valid candidate pools for
/// [`run_transparency_violation`] — Definition 6.4 quantifies over p-fresh
/// instances only, so arbitrary intermediate states must *not* be used.
pub fn p_fresh_candidates(run: &Run, peer: PeerId) -> Vec<Instance> {
    let mut out = Vec::new();
    if run.initial().is_empty() {
        out.push(run.initial().clone());
    }
    // Rolled through the diffs, so harvesting fills no history cell.
    let mut inst = run.initial().clone();
    let mut rolled = 0;
    for i in run.visible_events(peer) {
        for j in rolled..=i {
            run.diff(j).apply_to(&mut inst);
        }
        rolled = i + 1;
        out.push(inst.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwf_engine::Bindings;
    use cwf_lang::parse_workflow;
    use std::sync::Arc;

    fn hiring() -> Arc<cwf_lang::WorkflowSpec> {
        Arc::new(
            parse_workflow(
                r#"
                schema { Cleared(K); Approved(K); Hire(K); }
                peers {
                    hr sees Cleared(*), Approved(*), Hire(*);
                    ceo sees Cleared(*), Approved(*), Hire(*);
                    sue sees Cleared(*), Hire(*);
                }
                rules {
                    clear @ hr: +Cleared(x) :- ;
                    approve @ ceo: +Approved(x) :- Cleared(x), not key Approved(x);
                    hire @ hr: +Hire(x) :- Approved(x), not key Hire(x);
                }
                "#,
            )
            .unwrap(),
        )
    }

    fn push(run: &mut Run, name: &str, vals: &[Value]) {
        let rid = run.spec().program().rule_by_name(name).unwrap();
        let mut b = Bindings::empty(vals.len());
        for (i, v) in vals.iter().enumerate() {
            b.set(cwf_lang::VarId(i as u32), *v);
        }
        let e = Event::new(run.spec(), rid, b).unwrap();
        run.push(e).unwrap();
    }

    #[test]
    fn run_h_boundedness_counts_stage_chains() {
        let spec = hiring();
        let sue = spec.collab().peer("sue").unwrap();
        let mut run = Run::new(Arc::clone(&spec));
        let x = Value::Fresh(100);
        push(&mut run, "clear", std::slice::from_ref(&x)); // visible, stage 0
        push(&mut run, "approve", std::slice::from_ref(&x)); // silent
        push(&mut run, "hire", std::slice::from_ref(&x)); // visible, stage 1: chain len 2
        assert!(is_run_h_bounded(&run, sue, 2));
        assert!(!is_run_h_bounded(&run, sue, 1));
    }

    #[test]
    fn stale_approval_breaks_run_transparency() {
        let spec = hiring();
        let sue = spec.collab().peer("sue").unwrap();
        // Run A: clear(x); approve(x); clear(y); hire(x).
        // The final stage [hire] depends on the Approved fact derived in an
        // earlier stage — the candidate p-fresh instance with the same
        // sue-view but *no* Approved fact witnesses the violation.
        let mut run = Run::new(Arc::clone(&spec));
        let x = Value::Fresh(100);
        let y = Value::Fresh(200);
        push(&mut run, "clear", std::slice::from_ref(&x));
        push(&mut run, "approve", std::slice::from_ref(&x));
        push(&mut run, "clear", std::slice::from_ref(&y));
        push(&mut run, "hire", std::slice::from_ref(&x));
        // Candidate: same view (Cleared{x,y}, no Hire) without Approved.
        let mut j = run.instance(2).clone();
        let approved = spec.collab().schema().rel("Approved").unwrap();
        j.rel_mut(approved).remove(&x);
        let v = run_transparency_violation(&run, sue, std::slice::from_ref(&j));
        let v = v.expect("stale approval must be flagged");
        assert_eq!(v.stage, 2);
        assert!(!in_t_runs(&run, sue, 3, &[j]));
    }

    #[test]
    fn same_stage_approval_is_transparent_against_itself() {
        let spec = hiring();
        let sue = spec.collab().peer("sue").unwrap();
        let mut run = Run::new(Arc::clone(&spec));
        let x = Value::Fresh(100);
        push(&mut run, "clear", std::slice::from_ref(&x));
        push(&mut run, "approve", std::slice::from_ref(&x));
        push(&mut run, "hire", std::slice::from_ref(&x));
        // Against the run's own p-fresh instances, no violation: the
        // approve is inside the observed stage. (Arbitrary intermediate
        // states are not p-fresh and must not be used as candidates.)
        let candidates = p_fresh_candidates(&run, sue);
        assert!(candidates.len() >= 2, "initial + post-visible states");
        assert!(run_transparency_violation(&run, sue, &candidates).is_none());
        assert!(in_t_runs(&run, sue, 2, &candidates));
    }
}
