//! Run-level transparency and h-boundedness (Definition 6.4) and run
//! projections (Definition 6.6).
//!
//! While Section 5 analyses whole *programs*, Section 6's enforcement works
//! run by run: `tRuns_{p,h}(P)` is the set of runs every stage of which (a)
//! has a minimum p-faithful subrun of length ≤ h, and (b) transplants to
//! every p-fresh instance with the same p-view. The checkers here decide
//! membership against a caller-provided pool of candidate p-fresh instances
//! (exhaustive over a constant pool via `cwf-analysis`, or harvested from
//! sampled runs).

use std::collections::{BTreeMap, BTreeSet};

use cwf_analysis::{chain_fails_on, minimum_faithful_of_stage, stages};
use cwf_engine::{Event, GroundUpdate, Run};
use cwf_model::{AttrId, Instance, PeerId, RelId, Schema, Tuple, Value, KEY};

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
pub fn is_run_h_bounded(run: &Run, peer: PeerId, h: usize) -> bool {
    stages(run, peer).iter().all(|st| {
        match minimum_faithful_of_stage(run, peer, st) {
            Some((offsets, _)) => offsets.len() <= h,
            None => true, // open stage: no observation yet
        }
    })
}

/// Checks run-level transparency (Definition 6.4) against a pool of
/// candidate p-fresh instances.
pub fn run_transparency_violation(
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

// ---------------------------------------------------------------------------
// Run projection (Definition 6.6)
// ---------------------------------------------------------------------------

/// A projection schema `Π`: a subset of the relations, each with a subset of
/// its attributes (always containing the key).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Projection {
    /// Relation → kept attributes (sorted, key first).
    pub rels: BTreeMap<RelId, Vec<AttrId>>,
}

impl Projection {
    /// A projection keeping the given attributes per relation (the key is
    /// added automatically).
    pub fn new(rels: impl IntoIterator<Item = (RelId, Vec<AttrId>)>) -> Self {
        let rels = rels
            .into_iter()
            .map(|(r, mut attrs)| {
                attrs.push(KEY);
                attrs.sort();
                attrs.dedup();
                (r, attrs)
            })
            .collect();
        Projection { rels }
    }

    /// The identity projection on a schema.
    pub fn identity(schema: &Schema) -> Self {
        Projection {
            rels: schema
                .rel_ids()
                .map(|r| (r, schema.relation(r).attr_ids().collect()))
                .collect(),
        }
    }

    /// Does `Π` keep everything `peer` can observe (its projected attributes
    /// and selection attributes)? Statically sufficient for `Π` to be *the
    /// identity for `peer`* on every run.
    pub fn covers_peer(&self, spec: &cwf_lang::WorkflowSpec, peer: PeerId) -> bool {
        spec.collab().visible_rels(peer).all(|r| {
            let Some(kept) = self.rels.get(&r) else {
                return false;
            };
            spec.collab()
                .relevant_attrs(peer, r)
                .expect("visible")
                .iter()
                .all(|a| kept.contains(a))
        })
    }

    /// Projects an instance (dropping relations outside `Π`, projecting the
    /// kept ones; the result is shaped like the original schema with `⊥` on
    /// removed attributes, so views remain comparable).
    pub fn project_instance(&self, schema: &Schema, inst: &Instance) -> Instance {
        let mut out = Instance::empty(schema);
        for (r, kept) in &self.rels {
            for t in inst.rel(*r).iter() {
                let arity = schema.relation(*r).arity();
                let padded = Tuple::padded(arity, kept.iter().map(|a| (*a, *t.get(*a))));
                out.rel_mut(*r)
                    .insert(padded)
                    .expect("keys preserved by projection");
            }
        }
        out
    }

    /// Projects one event's ground updates; `None` when the head empties
    /// (the event is removed from the projected run).
    pub fn project_updates(
        &self,
        updates: &[GroundUpdate],
        schema: &Schema,
    ) -> Option<Vec<GroundUpdate>> {
        let mut out = Vec::new();
        for u in updates {
            match u {
                GroundUpdate::Insert { rel, view_tuple: _ } => {
                    if let Some(kept) = self.rels.get(rel) {
                        let arity = schema.relation(*rel).arity();
                        // view_tuple here is peer-view width; the projected
                        // update keeps the intersection of attributes; we
                        // conservatively project the padded full tuple.
                        let _ = arity;
                        let _ = kept;
                        out.push(u.clone());
                    }
                }
                GroundUpdate::Delete { rel, .. } => {
                    if self.rels.contains_key(rel) {
                        out.push(u.clone());
                    }
                }
            }
        }
        if out.is_empty() {
            None
        } else {
            Some(out)
        }
    }

    /// Projects a run: the sequence of projected instances plus, per event,
    /// the projected updates (`None` marks events removed by `Π`).
    pub fn project_run(&self, run: &Run) -> Vec<(Option<Vec<GroundUpdate>>, Instance)> {
        let schema = run.spec().collab().schema();
        (0..run.len())
            .map(|i| {
                (
                    self.project_updates(&run.event(i).ground_updates(run.spec()), schema),
                    self.project_instance(schema, run.instance(i)),
                )
            })
            .collect()
    }
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

    #[test]
    fn projection_identity_and_covering() {
        let spec = hiring();
        let sue = spec.collab().peer("sue").unwrap();
        let schema = spec.collab().schema();
        let id = Projection::identity(schema);
        assert!(id.covers_peer(&spec, sue));
        // Drop Approved: still covers sue (sue never saw it).
        let cleared = schema.rel("Cleared").unwrap();
        let hire = schema.rel("Hire").unwrap();
        let proj = Projection::new([(cleared, vec![]), (hire, vec![])]);
        assert!(proj.covers_peer(&spec, sue));
        // Drop Cleared: no longer covers sue.
        let proj2 = Projection::new([(hire, vec![])]);
        assert!(!proj2.covers_peer(&spec, sue));
    }

    #[test]
    fn projection_of_runs_drops_hidden_relations() {
        let spec = hiring();
        let schema = spec.collab().schema();
        let cleared = schema.rel("Cleared").unwrap();
        let hire = schema.rel("Hire").unwrap();
        let approved = schema.rel("Approved").unwrap();
        let proj = Projection::new([(cleared, vec![]), (hire, vec![])]);
        let mut run = Run::new(Arc::clone(&spec));
        let x = Value::Fresh(100);
        push(&mut run, "clear", std::slice::from_ref(&x));
        push(&mut run, "approve", std::slice::from_ref(&x));
        push(&mut run, "hire", std::slice::from_ref(&x));
        let projected = proj.project_run(&run);
        assert_eq!(projected.len(), 3);
        // The approve event's head empties: removed.
        assert!(projected[1].0.is_none());
        assert!(projected[0].0.is_some());
        // Projected instances never contain Approved.
        for (_, inst) in &projected {
            assert!(inst.rel(approved).is_empty());
        }
        assert!(projected[2].1.rel(hire).contains_key(&x));
    }
}
