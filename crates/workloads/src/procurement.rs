//! A realistic multi-peer procurement workflow.
//!
//! An employee submits purchase requests; small requests need a manager
//! approval, large ones additionally a finance sign-off; procurement places
//! the order, the vendor ships, and procurement notifies the employee.
//! Downstream facts are keyed by the originating request id, so `¬Key`
//! guards express "not yet processed".
//!
//! The employee sees only `Request` and `Notice`: explaining a notice
//! requires tracing through the invisible approval/order/shipment chain,
//! while *stalled* requests of other cycles contribute irrelevant silent
//! events that minimal faithful scenarios must drop. This is the scaling
//! workload of experiments E3 (polynomial minimal-faithful-scenario
//! extraction) and E4 (incremental maintenance).

use std::sync::Arc;

use rand::prelude::*;

use cwf_engine::{Bindings, Event, Run};
use cwf_lang::{parse_workflow, VarId, WorkflowSpec};
use cwf_model::{PeerId, Value};

/// The procurement workflow spec.
pub fn procurement_spec() -> Arc<WorkflowSpec> {
    Arc::new(
        parse_workflow(
            r#"
            schema {
                Request(K, Size);
                ApprovalM(K);
                ApprovalF(K);
                Order(K);
                Shipment(K);
                Notice(K);
            }
            peers {
                emp sees Request(*), Notice(*);
                mgr sees Request(*), ApprovalM(*), ApprovalF(*), Order(*),
                         Shipment(*), Notice(*);
                fin sees Request(*), ApprovalM(*), ApprovalF(*), Order(*),
                         Shipment(*), Notice(*);
                proc sees Request(*), ApprovalM(*), ApprovalF(*), Order(*),
                          Shipment(*), Notice(*);
                vendor sees Order(*), Shipment(*);
            }
            rules {
                submit_small @ emp: +Request(r, "small") :- ;
                submit_large @ emp: +Request(r, "large") :- ;
                approve_m @ mgr:
                    +ApprovalM(r) :- Request(r, s), not key ApprovalM(r);
                approve_f @ fin:
                    +ApprovalF(r) :- Request(r, "large"), not key ApprovalF(r);
                order_small @ proc:
                    +Order(r) :- Request(r, "small"), ApprovalM(r),
                                 not key Order(r);
                order_large @ proc:
                    +Order(r) :- Request(r, "large"), ApprovalM(r),
                                 ApprovalF(r), not key Order(r);
                ship @ vendor: +Shipment(r) :- Order(r), not key Shipment(r);
                notify @ proc:
                    +Notice(r) :- Order(r), Shipment(r), not key Notice(r);
            }
            "#,
        )
        .expect("procurement workflow parses"),
    )
}

/// A built procurement run with bookkeeping for the experiments.
pub struct ProcurementRun {
    /// The run.
    pub run: Run,
    /// The employee peer (the explained observer).
    pub emp: PeerId,
    /// Positions of the `notify` events, one per completed request.
    pub notices: Vec<usize>,
}

/// Builds a run completing `n_requests` purchase cycles (randomly small or
/// large). Before each cycle, `noise_requests` extra requests are submitted
/// and manager-approved but never complete — silent work irrelevant to the
/// completed cycles.
pub fn build_procurement_run(
    n_requests: usize,
    noise_requests: usize,
    rng: &mut impl Rng,
) -> ProcurementRun {
    let spec = procurement_spec();
    let emp = spec.collab().peer("emp").unwrap();
    let mut run = Run::new(Arc::clone(&spec));
    let mut notices = Vec::new();
    let fire = |run: &mut Run, name: &str, vals: &[Value]| -> usize {
        let rid = run.spec().program().rule_by_name(name).unwrap();
        let rule = run.spec().program().rule(rid);
        debug_assert_eq!(rule.vars.len(), vals.len(), "rule {name}");
        let mut b = Bindings::empty(vals.len());
        for (i, v) in vals.iter().enumerate() {
            b.set(VarId(i as u32), *v);
        }
        let e = Event::new(run.spec(), rid, b).unwrap();
        run.push(e)
            .unwrap_or_else(|err| panic!("firing {name}: {err}"));
        run.len() - 1
    };
    for _ in 0..n_requests {
        let large = rng.gen_bool(0.5);
        let size = Value::str(if large { "large" } else { "small" });
        let r = run.draw_fresh();
        fire(
            &mut run,
            if large {
                "submit_large"
            } else {
                "submit_small"
            },
            std::slice::from_ref(&r),
        );
        // Stalled noise requests: submitted and approved, never ordered.
        for _ in 0..noise_requests {
            let nr = run.draw_fresh();
            fire(&mut run, "submit_small", std::slice::from_ref(&nr));
            fire(&mut run, "approve_m", &[nr, Value::str("small")]);
        }
        fire(&mut run, "approve_m", &[r, size]);
        if large {
            fire(&mut run, "approve_f", std::slice::from_ref(&r));
            fire(&mut run, "order_large", std::slice::from_ref(&r));
        } else {
            fire(&mut run, "order_small", std::slice::from_ref(&r));
        }
        fire(&mut run, "ship", std::slice::from_ref(&r));
        notices.push(fire(&mut run, "notify", &[r]));
    }
    ProcurementRun { run, emp, notices }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwf_core::{facts, minimal_faithful_scenario};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cycles_complete_and_are_visible_to_emp() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = build_procurement_run(3, 1, &mut rng);
        assert_eq!(p.notices.len(), 3);
        // emp sees the submissions (own + noise) and the notices.
        let view = p.run.view(p.emp);
        assert_eq!(
            view.len(),
            3 + 3 + 3,
            "3 main + 3 noise submits + 3 notices"
        );
    }

    #[test]
    fn explanation_traces_cycles_and_drops_stalled_approvals() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = build_procurement_run(1, 2, &mut rng);
        let expl = minimal_faithful_scenario(&p.run, p.emp);
        let rendered = expl.to_string();
        assert!(rendered.contains("notify@proc"));
        assert!(rendered.contains("ship@vendor"));
        // The two stalled approvals are irrelevant to emp's observations.
        let dropped_approvals = p
            .run
            .events()
            .iter()
            .enumerate()
            .filter(|(i, e)| {
                p.run.spec().program().rule(e.rule).name == "approve_m" && !expl.events.contains(*i)
            })
            .count();
        assert_eq!(dropped_approvals, 2);
    }

    #[test]
    fn incremental_matches_scratch_on_procurement() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = build_procurement_run(2, 1, &mut rng);
        // The stepped faithful set after every push ≡ a clone's, which
        // starts with an empty facts slot and computes it from scratch.
        let mut run = Run::new(p.run.spec_arc());
        facts(&run).faithful(p.emp);
        for i in 0..p.run.len() {
            run.push(p.run.event(i).clone()).unwrap();
            let scratch = minimal_faithful_scenario(&run.clone(), p.emp).events;
            assert_eq!(facts(&run).faithful(p.emp), &scratch, "after #{i}");
        }
    }

    #[test]
    fn runs_scale_linearly_with_requests() {
        let mut rng = StdRng::seed_from_u64(4);
        let small = build_procurement_run(2, 0, &mut rng).run.len();
        let mut rng = StdRng::seed_from_u64(4);
        let big = build_procurement_run(6, 0, &mut rng).run.len();
        assert!(big > small * 2);
    }
}
