//! The paper's running examples, as reusable workloads.
//!
//! * [`applicant_example`] — Example 4.2 (cto/ceo/assistant/applicant) with
//!   its canonical run `e f g h`;
//! * [`hiring_example`] — Example 5.1 (hr/cfo/ceo/Sue, with `cfoOK`);
//! * [`hiring_no_cfo`] — Example 5.7's intermediate program (not
//!   transparent for Sue);
//! * [`hiring_staged`] — the staged, transparent variant (Approved keyed by
//!   a fresh token carrying the stage id — see the design notes);
//! * [`hr_replace_example`] — the `Assign`/`Replace` rule of Section 2.

use std::sync::Arc;

use cwf_engine::{Bindings, Event, Run};
use cwf_lang::{parse_workflow, WorkflowSpec};

/// Example 4.2: the applicant sees only `Approval`; the cto's retracted ok
/// must not serve as the explanation of the approval.
pub fn applicant_example() -> Arc<WorkflowSpec> {
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
        .expect("example 4.2 parses"),
    )
}

/// The canonical run `e f g h` of Example 4.2.
pub fn applicant_run() -> Run {
    let spec = applicant_example();
    let mut run = Run::new(Arc::clone(&spec));
    for n in ["e", "f", "g", "h"] {
        let rid = spec.program().rule_by_name(n).unwrap();
        run.push(Event::new(&spec, rid, Bindings::empty(0)).unwrap())
            .expect("canonical run of example 4.2");
    }
    run
}

/// Example 5.1: hiring with a cfo sign-off that Sue cannot see.
///
/// One adjustment to the paper's literal rules: `+cfoOK@cfo(x) :-` has a
/// head-only `x`, which the run semantics forces to a globally *fresh*
/// value — it could then never match an existing candidate. We bind `x`
/// through `Cleared(x)` instead (the cfo signs off on cleared candidates),
/// which is the evident intent.
pub fn hiring_example() -> Arc<WorkflowSpec> {
    Arc::new(
        parse_workflow(
            r#"
            schema { Cleared(K); CfoOK(K); Approved(K); Hire(K); }
            peers {
                hr sees Cleared(*), CfoOK(*), Approved(*), Hire(*);
                cfo sees Cleared(*), CfoOK(*), Approved(*), Hire(*);
                ceo sees Cleared(*), CfoOK(*), Approved(*), Hire(*);
                sue sees Cleared(*), Hire(*);
            }
            rules {
                clear @ hr: +Cleared(x) :- ;
                cfo_ok @ cfo: +CfoOK(x) :- Cleared(x);
                approve @ ceo: +Approved(x) :- Cleared(x), CfoOK(x);
                hire @ hr: +Hire(x) :- Approved(x), not key Hire(x);
            }
            "#,
        )
        .expect("example 5.1 parses"),
    )
}

/// Example 5.7's first repair attempt: `cfoOK` removed, still not
/// transparent for Sue (the invisible `Approved` gates her transitions).
pub fn hiring_no_cfo() -> Arc<WorkflowSpec> {
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
        .expect("example 5.7 parses"),
    )
}

/// The staged, transparent hiring workflow (Example 5.7's final form).
/// Approvals are keyed by a fresh token and stamped with the current stage
/// id, so stale approvals can neither conflict nor be reused.
pub fn hiring_staged() -> Arc<WorkflowSpec> {
    Arc::new(
        parse_workflow(
            r#"
            schema { Stage(K, S); Cleared(K); Approved(K, X, S); Hire(K); }
            peers {
                sue sees Stage(*), Cleared(*), Hire(*);
                hr  sees Stage(*), Cleared(*), Approved(*), Hire(*);
                ceo sees Stage(*), Cleared(*), Approved(*), Hire(*);
            }
            rules {
                stage   @ sue: +Stage(0, s) :- not key Stage(0);
                clear   @ hr:  +Cleared(x), -key Stage(0) :- Stage(0, s);
                approve @ ceo: +Approved(k, x, s) :- Cleared(x), Stage(0, s);
                hire    @ hr:  +Hire(x), -key Stage(0)
                               :- Approved(k, x, s), Stage(0, s);
            }
            "#,
        )
        .expect("staged hiring parses"),
    )
}

/// Section 2's HR rule: replace employee `x` by `x′` on project `y`.
pub fn hr_replace_example() -> Arc<WorkflowSpec> {
    Arc::new(
        parse_workflow(
            r#"
            schema { Assign(K, Proj); Replace(K, New); }
            peers {
                hr sees Assign(*), Replace(*);
                board sees Assign(*), Replace(*);
            }
            rules {
                assign @ hr: +Assign(x, y) :- ;
                request @ board: +Replace(x, x2) :- Assign(x, y);
                replace @ hr:
                    -key Assign(x), +Assign(x2, y)
                    :- Assign(x, y), Replace(x, x2), x != x2;
            }
            "#,
        )
        .expect("HR example parses"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwf_core::minimal_faithful_scenario;
    use cwf_lang::VarId;
    use cwf_model::Value;

    #[test]
    fn applicant_explanation_is_gh() {
        let run = applicant_run();
        let applicant = run.spec().collab().peer("applicant").unwrap();
        let expl = minimal_faithful_scenario(&run, applicant);
        assert_eq!(expl.events.to_vec(), vec![2, 3]);
        let rendered = expl.to_string();
        assert!(rendered.contains("g@ceo"));
        assert!(!rendered.contains("e@cto"), "the retracted ok is excluded");
    }

    #[test]
    fn hiring_example_runs_end_to_end() {
        let spec = hiring_example();
        let sue = spec.collab().peer("sue").unwrap();
        let mut run = Run::new(Arc::clone(&spec));
        let x = Value::str("sue");
        for name in ["clear", "cfo_ok", "approve", "hire"] {
            let rid = spec.program().rule_by_name(name).unwrap();
            let rule = spec.program().rule(rid);
            let mut b = Bindings::empty(rule.vars.len());
            b.set(VarId(0), x);
            run.push(Event::new(&spec, rid, b).unwrap()).unwrap();
        }
        // Sue saw the clearance and the hire; the cfo/ceo steps are hidden.
        assert_eq!(run.view(sue).len(), 2);
        let expl = minimal_faithful_scenario(&run, sue);
        assert_eq!(expl.events.len(), 4, "everything is relevant to the hire");
    }

    #[test]
    fn staged_hiring_cycles_through_stages() {
        let spec = hiring_staged();
        let mut run = Run::new(Arc::clone(&spec));
        let mut push = |name: &str, vals: Vec<Value>| {
            let rid = run.spec().program().rule_by_name(name).unwrap();
            let mut b = Bindings::empty(vals.len());
            for (i, v) in vals.into_iter().enumerate() {
                b.set(VarId(i as u32), v);
            }
            let e = Event::new(run.spec(), rid, b).unwrap();
            run.push(e).unwrap();
        };
        let s1 = Value::Fresh(1000);
        let s2 = Value::Fresh(2000);
        let x = Value::Fresh(3000);
        let k = Value::Fresh(4000);
        push("stage", vec![s1]);
        push("clear", vec![x, s1]);
        push("stage", vec![s2]);
        push("approve", vec![k, x, s2]);
        push("hire", vec![x, k, s2]);
        let hire = run.spec().collab().schema().rel("Hire").unwrap();
        assert!(run.current().rel(hire).contains_key(&x));
    }

    #[test]
    fn hr_replace_swaps_assignment() {
        let spec = hr_replace_example();
        let assign = spec.collab().schema().rel("Assign").unwrap();
        let mut run = Run::new(Arc::clone(&spec));
        let (alice, bob, proj) = (Value::str("alice"), Value::str("bob"), Value::str("apollo"));
        let mut push = |name: &str, vals: Vec<Value>| {
            let rid = run.spec().program().rule_by_name(name).unwrap();
            let rule = run.spec().program().rule(rid);
            let mut b = Bindings::empty(rule.vars.len());
            for (i, v) in vals.into_iter().enumerate() {
                b.set(VarId(i as u32), v);
            }
            let e = Event::new(run.spec(), rid, b).unwrap();
            run.push(e).unwrap();
        };
        push("assign", vec![alice, proj]);
        push("request", vec![alice, bob, proj]);
        push("replace", vec![alice, bob, proj]);
        assert!(!run.current().rel(assign).contains_key(&alice));
        let t = run.current().rel(assign).get(&bob).expect("bob assigned");
        assert_eq!(t.get(cwf_model::AttrId(1)), &proj);
    }
}
