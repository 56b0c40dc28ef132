//! Requirement tracing: *why* is an event part of the explanation?
//!
//! The minimal p-faithful scenario is a fixpoint of `T_p`, so every event it
//! contains got there through a chain of faithfulness obligations rooted in
//! an event visible at `p`. [`traced_closure`] runs the same worklist as
//! [`crate::tp_closure`] over the same requirement walker, and records, for
//! each pulled-in event, the first obligation that demanded it; [`why`]
//! walks those records back to a visible root, producing a human-readable
//! justification chain — the natural drill-down companion to
//! [`crate::explain()`].

use std::collections::BTreeMap;
use std::fmt;

use cwf_engine::Run;
use cwf_model::{AttrId, PeerId, RelId, Value};

use crate::index::RunIndex;
use crate::scenario::visible_set;
use crate::set::EventSet;
use crate::tp::{for_each_requirement, Requirement};

/// The faithfulness obligation that pulled an event into the closure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Obligation {
    /// The event is visible at the peer — a root of the explanation.
    Visible,
    /// Boundary faithfulness: the event opened the lifecycle of `(rel, key)`
    /// that `by` uses.
    OpenedLifecycle {
        /// The event whose key use demanded this one.
        by: usize,
        /// The relation of the lifecycle.
        rel: RelId,
        /// The key of the lifecycle.
        key: Value,
    },
    /// Boundary faithfulness: the event closed the lifecycle of `(rel, key)`
    /// that `by` uses.
    ClosedLifecycle {
        /// The event whose key use demanded this one.
        by: usize,
        /// The relation of the lifecycle.
        rel: RelId,
        /// The key of the lifecycle.
        key: Value,
    },
    /// Modification faithfulness: the event wrote attributes of
    /// `(rel, key)` relevant to `by`'s peer (or to the observer).
    WroteAttributes {
        /// The event whose fact use demanded this one.
        by: usize,
        /// The relation of the modified tuple.
        rel: RelId,
        /// The key of the modified tuple.
        key: Value,
        /// The relevant attributes written.
        attrs: Vec<AttrId>,
    },
}

impl Obligation {
    /// The demanding event, if any (`None` for roots).
    pub fn demanded_by(&self) -> Option<usize> {
        match self {
            Obligation::Visible => None,
            Obligation::OpenedLifecycle { by, .. }
            | Obligation::ClosedLifecycle { by, .. }
            | Obligation::WroteAttributes { by, .. } => Some(*by),
        }
    }
}

/// The closure together with one obligation per member.
#[derive(Debug, Clone)]
pub struct TracedClosure {
    /// The closed event set (equal to `tp_closure` of the same seed).
    pub events: EventSet,
    /// Per member: the first obligation that demanded it.
    pub reasons: BTreeMap<usize, Obligation>,
}

/// Computes `T_p^ω` of the visible events while recording, for each member,
/// the first obligation that pulled it in.
pub fn traced_closure(run: &Run, index: &RunIndex, peer: PeerId) -> TracedClosure {
    let mut events = visible_set(run, peer);
    let mut reasons: BTreeMap<usize, Obligation> =
        events.iter().map(|i| (i, Obligation::Visible)).collect();
    let mut worklist: Vec<usize> = events.iter().collect();
    while let Some(by) = worklist.pop() {
        for_each_requirement(run, index, peer, by, |i, req| {
            if events.insert(i) {
                let obligation = match req {
                    Requirement::Opened(rel, key) => {
                        Obligation::OpenedLifecycle { by, rel, key: *key }
                    }
                    Requirement::Closed(rel, key) => {
                        Obligation::ClosedLifecycle { by, rel, key: *key }
                    }
                    Requirement::Wrote(rel, key, written, relevant) => {
                        Obligation::WroteAttributes {
                            by,
                            rel,
                            key: *key,
                            attrs: written.intersection(relevant).copied().collect(),
                        }
                    }
                };
                reasons.insert(i, obligation);
                worklist.push(i);
            }
        });
    }
    TracedClosure { events, reasons }
}

/// One link of a justification chain.
#[derive(Debug, Clone)]
pub struct WhyStep {
    /// The event being justified.
    pub event: usize,
    /// Its obligation.
    pub obligation: Obligation,
}

/// A justification chain from an event back to a visible root.
#[derive(Debug, Clone)]
pub struct Justification {
    /// The chain, starting at the queried event and ending at a
    /// [`Obligation::Visible`] root.
    pub steps: Vec<WhyStep>,
}

impl Justification {
    /// Renders the chain against a run (rule names and fact descriptions).
    pub fn render(&self, run: &Run) -> String {
        let spec = run.spec();
        let schema = spec.collab().schema();
        let mut out = String::new();
        for (i, step) in self.steps.iter().enumerate() {
            let indent = "  ".repeat(i);
            let ev = run.event(step.event).describe(spec);
            let line = match &step.obligation {
                Obligation::Visible => {
                    format!("{indent}#{} {} — observed directly", step.event, ev)
                }
                Obligation::OpenedLifecycle { by, rel, key } => format!(
                    "{indent}#{} {} — created {}[{}] used by #{}",
                    step.event,
                    ev,
                    schema.relation(*rel).name(),
                    key,
                    by
                ),
                Obligation::ClosedLifecycle { by, rel, key } => format!(
                    "{indent}#{} {} — deleted {}[{}] used by #{}",
                    step.event,
                    ev,
                    schema.relation(*rel).name(),
                    key,
                    by
                ),
                Obligation::WroteAttributes {
                    by,
                    rel,
                    key,
                    attrs,
                } => {
                    let names: Vec<&str> = attrs
                        .iter()
                        .map(|a| schema.relation(*rel).attr_name(*a))
                        .collect();
                    format!(
                        "{indent}#{} {} — wrote {}[{}].{{{}}} used by #{}",
                        step.event,
                        ev,
                        schema.relation(*rel).name(),
                        key,
                        names.join(", "),
                        by
                    )
                }
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Justification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "justification chain of {} step(s)", self.steps.len())
    }
}

/// Why is `event` part of the minimal faithful scenario for `peer`?
/// `None` when it is not part of it at all.
pub fn why(run: &Run, index: &RunIndex, peer: PeerId, event: usize) -> Option<Justification> {
    let traced = traced_closure(run, index, peer);
    if !traced.events.contains(event) {
        return None;
    }
    let mut steps = Vec::new();
    let mut cur = event;
    loop {
        let obligation = traced.reasons[&cur].clone();
        let next = obligation.demanded_by();
        steps.push(WhyStep {
            event: cur,
            obligation,
        });
        match next {
            Some(n) => cur = n,
            None => break,
        }
        // The `by` chains are strictly "demanded later or visible", and each
        // event has exactly one recorded reason, so this terminates.
        debug_assert!(steps.len() <= run.len());
    }
    Some(Justification { steps })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tp::minimal_faithful_scenario;
    use cwf_engine::{Bindings, Event};
    use cwf_lang::parse_workflow;
    use std::sync::Arc;

    fn run() -> Run {
        let spec = Arc::new(
            parse_workflow(
                r#"
                schema { A(K); B(K); Out(K); Junk(K); }
                peers { q sees A(*), B(*), Out(*), Junk(*); p sees Out(*); }
                rules {
                    a @ q: +A(0) :- ;
                    junk @ q: +Junk(0) :- ;
                    b @ q: +B(0) :- A(0);
                    out @ q: +Out(0) :- B(0);
                }
                "#,
            )
            .unwrap(),
        );
        let mut run = Run::new(Arc::clone(&spec));
        for n in ["a", "junk", "b", "out"] {
            let rid = spec.program().rule_by_name(n).unwrap();
            run.push(Event::new(&spec, rid, Bindings::empty(0)).unwrap())
                .unwrap();
        }
        run
    }

    #[test]
    fn traced_closure_agrees_with_tp_closure() {
        let run = run();
        let p = run.spec().collab().peer("p").unwrap();
        let index = RunIndex::build(&run);
        let traced = traced_closure(&run, &index, p);
        let plain = minimal_faithful_scenario(&run, p).events;
        assert_eq!(traced.events, plain);
        // Every member has a reason; non-members have none.
        for i in 0..run.len() {
            assert_eq!(traced.events.contains(i), traced.reasons.contains_key(&i));
        }
    }

    #[test]
    fn why_chains_end_at_visible_roots() {
        let run = run();
        let p = run.spec().collab().peer("p").unwrap();
        let index = RunIndex::build(&run);
        // Event 0 (a): pulled in because b uses A(0), which out uses, which
        // is visible.
        let j = why(&run, &index, p, 0).expect("a is in the explanation");
        assert_eq!(j.steps.len(), 3, "a ← b ← out");
        assert_eq!(j.steps[0].event, 0);
        assert!(matches!(
            j.steps[0].obligation,
            Obligation::OpenedLifecycle { by: 2, .. }
        ));
        assert_eq!(j.steps[2].event, 3);
        assert!(matches!(j.steps[2].obligation, Obligation::Visible));
        // Junk (1) is not in the explanation.
        assert!(why(&run, &index, p, 1).is_none());
    }

    #[test]
    fn render_is_readable() {
        let run = run();
        let p = run.spec().collab().peer("p").unwrap();
        let index = RunIndex::build(&run);
        let j = why(&run, &index, p, 0).unwrap();
        let text = j.render(&run);
        assert!(text.contains("created A[0] used by #2"));
        assert!(text.contains("observed directly"));
        assert_eq!(format!("{j}"), "justification chain of 3 step(s)");
    }

    #[test]
    fn deletion_obligations_are_traced() {
        // Example 4.2 shape: including e forces f (closed lifecycle).
        let spec = Arc::new(
            parse_workflow(
                r#"
                schema { Ok(K); Approval(K); }
                peers { q sees Ok(*), Approval(*); p sees Approval(*); }
                rules {
                    e @ q: +Ok(0) :- ;
                    h @ q: +Approval(0) :- Ok(0);
                    f @ q: -key Ok(0) :- Ok(0);
                }
                "#,
            )
            .unwrap(),
        );
        let mut run = Run::new(Arc::clone(&spec));
        for n in ["e", "h", "f"] {
            let rid = spec.program().rule_by_name(n).unwrap();
            run.push(Event::new(&spec, rid, Bindings::empty(0)).unwrap())
                .unwrap();
        }
        let p = spec.collab().peer("p").unwrap();
        let index = RunIndex::build(&run);
        // f (the deletion) is pulled in as the right boundary of Ok's
        // lifecycle, used by h.
        let j = why(&run, &index, p, 2).expect("f is required");
        assert!(matches!(
            j.steps[0].obligation,
            Obligation::ClosedLifecycle { .. }
        ));
    }

    #[test]
    fn modification_obligations_are_traced() {
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
        let pool = spec.collab().schema().rel("Pool").unwrap();
        let mut init = cwf_model::Instance::empty(spec.collab().schema());
        for v in ["k", "a", "b"] {
            init.rel_mut(pool)
                .insert(cwf_model::Tuple::new([Value::str(v)]))
                .unwrap();
        }
        let mut run = Run::with_initial(Arc::clone(&spec), init);
        let fire = |run: &mut Run, name: &str, vals: &[Value]| {
            let rid = run.spec().program().rule_by_name(name).unwrap();
            let mut b = Bindings::empty(vals.len());
            for (i, v) in vals.iter().enumerate() {
                b.set(cwf_lang::VarId(i as u32), *v);
            }
            let e = Event::new(run.spec(), rid, b).unwrap();
            run.push(e).unwrap();
        };
        fire(&mut run, "open", &[Value::str("k"), Value::str("a")]);
        fire(&mut run, "fill", &[Value::str("k"), Value::str("b")]);
        fire(&mut run, "use", &[Value::str("k"), Value::str("b")]);
        let p = spec.collab().peer("p").unwrap();
        let index = RunIndex::build(&run);
        let j = why(&run, &index, p, 1).expect("fill is required");
        assert!(matches!(
            &j.steps[0].obligation,
            Obligation::WroteAttributes { by: 2, .. }
        ));
        let text = j.render(&run);
        assert!(text.contains("wrote R["), "got: {text}");
    }
}
