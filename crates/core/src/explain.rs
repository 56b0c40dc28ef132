//! The explanation a peer gets: the unique minimal p-faithful scenario of a
//! run (Theorem 4.7), as one value.
//!
//! [`minimal_faithful_scenario`] returns an [`Explanation`] holding the
//! scenario's event positions `T_p^ω(ρ, v̄)`, read from the run's facts.
//! The same value marks which members the peer saw directly
//! ([`Explanation::is_visible`]), prints the report a peer would read (its
//! `Display`), and answers *why* a member is there ([`Explanation::why`]):
//! the minimal scenario is a fixpoint of `T_p`, so every member got there
//! through a chain of faithfulness obligations rooted in an event visible
//! at the peer.

use std::fmt;
use std::sync::OnceLock;

use cwf_engine::Run;
use cwf_model::{AttrId, PeerId, RelId, Value};

use crate::facts::facts;
use crate::scenario::is_subrun;
use crate::set::EventSet;
use crate::tp::{close_from, Requirement};

/// The unique minimal p-faithful scenario of a run for one peer
/// (Theorem 4.7).
///
/// ```
/// use std::sync::Arc;
/// use cwf_lang::parse_workflow;
/// use cwf_engine::{Bindings, Event, Run};
/// use cwf_core::minimal_faithful_scenario;
///
/// let spec = Arc::new(parse_workflow(r#"
///     schema { A(K); Out(K); }
///     peers { q sees A(*), Out(*); p sees Out(*); }
///     rules {
///         junk @ q: +A(1) :- ;
///         out  @ q: +Out(0) :- ;
///     }
/// "#).unwrap());
/// let mut run = Run::new(Arc::clone(&spec));
/// for name in ["junk", "out"] {
///     let rid = spec.program().rule_by_name(name).unwrap();
///     run.push(Event::new(&spec, rid, Bindings::empty(0)).unwrap()).unwrap();
/// }
/// let p = spec.collab().peer("p").unwrap();
/// let ex = minimal_faithful_scenario(&run, p);
/// // Only the Out insertion matters to p; the junk event is dropped.
/// assert_eq!(ex.events.to_vec(), vec![1]);
/// assert!(ex.is_visible(1));
/// assert!(ex.why(0).is_none());
/// ```
#[derive(Clone)]
pub struct Explanation<'a> {
    /// The explained run.
    pub run: &'a Run,
    /// The peer the run is explained to.
    pub peer: PeerId,
    /// The scenario's event positions within the run. Lemma 4.6 makes them
    /// a subrun; [`crate::subrun`] replays it.
    pub events: EventSet,
    /// Per event position, the first obligation that pulled it into the
    /// scenario; traced on the first [`Explanation::why`] of a member.
    reasons: OnceLock<Vec<Option<Obligation>>>,
}

/// Explains `run` to `peer` by its unique minimal p-faithful scenario
/// `run(T_p^ω(ρ, v̄))`, where `v̄` is the set of events visible at `peer`.
/// The event set is read from the run's facts ([`crate::Facts::faithful`]),
/// not replayed; Lemma 4.6 makes it a scenario, so its length bounds every
/// minimum scenario from above. Debug builds check that it replays.
pub fn minimal_faithful_scenario(run: &Run, peer: PeerId) -> Explanation<'_> {
    let events = facts(run).faithful(peer).clone();
    debug_assert!(
        is_subrun(run, &events),
        "Lemma 4.6: p-faithful subsequences yield subruns"
    );
    Explanation {
        run,
        peer,
        events,
        reasons: OnceLock::new(),
    }
}

impl Explanation<'_> {
    /// Was event `i` directly visible at the peer?
    pub fn is_visible(&self, i: usize) -> bool {
        facts(self.run).visible(self.peer).contains(i)
    }

    /// Why is `event` part of the scenario? `None` when it is not part of
    /// it at all.
    pub fn why(&self, event: usize) -> Option<Justification> {
        if !self.events.contains(event) {
            return None;
        }
        let reasons = self.reasons.get_or_init(|| self.trace());
        let mut steps = Vec::new();
        let mut cur = Some(event);
        while let Some(at) = cur {
            let obligation = reasons[at].clone().expect("every member is traced");
            cur = obligation.demanded_by();
            steps.push(WhyStep {
                event: at,
                obligation,
            });
            // Each member has exactly one recorded reason, demanded by an
            // event that entered the walk before it, so this terminates.
            debug_assert!(steps.len() <= self.run.len());
        }
        Some(Justification { steps })
    }

    /// Walks `T_p^ω(ρ, v̄)` again from the visible events, last in first
    /// out as [`crate::tp_closure`] does, recording for each member the
    /// first requirement that pulled it in. The visit order decides which
    /// requirement is first, so the reasons are traced here rather than
    /// read off the set the run's pushes step.
    fn trace(&self) -> Vec<Option<Obligation>> {
        let facts = facts(self.run);
        let visible = facts.visible(self.peer);
        let mut reasons = vec![None; self.run.len()];
        for i in visible.iter() {
            reasons[i] = Some(Obligation::Visible);
        }
        let mut set = visible.clone();
        let worklist = visible.iter().collect();
        close_from(
            self.run,
            facts.index(),
            self.peer,
            &mut set,
            worklist,
            |by, i, why| {
                reasons[i] = Some(match why {
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
                });
            },
        );
        debug_assert_eq!(set, self.events, "the traced walk reaches the scenario");
        reasons
    }
}

impl fmt::Display for Explanation<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let spec = self.run.spec();
        writeln!(
            f,
            "Explanation for {}: {} of {} events relevant",
            spec.collab().peer_name(self.peer),
            self.events.len(),
            self.run.len()
        )?;
        let visible = facts(self.run).visible(self.peer);
        for i in self.events.iter() {
            let marker = if visible.contains(i) {
                "seen  "
            } else {
                "hidden"
            };
            writeln!(
                f,
                "  [{marker}] #{i:<3} {}",
                self.run.event(i).describe(spec)
            )?;
        }
        Ok(())
    }
}

/// The faithfulness obligation that pulled an event into the scenario.
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
    fn demanded_by(&self) -> Option<usize> {
        match self {
            Obligation::Visible => None,
            Obligation::OpenedLifecycle { by, .. }
            | Obligation::ClosedLifecycle { by, .. }
            | Obligation::WroteAttributes { by, .. } => Some(*by),
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{is_scenario, subrun};
    use cwf_engine::{Bindings, Event};
    use cwf_lang::parse_workflow;
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

    /// Example 4.2: the applicant sees only the approval.
    fn example_4_2() -> Run {
        run_of(
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
            &["e", "f", "g", "h"],
        )
    }

    /// `out` (visible at `p`) uses `B(0)`, which uses `A(0)`; `junk` is
    /// unrelated.
    fn chain_run() -> Run {
        run_of(
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
            &["a", "junk", "b", "out"],
        )
    }

    #[test]
    fn example_4_2_minimal_faithful_scenario_is_gh() {
        let run = example_4_2();
        let applicant = run.spec().collab().peer("applicant").unwrap();
        let ex = minimal_faithful_scenario(&run, applicant);
        assert_eq!(
            ex.events.to_vec(),
            vec![2, 3],
            "g then h — not the misleading e h"
        );
        assert_eq!(subrun(&run, &ex.events).unwrap().len(), 2);
        assert!(is_scenario(&run, applicant, &ex.events));
        assert!(!ex.is_visible(2), "g itself is hidden from the applicant");
        assert!(ex.is_visible(3), "h changes the applicant's view");
    }

    #[test]
    fn display_renders_markers() {
        let run = example_4_2();
        let applicant = run.spec().collab().peer("applicant").unwrap();
        let shown = minimal_faithful_scenario(&run, applicant).to_string();
        assert!(shown.starts_with("Explanation for applicant: 2 of 4 events relevant\n"));
        assert!(shown.contains("[hidden] #2"));
        assert!(shown.contains("[seen  ] #3"));
        assert!(shown.contains("g@ceo"));
    }

    #[test]
    fn full_observer_gets_the_whole_run() {
        let run = example_4_2();
        let cto = run.spec().collab().peer("cto").unwrap();
        assert_eq!(minimal_faithful_scenario(&run, cto).events.len(), 4);
    }

    #[test]
    fn empty_run_yields_empty_explanation() {
        let run = run_of(
            "schema { T(K); } peers { p sees T(*); } rules { r @ p: +T(0) :- ; }",
            &[],
        );
        let p = run.spec().collab().peer("p").unwrap();
        let ex = minimal_faithful_scenario(&run, p);
        assert!(ex.events.is_empty());
        assert!(subrun(&run, &ex.events).unwrap().is_empty());
        assert!(ex.why(0).is_none());
    }

    #[test]
    fn why_chains_end_at_visible_roots() {
        let run = chain_run();
        let p = run.spec().collab().peer("p").unwrap();
        let ex = minimal_faithful_scenario(&run, p);
        // Event 0 (a): pulled in because b uses A(0), which out uses, which
        // is visible.
        let j = ex.why(0).expect("a is in the explanation");
        assert_eq!(j.steps.len(), 3, "a ← b ← out");
        assert_eq!(j.steps[0].event, 0);
        assert!(matches!(
            j.steps[0].obligation,
            Obligation::OpenedLifecycle { by: 2, .. }
        ));
        assert_eq!(j.steps[2].event, 3);
        assert!(matches!(j.steps[2].obligation, Obligation::Visible));
        // Junk (1) is not in the explanation.
        assert!(ex.why(1).is_none());
    }

    #[test]
    fn render_is_readable() {
        let run = chain_run();
        let p = run.spec().collab().peer("p").unwrap();
        let j = minimal_faithful_scenario(&run, p).why(0).unwrap();
        let text = j.render(&run);
        assert!(text.contains("created A[0] used by #2"));
        assert!(text.contains("observed directly"));
        assert_eq!(format!("{j}"), "justification chain of 3 step(s)");
    }

    #[test]
    fn deletion_obligations_are_traced() {
        // Example 4.2 shape: including e forces f (closed lifecycle).
        let run = run_of(
            r#"
            schema { Ok(K); Approval(K); }
            peers { q sees Ok(*), Approval(*); p sees Approval(*); }
            rules {
                e @ q: +Ok(0) :- ;
                h @ q: +Approval(0) :- Ok(0);
                f @ q: -key Ok(0) :- Ok(0);
            }
            "#,
            &["e", "h", "f"],
        );
        let p = run.spec().collab().peer("p").unwrap();
        // f (the deletion) is pulled in as the right boundary of Ok's
        // lifecycle, used by h.
        let j = minimal_faithful_scenario(&run, p)
            .why(2)
            .expect("f is required");
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
        let j = minimal_faithful_scenario(&run, p)
            .why(1)
            .expect("fill is required");
        assert!(matches!(
            &j.steps[0].obligation,
            Obligation::WroteAttributes { by: 2, .. }
        ));
        let text = j.render(&run);
        assert!(text.contains("wrote R["), "got: {text}");
    }
}
