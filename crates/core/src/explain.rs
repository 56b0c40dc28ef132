//! High-level explanation reports.
//!
//! [`explain`] bundles the machinery of Sections 3–4 into the artifact a
//! peer would actually consume: the minimal p-faithful scenario, rendered
//! event by event, with each event annotated by whether the peer saw it
//! directly and which lifecycle/modification obligations pulled it in.

use std::fmt;

use cwf_engine::Run;
use cwf_model::PeerId;

use crate::facts::facts;
use crate::set::EventSet;

/// One line of an explanation: an event of the minimal faithful scenario.
#[derive(Debug, Clone)]
pub struct ExplainedEvent {
    /// Position in the original run.
    pub index: usize,
    /// Human-readable rendering of the event.
    pub description: String,
    /// Was this event directly visible at the peer?
    pub visible: bool,
}

/// A full explanation of a run for a peer.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The peer the run is explained to.
    pub peer: PeerId,
    /// The peer's name.
    pub peer_name: String,
    /// Length of the explained run.
    pub run_len: usize,
    /// The minimal p-faithful scenario.
    pub events: Vec<ExplainedEvent>,
    /// The underlying event set (positions into the original run).
    pub set: EventSet,
}

impl Explanation {
    /// Fraction of the run retained by the explanation (0 for an empty run).
    pub fn compression(&self) -> f64 {
        if self.run_len == 0 {
            0.0
        } else {
            self.events.len() as f64 / self.run_len as f64
        }
    }
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Explanation for {}: {} of {} events relevant",
            self.peer_name,
            self.events.len(),
            self.run_len
        )?;
        for e in &self.events {
            let marker = if e.visible { "seen  " } else { "hidden" };
            writeln!(f, "  [{marker}] #{:<3} {}", e.index, e.description)?;
        }
        Ok(())
    }
}

/// Explains `run` to `peer` via its unique minimal p-faithful scenario
/// (Theorem 4.7).
///
/// ```
/// use std::sync::Arc;
/// use cwf_lang::parse_workflow;
/// use cwf_engine::{Bindings, Event, Run};
/// use cwf_core::explain;
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
/// let ex = explain(&run, p);
/// // Only the Out insertion matters to p; the junk event is dropped.
/// assert_eq!(ex.events.len(), 1);
/// assert_eq!(ex.run_len, 2);
/// ```
pub fn explain(run: &Run, peer: PeerId) -> Explanation {
    let facts = facts(run);
    let events = facts.faithful(peer);
    let visible = facts.visible(peer);
    let spec = run.spec();
    let explained = events
        .iter()
        .map(|i| ExplainedEvent {
            index: i,
            description: run.event(i).describe(spec),
            visible: visible.contains(i),
        })
        .collect();
    Explanation {
        peer,
        peer_name: spec.collab().peer_name(peer).to_string(),
        run_len: run.len(),
        events: explained,
        set: events.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwf_engine::{Bindings, Event};
    use cwf_lang::parse_workflow;
    use std::sync::Arc;

    fn run() -> Run {
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
    fn explanation_reports_scenario_events() {
        let run = run();
        let applicant = run.spec().collab().peer("applicant").unwrap();
        let ex = explain(&run, applicant);
        assert_eq!(ex.peer_name, "applicant");
        assert_eq!(ex.run_len, 4);
        assert_eq!(ex.events.len(), 2);
        assert_eq!(ex.events[0].index, 2, "g, the ceo approval");
        assert!(
            !ex.events[0].visible,
            "g itself is hidden from the applicant"
        );
        assert!(ex.events[1].visible, "h changes the applicant's view");
        assert!((ex.compression() - 0.5).abs() < 1e-9);
        assert_eq!(ex.set.to_vec(), vec![2, 3]);
    }

    #[test]
    fn display_renders_markers() {
        let run = run();
        let applicant = run.spec().collab().peer("applicant").unwrap();
        let shown = explain(&run, applicant).to_string();
        assert!(shown.contains("Explanation for applicant"));
        assert!(shown.contains("[hidden] #2"));
        assert!(shown.contains("[seen  ] #3"));
        assert!(shown.contains("g@ceo"));
    }

    #[test]
    fn full_observer_gets_the_whole_run() {
        let run = run();
        let cto = run.spec().collab().peer("cto").unwrap();
        let ex = explain(&run, cto);
        assert_eq!(ex.events.len(), 4);
        assert!((ex.compression() - 1.0).abs() < 1e-9);
    }
}
