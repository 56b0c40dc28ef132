//! An incident-triage workflow with *selection-based* visibility.
//!
//! Unlike the other workloads (whose views are plain projections), the
//! on-call responder sees a ticket **only while its severity is "high"**:
//! `Ticket@oncall = σ_{Sev="high"}(Ticket)`. The reporter files tickets
//! through a key-only view (severity starts `⊥`); the triager escalates by
//! writing `Sev := "high"` — a `⊥ → v` modification that makes the tuple
//! *appear* in the on-call view, so the escalation is visible there purely
//! through the selection, while staying **invisible to the reporter** (who
//! does not project `Sev`). This exercises:
//!
//! * visibility changes caused by attribute writes, not tuple creation;
//! * `att(R, q) = att(R@q) ∪ att(σ(R@q))` — the severity column is
//!   relevant to the on-call peer through the selection alone;
//! * modification faithfulness: explaining a resolution to the *reporter*
//!   must pull in the (reporter-invisible) escalation, because it wrote an
//!   attribute relevant to the resolving peer.

use std::sync::Arc;

use rand::prelude::*;

use cwf_engine::{Bindings, Event, Run};
use cwf_lang::{parse_workflow, VarId, WorkflowSpec};
use cwf_model::{PeerId, Value};

/// The triage workflow spec.
pub fn triage_spec() -> Arc<WorkflowSpec> {
    Arc::new(
        parse_workflow(
            r#"
            schema {
                Ticket(K, Sev);
                Ack(K);
                Resolved(K);
            }
            peers {
                reporter sees Ticket(K), Ack(*), Resolved(*);
                triager  sees Ticket(*), Ack(*), Resolved(*);
                oncall   sees Ticket(*) where Sev = "high",
                              Ack(*), Resolved(*);
            }
            rules {
                file @ reporter: +Ticket(t) :- ;
                escalate @ triager:
                    +Ticket(t, "high") :- Ticket(t, s), s = null;
                ack @ oncall:
                    +Ack(t) :- Ticket(t, "high"), not key Ack(t);
                resolve @ oncall:
                    +Resolved(t) :- Ticket(t, "high"), Ack(t),
                                    not key Resolved(t);
            }
            "#,
        )
        .expect("triage workflow parses"),
    )
}

/// A built triage run.
pub struct TriageRun {
    /// The run.
    pub run: Run,
    /// The reporter (key-only view of tickets).
    pub reporter: PeerId,
    /// The on-call responder (selection-limited view).
    pub oncall: PeerId,
    /// Positions of the escalation events, one per escalated ticket.
    pub escalations: Vec<usize>,
    /// Positions of the resolution events.
    pub resolutions: Vec<usize>,
}

/// Files `n_tickets` tickets and escalates/acks/resolves the first
/// `n_escalated` of them; the rest stay `⊥`-severity noise the on-call peer
/// never sees.
pub fn build_triage_run(n_tickets: usize, n_escalated: usize, rng: &mut impl Rng) -> TriageRun {
    assert!(n_escalated <= n_tickets);
    let spec = triage_spec();
    let reporter = spec.collab().peer("reporter").unwrap();
    let oncall = spec.collab().peer("oncall").unwrap();
    let mut run = Run::new(Arc::clone(&spec));
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
    let mut ids = Vec::new();
    for _ in 0..n_tickets {
        let t = run.draw_fresh();
        fire(&mut run, "file", std::slice::from_ref(&t));
        ids.push(t);
    }
    // Interleave escalations in a shuffled order for variety.
    let mut hot: Vec<Value> = ids.iter().take(n_escalated).cloned().collect();
    hot.shuffle(rng);
    let mut escalations = Vec::new();
    let mut resolutions = Vec::new();
    for t in hot {
        escalations.push(fire(&mut run, "escalate", &[t, Value::Null]));
        fire(&mut run, "ack", std::slice::from_ref(&t));
        resolutions.push(fire(&mut run, "resolve", &[t]));
    }
    TriageRun {
        run,
        reporter,
        oncall,
        escalations,
        resolutions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwf_core::minimal_faithful_scenario;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn selection_drives_oncall_visibility() {
        let mut rng = StdRng::seed_from_u64(1);
        let r = build_triage_run(3, 1, &mut rng);
        // Filing is invisible to on-call (⊥ severity fails the selection)…
        for i in 0..3 {
            assert!(!r.run.visible_at(i, r.oncall), "filing {i} is invisible");
        }
        // …the escalation is visible there purely through the selection…
        assert!(r.run.visible_at(r.escalations[0], r.oncall));
        // …and invisible to the reporter (who does not project Sev and
        // already saw the key).
        assert!(!r.run.visible_at(r.escalations[0], r.reporter));
    }

    #[test]
    fn reporter_explanation_pulls_in_the_hidden_escalation() {
        let mut rng = StdRng::seed_from_u64(2);
        let r = build_triage_run(4, 2, &mut rng);
        let expl = minimal_faithful_scenario(&r.run, r.reporter);
        for &e in &r.escalations {
            assert!(
                expl.events.contains(e),
                "escalation {e} must explain the resolution"
            );
        }
        // Every event of this run is relevant to the reporter: filings are
        // its own, acks/resolutions are visible, and the escalations are
        // pulled in by modification faithfulness — the explanation is the
        // whole run.
        assert_eq!(expl.events.len(), r.run.len());
    }

    #[test]
    fn why_chain_blames_the_selection_attribute() {
        let mut rng = StdRng::seed_from_u64(3);
        let r = build_triage_run(1, 1, &mut rng);
        let j = minimal_faithful_scenario(&r.run, r.reporter)
            .why(r.escalations[0])
            .expect("escalation is in the explanation");
        // The escalation is there because it wrote Sev (relevant via the
        // on-call selection) used by the ack/resolve events.
        let rendered = j.render(&r.run);
        assert!(rendered.contains("wrote Ticket"), "got: {rendered}");
        assert!(rendered.contains("Sev"), "got: {rendered}");
    }

    #[test]
    fn modification_faithfulness_rejects_dropping_the_escalation() {
        use cwf_core::{is_modification_faithful, EventSet, RunIndex};
        let mut rng = StdRng::seed_from_u64(4);
        let r = build_triage_run(1, 1, &mut rng);
        let index = RunIndex::build(&r.run);
        let full = EventSet::full(r.run.len());
        assert!(is_modification_faithful(&r.run, &index, r.reporter, &full));
        let mut without = full.clone();
        without.remove(r.escalations[0]);
        assert!(
            !is_modification_faithful(&r.run, &index, r.reporter, &without),
            "dropping the Sev writer must break modification faithfulness"
        );
    }
}
