//! Golden printout of every explanation surface over the `explain-batch`
//! corpus.
//!
//! For each (run, peer) pair the file pins:
//!
//! * the report of the pair's `Explanation` (the minimal p-faithful
//!   scenario, Thm 4.7);
//! * that explanation's `why` justification chain of every member of the
//!   scenario (every other event answers `None` and prints nothing);
//! * the faithful set the run's facts slot steps when the run is fed to it
//!   event by event (filled before the first push): the minimal scenario
//!   after every push;
//! * each event's own explanation `T_p^ω(ρ, {f})`, closed on demand over
//!   the stepped index at the end.
//!
//! All of these walk the same `T_p` requirements; `why` also records
//! which requirement reached each event first, so the walk's visit order is
//! pinned too. On the corpus, the order in which a key's lifecycle
//! boundaries and its writers are visited never changes a chain, so a small
//! hand-written run where it does is printed after it. Regenerate with
//! `CWF_BLESS=1 cargo test --release --test explanations` only after
//! auditing the diff.

mod common;

use std::fmt::Write as _;

use collab_workflows::core::{facts, minimal_faithful_scenario, tp_closure, EventSet};
use collab_workflows::engine::{Bindings, Event, Run};
use collab_workflows::lang::parse_workflow;
use collab_workflows::model::PeerId;
use std::sync::Arc;

/// `out` (visible at `p`) uses `R[0]`, which `open` created and `fill`
/// modified; both use `S[0]`, which `z` created and `gone` deleted. Whether
/// `z` and `gone` are reached through `open` or through `fill` depends on
/// the order the requirement walk visits a key's boundaries and writers.
fn visit_order_run() -> (String, Run) {
    let spec = Arc::new(
        parse_workflow(
            r#"
            schema { S(K); R(K, A); Out(K); }
            peers {
                q1 sees S(*), R(K), Out(*);
                q2 sees S(*), R(*), Out(*);
                p sees Out(*);
            }
            rules {
                z @ q1: +S(0) :- ;
                open @ q1: +R(0) :- S(0);
                fill @ q2: +R(0, 1) :- S(0);
                out @ q2: +Out(0) :- R(0, 1);
                gone @ q1: -key S(0) :- S(0);
            }
            "#,
        )
        .unwrap(),
    );
    let mut run = Run::new(Arc::clone(&spec));
    for name in ["z", "open", "fill", "out", "gone"] {
        let rule = spec.program().rule_by_name(name).unwrap();
        run.push(Event::new(&spec, rule, Bindings::empty(0)).unwrap())
            .unwrap();
    }
    ("visit-order".to_string(), run)
}

/// Appends the printout of one (run, peer) pair.
fn golden_pair(out: &mut String, name: &str, run: &Run, peer: PeerId) {
    let peer_name = run.spec().collab().peer_name(peer);
    let _ = writeln!(out, "== {name} @ {peer_name} ({} events)", run.len());
    let report = minimal_faithful_scenario(run, peer);
    let _ = write!(out, "{report}");

    for e in 0..run.len() {
        if let Some(chain) = report.why(e) {
            let _ = writeln!(out, "why #{e}:");
            for line in chain.render(run).lines() {
                let _ = writeln!(out, "  {line}");
            }
        }
    }

    let mut stepped = Run::with_initial(run.spec_arc(), run.initial().clone());
    facts(&stepped).faithful(peer);
    for (i, e) in run.events().iter().enumerate() {
        stepped.push(e.clone()).expect("a recorded run replays");
        let set = facts(&stepped).faithful(peer);
        let _ = writeln!(out, "incremental after #{i}: {:?}", set.to_vec());
    }
    let index = facts(&stepped).index();
    for f in 0..run.len() {
        let one = EventSet::from_iter(run.len(), [f]);
        let closure = tp_closure(&stepped, index, peer, &one);
        let _ = writeln!(out, "explanation_of #{f}: {:?}", closure.to_vec());
    }
}

#[test]
fn golden_explanations_match_the_checked_in_file() {
    let mut printout = String::new();
    for (name, run) in common::batch_corpus()
        .into_iter()
        .chain([visit_order_run()])
    {
        for peer in run.spec().collab().peer_ids() {
            golden_pair(&mut printout, &name, &run, peer);
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/explanations.txt");
    if std::env::var_os("CWF_BLESS").is_some() {
        std::fs::write(path, &printout).unwrap();
    }
    let golden = std::fs::read_to_string(path).unwrap();
    assert!(
        printout == golden,
        "explanation printouts drifted from the checked-in golden file"
    );
}
