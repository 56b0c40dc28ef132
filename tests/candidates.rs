//! Differential battery for the incremental candidate listing: over seeded
//! random walks on every built-in workflow family, `candidates(&run)` must
//! equal the from-scratch listing — rules in id order, then `match_body`
//! order per rule — whatever the listing cadence, across pops and across
//! clones advanced separately.

use std::sync::Arc;

use collab_workflows::engine::chaos::{default_spec, modification_spec};
use collab_workflows::engine::{candidates, complete, match_body, Candidate, EngineError};
use collab_workflows::prelude::*;
use collab_workflows::workloads::{
    chaos_workload, procurement_spec, random_propositional_spec, review_spec, triage_spec,
    RandomSpecParams,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The specification: every rule's `match_body` on its peer's view.
fn reference(run: &Run) -> Vec<Candidate> {
    let program = run.spec().program();
    program
        .rule_ids()
        .flat_map(|rid| {
            let rule = program.rule(rid);
            match_body(rule, run.peer_view(rule.peer))
                .into_iter()
                .map(move |bindings| Candidate {
                    rule: rid,
                    bindings,
                })
        })
        .collect()
}

/// Pushes one randomly chosen applicable candidate of `cands`, skipping
/// candidates whose updates fail. Returns the pushed event, or `None` on
/// deadlock.
fn push_random(run: &mut Run, mut cands: Vec<Candidate>, rng: &mut StdRng) -> Option<Event> {
    while !cands.is_empty() {
        let cand = cands.swap_remove(rng.gen_range(0..cands.len()));
        let event = complete(run, &cand);
        match run.push(event.clone()) {
            Ok(()) => return Some(event),
            Err(
                EngineError::InsertChase(_)
                | EngineError::InsertNotSubsumed { .. }
                | EngineError::DeleteInvisible { .. },
            ) => continue,
            Err(other) => panic!("unexpected push error: {other}"),
        }
    }
    None
}

/// Walks `steps` random events, choosing from the reference listing, and
/// checks the incremental listing every `list_every` pushes — so a check
/// folds up to `list_every` diffs at once.
fn walk(spec: &Arc<WorkflowSpec>, seed: u64, steps: usize, list_every: usize) -> Run {
    let mut run = Run::new(Arc::clone(spec));
    let mut rng = StdRng::seed_from_u64(seed);
    for step in 0..steps {
        let expected = reference(&run);
        if step % list_every == 0 {
            assert_eq!(
                candidates(&run),
                expected,
                "seed {seed}, every {list_every}: listing diverges after {} events",
                run.len()
            );
        }
        if push_random(&mut run, expected, &mut rng).is_none() {
            break;
        }
    }
    assert_eq!(
        candidates(&run),
        reference(&run),
        "final listing, seed {seed}"
    );
    run
}

fn random_specs() -> Vec<Arc<WorkflowSpec>> {
    let mut specs: Vec<_> = (0..6).map(|s| chaos_workload(s).spec).collect();
    let mut rng = StdRng::seed_from_u64(0xca4d);
    for max_body in [1, 2, 3] {
        let params = RandomSpecParams {
            max_body,
            ..RandomSpecParams::default()
        };
        specs.push(random_propositional_spec(&params, &mut rng).spec);
    }
    specs
}

fn all_specs() -> Vec<(String, Arc<WorkflowSpec>)> {
    let mut specs = vec![
        ("procurement".to_string(), procurement_spec()),
        ("triage".to_string(), triage_spec()),
        ("review".to_string(), review_spec()),
        ("chaos default".to_string(), default_spec()),
        ("modification".to_string(), modification_spec()),
    ];
    for (i, spec) in random_specs().into_iter().enumerate() {
        specs.push((format!("random #{i}"), spec));
    }
    specs
}

#[test]
fn listing_after_every_push_matches_reference() {
    for (name, spec) in all_specs() {
        for seed in 0..6 {
            let run = walk(&spec, seed, 160, 1);
            assert!(!run.is_empty(), "{name}: the walk made progress");
        }
    }
}

/// Reads the listing only every few pushes; each push in between steps
/// it unread.
#[test]
fn listing_read_every_few_pushes_matches_reference() {
    for (_, spec) in all_specs() {
        for (seed, every) in [(10, 2), (11, 5), (12, 17), (13, 64)] {
            walk(&spec, seed, 150, every);
        }
    }
}

/// A pop followed by a push of a different event returns the run to the
/// length of the last read; the listing must show the new event, not the
/// popped one.
#[test]
fn pop_then_different_push_of_same_length() {
    for (name, spec) in all_specs() {
        let mut run = Run::new(Arc::clone(&spec));
        let mut rng = StdRng::seed_from_u64(7);
        for step in 0..80 {
            let listed = candidates(&run);
            assert_eq!(listed, reference(&run), "{name}: before step {step}");
            let Some(pushed) = push_random(&mut run, listed, &mut rng) else {
                break;
            };
            // Read the listing after the push, then roll back.
            assert_eq!(candidates(&run), reference(&run), "{name}: after push");
            if step % 3 != 0 {
                continue;
            }
            // No listing between the pop and the push: the run is back at
            // the length of the last read, with a different last event.
            let len = run.len();
            assert_eq!(run.pop(), Some(pushed.clone()));
            let others: Vec<Candidate> = reference(&run)
                .into_iter()
                .filter(|c| c.rule != pushed.rule)
                .collect();
            if push_random(&mut run, others, &mut rng).is_none() {
                // Nothing else applies: put the popped event back.
                run.push(pushed).expect("the popped event re-applies");
            }
            assert_eq!(run.len(), len);
            assert_eq!(
                candidates(&run),
                reference(&run),
                "{name}: pop then push at step {step}"
            );
        }
    }
}

/// A clone taken mid-walk starts its own cache; the original and the clone
/// advance separately and each keeps listing exactly.
#[test]
fn mid_walk_clone_advances_independently() {
    for (name, spec) in all_specs() {
        let mut run = walk(&spec, 21, 40, 1);
        let _ = candidates(&run);
        let mut copy = run.clone();
        let mut rng_a = StdRng::seed_from_u64(100);
        let mut rng_b = StdRng::seed_from_u64(200);
        for step in 0..60 {
            for (r, rng) in [(&mut run, &mut rng_a), (&mut copy, &mut rng_b)] {
                let listed = candidates(r);
                assert_eq!(listed, reference(r), "{name}: step {step}");
                push_random(r, listed, rng);
            }
        }
        assert_eq!(candidates(&run), reference(&run), "{name}: original");
        assert_eq!(candidates(&copy), reference(&copy), "{name}: clone");
    }
}
