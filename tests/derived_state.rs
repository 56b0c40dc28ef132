//! Lifecycle battery for a run's derived state. A `Run` keeps three parts
//! derived from its recorded trace — the candidate listing behind
//! `candidates`, the provenance plane and the explanation layer's
//! `RunFacts` — and each has one lifecycle: built on first read, stepped by
//! every push while filled, emptied by a pop and on a clone.
//!
//! Over the generator families (procurement, triage and review streams,
//! chaos-spec walks and random propositional workflows), a seeded
//! interleaving of pushes, refused pushes, pops, clones and reads mutates a
//! run. After every step a random subset of the parts is read, and each
//! read must equal its from-scratch build: `candidates` the per-rule
//! `match_body` listing, `provenance()` `ProvPlane::build`, and the facts
//! `RunFacts::build`. A part left unread across several pushes is stepped
//! over all of them before its next read; one emptied by a pop or a clone
//! is rebuilt by that read. The same contract across WAL recovery is
//! checked in `wal_prefix.rs`.

use collab_workflows::core::{facts, RunFacts};
use collab_workflows::engine::chaos::{default_spec, modification_spec};
use collab_workflows::engine::{candidates, match_body, Candidate, ProvPlane};
use collab_workflows::prelude::*;
use collab_workflows::workloads::{
    build_procurement_run, build_review_run, build_triage_run, chaos_workload, random_run,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A completed run of generator family `family` (0–5), sized by `size`.
fn source_run(family: u8, seed: u64, size: usize) -> Run {
    let mut rng = StdRng::seed_from_u64(seed);
    match family {
        0 => build_procurement_run(1 + size / 16, size % 3, &mut rng).run,
        1 => build_triage_run(2 + size / 8, 1 + size % 2, &mut rng).run,
        2 => build_review_run(1 + size / 12, size % 2, &mut rng).run,
        3 => random_run(&default_spec(), size, seed),
        4 => random_run(&modification_spec(), size, seed),
        _ => random_run(&chaos_workload(seed % 8).spec, size, seed),
    }
}

/// The specification of the listing: every rule's `match_body` on its
/// peer's view, rules in id order.
fn reference_listing(run: &Run) -> Vec<Candidate> {
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

/// One derived part of a run.
#[derive(Clone, Copy, Debug)]
enum Part {
    Listing,
    Provenance,
    Facts,
}

const PARTS: [Part; 3] = [Part::Listing, Part::Provenance, Part::Facts];

/// Reads `part` of `run` through its slot and compares it with the
/// from-scratch build.
fn read(run: &Run, part: Part, at: &str) -> Result<(), TestCaseError> {
    match part {
        Part::Listing => prop_assert!(
            candidates(run) == reference_listing(run),
            "candidate listing {}",
            at
        ),
        Part::Provenance => prop_assert!(
            run.provenance() == &ProvPlane::build(run),
            "provenance plane {}",
            at
        ),
        Part::Facts => prop_assert!(
            facts(run).filled() == &RunFacts::build(run),
            "explanation facts {}",
            at
        ),
    }
    Ok(())
}

/// One mutation of the run under test.
#[derive(Clone, Copy, Debug)]
enum Op {
    Push,
    /// A push the run refuses (when the walk has an event it refuses).
    Refused,
    Pop,
    Clone,
    /// Only the reads that follow every step.
    Read,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn derived_parts_equal_their_builds_across_pushes_pops_and_clones(
        family in 0u8..6,
        seed in 0u64..10_000,
        size in 8usize..40,
    ) {
        let walk = source_run(family, seed, size);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xde71);
        let mut run = Run::with_initial(walk.spec_arc(), walk.initial().clone());
        let mut ops = Vec::new();
        for step in 0..3 * walk.len().max(8) {
            let op = match rng.gen_range(0..10) {
                0 if !run.is_empty() => Op::Pop,
                1 => Op::Clone,
                2 => Op::Refused,
                3 => Op::Read,
                _ if run.len() < walk.len() => Op::Push,
                _ if !run.is_empty() => Op::Pop,
                _ => Op::Read,
            };
            ops.push(op);
            match op {
                Op::Push => run.push(walk.event(run.len()).clone()).expect("the walk replays"),
                Op::Refused => {
                    let refused = walk.events().iter().find(|e| run.check(e).is_err());
                    if let Some(event) = refused {
                        let len = run.len();
                        prop_assert!(run.push(event.clone()).is_err());
                        prop_assert_eq!(run.len(), len, "a refused push leaves the run");
                    }
                }
                Op::Pop => {
                    run.pop().expect("a non-empty run pops");
                }
                Op::Clone => run = run.clone(),
                Op::Read => {}
            }
            let at = format!("after {op:?} at step {step}, {} events (ops {ops:?})", run.len());
            for part in PARTS {
                if rng.gen_bool(0.4) {
                    read(&run, part, &at)?;
                }
            }
        }
        for part in PARTS {
            read(&run, part, "at the end")?;
        }
    }
}

/// The full walk of every family, with every part filled while the run is
/// empty: each part is stepped over every push and never rebuilt, and
/// still equals its build at the end.
#[test]
fn parts_filled_while_empty_are_stepped_over_the_whole_walk() {
    for family in 0..6 {
        let walk = source_run(family, 7, 36);
        let mut stepped = Run::with_initial(walk.spec_arc(), walk.initial().clone());
        for part in PARTS {
            read(&stepped, part, "empty").expect("an empty run's parts are built");
        }
        for e in walk.events() {
            stepped.push(e.clone()).expect("the walk replays");
        }
        for part in PARTS {
            read(&stepped, part, &format!("family {family}, stepped")).expect("stepped ≡ built");
        }
    }
}
