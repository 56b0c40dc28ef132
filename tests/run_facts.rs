//! Coherence battery for the per-run facts slot: a `Run` keeps the
//! explanation layer's `RunFacts` (index, closed dependency sets, visible
//! sets, head relations) from the first query until its next push or pop,
//! and a clone starts without them. Over chaos-spec walks driven through a
//! seeded mix of pushes, pops and clones — each taken with every part of
//! the slot filled just before — the cached facts must equal a fresh build
//! after every operation, and the faithful (Thm 4.7) and minimum (Thm 3.3)
//! answers on the mutated run must equal those on a freshly replayed copy.

use collab_workflows::core::{
    facts, minimal_faithful_scenario, search_min_scenario_pooled, RunFacts, SearchOptions,
};
use collab_workflows::engine::chaos::{default_spec, modification_spec};
use collab_workflows::model::{Governor, Pool};
use collab_workflows::prelude::*;
use collab_workflows::workloads::random_run;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Node budget of one minimum-scenario search. Both sides search on the
/// sequential pool, so even a cut-off verdict is deterministic.
const NODES: u64 = 1_500;

/// One mutation of the run under test.
#[derive(Clone, Copy, Debug)]
enum Op {
    Push,
    Pop,
    Clone,
}

/// The faithful and minimum answers for every peer of `run`.
fn answers(run: &Run) -> Vec<(Vec<usize>, String)> {
    run.spec()
        .collab()
        .peer_ids()
        .map(|p| {
            let faithful = minimal_faithful_scenario(run, p).events.to_vec();
            let gov = Governor::with_nodes(NODES);
            let opts = SearchOptions::default();
            let minimum = search_min_scenario_pooled(run, p, &opts, &gov, &Pool::sequential());
            (faithful, format!("{minimum:?}"))
        })
        .collect()
}

/// The cached facts of `run` with every part filled must equal a fresh
/// build, and its answers those of a replayed copy.
fn coherent(run: &Run, at: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(facts(run).filled(), &RunFacts::build(run), "facts {}", at);
    let fresh = Run::replay(run.spec_arc(), run.initial().clone(), run.events().to_vec())
        .expect("a run's own events replay");
    prop_assert_eq!(answers(run), answers(&fresh), "answers {}", at);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn cached_facts_track_pushes_pops_and_clones(seed in 0u64..1_000, which in 0usize..2) {
        let spec = [default_spec(), modification_spec()][which].clone();
        let walk = random_run(&spec, 24, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfac7);
        let mut run = Run::with_initial(walk.spec_arc(), walk.initial().clone());
        let mut ops = Vec::new();
        for step in 0..40 {
            let op = match rng.gen_range(0..6) {
                0 if !run.is_empty() => Op::Pop,
                1 => Op::Clone,
                _ if run.len() < walk.len() => Op::Push,
                _ => Op::Pop,
            };
            ops.push(op);
            // Fill every part of the slot, then mutate.
            facts(&run).filled();
            answers(&run);
            match op {
                Op::Push => run.push(walk.event(run.len()).clone()).unwrap(),
                Op::Pop => {
                    run.pop().expect("a non-empty run pops");
                }
                Op::Clone => run = run.clone(),
            }
            coherent(&run, &format!("after {op:?} at step {step} (ops {ops:?})"))?;
        }
        prop_assert!(ops.iter().any(|op| matches!(op, Op::Push)));
    }
}
