//! Coherence battery for the per-run facts slot: a `Run` keeps the
//! explanation layer's `RunFacts` (index, closed dependency sets, cones,
//! visible sets, observations, head relations, faithful sets) from the
//! first query on, each push steps it from the recorded diff, each pop
//! empties it, and a clone starts without it. Over chaos-spec walks driven
//! through a seeded mix of pushes, refused pushes, pops and clones — each
//! taken with every part of the slot filled just before — the stepped
//! facts must equal a fresh build after every operation, each peer's
//! observations must equal the deltas between consecutive steps of the
//! whole-view reference `Run::view`, and the faithful (Thm 4.7) and minimum
//! (Thm 3.3) answers on the mutated run must equal those on a freshly
//! replayed copy. Every faithful answer must replay into a scenario
//! (Lemma 4.6).
//!
//! The index is built from the recorded diffs. A reference built the
//! earlier way, from the instances before and after every event, pins it on
//! the `explain-batch` corpus, chaos-spec walks and random workflows.

mod common;

use std::collections::{BTreeMap, BTreeSet};

use collab_workflows::core::{
    facts, is_scenario, minimal_faithful_scenario, search_min_scenario_pooled, Lifecycle,
    Modification, Observation, RunFacts, RunIndex, SearchOptions,
};
use collab_workflows::engine::chaos::{default_spec, modification_spec};
use collab_workflows::engine::{GroundUpdate, ViewDelta};
use collab_workflows::model::{AttrId, Governor, PeerId, Pool, RelId, Value};
use collab_workflows::prelude::*;
use collab_workflows::workloads::{random_propositional_spec, random_run, RandomSpecParams};
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
    /// A push the run refuses (when the walk has an event it refuses).
    Refused,
    Pop,
    Clone,
}

/// The faithful and minimum answers for every peer of `run`.
fn answers(run: &Run) -> Vec<(Vec<usize>, String)> {
    run.spec()
        .collab()
        .peer_ids()
        .map(|p| {
            let faithful = minimal_faithful_scenario(run, p).events;
            // Lemma 4.6 in release builds: the faithful set replays into a
            // scenario.
            assert!(
                is_scenario(run, p, &faithful),
                "the minimal faithful set {:?} is not a scenario",
                faithful.to_vec()
            );
            let faithful = faithful.to_vec();
            let gov = Governor::with_nodes(NODES);
            let opts = SearchOptions::default();
            let minimum = search_min_scenario_pooled(run, p, &opts, &gov, &Pool::sequential());
            (faithful, format!("{minimum:?}"))
        })
        .collect()
}

/// `peer`'s observations derived from the whole-view reference: the
/// `ViewDelta::between` consecutive steps of `Run::view`, the first from
/// the view of the initial instance.
fn reference_observations(run: &Run, peer: PeerId) -> Vec<Observation> {
    let mut before = run.spec().collab().view_of(run.initial(), peer);
    run.view(peer)
        .steps
        .into_iter()
        .map(|step| {
            let delta = ViewDelta::between(&before, &step.view).canonical();
            before = step.view;
            Observation {
                index: step.index,
                event: step.event,
                delta,
            }
        })
        .collect()
}

/// The cached facts of `run` with every part filled must equal a fresh
/// build, its observations the whole-view reference, and its answers those
/// of a replayed copy.
fn coherent(run: &Run, at: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(facts(run).filled(), &RunFacts::build(run), "facts {}", at);
    for peer in run.spec().collab().peer_ids() {
        prop_assert_eq!(
            facts(run).observations(peer),
            &reference_observations(run, peer)[..],
            "observations of {:?} {}",
            peer,
            at
        );
    }
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
            let op = match rng.gen_range(0..7) {
                0 if !run.is_empty() => Op::Pop,
                1 => Op::Clone,
                2 => Op::Refused,
                _ if run.len() < walk.len() => Op::Push,
                _ => Op::Pop,
            };
            ops.push(op);
            // Fill every part of the slot, then mutate.
            facts(&run).filled();
            answers(&run);
            match op {
                Op::Push => run.push(walk.event(run.len()).clone()).unwrap(),
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
            }
            coherent(&run, &format!("after {op:?} at step {step} (ops {ops:?})"))?;
        }
        prop_assert!(ops.iter().any(|op| matches!(op, Op::Push)));
    }
}

/// Observations stepped by every push of the `explain-batch` corpus equal
/// the whole-view reference at every prefix, at every peer.
#[test]
fn stepped_observations_equal_the_view_reference_at_every_prefix() {
    for (name, walk) in common::batch_corpus() {
        let mut run = Run::with_initial(walk.spec_arc(), walk.initial().clone());
        let peers: Vec<PeerId> = run.spec().collab().peer_ids().collect();
        for &peer in &peers {
            facts(&run).observations(peer);
        }
        for event in walk.events() {
            run.push(event.clone()).unwrap();
            for &peer in &peers {
                assert_eq!(
                    facts(&run).observations(peer),
                    &reference_observations(&run, peer)[..],
                    "{name} at {peer:?} after {} events",
                    run.len()
                );
            }
        }
    }
}

/// The faithfulness index of a run, read from the instance before and after
/// every event: a key absent before an insert opens a lifecycle, a delete
/// closes the open one, and an insert on a present key records the
/// attributes it turned from `⊥` to a value.
#[derive(Debug, PartialEq)]
struct Reference {
    key_occs: Vec<BTreeMap<RelId, BTreeSet<Value>>>,
    lifecycles: BTreeMap<(RelId, Value), Vec<Lifecycle>>,
    mods: BTreeMap<(RelId, Value), Vec<Modification>>,
}

impl Reference {
    fn build(run: &Run) -> Self {
        let spec = run.spec();
        let mut out = Reference {
            key_occs: Vec::new(),
            lifecycles: BTreeMap::new(),
            mods: BTreeMap::new(),
        };
        for i in 0..run.len() {
            let event = run.event(i);
            out.key_occs.push(event.key_occurrences(spec));
            let pre = run.pre_instance(i);
            for upd in event.ground_updates(spec) {
                match upd {
                    GroundUpdate::Insert { rel, view_tuple } => {
                        let key = *view_tuple.key();
                        let Some(old) = pre.rel(rel).get(&key) else {
                            let lc = Lifecycle {
                                start: i,
                                end: None,
                            };
                            out.lifecycles.entry((rel, key)).or_default().push(lc);
                            continue;
                        };
                        let Some(new) = run.instance(i).rel(rel).get(&key) else {
                            continue;
                        };
                        let attrs: BTreeSet<AttrId> = old
                            .entries()
                            .filter(|(a, v)| v.is_null() && !new.get(*a).is_null())
                            .map(|(a, _)| a)
                            .collect();
                        if !attrs.is_empty() {
                            let m = Modification { at: i, attrs };
                            out.mods.entry((rel, key)).or_default().push(m);
                        }
                    }
                    GroundUpdate::Delete { rel, key } => {
                        let open = out
                            .lifecycles
                            .get_mut(&(rel, key))
                            .and_then(|lcs| lcs.last_mut())
                            .filter(|lc| lc.end.is_none());
                        if let Some(lc) = open {
                            lc.end = Some(i);
                        }
                    }
                }
            }
        }
        out
    }

    /// The same view of a diff-built index.
    fn of(index: &RunIndex) -> Self {
        Reference {
            key_occs: (0..index.len())
                .map(|i| index.key_occurrences(i).clone())
                .collect(),
            lifecycles: index
                .tracked_objects()
                .map(|(k, lcs)| (*k, lcs.clone()))
                .collect(),
            mods: index
                .modified_objects()
                .map(|(k, ms)| (*k, ms.clone()))
                .collect(),
        }
    }
}

#[test]
fn diff_built_index_equals_the_instance_read_reference() {
    let mut runs: Vec<(String, Run)> = common::batch_corpus();
    for seed in 0..150 {
        for (name, spec) in [("default", default_spec()), ("mod", modification_spec())] {
            runs.push((format!("{name} walk {seed}"), random_run(&spec, 24, seed)));
        }
    }
    let mut rng = StdRng::seed_from_u64(0x1dea);
    for seed in 0..100 {
        let w = random_propositional_spec(&RandomSpecParams::default(), &mut rng);
        runs.push((format!("random spec {seed}"), random_run(&w.spec, 16, seed)));
    }
    let mut modified = 0;
    for (name, run) in &runs {
        let index = RunIndex::build(run);
        let reference = Reference::build(run);
        assert_eq!(Reference::of(&index), reference, "{name}");
        modified += reference.mods.len();
    }
    assert!(modified > 0, "some run modifies a tuple in place");
}
