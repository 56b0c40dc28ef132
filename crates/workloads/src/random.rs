//! Random workflow generators for fuzzing and property tests.
//!
//! [`random_propositional_spec`] builds layered propositional programs
//! (rules only read relations from earlier layers, so runs always make
//! progress), with a randomly chosen subset of relations visible to the
//! observer peer `p`. [`random_run`] drives any spec with the simulator.

use std::sync::Arc;

use rand::prelude::*;

use cwf_engine::{Run, Simulator};
use cwf_lang::{Program, RuleBuilder, Term, WorkflowSpec};
use cwf_model::{CollabSchema, PeerId, RelSchema, Schema, Value};

/// Parameters of the random propositional generator.
#[derive(Debug, Clone)]
pub struct RandomSpecParams {
    /// Number of propositional relations.
    pub n_rels: usize,
    /// Number of rules.
    pub n_rules: usize,
    /// Number of peers besides the observer.
    pub n_peers: usize,
    /// Probability that a relation is visible to the observer.
    pub visibility: f64,
    /// Probability that a rule deletes instead of inserting.
    pub delete_prob: f64,
    /// Maximum body literals per rule.
    pub max_body: usize,
}

impl Default for RandomSpecParams {
    fn default() -> Self {
        RandomSpecParams {
            n_rels: 6,
            n_rules: 10,
            n_peers: 2,
            visibility: 0.4,
            delete_prob: 0.25,
            max_body: 2,
        }
    }
}

/// A generated random workload: the spec and the observer peer.
#[derive(Debug, Clone)]
pub struct RandomWorkload {
    /// The spec.
    pub spec: Arc<WorkflowSpec>,
    /// The observer peer `p`.
    pub observer: PeerId,
}

/// Generates a random propositional workflow spec. All worker peers see
/// everything (so every body is satisfiable when the facts exist); the
/// observer sees a random subset of the relations.
pub fn random_propositional_spec(params: &RandomSpecParams, rng: &mut impl Rng) -> RandomWorkload {
    let mut schema = Schema::new();
    let rels: Vec<_> = (0..params.n_rels)
        .map(|i| {
            schema
                .add_relation(RelSchema::proposition(format!("P{i}")))
                .expect("unique names")
        })
        .collect();
    let mut collab = CollabSchema::new(schema);
    let workers: Vec<PeerId> = (0..params.n_peers.max(1))
        .map(|i| collab.add_peer(format!("w{i}")).expect("unique peers"))
        .collect();
    let observer = collab.add_peer("p").expect("unique observer");
    for &r in &rels {
        for &w in &workers {
            collab.set_full_view(w, r).expect("valid view");
        }
        if rng.gen_bool(params.visibility) {
            collab.set_full_view(observer, r).expect("valid view");
        }
    }
    let mut program = Program::new();
    let zero = || Term::Const(Value::int(0));
    for ri in 0..params.n_rules {
        let peer = workers[rng.gen_range(0..workers.len())];
        // Pick a target relation; body reads strictly lower-numbered
        // relations so the rule layer structure guarantees progress.
        let target_idx = rng.gen_range(0..rels.len());
        let target = rels[target_idx];
        let mut b = RuleBuilder::new(peer, format!("r{ri}"));
        let n_body = if target_idx == 0 {
            0
        } else {
            rng.gen_range(0..=params.max_body)
        };
        let mut guards = Vec::new();
        for _ in 0..n_body {
            let dep = rels[rng.gen_range(0..target_idx)];
            if rng.gen_bool(0.25) {
                guards.push((dep, false));
            } else {
                guards.push((dep, true));
            }
        }
        for (dep, pos) in guards {
            b = if pos {
                b.pos(dep, [zero()])
            } else {
                b.key_neg(dep, zero())
            };
        }
        let delete = rng.gen_bool(params.delete_prob);
        let rule = if delete {
            // Deletions need the tuple visible: add the witness literal.
            b.pos(target, [zero()]).delete(target, zero()).build()
        } else {
            b.insert(target, [zero()]).build()
        };
        program.add_rule(rule);
    }
    let spec =
        Arc::new(WorkflowSpec::new(collab, program).expect("generator output is well-formed"));
    RandomWorkload { spec, observer }
}

/// A random propositional workload sized for the chaos harness: a few more
/// peers and relations than the property-test default, every relation at
/// least partially hidden from the observer, deletions common enough to
/// exercise key deletion under faults.
pub fn chaos_workload(seed: u64) -> RandomWorkload {
    let params = RandomSpecParams {
        n_rels: 8,
        n_rules: 14,
        n_peers: 3,
        visibility: 0.5,
        delete_prob: 0.3,
        max_body: 2,
    };
    random_propositional_spec(&params, &mut StdRng::seed_from_u64(seed))
}

/// Drives a random run of up to `steps` events.
pub fn random_run(spec: &Arc<WorkflowSpec>, steps: usize, seed: u64) -> Run {
    let mut sim = Simulator::new(Run::new(Arc::clone(spec)), StdRng::seed_from_u64(seed));
    sim.steps(steps)
        .expect("propositional events never error fatally");
    sim.into_run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwf_core::{facts, is_faithful, minimal_faithful_scenario, tp_closure, EventSet, RunIndex};
    use rand::rngs::StdRng;

    #[test]
    fn generated_specs_validate_and_run() {
        let mut rng = StdRng::seed_from_u64(11);
        for i in 0..20 {
            let w = random_propositional_spec(&RandomSpecParams::default(), &mut rng);
            w.spec.validate().unwrap();
            let run = random_run(&w.spec, 15, i);
            assert!(run.len() <= 15);
        }
    }

    #[test]
    fn minimal_faithful_scenario_invariants_on_random_runs() {
        // Theorem 4.7 on random runs: the closure is faithful, a scenario,
        // and contained in every faithful subsequence that is a scenario.
        let mut rng = StdRng::seed_from_u64(12);
        for i in 0..15 {
            let w = random_propositional_spec(&RandomSpecParams::default(), &mut rng);
            let run = random_run(&w.spec, 12, 100 + i);
            let index = RunIndex::build(&run);
            let expl = minimal_faithful_scenario(&run, w.observer);
            assert!(is_faithful(&run, &index, w.observer, &expl.events));
            assert!(cwf_core::is_scenario(&run, w.observer, &expl.events));
            // Idempotence of the closure.
            let again = tp_closure(&run, &index, w.observer, &expl.events);
            assert_eq!(again, expl.events);
        }
    }

    #[test]
    fn incremental_equals_scratch_on_random_runs() {
        let mut rng = StdRng::seed_from_u64(13);
        for i in 0..10 {
            let w = random_propositional_spec(&RandomSpecParams::default(), &mut rng);
            let run = random_run(&w.spec, 15, 200 + i);
            let mut stepped = Run::new(run.spec_arc());
            facts(&stepped).faithful(w.observer);
            for j in 0..run.len() {
                stepped.push(run.event(j).clone()).unwrap();
            }
            let scratch = minimal_faithful_scenario(&run, w.observer);
            assert_eq!(
                facts(&stepped).faithful(w.observer),
                &scratch.events,
                "seed {i}"
            );
            // Per-event explanations are closures on the stepped index too.
            let index = RunIndex::build(&run);
            for f in 0..run.len() {
                let one = EventSet::from_iter(run.len(), [f]);
                assert_eq!(
                    tp_closure(&stepped, facts(&stepped).index(), w.observer, &one),
                    tp_closure(&run, &index, w.observer, &one),
                );
            }
        }
    }

    #[test]
    fn semiring_closure_on_random_runs() {
        // Theorem 4.8 on random runs: unions/intersections of faithful
        // scenario pairs remain faithful.
        let mut rng = StdRng::seed_from_u64(14);
        for i in 0..8 {
            let w = random_propositional_spec(&RandomSpecParams::default(), &mut rng);
            let run = random_run(&w.spec, 10, 300 + i);
            if run.is_empty() {
                continue;
            }
            let index = RunIndex::build(&run);
            let n = run.len();
            // Sample faithful sets by closing random seeds.
            let mut faithful_sets = Vec::new();
            for s in 0..6u64 {
                let mut seed_rng = StdRng::seed_from_u64(s);
                let seed = EventSet::from_iter(n, (0..n).filter(|_| seed_rng.gen_bool(0.3)));
                faithful_sets.push(tp_closure(&run, &index, w.observer, &seed));
            }
            for a in &faithful_sets {
                for b in &faithful_sets {
                    let union = a.union(b);
                    let inter = a.intersection(b);
                    assert!(
                        cwf_core::is_tp_fixpoint(&run, &index, w.observer, &union),
                        "union closed"
                    );
                    assert!(
                        cwf_core::is_tp_fixpoint(&run, &index, w.observer, &inter),
                        "intersection closed"
                    );
                }
            }
        }
    }
}
