//! Differential battery for the provenance plane.
//!
//! Three contracts, each checked over seeded corpora and proptest-driven
//! random propositional workflows:
//!
//! * **Transparency of annotation** — a run evaluated with the provenance
//!   plane enabled is byte-identical to a plain run at every prefix: same
//!   instances, same peer views. Annotation observes evaluation, never
//!   steers it. The incrementally stepped plane also equals the
//!   from-scratch [`ProvPlane::build`] at every prefix.
//! * **Witness faithfulness** — every monomial of every `explain_fact`
//!   polynomial replays as a subrun (in original order) and re-derives the
//!   explained fact, visible to the explaining peer.
//! * **Cone-pruned search parity** — minimum-scenario search and the
//!   all-minimal enumeration restricted to the provenance cone return
//!   byte-identical verdicts to the unpruned sweeps, at every pool size.

use collab_workflows::core::{
    all_minimal_scenarios_pooled, all_minimal_scenarios_unpruned, peer_cone,
    search_min_scenario_pooled, SearchOptions,
};
use collab_workflows::engine::{ProvPlane, Run};
use collab_workflows::model::{Governor, Pool, RelId, Value};
use collab_workflows::workloads::{
    chaos_workload, random_propositional_spec, random_run, RandomSpecParams,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Pool sizes for search parity (1 = the sequential oracle).
const POOLS: [usize; 3] = [1, 2, 4];

/// Re-evaluates `run`'s events against a fresh provenance-enabled run,
/// checking instance and per-peer view equality at every prefix, plus
/// incremental-vs-from-scratch plane agreement. Returns the annotated run.
fn assert_annotation_is_transparent(run: &Run) -> Run {
    let mut annotated = Run::with_initial(run.spec_arc(), run.initial().clone());
    annotated.enable_provenance();
    let mut plain = Run::with_initial(run.spec_arc(), run.initial().clone());
    for i in 0..run.len() {
        annotated.push(run.event(i).clone()).expect("same events");
        plain.push(run.event(i).clone()).expect("same events");
        assert_eq!(
            annotated.current(),
            plain.current(),
            "instance diverges at prefix {}",
            i + 1
        );
        for p in run.spec().collab().peer_ids() {
            assert_eq!(
                annotated.peer_view(p),
                plain.peer_view(p),
                "view of peer {p:?} diverges at prefix {}",
                i + 1
            );
        }
        assert_eq!(
            annotated.provenance(),
            &ProvPlane::build(&annotated),
            "incrementally stepped plane diverges from scratch at prefix {}",
            i + 1
        );
    }
    annotated
}

/// Every monomial of every per-peer fact polynomial replays as a subrun
/// re-deriving the fact, visible to that peer. The replay starts from the
/// initial instance (`Run::replay`), independent of the history-resumed
/// `try_subrun`.
fn assert_monomials_replay(run: &Run) {
    let pp = run.provenance();
    for p in run.spec().collab().peer_ids() {
        for (rel, key, prov) in pp.peer_iter(p) {
            for mono in prov.monomials() {
                let events = mono.events().iter().map(|&e| run.event(e as usize).clone());
                let sub = Run::replay(run.spec_arc(), run.initial().clone(), events)
                    .unwrap_or_else(|e| {
                        panic!("witness {mono} of {rel:?}/{key} does not replay: {e:?}")
                    });
                assert!(
                    sub.current().rel(rel).get(key).is_some(),
                    "witness {mono} does not re-derive {rel:?}/{key}"
                );
                let visible = sub
                    .peer_view(p)
                    .store(rel)
                    .is_some_and(|s| s.get(key).is_some());
                assert!(visible, "witness {mono} hides {rel:?}/{key} from {p:?}");
            }
        }
    }
}

/// Cone-pruned searches must be byte-identical to the unpruned ones on
/// completed verdicts, at every pool size.
fn assert_search_parity(run: &Run, ctx: &str) {
    let collab = run.spec().collab();
    for peer in collab.peer_ids() {
        let pruned_opts = SearchOptions::default();
        let unpruned_opts = SearchOptions {
            no_cone: true,
            ..Default::default()
        };
        for threads in POOLS {
            let pool = if threads == 1 {
                Pool::sequential()
            } else {
                Pool::with_threads(threads)
            };
            let pruned =
                search_min_scenario_pooled(run, peer, &pruned_opts, &Governor::unlimited(), &pool);
            let unpruned = search_min_scenario_pooled(
                run,
                peer,
                &unpruned_opts,
                &Governor::unlimited(),
                &pool,
            );
            assert_eq!(
                pruned, unpruned,
                "{ctx}: min-scenario diverges for peer {peer:?} at {threads} thread(s)"
            );
            let pruned_all =
                all_minimal_scenarios_pooled(run, peer, 32, &Governor::unlimited(), &pool);
            let unpruned_all =
                all_minimal_scenarios_unpruned(run, peer, 32, &Governor::unlimited(), &pool);
            assert_eq!(
                pruned_all, unpruned_all,
                "{ctx}: all-minimal diverges for peer {peer:?} at {threads} thread(s)"
            );
            // Soundness of the cone itself: nothing minimal escapes it.
            let cone = peer_cone(run, peer);
            for s in pruned_all.into_value().into_iter().flatten() {
                assert!(s.is_subset(&cone), "{ctx}: {s:?} escapes the cone");
            }
        }
    }
}

#[test]
fn annotated_eval_matches_plain_eval_on_chaos_corpus() {
    for seed in 0..24u64 {
        let w = chaos_workload(seed);
        let run = random_run(&w.spec, 14, seed);
        let annotated = assert_annotation_is_transparent(&run);
        assert_monomials_replay(&annotated);
    }
}

#[test]
fn cone_pruned_search_matches_unpruned_on_chaos_corpus() {
    for seed in 0..12u64 {
        let w = chaos_workload(seed);
        let run = random_run(&w.spec, 10, seed);
        assert_search_parity(&run, &format!("chaos-{seed}"));
    }
}

#[test]
fn explain_fact_answers_without_search() {
    // The index answers explanations for every visible fact directly, and
    // nothing for a fact the peer does not see.
    let w = chaos_workload(3);
    let run = random_run(&w.spec, 14, 3);
    let p = w.observer;
    assert!(run
        .explain_fact(p, RelId(0), &Value::str("unseen"))
        .is_none());
    let facts: Vec<_> = run
        .provenance()
        .peer_iter(p)
        .map(|(rel, key, _)| (rel, *key))
        .collect();
    for (rel, key) in facts {
        let prov = run.explain_fact(p, rel, &key).expect("visible fact");
        assert!(!prov.is_zero(), "visible facts have at least one witness");
        let support = run.fact_support(p, rel, &key).expect("visible fact");
        assert!(support.iter().all(|&i| i < run.len()));
    }
}

/// Renders every dependency monomial and fact polynomial of a run.
fn polynomial_printout(run: &Run) -> String {
    let pp = run.provenance();
    let collab = run.spec().collab();
    let schema = collab.schema();
    let mut out = String::new();
    for i in 0..run.len() {
        out.push_str(&format!("D(e{i}) = {}\n", pp.dep(i)));
    }
    for (rel, key, prov) in pp.global_iter() {
        out.push_str(&format!(
            "global {}({key}) <= {prov}\n",
            schema.relation(rel).name()
        ));
    }
    for p in collab.peer_ids() {
        for (rel, key, prov) in pp.peer_iter(p) {
            out.push_str(&format!(
                "{}: {}({key}) <= {prov}\n",
                collab.peer_name(p),
                schema.relation(rel).name()
            ));
        }
    }
    out
}

/// Golden-file guard for the polynomial printout: the canonical form of
/// the provenance plane (monomial interning order, absorption, `⊕` of
/// alternative derivations) is pinned byte-for-byte. Bless deliberately
/// with `CWF_BLESS=1 cargo test --test provenance golden` after auditing
/// the diff.
#[test]
fn golden_polynomials_match_the_checked_in_file() {
    use collab_workflows::engine::{Bindings, Event};
    use std::sync::Arc;

    let spec = Arc::new(
        collab_workflows::lang::parse_workflow(
            r#"
            schema { V1(K); V2(K); C1(K); OK(K); }
            peers {
                q sees V1(*), V2(*), C1(*), OK(*);
                p sees OK(*);
            }
            rules {
                a1 @ q: +V1(0) :- ;
                a2 @ q: +V2(0) :- ;
                b1 @ q: +C1(0) :- V1(0);
                b2 @ q: +C1(0) :- V2(0);
                ok @ q: +OK(0) :- C1(0);
            }
            "#,
        )
        .unwrap(),
    );
    let mut run = Run::new(Arc::clone(&spec));
    run.enable_provenance();
    for n in ["a1", "a2", "b1", "b2", "ok"] {
        let rid = spec.program().rule_by_name(n).unwrap();
        run.push(Event::new(&spec, rid, Bindings::empty(0)).unwrap())
            .unwrap();
    }
    let printout = polynomial_printout(&run);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/provenance_polynomials.txt"
    );
    if std::env::var_os("CWF_BLESS").is_some() {
        std::fs::write(path, &printout).unwrap();
    }
    let golden = std::fs::read_to_string(path).unwrap();
    assert_eq!(
        printout, golden,
        "provenance printout drifted from the checked-in golden file"
    );
}

proptest! {
    /// Annotation transparency and witness faithfulness over random
    /// propositional workflows (cases scale with `PROPTEST_CASES`).
    #[test]
    fn prov_differential_on_random_workflows(
        spec_seed in 0u64..1 << 20,
        run_seed in 0u64..1 << 20,
        steps in 0usize..14,
    ) {
        let w = random_propositional_spec(
            &RandomSpecParams::default(),
            &mut StdRng::seed_from_u64(spec_seed),
        );
        let run = random_run(&w.spec, steps, run_seed);
        let annotated = assert_annotation_is_transparent(&run);
        assert_monomials_replay(&annotated);
    }

    /// Cone-pruned search parity over random propositional workflows.
    #[test]
    fn pruned_search_parity_on_random_workflows(
        spec_seed in 0u64..1 << 20,
        run_seed in 0u64..1 << 20,
        steps in 0usize..11,
    ) {
        let w = random_propositional_spec(
            &RandomSpecParams::default(),
            &mut StdRng::seed_from_u64(spec_seed),
        );
        let run = random_run(&w.spec, steps, run_seed);
        assert_search_parity(&run, &format!("random-{spec_seed}/{run_seed}"));
    }
}
