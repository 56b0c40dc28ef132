//! End-to-end integration: parse → run → explain → analyse → synthesize →
//! enforce, across all crates.

use std::sync::Arc;

use collab_workflows::analysis::{
    check_h_bounded, check_transparent, expand_view_run, find_bound, mirror_run,
    synthesize_view_program, Limits,
};
use collab_workflows::core::{
    is_scenario, minimal_faithful_scenario, one_minimal_scenario, EventSet,
};
use collab_workflows::design::{in_t_runs, p_fresh_candidates, PushOutcome, TransparentEngine};
use collab_workflows::prelude::*;
use collab_workflows::workloads::{
    applicant_run, build_procurement_run, build_review_run, hiring_no_cfo, hiring_staged,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn limits() -> Limits {
    Limits {
        max_nodes: 4_000_000,
        max_tuples_per_rel: 1,
        extra_constants: Some(4),
    }
}

#[test]
fn paper_narrative_end_to_end() {
    // 1. Example 4.2: misleading scenario vs faithful explanation.
    let run = applicant_run();
    let applicant = run.spec().collab().peer("applicant").unwrap();
    let misleading = EventSet::from_iter(run.len(), [0, 3]);
    assert!(
        is_scenario(&run, applicant, &misleading),
        "e·h is a scenario"
    );
    let faithful = minimal_faithful_scenario(&run, applicant);
    assert_eq!(
        faithful.events.to_vec(),
        vec![2, 3],
        "g·h is the explanation"
    );

    // 2. Example 5.7: not transparent; the decider produces a witness.
    let spec = hiring_no_cfo();
    let sue = spec.collab().peer("sue").unwrap();
    let h = find_bound(&spec, sue, 4, &limits()).expect("bounded");
    assert_eq!(h, 2, "clear → (approve, hire) chains");
    assert!(check_transparent(&spec, sue, h, &limits())
        .counter_example()
        .is_some());

    // 3. Theorem 5.13: synthesize Sue's view program; completeness and
    //    soundness hold on sampled runs.
    let synth = synthesize_view_program(&spec, sue, h, &limits()).unwrap();
    assert!(!synth.omega_rules.is_empty());
    for seed in 0..5u64 {
        let mut sim = Simulator::new(Run::new(Arc::clone(&spec)), StdRng::seed_from_u64(seed));
        sim.steps(8).unwrap();
        let run = sim.into_run();
        mirror_run(&synth, &run).expect("completeness on sampled runs");
    }
    for seed in 0..5u64 {
        let mut sim = Simulator::new(
            Run::new(Arc::clone(&synth.view_spec)),
            StdRng::seed_from_u64(seed),
        );
        sim.steps(5).unwrap();
        let vrun = sim.into_run();
        expand_view_run(&synth, &spec, &vrun).expect("soundness on sampled view runs");
    }

    // 4. Theorem 6.7: the enforcement engine filters the stale-approval run
    //    and its accepted runs are transparent and h-bounded.
    let mut eng = TransparentEngine::new(Arc::clone(&spec), sue, h);
    let fire = |eng: &mut TransparentEngine, name: &str, v: &Value| -> PushOutcome {
        let rid = spec.program().rule_by_name(name).unwrap();
        let mut b = Bindings::empty(1);
        b.set(VarId(0), *v);
        eng.push(Event::new(&spec, rid, b).unwrap()).unwrap()
    };
    let a = Value::Fresh(500);
    let b = Value::Fresh(600);
    assert!(fire(&mut eng, "clear", &a).applied());
    assert!(fire(&mut eng, "approve", &a).applied());
    assert!(fire(&mut eng, "clear", &b).applied());
    assert_eq!(
        fire(&mut eng, "hire", &a),
        PushOutcome::BlockedNonTransparent
    );
    let accepted = eng.into_run();
    let candidates = p_fresh_candidates(&accepted, sue);
    assert!(in_t_runs(&accepted, sue, h, &candidates));
}

#[test]
fn staged_redesign_is_well_behaved() {
    let staged = hiring_staged();
    let sue = staged.collab().peer("sue").unwrap();
    // Bounded (the decider may need the Stage relation's binary tuples).
    let limits = Limits {
        max_nodes: 1_500_000,
        max_tuples_per_rel: 1,
        extra_constants: Some(2),
    };
    // The approve→hire chain of one stage has length 2.
    let d = check_h_bounded(&staged, sue, 1, &limits);
    assert!(d.counter_example().is_some(), "not 1-bounded");
    // No sampled transparency violation (Theorem 6.2's promise).
    assert!(
        collab_workflows::analysis::sample_transparency_violation(&staged, sue, 30, 8, 9).is_none()
    );
}

#[test]
fn procurement_explanations_scale_and_agree() {
    let mut rng = StdRng::seed_from_u64(99);
    let p = build_procurement_run(4, 2, &mut rng);
    let expl = minimal_faithful_scenario(&p.run, p.emp);
    // Every notify event is explained.
    for &n in &p.notices {
        assert!(expl.events.contains(n));
    }
    // The explanation is a scenario and the greedy 1-minimal scenario is no
    // shorter than the faithful one is long… both are scenarios.
    assert!(is_scenario(&p.run, p.emp, &expl.events));
    let greedy = one_minimal_scenario(&p.run, p.emp);
    assert!(is_scenario(&p.run, p.emp, &greedy));
    // Rendering works.
    let text = expl.to_string();
    assert!(text.contains("Explanation for emp"));
}

#[test]
fn review_decisions_are_explained_to_authors() {
    let mut rng = StdRng::seed_from_u64(7);
    let r = build_review_run(2, 1, &mut rng);
    let expl = minimal_faithful_scenario(&r.run, r.author);
    for &d in &r.decisions {
        assert!(expl.events.contains(d));
    }
    // The author's explanation excludes the dissenting extra reviews.
    assert!(expl.events.len() < r.run.len());
}

#[test]
fn parse_print_round_trip_across_workloads() {
    for spec in [
        hiring_no_cfo(),
        hiring_staged(),
        collab_workflows::workloads::procurement_spec(),
        collab_workflows::workloads::review_spec(),
        collab_workflows::workloads::transitive_spec(),
    ] {
        let printed = print_workflow(&spec);
        let back = parse_workflow(&printed).expect("printed spec re-parses");
        assert_eq!(*spec, back);
    }
}

#[test]
fn corollary_6_8_pipeline_staged_program_synthesizes() {
    // The transparent-by-design staged hiring program: synthesis succeeds
    // and the result is sound + complete on sampled runs (Corollary 6.8's
    // promise, realized end to end).
    let spec = hiring_staged();
    let sue = spec.collab().peer("sue").unwrap();
    let limits = Limits {
        max_nodes: 50_000_000,
        max_tuples_per_rel: 1,
        extra_constants: Some(2),
    };
    let synth = synthesize_view_program(&spec, sue, 2, &limits).unwrap();
    assert!(!synth.omega_rules.is_empty());
    assert_eq!(
        synth.rule_map.len(),
        1,
        "sue's stage_init rule carries over"
    );
    for seed in 0..6u64 {
        let mut sim = Simulator::new(Run::new(Arc::clone(&spec)), StdRng::seed_from_u64(seed));
        sim.steps(8).unwrap();
        mirror_run(&synth, &sim.into_run()).expect("completeness");
    }
    for seed in 0..6u64 {
        let mut sim = Simulator::new(
            Run::new(Arc::clone(&synth.view_spec)),
            StdRng::seed_from_u64(seed),
        );
        sim.steps(5).unwrap();
        expand_view_run(&synth, &spec, &sim.into_run()).expect("soundness");
    }
}
