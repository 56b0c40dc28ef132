//! The experiment runner: regenerates every experiment table of
//! EXPERIMENTS.md (E1–E14, DESIGN.md §5).
//!
//! ```sh
//! cargo run -p cwf-bench --release --bin experiments
//! ```
//!
//! The paper (PODS 2018 theory) has no empirical tables; each experiment
//! checks the *shape* its theorem predicts — who wins, how costs scale,
//! where bounds sit. Absolute numbers are machine-dependent.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use cwf_analysis::{
    check_h_bounded, check_transparent, expand_view_run, find_bound, mirror_run,
    sample_transparency_violation, synthesize_view_program, Limits,
};
use cwf_bench::{chain_observer, chain_program};
use cwf_core::{
    facts, is_minimal_exact, is_one_minimal, minimal_faithful_scenario, one_minimal_scenario,
    search_min_scenario, tp_closure, EventSet, RunIndex, SearchOptions,
};
use cwf_design::{
    acyclicity_bound, in_t_runs, is_p_acyclic, p_fresh_candidates, TransparentEngine,
};
use cwf_engine::{
    MemBackend, PerfectTransport, Run, ShardPlane, ShardPlaneConfig, Simulator, SyncPolicy, Wal,
    WalOptions,
};
use cwf_model::{chase_with, Governor, Instance, RelSchema, Schema, Tuple, Value, Verdict};
use cwf_workloads::{
    build_procurement_run, build_review_run, hiring_no_cfo, hitting_set_workload, transitive_spec,
    unsat_workload, Cnf, HittingSet,
};

fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

fn ms(d: Duration) -> String {
    format!("{:>10.3} ms", d.as_secs_f64() * 1e3)
}

fn header(id: &str, title: &str) {
    println!("\n============================================================");
    println!("{id} — {title}");
    println!("============================================================");
}

fn main() {
    e1_min_scenario();
    e2_minimality();
    e3_faithful();
    e4_incremental();
    e5_semiring();
    e6_boundedness();
    e7_transparency();
    e8_synthesis();
    e9_acyclicity();
    e10_enforcement();
    e11_engine();
    e12_negative_control();
    e13_tree_equivalence();
    e14_stage_transform();
    println!("\nall experiments completed");
}

fn e1_min_scenario() {
    header(
        "E1",
        "Theorem 3.3: minimum scenario is NP-complete (exact vs greedy)",
    );
    println!(
        "{:>4} {:>7} {:>9} {:>14} {:>14} {:>7}",
        "n", "run", "min(exact)", "exact", "greedy", "greedy_len"
    );
    for n in [3usize, 5, 7, 9] {
        let mut rng = StdRng::seed_from_u64(42);
        let hs = HittingSet::random(n, 3, 3, &mut rng);
        let w = hitting_set_workload(hs);
        let run = w.saturated_run();
        let (exact, t_exact) = time(|| {
            search_min_scenario(&run, w.p, &SearchOptions::default(), &Governor::unlimited())
                .into_value()
                .flatten()
                .expect("scenario exists")
        });
        let (greedy, t_greedy) = time(|| one_minimal_scenario(&run, w.p));
        println!(
            "{:>4} {:>7} {:>10} {} {} {:>7}",
            n,
            run.len(),
            exact.len(),
            ms(t_exact),
            ms(t_greedy),
            greedy.len()
        );
    }
    println!("shape: exact time grows exponentially in n; greedy stays polynomial;");
    println!("       greedy length ≥ exact length (1-minimal need not be minimum).");
}

fn e2_minimality() {
    header("E2", "Theorem 3.4: minimality testing is coNP-complete");
    println!("{:>4} {:>14} {:>14}", "n", "exact", "1-minimal");
    for n in [2usize, 4, 6, 8] {
        let mut clauses = vec![vec![1i32]];
        for i in 1..n {
            clauses.push(vec![-(i as i32), i as i32 + 1]);
        }
        clauses.push(vec![-(n as i32)]);
        let cnf = Cnf { n, clauses };
        assert!(!cnf.satisfiable());
        let w = unsat_workload(cnf);
        let run = w.canonical_run();
        let full = EventSet::full(run.len());
        let (r_exact, t_exact) =
            time(|| is_minimal_exact(&run, w.p, &full, &Governor::unlimited()));
        assert_eq!(r_exact, Verdict::Done(true));
        let (r_one, t_one) = time(|| is_one_minimal(&run, w.p, &full));
        assert!(r_one);
        println!("{:>4} {} {}", n, ms(t_exact), ms(t_one));
    }
    println!("shape: exact grows exponentially with the CNF variables (UNSAT check);");
    println!("       1-minimality stays polynomial.");
}

fn e3_faithful() {
    header("E3", "Theorem 4.7: minimal faithful scenario in PTIME");
    println!(
        "{:>9} {:>9} {:>14} {:>10}",
        "requests", "events", "extract", "kept"
    );
    for requests in [5usize, 10, 20, 40, 80] {
        let mut rng = StdRng::seed_from_u64(7);
        let p = build_procurement_run(requests, 1, &mut rng);
        let (expl, t) = time(|| minimal_faithful_scenario(&p.run, p.emp));
        println!(
            "{:>9} {:>9} {} {:>10}",
            requests,
            p.run.len(),
            ms(t),
            expl.events.len()
        );
    }
    println!("shape: extraction time grows polynomially (near-linearly) with run length.");
}

fn e4_incremental() {
    header(
        "E4",
        "Section 4: incremental maintenance vs recompute-per-event",
    );
    println!(
        "{:>9} {:>9} {:>14} {:>14} {:>14} {:>8}",
        "requests", "events", "pushes only", "incremental", "recompute", "speedup"
    );
    for requests in [5usize, 10, 20, 40] {
        let mut rng = StdRng::seed_from_u64(11);
        let p = build_procurement_run(requests, 1, &mut rng);
        // The pushes both arms pay, with the facts slot left empty.
        let (_, t_push) = time(|| {
            let mut run = Run::new(p.run.spec_arc());
            for i in 0..p.run.len() {
                run.push(p.run.event(i).clone()).unwrap();
            }
            run.len()
        });
        // Incremental: the run's facts slot is filled before the first
        // push, so every push steps the faithful set.
        let (inc, t_inc) = time(|| {
            let mut run = Run::new(p.run.spec_arc());
            let mut last = facts(&run).faithful(p.emp).len();
            for i in 0..p.run.len() {
                run.push(p.run.event(i).clone()).unwrap();
                last = facts(&run).faithful(p.emp).len();
            }
            last
        });
        // Recompute: a fresh index and closure after every push, beside
        // the run's (unfilled) facts slot.
        let (scratch, t_scratch) = time(|| {
            let mut run = Run::new(p.run.spec_arc());
            let mut last = 0;
            for i in 0..p.run.len() {
                run.push(p.run.event(i).clone()).unwrap();
                let visible = EventSet::from_iter(run.len(), run.visible_events(p.emp));
                last = tp_closure(&run, &RunIndex::build(&run), p.emp, &visible).len();
            }
            last
        });
        assert_eq!(inc, scratch, "stepped ≡ from-scratch");
        println!(
            "{:>9} {:>9} {} {} {} {:>7.1}x",
            requests,
            p.run.len(),
            ms(t_push),
            ms(t_inc),
            ms(t_scratch),
            t_scratch.as_secs_f64() / t_inc.as_secs_f64()
        );
    }
    println!("shape: the incremental/recompute gap widens with run length.");
}

fn e5_semiring() {
    header("E5", "Theorem 4.8: semiring operations scale linearly");
    println!(
        "{:>7} {:>14} {:>14} {:>14}",
        "events", "closure", "union", "intersect"
    );
    for len in [50usize, 100, 200, 400] {
        let mut rng = StdRng::seed_from_u64(5);
        let params = cwf_workloads::RandomSpecParams {
            n_rels: 10,
            n_rules: 20,
            ..Default::default()
        };
        let w = cwf_workloads::random_propositional_spec(&params, &mut rng);
        let run = cwf_workloads::random_run(&w.spec, len, 1);
        if run.is_empty() {
            continue;
        }
        let index = RunIndex::build(&run);
        let n = run.len();
        let a = tp_closure(&run, &index, w.observer, &EventSet::from_iter(n, [0]));
        let b = tp_closure(&run, &index, w.observer, &EventSet::from_iter(n, [n - 1]));
        let (_, t_cl) =
            time(|| tp_closure(&run, &index, w.observer, &EventSet::from_iter(n, [n / 2])));
        let (_, t_u) = time(|| a.union(&b));
        let (_, t_i) = time(|| a.intersection(&b));
        println!("{:>7} {} {} {}", n, ms(t_cl), ms(t_u), ms(t_i));
    }
    println!("shape: all three linear in the run length (bitset + worklist).");
}

fn e6_boundedness() {
    header("E6", "Theorem 5.10: deciding h-boundedness (PSPACE)");
    let limits = Limits {
        max_nodes: 200_000_000,
        max_tuples_per_rel: 1,
        extra_constants: Some(0),
    };
    println!("{:>3} {:>14} {:>14}", "k", "refute h=k", "confirm h=k+1");
    for k in [1usize, 2, 3, 4] {
        let spec = chain_program(k);
        let p = chain_observer(&spec);
        let (d, t_ref) = time(|| check_h_bounded(&spec, p, k, &limits));
        assert!(d.counter_example().is_some());
        let (d2, t_conf) = time(|| check_h_bounded(&spec, p, k + 1, &limits));
        assert!(d2.holds());
        println!("{:>3} {} {}", k, ms(t_ref), ms(t_conf));
    }
    println!("shape: cost grows exponentially with the chain length (search over C_h+1).");
}

fn e7_transparency() {
    header(
        "E7",
        "Theorem 5.11: deciding transparency of h-bounded programs",
    );
    let spec = hiring_no_cfo();
    let sue = spec.collab().peer("sue").unwrap();
    println!(
        "{:>12} {:>14} {:>9}",
        "pool extras", "exhaustive", "verdict"
    );
    for extra in [3usize, 4, 5, 6] {
        let limits = Limits {
            max_nodes: 500_000_000,
            max_tuples_per_rel: 1,
            extra_constants: Some(extra),
        };
        let (d, t) = time(|| check_transparent(&spec, sue, 2, &limits));
        println!(
            "{:>12} {} {:>9}",
            extra,
            ms(t),
            if d.counter_example().is_some() {
                "refuted"
            } else {
                "?"
            }
        );
    }
    let (v, t) = time(|| sample_transparency_violation(&spec, sue, 40, 6, 7));
    println!(
        "{:>12} {} {:>9}",
        "sampled",
        ms(t),
        if v.is_some() { "refuted" } else { "?" }
    );
    println!("shape: exhaustive cost grows steeply with the pool; sampling is cheap.");
}

fn e8_synthesis() {
    header("E8", "Theorem 5.13: view-program synthesis + validation");
    let spec = hiring_no_cfo();
    let sue = spec.collab().peer("sue").unwrap();
    let limits = Limits {
        max_nodes: 500_000_000,
        max_tuples_per_rel: 1,
        extra_constants: Some(2),
    };
    println!(
        "{:>3} {:>14} {:>8} {:>9}",
        "h", "synthesize", "ω-rules", "skipped"
    );
    let mut keep = None;
    for h in [1usize, 2, 3] {
        let (synth, t) = time(|| synthesize_view_program(&spec, sue, h, &limits).unwrap());
        println!(
            "{:>3} {} {:>8} {:>9}",
            h,
            ms(t),
            synth.omega_rules.len(),
            synth.skipped_delete_reinsert
        );
        if h == 2 {
            keep = Some(synth);
        }
    }
    let synth = keep.expect("h=2 synthesis kept");
    // Completeness + soundness over sampled runs.
    let mut ok_mirror = 0;
    let mut ok_expand = 0;
    for seed in 0..20u64 {
        let mut sim = Simulator::new(Run::new(Arc::clone(&spec)), StdRng::seed_from_u64(seed));
        sim.steps(8).unwrap();
        if mirror_run(&synth, &sim.into_run()).is_ok() {
            ok_mirror += 1;
        }
        let mut sim = Simulator::new(
            Run::new(Arc::clone(&synth.view_spec)),
            StdRng::seed_from_u64(seed),
        );
        sim.steps(5).unwrap();
        if expand_view_run(&synth, &spec, &sim.into_run()).is_ok() {
            ok_expand += 1;
        }
    }
    println!(
        "completeness (mirror): {ok_mirror}/20 runs   soundness (expand): {ok_expand}/20 runs"
    );
    println!("shape: size/time grow with h; sampled soundness & completeness are total.");
}

fn e9_acyclicity() {
    header(
        "E9",
        "Theorem 6.3: the (ab+1)^d bound vs the measured bound",
    );
    let limits = Limits {
        max_nodes: 200_000_000,
        max_tuples_per_rel: 1,
        extra_constants: Some(0),
    };
    println!(
        "{:>3} {:>9} {:>12} {:>10} {:>14}",
        "k", "acyclic", "bound", "measured", "decide time"
    );
    for k in [1usize, 2, 3] {
        let spec = chain_program(k);
        let p = chain_observer(&spec);
        assert!(is_p_acyclic(&spec, p));
        let bound = acyclicity_bound(&spec);
        let (measured, t) = time(|| find_bound(&spec, p, 6, &limits).unwrap());
        println!(
            "{:>3} {:>9} {:>12} {:>10} {}",
            k,
            "yes",
            bound,
            measured,
            ms(t)
        );
    }
    println!("shape: the static bound dominates the measured bound by orders of magnitude;");
    println!("       the p-graph analysis itself is effectively free.");
}

fn e10_enforcement() {
    header(
        "E10",
        "Theorem 6.7: enforcement engine overhead & filtering",
    );
    let spec = hiring_no_cfo();
    let sue = spec.collab().peer("sue").unwrap();
    println!(
        "{:>7} {:>14} {:>14} {:>9}",
        "cycles", "plain", "enforced", "overhead"
    );
    for cycles in [10usize, 25, 50, 100] {
        let mut events = Vec::new();
        for i in 0..cycles {
            let x = cwf_model::Value::Fresh(10_000 + i as u64);
            for name in ["clear", "approve", "hire"] {
                let rid = spec.program().rule_by_name(name).unwrap();
                let mut b = cwf_engine::Bindings::empty(1);
                b.set(cwf_lang::VarId(0), x);
                events.push(cwf_engine::Event::new(&spec, rid, b).unwrap());
            }
        }
        let (_, t_plain) = time(|| {
            let mut run = Run::new(Arc::clone(&spec));
            for e in &events {
                run.push(e.clone()).unwrap();
            }
            run.len()
        });
        let (_, t_enf) = time(|| {
            let mut eng = TransparentEngine::new(Arc::clone(&spec), sue, 3);
            for e in &events {
                eng.push(e.clone()).unwrap();
            }
            eng.run().len()
        });
        println!(
            "{:>7} {} {} {:>8.2}x",
            cycles,
            ms(t_plain),
            ms(t_enf),
            t_enf.as_secs_f64() / t_plain.as_secs_f64()
        );
    }
    // Filtering: a stale-approval run is blocked and the accepted prefix is
    // in tRuns.
    let mut eng = TransparentEngine::new(Arc::clone(&spec), sue, 3);
    let fire = |eng: &mut TransparentEngine, name: &str, x: u64| {
        let rid = spec.program().rule_by_name(name).unwrap();
        let mut b = cwf_engine::Bindings::empty(1);
        b.set(cwf_lang::VarId(0), cwf_model::Value::Fresh(x));
        eng.push(cwf_engine::Event::new(&spec, rid, b).unwrap())
            .unwrap()
    };
    fire(&mut eng, "clear", 1);
    fire(&mut eng, "approve", 1);
    fire(&mut eng, "clear", 2);
    let blocked = !fire(&mut eng, "hire", 1).applied();
    let run = eng.into_run();
    let candidates = p_fresh_candidates(&run, sue);
    println!(
        "stale-approval hire blocked: {blocked}; accepted run ∈ tRuns: {}",
        in_t_runs(&run, sue, 3, &candidates)
    );
    println!("shape: constant-factor overhead; non-transparent runs are filtered.");
}

fn e11_engine() {
    header("E11", "substrate: engine throughput");
    println!(
        "{:>9} {:>9} {:>14} {:>12}",
        "requests", "events", "build", "events/s"
    );
    for requests in [10usize, 20, 40, 80] {
        let (built, t) = time(|| {
            let mut rng = StdRng::seed_from_u64(13);
            build_procurement_run(requests, 1, &mut rng)
        });
        let eps = built.run.len() as f64 / t.as_secs_f64();
        println!(
            "{:>9} {:>9} {} {:>12.0}",
            requests,
            built.run.len(),
            ms(t),
            eps
        );
    }
    let mut rng = StdRng::seed_from_u64(21);
    let r = build_review_run(20, 2, &mut rng);
    println!(
        "review workload: {} events, author sees {}",
        r.run.len(),
        r.run.view(r.author).len()
    );
    e11_chase();
    e11_recovery();
}

/// E11's chase micro-bench: one `chase_with` merge into instances of
/// growing size, mean of `CALLS` calls.
fn e11_chase() {
    const CALLS: u32 = 100;
    println!("\n{:>9} {:>14}", "tuples", "chase_with");
    let schema = Schema::from_relations([RelSchema::new("R", ["K", "A", "B"]).unwrap()]).unwrap();
    let r = schema.rel("R").unwrap();
    for size in [100usize, 1000, 10_000] {
        let mut inst = Instance::empty(&schema);
        for i in 0..size {
            inst.rel_mut(r)
                .insert(Tuple::new([
                    Value::int(i as i64),
                    Value::str("a"),
                    Value::Null,
                ]))
                .unwrap();
        }
        let extra = Tuple::new([Value::int((size / 2) as i64), Value::Null, Value::str("b")]);
        let (_, t) = time(|| {
            for _ in 0..CALLS {
                black_box(chase_with(&schema, &inst, r, extra.clone()).unwrap());
            }
        });
        println!(
            "{:>9} {:>11.2} us",
            size,
            t.as_secs_f64() * 1e6 / f64::from(CALLS)
        );
    }
    println!("shape: one merge copies the instance, so its cost grows with the size");
    println!("       (about linearly).");
}

/// E11's durability rows: recovering the single-node master server (a
/// shards=1 `ShardPlane`) by full replay vs snapshot + tail.
fn e11_recovery() {
    let spec = Arc::new(
        cwf_lang::parse_workflow(
            r#"
            schema { Doc(K); }
            peers { author sees Doc(*); editor sees Doc(*); }
            rules { draft @ author: +Doc(d) :- ; }
            "#,
        )
        .unwrap(),
    );
    let draft = spec.program().rule_by_name("draft").unwrap();
    println!(
        "\n{:>9} {:>14} {:>14} {:>9}",
        "events", "recovery", "time", "replayed"
    );
    for n in [1_000usize, 10_000] {
        for (label, snapshot_every) in [("full replay", None), ("snapshot+tail", Some(256))] {
            let opts = WalOptions {
                sync: SyncPolicy::Never,
                snapshot_every,
            };
            // Journal `n` accepted events, untimed.
            let backend = MemBackend::new();
            let wal = Wal::create(Box::new(backend.clone()), opts).unwrap();
            let mut plane = ShardPlane::with_parts(
                Arc::clone(&spec),
                vec![Box::new(PerfectTransport::new())],
                Some(vec![wal]),
                ShardPlaneConfig::with_shards(1),
            );
            for _ in 0..n {
                let mut b = cwf_engine::Bindings::empty(1);
                b.set(cwf_lang::VarId(0), plane.draw_fresh());
                plane
                    .submit(cwf_engine::Event::new(&spec, draft, b).unwrap())
                    .unwrap();
            }
            let bytes = backend.bytes();
            let (report, t) = time(|| {
                let (_, report) = ShardPlane::recover(
                    Arc::clone(&spec),
                    vec![Box::new(MemBackend::from_bytes(bytes))],
                    opts,
                    vec![Box::new(PerfectTransport::new())],
                    ShardPlaneConfig::with_shards(1),
                )
                .unwrap();
                report
            });
            assert_eq!(report.last_seq as usize, n);
            println!(
                "{:>9} {:>14} {} {:>9}",
                n,
                label,
                ms(t),
                report.events_replayed
            );
        }
    }
    println!("shape: full replay grows with the log (faster than linearly: each replayed");
    println!("       insert copies the instance); snapshot + tail replays fewer than the");
    println!("       256 events between snapshots however long the log grows.");
}

fn e13_tree_equivalence() {
    header(
        "E13",
        "Remark 5.2: tree equivalence of synthesized view programs",
    );
    use cwf_analysis::{sample_tree_divergence, synthesize_view_program, Decision};
    // A counterexample is a divergence; a check that could not compare
    // says why.
    let divergence = |d: &Decision<_>| match d {
        Decision::Holds => "false".to_string(),
        Decision::CounterExample(_) => "true".to_string(),
        Decision::Exhausted(reason) => format!("? ({reason})"),
    };
    let limits = Limits {
        max_nodes: 100_000_000,
        max_tuples_per_rel: 1,
        extra_constants: Some(2),
    };
    // Positive case: the guarded hiring workflow.
    let spec = hiring_no_cfo();
    let sue = spec.collab().peer("sue").unwrap();
    let synth = synthesize_view_program(&spec, sue, 2, &limits).unwrap();
    let (d, t) = time(|| sample_tree_divergence(&spec, &synth, sue, 2, &limits, 10, 6, 3));
    println!(
        "hiring (guarded):   divergence = {:<5} {}",
        divergence(&d),
        ms(t)
    );
    // Negative case: an invisible lock rules out a visible emission.
    let lock_spec = Arc::new(
        cwf_lang::parse_workflow(
            r#"
            schema { Req(K); Lock(K); Out(K); }
            peers {
                q sees Req(*), Lock(*), Out(*);
                p sees Req(*), Out(*);
            }
            rules {
                req @ p: +Req(x) :- ;
                lock @ q: +Lock(x) :- Req(x), not key Lock(x);
                emit @ q: +Out(x) :- Req(x), not key Lock(x), not key Out(x);
            }
            "#,
        )
        .unwrap(),
    );
    let p = lock_spec.collab().peer("p").unwrap();
    let synth2 = synthesize_view_program(&lock_spec, p, 1, &limits).unwrap();
    let (d2, t2) = time(|| sample_tree_divergence(&lock_spec, &synth2, p, 1, &limits, 20, 6, 11));
    println!(
        "lock (hidden choice): divergence = {:<5} {}",
        divergence(&d2),
        ms(t2)
    );
    println!("shape: transparent input ⇒ trees agree on samples; hidden choices diverge.");
}

fn e14_stage_transform() {
    header(
        "E14",
        "Section 6: the mechanical stage-discipline transform",
    );
    use cwf_design::add_stage_discipline;
    let raw = Arc::new(
        cwf_lang::parse_workflow(
            r#"
            schema { Cleared(K); Approved(K); Hire(K); }
            peers {
                hr sees Cleared(*), Approved(*), Hire(*);
                ceo sees Cleared(*), Approved(*), Hire(*);
                sue sees Cleared(*), Hire(*);
            }
            rules {
                clear @ hr: +Cleared(x) :- ;
                approve @ ceo: +Approved(x) :- Cleared(x);
                hire @ hr: +Hire(x) :- Approved(x);
            }
            "#,
        )
        .unwrap(),
    );
    let sue = raw.collab().peer("sue").unwrap();
    let (staged, t) = time(|| add_stage_discipline(&raw, sue).unwrap());
    println!(
        "transform: {} — rules {} → {}, relations {} → {}",
        ms(t),
        raw.program().rules().len(),
        staged.spec.program().rules().len(),
        raw.collab().schema().len(),
        staged.spec.collab().schema().len()
    );
    // Transparency status before/after (sampled falsifier).
    let (before, tb) = time(|| sample_transparency_violation(&raw, sue, 40, 6, 5).is_some());
    let staged_arc = Arc::new(staged.spec.clone());
    let (after, ta) = time(|| sample_transparency_violation(&staged_arc, sue, 25, 8, 5).is_some());
    println!(
        "sampled violation: raw = {before} ({}), staged = {after} ({})",
        ms(tb),
        ms(ta)
    );
    println!("shape: the transform removes the sampled transparency violations at the");
    println!("       cost of one Stage relation, stage guards, and re-keyed invisible state.");
}

fn e12_negative_control() {
    header(
        "E12",
        "Prop 5.3 / Thm 5.4: no view program for the closure workflow",
    );
    let spec = transitive_spec();
    let p = spec.collab().peer("p").unwrap();
    let limits = Limits {
        max_nodes: 100_000_000,
        max_tuples_per_rel: 1,
        extra_constants: Some(1),
    };
    println!("{:>3} {:>16} {:>14}", "h", "h-bounded?", "decide time");
    for h in [1usize, 2] {
        let (d, t) = time(|| check_h_bounded(&spec, p, h, &limits));
        println!(
            "{:>3} {:>16} {}",
            h,
            if d.counter_example().is_some() {
                "refuted"
            } else {
                "?"
            },
            ms(t)
        );
    }
    println!("shape: every candidate h is refuted — consistent with the impossibility");
    println!("       result (unbounded silent-relevant chains ⇒ no view program).");
}
