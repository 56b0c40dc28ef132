//! E22 — the provenance plane pays for itself twice.
//!
//! Builds a run whose observer peer sees only the tip of a small derivation
//! chain buried in unrelated churn, then measures:
//!
//! * **explain** — answering "why does the peer see this fact?" from the
//!   maintained provenance index ([`Run::explain_fact`]) versus the
//!   pre-provenance way: a minimum-scenario search that reconstructs a
//!   witness set from scratch. The ratio is `explain_speedup`.
//! * **cone pruning** — the same minimum-scenario search with the
//!   provenance-cone restriction on (the default) and off
//!   ([`SearchOptions::no_cone`]), compared by governor node count on
//!   byte-identical verdicts. The ratio is `cone_node_reduction`.
//!
//! Every search runs on the sequential pool, so the node counts do not
//! depend on the host's core count.
//!
//! Timings print criterion-style; the measured numbers land in
//! `BENCH_provenance.json` at the repository root (consumed by
//! EXPERIMENTS.md E22 and gated by `bench_check`).

use std::sync::Arc;
use std::time::Instant;

use criterion::black_box;

use cwf_core::{search_min_scenario_pooled, SearchOptions};
use cwf_engine::{Bindings, Event, Run};
use cwf_lang::parse_workflow;
use cwf_model::{Governor, Pool, RelId, Value};

const WARMUP: usize = 2;
const ITERS: usize = 30;
/// Churn events surrounding the five-event derivation chain.
const NOISE: usize = 27;

/// A five-event alternative-derivation chain (`a1`/`a2` feed `b1`/`b2`
/// feed `ok`) visible to the observer `p` only at its tip, drowned in
/// `Noise` churn the cone provably excludes.
fn bench_spec() -> Arc<cwf_lang::WorkflowSpec> {
    Arc::new(
        parse_workflow(
            r#"
            schema { Noise(K); V1(K); V2(K); C1(K); OK(K); }
            peers {
                w sees Noise(*), V1(*), V2(*), C1(*), OK(*);
                p sees OK(*);
            }
            rules {
                churn @ w: +Noise(0) :- ;
                wipe @ w: -key Noise(0) :- Noise(0);
                a1 @ w: +V1(0) :- ;
                a2 @ w: +V2(0) :- ;
                b1 @ w: +C1(0) :- V1(0);
                b2 @ w: +C1(0) :- V2(0);
                ok @ w: +OK(0) :- C1(0);
            }
            "#,
        )
        .expect("the bench spec parses"),
    )
}

/// Fires `name` (all rules are propositional, so bindings are empty).
fn fire(run: &mut Run, name: &str) {
    let spec = run.spec_arc();
    let rid = spec
        .program()
        .rule_by_name(name)
        .expect("the bench spec has the rule");
    let event = Event::new(&spec, rid, Bindings::empty(0)).expect("rule fires");
    run.push(event).expect("the scripted event is accepted");
}

/// `NOISE` alternating churn/wipe events with the chain spliced through
/// them: `a1`/`a2` a quarter in, `b1`/`b2` at the middle, `ok` at the
/// three-quarter mark.
fn build_run() -> Run {
    let spec = bench_spec();
    let mut run = Run::new(Arc::clone(&spec));
    run.enable_provenance();
    let mut fired = 0usize;
    while fired < NOISE {
        match fired {
            n if n == NOISE / 4 => {
                fire(&mut run, "a1");
                fire(&mut run, "a2");
            }
            n if n == NOISE / 2 => {
                fire(&mut run, "b1");
                fire(&mut run, "b2");
            }
            n if n == 3 * NOISE / 4 => fire(&mut run, "ok"),
            _ => {}
        }
        fire(
            &mut run,
            if fired.is_multiple_of(2) {
                "churn"
            } else {
                "wipe"
            },
        );
        fired += 1;
    }
    run
}

fn time_passes<T, F: FnMut() -> T>(mut f: F) -> f64 {
    for _ in 0..WARMUP {
        black_box(f());
    }
    let start = Instant::now();
    for _ in 0..ITERS {
        black_box(f());
    }
    start.elapsed().as_secs_f64() / ITERS as f64
}

fn main() {
    let run = build_run();
    let p = run
        .spec()
        .collab()
        .peer_ids()
        .last()
        .expect("the bench spec has peers");
    let facts: Vec<(RelId, Value)> = run
        .provenance()
        .expect("enabled")
        .peer_iter(p)
        .map(|(rel, key, _)| (rel, *key))
        .collect();
    assert!(!facts.is_empty(), "the observer must see the chain tip");

    // Explain from the index vs reconstructing a witness by search. The
    // lookup is nanoseconds, so batch it to keep the timer noise-free.
    const BATCH: usize = 1_000;
    let explain_s = time_passes(|| {
        for _ in 0..BATCH {
            for (rel, key) in &facts {
                let prov = run.explain_fact(p, *rel, key).expect("visible fact");
                assert!(!black_box(prov).is_zero());
            }
        }
    }) / BATCH as f64;
    let search = |opts: &SearchOptions, gov: &Governor| {
        search_min_scenario_pooled(&run, p, opts, gov, &Pool::sequential())
    };
    let search_opts = SearchOptions::default();
    let search_s = time_passes(|| {
        search(&search_opts, &Governor::unlimited())
            .found()
            .expect("a scenario exists")
            .clone()
    });
    let explain_speedup = search_s / explain_s;

    // Cone pruning: node counts of byte-identical searches.
    let unpruned_opts = SearchOptions {
        no_cone: true,
        ..Default::default()
    };
    let pruned_gov = Governor::unlimited();
    let pruned = search(&search_opts, &pruned_gov);
    let unpruned_gov = Governor::unlimited();
    let unpruned = search(&unpruned_opts, &unpruned_gov);
    assert_eq!(
        pruned, unpruned,
        "cone-pruned and unpruned searches must agree"
    );
    let cone_nodes = pruned_gov.nodes_used();
    let full_nodes = unpruned_gov.nodes_used();
    let cone_node_reduction = full_nodes as f64 / cone_nodes as f64;

    println!(
        "E22_provenance/explain ... {:>10.0} ns/iter ({} facts)",
        explain_s * 1e9,
        facts.len()
    );
    println!(
        "E22_provenance/search  ... {:>10.0} ns/iter",
        search_s * 1e9
    );
    println!(
        "E22_provenance: {} events, explain speedup {:.0}x, search nodes \
         {} pruned vs {} unpruned ({:.1}x reduction)",
        run.len(),
        explain_speedup,
        cone_nodes,
        full_nodes,
        cone_node_reduction
    );

    let json = format!(
        "{{\n  \"experiment\": \"E22_provenance\",\n  \"events\": {},\n  \
         \"facts\": {},\n  \"explain_ns\": {:.1},\n  \"search_ns\": {:.1},\n  \
         \"explain_speedup\": {:.2},\n  \"cone_nodes\": {},\n  \
         \"full_nodes\": {},\n  \"cone_node_reduction\": {:.2}\n}}\n",
        run.len(),
        facts.len(),
        explain_s * 1e9,
        search_s * 1e9,
        explain_speedup,
        cone_nodes,
        full_nodes,
        cone_node_reduction
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_provenance.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("E22_provenance: cannot write {path}: {e}");
    }
}
