//! E22 — the provenance plane pays for itself twice.
//!
//! Builds a run whose observer peer sees only the tip of a small derivation
//! chain buried in unrelated churn, then measures:
//!
//! * **explain** — answering "why does the peer see this fact?" from the
//!   provenance plane ([`Run::explain_fact`]). Its cost is timed against a
//!   fixed reference operation, a lookup of the same key in a map the bench
//!   builds itself from the peer's polynomials. Batches of the two run
//!   round-robin, so host noise lands on both alike; the median per-round
//!   ratio is `explain_cost`. A slower explain path raises it, and nothing
//!   outside that path moves it.
//! * **search** — the pre-provenance way to answer: a minimum-scenario
//!   search that reconstructs a witness set from scratch. Its time over the
//!   explain time is `explain_speedup`, reported but not gated: a faster
//!   search lowers it with no change on the explain path.
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
//! EXPERIMENTS.md E22 and gated by `bench_check`: `explain_cost` may rise
//! at most 25% above its baseline, and each node count is a ceiling).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use criterion::black_box;

use cwf_core::{search_min_scenario_pooled, SearchOptions};
use cwf_engine::{Bindings, Event, Run};
use cwf_lang::parse_workflow;
use cwf_model::{Governor, Pool, Provenance, RelId, Value};

const WARMUP: usize = 2;
const ITERS: usize = 30;
/// Round-robin rounds of the explain and reference batches.
const ROUNDS: usize = 101;
/// Lookups per batch: a lookup takes nanoseconds, so a batch keeps the
/// timer's own cost out of the ratio.
const BATCH: usize = 10_000;
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
    let reference: BTreeMap<(RelId, Value), Provenance> = run
        .provenance()
        .peer_iter(p)
        .map(|(rel, key, prov)| ((rel, *key), prov.clone()))
        .collect();
    let facts: Vec<(RelId, Value)> = reference.keys().copied().collect();
    assert!(!facts.is_empty(), "the observer must see the chain tip");

    // Explain through the run against the reference lookup, round-robin.
    let explain_batch = || {
        for _ in 0..BATCH {
            for (rel, key) in &facts {
                let prov = black_box(&run)
                    .explain_fact(p, *rel, black_box(key))
                    .expect("visible fact");
                assert!(!black_box(prov).is_zero());
            }
        }
    };
    let reference_batch = || {
        for _ in 0..BATCH {
            for fact in &facts {
                let prov = black_box(&reference)
                    .get(black_box(fact))
                    .expect("visible fact");
                assert!(!black_box(prov).is_zero());
            }
        }
    };
    let lookups = (BATCH * facts.len()) as f64;
    let mut rounds = Vec::with_capacity(ROUNDS);
    for round in 0..WARMUP + ROUNDS {
        let start = Instant::now();
        explain_batch();
        let explained = start.elapsed().as_secs_f64() / lookups;
        let start = Instant::now();
        reference_batch();
        let looked_up = start.elapsed().as_secs_f64() / lookups;
        if round >= WARMUP {
            rounds.push((explained, looked_up));
        }
    }
    let median = |mut xs: Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    let explain_s = median(rounds.iter().map(|r| r.0).collect());
    let reference_s = median(rounds.iter().map(|r| r.1).collect());
    let explain_cost = median(rounds.iter().map(|r| r.0 / r.1).collect());

    // Reconstructing a witness by search instead.
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
        "E22_provenance/explain ... {:>10.1} ns/iter ({} facts)",
        explain_s * 1e9,
        facts.len()
    );
    println!(
        "E22_provenance/reference . {:>10.1} ns/iter",
        reference_s * 1e9
    );
    println!(
        "E22_provenance/search  ... {:>10.0} ns/iter",
        search_s * 1e9
    );
    println!(
        "E22_provenance: {} events, explain cost {:.2}x the reference lookup, explain \
         speedup {:.0}x over search, search nodes {} pruned vs {} unpruned ({:.1}x reduction)",
        run.len(),
        explain_cost,
        explain_speedup,
        cone_nodes,
        full_nodes,
        cone_node_reduction
    );

    let json = format!(
        "{{\n  \"experiment\": \"E22_provenance\",\n  \"events\": {},\n  \
         \"facts\": {},\n  \"explain_ns\": {:.1},\n  \"reference_ns\": {:.1},\n  \
         \"explain_cost\": {:.3},\n  \"search_ns\": {:.1},\n  \
         \"explain_speedup\": {:.2},\n  \"cone_nodes\": {},\n  \
         \"full_nodes\": {},\n  \"cone_node_reduction\": {:.2}\n}}\n",
        run.len(),
        facts.len(),
        explain_s * 1e9,
        reference_s * 1e9,
        explain_cost,
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
