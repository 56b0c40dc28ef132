//! E26 — explanation requests with the run's facts cached versus rebuilt.
//!
//! Builds the corpus of perfbench's `explain-batch` workload (the same
//! builders, shapes and generator seed) and, for every (run, peer) pair,
//! times one request — the minimal faithful scenario (Thm 4.7), then the
//! cone-pruned minimum scenario (Thm 3.3) on the sequential pool — two
//! ways:
//!
//! * **warm** — on the corpus run itself, whose facts slot (index, closed
//!   dependency sets, visible sets, head relations) earlier requests have
//!   filled;
//! * **cold** — on a fresh clone of the run, made outside the timer, which
//!   starts with the slot empty and builds the facts the request reads.
//!
//! Passes run round-robin over the two, so host noise lands on both alike
//! and cancels in their ratio. Per pair, the ratio is its warm time over
//! its cold time summed over the timed rounds; `warm_over_cold` is the
//! median of the pairs' ratios: the share of a cold request's time the
//! median warm request still spends. (A ratio of totals would be the
//! search-heavy tail's: a few pairs search for milliseconds, where the
//! facts are a rounding error.)
//!
//! The numbers land in `BENCH_run_facts.json` at the repository root
//! (consumed by EXPERIMENTS.md E26 and gated by `bench_check` as a cost:
//! the ratio may rise at most 25% above its baseline).

use std::time::Instant;

use criterion::black_box;

use cwf_bench::explain_batch_corpus;
use cwf_core::{minimal_faithful_scenario, search_min_scenario_pooled, SearchOptions};
use cwf_engine::Run;
use cwf_model::{Governor, PeerId, Pool};

const WARMUP: usize = 2;
const ITERS: usize = 40;
/// Node budget of one search; every corpus search completes well inside it.
const NODE_BUDGET: u64 = 2_000_000;

/// One request: the faithful query, then the minimum query.
fn request(run: &Run, peer: PeerId) {
    black_box(minimal_faithful_scenario(run, peer));
    let gov = Governor::with_nodes(NODE_BUDGET);
    let v = search_min_scenario_pooled(
        run,
        peer,
        &SearchOptions::default(),
        &gov,
        &Pool::sequential(),
    );
    assert!(v.is_done(), "the corpus searches complete");
    black_box(v);
}

/// Times one request per pair, on the corpus run itself (warm) or on a
/// fresh clone of it (cold), adding each pair's seconds to `spent`.
fn pass(pairs: &[(&Run, PeerId)], cold: bool, spent: &mut [f64]) {
    for (&(run, peer), spent) in pairs.iter().zip(spent) {
        let clone = cold.then(|| run.clone());
        let run = clone.as_ref().unwrap_or(run);
        let start = Instant::now();
        request(run, peer);
        *spent += start.elapsed().as_secs_f64();
    }
}

fn main() {
    let runs = explain_batch_corpus();
    let pairs: Vec<(&Run, PeerId)> = runs
        .iter()
        .flat_map(|run| run.spec().collab().peer_ids().map(move |p| (run, p)))
        .collect();
    // Read every past instance once, so a clone carries the filled history
    // cells and differs from the run only in its empty facts slot.
    for run in &runs {
        for i in 0..run.len() {
            run.instance(i);
        }
    }

    let mut warm = vec![0.0f64; pairs.len()];
    let mut cold = vec![0.0f64; pairs.len()];
    for round in 0..WARMUP + ITERS {
        if round == WARMUP {
            warm.fill(0.0);
            cold.fill(0.0);
        }
        pass(&pairs, false, &mut warm);
        pass(&pairs, true, &mut cold);
    }
    let mut ratios: Vec<f64> = warm.iter().zip(&cold).map(|(w, c)| w / c).collect();
    ratios.sort_by(f64::total_cmp);
    let ratio = ratios[ratios.len() / 2];
    let requests = (ITERS * pairs.len()) as f64;
    let warm_us = warm.iter().sum::<f64>() / requests * 1e6;
    let cold_us = cold.iter().sum::<f64>() / requests * 1e6;

    println!(
        "E26_run_facts: {} (run, peer) pairs; mean {:.1} us per warm request, {:.1} us per \
         cold request; median pair's warm over cold {:.3}",
        pairs.len(),
        warm_us,
        cold_us,
        ratio
    );
    let json = format!(
        "{{\n  \"experiment\": \"E26_run_facts\",\n  \"pairs\": {},\n  \
         \"warm_us_per_request\": {:.1},\n  \"cold_us_per_request\": {:.1},\n  \
         \"warm_over_cold\": {:.3}\n}}\n",
        pairs.len(),
        warm_us,
        cold_us,
        ratio
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_run_facts.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("E26_run_facts: cannot write {path}: {e}");
    }
}
