//! E17 — the parallel analysis engine at 1/2/4/8 worker threads, plus the
//! chunked-claiming granularity sweep (E21).
//!
//! Runs the two hottest governed analyses at every pool size against the
//! sequential oracle and checks the verdicts stay byte-identical while the
//! wall clock (hopefully) drops:
//!
//! * **min-scenario** — branch-and-bound over a hard hitting-set reduction
//!   (`search_min_scenario_pooled`, shared atomic incumbent);
//! * **boundedness** — confirming 5-boundedness of the silent-chain family's
//!   k = 4 program (`check_h_bounded_pooled`, batched level-1 split; the
//!   E6 workload, at the size where exhausting the space costs seconds).
//!
//! On top of the thread sweep (at the default chunk), the bench sweeps the
//! work-claiming granularity at 4 threads — chunk sizes 1/8/64 against the
//! default 16 — asserting the verdicts stay byte-identical at every
//! granularity (chunking only changes *which worker* computes an item,
//! never the item→slot mapping).
//!
//! Besides the timings, the bench writes per-thread-count results, the
//! chunk-sweep rows, the measured speedups with the quartiles of their
//! eleven sequential/4-thread pairs, and `hardware_threads` (the
//! parallelism the host actually offers) to `BENCH_par_analysis.json` (v2)
//! at the repository root (consumed by EXPERIMENTS.md E17/E21). Speedups
//! are only meaningful when `hardware_threads` exceeds the pool size — on
//! a single-core host every pool size collapses to time-slicing and ≈1× is
//! the honest expectation.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use cwf_analysis::{check_h_bounded_pooled, Limits};
use cwf_bench::{chain_observer, chain_program};
use cwf_core::{search_min_scenario_pooled, SearchOptions};
use cwf_model::{Governor, Pool, DEFAULT_CHUNK};
use cwf_workloads::{hitting_set_workload, HittingSet};

const WARMUP: usize = 1;
const ITERS: usize = 3;
const THREADS: [usize; 4] = [1, 2, 4, 8];
const CHUNKS: [usize; 3] = [1, 8, 64];

/// Times `f` over `ITERS` passes and reports the **median** pass — robust
/// against the scheduling spikes a shared single-core host injects, which
/// matters when the quantity of interest is a ratio of two timings.
fn time_passes<T: PartialEq + std::fmt::Debug, F: FnMut() -> T>(mut f: F) -> (f64, T) {
    let mut out = None;
    for _ in 0..WARMUP {
        out = Some(black_box(f()));
    }
    let mut passes = Vec::with_capacity(ITERS);
    for _ in 0..ITERS {
        let start = Instant::now();
        out = Some(black_box(f()));
        passes.push(start.elapsed().as_secs_f64());
    }
    passes.sort_by(f64::total_cmp);
    (passes[ITERS / 2], out.unwrap())
}

fn main() {
    let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut rng = StdRng::seed_from_u64(42);
    let hs = hitting_set_workload(HittingSet::random(12, 5, 3, &mut rng));
    let run = hs.saturated_run();
    let opts = SearchOptions::default();

    let spec = chain_program(4);
    let p = chain_observer(&spec);
    let limits = Limits {
        max_nodes: 50_000_000,
        max_tuples_per_rel: 1,
        extra_constants: Some(0),
    };

    let mut min_times = Vec::new();
    let mut bound_times = Vec::new();
    let mut min_oracle = None;
    let mut bound_oracle = None;
    let mut measure =
        |pool: &Pool, tag: &str, min_times: &mut Vec<f64>, bound_times: &mut Vec<f64>| {
            let (t_min, v_min) = time_passes(|| {
                search_min_scenario_pooled(&run, hs.p, &opts, &Governor::unlimited(), pool)
            });
            let (t_bound, v_bound) = time_passes(|| {
                format!(
                    "{:?}",
                    check_h_bounded_pooled(
                        &spec,
                        p,
                        5,
                        &limits,
                        &Governor::with_nodes(limits.max_nodes),
                        pool,
                    )
                )
            });
            match &min_oracle {
                None => min_oracle = Some(v_min),
                Some(oracle) => assert_eq!(&v_min, oracle, "min-scenario diverges at {tag}"),
            }
            match &bound_oracle {
                None => bound_oracle = Some(v_bound),
                Some(oracle) => assert_eq!(&v_bound, oracle, "boundedness diverges at {tag}"),
            }
            println!(
                "E17_par_analysis/min_scenario/{tag}  ... {:>10.0} ns/iter",
                t_min * 1e9
            );
            println!(
                "E17_par_analysis/boundedness/{tag}   ... {:>10.0} ns/iter",
                t_bound * 1e9
            );
            min_times.push(t_min);
            bound_times.push(t_bound);
        };

    for threads in THREADS {
        let pool = Pool::with_threads(threads);
        measure(
            &pool,
            &format!("t{threads}"),
            &mut min_times,
            &mut bound_times,
        );
    }

    // Granularity sweep: 4 workers claiming 1/8/64 items per atomic grab
    // (the thread sweep above already covers the default chunk of 16).
    let mut min_chunk_times = Vec::new();
    let mut bound_chunk_times = Vec::new();
    for chunk in CHUNKS {
        let pool = Pool::with_chunk(4, chunk);
        measure(
            &pool,
            &format!("t4c{chunk}"),
            &mut min_chunk_times,
            &mut bound_chunk_times,
        );
    }

    // Paired speedup measurement: alternate sequential and 4-thread passes
    // and take the median of per-pair ratios, so slow host drift (frequency
    // scaling, co-tenants) cancels out of the headline metrics instead of
    // landing on whichever sweep config ran last. Eleven pairs, because on
    // a 2-vCPU host single pairs spread from 1.2× to 2× and a median of
    // three moved with them; the quartiles are written beside it to show
    // that spread.
    const PAIRS: usize = 11;
    let seq_pool = Pool::sequential();
    let par_pool = Pool::with_threads(4);
    let mut min_ratios = Vec::with_capacity(PAIRS);
    let mut bound_ratios = Vec::with_capacity(PAIRS);
    for _ in 0..PAIRS {
        let run_min = |pool: &Pool| {
            let start = Instant::now();
            black_box(search_min_scenario_pooled(
                &run,
                hs.p,
                &opts,
                &Governor::unlimited(),
                pool,
            ));
            start.elapsed().as_secs_f64()
        };
        let run_bound = |pool: &Pool| {
            let start = Instant::now();
            black_box(check_h_bounded_pooled(
                &spec,
                p,
                5,
                &limits,
                &Governor::with_nodes(limits.max_nodes),
                pool,
            ));
            start.elapsed().as_secs_f64()
        };
        min_ratios.push(run_min(&seq_pool) / run_min(&par_pool));
        bound_ratios.push(run_bound(&seq_pool) / run_bound(&par_pool));
    }
    min_ratios.sort_by(f64::total_cmp);
    bound_ratios.sort_by(f64::total_cmp);
    let min_speedup_4t = min_ratios[PAIRS / 2];
    let bound_speedup_4t = bound_ratios[PAIRS / 2];
    // Nearest-rank lower and upper quartiles of the paired ratios.
    let quartiles = |ratios: &[f64]| (ratios[PAIRS / 4], ratios[3 * PAIRS / 4]);
    let (min_q1, min_q3) = quartiles(&min_ratios);
    let (bound_q1, bound_q3) = quartiles(&bound_ratios);

    let speedup =
        |times: &[f64], t: usize| times[0] / times[THREADS.iter().position(|&x| x == t).unwrap()];
    println!(
        "E17_par_analysis: hardware_threads={hardware}, min-scenario speedup \
         2t {:.2}x / 4t {:.2}x (paired, quartiles {:.2}–{:.2}) / 8t {:.2}x, boundedness \
         speedup 2t {:.2}x / 4t {:.2}x (paired, quartiles {:.2}–{:.2}) / 8t {:.2}x",
        speedup(&min_times, 2),
        min_speedup_4t,
        min_q1,
        min_q3,
        speedup(&min_times, 8),
        speedup(&bound_times, 2),
        bound_speedup_4t,
        bound_q1,
        bound_q3,
        speedup(&bound_times, 8),
    );

    let row = |times: &[f64]| {
        THREADS
            .iter()
            .zip(times)
            .map(|(t, s)| {
                format!(
                    "    {{\"threads\": {t}, \"chunk\": {DEFAULT_CHUNK}, \"ms\": {:.3}}}",
                    s * 1e3
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let chunk_row = |times: &[f64]| {
        CHUNKS
            .iter()
            .zip(times)
            .map(|(c, s)| {
                format!(
                    "    {{\"threads\": 4, \"chunk\": {c}, \"ms\": {:.3}}}",
                    s * 1e3
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let json = format!(
        "{{\n  \"experiment\": \"E17_par_analysis\",\n  \
         \"version\": 2,\n  \
         \"hardware_threads\": {hardware},\n  \
         \"default_chunk\": {DEFAULT_CHUNK},\n  \
         \"min_scenario\": [\n{}\n  ],\n  \
         \"min_scenario_chunk_sweep\": [\n{}\n  ],\n  \
         \"boundedness\": [\n{}\n  ],\n  \
         \"boundedness_chunk_sweep\": [\n{}\n  ],\n  \
         \"min_scenario_seq_ms\": {:.3},\n  \
         \"min_scenario_speedup_4t\": {:.2},\n  \
         \"min_scenario_speedup_4t_q1\": {:.2},\n  \
         \"min_scenario_speedup_4t_q3\": {:.2},\n  \
         \"boundedness_speedup_4t\": {:.2},\n  \
         \"boundedness_speedup_4t_q1\": {:.2},\n  \
         \"boundedness_speedup_4t_q3\": {:.2}\n}}\n",
        row(&min_times),
        chunk_row(&min_chunk_times),
        row(&bound_times),
        chunk_row(&bound_chunk_times),
        min_times[0] * 1e3,
        min_speedup_4t,
        min_q1,
        min_q3,
        bound_speedup_4t,
        bound_q1,
        bound_q3,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_par_analysis.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("E17_par_analysis: cannot write {path}: {e}");
    }
}
