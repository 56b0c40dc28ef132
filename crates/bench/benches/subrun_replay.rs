//! E24 — subrun replays resume from the run's recorded history.
//!
//! Builds the corpus of perfbench's `explain-batch` workload (the same
//! builders, shapes and generator seed) and, for every (run, peer) pair,
//! the index set of its minimal faithful scenario — the subrun
//! `cwf_core::subrun` replays (Lemma 4.6). Each set is then replayed two
//! ways:
//!
//! * **replay** — [`Run::replay`] of the indexed events from the initial
//!   instance, every event through the transition;
//! * **subrun** — [`Run::try_subrun`], which resumes from the run's
//!   recorded prefix (the longest leading stretch `0..k` of the set) and
//!   pushes only the rest.
//!
//! Every history cell is filled first, so both ways start from a warm
//! cache (the faithful query itself reads no past instance). Passes run
//! round-robin over the two ways, so host
//! noise lands on both alike and cancels in their ratio, `subrun_speedup`
//! (replay time over subrun time). Both ways must return equal runs.
//!
//! The numbers land in `BENCH_subrun_replay.json` at the repository root
//! (consumed by EXPERIMENTS.md E24 and gated by `bench_check`: the
//! speedup may fall at most 25% below its baseline).

use std::time::Instant;

use criterion::black_box;

use cwf_bench::explain_batch_corpus;
use cwf_core::facts;
use cwf_engine::Run;

const WARMUP: usize = 2;
const ITERS: usize = 40;

/// The `explain-batch` corpus with every history cell filled.
fn corpus() -> Vec<Run> {
    let mut runs = explain_batch_corpus();
    for run in &mut runs {
        run.enable_provenance();
        for i in 0..run.len() {
            run.instance(i);
        }
    }
    runs
}

/// Replays every faithful index set one way; returns the total length of
/// the replayed subruns as a checksum.
fn pass(requests: &[(&Run, Vec<usize>)], resume: bool) -> usize {
    requests
        .iter()
        .map(|(run, idx)| {
            let sub = if resume {
                run.try_subrun(idx)
            } else {
                Run::replay(
                    run.spec_arc(),
                    run.initial().clone(),
                    idx.iter().map(|&i| run.event(i).clone()),
                )
            };
            black_box(sub.expect("Lemma 4.6: the faithful set replays")).len()
        })
        .sum()
}

fn main() {
    let runs = corpus();
    let requests: Vec<(&Run, Vec<usize>)> = runs
        .iter()
        .flat_map(|run| {
            run.spec()
                .collab()
                .peer_ids()
                .map(move |p| (run, facts(run).faithful(p).to_vec()))
        })
        .collect();
    let whole = requests
        .iter()
        .filter(|(r, idx)| idx.len() == r.len())
        .count();
    for (run, idx) in &requests {
        let (a, b) = (
            run.try_subrun(idx).expect("replays"),
            Run::replay(
                run.spec_arc(),
                run.initial().clone(),
                idx.iter().map(|&i| run.event(i).clone()),
            )
            .expect("replays"),
        );
        assert!(
            a.events() == b.events()
                && a.current() == b.current()
                && a.last_deltas() == b.last_deltas(),
            "try_subrun and Run::replay disagree"
        );
    }

    let mut totals = [0.0f64; 2];
    let mut sums = [0usize; 2];
    for round in 0..WARMUP + ITERS {
        for (way, resume) in [false, true].into_iter().enumerate() {
            let start = Instant::now();
            sums[way] = pass(&requests, resume);
            if round >= WARMUP {
                totals[way] += start.elapsed().as_secs_f64();
            }
        }
    }
    assert_eq!(sums[0], sums[1], "both ways replay the same events");
    let per_request_us = |t: f64| t / ITERS as f64 / requests.len() as f64 * 1e6;
    let (replay_us, subrun_us) = (per_request_us(totals[0]), per_request_us(totals[1]));
    let speedup = totals[0] / totals[1];

    println!(
        "E24_subrun_replay: {} (run, peer) pairs, {} whose faithful set is the whole run; \
         Run::replay {:.1} µs, try_subrun {:.1} µs per set; speedup {:.2}x",
        requests.len(),
        whole,
        replay_us,
        subrun_us,
        speedup
    );
    let json = format!(
        "{{\n  \"experiment\": \"E24_subrun_replay\",\n  \"pairs\": {},\n  \
         \"whole_run_pairs\": {},\n  \"replay_us\": {:.1},\n  \"subrun_us\": {:.1},\n  \
         \"subrun_speedup\": {:.2}\n}}\n",
        requests.len(),
        whole,
        replay_us,
        subrun_us,
        speedup
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_subrun_replay.json"
    );
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("E24_subrun_replay: cannot write {path}: {e}");
    }
}
