//! E23 — diff-backed run history: the peak memory of a long run.
//!
//! Builds the run of perfbench's `live-explain` workload: the seed-1
//! procurement stream (60 completed cycles, 3 stalled requests each),
//! pushed into a provenance-enabled [`Run`]. A run keeps its current
//! instance and every event's diff; a past instance is rebuilt on first
//! read, and building the run reads none. The bench then reads this
//! process's peak resident set (`VmHWM`) — the run's live heap plus the
//! process floor, with no counting allocator (every crate forbids
//! `unsafe`).
//!
//! A second reading, taken after one scan over every past instance, shows
//! what a history reader pays: the scan fills the cache, after which the
//! run holds every instance again. Only the first reading is gated.
//!
//! The numbers land in `BENCH_run_history.json` at the repository root
//! (consumed by EXPERIMENTS.md E23 and gated by `bench_check`: the peak may
//! exceed its baseline by at most 25%). Linux only, like perfbench's
//! `peak_rss_mb`.

use rand::rngs::StdRng;
use rand::SeedableRng;

use cwf_engine::Run;
use cwf_workloads::build_procurement_run;

/// Completed purchase cycles in the stream (as in `live-explain`).
const REQUESTS: usize = 60;
/// Stalled requests per cycle (as in `live-explain`).
const STALLED: usize = 3;

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("E23_run_history reads /proc/self/status (Linux only)");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .expect("/proc/self/status reports VmHWM")
}

fn main() {
    let (spec, events) = {
        let built = build_procurement_run(REQUESTS, STALLED, &mut StdRng::seed_from_u64(1));
        (built.run.spec_arc(), built.run.events().to_vec())
    };
    let mut run = Run::new(spec);
    run.enable_provenance();
    for event in &events {
        run.push(event.clone()).expect("the stream's events apply");
    }
    let peak = peak_rss_mb();
    let tuples = run.current().total_tuples();

    // Every past instance, read once in order, as the explanation index
    // and the run view do.
    let history_tuples: usize = (0..run.len()).map(|i| run.instance(i).total_tuples()).sum();
    let scanned = peak_rss_mb();

    println!(
        "E23_run_history: {} events, {} tuples in the current instance, \
         {} over the history; peak RSS {:.1} MB built, {:.1} MB after a full \
         history scan",
        run.len(),
        tuples,
        history_tuples,
        peak,
        scanned
    );
    let json = format!(
        "{{\n  \"experiment\": \"E23_run_history\",\n  \"events\": {},\n  \
         \"tuples\": {},\n  \"history_tuples\": {},\n  \"peak_rss_mb\": {:.2},\n  \
         \"peak_rss_after_scan_mb\": {:.2}\n}}\n",
        run.len(),
        tuples,
        history_tuples,
        peak,
        scanned
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_run_history.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("E23_run_history: cannot write {path}: {e}");
    }
}
