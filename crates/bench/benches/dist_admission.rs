//! E19 — distributed admission: durable submit throughput with per-shard
//! WAL streams, key-local vs cross-shard.
//!
//! Drives one fixed scripted workload (the editorial chaos spec, seeded
//! candidate walk, `STEPS` accepted events) through a durable
//! [`ShardPlane`] at 1, 2, and 4 shards — per-shard in-memory streams,
//! `SyncPolicy::Always` — measuring end-to-end accepted events per second
//! including delivery pumping and the final convergence sweep. The durable
//! shards=1 plane is the single-node master server and the baseline the
//! other shard counts are normalized by. The plane's admission counters split the
//! workload into key-local events (one `e` record on the home stream, no
//! router WAL work) and cross-shard commits (the prepare/commit protocol),
//! and the key-local share is timed separately by filtering the workload
//! to the events that commit locally at 4 shards.
//!
//! Writes `BENCH_dist_admission.json` at the repository root (consumed by
//! EXPERIMENTS.md E19). The acceptance bar is overhead-shaped: the
//! distributed-admission tax of N shards over one.

use std::sync::Arc;

use cwf_bench::plane::{build_events, durable_plane, time_shard_counts, STEPS};
use cwf_engine::chaos::default_spec;
use cwf_engine::Event;
use cwf_lang::WorkflowSpec;

/// Submit everything through a fresh durable `shards`-shard plane and
/// converge.
fn plane_pass(spec: &Arc<WorkflowSpec>, events: &[Event], shards: usize) -> usize {
    let mut plane = durable_plane(spec, shards);
    for e in events {
        plane.submit(e.clone()).expect("accepted events replay");
    }
    assert!(plane.converge(10_000).is_converged());
    plane.union_state().total_tuples()
}

/// Splits the workload by how it admits at `shards` shards: the number of
/// key-local events and cross-shard commits, from the admission counters.
fn admission_split(spec: &Arc<WorkflowSpec>, events: &[Event], shards: usize) -> (u64, u64) {
    let mut plane = durable_plane(spec, shards);
    for e in events {
        plane.submit(e.clone()).expect("accepted events replay");
    }
    let stats = plane.admission_stats();
    (
        stats.local_admitted.iter().sum::<u64>(),
        stats.cross_shard_committed,
    )
}

fn main() {
    let spec = default_spec();
    let events = build_events(&spec, 19);

    let plane_results = time_shard_counts(&[1, 2, 4], |n| plane_pass(&spec, &events, n));
    let (_, one_s, one_sum) = plane_results[0];
    for &(shards, _, sum) in &plane_results {
        assert_eq!(
            sum, one_sum,
            "the durable plane at {shards} shards must land on the shards=1 state"
        );
    }
    let (local, cross) = admission_split(&spec, &events, 4);
    assert_eq!(local + cross, STEPS as u64);

    let eps = |s: f64| STEPS as f64 / s;
    for &(shards, s, _) in &plane_results {
        println!(
            "E19_dist_admission/shards={shards}       ... {:>9.0} events/s ({:.2}x vs shards=1)",
            eps(s),
            one_s / s
        );
    }
    println!(
        "E19_dist_admission/split@4         ... {local} key-local, {cross} cross-shard commits"
    );

    let mut json =
        format!("{{\n  \"experiment\": \"E19_dist_admission\",\n  \"steps\": {STEPS},\n");
    for &(shards, s, _) in &plane_results {
        json.push_str(&format!(
            "  \"plane_{shards}_shards_events_per_sec\": {:.0},\n",
            eps(s)
        ));
    }
    json.push_str(&format!(
        "  \"key_local_events_at_4_shards\": {local},\n  \
         \"cross_shard_commits_at_4_shards\": {cross},\n  \"hardware_threads\": {}\n}}\n",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    ));
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_dist_admission.json"
    );
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("E19_dist_admission: cannot write {path}: {e}");
    }
}
