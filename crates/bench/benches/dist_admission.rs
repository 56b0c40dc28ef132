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
use std::time::Instant;

use criterion::black_box;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cwf_engine::chaos::default_spec;
use cwf_engine::transport::Transport;
use cwf_engine::{
    candidates, complete, Event, MemBackend, PerfectTransport, Run, ShardPlane, ShardPlaneConfig,
    SyncPolicy, Wal, WalOptions,
};
use cwf_lang::WorkflowSpec;

const STEPS: usize = 200;
const WARMUP: usize = 1;
const ITERS: usize = 8;

fn opts() -> WalOptions {
    WalOptions {
        sync: SyncPolicy::Always,
        snapshot_every: Some(64),
    }
}

/// One seeded workload, replayable on any deployment: accepted events only.
fn build_events(spec: &Arc<WorkflowSpec>) -> Vec<Event> {
    let mut run = Run::new(Arc::clone(spec));
    let mut rng = StdRng::seed_from_u64(19);
    let mut events = Vec::new();
    let mut attempts = 0usize;
    while events.len() < STEPS {
        attempts += 1;
        assert!(attempts < STEPS * 20, "workload generation stalled");
        let cands = candidates(&run);
        let cand = cands[rng.gen_range(0..cands.len())].clone();
        let event = complete(&mut run, &cand);
        if run.push(event.clone()).is_ok() {
            events.push(event);
        }
    }
    events
}

/// Mean seconds per pass at each shard count, with the checksum of the
/// last pass. Passes run round-robin over the shard counts, so host noise
/// lands on every count alike and cancels in the ratios the regression
/// gate compares.
fn time_shard_counts<F: FnMut(usize) -> usize>(
    counts: &[usize],
    mut pass: F,
) -> Vec<(usize, f64, usize)> {
    let mut out: Vec<(usize, f64, usize)> = counts.iter().map(|&n| (n, 0.0, 0)).collect();
    for round in 0..WARMUP + ITERS {
        for (shards, total, checksum) in &mut out {
            let start = Instant::now();
            *checksum = black_box(pass(*shards));
            if round >= WARMUP {
                *total += start.elapsed().as_secs_f64();
            }
        }
    }
    for (_, total, _) in &mut out {
        *total /= ITERS as f64;
    }
    out
}

/// A fresh durable plane over per-shard in-memory streams.
fn durable_plane(spec: &Arc<WorkflowSpec>, shards: usize) -> ShardPlane {
    let wals: Vec<Wal> = (0..shards)
        .map(|_| Wal::create(Box::new(MemBackend::new()), opts()).expect("fresh backend"))
        .collect();
    let transports: Vec<Box<dyn Transport>> = (0..shards)
        .map(|_| Box::new(PerfectTransport::new()) as Box<dyn Transport>)
        .collect();
    ShardPlane::with_parts(
        Arc::clone(spec),
        transports,
        Some(wals),
        ShardPlaneConfig::with_shards(shards),
    )
}

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
    let events = build_events(&spec);

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
