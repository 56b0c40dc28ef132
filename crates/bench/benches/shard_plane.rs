//! E18 — sharded state plane: submit throughput at 1, 2, and 4 shards and
//! hand-off latency.
//!
//! Drives one fixed scripted workload (the editorial chaos spec, seeded
//! candidate walk, `STEPS` accepted events) through [`ShardPlane`] at 1, 2,
//! and 4 shards — all on perfect transports, no WAL — measuring end-to-end
//! accepted events per second including delivery pumping and the final
//! convergence sweep. The shards=1 plane is the single-node master server
//! and the baseline the other shard counts are normalized by.
//! Then it measures hand-off latency: `begin` + `finish` cut-over on the
//! busiest shard, both immediately (snapshot only) and after the oplog
//! tail has grown mid-transfer (snapshot + tail replay + peer resync).
//!
//! Writes `BENCH_shard_plane.json` at the repository root (consumed by
//! EXPERIMENTS.md E18). Shards on a single-core host cannot *run*
//! concurrently — the plane's win here is isolation and blast-radius, not
//! parallel speedup — so the acceptance bar is overhead-shaped: the
//! sharding tax of N shards over one, not a throughput multiple.

use std::sync::Arc;
use std::time::Instant;

use cwf_bench::plane::{build_events, time_shard_counts, ITERS, STEPS};
use cwf_engine::chaos::default_spec;
use cwf_engine::{Event, PerfectTransport, ShardPlane};
use cwf_lang::WorkflowSpec;

/// Submit everything through a fresh `shards`-shard plane and converge.
fn plane_pass(spec: &Arc<WorkflowSpec>, events: &[Event], shards: usize) -> usize {
    let mut plane = ShardPlane::new(Arc::clone(spec), shards);
    for e in events {
        plane.submit(e.clone()).expect("accepted events replay");
    }
    assert!(plane.converge(10_000).is_converged());
    plane.union_state().total_tuples()
}

/// Mean hand-off latency in seconds: `split` events land before `begin`,
/// the rest grow the oplog tail mid-transfer (untimed), and the timed
/// sections are `begin_handoff` (snapshot) plus `finish_handoff` (tail
/// replay, cut-over, peer resync) on shard 0 of a 4-shard plane.
fn handoff_latency(spec: &Arc<WorkflowSpec>, events: &[Event], split: usize) -> (f64, u64) {
    let mut total = 0.0;
    let mut tail = 0;
    for _ in 0..ITERS {
        let mut plane = ShardPlane::new(Arc::clone(spec), 4);
        for e in &events[..split] {
            plane.submit(e.clone()).expect("accepted events replay");
        }
        let head = plane.oplog(cwf_engine::ShardId(0)).last_seq();
        let begin = Instant::now();
        assert!(plane.begin_handoff(cwf_engine::ShardId(0)));
        total += begin.elapsed().as_secs_f64();
        for e in &events[split..] {
            plane.submit(e.clone()).expect("accepted events replay");
        }
        tail = plane.oplog(cwf_engine::ShardId(0)).last_seq() - head;
        let finish = Instant::now();
        assert!(plane.finish_handoff(Box::new(PerfectTransport::new())));
        total += finish.elapsed().as_secs_f64();
        assert!(plane.converge(10_000).is_converged());
    }
    (total / ITERS as f64, tail)
}

fn main() {
    let spec = default_spec();
    let events = build_events(&spec, 18);

    let plane_results = time_shard_counts(&[1, 2, 4], |n| plane_pass(&spec, &events, n));
    let (_, one_s, one_sum) = plane_results[0];
    for &(shards, _, sum) in &plane_results {
        assert_eq!(
            sum, one_sum,
            "the plane at {shards} shards must land on the shards=1 state"
        );
    }

    // Hand-off immediately after the snapshot (empty tail) and with the
    // whole second half of the workload replayed as tail records.
    let (ho_empty_s, ho_empty_tail) =
        handoff_latency(&spec, &events[..events.len() / 2], STEPS / 2);
    assert_eq!(ho_empty_tail, 0, "an immediate hand-off has no tail");
    let (ho_tail_s, ho_tail_records) = handoff_latency(&spec, &events, STEPS / 2);

    let eps = |s: f64| STEPS as f64 / s;
    for &(shards, s, _) in &plane_results {
        println!(
            "E18_shard_plane/shards={shards}    ... {:>9.0} events/s ({:.2}x vs shards=1)",
            eps(s),
            one_s / s
        );
    }
    println!(
        "E18_shard_plane/handoff     ... {:>9.1} us empty tail, {:.1} us with {} tail records",
        ho_empty_s * 1e6,
        ho_tail_s * 1e6,
        ho_tail_records
    );

    let mut json = format!("{{\n  \"experiment\": \"E18_shard_plane\",\n  \"steps\": {STEPS},\n");
    for &(shards, s, _) in &plane_results {
        json.push_str(&format!(
            "  \"plane_{shards}_shards_events_per_sec\": {:.0},\n",
            eps(s)
        ));
    }
    json.push_str(&format!(
        "  \"handoff_empty_tail_us\": {:.1},\n  \"handoff_with_tail_us\": {:.1},\n  \
         \"handoff_tail_records\": {ho_tail_records},\n  \"hardware_threads\": {}\n}}\n",
        ho_empty_s * 1e6,
        ho_tail_s * 1e6,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    ));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shard_plane.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("E18_shard_plane: cannot write {path}: {e}");
    }
}
