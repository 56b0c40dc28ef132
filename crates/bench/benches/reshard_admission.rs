//! E20 — elastic resharding: admission throughput during an active
//! migration vs an idle map.
//!
//! Drives one fixed scripted workload (the editorial chaos spec, seeded
//! candidate walk, `STEPS` accepted events) through a durable 4-shard
//! [`ShardPlane`] twice. The *idle* pass submits everything against a
//! quiescent shard map. The *migrating* pass loads the first half, begins
//! a live split of shard 0 (freezing a real snapshot), then submits the
//! second half while stepping the snapshot copy one fact per admission,
//! and pays for the cutover and convergence at the end — so every
//! second-half admission happens with a migration in flight and the
//! measured time includes the whole protocol: plan record, copy, oplog
//! tail replay, fenced cutover.
//!
//! Writes `BENCH_reshard_admission.json` at the repository root (consumed
//! by EXPERIMENTS.md E20 and `bench_check`, which watches the
//! migrating/idle ratio). The acceptance bar: admission stays *live* —
//! the migrating pass lands on the identical state and its throughput is
//! the same order of magnitude as idle, not a stop-the-world outage.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use cwf_bench::plane::{build_events, durable_plane, opts, ITERS, STEPS, WARMUP};
use cwf_engine::chaos::default_spec;
use cwf_engine::{Event, MemBackend, PerfectTransport, ShardId, Wal};
use cwf_lang::WorkflowSpec;

/// Mean seconds per pass of `idle` and of `migrating`, with the checksum
/// of each one's last pass. The two alternate, one pass each per round,
/// so host noise lands on both alike and cancels in the ratio the
/// regression gate compares.
fn time_alternating<I: FnMut() -> usize, M: FnMut() -> usize>(
    mut idle: I,
    mut migrating: M,
) -> ((f64, usize), (f64, usize)) {
    let (mut idle_s, mut idle_sum) = (0.0, 0);
    let (mut mig_s, mut mig_sum) = (0.0, 0);
    for round in 0..WARMUP + ITERS {
        let start = Instant::now();
        idle_sum = black_box(idle());
        let mid = Instant::now();
        mig_sum = black_box(migrating());
        if round >= WARMUP {
            idle_s += (mid - start).as_secs_f64();
            mig_s += mid.elapsed().as_secs_f64();
        }
    }
    let n = ITERS as f64;
    ((idle_s / n, idle_sum), (mig_s / n, mig_sum))
}

/// Submit everything against a quiescent 4-shard map and converge.
fn idle_pass(spec: &Arc<WorkflowSpec>, events: &[Event]) -> usize {
    let mut plane = durable_plane(spec, 4);
    for e in events {
        plane.submit(e.clone()).expect("accepted events replay");
    }
    assert!(plane.converge(10_000).is_converged());
    plane.union_state().total_tuples()
}

/// Load the first half, split shard 0 live, submit the second half with
/// the migration in flight (one copy step per admission), cut over, and
/// converge. Returns the same checksum as the idle pass.
fn migrating_pass(spec: &Arc<WorkflowSpec>, events: &[Event]) -> (usize, u64) {
    let mut plane = durable_plane(spec, 4);
    let half = events.len() / 2;
    for e in &events[..half] {
        plane.submit(e.clone()).expect("accepted events replay");
    }
    let wal = Wal::create(Box::new(MemBackend::new()), opts()).expect("fresh backend");
    assert!(
        plane
            .begin_split(ShardId(0), Box::new(PerfectTransport::new()), Some(wal))
            .expect("healthy plane"),
        "the split must be plannable"
    );
    for e in &events[half..] {
        plane.step_reshard(1);
        plane.submit(e.clone()).expect("admission during migration");
    }
    assert!(plane.finish_reshard().expect("healthy plane"));
    assert!(plane.converge(10_000).is_converged());
    let migrated = plane.plane_stats().keys_migrated;
    (plane.union_state().total_tuples(), migrated)
}

fn main() {
    let spec = default_spec();
    let events = build_events(&spec, 20);

    let mut migrated = 0u64;
    let ((idle_s, idle_sum), (mig_s, mig_sum)) = time_alternating(
        || idle_pass(&spec, &events),
        || {
            let (sum, m) = migrating_pass(&spec, &events);
            migrated = m;
            sum
        },
    );
    assert_eq!(
        mig_sum, idle_sum,
        "the migrating pass must land on the identical state"
    );
    assert!(migrated > 0, "the split must move a real snapshot");

    let eps = |s: f64| STEPS as f64 / s;
    println!(
        "E20_reshard_admission/idle@4       ... {:>9.0} events/s",
        eps(idle_s)
    );
    println!(
        "E20_reshard_admission/migrating@4  ... {:>9.0} events/s ({:.2}x vs idle, {migrated} keys migrated)",
        eps(mig_s),
        idle_s / mig_s
    );

    let json = format!(
        "{{\n  \"experiment\": \"E20_reshard_admission\",\n  \"steps\": {STEPS},\n  \
         \"idle_4_shards_events_per_sec\": {:.0},\n  \
         \"migrating_4_shards_events_per_sec\": {:.0},\n  \
         \"keys_migrated\": {migrated},\n  \"hardware_threads\": {}\n}}\n",
        eps(idle_s),
        eps(mig_s),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_reshard_admission.json"
    );
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("E20_reshard_admission: cannot write {path}: {e}");
    }
}
