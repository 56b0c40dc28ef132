//! Durability: recovery cost of the single-node master server (a shards=1
//! `ShardPlane`), full replay vs snapshot + tail.
//!
//! Replaying the whole journal is linear in the run length; periodic
//! instance snapshots cap the replayed tail at `snapshot_every` events, so
//! recovery time stays flat as the log grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::sync::Arc;

use cwf_engine::{
    Bindings, Event, MemBackend, PerfectTransport, ShardPlane, ShardPlaneConfig, SyncPolicy, Wal,
    WalOptions,
};
use cwf_lang::{parse_workflow, VarId, WorkflowSpec};

fn spec() -> Arc<WorkflowSpec> {
    Arc::new(
        parse_workflow(
            r#"
            schema { Doc(K); }
            peers { author sees Doc(*); editor sees Doc(*); }
            rules { draft @ author: +Doc(d) :- ; }
            "#,
        )
        .unwrap(),
    )
}

/// Journals `n` accepted events and returns the raw log bytes.
fn journal(spec: &Arc<WorkflowSpec>, n: usize, opts: WalOptions) -> Vec<u8> {
    let backend = MemBackend::new();
    let wal = Wal::create(Box::new(backend.clone()), opts).unwrap();
    let mut c = ShardPlane::with_parts(
        Arc::clone(spec),
        vec![Box::new(PerfectTransport::new())],
        Some(vec![wal]),
        ShardPlaneConfig::with_shards(1),
    );
    let draft = spec.program().rule_by_name("draft").unwrap();
    for _ in 0..n {
        let d = c.draw_fresh();
        let mut b = Bindings::empty(1);
        b.set(VarId(0), d);
        c.submit(Event::new(spec, draft, b).unwrap()).unwrap();
    }
    backend.bytes()
}

fn bench_recovery(c: &mut Criterion) {
    let spec = spec();
    let mut group = c.benchmark_group("plane_recovery");
    group.sample_size(10);
    for n in [1_000usize, 10_000] {
        group.throughput(Throughput::Elements(n as u64));
        for (label, snapshot_every) in [("full_replay", None), ("snapshot_tail", Some(256))] {
            let opts = WalOptions {
                sync: SyncPolicy::Never,
                snapshot_every,
            };
            let bytes = journal(&spec, n, opts);
            group.bench_with_input(BenchmarkId::new(label, n), &bytes, |b, bytes| {
                b.iter(|| {
                    let (_, report) = ShardPlane::recover(
                        Arc::clone(&spec),
                        vec![Box::new(MemBackend::from_bytes(bytes.clone()))],
                        opts,
                        vec![Box::new(PerfectTransport::new())],
                        ShardPlaneConfig::with_shards(1),
                    )
                    .unwrap();
                    assert_eq!(report.last_seq as usize, n);
                    report.events_replayed
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_recovery);
criterion_main!(benches);
