//! E4 — incremental maintenance (end of Section 4): stepping the minimal
//! faithful set on every push beats recomputing it from scratch after
//! every event, with a gap that widens with the run length.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use cwf_core::{facts, tp_closure, EventSet, RunIndex};
use cwf_engine::Run;
use cwf_workloads::build_procurement_run;

fn bench_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("E4_incremental");
    group.sample_size(10);
    for requests in [5usize, 10, 20] {
        let mut rng = StdRng::seed_from_u64(11);
        let p = build_procurement_run(requests, 1, &mut rng);
        group.bench_with_input(
            BenchmarkId::new("incremental", p.run.len()),
            &requests,
            |b, _| {
                b.iter(|| {
                    // The slot is filled before the first push, so every
                    // push steps the faithful set.
                    let mut run = Run::new(p.run.spec_arc());
                    let mut last = facts(&run).faithful(p.emp).len();
                    for i in 0..p.run.len() {
                        run.push(p.run.event(i).clone()).unwrap();
                        last = facts(&run).faithful(p.emp).len();
                    }
                    last
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("recompute_each_event", p.run.len()),
            &requests,
            |b, _| {
                b.iter(|| {
                    // From scratch after every event: a fresh index and
                    // closure, beside the run's (unfilled) facts slot.
                    let mut run = Run::new(p.run.spec_arc());
                    let mut last = 0;
                    for i in 0..p.run.len() {
                        run.push(p.run.event(i).clone()).unwrap();
                        let visible = EventSet::from_iter(run.len(), run.visible_events(p.emp));
                        last = tp_closure(&run, &RunIndex::build(&run), p.emp, &visible).len();
                    }
                    last
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_incremental);
criterion_main!(benches);
