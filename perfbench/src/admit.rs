//! `admit-durable`: seeded editorial events submitted one at a time to a
//! durable 4-shard plane with one WAL stream per shard, then converge, audit,
//! and restart from the synced bytes of the streams alone.
//!
//! The streams are in-memory [`MemBackend`]s, so `sync` marks bytes durable
//! without a device flush. On a shared virtual disk the fsync latency of
//! file-backed streams drifted by 2x within minutes of sustained load, which
//! no run length averages out; the in-memory streams keep every WAL, codec,
//! commit-protocol and recovery step and leave out only the device.

use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cwf_engine::chaos::default_spec;
use cwf_engine::transport::Transport;
use cwf_engine::{
    candidates, complete, encode_event, Event, MemBackend, PerfectTransport, Run, ShardPlane,
    ShardPlaneConfig, SyncPolicy, Wal, WalBackend, WalOptions,
};
use cwf_lang::WorkflowSpec;

use crate::probes::{self, CountingTransport, NetCounts, TracedBackend};
use crate::report::{Blocks, Metric, Report, Samples};
use crate::{latency, timed_setup, trace, Ctx};

/// Events in a stream; every pass submits all of one stream to a fresh plane.
/// Short walks keep the state, and with it the instance copy in every
/// transition, small: with 2,000-event walks that copy was 92% of a submit,
/// and the submit tail followed the memory contention of the rest of the
/// host (`admit_p99_us` ranged over 19% of its mean in six 8 s runs, against
/// 7% for 500-event walks in runs alternated with them).
const EVENTS: usize = 500;
/// Streams per seed, walked in turn; a block of the end-to-end samples is one
/// pass over each (8,000 submits). How large the state grows depends on the
/// walk, so one stream alone makes the metrics move with the seed.
const STREAMS: usize = 16;
const SHARDS: usize = 4;
/// Snapshot cadence, in admitted events.
const SNAPSHOT_EVERY: u64 = 64;
/// Delivery rounds `converge` may take.
const CONVERGE_TICKS: u64 = 10_000;

fn wal_options() -> WalOptions {
    WalOptions {
        sync: SyncPolicy::Always,
        snapshot_every: Some(SNAPSHOT_EVERY),
    }
}

/// The seeded editorial streams: random walks over the enabled candidates.
fn build_streams(seed: u64) -> (Arc<WorkflowSpec>, Vec<Vec<Event>>) {
    let spec = default_spec();
    let streams = (0..STREAMS as u64)
        .map(|i| build_stream(&spec, seed.wrapping_mul(STREAMS as u64).wrapping_add(i)))
        .collect();
    (spec, streams)
}

/// One random walk over the enabled candidates, keeping the events the run
/// accepts.
fn build_stream(spec: &Arc<WorkflowSpec>, seed: u64) -> Vec<Event> {
    let mut run = Run::new(Arc::clone(spec));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut events = Vec::with_capacity(EVENTS);
    let mut attempts = 0usize;
    while events.len() < EVENTS {
        attempts += 1;
        assert!(attempts < EVENTS * 20, "stream generation stalled");
        let cands = candidates(&run);
        let cand = &cands[rng.gen_range(0..cands.len())];
        let event = complete(&mut run, cand);
        if run.push(event.clone()).is_ok() {
            events.push(event);
        }
    }
    events
}

/// One pass's wrappers: plain streams and transports when untraced, timing
/// and counting ones when traced.
struct Wiring {
    traced: bool,
    net: Rc<NetCounts>,
}

impl Wiring {
    fn backend(&self, stream: &MemBackend) -> Box<dyn WalBackend> {
        if self.traced {
            Box::new(TracedBackend(stream.clone()))
        } else {
            Box::new(stream.clone())
        }
    }

    fn transports(&self) -> Vec<Box<dyn Transport>> {
        (0..SHARDS)
            .map(|_| {
                if self.traced {
                    Box::new(CountingTransport::new(Rc::clone(&self.net))) as Box<dyn Transport>
                } else {
                    Box::new(PerfectTransport::new())
                }
            })
            .collect()
    }
}

/// What the traced passes add up.
#[derive(Default)]
struct LayerSums {
    events: u64,
    transition_ns: u64,
    view_ns: u64,
    codec_ns: u64,
    cross_shard: u64,
    deltas_sent: u64,
    retries: u64,
    messages: u64,
    acks: u64,
}

/// What the untraced passes add up.
#[derive(Default)]
struct EndToEnd {
    /// Submit latencies, one block per pass over every stream, closed with
    /// its converge time.
    admit_us: Blocks,
    converge_s: f64,
    events: u64,
    recover_s: Samples,
    wal_bytes: u64,
}

/// Isolated calls into the layers under one submit, made after it on the
/// same inputs: the transition, the view plane and the codec.
fn probe(sums: &mut LayerSums, spec: &WorkflowSpec, run: &Run, event: &Event) {
    let (transition_ns, view_ns) = probes::transition_and_views(spec, run, event);
    sums.transition_ns += transition_ns;
    sums.view_ns += view_ns;
    let (ns, line) = trace::timed("probe.codec", || encode_event(spec, event));
    sums.codec_ns += ns;
    drop(line);
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let (setup, (spec, inputs)) = timed_setup(|| build_streams(ctx.seed));
    report.fact(
        "streams",
        format!(
            "{STREAMS} chaos::default_spec random walks of {EVENTS} events, one per pass, in turn"
        ),
    );
    report.fact(
        "plane",
        format!(
            "{SHARDS} shards, in-memory MemBackend WAL stream per shard, SyncPolicy::Always, snapshot every \
             {SNAPSHOT_EVERY} events, PerfectTransport, provenance off"
        ),
    );

    let mut e2e = EndToEnd::default();
    let mut traced_us = Samples::default();
    let mut sums = LayerSums::default();
    let mut op = 0u64;
    let mut pass = 0usize;
    let start = Instant::now();
    while pass == 0 || !ctx.done(start) {
        let traced = ctx.traced_pass(pass / STREAMS);
        let events = &inputs[pass % STREAMS];
        let streams: Vec<MemBackend> = (0..SHARDS).map(|_| MemBackend::new()).collect();
        let wiring = Wiring {
            traced,
            net: Rc::default(),
        };
        let wals = streams
            .iter()
            .map(|s| {
                Wal::create(wiring.backend(s), wal_options())
                    .expect("a fresh stream accepts its header")
            })
            .collect();
        let config = ShardPlaneConfig::with_shards(SHARDS);
        let mut plane =
            ShardPlane::with_parts(Arc::clone(&spec), wiring.transports(), Some(wals), config);
        trace::set_enabled(traced);

        for event in events {
            op += 1;
            trace::set_op(op);
            let ev = event.clone();
            let t0 = Instant::now();
            let admitted = trace::span("shard.submit", || plane.submit(ev).is_ok());
            let dt = t0.elapsed().as_secs_f64();
            report.attempted += 1;
            if !admitted {
                report.fail(false, "submit rejected");
                continue;
            }
            if traced {
                traced_us.push(dt * 1e6);
                sums.events += 1;
                probe(&mut sums, &spec, plane.run(), event);
            } else {
                e2e.admit_us.push(dt * 1e6);
            }
        }
        let t0 = Instant::now();
        let converged = trace::span("delivery.converge", || {
            plane.converge(CONVERGE_TICKS).is_converged()
        });
        let converge_s = t0.elapsed().as_secs_f64();
        if !converged || plane.audit().is_err() {
            report.fail(true, "the plane did not converge to an audited state");
        }
        let live = plane.union_state();
        let admitted = plane.run().len() as u64;
        if traced {
            sums.cross_shard += plane.admission_stats().cross_shard_committed;
            sums.deltas_sent += plane.ft_stats().deltas_sent;
            sums.retries += plane.ft_stats().retries;
            sums.messages += wiring.net.sent.get();
            sums.acks += wiring.net.acks.get();
        } else {
            e2e.converge_s += converge_s;
            if pass % STREAMS == STREAMS - 1 {
                e2e.admit_us.close_with(std::mem::take(&mut e2e.converge_s));
            }
            e2e.events += admitted;
            e2e.wal_bytes += streams.iter().map(|s| s.synced_len() as u64).sum::<u64>();
        }
        drop(plane);

        // Restart from what a crash would leave: the synced bytes alone.
        let durable = streams
            .iter()
            .map(|s| wiring.backend(&s.survivor(0)))
            .collect();
        report.attempted += 1;
        let t0 = Instant::now();
        let recovered = trace::span("shard.recover", || {
            ShardPlane::recover(
                Arc::clone(&spec),
                durable,
                wal_options(),
                wiring.transports(),
                config,
            )
        });
        let recover_s = t0.elapsed().as_secs_f64();
        match recovered {
            Ok((plane, _)) if plane.union_state().same_facts(&live) && plane.audit().is_ok() => {
                if !traced {
                    e2e.recover_s.push(recover_s);
                }
            }
            Ok(_) => report.fail(true, "the recovered state differs from the live state"),
            Err(e) => report.fail(true, &format!("recovery failed: {e}")),
        }
        trace::set_enabled(false);
        pass += 1;
    }

    report.fact("passes", pass);
    e2e.admit_us.finish();
    let mut out = vec![setup];
    let events = e2e.events.max(1) as f64;
    out.push(Metric::new(
        "admit_per_s",
        e2e.admit_us.rate_per_s(1.0),
        "1/s",
        "admitted events over submit+converge wall time, upper decile over blocks",
        e2e.events as usize,
    ));
    out.extend(latency("admit", "us", &e2e.admit_us, "per submit"));
    out.push(Metric::new(
        "recover_s",
        e2e.recover_s.median(),
        "s",
        "per restart from the synced bytes of the 4 streams",
        e2e.recover_s.len(),
    ));
    out.push(Metric::new(
        "wal_bytes_per_event",
        e2e.wal_bytes as f64 / events,
        "B",
        "synced WAL bytes per admitted event",
        e2e.events as usize,
    ));
    report.end_to_end = out;
    report.aliases = vec![("ops_per_s", "admit_per_s"), ("op_p50_us", "admit_p50_us")];
    if ctx.trace {
        report.layers = layers(&sums, &traced_us, &e2e.admit_us);
    }
    report
}

fn layers(sums: &LayerSums, traced_us: &Samples, untraced_us: &Blocks) -> Vec<Metric> {
    let spans = trace::spans();
    let totals = trace::totals(&spans);
    let n = sums.events.max(1) as f64;
    let per_event = |ns: u64| ns as f64 / n / 1e3;
    // WAL backend time and record counts under the submit spans only (the
    // header writes of fresh streams and recovery reads are excluded).
    let (mut appends, mut append_ns, mut syncs, mut sync_ns) = (0u64, 0u64, 0u64, 0u64);
    for s in &spans {
        let under_submit = s.parent > 0 && spans[s.parent as usize - 1].name == "shard.submit";
        match s.name {
            "wal.append" if under_submit => {
                appends += 1;
                append_ns += s.ns();
            }
            "wal.sync" if under_submit => {
                syncs += 1;
                sync_ns += s.ns();
            }
            _ => {}
        }
    }
    let submit = totals.get("shard.submit").copied().unwrap_or_default();
    let submit_us = submit.mean_us();
    let transition_us = per_event(sums.transition_ns);
    let view_us = per_event(sums.view_ns);
    let codec_us = per_event(sums.codec_ns);
    let wal_us = per_event(append_ns + sync_ns);
    let self_us = submit_us - transition_us - view_us - codec_us - wal_us;
    let converge = totals.get("delivery.converge").copied().unwrap_or_default();
    let events = sums.events as usize;
    let share = |us: f64| format!("per event, {:.1}% of shard.submit", 100.0 * us / submit_us);
    vec![
        Metric::new(
            "transition.apply_us",
            transition_us,
            "us",
            share(transition_us),
            events,
        ),
        Metric::new("view_plane.delta_us", view_us, "us", share(view_us), events),
        Metric::new("codec.encode_us", codec_us, "us", share(codec_us), events),
        Metric::new(
            "wal.append_us",
            append_ns as f64 / appends.max(1) as f64 / 1e3,
            "us",
            format!(
                "per append, {:.1}% of shard.submit",
                100.0 * per_event(append_ns) / submit_us
            ),
            appends as usize,
        ),
        Metric::new(
            "wal.sync_us",
            sync_ns as f64 / syncs.max(1) as f64 / 1e3,
            "us",
            format!(
                "per sync, {:.1}% of shard.submit",
                100.0 * per_event(sync_ns) / submit_us
            ),
            syncs as usize,
        ),
        Metric::new(
            "wal.syncs_per_event",
            syncs as f64 / n,
            "count",
            "per admitted event",
            events,
        ),
        Metric::new(
            "wal.records_per_event",
            appends as f64 / n,
            "count",
            "appends per admitted event",
            events,
        ),
        Metric::new(
            "shard.submit_us",
            submit_us,
            "us",
            "per event (span mean)",
            events,
        ),
        Metric::new(
            "shard.self_us",
            self_us,
            "us",
            share(self_us) + "; submit minus probes and WAL backend time",
            events,
        ),
        Metric::new(
            "shard.cross_shard_frac",
            sums.cross_shard as f64 / n,
            "frac",
            "cross-shard commits per admitted event",
            events,
        ),
        Metric::new(
            "delivery.converge_us",
            converge.mean_us(),
            "us",
            "per pass-final converge",
            converge.count as usize,
        ),
        Metric::new(
            "delivery.deltas_per_event",
            sums.deltas_sent as f64 / n,
            "count",
            format!(
                "FtStats deltas sent per event ({} transport sends, {} acks)",
                sums.messages, sums.acks
            ),
            events,
        ),
        Metric::new(
            "delivery.retries",
            sums.retries as f64,
            "count",
            "FtStats retries, all traced passes",
            events,
        ),
        Metric::new(
            "trace.overhead_frac",
            traced_us.median() / untraced_us.pooled().median(),
            "ratio",
            "traced over untraced submit p50",
            traced_us.len(),
        ),
    ]
}
