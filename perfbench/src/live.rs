//! `live-explain`: a procurement stream whose stalled requests accumulate,
//! driven through a bare provenance-enabled [`Run`]. Each operation lists
//! the acting peer's enabled actions, pushes the next event, and explains
//! one fact the push made visible.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cwf_engine::{candidates, Candidate, Event, Run};
use cwf_lang::{VarId, WorkflowSpec};
use cwf_workloads::build_procurement_run;

use crate::probes;
use crate::report::{Blocks, Metric, Report, Samples};
use crate::{latency, timed_setup, trace, Ctx};

/// Completed purchase cycles in the stream.
const REQUESTS: usize = 60;
/// Stalled requests (submitted and approved, never ordered) per cycle.
const STALLED: usize = 3;
/// A block of the end-to-end samples is the whole passes that reach this
/// many operations, so its p99 has at least ten samples above it.
const BLOCK_OPS: usize = 1_000;

fn build_stream(seed: u64) -> (Arc<WorkflowSpec>, Vec<Event>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let built = build_procurement_run(REQUESTS, STALLED, &mut rng);
    (built.run.spec_arc(), built.run.events().to_vec())
}

/// Is `event` the completion of one of the listed candidates?
fn listed(cands: &[Candidate], event: &Event) -> bool {
    cands.iter().any(|c| {
        c.rule == event.rule
            && (0..c.bindings.len()).all(|i| {
                let v = VarId(i as u32);
                c.bindings
                    .get(v)
                    .is_none_or(|b| event.valuation.get(v) == Some(b))
            })
    })
}

#[derive(Default)]
struct LayerSums {
    events: u64,
    candidates_listed: u64,
    transition_ns: u64,
    view_ns: u64,
    /// Push time with provenance on and off, same events, traced passes.
    push_on_ns: u64,
    push_off_ns: u64,
    support_events: u64,
    /// Push time by quarter of the stream position.
    push_quarter: [Samples; 4],
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let (setup, (spec, events)) = timed_setup(|| build_stream(ctx.seed));
    let n = events.len();
    report.fact(
        "stream",
        format!(
            "procurement, {REQUESTS} completed cycles with {STALLED} stalled requests each: \
             {n} events per pass"
        ),
    );
    report.fact("run", "bare Run, provenance on, no WAL, no shards");

    let mut admit_us = Blocks::default();
    let mut explain_us = Blocks::default();
    let mut op_us = Blocks::default();
    let mut traced_op_us = Samples::default();
    let mut sums = LayerSums::default();
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x5eed_fac7);
    let mut op = 0u64;
    let mut pass = 0usize;
    let start = Instant::now();
    while pass == 0 || !ctx.done(start) {
        let traced = ctx.traced_pass(pass);
        let mut run = Run::new(Arc::clone(&spec));
        run.enable_provenance();
        let mut plain = traced.then(|| Run::new(Arc::clone(&spec)));
        trace::set_enabled(traced);
        for (i, event) in events.iter().enumerate() {
            op += 1;
            trace::set_op(op);
            report.attempted += 1;
            let ev = event.clone();
            let t0 = Instant::now();
            let cands = trace::span("eval.candidates", || candidates(&run));
            let t1 = Instant::now();
            let pushed = trace::span("run.push", || run.push(ev).is_ok());
            let t2 = Instant::now();
            if !pushed {
                report.fail(true, "the run rejected a stream event");
                continue;
            }
            // One fact the push made visible, at a seeded peer.
            let deltas = run.last_deltas();
            let pick = rng.gen_range(0..deltas.len().max(1));
            let fact = deltas
                .iter()
                .cycle()
                .skip(pick)
                .take(deltas.len())
                .find_map(|(p, d)| d.upserts.first().map(|(rel, t)| (*p, *rel, *t.key())));
            let Some((peer, rel, key)) = fact else {
                report.fail(true, "the push made no fact visible");
                continue;
            };
            let t3 = Instant::now();
            let (nonzero, support) = trace::span("prov.explain", || {
                let nonzero = run.explain_fact(peer, rel, &key).map(|p| !p.is_zero());
                (nonzero, run.fact_support(peer, rel, &key))
            });
            let t4 = Instant::now();

            let admit = (t2 - t0).as_secs_f64() * 1e6;
            let explain = (t4 - t3).as_secs_f64() * 1e6;
            if traced {
                traced_op_us.push(admit + explain);
                let push_ns = (t2 - t1).as_nanos() as u64;
                sums.events += 1;
                sums.candidates_listed += cands.len() as u64;
                sums.push_on_ns += push_ns;
                sums.push_quarter[i * 4 / n].push(push_ns as f64 / 1e3);
                sums.support_events += support.as_ref().map_or(0, |s| s.len() as u64);
                let (transition_ns, view_ns) = probes::transition_and_views(&spec, &run, event);
                sums.transition_ns += transition_ns;
                sums.view_ns += view_ns;
                let plain = plain.as_mut().expect("traced passes keep a plain run");
                let ev = event.clone();
                let (ns, pushed) = trace::timed("probe.push_noprov", || plain.push(ev));
                sums.push_off_ns += ns;
                assert!(pushed.is_ok(), "the stream's events apply");
            } else {
                admit_us.push(admit);
                explain_us.push(explain);
                op_us.push(admit + explain);
            }

            // Gates: the event was among the acting peer's listed actions,
            // and the fact's polynomial is non-zero with its writer inside.
            let own: Vec<Candidate> = cands
                .into_iter()
                .filter(|c| spec.program().rule(c.rule).peer == event.peer)
                .collect();
            if !listed(&own, event) {
                report.fail(
                    true,
                    "a submitted event was not among the listed candidates",
                );
            }
            let writer = run.len() - 1;
            if nonzero != Some(true) || !support.is_some_and(|s| s.contains(&writer)) {
                report.fail(true, "an explained fact lacks its writer");
            }
        }
        trace::set_enabled(false);
        pass += 1;
        if op_us.open_len() >= BLOCK_OPS {
            for s in [&mut admit_us, &mut explain_us, &mut op_us] {
                s.close();
            }
        }
    }

    report.fact("passes", pass);
    for s in [&mut admit_us, &mut explain_us, &mut op_us] {
        s.finish();
    }
    let mut out = vec![setup];
    out.push(Metric::new(
        "admit_per_s",
        op_us.rate_per_s(1.0),
        "1/s",
        "events admitted (and explained) per second of operation time, upper decile over blocks",
        op_us.len(),
    ));
    out.extend(latency("admit", "us", &admit_us, "candidates + push"));
    out.extend(latency(
        "explain_fact",
        "us",
        &explain_us,
        "explain_fact + fact_support",
    ));
    out.extend(latency(
        "op",
        "us",
        &op_us,
        "candidates + push + explanation",
    ));
    report.end_to_end = out;
    report.aliases = vec![("ops_per_s", "admit_per_s")];
    if ctx.trace {
        report.layers = layers(&sums, &traced_op_us, &op_us);
    }
    report
}

fn layers(sums: &LayerSums, traced_op_us: &Samples, op_us: &Blocks) -> Vec<Metric> {
    let totals = trace::totals(&trace::spans());
    let n = sums.events.max(1) as f64;
    let events = sums.events as usize;
    let op_mean = traced_op_us.mean();
    let share = |us: f64| format!("per event, {:.1}% of the operation", 100.0 * us / op_mean);
    let get = |name| totals.get(name).copied().unwrap_or_default();
    let cands_us = get("eval.candidates").mean_us();
    let push_us = get("run.push").mean_us();
    let explain_us = get("prov.explain").mean_us();
    let transition_us = sums.transition_ns as f64 / n / 1e3;
    let view_us = sums.view_ns as f64 / n / 1e3;
    let step_us = (sums.push_on_ns as f64 - sums.push_off_ns as f64) / n / 1e3;
    let q1 = sums.push_quarter[0].mean();
    let q4 = sums.push_quarter[3].mean();
    vec![
        Metric::new(
            "eval.candidates_us",
            cands_us,
            "us",
            share(cands_us),
            events,
        ),
        Metric::new(
            "eval.candidates_per_call",
            sums.candidates_listed as f64 / n,
            "count",
            "candidates listed per call (all peers)",
            events,
        ),
        Metric::new(
            "transition.apply_us",
            transition_us,
            "us",
            share(transition_us),
            events,
        ),
        Metric::new("view_plane.delta_us", view_us, "us", share(view_us), events),
        Metric::new("run.push_us", push_us, "us", share(push_us), events),
        Metric::new(
            "run.push_growth",
            q4 / q1,
            "ratio",
            format!("last-quarter mean {q4:.1} us over first-quarter mean {q1:.1} us"),
            events,
        ),
        Metric::new(
            "prov.step_us",
            step_us,
            "us",
            share(step_us) + "; push with provenance minus without",
            events,
        ),
        Metric::new(
            "prov.explain_us",
            explain_us,
            "us",
            share(explain_us),
            events,
        ),
        Metric::new(
            "prov.support_events",
            sums.support_events as f64 / n,
            "count",
            "support size per explained fact",
            events,
        ),
        Metric::new(
            "trace.overhead_frac",
            traced_op_us.median() / op_us.pooled().median(),
            "ratio",
            "traced over untraced operation p50",
            traced_op_us.len(),
        ),
    ]
}
