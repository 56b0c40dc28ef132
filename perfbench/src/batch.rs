//! `explain-batch`: a fixed corpus of completed, provenance-enabled runs and
//! a seeded stream of explanation requests over (run, peer) pairs. Each
//! request asks two queries in turn, so the kinds alternate: the minimal
//! faithful scenario (Thm 4.7), then the cone-pruned minimum scenario
//! (Thm 3.3) on an explicit pool under a node budget.

use std::collections::BTreeMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use cwf_core::{
    is_scenario, minimal_faithful_scenario, peer_cone, search_min_scenario_pooled, tp_closure,
    visible_set, EventSet, RunIndex, SearchOptions,
};
use cwf_engine::Run;
use cwf_model::{Governor, PeerId, Pool, Verdict, DEFAULT_CHUNK};
use cwf_workloads::{build_procurement_run, build_review_run, build_triage_run};

use crate::report::{Blocks, Metric, Report, Samples};
use crate::{latency, timed_setup, trace, Ctx};

/// Node budget of one minimum-scenario search; a cut-off is a failure.
const NODE_BUDGET: u64 = 2_000_000;
/// Analysis pool threads: the search runs on the client's own core. With a
/// second worker sharing the host's other core, `request_p99_us` moved by up
/// to 28% between runs on a 2-vCPU virtual machine.
const POOL_THREADS: usize = 1;
/// Requests per traced or untraced block of a trace run.
const TRACE_BLOCK: u64 = 8;
/// A block of the end-to-end samples is the whole rounds that reach this
/// many requests, so its p99 has at least ten samples above it.
const BLOCK_REQUESTS: usize = 1_000;
/// The corpus is fixed: its runs come from this generator seed, whatever
/// `--seed` is, and `--seed` drives the order of the requests.
const CORPUS_SEED: u64 = 0x00c0_4b05;

/// (completed cycles, stalled requests per cycle) of each procurement run.
const PROCUREMENT: &[(usize, usize)] = &[(2, 1), (3, 1), (4, 1), (5, 1)];
/// (tickets, escalated tickets) of each triage run.
const TRIAGE: &[(usize, usize)] = &[(8, 3), (10, 3), (11, 4), (12, 4)];
/// (papers, extra reviews per paper) of each review run.
const REVIEW: &[(usize, usize)] = &[(3, 1), (5, 1), (6, 2), (8, 1)];

fn build_corpus() -> Vec<(String, Run)> {
    let mut rng = StdRng::seed_from_u64(CORPUS_SEED);
    let mut corpus = Vec::new();
    for &(n, stalled) in PROCUREMENT {
        let run = build_procurement_run(n, stalled, &mut rng).run;
        corpus.push((format!("procurement({n},{stalled})"), run));
    }
    for &(n, hot) in TRIAGE {
        let run = build_triage_run(n, hot, &mut rng).run;
        corpus.push((format!("triage({n},{hot})"), run));
    }
    for &(n, extra) in REVIEW {
        let run = build_review_run(n, extra, &mut rng).run;
        corpus.push((format!("review({n},{extra})"), run));
    }
    for (_, run) in &mut corpus {
        run.enable_provenance();
    }
    corpus
}

#[derive(Default)]
struct LayerSums {
    requests: u64,
    faithful_ns: u64,
    min_ns: u64,
    index_ns: u64,
    tp_ns: u64,
    replay_ns: u64,
    cone_ns: u64,
    cone_frac: f64,
    nodes: u64,
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let (setup, corpus) = timed_setup(build_corpus);
    let pool = Pool::with_chunk(POOL_THREADS, DEFAULT_CHUNK);
    let mut pairs: Vec<(usize, PeerId)> = corpus
        .iter()
        .enumerate()
        .flat_map(|(r, (_, run))| run.spec().collab().peer_ids().map(move |p| (r, p)))
        .collect();
    let sizes: Vec<String> = corpus
        .iter()
        .map(|(name, run)| format!("{name}={}", run.len()))
        .collect();
    report.fact(
        "corpus",
        format!("{} runs; events: {}", corpus.len(), sizes.join(" ")),
    );
    report.fact(
        "requests",
        format!("seeded rounds over all {} (run, peer) pairs", pairs.len()),
    );
    report.fact(
        "search",
        format!(
            "cone on, Pool of {POOL_THREADS} thread (chunk {DEFAULT_CHUNK}), \
             {NODE_BUDGET} node budget"
        ),
    );

    let mut faithful_ms = Blocks::default();
    let mut min_ms = Blocks::default();
    let mut request_us = Blocks::default();
    let mut traced_us = Samples::default();
    let mut sums = LayerSums::default();
    let mut cutoffs = 0u64;
    let mut max_nodes = 0u64;
    // Answers already checked, per (run, peer): faithful and minimum.
    let mut verified: BTreeMap<(usize, PeerId), (EventSet, EventSet)> = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x0b5e_55ed);
    let mut requests = 0u64;
    let start = Instant::now();
    while requests == 0 || !ctx.done(start) {
        let traced = ctx.traced_pass((requests / TRACE_BLOCK) as usize);
        requests += 1;
        trace::set_enabled(traced);
        trace::set_op(requests);
        // Seeded rounds: every pair once per round, in a fresh order.
        let slot = (requests - 1) as usize % pairs.len();
        if slot == 0 {
            if request_us.open_len() >= BLOCK_REQUESTS {
                for s in [&mut faithful_ms, &mut min_ms, &mut request_us] {
                    s.close();
                }
            }
            pairs.shuffle(&mut rng);
        }
        let (r, peer) = pairs[slot];
        let run = &corpus[r].1;

        let t0 = Instant::now();
        let faithful = trace::span("core.faithful", || minimal_faithful_scenario(run, peer)).events;
        let t1 = Instant::now();
        let gov = Governor::with_nodes(NODE_BUDGET);
        let verdict = trace::span("core.min_scenario", || {
            search_min_scenario_pooled(run, peer, &SearchOptions::default(), &gov, &pool)
        });
        let t2 = Instant::now();
        let nodes = gov.nodes_used();
        max_nodes = max_nodes.max(nodes);

        let (f_ns, m_ns) = ((t1 - t0).as_nanos() as u64, (t2 - t1).as_nanos() as u64);
        if traced {
            traced_us.push((t2 - t0).as_secs_f64() * 1e6);
            sums.requests += 1;
            sums.faithful_ns += f_ns;
            sums.min_ns += m_ns;
            sums.nodes += nodes;
            probe(&mut sums, run, peer, &faithful);
        } else {
            request_us.push((t2 - t0).as_secs_f64() * 1e6);
            faithful_ms.push(f_ns as f64 / 1e6);
            min_ms.push(m_ns as f64 / 1e6);
        }
        trace::set_enabled(false);

        // Gates, outside the timed queries: both answers are scenarios, and
        // the minimum is no longer than the faithful one.
        report.attempted += 2;
        let minimum = match verdict {
            Verdict::Done(Some(s)) => s,
            Verdict::Done(None) => {
                report.fail(true, "no scenario found, but the run is its own scenario");
                continue;
            }
            Verdict::Anytime(..) | Verdict::Exhausted(_) => {
                cutoffs += 1;
                report.fail(false, "minimum-scenario search cut off");
                continue;
            }
        };
        if minimum.len() > faithful.len() {
            report.fail(true, "the minimum scenario is longer than the faithful one");
        }
        match verified.get(&(r, peer)) {
            Some((f, m)) if *f == faithful && *m == minimum => {}
            Some(_) => report.fail(true, "the same request gave two answers"),
            None => {
                if !is_scenario(run, peer, &faithful) {
                    report.fail(true, "the faithful answer is not a scenario");
                } else if !is_scenario(run, peer, &minimum) {
                    report.fail(true, "the minimum answer is not a scenario");
                } else {
                    verified.insert((r, peer), (faithful, minimum));
                }
            }
        }
    }

    report.fact("requests run", requests);
    report.fact("max search nodes", max_nodes);
    report.fact("cut-off searches", cutoffs);
    for s in [&mut faithful_ms, &mut min_ms, &mut request_us] {
        s.finish();
    }
    let queries = faithful_ms.len() + min_ms.len();
    let mut out = vec![setup];
    out.push(Metric::new(
        "queries_per_s",
        request_us.rate_per_s(2.0),
        "1/s",
        "completed queries (both kinds) per second of query time, upper decile over blocks",
        queries,
    ));
    out.extend(latency(
        "request",
        "us",
        &request_us,
        "faithful + minimum on one pair",
    ));
    out.extend(latency(
        "faithful",
        "ms",
        &faithful_ms,
        "minimal_faithful_scenario",
    ));
    out.extend(latency(
        "min_scenario",
        "ms",
        &min_ms,
        "search_min_scenario_pooled",
    ));
    report.end_to_end = out;
    report.aliases = vec![
        ("ops_per_s", "queries_per_s"),
        ("op_p50_us", "request_p50_us"),
    ];
    if ctx.trace {
        report.layers = layers(&sums, cutoffs, &traced_us, &request_us);
    }
    report
}

/// Isolated calls into the layers under one request, on the same run and
/// peer: the index, the `T_p` closure and the subrun replay of the faithful
/// query, and the cone of the minimum query.
fn probe(sums: &mut LayerSums, run: &Run, peer: PeerId, faithful: &EventSet) {
    let (ns, index) = trace::timed("probe.index", || RunIndex::build(run));
    sums.index_ns += ns;
    let seed = visible_set(run, peer);
    let (ns, _) = trace::timed("probe.tp_closure", || tp_closure(run, &index, peer, &seed));
    sums.tp_ns += ns;
    let indices = faithful.to_vec();
    let (ns, replayed) = trace::timed("probe.replay", || run.try_subrun(&indices));
    sums.replay_ns += ns;
    assert!(replayed.is_ok(), "the faithful closure replays");
    let (ns, cone) = trace::timed("probe.cone", || peer_cone(run, peer));
    sums.cone_ns += ns;
    sums.cone_frac += cone.len() as f64 / run.len().max(1) as f64;
}

fn layers(
    sums: &LayerSums,
    cutoffs: u64,
    traced_us: &Samples,
    untraced_us: &Blocks,
) -> Vec<Metric> {
    let n = sums.requests.max(1) as f64;
    let ms = |ns: u64| ns as f64 / n / 1e6;
    let (faithful_ms, min_ms) = (ms(sums.faithful_ns), ms(sums.min_ns));
    let (index_ms, tp_ms, replay_ms, cone_ms) = (
        ms(sums.index_ns),
        ms(sums.tp_ns),
        ms(sums.replay_ns),
        ms(sums.cone_ns),
    );
    let of_faithful = |x: f64| format!("per faithful query, {:.1}% of it", 100.0 * x / faithful_ms);
    let of_min = |x: f64| format!("per minimum query, {:.1}% of it", 100.0 * x / min_ms);
    let k = sums.requests as usize;
    vec![
        Metric::new("core.index_ms", index_ms, "ms", of_faithful(index_ms), k),
        Metric::new("core.tp_closure_ms", tp_ms, "ms", of_faithful(tp_ms), k),
        Metric::new(
            "run.replay_us",
            replay_ms * 1e3,
            "us",
            of_faithful(replay_ms),
            k,
        ),
        Metric::new("core.cone_ms", cone_ms, "ms", of_min(cone_ms), k),
        Metric::new(
            "core.cone_frac",
            sums.cone_frac / n,
            "frac",
            "cone size over run length, per minimum query",
            k,
        ),
        Metric::new(
            "core.search_nodes",
            sums.nodes as f64 / n,
            "count",
            "governor nodes per minimum query",
            k,
        ),
        Metric::new(
            "core.ns_per_node",
            sums.min_ns as f64 / sums.nodes.max(1) as f64,
            "ns",
            "minimum-query time per governor node",
            k,
        ),
        Metric::new(
            "core.cutoffs",
            cutoffs as f64,
            "count",
            "minimum queries cut off by the node budget, whole run",
            k,
        ),
        Metric::new(
            "trace.overhead_frac",
            traced_us.median() / untraced_us.pooled().median(),
            "ratio",
            "traced over untraced request p50",
            traced_us.len(),
        ),
    ]
}
