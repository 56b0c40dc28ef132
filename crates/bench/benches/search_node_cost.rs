//! E25 — the cost of one scenario-search node, in transitions.
//!
//! Builds the corpus of perfbench's `explain-batch` workload (the same
//! builders, shapes and generator seed) and, for every (run, peer) pair,
//! times two things:
//!
//! * **search** — the cone-pruned minimum-scenario search (Thm 3.3) on the
//!   sequential pool, per governor node it visits;
//! * **replay** — a replay of the pair's whole run through
//!   [`ScratchRun::try_push`], per event.
//!
//! Passes run round-robin over the two, so host noise lands on both alike
//! and cancels in their ratio, `node_cost` (search time per node over
//! replay time per event): how many transitions one search node costs. A
//! node that steps its state in place and back costs about one transition;
//! one that copies a whole state costs more.
//!
//! The numbers land in `BENCH_search_node_cost.json` at the repository
//! root (consumed by EXPERIMENTS.md E25 and gated by `bench_check`: the
//! cost may rise at most 25% above its baseline).

use std::time::Instant;

use criterion::black_box;

use cwf_bench::explain_batch_corpus;
use cwf_core::{search_min_scenario_pooled, SearchOptions};
use cwf_engine::{Run, ScratchRun};
use cwf_model::{Governor, PeerId, Pool};

const WARMUP: usize = 2;
const ITERS: usize = 40;
/// Node budget of one search; every corpus search completes well inside it.
const NODE_BUDGET: u64 = 2_000_000;

/// Searches every pair once; returns the governor nodes visited.
fn search_pass(pairs: &[(&Run, PeerId)]) -> u64 {
    pairs
        .iter()
        .map(|&(run, peer)| {
            let gov = Governor::with_nodes(NODE_BUDGET);
            let v = search_min_scenario_pooled(
                run,
                peer,
                &SearchOptions::default(),
                &gov,
                &Pool::sequential(),
            );
            assert!(v.is_done(), "the corpus searches complete");
            black_box(v);
            gov.nodes_used()
        })
        .sum()
}

/// Replays every pair's run through `ScratchRun::try_push`; returns the
/// events pushed.
fn replay_pass(pairs: &[(&Run, PeerId)]) -> u64 {
    pairs
        .iter()
        .map(|&(run, _)| {
            let mut state = ScratchRun::restart_of(run);
            for event in run.events() {
                state.try_push(event).expect("a run replays");
            }
            black_box(state).len() as u64
        })
        .sum()
}

fn main() {
    let runs = explain_batch_corpus();
    let pairs: Vec<(&Run, PeerId)> = runs
        .iter()
        .flat_map(|run| run.spec().collab().peer_ids().map(move |p| (run, p)))
        .collect();

    let (mut search_s, mut replay_s) = (0.0f64, 0.0f64);
    let (mut nodes, mut events) = (0, 0);
    for round in 0..WARMUP + ITERS {
        let start = Instant::now();
        nodes = search_pass(&pairs);
        let searched = start.elapsed().as_secs_f64();
        let start = Instant::now();
        events = replay_pass(&pairs);
        let replayed = start.elapsed().as_secs_f64();
        if round >= WARMUP {
            search_s += searched;
            replay_s += replayed;
        }
    }
    let ns_per_node = search_s / ITERS as f64 / nodes as f64 * 1e9;
    let ns_per_event = replay_s / ITERS as f64 / events as f64 * 1e9;
    let node_cost = ns_per_node / ns_per_event;

    println!(
        "E25_search_node_cost: {} (run, peer) pairs, {} search nodes, {} replayed events \
         per pass; {:.0} ns per node, {:.0} ns per try_push; node cost {:.2} transitions",
        pairs.len(),
        nodes,
        events,
        ns_per_node,
        ns_per_event,
        node_cost
    );
    let json = format!(
        "{{\n  \"experiment\": \"E25_search_node_cost\",\n  \"pairs\": {},\n  \
         \"search_nodes\": {},\n  \"replayed_events\": {},\n  \"ns_per_node\": {:.0},\n  \
         \"ns_per_event\": {:.0},\n  \"node_cost\": {:.3}\n}}\n",
        pairs.len(),
        nodes,
        events,
        ns_per_node,
        ns_per_event,
        node_cost
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_search_node_cost.json"
    );
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("E25_search_node_cost: cannot write {path}: {e}");
    }
}
