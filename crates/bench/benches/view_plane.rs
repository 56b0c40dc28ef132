//! E16 — incremental view plane vs from-scratch view rescans.
//!
//! Builds a long modification-heavy run over a 10-peer workflow (full views,
//! non-key-attribute `⊥` selections, and six constant shards), then measures
//! the cost of producing every peer's view at *every* prefix two ways:
//!
//! * **plane** — bootstrap each peer once and roll the stored per-event
//!   [`ViewDelta`]s forward (`peer_delta` + `apply_to_view`), exactly what
//!   `Run::push` and the coordinator do in production;
//! * **rescan** — recompute `CollabSchema::view_of` from scratch for every
//!   `(step, peer)` pair, what the engine did before the view plane.
//!
//! The two passes run round-robin, so host noise lands on both alike and
//! cancels in the speedup. Besides the criterion-style timings, the bench
//! writes the measured totals and the speedup to `BENCH_view_plane.json` at
//! the repository root (consumed by EXPERIMENTS.md E16). The acceptance bar
//! is a ≥5× speedup.

use std::time::Instant;

use criterion::black_box;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cwf_engine::{candidates, complete, materialize_view, peer_delta, Run};
use cwf_lang::parse_workflow;
use cwf_model::{CollabSchema, PeerId};

use std::sync::Arc;

const STEPS: usize = 240;
const WARMUP: usize = 2;
const ITERS: usize = 20;

/// Ten peers over one relation: two full views, two `⊥`-selections on
/// non-key attributes (tuples leave `intake` when claimed and leave
/// `unsorted` when tagged), and six constant shards (tuples enter `v{j}`
/// when tagged `"v{j}"`). The rules only null-fill, so almost every event
/// past the opens is an in-place modification.
fn bench_spec() -> Arc<cwf_lang::WorkflowSpec> {
    Arc::new(
        parse_workflow(
            r#"
            schema { Item(K, Owner, Val); }
            peers {
                lead sees Item(*);
                audit sees Item(*);
                intake sees Item(K, Val) where Owner = null;
                unsorted sees Item(K) where Val = null;
                v0 sees Item(K, Owner) where Val = "v0";
                v1 sees Item(K, Owner) where Val = "v1";
                v2 sees Item(K, Owner) where Val = "v2";
                v3 sees Item(K, Owner) where Val = "v3";
                v4 sees Item(K, Owner) where Val = "v4";
                v5 sees Item(K, Owner) where Val = "v5";
            }
            rules {
                open @ lead: +Item(t, null, null) :- ;
                claim @ lead: +Item(t, o, null) :- Item(t, null, null);
                tag0 @ lead: +Item(t, null, "v0") :- Item(t, o, null), o != null;
                tag1 @ lead: +Item(t, null, "v1") :- Item(t, o, null), o != null;
                tag2 @ lead: +Item(t, null, "v2") :- Item(t, o, null), o != null;
                tag3 @ lead: +Item(t, null, "v3") :- Item(t, o, null), o != null;
                tag4 @ lead: +Item(t, null, "v4") :- Item(t, o, null), o != null;
                tag5 @ lead: +Item(t, null, "v5") :- Item(t, o, null), o != null;
                prune @ lead: -key Item(t) :- Item(t, o, "v5");
            }
            "#,
        )
        .expect("the bench spec parses"),
    )
}

/// Drives a random modification-heavy workload to exactly `STEPS` accepted
/// events (every third step forces an `open` so the instance keeps growing).
fn build_run() -> Run {
    let spec = bench_spec();
    let mut run = Run::new(Arc::clone(&spec));
    let mut rng = StdRng::seed_from_u64(16);
    let open = spec
        .program()
        .rule_ids()
        .find(|&r| spec.program().rule(r).name == "open")
        .expect("the spec has an open rule");
    let mut attempts = 0usize;
    while run.len() < STEPS {
        attempts += 1;
        assert!(attempts < STEPS * 20, "workload generation stalled");
        let cands = candidates(&run);
        let cand = if run.len().is_multiple_of(3) {
            cands
                .iter()
                .find(|c| c.rule == open)
                .expect("open is always fireable")
                .clone()
        } else {
            cands[rng.gen_range(0..cands.len())].clone()
        };
        let event = complete(&mut run, &cand);
        let _ = run.push(event); // chase conflicts / subsumption: just retry
    }
    run
}

/// Every peer's view at every prefix via the incremental plane: one
/// bootstrap per peer, then one delta application per accepted event.
fn plane_pass(collab: &CollabSchema, run: &Run, peers: &[PeerId]) -> usize {
    let mut checksum = 0usize;
    for &p in peers {
        let mut view = materialize_view(collab, p, run.initial());
        for i in 0..run.len() {
            peer_delta(collab, p, run.diff(i), run.instance(i)).apply_to_view(&mut view);
            checksum += view.total_tuples();
        }
    }
    checksum
}

/// The same views by full rescans: `view_of` from scratch per (step, peer).
fn rescan_pass(collab: &CollabSchema, run: &Run, peers: &[PeerId]) -> usize {
    let mut checksum = 0usize;
    for &p in peers {
        for i in 0..run.len() {
            checksum += collab.view_of(run.instance(i), p).total_tuples();
        }
    }
    checksum
}

/// Seconds one call of `f` took, and its checksum.
fn timed(f: impl FnOnce() -> usize) -> (f64, usize) {
    let start = Instant::now();
    let checksum = black_box(f());
    (start.elapsed().as_secs_f64(), checksum)
}

fn main() {
    let run = build_run();
    let collab = run.spec().collab();
    let peers: Vec<PeerId> = collab.peer_ids().collect();
    let final_tuples = run.current().total_tuples();
    let modified: usize = (0..run.len()).map(|i| run.diff(i).modified.len()).sum();

    // Round-robin over the two strategies, so host noise lands on both
    // alike and cancels in their ratio.
    let (mut plane_s, mut rescan_s) = (0.0, 0.0);
    for round in 0..WARMUP + ITERS {
        let (plane, plane_sum) = timed(|| plane_pass(collab, &run, &peers));
        let (rescan, rescan_sum) = timed(|| rescan_pass(collab, &run, &peers));
        assert_eq!(
            plane_sum, rescan_sum,
            "both strategies must produce identical views at every prefix"
        );
        if round >= WARMUP {
            plane_s += plane / ITERS as f64;
            rescan_s += rescan / ITERS as f64;
        }
    }

    let pairs = (run.len() * peers.len()) as f64;
    let speedup = rescan_s / plane_s;
    println!(
        "E16_view_plane/plane   ... {:>10.0} ns/iter ({:.1} ns per step×peer)",
        plane_s * 1e9,
        plane_s * 1e9 / pairs
    );
    println!(
        "E16_view_plane/rescan  ... {:>10.0} ns/iter ({:.1} ns per step×peer)",
        rescan_s * 1e9,
        rescan_s * 1e9 / pairs
    );
    println!(
        "E16_view_plane: {} steps, {} peers, {} tuples final, {} in-place \
         modifications, speedup {:.1}x",
        run.len(),
        peers.len(),
        final_tuples,
        modified,
        speedup
    );

    let json = format!(
        "{{\n  \"experiment\": \"E16_view_plane\",\n  \"steps\": {},\n  \
         \"peers\": {},\n  \"final_tuples\": {},\n  \"modified_tuples\": {},\n  \
         \"plane_ms_per_pass\": {:.3},\n  \"rescan_ms_per_pass\": {:.3},\n  \
         \"plane_ns_per_step_peer\": {:.1},\n  \"rescan_ns_per_step_peer\": {:.1},\n  \
         \"speedup\": {:.2}\n}}\n",
        run.len(),
        peers.len(),
        final_tuples,
        modified,
        plane_s * 1e3,
        rescan_s * 1e3,
        plane_s * 1e9 / pairs,
        rescan_s * 1e9 / pairs,
        speedup
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_view_plane.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("E16_view_plane: cannot write {path}: {e}");
    }
}
