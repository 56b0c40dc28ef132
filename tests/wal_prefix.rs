//! The recover-at-every-boundary property of the per-shard WAL streams.
//!
//! For `n` accepted events, cutting every stream at the consistent byte
//! boundary after submit `k` must recover **exactly** the first `k` events
//! — same events, same instance — for every `k = 0..=n`, whatever the
//! snapshot cadence and shard count. A torn tail on any single stream (at
//! every split point class: one byte in, mid-record, one byte short, the
//! whole chunk) recovers event `k+1` iff the kept bytes close a complete
//! deciding record, never a refusal. At one shard (the single-node
//! deployment) this is the single stream pinned boundary by boundary.
//! Mid-migration cuts must recover one consistent owner per key. Derived
//! state (the candidate listing, the provenance plane and the explanation
//! facts), never persisted, is rebuilt exactly at every boundary and steps
//! on from there.
//!
//! This is the durability contract the chaos harness's `shard-wal-replay`
//! oracle leans on.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use collab_workflows::core::{facts, RunFacts};
use collab_workflows::engine::chaos::default_spec;
use collab_workflows::engine::transport::Transport;
use collab_workflows::engine::{
    candidates, complete, match_body, Candidate, Event, MemBackend, PerfectTransport, ProvPlane,
    Run, ShardPlane, ShardPlaneConfig, SyncPolicy, Wal, WalBackend, WalOptions,
};
use collab_workflows::lang::WorkflowSpec;

/// Drives `n` accepted events through a durable plane with one shard per
/// backend in `mems`, recording every stream's byte length after each
/// submit. `lens[k]` is the per-stream boundary holding exactly the first
/// `k` events (protocol records included).
fn grow_streams(
    spec: &Arc<WorkflowSpec>,
    mems: &[MemBackend],
    opts: WalOptions,
    n: usize,
    seed: u64,
) -> (Vec<Event>, Vec<Vec<usize>>) {
    let shards = mems.len();
    let wals: Vec<Wal> = mems
        .iter()
        .map(|m| Wal::create(Box::new(m.clone()), opts).expect("fresh backend"))
        .collect();
    let transports: Vec<Box<dyn Transport>> = (0..shards)
        .map(|_| Box::new(PerfectTransport::new()) as Box<dyn Transport>)
        .collect();
    let mut plane = ShardPlane::with_parts(
        Arc::clone(spec),
        transports,
        Some(wals),
        ShardPlaneConfig::with_shards(shards),
    );
    let mut script = Run::new(Arc::clone(spec));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut events = Vec::new();
    let mut lens = vec![mems.iter().map(|m| m.bytes().len()).collect::<Vec<_>>()];
    while events.len() < n {
        let cands = candidates(&script);
        assert!(!cands.is_empty(), "the editorial spec always has a rule");
        let cand = cands[rng.gen_range(0..cands.len())].clone();
        let event = complete(&mut script, &cand);
        if script.push(event.clone()).is_err() {
            continue; // chase rejection: try another candidate
        }
        plane.submit(event.clone()).expect("healthy plane accepts");
        events.push(event);
        lens.push(mems.iter().map(|m| m.bytes().len()).collect());
    }
    (events, lens)
}

/// Replays streams cut to `cut_lens` and asserts exactly `k` events.
fn assert_streams_recover(
    spec: &Arc<WorkflowSpec>,
    full: &[Vec<u8>],
    cut_lens: &[usize],
    opts: WalOptions,
    events: &[Event],
    k: usize,
) {
    let backends: Vec<Box<dyn WalBackend>> = full
        .iter()
        .zip(cut_lens)
        .map(|(bytes, len)| {
            Box::new(MemBackend::from_bytes(bytes[..*len].to_vec())) as Box<dyn WalBackend>
        })
        .collect();
    let (run, report) = ShardPlane::replay_wals(spec, backends, opts)
        .unwrap_or_else(|e| panic!("streams at boundary {k} must recover: {e}"));
    assert_eq!(
        report.last_seq, k as u64,
        "streams cut at boundary {k} must hold exactly {k} events (cut {cut_lens:?})"
    );
    let mut expect = Run::new(Arc::clone(spec));
    for e in &events[..k] {
        expect.push(e.clone()).expect("accepted events replay");
    }
    assert_eq!(
        run.current(),
        expect.current(),
        "the quorum-recovered instance must equal the replay of the first {k} events"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cutting every stream at the consistent boundary after submit `k`
    /// recovers exactly the first `k` events, at one shard and at four,
    /// and a torn tail on any single stream — at every split point class
    /// inside the bytes the next submit appended to it — recovers event
    /// `k+1` iff the kept portion closes a complete deciding record (the
    /// `e` line of a key-local event, or any participant's `c` line of a
    /// cross-shard commit; an orphaned prepare is presumed aborted).
    #[test]
    fn every_shard_stream_boundary_recovers_exactly_its_events(
        seed in 0u64..1_000,
        n in 1usize..8,
        snapshot_every in prop_oneof![Just(None), Just(Some(1u64)), Just(Some(3u64))],
    ) {
        let spec = default_spec();
        let opts = WalOptions { sync: SyncPolicy::Always, snapshot_every };
        for shards in [1, 4] {
            let mems: Vec<MemBackend> = (0..shards).map(|_| MemBackend::new()).collect();
            let (events, lens) = grow_streams(&spec, &mems, opts, n, seed);
            let full: Vec<Vec<u8>> = mems.iter().map(|m| m.bytes()).collect();
            prop_assert_eq!(
                &lens[n],
                &full.iter().map(|b| b.len()).collect::<Vec<_>>()
            );

            for k in 0..=n {
                assert_streams_recover(&spec, &full, &lens[k], opts, &events, k);
                if k == n {
                    continue;
                }
                // Torn tails: cut one stream inside the chunk submit k+1
                // appended to it, others at the consistent boundary.
                for s in 0..mems.len() {
                    let span = lens[k + 1][s] - lens[k][s];
                    if span == 0 {
                        continue;
                    }
                    for cut in [1, span / 2, span.saturating_sub(1), span] {
                        if cut == 0 {
                            continue;
                        }
                        let mut cut_lens = lens[k].clone();
                        cut_lens[s] += cut;
                        // The kept chunk decides event k+1 iff it closes a
                        // complete `e` or `c` line.
                        let chunk = &full[s][lens[k][s]..lens[k][s] + cut];
                        let complete = match chunk.iter().rposition(|b| *b == b'\n') {
                            Some(end) => &chunk[..end],
                            None => &[][..],
                        };
                        let decided = std::str::from_utf8(complete)
                            .expect("streams are line text")
                            .lines()
                            .any(|l| l.starts_with('e') || l.starts_with('c'));
                        let expect = k + usize::from(decided);
                        assert_streams_recover(&spec, &full, &cut_lens, opts, &events, expect);
                    }
                }
            }
        }
    }
}

/// The specification of the candidate listing: every rule's `match_body`
/// on its peer's view, rules in id order.
fn reference_listing(run: &Run) -> Vec<Candidate> {
    let program = run.spec().program();
    program
        .rule_ids()
        .flat_map(|rid| {
            let rule = program.rule(rid);
            match_body(rule, run.peer_view(rule.peer))
                .into_iter()
                .map(move |bindings| Candidate {
                    rule: rid,
                    bindings,
                })
        })
        .collect()
}

/// Each derived part of `run`, read through its slot, equals its
/// from-scratch build.
fn assert_parts_built(run: &Run, what: &str) {
    assert_eq!(
        candidates(run),
        reference_listing(run),
        "candidate listing ({what})"
    );
    assert!(
        run.provenance() == &ProvPlane::build(run),
        "provenance plane ({what})"
    );
    assert!(
        facts(run).filled() == &RunFacts::build(run),
        "explanation facts ({what})"
    );
}

/// Derived state is never persisted: a recovered run builds its candidate
/// listing, provenance plane and explanation facts from the recovered
/// trace. At every snapshot cadence and every stream boundary of a
/// single-shard plane, each part of the recovered run equals the part of a
/// run that filled it while empty and was stepped over the recovered
/// history (post-snapshot suffix included), and the from-scratch build:
/// the rebuild loses nothing. The recovered run, every part filled, then
/// takes the rest of the accepted events, and each stepped part still
/// equals its build: recovery leaves nothing stale.
#[test]
fn provenance_is_rebuilt_not_persisted_across_recovery() {
    let spec = default_spec();
    for snapshot_every in [None, Some(1u64), Some(3u64)] {
        let opts = WalOptions {
            sync: SyncPolicy::Always,
            snapshot_every,
        };
        let mem = MemBackend::new();
        let (events, lens) = grow_streams(&spec, std::slice::from_ref(&mem), opts, 8, 42);
        let bytes = mem.bytes();
        for (k, len) in lens.iter().enumerate() {
            let what = format!("boundary {k}, snapshot_every {snapshot_every:?}");
            let backend = Box::new(MemBackend::from_bytes(bytes[..len[0]].to_vec()));
            let (mut run, _) = ShardPlane::replay_wals(&spec, vec![backend], opts)
                .unwrap_or_else(|e| panic!("{what} must recover: {e}"));
            let mut stepped = Run::with_initial(run.spec_arc(), run.initial().clone());
            assert_parts_built(&stepped, &format!("{what}, empty"));
            for e in run.events() {
                stepped.push(e.clone()).expect("recovered events replay");
            }
            assert_eq!(
                candidates(&run),
                candidates(&stepped),
                "rebuilt listing must equal the stepped one ({what})"
            );
            assert!(
                run.provenance() == stepped.provenance(),
                "rebuilt plane must equal the stepped one ({what})"
            );
            assert!(
                facts(&run).filled() == facts(&stepped).filled(),
                "rebuilt facts must equal the stepped ones ({what})"
            );
            assert_parts_built(&run, &what);
            for e in &events[k..] {
                run.push(e.clone())
                    .expect("accepted events apply after recovery");
            }
            assert_parts_built(&run, &format!("{what}, then the rest"));
        }
    }
}

// ---------------------------------------------------------------------------
// Mid-migration prefixes: every boundary recovers to one consistent epoch
// ---------------------------------------------------------------------------

use collab_workflows::engine::ShardId;

/// Pushes one random accepted event through both the scripted run and the
/// plane, chasing rejections like [`grow_streams`] does.
fn submit_one(plane: &mut ShardPlane, script: &mut Run, rng: &mut StdRng) -> Event {
    loop {
        let cands = candidates(script);
        assert!(!cands.is_empty(), "the editorial spec always has a rule");
        let cand = cands[rng.gen_range(0..cands.len())].clone();
        let event = complete(script, &cand);
        if script.push(event.clone()).is_err() {
            continue; // chase rejection: try another candidate
        }
        plane.submit(event.clone()).expect("healthy plane accepts");
        return event;
    }
}

/// Quorum-recovers a full plane from streams cut at `cut_lens` and asserts
/// the migration contract: exactly `k` events, state union equal to the
/// scripted replay, **exactly one owner per key** under the recovered map
/// (never a mix of old and new ownership), and an epoch no older than
/// `min_epoch`. Returns the recovered epoch so callers can thread
/// monotonicity through consecutive boundaries.
fn assert_epoch_consistent(
    spec: &Arc<WorkflowSpec>,
    full: &[Vec<u8>],
    cut_lens: &[usize],
    opts: WalOptions,
    events: &[Event],
    k: usize,
    min_epoch: u64,
) -> u64 {
    let backends: Vec<Box<dyn WalBackend>> = full
        .iter()
        .zip(cut_lens)
        .map(|(bytes, len)| {
            Box::new(MemBackend::from_bytes(bytes[..*len].to_vec())) as Box<dyn WalBackend>
        })
        .collect();
    let transports: Vec<Box<dyn Transport>> = (0..full.len())
        .map(|_| Box::new(PerfectTransport::new()) as Box<dyn Transport>)
        .collect();
    let (plane, report) = ShardPlane::recover(
        Arc::clone(spec),
        backends,
        opts,
        transports,
        ShardPlaneConfig::with_shards(full.len()),
    )
    .unwrap_or_else(|e| panic!("mid-migration boundary {k} must recover: {e}"));
    assert_eq!(
        report.last_seq, k as u64,
        "boundary {k} must hold exactly {k} events (cut {cut_lens:?})"
    );
    let mut expect = Run::new(Arc::clone(spec));
    for e in &events[..k] {
        expect.push(e.clone()).expect("accepted events replay");
    }
    assert!(
        plane.state_matches(expect.current()),
        "the recovered shard-state union must equal the replay of the \
         first {k} events (cut {cut_lens:?})"
    );
    let map = plane.map();
    assert!(
        map.epoch() >= min_epoch,
        "the recovered epoch must never regress: {} < {min_epoch} at \
         boundary {k}",
        map.epoch()
    );
    for i in 0..plane.shard_count() {
        let s = ShardId(i as u16);
        for (rel, t) in plane.shard_state(s).facts() {
            assert_eq!(
                map.shard_of(t.key()),
                s,
                "boundary {k} recovered *mixed* ownership at epoch {}: \
                 shard {s:?} holds rel {rel:?} key {:?} owned by {:?}",
                map.epoch(),
                t.key(),
                map.shard_of(t.key()),
            );
        }
    }
    map.epoch()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Cuts the streams at every record boundary of a live **split**
    /// followed by a **merge** back — before the plan, after the durable
    /// `m` plan record, between copy steps, after the `f` cutover, and
    /// after post-cutover admissions — and asserts each prefix recovers to
    /// one consistent epoch: the union of the first `k` events with
    /// exactly one owner per key, entirely old or entirely new ownership,
    /// never mixed. Torn cuts *inside* the `m` and `f` records must fall
    /// back to the previous consistent epoch (a plan or cutover that never
    /// finished syncing never happened).
    #[test]
    fn every_mid_migration_boundary_recovers_one_owner_per_key(
        seed in 0u64..1_000,
        src in 0u32..4,
        n1 in 1usize..4,
        n2 in 1usize..4,
        n3 in 1usize..4,
        snapshot_every in prop_oneof![Just(None), Just(Some(3u64))],
    ) {
        let spec = default_spec();
        let opts = WalOptions { sync: SyncPolicy::Always, snapshot_every };
        // Five streams from the start: the split destination's stream is
        // provisioned (header only) before the plan exists, so every
        // boundary cuts the same five streams.
        let mems: Vec<MemBackend> = (0..5).map(|_| MemBackend::new()).collect();
        let wals: Vec<Wal> = mems[..4]
            .iter()
            .map(|m| Wal::create(Box::new(m.clone()), opts).expect("fresh backend"))
            .collect();
        let mut dst_wal =
            Some(Wal::create(Box::new(mems[4].clone()), opts).expect("fresh backend"));
        let transports: Vec<Box<dyn Transport>> = (0..4)
            .map(|_| Box::new(PerfectTransport::new()) as Box<dyn Transport>)
            .collect();
        let mut plane = ShardPlane::with_parts(
            Arc::clone(&spec),
            transports,
            Some(wals),
            ShardPlaneConfig::with_shards(4),
        );
        let mut script = Run::new(Arc::clone(&spec));
        let mut rng = StdRng::seed_from_u64(seed);
        let lens_of =
            |mems: &[MemBackend]| mems.iter().map(|m| m.bytes().len()).collect::<Vec<usize>>();

        let mut events: Vec<Event> = Vec::new();
        // (consistent per-stream cut, events held) at every boundary.
        let mut boundaries = vec![(lens_of(&mems), 0usize)];
        let push_boundary = |mems: &[MemBackend], k: usize, b: &mut Vec<(Vec<usize>, usize)>| {
            b.push((lens_of(mems), k));
        };

        for _ in 0..n1 {
            events.push(submit_one(&mut plane, &mut script, &mut rng));
            push_boundary(&mems, events.len(), &mut boundaries);
        }

        // Begin the split: `m` plan record on the router stream.
        let src_id = ShardId(src as u16);
        let m_base = boundaries.last().unwrap().0.clone();
        let began = plane
            .begin_split(src_id, Box::new(PerfectTransport::new()), dst_wal.take())
            .expect("healthy plane");
        prop_assert!(began, "a split of a live shard must be plannable");
        let m_span = mems[0].bytes().len() - m_base[0];
        let k_at_m = events.len();
        push_boundary(&mems, events.len(), &mut boundaries);

        // Admissions and copy steps interleave while the plan is open.
        for _ in 0..n2 {
            plane.step_reshard(1);
            events.push(submit_one(&mut plane, &mut script, &mut rng));
            push_boundary(&mems, events.len(), &mut boundaries);
        }

        // Cut over: `f` record flips the committed map.
        let f_base = boundaries.last().unwrap().0.clone();
        prop_assert!(plane.finish_reshard().expect("healthy plane"));
        let f_span = mems[0].bytes().len() - f_base[0];
        let k_at_f = events.len();
        push_boundary(&mems, events.len(), &mut boundaries);

        for _ in 0..n3 {
            events.push(submit_one(&mut plane, &mut script, &mut rng));
            push_boundary(&mems, events.len(), &mut boundaries);
        }

        // Merge the new shard back and cut mid-merge too.
        prop_assert!(plane
            .begin_merge(ShardId(4), src_id)
            .expect("healthy plane"));
        push_boundary(&mems, events.len(), &mut boundaries);
        events.push(submit_one(&mut plane, &mut script, &mut rng));
        push_boundary(&mems, events.len(), &mut boundaries);
        prop_assert!(plane.finish_reshard().expect("healthy plane"));
        push_boundary(&mems, events.len(), &mut boundaries);
        events.push(submit_one(&mut plane, &mut script, &mut rng));
        push_boundary(&mems, events.len(), &mut boundaries);

        let full: Vec<Vec<u8>> = mems.iter().map(|m| m.bytes()).collect();
        prop_assert_eq!(&boundaries.last().unwrap().0, &lens_of(&mems));

        // Every consistent record boundary: one owner per key, epoch
        // monotone along the prefix chain.
        let mut min_epoch = 0u64;
        for (cut, k) in &boundaries {
            min_epoch = assert_epoch_consistent(&spec, &full, cut, opts, &events, *k, min_epoch);
        }
        prop_assert_eq!(min_epoch, plane.map().epoch());

        // Torn cuts inside the `m` plan and `f` cutover records: the
        // half-written record is truncated, recovery lands on the epoch
        // before it (plan never existed / cutover presumed aborted) with
        // entirely-old ownership.
        for (base, span, k) in [(&m_base, m_span, k_at_m), (&f_base, f_span, k_at_f)] {
            for cut in [1, span / 2, span.saturating_sub(1)] {
                if cut == 0 || cut >= span {
                    continue;
                }
                let mut cut_lens = base.clone();
                cut_lens[0] += cut;
                assert_epoch_consistent(&spec, &full, &cut_lens, opts, &events, k, 0);
            }
        }
    }
}
