//! Distributed admission, end to end: key-local events commit on their
//! home shard's WAL stream alone, cross-shard events run the router's
//! prepare/commit protocol, and quorum recovery resolves every in-doubt
//! transaction deterministically — committed when any surviving stream
//! holds the decision, presumed abort otherwise.

use std::sync::Arc;

use collab_workflows::engine::chaos::{default_spec, ChaosProfile, ChaosSim};
use collab_workflows::engine::transport::Transport;
use collab_workflows::engine::{candidates, complete, WalBackend};
use collab_workflows::prelude::*;

const SHARDS: usize = 4;

fn opts(snapshot_every: Option<u64>) -> WalOptions {
    WalOptions {
        sync: SyncPolicy::Always,
        snapshot_every,
    }
}

fn transports(n: usize) -> Vec<Box<dyn Transport>> {
    (0..n)
        .map(|_| Box::new(PerfectTransport::new()) as Box<dyn Transport>)
        .collect()
}

/// A durable plane over per-shard in-memory streams, plus the shared
/// backends so tests can inspect and truncate the raw bytes.
fn durable_plane(
    shards: usize,
    snapshot_every: Option<u64>,
) -> (ShardPlane, Vec<MemBackend>, WalOptions) {
    let spec = default_spec();
    let o = opts(snapshot_every);
    let mems: Vec<MemBackend> = (0..shards).map(|_| MemBackend::new()).collect();
    let wals: Vec<Wal> = mems
        .iter()
        .map(|m| Wal::create(Box::new(m.clone()), o).expect("fresh backend"))
        .collect();
    let plane = ShardPlane::with_parts(
        Arc::clone(&spec),
        transports(shards),
        Some(wals),
        ShardPlaneConfig::with_shards(shards),
    );
    (plane, mems, o)
}

/// The next event of the deterministic candidate walk used across the
/// shard tests: pick the `(i * 7 + 3) % len`-th candidate at step `i`.
fn next_event(script: &mut Run, i: usize) -> Event {
    let cands = candidates(script);
    assert!(!cands.is_empty(), "the editorial spec always has a rule");
    let cand = cands[(i * 7 + 3) % cands.len()].clone();
    complete(script, &cand)
}

/// Splits a stream into complete records, returning `(kind, seq, payload)`
/// per line.
fn parse_lines(bytes: &[u8]) -> Vec<(char, u64, String)> {
    let text = std::str::from_utf8(bytes).expect("streams are line text");
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| {
            let mut it = line.splitn(4, ' ');
            let kind = it.next().expect("kind").chars().next().expect("kind char");
            let seq: u64 = it.next().expect("seq").parse().expect("numeric seq");
            let crc = it.next().expect("crc");
            assert_eq!(crc.len(), 8, "crc is 8 hex chars: {line:?}");
            (kind, seq, it.next().unwrap_or("").to_string())
        })
        .collect()
}

/// A key-local event must become durable entirely on its home shard's
/// stream — no other stream may grow — while a cross-shard event must
/// grow exactly its participants' streams. The per-shard admission
/// counters (`admission_stats`) account for every accepted event.
#[test]
fn local_events_commit_on_their_home_stream_alone() {
    let (mut plane, mems, _) = durable_plane(SHARDS, None);
    let mut script = Run::new(plane.run().spec_arc());
    let (mut locals, mut crosses) = (0usize, 0usize);
    for i in 0..14 {
        let event = next_event(&mut script, i);
        script.push(event.clone()).expect("scripted walk replays");
        let before: Vec<usize> = mems.iter().map(|m| m.bytes().len()).collect();
        let bc = plane.submit(event).expect("healthy plane accepts");
        let participants: Vec<ShardId> = if bc.stamps.is_empty() {
            vec![ShardId(0)]
        } else {
            bc.stamps.iter().map(|(s, _)| *s).collect()
        };
        if participants.len() == 1 {
            locals += 1;
        } else {
            crosses += 1;
        }
        for (s, m) in mems.iter().enumerate() {
            let grew = m.bytes().len() > before[s];
            assert_eq!(
                grew,
                participants.contains(&ShardId(s as u16)),
                "event {i}: exactly the participant streams may grow (shard {s})"
            );
        }
    }
    assert!(locals > 0, "the walk must exercise key-local admission");
    assert!(crosses > 0, "the walk must exercise cross-shard commits");
    let stats = plane.admission_stats().clone();
    assert_eq!(
        stats.local_admitted.iter().sum::<u64>(),
        locals as u64,
        "every key-local event is counted on its home shard"
    );
    assert_eq!(stats.cross_shard_committed, crosses as u64);
    assert_eq!(stats.cross_shard_aborted, 0);
    assert_eq!(
        stats.commits_written, stats.prepares_written,
        "every prepare is matched by a commit on a healthy plane"
    );
    assert!(plane.converge(500).is_converged());
    assert!(plane.state_matches(script.current()));
    // Convergence commits nothing more: the accounting still holds.
    let sharding = plane.admission_stats();
    assert_eq!(sharding.local_admitted.iter().sum::<u64>(), locals as u64);
}

/// Stream hygiene: every record is a typed, densely-sequenced, checksummed
/// line, and each stream numbers its own records independently from 1.
#[test]
fn streams_hold_densely_sequenced_typed_records() {
    let (mut plane, mems, _) = durable_plane(SHARDS, Some(3));
    let mut script = Run::new(plane.run().spec_arc());
    for i in 0..10 {
        let event = next_event(&mut script, i);
        script.push(event.clone()).expect("scripted walk replays");
        plane.submit(event).expect("healthy plane accepts");
    }
    for (s, m) in mems.iter().enumerate() {
        let lines = parse_lines(&m.bytes());
        for (i, (kind, seq, _)) in lines.iter().enumerate() {
            assert!(
                matches!(kind, 'e' | 'p' | 'c' | 'a' | 's'),
                "stream {s} record {i} has a shard-stream kind, got {kind:?}"
            );
            assert_eq!(
                *seq,
                i as u64 + 1,
                "stream {s} numbers records densely from 1"
            );
        }
    }
}

/// With one shard every event is key-local: the plane never writes a
/// protocol record and never touches a router WAL path — the E18/E19
/// fast-path pin.
#[test]
fn single_shard_plane_writes_no_protocol_records() {
    let (mut plane, mems, _) = durable_plane(1, Some(4));
    let mut script = Run::new(plane.run().spec_arc());
    let n = 9;
    for i in 0..n {
        let event = next_event(&mut script, i);
        script.push(event.clone()).expect("scripted walk replays");
        plane.submit(event).expect("healthy plane accepts");
    }
    for (kind, _, _) in parse_lines(&mems[0].bytes()) {
        assert!(
            matches!(kind, 'e' | 's'),
            "shards=1 admission is entirely local, found a {kind:?} record"
        );
    }
    let stats = plane.admission_stats();
    assert_eq!(stats.local_admitted, vec![n as u64]);
    assert_eq!(stats.prepares_written, 0);
    assert_eq!(stats.cross_shard_committed, 0);
    assert!(plane.state_matches(script.current()));
}

/// An injected prepare-phase timeout aborts the transaction cleanly:
/// abort records land on every participant, the run is unchanged, the
/// plane is not degraded, and the same event resubmits successfully.
#[test]
fn injected_timeout_aborts_cleanly_and_resubmission_commits() {
    let (mut plane, mems, _) = durable_plane(SHARDS, None);
    let mut script = Run::new(plane.run().spec_arc());
    plane.inject_commit_abort();
    let mut aborted = None;
    for i in 0..40 {
        let event = next_event(&mut script, i);
        match plane.submit(event.clone()) {
            Ok(_) => script.push(event).expect("accepted events replay"),
            Err(PlaneError::CommitAborted) => {
                aborted = Some(event);
                break;
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    let event = aborted.expect("the walk reaches a cross-shard event");
    assert!(
        !plane.degraded(),
        "a clean abort must not degrade the plane"
    );
    assert_eq!(
        plane.run().len(),
        script.len(),
        "an aborted event leaves the run untouched"
    );
    let stats = plane.admission_stats().clone();
    assert_eq!(stats.cross_shard_aborted, 1);
    assert!(
        stats.aborts_written >= 2,
        "abort records land on every participant"
    );
    let aborts_on_disk: usize = mems
        .iter()
        .map(|m| {
            parse_lines(&m.bytes())
                .iter()
                .filter(|(k, _, _)| *k == 'a')
                .count()
        })
        .sum();
    assert_eq!(aborts_on_disk as u64, stats.aborts_written);
    // The abort is not sticky: the same event now commits.
    let bc = plane.submit(event.clone()).expect("resubmission commits");
    assert!(bc.stamps.len() > 1, "the aborted event was cross-shard");
    script.push(event).expect("accepted events replay");
    assert_eq!(plane.admission_stats().cross_shard_committed, 1);
    assert!(plane.converge(500).is_converged());
    assert!(plane.state_matches(script.current()));
}

/// A router death between prepare and commit leaves orphaned prepares on
/// every participant; quorum recovery resolves them by presumed abort and
/// the restarted plane accepts the event again under a fresh gid.
#[test]
fn router_death_resolves_by_presumed_abort() {
    let (mut plane, mems, o) = durable_plane(SHARDS, None);
    let mut script = Run::new(plane.run().spec_arc());
    plane.inject_router_crash();
    let mut in_doubt = None;
    for i in 0..40 {
        let event = next_event(&mut script, i);
        match plane.submit(event.clone()) {
            Ok(_) => script.push(event).expect("accepted events replay"),
            Err(PlaneError::InDoubt) => {
                in_doubt = Some(event);
                break;
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    let event = in_doubt.expect("the walk reaches a cross-shard event");
    let accepted = script.len() as u64;
    let orphan_gid = mems
        .iter()
        .flat_map(|m| parse_lines(&m.bytes()))
        .filter(|(k, _, _)| *k == 'p')
        .map(|(_, _, payload)| payload.split(' ').next().unwrap().to_string())
        .next_back()
        .expect("orphaned prepares survive the router");
    drop(plane); // the router process dies with prepares in doubt
    let copies: Vec<MemBackend> = mems
        .iter()
        .map(|m| MemBackend::from_bytes(m.bytes()))
        .collect();
    let (mut plane, report) = ShardPlane::recover(
        default_spec(),
        copies
            .iter()
            .map(|c| Box::new(c.clone()) as Box<dyn WalBackend>)
            .collect(),
        o,
        transports(SHARDS),
        ShardPlaneConfig::with_shards(SHARDS),
    )
    .expect("quorum recovery succeeds");
    assert_eq!(
        report.last_seq, accepted,
        "an in-doubt transaction without a decision must not replay"
    );
    assert_eq!(plane.admission_stats().in_doubt_aborted, 1);
    assert!(plane.state_matches(script.current()));
    // The event is re-admitted under a gid strictly above the orphan's.
    let bc = plane.submit(event.clone()).expect("re-admission commits");
    assert!(bc.stamps.len() > 1, "the in-doubt event was cross-shard");
    script.push(event).expect("accepted events replay");
    let new_gid = copies
        .iter()
        .flat_map(|m| parse_lines(&m.bytes()))
        .filter(|(k, _, _)| *k == 'c')
        .map(|(_, _, payload)| payload)
        .next_back()
        .expect("the re-admission commits on disk");
    assert_ne!(new_gid, orphan_gid, "gids are never reused after recovery");
    assert!(plane.converge(500).is_converged());
    assert!(plane.state_matches(script.current()));
}

/// In-doubt resolution, both directions: whichever single stream loses its
/// commit record — a participant's or the home's — the surviving `c`
/// record on the other stream resolves the transaction as committed, with
/// nothing lost.
#[test]
fn any_surviving_commit_record_resolves_in_doubt_as_committed() {
    let (mut plane, mems, o) = durable_plane(SHARDS, None);
    let mut script = Run::new(plane.run().spec_arc());
    let mut cross: Option<(ShardId, Vec<ShardId>, Vec<usize>)> = None;
    for i in 0..40 {
        let event = next_event(&mut script, i);
        script.push(event.clone()).expect("scripted walk replays");
        let lens: Vec<usize> = mems.iter().map(|m| m.bytes().len()).collect();
        let bc = plane.submit(event).expect("healthy plane accepts");
        if bc.stamps.len() > 1 {
            cross = Some((bc.home, bc.stamps.iter().map(|(s, _)| *s).collect(), lens));
            break;
        }
    }
    let (home, participants, before) = cross.expect("the walk reaches a cross-shard event");
    let accepted = script.len() as u64;
    let other = *participants
        .iter()
        .find(|s| **s != home)
        .expect("a cross-shard event has a second participant");
    // Cut one stream right after its prepare, dropping its commit record.
    for lose in [other, home] {
        let backends: Vec<Box<dyn WalBackend>> = mems
            .iter()
            .enumerate()
            .map(|(s, m)| {
                let mut bytes = m.bytes();
                if s == lose.index() {
                    let chunk = &bytes[before[s]..];
                    let p_len = chunk
                        .iter()
                        .position(|b| *b == b'\n')
                        .expect("the chunk starts with a complete prepare")
                        + 1;
                    bytes.truncate(before[s] + p_len);
                }
                Box::new(MemBackend::from_bytes(bytes)) as Box<dyn WalBackend>
            })
            .collect();
        let (plane, report) = ShardPlane::recover(
            default_spec(),
            backends,
            o,
            transports(SHARDS),
            ShardPlaneConfig::with_shards(SHARDS),
        )
        .expect("quorum recovery succeeds");
        assert_eq!(
            report.last_seq, accepted,
            "a surviving commit record (losing {lose}) keeps the event"
        );
        assert_eq!(
            plane.admission_stats().in_doubt_committed,
            1,
            "the torn stream is detected as in doubt (losing {lose})"
        );
        assert!(plane.state_matches(script.current()));
    }
}

/// A deferred commit record (injected stall) is flushed by the next pump
/// and counted; the stream ends up holding the decision.
#[test]
fn stalled_commit_records_are_flushed_by_the_pump() {
    // Dry-run the deterministic walk to find the first cross-shard event
    // and one of its non-home participants.
    let (mut dry, _, _) = durable_plane(SHARDS, None);
    let mut dry_script = Run::new(dry.run().spec_arc());
    let mut found: Option<(usize, ShardId)> = None;
    for i in 0..40 {
        let event = next_event(&mut dry_script, i);
        dry_script
            .push(event.clone())
            .expect("scripted walk replays");
        let bc = dry.submit(event).expect("healthy plane accepts");
        if bc.stamps.len() > 1 {
            let other = bc
                .stamps
                .iter()
                .map(|(s, _)| *s)
                .find(|s| *s != bc.home)
                .expect("cross-shard events have a second participant");
            found = Some((i, other));
            break;
        }
    }
    let (steps, other) = found.expect("the walk reaches a cross-shard event");
    // Replay the same walk with that participant's commit record stalled.
    let (mut plane, mems, _) = durable_plane(SHARDS, None);
    let mut script = Run::new(plane.run().spec_arc());
    plane.inject_commit_stall(other);
    for i in 0..=steps {
        let event = next_event(&mut script, i);
        script.push(event.clone()).expect("scripted walk replays");
        plane.submit(event).expect("healthy plane accepts");
    }
    plane.pump();
    assert!(
        plane.admission_stats().pending_commit_flushes >= 1,
        "a stalled commit record is flushed by the pump"
    );
    assert_eq!(plane.pending_commit_flushes(), 0);
    let commits: usize = mems
        .iter()
        .map(|m| {
            parse_lines(&m.bytes())
                .iter()
                .filter(|(k, _, _)| *k == 'c')
                .count()
        })
        .sum();
    assert_eq!(
        commits as u64,
        plane.admission_stats().commits_written,
        "every commit record eventually lands on disk"
    );
    assert!(plane.converge(500).is_converged());
    assert!(plane.state_matches(script.current()));
}

/// The commit-heavy chaos profile: a pinned seed runs green through all
/// shard oracles at 4 shards, and same-seed executions are byte-identical.
#[test]
fn commit_heavy_chaos_is_green_and_deterministic() {
    let sim = ChaosSim::new(default_spec(), ChaosProfile::CommitHeavy, 4);
    let trace = sim.generate(11, 60);
    assert_eq!(trace, sim.generate(11, 60));
    let a = sim.run_trace(11, &trace).expect("seed 11 is green");
    let b = sim.run_trace(11, &trace).expect("seed 11 is green");
    assert_eq!(
        a.transcript, b.transcript,
        "same-seed commit-heavy transcripts must be byte-identical"
    );
    assert_eq!(a, b, "same-seed commit-heavy reports must be equal");
    let rendered = trace.iter().map(|t| t.to_string()).collect::<Vec<_>>();
    assert!(
        rendered
            .iter()
            .any(|t| t.starts_with("cstall") || t == "cabort" || t.starts_with("rcrash")),
        "the commit-heavy generator must emit protocol faults: {rendered:?}"
    );
}

/// A short commit-heavy sweep stays green across seeds and shard counts —
/// the smoke slice of the nightly battery.
#[test]
fn commit_heavy_smoke_sweep_stays_green() {
    for shards in [1usize, 2, 4] {
        let sim = ChaosSim::new(default_spec(), ChaosProfile::CommitHeavy, shards);
        for seed in 0..8 {
            if let Err(f) = sim.check_seed(seed, 40) {
                panic!("commit-heavy seed {seed} at {shards} shards went red:\n{f}");
            }
        }
    }
}
