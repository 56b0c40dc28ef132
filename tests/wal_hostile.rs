//! Hostile bytes against the WAL stream decoder. Whatever the streams
//! hold, recovery (`ShardPlane::replay_wals`, and `ShardPlane::recover`,
//! which must agree with it) must not panic: it recovers a prefix of the
//! logged events or refuses with a typed [`WalError`].
//!
//! Four families of input:
//! - random bytes, bare or behind a valid header;
//! - a valid single-shard stream with one byte flipped, inserted or
//!   deleted at any offset;
//! - a valid single-shard stream truncated at any offset;
//! - CRC-sealed records of every kind whose payloads are hostile: a real
//!   payload with its numbers pushed to the edges of their types or one
//!   token replaced, or hostile tokens. Sealing is the only way bytes get
//!   past the checksum to the payload decoders, so this is how the
//!   snapshot decoder (`s` records) gets random payloads.
//!
//! The CRC lets the first three families only *shorten* a stream, so their
//! outcome is checked exactly: the recovered instance is the replay of a
//! prefix of the logged events. A sealed record can forge any event, so it
//! is held only to "no panic, and any refusal is `Tampered`".

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use collab_workflows::engine::chaos::default_spec;
use collab_workflows::engine::transport::Transport;
use collab_workflows::engine::wal::{crc32, WAL_HEADER};
use collab_workflows::engine::{
    candidates, complete, Event, MemBackend, PerfectTransport, RecoveryReport, Run, ShardId,
    ShardPlane, ShardPlaneConfig, SyncPolicy, Wal, WalBackend, WalError, WalOptions,
};
use collab_workflows::lang::WorkflowSpec;
use collab_workflows::model::Instance;

const EVENTS: usize = 10;

fn opts(snapshot_every: Option<u64>) -> WalOptions {
    WalOptions {
        sync: SyncPolicy::Always,
        snapshot_every,
    }
}

/// A durable plane with one stream per backend in `mems`.
fn plane(spec: &Arc<WorkflowSpec>, mems: &[MemBackend], opts: WalOptions) -> ShardPlane {
    let wals: Vec<Wal> = mems
        .iter()
        .map(|m| Wal::create(Box::new(m.clone()), opts).expect("fresh backend"))
        .collect();
    let transports: Vec<Box<dyn Transport>> = mems
        .iter()
        .map(|_| Box::new(PerfectTransport::new()) as Box<dyn Transport>)
        .collect();
    ShardPlane::with_parts(
        Arc::clone(spec),
        transports,
        Some(wals),
        ShardPlaneConfig::with_shards(mems.len()),
    )
}

/// Submits `n` random accepted events; returns them.
fn drive(plane: &mut ShardPlane, script: &mut Run, rng: &mut StdRng, n: usize) -> Vec<Event> {
    let mut events = Vec::new();
    while events.len() < n {
        let cands = candidates(script);
        assert!(!cands.is_empty(), "the editorial spec always has a rule");
        let cand = cands[rng.gen_range(0..cands.len())].clone();
        let event = complete(script, &cand);
        if script.push(event.clone()).is_err() {
            continue; // chase rejection: try another candidate
        }
        plane.submit(event.clone()).expect("healthy plane accepts");
        events.push(event);
    }
    events
}

/// A single-shard stream of `EVENTS` logged events and the instance after
/// each prefix of them (`states[k]` holds the first `k`).
fn logged(seed: u64, snapshot_every: Option<u64>) -> (Vec<u8>, Vec<Instance>) {
    let spec = default_spec();
    let mem = MemBackend::new();
    let mut plane = plane(&spec, std::slice::from_ref(&mem), opts(snapshot_every));
    let mut script = Run::new(Arc::clone(&spec));
    let events = drive(
        &mut plane,
        &mut script,
        &mut StdRng::seed_from_u64(seed),
        EVENTS,
    );
    let mut replay = Run::new(spec);
    let mut states = vec![replay.current().clone()];
    for e in events {
        replay.push(e).expect("accepted events replay");
        states.push(replay.current().clone());
    }
    (mem.bytes(), states)
}

/// Two streams holding every record kind: key-local `e`, cross-shard
/// `p`/`c`, snapshots `s`, and on the router stream an aborted rebalance
/// (`m`, `x`) and a committed one (`m`, `f`), in an order the seed picks,
/// so that either plan record can be the last one recovery resolves.
fn every_kind(seed: u64) -> Vec<Vec<u8>> {
    let spec = default_spec();
    let mems = [MemBackend::new(), MemBackend::new()];
    let mut plane = plane(&spec, &mems, opts(Some(3)));
    let mut script = Run::new(Arc::clone(&spec));
    let mut rng = StdRng::seed_from_u64(seed);
    drive(&mut plane, &mut script, &mut rng, 6);
    let commit_first = seed.is_multiple_of(2);
    for commit in [commit_first, !commit_first] {
        if commit {
            assert!(plane
                .begin_rebalance(ShardId(0), ShardId(1))
                .expect("healthy plane"));
            plane.step_reshard(usize::MAX);
            assert!(plane.finish_reshard().expect("healthy plane"));
        } else {
            assert!(plane
                .begin_rebalance(ShardId(1), ShardId(0))
                .expect("healthy plane"));
            assert!(plane.abort_reshard());
        }
        drive(&mut plane, &mut script, &mut rng, 3);
    }
    mems.iter().map(|m| m.bytes()).collect()
}

/// Replays `streams` through the plane's recovery path, both as a dry run
/// and as a full restart, which must agree.
fn replay(streams: &[Vec<u8>]) -> Result<(Run, RecoveryReport), WalError> {
    let backends = || -> Vec<Box<dyn WalBackend>> {
        streams
            .iter()
            .map(|b| Box::new(MemBackend::from_bytes(b.clone())) as Box<dyn WalBackend>)
            .collect()
    };
    let spec = default_spec();
    let dry = ShardPlane::replay_wals(&spec, backends());
    let transports: Vec<Box<dyn Transport>> = streams
        .iter()
        .map(|_| Box::new(PerfectTransport::new()) as Box<dyn Transport>)
        .collect();
    let restart = ShardPlane::recover(
        spec,
        backends(),
        opts(None),
        transports,
        ShardPlaneConfig::with_shards(streams.len()),
    );
    match (&dry, &restart) {
        (Ok((run, report)), Ok((plane, again))) => {
            assert_eq!(report, again, "dry run and restart report alike");
            assert!(
                plane.state_matches(run.current()),
                "dry run and restart agree"
            );
        }
        (Err(e), Err(again)) => assert_eq!(e, again, "dry run and restart refuse alike"),
        _ => panic!(
            "dry run and restart disagree: {dry:?} vs {:?}",
            restart.map(|r| r.1)
        ),
    }
    dry
}

/// Recovery of a CRC-guarded stream recovers a prefix of the logged events
/// or refuses with a header or tamper error.
fn assert_prefix_or_refused(stream: Vec<u8>, states: &[Instance]) -> Result<(), TestCaseError> {
    match replay(&[stream]) {
        Ok((run, report)) => {
            let k = report.last_seq as usize;
            prop_assert!(
                k < states.len(),
                "recovered {k} events, only {EVENTS} logged"
            );
            prop_assert!(
                run.current() == &states[k],
                "the recovered instance must be the replay of the first {k} events"
            );
        }
        Err(e) => prop_assert!(
            matches!(e, WalError::BadHeader | WalError::Tampered { .. }),
            "recovery of hostile bytes must refuse with a typed error: {e}"
        ),
    }
    Ok(())
}

/// One record line (without its newline) with a valid CRC.
fn sealed(kind: u8, seq: u64, payload: &str) -> String {
    let kind = kind as char;
    let crc = crc32(format!("{kind} {seq} {payload}").as_bytes());
    format!("{kind} {seq} {crc:08x} {payload}")
}

/// Tokens that sit at the edges of what the payload decoders parse.
const HOSTILE: &[&str] = &[
    "",
    "0",
    "1",
    "-1",
    "65535",
    "65536",
    "4294967295",
    "18446744073709551615",
    "18446744073709551616",
    "w",
    "w0",
    "w18446744073709551615",
    "g",
    "g0",
    "g18446744073709551615",
    "t",
    "t0.0.0",
    "t1.2",
    "t18446744073709551615.4294967295.65535",
    "t1.1.65536",
    "e0",
    "e1",
    "e18446744073709551615",
    "ksplit",
    "kmerge",
    "krebal",
    "s0",
    "s65535",
    "d1",
    "d65535",
    "0:0",
    "1:0",
    "1:1",
    "2:0,1",
    "2:1,0,1,0",
    "65535:0",
    "1:",
    ":",
    ",",
    "_",
    "f:0",
    "f:18446744073709551615",
    "i:-9223372036854775808",
    "b:true",
    "s:\"",
    "s:\"x\"",
    "s:\"\\",
    "s:\"draft\"",
    "draft",
    "publish",
    "\"",
    "\\",
    "\u{fffd}",
];

fn hostile(i: usize) -> &'static str {
    HOSTILE[i % HOSTILE.len()]
}

/// Numbers at the edges of the integer types the decoders parse into.
const EDGES: &[&str] = &[
    "0",
    "1",
    "2",
    "65534",
    "65535",
    "65536",
    "4294967294",
    "4294967295",
    "4294967296",
    "18446744073709551614",
    "18446744073709551615",
    "18446744073709551616",
];

/// `token` with one of its digit runs (picked by `pick`) replaced by an
/// edge number.
fn edge_numbers(token: &str, pick: usize) -> String {
    let mut runs = Vec::new();
    let mut start = None;
    for (i, c) in token.char_indices().chain([(token.len(), ' ')]) {
        match (c.is_ascii_digit(), start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                runs.push(s..i);
                start = None;
            }
            _ => {}
        }
    }
    if runs.is_empty() {
        return token.to_string();
    }
    let run = runs[pick % runs.len()].clone();
    let edge = EDGES[(pick / runs.len()) % EDGES.len()];
    format!("{}{edge}{}", &token[..run.start], &token[run.end..])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random bytes, bare or behind a valid header, in one to three
    /// streams: never a panic, never a recovered event.
    #[test]
    fn random_bytes_never_panic_recovery(
        streams in prop::collection::vec(
            (0u8..2, prop::collection::vec(0u8..=255, 0..200)),
            1..4,
        ),
    ) {
        let streams: Vec<Vec<u8>> = streams
            .into_iter()
            .map(|(headed, noise)| {
                let mut bytes = Vec::new();
                if headed == 1 {
                    bytes.extend_from_slice(format!("{WAL_HEADER}\n").as_bytes());
                }
                bytes.extend_from_slice(&noise);
                bytes
            })
            .collect();
        match replay(&streams) {
            Ok((run, report)) => {
                prop_assert_eq!(report.last_seq, 0);
                prop_assert!(run.is_empty());
            }
            Err(e) => prop_assert!(
                matches!(e, WalError::BadHeader | WalError::Tampered { .. }),
                "random bytes must be refused with a typed error: {}", e
            ),
        }
    }

    /// One byte flipped, inserted or deleted anywhere in a valid stream.
    #[test]
    fn mutated_stream_recovers_a_prefix_or_refuses(
        seed in 0u64..1_000,
        snapshot_every in prop_oneof![Just(None), Just(Some(3u64))],
        op in 0u8..3,
        at in 0usize..1_000_000,
        byte in 0u8..=255,
    ) {
        let (mut stream, states) = logged(seed, snapshot_every);
        match op {
            0 => {
                let i = at % stream.len();
                stream[i] ^= byte.max(1);
            }
            1 => stream.insert(at % (stream.len() + 1), byte),
            _ => {
                stream.remove(at % stream.len());
            }
        }
        assert_prefix_or_refused(stream, &states)?;
    }

    /// A valid stream truncated at any offset.
    #[test]
    fn truncated_stream_recovers_a_prefix(
        seed in 0u64..1_000,
        snapshot_every in prop_oneof![Just(None), Just(Some(3u64))],
        at in 0usize..1_000_000,
    ) {
        let (mut stream, states) = logged(seed, snapshot_every);
        stream.truncate(at % (stream.len() + 1));
        assert_prefix_or_refused(stream, &states)?;
    }

    /// A CRC-sealed record with a hostile payload, in place of a record of
    /// the drawn kind (any record if the corpus has none of that kind),
    /// keeping its seq so the stream stays dense. The payload is the real
    /// one with numbers pushed to their edges, the real one with a token
    /// replaced, or hostile tokens behind the real record's leading
    /// gid/count/stamp fields, so they reach the event, plan and snapshot
    /// decoders.
    #[test]
    fn sealed_hostile_payloads_are_refused_not_panicked(
        seed in 0u64..1_000,
        kind in 0usize..8,
        record in 0usize..1_000,
        shape in 0u8..3,
        picks in prop::collection::vec(0usize..1_000, 1..12),
    ) {
        let kind = b"espcamfx"[kind];
        let mut streams = every_kind(seed);
        let texts: Vec<String> = streams
            .iter()
            .map(|b| String::from_utf8(b.clone()).expect("streams are line text"))
            .collect();
        let records: Vec<(usize, usize)> = texts
            .iter()
            .enumerate()
            .flat_map(|(s, t)| (1..t.lines().count()).map(move |i| (s, i)))
            .collect();
        let of_kind: Vec<(usize, usize)> = records
            .iter()
            .copied()
            .filter(|&(s, i)| texts[s].lines().nth(i).expect("line").as_bytes()[0] == kind)
            .collect();
        let pool = if of_kind.is_empty() { &records } else { &of_kind };
        let (stream, idx) = pool[record % pool.len()];
        let mut lines: Vec<&str> = texts[stream].lines().collect();
        let fields: Vec<&str> = lines[idx].splitn(4, ' ').collect();
        let seq: u64 = fields[1].parse().expect("dense seq");
        let mut tokens: Vec<String> = fields[3].split(' ').map(str::to_string).collect();
        match shape {
            0 => {
                for (n, &pick) in picks.iter().enumerate() {
                    let j = pick % tokens.len();
                    tokens[j] = edge_numbers(&tokens[j], picks[picks.len() - 1 - n]);
                }
            }
            1 => {
                let j = picks[0] % tokens.len();
                tokens[j] = hostile(picks[picks.len() - 1]).to_string();
            }
            _ => {
                let keep = match kind {
                    b'e' => 1,
                    b's' | b'p' => 2,
                    _ => 0,
                };
                tokens.truncate(keep);
                tokens.extend(picks.iter().map(|&i| hostile(i).to_string()));
            }
        }
        let forged = sealed(kind, seq, &tokens.join(" "));
        lines[idx] = &forged;
        let mut bytes = lines.join("\n").into_bytes();
        bytes.push(b'\n');
        streams[stream] = bytes;
        if let Err(e) = replay(&streams) {
            prop_assert!(
                matches!(e, WalError::Tampered { .. }),
                "a sealed hostile record must be refused as tampering: {}", e
            );
        }
    }
}
