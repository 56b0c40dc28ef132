//! The sharded state plane, end to end: multi-shard convergence under
//! faults, partitions, failovers, HLC causality, per-slice stall
//! breakdowns, and pinned shard-chaos seeds with a same-seed determinism
//! audit.

use std::sync::Arc;

use collab_workflows::engine::chaos::{default_spec, ChaosProfile, ChaosSim};
use collab_workflows::engine::shard::{ShardConvergence, ShardLink};
use collab_workflows::engine::transport::Transport;
use collab_workflows::engine::{candidates, complete, FaultPlan, FaultyTransport, WalBackend};
use collab_workflows::prelude::*;

const STEPS: usize = 60;

/// Drives `n` submissions through a deterministic candidate walk: always
/// pick the `(i * 7 + 3) % len`-th candidate, completing head-only
/// variables with run-fresh values. Returns the events in order.
fn scripted_events(run_seed: &mut Run, n: usize) -> Vec<Event> {
    let mut events = Vec::new();
    for i in 0..n {
        let cands = candidates(run_seed);
        if cands.is_empty() {
            break;
        }
        let cand = &cands[(i * 7 + 3) % cands.len()];
        let event = complete(run_seed, cand);
        run_seed
            .push(event.clone())
            .expect("scripted candidates replay");
        events.push(event);
    }
    events
}

/// A 4-shard plane over faulty per-shard transports, with partitions cut
/// mid-run and a failover, still converges to the exact instance and view
/// of a clean shadow run after heal.
#[test]
fn four_shard_plane_converges_under_faults_partitions_and_failover() {
    let spec = default_spec();
    let mut script = Run::new(Arc::clone(&spec));
    let events = scripted_events(&mut script, 14);

    let transports: Vec<Box<dyn Transport>> = (0..4)
        .map(|s| {
            Box::new(FaultyTransport::new(
                FaultPlan::seeded(41 + s).with_rates(0.25, 0.10, 0.30, 3, 0.25),
            )) as Box<dyn Transport>
        })
        .collect();
    let mut plane = ShardPlane::with_parts(
        Arc::clone(&spec),
        transports,
        None,
        ShardPlaneConfig {
            delivery: DeliveryConfig {
                resync_lag: 6,
                ..DeliveryConfig::default()
            },
            ..ShardPlaneConfig::with_shards(4)
        },
    );

    for (i, event) in events.iter().enumerate() {
        if i == 3 {
            plane.partition_link(ShardId(1), ShardLink::Peer(PeerId(0)));
            plane.partition_link(ShardId(2), ShardLink::Standby);
        }
        if i == 8 {
            // Fail shard 2 over while its standby link is cut: promotion
            // must replay the oplog tail past the stale watermark.
            plane.failover(
                ShardId(2),
                Box::new(FaultyTransport::new(
                    FaultPlan::seeded(99).with_rates(0.15, 0.05, 0.20, 2, 0.10),
                )),
            );
        }
        plane.submit(event.clone()).expect("plane accepts");
    }
    assert!(plane.plane_stats().failovers >= 1);
    assert!(plane.plane_stats().partitions_cut >= 2);
    assert!(
        plane.plane_stats().cross_shard_events > 0,
        "a 4-shard run must split some events across shards"
    );

    plane.heal();
    match plane.converge(5_000) {
        ShardConvergence::Converged { .. } => {}
        s @ ShardConvergence::Stalled { .. } => panic!("plane must settle after heal: {s}"),
    }
    assert!(
        plane.state_matches(script.current()),
        "union of shard states must equal the single-shard shadow run"
    );
    for p in spec.collab().peer_ids() {
        assert!(
            plane
                .union_replica(p)
                .matches(&spec.collab().view_of(script.current(), p)),
            "converged replica union of peer {} must equal view_of",
            spec.collab().peer_name(p)
        );
    }
}

/// HLC causality across the broadcast log: admission stamps strictly
/// increase, every shard's oplog entry orders strictly between its event's
/// admission and the next admission, and per-shard oplog stamps increase
/// with the sequence number — including across a failover.
#[test]
fn hlc_stamps_are_consistent_with_causal_delivery() {
    let spec = default_spec();
    let mut script = Run::new(Arc::clone(&spec));
    let events = scripted_events(&mut script, 12);
    let mut plane = ShardPlane::new(Arc::clone(&spec), 4);
    for (i, event) in events.iter().enumerate() {
        if i == 6 {
            plane.failover(ShardId(0), Box::new(PerfectTransport::new()));
        }
        plane.submit(event.clone()).expect("plane accepts");
    }

    let log = plane.log();
    assert_eq!(log.len(), events.len());
    for pair in log.windows(2) {
        assert!(
            pair[0].admitted < pair[1].admitted,
            "admission stamps must strictly increase"
        );
        for (_, stamp) in &pair[0].stamps {
            assert!(*stamp > pair[0].admitted, "entries order above admission");
            assert!(
                *stamp < pair[1].admitted,
                "entries order below the next admission"
            );
        }
    }
    for s in plane.map().shard_ids() {
        let entries = plane.oplog(s).entries();
        for pair in entries.windows(2) {
            assert!(
                pair[0].stamp < pair[1].stamp,
                "per-shard oplog stamps must increase with seq ({s})"
            );
        }
    }
}

/// Stalls break down per (shard, peer) slice: cut one link, overflow the
/// tick budget, and the convergence report names exactly the cut slice.
#[test]
fn stalls_report_per_shard_per_peer_slices() {
    let spec = default_spec();
    let mut script = Run::new(Arc::clone(&spec));
    let events = scripted_events(&mut script, 6);
    let mut plane = ShardPlane::new(Arc::clone(&spec), 2);
    // Find a shard that actually owns deltas for peer 0 by submitting
    // everything with one link down on each shard for peer 0.
    plane.partition_link(ShardId(0), ShardLink::Peer(PeerId(0)));
    plane.partition_link(ShardId(1), ShardLink::Peer(PeerId(0)));
    for event in &events {
        plane.submit(event.clone()).expect("plane accepts");
    }
    match plane.converge(50) {
        ShardConvergence::Converged { .. } => {
            panic!("a fully partitioned peer cannot converge")
        }
        stalled @ ShardConvergence::Stalled { .. } => {
            let ShardConvergence::Stalled {
                ref undelivered,
                ref divergent,
            } = stalled
            else {
                unreachable!()
            };
            assert!(stalled.undelivered_total() > 0);
            for (_, p, n) in undelivered {
                assert_eq!(*p, PeerId(0), "only the cut peer may stall");
                assert!(*n > 0, "stalled slices carry positive counts");
            }
            for (_, p) in divergent {
                assert_eq!(*p, PeerId(0), "only the cut peer may diverge");
            }
            let display = stalled.to_string();
            assert!(
                display.contains("/p0:"),
                "the report names shard/peer slices: {display}"
            );
        }
    }
    // Healing the links drains the backlog completely.
    plane.heal_link(ShardId(0), ShardLink::Peer(PeerId(0)));
    plane.heal_link(ShardId(1), ShardLink::Peer(PeerId(0)));
    assert!(plane.converge(500).is_converged());
}

/// The plane survives full-process crash recovery: rebuild from the WAL,
/// repartition across fresh shards, and converge to the same state.
#[test]
fn plane_recovers_from_its_wal_and_repartitions() {
    let spec = default_spec();
    let mut script = Run::new(Arc::clone(&spec));
    let events = scripted_events(&mut script, 10);

    let mems: Vec<MemBackend> = (0..3).map(|_| MemBackend::new()).collect();
    let opts = WalOptions {
        sync: SyncPolicy::Always,
        snapshot_every: Some(4),
    };
    let wals: Vec<Wal> = mems
        .iter()
        .map(|m| Wal::create(Box::new(m.clone()), opts).expect("fresh backend"))
        .collect();
    let transports: Vec<Box<dyn Transport>> = (0..3)
        .map(|_| Box::new(PerfectTransport::new()) as Box<dyn Transport>)
        .collect();
    let mut plane = ShardPlane::with_parts(
        Arc::clone(&spec),
        transports,
        Some(wals),
        ShardPlaneConfig::with_shards(3),
    );
    for event in &events {
        plane.submit(event.clone()).expect("plane accepts");
    }
    drop(plane); // the process dies

    let transports: Vec<Box<dyn Transport>> = (0..3)
        .map(|_| Box::new(PerfectTransport::new()) as Box<dyn Transport>)
        .collect();
    let (mut plane, report) = ShardPlane::recover(
        Arc::clone(&spec),
        mems.iter()
            .map(|m| Box::new(MemBackend::from_bytes(m.bytes())) as Box<dyn WalBackend>)
            .collect(),
        opts,
        transports,
        ShardPlaneConfig::with_shards(3),
    )
    .expect("recovery succeeds");
    assert_eq!(report.last_seq, events.len() as u64);
    assert!(plane.state_matches(script.current()));
    assert!(plane.converge(500).is_converged());
    for p in spec.collab().peer_ids() {
        assert!(plane
            .union_replica(p)
            .matches(&spec.collab().view_of(script.current(), p)));
    }
}

/// Pinned shard-chaos seeds: the partition-heavy profile at 4 shards must
/// stay green and must actually exercise partitions and failovers.
#[test]
fn fixed_seed_partition_heavy_four_shards_passes_all_oracles() {
    let sim = ChaosSim::new(default_spec(), ChaosProfile::PartitionHeavy, 4);
    let report = match sim.check_seed(8, STEPS) {
        Ok(report) => report,
        Err(f) => panic!("shard chaos seed must stay green:\n{f}"),
    };
    assert!(report.events > 0, "trace must accept events");
    let plane_line = report
        .transcript
        .iter()
        .find(|l| l.starts_with("final plane:"))
        .expect("transcript records plane stats");
    assert!(
        plane_line.contains("failovers: 6"),
        "seed 8 is pinned to exercise failovers: {plane_line}"
    );
    assert!(
        plane_line.contains("handoffs_completed: 2"),
        "seed 8 is pinned to complete hand-offs: {plane_line}"
    );
}

/// The crash-heavy profile drives full-plane WAL recovery at 4 shards.
#[test]
fn fixed_seed_crash_heavy_four_shards_recovers_from_wal() {
    let sim = ChaosSim::new(default_spec(), ChaosProfile::CrashHeavy, 4);
    let report = match sim.check_seed(9, STEPS) {
        Ok(report) => report,
        Err(f) => panic!("shard chaos seed must stay green:\n{f}"),
    };
    assert!(report.restarts >= 2, "the plane must crash-restart");
    assert!(
        report.ft.recovered_events > 0,
        "recovery must replay events from the WAL"
    );
}

/// Determinism: two same-seed shard-chaos executions are byte-identical,
/// at 1 shard and at 4.
#[test]
fn same_seed_shard_runs_are_byte_identical() {
    for shards in [1usize, 4] {
        let sim = ChaosSim::new(default_spec(), ChaosProfile::PartitionHeavy, shards);
        let trace = sim.generate(23, STEPS);
        assert_eq!(trace, sim.generate(23, STEPS));
        let a = sim.run_trace(23, &trace).expect("seed 23 is green");
        let b = sim.run_trace(23, &trace).expect("seed 23 is green");
        assert_eq!(
            a.transcript, b.transcript,
            "same-seed shard transcripts must be byte-identical (shards={shards})"
        );
        assert_eq!(a, b, "same-seed shard reports must be equal");
    }
}

/// One grammar drives every shard count: a partition-heavy trace (which
/// contains `part`/`failover`/`handoff` tokens) runs green at 1 shard and
/// at 2.
#[test]
fn one_grammar_drives_both_harnesses() {
    let trace = ChaosSim::new(default_spec(), ChaosProfile::PartitionHeavy, 2).generate(5, STEPS);
    assert!(
        trace.iter().any(|a| {
            matches!(
                a,
                collab_workflows::engine::chaos::Action::Partition { .. }
                    | collab_workflows::engine::chaos::Action::ShardFailover { .. }
            )
        }),
        "the partition-heavy generator must emit shard actions"
    );
    for shards in [1, 2] {
        ChaosSim::new(default_spec(), ChaosProfile::PartitionHeavy, shards)
            .run_trace(5, &trace)
            .unwrap_or_else(|f| panic!("trace must be green at {shards} shards:\n{f}"));
    }
}
