//! Property tests of the fault-tolerance layer, end to end, on the
//! single-node deployment (a shards=1 plane): crash recovery from the
//! write-ahead log (snapshot + tail replay, torn-record truncation),
//! convergence of replicas under unreliable delivery after healing, and
//! codec robustness against truncation and byte corruption.

use std::sync::Arc;

use proptest::prelude::*;

use collab_workflows::engine::transport::Transport;
use collab_workflows::engine::{
    candidates, complete, decode_events, encode_event, encode_run, CoordinatorError,
    DeliveryConfig, Event, FaultPlan, FaultyTransport, FileBackend, IoFaultBackend, MemBackend,
    PerfectTransport, Run, ShardPlane, ShardPlaneConfig, SyncPolicy, Wal, WalBackend, WalOptions,
};
use collab_workflows::lang::{parse_workflow, WorkflowSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn spec() -> Arc<WorkflowSpec> {
    Arc::new(
        parse_workflow(
            r#"
            schema { Doc(K, State); Review(K); Seen(K); }
            peers {
                author sees Doc(*), Review(*);
                editor sees Doc(*), Review(*), Seen(*);
                public sees Doc(K, State) where State = "published", Seen(*);
            }
            rules {
                draft @ author: +Doc(d, "draft") :- ;
                review @ editor: +Review(r) :- Doc(d, "draft");
                publish @ editor:
                    -key Doc(d), +Doc(d2, "published")
                    :- Doc(d, "draft"), Review(r);
                note @ public: +Seen(s) :- Doc(d, "published");
                retract @ editor: -key Doc(d) :- Doc(d, "published");
            }
            "#,
        )
        .unwrap(),
    )
}

/// A single-shard plane over `transport`, journaling to `wal` when given.
fn single(
    spec: &Arc<WorkflowSpec>,
    transport: Box<dyn Transport>,
    wal: Option<Wal>,
    delivery: DeliveryConfig,
) -> ShardPlane {
    ShardPlane::with_parts(
        Arc::clone(spec),
        vec![transport],
        wal.map(|w| vec![w]),
        ShardPlaneConfig {
            delivery,
            ..ShardPlaneConfig::default()
        },
    )
}

/// Drives `steps` random submissions into the plane (some may be rejected
/// by the chase — that's fine) and returns the accepted events.
fn drive(c: &mut ShardPlane, rng: &mut StdRng, steps: usize) -> Vec<Event> {
    let mut accepted = Vec::new();
    for _ in 0..steps {
        let cands = candidates(c.run());
        if cands.is_empty() {
            break;
        }
        let pick = cands[rng.gen_range(0..cands.len())].clone();
        let mut scratch = c.run().clone();
        let event = complete(&mut scratch, &pick);
        match c.submit(event.clone()) {
            Ok(_) => accepted.push(event),
            Err(CoordinatorError::Engine(_)) => {}
            Err(e) => panic!("unexpected plane failure: {e}"),
        }
    }
    accepted
}

/// One random event applicable to `run`, completed with fresh values.
fn next_event(run: &Run, rng: &mut StdRng) -> Option<Event> {
    let cands = candidates(run);
    if cands.is_empty() {
        return None;
    }
    let pick = cands[rng.gen_range(0..cands.len())].clone();
    let mut scratch = run.clone();
    Some(complete(&mut scratch, &pick))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash the plane mid-append via a scheduled fault, recover from
    /// the surviving bytes (synced prefix + an arbitrary slice of unsynced
    /// bytes, ending in a torn record), and check: the recovered events are
    /// a prefix of the accepted ones, the in-flight event resubmits, and
    /// every replica audits clean.
    #[test]
    fn crash_recovery_preserves_a_durable_prefix(
        seed in 0u64..200,
        warmup in 1usize..8,
        torn_keep in 0usize..40,
        keep_unsynced in 0usize..120,
        policy in 0u8..3,
    ) {
        let spec = spec();
        let opts = WalOptions {
            sync: match policy {
                0 => SyncPolicy::Always,
                1 => SyncPolicy::EveryN(2),
                _ => SyncPolicy::Never,
            },
            snapshot_every: Some(3),
        };
        let backend = MemBackend::new();
        let wal = Wal::create(Box::new(backend.clone()), opts).unwrap();
        let mut c = single(
            &spec,
            Box::new(PerfectTransport::new()),
            Some(wal),
            DeliveryConfig::default(),
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let accepted = drive(&mut c, &mut rng, warmup);
        c.audit().unwrap();

        // Crash on the next append, keeping a torn prefix of that record.
        backend.schedule_crash(1, torn_keep);
        let mut in_flight = None;
        while let Some(event) = next_event(c.run(), &mut rng) {
            match c.submit(event.clone()) {
                Err(CoordinatorError::Wal(_)) => {
                    in_flight = Some(event);
                    break;
                }
                Err(CoordinatorError::Engine(_)) => continue,
                Ok(_) => panic!("append survived a scheduled crash"),
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        // Drafting is always enabled, so the crash must have fired.
        prop_assert!(backend.crashed());
        prop_assert!(c.degraded());
        // The in-flight event was rolled back out of memory; the degraded
        // plane still audits clean and rejects new mutations.
        prop_assert_eq!(c.run().len(), accepted.len());
        c.audit().unwrap();
        let lost = in_flight.expect("the crashing submit's event");
        prop_assert!(matches!(
            c.submit(lost.clone()),
            Err(CoordinatorError::Degraded)
        ));

        // What a restarted process finds: the synced prefix plus an
        // arbitrary amount of unsynced bytes.
        let survivor = backend.survivor(keep_unsynced);
        let (mut rc, report) = ShardPlane::recover(
            Arc::clone(&spec),
            vec![Box::new(survivor)],
            opts,
            vec![Box::new(PerfectTransport::new())],
            ShardPlaneConfig::with_shards(1),
        )
        .unwrap();

        // Durable events are a prefix of the accepted sequence — where the
        // crashing event itself may count as durable (its record can land
        // in full even though the ack was lost: torn_keep can cover it).
        // Recovery starts from the last snapshot, so the rebuilt run holds
        // only the tail: sequence numbers in (snapshot_seq, last_seq].
        let mut all = accepted.clone();
        all.push(lost.clone());
        let durable = report.last_seq as usize;
        let base = report.snapshot_seq.unwrap_or(0) as usize;
        prop_assert!(durable <= all.len(), "durable {} of {}", durable, all.len());
        prop_assert_eq!(rc.run().len(), durable - base);
        for (i, e) in rc.run().events().iter().enumerate() {
            prop_assert_eq!(
                encode_event(&spec, e),
                encode_event(&spec, &all[base + i]),
                "event {} diverged after recovery", base + i
            );
        }
        rc.audit().unwrap();

        // Resubmitting the in-flight event: if everything up to it survived
        // but it did not, it must be accepted (its body was enabled there
        // and its fresh values are unused). If its own record survived in
        // full, resubmission must be rejected as a duplicate (freshness).
        if durable == accepted.len() {
            rc.submit(lost).unwrap();
        } else if durable == all.len() {
            prop_assert!(matches!(
                rc.submit(lost),
                Err(CoordinatorError::Engine(_))
            ));
        } else {
            let _ = rc.submit(lost);
        }
        rc.audit().unwrap();
        let ft = rc.ft_stats();
        prop_assert_eq!(ft.recovered_events, report.events_replayed as u64);
    }

    /// Under dropped/duplicated/delayed/reordered delivery, replicas may
    /// lag — but after the network heals, retry and resync drive every
    /// replica back to `I@p` and the audit passes.
    #[test]
    fn unreliable_delivery_converges_after_healing(
        seed in 0u64..200,
        steps in 1usize..12,
        resync_lag in 1usize..6,
    ) {
        let spec = spec();
        let plan = FaultPlan::seeded(seed).with_rates(0.35, 0.25, 0.35, 3, 0.3);
        let config = DeliveryConfig {
            retry_backoff_base: 1,
            retry_backoff_cap: 8,
            resync_lag,
            resync_after_retries: 4,
        };
        let mut c = single(&spec, Box::new(FaultyTransport::new(plan)), None, config);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(7));
        let accepted = drive(&mut c, &mut rng, steps);
        prop_assert!(!accepted.is_empty(), "drafting is always enabled");

        c.heal();
        let verdict = c.converge(2_000);
        prop_assert!(verdict.is_converged(), "must converge after healing: {}", verdict);
        c.audit().unwrap();

        let ft = c.ft_stats();
        prop_assert!(ft.deltas_sent > 0);
        // Convergence implies every enqueued delta was eventually
        // acknowledged (directly or superseded by a resync snapshot).
        prop_assert!(ft.acks_received > 0);
    }

    /// Corrupting one byte of an encoded log never panics the decoder: it
    /// either still decodes (the corruption kept the line parseable) or
    /// reports the corrupted line.
    #[test]
    fn codec_survives_single_byte_corruption(
        seed in 0u64..200,
        steps in 1usize..10,
        offset_pick in 0usize..10_000,
        xor in 1u8..=255,
    ) {
        let spec = spec();
        let mut c = ShardPlane::new(Arc::clone(&spec), 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let accepted = drive(&mut c, &mut rng, steps);
        let log = encode_run(c.run());
        let mut bytes = log.clone().into_bytes();
        let offset = offset_pick % bytes.len();
        let flipped = bytes[offset] ^ xor;
        // Keep line structure intact: don't create or destroy newlines
        // (those cases shift line numbers; truncation covers them).
        prop_assert!(!bytes.is_empty());
        if bytes[offset] == b'\n' || flipped == b'\n' {
            return Ok(());
        }
        bytes[offset] = flipped;
        let corrupted_line = 1 + log.as_bytes()[..offset]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        match String::from_utf8(bytes) {
            // Corruption produced invalid UTF-8: the failure happens before
            // the codec, which is fine — nothing panicked.
            Err(_) => {}
            Ok(text) => match decode_events(&spec, &text) {
                Ok(events) => {
                    // A flip at the start of a line can turn it into a `#`
                    // comment, silently dropping that one event; any other
                    // surviving corruption keeps the event count.
                    let commented_out =
                        flipped == b'#' && (offset == 0 || log.as_bytes()[offset - 1] == b'\n');
                    if commented_out {
                        prop_assert!(events.len() >= accepted.len().saturating_sub(1));
                        prop_assert!(events.len() <= accepted.len());
                    } else {
                        prop_assert_eq!(events.len(), accepted.len());
                    }
                }
                Err(e) => prop_assert_eq!(
                    e.line(),
                    Some(corrupted_line),
                    "error must point at the corrupted line: {}", e
                ),
            },
        }
    }

    /// Storage faults against a *real file*: short writes mid-record, fsync
    /// failures, and disk-full (possibly mid-snapshot) leave a torn tail on
    /// disk. The plane degrades to read-only instead of halting,
    /// re-arms in place once the device stabilizes, and a later restart
    /// recovers exactly the accepted events from the file.
    #[test]
    fn file_backend_io_faults_degrade_rearm_and_recover(
        seed in 0u64..100,
        warmup in 1usize..6,
        fault_kind in 0u8..3,
    ) {
        let spec = spec();
        let path = std::env::temp_dir().join(format!(
            "cwf-io-fault-{}-{seed}-{warmup}-{fault_kind}.wal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let io = IoFaultBackend::new(
            Box::new(FileBackend::open(&path).unwrap()),
            FaultPlan::perfect(seed),
        );
        let opts = WalOptions {
            sync: SyncPolicy::Always,
            snapshot_every: Some(2),
        };
        let wal = Wal::create(Box::new(io.clone()), opts).unwrap();
        let mut c = single(
            &spec,
            Box::new(PerfectTransport::new()),
            Some(wal),
            DeliveryConfig::default(),
        );
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(17).wrapping_add(3));
        drive(&mut c, &mut rng, warmup);
        c.audit().unwrap();

        // Arm one storage fault. Disk-full caps the device just past the
        // current length, so the next event (or its follow-up snapshot)
        // lands only partially.
        let mut probe = io.clone();
        let used = WalBackend::len(&mut probe).unwrap();
        io.configure(|p| match fault_kind {
            0 => p.short_write_p = 1.0,
            1 => p.fsync_fail_p = 1.0,
            _ => p.disk_capacity = Some(used + 45),
        });

        // Submit until the plane degrades: either the submit fails
        // (event rolled back, resubmittable) or it succeeds but a torn
        // snapshot degraded the log.
        let mut in_flight = None;
        while let Some(event) = next_event(c.run(), &mut rng) {
            match c.submit(event.clone()) {
                Ok(_) => {
                    if c.degraded() {
                        break;
                    }
                }
                Err(CoordinatorError::Engine(_)) => continue,
                Err(CoordinatorError::Wal(_)) => {
                    in_flight = Some(event);
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        prop_assert!(c.degraded(), "drafting is always enabled: a fault must fire");

        // Degraded mode is read-only: reads and audits keep working,
        // mutations are refused.
        c.audit().unwrap();
        if let Some(event) = next_event(c.run(), &mut rng) {
            prop_assert!(matches!(c.submit(event), Err(CoordinatorError::Degraded)));
        }

        // The device stabilizes; the plane re-arms in place and the
        // rolled-back event (if any) resubmits with its original values.
        io.heal();
        io.configure(|p| p.disk_capacity = None);
        c.rearm().unwrap();
        prop_assert!(!c.degraded());
        if let Some(event) = in_flight {
            c.submit(event).unwrap();
        }
        drive(&mut c, &mut rng, 2);
        c.audit().unwrap();
        let expected: Vec<String> =
            c.run().events().iter().map(|e| encode_event(&spec, e)).collect();
        let ft = c.ft_stats();
        prop_assert!(ft.wal_failures >= 1);
        prop_assert_eq!(ft.degraded_recoveries, 1);

        // A restarted process recovers the full accepted sequence from the
        // file: the torn tail was re-armed away, every record replays.
        let (run, report) = ShardPlane::replay_wals(
            &spec,
            vec![Box::new(FileBackend::open(&path).unwrap())],
            opts,
        )
        .unwrap();
        let base = report.snapshot_seq.unwrap_or(0) as usize;
        prop_assert_eq!(report.last_seq as usize, expected.len());
        for (i, e) in run.events().iter().enumerate() {
            prop_assert_eq!(
                encode_event(&spec, e),
                expected[base + i].clone(),
                "event {} diverged after recovery", base + i
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Truncating an encoded log at any byte offset never panics the
    /// decoder: it either decodes the untouched prefix or reports the
    /// (final, torn) line.
    #[test]
    fn codec_survives_truncation(
        seed in 0u64..200,
        steps in 1usize..10,
        offset_pick in 0usize..10_000,
    ) {
        let spec = spec();
        let mut c = ShardPlane::new(Arc::clone(&spec), 1);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1_000));
        let accepted = drive(&mut c, &mut rng, steps);
        let log = encode_run(c.run());
        let cut = offset_pick % (log.len() + 1);
        // The log is pure ASCII, so any byte offset is a char boundary.
        prop_assert!(log.is_ascii());
        let prefix = &log[..cut];
        match decode_events(&spec, prefix) {
            Ok(events) => prop_assert!(events.len() <= accepted.len()),
            Err(e) => {
                let last_line = prefix.lines().count();
                prop_assert_eq!(
                    e.line(),
                    Some(last_line),
                    "only the torn final line may fail: {}", e
                );
            }
        }
    }
}
