//! The chaos harness as a regression suite: fixed seeds that must stay
//! green, a same-seed determinism audit, verbatim replay of the printed
//! repro format, and a demonstration (on a deliberately broken oracle)
//! that delta-debugging produces strictly smaller repro traces.
//!
//! When a nightly sweep finds a failing seed, pin it here: copy the
//! `CHAOS-FAIL`/`CHAOS-TRACE` lines into a test like
//! [`printed_repro_replays_verbatim`] and it will replay byte-for-byte.

use collab_workflows::engine::chaos::{
    default_spec, format_trace, parse_trace, Action, ChaosProfile, ChaosSim, EventCountOracle,
};
use collab_workflows::workloads::chaos_workload;

const STEPS: usize = 60;

fn run_seed(profile: ChaosProfile, seed: u64) -> collab_workflows::engine::chaos::TraceReport {
    let sim = ChaosSim::new(default_spec(), profile, 1);
    match sim.check_seed(seed, STEPS) {
        Ok(report) => report,
        Err(f) => panic!("chaos seed must stay green:\n{f}"),
    }
}

/// A default-profile seed: moderate network faults, healthy storage.
#[test]
fn fixed_seed_default_profile_passes_all_oracles() {
    let report = run_seed(ChaosProfile::Default, 7);
    assert!(report.events > 0, "trace must accept events");
}

/// A crash-heavy seed: the trace must actually crash and recover.
#[test]
fn fixed_seed_crash_heavy_exercises_restarts() {
    let report = run_seed(ChaosProfile::CrashHeavy, 9);
    assert!(report.events > 0, "trace must accept events");
    assert!(
        report.restarts >= 2,
        "a crash-heavy seed must crash-restart (got {})",
        report.restarts
    );
    assert!(
        report.ft.recovered_events > 0,
        "recovery must replay events from the WAL"
    );
}

/// A storage-heavy seed: WAL faults must fire and degraded mode must be
/// entered and left.
#[test]
fn fixed_seed_storage_heavy_exercises_degraded_mode() {
    let report = run_seed(ChaosProfile::StorageHeavy, 0);
    assert!(report.events > 0, "trace must accept events");
    assert!(
        report.ft.wal_failures > 0,
        "a storage-heavy seed must hit WAL failures (ft: {:?})",
        report.ft
    );
    assert!(
        report.ft.degraded_recoveries > 0,
        "the coordinator must re-arm out of degraded mode (ft: {:?})",
        report.ft
    );
}

/// A modification-heavy seed over the null-filling task-tracker spec: the
/// trace must modify tuples *in place* (claim/finish null-fills), driving
/// the incremental view plane through selection enter/leave transitions
/// under the differential view-plane oracle.
#[test]
fn fixed_seed_mod_heavy_exercises_in_place_modifications() {
    use collab_workflows::engine::chaos::modification_spec;
    for shards in [1, 4] {
        let sim = ChaosSim::new(modification_spec(), ChaosProfile::ModificationHeavy, shards);
        let report = match sim.check_seed(9, STEPS) {
            Ok(report) => report,
            Err(f) => panic!("chaos seed must stay green:\n{f}"),
        };
        assert!(report.events > 0, "trace must accept events");
        assert!(
            report.modified_tuples >= 10,
            "a modification-heavy seed must null-fill tuples in place (got {})",
            report.modified_tuples
        );
        assert!(
            report.restarts >= 1,
            "the plane must survive at least one crash-restart rebuild (got {})",
            report.restarts
        );
    }
}

/// The random-workload path stays green too (a different spec per seed).
#[test]
fn fixed_seeds_on_random_workloads_pass_all_oracles() {
    for seed in [3, 17] {
        let sim = ChaosSim::new(chaos_workload(seed).spec, ChaosProfile::CrashHeavy, 1);
        if let Err(f) = sim.check_seed(seed, STEPS) {
            panic!("random-workload chaos seed must stay green:\n{f}");
        }
    }
}

/// The provenance pinned seed: a crash-heavy random workload (deletions
/// common) under the default battery, which includes the provenance-sound
/// oracle — so the incrementally stepped provenance plane is compared to a
/// from-scratch rebuild after every single action, across crashes and
/// rollbacks. Same-seed executions must stay byte-identical with the
/// provenance mirror active.
#[test]
fn fixed_seed_provenance_oracle_stays_sound_and_deterministic() {
    let sim = ChaosSim::new(chaos_workload(21).spec, ChaosProfile::CrashHeavy, 1);
    let trace = sim.generate(21, STEPS);
    let a = sim
        .run_trace(21, &trace)
        .expect("provenance pinned seed is green");
    assert!(a.events > 0, "trace must accept events");
    let b = sim
        .run_trace(21, &trace)
        .expect("provenance pinned seed is green");
    assert_eq!(
        a, b,
        "same-seed reports must be byte-identical with the provenance mirror active"
    );
}

/// The determinism audit: two same-seed executions are byte-identical —
/// same transcript lines, same fault-tolerance counters, same everything.
#[test]
fn same_seed_runs_are_byte_identical() {
    for profile in [
        ChaosProfile::Default,
        ChaosProfile::CrashHeavy,
        ChaosProfile::StorageHeavy,
        ChaosProfile::ModificationHeavy,
    ] {
        let sim = ChaosSim::new(default_spec(), profile, 1);
        let trace = sim.generate(23, STEPS);
        assert_eq!(
            trace,
            sim.generate(23, STEPS),
            "trace generation must be deterministic"
        );
        let a = sim.run_trace(23, &trace).expect("seed 23 is green");
        let b = sim.run_trace(23, &trace).expect("seed 23 is green");
        assert_eq!(
            a.transcript,
            b.transcript,
            "same-seed transcripts must be byte-identical ({})",
            profile.name()
        );
        assert_eq!(a.ft, b.ft, "same-seed FtStats must be equal");
        assert_eq!(a, b, "same-seed reports must be equal");
    }
}

/// The pooled analyses must not leak nondeterminism into chaos traces: a
/// trace spiked with a `pcancel` probe after *every* generated action (so
/// the parallel audit + solver differential run dozens of times, at every
/// fault state) still produces byte-identical transcripts across runs.
#[test]
fn parallel_probes_do_not_leak_nondeterminism_into_traces() {
    let sim = ChaosSim::new(default_spec(), ChaosProfile::CrashHeavy, 1);
    let mut trace = Vec::new();
    for action in sim.generate(13, STEPS) {
        trace.push(action);
        trace.push(Action::ParCancel);
    }
    let a = sim.run_trace(13, &trace).expect("spiked seed 13 is green");
    let b = sim.run_trace(13, &trace).expect("spiked seed 13 is green");
    assert_eq!(
        a.transcript, b.transcript,
        "pcancel-spiked transcripts must be byte-identical"
    );
    assert_eq!(a, b, "pcancel-spiked reports must be equal");
    assert!(
        a.transcript.iter().any(|line| line.contains("pcancel")),
        "the spiked probes must show up in the transcript"
    );
}

/// The printed repro format survives a round trip and replays verbatim:
/// `format_trace` → `parse_trace` → `run_trace` reproduces the report.
#[test]
fn printed_repro_replays_verbatim() {
    let sim = ChaosSim::new(default_spec(), ChaosProfile::CrashHeavy, 1);
    let trace = sim.generate(11, STEPS);
    let reparsed = parse_trace(&format_trace(&trace)).expect("printed traces parse");
    assert_eq!(reparsed, trace);
    let a = sim.run_trace(11, &trace).expect("seed 11 is green");
    let b = sim.run_trace(11, &reparsed).expect("seed 11 is green");
    assert_eq!(a, b, "replaying the printed trace must be identical");
}

/// The shrinking demonstration: plug in a deliberately broken oracle (it
/// rejects any history longer than three events) and check that the failing
/// trace minimizes to a strictly smaller repro that still fails — and that
/// the minimized repro replays verbatim through the text format.
#[test]
fn broken_oracle_failures_shrink_to_smaller_repros() {
    let sim = ChaosSim::new(default_spec(), ChaosProfile::Default, 1)
        .with_oracle(|| Box::new(EventCountOracle { limit: 3 }));
    let failure = sim
        .check_seed(7, STEPS)
        .expect_err("the broken oracle must fire on a green seed");
    assert_eq!(failure.oracle, "event-count");
    let minimized = failure
        .minimized
        .as_ref()
        .expect("check_seed minimizes failures");
    assert!(
        minimized.len() < failure.trace.len(),
        "minimized repro ({} actions) must be strictly smaller than the \
         original trace ({} actions)",
        minimized.len(),
        failure.trace.len()
    );
    // Only submits can grow the history, so a 1-minimal repro for
    // "more than 3 events" is exactly 4 actions.
    assert_eq!(
        minimized.len(),
        4,
        "repro should be 1-minimal: {}",
        format_trace(minimized)
    );
    // The printed repro replays verbatim and still trips the same oracle.
    let replayed = parse_trace(&format_trace(minimized)).expect("repro parses");
    let refailure = sim
        .run_trace(failure.seed, &replayed)
        .expect_err("minimized repro must still fail");
    assert_eq!(refailure.oracle, "event-count");
}

/// Dev tool for picking new pinned seeds: `cargo test -q --test chaos
/// explore -- --ignored --nocapture` prints per-seed activity stats.
#[test]
#[ignore = "exploratory: prints per-seed stats for choosing pinned seeds"]
fn explore() {
    for profile in [
        ChaosProfile::Default,
        ChaosProfile::CrashHeavy,
        ChaosProfile::StorageHeavy,
    ] {
        let sim = ChaosSim::new(default_spec(), profile, 1);
        for seed in 0..20u64 {
            match sim.check_seed(seed, STEPS) {
                Ok(r) => println!(
                    "{:<13} seed={seed:<3} events={:<3} restarts={:<2} \
                     wal_failures={:<2} rearms={} recovered={:<3} \
                     converge_ticks={}",
                    profile.name(),
                    r.events,
                    r.restarts,
                    r.ft.wal_failures,
                    r.ft.degraded_recoveries,
                    r.ft.recovered_events,
                    r.converge_ticks
                ),
                Err(f) => println!("{:<13} seed={seed:<3} FAILED: {f}", profile.name()),
            }
        }
    }
}
