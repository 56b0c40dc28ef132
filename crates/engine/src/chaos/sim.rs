//! The seeded whole-system chaos simulator.
//!
//! A [`ChaosSim`] drives one [`ShardPlane`](crate::shard::ShardPlane)
//! deployment of a given shard count — per-shard durable WAL streams on
//! simulated disks, unreliable per-shard transports, standby replicas,
//! degraded mode, crash–restart — through generated [`Action`] traces, with
//! **every** source of nondeterminism derived from a single `u64` seed
//! (FoundationDB-style): the trace itself, the network fault schedules, and
//! the storage fault schedules all come from disjoint RNG streams of the
//! seed, and restarts re-derive their streams from `(seed, epoch)`.
//! Executing the same `(seed, trace)` twice is therefore byte-identical,
//! which is what makes the [`shrink`](crate::chaos::shrink) step sound and
//! every failure replayable from one printed line. At shards=1 the system
//! under test is the paper's master server; at N shards partitions,
//! failovers, cross-shard commits, and resharding get teeth.
//!
//! Alongside the live plane the simulator maintains a **shadow run**: the
//! full accepted history replayed from the empty instance. The shadow is
//! what the [oracles](crate::chaos::oracle) compare against — it survives
//! crashes and WAL snapshots, which the plane's own run does not.

use std::fmt;
use std::sync::Arc;

use cwf_lang::WorkflowSpec;
use cwf_model::{AttrId, Condition};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::chaos::actions::{format_trace, Action};
use crate::chaos::oracle::{default_oracles, Oracle};
use crate::chaos::shrink::ddmin;
use crate::chaos::world::World;
use crate::delivery::DeliveryConfig;
use crate::fault::FaultPlan;
use crate::shard::ShardPlaneConfig;
use crate::stats::FtStats;

/// Splits the one seed into independent streams (generation, network,
/// storage) and per-restart epochs.
pub(crate) fn mix(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt)
        .rotate_left(17)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

pub(crate) const GEN_SALT: u64 = 0x01;
pub(crate) const NET_SALT: u64 = 0x02;
pub(crate) const STORAGE_SALT: u64 = 0x03;

/// The fixed 12-atom selection condition of the [`Action::ParCancel`]
/// solver differential — wide enough (≥ 11 atoms) to engage the solver's
/// parallel split, structured enough (6 two-atom clauses) that the search
/// is not trivial.
pub(crate) fn par_probe_condition() -> Condition {
    Condition::and((0..6u32).map(|i| {
        Condition::or([
            Condition::eq_const(AttrId(i), i64::from(i)),
            Condition::neq_const(AttrId(i + 6), i64::from(i + 6)),
        ])
    }))
}

/// Which faults a chaos run emphasizes. The profile shapes both the fault
/// rates of the injected plans and the weights of the trace generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosProfile {
    /// Moderate network faults, healthy storage, occasional crashes.
    Default,
    /// Frequent crash–restarts over a moderately faulty network.
    CrashHeavy,
    /// Faulty storage (short writes, fsync failures, transient errors), so
    /// submits degrade the plane and rearm/recovery run hot.
    StorageHeavy,
    /// Submit-heavy traffic biased toward *modifying* candidates — inserts
    /// whose key already exists, so the chase null-fills tuples in place.
    /// Stresses the modified-tuple path of the incremental view plane
    /// (selection enter/leave, projection-only changes) under the
    /// differential view-plane oracle.
    ModificationHeavy,
    /// Link-level partitions, shard failovers, and hand-offs over a mildly
    /// faulty network: the robustness profile of the state plane (at
    /// shards=1 they cut peer and standby links, promote and hand off the
    /// one shard).
    PartitionHeavy,
    /// Cross-shard commit-protocol faults — stalled participant commits,
    /// post-prepare aborts, router deaths with in-doubt prepares — over a
    /// mildly faulty network and storage, plus regular crash–restarts so
    /// the presumed-abort recovery rule runs hot. At shards=1 every event
    /// commits locally, so the armed commit faults never fire.
    CommitHeavy,
    /// Elastic-resharding stress — live shard splits, merges, and
    /// rebalances interleaved with submits, failovers, hand-offs, router
    /// crashes, and mild storage faults, so migrations are regularly cut
    /// down mid-flight and must resolve through epoch-aware recovery (a
    /// shards=1 plane splits out of its single stream).
    ReshardHeavy,
}

impl ChaosProfile {
    /// Stable name, used by the driver's CLI and failure output.
    pub fn name(&self) -> &'static str {
        match self {
            ChaosProfile::Default => "default",
            ChaosProfile::CrashHeavy => "crash-heavy",
            ChaosProfile::StorageHeavy => "storage-heavy",
            ChaosProfile::ModificationHeavy => "mod-heavy",
            ChaosProfile::PartitionHeavy => "partition-heavy",
            ChaosProfile::CommitHeavy => "commit-heavy",
            ChaosProfile::ReshardHeavy => "reshard-heavy",
        }
    }

    /// The network fault plan of one epoch.
    pub(crate) fn transport_plan(&self, stream: u64) -> FaultPlan {
        let plan = FaultPlan::seeded(stream);
        match self {
            ChaosProfile::Default => plan.with_rates(0.15, 0.10, 0.25, 3, 0.20),
            ChaosProfile::CrashHeavy => plan.with_rates(0.20, 0.10, 0.25, 3, 0.20),
            ChaosProfile::StorageHeavy => plan.with_rates(0.10, 0.05, 0.15, 2, 0.10),
            ChaosProfile::ModificationHeavy => plan.with_rates(0.10, 0.05, 0.20, 2, 0.15),
            ChaosProfile::PartitionHeavy => plan.with_rates(0.08, 0.05, 0.15, 2, 0.10),
            ChaosProfile::CommitHeavy => plan.with_rates(0.08, 0.05, 0.15, 2, 0.10),
            ChaosProfile::ReshardHeavy => plan.with_rates(0.08, 0.05, 0.15, 2, 0.10),
        }
    }

    /// `(short_write_p, fsync_fail_p, transient_p)` of the simulated disk.
    pub(crate) fn storage_rates(&self) -> (f64, f64, f64) {
        match self {
            ChaosProfile::Default => (0.0, 0.0, 0.0),
            ChaosProfile::CrashHeavy => (0.0, 0.0, 0.0),
            ChaosProfile::StorageHeavy => (0.08, 0.10, 0.12),
            ChaosProfile::ModificationHeavy => (0.0, 0.0, 0.0),
            ChaosProfile::PartitionHeavy => (0.0, 0.0, 0.0),
            ChaosProfile::CommitHeavy => (0.02, 0.02, 0.08),
            ChaosProfile::ReshardHeavy => (0.02, 0.02, 0.06),
        }
    }

    /// Generator weights: submit, pump, crash, resync, rearm, cancel,
    /// pcancel, probe, partition, heal-partition, failover, handoff,
    /// commit-stall, commit-abort, router-crash, split, merge, rebalance.
    /// (Older profiles keep zero weight on the actions added after them —
    /// zero-weight entries draw nothing from the RNG, so their pinned seeds
    /// still generate byte-identical traces.)
    fn weights(&self) -> [u32; 18] {
        match self {
            ChaosProfile::Default => [40, 25, 5, 8, 6, 6, 4, 10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            ChaosProfile::CrashHeavy => [35, 18, 25, 8, 4, 4, 3, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            ChaosProfile::StorageHeavy => {
                [38, 15, 8, 5, 14, 6, 4, 14, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
            }
            ChaosProfile::ModificationHeavy => {
                [55, 20, 4, 6, 4, 3, 3, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
            }
            ChaosProfile::PartitionHeavy => {
                [34, 20, 3, 6, 3, 0, 0, 4, 12, 8, 5, 5, 0, 0, 0, 0, 0, 0]
            }
            ChaosProfile::CommitHeavy => [42, 16, 4, 5, 3, 0, 0, 3, 4, 4, 2, 2, 6, 5, 4, 0, 0, 0],
            ChaosProfile::ReshardHeavy => [38, 18, 4, 5, 3, 0, 0, 3, 3, 3, 2, 2, 0, 0, 2, 7, 5, 5],
        }
    }
}

/// Pump budget of the final post-heal convergence check.
pub(crate) const CONVERGE_BUDGET: u64 = 2_000;

/// WAL snapshot cadence (chaos keeps it low so crash–restart regularly
/// exercises snapshot-based recovery).
pub(crate) const SNAPSHOT_EVERY: Option<u64> = Some(5);

/// Executions the shrinker may spend minimizing one failure.
const SHRINK_BUDGET: usize = 400;

/// The plane configuration of every deployment under test, fresh or
/// recovered: `shards` shards whose delivery protocol resyncs after a short
/// unacknowledged lag.
pub(crate) fn plane_config(shards: usize) -> ShardPlaneConfig {
    ShardPlaneConfig {
        delivery: DeliveryConfig {
            resync_lag: 8,
            ..DeliveryConfig::default()
        },
        ..ShardPlaneConfig::with_shards(shards)
    }
}

/// What a clean trace execution produced (used by the driver's summary and
/// the determinism test).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceReport {
    /// Events accepted into the shadow run.
    pub events: usize,
    /// Tuples *modified in place* (null-filling chase merges) across the
    /// accepted history — the workload signal the modification-heavy
    /// profile maximizes.
    pub modified_tuples: usize,
    /// Crash–restarts executed.
    pub restarts: u64,
    /// Ticks the final post-heal convergence needed (0 when never healed).
    pub converge_ticks: u64,
    /// Fault-tolerance counters of the final plane epoch.
    pub ft: FtStats,
    /// One line per notable execution step — broadcasts, rejections,
    /// recoveries. Two same-seed runs must produce byte-identical
    /// transcripts; the determinism test asserts exactly that.
    pub transcript: Vec<String>,
}

/// A failed chaos run: the oracle that tripped, where, and the replayable
/// repro (`seed` + trace, optionally minimized).
#[derive(Debug, Clone)]
pub struct ChaosFailure {
    /// The seed the whole run derives from.
    pub seed: u64,
    /// The profile that was running.
    pub profile: ChaosProfile,
    /// Name of the violated oracle (or `action-invariant` /
    /// `cross-shard-convergence` for harness-level checks).
    pub oracle: String,
    /// Human-readable violation.
    pub detail: String,
    /// Index of the action after which the violation was detected.
    pub step: usize,
    /// The full failing trace.
    pub trace: Vec<Action>,
    /// The delta-debugged trace, when minimization ran.
    pub minimized: Option<Vec<Action>>,
}

impl ChaosFailure {
    /// The best repro trace available (minimized when present).
    pub fn repro(&self) -> &[Action] {
        self.minimized.as_deref().unwrap_or(&self.trace)
    }
}

impl fmt::Display for ChaosFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={} profile={} oracle={} step={}: {}\n  repro: {}",
            self.seed,
            self.profile.name(),
            self.oracle,
            self.step,
            self.detail,
            format_trace(self.repro()),
        )
    }
}

/// An action-invariant or oracle violation bubbling out of execution:
/// `(check name, detail)`.
pub(crate) type Violation = (String, String);

pub(crate) fn inv(detail: impl Into<String>) -> Violation {
    ("action-invariant".to_string(), detail.into())
}

/// The chaos harness: a spec, a fault profile, a shard count, and the
/// oracle battery. One sim is reusable across seeds; each
/// [`run_trace`](ChaosSim::run_trace) builds a fresh universe.
pub struct ChaosSim {
    spec: Arc<WorkflowSpec>,
    profile: ChaosProfile,
    shards: usize,
    #[allow(clippy::type_complexity)]
    extra: Vec<Box<dyn Fn() -> Box<dyn Oracle> + Send + Sync>>,
}

impl ChaosSim {
    /// A sim over `spec` with `shards` shards and the given fault profile.
    pub fn new(spec: Arc<WorkflowSpec>, profile: ChaosProfile, shards: usize) -> Self {
        assert!(shards >= 1, "a plane needs at least one shard");
        ChaosSim {
            spec,
            profile,
            shards,
            extra: Vec::new(),
        }
    }

    /// Builder: plugs an extra oracle into the battery. The factory is
    /// invoked once per trace execution, so stateful oracles start fresh.
    pub fn with_oracle(
        mut self,
        factory: impl Fn() -> Box<dyn Oracle> + Send + Sync + 'static,
    ) -> Self {
        self.extra.push(Box::new(factory));
        self
    }

    /// The active profile.
    pub fn profile(&self) -> ChaosProfile {
        self.profile
    }

    /// Generates the action trace of `seed`: `steps` weighted actions, then
    /// the closing `heal rearm pump` suffix so every seed exercises the
    /// post-heal convergence oracle.
    pub fn generate(&self, seed: u64, steps: usize) -> Vec<Action> {
        generate_trace(self.profile, seed, steps)
    }
}

/// Generates the `seed`-determined action trace of a profile. The trace
/// does not depend on the shard count, so one trace replays at any.
pub(crate) fn generate_trace(profile: ChaosProfile, seed: u64, steps: usize) -> Vec<Action> {
    let mut rng = StdRng::seed_from_u64(mix(seed, GEN_SALT));
    let weights = profile.weights();
    let total: u32 = weights.iter().sum();
    let mut out = Vec::with_capacity(steps + 3);
    for _ in 0..steps {
        let mut roll = rng.gen_range(0..total);
        let mut idx = 0usize;
        for (i, w) in weights.iter().enumerate() {
            if roll < *w {
                idx = i;
                break;
            }
            roll -= *w;
        }
        out.push(match idx {
            0 => Action::Submit {
                pick: rng.gen_range(0..=255u32),
            },
            1 => Action::Pump {
                ticks: rng.gen_range(1..=5u32),
            },
            2 => Action::CrashRestart {
                keep_unsynced: rng.gen_range(0..=96u32),
                corrupt: if rng.gen_bool(0.3) {
                    Some((rng.gen_range(0..=255u32), rng.gen_range(1..=255u32) as u8))
                } else {
                    None
                },
            },
            3 => Action::Resync,
            4 => Action::Rearm,
            5 => Action::GovernorCancel,
            6 => Action::ParCancel,
            7 => Action::DegradeProbe,
            8 => Action::Partition {
                link: rng.gen_range(0..=255u32),
            },
            9 => Action::HealPartition {
                link: rng.gen_range(0..=255u32),
            },
            10 => Action::ShardFailover {
                shard: rng.gen_range(0..=255u32),
            },
            11 => Action::Handoff {
                shard: rng.gen_range(0..=255u32),
            },
            12 => Action::CommitStall {
                shard: rng.gen_range(0..=255u32),
            },
            13 => Action::CommitAbort,
            14 => Action::RouterCrash {
                keep_unsynced: rng.gen_range(0..=96u32),
            },
            15 => Action::Split {
                src: rng.gen_range(0..=255u32),
            },
            16 => Action::Merge {
                src: rng.gen_range(0..=255u32),
                dst: rng.gen_range(0..=255u32),
            },
            _ => Action::Rebalance {
                src: rng.gen_range(0..=255u32),
                dst: rng.gen_range(0..=255u32),
            },
        });
    }
    out.push(Action::Heal);
    out.push(Action::Rearm);
    out.push(Action::Pump { ticks: 4 });
    out
}

impl ChaosSim {
    /// Executes `trace` deterministically from `seed` against a fresh
    /// universe, running the oracle battery after every action and the
    /// cross-shard convergence check at the end. The failure, if any, carries the *unminimized* trace; see
    /// [`check_seed`](ChaosSim::check_seed) for the shrinking entry point.
    pub fn run_trace(&self, seed: u64, trace: &[Action]) -> Result<TraceReport, ChaosFailure> {
        let fail = |step: usize, (oracle, detail): Violation| ChaosFailure {
            seed,
            profile: self.profile,
            oracle,
            detail,
            step,
            trace: trace.to_vec(),
            minimized: None,
        };
        let mut world = World::new(Arc::clone(&self.spec), self.profile, self.shards, seed);
        let mut oracles = default_oracles();
        for factory in &self.extra {
            oracles.push(factory());
        }
        for (step, action) in trace.iter().enumerate() {
            world.apply(action).map_err(|v| fail(step, v))?;
            let cp = world.checkpoint(step, action);
            for oracle in oracles.iter_mut() {
                if let Err(detail) = oracle.check(&cp) {
                    let oracle = oracle.name().to_string();
                    return Err(fail(step, (oracle, detail)));
                }
            }
        }
        let converge_ticks = world
            .final_check()
            .map_err(|v| fail(trace.len().saturating_sub(1), v))?;
        let mut transcript = world.transcript;
        let ft = world.plane.ft_stats().clone();
        let ps = *world.plane.plane_stats();
        transcript.push(format!("final ft: {ft:?}"));
        transcript.push(format!("final plane: {ps:?}"));
        Ok(TraceReport {
            events: world.shadow.len(),
            modified_tuples: (0..world.shadow.len())
                .map(|i| world.shadow.diff(i).modified.len())
                .sum(),
            restarts: world.restarts,
            converge_ticks,
            ft,
            transcript,
        })
    }

    /// Delta-debugs a failing trace, re-executing from `seed`; returns the
    /// minimized trace and its failure. Any oracle failure keeps a
    /// candidate (a shrunk trace may trip a different oracle).
    pub(crate) fn minimize(
        &self,
        seed: u64,
        trace: &[Action],
    ) -> (Vec<Action>, Option<ChaosFailure>) {
        let minimized = ddmin(
            trace,
            |cand| self.run_trace(seed, cand).is_err(),
            SHRINK_BUDGET,
        );
        let failure = self.run_trace(seed, &minimized).err();
        (minimized, failure)
    }

    /// The top-level per-seed entry point: generate, execute, and on
    /// failure shrink to a minimal repro (the returned failure carries both
    /// the full and the minimized trace).
    pub fn check_seed(&self, seed: u64, steps: usize) -> Result<TraceReport, ChaosFailure> {
        let trace = self.generate(seed, steps);
        match self.run_trace(seed, &trace) {
            Ok(report) => Ok(report),
            Err(original) => {
                let (minimized, refailure) = self.minimize(seed, &trace);
                // Report the minimized trace's own violation when it
                // (deterministically) reproduces; fall back to the original.
                let mut failure = refailure.unwrap_or(original);
                failure.trace = trace;
                failure.minimized = Some(minimized);
                Err(failure)
            }
        }
    }
}

impl fmt::Debug for ChaosSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ChaosSim[{} shards, profile={}]",
            self.shards,
            self.profile.name()
        )
    }
}
