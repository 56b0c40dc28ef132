//! Deterministic chaos harness: seeded whole-system simulation with
//! invariant oracles, crash–restart coverage, and trace minimization.
//!
//! The harness stress-tests the full fault-tolerant stack — the shard
//! plane's routing layer and per-shard WAL streams, the delivery protocol,
//! degraded mode, failover, hand-off, the cross-shard commit protocol,
//! resharding, governed analyses — the way FoundationDB tests its database:
//! one `u64` seed determines *everything* (the action trace, the network
//! fault schedules, the storage fault schedules), so any failure is
//! replayable from a single printed line and shrinkable by delta
//! debugging. One simulator serves every deployment: shards=1 is the
//! paper's master server, and the same grammar and battery run at N shards.
//!
//! The moving parts:
//!
//! * [`actions`] — the action grammar ([`Action`]) and its textual trace
//!   codec ([`format_trace`] / [`parse_trace`]). Actions carry their own
//!   choice data so execution is a pure function of `(seed, trace)`.
//! * [`sim`] — [`ChaosSim`], the harness: profiles, the trace generator,
//!   and trace execution under the oracle battery.
//! * `world` — the universe one trace execution builds: a
//!   [`ShardPlane`](crate::ShardPlane) of the chosen shard count over
//!   per-shard faulty transports and fault-injecting in-memory disks, plus
//!   the *shadow run* — the full accepted history, replayed from the empty
//!   instance, surviving crashes and snapshots.
//! * [`oracle`] — the pluggable invariants ([`Oracle`]) checked after every
//!   action: shadow equivalence, the shard-state union, per-slice replica
//!   prefixes, HLC causality, quorum WAL replay with no lost acked events,
//!   key ownership, degraded-mode safety, well-formedness under the key
//!   chase, the view-plane differential, and provenance soundness;
//!   post-heal cross-shard convergence runs as the closing check of every
//!   trace.
//! * [`shrink`] — [`ddmin`] minimizes a failing trace to a 1-minimal repro
//!   by re-executing candidates from the same seed.
//!
//! ```no_run
//! use cwf_engine::chaos::{default_spec, ChaosProfile, ChaosSim};
//!
//! let sim = ChaosSim::new(default_spec(), ChaosProfile::CrashHeavy, 1);
//! if let Err(failure) = sim.check_seed(42, 60) {
//!     // `failure` prints `seed=.. oracle=..` plus a minimized trace that
//!     // replays verbatim via `parse_trace` + `ChaosSim::run_trace`.
//!     panic!("{failure}");
//! }
//! ```

pub mod actions;
pub mod oracle;
pub mod shrink;
pub mod sim;
mod world;

pub use actions::{format_trace, parse_trace, Action, ActionParseError};
pub use oracle::{
    Checkpoint, EventCountOracle, HlcCausality, Oracle, ProvenanceSound, ShardOwnership,
    ShardSlicePrefix, ShardStateUnion, ViewPlaneOracle,
};
pub use shrink::ddmin;
pub use sim::{ChaosFailure, ChaosProfile, ChaosSim, TraceReport};

use std::sync::Arc;

use cwf_lang::{parse_workflow, WorkflowSpec};

/// The editorial three-peer workflow the chaos driver and tests default to:
/// enough rule interplay (key-deleting `publish`/`retract`, a public peer
/// with a filtered view) to exercise the chase, freshness, and every view
/// shape under faults.
pub fn default_spec() -> Arc<WorkflowSpec> {
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
        .expect("the built-in chaos spec parses"),
    )
}

/// The task-tracker workflow for modification-heavy chaos: tasks are opened
/// with `⊥` owner and status, then *null-filled* in place by `claim` and
/// `finish` — tuple modifications rather than insert/delete churn. The
/// `intake` peer selects on `Owner = ⊥`, so a claim makes the tuple *leave*
/// its view by modification; `board` selects on `Status = "done"`, so a
/// finish makes it *enter*. Exactly the selection transitions the
/// incremental view plane must get right.
pub fn modification_spec() -> Arc<WorkflowSpec> {
    Arc::new(
        parse_workflow(
            r#"
            schema { Task(K, Owner, Status); }
            peers {
                lead sees Task(*);
                intake sees Task(K, Status) where Owner = null;
                board sees Task(K, Owner) where Status = "done";
            }
            rules {
                open @ lead: +Task(t, null, null) :- ;
                claim @ lead: +Task(t, o, null) :- Task(t, null, null);
                finish @ lead: +Task(t, null, "done") :- Task(t, o, null), o != null;
                prune @ lead: -key Task(t) :- Task(t, o, "done");
            }
            "#,
        )
        .expect("the built-in modification spec parses"),
    )
}
