//! The action grammar of the chaos harness.
//!
//! A chaos trace is a sequence of [`Action`]s, each fully self-contained:
//! every choice an action needs at execution time (which candidate event to
//! submit, how many bytes of the unsynced tail survive a crash, which byte
//! to corrupt) is carried *in the action*, not drawn from a shared RNG
//! during execution. That is what makes delta-debugging sound — removing an
//! action from a trace never perturbs the data of the actions that remain,
//! so `execute(seed, trace)` stays a pure function of its two arguments.
//!
//! Traces serialize to a whitespace-separated token line (one token per
//! action) so a failing `seed + trace` can be printed by the driver, pasted
//! into a test, and replayed verbatim; see [`format_trace`] /
//! [`parse_trace`].

use std::fmt;
use std::str::FromStr;

/// One step of a chaos trace. See the module docs for why every variant
/// carries its own choice data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Enumerate `simulate::candidates` on the current run and submit the
    /// `pick % len`-th one (completed with run-fresh values). A
    /// no-op when no candidate exists; engine rejections (chase conflicts)
    /// and degraded-mode rejections are tolerated outcomes.
    Submit {
        /// Raw candidate selector, reduced modulo the candidate count.
        pick: u32,
    },
    /// Run `ticks` delivery rounds ([`ShardPlane::pump`][p]).
    ///
    /// [p]: crate::ShardPlane::pump
    Pump {
        /// Number of pump rounds.
        ticks: u32,
    },
    /// Kill the process and restart it from what survived on disk: drop the
    /// plane, keep every stream's synced WAL prefix plus at most
    /// `keep_unsynced` unsynced bytes (the OS may or may not have flushed
    /// them), optionally corrupt one byte of one kept *unsynced* tail, then
    /// [`ShardPlane::recover`][r]. In-flight transport messages die with
    /// the process.
    ///
    /// [r]: crate::ShardPlane::recover
    CrashRestart {
        /// How many unsynced bytes survive beyond the synced prefix.
        keep_unsynced: u32,
        /// Optional corruption of the kept unsynced tail: a raw offset
        /// selector (reduced modulo the tail length) and the XOR mask.
        corrupt: Option<(u32, u8)>,
    },
    /// Queue a snapshot resync for every currently divergent replica
    /// ([`ShardPlane::resync_divergent`][r]).
    ///
    /// [r]: crate::ShardPlane::resync_divergent
    Resync,
    /// Stop all future fault injection, network and storage (the
    /// environment stabilizes). From this point the post-heal convergence
    /// oracle is armed.
    Heal,
    /// Attempt to leave degraded mode ([`ShardPlane::rearm`][r]). A no-op
    /// when not degraded; allowed to fail while faults persist, but a
    /// failure *after* [`Action::Heal`] is an invariant violation.
    ///
    /// [r]: crate::ShardPlane::rearm
    Rearm,
    /// Run a governed read-only analysis (a full well-formedness replay of
    /// the current run) under a pre-cancelled [`Governor`][g] and check that
    /// it stops with `Exhausted(Cancelled)` without mutating the plane.
    ///
    /// [g]: cwf_model::govern::Governor
    GovernorCancel,
    /// Run the governed **parallel** view-plane audit
    /// ([`governed_view_audit`][a]) three ways: under a pre-cancelled
    /// [`Governor`][g] on a multi-worker pool (must stop with
    /// `Exhausted(Cancelled)` before any worker does work), then unlimited
    /// on a 4-worker pool versus the single-worker oracle (the two verdicts
    /// must be byte-identical), plus a fixed satisfiability differential
    /// across the same two pool sizes. Read-only: must not mutate the
    /// plane.
    ///
    /// [a]: crate::chaos::oracle::governed_view_audit
    /// [g]: cwf_model::govern::Governor
    ParCancel,
    /// While degraded, attempt a mutation and require it to be rejected
    /// with `PlaneError::Degraded`, leaving the run and every replica
    /// untouched (reads keep being served). A no-op when not degraded.
    DegradeProbe,
    /// Cut one delivery link. The raw selector is reduced modulo the link
    /// count of the deployment, `shards × (peers + 1)` — every (shard,
    /// peer) slice plus each shard's standby-replication link. The
    /// link stalls (in-flight messages hold, new sends drop) until healed.
    Partition {
        /// Raw link selector, reduced modulo the link count.
        link: u32,
    },
    /// Restore one previously cut link (same selector arithmetic as
    /// [`Action::Partition`]). A no-op on a link that is already up.
    HealPartition {
        /// Raw link selector, reduced modulo the link count.
        link: u32,
    },
    /// Kill one shard's primary and promote its standby replica: the
    /// promoted node replays the oplog tail past its replication
    /// watermark, resumes the per-peer sequence streams past their
    /// watermarks on a fresh transport, and resyncs every peer slice.
    ShardFailover {
        /// Raw shard selector, reduced modulo the shard count.
        shard: u32,
    },
    /// Drive the interruptible shard hand-off protocol one step: begin a
    /// hand-off of the selected shard if none is in progress, otherwise
    /// transfer a bounded batch of oplog records toward the receiving
    /// node, cutting over when the tail is drained.
    Handoff {
        /// Raw shard selector, reduced modulo the shard count.
        shard: u32,
    },
    /// Arm a one-shot commit stall on the selected shard: the next
    /// cross-shard transaction with that shard as a non-home participant
    /// defers its commit record to a later pump, leaving the stream in
    /// doubt meanwhile. Never fires at shards=1 (no cross-shard commits).
    CommitStall {
        /// Raw shard selector, reduced modulo the shard count.
        shard: u32,
    },
    /// Arm a one-shot clean abort of the next cross-shard transaction
    /// (post-prepare timeout: `a` records everywhere, event rolled back,
    /// submit rejected with `CommitAborted`). Never fires at shards=1.
    CommitAbort,
    /// Drive elastic resharding via a live **split**: if no migration is in
    /// progress, begin splitting the selected source shard's key space onto
    /// a brand-new shard (`src` reduced modulo the live shard count);
    /// otherwise advance the in-flight migration by one bounded copy batch,
    /// cutting over when the snapshot and oplog tail are drained.
    Split {
        /// Raw source-shard selector, reduced modulo the live shard count.
        src: u32,
    },
    /// Drive elastic resharding via a **merge**: if no migration is in
    /// progress, begin merging the source shard's key space into an
    /// existing destination (both selectors reduced modulo the live shard
    /// count; a no-op note when they collapse to the same shard); otherwise
    /// advance the in-flight migration one step.
    Merge {
        /// Raw source-shard selector, reduced modulo the live shard count.
        src: u32,
        /// Raw destination-shard selector, reduced modulo the live shard
        /// count.
        dst: u32,
    },
    /// Drive elastic resharding via a **rebalance**: if no migration is in
    /// progress, begin moving half of the source shard's slots to an
    /// existing destination (selector arithmetic as [`Action::Merge`]);
    /// otherwise advance the in-flight migration one step.
    Rebalance {
        /// Raw source-shard selector, reduced modulo the live shard count.
        src: u32,
        /// Raw destination-shard selector, reduced modulo the live shard
        /// count.
        dst: u32,
    },
    /// Arm a one-shot router death between the next prepare phase and its
    /// commit point: the submit returns `InDoubt` with orphaned prepare
    /// records on every participant, and the harness immediately crashes
    /// and recovers the plane (keeping at most `keep_unsynced` unsynced
    /// bytes per stream) so recovery must resolve the in-doubt transaction
    /// by presumed abort. Never fires at shards=1.
    RouterCrash {
        /// How many unsynced bytes survive per stream in the forced crash.
        keep_unsynced: u32,
    },
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Submit { pick } => write!(f, "submit({pick})"),
            Action::Pump { ticks } => write!(f, "pump({ticks})"),
            Action::CrashRestart {
                keep_unsynced,
                corrupt: None,
            } => write!(f, "crash({keep_unsynced})"),
            Action::CrashRestart {
                keep_unsynced,
                corrupt: Some((off, xor)),
            } => write!(f, "crash({keep_unsynced},{off}^{xor})"),
            Action::Resync => write!(f, "resync"),
            Action::Heal => write!(f, "heal"),
            Action::Rearm => write!(f, "rearm"),
            Action::GovernorCancel => write!(f, "cancel"),
            Action::ParCancel => write!(f, "pcancel"),
            Action::DegradeProbe => write!(f, "probe"),
            Action::Partition { link } => write!(f, "part({link})"),
            Action::HealPartition { link } => write!(f, "unpart({link})"),
            Action::ShardFailover { shard } => write!(f, "failover({shard})"),
            Action::Handoff { shard } => write!(f, "handoff({shard})"),
            Action::CommitStall { shard } => write!(f, "cstall({shard})"),
            Action::CommitAbort => write!(f, "cabort"),
            Action::Split { src } => write!(f, "split({src})"),
            Action::Merge { src, dst } => write!(f, "merge({src}>{dst})"),
            Action::Rebalance { src, dst } => write!(f, "rebal({src}>{dst})"),
            Action::RouterCrash { keep_unsynced } => write!(f, "rcrash({keep_unsynced})"),
        }
    }
}

/// Why an action token (or a trace) failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActionParseError {
    /// The offending token.
    pub token: String,
}

impl fmt::Display for ActionParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unparsable chaos action token: {:?}", self.token)
    }
}

impl std::error::Error for ActionParseError {}

impl FromStr for Action {
    type Err = ActionParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ActionParseError {
            token: s.to_string(),
        };
        let parse_u32 = |t: &str| t.parse::<u32>().map_err(|_| err());
        match s {
            "resync" => return Ok(Action::Resync),
            "heal" => return Ok(Action::Heal),
            "rearm" => return Ok(Action::Rearm),
            "cancel" => return Ok(Action::GovernorCancel),
            "pcancel" => return Ok(Action::ParCancel),
            "probe" => return Ok(Action::DegradeProbe),
            "cabort" => return Ok(Action::CommitAbort),
            _ => {}
        }
        let (head, rest) = s.split_once('(').ok_or_else(err)?;
        let args = rest.strip_suffix(')').ok_or_else(err)?;
        match head {
            "submit" => Ok(Action::Submit {
                pick: parse_u32(args)?,
            }),
            "pump" => Ok(Action::Pump {
                ticks: parse_u32(args)?,
            }),
            "part" => Ok(Action::Partition {
                link: parse_u32(args)?,
            }),
            "unpart" => Ok(Action::HealPartition {
                link: parse_u32(args)?,
            }),
            "failover" => Ok(Action::ShardFailover {
                shard: parse_u32(args)?,
            }),
            "handoff" => Ok(Action::Handoff {
                shard: parse_u32(args)?,
            }),
            "cstall" => Ok(Action::CommitStall {
                shard: parse_u32(args)?,
            }),
            "rcrash" => Ok(Action::RouterCrash {
                keep_unsynced: parse_u32(args)?,
            }),
            "split" => Ok(Action::Split {
                src: parse_u32(args)?,
            }),
            "merge" => {
                let (src, dst) = args.split_once('>').ok_or_else(err)?;
                Ok(Action::Merge {
                    src: parse_u32(src)?,
                    dst: parse_u32(dst)?,
                })
            }
            "rebal" => {
                let (src, dst) = args.split_once('>').ok_or_else(err)?;
                Ok(Action::Rebalance {
                    src: parse_u32(src)?,
                    dst: parse_u32(dst)?,
                })
            }
            "crash" => match args.split_once(',') {
                None => Ok(Action::CrashRestart {
                    keep_unsynced: parse_u32(args)?,
                    corrupt: None,
                }),
                Some((keep, corr)) => {
                    let (off, xor) = corr.split_once('^').ok_or_else(err)?;
                    Ok(Action::CrashRestart {
                        keep_unsynced: parse_u32(keep)?,
                        corrupt: Some((parse_u32(off)?, xor.parse::<u8>().map_err(|_| err())?)),
                    })
                }
            },
            _ => Err(err()),
        }
    }
}

/// Renders a trace as one whitespace-separated token line (the repro
/// format printed by the chaos driver).
pub fn format_trace(trace: &[Action]) -> String {
    trace
        .iter()
        .map(Action::to_string)
        .collect::<Vec<_>>()
        .join(" ")
}

/// Parses a whitespace-separated token line back into a trace.
pub fn parse_trace(s: &str) -> Result<Vec<Action>, ActionParseError> {
    s.split_whitespace().map(Action::from_str).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_round_trips_through_the_token_format() {
        let trace = vec![
            Action::Submit { pick: 7 },
            Action::Pump { ticks: 3 },
            Action::CrashRestart {
                keep_unsynced: 12,
                corrupt: None,
            },
            Action::CrashRestart {
                keep_unsynced: 0,
                corrupt: Some((41, 255)),
            },
            Action::Resync,
            Action::Heal,
            Action::Rearm,
            Action::GovernorCancel,
            Action::ParCancel,
            Action::DegradeProbe,
            Action::Partition { link: 5 },
            Action::HealPartition { link: 5 },
            Action::ShardFailover { shard: 2 },
            Action::Handoff { shard: 1 },
            Action::CommitStall { shard: 3 },
            Action::CommitAbort,
            Action::Split { src: 1 },
            Action::Merge { src: 4, dst: 0 },
            Action::Rebalance { src: 2, dst: 3 },
            Action::RouterCrash { keep_unsynced: 9 },
        ];
        let line = format_trace(&trace);
        assert_eq!(
            line,
            "submit(7) pump(3) crash(12) crash(0,41^255) resync heal rearm cancel pcancel probe \
             part(5) unpart(5) failover(2) handoff(1) cstall(3) cabort split(1) merge(4>0) \
             rebal(2>3) rcrash(9)"
        );
        assert_eq!(parse_trace(&line).unwrap(), trace);
    }

    #[test]
    fn garbage_tokens_are_rejected() {
        for bad in [
            "submit",
            "submit(x)",
            "crash(1,2)",
            "pump(3",
            "warp(9)",
            "merge(1)",
            "rebal(2,3)",
        ] {
            assert!(bad.parse::<Action>().is_err(), "{bad} should not parse");
        }
        assert!(parse_trace("submit(1) nonsense").is_err());
    }
}
