//! Errors of the runtime engine.

use std::fmt;

use cwf_lang::RuleId;
use cwf_model::{ChaseFailure, RelId, Value};

/// Why an event could not be applied to an instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The rule body does not hold at the event's valuation on the peer's
    /// view of the current instance.
    BodyNotSatisfied {
        /// The rule whose body failed.
        rule: RuleId,
    },
    /// A deletion targets a key the peer does not see
    /// (`−Key_{R@p}(k)` requires `k ∈ I@p(R@p)`).
    DeleteInvisible {
        /// The relation deleted from.
        rel: RelId,
        /// The invisible (or absent) key.
        key: Value,
    },
    /// An insertion's chase `chase_K(I ∪ {R(u^⊥)})` failed — condition (i)
    /// of the insertion semantics.
    InsertChase(ChaseFailure),
    /// The inserted tuple is not subsumed by a tuple of the updated view —
    /// condition (ii) of the insertion semantics.
    InsertNotSubsumed {
        /// The relation inserted into.
        rel: RelId,
        /// The key of the rejected insertion.
        key: Value,
    },
    /// A head-only variable was instantiated to a value that is not globally
    /// fresh (it occurs in `const(P)` or in an earlier instance of the run).
    NotGloballyFresh {
        /// The non-fresh value.
        value: Value,
    },
    /// The event's valuation does not cover every variable of its rule.
    IncompleteValuation {
        /// The rule concerned.
        rule: RuleId,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::BodyNotSatisfied { rule } => {
                write!(
                    f,
                    "rule {rule:?}: body not satisfied at the given valuation"
                )
            }
            EngineError::DeleteInvisible { rel, key } => write!(
                f,
                "deletion of key {key} from {rel:?}: the peer does not see such a tuple"
            ),
            EngineError::InsertChase(e) => write!(f, "insertion rejected: {e}"),
            EngineError::InsertNotSubsumed { rel, key } => write!(
                f,
                "insertion into {rel:?} with key {key}: inserted tuple not subsumed \
                 by the updated view"
            ),
            EngineError::NotGloballyFresh { value } => {
                write!(f, "value {value} is not globally fresh")
            }
            EngineError::IncompleteValuation { rule } => {
                write!(f, "rule {rule:?}: valuation does not bind every variable")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::InsertChase(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ChaseFailure> for EngineError {
    fn from(e: ChaseFailure) -> Self {
        EngineError::InsertChase(e)
    }
}

/// Errors of the durable write-ahead log (`engine::wal`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// The storage backend failed (I/O error, or a simulated crash from a
    /// fault plan). The log may end in a torn record; recovery truncates it.
    Backend(String),
    /// A non-empty log does not start with the v2 header line.
    BadHeader,
    /// A record passed its CRC but is semantically invalid — an undecodable
    /// payload, a non-monotone sequence number, or a replay failure. CRCs
    /// only guard against accidental corruption; a checksummed-but-invalid
    /// record means the log was tampered with, and recovery refuses it.
    Tampered {
        /// Sequence number of the offending record (0 when unknown).
        seq: u64,
        /// Human-readable cause.
        reason: String,
    },
    /// A transient, EINTR-style failure: nothing was written, and retrying
    /// the same operation may succeed. Callers may retry a bounded number
    /// of times before treating it as a hard [`WalError::Backend`] failure.
    Transient(String),
    /// The storage device is out of space. The write may have landed
    /// partially (a torn record); re-arming truncates it away.
    StorageFull,
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Backend(e) => write!(f, "wal backend failure: {e}"),
            WalError::BadHeader => write!(f, "wal does not start with a v2 header"),
            WalError::Tampered { seq, reason } => {
                write!(f, "wal record {seq} is tampered: {reason}")
            }
            WalError::Transient(e) => write!(f, "transient wal failure (retryable): {e}"),
            WalError::StorageFull => write!(f, "wal storage is full"),
        }
    }
}

impl std::error::Error for WalError {}

/// Errors surfaced by the fault-tolerant [`ShardPlane`](crate::ShardPlane)
/// (the name predates the plane: a shards=1 plane is the paper's master
/// server, the "coordinator").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordinatorError {
    /// The event was rejected by the transition semantics (not applied, not
    /// logged, nothing broadcast).
    Engine(EngineError),
    /// The write-ahead log failed while persisting an accepted event. The
    /// event is rolled back out of memory (it is *not* durable) and the
    /// plane enters read-only **degraded mode**: view reads keep working,
    /// mutations are rejected with [`CoordinatorError::Degraded`] until
    /// [`ShardPlane::rearm`](crate::ShardPlane::rearm) succeeds.
    Wal(WalError),
    /// The plane is in degraded (read-only) mode after a durability
    /// failure: reads are served from the last durable state, mutations are
    /// refused until [`ShardPlane::rearm`](crate::ShardPlane::rearm)
    /// restores the streams — or the process restarts via
    /// [`ShardPlane::recover`](crate::ShardPlane::recover).
    Degraded,
    /// A cross-shard commit was cleanly aborted before its commit point:
    /// every participant holds an abort record, the event is rolled back,
    /// and the plane stays healthy (resubmitting is fine).
    CommitAborted,
    /// The routing layer died mid-commit with prepare records written but
    /// no commit decision recorded. The live plane rolls the event back;
    /// the surviving prepare records resolve deterministically at recovery
    /// (presumed abort unless some shard holds the commit record).
    InDoubt,
}

impl fmt::Display for CoordinatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordinatorError::Engine(e) => write!(f, "event rejected: {e}"),
            CoordinatorError::Wal(e) => write!(f, "durability failure: {e}"),
            CoordinatorError::Degraded => {
                write!(
                    f,
                    "plane is degraded (read-only) after a durability failure"
                )
            }
            CoordinatorError::CommitAborted => {
                write!(f, "cross-shard commit aborted before its commit point")
            }
            CoordinatorError::InDoubt => {
                write!(
                    f,
                    "router died mid-commit; the transaction is in doubt until recovery"
                )
            }
        }
    }
}

impl std::error::Error for CoordinatorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoordinatorError::Engine(e) => Some(e),
            CoordinatorError::Wal(e) => Some(e),
            CoordinatorError::Degraded
            | CoordinatorError::CommitAborted
            | CoordinatorError::InDoubt => None,
        }
    }
}

impl From<EngineError> for CoordinatorError {
    fn from(e: EngineError) -> Self {
        CoordinatorError::Engine(e)
    }
}

impl From<WalError> for CoordinatorError {
    fn from(e: WalError) -> Self {
        CoordinatorError::Wal(e)
    }
}
