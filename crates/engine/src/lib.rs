//! # cwf-engine — the runtime of collaborative workflows
//!
//! Substrate crate implementing the operational semantics of Section 2 and
//! the run views of Section 3: FCQ¬ body evaluation over peer views, events
//! (rule instantiations) and their ground updates, the transition relation
//! `I ⊢_e J` (insertion via chase + subsumption, visible deletion), runs
//! with global-freshness enforcement, replay of event subsequences (the
//! subrun primitive), peer views of runs `ρ@p`, and a random simulator.
//!
//! The deployment layer is one admission path, the [`ShardPlane`]: a
//! shards=1 plane is the master server of the paper's Conclusion, and N
//! shards partition the same global run by key. It is fault tolerant: a
//! checksummed write-ahead log per shard with snapshot recovery ([`wal`]),
//! unreliable delivery with acknowledgement, retry, and snapshot resync
//! ([`transport`], [`delivery`]), HLC-stamped oplogs, standby failover,
//! snapshot hand-off and live resharding ([`shard`]), and deterministic
//! fault injection — including link-level partitions — for testing it all
//! ([`fault`]) — stress-tested end to end by one seeded chaos simulator
//! with invariant oracles and trace minimization ([`chaos`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod codec;
pub mod delivery;
pub mod error;
pub mod eval;
pub mod event;
pub mod fault;
pub mod nf_runs;
pub mod prov;
pub mod run;
pub mod scratch;
pub mod shard;
pub mod simulate;
pub mod stats;
pub mod transition;
pub mod transport;
pub mod view_plane;
pub mod wal;

pub use codec::{decode_event, decode_events, encode_event, encode_run, load_run, CodecError};
pub use delivery::{Delivery, DeliveryConfig, MaterializedView};
pub use error::{CoordinatorError, EngineError, WalError};
pub use eval::{check_body, match_body, Bindings};
pub use event::{Event, GroundUpdate};
pub use fault::FaultPlan;
pub use nf_runs::{from_normal_form, to_normal_form, NfTranslateError};
pub use prov::ProvPlane;
pub use run::{EventView, ReplayError, Run, RunView, StepFacts, ViewStep};
pub use scratch::{ScratchRun, Undo};
pub use shard::{
    FailoverReport, Hlc, HlcStamp, MigrationKind, MigrationPlan, Oplog, OplogEntry,
    ShardConvergence, ShardId, ShardMap, ShardOp, ShardPlane, ShardPlaneConfig, ShardPlaneStats,
};
pub use simulate::{candidates, complete, Candidate, Simulator};
pub use stats::{FtStats, PeerStats, RunStats, ShardAdmissionStats};
pub use transition::{
    apply_event, apply_event_with_view, apply_updates, event_visible, view_of, Applied,
};
pub use transport::{Ack, FaultyTransport, InjectedFaults, PeerMsg, PerfectTransport, Transport};
pub use view_plane::{materialize_view, peer_delta, ViewDelta, ViewPlane};
pub use wal::{
    FileBackend, IoFaultBackend, IoFaults, MemBackend, RecoveryReport, SyncPolicy, Wal, WalBackend,
    WalOptions,
};
