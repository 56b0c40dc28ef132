//! The [`ShardPlane`]: N shards behind a thin routing layer, with
//! **distributed admission** — per-shard write-ahead logs and a
//! cross-shard commit protocol. With one shard it is the paper's master
//! server: one stream, every event key-local, no protocol records.
//!
//! **Routing layer.** Event *validation* (body match, key chase,
//! freshness) stays global: it needs the whole keyed instance, so the
//! plane owns the authoritative [`Run`]. Everything else is pushed down
//! into the shards. An event whose write set lives on a single shard (the
//! common case under key-local rules) commits entirely on that shard's
//! path: stamped by the shard's [`Hlc`], appended as one `e` record to
//! *that shard's own WAL stream*, applied to its partition — the router
//! writes nothing. Only events whose ops span shards go through the
//! **cross-shard commit protocol**: the router assigns a global
//! transaction id, writes a `p` (prepare) record carrying the admission
//! stamp and the full event to every participant stream (bounded
//! transient retry with capped backoff; exhaustion or a hard fault aborts
//! with best-effort `a` records), then commits by writing a synced `c`
//! record to the home shard first (the commit point) and to the remaining
//! participants after. A participant whose `c` is stalled or lost leaves
//! an in-doubt `p`; recovery resolves it deterministically — **presumed
//! abort** unless *some* surviving stream holds the `c` record (the home
//! stream's `c` is synced before the plane acknowledges, so no
//! acknowledged event is ever presumed away by a crash).
//!
//! **Quorum recovery.** [`ShardPlane::recover`] scans every shard stream
//! (longest valid prefix, torn-tail truncation, dense-seq tamper checks),
//! resolves in-doubt transactions from the surviving prepare/commit
//! records, and reconstructs the global run order by sorting the
//! surviving records by HLC stamp: local `e` records carry their shard
//! stamp, prepares carry the router's admission stamp, and both kinds are
//! minted strictly above every stamp of the previous event (the router
//! folds each shard stamp back into its clock), so stamp order *is*
//! admission order — the serialization argument the paper's global-run
//! semantics demands. Snapshots (`s` records, written to the current home
//! stream at the plane cadence) carry the covered event count and the
//! last covered record stamp; replay starts above that stamp.
//!
//! **Shard-local apply.** Each shard owns its partition of the state, an
//! HLC-stamped append-only [`Oplog`], a warm standby replica consuming the
//! oplog tail, and a [`Delivery`] plane (outboxes, acks, retry, resync)
//! pushing its slice of every peer's view over its own transport. A peer's full replica is the union of its per-shard
//! slices; key spaces are disjoint by construction, so the union is a
//! plain merge.
//!
//! **Causality.** The router stamps each admission with its own
//! [`Hlc`]; every owning shard folds that stamp into its clock when
//! appending (receive event), and the router folds the shard stamps back
//! (reply). Hence for consecutive events `i < j`: every stamp of `i` —
//! admission and all shard entries — orders strictly below every stamp of
//! `j`, which is what the chaos battery's HLC-causality oracle pins.
//!
//! **Failure handling.** [`ShardPlane::failover`] promotes a shard's
//! standby (replaying the oplog tail past its watermark), resumes the
//! per-peer sequence streams past the control-plane watermarks, and
//! resyncs every peer's slice. [`ShardPlane::begin_handoff`] /
//! [`ShardPlane::step_handoff`] / [`ShardPlane::finish_handoff`] move a
//! shard to a new node with an interruptible drain → snapshot → transfer →
//! replay-tail protocol ([`ShardPlane::abort_handoff`] rolls back cleanly
//! at any record boundary). Link-level partitions are cut and healed per
//! (shard, peer) or toward a shard's standby. Commit-protocol faults
//! (stalled participant commits, injected aborts, router death between
//! prepare and commit) are injectable for the chaos harness via
//! [`ShardPlane::inject_commit_stall`] and friends.

use std::fmt;
use std::sync::Arc;

use cwf_model::{Instance, PeerId, RelId, Tuple, Value, ViewInstance};

use crate::codec::{decode_event, encode_event};
use crate::delivery::{Delivery, DeliveryConfig, MaterializedView};
use crate::error::{CoordinatorError, WalError};
use crate::event::Event;
use crate::run::Run;
use crate::stats::{FtStats, ShardAdmissionStats};
use crate::transport::{PerfectTransport, Transport};
use crate::view_plane::ViewDelta;
use crate::wal::{decode_snapshot, encode_snapshot, RecoveryReport, Wal, WalBackend, WalOptions};

use super::{Hlc, HlcStamp, MigrationKind, MigrationPlan, Oplog, ShardId, ShardMap, ShardOp};

/// The router's HLC node id (shards use their own id).
const ROUTER_NODE: u16 = u16::MAX;

/// The stream carrying router-level map-change records (`m` plan, `f`
/// fenced cutover, `x` abort). Stream 0 always exists — shards are never
/// physically removed — so the resharding history lives on one totally
/// ordered log.
const ROUTER_STREAM: ShardId = ShardId(0);

/// Tuning of a [`ShardPlane`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlaneConfig {
    /// Number of shards (≥ 1).
    pub shards: usize,
    /// Every shard's delivery knobs (the backoff ones also pace retries
    /// of a transiently failing WAL append).
    pub delivery: DeliveryConfig,
    /// Retries of a transiently failing WAL append (EINTR-style) before
    /// the submit degrades the plane.
    pub wal_transient_retries: u32,
}

impl ShardPlaneConfig {
    /// Default knobs over `shards` shards.
    pub fn with_shards(shards: usize) -> Self {
        ShardPlaneConfig {
            shards,
            delivery: DeliveryConfig::default(),
            wal_transient_retries: 2,
        }
    }
}

impl Default for ShardPlaneConfig {
    fn default() -> Self {
        Self::with_shards(1)
    }
}

/// One destination of a shard's links: a peer replica or the standby.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardLink {
    /// The link carrying one peer's slice of deltas and acks.
    Peer(PeerId),
    /// The replication link feeding the shard's standby replica.
    Standby,
}

/// Robustness counters of the plane (the delivery-level counters live in
/// the shared [`FtStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardPlaneStats {
    /// Standby promotions executed.
    pub failovers: u64,
    /// Oplog records replayed past the standby watermark during failovers.
    pub failover_replayed: u64,
    /// Hand-offs started.
    pub handoffs_started: u64,
    /// Hand-offs completed (cutover reached).
    pub handoffs_completed: u64,
    /// Hand-offs aborted mid-transfer (rolled back).
    pub handoffs_aborted: u64,
    /// Oplog records transferred by hand-off steps.
    pub handoff_records: u64,
    /// Links cut (peer or standby).
    pub partitions_cut: u64,
    /// Links restored individually (a global heal is not counted per link).
    pub partitions_healed: u64,
    /// Oplog records applied to standby replicas.
    pub standby_applied: u64,
    /// Events whose ops or deltas spanned more than one shard.
    pub cross_shard_events: u64,
    /// Migrations begun (`m` plan record durable).
    pub resharding_started: u64,
    /// Migrations cut over (`f` record durable, map epoch flipped).
    pub resharding_completed: u64,
    /// Migrations abandoned (explicit abort or presumed abort at
    /// recovery).
    pub resharding_aborted: u64,
    /// Tuples whose ownership moved at a cutover.
    pub keys_migrated: u64,
    /// The live map epoch (advances on every durable map transition).
    pub epoch: u64,
    /// Hand-offs aborted as a side effect of a failover on their shard.
    pub failover_aborted_handoffs: u64,
}

/// What a [`ShardPlane::failover`] did beyond the promotion itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailoverReport {
    /// Oplog records replayed past the standby watermark.
    pub replayed: u64,
    /// Was an in-flight hand-off on this shard aborted by the failover?
    pub aborted_handoff: bool,
}

/// The outcome of [`ShardPlane::converge`], with per-shard, per-peer
/// breakdowns (chaos artifacts say *where* the plane stalled).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardConvergence {
    /// The plane is quiescent; `ticks` pump rounds were needed.
    Converged {
        /// Pump rounds executed before quiescence.
        ticks: u64,
    },
    /// The tick budget ran out with work still outstanding.
    Stalled {
        /// Per (shard, peer) with a non-empty outbox: outstanding count.
        undelivered: Vec<(ShardId, PeerId, usize)>,
        /// (shard, peer) slices differing from their authoritative view.
        divergent: Vec<(ShardId, PeerId)>,
    },
}

impl ShardConvergence {
    /// Did the plane settle?
    pub fn is_converged(&self) -> bool {
        matches!(self, ShardConvergence::Converged { .. })
    }

    /// Total messages still awaiting acknowledgement (0 when converged).
    pub fn undelivered_total(&self) -> usize {
        match self {
            ShardConvergence::Converged { .. } => 0,
            ShardConvergence::Stalled { undelivered, .. } => {
                undelivered.iter().map(|(_, _, n)| n).sum()
            }
        }
    }
}

impl fmt::Display for ShardConvergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardConvergence::Converged { ticks } => write!(f, "converged after {ticks} ticks"),
            ShardConvergence::Stalled {
                undelivered,
                divergent,
            } => {
                write!(
                    f,
                    "stalled: {} undelivered messages across {} shard/peer slices (",
                    self.undelivered_total(),
                    undelivered.len()
                )?;
                for (i, (s, p, n)) in undelivered.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{s}/p{}:{n}", p.index())?;
                }
                write!(f, "), {} divergent slices (", divergent.len())?;
                for (i, (s, p)) in divergent.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{s}/p{}", p.index())?;
                }
                write!(f, ")")
            }
        }
    }
}

/// One admitted event as the plane broadcast it: the routing record the
/// causality oracle checks.
#[derive(Debug, Clone)]
pub struct ShardBroadcast {
    /// Position of the event in the global run.
    pub at: usize,
    /// The acting peer.
    pub actor: PeerId,
    /// The home shard (owner of the event's first written key).
    pub home: ShardId,
    /// The router's admission stamp.
    pub admitted: HlcStamp,
    /// Per owning shard (ascending): the stamp of its oplog entry.
    pub stamps: Vec<(ShardId, HlcStamp)>,
    /// Per peer: the full view delta (pre-split; shard routing re-derives
    /// per-slice deltas from the key map).
    pub deltas: Vec<(PeerId, ViewDelta)>,
}

/// An oplog follower: a copy of (part of) one shard's state and the
/// highest oplog sequence number folded into it. The warm standby, a
/// hand-off's receiving node and a migration's staged destination are
/// each one, told apart only by where they start and which keys they
/// take.
#[derive(Debug, Default)]
struct Replica {
    state: MaterializedView,
    applied_seq: u64,
}

impl Replica {
    /// Applies up to `max` oplog records above the watermark, keeping
    /// only the ops on keys `moves` admits (every key, except for a
    /// migration's staged copy). Returns the records applied.
    fn catch_up(&mut self, oplog: &Oplog, max: usize, moves: impl Fn(&Value) -> bool) -> u64 {
        let tail = oplog.tail(self.applied_seq);
        let take = tail.len().min(max);
        for e in &tail[..take] {
            for op in &e.ops {
                let key = match op {
                    ShardOp::Upsert { tuple, .. } => tuple.key(),
                    ShardOp::Remove { key, .. } => key,
                };
                if moves(key) {
                    op.apply_to(&mut self.state);
                }
            }
            self.applied_seq = e.seq;
        }
        take as u64
    }
}

/// One shard: its state partition, oplog, clock, standby, and
/// delivery plane.
struct Shard {
    id: ShardId,
    hlc: Hlc,
    oplog: Oplog,
    state: MaterializedView,
    delivery: Delivery,
    /// The warm standby, fed the oplog tail by every pump.
    standby: Replica,
    /// Is the standby's replication link up? (Cut by partitions;
    /// restored by heal.)
    standby_up: bool,
}

impl Shard {
    fn fresh(
        id: ShardId,
        peers: usize,
        transport: Box<dyn Transport>,
        config: DeliveryConfig,
    ) -> Shard {
        Shard {
            id,
            hlc: Hlc::new(id.0),
            oplog: Oplog::new(),
            state: MaterializedView::new(),
            delivery: Delivery::new(peers, transport, config),
            standby: Replica::default(),
            standby_up: true,
        }
    }
}

/// The one state transfer a plane runs at a time: a hand-off of a whole
/// shard to a new node, or a migration of part of a shard's key space to
/// another shard. Both snapshot, follow the oplog above a watermark, and
/// cut over.
enum Transfer {
    /// The receiving node: cloned from the primary at the oplog head,
    /// then stepped along the oplog tail.
    Handoff { shard: ShardId, receiver: Replica },
    /// A migration: the destination's staged copy of the moving keys
    /// starts empty at the source's oplog head, is filled from a frozen
    /// snapshot, and catches up on the source-oplog tail (filtered to the
    /// moving keys) at the cutover.
    Migration {
        plan: MigrationPlan,
        /// The post-cutover assignment (a key moves iff the target map
        /// sends it to `plan.dst`).
        target: ShardMap,
        /// Moving facts frozen at begin, awaiting copy.
        snapshot: Vec<(RelId, Tuple)>,
        /// How many snapshot facts have been copied so far.
        copied: usize,
        staged: Replica,
    },
}

/// Injected commit-protocol faults (one-shot, armed by the chaos harness).
#[derive(Debug, Default)]
struct CommitFaults {
    /// Stall the next non-home commit record destined for this shard: the
    /// record is deferred to [`ShardPlane::pump`] instead of written,
    /// leaving the participant in doubt until the flush.
    stall: Option<ShardId>,
    /// Abort the next cross-shard transaction after its prepare phase
    /// (clean abort: `a` records everywhere, event rolled back).
    abort_next: bool,
    /// Kill the router after the next prepare phase: prepares are left
    /// orphaned on every participant and the submit returns
    /// [`CoordinatorError::InDoubt`] — recovery resolves by presumed abort.
    router_crash: bool,
}

/// What [`ShardPlane::replay_streams`] learned beyond the run itself.
struct ReplayMeta {
    /// Per stream: the next record sequence number.
    next_seqs: Vec<u64>,
    /// Per stream: the byte length of the valid prefix.
    valid_lens: Vec<u64>,
    /// One past the highest transaction id seen anywhere.
    next_gid: u64,
    /// In-doubt transactions resolved as committed.
    in_doubt_committed: u64,
    /// In-doubt transactions resolved by presumed abort.
    in_doubt_aborted: u64,
    /// The highest stamp on any surviving record.
    max_stamp: HlcStamp,
    /// The committed map reconstructed from surviving `m`/`f`/`x` records
    /// (`None`: no map records anywhere — the plane never resharded).
    map: Option<ShardMap>,
    /// Migrations the record history shows cut over.
    reshard_completed: u64,
    /// Migrations the record history shows aborted (explicitly or by
    /// presumed abort, including one in flight at the crash).
    reshard_aborted: u64,
}

/// The sharded, replicated state plane (see the [module docs](super)).
pub struct ShardPlane {
    run: Run,
    map: ShardMap,
    peers: usize,
    shards: Vec<Shard>,
    /// One WAL stream per shard (index = shard id), when durable.
    wals: Option<Vec<Wal>>,
    /// The construction-time knobs (`shards` is the count at
    /// construction; splits add shards).
    config: ShardPlaneConfig,
    /// The deterministic "physical" tick feeding every HLC (advances on
    /// each submit and each pump).
    clock: u64,
    hlc: Hlc,
    log: Vec<ShardBroadcast>,
    transfer: Option<Transfer>,
    ft: FtStats,
    stats: ShardPlaneStats,
    admission: ShardAdmissionStats,
    /// Next cross-shard transaction id (monotone; never reused, even
    /// across recoveries).
    next_gid: u64,
    /// Events since the last snapshot record (plane-level cadence).
    events_since_snapshot: u64,
    /// Events covered by the snapshot this process epoch recovered from
    /// (snapshot counts stay global across recoveries: `base_events +
    /// run.len()`).
    base_events: u64,
    /// Commit records deferred by an injected stall, flushed by `pump`.
    pending_commits: Vec<(ShardId, u64)>,
    commit_faults: CommitFaults,
    degraded: bool,
}

/// Renders an [`HlcStamp`] as a WAL token (`t<wall>.<logical>.<node>`).
fn encode_stamp(s: &HlcStamp) -> String {
    format!("t{}.{}.{}", s.wall, s.logical, s.node)
}

/// Parses a stamp token written by [`encode_stamp`]. A clock can never
/// issue a stamp at the top of its range (recovery observes the stamp and
/// issues the next one), so such a stamp does not parse.
fn decode_stamp(tok: &str) -> Option<HlcStamp> {
    let rest = tok.strip_prefix('t')?;
    let mut it = rest.splitn(3, '.');
    let stamp = HlcStamp {
        wall: it.next()?.parse().ok()?,
        logical: it.next()?.parse().ok()?,
        node: it.next()?.parse().ok()?,
    };
    (stamp.wall < u64::MAX && stamp.logical < u32::MAX).then_some(stamp)
}

/// Parses a transaction-id or event-count token (`g<n>`). `u64::MAX` does
/// not parse: recovery resumes ids one above the highest it saw.
fn decode_gid(tok: &str) -> Option<u64> {
    tok.strip_prefix('g')?
        .parse()
        .ok()
        .filter(|&g| g < u64::MAX)
}

/// Renders a slot table as a WAL token (`<streams>:<slot>,<slot>,…`).
fn encode_table(streams: u16, slots: &[u16]) -> String {
    let csv: Vec<String> = slots.iter().map(|o| o.to_string()).collect();
    format!("{streams}:{}", csv.join(","))
}

/// Parses a slot-table token written by [`encode_table`].
fn decode_table(tok: &str) -> Option<(u16, Vec<u16>)> {
    let (streams, csv) = tok.split_once(':')?;
    let streams: u16 = streams.parse().ok()?;
    let slots: Option<Vec<u16>> = csv.split(',').map(|o| o.parse().ok()).collect();
    let slots = slots?;
    if streams == 0 || slots.is_empty() || slots.iter().any(|&o| o >= streams) {
        return None;
    }
    Some((streams, slots))
}

/// Renders a `m` plan record payload: the migrating epoch, the kind, the
/// endpoints, and — crucially — **both** full assignments (old and
/// target), so a recovering node reconstructs the committed map from the
/// record chain alone, with no out-of-band state.
fn encode_plan(old: &ShardMap, plan: &MigrationPlan) -> String {
    format!(
        "e{} k{} s{} d{} {} {}",
        plan.epoch,
        plan.kind,
        plan.src.0,
        plan.dst.0,
        encode_table(old.shards() as u16, old.slots()),
        encode_table(plan.streams, &plan.slots),
    )
}

/// Parses a plan payload written by [`encode_plan`]: the old map (at the
/// pre-plan epoch) and the plan itself.
fn decode_plan(payload: &str) -> Option<(ShardMap, MigrationPlan)> {
    let mut it = payload.split(' ');
    let epoch: u64 = it.next()?.strip_prefix('e')?.parse().ok()?;
    let kind = match it.next()?.strip_prefix('k')? {
        "split" => MigrationKind::Split,
        "merge" => MigrationKind::Merge,
        "rebal" => MigrationKind::Rebalance,
        _ => return None,
    };
    let src: u16 = it.next()?.strip_prefix('s')?.parse().ok()?;
    let dst: u16 = it.next()?.strip_prefix('d')?.parse().ok()?;
    let (old_streams, old_slots) = decode_table(it.next()?)?;
    let (streams, slots) = decode_table(it.next()?)?;
    if it.next().is_some() || epoch == 0 || epoch == u64::MAX {
        return None;
    }
    let old = ShardMap::from_parts(epoch - 1, old_streams, old_slots);
    let plan = MigrationPlan {
        epoch,
        kind,
        src: ShardId(src),
        dst: ShardId(dst),
        streams,
        slots,
    };
    Some((old, plan))
}

/// Materializes the slice of a peer's view owned by shard `s` — the unit
/// the plane delivers and the chaos oracles compare against.
pub fn slice_view(map: &ShardMap, s: ShardId, view: &ViewInstance) -> MaterializedView {
    let mut out = MaterializedView::new();
    for (rel, t) in view.facts() {
        if map.shard_of(t.key()) == s {
            out.upsert(rel, t.clone());
        }
    }
    out
}

impl ShardPlane {
    /// A plane over `shards` shards with reliable per-shard transports and
    /// no durability.
    pub fn new(spec: Arc<cwf_lang::WorkflowSpec>, shards: usize) -> Self {
        let transports = (0..shards)
            .map(|_| Box::new(PerfectTransport::new()) as Box<dyn Transport>)
            .collect();
        Self::with_parts(
            spec,
            transports,
            None,
            ShardPlaneConfig::with_shards(shards),
        )
    }

    /// Full-control constructor: one transport per shard (the vector length
    /// is the shard count and must match `config.shards`), an optional WAL
    /// stream per shard (same length when present), and tuning knobs.
    pub fn with_parts(
        spec: Arc<cwf_lang::WorkflowSpec>,
        transports: Vec<Box<dyn Transport>>,
        wals: Option<Vec<Wal>>,
        config: ShardPlaneConfig,
    ) -> Self {
        Self::from_run(Run::new(spec), transports, wals, config)
    }

    fn from_run(
        run: Run,
        transports: Vec<Box<dyn Transport>>,
        wals: Option<Vec<Wal>>,
        config: ShardPlaneConfig,
    ) -> Self {
        assert_eq!(
            transports.len(),
            config.shards,
            "one transport per shard ({} != {})",
            transports.len(),
            config.shards
        );
        if let Some(w) = &wals {
            assert_eq!(
                w.len(),
                config.shards,
                "one WAL stream per shard ({} != {})",
                w.len(),
                config.shards
            );
        }
        let peers = run.spec().collab().peer_count();
        let map = ShardMap::new(config.shards);
        let shards: Vec<Shard> = transports
            .into_iter()
            .enumerate()
            .map(|(i, t)| Shard::fresh(ShardId(i as u16), peers, t, config.delivery))
            .collect();
        let admission = ShardAdmissionStats {
            local_admitted: vec![0; shards.len()],
            ..Default::default()
        };
        ShardPlane {
            run,
            map,
            peers,
            shards,
            wals,
            config,
            clock: 0,
            hlc: Hlc::new(ROUTER_NODE),
            log: Vec::new(),
            transfer: None,
            ft: FtStats::default(),
            stats: ShardPlaneStats::default(),
            admission,
            next_gid: 1,
            events_since_snapshot: 0,
            base_events: 0,
            pending_commits: Vec::new(),
            commit_faults: CommitFaults::default(),
            degraded: false,
        }
    }

    /// Rebuilds a durable plane from its per-shard WAL streams — the
    /// **quorum recovery** procedure. Every stream is scanned (longest
    /// valid prefix, torn-tail truncation, dense-seq tamper checks);
    /// in-doubt cross-shard transactions are resolved deterministically
    /// (committed iff *some* surviving stream holds the `c` record,
    /// presumed abort otherwise); the global run order is reconstructed by
    /// sorting the surviving committed records by HLC stamp and replaying
    /// them (re-validating every transition) above the best surviving
    /// snapshot. The recovered instance is then repartitioned across fresh
    /// shards, every standby is reprovisioned, and every peer slice is
    /// resynced. Oplogs and broadcast logs restart — the streams, not the
    /// in-memory oplogs, are the durable record — and every clock is
    /// raised above the highest recovered stamp so new records keep
    /// sorting after old ones.
    pub fn recover(
        spec: Arc<cwf_lang::WorkflowSpec>,
        mut backends: Vec<Box<dyn WalBackend>>,
        opts: WalOptions,
        transports: Vec<Box<dyn Transport>>,
        config: ShardPlaneConfig,
    ) -> Result<(Self, RecoveryReport), WalError> {
        assert_eq!(
            backends.len(),
            config.shards,
            "one WAL stream per shard ({} != {})",
            backends.len(),
            config.shards
        );
        let (run, report, meta) = Self::replay_streams(&spec, &mut backends, opts)?;
        let wals: Vec<Wal> = backends
            .into_iter()
            .zip(meta.next_seqs.iter().zip(&meta.valid_lens))
            .map(|(b, (&next_seq, &len))| Wal::resume(b, opts, next_seq, len))
            .collect();
        let mut plane = Self::from_run(run, transports, Some(wals), config);
        // The committed assignment comes from the record chain, not the
        // config: a plane that resharded recovers the epoch and table its
        // surviving `m`/`f` records pin (an in-flight migration resolves
        // to presumed abort — old ownership, epoch burned).
        if let Some(map) = meta.map {
            plane.map = map;
        }
        plane.stats.epoch = plane.map.epoch();
        plane.stats.resharding_completed = meta.reshard_completed;
        plane.stats.resharding_aborted = meta.reshard_aborted;
        plane.stats.resharding_started = meta.reshard_completed + meta.reshard_aborted;
        plane.next_gid = meta.next_gid;
        plane.admission.in_doubt_committed = meta.in_doubt_committed;
        plane.admission.in_doubt_aborted = meta.in_doubt_aborted;
        plane.events_since_snapshot = report.events_replayed as u64;
        plane.base_events = report.last_seq - report.events_replayed as u64;
        plane.ft.recovered_events = report.events_replayed as u64;
        plane.ft.truncated_bytes = report.truncated_bytes as u64;
        // Every clock must dominate the durable record stamps, or records
        // written after this recovery would sort before recovered ones.
        plane.hlc.observe(0, &meta.max_stamp);
        for shard in &mut plane.shards {
            shard.hlc.observe(0, &meta.max_stamp);
        }
        // Repartition the recovered instance into shard states.
        for (rel, t) in plane.run.current().facts() {
            let s = plane.map.shard_of(t.key());
            plane.shards[s.index()].state.upsert(rel, t.clone());
        }
        // Standbys and peer replicas restart cold.
        for i in 0..plane.shards.len() {
            plane.reseat(ShardId(i as u16));
        }
        plane.pump();
        Ok((plane, report))
    }

    /// Dry-run of the quorum recovery: replays the streams into a [`Run`]
    /// without building a plane. This is what the chaos battery's
    /// `shard-wal-replay` oracle calls against copies of the live bytes.
    pub fn replay_wals(
        spec: &Arc<cwf_lang::WorkflowSpec>,
        mut backends: Vec<Box<dyn WalBackend>>,
        opts: WalOptions,
    ) -> Result<(Run, RecoveryReport), WalError> {
        let (run, report, _) = Self::replay_streams(spec, &mut backends, opts)?;
        Ok((run, report))
    }

    /// Scans every stream and reconstructs the global run (see
    /// [`ShardPlane::recover`] for the rules).
    fn replay_streams(
        spec: &Arc<cwf_lang::WorkflowSpec>,
        backends: &mut [Box<dyn WalBackend>],
        _opts: WalOptions,
    ) -> Result<(Run, RecoveryReport, ReplayMeta), WalError> {
        use std::collections::{BTreeMap, BTreeSet};
        let schema = spec.collab().schema();
        let mut truncated_bytes = 0usize;
        let mut next_seqs = Vec::with_capacity(backends.len());
        let mut valid_lens = Vec::with_capacity(backends.len());
        // Committed-record candidates: (stamp, event payload, seq for
        // error reporting). Locals are committed by construction.
        let mut events: Vec<(HlcStamp, String, u64)> = Vec::new();
        let mut prepares: BTreeMap<u64, (HlcStamp, String, u64)> = BTreeMap::new();
        let mut prepared_by_stream: Vec<BTreeSet<u64>> = Vec::new();
        let mut committed_by_stream: Vec<BTreeSet<u64>> = Vec::new();
        let mut commit_gids: BTreeSet<u64> = BTreeSet::new();
        let mut abort_gids: BTreeSet<u64> = BTreeSet::new();
        // Best surviving snapshot: (covered count, last covered stamp,
        // instance, fresh watermark).
        let mut snapshot: Option<(u64, HlcStamp, Instance, u64)> = None;
        // Map-change history: plans by migrating epoch, resolutions
        // (`f` cutover / `x` abort) by resolution epoch.
        let mut plans: BTreeMap<u64, (ShardMap, MigrationPlan)> = BTreeMap::new();
        let mut map_resolutions: BTreeMap<u64, char> = BTreeMap::new();
        let mut max_gid = 0u64;
        let mut max_stamp = HlcStamp {
            wall: 0,
            logical: 0,
            node: 0,
        };
        let tampered = |seq: u64, reason: String| WalError::Tampered { seq, reason };
        for backend in backends.iter_mut() {
            let scan = Wal::scan_stream(backend.as_mut())?;
            truncated_bytes += scan.truncated_bytes;
            next_seqs.push(scan.last_seq + 1);
            valid_lens.push(scan.valid_len);
            let mut prepared: BTreeSet<u64> = BTreeSet::new();
            let mut committed: BTreeSet<u64> = BTreeSet::new();
            for rec in &scan.records {
                match rec.kind {
                    'e' => {
                        let (st, ev) = rec
                            .payload
                            .split_once(' ')
                            .ok_or_else(|| tampered(rec.seq, "event record too short".into()))?;
                        let stamp = decode_stamp(st)
                            .ok_or_else(|| tampered(rec.seq, format!("bad stamp {st:?}")))?;
                        max_stamp = max_stamp.max(stamp);
                        events.push((stamp, ev.to_string(), rec.seq));
                    }
                    'p' => {
                        let mut it = rec.payload.splitn(3, ' ');
                        let gid = it
                            .next()
                            .and_then(decode_gid)
                            .ok_or_else(|| tampered(rec.seq, "prepare lacks a gid".into()))?;
                        let st = it
                            .next()
                            .ok_or_else(|| tampered(rec.seq, "prepare lacks a stamp".into()))?;
                        let stamp = decode_stamp(st)
                            .ok_or_else(|| tampered(rec.seq, format!("bad stamp {st:?}")))?;
                        let ev = it
                            .next()
                            .ok_or_else(|| tampered(rec.seq, "prepare lacks an event".into()))?;
                        max_stamp = max_stamp.max(stamp);
                        max_gid = max_gid.max(gid);
                        prepares
                            .entry(gid)
                            .or_insert_with(|| (stamp, ev.to_string(), rec.seq));
                        prepared.insert(gid);
                    }
                    'c' | 'a' => {
                        let gid = decode_gid(&rec.payload).ok_or_else(|| {
                            tampered(rec.seq, format!("{} record lacks a gid", rec.kind))
                        })?;
                        max_gid = max_gid.max(gid);
                        if rec.kind == 'c' {
                            commit_gids.insert(gid);
                            committed.insert(gid);
                        } else {
                            abort_gids.insert(gid);
                        }
                    }
                    's' => {
                        let mut it = rec.payload.splitn(3, ' ');
                        let count = it
                            .next()
                            .and_then(decode_gid)
                            .ok_or_else(|| tampered(rec.seq, "snapshot lacks a count".into()))?;
                        let st = it
                            .next()
                            .ok_or_else(|| tampered(rec.seq, "snapshot lacks a stamp".into()))?;
                        let stamp = decode_stamp(st)
                            .ok_or_else(|| tampered(rec.seq, format!("bad stamp {st:?}")))?;
                        let rest = it.next().ok_or_else(|| {
                            tampered(rec.seq, "snapshot lacks an instance".into())
                        })?;
                        let (inst, watermark) = decode_snapshot(schema, rest)
                            .map_err(|reason| tampered(rec.seq, reason))?;
                        max_stamp = max_stamp.max(stamp);
                        if snapshot.as_ref().is_none_or(|(c, ..)| count > *c) {
                            snapshot = Some((count, stamp, inst, watermark));
                        }
                    }
                    'm' => {
                        let (old, plan) = decode_plan(&rec.payload).ok_or_else(|| {
                            tampered(rec.seq, "undecodable migration plan".into())
                        })?;
                        plans.insert(plan.epoch, (old, plan));
                    }
                    'f' | 'x' => {
                        let epoch: u64 = rec
                            .payload
                            .strip_prefix('e')
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| {
                                tampered(rec.seq, format!("{} record lacks an epoch", rec.kind))
                            })?;
                        map_resolutions.insert(epoch, rec.kind);
                    }
                    _ => {
                        return Err(tampered(
                            rec.seq,
                            format!("record kind {:?} is not a shard-stream record", rec.kind),
                        ))
                    }
                }
            }
            prepared_by_stream.push(prepared);
            committed_by_stream.push(committed);
        }
        // Resolve cross-shard transactions: committed iff some surviving
        // stream holds the `c` record (the home stream's is synced before
        // the ack, so no acknowledged event resolves to abort); everything
        // prepared but never decided is presumed aborted.
        let mut in_doubt_committed = 0u64;
        let mut in_doubt_aborted = 0u64;
        for gid in &commit_gids {
            let (stamp, ev, seq) = prepares.get(gid).ok_or_else(|| {
                tampered(0, format!("transaction {gid} committed without a prepare"))
            })?;
            // In doubt iff some participant held the prepare but lost the
            // commit record (stall or torn tail on that stream).
            if prepared_by_stream
                .iter()
                .zip(&committed_by_stream)
                .any(|(p, c)| p.contains(gid) && !c.contains(gid))
            {
                in_doubt_committed += 1;
            }
            events.push((*stamp, ev.clone(), *seq));
        }
        for gid in prepares.keys() {
            if !commit_gids.contains(gid) && !abort_gids.contains(gid) {
                in_doubt_aborted += 1;
            }
        }
        // Resolve map changes by the same rule as transactions: a plan is
        // committed iff its fenced cutover record survived; everything
        // else — an explicit `x`, a lost `x`, or a plan still in flight at
        // the crash — resolves to **presumed abort** (the `f` record is
        // force-synced before any admission routes by the new map, so no
        // acknowledged routing decision is ever presumed away). Walking
        // the dense epoch chain yields one committed assignment: every
        // key's ownership is entirely old or entirely new, never mixed.
        for (&epoch, &kind) in &map_resolutions {
            if kind == 'f' && (epoch < 2 || !plans.contains_key(&(epoch - 1))) {
                return Err(tampered(
                    0,
                    format!("cutover to epoch {epoch} without a surviving plan"),
                ));
            }
        }
        let mut map: Option<ShardMap> = None;
        let mut reshard_completed = 0u64;
        let mut reshard_aborted = 0u64;
        for (&e, (old, plan)) in &plans {
            match &map {
                None => map = Some(old.clone()),
                Some(m) => {
                    if m.slots() != old.slots() || m.shards() != old.shards() {
                        return Err(tampered(0, format!("migration chain breaks at epoch {e}")));
                    }
                }
            }
            if map_resolutions.get(&(e + 1)) == Some(&'f') {
                map = Some(ShardMap::from_parts(
                    e + 1,
                    plan.streams,
                    plan.slots.clone(),
                ));
                reshard_completed += 1;
            } else {
                let m = map.as_ref().expect("seeded above");
                map = Some(ShardMap::from_parts(
                    e + 1,
                    m.shards() as u16,
                    m.slots().to_vec(),
                ));
                reshard_aborted += 1;
            }
        }
        // Serialize: stamp order is admission order (module docs).
        events.sort_by_key(|a| a.0);
        // Rebuild from the best snapshot, replaying records above its
        // stamp (records are stamped strictly increasing, so the covered
        // prefix is exactly the records at or below it).
        let (snapshot_count, snap_stamp, initial, watermark) = match snapshot {
            Some((count, stamp, inst, watermark)) => (count, Some(stamp), inst, watermark),
            None => (0, None, Instance::empty(schema), 0),
        };
        let mut run = Run::with_initial(Arc::clone(spec), initial);
        run.raise_fresh_watermark(watermark);
        let mut events_replayed = 0usize;
        for (stamp, payload, seq) in &events {
            if snap_stamp.as_ref().is_some_and(|s| stamp <= s) {
                continue;
            }
            let event = decode_event(spec, payload, 0)
                .map_err(|e| tampered(*seq, format!("undecodable event: {e}")))?;
            run.push(event)
                .map_err(|e| tampered(*seq, format!("does not replay: {e}")))?;
            events_replayed += 1;
        }
        // Every shard of the recovered map needs a surviving stream.
        if let Some(m) = map.as_ref().filter(|m| m.shards() > backends.len()) {
            return Err(tampered(
                0,
                format!(
                    "the recovered map spans {} streams, only {} survive",
                    m.shards(),
                    backends.len()
                ),
            ));
        }
        let last_seq = snapshot_count
            .checked_add(events_replayed as u64)
            .ok_or_else(|| tampered(0, format!("snapshot count {snapshot_count} overflows")))?;
        let report = RecoveryReport {
            last_seq,
            events_replayed,
            snapshot_seq: snap_stamp.map(|_| snapshot_count),
            truncated_bytes,
        };
        let meta = ReplayMeta {
            next_seqs,
            valid_lens,
            next_gid: max_gid + 1,
            in_doubt_committed,
            in_doubt_aborted,
            max_stamp,
            map,
            reshard_completed,
            reshard_aborted,
        };
        Ok((run, report, meta))
    }

    /// The global run (the routing layer's authoritative admission record).
    pub fn run(&self) -> &Run {
        &self.run
    }

    /// The key→shard map.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of peers served.
    pub fn peer_count(&self) -> usize {
        self.peers
    }

    /// The broadcast log of this process epoch (the causality oracle's
    /// input; empty after a recovery — the WAL streams are the durable
    /// log).
    pub fn log(&self) -> &[ShardBroadcast] {
        &self.log
    }

    /// Shard `s`'s oplog.
    pub fn oplog(&self, s: ShardId) -> &Oplog {
        &self.shards[s.index()].oplog
    }

    /// Shard `s`'s state partition (base tuples it owns).
    pub fn shard_state(&self, s: ShardId) -> &MaterializedView {
        &self.shards[s.index()].state
    }

    /// Shard `s`'s slice of peer `p`'s replica.
    pub fn shard_replica(&self, s: ShardId, p: PeerId) -> &MaterializedView {
        self.shards[s.index()].delivery.replica(p)
    }

    /// Peer `p`'s full replica: the union of its per-shard slices (key
    /// spaces are disjoint, so this is a plain merge).
    pub fn union_replica(&self, p: PeerId) -> MaterializedView {
        let mut out = MaterializedView::new();
        for shard in &self.shards {
            for (rel, t) in shard.delivery.replica(p).facts() {
                out.upsert(rel, t.clone());
            }
        }
        out
    }

    /// The union of all shard state partitions.
    pub fn union_state(&self) -> MaterializedView {
        let mut out = MaterializedView::new();
        for shard in &self.shards {
            for (rel, t) in shard.state.facts() {
                out.upsert(rel, t.clone());
            }
        }
        out
    }

    /// Does the union of shard states equal `instance` exactly?
    pub fn state_matches(&self, instance: &Instance) -> bool {
        self.union_state().facts().eq(instance.facts())
    }

    /// Fault-tolerance counters (shared across all shard deliveries).
    pub fn ft_stats(&self) -> &FtStats {
        &self.ft
    }

    /// Plane-level robustness counters.
    pub fn plane_stats(&self) -> &ShardPlaneStats {
        &self.stats
    }

    /// Is the plane in degraded (read-only) mode after a durability
    /// failure? Reads — [`ShardPlane::union_replica`], [`ShardPlane::run`],
    /// [`ShardPlane::audit`] — keep working; mutations are rejected with
    /// [`CoordinatorError::Degraded`] until [`ShardPlane::rearm`] succeeds.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Attempts to leave degraded mode: re-arms every WAL stream (truncating
    /// any torn tail back to the last complete record and syncing). While
    /// the storage fault persists this fails and the plane stays degraded.
    pub fn rearm(&mut self) -> Result<(), CoordinatorError> {
        if !self.degraded {
            return Ok(());
        }
        if let Some(wals) = self.wals.as_mut() {
            for wal in wals {
                wal.rearm().map_err(CoordinatorError::Wal)?;
            }
        }
        self.degraded = false;
        self.ft.degraded_recoveries += 1;
        Ok(())
    }

    /// Distributed-admission counters (local vs cross-shard commits,
    /// protocol records written, in-doubt resolutions).
    pub fn admission_stats(&self) -> &ShardAdmissionStats {
        &self.admission
    }

    /// Commit records currently deferred by an injected stall, awaiting a
    /// [`ShardPlane::pump`] flush.
    pub fn pending_commit_flushes(&self) -> usize {
        self.pending_commits.len()
    }

    /// Arms a one-shot commit stall: the next non-home commit record
    /// destined for shard `s` is deferred to the next `pump` instead of
    /// written, leaving that participant's stream in doubt meanwhile.
    pub fn inject_commit_stall(&mut self, s: ShardId) {
        self.commit_faults.stall = Some(s);
    }

    /// Arms a one-shot clean abort of the next cross-shard transaction
    /// (after its prepare phase: `a` records everywhere, event rolled
    /// back, submit returns [`CoordinatorError::CommitAborted`]).
    pub fn inject_commit_abort(&mut self) {
        self.commit_faults.abort_next = true;
    }

    /// Arms a one-shot router death after the next prepare phase: the
    /// prepares stay orphaned on every participant, the event rolls back,
    /// and submit returns [`CoordinatorError::InDoubt`].
    pub fn inject_router_crash(&mut self) {
        self.commit_faults.router_crash = true;
    }

    /// Disarms any injected commit-protocol fault.
    pub fn clear_commit_faults(&mut self) {
        self.commit_faults = CommitFaults::default();
    }

    /// Draws a globally fresh value (for clients constructing events).
    pub fn draw_fresh(&mut self) -> cwf_model::Value {
        self.run.draw_fresh()
    }

    /// Appends one record to shard `s`'s stream, retrying transient
    /// faults a bounded number of times with capped exponential backoff
    /// (realized by advancing the deterministic clock). Returns the last
    /// error once retries are exhausted or the fault is hard.
    fn append_with_retry(
        &mut self,
        s: ShardId,
        kind: char,
        payload: &str,
        force_sync: bool,
    ) -> Result<u64, WalError> {
        let mut retries = self.config.wal_transient_retries;
        let mut backoff = self.config.delivery.retry_backoff_base.max(1);
        loop {
            let wal = &mut self.wals.as_mut().expect("durable plane")[s.index()];
            match wal.append_raw(kind, payload, force_sync) {
                Ok(seq) => return Ok(seq),
                Err(e @ WalError::Transient(_)) => {
                    if retries == 0 {
                        return Err(e);
                    }
                    retries -= 1;
                    self.ft.wal_transient_retries += 1;
                    self.clock += backoff;
                    backoff = (backoff * 2).min(self.config.delivery.retry_backoff_cap.max(1));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Writes best-effort abort records for `gid` to `participants`
    /// (skipping streams whose append fails — a surviving orphaned
    /// prepare resolves by presumed abort at recovery anyway).
    fn abort_best_effort(&mut self, participants: &[ShardId], gid: u64) {
        let payload = format!("g{gid}");
        for &s in participants {
            let wal = &mut self.wals.as_mut().expect("durable plane")[s.index()];
            if wal.append_raw('a', &payload, false).is_ok() {
                self.admission.aborts_written += 1;
            }
        }
    }

    /// Writes a plane snapshot to the home stream when the cadence is due.
    /// The event carrying `record_stamp` is already durable, so a snapshot
    /// failure degrades the plane but does not fail the submit.
    fn maybe_snapshot(&mut self, home: ShardId, record_stamp: &HlcStamp) {
        let every = match self.wals.as_ref().expect("durable plane")[home.index()]
            .options()
            .snapshot_every
        {
            Some(n) => n.max(1),
            None => return,
        };
        if self.events_since_snapshot < every {
            return;
        }
        let spec = self.run.spec_arc();
        let covered = self.base_events + self.run.len() as u64;
        let payload = format!(
            "g{covered} {} {}",
            encode_stamp(record_stamp),
            encode_snapshot(
                spec.collab().schema(),
                self.run.current(),
                self.run.fresh_watermark()
            )
        );
        match self.append_with_retry(home, 's', &payload, true) {
            Ok(_) => {
                self.ft.wal_snapshots += 1;
                self.events_since_snapshot = 0;
            }
            Err(_) => {
                self.ft.wal_failures += 1;
                self.degraded = true;
            }
        }
    }

    /// Admits an event globally, makes it durable (when WAL streams are
    /// attached), routes its ops and deltas to the owning shards, and runs
    /// one delivery round. A single-shard event commits on its home
    /// shard's path alone (one `e` record on that stream); an event whose
    /// ops span shards goes through the cross-shard prepare/commit
    /// protocol (see the module docs). The returned broadcast records the
    /// home shard and every HLC stamp issued.
    pub fn submit(&mut self, event: Event) -> Result<&ShardBroadcast, CoordinatorError> {
        if self.degraded {
            self.ft.degraded_rejected += 1;
            return Err(CoordinatorError::Degraded);
        }
        let spec = self.run.spec_arc();
        let actor = event.peer;
        self.run.push(event.clone())?;
        self.clock += 1;
        let at = self.run.len() - 1;
        // Split the diff's tuple-level changes by owning shard, in diff
        // order (created, deleted, modified). The home shard owns the first
        // written key — shard 0 for an (impossible in practice) empty diff.
        // With one shard the partition is trivial: skip the key hashing and
        // the map entirely (the E18/E19 fast path).
        let diff = self.run.diff(at).clone();
        let mut ops: Vec<(ShardId, Vec<ShardOp>)> = Vec::new();
        let home;
        if self.shards.len() == 1 {
            let mut local = Vec::new();
            for (rel, t) in &diff.created {
                local.push(ShardOp::Upsert {
                    rel: *rel,
                    tuple: t.clone(),
                });
            }
            for (rel, t) in &diff.deleted {
                local.push(ShardOp::Remove {
                    rel: *rel,
                    key: *t.key(),
                });
            }
            for (rel, key, _) in &diff.modified {
                if let Some(t) = self.run.current().rel(*rel).get(key) {
                    local.push(ShardOp::Upsert {
                        rel: *rel,
                        tuple: t.clone(),
                    });
                }
            }
            home = ShardId(0);
            if !local.is_empty() {
                ops.push((ShardId(0), local));
            }
        } else {
            let mut by_shard: std::collections::BTreeMap<ShardId, Vec<ShardOp>> =
                std::collections::BTreeMap::new();
            let mut first: Option<ShardId> = None;
            for (rel, t) in &diff.created {
                let s = self.map.shard_of(t.key());
                first.get_or_insert(s);
                by_shard.entry(s).or_default().push(ShardOp::Upsert {
                    rel: *rel,
                    tuple: t.clone(),
                });
            }
            for (rel, t) in &diff.deleted {
                let s = self.map.shard_of(t.key());
                first.get_or_insert(s);
                by_shard.entry(s).or_default().push(ShardOp::Remove {
                    rel: *rel,
                    key: *t.key(),
                });
            }
            for (rel, key, _) in &diff.modified {
                let s = self.map.shard_of(key);
                first.get_or_insert(s);
                if let Some(t) = self.run.current().rel(*rel).get(key) {
                    by_shard.entry(s).or_default().push(ShardOp::Upsert {
                        rel: *rel,
                        tuple: t.clone(),
                    });
                }
            }
            home = first.unwrap_or(ShardId(0));
            ops.extend(by_shard);
        }
        // Stamp the admission and mint each owning shard's oplog stamp,
        // folding stamps both ways so causality survives into the clocks
        // (every stamp of event i orders strictly below every stamp of
        // event i+1 — the serialization invariant recovery sorts by).
        let admitted = self.hlc.now(self.clock);
        let mut stamps = Vec::with_capacity(ops.len());
        for (s, _) in &ops {
            let stamp = self.shards[s.index()].hlc.observe(self.clock, &admitted);
            self.hlc.observe(self.clock, &stamp);
            stamps.push((*s, stamp));
        }
        // Durability. Single participant: one `e` record on that shard's
        // stream, stamped with its oplog stamp — shard-local admission,
        // no router WAL work. Multiple participants: the cross-shard
        // prepare/commit protocol under the router's admission stamp.
        if self.wals.is_some() {
            let participants: Vec<ShardId> = if ops.is_empty() {
                vec![ShardId(0)]
            } else {
                ops.iter().map(|(s, _)| *s).collect()
            };
            // The stamp the event's deciding record carries (and the one
            // the next snapshot covers through).
            let record_stamp = if participants.len() == 1 {
                stamps.first().map(|(_, st)| *st).unwrap_or(admitted)
            } else {
                admitted
            };
            if participants.len() == 1 {
                let s = participants[0];
                let payload = format!(
                    "{} {}",
                    encode_stamp(&record_stamp),
                    encode_event(&spec, &event)
                );
                if let Err(e) = self.append_with_retry(s, 'e', &payload, false) {
                    self.run.pop();
                    self.ft.wal_failures += 1;
                    self.degraded = true;
                    return Err(CoordinatorError::Wal(e));
                }
                self.ft.wal_appends += 1;
                self.admission.local_admitted[s.index()] += 1;
            } else {
                let gid = self.next_gid;
                self.next_gid += 1;
                // Prepare phase: every participant gets the admission
                // stamp and the full event (any one survivor can replay).
                let prepare = format!(
                    "g{gid} {} {}",
                    encode_stamp(&admitted),
                    encode_event(&spec, &event)
                );
                let mut prepared: Vec<ShardId> = Vec::with_capacity(participants.len());
                for &s in &participants {
                    if let Err(e) = self.append_with_retry(s, 'p', &prepare, false) {
                        self.abort_best_effort(&prepared, gid);
                        self.run.pop();
                        self.ft.wal_failures += 1;
                        self.admission.cross_shard_aborted += 1;
                        self.degraded = true;
                        return Err(CoordinatorError::Wal(e));
                    }
                    self.admission.prepares_written += 1;
                    prepared.push(s);
                }
                if self.commit_faults.abort_next {
                    // Injected timeout: a participant failed to vote in
                    // time, so the router aborts cleanly everywhere.
                    self.commit_faults.abort_next = false;
                    self.abort_best_effort(&participants, gid);
                    self.run.pop();
                    self.admission.cross_shard_aborted += 1;
                    return Err(CoordinatorError::CommitAborted);
                }
                if self.commit_faults.router_crash {
                    // Injected router death: prepares stay orphaned on
                    // every participant; recovery presumes abort.
                    self.commit_faults.router_crash = false;
                    self.run.pop();
                    return Err(CoordinatorError::InDoubt);
                }
                // Commit point: the home stream's `c` record, synced
                // before anything is acknowledged.
                let decision = format!("g{gid}");
                if let Err(e) = self.append_with_retry(home, 'c', &decision, true) {
                    self.abort_best_effort(&participants, gid);
                    self.run.pop();
                    self.ft.wal_failures += 1;
                    self.admission.cross_shard_aborted += 1;
                    self.degraded = true;
                    return Err(CoordinatorError::Wal(e));
                }
                self.admission.commits_written += 1;
                // Past the commit point the event IS durable: failures on
                // the remaining participants leave in-doubt prepares that
                // recovery resolves from the home record, so the commit
                // records are deferred, never rolled back.
                for &s in &participants {
                    if s == home {
                        continue;
                    }
                    if self.commit_faults.stall == Some(s) {
                        self.commit_faults.stall = None;
                        self.pending_commits.push((s, gid));
                        continue;
                    }
                    match self.append_with_retry(s, 'c', &decision, false) {
                        Ok(_) => self.admission.commits_written += 1,
                        Err(_) => {
                            self.ft.wal_failures += 1;
                            self.degraded = true;
                            self.pending_commits.push((s, gid));
                        }
                    }
                }
                self.ft.wal_appends += 1;
                self.admission.cross_shard_committed += 1;
            }
            self.events_since_snapshot += 1;
            self.maybe_snapshot(home, &record_stamp);
        }
        // Apply: every owning shard appends the event to its oplog under
        // its pre-minted stamp and applies its ops to its partition.
        for ((s, shard_ops), (_, stamp)) in ops.iter().zip(&stamps) {
            let shard = &mut self.shards[s.index()];
            shard
                .oplog
                .append(*stamp, home, at, actor, shard_ops.clone());
            for op in shard_ops {
                op.apply_to(&mut shard.state);
            }
        }
        // Route every peer's view delta: split by owning shard, enqueue
        // each slice on that shard's delivery plane (ascending shard order
        // per peer, for determinism). One shard ⇒ the slice is the delta.
        let deltas: Vec<(PeerId, ViewDelta)> = self.run.last_deltas().to_vec();
        let mut delta_shards: std::collections::BTreeSet<ShardId> =
            std::collections::BTreeSet::new();
        if self.shards.len() == 1 {
            for (p, delta) in &deltas {
                if delta.upserts.is_empty() && delta.removals.is_empty() {
                    continue;
                }
                delta_shards.insert(ShardId(0));
                self.shards[0]
                    .delivery
                    .enqueue(*p, delta.clone(), &mut self.ft);
            }
        } else {
            for (p, delta) in &deltas {
                let mut slices: std::collections::BTreeMap<ShardId, ViewDelta> =
                    std::collections::BTreeMap::new();
                for (rel, t) in &delta.upserts {
                    let s = self.map.shard_of(t.key());
                    slices.entry(s).or_default().upserts.push((*rel, t.clone()));
                }
                for (rel, key) in &delta.removals {
                    let s = self.map.shard_of(key);
                    slices.entry(s).or_default().removals.push((*rel, *key));
                }
                for (s, slice) in slices {
                    delta_shards.insert(s);
                    self.shards[s.index()]
                        .delivery
                        .enqueue(*p, slice, &mut self.ft);
                }
            }
        }
        delta_shards.extend(ops.iter().map(|(s, _)| *s));
        if delta_shards.len() > 1 {
            self.stats.cross_shard_events += 1;
        }
        self.log.push(ShardBroadcast {
            at,
            actor,
            home,
            admitted,
            stamps,
            deltas,
        });
        self.pump();
        Ok(self.log.last().expect("just pushed"))
    }

    /// One delivery round on every shard: flush commit records deferred by
    /// a stall (re-queueing the ones that still fail), replicate oplog
    /// tails to standby replicas (where the replication link is up), then
    /// pump each shard's delivery plane (transport tick, deliver, ack,
    /// retry, resync).
    pub fn pump(&mut self) {
        self.clock += 1;
        if !self.pending_commits.is_empty() && !self.degraded && self.wals.is_some() {
            for (s, gid) in std::mem::take(&mut self.pending_commits) {
                match self.append_with_retry(s, 'c', &format!("g{gid}"), false) {
                    Ok(_) => {
                        self.admission.commits_written += 1;
                        self.admission.pending_commit_flushes += 1;
                    }
                    Err(WalError::Transient(_)) => self.pending_commits.push((s, gid)),
                    Err(_) => {
                        self.ft.wal_failures += 1;
                        self.degraded = true;
                        self.pending_commits.push((s, gid));
                    }
                }
            }
        }
        let (map, run) = (self.map.clone(), &self.run);
        for shard in &mut self.shards {
            if shard.standby_up {
                self.stats.standby_applied +=
                    shard.standby.catch_up(&shard.oplog, usize::MAX, |_| true);
            }
            let id = shard.id;
            shard
                .delivery
                .pump(&mut self.ft, |p| slice_view(&map, id, run.peer_view(p)));
        }
    }

    /// Stops all fault injection on every shard transport and restores
    /// every link, including standby replication links.
    pub fn heal(&mut self) {
        for shard in &mut self.shards {
            shard.delivery.heal();
            shard.standby_up = true;
        }
    }

    /// Cuts one link of shard `s` (a peer's slice or the standby feed).
    pub fn partition_link(&mut self, s: ShardId, link: ShardLink) {
        self.stats.partitions_cut += 1;
        let shard = &mut self.shards[s.index()];
        match link {
            ShardLink::Peer(p) => shard.delivery.set_link(p, false),
            ShardLink::Standby => shard.standby_up = false,
        }
    }

    /// Restores one link of shard `s`.
    pub fn heal_link(&mut self, s: ShardId, link: ShardLink) {
        self.stats.partitions_healed += 1;
        let shard = &mut self.shards[s.index()];
        match link {
            ShardLink::Peer(p) => shard.delivery.set_link(p, true),
            ShardLink::Standby => shard.standby_up = true,
        }
    }

    /// Queues a slice resync for every (shard, peer) slice that currently
    /// diverges from its authoritative view.
    pub fn resync_divergent(&mut self) -> usize {
        let mut n = 0;
        let (map, run) = (self.map.clone(), &self.run);
        for shard in &mut self.shards {
            for i in 0..self.peers {
                let p = PeerId(i as u32);
                let expect = slice_view(&map, shard.id, run.peer_view(p));
                if !shard.delivery.replica(p).same_facts(&expect) {
                    shard.delivery.resync_with(p, expect, &mut self.ft);
                    n += 1;
                }
            }
        }
        n
    }

    /// Fails shard `s` over to its standby: the primary (state, outboxes,
    /// in-flight traffic) is lost; the standby is promoted and replays the
    /// oplog tail past its applied watermark; delivery resumes on a fresh
    /// `transport` *past* the per-peer sequence watermarks (control-plane
    /// metadata the router witnesses on every enqueue), so post-failover
    /// snapshots supersede everything the dead primary sent; every peer
    /// slice is resynced. A hand-off in progress on `s` is aborted — and
    /// **reported**: the returned [`FailoverReport`] carries the abort
    /// (and the `failover_aborted_handoffs` counter logs it), so callers
    /// can tell a clean promotion from one that killed a hand-off. A
    /// migration survives a failover of either endpoint: its snapshot and
    /// staged copy live outside the primary, and its catch-up reads the
    /// oplog, which a failover keeps.
    pub fn failover(&mut self, s: ShardId, transport: Box<dyn Transport>) -> FailoverReport {
        let mut report = FailoverReport::default();
        if matches!(self.transfer, Some(Transfer::Handoff { shard, .. }) if shard == s) {
            self.abort_handoff();
            self.stats.failover_aborted_handoffs += 1;
            report.aborted_handoff = true;
        }
        self.stats.failovers += 1;
        let standby = std::mem::take(&mut self.shards[s.index()].standby);
        report.replayed = self.promote(s, standby, transport);
        self.stats.failover_replayed += report.replayed;
        report
    }

    /// Starts handing shard `s` off to a new node: snapshots the shard
    /// state at the current oplog head (the drain point — admission is
    /// atomic in this deployment, so nothing is in flight mid-submit).
    /// Returns `false` if a transfer — another hand-off, or a migration,
    /// whose cutover would rewrite the partition under the hand-off — is
    /// already in progress.
    pub fn begin_handoff(&mut self, s: ShardId) -> bool {
        if self.transfer.is_some() {
            return false;
        }
        self.stats.handoffs_started += 1;
        let shard = &self.shards[s.index()];
        let receiver = Replica {
            state: shard.state.clone(),
            applied_seq: shard.oplog.last_seq(),
        };
        self.transfer = Some(Transfer::Handoff { shard: s, receiver });
        true
    }

    /// The in-progress hand-off, if any: its shard and how many oplog
    /// records appended since the snapshot still await transfer.
    pub fn handoff_in_progress(&self) -> Option<(ShardId, u64)> {
        match &self.transfer {
            Some(Transfer::Handoff { shard, receiver }) => {
                let head = self.shards[shard.index()].oplog.last_seq();
                Some((*shard, head - receiver.applied_seq))
            }
            _ => None,
        }
    }

    /// Transfers up to `max_records` oplog records (appended after the
    /// snapshot) to the receiving node; returns how many records still
    /// await transfer afterwards. No-op (returning 0) without a hand-off.
    pub fn step_handoff(&mut self, max_records: usize) -> u64 {
        let Some(Transfer::Handoff { shard, receiver }) = &mut self.transfer else {
            return 0;
        };
        let oplog = &self.shards[shard.index()].oplog;
        self.stats.handoff_records += receiver.catch_up(oplog, max_records, |_| true);
        oplog.last_seq() - receiver.applied_seq
    }

    /// Abandons the in-progress hand-off: the receiving node's partial
    /// state is discarded and the current primary keeps serving — nothing
    /// on the serving path changed, so the rollback is trivially clean.
    /// Returns `false` if no hand-off was in progress.
    pub fn abort_handoff(&mut self) -> bool {
        let handoff = |t: &mut Transfer| matches!(t, Transfer::Handoff { .. });
        if self.transfer.take_if(handoff).is_none() {
            return false;
        }
        self.stats.handoffs_aborted += 1;
        true
    }

    /// Completes the hand-off: transfers any remaining oplog tail, then
    /// cuts over — the receiving node (on its fresh `transport`) becomes
    /// the shard primary, sequence streams resume past the watermarks,
    /// every peer slice is resynced, and a new standby is provisioned from
    /// the new primary. Returns `false` if no hand-off was in progress.
    pub fn finish_handoff(&mut self, transport: Box<dyn Transport>) -> bool {
        let handoff = |t: &mut Transfer| matches!(t, Transfer::Handoff { .. });
        let Some(Transfer::Handoff { shard, receiver }) = self.transfer.take_if(handoff) else {
            return false;
        };
        #[cfg(debug_assertions)]
        let primary = self.shards[shard.index()].state.clone();
        // Drain + replay tail: transfer everything still missing.
        self.stats.handoff_records += self.promote(shard, receiver, transport);
        #[cfg(debug_assertions)]
        debug_assert!(
            self.shards[shard.index()].state.same_facts(&primary),
            "a fully transferred hand-off state equals the primary's"
        );
        self.stats.handoffs_completed += 1;
        true
    }

    /// Cuts shard `s` over to `node`, a copy of the shard at some oplog
    /// watermark: catches it up on the oplog tail, re-seeds the node's
    /// clock above the durable log, resumes delivery on `transport`
    /// *past* the per-peer sequence watermarks, and [reseats](Self::reseat)
    /// the shard so the fresh snapshots supersede the old streams. Returns
    /// how many oplog records were replayed. Failover promotes the
    /// standby, a hand-off its receiving node.
    fn promote(&mut self, s: ShardId, mut node: Replica, transport: Box<dyn Transport>) -> u64 {
        let shard = &mut self.shards[s.index()];
        let replayed = node.catch_up(&shard.oplog, usize::MAX, |_| true);
        shard.state = node.state;
        // The promoted node's clock must dominate the durable log.
        let mut hlc = Hlc::new(s.0);
        if let Some(e) = shard.oplog.last() {
            hlc.observe(self.clock, &e.stamp);
        }
        shard.hlc = hlc;
        let seqs = shard.delivery.next_seqs();
        shard.delivery = Delivery::resuming(self.peers, transport, self.config.delivery, &seqs);
        self.reseat(s);
        replayed
    }

    /// Re-provisions shard `s`'s standby from its primary (link up) and
    /// queues a full snapshot resync of every peer slice of `s`: the step
    /// after anything replaces a shard's state wholesale.
    fn reseat(&mut self, s: ShardId) {
        let shard = &mut self.shards[s.index()];
        shard.standby = Replica {
            state: shard.state.clone(),
            applied_seq: shard.oplog.last_seq(),
        };
        shard.standby_up = true;
        for i in 0..self.peers {
            let p = PeerId(i as u32);
            let view = slice_view(&self.map, s, self.run.peer_view(p));
            shard.delivery.resync_with(p, view, &mut self.ft);
        }
    }

    // -----------------------------------------------------------------
    // Elastic resharding
    // -----------------------------------------------------------------

    /// The in-flight migration, if any: its kind, endpoints, and how many
    /// snapshot facts still await copy.
    pub fn reshard_in_progress(&self) -> Option<(MigrationKind, ShardId, ShardId, u64)> {
        match &self.transfer {
            Some(Transfer::Migration {
                plan,
                snapshot,
                copied,
                ..
            }) => Some((
                plan.kind,
                plan.src,
                plan.dst,
                (snapshot.len() - copied) as u64,
            )),
            _ => None,
        }
    }

    /// Begins a **split**: half of `src`'s key space will move to a
    /// brand-new shard served by `transport` (and, on a durable plane,
    /// logging to `wal` — pass the stream the caller provisioned). The
    /// plan is made durable as a force-synced `m` record on the router
    /// stream before anything else changes. Returns `Ok(false)` — and
    /// leaves the new stream untouched — when a migration or hand-off is
    /// already in flight or the plan is impossible.
    pub fn begin_split(
        &mut self,
        src: ShardId,
        transport: Box<dyn Transport>,
        wal: Option<Wal>,
    ) -> Result<bool, CoordinatorError> {
        assert_eq!(
            self.wals.is_some(),
            wal.is_some(),
            "a durable plane's new shard needs its own stream (and only then)"
        );
        let dst = ShardId(self.shards.len() as u16);
        let Some(plan) = self.map.plan_split(src, dst) else {
            return Ok(false);
        };
        self.begin_reshard(plan, Some((transport, wal)))
    }

    /// Begins a **merge**: all of `src`'s key space will move to the
    /// existing `dst` (leaving `src` an idle stream). Same durability and
    /// refusal rules as [`ShardPlane::begin_split`].
    pub fn begin_merge(&mut self, src: ShardId, dst: ShardId) -> Result<bool, CoordinatorError> {
        let Some(plan) = self.map.plan_merge(src, dst) else {
            return Ok(false);
        };
        self.begin_reshard(plan, None)
    }

    /// Begins a **rebalance**: about half of `src`'s key space will move
    /// to the existing `dst`. Same rules as [`ShardPlane::begin_split`].
    pub fn begin_rebalance(
        &mut self,
        src: ShardId,
        dst: ShardId,
    ) -> Result<bool, CoordinatorError> {
        let Some(plan) = self.map.plan_rebalance(src, dst) else {
            return Ok(false);
        };
        self.begin_reshard(plan, None)
    }

    fn begin_reshard(
        &mut self,
        plan: MigrationPlan,
        new_shard: Option<(Box<dyn Transport>, Option<Wal>)>,
    ) -> Result<bool, CoordinatorError> {
        if self.degraded {
            self.ft.degraded_rejected += 1;
            return Err(CoordinatorError::Degraded);
        }
        if self.transfer.is_some() {
            return Ok(false);
        }
        // The migration exists once the plan record is down, not before:
        // a crash after this sync recovers it (and presumed-aborts it).
        if self.wals.is_some() {
            let payload = encode_plan(&self.map, &plan);
            if let Err(e) = self.append_with_retry(ROUTER_STREAM, 'm', &payload, true) {
                self.ft.wal_failures += 1;
                self.degraded = true;
                return Err(CoordinatorError::Wal(e));
            }
        }
        // A split provisions its destination now: an empty partition on a
        // fresh stream. If the migration later aborts, the stream stays
        // behind, idle and owning nothing — streams only ever grow.
        if let Some((transport, wal)) = new_shard {
            debug_assert_eq!(plan.dst.index(), self.shards.len());
            self.shards.push(Shard::fresh(
                plan.dst,
                self.peers,
                transport,
                self.config.delivery,
            ));
            if let Some(w) = wal {
                self.wals.as_mut().expect("durable plane").push(w);
            }
            self.admission.local_admitted.push(0);
        }
        // Freeze the moving facts (snapshot copy source) and start the
        // staged copy at the source oplog head (the catch-up tail starts
        // above it). During the migration every admission keeps routing
        // by the *old* map, so the source stays authoritative until the
        // cutover.
        let target = ShardMap::from_parts(plan.epoch + 1, plan.streams, plan.slots.clone());
        let src_shard = &self.shards[plan.src.index()];
        let mut snapshot = Vec::new();
        for (rel, t) in src_shard.state.facts() {
            if target.shard_of(t.key()) == plan.dst {
                snapshot.push((rel, t.clone()));
            }
        }
        let staged = Replica {
            state: MaterializedView::new(),
            applied_seq: src_shard.oplog.last_seq(),
        };
        self.map.begin(&plan);
        self.stats.resharding_started += 1;
        self.stats.epoch = self.map.epoch();
        self.transfer = Some(Transfer::Migration {
            plan,
            target,
            snapshot,
            copied: 0,
            staged,
        });
        Ok(true)
    }

    /// Copies up to `max_facts` of the frozen snapshot to the
    /// destination's staged state; returns how many facts still await
    /// copy afterwards. No-op (returning 0) without a migration.
    pub fn step_reshard(&mut self, max_facts: usize) -> u64 {
        let Some(Transfer::Migration {
            snapshot,
            copied,
            staged,
            ..
        }) = &mut self.transfer
        else {
            return 0;
        };
        let take = (snapshot.len() - *copied).min(max_facts);
        for (rel, t) in &snapshot[*copied..*copied + take] {
            staged.state.upsert(*rel, t.clone());
        }
        *copied += take;
        (snapshot.len() - *copied) as u64
    }

    /// The fenced cutover: completes the copy, replays the source-oplog
    /// tail (catch-up for everything admitted since begin), writes the
    /// force-synced `f` record that **atomically flips the map epoch**,
    /// moves the key space, reprovisions both standbys, and resyncs every
    /// changed peer slice. Admissions before this call routed by the old
    /// epoch; admissions after route by the new one — HLC stamps keep
    /// ordering both sides, so stamp order stays admission order across
    /// the flip. Returns `Ok(false)` without a migration; on a cutover-
    /// record failure the migration stays in flight (retry after
    /// [`ShardPlane::rearm`]).
    pub fn finish_reshard(&mut self) -> Result<bool, CoordinatorError> {
        if self.degraded {
            self.ft.degraded_rejected += 1;
            return Err(CoordinatorError::Degraded);
        }
        // Complete the snapshot copy…
        self.step_reshard(usize::MAX);
        let Some(Transfer::Migration {
            plan,
            target,
            staged,
            ..
        }) = &mut self.transfer
        else {
            return Ok(false);
        };
        // …then catch up on the source-oplog tail, filtered to the moving
        // keys (idempotent ops — a stale snapshot copy is simply
        // overwritten by its later tail entry).
        let dst = plan.dst;
        let src_oplog = &self.shards[plan.src.index()].oplog;
        staged.catch_up(src_oplog, usize::MAX, |k| target.shard_of(k) == dst);
        // The commit point: the fenced cutover record, force-synced on
        // the router stream. Past this record the new assignment is the
        // truth; before it, recovery presumes the migration away.
        if self.wals.is_some() {
            let payload = format!("e{}", plan.epoch + 1);
            if let Err(e) = self.append_with_retry(ROUTER_STREAM, 'f', &payload, true) {
                self.ft.wal_failures += 1;
                self.degraded = true;
                return Err(CoordinatorError::Wal(e));
            }
        }
        let Some(Transfer::Migration { plan, staged, .. }) = self.transfer.take() else {
            unreachable!("the migration is still in flight");
        };
        let moved = staged.state.total_tuples() as u64;
        self.map.cutover(&plan);
        let dst = &mut self.shards[plan.dst.index()];
        for (rel, t) in staged.state.facts() {
            dst.state.upsert(rel, t.clone());
        }
        let src = &mut self.shards[plan.src.index()];
        let mut kept = MaterializedView::new();
        for (rel, t) in src.state.facts() {
            if self.map.shard_of(t.key()) == plan.src {
                kept.upsert(rel, t.clone());
            }
        }
        src.state = kept;
        debug_assert!(
            self.state_matches(self.run.current()),
            "the cutover preserves the union invariant"
        );
        self.stats.resharding_completed += 1;
        self.stats.keys_migrated += moved;
        self.stats.epoch = self.map.epoch();
        // Fence the epochs on every slice whose shape just changed: a
        // snapshot resync is force-queued for *all* peer slices of both
        // endpoints, not just the currently-divergent ones. A lagging
        // replica can coincidentally equal its new expectation while an
        // old-epoch delta is still in flight toward it; without the
        // fence, that delta (and the new-epoch deltas behind it) would
        // apply on top and leave a state no single (prefix, map) pair
        // explains. With it, the slice applies in seq order: old-epoch
        // deltas, the full new-shape snapshot, then new-epoch deltas.
        self.reseat(plan.src);
        self.reseat(plan.dst);
        self.pump();
        Ok(true)
    }

    /// Abandons the in-flight migration: the staged copy is discarded and
    /// keys keep routing to their old owners. A best-effort `x` record
    /// marks the abort explicitly — its absence already means abort
    /// (recovery presumes it), so a write failure costs nothing but
    /// explicitness. Returns `false` without a migration.
    pub fn abort_reshard(&mut self) -> bool {
        let migration = |t: &mut Transfer| matches!(t, Transfer::Migration { .. });
        let Some(Transfer::Migration { plan, .. }) = self.transfer.take_if(migration) else {
            return false;
        };
        if let Some(wals) = self.wals.as_mut() {
            let payload = format!("e{}", plan.epoch + 1);
            let _ = wals[ROUTER_STREAM.index()].append_raw('x', &payload, false);
        }
        self.map.abort();
        self.stats.resharding_aborted += 1;
        self.stats.epoch = self.map.epoch();
        true
    }

    /// Messages awaiting acknowledgement across every shard's outboxes.
    pub fn undelivered(&self) -> usize {
        self.shards.iter().map(|s| s.delivery.undelivered()).sum()
    }

    /// Per (shard, peer) slices with outstanding messages, ascending.
    pub fn undelivered_by_slice(&self) -> Vec<(ShardId, PeerId, usize)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for (p, n) in shard.delivery.undelivered_by_peer() {
                out.push((shard.id, p, n));
            }
        }
        out
    }

    /// The (shard, peer) slices whose replica differs from its
    /// authoritative view, ascending.
    pub fn divergent_slices(&self) -> Vec<(ShardId, PeerId)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for i in 0..self.peers {
                let p = PeerId(i as u32);
                let expect = slice_view(&self.map, shard.id, self.run.peer_view(p));
                if !shard.delivery.replica(p).same_facts(&expect) {
                    out.push((shard.id, p));
                }
            }
        }
        out
    }

    /// Verifies every (shard, peer) slice against its authoritative view.
    pub fn audit(&self) -> Result<(), (ShardId, PeerId)> {
        match self.divergent_slices().into_iter().next() {
            Some(slice) => Err(slice),
            None => Ok(()),
        }
    }

    fn quiescent(&self) -> bool {
        self.undelivered() == 0 && self.audit().is_ok()
    }

    /// Pumps until every slice matches its authoritative view and no
    /// message awaits acknowledgement, or `max_ticks` rounds elapse.
    pub fn converge(&mut self, max_ticks: u64) -> ShardConvergence {
        for t in 0..=max_ticks {
            if self.quiescent() {
                return ShardConvergence::Converged { ticks: t };
            }
            if t < max_ticks {
                self.pump();
            }
        }
        ShardConvergence::Stalled {
            undelivered: self.undelivered_by_slice(),
            divergent: self.divergent_slices(),
        }
    }
}

impl fmt::Debug for ShardPlane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ShardPlane[{} shards, {} events, {} unacked{}{}]",
            self.shards.len(),
            self.run.len(),
            self.undelivered(),
            if self.wals.is_some() { ", durable" } else { "" },
            if self.degraded { ", DEGRADED" } else { "" },
        )
    }
}

#[cfg(test)]
mod tests {
    //! The single-node deployment (a shards=1 plane, the paper's master
    //! server): fan-out, idempotent apply, convergence diagnostics, the
    //! degrade → rearm → recover discipline of its WAL stream, and what
    //! recovery makes of that stream's bytes: torn or corrupt tails are
    //! truncated, CRC-valid forgeries and foreign files refused.

    use super::*;
    use crate::error::WalError;
    use crate::eval::Bindings;
    use crate::fault::FaultPlan;
    use crate::simulate::{candidates, complete};
    use crate::transport::FaultyTransport;
    use crate::wal::{record_line, IoFaultBackend, MemBackend, SyncPolicy, WAL_HEADER};
    use cwf_lang::{parse_workflow, VarId};
    use cwf_model::Value;

    fn spec() -> Arc<cwf_lang::WorkflowSpec> {
        Arc::new(
            parse_workflow(
                r#"
                schema { Doc(K, State); Seen(K); }
                peers {
                    author sees Doc(*), Seen(*);
                    editor sees Doc(*), Seen(*);
                    public sees Doc(K, State) where State = "published", Seen(*);
                }
                rules {
                    draft @ author: +Doc(d, "draft") :- ;
                    publish @ editor:
                        -key Doc(d), +Doc(d2, "published")
                        :- Doc(d, "draft");
                    note @ public: +Seen(s) :- Doc(d, "published");
                }
                "#,
            )
            .unwrap(),
        )
    }

    fn ev(spec: &cwf_lang::WorkflowSpec, name: &str, vals: &[Value]) -> Event {
        let rid = spec.program().rule_by_name(name).unwrap();
        let mut b = Bindings::empty(vals.len());
        for (i, v) in vals.iter().enumerate() {
            b.set(VarId(i as u32), *v);
        }
        Event::new(spec, rid, b).unwrap()
    }

    fn opts() -> WalOptions {
        WalOptions {
            sync: SyncPolicy::Always,
            snapshot_every: None,
        }
    }

    /// A single-shard plane over `transport`, optionally journaling to `wal`.
    fn single(
        spec: &Arc<cwf_lang::WorkflowSpec>,
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

    /// A durable single-shard plane over a perfect transport.
    fn durable(spec: &Arc<cwf_lang::WorkflowSpec>, backend: Box<dyn WalBackend>) -> ShardPlane {
        let wal = Wal::create(backend, opts()).unwrap();
        single(
            spec,
            Box::new(PerfectTransport::new()),
            Some(wal),
            DeliveryConfig::default(),
        )
    }

    /// Journals `n` drafts through a durable single-shard plane; returns
    /// the stream and the plane.
    fn journal(
        spec: &Arc<cwf_lang::WorkflowSpec>,
        opts: WalOptions,
        n: usize,
    ) -> (MemBackend, ShardPlane) {
        let backend = MemBackend::new();
        let wal = Wal::create(Box::new(backend.clone()), opts).unwrap();
        let mut c = single(
            spec,
            Box::new(PerfectTransport::new()),
            Some(wal),
            DeliveryConfig::default(),
        );
        for _ in 0..n {
            let d = c.draw_fresh();
            c.submit(ev(spec, "draft", &[d])).unwrap();
        }
        (backend, c)
    }

    /// Replays one stream holding `bytes`.
    fn replay(
        spec: &Arc<cwf_lang::WorkflowSpec>,
        bytes: Vec<u8>,
    ) -> Result<(Run, RecoveryReport), WalError> {
        ShardPlane::replay_wals(spec, vec![Box::new(MemBackend::from_bytes(bytes))], opts())
    }

    /// The delta broadcast to `p`, if any.
    fn delta_of(b: &ShardBroadcast, p: PeerId) -> Option<ViewDelta> {
        b.deltas
            .iter()
            .find(|(q, _)| *q == p)
            .map(|(_, d)| d.clone())
    }

    #[test]
    fn deltas_reach_only_affected_peers() {
        let spec = spec();
        let mut c = ShardPlane::new(Arc::clone(&spec), 1);
        let d = c.draw_fresh();
        let b = c
            .submit(ev(&spec, "draft", std::slice::from_ref(&d)))
            .unwrap();
        // The public peer sees drafts not at all: only author and editor get
        // a delta.
        let touched: Vec<PeerId> = b.deltas.iter().map(|(p, _)| *p).collect();
        let public = spec.collab().peer("public").unwrap();
        assert!(!touched.contains(&public));
        assert_eq!(touched.len(), 2);
        c.audit().unwrap();
    }

    #[test]
    fn publishing_fans_out_with_removal_and_upsert() {
        let spec = spec();
        let mut c = ShardPlane::new(Arc::clone(&spec), 1);
        let d = c.draw_fresh();
        c.submit(ev(&spec, "draft", std::slice::from_ref(&d)))
            .unwrap();
        let d2 = c.draw_fresh();
        let b = c.submit(ev(&spec, "publish", &[d, d2])).unwrap().clone();
        let public = spec.collab().peer("public").unwrap();
        let author = spec.collab().peer("author").unwrap();
        // The public peer gains the published doc (pure upsert)…
        let pub_delta = delta_of(&b, public).expect("public notified");
        assert_eq!(pub_delta.upserts.len(), 1);
        assert!(pub_delta.removals.is_empty());
        // …the author sees the old draft removed and the new doc appear.
        let auth_delta = delta_of(&b, author).expect("author notified");
        assert_eq!(auth_delta.removals, vec![(RelId(0), d)]);
        assert_eq!(auth_delta.upserts.len(), 1);
        c.audit().unwrap();
        assert_eq!(c.union_replica(public).total_tuples(), 1);
    }

    #[test]
    fn replicas_track_views_under_random_traffic() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let spec = spec();
        let mut c = ShardPlane::new(Arc::clone(&spec), 1);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..30 {
            let cands = candidates(c.run());
            if cands.is_empty() {
                break;
            }
            let pick = cands[rng.gen_range(0..cands.len())].clone();
            // Complete head-only vars with run-fresh values.
            let mut run_clone = c.run().clone();
            let event = complete(&mut run_clone, &pick);
            // Some candidates fail (chase conflicts); skip those.
            let _ = c.submit(event);
            c.audit().unwrap();
        }
        assert!(!c.log().is_empty());
        // The broadcast log fully reconstructs each replica.
        let author = spec.collab().peer("author").unwrap();
        let mut rebuilt = MaterializedView::new();
        for b in c.log() {
            if let Some(d) = delta_of(b, author) {
                d.apply_to(&mut rebuilt);
            }
        }
        assert!(rebuilt.same_facts(c.shard_replica(ShardId(0), author)));
    }

    #[test]
    fn rejected_events_broadcast_nothing() {
        let spec = spec();
        let mut c = ShardPlane::new(Arc::clone(&spec), 1);
        let bogus = ev(&spec, "publish", &[Value::Fresh(1), Value::Fresh(2)]);
        assert!(c.submit(bogus).is_err());
        assert!(c.log().is_empty());
        c.audit().unwrap();
    }

    #[test]
    fn applying_a_delta_twice_equals_applying_it_once() {
        let spec = spec();
        let mut c = ShardPlane::new(Arc::clone(&spec), 1);
        let d = c.draw_fresh();
        c.submit(ev(&spec, "draft", std::slice::from_ref(&d)))
            .unwrap();
        let d2 = c.draw_fresh();
        let b = c.submit(ev(&spec, "publish", &[d, d2])).unwrap().clone();
        // The author's publish delta mixes a removal and an upsert.
        let author = spec.collab().peer("author").unwrap();
        let delta = delta_of(&b, author).expect("author notified");
        assert!(!delta.removals.is_empty());
        let mut once = MaterializedView::new();
        delta.apply_to(&mut once);
        let mut twice = once.clone();
        delta.apply_to(&mut twice);
        assert_eq!(once, twice, "apply_to is idempotent");
    }

    #[test]
    fn faulty_transport_converges_after_healing() {
        let spec = spec();
        let plan = FaultPlan::seeded(11).with_rates(0.4, 0.3, 0.4, 3, 0.3);
        let mut c = single(
            &spec,
            Box::new(FaultyTransport::new(plan)),
            None,
            DeliveryConfig {
                resync_lag: 4,
                ..DeliveryConfig::default()
            },
        );
        for _ in 0..6 {
            let d = c.draw_fresh();
            c.submit(ev(&spec, "draft", std::slice::from_ref(&d)))
                .unwrap();
        }
        c.heal();
        let verdict = c.converge(500);
        assert!(verdict.is_converged(), "heals to convergence: {verdict}");
        c.audit().unwrap();
        assert!(c.ft_stats().deltas_sent >= 6);
    }

    #[test]
    fn converge_diagnoses_a_stall_and_recovers_after_healing() {
        let spec = spec();
        // Drop everything: replicas can never catch up until healed.
        let plan = FaultPlan::seeded(3).with_rates(1.0, 0.0, 0.0, 0, 0.0);
        let mut c = single(
            &spec,
            Box::new(FaultyTransport::new(plan)),
            None,
            DeliveryConfig::default(),
        );
        let d = c.draw_fresh();
        c.submit(ev(&spec, "draft", std::slice::from_ref(&d)))
            .unwrap();
        match c.converge(20) {
            v @ ShardConvergence::Stalled { .. } => {
                assert!(v.undelivered_total() > 0, "unacked deltas remain");
                let ShardConvergence::Stalled {
                    undelivered,
                    divergent,
                } = &v
                else {
                    unreachable!()
                };
                assert!(!divergent.is_empty(), "some replica diverges");
                assert!(
                    undelivered.iter().all(|(_, _, n)| *n > 0),
                    "only slices with outstanding messages are listed"
                );
                assert!(
                    undelivered
                        .windows(2)
                        .all(|w| w[0].1.index() < w[1].1.index()),
                    "undelivered breakdown reported in peer-id order"
                );
                assert!(
                    divergent
                        .windows(2)
                        .all(|w| w[0].1.index() < w[1].1.index()),
                    "divergent slices reported in peer-id order"
                );
                // The diagnostic names the stalled slices.
                let shown = format!("{v}");
                assert!(
                    shown.contains("s0/p0:"),
                    "per-slice breakdown shown: {shown}"
                );
            }
            c => panic!("a fully dropping network cannot converge: {c}"),
        }
        c.heal();
        match c.converge(500) {
            ShardConvergence::Converged { ticks } => assert!(ticks > 0),
            c => panic!("healed network must converge: {c}"),
        }
        c.audit().unwrap();
        assert_eq!(c.undelivered(), 0);
        assert!(c.divergent_slices().is_empty());
    }

    #[test]
    fn wal_failure_degrades_and_recovery_resumes() {
        let spec = spec();
        let backend = MemBackend::new();
        let mut c = durable(&spec, Box::new(backend.clone()));
        let d = c.draw_fresh();
        c.submit(ev(&spec, "draft", std::slice::from_ref(&d)))
            .unwrap();
        // Crash mid-append of the second event: 7 bytes of the record land.
        backend.schedule_crash(1, 7);
        let d2 = c.draw_fresh();
        let lost = ev(&spec, "draft", std::slice::from_ref(&d2));
        let err = c.submit(lost.clone()).unwrap_err();
        assert!(matches!(err, CoordinatorError::Wal(_)));
        assert!(c.degraded());
        // The non-durable event was rolled back out of memory: the in-memory
        // run matches the durable state, and reads stay consistent.
        assert_eq!(c.run().len(), 1);
        c.audit().unwrap();
        assert!(matches!(
            c.submit(lost.clone()),
            Err(CoordinatorError::Degraded)
        ));
        // The dead process cannot re-arm in place (sync still fails).
        assert!(c.rearm().is_err());
        assert!(c.degraded());
        let ft = c.ft_stats();
        assert_eq!(ft.wal_failures, 1);
        assert_eq!(ft.degraded_rejected, 1);
        // Recover from what survived: the synced prefix plus the torn bytes.
        let survivor = backend.survivor(7);
        let (mut rc, report) = ShardPlane::recover(
            Arc::clone(&spec),
            vec![Box::new(survivor)],
            opts(),
            vec![Box::new(PerfectTransport::new())],
            ShardPlaneConfig::with_shards(1),
        )
        .unwrap();
        assert_eq!(report.last_seq, 1, "only the first event was durable");
        assert!(report.truncated_bytes > 0, "torn tail truncated");
        rc.audit().unwrap();
        // The in-flight event resubmits cleanly.
        rc.submit(lost).unwrap();
        rc.audit().unwrap();
        assert_eq!(rc.run().len(), 2);
    }

    #[test]
    fn fsync_failures_degrade_reads_survive_and_rearm_resumes() {
        let spec = spec();
        let inner = MemBackend::new();
        let io = IoFaultBackend::new(Box::new(inner.clone()), FaultPlan::perfect(5));
        let mut c = durable(&spec, Box::new(io.clone()));
        let d = c.draw_fresh();
        c.submit(ev(&spec, "draft", std::slice::from_ref(&d)))
            .unwrap();
        let author = spec.collab().peer("author").unwrap();
        let replica_before = c.union_replica(author);
        assert_eq!(replica_before.total_tuples(), 1);

        // Every fsync now fails: the next submit degrades the plane.
        io.configure(|p| p.fsync_fail_p = 1.0);
        let d2 = c.draw_fresh();
        let e2 = ev(&spec, "draft", std::slice::from_ref(&d2));
        let err = c.submit(e2.clone()).unwrap_err();
        assert!(matches!(err, CoordinatorError::Wal(_)));
        assert!(c.degraded());
        assert!(io.faults().fsync_failures > 0);

        // Degraded mode: view reads keep serving the last durable state,
        // the audit passes, mutations are rejected with Degraded, and
        // re-arming fails while the fault persists.
        assert_eq!(c.union_replica(author), replica_before);
        assert_eq!(c.run().len(), 1);
        c.audit().unwrap();
        assert!(matches!(
            c.submit(e2.clone()),
            Err(CoordinatorError::Degraded)
        ));
        assert!(c.rearm().is_err());
        assert!(c.degraded());

        // The device stabilizes: rearm truncates the torn tail, and the
        // in-flight event resubmits with its original fresh values.
        io.heal();
        c.rearm().unwrap();
        assert!(!c.degraded());
        c.submit(e2).unwrap();
        c.audit().unwrap();
        assert_eq!(c.run().len(), 2);
        let ft = c.ft_stats();
        assert_eq!(ft.degraded_recoveries, 1);
        assert!(ft.wal_failures >= 1);
        assert!(ft.degraded_rejected >= 1);

        // What landed on the device recovers to exactly the two events.
        let (run, report) = ShardPlane::replay_wals(&spec, vec![Box::new(inner)], opts()).unwrap();
        assert_eq!(run.len(), 2);
        assert_eq!(report.last_seq, 2);
    }

    #[test]
    fn transient_append_failures_are_retried_in_place() {
        let spec = spec();
        let inner = MemBackend::new();
        let io = IoFaultBackend::new(Box::new(inner.clone()), FaultPlan::perfect(5));
        let mut c = durable(&spec, Box::new(io.clone()));
        // Every append fails transiently: retries exhaust and degrade.
        io.configure(|p| p.transient_p = 1.0);
        let d = c.draw_fresh();
        let e = ev(&spec, "draft", std::slice::from_ref(&d));
        let err = c.submit(e.clone()).unwrap_err();
        assert!(matches!(err, CoordinatorError::Wal(WalError::Transient(_))));
        assert!(c.degraded());
        let retries = c.ft_stats().wal_transient_retries;
        assert_eq!(
            retries,
            ShardPlaneConfig::default().wal_transient_retries as u64
        );
        // Nothing was ever written: rearm is a clean no-op truncation, and
        // once the transient condition clears the submit goes through.
        io.heal();
        c.rearm().unwrap();
        c.submit(e).unwrap();
        c.audit().unwrap();
        assert_eq!(c.ft_stats().wal_appends, 1);
    }

    #[test]
    fn empty_stream_replays_to_an_empty_run() {
        let spec = spec();
        let backend = MemBackend::new();
        let (run, report) =
            ShardPlane::replay_wals(&spec, vec![Box::new(backend.clone())], opts()).unwrap();
        assert!(run.is_empty());
        assert_eq!(report, RecoveryReport::default());
        // The scan leaves a fresh header behind, ready for appends.
        assert_eq!(backend.bytes(), format!("{WAL_HEADER}\n").into_bytes());
        // A torn header is a torn creation: the stream restarts empty.
        let (run, report) = replay(&spec, WAL_HEADER.as_bytes()[..7].to_vec()).unwrap();
        assert!(run.is_empty());
        assert_eq!(report.truncated_bytes, 7);
    }

    #[test]
    fn snapshot_shortens_replay_and_recovery_appends_contiguously() {
        let spec = spec();
        let opts = WalOptions {
            snapshot_every: Some(3),
            ..opts()
        };
        let (backend, c) = journal(&spec, opts, 8);
        let (run, report) = replay(&spec, backend.bytes()).unwrap();
        // Snapshots after events 3 and 6: replay starts at 6 and replays 2.
        assert_eq!(report.snapshot_seq, Some(6));
        assert_eq!(report.events_replayed, 2);
        assert_eq!(report.last_seq, 8);
        assert_eq!(run.current(), c.run().current());
        // The recovered stream keeps appending with contiguous seqs (8
        // events and 2 snapshots, so the next record is seq 11), and the
        // snapshot cadence carries on: the 9th event is the 3rd since seq 8.
        let (mut rc, _) = ShardPlane::recover(
            Arc::clone(&spec),
            vec![Box::new(backend.clone())],
            opts,
            vec![Box::new(PerfectTransport::new())],
            ShardPlaneConfig::with_shards(1),
        )
        .unwrap();
        let d = rc.draw_fresh();
        rc.submit(ev(&spec, "draft", &[d])).unwrap();
        let text = String::from_utf8(backend.bytes()).unwrap();
        let tail: Vec<&str> = text.lines().rev().take(2).collect();
        assert!(
            tail[1].starts_with("e 11 ") && tail[0].starts_with("s 12 "),
            "{text}"
        );
        let (run, report) = replay(&spec, backend.bytes()).unwrap();
        assert_eq!(report.last_seq, 9);
        assert_eq!(report.snapshot_seq, Some(9));
        assert_eq!(run.current(), rc.run().current());
    }

    #[test]
    fn torn_tail_is_truncated() {
        let spec = spec();
        let (backend, _) = journal(&spec, opts(), 3);
        let durable = backend.bytes();
        // Simulate a torn append: half a record, no newline.
        let mut bytes = durable.clone();
        bytes.extend_from_slice(b"e 4 deadbeef t9.1.0 draft f:9");
        let survivor = MemBackend::from_bytes(bytes);
        let (run, report) =
            ShardPlane::replay_wals(&spec, vec![Box::new(survivor.clone())], opts()).unwrap();
        assert_eq!(run.len(), 3);
        assert_eq!(report.truncated_bytes, 29);
        // The torn bytes are gone from storage too.
        assert_eq!(survivor.bytes(), durable);
    }

    #[test]
    fn corrupted_record_ends_the_valid_prefix() {
        let spec = spec();
        let (backend, _) = journal(&spec, opts(), 4);
        // Corrupt the last payload byte of the third record.
        let text = String::from_utf8(backend.bytes()).unwrap();
        let offset: usize = text.lines().take(4).map(|l| l.len() + 1).sum::<usize>() - 2;
        backend.corrupt_byte(offset, 0x41);
        let (run, report) = replay(&spec, backend.bytes()).unwrap();
        // Records 1–2 survive; 3 fails its CRC; 4 is dropped with it.
        assert_eq!(run.len(), 2);
        assert_eq!(report.last_seq, 2);
        assert!(report.truncated_bytes > 0);
    }

    #[test]
    fn crc_valid_record_that_does_not_replay_is_tampering() {
        let spec = spec();
        let (backend, _) = journal(&spec, opts(), 2);
        // Forge a record with a *valid* CRC whose event cannot replay:
        // it publishes a draft that was never created.
        let mut bytes = backend.bytes();
        bytes.extend_from_slice(record_line('e', 3, "t99.1.0 publish f:98 f:99").as_bytes());
        let err = replay(&spec, bytes).unwrap_err();
        assert!(
            matches!(&err, WalError::Tampered { seq: 3, reason } if reason.starts_with("does not replay")),
            "{err}"
        );
    }

    #[test]
    fn stream_seq_gap_is_tampering() {
        let spec = spec();
        let (backend, _) = journal(&spec, opts(), 3);
        // Delete the middle record (a line splice with valid CRCs around
        // it); the drafts are independent, so only the seq check objects.
        let text = String::from_utf8(backend.bytes()).unwrap();
        let kept: Vec<&str> = text
            .lines()
            .enumerate()
            .filter(|(i, _)| *i != 2)
            .map(|(_, l)| l)
            .collect();
        let err = replay(&spec, (kept.join("\n") + "\n").into_bytes()).unwrap_err();
        assert!(
            matches!(&err, WalError::Tampered { seq: 3, reason } if reason.contains("seq jumps")),
            "{err}"
        );
    }

    #[test]
    fn foreign_stream_header_is_rejected() {
        let err = replay(&spec(), b"not a wal\nat all\n".to_vec()).unwrap_err();
        assert_eq!(err, WalError::BadHeader);
    }
}
