//! Invariant oracles checked after every chaos action.
//!
//! An [`Oracle`] inspects a [`Checkpoint`] — a read-only snapshot of the
//! whole simulated system: the live [`ShardPlane`] (shards=1 is the
//! paper's master server), the **shadow run** (the full accepted history
//! replayed from the empty instance, surviving crashes and WAL snapshots),
//! the raw bytes on every simulated disk, and the harness bookkeeping (what
//! is in flight, whether the environment has healed). Oracles may keep
//! state across checks (the trait takes `&mut self`); a fresh set is
//! instantiated per trace execution.
//!
//! The default battery ([`default_oracles`]):
//!
//! * [`ShadowEquivalence`] — the plane's in-memory run is a suffix of the
//!   accepted history and reaches the same instance;
//! * [`ShardStateUnion`] — the union of the shard state partitions equals
//!   that instance, byte for byte;
//! * [`ShardSlicePrefix`] — every (shard, peer) replica slice equals its
//!   slice of `I@p` for *some* prefix of the accepted history (the paper's
//!   view consistency, weakened to prefixes because deltas are
//!   legitimately in flight);
//! * [`HlcCausality`] — HLC stamp order is consistent with causal delivery;
//! * [`ShardWalReplay`] — quorum recovery from copies of the current disk
//!   bytes reproduces the accepted run exactly (plus at most the one
//!   in-flight event), and recovery from the *synced* prefixes alone loses
//!   nothing acknowledged;
//! * [`ShardOwnership`] — exactly one owner per key, and the map epoch
//!   never moves backwards;
//! * [`DegradedSafety`] — no mutation lands while the plane is degraded;
//! * [`WellFormed`] — the accepted history replays from scratch under the
//!   key chase (via [`governed_wellformed`], which doubles as the governed
//!   analysis exercised by `GovernorCancel`);
//! * [`ViewPlaneOracle`] — the incrementally delta-maintained per-peer views
//!   of both the live run and the shadow agree with the from-scratch
//!   `view_of` reference (the differential check of the view plane);
//! * [`ProvenanceSound`] — a provenance-annotated mirror of the shadow run
//!   evaluates byte-identically to it, and the incrementally stepped
//!   provenance plane equals a from-scratch rebuild after every action.
//!
//! The closing oracle — post-heal convergence — needs mutable access to
//! pump the plane, so it runs as the final check of
//! [`ChaosSim::run_trace`](crate::chaos::ChaosSim::run_trace) rather than
//! through this trait.

use std::collections::BTreeMap;

use cwf_model::govern::{Bound, Governor, Pool, Verdict};

use crate::chaos::actions::Action;
use crate::event::Event;
use crate::run::{ReplayError, Run};
use crate::shard::{slice_view, HlcStamp, ShardId, ShardMap, ShardPlane};
use crate::wal::{MemBackend, WalBackend, WalOptions};

/// A read-only snapshot of the simulated system handed to every oracle
/// after each action.
pub struct Checkpoint<'a> {
    /// The live shard plane.
    pub plane: &'a ShardPlane,
    /// The full accepted history, replayed from the empty instance. Unlike
    /// the plane's own run (which restarts from a WAL snapshot after
    /// recovery), the shadow never forgets a prefix.
    pub shadow: &'a Run,
    /// The current epoch's simulated disks, one per shard stream (shared
    /// handles under the per-shard WALs).
    pub backends: &'a [MemBackend],
    /// The WAL options in force (chaos always syncs per record).
    pub opts: WalOptions,
    /// The at-most-one accepted-then-rolled-back event whose bytes may or
    /// may not be on disk.
    pub in_flight: Option<&'a Event>,
    /// Has the environment healed (no further fault injection)?
    pub healed: bool,
    /// Index of the action just executed.
    pub step: usize,
    /// The action just executed.
    pub action: &'a Action,
}

/// A pluggable invariant, checked after every action of a chaos trace.
pub trait Oracle {
    /// Short stable name, used in failure reports and repro output.
    fn name(&self) -> &'static str;
    /// Checks the invariant; `Err` carries a human-readable violation.
    fn check(&mut self, cp: &Checkpoint<'_>) -> Result<(), String>;
}

/// The default oracle battery (see the module docs).
pub fn default_oracles() -> Vec<Box<dyn Oracle>> {
    vec![
        Box::new(ShadowEquivalence),
        Box::new(ShardStateUnion),
        Box::new(ShardSlicePrefix::default()),
        Box::new(HlcCausality),
        Box::new(ShardWalReplay),
        Box::new(ShardOwnership::default()),
        Box::new(DegradedSafety::default()),
        Box::new(WellFormed),
        Box::new(ViewPlaneOracle),
        Box::new(ProvenanceSound::default()),
    ]
}

/// Replays `run`'s event sequence from its initial instance under a
/// [`Governor`], re-validating every transition (body satisfaction, key
/// chase, freshness). One governor tick is charged per event, and the
/// tick-independent guards are checked once up front, so a pre-cancelled
/// governor stops before any work.
///
/// Returns `Done(Ok(n))` when all `n` events replay, `Done(Err(e))` when
/// the history is ill-formed, and an `Anytime`/`Exhausted` verdict when the
/// governor cut the replay short.
pub fn governed_wellformed(run: &Run, gov: &Governor) -> Verdict<Result<usize, ReplayError>> {
    if let Err(reason) = gov.check() {
        return Verdict::Exhausted(reason);
    }
    let mut replay = Run::with_initial(run.spec_arc(), run.initial().clone());
    for (i, e) in run.events().iter().enumerate() {
        if let Err(reason) = gov.tick() {
            return if i == 0 {
                Verdict::Exhausted(reason)
            } else {
                Verdict::Anytime(Ok(i), Bound::bare(reason))
            };
        }
        if let Err(error) = replay.push(e.clone()) {
            return Verdict::Done(Err(ReplayError { index: i, error }));
        }
    }
    Verdict::Done(Ok(run.len()))
}

/// Audits the delta-maintained view plane of `run` against the from-scratch
/// `view_of` reference, one governed tick per peer, fanning the peers out
/// over `pool` — the governed *parallel* analysis exercised by
/// [`Action::ParCancel`](crate::chaos::actions::Action::ParCancel).
///
/// Per-peer results merge in peer order, so the verdict is byte-identical
/// across pool sizes on a completed audit: `Done(Ok(n))` when all `n` peer
/// views agree, `Done(Err(msg))` naming the first diverging peer, and the
/// cutoff verdicts mirroring [`governed_wellformed`] (`Exhausted` when the
/// first peer was already cut off, `Anytime(Ok(i), _)` after `i` audited
/// peers otherwise).
pub fn governed_view_audit(
    run: &Run,
    gov: &Governor,
    pool: &Pool,
) -> Verdict<Result<usize, String>> {
    if let Err(reason) = gov.check() {
        return Verdict::Exhausted(reason);
    }
    let collab = run.spec().collab();
    let peers: Vec<_> = collab.peer_ids().collect();
    let n = peers.len();
    let outs = pool.run(peers, |_, p| {
        gov.tick()?;
        if run.peer_view(p) != &collab.view_of(run.current(), p) {
            return Ok(Err(format!(
                "view plane diverges from view_of for peer {}",
                collab.peer_name(p)
            )));
        }
        Ok(Ok(()))
    });
    for (i, out) in outs.into_iter().enumerate() {
        match out {
            Err(reason) => {
                return if i == 0 {
                    Verdict::Exhausted(reason)
                } else {
                    Verdict::Anytime(Ok(i), Bound::bare(reason))
                };
            }
            Ok(Err(msg)) => return Verdict::Done(Err(msg)),
            Ok(Ok(())) => {}
        }
    }
    Verdict::Done(Ok(n))
}

/// The plane's in-memory run is a suffix of the accepted history and its
/// current instance equals the shadow's.
pub struct ShadowEquivalence;

impl Oracle for ShadowEquivalence {
    fn name(&self) -> &'static str {
        "shadow-equivalence"
    }

    fn check(&mut self, cp: &Checkpoint<'_>) -> Result<(), String> {
        let run = cp.plane.run();
        if run.len() > cp.shadow.len() {
            return Err(format!(
                "plane holds {} events but only {} were accepted",
                run.len(),
                cp.shadow.len()
            ));
        }
        let offset = cp.shadow.len() - run.len();
        for i in 0..run.len() {
            if run.event(i) != cp.shadow.event(offset + i) {
                return Err(format!(
                    "plane event {i} differs from accepted event {}",
                    offset + i
                ));
            }
        }
        if run.current() != cp.shadow.current() {
            return Err(format!(
                "plane instance diverges from the accepted history after {} events",
                cp.shadow.len()
            ));
        }
        Ok(())
    }
}

/// While the plane is degraded, its run must not grow.
///
/// Stateful: remembers the run length at the moment degradation was first
/// observed and requires it to stay frozen until the plane re-arms (or a
/// crash-restart replaces it — a recovered plane starts armed).
#[derive(Default)]
pub struct DegradedSafety {
    frozen_len: Option<usize>,
}

impl Oracle for DegradedSafety {
    fn name(&self) -> &'static str {
        "degraded-safety"
    }

    fn check(&mut self, cp: &Checkpoint<'_>) -> Result<(), String> {
        if cp.plane.degraded() {
            let len = cp.plane.run().len();
            match self.frozen_len {
                None => self.frozen_len = Some(len),
                Some(frozen) if frozen != len => {
                    return Err(format!(
                        "run grew from {frozen} to {len} events while degraded"
                    ));
                }
                Some(_) => {}
            }
        } else {
            self.frozen_len = None;
        }
        Ok(())
    }
}

/// The accepted history replays from scratch under the key chase.
pub struct WellFormed;

impl Oracle for WellFormed {
    fn name(&self) -> &'static str {
        "well-formed"
    }

    fn check(&mut self, cp: &Checkpoint<'_>) -> Result<(), String> {
        match governed_wellformed(cp.shadow, &Governor::unlimited()) {
            Verdict::Done(Ok(_)) => Ok(()),
            Verdict::Done(Err(e)) => Err(format!(
                "accepted history does not replay under the key chase: {e}"
            )),
            v => Err(format!("ungoverned replay did not finish: {v:?}")),
        }
    }
}

/// The incrementally maintained view plane agrees with the from-scratch
/// reference `view_of` for every peer — checked on both the live plane's
/// run and the shadow history after every action. This is the
/// differential oracle of the delta path: `view_of` stays the executable
/// spec, the plane must match it byte for byte.
pub struct ViewPlaneOracle;

impl Oracle for ViewPlaneOracle {
    fn name(&self) -> &'static str {
        "view-plane"
    }

    fn check(&mut self, cp: &Checkpoint<'_>) -> Result<(), String> {
        let collab = cp.shadow.spec().collab();
        let live = cp.plane.run();
        for p in collab.peer_ids() {
            if live.peer_view(p) != &collab.view_of(live.current(), p) {
                return Err(format!(
                    "live run's view plane diverges from view_of for peer {}",
                    collab.peer_name(p)
                ));
            }
            if cp.shadow.peer_view(p) != &collab.view_of(cp.shadow.current(), p) {
                return Err(format!(
                    "shadow run's view plane diverges from view_of for peer {}",
                    collab.peer_name(p)
                ));
            }
        }
        Ok(())
    }
}

/// The provenance plane is sound along the accepted history: annotating
/// the shadow run never perturbs evaluation, and the incrementally stepped
/// plane equals a from-scratch [`crate::prov::ProvPlane::build`] after
/// every single action — crashes, recoveries, and rollbacks included.
///
/// Stateful: keeps a mirror of the shadow run whose plane is built while it
/// is empty, extended incrementally (so the plane is *stepped*, never
/// rebuilt, along the accepted history) and rebuilt from scratch only when
/// the shadow turns out not to extend the mirror (first check, or a
/// rolled-back suffix).
#[derive(Default)]
pub struct ProvenanceSound {
    mirror: Option<Run>,
}

impl Oracle for ProvenanceSound {
    fn name(&self) -> &'static str {
        "provenance-sound"
    }

    fn check(&mut self, cp: &Checkpoint<'_>) -> Result<(), String> {
        let shadow = cp.shadow;
        let extend_from = match &self.mirror {
            Some(m)
                if m.len() <= shadow.len()
                    && (0..m.len()).all(|i| m.event(i) == shadow.event(i)) =>
            {
                m.len()
            }
            _ => {
                let fresh = Run::with_initial(shadow.spec_arc(), shadow.initial().clone());
                fresh.enable_provenance();
                self.mirror = Some(fresh);
                0
            }
        };
        let mirror = self.mirror.as_mut().expect("just set");
        for i in extend_from..shadow.len() {
            mirror
                .push(shadow.event(i).clone())
                .map_err(|e| format!("annotated mirror rejects accepted event {i}: {e:?}"))?;
        }
        if mirror.current() != shadow.current() {
            return Err("provenance annotation perturbed evaluation".to_string());
        }
        if mirror.provenance() != &crate::prov::ProvPlane::build(mirror) {
            return Err(
                "incrementally stepped provenance plane diverges from from-scratch build"
                    .to_string(),
            );
        }
        Ok(())
    }
}

/// Exactly one owner per key, at every single checkpoint: every fact
/// materialized in a shard's state partition hashes to that shard under
/// the plane's **current** shard map — so no key is ever served by two
/// shards, and streams the map does not assign (merged-away sources,
/// streams orphaned by an aborted split) hold nothing. Also pins the
/// epoch's arrow of time: the map epoch never moves backwards, not across
/// live migrations and not across crash–restarts (recovery re-derives the
/// epoch from the router stream's plan and resolution records, and a
/// presumed abort still lands *above* the aborted plan's epoch).
#[derive(Default)]
pub struct ShardOwnership {
    last_epoch: u64,
}

impl Oracle for ShardOwnership {
    fn name(&self) -> &'static str {
        "shard-ownership"
    }

    fn check(&mut self, cp: &Checkpoint<'_>) -> Result<(), String> {
        let map = cp.plane.map();
        for i in 0..cp.plane.shard_count() {
            let s = ShardId(i as u16);
            for (rel, t) in cp.plane.shard_state(s).facts() {
                let owner = map.shard_of(t.key());
                if owner != s {
                    return Err(format!(
                        "{s} holds a fact of {rel:?} with key {:?} owned by {owner} \
                         at epoch {}",
                        t.key(),
                        map.epoch()
                    ));
                }
            }
        }
        if map.epoch() < self.last_epoch {
            return Err(format!(
                "map epoch moved backwards: {} after {}",
                map.epoch(),
                self.last_epoch
            ));
        }
        self.last_epoch = map.epoch();
        Ok(())
    }
}

/// Quorum recovery over copies of the per-shard streams as they are
/// *right now* reproduces the accepted history. Full bytes (which may end
/// in torn tails or hold in-doubt prepare records) must replay to the
/// accepted events plus at most the one in-flight event; the synced
/// prefixes alone must replay to *exactly* the accepted events — no acked
/// event is ever lost — since chaos syncs every record and the cross-shard
/// commit point forces the home stream's `c` record down before anything
/// is acknowledged.
pub struct ShardWalReplay;

impl Oracle for ShardWalReplay {
    fn name(&self) -> &'static str {
        "shard-wal-replay"
    }

    fn check(&mut self, cp: &Checkpoint<'_>) -> Result<(), String> {
        let accepted = cp.shadow.len() as u64;
        let spec = cp.shadow.spec_arc();

        // Full bytes: the accepted events, plus at most the in-flight one.
        let full: Vec<Box<dyn WalBackend>> = cp
            .backends
            .iter()
            .map(|m| Box::new(MemBackend::from_bytes(m.bytes())) as Box<dyn WalBackend>)
            .collect();
        let (run, report) = ShardPlane::replay_wals(&spec, full, cp.opts)
            .map_err(|e| format!("quorum recovery refused the live streams: {e}"))?;
        match report.last_seq {
            s if s == accepted => {
                if run.current() != cp.shadow.current() {
                    return Err(
                        "quorum-recovered instance differs from the accepted history".to_string(),
                    );
                }
            }
            s if s == accepted + 1 => {
                if cp.in_flight.is_none() {
                    return Err(format!(
                        "quorum recovery yields {s} events but only {accepted} were \
                         accepted and nothing is in flight"
                    ));
                }
            }
            s if s < accepted => {
                return Err(format!(
                    "lost acked events: quorum recovery reaches seq {s} of {accepted}"
                ));
            }
            s => {
                return Err(format!(
                    "phantom events: quorum recovery reaches seq {s} of {accepted}"
                ));
            }
        }

        // Synced prefixes: exactly the acknowledged events, no more, no less.
        let synced: Vec<Box<dyn WalBackend>> = cp
            .backends
            .iter()
            .map(|m| {
                let bytes = m.bytes();
                let cut = m.synced_len().min(bytes.len());
                Box::new(MemBackend::from_bytes(bytes[..cut].to_vec())) as Box<dyn WalBackend>
            })
            .collect();
        let (run, report) = ShardPlane::replay_wals(&spec, synced, cp.opts)
            .map_err(|e| format!("quorum recovery refused the synced prefixes: {e}"))?;
        if report.last_seq != accepted {
            return Err(format!(
                "durable prefixes hold {} events, {accepted} were acknowledged",
                report.last_seq
            ));
        }
        if run.current() != cp.shadow.current() {
            return Err("durable instance differs from the accepted history".to_string());
        }
        Ok(())
    }
}

/// The cross-shard convergence oracle's per-step half: the **union of the
/// shard state partitions equals the routing layer's instance** — byte for
/// byte, after every single action, not just at quiescence. (Together with
/// [`ShadowEquivalence`], the union equals the accepted history's instance.
/// The post-heal half — every peer's slice union equals `view_of` of the
/// shadow — needs to pump the plane, so it runs as the closing check of the
/// sim's trace execution.)
pub struct ShardStateUnion;

impl Oracle for ShardStateUnion {
    fn name(&self) -> &'static str {
        "shard-state-union"
    }

    fn check(&mut self, cp: &Checkpoint<'_>) -> Result<(), String> {
        if !cp.plane.state_matches(cp.plane.run().current()) {
            return Err(
                "union of shard state partitions differs from the routing layer's instance"
                    .to_string(),
            );
        }
        Ok(())
    }
}

/// Every (shard, peer) slice equals that shard's slice of `I@p` for *some*
/// prefix of the accepted history, sliced by *some* shard map the plane
/// has routed by. Under faults a slice legitimately lags (deltas dropped or
/// delayed), but it must never hold a state that *no* prefix of the history
/// explains — that would mean a delta was applied out of order, twice, or
/// corrupted. Slices of
/// different shards may legitimately sit at *different* prefixes (each
/// shard's delivery plane lags independently), which is exactly why the
/// flat union-of-slices cannot be prefix-checked; and a slice whose
/// post-cutover resync is still in flight legitimately keeps the shape an
/// *older* epoch's map gave it, which is why the oracle remembers every
/// map it has seen. The closing cross-shard convergence check still
/// requires exactness under the final map once the environment heals.
#[derive(Default)]
pub struct ShardSlicePrefix {
    /// Every distinct map (one per epoch) observed across checkpoints.
    maps: Vec<ShardMap>,
}

impl Oracle for ShardSlicePrefix {
    fn name(&self) -> &'static str {
        "shard-slice-prefix"
    }

    fn check(&mut self, cp: &Checkpoint<'_>) -> Result<(), String> {
        let collab = cp.shadow.spec().collab();
        let map = cp.plane.map();
        if !self.maps.iter().any(|m| m.epoch() == map.epoch()) {
            self.maps.push(map.clone());
        }
        for i in 0..cp.plane.shard_count() {
            let s = ShardId(i as u16);
            for p in collab.peer_ids() {
                let slice = cp.plane.shard_replica(s, p);
                // Newest prefix and newest map first: up to date is the
                // common case.
                let ok = (0..=cp.shadow.len()).rev().any(|i| {
                    let inst = if i == 0 {
                        cp.shadow.initial()
                    } else {
                        cp.shadow.instance(i - 1)
                    };
                    let view = collab.view_of(inst, p);
                    self.maps
                        .iter()
                        .rev()
                        .any(|m| slice.same_facts(&slice_view(m, s, &view)))
                });
                if !ok {
                    return Err(format!(
                        "slice {s}/peer {} matches no prefix of the {}-event accepted history \
                         under any of the {} maps seen",
                        collab.peer_name(p),
                        cp.shadow.len(),
                        self.maps.len()
                    ));
                }
            }
        }
        Ok(())
    }
}

/// HLC order is consistent with causal delivery. Over the plane's
/// broadcast log and per-shard oplogs (one process epoch):
///
/// * admission stamps strictly increase in admission order;
/// * every shard's oplog entry for event *i* orders strictly **above**
///   the admission stamp of *i* (the shard observed the admission) and
///   strictly **below** the admission stamp of *i + 1* (the router
///   observed the entry back before admitting the next event);
/// * within one shard, oplog stamps strictly increase with the sequence
///   number — across failovers, whose promoted clock must keep
///   dominating the durable log.
pub struct HlcCausality;

impl Oracle for HlcCausality {
    fn name(&self) -> &'static str {
        "hlc-causality"
    }

    fn check(&mut self, cp: &Checkpoint<'_>) -> Result<(), String> {
        let log = cp.plane.log();
        let mut prev: Option<HlcStamp> = None;
        // event index -> (admission, next event's admission if any)
        let mut admissions: BTreeMap<usize, (HlcStamp, Option<HlcStamp>)> = BTreeMap::new();
        for (i, b) in log.iter().enumerate() {
            if let Some(p) = prev {
                if b.admitted <= p {
                    return Err(format!(
                        "admission stamp regressed: event {} admitted at {} after {p}",
                        b.at, b.admitted
                    ));
                }
            }
            for (s, stamp) in &b.stamps {
                if *stamp <= b.admitted {
                    return Err(format!(
                        "shard {s} stamped event {} at {stamp}, not above its admission {}",
                        b.at, b.admitted
                    ));
                }
            }
            let next = log.get(i + 1).map(|n| n.admitted);
            admissions.insert(b.at, (b.admitted, next));
            prev = Some(b.admitted);
        }
        for s in cp.plane.map().shard_ids() {
            let mut prev_seq: Option<HlcStamp> = None;
            for e in cp.plane.oplog(s).entries() {
                if let Some(p) = prev_seq {
                    if e.stamp <= p {
                        return Err(format!(
                            "shard {s} oplog stamp regressed at seq {}: {} after {p}",
                            e.seq, e.stamp
                        ));
                    }
                }
                prev_seq = Some(e.stamp);
                let Some((admitted, next)) = admissions.get(&e.event_index) else {
                    return Err(format!(
                        "shard {s} oplog seq {} references event {} with no broadcast",
                        e.seq, e.event_index
                    ));
                };
                if e.stamp <= *admitted {
                    return Err(format!(
                        "shard {s} oplog seq {} stamp {} not above admission {admitted}",
                        e.seq, e.stamp
                    ));
                }
                if let Some(next) = next {
                    if e.stamp >= *next {
                        return Err(format!(
                            "shard {s} oplog seq {} stamp {} not below the next admission {next}",
                            e.seq, e.stamp
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// A deliberately breakable oracle for exercising the shrinker: fails as
/// soon as more than `limit` events have been accepted. Not part of
/// [`default_oracles`]; tests plug it in to demonstrate that a failing
/// trace minimizes to (roughly) `limit + 1` submits.
pub struct EventCountOracle {
    /// Maximum number of accepted events tolerated.
    pub limit: usize,
}

impl Oracle for EventCountOracle {
    fn name(&self) -> &'static str {
        "event-count"
    }

    fn check(&mut self, cp: &Checkpoint<'_>) -> Result<(), String> {
        if cp.shadow.len() > self.limit {
            Err(format!(
                "{} events accepted, limit is {}",
                cp.shadow.len(),
                self.limit
            ))
        } else {
            Ok(())
        }
    }
}
