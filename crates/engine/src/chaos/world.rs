//! One chaos universe: the [`World`] a [`ChaosSim`](crate::chaos::ChaosSim)
//! builds per trace execution.
//!
//! The system under test is a [`ShardPlane`] of N shards behind the routing
//! layer (N = 1 is the paper's master server), each shard with its *own*
//! faulty transport and simulated disk (derived from disjoint streams of
//! the one seed), its own standby replica, and its own partitionable
//! links. [`Partition`](Action::Partition) resolves to a (shard, link)
//! pair covering every peer slice *and* every standby replication link.
//!
//! Alongside the plane the world maintains the **shadow run**: the accepted
//! history replayed from the empty instance. The oracle battery
//! ([`default_oracles`](crate::chaos::default_oracles)) checks the plane
//! against that shadow after every action; after heal +
//! pump-to-quiescence the closing check requires the union of shard states
//! to equal the shadow instance **byte for byte** and every peer's slice
//! union to equal its `view_of` reference — the cross-shard convergence
//! oracle of the design.

use std::sync::Arc;

use cwf_lang::WorkflowSpec;
use cwf_model::govern::{CancelToken, Governor, Pool, Reason, Verdict};
use cwf_model::solver::satisfiable_within_pooled;
use cwf_model::PeerId;

use crate::chaos::actions::Action;
use crate::chaos::oracle::{governed_view_audit, governed_wellformed, Checkpoint};
use crate::chaos::sim::{
    inv, mix, par_probe_condition, ChaosConfig, ChaosProfile, Violation, NET_SALT, STORAGE_SALT,
};
use crate::delivery::MaterializedView;
use crate::error::CoordinatorError;
use crate::event::Event;
use crate::fault::FaultPlan;
use crate::run::Run;
use crate::shard::{ShardConvergence, ShardId, ShardLink, ShardPlane, ShardPlaneConfig};
use crate::simulate::{candidates, complete, Candidate};
use crate::transport::{FaultyTransport, Transport};
use crate::wal::{IoFaultBackend, MemBackend, SyncPolicy, Wal, WalOptions};

/// The live state of one trace execution.
pub(crate) struct World {
    spec: Arc<WorkflowSpec>,
    profile: ChaosProfile,
    config: ChaosConfig,
    seed: u64,
    shards: usize,
    pub(crate) plane: ShardPlane,
    /// One simulated disk per shard stream.
    mems: Vec<MemBackend>,
    ios: Vec<IoFaultBackend>,
    opts: WalOptions,
    pub(crate) shadow: Run,
    in_flight: Option<Event>,
    healed: bool,
    epoch: u64,
    pub(crate) restarts: u64,
    /// The unsynced-byte budget of the crash forced by the last armed
    /// [`Action::RouterCrash`].
    router_crash_keep: u32,
    /// Per-shard count of transport replacements (failovers + hand-off
    /// cutovers) this epoch; salts the next replacement's fault stream.
    incarnations: Vec<u64>,
    pub(crate) transcript: Vec<String>,
}

impl World {
    pub(crate) fn new(
        spec: Arc<WorkflowSpec>,
        profile: ChaosProfile,
        config: ChaosConfig,
        shards: usize,
        seed: u64,
    ) -> Self {
        let opts = WalOptions {
            sync: SyncPolicy::Always,
            snapshot_every: config.snapshot_every,
        };
        let mems: Vec<MemBackend> = (0..shards).map(|_| MemBackend::new()).collect();
        let ios: Vec<IoFaultBackend> = mems
            .iter()
            .enumerate()
            .map(|(s, m)| {
                IoFaultBackend::new(
                    Box::new(m.clone()),
                    FaultPlan::perfect(mix(seed, STORAGE_SALT ^ ((s as u64 + 1) << 16))),
                )
            })
            .collect();
        let wals: Vec<Wal> = ios
            .iter()
            .map(|io| {
                Wal::create(Box::new(io.clone()), opts)
                    .expect("fresh in-memory backend cannot fail")
            })
            .collect();
        let (short, fsync, transient) = profile.storage_rates();
        for io in &ios {
            io.configure(|p| {
                p.short_write_p = short;
                p.fsync_fail_p = fsync;
                p.transient_p = transient;
            });
        }
        let transports: Vec<Box<dyn Transport>> = (0..shards)
            .map(|s| {
                Box::new(FaultyTransport::new(
                    profile.transport_plan(mix(seed, NET_SALT ^ ((s as u64 + 1) << 16))),
                )) as Box<dyn Transport>
            })
            .collect();
        let plane = ShardPlane::with_parts(
            Arc::clone(&spec),
            transports,
            Some(wals),
            ShardPlaneConfig {
                delivery: config.delivery,
                ..ShardPlaneConfig::with_shards(shards)
            },
        );
        let shadow = Run::new(Arc::clone(&spec));
        World {
            spec,
            profile,
            config,
            seed,
            shards,
            plane,
            mems,
            ios,
            opts,
            shadow,
            in_flight: None,
            healed: false,
            epoch: 0,
            restarts: 0,
            router_crash_keep: 0,
            incarnations: vec![0; shards],
            transcript: Vec::new(),
        }
    }

    fn note(&mut self, line: impl Into<String>) {
        self.transcript.push(line.into());
    }

    /// The fault plan of shard `s`'s *next* transport (failover target or
    /// hand-off receiver): a fresh stream salted by epoch, shard, and the
    /// per-shard incarnation counter, healed if the environment has healed.
    fn next_transport(&mut self, s: ShardId) -> Box<dyn Transport> {
        self.incarnations[s.index()] += 1;
        let salt = NET_SALT
            ^ (self.epoch << 8)
            ^ ((s.index() as u64 + 1) << 16)
            ^ (self.incarnations[s.index()] << 32);
        let mut plan = self.profile.transport_plan(mix(self.seed, salt));
        if self.healed {
            plan.heal();
        }
        Box::new(FaultyTransport::new(plan))
    }

    /// Decodes a raw partition-link selector into its (shard, link) pair:
    /// the link space is `shards × (peers + 1)` — every peer slice of every
    /// shard plus each shard's standby replication link.
    fn decode_link(&self, link: u32) -> (ShardId, ShardLink) {
        let peers = self.spec.collab().peer_count();
        let idx = link as usize % (self.shards * (peers + 1));
        let shard = ShardId((idx / (peers + 1)) as u16);
        let within = idx % (peers + 1);
        let target = if within < peers {
            ShardLink::Peer(PeerId(within as u32))
        } else {
            ShardLink::Standby
        };
        (shard, target)
    }

    pub(crate) fn checkpoint<'a>(&'a self, step: usize, action: &'a Action) -> Checkpoint<'a> {
        Checkpoint {
            plane: &self.plane,
            shadow: &self.shadow,
            backends: &self.mems,
            opts: self.opts,
            in_flight: self.in_flight.as_ref(),
            healed: self.healed,
            step,
            action,
        }
    }

    pub(crate) fn apply(&mut self, action: &Action) -> Result<(), Violation> {
        match action {
            Action::Submit { pick } => self.submit(*pick),
            Action::Pump { ticks } => {
                for _ in 0..*ticks {
                    self.plane.pump();
                }
                Ok(())
            }
            Action::CrashRestart {
                keep_unsynced,
                corrupt,
            } => self.crash_restart(*keep_unsynced, *corrupt),
            Action::Resync => {
                let n = self.plane.resync_divergent();
                self.note(format!("resync: {n} divergent slices"));
                Ok(())
            }
            Action::Heal => {
                self.healed = true;
                self.plane.heal();
                for io in &self.ios {
                    io.heal();
                }
                self.note("heal: all fault injection stopped");
                Ok(())
            }
            Action::Rearm => self.rearm(),
            Action::GovernorCancel => self.governor_cancel(),
            Action::ParCancel => self.par_cancel(),
            Action::DegradeProbe => self.degrade_probe(),
            Action::Partition { link } => {
                let (s, target) = self.decode_link(*link);
                self.plane.partition_link(s, target);
                self.note(format!("part: {s} {target:?} down"));
                Ok(())
            }
            Action::HealPartition { link } => {
                let (s, target) = self.decode_link(*link);
                self.plane.heal_link(s, target);
                self.note(format!("unpart: {s} {target:?} up"));
                Ok(())
            }
            Action::ShardFailover { shard } => {
                let s = ShardId((*shard as usize % self.shards) as u16);
                let t = self.next_transport(s);
                let report = self.plane.failover(s, t);
                if report.aborted_handoff {
                    self.note(format!(
                        "failover: {s} promoted its standby, aborting the in-flight hand-off"
                    ));
                } else {
                    self.note(format!("failover: {s} promoted its standby"));
                }
                Ok(())
            }
            Action::Handoff { shard } => self.handoff(*shard),
            Action::CommitStall { shard } => {
                let s = ShardId((*shard as usize % self.shards) as u16);
                self.plane.inject_commit_stall(s);
                self.note(format!("cstall: armed on {s}"));
                Ok(())
            }
            Action::CommitAbort => {
                self.plane.inject_commit_abort();
                self.note("cabort: armed");
                Ok(())
            }
            Action::RouterCrash { keep_unsynced } => {
                self.plane.inject_router_crash();
                self.router_crash_keep = *keep_unsynced;
                self.note("rcrash: armed");
                Ok(())
            }
            Action::Split { .. } | Action::Merge { .. } | Action::Rebalance { .. } => {
                self.reshard(action)
            }
        }
    }

    /// One step of the elastic-resharding protocol. An in-flight migration
    /// absorbs any resharding token as a protocol step — copy a bounded
    /// batch of snapshot facts, cutting over once the copy drains — so a
    /// trace interleaves begin, copy, and cutover with everything else the
    /// generator emits. With nothing in flight the token begins its own
    /// kind of migration (a split provisions a brand-new stream first,
    /// popped back off if the plane refuses the plan).
    fn reshard(&mut self, action: &Action) -> Result<(), Violation> {
        if let Some((kind, src, dst, left)) = self.plane.reshard_in_progress() {
            if left > 0 {
                let left = self.plane.step_reshard(4);
                self.note(format!("{kind}: {src}>{dst} stepped, {left} facts left"));
                return Ok(());
            }
            return match self.plane.finish_reshard() {
                Ok(true) => {
                    let epoch = self.plane.map().epoch();
                    self.note(format!("{kind}: {src}>{dst} cut over at epoch {epoch}"));
                    Ok(())
                }
                Ok(false) => Err(inv("finish_reshard refused an in-progress migration")),
                Err(CoordinatorError::Degraded) => {
                    self.note(format!("{kind}: cutover refused while degraded"));
                    Ok(())
                }
                Err(CoordinatorError::Wal(e)) => {
                    if !self.plane.degraded() {
                        return Err(inv(format!(
                            "cutover wal failure did not degrade the plane: {e}"
                        )));
                    }
                    self.note(format!("{kind}: cutover hit wal failure: {e}"));
                    Ok(())
                }
                Err(e) => Err(inv(format!("finish_reshard returned {e}"))),
            };
        }
        let begun = match *action {
            Action::Split { src } => {
                let s = ShardId((src as usize % self.shards) as u16);
                // Provision the new shard's stream, fault decorator, and
                // transport up front, exactly as `World::new` does for
                // the initial fleet; popped back off on refusal.
                let idx = self.shards;
                let mem = MemBackend::new();
                let salt = STORAGE_SALT ^ (self.epoch << 8) ^ ((idx as u64 + 1) << 16);
                let io = IoFaultBackend::new(
                    Box::new(mem.clone()),
                    FaultPlan::perfect(mix(self.seed, salt)),
                );
                let wal = Wal::create(Box::new(io.clone()), self.opts)
                    .expect("fresh in-memory backend cannot fail");
                if !self.healed {
                    let (short, fsync, transient) = self.profile.storage_rates();
                    io.configure(|p| {
                        p.short_write_p = short;
                        p.fsync_fail_p = fsync;
                        p.transient_p = transient;
                    });
                }
                self.incarnations.push(0);
                let t = self.next_transport(ShardId(idx as u16));
                match self.plane.begin_split(s, t, Some(wal)) {
                    Ok(true) => {
                        self.mems.push(mem);
                        self.ios.push(io);
                        self.shards = self.plane.shard_count();
                        self.note(format!(
                            "split: {s} began onto shard {idx} at epoch {}",
                            self.plane.map().epoch()
                        ));
                        return Ok(());
                    }
                    r => {
                        self.incarnations.pop();
                        r.map(|_| false)
                    }
                }
            }
            Action::Merge { src, dst } => {
                let s = ShardId((src as usize % self.shards) as u16);
                let d = ShardId((dst as usize % self.shards) as u16);
                match self.plane.begin_merge(s, d) {
                    Ok(true) => {
                        self.note(format!(
                            "merge: {s}>{d} began at epoch {}",
                            self.plane.map().epoch()
                        ));
                        return Ok(());
                    }
                    r => r.map(|_| false),
                }
            }
            Action::Rebalance { src, dst } => {
                let s = ShardId((src as usize % self.shards) as u16);
                let d = ShardId((dst as usize % self.shards) as u16);
                match self.plane.begin_rebalance(s, d) {
                    Ok(true) => {
                        self.note(format!(
                            "rebal: {s}>{d} began at epoch {}",
                            self.plane.map().epoch()
                        ));
                        return Ok(());
                    }
                    r => r.map(|_| false),
                }
            }
            _ => unreachable!("reshard only dispatches resharding actions"),
        };
        match begun {
            Ok(_) => {
                self.note("reshard: plan refused (degenerate endpoints or busy)");
                Ok(())
            }
            Err(CoordinatorError::Degraded) => {
                self.note("reshard refused: degraded");
                Ok(())
            }
            Err(CoordinatorError::Wal(e)) => {
                if !self.plane.degraded() {
                    return Err(inv(format!(
                        "reshard plan-record failure did not degrade the plane: {e}"
                    )));
                }
                self.note(format!("reshard hit wal failure: {e}"));
                Ok(())
            }
            Err(e) => Err(inv(format!("begin reshard returned {e}"))),
        }
    }

    /// One step of the interruptible hand-off protocol: begin on the
    /// selected shard if nothing is in progress, otherwise transfer a
    /// bounded batch of oplog records, cutting over once the tail drains.
    fn handoff(&mut self, shard: u32) -> Result<(), Violation> {
        match self.plane.handoff_in_progress() {
            None => {
                let s = ShardId((shard as usize % self.shards) as u16);
                if self.plane.begin_handoff(s) {
                    self.note(format!("handoff: {s} snapshot taken"));
                } else {
                    self.note(format!("handoff: {s} refused (migration in flight)"));
                }
            }
            Some((s, 0)) => {
                let t = self.next_transport(s);
                if !self.plane.finish_handoff(t) {
                    return Err(inv("finish_handoff refused an in-progress hand-off"));
                }
                self.note(format!("handoff: {s} cut over"));
            }
            Some((s, _)) => {
                let left = self.plane.step_handoff(2);
                self.note(format!("handoff: {s} stepped, {left} records left"));
            }
        }
        Ok(())
    }

    /// Does firing this candidate modify an existing tuple? True when some
    /// insert's key is already bound by the body to a key present in the
    /// current instance — the key chase then merges into (null-fills) that
    /// tuple instead of creating a new one.
    fn modifies_existing(&self, cand: &Candidate) -> bool {
        let rule = self.spec.program().rule(cand.rule);
        rule.head.iter().any(|u| match u {
            cwf_lang::UpdateAtom::Insert { rel, args } => cand
                .bindings
                .resolve(&args[0])
                .is_some_and(|k| self.plane.run().current().rel(*rel).get(&k).is_some()),
            cwf_lang::UpdateAtom::Delete { .. } => false,
        })
    }

    fn submit(&mut self, pick: u32) -> Result<(), Violation> {
        let cands = candidates(self.plane.run());
        if cands.is_empty() {
            self.note("submit: no candidates");
            return Ok(());
        }
        // The modification-heavy profile steers picks toward candidates
        // that null-fill existing tuples, exercising the modified-tuple
        // path of the view plane; other profiles pick uniformly.
        let mods: Vec<&Candidate> = if self.profile == ChaosProfile::ModificationHeavy {
            cands.iter().filter(|c| self.modifies_existing(c)).collect()
        } else {
            Vec::new()
        };
        let cand = if mods.is_empty() {
            &cands[pick as usize % cands.len()]
        } else {
            mods[pick as usize % mods.len()]
        };
        let mut scratch = self.plane.run().clone();
        let event = complete(&mut scratch, cand);
        let was_degraded = self.plane.degraded();
        match self.plane.submit(event.clone()) {
            Ok(b) => {
                let line = format!(
                    "submit ok: at={} home={} stamps={}",
                    b.at,
                    b.home,
                    b.stamps
                        .iter()
                        .map(|(s, t)| format!("{s}:{t}"))
                        .collect::<Vec<_>>()
                        .join(",")
                );
                if was_degraded {
                    return Err((
                        "degraded-safety".into(),
                        "degraded plane accepted a mutation".into(),
                    ));
                }
                self.note(line);
                if let Err(e) = self.shadow.push(event) {
                    return Err((
                        "shadow-equivalence".into(),
                        format!("accepted event does not extend the accepted history: {e}"),
                    ));
                }
                Ok(())
            }
            Err(CoordinatorError::Degraded) => {
                if !was_degraded {
                    return Err(inv("armed plane rejected a submit as Degraded"));
                }
                self.note("submit rejected: degraded");
                Ok(())
            }
            Err(CoordinatorError::Engine(e)) => {
                self.note(format!("submit rejected by engine: {e}"));
                Ok(())
            }
            Err(CoordinatorError::Wal(e)) => {
                if !self.plane.degraded() {
                    return Err(inv(format!("wal failure did not degrade the plane: {e}")));
                }
                self.in_flight = Some(event);
                self.note(format!("submit hit wal failure: {e}"));
                Ok(())
            }
            Err(CoordinatorError::CommitAborted) => {
                if self.plane.degraded() {
                    return Err(inv("a clean commit abort degraded the plane"));
                }
                self.note("submit aborted by the commit protocol (post-prepare timeout)");
                Ok(())
            }
            Err(CoordinatorError::InDoubt) => {
                if self.plane.degraded() {
                    return Err(inv("an in-doubt commit degraded the live plane"));
                }
                self.note("submit in doubt: router died after prepare; forcing a restart");
                // The router process is gone: crash the plane at exactly the
                // in-doubt point, so recovery must presume the orphaned
                // prepares aborted.
                self.crash_restart(self.router_crash_keep, None)
            }
        }
    }

    fn crash_restart(
        &mut self,
        keep_unsynced: u32,
        corrupt: Option<(u32, u8)>,
    ) -> Result<(), Violation> {
        // The whole plane process dies: shard states, oplogs, standbys, and
        // in-flight traffic are gone; only the per-shard streams decide.
        // Every stream keeps its synced prefix plus at most `keep_unsynced`
        // unsynced bytes; the optional corruption picks one shard's kept
        // unsynced tail by the selector's low bits.
        let mut survivors: Vec<MemBackend> = Vec::with_capacity(self.shards);
        for (s, mem) in self.mems.iter().enumerate() {
            let synced = mem.synced_len();
            let survivor = mem.survivor(keep_unsynced as usize);
            if let Some((off, xor)) = corrupt {
                if s == off as usize % self.shards {
                    let total = survivor.bytes().len();
                    if total > synced {
                        let tail = total - synced;
                        survivor.corrupt_byte(synced + ((off as usize / self.shards) % tail), xor);
                    }
                }
            }
            survivors.push(survivor);
        }
        self.epoch += 1;
        self.restarts += 1;
        self.incarnations = vec![0; self.shards];
        let ios: Vec<IoFaultBackend> = survivors
            .iter()
            .enumerate()
            .map(|(s, m)| {
                let salt = STORAGE_SALT ^ (self.epoch << 8) ^ ((s as u64 + 1) << 16);
                IoFaultBackend::new(
                    Box::new(m.clone()),
                    FaultPlan::perfect(mix(self.seed, salt)),
                )
            })
            .collect();
        let transports: Vec<Box<dyn Transport>> = (0..self.shards)
            .map(|s| {
                let salt = NET_SALT ^ (self.epoch << 8) ^ ((s as u64 + 1) << 16);
                let mut net = self.profile.transport_plan(mix(self.seed, salt));
                if self.healed {
                    net.heal();
                }
                Box::new(FaultyTransport::new(net)) as Box<dyn Transport>
            })
            .collect();
        let accepted = self.shadow.len() as u64;
        let (plane, report) = ShardPlane::recover(
            Arc::clone(&self.spec),
            ios.iter()
                .map(|io| Box::new(io.clone()) as Box<dyn crate::wal::WalBackend>)
                .collect(),
            self.opts,
            transports,
            ShardPlaneConfig {
                delivery: self.config.delivery,
                ..ShardPlaneConfig::with_shards(self.shards)
            },
        )
        .map_err(|e| {
            (
                "shard-wal-replay".to_string(),
                format!("quorum recovery refused the surviving streams: {e}"),
            )
        })?;
        if report.last_seq == accepted + 1 {
            let Some(ev) = self.in_flight.take() else {
                return Err((
                    "no-lost-acked".into(),
                    "recovery found an extra durable event with nothing in flight".into(),
                ));
            };
            self.shadow.push(ev).map_err(|e| {
                (
                    "shadow-equivalence".to_string(),
                    format!("promoted in-flight event does not extend the history: {e}"),
                )
            })?;
        } else if report.last_seq == accepted {
            self.in_flight = None;
        } else {
            return Err((
                "no-lost-acked".into(),
                format!(
                    "recovery reaches seq {} but {accepted} events were acknowledged",
                    report.last_seq
                ),
            ));
        }
        self.plane = plane;
        self.mems = survivors;
        self.ios = ios;
        if !self.healed {
            let (short, fsync, transient) = self.profile.storage_rates();
            for io in &self.ios {
                io.configure(|p| {
                    p.short_write_p = short;
                    p.fsync_fail_p = fsync;
                    p.transient_p = transient;
                });
            }
        }
        self.note(format!(
            "crash-restart #{}: last_seq={} replayed={} snapshot={:?} truncated={}B",
            self.restarts,
            report.last_seq,
            report.events_replayed,
            report.snapshot_seq,
            report.truncated_bytes
        ));
        Ok(())
    }

    fn rearm(&mut self) -> Result<(), Violation> {
        let was_degraded = self.plane.degraded();
        match self.plane.rearm() {
            Ok(()) => {
                if was_degraded {
                    self.in_flight = None;
                    self.note("rearm: left degraded mode");
                } else {
                    self.note("rearm: no-op");
                }
                Ok(())
            }
            Err(e) => {
                if self.healed {
                    return Err(inv(format!("rearm failed after heal: {e}")));
                }
                self.note(format!("rearm failed (faults persist): {e}"));
                Ok(())
            }
        }
    }

    fn governor_cancel(&mut self) -> Result<(), Violation> {
        let token = CancelToken::new();
        token.cancel();
        let gov = Governor::unlimited().cancelled_by(token);
        match governed_wellformed(self.plane.run(), &gov) {
            Verdict::Exhausted(Reason::Cancelled) => {
                self.note("cancel: governed analysis stopped before any work");
                Ok(())
            }
            v => Err(inv(format!(
                "pre-cancelled governed analysis returned {v:?} \
                 instead of Exhausted(Cancelled)"
            ))),
        }
    }

    fn par_cancel(&mut self) -> Result<(), Violation> {
        let wide = Pool::with_threads(4);
        let one = Pool::sequential();
        let token = CancelToken::new();
        token.cancel();
        let gov = Governor::unlimited().cancelled_by(token);
        match governed_view_audit(self.plane.run(), &gov, &wide) {
            Verdict::Exhausted(Reason::Cancelled) => {}
            v => {
                return Err(inv(format!(
                    "pre-cancelled parallel view audit returned {v:?} \
                     instead of Exhausted(Cancelled)"
                )))
            }
        }
        let par = governed_view_audit(self.plane.run(), &Governor::unlimited(), &wide);
        let seq = governed_view_audit(self.plane.run(), &Governor::unlimited(), &one);
        if par != seq {
            return Err(inv(format!(
                "parallel view audit diverged from sequential: {par:?} vs {seq:?}"
            )));
        }
        if let Verdict::Done(Err(msg)) = &par {
            return Err(inv(format!("view audit found a divergence: {msg}")));
        }
        let cond = par_probe_condition();
        let psat = satisfiable_within_pooled(&cond, &Governor::unlimited(), &wide);
        let ssat = satisfiable_within_pooled(&cond, &Governor::unlimited(), &one);
        if psat != ssat {
            return Err(inv(format!(
                "parallel satisfiability diverged from sequential: \
                 {psat:?} vs {ssat:?}"
            )));
        }
        self.note("pcancel: parallel analyses match the sequential oracles");
        Ok(())
    }

    fn degrade_probe(&mut self) -> Result<(), Violation> {
        if !self.plane.degraded() {
            self.note("probe: not degraded");
            return Ok(());
        }
        let before_len = self.plane.run().len();
        let collab = self.spec.collab();
        let replicas: Vec<MaterializedView> = collab
            .peer_ids()
            .map(|p| self.plane.union_replica(p))
            .collect();
        let cands = candidates(self.plane.run());
        let event = match cands.first() {
            Some(cand) => {
                let mut scratch = self.plane.run().clone();
                complete(&mut scratch, cand)
            }
            None => match self.in_flight.clone() {
                Some(ev) => ev,
                None => {
                    self.note("probe: nothing to submit");
                    return Ok(());
                }
            },
        };
        match self.plane.submit(event) {
            Err(CoordinatorError::Degraded) => {}
            Ok(_) => {
                return Err((
                    "degraded-safety".into(),
                    "mutation accepted while degraded".into(),
                ));
            }
            Err(e) => {
                return Err((
                    "degraded-safety".into(),
                    format!("degraded submit failed with {e:?} instead of Degraded"),
                ));
            }
        }
        if self.plane.run().len() != before_len {
            return Err((
                "degraded-safety".into(),
                "run length changed during a degraded probe".into(),
            ));
        }
        for (p, before) in collab.peer_ids().zip(&replicas) {
            if !self.plane.union_replica(p).same_facts(before) {
                return Err((
                    "degraded-safety".into(),
                    format!(
                        "replica union of peer {} changed during a degraded probe",
                        collab.peer_name(p)
                    ),
                ));
            }
        }
        self.note("probe: degraded mutation rejected, reads stable");
        Ok(())
    }

    /// The cross-shard convergence oracle's closing half: after heal the
    /// plane must finish any hand-off, re-arm, settle within the pump
    /// budget, and then the union of shard states must equal the
    /// single-shard shadow instance byte for byte, with every peer's slice
    /// union equal to its from-scratch `view_of` reference.
    pub(crate) fn final_check(&mut self) -> Result<u64, Violation> {
        const NAME: &str = "cross-shard-convergence";
        if !self.healed {
            return Ok(0);
        }
        if let Some((s, _)) = self.plane.handoff_in_progress() {
            let t = self.next_transport(s);
            self.plane.finish_handoff(t);
            self.note(format!("handoff: {s} completed at trace end"));
        }
        let was_degraded = self.plane.degraded();
        if let Err(e) = self.plane.rearm() {
            return Err((NAME.into(), format!("rearm failed after heal: {e}")));
        }
        if was_degraded {
            self.in_flight = None;
        }
        // A migration still in flight at trace end must be drivable to its
        // cutover now that the environment is healed and the plane armed.
        if let Some((kind, s, d, _)) = self.plane.reshard_in_progress() {
            match self.plane.finish_reshard() {
                Ok(true) => self.note(format!("{kind}: {s}>{d} completed at trace end")),
                r => {
                    return Err((
                        NAME.into(),
                        format!("in-flight migration failed to complete after heal: {r:?}"),
                    ));
                }
            }
        }
        let ticks = match self.plane.converge(self.config.converge_budget) {
            ShardConvergence::Converged { ticks } => ticks,
            s @ ShardConvergence::Stalled { .. } => {
                return Err((
                    NAME.into(),
                    format!(
                        "plane failed to settle within {} ticks: {s}",
                        self.config.converge_budget
                    ),
                ));
            }
        };
        if !self.plane.state_matches(self.shadow.current()) {
            return Err((
                NAME.into(),
                "converged union of shard states differs from the single-shard shadow".into(),
            ));
        }
        let collab = self.spec.collab();
        for p in collab.peer_ids() {
            let union = self.plane.union_replica(p);
            if !union.matches(&collab.view_of(self.shadow.current(), p)) {
                return Err((
                    NAME.into(),
                    format!(
                        "converged replica union of peer {} differs from view_of the shadow",
                        collab.peer_name(p)
                    ),
                ));
            }
        }
        self.note(format!("converged after {ticks} ticks"));
        Ok(ticks)
    }
}
