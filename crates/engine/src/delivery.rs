//! The reliable-delivery machinery behind every shard of the
//! [`ShardPlane`](crate::shard::ShardPlane) — including the single shard of
//! a shards=1 plane, the paper's master server.
//!
//! A [`Delivery`] owns, for one authority (one shard), the per-peer
//! **outboxes** of sequence-numbered messages awaiting cumulative
//! acknowledgement, the peer-side **replica nodes** ([`MaterializedView`]s)
//! that apply deltas idempotently, and the transport between them. It
//! implements the full protocol: capped exponential-backoff retry of
//! unacknowledged messages, duplicate suppression and out-of-order deferral
//! by sequence number, and full-snapshot **resync** of replicas that lag or
//! retry too much. Everything below the routing decision lives here and
//! behaves identically whether one shard serves all keys or N shards serve
//! a partition each.

use std::collections::{BTreeMap, VecDeque};

use cwf_model::{PeerId, RelId, Tuple, Value, ViewInstance};

use crate::stats::FtStats;
use crate::transport::{Ack, PeerMsg, Transport};
use crate::view_plane::ViewDelta;

/// A peer-side replica of its view: per relation, view tuples keyed by key.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MaterializedView {
    rels: BTreeMap<RelId, BTreeMap<Value, Tuple>>,
}

impl MaterializedView {
    /// An empty replica.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn upsert(&mut self, rel: RelId, t: Tuple) {
        self.rels.entry(rel).or_default().insert(*t.key(), t);
    }

    pub(crate) fn remove(&mut self, rel: RelId, key: &Value) {
        if let Some(m) = self.rels.get_mut(&rel) {
            m.remove(key);
        }
    }

    /// Total number of tuples.
    pub fn total_tuples(&self) -> usize {
        self.rels.values().map(|m| m.len()).sum()
    }

    /// Every tuple with its relation, in (relation, key) order.
    pub fn facts(&self) -> impl Iterator<Item = (RelId, &Tuple)> {
        self.rels
            .iter()
            .flat_map(|(r, m)| m.values().map(move |t| (*r, t)))
    }

    /// Content equality ignoring empty relation slots (removals may leave
    /// an empty per-relation map behind; two views that hold the same
    /// tuples are the same view).
    pub fn same_facts(&self, other: &MaterializedView) -> bool {
        self.facts().eq(other.facts())
    }

    /// Does the replica equal the given view instance?
    pub fn matches(&self, view: &ViewInstance) -> bool {
        // Compare both directions, by reference — no tuple is cloned.
        for (r, m) in &self.rels {
            for t in m.values() {
                if view.get(*r, t.key()) != Some(t) {
                    return false;
                }
            }
        }
        for (r, t) in view.facts() {
            match self.rels.get(&r).and_then(|m| m.get(t.key())) {
                Some(mine) if mine == t => {}
                _ => return false,
            }
        }
        true
    }
}

/// Tuning knobs of the delivery protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryConfig {
    /// Base retry backoff, in pump ticks (also the first backoff of a
    /// transiently failing WAL append).
    pub retry_backoff_base: u64,
    /// Cap on the exponential backoff, in pump ticks.
    pub retry_backoff_cap: u64,
    /// Unacknowledged deltas tolerated before a full-snapshot resync.
    pub resync_lag: usize,
    /// Retries of one delta tolerated before a full-snapshot resync.
    pub resync_after_retries: u32,
}

impl Default for DeliveryConfig {
    fn default() -> Self {
        DeliveryConfig {
            retry_backoff_base: 1,
            retry_backoff_cap: 16,
            resync_lag: 32,
            resync_after_retries: 8,
        }
    }
}

/// An unacknowledged message awaiting its ack (and possibly retries).
#[derive(Debug, Clone)]
struct Pending {
    msg: PeerMsg,
    attempts: u32,
    due: u64,
}

/// The authority side of one peer's delta stream.
#[derive(Debug, Default)]
struct Outbox {
    /// Sequence number of the next delta to enqueue (per-peer, from 1).
    next_seq: u64,
    /// Sent but unacknowledged messages, oldest first.
    unacked: VecDeque<Pending>,
}

impl Outbox {
    fn assign_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    fn ack(&mut self, applied: u64) -> usize {
        let before = self.unacked.len();
        while self.unacked.front().is_some_and(|p| p.msg.seq() <= applied) {
            self.unacked.pop_front();
        }
        before - self.unacked.len()
    }
}

/// The peer side: the replica and its duplicate-suppression cursor.
#[derive(Debug, Default)]
struct ReplicaNode {
    view: MaterializedView,
    /// Highest contiguously applied sequence number.
    applied: u64,
}

impl ReplicaNode {
    /// Handles one incoming message; returns the cumulative ack to send.
    fn handle(&mut self, msg: PeerMsg, ft: &mut FtStats) -> Ack {
        match msg {
            PeerMsg::Delta { seq, delta } => {
                if seq == self.applied + 1 {
                    delta.apply_to(&mut self.view);
                    self.applied = seq;
                } else if seq <= self.applied {
                    ft.duplicates_suppressed += 1;
                } else {
                    ft.out_of_order_deferred += 1;
                }
            }
            PeerMsg::Snapshot { seq, view } => {
                if seq >= self.applied {
                    self.view = view;
                    self.applied = seq;
                } else {
                    ft.duplicates_suppressed += 1;
                }
            }
        }
        Ack {
            peer: PeerId(0),
            applied: self.applied,
        } // peer filled by caller
    }
}

/// One authority's delivery plane: per-peer outboxes, per-peer replicas,
/// and the transport between them. Fault-tolerance counters are threaded in
/// by the caller so an embedding authority keeps owning its stats.
pub struct Delivery {
    outboxes: Vec<Outbox>,
    replicas: Vec<ReplicaNode>,
    transport: Box<dyn Transport>,
    config: DeliveryConfig,
    now: u64,
}

impl Delivery {
    /// A fresh delivery plane for `n_peers` peers over `transport`.
    pub fn new(n_peers: usize, transport: Box<dyn Transport>, config: DeliveryConfig) -> Self {
        Delivery {
            outboxes: (0..n_peers).map(|_| Outbox::default()).collect(),
            replicas: (0..n_peers).map(|_| ReplicaNode::default()).collect(),
            transport,
            config,
            now: 0,
        }
    }

    /// A delivery plane whose per-peer sequence streams resume *past*
    /// previously assigned numbers (`next_seqs[p]` is the highest sequence
    /// number ever assigned toward peer `p`). A promoted shard replica uses
    /// this so its post-failover snapshots supersede — rather than collide
    /// with — everything the failed primary sent. Replica cursors start
    /// cold; callers are expected to resync every peer right after.
    pub fn resuming(
        n_peers: usize,
        transport: Box<dyn Transport>,
        config: DeliveryConfig,
        next_seqs: &[u64],
    ) -> Self {
        let mut d = Self::new(n_peers, transport, config);
        for (o, &s) in d.outboxes.iter_mut().zip(next_seqs) {
            o.next_seq = s;
        }
        d
    }

    /// Number of peers served.
    pub fn peer_count(&self) -> usize {
        self.outboxes.len()
    }

    /// The current pump tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Peer `p`'s replica.
    pub fn replica(&self, p: PeerId) -> &MaterializedView {
        &self.replicas[p.index()].view
    }

    /// Highest sequence number assigned so far toward each peer (the
    /// watermark a successor must resume past).
    pub(crate) fn next_seqs(&self) -> Vec<u64> {
        self.outboxes.iter().map(|o| o.next_seq).collect()
    }

    /// Enqueues one sequence-numbered delta toward peer `p`.
    pub(crate) fn enqueue(&mut self, p: PeerId, delta: ViewDelta, ft: &mut FtStats) {
        let seq = self.outboxes[p.index()].assign_seq();
        let msg = PeerMsg::Delta { seq, delta };
        self.outboxes[p.index()].unacked.push_back(Pending {
            msg: msg.clone(),
            attempts: 0,
            due: self.now + self.config.retry_backoff_base,
        });
        self.transport.send(p, msg);
        ft.deltas_sent += 1;
    }

    /// Replaces peer `p`'s entire outbox with one full-view snapshot
    /// message (the resync path). The snapshot *advances* the stream — it
    /// takes a freshly assigned sequence number rather than reusing the
    /// last one. Reusing it is unsound after a crash: a recovered outbox
    /// restarts at seq 0, so a dropped seq-0 snapshot followed by a seq-1
    /// delta lets a cold replica apply that delta to its empty base and
    /// ack a state no prefix of the history explains. With a fresh number
    /// the snapshot still supersedes every older delta, and any delta
    /// numbered past a lost snapshot is deferred instead of misapplied.
    pub(crate) fn resync_with(&mut self, p: PeerId, view: MaterializedView, ft: &mut FtStats) {
        let outbox = &mut self.outboxes[p.index()];
        let msg = PeerMsg::Snapshot {
            seq: outbox.assign_seq(),
            view,
        };
        outbox.unacked.clear();
        outbox.unacked.push_back(Pending {
            msg: msg.clone(),
            attempts: 0,
            due: self.now + self.config.retry_backoff_base,
        });
        self.transport.send(p, msg);
        ft.resyncs += 1;
    }

    /// One delivery round: advance the transport clock, deliver arrived
    /// messages to replicas (collecting their acks), process acks, retry
    /// overdue messages, and resync any replica that lags too far behind.
    /// `authoritative` yields the full current view of a peer when a resync
    /// is triggered.
    pub fn pump(
        &mut self,
        ft: &mut FtStats,
        mut authoritative: impl FnMut(PeerId) -> MaterializedView,
    ) {
        self.transport.tick();
        self.now += 1;
        // Deliver to replicas; each message yields a cumulative ack.
        for i in 0..self.replicas.len() {
            let p = PeerId(i as u32);
            for msg in self.transport.recv(p) {
                let mut ack = self.replicas[i].handle(msg, ft);
                ack.peer = p;
                self.transport.send_ack(ack);
            }
        }
        // Process acks.
        for ack in self.transport.recv_acks() {
            ft.acks_received += 1;
            self.outboxes[ack.peer.index()].ack(ack.applied);
        }
        // Retry and resync.
        for i in 0..self.outboxes.len() {
            let p = PeerId(i as u32);
            let too_laggy = self.outboxes[i].unacked.len() > self.config.resync_lag;
            let too_retried = self.outboxes[i]
                .unacked
                .front()
                .is_some_and(|pend| pend.attempts >= self.config.resync_after_retries);
            if too_laggy || too_retried {
                let view = authoritative(p);
                self.resync_with(p, view, ft);
                continue;
            }
            let base = self.config.retry_backoff_base.max(1);
            let cap = self.config.retry_backoff_cap.max(base);
            let now = self.now;
            let mut resend: Vec<PeerMsg> = Vec::new();
            for pend in self.outboxes[i].unacked.iter_mut() {
                if pend.due <= now {
                    pend.attempts += 1;
                    let backoff = base.saturating_mul(1u64 << pend.attempts.min(16)).min(cap);
                    pend.due = now + backoff;
                    resend.push(pend.msg.clone());
                }
            }
            for msg in resend {
                ft.retries += 1;
                self.transport.send(p, msg);
            }
        }
    }

    /// Messages currently awaiting acknowledgement across all outboxes.
    pub fn undelivered(&self) -> usize {
        self.outboxes.iter().map(|o| o.unacked.len()).sum()
    }

    /// Peers with messages awaiting acknowledgement, with their counts, in
    /// peer-id order (only peers with outstanding work appear).
    pub(crate) fn undelivered_by_peer(&self) -> Vec<(PeerId, usize)> {
        self.outboxes
            .iter()
            .enumerate()
            .filter(|(_, o)| !o.unacked.is_empty())
            .map(|(i, o)| (PeerId(i as u32), o.unacked.len()))
            .collect()
    }

    /// Stops all future fault injection on the transport.
    pub fn heal(&mut self) {
        self.transport.heal();
    }

    /// Cuts or restores the link to one peer (see [`Transport::set_link`]).
    pub fn set_link(&mut self, p: PeerId, up: bool) {
        self.transport.set_link(p, up);
    }
}

impl std::fmt::Debug for Delivery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Delivery[{} peers, {} unacked, tick {}]",
            self.outboxes.len(),
            self.undelivered(),
            self.now
        )
    }
}
