//! Delivery transports between a shard and the peer replicas it serves.
//!
//! A shard never touches a replica directly: every view delta and
//! resync snapshot travels through a [`Transport`], and acknowledgements
//! travel back. [`PerfectTransport`] delivers everything immediately and in
//! order (the in-memory deployment of the paper's master-server sketch);
//! [`FaultyTransport`] drops, duplicates, delays, and reorders messages per
//! a deterministic [`FaultPlan`], modelling an unreliable network until it
//! heals.

use std::collections::VecDeque;

use cwf_model::PeerId;

use crate::delivery::MaterializedView;
use crate::fault::FaultPlan;
use crate::view_plane::ViewDelta;

/// A message from a shard to one peer's replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerMsg {
    /// One sequence-numbered view delta (per-peer sequence, starting at 1).
    Delta {
        /// The per-peer sequence number.
        seq: u64,
        /// The view change.
        delta: ViewDelta,
    },
    /// A full view snapshot superseding all deltas up to `seq` (resync).
    Snapshot {
        /// The per-peer sequence number this snapshot is current as of.
        seq: u64,
        /// The authoritative materialized view.
        view: MaterializedView,
    },
}

impl PeerMsg {
    /// The message's sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            PeerMsg::Delta { seq, .. } | PeerMsg::Snapshot { seq, .. } => *seq,
        }
    }
}

/// A cumulative acknowledgement from a peer: "I have applied every delta up
/// to and including `applied`".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    /// The acknowledging peer.
    pub peer: PeerId,
    /// Highest contiguously applied sequence number.
    pub applied: u64,
}

/// A bidirectional, possibly unreliable channel between a shard and its
/// peers. Implementations own the in-flight messages.
pub trait Transport {
    /// Enqueues a message toward `to` (may be dropped/duplicated/delayed).
    fn send(&mut self, to: PeerId, msg: PeerMsg);
    /// Messages arriving at `to` now.
    fn recv(&mut self, at: PeerId) -> Vec<PeerMsg>;
    /// Enqueues an acknowledgement toward the shard.
    fn send_ack(&mut self, ack: Ack);
    /// Acknowledgements arriving at the shard now.
    fn recv_acks(&mut self) -> Vec<Ack>;
    /// Advances the transport's clock one tick (delays count down).
    fn tick(&mut self) {}
    /// Stops all future fault injection (no-op for reliable transports).
    fn heal(&mut self) {}
    /// Cuts (`up = false`) or restores (`up = true`) the link to one peer.
    /// While a link is down nothing crosses it in either direction. The
    /// default implementation ignores the request (always-up links).
    fn set_link(&mut self, _peer: PeerId, _up: bool) {}
    /// Is the link to `peer` currently up? Defaults to `true`.
    fn link_up(&self, _peer: PeerId) -> bool {
        true
    }
}

/// Immediate, lossless, ordered delivery. Links can still be cut with
/// [`Transport::set_link`]: a down link *stalls* traffic (nothing is lost)
/// until the link is restored — deterministic partitions without fault
/// randomness.
#[derive(Debug, Default)]
pub struct PerfectTransport {
    inboxes: Vec<VecDeque<PeerMsg>>,
    acks: VecDeque<Ack>,
    blocked: std::collections::BTreeSet<usize>,
}

impl PerfectTransport {
    /// A fresh transport.
    pub fn new() -> Self {
        Self::default()
    }

    fn inbox(&mut self, p: PeerId) -> &mut VecDeque<PeerMsg> {
        if self.inboxes.len() <= p.index() {
            self.inboxes.resize_with(p.index() + 1, VecDeque::new);
        }
        &mut self.inboxes[p.index()]
    }
}

impl Transport for PerfectTransport {
    fn send(&mut self, to: PeerId, msg: PeerMsg) {
        self.inbox(to).push_back(msg);
    }

    fn recv(&mut self, at: PeerId) -> Vec<PeerMsg> {
        if self.blocked.contains(&at.index()) {
            return Vec::new();
        }
        self.inbox(at).drain(..).collect()
    }

    fn send_ack(&mut self, ack: Ack) {
        self.acks.push_back(ack);
    }

    fn recv_acks(&mut self) -> Vec<Ack> {
        let mut due = Vec::new();
        let mut held = VecDeque::new();
        for ack in self.acks.drain(..) {
            if self.blocked.contains(&ack.peer.index()) {
                held.push_back(ack);
            } else {
                due.push(ack);
            }
        }
        self.acks = held;
        due
    }

    fn heal(&mut self) {
        self.blocked.clear();
    }

    fn set_link(&mut self, peer: PeerId, up: bool) {
        if up {
            self.blocked.remove(&peer.index());
        } else {
            self.blocked.insert(peer.index());
        }
    }

    fn link_up(&self, peer: PeerId) -> bool {
        !self.blocked.contains(&peer.index())
    }
}

/// Counts of faults actually injected by a [`FaultyTransport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectedFaults {
    /// Messages (deltas, snapshots, acks) silently dropped.
    pub dropped: u64,
    /// Extra copies enqueued.
    pub duplicated: u64,
    /// Messages delivered late.
    pub delayed: u64,
    /// Poll batches shuffled out of order.
    pub reordered: u64,
    /// Messages lost at send time because their link was partitioned.
    pub partitioned: u64,
}

/// Unreliable delivery driven by a deterministic [`FaultPlan`]: messages may
/// be dropped, duplicated, delayed by whole ticks, or reordered within a
/// poll. After [`Transport::heal`], new sends are perfect, but messages
/// already delayed in flight still arrive late — retry absorbs them.
#[derive(Debug)]
pub struct FaultyTransport {
    plan: FaultPlan,
    now: u64,
    inboxes: Vec<Vec<(u64, PeerMsg)>>,
    acks: Vec<(u64, Ack)>,
    injected: InjectedFaults,
}

impl FaultyTransport {
    /// A transport injecting faults per `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultyTransport {
            plan,
            now: 0,
            inboxes: Vec::new(),
            acks: Vec::new(),
            injected: InjectedFaults::default(),
        }
    }

    /// What has been injected so far.
    pub fn injected(&self) -> InjectedFaults {
        self.injected
    }

    /// Number of messages currently in flight (delayed or queued).
    pub fn in_flight(&self) -> usize {
        self.inboxes.iter().map(Vec::len).sum::<usize>() + self.acks.len()
    }

    fn inbox(&mut self, p: PeerId) -> &mut Vec<(u64, PeerMsg)> {
        if self.inboxes.len() <= p.index() {
            self.inboxes.resize_with(p.index() + 1, Vec::new);
        }
        &mut self.inboxes[p.index()]
    }

    /// Copies to enqueue and their delivery times, per the plan; empty means
    /// the message is dropped.
    fn schedule(&mut self) -> Vec<u64> {
        if self.plan.decide_drop() {
            self.injected.dropped += 1;
            return Vec::new();
        }
        let mut times = Vec::with_capacity(2);
        let delay = self.plan.decide_delay();
        if delay > 0 {
            self.injected.delayed += 1;
        }
        times.push(self.now + delay);
        if self.plan.decide_duplicate() {
            self.injected.duplicated += 1;
            let delay = self.plan.decide_delay();
            times.push(self.now + delay);
        }
        times
    }

    fn drain_due<T>(now: u64, queue: &mut Vec<(u64, T)>) -> Vec<T> {
        let mut due = Vec::new();
        let mut rest = Vec::with_capacity(queue.len());
        for (at, item) in queue.drain(..) {
            if at <= now {
                due.push(item);
            } else {
                rest.push((at, item));
            }
        }
        *queue = rest;
        due
    }

    fn maybe_shuffle<T>(plan: &mut FaultPlan, injected: &mut InjectedFaults, due: &mut [T]) {
        if due.len() > 1 && plan.decide_reorder() {
            injected.reordered += 1;
            // Fisher–Yates with the plan's deterministic RNG.
            for i in (1..due.len()).rev() {
                let j = plan.pick(i + 1);
                due.swap(i, j);
            }
        }
    }
}

impl Transport for FaultyTransport {
    fn send(&mut self, to: PeerId, msg: PeerMsg) {
        if self.plan.is_partitioned(to.index()) {
            self.injected.partitioned += 1;
            return;
        }
        for at in self.schedule() {
            self.inbox(to).push((at, msg.clone()));
        }
    }

    fn recv(&mut self, at: PeerId) -> Vec<PeerMsg> {
        if self.plan.is_partitioned(at.index()) {
            // In-flight messages stall on a cut link; they resume (late)
            // once the partition heals.
            return Vec::new();
        }
        let now = self.now;
        let queue = self.inbox(at);
        let mut due = Self::drain_due(now, queue);
        Self::maybe_shuffle(&mut self.plan, &mut self.injected, &mut due);
        due
    }

    fn send_ack(&mut self, ack: Ack) {
        if self.plan.is_partitioned(ack.peer.index()) {
            self.injected.partitioned += 1;
            return;
        }
        for at in self.schedule() {
            self.acks.push((at, ack));
        }
    }

    fn recv_acks(&mut self) -> Vec<Ack> {
        let now = self.now;
        // Acks from partitioned peers stall in flight.
        let mut held = Vec::with_capacity(self.acks.len());
        let mut open = Vec::with_capacity(self.acks.len());
        for (at, ack) in self.acks.drain(..) {
            if self.plan.is_partitioned(ack.peer.index()) {
                held.push((at, ack));
            } else {
                open.push((at, ack));
            }
        }
        let mut due = Self::drain_due(now, &mut open);
        open.extend(held);
        self.acks = open;
        Self::maybe_shuffle(&mut self.plan, &mut self.injected, &mut due);
        due
    }

    fn tick(&mut self) {
        self.now += 1;
    }

    fn heal(&mut self) {
        self.plan.heal();
    }

    fn set_link(&mut self, peer: PeerId, up: bool) {
        if up {
            self.plan.heal_link(peer.index());
        } else {
            self.plan.partition(peer.index());
        }
    }

    fn link_up(&self, peer: PeerId) -> bool {
        !self.plan.is_partitioned(peer.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(seq: u64) -> PeerMsg {
        PeerMsg::Delta {
            seq,
            delta: ViewDelta::default(),
        }
    }

    #[test]
    fn perfect_transport_delivers_in_order() {
        let mut t = PerfectTransport::new();
        let p = PeerId(0);
        t.send(p, delta(1));
        t.send(p, delta(2));
        let got = t.recv(p);
        assert_eq!(got.iter().map(PeerMsg::seq).collect::<Vec<_>>(), vec![1, 2]);
        assert!(t.recv(p).is_empty());
        t.send_ack(Ack {
            peer: p,
            applied: 2,
        });
        assert_eq!(
            t.recv_acks(),
            vec![Ack {
                peer: p,
                applied: 2
            }]
        );
    }

    #[test]
    fn dropping_plan_loses_messages() {
        let plan = FaultPlan::seeded(1).with_rates(1.0, 0.0, 0.0, 0, 0.0);
        let mut t = FaultyTransport::new(plan);
        let p = PeerId(0);
        for s in 1..=10 {
            t.send(p, delta(s));
        }
        assert!(t.recv(p).is_empty());
        assert_eq!(t.injected().dropped, 10);
    }

    #[test]
    fn delays_hold_messages_until_due() {
        let plan = FaultPlan::seeded(2).with_rates(0.0, 0.0, 1.0, 3, 0.0);
        let mut t = FaultyTransport::new(plan);
        let p = PeerId(0);
        t.send(p, delta(1));
        assert!(t.in_flight() > 0);
        let mut got = t.recv(p);
        for _ in 0..4 {
            t.tick();
            got.extend(t.recv(p));
        }
        assert_eq!(got.len(), 1, "delayed message arrives within max_delay");
    }

    #[test]
    fn healed_transport_is_perfect() {
        let plan = FaultPlan::seeded(3).with_rates(1.0, 1.0, 1.0, 5, 1.0);
        let mut t = FaultyTransport::new(plan);
        t.heal();
        let p = PeerId(1);
        t.send(p, delta(1));
        t.send(p, delta(2));
        assert_eq!(t.recv(p).len(), 2);
        assert_eq!(t.injected().dropped, 0);
    }

    #[test]
    fn partitioned_link_blocks_both_directions_until_healed() {
        let plan = FaultPlan::perfect(8);
        let mut t = FaultyTransport::new(plan);
        let p = PeerId(0);
        let q = PeerId(1);
        // A message already in flight stalls when the link goes down.
        t.send(p, delta(1));
        t.set_link(p, false);
        assert!(!t.link_up(p));
        assert!(
            t.recv(p).is_empty(),
            "in-flight traffic stalls on a cut link"
        );
        // New sends on the cut link are lost outright; other links flow.
        t.send(p, delta(2));
        t.send(q, delta(1));
        assert_eq!(t.injected().partitioned, 1);
        assert_eq!(t.recv(q).len(), 1);
        t.send_ack(Ack {
            peer: p,
            applied: 1,
        });
        t.send_ack(Ack {
            peer: q,
            applied: 1,
        });
        assert_eq!(t.injected().partitioned, 2);
        let acks = t.recv_acks();
        assert_eq!(acks.len(), 1, "only the open link's ack arrives");
        assert_eq!(acks[0].peer, q);
        // Healing the link releases the stalled message.
        t.set_link(p, true);
        assert_eq!(t.recv(p).len(), 1, "stalled delivery resumes after heal");
    }

    #[test]
    fn perfect_transport_partitions_stall_but_never_lose() {
        let mut t = PerfectTransport::new();
        let p = PeerId(0);
        t.set_link(p, false);
        t.send(p, delta(1));
        assert!(t.recv(p).is_empty());
        t.send_ack(Ack {
            peer: p,
            applied: 1,
        });
        assert!(t.recv_acks().is_empty());
        t.set_link(p, true);
        assert_eq!(t.recv(p).len(), 1);
        assert_eq!(t.recv_acks().len(), 1);
    }

    #[test]
    fn duplication_enqueues_extra_copies() {
        let plan = FaultPlan::seeded(4).with_rates(0.0, 1.0, 0.0, 0, 0.0);
        let mut t = FaultyTransport::new(plan);
        let p = PeerId(0);
        t.send(p, delta(7));
        assert_eq!(t.recv(p).len(), 2);
        assert_eq!(t.injected().duplicated, 1);
    }
}
