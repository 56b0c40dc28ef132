//! Deterministic fault injection for plane deployments.
//!
//! A [`FaultPlan`] is a seeded-RNG schedule of delivery faults (drops,
//! duplicates, reorders, delays), **storage faults** (short writes, fsync
//! failures, transient EINTR-style errors, disk-full), **link-level
//! partitions** (a per-peer cut that blocks a link entirely until healed),
//! coordinator crash-points mid-append, and log-byte corruption. The same
//! seed always yields the same schedule, so property tests can shrink and
//! replay failures exactly. Thread it through a
//! [`FaultyTransport`](crate::transport::FaultyTransport) for delivery
//! faults and an [`IoFaultBackend`](crate::wal::IoFaultBackend) (or a
//! [`MemBackend`](crate::wal::MemBackend) crash schedule) for durability
//! faults; after [`FaultPlan::heal`], everything behaves perfectly again —
//! except a full disk, which stays full until its capacity is raised.
//!
//! Network and storage draws come from **independent seeded streams**: the
//! network stream is seeded with the plan's seed verbatim (so transport-only
//! schedules are stable across releases), the storage stream with a salted
//! derivation of it. Enabling a storage fault therefore never perturbs the
//! network fault sequence for the same seed, and vice versa — pinned chaos
//! seeds stay meaningful when a profile turns a knob in the other domain.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Derives the storage-stream seed from the plan seed (splitmix-style, so
/// adjacent seeds don't yield correlated streams).
fn storage_stream_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x53544F52_41474531); // "STORAGE1"
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic schedule of faults, drawn from seeded RNG streams.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Network-domain stream: drops, duplicates, delays, reorders.
    net_rng: StdRng,
    /// Storage-domain stream: short writes, fsync failures, transients.
    storage_rng: StdRng,
    /// Probability a message (delta or ack) is dropped.
    pub drop_p: f64,
    /// Probability a message is duplicated.
    pub dup_p: f64,
    /// Probability a message is delayed.
    pub delay_p: f64,
    /// Maximum delay, in transport ticks.
    pub max_delay: u64,
    /// Probability the due messages of one poll are shuffled (reordering
    /// beyond what random delays already cause).
    pub reorder_p: f64,
    /// Probability a storage append lands only a prefix of its bytes and
    /// fails (a torn record on disk).
    pub short_write_p: f64,
    /// Probability a storage sync (fsync) fails after the bytes were
    /// appended — durability of the tail becomes unknown.
    pub fsync_fail_p: f64,
    /// Probability a storage append fails transiently (EINTR-style) with
    /// nothing written; retrying may succeed.
    pub transient_p: f64,
    /// Byte capacity of the simulated device (`None`: unbounded). Appends
    /// past it land partially and fail with
    /// [`WalError::StorageFull`](crate::error::WalError::StorageFull).
    /// Unlike the probabilistic faults, a full disk is *not* cleared by
    /// [`FaultPlan::heal`] — raise the capacity instead.
    pub disk_capacity: Option<u64>,
    /// Links (peer indices) currently cut: nothing crosses in either
    /// direction until [`FaultPlan::heal_link`] or [`FaultPlan::heal`].
    blocked: BTreeSet<usize>,
    healed: bool,
}

impl FaultPlan {
    /// A plan with moderate default fault rates, fully determined by `seed`.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            net_rng: StdRng::seed_from_u64(seed),
            storage_rng: StdRng::seed_from_u64(storage_stream_seed(seed)),
            drop_p: 0.2,
            dup_p: 0.15,
            delay_p: 0.3,
            max_delay: 4,
            reorder_p: 0.25,
            short_write_p: 0.0,
            fsync_fail_p: 0.0,
            transient_p: 0.0,
            disk_capacity: None,
            blocked: BTreeSet::new(),
            healed: false,
        }
    }

    /// A plan that never faults (useful as a healed baseline).
    pub fn perfect(seed: u64) -> FaultPlan {
        FaultPlan {
            drop_p: 0.0,
            dup_p: 0.0,
            delay_p: 0.0,
            max_delay: 0,
            reorder_p: 0.0,
            ..FaultPlan::seeded(seed)
        }
    }

    /// Overrides the fault rates (builder style).
    pub fn with_rates(
        mut self,
        drop_p: f64,
        dup_p: f64,
        delay_p: f64,
        max_delay: u64,
        reorder_p: f64,
    ) -> FaultPlan {
        self.drop_p = drop_p;
        self.dup_p = dup_p;
        self.delay_p = delay_p;
        self.max_delay = max_delay;
        self.reorder_p = reorder_p;
        self
    }

    /// Overrides the storage-fault rates (builder style).
    pub fn with_storage_rates(
        mut self,
        short_write_p: f64,
        fsync_fail_p: f64,
        transient_p: f64,
    ) -> FaultPlan {
        self.short_write_p = short_write_p;
        self.fsync_fail_p = fsync_fail_p;
        self.transient_p = transient_p;
        self
    }

    /// Caps the simulated device at `bytes` (builder style).
    pub fn with_disk_capacity(mut self, bytes: u64) -> FaultPlan {
        self.disk_capacity = Some(bytes);
        self
    }

    /// Stops all future faults ("the network stabilizes") and heals every
    /// partitioned link. Messages already delayed in flight still arrive
    /// late; retry handles them.
    pub fn heal(&mut self) {
        self.healed = true;
        self.blocked.clear();
    }

    /// Is the plan healed?
    pub fn healed(&self) -> bool {
        self.healed
    }

    /// Cuts the link to peer index `link`: every message in either direction
    /// is blocked (sends dropped, in-flight deliveries stalled) until
    /// [`FaultPlan::heal_link`] or [`FaultPlan::heal`]. Returns `true` if the
    /// link was up before.
    pub fn partition(&mut self, link: usize) -> bool {
        self.blocked.insert(link)
    }

    /// Restores the link to peer index `link`. Returns `true` if the link
    /// was cut before.
    pub fn heal_link(&mut self, link: usize) -> bool {
        self.blocked.remove(&link)
    }

    /// Is the link to peer index `link` currently cut?
    pub fn is_partitioned(&self, link: usize) -> bool {
        self.blocked.contains(&link)
    }

    /// The currently cut links, in order.
    pub fn partitioned_links(&self) -> impl Iterator<Item = usize> + '_ {
        self.blocked.iter().copied()
    }

    /// Should this message be dropped?
    pub fn decide_drop(&mut self) -> bool {
        !self.healed && self.net_rng.gen_bool(self.drop_p)
    }

    /// Should this message be duplicated?
    pub fn decide_duplicate(&mut self) -> bool {
        !self.healed && self.net_rng.gen_bool(self.dup_p)
    }

    /// Extra delivery delay for this message, in ticks (0 = on time).
    pub fn decide_delay(&mut self) -> u64 {
        if self.healed || self.max_delay == 0 || !self.net_rng.gen_bool(self.delay_p) {
            0
        } else {
            self.net_rng.gen_range(1..=self.max_delay)
        }
    }

    /// Should this batch of due messages be shuffled?
    pub fn decide_reorder(&mut self) -> bool {
        !self.healed && self.net_rng.gen_bool(self.reorder_p)
    }

    /// Should this storage append land only a torn prefix?
    pub fn decide_short_write(&mut self) -> bool {
        !self.healed && self.storage_rng.gen_bool(self.short_write_p)
    }

    /// Should this storage sync fail?
    pub fn decide_fsync_fail(&mut self) -> bool {
        !self.healed && self.storage_rng.gen_bool(self.fsync_fail_p)
    }

    /// Should this storage append fail transiently (nothing written)?
    pub fn decide_transient(&mut self) -> bool {
        !self.healed && self.storage_rng.gen_bool(self.transient_p)
    }

    /// A uniformly random index below `n` from the **network** stream
    /// (shuffle positions, crash cut points, corruption offsets). `n` must
    /// be nonzero.
    pub fn pick(&mut self, n: usize) -> usize {
        self.net_rng.gen_range(0..n)
    }

    /// A uniformly random index below `n` from the **storage** stream
    /// (short-write cut points). `n` must be nonzero.
    pub fn pick_storage(&mut self, n: usize) -> usize {
        self.storage_rng.gen_range(0..n)
    }

    /// A random byte to XOR into a corrupted log position (never 0, so the
    /// byte actually changes).
    pub fn corruption_byte(&mut self) -> u8 {
        self.net_rng.gen_range(1..=u8::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let mut a = FaultPlan::seeded(42);
        let mut b = FaultPlan::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.decide_drop(), b.decide_drop());
            assert_eq!(a.decide_delay(), b.decide_delay());
            assert_eq!(a.pick(17), b.pick(17));
        }
    }

    /// The satellite determinism pin: network and storage draws come from
    /// independent streams, so interleaving storage decisions (as a WAL
    /// fault backend does) never perturbs the network schedule for the same
    /// seed — and vice versa.
    #[test]
    fn storage_draws_do_not_perturb_the_network_stream() {
        let mut quiet = FaultPlan::seeded(99).with_storage_rates(0.5, 0.5, 0.5);
        let mut noisy = quiet.clone();
        let mut seq_quiet = Vec::new();
        let mut seq_noisy = Vec::new();
        for i in 0..200 {
            seq_quiet.push((quiet.decide_drop(), quiet.decide_delay(), quiet.pick(9)));
            if i % 3 == 0 {
                // Storage activity on the noisy plan only.
                noisy.decide_short_write();
                noisy.decide_transient();
                noisy.decide_fsync_fail();
                noisy.pick_storage(33);
            }
            seq_noisy.push((noisy.decide_drop(), noisy.decide_delay(), noisy.pick(9)));
        }
        assert_eq!(
            seq_quiet, seq_noisy,
            "storage draws must not shift the network stream"
        );
    }

    #[test]
    fn network_draws_do_not_perturb_the_storage_stream() {
        let mut quiet = FaultPlan::seeded(7).with_storage_rates(0.4, 0.4, 0.4);
        let mut noisy = quiet.clone();
        let mut seq_quiet = Vec::new();
        let mut seq_noisy = Vec::new();
        for i in 0..200 {
            seq_quiet.push((
                quiet.decide_short_write(),
                quiet.decide_transient(),
                quiet.pick_storage(21),
            ));
            if i % 2 == 0 {
                noisy.decide_drop();
                noisy.decide_delay();
                noisy.decide_reorder();
                noisy.pick(5);
            }
            seq_noisy.push((
                noisy.decide_short_write(),
                noisy.decide_transient(),
                noisy.pick_storage(21),
            ));
        }
        assert_eq!(
            seq_quiet, seq_noisy,
            "network draws must not shift the storage stream"
        );
    }

    #[test]
    fn healing_stops_faults() {
        let mut p = FaultPlan::seeded(7).with_rates(1.0, 1.0, 1.0, 5, 1.0);
        assert!(p.decide_drop());
        p.heal();
        assert!(p.healed());
        for _ in 0..50 {
            assert!(!p.decide_drop());
            assert!(!p.decide_duplicate());
            assert_eq!(p.decide_delay(), 0);
            assert!(!p.decide_reorder());
        }
    }

    #[test]
    fn healing_stops_storage_faults_too() {
        let mut p = FaultPlan::seeded(9).with_storage_rates(1.0, 1.0, 1.0);
        assert!(p.decide_short_write());
        p.heal();
        for _ in 0..50 {
            assert!(!p.decide_short_write());
            assert!(!p.decide_fsync_fail());
            assert!(!p.decide_transient());
        }
    }

    #[test]
    fn partitions_cut_and_heal_per_link() {
        let mut p = FaultPlan::perfect(5);
        assert!(!p.is_partitioned(1));
        assert!(p.partition(1));
        assert!(!p.partition(1), "already cut");
        assert!(p.is_partitioned(1));
        assert!(!p.is_partitioned(0));
        assert_eq!(p.partitioned_links().collect::<Vec<_>>(), vec![1]);
        assert!(p.heal_link(1));
        assert!(!p.is_partitioned(1));
    }

    #[test]
    fn heal_clears_all_partitions() {
        let mut p = FaultPlan::seeded(6);
        p.partition(0);
        p.partition(2);
        p.heal();
        assert!(!p.is_partitioned(0));
        assert!(!p.is_partitioned(2));
    }

    #[test]
    fn perfect_plan_never_faults() {
        let mut p = FaultPlan::perfect(3);
        for _ in 0..50 {
            assert!(!p.decide_drop());
            assert_eq!(p.decide_delay(), 0);
        }
    }

    #[test]
    fn corruption_byte_is_nonzero() {
        let mut p = FaultPlan::seeded(1);
        for _ in 0..100 {
            assert_ne!(p.corruption_byte(), 0);
        }
    }
}
