//! The sharded, replicated state plane — the one admission path.
//!
//! The paper's model has one global run of which each peer sees its own
//! view. A [`ShardPlane`] admits events into that run: with one shard it is
//! the master server of the paper's Conclusion, and with N shards it splits
//! the same run into **shard-local apply plus a thin routing layer**:
//!
//! * a [`ShardMap`] deterministically assigns every key to one of N shards
//!   (FNV-1a over a canonical encoding of the key value);
//! * a [`ShardPlane`] validates events against the whole keyed instance
//!   (that is the routing layer), then **admits them on the owning
//!   shards**: a key-local event is made durable entirely on its home
//!   shard's WAL stream, while a cross-shard event runs a router-driven
//!   prepare/commit protocol across its participants before any state
//!   changes (see [`plane`](ShardPlane) for the full protocol);
//! * each shard applies its ops to its own state partition, appends them to
//!   an append-only [`Oplog`] stamped with [hybrid logical clock](Hlc)
//!   timestamps, feeds a warm **standby replica**, and drives its slice of
//!   every peer's replica through its own [`Delivery`] plane.
//!
//! Robustness is the point, not an afterthought: shards **fail over** to
//! their standby (promotion + oplog tail replay + peer resync), **hand
//! off** to a new node through an interruptible drain → snapshot →
//! transfer → replay-tail protocol, and tolerate **link-level partitions**
//! injected by [`FaultPlan`](crate::fault::FaultPlan) or the chaos action
//! grammar. Full-plane recovery is a **quorum procedure** over the
//! per-shard WAL streams: every surviving stream is replayed, in-doubt
//! cross-shard commits are resolved from prepare/commit records (presumed
//! abort), and the serializable global order is rebuilt from the HLC
//! stamps. The chaos battery asserts that after heal + pump-to-quiescence
//! the union of shard states equals the shadow run byte for byte, and that
//! HLC order is consistent with causal delivery.
//!
//! [`Delivery`]: crate::delivery::Delivery

use std::fmt;

use cwf_model::Value;

mod hlc;
mod oplog;
mod plane;

pub use hlc::{Hlc, HlcStamp};
pub use oplog::{Oplog, OplogEntry, ShardOp};
pub use plane::{
    slice_view, FailoverReport, ShardBroadcast, ShardConvergence, ShardLink, ShardPlane,
    ShardPlaneConfig, ShardPlaneStats,
};

/// Identifies one shard (dense, from 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u16);

impl ShardId {
    /// The shard's dense index.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// The slot table refuses to refine past this length: a split of a shard
/// owning a single slot doubles the table to gain granularity, and the cap
/// bounds both the table and the `m` record payload that carries it.
const SLOT_CAP: usize = 512;

/// Physical shard streams never grow past this (chaos sanity bound).
const STREAM_CAP: u16 = 256;

/// The deterministic, **versioned** key→shard assignment: FNV-1a over a
/// canonical byte encoding of the key [`Value`], indexing an
/// epoch-stamped slot table. A freshly built map over `n` shards is the
/// identity table `[0, 1, …, n-1]`, so `shard_of` degenerates to
/// `hash % n` — the pinned on-the-wire contract of earlier releases is
/// unchanged. Elastic resharding evolves the table through
/// [`MigrationPlan`]s: a **split** doubles the table (ownership-preserving
/// when needed — `(h mod 2L) mod L = h mod L`) and reassigns half of the
/// source's slots to a brand-new shard, a **merge** folds every slot of
/// one shard into another, and a **rebalance** moves slots between two
/// existing shards. The `epoch` advances on every durable map transition
/// (plan begun, cutover, abort), so any two nodes comparing epochs agree
/// on which assignment is current.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    /// Version counter: bumped when a migration begins (`m` record) and
    /// again when it resolves (`f` cutover or `x`/presumed abort).
    epoch: u64,
    /// Physical shard/stream count the map spans (only ever grows; a
    /// merged-away shard keeps its stream, owning zero slots).
    streams: u16,
    /// Committed ownership: `shard_of(k) = slots[fnv1a(k) % slots.len()]`.
    slots: Vec<u16>,
}

/// What a migration changes, for records and transcripts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationKind {
    /// Carve half of `src`'s key space out to a brand-new shard.
    Split,
    /// Fold all of `src`'s key space into `dst` (leaving `src` idle).
    Merge,
    /// Move about half of `src`'s key space onto the existing `dst`.
    Rebalance,
}

impl fmt::Display for MigrationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MigrationKind::Split => write!(f, "split"),
            MigrationKind::Merge => write!(f, "merge"),
            MigrationKind::Rebalance => write!(f, "rebal"),
        }
    }
}

/// A proposed map transition: the full target assignment (self-contained,
/// so a recovered node can adopt it from the WAL record alone) plus the
/// epoch the map enters while the migration is in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationPlan {
    /// The epoch the map holds *while migrating* (old epoch + 1); the
    /// cutover lands on `epoch + 1`.
    pub epoch: u64,
    /// What kind of reshape this is.
    pub kind: MigrationKind,
    /// The shard losing keys.
    pub src: ShardId,
    /// The shard gaining keys (brand-new for a split).
    pub dst: ShardId,
    /// Physical stream count after the cutover.
    pub streams: u16,
    /// The target slot table the cutover adopts.
    pub slots: Vec<u16>,
}

impl ShardMap {
    /// A map over `shards` shards (at least 1), identity slot table.
    pub fn new(shards: usize) -> ShardMap {
        assert!(shards >= 1, "a plane needs at least one shard");
        assert!(shards <= u16::MAX as usize, "shard count fits a ShardId");
        ShardMap {
            epoch: 0,
            streams: shards as u16,
            slots: (0..shards as u16).collect(),
        }
    }

    /// Rebuilds a map from its recovered parts (recovery adopts the table
    /// a surviving `m`/`f` record carries verbatim).
    pub fn from_parts(epoch: u64, streams: u16, slots: Vec<u16>) -> ShardMap {
        assert!(streams >= 1 && !slots.is_empty(), "a non-trivial map");
        assert!(
            slots.iter().all(|&o| o < streams),
            "every slot owner is a live stream"
        );
        ShardMap {
            epoch,
            streams,
            slots,
        }
    }

    /// How many physical shards the map spans (idle ones included).
    pub fn shards(&self) -> usize {
        self.streams as usize
    }

    /// The map's version counter.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The committed slot table (ownership granularity).
    pub fn slots(&self) -> &[u16] {
        &self.slots
    }

    /// All shard ids, ascending.
    pub fn shard_ids(&self) -> impl Iterator<Item = ShardId> {
        (0..self.streams).map(ShardId)
    }

    /// The owning shard of `key`.
    pub fn shard_of(&self, key: &Value) -> ShardId {
        ShardId(self.slots[(fnv1a(key) % self.slots.len() as u64) as usize])
    }

    /// How many slots `s` currently owns (0 for a merged-away shard).
    pub fn slots_owned(&self, s: ShardId) -> usize {
        self.slots.iter().filter(|&&o| o == s.0).count()
    }

    /// Proposes carving half of `src`'s key space out to the brand-new
    /// shard `dst` (the caller picks the next free physical index). `None`
    /// when `src` owns nothing, `dst` is not new, or a cap is hit.
    pub fn plan_split(&self, src: ShardId, dst: ShardId) -> Option<MigrationPlan> {
        if src.0 >= self.streams || dst.0 < self.streams || dst.0 >= STREAM_CAP {
            return None;
        }
        let mut slots = self.slots.clone();
        // Refine until the source owns at least two slots: doubling the
        // table by repetition preserves every assignment, because
        // (h mod 2L) mod L = h mod L.
        while slots.iter().filter(|&&o| o == src.0).count() < 2 {
            if slots.iter().all(|&o| o != src.0) || slots.len() * 2 > SLOT_CAP {
                return None;
            }
            let l = slots.len();
            slots.extend_from_within(0..l);
        }
        let owned: Vec<usize> = (0..slots.len()).filter(|&i| slots[i] == src.0).collect();
        for &i in owned.iter().rev().take(owned.len() / 2) {
            slots[i] = dst.0;
        }
        Some(MigrationPlan {
            epoch: self.epoch + 1,
            kind: MigrationKind::Split,
            src,
            dst,
            streams: dst.0 + 1,
            slots,
        })
    }

    /// Proposes folding all of `src`'s key space into the existing `dst`.
    /// `None` when the pair is degenerate or `src` owns nothing.
    pub fn plan_merge(&self, src: ShardId, dst: ShardId) -> Option<MigrationPlan> {
        if src == dst || src.0 >= self.streams || dst.0 >= self.streams {
            return None;
        }
        if self.slots_owned(src) == 0 {
            return None;
        }
        let slots: Vec<u16> = self
            .slots
            .iter()
            .map(|&o| if o == src.0 { dst.0 } else { o })
            .collect();
        Some(MigrationPlan {
            epoch: self.epoch + 1,
            kind: MigrationKind::Merge,
            src,
            dst,
            streams: self.streams,
            slots,
        })
    }

    /// Proposes moving about half of `src`'s key space onto the existing
    /// `dst` (refining the table when `src` owns a single slot). `None`
    /// when the pair is degenerate, `src` owns nothing, or a cap is hit.
    pub fn plan_rebalance(&self, src: ShardId, dst: ShardId) -> Option<MigrationPlan> {
        if src == dst || src.0 >= self.streams || dst.0 >= self.streams {
            return None;
        }
        let mut slots = self.slots.clone();
        while slots.iter().filter(|&&o| o == src.0).count() < 2 {
            if slots.iter().all(|&o| o != src.0) || slots.len() * 2 > SLOT_CAP {
                return None;
            }
            let l = slots.len();
            slots.extend_from_within(0..l);
        }
        let owned: Vec<usize> = (0..slots.len()).filter(|&i| slots[i] == src.0).collect();
        for &i in owned.iter().rev().take((owned.len() / 2).max(1)) {
            slots[i] = dst.0;
        }
        Some(MigrationPlan {
            epoch: self.epoch + 1,
            kind: MigrationKind::Rebalance,
            src,
            dst,
            streams: self.streams,
            slots,
        })
    }

    /// Enters the migrating epoch for `plan` (ownership unchanged — keys
    /// keep routing to their old owners until the cutover).
    pub fn begin(&mut self, plan: &MigrationPlan) {
        debug_assert_eq!(plan.epoch, self.epoch + 1, "plans apply in sequence");
        self.epoch = plan.epoch;
    }

    /// The fenced cutover: adopts the plan's table and stream count in one
    /// atomic flip to epoch `plan.epoch + 1`.
    pub fn cutover(&mut self, plan: &MigrationPlan) {
        debug_assert_eq!(plan.epoch, self.epoch, "cutover matches the live plan");
        self.epoch = plan.epoch + 1;
        self.streams = plan.streams;
        self.slots = plan.slots.clone();
    }

    /// Abandons the in-flight plan: ownership stays old, epoch advances so
    /// the aborted attempt is never confused with a settled map.
    pub fn abort(&mut self) {
        self.epoch += 1;
    }
}

/// FNV-1a over the canonical encoding of a value: a variant tag byte
/// followed by the payload bytes (little-endian for integers).
fn fnv1a(key: &Value) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    };
    match key {
        Value::Null => eat(0),
        Value::Bool(b) => {
            eat(1);
            eat(*b as u8);
        }
        Value::Int(i) => {
            eat(2);
            for b in i.to_le_bytes() {
                eat(b);
            }
        }
        Value::Str(s) => {
            eat(3);
            for b in s.as_bytes() {
                eat(*b);
            }
        }
        Value::Fresh(n) => {
            eat(4);
            for b in n.to_le_bytes() {
                eat(b);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shard_owns_everything() {
        let m = ShardMap::new(1);
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::int(42),
            Value::str("doc-7"),
            Value::Fresh(123),
        ] {
            assert_eq!(m.shard_of(&v), ShardId(0));
        }
    }

    #[test]
    fn assignment_is_deterministic_and_total() {
        let m = ShardMap::new(4);
        for n in 0..200u64 {
            let v = Value::Fresh(n);
            let s = m.shard_of(&v);
            assert!(s.index() < 4);
            assert_eq!(s, m.shard_of(&v), "same key, same shard, always");
        }
    }

    /// The canonical encoding distinguishes variants with equal payloads
    /// and actually spreads keys (no shard starves on a fresh-value
    /// workload, which is what runs produce).
    #[test]
    fn keys_spread_across_shards() {
        let m = ShardMap::new(4);
        let mut counts = [0usize; 4];
        for n in 0..400u64 {
            counts[m.shard_of(&Value::Fresh(n)).index()] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(c > 40, "shard {s} starves: {counts:?}");
        }
        // Tag bytes keep Int(5) and Fresh(5) independent streams.
        let spread: std::collections::BTreeSet<_> = (0..16)
            .flat_map(|n| {
                [
                    m.shard_of(&Value::int(n)),
                    m.shard_of(&Value::Fresh(n as u64)),
                ]
            })
            .collect();
        assert!(spread.len() > 1, "more than one shard is ever used");
    }

    /// The pinned on-the-wire contract: these exact assignments must never
    /// change across releases, or mixed-version planes would split-brain
    /// ownership.
    #[test]
    fn assignment_is_pinned() {
        let m = ShardMap::new(4);
        let got: Vec<u16> = (0..8).map(|n| m.shard_of(&Value::Fresh(n)).0).collect();
        assert_eq!(got, vec![3, 2, 1, 0, 3, 2, 1, 0]);
        assert_eq!(m.shard_of(&Value::str("alpha")).0, 2);
        assert_eq!(m.shard_of(&Value::Null).0, 3);
    }

    /// A split plan moves some keys to the new shard and only ever from
    /// the source; everything else keeps its old owner.
    #[test]
    fn split_moves_only_source_keys_to_the_new_shard() {
        let m = ShardMap::new(4);
        let plan = m.plan_split(ShardId(1), ShardId(4)).expect("splittable");
        assert_eq!(plan.streams, 5);
        let mut next = m.clone();
        next.begin(&plan);
        assert_eq!(next.epoch(), 1);
        assert_eq!(
            next.shard_of(&Value::Fresh(0)),
            m.shard_of(&Value::Fresh(0))
        );
        next.cutover(&plan);
        assert_eq!(next.epoch(), 2);
        let mut moved = 0;
        for n in 0..400u64 {
            let v = Value::Fresh(n);
            let (old, new) = (m.shard_of(&v), next.shard_of(&v));
            if old != new {
                assert_eq!(old, ShardId(1), "only source keys move");
                assert_eq!(new, ShardId(4), "moves land on the new shard");
                moved += 1;
            }
        }
        assert!(moved > 20, "a split moves a real fraction: {moved}");
        assert!(next.slots_owned(ShardId(1)) >= 1, "the source keeps half");
    }

    /// A merge empties the source; splitting from one shard works (the
    /// 1→2 smoke case); aborted plans advance the epoch without moving
    /// ownership.
    #[test]
    fn merge_empties_source_and_one_shard_split_works() {
        let mut m = ShardMap::new(4);
        let plan = m.plan_merge(ShardId(3), ShardId(0)).expect("mergeable");
        m.begin(&plan);
        m.cutover(&plan);
        assert_eq!(m.slots_owned(ShardId(3)), 0);
        assert_eq!(m.shard_of(&Value::Null), ShardId(0), "Null hashed to 3");
        assert!(m.plan_split(ShardId(3), ShardId(4)).is_none(), "empty src");
        assert!(m.plan_merge(ShardId(3), ShardId(0)).is_none(), "empty src");

        let mut one = ShardMap::new(1);
        let plan = one.plan_split(ShardId(0), ShardId(1)).expect("1→2");
        one.begin(&plan);
        one.abort();
        assert_eq!(one.epoch(), 2);
        assert_eq!(one.shards(), 1, "abort keeps old ownership");
        let plan = one.plan_split(ShardId(0), ShardId(1)).expect("retry");
        assert_eq!(plan.epoch, 3);
        one.begin(&plan);
        one.cutover(&plan);
        assert_eq!(one.shards(), 2);
        let owned: usize = (0..2).map(|s| one.slots_owned(ShardId(s))).sum();
        assert_eq!(owned, one.slots().len(), "every slot owned exactly once");
        assert!(one.slots_owned(ShardId(1)) >= 1);
    }

    /// Rebalance moves slots between existing shards and round-trips
    /// through `from_parts` (what recovery adopts from a WAL record).
    #[test]
    fn rebalance_and_recovery_roundtrip() {
        let m = ShardMap::new(2);
        let plan = m.plan_rebalance(ShardId(0), ShardId(1)).expect("movable");
        let mut next = m.clone();
        next.begin(&plan);
        next.cutover(&plan);
        assert_eq!(next.shards(), 2, "rebalance adds no shard");
        let back = ShardMap::from_parts(next.epoch(), plan.streams, plan.slots.clone());
        assert_eq!(back, next);
        for n in 0..64u64 {
            let v = Value::Fresh(n);
            assert_eq!(back.shard_of(&v), next.shard_of(&v));
        }
    }
}
