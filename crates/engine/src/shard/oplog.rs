//! The per-shard append-only operation log.
//!
//! Every event admitted by the routing layer lands on each owning shard as
//! one [`OplogEntry`]: the tuple-level operations on that shard's key
//! partition, stamped with the shard's [HLC](super::Hlc) and tagged with
//! the event's home shard and global position. The oplog is the shard's
//! durable replication record — the standby replica consumes its tail, a
//! promoted replica replays it past its applied watermark after a
//! failover, and a hand-off transfers snapshot-then-tail from it. (In this
//! in-process deployment durability is anchored by each shard's own WAL
//! stream — commit and prepare records land there before the oplog sees
//! the entry; the oplog is the in-memory projection and is rebuilt from
//! the streams on full-plane quorum recovery.)

use cwf_model::{PeerId, RelId, Tuple, Value};

use crate::delivery::MaterializedView;

use super::{HlcStamp, ShardId};

/// One tuple-level operation on a shard's state partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardOp {
    /// Insert or replace the tuple under its key.
    Upsert {
        /// The relation.
        rel: RelId,
        /// The full tuple (its key names the slot).
        tuple: Tuple,
    },
    /// Remove the tuple under `key`, if present.
    Remove {
        /// The relation.
        rel: RelId,
        /// The key to remove.
        key: Value,
    },
}

impl ShardOp {
    /// Applies the operation to a materialized state partition
    /// (idempotent: re-applying is a no-op).
    pub fn apply_to(&self, state: &mut MaterializedView) {
        match self {
            ShardOp::Upsert { rel, tuple } => state.upsert(*rel, tuple.clone()),
            ShardOp::Remove { rel, key } => state.remove(*rel, key),
        }
    }
}

/// One replicated record: everything one event did to one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OplogEntry {
    /// Dense per-shard sequence number, from 1.
    pub seq: u64,
    /// The shard's HLC stamp for the apply (strictly increasing in `seq`).
    pub stamp: HlcStamp,
    /// The event's home shard (owner of its first written key).
    pub origin: ShardId,
    /// The event's position in the global run.
    pub event_index: usize,
    /// The acting peer.
    pub actor: PeerId,
    /// The tuple-level operations, in diff order.
    pub ops: Vec<ShardOp>,
}

/// An append-only log of [`OplogEntry`] records.
#[derive(Debug, Clone, Default)]
pub struct Oplog {
    entries: Vec<OplogEntry>,
}

impl Oplog {
    /// An empty log.
    pub fn new() -> Oplog {
        Oplog::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The sequence number of the last entry (0 when empty).
    pub fn last_seq(&self) -> u64 {
        self.entries.last().map_or(0, |e| e.seq)
    }

    /// The last entry, if any.
    pub fn last(&self) -> Option<&OplogEntry> {
        self.entries.last()
    }

    /// All entries, oldest first.
    pub fn entries(&self) -> &[OplogEntry] {
        &self.entries
    }

    /// The entries strictly after sequence number `after` (the tail a
    /// replica at watermark `after` still has to apply).
    pub fn tail(&self, after: u64) -> &[OplogEntry] {
        // seq is dense from 1, so the tail starts at index `after`.
        let from = (after as usize).min(self.entries.len());
        &self.entries[from..]
    }

    /// Appends the next entry, assigning its sequence number.
    pub fn append(
        &mut self,
        stamp: HlcStamp,
        origin: ShardId,
        event_index: usize,
        actor: PeerId,
        ops: Vec<ShardOp>,
    ) -> &OplogEntry {
        let seq = self.last_seq() + 1;
        self.entries.push(OplogEntry {
            seq,
            stamp,
            origin,
            event_index,
            actor,
            ops,
        });
        self.entries.last().expect("just pushed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(wall: u64) -> HlcStamp {
        HlcStamp {
            wall,
            logical: 0,
            node: 0,
        }
    }

    #[test]
    fn seq_is_dense_and_tail_slices_by_watermark() {
        let mut log = Oplog::new();
        assert_eq!(log.last_seq(), 0);
        assert!(log.tail(0).is_empty());
        for i in 1..=5u64 {
            let e = log.append(stamp(i), ShardId(0), i as usize - 1, PeerId(0), Vec::new());
            assert_eq!(e.seq, i);
        }
        assert_eq!(log.len(), 5);
        assert_eq!(log.tail(0).len(), 5);
        assert_eq!(
            log.tail(3).iter().map(|e| e.seq).collect::<Vec<_>>(),
            [4, 5]
        );
        assert!(log.tail(5).is_empty());
        assert!(log.tail(99).is_empty());
    }

    #[test]
    fn ops_apply_idempotently() {
        let t = Tuple::new([Value::Fresh(1), Value::str("draft")]);
        let up = ShardOp::Upsert {
            rel: RelId(0),
            tuple: t.clone(),
        };
        let rm = ShardOp::Remove {
            rel: RelId(0),
            key: Value::Fresh(1),
        };
        let mut state = MaterializedView::new();
        up.apply_to(&mut state);
        up.apply_to(&mut state);
        assert_eq!(state.total_tuples(), 1);
        rm.apply_to(&mut state);
        rm.apply_to(&mut state);
        assert_eq!(state.total_tuples(), 0);
    }
}
