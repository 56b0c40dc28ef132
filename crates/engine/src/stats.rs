//! Run statistics: who did what, who saw what.
//!
//! [`RunStats`] aggregates per-peer activity and the pairwise visibility
//! matrix (how many of peer `q`'s events each observer `p` noticed) — the
//! quantitative side of "side effects on other peers' data" that the paper's
//! introduction motivates. Used by examples and the experiments runner.

use std::fmt;

use crate::run::Run;

/// Per-peer activity counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PeerStats {
    /// Events the peer performed.
    pub performed: usize,
    /// Insertions the peer issued.
    pub insertions: usize,
    /// Deletions the peer issued.
    pub deletions: usize,
    /// Transitions visible at this peer (own events + observed side effects).
    pub observed: usize,
}

/// Fault-tolerance counters of a plane deployment: how hard the delivery
/// and durability machinery had to work. Read through
/// [`ShardPlane::ft_stats`](crate::ShardPlane::ft_stats).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FtStats {
    /// View-delta messages enqueued toward replicas.
    pub deltas_sent: u64,
    /// Acknowledgements received back from replicas.
    pub acks_received: u64,
    /// Unacknowledged messages re-sent (after backoff).
    pub retries: u64,
    /// Full-snapshot resyncs pushed to lagging or divergent replicas.
    pub resyncs: u64,
    /// Duplicate or stale messages a replica suppressed.
    pub duplicates_suppressed: u64,
    /// Out-of-order (future-seq) deltas a replica dropped pending retry.
    pub out_of_order_deferred: u64,
    /// Events appended to the write-ahead log.
    pub wal_appends: u64,
    /// Instance snapshots appended to the write-ahead log.
    pub wal_snapshots: u64,
    /// Events replayed from the log during recovery.
    pub recovered_events: u64,
    /// Bytes of torn tail truncated during recovery.
    pub truncated_bytes: u64,
    /// Hard (non-retryable) WAL failures that degraded the plane.
    pub wal_failures: u64,
    /// Transient WAL append failures that were retried in place.
    pub wal_transient_retries: u64,
    /// Mutations rejected while in degraded (read-only) mode.
    pub degraded_rejected: u64,
    /// Successful re-arms out of degraded mode.
    pub degraded_recoveries: u64,
}

/// Distributed-admission counters of a sharded plane: how events were
/// committed (shard-locally vs through the cross-shard protocol) and how
/// recovery resolved in-doubt transactions. Read through
/// [`ShardPlane::admission_stats`](crate::ShardPlane::admission_stats).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardAdmissionStats {
    /// Per shard: events admitted entirely on that shard's path (single
    /// participant — one `e` record on its stream, no router WAL work).
    pub local_admitted: Vec<u64>,
    /// Cross-shard transactions driven to their commit point.
    pub cross_shard_committed: u64,
    /// Cross-shard transactions aborted before their commit point.
    pub cross_shard_aborted: u64,
    /// Prepare records written across all shard streams.
    pub prepares_written: u64,
    /// Commit records written across all shard streams.
    pub commits_written: u64,
    /// Abort records written across all shard streams.
    pub aborts_written: u64,
    /// Deferred (stalled) commit records flushed later by `pump`.
    pub pending_commit_flushes: u64,
    /// In-doubt transactions recovery resolved as committed (some shard
    /// held the commit record).
    pub in_doubt_committed: u64,
    /// In-doubt transactions recovery resolved by presumed abort (prepares
    /// survived, no commit record anywhere).
    pub in_doubt_aborted: u64,
}

/// Aggregated statistics of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunStats {
    /// Total number of events.
    pub events: usize,
    /// Per peer (indexed by `PeerId`).
    pub peers: Vec<PeerStats>,
    /// `visibility[p][q]`: how many of `q`'s events were visible at `p`.
    pub visibility: Vec<Vec<usize>>,
    /// Tuples in the final instance.
    pub final_tuples: usize,
}

impl RunStats {
    /// Computes the statistics of a run.
    pub fn of(run: &Run) -> RunStats {
        let spec = run.spec();
        let n_peers = spec.collab().peer_count();
        let mut peers = vec![PeerStats::default(); n_peers];
        let mut visibility = vec![vec![0usize; n_peers]; n_peers];
        for e in run.events() {
            let actor = e.peer.index();
            peers[actor].performed += 1;
            for u in e.ground_updates(spec) {
                if u.is_insert() {
                    peers[actor].insertions += 1;
                } else {
                    peers[actor].deletions += 1;
                }
            }
        }
        for p in spec.collab().peer_ids() {
            for i in run.visible_events(p) {
                peers[p.index()].observed += 1;
                visibility[p.index()][run.event(i).peer.index()] += 1;
            }
        }
        RunStats {
            events: run.len(),
            peers,
            visibility,
            final_tuples: run.current().total_tuples(),
        }
    }

    /// Renders a table against a run's peer names.
    pub fn render(&self, run: &Run) -> String {
        let collab = run.spec().collab();
        let mut out = format!(
            "{} events, {} final tuples\n{:<12} {:>6} {:>6} {:>6} {:>9}\n",
            self.events, self.final_tuples, "peer", "did", "+ins", "-del", "observed"
        );
        for p in collab.peer_ids() {
            let s = &self.peers[p.index()];
            out.push_str(&format!(
                "{:<12} {:>6} {:>6} {:>6} {:>9}\n",
                collab.peer_name(p),
                s.performed,
                s.insertions,
                s.deletions,
                s.observed
            ));
        }
        out
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} events across {} peers, {} final tuples",
            self.events,
            self.peers.len(),
            self.final_tuples
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Bindings;
    use crate::event::Event;
    use cwf_lang::parse_workflow;
    use std::sync::Arc;

    fn run() -> Run {
        let spec = Arc::new(
            parse_workflow(
                r#"
                schema { A(K); B(K); }
                peers {
                    worker sees A(*), B(*);
                    boss sees A(*), B(*);
                    lurker sees B(*);
                }
                rules {
                    mk @ worker: +A(0) :- ;
                    promote @ boss: +B(0), -key A(0) :- A(0);
                }
                "#,
            )
            .unwrap(),
        );
        let mut run = Run::new(Arc::clone(&spec));
        for n in ["mk", "promote"] {
            let rid = spec.program().rule_by_name(n).unwrap();
            run.push(Event::new(&spec, rid, Bindings::empty(0)).unwrap())
                .unwrap();
        }
        run
    }

    #[test]
    fn counters_are_correct() {
        let run = run();
        let s = RunStats::of(&run);
        assert_eq!(s.events, 2);
        assert_eq!(s.final_tuples, 1);
        let collab = run.spec().collab();
        let worker = collab.peer("worker").unwrap();
        let boss = collab.peer("boss").unwrap();
        let lurker = collab.peer("lurker").unwrap();
        assert_eq!(s.peers[worker.index()].performed, 1);
        assert_eq!(s.peers[worker.index()].insertions, 1);
        assert_eq!(s.peers[worker.index()].deletions, 0);
        assert_eq!(s.peers[boss.index()].insertions, 1);
        assert_eq!(s.peers[boss.index()].deletions, 1);
        // worker and boss observe both transitions; lurker only the second
        // (A is invisible to it).
        assert_eq!(s.peers[worker.index()].observed, 2);
        assert_eq!(s.peers[boss.index()].observed, 2);
        assert_eq!(s.peers[lurker.index()].observed, 1);
    }

    #[test]
    fn visibility_matrix() {
        let run = run();
        let s = RunStats::of(&run);
        let collab = run.spec().collab();
        let worker = collab.peer("worker").unwrap();
        let boss = collab.peer("boss").unwrap();
        let lurker = collab.peer("lurker").unwrap();
        assert_eq!(s.visibility[lurker.index()][worker.index()], 0);
        assert_eq!(s.visibility[lurker.index()][boss.index()], 1);
        assert_eq!(
            s.visibility[worker.index()][lurker.index()],
            0,
            "lurker is idle"
        );
    }

    #[test]
    fn render_and_display() {
        let run = run();
        let s = RunStats::of(&run);
        let table = s.render(&run);
        assert!(table.contains("lurker"));
        assert!(table.contains("observed"));
        assert_eq!(s.to_string(), "2 events across 3 peers, 1 final tuples");
    }
}
