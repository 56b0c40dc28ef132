//! The fault-tolerant deployment: a master server (a shards=1
//! `ShardPlane`) journaling every accepted event to a write-ahead log,
//! crashing, and recovering — then the same workflow driven over an
//! unreliable network that heals.
//!
//! ```sh
//! cargo run --example durable_coordinator
//! ```

use collab_workflows::engine::FileBackend;
use collab_workflows::prelude::*;
use std::sync::Arc;

fn spec() -> Arc<WorkflowSpec> {
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
                    -key Doc(d), +Doc(d2, "published") :- Doc(d, "draft");
                note @ public: +Seen(s) :- Doc(d, "published");
            }
            "#,
        )
        .unwrap(),
    )
}

fn ev(spec: &WorkflowSpec, name: &str, vals: &[Value]) -> Event {
    let rid = spec.program().rule_by_name(name).unwrap();
    let mut b = Bindings::empty(vals.len());
    for (i, v) in vals.iter().enumerate() {
        b.set(VarId(i as u32), *v);
    }
    Event::new(spec, rid, b).unwrap()
}

fn main() {
    let spec = spec();
    let path = std::env::temp_dir().join("cwf_durable_coordinator.wal");
    let _ = std::fs::remove_file(&path);

    // --- Phase 1: a durable master server journals every accepted event --
    let opts = WalOptions {
        sync: SyncPolicy::Always,
        snapshot_every: Some(4),
    };
    let wal = Wal::create(Box::new(FileBackend::open(&path).unwrap()), opts).unwrap();
    let mut c = ShardPlane::with_parts(
        Arc::clone(&spec),
        vec![Box::new(PerfectTransport::new())],
        Some(vec![wal]),
        ShardPlaneConfig::with_shards(1),
    );
    let d = c.draw_fresh();
    c.submit(ev(&spec, "draft", std::slice::from_ref(&d)))
        .unwrap();
    let d2 = c.draw_fresh();
    c.submit(ev(&spec, "publish", &[d, d2])).unwrap();
    // note's variables are (s, d): the fresh note key and the published doc.
    let s = c.draw_fresh();
    c.submit(ev(&spec, "note", &[s, d2])).unwrap();
    let before = c.run().len();
    let ft = c.ft_stats().clone();
    println!(
        "journaled {} events ({} appends, {} snapshots) to {}",
        before,
        ft.wal_appends,
        ft.wal_snapshots,
        path.display()
    );

    // --- Phase 2: the process dies; a fresh one recovers from the log ----
    drop(c); // simulated crash: only the log file survives
    let (mut rc, report) = ShardPlane::recover(
        Arc::clone(&spec),
        vec![Box::new(FileBackend::open(&path).unwrap())],
        opts,
        vec![Box::new(PerfectTransport::new())],
        ShardPlaneConfig::with_shards(1),
    )
    .unwrap();
    println!(
        "recovered: last_seq={} replayed={} snapshot={:?} truncated={}B",
        report.last_seq, report.events_replayed, report.snapshot_seq, report.truncated_bytes
    );
    assert_eq!(report.last_seq as usize, before);
    rc.audit().expect("replicas equal I@p after recovery");
    // The recovered server keeps going where the old one stopped.
    let s2 = rc.draw_fresh();
    rc.submit(ev(&spec, "note", &[s2, d2])).unwrap();
    println!("resumed: {} events live, audit ok\n", rc.run().len());

    // --- Phase 3: unreliable delivery, then healing -----------------------
    let plan = FaultPlan::seeded(7); // drops, duplicates, delays, reorders
    let mut f = ShardPlane::with_parts(
        Arc::clone(&spec),
        vec![Box::new(FaultyTransport::new(plan))],
        None,
        ShardPlaneConfig::with_shards(1),
    );
    for _ in 0..6 {
        let d = f.draw_fresh();
        f.submit(ev(&spec, "draft", std::slice::from_ref(&d)))
            .unwrap();
    }
    let lagging = f.audit().is_err();
    f.heal();
    let verdict = f.converge(1_000);
    assert!(
        verdict.is_converged(),
        "healed network must converge: {verdict}"
    );
    let ft = f.ft_stats();
    println!(
        "faulty network: lagging_before_heal={} retries={} resyncs={} dup_suppressed={}",
        lagging, ft.retries, ft.resyncs, ft.duplicates_suppressed
    );
    f.audit().expect("replicas equal I@p after healing");
    println!("converged: every replica equals its authoritative view");

    let _ = std::fs::remove_file(&path);
}
