//! The conclusion's deployment sketch: a master server — a shards=1
//! `ShardPlane` — receiving updates, propagating per-peer view deltas, and
//! composing with transparency enforcement.
//!
//! ```sh
//! cargo run --example master_server
//! ```

use collab_workflows::design::{EnforcementMode, PushOutcome, TransparentEngine};
use collab_workflows::prelude::*;
use std::sync::Arc;

fn main() {
    let spec = Arc::new(
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
    );
    let ev = |spec: &WorkflowSpec, name: &str, vals: &[Value]| {
        let rid = spec.program().rule_by_name(name).unwrap();
        let mut b = Bindings::empty(vals.len());
        for (i, v) in vals.iter().enumerate() {
            b.set(VarId(i as u32), *v);
        }
        Event::new(spec, rid, b).unwrap()
    };

    // --- The master server propagates view deltas -------------------------
    let mut c = ShardPlane::new(Arc::clone(&spec), 1);
    let d = c.draw_fresh();
    let b1 = c
        .submit(ev(&spec, "draft", std::slice::from_ref(&d)))
        .unwrap()
        .clone();
    println!("draft submitted — {} peer(s) notified:", b1.deltas.len());
    for (p, delta) in &b1.deltas {
        println!(
            "  {}: {} upsert(s), {} removal(s)",
            spec.collab().peer_name(*p),
            delta.upserts.len(),
            delta.removals.len()
        );
    }
    let d2 = c.draw_fresh();
    let b2 = c.submit(ev(&spec, "publish", &[d, d2])).unwrap();
    println!("published — {} peer(s) notified:", b2.deltas.len());
    for (p, delta) in &b2.deltas {
        println!(
            "  {}: {} upsert(s), {} removal(s)",
            spec.collab().peer_name(*p),
            delta.upserts.len(),
            delta.removals.len()
        );
    }
    // Every replica equals the authoritative view.
    c.audit().expect("replicas track views");
    println!("replica audit: ok\n");

    // --- Composing with transparency enforcement --------------------------
    // The same server can gate events through the Section 6 engine first:
    // only accepted events are broadcast.
    let public = spec.collab().peer("public").unwrap();
    let mut gate =
        TransparentEngine::with_mode(Arc::clone(&spec), public, 3, EnforcementMode::Block);
    let mut gated = ShardPlane::new(Arc::clone(&spec), 1);
    let d3 = gated.draw_fresh();
    let d4 = Value::Fresh(9_000);
    let s = Value::Fresh(9_100);
    // note's variables are (s, d): the fresh note key and the published doc.
    let script: Vec<Event> = vec![
        ev(&spec, "draft", std::slice::from_ref(&d3)),
        ev(&spec, "publish", &[d3, d4]),
        ev(&spec, "note", &[s, d4]),
    ];
    for e in script {
        match gate.push(e.clone()) {
            Ok(PushOutcome::Applied { .. }) => {
                gated.submit(e).unwrap();
            }
            Ok(blocked) => println!("gate filtered an event: {blocked:?}"),
            Err(err) => println!("inapplicable event rejected: {err}"),
        }
    }
    gated.audit().expect("gated replicas track views");
    println!(
        "gated master server: {} events accepted, {} broadcasts, stats {:?}",
        gated.run().len(),
        gated.log().len(),
        gate.stats()
    );
}
