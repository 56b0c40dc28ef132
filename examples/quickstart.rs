//! Quickstart: define a workflow, run it, look at it through a peer's eyes.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use std::sync::Arc;

use collab_workflows::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. A workflow spec in the concrete syntax: a tiny task tracker.
    //    alice creates tasks, bob claims and finishes them; carol only sees
    //    the finished work.
    let spec = Arc::new(
        parse_workflow(
            r#"
            schema {
                Task(K, Title);
                Claimed(K);
                Finished(K);
            }
            peers {
                alice sees Task(*), Claimed(*), Finished(*);
                bob   sees Task(*), Claimed(*), Finished(*);
                carol sees Finished(*);
            }
            rules {
                create @ alice: +Task(t, "design the schema") :- ;
                claim  @ bob:   +Claimed(t) :- Task(t, n), not key Claimed(t);
                finish @ bob:   +Finished(t) :- Claimed(t), not key Finished(t);
            }
            "#,
        )
        .expect("spec parses and validates"),
    );
    println!("=== program ===\n{}", print_workflow(&spec));

    // 2. Drive a run by hand: create two tasks, finish one.
    let mut run = Run::new(Arc::clone(&spec));
    let fire = |run: &mut Run, name: &str, vals: &[Value]| {
        let rid = run.spec().program().rule_by_name(name).unwrap();
        let mut b = Bindings::empty(vals.len());
        for (i, v) in vals.iter().enumerate() {
            b.set(VarId(i as u32), *v);
        }
        let event = Event::new(run.spec(), rid, b).unwrap();
        run.push(event).unwrap();
    };
    let t1 = run.draw_fresh();
    let t2 = run.draw_fresh();
    let title = Value::str("design the schema");
    fire(&mut run, "create", std::slice::from_ref(&t1));
    fire(&mut run, "create", std::slice::from_ref(&t2));
    // claim binds (t, n) — the task key and its title from the body match.
    fire(&mut run, "claim", &[t1, title]);
    fire(&mut run, "finish", std::slice::from_ref(&t1));
    println!("=== global run ===\n{run:?}");
    println!(
        "final instance:\n{}\n",
        run.current().display(spec.collab().schema())
    );

    // 3. The same run through each peer's view (Definition 3.1).
    for peer_name in ["alice", "bob", "carol"] {
        let peer = spec.collab().peer(peer_name).unwrap();
        let view = run.view(peer);
        println!("{peer_name} observes {} transition(s)", view.len());
    }

    // 4. Explain the run to carol: the unique minimal faithful scenario
    //    (Theorem 4.7) keeps exactly the events that explain the finished
    //    task — the second task's creation is correctly dropped.
    let carol = spec.collab().peer("carol").unwrap();
    println!("\n=== explanation for carol ===");
    print!("{}", minimal_faithful_scenario(&run, carol));

    // 5. And a random simulation for good measure.
    let mut sim = Simulator::new(Run::new(Arc::clone(&spec)), StdRng::seed_from_u64(7));
    let fired = sim.steps(10).unwrap();
    println!("\nsimulator fired {fired} random events");
}
