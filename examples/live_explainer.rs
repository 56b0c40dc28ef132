//! Live explanations: the minimal faithful scenario stepped by every push
//! while a procurement workflow streams events.
//!
//! ```sh
//! cargo run --example live_explainer
//! ```

use collab_workflows::core::{facts, minimal_faithful_scenario, tp_closure};
use collab_workflows::prelude::*;
use collab_workflows::workloads::build_procurement_run;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // Build a procurement run: 3 completed purchase cycles with stalled
    // noise requests in between.
    let mut rng = StdRng::seed_from_u64(2024);
    let p = build_procurement_run(3, 2, &mut rng);
    println!(
        "streaming a {}-event procurement run; the employee sees {} transitions",
        p.run.len(),
        p.run.view(p.emp).len()
    );

    // Feed the events one by one into a bare run. Reading the employee's
    // faithful set fills the run's facts slot; from then on every push
    // steps it from the event's recorded diff.
    let mut run = Run::new(p.run.spec_arc());
    facts(&run).faithful(p.emp);
    for i in 0..p.run.len() {
        let event = p.run.event(i).clone();
        let name = p.run.spec().program().rule(event.rule).name.clone();
        run.push(event).unwrap();
        let stepped = facts(&run).faithful(p.emp);
        println!(
            "  event {i:>2} {name:<14} → minimal faithful scenario: {:>2} of {:>2} events",
            stepped.len(),
            run.len()
        );
        // A clone starts with an empty slot: it computes from scratch.
        assert_eq!(
            stepped,
            &minimal_faithful_scenario(&run.clone(), p.emp).events
        );
    }
    println!("\nstepped == from-scratch after every push ✓");

    // …and explains each notice through its full invisible chain.
    println!("\n=== final explanation for the employee ===");
    print!("{}", minimal_faithful_scenario(&run, p.emp));

    // An individual event's explanation `T_p^ω(ρ, {f})` (even an invisible
    // one) is closed on demand over the stepped index.
    let some_ship = (0..run.len())
        .find(|&i| run.spec().program().rule(run.event(i).rule).name == "ship")
        .expect("a shipment happened");
    let one = EventSet::from_iter(run.len(), [some_ship]);
    let closure = tp_closure(&run, facts(&run).index(), p.emp, &one);
    println!(
        "\nthe explanation of shipment event #{some_ship} alone: {:?}",
        closure.to_vec()
    );
}
