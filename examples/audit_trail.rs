//! Audit trails: persist a run as an event log, reload and re-validate it,
//! then drill into *why* each event matters to an observer.
//!
//! ```sh
//! cargo run --example audit_trail
//! ```

use collab_workflows::engine::{encode_run, load_run, RunStats};
use collab_workflows::lang::lint;
use collab_workflows::prelude::*;
use collab_workflows::workloads::build_review_run;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // A conference-review run: 2 papers decided, plus dissenting reviews.
    let mut rng = StdRng::seed_from_u64(77);
    let r = build_review_run(2, 1, &mut rng);
    let spec = r.run.spec_arc();

    // 0. Lint the program first (a clean bill of health).
    let lints = lint(&spec);
    println!("lints: {}", lints.len());
    for l in &lints {
        println!("  warning: {l}");
    }

    // 1. Persist the run as a tamper-evident event log.
    let log = encode_run(&r.run);
    println!("\n=== event log ({} lines) ===", log.lines().count());
    for line in log.lines().take(6) {
        println!("  {line}");
    }
    println!("  …");

    // 2. Reload: decoding *replays* the log, so any tampering that breaks
    //    the program semantics is rejected.
    let reloaded = load_run(spec.clone(), Instance::empty(spec.collab().schema()), &log)
        .expect("the log replays");
    assert_eq!(reloaded.current(), r.run.current());
    println!("\nreloaded and re-validated: {} events", reloaded.len());

    // A tampered log (decision without reviews) is rejected.
    let tampered = "accept f:0 f:1 f:2\n";
    assert!(load_run(
        spec.clone(),
        Instance::empty(spec.collab().schema()),
        tampered
    )
    .is_err());
    println!("tampered log rejected ✓");

    // 3. Activity statistics.
    let stats = RunStats::of(&r.run);
    println!("\n=== activity ===\n{}", stats.render(&r.run));

    // 4. The author's explanation, with drill-down justifications.
    println!("=== explanation for the author ===");
    let explanation = minimal_faithful_scenario(&r.run, r.author);
    print!("{explanation}");
    // Drill into the first hidden-but-relevant event.
    let hidden = explanation
        .events
        .iter()
        .find(|&i| !explanation.is_visible(i));
    if let Some(hidden) = hidden {
        println!("\nwhy is hidden event #{hidden} part of the explanation?");
        let j = explanation.why(hidden).expect("member of the explanation");
        print!("{}", j.render(&r.run));
    }
}
