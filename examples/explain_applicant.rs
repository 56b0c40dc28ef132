//! Example 4.2 of the paper: misleading scenarios vs faithful explanations.
//!
//! The cto oks the application, then *retracts* the ok; the ceo oks it
//! independently; the assistant approves based on the standing ok. The
//! applicant — who sees only `Approval` — deserves an explanation that does
//! not pretend the cto's retracted ok justified the approval.
//!
//! ```sh
//! cargo run --example explain_applicant
//! ```

use collab_workflows::core::{
    all_minimal_scenarios, is_scenario, minimal_faithful_scenario, search_min_scenario, EventSet,
    SearchOptions,
};
use collab_workflows::prelude::*;
use collab_workflows::workloads::applicant_run;

fn main() {
    let run = applicant_run();
    let spec = run.spec();
    let applicant = spec.collab().peer("applicant").unwrap();

    println!("=== the global run (events e f g h of Example 4.2) ===");
    println!("{run:?}");

    // The applicant observed a single transition: the approval.
    let view = run.view(applicant);
    println!("the applicant observed {} transition(s)\n", view.len());

    // The subrun "e h" — cto oks, assistant approves — is a *scenario*:
    // observationally equivalent for the applicant…
    let misleading = EventSet::from_iter(run.len(), [0, 3]);
    println!(
        "subrun [e, h] is a scenario for the applicant: {}",
        is_scenario(&run, applicant, &misleading)
    );
    // …and it is even a minimum one.
    let res = search_min_scenario(
        &run,
        applicant,
        &SearchOptions::default(),
        &Governor::unlimited(),
    );
    let minimum = res.found().unwrap();
    println!(
        "a minimum scenario has {} events — but it can mislead: it may claim \
         the cto's (later retracted!) ok justified the approval",
        minimum.len()
    );

    // Worse: minimal scenarios are not even unique — both [e, h] and [g, h]
    // are minimal, so "the" minimal-scenario explanation is ill-defined.
    let all = all_minimal_scenarios(&run, applicant, 10, &Governor::unlimited())
        .into_value()
        .unwrap();
    println!("\nthis run has {} distinct minimal scenarios:", all.len());
    for s in &all {
        println!("  {:?}", s.to_vec());
    }

    // Faithfulness repairs this: the unique minimal faithful scenario
    // (Theorem 4.7) must respect object lifecycles, so the retracted ok
    // (whose lifecycle closed before the approval) cannot serve as the
    // explanation — g (the ceo's ok) and h remain.
    let faithful = minimal_faithful_scenario(&run, applicant);
    println!(
        "\nthe minimal FAITHFUL scenario keeps events {:?}:",
        faithful.events.to_vec()
    );
    print!("{faithful}");
    println!("\n(g = the ceo's ok — the actual cause — and h = the approval)");
}
