//! Exact scenario search (Theorem 3.3) pinned two ways.
//!
//! * **Golden answers.** Every search mode — cone on and off, pooled at 2
//!   and 4 threads, the decision variant either side of the minimum, the
//!   first-found search capped at the minimum, and the exact minimality
//!   test of the minimal faithful scenario, which must replay into a
//!   scenario (Lemma 4.6) — over the `explain-batch`
//!   corpus shapes and 80 random workflows, for every peer. Pruning
//!   changes how many nodes a search visits, never what it answers, so the
//!   printout must stay byte-identical to `tests/golden/min_scenarios.txt`.
//!   Regenerate with `CWF_BLESS=1 cargo test --release --test
//!   scenario_search golden` only after auditing the diff.
//! * **Brute-force oracle.** On runs of at most 12 events, enumerate every
//!   subsequence in the search's exclude-first order and keep the first of
//!   minimum length. The sequential, pooled and decision-mode searches must
//!   agree with it exactly.
//! * **Brute-force Thm 3.4 oracle.** On the same runs, a set is minimal
//!   exactly when it is a scenario and none of its strict subsequences is
//!   one, found by enumerating subsets. The exact minimality test must
//!   agree on the whole run, the minimal faithful set and the brute-force
//!   minimum.

mod common;

use std::fmt::Write as _;

use proptest::prelude::*;

use collab_workflows::core::{
    exists_scenario_at_most_pooled, is_minimal_exact, is_scenario, minimal_faithful_scenario,
    search_min_scenario_pooled, EventSet, SearchOptions,
};
use collab_workflows::engine::Run;
use collab_workflows::model::{Governor, PeerId, Pool, Verdict};
use collab_workflows::workloads::{
    chaos_workload, random_propositional_spec, random_run, RandomSpecParams,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Node budget of every golden search. All of them complete well inside
/// it; a cut-off search fails the test instead of printing a verdict whose
/// witness depends on where the budget ran out.
const GOLDEN_BUDGET: u64 = 50_000_000;

/// Random propositional workflows from the chaos generator.
fn random_corpus() -> Vec<(String, Run)> {
    (0..80u64)
        .map(|seed| {
            let w = chaos_workload(seed);
            (format!("random-{seed}"), random_run(&w.spec, 16, seed))
        })
        .collect()
}

/// A completed verdict, printed; anything else fails the test.
fn done<T>(what: &str, v: Verdict<T>) -> T
where
    T: std::fmt::Debug,
{
    match v {
        Verdict::Done(x) => x,
        other => panic!("{what}: the golden searches must complete, got {other:?}"),
    }
}

fn show(set: &Option<EventSet>) -> String {
    match set {
        Some(s) => format!("{:?}", s.to_vec()),
        None => "none".to_string(),
    }
}

/// Every search mode on one (run, peer) pair, one line each.
fn golden_pair(out: &mut String, name: &str, run: &Run, peer: PeerId) {
    let gov = || Governor::with_nodes(GOLDEN_BUDGET);
    let what = format!("{name} @ {}", run.spec().collab().peer_name(peer));
    let _ = writeln!(out, "{what} ({} events)", run.len());
    let seq = Pool::sequential();
    let cone = done(
        &what,
        search_min_scenario_pooled(run, peer, &SearchOptions::default(), &gov(), &seq),
    );
    let no_cone = SearchOptions {
        no_cone: true,
        ..Default::default()
    };
    let full = done(
        &what,
        search_min_scenario_pooled(run, peer, &no_cone, &gov(), &seq),
    );
    let _ = writeln!(out, "  min cone      {}", show(&cone));
    let _ = writeln!(out, "  min no-cone   {}", show(&full));
    for threads in [2, 4] {
        let pooled = done(
            &what,
            search_min_scenario_pooled(
                run,
                peer,
                &SearchOptions::default(),
                &gov(),
                &Pool::with_threads(threads),
            ),
        );
        let _ = writeln!(out, "  pooled {threads}      {}", show(&pooled));
    }
    let m = cone.as_ref().expect("a run is its own scenario").len();
    for n in m.saturating_sub(1)..=m {
        let exists = done(
            &what,
            exists_scenario_at_most_pooled(run, peer, n, &gov(), &seq),
        );
        let _ = writeln!(out, "  exists <= {n:<3} {exists}");
    }
    let first_opts = SearchOptions {
        max_len: Some(m),
        first_found: true,
        ..Default::default()
    };
    let first = done(
        &what,
        search_min_scenario_pooled(run, peer, &first_opts, &gov(), &seq),
    );
    let _ = writeln!(out, "  first <= {m:<4} {}", show(&first));
    let faithful = minimal_faithful_scenario(run, peer).events;
    // Lemma 4.6 in release builds: the faithful set replays, and its
    // replay is a scenario.
    assert!(
        is_scenario(run, peer, &faithful),
        "{what}: the minimal faithful set {:?} is not a scenario",
        faithful.to_vec()
    );
    let minimal = done(&what, is_minimal_exact(run, peer, &faithful, &gov()));
    let _ = writeln!(
        out,
        "  faithful      {:?} minimal {minimal}",
        faithful.to_vec()
    );
}

#[test]
fn golden_min_scenarios_match_the_checked_in_file() {
    let mut printout = String::new();
    for (name, run) in common::batch_corpus().into_iter().chain(random_corpus()) {
        for peer in run.spec().collab().peer_ids() {
            golden_pair(&mut printout, &name, &run, peer);
        }
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/min_scenarios.txt"
    );
    if std::env::var_os("CWF_BLESS").is_some() {
        std::fs::write(path, &printout).unwrap();
    }
    let golden = std::fs::read_to_string(path).unwrap();
    assert!(
        printout == golden,
        "scenario-search answers drifted from the checked-in golden file"
    );
}

/// The search tree, not only its answers: the sequential governor's node
/// count per (run, peer), cone on and off. A change to how the search steps
/// its state must visit exactly the same nodes, so the printout must stay
/// byte-identical to `tests/golden/search_nodes.txt` (same `CWF_BLESS=1`
/// convention, for changes meant to prune differently).
#[test]
fn golden_search_nodes_match_the_checked_in_file() {
    let mut printout = String::new();
    for (name, run) in common::batch_corpus().into_iter().chain(random_corpus()) {
        for peer in run.spec().collab().peer_ids() {
            let mut nodes = [0; 2];
            for (n, no_cone) in nodes.iter_mut().zip([false, true]) {
                let gov = Governor::with_nodes(GOLDEN_BUDGET);
                let opts = SearchOptions {
                    no_cone,
                    ..Default::default()
                };
                let v = search_min_scenario_pooled(&run, peer, &opts, &gov, &Pool::sequential());
                assert!(v.is_done(), "{name}: the golden searches must complete");
                *n = gov.nodes_used();
            }
            let _ = writeln!(
                printout,
                "{name} @ {}: cone {} no-cone {}",
                run.spec().collab().peer_name(peer),
                nodes[0],
                nodes[1]
            );
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/search_nodes.txt");
    if std::env::var_os("CWF_BLESS").is_some() {
        std::fs::write(path, &printout).unwrap();
    }
    let golden = std::fs::read_to_string(path).unwrap();
    assert!(
        printout == golden,
        "scenario-search node counts drifted from the checked-in golden file"
    );
}

/// Theorem 3.3 by exhaustion: every subsequence of `run`, visited in the
/// search's exclude-first order (position 0 excluded before included, then
/// position 1, …), and the first scenario of minimum length. That order is
/// the numeric order of masks whose most significant bit is position 0.
fn brute_force_min(run: &Run, peer: PeerId) -> Option<EventSet> {
    let n = run.len();
    assert!(n <= 12, "the oracle enumerates 2^n subsequences");
    let mut best: Option<EventSet> = None;
    for mask in 0u32..(1 << n) {
        let set = EventSet::from_iter(n, (0..n).filter(|i| mask & (1 << (n - 1 - i)) != 0));
        if best.as_ref().is_some_and(|b| set.len() >= b.len()) {
            continue;
        }
        if is_scenario(run, peer, &set) {
            best = Some(set);
        }
    }
    best
}

/// Theorem 3.4 by exhaustion: `scenarios[mask]` says whether the positions
/// of `mask` (bit `i` for position `i`) form a scenario, and a set is
/// minimal when it is a scenario and no strict submask of it is one.
fn brute_force_minimal(scenarios: &[bool], set: &EventSet) -> bool {
    let mask = set.iter().fold(0usize, |m, i| m | 1 << i);
    if !scenarios[mask] {
        return false;
    }
    let mut sub = mask;
    while sub != 0 {
        sub = (sub - 1) & mask;
        if scenarios[sub] {
            return false;
        }
    }
    true
}

/// A random propositional run of at most `steps` events.
fn small_random_run(gen_seed: u64, run_seed: u64, steps: usize) -> Run {
    let mut rng = StdRng::seed_from_u64(gen_seed);
    let w = random_propositional_spec(&RandomSpecParams::default(), &mut rng);
    random_run(&w.spec, steps, run_seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The sequential, pooled and decision-mode searches agree with the
    /// brute-force oracle on random runs of at most 12 events, for every
    /// peer.
    #[test]
    fn searches_match_the_brute_force_oracle(
        gen_seed in 0u64..1_000, run_seed in 0u64..1_000, steps in 1usize..13
    ) {
        let run = small_random_run(gen_seed, run_seed, steps);
        for peer in run.spec().collab().peer_ids() {
            let oracle = brute_force_min(&run, peer);
            let m = oracle.as_ref().expect("a run is its own scenario").len();
            let opts = SearchOptions::default();
            for pool in [Pool::sequential(), Pool::with_threads(2), Pool::with_threads(4)] {
                let found = search_min_scenario_pooled(
                    &run, peer, &opts, &Governor::unlimited(), &pool);
                prop_assert_eq!(&found, &Verdict::Done(oracle.clone()));
            }
            let no_cone = SearchOptions { no_cone: true, ..Default::default() };
            let found = search_min_scenario_pooled(
                &run, peer, &no_cone, &Governor::unlimited(), &Pool::sequential());
            prop_assert_eq!(&found, &Verdict::Done(oracle.clone()));
            // Decision mode: the first scenario of at most m events in
            // exclude-first order is the oracle's first minimum, and
            // nothing shorter exists.
            let first = SearchOptions { max_len: Some(m), first_found: true, ..Default::default() };
            let found = search_min_scenario_pooled(
                &run, peer, &first, &Governor::unlimited(), &Pool::sequential());
            prop_assert_eq!(&found, &Verdict::Done(oracle.clone()));
            if m > 0 {
                let shorter = exists_scenario_at_most_pooled(
                    &run, peer, m - 1, &Governor::unlimited(), &Pool::sequential());
                prop_assert_eq!(shorter, Verdict::Done(false));
            }
        }
    }

    /// The exact minimality test (the restricted, decision-mode search on
    /// the global pool) agrees with the brute-force Thm 3.4 oracle on the
    /// whole run, the minimal faithful set and the brute-force minimum of
    /// random runs of at most 12 events, for every peer.
    #[test]
    fn minimality_matches_the_brute_force_oracle(
        gen_seed in 0u64..1_000, run_seed in 0u64..1_000, steps in 1usize..13
    ) {
        let run = small_random_run(gen_seed, run_seed, steps);
        let n = run.len();
        for peer in run.spec().collab().peer_ids() {
            let scenarios: Vec<bool> = (0usize..1 << n)
                .map(|mask| {
                    let set = EventSet::from_iter(n, (0..n).filter(|i| mask & 1 << i != 0));
                    is_scenario(&run, peer, &set)
                })
                .collect();
            let minimum = brute_force_min(&run, peer).expect("a run is its own scenario");
            let faithful = minimal_faithful_scenario(&run, peer).events;
            for set in [EventSet::full(n), faithful, minimum] {
                let exact = is_minimal_exact(&run, peer, &set, &Governor::unlimited());
                prop_assert_eq!(
                    exact,
                    Verdict::Done(brute_force_minimal(&scenarios, &set)),
                    "{:?}",
                    set.to_vec()
                );
            }
        }
    }
}
