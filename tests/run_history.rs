//! Differential battery for the diff-backed run history: a `Run` stores
//! only its current instance and rebuilds a past one from its diffs on
//! first read. Every `instance(i)` and `pre_instance(i)`, read in a seeded
//! random order, must equal the last instance of `Run::replay` on the
//! matching event prefix: on a freshly built run, after pops and re-pushes,
//! on a clone taken with half the history cached, and when two threads
//! race to rebuild one cold position. Before each pass, every peer's
//! `visible_events` and `view` must equal a reference built from the same
//! prefix replays; those readers roll one instance through the diffs, so
//! they are checked on cold, half-cached and popped runs alike. The runs
//! are chaos `default_spec` walks and procurement streams.
//!
//! Subruns resume from the recorded history: `try_subrun(idx)` (and
//! `is_subrun`) must equal `Run::replay` of the indexed events from the
//! initial instance in every observable — length, events, diffs, every
//! instance, every peer view, last deltas, avoid-set, fresh watermark,
//! provenance plane and the failing index — for empty, full, prefix-only,
//! gapped and failing index sets, on fresh, popped and half-cached runs and
//! on runs with a non-empty initial instance. That resuming fills none of
//! the parent's history cells is checked where the cells are visible, in
//! `run.rs`'s unit tests.

use std::sync::Barrier;

use collab_workflows::core::is_subrun;
use collab_workflows::engine::chaos::default_spec;
use collab_workflows::engine::{EventView, ReplayError};
use collab_workflows::prelude::*;
use collab_workflows::workloads::{build_procurement_run, random_run};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A run under test: a `default_spec` walk of up to `size` steps
/// (`family` 0) or a procurement stream of `1 + size / 16` completed
/// cycles with up to two stalled requests each.
fn source_run(family: u8, seed: u64, size: usize) -> Run {
    if family == 0 {
        random_run(&default_spec(), size, seed)
    } else {
        let mut rng = StdRng::seed_from_u64(seed);
        build_procurement_run(1 + size / 16, size % 3, &mut rng).run
    }
}

/// `want[k]` is the last instance of `Run::replay` on the first `k` events
/// (the initial instance for `k = 0`). Replaying prefix `k + 1` is
/// replaying prefix `k` and pushing one more event, so one replay that
/// records its current instance after every push yields them all.
fn prefix_replays(run: &Run) -> Vec<Instance> {
    let mut replay = Run::with_initial(run.spec_arc(), run.initial().clone());
    let mut want = vec![replay.current().clone()];
    for e in run.events() {
        replay.push(e.clone()).expect("a recorded event replays");
        want.push(replay.current().clone());
    }
    want
}

/// One history read: `instance(i)` (`Post`) or `pre_instance(i)` (`Pre`).
#[derive(Clone, Copy, Debug)]
enum Read {
    Post(usize),
    Pre(usize),
}

impl Read {
    fn on(self, run: &Run) -> &Instance {
        match self {
            Read::Post(i) => run.instance(i),
            Read::Pre(i) => run.pre_instance(i),
        }
    }

    /// The prefix length whose replay the read must equal.
    fn prefix(self) -> usize {
        match self {
            Read::Post(i) => i + 1,
            Read::Pre(i) => i,
        }
    }
}

/// Every read of a run of `len` events: `instance(i)` for `i < len`,
/// `pre_instance(i)` for `i ≤ len`.
fn all_reads(len: usize) -> Vec<Read> {
    (0..len)
        .map(Read::Post)
        .chain((0..=len).map(Read::Pre))
        .collect()
}

/// Every peer's visible events and run view against a reference read from
/// the prefix replays: event `i` is visible at `p` when `p` performed it or
/// `want[i]@p ≠ want[i + 1]@p`, and its view step carries `want[i + 1]@p`.
fn check_views(run: &Run, want: &[Instance], what: &str) -> Result<(), TestCaseError> {
    let collab = run.spec().collab();
    for p in collab.peer_ids() {
        let views: Vec<_> = want.iter().map(|inst| collab.view_of(inst, p)).collect();
        let visible: Vec<usize> = (0..run.len())
            .filter(|&i| run.event(i).peer == p || views[i] != views[i + 1])
            .collect();
        prop_assert_eq!(
            run.visible_events(p),
            visible.clone(),
            "{}: visible events of {:?}",
            what,
            p
        );
        let got = run.view(p);
        prop_assert_eq!(got.steps.len(), visible.len(), "{}: view of {:?}", what, p);
        for (step, &i) in got.steps.iter().zip(&visible) {
            let event = if run.event(i).peer == p {
                EventView::Own(run.event(i).clone())
            } else {
                EventView::World
            };
            prop_assert!(
                step.index == i && step.event == event && step.view == views[i + 1],
                "{}: view step {} of {:?}",
                what,
                i,
                p
            );
        }
    }
    Ok(())
}

/// Checks the visibility readers, then reads every position of `run` in a
/// shuffled order and compares each with its prefix replay.
fn check_all(
    run: &Run,
    want: &[Instance],
    rng: &mut StdRng,
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(run.len() + 1, want.len(), "{}: run length", what);
    prop_assert!(run.current() == &want[run.len()], "{}: current", what);
    check_views(run, want, what)?;
    let mut reads = all_reads(run.len());
    reads.shuffle(rng);
    for r in reads {
        prop_assert!(
            r.on(run) == &want[r.prefix()],
            "{}: {:?} differs from the replay of its prefix",
            what,
            r
        );
    }
    Ok(())
}

/// Reads a random half of the past positions, leaving the rest cold.
fn warm_half(run: &Run, rng: &mut StdRng) {
    let mut reads = all_reads(run.len());
    reads.shuffle(rng);
    for r in reads.iter().take(reads.len() / 2) {
        r.on(run);
    }
}

/// Equal subrun results, compared observable by observable.
fn same_subrun(
    got: &Result<Run, ReplayError>,
    want: &Result<Run, ReplayError>,
    what: &str,
) -> Result<(), TestCaseError> {
    let (got, want) = match (got, want) {
        (Ok(got), Ok(want)) => (got, want),
        (Err(got), Err(want)) => {
            prop_assert_eq!(got, want, "{}: replay error", what);
            return Ok(());
        }
        _ => {
            return Err(TestCaseError::fail(format!(
                "{what}: one way replays, the other fails"
            )))
        }
    };
    prop_assert_eq!(got.len(), want.len(), "{}: length", what);
    prop_assert!(got.events() == want.events(), "{}: events", what);
    for i in 0..want.len() {
        prop_assert!(got.diff(i) == want.diff(i), "{}: diff {}", what, i);
        prop_assert!(
            got.instance(i) == want.instance(i),
            "{}: instance {}",
            what,
            i
        );
    }
    prop_assert!(got.current() == want.current(), "{}: current", what);
    for p in want.spec().collab().peer_ids() {
        prop_assert!(
            got.peer_view(p) == want.peer_view(p),
            "{}: view of {:?}",
            what,
            p
        );
        prop_assert!(got.view(p) == want.view(p), "{}: run view at {:?}", what, p);
    }
    prop_assert!(
        got.last_deltas() == want.last_deltas(),
        "{}: last deltas",
        what
    );
    prop_assert!(
        got.used_values() == want.used_values(),
        "{}: avoid-set",
        what
    );
    prop_assert_eq!(
        got.fresh_watermark(),
        want.fresh_watermark(),
        "{}: fresh watermark",
        what
    );
    prop_assert!(
        got.provenance() == want.provenance(),
        "{}: provenance plane",
        what
    );
    Ok(())
}

/// The index sets a subrun is taken on: empty, full, a prefix, gapped at
/// 0, gapped at the end, a prefix then a random tail, every "all but one"
/// set (the failing ones among them), and random subsets.
fn index_sets(n: usize, rng: &mut StdRng) -> Vec<Vec<usize>> {
    let mut sets = vec![
        Vec::new(),
        (0..n).collect(),
        (0..rng.gen_range(0..=n)).collect(),
        (1..n).collect(),
        (0..n.saturating_sub(1)).collect(),
    ];
    let k = rng.gen_range(0..=n);
    sets.push(
        (0..k)
            .chain((k + 1..n).filter(|_| rng.gen_bool(0.5)))
            .collect(),
    );
    for j in 0..n {
        sets.push((0..n).filter(|&i| i != j).collect());
    }
    for _ in 0..8 {
        sets.push((0..n).filter(|_| rng.gen_bool(0.6)).collect());
    }
    sets
}

/// `try_subrun` and `is_subrun` against `Run::replay` on every index set;
/// returns how many of the sets fail to replay.
fn check_subruns(run: &Run, rng: &mut StdRng, what: &str) -> Result<usize, TestCaseError> {
    let current = run.current().clone();
    let mut failing = 0;
    for idx in index_sets(run.len(), rng) {
        let want = Run::replay(
            run.spec_arc(),
            run.initial().clone(),
            idx.iter().map(|&i| run.event(i).clone()),
        );
        failing += usize::from(want.is_err());
        same_subrun(&run.try_subrun(&idx), &want, &format!("{what} {idx:?}"))?;
        let set = EventSet::from_iter(run.len(), idx.iter().copied());
        prop_assert_eq!(
            is_subrun(run, &set),
            want.is_ok(),
            "{}: is_subrun on {:?}",
            what,
            idx
        );
    }
    prop_assert!(
        run.current() == &current,
        "{}: the parent is read only",
        what
    );
    Ok(failing)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Subruns of fresh, popped and half-cached runs, and of a run over a
    /// non-empty initial instance, equal the replays of their events.
    #[test]
    fn subruns_equal_replays_of_their_events(
        family in 0u8..2,
        seed in 0u64..10_000,
        size in 4usize..40,
    ) {
        let mut run = source_run(family, seed, size);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5b5b);
        check_subruns(&run, &mut rng, "fresh")?;
        warm_half(&run, &mut rng);
        check_subruns(&run, &mut rng, "half cached")?;
        // The events after position `m`, replayed over `I_m`.
        let m = rng.gen_range(0..run.len());
        let rest = Run::replay(
            run.spec_arc(),
            run.instance(m).clone(),
            run.events()[m + 1..].iter().cloned(),
        )
        .expect("a suffix replays over its pre-instance");
        prop_assert!(!rest.initial().is_empty(), "the initial instance has facts");
        check_subruns(&rest, &mut rng, "non-empty initial")?;
        run.pop();
        prop_assert!(run.last_deltas().is_empty(), "a pop leaves no last deltas");
        check_subruns(&run, &mut rng, "popped")?;
    }
}

/// In both run families some index sets fail to replay, and those report
/// the replay's failing index and error (checked by `check_subruns`).
#[test]
fn failing_subruns_report_the_replay_error() {
    for family in 0..2 {
        let mut failing = 0;
        for seed in 0..6 {
            let run = source_run(family, seed, 24);
            let mut rng = StdRng::seed_from_u64(seed);
            failing += check_subruns(&run, &mut rng, "failing").expect("subruns equal replays");
        }
        assert!(
            failing > 0,
            "family {family}: some index sets fail to replay"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A freshly built run answers every read, in any order, with the
    /// replay of its prefix; a second pass reads back the cached cells.
    #[test]
    fn every_read_equals_the_prefix_replay(
        family in 0u8..2,
        seed in 0u64..10_000,
        size in 4usize..64,
    ) {
        let run = source_run(family, seed, size);
        let want = prefix_replays(&run);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4157);
        check_all(&run, &want, &mut rng, "cold")?;
        check_all(&run, &want, &mut rng, "cached")?;
    }

    /// Pops restore the current instance from the history (rebuilt when
    /// cold) and the avoid-set of the prefix; re-pushing the popped events
    /// restores the whole history.
    #[test]
    fn pop_then_repush_keeps_every_read(
        family in 0u8..2,
        seed in 0u64..10_000,
        size in 4usize..64,
        pops in 1usize..5,
        prov in 0u8..2,
    ) {
        let mut run = source_run(family, seed, size);
        if prov == 1 {
            run.enable_provenance();
        }
        let want = prefix_replays(&run);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x909);
        warm_half(&run, &mut rng);
        let mut popped = Vec::new();
        for _ in 0..pops.min(run.len()) {
            popped.push(run.pop().expect("the run has events"));
        }
        check_all(&run, &want[..=run.len()], &mut rng, "popped")?;
        let replay = Run::replay(
            run.spec_arc(),
            run.initial().clone(),
            run.events().iter().cloned(),
        )
        .expect("a prefix replays");
        prop_assert!(
            run.used_values() == replay.used_values(),
            "pop rebuilds the avoid-set of the prefix replay"
        );
        for e in popped.into_iter().rev() {
            run.push(e).expect("a popped event re-applies");
        }
        check_all(&run, &want, &mut rng, "re-pushed")?;
    }

    /// A clone taken with half the cells filled carries them over and fills
    /// the rest on its own, whatever happens to the original.
    #[test]
    fn clone_with_half_the_history_cached(
        family in 0u8..2,
        seed in 0u64..10_000,
        size in 4usize..64,
    ) {
        let mut run = source_run(family, seed, size);
        let want = prefix_replays(&run);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc10e);
        warm_half(&run, &mut rng);
        let copy = run.clone();
        run.pop();
        check_all(&copy, &want, &mut rng, "clone")?;
        check_all(&run, &want[..want.len() - 1], &mut rng, "original after pop")?;
    }

    /// Two threads reading one cold position at once get the same cached
    /// instance, equal to the prefix replay.
    #[test]
    fn racing_reads_of_a_cold_position_agree(
        family in 0u8..2,
        seed in 0u64..10_000,
        size in 4usize..64,
        pick in 0usize..1_000,
    ) {
        let run = source_run(family, seed, size);
        prop_assert!(run.len() >= 2, "a race needs a past position");
        let want = prefix_replays(&run);
        let at = pick % (run.len() - 1);
        let barrier = Barrier::new(2);
        let (a, b) = std::thread::scope(|s| {
            let read = || {
                barrier.wait();
                run.instance(at)
            };
            let a = s.spawn(read);
            let b = s.spawn(read);
            (a.join().expect("reader a"), b.join().expect("reader b"))
        });
        prop_assert!(std::ptr::eq(a, b), "both readers see one cached cell");
        prop_assert!(a == &want[at + 1], "the raced cell equals the replay");
        let mut rng = StdRng::seed_from_u64(seed);
        check_all(&run, &want, &mut rng, "after the race")?;
    }
}

/// The procurement stream of the `live-explain` benchmark, provenance on:
/// the full-size history agrees with the replay read front to back and
/// back to front.
#[test]
fn procurement_benchmark_stream_history() {
    let built = build_procurement_run(60, 3, &mut StdRng::seed_from_u64(1));
    let mut run = Run::new(built.run.spec_arc());
    run.enable_provenance();
    for e in built.run.events() {
        run.push(e.clone()).expect("the stream replays");
    }
    let want = prefix_replays(&run);
    for i in (0..run.len()).rev().step_by(97) {
        assert!(run.instance(i) == &want[i + 1], "backward read {i}");
    }
    for r in all_reads(run.len()) {
        assert!(r.on(&run) == &want[r.prefix()], "{r:?}");
    }
}
