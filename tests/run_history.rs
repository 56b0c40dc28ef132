//! Differential battery for the diff-backed run history: a `Run` stores
//! only its current instance and rebuilds a past one from its diffs on
//! first read. Every `instance(i)` and `pre_instance(i)`, read in a seeded
//! random order, must equal the last instance of `Run::replay` on the
//! matching event prefix: on a freshly built run, after pops and re-pushes,
//! on a clone taken with half the history cached, and when two threads
//! race to rebuild one cold position. The runs are chaos `default_spec`
//! walks and procurement streams.

use std::sync::Barrier;

use collab_workflows::engine::chaos::default_spec;
use collab_workflows::prelude::*;
use collab_workflows::workloads::{build_procurement_run, random_run};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

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

/// Reads every position of `run` in a shuffled order and compares each
/// with its prefix replay.
fn check_all(
    run: &Run,
    want: &[Instance],
    rng: &mut StdRng,
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(run.len() + 1, want.len(), "{}: run length", what);
    prop_assert!(run.current() == &want[run.len()], "{}: current", what);
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
