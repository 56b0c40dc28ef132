//! Minimal scenarios: greedy extraction and the exact (coNP-hard) minimality
//! test (Theorem 3.4).
//!
//! A scenario is *minimal* when no strict subsequence of it is a scenario.
//! Testing minimality is coNP-complete, so the exact test
//! ([`is_minimal_exact`]) delegates to the exponential search of
//! [`crate::minimum`] restricted to strict subsequences. The greedy
//! [`shrink_to_one_minimal`] removes events one at a time until no single
//! removal preserves the scenario property — this yields a *1-minimal*
//! scenario in polynomial time (the paper's greedy procedure for the
//! Hitting-Set runs), which need not be minimal in general.

use std::sync::atomic::{AtomicUsize, Ordering};

use cwf_engine::Run;
use cwf_model::{Bound, Governor, PeerId, Pool, Reason, Verdict};

use crate::facts::facts;
use crate::minimum::{search_min_scenario, SearchOptions};
use crate::scenario::is_scenario;
use crate::set::EventSet;

/// Runs with fewer events than this (i.e. fewer than 2^10 candidate masks)
/// enumerate sequentially even under a multi-worker pool.
const PAR_MIN_MASK_BITS: usize = 10;

/// Greedily shrinks `start` (which must be a scenario of `run` at `peer`)
/// by single-event removals until 1-minimal. Removal candidates are tried
/// from the latest event backwards.
///
/// # Panics
///
/// Panics (debug assertion) if `start` is not a scenario.
pub(crate) fn shrink_to_one_minimal(run: &Run, peer: PeerId, start: &EventSet) -> EventSet {
    debug_assert!(is_scenario(run, peer, start), "start must be a scenario");
    let mut current = start.clone();
    loop {
        let mut shrunk = false;
        for i in current.to_vec().into_iter().rev() {
            let mut candidate = current.clone();
            candidate.remove(i);
            if is_scenario(run, peer, &candidate) {
                current = candidate;
                shrunk = true;
            }
        }
        if !shrunk {
            return current;
        }
    }
}

/// Greedy minimal scenario of the full run (starting from all events).
pub fn one_minimal_scenario(run: &Run, peer: PeerId) -> EventSet {
    shrink_to_one_minimal(run, peer, &EventSet::full(run.len()))
}

/// Is `candidate` 1-minimal: a scenario none of whose single-event removals
/// is a scenario? (Polynomial.)
pub fn is_one_minimal(run: &Run, peer: PeerId, candidate: &EventSet) -> bool {
    if !is_scenario(run, peer, candidate) {
        return false;
    }
    for i in candidate.iter() {
        let mut c = candidate.clone();
        c.remove(i);
        if is_scenario(run, peer, &c) {
            return false;
        }
    }
    true
}

/// Exact minimality (Definition 3.2): no strict subsequence of `candidate`
/// is a scenario. coNP-hard, so the test is governed: `Exhausted` when `gov`
/// cuts the underlying search off before either a strict-subsequence
/// scenario (a witness of non-minimality) or an exhaustive refutation is
/// found.
pub fn is_minimal_exact(
    run: &Run,
    peer: PeerId,
    candidate: &EventSet,
    gov: &Governor,
) -> Verdict<bool> {
    gov.guard(|| {
        if !is_scenario(run, peer, candidate) {
            return Verdict::Done(false);
        }
        if candidate.is_empty() {
            return Verdict::Done(true);
        }
        let opts = SearchOptions {
            allowed: Some(candidate.clone()),
            max_len: Some(candidate.len() - 1),
            first_found: true,
            ..Default::default()
        };
        match search_min_scenario(run, peer, &opts, gov) {
            // Any strict-subsequence scenario — even one found after a
            // cutoff — is a definitive witness of non-minimality.
            Verdict::Done(Some(_)) | Verdict::Anytime(Some(_), _) => Verdict::Done(false),
            Verdict::Done(None) => Verdict::Done(true),
            Verdict::Anytime(None, b) => Verdict::Exhausted(b.reason),
            Verdict::Exhausted(reason) => Verdict::Exhausted(reason),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwf_engine::{Bindings, Event};
    use cwf_lang::parse_workflow;
    use std::sync::Arc;

    fn hitting_run(extra_b: bool) -> Run {
        let spec = Arc::new(
            parse_workflow(
                r#"
                schema { V1(K); V2(K); C1(K); OK(K); }
                peers {
                    q sees V1(*), V2(*), C1(*), OK(*);
                    p sees OK(*);
                }
                rules {
                    a1 @ q: +V1(0) :- ;
                    a2 @ q: +V2(0) :- ;
                    b1 @ q: +C1(0) :- V1(0);
                    b2 @ q: +C1(0) :- V2(0);
                    ok @ q: +OK(0) :- C1(0);
                }
                "#,
            )
            .unwrap(),
        );
        let mut run = Run::new(Arc::clone(&spec));
        let names: &[&str] = if extra_b {
            &["a1", "a2", "b1", "b2", "ok"]
        } else {
            &["a1", "b1", "ok"]
        };
        for n in names {
            let rid = spec.program().rule_by_name(n).unwrap();
            run.push(Event::new(&spec, rid, Bindings::empty(0)).unwrap())
                .unwrap();
        }
        run
    }

    #[test]
    fn greedy_shrinks_to_a_scenario() {
        let run = hitting_run(true);
        let p = run.spec().collab().peer("p").unwrap();
        let minimal = one_minimal_scenario(&run, p);
        assert!(is_scenario(&run, p, &minimal));
        assert!(is_one_minimal(&run, p, &minimal));
        // From 5 events down to 3: one (a), one (b), ok.
        assert_eq!(minimal.len(), 3);
    }

    #[test]
    fn greedy_result_is_exactly_minimal_here() {
        let run = hitting_run(true);
        let p = run.spec().collab().peer("p").unwrap();
        let minimal = one_minimal_scenario(&run, p);
        assert_eq!(
            is_minimal_exact(&run, p, &minimal, &Governor::unlimited()),
            Verdict::Done(true)
        );
    }

    #[test]
    fn full_run_is_not_minimal_when_redundant() {
        let run = hitting_run(true);
        let p = run.spec().collab().peer("p").unwrap();
        let full = EventSet::full(run.len());
        assert_eq!(
            is_minimal_exact(&run, p, &full, &Governor::unlimited()),
            Verdict::Done(false)
        );
        assert!(!is_one_minimal(&run, p, &full));
    }

    #[test]
    fn tight_run_is_minimal() {
        let run = hitting_run(false);
        let p = run.spec().collab().peer("p").unwrap();
        let full = EventSet::full(run.len());
        assert_eq!(
            is_minimal_exact(&run, p, &full, &Governor::unlimited()),
            Verdict::Done(true)
        );
        assert!(is_one_minimal(&run, p, &full));
    }

    #[test]
    fn non_scenarios_are_not_minimal() {
        let run = hitting_run(false);
        let p = run.spec().collab().peer("p").unwrap();
        let not_scenario = EventSet::from_iter(run.len(), [0]);
        assert_eq!(
            is_minimal_exact(&run, p, &not_scenario, &Governor::with_nodes(1_000)),
            Verdict::Done(false)
        );
        assert!(!is_one_minimal(&run, p, &not_scenario));
    }

    #[test]
    fn budget_exhaustion_returns_unknown() {
        let run = hitting_run(true);
        let p = run.spec().collab().peer("p").unwrap();
        let full = EventSet::full(run.len());
        assert_eq!(
            is_minimal_exact(&run, p, &full, &Governor::with_nodes(1)),
            Verdict::Exhausted(Reason::Nodes)
        );
    }

    #[test]
    fn empty_candidate_on_empty_view() {
        // A run invisible to p: the empty subsequence is its minimal scenario.
        let spec = Arc::new(
            parse_workflow(
                r#"
                schema { A(K); OK(K); }
                peers { q sees A(*), OK(*); p sees OK(*); }
                rules { a @ q: +A(0) :- ; }
                "#,
            )
            .unwrap(),
        );
        let mut run = Run::new(Arc::clone(&spec));
        let rid = spec.program().rule_by_name("a").unwrap();
        run.push(Event::new(&spec, rid, Bindings::empty(0)).unwrap())
            .unwrap();
        let p = spec.collab().peer("p").unwrap();
        let empty = EventSet::empty(run.len());
        assert!(is_scenario(&run, p, &empty));
        assert_eq!(
            is_minimal_exact(&run, p, &empty, &Governor::with_nodes(1_000)),
            Verdict::Done(true)
        );
        assert_eq!(one_minimal_scenario(&run, p), empty);
    }
}

/// Enumerates **all** minimal scenarios of `run` at `peer`, up to `max`
/// results (exponential in general — minimal scenarios are not unique,
/// which is precisely the paper's motivation for faithfulness).
///
/// Governed: each candidate mask costs one governor tick. On a cutoff the
/// verdict is `Anytime(partial, bound)` where `partial` holds the minimal
/// scenarios confirmed so far — sound, because a strict subset always has a
/// numerically smaller mask and is therefore enumerated first — and
/// `bound.lower` counts them.
pub fn all_minimal_scenarios(
    run: &Run,
    peer: PeerId,
    max: usize,
    gov: &Governor,
) -> Verdict<Vec<EventSet>> {
    all_minimal_scenarios_pooled(run, peer, max, gov, Pool::global())
}

/// [`all_minimal_scenarios`] on an explicit [`Pool`].
///
/// With more than one worker the 2^n mask space is cut into contiguous
/// ranges enumerated concurrently. Workers prune against their **local**
/// finds only (still sound: a pruned mask has a strict-subset scenario, so
/// it cannot be minimal), and the merged chunk results — concatenated in
/// chunk order, i.e. global mask order — pass through the same exact
/// minimality filter as the sequential sweep. Both paths therefore emit
/// exactly the minimal scenarios in mask order: byte-identical output on
/// every completed enumeration. On a governor cutoff only the chunks before
/// (and the partial finds of) the first cut-off chunk contribute, keeping
/// the anytime answer's "strict subsets were enumerated first" soundness
/// argument intact; the runaway `max * 8` guard counts finds across all
/// workers and so may trip slightly earlier than sequentially.
pub fn all_minimal_scenarios_pooled(
    run: &Run,
    peer: PeerId,
    max: usize,
    gov: &Governor,
    pool: &Pool,
) -> Verdict<Vec<EventSet>> {
    all_minimal_impl(run, peer, max, gov, pool, true)
}

/// [`all_minimal_scenarios_pooled`] with cone pruning disabled: the raw
/// `2^n` sweep over every event subset. Same answers on every completed
/// enumeration — this is the reference the differential battery compares
/// the pruned sweep against, and the honest baseline for benchmarks.
pub fn all_minimal_scenarios_unpruned(
    run: &Run,
    peer: PeerId,
    max: usize,
    gov: &Governor,
    pool: &Pool,
) -> Verdict<Vec<EventSet>> {
    all_minimal_impl(run, peer, max, gov, pool, false)
}

fn all_minimal_impl(
    run: &Run,
    peer: PeerId,
    max: usize,
    gov: &Governor,
    pool: &Pool,
    use_cone: bool,
) -> Verdict<Vec<EventSet>> {
    gov.guard(|| {
        // Collect scenarios by exhaustive mask enumeration, then filter to
        // the minimal ones (no strict subsequence among the collected set is
        // also a scenario). Masks range over subsets of the provenance cone
        // (every minimal scenario lies inside it, see [`crate::cone`]), so
        // the sweep costs 2^|cone| instead of 2^n.
        let n = run.len();
        let cone: Vec<usize> = if use_cone {
            facts(run).cone(peer).to_vec()
        } else {
            (0..n).collect()
        };
        if cone.len() > 24 {
            // 2^|cone| enumeration is the point here; keep it honest. The
            // result set (and the masks) would not fit any sane memory
            // account.
            return Verdict::Exhausted(Reason::SizeCap);
        }
        let bits = cone.len();
        let (scenarios, stopped) = if pool.is_sequential() || bits < PAR_MIN_MASK_BITS {
            collect_scenarios_range(run, peer, &cone, 0, 1u64 << bits, gov, max, None)
        } else {
            collect_scenarios_parallel(run, peer, &cone, gov, max, pool)
        };
        // Masks are enumerated in increasing numeric order, not subset
        // order, so finish with an exact minimality filter.
        let mut minimal: Vec<EventSet> = Vec::new();
        for s in &scenarios {
            if !scenarios.iter().any(|o| o.is_strict_subset(s)) {
                minimal.push(s.clone());
            }
        }
        minimal.truncate(max);
        match stopped {
            None => Verdict::Done(minimal),
            Some(reason) => {
                let found = minimal.len() as u64;
                Verdict::Anytime(
                    minimal,
                    Bound {
                        reason,
                        lower: Some(found),
                        upper: None,
                    },
                )
            }
        }
    })
}

/// Enumerates the masks in `[lo, hi)` in increasing order — bit `b` of a
/// mask selects position `cone[b]`, so compact-mask order equals the
/// expanded global mask order (bit expansion into fixed ascending positions
/// is monotone) — collecting every scenario that has no strict subset among
/// the scenarios already collected *by this call*. `found` (when running as
/// a pool worker) is the cross-worker find counter backing the runaway
/// guard.
#[allow(clippy::too_many_arguments)]
fn collect_scenarios_range(
    run: &Run,
    peer: PeerId,
    cone: &[usize],
    lo: u64,
    hi: u64,
    gov: &Governor,
    max: usize,
    found: Option<&AtomicUsize>,
) -> (Vec<EventSet>, Option<Reason>) {
    let n = run.len();
    let mut scenarios: Vec<EventSet> = Vec::new();
    let mut stopped = None;
    for mask in lo..hi {
        if let Err(reason) = gov.tick() {
            stopped = Some(reason);
            break;
        }
        let set = EventSet::from_iter(
            n,
            cone.iter()
                .enumerate()
                .filter(|(b, _)| mask & (1 << *b) != 0)
                .map(|(_, &i)| i),
        );
        // Cheap pruning: a superset of a known minimal scenario with
        // extra events may still be a non-minimal scenario — skip replay
        // when a known scenario is a strict subset (it cannot be
        // minimal).
        if scenarios.iter().any(|s| s.is_strict_subset(&set)) {
            continue;
        }
        if is_scenario(run, peer, &set) {
            scenarios.push(set);
            let total = match found {
                Some(counter) => counter.fetch_add(1, Ordering::Relaxed) + 1,
                None => scenarios.len(),
            };
            if total > max * 8 {
                stopped = Some(Reason::SizeCap); // runaway; raise `max`
                break;
            }
        }
    }
    (scenarios, stopped)
}

/// Fans the mask space out over the pool in contiguous chunks and merges
/// the per-chunk finds back into global mask order.
fn collect_scenarios_parallel(
    run: &Run,
    peer: PeerId,
    cone: &[usize],
    gov: &Governor,
    max: usize,
    pool: &Pool,
) -> (Vec<EventSet>, Option<Reason>) {
    let total = 1u64 << cone.len();
    let chunks = ((pool.threads() * 8) as u64).min(total);
    let found = AtomicUsize::new(0);
    let bounds: Vec<(u64, u64)> = (0..chunks)
        .map(|c| (total * c / chunks, total * (c + 1) / chunks))
        .collect();
    let outs = pool.run(bounds, |_, (lo, hi)| {
        collect_scenarios_range(run, peer, cone, lo, hi, gov, max, Some(&found))
    });
    let mut scenarios: Vec<EventSet> = Vec::new();
    let mut stopped = None;
    for (part, stop) in outs {
        scenarios.extend(part);
        if let Some(reason) = stop {
            // Chunks after the first cut-off one may well have completed,
            // but the anytime answer is only sound over a contiguous prefix
            // of the mask order — drop them.
            stopped = Some(reason);
            break;
        }
    }
    debug_assert!(
        scenarios
            .windows(2)
            .all(|w| crate::scenario::mask_order(&w[0], &w[1]) == std::cmp::Ordering::Less),
        "chunk-order concatenation must equal global mask order"
    );
    (scenarios, stopped)
}

#[cfg(test)]
mod enumeration_tests {
    use super::*;
    use cwf_engine::{Bindings, Event};
    use cwf_lang::parse_workflow;
    use std::sync::Arc;

    /// Two interchangeable derivations of C1: two distinct minimal
    /// scenarios exist — non-uniqueness in action.
    #[test]
    fn minimal_scenarios_are_not_unique() {
        let spec = Arc::new(
            parse_workflow(
                r#"
                schema { V1(K); V2(K); C1(K); OK(K); }
                peers {
                    q sees V1(*), V2(*), C1(*), OK(*);
                    p sees OK(*);
                }
                rules {
                    a1 @ q: +V1(0) :- ;
                    a2 @ q: +V2(0) :- ;
                    b1 @ q: +C1(0) :- V1(0);
                    b2 @ q: +C1(0) :- V2(0);
                    ok @ q: +OK(0) :- C1(0);
                }
                "#,
            )
            .unwrap(),
        );
        let mut run = cwf_engine::Run::new(Arc::clone(&spec));
        for n in ["a1", "a2", "b1", "b2", "ok"] {
            let rid = spec.program().rule_by_name(n).unwrap();
            run.push(Event::new(&spec, rid, Bindings::empty(0)).unwrap())
                .unwrap();
        }
        let p = spec.collab().peer("p").unwrap();
        let minimal = all_minimal_scenarios(&run, p, 10, &Governor::unlimited())
            .into_value()
            .unwrap();
        // {a1, b1, ok} and {a2, b2, ok} are both minimal.
        assert!(minimal.len() >= 2, "got {minimal:?}");
        assert!(minimal.contains(&EventSet::from_iter(5, [0, 2, 4])));
        assert!(minimal.contains(&EventSet::from_iter(5, [1, 3, 4])));
        // All results are scenarios and pairwise incomparable.
        for s in &minimal {
            assert!(crate::scenario::is_scenario(&run, p, s));
            for o in &minimal {
                assert!(s == o || !s.is_strict_subset(o));
            }
        }
        // By contrast, the minimal FAITHFUL scenario is unique (Thm 4.7) and
        // contains both derivations (each C1 writer is boundary-relevant
        // only if used… here the closure keeps what the visible event
        // depends on).
        let faithful = crate::explain::minimal_faithful_scenario(&run, p);
        assert!(crate::scenario::is_scenario(&run, p, &faithful.events));
    }

    #[test]
    fn budget_and_size_guards() {
        let spec = Arc::new(
            parse_workflow(
                "schema { T(K); } peers { p sees T(*); } rules { r @ p: +T(0) :- not key T(0); }",
            )
            .unwrap(),
        );
        let mut run = cwf_engine::Run::new(Arc::clone(&spec));
        let rid = spec.program().rule_by_name("r").unwrap();
        run.push(Event::new(&spec, rid, Bindings::empty(0)).unwrap())
            .unwrap();
        let p = spec.collab().peer("p").unwrap();
        assert_eq!(
            all_minimal_scenarios(&run, p, 5, &Governor::with_nodes(1_000)),
            Verdict::Done(vec![EventSet::full(1)])
        );
        let cut = all_minimal_scenarios(&run, p, 5, &Governor::with_nodes(0));
        assert!(!cut.is_done(), "budget must cut the enumeration: {cut:?}");
        assert_eq!(cut.reason(), Some(&Reason::Nodes));
    }
}
