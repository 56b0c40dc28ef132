//! Deciding h-boundedness (Definition 5.8, Theorem 5.10).
//!
//! `P` is *h-bounded for p* if every minimum p-faithful run (on any initial
//! instance) whose events are all silent at `p` except the last has length
//! at most `h`. By Lemmas A.2/A.3 it suffices to look for counterexamples —
//! length-`h+1` such runs — over instances and events drawn from the
//! constant pool `C_{h+1}`; this module implements that bounded search
//! (PSPACE-complete in general, hence explicitly budgeted).

use std::fmt;
use std::sync::Arc;

use cwf_core::{facts, tp_closure, EventSet};
use cwf_engine::{Event, Run};
use cwf_lang::WorkflowSpec;
use cwf_model::{FirstHit, Governor, Instance, PeerId, Pool, Reason, Verdict};

use crate::space::{
    applicable_events_for_run, completion_pool, constant_pool, InstanceEnumerator, Limits,
};

/// The outcome of a bounded decision procedure.
#[derive(Debug, Clone)]
pub enum Decision<W> {
    /// The property holds (exhaustive over the bounded space).
    Holds,
    /// A counterexample was found.
    CounterExample(W),
    /// A governor limit (nodes, deadline, cancellation) or a runaway cap was
    /// hit before the search completed.
    Exhausted(Reason),
}

impl<W> Decision<W> {
    /// Does the property hold?
    pub fn holds(&self) -> bool {
        matches!(self, Decision::Holds)
    }

    /// The counterexample, if one was found.
    pub fn counter_example(self) -> Option<W> {
        match self {
            Decision::CounterExample(w) => Some(w),
            _ => None,
        }
    }
}

impl<W> fmt::Display for Decision<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Decision::Holds => write!(f, "holds"),
            Decision::CounterExample(_) => write!(f, "counterexample found"),
            Decision::Exhausted(r) => write!(f, "search exhausted: {r}"),
        }
    }
}

/// A witness against h-boundedness: a minimum p-faithful silent-then-visible
/// run of length `h + 1`.
#[derive(Debug, Clone)]
pub struct BoundednessWitness {
    /// The initial instance the run starts from.
    pub initial: Instance,
    /// The violating event sequence.
    pub events: Vec<Event>,
}

/// Decides whether `spec` is h-bounded for `peer` (Theorem 5.10), under a
/// node budget of `limits.max_nodes`.
pub fn check_h_bounded(
    spec: &Arc<WorkflowSpec>,
    peer: PeerId,
    h: usize,
    limits: &Limits,
) -> Decision<BoundednessWitness> {
    check_h_bounded_with(
        spec,
        peer,
        h,
        limits,
        &Governor::with_nodes(limits.max_nodes),
    )
}

/// [`check_h_bounded`] under an explicit [`Governor`] (deadline and
/// cancellation in addition to the node budget). The search body runs behind
/// the governor's panic guard: a panicking evaluator is reported as
/// [`Decision::Exhausted`] rather than unwinding.
pub(crate) fn check_h_bounded_with(
    spec: &Arc<WorkflowSpec>,
    peer: PeerId,
    h: usize,
    limits: &Limits,
    gov: &Governor,
) -> Decision<BoundednessWitness> {
    check_h_bounded_pooled(spec, peer, h, limits, gov, Pool::global())
}

/// [`check_h_bounded_with`] on an explicit [`Pool`].
///
/// The parallel strategy fans out over **level-1 frontier items**: initial
/// instances are drawn in enumeration order, their first (necessarily
/// silent) chain events are expanded sequentially — preserving the exact
/// candidate order of the sequential DFS — and the pool's workers then
/// search each resulting length-1 chain to completion. Worker results merge
/// in frontier order, so a completed search reports the same first
/// counterexample (or `Holds`) as the sequential sweep; a counterexample in
/// hand beats a later worker's exhaustion, and a cross-worker [`FirstHit`]
/// lets workers beyond the winning frontier index abandon early. `h = 0`
/// (no silent prefix to fan out over) always runs sequentially.
pub fn check_h_bounded_pooled(
    spec: &Arc<WorkflowSpec>,
    peer: PeerId,
    h: usize,
    limits: &Limits,
    gov: &Governor,
    pool: &Pool,
) -> Decision<BoundednessWitness> {
    let verdict = gov.guard(|| {
        let consts = constant_pool(spec, h + 1, limits);
        let chain_pool = completion_pool(spec, h + 1, &consts);
        if pool.is_sequential() || h == 0 {
            return Verdict::Done(check_sequential(
                spec,
                peer,
                h,
                limits,
                gov,
                &consts,
                &chain_pool,
            ));
        }
        Verdict::Done(check_parallel(
            spec,
            peer,
            h,
            limits,
            gov,
            pool,
            &consts,
            &chain_pool,
        ))
    });
    match verdict {
        Verdict::Done(d) | Verdict::Anytime(d, _) => d,
        Verdict::Exhausted(reason) => Decision::Exhausted(reason),
    }
}

/// The sequential oracle sweep: instances in enumeration order, each chased
/// to completion before the next.
#[allow(clippy::too_many_arguments)]
fn check_sequential(
    spec: &Arc<WorkflowSpec>,
    peer: PeerId,
    h: usize,
    limits: &Limits,
    gov: &Governor,
    consts: &[cwf_model::Value],
    chain_pool: &[cwf_model::Value],
) -> Decision<BoundednessWitness> {
    let mut en = InstanceEnumerator::new(spec, consts, limits);
    while let Some(init) = en.next_instance(spec) {
        if let Err(reason) = gov.tick() {
            return Decision::Exhausted(reason);
        }
        let base = Run::with_initial(Arc::clone(spec), init.clone());
        match silent_chain_from(&base, peer, chain_pool, h + 1, gov, None) {
            ChainOutcome::Found(events) => {
                return Decision::CounterExample(BoundednessWitness {
                    initial: init,
                    events,
                })
            }
            ChainOutcome::Exhausted(reason) => return Decision::Exhausted(reason),
            ChainOutcome::None => {}
        }
    }
    Decision::Holds
}

/// Parallel frontier expansion (see [`check_h_bounded_pooled`]).
#[allow(clippy::too_many_arguments)]
fn check_parallel(
    spec: &Arc<WorkflowSpec>,
    peer: PeerId,
    h: usize,
    limits: &Limits,
    gov: &Governor,
    pool: &Pool,
    consts: &[cwf_model::Value],
    chain_pool: &[cwf_model::Value],
) -> Decision<BoundednessWitness> {
    let target_len = h + 1;
    let mut en = InstanceEnumerator::new(spec, consts, limits);
    // Batch sizing: each `pool.run` call spawns a fresh scoped worker set,
    // so the batch scales with the pool's claim granularity to amortize
    // spawn cost over long frontiers (the merge below is batch-size
    // independent: batches are processed, and scanned, in frontier order).
    let batch = pool.threads() * pool.chunk().max(4);
    loop {
        // Collect a batch of level-1 chains in (instance, candidate) order —
        // the exact order the sequential DFS would first reach them in.
        let mut items: Vec<Run> = Vec::new();
        let mut collect_stop: Option<Reason> = None;
        let mut drained = false;
        'collect: while items.len() < batch {
            let Some(init) = en.next_instance(spec) else {
                drained = true;
                break;
            };
            if let Err(reason) = gov.tick() {
                collect_stop = Some(reason);
                break;
            }
            let base = Run::with_initial(Arc::clone(spec), init);
            let Some(candidates) = applicable_events_for_run(spec, &base, chain_pool) else {
                collect_stop = Some(Reason::SizeCap);
                break;
            };
            for t in &candidates {
                if let Err(reason) = gov.tick() {
                    collect_stop = Some(reason);
                    break 'collect;
                }
                let mut next = base.clone();
                if next.push(t.clone()).is_err() {
                    continue;
                }
                // Prefix events must be silent (target_len ≥ 2 here).
                if !next.visible_at(0, peer) {
                    items.push(next);
                }
            }
        }
        // Workers finish the collected frontier prefix concurrently.
        let hit = FirstHit::new();
        let outs = pool.run(items, |idx, chain: Run| {
            let init = chain.initial().clone();
            let out =
                silent_chain_from(&chain, peer, chain_pool, target_len, gov, Some((&hit, idx)));
            (init, out)
        });
        let mut exhausted = None;
        for (init, out) in outs {
            match out {
                // First frontier index with a counterexample — the sequential
                // answer; definitive even when an earlier item was cut off.
                ChainOutcome::Found(events) => {
                    return Decision::CounterExample(BoundednessWitness {
                        initial: init,
                        events,
                    })
                }
                ChainOutcome::Exhausted(r) => exhausted = exhausted.or(Some(r)),
                ChainOutcome::None => {}
            }
        }
        if let Some(reason) = exhausted.or(collect_stop) {
            return Decision::Exhausted(reason);
        }
        if drained {
            return Decision::Holds;
        }
    }
}

/// Finds the least `h ≤ h_max` for which the program is h-bounded, if any.
pub fn find_bound(
    spec: &Arc<WorkflowSpec>,
    peer: PeerId,
    h_max: usize,
    limits: &Limits,
) -> Option<usize> {
    find_bound_pooled(spec, peer, h_max, limits, Pool::global())
}

/// [`find_bound`] on an explicit [`Pool`] (each bound check gets a fresh
/// node budget, exactly like the sequential driver).
pub fn find_bound_pooled(
    spec: &Arc<WorkflowSpec>,
    peer: PeerId,
    h_max: usize,
    limits: &Limits,
    pool: &Pool,
) -> Option<usize> {
    (0..=h_max).find(|&h| {
        check_h_bounded_pooled(
            spec,
            peer,
            h,
            limits,
            &Governor::with_nodes(limits.max_nodes),
            pool,
        )
        .holds()
    })
}

enum ChainOutcome {
    Found(Vec<Event>),
    None,
    Exhausted(Reason),
}

/// DFS for a run of exactly `target_len` events extending `run`'s events on
/// its initial instance, all silent at `peer` except a visible last one,
/// that is its own minimum p-faithful scenario.
///
/// `stop` (parallel workers only) is the cross-worker early-exit signal: a
/// worker whose frontier index is beaten by an already found counterexample
/// at a smaller index abandons — the index-ordered merge will not read it.
fn silent_chain_from(
    run: &Run,
    peer: PeerId,
    pool: &[cwf_model::Value],
    target_len: usize,
    gov: &Governor,
    stop: Option<(&FirstHit, usize)>,
) -> ChainOutcome {
    if let Some((hit, idx)) = stop {
        if hit.beats(idx) {
            return ChainOutcome::None;
        }
    }
    let depth = run.len();
    let Some(candidates) = applicable_events_for_run(run.spec(), run, pool) else {
        // Not enough fresh headroom in the pool: a capacity-style
        // exhaustion (raise `extra_constants`).
        return ChainOutcome::Exhausted(Reason::SizeCap);
    };
    for t in &candidates {
        // One governor node per candidate trial: the budget measures
        // real work, so exhaustion fires promptly on huge spaces.
        if let Err(reason) = gov.tick() {
            return ChainOutcome::Exhausted(reason);
        }
        let mut next = run.clone();
        if next.push(t.clone()).is_err() {
            continue;
        }
        let visible = next.visible_at(depth, peer);
        if depth + 1 == target_len {
            // Last event: must be visible and the whole chain must be a
            // minimum p-faithful run (its own minimal faithful scenario).
            if !visible {
                continue;
            }
            let seed = EventSet::from_iter(next.len(), [depth]);
            let closure = tp_closure(&next, facts(&next).index(), peer, &seed);
            if closure.len() == next.len() {
                if let Some((hit, idx)) = stop {
                    hit.offer(idx);
                }
                return ChainOutcome::Found(next.events().to_vec());
            }
        } else {
            // Prefix events must be silent.
            if visible {
                continue;
            }
            match silent_chain_from(&next, peer, pool, target_len, gov, stop) {
                ChainOutcome::None => {}
                other => return other,
            }
        }
    }
    ChainOutcome::None
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwf_lang::parse_workflow;

    fn limits() -> Limits {
        Limits {
            max_nodes: 500_000,
            max_tuples_per_rel: 1,
            extra_constants: Some(0),
        }
    }

    /// A chain of two silent steps before the visible one: 2-bounded but
    /// not 1-bounded for p.
    fn chain_spec() -> Arc<WorkflowSpec> {
        Arc::new(
            parse_workflow(
                r#"
                schema { A(K); B(K); Out(K); }
                peers { q sees A(*), B(*), Out(*); p sees Out(*); }
                rules {
                    s1 @ q: +A(0) :- ;
                    s2 @ q: +B(0) :- A(0);
                    s3 @ q: +Out(0) :- B(0);
                }
                "#,
            )
            .unwrap(),
        )
    }

    #[test]
    fn chain_is_3_bounded_not_2() {
        let spec = chain_spec();
        let p = spec.collab().peer("p").unwrap();
        // A counterexample to 2-boundedness: ∅ ⊢ s1 s2 s3 — three events,
        // first two silent, minimum faithful.
        let d2 = check_h_bounded(&spec, p, 2, &limits());
        let w = d2.counter_example().expect("not 2-bounded");
        assert_eq!(w.events.len(), 3);
        // 3-bounded: no silent-relevant chain of length 4 exists.
        assert!(check_h_bounded(&spec, p, 3, &limits()).holds());
        assert_eq!(find_bound(&spec, p, 5, &limits()), Some(3));
    }

    #[test]
    fn full_observer_is_0_bounded() {
        let spec = chain_spec();
        let q = spec.collab().peer("q").unwrap();
        // Every event is visible at q: no silent chain at all, so even
        // h = 0 — a "minimum q-faithful run with all but last silent" has
        // length 1 > 0. Wait: h = 0 demands |α| ≤ 0, but a single visible
        // event is such a run of length 1. So q is 1-bounded, not 0-bounded.
        let d0 = check_h_bounded(&spec, q, 0, &limits());
        assert!(d0.counter_example().is_some());
        assert!(check_h_bounded(&spec, q, 1, &limits()).holds());
    }

    #[test]
    fn irrelevant_silent_work_does_not_break_boundedness() {
        // q can loop on C forever, but C never feeds Out: minimum p-faithful
        // chains stay short.
        let spec = Arc::new(
            parse_workflow(
                r#"
                schema { C(K); Out(K); }
                peers { q sees C(*), Out(*); p sees Out(*); }
                rules {
                    spin_up @ q: +C(0) :- ;
                    spin_dn @ q: -key C(0) :- C(0);
                    out @ q: +Out(0) :- ;
                }
                "#,
            )
            .unwrap(),
        );
        let p = spec.collab().peer("p").unwrap();
        // The visible event has empty body: minimum faithful chain is just
        // itself ⇒ 1-bounded. (Silent C-churn is not *relevant* to p.)
        assert!(check_h_bounded(&spec, p, 1, &limits()).holds());
    }

    #[test]
    fn budget_is_reported() {
        let spec = chain_spec();
        let p = spec.collab().peer("p").unwrap();
        let tiny = Limits {
            max_nodes: 2,
            ..limits()
        };
        assert!(matches!(
            check_h_bounded(&spec, p, 3, &tiny),
            Decision::Exhausted(Reason::Nodes)
        ));
    }

    #[test]
    fn cancellation_is_reported() {
        let spec = chain_spec();
        let p = spec.collab().peer("p").unwrap();
        let gov = Governor::unlimited();
        gov.cancel_token().cancel();
        assert!(matches!(
            check_h_bounded_with(&spec, p, 3, &limits(), &gov),
            Decision::Exhausted(Reason::Cancelled)
        ));
    }

    #[test]
    fn negative_key_guards_do_not_extend_relevant_chains() {
        // The visible rule requires A *absent*. Per the footnote to
        // Definition 4.3, a key occurring only in a ¬Key literal does not
        // belong to a lifecycle containing the event, so silent churn
        // mk/rm of A is *not* pulled into the minimum faithful chain: the
        // program is 1-bounded for p.
        let spec = Arc::new(
            parse_workflow(
                r#"
                schema { A(K); Out(K); }
                peers { q sees A(*), Out(*); p sees Out(*); }
                rules {
                    mk @ q: +A(0) :- ;
                    rm @ q: -key A(0) :- A(0);
                    out @ q: +Out(0) :- not key A(0);
                }
                "#,
            )
            .unwrap(),
        );
        let p = spec.collab().peer("p").unwrap();
        assert!(check_h_bounded(&spec, p, 1, &limits()).holds());
        // By contrast, a *positive* guard over A pulls its creator in.
        let spec2 = Arc::new(
            parse_workflow(
                r#"
                schema { A(K); Out(K); }
                peers { q sees A(*), Out(*); p sees Out(*); }
                rules {
                    mk @ q: +A(0) :- ;
                    out @ q: +Out(0) :- A(0);
                }
                "#,
            )
            .unwrap(),
        );
        let p2 = spec2.collab().peer("p").unwrap();
        assert!(check_h_bounded(&spec2, p2, 1, &limits())
            .counter_example()
            .is_some());
        assert_eq!(find_bound(&spec2, p2, 4, &limits()), Some(2));
    }
}
