//! Deciding h-boundedness (Definition 5.8, Theorem 5.10).
//!
//! `P` is *h-bounded for p* if every minimum p-faithful run (on any initial
//! instance) whose events are all silent at `p` except the last has length
//! at most `h`. By Lemmas A.2/A.3 it suffices to look for counterexamples —
//! length-`h+1` such runs — over instances and events drawn from the
//! constant pool `C_{h+1}`; this module drives that bounded search
//! (PSPACE-complete in general, hence explicitly budgeted) over the
//! instance enumeration, with the shared silent-chain explorer of
//! [`crate::space`] looking for chains of exactly `h + 1` events.

use std::fmt;
use std::ops::ControlFlow;
use std::sync::Arc;

use cwf_engine::{Event, ScratchRun};
use cwf_lang::WorkflowSpec;
use cwf_model::{FirstHit, Governor, Instance, PeerId, Pool, Reason, Verdict};

use crate::space::{completion_pool, constant_pool, Explorer, InstanceEnumerator, Limits};

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
        let explorer = Explorer::new(spec, peer, &chain_pool, h + 1..=h + 1, gov);
        let en = InstanceEnumerator::new(spec, &consts, limits);
        Verdict::Done(if pool.is_sequential() || h == 0 {
            check_sequential(&explorer, en)
        } else {
            check_parallel(&explorer, en, pool)
        })
    });
    match verdict {
        Verdict::Done(d) | Verdict::Anytime(d, _) => d,
        Verdict::Exhausted(reason) => Decision::Exhausted(reason),
    }
}

/// The sequential oracle sweep: instances in enumeration order, each chased
/// to completion before the next.
fn check_sequential(
    explorer: &Explorer,
    mut en: InstanceEnumerator,
) -> Decision<BoundednessWitness> {
    while let Some(init) = en.next_instance(explorer.spec) {
        if let Err(reason) = explorer.gov.tick() {
            return Decision::Exhausted(reason);
        }
        match first_chain(explorer, &init, &[]) {
            Ok(Some(w)) => return Decision::CounterExample(w),
            Err(reason) => return Decision::Exhausted(reason),
            Ok(None) => {}
        }
    }
    Decision::Holds
}

/// Parallel frontier expansion (see [`check_h_bounded_pooled`]).
fn check_parallel(
    explorer: &Explorer,
    mut en: InstanceEnumerator,
    pool: &Pool,
) -> Decision<BoundednessWitness> {
    let spec = explorer.spec;
    // Batch sizing: each `pool.run` call spawns a fresh scoped worker set,
    // so the batch scales with the pool's claim granularity to amortize
    // spawn cost over long frontiers (the merge below is batch-size
    // independent: batches are processed, and scanned, in frontier order).
    let batch = pool.threads() * pool.chunk().max(4);
    loop {
        // Collect a batch of level-1 chains, (instance index, first event),
        // in (instance, candidate) order — the exact order the sequential
        // DFS would first reach them in.
        let mut inits: Vec<Instance> = Vec::new();
        let mut items: Vec<(usize, Event)> = Vec::new();
        let mut collect_stop: Option<Reason> = None;
        let mut drained = false;
        while items.len() < batch {
            let Some(init) = en.next_instance(spec) else {
                drained = true;
                break;
            };
            if let Err(reason) = explorer.gov.tick() {
                collect_stop = Some(reason);
                break;
            }
            let at = inits.len();
            let mut state = ScratchRun::new(Arc::clone(spec), init.clone());
            inits.push(init);
            let listed = explorer.steps(&mut state, |_, event, visible| {
                // Prefix events must be silent (the chain has h + 1 ≥ 2
                // events here).
                if !visible {
                    items.push((at, event.clone()));
                }
                Ok(ControlFlow::Continue(()))
            });
            if let Err(reason) = listed {
                collect_stop = Some(reason);
                break;
            }
        }
        // Workers finish the collected frontier prefix concurrently.
        let hit = FirstHit::new();
        let outs = pool.run(items, |idx, (at, first)| {
            let worker = Explorer {
                stop: Some((&hit, idx)),
                ..explorer.clone()
            };
            first_chain(&worker, &inits[at], &[first])
        });
        let mut exhausted = None;
        for out in outs {
            match out {
                // First frontier index with a counterexample — the sequential
                // answer; definitive even when an earlier item was cut off.
                Ok(Some(w)) => return Decision::CounterExample(w),
                Err(r) => exhausted = exhausted.or(Some(r)),
                Ok(None) => {}
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

/// The first chain of exactly `h + 1` events extending `prefix` on
/// `initial` that is its own minimum p-faithful run, if any; a hit is
/// offered to the explorer's [`FirstHit`].
fn first_chain(
    explorer: &Explorer,
    initial: &Instance,
    prefix: &[Event],
) -> Result<Option<BoundednessWitness>, Reason> {
    let mut found = None;
    explorer.chains(initial, prefix, &mut |run| {
        found = Some(BoundednessWitness {
            initial: initial.clone(),
            events: run.events().to_vec(),
        });
        ControlFlow::Break(())
    })?;
    if let (Some(_), Some((hit, idx))) = (&found, explorer.stop) {
        hit.offer(idx);
    }
    Ok(found)
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

    /// A brute-force reference for Definition 5.8 on tiny `h`, sharing
    /// nothing with the explorer but the bounded space itself (the
    /// enumerated instances and the canonical candidate events): every
    /// event sequence of length `h + 1` is replayed from scratch with
    /// `Run::replay`, and the definition is checked directly on it.
    mod reference {
        use super::*;
        use cwf_core::{tp_closure, EventSet, RunIndex};
        use cwf_engine::Run;
        use cwf_model::Value;
        use rand::SeedableRng;

        use crate::space::applicable_events;

        /// The first violation in (instance, candidate) order: a run of
        /// `h + 1` events, silent at `peer` but the last, which is visible,
        /// and whose last event's `T_p` closure covers the whole run.
        fn first_violation(
            spec: &Arc<WorkflowSpec>,
            peer: PeerId,
            h: usize,
            limits: &Limits,
        ) -> Option<BoundednessWitness> {
            let consts = constant_pool(spec, h + 1, limits);
            let pool = completion_pool(spec, h + 1, &consts);
            let mut en = InstanceEnumerator::new(spec, &consts, limits);
            while let Some(initial) = en.next_instance(spec) {
                let mut events = Vec::new();
                if first_from(spec, peer, h + 1, &pool, &initial, &mut events) {
                    return Some(BoundednessWitness { initial, events });
                }
            }
            None
        }

        /// Extends `events` by every candidate of its replayed run, depth
        /// first, up to `len` events; `true` with `events` the violation.
        fn first_from(
            spec: &Arc<WorkflowSpec>,
            peer: PeerId,
            len: usize,
            pool: &[Value],
            initial: &Instance,
            events: &mut Vec<Event>,
        ) -> bool {
            let replay = |events: &[Event]| {
                Run::replay(Arc::clone(spec), initial.clone(), events.iter().cloned())
            };
            let run = replay(events).expect("only replayable prefixes are extended");
            let candidates = applicable_events(spec, run.current(), pool, run.used_values())
                .expect("the pool has headroom for these specs");
            for e in candidates {
                events.push(e);
                if let Ok(run) = replay(events) {
                    let hit = if events.len() == len {
                        violates(&run, peer)
                    } else {
                        first_from(spec, peer, len, pool, initial, events)
                    };
                    if hit {
                        return true;
                    }
                }
                events.pop();
            }
            false
        }

        /// Definition 5.8's counterexample shape, checked directly.
        fn violates(run: &Run, peer: PeerId) -> bool {
            let last = run.len() - 1;
            let seed = EventSet::from_iter(run.len(), [last]);
            (0..last).all(|i| !run.visible_at(i, peer))
                && run.visible_at(last, peer)
                && tp_closure(run, &RunIndex::build(run), peer, &seed).len() == run.len()
        }

        /// Compares every `h ≤ 3` at pools 1 and 4; counts the violations.
        fn agrees(name: &str, spec: &Arc<WorkflowSpec>, peer: PeerId, limits: &Limits) -> usize {
            let mut violations = 0;
            for h in 0..=3 {
                let want = first_violation(spec, peer, h, limits);
                violations += usize::from(want.is_some());
                for threads in [1, 4] {
                    let gov = Governor::with_nodes(limits.max_nodes);
                    let got = check_h_bounded_pooled(
                        spec,
                        peer,
                        h,
                        limits,
                        &gov,
                        &Pool::with_threads(threads),
                    );
                    let at = format!("{name} h={h} at {threads} threads");
                    match (&want, got) {
                        (None, Decision::Holds) => {}
                        (Some(w), Decision::CounterExample(g)) => {
                            assert_eq!(w.initial, g.initial, "{at}: witness instance");
                            assert_eq!(w.events, g.events, "{at}: witness events");
                        }
                        (want, got) => panic!("{at}: reference {want:?}, production {got:?}"),
                    }
                }
            }
            violations
        }

        #[test]
        fn definition_5_8_matches_the_brute_force_reference() {
            let unit_specs = [
                chain_spec(),
                parse_spec(
                    "schema { C(K); Out(K); }
                     peers { q sees C(*), Out(*); p sees Out(*); }
                     rules {
                         spin_up @ q: +C(0) :- ;
                         spin_dn @ q: -key C(0) :- C(0);
                         out @ q: +Out(0) :- ;
                     }",
                ),
                parse_spec(
                    "schema { A(K); Out(K); }
                     peers { q sees A(*), Out(*); p sees Out(*); }
                     rules {
                         mk @ q: +A(0) :- ;
                         rm @ q: -key A(0) :- A(0);
                         out @ q: +Out(0) :- not key A(0);
                     }",
                ),
                parse_spec(
                    "schema { A(K); Out(K); }
                     peers { q sees A(*), Out(*); p sees Out(*); }
                     rules {
                         mk @ q: +A(0) :- ;
                         out @ q: +Out(0) :- A(0);
                     }",
                ),
            ];
            let (mut cases, mut violations) = (0, 0);
            for (i, spec) in unit_specs.iter().enumerate() {
                for peer in spec.collab().peer_ids() {
                    violations += agrees(&format!("unit spec {i}"), spec, peer, &limits());
                    cases += 4;
                }
            }
            let params = cwf_workloads::RandomSpecParams {
                n_rels: 4,
                n_rules: 5,
                ..Default::default()
            };
            for seed in 0..6 {
                let w = cwf_workloads::random_propositional_spec(
                    &params,
                    &mut rand::rngs::StdRng::seed_from_u64(seed),
                );
                violations += agrees(
                    &format!("random spec {seed}"),
                    &w.spec,
                    w.observer,
                    &limits(),
                );
                cases += 4;
            }
            // Both verdicts occur, so neither side can pass by always
            // answering the same.
            assert!(
                0 < violations && violations < cases,
                "{violations} of {cases}"
            );
        }

        fn parse_spec(src: &str) -> Arc<WorkflowSpec> {
            Arc::new(parse_workflow(src).unwrap())
        }
    }
}
