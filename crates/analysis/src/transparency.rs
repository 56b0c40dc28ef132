//! Deciding transparency (Definition 5.6, Theorem 5.11).
//!
//! A program is *transparent for p* when any minimum p-faithful
//! silent-then-visible run applicable on a p-fresh instance `I` is also
//! applicable — with the same visible outcome — on every p-fresh instance
//! `J` with `I@p = J@p` (and `adom(J) ∩ new(α) = ∅`). Intuitively: what `p`
//! will see next is determined by what `p` sees now.
//!
//! For h-bounded programs the paper's reformulation (†) bounds the witnesses:
//! pairs of p-fresh instances over the constant pool and chains of length at
//! most `h`. [`check_transparent`] implements that exhaustive bounded search,
//! enumerating each p-fresh instance's chains with the shared silent-chain
//! explorer of [`crate::space`]. [`sample_transparency_violation`] is a
//! cheap falsifier that harvests stages from random runs instead of
//! enumerating the space.

use std::collections::BTreeSet;
use std::ops::ControlFlow;
use std::sync::Arc;

use cwf_core::{facts, tp_closure, EventSet};
use cwf_engine::{Event, Run, Simulator};
use cwf_lang::WorkflowSpec;
use cwf_model::{FirstHit, Governor, Instance, PeerId, Pool, Reason, Value, Verdict};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::boundedness::Decision;
use crate::space::{completion_pool, constant_pool, fresh_instances, Explorer, Limits};
use crate::stage::{minimum_faithful_of_stage, stages};

/// A witness against transparency: a chain applicable on one p-fresh
/// instance but not equivalently on another with the same p-view.
#[derive(Debug, Clone)]
pub struct TransparencyWitness {
    /// The p-fresh instance the chain runs on.
    pub on: Instance,
    /// The p-fresh instance with the same p-view where it fails.
    pub against: Instance,
    /// The minimum p-faithful silent-then-visible chain.
    pub alpha: Vec<Event>,
    /// What went wrong on `against`.
    pub reason: String,
}

/// Decides transparency of an h-bounded program for `peer` (Theorem 5.11).
///
/// Exhaustive over instances/chains drawn from the constant pool, subject to
/// `limits`; exponential by nature (the problem is PSPACE-complete).
pub fn check_transparent(
    spec: &Arc<WorkflowSpec>,
    peer: PeerId,
    h: usize,
    limits: &Limits,
) -> Decision<TransparencyWitness> {
    check_transparent_with(
        spec,
        peer,
        h,
        limits,
        &Governor::with_nodes(limits.max_nodes),
    )
}

/// [`check_transparent`] under an explicit [`Governor`] (deadline and
/// cancellation in addition to the node budget). Runs behind the governor's
/// panic guard.
pub(crate) fn check_transparent_with(
    spec: &Arc<WorkflowSpec>,
    peer: PeerId,
    h: usize,
    limits: &Limits,
    gov: &Governor,
) -> Decision<TransparencyWitness> {
    check_transparent_pooled(spec, peer, h, limits, gov, Pool::global())
}

/// [`check_transparent_with`] on an explicit [`Pool`].
///
/// Parallelism fans out over the *source* instance `f1`: each worker
/// enumerates `f1`'s chains and cross-tests them against every view-equal
/// `f2`, and the per-`f1` results merge in fresh-enumeration order — the
/// order the sequential sweep visits them in — so a completed search
/// reports the same first witness (or `Holds`). A witness in hand beats a
/// later worker's exhaustion, and a cross-worker [`FirstHit`] lets workers
/// past the winning index abandon early.
pub fn check_transparent_pooled(
    spec: &Arc<WorkflowSpec>,
    peer: PeerId,
    h: usize,
    limits: &Limits,
    gov: &Governor,
    pool: &Pool,
) -> Decision<TransparencyWitness> {
    let verdict =
        gov.guard(|| Verdict::Done(check_transparent_body(spec, peer, h, limits, gov, pool)));
    match verdict {
        Verdict::Done(d) | Verdict::Anytime(d, _) => d,
        Verdict::Exhausted(reason) => Decision::Exhausted(reason),
    }
}

fn check_transparent_body(
    spec: &Arc<WorkflowSpec>,
    peer: PeerId,
    h: usize,
    limits: &Limits,
    gov: &Governor,
    pool: &Pool,
) -> Decision<TransparencyWitness> {
    let consts = constant_pool(spec, h + 2, limits);
    let chain_pool = completion_pool(spec, h + 2, &consts);
    // The decision needs the *complete* p-fresh set: a partial (anytime)
    // enumeration cannot certify `Holds`, so a cutoff propagates.
    let fresh = match fresh_instances(spec, peer, &consts, &chain_pool, limits, gov) {
        Verdict::Done(f) => f,
        Verdict::Anytime(_, bound) => return Decision::Exhausted(bound.reason),
        Verdict::Exhausted(reason) => return Decision::Exhausted(reason),
    };
    let explorer = Explorer::new(spec, peer, &chain_pool, 1..=h, gov);
    if pool.is_sequential() {
        for f1 in &fresh {
            match check_against_fresh(&explorer, f1, &fresh, None) {
                Ok(Some(w)) => return Decision::CounterExample(w),
                Ok(None) => {}
                Err(reason) => return Decision::Exhausted(reason),
            }
        }
        return Decision::Holds;
    }
    let hit = FirstHit::new();
    let outs = pool.run((0..fresh.len()).collect(), |_, i| {
        check_against_fresh(&explorer, &fresh[i], &fresh, Some((&hit, i)))
    });
    let mut exhausted = None;
    for out in outs {
        match out {
            // First f1 index with a witness — the sequential answer,
            // definitive even when an earlier worker was cut off.
            Ok(Some(w)) => return Decision::CounterExample(w),
            Ok(None) => {}
            Err(reason) => exhausted = exhausted.or(Some(reason)),
        }
    }
    match exhausted {
        Some(reason) => Decision::Exhausted(reason),
        None => Decision::Holds,
    }
}

/// The per-`f1` unit of the transparency sweep: enumerate `f1`'s chains of
/// at most `h` events and cross-test them against every view-equal `f2`, in
/// fresh order.
fn check_against_fresh(
    explorer: &Explorer,
    f1: &Instance,
    fresh: &[Instance],
    stop: Option<(&FirstHit, usize)>,
) -> Result<Option<TransparencyWitness>, Reason> {
    let Explorer {
        spec,
        peer,
        pool,
        gov,
        ..
    } = *explorer;
    let mut chains = Vec::new();
    explorer.chains(f1, &[], &mut |run| {
        chains.push(run.events().to_vec());
        ControlFlow::Continue(())
    })?;
    if chains.is_empty() {
        return Ok(None);
    }
    let view1 = spec.collab().view_of(f1, peer);
    for f2 in fresh {
        if f1 == f2 {
            continue;
        }
        if spec.collab().view_of(f2, peer) != view1 {
            continue;
        }
        for chain in &chains {
            if let Some((hit, idx)) = stop {
                if hit.beats(idx) {
                    return Ok(None);
                }
            }
            gov.tick()?;
            // Respect the side condition adom(J) ∩ new(α) = ∅ by
            // renaming the chain's new values away from f2 (Lemma A.2
            // makes the renamed chain equivalent on f1).
            let Some(alpha) = avoid_adom(spec, f1, f2, chain, pool) else {
                // No renaming available within the pool: a capacity
                // exhaustion rather than a silent skip.
                return Err(Reason::SizeCap);
            };
            if let Some(reason) = chain_fails_on(spec, peer, f1, f2, &alpha) {
                if let Some((hit, idx)) = stop {
                    hit.offer(idx);
                }
                return Ok(Some(TransparencyWitness {
                    on: f1.clone(),
                    against: f2.clone(),
                    alpha,
                    reason,
                }));
            }
        }
    }
    Ok(None)
}

/// Renames the chain's new values so that `new(α) ∩ adom(f2) = ∅`, drawing
/// replacements from pool constants unused anywhere relevant.
fn avoid_adom(
    spec: &WorkflowSpec,
    f1: &Instance,
    f2: &Instance,
    chain: &[Event],
    pool: &[Value],
) -> Option<Vec<Event>> {
    let mut new_vals: BTreeSet<Value> = BTreeSet::new();
    for e in chain {
        new_vals.extend(e.new_values(spec));
    }
    let clash: Vec<Value> = new_vals.intersection(&f2.adom()).cloned().collect();
    if clash.is_empty() {
        return Some(chain.to_vec());
    }
    // Values that must stay untouched.
    let mut used: BTreeSet<Value> = f1.adom();
    used.extend(f2.adom());
    used.extend(spec.program().const_set());
    for e in chain {
        used.extend(e.adom(spec));
    }
    let mut replacements = pool.iter().filter(|v| !used.contains(*v));
    let mut map: Vec<(Value, Value)> = Vec::new();
    for c in clash {
        map.push((c, *replacements.next()?));
    }
    Some(chain.iter().map(|e| rename_event(spec, e, &map)).collect())
}

fn rename_event(spec: &WorkflowSpec, e: &Event, map: &[(Value, Value)]) -> Event {
    let rule = spec.program().rule(e.rule);
    let mut val = cwf_engine::Bindings::empty(rule.vars.len());
    for v in 0..rule.vars.len() {
        let vid = cwf_lang::VarId(v as u32);
        let mut value = *e.valuation.get(vid).expect("total");
        if let Some((_, to)) = map.iter().find(|(from, _)| *from == value) {
            value = *to;
        }
        val.set(vid, value);
    }
    Event {
        rule: e.rule,
        peer: e.peer,
        valuation: val,
    }
}

/// Checks (†) for one chain: it must be a minimum p-faithful
/// silent-then-visible run on `f2` with the same visible outcome as on `f1`.
/// Returns a failure description, or `None` if transparency holds here.
/// (Public: the run-level transparency check of Definition 6.4 reuses it.)
pub fn chain_fails_on(
    spec: &Arc<WorkflowSpec>,
    peer: PeerId,
    f1: &Instance,
    f2: &Instance,
    alpha: &[Event],
) -> Option<String> {
    // Rebuild the chain on f1 (it may have been renamed).
    let run1 = Run::replay(Arc::clone(spec), f1.clone(), alpha.iter().cloned()).ok()?;
    let run2 = match Run::replay(Arc::clone(spec), f2.clone(), alpha.iter().cloned()) {
        Ok(r) => r,
        Err(e) => return Some(format!("chain not applicable: {e}")),
    };
    let n = run2.len();
    for i in 0..n - 1 {
        if run2.visible_at(i, peer) {
            return Some(format!("event {i} is visible on the second instance"));
        }
    }
    if !run2.visible_at(n - 1, peer) {
        return Some("final event is silent on the second instance".into());
    }
    let seed = EventSet::from_iter(n, [n - 1]);
    if tp_closure(&run2, facts(&run2).index(), peer, &seed).len() != n {
        return Some("chain is not minimum p-faithful on the second instance".into());
    }
    let v1 = spec.collab().view_of(run1.current(), peer);
    let v2 = spec.collab().view_of(run2.current(), peer);
    if v1 != v2 {
        return Some("visible outcomes differ".into());
    }
    None
}

/// Sampling falsifier: runs random simulations, harvests the p-fresh
/// instances and stage chains they produce, and cross-tests chains against
/// view-equal fresh instances. Finds real violations only (no completeness).
pub fn sample_transparency_violation(
    spec: &Arc<WorkflowSpec>,
    peer: PeerId,
    n_runs: usize,
    run_len: usize,
    seed: u64,
) -> Option<TransparencyWitness> {
    let mut fresh: Vec<Instance> = vec![Instance::empty(spec.collab().schema())];
    let mut chains: Vec<(Instance, Vec<Event>)> = Vec::new();
    for r in 0..n_runs {
        let rng = StdRng::seed_from_u64(seed ^ (r as u64).wrapping_mul(0x9e3779b97f4a7c15));
        let mut sim = Simulator::new(Run::new(Arc::clone(spec)), rng);
        let _ = sim.steps(run_len);
        let run = sim.into_run();
        for st in stages(&run, peer) {
            if let Some((_, sub)) = minimum_faithful_of_stage(&run, peer, &st) {
                let pre = run.pre_instance(st.start).clone();
                chains.push((pre, sub.events().to_vec()));
            }
            if let Some(v) = st.visible {
                fresh.push(run.instance(v).clone());
            }
        }
    }
    for (pre, chain) in &chains {
        if chain.is_empty() {
            continue;
        }
        let view = spec.collab().view_of(pre, peer);
        let mut new_vals: BTreeSet<Value> = BTreeSet::new();
        for e in chain {
            new_vals.extend(e.new_values(spec));
        }
        for f2 in &fresh {
            if f2 == pre || spec.collab().view_of(f2, peer) != view {
                continue;
            }
            if !new_vals.is_disjoint(&f2.adom()) {
                continue;
            }
            if let Some(reason) = chain_fails_on(spec, peer, pre, f2, chain) {
                return Some(TransparencyWitness {
                    on: pre.clone(),
                    against: f2.clone(),
                    alpha: chain.clone(),
                    reason,
                });
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwf_lang::parse_workflow;

    fn limits() -> Limits {
        Limits {
            max_nodes: 4_000_000,
            max_tuples_per_rel: 1,
            // Enough headroom for the adom-avoiding renaming of chains.
            extra_constants: Some(4),
        }
    }

    /// Example 5.7's *non-transparent* program (cfoOK already removed):
    /// Approved is invisible to Sue yet gates her visible Hire transition.
    fn hiring_spec() -> Arc<WorkflowSpec> {
        Arc::new(
            parse_workflow(
                r#"
                schema { Cleared(K); Approved(K); Hire(K); }
                peers {
                    hr sees Cleared(*), Approved(*), Hire(*);
                    ceo sees Cleared(*), Approved(*), Hire(*);
                    sue sees Cleared(*), Hire(*);
                }
                rules {
                    clear @ hr: +Cleared(x) :- ;
                    approve @ ceo: +Approved(x) :- Cleared(x);
                    hire @ hr: +Hire(x) :- Approved(x);
                }
                "#,
            )
            .unwrap(),
        )
    }

    #[test]
    fn example_5_7_is_not_transparent_for_sue() {
        let spec = hiring_spec();
        let sue = spec.collab().peer("sue").unwrap();
        // The program is 1-bounded for sue? approve is silent, hire visible:
        // chain approve;hire has length 2, so use h = 2.
        let d = check_transparent(&spec, sue, 2, &limits());
        let w = d.counter_example().expect("Example 5.7: not transparent");
        assert!(
            w.reason.contains("not applicable")
                || w.reason.contains("not minimum")
                || w.reason.contains("differ"),
            "got reason: {}",
            w.reason
        );
    }

    #[test]
    fn fully_visible_program_is_transparent() {
        // Everything Sue-visible ⇒ trivially transparent.
        let spec = Arc::new(
            parse_workflow(
                r#"
                schema { Cleared(K); Hire(K); }
                peers {
                    hr sees Cleared(*), Hire(*);
                    sue sees Cleared(*), Hire(*);
                }
                rules {
                    clear @ hr: +Cleared(x) :- ;
                    hire @ hr: +Hire(x) :- Cleared(x);
                }
                "#,
            )
            .unwrap(),
        );
        let sue = spec.collab().peer("sue").unwrap();
        assert!(check_transparent(&spec, sue, 2, &limits()).holds());
    }

    #[test]
    fn sampling_falsifier_finds_the_hiring_violation() {
        let spec = hiring_spec();
        let sue = spec.collab().peer("sue").unwrap();
        let w = sample_transparency_violation(&spec, sue, 40, 6, 7);
        assert!(w.is_some(), "random stages expose the Approved dependency");
    }

    #[test]
    fn sampling_falsifier_quiet_on_transparent_program() {
        let spec = Arc::new(
            parse_workflow(
                r#"
                schema { Cleared(K); Hire(K); }
                peers {
                    hr sees Cleared(*), Hire(*);
                    sue sees Cleared(*), Hire(*);
                }
                rules {
                    clear @ hr: +Cleared(x) :- ;
                    hire @ hr: +Hire(x) :- Cleared(x);
                }
                "#,
            )
            .unwrap(),
        );
        let sue = spec.collab().peer("sue").unwrap();
        assert!(sample_transparency_violation(&spec, sue, 20, 6, 3).is_none());
    }

    #[test]
    fn budget_is_reported() {
        let spec = hiring_spec();
        let sue = spec.collab().peer("sue").unwrap();
        let tiny = Limits {
            max_nodes: 1,
            ..limits()
        };
        assert!(matches!(
            check_transparent(&spec, sue, 2, &tiny),
            Decision::Exhausted(Reason::Nodes)
        ));
    }

    #[test]
    fn zero_deadline_is_reported_immediately() {
        let spec = hiring_spec();
        let sue = spec.collab().peer("sue").unwrap();
        let gov = Governor::unlimited().deadline(std::time::Duration::ZERO);
        assert!(matches!(
            check_transparent_with(&spec, sue, 2, &limits(), &gov),
            Decision::Exhausted(Reason::Deadline)
        ));
    }
}
