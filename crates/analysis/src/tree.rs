//! Tree equivalence of view programs (Remark 5.2).
//!
//! Soundness + completeness of a view program compare *linear* runs; the
//! paper remarks that a stronger guarantee is desirable: from any state, the
//! **set of possible next observations** should coincide between `P` (silent
//! chains ending in a visible event, plus `p`'s own events) and `P@p`
//! (ω-rule and `p`-rule firings). For transparent programs the synthesized
//! view program has this property; for non-transparent programs the two
//! trees diverge at some reachable state — which this sampler detects.
//!
//! Observations are compared up to renaming of created values: each outcome
//! view has its fresh values replaced by placeholders, minimizing over
//! placeholder assignments (exact canonicalization; outcomes with more than
//! [`MAX_FRESH`] created values are skipped with a counter).

use std::collections::BTreeSet;
use std::ops::ControlFlow;
use std::sync::Arc;

use cwf_engine::{apply_event, Run, Simulator};
use cwf_lang::WorkflowSpec;
use cwf_model::{Governor, Instance, PeerId, Value, ViewInstance};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::space::{applicable_events, completion_pool, constant_pool, Explorer, Limits};
use crate::synthesis::{view_as_instance, Synthesis};

/// Maximum created values per outcome for exact canonicalization.
pub const MAX_FRESH: usize = 4;

/// A detected divergence between the trees of `P` and `P@p`.
#[derive(Debug, Clone)]
pub struct TreeMismatch {
    /// The `P`-state at which the observation sets differ.
    pub state: Instance,
    /// Canonical observations possible in `P` but not in `P@p`.
    pub only_in_p: Vec<String>,
    /// Canonical observations possible in `P@p` but not in `P`.
    pub only_in_view: Vec<String>,
}

/// Canonicalizes a view instance up to renaming of values outside `known`.
/// Relations are rendered by *name* so observations of `P` (global schema)
/// and `P@p` (view schema) compare directly. Returns `None` when more than
/// [`MAX_FRESH`] fresh values occur.
fn canonical_view(
    view: &ViewInstance,
    schema: &cwf_model::Schema,
    known: &BTreeSet<Value>,
) -> Option<String> {
    // Collect the fresh values in deterministic order.
    let mut fresh: Vec<Value> = Vec::new();
    for (_, t) in view.facts() {
        for v in t.values() {
            if !v.is_null() && !known.contains(v) && !fresh.contains(v) {
                fresh.push(*v);
            }
        }
    }
    if fresh.len() > MAX_FRESH {
        return None;
    }
    // Minimize the rendering over all placeholder assignments.
    let mut best: Option<String> = None;
    let mut perm: Vec<usize> = (0..fresh.len()).collect();
    loop {
        let render = {
            let mut lines: Vec<String> = Vec::new();
            for (r, t) in view.facts() {
                let vals: Vec<String> = t
                    .values()
                    .iter()
                    .map(|v| match fresh.iter().position(|f| f == v) {
                        Some(i) => format!("?{}", perm[i]),
                        None => format!("{v}"),
                    })
                    .collect();
                lines.push(format!("{}({})", schema.relation(r).name(), vals.join(",")));
            }
            lines.sort();
            lines.join(";")
        };
        best = Some(match best {
            Some(b) if b <= render => b,
            _ => render,
        });
        if !next_permutation(&mut perm) {
            break;
        }
    }
    best
}

fn next_permutation(p: &mut [usize]) -> bool {
    if p.len() < 2 {
        return false;
    }
    let mut i = p.len() - 1;
    while i > 0 && p[i - 1] >= p[i] {
        i -= 1;
    }
    if i == 0 {
        return false;
    }
    let mut j = p.len() - 1;
    while p[j] <= p[i - 1] {
        j -= 1;
    }
    p.swap(i - 1, j);
    p[i..].reverse();
    true
}

/// The canonical next-observation set of `P` from `state`: outcomes of
/// minimum p-faithful silent-then-visible chains of length ≤ `h` (which
/// include `p`'s own single visible events). `skipped` counts outcomes that
/// exceeded [`MAX_FRESH`].
fn observations_p(
    spec: &Arc<WorkflowSpec>,
    peer: PeerId,
    state: &Instance,
    pool: &[Value],
    h: usize,
    gov: &Governor,
    skipped: &mut usize,
) -> Option<BTreeSet<String>> {
    let known: BTreeSet<Value> = state
        .adom()
        .into_iter()
        .chain(spec.program().const_set())
        .collect();
    let mut out = BTreeSet::new();
    let explorer = Explorer::new(spec, peer, pool, 1..=h, gov);
    let mut visit = |run: Run| {
        let view = spec.collab().view_of(run.current(), peer);
        match canonical_view(&view, spec.collab().schema(), &known) {
            Some(c) => {
                out.insert(c);
            }
            None => *skipped += 1,
        }
        ControlFlow::Continue(())
    };
    explorer.chains(state, &[], &mut visit).ok()?;
    Some(out)
}

/// The canonical next-observation set of `P@p` from the matching view state.
fn observations_view(
    synth: &Synthesis,
    view_state: &Instance,
    pool: &[Value],
    skipped: &mut usize,
) -> Option<BTreeSet<String>> {
    let spec = &synth.view_spec;
    let known: BTreeSet<Value> = view_state
        .adom()
        .into_iter()
        .chain(spec.program().const_set())
        .collect();
    let events = applicable_events(spec, view_state, pool, &BTreeSet::new())?;
    let mut out = BTreeSet::new();
    for e in &events {
        let Ok(next) = apply_event(spec, view_state, e) else {
            continue;
        };
        if &next == view_state {
            continue; // a no-op firing is not an observation
        }
        // In the view program every relation is visible to p, so the state
        // itself is the observation.
        let view = spec.collab().view_of(&next, synth.p_peer);
        match canonical_view(&view, spec.collab().schema(), &known) {
            Some(c) => {
                out.insert(c);
            }
            None => *skipped += 1,
        }
    }
    Some(out)
}

/// Samples reachable `P`-states from random runs and compares next-
/// observation sets against `P@p` (Remark 5.2's tree equivalence). Returns
/// the first divergence, or `None` if all sampled states agree.
#[allow(clippy::too_many_arguments)]
pub fn sample_tree_divergence(
    spec: &Arc<WorkflowSpec>,
    synth: &Synthesis,
    peer: PeerId,
    h: usize,
    limits: &Limits,
    n_runs: usize,
    run_len: usize,
    seed: u64,
) -> Option<TreeMismatch> {
    let pool = constant_pool(spec, h + 1, limits);
    let chain_pool = completion_pool(spec, h + 1, &pool);
    let gov = Governor::with_nodes(limits.max_nodes);
    let mut skipped = 0usize;
    for r in 0..n_runs {
        let rng = StdRng::seed_from_u64(seed ^ (r as u64).wrapping_mul(0x9e3779b97f4a7c15));
        let mut sim = Simulator::new(Run::new(Arc::clone(spec)), rng);
        let _ = sim.steps(run_len);
        let run = sim.into_run();
        // Compare at every prefix state (including the initial one).
        for i in 0..=run.len() {
            let state = if i == 0 {
                run.initial().clone()
            } else {
                run.instance(i - 1).clone()
            };
            let Some(obs_p) =
                observations_p(spec, peer, &state, &chain_pool, h, &gov, &mut skipped)
            else {
                return None; // governor exhausted: inconclusive
            };
            let view_state = view_as_instance(synth, &spec.collab().view_of(&state, peer));
            let obs_v = observations_view(synth, &view_state, &chain_pool, &mut skipped)?;
            if obs_p != obs_v {
                return Some(TreeMismatch {
                    state,
                    only_in_p: obs_p.difference(&obs_v).cloned().collect(),
                    only_in_view: obs_v.difference(&obs_p).cloned().collect(),
                });
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesis::synthesize_view_program;
    use cwf_lang::parse_workflow;

    fn limits() -> Limits {
        Limits {
            max_nodes: 4_000_000,
            max_tuples_per_rel: 1,
            extra_constants: Some(2),
        }
    }

    #[test]
    fn canonicalization_identifies_renamings() {
        use cwf_model::{CollabSchema, RelSchema, Schema, Tuple};
        let schema = Schema::from_relations([RelSchema::new("R", ["K", "A"]).unwrap()]).unwrap();
        let r = schema.rel("R").unwrap();
        let mut cs = CollabSchema::new(schema);
        let p = cs.add_peer("p").unwrap();
        cs.set_full_view(p, r).unwrap();
        let mk = |k: Value, a: Value| {
            let mut i = Instance::empty(cs.schema());
            i.rel_mut(r).insert(Tuple::new([k, a])).unwrap();
            cs.view_of(&i, p)
        };
        let known: BTreeSet<Value> = [Value::str("seen")].into_iter().collect();
        let a = canonical_view(
            &mk(Value::Fresh(5), Value::str("seen")),
            cs.schema(),
            &known,
        )
        .unwrap();
        let b = canonical_view(
            &mk(Value::str("$f0"), Value::str("seen")),
            cs.schema(),
            &known,
        )
        .unwrap();
        assert_eq!(a, b, "fresh values canonicalize identically");
        let c = canonical_view(&mk(Value::str("seen"), Value::Null), cs.schema(), &known).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn transparent_synthesis_is_tree_equivalent_on_samples() {
        // The guarded hiring program used throughout the synthesis tests:
        // its silent layer is deterministic enough for the trees to match.
        let spec = Arc::new(
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
                    approve @ ceo: +Approved(x) :- Cleared(x), not key Approved(x);
                    hire @ hr: +Hire(x) :- Approved(x), not key Hire(x);
                }
                "#,
            )
            .unwrap(),
        );
        let sue = spec.collab().peer("sue").unwrap();
        let synth = synthesize_view_program(&spec, sue, 2, &limits()).unwrap();
        let d = sample_tree_divergence(&spec, &synth, sue, 2, &limits(), 8, 6, 3);
        assert!(d.is_none(), "got {d:?}");
    }

    #[test]
    fn hidden_choices_break_tree_equivalence() {
        // An invisible lock rules out the visible emission: two states with
        // the same sue-view have different futures, so no view program can
        // be tree-equivalent — the sampler finds the divergence.
        let spec = Arc::new(
            parse_workflow(
                r#"
                schema { Req(K); Lock(K); Out(K); }
                peers {
                    q sees Req(*), Lock(*), Out(*);
                    p sees Req(*), Out(*);
                }
                rules {
                    req @ p: +Req(x) :- ;
                    lock @ q: +Lock(x) :- Req(x), not key Lock(x);
                    emit @ q: +Out(x) :- Req(x), not key Lock(x), not key Out(x);
                }
                "#,
            )
            .unwrap(),
        );
        let p = spec.collab().peer("p").unwrap();
        let synth = synthesize_view_program(&spec, p, 1, &limits()).unwrap();
        let d = sample_tree_divergence(&spec, &synth, p, 1, &limits(), 20, 6, 11);
        let d = d.expect("the lock divergence must surface");
        assert!(!d.only_in_p.is_empty() || !d.only_in_view.is_empty());
    }
}
