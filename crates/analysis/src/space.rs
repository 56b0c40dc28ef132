//! The bounded search space of the Section 5 decision procedures.
//!
//! The proofs of Theorems 5.10/5.11 show that violations of h-boundedness
//! and transparency are witnessed by instances and event sequences over a
//! *constant pool* `C_m`: the program constants plus polynomially many fresh
//! constants (Lemmas A.2/A.3 — properties are invariant under isomorphism
//! and under restriction to the keys an event sequence touches). This module
//! provides:
//!
//! * the pool `C_m` ([`constant_pool`]);
//! * enumeration of bounded instances over the pool
//!   ([`InstanceEnumerator`]);
//! * enumeration of the *p-fresh* instances (Definition 5.5) reachable from
//!   those by one p-visible event ([`fresh_instances`]);
//! * the one silent-chain explorer (`Explorer`) that the decision
//!   procedures of Theorems 5.10 and 5.11, the synthesis of Theorem 5.13
//!   and the tree check of Remark 5.2 share: it enumerates the
//!   silent-then-visible chains over the pool that are their own minimum
//!   p-faithful run, stepping one state in place and back.
//!
//! Everything is governed: the procedures are PSPACE-complete, so the
//! implementations are explicit exponential searches that charge every node
//! to a [`Governor`] and report
//! [`Exhausted`](crate::Decision::Exhausted) when any limit is hit.

use std::collections::BTreeSet;
use std::ops::{ControlFlow, RangeInclusive};
use std::sync::Arc;

use cwf_core::{facts, tp_closure, EventSet};
use cwf_engine::{apply_event, event_visible, Event, Run, ScratchRun};
use cwf_lang::WorkflowSpec;
use cwf_model::{Bound, FirstHit, Governor, Instance, PeerId, Reason, Tuple, Value, Verdict};

/// Budgets and caps for the bounded searches.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Maximum number of search nodes (instances × sequences examined).
    pub max_nodes: u64,
    /// Maximum number of tuples per relation in enumerated instances.
    pub max_tuples_per_rel: usize,
    /// Override the number of fresh constants in the pool (default:
    /// computed from the program and `m`).
    pub extra_constants: Option<usize>,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_nodes: 2_000_000,
            max_tuples_per_rel: 2,
            extra_constants: None,
        }
    }
}

/// The constant pool `C_m`: `const(P) ∖ {⊥}` plus fresh constants
/// `$c0, $c1, …` (denotable by nothing in the program, hence usable as the
/// canonical "new values" of Lemma A.2).
pub(crate) fn constant_pool(spec: &WorkflowSpec, m: usize, limits: &Limits) -> Vec<Value> {
    let mut pool: Vec<Value> = spec
        .program()
        .const_set()
        .into_iter()
        .filter(|v| !v.is_null())
        .collect();
    let max_vars = spec
        .program()
        .rules()
        .iter()
        .map(|r| r.vars.len())
        .max()
        .unwrap_or(0);
    let max_arity = spec.collab().schema().max_arity();
    // c_m: enough for every variable of every event of a length-m sequence
    // plus the non-key attributes of the instance tuples those keys anchor.
    let computed = m * max_vars * (1 + max_arity.saturating_sub(1));
    let extra = limits.extra_constants.unwrap_or(computed.max(1));
    for i in 0..extra {
        pool.push(Value::str(format!("$c{i}")));
    }
    pool
}

/// The pool used to *complete* head-only variables canonically: the instance
/// pool plus reserved constants `$f0, $f1, …` that never appear in
/// enumerated instances, so a chain of up to `m` events always has fresh
/// headroom regardless of how saturated the instance is.
pub(crate) fn completion_pool(spec: &WorkflowSpec, m: usize, pool: &[Value]) -> Vec<Value> {
    let max_fresh = spec
        .program()
        .rules()
        .iter()
        .map(|r| r.fresh_vars().len())
        .max()
        .unwrap_or(0);
    let mut full = pool.to_vec();
    for i in 0..(m + 1) * max_fresh.max(1) {
        full.push(Value::str(format!("$f{i}")));
    }
    full
}

/// Enumerates the events applicable on `instance` whose body variables are
/// bound by matching and whose head-only variables take *canonical fresh
/// values*: the first pool constants outside `avoid ∪ const(P) ∪
/// adom(instance)`, pairwise distinct. By Lemma A.2 one canonical completion
/// per (rule, body valuation) covers all fresh choices up to isomorphism, so
/// the searches of Theorems 5.10/5.11/5.13 never enumerate ground templates.
///
/// Returns `None` when the pool has too few unused constants for some
/// completion (raise `extra_constants`).
pub(crate) fn applicable_events(
    spec: &WorkflowSpec,
    instance: &Instance,
    pool: &[Value],
    avoid: &BTreeSet<Value>,
) -> Option<Vec<Event>> {
    use cwf_engine::match_body;
    let consts = spec.program().const_set();
    let inst_adom = instance.adom();
    let mut out = Vec::new();
    for rid in spec.program().rule_ids() {
        let rule = spec.program().rule(rid);
        let view = spec.collab().view_of(instance, rule.peer);
        let fresh_vars: Vec<_> = rule.fresh_vars().into_iter().collect();
        for mut b in match_body(rule, &view) {
            let mut taken: BTreeSet<Value> = BTreeSet::new();
            let mut ok = true;
            for &v in &fresh_vars {
                let candidate = pool.iter().find(|c| {
                    !consts.contains(*c)
                        && !avoid.contains(*c)
                        && !taken.contains(*c)
                        && !inst_adom.contains(*c)
                });
                match candidate {
                    Some(c) => {
                        taken.insert(*c);
                        b.set(v, *c);
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                return None;
            }
            out.push(Event {
                rule: rid,
                peer: rule.peer,
                valuation: b,
            });
        }
    }
    Some(out)
}

/// The one silent-chain explorer of Theorems 5.10, 5.11 and 5.13.
///
/// [`Explorer::chains`] enumerates, depth first in candidate order, the
/// chains on an initial instance whose events are all silent at `peer` but
/// the last, which is visible, whose length lies in `lens`, and which are
/// their own minimum p-faithful run (`T_p^ω` of the last event covers the
/// chain). Candidates are [`applicable_events`] of the current state, so
/// fresh values are completed canonically from `pool`.
///
/// The search owns one [`ScratchRun`]: each candidate is stepped in place
/// ([`ScratchRun::apply`]) and taken back ([`ScratchRun::undo`]), and its
/// visibility is read off the step's own view delta. A whole [`Run`] is
/// replayed only at a visible leaf of a wanted length, for the closure
/// check, and that `Run` is what the caller's visitor receives. (Pushing and
/// popping one `Run` instead would rebuild its live state on every pop.)
///
/// Every candidate trial costs one governor node. A [`FirstHit`] `stop`
/// (parallel workers only) abandons a node once a smaller frontier index
/// has reported a hit: the index-ordered merge will not read this one.
#[derive(Clone)]
pub(crate) struct Explorer<'a> {
    pub(crate) spec: &'a Arc<WorkflowSpec>,
    pub(crate) peer: PeerId,
    pub(crate) pool: &'a [Value],
    pub(crate) lens: RangeInclusive<usize>,
    pub(crate) gov: &'a Governor,
    pub(crate) stop: Option<(&'a FirstHit, usize)>,
}

impl<'a> Explorer<'a> {
    /// An explorer for chains of `lens` events, with no `stop`.
    pub(crate) fn new(
        spec: &'a Arc<WorkflowSpec>,
        peer: PeerId,
        pool: &'a [Value],
        lens: RangeInclusive<usize>,
        gov: &'a Governor,
    ) -> Self {
        let stop = None;
        Explorer {
            spec,
            peer,
            pool,
            lens,
            gov,
            stop,
        }
    }

    /// Calls `visit` with each chain `prefix · α` on `initial` (see the
    /// type docs), in candidate order, until it breaks. The events of
    /// `prefix` must apply on `initial` and be silent at the peer.
    pub(crate) fn chains(
        &self,
        initial: &Instance,
        prefix: &[Event],
        visit: &mut dyn FnMut(Run) -> ControlFlow<()>,
    ) -> Result<(), Reason> {
        if self.lens.is_empty() {
            return Ok(());
        }
        let mut state = ScratchRun::new(Arc::clone(self.spec), initial.clone());
        for e in prefix {
            state
                .try_push(e)
                .expect("the prefix applies on the initial instance");
        }
        let mut path = prefix.to_vec();
        self.extend(initial, &mut state, &mut path, visit).map(drop)
    }

    /// Steps every candidate event of `state` in place, calls `f` with the
    /// stepped state, the event and whether it is visible at the peer, then
    /// takes the step back. Events that do not apply are skipped.
    pub(crate) fn steps(
        &self,
        state: &mut ScratchRun,
        mut f: impl FnMut(&mut ScratchRun, &Event, bool) -> Result<ControlFlow<()>, Reason>,
    ) -> Result<ControlFlow<()>, Reason> {
        let Some(candidates) =
            applicable_events(self.spec, state.current(), self.pool, state.used_values())
        else {
            // Not enough fresh headroom in the pool: a capacity-style
            // exhaustion (raise `extra_constants`).
            return Err(Reason::SizeCap);
        };
        for event in &candidates {
            // One governor node per candidate trial: the budget measures
            // real work, so exhaustion fires promptly on huge spaces.
            self.gov.tick()?;
            let Ok(undo) = state.apply(event) else {
                continue;
            };
            let visible = event.peer == self.peer || state.changed(self.peer);
            let flow = f(state, event, visible);
            state.undo(undo);
            if flow?.is_break() {
                return Ok(ControlFlow::Break(()));
            }
        }
        Ok(ControlFlow::Continue(()))
    }

    /// The DFS below `path`, the chain `state` is at: a visible event ends
    /// a chain, a silent one extends it while it is shorter than `lens`.
    fn extend(
        &self,
        initial: &Instance,
        state: &mut ScratchRun,
        path: &mut Vec<Event>,
        visit: &mut dyn FnMut(Run) -> ControlFlow<()>,
    ) -> Result<ControlFlow<()>, Reason> {
        if self.stop.is_some_and(|(hit, idx)| hit.beats(idx)) {
            return Ok(ControlFlow::Continue(()));
        }
        self.steps(state, |state, event, visible| {
            path.push(event.clone());
            let len = path.len();
            let flow = if !visible && len < *self.lens.end() {
                self.extend(initial, state, path, visit)
            } else if visible && self.lens.contains(&len) {
                Ok(self.leaf(initial, path, visit))
            } else {
                Ok(ControlFlow::Continue(()))
            };
            path.pop();
            flow
        })
    }

    /// Replays the visible-ended chain `path` and hands it to `visit` if it
    /// is its own minimum p-faithful run.
    fn leaf(
        &self,
        initial: &Instance,
        path: &[Event],
        visit: &mut dyn FnMut(Run) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let run = Run::replay(Arc::clone(self.spec), initial.clone(), path.iter().cloned())
            .expect("the explorer stepped this chain");
        let seed = EventSet::from_iter(run.len(), [run.len() - 1]);
        if tp_closure(&run, facts(&run).index(), self.peer, &seed).len() == run.len() {
            visit(run)
        } else {
            ControlFlow::Continue(())
        }
    }
}

/// Enumerates valid instances over the pool: per relation, up to
/// `max_tuples_per_rel` tuples whose key is a pool value and whose other
/// attributes are pool values or `⊥`.
pub struct InstanceEnumerator {
    /// Candidate tuples per relation.
    tuples: Vec<Vec<Tuple>>,
    /// Current choice: per relation, indices (strictly increasing) of chosen
    /// tuples with distinct keys.
    state: Option<Vec<Vec<usize>>>,
    max_per_rel: usize,
    schema_len: usize,
}

impl InstanceEnumerator {
    /// Sets up enumeration for `spec`'s schema over `pool`.
    pub fn new(spec: &WorkflowSpec, pool: &[Value], limits: &Limits) -> Self {
        let schema = spec.collab().schema();
        let mut tuples = Vec::new();
        for r in schema.rel_ids() {
            let arity = schema.relation(r).arity();
            let mut rel_tuples = Vec::new();
            // Key from pool; other attributes from pool ∪ {⊥}.
            let mut attr_domain: Vec<Value> = vec![Value::Null];
            attr_domain.extend(pool.iter().cloned());
            let mut idx = vec![0usize; arity];
            'outer: loop {
                // Position 0 indexes into pool, others into attr_domain.
                let mut vals = Vec::with_capacity(arity);
                if pool.is_empty() {
                    break;
                }
                vals.push(pool[idx[0]]);
                for &i in &idx[1..] {
                    vals.push(attr_domain[i]);
                }
                rel_tuples.push(Tuple::new(vals));
                // Odometer with mixed radices.
                let mut d = 0;
                loop {
                    if d == arity {
                        break 'outer;
                    }
                    idx[d] += 1;
                    let radix = if d == 0 {
                        pool.len()
                    } else {
                        attr_domain.len()
                    };
                    if idx[d] < radix {
                        break;
                    }
                    idx[d] = 0;
                    d += 1;
                }
            }
            tuples.push(rel_tuples);
        }
        InstanceEnumerator {
            tuples,
            state: Some(vec![Vec::new(); schema.len()]),
            max_per_rel: limits.max_tuples_per_rel,
            schema_len: schema.len(),
        }
    }

    /// Builds the instance for the current selection.
    fn build(&self, spec: &WorkflowSpec) -> Option<Instance> {
        let state = self.state.as_ref()?;
        let mut inst = Instance::empty(spec.collab().schema());
        for (r, chosen) in state.iter().enumerate() {
            let rel = cwf_model::RelId(r as u32);
            let mut keys: BTreeSet<&Value> = BTreeSet::new();
            for &ti in chosen {
                let t = &self.tuples[r][ti];
                if !keys.insert(t.key()) {
                    return None; // duplicate key: invalid combination
                }
                inst.rel_mut(rel).insert(t.clone()).ok()?;
            }
        }
        Some(inst)
    }

    /// Advances the selection odometer. Each relation's selection is a
    /// subset (as a sorted index list) of its candidate tuples of size
    /// ≤ `max_per_rel`.
    fn advance(&mut self) {
        let Some(state) = self.state.as_mut() else {
            return;
        };
        for (sel, tuples) in state.iter_mut().zip(&self.tuples).take(self.schema_len) {
            if Self::advance_subset(sel, tuples.len(), self.max_per_rel) {
                return;
            }
            sel.clear();
        }
        self.state = None;
    }

    /// Advances one subset in (size, lexicographic) order; `false` on wrap.
    fn advance_subset(sel: &mut Vec<usize>, n: usize, max: usize) -> bool {
        // Try to advance like a combination counter.
        if sel.is_empty() {
            if n == 0 || max == 0 {
                return false;
            }
            sel.push(0);
            return true;
        }
        let k = sel.len();
        // Increment last position that can move.
        let mut i = k;
        loop {
            if i == 0 {
                // Grow the subset size.
                if k < max && k < n {
                    sel.clear();
                    sel.extend(0..k + 1);
                    return true;
                }
                return false;
            }
            i -= 1;
            let maxval = n - (k - i);
            if sel[i] < maxval {
                sel[i] += 1;
                for j in i + 1..k {
                    sel[j] = sel[j - 1] + 1;
                }
                return true;
            }
        }
    }
}

/// Iterator-style access: `next_instance` returns valid instances until the
/// space (or never) — combine with an external [`Governor`].
impl InstanceEnumerator {
    /// The next valid instance, or `None` when the space is exhausted.
    pub(crate) fn next_instance(&mut self, spec: &WorkflowSpec) -> Option<Instance> {
        while self.state.is_some() {
            let built = self.build(spec);
            self.advance();
            if let Some(i) = built {
                return Some(i);
            }
        }
        None
    }
}

/// Enumerates p-fresh instances (Definition 5.5) over the pool: the empty
/// instance plus every `e(I)` for an enumerated `I` and applicable event `e`
/// visible at `peer`. Deduplicated. On governor cutoff the instances found
/// so far are returned as an [`Verdict::Anytime`] answer whose bound carries
/// the partial reachable-set cardinality as a lower bound; a pool with too
/// few fresh constants is reported as [`Reason::SizeCap`] (raise
/// `extra_constants`).
///
/// **Reading choices** (documented in DESIGN.md): the generating event must
/// instantiate head-only variables to values *globally fresh for `I`*
/// (outside `adom(I) ∪ const(P)`), as run events do — Definition 5.5 does
/// not state this explicitly, but without it the fresh-stage-id mechanism of
/// Section 6 (Example 5.7) cannot establish transparency. Fresh values are
/// completed canonically (Lemma A.2), so each `(I, rule, body valuation)`
/// contributes one representative per isomorphism class.
pub(crate) fn fresh_instances(
    spec: &WorkflowSpec,
    peer: PeerId,
    pool: &[Value],
    completion: &[Value],
    limits: &Limits,
    gov: &Governor,
) -> Verdict<Vec<Instance>> {
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut out = Vec::new();
    let empty = Instance::empty(spec.collab().schema());
    seen.insert(format!("{empty:?}"));
    out.push(empty);
    let partial = |out: Vec<Instance>, reason: Reason| {
        let found = out.len() as u64;
        Verdict::Anytime(
            out,
            Bound {
                reason,
                lower: Some(found),
                upper: None,
            },
        )
    };
    let mut en = InstanceEnumerator::new(spec, pool, limits);
    while let Some(inst) = en.next_instance(spec) {
        if let Err(reason) = gov.tick() {
            return partial(out, reason);
        }
        let Some(events) = applicable_events(spec, &inst, completion, &BTreeSet::new()) else {
            return Verdict::Exhausted(Reason::SizeCap);
        };
        for e in &events {
            if let Err(reason) = gov.tick() {
                return partial(out, reason);
            }
            let Ok(next) = apply_event(spec, &inst, e) else {
                continue;
            };
            if event_visible(spec, e, &inst, &next, peer) {
                let key = format!("{next:?}");
                if seen.insert(key) {
                    out.push(next);
                }
            }
        }
    }
    Verdict::Done(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwf_lang::{parse_workflow, VarId};

    fn prop_spec() -> WorkflowSpec {
        parse_workflow(
            r#"
            schema { A(K); B(K); }
            peers { q sees A(*), B(*); p sees B(*); }
            rules {
                mk_a @ q: +A(0) :- ;
                mk_b @ q: +B(0) :- A(0);
            }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn pool_contains_program_constants_and_fresh() {
        let spec = prop_spec();
        let pool = constant_pool(&spec, 2, &Limits::default());
        assert!(pool.contains(&Value::int(0)));
        assert!(pool
            .iter()
            .any(|v| matches!(v, Value::Str(s) if s.starts_with("$c"))));
        assert!(!pool.contains(&Value::Null));
    }

    #[test]
    fn pool_size_override() {
        let spec = prop_spec();
        let limits = Limits {
            extra_constants: Some(3),
            ..Default::default()
        };
        let pool = constant_pool(&spec, 2, &limits);
        assert_eq!(pool.len(), 1 + 3, "const 0 plus three fresh");
    }

    #[test]
    fn instance_enumeration_counts() {
        let spec = prop_spec();
        let pool = vec![Value::int(0)];
        let limits = Limits {
            max_tuples_per_rel: 1,
            ..Default::default()
        };
        let mut en = InstanceEnumerator::new(&spec, &pool, &limits);
        let mut n = 0;
        while let Some(i) = en.next_instance(&spec) {
            assert!(i.total_tuples() <= 2);
            n += 1;
        }
        // Each unary relation: {} or {A(0)} ⇒ 2 × 2 = 4 instances.
        assert_eq!(n, 4);
    }

    #[test]
    fn instance_enumeration_skips_duplicate_keys() {
        let spec = parse_workflow(
            r#"
            schema { R(K, A); }
            peers { p sees R(*); }
            rules { }
            "#,
        )
        .unwrap();
        let pool = vec![Value::int(0)];
        let limits = Limits {
            max_tuples_per_rel: 2,
            ..Default::default()
        };
        let mut en = InstanceEnumerator::new(&spec, &pool, &limits);
        let mut count = 0;
        while let Some(i) = en.next_instance(&spec) {
            // Keys unique within each relation by construction.
            let rel = cwf_model::RelId(0);
            let keys: Vec<_> = i.rel(rel).keys().collect();
            let mut dedup = keys.clone();
            dedup.dedup();
            assert_eq!(keys.len(), dedup.len());
            count += 1;
        }
        // Tuples over K=0, A ∈ {⊥, 0}: 2 candidate tuples, but both share
        // key 0 ⇒ subsets: {}, {t1}, {t2} = 3 instances ({t1,t2} invalid).
        assert_eq!(count, 3);
    }

    #[test]
    fn fresh_instances_include_empty_and_one_step() {
        let spec = prop_spec();
        let p = spec.collab().peer("p").unwrap();
        let q = spec.collab().peer("q").unwrap();
        let pool = vec![Value::int(0)];
        let limits = Limits {
            max_tuples_per_rel: 1,
            ..Default::default()
        };
        // p sees only B: p-fresh instances are ∅ and those reached by a
        // p-visible event (mk_b insertions).
        let comp = completion_pool(&spec, 2, &pool);
        let fresh_p = fresh_instances(&spec, p, &pool, &comp, &limits, &Governor::unlimited())
            .into_value()
            .unwrap();
        assert!(fresh_p.iter().any(Instance::is_empty));
        assert!(fresh_p.len() >= 2);
        // Every non-empty one contains B(0).
        let b = spec.collab().schema().rel("B").unwrap();
        for i in &fresh_p {
            if !i.is_empty() {
                assert!(i.rel(b).contains_key(&Value::int(0)));
            }
        }
        // For q everything it does is visible ⇒ at least as many.
        let fresh_q = fresh_instances(&spec, q, &pool, &comp, &limits, &Governor::unlimited())
            .into_value()
            .unwrap();
        assert!(fresh_q.len() >= fresh_p.len());
    }

    #[test]
    fn applicable_events_complete_fresh_vars_canonically() {
        let spec = parse_workflow(
            r#"
            schema { R(K, A); }
            peers { p sees R(*); }
            rules { mk @ p: +R(x, y) :- ; }
            "#,
        )
        .unwrap();
        let pool = vec![Value::str("$c0"), Value::str("$c1"), Value::str("$c2")];
        let inst = Instance::empty(spec.collab().schema());
        let evs = applicable_events(&spec, &inst, &pool, &BTreeSet::new()).unwrap();
        // One canonical completion: x = $c0, y = $c1 (distinct).
        assert_eq!(evs.len(), 1);
        let vals: Vec<_> = (0..2)
            .map(|i| *evs[0].valuation.get(VarId(i)).unwrap())
            .collect();
        assert_eq!(vals, vec![Value::str("$c0"), Value::str("$c1")]);
        // Pool too small for two distinct fresh values → None.
        let tiny = vec![Value::str("$c0")];
        assert!(applicable_events(&spec, &inst, &tiny, &BTreeSet::new()).is_none());
    }

    #[test]
    fn governor_cutoff_returns_partial_anytime_answer() {
        let spec = prop_spec();
        let p = spec.collab().peer("p").unwrap();
        let pool = constant_pool(&spec, 2, &Limits::default());
        let gov = Governor::with_nodes(1);
        let comp = completion_pool(&spec, 2, &pool);
        let cut = fresh_instances(&spec, p, &pool, &comp, &Limits::default(), &gov);
        match cut {
            Verdict::Anytime(partial, bound) => {
                // The empty instance is always seeded before the cutoff.
                assert!(!partial.is_empty());
                assert_eq!(bound.reason, Reason::Nodes);
                assert_eq!(bound.lower, Some(partial.len() as u64));
            }
            other => panic!("expected an anytime cutoff, got {other:?}"),
        }
    }
}
