//! Random run generation.
//!
//! The simulator enumerates the applicable events of every peer/rule on the
//! current instance and samples among them, drawing globally fresh values
//! for head-only variables. It powers the workload generators, the property
//! tests ("for random runs, …") and the sampling falsifiers of Section 5.

use rand::prelude::*;

use cwf_lang::{Literal, Rule, RuleId, Term, VarId};
use cwf_model::{RelId, Value, ViewInstance};

use crate::error::EngineError;
use crate::eval::{cmp_in_order, match_body, match_body_pinned, match_order, Bindings};
use crate::event::Event;
use crate::run::{Run, StepFacts};

/// A candidate instantiation: rule plus body bindings (head-only variables
/// still unbound).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// The rule to fire.
    pub rule: RuleId,
    /// Bindings of the body variables.
    pub bindings: Bindings,
}

/// Per rule (by id), its body matches on a run's current instance, in
/// [`match_body`] order. It lives in the run's derived state: built on the
/// first [`candidates`] call, stepped by every push, and emptied by a pop
/// and on a clone.
pub(crate) struct Listing {
    rules: Vec<Vec<Bindings>>,
}

/// Enumerates all candidate instantiations on the current instance of `run`
/// (deterministic order: rules by id, valuations in [`match_body`] order).
///
/// The matches are maintained incrementally: each push re-derives only the
/// matches that read a key its event created, deleted or modified. The
/// result is always identical to re-running [`match_body`] for every rule
/// (a debug assertion checks it).
///
/// A candidate's updates may still fail (chase conflict, subsumption); the
/// simulator skips such candidates.
pub fn candidates(run: &Run) -> Vec<Candidate> {
    let out = run.listing().flatten();
    debug_assert!(
        out == Listing::build(run).flatten(),
        "incremental candidates must equal the from-scratch listing"
    );
    out
}

impl Listing {
    /// Every rule's matches, from scratch.
    pub(crate) fn build(run: &Run) -> Listing {
        let program = run.spec().program();
        let rules = program
            .rules()
            .iter()
            .map(|rule| match_body(rule, run.peer_view(rule.peer)))
            .collect();
        Listing { rules }
    }

    /// The listing as candidates: rules by id, matches in order.
    fn flatten(&self) -> Vec<Candidate> {
        self.rules
            .iter()
            .enumerate()
            .flat_map(|(r, ms)| {
                ms.iter().map(move |b| Candidate {
                    rule: RuleId(r as u32),
                    bindings: b.clone(),
                })
            })
            .collect()
    }
}

impl StepFacts for Listing {
    /// Folds the last push's diff into the matches.
    ///
    /// A literal's truth depends only on the view tuple at its resolved key,
    /// and a view tuple at key `k` only on the base tuple at `k`. So a match
    /// that appeared or disappeared reads, through some literal, a key the
    /// diff touched: dropping those matches and re-deriving them with that
    /// literal's key pinned to each touched key is exact.
    fn step(&mut self, run: &Run) {
        let d = run.diff(run.len() - 1);
        let mut touched: Vec<(RelId, Value)> = Vec::new();
        touched.extend(d.created.iter().map(|(r, t)| (*r, *t.key())));
        touched.extend(d.deleted.iter().map(|(r, t)| (*r, *t.key())));
        touched.extend(d.modified.iter().map(|(r, k, _)| (*r, *k)));
        touched.sort_unstable();
        for (rule, matches) in run.spec().program().rules().iter().zip(&mut self.rules) {
            refresh_rule(rule, run.peer_view(rule.peer), &touched, matches);
        }
    }
}

/// The relation and key term of a literal that reads a view tuple.
fn keyed(lit: &Literal) -> Option<(RelId, &Term)> {
    match lit {
        Literal::Pos { rel, args } | Literal::Neg { rel, args } => Some((*rel, &args[0])),
        Literal::KeyPos { rel, key } | Literal::KeyNeg { rel, key } => Some((*rel, key)),
        Literal::Eq(..) | Literal::Neq(..) => None,
    }
}

/// Brings one rule's matches up to date with the `touched` `(rel, key)`
/// pairs (sorted, distinct), keeping [`match_body`]'s order.
fn refresh_rule(
    rule: &Rule,
    view: &ViewInstance,
    touched: &[(RelId, Value)],
    matches: &mut Vec<Bindings>,
) {
    // Each literal over a relation with touched keys, with those keys.
    let hits: Vec<(&Term, &[(RelId, Value)])> = rule
        .body
        .iter()
        .filter_map(keyed)
        .map(|(rel, t)| {
            let lo = touched.partition_point(|(r, _)| *r < rel);
            let hi = touched.partition_point(|(r, _)| *r <= rel);
            (t, &touched[lo..hi])
        })
        .filter(|(_, keys)| !keys.is_empty())
        .collect();
    if hits.is_empty() {
        return;
    }
    let hit = |keys: &[(RelId, Value)], v: &Value| keys.binary_search_by(|(_, k)| k.cmp(v)).is_ok();
    // A constant key that was touched may flip every match at once.
    if hits
        .iter()
        .any(|(t, keys)| matches!(t, Term::Const(c) if hit(keys, c)))
    {
        *matches = match_body(rule, view);
        return;
    }
    matches.retain(|b| {
        !hits
            .iter()
            .any(|(t, keys)| b.resolve(t).is_some_and(|v| hit(keys, &v)))
    });
    for (t, keys) in &hits {
        if let Term::Var(x) = t {
            for (_, k) in *keys {
                matches.extend(match_body_pinned(rule, view, *x, *k));
            }
        }
    }
    let order = match_order(rule, view);
    matches.sort_by(|a, b| cmp_in_order(&order, a, b));
    // A match re-derived through several literals or keys appears once.
    matches.dedup();
}

/// Completes a candidate into an event by drawing fresh values for its
/// head-only variables from the run's generator.
pub fn complete(run: &mut Run, cand: &Candidate) -> Event {
    let spec = run.spec_arc();
    let rule = spec.program().rule(cand.rule);
    let mut bindings = cand.bindings.clone();
    for v in 0..rule.vars.len() {
        let v = VarId(v as u32);
        if bindings.get(v).is_none() {
            let fresh = run.draw_fresh();
            bindings.set(v, fresh);
        }
    }
    Event {
        rule: cand.rule,
        peer: rule.peer,
        valuation: bindings,
    }
}

/// A random-walk simulator over a run.
pub struct Simulator<R: Rng> {
    run: Run,
    rng: R,
}

impl<R: Rng> Simulator<R> {
    /// Wraps an existing run (possibly mid-flight).
    pub fn new(run: Run, rng: R) -> Self {
        Simulator { run, rng }
    }

    /// The current run.
    pub fn run(&self) -> &Run {
        &self.run
    }

    /// Finishes simulation, returning the run.
    pub fn into_run(self) -> Run {
        self.run
    }

    /// Fires one random applicable event. Returns `false` when no candidate
    /// could be applied (deadlock for this instance).
    pub fn step(&mut self) -> Result<bool, EngineError> {
        let mut cands = candidates(&self.run);
        // Try candidates in random order until one applies; candidates can
        // fail on chase conflicts or subsumption even with a true body.
        while !cands.is_empty() {
            let i = self.rng.gen_range(0..cands.len());
            let cand = cands.swap_remove(i);
            let event = complete(&mut self.run, &cand);
            match self.run.push(event) {
                Ok(()) => return Ok(true),
                Err(
                    EngineError::InsertChase(_)
                    | EngineError::InsertNotSubsumed { .. }
                    | EngineError::DeleteInvisible { .. },
                ) => continue,
                Err(other) => return Err(other),
            }
        }
        Ok(false)
    }

    /// Runs up to `n` random steps (stopping early on deadlock), returning
    /// the number of events fired.
    pub fn steps(&mut self, n: usize) -> Result<usize, EngineError> {
        let mut fired = 0;
        for _ in 0..n {
            if !self.step()? {
                break;
            }
            fired += 1;
        }
        Ok(fired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwf_lang::parse_workflow;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn spec() -> Arc<cwf_lang::WorkflowSpec> {
        Arc::new(
            parse_workflow(
                r#"
                schema { Task(K, Owner); Done(K); }
                peers { alice sees Task(*), Done(*); bob sees Task(*), Done(*); }
                rules {
                    create @ alice: +Task(t, "alice") :- ;
                    take   @ bob:   -key Task(x), +Done(y)
                        :- Task(x, o), not key Done(x);
                }
                "#,
            )
            .unwrap(),
        )
    }

    #[test]
    fn candidates_enumerate_rules_and_valuations() {
        let spec = spec();
        let run = Run::new(Arc::clone(&spec));
        let cs = candidates(&run);
        // Only `create` is applicable on the empty instance.
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].rule, RuleId(0));
    }

    #[test]
    fn complete_draws_fresh_for_head_only_vars() {
        let spec = spec();
        let mut run = Run::new(Arc::clone(&spec));
        let cand = candidates(&run).remove(0);
        let e = complete(&mut run, &cand);
        let v = *e.valuation.get(VarId(0)).unwrap();
        assert!(v.is_fresh());
        run.push(e).unwrap();
        // A second completion draws a different value.
        let cand = candidates(&run)
            .into_iter()
            .find(|c| c.rule == RuleId(0))
            .unwrap();
        let e2 = complete(&mut run, &cand);
        assert_ne!(e2.valuation.get(VarId(0)), Some(&v));
    }

    #[test]
    fn simulator_makes_progress_and_is_deterministic_per_seed() {
        let spec = spec();
        let mk = |seed: u64| {
            let mut sim = Simulator::new(Run::new(Arc::clone(&spec)), StdRng::seed_from_u64(seed));
            let fired = sim.steps(20).unwrap();
            (fired, format!("{:?}", sim.run()))
        };
        let (f1, d1) = mk(42);
        let (f2, d2) = mk(42);
        assert_eq!(f1, f2);
        assert_eq!(d1, d2, "same seed ⇒ same run");
        assert!(f1 > 0);
        let (_, d3) = mk(7);
        assert_ne!(d1, d3, "different seeds diverge (overwhelmingly likely)");
    }

    /// The listing, checked against every rule's `match_body` (the debug
    /// assertion inside `candidates` is off in release test builds).
    fn listed(run: &Run) -> Vec<Candidate> {
        let got = candidates(run);
        assert_eq!(
            got,
            Listing::build(run).flatten(),
            "incremental listing after {} events",
            run.len()
        );
        got
    }

    /// The names of the listed rules, in listing order.
    fn rule_names(run: &Run) -> Vec<String> {
        let program = run.spec().program();
        listed(run)
            .iter()
            .map(|c| program.rule(c.rule).name.clone())
            .collect()
    }

    /// Fires rule `name` with the named body variables bound as given.
    fn fire(run: &mut Run, name: &str, body: &[(&str, Value)]) {
        let rid = run.spec().program().rule_by_name(name).unwrap();
        let rule = run.spec().program().rule(rid);
        let mut bindings = Bindings::empty(rule.vars.len());
        for (var, v) in body {
            let i = rule.vars.iter().position(|n| n == var).unwrap();
            bindings.set(VarId(i as u32), *v);
        }
        let event = complete(
            run,
            &Candidate {
                rule: rid,
                bindings,
            },
        );
        run.push(event).unwrap();
    }

    #[test]
    fn constant_keys_in_pos_neg_and_keyneg_literals() {
        let spec = Arc::new(
            parse_workflow(
                r#"
                schema { T(K, A); U(K); }
                peers { p sees T(*), U(*); }
                rules {
                    seed_a @ p: +T(0, "a") :- not key T(0);
                    clear @ p: -key T(0) :- T(0, a);
                    mark @ p: +U(u) :- not T(0, "a");
                    pair @ p: +U(v) :- T(0, a), U(u);
                }
                "#,
            )
            .unwrap(),
        );
        let mut run = Run::new(spec);
        assert_eq!(rule_names(&run), ["seed_a", "mark"]);
        fire(&mut run, "seed_a", &[]);
        assert_eq!(rule_names(&run), ["clear"]);
        fire(&mut run, "clear", &[("a", Value::str("a"))]);
        assert_eq!(rule_names(&run), ["seed_a", "mark"]);
        fire(&mut run, "mark", &[]);
        fire(&mut run, "mark", &[]);
        assert_eq!(rule_names(&run), ["seed_a", "mark"]);
        // One push flips the constant-keyed literals of three rules and
        // enables a two-row join through the constant-keyed `T(0, a)`.
        fire(&mut run, "seed_a", &[]);
        assert_eq!(rule_names(&run), ["clear", "pair", "pair"]);
    }

    #[test]
    fn null_fill_moves_tuples_into_and_out_of_selected_views() {
        let spec = Arc::new(
            parse_workflow(
                r#"
                schema { Task(K, Owner, Status); Log(K); }
                peers {
                    lead sees Task(*);
                    intake sees Task(K, Status) where Owner = null, Log(*);
                    board sees Task(K, Owner) where Status = "done", Log(*);
                }
                rules {
                    open @ lead: +Task(t, null, null) :- ;
                    claim @ lead: +Task(t, o, null) :- Task(t, null, null);
                    finish @ lead: +Task(t, null, "done") :- Task(t, o, null), o != null;
                    triage @ intake: +Log(l) :- Task(t, s), not key Log(t);
                    report @ board: +Log(l) :- Task(t, o), not key Log(t);
                }
                "#,
            )
            .unwrap(),
        );
        let mut run = Run::new(spec);
        fire(&mut run, "open", &[]);
        fire(&mut run, "open", &[]);
        assert_eq!(
            rule_names(&run),
            ["open", "claim", "claim", "triage", "triage"]
        );
        let first = *run.current().rel(RelId(0)).iter().next().unwrap().key();
        // Claiming fills the owner in place: the task leaves intake's view.
        fire(&mut run, "claim", &[("t", first)]);
        assert_eq!(rule_names(&run), ["open", "claim", "finish", "triage"]);
        // Finishing fills the status in place: it enters board's view.
        let owner = run.current().rel(RelId(0)).get(&first).unwrap().values()[1];
        fire(&mut run, "finish", &[("t", first), ("o", owner)]);
        assert_eq!(rule_names(&run), ["open", "claim", "triage", "report"]);
    }

    #[test]
    fn deletes_and_empty_bodies() {
        let spec = spec();
        let mut run = Run::new(Arc::clone(&spec));
        // `create` has an empty body: listed exactly once, always.
        assert_eq!(rule_names(&run), ["create"]);
        fire(&mut run, "create", &[]);
        fire(&mut run, "create", &[]);
        assert_eq!(rule_names(&run), ["create", "take", "take"]);
        let tasks: Vec<Value> = run
            .current()
            .rel(RelId(0))
            .iter()
            .map(|t| *t.key())
            .collect();
        // `take` deletes the task it reads: its match goes, the other stays.
        let alice = Value::str("alice");
        fire(&mut run, "take", &[("x", tasks[1]), ("o", alice)]);
        let after = listed(&run);
        assert_eq!(after.len(), 2);
        let x = VarId(
            spec.program()
                .rule(after[1].rule)
                .vars
                .iter()
                .position(|n| n == "x")
                .unwrap() as u32,
        );
        assert_eq!(after[1].bindings.get(x), Some(&tasks[0]));
    }

    #[test]
    fn pop_and_clone_drop_the_cached_matches() {
        let spec = spec();
        let mut run = Run::new(Arc::clone(&spec));
        fire(&mut run, "create", &[]);
        assert_eq!(listed(&run).len(), 2);
        // Pop, then push another event: same length, different state.
        run.pop().unwrap();
        fire(&mut run, "create", &[]);
        fire(&mut run, "create", &[]);
        let copy = run.clone();
        assert_eq!(listed(&run).len(), 3);
        let task = *run.current().rel(RelId(0)).iter().next().unwrap().key();
        run.pop().unwrap();
        fire(&mut run, "take", &[("x", task), ("o", Value::str("alice"))]);
        assert_eq!(rule_names(&run), ["create"]);
        // The clone was taken before any of that and lists its own state.
        assert_eq!(listed(&copy).len(), 3);
    }

    #[test]
    fn simulator_reports_deadlock() {
        // A program whose only rule fires once.
        let spec = Arc::new(
            parse_workflow(
                r#"
                schema { T(K); }
                peers { p sees T(*); }
                rules { once @ p: +T(0) :- not key T(0); }
                "#,
            )
            .unwrap(),
        );
        let mut sim = Simulator::new(Run::new(spec), StdRng::seed_from_u64(0));
        assert_eq!(sim.steps(10).unwrap(), 1);
        assert!(!sim.step().unwrap());
    }
}
