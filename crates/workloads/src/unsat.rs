//! The UNSAT reduction of Theorem 3.4.
//!
//! For a Boolean formula `φ` over `x_1 … x_n` (with `φ(all-true) = false`),
//! the proof uses one relation `R` of arity `n + 2` (key `K`, one attribute
//! `A_{x_i}` per variable, and `A_q`); peers `p_{x_i}` seeing `K, A_{x_i}`,
//! a peer `q` seeing `K, A_q`, and the observer `p` seeing `π_K(R)` under
//! the selection
//!
//! ```text
//! σ_p = (A_q = 1) ∧ (δ ∨ δ_φ)      δ = ⋀_i A_{x_i} = 1
//! ```
//!
//! where `δ_φ` encodes `φ` with `A_{x_i} = 1` as the literal `x_i`. The run
//! `r_{x_1} … r_{x_n} e` is a minimal scenario at `p` **iff** `φ` is
//! unsatisfiable — the workload of experiment E2 (coNP-hard minimality
//! checking).

use std::sync::Arc;

use rand::prelude::*;

use cwf_engine::{Bindings, Event, Run};
use cwf_lang::{Program, RuleBuilder, Term, WorkflowSpec};
use cwf_model::{AttrId, CollabSchema, Condition, RelSchema, Schema, Value, ViewRel};

/// A CNF formula: clauses of non-zero literals (DIMACS-style; `-3` is
/// `¬x_3`, variables are `1..=n`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cnf {
    /// Number of variables.
    pub n: usize,
    /// The clauses.
    pub clauses: Vec<Vec<i32>>,
}

impl Cnf {
    /// Brute-force satisfiability (for cross-checks on small formulas).
    pub fn satisfiable(&self) -> bool {
        (0u32..(1 << self.n)).any(|mask| self.eval_mask(mask))
    }

    /// Evaluates under the assignment encoded in `mask` (bit `i−1` = `x_i`).
    pub(crate) fn eval_mask(&self, mask: u32) -> bool {
        self.clauses.iter().all(|clause| {
            clause.iter().any(|&lit| {
                let set = mask & (1 << (lit.unsigned_abs() as usize - 1)) != 0;
                if lit > 0 {
                    set
                } else {
                    !set
                }
            })
        })
    }

    /// Does `φ(all-true)` hold? The reduction requires it to be `false`.
    pub(crate) fn all_true_satisfies(&self) -> bool {
        self.eval_mask((1u32 << self.n) - 1)
    }

    /// A random k-CNF with the all-true assignment falsified (an all-negative
    /// clause is appended when needed), as required by the reduction.
    pub fn random(n: usize, k: usize, clause_len: usize, rng: &mut impl Rng) -> Self {
        let mut clauses: Vec<Vec<i32>> = (0..k)
            .map(|_| {
                let mut vars: Vec<usize> = (1..=n).collect();
                vars.shuffle(rng);
                vars.truncate(clause_len.min(n));
                vars.into_iter()
                    .map(|v| {
                        if rng.gen_bool(0.5) {
                            v as i32
                        } else {
                            -(v as i32)
                        }
                    })
                    .collect()
            })
            .collect();
        let mut cnf = Cnf {
            n,
            clauses: clauses.clone(),
        };
        if cnf.all_true_satisfies() {
            clauses.push((1..=n).map(|v| -(v as i32)).collect());
            cnf = Cnf { n, clauses };
        }
        cnf
    }
}

/// The generated Theorem 3.4 workload.
#[derive(Debug, Clone)]
pub struct UnsatWorkload {
    /// The workflow spec.
    pub spec: Arc<WorkflowSpec>,
    /// The observer peer `p`.
    pub p: cwf_model::PeerId,
    /// The formula.
    pub cnf: Cnf,
}

/// Builds the Theorem 3.4 workflow for `cnf`.
pub fn unsat_workload(cnf: Cnf) -> UnsatWorkload {
    let n = cnf.n;
    // R(K, A1 … An, Aq).
    let mut attrs = vec!["K".to_string()];
    for i in 1..=n {
        attrs.push(format!("A{i}"));
    }
    attrs.push("Aq".to_string());
    let mut schema = Schema::new();
    let r = schema
        .add_relation(RelSchema::new("R", attrs).unwrap())
        .unwrap();
    let a = |i: usize| AttrId(i as u32); // A_i at position i; Aq at n+1.
    let aq = a(n + 1);
    let mut collab = CollabSchema::new(schema);
    // Variable peers.
    let mut var_peers = Vec::new();
    for i in 1..=n {
        let px = collab.add_peer(format!("px{i}")).unwrap();
        collab
            .set_view(px, ViewRel::new(r, [a(i)], Condition::True))
            .unwrap();
        var_peers.push(px);
    }
    let q = collab.add_peer("q").unwrap();
    collab
        .set_view(q, ViewRel::new(r, [aq], Condition::True))
        .unwrap();
    // The observer: sees π_K(R) under σ_p.
    let p = collab.add_peer("p").unwrap();
    let delta = Condition::and((1..=n).map(|i| Condition::eq_const(a(i), 1i64)));
    let delta_phi = Condition::and(cnf.clauses.iter().map(|clause| {
        Condition::or(clause.iter().map(|&lit| {
            let base = Condition::eq_const(a(lit.unsigned_abs() as usize), 1i64);
            if lit > 0 {
                base
            } else {
                base.not()
            }
        }))
    }));
    let sigma = Condition::and([
        Condition::eq_const(aq, 1i64),
        Condition::or([delta, delta_phi]),
    ]);
    collab.set_view(p, ViewRel::new(r, [], sigma)).unwrap();
    // Rules: +R@px_i(0, 1) and +R@q(0, 1).
    let mut program = Program::new();
    for (i, &px) in var_peers.iter().enumerate() {
        program.add_rule(
            RuleBuilder::new(px, format!("rx{}", i + 1))
                .insert(r, [Term::Const(Value::int(0)), Term::Const(Value::int(1))])
                .build(),
        );
    }
    program.add_rule(
        RuleBuilder::new(q, "e")
            .insert(r, [Term::Const(Value::int(0)), Term::Const(Value::int(1))])
            .build(),
    );
    let spec = Arc::new(WorkflowSpec::new(collab, program).expect("reduction is well-formed"));
    UnsatWorkload { spec, p, cnf }
}

impl UnsatWorkload {
    /// The run `r_{x_1} … r_{x_n} e` of the proof.
    pub fn canonical_run(&self) -> Run {
        let mut run = Run::new(Arc::clone(&self.spec));
        for i in 1..=self.cnf.n {
            let rid = self.spec.program().rule_by_name(&format!("rx{i}")).unwrap();
            run.push(Event::new(&self.spec, rid, Bindings::empty(0)).unwrap())
                .expect("variable inserts merge via the chase");
        }
        let e = self.spec.program().rule_by_name("e").unwrap();
        run.push(Event::new(&self.spec, e, Bindings::empty(0)).unwrap())
            .expect("q's insert completes the tuple");
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwf_core::{is_minimal_exact, EventSet};
    use cwf_model::{Governor, Verdict};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// φ = (¬x1 ∨ ¬x2): satisfiable (e.g. x1 false), all-true falsifies.
    fn sat_formula() -> Cnf {
        Cnf {
            n: 2,
            clauses: vec![vec![-1, -2]],
        }
    }

    /// φ = (¬x1) ∧ (x1): unsatisfiable.
    fn unsat_formula() -> Cnf {
        Cnf {
            n: 1,
            clauses: vec![vec![-1], vec![1]],
        }
    }

    #[test]
    fn cnf_evaluation() {
        assert!(sat_formula().satisfiable());
        assert!(!sat_formula().all_true_satisfies());
        assert!(!unsat_formula().satisfiable());
    }

    #[test]
    fn p_sees_the_key_only_after_the_last_event() {
        let w = unsat_workload(sat_formula());
        let run = w.canonical_run();
        // p's view is empty until e sets Aq = 1.
        for i in 0..run.len() - 1 {
            assert!(!run.visible_at(i, w.p), "event {i} must be silent at p");
        }
        assert!(run.visible_at(run.len() - 1, w.p));
        assert_eq!(run.view(w.p).len(), 1);
    }

    #[test]
    fn theorem_3_4_satisfiable_formula_gives_non_minimal_run() {
        // φ satisfiable ⇒ a strict subsequence (the satisfying valuation's
        // inserts + e) is a scenario ⇒ ρ is not minimal.
        let w = unsat_workload(sat_formula());
        let run = w.canonical_run();
        let full = EventSet::full(run.len());
        assert_eq!(
            is_minimal_exact(&run, w.p, &full, &Governor::unlimited()),
            Verdict::Done(false)
        );
    }

    #[test]
    fn theorem_3_4_unsat_formula_gives_minimal_run() {
        let w = unsat_workload(unsat_formula());
        let run = w.canonical_run();
        let full = EventSet::full(run.len());
        assert_eq!(
            is_minimal_exact(&run, w.p, &full, &Governor::unlimited()),
            Verdict::Done(true)
        );
    }

    #[test]
    fn random_formulas_falsify_all_true() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let cnf = Cnf::random(4, 3, 2, &mut rng);
            assert!(!cnf.all_true_satisfies());
            let w = unsat_workload(cnf.clone());
            let run = w.canonical_run();
            // The theorem, end to end, on random formulas.
            let full = EventSet::full(run.len());
            let minimal = is_minimal_exact(&run, w.p, &full, &Governor::unlimited())
                .into_value()
                .unwrap();
            assert_eq!(minimal, !cnf.satisfiable(), "cnf: {cnf:?}");
        }
    }
}
