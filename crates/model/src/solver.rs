//! A complete decision procedure for the selection-condition fragment.
//!
//! Conditions are Boolean combinations of `A = a` and `A = B` over an
//! **infinite** domain. Satisfiability of such a condition reduces to:
//! enumerate truth assignments to its (finitely many) elementary conditions,
//! keep those under which the Boolean structure evaluates to true, and check
//! each surviving assignment for *theory consistency* — i.e. whether a tuple
//! realizing exactly those (dis)equalities exists.
//!
//! Consistency of a set of literals over equality with constants is decided
//! by union-find: merge attribute classes along positive `A = B` literals,
//! label classes with constants along positive `A = a` literals (two distinct
//! labels in one class ⇒ inconsistent), merge classes sharing a label, then
//! check every negative literal against the resulting classes. Because the
//! domain is infinite, any remaining disequalities can always be satisfied
//! by picking fresh values — so this check is sound **and complete**.
//!
//! The procedure is exponential in the number of *distinct atoms* of the
//! condition, which is small for real selection conditions. It powers the
//! losslessness check (`⋁_p σ(R@p)` must be a tautology per visible
//! attribute) and the (C4') check of Section 6.

use std::collections::BTreeMap;

use crate::condition::{Atom, Condition};
use crate::govern::pool::{FirstHit, Pool};
use crate::govern::{Governor, Reason, Verdict};
use crate::schema::AttrId;
use crate::value::Value;

/// Assignment enumeration goes parallel only above this many distinct
/// atoms (2^11 = 2048 assignments): below that, splitting costs more than
/// it saves, and the small conditions of the existing unit tests keep
/// exercising the sequential oracle path verbatim.
const PAR_MIN_ATOMS: usize = 11;

/// Is `cond` satisfiable by some tuple (over any attribute values)?
pub fn satisfiable(cond: &Condition) -> bool {
    match enumerate_sat(cond, &Governor::unlimited()) {
        Ok(sat) => sat,
        Err(_) => unreachable!("an unlimited governor never exhausts"),
    }
}

/// Governed [`satisfiable`] on an explicit [`Pool`]: one governor tick per
/// truth assignment, panic isolation via [`Governor::guard`]. `Exhausted`
/// names the resource that ran out; a condition's satisfiability has no
/// useful partial answer, so this never returns `Anytime`. Above a size
/// threshold the assignment space is split on the first few atoms (the
/// DPLL-style top-variable split) into contiguous mask ranges scanned by the
/// pool's workers. The answer is deterministic and identical to the sequential
/// scan: any consistent assignment settles satisfiability positively no
/// matter which worker finds it, and the all-ranges-exhausted case is the
/// same `false`. A shared first-hit flag lets the remaining workers stop
/// early once any range has found a witness.
pub fn satisfiable_within_pooled(cond: &Condition, gov: &Governor, pool: &Pool) -> Verdict<bool> {
    gov.guard(|| {
        if let Err(r) = gov.check() {
            return Verdict::Exhausted(r);
        }
        let atoms = cond.atoms();
        let n = atoms.len();
        debug_assert!(
            n < 26,
            "condition with ≥26 distinct atoms; solver would blow up"
        );
        if pool.is_sequential() || n < PAR_MIN_ATOMS {
            return match enumerate_sat_range(cond, &atoms, 0, 1u64 << n, gov, None) {
                Ok(sat) => Verdict::Done(sat),
                Err(r) => Verdict::Exhausted(r),
            };
        }
        // Split on the top k atoms: 2^k contiguous ranges of the mask space,
        // a handful per worker so range imbalance steals well.
        let k = split_bits(pool.threads()).min(n - 1);
        let per_range = 1u64 << (n - k);
        let hit = FirstHit::new();
        let outs = pool.run((0..(1u64 << k)).collect(), |idx, hi| {
            enumerate_sat_range(
                cond,
                &atoms,
                hi * per_range,
                (hi + 1) * per_range,
                gov,
                Some((&hit, idx)),
            )
        });
        // Merge in range order. A witness from ANY range is definitive
        // (satisfiability has one fixed positive answer), so `true` wins
        // even when an earlier range was cut off; otherwise the first
        // cutoff in range order is the verdict.
        if outs.iter().any(|o| matches!(o, Ok(true))) {
            return Verdict::Done(true);
        }
        match outs.into_iter().find_map(Result::err) {
            Some(r) => Verdict::Exhausted(r),
            None => Verdict::Done(false),
        }
    })
}

/// `ceil(log2(4 × threads))`: enough split bits for a few ranges per worker.
fn split_bits(threads: usize) -> usize {
    let want = (threads * 4).max(2) as u64;
    (u64::BITS - (want - 1).leading_zeros()) as usize
}

/// The exhaustive assignment enumeration shared by the plain and governed
/// entry points; `Err` reports the exhausted resource.
fn enumerate_sat(cond: &Condition, gov: &Governor) -> Result<bool, Reason> {
    let atoms = cond.atoms();
    let n = atoms.len();
    debug_assert!(
        n < 26,
        "condition with ≥26 distinct atoms; solver would blow up"
    );
    enumerate_sat_range(cond, &atoms, 0, 1u64 << n, gov, None)
}

/// Scans the truth assignments in `[lo, hi)` for a theory-consistent one.
/// `stop` is the parallel early-exit hook: once some range has reported a
/// witness at a smaller index, this range's result can never affect the
/// merged answer, so the scan bails out.
fn enumerate_sat_range(
    cond: &Condition,
    atoms: &[Atom],
    lo: u64,
    hi: u64,
    gov: &Governor,
    stop: Option<(&FirstHit, usize)>,
) -> Result<bool, Reason> {
    for mask in lo..hi {
        if let Some((hit, idx)) = stop {
            if hit.get().is_some() && hit.get() != Some(idx) {
                // Another range already holds a witness; this range's
                // outcome is moot either way.
                return Ok(false);
            }
        }
        gov.tick()?;
        let truth = |atom: &Atom| -> bool {
            let idx = atoms
                .iter()
                .position(|a| a == atom)
                .expect("atom collected");
            mask & (1 << idx) != 0
        };
        if !cond.eval_atoms(&truth) {
            continue;
        }
        let literals: Vec<(Atom, bool)> = atoms
            .iter()
            .enumerate()
            .map(|(i, a)| (a.clone(), mask & (1 << i) != 0))
            .collect();
        if consistent(&literals) {
            if let Some((hit, idx)) = stop {
                hit.offer(idx);
            }
            return Ok(true);
        }
    }
    Ok(false)
}

/// Is `cond` true of **every** tuple?
///
/// ```
/// use cwf_model::{solver, AttrId, Condition, Value};
/// let a = AttrId(1);
/// // A = ⊥ ∨ A ≠ ⊥ covers every tuple…
/// let covering = Condition::or([
///     Condition::eq_const(a, Value::Null),
///     Condition::neq_const(a, Value::Null),
/// ]);
/// assert!(solver::tautology(&covering));
/// // …but A = ⊥ alone does not (Example 2.2's losslessness failure).
/// assert!(!solver::tautology(&Condition::eq_const(a, Value::Null)));
/// ```
pub fn tautology(cond: &Condition) -> bool {
    !satisfiable(&cond.clone().not())
}

/// Does `antecedent` imply `consequent` on every tuple?
pub fn implies(antecedent: &Condition, consequent: &Condition) -> bool {
    !satisfiable(&Condition::and([
        antecedent.clone(),
        consequent.clone().not(),
    ]))
}

/// Are the two conditions true of exactly the same tuples?
pub fn equivalent(a: &Condition, b: &Condition) -> bool {
    implies(a, b) && implies(b, a)
}

/// Decides whether a conjunction of (possibly negated) elementary conditions
/// is realizable by some tuple.
fn consistent(literals: &[(Atom, bool)]) -> bool {
    // Union-find over the attributes that occur.
    let mut uf = UnionFind::default();
    for (atom, _) in literals {
        match atom {
            Atom::EqConst(a, _) => uf.ensure(*a),
            Atom::EqAttr(a, b) => {
                uf.ensure(*a);
                uf.ensure(*b);
            }
        }
    }
    // 1. Merge along positive A = B.
    for (atom, pos) in literals {
        if let (Atom::EqAttr(a, b), true) = (atom, pos) {
            uf.union(*a, *b);
        }
    }
    // 2. Label classes along positive A = a; conflicting labels are
    //    inconsistent.
    let mut labels: BTreeMap<AttrId, Value> = BTreeMap::new();
    for (atom, pos) in literals {
        if let (Atom::EqConst(a, v), true) = (atom, pos) {
            let root = uf.find(*a);
            match labels.get(&root) {
                Some(existing) if existing != v => return false,
                Some(_) => {}
                None => {
                    labels.insert(root, *v);
                }
            }
        }
    }
    // 3. Classes sharing a label are semantically equal: merge them and
    //    re-canonicalize the label map (fixpoint in one pass since labels are
    //    unique per value afterwards).
    let mut by_value: BTreeMap<Value, AttrId> = BTreeMap::new();
    for (root, v) in labels.clone() {
        if let Some(prev) = by_value.get(&v) {
            uf.union(*prev, root);
        } else {
            by_value.insert(v, root);
        }
    }
    let canon_label = |uf: &mut UnionFind, a: AttrId| -> Option<Value> {
        let root = uf.find(a);
        labels
            .iter()
            .find(|(r, _)| uf.find(**r) == root)
            .map(|(_, v)| *v)
    };
    // 4. Check negative literals.
    for (atom, pos) in literals {
        if *pos {
            continue;
        }
        match atom {
            Atom::EqConst(a, v) => {
                // A ≠ a fails iff A's class is labeled exactly a.
                if canon_label(&mut uf, *a).as_ref() == Some(v) {
                    return false;
                }
            }
            Atom::EqAttr(a, b) => {
                // A ≠ B fails iff the classes coincide (directly or via a
                // shared constant label, already merged above).
                if uf.find(*a) == uf.find(*b) {
                    return false;
                }
            }
        }
    }
    true
}

#[derive(Default)]
struct UnionFind {
    parent: BTreeMap<AttrId, AttrId>,
}

impl UnionFind {
    fn ensure(&mut self, a: AttrId) {
        self.parent.entry(a).or_insert(a);
    }

    fn find(&mut self, a: AttrId) -> AttrId {
        let p = *self.parent.get(&a).unwrap_or(&a);
        if p == a {
            return a;
        }
        let root = self.find(p);
        self.parent.insert(a, root);
        root
    }

    fn union(&mut self, a: AttrId, b: AttrId) {
        self.ensure(a);
        self.ensure(b);
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent.insert(ra, rb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrId;

    const A: AttrId = AttrId(1);
    const B: AttrId = AttrId(2);
    const C: AttrId = AttrId(3);

    fn eq(a: AttrId, v: &str) -> Condition {
        Condition::eq_const(a, v)
    }

    #[test]
    fn trivia() {
        assert!(satisfiable(&Condition::True));
        assert!(!satisfiable(&Condition::False));
        assert!(tautology(&Condition::True));
        assert!(!tautology(&Condition::False));
    }

    #[test]
    fn single_equalities_are_satisfiable_not_tautological() {
        assert!(satisfiable(&eq(A, "x")));
        assert!(!tautology(&eq(A, "x")));
        assert!(satisfiable(&Condition::EqAttr(A, B)));
        assert!(!tautology(&Condition::EqAttr(A, B)));
    }

    #[test]
    fn conflicting_constants_unsat() {
        let c = Condition::and([eq(A, "x"), eq(A, "y")]);
        assert!(!satisfiable(&c));
    }

    #[test]
    fn transitive_equality_through_attrs() {
        // A = B ∧ B = C ∧ A = x ∧ C = y is unsat.
        let c = Condition::and([
            Condition::EqAttr(A, B),
            Condition::EqAttr(B, C),
            eq(A, "x"),
            eq(C, "y"),
        ]);
        assert!(!satisfiable(&c));
        // ... but with the same constant it is fine.
        let ok = Condition::and([
            Condition::EqAttr(A, B),
            Condition::EqAttr(B, C),
            eq(A, "x"),
            eq(C, "x"),
        ]);
        assert!(satisfiable(&ok));
    }

    #[test]
    fn shared_constant_forces_attr_equality() {
        // A = x ∧ B = x ∧ A ≠ B is unsat.
        let c = Condition::and([eq(A, "x"), eq(B, "x"), Condition::EqAttr(A, B).not()]);
        assert!(!satisfiable(&c));
    }

    #[test]
    fn disequalities_satisfiable_over_infinite_domain() {
        // A ≠ x ∧ A ≠ y ∧ A ≠ B is satisfiable: infinitely many values remain.
        let c = Condition::and([
            Condition::neq_const(A, "x"),
            Condition::neq_const(A, "y"),
            Condition::EqAttr(A, B).not(),
        ]);
        assert!(satisfiable(&c));
    }

    #[test]
    fn excluded_middle_is_tautology() {
        let c = Condition::or([eq(A, "x"), eq(A, "x").not()]);
        assert!(tautology(&c));
    }

    #[test]
    fn case_split_tautology() {
        // (A = ⊥) ∨ (A ≠ ⊥) covers everything — the Example 2.2 shape.
        let c = Condition::or([
            Condition::eq_const(A, Value::Null),
            Condition::neq_const(A, Value::Null),
        ]);
        assert!(tautology(&c));
        // (A = ⊥) ∨ true is a tautology too.
        let d = Condition::or([Condition::eq_const(A, Value::Null), Condition::True]);
        assert!(tautology(&d));
        // (A = ⊥) alone is not.
        assert!(!tautology(&Condition::eq_const(A, Value::Null)));
    }

    #[test]
    fn implication_and_equivalence() {
        let strong = Condition::and([eq(A, "x"), eq(B, "y")]);
        let weak = eq(A, "x");
        assert!(implies(&strong, &weak));
        assert!(!implies(&weak, &strong));
        assert!(equivalent(
            &weak,
            &Condition::or([weak.clone(), Condition::False])
        ));
    }

    #[test]
    fn negated_attr_equality_with_chain() {
        // A = B ∧ B = C ∧ A ≠ C is unsat (transitivity through union-find).
        let c = Condition::and([
            Condition::EqAttr(A, B),
            Condition::EqAttr(B, C),
            Condition::EqAttr(A, C).not(),
        ]);
        assert!(!satisfiable(&c));
    }

    #[test]
    fn de_morgan_equivalence() {
        let lhs = Condition::and([eq(A, "x"), eq(B, "y")]).not();
        let rhs = Condition::or([eq(A, "x").not(), eq(B, "y").not()]);
        assert!(equivalent(&lhs, &rhs));
    }

    #[test]
    fn governed_solver_agrees_with_plain() {
        use crate::govern::Governor;
        let c = Condition::and([eq(A, "x"), eq(B, "y"), Condition::EqAttr(A, B).not()]);
        let gov = Governor::with_nodes(1_000);
        assert_eq!(
            satisfiable_within_pooled(&c, &gov, Pool::global()),
            Verdict::Done(satisfiable(&c))
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    fn panicking_evaluator_becomes_exhausted_panicked() {
        use crate::govern::{Governor, Reason};
        // 26 distinct atoms trip the solver's blow-up assertion. The guard
        // converts the panic into a verdict instead of unwinding into a
        // coordinator serving other peers.
        let huge = Condition::and((0u32..26).map(|i| eq(AttrId(i), "v")).collect::<Vec<_>>());
        match satisfiable_within_pooled(&huge, &Governor::unlimited(), Pool::global()) {
            Verdict::Exhausted(Reason::Panicked(msg)) => {
                assert!(msg.contains("solver would blow up"), "got: {msg}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn governed_solver_reports_exhaustion() {
        use crate::govern::{Governor, Reason};
        // Ten distinct atoms -> 1024 assignments; a 4-node budget cuts off.
        let big = Condition::and((0u32..10).map(|i| eq(AttrId(i), "v")).collect::<Vec<_>>());
        let gov = Governor::with_nodes(4);
        assert_eq!(
            satisfiable_within_pooled(&big, &gov, Pool::global()),
            Verdict::Exhausted(Reason::Nodes)
        );
    }
}
