//! Evaluation of FCQ¬ rule bodies over peer views.
//!
//! A *valuation* `ν` of a rule `α` for a global instance `I` maps the rule's
//! variables to `dom` such that `I@p ⊨ Cond(ν(x̄))` (Section 2).
//! [`match_body`] enumerates all such valuations of the body variables by a
//! *planned* join over the positive literals followed by the negative and
//! (dis)equality filters; [`check_body`] verifies one fully-given valuation.
//!
//! The planner picks a static literal order before enumeration: a literal
//! whose key term is already resolvable (a constant, or a variable bound by
//! an earlier literal) becomes a point lookup and goes first; otherwise the
//! literal over the smallest relation in the view is scanned next, ties
//! broken by original body order. Enumeration is then a depth-first search
//! over one scratch [`Bindings`] with a bind/undo trail — no per-tuple
//! clone of the partial assignment.
//!
//! `match_body_pinned` runs the same join with one variable bound
//! beforehand — the delta rule behind the incremental candidate listing of
//! [`crate::simulate`], which re-derives only the valuations that read a
//! changed key.
//!
//! Safety (every body variable occurs in a positive literal) guarantees that
//! after the join phase every body variable is bound, so filters only ever
//! see ground terms.

use cwf_lang::{Literal, Rule, Term, VarId};
use cwf_model::{Value, ViewInstance};

/// A (possibly partial) assignment of rule variables to values, indexed by
/// [`VarId`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Bindings(Vec<Option<Value>>);

impl Bindings {
    /// An empty assignment for a rule with `n` variables.
    pub fn empty(n: usize) -> Self {
        Bindings(vec![None; n])
    }

    /// The value bound to `v`, if any.
    pub fn get(&self, v: VarId) -> Option<&Value> {
        self.0[v.index()].as_ref()
    }

    /// Binds `v` to `value` (overwrites).
    pub fn set(&mut self, v: VarId, value: Value) {
        self.0[v.index()] = Some(value);
    }

    /// Unbinds `v` (the undo half of the join trail).
    fn unset(&mut self, v: VarId) {
        self.0[v.index()] = None;
    }

    /// Resolves a term under this assignment (a copy — [`Value`] is `Copy`).
    pub fn resolve(&self, t: &Term) -> Option<Value> {
        match t {
            Term::Const(v) => Some(*v),
            Term::Var(v) => self.get(*v).copied(),
        }
    }

    /// Is every variable bound?
    pub fn is_total(&self) -> bool {
        self.0.iter().all(Option::is_some)
    }

    /// Number of variable slots.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Is the table empty (rule without variables)?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// The key term of a positive literal (position 0 of a `Pos`, the key of a
/// `KeyPos`).
fn key_term(lit: &Literal) -> &Term {
    match lit {
        Literal::Pos { args, .. } => &args[0],
        Literal::KeyPos { key, .. } => key,
        _ => unreachable!("only positive literals are planned"),
    }
}

/// Is the literal's key term ground under the simulated bound-variable set —
/// i.e. would it run as a point lookup rather than a scan?
fn key_resolvable(lit: &Literal, bound: &[bool]) -> bool {
    match key_term(lit) {
        Term::Const(_) => true,
        Term::Var(x) => bound[x.index()],
    }
}

/// Orders the positive literals of `rule` for enumeration: repeatedly take
/// the first literal whose key term is already resolvable (a point lookup);
/// when none is, scan the literal over the smallest relation in `view`
/// (ties broken by original body order). Static — the plan depends only on
/// the rule, the per-relation sizes and the `prebound` variables, never on
/// enumerated values.
fn plan_body<'a>(rule: &'a Rule, view: &ViewInstance, prebound: Option<VarId>) -> Vec<&'a Literal> {
    let mut remaining: Vec<&Literal> = rule
        .body
        .iter()
        .filter(|l| matches!(l, Literal::Pos { .. } | Literal::KeyPos { .. }))
        .collect();
    let mut bound = vec![false; rule.vars.len()];
    if let Some(x) = prebound {
        bound[x.index()] = true;
    }
    let mut out = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let pick = remaining
            .iter()
            .position(|lit| key_resolvable(lit, &bound))
            .unwrap_or_else(|| {
                let mut best = 0;
                let mut best_len = usize::MAX;
                for (i, lit) in remaining.iter().enumerate() {
                    let rel = match lit {
                        Literal::Pos { rel, .. } | Literal::KeyPos { rel, .. } => *rel,
                        _ => unreachable!(),
                    };
                    let len = view.rel_len(rel);
                    if len < best_len {
                        best = i;
                        best_len = len;
                    }
                }
                best
            });
        let lit = remaining.remove(pick);
        match lit {
            Literal::Pos { args, .. } => {
                for t in args {
                    if let Term::Var(x) = t {
                        bound[x.index()] = true;
                    }
                }
            }
            Literal::KeyPos { key, .. } => {
                if let Term::Var(x) = key {
                    bound[x.index()] = true;
                }
            }
            _ => unreachable!(),
        }
        out.push(lit);
    }
    out
}

/// Like [`unify`] but records every *newly bound* variable on `trail` so the
/// caller can undo to a mark instead of cloning the assignment.
fn unify_on_trail(
    b: &mut Bindings,
    trail: &mut Vec<VarId>,
    args: &[Term],
    values: &[Value],
) -> bool {
    debug_assert_eq!(args.len(), values.len());
    for (t, v) in args.iter().zip(values) {
        match t {
            Term::Const(c) => {
                if c != v {
                    return false;
                }
            }
            Term::Var(x) => match b.get(*x) {
                Some(bound) => {
                    if bound != v {
                        return false;
                    }
                }
                None => {
                    b.set(*x, *v);
                    trail.push(*x);
                }
            },
        }
    }
    true
}

/// Unbinds everything bound past `mark`.
fn undo_to(b: &mut Bindings, trail: &mut Vec<VarId>, mark: usize) {
    while trail.len() > mark {
        let x = trail.pop().expect("trail past mark");
        b.unset(x);
    }
}

/// The depth-first join: one scratch `Bindings`, bind/undo per branch, the
/// negative and (dis)equality filters applied at the leaves (all body
/// variables are bound there, by safety).
fn join_dfs(
    rule: &Rule,
    view: &ViewInstance,
    order: &[&Literal],
    depth: usize,
    b: &mut Bindings,
    trail: &mut Vec<VarId>,
    out: &mut Vec<Bindings>,
) {
    if depth == order.len() {
        if filters_hold(rule, view, b) {
            out.push(b.clone());
        }
        return;
    }
    match order[depth] {
        Literal::Pos { rel, args } => {
            // Bound key ⇒ direct lookup (binary search on the key column).
            if let Some(k) = b.resolve(&args[0]) {
                if let Some(t) = view.get(*rel, &k) {
                    let mark = trail.len();
                    if unify_on_trail(b, trail, args, t.values()) {
                        join_dfs(rule, view, order, depth + 1, b, trail, out);
                    }
                    undo_to(b, trail, mark);
                }
            } else if let Some(store) = view.store(*rel) {
                // Unbound key: probe a secondary index with the first bound
                // non-key argument, if the store is big enough to have one.
                // Index row ids ascend and rows are key-sorted, so the
                // accelerated path enumerates candidates in exactly the
                // order of the full scan (minus rows unify would reject).
                let probe = args
                    .iter()
                    .enumerate()
                    .skip(1)
                    .find_map(|(pos, t)| b.resolve(t).and_then(|v| store.rows_eq(pos, &v)));
                match probe {
                    Some(ids) => {
                        for id in ids {
                            let t = store.row(id);
                            let mark = trail.len();
                            if unify_on_trail(b, trail, args, t.values()) {
                                join_dfs(rule, view, order, depth + 1, b, trail, out);
                            }
                            undo_to(b, trail, mark);
                        }
                    }
                    None => {
                        for t in store {
                            let mark = trail.len();
                            if unify_on_trail(b, trail, args, t.values()) {
                                join_dfs(rule, view, order, depth + 1, b, trail, out);
                            }
                            undo_to(b, trail, mark);
                        }
                    }
                }
            }
        }
        Literal::KeyPos { rel, key } => {
            if let Some(k) = b.resolve(key) {
                if view.contains_key(*rel, &k) {
                    join_dfs(rule, view, order, depth + 1, b, trail, out);
                }
            } else {
                let Term::Var(x) = key else { unreachable!() };
                for k in view.keys(*rel) {
                    b.set(*x, *k);
                    join_dfs(rule, view, order, depth + 1, b, trail, out);
                }
                b.unset(*x);
            }
        }
        _ => unreachable!("only positive literals are planned"),
    }
}

/// Enumerates all valuations of the body variables of `rule` satisfied by
/// `view` (the rule peer's view of the global instance). Deterministic: the
/// literal order is the static plan of [`plan_body`] and view tuples
/// enumerate in key order.
pub fn match_body(rule: &Rule, view: &ViewInstance) -> Vec<Bindings> {
    let order = plan_body(rule, view, None);
    let mut b = Bindings::empty(rule.vars.len());
    let mut trail = Vec::new();
    let mut out = Vec::new();
    join_dfs(rule, view, &order, 0, &mut b, &mut trail, &mut out);
    out
}

/// The valuations of [`match_body`] that bind the body variable `var` to
/// `value`: the same join, planned and run with `var` bound beforehand, so
/// every literal keyed by `var` becomes a point lookup. The order is that of
/// the pinned plan, which may differ from [`match_body`]'s; callers that
/// need [`match_body`]'s order sort by [`match_order`].
pub(crate) fn match_body_pinned(
    rule: &Rule,
    view: &ViewInstance,
    var: VarId,
    value: Value,
) -> Vec<Bindings> {
    let order = plan_body(rule, view, Some(var));
    let mut b = Bindings::empty(rule.vars.len());
    b.set(var, value);
    let mut trail = Vec::new();
    let mut out = Vec::new();
    join_dfs(rule, view, &order, 0, &mut b, &mut trail, &mut out);
    out
}

/// The key terms of `rule`'s positive literals in [`match_body`]'s plan
/// order on `view`. The join visits keys in ascending order at every depth,
/// and a valuation is determined by the keys it matched, so [`match_body`]
/// lists valuations exactly in lexicographic order of these terms' values
/// (see [`cmp_in_order`]).
pub(crate) fn match_order<'a>(rule: &'a Rule, view: &ViewInstance) -> Vec<&'a Term> {
    plan_body(rule, view, None)
        .into_iter()
        .map(key_term)
        .collect()
}

/// Compares two valuations of one rule by the values of `order`'s terms,
/// lexicographically — [`match_body`]'s output order when `order` is
/// [`match_order`].
pub(crate) fn cmp_in_order(order: &[&Term], a: &Bindings, b: &Bindings) -> std::cmp::Ordering {
    order
        .iter()
        .map(|t| a.resolve(t).cmp(&b.resolve(t)))
        .find(|o| o.is_ne())
        .unwrap_or(std::cmp::Ordering::Equal)
}

fn filters_hold(rule: &Rule, view: &ViewInstance, b: &Bindings) -> bool {
    for lit in &rule.body {
        let ok = match lit {
            Literal::Pos { .. } | Literal::KeyPos { .. } => true, // phase 1
            Literal::Neg { rel, args } => {
                let ground: Vec<Value> = args
                    .iter()
                    .map(|t| b.resolve(t).expect("safety: body vars bound"))
                    .collect();
                match view.get(*rel, &ground[0]) {
                    None => true,
                    Some(t) => t.values() != ground.as_slice(),
                }
            }
            Literal::KeyNeg { rel, key } => {
                let k = b.resolve(key).expect("safety: body vars bound");
                !view.contains_key(*rel, &k)
            }
            Literal::Eq(x, y) => b.resolve(x).expect("bound") == b.resolve(y).expect("bound"),
            Literal::Neq(x, y) => b.resolve(x).expect("bound") != b.resolve(y).expect("bound"),
        };
        if !ok {
            return false;
        }
    }
    true
}

/// Checks that a *total* assignment of the body variables satisfies the body
/// on `view` (used when replaying recorded events).
///
/// One scratch clone of the assignment is made up front and reused across
/// literals with the same bind/undo trail as the join — no per-literal
/// clone (any variable the caller left unbound acts as a per-literal
/// wildcard, exactly as before).
pub(crate) fn check_body(rule: &Rule, view: &ViewInstance, bindings: &Bindings) -> bool {
    let mut scratch = bindings.clone();
    let mut trail = Vec::new();
    // Positive literals must match existing visible tuples.
    for lit in &rule.body {
        match lit {
            Literal::Pos { rel, args } => {
                let Some(k) = scratch.resolve(&args[0]) else {
                    return false;
                };
                let Some(t) = view.get(*rel, &k) else {
                    return false;
                };
                let ok = unify_on_trail(&mut scratch, &mut trail, args, t.values());
                undo_to(&mut scratch, &mut trail, 0);
                if !ok {
                    return false;
                }
            }
            Literal::KeyPos { rel, key } => {
                let Some(k) = scratch.resolve(key) else {
                    return false;
                };
                if !view.contains_key(*rel, &k) {
                    return false;
                }
            }
            _ => {}
        }
    }
    filters_hold(rule, view, bindings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwf_lang::{Program, RuleBuilder, WorkflowSpec};
    use cwf_model::{CollabSchema, Instance, PeerId, RelId, RelSchema, Schema, Tuple};

    fn setup() -> (WorkflowSpec, PeerId, RelId, RelId, Instance) {
        let schema = Schema::from_relations([
            RelSchema::new("R", ["K", "A"]).unwrap(),
            RelSchema::new("S", ["K", "B"]).unwrap(),
        ])
        .unwrap();
        let r = schema.rel("R").unwrap();
        let s = schema.rel("S").unwrap();
        let mut cs = CollabSchema::new(schema);
        let p = cs.add_peer("p").unwrap();
        cs.set_full_view(p, r).unwrap();
        cs.set_full_view(p, s).unwrap();
        let mut i = Instance::empty(cs.schema());
        for (k, a) in [(1, "x"), (2, "y"), (3, "x")] {
            i.rel_mut(r)
                .insert(Tuple::new([Value::int(k), Value::str(a)]))
                .unwrap();
        }
        i.rel_mut(s)
            .insert(Tuple::new([Value::int(1), Value::str("x")]))
            .unwrap();
        let spec = WorkflowSpec::new_unchecked(cs, Program::new());
        (spec, p, r, s, i)
    }

    #[test]
    fn single_positive_literal_enumerates_tuples() {
        let (spec, p, r, _, i) = setup();
        let mut b = RuleBuilder::new(p, "t");
        let k = b.var("k");
        let a = b.var("a");
        let rule = b
            .pos(r, [k, a.clone()])
            .insert(r, [Term::Const(Value::int(9)), a])
            .build();
        let view = spec.collab().view_of(&i, p);
        let ms = match_body(&rule, &view);
        assert_eq!(ms.len(), 3);
        // Deterministic key order.
        assert_eq!(ms[0].get(VarId(0)), Some(&Value::int(1)));
        assert_eq!(ms[2].get(VarId(0)), Some(&Value::int(3)));
    }

    #[test]
    fn join_via_shared_variable() {
        let (spec, p, r, s, i) = setup();
        let mut b = RuleBuilder::new(p, "j");
        let k = b.var("k");
        let a = b.var("a");
        // R(k, a), S(k, a): only key 1 has matching a = "x" in both.
        let rule = b
            .pos(r, [k.clone(), a.clone()])
            .pos(s, [k.clone(), a.clone()])
            .insert(r, [Term::Const(Value::int(9)), a])
            .build();
        let view = spec.collab().view_of(&i, p);
        let ms = match_body(&rule, &view);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].get(VarId(0)), Some(&Value::int(1)));
    }

    #[test]
    fn constants_in_literals_filter() {
        let (spec, p, r, _, i) = setup();
        let mut b = RuleBuilder::new(p, "c");
        let k = b.var("k");
        let rule = b
            .pos(r, [k.clone(), Term::Const(Value::str("x"))])
            .insert(
                r,
                [Term::Const(Value::int(9)), Term::Const(Value::str("z"))],
            )
            .build();
        let view = spec.collab().view_of(&i, p);
        assert_eq!(match_body(&rule, &view).len(), 2, "keys 1 and 3 have A = x");
    }

    #[test]
    fn negative_literal_and_keyneg() {
        let (spec, p, r, s, i) = setup();
        let view = spec.collab().view_of(&i, p);
        // R(k, a), not S(k, a): keys 2 and 3 (1 matches S exactly).
        let mut b = RuleBuilder::new(p, "n");
        let k = b.var("k");
        let a = b.var("a");
        let rule = b
            .pos(r, [k.clone(), a.clone()])
            .neg(s, [k.clone(), a.clone()])
            .insert(r, [Term::Const(Value::int(9)), a])
            .build();
        assert_eq!(match_body(&rule, &view).len(), 2);
        // R(k, a), not key S(k): keys 2 and 3.
        let mut b = RuleBuilder::new(p, "nk");
        let k = b.var("k");
        let a = b.var("a");
        let rule = b
            .pos(r, [k.clone(), a.clone()])
            .key_neg(s, k)
            .insert(r, [Term::Const(Value::int(9)), a])
            .build();
        let ms = match_body(&rule, &view);
        assert_eq!(ms.len(), 2);
        assert!(ms.iter().all(|m| m.get(VarId(0)) != Some(&Value::int(1))));
    }

    #[test]
    fn neg_differs_on_some_attribute_still_blocks_only_exact_match() {
        // not S(1, "y") holds because S(1, ·) = "x" ≠ "y".
        let (spec, p, r, s, i) = setup();
        let view = spec.collab().view_of(&i, p);
        let mut b = RuleBuilder::new(p, "nd");
        let k = b.var("k");
        let rule = b
            .pos(r, [k.clone(), Term::Const(Value::str("x"))])
            .neg(s, [k.clone(), Term::Const(Value::str("y"))])
            .insert(
                r,
                [Term::Const(Value::int(9)), Term::Const(Value::str("z"))],
            )
            .build();
        let ms = match_body(&rule, &view);
        assert_eq!(ms.len(), 2, "both keys 1 and 3 pass");
    }

    #[test]
    fn equality_and_disequality_filters() {
        let (spec, p, r, _, i) = setup();
        let view = spec.collab().view_of(&i, p);
        let mut b = RuleBuilder::new(p, "eq");
        let k = b.var("k");
        let k2 = b.var("k2");
        let a = b.var("a");
        // R(k, a), R(k2, a), k ≠ k2: pairs (1,3) and (3,1).
        let rule = b
            .pos(r, [k.clone(), a.clone()])
            .pos(r, [k2.clone(), a.clone()])
            .neq(k, k2)
            .insert(r, [Term::Const(Value::int(9)), a])
            .build();
        assert_eq!(match_body(&rule, &view).len(), 2);
    }

    #[test]
    fn keypos_binds_and_checks() {
        let (spec, p, _, s, i) = setup();
        let view = spec.collab().view_of(&i, p);
        let mut b = RuleBuilder::new(p, "kp");
        let k = b.var("k");
        let rule = b
            .key_pos(s, k.clone())
            .insert(
                s,
                [Term::Const(Value::int(9)), Term::Const(Value::str("b"))],
            )
            .build();
        let ms = match_body(&rule, &view);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].get(VarId(0)), Some(&Value::int(1)));
    }

    #[test]
    fn empty_body_matches_once() {
        let (spec, p, r, _, i) = setup();
        let view = spec.collab().view_of(&i, p);
        let b = RuleBuilder::new(p, "e");
        let rule = b
            .insert(
                r,
                [Term::Const(Value::int(9)), Term::Const(Value::str("z"))],
            )
            .build();
        assert_eq!(match_body(&rule, &view).len(), 1);
    }

    #[test]
    fn check_body_agrees_with_match_body() {
        let (spec, p, r, s, i) = setup();
        let view = spec.collab().view_of(&i, p);
        let mut b = RuleBuilder::new(p, "cb");
        let k = b.var("k");
        let a = b.var("a");
        let rule = b
            .pos(r, [k.clone(), a.clone()])
            .neg(s, [k.clone(), a.clone()])
            .insert(r, [Term::Const(Value::int(9)), a])
            .build();
        for m in match_body(&rule, &view) {
            assert!(check_body(&rule, &view, &m));
        }
        // A non-matching valuation fails.
        let mut bad = Bindings::empty(rule.vars.len());
        bad.set(VarId(0), Value::int(1));
        bad.set(VarId(1), Value::str("x"));
        assert!(!check_body(&rule, &view, &bad), "S(1, x) exists, neg fails");
    }

    #[test]
    fn bindings_utilities() {
        let mut b = Bindings::empty(2);
        assert!(!b.is_total());
        assert!(!b.is_empty());
        b.set(VarId(0), Value::int(1));
        b.set(VarId(1), Value::int(2));
        assert!(b.is_total());
        assert_eq!(b.len(), 2);
        assert_eq!(b.resolve(&Term::Var(VarId(1))), Some(Value::int(2)));
        assert_eq!(
            b.resolve(&Term::Const(Value::str("c"))),
            Some(Value::str("c"))
        );
    }
}
