//! Abstract syntax of workflow programs (Section 2).
//!
//! A *rule at peer p* is `Update :- Cond` where `Cond` is a full conjunctive
//! query with negation (FCQ¬) over `D@p` and `Update` is a sequence of
//! insertion atoms `+R@p(x̄)` and deletion atoms `−Key_{R@p}(x)`.
//!
//! Variables are rule-local: each rule carries its own variable name table
//! and [`VarId`]s index into it.

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use cwf_model::{PeerId, RelId, Value};

/// Index of a variable within a rule's variable table.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VarId(pub u32);

impl VarId {
    /// Zero-based index usable with slices.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Index of a rule within a program.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RuleId(pub u32);

impl RuleId {
    /// Zero-based index usable with slices.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A term: a variable or a constant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Term {
    /// A rule variable.
    Var(VarId),
    /// A domain constant (possibly `⊥`).
    Const(Value),
}

impl Term {
    /// The variable, if this term is one.
    pub fn as_var(&self) -> Option<VarId> {
        match self {
            Term::Var(v) => Some(*v),
            Term::Const(_) => None,
        }
    }
}

impl From<VarId> for Term {
    fn from(v: VarId) -> Self {
        Term::Var(v)
    }
}

impl From<Value> for Term {
    fn from(v: Value) -> Self {
        Term::Const(v)
    }
}

/// A literal of an FCQ¬ body over `D@p`.
///
/// Positional convention: the arguments of `Pos`/`Neg` literals follow the
/// *view* attribute order of `R@p` (sorted ids, key first), so `args[0]` is
/// always the key term.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Literal {
    /// `R@p(x̄)`.
    Pos {
        /// The viewed relation.
        rel: RelId,
        /// Arguments in view order; `args[0]` is the key.
        args: Vec<Term>,
    },
    /// `¬R@p(x̄)` (absent in normal form).
    Neg {
        /// The viewed relation.
        rel: RelId,
        /// Arguments in view order; `args[0]` is the key.
        args: Vec<Term>,
    },
    /// `Key_{R@p}(y)` (syntactic sugar; absent in normal form).
    KeyPos {
        /// The viewed relation.
        rel: RelId,
        /// The key term.
        key: Term,
    },
    /// `¬Key_{R@p}(y)` — *not* expressible as sugar, fundamental.
    KeyNeg {
        /// The viewed relation.
        rel: RelId,
        /// The key term.
        key: Term,
    },
    /// `x = y`.
    Eq(Term, Term),
    /// `x ≠ y`.
    Neq(Term, Term),
}

impl Literal {
    /// Is this a positive literal for the purpose of the safety condition?
    /// (`R(ū)` and its sugar `Key_R(y)` both bind variables.)
    pub(crate) fn is_positive(&self) -> bool {
        matches!(self, Literal::Pos { .. } | Literal::KeyPos { .. })
    }

    /// All terms of the literal.
    pub fn terms(&self) -> Vec<&Term> {
        match self {
            Literal::Pos { args, .. } | Literal::Neg { args, .. } => args.iter().collect(),
            Literal::KeyPos { key, .. } | Literal::KeyNeg { key, .. } => vec![key],
            Literal::Eq(a, b) | Literal::Neq(a, b) => vec![a, b],
        }
    }

    /// All variables of the literal.
    pub fn vars(&self) -> BTreeSet<VarId> {
        self.terms().into_iter().filter_map(Term::as_var).collect()
    }
}

/// An update atom of a rule head.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum UpdateAtom {
    /// `+R@p(x̄)` — arguments in view order, `args[0]` the key.
    Insert {
        /// The viewed relation.
        rel: RelId,
        /// Arguments in view order; `args[0]` is the key.
        args: Vec<Term>,
    },
    /// `−Key_{R@p}(x)`.
    Delete {
        /// The viewed relation.
        rel: RelId,
        /// The key term.
        key: Term,
    },
}

impl UpdateAtom {
    /// The relation updated by this atom.
    pub fn rel(&self) -> RelId {
        match self {
            UpdateAtom::Insert { rel, .. } | UpdateAtom::Delete { rel, .. } => *rel,
        }
    }

    /// The key term of the updated tuple.
    pub fn key_term(&self) -> &Term {
        match self {
            UpdateAtom::Insert { args, .. } => &args[0],
            UpdateAtom::Delete { key, .. } => key,
        }
    }

    /// All variables of the atom.
    pub fn vars(&self) -> BTreeSet<VarId> {
        match self {
            UpdateAtom::Insert { args, .. } => args.iter().filter_map(Term::as_var).collect(),
            UpdateAtom::Delete { key, .. } => key.as_var().into_iter().collect(),
        }
    }

    /// Is this an insertion?
    pub fn is_insert(&self) -> bool {
        matches!(self, UpdateAtom::Insert { .. })
    }
}

/// A rule `Update :- Cond` at a peer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rule {
    /// The peer owning the rule.
    pub peer: PeerId,
    /// A human-readable rule name (unique within a program).
    pub name: String,
    /// The update sequence (head).
    pub head: Vec<UpdateAtom>,
    /// The FCQ¬ condition (body).
    pub body: Vec<Literal>,
    /// Variable name table; `VarId(i)` is `vars[i]`.
    pub vars: Vec<String>,
}

impl Rule {
    /// Variables occurring in the body.
    pub fn body_vars(&self) -> BTreeSet<VarId> {
        self.body.iter().flat_map(|l| l.vars()).collect()
    }

    /// Variables bound by *positive* body literals (the safety set).
    pub(crate) fn positive_vars(&self) -> BTreeSet<VarId> {
        self.body
            .iter()
            .filter(|l| l.is_positive())
            .flat_map(|l| l.vars())
            .collect()
    }

    /// Variables occurring in the head.
    pub(crate) fn head_vars(&self) -> BTreeSet<VarId> {
        self.head.iter().flat_map(|u| u.vars()).collect()
    }

    /// Head-only variables: these must be instantiated to globally fresh
    /// values by the run semantics (Section 2).
    pub fn fresh_vars(&self) -> BTreeSet<VarId> {
        let body = self.body_vars();
        self.head_vars()
            .into_iter()
            .filter(|v| !body.contains(v))
            .collect()
    }

    /// All constants of the rule (contributes to `const(P)`).
    pub fn constants(&self) -> BTreeSet<Value> {
        let mut out = BTreeSet::new();
        for l in &self.body {
            for t in l.terms() {
                if let Term::Const(v) = t {
                    out.insert(*v);
                }
            }
        }
        for u in &self.head {
            match u {
                UpdateAtom::Insert { args, .. } => {
                    for t in args {
                        if let Term::Const(v) = t {
                            out.insert(*v);
                        }
                    }
                }
                UpdateAtom::Delete { key, .. } => {
                    if let Term::Const(v) = key {
                        out.insert(*v);
                    }
                }
            }
        }
        out
    }

    /// Does the body contain the syntactic disequality `a ≠ b` (in either
    /// orientation)?
    pub(crate) fn body_has_neq(&self, a: &Term, b: &Term) -> bool {
        self.body.iter().any(|l| match l {
            Literal::Neq(x, y) => (x == a && y == b) || (x == b && y == a),
            _ => false,
        })
    }

    /// Number of relational facts in the body (the `b` of Theorem 6.3).
    pub(crate) fn body_fact_count(&self) -> usize {
        self.body
            .iter()
            .filter(|l| {
                matches!(
                    l,
                    Literal::Pos { .. }
                        | Literal::Neg { .. }
                        | Literal::KeyPos { .. }
                        | Literal::KeyNeg { .. }
                )
            })
            .count()
    }

    /// Is the head a single update (a *linear-head* rule, Section 6)?
    pub fn is_linear_head(&self) -> bool {
        self.head.len() == 1
    }
}

/// A workflow program: a finite set of rules, each owned by a peer.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Program {
    rules: Vec<Rule>,
}

impl Program {
    /// The empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a rule, returning its id.
    pub fn add_rule(&mut self, rule: Rule) -> RuleId {
        let id = RuleId(self.rules.len() as u32);
        self.rules.push(rule);
        id
    }

    /// All rules in id order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The rule with id `r`.
    pub fn rule(&self, r: RuleId) -> &Rule {
        &self.rules[r.index()]
    }

    /// All rule ids.
    pub fn rule_ids(&self) -> impl ExactSizeIterator<Item = RuleId> {
        (0..self.rules.len() as u32).map(RuleId)
    }

    /// The ids of the rules belonging to `peer`.
    pub fn rules_of(&self, peer: PeerId) -> impl Iterator<Item = RuleId> + '_ {
        self.rules
            .iter()
            .enumerate()
            .filter(move |(_, r)| r.peer == peer)
            .map(|(i, _)| RuleId(i as u32))
    }

    /// Resolves a rule by name.
    pub fn rule_by_name(&self, name: &str) -> Option<RuleId> {
        self.rules
            .iter()
            .position(|r| r.name == name)
            .map(|i| RuleId(i as u32))
    }

    /// `const(P)`: the constants used in the program, together with `⊥`
    /// (Section 5).
    pub fn const_set(&self) -> BTreeSet<Value> {
        let mut out: BTreeSet<Value> = self.rules.iter().flat_map(Rule::constants).collect();
        out.insert(Value::Null);
        out
    }

    /// Maximum number of relational facts in any rule body (the `b` of
    /// Theorem 6.3).
    pub fn max_body_facts(&self) -> usize {
        self.rules
            .iter()
            .map(Rule::body_fact_count)
            .max()
            .unwrap_or(0)
    }

    /// Are all rule heads single updates (Section 6's *linear-head* class)?
    pub fn is_linear_head(&self) -> bool {
        self.rules.iter().all(Rule::is_linear_head)
    }
}

/// A builder for constructing rules programmatically (the parser and the
/// workload generators both use it).
#[derive(Debug, Clone)]
pub struct RuleBuilder {
    peer: PeerId,
    name: String,
    head: Vec<UpdateAtom>,
    body: Vec<Literal>,
    vars: Vec<String>,
}

impl RuleBuilder {
    /// Starts a rule named `name` at `peer`.
    pub fn new(peer: PeerId, name: impl Into<String>) -> Self {
        RuleBuilder {
            peer,
            name: name.into(),
            head: Vec::new(),
            body: Vec::new(),
            vars: Vec::new(),
        }
    }

    /// Interns a variable name, returning its id (idempotent per name).
    pub fn var(&mut self, name: impl AsRef<str>) -> Term {
        let name = name.as_ref();
        let id = match self.vars.iter().position(|v| v == name) {
            Some(i) => VarId(i as u32),
            None => {
                self.vars.push(name.to_string());
                VarId(self.vars.len() as u32 - 1)
            }
        };
        Term::Var(id)
    }

    /// Adds `+rel(args)` to the head.
    pub fn insert(mut self, rel: RelId, args: impl IntoIterator<Item = Term>) -> Self {
        self.head.push(UpdateAtom::Insert {
            rel,
            args: args.into_iter().collect(),
        });
        self
    }

    /// Adds `−Key_rel(key)` to the head.
    pub fn delete(mut self, rel: RelId, key: Term) -> Self {
        self.head.push(UpdateAtom::Delete { rel, key });
        self
    }

    /// Adds a positive body literal.
    pub fn pos(mut self, rel: RelId, args: impl IntoIterator<Item = Term>) -> Self {
        self.body.push(Literal::Pos {
            rel,
            args: args.into_iter().collect(),
        });
        self
    }

    /// Adds a negative body literal.
    pub fn neg(mut self, rel: RelId, args: impl IntoIterator<Item = Term>) -> Self {
        self.body.push(Literal::Neg {
            rel,
            args: args.into_iter().collect(),
        });
        self
    }

    /// Adds `Key_rel(key)` to the body.
    pub fn key_pos(mut self, rel: RelId, key: Term) -> Self {
        self.body.push(Literal::KeyPos { rel, key });
        self
    }

    /// Adds `¬Key_rel(key)` to the body.
    pub fn key_neg(mut self, rel: RelId, key: Term) -> Self {
        self.body.push(Literal::KeyNeg { rel, key });
        self
    }

    /// Adds `a = b` to the body.
    pub fn eq(mut self, a: Term, b: Term) -> Self {
        self.body.push(Literal::Eq(a, b));
        self
    }

    /// Adds `a ≠ b` to the body.
    pub fn neq(mut self, a: Term, b: Term) -> Self {
        self.body.push(Literal::Neq(a, b));
        self
    }

    /// Finishes the rule.
    pub fn build(self) -> Rule {
        Rule {
            peer: self.peer,
            name: self.name,
            head: self.head,
            body: self.body,
            vars: self.vars,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: PeerId = PeerId(0);
    const R: RelId = RelId(0);
    const S: RelId = RelId(1);

    /// The HR example of Section 2:
    /// `−Key_Assign(x), +Assign(x′, y) :- Assign(x, y), Replace(x, x′), x ≠ x′`.
    fn hr_rule() -> Rule {
        let mut b = RuleBuilder::new(P, "replace");
        let x = b.var("x");
        let x2 = b.var("x2");
        let y = b.var("y");
        b.delete(R, x.clone())
            .insert(R, [x2.clone(), y.clone()])
            .pos(R, [x.clone(), y.clone()])
            .pos(S, [x.clone(), x2.clone()])
            .neq(x, x2)
            .build()
    }

    #[test]
    fn var_interning_is_idempotent() {
        let mut b = RuleBuilder::new(P, "r");
        let x1 = b.var("x");
        let x2 = b.var("x");
        let y = b.var("y");
        assert_eq!(x1, x2);
        assert_ne!(x1, y);
    }

    #[test]
    fn var_sets() {
        let r = hr_rule();
        assert_eq!(r.vars, vec!["x", "x2", "y"]);
        assert_eq!(r.body_vars().len(), 3);
        assert_eq!(r.head_vars().len(), 3);
        assert!(r.fresh_vars().is_empty());
        assert_eq!(r.positive_vars().len(), 3);
    }

    #[test]
    fn fresh_vars_are_head_only() {
        let mut b = RuleBuilder::new(P, "mint");
        let k = b.var("k");
        let r = b.insert(R, [k, Term::Const(Value::str("c"))]).build();
        assert_eq!(r.fresh_vars().len(), 1);
    }

    #[test]
    fn body_has_neq_checks_both_orientations() {
        let r = hr_rule();
        let x = Term::Var(VarId(0));
        let x2 = Term::Var(VarId(1));
        assert!(r.body_has_neq(&x, &x2));
        assert!(r.body_has_neq(&x2, &x));
        let y = Term::Var(VarId(2));
        assert!(!r.body_has_neq(&x, &y));
    }

    #[test]
    fn constants_and_const_set() {
        let mut prog = Program::new();
        let mut b = RuleBuilder::new(P, "c");
        let x = b.var("x");
        prog.add_rule(
            b.insert(R, [x.clone(), Term::Const(Value::int(7))])
                .pos(R, [x, Term::Const(Value::str("a"))])
                .build(),
        );
        let consts = prog.const_set();
        assert!(consts.contains(&Value::Null), "⊥ is always in const(P)");
        assert!(consts.contains(&Value::int(7)));
        assert!(consts.contains(&Value::str("a")));
        assert_eq!(consts.len(), 3);
    }

    #[test]
    fn program_accessors() {
        let mut prog = Program::new();
        let id = prog.add_rule(hr_rule());
        assert_eq!(prog.rule_by_name("replace"), Some(id));
        assert_eq!(prog.rule_by_name("nope"), None);
        assert_eq!(prog.rules_of(P).count(), 1);
        assert_eq!(prog.rules_of(PeerId(9)).count(), 0);
        assert_eq!(prog.max_body_facts(), 2);
        assert!(!prog.is_linear_head());
    }

    #[test]
    fn literal_classification() {
        let pos = Literal::Pos {
            rel: R,
            args: vec![Term::Var(VarId(0))],
        };
        let keyneg = Literal::KeyNeg {
            rel: R,
            key: Term::Var(VarId(0)),
        };
        let keypos = Literal::KeyPos {
            rel: R,
            key: Term::Var(VarId(0)),
        };
        assert!(pos.is_positive());
        assert!(keypos.is_positive());
        assert!(!keyneg.is_positive());
        assert_eq!(keyneg.vars().len(), 1);
    }

    #[test]
    fn update_atom_accessors() {
        let ins = UpdateAtom::Insert {
            rel: R,
            args: vec![Term::Const(Value::int(0))],
        };
        let del = UpdateAtom::Delete {
            rel: S,
            key: Term::Var(VarId(1)),
        };
        assert!(ins.is_insert());
        assert!(!del.is_insert());
        assert_eq!(ins.rel(), R);
        assert_eq!(del.rel(), S);
        assert_eq!(ins.key_term(), &Term::Const(Value::int(0)));
        assert_eq!(del.vars().len(), 1);
    }
}
