//! Normal-form programs (Proposition 2.3).
//!
//! A workflow program is in *normal form* if
//!
//! 1. each rule whose head contains a deletion `−Key_{R@q}(x)` also contains
//!    a literal `R@q(x, ū)` in its body (making explicit that deletions are
//!    effective), and
//! 2. rule bodies contain no negative literals `¬R@q(x, ū)` and no positive
//!    `Key_{R@q}(x)` literals.
//!
//! The rewriting follows the paper's construction: positive `Key` literals
//! become full positive literals with fresh variables; a negative literal
//! `¬R@q(x, ū)` is case-split into (a) `¬Key_{R@q}(x)` (no visible tuple with
//! key `x`) and (b) one rule per non-key view attribute `A`, asserting a
//! visible tuple `R@q(x, z̄)` with `ū(A) ≠ z̄(A)`. A rule with several
//! negative literals yields the cartesian product of case choices; the map
//! `θ` sends each produced rule back to its original.

use cwf_model::PeerId;

use crate::ast::{Literal, Program, Rule, RuleId, Term, UpdateAtom, VarId};
use crate::spec::WorkflowSpec;

/// The result of normalization: the normal-form spec and the rule map `θ`
/// (`theta[new_rule.index()]` is the originating rule of `new_rule`).
#[derive(Debug, Clone)]
pub struct NormalForm {
    /// The normal-form workflow spec (same collaborative schema).
    pub spec: WorkflowSpec,
    /// `θ`: new rule id → original rule id.
    pub theta: Vec<RuleId>,
}

impl NormalForm {
    /// The original rule that produced `new_rule`.
    pub fn origin(&self, new_rule: RuleId) -> RuleId {
        self.theta[new_rule.index()]
    }
}

/// Is `rule` in normal form (conditions (i) and (ii) above)?
pub(crate) fn is_normal_form_rule(rule: &Rule) -> bool {
    let no_banned_literals = rule
        .body
        .iter()
        .all(|l| !matches!(l, Literal::Neg { .. } | Literal::KeyPos { .. }));
    let deletions_witnessed = rule.head.iter().all(|u| match u {
        UpdateAtom::Delete { rel, key } => rule.body.iter().any(|l| match l {
            Literal::Pos { rel: r, args } => r == rel && &args[0] == key,
            _ => false,
        }),
        UpdateAtom::Insert { .. } => true,
    });
    no_banned_literals && deletions_witnessed
}

/// Is every rule of `program` in normal form?
pub fn is_normal_form(program: &Program) -> bool {
    program.rules().iter().all(is_normal_form_rule)
}

/// Normalizes a validated spec per Proposition 2.3.
pub fn normalize(spec: &WorkflowSpec) -> NormalForm {
    let mut program = Program::new();
    let mut theta = Vec::new();
    for (idx, rule) in spec.program().rules().iter().enumerate() {
        let origin = RuleId(idx as u32);
        for new_rule in normalize_rule(spec, rule) {
            program.add_rule(new_rule);
            theta.push(origin);
        }
    }
    NormalForm {
        spec: WorkflowSpec::new_unchecked(spec.collab().clone(), program),
        theta,
    }
}

/// Produces the set `Rules(r)` of normal-form rules for one rule.
fn normalize_rule(spec: &WorkflowSpec, rule: &Rule) -> Vec<Rule> {
    // Work on a mutable copy whose variable table we may extend.
    let mut fresh = FreshVars::new(rule.vars.clone());

    // Step 1: replace positive Key literals and collect negative literals
    // for the case split; everything else passes through.
    let mut base_body: Vec<Literal> = Vec::new();
    let mut negatives: Vec<(cwf_model::RelId, Vec<Term>)> = Vec::new();
    for lit in &rule.body {
        match lit {
            Literal::KeyPos { rel, key } => {
                let width = spec
                    .view_width(rule.peer, *rel)
                    .expect("validated rule views exist");
                let mut args = vec![key.clone()];
                for _ in 1..width {
                    args.push(Term::Var(fresh.next()));
                }
                base_body.push(Literal::Pos { rel: *rel, args });
            }
            Literal::Neg { rel, args } => negatives.push((*rel, args.clone())),
            other => base_body.push(other.clone()),
        }
    }

    // Step 2: cartesian case split over the negative literals.
    // A case for ¬R(x, ū) is either KeyNeg(x) or, per non-key position i,
    // Pos(R, (x, z̄)) ∧ ū[i] ≠ z̄[i].
    #[derive(Clone)]
    enum Case {
        NoKey,
        DiffersAt(usize),
    }
    let mut case_sets: Vec<Vec<Case>> = Vec::new();
    for (_, args) in &negatives {
        let mut cases = vec![Case::NoKey];
        for i in 1..args.len() {
            cases.push(Case::DiffersAt(i));
        }
        case_sets.push(cases);
    }

    let mut out = Vec::new();
    let mut selection = vec![0usize; case_sets.len()];
    loop {
        // Emit the rule for the current case selection.
        let mut body = base_body.clone();
        let mut vars_for_rule = fresh.clone();
        for (ci, (rel, args)) in negatives.iter().enumerate() {
            match case_sets[ci][selection[ci]] {
                Case::NoKey => body.push(Literal::KeyNeg {
                    rel: *rel,
                    key: args[0].clone(),
                }),
                Case::DiffersAt(i) => {
                    let mut pos_args = vec![args[0].clone()];
                    let mut z_at_i = None;
                    for j in 1..args.len() {
                        let z = Term::Var(vars_for_rule.next());
                        if j == i {
                            z_at_i = Some(z.clone());
                        }
                        pos_args.push(z);
                    }
                    body.push(Literal::Pos {
                        rel: *rel,
                        args: pos_args,
                    });
                    body.push(Literal::Neq(
                        args[i].clone(),
                        z_at_i.expect("i is a non-key position"),
                    ));
                }
            }
        }
        // Step 3 (condition (i)): witness every deletion.
        let mut head = rule.head.clone();
        for u in &mut head {
            if let UpdateAtom::Delete { rel, key } = u {
                let witnessed = body.iter().any(|l| match l {
                    Literal::Pos { rel: r, args } => r == rel && &args[0] == key,
                    _ => false,
                });
                if !witnessed {
                    let width = spec
                        .view_width(rule.peer, *rel)
                        .expect("validated rule views exist");
                    let mut args = vec![key.clone()];
                    for _ in 1..width {
                        args.push(Term::Var(vars_for_rule.next()));
                    }
                    body.push(Literal::Pos { rel: *rel, args });
                }
            }
        }
        let name = if case_sets.is_empty() && out.is_empty() && selection.is_empty() {
            rule.name.clone()
        } else {
            format!("{}#nf{}", rule.name, out.len())
        };
        out.push(Rule {
            peer: rule.peer,
            name,
            head,
            body,
            vars: vars_for_rule.into_names(),
        });
        // Advance the case selection (odometer).
        let mut i = 0;
        loop {
            if i == selection.len() {
                return dedup_names(rule.peer, rule, out);
            }
            selection[i] += 1;
            if selection[i] < case_sets[i].len() {
                break;
            }
            selection[i] = 0;
            i += 1;
        }
    }
}

/// Keeps the original rule name when only one rule was produced.
fn dedup_names(_peer: PeerId, original: &Rule, mut rules: Vec<Rule>) -> Vec<Rule> {
    if rules.len() == 1 {
        rules[0].name = original.name.clone();
    }
    rules
}

/// Allocator of fresh variable names over an existing table.
#[derive(Clone)]
struct FreshVars {
    names: Vec<String>,
    counter: usize,
}

impl FreshVars {
    fn new(names: Vec<String>) -> Self {
        FreshVars { names, counter: 0 }
    }

    fn next(&mut self) -> VarId {
        loop {
            let candidate = format!("_z{}", self.counter);
            self.counter += 1;
            if !self.names.contains(&candidate) {
                let id = VarId(self.names.len() as u32);
                self.names.push(candidate);
                return id;
            }
        }
    }

    fn into_names(self) -> Vec<String> {
        self.names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::RuleBuilder;
    use cwf_model::{CollabSchema, Condition, RelId, RelSchema, Schema, Value, ViewRel};

    fn two_rel_spec() -> (WorkflowSpec, PeerId, RelId, RelId) {
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
        (WorkflowSpec::new_unchecked(cs, Program::new()), p, r, s)
    }

    fn with_rules(spec: &WorkflowSpec, rules: Vec<Rule>) -> WorkflowSpec {
        let mut prog = Program::new();
        for r in rules {
            prog.add_rule(r);
        }
        WorkflowSpec::new(spec.collab().clone(), prog).expect("test rules are valid")
    }

    #[test]
    fn already_normal_rule_passes_through() {
        let (spec, p, r, _) = two_rel_spec();
        let mut b = RuleBuilder::new(p, "ok");
        let x = b.var("x");
        let y = b.var("y");
        let rule = b.pos(r, [x.clone(), y.clone()]).insert(r, [x, y]).build();
        assert!(is_normal_form_rule(&rule));
        let spec = with_rules(&spec, vec![rule.clone()]);
        let nf = normalize(&spec);
        assert_eq!(nf.spec.program().rules().len(), 1);
        assert_eq!(nf.spec.program().rules()[0], rule);
        assert_eq!(nf.origin(RuleId(0)), RuleId(0));
    }

    #[test]
    fn key_pos_becomes_full_positive_literal() {
        let (spec, p, r, _) = two_rel_spec();
        let mut b = RuleBuilder::new(p, "kp");
        let x = b.var("x");
        let rule = b
            .key_pos(r, x.clone())
            .insert(r, [x, Term::Const(Value::str("a"))])
            .build();
        assert!(!is_normal_form_rule(&rule));
        let spec = with_rules(&spec, vec![rule]);
        let nf = normalize(&spec);
        let rules = nf.spec.program().rules();
        assert_eq!(rules.len(), 1);
        assert!(is_normal_form_rule(&rules[0]));
        // Key literal became R(x, _z0).
        assert!(matches!(
            &rules[0].body[0],
            Literal::Pos { args, .. } if args.len() == 2
        ));
    }

    #[test]
    fn deletion_gets_witness_literal() {
        let (spec, p, r, s) = two_rel_spec();
        let mut b = RuleBuilder::new(p, "del");
        let x = b.var("x");
        let y = b.var("y");
        let rule = b.pos(s, [x.clone(), y]).delete(r, x).build();
        assert!(!is_normal_form_rule(&rule));
        let spec = with_rules(&spec, vec![rule]);
        let nf = normalize(&spec);
        let got = &nf.spec.program().rules()[0];
        assert!(is_normal_form_rule(got));
        // A positive literal over R with the deleted key was added.
        assert!(got.body.iter().any(|l| matches!(
            l,
            Literal::Pos { rel, args } if *rel == r && args[0] == Term::Var(VarId(0))
        )));
    }

    #[test]
    fn negative_literal_case_splits() {
        let (spec, p, r, s) = two_rel_spec();
        let mut b = RuleBuilder::new(p, "neg");
        let x = b.var("x");
        let y = b.var("y");
        let rule = b
            .pos(s, [x.clone(), y.clone()])
            .neg(r, [x.clone(), y.clone()])
            .insert(s, [Term::Const(Value::int(0)), Term::Const(Value::int(1))])
            .build();
        let spec = with_rules(&spec, vec![rule]);
        let nf = normalize(&spec);
        let rules = nf.spec.program().rules();
        // R has one non-key attribute ⇒ 2 cases: ¬Key_R(x), and
        // R(x, z) ∧ y ≠ z.
        assert_eq!(rules.len(), 2);
        assert!(rules.iter().all(is_normal_form_rule));
        assert!(rules.iter().any(|r2| r2
            .body
            .iter()
            .any(|l| matches!(l, Literal::KeyNeg { rel, .. } if *rel == r))));
        assert!(rules.iter().any(|r2| {
            r2.body.iter().any(|l| matches!(l, Literal::Neq(..)))
                && r2
                    .body
                    .iter()
                    .any(|l| matches!(l, Literal::Pos { rel, .. } if *rel == r))
        }));
        // θ maps both back to the original.
        assert_eq!(nf.origin(RuleId(0)), RuleId(0));
        assert_eq!(nf.origin(RuleId(1)), RuleId(0));
    }

    #[test]
    fn two_negatives_produce_product_of_cases() {
        let (spec, p, r, s) = two_rel_spec();
        let mut b = RuleBuilder::new(p, "neg2");
        let x = b.var("x");
        let y = b.var("y");
        let rule = b
            .pos(s, [x.clone(), y.clone()])
            .neg(r, [x.clone(), y.clone()])
            .neg(s, [y.clone(), x.clone()])
            .insert(s, [Term::Const(Value::int(0)), Term::Const(Value::int(1))])
            .build();
        let spec = with_rules(&spec, vec![rule]);
        let nf = normalize(&spec);
        // 2 cases per negative literal ⇒ 4 rules.
        assert_eq!(nf.spec.program().rules().len(), 4);
        assert!(is_normal_form(nf.spec.program()));
        assert!(nf.theta.iter().all(|t| *t == RuleId(0)));
    }

    #[test]
    fn unary_view_negative_literal_yields_only_keyneg() {
        // When the view is key-only, ¬R(x) has no "differs at" cases.
        let schema =
            Schema::from_relations([RelSchema::proposition("T"), RelSchema::proposition("U")])
                .unwrap();
        let t = schema.rel("T").unwrap();
        let u = schema.rel("U").unwrap();
        let mut cs = CollabSchema::new(schema);
        let p = cs.add_peer("p").unwrap();
        cs.set_full_view(p, t).unwrap();
        cs.set_full_view(p, u).unwrap();
        let mut b = RuleBuilder::new(p, "prop");
        let x = b.var("x");
        let rule = b
            .pos(u, [x.clone()])
            .neg(t, [x.clone()])
            .insert(t, [x])
            .build();
        let mut prog = Program::new();
        prog.add_rule(rule);
        let spec = WorkflowSpec::new(cs, prog).unwrap();
        let nf = normalize(&spec);
        let rules = nf.spec.program().rules();
        assert_eq!(rules.len(), 1);
        assert!(matches!(rules[0].body[1], Literal::KeyNeg { .. }));
    }

    #[test]
    fn projected_view_width_used_for_witnesses() {
        // p sees only (K) of R: the deletion witness literal has width 1.
        let schema = Schema::from_relations([RelSchema::new("R", ["K", "A"]).unwrap()]).unwrap();
        let r = schema.rel("R").unwrap();
        let mut cs = CollabSchema::new(schema);
        let p = cs.add_peer("p").unwrap();
        cs.set_view(p, ViewRel::new(r, [], Condition::True))
            .unwrap();
        let mut b = RuleBuilder::new(p, "del");
        let x = b.var("x");
        let rule = b.pos(r, [x.clone()]).delete(r, x).build();
        let mut prog = Program::new();
        prog.add_rule(rule);
        let spec = WorkflowSpec::new(cs, prog).unwrap();
        let nf = normalize(&spec);
        assert!(is_normal_form(nf.spec.program()));
    }
}
