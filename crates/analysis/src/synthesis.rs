//! Synthesis of view programs (Theorem 5.13).
//!
//! For a program `P` that is h-bounded and transparent for `p`, the view
//! program `P@p` runs over the schema `D@p` with two peers: `p` (keeping its
//! original rules) and `ω` ("world"), whose rules describe every visible
//! side effect other peers can cause. Each ω-rule is generated from a
//! canonical triple `(I, α, J)`: a p-fresh instance `I` over the constant
//! pool, a minimum p-faithful silent-then-visible chain `α` with
//! `|α| ≤ h`, and `J = α(I)`. The rule's positive body is `I@p` — which is
//! precisely the **provenance** of the observed update — guarded by
//! `¬Key` literals and disequalities; its head is the visible delta
//! `J@p − I@p`.
//!
//! Two pragmatic deviations from the paper's literal construction, both
//! required to produce syntactically valid FCQ¬ rules (documented in
//! DESIGN.md):
//!
//! * canonical constants that occur only in *created* tuples become
//!   **head-only variables**, whose run-semantics freshness subsumes the
//!   paper's `¬Key` guards and global disequalities for them;
//! * disequalities are emitted only among *bound* variables and program
//!   constants (unbound canonical constants are covered by freshness).
//!
//! Triples whose visible delta deletes and re-creates the same key cannot
//! be expressed as a single rule head (the distinct-update condition) and
//! are skipped with a counter in [`Synthesis::skipped_delete_reinsert`].

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use cwf_engine::Run;
use cwf_lang::{Literal, Program, Rule, RuleId, Term, UpdateAtom, VarId, WorkflowSpec};
use cwf_model::{
    CollabSchema, Governor, Instance, PeerId, Reason, RelId, RelSchema, Schema, Value, Verdict,
    ViewInstance,
};

use crate::space::{completion_pool, constant_pool, fresh_instances, Limits};
use crate::transparency::enumerate_chains;

/// The generation certificate of one ω-rule: the canonical triple's chain
/// and the mapping from canonical pool values to the rule's variables.
#[derive(Debug, Clone)]
pub struct OmegaMeta {
    /// The p-fresh instance the canonical chain starts from.
    pub initial: Instance,
    /// The canonical minimum p-faithful silent-then-visible chain (events of
    /// the *original* program over pool constants).
    pub chain: Vec<cwf_engine::Event>,
    /// Canonical value → rule variable.
    pub canon: BTreeMap<Value, VarId>,
}

/// Why synthesis failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthesisError {
    /// A governor limit was hit; raise the limits (or relax the governor).
    Exhausted(Reason),
    /// The peer sees nothing — there is no view schema to synthesize over.
    EmptyView,
}

impl std::fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthesisError::Exhausted(r) => write!(f, "synthesis exhausted: {r}"),
            SynthesisError::EmptyView => write!(f, "peer has an empty view schema"),
        }
    }
}

impl std::error::Error for SynthesisError {}

/// A synthesized view program `P@p`.
#[derive(Debug, Clone)]
pub struct Synthesis {
    /// The view program: schema `D@p`, peers `p` and `ω` (both full views).
    pub view_spec: Arc<WorkflowSpec>,
    /// `p`'s peer id within the view program.
    pub p_peer: PeerId,
    /// `ω`'s peer id within the view program.
    pub omega_peer: PeerId,
    /// Original relation id → view-program relation id (visible relations).
    pub rel_map: BTreeMap<RelId, RelId>,
    /// Original rule id (of `p`'s rules) → view-program rule id.
    pub rule_map: BTreeMap<RuleId, RuleId>,
    /// The ω-rule ids, in generation order.
    pub omega_rules: Vec<RuleId>,
    /// Per ω-rule: the canonical chain it was generated from (used by the
    /// soundness expander in [`crate::view_program`]).
    pub omega_meta: BTreeMap<RuleId, OmegaMeta>,
    /// Triples skipped because their delta deletes and re-creates a key.
    pub skipped_delete_reinsert: usize,
}

/// Synthesizes the view program of `spec` for `peer`, assuming the program
/// is h-bounded and transparent for `peer` (Theorem 5.13; the construction
/// never checks those properties — run the deciders first).
pub fn synthesize_view_program(
    spec: &Arc<WorkflowSpec>,
    peer: PeerId,
    h: usize,
    limits: &Limits,
) -> Result<Synthesis, SynthesisError> {
    synthesize_view_program_with(
        spec,
        peer,
        h,
        limits,
        &Governor::with_nodes(limits.max_nodes),
    )
}

/// [`synthesize_view_program`] under an explicit [`Governor`] (deadline and
/// cancellation in addition to the node budget). Runs behind the governor's
/// panic guard.
pub(crate) fn synthesize_view_program_with(
    spec: &Arc<WorkflowSpec>,
    peer: PeerId,
    h: usize,
    limits: &Limits,
    gov: &Governor,
) -> Result<Synthesis, SynthesisError> {
    match gov.guard(|| Verdict::Done(synthesize_body(spec, peer, h, limits, gov))) {
        Verdict::Done(r) | Verdict::Anytime(r, _) => r,
        Verdict::Exhausted(reason) => Err(SynthesisError::Exhausted(reason)),
    }
}

fn synthesize_body(
    spec: &Arc<WorkflowSpec>,
    peer: PeerId,
    h: usize,
    limits: &Limits,
    gov: &Governor,
) -> Result<Synthesis, SynthesisError> {
    let collab = spec.collab();
    let visible: Vec<RelId> = collab.visible_rels(peer).collect();
    if visible.is_empty() {
        return Err(SynthesisError::EmptyView);
    }
    // --- the view schema D@p -------------------------------------------
    let mut new_schema = Schema::new();
    let mut rel_map = BTreeMap::new();
    for &r in &visible {
        let old = collab.schema().relation(r);
        let view = collab.view(peer, r).expect("visible");
        let attrs: Vec<String> = view
            .attrs()
            .iter()
            .map(|a| old.attr_name(*a).to_string())
            .collect();
        let id = new_schema
            .add_relation(RelSchema::new(old.name(), attrs).expect("valid view schema"))
            .expect("unique names inherited");
        rel_map.insert(r, id);
    }
    let mut new_collab = CollabSchema::new(new_schema);
    let p_peer = new_collab
        .add_peer(collab.peer_name(peer))
        .expect("fresh collab");
    let omega_peer = new_collab.add_peer("omega").expect("distinct name");
    for &nr in rel_map.values() {
        new_collab.set_full_view(p_peer, nr).expect("valid");
        new_collab.set_full_view(omega_peer, nr).expect("valid");
    }
    // --- p's own rules ---------------------------------------------------
    let mut program = Program::new();
    let mut rule_map = BTreeMap::new();
    for rid in spec.program().rules_of(peer) {
        let rule = spec.program().rule(rid);
        let new_rule = Rule {
            peer: p_peer,
            name: rule.name.clone(),
            head: rule
                .head
                .iter()
                .map(|u| match u {
                    UpdateAtom::Insert { rel, args } => UpdateAtom::Insert {
                        rel: rel_map[rel],
                        args: args.clone(),
                    },
                    UpdateAtom::Delete { rel, key } => UpdateAtom::Delete {
                        rel: rel_map[rel],
                        key: key.clone(),
                    },
                })
                .collect(),
            body: rule
                .body
                .iter()
                .map(|l| match l {
                    Literal::Pos { rel, args } => Literal::Pos {
                        rel: rel_map[rel],
                        args: args.clone(),
                    },
                    Literal::Neg { rel, args } => Literal::Neg {
                        rel: rel_map[rel],
                        args: args.clone(),
                    },
                    Literal::KeyPos { rel, key } => Literal::KeyPos {
                        rel: rel_map[rel],
                        key: key.clone(),
                    },
                    Literal::KeyNeg { rel, key } => Literal::KeyNeg {
                        rel: rel_map[rel],
                        key: key.clone(),
                    },
                    eq => eq.clone(),
                })
                .collect(),
            vars: rule.vars.clone(),
        };
        rule_map.insert(rid, program.add_rule(new_rule));
    }
    // --- ω-rules from canonical triples ----------------------------------
    let pool = constant_pool(spec, h + 1, limits);
    let chain_pool = completion_pool(spec, h + 1, &pool);
    // Synthesis must see every canonical triple: a partial (anytime)
    // enumeration would silently drop ω-rules, so a cutoff is an error.
    let fresh = match fresh_instances(spec, peer, &pool, &chain_pool, limits, gov) {
        Verdict::Done(f) => f,
        Verdict::Anytime(_, bound) => return Err(SynthesisError::Exhausted(bound.reason)),
        Verdict::Exhausted(reason) => return Err(SynthesisError::Exhausted(reason)),
    };
    let consts: BTreeSet<Value> = spec.program().const_set();
    let mut seen_rules: BTreeSet<String> = BTreeSet::new();
    let mut omega_rules = Vec::new();
    let mut omega_meta = BTreeMap::new();
    let mut skipped = 0usize;
    for f in &fresh {
        let chains = enumerate_chains(spec, peer, f, &chain_pool, h, gov)
            .map_err(SynthesisError::Exhausted)?;
        for chain in chains {
            // Keys of the initial instance must all be touched by the chain
            // (Lemma A.3 restriction — the restricted instance is itself
            // enumerated elsewhere, so skipping loses nothing).
            let run = Run::replay(Arc::clone(spec), f.clone(), chain.iter().cloned())
                .expect("chain was built on f");
            let mut touched: BTreeMap<RelId, BTreeSet<Value>> = BTreeMap::new();
            for i in 0..run.len() {
                for (r, ks) in run.event(i).key_occurrences(spec) {
                    touched.entry(r).or_default().extend(ks.iter().cloned());
                }
            }
            let all_touched = collab.schema().rel_ids().all(|r| {
                f.rel(r)
                    .keys()
                    .all(|k| touched.get(&r).is_some_and(|ks| ks.contains(k)))
            });
            if !all_touched {
                continue;
            }
            let i_view = collab.view_of(f, peer);
            let j_view = collab.view_of(run.current(), peer);
            match build_omega_rule(
                &rel_map,
                &visible,
                omega_peer,
                &consts,
                &i_view,
                &touched,
                &j_view,
                omega_rules.len() + skipped,
            ) {
                BuiltRule::Rule(rule, canon) => {
                    let key = canonical_key(&rule);
                    if seen_rules.insert(key) {
                        let mut rule = rule;
                        rule.name = format!("omega_{}", omega_rules.len());
                        let rid = program.add_rule(rule);
                        omega_rules.push(rid);
                        omega_meta.insert(
                            rid,
                            OmegaMeta {
                                initial: f.clone(),
                                chain: chain.clone(),
                                canon,
                            },
                        );
                    }
                }
                BuiltRule::NoVisibleDelta => {}
                BuiltRule::DeleteReinsert => skipped += 1,
            }
        }
    }
    let view_spec = WorkflowSpec::new(new_collab, program)
        .expect("synthesized view programs are well-formed by construction");
    Ok(Synthesis {
        view_spec: Arc::new(view_spec),
        p_peer,
        omega_peer,
        rel_map,
        rule_map,
        omega_rules,
        omega_meta,
        skipped_delete_reinsert: skipped,
    })
}

enum BuiltRule {
    Rule(Rule, BTreeMap<Value, VarId>),
    /// `J@p = I@p`: the chain's final event is visible only through… it is
    /// not (should not happen — chains end visibly), or the delta cancels.
    NoVisibleDelta,
    /// The delta deletes and re-creates the same key: inexpressible head.
    DeleteReinsert,
}

/// Builds the ω-rule of one triple. `i_view`/`j_view` are over the original
/// relation ids; `touched` is `K(R, α)`.
#[allow(clippy::too_many_arguments)]
fn build_omega_rule(
    rel_map: &BTreeMap<RelId, RelId>,
    visible: &[RelId],
    omega_peer: PeerId,
    consts: &BTreeSet<Value>,
    i_view: &ViewInstance,
    touched: &BTreeMap<RelId, BTreeSet<Value>>,
    j_view: &ViewInstance,
    serial: usize,
) -> BuiltRule {
    // Variable interning: canonical value → VarId (constants of P stay
    // constants).
    let mut vars: Vec<String> = Vec::new();
    let mut var_of: BTreeMap<Value, VarId> = BTreeMap::new();
    let mut term_of = |v: &Value| -> Term {
        if v.is_null() || consts.contains(v) {
            Term::Const(*v)
        } else if let Some(id) = var_of.get(v) {
            Term::Var(*id)
        } else {
            let id = VarId(vars.len() as u32);
            vars.push(format!("x{}", vars.len()));
            var_of.insert(*v, id);
            Term::Var(id)
        }
    };
    // Positive body: I@p.
    let mut body: Vec<Literal> = Vec::new();
    let mut bound: BTreeSet<VarId> = BTreeSet::new();
    for &r in visible {
        for t in i_view.rel(r) {
            let args: Vec<Term> = t.values().iter().map(&mut term_of).collect();
            for a in &args {
                if let Term::Var(v) = a {
                    bound.insert(*v);
                }
            }
            body.push(Literal::Pos {
                rel: rel_map[&r],
                args,
            });
        }
    }
    // Head: the visible delta.
    let mut head: Vec<UpdateAtom> = Vec::new();
    for &r in visible {
        // Deletions: keys of I@p missing from J@p.
        for k in i_view.keys(r) {
            if !j_view.contains_key(r, k) {
                head.push(UpdateAtom::Delete {
                    rel: rel_map[&r],
                    key: term_of(k),
                });
            }
        }
        // Insertions: tuples of J@p not in I@p (new or modified).
        for t in j_view.rel(r) {
            let same = i_view.get(r, t.key()).is_some_and(|old| old == t);
            if same {
                continue;
            }
            // Delete + re-create of one key is inexpressible in one head.
            if i_view.contains_key(r, t.key())
                && head.iter().any(|u| {
                    matches!(u, UpdateAtom::Delete { rel, key }
                        if *rel == rel_map[&r] && key == &term_of(t.key()))
                })
            {
                return BuiltRule::DeleteReinsert;
            }
            let args: Vec<Term> = t.values().iter().map(&mut term_of).collect();
            head.push(UpdateAtom::Insert {
                rel: rel_map[&r],
                args,
            });
        }
    }
    if head.is_empty() {
        return BuiltRule::NoVisibleDelta;
    }
    // Delete/re-create detection part 2: an insert whose key is also
    // deleted (ordering-independent).
    for (i, a) in head.iter().enumerate() {
        for b in &head[i + 1..] {
            if a.rel() == b.rel()
                && a.key_term() == b.key_term()
                && (a.is_insert() != b.is_insert())
            {
                return BuiltRule::DeleteReinsert;
            }
        }
    }
    // ¬Key guards: touched keys of visible relations absent from I@p —
    // only for bound variables or constants (unbound ⇒ fresh-by-head).
    for &r in visible {
        if let Some(keys) = touched.get(&r) {
            for k in keys {
                if i_view.contains_key(r, k) {
                    continue;
                }
                let t = term_of(k);
                let ok = match &t {
                    Term::Const(_) => true,
                    Term::Var(v) => bound.contains(v),
                };
                if ok {
                    body.push(Literal::KeyNeg {
                        rel: rel_map[&r],
                        key: t,
                    });
                }
            }
        }
    }
    // Disequalities: bound variables pairwise, and against every program
    // constant (canonical values denote pairwise-distinct non-constants).
    let bound_vec: Vec<VarId> = bound.iter().copied().collect();
    for (i, &x) in bound_vec.iter().enumerate() {
        for &y in &bound_vec[i + 1..] {
            body.push(Literal::Neq(Term::Var(x), Term::Var(y)));
        }
        for c in consts {
            if !c.is_null() {
                body.push(Literal::Neq(Term::Var(x), Term::Const(*c)));
            }
        }
    }
    BuiltRule::Rule(
        Rule {
            peer: omega_peer,
            name: format!("omega_raw_{serial}"),
            head,
            body,
            vars,
        },
        var_of,
    )
}

/// A variable-renaming-invariant key for deduplicating ω-rules.
fn canonical_key(rule: &Rule) -> String {
    // Sort body literals by a var-independent shape, then rename variables
    // in traversal order (body, then head).
    let shape = |l: &Literal| -> String {
        match l {
            Literal::Pos { rel, args } => format!("P{:?}{}", rel, args_shape(args)),
            Literal::Neg { rel, args } => format!("N{:?}{}", rel, args_shape(args)),
            Literal::KeyPos { rel, key } => {
                format!("KP{:?}{}", rel, args_shape(std::slice::from_ref(key)))
            }
            Literal::KeyNeg { rel, key } => {
                format!("KN{:?}{}", rel, args_shape(std::slice::from_ref(key)))
            }
            Literal::Eq(a, b) => format!("E{}{}", term_shape(a), term_shape(b)),
            Literal::Neq(a, b) => format!("D{}{}", term_shape(a), term_shape(b)),
        }
    };
    let mut body: Vec<&Literal> = rule.body.iter().collect();
    body.sort_by_key(|l| shape(l));
    let mut rename: BTreeMap<VarId, usize> = BTreeMap::new();
    let canon_term = |t: &Term, rename: &mut BTreeMap<VarId, usize>| -> String {
        match t {
            Term::Const(v) => format!("c{v}"),
            Term::Var(v) => {
                let next = rename.len();
                let id = *rename.entry(*v).or_insert(next);
                format!("v{id}")
            }
        }
    };
    let mut out = String::new();
    for l in body {
        match l {
            Literal::Pos { rel, args } | Literal::Neg { rel, args } => {
                out.push_str(&format!(
                    "{}[{:?}]({});",
                    if matches!(l, Literal::Pos { .. }) {
                        "+"
                    } else {
                        "!"
                    },
                    rel,
                    args.iter()
                        .map(|t| canon_term(t, &mut rename))
                        .collect::<Vec<_>>()
                        .join(",")
                ));
            }
            Literal::KeyPos { rel, key } | Literal::KeyNeg { rel, key } => {
                out.push_str(&format!(
                    "{}key[{:?}]({});",
                    if matches!(l, Literal::KeyPos { .. }) {
                        "+"
                    } else {
                        "!"
                    },
                    rel,
                    canon_term(key, &mut rename)
                ));
            }
            Literal::Eq(a, b) | Literal::Neq(a, b) => {
                let mut pair = [canon_term(a, &mut rename), canon_term(b, &mut rename)];
                pair.sort();
                out.push_str(&format!(
                    "{}({},{});",
                    if matches!(l, Literal::Eq(..)) {
                        "="
                    } else {
                        "#"
                    },
                    pair[0],
                    pair[1]
                ));
            }
        }
    }
    out.push('|');
    for u in &rule.head {
        match u {
            UpdateAtom::Insert { rel, args } => {
                out.push_str(&format!(
                    "+[{:?}]({});",
                    rel,
                    args.iter()
                        .map(|t| canon_term(t, &mut rename))
                        .collect::<Vec<_>>()
                        .join(",")
                ));
            }
            UpdateAtom::Delete { rel, key } => {
                out.push_str(&format!("-[{:?}]({});", rel, canon_term(key, &mut rename)));
            }
        }
    }
    out
}

fn args_shape(args: &[Term]) -> String {
    args.iter().map(term_shape).collect::<Vec<_>>().join(",")
}

fn term_shape(t: &Term) -> String {
    match t {
        Term::Const(v) => format!("c{v}"),
        Term::Var(_) => "v".to_string(),
    }
}

/// Converts a [`ViewInstance`] (over the original schema) into an
/// [`Instance`] of the synthesized view-program schema — the state a run of
/// `P@p` should be in after mirroring the corresponding observations.
pub(crate) fn view_as_instance(synth: &Synthesis, view: &ViewInstance) -> Instance {
    let mut out = Instance::empty(synth.view_spec.collab().schema());
    for (&old, &new) in &synth.rel_map {
        for t in view.rel(old) {
            out.rel_mut(new)
                .insert(t.clone())
                .expect("view tuples have non-null keys");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwf_lang::parse_workflow;

    fn limits() -> Limits {
        Limits {
            max_nodes: 2_000_000,
            max_tuples_per_rel: 1,
            extra_constants: Some(2),
        }
    }

    /// Example 5.1 *without* cfoOK (the transparent variant of Example 5.7):
    /// Sue sees Cleared and Hire; the ceo's Approved step is hidden.
    /// The expected view program is exactly the paper's:
    ///   +Cleared@ω(x) :- ;    +Hire@ω(x) :- Cleared@ω(x).
    fn transparent_hiring() -> Arc<WorkflowSpec> {
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
                    approve @ ceo: +Approved(x) :- Cleared(x), not key Approved(x);
                    hire @ hr: +Hire(x) :- Approved(x), not key Hire(x);
                }
                "#,
            )
            .unwrap(),
        )
    }

    #[test]
    fn synthesizes_the_papers_example_5_1_program() {
        let spec = transparent_hiring();
        let sue = spec.collab().peer("sue").unwrap();
        let synth = synthesize_view_program(&spec, sue, 2, &limits()).unwrap();
        let vs = &synth.view_spec;
        // Schema: Cleared and Hire only.
        assert_eq!(vs.collab().schema().len(), 2);
        assert!(vs.collab().schema().rel("Cleared").is_some());
        assert!(vs.collab().schema().rel("Hire").is_some());
        assert!(vs.collab().schema().rel("Approved").is_none());
        // Sue has no rules of her own; all rules are ω's.
        assert!(synth.rule_map.is_empty());
        assert!(!synth.omega_rules.is_empty());
        // Among the ω-rules: a body-less +Cleared(x) and a
        // +Hire(x) :- Cleared(x) provenance rule.
        let rules = vs.program().rules();
        let cleared = vs.collab().schema().rel("Cleared").unwrap();
        let hire = vs.collab().schema().rel("Hire").unwrap();
        assert!(
            rules.iter().any(|r| {
                r.body.is_empty()
                    && r.head.len() == 1
                    && matches!(&r.head[0], UpdateAtom::Insert { rel, .. } if *rel == cleared)
            }),
            "fresh-clearance rule"
        );
        assert!(
            rules.iter().any(|r| {
                r.head
                    .iter()
                    .any(|u| matches!(u, UpdateAtom::Insert { rel, .. } if *rel == hire))
                    && r.body
                        .iter()
                        .any(|l| matches!(l, Literal::Pos { rel, .. } if *rel == cleared))
            }),
            "hire rule carries Cleared provenance"
        );
    }

    #[test]
    fn p_rules_are_preserved() {
        // Give sue her own rule and check it carries over.
        let spec = Arc::new(
            parse_workflow(
                r#"
                schema { Req(K); Ack(K); }
                peers {
                    sue sees Req(*), Ack(*);
                    boss sees Req(*), Ack(*);
                }
                rules {
                    ask @ sue: +Req(x) :- ;
                    ack @ boss: +Ack(x) :- Req(x), not key Ack(x);
                }
                "#,
            )
            .unwrap(),
        );
        let sue = spec.collab().peer("sue").unwrap();
        let synth = synthesize_view_program(&spec, sue, 1, &limits()).unwrap();
        assert_eq!(synth.rule_map.len(), 1);
        let vs = &synth.view_spec;
        let new_rid = synth.rule_map[&spec.program().rule_by_name("ask").unwrap()];
        let rule = vs.program().rule(new_rid);
        assert_eq!(rule.name, "ask");
        assert_eq!(rule.peer, synth.p_peer);
    }

    #[test]
    fn empty_view_is_an_error() {
        let base = parse_workflow(
            r#"
            schema { A(K); }
            peers { q sees A(*); }
            rules { mk @ q: +A(0) :- ; }
            "#,
        )
        .unwrap();
        // Add a peer that sees nothing.
        let (mut collab, prog) = base.into_parts();
        let blind = collab.add_peer("blind").unwrap();
        let spec = Arc::new(WorkflowSpec::new(collab, prog).unwrap());
        assert!(matches!(
            synthesize_view_program(&spec, blind, 1, &limits()),
            Err(SynthesisError::EmptyView)
        ));
    }

    #[test]
    fn exhaustion_is_reported() {
        let spec = transparent_hiring();
        let sue = spec.collab().peer("sue").unwrap();
        let tiny = Limits {
            max_nodes: 1,
            ..limits()
        };
        assert!(matches!(
            synthesize_view_program(&spec, sue, 2, &tiny),
            Err(SynthesisError::Exhausted(Reason::Nodes))
        ));
    }

    #[test]
    fn view_as_instance_maps_relations() {
        let spec = transparent_hiring();
        let sue = spec.collab().peer("sue").unwrap();
        let synth = synthesize_view_program(&spec, sue, 2, &limits()).unwrap();
        let mut global = Instance::empty(spec.collab().schema());
        let cleared = spec.collab().schema().rel("Cleared").unwrap();
        global
            .rel_mut(cleared)
            .insert(cwf_model::Tuple::new([Value::str("sue")]))
            .unwrap();
        let view = spec.collab().view_of(&global, sue);
        let mapped = view_as_instance(&synth, &view);
        let new_cleared = synth.view_spec.collab().schema().rel("Cleared").unwrap();
        assert!(mapped.rel(new_cleared).contains_key(&Value::str("sue")));
    }

    #[test]
    fn canonical_key_identifies_renamings() {
        let spec = transparent_hiring();
        let sue = spec.collab().peer("sue").unwrap();
        let synth = synthesize_view_program(&spec, sue, 2, &limits()).unwrap();
        // Dedup happened: rule count stays small despite the pool having
        // two interchangeable fresh constants.
        assert!(
            synth.omega_rules.len() <= 6,
            "got {} ω-rules",
            synth.omega_rules.len()
        );
    }
}
