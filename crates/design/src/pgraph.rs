//! The p-graph and boundedness by acyclicity (Theorem 6.3).
//!
//! For a *linear-head* program satisfying (C1), the p-graph has the
//! relations as nodes and an edge `R → Q` whenever `Q` is invisible at `p`
//! and some rule's head updates `R` while its body mentions `Q`. If, for
//! every `R ∈ D@p`, the subgraph reachable from `R` is acyclic, the program
//! is h-bounded for `p` with `h = (ab + 1)^d` where `b` is the maximum
//! number of facts in a body, `d = |D|`, and `a` is the maximum arity plus
//! one.

use std::collections::{BTreeMap, BTreeSet};

use cwf_lang::{Literal, UpdateAtom, WorkflowSpec};
use cwf_model::{PeerId, RelId};

/// The dependency graph of Theorem 6.3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PGraph {
    /// Edges `R → Q` ("the update of R depends on invisible Q").
    pub edges: BTreeSet<(RelId, RelId)>,
}

impl PGraph {
    /// Successors of `r`.
    pub(crate) fn successors(&self, r: RelId) -> impl Iterator<Item = RelId> + '_ {
        self.edges
            .iter()
            .filter(move |(from, _)| *from == r)
            .map(|(_, to)| *to)
    }

    /// All nodes reachable from `r` (excluding `r` unless on a cycle).
    pub fn reachable(&self, r: RelId) -> BTreeSet<RelId> {
        let mut out = BTreeSet::new();
        let mut stack: Vec<RelId> = self.successors(r).collect();
        while let Some(n) = stack.pop() {
            if out.insert(n) {
                stack.extend(self.successors(n));
            }
        }
        out
    }

    /// Is the subgraph induced by `nodes` acyclic?
    pub(crate) fn acyclic_within(&self, nodes: &BTreeSet<RelId>) -> bool {
        // Kahn-style: repeatedly strip nodes with no in-edges from within.
        let mut remaining: BTreeSet<RelId> = nodes.clone();
        loop {
            let removable: Vec<RelId> = remaining
                .iter()
                .copied()
                .filter(|n| {
                    !self
                        .edges
                        .iter()
                        .any(|(f, t)| t == n && remaining.contains(f) && remaining.contains(t))
                })
                .collect();
            if removable.is_empty() {
                return remaining.is_empty();
            }
            for n in removable {
                remaining.remove(&n);
            }
        }
    }

    /// The longest path length (#edges) starting from `r`, or `None` if a
    /// cycle is reachable. (The `g` in the proof of Theorem 6.3.)
    pub fn longest_path_from(&self, r: RelId) -> Option<usize> {
        fn go(
            g: &PGraph,
            n: RelId,
            visiting: &mut BTreeSet<RelId>,
            memo: &mut BTreeMap<RelId, Option<usize>>,
        ) -> Option<usize> {
            if let Some(m) = memo.get(&n) {
                return *m;
            }
            if !visiting.insert(n) {
                return None; // cycle
            }
            let mut best = 0usize;
            for s in g.successors(n).collect::<Vec<_>>() {
                best = best.max(1 + go(g, s, visiting, memo)?);
            }
            visiting.remove(&n);
            memo.insert(n, Some(best));
            Some(best)
        }
        go(self, r, &mut BTreeSet::new(), &mut BTreeMap::new())
    }
}

/// Builds the p-graph of `spec` for `peer`.
pub fn p_graph(spec: &WorkflowSpec, peer: PeerId) -> PGraph {
    let mut edges = BTreeSet::new();
    for rule in spec.program().rules() {
        let heads: Vec<RelId> = rule.head.iter().map(UpdateAtom::rel).collect();
        let body_rels: Vec<RelId> = rule
            .body
            .iter()
            .filter_map(|l| match l {
                Literal::Pos { rel, .. }
                | Literal::Neg { rel, .. }
                | Literal::KeyPos { rel, .. }
                | Literal::KeyNeg { rel, .. } => Some(*rel),
                _ => None,
            })
            .collect();
        for &r in &heads {
            for &q in &body_rels {
                if !spec.collab().sees(peer, q) {
                    edges.insert((r, q));
                }
            }
        }
    }
    PGraph { edges }
}

/// Is the program p-acyclic: for every relation visible at `peer`, the
/// reachable subgraph of the p-graph is acyclic?
pub fn is_p_acyclic(spec: &WorkflowSpec, peer: PeerId) -> bool {
    let g = p_graph(spec, peer);
    spec.collab().visible_rels(peer).all(|r| {
        let mut nodes = g.reachable(r);
        nodes.insert(r);
        g.acyclic_within(&nodes)
    })
}

/// Does Theorem 6.3 apply: linear heads and condition (C1)?
pub fn thm_6_3_applies(spec: &WorkflowSpec, peer: PeerId) -> bool {
    spec.program().is_linear_head() && satisfies_c1(spec, peer)
}

/// Condition (C1): every peer that sees a relation visible at `peer` sees it
/// fully (all attributes, selection `true`).
pub(crate) fn satisfies_c1(spec: &WorkflowSpec, peer: PeerId) -> bool {
    let collab = spec.collab();
    collab.visible_rels(peer).all(|r| {
        collab.peer_ids().all(|q| match collab.view(q, r) {
            Some(v) => v.is_full(collab.schema()),
            None => true,
        })
    })
}

/// The Theorem 6.3 bound `h = (ab + 1)^d` (saturating).
pub fn acyclicity_bound(spec: &WorkflowSpec) -> u64 {
    let b = spec.program().max_body_facts() as u64;
    let d = spec.collab().schema().len() as u32;
    let a = spec.collab().schema().max_arity() as u64 + 1;
    (a.saturating_mul(b).saturating_add(1)).saturating_pow(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwf_lang::parse_workflow;

    fn chain_spec() -> WorkflowSpec {
        parse_workflow(
            r#"
            schema { A(K); B(K); Out(K); }
            peers { q sees A(*), B(*), Out(*); p sees Out(*); }
            rules {
                s1 @ q: +A(0) :- ;
                s2 @ q: +B(0) :- A(0);
                s3 @ q: +Out(0) :- B(0);
            }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn chain_graph_edges_and_acyclicity() {
        let spec = chain_spec();
        let p = spec.collab().peer("p").unwrap();
        let g = p_graph(&spec, p);
        let a = spec.collab().schema().rel("A").unwrap();
        let b = spec.collab().schema().rel("B").unwrap();
        let out = spec.collab().schema().rel("Out").unwrap();
        assert!(g.edges.contains(&(b, a)), "B's rule reads invisible A");
        assert!(g.edges.contains(&(out, b)));
        assert!(!g.edges.contains(&(a, b)));
        assert!(is_p_acyclic(&spec, p));
        assert!(thm_6_3_applies(&spec, p));
        assert_eq!(g.longest_path_from(out), Some(2));
        assert_eq!(g.reachable(out), BTreeSet::from([a, b]));
    }

    #[test]
    fn cyclic_invisible_recursion_is_detected() {
        // Mutual recursion through invisible relations: not p-acyclic.
        let spec = parse_workflow(
            r#"
            schema { A(K); B(K); Out(K); }
            peers { q sees A(*), B(*), Out(*); p sees Out(*); }
            rules {
                ab @ q: +A(x) :- B(x);
                ba @ q: +B(x) :- A(x);
                o  @ q: +Out(x) :- A(x);
            }
            "#,
        )
        .unwrap();
        let p = spec.collab().peer("p").unwrap();
        assert!(!is_p_acyclic(&spec, p));
        let g = p_graph(&spec, p);
        let out = spec.collab().schema().rel("Out").unwrap();
        assert_eq!(g.longest_path_from(out), None, "cycle reachable");
    }

    #[test]
    fn cycles_unreachable_from_visible_relations_are_fine() {
        // A/B recurse, but Out does not depend on them.
        let spec = parse_workflow(
            r#"
            schema { A(K); B(K); Out(K); }
            peers { q sees A(*), B(*), Out(*); p sees Out(*); }
            rules {
                ab @ q: +A(x) :- B(x);
                ba @ q: +B(x) :- A(x);
                o  @ q: +Out(0) :- ;
            }
            "#,
        )
        .unwrap();
        let p = spec.collab().peer("p").unwrap();
        assert!(is_p_acyclic(&spec, p));
    }

    #[test]
    fn c1_detects_partial_co_observers() {
        // q sees Out only partially: (C1) fails for p.
        let spec = parse_workflow(
            r#"
            schema { Out(K, X); }
            peers { q sees Out(K); p sees Out(*); }
            rules { o @ q: +Out(x) :- ; }
            "#,
        )
        .unwrap();
        let p = spec.collab().peer("p").unwrap();
        assert!(!satisfies_c1(&spec, p));
        assert!(!thm_6_3_applies(&spec, p));
    }

    #[test]
    fn non_linear_heads_exclude_thm_6_3() {
        let spec = parse_workflow(
            r#"
            schema { A(K); B(K); }
            peers { p sees A(*), B(*); }
            rules { two @ p: +A(0), +B(0) :- ; }
            "#,
        )
        .unwrap();
        let p = spec.collab().peer("p").unwrap();
        assert!(!spec.program().is_linear_head());
        assert!(!thm_6_3_applies(&spec, p));
    }

    #[test]
    fn bound_formula() {
        let spec = chain_spec();
        // b = 1, d = 3, a = 1 + 1 = 2 ⇒ (2·1 + 1)^3 = 27.
        assert_eq!(acyclicity_bound(&spec), 27);
    }

    #[test]
    fn bound_dominates_measured_chains() {
        // The actual silent-relevant chain in chain_spec has length 3; the
        // Theorem 6.3 bound 27 dominates it (loose, as expected — E9).
        let spec = std::sync::Arc::new(chain_spec());
        let p = spec.collab().peer("p").unwrap();
        let limits = cwf_analysis::Limits {
            max_nodes: 200_000,
            max_tuples_per_rel: 1,
            extra_constants: Some(0),
        };
        let measured = cwf_analysis::find_bound(&spec, p, 6, &limits).unwrap();
        assert!(measured as u64 <= acyclicity_bound(&spec));
        assert_eq!(measured, 3);
    }
}
