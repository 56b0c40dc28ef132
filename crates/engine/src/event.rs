//! Events: rule instantiations (Section 2).
//!
//! For a valuation `ν` of a rule `α` at peer `p`, the instantiation `να` is
//! an *event*; `p` is the peer of the event. An event determines a set of
//! ground updates, and — for the faithfulness machinery of Section 4 — the
//! set `K(R, e)` of values occurring *as keys of `R`* in the event.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use cwf_lang::{Literal, RuleId, Term, UpdateAtom, WorkflowSpec};
use cwf_model::{PeerId, RelId, Tuple, Value};

use crate::error::EngineError;
use crate::eval::Bindings;

/// An event `να`: a rule together with a total valuation of its variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// The instantiated rule.
    pub rule: RuleId,
    /// The peer of the event (`peer(να)` — equals the rule's peer).
    pub peer: PeerId,
    /// Total assignment of the rule's variables.
    pub valuation: Bindings,
}

impl Event {
    /// Builds an event, checking that the valuation binds every variable of
    /// the rule.
    pub fn new(
        spec: &WorkflowSpec,
        rule: RuleId,
        valuation: Bindings,
    ) -> Result<Self, EngineError> {
        let r = spec.program().rule(rule);
        if valuation.len() != r.vars.len() || !valuation.is_total() {
            return Err(EngineError::IncompleteValuation { rule });
        }
        Ok(Event {
            rule,
            peer: r.peer,
            valuation,
        })
    }

    /// The ground updates `Update(ν(ȳ))` of the event, in head order.
    pub fn ground_updates(&self, spec: &WorkflowSpec) -> Vec<GroundUpdate> {
        let rule = spec.program().rule(self.rule);
        rule.head
            .iter()
            .map(|u| match u {
                UpdateAtom::Insert { rel, args } => GroundUpdate::Insert {
                    rel: *rel,
                    view_tuple: Tuple::new(
                        args.iter()
                            .map(|t| self.valuation.resolve(t).expect("valuation is total")),
                    ),
                },
                UpdateAtom::Delete { rel, key } => GroundUpdate::Delete {
                    rel: *rel,
                    key: self.valuation.resolve(key).expect("valuation is total"),
                },
            })
            .collect()
    }

    /// `K(R, e)` for every relation `R`: the values occurring as keys of `R`
    /// in the event — in body literals `R@q(k, ū)` / `¬Key_{R@q}(k)` (and,
    /// for non-normal-form rules, `Key_{R@q}(k)` / `¬R@q(k, ū)`), or in head
    /// updates `+R@q(k, ū)` / `−Key_{R@q}(k)`.
    pub fn key_occurrences(&self, spec: &WorkflowSpec) -> BTreeMap<RelId, BTreeSet<Value>> {
        let rule = spec.program().rule(self.rule);
        let mut out: BTreeMap<RelId, BTreeSet<Value>> = BTreeMap::new();
        let mut add = |rel: RelId, t: &Term, val: &Bindings| {
            let v = val.resolve(t).expect("valuation is total");
            out.entry(rel).or_default().insert(v);
        };
        for lit in &rule.body {
            match lit {
                Literal::Pos { rel, args } | Literal::Neg { rel, args } => {
                    add(*rel, &args[0], &self.valuation)
                }
                Literal::KeyPos { rel, key } | Literal::KeyNeg { rel, key } => {
                    add(*rel, key, &self.valuation)
                }
                Literal::Eq(..) | Literal::Neq(..) => {}
            }
        }
        for upd in &rule.head {
            match upd {
                UpdateAtom::Insert { rel, args } => add(*rel, &args[0], &self.valuation),
                UpdateAtom::Delete { rel, key } => add(*rel, key, &self.valuation),
            }
        }
        out
    }

    /// `K(R, e)` split by body-literal polarity: `(positive, negative)`
    /// per-relation key sets. Positive reads (`R@q(k, ū)` / `Key_{R@q}(k)`)
    /// require the fact to be *present*, so provenance joins the fact's own
    /// polynomial; negative reads (`¬R@q(k, ū)` / `¬Key_{R@q}(k)`) require
    /// *absence*, so provenance joins the key's closed writer history
    /// instead. Head updates are not included.
    pub(crate) fn body_key_reads(
        &self,
        spec: &WorkflowSpec,
    ) -> (
        BTreeMap<RelId, BTreeSet<Value>>,
        BTreeMap<RelId, BTreeSet<Value>>,
    ) {
        let rule = spec.program().rule(self.rule);
        let mut pos: BTreeMap<RelId, BTreeSet<Value>> = BTreeMap::new();
        let mut neg: BTreeMap<RelId, BTreeSet<Value>> = BTreeMap::new();
        for lit in &rule.body {
            let (out, rel, term) = match lit {
                Literal::Pos { rel, args } => (&mut pos, rel, &args[0]),
                Literal::KeyPos { rel, key } => (&mut pos, rel, key),
                Literal::Neg { rel, args } => (&mut neg, rel, &args[0]),
                Literal::KeyNeg { rel, key } => (&mut neg, rel, key),
                Literal::Eq(..) | Literal::Neq(..) => continue,
            };
            let v = self.valuation.resolve(term).expect("valuation is total");
            out.entry(*rel).or_default().insert(v);
        }
        (pos, neg)
    }

    /// The values instantiating the rule's head-only variables — the
    /// `new(e)` of Section 5 (values "created" by the event).
    pub fn new_values(&self, spec: &WorkflowSpec) -> BTreeSet<Value> {
        let rule = spec.program().rule(self.rule);
        rule.fresh_vars()
            .into_iter()
            .map(|v| *self.valuation.get(v).expect("valuation is total"))
            .collect()
    }

    /// Every value occurring in the event (`adom(e)`).
    pub fn adom(&self, spec: &WorkflowSpec) -> BTreeSet<Value> {
        let rule = spec.program().rule(self.rule);
        let mut out = BTreeSet::new();
        for v in 0..rule.vars.len() {
            if let Some(val) = self.valuation.get(cwf_lang::VarId(v as u32)) {
                out.insert(*val);
            }
        }
        out.extend(rule.constants());
        out.remove(&Value::Null);
        out
    }

    /// Renders the event as `rule_name@peer(ν)` against its spec.
    pub fn describe(&self, spec: &WorkflowSpec) -> String {
        let rule = spec.program().rule(self.rule);
        let peer = spec.collab().peer_name(self.peer);
        let vals: Vec<String> = rule
            .vars
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let v = self
                    .valuation
                    .get(cwf_lang::VarId(i as u32))
                    .expect("valuation is total");
                format!("{name}={v}")
            })
            .collect();
        format!("{}@{}[{}]", rule.name, peer, vals.join(", "))
    }
}

/// A ground (instantiated) update.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum GroundUpdate {
    /// Insertion of a view-width tuple into `rel` through the peer's view.
    Insert {
        /// The updated relation.
        rel: RelId,
        /// The inserted tuple (view width of the event's peer).
        view_tuple: Tuple,
    },
    /// Deletion of the tuple with key `key` from `rel`.
    Delete {
        /// The updated relation.
        rel: RelId,
        /// The deleted key.
        key: Value,
    },
}

impl GroundUpdate {
    /// The relation updated.
    pub fn rel(&self) -> RelId {
        match self {
            GroundUpdate::Insert { rel, .. } | GroundUpdate::Delete { rel, .. } => *rel,
        }
    }

    /// The key of the affected tuple.
    pub fn key(&self) -> &Value {
        match self {
            GroundUpdate::Insert { view_tuple, .. } => view_tuple.key(),
            GroundUpdate::Delete { key, .. } => key,
        }
    }

    /// Is this an insertion?
    pub fn is_insert(&self) -> bool {
        matches!(self, GroundUpdate::Insert { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwf_lang::{Program, RuleBuilder};
    use cwf_model::{CollabSchema, RelSchema, Schema};

    fn spec() -> (WorkflowSpec, PeerId, RelId, RelId) {
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
        let mut prog = Program::new();
        let mut b = RuleBuilder::new(p, "move");
        let x = b.var("x");
        let y = b.var("y");
        let z = b.var("z");
        prog.add_rule(
            b.pos(r, [x.clone(), y.clone()])
                .key_neg(s, x.clone())
                .delete(r, x.clone())
                .insert(s, [z, y])
                .build(),
        );
        (WorkflowSpec::new(cs, prog).unwrap(), p, r, s)
    }

    fn event(spec: &WorkflowSpec) -> Event {
        let mut b = Bindings::empty(3);
        b.set(cwf_lang::VarId(0), Value::int(1)); // x
        b.set(cwf_lang::VarId(1), Value::str("a")); // y
        b.set(cwf_lang::VarId(2), Value::Fresh(0)); // z (head-only)
        Event::new(spec, RuleId(0), b).unwrap()
    }

    #[test]
    fn rejects_partial_valuations() {
        let (spec, _, _, _) = spec();
        let b = Bindings::empty(3);
        assert!(matches!(
            Event::new(&spec, RuleId(0), b),
            Err(EngineError::IncompleteValuation { .. })
        ));
    }

    #[test]
    fn ground_updates_follow_head_order() {
        let (spec, _, r, s) = spec();
        let e = event(&spec);
        let ups = e.ground_updates(&spec);
        assert_eq!(ups.len(), 2);
        assert_eq!(
            ups[0],
            GroundUpdate::Delete {
                rel: r,
                key: Value::int(1)
            }
        );
        assert_eq!(
            ups[1],
            GroundUpdate::Insert {
                rel: s,
                view_tuple: Tuple::new([Value::Fresh(0), Value::str("a")])
            }
        );
        assert!(!ups[0].is_insert());
        assert!(ups[1].is_insert());
        assert_eq!(ups[1].key(), &Value::Fresh(0));
        assert_eq!(ups[0].rel(), r);
    }

    #[test]
    fn key_occurrences_cover_body_and_head() {
        let (spec, _, r, s) = spec();
        let e = event(&spec);
        let ks = e.key_occurrences(&spec);
        // R: x from body literal and deletion. S: x from ¬Key, z from insert.
        assert_eq!(ks[&r], BTreeSet::from([Value::int(1)]));
        assert_eq!(ks[&s], BTreeSet::from([Value::int(1), Value::Fresh(0)]));
    }

    #[test]
    fn new_values_are_head_only_instantiations() {
        let (spec, _, _, _) = spec();
        let e = event(&spec);
        assert_eq!(e.new_values(&spec), BTreeSet::from([Value::Fresh(0)]));
    }

    #[test]
    fn adom_includes_valuation_and_constants() {
        let (spec, _, _, _) = spec();
        let e = event(&spec);
        let dom = e.adom(&spec);
        assert!(dom.contains(&Value::int(1)));
        assert!(dom.contains(&Value::str("a")));
        assert!(dom.contains(&Value::Fresh(0)));
    }

    #[test]
    fn describe_is_readable() {
        let (spec, _, _, _) = spec();
        let e = event(&spec);
        assert_eq!(e.describe(&spec), "move@p[x=1, y=\"a\", z=ν0]");
    }
}
