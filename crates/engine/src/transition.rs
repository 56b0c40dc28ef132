//! The transition relation `I ⊢_e J` (Section 2).
//!
//! An event is applicable when its body holds on the peer's view and all of
//! its ground updates are applicable:
//!
//! * a deletion `−Key_{R@p}(k)` requires `k` to be a key of `I@p(R@p)` — a
//!   peer may only delete tuples it *sees*;
//! * an insertion `+R@p(u)` requires (i) `chase_K(I ∪ {R(u^⊥)})` to be valid
//!   and (ii) `u` to be subsumed by a tuple of the *updated* view
//!   `J@p(R@p)` — so a successful insertion is visible to its author.
//!
//! The distinct-update condition on rules guarantees that the updates of one
//! event touch pairwise distinct keys, making their order irrelevant.

use cwf_lang::WorkflowSpec;
use cwf_model::{chase_with, AttrChange, Instance, InstanceDiff, PeerId, ViewInstance};

use crate::error::EngineError;
use crate::eval::check_body;
use crate::event::{Event, GroundUpdate};
use crate::view_plane::peer_delta;

/// The result of a successful transition: the successor instance plus the
/// tuple-level delta it induced — the currency of the incremental view
/// plane. The diff is emitted *while applying* the updates (the
/// distinct-update condition on rules makes per-update changes independent),
/// not recomputed by a full instance scan.
#[derive(Debug, Clone)]
pub struct Applied {
    /// The successor instance `J`.
    pub instance: Instance,
    /// `J − I`, normalized to `(rel, key)` order — identical to what
    /// [`InstanceDiff::between`] would compute.
    pub diff: InstanceDiff,
}

/// Applies `event` to `instance`, returning the successor instance.
///
/// This is the from-scratch **reference implementation**: it rescans the
/// instance to materialize the acting peer's view. The engine's own hot
/// path is [`apply_event_with_view`], fed by the maintained view plane;
/// this wrapper remains for the analysis/design crates and for differential
/// testing.
pub fn apply_event(
    spec: &WorkflowSpec,
    instance: &Instance,
    event: &Event,
) -> Result<Instance, EngineError> {
    let view = spec.collab().view_of(instance, event.peer);
    apply_event_with_view(spec, instance, &view, event).map(|a| a.instance)
}

/// Applies `event` to `instance`, checking the body against the caller's
/// (incrementally maintained) materialization of the acting peer's view.
/// Returns the successor instance together with the emitted diff.
///
/// Checks the body condition and every update's applicability. Does **not**
/// check global freshness of head-only values — that is a run-level property,
/// enforced in one place: the step of [`crate::scratch::ScratchRun`], through
/// which [`crate::run::Run::push`] and [`crate::run::Run::check`] decide too.
pub fn apply_event_with_view(
    spec: &WorkflowSpec,
    instance: &Instance,
    view: &ViewInstance,
    event: &Event,
) -> Result<Applied, EngineError> {
    let rule = spec.program().rule(event.rule);
    if event.valuation.len() != rule.vars.len() || !event.valuation.is_total() {
        return Err(EngineError::IncompleteValuation { rule: event.rule });
    }
    if !check_body(rule, view, &event.valuation) {
        return Err(EngineError::BodyNotSatisfied { rule: event.rule });
    }
    apply_updates(spec, instance, event.peer, &event.ground_updates(spec))
}

/// Applies a list of ground updates issued by `peer` (all checks of the
/// update semantics, no body check), emitting the induced diff alongside
/// the successor instance. Exposed for the view-program runtime of
/// Section 5, whose ω-events are update bundles.
///
/// No peer view is materialized: delete visibility and insert subsumption
/// are decided on the single affected tuple (the key chase only ever merges
/// into the tuple sharing the inserted key, so per-update effects are
/// local), and the distinct-update condition keeps the per-update diff
/// entries disjoint.
pub fn apply_updates(
    spec: &WorkflowSpec,
    instance: &Instance,
    peer: PeerId,
    updates: &[GroundUpdate],
) -> Result<Applied, EngineError> {
    let schema = spec.collab().schema();
    let mut current = instance.clone();
    let mut diff = InstanceDiff::default();
    for upd in updates {
        match upd {
            GroundUpdate::Delete { rel, key } => {
                // The peer must see the tuple it deletes: a tuple with that
                // key exists and the peer's selection admits it.
                let vr = spec.collab().view(peer, *rel);
                let visible =
                    vr.is_some_and(|vr| current.rel(*rel).get(key).is_some_and(|t| vr.selects(t)));
                if !visible {
                    return Err(EngineError::DeleteInvisible {
                        rel: *rel,
                        key: *key,
                    });
                }
                let removed = current
                    .rel_mut(*rel)
                    .remove(key)
                    .expect("visibility implies presence");
                diff.deleted.push((*rel, removed));
            }
            GroundUpdate::Insert { rel, view_tuple } => {
                let vr = spec
                    .collab()
                    .view(peer, *rel)
                    .expect("validated events only update visible relations");
                let arity = schema.relation(*rel).arity();
                let padded = vr.pad(view_tuple, arity);
                // (i) the chase must produce a valid instance.
                let next = chase_with(schema, &current, *rel, padded)?;
                // (ii) the inserted tuple must appear (subsumed) in the
                // peer's updated view: the merged tuple must satisfy the
                // selection and its projection must subsume the insert.
                let merged = next.rel(*rel).get(view_tuple.key());
                let subsumed =
                    merged.is_some_and(|t| vr.selects(t) && view_tuple.subsumed_by(&vr.project(t)));
                if !subsumed {
                    return Err(EngineError::InsertNotSubsumed {
                        rel: *rel,
                        key: *view_tuple.key(),
                    });
                }
                // Emit the key's change: created, modified, or none.
                let merged = merged.expect("subsumption implies presence");
                match current.rel(*rel).get(view_tuple.key()) {
                    None => diff.created.push((*rel, merged.clone())),
                    Some(old) if old != merged => {
                        let changes: Vec<AttrChange> = old
                            .entries()
                            .filter(|(a, v)| merged.get(*a) != *v)
                            .map(|(a, v)| AttrChange {
                                attr: a,
                                before: *v,
                                after: *merged.get(a),
                            })
                            .collect();
                        diff.modified.push((*rel, *view_tuple.key(), changes));
                    }
                    Some(_) => {}
                }
                current = next;
            }
        }
    }
    // Normalize to (rel, key) order so the emitted diff is byte-identical
    // to InstanceDiff::between(instance, &current).
    diff.created
        .sort_by(|a, b| (a.0, a.1.key()).cmp(&(b.0, b.1.key())));
    diff.deleted
        .sort_by(|a, b| (a.0, a.1.key()).cmp(&(b.0, b.1.key())));
    diff.modified.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    debug_assert_eq!(
        diff,
        InstanceDiff::between(instance, &current),
        "emitted diff must agree with the from-scratch diff"
    );
    Ok(Applied {
        instance: current,
        diff,
    })
}

/// Is `event` (with pre-state `pre` and post-state `post`) *visible* at
/// `peer`? — `peer(e) = p`, or the views differ (Section 3). Decided on the
/// instance diff: the views differ iff the diff induces a non-empty view
/// delta at `peer`.
pub fn event_visible(
    spec: &WorkflowSpec,
    event: &Event,
    pre: &Instance,
    post: &Instance,
    peer: PeerId,
) -> bool {
    event.peer == peer
        || !peer_delta(spec.collab(), peer, &InstanceDiff::between(pre, post), post).is_empty()
}

/// Convenience: the peer's view of an instance.
pub fn view_of(spec: &WorkflowSpec, instance: &Instance, peer: PeerId) -> ViewInstance {
    spec.collab().view_of(instance, peer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Bindings;
    use cwf_lang::{Program, RuleBuilder, RuleId, Term, VarId};
    use cwf_model::{
        AttrId, CollabSchema, Condition, RelId, RelSchema, Schema, Tuple, Value, ViewRel,
    };

    /// R(K, A, B); p sees (K, A) fully; q sees (K, B) fully; rules let both
    /// insert/delete through their views.
    fn split_spec() -> (WorkflowSpec, PeerId, PeerId, RelId) {
        let schema =
            Schema::from_relations([RelSchema::new("R", ["K", "A", "B"]).unwrap()]).unwrap();
        let r = schema.rel("R").unwrap();
        let mut cs = CollabSchema::new(schema);
        let p = cs.add_peer("p").unwrap();
        let q = cs.add_peer("q").unwrap();
        cs.set_view(p, ViewRel::new(r, [AttrId(1)], Condition::True))
            .unwrap();
        cs.set_view(q, ViewRel::new(r, [AttrId(2)], Condition::True))
            .unwrap();
        let mut prog = Program::new();
        // p inserts (x, a) through its view.
        let mut b = RuleBuilder::new(p, "p_ins");
        let x = b.var("x");
        let a = b.var("a");
        prog.add_rule(b.insert(r, [x, a]).build());
        // q inserts (x, b) through its view.
        let mut b = RuleBuilder::new(q, "q_ins");
        let x = b.var("x");
        let bb = b.var("b");
        prog.add_rule(b.insert(r, [x, bb]).build());
        // p deletes a key it sees.
        let mut b = RuleBuilder::new(p, "p_del");
        let x = b.var("x");
        let a = b.var("a");
        prog.add_rule(b.pos(r, [x.clone(), a]).delete(r, x).build());
        (WorkflowSpec::new(cs, prog).unwrap(), p, q, r)
    }

    fn ev(spec: &WorkflowSpec, rule: u32, vals: &[Value]) -> Event {
        let mut b = Bindings::empty(vals.len());
        for (i, v) in vals.iter().enumerate() {
            b.set(VarId(i as u32), *v);
        }
        Event::new(spec, RuleId(rule), b).unwrap()
    }

    #[test]
    fn insert_pads_and_merges_via_chase() {
        let (spec, _, _, r) = split_spec();
        let i0 = Instance::empty(spec.collab().schema());
        // p inserts (k, a): global tuple (k, a, ⊥).
        let i1 = apply_event(
            &spec,
            &i0,
            &ev(&spec, 0, &[Value::str("k"), Value::str("a")]),
        )
        .unwrap();
        assert_eq!(
            i1.rel(r).get(&Value::str("k")),
            Some(&Tuple::new([Value::str("k"), Value::str("a"), Value::Null]))
        );
        // q inserts (k, c): chase merges into (k, a, c).
        let i2 = apply_event(
            &spec,
            &i1,
            &ev(&spec, 1, &[Value::str("k"), Value::str("c")]),
        )
        .unwrap();
        assert_eq!(
            i2.rel(r).get(&Value::str("k")),
            Some(&Tuple::new([
                Value::str("k"),
                Value::str("a"),
                Value::str("c")
            ]))
        );
    }

    #[test]
    fn conflicting_insert_rejected_by_chase() {
        let (spec, _, _, _) = split_spec();
        let i0 = Instance::empty(spec.collab().schema());
        let i1 = apply_event(
            &spec,
            &i0,
            &ev(&spec, 0, &[Value::str("k"), Value::str("a")]),
        )
        .unwrap();
        // p tries to overwrite A with a different value for the same key.
        let err = apply_event(
            &spec,
            &i1,
            &ev(&spec, 0, &[Value::str("k"), Value::str("z")]),
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::InsertChase(_)));
    }

    #[test]
    fn null_key_insert_rejected() {
        let (spec, _, _, _) = split_spec();
        let i0 = Instance::empty(spec.collab().schema());
        let err =
            apply_event(&spec, &i0, &ev(&spec, 0, &[Value::Null, Value::str("a")])).unwrap_err();
        assert!(matches!(err, EngineError::InsertChase(_)));
    }

    #[test]
    fn delete_requires_visibility() {
        let (spec, _, _, _) = split_spec();
        let i0 = Instance::empty(spec.collab().schema());
        let err = apply_event(
            &spec,
            &i0,
            &ev(&spec, 2, &[Value::str("ghost"), Value::str("a")]),
        )
        .unwrap_err();
        // Body fails first: there is no R(ghost, a) in p's view.
        assert!(matches!(err, EngineError::BodyNotSatisfied { .. }));
    }

    #[test]
    fn delete_removes_global_tuple() {
        let (spec, _, _, r) = split_spec();
        let i0 = Instance::empty(spec.collab().schema());
        let i1 = apply_event(
            &spec,
            &i0,
            &ev(&spec, 0, &[Value::str("k"), Value::str("a")]),
        )
        .unwrap();
        let i2 = apply_event(
            &spec,
            &i1,
            &ev(&spec, 2, &[Value::str("k"), Value::str("a")]),
        )
        .unwrap();
        assert!(i2.rel(r).is_empty());
    }

    #[test]
    fn selection_breaks_subsumption_condition() {
        // p's view selects A = "ok": inserting a tuple with A ≠ "ok" would
        // not appear in p's view afterwards ⇒ rejected by condition (ii).
        let schema = Schema::from_relations([RelSchema::new("R", ["K", "A"]).unwrap()]).unwrap();
        let r = schema.rel("R").unwrap();
        let mut cs = CollabSchema::new(schema);
        let p = cs.add_peer("p").unwrap();
        cs.set_view(
            p,
            ViewRel::new(r, [AttrId(1)], Condition::eq_const(AttrId(1), "ok")),
        )
        .unwrap();
        let mut prog = Program::new();
        let mut b = RuleBuilder::new(p, "ins");
        let x = b.var("x");
        prog.add_rule(b.insert(r, [x, Term::Const(Value::str("bad"))]).build());
        let mut b = RuleBuilder::new(p, "ins_ok");
        let x = b.var("x");
        prog.add_rule(b.insert(r, [x, Term::Const(Value::str("ok"))]).build());
        let spec = WorkflowSpec::new(cs, prog).unwrap();
        let i0 = Instance::empty(spec.collab().schema());
        let err = apply_event(&spec, &i0, &ev(&spec, 0, &[Value::int(1)])).unwrap_err();
        assert!(matches!(err, EngineError::InsertNotSubsumed { .. }));
        // The selection-satisfying insert passes.
        apply_event(&spec, &i0, &ev(&spec, 1, &[Value::int(1)])).unwrap();
    }

    #[test]
    fn event_visibility_by_peer_and_by_side_effect() {
        let (spec, p, q, _) = split_spec();
        let i0 = Instance::empty(spec.collab().schema());
        let e = ev(&spec, 0, &[Value::str("k"), Value::str("a")]);
        let i1 = apply_event(&spec, &i0, &e).unwrap();
        // p's own event is visible to p.
        assert!(event_visible(&spec, &e, &i0, &i1, p));
        // q does not see attribute A and the key is new... but the key
        // itself appears in q's view (q sees K, B of the new tuple).
        assert!(event_visible(&spec, &e, &i0, &i1, q));
        // A pure A-update by p is invisible to q: insert (k2,a) then
        // "re-insert" the same tuple — no view change for anyone but p? The
        // simplest invisible case: an event whose updates do not change the
        // instance at all cannot exist here (inserts always add a key), so
        // check invisibility via the q-view equality directly.
        let vq0 = spec.collab().view_of(&i1, q);
        let e2 = ev(&spec, 0, &[Value::str("k"), Value::str("a")]);
        let i2 = apply_event(&spec, &i1, &e2).unwrap();
        assert_eq!(spec.collab().view_of(&i2, q), vq0);
        assert!(!event_visible(&spec, &e2, &i1, &i2, q));
        assert!(event_visible(&spec, &e2, &i1, &i2, p), "own event");
    }

    #[test]
    fn updates_within_one_event_are_order_independent() {
        // An event deleting key 1 and inserting key 2 works regardless of
        // declaration order — both orders produce the same instance.
        let schema = Schema::from_relations([RelSchema::new("R", ["K", "A"]).unwrap()]).unwrap();
        let r = schema.rel("R").unwrap();
        let mut cs = CollabSchema::new(schema);
        let p = cs.add_peer("p").unwrap();
        cs.set_full_view(p, r).unwrap();
        let mut prog = Program::new();
        let mut b = RuleBuilder::new(p, "swap");
        let x = b.var("x");
        let y = b.var("y");
        let a = b.var("a");
        prog.add_rule(
            b.pos(r, [x.clone(), a.clone()])
                .neq(x.clone(), y.clone())
                .key_neg(r, y.clone())
                .delete(r, x.clone())
                .insert(r, [y, a])
                .build(),
        );
        // y is bound where? y occurs in ¬Key and head — unsafe! Give y via
        // a second positive literal instead: use constants.
        let mut prog = Program::new();
        let b = RuleBuilder::new(p, "swap");
        prog.add_rule(
            b.delete(r, Term::Const(Value::int(1)))
                .insert(
                    r,
                    [Term::Const(Value::int(2)), Term::Const(Value::str("a"))],
                )
                .pos(
                    r,
                    [Term::Const(Value::int(1)), Term::Const(Value::str("a"))],
                )
                .build(),
        );
        let spec = WorkflowSpec::new(cs, prog).unwrap();
        let mut i0 = Instance::empty(spec.collab().schema());
        i0.rel_mut(r)
            .insert(Tuple::new([Value::int(1), Value::str("a")]))
            .unwrap();
        let e = Event::new(&spec, RuleId(0), Bindings::empty(0)).unwrap();
        let i1 = apply_event(&spec, &i0, &e).unwrap();
        assert!(i1.rel(r).contains_key(&Value::int(2)));
        assert!(!i1.rel(r).contains_key(&Value::int(1)));
    }
}
