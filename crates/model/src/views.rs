//! Collaborative schemas and peer views (Definition 2.1).
//!
//! A collaborative schema equips a global schema `D` with a finite set of
//! peers and, per peer `p`, a view schema `D@p`: a subset of the relations,
//! each with a subset of attributes containing the key (`projection`) and a
//! selection condition `σ(R@p)` over the *full* attribute set of `R`.
//!
//! The view instance at `p` is
//! `I@p(R@p) = π_{att(R@p)}(σ_{σ(R@p)}(I(R)))`.
//!
//! A schema is *lossless* when every valid global instance can be
//! reconstructed by chasing the union of its padded peer views. We check the
//! equivalent per-attribute condition: for each relation `R` and attribute
//! `A ∈ att(R)`, the disjunction of `σ(R@p)` over peers whose view of `R`
//! contains `A` is a tautology. (⇒: every tuple satisfies some such
//! selection, so each attribute value survives in some view and the chase
//! re-merges the padded fragments by key. ⇐: a tuple falsifying the
//! disjunction for `A` loses its `A`-value in every view — Example 2.2.)

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::chase::{chase, ChaseFailure};
use crate::condition::Condition;
use crate::error::ModelError;
use crate::instance::{Instance, RawInstance};
use crate::schema::{AttrId, PeerId, RelId, Schema, KEY};
use crate::solver;
use crate::store::RelStore;
use crate::tuple::Tuple;
use crate::value::Value;

/// One peer's view of one relation: the projected attributes (sorted, always
/// containing the key — so the key is position 0 of view tuples too) and the
/// selection condition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ViewRel {
    rel: RelId,
    attrs: Vec<AttrId>,
    selection: Condition,
}

impl ViewRel {
    /// Creates a view of `rel` exposing `attrs` (the key is added if absent)
    /// under `selection`.
    pub fn new(rel: RelId, attrs: impl IntoIterator<Item = AttrId>, selection: Condition) -> Self {
        let mut attrs: Vec<AttrId> = attrs.into_iter().collect();
        attrs.push(KEY);
        attrs.sort();
        attrs.dedup();
        ViewRel {
            rel,
            attrs,
            selection,
        }
    }

    /// A full view: all attributes, selection `true` — the shape required of
    /// co-observers by guideline (C1) in Section 6.
    pub fn full(schema: &Schema, rel: RelId) -> Self {
        ViewRel::new(rel, schema.relation(rel).attr_ids(), Condition::True)
    }

    /// The viewed relation.
    pub fn rel(&self) -> RelId {
        self.rel
    }

    /// `att(R@p)`, sorted, key first.
    pub fn attrs(&self) -> &[AttrId] {
        &self.attrs
    }

    /// `σ(R@p)`.
    pub fn selection(&self) -> &Condition {
        &self.selection
    }

    /// Is this view full (all attributes of `rel` in `schema`, selection
    /// equivalent to `true`)? — the (C1) test.
    pub fn is_full(&self, schema: &Schema) -> bool {
        self.attrs.len() == schema.relation(self.rel).arity() && solver::tautology(&self.selection)
    }

    /// Position of attribute `a` inside view tuples, if exposed.
    pub fn position(&self, a: AttrId) -> Option<usize> {
        self.attrs.binary_search(&a).ok()
    }

    /// Does the selection admit this (full-width) tuple?
    pub fn selects(&self, t: &Tuple) -> bool {
        self.selection.eval(t)
    }

    /// Projects a full-width tuple into view width.
    pub fn project(&self, t: &Tuple) -> Tuple {
        t.project(&self.attrs)
    }

    /// Pads a view-width tuple back to full width (`u^⊥`).
    pub fn pad(&self, view_tuple: &Tuple, full_arity: usize) -> Tuple {
        Tuple::padded(
            full_arity,
            self.attrs
                .iter()
                .copied()
                .zip(view_tuple.values().iter().cloned()),
        )
    }

    /// `att(R, p) = att(R@p) ∪ att(σ(R@p))` — the attributes *relevant* to
    /// the peer (Section 4): they determine whether a tuple is visible and
    /// what is seen of it.
    pub fn relevant_attrs(&self) -> BTreeSet<AttrId> {
        let mut out: BTreeSet<AttrId> = self.attrs.iter().copied().collect();
        out.extend(self.selection.attrs());
        out
    }
}

/// A collaborative schema: global schema, peers, and per-peer view schemas.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CollabSchema {
    schema: Schema,
    peers: Vec<String>,
    /// `views[p]` maps each relation visible at peer `p` to its view.
    views: Vec<BTreeMap<RelId, ViewRel>>,
}

impl CollabSchema {
    /// A collaborative schema over `schema` with no peers yet.
    pub fn new(schema: Schema) -> Self {
        CollabSchema {
            schema,
            peers: Vec::new(),
            views: Vec::new(),
        }
    }

    /// The global schema `D`.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Adds a peer, returning its id.
    pub fn add_peer(&mut self, name: impl Into<String>) -> Result<PeerId, ModelError> {
        let name = name.into();
        if name.is_empty() {
            return Err(ModelError::EmptyName);
        }
        if self.peer(&name).is_some() {
            return Err(ModelError::DuplicatePeer { peer: name });
        }
        let id = PeerId(self.peers.len() as u32);
        self.peers.push(name);
        self.views.push(BTreeMap::new());
        Ok(id)
    }

    /// Number of peers.
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// All peer ids.
    pub fn peer_ids(&self) -> impl ExactSizeIterator<Item = PeerId> {
        (0..self.peers.len() as u32).map(PeerId)
    }

    /// Resolves a peer name.
    pub fn peer(&self, name: &str) -> Option<PeerId> {
        self.peers
            .iter()
            .position(|p| p == name)
            .map(|i| PeerId(i as u32))
    }

    /// The name of peer `p`.
    pub fn peer_name(&self, p: PeerId) -> &str {
        &self.peers[p.index()]
    }

    /// Grants peer `p` the view `view` of `view.rel()` (replacing any
    /// previous view of that relation).
    pub fn set_view(&mut self, p: PeerId, view: ViewRel) -> Result<(), ModelError> {
        let rel = view.rel();
        if rel.index() >= self.schema.len() {
            return Err(ModelError::UnknownRelation { id: rel });
        }
        let arity = self.schema.relation(rel).arity();
        if let Some(bad) = view.attrs().iter().find(|a| a.index() >= arity) {
            return Err(ModelError::UnknownAttribute { rel, attr: *bad });
        }
        if let Some(bad) = view
            .selection()
            .attrs()
            .into_iter()
            .find(|a| a.index() >= arity)
        {
            return Err(ModelError::UnknownAttribute { rel, attr: bad });
        }
        self.views[p.index()].insert(rel, view);
        Ok(())
    }

    /// Grants `p` a full view (all attributes, selection `true`) of `rel`.
    pub fn set_full_view(&mut self, p: PeerId, rel: RelId) -> Result<(), ModelError> {
        self.set_view(p, ViewRel::full(&self.schema, rel))
    }

    /// The view of `rel` at `p`, if `R@p ∈ D@p`.
    pub fn view(&self, p: PeerId, rel: RelId) -> Option<&ViewRel> {
        self.views[p.index()].get(&rel)
    }

    /// Does peer `p` see relation `rel` at all?
    pub fn sees(&self, p: PeerId, rel: RelId) -> bool {
        self.views[p.index()].contains_key(&rel)
    }

    /// The relations visible at `p`, in id order.
    pub fn visible_rels(&self, p: PeerId) -> impl Iterator<Item = RelId> + '_ {
        self.views[p.index()].keys().copied()
    }

    /// Computes the view instance `I@p`.
    pub fn view_of(&self, instance: &Instance, p: PeerId) -> ViewInstance {
        let mut rels = BTreeMap::new();
        for (rel, view) in &self.views[p.index()] {
            // Source tuples arrive in key order and projection preserves the
            // key, so these upserts hit the store's append fast path.
            let mut out = RelStore::new();
            for t in instance.rel(*rel).iter() {
                if view.selects(t) {
                    out.upsert(view.project(t));
                }
            }
            rels.insert(*rel, out);
        }
        ViewInstance { rels }
    }

    /// The empty view instance at `p`: one (empty) relation entry per
    /// visible relation — structurally identical to
    /// `view_of(&Instance::empty(..), p)`, without touching an instance.
    /// This is the bootstrap point of the incremental view plane.
    pub fn empty_view(&self, p: PeerId) -> ViewInstance {
        ViewInstance {
            rels: self.views[p.index()]
                .keys()
                .map(|rel| (*rel, RelStore::new()))
                .collect(),
        }
    }

    /// `att(R, q)` for a peer that sees `R`; `None` otherwise.
    pub fn relevant_attrs(&self, p: PeerId, rel: RelId) -> Option<BTreeSet<AttrId>> {
        self.view(p, rel).map(ViewRel::relevant_attrs)
    }

    /// Checks the losslessness condition (see module docs). Returns the
    /// first violation found.
    pub fn check_losslessness(&self) -> Result<(), ModelError> {
        for rel in self.schema.rel_ids() {
            for a in self.schema.relation(rel).attr_ids() {
                let covering: Vec<Condition> = self
                    .peer_ids()
                    .filter_map(|p| self.view(p, rel))
                    .filter(|v| v.position(a).is_some())
                    .map(|v| v.selection().clone())
                    .collect();
                if !solver::tautology(&Condition::or(covering)) {
                    return Err(ModelError::NotLossless {
                        rel,
                        attr: a,
                        relation: self.schema.relation(rel).name().to_string(),
                        attribute: self.schema.relation(rel).attr_name(a).to_string(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Reconstructs the global instance from the collective peer views by
    /// padding and chasing — the right-hand side of the losslessness
    /// equation. Used by tests to validate `check_losslessness`.
    pub fn reconstruct(&self, instance: &Instance) -> Result<Instance, ChaseFailure> {
        let mut raw = RawInstance::empty(&self.schema);
        for p in self.peer_ids() {
            let view = self.view_of(instance, p);
            for (rel, tuples) in &view.rels {
                let vr = self.view(p, *rel).expect("view exists for viewed rel");
                let arity = self.schema.relation(*rel).arity();
                for t in tuples {
                    raw.push(*rel, vr.pad(t, arity));
                }
            }
        }
        chase(&self.schema, &raw)
    }
}

/// The view instance `I@p`: per visible relation, a columnar [`RelStore`]
/// of the projected tuples in key order (the key is always part of a view).
///
/// Equality of view instances is what defines event visibility
/// (`I_{i−1}@p ≠ I_i@p`, Section 3), so `PartialEq` here is semantic:
/// same relations, same rows — the sorted stores make this a pair of dense
/// slice comparisons per relation.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ViewInstance {
    rels: BTreeMap<RelId, RelStore>,
}

impl ViewInstance {
    /// The tuples of `rel` visible in this view (empty if the relation is not
    /// part of the view schema).
    pub fn rel(&self, rel: RelId) -> impl Iterator<Item = &Tuple> {
        self.rels.get(&rel).into_iter().flatten()
    }

    /// The columnar store of `rel`, if the relation is part of the view
    /// schema — the join planner's entry point for index probes.
    pub fn store(&self, rel: RelId) -> Option<&RelStore> {
        self.rels.get(&rel)
    }

    /// The visible tuple with key `k` in `rel`, if any.
    pub fn get(&self, rel: RelId, k: &Value) -> Option<&Tuple> {
        self.rels.get(&rel).and_then(|m| m.get(k))
    }

    /// Does the view contain a tuple with key `k` in `rel`? (`Key_{R@p}`.)
    pub fn contains_key(&self, rel: RelId, k: &Value) -> bool {
        self.rels.get(&rel).is_some_and(|m| m.contains_key(k))
    }

    /// The visible keys of `rel`, in order.
    pub fn keys(&self, rel: RelId) -> impl Iterator<Item = &Value> {
        self.rels.get(&rel).into_iter().flat_map(RelStore::keys)
    }

    /// Total number of visible tuples.
    pub fn total_tuples(&self) -> usize {
        self.rels.values().map(RelStore::len).sum()
    }

    /// Is the whole view empty?
    pub fn is_empty(&self) -> bool {
        self.rels.values().all(RelStore::is_empty)
    }

    /// Number of visible tuples in `rel` (0 if the relation is not part of
    /// the view schema). Drives the smallest-relation heuristic of the join
    /// planner.
    pub fn rel_len(&self, rel: RelId) -> usize {
        self.rels.get(&rel).map_or(0, RelStore::len)
    }

    /// Inserts or replaces the view tuple for `t`'s key in `rel` (delta
    /// application; the tuple is already projected to view width).
    pub fn upsert(&mut self, rel: RelId, t: Tuple) {
        self.rels.entry(rel).or_default().upsert(t);
    }

    /// Removes the view tuple with key `k` from `rel`, if present (delta
    /// application; absent keys are ignored so removal is idempotent).
    pub fn remove(&mut self, rel: RelId, k: &Value) {
        if let Some(m) = self.rels.get_mut(&rel) {
            m.remove(k);
        }
    }

    /// Iterates `(rel, tuple)` over the view.
    pub fn facts(&self) -> impl Iterator<Item = (RelId, &Tuple)> {
        self.rels
            .iter()
            .flat_map(|(r, m)| m.iter().map(move |t| (*r, t)))
    }
}

impl fmt::Display for ViewInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (r, t) in self.facts() {
            if !first {
                writeln!(f)?;
            }
            first = false;
            write!(f, "{:?}{:?}", r, t)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelSchema;

    /// The schema of Example 2.2: R(K, A, B); p sees KAB where A = ⊥;
    /// q sees KA with selection true.
    fn example_2_2() -> (CollabSchema, PeerId, PeerId, RelId) {
        let schema =
            Schema::from_relations([RelSchema::new("R", ["K", "A", "B"]).unwrap()]).unwrap();
        let r = schema.rel("R").unwrap();
        let mut cs = CollabSchema::new(schema);
        let p = cs.add_peer("p").unwrap();
        let q = cs.add_peer("q").unwrap();
        cs.set_view(
            p,
            ViewRel::new(
                r,
                [AttrId(0), AttrId(1), AttrId(2)],
                Condition::eq_const(AttrId(1), Value::Null),
            ),
        )
        .unwrap();
        cs.set_view(q, ViewRel::new(r, [AttrId(0), AttrId(1)], Condition::True))
            .unwrap();
        (cs, p, q, r)
    }

    #[test]
    fn example_2_2_is_not_lossless() {
        let (cs, _, _, r) = example_2_2();
        let err = cs.check_losslessness().unwrap_err();
        // Attribute B is only visible at p, whose selection A = ⊥ is not a
        // tautology: the value "c" of Example 2.2 can be lost.
        match err {
            ModelError::NotLossless { rel, attribute, .. } => {
                assert_eq!(rel, r);
                assert_eq!(attribute, "B");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn example_2_2_view_computation_and_loss() {
        let (cs, p, q, r) = example_2_2();
        // Global instance {R(k, a, c)} as produced by the example's inserts.
        let mut i = Instance::empty(cs.schema());
        i.rel_mut(r)
            .insert(Tuple::new([
                Value::str("k"),
                Value::str("a"),
                Value::str("c"),
            ]))
            .unwrap();
        // p's selection A = ⊥ now rejects the tuple: it disappeared from p's view.
        let at_p = cs.view_of(&i, p);
        assert!(at_p.is_empty());
        // q still sees the projection on K, A.
        let at_q = cs.view_of(&i, q);
        assert_eq!(
            at_q.get(r, &Value::str("k")),
            Some(&Tuple::new([Value::str("k"), Value::str("a")]))
        );
        // Reconstruction loses the value "c".
        let back = cs.reconstruct(&i).unwrap();
        let got = back.rel(r).get(&Value::str("k")).unwrap();
        assert!(got.get(AttrId(2)).is_null(), "the value c is lost");
        assert_ne!(back, i);
    }

    #[test]
    fn full_views_are_lossless_and_reconstruct() {
        let schema =
            Schema::from_relations([RelSchema::new("R", ["K", "A", "B"]).unwrap()]).unwrap();
        let r = schema.rel("R").unwrap();
        let mut cs = CollabSchema::new(schema);
        let p = cs.add_peer("p").unwrap();
        cs.set_full_view(p, r).unwrap();
        cs.check_losslessness().unwrap();
        let mut i = Instance::empty(cs.schema());
        i.rel_mut(r)
            .insert(Tuple::new([Value::int(1), Value::str("a"), Value::Null]))
            .unwrap();
        assert_eq!(cs.reconstruct(&i).unwrap(), i);
    }

    #[test]
    fn complementary_selections_are_lossless() {
        // p sees tuples with A = ⊥, q sees tuples with A ≠ ⊥; both see all
        // attributes. Together they cover everything.
        let schema = Schema::from_relations([RelSchema::new("R", ["K", "A"]).unwrap()]).unwrap();
        let r = schema.rel("R").unwrap();
        let mut cs = CollabSchema::new(schema);
        let p = cs.add_peer("p").unwrap();
        let q = cs.add_peer("q").unwrap();
        cs.set_view(
            p,
            ViewRel::new(
                r,
                [AttrId(0), AttrId(1)],
                Condition::eq_const(AttrId(1), Value::Null),
            ),
        )
        .unwrap();
        cs.set_view(
            q,
            ViewRel::new(
                r,
                [AttrId(0), AttrId(1)],
                Condition::neq_const(AttrId(1), Value::Null),
            ),
        )
        .unwrap();
        cs.check_losslessness().unwrap();
        // Round-trip.
        let mut i = Instance::empty(cs.schema());
        i.rel_mut(r)
            .insert(Tuple::new([Value::int(1), Value::str("x")]))
            .unwrap();
        i.rel_mut(r)
            .insert(Tuple::new([Value::int(2), Value::Null]))
            .unwrap();
        assert_eq!(cs.reconstruct(&i).unwrap(), i);
    }

    #[test]
    fn view_rel_invariants() {
        let v = ViewRel::new(RelId(0), [AttrId(2), AttrId(1)], Condition::True);
        // Key added and attrs sorted.
        assert_eq!(v.attrs(), &[AttrId(0), AttrId(1), AttrId(2)]);
        assert_eq!(v.position(AttrId(2)), Some(2));
        assert_eq!(v.position(AttrId(3)), None);
    }

    #[test]
    fn relevant_attrs_includes_selection_attrs() {
        // View exposes K only, but selects on A: att(R, p) = {K, A}.
        let v = ViewRel::new(RelId(0), [], Condition::eq_const(AttrId(1), "x"));
        let rel: Vec<_> = v.relevant_attrs().into_iter().collect();
        assert_eq!(rel, vec![AttrId(0), AttrId(1)]);
    }

    #[test]
    fn duplicate_peer_rejected() {
        let mut cs = CollabSchema::new(Schema::new());
        cs.add_peer("p").unwrap();
        assert!(matches!(
            cs.add_peer("p"),
            Err(ModelError::DuplicatePeer { .. })
        ));
    }

    #[test]
    fn set_view_validates_ids() {
        let schema = Schema::from_relations([RelSchema::proposition("T")]).unwrap();
        let t = schema.rel("T").unwrap();
        let mut cs = CollabSchema::new(schema);
        let p = cs.add_peer("p").unwrap();
        assert!(matches!(
            cs.set_view(p, ViewRel::new(RelId(7), [], Condition::True)),
            Err(ModelError::UnknownRelation { .. })
        ));
        assert!(matches!(
            cs.set_view(p, ViewRel::new(t, [AttrId(5)], Condition::True)),
            Err(ModelError::UnknownAttribute { .. })
        ));
        assert!(matches!(
            cs.set_view(p, ViewRel::new(t, [], Condition::eq_const(AttrId(3), "x"))),
            Err(ModelError::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn empty_view_matches_view_of_empty_instance() {
        let (cs, p, q, _) = example_2_2();
        let empty = Instance::empty(cs.schema());
        assert_eq!(cs.empty_view(p), cs.view_of(&empty, p));
        assert_eq!(cs.empty_view(q), cs.view_of(&empty, q));
    }

    #[test]
    fn upsert_remove_and_rel_len() {
        let (cs, _, q, r) = example_2_2();
        let mut v = cs.empty_view(q);
        assert_eq!(v.rel_len(r), 0);
        v.upsert(r, Tuple::new([Value::str("k"), Value::str("a")]));
        v.upsert(r, Tuple::new([Value::str("k"), Value::str("b")]));
        assert_eq!(v.rel_len(r), 1);
        assert_eq!(
            v.get(r, &Value::str("k")),
            Some(&Tuple::new([Value::str("k"), Value::str("b")]))
        );
        v.remove(r, &Value::str("missing")); // idempotent no-op
        v.remove(r, &Value::str("k"));
        assert_eq!(v.rel_len(r), 0);
        // Removal keeps the (empty) relation entry: structural equality with
        // view_of is preserved.
        let empty = Instance::empty(cs.schema());
        assert_eq!(v, cs.view_of(&empty, q));
    }

    #[test]
    fn view_instance_accessors() {
        let (cs, _, q, r) = example_2_2();
        let mut i = Instance::empty(cs.schema());
        i.rel_mut(r)
            .insert(Tuple::new([Value::str("k"), Value::str("a"), Value::Null]))
            .unwrap();
        let v = cs.view_of(&i, q);
        assert_eq!(v.total_tuples(), 1);
        assert!(v.contains_key(r, &Value::str("k")));
        assert_eq!(v.keys(r).count(), 1);
        assert_eq!(v.facts().count(), 1);
        assert!(!v.is_empty());
    }
}
