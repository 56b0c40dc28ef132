//! The incremental view plane: delta-maintained peer views.
//!
//! The runtime data plane used to re-materialize every peer's view from
//! scratch (`CollabSchema::view_of` — a full scan + clone of the global
//! instance per peer, per step). Following the self-adjusting-computation
//! lineage of Cheney–Ahmed–Acar (*Provenance Traces*), the [`ViewPlane`]
//! instead owns one [`ViewInstance`] per peer and updates it from the
//! tuple-level [`InstanceDiff`] a transition produces:
//!
//! * a **created** tuple `t` flows to peer `p` iff `σ(R@p)(t)` holds, as an
//!   upsert of `π_{att(R@p)}(t)`;
//! * a **deleted** tuple flows iff it was selected, as a key removal;
//! * a **modified** tuple is prefiltered by relevance — it can only affect
//!   `p` if some changed attribute is projected or mentioned by the
//!   selection — and then dispatched by its selection transition:
//!
//!   | was in σ | now in σ | delta                                   |
//!   |----------|----------|-----------------------------------------|
//!   | yes      | yes      | upsert iff a projected attribute changed |
//!   | no       | yes      | upsert (tuple *enters* the selection)    |
//!   | yes      | no       | removal (tuple *leaves* the selection)   |
//!   | no       | no       | nothing                                 |
//!
//! The pre-modification tuple needed for the "was in σ" test is
//! reconstructed by reverting the [`AttrChange`]s onto the post tuple, so
//! no pre-instance is kept around.
//!
//! `view_of` remains the from-scratch reference implementation: the chaos
//! [`ViewPlaneOracle`](crate::chaos::ViewPlaneOracle), a proptest, and
//! debug assertions in [`Run::push`](crate::run::Run::push) differentially
//! check the plane against it after every step.

use cwf_model::{
    AttrChange, CollabSchema, Instance, InstanceDiff, PeerId, RelId, Tuple, Value, ViewInstance,
};

use crate::delivery::MaterializedView;

/// One peer's view change caused by one event.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ViewDelta {
    /// View tuples that appeared (new key, or changed content under the
    /// same key — the replica upserts them).
    pub upserts: Vec<(RelId, Tuple)>,
    /// Keys that disappeared from the view.
    pub removals: Vec<(RelId, Value)>,
}

impl ViewDelta {
    /// Computes `after − before` on view instances — the from-scratch
    /// reference; the live path derives deltas with [`peer_delta`] instead.
    pub fn between(before: &ViewInstance, after: &ViewInstance) -> ViewDelta {
        let mut delta = ViewDelta::default();
        for (rel, t) in after.facts() {
            if before.get(rel, t.key()) != Some(t) {
                delta.upserts.push((rel, t.clone()));
            }
        }
        for (rel, t) in before.facts() {
            if !after.contains_key(rel, t.key()) {
                delta.removals.push((rel, *t.key()));
            }
        }
        delta
    }

    /// This delta with its upserts and removals sorted, and no spare
    /// capacity: the form in which a delta is stored to be compared later
    /// ([`ViewDelta::matches`]).
    pub fn canonical(mut self) -> Self {
        self.upserts.sort_unstable();
        self.upserts.shrink_to_fit();
        self.removals.sort_unstable();
        self.removals.shrink_to_fit();
        self
    }

    /// Does this delta make the same changes as `canonical`, a delta in
    /// [`ViewDelta::canonical`] form, in whatever order it lists them?
    /// Exact for deltas of one step, whose upserts (and removals) name
    /// distinct keys: a diff creates, deletes or modifies each key at most
    /// once.
    pub fn matches(&self, canonical: &ViewDelta) -> bool {
        self.upserts.len() == canonical.upserts.len()
            && self.removals.len() == canonical.removals.len()
            && self
                .upserts
                .iter()
                .all(|u| canonical.upserts.binary_search(u).is_ok())
            && self
                .removals
                .iter()
                .all(|r| canonical.removals.binary_search(r).is_ok())
    }

    /// Is this a no-op?
    pub fn is_empty(&self) -> bool {
        self.upserts.is_empty() && self.removals.is_empty()
    }

    /// Number of changes.
    pub fn len(&self) -> usize {
        self.upserts.len() + self.removals.len()
    }

    /// Applies the delta to a materialized view replica.
    ///
    /// Idempotent by construction: removals are keyed deletes and upserts
    /// are keyed inserts, applied removals-first, so re-applying the same
    /// delta leaves the replica unchanged — the property that makes
    /// duplicate-suppressing delivery safe even if suppression misses.
    pub fn apply_to(&self, replica: &mut MaterializedView) {
        for (rel, key) in &self.removals {
            replica.remove(*rel, key);
        }
        for (rel, t) in &self.upserts {
            replica.upsert(*rel, t.clone());
        }
    }

    /// Applies the delta to a maintained [`ViewInstance`] (removals first,
    /// idempotent — same discipline as [`ViewDelta::apply_to`]).
    pub fn apply_to_view(&self, view: &mut ViewInstance) {
        for (rel, key) in &self.removals {
            view.remove(*rel, key);
        }
        for (rel, t) in &self.upserts {
            view.upsert(*rel, t.clone());
        }
    }
}

/// Reverts `changes` onto the post-modification tuple, reconstructing the
/// pre-modification tuple.
fn revert(post: &Tuple, changes: &[AttrChange]) -> Tuple {
    let mut old = post.clone();
    for c in changes {
        old.set(c.attr, c.before);
    }
    old
}

/// The view delta at peer `p` induced by `diff` (with `post` the instance
/// *after* the diff — needed to look up the surviving tuple of a
/// modification). See the module docs for the dispatch table.
pub fn peer_delta(
    collab: &CollabSchema,
    p: PeerId,
    diff: &InstanceDiff,
    post: &Instance,
) -> ViewDelta {
    let mut out = ViewDelta::default();
    for (rel, t) in &diff.created {
        if let Some(vr) = collab.view(p, *rel) {
            if vr.selects(t) {
                out.upserts.push((*rel, vr.project(t)));
            }
        }
    }
    for (rel, t) in &diff.deleted {
        if let Some(vr) = collab.view(p, *rel) {
            if vr.selects(t) {
                out.removals.push((*rel, *t.key()));
            }
        }
    }
    for (rel, key, changes) in &diff.modified {
        let Some(vr) = collab.view(p, *rel) else {
            continue;
        };
        // Relevance prefilter: the modification can only affect p if some
        // changed attribute is projected or mentioned by the selection
        // (att(R, p) = att(R@p) ∪ att(σ(R@p)), Section 4).
        let selection_touched = changes.iter().any(|c| vr.selection().mentions(c.attr));
        let projection_touched = changes.iter().any(|c| vr.position(c.attr).is_some());
        if !selection_touched && !projection_touched {
            continue;
        }
        let new = post
            .rel(*rel)
            .get(key)
            .expect("a modified key survives into the post instance");
        let now_in = vr.selects(new);
        let was_in = if selection_touched {
            vr.selects(&revert(new, changes))
        } else {
            now_in
        };
        match (was_in, now_in) {
            // Stays in: only a projection change is observable. A changed
            // projected attribute always changes the projection (AttrChange
            // guarantees before ≠ after).
            (true, true) => {
                if projection_touched {
                    out.upserts.push((*rel, vr.project(new)));
                }
            }
            // Enters the selection: appears as an insert.
            (false, true) => out.upserts.push((*rel, vr.project(new))),
            // Leaves the selection: disappears as a delete.
            (true, false) => out.removals.push((*rel, *key)),
            (false, false) => {}
        }
    }
    out
}

/// The per-run view plane: one incrementally maintained [`ViewInstance`]
/// per peer, advanced by [`ViewPlane::step`] from each transition's diff.
#[derive(Debug, Clone)]
pub struct ViewPlane {
    views: Vec<ViewInstance>,
}

impl ViewPlane {
    /// Bootstraps the plane over `initial`: each peer's view is
    /// `initial@p`, built directly.
    pub fn new(collab: &CollabSchema, initial: &Instance) -> Self {
        ViewPlane {
            views: collab
                .peer_ids()
                .map(|p| collab.view_of(initial, p))
                .collect(),
        }
    }

    /// Peer `p`'s maintained view.
    pub fn view(&self, p: PeerId) -> &ViewInstance {
        &self.views[p.index()]
    }

    /// Advances every view by `diff` (with `post` the instance after the
    /// diff), returning the non-empty per-peer deltas in peer-id order —
    /// exactly what a coordinator broadcasts.
    pub fn step(
        &mut self,
        collab: &CollabSchema,
        diff: &InstanceDiff,
        post: &Instance,
    ) -> Vec<(PeerId, ViewDelta)> {
        let out = Self::deltas(collab, diff, post);
        for (p, delta) in &out {
            delta.apply_to_view(&mut self.views[p.index()]);
        }
        out
    }

    /// The non-empty per-peer deltas [`ViewPlane::step`] derives from
    /// `diff`, in peer-id order, without applying them.
    pub(crate) fn deltas(
        collab: &CollabSchema,
        diff: &InstanceDiff,
        post: &Instance,
    ) -> Vec<(PeerId, ViewDelta)> {
        collab
            .peer_ids()
            .map(|p| (p, peer_delta(collab, p, diff, post)))
            .filter(|(_, delta)| !delta.is_empty())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwf_model::{AttrId, Condition, Instance, RelSchema, Schema, Tuple, Value, ViewRel};

    /// R(K, A, B); author sees everything; todo sees K, B where A = ⊥;
    /// done sees K where A = "x".
    fn setup() -> (CollabSchema, PeerId, PeerId, PeerId, RelId) {
        let schema =
            Schema::from_relations([RelSchema::new("R", ["K", "A", "B"]).unwrap()]).unwrap();
        let r = schema.rel("R").unwrap();
        let mut cs = CollabSchema::new(schema);
        let author = cs.add_peer("author").unwrap();
        let todo = cs.add_peer("todo").unwrap();
        let done = cs.add_peer("done").unwrap();
        cs.set_full_view(author, r).unwrap();
        cs.set_view(
            todo,
            ViewRel::new(r, [AttrId(2)], Condition::eq_const(AttrId(1), Value::Null)),
        )
        .unwrap();
        cs.set_view(
            done,
            ViewRel::new(r, [], Condition::eq_const(AttrId(1), "x")),
        )
        .unwrap();
        (cs, author, todo, done, r)
    }

    fn t(k: i64, a: Option<&str>, b: Option<&str>) -> Tuple {
        Tuple::new([
            Value::int(k),
            a.map(Value::str).unwrap_or(Value::Null),
            b.map(Value::str).unwrap_or(Value::Null),
        ])
    }

    /// Steps the plane by the diff between two instances and checks every
    /// peer's maintained view against `view_of` of the post instance.
    fn check_step(
        cs: &CollabSchema,
        plane: &mut ViewPlane,
        pre: &Instance,
        post: &Instance,
    ) -> Vec<(PeerId, ViewDelta)> {
        let diff = InstanceDiff::between(pre, post);
        let deltas = plane.step(cs, &diff, post);
        for p in cs.peer_ids() {
            assert_eq!(
                plane.view(p),
                &cs.view_of(post, p),
                "plane diverged from view_of at peer {}",
                cs.peer_name(p)
            );
        }
        deltas
    }

    #[test]
    fn bootstrap_matches_view_of() {
        let (cs, author, todo, done, r) = setup();
        let mut i = Instance::empty(cs.schema());
        i.rel_mut(r).insert(t(1, None, Some("draft"))).unwrap();
        i.rel_mut(r).insert(t(2, Some("x"), None)).unwrap();
        let plane = ViewPlane::new(&cs, &i);
        for p in [author, todo, done] {
            assert_eq!(plane.view(p), &cs.view_of(&i, p));
        }
    }

    #[test]
    fn create_and_delete_respect_selections() {
        let (cs, author, todo, done, r) = setup();
        let i0 = Instance::empty(cs.schema());
        let mut plane = ViewPlane::new(&cs, &i0);
        let mut i1 = i0.clone();
        i1.rel_mut(r).insert(t(1, None, Some("b"))).unwrap();
        let deltas = check_step(&cs, &mut plane, &i0, &i1);
        // author and todo see the new tuple; done (A = "x") does not.
        let touched: Vec<PeerId> = deltas.iter().map(|(p, _)| *p).collect();
        assert_eq!(touched, vec![author, todo]);
        assert!(!touched.contains(&done));
        // Deleting it removes from exactly the same peers.
        let mut i2 = i1.clone();
        i2.rel_mut(r).remove(&Value::int(1));
        let deltas = check_step(&cs, &mut plane, &i1, &i2);
        assert!(deltas
            .iter()
            .all(|(_, d)| d.upserts.is_empty() && d.removals.len() == 1));
        assert_eq!(deltas.len(), 2);
    }

    #[test]
    fn modification_enters_and_leaves_selections() {
        let (cs, author, todo, done, r) = setup();
        let mut i0 = Instance::empty(cs.schema());
        i0.rel_mut(r).insert(t(1, None, Some("b"))).unwrap();
        let mut plane = ViewPlane::new(&cs, &i0);
        // Fill A = ⊥ with "x": the tuple *leaves* todo's selection and
        // *enters* done's.
        let mut i1 = i0.clone();
        i1.rel_mut(r).remove(&Value::int(1));
        i1.rel_mut(r).insert(t(1, Some("x"), Some("b"))).unwrap();
        let deltas = check_step(&cs, &mut plane, &i0, &i1);
        let of = |p: PeerId| deltas.iter().find(|(q, _)| *q == p).map(|(_, d)| d);
        // todo: pure removal (leave).
        let td = of(todo).expect("todo notified");
        assert!(td.upserts.is_empty());
        assert_eq!(td.removals, vec![(r, Value::int(1))]);
        // done: pure upsert (enter), key-only projection.
        let dd = of(done).expect("done notified");
        assert!(dd.removals.is_empty());
        assert_eq!(dd.upserts, vec![(r, Tuple::new([Value::int(1)]))]);
        // author: in-place upsert (stays in, projection changed).
        let ad = of(author).expect("author notified");
        assert!(ad.removals.is_empty());
        assert_eq!(ad.upserts.len(), 1);
    }

    #[test]
    fn irrelevant_modification_flows_to_no_one_extra() {
        let (cs, author, todo, done, r) = setup();
        let mut i0 = Instance::empty(cs.schema());
        i0.rel_mut(r).insert(t(1, Some("x"), None)).unwrap();
        let mut plane = ViewPlane::new(&cs, &i0);
        // Fill B: projected at author and todo, but the tuple is outside
        // todo's selection (A = "x" ≠ ⊥) and done neither projects nor
        // selects on B — only author hears of it.
        let mut i1 = i0.clone();
        i1.rel_mut(r).remove(&Value::int(1));
        i1.rel_mut(r).insert(t(1, Some("x"), Some("b"))).unwrap();
        let deltas = check_step(&cs, &mut plane, &i0, &i1);
        let touched: Vec<PeerId> = deltas.iter().map(|(p, _)| *p).collect();
        assert_eq!(touched, vec![author]);
        assert!(!touched.contains(&todo));
        assert!(!touched.contains(&done));
    }

    #[test]
    fn peer_delta_agrees_with_between_on_random_transitions() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (cs, _, _, _, r) = setup();
        let mut rng = StdRng::seed_from_u64(42);
        let mut cur = Instance::empty(cs.schema());
        let mut plane = ViewPlane::new(&cs, &cur);
        let val = |rng: &mut StdRng| -> Value {
            match rng.gen_range(0..3) {
                0 => Value::Null,
                1 => Value::str("x"),
                _ => Value::str("y"),
            }
        };
        for _ in 0..200 {
            let mut next = cur.clone();
            let k = Value::int(rng.gen_range(0..5));
            match rng.gen_range(0..3) {
                0 => {
                    // Upsert a (possibly modified) tuple under key k.
                    next.rel_mut(r).remove(&k);
                    let (a, b) = (val(&mut rng), val(&mut rng));
                    next.rel_mut(r).insert(Tuple::new([k, a, b])).unwrap();
                }
                1 => {
                    next.rel_mut(r).remove(&k);
                }
                _ => {} // no-op transition: diff must be empty
            }
            let diff = InstanceDiff::between(&cur, &next);
            for p in cs.peer_ids() {
                let scratch = ViewDelta::between(&cs.view_of(&cur, p), &cs.view_of(&next, p));
                let incremental = peer_delta(&cs, p, &diff, &next);
                assert_eq!(incremental, scratch);
            }
            plane.step(&cs, &diff, &next);
            for p in cs.peer_ids() {
                assert_eq!(plane.view(p), &cs.view_of(&next, p));
            }
            cur = next;
        }
    }
}
