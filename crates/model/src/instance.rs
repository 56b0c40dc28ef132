//! Database instances.
//!
//! A (valid) instance maps every relation of the schema to a finite keyed
//! relation: no tuple has `⊥` as key, and keys are unique within a relation
//! (`Inst_K(D)`, Section 2). Ordered maps give deterministic iteration, which
//! makes runs, scenarios and synthesized programs reproducible.
//!
//! [`RawInstance`] is the *pre-chase* form in which key collisions may occur
//! transiently (e.g. `I ∪ {R(u^⊥)}` during an insertion); the chase in
//! [`crate::chase::chase`] turns a raw instance back into a valid one or reports a
//! conflict.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::ModelError;
use crate::schema::{RelId, Schema};
use crate::tuple::Tuple;
use crate::value::Value;

/// A valid keyed relation: key value → tuple (whose key equals the map key).
#[derive(Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Relation {
    tuples: BTreeMap<Value, Tuple>,
}

impl Relation {
    /// The empty relation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The tuple with key `k`, if any.
    pub fn get(&self, k: &Value) -> Option<&Tuple> {
        self.tuples.get(k)
    }

    /// Does a tuple with key `k` exist? (This is the `Key_R` view of the
    /// paper: `I(Key_R) = π_K(I(R))`.)
    pub fn contains_key(&self, k: &Value) -> bool {
        self.tuples.contains_key(k)
    }

    /// Inserts a tuple, replacing any previous tuple with the same key.
    /// Returns an error if the tuple's key is `⊥` (validity).
    pub fn insert(&mut self, t: Tuple) -> Result<Option<Tuple>, ModelError> {
        if t.key().is_null() {
            return Err(ModelError::NullKey);
        }
        Ok(self.tuples.insert(*t.key(), t))
    }

    /// Removes (and returns) the tuple with key `k`.
    pub fn remove(&mut self, k: &Value) -> Option<Tuple> {
        self.tuples.remove(k)
    }

    /// Iterates over tuples in key order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.values()
    }

    /// Iterates over keys in order (`Key_R`).
    pub fn keys(&self) -> impl Iterator<Item = &Value> {
        self.tuples.keys()
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.tuples.values()).finish()
    }
}

impl<'a> IntoIterator for &'a Relation {
    type Item = &'a Tuple;
    type IntoIter = std::collections::btree_map::Values<'a, Value, Tuple>;
    fn into_iter(self) -> Self::IntoIter {
        self.tuples.values()
    }
}

/// A valid global instance over a [`Schema`]: one [`Relation`] per relation
/// id, in schema order.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Instance {
    relations: Vec<Relation>,
}

impl Instance {
    /// The empty instance over `schema`.
    pub fn empty(schema: &Schema) -> Self {
        Instance {
            relations: (0..schema.len()).map(|_| Relation::new()).collect(),
        }
    }

    /// The relation instance of `r`.
    pub fn rel(&self, r: RelId) -> &Relation {
        &self.relations[r.index()]
    }

    /// Mutable access to the relation instance of `r`.
    pub fn rel_mut(&mut self, r: RelId) -> &mut Relation {
        &mut self.relations[r.index()]
    }

    /// Number of relations (schema size).
    pub fn width(&self) -> usize {
        self.relations.len()
    }

    /// Total number of tuples over all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.iter().map(Relation::len).sum()
    }

    /// Is the instance entirely empty (the paper's initial instance `∅`)?
    pub fn is_empty(&self) -> bool {
        self.relations.iter().all(Relation::is_empty)
    }

    /// Iterates `(relation id, tuple)` over the whole instance.
    pub fn facts(&self) -> impl Iterator<Item = (RelId, &Tuple)> {
        self.relations
            .iter()
            .enumerate()
            .flat_map(|(i, rel)| rel.iter().map(move |t| (RelId(i as u32), t)))
    }

    /// The active domain: every non-`⊥` value occurring in the instance.
    /// Used by the global-freshness requirement on runs and by the
    /// transparency definitions (`adom(J) ∩ new(α) = ∅`, Section 5).
    pub fn adom(&self) -> BTreeSet<Value> {
        let mut dom = BTreeSet::new();
        for (_, t) in self.facts() {
            for v in t.values() {
                if !v.is_null() {
                    dom.insert(*v);
                }
            }
        }
        dom
    }

    /// Renders the instance against its schema (one fact per line, sorted).
    pub fn display<'a>(&'a self, schema: &'a Schema) -> InstanceDisplay<'a> {
        InstanceDisplay {
            instance: self,
            schema,
        }
    }
}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.relations.iter()).finish()
    }
}

/// Display adaptor pairing an instance with its schema.
pub struct InstanceDisplay<'a> {
    instance: &'a Instance,
    schema: &'a Schema,
}

impl fmt::Display for InstanceDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (r, t) in self.instance.facts() {
            if !first {
                writeln!(f)?;
            }
            first = false;
            write!(f, "{}", t.display(self.schema.relation(r)))?;
        }
        Ok(())
    }
}

/// A *pre-chase* instance: a bag of tuples per relation, where key collisions
/// and `⊥` keys are allowed. This is the input of [`crate::chase::chase`].
#[derive(Clone, PartialEq, Eq, Default)]
pub struct RawInstance {
    relations: Vec<Vec<Tuple>>,
}

impl RawInstance {
    /// An empty raw instance shaped like `schema`.
    pub fn empty(schema: &Schema) -> Self {
        RawInstance {
            relations: vec![Vec::new(); schema.len()],
        }
    }

    /// Starts from a valid instance (its tuples, unchanged).
    pub fn from_instance(i: &Instance) -> Self {
        RawInstance {
            relations: (0..i.width())
                .map(|r| i.rel(RelId(r as u32)).iter().cloned().collect())
                .collect(),
        }
    }

    /// Adds a tuple to relation `r`.
    pub fn push(&mut self, r: RelId, t: Tuple) {
        self.relations[r.index()].push(t);
    }

    /// The tuples of relation `r` (in insertion order).
    pub fn rel(&self, r: RelId) -> &[Tuple] {
        &self.relations[r.index()]
    }

    /// Number of relations.
    pub fn width(&self) -> usize {
        self.relations.len()
    }
}

impl fmt::Debug for RawInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.relations.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelSchema;

    fn schema() -> Schema {
        Schema::from_relations([
            RelSchema::new("R", ["K", "A"]).unwrap(),
            RelSchema::proposition("T"),
        ])
        .unwrap()
    }

    fn t2(k: &str, a: &str) -> Tuple {
        Tuple::new([Value::str(k), Value::str(a)])
    }

    #[test]
    fn relation_insert_lookup_remove() {
        let mut rel = Relation::new();
        assert!(rel.insert(t2("k1", "a")).unwrap().is_none());
        assert!(rel.contains_key(&Value::str("k1")));
        assert_eq!(rel.get(&Value::str("k1")), Some(&t2("k1", "a")));
        // Same key replaces.
        let old = rel.insert(t2("k1", "b")).unwrap();
        assert_eq!(old, Some(t2("k1", "a")));
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.remove(&Value::str("k1")), Some(t2("k1", "b")));
        assert!(rel.is_empty());
    }

    #[test]
    fn relation_rejects_null_key() {
        let mut rel = Relation::new();
        let t = Tuple::new([Value::Null, Value::str("a")]);
        assert!(matches!(rel.insert(t), Err(ModelError::NullKey)));
    }

    #[test]
    fn instance_facts_and_adom() {
        let s = schema();
        let mut i = Instance::empty(&s);
        assert!(i.is_empty());
        i.rel_mut(RelId(0)).insert(t2("k", "a")).unwrap();
        i.rel_mut(RelId(1))
            .insert(Tuple::new([Value::int(0)]))
            .unwrap();
        assert_eq!(i.total_tuples(), 2);
        let facts: Vec<_> = i.facts().map(|(r, _)| r).collect();
        assert_eq!(facts, vec![RelId(0), RelId(1)]);
        let dom = i.adom();
        assert!(dom.contains(&Value::str("k")));
        assert!(dom.contains(&Value::str("a")));
        assert!(dom.contains(&Value::int(0)));
        assert_eq!(dom.len(), 3);
    }

    #[test]
    fn adom_skips_nulls() {
        let s = schema();
        let mut i = Instance::empty(&s);
        i.rel_mut(RelId(0))
            .insert(Tuple::new([Value::str("k"), Value::Null]))
            .unwrap();
        assert_eq!(i.adom().len(), 1);
    }

    #[test]
    fn raw_instance_allows_key_collisions() {
        let s = schema();
        let mut raw = RawInstance::from_instance(&Instance::empty(&s));
        raw.push(RelId(0), t2("k", "a"));
        raw.push(RelId(0), Tuple::new([Value::str("k"), Value::Null]));
        assert_eq!(raw.rel(RelId(0)).len(), 2);
        assert_eq!(raw.width(), 2);
    }

    #[test]
    fn display_lists_facts() {
        let s = schema();
        let mut i = Instance::empty(&s);
        i.rel_mut(RelId(0)).insert(t2("k", "a")).unwrap();
        let shown = i.display(&s).to_string();
        assert_eq!(shown, "R(\"k\", \"a\")");
    }
}
