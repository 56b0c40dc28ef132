//! Global database schemas.
//!
//! A *relation schema* is a relation symbol with a sequence of distinct
//! attributes; every relation carries a unique single-attribute key `K`
//! (Section 2 of the paper assumes, for simplicity, that the key attribute is
//! the same for all relations — we realize this by fixing it at **position
//! 0** of every relation).
//!
//! Identifiers ([`RelId`], [`AttrId`], [`PeerId`]) are small `Copy` indices
//! into the schema's name tables; all hot paths work on indices only.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::ModelError;

/// Index of a relation inside a [`Schema`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RelId(pub u32);

/// Index of an attribute inside a relation schema (position in the attribute
/// sequence; `AttrId(0)` is always the key `K`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AttrId(pub u32);

/// Index of a peer inside a collaborative schema.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PeerId(pub u32);

/// The key attribute `K` (position 0 by convention).
pub const KEY: AttrId = AttrId(0);

impl RelId {
    /// Zero-based index usable with slices.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl AttrId {
    /// Zero-based index usable with slices.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl PeerId {
    /// Zero-based index usable with slices.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for RelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

impl fmt::Debug for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A{}", self.0)
    }
}

impl fmt::Debug for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A single relation schema: a name and a sequence of distinct attribute
/// names, the first of which is the key `K`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RelSchema {
    name: String,
    attrs: Vec<String>,
}

impl RelSchema {
    /// Creates a relation schema. `attrs` must be non-empty (it contains at
    /// least the key) and pairwise distinct.
    pub fn new(
        name: impl Into<String>,
        attrs: impl IntoIterator<Item = impl Into<String>>,
    ) -> Result<Self, ModelError> {
        let name = name.into();
        let attrs: Vec<String> = attrs.into_iter().map(Into::into).collect();
        if name.is_empty() {
            return Err(ModelError::EmptyName);
        }
        if attrs.is_empty() {
            return Err(ModelError::NoAttributes { relation: name });
        }
        for (i, a) in attrs.iter().enumerate() {
            if a.is_empty() {
                return Err(ModelError::EmptyName);
            }
            if attrs[..i].contains(a) {
                return Err(ModelError::DuplicateAttribute {
                    relation: name,
                    attribute: a.clone(),
                });
            }
        }
        Ok(Self { name, attrs })
    }

    /// Convenience constructor for a propositional relation `R(K)`:
    /// the paper simulates a proposition `x` by a unary relation `Rx` with
    /// key `K` (proof of Theorem 3.3).
    pub fn proposition(name: impl Into<String>) -> Self {
        Self::new(name, ["K"]).expect("propositional schema is always well formed")
    }

    /// The relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The attribute names, key first.
    pub fn attrs(&self) -> &[String] {
        &self.attrs
    }

    /// Number of attributes (arity), including the key.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// All attribute ids of this relation, key first.
    pub fn attr_ids(&self) -> impl ExactSizeIterator<Item = AttrId> {
        (0..self.attrs.len() as u32).map(AttrId)
    }

    /// Resolves an attribute name to its id.
    pub fn attr(&self, name: &str) -> Option<AttrId> {
        self.attrs
            .iter()
            .position(|a| a == name)
            .map(|i| AttrId(i as u32))
    }

    /// The name of attribute `a`.
    pub fn attr_name(&self, a: AttrId) -> &str {
        &self.attrs[a.index()]
    }
}

/// A global database schema: a finite set of relation schemas with distinct
/// names.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Schema {
    relations: Vec<RelSchema>,
}

impl Schema {
    /// The empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a schema from relation schemas, checking name uniqueness.
    pub fn from_relations(rels: impl IntoIterator<Item = RelSchema>) -> Result<Self, ModelError> {
        let mut s = Self::new();
        for r in rels {
            s.add_relation(r)?;
        }
        Ok(s)
    }

    /// Adds a relation schema, returning its id.
    pub fn add_relation(&mut self, rel: RelSchema) -> Result<RelId, ModelError> {
        if self.rel(rel.name()).is_some() {
            return Err(ModelError::DuplicateRelation {
                relation: rel.name().to_string(),
            });
        }
        let id = RelId(self.relations.len() as u32);
        self.relations.push(rel);
        Ok(id)
    }

    /// Number of relations (`|D|`, the `d` of Theorem 6.3).
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Is the schema empty?
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// All relation ids.
    pub fn rel_ids(&self) -> impl ExactSizeIterator<Item = RelId> {
        (0..self.relations.len() as u32).map(RelId)
    }

    /// Resolves a relation name.
    pub fn rel(&self, name: &str) -> Option<RelId> {
        self.relations
            .iter()
            .position(|r| r.name() == name)
            .map(|i| RelId(i as u32))
    }

    /// The schema of relation `r`.
    pub fn relation(&self, r: RelId) -> &RelSchema {
        &self.relations[r.index()]
    }

    /// Maximum arity over all relations (the `a − 1` of Theorem 6.3).
    pub fn max_arity(&self) -> usize {
        self.relations
            .iter()
            .map(RelSchema::arity)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_schema_rejects_duplicates_and_empties() {
        assert!(matches!(
            RelSchema::new("R", ["K", "A", "A"]),
            Err(ModelError::DuplicateAttribute { .. })
        ));
        assert!(matches!(
            RelSchema::new("", ["K"]),
            Err(ModelError::EmptyName)
        ));
        assert!(matches!(
            RelSchema::new("R", Vec::<String>::new()),
            Err(ModelError::NoAttributes { .. })
        ));
    }

    #[test]
    fn attribute_resolution() {
        let r = RelSchema::new("Assign", ["K", "Emp", "Proj"]).unwrap();
        assert_eq!(r.arity(), 3);
        assert_eq!(r.attr("K"), Some(KEY));
        assert_eq!(r.attr("Proj"), Some(AttrId(2)));
        assert_eq!(r.attr("Nope"), None);
        assert_eq!(r.attr_name(AttrId(1)), "Emp");
    }

    #[test]
    fn proposition_is_unary() {
        let p = RelSchema::proposition("OK");
        assert_eq!(p.arity(), 1);
        assert_eq!(p.attr("K"), Some(KEY));
    }

    #[test]
    fn schema_rejects_duplicate_relation_names() {
        let mut s = Schema::new();
        s.add_relation(RelSchema::proposition("OK")).unwrap();
        assert!(matches!(
            s.add_relation(RelSchema::proposition("OK")),
            Err(ModelError::DuplicateRelation { .. })
        ));
    }

    #[test]
    fn schema_lookup_and_stats() {
        let s = Schema::from_relations([
            RelSchema::new("R", ["K", "A", "B"]).unwrap(),
            RelSchema::proposition("T"),
        ])
        .unwrap();
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.rel("R"), Some(RelId(0)));
        assert_eq!(s.rel("T"), Some(RelId(1)));
        assert_eq!(s.max_arity(), 3);
        assert_eq!(s.relation(RelId(1)).name(), "T");
        let ids: Vec<_> = s.rel_ids().collect();
        assert_eq!(ids, vec![RelId(0), RelId(1)]);
    }
}
