//! Instance deltas.
//!
//! The observable effect of an event — and the head of a synthesized ω-rule
//! (Theorem 5.13) — is the *difference* between two instances: created
//! tuples, deleted keys, and attribute modifications on surviving keys.
//! [`InstanceDiff`] computes and renders that difference; the engine's
//! update semantics guarantee that successive run instances differ exactly
//! by such a delta.

use std::fmt;

use crate::instance::Instance;
use crate::schema::{AttrId, RelId, Schema};
use crate::tuple::Tuple;
use crate::value::Value;

/// One changed attribute of a surviving tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrChange {
    /// The attribute.
    pub attr: AttrId,
    /// The value before.
    pub before: Value,
    /// The value after.
    pub after: Value,
}

/// The difference between two instances over the same schema.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InstanceDiff {
    /// Tuples present in `after` whose key is absent from `before`.
    pub created: Vec<(RelId, Tuple)>,
    /// Tuples present in `before` whose key is absent from `after`.
    pub deleted: Vec<(RelId, Tuple)>,
    /// Per surviving key with differing tuples: the changed attributes.
    pub modified: Vec<(RelId, Value, Vec<AttrChange>)>,
}

impl InstanceDiff {
    /// Computes `after − before`.
    pub fn between(before: &Instance, after: &Instance) -> InstanceDiff {
        debug_assert_eq!(before.width(), after.width());
        let mut out = InstanceDiff::default();
        for r in 0..before.width() {
            let rel = RelId(r as u32);
            for t in after.rel(rel).iter() {
                match before.rel(rel).get(t.key()) {
                    None => out.created.push((rel, t.clone())),
                    Some(old) if old != t => {
                        let changes: Vec<AttrChange> = old
                            .entries()
                            .filter(|(a, v)| t.get(*a) != *v)
                            .map(|(a, v)| AttrChange {
                                attr: a,
                                before: *v,
                                after: *t.get(a),
                            })
                            .collect();
                        out.modified.push((rel, *t.key(), changes));
                    }
                    Some(_) => {}
                }
            }
            for t in before.rel(rel).iter() {
                if !after.rel(rel).contains_key(t.key()) {
                    out.deleted.push((rel, t.clone()));
                }
            }
        }
        out
    }

    /// Is there no difference?
    pub fn is_empty(&self) -> bool {
        self.created.is_empty() && self.deleted.is_empty() && self.modified.is_empty()
    }

    /// Total number of changes.
    pub fn len(&self) -> usize {
        self.created.len() + self.deleted.len() + self.modified.len()
    }

    /// Applies the difference in place: turns `before` into `after` when
    /// `self` is `InstanceDiff::between(before, after)`.
    pub fn apply_to(&self, inst: &mut Instance) {
        for (rel, t) in &self.deleted {
            inst.rel_mut(*rel).remove(t.key());
        }
        for (rel, t) in &self.created {
            inst.rel_mut(*rel)
                .insert(t.clone())
                .expect("a diff never creates a null key");
        }
        for (rel, key, changes) in &self.modified {
            let r = inst.rel_mut(*rel);
            let mut t = r.remove(key).expect("a modified key survives");
            for c in changes {
                t.set(c.attr, c.after);
            }
            r.insert(t).expect("a surviving key is not null");
        }
    }

    /// The diff that takes `after` back to `before` when `self` is
    /// `InstanceDiff::between(before, after)`: created and deleted swap, and
    /// every modification runs from its after-value to its before-value.
    pub fn inverse(&self) -> InstanceDiff {
        let modified = self.modified.iter().map(|(rel, key, changes)| {
            let back = changes.iter().map(|c| AttrChange {
                attr: c.attr,
                before: c.after,
                after: c.before,
            });
            (*rel, *key, back.collect())
        });
        InstanceDiff {
            created: self.deleted.clone(),
            deleted: self.created.clone(),
            modified: modified.collect(),
        }
    }

    /// Renders against a schema: `+R(...)`, `-R(...)`, `~R[key].A: a→b`.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> DiffDisplay<'a> {
        DiffDisplay { diff: self, schema }
    }
}

/// Display adaptor for diffs.
pub struct DiffDisplay<'a> {
    diff: &'a InstanceDiff,
    schema: &'a Schema,
}

impl fmt::Display for DiffDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if !first {
                writeln!(f)?;
            }
            first = false;
            Ok(())
        };
        for (r, t) in &self.diff.created {
            sep(f)?;
            write!(f, "+{}", t.display(self.schema.relation(*r)))?;
        }
        for (r, t) in &self.diff.deleted {
            sep(f)?;
            write!(f, "-{}", t.display(self.schema.relation(*r)))?;
        }
        for (r, k, changes) in &self.diff.modified {
            sep(f)?;
            let rs = self.schema.relation(*r);
            write!(f, "~{}[{}]", rs.name(), k)?;
            for c in changes {
                write!(f, " {}: {}→{}", rs.attr_name(c.attr), c.before, c.after)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelSchema;

    fn schema() -> Schema {
        Schema::from_relations([RelSchema::new("R", ["K", "A"]).unwrap()]).unwrap()
    }

    const R: RelId = RelId(0);

    fn t(k: i64, a: Option<&str>) -> Tuple {
        Tuple::new([Value::int(k), a.map(Value::str).unwrap_or(Value::Null)])
    }

    #[test]
    fn empty_diff() {
        let s = schema();
        let i = Instance::empty(&s);
        let d = InstanceDiff::between(&i, &i);
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        assert_eq!(d.display(&s).to_string(), "");
    }

    #[test]
    fn created_deleted_modified() {
        let s = schema();
        let mut before = Instance::empty(&s);
        before.rel_mut(R).insert(t(1, None)).unwrap(); // will be modified
        before.rel_mut(R).insert(t(2, Some("x"))).unwrap(); // will be deleted
        let mut after = Instance::empty(&s);
        after.rel_mut(R).insert(t(1, Some("a"))).unwrap();
        after.rel_mut(R).insert(t(3, Some("n"))).unwrap(); // created
        let d = InstanceDiff::between(&before, &after);
        assert_eq!(d.created, vec![(R, t(3, Some("n")))]);
        assert_eq!(d.deleted, vec![(R, t(2, Some("x")))]);
        assert_eq!(d.modified.len(), 1);
        let (_, k, changes) = &d.modified[0];
        assert_eq!(k, &Value::int(1));
        assert_eq!(
            changes,
            &vec![AttrChange {
                attr: AttrId(1),
                before: Value::Null,
                after: Value::str("a")
            }]
        );
        assert_eq!(d.len(), 3);
        let shown = d.display(&s).to_string();
        assert!(shown.contains("+R(3, \"n\")"));
        assert!(shown.contains("-R(2, \"x\")"));
        assert!(shown.contains("~R[1] A: ⊥→\"a\""));
    }

    #[test]
    fn diff_is_antisymmetric_in_created_deleted() {
        let s = schema();
        let mut a = Instance::empty(&s);
        a.rel_mut(R).insert(t(1, Some("x"))).unwrap();
        let b = Instance::empty(&s);
        let fwd = InstanceDiff::between(&b, &a);
        let bwd = InstanceDiff::between(&a, &b);
        assert_eq!(fwd.created, bwd.deleted);
        assert_eq!(fwd.deleted, bwd.created);
    }

    #[test]
    fn apply_to_turns_before_into_after() {
        let s = schema();
        let mut before = Instance::empty(&s);
        before.rel_mut(R).insert(t(1, None)).unwrap();
        before.rel_mut(R).insert(t(2, Some("x"))).unwrap();
        let mut after = Instance::empty(&s);
        after.rel_mut(R).insert(t(1, Some("a"))).unwrap();
        after.rel_mut(R).insert(t(3, Some("n"))).unwrap();
        let mut rolled = before.clone();
        InstanceDiff::between(&before, &after).apply_to(&mut rolled);
        assert_eq!(rolled, after);
        // The inverse takes it back, and is the diff the other way round.
        let inverse = InstanceDiff::between(&before, &after).inverse();
        assert_eq!(inverse, InstanceDiff::between(&after, &before));
        inverse.apply_to(&mut rolled);
        assert_eq!(rolled, before);
    }
}
