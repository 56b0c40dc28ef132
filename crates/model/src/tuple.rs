//! Tuples over relation schemas.
//!
//! A tuple over `R` is a mapping from `att(R)` to `dom`; we store it as a
//! sequence of values aligned with the attribute sequence of the relation
//! schema (position 0 = key `K`).
//!
//! Since [`Value`] is `Copy`, small tuples (arity ≤ [`INLINE`]) are stored
//! inline with no heap allocation at all — cloning a small tuple is a
//! `memcpy`. Wider tuples spill to a `Vec`. The representation is invisible
//! through the public API: equality, ordering and hashing are defined over
//! the value sequence, so an inline tuple and a heap tuple with the same
//! values are indistinguishable.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Index;

use serde::{Deserialize, Serialize};

use crate::schema::{AttrId, RelSchema, KEY};
use crate::value::Value;

/// Maximum arity stored inline (key plus two non-key attributes).
const INLINE: usize = 3;

/// The backing storage: inline for small arities, heap beyond.
#[derive(Clone, Serialize, Deserialize)]
enum Repr {
    Inline { len: u8, vals: [Value; INLINE] },
    Heap(Vec<Value>),
}

/// A tuple aligned with a relation schema's attribute sequence.
#[derive(Clone, Serialize, Deserialize)]
pub struct Tuple(Repr);

impl Tuple {
    /// Builds a tuple from values in schema order.
    pub fn new(values: impl IntoIterator<Item = Value>) -> Self {
        let mut iter = values.into_iter();
        let mut vals = [Value::Null; INLINE];
        let mut len = 0usize;
        for slot in &mut vals {
            match iter.next() {
                Some(v) => {
                    *slot = v;
                    len += 1;
                }
                None => {
                    return Tuple(Repr::Inline {
                        len: len as u8,
                        vals,
                    })
                }
            }
        }
        match iter.next() {
            None => Tuple(Repr::Inline {
                len: len as u8,
                vals,
            }),
            Some(overflow) => {
                let mut v = Vec::with_capacity(INLINE + 1 + iter.size_hint().0);
                v.extend_from_slice(&vals);
                v.push(overflow);
                v.extend(iter);
                Tuple(Repr::Heap(v))
            }
        }
    }

    /// An all-`⊥` tuple of the given arity.
    pub(crate) fn nulls(arity: usize) -> Self {
        if arity <= INLINE {
            Tuple(Repr::Inline {
                len: arity as u8,
                vals: [Value::Null; INLINE],
            })
        } else {
            Tuple(Repr::Heap(vec![Value::Null; arity]))
        }
    }

    /// Builds the padded tuple `u^⊥` of the paper: given values `J` over a
    /// subset `att(J) ⊆ att(R)` (as attribute ids paired with values), pad all
    /// remaining attributes of `R` with `⊥`.
    pub fn padded(arity: usize, assignments: impl IntoIterator<Item = (AttrId, Value)>) -> Self {
        let mut t = Self::nulls(arity);
        let slots = t.as_mut_slice();
        for (a, v) in assignments {
            slots[a.index()] = v;
        }
        t
    }

    fn as_slice(&self) -> &[Value] {
        match &self.0 {
            Repr::Inline { len, vals } => &vals[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Value] {
        match &mut self.0 {
            Repr::Inline { len, vals } => &mut vals[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// The key value `t(K)`.
    pub fn key(&self) -> &Value {
        &self.as_slice()[KEY.index()]
    }

    /// The value of attribute `a`.
    pub fn get(&self, a: AttrId) -> &Value {
        &self.as_slice()[a.index()]
    }

    /// Sets the value of attribute `a`.
    pub fn set(&mut self, a: AttrId, v: Value) {
        self.as_mut_slice()[a.index()] = v;
    }

    /// The arity of the tuple.
    pub fn arity(&self) -> usize {
        self.as_slice().len()
    }

    /// Iterates over `(attribute, value)` pairs in schema order.
    pub fn entries(&self) -> impl Iterator<Item = (AttrId, &Value)> {
        self.as_slice()
            .iter()
            .enumerate()
            .map(|(i, v)| (AttrId(i as u32), v))
    }

    /// All values in schema order.
    pub fn values(&self) -> &[Value] {
        self.as_slice()
    }

    /// Projection onto a subset of attributes (in the given order).
    pub fn project(&self, attrs: &[AttrId]) -> Tuple {
        let slots = self.as_slice();
        Tuple::new(attrs.iter().map(|a| slots[a.index()]))
    }

    /// *Subsumption*: `u` is subsumed by `v` (written `u ⊑ v`) when they have
    /// the same arity and `u(A) ∈ {v(A), ⊥}` for every attribute `A`. This is
    /// condition (ii) of the insertion semantics in Section 2.
    pub fn subsumed_by(&self, v: &Tuple) -> bool {
        let (a, b) = (self.as_slice(), v.as_slice());
        a.len() == b.len() && a.iter().zip(b).all(|(u, w)| u.is_null() || u == w)
    }

    /// Renders the tuple against its schema, e.g. `R(1, "a", ⊥)`.
    pub fn display<'a>(&'a self, schema: &'a RelSchema) -> TupleDisplay<'a> {
        TupleDisplay {
            tuple: self,
            schema,
        }
    }
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Tuple {}

impl PartialOrd for Tuple {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Tuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hash like the old `Vec<Value>` derive: length prefix then elements.
        self.as_slice().hash(state);
    }
}

impl Index<AttrId> for Tuple {
    type Output = Value;
    fn index(&self, a: AttrId) -> &Value {
        self.get(a)
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Tuple::new(iter)
    }
}

/// Display adaptor pairing a tuple with its relation schema.
pub struct TupleDisplay<'a> {
    tuple: &'a Tuple,
    schema: &'a RelSchema,
}

impl fmt::Display for TupleDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:?}", self.schema.name(), self.tuple)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrId;

    fn v(s: &str) -> Value {
        Value::str(s)
    }

    #[test]
    fn padding_fills_missing_attributes_with_null() {
        // u over {K, B} of R(K, A, B): u^⊥ = (k, ⊥, b)
        let t = Tuple::padded(3, [(AttrId(0), v("k")), (AttrId(2), v("b"))]);
        assert_eq!(t.values(), &[v("k"), Value::Null, v("b")]);
        assert_eq!(t.key(), &v("k"));
    }

    #[test]
    fn subsumption_matches_paper_definition() {
        let full = Tuple::new([v("k"), v("a"), v("b")]);
        let partial = Tuple::new([v("k"), Value::Null, v("b")]);
        let other = Tuple::new([v("k"), v("x"), v("b")]);
        assert!(partial.subsumed_by(&full));
        assert!(full.subsumed_by(&full), "subsumption is reflexive");
        assert!(!full.subsumed_by(&partial), "⊥ does not subsume a value");
        assert!(!other.subsumed_by(&full));
        // Different arities never subsume.
        assert!(!Tuple::nulls(2).subsumed_by(&full));
    }

    #[test]
    fn projection_keeps_requested_order() {
        let t = Tuple::new([v("k"), v("a"), v("b")]);
        let p = t.project(&[AttrId(2), AttrId(0)]);
        assert_eq!(p.values(), &[v("b"), v("k")]);
    }

    #[test]
    fn display_against_schema() {
        let r = RelSchema::new("R", ["K", "A"]).unwrap();
        let t = Tuple::new([Value::int(1), Value::Null]);
        assert_eq!(t.display(&r).to_string(), "R(1, ⊥)");
    }

    #[test]
    fn set_and_index() {
        let mut t = Tuple::nulls(2);
        t.set(AttrId(1), v("x"));
        assert_eq!(t[AttrId(1)], v("x"));
        assert_eq!(t.entries().count(), 2);
    }

    #[test]
    fn inline_and_heap_tuples_compare_by_content() {
        // Arity 3 stays inline; arity 4 spills to the heap. Equality,
        // ordering and hashing must be representation-blind.
        let small = Tuple::new([v("k"), v("a"), v("b")]);
        assert_eq!(small.arity(), 3);
        let wide = Tuple::new([v("k"), v("a"), v("b"), v("c")]);
        assert_eq!(wide.arity(), 4);
        assert!(small < wide, "prefix sorts first, like Vec<Value>");
        let wide2 = Tuple::new(wide.values().to_vec());
        assert_eq!(wide, wide2);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |t: &Tuple| {
            let mut s = DefaultHasher::new();
            t.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&wide), h(&wide2));
    }

    #[test]
    fn zero_and_boundary_arities() {
        assert_eq!(Tuple::new([]).arity(), 0);
        assert_eq!(Tuple::nulls(3).arity(), 3);
        assert_eq!(Tuple::nulls(4).arity(), 4);
        assert_eq!(Tuple::nulls(3), Tuple::new([Value::Null; 3]));
        assert_eq!(Tuple::nulls(4), Tuple::new([Value::Null; 4]));
    }
}
