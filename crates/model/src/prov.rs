//! Why-provenance polynomials over event indices.
//!
//! The paper's Theorem 4.8 shows faithful scenarios compose like a
//! commutative semiring; this module materializes that algebra. A fact in a
//! run carries a [`Provenance`]: a polynomial `m₁ ⊕ m₂ ⊕ …` whose monomials
//! are *closed* sets of event indices — each monomial is a witness set that
//! replays on its own (in original order) and re-derives the fact. `⊕`
//! records alternative derivations, `⊗` joins the requirements of a rule
//! body.
//!
//! Monomials are interned exactly like [`crate::Istr`]: a process-global,
//! append-only table hands back a [`Mono`] — a `Copy` handle to a leaked
//! `&'static [u32]` of sorted event indices. Pointer equality coincides with
//! content equality, so the heavily-shared monomials of a long run cost one
//! allocation each and compare in O(1). Like the string table, the set of
//! distinct monomials is bounded by the workload and never freed.
//!
//! Polynomials are kept in a canonical form — monomials sorted by
//! `(len, lex)`, supersets absorbed, and the tail truncated to the
//! [`MAX_MONOMIALS`] smallest — so equal derivation histories print
//! identically and golden files pin the canonicalization.

use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{OnceLock, RwLock};

use crate::value::Value;

/// Cap on the number of monomials kept per polynomial.
///
/// `⊕` over a long run can accumulate exponentially many alternative
/// derivations; keeping only the smallest few preserves the useful answers
/// (minimal witness sets) at bounded cost. Truncation only ever *drops*
/// alternatives — every retained monomial is still a sound witness — and is
/// deterministic, so incremental and from-scratch maintenance agree.
pub const MAX_MONOMIALS: usize = 12;

/// The global monomial table. Append-only; entries are leaked slices.
fn table() -> &'static RwLock<HashSet<&'static [u32]>> {
    static TABLE: OnceLock<RwLock<HashSet<&'static [u32]>>> = OnceLock::new();
    TABLE.get_or_init(|| RwLock::new(HashSet::new()))
}

/// An interned monomial: a sorted, deduplicated set of event indices,
/// handed out as a `Copy` handle into the global monomial table.
///
/// Equality is pointer equality (the table interns each distinct set once);
/// ordering is by `(len, lex)` content, which is exactly the canonical
/// monomial order of [`Provenance`] — smallest witness sets sort first.
#[derive(Clone, Copy)]
pub struct Mono(&'static [u32]);

impl Mono {
    /// Interns the set of event indices in `events` (sorted, deduplicated).
    pub fn new(mut events: Vec<u32>) -> Mono {
        events.sort_unstable();
        events.dedup();
        Mono::intern(&events)
    }

    /// Interns an already sorted, deduplicated slice.
    fn intern(events: &[u32]) -> Mono {
        debug_assert!(events.windows(2).all(|w| w[0] < w[1]));
        if let Some(&hit) = table().read().unwrap().get(events) {
            return Mono(hit);
        }
        let mut w = table().write().unwrap();
        if let Some(&hit) = w.get(events) {
            return Mono(hit);
        }
        let leaked: &'static [u32] = Box::leak(events.to_vec().into_boxed_slice());
        w.insert(leaked);
        Mono(leaked)
    }

    /// The empty monomial — the semiring `1`, witnessing facts that need no
    /// events (initial-instance facts).
    pub fn one() -> Mono {
        Mono::intern(&[])
    }

    /// The singleton monomial `{e}`.
    pub fn var(e: u32) -> Mono {
        Mono::intern(&[e])
    }

    /// The sorted event indices of this monomial.
    pub fn events(self) -> &'static [u32] {
        self.0
    }

    /// Number of events in the monomial.
    pub fn len(self) -> usize {
        self.0.len()
    }

    /// Is this the empty monomial (`1`)?
    pub fn is_empty(self) -> bool {
        self.0.is_empty()
    }

    /// Does the monomial contain event index `e`?
    pub fn contains(self, e: u32) -> bool {
        self.0.binary_search(&e).is_ok()
    }

    /// Set union — the `⊗` of two monomials (requirements accumulate).
    pub fn union(self, other: Mono) -> Mono {
        if std::ptr::eq(self.0, other.0) || other.0.is_empty() {
            return self;
        }
        if self.0.is_empty() {
            return other;
        }
        let mut merged = Vec::with_capacity(self.0.len() + other.0.len());
        let (mut i, mut j) = (0, 0);
        while i < self.0.len() && j < other.0.len() {
            match self.0[i].cmp(&other.0[j]) {
                std::cmp::Ordering::Less => {
                    merged.push(self.0[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(other.0[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push(self.0[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&self.0[i..]);
        merged.extend_from_slice(&other.0[j..]);
        Mono::intern(&merged)
    }

    /// Is every event of `self` also in `other`?
    pub fn is_subset(self, other: Mono) -> bool {
        if std::ptr::eq(self.0, other.0) {
            return true;
        }
        if self.0.len() > other.0.len() {
            return false;
        }
        let mut j = 0;
        for &e in self.0 {
            while j < other.0.len() && other.0[j] < e {
                j += 1;
            }
            if j >= other.0.len() || other.0[j] != e {
                return false;
            }
            j += 1;
        }
        true
    }

    /// Does the monomial share no event with the sorted slice `other`?
    pub fn is_disjoint(self, other: &[u32]) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.0.len() && j < other.len() {
            match self.0[i].cmp(&other[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return false,
            }
        }
        true
    }
}

impl PartialEq for Mono {
    fn eq(&self, other: &Self) -> bool {
        // Fat-pointer comparison; the interner guarantees one allocation
        // per distinct set, so this is content equality.
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Mono {}

impl PartialOrd for Mono {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Mono {
    /// Canonical `(len, lex)` order: smaller witness sets first, ties by
    /// the event indices themselves.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if std::ptr::eq(self.0, other.0) {
            return std::cmp::Ordering::Equal;
        }
        self.0
            .len()
            .cmp(&other.0.len())
            .then_with(|| self.0.cmp(other.0))
    }
}

impl Hash for Mono {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl fmt::Display for Mono {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return f.write_str("1");
        }
        for (i, e) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str("·")?;
            }
            write!(f, "e{e}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Mono {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Mono({self})")
    }
}

/// A why-provenance polynomial: alternatives (`⊕`) over closed witness
/// monomials, kept in canonical form.
///
/// Invariants (established by [`Provenance::canonicalize`], preserved by all
/// ops): monomials strictly sorted by `(len, lex)`; no monomial is a
/// superset of another (absorption `m ⊕ m·n = m`); at most
/// [`MAX_MONOMIALS`] monomials, keeping the smallest.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Provenance {
    monos: Vec<Mono>,
}

impl Provenance {
    /// The additive identity `0` — no derivation at all.
    pub fn zero() -> Provenance {
        Provenance { monos: Vec::new() }
    }

    /// The multiplicative identity `1` — derivable with no events.
    pub fn one() -> Provenance {
        Provenance {
            monos: vec![Mono::one()],
        }
    }

    /// A single-monomial polynomial.
    pub fn from_mono(m: Mono) -> Provenance {
        Provenance { monos: vec![m] }
    }

    /// Is this the zero polynomial?
    pub fn is_zero(&self) -> bool {
        self.monos.is_empty()
    }

    /// Is this exactly the `1` polynomial?
    pub(crate) fn is_one(&self) -> bool {
        self.monos.len() == 1 && self.monos[0].is_empty()
    }

    /// The monomials in canonical order (smallest witness set first).
    pub fn monomials(&self) -> &[Mono] {
        &self.monos
    }

    /// The union of all monomials: every event that appears in *some*
    /// retained derivation of the fact, sorted ascending.
    pub fn support(&self) -> Vec<u32> {
        let mut all: Vec<u32> = self
            .monos
            .iter()
            .flat_map(|m| m.events())
            .copied()
            .collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    /// `⊕` with a single monomial.
    pub fn or_mono(&mut self, m: Mono) {
        self.monos.push(m);
        self.canonicalize();
    }

    /// `⊗`: every pair of alternatives joins (monomial union), then the
    /// result is canonicalized. `0` annihilates; `1` is the identity.
    pub fn and(&self, other: &Provenance) -> Provenance {
        if self.is_zero() || other.is_zero() {
            return Provenance::zero();
        }
        if self.is_one() {
            return other.clone();
        }
        if other.is_one() {
            return self.clone();
        }
        let mut monos = Vec::with_capacity(self.monos.len() * other.monos.len());
        for &a in &self.monos {
            for &b in &other.monos {
                monos.push(a.union(b));
            }
        }
        let mut p = Provenance { monos };
        p.canonicalize();
        p
    }

    /// `⊗` with a single monomial joined into every alternative.
    pub fn and_mono(&self, m: Mono) -> Provenance {
        let mut p = Provenance {
            monos: self.monos.iter().map(|&a| a.union(m)).collect(),
        };
        p.canonicalize();
        p
    }

    /// Restores the canonical form: `(len, lex)` sort, dedup, absorption of
    /// supersets, truncation to the [`MAX_MONOMIALS`] smallest.
    fn canonicalize(&mut self) {
        self.monos.sort_unstable();
        self.monos.dedup();
        // Absorption: drop any monomial that contains an earlier (hence
        // no-larger) one. Quadratic in the monomial count, which the cap
        // keeps small.
        let mut kept: Vec<Mono> = Vec::with_capacity(self.monos.len().min(MAX_MONOMIALS));
        for &m in &self.monos {
            if kept.iter().any(|&k| k.is_subset(m)) {
                continue;
            }
            kept.push(m);
            if kept.len() == MAX_MONOMIALS {
                break;
            }
        }
        self.monos = kept;
    }
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.monos.is_empty() {
            return f.write_str("0");
        }
        for (i, m) in self.monos.iter().enumerate() {
            if i > 0 {
                f.write_str(" ⊕ ")?;
            }
            write!(f, "{m}")?;
        }
        Ok(())
    }
}

/// Per-relation provenance column: the same parallel-sorted layout as
/// [`crate::RelStore`], mapping each present key to the polynomial of the
/// fact currently stored under it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProvStore {
    keys: Vec<Value>,
    provs: Vec<Provenance>,
}

impl ProvStore {
    /// An empty column.
    pub fn new() -> ProvStore {
        ProvStore::default()
    }

    /// Binary-searches for `key` in the sorted key column.
    fn position(&self, key: &Value) -> Result<usize, usize> {
        self.keys.binary_search(key)
    }

    /// The polynomial for `key`, if present.
    pub fn get(&self, key: &Value) -> Option<&Provenance> {
        self.position(key).ok().map(|i| &self.provs[i])
    }

    /// Inserts or replaces the polynomial for `key`.
    pub fn upsert(&mut self, key: Value, prov: Provenance) {
        match self.position(&key) {
            Ok(i) => self.provs[i] = prov,
            Err(i) => {
                self.keys.insert(i, key);
                self.provs.insert(i, prov);
            }
        }
    }

    /// Removes `key`'s polynomial, if present.
    pub fn remove(&mut self, key: &Value) {
        if let Ok(i) = self.position(key) {
            self.keys.remove(i);
            self.provs.remove(i);
        }
    }

    /// Number of keys with a polynomial.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Is the column empty?
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterates `(key, polynomial)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Value, &Provenance)> {
        self.keys.iter().zip(self.provs.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_pointer_unique() {
        let a = Mono::new(vec![3, 1, 2, 1]);
        let b = Mono::new(vec![1, 2, 3]);
        assert_eq!(a, b);
        assert!(std::ptr::eq(a.events(), b.events()));
        assert_ne!(a, Mono::new(vec![1, 2]));
    }

    #[test]
    fn mono_order_is_len_then_lex() {
        let short = Mono::new(vec![9]);
        let long = Mono::new(vec![0, 1]);
        assert!(short < long);
        assert!(Mono::new(vec![0, 2]) < Mono::new(vec![1, 2]));
        assert!(Mono::one() < short);
    }

    #[test]
    fn union_subset_disjoint() {
        let a = Mono::new(vec![1, 3]);
        let b = Mono::new(vec![2, 3]);
        assert_eq!(a.union(b), Mono::new(vec![1, 2, 3]));
        assert!(a.is_subset(a.union(b)));
        assert!(!a.is_subset(b));
        assert!(a.is_disjoint(&[0, 2]));
        assert!(!a.is_disjoint(&[3]));
        assert_eq!(a.union(Mono::one()), a);
    }

    #[test]
    fn semiring_identities() {
        let m = Provenance::from_mono(Mono::new(vec![1, 2]));
        assert_eq!(m.and(&Provenance::one()), m);
        assert!(m.and(&Provenance::zero()).is_zero());
    }

    #[test]
    fn absorption_drops_supersets() {
        let mut p = Provenance::from_mono(Mono::new(vec![1, 2, 3]));
        p.or_mono(Mono::new(vec![1, 2]));
        assert_eq!(p.monomials(), &[Mono::new(vec![1, 2])]);
        // 1 absorbs everything.
        p.or_mono(Mono::one());
        assert!(p.is_one());
    }

    #[test]
    fn and_distributes_over_alternatives() {
        let mut ab = Provenance::from_mono(Mono::var(1));
        ab.or_mono(Mono::var(2));
        let c = Provenance::from_mono(Mono::var(3));
        let prod = ab.and(&c);
        assert_eq!(
            prod.monomials(),
            &[Mono::new(vec![1, 3]), Mono::new(vec![2, 3])]
        );
        assert_eq!(prod.support(), vec![1, 2, 3]);
        assert_eq!(prod.monomials().first(), Some(&Mono::new(vec![1, 3])));
    }

    #[test]
    fn cap_keeps_smallest_and_is_deterministic() {
        let mut p = Provenance::zero();
        for i in (0..(MAX_MONOMIALS as u32 + 5)).rev() {
            p.or_mono(Mono::new(vec![i, i + 100]));
        }
        assert_eq!(p.monomials().len(), MAX_MONOMIALS);
        assert_eq!(p.monomials().first(), Some(&Mono::new(vec![0, 100])));
    }

    #[test]
    fn display_is_canonical() {
        let mut p = Provenance::from_mono(Mono::new(vec![2, 0]));
        p.or_mono(Mono::var(7));
        assert_eq!(p.to_string(), "e7 ⊕ e0·e2");
        assert_eq!(Provenance::zero().to_string(), "0");
        assert_eq!(Provenance::one().to_string(), "1");
    }

    #[test]
    fn prov_store_upsert_get_remove() {
        let mut s = ProvStore::new();
        s.upsert(Value::int(2), Provenance::one());
        s.upsert(Value::int(1), Provenance::from_mono(Mono::var(5)));
        assert_eq!(s.len(), 2);
        assert_eq!(
            s.get(&Value::int(1)),
            Some(&Provenance::from_mono(Mono::var(5)))
        );
        s.upsert(Value::int(1), Provenance::one());
        assert!(s.get(&Value::int(1)).unwrap().is_one());
        s.remove(&Value::int(1));
        assert_eq!(s.len(), 1);
        assert!(s.get(&Value::int(1)).is_none());
        let keys: Vec<_> = s.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![Value::int(2)]);
    }
}
