//! Columnar per-relation view storage.
//!
//! [`RelStore`] holds one relation of a view instance as two parallel
//! columns: a sorted key column (`keys`) and the corresponding view-width
//! rows (`rows`). Point lookups are binary searches over the dense key
//! column (cache-friendly, no pointer chasing), scans walk a contiguous
//! `Vec` in key order — exactly the iteration order of the `BTreeMap`
//! representation it replaces, so every consumer observes identical
//! enumeration order.
//!
//! On top of the columns, each store lazily maintains *secondary equality
//! indexes*: per attribute position, a map from value to the ascending row
//! ids holding that value. The join planner probes them via
//! [`RelStore::rows_eq`] to turn `R(x̄)` scans with a bound non-key
//! attribute into index lookups. Indexes are rebuilt on first probe after a
//! mutation (mutations just invalidate), and only for relations with at
//! least [`INDEX_MIN_ROWS`] rows — below that a linear scan over the
//! columnar rows is faster than any index maintenance.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, RwLock};

use serde::{Deserialize, Serialize};

use crate::tuple::Tuple;
use crate::value::Value;

/// Smallest relation worth indexing; below this, scans win.
pub const INDEX_MIN_ROWS: usize = 16;

/// Per attribute position: value → ascending row ids with that value.
type ColIndex = Vec<BTreeMap<Value, Vec<u32>>>;

/// One relation of a view instance, stored columnar: a sorted key column
/// with parallel rows, plus lazy secondary equality indexes.
#[derive(Serialize, Deserialize, Default)]
pub struct RelStore {
    /// Sorted, distinct keys; `keys[i] == rows[i].key()`.
    keys: Vec<Value>,
    /// View-width tuples, in key order.
    rows: Vec<Tuple>,
    /// Lazily built secondary indexes; `None` after any mutation.
    index: RwLock<Option<Arc<ColIndex>>>,
}

impl RelStore {
    /// The empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn position(&self, k: &Value) -> Result<usize, usize> {
        self.keys.binary_search(k)
    }

    /// The row with key `k`, if any (binary search on the key column).
    pub fn get(&self, k: &Value) -> Option<&Tuple> {
        self.position(k).ok().map(|i| &self.rows[i])
    }

    /// Does a row with key `k` exist?
    pub fn contains_key(&self, k: &Value) -> bool {
        self.position(k).is_ok()
    }

    /// Rows in key order.
    pub fn iter(&self) -> std::slice::Iter<'_, Tuple> {
        self.rows.iter()
    }

    /// Keys in order (the sorted key column).
    pub fn keys(&self) -> std::slice::Iter<'_, Value> {
        self.keys.iter()
    }

    /// The row at dense position `id` (as returned by [`RelStore::rows_eq`]).
    pub fn row(&self, id: u32) -> &Tuple {
        &self.rows[id as usize]
    }

    /// Inserts or replaces the row for `t`'s key. Appends without a search
    /// when the key extends the column (the common bulk-load order).
    pub fn upsert(&mut self, t: Tuple) {
        let k = *t.key();
        self.invalidate();
        if self.keys.last().is_some_and(|last| *last < k) || self.keys.is_empty() {
            self.keys.push(k);
            self.rows.push(t);
            return;
        }
        match self.position(&k) {
            Ok(i) => self.rows[i] = t,
            Err(i) => {
                self.keys.insert(i, k);
                self.rows.insert(i, t);
            }
        }
    }

    /// Removes the row with key `k`, if present (idempotent).
    pub fn remove(&mut self, k: &Value) {
        if let Ok(i) = self.position(k) {
            self.invalidate();
            self.keys.remove(i);
            self.rows.remove(i);
        }
    }

    fn invalidate(&mut self) {
        // `&mut self` means no other reader: plain overwrite, no locking.
        *self.index.get_mut().unwrap() = None;
    }

    /// The ascending row ids whose attribute `pos` equals `v`, via the
    /// secondary index — or `None` when the store is too small to index
    /// (callers fall back to a linear scan, which is faster there). Row ids
    /// ascend, and rows are key-sorted, so iterating the result visits rows
    /// in exactly key order: index-accelerated scans enumerate matches in
    /// the same order as full scans.
    pub fn rows_eq(&self, pos: usize, v: &Value) -> Option<Vec<u32>> {
        if self.rows.len() < INDEX_MIN_ROWS {
            return None;
        }
        let index = self.index();
        Some(match index.get(pos).and_then(|m| m.get(v)) {
            Some(ids) => ids.clone(),
            None => Vec::new(),
        })
    }

    /// The current secondary indexes, building them if stale.
    fn index(&self) -> Arc<ColIndex> {
        if let Some(idx) = self.index.read().unwrap().as_ref() {
            return Arc::clone(idx);
        }
        let arity = self.rows.first().map_or(0, Tuple::arity);
        let mut cols: ColIndex = vec![BTreeMap::new(); arity];
        for (id, row) in self.rows.iter().enumerate() {
            for (pos, v) in row.values().iter().enumerate() {
                cols[pos].entry(*v).or_default().push(id as u32);
            }
        }
        let built = Arc::new(cols);
        let mut slot = self.index.write().unwrap();
        // A racing builder may have won; either result is identical.
        if slot.is_none() {
            *slot = Some(Arc::clone(&built));
        }
        built
    }
}

impl Clone for RelStore {
    fn clone(&self) -> Self {
        RelStore {
            keys: self.keys.clone(),
            rows: self.rows.clone(),
            // The cached index (if any) describes the same rows: share it.
            index: RwLock::new(self.index.read().unwrap().clone()),
        }
    }
}

/// Equality is over the row content only (the index cache is derived state).
/// Sorted-by-key rows make this exactly the `BTreeMap<Value, Tuple>`
/// equality of the previous representation.
impl PartialEq for RelStore {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
    }
}

impl Eq for RelStore {}

impl fmt::Debug for RelStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.rows.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a RelStore {
    type Item = &'a Tuple;
    type IntoIter = std::slice::Iter<'a, Tuple>;
    fn into_iter(self) -> Self::IntoIter {
        self.rows.iter()
    }
}

impl FromIterator<Tuple> for RelStore {
    fn from_iter<T: IntoIterator<Item = Tuple>>(iter: T) -> Self {
        let mut s = RelStore::new();
        for t in iter {
            s.upsert(t);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(k: i64, a: i64) -> Tuple {
        Tuple::new([Value::int(k), Value::int(a)])
    }

    #[test]
    fn upsert_keeps_keys_sorted_and_replaces() {
        let mut s = RelStore::new();
        for k in [5, 1, 3, 1] {
            s.upsert(t(k, k * 10));
        }
        assert_eq!(s.len(), 3);
        let keys: Vec<_> = s.keys().cloned().collect();
        assert_eq!(keys, vec![Value::int(1), Value::int(3), Value::int(5)]);
        assert_eq!(s.get(&Value::int(1)), Some(&t(1, 10)));
        assert!(s.contains_key(&Value::int(3)));
        s.remove(&Value::int(3));
        s.remove(&Value::int(3)); // idempotent
        assert_eq!(s.len(), 2);
        assert!(!s.contains_key(&Value::int(3)));
    }

    #[test]
    fn equality_ignores_index_cache() {
        let mut a = RelStore::new();
        let mut b = RelStore::new();
        for k in 0..20 {
            a.upsert(t(k, 7));
            b.upsert(t(k, 7));
        }
        // Build a's index, leave b's cold.
        assert!(a.rows_eq(1, &Value::int(7)).is_some());
        assert_eq!(a, b);
        assert_eq!(a.clone(), b);
    }

    #[test]
    fn rows_eq_matches_scan_order() {
        let mut s = RelStore::new();
        for k in 0..40 {
            s.upsert(t(k, k % 3));
        }
        let ids = s.rows_eq(1, &Value::int(1)).expect("large enough to index");
        let scanned: Vec<u32> = s
            .iter()
            .enumerate()
            .filter(|(_, row)| row.values()[1] == Value::int(1))
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(ids, scanned, "index enumeration order = scan order");
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ascending row ids");
        // Missing value: empty, not None.
        assert_eq!(s.rows_eq(1, &Value::int(9)), Some(Vec::new()));
        // Tiny store: no index.
        let mut small = RelStore::new();
        small.upsert(t(1, 1));
        assert_eq!(small.rows_eq(1, &Value::int(1)), None);
    }

    #[test]
    fn mutation_invalidates_index() {
        let mut s = RelStore::new();
        for k in 0..20 {
            s.upsert(t(k, 0));
        }
        assert_eq!(s.rows_eq(1, &Value::int(0)).unwrap().len(), 20);
        s.upsert(t(5, 9));
        assert_eq!(s.rows_eq(1, &Value::int(0)).unwrap().len(), 19);
        assert_eq!(s.rows_eq(1, &Value::int(9)).unwrap(), vec![5]);
        s.remove(&Value::int(5));
        assert_eq!(s.rows_eq(1, &Value::int(9)).unwrap(), Vec::<u32>::new());
    }
}
