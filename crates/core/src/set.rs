//! Sets of event positions (subsequences of `e(ρ)`).
//!
//! Subsequences of a run's event sequence are the universe over which
//! scenarios, faithfulness and the `T_p` operator are defined. We represent
//! them as fixed-universe bitsets: the universe is the run length, elements
//! are event positions, and the subsequence order is inherited from the run.

use std::fmt;

/// A set of event positions over a fixed universe `0..universe`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventSet {
    universe: usize,
    words: Vec<u64>,
}

impl EventSet {
    /// The empty set over `0..universe`.
    pub fn empty(universe: usize) -> Self {
        EventSet {
            universe,
            words: vec![0; universe.div_ceil(64)],
        }
    }

    /// The full set `{0, …, universe−1}`.
    pub fn full(universe: usize) -> Self {
        let mut s = Self::empty(universe);
        for i in 0..universe {
            s.insert(i);
        }
        s
    }

    /// Builds a set from positions.
    pub fn from_iter(universe: usize, iter: impl IntoIterator<Item = usize>) -> Self {
        let mut s = Self::empty(universe);
        for i in iter {
            s.insert(i);
        }
        s
    }

    /// The universe size (run length).
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Inserts a position; returns `true` if it was new.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(
            i < self.universe,
            "position {i} outside universe {}",
            self.universe
        );
        let (w, b) = (i / 64, i % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !was
    }

    /// Removes a position; returns `true` if it was present.
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(i < self.universe);
        let (w, b) = (i / 64, i % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        was
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.universe {
            return false;
        }
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Iterates elements in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, w)| {
            let mut w = *w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// Elements as a sorted vector.
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }

    /// Union (the paper's `α₁ + α₂`). Universes must match.
    pub fn union(&self, other: &EventSet) -> EventSet {
        assert_eq!(self.universe, other.universe);
        EventSet {
            universe: self.universe,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a | b)
                .collect(),
        }
    }

    /// Intersection (the paper's `α₁ * α₂`). Universes must match.
    pub fn intersection(&self, other: &EventSet) -> EventSet {
        assert_eq!(self.universe, other.universe);
        EventSet {
            universe: self.universe,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
        }
    }

    /// Is `self ⊆ other` (the subsequence order `⊴`)?
    pub fn is_subset(&self, other: &EventSet) -> bool {
        self.universe == other.universe
            && self
                .words
                .iter()
                .zip(&other.words)
                .all(|(a, b)| a & !b == 0)
    }

    /// Is `self ⊂ other` strictly?
    pub(crate) fn is_strict_subset(&self, other: &EventSet) -> bool {
        self.is_subset(other) && self != other
    }

    /// Enlarges the universe (elements are preserved). Used by incremental
    /// maintenance as the run grows.
    pub fn grow(&mut self, universe: usize) {
        assert!(universe >= self.universe, "universe can only grow");
        self.universe = universe;
        self.words.resize(universe.div_ceil(64), 0);
    }
}

impl fmt::Debug for EventSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = EventSet::empty(100);
        assert!(s.is_empty());
        assert!(s.insert(3));
        assert!(!s.insert(3), "second insert is a no-op");
        assert!(s.insert(99));
        assert!(s.contains(3));
        assert!(s.contains(99));
        assert!(!s.contains(4));
        assert!(!s.contains(1000), "out of universe is absent, not a panic");
        assert_eq!(s.len(), 2);
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn iteration_is_sorted() {
        let s = EventSet::from_iter(200, [150, 3, 64, 65, 0]);
        assert_eq!(s.to_vec(), vec![0, 3, 64, 65, 150]);
    }

    #[test]
    fn set_algebra() {
        let a = EventSet::from_iter(10, [1, 2, 3]);
        let b = EventSet::from_iter(10, [3, 4]);
        assert_eq!(a.union(&b).to_vec(), vec![1, 2, 3, 4]);
        assert_eq!(a.intersection(&b).to_vec(), vec![3]);
        assert!(a.intersection(&b).is_subset(&a));
        assert!(a.intersection(&b).is_strict_subset(&a));
        assert!(a.is_subset(&a));
        assert!(!a.is_strict_subset(&a));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn full_and_empty() {
        let f = EventSet::full(70);
        assert_eq!(f.len(), 70);
        assert!(EventSet::empty(70).is_subset(&f));
        assert_eq!(f.universe(), 70);
        // Universe 0 works.
        let z = EventSet::empty(0);
        assert!(z.is_empty());
        assert_eq!(z.to_vec(), Vec::<usize>::new());
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn insert_out_of_universe_panics() {
        EventSet::empty(5).insert(5);
    }
}
