//! A small fixed-capacity bitset over `u64` words, and the per-vertex
//! rows of bitsets the Max reduction keeps across views.
//!
//! The dominating-set branch-and-bound manipulates coverage sets of at
//! most a few hundred elements millions of times; a dedicated bitset
//! with word-level operations keeps that inner loop branch-free. Every
//! operation that re-targets or overwrites a set — [`BitSet::reset`],
//! `fill`, [`BitSet::assign_difference`] and `clone_from` — reuses its
//! word storage, so a warm set only allocates when it must hold more
//! words than ever before.

use std::ops::{Deref, DerefMut};

/// Fixed-capacity set of `u32` elements `< capacity`, bit-packed. The
/// default is the empty set of capacity 0.
#[derive(Debug, Default, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl Clone for BitSet {
    fn clone(&self) -> Self {
        BitSet { words: self.words.clone(), capacity: self.capacity }
    }

    /// Copies `source` into this set's word storage: no allocation
    /// unless `source` has more words than this set ever held (the
    /// derived `clone_from` would allocate a fresh copy every call).
    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
        self.capacity = source.capacity;
    }
}

impl BitSet {
    /// Empty set with room for elements `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet { words: vec![0; capacity.div_ceil(64)], capacity }
    }

    /// Set containing every element `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut s = Self::new(capacity);
        s.fill();
        s
    }

    /// Builds a set from elements.
    pub fn from_elems(capacity: usize, elems: impl IntoIterator<Item = u32>) -> Self {
        let mut s = Self::new(capacity);
        for e in elems {
            s.insert(e);
        }
        s
    }

    /// Capacity (exclusive upper bound on elements).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `e`; returns whether it was new.
    ///
    /// # Panics
    /// Panics (in debug) if `e ≥ capacity`.
    #[inline]
    pub fn insert(&mut self, e: u32) -> bool {
        debug_assert!((e as usize) < self.capacity, "element {e} out of capacity");
        let w = &mut self.words[(e / 64) as usize];
        let bit = 1u64 << (e % 64);
        let fresh = *w & bit == 0;
        *w |= bit;
        fresh
    }

    /// Removes `e`; returns whether it was present.
    #[inline]
    pub fn remove(&mut self, e: u32) -> bool {
        debug_assert!((e as usize) < self.capacity);
        let w = &mut self.words[(e / 64) as usize];
        let bit = 1u64 << (e % 64);
        let present = *w & bit != 0;
        *w &= !bit;
        present
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, e: u32) -> bool {
        if (e as usize) >= self.capacity {
            return false;
        }
        self.words[(e / 64) as usize] & (1u64 << (e % 64)) != 0
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes every element.
    #[inline]
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Inserts every element `0..capacity`.
    pub(crate) fn fill(&mut self) {
        let capacity = self.capacity;
        for (i, w) in self.words.iter_mut().enumerate() {
            let lo = i * 64;
            let hi = (lo + 64).min(capacity);
            *w = if hi - lo == 64 { !0 } else { (1u64 << (hi - lo)) - 1 };
        }
    }

    /// Clears the set and re-targets it to a (possibly different)
    /// capacity, reusing the word storage — the grow-only allocation
    /// discipline of the solver's engine reset.
    pub fn reset(&mut self, capacity: usize) {
        self.words.clear();
        self.words.resize(capacity.div_ceil(64), 0);
        self.capacity = capacity;
    }

    /// `self ∪= other`.
    ///
    /// # Panics
    /// Panics (in debug) on capacity mismatch.
    #[inline]
    pub fn union_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Whether `self ⊇ other`.
    #[inline]
    pub fn is_superset(&self, other: &BitSet) -> bool {
        debug_assert_eq!(self.capacity, other.capacity);
        self.words.iter().zip(&other.words).all(|(a, b)| b & !a == 0)
    }

    /// `|other ∖ self|`: how many elements of `other` are missing from
    /// `self` — the "still uncovered" count of the branch-and-bound.
    #[inline]
    pub fn missing_from(&self, other: &BitSet) -> usize {
        debug_assert_eq!(self.capacity, other.capacity);
        self.words.iter().zip(&other.words).map(|(a, b)| (b & !a).count_ones() as usize).sum()
    }

    /// First element of `other ∖ self`, if any.
    #[inline]
    pub fn first_missing_from(&self, other: &BitSet) -> Option<u32> {
        for (i, (a, b)) in self.words.iter().zip(&other.words).enumerate() {
            let diff = b & !a;
            if diff != 0 {
                return Some((i * 64) as u32 + diff.trailing_zeros());
            }
        }
        None
    }

    /// Sets `self = a ∖ b`, reusing this set's allocation. The
    /// branch-and-bound recomputes its "still uncovered" mask once per
    /// node with this instead of re-deriving it inside every bound.
    pub fn assign_difference(&mut self, a: &BitSet, b: &BitSet) {
        debug_assert_eq!(a.capacity, b.capacity);
        self.capacity = a.capacity;
        self.words.clear();
        self.words.extend(a.words.iter().zip(&b.words).map(|(aw, bw)| aw & !bw));
    }

    /// `|self ∩ other|`.
    #[inline]
    pub fn intersection_len(&self, other: &BitSet) -> usize {
        debug_assert_eq!(self.capacity, other.capacity);
        self.words.iter().zip(&other.words).map(|(a, b)| (a & b).count_ones() as usize).sum()
    }

    /// Iterates the elements in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            let base = (i * 64) as u32;
            std::iter::successors(
                if w == 0 { None } else { Some((w, base + w.trailing_zeros())) },
                move |&(w, _)| {
                    let w = w & (w - 1); // clear lowest set bit
                    if w == 0 {
                        None
                    } else {
                        Some((w, base + w.trailing_zeros()))
                    }
                },
            )
            .map(|(_, e)| e)
        })
    }

    /// Collects the elements into a sorted `Vec`.
    pub fn to_vec(&self) -> Vec<u32> {
        self.iter().collect()
    }

    /// Raw word access for hot word-parallel loops (e.g. the coverage
    /// gains in the dominating-set branch-and-bound).
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Raw mutable word access for word-level inserts (the engine's
    /// ring insert, the ring growth's adjacency unions).
    #[inline]
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }
}

/// One bitset row per vertex of a graph on `0..n`, each of capacity
/// `n`, with storage kept across graphs of any size: a
/// [`reset`](BitRows::reset) to fewer rows parks the surplus rows with
/// their words, a reset to more rows takes parked rows back first, and
/// every live row is re-targeted through [`BitSet::reset`], which
/// reuses its words. The slice this derefs to, and [`Clone`], hold the
/// live rows only, so a parked row is never read.
#[derive(Debug, Default)]
pub(crate) struct BitRows {
    rows: Vec<BitSet>,
    parked: Vec<BitSet>,
}

impl BitRows {
    /// `n` empty rows of capacity `n`.
    pub(crate) fn reset(&mut self, n: usize) {
        if self.rows.len() > n {
            self.parked.extend(self.rows.drain(n..));
        }
        while self.rows.len() < n {
            self.rows.push(self.parked.pop().unwrap_or_default());
        }
        for row in &mut self.rows {
            row.reset(n);
        }
    }
}

impl Clone for BitRows {
    fn clone(&self) -> Self {
        BitRows { rows: self.rows.clone(), parked: Vec::new() }
    }
}

impl Deref for BitRows {
    type Target = [BitSet];

    fn deref(&self) -> &[BitSet] {
        &self.rows
    }
}

impl DerefMut for BitRows {
    fn deref_mut(&mut self) -> &mut [BitSet] {
        &mut self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(100);
        assert!(s.insert(3));
        assert!(s.insert(64));
        assert!(s.insert(99));
        assert!(!s.insert(3), "duplicate insert returns false");
        assert!(s.contains(3) && s.contains(64) && s.contains(99));
        assert!(!s.contains(4));
        assert!(!s.contains(1000), "out-of-capacity membership is false");
        assert_eq!(s.len(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn reset_retargets_capacity_and_clears() {
        let mut s = BitSet::new(70);
        s.insert(3);
        s.insert(69);
        for cap in [70usize, 5, 200, 0, 64] {
            s.reset(cap);
            assert_eq!(s.capacity(), cap, "cap = {cap}");
            assert!(s.is_empty(), "cap = {cap}");
            assert_eq!(s, BitSet::new(cap), "cap = {cap}");
            if cap > 0 {
                s.insert(cap as u32 - 1);
                assert_eq!(s.len(), 1);
            }
        }
    }

    #[test]
    fn full_has_exact_len_on_non_word_boundary() {
        for cap in [0usize, 1, 63, 64, 65, 128, 130] {
            let s = BitSet::full(cap);
            assert_eq!(s.len(), cap, "cap = {cap}");
            if cap > 0 {
                assert!(s.contains(cap as u32 - 1));
            }
            assert!(!s.contains(cap as u32));
        }
    }

    #[test]
    fn union_and_superset() {
        let mut a = BitSet::from_elems(70, [1, 2, 65]);
        let b = BitSet::from_elems(70, [2, 3]);
        assert!(!a.is_superset(&b));
        a.union_with(&b);
        assert!(a.is_superset(&b));
        assert_eq!(a.to_vec(), vec![1, 2, 3, 65]);
    }

    #[test]
    fn missing_and_first_missing() {
        let covered = BitSet::from_elems(130, [0, 1, 2, 127]);
        let universe = BitSet::from_elems(130, [0, 1, 2, 3, 64, 127, 129]);
        assert_eq!(covered.missing_from(&universe), 3);
        assert_eq!(covered.first_missing_from(&universe), Some(3));
        let all = BitSet::full(130);
        assert_eq!(all.missing_from(&universe), 0);
        assert_eq!(all.first_missing_from(&universe), None);
    }

    #[test]
    fn assign_difference_reuses_allocation() {
        let a = BitSet::from_elems(130, [0, 3, 64, 129]);
        let b = BitSet::from_elems(130, [3, 64]);
        let mut d = BitSet::new(7); // wrong capacity on purpose
        d.assign_difference(&a, &b);
        assert_eq!(d.to_vec(), vec![0, 129]);
        assert_eq!(d.capacity(), 130);
        assert_eq!(d.len(), a.missing_from(&b).max(b.missing_from(&a)));
    }

    #[test]
    fn clone_from_reuses_allocation() {
        let mut target = BitSet::full(300); // warmed to 5 words
        let (ptr, cap) = (target.words.as_ptr(), target.words.capacity());
        for source in [BitSet::from_elems(70, [0, 69]), BitSet::from_elems(250, [3, 64, 249])] {
            target.clone_from(&source);
            assert_eq!(target, source);
            assert_eq!(target.words.as_ptr(), ptr, "clone_from reallocated");
            assert_eq!(target.words.capacity(), cap);
        }
    }

    #[test]
    fn rows_keep_their_storage_and_expose_the_live_rows_only() {
        let mut rows = BitRows::default();
        rows.reset(130);
        rows[129].insert(7);
        let words: Vec<*const u64> = rows.iter().map(|r| r.words.as_ptr()).collect();
        rows.reset(5);
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|r| r.capacity() == 5 && r.is_empty()));
        let copy = rows.clone();
        assert_eq!((copy.len(), copy.parked.len()), (5, 0), "a clone copies the live rows only");
        rows.reset(130);
        assert!(rows.iter().all(|r| r.capacity() == 130 && r.is_empty()), "stale row");
        let mut again: Vec<*const u64> = rows.iter().map(|r| r.words.as_ptr()).collect();
        again.sort_unstable();
        let mut words = words;
        words.sort_unstable();
        assert_eq!(again, words, "a row was reallocated");
    }

    #[test]
    fn intersection_len() {
        let a = BitSet::from_elems(80, [1, 5, 64, 70]);
        let b = BitSet::from_elems(80, [5, 64, 71]);
        assert_eq!(a.intersection_len(&b), 2);
    }

    #[test]
    fn iter_crosses_word_boundaries() {
        let elems = vec![0u32, 63, 64, 65, 127, 128];
        let s = BitSet::from_elems(200, elems.clone());
        assert_eq!(s.to_vec(), elems);
    }

    #[test]
    fn clear_empties() {
        let mut s = BitSet::from_elems(10, [1, 2]);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn empty_iterates_nothing() {
        let s = BitSet::new(100);
        assert_eq!(s.iter().count(), 0);
    }
}
