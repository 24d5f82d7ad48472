//! Ranking and permutation application: the second phase of every reordering method.
//!
//! Given one sort key per object, the rank of an object is its position in the sorted
//! key order.  The object array is then permuted so that object with rank `r` ends up
//! at position `r`.  Because many irregular applications keep *index-based* auxiliary
//! structures — interaction lists in Moldyn, edge endpoint arrays in Unstructured, leaf
//! pointers in Barnes-Hut — the permutation also has to be applied to those indices;
//! [`Permutation::remap_index`] and [`Permutation::remap_indices`] do exactly that.
//! The ranking itself is [`crate::radix::rank_radix`]; this module holds the result
//! and applies it.

/// One bit of cycle bookkeeping per object (the in-place appliers' only allocation).
struct VisitedBits(Vec<u64>);

impl VisitedBits {
    fn new(n: usize) -> Self {
        VisitedBits(vec![0u64; n.div_ceil(64)])
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 != 0
    }

    #[inline]
    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }
}

/// A permutation of `n` objects, stored in both directions.
///
/// * `rank[old]` is the new position of the object that used to live at `old`.
/// * `perm[new]` is the old position of the object that now lives at `new`.
///
/// The two arrays are inverses of each other; both are kept because applications need
/// both directions (gathering objects uses `perm`, remapping stored indices uses
/// `rank`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    rank: Vec<usize>,
    perm: Vec<usize>,
}

impl Permutation {
    /// The identity permutation on `n` elements.
    ///
    /// The two direction arrays are built independently (no clone), and appliers use
    /// [`Permutation::is_identity`] to skip no-op permutations entirely.
    pub fn identity(n: usize) -> Self {
        Permutation { rank: (0..n).collect(), perm: (0..n).collect() }
    }

    /// Assemble a permutation from its two (already inverse) direction arrays.
    ///
    /// Callers (the radix ranking) guarantee bijectivity by construction; debug builds
    /// re-check it.
    pub(crate) fn from_parts(rank: Vec<usize>, perm: Vec<usize>) -> Self {
        debug_assert_eq!(rank.len(), perm.len());
        debug_assert!(rank.iter().enumerate().all(|(old, &r)| perm[r] == old));
        Permutation { rank, perm }
    }

    /// Build a permutation directly from a `rank` array (`rank[old] = new`).
    ///
    /// # Panics
    /// Panics if `rank` is not a permutation of `0..rank.len()`.
    pub fn from_rank(rank: Vec<usize>) -> Self {
        let n = rank.len();
        let mut perm = vec![usize::MAX; n];
        for (old, &new) in rank.iter().enumerate() {
            assert!(new < n, "rank {new} out of range for {n} objects");
            assert!(perm[new] == usize::MAX, "two objects map to rank {new}");
            perm[new] = old;
        }
        Permutation { rank, perm }
    }

    /// Number of objects the permutation acts on.
    pub fn len(&self) -> usize {
        self.rank.len()
    }

    /// Whether the permutation acts on zero objects.
    pub fn is_empty(&self) -> bool {
        self.rank.is_empty()
    }

    /// `rank[old]`: the new position of the object that used to be at `old`.
    pub fn rank_of(&self, old: usize) -> usize {
        self.rank[old]
    }

    /// `perm[new]`: the old position of the object that is now at `new`.
    pub fn source_of(&self, new: usize) -> usize {
        self.perm[new]
    }

    /// The full `old -> new` mapping.
    pub fn ranks(&self) -> &[usize] {
        &self.rank
    }

    /// The full `new -> old` mapping.
    pub fn sources(&self) -> &[usize] {
        &self.perm
    }

    /// Whether this is the identity permutation.
    pub fn is_identity(&self) -> bool {
        self.rank.iter().enumerate().all(|(i, &r)| i == r)
    }

    /// The inverse permutation (swaps the roles of `rank` and `perm`).
    pub fn inverse(&self) -> Permutation {
        Permutation { rank: self.perm.clone(), perm: self.rank.clone() }
    }

    /// Remap a single stored object index from the old ordering to the new ordering.
    ///
    /// Use this on every index-valued field of auxiliary data structures after the
    /// object array has been permuted (e.g. interaction-list entries, edge endpoints).
    #[inline]
    pub fn remap_index(&self, old: usize) -> usize {
        self.rank[old]
    }

    /// Remap a slice of stored object indices in place.
    pub fn remap_indices(&self, indices: &mut [usize]) {
        for idx in indices.iter_mut() {
            *idx = self.rank[*idx];
        }
    }

    /// Remap `u32`-typed object indices in place (many mesh formats store 32-bit ids).
    pub fn remap_indices_u32(&self, indices: &mut [u32]) {
        for idx in indices.iter_mut() {
            *idx = self.rank[*idx as usize] as u32;
        }
    }

    /// Gather a new object array: element `new` of the result is the old element
    /// `perm[new]`.  This is the out-of-place application used when `T: Clone`.
    ///
    /// # Panics
    /// Panics if `objects.len()` differs from the permutation length.
    pub fn apply_cloned<T: Clone>(&self, objects: &[T]) -> Vec<T> {
        assert_eq!(objects.len(), self.len(), "object array length must match permutation");
        self.perm.iter().map(|&old| objects[old].clone()).collect()
    }

    /// Walk every non-trivial cycle of the permutation once, reporting each element
    /// move as a `swap(a, b)` call; shared by all the in-place appliers.
    ///
    /// Allocates exactly one bit per object for cycle bookkeeping and skips entirely
    /// when the permutation is the identity.
    fn for_each_swap(&self, mut swap: impl FnMut(usize, usize)) {
        if self.is_identity() {
            return;
        }
        let mut visited = VisitedBits::new(self.len());
        for start in 0..self.len() {
            if visited.get(start) || self.perm[start] == start {
                continue;
            }
            // Follow the cycle that starts at `start`, swapping elements into place.
            let mut current = start;
            while !visited.get(current) {
                visited.set(current);
                let source = self.perm[current];
                if source != start {
                    swap(current, source);
                    current = source;
                } else {
                    break;
                }
            }
        }
    }

    /// Permute the object array in place using cycle decomposition; requires no `Clone`
    /// and allocates only one bit per object for cycle bookkeeping.  The identity
    /// permutation returns immediately without touching the array.
    ///
    /// # Panics
    /// Panics if `objects.len()` differs from the permutation length.
    pub fn apply_in_place<T>(&self, objects: &mut [T]) {
        assert_eq!(objects.len(), self.len(), "object array length must match permutation");
        self.for_each_swap(|a, b| objects.swap(a, b));
    }

    /// Permute an object array and one parallel auxiliary array in a single cycle
    /// walk (one visited-bit allocation for both), e.g. positions plus per-object
    /// masses, or bodies plus their interaction-list heads.
    ///
    /// # Panics
    /// Panics if either slice's length differs from the permutation length.
    pub fn apply_with_aux<T, U>(&self, objects: &mut [T], aux: &mut [U]) {
        assert_eq!(objects.len(), self.len(), "object array length must match permutation");
        assert_eq!(aux.len(), self.len(), "aux array length must match permutation");
        self.for_each_swap(|a, b| {
            objects.swap(a, b);
            aux.swap(a, b);
        });
    }

    /// Permute any number of parallel arrays (a structure-of-arrays bundle) in one
    /// cycle walk: no clones, no gathers, one bit of bookkeeping per object shared by
    /// all columns.
    ///
    /// ```
    /// use reorder::permute::{Permutation, PermutableColumn};
    ///
    /// let p = Permutation::from_rank(vec![2, 0, 1]);
    /// let (mut xs, mut ids) = (vec![10.0, 20.0, 30.0], vec![0u32, 1, 2]);
    /// p.apply_columns(&mut [&mut xs, &mut ids]);
    /// assert_eq!(xs, vec![20.0, 30.0, 10.0]);
    /// assert_eq!(ids, vec![1, 2, 0]);
    /// ```
    ///
    /// # Panics
    /// Panics if any column's length differs from the permutation length.
    pub fn apply_columns(&self, columns: &mut [&mut dyn PermutableColumn]) {
        for column in columns.iter() {
            assert_eq!(column.len(), self.len(), "column length must match permutation");
        }
        self.for_each_swap(|a, b| {
            for column in columns.iter_mut() {
                column.swap_elements(a, b);
            }
        });
    }

    /// Compose two permutations: applying the result is equivalent to applying `self`
    /// first and then `other` (both expressed as old→new rank maps).
    ///
    /// # Panics
    /// Panics if the permutations have different lengths.
    pub fn then(&self, other: &Permutation) -> Permutation {
        assert_eq!(self.len(), other.len(), "cannot compose permutations of different lengths");
        let rank: Vec<usize> = (0..self.len()).map(|old| other.rank[self.rank[old]]).collect();
        Permutation::from_rank(rank)
    }
}

/// One column of a structure-of-arrays bundle, permutable by element swaps.
///
/// Implemented for vectors and mutable slices, so a heterogeneous set of parallel
/// arrays (`Vec<f64>`, `Vec<u32>`, `&mut [Body]`, …) can be handed to
/// [`Permutation::apply_columns`] as `&mut [&mut dyn PermutableColumn]` and permuted
/// together in one cycle walk.
pub trait PermutableColumn {
    /// Number of elements in the column.
    fn len(&self) -> usize;
    /// Whether the column is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Swap the elements at positions `a` and `b`.
    fn swap_elements(&mut self, a: usize, b: usize);
}

impl<T> PermutableColumn for Vec<T> {
    fn len(&self) -> usize {
        <[T]>::len(self)
    }

    fn swap_elements(&mut self, a: usize, b: usize) {
        self.as_mut_slice().swap(a, b);
    }
}

impl<T> PermutableColumn for &mut [T] {
    fn len(&self) -> usize {
        <[T]>::len(self)
    }

    fn swap_elements(&mut self, a: usize, b: usize) {
        self.swap(a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::radix::rank_radix;

    /// Rank objects `0..keys.len()` by ascending key, ties broken by object index.
    fn ranked(keys: &[u64]) -> Permutation {
        rank_radix(keys, false)
    }

    #[test]
    fn ranking_sorts_by_key() {
        let p = ranked(&[30, 10, 20]);
        // Object 1 has the smallest key -> rank 0.
        assert_eq!(p.rank_of(1), 0);
        assert_eq!(p.rank_of(2), 1);
        assert_eq!(p.rank_of(0), 2);
        assert_eq!(p.sources(), &[1, 2, 0]);
    }

    #[test]
    fn ties_are_broken_by_object_index() {
        let p = ranked(&[5, 5, 5, 1]);
        assert_eq!(p.sources(), &[3, 0, 1, 2]);
    }

    #[test]
    fn rank_and_perm_are_inverses() {
        let p = ranked(&[9, 2, 7, 4, 0, 3]);
        for old in 0..p.len() {
            assert_eq!(p.source_of(p.rank_of(old)), old);
        }
        for new in 0..p.len() {
            assert_eq!(p.rank_of(p.source_of(new)), new);
        }
        assert_eq!(p.inverse().inverse(), p);
    }

    #[test]
    fn apply_cloned_matches_apply_in_place() {
        let p = ranked(&[4, 1, 3, 0, 2]);
        let objects: Vec<String> = (0..5).map(|i| format!("obj{i}")).collect();
        let cloned = p.apply_cloned(&objects);
        let mut in_place = objects.clone();
        p.apply_in_place(&mut in_place);
        assert_eq!(cloned, in_place);
        // The object with the smallest key (object 3) must now be first.
        assert_eq!(cloned[0], "obj3");
    }

    #[test]
    fn remap_indices_follows_objects() {
        let p = ranked(&[4, 1, 3, 0, 2]);
        let objects: Vec<usize> = (0..5).collect();
        let new_objects = p.apply_cloned(&objects);
        // An interaction list that referred to old object `i` must, after remapping,
        // refer to the position where old object `i` now lives.
        let mut list = vec![0usize, 2, 4];
        p.remap_indices(&mut list);
        for (&old, &new) in [0usize, 2, 4].iter().zip(&list) {
            assert_eq!(new_objects[new], old);
        }
    }

    #[test]
    fn remap_u32_matches_usize() {
        let p = ranked(&[2, 0, 1]);
        let mut a = vec![0usize, 1, 2];
        let mut b = vec![0u32, 1, 2];
        p.remap_indices(&mut a);
        p.remap_indices_u32(&mut b);
        assert_eq!(a, b.iter().map(|&x| x as usize).collect::<Vec<_>>());
    }

    #[test]
    fn identity_detection() {
        let p = ranked(&[1, 2, 3]);
        assert!(p.is_identity());
        let q = ranked(&[3, 2, 1]);
        assert!(!q.is_identity());
        assert!(Permutation::identity(7).is_identity());
    }

    #[test]
    fn composition_applies_left_then_right() {
        let p = Permutation::from_rank(vec![1, 2, 0]); // old0->1, old1->2, old2->0
        let q = Permutation::from_rank(vec![2, 0, 1]);
        let pq = p.then(&q);
        // old0 -> p:1 -> q:0
        assert_eq!(pq.rank_of(0), 0);
        // old1 -> p:2 -> q:1
        assert_eq!(pq.rank_of(1), 1);
        assert_eq!(pq.rank_of(2), 2);
        assert!(pq.is_identity());
    }

    #[test]
    fn empty_permutation_is_fine() {
        let p = ranked(&[]);
        assert!(p.is_empty());
        let mut v: Vec<u8> = vec![];
        p.apply_in_place(&mut v);
        assert!(p.apply_cloned(&v).is_empty());
    }

    #[test]
    fn apply_with_aux_moves_both_arrays_together() {
        let p = ranked(&[4, 1, 3, 0, 2]);
        let mut objects: Vec<usize> = (0..5).collect();
        let mut aux: Vec<String> = (0..5).map(|i| format!("aux{i}")).collect();
        p.apply_with_aux(&mut objects, &mut aux);
        assert_eq!(objects, p.apply_cloned(&(0..5).collect::<Vec<_>>()));
        for (o, a) in objects.iter().zip(&aux) {
            assert_eq!(*a, format!("aux{o}"));
        }
    }

    #[test]
    fn apply_columns_matches_per_array_gather() {
        let p = ranked(&[9, 2, 7, 4, 0, 3]);
        let mut a: Vec<f64> = (0..6).map(|i| i as f64).collect();
        let mut b: Vec<u32> = (0..6).collect();
        let mut c: Vec<(usize, bool)> = (0..6).map(|i| (i, i % 2 == 0)).collect();
        let (ga, gb, gc) = (p.apply_cloned(&a), p.apply_cloned(&b), p.apply_cloned(&c));
        p.apply_columns(&mut [&mut a, &mut b, &mut c]);
        assert_eq!(a, ga);
        assert_eq!(b, gb);
        assert_eq!(c, gc);
    }

    #[test]
    fn identity_appliers_do_not_move_anything() {
        let p = Permutation::identity(8);
        let mut v: Vec<u8> = (0..8).collect();
        let mut aux: Vec<u8> = (10..18).collect();
        p.apply_in_place(&mut v);
        p.apply_with_aux(&mut v, &mut aux);
        p.apply_columns(&mut [&mut v]);
        assert_eq!(v, (0..8).collect::<Vec<_>>());
        assert_eq!(aux, (10..18).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "column length must match")]
    fn mismatched_column_panics() {
        let p = Permutation::identity(3);
        let mut short = vec![1u8, 2];
        p.apply_columns(&mut [&mut short]);
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn mismatched_apply_panics() {
        let p = Permutation::identity(3);
        p.apply_cloned(&[1, 2]);
    }
}
