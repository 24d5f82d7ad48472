//! Reduction of access streams to per-consistency-unit read/write sets, and the
//! page-sharing histograms built from them.
//!
//! False sharing — the central quantity of the paper — is defined over these sets: a
//! consistency unit is falsely shared in an interval when at least two processors access
//! it, at least one of them writes it, and the processors touch *different* objects
//! within it.  The sharing histograms of Figures 2 and 5 ("number of processors sharing
//! each page") are the per-unit counts of processors whose read or write set contains
//! the unit.

use crate::access::Access;
use crate::layout::ObjectLayout;

/// A dense set of small indices — consistency units or object ids — stored one bit per
/// index in `u64` words that grow on demand.
///
/// Unit and object indices are dense and bounded by the object array (a few hundred
/// pages and tens of thousands of objects even at paper scale), so a bitset makes
/// every insert a shift and an OR, and unions and intersections run a word at a time.
/// Equality ignores trailing zero words: two sets with the same members are equal
/// however far either has grown.
#[derive(Debug, Clone, Default)]
pub struct DenseSet {
    words: Vec<u64>,
}

impl DenseSet {
    /// An empty set presized to hold indices below `indices` without growing.
    pub fn with_capacity(indices: usize) -> Self {
        DenseSet { words: vec![0; indices.div_ceil(64)] }
    }

    /// Add `index` to the set.
    #[inline]
    pub fn insert(&mut self, index: usize) {
        let word = index / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (index % 64);
    }

    /// Whether `index` is in the set.
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        self.words.get(index / 64).is_some_and(|w| w & (1 << (index % 64)) != 0)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The members, in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| word_members(i, word))
    }

    /// The members, in increasing order, removed from the set as they are yielded:
    /// each word is zeroed when the iterator reaches it, so the set keeps its capacity
    /// and a fully consumed drain leaves it empty.  Dropping the iterator early leaves
    /// the members it has not reached.
    pub fn drain(&mut self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter_mut()
            .enumerate()
            .flat_map(|(i, word)| word_members(i, std::mem::take(word)))
    }

    /// Add every member of `other` to the set.
    pub fn union_with(&mut self, other: &DenseSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// The members of both sets.
    pub fn intersection(&self, other: &DenseSet) -> DenseSet {
        DenseSet { words: self.words.iter().zip(&other.words).map(|(&a, &b)| a & b).collect() }
    }

    /// Add one to `counts[i]` for every member `i`; members at or beyond
    /// `counts.len()` are ignored.
    pub fn count_into(&self, counts: &mut [u32]) {
        let len = counts.len();
        for i in self.iter().take_while(|&i| i < len) {
            counts[i] += 1;
        }
    }
}

/// The members held by `bits`, the `i`-th word of a [`DenseSet`], in increasing order.
fn word_members(i: usize, mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if bits == 0 {
            return None;
        }
        let bit = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        Some(i * 64 + bit)
    })
}

impl PartialEq for DenseSet {
    fn eq(&self, other: &DenseSet) -> bool {
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        long[..short.len()] == short[..] && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl Eq for DenseSet {}

impl FromIterator<usize> for DenseSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut set = DenseSet::default();
        for index in iter {
            set.insert(index);
        }
        set
    }
}

/// The consistency units a single processor read and wrote, and the objects it wrote,
/// over some span of its access stream (one interval, or a whole trace).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UnitAccessSets {
    /// Units from which the processor read at least once.
    pub read_units: DenseSet,
    /// Units to which the processor wrote at least once.
    pub write_units: DenseSet,
    /// Objects the processor wrote (used for distinguishing true from false sharing).
    pub written_objects: DenseSet,
}

impl UnitAccessSets {
    /// Build the sets from an ordered access stream.  An object that straddles several
    /// units contributes every unit it overlaps.
    pub fn from_accesses(accesses: &[Access], layout: &ObjectLayout, unit_bytes: usize) -> Self {
        let mut sets = UnitAccessSets::default();
        for &a in accesses {
            sets.add(a, layout, unit_bytes);
        }
        sets
    }

    /// Fold one access into the sets (the incremental form used by the streaming
    /// [`crate::UnitSetsSink`]; [`UnitAccessSets::from_accesses`] is a loop over this).
    #[inline]
    pub fn add(&mut self, a: Access, layout: &ObjectLayout, unit_bytes: usize) {
        let (first, last) = layout.units_of(a.object(), unit_bytes);
        let units = if a.is_write() {
            self.written_objects.insert(a.object());
            &mut self.write_units
        } else {
            &mut self.read_units
        };
        for u in first..=last {
            units.insert(u);
        }
    }

    /// Add everything `other` read and wrote: the sets of a processor that ran both
    /// streams one after the other.
    pub fn union_with(&mut self, other: &UnitAccessSets) {
        self.read_units.union_with(&other.read_units);
        self.write_units.union_with(&other.write_units);
        self.written_objects.union_with(&other.written_objects);
    }

    /// Every unit the processor touched (read or write).
    pub fn touched_units(&self) -> DenseSet {
        let mut touched = self.read_units.clone();
        touched.union_with(&self.write_units);
        touched
    }

    /// Whether the processor wrote unit `unit`.
    pub fn wrote_unit(&self, unit: usize) -> bool {
        self.write_units.contains(unit)
    }

    /// Whether the processor read unit `unit`.
    pub fn read_unit(&self, unit: usize) -> bool {
        self.read_units.contains(unit)
    }
}

/// Per-unit sharing statistics for one interval (or aggregated over a whole trace):
/// for every consistency unit, how many processors touched it, how many wrote it, and
/// whether the sharing is *false* (writers touch disjoint objects) or true.
#[derive(Debug, Clone)]
pub struct SharingHistogram {
    /// Number of consistency units analysed.
    pub num_units: usize,
    /// `sharers[u]` = number of processors that read or wrote unit `u`.
    pub sharers: Vec<u32>,
    /// `writers[u]` = number of processors that wrote unit `u`.
    pub writers: Vec<u32>,
    /// `falsely_shared[u]` = true when at least two processors *write* the unit but no
    /// single object is written by more than one processor — i.e. the write sharing is
    /// purely an artifact of co-locating unrelated objects in one consistency unit,
    /// which is the false sharing that data reordering eliminates.
    pub falsely_shared: Vec<bool>,
}

impl SharingHistogram {
    /// Build the histogram from every processor's per-unit access sets for one interval.
    /// Units at or beyond `num_units` are ignored.
    pub fn from_unit_sets(per_proc: &[UnitAccessSets], num_units: usize) -> Self {
        let mut sharers = vec![0u32; num_units];
        let mut writers = vec![0u32; num_units];
        for sets in per_proc {
            sets.touched_units().count_into(&mut sharers);
            sets.write_units.count_into(&mut writers);
        }
        // A unit is falsely (write-)shared when at least two processors write it but no
        // object is written by more than one processor: the writers only conflict
        // because unrelated objects were co-located in the unit.  If some object is
        // written by two processors, the unit carries true communication regardless of
        // layout and is not counted.
        let mut written_once = DenseSet::default();
        let mut written_twice = DenseSet::default();
        for sets in per_proc {
            written_twice.union_with(&written_once.intersection(&sets.written_objects));
            written_once.union_with(&sets.written_objects);
        }
        // Conservative: a writer that wrote any conflicted object makes every unit it
        // wrote layout-independent, even if the conflicted object lives elsewhere.
        let mut truly_shared = DenseSet::default();
        for sets in per_proc {
            if !sets.written_objects.intersection(&written_twice).is_empty() {
                truly_shared.union_with(&sets.write_units);
            }
        }
        let falsely_shared =
            (0..num_units).map(|u| writers[u] >= 2 && !truly_shared.contains(u)).collect();
        SharingHistogram { num_units, sharers, writers, falsely_shared }
    }

    /// Average number of processors sharing a unit, over units touched by at least one
    /// processor (the paper's "average number of processors sharing a page").
    pub fn mean_sharers(&self) -> f64 {
        let touched: Vec<u32> = self.sharers.iter().copied().filter(|&s| s > 0).collect();
        if touched.is_empty() {
            return 0.0;
        }
        touched.iter().map(|&s| f64::from(s)).sum::<f64>() / touched.len() as f64
    }

    /// Number of units shared (touched by ≥2 processors) at all.
    pub fn shared_units(&self) -> usize {
        self.sharers.iter().filter(|&&s| s >= 2).count()
    }

    /// Number of units that are write-shared (written by ≥1 and touched by ≥2).
    pub fn write_shared_units(&self) -> usize {
        (0..self.num_units).filter(|&u| self.sharers[u] >= 2 && self.writers[u] >= 1).count()
    }

    /// Number of units flagged as falsely shared.
    pub fn falsely_shared_units(&self) -> usize {
        self.falsely_shared.iter().filter(|&&f| f).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> ObjectLayout {
        // 8 objects of 64 bytes per 512-byte unit.
        ObjectLayout::new(64, 64)
    }

    #[test]
    fn dense_set_equality_ignores_trailing_zero_words() {
        let mut grown: DenseSet = [3, 200].into_iter().collect();
        let small: DenseSet = [3].into_iter().collect();
        assert_ne!(grown, small);
        grown = grown.intersection(&small);
        assert_eq!(grown, small);
        assert_eq!(DenseSet::default(), grown.intersection(&DenseSet::default()));
    }

    #[test]
    fn dense_set_iterates_members_in_order() {
        let set: DenseSet = [130, 0, 63, 64, 63].into_iter().collect();
        assert_eq!(set.iter().collect::<Vec<_>>(), [0, 63, 64, 130]);
        assert_eq!(set.len(), 4);
        let mut counts = [0u32; 64];
        set.count_into(&mut counts);
        assert_eq!((counts[0], counts[63], counts.iter().sum::<u32>()), (1, 1, 2));
    }

    #[test]
    fn dense_set_drain_yields_members_in_order_and_empties_the_set() {
        let mut set = DenseSet::with_capacity(100);
        assert!(set.is_empty());
        for i in [99, 0, 64, 63, 300, 64] {
            set.insert(i);
        }
        assert_eq!(set.drain().collect::<Vec<_>>(), [0, 63, 64, 99, 300]);
        assert!(set.is_empty());
        assert_eq!(set, DenseSet::default());
        set.insert(5);
        assert_eq!(set.drain().collect::<Vec<_>>(), [5], "a drained set is reusable");
    }

    #[test]
    fn dense_set_union_and_intersection() {
        let mut a: DenseSet = [1, 100].into_iter().collect();
        let b: DenseSet = [100, 300].into_iter().collect();
        assert_eq!(a.intersection(&b).iter().collect::<Vec<_>>(), [100]);
        a.union_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), [1, 100, 300]);
        assert!(!a.contains(2) && a.contains(300) && !a.contains(10_000));
    }

    #[test]
    fn sets_classify_reads_and_writes() {
        let l = layout();
        let accesses = vec![Access::read(0), Access::write(9), Access::read(17)];
        let sets = UnitAccessSets::from_accesses(&accesses, &l, 512);
        assert!(sets.read_unit(0));
        assert!(sets.wrote_unit(1));
        assert!(sets.read_unit(2));
        assert!(!sets.wrote_unit(0));
        assert_eq!(sets.touched_units().len(), 3);
    }

    #[test]
    fn straddling_object_touches_every_overlapped_unit() {
        // 680-byte objects over 512-byte units: object 0 covers units 0 and 1.
        let l = ObjectLayout::new(4, 680);
        let sets = UnitAccessSets::from_accesses(&[Access::write(0)], &l, 512);
        assert!(sets.wrote_unit(0));
        assert!(sets.wrote_unit(1));
    }

    #[test]
    fn false_sharing_detected_when_writers_touch_disjoint_objects() {
        let l = layout();
        // Two processors write different objects in the same unit.
        let p0 = UnitAccessSets::from_accesses(&[Access::write(0)], &l, 512);
        let p1 = UnitAccessSets::from_accesses(&[Access::write(1)], &l, 512);
        let h = SharingHistogram::from_unit_sets(&[p0, p1], l.num_units(512));
        assert_eq!(h.sharers[0], 2);
        assert_eq!(h.writers[0], 2);
        assert!(h.falsely_shared[0]);
        assert_eq!(h.falsely_shared_units(), 1);
    }

    #[test]
    fn true_sharing_is_not_flagged_as_false_sharing() {
        let l = layout();
        // Both processors access the *same* object, one writes it: true sharing.
        let p0 = UnitAccessSets::from_accesses(&[Access::write(3)], &l, 512);
        let p1 = UnitAccessSets::from_accesses(&[Access::read(3)], &l, 512);
        let h = SharingHistogram::from_unit_sets(&[p0, p1], l.num_units(512));
        assert_eq!(h.sharers[0], 2);
        assert!(!h.falsely_shared[0]);
    }

    #[test]
    fn read_only_sharing_is_not_false_sharing() {
        let l = layout();
        let p0 = UnitAccessSets::from_accesses(&[Access::read(0)], &l, 512);
        let p1 = UnitAccessSets::from_accesses(&[Access::read(1)], &l, 512);
        let h = SharingHistogram::from_unit_sets(&[p0, p1], l.num_units(512));
        assert_eq!(h.sharers[0], 2);
        assert_eq!(h.writers[0], 0);
        assert!(!h.falsely_shared[0]);
        assert_eq!(h.write_shared_units(), 0);
    }

    #[test]
    fn mean_sharers_ignores_untouched_units() {
        let l = ObjectLayout::new(64, 64); // 8 units of 512 B
        let p0 = UnitAccessSets::from_accesses(&[Access::write(0)], &l, 512);
        let p1 = UnitAccessSets::from_accesses(&[Access::write(1)], &l, 512);
        let p2 = UnitAccessSets::from_accesses(&[Access::write(63)], &l, 512);
        let h = SharingHistogram::from_unit_sets(&[p0, p1, p2], l.num_units(512));
        // Unit 0 has 2 sharers, unit 7 has 1; mean over touched units = 1.5.
        assert!((h.mean_sharers() - 1.5).abs() < 1e-12);
        assert_eq!(h.shared_units(), 1);
    }

    #[test]
    fn perfectly_partitioned_accesses_share_nothing() {
        let l = layout();
        let per_proc: Vec<UnitAccessSets> = (0..8)
            .map(|p| {
                let accesses: Vec<Access> = (0..8).map(|i| Access::write(p * 8 + i)).collect();
                UnitAccessSets::from_accesses(&accesses, &l, 512)
            })
            .collect();
        let h = SharingHistogram::from_unit_sets(&per_proc, l.num_units(512));
        assert_eq!(h.shared_units(), 0);
        assert_eq!(h.falsely_shared_units(), 0);
        assert!((h.mean_sharers() - 1.0).abs() < 1e-12);
    }
}
