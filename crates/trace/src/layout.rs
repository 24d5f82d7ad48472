//! Mapping from object indices to bytes, cache lines and pages.
//!
//! All of the paper's analysis is phrased in terms of the *object array*: `n` objects of
//! a fixed size laid out contiguously in shared memory.  Table 1 lists the object sizes
//! (104 B bodies in Barnes-Hut and FMM, 680 B molecules in Water-Spatial, 72 B in
//! Moldyn, 32 B mesh nodes in Unstructured); the consistency units of interest are the
//! Origin 2000's 128-byte L2 cache line and 16 KB page, the software DSMs' 4 KB / 8 KB
//! virtual-memory pages.  `ObjectLayout` performs the index → address → unit arithmetic
//! all analyses share.

/// Layout of an object array in the shared address space.
///
/// Objects are assumed to be stored contiguously starting at `base_offset` bytes from
/// the start of a consistency unit (normally 0: the paper's examples assume the array
/// is page-aligned and that objects do not straddle page boundaries only when that is
/// true of the original C structure — we model the general contiguous case).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectLayout {
    /// Number of objects in the array.
    pub num_objects: usize,
    /// Size of one object in bytes.
    pub object_size: usize,
    /// Byte offset of object 0 from an aligned base address.
    pub base_offset: usize,
}

impl ObjectLayout {
    /// Create a layout for `num_objects` objects of `object_size` bytes, starting at an
    /// aligned base address.
    ///
    /// # Panics
    /// Panics if `object_size` is zero.
    pub fn new(num_objects: usize, object_size: usize) -> Self {
        assert!(object_size > 0, "object_size must be positive");
        ObjectLayout { num_objects, object_size, base_offset: 0 }
    }

    /// Same as [`ObjectLayout::new`] but with the array starting `base_offset` bytes
    /// into its first consistency unit (models unaligned allocations).
    pub fn with_offset(num_objects: usize, object_size: usize, base_offset: usize) -> Self {
        assert!(object_size > 0, "object_size must be positive");
        ObjectLayout { num_objects, object_size, base_offset }
    }

    /// Total footprint of the array in bytes (excluding the leading offset).
    pub fn total_bytes(&self) -> usize {
        self.num_objects * self.object_size
    }

    /// Byte address (relative to the aligned base) of the first byte of object `i`.
    #[inline]
    pub fn first_byte(&self, object: usize) -> usize {
        debug_assert!(object < self.num_objects);
        self.base_offset + object * self.object_size
    }

    /// Byte address of the last byte of object `i`.
    #[inline]
    pub fn last_byte(&self, object: usize) -> usize {
        self.first_byte(object) + self.object_size - 1
    }

    /// Index of the consistency unit containing the *first* byte of object `i`.
    ///
    /// Most locality analyses only need the first unit an object touches; objects that
    /// straddle a unit boundary are handled by [`ObjectLayout::units_of`].
    #[inline]
    pub fn unit_of(&self, object: usize, unit_bytes: usize) -> usize {
        self.first_byte(object) / unit_bytes
    }

    /// All consistency units covered by object `i` (inclusive range), as
    /// `(first_unit, last_unit)`.
    #[inline]
    pub fn units_of(&self, object: usize, unit_bytes: usize) -> (usize, usize) {
        (self.first_byte(object) / unit_bytes, self.last_byte(object) / unit_bytes)
    }

    /// Number of consistency units of `unit_bytes` bytes needed to hold the whole array.
    pub fn num_units(&self, unit_bytes: usize) -> usize {
        if self.num_objects == 0 {
            return 0;
        }
        self.last_byte(self.num_objects - 1) / unit_bytes + 1
    }

    /// Number of whole objects that fit in one consistency unit (zero if an object is
    /// larger than the unit).
    pub fn objects_per_unit(&self, unit_bytes: usize) -> usize {
        unit_bytes / self.object_size
    }

    /// The range of objects whose first byte falls in unit `unit` (empty if none do).
    pub fn objects_in_unit(&self, unit: usize, unit_bytes: usize) -> std::ops::Range<usize> {
        let unit_start = unit * unit_bytes;
        let unit_end = unit_start + unit_bytes;
        if self.num_objects == 0 {
            return 0..0;
        }
        // First object whose first byte is >= unit_start.
        let first = unit_start
            .saturating_sub(self.base_offset)
            .div_ceil(self.object_size)
            .min(self.num_objects);
        // First object whose first byte is >= unit_end.
        let last = unit_end
            .saturating_sub(self.base_offset)
            .div_ceil(self.object_size)
            .min(self.num_objects);
        first..last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_168_particles_fill_four_4k_pages() {
        // Section 2.1: 168 particles of 96 bytes occupy four 4 KB pages, 42 per page.
        let layout = ObjectLayout::new(168, 96);
        assert_eq!(layout.total_bytes(), 16_128);
        assert_eq!(layout.num_units(4096), 4);
        assert_eq!(layout.objects_per_unit(4096), 42);
        assert_eq!(layout.unit_of(0, 4096), 0);
        assert_eq!(layout.unit_of(41, 4096), 0);
        // Object 42 starts at byte 4032, still inside page 0, but straddles into page 1
        // (the paper's figure assumes padded, non-straddling particles; the contiguous
        // layout keeps 42 whole objects per page and one straddler).
        assert_eq!(layout.units_of(42, 4096), (0, 1));
        assert_eq!(layout.unit_of(43, 4096), 1);
        assert_eq!(layout.unit_of(167, 4096), 3);
    }

    #[test]
    fn paper_example_32k_bodies_occupy_384_8k_pages() {
        // Section 2.1: 32768 bodies collectively occupy 384 8 KB pages -> 96 B records.
        let layout = ObjectLayout::new(32_768, 96);
        assert_eq!(layout.num_units(8192), 384);
    }

    #[test]
    fn objects_in_unit_inverts_unit_of() {
        let layout = ObjectLayout::new(1000, 72);
        for unit in 0..layout.num_units(4096) {
            for obj in layout.objects_in_unit(unit, 4096) {
                assert_eq!(layout.unit_of(obj, 4096), unit);
            }
        }
        // Every object appears in exactly one unit's range.
        let total: usize =
            (0..layout.num_units(4096)).map(|u| layout.objects_in_unit(u, 4096).len()).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn straddling_objects_report_both_units() {
        // 680-byte molecules (Water-Spatial) regularly straddle 128-byte lines.
        let layout = ObjectLayout::new(10, 680);
        let (first, last) = layout.units_of(1, 128);
        assert_eq!(first, 680 / 128);
        assert_eq!(last, (2 * 680 - 1) / 128);
        assert!(last > first);
        assert_eq!(layout.objects_per_unit(128), 0);
    }

    #[test]
    fn base_offset_shifts_every_address() {
        let a = ObjectLayout::new(100, 64);
        let b = ObjectLayout::with_offset(100, 64, 32);
        assert_eq!(b.first_byte(0), 32);
        assert_eq!(b.first_byte(10), a.first_byte(10) + 32);
        // With a half-line offset, objects 0 and 1 share line 0.
        assert_eq!(b.unit_of(0, 128), 0);
        assert_eq!(b.unit_of(1, 128), 0);
        assert_eq!(b.unit_of(2, 128), 1);
    }

    #[test]
    fn empty_layout_has_no_units() {
        let layout = ObjectLayout::new(0, 96);
        assert_eq!(layout.num_units(4096), 0);
        assert_eq!(layout.objects_in_unit(0, 4096), 0..0);
    }

    #[test]
    #[should_panic(expected = "object_size must be positive")]
    fn zero_object_size_panics() {
        ObjectLayout::new(10, 0);
    }
}
