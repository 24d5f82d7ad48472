//! The coherence directory: one dense sharer bitmask per line of the replayed footprint.
//!
//! A real Origin 2000 keeps a directory entry per memory line recording which
//! processors hold a copy; a write consults that entry and invalidates exactly the
//! sharers.  The first version of this simulator instead answered "who holds line L?"
//! by linearly probing every other processor's cache — O(P · associativity) per write.
//! This module is the real thing: one bit per (line, processor), stored as a `u64`
//! mask per line, giving O(1) lookup and O(sharers) invalidation.
//!
//! The replayed address space is one contiguous object array, so the masks are a flat
//! vector sized once to the array's footprint in lines
//! ([`crate::coherence::MultiprocessorSim`] binds it to the layout of its first
//! replay); a line outside the footprint fails the slice bounds check.  The masks are
//! exact: where the footprint cannot overflow a cache set they *are* the caches (a
//! processor holds a line iff its bit is set), and otherwise they mirror the
//! per-processor LRU caches on every fill, eviction and invalidation.

/// Per-line sharer bitmasks over the lines `0..lines` of a footprint.
///
/// Supports up to 64 processors (one bit per processor in a `u64` mask) — four times
/// the paper's largest machine.
#[derive(Debug, Clone, Default)]
pub struct Directory {
    /// `masks[line]` — bit `p` set ⇔ processor `p` holds a copy of `line`.
    masks: Vec<u64>,
}

impl Directory {
    /// Maximum number of processors a directory mask can track.
    pub const MAX_PROCS: usize = 64;

    /// A directory for the footprint lines `0..lines`, with no sharers anywhere.
    pub fn new(lines: usize) -> Self {
        Directory { masks: vec![0; lines] }
    }

    /// The sharer bitmask of `line` (bit `p` set ⇔ processor `p` holds a copy).
    ///
    /// # Panics
    /// Panics if `line` is outside the footprint.
    #[inline]
    pub fn sharers(&self, line: u64) -> u64 {
        self.masks[line as usize]
    }

    /// The sharers of `line` other than processor `proc`.
    #[inline]
    pub fn others(&self, line: u64, proc: usize) -> u64 {
        self.sharers(line) & !(1u64 << proc)
    }

    /// Mutable access to the sharer mask of `line` — the residency-rule replay reads
    /// and rewrites a line's mask in one place.
    #[inline(always)]
    pub(crate) fn mask_mut(&mut self, line: u64) -> &mut u64 {
        &mut self.masks[line as usize]
    }

    /// Record that processor `proc` now holds a copy of `line`.
    #[inline]
    pub fn insert(&mut self, line: u64, proc: usize) {
        debug_assert!(proc < Self::MAX_PROCS);
        *self.mask_mut(line) |= 1u64 << proc;
    }

    /// Record that processor `proc` no longer holds `line` (eviction or invalidation).
    #[inline]
    pub fn remove(&mut self, line: u64, proc: usize) {
        debug_assert!(proc < Self::MAX_PROCS);
        *self.mask_mut(line) &= !(1u64 << proc);
    }

    /// Number of lines with at least one sharer (walks the masks).  Where the masks
    /// hold residency no mask returns to zero, so this is the number of lines ever
    /// touched: the misses of a 1-processor replay of the same accesses.
    pub fn tracked_lines(&self) -> usize {
        self.masks.iter().filter(|&&m| m != 0).count()
    }
}

/// Iterate the processor indices set in a sharer mask.
#[inline]
pub fn procs_in(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if mask == 0 {
            None
        } else {
            let p = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            Some(p)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_remove_round_trip() {
        let mut d = Directory::new(20_000);
        assert_eq!(d.sharers(12345), 0);
        d.insert(12345, 3);
        d.insert(12345, 7);
        assert_eq!(d.sharers(12345), (1 << 3) | (1 << 7));
        assert_eq!(d.others(12345, 3), 1 << 7);
        d.remove(12345, 3);
        assert_eq!(d.sharers(12345), 1 << 7);
        d.remove(12345, 7);
        assert_eq!(d.sharers(12345), 0);
        assert_eq!(d.tracked_lines(), 0);
    }

    #[test]
    fn lines_do_not_interfere() {
        let mut d = Directory::new(1000);
        d.insert(0, 0);
        d.insert(999, 1);
        assert_eq!(d.sharers(0), 1);
        assert_eq!(d.sharers(999), 2);
        assert_eq!(d.sharers(5), 0);
        assert_eq!(d.tracked_lines(), 2);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn a_line_outside_the_footprint_panics() {
        let mut d = Directory::new(8);
        d.insert(8, 0);
    }

    #[test]
    fn procs_in_iterates_set_bits_in_order() {
        let procs: Vec<usize> = procs_in((1 << 0) | (1 << 9) | (1 << 63)).collect();
        assert_eq!(procs, vec![0, 9, 63]);
        assert_eq!(procs_in(0).count(), 0);
    }
}
