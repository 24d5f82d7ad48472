//! Set-associative cache simulator with LRU replacement.
//!
//! Models one level of cache (the Origin 2000's unified 8 MB L2 in the paper's setup).
//! The model is trace-driven and only tracks tags, not data: an access either hits or
//! misses, and a miss fills the line, evicting the least recently used line of its set.
//! Writes are write-allocate (a write miss also fills the line), matching the R12000's
//! behaviour and the assumption behind the paper's miss counts.

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Associativity (ways per set). `1` = direct mapped.
    pub associativity: usize,
}

impl CacheConfig {
    /// Create a configuration, checking that the geometry is consistent.
    ///
    /// # Panics
    /// Panics if any parameter is zero, if `capacity` is not a multiple of
    /// `line_bytes * associativity`, or if the resulting number of sets is not a power
    /// of two (a power-of-two set count keeps the index computation honest).
    pub fn new(capacity_bytes: usize, line_bytes: usize, associativity: usize) -> Self {
        assert!(capacity_bytes > 0 && line_bytes > 0 && associativity > 0);
        assert!(
            capacity_bytes.is_multiple_of(line_bytes * associativity),
            "capacity must be a whole number of sets"
        );
        let sets = capacity_bytes / (line_bytes * associativity);
        assert!(sets.is_power_of_two(), "number of sets ({sets}) must be a power of two");
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        CacheConfig { capacity_bytes, line_bytes, associativity }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.capacity_bytes / (self.line_bytes * self.associativity)
    }

    /// Number of lines the cache holds in total.
    pub fn num_lines(&self) -> usize {
        self.capacity_bytes / self.line_bytes
    }
}

/// Hit/miss counters accumulated by a [`Cache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses observed.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed (cold, capacity or conflict).
    pub misses: u64,
    /// Misses caused by an external invalidation (set by the coherence layer, not by
    /// the cache itself).
    pub coherence_misses: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]`; zero when no accesses were observed.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Merge another processor's counters into this one (used for machine-wide totals).
    pub fn merge(&mut self, other: &CacheStats) {
        self.accesses += other.accesses;
        self.hits += other.hits;
        self.misses += other.misses;
        self.coherence_misses += other.coherence_misses;
    }
}

/// Tag value marking an empty (or invalidated) way.
const EMPTY: u32 = u32::MAX;

/// Way storage, picked per cache geometry.
///
/// Line numbers are stored as `u32`: the simulated address space is a contiguous
/// object array, far below the 512 GB (`2^32` lines of 128 bytes) this can express.
#[derive(Debug, Clone)]
enum WayStore {
    /// Two-way sets (every cache in the paper's machines): each set is
    /// `[mru_tag, lru_tag]` packed into 8 bytes.  Recency is positional — a hit on
    /// the LRU way swaps the pair in a register — so no timestamps are needed, and
    /// the per-set footprint is half the stamped representation's (the replay loop is
    /// memory-latency bound on this array).  [`EMPTY`] tags compact to the suffix.
    Paired(Vec<[u32; 2]>),
    /// Any other associativity: `(tag, last-touch stamp)` per way,
    /// `ways[set * associativity + way]`, with a per-cache generation counter.  A hit
    /// stamps one way; a miss evicts the minimum-stamp way.  Stamps are unique, so
    /// replacement matches the classic move-to-front list without its per-access
    /// `Vec::remove`/`insert` shuffles.
    Stamped { ways: Vec<(u32, u32)>, generation: u32 },
}

/// A set-associative LRU cache over byte addresses.
///
/// Exact LRU, in whichever representation is fastest for the geometry (see
/// `WayStore`); replacement decisions are bit-identical to the classic
/// most-recently-used-first list the reference simulator keeps.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `num_sets - 1`; set index = `line & set_mask` (power-of-two set count).
    set_mask: usize,
    store: WayStore,
    stats: CacheStats,
}

impl Cache {
    /// Create an empty (all-cold) cache.
    pub fn new(config: CacheConfig) -> Self {
        let store = if config.associativity == 2 {
            WayStore::Paired(vec![[EMPTY; 2]; config.num_sets()])
        } else {
            WayStore::Stamped { ways: vec![(EMPTY, 0); config.num_lines()], generation: 0 }
        };
        Cache { config, set_mask: config.num_sets() - 1, store, stats: CacheStats::default() }
    }

    /// Remap all stamps to their rank among live stamps, preserving the exact
    /// recency order while freeing the top of the `u32` stamp range.  Runs once per
    /// ~4 billion accesses, so the amortized cost is zero.
    #[cold]
    fn renormalize_stamps(&mut self) {
        let WayStore::Stamped { ways, generation } = &mut self.store else {
            return;
        };
        let mut live: Vec<u32> =
            ways.iter().filter(|&&(tag, _)| tag != EMPTY).map(|&(_, stamp)| stamp).collect();
        live.sort_unstable();
        for way in ways.iter_mut() {
            if way.0 != EMPTY {
                // Ranks start at 1 so stamp 0 stays "older than everything live".
                way.1 = live.partition_point(|&s| s < way.1) as u32 + 1;
            }
        }
        *generation = live.len() as u32 + 1;
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        // `accesses` is the hits + misses identity, so the hot path does not maintain
        // a third counter.
        CacheStats { accesses: self.stats.hits + self.stats.misses, ..self.stats }
    }

    /// Line index (line number in the whole address space) of a byte address.
    #[inline]
    fn line_of(&self, addr: usize) -> u64 {
        (addr / self.config.line_bytes) as u64
    }

    /// Index of `line`'s set.
    #[inline]
    fn set_index(&self, line: u64) -> usize {
        line as usize & self.set_mask
    }

    /// Access the byte at `addr`; returns `true` on a hit.  A miss fills the line.
    pub fn access(&mut self, addr: usize) -> bool {
        let line = self.line_of(addr);
        self.access_line(line)
    }

    /// Access a whole line by line number; returns `true` on a hit.
    pub fn access_line(&mut self, line: u64) -> bool {
        self.access_line_evicting(line).0
    }

    /// Access a whole line by line number; returns `(hit, evicted)` where `evicted` is
    /// the line that was displaced to make room (misses in a full set only).  The
    /// coherence directory uses the eviction report to keep its sharer bitmasks an
    /// exact mirror of the cache contents.
    #[inline(always)]
    pub fn access_line_evicting(&mut self, line: u64) -> (bool, Option<u64>) {
        assert!(line < u64::from(EMPTY), "line number exceeds the u32 tag range");
        let set_index = self.set_index(line);
        let line = line as u32;
        match &mut self.store {
            WayStore::Paired(sets) => {
                let set = &mut sets[set_index];
                let [t0, t1] = *set;
                if t0 == line {
                    self.stats.hits += 1;
                    return (true, None);
                }
                if t1 == line {
                    // Hit on the LRU way: the positional update is one register swap.
                    *set = [t1, t0];
                    self.stats.hits += 1;
                    return (true, None);
                }
                // Miss: the new line becomes MRU; the displaced LRU way (EMPTY ways
                // compact to the suffix, so `t1` is empty whenever a free way exists)
                // is evicted if the set was full.
                let evicted = (t1 != EMPTY).then(|| u64::from(t1));
                *set = [line, t0];
                self.stats.misses += 1;
                (false, evicted)
            }
            WayStore::Stamped { ways, generation } => {
                if *generation == u32::MAX {
                    self.renormalize_stamps();
                    return self.access_line_evicting(u64::from(line));
                }
                *generation += 1;
                let stamp = *generation;
                let base = set_index * self.config.associativity;
                let set = &mut ways[base..base + self.config.associativity];
                // Hit path first, a bare tag-compare scan with no victim bookkeeping.
                if let Some(way) = set.iter_mut().find(|way| way.0 == line) {
                    way.1 = stamp;
                    self.stats.hits += 1;
                    return (true, None);
                }
                (false, self.fill_line(base, line))
            }
        }
    }

    /// The miss path of [`Cache::access_line_evicting`] for stamped sets, kept out of
    /// line so the replay loop only inlines the hit scan: pick a victim way, fill it,
    /// and report the eviction.
    #[inline(never)]
    fn fill_line(&mut self, base: usize, line: u32) -> Option<u64> {
        let WayStore::Stamped { ways, generation } = &mut self.store else {
            unreachable!("fill_line is only called for stamped sets");
        };
        let set = &mut ways[base..base + self.config.associativity];
        // Fill an empty way if one exists (matching the grow-before-evict behaviour
        // of a positional LRU list), else evict the minimum-stamp (least recently
        // used) way.
        let mut victim = 0usize;
        let mut victim_stamp = u32::MAX;
        for (w, &(tag, stamp)) in set.iter().enumerate() {
            if tag == EMPTY {
                victim = w;
                break;
            }
            if stamp < victim_stamp {
                victim_stamp = stamp;
                victim = w;
            }
        }
        let evicted = if set[victim].0 == EMPTY { None } else { Some(u64::from(set[victim].0)) };
        set[victim] = (line, *generation);
        self.stats.misses += 1;
        evicted
    }

    /// Invalidate a line if present (called by the coherence layer when another
    /// processor writes the line).  Returns `true` if the line was resident.
    pub fn invalidate_line(&mut self, line: u64) -> bool {
        if line >= u64::from(EMPTY) {
            return false;
        }
        let set_index = self.set_index(line);
        let line = line as u32;
        match &mut self.store {
            WayStore::Paired(sets) => {
                let set = &mut sets[set_index];
                let [t0, t1] = *set;
                if t0 == line {
                    // Keep EMPTY ways compacted to the suffix.
                    *set = [t1, EMPTY];
                    true
                } else if t1 == line {
                    set[1] = EMPTY;
                    true
                } else {
                    false
                }
            }
            WayStore::Stamped { ways, .. } => {
                let base = set_index * self.config.associativity;
                let set = &mut ways[base..base + self.config.associativity];
                if let Some(way) = set.iter_mut().find(|way| way.0 == line) {
                    *way = (EMPTY, 0);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Record that a miss was caused by coherence (invalidation) rather than
    /// capacity/cold; bookkeeping used by [`crate::coherence::MultiprocessorSim`].
    pub fn note_coherence_miss(&mut self) {
        self.stats.coherence_misses += 1;
    }

    /// Whether a line is currently resident (does not update LRU or counters).
    pub fn contains_line(&self, line: u64) -> bool {
        if line >= u64::from(EMPTY) {
            return false;
        }
        let set_index = self.set_index(line);
        let line = line as u32;
        match &self.store {
            WayStore::Paired(sets) => sets[set_index].contains(&line),
            WayStore::Stamped { ways, .. } => {
                let base = set_index * self.config.associativity;
                ways[base..base + self.config.associativity].iter().any(|&(tag, _)| tag == line)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheConfig {
        // 4 sets x 2 ways x 64-byte lines = 512 bytes.
        CacheConfig::new(512, 64, 2)
    }

    #[test]
    fn geometry_is_computed_correctly() {
        let c = tiny();
        assert_eq!(c.num_sets(), 4);
        assert_eq!(c.num_lines(), 8);
        let origin = CacheConfig::new(8 << 20, 128, 2);
        assert_eq!(origin.num_lines(), 65536);
    }

    #[test]
    fn repeated_access_hits_after_cold_miss() {
        let mut cache = Cache::new(tiny());
        assert!(!cache.access(0));
        assert!(cache.access(0));
        assert!(cache.access(63)); // same line
        assert!(!cache.access(64)); // next line
        let s = cache.stats();
        assert_eq!(s.accesses, 4);
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 2);
    }

    #[test]
    fn lru_evicts_least_recently_used_way() {
        let mut cache = Cache::new(tiny());
        // Three lines mapping to the same set (set index = line & 3): lines 0, 4, 8.
        assert!(!cache.access_line(0));
        assert!(!cache.access_line(4));
        // Touch line 0 again so line 4 becomes LRU.
        assert!(cache.access_line(0));
        // Line 8 evicts line 4, not line 0.
        assert!(!cache.access_line(8));
        assert!(cache.contains_line(0));
        assert!(!cache.contains_line(4));
        assert!(cache.access_line(0));
    }

    #[test]
    fn sequential_scan_of_working_set_larger_than_cache_always_misses_on_revisit() {
        let mut cache = Cache::new(tiny());
        // 16 distinct lines > 8-line capacity; two passes in the same order.
        for pass in 0..2 {
            for line in 0..16u64 {
                let hit = cache.access_line(line);
                if pass == 1 {
                    assert!(!hit, "LRU with a cyclic scan larger than capacity cannot hit");
                }
            }
        }
        assert_eq!(cache.stats().misses, 32);
    }

    #[test]
    fn small_working_set_fits_and_hits() {
        let mut cache = Cache::new(tiny());
        for _ in 0..10 {
            for line in 0..8u64 {
                cache.access_line(line);
            }
        }
        let s = cache.stats();
        assert_eq!(s.misses, 8, "only compulsory misses expected");
        assert_eq!(s.hits, 72);
        assert!((s.miss_ratio() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn invalidation_forces_a_re_miss() {
        let mut cache = Cache::new(tiny());
        cache.access_line(5);
        assert!(cache.access_line(5));
        assert!(cache.invalidate_line(5));
        assert!(!cache.invalidate_line(5));
        assert!(!cache.access_line(5), "invalidated line must miss again");
    }

    #[test]
    fn stats_merge_adds_componentwise() {
        let mut a = CacheStats { accesses: 10, hits: 6, misses: 4, coherence_misses: 1 };
        let b = CacheStats { accesses: 5, hits: 2, misses: 3, coherence_misses: 2 };
        a.merge(&b);
        assert_eq!(a, CacheStats { accesses: 15, hits: 8, misses: 7, coherence_misses: 3 });
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panics() {
        CacheConfig::new(3 * 64, 64, 1);
    }
}
