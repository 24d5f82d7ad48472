//! TLB simulator: a fully-associative, LRU translation buffer over pages.
//!
//! Table 2 of the paper shows that on a *single* processor the dominant effect of
//! Hilbert reordering for Barnes-Hut and FMM is a roughly order-of-magnitude drop in
//! TLB misses (e.g. 50 041 379 → 5 469 307 for Barnes-Hut): once particles that are
//! accessed together live on the same pages, the 16 KB-page working set shrinks below
//! the TLB reach.  This model reproduces that counter.

/// Geometry of a TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of entries (translations) the TLB holds.
    pub entries: usize,
    /// Page size in bytes.
    pub page_bytes: usize,
}

impl TlbConfig {
    /// Create a TLB configuration.
    ///
    /// # Panics
    /// Panics if either parameter is zero.
    pub fn new(entries: usize, page_bytes: usize) -> Self {
        assert!(entries > 0, "TLB must have at least one entry");
        assert!(page_bytes > 0, "page size must be positive");
        TlbConfig { entries, page_bytes }
    }

    /// Memory reach of the TLB in bytes (`entries * page_bytes`).
    pub fn reach_bytes(&self) -> usize {
        self.entries * self.page_bytes
    }
}

/// Hit/miss counters accumulated by a [`Tlb`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Total translations requested.
    pub accesses: u64,
    /// Translations found in the TLB.
    pub hits: u64,
    /// Translations that missed (page-table walk required).
    pub misses: u64,
}

impl TlbStats {
    /// Miss ratio in `[0, 1]`.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Merge another processor's counters into this one.
    pub fn merge(&mut self, other: &TlbStats) {
        self.accesses += other.accesses;
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// "No slot" in the page index, and "no page" in an empty slot.
const NONE: u32 = u32::MAX;

/// The recency list's sentinel slot: its `next` is the MRU slot, its `prev` the LRU.
const SENTINEL: usize = 0;

/// One TLB slot: the resident page plus its recency-list links (12 bytes).
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Resident page number ([`NONE`] while the slot is empty).
    page: u32,
    /// Neighbouring slots in the circular recency list (`prev` towards MRU, `next`
    /// towards LRU).
    prev: u32,
    next: u32,
}

/// Translation state, picked per (TLB geometry, footprint).
#[derive(Debug, Clone)]
enum Store {
    /// The footprint spans no more pages than the TLB has entries, so nothing is ever
    /// evicted: a translation misses iff it is the first of its page, and recency never
    /// decides anything.  `touched[page]` records the first translation.
    FirstTouch(Vec<bool>),
    /// The footprint can overflow the TLB: exact O(1) LRU.
    Lru(Lru),
}

/// The textbook O(1) LRU: a dense page → slot index (page numbers index a contiguous
/// shared object array, so the map is a flat vector sized to the footprint) plus an
/// intrusive circular doubly-linked recency list over the slots.
///
/// The list always holds every slot: empty slots start in it holding no page, so they
/// are evicted first, in order, exactly as a warming list fills.  With no empty-list
/// or end-of-list cases, a hit and a miss run the same stores, with no branch between
/// them.
#[derive(Debug, Clone)]
struct Lru {
    /// Slot 0 is the [`SENTINEL`]; slots `1..=entries` hold pages.
    slots: Vec<Slot>,
    /// `slot_of[page] == s` ⇔ slot `s` holds `page` ([`NONE`] = absent).
    slot_of: Vec<u32>,
}

impl Lru {
    fn new(entries: usize, pages: usize) -> Self {
        assert!(pages < NONE as usize, "page numbers must fit below u32::MAX");
        let n = entries + 1;
        // The circular list S → 1 → 2 → … → entries → S.
        let slots = (0..n)
            .map(|s| Slot {
                page: NONE,
                prev: ((s + n - 1) % n) as u32,
                next: ((s + 1) % n) as u32,
            })
            .collect();
        Lru { slots, slot_of: vec![NONE; pages] }
    }

    /// Translate `page`; returns `true` on a hit.  A hit moves its slot to the front;
    /// a miss refills the LRU slot and moves that to the front.  Both are the same
    /// stores, selected rather than branched on (moving the head is a no-op).
    #[inline(always)]
    fn access(&mut self, page: u64) -> bool {
        let resident = self.slot_of[page as usize];
        let page = page as u32;
        let hit = resident != NONE;
        let slot = if hit { resident } else { self.slots[SENTINEL].prev };
        // On a hit `old == page` and the two stores leave `slot_of[page]` as it was;
        // an empty slot's `old` has no entry.
        let old = self.slots[slot as usize].page;
        if let Some(entry) = self.slot_of.get_mut(old as usize) {
            *entry = NONE;
        }
        self.slot_of[page as usize] = slot;
        let slot = slot as usize;
        self.slots[slot].page = page;
        // Unlink `slot` and relink it after the sentinel (a no-op move for the head).
        let Slot { prev, next, .. } = self.slots[slot];
        self.slots[prev as usize].next = next;
        self.slots[next as usize].prev = prev;
        let head = self.slots[SENTINEL].next;
        self.slots[slot].prev = SENTINEL as u32;
        self.slots[slot].next = head;
        self.slots[head as usize].prev = slot as u32;
        self.slots[SENTINEL].next = slot as u32;
        hit
    }
}

/// A fully-associative, exact-LRU TLB over the pages `0..pages` of a footprint.
///
/// Real R12000 TLBs are 64-entry, fully associative with paired entries; full
/// associativity with plain LRU is the standard modelling simplification and is exact
/// for the question the paper asks (how many distinct pages does the access stream
/// cycle through).  The TLB is sized to its footprint when built: if the footprint
/// fits in the entries it keeps only one first-touch flag per page, otherwise an O(1)
/// LRU (the first version kept a move-to-front `Vec` — an O(entries) scan plus a
/// memmove on every translation).  Both give the counters of the move-to-front list;
/// a page outside the footprint fails the bounds check.
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    store: Store,
    stats: TlbStats,
}

impl Tlb {
    /// Create an empty TLB that will translate the pages `0..pages`.
    pub fn new(config: TlbConfig, pages: usize) -> Self {
        let store = if pages <= config.entries {
            Store::FirstTouch(vec![false; pages])
        } else {
            Store::Lru(Lru::new(config.entries, pages))
        };
        Tlb { config, store, stats: TlbStats::default() }
    }

    /// The TLB geometry.
    pub fn config(&self) -> TlbConfig {
        self.config
    }

    /// Whether the footprint fits in the entries, so that no translation ever evicts.
    #[cfg(test)]
    fn never_evicts(&self) -> bool {
        matches!(self.store, Store::FirstTouch(_))
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TlbStats {
        // `accesses` is the hits + misses identity, so the hot path does not maintain
        // a third counter.
        TlbStats { accesses: self.stats.hits + self.stats.misses, ..self.stats }
    }

    /// Translate the byte address `addr`; returns `true` on a TLB hit.
    pub fn access(&mut self, addr: usize) -> bool {
        let page = (addr / self.config.page_bytes) as u64;
        self.access_page(page)
    }

    /// Translate a page by page number; returns `true` on a TLB hit.
    ///
    /// # Panics
    /// Panics if `page` is outside the footprint the TLB was built for.
    pub fn access_page(&mut self, page: u64) -> bool {
        let misses = self.stats.misses;
        self.translate_spans([(page, page)]);
        self.stats.misses == misses
    }

    /// Translate one processor's object accesses in program order: `spans` yields the
    /// first and last page of each access, and the last page is translated too when it
    /// differs.  The store is picked once and the counters stay in registers for the
    /// whole stream.
    ///
    /// # Panics
    /// Panics if a page is outside the footprint the TLB was built for.
    #[inline]
    pub fn translate_spans(&mut self, spans: impl IntoIterator<Item = (u64, u64)>) {
        let [hits] = match &mut self.store {
            Store::FirstTouch(touched) => tally(spans, |page| [first_touch(touched, page)]),
            Store::Lru(lru) => tally(spans, |page| [lru.access(page)]),
        };
        self.stats.add(hits);
    }

    /// Translate the same spans through this TLB and `other` in one pass: the
    /// counters of calling [`Tlb::translate_spans`] on each.  Both see the same pages,
    /// so a repeat of the page just translated is a hit in both, decided once.
    ///
    /// # Panics
    /// Panics if a page is outside the footprint either TLB was built for.
    #[inline]
    pub fn translate_spans_with(
        &mut self,
        other: &mut Tlb,
        spans: impl IntoIterator<Item = (u64, u64)>,
    ) {
        let [hits, other_hits] = match (&mut self.store, &mut other.store) {
            (Store::FirstTouch(a), Store::FirstTouch(b)) => {
                tally(spans, |page| [first_touch(a, page), first_touch(b, page)])
            }
            (Store::FirstTouch(a), Store::Lru(b)) => {
                tally(spans, |page| [first_touch(a, page), b.access(page)])
            }
            (Store::Lru(a), Store::FirstTouch(b)) => {
                tally(spans, |page| [a.access(page), first_touch(b, page)])
            }
            (Store::Lru(a), Store::Lru(b)) => tally(spans, |page| [a.access(page), b.access(page)]),
        };
        self.stats.add(hits);
        other.stats.add(other_hits);
    }
}

impl TlbStats {
    /// Count a run of translations, `(hits, misses)`.
    #[inline(always)]
    fn add(&mut self, (hits, misses): (u64, u64)) {
        self.hits += hits;
        self.misses += misses;
    }
}

/// A first-touch translation: a hit iff `page` was translated before.  Only the first
/// translation stores, so a run of one page costs a load per access.
#[inline(always)]
fn first_touch(touched: &mut [bool], page: u64) -> bool {
    let touched = &mut touched[page as usize];
    if *touched {
        return true;
    }
    *touched = true;
    false
}

/// Run `translate` over the pages of `spans` (see [`Tlb::translate_spans`]) for `N`
/// TLBs at once, returning each one's (hits, misses).
///
/// The page just translated is always the most recently used one and is resident in
/// every store, so a repeat of it — consecutive objects on one page, the common case
/// once data is reordered — is a hit decided in a register, without calling
/// `translate` or touching memory.
#[inline(always)]
fn tally<const N: usize>(
    spans: impl IntoIterator<Item = (u64, u64)>,
    mut translate: impl FnMut(u64) -> [bool; N],
) -> [(u64, u64); N] {
    let (mut hits, mut repeats, mut translations) = ([0u64; N], 0u64, 0u64);
    let mut mru = None;
    let mut visit = |page: u64| {
        translations += 1;
        if mru == Some(page) {
            repeats += 1;
        } else {
            for (hits, hit) in hits.iter_mut().zip(translate(page)) {
                *hits += u64::from(hit);
            }
            mru = Some(page);
        }
    };
    for (first, last) in spans {
        visit(first);
        if last != first {
            visit(last);
        }
    }
    hits.map(|hits| (hits + repeats, translations - hits - repeats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reach_is_entries_times_page_size() {
        let c = TlbConfig::new(64, 16 * 1024);
        assert_eq!(c.reach_bytes(), 1 << 20);
    }

    #[test]
    fn working_set_within_reach_only_takes_compulsory_misses() {
        let mut tlb = Tlb::new(TlbConfig::new(8, 4096), 8);
        assert!(tlb.never_evicts());
        for _ in 0..5 {
            for page in 0..8u64 {
                tlb.access_page(page);
            }
        }
        assert_eq!(tlb.stats().misses, 8);
        assert_eq!(tlb.stats().hits, 32);
    }

    #[test]
    fn cyclic_scan_beyond_reach_thrashes() {
        let mut tlb = Tlb::new(TlbConfig::new(8, 4096), 16);
        assert!(!tlb.never_evicts());
        for _ in 0..3 {
            for page in 0..16u64 {
                tlb.access_page(page);
            }
        }
        // LRU + cyclic over-capacity scan: every access misses.
        assert_eq!(tlb.stats().misses, 48);
        assert_eq!(tlb.stats().hits, 0);
        assert!((tlb.stats().miss_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn address_and_page_interfaces_agree() {
        let mut a = Tlb::new(TlbConfig::new(4, 4096), 31);
        let mut b = Tlb::new(TlbConfig::new(4, 4096), 31);
        let addrs = [0usize, 5000, 4095, 20_000, 4096, 123_456];
        for &addr in &addrs {
            assert_eq!(a.access(addr), b.access_page((addr / 4096) as u64));
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn first_touch_and_lru_agree_when_the_footprint_fits() {
        // The same stream over pages 0..8 on an 8-entry TLB, once bound to exactly
        // those pages (first-touch flags) and once to a ninth, never-touched page
        // (the LRU store): nothing is evicted, so the counters agree.
        let config = TlbConfig::new(8, 4096);
        let mut first_touch = Tlb::new(config, 8);
        let mut lru = Tlb::new(config, 9);
        assert!(first_touch.never_evicts() && !lru.never_evicts());
        for i in 0..200u64 {
            let page = (i * 5 + i / 7) % 8;
            assert_eq!(first_touch.access_page(page), lru.access_page(page));
        }
        assert_eq!(first_touch.stats(), lru.stats());
        assert_eq!(first_touch.stats().misses, 8);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn a_page_outside_the_footprint_panics() {
        Tlb::new(TlbConfig::new(8, 4096), 4).access_page(4);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn a_page_outside_an_lru_footprint_panics() {
        let mut tlb = Tlb::new(TlbConfig::new(2, 4096), 4);
        tlb.access_page(3);
        tlb.access_page(4);
    }

    #[test]
    fn locality_reduces_tlb_misses() {
        // The core claim of Table 2, in miniature: the same multiset of accesses,
        // visited in a scattered order versus a page-grouped order, produces an
        // order-of-magnitude difference in TLB misses.
        let pages = 64u64;
        let per_page = 16u64;
        let mut scattered = Tlb::new(TlbConfig::new(8, 4096), 64);
        let mut grouped = Tlb::new(TlbConfig::new(8, 4096), 64);
        // Scattered: round-robin over pages.
        for rep in 0..per_page {
            for page in 0..pages {
                let _ = rep;
                scattered.access_page(page);
            }
        }
        // Grouped: all accesses to a page together.
        for page in 0..pages {
            for _ in 0..per_page {
                grouped.access_page(page);
            }
        }
        assert_eq!(scattered.stats().accesses, grouped.stats().accesses);
        assert!(grouped.stats().misses * 8 <= scattered.stats().misses);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_panics() {
        TlbConfig::new(0, 4096);
    }
}
