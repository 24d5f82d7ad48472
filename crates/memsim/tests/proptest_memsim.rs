//! Property-based tests for the hardware shared-memory simulator: cache/TLB accounting
//! identities and locality monotonicity that must hold for arbitrary access streams.

use proptest::prelude::*;

use memsim::{Cache, CacheConfig, MultiprocessorSim, Tlb, TlbConfig};
use smtrace::{ObjectLayout, TraceBuilder};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hits + misses always equals accesses, and the hit count never exceeds what an
    /// infinite cache would achieve (accesses minus distinct lines).
    #[test]
    fn cache_accounting_identities(lines in prop::collection::vec(0u64..64, 1..500)) {
        let mut cache = Cache::new(CacheConfig::new(2048, 64, 2));
        for &l in &lines {
            cache.access_line(l);
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.accesses, lines.len() as u64);
        prop_assert_eq!(stats.hits + stats.misses, stats.accesses);
        let distinct = lines.iter().collect::<std::collections::BTreeSet<_>>().len() as u64;
        prop_assert!(stats.misses >= distinct, "at least one compulsory miss per line");
        prop_assert!(stats.hits <= stats.accesses - distinct);
    }

    /// The LRU stack (inclusion) property: for a fully-associative LRU cache, a larger
    /// capacity never produces more misses on the same access stream.
    #[test]
    fn larger_lru_cache_never_misses_more(lines in prop::collection::vec(0u64..128, 1..400)) {
        let mut small = Cache::new(CacheConfig::new(16 * 64, 64, 16));
        let mut large = Cache::new(CacheConfig::new(64 * 64, 64, 64));
        for &l in &lines {
            small.access_line(l);
            large.access_line(l);
        }
        prop_assert!(large.stats().misses <= small.stats().misses);
    }

    /// TLB accounting identities mirror the cache's.
    #[test]
    fn tlb_accounting_identities(pages in prop::collection::vec(0u64..32, 1..400)) {
        let mut tlb = Tlb::new(TlbConfig::new(8, 4096), 32);
        for &p in &pages {
            tlb.access_page(p);
        }
        let stats = tlb.stats();
        prop_assert_eq!(stats.hits + stats.misses, stats.accesses);
        let distinct = pages.iter().collect::<std::collections::BTreeSet<_>>().len() as u64;
        prop_assert!(stats.misses >= distinct);
    }

    /// Replaying a trace through the multiprocessor simulator touches exactly the
    /// recorded number of accesses, and coherence misses never exceed total misses.
    #[test]
    fn multiprocessor_counters_are_consistent(
        accesses in prop::collection::vec((0usize..4, 0usize..256, any::<bool>()), 1..600),
    ) {
        let layout = ObjectLayout::new(256, 64);
        let mut b = TraceBuilder::new(layout, 4);
        for (i, &(p, o, w)) in accesses.iter().enumerate() {
            if w {
                b.write(p, o);
            } else {
                b.read(p, o);
            }
            if i % 50 == 49 {
                b.barrier();
            }
        }
        b.barrier();
        let trace = b.finish();
        let mut machine = MultiprocessorSim::new(
            4,
            CacheConfig::new(8192, 64, 2),
            TlbConfig::new(8, 4096),
        );
        let result = machine.run_trace(&trace);
        prop_assert_eq!(result.totals().accesses, accesses.len() as u64);
        prop_assert!(result.coherence_misses() <= result.l2_misses());
        for p in &result.per_proc {
            prop_assert_eq!(p.cache.hits + p.cache.misses, p.cache.accesses);
        }
    }

    /// Grouping a processor's accesses by object (better locality, same multiset) never
    /// increases its TLB misses — the single-processor mechanism behind Table 2.
    #[test]
    fn grouped_access_order_never_increases_tlb_misses(
        objects in prop::collection::vec(0usize..512, 50..400),
    ) {
        let layout = ObjectLayout::new(512, 96);
        let build = |order: &[usize]| {
            let mut b = TraceBuilder::new(layout.clone(), 1);
            for &o in order {
                b.read(0, o);
            }
            b.barrier();
            b.finish()
        };
        let scattered = build(&objects);
        let mut grouped_order = objects.clone();
        grouped_order.sort_unstable();
        let grouped = build(&grouped_order);
        let run = |trace| {
            let mut m = MultiprocessorSim::new(
                1,
                CacheConfig::new(16 * 1024, 128, 2),
                TlbConfig::new(4, 4096),
            );
            m.run_trace(&trace).tlb_misses()
        };
        prop_assert!(run(grouped) <= run(scattered));
    }
}
