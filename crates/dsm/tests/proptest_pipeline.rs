//! Equivalence suite for the three trace→DSM pipelines: the streaming
//! [`PageHistorySink`], the materialized [`PageWriteHistory::build`] reduction, and
//! the map-based serial executable spec in `reference/` must produce bit-identical
//! histories and [`dsm::DsmRunResult`]s for *any* program — arbitrary access
//! patterns, straddling object sizes, page sizes, processor counts, locks, and
//! partial trailing intervals.

mod reference;

use proptest::prelude::*;

use dsm::{DsmConfig, HlrcSim, PageHistorySink, PageWriteHistory, TreadMarksSim};
use smtrace::{ObjectLayout, TraceBuilder, TraceSink};

/// Object sizes covering the paper's Table 1 plus a page-straddling giant: 32 B mesh
/// nodes, 104 B bodies, 680 B molecules (straddles every page size used here), and a
/// 5000 B object larger than a 4 KB page.
const OBJECT_SIZES: [usize; 4] = [32, 104, 680, 5000];

/// Page granularities: sub-page consistency units through the DSM 4 KB page.
const PAGE_SIZES: [usize; 3] = [256, 1024, 4096];

/// One generated program: intervals of (proc, object, is_write) accesses plus
/// per-interval lock acquisitions, optionally ending in a partial (End-closed)
/// interval.
type Program = (Vec<(Vec<(usize, usize, bool)>, Vec<usize>)>, bool);

fn program() -> impl Strategy<Value = Program> {
    let access = (0usize..8, 0usize..1000, any::<bool>());
    let interval = (prop::collection::vec(access, 0..30), prop::collection::vec(0usize..8, 0..3));
    (prop::collection::vec(interval, 1..6), any::<bool>())
}

/// Drive the generated program into any sink, folding raw proc/object draws into the
/// valid ranges.
fn drive<S: TraceSink>(sink: &mut S, program: &Program, procs: usize, num_objects: usize) {
    let (intervals, final_barrier) = program;
    for (idx, (accesses, locks)) in intervals.iter().enumerate() {
        for &(p, o, write) in accesses {
            if write {
                sink.write(p % procs, o % num_objects);
            } else {
                sink.read(p % procs, o % num_objects);
            }
        }
        for &p in locks {
            sink.lock(p % procs, 0);
        }
        if idx + 1 < intervals.len() || *final_barrier {
            sink.barrier();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Streaming ≡ materialized histories, and the optimized parallel simulators over
    /// either history ≡ the map-based serial reference, for both protocols.
    #[test]
    fn streaming_materialized_and_reference_agree(
        args in (1usize..5, 0usize..4, 0usize..3, 1usize..150, program())
    ) {
        let (procs, size_idx, page_idx, num_objects, prog) = args;
        let layout = ObjectLayout::new(num_objects, OBJECT_SIZES[size_idx]);
        let page_bytes = PAGE_SIZES[page_idx];
        let config = DsmConfig::new(page_bytes, procs);

        // Drive the identical event stream into the materializing builder and the
        // streaming page-history sink.
        let mut builder = TraceBuilder::new(layout.clone(), procs);
        let mut sink = PageHistorySink::new(layout.clone(), procs, page_bytes);
        drive(&mut builder, &prog, procs, num_objects);
        drive(&mut sink, &prog, procs, num_objects);
        let trace = builder.finish();
        let streamed = sink.finish();

        let materialized = PageWriteHistory::build(&trace, &layout, page_bytes);
        prop_assert_eq!(&streamed, &materialized);

        // Both protocols: optimized pipeline over the streamed history must equal the
        // serial map-based reference re-reducing the materialized trace.
        let tmk = TreadMarksSim::new(config).run_history(&streamed);
        let tmk_ref = reference::run_treadmarks(config, &trace, &layout);
        prop_assert_eq!(tmk, tmk_ref);

        let hlrc = HlrcSim::new(config).run_history(&streamed);
        let hlrc_ref = reference::run_hlrc(config, &trace, &layout);
        prop_assert_eq!(hlrc, hlrc_ref);
    }

    /// A multi-granularity sink pass produces exactly the same histories as one
    /// materialized build per page size.
    #[test]
    fn multi_granularity_pass_agrees_with_per_granularity_builds(
        args in (1usize..5, 0usize..4, 1usize..150, program())
    ) {
        let (procs, size_idx, num_objects, prog) = args;
        let layout = ObjectLayout::new(num_objects, OBJECT_SIZES[size_idx]);
        let mut builder = TraceBuilder::new(layout.clone(), procs);
        let mut sink = PageHistorySink::with_granularities(layout.clone(), procs, &PAGE_SIZES);
        drive(&mut builder, &prog, procs, num_objects);
        drive(&mut sink, &prog, procs, num_objects);
        let trace = builder.finish();
        let streamed = sink.finish_all();
        prop_assert_eq!(streamed.len(), PAGE_SIZES.len());
        for (history, page_bytes) in streamed.iter().zip(PAGE_SIZES) {
            prop_assert_eq!(history, &PageWriteHistory::build(&trace, &layout, page_bytes));
        }
    }

    /// The accounting rules hold for arbitrary programs: per-page diff bytes of one
    /// interval never exceed the page size, and a processor's total diff bytes never
    /// exceed (distinct objects it wrote) × object size.
    #[test]
    fn diff_byte_accounting_is_exact(
        args in (1usize..5, 0usize..4, 0usize..3, 1usize..150, program())
    ) {
        let (procs, size_idx, page_idx, num_objects, prog) = args;
        let object_size = OBJECT_SIZES[size_idx];
        let layout = ObjectLayout::new(num_objects, object_size);
        let page_bytes = PAGE_SIZES[page_idx];
        let mut builder = TraceBuilder::new(layout.clone(), procs);
        drive(&mut builder, &prog, procs, num_objects);
        let trace = builder.finish();
        let history = PageWriteHistory::build(&trace, &layout, page_bytes);
        for (t, interval) in history.intervals.iter().enumerate() {
            for (p, sets) in interval.iter().enumerate() {
                let mut total_bytes = 0u64;
                for w in &sets.writes {
                    prop_assert!(
                        w.bytes <= page_bytes as u64,
                        "interval {} proc {} page {}: {} diff bytes on a {} B page",
                        t, p, w.page, w.bytes, page_bytes
                    );
                    total_bytes += w.bytes;
                }
                // Distinct written objects of this (interval, proc) from the trace.
                let mut written: Vec<u32> = trace.intervals[t].accesses[p]
                    .iter()
                    .filter(|a| a.is_write())
                    .map(|a| a.object_u32())
                    .collect();
                written.sort_unstable();
                written.dedup();
                prop_assert!(total_bytes <= written.len() as u64 * object_size as u64);
                // Reads count distinct objects, so no page reports more read objects
                // than the interval has distinct read objects.
                let mut read: Vec<u32> = trace.intervals[t].accesses[p]
                    .iter()
                    .filter(|a| !a.is_write())
                    .map(|a| a.object_u32())
                    .collect();
                read.sort_unstable();
                read.dedup();
                for r in &sets.reads {
                    prop_assert!(u64::from(r.objects) <= read.len() as u64);
                }
            }
        }
    }
}
