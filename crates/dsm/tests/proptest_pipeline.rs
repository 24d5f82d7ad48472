//! Equivalence suite for the three trace→DSM pipelines: the streaming
//! [`PageHistorySink`], the materialized [`PageWriteHistory::build`] reduction, and
//! the map-based serial executable spec in `reference/` must produce bit-identical
//! histories and [`dsm::DsmRunResult`]s for *any* program — arbitrary access
//! patterns, straddling object sizes, page sizes, processor counts, empty intervals,
//! object ids beyond the layout, and single accesses, batches and long runs of one
//! object appended to a processor's shard in any mix.

mod reference;

use proptest::prelude::*;

use dsm::{DsmConfig, HlrcSim, PageHistorySink, PageWriteHistory, TreadMarksSim};
use reference::{RefIntervalPageSets, RefPageHistory};
use smtrace::{ObjectLayout, ProgramTrace, ShardSet, TraceBuilder, TraceSink};

/// Object sizes covering the paper's Table 1 plus a page-straddling giant: 32 B mesh
/// nodes, 104 B bodies, 680 B molecules (straddles every page size used here), and a
/// 5000 B object larger than a 4 KB page.
const OBJECT_SIZES: [usize; 4] = [32, 104, 680, 5000];

/// Page granularities: sub-page consistency units through the DSM 4 KB page.
const PAGE_SIZES: [usize; 3] = [256, 1024, 4096];

/// One generated program: intervals of (proc, object, is_write) accesses.
type Program = Vec<Vec<(usize, usize, bool)>>;

fn program() -> impl Strategy<Value = Program> {
    let access = (0usize..8, 0usize..1000, any::<bool>());
    prop::collection::vec(prop::collection::vec(access, 0..30), 1..6)
}

/// Record the generated program access by access into a builder, folding raw
/// proc/object draws into the valid ranges.
fn record(builder: &mut TraceBuilder, program: &Program, procs: usize, num_objects: usize) {
    for accesses in program {
        for &(p, o, write) in accesses {
            if write {
                builder.write(p % procs, o % num_objects);
            } else {
                builder.read(p % procs, o % num_objects);
            }
        }
        builder.barrier();
    }
}

/// Stream the same program into any sink through a `ShardSet`, one drain per
/// interval, as the applications do.
fn drive<S: TraceSink>(sink: &mut S, program: &Program, procs: usize, num_objects: usize) {
    let mut shards = ShardSet::new(procs);
    for accesses in program {
        for &(p, o, write) in accesses {
            let shard = shards.shard_mut(p % procs);
            if write {
                shard.write(o % num_objects);
            } else {
                shard.read(o % num_objects);
            }
        }
        shards.drain_interval(sink);
    }
}

/// The unit-size ablation's consistency-unit ladder, in bytes: the granularities one
/// multi-granularity pass reduces at in the paper sweep.
const UNIT_SWEEP_BYTES: [usize; 6] = [128, 512, 1024, 4096, 8192, 16384];

/// One event of a [`SinkProgram`] interval.  Object ids are folded into
/// [`object_id_span`], so in release builds some land at or beyond the end of the
/// layout.
#[derive(Debug, Clone)]
enum SinkOp {
    /// One access.
    Record(usize, usize, bool),
    /// A batch of (object, is_write) accesses by one processor.
    Many(usize, Vec<(usize, bool)>),
    /// `count` consecutive accesses of one object (heavy re-reads or re-writes).
    Hot(usize, usize, bool, usize),
}

/// Intervals of [`SinkOp`]s, empty intervals included.
type SinkProgram = Vec<Vec<SinkOp>>;

fn sink_program() -> impl Strategy<Value = SinkProgram> {
    let batch = prop::collection::vec((0usize..1000, any::<bool>()), 0..12);
    let op = ((0usize..3, 0usize..8), 0usize..1000, any::<bool>(), batch, 1usize..60).prop_map(
        |((kind, p), o, w, batch, count)| match kind {
            0 => SinkOp::Record(p, o, w),
            1 => SinkOp::Many(p, batch),
            _ => SinkOp::Hot(p, o, w, count),
        },
    );
    // One interval in three is empty.
    let interval = (0usize..3, prop::collection::vec(op, 1..16)).prop_map(|(kind, ops)| {
        if kind == 0 {
            Vec::new()
        } else {
            ops
        }
    });
    prop::collection::vec(interval, 1..7)
}

/// The range object ids are drawn from.  `ObjectLayout` debug-asserts that an object
/// lies inside the array, so under debug assertions every reduction (the reference
/// included) rejects ids beyond the layout, and ids stay in range.  In release builds
/// 40 ids past the end are drawn as well: their pages past the last page are dropped,
/// and one that lands on the last page still counts there.
fn object_id_span(num_objects: usize) -> usize {
    if cfg!(debug_assertions) {
        num_objects
    } else {
        num_objects + 40
    }
}

/// Drive a [`SinkProgram`] into any sink through a `ShardSet`, one drain per interval.
fn drive_ops<S: TraceSink>(sink: &mut S, program: &SinkProgram, procs: usize, num_objects: usize) {
    let span = object_id_span(num_objects);
    let access = |shards: &mut ShardSet, p: usize, o: usize, write: bool| {
        let shard = shards.shard_mut(p % procs);
        if write {
            shard.write(o % span);
        } else {
            shard.read(o % span);
        }
    };
    let mut shards = ShardSet::new(procs);
    for ops in program {
        for op in ops {
            match op {
                SinkOp::Record(p, o, w) => access(&mut shards, *p, *o, *w),
                SinkOp::Many(p, batch) => {
                    for &(o, w) in batch {
                        access(&mut shards, *p, o, w);
                    }
                }
                SinkOp::Hot(p, o, w, count) => {
                    for _ in 0..*count {
                        access(&mut shards, *p, *o, *w);
                    }
                }
            }
        }
        shards.drain_interval(sink);
    }
}

/// A flat history in the reference's map-based representation.
fn as_reference(history: &PageWriteHistory) -> RefPageHistory {
    RefPageHistory {
        num_pages: history.num_pages,
        num_procs: history.num_procs,
        intervals: history
            .intervals
            .iter()
            .map(|interval| {
                interval
                    .iter()
                    .map(|sets| RefIntervalPageSets {
                        reads: sets.reads.iter().map(|r| (r.page as usize, r.objects)).collect(),
                        writes: sets.writes.iter().map(|w| (w.page as usize, w.bytes)).collect(),
                        accesses: sets.accesses,
                    })
                    .collect()
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The marking sink, run at all six unit sizes in one pass, equals the map-based
    /// reference reduction at each of them — and so do both protocols over it — for
    /// object ids at and (in release builds) beyond the layout, heavy re-reads and
    /// re-writes of one object, any mix of single accesses and batches on one
    /// processor, and empty intervals.
    #[test]
    fn marking_sink_matches_the_reference_at_every_unit_size(
        args in (1usize..5, 0usize..4, 1usize..150, sink_program())
    ) {
        let (procs, size_idx, num_objects, prog) = args;
        let layout = ObjectLayout::new(num_objects, OBJECT_SIZES[size_idx]);
        let mut builder = TraceBuilder::new(layout.clone(), procs);
        let mut sink =
            PageHistorySink::with_granularities(layout.clone(), procs, &UNIT_SWEEP_BYTES);
        drive_ops(&mut builder, &prog, procs, num_objects);
        drive_ops(&mut sink, &prog, procs, num_objects);
        let trace = builder.finish();
        let streamed = sink.finish_all();
        prop_assert_eq!(streamed.len(), UNIT_SWEEP_BYTES.len());
        for (history, page_bytes) in streamed.iter().zip(UNIT_SWEEP_BYTES) {
            prop_assert_eq!(history.page_bytes, page_bytes);
            prop_assert_eq!(history.intervals.len(), trace.intervals.len());
            let want = RefPageHistory::build(&trace, &layout, page_bytes);
            prop_assert_eq!(as_reference(history), want.clone());
            let config = DsmConfig::new(page_bytes, procs);
            prop_assert_eq!(
                TreadMarksSim::new(config).run_history(history),
                reference::run_treadmarks_history(config, &want)
            );
            prop_assert_eq!(
                HlrcSim::new(config).run_history(history),
                reference::run_hlrc_history(config, &want)
            );
        }
    }

    /// Cutting a history after interval `len` gives exactly the history of the
    /// trace's first `len` intervals.
    #[test]
    fn history_prefixes_equal_reductions_of_trace_prefixes(
        args in (1usize..5, 0usize..4, 0usize..3, 1usize..150, sink_program())
    ) {
        let (procs, size_idx, page_idx, num_objects, prog) = args;
        let layout = ObjectLayout::new(num_objects, OBJECT_SIZES[size_idx]);
        let page_bytes = PAGE_SIZES[page_idx];
        let mut builder = TraceBuilder::new(layout.clone(), procs);
        let mut sink = PageHistorySink::new(layout.clone(), procs, page_bytes);
        drive_ops(&mut builder, &prog, procs, num_objects);
        drive_ops(&mut sink, &prog, procs, num_objects);
        let trace = builder.finish();
        let history = sink.finish();
        for len in 1..=trace.intervals.len() {
            let prefix = ProgramTrace {
                layout: layout.clone(),
                num_procs: procs,
                intervals: trace.intervals[..len].to_vec(),
            };
            let want = PageWriteHistory::build(&prefix, &layout, page_bytes);
            prop_assert_eq!(want.intervals.len(), len);
            prop_assert_eq!(history.prefix(len), want);
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

        // Record the program access by access into the materializing builder, and
        // stream it through shards into the page-history sink.
        let mut builder = TraceBuilder::new(layout.clone(), procs);
        let mut sink = PageHistorySink::new(layout.clone(), procs, page_bytes);
        record(&mut builder, &prog, procs, num_objects);
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
        record(&mut builder, &prog, procs, num_objects);
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
        record(&mut builder, &prog, procs, num_objects);
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
