//! Equivalence suite for the three trace→DSM pipelines: the streaming
//! [`PageHistorySink`], the materialized [`PageWriteHistory::build`] reduction, and
//! the map-based serial executable spec in `reference/` must produce bit-identical
//! histories and [`dsm::DsmRunResult`]s for *any* program — arbitrary access
//! patterns, straddling object sizes, page sizes, processor counts, locks, partial
//! trailing intervals, object ids beyond the layout, and any interleaving of the
//! sink's `record` and `record_many` entry points.

mod reference;

use proptest::prelude::*;

use dsm::{DsmConfig, HlrcSim, PageHistorySink, PageWriteHistory, TreadMarksSim};
use reference::{RefIntervalPageSets, RefPageHistory};
use smtrace::{Access, ObjectLayout, ProgramTrace, TraceBuilder, TraceSink};

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

/// The unit-size ablation's consistency-unit ladder, in bytes: the granularities one
/// multi-granularity pass reduces at in the paper sweep.
const UNIT_SWEEP_BYTES: [usize; 6] = [128, 512, 1024, 4096, 8192, 16384];

/// One event of a [`SinkProgram`] interval.  Object ids are folded into
/// [`object_id_span`], so in release builds some land at or beyond the end of the
/// layout.
#[derive(Debug, Clone)]
enum SinkOp {
    /// One `record` call.
    Record(usize, usize, bool),
    /// One `record_many` call with a batch of (object, is_write) accesses.
    Many(usize, Vec<(usize, bool)>),
    /// `count` consecutive accesses of one object, alternating `record` and a
    /// `record_many` batch (heavy re-reads or re-writes).
    Hot(usize, usize, bool, usize),
    /// One lock acquisition.
    Lock(usize),
}

/// Intervals of [`SinkOp`]s (empty and lock-only intervals included), optionally
/// ending in a partial (End-closed) interval.
type SinkProgram = (Vec<Vec<SinkOp>>, bool);

fn sink_program() -> impl Strategy<Value = SinkProgram> {
    let batch = prop::collection::vec((0usize..1000, any::<bool>()), 0..12);
    let op = ((0usize..4, 0usize..8), 0usize..1000, any::<bool>(), batch, 1usize..60).prop_map(
        |((kind, p), o, w, batch, count)| match kind {
            0 => SinkOp::Record(p, o, w),
            1 => SinkOp::Many(p, batch),
            2 => SinkOp::Hot(p, o, w, count),
            _ => SinkOp::Lock(p),
        },
    );
    // One interval in three is empty, one in three lock-only.
    let interval =
        (0usize..3, prop::collection::vec(0usize..8, 1..4), prop::collection::vec(op, 1..16))
            .prop_map(|(kind, locks, ops)| match kind {
                0 => Vec::new(),
                1 => locks.into_iter().map(SinkOp::Lock).collect(),
                _ => ops,
            });
    (prop::collection::vec(interval, 1..7), any::<bool>())
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

/// Drive a [`SinkProgram`] into any sink.
fn drive_ops<S: TraceSink>(sink: &mut S, program: &SinkProgram, procs: usize, num_objects: usize) {
    let (intervals, final_barrier) = program;
    let access = |o: usize, write: bool| {
        let o = o % object_id_span(num_objects);
        if write {
            Access::write(o)
        } else {
            Access::read(o)
        }
    };
    for (idx, ops) in intervals.iter().enumerate() {
        for op in ops {
            match op {
                SinkOp::Record(p, o, w) => sink.record(p % procs, access(*o, *w)),
                SinkOp::Many(p, batch) => {
                    let batch: Vec<Access> = batch.iter().map(|&(o, w)| access(o, w)).collect();
                    sink.record_many(p % procs, &batch);
                }
                SinkOp::Hot(p, o, w, count) => {
                    let a = access(*o, *w);
                    for _ in 0..count / 2 {
                        sink.record(p % procs, a);
                    }
                    sink.record_many(p % procs, &vec![a; count - count / 2]);
                }
                SinkOp::Lock(p) => sink.lock(p % procs, 0),
            }
        }
        if idx + 1 < intervals.len() || *final_barrier {
            sink.barrier();
        }
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
                        lock_acquires: sets.lock_acquires,
                        accesses: sets.accesses,
                    })
                    .collect()
            })
            .collect(),
        barriers: history.barriers,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The marking sink, run at all six unit sizes in one pass, equals the map-based
    /// reference reduction at each of them — and so do both protocols over it — for
    /// object ids at and (in release builds) beyond the layout, heavy re-reads and
    /// re-writes of one object, any mix of `record` and `record_many` on one
    /// processor, and empty and lock-only intervals.
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
    /// trace's first `len` intervals, barrier count included.
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
            prop_assert_eq!(want.barriers, prefix.num_barriers() as u64);
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
