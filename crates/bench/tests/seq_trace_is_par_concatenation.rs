//! The premise of the Origin substrate cell: an application's 1-processor trace is,
//! interval by interval, the processor-order concatenation of its P-processor
//! streams.  Every application splits a processor-count-independent work order into
//! contiguous per-processor chunks (costzones for Barnes-Hut and FMM, block or slab
//! partitions for the others), and its physics does not depend on P — so one trace
//! on P processors, folded onto one processor, gives Table 2's sequential columns.

use rayon::prelude::*;
use reorder::Method;
use repro_bench::{build_run, AppKind, Ordering, Scale};
use smtrace::ProgramTrace;

const ORDERINGS: [Ordering; 5] = [
    Ordering::Original,
    Ordering::Reordered(Method::Hilbert),
    Ordering::Reordered(Method::Morton),
    Ordering::Reordered(Method::Column),
    Ordering::Reordered(Method::Row),
];

/// Assert that `seq` (traced on one processor) is `par` with each interval's streams
/// concatenated in processor order.
fn assert_concatenation(seq: &ProgramTrace, par: &ProgramTrace, case: &str) {
    assert_eq!(seq.num_procs, 1, "{case}");
    assert_eq!(seq.intervals.len(), par.intervals.len(), "{case}: interval counts differ");
    for (k, (one, many)) in seq.intervals.iter().zip(&par.intervals).enumerate() {
        let concatenated: Vec<_> = many.accesses.iter().flatten().copied().collect();
        assert!(one.accesses[0] == concatenated, "{case}: interval {k} differs");
    }
}

fn check(app: AppKind, ordering: Ordering, scale: Scale, seed: u64, procs: &[usize]) {
    let seq = build_run(app, ordering, scale, 1, seed).trace;
    for &p in procs {
        let par = build_run(app, ordering, scale, p, seed).trace;
        let case = format!("{} {} seed {seed} P={p} {scale:?}", app.name(), ordering.name());
        assert_concatenation(&seq, &par, &case);
    }
}

#[test]
fn every_tiny_one_processor_trace_concatenates_its_parallel_streams() {
    let cases: Vec<(AppKind, Ordering, u64)> = AppKind::ALL
        .into_iter()
        .flat_map(|app| ORDERINGS.into_iter().map(move |ordering| (app, ordering)))
        .flat_map(|(app, ordering)| [5, 123].map(|seed| (app, ordering, seed)))
        .collect();
    cases.into_par_iter().for_each(|(app, ordering, seed)| {
        check(app, ordering, Scale::Tiny, seed, &[2, 3, 16]);
    });
}

#[test]
fn a_small_one_processor_trace_concatenates_its_parallel_streams() {
    check(AppKind::BarnesHut, Ordering::Reordered(Method::Hilbert), Scale::Small, 123, &[16]);
}
