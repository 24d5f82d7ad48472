//! The premise of the Origin substrate cell: an application's 1-processor trace is,
//! interval by interval, the processor-order concatenation of its P-processor
//! streams.  Every application splits a processor-count-independent work order into
//! contiguous per-processor chunks (costzones for Barnes-Hut and FMM, block or slab
//! partitions for the others), and its physics does not depend on P — so one trace
//! on P processors, folded onto one processor, gives Table 2's sequential columns.
//!
//! Figures 2 and 5 rest on a stronger form for one-iteration Barnes-Hut: its
//! Q-processor stream k is the concatenation of P-processor streams k·P/Q through
//! (k+1)·P/Q−1 whenever Q divides P by a power of two, because the costzones
//! thresholds `total/P·(i+1)` then scale exactly in f64.  FMM and Unstructured do not
//! nest this way (their Q-processor chunks cut the work order at other points), so
//! only `fig02_05` folds onto intermediate processor counts.

use rayon::prelude::*;
use reorder::Method;
use repro_bench::{AppKind, LiveApp, Ordering, Scale};
use smtrace::{ProgramTrace, TraceBuilder};

const ORDERINGS: [Ordering; 5] = [
    Ordering::Original,
    Ordering::Reordered(Method::Hilbert),
    Ordering::Reordered(Method::Morton),
    Ordering::Reordered(Method::Column),
    Ordering::Reordered(Method::Row),
];

/// `app` built at `n` objects under `ordering`, with `iters` iterations traced over
/// `procs` virtual processors.
fn traced(
    app: AppKind,
    ordering: Ordering,
    n: usize,
    iters: usize,
    procs: usize,
    seed: u64,
) -> ProgramTrace {
    let (mut live, _) = LiveApp::ordered(app, ordering, n, seed);
    let mut builder = TraceBuilder::new(live.layout(), procs);
    live.stream_sharded(iters, &mut builder);
    builder.finish()
}

/// Assert that every stream of `coarse` is the processor-order concatenation of its
/// group of `par`'s streams, interval by interval: Q = `coarse.num_procs` contiguous
/// groups of P/Q processors each.
fn assert_concatenation(coarse: &ProgramTrace, par: &ProgramTrace, case: &str) {
    assert!(par.num_procs.is_multiple_of(coarse.num_procs), "{case}");
    let group = par.num_procs / coarse.num_procs;
    assert_eq!(coarse.intervals.len(), par.intervals.len(), "{case}: interval counts differ");
    for (k, (few, many)) in coarse.intervals.iter().zip(&par.intervals).enumerate() {
        for (q, streams) in many.accesses.chunks(group).enumerate() {
            let concatenated: Vec<_> = streams.iter().flatten().copied().collect();
            assert!(few.accesses[q] == concatenated, "{case}: interval {k} stream {q} differs");
        }
    }
}

fn check(app: AppKind, ordering: Ordering, scale: Scale, seed: u64, procs: &[usize]) {
    let (n, iters) = (scale.size_of(app), scale.iterations_of(app));
    let seq = traced(app, ordering, n, iters, 1, seed);
    for &p in procs {
        let par = traced(app, ordering, n, iters, p, seed);
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

#[test]
fn fig02_05_barnes_hut_folds_from_16_processors_onto_every_smaller_ladder_count() {
    // fig02_05's body count at tiny and small scale, one iteration, as its cells trace.
    const BODIES: usize = 8_192;
    let cases: Vec<(Ordering, u64)> = [Ordering::Original, Ordering::Reordered(Method::Hilbert)]
        .into_iter()
        .flat_map(|ordering| [7, 5, 123].map(|seed| (ordering, seed)))
        .collect();
    cases.into_par_iter().for_each(|(ordering, seed)| {
        let trace = |procs| traced(AppKind::BarnesHut, ordering, BODIES, 1, procs, seed);
        let par = trace(16);
        for q in [8, 4, 2, 1] {
            let case = format!("Barnes-Hut {} seed {seed} P=16 onto Q={q}", ordering.name());
            assert_concatenation(&trace(q), &par, &case);
        }
    });
}
