//! The original map-based DSM pipeline, kept as the executable specification the
//! streaming pipeline is tested against.
//!
//! Semantics are identical to the streaming pipeline
//! ([`dsm::PageHistorySink`] → [`dsm::TreadMarksSim`] / [`dsm::HlrcSim`]) by
//! construction — `proptest_pipeline.rs` asserts bit-identical [`DsmRunResult`]s —
//! but the representation is the straightforward one the optimized pipeline
//! replaced:
//!
//! * the trace reduction allocates a nested `BTreeMap<page, BTreeSet<object>>` per
//!   (interval, processor) and a `BTreeMap` per page-set, where the streaming sink
//!   marks per-processor object bitsets and drains them in ascending order;
//! * each protocol run re-reduces the materialized trace from scratch (the historical
//!   `run_with_layout` cost), where the new pipeline reduces once and feeds both
//!   simulators;
//! * the protocol loops are serial and rebuild `BTreeSet` touched-page sets and
//!   `BTreeMap` per-writer tallies per fault, where the optimized simulators walk the
//!   flat page sets in parallel with reused scratch.
//!
//! The two accounting corrections of the flat pipeline are applied **identically**
//! here (deduplicated per-page read objects; per-page byte attribution for straddling
//! objects via [`object_bytes_on_page`]), as are the `barrier_messages` saturation fix
//! and the single-processor zero-communication result — this module is a spec for
//! the fixed semantics, not a museum of the bugs.  It is built only from `dsm`'s
//! public API; the single-processor result is derived here, not shared with the
//! simulators it checks.

use std::collections::{BTreeMap, BTreeSet};

use dsm::treadmarks::{barrier_messages, LOCK_MESSAGES};
use dsm::{object_bytes_on_page, DsmConfig, DsmRunResult, DsmStats, ProcStats, Protocol};
use smtrace::{ObjectLayout, ProgramTrace};

/// Map-based page sets of one processor in one interval.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefIntervalPageSets {
    /// Page number → distinct objects read on that page.
    pub reads: BTreeMap<usize, u32>,
    /// Page number → bytes modified on that page.
    pub writes: BTreeMap<usize, u64>,
    /// Lock acquisitions performed in the interval.
    pub lock_acquires: u32,
    /// Number of object accesses.
    pub accesses: u64,
}

/// Map-based reduction of a whole trace (`intervals[t][p]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefPageHistory {
    /// Number of pages covering the object array.
    pub num_pages: usize,
    /// Number of processors.
    pub num_procs: usize,
    /// Per-interval, per-processor page sets.
    pub intervals: Vec<Vec<RefIntervalPageSets>>,
    /// Number of barriers in the trace.
    pub barriers: u64,
}

impl RefPageHistory {
    /// Reduce `trace` to page granularity under `layout` and `page_bytes` with the
    /// original per-access nested-map accumulation.
    pub fn build(trace: &ProgramTrace, layout: &ObjectLayout, page_bytes: usize) -> Self {
        let num_pages = layout.num_units(page_bytes);
        let mut intervals = Vec::with_capacity(trace.intervals.len());
        for interval in &trace.intervals {
            let mut per_proc = vec![RefIntervalPageSets::default(); trace.num_procs];
            for (p, stream) in interval.accesses.iter().enumerate() {
                let sets = &mut per_proc[p];
                sets.accesses = stream.len() as u64;
                sets.lock_acquires = interval.lock_acquisitions[p];
                // Track distinct objects per page for reads and writes alike, so read
                // counts and diff bytes both reflect modified/read *objects*, not raw
                // access counts.
                let mut written: BTreeMap<usize, BTreeSet<u32>> = BTreeMap::new();
                let mut read: BTreeMap<usize, BTreeSet<u32>> = BTreeMap::new();
                for a in stream {
                    let (first, last) = layout.units_of(a.object(), page_bytes);
                    for page in first..=last {
                        if page >= num_pages {
                            continue;
                        }
                        if a.is_write() {
                            written.entry(page).or_default().insert(a.object_u32());
                        } else {
                            read.entry(page).or_default().insert(a.object_u32());
                        }
                    }
                }
                for (page, objs) in read {
                    sets.reads.insert(page, objs.len() as u32);
                }
                for (page, objs) in written {
                    let bytes = objs
                        .iter()
                        .map(|&o| object_bytes_on_page(layout, o as usize, page, page_bytes))
                        .sum();
                    sets.writes.insert(page, bytes);
                }
            }
            intervals.push(per_proc);
        }
        RefPageHistory {
            num_pages,
            num_procs: trace.num_procs,
            intervals,
            barriers: trace.num_barriers() as u64,
        }
    }
}

/// The one-processor result: compute work, lock acquisitions and barriers are counted,
/// but a single node has nobody to exchange messages, pages or diffs with.
fn single_proc(protocol: Protocol, config: DsmConfig, history: &RefPageHistory) -> DsmRunResult {
    let accesses = history.intervals.iter().map(|iv| iv[0].accesses).sum();
    let lock_acquires = history.intervals.iter().map(|iv| u64::from(iv[0].lock_acquires)).sum();
    let per_proc = vec![ProcStats { accesses, lock_acquires, ..Default::default() }];
    let stats = DsmStats { barriers: history.barriers, lock_acquires, ..Default::default() };
    DsmRunResult { protocol, config, stats, per_proc }
}

/// Run the TreadMarks-like protocol over a trace with the original serial scan-based
/// evaluation (each call re-reduces the trace, as `run_with_layout` historically did).
pub fn run_treadmarks(
    config: DsmConfig,
    trace: &ProgramTrace,
    layout: &ObjectLayout,
) -> DsmRunResult {
    let history = RefPageHistory::build(trace, layout, config.page_bytes);
    run_treadmarks_history(config, &history)
}

/// Run the TreadMarks-like protocol over a pre-built map-based history.
pub fn run_treadmarks_history(config: DsmConfig, history: &RefPageHistory) -> DsmRunResult {
    let p = config.num_procs;
    assert_eq!(history.num_procs, p, "history and configuration disagree on processor count");
    if p == 1 {
        return single_proc(Protocol::TreadMarks, config, history);
    }
    let num_pages = history.num_pages;

    // Per-page timeline of (interval, writer, bytes), in interval order.
    let mut timeline: Vec<Vec<(usize, usize, u64)>> = vec![Vec::new(); num_pages];
    for (t, per_proc) in history.intervals.iter().enumerate() {
        for (w, sets) in per_proc.iter().enumerate() {
            for (&page, &bytes) in &sets.writes {
                timeline[page].push((t, w, bytes));
            }
        }
    }

    let mut per_proc = vec![ProcStats::default(); p];
    let mut served_diffs = vec![0u64; p];
    let mut served_bytes = vec![0u64; p];
    let mut last_seen = vec![vec![0usize; num_pages]; p];

    for (t, interval) in history.intervals.iter().enumerate() {
        for (proc, sets) in interval.iter().enumerate() {
            let stats = &mut per_proc[proc];
            stats.accesses += sets.accesses;
            stats.lock_acquires += u64::from(sets.lock_acquires);
            let touched: BTreeSet<usize> =
                sets.reads.keys().chain(sets.writes.keys()).copied().collect();
            for page in touched {
                let from = last_seen[proc][page];
                if from >= t {
                    continue;
                }
                let mut per_writer: BTreeMap<usize, u64> = BTreeMap::new();
                for &(ti, w, bytes) in &timeline[page] {
                    if ti >= from && ti < t && w != proc {
                        *per_writer.entry(w).or_insert(0) += bytes;
                    }
                }
                last_seen[proc][page] = t;
                if per_writer.is_empty() {
                    continue;
                }
                stats.remote_faults += 1;
                for (&writer, &bytes) in &per_writer {
                    stats.fetch_exchanges += 1;
                    stats.messages += 2;
                    stats.data_bytes += bytes;
                    served_diffs[writer] += 1;
                    served_bytes[writer] += bytes;
                }
            }
        }
    }
    for proc in 0..p {
        per_proc[proc].diffs_sent = served_diffs[proc];
        per_proc[proc].diff_bytes_sent = served_bytes[proc];
        per_proc[proc].messages += LOCK_MESSAGES * per_proc[proc].lock_acquires;
    }

    finish(Protocol::TreadMarks, config, history.barriers, per_proc)
}

/// Run the HLRC-like protocol over a trace with the original serial evaluation.
pub fn run_hlrc(config: DsmConfig, trace: &ProgramTrace, layout: &ObjectLayout) -> DsmRunResult {
    let history = RefPageHistory::build(trace, layout, config.page_bytes);
    run_hlrc_history(config, &history)
}

/// Run the HLRC-like protocol over a pre-built map-based history.
pub fn run_hlrc_history(config: DsmConfig, history: &RefPageHistory) -> DsmRunResult {
    let p = config.num_procs;
    assert_eq!(history.num_procs, p, "history and configuration disagree on processor count");
    if p == 1 {
        return single_proc(Protocol::Hlrc, config, history);
    }
    let num_pages = history.num_pages;
    let home_of = |page: usize| page % p;

    let mut per_proc = vec![ProcStats::default(); p];
    let mut last_seen = vec![vec![0usize; num_pages]; p];
    let mut write_intervals: Vec<Vec<(usize, usize)>> = vec![Vec::new(); num_pages];
    for (t, interval) in history.intervals.iter().enumerate() {
        for (w, sets) in interval.iter().enumerate() {
            for &page in sets.writes.keys() {
                write_intervals[page].push((t, w));
            }
        }
    }

    for (t, interval) in history.intervals.iter().enumerate() {
        // Phase 1: page faults for this interval's accesses.
        for (proc, sets) in interval.iter().enumerate() {
            let stats = &mut per_proc[proc];
            stats.accesses += sets.accesses;
            stats.lock_acquires += u64::from(sets.lock_acquires);
            let touched: BTreeSet<usize> =
                sets.reads.keys().chain(sets.writes.keys()).copied().collect();
            for page in touched {
                let from = last_seen[proc][page];
                if from >= t {
                    continue;
                }
                let stale =
                    write_intervals[page].iter().any(|&(ti, w)| ti >= from && ti < t && w != proc);
                last_seen[proc][page] = t;
                if !stale {
                    continue;
                }
                if proc == home_of(page) {
                    continue;
                }
                stats.remote_faults += 1;
                stats.fetch_exchanges += 1;
                stats.messages += 2;
                stats.data_bytes += config.page_bytes as u64;
            }
        }
        // Phase 2: every writer pushes a diff of each written page to the page's home.
        for (proc, sets) in interval.iter().enumerate() {
            for (&page, &bytes) in &sets.writes {
                if home_of(page) == proc {
                    continue;
                }
                let stats = &mut per_proc[proc];
                stats.diffs_sent += 1;
                stats.diff_bytes_sent += bytes;
                stats.messages += 1;
                stats.data_bytes += bytes;
            }
        }
    }
    for stats in per_proc.iter_mut() {
        stats.messages += LOCK_MESSAGES * stats.lock_acquires;
    }

    finish(Protocol::Hlrc, config, history.barriers, per_proc)
}

fn finish(
    protocol: Protocol,
    config: DsmConfig,
    barriers: u64,
    per_proc: Vec<ProcStats>,
) -> DsmRunResult {
    let mut stats = DsmStats {
        barriers,
        lock_acquires: per_proc.iter().map(|s| s.lock_acquires).sum(),
        ..Default::default()
    };
    stats.messages = per_proc.iter().map(|s| s.messages).sum::<u64>()
        + barriers * barrier_messages(config.num_procs);
    stats.data_bytes = per_proc.iter().map(|s| s.data_bytes).sum();
    stats.remote_faults = per_proc.iter().map(|s| s.remote_faults).sum();
    stats.fetch_exchanges = per_proc.iter().map(|s| s.fetch_exchanges).sum();
    stats.diffs_created = per_proc.iter().map(|s| s.diffs_sent).sum();
    DsmRunResult { protocol, config, stats, per_proc }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm::{HlrcSim, TreadMarksSim};
    use smtrace::TraceBuilder;

    /// A hand-sized sharing pattern with straddling 680-byte objects, repeated reads
    /// and locks: the reference must agree with the optimized pipeline bit-for-bit.
    #[test]
    fn reference_matches_the_optimized_pipeline() {
        let layout = ObjectLayout::new(48, 680); // straddles every 4 KB boundary
        let mut b = TraceBuilder::new(layout.clone(), 4);
        for p in 0..4 {
            for k in 0..8 {
                b.write(p, (p * 11 + k * 5) % 48);
            }
            b.lock(p, p as u32);
        }
        b.barrier();
        for p in 0..4 {
            for _ in 0..3 {
                b.read(p, (p * 7 + 1) % 48); // repeated reads of one object
            }
        }
        b.barrier();
        b.write(0, 6); // trailing partial interval
        let trace = b.finish();
        let config = DsmConfig::new(4096, 4);

        let tmk_ref = run_treadmarks(config, &trace, &layout);
        let tmk_new = TreadMarksSim::new(config).run(&trace);
        assert_eq!(tmk_ref, tmk_new);

        let hlrc_ref = run_hlrc(config, &trace, &layout);
        let hlrc_new = HlrcSim::new(config).run(&trace);
        assert_eq!(hlrc_ref, hlrc_new);
    }

    #[test]
    fn reference_single_proc_fast_path_matches() {
        let layout = ObjectLayout::new(16, 64);
        let mut b = TraceBuilder::new(layout.clone(), 1);
        b.write(0, 1);
        b.lock(0, 2);
        b.barrier();
        let trace = b.finish();
        let config = DsmConfig::new(4096, 1);
        assert_eq!(run_treadmarks(config, &trace, &layout), TreadMarksSim::new(config).run(&trace));
        assert_eq!(run_hlrc(config, &trace, &layout), HlrcSim::new(config).run(&trace));
    }
}
