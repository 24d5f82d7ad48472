//! Homeless multiple-writer lazy release consistency — the TreadMarks-like protocol.
//!
//! Behavioural model (following TreadMarks' invalidate-based LRC as described in the
//! paper and in Amza et al., IEEE Computer 1996):
//!
//! * During an interval each processor writes its own copy of whatever pages it touches
//!   (multiple-writer: no communication on writes); at the next synchronization point
//!   it is understood to have created a *diff* per written page.
//! * Write notices travel with the barrier/lock messages; pages for which another
//!   processor holds newer diffs are invalidated.
//! * On the first access to an invalidated page, the faulting processor requests the
//!   missing diffs from **every** processor that wrote the page in intervals it has not
//!   yet seen — one request/response exchange (2 messages) per such writer — and applies
//!   them.  The data volume is the sum of the diff sizes.
//! * Barriers cost `2 * (P - 1)` messages (arrival + departure with the manager), locks
//!   cost 3 messages per acquisition, both as in TreadMarks.
//!
//! The quantities the paper reports (messages, Mbytes) are therefore determined by the
//! per-interval page write history alone — which is what the simulator consumes.
//!
//! ## Evaluation strategy
//!
//! The protocol state (`last_seen` per page) and every per-processor counter depend
//! only on that processor's own accesses plus the *global* write timeline, which is
//! immutable once the history exists.  [`TreadMarksSim::run_history`] therefore builds
//! the per-page timeline once and evaluates every processor's intervals **in
//! parallel** (rayon), each worker walking the flat sorted page sets with reused
//! scratch buffers; the diffs each writer served are accumulated locally per worker
//! and summed afterwards, so results are deterministic and bit-identical to the serial
//! map-based spec the equivalence tests keep in `tests/reference/`.

use rayon::prelude::*;
use smtrace::{ObjectLayout, ProgramTrace};

use crate::history::PageWriteHistory;
use crate::protocol::{single_proc_result, DsmConfig, DsmRunResult, DsmStats, ProcStats, Protocol};

/// Messages per barrier for a P-processor barrier (arrival and release messages between
/// every non-manager node and the barrier manager).  Zero for a single node — and for
/// `num_procs == 0` this saturates to 0 instead of underflowing to 2^64 − 2.
pub fn barrier_messages(num_procs: usize) -> u64 {
    2 * (num_procs as u64).saturating_sub(1)
}

/// Messages per lock acquisition (request, forward to last owner, grant).
pub const LOCK_MESSAGES: u64 = 3;

/// Per-page write timeline shared by the worker threads: every `(interval, writer,
/// diff bytes)` triple, grouped by page and sorted by interval (construction order).
pub(crate) struct WriteTimeline {
    per_page: Vec<Vec<(u32, u32, u64)>>,
}

impl WriteTimeline {
    pub(crate) fn build(history: &PageWriteHistory) -> Self {
        let mut per_page: Vec<Vec<(u32, u32, u64)>> = vec![Vec::new(); history.num_pages];
        for (t, interval) in history.intervals.iter().enumerate() {
            for (w, sets) in interval.iter().enumerate() {
                for pw in &sets.writes {
                    per_page[pw.page as usize].push((t as u32, w as u32, pw.bytes));
                }
            }
        }
        WriteTimeline { per_page }
    }

    /// The entries for `page` with interval index in `[from, upto)`.
    pub(crate) fn range(&self, page: usize, from: u32, upto: u32) -> &[(u32, u32, u64)] {
        let entries = &self.per_page[page];
        let start = entries.partition_point(|&(t, _, _)| t < from);
        let end = entries.partition_point(|&(t, _, _)| t < upto);
        &entries[start..end]
    }
}

/// One worker's outcome: the processor's own statistics plus the diffs it pulled from
/// each peer (index = serving writer).
struct ProcOutcome {
    stats: ProcStats,
    served_diffs: Vec<u64>,
    served_bytes: Vec<u64>,
}

/// The TreadMarks-like protocol simulator.
#[derive(Debug, Clone)]
pub struct TreadMarksSim {
    config: DsmConfig,
}

impl TreadMarksSim {
    /// Create a simulator for the given configuration.
    pub fn new(config: DsmConfig) -> Self {
        TreadMarksSim { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> DsmConfig {
        self.config
    }

    /// Simulate the protocol over a trace, using the trace's own object layout.
    pub fn run(&self, trace: &ProgramTrace) -> DsmRunResult {
        self.run_with_layout(trace, &trace.layout)
    }

    /// Simulate the protocol over a trace with an explicit object layout (used to
    /// evaluate a different object placement for the same logical computation).
    pub fn run_with_layout(&self, trace: &ProgramTrace, layout: &ObjectLayout) -> DsmRunResult {
        let history = PageWriteHistory::build(trace, layout, self.config.page_bytes);
        self.run_history(&history)
    }

    /// Simulate one processor's whole run against the shared timeline.
    fn evaluate_proc(
        &self,
        proc: usize,
        history: &PageWriteHistory,
        timeline: &WriteTimeline,
    ) -> ProcOutcome {
        let p = self.config.num_procs;
        let mut stats = ProcStats::default();
        let mut served_diffs = vec![0u64; p];
        let mut served_bytes = vec![0u64; p];
        // last_seen[page]: this processor has incorporated all diffs from intervals
        // strictly before this value (everyone starts with the initialized data).
        let mut last_seen = vec![0u32; history.num_pages];
        // Scratch: per-writer diff bytes of the fault being processed, plus the
        // writers touched (so only they are reset afterwards).
        let mut writer_bytes = vec![0u64; p];
        let mut writers: Vec<u32> = Vec::new();
        for (t, interval) in history.intervals.iter().enumerate() {
            let sets = &interval[proc];
            stats.accesses += sets.accesses;
            stats.lock_acquires += u64::from(sets.lock_acquires);
            // Pages this processor touches in this interval (read or write): it must
            // first validate them by fetching any missing diffs from other writers.
            for page in sets.touched_pages() {
                let from = last_seen[page as usize];
                if from as usize >= t {
                    continue;
                }
                last_seen[page as usize] = t as u32;
                for &(_, w, bytes) in timeline.range(page as usize, from, t as u32) {
                    if w as usize == proc {
                        continue;
                    }
                    // Every timeline entry carries >= 1 byte (a written object always
                    // lands at least one byte on the page), so a zero here means "not
                    // seen yet for this fault".
                    if writer_bytes[w as usize] == 0 {
                        writers.push(w);
                    }
                    writer_bytes[w as usize] += bytes;
                }
                if writers.is_empty() {
                    continue;
                }
                // One remote fault, one request/response exchange per writer.
                stats.remote_faults += 1;
                for &w in &writers {
                    let bytes = std::mem::take(&mut writer_bytes[w as usize]);
                    stats.fetch_exchanges += 1;
                    stats.messages += 2;
                    stats.data_bytes += bytes;
                    served_diffs[w as usize] += 1;
                    served_bytes[w as usize] += bytes;
                }
                writers.clear();
            }
        }
        stats.messages += LOCK_MESSAGES * stats.lock_acquires;
        ProcOutcome { stats, served_diffs, served_bytes }
    }

    /// Simulate the protocol over a pre-built page write history.
    pub fn run_history(&self, history: &PageWriteHistory) -> DsmRunResult {
        let p = self.config.num_procs;
        assert_eq!(history.num_procs, p, "history and configuration disagree on processor count");
        if p == 1 {
            return single_proc_result(
                Protocol::TreadMarks,
                self.config,
                history.proc_accesses(0),
                history.proc_lock_acquires(0),
                history.barriers,
            );
        }

        let timeline = WriteTimeline::build(history);
        let outcomes: Vec<ProcOutcome> = (0..p)
            .into_par_iter()
            .map(|proc| self.evaluate_proc(proc, history, &timeline))
            .collect();

        let mut per_proc: Vec<ProcStats> = outcomes.iter().map(|o| o.stats).collect();
        for (proc, stats) in per_proc.iter_mut().enumerate() {
            stats.diffs_sent = outcomes.iter().map(|o| o.served_diffs[proc]).sum();
            stats.diff_bytes_sent = outcomes.iter().map(|o| o.served_bytes[proc]).sum();
        }

        let mut stats = DsmStats {
            barriers: history.barriers,
            lock_acquires: per_proc.iter().map(|s| s.lock_acquires).sum(),
            ..Default::default()
        };
        stats.messages = per_proc.iter().map(|s| s.messages).sum::<u64>()
            + history.barriers * barrier_messages(p);
        stats.data_bytes = per_proc.iter().map(|s| s.data_bytes).sum();
        stats.remote_faults = per_proc.iter().map(|s| s.remote_faults).sum();
        stats.fetch_exchanges = per_proc.iter().map(|s| s.fetch_exchanges).sum();
        stats.diffs_created = per_proc.iter().map(|s| s.diffs_sent).sum();

        DsmRunResult { protocol: Protocol::TreadMarks, config: self.config, stats, per_proc }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smtrace::TraceBuilder;

    /// Two processors, two intervals: p0 writes object 0 (page 0) in interval 0, p1
    /// reads it in interval 1 — one diff fetch.
    #[test]
    fn single_producer_consumer_costs_one_diff_exchange() {
        let layout = ObjectLayout::new(128, 64);
        let mut b = TraceBuilder::new(layout.clone(), 2);
        b.write(0, 0);
        b.barrier();
        b.read(1, 0);
        b.barrier();
        let trace = b.finish();
        let sim = TreadMarksSim::new(DsmConfig::new(4096, 2));
        let r = sim.run(&trace);
        assert_eq!(r.stats.remote_faults, 1);
        assert_eq!(r.stats.fetch_exchanges, 1);
        // 2 messages for the diff exchange + 2 barriers * 2 messages each.
        assert_eq!(r.stats.messages, 2 + 2 * barrier_messages(2));
        assert_eq!(r.stats.data_bytes, 64);
        assert!(r.aggregate_consistent());
    }

    /// False sharing: many writers of the same page force the reader to fetch one diff
    /// per writer — the multiplicative message cost the paper attributes to TreadMarks.
    #[test]
    fn falsely_shared_page_costs_one_exchange_per_writer() {
        let layout = ObjectLayout::new(64, 64); // one 4 KB page
        let procs = 8;
        let mut b = TraceBuilder::new(layout.clone(), procs);
        for p in 0..procs - 1 {
            b.write(p, p); // distinct objects, same page
        }
        b.barrier();
        b.read(procs - 1, 63);
        b.barrier();
        let trace = b.finish();
        let sim = TreadMarksSim::new(DsmConfig::new(4096, procs));
        let r = sim.run(&trace);
        let reader = &r.per_proc[procs - 1];
        assert_eq!(reader.remote_faults, 1);
        assert_eq!(reader.fetch_exchanges, (procs - 1) as u64);
        assert_eq!(reader.messages, 2 * (procs - 1) as u64);
        assert_eq!(reader.data_bytes, 64 * (procs - 1) as u64);
    }

    /// After reordering, each processor writes a different page: a reader of one object
    /// only fetches one diff, so messages and data drop.
    #[test]
    fn partitioned_pages_cost_less_than_shared_pages() {
        let procs = 4;
        // Shared: 64 objects of 64 B on one page; partitioned: same objects spread so
        // each processor's objects live on its own page (256 objects of 64 B = 4 pages,
        // block-assigned).
        let shared_layout = ObjectLayout::new(64, 64);
        let mut b = TraceBuilder::new(shared_layout.clone(), procs);
        for p in 0..procs {
            for k in 0..16 {
                b.write(p, p + 4 * k);
            }
        }
        b.barrier();
        for p in 0..procs {
            b.read(p, (p + 1) % 64);
        }
        b.barrier();
        let shared_trace = b.finish();

        let part_layout = ObjectLayout::new(256, 64);
        let mut b = TraceBuilder::new(part_layout.clone(), procs);
        for p in 0..procs {
            for k in 0..16 {
                b.write(p, p * 64 + k);
            }
        }
        b.barrier();
        for p in 0..procs {
            b.read(p, p * 64 + 17);
        }
        b.barrier();
        let part_trace = b.finish();

        let sim = TreadMarksSim::new(DsmConfig::new(4096, procs));
        let shared = sim.run(&shared_trace);
        let part = sim.run(&part_trace);
        assert!(shared.stats.messages > part.stats.messages);
        assert!(shared.stats.data_bytes > part.stats.data_bytes);
        // In the partitioned case the later reads are to the processor's own pages, so
        // no diff traffic at all.
        assert_eq!(part.stats.fetch_exchanges, 0);
    }

    #[test]
    fn own_writes_never_cause_fetches() {
        let layout = ObjectLayout::new(64, 64);
        let mut b = TraceBuilder::new(layout.clone(), 2);
        b.write(0, 1);
        b.barrier();
        b.read(0, 1);
        b.write(0, 2);
        b.barrier();
        b.read(0, 2);
        b.barrier();
        let trace = b.finish();
        let sim = TreadMarksSim::new(DsmConfig::new(4096, 2));
        let r = sim.run(&trace);
        assert_eq!(r.stats.remote_faults, 0);
        assert_eq!(r.stats.data_bytes, 0);
    }

    #[test]
    fn locks_add_three_messages_each() {
        let layout = ObjectLayout::new(64, 64);
        let mut b = TraceBuilder::new(layout.clone(), 2);
        b.lock(0, 1);
        b.lock(1, 1);
        b.lock(1, 2);
        b.barrier();
        let trace = b.finish();
        let sim = TreadMarksSim::new(DsmConfig::new(4096, 2));
        let r = sim.run(&trace);
        assert_eq!(r.stats.lock_acquires, 3);
        assert_eq!(r.stats.messages, 3 * LOCK_MESSAGES + barrier_messages(2));
    }

    #[test]
    fn diffs_served_match_diffs_fetched() {
        let layout = ObjectLayout::new(128, 64);
        let mut b = TraceBuilder::new(layout.clone(), 3);
        b.write(0, 0);
        b.write(1, 1);
        b.barrier();
        b.read(2, 0);
        b.read(2, 1);
        b.barrier();
        let trace = b.finish();
        let sim = TreadMarksSim::new(DsmConfig::new(4096, 3));
        let r = sim.run(&trace);
        let fetched: u64 = r.per_proc.iter().map(|p| p.fetch_exchanges).sum();
        let served: u64 = r.per_proc.iter().map(|p| p.diffs_sent).sum();
        assert_eq!(fetched, served);
        let received: u64 = r.per_proc.iter().map(|p| p.data_bytes).sum();
        let sent: u64 = r.per_proc.iter().map(|p| p.diff_bytes_sent).sum();
        assert_eq!(received, sent);
    }

    #[test]
    fn barrier_messages_saturate_instead_of_underflowing() {
        assert_eq!(barrier_messages(0), 0);
        assert_eq!(barrier_messages(1), 0);
        assert_eq!(barrier_messages(2), 2);
        assert_eq!(barrier_messages(16), 30);
    }

    /// P=1 is a zero-communication fast path: work and synchronization are counted,
    /// but no messages of any kind (no peers, no lock manager, no barrier manager).
    #[test]
    fn single_processor_run_is_communication_free() {
        let layout = ObjectLayout::new(64, 64);
        let mut b = TraceBuilder::new(layout.clone(), 1);
        b.write(0, 1);
        b.lock(0, 7);
        b.barrier();
        b.read(0, 1);
        b.barrier();
        let trace = b.finish();
        let r = TreadMarksSim::new(DsmConfig::new(4096, 1)).run(&trace);
        assert_eq!(r.stats.messages, 0);
        assert_eq!(r.stats.data_bytes, 0);
        assert_eq!(r.stats.barriers, 2);
        assert_eq!(r.stats.lock_acquires, 1);
        assert_eq!(r.per_proc[0].accesses, 2);
    }
}
