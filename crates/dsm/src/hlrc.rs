//! Home-based lazy release consistency — the HLRC-like protocol.
//!
//! Behavioural model (following Zhou, Iftode and Li, OSDI 1996, as summarized in the
//! paper):
//!
//! * Every page has a **home** node.  We assign homes round-robin over the pages of the
//!   object array, which matches the first-touch-after-block-initialization placement
//!   the benchmarks end up with and keeps the assignment deterministic.
//! * At the end of every interval each writer computes a diff per written page and
//!   **eagerly sends it to the page's home** (one message, diff-sized data); the home
//!   applies it so its copy is always up to date.  Writers that are themselves the home
//!   of the page apply their changes locally for free.
//! * Write notices travel with barrier messages; non-home copies of modified pages
//!   are invalidated.
//! * On the first access to an invalidated page, the faulting processor fetches the
//!   **whole page** from the home: one request/response exchange (2 messages) and
//!   `page_bytes` of data — regardless of how many writers modified it.
//!
//! Compared to TreadMarks, the same amount of false sharing therefore costs fewer
//! messages (one exchange instead of one per writer) but more data volume (a full page
//! instead of the union of diffs) — the trade-off Table 3 of the paper exhibits.
//!
//! Like [`crate::TreadMarksSim`], the evaluation is parallel over processors: faults
//! and eager diffs of one processor depend only on its own page sets and the immutable
//! global write timeline, so every processor's intervals are walked concurrently and
//! the per-processor statistics are aggregated deterministically afterwards.

use rayon::prelude::*;
use smtrace::{ObjectLayout, ProgramTrace};

use crate::history::PageWriteHistory;
use crate::protocol::{single_proc_result, DsmConfig, DsmRunResult, DsmStats, ProcStats, Protocol};
use crate::treadmarks::{barrier_messages, WriteTimeline};

/// The HLRC-like protocol simulator.
#[derive(Debug, Clone)]
pub struct HlrcSim {
    config: DsmConfig,
}

impl HlrcSim {
    /// Create a simulator for the given configuration.
    pub fn new(config: DsmConfig) -> Self {
        HlrcSim { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> DsmConfig {
        self.config
    }

    /// The home node of a page (round-robin assignment).
    pub fn home_of(&self, page: usize) -> usize {
        page % self.config.num_procs
    }

    /// Simulate the protocol over a trace, using the trace's own object layout.
    pub fn run(&self, trace: &ProgramTrace) -> DsmRunResult {
        self.run_with_layout(trace, &trace.layout)
    }

    /// Simulate the protocol over a trace with an explicit object layout.
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
    ) -> ProcStats {
        let mut stats = ProcStats::default();
        // last_seen[page]: the processor's copy incorporates all writes from intervals
        // strictly before this value.
        let mut last_seen = vec![0u32; history.num_pages];
        for (t, interval) in history.intervals.iter().enumerate() {
            let sets = &interval[proc];
            stats.accesses += sets.accesses;
            // Phase 1: page faults for this interval's accesses (reads and writes both
            // need an up-to-date copy under the invalidate protocol).
            for page in sets.touched_pages() {
                let from = last_seen[page as usize];
                if from as usize >= t {
                    continue;
                }
                last_seen[page as usize] = t as u32;
                // Is there any write to this page by another processor in [from, t)?
                let stale = timeline
                    .range(page as usize, from, t as u32)
                    .iter()
                    .any(|&(_, w, _)| w as usize != proc);
                if !stale {
                    continue;
                }
                if proc == self.home_of(page as usize) {
                    // The home always has the current copy (diffs were pushed to it
                    // at the end of the writing interval).
                    continue;
                }
                stats.remote_faults += 1;
                stats.fetch_exchanges += 1;
                stats.messages += 2;
                stats.data_bytes += self.config.page_bytes as u64;
            }
            // Phase 2: at the interval's closing synchronization, every writer pushes a
            // diff of each written page to the page's home.
            for pw in &sets.writes {
                if self.home_of(pw.page as usize) == proc {
                    continue;
                }
                stats.diffs_sent += 1;
                stats.diff_bytes_sent += pw.bytes;
                stats.messages += 1;
                stats.data_bytes += pw.bytes;
            }
        }
        stats
    }

    /// Simulate the protocol over a pre-built page write history.
    pub fn run_history(&self, history: &PageWriteHistory) -> DsmRunResult {
        let p = self.config.num_procs;
        assert_eq!(history.num_procs, p, "history and configuration disagree on processor count");
        let barriers = history.intervals.len() as u64;
        if p == 1 {
            return single_proc_result(
                Protocol::Hlrc,
                self.config,
                history.proc_accesses(0),
                barriers,
            );
        }

        let timeline = WriteTimeline::build(history);
        let per_proc: Vec<ProcStats> = (0..p)
            .into_par_iter()
            .map(|proc| self.evaluate_proc(proc, history, &timeline))
            .collect();

        let mut stats = DsmStats { barriers, ..Default::default() };
        stats.messages =
            per_proc.iter().map(|s| s.messages).sum::<u64>() + barriers * barrier_messages(p);
        stats.data_bytes = per_proc.iter().map(|s| s.data_bytes).sum();
        stats.remote_faults = per_proc.iter().map(|s| s.remote_faults).sum();
        stats.fetch_exchanges = per_proc.iter().map(|s| s.fetch_exchanges).sum();
        stats.diffs_created = per_proc.iter().map(|s| s.diffs_sent).sum();

        DsmRunResult { protocol: Protocol::Hlrc, config: self.config, stats, per_proc }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::treadmarks::TreadMarksSim;
    use smtrace::TraceBuilder;

    /// Heavily falsely-shared page, one reader: HLRC fetches one full page (2 messages,
    /// 4096 bytes); TreadMarks fetches one diff per writer (more messages, fewer bytes).
    #[test]
    fn hlrc_trades_messages_for_data_relative_to_treadmarks() {
        let layout = ObjectLayout::new(64, 64); // one 4 KB page
        let procs = 8;
        let mut b = TraceBuilder::new(layout.clone(), procs);
        for p in 0..procs - 1 {
            b.write(p, p);
        }
        b.barrier();
        b.read(procs - 1, 63);
        b.barrier();
        let trace = b.finish();
        let config = DsmConfig::new(4096, procs);
        let tmk = TreadMarksSim::new(config).run(&trace);
        let hlrc = HlrcSim::new(config).run(&trace);
        // Reader-side messages: TreadMarks needs 2 per writer, HLRC at most 2 total.
        let tmk_reader = &tmk.per_proc[procs - 1];
        let hlrc_reader = &hlrc.per_proc[procs - 1];
        assert!(tmk_reader.messages > hlrc_reader.messages);
        // But the HLRC reader pulls a whole page while TreadMarks pulls small diffs.
        assert!(hlrc_reader.data_bytes >= 4096);
        assert!(tmk_reader.data_bytes < 4096);
    }

    #[test]
    fn home_node_never_fetches_its_own_pages() {
        let layout = ObjectLayout::new(64, 64); // one page, home = proc 0
        let mut b = TraceBuilder::new(layout.clone(), 2);
        b.write(1, 5);
        b.barrier();
        b.read(0, 5); // home reads: diff already arrived, no fetch
        b.read(1, 6); // writer reads its own page: no fetch
        b.barrier();
        let trace = b.finish();
        let hlrc = HlrcSim::new(DsmConfig::new(4096, 2)).run(&trace);
        assert_eq!(hlrc.stats.remote_faults, 0);
        // The only data traffic is the writer's eager diff to the home.
        assert_eq!(hlrc.stats.diffs_created, 1);
        assert_eq!(hlrc.stats.data_bytes, 64);
    }

    #[test]
    fn non_home_reader_fetches_a_full_page() {
        let layout = ObjectLayout::new(128, 64); // two pages; homes 0 and 1
        let mut b = TraceBuilder::new(layout.clone(), 3);
        b.write(0, 64); // page 1, home is proc 1 -> eager diff
        b.barrier();
        b.read(2, 65); // proc 2 faults on page 1, fetches from home
        b.barrier();
        let trace = b.finish();
        let hlrc = HlrcSim::new(DsmConfig::new(4096, 3)).run(&trace);
        assert_eq!(hlrc.stats.remote_faults, 1);
        assert_eq!(hlrc.per_proc[2].data_bytes, 4096);
        assert_eq!(hlrc.per_proc[0].diffs_sent, 1);
        assert_eq!(hlrc.per_proc[0].diff_bytes_sent, 64);
    }

    #[test]
    fn writes_by_the_home_itself_cost_nothing() {
        let layout = ObjectLayout::new(64, 64); // one page, home 0
        let mut b = TraceBuilder::new(layout.clone(), 2);
        b.write(0, 3);
        b.barrier();
        b.write(0, 4);
        b.barrier();
        let trace = b.finish();
        let hlrc = HlrcSim::new(DsmConfig::new(4096, 2)).run(&trace);
        assert_eq!(hlrc.stats.diffs_created, 0);
        assert_eq!(hlrc.stats.data_bytes, 0);
        assert_eq!(hlrc.stats.remote_faults, 0);
    }

    #[test]
    fn reordering_like_partitioning_reduces_hlrc_traffic_too() {
        let procs = 4;
        let scattered_layout = ObjectLayout::new(256, 64); // 4 pages
                                                           // Scattered: processor p writes objects p, p+4, ..., spread over all pages.
        let mut b = TraceBuilder::new(scattered_layout.clone(), procs);
        for p in 0..procs {
            for k in 0..32 {
                b.write(p, p + 4 * k);
            }
        }
        b.barrier();
        for p in 0..procs {
            b.read(p, (128 + p * 4) % 256);
        }
        b.barrier();
        let scattered = b.finish();
        // Blocked: processor p writes a contiguous block of 64 objects = its own page.
        let mut b = TraceBuilder::new(scattered_layout.clone(), procs);
        for p in 0..procs {
            for k in 0..32 {
                b.write(p, p * 64 + k);
            }
        }
        b.barrier();
        for p in 0..procs {
            b.read(p, p * 64 + 40);
        }
        b.barrier();
        let blocked = b.finish();
        let sim = HlrcSim::new(DsmConfig::new(4096, procs));
        let s = sim.run(&scattered);
        let bl = sim.run(&blocked);
        assert!(s.stats.messages > bl.stats.messages);
        assert!(s.stats.data_bytes > bl.stats.data_bytes);
    }

    #[test]
    fn aggregate_is_consistent_with_per_proc_breakdown() {
        let layout = ObjectLayout::new(512, 64);
        let mut b = TraceBuilder::new(layout.clone(), 4);
        for p in 0..4 {
            for k in 0..16 {
                b.write(p, (p * 37 + k * 11) % 512);
            }
        }
        b.barrier();
        for p in 0..4 {
            for k in 0..16 {
                b.read(p, (p * 53 + k * 7) % 512);
            }
        }
        b.barrier();
        let trace = b.finish();
        let r = HlrcSim::new(DsmConfig::new(4096, 4)).run(&trace);
        assert!(r.aggregate_consistent());
        assert_eq!(r.stats.barriers, 2);
    }

    /// P=1 is a zero-communication fast path for HLRC as well.
    #[test]
    fn single_processor_run_is_communication_free() {
        let layout = ObjectLayout::new(64, 64);
        let mut b = TraceBuilder::new(layout.clone(), 1);
        b.write(0, 3);
        b.barrier();
        let trace = b.finish();
        let r = HlrcSim::new(DsmConfig::new(4096, 1)).run(&trace);
        assert_eq!(r.stats.messages, 0);
        assert_eq!(r.stats.data_bytes, 0);
        assert_eq!(r.stats.barriers, 1);
    }
}
