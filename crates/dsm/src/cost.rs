//! Network cost model: converts protocol statistics into estimated execution times.
//!
//! Section 4.1.2 of the paper reports the measured costs of the primitive operations on
//! the 100 Mb/s Ethernet cluster of 300 MHz Pentium II machines:
//!
//! * round-trip latency for a 1-byte message: 126 µs;
//! * lock acquisition: 178 – 272 µs (not modelled: the traces hold barriers only);
//! * 16-processor barrier: 643 µs;
//! * fetching a diff: 313 – 1 544 µs depending on size;
//! * fetching a full page: 1 308 µs.
//!
//! The defaults of [`NetworkCostModel`] are exactly these numbers (using the midpoint
//! where the paper gives a range, and a linear size-dependence for diffs anchored at the
//! two endpoints).  Estimated parallel execution time is the per-processor critical
//! path: compute time (accesses × per-access cost) plus that processor's communication
//! and synchronization time.  Speedups (Figures 8 and 9) are sequential compute time
//! divided by the estimate.

use crate::protocol::{DsmRunResult, ProcStats};

/// Latency parameters of the simulated cluster interconnect.
#[derive(Debug, Clone, Copy)]
pub struct NetworkCostModel {
    /// Round-trip time of a small control message (seconds).
    pub small_message_rtt: f64,
    /// Time for a full barrier across all processors (seconds).
    pub barrier_time: f64,
    /// Fixed cost of fetching one diff (seconds).
    pub diff_base: f64,
    /// Additional cost per byte of diff data (seconds/byte).
    pub diff_per_byte: f64,
    /// Cost of fetching a full page (seconds).
    pub page_fetch: f64,
    /// Compute cost per traced object access (seconds); calibrates application work.
    pub cost_per_access: f64,
}

impl Default for NetworkCostModel {
    fn default() -> Self {
        // Diff cost: 313 µs for a tiny diff, 1 544 µs for a full 4 KB page diff —
        // slope = (1544 - 313) µs / 4096 B ≈ 0.3 µs per byte.
        NetworkCostModel {
            small_message_rtt: 126e-6,
            barrier_time: 643e-6,
            diff_base: 313e-6,
            diff_per_byte: (1544e-6 - 313e-6) / 4096.0,
            page_fetch: 1308e-6,
            cost_per_access: 0.3e-6,
        }
    }
}

/// A time estimate for one protocol run.
#[derive(Debug, Clone, Copy)]
pub struct TimeEstimate {
    /// Estimated sequential execution time (compute only, one processor doing all the
    /// accesses).
    pub sequential_seconds: f64,
    /// Estimated parallel execution time (critical-path processor).
    pub parallel_seconds: f64,
    /// `sequential_seconds / parallel_seconds`.
    pub speedup: f64,
}

impl NetworkCostModel {
    /// Communication + synchronization time of one processor, given its statistics and
    /// the global barrier count (barriers are the only synchronization traced).
    pub fn proc_comm_time(&self, stats: &ProcStats, barriers: u64, num_procs: usize) -> f64 {
        // Diff fetches: we know the number of exchanges and the total bytes received.
        // Charge the base cost per exchange plus the per-byte cost of the data.
        let diff_time = if stats.fetch_exchanges > 0 {
            stats.fetch_exchanges as f64 * self.diff_base
                + stats.data_bytes as f64 * self.diff_per_byte
        } else {
            0.0
        };
        // Barriers are global; every processor waits for them.  The barrier cost grows
        // roughly linearly with the number of participants; scale the measured
        // 16-processor number.
        let barrier_time =
            barriers as f64 * self.barrier_time * (num_procs as f64 / 16.0).max(0.25);
        diff_time + barrier_time
    }

    /// Communication time where every fetch exchange is a full-page fetch (HLRC).
    pub fn proc_comm_time_paged(&self, stats: &ProcStats, barriers: u64, num_procs: usize) -> f64 {
        let page_time = stats.fetch_exchanges as f64 * self.page_fetch;
        // Eager diffs pushed to homes are one-way; charge half a small-message RTT plus
        // the wire time of the diff bytes.
        let push_time = stats.diffs_sent as f64 * (self.small_message_rtt / 2.0)
            + stats.diff_bytes_sent as f64 * self.diff_per_byte * 0.5;
        let barrier_time =
            barriers as f64 * self.barrier_time * (num_procs as f64 / 16.0).max(0.25);
        page_time + push_time + barrier_time
    }

    /// Estimate sequential time, parallel time and speedup for a protocol run.
    ///
    /// The protocol determines whether fetches are priced as diff fetches (TreadMarks)
    /// or page fetches (HLRC).
    pub fn estimate(&self, result: &DsmRunResult) -> TimeEstimate {
        let total_accesses: u64 = result.per_proc.iter().map(|p| p.accesses).sum();
        let sequential_seconds = total_accesses as f64 * self.cost_per_access;
        let barriers = result.stats.barriers;
        let parallel_seconds = result
            .per_proc
            .iter()
            .map(|p| {
                let compute = p.accesses as f64 * self.cost_per_access;
                let comm = match result.protocol {
                    crate::protocol::Protocol::TreadMarks => {
                        self.proc_comm_time(p, barriers, result.config.num_procs)
                    }
                    crate::protocol::Protocol::Hlrc => {
                        self.proc_comm_time_paged(p, barriers, result.config.num_procs)
                    }
                };
                compute + comm
            })
            .fold(0.0, f64::max);
        let speedup =
            if parallel_seconds > 0.0 { sequential_seconds / parallel_seconds } else { 0.0 };
        TimeEstimate { sequential_seconds, parallel_seconds, speedup }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{DsmConfig, DsmStats, Protocol};

    fn run_with(per_proc: Vec<ProcStats>, protocol: Protocol, barriers: u64) -> DsmRunResult {
        let config = DsmConfig::new(4096, per_proc.len());
        let stats = DsmStats { barriers, ..Default::default() };
        DsmRunResult { protocol, config, stats, per_proc }
    }

    #[test]
    fn defaults_match_the_paper_latencies() {
        let m = NetworkCostModel::default();
        assert!((m.small_message_rtt - 126e-6).abs() < 1e-12);
        assert!((m.barrier_time - 643e-6).abs() < 1e-12);
        assert!((m.page_fetch - 1308e-6).abs() < 1e-12);
        assert!((m.diff_base - 313e-6).abs() < 1e-12);
        // A full-page diff costs roughly the paper's 1 544 µs.
        let full_diff = m.diff_base + 4096.0 * m.diff_per_byte;
        assert!((full_diff - 1544e-6).abs() < 1e-9);
    }

    #[test]
    fn communication_free_run_gets_near_linear_speedup() {
        let m = NetworkCostModel::default();
        let per_proc: Vec<ProcStats> =
            (0..8).map(|_| ProcStats { accesses: 1_000_000, ..Default::default() }).collect();
        let r = run_with(per_proc, Protocol::TreadMarks, 2);
        let est = m.estimate(&r);
        assert!(est.speedup > 7.0, "speedup was {}", est.speedup);
        assert!(est.speedup <= 8.0 + 1e-9);
    }

    #[test]
    fn heavy_communication_hurts_speedup() {
        let m = NetworkCostModel::default();
        let clean: Vec<ProcStats> =
            (0..8).map(|_| ProcStats { accesses: 100_000, ..Default::default() }).collect();
        let noisy: Vec<ProcStats> = (0..8)
            .map(|_| ProcStats {
                accesses: 100_000,
                fetch_exchanges: 2_000,
                data_bytes: 2_000 * 1500,
                remote_faults: 2_000,
                messages: 4_000,
                ..Default::default()
            })
            .collect();
        let clean_est = m.estimate(&run_with(clean, Protocol::TreadMarks, 10));
        let noisy_est = m.estimate(&run_with(noisy, Protocol::TreadMarks, 10));
        assert!(clean_est.speedup > 2.0 * noisy_est.speedup);
    }

    #[test]
    fn hlrc_prices_fetches_as_full_pages() {
        let m = NetworkCostModel::default();
        let stats = ProcStats {
            accesses: 0,
            fetch_exchanges: 100,
            data_bytes: 100 * 4096,
            ..Default::default()
        };
        let tmk_time = m.proc_comm_time(&stats, 0, 16);
        let hlrc_time = m.proc_comm_time_paged(&stats, 0, 16);
        // 100 full-page diff fetches (313 + 4096*0.3µs ≈ 1544 µs each) cost more than
        // 100 page fetches (1308 µs each).
        assert!(tmk_time > hlrc_time);
    }

    #[test]
    fn barrier_cost_scales_with_processor_count() {
        let m = NetworkCostModel::default();
        let stats = ProcStats::default();
        let t16 = m.proc_comm_time(&stats, 10, 16);
        let t4 = m.proc_comm_time(&stats, 10, 4);
        assert!(t16 > t4);
    }
}
