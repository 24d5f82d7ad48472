//! Common types shared by the two protocol simulators: configuration, per-processor
//! and aggregate statistics, and the protocol identifier.

/// Which software DSM protocol a result was produced by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Homeless, multiple-writer lazy release consistency (TreadMarks-like).
    TreadMarks,
    /// Home-based lazy release consistency (HLRC-like).
    Hlrc,
}

impl Protocol {
    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::TreadMarks => "TreadMarks",
            Protocol::Hlrc => "HLRC",
        }
    }
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of the simulated DSM system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DsmConfig {
    /// Virtual-memory page size in bytes (the consistency unit).  The paper's cluster
    /// uses x86 4 KB pages; the Barnes-Hut example in Section 2.1 uses 8 KB pages.
    pub page_bytes: usize,
    /// Number of processors (cluster nodes).
    pub num_procs: usize,
}

impl DsmConfig {
    /// Validate a configuration: both fields must be positive.  A one-processor
    /// configuration is legal — the simulators treat it as a zero-communication fast
    /// path (there is no remote node to exchange diffs or pages with).
    pub fn try_new(page_bytes: usize, num_procs: usize) -> Result<Self, &'static str> {
        if page_bytes == 0 {
            return Err("page size must be positive");
        }
        if num_procs == 0 {
            return Err("need at least one processor");
        }
        Ok(DsmConfig { page_bytes, num_procs })
    }

    /// Create a configuration.
    ///
    /// # Panics
    /// Panics if either field is zero (see [`DsmConfig::try_new`] for the fallible
    /// variant).
    pub fn new(page_bytes: usize, num_procs: usize) -> Self {
        match Self::try_new(page_bytes, num_procs) {
            Ok(config) => config,
            Err(msg) => panic!("{msg}"),
        }
    }

    /// The paper's software DSM cluster: 4 KB pages, `num_procs` nodes.
    pub fn cluster(num_procs: usize) -> Self {
        DsmConfig::new(4096, num_procs)
    }
}

/// Communication statistics of a single processor over a whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcStats {
    /// Messages this processor sent or received a reply for (request/response pairs
    /// count as two messages, matching the paper's message counts).
    pub messages: u64,
    /// Bytes of page or diff data this processor received.
    pub data_bytes: u64,
    /// Page faults that required remote communication.
    pub remote_faults: u64,
    /// Number of distinct writers contacted for diffs (TreadMarks) or home page fetches
    /// (HLRC) — each corresponds to one request/response exchange.
    pub fetch_exchanges: u64,
    /// Diffs this processor had to create and send (HLRC eager diffs to the home, or
    /// TreadMarks diffs served to requesters).
    pub diffs_sent: u64,
    /// Bytes of diffs this processor produced and transmitted.
    pub diff_bytes_sent: u64,
    /// Number of object accesses (compute work proxy, copied from the trace).
    pub accesses: u64,
}

/// Aggregate statistics for a whole run of one protocol on one trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DsmStats {
    /// Total messages exchanged (the paper's "Messages" column in Table 3).
    pub messages: u64,
    /// Total data transferred in bytes (the paper's "Data (Mbytes)" column).
    pub data_bytes: u64,
    /// Total remote page faults.
    pub remote_faults: u64,
    /// Total diff fetch / page fetch exchanges.
    pub fetch_exchanges: u64,
    /// Total diffs created.
    pub diffs_created: u64,
    /// Total barriers executed.
    pub barriers: u64,
}

impl DsmStats {
    /// Data volume in megabytes (10^6 bytes, as used in the paper's tables).
    pub fn data_mbytes(&self) -> f64 {
        self.data_bytes as f64 / 1e6
    }
}

/// The complete result of simulating one protocol over one trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsmRunResult {
    /// Which protocol produced the result.
    pub protocol: Protocol,
    /// The system configuration used.
    pub config: DsmConfig,
    /// Aggregate statistics.
    pub stats: DsmStats,
    /// Per-processor breakdown (used by the cost model's critical-path estimate).
    pub per_proc: Vec<ProcStats>,
}

impl DsmRunResult {
    /// Recompute the aggregate from the per-processor breakdown plus global counters;
    /// used internally by the simulators and by tests to check consistency.
    pub fn aggregate_consistent(&self) -> bool {
        let msg: u64 = self.per_proc.iter().map(|p| p.messages).sum();
        let data: u64 = self.per_proc.iter().map(|p| p.data_bytes).sum();
        let faults: u64 = self.per_proc.iter().map(|p| p.remote_faults).sum();
        // Barrier messages are accounted globally (2*(P-1) per barrier), so `messages`
        // is at least the per-processor sum.
        self.stats.messages >= msg
            && self.stats.data_bytes >= data
            && self.stats.remote_faults == faults
    }
}

/// The zero-communication result for a one-processor configuration: compute work and
/// barriers are counted, but no messages, faults or data move — a single node has
/// nobody to exchange diffs, pages or barrier notifications with.  Both protocol
/// simulators share this path so their P=1 results stay bit-identical.
pub(crate) fn single_proc_result(
    protocol: Protocol,
    config: DsmConfig,
    accesses: u64,
    barriers: u64,
) -> DsmRunResult {
    debug_assert_eq!(config.num_procs, 1);
    let per_proc = vec![ProcStats { accesses, ..Default::default() }];
    let stats = DsmStats { barriers, ..Default::default() };
    DsmRunResult { protocol, config, stats, per_proc }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_names() {
        assert_eq!(Protocol::TreadMarks.name(), "TreadMarks");
        assert_eq!(Protocol::Hlrc.to_string(), "HLRC");
    }

    #[test]
    fn cluster_preset_uses_4k_pages() {
        let c = DsmConfig::cluster(16);
        assert_eq!(c.page_bytes, 4096);
        assert_eq!(c.num_procs, 16);
    }

    #[test]
    fn data_mbytes_uses_decimal_megabytes() {
        let s = DsmStats { data_bytes: 3_500_000, ..Default::default() };
        assert!((s.data_mbytes() - 3.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_procs_panics() {
        DsmConfig::new(4096, 0);
    }

    #[test]
    fn try_new_rejects_zero_fields_without_panicking() {
        assert!(DsmConfig::try_new(0, 4).is_err());
        assert!(DsmConfig::try_new(4096, 0).is_err());
        assert_eq!(DsmConfig::try_new(4096, 16), Ok(DsmConfig::new(4096, 16)));
    }

    #[test]
    fn single_proc_result_is_communication_free() {
        let r = single_proc_result(Protocol::TreadMarks, DsmConfig::new(4096, 1), 100, 2);
        assert_eq!(r.stats.messages, 0);
        assert_eq!(r.stats.data_bytes, 0);
        assert_eq!(r.stats.barriers, 2);
        assert_eq!(r.per_proc[0].accesses, 100);
        assert!(r.aggregate_consistent());
    }
}
