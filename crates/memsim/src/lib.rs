//! # `memsim` — hardware shared-memory simulator
//!
//! The paper's hardware platform is a 16-processor SGI Origin 2000: per-processor 8 MB
//! second-level caches with 128-byte lines, 16 KB pages, and a directory-based
//! cache-coherence protocol.  Table 2 of the paper reports, for every benchmark and
//! every data ordering, the execution time together with the number of **L2 cache
//! misses** and **TLB misses** on 1 and on 16 processors — those two counters are what
//! data reordering improves.
//!
//! We do not have an Origin 2000 (or its hardware counters), so this crate provides the
//! substitute substrate: trace-driven simulators that compute the same counters from the
//! applications' object-access traces.
//!
//! * [`cache::Cache`] — a set-associative, LRU, write-allocate cache model used for the
//!   per-processor L2 (positional two-way sets, generation-timestamp LRU otherwise).
//! * [`tlb::Tlb`] — a fully-associative LRU TLB model over the pages of a footprint:
//!   first-touch flags when the footprint fits in the entries, an O(1) LRU otherwise.
//! * [`directory::Directory`] — one dense `u64` sharer mask per footprint line, giving
//!   O(1) coherence lookup and O(sharers) invalidation.
//! * [`coherence::MultiprocessorSim`] — P processors bound to the object layout of
//!   their first replay; replaying an interleaved trace yields cold/capacity *and*
//!   coherence (false-sharing) misses per processor.  When the footprint cannot
//!   overflow a cache set the sharer masks alone hold residency; otherwise
//!   per-processor LRU caches do and the masks mirror them.  Each interval replays
//!   every TLB in its own processor's program order before interleaving the caches.
//!   [`coherence::SimSink`] replays *streaming* traces (one synchronization interval
//!   buffered at a time, no materialized trace) with byte-identical counters, and
//!   from the same pass the counters of the run folded onto one processor (streams
//!   in processor order): one more TLB, and the nonzero sharer masks as the misses
//!   wherever the masks hold residency.  The original scan-based simulator lives
//!   beside the equivalence tests (`tests/reference/`) as the executable
//!   specification both regimes, both replay paths and the folded counters are
//!   checked against.
//! * [`sharing`] — the page-sharing analyses behind Figures 1, 2, 4, 5 and 6, reduced
//!   from each processor's unit sets over a whole run
//!   ([`sharing::ProcessorUnitSetsSink`], fed by a live run or a replayed trace).
//! * [`origin::OriginPreset`] — the Origin 2000 cache/TLB/page parameters and a simple
//!   cost model that converts miss counts into estimated execution times for the
//!   Figure 7 speedup comparison.
//!
//! The simulators are deterministic: identical traces produce identical counts, so the
//! original-versus-reordered comparisons in `EXPERIMENTS.md` are exactly reproducible.
//!
//! ```
//! use memsim::{Cache, CacheConfig};
//!
//! // A 2 KB two-way cache with 64-byte lines: touching the same two lines repeatedly
//! // misses twice (cold) and then always hits.
//! let mut cache = Cache::new(CacheConfig::new(2048, 64, 2));
//! for _ in 0..10 {
//!     cache.access_line(1);
//!     cache.access_line(2);
//! }
//! let stats = cache.stats();
//! assert_eq!(stats.accesses, 20);
//! assert_eq!(stats.misses, 2);
//! assert_eq!(stats.hits, 18);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// In the numeric kernels the loop index is also the semantic id (processor,
// cell, dimension), so indexed loops read better than enumerate chains.
#![allow(clippy::needless_range_loop)]

pub mod cache;
pub mod coherence;
pub mod directory;
pub mod origin;
pub mod sharing;
pub mod tlb;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use coherence::{MultiprocessorSim, ProcessorStats, SimSink, SimulationResult, SinkResult};
pub use directory::Directory;
pub use origin::{CostModel, OriginPreset};
pub use sharing::{page_sharing, processor_unit_sets, PageSharingReport, ProcessorUnitSetsSink};
pub use tlb::{Tlb, TlbConfig, TlbStats};
