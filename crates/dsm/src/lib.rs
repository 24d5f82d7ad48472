//! # `dsm` — page-based software distributed shared memory simulators
//!
//! The paper's software platforms are TreadMarks and HLRC running on a cluster of 16
//! Pentium II machines connected by 100 Mb/s Ethernet.  Both are *page-based,
//! multiple-writer, lazy release consistency* (LRC) systems; they differ in where
//! modifications are kept and how they propagate:
//!
//! * **TreadMarks** (homeless LRC): each writer keeps diffs of the pages it modified.
//!   A processor that faults on a page after a synchronization point must fetch diffs
//!   from *every* processor that modified the page since its copy was last brought up
//!   to date — one message exchange per writer.
//! * **HLRC** (home-based LRC): every page has a home node.  Writers send their diffs
//!   to the home at release/barrier time; a faulting processor fetches the *whole page*
//!   from the home with a single exchange.
//!
//! Consequently, for the same degree of (false) sharing TreadMarks sends more messages
//! while HLRC sends more bytes — which is exactly the behaviour Table 3 of the paper
//! shows and Section 5.2 discusses.  Data reordering attacks the common cause: it
//! reduces the number of pages written by multiple processors per interval, which cuts
//! both the diff traffic and the page fetches.
//!
//! We do not have a 16-node 1999 cluster, so this crate simulates both protocols at the
//! level that determines the paper's reported quantities: per-interval per-processor
//! read/write page sets (from [`smtrace`]).  The simulators produce **message counts**
//! and **data volumes** (Table 3) deterministically, and a [`cost::NetworkCostModel`]
//! with the paper's measured latencies (126 µs round-trip, 1 308 µs page fetch,
//! 313–1 544 µs diff fetch, 643 µs barrier) converts them into estimated execution
//! times and speedups (Figures 8 and 9).
//!
//! The trace→stats pipeline is streaming and allocation-lean: a [`PageHistorySink`]
//! reduces an application's `stream_*` execution to flat per-interval
//! [`PageWriteHistory`] page sets (at one or several page granularities in a single
//! pass) without materializing the trace, and both simulators evaluate the
//! per-processor intervals in parallel.  The original map-based serial pipeline lives
//! beside the equivalence proptests (`tests/reference/`) as the executable
//! specification they pin every path to, bit-identical [`DsmStats`] included.
//!
//! ```
//! use dsm::{DsmConfig, HlrcSim, TreadMarksSim};
//! use smtrace::{ObjectLayout, TraceBuilder};
//!
//! // Processor 0 writes an object, the barrier propagates it, processor 1 reads it:
//! // both protocols must move data, and the homeless protocol needs at least as many
//! // messages as the home-based one.
//! let mut builder = TraceBuilder::new(ObjectLayout::new(16, 64), 2);
//! builder.write(0, 0);
//! builder.barrier();
//! builder.read(1, 0);
//! builder.barrier();
//! let trace = builder.finish();
//!
//! let config = DsmConfig::new(1024, 2);
//! let tmk = TreadMarksSim::new(config).run(&trace);
//! let hlrc = HlrcSim::new(config).run(&trace);
//! assert!(tmk.stats.data_bytes > 0);
//! assert!(hlrc.stats.data_bytes > 0);
//! assert!(tmk.stats.messages >= hlrc.stats.messages);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cost;
pub mod history;
pub mod hlrc;
pub mod protocol;
pub mod sink;
pub mod treadmarks;

pub use cost::{NetworkCostModel, TimeEstimate};
pub use history::{object_bytes_on_page, IntervalPageSets, PageRead, PageWrite, PageWriteHistory};
pub use hlrc::HlrcSim;
pub use protocol::{DsmConfig, DsmRunResult, DsmStats, ProcStats, Protocol};
pub use sink::PageHistorySink;
pub use treadmarks::TreadMarksSim;
