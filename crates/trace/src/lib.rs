//! # `smtrace` — shared-memory address-space model and access traces
//!
//! The paper evaluates data reordering on two very different substrates: a hardware
//! shared-memory machine (SGI Origin 2000) and two page-based software DSM systems
//! (TreadMarks and HLRC).  What both substrates have in common is that their behaviour
//! is a function of *which processor touches which consistency unit, and when relative
//! to synchronization*:
//!
//! * the hardware numbers in Table 2 (L2 cache misses, TLB misses) are determined by the
//!   per-processor stream of cache-line and page addresses;
//! * the software-DSM numbers in Table 3 (messages, data volume) are determined by the
//!   per-*interval* (barrier-to-barrier) read and write page sets of each processor.
//!
//! This crate provides the shared model those two simulators (`memsim` and `dsm`) are
//! driven by:
//!
//! * [`ObjectLayout`] — how an object array maps onto bytes, cache lines and pages;
//! * [`Access`], [`AccessKind`] — a single fine-grained object access, packed into
//!   four bytes (kind in the top bit of the object index);
//! * [`TraceSink`] — the streaming consumer contract: a sink takes a run one closed
//!   barrier-to-barrier interval at a time, every processor's accesses in program
//!   order, so a simulator can replay a run without a materialized trace;
//! * [`ShardSet`] — the one producer side of that contract:
//!   [`ShardSet::run_interval`] runs one interval as a rayon task per virtual
//!   processor, each filling its own append-only buffer, and closes it into any sink
//!   as one call, so every downstream counter stays bit-identical to the serial
//!   traced paths;
//! * [`TraceBuilder`] / [`ProgramTrace`] — the materializing sink: per-processor,
//!   per-interval access streams, each interval closed by a barrier, kept for
//!   analyses that re-read the trace under several layouts;
//! * [`UnitAccessSets`] — reduction of a processor's accesses to
//!   per-consistency-unit read/write sets (the quantity false sharing is defined
//!   over) held as [`DenseSet`] bitsets, folded in one access at a time.
//!
//! The benchmark applications (`nbody`, `molecular`, `unstructured`) are written so that
//! the *same* partitioned computation both runs in parallel with rayon (for wall-clock
//! measurements) and records a trace with `P` *virtual* processors (so the simulated
//! processor count is independent of the host's core count, exactly like the paper's
//! 1–16 processor sweeps).
//!
//! ```
//! use smtrace::{ObjectLayout, TraceBuilder};
//!
//! // 64 objects of 96 bytes (the paper's Barnes-Hut body size), traced on 2 virtual
//! // processors over two barrier intervals.
//! let layout = ObjectLayout::new(64, 96);
//! let mut builder = TraceBuilder::new(layout, 2);
//! builder.write(0, 3);
//! builder.read(1, 3);
//! builder.barrier();
//! builder.write(1, 40);
//! builder.barrier();
//! let trace = builder.finish();
//!
//! assert_eq!(trace.num_procs, 2);
//! assert_eq!(trace.total_accesses(), 3);
//! assert_eq!(trace.intervals.len(), 2);
//! // Object 1 spans bytes 96..192, i.e. it straddles 128-byte lines 0 and 1.
//! assert_eq!(trace.layout.units_of(1, 128), (0, 1));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod access;
pub mod layout;
pub mod sets;
pub mod shard;
pub mod sink;
pub mod trace;

pub use access::{Access, AccessKind};
pub use layout::ObjectLayout;
pub use sets::{DenseSet, SharingHistogram, UnitAccessSets};
pub use shard::{Shard, ShardSet};
pub use sink::{NullSink, TeeSink, TraceSink};
pub use trace::{IntervalTrace, ProgramTrace, TraceBuilder};
