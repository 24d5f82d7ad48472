//! Streaming page-history accumulation: a [`smtrace::TraceSink`] that reduces an
//! application's traced execution to one [`PageWriteHistory`] per page granularity
//! without ever materializing the trace.
//!
//! This is the DSM counterpart of `memsim::SimSink`: the applications' `stream_steps` /
//! `stream_iterations` / `stream_sweeps` entry points emit accesses, locks and barriers
//! into the sink, which keeps no per-access state.  Each access sets the object's bit
//! in its processor's read or write [`DenseSet`] and bumps that processor's access
//! count.  At every barrier the sink drains each processor's set bits in ascending
//! order — exactly the distinct, sorted object ids the page reduction needs — zeroing
//! the words as it goes, and folds them into flat sorted per-page vectors for **each**
//! requested page size, so a single traced run can be evaluated at the 4 KB DSM page
//! and the 16 KB hardware page in one pass.
//!
//! Cost: one bit-set per access, then per interval one scan of every processor's
//! bitsets plus a linear page-emission pass per granularity.  Retained state is two
//! bitsets of `num_objects` bits per processor (they grow if an object id lies beyond
//! the layout) plus the histories; the only allocations in steady state are the
//! per-page vectors stored in the resulting histories.

use smtrace::{Access, DenseSet, ObjectLayout, TraceSink};

use crate::history::{IntervalPageSets, PageWriteHistory};

/// One page granularity being accumulated.
#[derive(Debug)]
struct GranularityAcc {
    page_bytes: usize,
    num_pages: usize,
    intervals: Vec<Vec<IntervalPageSets>>,
}

/// One processor's activity in the current (unflushed) interval.
#[derive(Debug)]
struct ProcInterval {
    /// Objects read.
    reads: DenseSet,
    /// Objects written.
    writes: DenseSet,
    /// Accesses recorded, re-reads and re-writes included.
    accesses: u64,
    /// Lock acquisitions.
    locks: u32,
}

impl ProcInterval {
    #[inline]
    fn mark(&mut self, access: Access) {
        if access.is_write() {
            self.writes.insert(access.object());
        } else {
            self.reads.insert(access.object());
        }
    }
}

/// A [`TraceSink`] that accumulates [`PageWriteHistory`] interval-by-interval, at one
/// or several page granularities, straight from a streamed trace.
#[derive(Debug)]
pub struct PageHistorySink {
    layout: ObjectLayout,
    granularities: Vec<GranularityAcc>,
    /// Per-processor state of the current interval (drained at every barrier).
    procs: Vec<ProcInterval>,
    /// Number of barriers seen.
    barriers: u64,
}

impl PageHistorySink {
    /// Start a single-granularity reduction over pages of `page_bytes` bytes for an
    /// object array with the given layout, partitioned over `num_procs` virtual
    /// processors.
    ///
    /// # Panics
    /// Panics if `num_procs` or `page_bytes` is zero.
    pub fn new(layout: ObjectLayout, num_procs: usize, page_bytes: usize) -> Self {
        Self::with_granularities(layout, num_procs, &[page_bytes])
    }

    /// Start a reduction that produces one [`PageWriteHistory`] per entry of
    /// `page_sizes`, all accumulated in a single pass over the stream.
    ///
    /// # Panics
    /// Panics if `num_procs` is zero, `page_sizes` is empty, or any page size is zero.
    pub fn with_granularities(
        layout: ObjectLayout,
        num_procs: usize,
        page_sizes: &[usize],
    ) -> Self {
        assert!(num_procs > 0, "num_procs must be positive");
        assert!(!page_sizes.is_empty(), "need at least one page granularity");
        let granularities = page_sizes
            .iter()
            .map(|&page_bytes| {
                assert!(page_bytes > 0, "page size must be positive");
                GranularityAcc {
                    page_bytes,
                    num_pages: layout.num_units(page_bytes),
                    intervals: Vec::new(),
                }
            })
            .collect();
        let procs = (0..num_procs)
            .map(|_| ProcInterval {
                reads: DenseSet::with_capacity(layout.num_objects),
                writes: DenseSet::with_capacity(layout.num_objects),
                accesses: 0,
                locks: 0,
            })
            .collect();
        PageHistorySink { layout, granularities, procs, barriers: 0 }
    }

    /// The page sizes being accumulated, in construction order.
    pub fn page_sizes(&self) -> Vec<usize> {
        self.granularities.iter().map(|g| g.page_bytes).collect()
    }

    /// Whether the current (unflushed) interval holds no events.
    fn current_is_empty(&self) -> bool {
        self.procs.iter().all(|p| p.accesses == 0 && p.locks == 0)
    }

    /// Reduce the current interval into every granularity and reset the per-processor
    /// state.  The last granularity drains the bitsets; the others only read them.
    fn flush_interval(&mut self) {
        let num_procs = self.procs.len();
        for g in &mut self.granularities {
            g.intervals.push(Vec::with_capacity(num_procs));
        }
        let last = self.granularities.len() - 1;
        for proc in &mut self.procs {
            for (i, g) in self.granularities.iter_mut().enumerate() {
                let mut sets = IntervalPageSets {
                    lock_acquires: proc.locks,
                    accesses: proc.accesses,
                    ..Default::default()
                };
                let (layout, page_bytes, num_pages) = (&self.layout, g.page_bytes, g.num_pages);
                if i < last {
                    sets.accumulate(
                        proc.reads.iter(),
                        proc.writes.iter(),
                        layout,
                        page_bytes,
                        num_pages,
                    );
                } else {
                    sets.accumulate(
                        proc.reads.drain(),
                        proc.writes.drain(),
                        layout,
                        page_bytes,
                        num_pages,
                    );
                }
                g.intervals.last_mut().expect("interval pushed above").push(sets);
            }
            proc.accesses = 0;
            proc.locks = 0;
        }
    }

    /// Finish the stream and return one history per requested granularity, in the order
    /// the page sizes were given.  A non-empty trailing interval is kept (it is not a
    /// barrier), exactly like [`smtrace::TraceBuilder::finish`].
    pub fn finish_all(mut self) -> Vec<PageWriteHistory> {
        if !self.current_is_empty() {
            self.flush_interval();
        }
        let num_procs = self.procs.len();
        let barriers = self.barriers;
        self.granularities
            .into_iter()
            .map(|g| PageWriteHistory {
                page_bytes: g.page_bytes,
                num_pages: g.num_pages,
                num_procs,
                intervals: g.intervals,
                barriers,
            })
            .collect()
    }

    /// Finish a single-granularity sink.
    ///
    /// # Panics
    /// Panics if the sink was built with more than one granularity (use
    /// [`PageHistorySink::finish_all`]).
    pub fn finish(self) -> PageWriteHistory {
        assert_eq!(self.granularities.len(), 1, "multi-granularity sink: use finish_all");
        self.finish_all().pop().expect("exactly one granularity")
    }
}

impl TraceSink for PageHistorySink {
    fn num_procs(&self) -> usize {
        self.procs.len()
    }

    fn record(&mut self, proc: usize, access: Access) {
        let p = &mut self.procs[proc];
        p.mark(access);
        p.accesses += 1;
    }

    fn lock(&mut self, proc: usize, lock: u32) {
        let _ = lock;
        self.procs[proc].locks += 1;
    }

    fn barrier(&mut self) {
        // A barrier always closes an interval, even an empty one, mirroring
        // `TraceBuilder::barrier` so streamed and materialized reductions align.
        self.flush_interval();
        self.barriers += 1;
    }

    fn record_many(&mut self, proc: usize, accesses: &[Access]) {
        let p = &mut self.procs[proc];
        for &access in accesses {
            p.mark(access);
        }
        p.accesses += accesses.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smtrace::{TeeSink, TraceBuilder};

    fn layout() -> ObjectLayout {
        ObjectLayout::new(256, 64)
    }

    fn drive(sink: &mut dyn TraceSink) {
        sink.write(0, 1);
        sink.write(0, 1);
        sink.read(1, 65);
        sink.read(1, 65);
        sink.lock(2, 5);
        sink.barrier();
        sink.read(0, 130);
        sink.write(2, 130);
        sink.write(2, 131);
    }

    #[test]
    fn sink_matches_the_materialized_reduction() {
        let mut builder = TraceBuilder::new(layout(), 3);
        let mut sink = PageHistorySink::new(layout(), 3, 4096);
        drive(&mut builder);
        drive(&mut sink);
        let trace = builder.finish();
        let streamed = sink.finish();
        let materialized = PageWriteHistory::build(&trace, &layout(), 4096);
        assert_eq!(streamed, materialized);
    }

    #[test]
    fn multi_granularity_pass_matches_per_granularity_builds() {
        let mut builder = TraceBuilder::new(layout(), 3);
        let mut sink = PageHistorySink::with_granularities(layout(), 3, &[1024, 4096, 16384]);
        {
            let mut tee = TeeSink::new(&mut builder, &mut sink);
            drive(&mut tee);
        }
        let trace = builder.finish();
        let streamed = sink.finish_all();
        assert_eq!(streamed.len(), 3);
        for (history, page_bytes) in streamed.iter().zip([1024, 4096, 16384]) {
            assert_eq!(history, &PageWriteHistory::build(&trace, &layout(), page_bytes));
        }
    }

    #[test]
    fn empty_trailing_interval_is_dropped_and_barriers_are_counted() {
        let mut sink = PageHistorySink::new(layout(), 2, 4096);
        sink.write(0, 1);
        sink.barrier();
        sink.barrier(); // empty barrier-closed interval is kept
        let h = sink.finish();
        assert_eq!(h.intervals.len(), 2);
        assert_eq!(h.barriers, 2);
        assert!(h.intervals[1].iter().all(|s| s.accesses == 0));
    }

    #[test]
    fn lock_only_trailing_interval_is_kept() {
        let mut sink = PageHistorySink::new(layout(), 2, 4096);
        sink.barrier();
        sink.lock(1, 9);
        let h = sink.finish();
        assert_eq!(h.intervals.len(), 2);
        assert_eq!(h.barriers, 1, "the trailing interval is closed by End, not a barrier");
        assert_eq!(h.intervals[1][1].lock_acquires, 1);
    }

    #[test]
    #[should_panic(expected = "num_procs must be positive")]
    fn zero_procs_panics() {
        PageHistorySink::new(layout(), 0, 4096);
    }

    #[test]
    #[should_panic(expected = "at least one page granularity")]
    fn no_granularities_panics() {
        PageHistorySink::with_granularities(layout(), 2, &[]);
    }
}
