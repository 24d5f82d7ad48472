//! Streaming page-history accumulation: a [`smtrace::TraceSink`] that reduces an
//! application's traced execution to one [`PageWriteHistory`] per page granularity
//! without ever materializing the trace.
//!
//! This is the DSM counterpart of `memsim::SimSink`: the applications' `stream_steps` /
//! `stream_iterations` / `stream_sweeps` entry points hand the sink one closed
//! synchronization interval at a time, and the sink keeps no per-access state.  For
//! each processor in turn, every access of its stream sets the object's bit in a read
//! or write [`DenseSet`]; then the sink drains the set bits in ascending order —
//! exactly the distinct, sorted object ids the page reduction needs — zeroing the
//! words as it goes, and folds them into flat sorted per-page vectors for **each**
//! requested page size, so a single traced run can be evaluated at the 4 KB DSM page
//! and the 16 KB hardware page in one pass.
//!
//! Cost: one bit-set per access, then per processor and interval one scan of the
//! bitsets plus a linear page-emission pass per granularity.  Retained state is two
//! bitsets of `num_objects` bits, shared by all processors (they grow if an object id
//! lies beyond the layout), plus the histories; the only allocations in steady state
//! are the per-page vectors stored in the resulting histories.

use smtrace::{Access, DenseSet, ObjectLayout, TraceSink};

use crate::history::{IntervalPageSets, PageWriteHistory};

/// One page granularity being accumulated.
#[derive(Debug)]
struct GranularityAcc {
    page_bytes: usize,
    num_pages: usize,
    intervals: Vec<Vec<IntervalPageSets>>,
}

/// A [`TraceSink`] that accumulates [`PageWriteHistory`] interval-by-interval, at one
/// or several page granularities, straight from a streamed trace.
#[derive(Debug)]
pub struct PageHistorySink {
    layout: ObjectLayout,
    granularities: Vec<GranularityAcc>,
    num_procs: usize,
    /// Objects the processor being reduced read (empty between reductions).
    reads: DenseSet,
    /// Objects the processor being reduced wrote (empty between reductions).
    writes: DenseSet,
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
        let reads = DenseSet::with_capacity(layout.num_objects);
        let writes = DenseSet::with_capacity(layout.num_objects);
        PageHistorySink { layout, granularities, num_procs, reads, writes }
    }

    /// Finish the stream and return one history per requested granularity, in the order
    /// the page sizes were given.
    pub fn finish_all(self) -> Vec<PageWriteHistory> {
        let num_procs = self.num_procs;
        self.granularities
            .into_iter()
            .map(|g| PageWriteHistory {
                page_bytes: g.page_bytes,
                num_pages: g.num_pages,
                num_procs,
                intervals: g.intervals,
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
        self.num_procs
    }

    /// Reduce the interval into every granularity.  Every interval is kept, even an
    /// empty one, mirroring `TraceBuilder` so streamed and materialized reductions
    /// align.  The last granularity drains the bitsets; the others only read them.
    fn interval(&mut self, streams: &[&[Access]]) {
        assert_eq!(streams.len(), self.num_procs, "one stream per processor");
        for g in &mut self.granularities {
            g.intervals.push(Vec::with_capacity(streams.len()));
        }
        let last = self.granularities.len() - 1;
        let (reads, writes) = (&mut self.reads, &mut self.writes);
        for stream in streams {
            for &access in *stream {
                if access.is_write() {
                    writes.insert(access.object());
                } else {
                    reads.insert(access.object());
                }
            }
            for (i, g) in self.granularities.iter_mut().enumerate() {
                let mut sets =
                    IntervalPageSets { accesses: stream.len() as u64, ..Default::default() };
                let (layout, page_bytes, num_pages) = (&self.layout, g.page_bytes, g.num_pages);
                if i < last {
                    sets.accumulate(reads.iter(), writes.iter(), layout, page_bytes, num_pages);
                } else {
                    sets.accumulate(reads.drain(), writes.drain(), layout, page_bytes, num_pages);
                }
                g.intervals.last_mut().expect("interval pushed above").push(sets);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smtrace::{ProgramTrace, TeeSink, TraceBuilder};

    fn layout() -> ObjectLayout {
        ObjectLayout::new(256, 64)
    }

    /// Two intervals over three processors: re-reads and re-writes, an idle
    /// processor, and a page written by one processor and read by another.
    fn trace() -> ProgramTrace {
        let mut b = TraceBuilder::new(layout(), 3);
        b.write(0, 1);
        b.write(0, 1);
        b.read(1, 65);
        b.read(1, 65);
        b.barrier();
        b.read(0, 130);
        b.write(2, 130);
        b.write(2, 131);
        b.barrier();
        b.finish()
    }

    #[test]
    fn sink_matches_the_materialized_reduction() {
        let trace = trace();
        let mut sink = PageHistorySink::new(layout(), 3, 4096);
        trace.replay_into(&mut sink);
        let streamed = sink.finish();
        assert_eq!(streamed.intervals.len(), 2);
        assert_eq!(streamed.intervals[0][0].accesses, 2);
        assert_eq!(streamed.intervals[0][0].write_bytes_on(0), 64, "object 1 once");
        assert_eq!(streamed.intervals[0][2], IntervalPageSets::default(), "idle processor");
        assert_eq!(streamed, PageWriteHistory::build(&trace, &layout(), 4096));
    }

    #[test]
    fn multi_granularity_pass_matches_per_granularity_builds() {
        let mut builder = TraceBuilder::new(layout(), 3);
        let mut sink = PageHistorySink::with_granularities(layout(), 3, &[1024, 4096, 16384]);
        {
            let mut tee = TeeSink::new(&mut builder, &mut sink);
            trace().replay_into(&mut tee);
        }
        let trace = builder.finish();
        let streamed = sink.finish_all();
        assert_eq!(streamed.len(), 3);
        for (history, page_bytes) in streamed.iter().zip([1024, 4096, 16384]) {
            assert_eq!(history, &PageWriteHistory::build(&trace, &layout(), page_bytes));
        }
    }

    #[test]
    fn empty_intervals_are_kept() {
        let mut sink = PageHistorySink::new(layout(), 2, 4096);
        sink.interval(&[&[Access::write(1)], &[]]);
        sink.interval(&[&[], &[]]);
        let h = sink.finish();
        assert_eq!(h.intervals.len(), 2);
        assert!(h.intervals[1].iter().all(|s| s.accesses == 0));
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
