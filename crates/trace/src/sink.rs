//! Streaming trace consumption: the [`TraceSink`] trait.
//!
//! A [`crate::TraceBuilder`] materializes every access of a run before any simulator
//! sees it — 4 bytes per access, tens of millions of accesses at paper scale.  Most
//! consumers never need the whole trace at once: the hardware simulator replays one
//! synchronization interval at a time and the DSM protocol simulators only look at
//! per-interval read/write *sets*.  `TraceSink` is the streaming contract between the
//! trace producers and those consumers: a sink receives the run one closed
//! barrier-to-barrier interval at a time, as every processor's accesses in program
//! order, so the same producer can fill a materialized [`crate::ProgramTrace`], drive
//! a cache simulator interval-by-interval, or reduce straight to page histories —
//! without the intermediate allocation.
//!
//! The applications reach a sink only through [`crate::ShardSet::run_interval`]; a
//! materialized trace reaches one through [`crate::ProgramTrace::replay_into`].

use crate::access::Access;

/// A consumer of a streamed trace: one call per synchronization interval, each closed
/// by a global barrier.
///
/// `streams` always has `num_procs()` entries, and `streams[p]` is processor `p`'s
/// accesses in program order (possibly none: empty intervals and idle processors are
/// delivered too).  A run is exactly the sequence of its intervals; there is no
/// partial interval.
pub trait TraceSink {
    /// Number of virtual processors the sink was sized for.
    fn num_procs(&self) -> usize;

    /// Consume one closed synchronization interval.
    fn interval(&mut self, streams: &[&[Access]]);
}

/// A sink that discards every interval — the consumer for passes that only want a
/// producer's side effects, such as timing or sizing generation on its own (the
/// shards still fill and drain, but nothing downstream is kept).
#[derive(Debug)]
pub struct NullSink {
    num_procs: usize,
}

impl NullSink {
    /// Size the sink for `num_procs` virtual processors.
    ///
    /// # Panics
    /// Panics if `num_procs` is zero.
    pub fn new(num_procs: usize) -> Self {
        assert!(num_procs > 0, "num_procs must be positive");
        NullSink { num_procs }
    }
}

impl TraceSink for NullSink {
    fn num_procs(&self) -> usize {
        self.num_procs
    }

    fn interval(&mut self, _streams: &[&[Access]]) {}
}

/// A sink that forwards every interval to two sinks (e.g. materialize a trace *and*
/// drive a simulator in one traced run).
#[derive(Debug)]
pub struct TeeSink<'a, A: TraceSink, B: TraceSink> {
    first: &'a mut A,
    second: &'a mut B,
}

impl<'a, A: TraceSink, B: TraceSink> TeeSink<'a, A, B> {
    /// Pair two sinks.
    ///
    /// # Panics
    /// Panics if the sinks disagree on the processor count.
    pub fn new(first: &'a mut A, second: &'a mut B) -> Self {
        assert_eq!(first.num_procs(), second.num_procs(), "tee'd sinks must agree on procs");
        TeeSink { first, second }
    }
}

impl<A: TraceSink, B: TraceSink> TraceSink for TeeSink<'_, A, B> {
    fn num_procs(&self) -> usize {
        self.first.num_procs()
    }

    fn interval(&mut self, streams: &[&[Access]]) {
        self.first.interval(streams);
        self.second.interval(streams);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::ObjectLayout;
    use crate::trace::TraceBuilder;

    #[test]
    fn tee_sink_feeds_both_consumers() {
        let layout = ObjectLayout::new(64, 64);
        let mut first = TraceBuilder::new(layout.clone(), 2);
        let mut second = TraceBuilder::new(layout, 2);
        {
            let mut tee = TeeSink::new(&mut first, &mut second);
            tee.interval(&[&[Access::write(3)], &[Access::read(4), Access::read(5)]]);
            tee.interval(&[&[Access::read(6)], &[]]);
        }
        let (first, second) = (first.finish(), second.finish());
        assert_eq!(first, second);
        assert_eq!(first.total_accesses(), 4);
        assert_eq!(first.intervals.len(), 2);
    }

    #[test]
    fn null_sink_swallows_everything() {
        let mut void = NullSink::new(3);
        void.interval(&[&[Access::write(1)], &[], &[Access::read(5)]]);
        assert_eq!(void.num_procs(), 3);
    }

    #[test]
    #[should_panic(expected = "num_procs must be positive")]
    fn zero_procs_panics() {
        NullSink::new(0);
    }
}
