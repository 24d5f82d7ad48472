//! Program traces: per-processor access streams divided into synchronization intervals.
//!
//! Page-based lazy-release-consistency protocols (TreadMarks, HLRC) propagate
//! modifications at synchronization points, so the unit of analysis is the *interval*:
//! everything a processor does between two consecutive barriers.  The hardware cache
//! simulator consumes the same intervals but replays the accesses in order.  A
//! [`TraceBuilder`] collects the intervals a run streams in (or that a serial oracle
//! records access by access); the finished [`ProgramTrace`] is immutable and shared by
//! all analyses.

use crate::access::Access;
use crate::layout::ObjectLayout;
use crate::sink::TraceSink;

/// One synchronization interval: the accesses performed by every virtual processor
/// between two consecutive barriers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalTrace {
    /// `accesses[p]` is the ordered access stream of virtual processor `p`.
    pub accesses: Vec<Vec<Access>>,
}

impl IntervalTrace {
    /// Total number of accesses in the interval across all processors.
    pub fn total_accesses(&self) -> usize {
        self.accesses.iter().map(Vec::len).sum()
    }
}

/// A complete traced execution: the object-array layout plus every interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramTrace {
    /// Layout of the primary object array the accesses refer to.
    pub layout: ObjectLayout,
    /// Number of virtual processors the computation was partitioned over.
    pub num_procs: usize,
    /// The synchronization intervals, in program order; each ends at a barrier.
    pub intervals: Vec<IntervalTrace>,
}

impl ProgramTrace {
    /// Total number of accesses in the whole trace.
    pub fn total_accesses(&self) -> usize {
        self.intervals.iter().map(IntervalTrace::total_accesses).sum()
    }

    /// Replay this materialized trace into a [`TraceSink`]: one
    /// [`TraceSink::interval`] call per interval, in program order, exactly what the
    /// run's [`crate::ShardSet::run_interval`]s delivered.
    ///
    /// Feeding a `TraceBuilder` therefore reconstructs an equal trace, and feeding a
    /// streaming reducer (a simulator sink or a page-history sink) yields exactly the
    /// counters the streaming application path would produce — which is how the
    /// equivalence suites pin streamed and materialized reductions to each other.
    pub fn replay_into<S: TraceSink>(&self, sink: &mut S) {
        let mut streams: Vec<&[Access]> = Vec::with_capacity(self.num_procs);
        for interval in &self.intervals {
            streams.clear();
            streams.extend(interval.accesses.iter().map(Vec::as_slice));
            sink.interval(&streams);
        }
    }
}

/// Builds a [`ProgramTrace`], either as the [`TraceSink`] a run streams its intervals
/// into or access by access through [`TraceBuilder::read`], [`TraceBuilder::write`]
/// and [`TraceBuilder::barrier`] (the applications' serial `step_traced` oracles).
///
/// The builder is deliberately sequential: applications partition their work over `P`
/// *virtual* processors and record each virtual processor's accesses explicitly, so the
/// simulated machine size is independent of the number of host threads actually used to
/// run the computation.
#[derive(Debug)]
pub struct TraceBuilder {
    layout: ObjectLayout,
    intervals: Vec<IntervalTrace>,
    /// The open interval's per-processor streams.
    current: Vec<Vec<Access>>,
}

impl TraceBuilder {
    /// Start a trace for an object array with the given layout, partitioned over
    /// `num_procs` virtual processors.
    ///
    /// # Panics
    /// Panics if `num_procs` is zero.
    pub fn new(layout: ObjectLayout, num_procs: usize) -> Self {
        assert!(num_procs > 0, "num_procs must be positive");
        TraceBuilder { layout, intervals: Vec::new(), current: vec![Vec::new(); num_procs] }
    }

    /// Record that processor `proc` read object `object`.
    #[inline]
    pub fn read(&mut self, proc: usize, object: usize) {
        debug_assert!(object < self.layout.num_objects);
        self.current[proc].push(Access::read(object));
    }

    /// Record that processor `proc` wrote object `object`.
    #[inline]
    pub fn write(&mut self, proc: usize, object: usize) {
        debug_assert!(object < self.layout.num_objects);
        self.current[proc].push(Access::write(object));
    }

    /// Close the current interval with a global barrier.
    pub fn barrier(&mut self) {
        let fresh = vec![Vec::new(); self.current.len()];
        let accesses = std::mem::replace(&mut self.current, fresh);
        self.intervals.push(IntervalTrace { accesses });
    }

    /// Finish the trace.
    ///
    /// # Panics
    /// Panics if accesses were recorded after the last barrier: every interval of a
    /// trace ends at a barrier.
    pub fn finish(self) -> ProgramTrace {
        assert!(
            self.current.iter().all(Vec::is_empty),
            "the trace ends mid-interval: close it with a barrier"
        );
        let num_procs = self.current.len();
        ProgramTrace { layout: self.layout, num_procs, intervals: self.intervals }
    }
}

/// The materializing sink: a `TraceBuilder` is one [`TraceSink`] among others (the
/// streaming simulator and page-history sinks avoid materialization entirely).
impl TraceSink for TraceBuilder {
    fn num_procs(&self) -> usize {
        self.current.len()
    }

    fn interval(&mut self, streams: &[&[Access]]) {
        assert_eq!(streams.len(), self.current.len(), "one stream per processor");
        for (current, stream) in self.current.iter_mut().zip(streams) {
            current.extend_from_slice(stream);
        }
        self.barrier();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_layout() -> ObjectLayout {
        ObjectLayout::new(64, 64)
    }

    #[test]
    fn builder_splits_intervals_at_barriers() {
        let mut b = TraceBuilder::new(small_layout(), 2);
        b.read(0, 1);
        b.write(1, 2);
        b.barrier();
        b.write(0, 3);
        b.barrier();
        let t = b.finish();
        assert_eq!(t.intervals.len(), 2);
        assert_eq!(t.intervals[0].accesses[0], vec![Access::read(1)]);
        assert_eq!(t.intervals[0].accesses[1], vec![Access::write(2)]);
        assert_eq!(t.intervals[1].accesses[0], vec![Access::write(3)]);
        assert!(t.intervals[1].accesses[1].is_empty());
        assert_eq!(t.total_accesses(), 3);
    }

    #[test]
    #[should_panic(expected = "the trace ends mid-interval")]
    fn unfinished_interval_panics_at_finish() {
        let mut b = TraceBuilder::new(small_layout(), 1);
        b.read(0, 0);
        b.finish();
    }

    #[test]
    fn empty_barrier_closed_intervals_are_kept() {
        let mut b = TraceBuilder::new(small_layout(), 1);
        b.read(0, 0);
        b.barrier();
        b.barrier();
        let t = b.finish();
        assert_eq!(t.intervals.len(), 2);
        assert_eq!(t.intervals[1].total_accesses(), 0);
    }

    #[test]
    fn sink_intervals_append_in_order() {
        let mut b = TraceBuilder::new(small_layout(), 2);
        b.interval(&[&[Access::read(1), Access::write(2)], &[]]);
        b.interval(&[&[], &[Access::read(3)]]);
        let t = b.finish();
        assert_eq!(t.intervals.len(), 2);
        assert_eq!(t.intervals[0].accesses[0], vec![Access::read(1), Access::write(2)]);
        assert_eq!(t.intervals[1].accesses[1], vec![Access::read(3)]);
    }

    #[test]
    #[should_panic(expected = "num_procs must be positive")]
    fn zero_processors_panics() {
        TraceBuilder::new(small_layout(), 0);
    }

    #[test]
    fn replay_into_round_trips_through_a_builder() {
        let mut b = TraceBuilder::new(small_layout(), 2);
        b.read(0, 1);
        b.barrier();
        b.barrier(); // an empty interval replays as an empty interval
        b.write(1, 2);
        b.barrier();
        let trace = b.finish();

        let mut replayed = TraceBuilder::new(small_layout(), 2);
        trace.replay_into(&mut replayed);
        assert_eq!(replayed.finish(), trace);
    }
}
