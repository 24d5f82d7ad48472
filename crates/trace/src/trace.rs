//! Program traces: per-processor access streams divided into synchronization intervals.
//!
//! Page-based lazy-release-consistency protocols (TreadMarks, HLRC) propagate
//! modifications at synchronization points, so the unit of analysis is the *interval*:
//! everything a processor does between two consecutive barriers (or lock operations).
//! The hardware cache simulator consumes the same intervals but replays the accesses in
//! order.  A [`TraceBuilder`] is filled in by the benchmark applications as they execute
//! their partitioned computation; the finished [`ProgramTrace`] is immutable and shared
//! by all analyses.

use crate::access::Access;
use crate::layout::ObjectLayout;
use crate::sink::TraceSink;

/// A synchronization event separating intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncEvent {
    /// A global barrier: every processor participates.
    Barrier,
    /// A lock acquire/release pair on the lock with the given id, performed by the
    /// processor recorded in the interval.  Locks are modelled at interval granularity:
    /// the DSM cost model charges a lock round-trip per recorded acquisition.
    Lock(u32),
    /// End of the traced program (implicit final barrier).
    End,
}

/// One synchronization interval: the accesses performed by every virtual processor
/// between the previous synchronization point and `closing_sync`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalTrace {
    /// `accesses[p]` is the ordered access stream of virtual processor `p`.
    pub accesses: Vec<Vec<Access>>,
    /// Number of lock acquisitions performed by each processor during the interval.
    pub lock_acquisitions: Vec<u32>,
    /// The synchronization event that closes the interval.
    pub closing_sync: SyncEvent,
}

impl IntervalTrace {
    fn new(num_procs: usize) -> Self {
        IntervalTrace {
            accesses: vec![Vec::new(); num_procs],
            lock_acquisitions: vec![0; num_procs],
            closing_sync: SyncEvent::End,
        }
    }

    /// Total number of accesses in the interval across all processors.
    pub fn total_accesses(&self) -> usize {
        self.accesses.iter().map(Vec::len).sum()
    }

    /// Whether no processor recorded any access in this interval.
    pub fn is_empty(&self) -> bool {
        self.accesses.iter().all(Vec::is_empty) && self.lock_acquisitions.iter().all(|&l| l == 0)
    }
}

/// A complete traced execution: the object-array layout plus every interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramTrace {
    /// Layout of the primary object array the accesses refer to.
    pub layout: ObjectLayout,
    /// Number of virtual processors the computation was partitioned over.
    pub num_procs: usize,
    /// The synchronization intervals, in program order.
    pub intervals: Vec<IntervalTrace>,
}

impl ProgramTrace {
    /// Total number of accesses in the whole trace.
    pub fn total_accesses(&self) -> usize {
        self.intervals.iter().map(IntervalTrace::total_accesses).sum()
    }

    /// Total number of barriers in the trace (intervals closed by a barrier, plus the
    /// implicit final one if the last interval is non-empty).
    pub fn num_barriers(&self) -> usize {
        self.intervals.iter().filter(|i| matches!(i.closing_sync, SyncEvent::Barrier)).count()
    }

    /// Total number of lock acquisitions in the trace.
    pub fn num_lock_acquisitions(&self) -> u64 {
        self.intervals.iter().flat_map(|i| i.lock_acquisitions.iter()).map(|&l| u64::from(l)).sum()
    }

    /// Replay this materialized trace into a [`TraceSink`], reproducing the event
    /// stream that built it: per-processor access batches and lock acquisitions per
    /// interval, a `barrier` for every barrier-closed interval, and **no** barrier for
    /// a trailing [`SyncEvent::End`] interval.
    ///
    /// Feeding a `TraceBuilder` therefore reconstructs an equivalent trace, and feeding
    /// a streaming reducer (a simulator sink or a page-history sink) yields exactly the
    /// counters the streaming application path would produce — which is how the
    /// equivalence suites pin streamed and materialized reductions to each other.
    ///
    /// Lock identities are not stored in the trace (only per-processor counts), so
    /// replayed acquisitions all use lock id 0; every current sink ignores the id.
    pub fn replay_into<S: TraceSink>(&self, sink: &mut S) {
        for interval in &self.intervals {
            for (p, stream) in interval.accesses.iter().enumerate() {
                sink.record_many(p, stream);
            }
            for (p, &locks) in interval.lock_acquisitions.iter().enumerate() {
                for _ in 0..locks {
                    sink.lock(p, 0);
                }
            }
            if matches!(interval.closing_sync, SyncEvent::Barrier) {
                sink.barrier();
            }
        }
    }
}

/// Incrementally builds a [`ProgramTrace`] while an application executes its
/// partitioned computation.
///
/// The builder is deliberately sequential: applications partition their work over `P`
/// *virtual* processors and record each virtual processor's accesses explicitly, so the
/// simulated machine size is independent of the number of host threads actually used to
/// run the computation.
#[derive(Debug)]
pub struct TraceBuilder {
    layout: ObjectLayout,
    num_procs: usize,
    intervals: Vec<IntervalTrace>,
    current: IntervalTrace,
}

impl TraceBuilder {
    /// Start a trace for an object array with the given layout, partitioned over
    /// `num_procs` virtual processors.
    ///
    /// # Panics
    /// Panics if `num_procs` is zero.
    pub fn new(layout: ObjectLayout, num_procs: usize) -> Self {
        assert!(num_procs > 0, "num_procs must be positive");
        TraceBuilder {
            layout,
            num_procs,
            intervals: Vec::new(),
            current: IntervalTrace::new(num_procs),
        }
    }

    /// Number of virtual processors.
    pub fn num_procs(&self) -> usize {
        self.num_procs
    }

    /// Record that processor `proc` read object `object`.
    #[inline]
    pub fn read(&mut self, proc: usize, object: usize) {
        debug_assert!(proc < self.num_procs);
        debug_assert!(object < self.layout.num_objects);
        self.current.accesses[proc].push(Access::read(object));
    }

    /// Record that processor `proc` wrote object `object`.
    #[inline]
    pub fn write(&mut self, proc: usize, object: usize) {
        debug_assert!(proc < self.num_procs);
        debug_assert!(object < self.layout.num_objects);
        self.current.accesses[proc].push(Access::write(object));
    }

    /// Record a pre-built access for processor `proc`.
    #[inline]
    pub fn record(&mut self, proc: usize, access: Access) {
        debug_assert!(proc < self.num_procs);
        self.current.accesses[proc].push(access);
    }

    /// Record a whole slice of accesses for processor `proc` (used by applications that
    /// buffer their per-task accesses locally while running under rayon and merge them
    /// into the builder afterwards).
    pub fn record_many(&mut self, proc: usize, accesses: &[Access]) {
        debug_assert!(proc < self.num_procs);
        self.current.accesses[proc].extend_from_slice(accesses);
    }

    /// Record that processor `proc` acquired (and released) lock `lock`.
    pub fn lock(&mut self, proc: usize, lock: u32) {
        debug_assert!(proc < self.num_procs);
        let _ = lock;
        self.current.lock_acquisitions[proc] += 1;
    }

    /// Close the current interval with a global barrier.
    pub fn barrier(&mut self) {
        let mut finished = std::mem::replace(&mut self.current, IntervalTrace::new(self.num_procs));
        finished.closing_sync = SyncEvent::Barrier;
        self.intervals.push(finished);
    }

    /// Finish the trace.  A non-empty in-progress interval is closed with
    /// [`SyncEvent::End`].
    pub fn finish(mut self) -> ProgramTrace {
        if !self.current.is_empty() {
            self.current.closing_sync = SyncEvent::End;
            self.intervals.push(self.current);
        }
        ProgramTrace { layout: self.layout, num_procs: self.num_procs, intervals: self.intervals }
    }
}

/// The materializing sink: a `TraceBuilder` is one [`TraceSink`] among others (the
/// streaming simulator and unit-set sinks avoid materialization entirely).
impl TraceSink for TraceBuilder {
    fn num_procs(&self) -> usize {
        self.num_procs
    }

    fn record(&mut self, proc: usize, access: Access) {
        TraceBuilder::record(self, proc, access);
    }

    fn lock(&mut self, proc: usize, lock: u32) {
        TraceBuilder::lock(self, proc, lock);
    }

    fn barrier(&mut self) {
        TraceBuilder::barrier(self);
    }

    fn record_many(&mut self, proc: usize, accesses: &[Access]) {
        TraceBuilder::record_many(self, proc, accesses);
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
        assert_eq!(t.num_barriers(), 2);
        assert_eq!(t.total_accesses(), 3);
    }

    #[test]
    fn unfinished_interval_is_kept_at_finish() {
        let mut b = TraceBuilder::new(small_layout(), 1);
        b.read(0, 0);
        let t = b.finish();
        assert_eq!(t.intervals.len(), 1);
        assert_eq!(t.intervals[0].closing_sync, SyncEvent::End);
    }

    #[test]
    fn empty_trailing_interval_is_dropped() {
        let mut b = TraceBuilder::new(small_layout(), 1);
        b.read(0, 0);
        b.barrier();
        let t = b.finish();
        assert_eq!(t.intervals.len(), 1);
    }

    #[test]
    fn lock_acquisitions_are_counted_per_processor() {
        let mut b = TraceBuilder::new(small_layout(), 3);
        b.lock(0, 7);
        b.lock(0, 7);
        b.lock(2, 1);
        b.barrier();
        let t = b.finish();
        assert_eq!(t.intervals[0].lock_acquisitions, vec![2, 0, 1]);
        assert_eq!(t.num_lock_acquisitions(), 3);
    }

    #[test]
    fn record_many_appends_in_order() {
        let mut b = TraceBuilder::new(small_layout(), 1);
        b.record_many(0, &[Access::read(1), Access::write(2)]);
        b.record(0, Access::read(3));
        let t = b.finish();
        assert_eq!(
            t.intervals[0].accesses[0],
            vec![Access::read(1), Access::write(2), Access::read(3)]
        );
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
        b.lock(1, 7);
        b.barrier();
        b.write(1, 2); // trailing End interval: replay must not emit a barrier for it
        let trace = b.finish();

        let mut replayed = TraceBuilder::new(small_layout(), 2);
        trace.replay_into(&mut replayed);
        let replayed = replayed.finish();
        assert_eq!(replayed.intervals.len(), trace.intervals.len());
        assert_eq!(replayed.num_barriers(), trace.num_barriers());
        assert_eq!(replayed.num_lock_acquisitions(), trace.num_lock_acquisitions());
        for (a, b) in trace.intervals.iter().zip(&replayed.intervals) {
            assert_eq!(a.accesses, b.accesses);
            assert_eq!(a.lock_acquisitions, b.lock_acquisitions);
            assert_eq!(a.closing_sync, b.closing_sync);
        }
    }
}
