//! Streaming trace consumption: the [`TraceSink`] trait and incremental accumulators.
//!
//! A [`crate::TraceBuilder`] materializes every access of a run before any simulator
//! sees it — 4 bytes per access, tens of millions of accesses at paper scale.  Most
//! consumers never need the whole trace at once: the hardware simulator replays one
//! synchronization interval at a time and the DSM protocol simulators only look at
//! per-interval read/write *sets*.  `TraceSink` is the streaming contract between the
//! benchmark applications and those consumers: an application's traced execution path
//! emits accesses, lock acquisitions and barriers into any sink, so the same
//! `step_traced` code can fill a materialized [`crate::ProgramTrace`], drive a cache
//! simulator interval-by-interval, or reduce straight to unit access sets — without the
//! intermediate allocation.

use crate::access::Access;
use crate::layout::ObjectLayout;
use crate::sets::UnitAccessSets;

/// A consumer of a streamed trace: per-processor accesses and lock acquisitions,
/// punctuated by barriers that close synchronization intervals.
///
/// The contract mirrors [`crate::TraceBuilder`]'s recording surface (which is itself
/// one implementation): `proc` is always `< num_procs()`, and every access between two
/// `barrier` calls belongs to one synchronization interval.  Implementations must not
/// assume a trailing `barrier` — a final partial interval is legal and corresponds to
/// [`crate::SyncEvent::End`].
pub trait TraceSink {
    /// Number of virtual processors the sink was sized for.
    fn num_procs(&self) -> usize;

    /// Record one access by processor `proc`.
    fn record(&mut self, proc: usize, access: Access);

    /// Record that processor `proc` acquired (and released) lock `lock`.
    fn lock(&mut self, proc: usize, lock: u32);

    /// Close the current synchronization interval with a global barrier.
    fn barrier(&mut self);

    /// Record that processor `proc` read object `object`.
    #[inline]
    fn read(&mut self, proc: usize, object: usize) {
        self.record(proc, Access::read(object));
    }

    /// Record that processor `proc` wrote object `object`.
    #[inline]
    fn write(&mut self, proc: usize, object: usize) {
        self.record(proc, Access::write(object));
    }

    /// Record a whole slice of accesses for processor `proc` (applications that buffer
    /// per-task accesses locally merge them through this).
    fn record_many(&mut self, proc: usize, accesses: &[Access]) {
        for &a in accesses {
            self.record(proc, a);
        }
    }
}

/// A sink that discards every event — the consumer for passes that only want a
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

    fn record(&mut self, _proc: usize, _access: Access) {}

    fn lock(&mut self, _proc: usize, _lock: u32) {}

    fn barrier(&mut self) {}

    fn record_many(&mut self, _proc: usize, _accesses: &[Access]) {}
}

/// A sink that forwards every event to two sinks (e.g. materialize a trace *and* drive
/// a simulator in one traced run).
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

    fn record(&mut self, proc: usize, access: Access) {
        self.first.record(proc, access);
        self.second.record(proc, access);
    }

    fn lock(&mut self, proc: usize, lock: u32) {
        self.first.lock(proc, lock);
        self.second.lock(proc, lock);
    }

    fn barrier(&mut self) {
        self.first.barrier();
        self.second.barrier();
    }

    fn record_many(&mut self, proc: usize, accesses: &[Access]) {
        // Forward the batch so both sinks keep their `extend_from_slice` fast path.
        self.first.record_many(proc, accesses);
        self.second.record_many(proc, accesses);
    }
}

/// The per-interval reduction a [`UnitSetsSink`] produces: each processor's unit access
/// sets plus its lock acquisitions for one synchronization interval.
#[derive(Debug, Clone)]
pub struct IntervalUnitSets {
    /// `per_proc[p]` — the units and objects processor `p` read and wrote.
    pub per_proc: Vec<UnitAccessSets>,
    /// Lock acquisitions per processor.
    pub lock_acquisitions: Vec<u32>,
    /// Total accesses per processor (compute-work proxy for the cost models).
    pub accesses: Vec<u64>,
}

impl IntervalUnitSets {
    fn new(num_procs: usize) -> Self {
        IntervalUnitSets {
            per_proc: vec![UnitAccessSets::default(); num_procs],
            lock_acquisitions: vec![0; num_procs],
            accesses: vec![0; num_procs],
        }
    }

    fn is_empty(&self) -> bool {
        self.accesses.iter().all(|&a| a == 0) && self.lock_acquisitions.iter().all(|&l| l == 0)
    }
}

/// A [`TraceSink`] that reduces the stream directly to per-interval
/// [`UnitAccessSets`] — the representation the DSM analyses consume — without ever
/// materializing the access streams.
///
/// The accumulation is incremental: each access folds into the current interval's sets
/// as it arrives, so memory is bounded by the number of *distinct* units and objects
/// touched per interval rather than by the access count.
#[derive(Debug)]
pub struct UnitSetsSink {
    layout: ObjectLayout,
    unit_bytes: usize,
    current: IntervalUnitSets,
    intervals: Vec<IntervalUnitSets>,
}

impl UnitSetsSink {
    /// Start a reduction over consistency units of `unit_bytes` bytes for an object
    /// array with the given layout, partitioned over `num_procs` virtual processors.
    ///
    /// # Panics
    /// Panics if `num_procs` or `unit_bytes` is zero.
    pub fn new(layout: ObjectLayout, num_procs: usize, unit_bytes: usize) -> Self {
        assert!(num_procs > 0, "num_procs must be positive");
        assert!(unit_bytes > 0, "unit_bytes must be positive");
        UnitSetsSink {
            layout,
            unit_bytes,
            current: IntervalUnitSets::new(num_procs),
            intervals: Vec::new(),
        }
    }

    /// Consistency-unit size the reduction runs at.
    pub fn unit_bytes(&self) -> usize {
        self.unit_bytes
    }

    /// Finish the stream and return one [`IntervalUnitSets`] per synchronization
    /// interval (a non-empty trailing interval is kept, like
    /// [`crate::TraceBuilder::finish`]).
    pub fn finish(mut self) -> Vec<IntervalUnitSets> {
        if !self.current.is_empty() {
            self.intervals.push(self.current);
        }
        self.intervals
    }
}

impl TraceSink for UnitSetsSink {
    fn num_procs(&self) -> usize {
        self.current.per_proc.len()
    }

    fn record(&mut self, proc: usize, access: Access) {
        debug_assert!(proc < self.num_procs());
        self.current.per_proc[proc].add(access, &self.layout, self.unit_bytes);
        self.current.accesses[proc] += 1;
    }

    fn lock(&mut self, proc: usize, lock: u32) {
        debug_assert!(proc < self.num_procs());
        let _ = lock;
        self.current.lock_acquisitions[proc] += 1;
    }

    fn barrier(&mut self) {
        let num_procs = self.num_procs();
        let finished = std::mem::replace(&mut self.current, IntervalUnitSets::new(num_procs));
        self.intervals.push(finished);
    }

    fn record_many(&mut self, proc: usize, accesses: &[Access]) {
        debug_assert!(proc < self.num_procs());
        // Hoist the per-processor lookups out of the loop: the replay hot path delivers
        // whole interval streams through this, so per-access indexing (and the bounds
        // checks that come with it) would dominate the fold itself.
        let sets = &mut self.current.per_proc[proc];
        for &a in accesses {
            sets.add(a, &self.layout, self.unit_bytes);
        }
        self.current.accesses[proc] += accesses.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceBuilder;

    fn layout() -> ObjectLayout {
        ObjectLayout::new(64, 64)
    }

    #[test]
    fn unit_sets_sink_matches_the_materialized_reduction() {
        // Drive the identical event stream into a TraceBuilder and a UnitSetsSink and
        // compare the per-interval reductions.
        let mut builder = TraceBuilder::new(layout(), 3);
        let mut sink = UnitSetsSink::new(layout(), 3, 512);
        let drive = |s: &mut dyn TraceSink| {
            s.write(0, 1);
            s.read(1, 9);
            s.lock(2, 5);
            s.barrier();
            s.read(0, 33);
            s.write(2, 33);
        };
        drive(&mut builder);
        drive(&mut sink);
        let trace = builder.finish();
        let streamed = sink.finish();
        assert_eq!(streamed.len(), trace.intervals.len());
        for (interval, stream) in trace.intervals.iter().zip(&streamed) {
            assert_eq!(interval.unit_sets(&layout(), 512), stream.per_proc);
            assert_eq!(interval.lock_acquisitions, stream.lock_acquisitions);
            let lens: Vec<u64> = interval.accesses.iter().map(|s| s.len() as u64).collect();
            assert_eq!(lens, stream.accesses);
        }
    }

    #[test]
    fn empty_trailing_interval_is_dropped() {
        let mut sink = UnitSetsSink::new(layout(), 2, 512);
        sink.write(0, 1);
        sink.barrier();
        assert_eq!(sink.finish().len(), 1);
    }

    #[test]
    fn lock_only_interval_is_kept() {
        let mut sink = UnitSetsSink::new(layout(), 2, 512);
        sink.lock(1, 9);
        let intervals = sink.finish();
        assert_eq!(intervals.len(), 1);
        assert_eq!(intervals[0].lock_acquisitions, vec![0, 1]);
    }

    #[test]
    fn tee_sink_feeds_both_consumers() {
        let mut builder = TraceBuilder::new(layout(), 2);
        let mut sets = UnitSetsSink::new(layout(), 2, 512);
        {
            let mut tee = TeeSink::new(&mut builder, &mut sets);
            tee.write(0, 3);
            tee.read(1, 4);
            tee.barrier();
        }
        let trace = builder.finish();
        let streamed = sets.finish();
        assert_eq!(trace.total_accesses(), 2);
        assert_eq!(streamed.len(), 1);
        assert!(streamed[0].per_proc[0].wrote_unit(0));
    }

    #[test]
    fn batched_record_many_matches_one_at_a_time() {
        let accesses = [Access::write(1), Access::read(9), Access::read(9), Access::write(33)];
        let mut one_at_a_time = UnitSetsSink::new(layout(), 2, 512);
        for &a in &accesses {
            one_at_a_time.record(1, a);
        }
        let mut batched = UnitSetsSink::new(layout(), 2, 512);
        batched.record_many(1, &accesses);
        batched.record_many(1, &[]);
        let (a, b) = (one_at_a_time.finish(), batched.finish());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.per_proc, y.per_proc);
            assert_eq!(x.accesses, y.accesses);
        }
    }

    #[test]
    fn null_sink_swallows_everything() {
        let mut void = NullSink::new(3);
        void.write(0, 1);
        void.record_many(2, &[Access::read(5)]);
        void.lock(1, 7);
        void.barrier();
        assert_eq!(void.num_procs(), 3);
    }

    #[test]
    #[should_panic(expected = "num_procs must be positive")]
    fn zero_procs_panics() {
        UnitSetsSink::new(layout(), 0, 512);
    }
}
