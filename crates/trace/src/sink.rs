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
//! simulator interval-by-interval, or reduce straight to page histories — without the
//! intermediate allocation.

use crate::access::Access;

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
            tee.write(0, 3);
            tee.record_many(1, &[Access::read(4), Access::read(5)]);
            tee.lock(1, 7);
            tee.barrier();
            tee.read(0, 6);
        }
        let (first, second) = (first.finish(), second.finish());
        assert_eq!(first, second);
        assert_eq!(first.total_accesses(), 4);
        assert_eq!(first.num_barriers(), 1);
        assert_eq!(first.num_lock_acquisitions(), 1);
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
        NullSink::new(0);
    }
}
