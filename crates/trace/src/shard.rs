//! Sharded parallel trace generation: per-virtual-processor access buffers filled by
//! concurrent tasks, drained deterministically into any [`TraceSink`].
//!
//! The streaming consumers (PR 3/4) made trace *replay* scale, which left the trace
//! *producers* — the applications' `step_traced` paths — as the last serial stage of
//! the pipeline: they walk virtual processors one after another and emit one access at
//! a time, even though the per-processor work is embarrassingly parallel.  A
//! [`ShardSet`] removes that bottleneck without changing a single downstream counter:
//!
//! * each virtual processor gets a [`Shard`] — an append-only buffer of packed
//!   4-byte [`Access`]es plus its lock acquisitions — that a rayon task fills
//!   independently while it runs that processor's chunk of the computation;
//! * [`ShardSet::drain_interval`] then replays the shards into the sink **in
//!   processor order**, one `record_many` batch per processor, and closes the
//!   synchronization interval with a barrier.
//!
//! Determinism argument: every sink in this workspace ([`crate::TraceBuilder`],
//! the simulator, page-history and unit-set sinks) keys its state on
//! *(processor, interval)* — the cross-processor interleaving of `record` calls inside
//! one interval is never observable, only each processor's own access order is.  A
//! task that appends its processor's accesses in the same order the serial loop would
//! have emitted them therefore produces a bit-identical trace, and the drain reproduces
//! exactly the event stream [`crate::ProgramTrace::replay_into`] would emit for it.
//! The equivalence is pinned by the proptest suite in `crates/bench/tests`.
//!
//! Buffers are cleared, never dropped, by the drain, so steady-state generation
//! allocates nothing once the first interval has sized the shards.

use crate::access::Access;
use crate::sink::TraceSink;

/// One virtual processor's append-only event buffer for the current synchronization
/// interval: its accesses in program order plus the ids of the locks it acquired.
#[derive(Debug, Default, Clone)]
pub struct Shard {
    accesses: Vec<Access>,
    lock_ids: Vec<u32>,
}

impl Shard {
    /// Append a read of object `object`.
    #[inline]
    pub fn read(&mut self, object: usize) {
        self.accesses.push(Access::read(object));
    }

    /// Append a write of object `object`.
    #[inline]
    pub fn write(&mut self, object: usize) {
        self.accesses.push(Access::write(object));
    }

    /// Append a pre-built access.
    #[inline]
    pub fn record(&mut self, access: Access) {
        self.accesses.push(access);
    }

    /// Append a lock acquisition (and release) of lock `lock`.
    pub fn lock(&mut self, lock: u32) {
        self.lock_ids.push(lock);
    }

    /// The accesses buffered so far, in append order.
    pub fn accesses(&self) -> &[Access] {
        &self.accesses
    }

    /// Number of buffered accesses.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Whether the shard holds no accesses and no lock acquisitions.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty() && self.lock_ids.is_empty()
    }

    /// Forget the buffered events, keeping the allocations for the next interval.
    fn clear(&mut self) {
        self.accesses.clear();
        self.lock_ids.clear();
    }
}

/// A set of per-virtual-processor [`Shard`]s for one synchronization interval.
///
/// The intended cycle, once per interval: hand `shards_mut()` (or the individual
/// `shard_mut`s) to rayon tasks that fill them concurrently, then call
/// [`ShardSet::drain_interval`] to replay the interval into a sink and reset the
/// buffers.  The set is sized once for the run's virtual-processor count and reused
/// across intervals and iterations.
#[derive(Debug, Clone)]
pub struct ShardSet {
    shards: Vec<Shard>,
}

impl ShardSet {
    /// A shard per virtual processor.
    ///
    /// # Panics
    /// Panics if `num_procs` is zero.
    pub fn new(num_procs: usize) -> Self {
        assert!(num_procs > 0, "num_procs must be positive");
        ShardSet { shards: vec![Shard::default(); num_procs] }
    }

    /// Number of virtual processors the set was sized for.
    pub fn num_procs(&self) -> usize {
        self.shards.len()
    }

    /// Mutable access to one processor's shard.
    pub fn shard_mut(&mut self, proc: usize) -> &mut Shard {
        &mut self.shards[proc]
    }

    /// All shards, for fan-out to per-processor tasks (`par_iter_mut` + `zip` with the
    /// per-processor work lists).
    pub fn shards_mut(&mut self) -> &mut [Shard] {
        &mut self.shards
    }

    /// Total number of accesses buffered across all shards.
    pub fn total_accesses(&self) -> usize {
        self.shards.iter().map(Shard::len).sum()
    }

    /// Replay the buffered interval into `sink` without closing it: one `record_many`
    /// batch plus the lock acquisitions per processor, in ascending processor order —
    /// the same event stream [`crate::ProgramTrace::replay_into`] produces for a
    /// materialized interval.  Buffers are cleared (capacity kept).
    ///
    /// # Panics
    /// Panics if the sink disagrees on the processor count.
    pub fn drain_open<S: TraceSink + ?Sized>(&mut self, sink: &mut S) {
        assert_eq!(sink.num_procs(), self.num_procs(), "sink must match the processor count");
        // Fault site for the whole sink pipeline: everything the generators produce
        // funnels through this drain, so an injected panic or delay here exercises a
        // cell dying (or stalling) mid-stream.  Inert unless the `failpoints`
        // feature is on and the point is configured (DESIGN.md §13).
        failpoint::point!("trace/drain");
        for (proc, shard) in self.shards.iter_mut().enumerate() {
            if shard.is_empty() {
                continue;
            }
            sink.record_many(proc, &shard.accesses);
            for &lock in &shard.lock_ids {
                sink.lock(proc, lock);
            }
            shard.clear();
        }
    }

    /// [`ShardSet::drain_open`] followed by the barrier that closes the interval.
    pub fn drain_interval<S: TraceSink + ?Sized>(&mut self, sink: &mut S) {
        self.drain_open(sink);
        sink.barrier();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::ObjectLayout;
    use crate::trace::TraceBuilder;

    fn layout() -> ObjectLayout {
        ObjectLayout::new(64, 64)
    }

    /// Filling shards out of processor order and draining must equal emitting the same
    /// per-processor streams serially.
    #[test]
    fn drained_shards_match_a_serially_built_trace() {
        let mut serial = TraceBuilder::new(layout(), 3);
        serial.read(0, 1);
        serial.write(0, 2);
        serial.read(2, 9);
        serial.lock(1, 7);
        serial.barrier();
        serial.write(1, 5);
        serial.barrier();
        let expected = serial.finish();

        let mut shards = ShardSet::new(3);
        let mut sharded = TraceBuilder::new(layout(), 3);
        // Interval 1, filled in "parallel" (arbitrary shard order).
        shards.shard_mut(2).read(9);
        shards.shard_mut(0).read(1);
        shards.shard_mut(0).write(2);
        shards.shard_mut(1).lock(7);
        shards.drain_interval(&mut sharded);
        // Interval 2.
        shards.shard_mut(1).write(5);
        shards.drain_interval(&mut sharded);
        let got = sharded.finish();

        assert_eq!(expected, got);
    }

    #[test]
    fn drain_clears_but_keeps_the_shards_usable() {
        let mut shards = ShardSet::new(2);
        shards.shard_mut(0).record(Access::write(3));
        assert_eq!(shards.total_accesses(), 1);
        let mut builder = TraceBuilder::new(layout(), 2);
        shards.drain_interval(&mut builder);
        assert_eq!(shards.total_accesses(), 0);
        assert!(shards.shards_mut().iter().all(|s| s.is_empty()));
        // Refill after the drain.
        shards.shard_mut(1).read(4);
        shards.drain_interval(&mut builder);
        let trace = builder.finish();
        assert_eq!(trace.intervals.len(), 2);
        assert_eq!(trace.intervals[1].accesses[1], vec![Access::read(4)]);
    }

    #[test]
    fn drain_open_leaves_the_interval_unclosed() {
        let mut shards = ShardSet::new(1);
        shards.shard_mut(0).write(1);
        let mut builder = TraceBuilder::new(layout(), 1);
        shards.drain_open(&mut builder);
        let trace = builder.finish();
        assert_eq!(trace.num_barriers(), 0);
        assert_eq!(trace.intervals.len(), 1, "partial End interval is kept");
    }

    #[test]
    fn lock_only_shards_are_drained() {
        let mut shards = ShardSet::new(2);
        shards.shard_mut(1).lock(5);
        let mut builder = TraceBuilder::new(layout(), 2);
        shards.drain_interval(&mut builder);
        let trace = builder.finish();
        assert_eq!(trace.intervals[0].lock_acquisitions, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "num_procs must be positive")]
    fn zero_procs_panics() {
        ShardSet::new(0);
    }

    #[test]
    #[should_panic(expected = "sink must match the processor count")]
    fn mismatched_sink_panics() {
        let mut shards = ShardSet::new(2);
        let mut builder = TraceBuilder::new(layout(), 3);
        shards.drain_interval(&mut builder);
    }
}
