//! Sharded parallel trace generation: per-virtual-processor access buffers filled by
//! concurrent tasks, drained deterministically into any [`TraceSink`].
//!
//! The applications' traced paths walk `P` virtual processors whose per-processor work
//! is embarrassingly parallel.  A [`ShardSet`] runs that work in parallel without
//! changing a single downstream counter:
//!
//! * each virtual processor gets a [`Shard`] — an append-only buffer of packed
//!   4-byte [`Access`]es — that a rayon task fills independently while it runs that
//!   processor's chunk of the computation (a sequential phase, such as a tree build,
//!   fills shard 0 alone);
//! * [`ShardSet::drain_interval`] then hands every shard's accesses to the sink as
//!   one closed synchronization interval, `streams[p]` being shard `p`'s buffer.
//!
//! The drain is the only way the applications reach a sink.  Determinism argument:
//! a sink sees each processor's accesses in that processor's program order and never
//! an interleaving across processors, so a task that appends its processor's accesses
//! in the same order the serial loop would have recorded them produces a
//! bit-identical trace, and the drain delivers exactly what
//! [`crate::ProgramTrace::replay_into`] delivers for it.  The equivalence is pinned
//! by the proptest suite in `crates/bench/tests`.
//!
//! Buffers are cleared, never dropped, by the drain, so steady-state generation
//! allocates nothing but the drain's `P`-entry slice table once the first interval
//! has sized the shards.

use crate::access::Access;
use crate::sink::TraceSink;

/// One virtual processor's append-only access buffer for the current synchronization
/// interval, in program order.
#[derive(Debug, Default, Clone)]
pub struct Shard {
    accesses: Vec<Access>,
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
}

/// A set of per-virtual-processor [`Shard`]s for one synchronization interval.
///
/// The intended cycle, once per interval: hand `shards_mut()` (or the individual
/// `shard_mut`s) to rayon tasks that fill them concurrently, then call
/// [`ShardSet::drain_interval`] to deliver the interval to a sink and reset the
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

    /// Close the interval: hand every shard's accesses to `sink` as one
    /// [`TraceSink::interval`] call, in processor order, then clear the buffers
    /// (capacity kept).  Empty shards, and wholly empty intervals, are delivered too.
    ///
    /// # Panics
    /// Panics if the sink disagrees on the processor count.
    pub fn drain_interval<S: TraceSink + ?Sized>(&mut self, sink: &mut S) {
        assert_eq!(sink.num_procs(), self.num_procs(), "sink must match the processor count");
        // Fault site for the whole sink pipeline: everything the generators produce
        // funnels through this drain, so an injected panic or delay here exercises a
        // cell dying (or stalling) mid-stream.  Inert unless the `failpoints`
        // feature is on and the point is configured (DESIGN.md §13).
        failpoint::point!("trace/drain");
        let streams: Vec<&[Access]> = self.shards.iter().map(|s| s.accesses.as_slice()).collect();
        sink.interval(&streams);
        for shard in &mut self.shards {
            shard.accesses.clear();
        }
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

    /// Filling shards out of processor order and draining must equal recording the
    /// same per-processor streams serially.
    #[test]
    fn drained_shards_match_a_serially_built_trace() {
        let mut serial = TraceBuilder::new(layout(), 3);
        serial.read(0, 1);
        serial.write(0, 2);
        serial.read(2, 9);
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
        shards.shard_mut(0).write(3);
        let mut builder = TraceBuilder::new(layout(), 2);
        shards.drain_interval(&mut builder);
        // Refill after the drain: only the new access is delivered.
        shards.shard_mut(1).read(4);
        shards.drain_interval(&mut builder);
        // An interval with no accesses at all is still an interval.
        shards.drain_interval(&mut builder);
        let trace = builder.finish();
        assert_eq!(trace.intervals.len(), 3);
        assert_eq!(trace.intervals[0].accesses, vec![vec![Access::write(3)], vec![]]);
        assert_eq!(trace.intervals[1].accesses, vec![vec![], vec![Access::read(4)]]);
        assert_eq!(trace.intervals[2].total_accesses(), 0);
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
