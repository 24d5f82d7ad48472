//! Sharded parallel trace generation: per-virtual-processor access buffers filled by
//! concurrent tasks, drained deterministically into any [`TraceSink`].
//!
//! The applications' traced paths are barrier-separated SPMD phases over `P` virtual
//! processors.  [`ShardSet::run_interval`] runs one such phase: processor `p`'s work
//! item becomes one rayon task that fills that processor's [`Shard`] (an append-only
//! buffer of packed 4-byte [`Access`]es), and the interval is then closed into the
//! sink.  It is the only way the applications produce an interval; the determinism
//! argument is on that method.
//!
//! Buffers are cleared, never dropped, by the drain, so steady-state generation
//! allocates nothing but the per-interval task and slice tables once the first
//! interval has sized the shards.

use rayon::prelude::*;

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
/// The set is sized once for the run's virtual-processor count and reused across
/// intervals and iterations: [`ShardSet::run_interval`] fills and closes one interval
/// per call.
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

    /// Run one barrier-closed interval: `fill(shard_p, item_p)` for the `p`-th item of
    /// `work`, each as one rayon task, then [`ShardSet::drain_interval`] into `sink`.
    /// Shards past the last item stay empty (a sequential phase, such as a tree build,
    /// passes one item and fills shard 0 alone).
    ///
    /// Determinism: a sink sees each processor's accesses in that processor's program
    /// order and never an interleaving across processors, so a `fill` that appends
    /// processor `p`'s accesses in the order the serial loop would have recorded them
    /// produces a bit-identical trace whatever the worker count, and the drain
    /// delivers exactly what [`crate::ProgramTrace::replay_into`] delivers for it.  The
    /// equivalence is pinned by the proptest suite in `crates/bench/tests`.
    ///
    /// # Panics
    /// Panics if `work` has more items than processors, if the sink disagrees on the
    /// processor count, or with the first panic of a `fill` task (after its sibling
    /// tasks finish; nothing is delivered and the shards are not cleared).
    pub fn run_interval<S, I, F>(&mut self, sink: &mut S, work: I, fill: F)
    where
        S: TraceSink + ?Sized,
        I: IntoIterator,
        I::Item: Send,
        F: Fn(&mut Shard, I::Item) + Sync,
    {
        let mut work = work.into_iter();
        let tasks: Vec<_> = self.shards.iter_mut().zip(work.by_ref()).collect();
        assert!(work.next().is_none(), "more work items than processors");
        tasks.into_par_iter().for_each(|(shard, item)| fill(shard, item));
        self.drain_interval(sink);
    }

    /// Mutable access to one processor's shard, for tests that fill an interval by
    /// hand before [`ShardSet::drain_interval`].
    pub fn shard_mut(&mut self, proc: usize) -> &mut Shard {
        &mut self.shards[proc]
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

    /// Each driver call's intervals, as the sink received them (`TraceBuilder` keeps
    /// one `IntervalTrace` per `interval` call, empty ones included).
    fn intervals(builder: TraceBuilder) -> Vec<Vec<Vec<Access>>> {
        builder.finish().intervals.into_iter().map(|i| i.accesses).collect()
    }

    #[test]
    fn run_interval_lands_item_p_in_shard_p_in_order() {
        let mut shards = ShardSet::new(3);
        let mut builder = TraceBuilder::new(layout(), 3);
        let work: Vec<Vec<usize>> = vec![vec![4, 1, 4], vec![], vec![7, 2]];
        for threads in [1, 2, 8] {
            rayon::with_num_threads(threads, || {
                shards.run_interval(&mut builder, &work, |shard, objects| {
                    for &o in objects {
                        shard.read(o);
                    }
                    shard.write(objects.len());
                });
            });
        }
        let expected = vec![
            vec![Access::read(4), Access::read(1), Access::read(4), Access::write(3)],
            vec![Access::write(0)],
            vec![Access::read(7), Access::read(2), Access::write(2)],
        ];
        assert_eq!(intervals(builder), vec![expected; 3]);
    }

    #[test]
    fn run_interval_delivers_shards_past_the_last_item_empty() {
        let mut shards = ShardSet::new(4);
        let mut builder = TraceBuilder::new(layout(), 4);
        shards.run_interval(&mut builder, [()], |shard, ()| shard.read(9));
        shards.run_interval(&mut builder, 0..2, |shard, p| shard.write(p));
        assert_eq!(
            intervals(builder),
            vec![
                vec![vec![Access::read(9)], vec![], vec![], vec![]],
                vec![vec![Access::write(0)], vec![Access::write(1)], vec![], vec![]],
            ]
        );
    }

    #[test]
    fn run_interval_closes_exactly_one_interval_even_without_accesses() {
        let mut shards = ShardSet::new(2);
        let mut builder = TraceBuilder::new(layout(), 2);
        shards.run_interval(&mut builder, std::iter::empty::<()>(), |_, ()| {});
        shards.run_interval(&mut builder, [(), ()], |_, ()| {});
        assert_eq!(intervals(builder), vec![vec![vec![], vec![]]; 2]);
    }

    #[test]
    #[should_panic(expected = "more work items than processors")]
    fn run_interval_with_more_items_than_processors_panics() {
        let mut shards = ShardSet::new(2);
        let mut builder = TraceBuilder::new(layout(), 2);
        shards.run_interval(&mut builder, 0..3, |shard, p| shard.read(p));
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
