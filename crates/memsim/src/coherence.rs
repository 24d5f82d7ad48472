//! Multiprocessor simulation: per-processor caches and TLBs plus an invalidation-based
//! coherence model.
//!
//! The Origin 2000 keeps caches coherent with a directory protocol: when one processor
//! writes a line that other processors hold, their copies are invalidated and their next
//! access to that line misses.  That is precisely the mechanism by which false sharing
//! turns into extra L2 misses on the hardware platform (Section 2 of the paper), so the
//! model here is an invalidation protocol over the per-processor LRU caches:
//!
//! * each virtual processor has its own [`Cache`] (L2) and [`Tlb`];
//! * within a synchronization interval the per-processor access streams are interleaved
//!   round-robin (the paper's applications do not synchronize within an interval, so any
//!   interleaving is legal; round-robin is the deterministic choice);
//! * a write invalidates the line in every other cache; an access that misses because of
//!   such an invalidation is counted separately as a coherence miss.
//!
//! Coherence is resolved through a real [`Directory`]: a per-line sharer bitmask that
//! the simulator keeps as an exact mirror of the cache contents (updated on every
//! fill, eviction and invalidation).  A write consults the mask in O(1) and
//! invalidates only the actual sharers, instead of probing all P caches.  The
//! equivalence tests check the directory machine against a scan-based oracle that
//! does probe all P caches (`tests/reference/`).
//!
//! Traces can be replayed from a materialized [`ProgramTrace`]
//! ([`MultiprocessorSim::run_trace`]) or streamed straight from a running application
//! through [`SimSink`], which buffers one synchronization interval at a time and never
//! materializes the whole trace.

use smtrace::{Access, ObjectLayout, ProgramTrace, TraceSink};

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::directory::{procs_in, Directory};
use crate::tlb::{Tlb, TlbConfig, TlbStats};

/// Per-processor counters produced by a simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessorStats {
    /// L2 cache counters.
    pub cache: CacheStats,
    /// TLB counters.
    pub tlb: TlbStats,
    /// Number of object accesses the processor performed.
    pub accesses: u64,
}

/// The result of simulating a whole trace on a P-processor machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimulationResult {
    /// Counters for each virtual processor.
    pub per_proc: Vec<ProcessorStats>,
}

impl SimulationResult {
    /// Machine-wide totals.
    pub fn totals(&self) -> ProcessorStats {
        let mut total = ProcessorStats::default();
        for p in &self.per_proc {
            total.cache.merge(&p.cache);
            total.tlb.merge(&p.tlb);
            total.accesses += p.accesses;
        }
        total
    }

    /// Total L2 misses across processors (the Table 2 counter).
    pub fn l2_misses(&self) -> u64 {
        self.per_proc.iter().map(|p| p.cache.misses).sum()
    }

    /// Total TLB misses across processors (the Table 2 counter).
    pub fn tlb_misses(&self) -> u64 {
        self.per_proc.iter().map(|p| p.tlb.misses).sum()
    }

    /// Total coherence (invalidation-induced) misses across processors.
    pub fn coherence_misses(&self) -> u64 {
        self.per_proc.iter().map(|p| p.cache.coherence_misses).sum()
    }

    /// The largest per-processor access count — a proxy for the critical-path work used
    /// by the cost model.
    pub fn max_proc_accesses(&self) -> u64 {
        self.per_proc.iter().map(|p| p.accesses).max().unwrap_or(0)
    }
}

/// A P-processor machine: caches, TLBs and the sharer-bitmask [`Directory`].
#[derive(Debug)]
pub struct MultiprocessorSim {
    caches: Vec<Cache>,
    tlbs: Vec<Tlb>,
    directory: Directory,
    accesses: Vec<u64>,
    /// `log2(line_bytes)` — line size is a power of two (asserted by `CacheConfig`),
    /// so line numbers are a shift, not a division, in the per-access hot path.
    line_shift: u32,
    /// `log2(page_bytes)` when the page size is a power of two (always, in practice);
    /// `None` falls back to division.
    page_shift: Option<u32>,
    page_bytes: usize,
}

impl MultiprocessorSim {
    /// Create a machine with `num_procs` processors, each with the given cache and TLB.
    ///
    /// # Panics
    /// Panics if `num_procs` is zero or exceeds [`Directory::MAX_PROCS`].
    pub fn new(num_procs: usize, cache: CacheConfig, tlb: TlbConfig) -> Self {
        assert!(num_procs > 0, "need at least one processor");
        assert!(
            num_procs <= Directory::MAX_PROCS,
            "directory masks support at most {} processors",
            Directory::MAX_PROCS
        );
        MultiprocessorSim {
            caches: (0..num_procs).map(|_| Cache::new(cache)).collect(),
            tlbs: (0..num_procs).map(|_| Tlb::new(tlb)).collect(),
            directory: Directory::new(),
            accesses: vec![0; num_procs],
            line_shift: cache.line_bytes.trailing_zeros(),
            page_shift: tlb.page_bytes.is_power_of_two().then(|| tlb.page_bytes.trailing_zeros()),
            page_bytes: tlb.page_bytes,
        }
    }

    /// Number of processors.
    pub fn num_procs(&self) -> usize {
        self.caches.len()
    }

    /// Page number of a byte address (shift when the page size is a power of two).
    #[inline]
    fn page_of(&self, addr: usize) -> u64 {
        match self.page_shift {
            Some(shift) => (addr >> shift) as u64,
            None => (addr / self.page_bytes) as u64,
        }
    }

    /// Perform one access by processor `proc` to the byte range `[first_byte, last_byte]`
    /// (an object), with `write` indicating a store.
    #[inline]
    pub fn access(&mut self, proc: usize, first_byte: usize, last_byte: usize, write: bool) {
        self.accesses[proc] += 1;
        self.access_counted(proc, first_byte, last_byte, write);
    }

    /// [`MultiprocessorSim::access`] without the per-access counter update — the
    /// replay loop bulk-adds each stream's length per interval instead.
    ///
    /// Only the hit path is inlined into the replay loop; the miss and invalidation
    /// handling live in out-of-line helpers so the hot loop stays small.
    #[inline(always)]
    fn access_counted(&mut self, proc: usize, first_byte: usize, last_byte: usize, write: bool) {
        let first_line = (first_byte >> self.line_shift) as u64;
        let last_line = (last_byte >> self.line_shift) as u64;
        let mut line = first_line;
        loop {
            let (hit, evicted) = self.caches[proc].access_line_evicting(line);
            if !hit {
                self.handle_miss(proc, line, evicted);
            }
            if write {
                self.invalidate_sharers(proc, line);
            }
            if line >= last_line {
                break;
            }
            line += 1;
        }
        // The TLB translates the page(s) of the object; for objects smaller than a page
        // this is a single translation.
        let first_page = self.page_of(first_byte);
        let last_page = self.page_of(last_byte);
        self.tlbs[proc].access_page(first_page);
        if last_page != first_page {
            self.tlbs[proc].access_page(last_page);
        }
    }

    /// Directory bookkeeping for a cache miss: mirror the eviction, classify the miss,
    /// record the new sharer.
    #[inline(never)]
    fn handle_miss(&mut self, proc: usize, line: u64, evicted: Option<u64>) {
        if let Some(evicted) = evicted {
            self.directory.remove(evicted, proc);
        }
        // A miss to a line some other processor currently holds is a coherence miss
        // (the data had to come from a peer) — one O(1) mask lookup.
        if self.directory.others(line, proc) != 0 {
            self.caches[proc].note_coherence_miss();
        }
        // Hits need no directory update: a resident line's bit is already set.
        self.directory.insert(line, proc);
    }

    /// Invalidate exactly the sharers the directory records for a written line —
    /// O(sharers), not O(P · associativity).
    #[inline(never)]
    fn invalidate_sharers(&mut self, proc: usize, line: u64) {
        let others = self.directory.others(line, proc);
        for p in procs_in(others) {
            let was_resident = self.caches[p].invalidate_line(line);
            debug_assert!(was_resident, "directory claimed a non-resident sharer");
            self.directory.remove(line, p);
        }
    }

    /// Replay a whole [`ProgramTrace`]: every interval's per-processor streams are
    /// interleaved round-robin, one access at a time.
    pub fn run_trace(&mut self, trace: &ProgramTrace) -> SimulationResult {
        self.run_trace_with_layout(trace, &trace.layout)
    }

    /// Replay a trace using an explicit layout (lets the caller simulate the *same*
    /// logical trace under a different object placement, which is how the reordered
    /// versions are evaluated without re-running the application).
    pub fn run_trace_with_layout(
        &mut self,
        trace: &ProgramTrace,
        layout: &ObjectLayout,
    ) -> SimulationResult {
        assert_eq!(trace.num_procs, self.num_procs(), "trace and machine sizes differ");
        for interval in &trace.intervals {
            self.run_interval(&interval.accesses, layout);
        }
        self.result()
    }

    /// Replay a P-processor trace folded onto this 1-processor machine: each
    /// interval's streams run one after another in processor order.  The
    /// applications split a processor-count-independent work order into contiguous
    /// per-processor chunks, so this is the access sequence a 1-processor trace of
    /// the same run would record, and the counters are those of replaying it.
    ///
    /// # Panics
    /// Panics unless the machine has exactly one processor.
    pub fn run_trace_folded(
        &mut self,
        trace: &ProgramTrace,
        layout: &ObjectLayout,
    ) -> SimulationResult {
        assert_eq!(self.num_procs(), 1, "a folded replay runs on a 1-processor machine");
        for interval in &trace.intervals {
            for stream in &interval.accesses {
                self.run_interval(std::slice::from_ref(stream), layout);
            }
        }
        self.result()
    }

    /// Replay one synchronization interval: `streams[p]` is processor `p`'s ordered
    /// access stream.  Produces the identical interleaving (and therefore identical
    /// counters) as the original one-access-at-a-time loop, but batched: intervals
    /// where only one processor is active — the sequential phases every application
    /// has — replay as a tight private loop with no interleaving machinery, and the
    /// round-robin loop only visits processors that still have accesses left.
    pub fn run_interval(&mut self, streams: &[Vec<Access>], layout: &ObjectLayout) {
        assert_eq!(streams.len(), self.num_procs(), "interval and machine sizes differ");
        // One multiply per access: last_byte = first_byte + size - 1 (the `ObjectLayout`
        // getters would compute the product twice).
        let size = layout.object_size;
        let base = layout.base_offset;
        for (p, stream) in streams.iter().enumerate() {
            self.accesses[p] += stream.len() as u64;
        }
        let mut active: Vec<(usize, std::slice::Iter<'_, Access>)> = streams
            .iter()
            .enumerate()
            .filter(|(_, stream)| !stream.is_empty())
            .map(|(p, stream)| (p, stream.iter()))
            .collect();
        // Round-robin over the processors that still have accesses left, in ascending
        // processor order per cycle (the deterministic interleaving every consumer of
        // these counters assumes).  The streams are balanced by construction, so run
        // whole *batches* of cycles — as many as the shortest remaining stream allows —
        // with no per-access active-list bookkeeping, then drop exhausted processors
        // and repeat.  `active` never holds an exhausted iterator, so every batch runs
        // at least one full cycle.
        loop {
            match active.as_mut_slice() {
                [] => return,
                [(p, stream)] => {
                    // One active processor — e.g. the sequential phases every
                    // application has: its interleaving with itself is program order,
                    // so the rest of its stream replays as one tight private loop.
                    let p = *p;
                    for a in stream {
                        let first = base + a.object() * size;
                        self.access_counted(p, first, first + size - 1, a.is_write());
                    }
                    return;
                }
                _ => {}
            }
            let cycles =
                active.iter().map(|(_, stream)| stream.len()).min().expect("active is non-empty");
            for _ in 0..cycles {
                for (p, stream) in active.iter_mut() {
                    let a = stream.next().expect("cycles bounds every active stream");
                    let first = base + a.object() * size;
                    self.access_counted(*p, first, first + size - 1, a.is_write());
                }
            }
            active.retain(|(_, stream)| stream.len() > 0);
        }
    }

    /// Snapshot the per-processor counters.
    pub fn result(&self) -> SimulationResult {
        SimulationResult {
            per_proc: (0..self.num_procs())
                .map(|p| ProcessorStats {
                    cache: self.caches[p].stats(),
                    tlb: self.tlbs[p].stats(),
                    accesses: self.accesses[p],
                })
                .collect(),
        }
    }
}

/// A [`TraceSink`] that drives a [`MultiprocessorSim`] directly from a running
/// application: streaming trace replay with no materialized [`ProgramTrace`].
///
/// The sink buffers one synchronization interval at a time (the round-robin
/// interleaving needs the complete interval) and replays it at every barrier; the
/// per-processor buffers are reused across intervals, so steady-state replay allocates
/// nothing.  Counters are byte-identical to materializing the trace and calling
/// [`MultiprocessorSim::run_trace_with_layout`], because both paths feed the same
/// per-interval replay.
#[derive(Debug)]
pub struct SimSink {
    sim: MultiprocessorSim,
    layout: ObjectLayout,
    /// The current interval's per-processor streams (cleared, not dropped, per barrier).
    buffers: Vec<Vec<Access>>,
}

impl SimSink {
    /// Wrap a machine and the object layout accesses should be resolved against.
    pub fn new(sim: MultiprocessorSim, layout: ObjectLayout) -> Self {
        let buffers = vec![Vec::new(); sim.num_procs()];
        SimSink { sim, layout, buffers }
    }

    fn replay_buffered(&mut self) {
        self.sim.run_interval(&self.buffers, &self.layout);
        for buffer in &mut self.buffers {
            buffer.clear();
        }
    }

    /// Replay any buffered partial interval and return the simulation result.
    pub fn finish(mut self) -> SimulationResult {
        self.replay_buffered();
        self.sim.result()
    }

    /// Replay any buffered partial interval and return the machine (for callers that
    /// keep simulating, e.g. across several streamed runs).
    pub fn into_machine(mut self) -> MultiprocessorSim {
        self.replay_buffered();
        self.sim
    }
}

impl TraceSink for SimSink {
    fn num_procs(&self) -> usize {
        self.sim.num_procs()
    }

    fn record(&mut self, proc: usize, access: Access) {
        debug_assert!(proc < self.buffers.len());
        self.buffers[proc].push(access);
    }

    fn lock(&mut self, proc: usize, lock: u32) {
        // The hardware model does not charge lock traffic (matching the materialized
        // replay, which ignores recorded lock acquisitions).
        let _ = (proc, lock);
    }

    fn barrier(&mut self) {
        self.replay_buffered();
    }

    fn record_many(&mut self, proc: usize, accesses: &[Access]) {
        self.buffers[proc].extend_from_slice(accesses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smtrace::TraceBuilder;

    fn tiny_machine(procs: usize) -> MultiprocessorSim {
        MultiprocessorSim::new(procs, CacheConfig::new(1024, 64, 2), TlbConfig::new(4, 256))
    }

    #[test]
    fn single_processor_behaves_like_a_plain_cache() {
        let mut m = tiny_machine(1);
        m.access(0, 0, 63, false);
        m.access(0, 0, 63, false);
        m.access(0, 64, 127, true);
        let r = m.result();
        assert_eq!(r.per_proc[0].cache.misses, 2);
        assert_eq!(r.per_proc[0].cache.hits, 1);
        assert_eq!(r.per_proc[0].accesses, 3);
        assert_eq!(r.coherence_misses(), 0);
    }

    #[test]
    fn false_sharing_causes_coherence_misses() {
        // Two processors ping-pong writes to different halves of the same 64-byte line.
        let mut m = tiny_machine(2);
        for _ in 0..10 {
            m.access(0, 0, 31, true);
            m.access(1, 32, 63, true);
        }
        let r = m.result();
        // After the first exchange every access misses because the other processor's
        // write invalidated the line.
        assert!(r.l2_misses() >= 18, "expected ping-pong misses, got {}", r.l2_misses());
        assert!(r.coherence_misses() > 0);
    }

    #[test]
    fn disjoint_lines_do_not_interfere() {
        let mut m = tiny_machine(2);
        for _ in 0..10 {
            m.access(0, 0, 31, true);
            m.access(1, 64, 95, true);
        }
        let r = m.result();
        assert_eq!(r.l2_misses(), 2, "only one compulsory miss per processor");
        assert_eq!(r.coherence_misses(), 0);
    }

    #[test]
    fn trace_replay_matches_manual_replay() {
        let layout = ObjectLayout::new(16, 64);
        let mut b = TraceBuilder::new(layout.clone(), 2);
        b.write(0, 0);
        b.write(1, 1);
        b.barrier();
        b.read(0, 1);
        b.read(1, 0);
        b.barrier();
        let trace = b.finish();

        let mut m = tiny_machine(2);
        let r = m.run_trace(&trace);
        assert_eq!(r.totals().accesses, 4);
        assert_eq!(r.per_proc[0].accesses, 2);
        // Objects 0 and 1 are different 64-byte lines, so there is no false sharing;
        // the second interval's reads of the *other* processor's freshly written line
        // are true-sharing communication misses and are counted as coherence misses.
        assert_eq!(r.l2_misses(), 4);
        assert_eq!(r.coherence_misses(), 2);
    }

    #[test]
    fn reordered_layout_reduces_misses_for_strided_access() {
        // A processor repeatedly walks objects 0, 16, 32, ... (a strided, scattered
        // pattern).  Under a layout where those objects are contiguous, the cache and
        // TLB miss counts drop — the essence of the paper's single-processor result.
        let n = 64usize;
        let layout = ObjectLayout::new(n, 64);
        let mut b = TraceBuilder::new(layout.clone(), 1);
        let stride_order: Vec<usize> =
            (0..16).flat_map(|k| (0..4).map(move |j| j * 16 + k)).collect();
        for _ in 0..4 {
            for &o in &stride_order {
                b.read(0, o);
            }
        }
        let trace = b.finish();

        // Original layout: object i at position i.
        let mut m1 =
            MultiprocessorSim::new(1, CacheConfig::new(512, 64, 2), TlbConfig::new(2, 256));
        let r1 = m1.run_trace(&trace);

        // "Reordered" layout: we emulate reordering by remapping the trace's objects so
        // that the visit order is contiguous.  (The applications do this for real; here
        // we just build the equivalent trace.)
        let mut b2 = TraceBuilder::new(layout, 1);
        for _ in 0..4 {
            for i in 0..n {
                b2.read(0, i);
            }
        }
        let trace2 = b2.finish();
        let mut m2 =
            MultiprocessorSim::new(1, CacheConfig::new(512, 64, 2), TlbConfig::new(2, 256));
        let r2 = m2.run_trace(&trace2);

        assert!(r2.tlb_misses() < r1.tlb_misses());
        assert!(r2.l2_misses() <= r1.l2_misses());
    }

    #[test]
    #[should_panic(expected = "trace and machine sizes differ")]
    fn mismatched_processor_count_panics() {
        let layout = ObjectLayout::new(4, 64);
        let b = TraceBuilder::new(layout, 2);
        let trace = b.finish();
        let mut m = tiny_machine(4);
        m.run_trace(&trace);
    }
}
