//! Multiprocessor simulation: per-processor caches and TLBs plus an invalidation-based
//! coherence model.
//!
//! The Origin 2000 keeps caches coherent with a directory protocol: when one processor
//! writes a line that other processors hold, their copies are invalidated and their next
//! access to that line misses.  That is precisely the mechanism by which false sharing
//! turns into extra L2 misses on the hardware platform (Section 2 of the paper), so the
//! model here is an invalidation protocol over per-processor LRU caches:
//!
//! * each virtual processor has its own L2 and [`Tlb`];
//! * within a synchronization interval the per-processor access streams are interleaved
//!   round-robin (the paper's applications do not synchronize within an interval, so any
//!   interleaving is legal; round-robin is the deterministic choice);
//! * a write invalidates the line in every other cache; an access that misses because of
//!   such an invalidation is counted separately as a coherence miss.
//!
//! A machine binds to the [`ObjectLayout`] of its first replay and sizes everything to
//! that array's footprint; replaying another layout on it panics, and so does an access
//! outside the footprint.  The [`Directory`] keeps one sharer mask per footprint line,
//! exact at all times, so a processor hits a line iff its bit is set.  Recency only
//! matters when a set overflows, and a contiguous array of `n` lines puts at most
//! ⌈n / sets⌉ of them in any set, so:
//!
//! * if the footprint spans at most [`CacheConfig::num_lines`] lines, no set can ever
//!   evict and the masks *are* the caches: a miss is a clear bit, a coherence miss if
//!   any other bit is set, and a write leaves only the writer's bit;
//! * otherwise every processor keeps an exact-LRU [`Cache`] and the masks mirror them
//!   on every fill, eviction and invalidation, so a write invalidates exactly the
//!   recorded sharers.
//!
//! A TLB is private and sees its own processor's stream in program order whatever the
//! interleave, so each interval first replays every processor's translations in one
//! private loop and then interleaves only the cache accesses.  The equivalence tests
//! check both regimes against a scan-based oracle that probes all P caches
//! (`tests/reference/`).
//!
//! Traces can be replayed from a materialized [`ProgramTrace`]
//! ([`MultiprocessorSim::run_trace`]) or streamed straight from a running application
//! through [`SimSink`], which replays each synchronization interval as the producer
//! hands it over, straight from the producer's buffers, and never materializes the
//! whole trace.
//!
//! The sink's one pass also answers the run on one processor: the [`SinkResult`]
//! carries the counters of a 1-processor machine that runs each interval's streams
//! one after another in processor order, the sequence a 1-processor trace of the same
//! run records.  One more TLB translates each stream right after its own processor's
//! TLB, and the line and access counts are the machine's sums.  In the mask regime a
//! sharer mask never returns to zero once its line is touched, and a lone processor
//! misses exactly on first touches, so the folded misses are the nonzero masks and no
//! second cache pass runs; in the LRU regime one 1-processor cache is fed each stream
//! in the same per-processor loop.

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
}

/// Where cache residency lives, picked from the footprint and the cache geometry.
#[derive(Debug)]
enum Residency {
    /// The footprint cannot overflow a set: the directory masks are the caches, and
    /// these are each processor's counters.
    Masks(Vec<MaskStats>),
    /// Per-processor exact-LRU caches, mirrored by the directory masks.
    Lru(Vec<Cache>),
}

/// One processor's miss counters where the masks hold residency (its hits are the
/// line accesses that did not miss).
#[derive(Debug, Clone, Copy, Default)]
struct MaskStats {
    misses: u64,
    coherence_misses: u64,
}

/// The machine state sized to the layout it is bound to.
#[derive(Debug)]
struct Bound {
    layout: ObjectLayout,
    directory: Directory,
    residency: Residency,
    tlbs: Vec<Tlb>,
    /// Cache-line accesses per processor (an object access touches every line it spans).
    line_accesses: Vec<u64>,
}

/// The 1-processor machine a P-processor replay folds onto: each interval's streams run
/// one after another in processor order.  The applications split a
/// processor-count-independent work order into contiguous per-processor chunks, so
/// this is the access sequence a 1-processor trace of the same run records.
///
/// Its line and access counts are the sums of the machine's, so only the TLB, and in
/// the LRU regime the cache, are replayed.  In the mask regime a 1-processor machine
/// misses exactly on the first touch of each line, and a sharer mask never returns to
/// zero once its line is touched, so the folded misses are the nonzero masks.
#[derive(Debug)]
struct Folded {
    tlb: Tlb,
    /// The folded cache where the footprint can overflow a set (`None` where the
    /// masks hold residency).  A single processor takes no coherence misses, so it
    /// needs no directory.
    cache: Option<Cache>,
}

/// A P-processor machine: caches, TLBs and the sharer-bitmask [`Directory`].
#[derive(Debug)]
pub struct MultiprocessorSim {
    num_procs: usize,
    cache: CacheConfig,
    tlb: TlbConfig,
    accesses: Vec<u64>,
    /// Everything sized to the footprint, built by the first replay.
    bound: Option<Bound>,
    /// `log2(line_bytes)` — line size is a power of two (asserted by `CacheConfig`),
    /// so line numbers are a shift, not a division, in the per-access hot path.
    line_shift: u32,
    /// `log2(page_bytes)` when the page size is a power of two (always, in practice);
    /// `None` falls back to division.
    page_shift: Option<u32>,
}

impl MultiprocessorSim {
    /// Create a machine with `num_procs` processors, each with the given cache and TLB.
    /// Nothing is allocated until the first replay binds the machine to its layout.
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
            num_procs,
            cache,
            tlb,
            accesses: vec![0; num_procs],
            bound: None,
            line_shift: cache.line_bytes.trailing_zeros(),
            page_shift: tlb.page_bytes.is_power_of_two().then(|| tlb.page_bytes.trailing_zeros()),
        }
    }

    /// Number of processors.
    pub fn num_procs(&self) -> usize {
        self.num_procs
    }

    /// Bind to `layout` on the first call, sizing the directory, caches and TLBs to
    /// its footprint; later calls check that the layout is the same.
    ///
    /// # Panics
    /// Panics if the machine is already bound to a different layout.
    fn bind(&mut self, layout: &ObjectLayout) -> &mut Bound {
        let (procs, cache, tlb) = (self.num_procs, self.cache, self.tlb);
        let bound = self.bound.get_or_insert_with(|| {
            let lines = layout.num_units(cache.line_bytes);
            let pages = layout.num_units(tlb.page_bytes);
            let residency = if lines <= cache.num_lines() {
                Residency::Masks(vec![MaskStats::default(); procs])
            } else {
                Residency::Lru((0..procs).map(|_| Cache::new(cache)).collect())
            };
            Bound {
                layout: layout.clone(),
                directory: Directory::new(lines),
                residency,
                tlbs: (0..procs).map(|_| Tlb::new(tlb, pages)).collect(),
                line_accesses: vec![0; procs],
            }
        });
        assert_eq!(
            &bound.layout, layout,
            "the machine is bound to the layout of its first replay; use a new machine"
        );
        bound
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
        let mut streams: Vec<&[Access]> = Vec::with_capacity(trace.num_procs);
        for interval in &trace.intervals {
            streams.clear();
            streams.extend(interval.accesses.iter().map(Vec::as_slice));
            self.replay_interval(&streams, layout, None);
        }
        self.result()
    }

    /// Replay one synchronization interval: `streams[p]` is processor `p`'s ordered
    /// access stream.  A per-processor pass first replays each TLB and counts each
    /// processor's line accesses, neither of which depends on the interleaving; the
    /// cache accesses then replay round-robin, one access per processor per cycle in
    /// ascending processor order.  When `folded` is given, the same per-processor
    /// pass also feeds the 1-processor machine that runs the interval's streams one
    /// after another in processor order: its TLB translates each stream's spans in the
    /// same loop as the stream's own TLB, and its cache (LRU regime only) sees each
    /// stream's lines in turn.
    ///
    /// # Panics
    /// Panics if the machine is bound to a different layout, or if an access falls
    /// outside the layout's footprint.
    fn replay_interval(
        &mut self,
        streams: &[&[Access]],
        layout: &ObjectLayout,
        mut folded: Option<&mut Folded>,
    ) {
        assert_eq!(streams.len(), self.num_procs(), "interval and machine sizes differ");
        for (p, stream) in streams.iter().enumerate() {
            self.accesses[p] += stream.len() as u64;
        }
        let (line_shift, page_shift, page_bytes) =
            (self.line_shift, self.page_shift, self.tlb.page_bytes);
        let Bound { directory, residency, tlbs, line_accesses, .. } = self.bind(layout);
        let objects = Objects { base: layout.base_offset, size: layout.object_size, line_shift };
        let page_of = |byte: usize| match page_shift {
            Some(shift) => (byte >> shift) as u64,
            None => (byte / page_bytes) as u64,
        };
        for ((tlb, lines), stream) in tlbs.iter_mut().zip(line_accesses.iter_mut()).zip(streams) {
            let mut count = 0;
            let spans = stream.iter().map(|&a| {
                let (first, last) = objects.bytes(a);
                count += ((last >> line_shift) - (first >> line_shift) + 1) as u64;
                (page_of(first), page_of(last))
            });
            match folded.as_deref_mut() {
                Some(folded) => tlb.translate_spans_with(&mut folded.tlb, spans),
                None => tlb.translate_spans(spans),
            }
            *lines += count;
            if let Some(Folded { cache: Some(cache), .. }) = folded.as_deref_mut() {
                for &a in *stream {
                    let (first, last) = objects.lines(a);
                    for line in first..last + 1 {
                        cache.access_line(line);
                    }
                }
            }
        }
        match residency {
            Residency::Masks(stats) => {
                interleave(streams, &mut MaskStep { objects, directory, stats });
            }
            Residency::Lru(caches) => {
                interleave(streams, &mut LruStep { objects, directory, caches })
            }
        }
    }

    /// Snapshot the per-processor counters.
    pub fn result(&self) -> SimulationResult {
        SimulationResult {
            per_proc: (0..self.num_procs)
                .map(|p| {
                    let (cache, tlb) = self
                        .bound
                        .as_ref()
                        .map_or_else(Default::default, |b| (b.cache_stats(p), b.tlbs[p].stats()));
                    ProcessorStats { cache, tlb, accesses: self.accesses[p] }
                })
                .collect(),
        }
    }

    /// The counters of the 1-processor machine this machine's replay folded onto:
    /// `folded`'s TLB and (LRU regime) cache counters, the summed access and line
    /// counts, and in the mask regime one miss per line ever touched.
    fn folded_result(&self, folded: &Folded) -> SimulationResult {
        let totals = self.result().totals();
        let cache = match &folded.cache {
            Some(cache) => cache.stats(),
            None => {
                let lines = totals.cache.accesses;
                let misses = self.bound.as_ref().map_or(0, |b| b.directory.tracked_lines() as u64);
                CacheStats { accesses: lines, hits: lines - misses, misses, coherence_misses: 0 }
            }
        };
        let tlb = folded.tlb.stats();
        SimulationResult {
            per_proc: vec![ProcessorStats { cache, tlb, accesses: totals.accesses }],
        }
    }
}

impl Bound {
    /// A folded 1-processor machine of the same geometry, in the same regime.
    fn folded(&self, cache: CacheConfig, tlb: TlbConfig) -> Folded {
        let pages = self.layout.num_units(tlb.page_bytes);
        let cache = matches!(self.residency, Residency::Lru(_)).then(|| Cache::new(cache));
        Folded { tlb: Tlb::new(tlb, pages), cache }
    }

    /// Processor `p`'s cache counters.
    fn cache_stats(&self, p: usize) -> CacheStats {
        let lines = self.line_accesses[p];
        match &self.residency {
            Residency::Masks(stats) => {
                let MaskStats { misses, coherence_misses } = stats[p];
                CacheStats { accesses: lines, hits: lines - misses, misses, coherence_misses }
            }
            Residency::Lru(caches) => {
                let stats = caches[p].stats();
                debug_assert_eq!(stats.accesses, lines);
                stats
            }
        }
    }
}

/// The byte and line arithmetic of the bound object array.
#[derive(Debug, Clone, Copy)]
struct Objects {
    base: usize,
    size: usize,
    line_shift: u32,
}

impl Objects {
    /// The first and last byte of the accessed object (one multiply per access; the
    /// `ObjectLayout` getters would compute the product twice).
    #[inline(always)]
    fn bytes(self, a: Access) -> (usize, usize) {
        let first = self.base + a.object() * self.size;
        (first, first + self.size - 1)
    }

    /// The first and last line of the accessed object.
    #[inline(always)]
    fn lines(self, a: Access) -> (u64, u64) {
        let (first, last) = self.bytes(a);
        ((first >> self.line_shift) as u64, (last >> self.line_shift) as u64)
    }

    /// Every object spans `span` or `span + 1` lines, whatever its address.
    fn span(self) -> u64 {
        ((self.size - 1) >> self.line_shift) as u64 + 1
    }
}

/// One cache access in the interleaved replay, for one residency regime.
trait CacheStep {
    fn access(&mut self, proc: usize, access: Access);
}

/// Drive `step` over one interval's streams in the round-robin order every consumer of
/// these counters assumes: one access per processor per cycle, in ascending processor
/// order, skipping processors whose stream is exhausted.
///
/// The streams are balanced by construction, so whole *batches* of cycles run — as
/// many as the shortest remaining stream allows — with no per-access active-list
/// bookkeeping; then exhausted processors drop out and the next batch starts.  When one
/// processor is left (e.g. the sequential phases every application has) its
/// interleaving with itself is program order, so the rest of its stream runs as one
/// tight private loop.
fn interleave(streams: &[&[Access]], step: &mut impl CacheStep) {
    let mut active: Vec<(usize, std::slice::Iter<'_, Access>)> = streams
        .iter()
        .enumerate()
        .filter(|(_, stream)| !stream.is_empty())
        .map(|(p, stream)| (p, stream.iter()))
        .collect();
    // `active` never holds an exhausted iterator, so every batch runs at least one
    // full cycle.
    loop {
        match active.as_mut_slice() {
            [] => return,
            [(p, stream)] => {
                for &a in stream {
                    step.access(*p, a);
                }
                return;
            }
            _ => {}
        }
        let cycles =
            active.iter().map(|(_, stream)| stream.len()).min().expect("active is non-empty");
        for _ in 0..cycles {
            for (p, stream) in active.iter_mut() {
                step.access(*p, *stream.next().expect("cycles bounds every active stream"));
            }
        }
        active.retain(|(_, stream)| stream.len() > 0);
    }
}

/// The residency rule where no set can evict: processor `p` holds a line iff bit `p`
/// of its sharer mask is set.
struct MaskStep<'a> {
    objects: Objects,
    directory: &'a mut Directory,
    stats: &'a mut [MaskStats],
}

impl MaskStep<'_> {
    /// Access one line: a clear bit is a miss, a coherence miss if any other bit is
    /// set, and a write leaves only the writer's bit.  A hit that invalidates nobody
    /// leaves the mask as it is, so the common path stores nothing.
    #[inline(always)]
    fn touch(&mut self, line: u64, proc: usize, write: bool) {
        let bit = 1u64 << proc;
        let mask = self.directory.mask_mut(line);
        let sharers = *mask;
        let updated = if write { bit } else { sharers | bit };
        if updated != sharers {
            if sharers & bit == 0 {
                let stats = &mut self.stats[proc];
                stats.misses += 1;
                stats.coherence_misses += u64::from(sharers != 0);
            }
            *mask = updated;
        }
    }
}

impl CacheStep for MaskStep<'_> {
    #[inline(always)]
    fn access(&mut self, proc: usize, a: Access) {
        let (first, last) = self.objects.lines(a);
        for line in first..first + self.objects.span() {
            self.touch(line, proc, a.is_write());
        }
        // Touching the last line again is a no-op hit unless the object straddles one
        // more line; that is cheaper than an unpredictable branch on the line count.
        self.touch(last, proc, a.is_write());
    }
}

/// Per-processor exact-LRU caches, mirrored by the directory masks.
struct LruStep<'a> {
    objects: Objects,
    directory: &'a mut Directory,
    caches: &'a mut [Cache],
}

impl CacheStep for LruStep<'_> {
    #[inline(always)]
    fn access(&mut self, proc: usize, a: Access) {
        let (first, last) = self.objects.lines(a);
        for line in first..last + 1 {
            let (hit, evicted) = self.caches[proc].access_line_evicting(line);
            if !hit {
                self.miss(proc, line, evicted);
            }
            if a.is_write() && self.directory.others(line, proc) != 0 {
                self.invalidate_sharers(proc, line);
            }
        }
    }
}

impl LruStep<'_> {
    /// Directory bookkeeping for a miss: mirror the eviction, classify the miss, record
    /// the new sharer.  Kept out of line so the replay loop only inlines the hit path.
    #[inline(never)]
    fn miss(&mut self, proc: usize, line: u64, evicted: Option<u64>) {
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
        for p in procs_in(self.directory.others(line, proc)) {
            let was_resident = self.caches[p].invalidate_line(line);
            debug_assert!(was_resident, "directory claimed a non-resident sharer");
            self.directory.remove(line, p);
        }
    }
}

/// What a [`SimSink`] returns: the counters of the machine it drove, and those of the
/// same run folded onto a 1-processor machine of the same geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkResult {
    /// The P-processor machine's counters.
    pub machine: SimulationResult,
    /// The counters of replaying, on one processor, the trace whose every interval is
    /// the processor-order concatenation of the machine's streams (the machine's own
    /// counters when it has one processor).
    pub folded: SimulationResult,
}

/// A [`TraceSink`] that drives a [`MultiprocessorSim`] directly from a running
/// application: streaming trace replay with no materialized [`ProgramTrace`].
///
/// Each interval the sink receives is replayed straight from the producer's buffers
/// (the round-robin interleaving needs the complete interval, which the sink contract
/// delivers whole), so the sink keeps no access of its own.  The machine's counters
/// are byte-identical to materializing the trace and calling
/// [`MultiprocessorSim::run_trace_with_layout`], because both paths feed the same
/// per-interval replay.  The same pass also yields the folded 1-processor counters
/// (see [`SinkResult::folded`]), so a P-processor run answers the 1-processor one
/// without a second replay.
#[derive(Debug)]
pub struct SimSink {
    sim: MultiprocessorSim,
    layout: ObjectLayout,
    /// The folded 1-processor machine (`None` when the machine has one processor: it is
    /// its own fold).
    folded: Option<Folded>,
}

impl SimSink {
    /// Wrap a machine and bind it to the object layout accesses are resolved against.
    ///
    /// # Panics
    /// Panics if the machine is already bound to a different layout, or has already
    /// replayed accesses (the folded counters would miss them).
    pub fn new(mut sim: MultiprocessorSim, layout: ObjectLayout) -> Self {
        assert!(
            sim.accesses.iter().all(|&a| a == 0),
            "a sink drives a machine that has replayed nothing"
        );
        let (procs, cache, tlb) = (sim.num_procs, sim.cache, sim.tlb);
        let bound = sim.bind(&layout);
        let folded = (procs > 1).then(|| bound.folded(cache, tlb));
        SimSink { sim, layout, folded }
    }

    /// The machine's and the folded counters.
    pub fn finish(self) -> SinkResult {
        let machine = self.sim.result();
        let folded = match &self.folded {
            Some(folded) => self.sim.folded_result(folded),
            None => machine.clone(),
        };
        SinkResult { machine, folded }
    }
}

impl TraceSink for SimSink {
    fn num_procs(&self) -> usize {
        self.sim.num_procs()
    }

    fn interval(&mut self, streams: &[&[Access]]) {
        self.sim.replay_interval(streams, &self.layout, self.folded.as_mut());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smtrace::TraceBuilder;

    fn tiny_machine(procs: usize) -> MultiprocessorSim {
        // 16 lines of 64 bytes in 8 two-way sets; 4 TLB entries over 256-byte pages.
        MultiprocessorSim::new(procs, CacheConfig::new(1024, 64, 2), TlbConfig::new(4, 256))
    }

    /// Replay one interval of `(proc, object, write)` accesses over `object_size`-byte
    /// objects on a tiny machine, twice: bound to a 4-object array (the footprint fits,
    /// so only the sharer masks are kept) and to a 1024-object array (per-processor
    /// LRU caches and TLBs).  The accesses never leave the first objects, so nothing is
    /// evicted and both regimes must agree.
    fn replay_both_regimes(
        procs: usize,
        object_size: usize,
        accesses: &[(usize, usize, bool)],
    ) -> SimulationResult {
        let results: Vec<SimulationResult> = [4, 1024]
            .into_iter()
            .map(|num_objects| {
                let layout = ObjectLayout::new(num_objects, object_size);
                let mut b = TraceBuilder::new(layout, procs);
                for &(p, object, write) in accesses {
                    if write {
                        b.write(p, object);
                    } else {
                        b.read(p, object);
                    }
                }
                b.barrier();
                tiny_machine(procs).run_trace(&b.finish())
            })
            .collect();
        assert_eq!(results[0], results[1], "the two residency regimes disagree");
        results[0].clone()
    }

    #[test]
    fn single_processor_behaves_like_a_plain_cache() {
        let r = replay_both_regimes(1, 64, &[(0, 0, false), (0, 0, false), (0, 1, true)]);
        assert_eq!(r.per_proc[0].cache.misses, 2);
        assert_eq!(r.per_proc[0].cache.hits, 1);
        assert_eq!(r.per_proc[0].accesses, 3);
        assert_eq!(r.coherence_misses(), 0);
    }

    #[test]
    fn false_sharing_causes_coherence_misses() {
        // Two processors ping-pong writes to different halves of the same 64-byte line.
        let ping_pong: Vec<_> = (0..10).flat_map(|_| [(0, 0, true), (1, 1, true)]).collect();
        let r = replay_both_regimes(2, 32, &ping_pong);
        // After the first (cold) miss every access misses because the other processor's
        // write invalidated the line.
        assert_eq!(r.l2_misses(), 20);
        assert_eq!(r.coherence_misses(), 19);
    }

    #[test]
    fn disjoint_lines_do_not_interfere() {
        // Objects 0 and 2 of 32 bytes live in different 64-byte lines.
        let writes: Vec<_> = (0..10).flat_map(|_| [(0, 0, true), (1, 2, true)]).collect();
        let r = replay_both_regimes(2, 32, &writes);
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
        b.barrier();
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
        b2.barrier();
        let trace2 = b2.finish();
        let mut m2 =
            MultiprocessorSim::new(1, CacheConfig::new(512, 64, 2), TlbConfig::new(2, 256));
        let r2 = m2.run_trace(&trace2);

        assert!(r2.tlb_misses() < r1.tlb_misses());
        assert!(r2.l2_misses() <= r1.l2_misses());
    }

    #[test]
    fn an_unreplayed_machine_reports_zero_counters() {
        let r = tiny_machine(3).result();
        assert_eq!(r.per_proc, vec![ProcessorStats::default(); 3]);
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
