//! The original (pre-directory) multiprocessor simulator, kept as the executable
//! specification the directory machine is tested against.
//!
//! Semantics are identical to [`memsim::MultiprocessorSim`] by construction:
//!
//! * per-processor set-associative LRU caches kept as move-to-front `Vec`s (positional
//!   LRU) instead of generation timestamps;
//! * coherence resolved by **scanning every other processor's cache** on each miss and
//!   each write — the O(P · associativity) path the directory replaces;
//! * per-interval round-robin replay with freshly allocated cursors.
//!
//! It is built only from `memsim`'s public types, so it shares no code with the
//! simulator it checks.  `proptest_replay.rs` asserts that materialized and streaming
//! replay on the directory machine reproduce this model's counters bit-for-bit.
//!
//! [`run_trace_folded`] is the folded replay the directory machine once shipped: a
//! second, materialized path to the 1-processor counters that `SimSink` now derives
//! from its P-processor pass, checked against the same oracle.

// As in the simulator crate, the loop index is the processor id.
#![allow(clippy::needless_range_loop)]

use memsim::{
    CacheConfig, CacheStats, MultiprocessorSim, ProcessorStats, SimulationResult, TlbConfig,
    TlbStats,
};
use smtrace::{IntervalTrace, ObjectLayout, ProgramTrace};

/// A set-associative LRU cache with positional (move-to-front) recency tracking.
#[derive(Debug, Clone)]
struct RefCache {
    config: CacheConfig,
    /// `sets[s]` holds the resident tags of set `s`, most recently used first.
    sets: Vec<Vec<u64>>,
    stats: CacheStats,
}

impl RefCache {
    fn new(config: CacheConfig) -> Self {
        RefCache { config, sets: vec![Vec::new(); config.num_sets()], stats: CacheStats::default() }
    }

    fn access_line(&mut self, line: u64) -> bool {
        self.stats.accesses += 1;
        let set_idx = (line as usize) & (self.config.num_sets() - 1);
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&t| t == line) {
            let tag = set.remove(pos);
            set.insert(0, tag);
            self.stats.hits += 1;
            true
        } else {
            if set.len() == self.config.associativity {
                set.pop();
            }
            set.insert(0, line);
            self.stats.misses += 1;
            false
        }
    }

    fn invalidate_line(&mut self, line: u64) -> bool {
        let set_idx = (line as usize) & (self.config.num_sets() - 1);
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&t| t == line) {
            set.remove(pos);
            true
        } else {
            false
        }
    }

    fn contains_line(&self, line: u64) -> bool {
        let set_idx = (line as usize) & (self.config.num_sets() - 1);
        self.sets[set_idx].contains(&line)
    }
}

/// A fully-associative LRU TLB with positional recency tracking.
#[derive(Debug, Clone)]
struct RefTlb {
    config: TlbConfig,
    /// Resident page numbers, most recently used first.
    entries: Vec<u64>,
    stats: TlbStats,
}

impl RefTlb {
    fn new(config: TlbConfig) -> Self {
        RefTlb { config, entries: Vec::with_capacity(config.entries), stats: TlbStats::default() }
    }

    fn access(&mut self, addr: usize) -> bool {
        let page = (addr / self.config.page_bytes) as u64;
        self.stats.accesses += 1;
        if let Some(pos) = self.entries.iter().position(|&p| p == page) {
            let p = self.entries.remove(pos);
            self.entries.insert(0, p);
            self.stats.hits += 1;
            true
        } else {
            if self.entries.len() == self.config.entries {
                self.entries.pop();
            }
            self.entries.insert(0, page);
            self.stats.misses += 1;
            false
        }
    }
}

/// The scan-based P-processor machine the directory machine is verified against.
#[derive(Debug)]
pub struct ReferenceSim {
    caches: Vec<RefCache>,
    tlbs: Vec<RefTlb>,
    accesses: Vec<u64>,
    line_bytes: usize,
}

impl ReferenceSim {
    /// Create a machine with `num_procs` processors, each with the given cache and TLB.
    pub fn new(num_procs: usize, cache: CacheConfig, tlb: TlbConfig) -> Self {
        assert!(num_procs > 0, "need at least one processor");
        ReferenceSim {
            caches: (0..num_procs).map(|_| RefCache::new(cache)).collect(),
            tlbs: (0..num_procs).map(|_| RefTlb::new(tlb)).collect(),
            accesses: vec![0; num_procs],
            line_bytes: cache.line_bytes,
        }
    }

    /// Number of processors.
    pub fn num_procs(&self) -> usize {
        self.caches.len()
    }

    /// Perform one access by processor `proc` to the byte range `[first_byte,
    /// last_byte]` (an object), with `write` indicating a store.
    pub fn access(&mut self, proc: usize, first_byte: usize, last_byte: usize, write: bool) {
        self.accesses[proc] += 1;
        let first_line = (first_byte / self.line_bytes) as u64;
        let last_line = (last_byte / self.line_bytes) as u64;
        for line in first_line..=last_line {
            let hit = self.caches[proc].access_line(line);
            if !hit {
                // A miss to a line some other cache currently holds is a coherence
                // miss: the data had to come from a peer.
                if self.caches.iter().enumerate().any(|(p, c)| p != proc && c.contains_line(line)) {
                    self.caches[proc].stats.coherence_misses += 1;
                }
            }
            if write {
                // Invalidate every other processor's copy — by probing all of them.
                for (p, cache) in self.caches.iter_mut().enumerate() {
                    if p != proc {
                        cache.invalidate_line(line);
                    }
                }
            }
        }
        self.tlbs[proc].access(first_byte);
        if last_byte / self.tlbs[proc].config.page_bytes
            != first_byte / self.tlbs[proc].config.page_bytes
        {
            self.tlbs[proc].access(last_byte);
        }
    }

    /// Replay a whole trace with round-robin interleaving per interval (the original
    /// replay loop, per-interval cursor allocation included).
    pub fn run_trace_with_layout(
        &mut self,
        trace: &ProgramTrace,
        layout: &ObjectLayout,
    ) -> SimulationResult {
        assert_eq!(trace.num_procs, self.num_procs(), "trace and machine sizes differ");
        for interval in &trace.intervals {
            let mut cursors = vec![0usize; trace.num_procs];
            let mut remaining: usize = interval.accesses.iter().map(Vec::len).sum();
            while remaining > 0 {
                for p in 0..trace.num_procs {
                    if cursors[p] < interval.accesses[p].len() {
                        let a = interval.accesses[p][cursors[p]];
                        cursors[p] += 1;
                        remaining -= 1;
                        let first = layout.first_byte(a.object());
                        let last = layout.last_byte(a.object());
                        self.access(p, first, last, a.is_write());
                    }
                }
            }
        }
        self.result()
    }

    /// Replay a whole trace under its own layout.
    pub fn run_trace(&mut self, trace: &ProgramTrace) -> SimulationResult {
        self.run_trace_with_layout(trace, &trace.layout)
    }

    /// Snapshot the per-processor counters.
    pub fn result(&self) -> SimulationResult {
        SimulationResult {
            per_proc: (0..self.num_procs())
                .map(|p| ProcessorStats {
                    cache: self.caches[p].stats,
                    tlb: self.tlbs[p].stats,
                    accesses: self.accesses[p],
                })
                .collect(),
        }
    }
}

/// Replay a P-processor trace folded onto the 1-processor `machine`: each interval's
/// streams run one after another in processor order, each as an interval of its own.
///
/// # Panics
/// Panics unless the machine has exactly one processor.
pub fn run_trace_folded(
    machine: &mut MultiprocessorSim,
    trace: &ProgramTrace,
    layout: &ObjectLayout,
) -> SimulationResult {
    assert_eq!(machine.num_procs(), 1, "a folded replay runs on a 1-processor machine");
    let intervals = trace
        .intervals
        .iter()
        .flat_map(|interval| &interval.accesses)
        .map(|stream| IntervalTrace { accesses: vec![stream.clone()] })
        .collect();
    let folded = ProgramTrace { layout: layout.clone(), num_procs: 1, intervals };
    machine.run_trace_with_layout(&folded, layout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smtrace::TraceBuilder;

    #[test]
    fn reference_reproduces_the_seed_false_sharing_shape() {
        // Two processors ping-pong writes to different halves of the same 64-byte line
        // (the original coherence test, against the preserved implementation).
        let mut m = ReferenceSim::new(2, CacheConfig::new(1024, 64, 2), TlbConfig::new(4, 256));
        for _ in 0..10 {
            m.access(0, 0, 31, true);
            m.access(1, 32, 63, true);
        }
        let r = m.result();
        assert!(r.l2_misses() >= 18);
        assert!(r.coherence_misses() > 0);
    }

    #[test]
    fn reference_replays_traces() {
        let layout = ObjectLayout::new(16, 64);
        let mut b = TraceBuilder::new(layout.clone(), 2);
        b.write(0, 0);
        b.write(1, 1);
        b.barrier();
        b.read(0, 1);
        b.read(1, 0);
        b.barrier();
        let trace = b.finish();
        let mut m = ReferenceSim::new(2, CacheConfig::new(1024, 64, 2), TlbConfig::new(4, 256));
        let r = m.run_trace(&trace);
        assert_eq!(r.totals().accesses, 4);
        assert_eq!(r.l2_misses(), 4);
        assert_eq!(r.coherence_misses(), 2);
    }
}
