//! Equivalence suite for the streaming replay pipeline: for arbitrary traces, the
//! directory machine — replaying a materialized trace, or consuming a stream through
//! [`SimSink`], which also folds the P-processor run onto one processor — must produce
//! *identical* per-processor cache/TLB/coherence counters to the scan-based
//! [`ReferenceSim`] oracle in `reference/`, in both residency regimes (sharer masks
//! alone when the footprint cannot overflow a set, LRU caches otherwise) and on both
//! sides of the switch between them.  The directory machine is only an optimization
//! if the counters are bit-for-bit the same.

mod reference;

use proptest::prelude::*;

use memsim::{CacheConfig, MultiprocessorSim, SimSink, SinkResult, TlbConfig};
use reference::{run_trace_folded, ReferenceSim};
use smtrace::{Access, AccessKind, ObjectLayout, ProgramTrace, ShardSet, TraceBuilder, TraceSink};

/// One randomized trace event: an access or a barrier.
#[derive(Debug, Clone, Copy)]
enum Event {
    Access { proc: usize, object: usize, write: bool },
    Barrier,
}

/// Decode the raw generated tuples into events (~95% accesses, ~5% barriers).
fn decode_events(raw: Vec<(usize, usize, usize, bool)>, procs: usize) -> Vec<Event> {
    raw.into_iter()
        .map(|(kind, proc, object, write)| match kind {
            0..=94 => Event::Access { proc: proc % procs, object, write },
            _ => Event::Barrier,
        })
        .collect()
}

/// Record the event stream access by access into a `TraceBuilder`, closing the last
/// interval with a barrier.
fn record(events: &[Event], builder: &mut TraceBuilder) {
    for &event in events {
        match event {
            Event::Access { proc, object, write: true } => builder.write(proc, object),
            Event::Access { proc, object, write: false } => builder.read(proc, object),
            Event::Barrier => builder.barrier(),
        }
    }
    builder.barrier();
}

/// Stream the same event stream into any sink the way the applications do: each
/// access appended to its processor's shard, each barrier (and the end) a drain.
fn drive(events: &[Event], sink: &mut impl TraceSink) {
    let mut shards = ShardSet::new(sink.num_procs());
    for &event in events {
        match event {
            Event::Access { proc, object, write: true } => shards.shard_mut(proc).write(object),
            Event::Access { proc, object, write: false } => shards.shard_mut(proc).read(object),
            Event::Barrier => shards.drain_interval(sink),
        }
    }
    shards.drain_interval(sink);
}

/// Stream `trace` into `sink` the ways an interval can arrive, interval `k` by
/// `arrivals[k % arrivals.len()]`: 0 hands the trace's own streams over, as
/// `ProgramTrace::replay_into` does; 1 fills a `ShardSet` and drains it.
fn stream_mixed(trace: &ProgramTrace, arrivals: &[usize], sink: &mut impl TraceSink) {
    let mut shards = ShardSet::new(trace.num_procs);
    for (k, interval) in trace.intervals.iter().enumerate() {
        let streams = &interval.accesses;
        if arrivals[k % arrivals.len()] == 0 {
            let slices: Vec<&[Access]> = streams.iter().map(Vec::as_slice).collect();
            sink.interval(&slices);
        } else {
            for (p, stream) in streams.iter().enumerate() {
                for &a in stream {
                    if a.is_write() {
                        shards.shard_mut(p).write(a.object());
                    } else {
                        shards.shard_mut(p).read(a.object());
                    }
                }
            }
            shards.drain_interval(sink);
        }
    }
}

/// Machine geometries for a drawn layout (64-byte lines, 256-byte pages unless noted):
///
/// * a two-way cache and a 4-way one, each with a TLB small enough to evict — the
///   paired and stamped LRU way stores (except that the 4-way cache's 32 lines hold
///   the whole footprint of 32-byte objects);
/// * a cache and a TLB whose reach covers the 64-object footprint at every drawn object
///   size (at most 680 lines and 11 pages of 4 KB), so only the sharer masks and
///   first-touch flags are kept;
/// * a cache of exactly the footprint's lines and a TLB of exactly its pages — the
///   largest machine that still never evicts;
/// * one line and one entry fewer — the smallest footprint that can overflow a set and
///   the TLB, so the LRU caches and LRU TLB take over.
fn machines(layout: &ObjectLayout) -> Vec<(CacheConfig, TlbConfig)> {
    let lines = layout.num_units(64);
    let pages = layout.num_units(256);
    vec![
        (CacheConfig::new(1024, 64, 2), TlbConfig::new(4, 256)),
        (CacheConfig::new(2048, 64, 4), TlbConfig::new(3, 512)),
        (CacheConfig::new(64 << 10, 64, 2), TlbConfig::new(16, 4096)),
        (cache_with_lines(lines), TlbConfig::new(pages, 256)),
        (cache_with_lines(lines - 1), TlbConfig::new(pages - 1, 256)),
    ]
}

/// A cache of exactly `lines` 64-byte lines: as many sets as the largest power of two
/// dividing `lines`, and the quotient as ways.
fn cache_with_lines(lines: usize) -> CacheConfig {
    let sets = 1 << lines.trailing_zeros();
    let cache = CacheConfig::new(lines * 64, 64, lines / sets);
    assert_eq!(cache.num_lines(), lines);
    cache
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Materialized replay on the directory machine, streaming replay through
    /// `SimSink` (fed through a `ShardSet`), and the reference simulator agree on every
    /// counter, for arbitrary event streams (empty intervals included), object sizes
    /// that straddle cache lines, and both way-store representations.
    #[test]
    fn streaming_and_materialized_replay_match_the_reference(
        procs in 1usize..5,
        size_pick in 0usize..4,
        events in prop::collection::vec((0usize..100, 0usize..4, 0usize..64, any::<bool>()), 1..400),
    ) {
        // Object sizes below, at, and straddling the 64-byte line size.
        let object_size = [32usize, 96, 136, 680][size_pick];
        let events = decode_events(events, procs);
        let layout = ObjectLayout::new(64, object_size);

        // Materialize once.
        let mut builder = TraceBuilder::new(layout.clone(), procs);
        record(&events, &mut builder);
        let trace = builder.finish();

        for (cache, tlb) in machines(&layout) {
            let mut reference = ReferenceSim::new(procs, cache, tlb);
            let expected = reference.run_trace_with_layout(&trace, &layout);

            let mut machine = MultiprocessorSim::new(procs, cache, tlb);
            let materialized = machine.run_trace_with_layout(&trace, &layout);
            prop_assert_eq!(&expected, &materialized, "materialized replay diverged");

            let mut sink = SimSink::new(MultiprocessorSim::new(procs, cache, tlb), layout.clone());
            drive(&events, &mut sink);
            let streamed = sink.finish().machine;
            prop_assert_eq!(&expected, &streamed, "streaming replay diverged");
        }
    }

    /// The folded counters a `SimSink` derives from its P-processor pass equal
    /// replaying, on the reference simulator, the trace whose every interval is the
    /// processor-order concatenation of the P streams, recorded through a 1-processor
    /// `TraceBuilder` — for any P (one included), with empty streams and empty
    /// intervals (a barrier draws one event in five, so many intervals are short or
    /// empty and most of their streams are empty), in both residency regimes, and
    /// whether an interval's streams arrive as the trace's own slices or drained from
    /// a `ShardSet`.  The materialized folded replay in `reference/` agrees too.
    #[test]
    fn folded_replay_matches_the_concatenated_one_processor_trace(
        procs in 1usize..=8,
        size_pick in 0usize..4,
        events in prop::collection::vec((0usize..100, 0usize..8, 0usize..64, any::<bool>()), 0..400),
        arrivals in prop::collection::vec(0usize..2, 1..16),
    ) {
        let object_size = [32usize, 96, 136, 680][size_pick];
        let layout = ObjectLayout::new(64, object_size);
        let mut builder = TraceBuilder::new(layout.clone(), procs);
        for (kind, proc, object, write) in events {
            match kind {
                0..=79 if write => builder.write(proc % procs, object),
                0..=79 => builder.read(proc % procs, object),
                _ => builder.barrier(),
            }
        }
        builder.barrier();
        let trace = builder.finish();

        let mut concatenated = TraceBuilder::new(layout.clone(), 1);
        for interval in &trace.intervals {
            concatenated.interval(&[&interval.accesses.concat()]);
        }
        let concatenated = concatenated.finish();

        for (cache, tlb) in machines(&layout) {
            let expected = ReferenceSim::new(1, cache, tlb).run_trace(&concatenated);
            let mut sink = SimSink::new(MultiprocessorSim::new(procs, cache, tlb), layout.clone());
            stream_mixed(&trace, &arrivals, &mut sink);
            let SinkResult { machine, folded } = sink.finish();
            prop_assert_eq!(&expected, &folded, "the sink's folded counters diverged");
            let unfolded = ReferenceSim::new(procs, cache, tlb).run_trace(&trace);
            prop_assert_eq!(&unfolded, &machine, "the sink's machine counters diverged");
            let materialized =
                run_trace_folded(&mut MultiprocessorSim::new(1, cache, tlb), &trace, &layout);
            prop_assert_eq!(&expected, &materialized, "materialized folded replay diverged");
        }
    }

    /// The 4-byte packed `Access` round-trips every (object, kind) pair, and ordering
    /// on the packed form preserves equality semantics.
    #[test]
    fn packed_access_round_trips(
        object in 0usize..=Access::MAX_OBJECT,
        write in any::<bool>(),
    ) {
        let kind = if write { AccessKind::Write } else { AccessKind::Read };
        let access = Access::new(object, kind);
        prop_assert_eq!(access.object(), object);
        prop_assert_eq!(access.object_u32() as usize, object);
        prop_assert_eq!(access.is_write(), write);
        prop_assert_eq!(access.kind(), kind);
        prop_assert_eq!(access, Access::new(object, kind));
        prop_assert_ne!(Access::read(object), Access::write(object));
    }
}

/// A one-interval trace of `object` reads by processor 0, recorded against a layout
/// large enough to hold it.
fn reads_of(object: usize, object_size: usize) -> smtrace::ProgramTrace {
    let mut builder = TraceBuilder::new(ObjectLayout::new(object + 1, object_size), 1);
    builder.read(0, 0);
    builder.read(0, object);
    builder.barrier();
    builder.finish()
}

#[test]
#[should_panic(expected = "bound to the layout of its first replay")]
fn a_bound_machine_rejects_another_layout() {
    let trace = reads_of(10, 32);
    let mut machine =
        MultiprocessorSim::new(1, CacheConfig::new(1024, 64, 2), TlbConfig::new(4, 256));
    machine.run_trace_with_layout(&trace, &ObjectLayout::new(64, 32));
    machine.run_trace_with_layout(&trace, &ObjectLayout::new(64, 96));
}

#[test]
fn an_access_beyond_the_footprint_panics_in_every_regime() {
    // Object 64 is the first past a 64-object array: its line is outside the footprint
    // on every machine, and its page on all but the 4 KB-page one.
    let layout = ObjectLayout::new(64, 32);
    let trace = reads_of(64, 32);
    for (cache, tlb) in machines(&layout) {
        let replay = std::panic::catch_unwind(|| {
            MultiprocessorSim::new(1, cache, tlb).run_trace_with_layout(&trace, &layout)
        });
        let message = replay.expect_err("an access beyond the footprint must panic");
        let message = message.downcast_ref::<String>().map(String::as_str).unwrap_or("");
        assert!(message.contains("index out of bounds"), "unexpected panic: {message:?}");
    }
}
