//! Equivalence suite for the sharded parallel trace producers: for *any* problem
//! size, processor count and iteration count, each application's `stream_*` path
//! (rayon tasks filling per-processor [`smtrace::Shard`]s, drained deterministically)
//! must be indistinguishable from looping its serial `step_traced`/`sweep_traced`
//! executable spec — bit-identical [`ProgramTrace`]s, bit-identical hardware-simulator
//! counters, bit-identical [`dsm::DsmRunResult`]s, and bit-identical final application
//! state (so multi-iteration runs cannot drift apart through the physics).
//!
//! Each sharded run feeds one tee of three consumers at once — a materializing
//! [`TraceBuilder`], a streaming [`SimSink`] and a streaming [`PageHistorySink`]; each
//! serial run records into a [`TraceBuilder`] and replays the finished trace into the
//! other two — so the comparison covers the raw access streams and both downstream
//! reductions.

use proptest::prelude::*;

use dsm::{DsmConfig, PageHistorySink, PageWriteHistory, TreadMarksSim};
use memsim::{OriginPreset, SimSink, SinkResult};
use molecular::{Moldyn, MoldynParams, WaterSpatial, WaterSpatialParams};
use nbody::{BarnesHut, BarnesHutParams, Fmm, FmmParams};
use smtrace::{ObjectLayout, ProgramTrace, TeeSink, TraceBuilder};
use unstructured::{Unstructured, UnstructuredParams};

/// DSM page granularity used by the history reduction (sub-page, so straddling
/// object sizes like Water's 680 B are exercised).
const PAGE_BYTES: usize = 1024;

type Reductions = (ProgramTrace, SinkResult, PageWriteHistory);

fn sim_sink(layout: &ObjectLayout, procs: usize) -> SimSink {
    SimSink::new(OriginPreset::origin2000(procs).build_machine(), layout.clone())
}

/// Record one serial run into a builder, then replay the trace into the two
/// streaming consumers.
fn run_serial(
    layout: &ObjectLayout,
    procs: usize,
    record: impl FnOnce(&mut TraceBuilder),
) -> Reductions {
    let mut builder = TraceBuilder::new(layout.clone(), procs);
    record(&mut builder);
    let trace = builder.finish();
    let mut sim = sim_sink(layout, procs);
    let mut hist = PageHistorySink::new(layout.clone(), procs, PAGE_BYTES);
    trace.replay_into(&mut sim);
    trace.replay_into(&mut hist);
    (trace, sim.finish(), hist.finish())
}

/// Stream one sharded run into all three consumers at once and collect their
/// reductions.
fn run_sharded<F>(layout: &ObjectLayout, procs: usize, drive: F) -> Reductions
where
    F: for<'a, 'b> FnOnce(&mut TeeSink<'a, TraceBuilder, TeeSink<'b, SimSink, PageHistorySink>>),
{
    let mut builder = TraceBuilder::new(layout.clone(), procs);
    let mut sim = sim_sink(layout, procs);
    let mut hist = PageHistorySink::new(layout.clone(), procs, PAGE_BYTES);
    {
        let mut inner = TeeSink::new(&mut sim, &mut hist);
        let mut sink = TeeSink::new(&mut builder, &mut inner);
        drive(&mut sink);
    }
    (builder.finish(), sim.finish(), hist.finish())
}

/// Assert every reduction of the two runs is identical, including the DSM protocol
/// results computed from the two histories.
fn assert_reductions_match(serial: Reductions, sharded: Reductions, procs: usize) {
    assert_eq!(serial.0, sharded.0, "traces diverged");
    assert_eq!(serial.1, sharded.1, "simulator counters diverged");
    assert_eq!(serial.2, sharded.2, "page histories diverged");
    let config = DsmConfig::new(PAGE_BYTES, procs);
    let tmk_serial = TreadMarksSim::new(config).run_history(&serial.2);
    let tmk_sharded = TreadMarksSim::new(config).run_history(&sharded.2);
    assert_eq!(tmk_serial, tmk_sharded, "DsmRunResults diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn barnes_hut_sharded_equals_serial(
        args in (16usize..120, 1usize..6, 1usize..3, 0u64..1000)
    ) {
        let (n, procs, iters, seed) = args;
        let params = BarnesHutParams { theta: 0.6, dt: 0.01, eps: 0.05, leaf_capacity: 4 };
        let mut serial = BarnesHut::two_plummer(n, seed, params);
        let mut sharded = serial.clone();
        let layout = serial.layout();
        let a = run_serial(&layout, procs, |builder| {
            for _ in 0..iters {
                serial.step_traced(procs, builder);
            }
        });
        let b = run_sharded(&layout, procs, |sink| sharded.stream_iterations(iters, sink));
        assert_reductions_match(a, b, procs);
        for (x, y) in serial.bodies.iter().zip(&sharded.bodies) {
            prop_assert_eq!(x.pos.x.to_bits(), y.pos.x.to_bits());
            prop_assert_eq!(x.cost, y.cost);
        }
    }

    /// `n` spans trees of 1, 4 and 16 leaves.  Each case runs at the drawn processor
    /// count and at 7, which divides none of those leaf counts, so neighbouring leaves
    /// always land on different owners somewhere.
    #[test]
    fn fmm_sharded_equals_serial(
        args in (2usize..100, 1usize..9, 1usize..3, 0u64..1000)
    ) {
        let (n, drawn_procs, iters, seed) = args;
        let params = FmmParams { order: 4, target_per_leaf: 8, dt: 0.01, eps: 0.05 };
        let bits = |v: nbody::Vec3| v.to_array().map(f64::to_bits);
        for procs in [drawn_procs, 7] {
            let mut serial = Fmm::two_plummer(n, seed, params);
            let mut sharded = serial.clone();
            let layout = serial.layout();
            let a = run_serial(&layout, procs, |builder| {
                for _ in 0..iters {
                    serial.step_traced(procs, builder);
                }
            });
            let b =
                run_sharded(&layout, procs, |sink| sharded.stream_iterations(iters, sink));
            assert_reductions_match(a, b, procs);
            for (x, y) in serial.bodies.iter().zip(&sharded.bodies) {
                prop_assert_eq!(bits(x.pos), bits(y.pos));
                prop_assert_eq!(bits(x.vel), bits(y.vel));
                prop_assert_eq!(bits(x.acc), bits(y.acc));
                prop_assert_eq!(x.phi.to_bits(), y.phi.to_bits());
            }
        }
    }

    #[test]
    fn water_sharded_equals_serial(
        args in (16usize..120, 1usize..6, 1usize..3, 0u64..1000)
    ) {
        let (n, procs, iters, seed) = args;
        let params = WaterSpatialParams { box_side: 8.0, cutoff: 2.0, dt: 1e-4 };
        let mut serial = WaterSpatial::lattice(n, seed, params);
        let mut sharded = serial.clone();
        let layout = serial.layout();
        let a = run_serial(&layout, procs, |builder| {
            for _ in 0..iters {
                serial.step_traced(procs, builder);
            }
        });
        let b = run_sharded(&layout, procs, |sink| sharded.stream_steps(iters, sink));
        assert_reductions_match(a, b, procs);
        for (x, y) in serial.molecules.iter().zip(&sharded.molecules) {
            prop_assert_eq!(x.atom_pos[0][0].to_bits(), y.atom_pos[0][0].to_bits());
        }
    }

    #[test]
    fn moldyn_sharded_equals_serial(
        args in (16usize..150, 1usize..6, 1usize..4, 0u64..1000)
    ) {
        let (n, procs, iters, seed) = args;
        // rebuild_interval 2 so multi-step cases cross an interaction-list rebuild.
        let params = MoldynParams { box_side: 8.0, cutoff: 2.0, dt: 1e-4, rebuild_interval: 2 };
        let mut serial = Moldyn::lattice(n, seed, params);
        let mut sharded = serial.clone();
        let layout = serial.layout();
        let a = run_serial(&layout, procs, |builder| {
            for _ in 0..iters {
                serial.step_traced(procs, builder);
            }
        });
        let b = run_sharded(&layout, procs, |sink| sharded.stream_steps(iters, sink));
        assert_reductions_match(a, b, procs);
        prop_assert_eq!(&serial.pairs, &sharded.pairs);
        for (x, y) in serial.molecules.iter().zip(&sharded.molecules) {
            for k in 0..3 {
                prop_assert_eq!(x.pos[k].to_bits(), y.pos[k].to_bits());
                prop_assert_eq!(x.force[k].to_bits(), y.force[k].to_bits());
            }
        }
    }

    #[test]
    fn unstructured_sharded_equals_serial(
        args in (32usize..300, 1usize..8, 1usize..3, 0u64..1000)
    ) {
        let (n, procs, iters, seed) = args;
        let mut serial = Unstructured::generated(n, seed, UnstructuredParams::default());
        let mut sharded = serial.clone();
        let layout = serial.layout();
        let a = run_serial(&layout, procs, |builder| {
            for _ in 0..iters {
                serial.sweep_traced(procs, builder);
            }
        });
        let b = run_sharded(&layout, procs, |sink| sharded.stream_sweeps(iters, sink));
        assert_reductions_match(a, b, procs);
        for (x, y) in serial.nodes.iter().zip(&sharded.nodes) {
            prop_assert_eq!(x.value.to_bits(), y.value.to_bits());
        }
    }
}

// The shim's executor is a per-process global, so the cases above all run on
// whatever pool `RAYON_NUM_THREADS` sized.  These two cases force the 1-, 2- and
// 8-worker schedules explicitly via `rayon::with_num_threads`, so concurrent shard
// fills + work-stealing drains are pinned bit-identical even on a 1-core host.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn barnes_hut_sharded_is_schedule_independent(
        args in (16usize..100, 1usize..6, 0usize..3, 0u64..1000)
    ) {
        let (n, procs, threads_index, seed) = args;
        let threads = [1usize, 2, 8][threads_index];
        let params = BarnesHutParams { theta: 0.6, dt: 0.01, eps: 0.05, leaf_capacity: 4 };
        let mut serial = BarnesHut::two_plummer(n, seed, params);
        let mut sharded = serial.clone();
        let layout = serial.layout();
        let a = run_serial(&layout, procs, |builder| serial.step_traced(procs, builder));
        let b = rayon::with_num_threads(threads, || {
            run_sharded(&layout, procs, |sink| sharded.stream_iterations(1, sink))
        });
        assert_reductions_match(a, b, procs);
    }

    #[test]
    fn unstructured_sharded_is_schedule_independent(
        args in (32usize..300, 1usize..8, 0usize..3, 0u64..1000)
    ) {
        let (n, procs, threads_index, seed) = args;
        let threads = [1usize, 2, 8][threads_index];
        let mut serial = Unstructured::generated(n, seed, UnstructuredParams::default());
        let mut sharded = serial.clone();
        let layout = serial.layout();
        let a = run_serial(&layout, procs, |builder| serial.sweep_traced(procs, builder));
        let b = rayon::with_num_threads(threads, || {
            run_sharded(&layout, procs, |sink| sharded.stream_sweeps(1, sink))
        });
        assert_reductions_match(a, b, procs);
    }
}
