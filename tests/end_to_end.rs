//! Cross-crate integration tests: the paper's headline claims, checked end to end on
//! reduced problem sizes.  Each test builds a real application, records a trace, runs
//! it through the hardware or software-DSM substrate, and asserts the *direction* (and
//! rough magnitude) of the effect the paper reports.

use datareorder::dsm::{DsmConfig, HlrcSim, NetworkCostModel, TreadMarksSim};
use datareorder::memsim::{page_sharing, CostModel, OriginPreset};
use datareorder::molecular::{Moldyn, MoldynParams, WaterSpatial, WaterSpatialParams};
use datareorder::nbody::{BarnesHut, BarnesHutParams, Fmm, FmmParams};
use datareorder::reorder::Method;
use datareorder::unstructured::{Unstructured, UnstructuredParams};

/// Figures 2 & 5: Hilbert reordering sharply reduces the number of processors writing
/// each page of the Barnes-Hut particle array.
#[test]
fn barnes_hut_reordering_reduces_page_write_sharing() {
    let procs = 16;
    let build = |reorder: bool| {
        let mut sim = BarnesHut::two_plummer(8_192, 3, BarnesHutParams::default());
        if reorder {
            sim.reorder(Method::Hilbert);
        }
        let trace = sim.trace_iterations(1, procs);
        page_sharing(&trace, &sim.layout(), 8 * 1024).mean_writers()
    };
    let original = build(false);
    let reordered = build(true);
    assert!(
        reordered * 2.0 < original,
        "mean writers/page should drop by at least 2x: {original:.2} -> {reordered:.2}"
    );
}

/// Table 3 / Figure 8: on the TreadMarks model, Hilbert reordering cuts both the
/// message count and the data volume of Barnes-Hut by large factors.
#[test]
fn barnes_hut_reordering_cuts_treadmarks_traffic() {
    let procs = 16;
    let config = DsmConfig::cluster(procs);
    let run = |reorder: bool| {
        let mut sim = BarnesHut::two_plummer(8_192, 5, BarnesHutParams::default());
        if reorder {
            sim.reorder(Method::Hilbert);
        }
        let trace = sim.trace_iterations(1, procs);
        TreadMarksSim::new(config).run(&trace).stats
    };
    let original = run(false);
    let reordered = run(true);
    assert!(reordered.messages * 3 < original.messages);
    assert!(reordered.data_bytes * 2 < original.data_bytes);
}

/// Table 3: for the Category-2 Moldyn, column ordering produces fewer messages than
/// Hilbert ordering on the page-based protocols (the paper's ~3x TreadMarks gap).
#[test]
fn moldyn_column_beats_hilbert_on_page_based_dsm() {
    let procs = 16;
    let config = DsmConfig::cluster(procs);
    let run = |method: Method| {
        let mut sim = Moldyn::lattice(6_000, 7, MoldynParams::default());
        sim.reorder(method);
        let trace = sim.trace_steps(2, procs);
        TreadMarksSim::new(config).run(&trace).stats
    };
    let column = run(Method::Column);
    let hilbert = run(Method::Hilbert);
    assert!(
        column.messages < hilbert.messages,
        "column ({}) should send fewer messages than hilbert ({})",
        column.messages,
        hilbert.messages
    );
}

/// Table 2: on the cache-line-grained hardware model the ranking flips — Hilbert gives
/// fewer L2 misses than column for Moldyn on 16 processors.
#[test]
fn moldyn_hilbert_beats_column_on_hardware_model() {
    let procs = 16;
    let run = |method: Method| {
        let mut sim = Moldyn::lattice(6_000, 7, MoldynParams::default());
        sim.reorder(method);
        let trace = sim.trace_steps(2, procs);
        let mut machine = OriginPreset::origin2000(procs).build_machine();
        machine.run_trace(&trace).l2_misses()
    };
    let column = run(Method::Column);
    let hilbert = run(Method::Hilbert);
    assert!(
        hilbert < column,
        "hilbert ({hilbert}) should take fewer L2 misses than column ({column})"
    );
}

/// Section 5.2: for the same trace, TreadMarks sends more messages than HLRC (the
/// homeless protocol pays one exchange per writer, the home-based one per page).
#[test]
fn treadmarks_sends_more_messages_than_hlrc_for_the_same_sharing() {
    let procs = 16;
    let config = DsmConfig::cluster(procs);
    let mut sim = Fmm::two_plummer(4_096, 9, FmmParams::default());
    let trace = sim.trace_iterations(1, procs);
    let tmk = TreadMarksSim::new(config).run(&trace);
    let hlrc = HlrcSim::new(config).run(&trace);
    assert!(tmk.stats.messages > hlrc.stats.messages);
}

/// Figures 8 & 9: the estimated speedup of the reordered version exceeds the original
/// for every application, on both protocols.
#[test]
fn every_application_improves_on_both_dsm_models() {
    let procs = 16;
    let config = DsmConfig::cluster(procs);
    let cost = NetworkCostModel::default();

    // (name, original trace+layout, reordered trace+layout) triples, built per app.
    let mut cases: Vec<(
        &str,
        datareorder::smtrace::ProgramTrace,
        datareorder::smtrace::ProgramTrace,
    )> = Vec::new();

    {
        let mut a = BarnesHut::two_plummer(4_096, 11, BarnesHutParams::default());
        let mut b = a.clone();
        b.reorder(Method::Hilbert);
        cases.push(("barnes", a.trace_iterations(1, procs), b.trace_iterations(1, procs)));
    }
    {
        let mut a = Fmm::two_plummer(4_096, 11, FmmParams::default());
        let mut b = a.clone();
        b.reorder(Method::Hilbert);
        cases.push(("fmm", a.trace_iterations(1, procs), b.trace_iterations(1, procs)));
    }
    {
        let mut a = WaterSpatial::lattice(2_048, 11, WaterSpatialParams::default());
        let mut b = a.clone();
        b.reorder(Method::Hilbert);
        cases.push(("water", a.trace_steps(1, procs), b.trace_steps(1, procs)));
    }
    {
        let mut a = Moldyn::lattice(4_000, 11, MoldynParams::default());
        let mut b = a.clone();
        b.reorder(Method::Column);
        cases.push(("moldyn", a.trace_steps(2, procs), b.trace_steps(2, procs)));
    }
    {
        let mut a = Unstructured::generated(4_096, 11, UnstructuredParams::default());
        let mut b = a.clone();
        b.reorder(Method::Column);
        cases.push(("mesh", a.trace_sweeps(2, procs), b.trace_sweeps(2, procs)));
    }

    for (name, original, reordered) in &cases {
        for protocol in ["tmk", "hlrc"] {
            let (orig_est, reord_est) = if protocol == "tmk" {
                (
                    cost.estimate(&TreadMarksSim::new(config).run(original)),
                    cost.estimate(&TreadMarksSim::new(config).run(reordered)),
                )
            } else {
                (
                    cost.estimate(&HlrcSim::new(config).run(original)),
                    cost.estimate(&HlrcSim::new(config).run(reordered)),
                )
            };
            assert!(
                reord_est.speedup > orig_est.speedup,
                "{name}/{protocol}: reordered speedup {:.2} should beat original {:.2}",
                reord_est.speedup,
                orig_est.speedup
            );
        }
    }
}

/// Table 2 (single processor): with a working set larger than the TLB reach, Hilbert
/// reordering reduces single-processor TLB misses for Barnes-Hut by a large factor.
#[test]
fn barnes_hut_reordering_cuts_single_processor_tlb_misses() {
    let run = |reorder: bool| {
        let mut sim = BarnesHut::two_plummer(16_384, 13, BarnesHutParams::default());
        if reorder {
            sim.reorder(Method::Hilbert);
        }
        let trace = sim.trace_iterations(1, 1);
        let mut machine = OriginPreset::origin2000(1).build_machine();
        machine.run_trace_with_layout(&trace, &sim.layout()).tlb_misses()
    };
    let original = run(false);
    let reordered = run(true);
    assert!(
        reordered * 2 < original,
        "1-processor TLB misses should drop at least 2x: {original} -> {reordered}"
    );
}

/// The reordering cost (the paper's "Cost of Reorder" column) is small relative to a
/// single real iteration of the application, measured in the same build.
#[test]
fn reordering_cost_is_negligible_relative_to_an_iteration() {
    let mut sim = BarnesHut::two_plummer(8_192, 15, BarnesHutParams::default());
    let t0 = std::time::Instant::now();
    sim.reorder(Method::Hilbert);
    let reorder_cost = t0.elapsed().as_secs_f64();
    let t0 = std::time::Instant::now();
    sim.step_sequential();
    let iteration_time = t0.elapsed().as_secs_f64();
    assert!(
        reorder_cost < iteration_time,
        "reorder cost {reorder_cost:.4}s should be below one real iteration {iteration_time:.4}s"
    );
    // The modelled iteration time is also available through the hardware substrate;
    // exercise that path so the cost model stays covered by an integration test.
    let trace = sim.trace_iterations(1, 16);
    let mut machine = OriginPreset::origin2000(16).build_machine();
    let result = machine.run_trace_with_layout(&trace, &sim.layout());
    assert!(CostModel::default().machine_time(&result) > 0.0);
}

/// The streaming pipeline end to end: every application driven straight into a
/// `SimSink` produces the identical per-processor counters as materializing its trace
/// and replaying it — no `ProgramTrace` required for the Table 2 numbers.
#[test]
fn streaming_apps_match_materialized_replay_for_all_five_applications() {
    use datareorder::memsim::SimSink;

    let procs = 8;
    let preset = OriginPreset::miniature(procs);
    // (name, materialized result, streamed result) per application; the app is built
    // twice from the same seed so both paths trace the identical execution.
    let mut cases = Vec::new();

    let mut a = BarnesHut::two_plummer(1_024, 11, BarnesHutParams::default());
    let mut b = BarnesHut::two_plummer(1_024, 11, BarnesHutParams::default());
    let trace = a.trace_iterations(2, procs);
    let mut sink = SimSink::new(preset.build_machine(), b.layout());
    b.stream_iterations(2, &mut sink);
    cases.push(("Barnes-Hut", preset.build_machine().run_trace(&trace), sink.finish().machine));

    let mut a = Fmm::two_plummer(512, 12, FmmParams::default());
    let mut b = Fmm::two_plummer(512, 12, FmmParams::default());
    let trace = a.trace_iterations(1, procs);
    let mut sink = SimSink::new(preset.build_machine(), b.layout());
    b.stream_iterations(1, &mut sink);
    cases.push(("FMM", preset.build_machine().run_trace(&trace), sink.finish().machine));

    let mut a = WaterSpatial::lattice(512, 13, WaterSpatialParams::default());
    let mut b = WaterSpatial::lattice(512, 13, WaterSpatialParams::default());
    let trace = a.trace_steps(2, procs);
    let mut sink = SimSink::new(preset.build_machine(), b.layout());
    b.stream_steps(2, &mut sink);
    cases.push(("Water-Spatial", preset.build_machine().run_trace(&trace), sink.finish().machine));

    let mut a = Moldyn::lattice(600, 14, MoldynParams::default());
    let mut b = Moldyn::lattice(600, 14, MoldynParams::default());
    let trace = a.trace_steps(2, procs);
    let mut sink = SimSink::new(preset.build_machine(), b.layout());
    b.stream_steps(2, &mut sink);
    cases.push(("Moldyn", preset.build_machine().run_trace(&trace), sink.finish().machine));

    let mut a = Unstructured::generated(512, 15, UnstructuredParams::default());
    let mut b = Unstructured::generated(512, 15, UnstructuredParams::default());
    let trace = a.trace_sweeps(2, procs);
    let mut sink = SimSink::new(preset.build_machine(), b.layout());
    b.stream_sweeps(2, &mut sink);
    cases.push(("Unstructured", preset.build_machine().run_trace(&trace), sink.finish().machine));

    for (app, materialized, streamed) in cases {
        assert_eq!(materialized, streamed, "{app}: streaming diverged from materialized replay");
        assert!(materialized.totals().accesses > 0, "{app}: empty trace");
    }
}
