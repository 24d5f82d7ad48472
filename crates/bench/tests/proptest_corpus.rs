//! Equivalence suite for the on-disk trace corpus at the application level: for every
//! one of the five applications, at arbitrary sizes / processor counts / seeds,
//! recording a run through a [`CorpusWriter`] and replaying the corpus must be
//! indistinguishable from driving the sinks live — bit-identical [`ProgramTrace`]s,
//! hardware-simulator counters, [`PageWriteHistory`]s and [`dsm::DsmRunResult`]s.
//!
//! The live side tees one traced run into all three consumers at once (same harness
//! as the sharded-producer suite); the corpus side records once and replays the bytes
//! three times, proving a single recorded artifact serves every consumer.

use proptest::prelude::*;

use dsm::{DsmConfig, HlrcSim, PageHistorySink, PageWriteHistory, TreadMarksSim};
use memsim::{OriginPreset, SimSink, SinkResult};
use repro_bench::{AppKind, LiveApp};
use smtrace::codec::{CorpusReader, CorpusWriter};
use smtrace::{ObjectLayout, ProgramTrace, TeeSink, TraceBuilder, TraceSink};

/// DSM page granularity used by the history reduction (sub-page, so straddling
/// object sizes like Water's 680 B are exercised).
const PAGE_BYTES: usize = 1024;

/// Drive one traced run into all three consumers at once.
fn run_live(
    app: &LiveApp,
    procs: usize,
    iters: usize,
) -> (ProgramTrace, SinkResult, PageWriteHistory) {
    let layout = app.layout();
    let mut live = app.clone();
    let mut builder = TraceBuilder::new(layout.clone(), procs);
    let mut sim = SimSink::new(OriginPreset::origin2000(procs).build_machine(), layout.clone());
    let mut hist = PageHistorySink::new(layout.clone(), procs, PAGE_BYTES);
    {
        let mut inner = TeeSink::new(&mut sim, &mut hist);
        let mut sink = TeeSink::new(&mut builder, &mut inner);
        live.stream_sharded(iters, &mut sink);
    }
    (builder.finish(), sim.finish(), hist.finish())
}

/// Record the identical run into an in-memory corpus, then replay the bytes into each
/// consumer separately (one artifact, many consumers).
fn run_corpus(
    app: &LiveApp,
    procs: usize,
    iters: usize,
) -> (ProgramTrace, SinkResult, PageWriteHistory) {
    let layout = app.layout();
    let mut live = app.clone();
    let mut writer = CorpusWriter::new(Vec::new(), layout.clone(), procs).expect("writer");
    live.stream_sharded(iters, &mut writer);
    let (bytes, summary) = writer.finish_into_inner().expect("record");

    let replay = |sink: &mut dyn TraceSink| {
        let mut reader = CorpusReader::new(bytes.as_slice()).expect("header");
        let read = reader.replay_into(sink).expect("decode");
        assert_eq!(read, summary, "decode summary diverged from the recording summary");
    };
    let mut builder = TraceBuilder::new(layout.clone(), procs);
    replay(&mut builder);
    let mut sim = SimSink::new(OriginPreset::origin2000(procs).build_machine(), layout.clone());
    replay(&mut sim);
    let mut hist = PageHistorySink::new(layout.clone(), procs, PAGE_BYTES);
    replay(&mut hist);
    (builder.finish(), sim.finish(), hist.finish())
}

fn assert_corpus_equals_live(app: AppKind, n: usize, procs: usize, iters: usize, seed: u64) {
    let initial = LiveApp::build(app, n, seed);
    let live = run_live(&initial, procs, iters);
    let corpus = run_corpus(&initial, procs, iters);
    assert_eq!(live.0, corpus.0, "{app:?}: ProgramTraces diverged");
    assert_eq!(live.1, corpus.1, "{app:?}: simulator counters diverged");
    assert_eq!(live.2, corpus.2, "{app:?}: page histories diverged");
    // And the DSM protocol results computed from the two histories.
    let config = DsmConfig::new(PAGE_BYTES, procs);
    assert_eq!(
        TreadMarksSim::new(config).run_history(&live.2),
        TreadMarksSim::new(config).run_history(&corpus.2),
        "{app:?}: TreadMarks DsmRunResults diverged"
    );
    assert_eq!(
        HlrcSim::new(config).run_history(&live.2),
        HlrcSim::new(config).run_history(&corpus.2),
        "{app:?}: HLRC DsmRunResults diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn barnes_hut_corpus_replay_equals_live(
        args in (16usize..120, 1usize..6, 1usize..3, 0u64..1000)
    ) {
        let (n, procs, iters, seed) = args;
        assert_corpus_equals_live(AppKind::BarnesHut, n, procs, iters, seed);
    }

    #[test]
    fn fmm_corpus_replay_equals_live(
        args in (16usize..100, 1usize..5, 1usize..3, 0u64..1000)
    ) {
        let (n, procs, iters, seed) = args;
        assert_corpus_equals_live(AppKind::Fmm, n, procs, iters, seed);
    }

    #[test]
    fn water_corpus_replay_equals_live(
        args in (16usize..120, 1usize..6, 1usize..3, 0u64..1000)
    ) {
        let (n, procs, iters, seed) = args;
        assert_corpus_equals_live(AppKind::WaterSpatial, n, procs, iters, seed);
    }

    #[test]
    fn moldyn_corpus_replay_equals_live(
        args in (16usize..150, 1usize..6, 1usize..4, 0u64..1000)
    ) {
        let (n, procs, iters, seed) = args;
        assert_corpus_equals_live(AppKind::Moldyn, n, procs, iters, seed);
    }

    #[test]
    fn unstructured_corpus_replay_equals_live(
        args in (32usize..300, 1usize..8, 1usize..3, 0u64..1000)
    ) {
        let (n, procs, iters, seed) = args;
        assert_corpus_equals_live(AppKind::Unstructured, n, procs, iters, seed);
    }
}

/// One deterministic disk round-trip (the proptest cases above stay in memory): the
/// file path, `CorpusWriter::create` and `CorpusReader::open` are part of the
/// contract too.
#[test]
fn corpus_survives_the_disk_round_trip() {
    let path = std::env::temp_dir().join(format!("xp-proptest-corpus-{}.smtc", std::process::id()));
    let initial = LiveApp::build(AppKind::Moldyn, 200, 17);
    let layout = initial.layout();
    let procs = 4;

    let mut live = initial.clone();
    let mut writer = CorpusWriter::create(&path, layout.clone(), procs).expect("create");
    live.stream_sharded(2, &mut writer);
    // `create` stages through `<path>.tmp`; only the durable finish publishes `path`.
    let written = writer.finish_durable().expect("finish");

    let mut reader = CorpusReader::open(&path).expect("open");
    assert_eq!(reader.layout(), &layout);
    let mut builder = TraceBuilder::new(layout.clone(), procs);
    let read = reader.replay_into(&mut builder).expect("decode");
    assert_eq!(written, read);
    assert_eq!(read.file_bytes, std::fs::metadata(&path).expect("stat").len());

    let mut direct = TraceBuilder::new(layout, procs);
    initial.clone().stream_sharded(2, &mut direct);
    assert_eq!(builder.finish(), direct.finish());
    std::fs::remove_file(&path).ok();
}

/// The corpus layout header is authoritative: a reader constructed from the bytes
/// alone (no out-of-band layout) feeds consumers the right geometry.
#[test]
fn reader_layout_drives_consumers_without_out_of_band_state() {
    let initial = LiveApp::build(AppKind::WaterSpatial, 64, 3);
    let procs = 3;
    let mut live = initial.clone();
    let mut writer = CorpusWriter::new(Vec::new(), initial.layout(), procs).expect("writer");
    live.stream_sharded(1, &mut writer);
    let (bytes, _) = writer.finish_into_inner().expect("record");

    let mut reader = CorpusReader::new(bytes.as_slice()).expect("header");
    // Build the sink purely from what the reader reports.
    let layout: ObjectLayout = reader.layout().clone();
    let mut sim =
        SimSink::new(OriginPreset::origin2000(reader.num_procs()).build_machine(), layout);
    reader.replay_into(&mut sim).expect("decode");
    let replayed = sim.finish();

    let mut live2 = initial.clone();
    let mut direct =
        SimSink::new(OriginPreset::origin2000(procs).build_machine(), initial.layout());
    live2.stream_sharded(1, &mut direct);
    assert_eq!(replayed, direct.finish());
}
