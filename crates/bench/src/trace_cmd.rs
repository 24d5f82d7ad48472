//! `xp trace` — record, replay, inspect and recover on-disk trace corpora.
//!
//! `record` streams a live application (any of the five, at any scale/procs/seed,
//! optionally reordered) through a [`CorpusWriter`] straight to disk, staged through
//! an atomic temp-file rename so a crash never publishes a partial corpus; `replay`
//! decodes a corpus into the Origin 2000 simulator or the DSM page-history reduction
//! at decode bandwidth (strictly by default, or salvaging the longest valid prefix
//! with `--lenient`); `info` validates a corpus end-to-end (checksums included) and
//! reports block statistics and the compression ratio against the packed 4-byte
//! in-memory stream; `recover` salvages a damaged or killed-mid-write corpus (e.g.
//! the `.tmp` staging file an interrupted `record` leaves behind) into a fresh valid
//! corpus, reporting exactly what survived and what was lost.  All four return an
//! [`ExperimentResult`] so the `xp` binary renders them with the same text/JSON/CSV
//! machinery as every other experiment.

use std::io::Read;
use std::path::Path;
use std::time::Instant;

use dsm::{DsmConfig, HlrcSim, PageHistorySink, TreadMarksSim};
use memsim::{OriginPreset, SimSink};
use reorder::Method;
use smtrace::codec::{CorpusReader, CorpusSummary, CorpusWriter};
use smtrace::{NullSink, TraceSink};

use crate::row;
use crate::runner::{ExperimentResult, Row, RunConfig};
use crate::{AppKind, LiveApp, Ordering};

/// Where `xp trace replay` feeds the decoded stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayTarget {
    /// The Origin 2000 hardware model (`memsim::SimSink`).
    Sim,
    /// The DSM page-history reduction plus both protocol simulators.
    Dsm,
}

impl ReplayTarget {
    /// Parse a `--into` argument.
    pub fn parse(s: &str) -> Option<ReplayTarget> {
        match s {
            "sim" => Some(ReplayTarget::Sim),
            "dsm" => Some(ReplayTarget::Dsm),
            _ => None,
        }
    }
}

/// Create `path`'s missing parent directories, failing with an error that names the
/// path (shared by `xp trace record` and the runner's up-front `--out` validation).
pub fn ensure_parent_dir(path: &Path) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() && !parent.is_dir() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create output directory {}: {e}", parent.display()))?;
        }
    }
    Ok(())
}

fn mbytes(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// `xp trace record`: build `app` at the config's scale, optionally reorder, and
/// stream the traced run to a corpus file at `out`.
pub fn record(
    app: AppKind,
    order: Option<Method>,
    config: &RunConfig,
    out: &Path,
) -> Result<ExperimentResult, String> {
    let t0 = Instant::now();
    let n = config.scale.size_of(app);
    let iters = config.scale.iterations_of(app);
    let procs = config.procs_or(16);
    let seed = config.seed_or(91);

    ensure_parent_dir(out)?;
    let mut live = LiveApp::build(app, n, seed);
    if let Some(method) = order {
        live.reorder(method);
    }
    let layout = live.layout();

    let record_t0 = Instant::now();
    let mut writer = CorpusWriter::create(out, layout, procs)
        .map_err(|e| format!("cannot create corpus {}: {e}", out.display()))?;
    live.stream_sharded(iters, &mut writer);
    // `finish_durable` commits the staged `.tmp` into place only after a full flush
    // and fsync: `out` either holds a complete, valid corpus or does not exist.
    let summary = writer
        .finish_durable()
        .map_err(|e| format!("cannot write corpus {}: {e}", out.display()))?;
    let record_ms = record_t0.elapsed().as_secs_f64() * 1e3;

    let ordering = order.map_or(Ordering::Original, Ordering::Reordered);
    let rows = vec![row![
        app.name(),
        n,
        procs,
        seed,
        ordering.name(),
        summary.accesses,
        summary.barriers,
        summary.lock_acquisitions,
        summary.access_blocks,
        summary.file_bytes,
        summary.bytes_per_access(),
        record_ms,
        mbytes(summary.file_bytes) / (record_ms * 1e-3)
    ]];
    Ok(ExperimentResult {
        id: "trace_record",
        title: "Trace corpus recording (live generation into the on-disk codec)",
        columns: &[
            "app",
            "n",
            "procs",
            "seed",
            "order",
            "accesses",
            "barriers",
            "locks",
            "blocks",
            "file_bytes",
            "bytes_per_access",
            "record_ms",
            "write_mb_s",
        ],
        notes: &[
            "record_ms covers generation + encode + write; the corpus replays through",
            "`xp trace replay` bit-identically to live generation.  The file is staged",
            "through an atomic temp-file rename: a killed recording leaves only a",
            "`.tmp` sibling, which `xp trace recover` salvages.",
        ],
        config: *config,
        rows,
        cell_faults: Vec::new(),
        elapsed_seconds: t0.elapsed().as_secs_f64(),
    })
}

/// What a lenient decode reports about the damage: `(valid_bytes, lost_bytes, stop_reason)`.
type SalvageReport = (u64, u64, String);

/// Decode `reader` into `sink`: strictly (any corruption is an error) or leniently
/// (salvage the longest valid block prefix).  Lenient decodes return
/// `(valid_bytes, lost_bytes, stop_reason)` alongside the prefix summary.
fn decode_into<R: Read, S: TraceSink + ?Sized>(
    reader: &mut CorpusReader<R>,
    sink: &mut S,
    lenient: bool,
    input: &Path,
    file_bytes: u64,
) -> Result<(CorpusSummary, Option<SalvageReport>), String> {
    if lenient {
        let outcome = reader.salvage_into(sink);
        let lost = file_bytes.saturating_sub(outcome.valid_bytes);
        let reason = outcome.stop_reason();
        Ok((outcome.summary, Some((outcome.valid_bytes, lost, reason))))
    } else {
        let summary = reader
            .replay_into(sink)
            .map_err(|e| format!("corpus {} failed to decode: {e}", input.display()))?;
        Ok((summary, None))
    }
}

/// Columns appended to a replay row by `--lenient` decoding.
const LENIENT_COLUMNS: [&str; 3] = ["valid_bytes", "lost_bytes", "stop"];

/// `xp trace replay`: decode the corpus at `input` into the chosen substrate and
/// report its counters plus decode-side throughput.  With `lenient`, a damaged
/// corpus replays its longest valid block prefix instead of failing, and the row
/// gains `valid_bytes` / `lost_bytes` / `stop` columns saying what was dropped.
pub fn replay(
    input: &Path,
    target: ReplayTarget,
    config: &RunConfig,
    lenient: bool,
) -> Result<ExperimentResult, String> {
    let t0 = Instant::now();
    let file_bytes = std::fs::metadata(input)
        .map_err(|e| format!("cannot stat corpus {}: {e}", input.display()))?
        .len();
    let mut reader = CorpusReader::open(input)
        .map_err(|e| format!("cannot open corpus {}: {e}", input.display()))?;
    let procs = reader.num_procs();
    let layout = reader.layout().clone();

    let (mut row, salvage, columns): (Row, _, &'static [&'static str]) = match target {
        ReplayTarget::Sim => {
            let mut sink = SimSink::new(OriginPreset::origin2000(procs).build_machine(), layout);
            let replay_t0 = Instant::now();
            let (summary, salvage) =
                decode_into(&mut reader, &mut sink, lenient, input, file_bytes)?;
            let result = sink.finish().machine;
            let replay_ms = replay_t0.elapsed().as_secs_f64() * 1e3;
            (
                row![
                    input.display().to_string(),
                    "sim",
                    procs,
                    summary.accesses,
                    replay_ms,
                    summary.accesses as f64 / (replay_ms * 1e-3) / 1e6,
                    result.l2_misses(),
                    result.tlb_misses(),
                    result.coherence_misses()
                ],
                salvage,
                if lenient {
                    &[
                        "corpus",
                        "target",
                        "procs",
                        "accesses",
                        "replay_ms",
                        "maccess_s",
                        "l2_misses",
                        "tlb_misses",
                        "coherence_misses",
                        "valid_bytes",
                        "lost_bytes",
                        "stop",
                    ]
                } else {
                    &[
                        "corpus",
                        "target",
                        "procs",
                        "accesses",
                        "replay_ms",
                        "maccess_s",
                        "l2_misses",
                        "tlb_misses",
                        "coherence_misses",
                    ]
                },
            )
        }
        ReplayTarget::Dsm => {
            let dsm_config = DsmConfig::cluster(procs);
            let mut sink = PageHistorySink::new(layout, procs, dsm_config.page_bytes);
            let replay_t0 = Instant::now();
            let (summary, salvage) =
                decode_into(&mut reader, &mut sink, lenient, input, file_bytes)?;
            let history = sink.finish();
            let tmk = TreadMarksSim::new(dsm_config).run_history(&history);
            let hlrc = HlrcSim::new(dsm_config).run_history(&history);
            let replay_ms = replay_t0.elapsed().as_secs_f64() * 1e3;
            (
                row![
                    input.display().to_string(),
                    "dsm",
                    procs,
                    summary.accesses,
                    replay_ms,
                    summary.accesses as f64 / (replay_ms * 1e-3) / 1e6,
                    tmk.stats.messages,
                    tmk.stats.data_mbytes(),
                    hlrc.stats.messages,
                    hlrc.stats.data_mbytes()
                ],
                salvage,
                if lenient {
                    &[
                        "corpus",
                        "target",
                        "procs",
                        "accesses",
                        "replay_ms",
                        "maccess_s",
                        "tmk_messages",
                        "tmk_mb",
                        "hlrc_messages",
                        "hlrc_mb",
                        "valid_bytes",
                        "lost_bytes",
                        "stop",
                    ]
                } else {
                    &[
                        "corpus",
                        "target",
                        "procs",
                        "accesses",
                        "replay_ms",
                        "maccess_s",
                        "tmk_messages",
                        "tmk_mb",
                        "hlrc_messages",
                        "hlrc_mb",
                    ]
                },
            )
        }
    };
    if let Some((valid, lost, reason)) = salvage {
        row.cells.push(valid.into());
        row.cells.push(lost.into());
        row.cells.push(reason.into());
        debug_assert_eq!(&columns[columns.len() - LENIENT_COLUMNS.len()..], &LENIENT_COLUMNS);
    }
    Ok(ExperimentResult {
        id: "trace_replay",
        title: "Trace corpus replay (decode-bound, out-of-core)",
        columns,
        notes: if lenient {
            &[
                "Lenient replay salvages the longest valid block prefix of a damaged",
                "corpus; valid_bytes/lost_bytes say what survived and stop names why",
                "decoding stopped (\"clean end marker\" for an intact corpus).",
            ]
        } else {
            &[
                "The decoded event stream is event-for-event identical to live generation,",
                "so every counter matches what the generating run would have produced.",
            ]
        },
        config: *config,
        rows: vec![row],
        cell_faults: Vec::new(),
        elapsed_seconds: t0.elapsed().as_secs_f64(),
    })
}

/// `xp trace info`: fully validate the corpus (structure + checksums) and report block
/// statistics and compression.
pub fn info(input: &Path, config: &RunConfig) -> Result<ExperimentResult, String> {
    let t0 = Instant::now();
    let mut reader = CorpusReader::open(input)
        .map_err(|e| format!("cannot open corpus {}: {e}", input.display()))?;
    let procs = reader.num_procs();
    let num_objects = reader.layout().num_objects;
    let mut void = NullSink::new(procs);
    let decode_t0 = Instant::now();
    let summary = reader
        .replay_into(&mut void)
        .map_err(|e| format!("corpus {} failed validation: {e}", input.display()))?;
    let decode_ms = decode_t0.elapsed().as_secs_f64() * 1e3;

    let rows = vec![row![
        input.display().to_string(),
        procs,
        num_objects,
        summary.accesses,
        summary.barriers,
        summary.lock_acquisitions,
        summary.intervals,
        summary.access_blocks,
        summary.payload_bytes,
        summary.file_bytes,
        summary.bytes_per_access(),
        summary.compression_vs_packed(),
        decode_ms,
        summary.accesses as f64 / (decode_ms * 1e-3) / 1e6
    ]];
    Ok(ExperimentResult {
        id: "trace_info",
        title: "Trace corpus inspection (full validation pass)",
        columns: &[
            "corpus",
            "procs",
            "num_objects",
            "accesses",
            "barriers",
            "locks",
            "intervals",
            "blocks",
            "payload_bytes",
            "file_bytes",
            "bytes_per_access",
            "compression_vs_packed",
            "decode_ms",
            "maccess_s",
        ],
        notes: &[
            "A successful info pass is a full integrity check: every block header,",
            "payload checksum and object index was validated (into a null sink).",
            "compression_vs_packed is relative to the packed 4-byte in-memory Access.",
        ],
        config: *config,
        rows,
        cell_faults: Vec::new(),
        elapsed_seconds: t0.elapsed().as_secs_f64(),
    })
}

/// `xp trace recover`: salvage the longest valid block prefix of a damaged corpus
/// (typically the `.tmp` staging file a killed `xp trace record` leaves behind) into
/// a fresh, fully valid corpus at `out`, and report what survived and what was lost.
///
/// Fails only when the header itself is unreadable — there is nothing before the
/// header to recover — or the recovered corpus cannot be written.
pub fn recover(input: &Path, out: &Path, config: &RunConfig) -> Result<ExperimentResult, String> {
    let t0 = Instant::now();
    let file_bytes = std::fs::metadata(input)
        .map_err(|e| format!("cannot stat corpus {}: {e}", input.display()))?
        .len();
    let mut reader = CorpusReader::open(input).map_err(|e| {
        format!(
            "cannot recover corpus {}: {e} (nothing precedes the header, so nothing is salvageable)",
            input.display()
        )
    })?;
    let procs = reader.num_procs();
    let layout = reader.layout().clone();

    ensure_parent_dir(out)?;
    let recover_t0 = Instant::now();
    let mut writer = CorpusWriter::create(out, layout, procs)
        .map_err(|e| format!("cannot create recovered corpus {}: {e}", out.display()))?;
    let outcome = reader.salvage_into(&mut writer);
    let recovered = writer
        .finish_durable()
        .map_err(|e| format!("cannot write recovered corpus {}: {e}", out.display()))?;
    let recover_ms = recover_t0.elapsed().as_secs_f64() * 1e3;

    let lost_bytes = file_bytes.saturating_sub(outcome.valid_bytes);
    let rows = vec![row![
        input.display().to_string(),
        out.display().to_string(),
        file_bytes,
        outcome.valid_bytes,
        lost_bytes,
        if outcome.is_intact() { "yes" } else { "no" },
        outcome.stop_reason(),
        outcome.summary.accesses,
        outcome.summary.barriers,
        outcome.summary.lock_acquisitions,
        outcome.summary.access_blocks,
        recovered.file_bytes,
        recover_ms
    ]];
    Ok(ExperimentResult {
        id: "trace_recover",
        title: "Trace corpus recovery (salvage the longest valid block prefix)",
        columns: &[
            "corpus",
            "recovered",
            "input_bytes",
            "valid_bytes",
            "lost_bytes",
            "intact",
            "stop",
            "accesses",
            "barriers",
            "locks",
            "blocks",
            "recovered_bytes",
            "recover_ms",
        ],
        notes: &[
            "The recovered file is a complete, strictly valid corpus: the input's",
            "longest valid block prefix re-encoded bit-identically plus a clean end",
            "marker.  lost_bytes counts input bytes past the last completed block;",
            "stop names the corruption (or truncation) that ended the salvage scan.",
        ],
        config: *config,
        rows,
        cell_faults: Vec::new(),
        elapsed_seconds: t0.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    fn tiny_config() -> RunConfig {
        RunConfig { scale: Scale::Tiny, procs: Some(4), seed: Some(7) }
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("xp-trace-cmd-{}-{name}", std::process::id()))
    }

    #[test]
    fn record_info_replay_round_trip() {
        let out = temp_path("roundtrip.smtc");
        let config = tiny_config();
        let recorded =
            record(AppKind::Moldyn, Some(Method::Column), &config, &out).expect("record");
        assert_eq!(recorded.rows.len(), 1);

        let inspected = info(&out, &config).expect("info");
        // Columns: accesses at 3, bytes_per_access at 10.
        let accesses = match inspected.rows[0].cells[3] {
            crate::runner::Value::Int(v) => v,
            ref other => panic!("expected Int accesses, got {other:?}"),
        };
        assert!(accesses > 0);
        let bpa = match inspected.rows[0].cells[10] {
            crate::runner::Value::Float(v) => v,
            ref other => panic!("expected Float bytes_per_access, got {other:?}"),
        };
        assert!(bpa < 4.0, "corpus should beat the packed stream, got {bpa} B/access");

        let sim = replay(&out, ReplayTarget::Sim, &config, false).expect("sim replay");
        assert_eq!(sim.columns[6], "l2_misses");
        let dsm = replay(&out, ReplayTarget::Dsm, &config, false).expect("dsm replay");
        assert_eq!(dsm.columns[6], "tmk_messages");
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn lenient_replay_of_an_intact_corpus_reports_nothing_lost() {
        let out = temp_path("lenient-intact.smtc");
        let config = tiny_config();
        record(AppKind::Moldyn, None, &config, &out).expect("record");
        let result = replay(&out, ReplayTarget::Sim, &config, true).expect("lenient replay");
        let cols = result.columns;
        assert_eq!(&cols[cols.len() - 3..], &["valid_bytes", "lost_bytes", "stop"]);
        let cells = &result.rows[0].cells;
        assert_eq!(cells[cells.len() - 2], crate::runner::Value::Int(0), "nothing lost");
        assert_eq!(cells[cells.len() - 1], crate::runner::Value::Str("clean end marker".into()));
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn recover_salvages_a_truncated_corpus_into_a_strictly_valid_one() {
        let dir = temp_path("recover-dir");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let full = dir.join("full.smtc");
        let config = tiny_config();
        record(AppKind::Fmm, None, &config, &full).expect("record");

        // A killed recording is a truncation at an arbitrary byte: chop the corpus
        // mid-stream, recover it, and strict-replay the recovered file.
        let bytes = std::fs::read(&full).unwrap();
        let cut = dir.join("cut.smtc.tmp");
        std::fs::write(&cut, &bytes[..bytes.len() * 2 / 3]).unwrap();
        let recovered = dir.join("recovered.smtc");
        let result = recover(&cut, &recovered, &config).expect("recover");
        // Columns: valid_bytes at 3, lost_bytes at 4, intact at 5, accesses at 7.
        assert_eq!(result.columns[3], "valid_bytes");
        let lost = match result.rows[0].cells[4] {
            crate::runner::Value::Int(v) => v,
            ref other => panic!("expected Int lost_bytes, got {other:?}"),
        };
        assert!(lost > 0, "a truncated corpus must report lost bytes");
        assert_eq!(result.rows[0].cells[5], crate::runner::Value::Str("no".into()));

        // Strict replay accepts the recovered corpus; lenient replay confirms intact.
        replay(&recovered, ReplayTarget::Sim, &config, false).expect("strict replay");
        let lenient = replay(&recovered, ReplayTarget::Sim, &config, true).expect("lenient");
        let cells = &lenient.rows[0].cells;
        assert_eq!(cells[cells.len() - 2], crate::runner::Value::Int(0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_refuses_a_headerless_file() {
        let dir = temp_path("recover-headerless");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let junk = dir.join("junk.smtc");
        std::fs::write(&junk, b"xx").unwrap();
        let err = recover(&junk, &dir.join("out.smtc"), &tiny_config()).unwrap_err();
        assert!(err.contains("nothing is salvageable"), "got: {err}");
        assert!(!dir.join("out.smtc").exists());
        assert!(!dir.join("out.smtc.tmp").exists(), "no staging litter on refusal");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn record_leaves_no_staging_file_behind() {
        let out = temp_path("durable.smtc");
        record(AppKind::Moldyn, None, &tiny_config(), &out).expect("record");
        assert!(out.is_file());
        let tmp = out.with_extension("smtc.tmp");
        assert!(!tmp.exists(), "commit must consume the staging file");
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn record_creates_missing_parent_directories() {
        let dir = temp_path("nested-dir");
        std::fs::remove_dir_all(&dir).ok();
        let out = dir.join("deep/corpus.smtc");
        record(AppKind::Unstructured, None, &tiny_config(), &out).expect("record");
        assert!(out.is_file());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_of_a_missing_corpus_names_the_path() {
        let missing = temp_path("does-not-exist.smtc");
        let err = replay(&missing, ReplayTarget::Sim, &tiny_config(), false).unwrap_err();
        assert!(err.contains("does-not-exist.smtc"), "error should name the path: {err}");
    }

    #[test]
    fn info_rejects_a_corrupt_corpus_with_a_typed_message() {
        let out = temp_path("corrupt.smtc");
        std::fs::write(&out, b"not a corpus at all").unwrap();
        let err = info(&out, &tiny_config()).unwrap_err();
        assert!(err.contains("not a trace corpus"), "got: {err}");
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn replay_target_parses() {
        assert_eq!(ReplayTarget::parse("sim"), Some(ReplayTarget::Sim));
        assert_eq!(ReplayTarget::parse("dsm"), Some(ReplayTarget::Dsm));
        assert_eq!(ReplayTarget::parse("nope"), None);
    }
}
