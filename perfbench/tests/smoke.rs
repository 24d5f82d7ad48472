//! Smoke test: every workload at tiny scale emits exactly the metrics
//! `BENCHMARK.json` declares, and the output check rejects a deliberately
//! altered counter.

use std::process::Command;

use perfbench::check::{differing_rows, failed_cells, Artifact};
use perfbench::replay::{replay, LayerCounts};
use perfbench::spans::Tracer;
use perfbench::substrate::substrate_runs;
use perfbench::Workload;
use repro_bench::experiments;
use repro_bench::runner::{Format, RunConfig};
use repro_bench::serve::Json;
use repro_bench::Scale;

const SEED: u64 = 7;

fn declared_metrics(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let doc = Json::parse(&text).expect("BENCHMARK.json is JSON");
    let Some(Json::Arr(metrics)) = doc.get(section) else { panic!("no {section} list") };
    metrics
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).expect("a named metric").to_string())
        .collect()
}

fn run_tiny(workload: Workload, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload.name(), "--seed", &SEED.to_string(), "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "tiny"])
        .output()
        .expect("perfbench runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{} failed: {stderr}", workload.name());
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    Json::parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

#[test]
fn every_workload_emits_every_declared_metric() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let names = declared_metrics(section);
        for workload in Workload::ALL {
            let result = run_tiny(workload, trace);
            let context = format!("{} --trace {}", workload.name(), u8::from(trace));
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{context}");
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0), "{context}");
            assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1), "{context}");
            let Some(Json::Obj(metrics)) = result.get("metrics") else { panic!("{context}") };
            let emitted: Vec<&str> = metrics.iter().map(|(name, _)| name.as_str()).collect();
            assert_eq!(emitted, names, "{context}: emitted metrics differ from {section}");
            for (name, metric) in metrics {
                assert!(matches!(metric.get("value"), Some(Json::Num(_))), "{context}: {name}");
            }
        }
    }
}

#[test]
fn the_output_check_rejects_an_altered_counter() {
    let config = RunConfig { scale: Scale::Tiny, procs: None, seed: Some(SEED) };
    for (spec, column) in [("table2", "par_tlb_misses"), ("table3", "tmk_data_mb")] {
        let result = experiments::find(spec).expect("a paper spec").execute(&config);
        let artifact = Artifact::parse(spec, &result.render(Format::Json)).expect("an artifact");
        let runs = substrate_runs(spec, Scale::Tiny, SEED);
        let reference = replay(&runs, &mut Tracer::default(), &mut LayerCounts::default());
        let rows = artifact.rows.len();
        assert_eq!(rows, 12);
        assert_eq!(failed_cells(&artifact, &reference, rows), 0, "{spec} matches direct calls");

        let mut altered = artifact.clone();
        let Json::Obj(fields) = &mut altered.rows[3] else { panic!("rows are objects") };
        let (_, value) = fields.iter_mut().find(|(name, _)| name == column).expect("the column");
        let Json::Num(counter) = value else { panic!("{column} is a number") };
        *counter += 1.0;
        assert_eq!(failed_cells(&altered, &reference, rows), 1, "{spec}: altered {column}");
        assert_eq!(differing_rows(&artifact, &altered), 1, "{spec}: clients disagree");

        let mut short = artifact.clone();
        short.rows.pop();
        assert_eq!(failed_cells(&short, &reference, rows), 1, "{spec}: a missing row fails");
    }
}
