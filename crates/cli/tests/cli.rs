//! Black-box tests of the `xp` binary surface: `--jobs`, `--procs` and `--out`
//! validation, trailing arguments, serve-over-stdin, and sweep-level deduplication.

use std::io::Write;
use std::process::{Command, Stdio};

fn xp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xp"))
}

#[test]
fn jobs_zero_is_rejected_with_a_clear_error() {
    let out = xp().args(["run", "fig3", "--jobs", "0"]).output().unwrap();
    assert!(!out.status.success(), "--jobs 0 must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--jobs must be at least 1"), "got: {stderr}");
    // An error, not a panic.
    assert!(!stderr.contains("panicked"), "got: {stderr}");
}

#[test]
fn jobs_one_still_runs_an_experiment() {
    let out = xp().args(["run", "fig3", "--jobs", "1", "--scale", "tiny"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("hilbert"));
}

#[test]
fn serve_on_stdin_dedupes_across_submissions() {
    use std::io::{BufRead, BufReader};

    let mut child = xp()
        .args(["serve", "--jobs", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    let mut reader = BufReader::new(child.stdout.take().unwrap());

    // The cache dedupes completed cells, so submit the second job only after
    // the first one's done event — then its every cell must be a hit.
    stdin
        .write_all(
            b"{\"cmd\": \"submit\", \"experiment\": \"fig3\", \"scale\": \"tiny\", \"job\": 1}\n",
        )
        .unwrap();
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        assert_ne!(reader.read_line(&mut line).unwrap(), 0, "server hung up: {lines:?}");
        lines.push(line.trim_end().to_string());
        if lines.last().unwrap().contains("\"event\": \"done\"") {
            break;
        }
    }
    stdin
        .write_all(
            b"{\"cmd\": \"submit\", \"experiment\": \"fig3\", \"scale\": \"tiny\", \"job\": 2}\n",
        )
        .unwrap();
    // Dropping stdin is the EOF that drains the session.
    drop(stdin);
    for line in reader.lines() {
        lines.push(line.unwrap());
    }
    let status = child.wait().unwrap();
    assert!(status.success());

    let dones: Vec<&String> = lines.iter().filter(|l| l.contains("\"event\": \"done\"")).collect();
    assert_eq!(dones.len(), 2, "{lines:?}");
    assert!(
        dones[1].contains("\"cache_hits\": 4") && dones[1].contains("\"computed\": 0"),
        "the second submission must be fully deduplicated: {lines:?}"
    );
    assert!(lines.iter().any(|l| l.contains("\"event\": \"bye\"")), "{lines:?}");
}

#[test]
fn sweep_runs_a_repeated_id_or_alias_once() {
    // `fig3` and `fig03` name one spec: the sweep runs it once, in first-seen order,
    // and writes its artifact once.
    let dir = std::env::temp_dir().join(format!("xp-sweep-repeat-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = xp()
        .args(["sweep", "fig3", "table1", "fig03", "fig3", "--scale", "tiny", "--out"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.matches("running fig03").count(), 1, "got: {stderr}");
    assert_eq!(stderr.matches("running table1").count(), 1, "got: {stderr}");
    assert!(stderr.find("running fig03") < stderr.find("running table1"), "got: {stderr}");
    assert!(stderr.contains("sweep complete: 2 experiments"), "got: {stderr}");
    assert!(stderr.contains("0 cache hits / 4 cell lookups"), "got: {stderr}");
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Data rows of a CSV artifact (the header and `#` fault trailer skipped).
fn csv_rows(csv: &str) -> Vec<&str> {
    csv.lines().skip(1).filter(|line| !line.starts_with('#')).collect()
}

#[test]
fn procs_one_computes_one_cell_per_unique_run() {
    // At --procs 1, table2's parallel runs and fig07's sequential baselines are the
    // runs they sit next to: 12 distinct (app, ordering) runs on one processor.
    for (spec, artifact, rows) in [("table2", "table2.csv", 12), ("fig7", "fig07.csv", 5)] {
        let dir = std::env::temp_dir().join(format!("xp-procs1-{spec}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = xp()
            .args(["sweep", spec, "--procs", "1", "--scale", "tiny", "--format", "csv", "--out"])
            .arg(&dir)
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("0 cache hits / 12 cell lookups"), "{spec}: {stderr}");
        let csv = std::fs::read_to_string(dir.join(artifact)).unwrap();
        assert_eq!(csv_rows(&csv).len(), rows, "{spec}: {csv}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn origin_specs_reject_more_processors_than_the_directory_tracks_before_any_cell_runs() {
    // The Origin machine tracks sharers in a 64-bit mask per line, so table2 and
    // fig07 cannot run on 65 processors.  The limit is a property of the
    // configuration, so it is reported once, up front: no cell runs, nothing
    // panics, no artifact is rendered, and xp exits nonzero.  A sweep checks every
    // listed spec before it runs the first one.  The DSM models have no such limit.
    let dir = std::env::temp_dir().join(format!("xp-procs65-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sweep = ["sweep", "table3", "fig07", "--scale", "tiny", "--procs", "65", "--out"];
    let runs: [Vec<&str>; 3] = [
        vec!["run", "table2", "--scale", "tiny", "--procs", "65"],
        vec!["fig", "7", "--scale", "tiny", "--procs", "65"],
        sweep.iter().copied().chain([dir.to_str().unwrap()]).collect(),
    ];
    for args in runs {
        let out = xp().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let limit = "directory masks support at most 64 processors, got 65";
        assert_eq!(stderr.matches(limit).count(), 1, "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(!stderr.contains("running "), "no experiment starts: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: {}", String::from_utf8_lossy(&out.stdout));
    }
    assert!(!dir.exists(), "a rejected sweep writes no artifact");

    let out = xp()
        .args(["run", "table3", "--scale", "tiny", "--procs", "65", "--format", "csv"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(csv_rows(&String::from_utf8_lossy(&out.stdout)).len(), 12);
}

#[test]
fn serve_answers_an_origin_submit_beyond_the_directory_limit_with_one_error() {
    let mut child = xp()
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    stdin
        .write_all(
            b"{\"cmd\": \"submit\", \"experiment\": \"table2\", \"scale\": \"tiny\", \"procs\": 65}\n",
        )
        .unwrap();
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let events: Vec<&str> = stdout.lines().collect();
    assert_eq!(events.len(), 2, "one error, then bye: {events:?}");
    assert!(events[0].contains("\"event\": \"error\""), "{events:?}");
    assert!(events[0].contains("at most 64 processors"), "{events:?}");
    assert!(
        events[1].contains("\"event\": \"bye\"") && events[1].contains("\"jobs\": 0"),
        "{events:?}"
    );
    assert!(!String::from_utf8_lossy(&out.stderr).contains("panicked"));
}

#[test]
fn serve_rejects_the_flags_each_submit_request_carries() {
    for (flag, value) in
        [("--scale", "paper"), ("--procs", "3"), ("--seed", "7"), ("--format", "json")]
    {
        let out = xp().args(["serve", flag, value]).stdin(Stdio::null()).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "`xp serve {flag}` must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.matches("error:").count(), 1, "one error: {stderr}");
        assert!(stderr.contains(flag), "the error names {flag}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "no session starts: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn out_creates_missing_parent_directories_and_names_the_one_it_cannot() {
    let dir = std::env::temp_dir().join(format!("xp-out-parents-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let nested = dir.join("a/b/fig03.csv");
    let out = xp().args(["fig", "3", "--format", "csv", "--out"]).arg(&nested).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(std::fs::read_to_string(&nested).unwrap().starts_with("method,"));

    // A parent that is a file fails up front, naming the directory it could not make.
    let blocked = nested.join("x.csv");
    let out = xp().args(["table", "2", "--scale", "tiny", "--out"]).arg(&blocked).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot create output directory"), "got: {stderr}");
    assert!(stderr.contains("fig03.csv"), "got: {stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A substrate cell that fails terminally drops exactly the rows built on it, in
/// every spec that needs the run.  table2 evaluates its 12 cells, and fig07 takes
/// 11 of its 12 from the cache and evaluates the one table2 failed.  With one
/// worker the failpoint's seeded 2-of-13 schedule is a fixed function of that
/// evaluation order: it fires on table2's cell 5 (Water-Spatial, hilbert, on 16
/// processors and on 1) and on fig07's recomputation of it (fig07's cell 5).
#[cfg(feature = "failpoints")]
#[test]
fn a_failed_substrate_cell_drops_only_its_dependent_rows() {
    let dir = std::env::temp_dir().join(format!("xp-substrate-fault-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = xp()
        .env("FAILPOINTS", "runner/cell=2/13@63*return(injected failure)")
        .args(["sweep", "table2", "fig07", "--scale", "tiny", "--jobs", "1", "--format", "csv"])
        .arg("--out")
        .arg(&dir)
        .output()
        .unwrap();
    assert!(!out.status.success(), "a failed cell must make xp exit nonzero");

    let table2 = std::fs::read_to_string(dir.join("table2.csv")).unwrap();
    let rows = csv_rows(&table2);
    assert_eq!(rows.len(), 11, "{table2}");
    assert!(!rows.iter().any(|r| r.starts_with("Water-Spatial,hilbert,")), "{table2}");
    let faults: Vec<&str> = table2.lines().filter(|l| l.starts_with("# cell-fault")).collect();
    assert_eq!(faults.len(), 1, "{table2}");
    assert!(faults[0].starts_with("# cell-fault,cell=5,status=failed,"), "{table2}");
    assert!(faults[0].contains("injected failure"), "{table2}");

    let fig07 = std::fs::read_to_string(dir.join("fig07.csv")).unwrap();
    let rows = csv_rows(&fig07);
    assert_eq!(rows.len(), 4, "{fig07}");
    assert!(!rows.iter().any(|r| r.starts_with("Water-Spatial,")), "{fig07}");
    let faults: Vec<&str> = fig07.lines().filter(|l| l.starts_with("# cell-fault")).collect();
    assert_eq!(faults.len(), 1, "{fig07}");
    assert!(faults[0].starts_with("# cell-fault,cell=5,status=failed,"), "{fig07}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sweep_rejects_unknown_experiment_ids() {
    let out = xp().args(["sweep", "fig3", "nonsense"]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no experiment named \"nonsense\""), "got: {stderr}");
}

#[test]
fn bench_and_ablation_run_only_their_own_specs() {
    // Both resolve any id or alias, then refuse a spec outside their family before
    // anything runs, and point at `xp run`.
    for (args, id) in [(["bench", "table1"], "table1"), (["ablation", "fig3"], "fig03")] {
        let out = xp().args(args).args(["--scale", "tiny"]).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: {}", String::from_utf8_lossy(&out.stdout));
        let stderr = String::from_utf8_lossy(&out.stderr);
        let named = format!("`xp {}` does not run {id:?} (run it with `xp run {id}`)", args[0]);
        assert!(stderr.contains(&named), "{args:?}: {stderr}");
    }
    let args = ["ablation", "unit-sweep", "--scale", "tiny", "--procs", "1", "--format", "csv"];
    let out = xp().args(args).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("unit_bytes,"));
}

#[test]
fn help_names_every_registered_bench() {
    let out = xp().arg("--help").output().unwrap();
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout);
    let benches = repro_bench::experiments::all().iter().filter(|s| s.id.starts_with("bench_"));
    for spec in benches {
        assert!(help.contains(spec.aliases[0]), "`xp --help` omits `xp bench {}`", spec.aliases[0]);
    }
}

#[test]
fn list_and_help_reject_trailing_arguments() {
    for args in [
        &["list", "--format", "json", "--bogus"][..],
        &["list", "extra"],
        &["help", "table"],
        &["--help", "--bogus"],
    ] {
        let out = xp().args(args).output().unwrap();
        assert!(!out.status.success(), "`xp {}` must fail", args.join(" "));
        assert!(out.stdout.is_empty(), "`xp {}` printed {:?}", args.join(" "), out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let named = format!("`xp {}` takes no arguments, got {:?}", args[0], args[1]);
        assert!(stderr.contains(&named), "got: {stderr}");
    }
    for command in ["list", "help"] {
        let out = xp().arg(command).output().unwrap();
        assert!(out.status.success(), "bare `xp {command}` still works");
        assert!(!out.stdout.is_empty());
    }
}
