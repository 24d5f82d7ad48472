//! Black-box tests of the cache-robustness surface: the cache flags' scope,
//! two processes coordinating through a shared `--cache-dir`, and the crash
//! smoke — a kill -9'd claimant whose claims a second process takes over, with
//! the final artifact bit-identical to a clean run.
//!
//! Built with `--features failpoints`, the kill test holds the first process
//! mid-compute via `FAILPOINTS=runner/cell=delay(...)` so the takeover path is
//! exercised deterministically; without the feature it degrades to a
//! shared-dir warm-start check.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn xp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xp"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xp-cliflight-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn files_with_extension(dir: &Path, ext: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .collect();
    files.sort();
    files
}

#[test]
fn cache_flags_are_rejected_where_they_do_not_apply() {
    let out = xp().args(["run", "fig3", "--single-flight"]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--single-flight"), "got: {stderr}");
}

#[test]
fn two_processes_single_flight_through_a_shared_cache_dir() {
    let cache = temp_dir("shared-cache");
    let (out1, out2) = (temp_dir("shared-one"), temp_dir("shared-two"));
    let sweep = |out: &Path| {
        let output = xp()
            .args(["sweep", "fig3", "--scale", "tiny", "--single-flight", "--format", "csv"])
            .arg("--cache-dir")
            .arg(&cache)
            .arg("--out")
            .arg(out)
            .output()
            .unwrap();
        assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
        String::from_utf8_lossy(&output.stderr).into_owned()
    };

    sweep(&out1);
    let second = sweep(&out2);
    assert!(
        second.contains("4 cache hits / 4 cell lookups"),
        "the second process must be answered from the shared dir: {second}"
    );
    assert_eq!(
        std::fs::read(out1.join("fig03.csv")).unwrap(),
        std::fs::read(out2.join("fig03.csv")).unwrap(),
        "both processes must produce bit-identical artifacts"
    );
    // Clean exit leaves no lock files or staging behind.
    assert_eq!(files_with_extension(&cache, "lock").len(), 0);
    assert_eq!(files_with_extension(&cache, "tmp").len(), 0);

    for dir in [&cache, &out1, &out2] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn a_killed_claimant_is_taken_over_and_the_result_is_bit_identical() {
    let cache = temp_dir("kill-cache");
    let (out_clean, out_b) = (temp_dir("kill-clean"), temp_dir("kill-b"));

    // The reference artifact from an undisturbed run (its own cache dir).
    let clean_cache = temp_dir("kill-clean-cache");
    let clean = xp()
        .args(["sweep", "fig3", "--scale", "tiny", "--single-flight", "--format", "csv"])
        .arg("--cache-dir")
        .arg(&clean_cache)
        .arg("--out")
        .arg(&out_clean)
        .output()
        .unwrap();
    assert!(clean.status.success(), "{}", String::from_utf8_lossy(&clean.stderr));

    // Process A claims the cells and stalls mid-compute (failpoint delay);
    // without the feature compiled in, FAILPOINTS is inert and A just runs.
    let mut a = xp()
        .env("FAILPOINTS", "runner/cell=delay(4000)")
        .args(["sweep", "fig3", "--scale", "tiny", "--single-flight"])
        .arg("--cache-dir")
        .arg(&cache)
        .arg("--out")
        .arg(&out_b) // scratch; A is killed before finishing under failpoints
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();

    // Wait for A's lock files to appear, then kill -9 the claimant.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut saw_lock = false;
    while Instant::now() < deadline {
        if !files_with_extension(&cache, "lock").is_empty() {
            saw_lock = true;
            break;
        }
        if a.try_wait().unwrap().is_some() {
            break; // A already finished (failpoints not compiled in).
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let _ = a.kill();
    let _ = a.wait();
    if cfg!(feature = "failpoints") {
        assert!(saw_lock, "a stalled claimant must be holding lock files");
    }

    // Process B over the same dir: the kernel released the dead claimant's
    // locks, so B takes its leftover lock files over at once, computes, and
    // produces an artifact bit-identical to the clean run.
    let b = xp()
        .env_remove("FAILPOINTS")
        .args(["sweep", "fig3", "--scale", "tiny", "--single-flight", "--format", "csv"])
        .arg("--cache-dir")
        .arg(&cache)
        .arg("--out")
        .arg(&out_b)
        .output()
        .unwrap();
    assert!(b.status.success(), "{}", String::from_utf8_lossy(&b.stderr));
    if cfg!(feature = "failpoints") && saw_lock {
        let stderr = String::from_utf8_lossy(&b.stderr);
        assert!(stderr.contains("taken over"), "B must report the takeover: {stderr}");
    }
    assert_eq!(
        std::fs::read(out_clean.join("fig03.csv")).unwrap(),
        std::fs::read(out_b.join("fig03.csv")).unwrap(),
        "the taken-over run must be bit-identical to the clean run"
    );

    for dir in [&cache, &clean_cache, &out_clean, &out_b] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}
