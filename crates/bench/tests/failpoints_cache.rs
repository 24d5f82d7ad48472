//! Fault injection at the cell cache's commit sites (`serve/cache-commit` between
//! encode and commit, `durable/commit` before the rename): a crash between
//! computing a cell and committing its on-disk entry must leave the cache
//! directory salvage-or-absent — no partial `.cell` file, no stale `.tmp`, and a
//! fresh cache over the same directory simply treats the cell as a miss.
//!
//! Compiled only under `--features failpoints`.
#![cfg(feature = "failpoints")]

use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

use repro_bench::cache::{CellCache, KeyBuilder};
use repro_bench::durable::AtomicFile;
use repro_bench::row;

/// Every test configures a global commit point, so they must not interleave.
fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xp-cache-fp-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn dir_entries(dir: &PathBuf) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn injected_commit_failure_leaves_no_partial_entry() {
    let _serial = serialize();
    let dir = temp_dir("commit");
    let key = KeyBuilder::new("fp").field_u64("cell", 1).finish();
    let rows = Arc::new(vec![row![1u64, "payload", 2.5f64]]);

    // Crash between compute and commit: insert must surface the error, and the
    // directory must hold neither a final entry nor its staging file.
    {
        let _guard =
            failpoint::configure_guard("serve/cache-commit", "1*return(power cut)").unwrap();
        let cache = CellCache::with_disk(&dir).unwrap();
        let err = cache.insert(key, Arc::clone(&rows)).expect_err("injected commit failure");
        assert!(err.to_string().contains("power cut"), "got {err}");
        assert_eq!(dir_entries(&dir), Vec::<String>::new(), "salvage-or-absent: absent");
        // The in-memory layer still has the rows (this process computed them);
        // only the durable layer is behind.
        assert!(cache.get(key).is_some());
    }

    // A fresh cache over the same directory — the post-crash process — sees a
    // plain miss, not a corrupt entry.
    let fresh = CellCache::with_disk(&dir).unwrap();
    assert!(fresh.get(key).is_none(), "crashed commit must read back as absent");
    assert_eq!(fresh.stats().misses, 1);

    // Recomputing and inserting with the failpoint disarmed fully recovers.
    fresh.insert(key, Arc::clone(&rows)).unwrap();
    assert_eq!(dir_entries(&dir), vec![key.file_name()]);
    let reopened = CellCache::with_disk(&dir).unwrap();
    let restored = reopened.get(key).expect("committed entry readable");
    assert_eq!(restored.len(), 1);
    assert_eq!(restored[0].cells, rows[0].cells);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_commit_failure_does_not_clobber_an_existing_entry() {
    let _serial = serialize();
    let dir = temp_dir("preserve");
    let key = KeyBuilder::new("fp").field_u64("cell", 2).finish();
    let first = Arc::new(vec![row!["committed"]]);

    let cache = CellCache::with_disk(&dir).unwrap();
    cache.insert(key, Arc::clone(&first)).unwrap();
    let committed_bytes = std::fs::read(dir.join(key.file_name())).unwrap();

    // A failed re-commit (idempotent rewrite of the same cell) must leave the
    // previously committed entry byte-identical.
    let _guard = failpoint::configure_guard("serve/cache-commit", "1*return(power cut)").unwrap();
    let fresh = CellCache::with_disk(&dir).unwrap();
    fresh.insert(key, Arc::new(vec![row!["rewrite"]])).expect_err("injected commit failure");
    assert_eq!(std::fs::read(dir.join(key.file_name())).unwrap(), committed_bytes);
    assert_eq!(dir_entries(&dir), vec![key.file_name()], "no stray staging file");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_injected_commit_failure_publishes_nothing_and_removes_the_staged_bytes() {
    let _serial = serialize();
    let dir = temp_dir("atomic");
    let dest = dir.join("entry.cell");
    let tmp = dir.join("entry.cell.tmp");

    // `durable/commit` fires before the rename: the staged bytes are complete, yet
    // commit must fail, the final path must not appear, and the staging file goes.
    {
        let _guard = failpoint::configure_guard("durable/commit", "1*return(power cut)").unwrap();
        let mut file = AtomicFile::create_staged(&dest, tmp.clone()).unwrap();
        file.write_all(b"a whole entry").unwrap();
        file.flush().unwrap();
        assert_eq!(std::fs::read(&tmp).unwrap(), b"a whole entry", "fully staged");
        let err = file.commit().expect_err("injected commit failure");
        assert!(err.to_string().contains("power cut"), "got {err}");
        assert_eq!(dir_entries(&dir), Vec::<String>::new(), "nothing published, no staging");
    }

    // Disarmed, the same writer sequence publishes exactly the written bytes.
    let mut file = AtomicFile::create_staged(&dest, tmp).unwrap();
    file.write_all(b"a whole entry").unwrap();
    file.commit().unwrap();
    assert_eq!(std::fs::read(&dest).unwrap(), b"a whole entry");
    assert_eq!(dir_entries(&dir), vec!["entry.cell".to_string()]);
    std::fs::remove_dir_all(&dir).unwrap();
}
