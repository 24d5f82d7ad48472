//! Chaos battery for the single-flight transitions: a crash injected at every
//! instrumented site (`cache/claim`, `cache/evict`, `cache/gc`, plus the
//! `serve/cache-commit` publish) must leave no wedged waiter, no partial entry,
//! and no budget overrun — the liveness half of the claim protocol (DESIGN.md
//! §14).
//!
//! Compiled only under `--features failpoints`.
#![cfg(feature = "failpoints")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::SystemTime;

use repro_bench::cache::{
    gc_dir, CacheConfig, CellCache, CellKey, Flight, KeyBuilder, MemBudget, STALE_TMP_AGE,
};
use repro_bench::row;
use repro_bench::runner::{ExperimentSpec, RunConfig};
use repro_bench::scheduler::{run_keyed_cells, JobCounters, JobSession, Scheduler};
use repro_bench::Scale;

/// Every test configures global failpoints, so they must not interleave.
fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xp-flight-fp-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn key(tag: &str) -> CellKey {
    KeyBuilder::new("flight-fp").field_str("cell", tag).finish()
}

fn flight_cache(config: CacheConfig) -> Arc<CellCache> {
    Arc::new(CellCache::with_config(CacheConfig { single_flight: true, ..config }).unwrap())
}

#[test]
fn a_panic_at_the_claim_site_releases_the_claim() {
    let _serial = serialize();
    let cache = flight_cache(CacheConfig::default());
    let key = key("claim");

    {
        let _guard =
            failpoint::configure_guard("cache/claim", "1*panic(crashed claimant)").unwrap();
        let payload = catch_unwind(AssertUnwindSafe(|| cache.acquire(key)))
            .expect_err("the claim failpoint must panic");
        let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("crashed claimant"), "got {msg:?}");
    }

    // The unwind dropped the guard: the next acquire claims, it does not park.
    match cache.acquire(key) {
        Flight::Claimed(_guard) => {}
        other => panic!("claim must be released after the panic, got {other:?}"),
    }
}

#[test]
fn a_panic_during_eviction_degrades_one_op_and_the_next_insert_restores_the_budget() {
    let _serial = serialize();
    let cache = flight_cache(CacheConfig {
        mem_budget: MemBudget { max_bytes: None, max_entries: Some(1) },
        ..CacheConfig::default()
    });
    cache.insert(key("evict-a"), Arc::new(vec![row![1u64]])).unwrap();

    {
        let _guard = failpoint::configure_guard("cache/evict", "1*panic(crashed evictor)").unwrap();
        // The panic fires *after* the removal, so the books stay balanced and
        // strictly closer to budget; this insert itself unwinds.
        catch_unwind(AssertUnwindSafe(|| cache.insert(key("evict-b"), Arc::new(vec![row![2u64]]))))
            .expect_err("the evict failpoint must panic");
    }

    // The poisoned lock is recovered, lookups still work, and the next insert
    // finishes the eviction job: the budget holds.
    cache.insert(key("evict-c"), Arc::new(vec![row![3u64]])).unwrap();
    let (entries, _) = cache.memory_usage();
    assert_eq!(entries, 1, "budget re-established after the crashed eviction");
    assert!(cache.get(key("evict-c")).is_some(), "the newest entry survives");
}

#[test]
fn an_injected_gc_failure_is_an_error_not_damage() {
    let _serial = serialize();
    let dir = temp_dir("gc");
    let key = key("gc");
    let cache = Arc::new(CellCache::with_disk(&dir).unwrap());
    cache.insert(key, Arc::new(vec![row![4u64]])).unwrap();
    std::fs::write(dir.join("stray.tmp"), b"leftover staging").unwrap();
    let aged = SystemTime::now() - STALE_TMP_AGE * 2;
    let stray = std::fs::File::options().write(true).open(dir.join("stray.tmp")).unwrap();
    stray.set_modified(aged).unwrap();

    {
        let _guard = failpoint::configure_guard("cache/gc", "1*return(disk offline)").unwrap();
        let err = gc_dir(&dir, None).expect_err("injected gc failure");
        assert!(err.to_string().contains("disk offline"), "got {err}");
        // Nothing was touched: the entry and even the stray tmp are intact.
        assert!(dir.join(key.file_name()).exists());
        assert!(dir.join("stray.tmp").exists());
    }

    // Disarmed, the same call reaps the stray staging file and keeps the entry.
    let report = gc_dir(&dir, None).unwrap();
    assert_eq!(report.reaped_tmp, 1);
    assert_eq!(report.kept_entries, 1);
    assert!(dir.join(key.file_name()).exists());
    assert!(!dir.join("stray.tmp").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Scheduler-level liveness: crashes at the claim and publish sites must not
// wedge the next job.

fn sched_key() -> CellKey {
    KeyBuilder::new("flight-fp-sched").field_u64("cell", 0).finish()
}

fn sched_spec() -> ExperimentSpec {
    ExperimentSpec {
        id: "fp_flight_sched",
        aliases: &[],
        title: "Chaos scheduler demo",
        columns: &["x"],
        notes: &[],
        run: |_cfg| run_keyed_cells(vec![(sched_key(), 0usize)], |_| vec![row![21u64]]),
    }
}

fn run_job(scheduler: &Scheduler, cache: &Arc<CellCache>) -> (u64, u64) {
    let counters = Arc::new(JobCounters::default());
    let session = JobSession {
        job: scheduler.next_job_id(),
        cache: Some(Arc::clone(cache)),
        counters: Some(Arc::clone(&counters)),
        ..JobSession::default()
    };
    let result = scheduler.execute(&sched_spec(), &config(), session);
    assert_eq!(result.rows.len(), 1);
    (
        counters.cache_hits.load(std::sync::atomic::Ordering::SeqCst),
        counters.computed_cells.load(std::sync::atomic::Ordering::SeqCst),
    )
}

fn config() -> RunConfig {
    RunConfig { scale: Scale::Tiny, procs: None, seed: None }
}

#[test]
fn a_job_crashed_at_its_claim_does_not_wedge_the_next_job() {
    let _serial = serialize();
    let cache = flight_cache(CacheConfig::default());
    let scheduler = Scheduler::new(2);

    {
        let _guard = failpoint::configure_guard("cache/claim", "1*panic(crashed job)").unwrap();
        catch_unwind(AssertUnwindSafe(|| run_job(&scheduler, &cache)))
            .expect_err("the claim failpoint must unwind the job");
    }

    // The crashed job's claim was released on unwind: the next job claims,
    // computes, and publishes — it would park forever on a leaked claim.
    assert_eq!(run_job(&scheduler, &cache), (0, 1));
    assert_eq!(run_job(&scheduler, &cache), (1, 0), "and the publish is visible");
}

#[test]
fn a_crashed_commit_still_releases_the_claim_and_serves_from_memory() {
    let _serial = serialize();
    let dir = temp_dir("commit");
    let cache = flight_cache(CacheConfig { disk: Some(dir.clone()), ..CacheConfig::default() });
    let scheduler = Scheduler::new(2);

    {
        let _guard =
            failpoint::configure_guard("serve/cache-commit", "1*return(power cut)").unwrap();
        // The durable publish fails (classified, counted), but the job still
        // returns its rows and releases the claim.
        assert_eq!(run_job(&scheduler, &cache), (0, 1));
    }
    assert_eq!(cache.stats().disk_errors, 1, "the failed commit is visible to operators");
    assert!(!dir.join(sched_key().file_name()).exists(), "complete-or-absent: absent");

    // No wedge: a rerun is answered from the memory layer (and a later rerun
    // through a fresh cache simply recomputes — the disk entry is absent, not
    // partial).
    assert_eq!(run_job(&scheduler, &cache), (1, 0));
    std::fs::remove_dir_all(&dir).unwrap();
}
