//! Chaos battery for the single-flight transitions: a crash injected at the
//! claim site (`cache/claim`) or the publish (`serve/cache-commit`) must leave
//! no wedged waiter and no partial entry — the liveness half of the claim
//! protocol (DESIGN.md §14).
//!
//! Compiled only under `--features failpoints`.
#![cfg(feature = "failpoints")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

use repro_bench::cache::{CacheConfig, CellCache, CellKey, Flight, KeyBuilder};
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
