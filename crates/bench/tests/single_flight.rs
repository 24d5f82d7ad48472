//! Scheduler-level single-flight: concurrent identical jobs compute each cell
//! exactly once with counters bit-identical to serial submission, parked jobs
//! settle when the claimant publishes, lock files left by dead processes are
//! taken over, and a failed cell releases its claim instead of wedging the next
//! job.
//!
//! Tests in this file serialize on one mutex: several mutate process-global
//! state (static compute counters).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use repro_bench::cache::{CacheConfig, CellCache, CellKey, ClaimGuard, Flight, KeyBuilder};
use repro_bench::row;
use repro_bench::runner::{ExperimentResult, ExperimentSpec, RunConfig};
use repro_bench::scheduler::{run_keyed_cells, CellStatus, JobCounters, JobSession, Scheduler};
use repro_bench::Scale;

fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn tiny() -> RunConfig {
    RunConfig { scale: Scale::Tiny, procs: None, seed: None }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("xp-singleflight-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn flight_cache() -> Arc<CellCache> {
    let config = CacheConfig { single_flight: true, ..CacheConfig::default() };
    Arc::new(CellCache::with_config(config).unwrap())
}

fn session(
    scheduler: &Scheduler,
    cache: &Arc<CellCache>,
    counters: &Arc<JobCounters>,
) -> JobSession {
    JobSession {
        job: scheduler.next_job_id(),
        cache: Some(Arc::clone(cache)),
        counters: Some(Arc::clone(counters)),
        ..JobSession::default()
    }
}

// ---------------------------------------------------------------------------
// Exactly-once compute under concurrency, counters matching serial submission.

static ONCE_COMPUTES: AtomicUsize = AtomicUsize::new(0);

fn once_key(i: usize) -> CellKey {
    KeyBuilder::new("single-flight-once").field_usize("cell", i).finish()
}

fn once_spec() -> ExperimentSpec {
    ExperimentSpec {
        id: "sf_once",
        aliases: &[],
        title: "Single-flight exactly-once",
        columns: &["x"],
        notes: &[],
        run: |_cfg| {
            run_keyed_cells((0..3).map(|i| (once_key(i), i)).collect(), |i| {
                ONCE_COMPUTES.fetch_add(1, Ordering::SeqCst);
                // Long enough that the sibling job overlaps the in-flight
                // window on most runs; correctness must not depend on it.
                std::thread::sleep(Duration::from_millis(25));
                vec![row![i as u64 * 10]]
            })
        },
    }
}

#[test]
fn concurrent_identical_jobs_compute_each_cell_exactly_once() {
    let _serial = serialize();
    let spec = once_spec();
    let config = tiny();
    let scheduler = Arc::new(Scheduler::new(2));

    // Concurrent phase: two identical jobs race on one single-flight cache.
    let cache = flight_cache();
    let before = ONCE_COMPUTES.load(Ordering::SeqCst);
    let (a, b) = (Arc::new(JobCounters::default()), Arc::new(JobCounters::default()));
    let (ra, rb) = std::thread::scope(|scope| {
        let ta = scope.spawn(|| scheduler.execute(&spec, &config, session(&scheduler, &cache, &a)));
        let tb = scope.spawn(|| scheduler.execute(&spec, &config, session(&scheduler, &cache, &b)));
        (ta.join().unwrap(), tb.join().unwrap())
    });
    let concurrent_computes = ONCE_COMPUTES.load(Ordering::SeqCst) - before;
    assert_eq!(concurrent_computes, 3, "each unique cell computed exactly once");

    // Serial phase: the same two submissions one after the other.
    let serial_cache = flight_cache();
    let before = ONCE_COMPUTES.load(Ordering::SeqCst);
    let (c, d) = (Arc::new(JobCounters::default()), Arc::new(JobCounters::default()));
    let rc = scheduler.execute(&spec, &config, session(&scheduler, &serial_cache, &c));
    let rd = scheduler.execute(&spec, &config, session(&scheduler, &serial_cache, &d));
    assert_eq!(ONCE_COMPUTES.load(Ordering::SeqCst) - before, 3);

    // Aggregate counters are bit-identical to serial submission: 3 computed,
    // 3 settled as hits, regardless of which job did the computing.
    let total = |x: &Arc<JobCounters>, y: &Arc<JobCounters>| {
        (
            x.computed_cells.load(Ordering::SeqCst) + y.computed_cells.load(Ordering::SeqCst),
            x.cache_hits.load(Ordering::SeqCst) + y.cache_hits.load(Ordering::SeqCst),
        )
    };
    assert_eq!(total(&a, &b), (3, 3), "concurrent: each cell computed once, settled twice");
    assert_eq!(total(&a, &b), total(&c, &d), "counters match serial submission");

    // And every job saw bit-identical rows.
    for result in [&rb, &rc, &rd] {
        assert_eq!(ra.rows.len(), result.rows.len());
        for (x, y) in ra.rows.iter().zip(&result.rows) {
            assert_eq!(x.cells, y.cells, "single-flight rows are bit-identical");
        }
    }
}

// ---------------------------------------------------------------------------
// A parked job settles from the claimant's publish (deterministic handshake).

static PARK_STARTED: AtomicBool = AtomicBool::new(false);

fn park_key(i: usize) -> CellKey {
    KeyBuilder::new("single-flight-park").field_usize("cell", i).finish()
}

fn park_spec() -> ExperimentSpec {
    ExperimentSpec {
        id: "sf_park",
        aliases: &[],
        title: "Single-flight parking",
        columns: &["x"],
        notes: &[],
        run: |_cfg| {
            run_keyed_cells(vec![(park_key(0), 0usize), (park_key(1), 1usize)], |i| {
                // Cell 0 is uncontended; computing it proves the resolution
                // phase already ran, so cell 1 (pre-claimed by the test) is
                // parked by the time the signal flips.
                PARK_STARTED.store(true, Ordering::SeqCst);
                vec![row![i as u64]]
            })
        },
    }
}

/// Run `park_spec` while the test plays the claimant of cell 1: claim it before
/// the job starts, wait until the job has provably parked on it, then hand the
/// claim to `release`, which ends it (publishing first, or not).
fn run_parked_behind_the_test(
    cache: &Arc<CellCache>,
    release: impl FnOnce(ClaimGuard),
) -> (ExperimentResult, Arc<JobCounters>) {
    PARK_STARTED.store(false, Ordering::SeqCst);
    let scheduler = Scheduler::new(2);
    let guard = match cache.acquire(park_key(1)) {
        Flight::Claimed(guard) => guard,
        other => panic!("expected to claim an empty cache, got {other:?}"),
    };

    let counters = Arc::new(JobCounters::default());
    let result = std::thread::scope(|scope| {
        let job = {
            let (cache, counters) = (Arc::clone(cache), Arc::clone(&counters));
            let (scheduler, spec, config) = (&scheduler, park_spec(), tiny());
            scope.spawn(move || {
                let session = JobSession {
                    job: scheduler.next_job_id(),
                    cache: Some(cache),
                    counters: Some(counters),
                    ..JobSession::default()
                };
                scheduler.execute(&spec, &config, session)
            })
        };
        // Wait until the job's resolution phase has run (cell 0 computed), so
        // cell 1 is provably parked on our claim.
        let mut spins = 0;
        while !PARK_STARTED.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(5));
            spins += 1;
            assert!(spins < 1000, "job never reached its compute phase");
        }
        release(guard);
        job.join().unwrap()
    });
    (result, counters)
}

#[test]
fn a_parked_job_settles_when_the_claimant_publishes() {
    let _serial = serialize();
    let cache = flight_cache();
    let (result, counters) = run_parked_behind_the_test(&cache, |guard| {
        cache.insert(park_key(1), Arc::new(vec![row![99u64]])).unwrap();
        drop(guard);
    });

    assert_eq!(result.rows.len(), 2);
    assert_eq!(format!("{:?}", result.rows[1].cells), format!("{:?}", vec![row![99u64]][0].cells));
    assert_eq!(counters.computed_cells.load(Ordering::SeqCst), 1, "only cell 0 computed here");
    assert_eq!(counters.cache_hits.load(Ordering::SeqCst), 1, "cell 1 settled by waiting");
    assert_eq!(cache.stats().flight_waits, 1, "the wait is visible in cache stats");
}

#[test]
fn a_parked_job_runs_the_cell_itself_when_the_claimant_fails() {
    // A failed claimant releases its claim without publishing: the parked job
    // takes the claim over and runs the cell once, itself.
    let _serial = serialize();
    let cache = flight_cache();
    let (result, counters) = run_parked_behind_the_test(&cache, drop);

    assert_eq!(result.rows.len(), 2);
    assert_eq!(format!("{:?}", result.rows[1].cells), format!("{:?}", vec![row![1u64]][0].cells));
    assert!(result.cell_faults.is_empty(), "{:?}", result.cell_faults);
    assert_eq!(counters.computed_cells.load(Ordering::SeqCst), 2, "both cells computed here");
    assert_eq!(counters.cache_hits.load(Ordering::SeqCst), 0);
    assert_eq!(cache.stats().flight_waits, 0, "nothing was settled by waiting");
}

// ---------------------------------------------------------------------------
// A lock file left by a dead process is taken over, computed, and cleaned up.

fn steal_key() -> CellKey {
    KeyBuilder::new("single-flight-steal").field_u64("cell", 0).finish()
}

fn steal_spec() -> ExperimentSpec {
    ExperimentSpec {
        id: "sf_steal",
        aliases: &[],
        title: "Single-flight takeover",
        columns: &["x"],
        notes: &[],
        run: |_cfg| run_keyed_cells(vec![(steal_key(), 0usize)], |_| vec![row![7u64]]),
    }
}

#[test]
fn a_lock_file_left_by_a_dead_process_is_taken_over() {
    let _serial = serialize();
    let dir = temp_dir("steal");
    // A crashed claimant's residue: its lock file, which the kernel unlocked
    // when the process died.
    std::fs::write(dir.join(steal_key().lock_file_name()), b"").unwrap();

    let config = CacheConfig { disk: Some(dir.clone()), single_flight: true };
    let cache = Arc::new(CellCache::with_config(config).unwrap());
    let scheduler = Scheduler::new(2);
    let counters = Arc::new(JobCounters::default());
    let result = scheduler.execute(&steal_spec(), &tiny(), session(&scheduler, &cache, &counters));

    assert_eq!(result.rows.len(), 1);
    assert_eq!(counters.computed_cells.load(Ordering::SeqCst), 1);
    assert_eq!(cache.stats().flight_steals, 1, "the dead claimant's claim was taken over");
    assert!(dir.join(steal_key().file_name()).exists(), "publish committed the entry");
    assert!(!dir.join(steal_key().lock_file_name()).exists(), "the lock file was released");
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Terminal failure releases the claim: the next job claims and computes.

static FAIL_FIRST: AtomicBool = AtomicBool::new(true);

fn fail_key() -> CellKey {
    KeyBuilder::new("single-flight-fail").field_u64("cell", 0).finish()
}

fn fail_spec() -> ExperimentSpec {
    ExperimentSpec {
        id: "sf_fail",
        aliases: &[],
        title: "Single-flight terminal failure",
        columns: &["x"],
        notes: &[],
        run: |_cfg| {
            run_keyed_cells(vec![(fail_key(), 0usize)], |_| {
                if FAIL_FIRST.swap(false, Ordering::SeqCst) {
                    panic!("injected terminal failure");
                }
                vec![row![11u64]]
            })
        },
    }
}

#[test]
fn a_terminal_failure_releases_the_claim_for_the_next_job() {
    let _serial = serialize();
    FAIL_FIRST.store(true, Ordering::SeqCst);
    let cache = flight_cache();
    let scheduler = Scheduler::new(2);

    // Job A: its one run of the cell panics — the cell fails and its claim must
    // be abandoned, not leaked.
    let a = Arc::new(JobCounters::default());
    let result_a = scheduler.execute(&fail_spec(), &tiny(), session(&scheduler, &cache, &a));
    assert!(result_a.rows.is_empty());
    assert_eq!(result_a.cell_faults.len(), 1);
    assert_eq!(result_a.cell_faults[0].status, CellStatus::Panicked);

    // Job B on the same cache: if the claim were wedged this would park
    // forever; instead B claims, computes, and publishes.
    let b = Arc::new(JobCounters::default());
    let result_b = scheduler.execute(&fail_spec(), &tiny(), session(&scheduler, &cache, &b));
    assert_eq!(result_b.rows.len(), 1);
    assert!(result_b.cell_faults.is_empty());
    assert_eq!(b.computed_cells.load(Ordering::SeqCst), 1, "B computed after A's release");
}
