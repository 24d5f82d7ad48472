//! The one execution path of the harness: guarded cell execution under the
//! multi-experiment scheduler.
//!
//! - [`Scheduler::execute`] is the only way a spec runs.  It installs one
//!   thread-local job context around the spec's `run` function; the context
//!   carries the outcome list, the optional cache, event stream, cancel flag
//!   and counters, and a handle on the fair slot queue.
//!   Plain `ExperimentSpec::execute` delegates here with a pool-sized scheduler
//!   and a default session.
//! - [`run_keyed_cells`] is the only way a cell runs.  Every cell carries a
//!   [`CellKey`] content address ([`crate::cache`]); when the job has a cache,
//!   hits skip computation and successes are written back.  Each pending cell
//!   runs exactly once, under `catch_unwind` (DESIGN.md §13): a cell is a pure
//!   function of its key, so a failure is reported, not retried.  Called
//!   outside `Scheduler::execute` it panics: there are no bare cells.
//! - [`Scheduler`]: a bounded, *fair* slot queue shared by every in-flight
//!   experiment.  A cell is spawned onto the rayon pool only after its slot is
//!   granted, and it hands the slot back the moment it is settled, so the next
//!   pending cell starts at once; jobs waiting for a slot are granted one cell at a
//!   time, round-robin, so one wide sweep cannot starve an interactive `submit`.
//!   Slots are acquired on the supervising (job) thread — never on a pool worker —
//!   so the limiter cannot deadlock the pool it meters.
//!
//! The declarative side (specs, results, rendering) lives in [`crate::runner`].

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::cache::{CellCache, CellKey, ClaimGuard, Flight};
use crate::runner::{ExperimentResult, ExperimentSpec, Row, RunConfig};

/// How long a job with only parked cells sleeps between re-polls when nothing
/// wakes it: another process's publish or release signals no condvar here.
const PARK_POLL: Duration = Duration::from_millis(50);

/// How one cell of an experiment ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// The cell produced rows.
    Ok,
    /// The cell reported a failure (today only injectable via the `runner/cell`
    /// failpoint; the variant is the hook serve-managed fallible cell bodies use).
    Failed,
    /// The cell panicked; the unwind was caught at the cell boundary.
    Panicked,
}

impl CellStatus {
    /// Stable lowercase name used by every output format.
    pub fn name(self) -> &'static str {
        match self {
            CellStatus::Ok => "ok",
            CellStatus::Failed => "failed",
            CellStatus::Panicked => "panicked",
        }
    }
}

/// Per-cell fault record: how cell `cell` failed.
///
/// Only failures are kept: a clean experiment carries an empty fault list and
/// renders byte-identically to the pre-fault-model harness.  A cell runs once —
/// it is a pure function of its key, so a second run would fail the same way.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Index of the cell in its `run_keyed_cells` call, in input order.
    pub cell: usize,
    /// `Failed` or `Panicked`.
    pub status: CellStatus,
    /// The failure message (a panic's payload is preserved verbatim).
    pub error: String,
    /// Wall-clock seconds the cell ran before it failed.
    pub elapsed_seconds: f64,
}

// ---------------------------------------------------------------------------
// The scheduler: fair bounded slots shared by concurrent experiments.

/// Payload of the cancellation unwind: [`run_keyed_cells`] raises it before
/// starting a cell, and [`Scheduler::execute`] once more after the spec returns,
/// when the job's cancel flag is set; the serve front end's per-job
/// `catch_unwind` classifies it as a cancellation rather than a crash.  No cell
/// observes it — cells already started run to completion and are settled first.
#[derive(Debug)]
pub struct Cancelled {
    /// The cancelled job's id.
    pub job: u64,
}

/// Per-job accounting the scheduler fills in while a job runs (shared with the
/// serve front end, which reports them in `done` events).
#[derive(Debug, Default)]
pub struct JobCounters {
    /// Cells answered from the cache.
    pub cache_hits: AtomicU64,
    /// Cells actually computed (terminal successes).
    pub computed_cells: AtomicU64,
}

/// What one job brings to [`Scheduler::execute`]; every field is optional, and
/// `JobSession::default()` is what plain `ExperimentSpec::execute` runs under
/// (no cache, no events, no cancellation).
#[derive(Debug, Default, Clone)]
pub struct JobSession {
    /// Job id for fairness, events, and [`Cancelled`].
    pub job: u64,
    /// Content-addressed result cache shared across the session.
    pub cache: Option<Arc<CellCache>>,
    /// Streamed per-cell progress events.
    pub events: Option<Sender<CellEvent>>,
    /// Cooperative cancellation flag (checked before each cell starts).
    pub cancel: Option<Arc<AtomicBool>>,
    /// Hit/computed counters for the job's summary.
    pub counters: Option<Arc<JobCounters>>,
}

/// One streamed per-cell progress record: one per cell, whether it was a cache
/// hit, a computed cell or a failed one.
#[derive(Debug, Clone)]
pub struct CellEvent {
    /// The owning job.
    pub job: u64,
    /// Cell index within its `run_keyed_cells` call.
    pub cell: usize,
    /// The cell's classification.
    pub status: CellStatus,
    /// 0 for a cache hit, 1 for a computed (or failed) cell.
    pub attempt: u32,
    /// Whether the rows came from the cache.
    pub cache_hit: bool,
    /// Wall-clock seconds the cell ran (0 for a cache hit).
    pub elapsed_seconds: f64,
}

/// Bounded fair dispatcher for cells from multiple in-flight experiments.
///
/// Concurrency is metered in *slots* (default: the rayon pool width, overridden
/// by `--jobs`): each pending cell acquires one slot, runs on the pool, and
/// releases it once settled, so at most `slots` cells are in flight.  Jobs
/// waiting for a slot are served round-robin by job id — after each grant the
/// job goes to the back of the rotation — which is the per-experiment fairness
/// guarantee: with `k` experiments in flight, each gets ~`1/k` of the slots
/// regardless of how many cells it has queued.
#[derive(Debug)]
pub struct Scheduler {
    queue: Arc<SlotQueue>,
    next_job: AtomicU64,
}

impl Scheduler {
    /// A scheduler metering `jobs` concurrent cells (≥ 1).
    pub fn new(jobs: usize) -> Scheduler {
        assert!(jobs >= 1, "a scheduler needs at least one slot");
        Scheduler { queue: Arc::new(SlotQueue::new(jobs)), next_job: AtomicU64::new(1) }
    }

    /// A scheduler as wide as the executor pool.
    pub fn pool_sized() -> Scheduler {
        Scheduler::new(rayon::current_num_threads().max(1))
    }

    /// The slot count.
    pub fn jobs(&self) -> usize {
        self.queue.slots
    }

    /// A fresh job id (serve uses its own protocol-level ids; sweep takes these).
    pub fn next_job_id(&self) -> u64 {
        self.next_job.fetch_add(1, Ordering::Relaxed)
    }

    /// Execute `spec` under this scheduler: one job context is installed
    /// thread-locally around the spec's `run` function, so every cell run inside
    /// it is guarded, metered, cached, streamed and cancellable, and reports its
    /// failure, if any, into the returned result.
    ///
    /// Cancellation surfaces as a [`Cancelled`] unwind out of this call — before
    /// the next cell would start, or after the spec returns if the flag was set
    /// while its last cells ran.
    /// The serve front end wraps it in `catch_unwind`; callers that never set a
    /// cancel flag never see it.
    pub fn execute(
        &self,
        spec: &ExperimentSpec,
        config: &RunConfig,
        session: JobSession,
    ) -> ExperimentResult {
        struct Restore(Option<Rc<JobCtx>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let previous = self.0.take();
                JOB_CTX.with(|ctx| *ctx.borrow_mut() = previous);
            }
        }
        let ctx = Rc::new(JobCtx {
            job: session.job,
            queue: Arc::clone(&self.queue),
            cache: session.cache,
            events: session.events,
            cancel: session.cancel,
            counters: session.counters,
            outcomes: Mutex::new(Vec::new()),
        });
        let t0 = Instant::now();
        let rows = {
            let _restore = Restore(JOB_CTX.with(|slot| slot.borrow_mut().replace(Rc::clone(&ctx))));
            (spec.run)(config)
        };
        check_cancelled(&ctx);
        for row in &rows {
            assert_eq!(
                row.cells.len(),
                spec.columns.len(),
                "experiment {} produced a row with {} cells for {} columns",
                spec.id,
                row.cells.len(),
                spec.columns.len()
            );
        }
        let cell_faults = std::mem::take(&mut *ctx.outcomes.lock().expect("outcome lock"));
        ExperimentResult {
            id: spec.id,
            title: spec.title,
            columns: spec.columns,
            notes: spec.notes,
            config: *config,
            rows,
            cell_faults,
            elapsed_seconds: t0.elapsed().as_secs_f64(),
        }
    }
}

/// The job context `Scheduler::execute` installs around a spec's `run`.  It is
/// `Sync`: cells settle themselves through it on the workers that ran them.
#[derive(Debug)]
struct JobCtx {
    job: u64,
    queue: Arc<SlotQueue>,
    cache: Option<Arc<CellCache>>,
    events: Option<Sender<CellEvent>>,
    cancel: Option<Arc<AtomicBool>>,
    counters: Option<Arc<JobCounters>>,
    /// Failed cells of every `run_keyed_cells` call of the job.
    outcomes: Mutex<Vec<CellOutcome>>,
}

thread_local! {
    static JOB_CTX: RefCell<Option<Rc<JobCtx>>> = const { RefCell::new(None) };
}

#[derive(Debug)]
struct SlotQueue {
    slots: usize,
    state: Mutex<SlotState>,
    available: Condvar,
}

#[derive(Debug, Default)]
struct SlotState {
    free: usize,
    /// Jobs with a blocked acquire, in grant order; the front job is served next.
    rotation: VecDeque<u64>,
    /// Blocked-acquire count per job (a job leaves `rotation` only at zero).
    waiting: HashMap<u64, usize>,
}

impl SlotQueue {
    fn new(slots: usize) -> SlotQueue {
        SlotQueue {
            slots,
            state: Mutex::new(SlotState { free: slots, ..SlotState::default() }),
            available: Condvar::new(),
        }
    }

    /// Block until it is `job`'s turn and a slot is free, then take it.
    /// Fairness: a served job rotates to the back, so concurrent experiments
    /// interleave cell by cell.
    fn acquire(self: &Arc<SlotQueue>, job: u64) -> SlotGrant {
        let mut state = self.state.lock().expect("slot lock");
        *state.waiting.entry(job).or_insert(0) += 1;
        if !state.rotation.contains(&job) {
            state.rotation.push_back(job);
        }
        loop {
            if state.free > 0 && state.rotation.front() == Some(&job) {
                state.free -= 1;
                let remaining = {
                    let count = state.waiting.get_mut(&job).expect("waiting entry");
                    *count -= 1;
                    *count
                };
                state.rotation.pop_front();
                if remaining == 0 {
                    state.waiting.remove(&job);
                } else {
                    state.rotation.push_back(job);
                }
                // Another job may now be at the front with slots still free.
                self.available.notify_all();
                return SlotGrant { queue: Arc::clone(self) };
            }
            state = self.available.wait(state).expect("slot lock");
        }
    }

    fn release(&self) {
        let mut state = self.state.lock().expect("slot lock");
        state.free += 1;
        self.available.notify_all();
    }
}

/// RAII grant of one slot; releasing wakes the next job in rotation.
#[derive(Debug)]
struct SlotGrant {
    queue: Arc<SlotQueue>,
}

impl Drop for SlotGrant {
    fn drop(&mut self) {
        self.queue.release();
    }
}

// ---------------------------------------------------------------------------
// Guarded cell execution, dispatched one cell per slot.

/// Execute one experiment function per cell on rayon worker threads, flattening the
/// produced rows in cell order.
///
/// This is the parallelism point of the harness: a spec builds the independent,
/// content-addressed cells of its method × workload × substrate matrix and the
/// scheduler fans them out.  When the job has a cache, each key is consulted before
/// — and filled after — computation.  Every pending cell runs once, on its own
/// slot, under `catch_unwind`, leaning on the executor's panic contract
/// (DESIGN.md §7): a panicking cell's siblings run to completion and the pool
/// survives for the next cell.  A failed cell contributes no rows; its outcome
/// lands in the job's result.
///
/// # Panics
/// Panics when called outside [`Scheduler::execute`]: there is no job to meter,
/// guard or report the cells.
pub fn run_keyed_cells<C, F>(cells: Vec<(CellKey, C)>, f: F) -> Vec<Row>
where
    C: Send,
    F: Fn(C) -> Vec<Row> + Sync,
{
    let ctx = JOB_CTX.with(|slot| slot.borrow().clone()).expect(
        "run_keyed_cells called outside Scheduler::execute: cells only run inside a scheduled job",
    );
    let (keys, cells): (Vec<CellKey>, Vec<C>) = cells.into_iter().unzip();
    run_guarded(cells, &keys, &ctx, &f)
}

/// The execution core: cache resolution, then per-cell dispatch that runs each
/// pending cell once.  Returns the surviving rows (cell order preserved) and
/// appends the failed cells' outcomes, in cell order, to the job's list.
fn run_guarded<C, F>(cells: Vec<C>, keys: &[CellKey], ctx: &JobCtx, f: &F) -> Vec<Row>
where
    C: Send,
    F: Fn(C) -> Vec<Row> + Sync,
{
    let n = cells.len();
    // Each cell runs at most once, so dispatch moves it out instead of cloning.
    let mut cells: Vec<Option<C>> = cells.into_iter().map(Some).collect();
    let rows: Vec<OnceLock<Vec<Row>>> = (0..n).map(|_| OnceLock::new()).collect();
    let failures: Mutex<Vec<CellOutcome>> = Mutex::new(Vec::new());
    let mut pending: Vec<usize> = (0..n).collect();

    // Cache resolution: hits are settled here, before any slot is taken — a
    // fully cached experiment costs zero pool time.  Under single-flight, each
    // missing cell is either *claimed* (we own it, with a guard that releases
    // on any exit path) or *parked* (another job or process is computing it;
    // we wait outside the slot queue and re-acquire below).
    let mut waiting: Vec<usize> = Vec::new();
    let mut guards: HashMap<usize, ClaimGuard> = HashMap::new();
    if let Some(cache) = &ctx.cache {
        if cache.single_flight() {
            pending.retain(|&i| match cache.acquire(keys[i]) {
                Flight::Hit(hit) => {
                    settle_cache_hit(ctx, &rows[i], i, &hit);
                    false
                }
                Flight::Claimed(guard) => {
                    guards.insert(i, guard);
                    true
                }
                Flight::Busy => {
                    waiting.push(i);
                    false
                }
            });
        } else {
            pending.retain(|&i| match cache.get(keys[i]) {
                Some(hit) => {
                    settle_cache_hit(ctx, &rows[i], i, &hit);
                    false
                }
                None => true,
            });
        }
    }

    loop {
        // Per-cell dispatch: take one slot, spawn the cell onto the pool at once,
        // repeat.  A cell settles itself on the worker that ran it and hands its
        // slot back as its last act, so the supervising thread's next acquire
        // starts the next pending cell the moment any slot frees.  A cancel stops
        // the dispatch; the scope still waits for the cells already started.
        rayon::scope(|scope| {
            for &i in &pending {
                check_cancelled(ctx);
                let slot = ctx.queue.acquire(ctx.job);
                let cell = cells[i].take().expect("each cell is dispatched once");
                let claim = guards.remove(&i);
                let (cell_rows, failures) = (&rows[i], &failures);
                scope.spawn(move |_| {
                    let outcome = run_cell(cell, f);
                    settle_computed(ctx, keys[i], i, outcome, cell_rows, failures, claim);
                    drop(slot);
                });
            }
        });
        pending.clear();
        if waiting.is_empty() {
            break;
        }

        // Re-poll parked cells.  This happens on the supervising thread with
        // zero slots held — waiting never occupies the slot queue, so
        // cross-job blocking cannot deadlock the pool or starve the rotation.
        check_cancelled(ctx);
        let cache = ctx.cache.as_ref().expect("waiting implies a cache");
        let mut progressed = false;
        let mut still_waiting = Vec::new();
        for i in waiting.drain(..) {
            match cache.acquire(keys[i]) {
                Flight::Hit(hit) => {
                    // A single-flight win: settled by someone else's compute.
                    cache.note_flight_wait();
                    settle_cache_hit(ctx, &rows[i], i, &hit);
                    progressed = true;
                }
                Flight::Claimed(guard) => {
                    // The claimant died or failed — the claim is ours now, and
                    // the cell is dispatched in the next round.
                    guards.insert(i, guard);
                    pending.push(i);
                    progressed = true;
                }
                Flight::Busy => still_waiting.push(i),
            }
        }
        waiting = still_waiting;
        if !progressed {
            // Nothing to compute and nothing settled: park until a publish or
            // release in this process, or for one poll period.
            cache.wait_change(PARK_POLL);
        }
    }
    let mut failures = failures.into_inner().expect("failure lock");
    failures.sort_by_key(|outcome| outcome.cell);
    ctx.outcomes.lock().expect("outcome lock").extend(failures);
    rows.into_iter().filter_map(OnceLock::into_inner).flatten().collect()
}

/// Settle a computed cell as it finishes, on the worker that ran it: publish
/// its rows to the cache and count it, or record its failure; then release its
/// single-flight claim and stream its event.  Later lookups (same sweep or same
/// serve session) already see the rows; persistence failures degrade to
/// in-memory caching, loudly.
fn settle_computed(
    ctx: &JobCtx,
    key: CellKey,
    i: usize,
    (result, elapsed): (Result<Vec<Row>, (CellStatus, String)>, f64),
    rows: &OnceLock<Vec<Row>>,
    failures: &Mutex<Vec<CellOutcome>>,
    claim: Option<ClaimGuard>,
) {
    let status = match result {
        Ok(computed) => {
            if let Some(cache) = &ctx.cache {
                if let Err(error) = cache.insert(key, Arc::new(computed.clone())) {
                    eprintln!("xp: cache write for cell {key} failed: {error}");
                }
            }
            if let Some(counters) = &ctx.counters {
                counters.computed_cells.fetch_add(1, Ordering::Relaxed);
            }
            assert!(rows.set(computed).is_ok(), "cell {i} settled twice");
            CellStatus::Ok
        }
        Err((status, error)) => {
            let outcome = CellOutcome { cell: i, status, error, elapsed_seconds: elapsed };
            failures.lock().expect("failure lock").push(outcome);
            status
        }
    };
    // Release the single-flight claim: after the publish above on success, so
    // waiters wake to a hit; at once on failure, so a parked waiter (this process
    // or another) claims the cell and runs it itself instead of wedging on a
    // failed claimant.
    drop(claim);
    emit(
        ctx,
        CellEvent {
            job: ctx.job,
            cell: i,
            status,
            attempt: 1,
            cache_hit: false,
            elapsed_seconds: elapsed,
        },
    );
}

/// Settle cell `i` from cached rows: count it as a hit and stream the attempt-0
/// event.  Cells settled by waiting on another job's claim go through here too,
/// so concurrent single-flight counters match serial submission bit-for-bit.
fn settle_cache_hit(ctx: &JobCtx, slot: &OnceLock<Vec<Row>>, i: usize, rows: &[Row]) {
    assert!(slot.set(rows.to_vec()).is_ok(), "cell {i} settled twice");
    if let Some(counters) = &ctx.counters {
        counters.cache_hits.fetch_add(1, Ordering::Relaxed);
    }
    emit(
        ctx,
        CellEvent {
            job: ctx.job,
            cell: i,
            status: CellStatus::Ok,
            attempt: 0,
            cache_hit: true,
            elapsed_seconds: 0.0,
        },
    );
}

fn emit(ctx: &JobCtx, event: CellEvent) {
    if let Some(events) = &ctx.events {
        // A gone receiver (client hung up mid-stream) is not the job's problem.
        let _ = events.send(event);
    }
}

fn check_cancelled(ctx: &JobCtx) {
    if ctx.cancel.as_ref().is_some_and(|cancel| cancel.load(Ordering::SeqCst)) {
        // resume_unwind, not panic_any: cancellation is expected control flow, so
        // it must not invoke the panic hook (which would dump a spurious
        // backtrace on every cancel).
        std::panic::resume_unwind(Box::new(Cancelled { job: ctx.job }));
    }
}

/// A cell's one guarded run: catch unwinds and classify explicit failures.
/// Returns the classified result plus the elapsed seconds.
fn run_cell<C, F>(cell: C, f: &F) -> (Result<Vec<Row>, (CellStatus, String)>, f64)
where
    C: Send,
    F: Fn(C) -> Vec<Row> + Sync,
{
    let start = Instant::now();
    let caught: std::thread::Result<Result<Vec<Row>, String>> =
        catch_unwind(AssertUnwindSafe(|| {
            failpoint::point!("runner/cell", |msg: String| Err(msg));
            Ok(f(cell))
        }));
    let result = match caught {
        Ok(Ok(rows)) => Ok(rows),
        Ok(Err(msg)) => Err((CellStatus::Failed, msg)),
        Err(payload) => Err((CellStatus::Panicked, panic_message(payload.as_ref()))),
    };
    (result, start.elapsed().as_secs_f64())
}

/// Best-effort text of a caught panic payload (`&str` and `String` payloads cover
/// `panic!`; anything else is reported as opaque).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::KeyBuilder;
    use crate::row;
    use std::sync::atomic::AtomicUsize;

    fn keyed(i: usize) -> (CellKey, usize) {
        (KeyBuilder::new("scheduler-test").field_usize("cell", i).finish(), i)
    }

    #[test]
    fn plain_execute_runs_keyed_cells_under_a_default_session() {
        let spec = ExperimentSpec {
            id: "sched_plain",
            aliases: &[],
            title: "Plain execute demo",
            columns: &["x"],
            notes: &[],
            run: |_cfg| run_keyed_cells((0..4).map(keyed).collect(), |i| vec![row![i as u64 * 2]]),
        };
        let result =
            spec.execute(&RunConfig { scale: crate::Scale::Tiny, procs: None, seed: None });
        assert_eq!(result.rows.len(), 4);
        assert_eq!(result.rows[3].cells[0], crate::runner::Value::Int(6));
        assert!(result.cell_faults.is_empty());
    }

    #[test]
    fn a_session_cache_skips_recomputation_and_counts_hits() {
        let spec = ExperimentSpec {
            id: "sched_demo",
            aliases: &[],
            title: "Scheduler demo",
            columns: &["x"],
            notes: &[],
            run: |_cfg| run_keyed_cells((0..4).map(keyed).collect(), |i| vec![row![i as u64]]),
        };
        let scheduler = Scheduler::new(2);
        let cache = Arc::new(CellCache::new());
        let config = RunConfig { scale: crate::Scale::Tiny, procs: None, seed: None };
        let session = |counters: &Arc<JobCounters>| JobSession {
            job: 1,
            cache: Some(Arc::clone(&cache)),
            counters: Some(Arc::clone(counters)),
            ..JobSession::default()
        };

        let cold = Arc::new(JobCounters::default());
        let first = scheduler.execute(&spec, &config, session(&cold));
        assert_eq!(first.rows.len(), 4);
        assert_eq!(cold.computed_cells.load(Ordering::Relaxed), 4);
        assert_eq!(cold.cache_hits.load(Ordering::Relaxed), 0);

        let warm = Arc::new(JobCounters::default());
        let second = scheduler.execute(&spec, &config, session(&warm));
        assert_eq!(warm.cache_hits.load(Ordering::Relaxed), 4);
        assert_eq!(warm.computed_cells.load(Ordering::Relaxed), 0);
        for (a, b) in first.rows.iter().zip(&second.rows) {
            assert_eq!(a.cells, b.cells, "cached rows are identical to computed rows");
        }
        assert!(second.cell_faults.is_empty(), "hits look like clean computed cells");
    }

    #[test]
    fn concurrent_jobs_share_one_slot_without_deadlock() {
        // Two jobs, one slot: every cell serializes through the fair queue and
        // both experiments still complete.  (A lost wakeup or rotation bug hangs
        // this test instead of failing it.)
        let scheduler = Arc::new(Scheduler::new(1));
        let done = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for job in 1..=2u64 {
                let scheduler = Arc::clone(&scheduler);
                let done = Arc::clone(&done);
                scope.spawn(move || {
                    let spec = ExperimentSpec {
                        id: "sched_fair",
                        aliases: &[],
                        title: "Fairness demo",
                        columns: &["x"],
                        notes: &[],
                        run: |_cfg| {
                            run_keyed_cells((0..8).map(keyed).collect(), |i| vec![row![i as u64]])
                        },
                    };
                    let config = RunConfig { scale: crate::Scale::Tiny, procs: None, seed: None };
                    let session = JobSession { job, ..JobSession::default() };
                    let result = scheduler.execute(&spec, &config, session);
                    assert_eq!(result.rows.len(), 8);
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(done.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn a_freed_slot_starts_the_next_cell_while_a_slow_cell_runs() {
        // Two slots, four cells, and cell 0 finishes only after cells 1-3 have.
        // Cells 2 and 3 can run only on the slot cell 1 frees, so a scheduler that
        // held them back until cell 0 ended (a wave barrier) times cell 0 out and
        // reports it panicked instead of hanging.
        static FINISHED: OnceLock<(Sender<usize>, Mutex<std::sync::mpsc::Receiver<usize>>)> =
            OnceLock::new();
        fn finished() -> &'static (Sender<usize>, Mutex<std::sync::mpsc::Receiver<usize>>) {
            FINISHED.get_or_init(|| {
                let (tx, rx) = std::sync::mpsc::channel();
                (tx, Mutex::new(rx))
            })
        }
        let spec = ExperimentSpec {
            id: "sched_conserve",
            aliases: &[],
            title: "Work conservation demo",
            columns: &["x"],
            notes: &[],
            run: |_cfg| {
                run_keyed_cells((0..4).map(keyed).collect(), |i| {
                    let (tx, rx) = finished();
                    if i == 0 {
                        let rx = rx.lock().expect("receiver lock");
                        for _ in 1..4 {
                            rx.recv_timeout(Duration::from_secs(10))
                                .expect("cells 1-3 finish while cell 0 holds its slot");
                        }
                    } else {
                        tx.send(i).expect("receiver lives in a static");
                    }
                    vec![row![i as u64]]
                })
            },
        };
        let config = RunConfig { scale: crate::Scale::Tiny, procs: None, seed: None };
        let result = rayon::with_num_threads(2, || {
            Scheduler::new(2).execute(&spec, &config, JobSession::default())
        });
        assert!(result.cell_faults.is_empty(), "{:?}", result.cell_faults);
        let cells: Vec<_> = result.rows.iter().map(|row| row.cells[0].clone()).collect();
        let expected: Vec<_> = (0..4).map(crate::runner::Value::Int).collect();
        assert_eq!(cells, expected, "rows land by cell index");
    }

    #[test]
    fn cells_in_flight_never_exceed_the_slot_count() {
        // Two concurrent jobs of eight cells each on a pool wider than the slot
        // count: the high-water mark of cells running at once stays within it.
        static RUNNING: AtomicUsize = AtomicUsize::new(0);
        static HIGH: AtomicUsize = AtomicUsize::new(0);
        let spec = ExperimentSpec {
            id: "sched_bound",
            aliases: &[],
            title: "Slot bound demo",
            columns: &["x"],
            notes: &[],
            run: |_cfg| {
                run_keyed_cells((0..8).map(keyed).collect(), |i| {
                    let now = RUNNING.fetch_add(1, Ordering::SeqCst) + 1;
                    HIGH.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(2));
                    RUNNING.fetch_sub(1, Ordering::SeqCst);
                    vec![row![i as u64]]
                })
            },
        };
        for slots in 1..=3 {
            HIGH.store(0, Ordering::SeqCst);
            let scheduler = Scheduler::new(slots);
            std::thread::scope(|scope| {
                for job in 1..=2u64 {
                    let (scheduler, spec) = (&scheduler, &spec);
                    scope.spawn(move || {
                        let config =
                            RunConfig { scale: crate::Scale::Tiny, procs: None, seed: None };
                        let session = JobSession { job, ..JobSession::default() };
                        let result = rayon::with_num_threads(4, || {
                            scheduler.execute(spec, &config, session)
                        });
                        assert_eq!(result.rows.len(), 8);
                    });
                }
            });
            let high = HIGH.load(Ordering::SeqCst);
            assert!((1..=slots).contains(&high), "{high} cells ran at once on {slots} slot(s)");
        }
    }

    #[test]
    fn cancellation_unwinds_with_the_job_id() {
        let spec = ExperimentSpec {
            id: "sched_cancel",
            aliases: &[],
            title: "Cancel demo",
            columns: &["x"],
            notes: &[],
            run: |_cfg| run_keyed_cells((0..4).map(keyed).collect(), |i| vec![row![i as u64]]),
        };
        let scheduler = Scheduler::new(2);
        let cancel = Arc::new(AtomicBool::new(true));
        let config = RunConfig { scale: crate::Scale::Tiny, procs: None, seed: None };
        let session = JobSession { job: 7, cancel: Some(cancel), ..JobSession::default() };
        let payload = catch_unwind(AssertUnwindSafe(|| scheduler.execute(&spec, &config, session)))
            .expect_err("a pre-cancelled job must not run");
        let cancelled = payload.downcast_ref::<Cancelled>().expect("typed payload");
        assert_eq!(cancelled.job, 7);
    }
}
