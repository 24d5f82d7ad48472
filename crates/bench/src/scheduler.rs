//! Guarded cell execution and the multi-experiment scheduler.
//!
//! This module owns the *execution* half of what used to be `runner.rs`: the
//! fault model (retry / backoff / watchdog, unchanged from PR 8 — see DESIGN.md
//! §13) plus the scheduling layer added for `xp serve`:
//!
//! - [`run_cells`] / [`run_cells_with_policy`]: guarded parallel cell execution,
//!   exactly the PR 8 semantics (attempts under `catch_unwind`, deterministic
//!   backoff rounds, classify-not-preempt watchdog).
//! - [`run_keyed_cells`]: the cache-aware variant — each cell carries a
//!   [`CellKey`] content address ([`crate::cache`]), and when the ambient job
//!   context has a cache attached, hits skip computation entirely and terminal
//!   successes are written back.  Without a context the keys are inert and the
//!   function is byte-for-byte `run_cells`.
//! - [`Scheduler`]: a bounded, *fair* slot queue shared by every in-flight
//!   experiment.  Cell waves only fan out onto the rayon pool after acquiring
//!   slots; experiments with waiting waves are granted slots round-robin, so one
//!   wide sweep cannot starve an interactive `submit`.  Slots are acquired on the
//!   supervising (job) thread — never on a pool worker — so the limiter cannot
//!   deadlock the pool it meters.
//!
//! The declarative side (specs, results, rendering) stays in [`crate::runner`],
//! which re-exports everything here under its old paths.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use rayon::prelude::*;

use crate::cache::{CellCache, CellKey, ClaimGuard, Flight};
use crate::runner::{ExperimentResult, ExperimentSpec, Row, RunConfig};

/// How long a job with only parked cells sleeps between re-polls when nothing
/// wakes it: another process's publish or release signals no condvar here.
const PARK_POLL: Duration = Duration::from_millis(50);

/// How one cell of an experiment ended up, after all retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// The cell produced rows (possibly only after a retry — see
    /// [`CellOutcome::attempts`]).
    Ok,
    /// The cell reported a failure (today only injectable via the `runner/cell`
    /// failpoint; the variant is the hook serve-managed fallible cell bodies use).
    Failed,
    /// The cell panicked; the unwind was caught at the attempt boundary.
    Panicked,
    /// The cell finished but blew its wall-clock budget, so its rows were
    /// discarded and the attempt retried (classify-and-retry, not preemption —
    /// see DESIGN.md §13).
    TimedOut,
}

impl CellStatus {
    /// Stable lowercase name used by every output format.
    pub fn name(self) -> &'static str {
        match self {
            CellStatus::Ok => "ok",
            CellStatus::Failed => "failed",
            CellStatus::Panicked => "panicked",
            CellStatus::TimedOut => "timed-out",
        }
    }
}

/// Per-cell fault record: what happened to cell `cell` across its attempts.
///
/// Only *interesting* outcomes are kept (anything not first-attempt-ok): a clean
/// experiment carries an empty fault list and renders byte-identically to the
/// pre-fault-model harness.  A cache hit is indistinguishable from a clean first
/// attempt here — by construction it returns the same rows.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Index of the cell in the `run_cells` input order.
    pub cell: usize,
    /// Final classification after the last attempt.
    pub status: CellStatus,
    /// Attempts consumed (1..=`FaultPolicy::max_attempts`).
    pub attempts: u32,
    /// The last attempt's failure message (`None` once a retry succeeded).
    pub error: Option<String>,
    /// Wall-clock seconds of the last attempt.
    pub elapsed_seconds: f64,
}

/// Retry/backoff/watchdog knobs for guarded cell execution.
#[derive(Debug, Clone, Copy)]
pub struct FaultPolicy {
    /// Attempts per cell before it is reported as failed (≥ 1).
    pub max_attempts: u32,
    /// Base backoff slept before retry round `r` (doubling each round: the delay
    /// schedule is a pure function of the policy, so reruns are deterministic).
    pub backoff: Duration,
    /// Wall-clock budget per attempt; `None` disables the watchdog.
    pub timeout: Option<Duration>,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy { max_attempts: 3, backoff: Duration::from_millis(25), timeout: None }
    }
}

impl FaultPolicy {
    /// Defaults overridden by `XP_CELL_ATTEMPTS`, `XP_CELL_BACKOFF_MS`, and
    /// `XP_CELL_TIMEOUT_MS` (0 disables the watchdog).
    pub fn from_env() -> Self {
        let mut policy = FaultPolicy::default();
        if let Some(v) = env_u64("XP_CELL_ATTEMPTS") {
            policy.max_attempts = v.clamp(1, 1000) as u32;
        }
        if let Some(v) = env_u64("XP_CELL_BACKOFF_MS") {
            policy.backoff = Duration::from_millis(v);
        }
        if let Some(v) = env_u64("XP_CELL_TIMEOUT_MS") {
            policy.timeout = (v > 0).then(|| Duration::from_millis(v));
        }
        policy
    }

    /// Backoff before retry round `attempt` (the second attempt is round 2):
    /// `backoff * 2^(attempt - 2)`, shift-capped so pathological attempt counts
    /// cannot overflow.
    fn backoff_before(&self, attempt: u32) -> Duration {
        self.backoff * (1u32 << (attempt.saturating_sub(2)).min(10))
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// The per-experiment fault collector [`ExperimentSpec::execute`] installs around
/// its `run` function.  Thread-local because specs call [`run_cells`] on the
/// executing thread (the pool supervises *within* a `run_cells` call, never
/// across one), so nested experiments on other threads cannot cross-contaminate.
struct FaultLog {
    policy: FaultPolicy,
    outcomes: Vec<CellOutcome>,
}

thread_local! {
    static FAULT_LOG: RefCell<Option<FaultLog>> = const { RefCell::new(None) };
}

/// Install a fault collector around `f` (the body of
/// [`ExperimentSpec::execute_with_policy`]): every guarded cell run inside `f`
/// retries under `policy` and reports into the returned outcome list.  The
/// previous collector is restored even if `f` panics.
pub(crate) fn with_fault_collector<R>(
    policy: FaultPolicy,
    f: impl FnOnce() -> R,
) -> (R, Vec<CellOutcome>) {
    struct Restore(Option<FaultLog>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let previous = self.0.take();
            FAULT_LOG.with(|log| *log.borrow_mut() = previous);
        }
    }
    let _restore = Restore(
        FAULT_LOG.with(|log| log.borrow_mut().replace(FaultLog { policy, outcomes: Vec::new() })),
    );
    let result = f();
    let outcomes =
        FAULT_LOG.with(|log| log.borrow_mut().take()).map(|log| log.outcomes).unwrap_or_default();
    (result, outcomes)
}

// ---------------------------------------------------------------------------
// The scheduler: fair bounded slots shared by concurrent experiments.

/// Payload of the cancellation unwind: [`run_keyed_cells`]/[`run_cells`] raise it
/// via `panic_any` between waves when the job's cancel flag is set, and the serve
/// front end's per-job `catch_unwind` classifies it as a cancellation rather than
/// a crash.  Nothing below the wave boundary observes it — attempts in flight run
/// to completion first (same classify-not-preempt stance as the watchdog).
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

/// Everything a scheduled job carries into its cell runs; all fields optional so
/// `Scheduler::execute` degrades to plain `ExperimentSpec::execute` when a
/// feature (cache, events, cancellation) is unused.
#[derive(Debug, Default, Clone)]
pub struct JobSession {
    /// Job id for fairness, events, and [`Cancelled`].
    pub job: u64,
    /// Content-addressed result cache shared across the session.
    pub cache: Option<Arc<CellCache>>,
    /// Streamed per-cell progress events.
    pub events: Option<Sender<CellEvent>>,
    /// Cooperative cancellation flag (checked between waves).
    pub cancel: Option<Arc<AtomicBool>>,
    /// Hit/computed counters for the job's summary.
    pub counters: Option<Arc<JobCounters>>,
    /// Per-job fault policy override; `None` falls back to the environment
    /// (`XP_CELL_ATTEMPTS` / `XP_CELL_BACKOFF_MS` / `XP_CELL_TIMEOUT_MS`).
    pub policy: Option<FaultPolicy>,
}

/// One streamed per-cell progress record (`attempt == 0` means a cache hit; a
/// non-`Ok` status is one failed *attempt*, not necessarily a failed cell — the
/// next event for that cell index is its retry).
#[derive(Debug, Clone)]
pub struct CellEvent {
    /// The owning job.
    pub job: u64,
    /// Cell index within its `run_cells` call.
    pub cell: usize,
    /// This attempt's classification.
    pub status: CellStatus,
    /// Attempt number (0 for a cache hit).
    pub attempt: u32,
    /// Whether the rows came from the cache.
    pub cache_hit: bool,
    /// Wall-clock seconds of this attempt (0 for a cache hit).
    pub elapsed_seconds: f64,
}

/// Bounded fair dispatcher for cells from multiple in-flight experiments.
///
/// Concurrency is metered in *slots* (default: the rayon pool width, overridden
/// by `--jobs`): a job's wave of pending cells first acquires up to `slots`
/// permits, then fans exactly that many attempts onto the pool.  Jobs waiting
/// for slots are served round-robin by job id — after each grant the job goes to
/// the back of the rotation — which is the per-experiment fairness guarantee:
/// with `k` experiments in flight, each gets ~`1/k` of the pool per rotation
/// regardless of how many cells it has queued.
#[derive(Debug)]
pub struct Scheduler {
    queue: Arc<SlotQueue>,
    next_job: AtomicU64,
}

impl Scheduler {
    /// A scheduler metering `jobs` concurrent cell attempts (≥ 1).
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

    /// Execute `spec` under this scheduler: the job context is installed
    /// thread-locally around the spec's `run` function, so every guarded cell run
    /// inside it is metered, cached, streamed, and cancellable per `session`.
    ///
    /// Cancellation surfaces as a [`Cancelled`] unwind out of this call — the
    /// serve front end wraps it in `catch_unwind`; direct callers that never set
    /// a cancel flag never see it.
    pub fn execute(
        &self,
        spec: &ExperimentSpec,
        config: &RunConfig,
        session: JobSession,
    ) -> ExperimentResult {
        struct Restore(Option<JobCtx>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let previous = self.0.take();
                JOB_CTX.with(|ctx| *ctx.borrow_mut() = previous);
            }
        }
        let ctx = JobCtx {
            job: session.job,
            queue: Arc::clone(&self.queue),
            cache: session.cache,
            events: session.events,
            cancel: session.cancel,
            counters: session.counters,
        };
        let _restore = Restore(JOB_CTX.with(|slot| slot.borrow_mut().replace(ctx)));
        match session.policy {
            Some(policy) => spec.execute_with_policy(config, policy),
            None => spec.execute(config),
        }
    }
}

/// The ambient job context `Scheduler::execute` installs; `None` outside a
/// scheduler (plain `xp table2` & friends), in which case guarded runs behave
/// exactly as before this module existed.
#[derive(Debug, Clone)]
struct JobCtx {
    job: u64,
    queue: Arc<SlotQueue>,
    cache: Option<Arc<CellCache>>,
    events: Option<Sender<CellEvent>>,
    cancel: Option<Arc<AtomicBool>>,
    counters: Option<Arc<JobCounters>>,
}

thread_local! {
    static JOB_CTX: RefCell<Option<JobCtx>> = const { RefCell::new(None) };
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
    /// Jobs with a blocked wave, in grant order; the front job is served next.
    rotation: VecDeque<u64>,
    /// Blocked-wave count per job (a job leaves `rotation` only at zero).
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

    /// Block until it is `job`'s turn and at least one slot is free, then take up
    /// to `want` slots at once (a whole wave where possible).  Fairness: served
    /// jobs rotate to the back, so concurrent experiments interleave waves.
    fn acquire_up_to(self: &Arc<SlotQueue>, job: u64, want: usize) -> SlotGrant {
        let want = want.max(1);
        let mut state = self.state.lock().expect("slot lock");
        *state.waiting.entry(job).or_insert(0) += 1;
        if !state.rotation.contains(&job) {
            state.rotation.push_back(job);
        }
        loop {
            if state.free > 0 && state.rotation.front() == Some(&job) {
                let granted = state.free.min(want);
                state.free -= granted;
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
                return SlotGrant { queue: Arc::clone(self), granted };
            }
            state = self.available.wait(state).expect("slot lock");
        }
    }

    fn release(&self, granted: usize) {
        let mut state = self.state.lock().expect("slot lock");
        state.free += granted;
        self.available.notify_all();
    }
}

/// RAII slot grant; releasing wakes the next job in rotation.
#[derive(Debug)]
struct SlotGrant {
    queue: Arc<SlotQueue>,
    granted: usize,
}

impl Drop for SlotGrant {
    fn drop(&mut self) {
        self.queue.release(self.granted);
    }
}

// ---------------------------------------------------------------------------
// Guarded cell execution (the PR 8 fault model, now wave-scheduled).

/// Execute one experiment function per cell on rayon worker threads, flattening the
/// produced rows in cell order.
///
/// This is the parallelism point of the harness: a spec builds the independent cells
/// of its method × workload × substrate matrix and the runner fans them out.  Every
/// cell attempt is guarded (`catch_unwind` + watchdog + bounded retry — see
/// [`run_cells_with_policy`]); a terminally failed cell contributes no rows.  Inside
/// [`ExperimentSpec::execute`] the outcomes land in the result's fault list; for
/// direct callers with no collector installed, a terminal failure panics with the
/// cell's classification instead of silently dropping data — the legacy abort-loudly
/// contract.
pub fn run_cells<C, F>(cells: Vec<C>, f: F) -> Vec<Row>
where
    C: Clone + Send,
    F: Fn(C) -> Vec<Row> + Sync,
{
    let policy = ambient_policy();
    let (rows, outcomes) = run_guarded(cells, None, policy, &f);
    report_or_abort(rows, outcomes)
}

/// [`run_cells`] for deterministic cells: each cell carries its content address,
/// and when the ambient job has a cache the address is consulted before — and
/// filled after — computation.  Outside a scheduler session (or with no cache
/// attached) the keys are inert and this is exactly [`run_cells`].
pub fn run_keyed_cells<C, F>(cells: Vec<(CellKey, C)>, f: F) -> Vec<Row>
where
    C: Clone + Send,
    F: Fn(C) -> Vec<Row> + Sync,
{
    let policy = ambient_policy();
    let (keys, cells): (Vec<CellKey>, Vec<C>) = cells.into_iter().unzip();
    let (rows, outcomes) = run_guarded(cells, Some(keys), policy, &f);
    report_or_abort(rows, outcomes)
}

/// Guarded parallel cell execution with an explicit [`FaultPolicy`], returning the
/// surviving rows (cell input order preserved) plus the interesting outcomes
/// (anything that was not first-attempt-ok).
///
/// Round structure: round 1 fans every cell out across the pool; each later round
/// sleeps the policy's deterministic backoff, then retries only the cells that
/// failed, panicked, or timed out.  Attempts run under `catch_unwind`, leaning on
/// the executor's panic contract (DESIGN.md §7): a panicking cell's siblings run to
/// completion, the original payload is rethrown at the attempt boundary where the
/// guard catches it, and the pool survives for the next round — proven by the
/// nested `join`/`par_iter` tests in `tests/runner_faults.rs`.
pub fn run_cells_with_policy<C, F>(
    cells: Vec<C>,
    policy: FaultPolicy,
    f: F,
) -> (Vec<Row>, Vec<CellOutcome>)
where
    C: Clone + Send,
    F: Fn(C) -> Vec<Row> + Sync,
{
    run_guarded(cells, None, policy, &f)
}

fn ambient_policy() -> FaultPolicy {
    FAULT_LOG
        .with(|log| log.borrow().as_ref().map(|log| log.policy))
        .unwrap_or_else(FaultPolicy::from_env)
}

/// Shared tail of [`run_cells`]/[`run_keyed_cells`]: hand outcomes to the
/// installed collector, or uphold the abort-loudly contract without one.
fn report_or_abort(rows: Vec<Row>, outcomes: Vec<CellOutcome>) -> Vec<Row> {
    if outcomes.is_empty() {
        return rows;
    }
    let collected = FAULT_LOG.with(|log| match log.borrow_mut().as_mut() {
        Some(log) => {
            log.outcomes.extend(outcomes.iter().cloned());
            true
        }
        None => false,
    });
    if !collected {
        if let Some(worst) = outcomes.iter().find(|o| o.status != CellStatus::Ok) {
            panic!(
                "cell {} {} after {} attempts: {}",
                worst.cell,
                worst.status.name(),
                worst.attempts,
                worst.error.as_deref().unwrap_or("no error message")
            );
        }
    }
    rows
}

/// The execution core: cache resolution, wave-metered rounds, retry bookkeeping.
fn run_guarded<C, F>(
    cells: Vec<C>,
    keys: Option<Vec<CellKey>>,
    policy: FaultPolicy,
    f: &F,
) -> (Vec<Row>, Vec<CellOutcome>)
where
    C: Clone + Send,
    F: Fn(C) -> Vec<Row> + Sync,
{
    let ctx = JOB_CTX.with(|slot| slot.borrow().clone());
    let n = cells.len();
    let mut slots: Vec<Option<Vec<Row>>> = (0..n).map(|_| None).collect();
    let mut last_failure: Vec<Option<(CellStatus, String)>> = vec![None; n];
    let mut attempts = vec![0u32; n];
    let mut last_elapsed = vec![0.0f64; n];
    let mut pending: Vec<usize> = (0..n).collect();

    // Cache resolution: hits are settled here, before any slot is taken — a
    // fully cached experiment costs zero pool time.  Under single-flight, each
    // missing cell is either *claimed* (we own it, with a guard that releases
    // on any exit path) or *parked* (another job or process is computing it;
    // we wait outside the wave queue and re-acquire below).
    let mut waiting: Vec<usize> = Vec::new();
    let mut guards: HashMap<usize, ClaimGuard> = HashMap::new();
    if let (Some(keys), Some(ctx)) = (&keys, &ctx) {
        if let Some(cache) = &ctx.cache {
            if cache.single_flight() {
                pending.retain(|&i| match cache.acquire(keys[i]) {
                    Flight::Hit(rows) => {
                        settle_cache_hit(ctx, &mut slots, i, &rows);
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
                    Some(rows) => {
                        settle_cache_hit(ctx, &mut slots, i, &rows);
                        false
                    }
                    None => true,
                });
            }
        }
    }

    loop {
        let mut round = 0u32;
        while !pending.is_empty() && round < policy.max_attempts.max(1) {
            round += 1;
            if round > 1 {
                std::thread::sleep(policy.backoff_before(round));
            }
            let mut next_pending = Vec::new();
            let mut at = 0usize;
            while at < pending.len() {
                check_cancelled(&ctx);
                // Meter the wave: under a scheduler, take as many slots as the fair
                // queue grants this turn; standalone, run the whole round at once
                // (the pre-scheduler behaviour).
                let (grant, width) = match &ctx {
                    Some(ctx) => {
                        let grant = ctx.queue.acquire_up_to(ctx.job, pending.len() - at);
                        let width = grant.granted;
                        (Some(grant), width)
                    }
                    None => (None, pending.len() - at),
                };
                // Clone the wave's cells on the supervising thread (cells stay
                // `Clone + Send`, not `Sync`), then fan the attempts out.
                let batch: Vec<(usize, C)> = pending[at..(at + width).min(pending.len())]
                    .iter()
                    .map(|&i| (i, cells[i].clone()))
                    .collect();
                at += batch.len();
                let results = par_map(batch, |(i, cell)| (i, run_attempt(cell, f, policy.timeout)));
                drop(grant);
                for (i, (result, elapsed)) in results {
                    attempts[i] = round;
                    last_elapsed[i] = elapsed;
                    match result {
                        Ok(rows) => {
                            if let Some(ctx) = &ctx {
                                if let (Some(keys), Some(cache)) = (&keys, &ctx.cache) {
                                    // Write-back on the supervising thread: later
                                    // lookups (same sweep or same serve session)
                                    // already see it.  Persistence failures degrade
                                    // to in-memory caching, loudly.
                                    if let Err(error) =
                                        cache.insert(keys[i], Arc::new(rows.clone()))
                                    {
                                        eprintln!(
                                            "xp: cache write for cell {} failed: {error}",
                                            keys[i]
                                        );
                                    }
                                }
                                if let Some(counters) = &ctx.counters {
                                    counters.computed_cells.fetch_add(1, Ordering::Relaxed);
                                }
                                emit(
                                    ctx,
                                    CellEvent {
                                        job: ctx.job,
                                        cell: i,
                                        status: CellStatus::Ok,
                                        attempt: round,
                                        cache_hit: false,
                                        elapsed_seconds: elapsed,
                                    },
                                );
                            }
                            slots[i] = Some(rows);
                            last_failure[i] = None;
                            // Publish happened above (cache.insert): only now is the
                            // single-flight claim released, so waiters wake to a hit.
                            guards.remove(&i);
                        }
                        Err((status, message)) => {
                            if let Some(ctx) = &ctx {
                                emit(
                                    ctx,
                                    CellEvent {
                                        job: ctx.job,
                                        cell: i,
                                        status,
                                        attempt: round,
                                        cache_hit: false,
                                        elapsed_seconds: elapsed,
                                    },
                                );
                            }
                            last_failure[i] = Some((status, message));
                            next_pending.push(i);
                        }
                    }
                }
            }
            pending = next_pending;
        }

        // Cells still pending exhausted their retry budget: abandon their
        // claims so a parked waiter (this process or another) claims and tries
        // for itself instead of wedging on a terminally failed claimant.
        for i in pending.drain(..) {
            guards.remove(&i);
        }
        if waiting.is_empty() {
            break;
        }

        // Re-poll parked cells.  This happens on the supervising thread with
        // zero slots held — waiting never occupies the wave queue, so
        // cross-job blocking cannot deadlock the pool or starve the rotation.
        check_cancelled(&ctx);
        let (keys, ctx) = (
            keys.as_ref().expect("waiting implies keyed cells"),
            ctx.as_ref().expect("waiting implies a job context"),
        );
        let cache = ctx.cache.as_ref().expect("waiting implies a cache");
        let mut progressed = false;
        let mut still_waiting = Vec::new();
        for i in waiting.drain(..) {
            match cache.acquire(keys[i]) {
                Flight::Hit(rows) => {
                    // A single-flight win: settled by someone else's compute.
                    cache.note_flight_wait();
                    settle_cache_hit(ctx, &mut slots, i, &rows);
                    progressed = true;
                }
                Flight::Claimed(guard) => {
                    // The claimant died or gave up — the claim is ours now; the
                    // cell re-enters the wave loop with a fresh retry budget.
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
    let mut outcomes = Vec::new();
    for i in 0..n {
        let (status, error) = match &last_failure[i] {
            None => (CellStatus::Ok, None),
            Some((status, msg)) => (*status, Some(msg.clone())),
        };
        if status != CellStatus::Ok || attempts[i] > 1 {
            outcomes.push(CellOutcome {
                cell: i,
                status,
                attempts: attempts[i],
                error,
                elapsed_seconds: last_elapsed[i],
            });
        }
    }
    let rows = slots.into_iter().flatten().flatten().collect();
    (rows, outcomes)
}

/// Settle cell `i` from cached rows: count it as a hit and stream the attempt-0
/// event.  Cells settled by waiting on another job's claim go through here too,
/// so concurrent single-flight counters match serial submission bit-for-bit.
fn settle_cache_hit(ctx: &JobCtx, slots: &mut [Option<Vec<Row>>], i: usize, rows: &[Row]) {
    slots[i] = Some(rows.to_vec());
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

fn check_cancelled(ctx: &Option<JobCtx>) {
    if let Some(ctx) = ctx {
        if let Some(cancel) = &ctx.cancel {
            if cancel.load(Ordering::SeqCst) {
                // resume_unwind, not panic_any: cancellation is expected control
                // flow, so it must not invoke the panic hook (which would dump a
                // spurious backtrace on every cancel).
                std::panic::resume_unwind(Box::new(Cancelled { job: ctx.job }));
            }
        }
    }
}

/// One guarded attempt: catch unwinds, classify explicit failures, and check the
/// wall-clock watchdog.  Returns the classified result plus the attempt's elapsed
/// seconds.
///
/// The watchdog *classifies*, it does not preempt: an attempt that exceeds its
/// budget still runs to completion on the worker, then its rows are discarded and
/// the cell is retried.  (Preemption needs process isolation; see DESIGN.md §13.)
fn run_attempt<C, F>(
    cell: C,
    f: &F,
    timeout: Option<Duration>,
) -> (Result<Vec<Row>, (CellStatus, String)>, f64)
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
    let elapsed = start.elapsed();
    let result = match caught {
        Ok(Ok(rows)) => match timeout.filter(|budget| elapsed > *budget) {
            Some(budget) => Err((
                CellStatus::TimedOut,
                format!(
                    "attempt took {:.1} ms against a {:.1} ms budget",
                    elapsed.as_secs_f64() * 1e3,
                    budget.as_secs_f64() * 1e3
                ),
            )),
            None => Ok(rows),
        },
        Ok(Err(msg)) => Err((CellStatus::Failed, msg)),
        Err(payload) => Err((CellStatus::Panicked, panic_message(payload.as_ref()))),
    };
    (result, elapsed.as_secs_f64())
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

/// Map one experiment function per cell on rayon worker threads, preserving order
/// (for specs that need to combine cell outputs before forming rows).
pub fn par_map<C, T, F>(cells: Vec<C>, f: F) -> Vec<T>
where
    C: Send,
    T: Send,
    F: Fn(C) -> T + Sync,
{
    cells.into_par_iter().map(f).collect()
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
    fn keyed_cells_without_a_session_behave_like_run_cells() {
        let rows = run_keyed_cells((0..4).map(keyed).collect(), |i| vec![row![i as u64 * 2]]);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[3].cells[0], crate::runner::Value::Int(6));
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
        assert!(second.cell_faults.is_empty(), "hits look like clean first attempts");
    }

    #[test]
    fn concurrent_jobs_share_one_slot_without_deadlock() {
        // Two jobs, one slot: every wave serializes through the fair queue and
        // both experiments still complete.  (A lost wakeup or rotation bug hangs
        // this test instead of failing it.)
        let scheduler = Arc::new(Scheduler::new(1));
        let cache = Arc::new(CellCache::new());
        let done = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for job in 1..=2u64 {
                let scheduler = Arc::clone(&scheduler);
                let cache = Arc::clone(&cache);
                let done = Arc::clone(&done);
                scope.spawn(move || {
                    let spec = ExperimentSpec {
                        id: "sched_fair",
                        aliases: &[],
                        title: "Fairness demo",
                        columns: &["x"],
                        notes: &[],
                        run: |_cfg| run_cells((0..8usize).collect(), |i| vec![row![i as u64]]),
                    };
                    let config = RunConfig { scale: crate::Scale::Tiny, procs: None, seed: None };
                    let session = JobSession { job, cache: Some(cache), ..JobSession::default() };
                    let result = scheduler.execute(&spec, &config, session);
                    assert_eq!(result.rows.len(), 8);
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(done.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn cancellation_unwinds_with_the_job_id() {
        let spec = ExperimentSpec {
            id: "sched_cancel",
            aliases: &[],
            title: "Cancel demo",
            columns: &["x"],
            notes: &[],
            run: |_cfg| run_cells((0..4usize).collect(), |i| vec![row![i as u64]]),
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
