//! The persistent work-stealing pool behind every `par_*` adapter and `join`.
//!
//! Layout (the Mutex-deque design the crate prefers over a hand-rolled Chase-Lev
//! core — every queue operation is short and the tasks this workspace schedules are
//! coarse, so lock-free deques would buy nothing measurable):
//!
//! * one **injector** (`Mutex<VecDeque<JobRef>>`) receiving jobs submitted from
//!   threads outside the pool (the `xp` main thread, test harness threads);
//! * one **local deque** per worker: the worker pushes and pops at the back (LIFO,
//!   so nested splits stay cache-hot), thieves and the injector-drained path pop at
//!   the front (FIFO, so the oldest — typically largest — chunk is stolen first);
//! * a **parker** (generation counter + condvar): workers snapshot the generation,
//!   re-scan every queue, and only then sleep; every push and every job completion
//!   bumps the generation and wakes sleepers, so wakeups cannot be lost.
//!
//! Threads that *wait* (a `join`/`run_batch` caller whose jobs are still out) never
//! block idly: they run the same find-work loop as workers, executing whatever is
//! queued — their own jobs if nothing stole them (rayon's pop-back fast path falls
//! out for free), other batches' jobs otherwise.  This is what makes nested
//! parallelism deadlock-free: a blocked-on-a-latch thread is always also an executor.
//!
//! [`crate::Scope::spawn`] jobs sit in a queue of their own, the **spawn queue**
//! (FIFO, each entry tagged with its scope).  Idle workers take any of them; a scope
//! owner waiting at the end of its scope takes only its own; a `join`/`run_batch`
//! waiter takes none.  A spawned job is a long unit of work (one scheduler cell), and
//! a thread waiting inside one cell's `par_iter` that started a second cell would
//! leave the first cell's serial remainder queued behind the whole second one.
//! Progress never depends on a batch waiter: a spawned job is run either by an idle
//! worker or, at the latest, by its own scope's owner.
//!
//! Pools are created lazily, cached per thread count, and live for the process (the
//! `Box::leak` is deliberate: workers park forever on the condvar and the soak test
//! in `tests/pool_stress.rs` pins that the thread count stays flat across thousands
//! of uses).  A pool sized `<= 1` spawns no workers at all — every adapter takes its
//! serial fast path, so `RAYON_NUM_THREADS=1` runs are pure library calls.

use std::cell::Cell;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic;
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::job::{JobRef, Latch, StackJob};

/// Lock a mutex, ignoring poisoning (no job can panic while holding a pool lock —
/// closure panics are caught inside the job core — but stay robust anyway).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Lost-wakeup-proof parking: a generation counter under a mutex plus a condvar.
struct Notifier {
    generation: Mutex<u64>,
    wake: Condvar,
}

impl Notifier {
    fn new() -> Self {
        Notifier { generation: Mutex::new(0), wake: Condvar::new() }
    }

    /// Read the current generation; park later only if it is still unchanged.
    fn snapshot(&self) -> u64 {
        *lock(&self.generation)
    }

    /// Publish "something changed" (job pushed or finished) and wake all sleepers.
    fn notify(&self) {
        let mut generation = lock(&self.generation);
        *generation = generation.wrapping_add(1);
        self.wake.notify_all();
    }

    /// Sleep until the generation moves past `snapshot`.
    fn park(&self, snapshot: u64) {
        let mut generation = lock(&self.generation);
        while *generation == snapshot {
            generation = self.wake.wait(generation).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A persistent pool: `threads` is the advertised parallelism (what
/// [`crate::current_num_threads`] reports), `locals[i]` is worker `i`'s deque.
pub(crate) struct Pool {
    threads: usize,
    injector: Mutex<VecDeque<JobRef>>,
    locals: Vec<Mutex<VecDeque<JobRef>>>,
    /// `Scope::spawn` jobs, oldest first, each tagged with its scope's address.
    spawned: Mutex<VecDeque<(usize, JobRef)>>,
    notifier: Notifier,
}

/// Which spawn-queue entries a thread looking for work may take.
#[derive(Clone, Copy)]
enum Spawned {
    /// An idle worker: any of them.
    Any,
    /// A scope owner waiting for its jobs: only those of the scope with this tag.
    Own(usize),
    /// A `join`/`run_batch` waiter: none.
    None,
}

thread_local! {
    /// Set once, at worker startup: which pool this thread belongs to, and its index.
    static WORKER: Cell<Option<(&'static Pool, usize)>> = const { Cell::new(None) };
    /// Dynamic override installed by [`with_num_threads`] for the current thread.
    static OVERRIDE: Cell<Option<&'static Pool>> = const { Cell::new(None) };
}

impl Pool {
    /// The parallelism this pool advertises (its worker count, min 1).
    pub(crate) fn num_threads(&self) -> usize {
        self.threads
    }

    /// If the current thread is one of *this* pool's workers, its index.
    fn worker_index(&self) -> Option<usize> {
        WORKER.with(|w| w.get()).and_then(|(pool, index)| std::ptr::eq(pool, self).then_some(index))
    }

    /// Queue one job: back of the local deque on a worker, injector otherwise.
    fn push(&self, job: JobRef) {
        match self.worker_index() {
            Some(index) => lock(&self.locals[index]).push_back(job),
            None => lock(&self.injector).push_back(job),
        }
        self.notifier.notify();
    }

    /// Queue a whole batch with one lock acquisition and one wakeup.
    fn push_many(&self, jobs: Vec<JobRef>) {
        match self.worker_index() {
            Some(index) => lock(&self.locals[index]).extend(jobs),
            None => lock(&self.injector).extend(jobs),
        }
        self.notifier.notify();
    }

    /// Queue one `Scope::spawn` job for the scope tagged `scope`.
    pub(crate) fn push_spawned(&self, scope: usize, job: JobRef) {
        lock(&self.spawned).push_back((scope, job));
        self.notifier.notify();
    }

    /// One round of the find-work policy: own deque back → injector front → steal
    /// from the other workers' fronts (scanning from the right neighbour so thieves
    /// spread out instead of all hammering worker 0) → the spawn queue, as far as
    /// `spawned` allows.  Batch work comes first: it belongs to units already
    /// running, which a new spawned unit would only delay.
    fn find_work(&self, me: Option<usize>, spawned: Spawned) -> Option<JobRef> {
        if let Some(index) = me {
            if let Some(job) = lock(&self.locals[index]).pop_back() {
                return Some(job);
            }
        }
        if let Some(job) = lock(&self.injector).pop_front() {
            return Some(job);
        }
        let workers = self.locals.len();
        let start = me.map_or(0, |index| index + 1);
        for offset in 0..workers {
            let victim = (start + offset) % workers;
            if Some(victim) == me {
                continue;
            }
            if let Some(job) = lock(&self.locals[victim]).pop_front() {
                return Some(job);
            }
        }
        let mut queue = lock(&self.spawned);
        let at = match spawned {
            Spawned::Any => 0,
            Spawned::Own(scope) => queue.iter().position(|&(tag, _)| tag == scope)?,
            Spawned::None => return None,
        };
        queue.remove(at).map(|(_, job)| job)
    }

    /// Run one job and publish its completion (the waiter whose latch it tripped may
    /// be parked).
    #[allow(unsafe_code)] // One of the reviewed call sites of the job-core contract.
    fn execute(&self, job: JobRef) {
        // Safety: every JobRef in this pool's queues was pushed exactly once by
        // `push`/`push_many`/`push_spawned` and popped exactly once by `find_work`,
        // and its owning frame is blocked in `wait_until_done` (contract in `job.rs`).
        unsafe { job.execute() };
        self.notifier.notify();
    }

    /// Block until `latch` trips, executing queued work the whole time.  Never
    /// parks while a queue holds work it may take, so a waiter can always drain the
    /// very jobs it is waiting for.
    fn wait_until_done(&self, latch: &Latch, spawned: Spawned) {
        let me = self.worker_index();
        loop {
            if latch.done() {
                return;
            }
            if let Some(job) = self.find_work(me, spawned) {
                self.execute(job);
                continue;
            }
            let snapshot = self.notifier.snapshot();
            if latch.done() {
                return;
            }
            if let Some(job) = self.find_work(me, spawned) {
                self.execute(job);
                continue;
            }
            self.notifier.park(snapshot);
        }
    }

    /// A worker's whole life: pin identity, then find work or park, forever.
    fn worker_loop(&'static self, index: usize) {
        WORKER.with(|w| w.set(Some((self, index))));
        loop {
            if let Some(job) = self.find_work(Some(index), Spawned::Any) {
                self.execute(job);
                continue;
            }
            let snapshot = self.notifier.snapshot();
            if let Some(job) = self.find_work(Some(index), Spawned::Any) {
                self.execute(job);
                continue;
            }
            self.notifier.park(snapshot);
        }
    }

    /// Run every closure on the pool and return their results in input order.
    ///
    /// All closures complete (or are executed-and-caught) before this returns; if
    /// any panicked, the **first panic in input order** is resumed with its original
    /// payload after the whole batch has settled, so sibling tasks always finish.
    #[allow(unsafe_code)] // One of the reviewed call sites of the job-core contract.
    pub(crate) fn run_batch<F, R>(&self, fns: Vec<F>) -> Vec<R>
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        if self.threads <= 1 || fns.len() <= 1 {
            return fns.into_iter().map(|f| f()).collect();
        }
        let latch = Latch::new(fns.len());
        let jobs: Vec<StackJob<F, R>> = fns.into_iter().map(|f| StackJob::new(f, &latch)).collect();
        // Safety (contract in job.rs): `jobs` is fully materialized before any ref is
        // taken and is not touched again until `wait_until_done` returns, so no job
        // moves while queued; each ref is pushed once; we block on the latch below.
        let refs: Vec<JobRef> = jobs.iter().map(|job| unsafe { job.as_job_ref() }).collect();
        self.push_many(refs);
        self.wait_until_done(&latch, Spawned::None);
        let mut first_panic = None;
        let mut results = Vec::with_capacity(jobs.len());
        for job in jobs {
            match job.into_result() {
                Ok(value) => results.push(value),
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = first_panic {
            panic::resume_unwind(payload);
        }
        results
    }

    /// rayon's `join`: run `a` on the calling thread while `b` is up for grabs.
    ///
    /// Panic contract (matches rayon): both closures always complete before this
    /// frame unwinds; if `a` panicked its payload is resumed (even if `b` also
    /// panicked), otherwise `b`'s payload is resumed.
    #[allow(unsafe_code)] // One of the reviewed call sites of the job-core contract.
    pub(crate) fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        if self.threads <= 1 {
            return (a(), b());
        }
        let latch = Latch::new(1);
        let job_b = StackJob::new(b, &latch);
        // Safety (contract in job.rs): `job_b` stays pinned in this frame, its ref is
        // pushed once, and we wait on the latch before returning — even when `a`
        // panics, because the unwind is deferred until after `wait_until_done`.
        let job_ref = unsafe { job_b.as_job_ref() };
        self.push(job_ref);
        let result_a = panic::catch_unwind(panic::AssertUnwindSafe(a));
        self.wait_until_done(&latch, Spawned::None);
        let result_b = job_b.into_result();
        match (result_a, result_b) {
            (Ok(ra), Ok(rb)) => (ra, rb),
            (Err(payload), _) => panic::resume_unwind(payload),
            (Ok(_), Err(payload)) => panic::resume_unwind(payload),
        }
    }

    /// Block a scope owner until `latch` (its scope's count) trips, running its own
    /// spawned jobs and any batch work meanwhile.
    pub(crate) fn wait_scope(&self, latch: &Latch, scope: usize) {
        self.wait_until_done(latch, Spawned::Own(scope));
    }
}

/// Build and leak a pool; spawn its workers (none for a serial pool).
fn build_pool(threads: usize) -> &'static Pool {
    let workers = if threads > 1 { threads } else { 0 };
    let pool: &'static Pool = Box::leak(Box::new(Pool {
        threads: threads.max(1),
        injector: Mutex::new(VecDeque::new()),
        locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
        spawned: Mutex::new(VecDeque::new()),
        notifier: Notifier::new(),
    }));
    for index in 0..workers {
        std::thread::Builder::new()
            // Kept under 15 bytes for small counts so `/proc/<pid>/task/*/comm`
            // retains the "rayon-shim" prefix the leak soak test counts by.
            .name(format!("rayon-shim-{threads}-{index}"))
            .spawn(move || pool.worker_loop(index))
            .expect("failed to spawn rayon-shim worker thread");
    }
    pool
}

/// The process-wide pool cache, keyed by thread count: the global pool and every
/// [`with_num_threads`] size share it, so repeated use never re-spawns workers.
fn pool_with_threads(threads: usize) -> &'static Pool {
    static REGISTRY: OnceLock<Mutex<Vec<&'static Pool>>> = OnceLock::new();
    let registry = REGISTRY.get_or_init(|| Mutex::new(Vec::new()));
    let mut pools = lock(registry);
    if let Some(pool) = pools.iter().find(|pool| pool.threads == threads.max(1)) {
        return pool;
    }
    let pool = build_pool(threads);
    pools.push(pool);
    pool
}

/// Default parallelism: `RAYON_NUM_THREADS` (like rayon), else the host's cores.
/// Read once, when the global pool is first touched.
fn default_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1))
}

/// The pool the current thread should submit to: a worker stays on its own pool, a
/// thread under [`with_num_threads`] uses the override, everyone else the global.
pub(crate) fn current_pool() -> &'static Pool {
    if let Some(pool) = OVERRIDE.with(|o| o.get()) {
        return pool;
    }
    if let Some((pool, _)) = WORKER.with(|w| w.get()) {
        return pool;
    }
    static GLOBAL: OnceLock<&'static Pool> = OnceLock::new();
    GLOBAL.get_or_init(|| pool_with_threads(default_threads()))
}

/// Run `f` with the shim's parallelism pinned to `threads` on this thread (and on
/// any pool worker that executes tasks submitted inside `f`).
///
/// This exists so tests can exercise 1-, 2- and 8-worker schedules in one process
/// regardless of `RAYON_NUM_THREADS` or the host's core count — the env variable is
/// read once per process, so env mutation can never vary it.  Pools are cached per
/// size and persist; the override is restored on exit even if `f` panics.  Intended
/// for tests; production runs size the global pool via `RAYON_NUM_THREADS`.
pub fn with_num_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<&'static Pool>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let pool = pool_with_threads(threads.max(1));
    let previous = OVERRIDE.with(|o| o.replace(Some(pool)));
    let _restore = Restore(previous);
    f()
}
