//! The lifetime-erased job core of the persistent pool — the shim's one `unsafe` module.
//!
//! A persistent worker thread is `'static`, but every `par_*` call site in this
//! workspace borrows from the caller's stack (`par_chunks_mut` hands out `&mut [T]`
//! into a local buffer, `join` closures capture locals by reference).  Safe Rust can
//! express that only with `std::thread::scope`, which is exactly the
//! thread-per-call design the pool replaces.  So, like rayon proper, the pool erases
//! the closure's lifetime behind a raw pointer and re-establishes safety with a
//! *blocking protocol*: the frame that created a job does not return until the job's
//! latch has tripped, so the erased pointers never outlive the stack they point into.
//!
//! The complete safety contract, relied on by every `unsafe` block in this module and
//! checked at the call sites in [`crate::pool`] and in `Scope::spawn`:
//!
//! 1. A [`StackJob`] is pinned for the duration: it is never moved between
//!    [`StackJob::as_job_ref`] and the trip of its latch (the pool builds the full
//!    `Vec<StackJob>` *before* taking any `JobRef`, and only consumes it afterwards).
//!    A heap job ([`heap_job_ref`], what `Scope::spawn` queues) owns its own memory,
//!    so only items 2–4 apply to it.
//! 2. Each [`JobRef`] is executed exactly once: it is pushed onto exactly one queue,
//!    and whoever pops it calls [`JobRef::execute`] on the owned value.
//! 3. The creating frame blocks in `Pool::wait_until_done` until the latch reports
//!    every job finished, even when a sibling closure panics, so the borrows inside
//!    the closure are live whenever the closure runs.
//! 4. [`execute_erased`] touches the job's memory in this order: take the closure,
//!    read the latch pointer, store the result, and *last* trip the latch.  After the
//!    `fetch_sub` the executor never touches caller-owned memory again, so the caller
//!    observing `done()` may immediately pop its frame.  A heap job's closure keeps
//!    the same order itself: it stores its panic, then trips its scope's latch last.
//!
//! Closure panics are caught here ([`std::panic::catch_unwind`]) and stored as the
//! job's result — or, for a heap job, by the scope's closure — so a panic never
//! unwinds through a worker's run loop (no lock is poisoned, no worker dies) and the
//! original payload reaches the caller intact.

#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Countdown latch: one completion per job in a batch (or, for a scope, one per
/// spawned job plus one for the scope's own body).
///
/// `complete` uses `Release` and `done` uses `Acquire`, so the result slot written
/// before the countdown is visible to the thread that observes zero.
pub(crate) struct Latch {
    remaining: AtomicUsize,
}

impl Latch {
    pub(crate) fn new(count: usize) -> Self {
        Latch { remaining: AtomicUsize::new(count) }
    }

    /// Have all `count` jobs finished?
    pub(crate) fn done(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }

    /// Count one more job.  Only called while the count is held above zero (by the
    /// scope body or by the spawning job), so the latch never trips early.
    pub(crate) fn increment(&self) {
        self.remaining.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn complete(&self) {
        self.remaining.fetch_sub(1, Ordering::Release);
    }
}

/// A type- and lifetime-erased pointer to a [`StackJob`] waiting on some stack frame,
/// paired with the monomorphized function that knows how to run it.
pub(crate) struct JobRef {
    data: *const (),
    execute_fn: unsafe fn(*const ()),
}

// Safety: a `JobRef` only ever points at a `StackJob` whose closure and result types
// are `Send` (enforced by the bounds on `StackJob::as_job_ref`), and the blocking
// protocol above guarantees the pointee is alive whenever the ref is used, so handing
// the pointer to another thread is exactly a scoped-thread borrow.
unsafe impl Send for JobRef {}

impl JobRef {
    /// Run the job this ref points at.
    ///
    /// # Safety
    ///
    /// Caller must uphold contract items 1–3 above: the pointee is still pinned on a
    /// live frame, and this is the only `execute` call this ref will ever receive.
    pub(crate) unsafe fn execute(self) {
        (self.execute_fn)(self.data)
    }
}

/// A boxed closure the pool owns: what `Scope::spawn` queues.  The box is freed by
/// whoever executes it; the closure itself trips its scope's latch as its last step.
type HeapFn<'a> = Box<dyn FnOnce() + Send + 'a>;

/// Erase a boxed closure's lifetime into a queueable [`JobRef`] (the heap half of
/// the job core: the job owns its memory, so only the *borrows inside* it need the
/// blocking protocol).
///
/// # Safety
///
/// Caller promises contract items 2–4 for the closure's borrows: the ref is executed
/// exactly once, and the frame owning everything `func` borrows blocks until `func`
/// has run to its end — `Scope` waits on its latch, which `func` trips last.
pub(crate) unsafe fn heap_job_ref(func: HeapFn<'_>) -> JobRef {
    let func: HeapFn<'static> = std::mem::transmute(func);
    JobRef { data: Box::into_raw(Box::new(func)) as *const (), execute_fn: execute_heap }
}

/// The executor behind [`heap_job_ref`]: reclaim the box and run the closure (which
/// catches its own panics and trips its latch).
///
/// # Safety
///
/// `data` came from [`heap_job_ref`] and this is its only execution.
unsafe fn execute_heap(data: *const ()) {
    let func = Box::from_raw(data as *mut HeapFn<'static>);
    func();
}

/// A job pinned on the stack of the thread that created it: the closure to run, a
/// slot for its (possibly panicked) result, and the batch latch to trip when done.
pub(crate) struct StackJob<F, R> {
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<Option<std::thread::Result<R>>>,
    latch: *const Latch,
}

impl<F, R> StackJob<F, R>
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    /// Wrap `func`, counting down on `latch` when it finishes.  `latch` must outlive
    /// the execution (it lives in the same `run_batch`/`join` frame as the job).
    pub(crate) fn new(func: F, latch: &Latch) -> Self {
        StackJob { func: UnsafeCell::new(Some(func)), result: UnsafeCell::new(None), latch }
    }

    /// Erase this job into a queueable [`JobRef`].
    ///
    /// # Safety
    ///
    /// Caller promises the pinning/blocking protocol in the module docs: `self` does
    /// not move and the current frame does not return until the latch trips.
    pub(crate) unsafe fn as_job_ref(&self) -> JobRef {
        JobRef { data: self as *const Self as *const (), execute_fn: execute_erased::<F, R> }
    }

    /// Extract the result after the latch has tripped.
    pub(crate) fn into_result(self) -> std::thread::Result<R> {
        self.result.into_inner().expect("pool job was never executed")
    }
}

/// The monomorphized executor behind [`JobRef`]: runs the closure under
/// `catch_unwind`, stores the outcome, then trips the latch as its final touch of
/// caller-owned memory.
unsafe fn execute_erased<F, R>(data: *const ())
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    let job = &*(data as *const StackJob<F, R>);
    let func = (*job.func.get()).take().expect("pool job executed twice");
    let latch = job.latch;
    let result = panic::catch_unwind(AssertUnwindSafe(func));
    *job.result.get() = Some(result);
    // Contract item 4: nothing below may touch `job` — the owning frame is free to
    // return as soon as this countdown is visible.
    (*latch).complete();
}
