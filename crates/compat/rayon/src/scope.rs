//! rayon's `scope`: spawn any number of borrowing jobs onto the pool, and return only
//! once every one of them has finished.

use std::any::Any;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

use crate::job::{heap_job_ref, Latch};
use crate::pool::{self, Pool};

/// The handle [`scope`] passes to its body and to every spawned job (rayon's
/// `Scope`).  Jobs spawned on it may borrow anything that outlives the `scope` call.
pub struct Scope<'scope> {
    pool: &'static Pool,
    /// One count for the scope body plus one per spawned job still out.
    latch: Latch,
    /// The first panic of the body or of any spawned job.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Invariant in `'scope`, like rayon's, so a job cannot smuggle out a shorter borrow.
    marker: PhantomData<fn(&'scope ()) -> &'scope ()>,
}

/// Run `op` with a [`Scope`] on which it may spawn jobs, and return its result once
/// every spawned job (including jobs spawned by jobs) has finished (rayon's `scope`).
///
/// `op` runs on the calling thread.  While it waits for the jobs, the caller runs its
/// own scope's queued jobs and any batch work, never another scope's jobs.  On a
/// serial pool each `spawn` runs its job inline.
///
/// Panic contract (matches rayon): a panic in `op` or in a spawned job does not stop
/// the other jobs; once all of them have finished, the first panic to occur is
/// resumed with its original payload, and the pool stays usable.
pub fn scope<'scope, OP, R>(op: OP) -> R
where
    OP: FnOnce(&Scope<'scope>) -> R + Send,
    R: Send,
{
    let scope = Scope {
        pool: pool::current_pool(),
        latch: Latch::new(1),
        panic: Mutex::new(None),
        marker: PhantomData,
    };
    let result = match panic::catch_unwind(AssertUnwindSafe(|| op(&scope))) {
        Ok(value) => Some(value),
        Err(payload) => {
            scope.keep_panic(payload);
            None
        }
    };
    scope.latch.complete();
    scope.pool.wait_scope(&scope.latch, scope.tag());
    if let Some(payload) = scope.panic.into_inner().unwrap_or_else(PoisonError::into_inner) {
        panic::resume_unwind(payload);
    }
    result.expect("a scope body that did not panic returned")
}

impl<'scope> Scope<'scope> {
    /// Queue `body` on the pool (rayon's `Scope::spawn`); it receives the scope, so
    /// it may spawn further jobs.  On a serial pool it runs here and now.
    #[allow(unsafe_code)] // One of the reviewed call sites of the job-core contract.
    pub fn spawn<BODY>(&self, body: BODY)
    where
        BODY: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        if self.pool.num_threads() <= 1 {
            self.run(body);
            return;
        }
        self.latch.increment();
        let job = move || {
            self.run(body);
            // Contract item 4: the last touch of the scope, which may be gone as
            // soon as this countdown is visible.
            self.latch.complete();
        };
        // Safety (contract in job.rs): the ref is pushed once, and `scope` blocks
        // on the latch that `job` trips last, so everything `job` borrows — the
        // scope included — outlives it.
        let job = unsafe { heap_job_ref(Box::new(job)) };
        self.pool.push_spawned(self.tag(), job);
    }

    /// Run one job body, keeping its panic (if it is the first) for the owner.
    fn run<BODY>(&self, body: BODY)
    where
        BODY: FnOnce(&Scope<'scope>),
    {
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| body(self))) {
            self.keep_panic(payload);
        }
    }

    /// Store `payload` unless an earlier panic is already stored.
    fn keep_panic(&self, payload: Box<dyn Any + Send>) {
        self.panic.lock().unwrap_or_else(PoisonError::into_inner).get_or_insert(payload);
    }

    /// The tag this scope's jobs carry in the pool's spawn queue: its address, unique
    /// among live scopes.
    fn tag(&self) -> usize {
        self as *const Self as usize
    }
}
