//! Dependency-free stand-in for the subset of `rayon` this workspace uses.
//!
//! The build environment for this repository has no access to a crates.io registry, so
//! the workspace vendors this shim as a path dependency under the `rayon` library name
//! (the manifests alias `rayon-shim` → `rayon`).  The parallelism is real, and since
//! PR 6 it is *persistent*: every adapter schedules onto a lazily-created,
//! process-lifetime work-stealing pool (`pool` — Mutex-protected injector +
//! per-worker deques + a condvar parker), so an interval of sharded trace generation
//! or a DSM reduction pays a queue push, not a `std::thread::scope` spawn, per task.
//! Borrowing call sites (`par_chunks_mut`, `join` closures over locals) still compile
//! unchanged: the pool's job core (`job`) re-creates scoped-thread lifetimes by
//! blocking the submitting frame until its jobs finish.
//!
//! Only the adapters the workspace calls are provided: `join`, `scope` /
//! `Scope::spawn`, `par_iter`, `par_iter_mut`, `par_chunks`, `par_chunks_mut`,
//! `into_par_iter` (on ranges and vectors), and the `map` / `flat_map_iter` / `zip` /
//! `for_each` / `reduce` / `collect` combinators.  Unlike rayon proper,
//! adapters are *eager*: each combinator that does per-item work runs it in parallel
//! immediately and materializes the results, which keeps the implementation tiny at the
//! cost of one intermediate `Vec` per stage.  All call sites in this workspace use
//! short two-stage pipelines over large items, where that cost is noise.  Results are
//! always gathered in input order, so every adapter is observably deterministic no
//! matter which worker ran which chunk.
//!
//! Panic contract (pinned by `tests/panic_semantics.rs`): a panicking task's original
//! payload reaches the caller via `resume_unwind`, sibling tasks of the same batch
//! (or jobs of the same scope) always run to completion first, and the pool
//! survives — no worker dies, no lock is poisoned, the very next `par_*` call works.

#![deny(unsafe_code)]

use std::ops::Range;

mod job;
mod pool;
mod scope;

pub use pool::with_num_threads;
pub use scope::{scope, Scope};

pub mod prelude {
    //! Glob-import target mirroring `rayon::prelude`.
    pub use crate::{IntoParallelIterator, ParallelSlice, ParallelSliceMut};
}

/// Number of worker threads the adapters fan out to.
///
/// This is the size of the pool the *current thread* submits to: the global pool
/// (sized once per process from `RAYON_NUM_THREADS`, like rayon, falling back to
/// [`std::thread::available_parallelism`]), unless overridden by
/// [`with_num_threads`] or queried from inside a differently-sized pool's worker.
pub fn current_num_threads() -> usize {
    pool::current_pool().num_threads()
}

/// Run two closures, potentially on separate worker threads, and return both results
/// (rayon's `join`).
///
/// On a single-threaded configuration the closures run sequentially on the calling
/// thread; otherwise `b` is queued on the pool (stealable by any idle worker) while
/// `a` runs on the caller, which then executes pool work — usually `b` itself, if
/// nobody stole it — until both are done.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    pool::current_pool().join(a, b)
}

/// How many tasks to split `len` items into on a pool of `workers` workers:
/// ~[`SPLIT_PER_WORKER`]× the worker count so early-finishing workers can steal the
/// stragglers' surplus, but never more than one task per [`MIN_CHUNK_LEN`] items and
/// never more than `len` tasks.
///
/// `MIN_CHUNK_LEN` is 1 — rayon's own default splitting floor — because this
/// workspace's hot `par_iter` call sites hand out *heavy* items (one virtual
/// processor's whole force evaluation each): batching two of those into one task
/// would halve parallelism exactly when `len ≈ workers`.  Large-`len` overhead is
/// already bounded by the 4×-workers task cap, not by the chunk floor.
const SPLIT_PER_WORKER: usize = 4;
const MIN_CHUNK_LEN: usize = 1;

fn split_task_count(len: usize, workers: usize) -> usize {
    let target_tasks = workers.saturating_mul(SPLIT_PER_WORKER).max(1);
    let chunk_len = len.div_ceil(target_tasks).max(MIN_CHUNK_LEN);
    len.div_ceil(chunk_len.max(1)).max(1)
}

/// Split `items` into at most `parts` contiguous runs of near-equal length.
fn split_chunks<T>(items: Vec<T>, parts: usize) -> Vec<Vec<T>> {
    let n = items.len();
    let parts = parts.clamp(1, n.max(1));
    let chunk_len = n.div_ceil(parts);
    let mut chunks = Vec::with_capacity(parts);
    let mut it = items.into_iter();
    loop {
        let chunk: Vec<T> = it.by_ref().take(chunk_len).collect();
        if chunk.is_empty() {
            break;
        }
        chunks.push(chunk);
    }
    chunks
}

/// Map `f` over `items` on the pool, preserving order.
fn par_map_vec<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let pool = pool::current_pool();
    if pool.num_threads() <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let parts = split_task_count(items.len(), pool.num_threads());
    let chunks = split_chunks(items, parts);
    let f = &f;
    let tasks: Vec<_> = chunks
        .into_iter()
        .map(|chunk| move || chunk.into_iter().map(f).collect::<Vec<U>>())
        .collect();
    pool.run_batch(tasks).into_iter().flatten().collect()
}

/// An eager "parallel iterator": a materialized item list whose combinators run on
/// worker threads.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Parallel map, preserving input order.
    pub fn map<U, F>(self, f: F) -> ParIter<U>
    where
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        ParIter { items: par_map_vec(self.items, f) }
    }

    /// Parallel map to an iterator per item, flattened in input order
    /// (rayon's `flat_map_iter`).
    pub fn flat_map_iter<U, I, F>(self, f: F) -> ParIter<U>
    where
        U: Send,
        I: IntoIterator<Item = U>,
        F: Fn(T) -> I + Sync,
    {
        let nested = par_map_vec(self.items, |item| f(item).into_iter().collect::<Vec<U>>());
        ParIter { items: nested.into_iter().flatten().collect() }
    }

    /// Pair items with another parallel iterator's, truncating to the shorter side.
    pub fn zip<U: Send>(self, other: ParIter<U>) -> ParIter<(T, U)> {
        ParIter { items: self.items.into_iter().zip(other.items).collect() }
    }

    /// Run `f` on every item on worker threads.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        par_map_vec(self.items, f);
    }

    /// Combine the items into one value (rayon's `reduce`).
    ///
    /// The per-item work was already done in parallel by the preceding adapter stage
    /// (the shim's adapters are eager), so the final fold over the materialized
    /// partials is serial — exactly the chunked map-reduce shape the radix-sort
    /// pipeline needs (per-chunk histograms / maxima, then one cheap combine).
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> T
    where
        ID: FnOnce() -> T,
        OP: FnMut(T, T) -> T,
    {
        self.items.into_iter().fold(identity(), op)
    }

    /// Collect the (already ordered) items.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }
}

/// Conversion into a [`ParIter`] (rayon's `IntoParallelIterator`).
pub trait IntoParallelIterator {
    /// Item type of the resulting parallel iterator.
    type Item: Send;
    /// Convert into an eager parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter { items: self.collect() }
    }
}

/// `par_iter` / `par_chunks` on slices (rayon's `IntoParallelRefIterator` +
/// `ParallelSlice`, collapsed into one trait).
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over `&T`.
    fn par_iter(&self) -> ParIter<&T>;
    /// Parallel iterator over contiguous `&[T]` chunks of length `chunk_size`.
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<&T> {
        ParIter { items: self.iter().collect() }
    }

    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParIter { items: self.chunks(chunk_size).collect() }
    }
}

/// `par_iter_mut` / `par_chunks_mut` on slices (rayon's `IntoParallelRefMutIterator` +
/// the mutable half of `ParallelSlice`, collapsed into one trait).
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over `&mut T`.
    fn par_iter_mut(&mut self) -> ParIter<&mut T>;
    /// Parallel iterator over contiguous `&mut [T]` chunks of length `chunk_size`.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParIter<&mut T> {
        ParIter { items: self.iter_mut().collect() }
    }

    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParIter { items: self.chunks_mut(chunk_size).collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_preserves_order() {
        let v: Vec<usize> = (0..10_000).collect();
        let doubled: Vec<usize> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..10_000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn into_par_iter_on_ranges() {
        let squares: Vec<usize> = (0..100).into_par_iter().map(|x| x * x).collect();
        assert_eq!(squares[9], 81);
        assert_eq!(squares.len(), 100);
    }

    #[test]
    fn flat_map_iter_flattens_in_order() {
        let v = [vec![1, 2], vec![3], vec![], vec![4, 5]];
        let flat: Vec<i32> = v.par_iter().flat_map_iter(|inner| inner.iter().copied()).collect();
        assert_eq!(flat, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn par_iter_mut_zip_for_each_mutates() {
        let mut dst = vec![0u64; 1000];
        let src: Vec<u64> = (0..1000).collect();
        dst.par_iter_mut().zip(src.par_iter()).for_each(|(d, &s)| *d = s + 1);
        assert_eq!(dst[999], 1000);
        assert_eq!(dst[0], 1);
    }

    #[test]
    fn par_chunks_covers_everything() {
        let v: Vec<u32> = (0..1003).collect();
        let sums: Vec<u64> =
            v.par_chunks(64).map(|c| c.iter().map(|&x| u64::from(x)).sum()).collect();
        let total: u64 = sums.iter().sum();
        assert_eq!(total, 1002 * 1003 / 2);
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(current_num_threads() >= 1);
    }

    #[test]
    fn join_runs_both_closures() {
        let (a, b) = join(|| 6 * 7, || "ok".to_string());
        assert_eq!(a, 42);
        assert_eq!(b, "ok");
    }

    #[test]
    fn reduce_combines_chunk_partials() {
        let v: Vec<u64> = (1..=1000).collect();
        let total = v.par_chunks(128).map(|c| c.iter().sum::<u64>()).reduce(|| 0, |a, b| a + b);
        assert_eq!(total, 1000 * 1001 / 2);
        let max = v.par_iter().map(|&x| x).reduce(|| 0, u64::max);
        assert_eq!(max, 1000);
    }

    #[test]
    fn par_chunks_mut_writes_disjoint_chunks() {
        let mut v = vec![0usize; 1000];
        v.par_chunks_mut(64).for_each(|chunk| {
            for slot in chunk.iter_mut() {
                *slot = 7;
            }
        });
        assert!(v.iter().all(|&x| x == 7));
    }

    #[test]
    fn split_task_count_splits_to_four_x_workers_but_never_merges_scarce_items() {
        // Few heavy items (the per-processor case): one task per item, always.
        assert_eq!(split_task_count(8, 8), 8);
        assert_eq!(split_task_count(16, 8), 16);
        assert_eq!(split_task_count(3, 8), 3);
        // Large inputs: capped near SPLIT_PER_WORKER x workers.
        assert_eq!(split_task_count(100_000, 4), 16);
        assert!(split_task_count(10_000, 8) <= 8 * SPLIT_PER_WORKER);
        // Degenerate sizes stay sane.
        assert_eq!(split_task_count(1, 8), 1);
        assert_eq!(split_task_count(0, 8), 1);
    }

    #[test]
    fn with_num_threads_overrides_and_restores() {
        let outer = current_num_threads();
        let inner = with_num_threads(3, || {
            let nested = with_num_threads(2, current_num_threads);
            assert_eq!(nested, 2);
            current_num_threads()
        });
        assert_eq!(inner, 3);
        assert_eq!(current_num_threads(), outer);
    }

    #[test]
    fn split_chunks_partitions_exactly() {
        let chunks = split_chunks((0..10).collect::<Vec<_>>(), 4);
        let flat: Vec<i32> = chunks.iter().flatten().copied().collect();
        assert_eq!(flat, (0..10).collect::<Vec<_>>());
        assert!(chunks.len() <= 4);
    }
}
