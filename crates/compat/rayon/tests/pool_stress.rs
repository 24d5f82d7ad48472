//! Stress battery for the persistent work-stealing pool.
//!
//! Everything here runs under [`rayon::with_num_threads`] so the 1-, 2- and 8-worker
//! schedules are exercised deterministically in one process, on any host — the
//! `RAYON_NUM_THREADS` environment variable is read once per process and therefore
//! cannot vary between tests.  The CI matrix additionally runs the whole workspace
//! with `RAYON_NUM_THREADS=2` so the *global* pool takes the multi-worker paths too.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use rayon::prelude::*;
use rayon::with_num_threads;

/// The thread counts the whole battery is pinned under (per ISSUE 6).
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Parallel recursive sum over `join`, splitting down to 16-element leaves.
fn join_sum(values: &[u64]) -> u64 {
    if values.len() <= 16 {
        return values.iter().sum();
    }
    let mid = values.len() / 2;
    let (left, right) = rayon::join(|| join_sum(&values[..mid]), || join_sum(&values[mid..]));
    left + right
}

#[test]
fn nested_join_to_depth_eight_and_beyond() {
    // 16 * 2^8 elements force a join tree at least 8 levels deep.
    let values: Vec<u64> = (0..16u64 << 8).collect();
    let expected: u64 = values.iter().sum();
    for threads in THREAD_COUNTS {
        let total = with_num_threads(threads, || join_sum(&values));
        assert_eq!(total, expected, "nested join diverged at {threads} threads");
    }
}

#[test]
fn recursive_par_iter_inside_par_iter() {
    let expected: Vec<Vec<u64>> =
        (0..16u64).map(|i| (0..64u64).map(|j| i * 1000 + j).collect()).collect();
    for threads in THREAD_COUNTS {
        let rows: Vec<Vec<u64>> = with_num_threads(threads, || {
            (0..16usize)
                .into_par_iter()
                .map(|i| (0..64usize).into_par_iter().map(|j| i as u64 * 1000 + j as u64).collect())
                .collect()
        });
        assert_eq!(rows, expected, "nested par_iter diverged at {threads} threads");
    }
}

#[test]
fn par_iter_nested_under_join_nested_under_par_iter() {
    // Three alternating layers: par_iter -> join -> par_iter, the shape the apps'
    // sharded producers + radix pipeline compose at runtime.
    for threads in THREAD_COUNTS {
        let got: Vec<u64> = with_num_threads(threads, || {
            (0..8usize)
                .into_par_iter()
                .map(|i| {
                    let (a, b) = rayon::join(
                        || {
                            (0..32usize)
                                .into_par_iter()
                                .map(|x| x as u64 + i as u64)
                                .reduce(|| 0, |p, q| p + q)
                        },
                        || (0..32u64).map(|x| x * 2).sum::<u64>(),
                    );
                    a + b
                })
                .collect()
        });
        let expected: Vec<u64> = (0..8u64)
            .map(|i| {
                (0..32u64).map(|x| x + i).sum::<u64>() + (0..32u64).map(|x| x * 2).sum::<u64>()
            })
            .collect();
        assert_eq!(got, expected, "mixed nesting diverged at {threads} threads");
    }
}

#[test]
fn ten_thousand_tiny_tasks() {
    let expected: Vec<u32> = (0..10_000u32).map(|x| x.wrapping_mul(2_654_435_761)).collect();
    for threads in THREAD_COUNTS {
        let got: Vec<u32> = with_num_threads(threads, || {
            (0..10_000usize)
                .into_par_iter()
                .map(|x| (x as u32).wrapping_mul(2_654_435_761))
                .collect()
        });
        assert_eq!(got, expected, "10k tiny tasks diverged at {threads} threads");
    }
}

#[test]
fn four_huge_tasks() {
    // Four items, each a multi-million-op loop: the few-heavy-items shape must get
    // one task per item (the MIN_CHUNK_LEN=1 splitting floor), not be batched.
    fn heavy(seed: u64) -> u64 {
        let mut acc = seed;
        for i in 0..2_000_000u64 {
            acc = acc.rotate_left(7) ^ i;
        }
        acc
    }
    let expected: Vec<u64> = (0..4u64).map(heavy).collect();
    for threads in THREAD_COUNTS {
        let got: Vec<u64> = with_num_threads(threads, || {
            (0..4u64).collect::<Vec<_>>().into_par_iter().map(heavy).collect()
        });
        assert_eq!(got, expected, "4 huge tasks diverged at {threads} threads");
    }
}

#[test]
fn empty_and_len_one_inputs() {
    for threads in THREAD_COUNTS {
        with_num_threads(threads, || {
            let empty: Vec<u32> = Vec::new();
            let mapped: Vec<u32> = empty.par_iter().map(|&x| x + 1).collect();
            assert!(mapped.is_empty());
            let ranged: Vec<usize> = (0..0usize).into_par_iter().map(|x| x).collect();
            assert!(ranged.is_empty());
            let single: Vec<u32> = vec![41].into_par_iter().map(|x| x + 1).collect();
            assert_eq!(single, vec![42]);
            let mut one = [7u64];
            one.par_iter_mut().for_each(|x| *x *= 6);
            assert_eq!(one, [42]);
            let chunks: Vec<usize> = [0u8; 0].par_chunks(8).map(<[u8]>::len).collect();
            assert!(chunks.is_empty());
            let zipped: Vec<(u32, u32)> =
                vec![1u32].into_par_iter().zip(Vec::<u32>::new().into_par_iter()).collect();
            assert!(zipped.is_empty());
        });
    }
}

#[test]
fn par_chunks_mut_disjoint_writes_under_every_thread_count() {
    for threads in THREAD_COUNTS {
        let mut data = vec![0u64; 4099];
        with_num_threads(threads, || {
            data.par_chunks_mut(97).for_each(|chunk| {
                for slot in chunk.iter_mut() {
                    *slot = 1;
                }
            });
        });
        assert_eq!(data.iter().sum::<u64>(), 4099, "lost writes at {threads} threads");
    }
}

#[test]
fn scope_jobs_borrow_the_stack_and_spawn_nested_jobs() {
    for threads in THREAD_COUNTS {
        let mut slots = vec![0u64; 64];
        with_num_threads(threads, || {
            rayon::scope(|scope| {
                for (i, chunk) in slots.chunks_mut(8).enumerate() {
                    scope.spawn(move |scope| {
                        let (head, tail) = chunk.split_at_mut(4);
                        scope.spawn(move |_| tail.iter_mut().for_each(|x| *x = 2 * i as u64 + 1));
                        head.iter_mut().for_each(|x| *x = 2 * i as u64);
                    });
                }
            });
        });
        let expected: Vec<u64> =
            (0..8u64).flat_map(|i| [2 * i; 4].into_iter().chain([2 * i + 1; 4])).collect();
        assert_eq!(slots, expected, "scope jobs lost writes at {threads} threads");
    }
}

#[test]
fn a_worker_waiting_inside_a_spawned_job_never_starts_another() {
    // The first job's worker waits inside its own par_iter while the spawn queue
    // still holds jobs.  Starting one of them there would leave the first job's
    // remainder queued behind it, so no spawned job may run on that thread while
    // the first one is still in progress.
    for threads in THREAD_COUNTS.into_iter().filter(|&t| t > 1) {
        let first: Mutex<Option<std::thread::ThreadId>> = Mutex::new(None);
        let first_running = AtomicBool::new(false);
        let violations = AtomicUsize::new(0);
        with_num_threads(threads, || {
            rayon::scope(|scope| {
                scope.spawn(|_| {
                    *first.lock().unwrap() = Some(std::thread::current().id());
                    first_running.store(true, Ordering::SeqCst);
                    (0..8usize)
                        .into_par_iter()
                        .for_each(|_| std::thread::sleep(Duration::from_millis(2)));
                    first_running.store(false, Ordering::SeqCst);
                });
                for _ in 0..32 {
                    scope.spawn(|_| {
                        let here = Some(std::thread::current().id());
                        if first_running.load(Ordering::SeqCst) && *first.lock().unwrap() == here {
                            violations.fetch_add(1, Ordering::SeqCst);
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    });
                }
            });
        });
        assert_eq!(violations.load(Ordering::SeqCst), 0, "nested start at {threads} threads");
    }
}

/// Count live threads whose name carries the shim's worker prefix, via
/// `/proc/self/task/<tid>/comm`.  `None` when `/proc` is unavailable (non-Linux).
fn shim_worker_threads() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let mut count = 0;
    for entry in tasks.flatten() {
        let comm = std::fs::read_to_string(entry.path().join("comm")).unwrap_or_default();
        if comm.trim_end().starts_with("rayon-shim") {
            count += 1;
        }
    }
    Some(count)
}

#[test]
fn soak_one_thousand_pool_uses_leak_no_workers() {
    // Warm every pool size this battery touches (pools are cached per size and live
    // for the process), then pin that a thousand further uses spawn nothing new.
    let mix = |round: usize| {
        for threads in THREAD_COUNTS {
            with_num_threads(threads, || {
                let n = 64 + round % 7;
                let sum: u64 = (0..n).into_par_iter().map(|x| x as u64).reduce(|| 0, |a, b| a + b);
                assert_eq!(sum, (n as u64 * (n as u64 - 1)) / 2);
                let (a, b) = rayon::join(|| 1u32, || 2u32);
                assert_eq!(a + b, 3);
            });
        }
    };
    mix(0);
    let Some(before) = shim_worker_threads() else {
        return; // no /proc: soak still ran, leak assertion not measurable
    };
    for round in 1..=1000 {
        mix(round);
    }
    let after = shim_worker_threads().expect("/proc vanished mid-test");
    assert_eq!(before, after, "pool leaked worker threads across 1000 uses");
}

#[test]
fn soak_thousands_of_scopes_leak_no_workers() {
    // A scope runs its jobs on the persistent workers, never on threads of its own.
    let mix = |round: usize| {
        for threads in THREAD_COUNTS {
            with_num_threads(threads, || {
                let total = AtomicUsize::new(0);
                rayon::scope(|scope| {
                    for job in 0..4 + round % 3 {
                        let total = &total;
                        scope.spawn(move |_| {
                            total.fetch_add(job, Ordering::Relaxed);
                        });
                    }
                });
                let jobs = 4 + round % 3;
                assert_eq!(total.into_inner(), jobs * (jobs - 1) / 2);
            });
        }
    };
    mix(0);
    let Some(before) = shim_worker_threads() else {
        return; // no /proc: soak still ran, leak assertion not measurable
    };
    for round in 1..=3000 {
        mix(round);
    }
    let after = shim_worker_threads().expect("/proc vanished mid-test");
    assert_eq!(before, after, "scopes leaked worker threads across 9000 uses");
}
