//! Panic-semantics battery for the persistent pool.
//!
//! The contract these tests pin (documented on `Pool::join`/`Pool::run_batch`,
//! `rayon::scope` and in DESIGN.md §7): a panicking task propagates to the caller as
//! a `resume_unwind` of the **original payload**; sibling tasks of the same batch (or
//! jobs of the same scope) always run to completion before the caller unwinds; and
//! the pool stays fully usable afterwards
//! — workers survive (the panic is caught inside the job core, never unwinding a
//! worker's run loop) and no lock is poisoned.
//!
//! Note the worker threads' default panic hook still prints each panic to stderr, so
//! this binary's output is intentionally noisy.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use rayon::prelude::*;
use rayon::with_num_threads;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// A payload type no library code constructs, so a successful downcast proves the
/// caller received the *original* panic value, not a rethrown wrapper.
#[derive(Debug, PartialEq)]
struct Payload(u64);

fn payload_of(result: Result<(), Box<dyn std::any::Any + Send>>) -> Payload {
    let err = result.expect_err("expected a propagated panic");
    match err.downcast::<Payload>() {
        Ok(p) => *p,
        Err(other) => panic!("panic payload lost its type: {other:?}"),
    }
}

#[test]
fn join_propagates_original_payload_from_b() {
    for threads in THREAD_COUNTS {
        let got = catch_unwind(AssertUnwindSafe(|| {
            with_num_threads(threads, || {
                rayon::join(|| 1 + 1, || -> u32 { std::panic::panic_any(Payload(0xB)) });
            })
        }));
        assert_eq!(payload_of(got.map(drop)), Payload(0xB), "at {threads} threads");
    }
}

#[test]
fn join_propagates_original_payload_from_a_and_b_completes_or_is_cleanly_abandoned() {
    for threads in THREAD_COUNTS {
        let b_ran = AtomicUsize::new(0);
        let got = catch_unwind(AssertUnwindSafe(|| {
            with_num_threads(threads, || {
                rayon::join(
                    || -> u32 { std::panic::panic_any(Payload(0xA)) },
                    || b_ran.fetch_add(1, Ordering::SeqCst),
                );
            })
        }));
        assert_eq!(payload_of(got.map(drop)), Payload(0xA), "at {threads} threads");
        // On the pool, `join` waits for `b`'s latch before unwinding `a`'s panic, so
        // `b` completes exactly once.  On the serial fast path (1 thread) `a`'s
        // unwind reaches the caller before `b` ever starts: cleanly abandoned, like
        // rayon's unstolen-job drop.  Never more than once, never half-run.
        let expected_b_runs = if threads > 1 { 1 } else { 0 };
        assert_eq!(b_ran.load(Ordering::SeqCst), expected_b_runs, "at {threads} threads");
    }
}

#[test]
fn join_with_both_sides_panicking_prefers_a() {
    // Matches rayon: when both closures panic, `a`'s payload is the one resumed.
    for threads in THREAD_COUNTS {
        let got = catch_unwind(AssertUnwindSafe(|| {
            with_num_threads(threads, || {
                rayon::join(
                    || -> u32 { std::panic::panic_any(Payload(0xAAAA)) },
                    || -> u32 { std::panic::panic_any(Payload(0xBBBB)) },
                );
            })
        }));
        assert_eq!(payload_of(got.map(drop)), Payload(0xAAAA), "at {threads} threads");
    }
}

#[test]
fn for_each_panic_propagates_and_sibling_tasks_complete() {
    // 8 items on >= 2 workers split into one task per item (the MIN_CHUNK_LEN=1
    // floor), so "sibling tasks complete" is exact: all 7 non-panicking items run.
    // On the serial fast path only the items before the panic run (clean
    // abandonment of the tail, like rayon's unstolen-job drop).
    for threads in THREAD_COUNTS {
        let completed = AtomicUsize::new(0);
        let got = catch_unwind(AssertUnwindSafe(|| {
            with_num_threads(threads, || {
                (0..8usize).into_par_iter().for_each(|i| {
                    if i == 5 {
                        std::panic::panic_any(Payload(5));
                    }
                    completed.fetch_add(1, Ordering::SeqCst);
                });
            })
        }));
        assert_eq!(payload_of(got.map(drop)), Payload(5), "at {threads} threads");
        let expected_completed = if threads > 1 { 7 } else { 5 };
        assert_eq!(
            completed.load(Ordering::SeqCst),
            expected_completed,
            "sibling tasks mishandled at {threads} threads"
        );
    }
}

#[test]
fn for_each_panic_abandons_at_most_the_panicking_items_chunk() {
    // With more items than tasks, the task (a contiguous chunk of at most
    // ceil(len / (4 * threads)) items) is the completion unit: a panic abandons the
    // rest of its own chunk, never any other task's items.
    for threads in THREAD_COUNTS.into_iter().filter(|&t| t > 1) {
        let completed = AtomicUsize::new(0);
        let got = catch_unwind(AssertUnwindSafe(|| {
            with_num_threads(threads, || {
                (0..64usize).into_par_iter().for_each(|i| {
                    if i == 13 {
                        std::panic::panic_any(Payload(13));
                    }
                    completed.fetch_add(1, Ordering::SeqCst);
                });
            })
        }));
        assert_eq!(payload_of(got.map(drop)), Payload(13), "at {threads} threads");
        let chunk_len = 64usize.div_ceil(4 * threads).max(1);
        let done = completed.load(Ordering::SeqCst);
        assert!(
            (64 - chunk_len..64).contains(&done),
            "expected 64 - {chunk_len} <= completed < 64, got {done} at {threads} threads"
        );
    }
}

#[test]
fn map_panic_first_in_input_order_wins() {
    // Two tasks panic; the one earliest in input order is the payload the caller
    // sees, regardless of which worker finished first.
    for threads in THREAD_COUNTS {
        let got = catch_unwind(AssertUnwindSafe(|| {
            with_num_threads(threads, || {
                let _: Vec<u32> = (0..64usize)
                    .into_par_iter()
                    .map(|i| match i {
                        21 => std::panic::panic_any(Payload(21)),
                        55 => std::panic::panic_any(Payload(55)),
                        _ => i as u32,
                    })
                    .collect();
            })
        }));
        assert_eq!(payload_of(got.map(drop)), Payload(21), "at {threads} threads");
    }
}

#[test]
fn string_payloads_survive_verbatim() {
    // The formatted value must be computed at runtime: rustc const-folds
    // `panic!("... {}", 42)` into a `&'static str` payload, which would not pin the
    // String-payload path at all.
    let runtime_value = std::hint::black_box(42u32);
    for threads in THREAD_COUNTS {
        let got = catch_unwind(AssertUnwindSafe(|| {
            with_num_threads(threads, || {
                rayon::join(|| (), || panic!("boom at {runtime_value}"));
            })
        }));
        let err = got.expect_err("expected a propagated panic");
        let msg = err.downcast::<String>().expect("formatted panics carry String payloads");
        assert_eq!(*msg, "boom at 42", "at {threads} threads");
    }
}

#[test]
fn pool_remains_usable_after_panics() {
    for threads in THREAD_COUNTS {
        with_num_threads(threads, || {
            for round in 0..25 {
                let got = catch_unwind(AssertUnwindSafe(|| {
                    (0..32usize).into_par_iter().for_each(|i| {
                        if i == round % 32 {
                            std::panic::panic_any(Payload(round as u64));
                        }
                    });
                }));
                assert_eq!(payload_of(got.map(drop)), Payload(round as u64));
                // The very next batch on the same pool must behave normally: same
                // workers, no poisoned locks, order preserved.
                let squares: Vec<u64> =
                    (0..100usize).into_par_iter().map(|x| (x * x) as u64).collect();
                assert_eq!(squares[99], 9801);
                let (a, b) = rayon::join(|| join_depth(6), || join_depth(6));
                assert_eq!(a, b);
            }
        });
    }
}

#[test]
fn a_spawned_jobs_panic_reaches_the_scope_owner_only_after_its_siblings_finish() {
    // The panicking job is spawned first, so it starts first; its siblings finish
    // only after it has begun to panic.  Every one of them must have finished by
    // the time the owner sees the payload.  On a serial pool each spawn runs
    // inline and keeps its panic, so the later siblings run too.
    for threads in THREAD_COUNTS {
        let panicking = AtomicBool::new(false);
        let finished = AtomicUsize::new(0);
        let got = catch_unwind(AssertUnwindSafe(|| {
            with_num_threads(threads, || {
                rayon::scope(|scope| {
                    scope.spawn(|_| {
                        panicking.store(true, Ordering::SeqCst);
                        std::panic::panic_any(Payload(0x5C))
                    });
                    for _ in 0..8 {
                        scope.spawn(|_| {
                            while !panicking.load(Ordering::SeqCst) {
                                std::thread::yield_now();
                            }
                            finished.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                })
            })
        }));
        assert_eq!(payload_of(got), Payload(0x5C), "at {threads} threads");
        assert_eq!(finished.load(Ordering::SeqCst), 8, "siblings cut short at {threads} threads");
    }
}

#[test]
fn a_scope_body_panic_still_waits_for_the_jobs_it_spawned() {
    // The scheduler's cancellation unwinds out of a scope body with cells in
    // flight: the body's payload must surface only after those jobs finished.
    // On a pool the jobs finish only after the body has begun to panic; on a
    // serial pool they ran inline before it.
    for threads in THREAD_COUNTS {
        let panicking = AtomicBool::new(false);
        let finished = AtomicUsize::new(0);
        let got = catch_unwind(AssertUnwindSafe(|| {
            with_num_threads(threads, || {
                rayon::scope(|scope| {
                    for _ in 0..4 {
                        scope.spawn(|_| {
                            while threads > 1 && !panicking.load(Ordering::SeqCst) {
                                std::thread::yield_now();
                            }
                            finished.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                    panicking.store(true, Ordering::SeqCst);
                    std::panic::panic_any(Payload(0xB0D7))
                })
            })
        }));
        assert_eq!(payload_of(got), Payload(0xB0D7), "at {threads} threads");
        assert_eq!(finished.load(Ordering::SeqCst), 4, "jobs abandoned at {threads} threads");
    }
}

#[test]
fn the_pool_survives_panicking_spawned_jobs() {
    for threads in THREAD_COUNTS {
        with_num_threads(threads, || {
            for round in 0..25u64 {
                let got = catch_unwind(AssertUnwindSafe(|| {
                    rayon::scope(|scope| {
                        for job in 0..4u64 {
                            scope.spawn(move |_| {
                                if job == round % 4 {
                                    std::panic::panic_any(Payload(round));
                                }
                            });
                        }
                    })
                }));
                assert_eq!(payload_of(got), Payload(round));
                // The very next scope and batch on the same pool behave normally.
                let total = AtomicUsize::new(0);
                rayon::scope(|scope| {
                    for job in 1..=8 {
                        let total = &total;
                        scope.spawn(move |_| {
                            let part =
                                (0..job).into_par_iter().map(|x| x + 1).reduce(|| 0, |a, b| a + b);
                            total.fetch_add(part, Ordering::SeqCst);
                        });
                    }
                });
                assert_eq!(total.load(Ordering::SeqCst), (1..=8).map(|j| j * (j + 1) / 2).sum());
                let (a, b) = rayon::join(|| join_depth(6), || join_depth(6));
                assert_eq!(a, b);
            }
        });
    }
}

/// Small nested-join workload used to prove post-panic health.
fn join_depth(depth: usize) -> u64 {
    if depth == 0 {
        return 1;
    }
    let (a, b) = rayon::join(|| join_depth(depth - 1), || join_depth(depth - 1));
    a + b
}
