//! Fault injection at the generation funnel's registered site (`trace/drain`): a
//! delayed drain still delivers every event, and a panicking drain unwinds before
//! any event moves, so the next drain delivers the interval whole — whether the
//! drain is called directly or closes a [`ShardSet::run_interval`].
//!
//! Compiled only under `--features failpoints`.
#![cfg(feature = "failpoints")]

use std::sync::{Mutex, MutexGuard};

use smtrace::{Access, ObjectLayout, ShardSet, TraceBuilder};

/// The tests all configure the one global `trace/drain` point, so they must not
/// interleave: a guard dropped by one would deconfigure the other's spec.
fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn layout() -> ObjectLayout {
    ObjectLayout::new(64, 96)
}

#[test]
fn drain_failpoint_delay_does_not_corrupt_the_stream() {
    let _serial = serialize();
    let _guard = failpoint::configure_guard("trace/drain", "1*delay(10)").unwrap();
    let mut shards = ShardSet::new(2);
    shards.shard_mut(0).read(1);
    shards.shard_mut(1).write(2);
    let mut builder = TraceBuilder::new(layout(), 2);
    shards.drain_interval(&mut builder);
    let trace = builder.finish();
    assert_eq!(trace.total_accesses(), 2, "a delayed drain still delivers every event");
}

#[test]
fn drain_failpoint_panic_unwinds_cleanly_through_the_sink() {
    let _serial = serialize();
    let _guard = failpoint::configure_guard("trace/drain", "1*panic(drain died)").unwrap();
    let mut shards = ShardSet::new(1);
    shards.shard_mut(0).read(5);
    let mut builder = TraceBuilder::new(layout(), 1);
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        shards.drain_interval(&mut builder)
    }))
    .expect_err("configured drain panic must unwind");
    let msg = payload.downcast_ref::<String>().expect("string payload");
    assert!(msg.contains("trace/drain"), "got {msg}");
    // The failpoint fired before any event moved: nothing was half-delivered, and
    // the second drain delivers everything.
    shards.drain_interval(&mut builder);
    assert_eq!(builder.finish().total_accesses(), 1);
}

#[test]
fn drain_failpoint_panic_propagates_out_of_run_interval() {
    let _serial = serialize();
    let _guard = failpoint::configure_guard("trace/drain", "1*panic(drain died)").unwrap();
    let mut shards = ShardSet::new(2);
    let mut builder = TraceBuilder::new(layout(), 2);
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        shards.run_interval(&mut builder, [3, 4], |shard, object| shard.write(object))
    }))
    .expect_err("configured drain panic must unwind out of run_interval");
    let msg = payload.downcast_ref::<String>().expect("string payload");
    assert!(msg.contains("trace/drain"), "got {msg}");
    // The filled interval was kept whole: a plain drain delivers it, and run_interval
    // runs the next interval as usual.
    shards.drain_interval(&mut builder);
    shards.run_interval(&mut builder, [5], |shard, object| shard.read(object));
    let trace = builder.finish();
    assert_eq!(trace.intervals.len(), 2);
    assert_eq!(trace.intervals[0].accesses, vec![vec![Access::write(3)], vec![Access::write(4)]]);
    assert_eq!(trace.intervals[1].accesses, vec![vec![Access::read(5)], vec![]]);
}
