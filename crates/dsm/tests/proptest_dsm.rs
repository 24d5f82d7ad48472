//! Property-based tests for the DSM protocol simulators: conservation and monotonicity
//! invariants that must hold for *any* access pattern, not just the benchmark traces.

use proptest::prelude::*;

use dsm::{DsmConfig, HlrcSim, NetworkCostModel, TreadMarksSim};
use smtrace::{ObjectLayout, ProgramTrace, TraceBuilder};

/// A tiny random "program": a list of intervals, each a list of (proc, object, write)
/// accesses, over `procs` processors and `objects` objects of 64 bytes.
fn arbitrary_trace(procs: usize, objects: usize) -> impl Strategy<Value = ProgramTrace> {
    let access = (0..procs, 0..objects, any::<bool>());
    let interval = prop::collection::vec(access, 0..40);
    prop::collection::vec(interval, 1..6).prop_map(move |intervals| {
        let layout = ObjectLayout::new(objects, 64);
        let mut b = TraceBuilder::new(layout, procs);
        for interval in intervals {
            for (p, o, w) in interval {
                if w {
                    b.write(p, o);
                } else {
                    b.read(p, o);
                }
            }
            b.barrier();
        }
        b.finish()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// TreadMarks: every byte received by a faulting processor was sent by some writer
    /// (diff conservation), and fetch exchanges match served diffs.
    #[test]
    fn treadmarks_conserves_diff_traffic(trace in arbitrary_trace(4, 64)) {
        let r = TreadMarksSim::new(DsmConfig::new(1024, 4)).run(&trace);
        let received: u64 = r.per_proc.iter().map(|p| p.data_bytes).sum();
        let sent: u64 = r.per_proc.iter().map(|p| p.diff_bytes_sent).sum();
        prop_assert_eq!(received, sent);
        let fetched: u64 = r.per_proc.iter().map(|p| p.fetch_exchanges).sum();
        let served: u64 = r.per_proc.iter().map(|p| p.diffs_sent).sum();
        prop_assert_eq!(fetched, served);
        prop_assert!(r.aggregate_consistent());
    }

    /// HLRC never moves more data per fault than one page, and never makes a processor
    /// fetch a page it alone wrote.
    #[test]
    fn hlrc_page_fetches_are_bounded(trace in arbitrary_trace(4, 64)) {
        let config = DsmConfig::new(1024, 4);
        let r = HlrcSim::new(config).run(&trace);
        for p in &r.per_proc {
            // Each remote fault transfers exactly one page; eager diffs add at most the
            // object bytes written.
            prop_assert!(p.data_bytes >= p.remote_faults * 1024);
            prop_assert_eq!(p.remote_faults, p.fetch_exchanges);
        }
        prop_assert!(r.aggregate_consistent());
    }

    /// A single-processor trace never generates any communication at all on either
    /// protocol (there is nobody to exchange diffs, pages, lock grants or barrier
    /// notifications with) — the P=1 zero-communication fast path.
    #[test]
    fn single_processor_traces_are_communication_free(trace in arbitrary_trace(1, 32)) {
        let config = DsmConfig::new(1024, 1);
        let tmk = TreadMarksSim::new(config).run(&trace);
        let hlrc = HlrcSim::new(config).run(&trace);
        prop_assert_eq!(tmk.stats.data_bytes, 0);
        prop_assert_eq!(tmk.stats.remote_faults, 0);
        prop_assert_eq!(tmk.stats.messages, 0);
        prop_assert_eq!(hlrc.stats.data_bytes, 0);
        prop_assert_eq!(hlrc.stats.remote_faults, 0);
        prop_assert_eq!(hlrc.stats.messages, 0);
    }

    /// The message count of both protocols never decreases when an extra reader
    /// interval is appended (monotonicity under added sharing).
    #[test]
    fn extra_readers_never_reduce_messages(trace in arbitrary_trace(4, 64)) {
        let config = DsmConfig::new(1024, 4);
        let base_tmk = TreadMarksSim::new(config).run(&trace).stats.messages;
        let base_hlrc = HlrcSim::new(config).run(&trace).stats.messages;
        // Append one interval in which processor 3 reads every object.
        let mut extended = trace.clone();
        {
            let layout = extended.layout.clone();
            let mut b = TraceBuilder::new(layout, 4);
            trace.replay_into(&mut b);
            for o in 0..64 {
                b.read(3, o);
            }
            b.barrier();
            extended = b.finish();
        }
        let ext_tmk = TreadMarksSim::new(config).run(&extended).stats.messages;
        let ext_hlrc = HlrcSim::new(config).run(&extended).stats.messages;
        prop_assert!(ext_tmk >= base_tmk);
        prop_assert!(ext_hlrc >= base_hlrc);
    }

    /// The cost model produces finite, non-negative times, and the speedup never
    /// exceeds the processor count.
    #[test]
    fn cost_model_estimates_are_sane(trace in arbitrary_trace(8, 128)) {
        let config = DsmConfig::new(1024, 8);
        let cost = NetworkCostModel::default();
        for result in [
            TreadMarksSim::new(config).run(&trace),
            HlrcSim::new(config).run(&trace),
        ] {
            let est = cost.estimate(&result);
            prop_assert!(est.sequential_seconds.is_finite() && est.sequential_seconds >= 0.0);
            prop_assert!(est.parallel_seconds.is_finite() && est.parallel_seconds >= 0.0);
            prop_assert!(est.speedup.is_finite());
            prop_assert!(est.speedup <= 8.0 + 1e-9, "speedup {} exceeds processor count", est.speedup);
        }
    }
}
