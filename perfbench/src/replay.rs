//! Serial re-execution of substrate runs through each layer's public functions.
//!
//! Each run is recorded as one `run` span with a child span per layer call:
//! `app.build` ([`LiveApp::build`]), `reorder` ([`LiveApp::reorder`]), `gen`
//! ([`LiveApp::stream_sharded`] into a [`TraceBuilder`]), `memsim`
//! ([`OriginPreset::build_machine`] + `run_trace_with_layout`, or
//! [`page_sharing`]), and `dsm.history` / `dsm.tmk` / `dsm.hlrc`
//! ([`PageWriteHistory::build`], [`TreadMarksSim`], [`HlrcSim`]).  The model
//! counters it produces are the reference the output check compares against.

use dsm::{DsmConfig, HlrcSim, PageWriteHistory, TreadMarksSim};
use memsim::{page_sharing, OriginPreset};
use repro_bench::{LiveApp, Ordering};
use smtrace::TraceBuilder;

use crate::check::{DsmCounts, Reference};
use crate::spans::Tracer;
use crate::substrate::{Reduce, SubstrateRun, FMM_PHASES, UNIT_SWEEP_BYTES};

/// Work counted at the layer boundaries of a replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCounts {
    /// Objects moved by reordering calls.
    pub reorder_objects: u64,
    /// Accesses generated.
    pub gen_accesses: u64,
    /// Largest materialized trace, at 4 bytes per access.
    pub trace_bytes_peak: u64,
    /// Accesses replayed through the Origin model or the sharing report.
    pub memsim_accesses: u64,
    /// Origin-model L2 misses.
    pub l2_misses: u64,
    /// Origin-model TLB misses.
    pub tlb_misses: u64,
    /// Accesses reduced by DSM calls (every history build replays the trace once).
    pub dsm_accesses: u64,
    /// TreadMarks messages.
    pub tmk_messages: u64,
    /// HLRC messages.
    pub hlrc_messages: u64,
}

/// Replay `runs` serially, recording spans into `tracer` and counts into
/// `counts`; returns the model counters of every Origin and DSM run.
pub fn replay(runs: &[SubstrateRun], tracer: &mut Tracer, counts: &mut LayerCounts) -> Reference {
    let mut reference = Reference::default();
    for sr in runs {
        let run = sr.run;
        tracer.run(|t| {
            let mut live = t.span("app.build", || LiveApp::build(run.app, run.n, run.seed));
            if let Ordering::Reordered(method) = run.ordering {
                t.span("reorder", || live.reorder(method));
                counts.reorder_objects += live.num_objects() as u64;
            }
            let layout = live.layout();
            let trace = t.span("gen", || {
                let mut builder = TraceBuilder::new(layout.clone(), run.procs);
                live.stream_sharded(run.iters, &mut builder);
                builder.finish()
            });
            let accesses = trace.total_accesses() as u64;
            counts.gen_accesses += accesses;
            counts.trace_bytes_peak = counts.trace_bytes_peak.max(4 * accesses);
            let app = run.app.name().to_string();
            let ordering = run.ordering.name();
            match sr.reduce {
                Reduce::Origin => {
                    let result = t.span("memsim", || {
                        let mut machine = OriginPreset::origin2000(run.procs).build_machine();
                        machine.run_trace_with_layout(&trace, &layout)
                    });
                    counts.memsim_accesses += accesses;
                    counts.l2_misses += result.l2_misses();
                    counts.tlb_misses += result.tlb_misses();
                    reference.origin.insert(
                        (app, ordering, run.procs),
                        (result.l2_misses(), result.tlb_misses()),
                    );
                }
                Reduce::Dsm => {
                    // The specs call `run_with_layout` once per protocol, and each
                    // call rebuilds the page history; the standalone build times
                    // one such reduction on its own.
                    let config = DsmConfig::cluster(run.procs);
                    t.span("dsm.history", || {
                        PageWriteHistory::build(&trace, &layout, config.page_bytes)
                    });
                    let tmk = t.span("dsm.tmk", || {
                        TreadMarksSim::new(config).run_with_layout(&trace, &layout)
                    });
                    let hlrc = t
                        .span("dsm.hlrc", || HlrcSim::new(config).run_with_layout(&trace, &layout));
                    counts.dsm_accesses += 3 * accesses;
                    counts.tmk_messages += tmk.stats.messages;
                    counts.hlrc_messages += hlrc.stats.messages;
                    let dsm = DsmCounts {
                        tmk_messages: tmk.stats.messages,
                        tmk_mb: tmk.stats.data_mbytes(),
                        hlrc_messages: hlrc.stats.messages,
                        hlrc_mb: hlrc.stats.data_mbytes(),
                    };
                    reference.dsm.insert((app, ordering), dsm);
                }
                Reduce::Sharing(page_bytes) => {
                    t.span("memsim", || page_sharing(&trace, &layout, page_bytes));
                    counts.memsim_accesses += accesses;
                }
                Reduce::FmmPhases => {
                    let config = DsmConfig::cluster(run.procs);
                    let tmk = TreadMarksSim::new(config);
                    for idx in 0..FMM_PHASES.min(trace.intervals.len()) {
                        let history = t.span("dsm.history", || {
                            let mut prefix = trace.clone();
                            prefix.intervals = trace.intervals[..=idx].to_vec();
                            PageWriteHistory::build(&prefix, &trace.layout, config.page_bytes)
                        });
                        let result = t.span("dsm.tmk", || tmk.run_history(&history));
                        counts.dsm_accesses += trace.intervals[..=idx]
                            .iter()
                            .map(|i| i.total_accesses() as u64)
                            .sum::<u64>();
                        counts.tmk_messages += result.stats.messages;
                    }
                }
                Reduce::UnitSweep => {
                    for unit in UNIT_SWEEP_BYTES {
                        let sim = TreadMarksSim::new(DsmConfig::new(unit, run.procs));
                        let result = t.span("dsm.tmk", || sim.run_with_layout(&trace, &layout));
                        counts.dsm_accesses += accesses;
                        counts.tmk_messages += result.stats.messages;
                    }
                }
            }
        });
    }
    reference
}
