//! The substrate runs behind each paper spec.
//!
//! A *substrate run* is one build → reorder → trace-generation pass over
//! (application, ordering, objects, iterations, processors, seed), followed by
//! the reduction the spec applies to the trace.  The enumeration here mirrors
//! the cell structure of `repro_bench::experiments`, so the benchmark can count
//! how many runs a workload performs, how many of them are unique, and replay
//! them serially through each layer's public functions.

use std::collections::BTreeSet;

use reorder::Method;
use repro_bench::{AppKind, Ordering, Scale};

/// The paper's default virtual-processor count, which every spec here uses.
pub const PROCS: usize = 16;

/// Consistency-unit ladder of `ablation_unit_sweep`.
pub const UNIT_SWEEP_BYTES: [usize; 6] = [128, 512, 1024, 4096, 8192, 16384];

/// Traced intervals of one FMM iteration that `table4` attributes to phases.
pub const FMM_PHASES: usize = 4;

/// Page size of the `fig02_05` sharing report.
const SHARING_PAGE_BYTES: usize = 8 * 1024;

/// Inputs of one build → reorder → trace-generation pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// Application.
    pub app: AppKind,
    /// Data ordering applied before tracing.
    pub ordering: Ordering,
    /// Requested object count.
    pub n: usize,
    /// Traced iterations.
    pub iters: usize,
    /// Virtual processors.
    pub procs: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Run {
    /// Two runs with equal keys generate identical traces.
    pub fn key(&self) -> (&'static str, String, usize, usize, usize, u64) {
        (self.app.name(), self.ordering.name(), self.n, self.iters, self.procs, self.seed)
    }
}

/// What a spec does with the trace of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduce {
    /// Origin 2000 model replay (`table2`, `fig07`).
    Origin,
    /// TreadMarks and HLRC models, each through `run_with_layout` (`table3`, `fig08_09`).
    Dsm,
    /// Page-sharing report at the given page size (`fig02_05`).
    Sharing(usize),
    /// One TreadMarks history per interval prefix of the first iteration (`table4`).
    FmmPhases,
    /// TreadMarks over [`UNIT_SWEEP_BYTES`] (`ablation_unit_sweep`).
    UnitSweep,
}

/// One run of one spec, with the scheduler cell that performs it.
#[derive(Debug, Clone, Copy)]
pub struct SubstrateRun {
    /// Spec id.
    pub spec: &'static str,
    /// Cell index within the spec's keyed cells; `None` for runs a spec performs
    /// outside its cells (they happen on every execution, cached or not).
    pub cell: Option<usize>,
    /// The trace inputs.
    pub run: Run,
    /// The reduction.
    pub reduce: Reduce,
}

/// Orderings a spec reports per application (`experiments::orderings_for`).
fn orderings(app: AppKind, dsm_order: bool) -> Vec<Ordering> {
    let hilbert = Ordering::Reordered(Method::Hilbert);
    let column = Ordering::Reordered(Method::Column);
    match (app.is_category2(), dsm_order) {
        (false, _) => vec![Ordering::Original, hilbert],
        (true, false) => vec![Ordering::Original, hilbert, column],
        (true, true) => vec![Ordering::Original, column, hilbert],
    }
}

/// Every substrate run of `spec` at `scale` with `seed`, in cell order.
///
/// # Panics
/// Panics for a spec this benchmark does not model.
pub fn substrate_runs(spec: &'static str, scale: Scale, seed: u64) -> Vec<SubstrateRun> {
    let sized = |app: AppKind, ordering, procs| Run {
        app,
        ordering,
        n: scale.size_of(app),
        iters: scale.iterations_of(app),
        procs,
        seed,
    };
    let paper = scale == Scale::Paper;
    let mut out = Vec::new();
    let mut push = |cell, run, reduce| out.push(SubstrateRun { spec, cell, run, reduce });
    let table_cells = |dsm_order| {
        AppKind::ALL
            .into_iter()
            .flat_map(move |app| orderings(app, dsm_order).into_iter().map(move |o| (app, o)))
            .enumerate()
    };
    match spec {
        "table2" => {
            for (cell, (app, ordering)) in table_cells(false) {
                for procs in [1, PROCS] {
                    push(Some(cell), sized(app, ordering, procs), Reduce::Origin);
                }
            }
        }
        "fig07" => {
            for (cell, app) in AppKind::ALL.into_iter().enumerate() {
                push(Some(cell), sized(app, Ordering::Original, 1), Reduce::Origin);
                for ordering in orderings(app, false) {
                    push(Some(cell), sized(app, ordering, PROCS), Reduce::Origin);
                }
            }
        }
        "fig02_05" => {
            let bodies = if paper { 32_768 } else { 8_192 };
            let cells = [2, 4, 8, 16]
                .into_iter()
                .flat_map(|p| [(p, Ordering::Original), (p, Ordering::Reordered(Method::Hilbert))]);
            for (cell, (procs, ordering)) in cells.enumerate() {
                let run =
                    Run { app: AppKind::BarnesHut, ordering, n: bodies, iters: 1, procs, seed };
                push(Some(cell), run, Reduce::Sharing(SHARING_PAGE_BYTES));
            }
        }
        "table3" => {
            for (cell, (app, ordering)) in table_cells(true) {
                push(Some(cell), sized(app, ordering, PROCS), Reduce::Dsm);
            }
        }
        "fig08_09" => {
            for (cell, app) in AppKind::ALL.into_iter().enumerate() {
                for ordering in [Ordering::Original, Ordering::Reordered(app.dsm_reordering())] {
                    push(Some(cell), sized(app, ordering, PROCS), Reduce::Dsm);
                }
            }
        }
        "table4" => {
            let n = if paper { 16_384 } else { 4_096 };
            for ordering in [Ordering::Original, Ordering::Reordered(Method::Hilbert)] {
                let run = Run { app: AppKind::Fmm, ordering, n, iters: 1, procs: PROCS, seed };
                push(None, run, Reduce::FmmPhases);
            }
        }
        "ablation_unit_sweep" => {
            let n = if paper { 32_000 } else { 6_000 };
            for method in [Method::Hilbert, Method::Column] {
                let ordering = Ordering::Reordered(method);
                let run = Run { app: AppKind::Moldyn, ordering, n, iters: 2, procs: PROCS, seed };
                push(None, run, Reduce::UnitSweep);
            }
        }
        other => panic!("no substrate model for spec {other:?}"),
    }
    out
}

/// Number of distinct traces among `runs`.
pub fn unique_runs<'a>(runs: impl IntoIterator<Item = &'a Run>) -> usize {
    runs.into_iter().map(Run::key).collect::<BTreeSet<_>>().len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(spec: &'static str) -> usize {
        substrate_runs(spec, Scale::Small, 1).len()
    }

    #[test]
    fn run_counts_match_the_specs() {
        assert_eq!(count("table2"), 24);
        assert_eq!(count("fig07"), 17);
        assert_eq!(count("fig02_05"), 8);
        assert_eq!(count("table3"), 12);
        assert_eq!(count("fig08_09"), 10);
        assert_eq!(count("table4"), 2);
        assert_eq!(count("ablation_unit_sweep"), 2);
    }

    #[test]
    fn fig07_and_fig08_09_repeat_their_tables_under_a_shared_seed() {
        let runs = |specs: &[&'static str]| -> Vec<Run> {
            specs.iter().flat_map(|s| substrate_runs(s, Scale::Small, 5)).map(|r| r.run).collect()
        };
        assert_eq!(unique_runs(&runs(&["table2", "fig07"])), 24);
        assert_eq!(unique_runs(&runs(&["table3", "fig08_09"])), 12);
    }
}
