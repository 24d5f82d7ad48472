//! Paper-sweep benchmark for the reproduction's `xp` pipeline.
//!
//! Three workloads drive the public entry points of `repro_bench`
//! (`Scheduler::execute`, `CellCache`, `serve`) end to end; a separate traced
//! run re-executes each workload's substrate runs serially through each
//! layer's public functions to split the time by layer.  See `README.md` in
//! this directory for the workloads, the metrics and how to run it.

#![forbid(unsafe_code)]

pub mod check;
pub mod drive;
pub mod host;
pub mod replay;
pub mod spans;
pub mod substrate;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The hardware-model half of the paper as one sweep session.
    Origin,
    /// The software-DSM half of the paper as one sweep session.
    Dsm,
    /// Two closed-loop clients resubmitting the same specs to one serve session.
    Resubmit,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Origin, Workload::Dsm, Workload::Resubmit];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Origin => "origin",
            Workload::Dsm => "dsm",
            Workload::Resubmit => "resubmit",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The spec ids the workload submits, in order.
    pub fn specs(self) -> &'static [&'static str] {
        match self {
            Workload::Origin => &["table2", "fig07", "fig02_05"],
            Workload::Dsm => &["table3", "fig08_09", "table4", "ablation_unit_sweep"],
            Workload::Resubmit => &["table2", "table3"],
        }
    }
}

/// Median of `values` (0 for none).
pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}
