//! # `repro-bench` — experiment harness for every table and figure of the paper
//!
//! Each table and figure of the evaluation section is a declarative spec in
//! [`experiments`] (described by [`runner`], executed by [`scheduler`]),
//! reachable through the unified `xp` binary (`xp table 2`, `xp fig 5 --format
//! json`; see DESIGN.md §5 for the index).  The shared application plumbing lives at the crate root:
//!
//! * [`AppKind`] / [`Ordering`] — the five benchmark applications and the data
//!   orderings compared (original random order, Hilbert, Morton, column, row);
//! * [`LiveApp`] — build an application at a given size, apply an ordering (reporting
//!   the cost of the reordering call itself, the "Cost of Reorder" columns of Tables 2
//!   and 3), and stream its accesses over a given number of virtual processors into
//!   any trace sink; every paper spec reduces its runs this way, with no trace
//!   materialized;
//! * [`Scale`] — problem sizes: `Paper` uses the sizes from Table 1 of the paper,
//!   `Small` (the default) uses reduced sizes so every experiment finishes in
//!   seconds, and `Tiny` is the scale of the CI goldens and smoke runs.
//!   [`Scale::parse`] reads the one spelling of each (`tiny|small|paper`) that
//!   `xp --scale` and `xp serve` accept.

#![forbid(unsafe_code)]

pub mod cache;
pub mod durable;
pub mod experiments;
pub mod runner;
pub mod scheduler;
pub mod serve;

use std::time::Instant;

use molecular::{Moldyn, MoldynParams, WaterSpatial, WaterSpatialParams};
use nbody::{BarnesHut, BarnesHutParams, Fmm, FmmParams};
use reorder::Method;
use smtrace::{ObjectLayout, TraceSink};
use unstructured::{Unstructured, UnstructuredParams};

/// The five applications of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    /// SPLASH-2 Barnes-Hut (Category 1).
    BarnesHut,
    /// SPLASH-2 adaptive FMM (Category 1).
    Fmm,
    /// SPLASH-2 Water-Spatial (Category 1).
    WaterSpatial,
    /// Chaos Moldyn (Category 2).
    Moldyn,
    /// Chaos Unstructured (Category 2).
    Unstructured,
}

impl AppKind {
    /// All applications, in the order of the paper's figures.
    pub const ALL: [AppKind; 5] = [
        AppKind::BarnesHut,
        AppKind::Fmm,
        AppKind::WaterSpatial,
        AppKind::Moldyn,
        AppKind::Unstructured,
    ];

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            AppKind::BarnesHut => "Barnes-Hut",
            AppKind::Fmm => "FMM",
            AppKind::WaterSpatial => "Water-Spatial",
            AppKind::Moldyn => "Moldyn",
            AppKind::Unstructured => "Unstructured",
        }
    }

    /// Whether the application is Category 2 (block partitioned with interaction
    /// lists), for which the paper also evaluates column ordering.
    pub fn is_category2(self) -> bool {
        matches!(self, AppKind::Moldyn | AppKind::Unstructured)
    }

    /// The reordering the paper recommends (and uses in Figures 8/9) for this
    /// application on page-based software DSM.
    pub fn dsm_reordering(self) -> Method {
        if self.is_category2() {
            Method::Column
        } else {
            Method::Hilbert
        }
    }
}

/// The data ordering of the object array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ordering {
    /// The benchmark's original (random) initialization order.
    Original,
    /// Reordered with the given method before the parallel phase.
    Reordered(Method),
}

impl Ordering {
    /// Display name.
    pub fn name(self) -> String {
        match self {
            Ordering::Original => "original".to_string(),
            Ordering::Reordered(m) => m.name().to_string(),
        }
    }
}

/// Problem sizes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test sizes: every experiment finishes in about a second.  The
    /// `tests/golden/` artifacts that CI diffs are recorded at this scale.
    Tiny,
    /// Reduced sizes so every experiment runs in seconds (default).
    #[default]
    Small,
    /// The paper's Table 1 sizes (65 536 bodies, 32 768 molecules, …).
    Paper,
}

impl Scale {
    /// Parse a scale name: `tiny`, `small` or `paper`.
    pub fn parse(name: &str) -> Option<Scale> {
        match name {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Object count for an application at this scale.
    pub fn size_of(self, app: AppKind) -> usize {
        match (self, app) {
            (Scale::Tiny, AppKind::BarnesHut) => 2_048,
            (Scale::Tiny, AppKind::Fmm) => 1_024,
            (Scale::Tiny, AppKind::WaterSpatial) => 1_024,
            (Scale::Tiny, AppKind::Moldyn) => 1_500,
            (Scale::Tiny, AppKind::Unstructured) => 512,
            (Scale::Paper, AppKind::BarnesHut) => 65_536,
            (Scale::Paper, AppKind::Fmm) => 65_536,
            (Scale::Paper, AppKind::WaterSpatial) => 32_768,
            (Scale::Paper, AppKind::Moldyn) => 32_000,
            (Scale::Paper, AppKind::Unstructured) => 10_648, // 22^3, the mesh.10k stand-in
            (Scale::Small, AppKind::BarnesHut) => 16_384,
            (Scale::Small, AppKind::Fmm) => 4_096,
            (Scale::Small, AppKind::WaterSpatial) => 4_096,
            (Scale::Small, AppKind::Moldyn) => 6_000,
            (Scale::Small, AppKind::Unstructured) => 4_096,
        }
    }

    /// Number of traced iterations per application at this scale (the paper runs more
    /// iterations; the per-iteration behaviour is what all the counters are built from).
    pub fn iterations_of(self, app: AppKind) -> usize {
        match (self, app) {
            (_, AppKind::BarnesHut) => 2,
            (_, AppKind::Fmm) => 2,
            (_, AppKind::WaterSpatial) => 2,
            (_, AppKind::Moldyn) => 3,
            (_, AppKind::Unstructured) => 3,
        }
    }
}

/// A live application instance with the standard workload generator and default
/// parameters for its [`AppKind`] — the single source of truth for "build app X at
/// size n".  The paper specs stream from it directly.
#[derive(Clone)]
pub enum LiveApp {
    /// SPLASH-2 Barnes-Hut.
    BarnesHut(BarnesHut),
    /// SPLASH-2 adaptive FMM.
    Fmm(Fmm),
    /// SPLASH-2 Water-Spatial.
    WaterSpatial(WaterSpatial),
    /// Chaos Moldyn.
    Moldyn(Moldyn),
    /// Chaos Unstructured.
    Unstructured(Unstructured),
}

impl LiveApp {
    /// Build the application at `n` objects from its standard workload.
    pub fn build(app: AppKind, n: usize, seed: u64) -> LiveApp {
        match app {
            AppKind::BarnesHut => {
                LiveApp::BarnesHut(BarnesHut::two_plummer(n, seed, BarnesHutParams::default()))
            }
            AppKind::Fmm => LiveApp::Fmm(Fmm::two_plummer(n, seed, FmmParams::default())),
            AppKind::WaterSpatial => {
                LiveApp::WaterSpatial(WaterSpatial::lattice(n, seed, WaterSpatialParams::default()))
            }
            AppKind::Moldyn => LiveApp::Moldyn(Moldyn::lattice(n, seed, MoldynParams::default())),
            AppKind::Unstructured => LiveApp::Unstructured(Unstructured::generated(
                n,
                seed,
                UnstructuredParams::default(),
            )),
        }
    }

    /// Build the application at `n` objects and apply `ordering`; also returns the
    /// wall-clock seconds the reordering routine took (0 for the original order).
    pub fn ordered(app: AppKind, ordering: Ordering, n: usize, seed: u64) -> (LiveApp, f64) {
        let mut live = LiveApp::build(app, n, seed);
        let reorder_seconds = apply_ordering(ordering, |m| live.reorder(m));
        (live, reorder_seconds)
    }

    /// The object-array layout (paper object sizes).
    pub fn layout(&self) -> ObjectLayout {
        match self {
            LiveApp::BarnesHut(a) => a.layout(),
            LiveApp::Fmm(a) => a.layout(),
            LiveApp::WaterSpatial(a) => a.layout(),
            LiveApp::Moldyn(a) => a.layout(),
            LiveApp::Unstructured(a) => a.layout(),
        }
    }

    /// Number of objects actually built (the mesh generator only approximates its
    /// target node count).
    pub fn num_objects(&self) -> usize {
        self.layout().num_objects
    }

    /// Apply a data reordering (the library call under study).
    pub fn reorder(&mut self, method: Method) {
        match self {
            LiveApp::BarnesHut(a) => {
                a.reorder(method);
            }
            LiveApp::Fmm(a) => {
                a.reorder(method);
            }
            LiveApp::WaterSpatial(a) => {
                a.reorder(method);
            }
            LiveApp::Moldyn(a) => {
                a.reorder(method);
            }
            LiveApp::Unstructured(a) => {
                a.reorder(method);
            }
        }
    }

    /// Trace `iterations` iterations into `sink` through the apps' `stream_*` entry
    /// points (rayon tasks into per-processor shards, deterministic drain).
    pub fn stream_sharded<S: TraceSink>(&mut self, iterations: usize, sink: &mut S) {
        match self {
            LiveApp::BarnesHut(a) => a.stream_iterations(iterations, sink),
            LiveApp::Fmm(a) => a.stream_iterations(iterations, sink),
            LiveApp::WaterSpatial(a) => a.stream_steps(iterations, sink),
            LiveApp::Moldyn(a) => a.stream_steps(iterations, sink),
            LiveApp::Unstructured(a) => a.stream_sweeps(iterations, sink),
        }
    }
}

fn apply_ordering(ordering: Ordering, mut reorder: impl FnMut(Method)) -> f64 {
    match ordering {
        Ordering::Original => 0.0,
        Ordering::Reordered(m) => {
            let t0 = Instant::now();
            reorder(m);
            t0.elapsed().as_secs_f64()
        }
    }
}

/// Format a floating-point value with engineering-friendly width for the text tables.
pub fn fmt_f(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smtrace::{ProgramTrace, TraceBuilder};

    #[test]
    fn scale_sizes_match_table1_at_paper_scale() {
        assert_eq!(Scale::Paper.size_of(AppKind::BarnesHut), 65_536);
        assert_eq!(Scale::Paper.size_of(AppKind::Fmm), 65_536);
        assert_eq!(Scale::Paper.size_of(AppKind::WaterSpatial), 32_768);
        assert_eq!(Scale::Paper.size_of(AppKind::Moldyn), 32_000);
        assert!(Scale::Paper.size_of(AppKind::Unstructured) >= 10_000);
        for app in AppKind::ALL {
            assert!(Scale::Tiny.size_of(app) < Scale::Small.size_of(app));
            assert!(Scale::Small.size_of(app) < Scale::Paper.size_of(app));
        }
    }

    #[test]
    fn scale_names_parse_and_small_is_the_default() {
        assert_eq!(Scale::parse("tiny"), Some(Scale::Tiny));
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("full"), None);
        assert_eq!(Scale::default(), Scale::Small);
    }

    #[test]
    fn category2_gets_column_for_dsm_and_category1_gets_hilbert() {
        assert_eq!(AppKind::Moldyn.dsm_reordering(), Method::Column);
        assert_eq!(AppKind::Unstructured.dsm_reordering(), Method::Column);
        assert_eq!(AppKind::BarnesHut.dsm_reordering(), Method::Hilbert);
        assert_eq!(AppKind::WaterSpatial.dsm_reordering(), Method::Hilbert);
        assert!(!AppKind::Fmm.is_category2());
    }

    /// A run traced into a materialized trace: the application built at `n` objects,
    /// reordered, and streamed over `procs` virtual processors into a [`TraceBuilder`].
    /// Returns the trace and the wall-clock seconds the reordering took.
    pub(crate) fn traced(
        app: AppKind,
        ordering: Ordering,
        n: usize,
        iters: usize,
        procs: usize,
        seed: u64,
    ) -> (ProgramTrace, f64) {
        let (mut live, reorder_seconds) = LiveApp::ordered(app, ordering, n, seed);
        let mut builder = TraceBuilder::new(live.layout(), procs);
        live.stream_sharded(iters, &mut builder);
        (builder.finish(), reorder_seconds)
    }

    #[test]
    fn a_traced_run_is_consistent_for_each_app() {
        for app in AppKind::ALL {
            let (trace, _) = traced(app, Ordering::Original, 512, 1, 4, 1);
            assert_eq!(trace.num_procs, 4);
            assert!(trace.total_accesses() > 0, "{app:?} recorded no accesses");
            let live = LiveApp::build(app, 512, 1);
            assert_eq!(trace.layout.num_objects, live.num_objects());
        }
    }

    #[test]
    fn reordered_runs_report_a_nonzero_reorder_cost() {
        let ordering = Ordering::Reordered(Method::Column);
        let (_, reorder_seconds) = traced(AppKind::Moldyn, ordering, 1000, 1, 4, 2);
        assert!(reorder_seconds > 0.0);
    }

    #[test]
    fn ordering_names_are_stable() {
        assert_eq!(Ordering::Original.name(), "original");
        assert_eq!(Ordering::Reordered(Method::Hilbert).name(), "hilbert");
    }

    #[test]
    fn fmt_f_scales_precision_with_magnitude() {
        assert_eq!(fmt_f(0.0), "0");
        assert_eq!(fmt_f(123.4), "123");
        assert_eq!(fmt_f(1.5), "1.50");
        assert_eq!(fmt_f(0.1234), "0.1234");
    }
}
