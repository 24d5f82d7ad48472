//! Declarative specs for every table, figure, and ablation of the paper.
//!
//! Each spec is an [`ExperimentSpec`]: metadata plus a `run` function that builds the
//! independent, content-addressed cells of its method × workload × substrate matrix
//! and fans them out via [`run_keyed_cells`].  The `xp` binary executes these specs;
//! DESIGN.md §5 holds the table/figure → id index.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use dsm::{DsmConfig, HlrcSim, NetworkCostModel, PageHistorySink, PageWriteHistory, TreadMarksSim};
use memsim::{
    page_sharing, page_update_map, processor_unit_sets, CostModel, OriginPreset, PageSharingReport,
    SimSink, SimulationResult,
};
use molecular::{Moldyn, MoldynParams};
use nbody::{BarnesHut, BarnesHutParams, Fmm, FmmParams};
use reorder::permute::Permutation;
use reorder::{compute_reordering_from_points, pack_keys, Method, Quantizer};
use smtrace::ObjectLayout;
use workloads::{cubic_lattice, two_plummer, UnstructuredMesh};

use crate::cache::{CellKey, KeyBuilder};
use crate::row;
use crate::runner::{ExperimentSpec, Row, RunConfig, Value};
use crate::scheduler::run_keyed_cells;
use crate::{build_run, build_run_sized, AppKind, LiveApp, Ordering, Scale};

/// Canonical name of a scale for cell keys (lowercase, stable).
fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Paper => "paper",
    }
}

/// All experiments, in the order of the paper's evaluation section.
pub static EXPERIMENTS: &[ExperimentSpec] = &[
    ExperimentSpec {
        id: "table1",
        aliases: &["t1", "table1_apps"],
        title: "Table 1: applications, inputs, synchronization (b=barrier, l=lock), object sizes",
        columns: &["app", "paper_input", "run_objects", "run_iterations", "sync", "object_bytes", "category"],
        notes: &["Paper sizes are selected with --scale paper; the run_* columns show this run."],
        run: run_table1,
    },
    ExperimentSpec {
        id: "table2",
        aliases: &["t2", "table2_origin"],
        title: "Table 2: Origin 2000 model — time (s), reorder cost (s), L2 and TLB misses on 1 and N processors",
        columns: &[
            "app", "version", "reorder_s", "seq_time_s", "seq_l2_misses", "seq_tlb_misses",
            "par_time_s", "par_l2_misses", "par_tlb_misses",
        ],
        notes: &[
            "Expected shapes (paper): reordering cuts TLB misses by ~an order of magnitude for",
            "Barnes-Hut and FMM on 1 processor; 16-processor L2 misses drop ~2x for the improved",
            "apps; Water-Spatial is essentially unchanged because its 680-byte object exceeds the",
            "128-byte L2 line; for Moldyn/Unstructured, Hilbert beats column at cache-line grain.",
            "reorder_s is wall-clock and measured while sibling cells run in parallel; on a busy",
            "host it can read high (miss counts and model times are contention-free).",
        ],
        run: run_table2,
    },
    ExperimentSpec {
        id: "table3",
        aliases: &["t3", "table3_dsm"],
        title: "Table 3: software DSM model — times (s), data (MB) and messages on N processors",
        columns: &[
            "app", "version", "seq_time_s", "reorder_s", "tmk_time_s", "tmk_data_mb",
            "tmk_messages", "hlrc_time_s", "hlrc_data_mb", "hlrc_messages",
        ],
        notes: &[
            "Expected shapes (paper): reordering reduces TreadMarks data ~2-3.7x and messages",
            "up to ~12x; HLRC data ~1.2-5x and messages ~1.4-3.5x; for Moldyn and Unstructured,",
            "column ordering sends less data and fewer messages than Hilbert on the page-based",
            "protocols; TreadMarks sends more messages than HLRC for the same sharing.",
            "reorder_s is wall-clock and measured while sibling cells run in parallel; on a busy",
            "host it can read high (message counts and model times are contention-free).",
        ],
        run: run_table3,
    },
    ExperimentSpec {
        id: "table4",
        aliases: &["t4", "table4_fmm_breakdown"],
        title: "Table 4: FMM phase breakdown on the TreadMarks model (estimated seconds)",
        columns: &["phase", "original_s", "reordered_s"],
        notes: &[
            "Expected shape (paper): the phases that touch the particle array (tree build,",
            "tree traversal, inter- and intra-particle interactions) shrink dramatically after",
            "Hilbert reordering; the reordered total is several times smaller than the original.",
        ],
        run: run_table4,
    },
    ExperimentSpec {
        id: "fig01_04",
        aliases: &["fig1", "fig4", "fig01", "fig04", "fig01_04_particle_pages"],
        title: "Figures 1 & 4: pages updated per processor, 168 particles, 4 KB pages",
        columns: &["figure", "processor", "pages_updated", "num_pages"],
        notes: &[
            "Expected shape: the original order touches every page from every processor;",
            "after Hilbert reordering each processor's writes collapse onto 1-2 pages",
            "(X = writes on that page, . = untouched).",
        ],
        run: run_fig01_04,
    },
    ExperimentSpec {
        id: "fig02_05",
        aliases: &["fig2", "fig5", "fig02", "fig05", "fig02_05_page_sharing"],
        title: "Figures 2 & 5: processors sharing each page of the Barnes-Hut particle array (8 KB pages)",
        columns: &[
            "procs", "ordering", "pages", "mean_sharers", "mean_writers", "max_sharers",
            "falsely_shared_pages",
        ],
        notes: &[
            "Expected shape (paper, 32K bodies): original order ≈ 9.5 mean sharers at P=16,",
            "Hilbert-reordered ≈ 3; at smaller problem/processor scales the gap narrows but the",
            "ordering of the two curves is preserved.",
        ],
        run: run_fig02_05,
    },
    ExperimentSpec {
        id: "fig03",
        aliases: &["fig3", "fig03_orderings"],
        title: "Figure 3: visiting rank of every cell of an 8x8 grid under the four orderings",
        columns: &["method", "row_y", "ranks"],
        notes: &[
            "Reading the ranks in order traces the curve of the paper's figure: Hilbert visits",
            "only edge-adjacent cells; Morton makes occasional jumps; column-major sweeps",
            "x-slabs; row-major sweeps y-slabs.  row_y is printed top-down.",
        ],
        run: run_fig03,
    },
    ExperimentSpec {
        id: "fig06",
        aliases: &["fig6", "fig06_boundary"],
        title: "Figure 6: remote consistency units touched by a processor's interaction list (Moldyn)",
        columns: &["ordering", "unit", "mean_remote_units_per_proc", "mean_remote_owners_per_proc"],
        notes: &[
            "Expected shape: with 4 KB pages, column ordering touches fewer remote pages and",
            "fewer distinct owners than Hilbert; with 128-byte lines the ranking flips because",
            "the slab's larger surface spreads the boundary over more lines.",
        ],
        run: run_fig06,
    },
    ExperimentSpec {
        id: "fig07",
        aliases: &["fig7", "fig07_origin_speedups"],
        title: "Figure 7: Origin 2000 model speedups on N processors",
        columns: &["app", "original", "hilbert", "column"],
        notes: &[
            "Expected shape (paper): every application except Water-Spatial speeds up with",
            "reordering (12%-99% better than original); for Moldyn and Unstructured the Hilbert",
            "ordering beats column ordering on the cache-line-grained hardware model.",
        ],
        run: run_fig07,
    },
    ExperimentSpec {
        id: "fig08_09",
        aliases: &["fig8", "fig9", "fig08", "fig09", "fig08_09_dsm_speedups"],
        title: "Figures 8 & 9: software DSM model speedups (reordered = paper's recommended method)",
        columns: &[
            "app", "tmk_original", "hlrc_original", "tmk_reordered", "hlrc_reordered",
            "tmk_gain_pct", "hlrc_gain_pct",
        ],
        notes: &[
            "Expected shape (paper): every application improves; TreadMarks improves more than",
            "HLRC (30-366% vs 14-269%); Moldyn benefits the least and FMM the most.",
        ],
        run: run_fig08_09,
    },
    ExperimentSpec {
        id: "ablation_reorder_frequency",
        aliases: &["reorder-frequency", "reorder_frequency"],
        title: "Ablation: reordering frequency over 8 Barnes-Hut steps",
        columns: &["reorder_every", "mean_writers_final_iter", "mean_sharers", "total_reorder_s"],
        notes: &[
            "Expected shape: a single initial reordering retains most of its benefit over this",
            "horizon (bodies drift slowly relative to the page granularity), so the paper's",
            "reorder-once-at-initialization recipe is sound; re-reordering every step buys little",
            "extra locality for proportionally more reordering time.",
        ],
        run: run_ablation_reorder_frequency,
    },
    ExperimentSpec {
        id: "bench_reorder_cost",
        aliases: &["reorder-cost", "reorder_cost", "bench-reorder-cost"],
        title: "Reorder-cost bench: key + rank + permute throughput of the reordering pipeline (Hilbert keys)",
        columns: &[
            "workload", "n", "pipeline", "threads", "key_ms", "rank_ms", "permute_ms",
            "sort_mobj_s", "permute_mobj_s",
        ],
        notes: &[
            "Pipelines: the one pipeline compute_reordering runs (packed u64 keys, LSD radix",
            "rank, cycle-following in-place permutation), once on one thread (`radix_serial`)",
            "and once on every worker thread (`radix_parallel`).  Both are asserted to produce",
            "the identical permutation.  Expected shape: the parallel rows add near-linear",
            "speedup on multi-core hosts.  Cells run sequentially for honest wall-clock.",
        ],
        run: run_bench_reorder_cost,
    },
    ExperimentSpec {
        id: "bench_sim_throughput",
        aliases: &["sim-throughput", "sim_throughput", "bench-sim-throughput"],
        title: "Sim-throughput bench: trace replay paths through the Origin 2000 model",
        columns: &[
            "app", "n", "procs", "path", "accesses", "replay_ms", "maccess_s", "l2_misses",
            "tlb_misses", "coherence_misses", "speedup_vs_materialized",
        ],
        notes: &[
            "Paths: `materialized` replays a recorded ProgramTrace through the directory",
            "machine (sharer bitmasks, generation-timestamp LRU, batched intervals);",
            "`streaming` feeds the same accesses through a SimSink interval-by-interval, the",
            "path applications use to simulate without materializing a trace.  Both paths",
            "are asserted to produce identical per-processor cache/TLB/coherence counters;",
            "expected shape: streaming within noise of materialized.  FMM is sized",
            "like Barnes-Hut (not Scale::size_of, which reflects FMM's compute cost) so its",
            "object array exceeds the simulated TLB reach, the regime every paper-scale",
            "workload replays in.  Cells run sequentially for honest wall-clock.",
        ],
        run: run_bench_sim_throughput,
    },
    ExperimentSpec {
        id: "bench_dsm_throughput",
        aliases: &["dsm-throughput", "dsm_throughput", "bench-dsm-throughput"],
        title: "DSM-throughput bench: trace-to-stats paths through the TreadMarks/HLRC models",
        columns: &[
            "app", "workload", "n", "procs", "path", "accesses", "replay_ms", "maccess_s",
            "tmk_messages", "tmk_mb", "hlrc_messages", "hlrc_mb", "speedup_vs_materialized",
        ],
        notes: &[
            "Paths: `materialized` reduces a recorded ProgramTrace once with",
            "PageWriteHistory::build and feeds both parallel simulators; `streaming` replays the",
            "trace through a PageHistorySink — the marking reduction DSM cells run while they",
            "generate, which `build` also replays into — and feeds the same simulators.  Both",
            "paths' DsmRunResults (aggregate and per-processor, both protocols) are asserted",
            "bit-identical; expected shape: streaming within noise of materialized.  Cells",
            "run sequentially for honest wall-clock.",
        ],
        run: run_bench_dsm_throughput,
    },
    ExperimentSpec {
        id: "bench_trace_throughput",
        aliases: &["trace-throughput", "trace_throughput", "bench-trace-throughput"],
        title: "Trace-throughput bench: live generation vs on-disk corpus replay into the Origin 2000 model",
        columns: &[
            "app", "n", "procs", "path", "accesses", "ms", "maccess_s", "corpus_bytes",
            "bytes_per_access", "l2_misses", "tlb_misses", "coherence_misses",
            "speedup_vs_live",
        ],
        notes: &[
            "Paths: `live` runs the full application (physics + tree builds + sweeps) into",
            "a streaming SimSink — what every experiment paid per run before the corpus",
            "existed; `replay` decodes a previously recorded corpus (delta/varint blocks,",
            "checksum-validated) into the identical sink.  The corpus is recorded once per",
            "app outside the timed region; both paths' SimulationResults are asserted",
            "bit-identical, so replay is a faithful substitute, not an approximation.",
            "corpus_bytes/bytes_per_access row the compression headline (the packed",
            "in-memory Access is 4 bytes).  Expected shape: replay wins on every app —",
            "decode is a linear varint scan while generation pays the physics — with the",
            "margin largest on the evaluation-heavy apps (Barnes-Hut, FMM, Water-Spatial).",
            "Cells run sequentially for honest wall-clock.",
        ],
        run: run_bench_trace_throughput,
    },
    ExperimentSpec {
        id: "ablation_unit_sweep",
        aliases: &["unit-sweep", "unit_sweep"],
        title: "Ablation: consistency-unit-size sweep, Moldyn (TreadMarks-model messages/data)",
        columns: &[
            "unit_bytes", "hilbert_messages", "hilbert_mb", "column_messages", "column_mb",
            "fewer_messages",
        ],
        notes: &[
            "Expected shape: Hilbert produces less traffic at small units (cache-line scale),",
            "column at large units (page scale); the crossover sits between a few hundred bytes",
            "and a few kilobytes, consistent with the paper's platform-dependent recommendation.",
        ],
        run: run_ablation_unit_sweep,
    },
];

/// All experiment specs.
pub fn all() -> &'static [ExperimentSpec] {
    EXPERIMENTS
}

/// Look an experiment up by id or alias.
pub fn find(name: &str) -> Option<&'static ExperimentSpec> {
    EXPERIMENTS.iter().find(|spec| spec.matches(name))
}

fn orderings_for(app: AppKind, dsm_order: bool) -> Vec<Ordering> {
    if app.is_category2() {
        // Category-2 applications are reported under both families; the paper lists
        // column first for the DSM table and Hilbert first for the hardware table.
        if dsm_order {
            vec![
                Ordering::Original,
                Ordering::Reordered(Method::Column),
                Ordering::Reordered(Method::Hilbert),
            ]
        } else {
            vec![
                Ordering::Original,
                Ordering::Reordered(Method::Hilbert),
                Ordering::Reordered(Method::Column),
            ]
        }
    } else {
        vec![Ordering::Original, Ordering::Reordered(Method::Hilbert)]
    }
}

fn run_table1(cfg: &RunConfig) -> Vec<Row> {
    let scale = cfg.scale;
    let paper = [
        (AppKind::BarnesHut, "65536, 6 iter", "b", 104usize),
        (AppKind::Fmm, "65536, 3 iter", "b,l", 104),
        (AppKind::WaterSpatial, "32768, 10 iter", "b,l", 680),
        (AppKind::Moldyn, "32000, 40 iter", "b", 72),
        (AppKind::Unstructured, "mesh.10k, 40 iter", "b,l", 32),
    ];
    paper
        .iter()
        .map(|&(app, paper_input, sync, obj_bytes)| {
            row![
                app.name(),
                paper_input,
                scale.size_of(app),
                scale.iterations_of(app),
                sync,
                obj_bytes,
                if app.is_category2() { 2i64 } else { 1i64 }
            ]
        })
        .collect()
}

/// One substrate run: build `app` at the spec's scale and seed, apply `ordering`,
/// trace it on `procs` virtual processors, and reduce the trace through a
/// [`Substrate`] model.  Substrate cells, not spec rows, are the keyed cells of
/// `table2`/`fig07` and `table3`/`fig08_09`: a figure that needs a run its table
/// already computed under the same seed is answered from the cache.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SubstrateRun {
    app: AppKind,
    ordering: Ordering,
    procs: usize,
}

/// The model a [`SubstrateRun`]'s trace is reduced through.  The Origin 2000
/// preset, `CostModel`, `DsmConfig::cluster` and `NetworkCostModel` are fixed per
/// processor count, so the key domain stands for all of them.
#[derive(Debug, Clone, Copy)]
enum Substrate {
    /// Origin 2000 model.  A cell traces its run once on `procs` processors and
    /// reduces it twice: on the `procs`-processor machine and folded onto a
    /// 1-processor one (every application's 1-processor trace is, interval by
    /// interval, the processor-order concatenation of its P-processor streams), so
    /// it answers the run on `procs` and on 1.  Row: app, ordering, procs,
    /// reorder_s, time_s, l2_misses, tlb_misses.
    Origin,
    /// TreadMarks and HLRC models over one page history, reduced while the run is
    /// generated (no trace is materialized).  Row: app, ordering,
    /// procs, reorder_s, tmk_seq_s, tmk_time_s, tmk_data_mb, tmk_messages,
    /// hlrc_seq_s, hlrc_time_s, hlrc_data_mb, hlrc_messages.
    Dsm,
}

impl Substrate {
    fn domain(self) -> &'static str {
        match self {
            Substrate::Origin => "origin_seq_par",
            Substrate::Dsm => "dsm_run",
        }
    }

    /// The cell that answers `run` among the runs a spec `needs`: an Origin run on
    /// one processor comes from the cell of a parallel run of the same version.
    fn cell_of(self, run: SubstrateRun, needs: &[SubstrateRun]) -> SubstrateRun {
        match self {
            Substrate::Origin if run.procs == 1 => needs
                .iter()
                .filter(|n| (n.app, n.ordering) == (run.app, run.ordering))
                .max_by_key(|n| n.procs)
                .copied()
                .unwrap_or(run),
            _ => run,
        }
    }

    /// Compute the cell of `run`: the measured reorder seconds, and the model columns
    /// (everything after `reorder_s`) of each run the cell answers, keyed by
    /// processor count.
    fn measure(
        self,
        run: SubstrateRun,
        scale: Scale,
        seed: u64,
    ) -> (f64, Vec<(usize, Vec<Value>)>) {
        let procs = run.procs;
        match self {
            Substrate::Origin => {
                let traced = build_run(run.app, run.ordering, scale, procs, seed);
                let columns = |result: SimulationResult| -> Vec<Value> {
                    let time = CostModel::default().machine_time(&result);
                    vec![time.into(), result.l2_misses().into(), result.tlb_misses().into()]
                };
                let parallel = || {
                    OriginPreset::origin2000(procs)
                        .build_machine()
                        .run_trace_with_layout(&traced.trace, &traced.layout)
                };
                if procs == 1 {
                    return (traced.reorder_seconds, vec![(1, columns(parallel()))]);
                }
                let folded = || {
                    OriginPreset::origin2000(1)
                        .build_machine()
                        .run_trace_folded(&traced.trace, &traced.layout)
                };
                let (seq, par) = rayon::join(folded, parallel);
                (traced.reorder_seconds, vec![(1, columns(seq)), (procs, columns(par))])
            }
            Substrate::Dsm => {
                let n = scale.size_of(run.app);
                let (mut live, reorder_seconds) = LiveApp::ordered(run.app, run.ordering, n, seed);
                let config = DsmConfig::cluster(procs);
                let mut sink = PageHistorySink::new(live.layout(), procs, config.page_bytes);
                live.stream_sharded(scale.iterations_of(run.app), &mut sink);
                let history = sink.finish();
                let cost = NetworkCostModel::default();
                let columns = [
                    TreadMarksSim::new(config).run_history(&history),
                    HlrcSim::new(config).run_history(&history),
                ]
                .iter()
                .flat_map(|result| {
                    let est = cost.estimate(result);
                    [
                        est.sequential_seconds.into(),
                        est.parallel_seconds.into(),
                        result.stats.data_mbytes().into(),
                        result.stats.messages.into(),
                    ]
                })
                .collect();
                (reorder_seconds, vec![(procs, columns)])
            }
        }
    }
}

/// Measured substrate rows, joined on (app, ordering, procs).  Each value is the
/// row's tail from `reorder_s` on.
struct SubstrateRows(BTreeMap<(String, String, usize), Vec<Value>>);

impl SubstrateRows {
    /// The measurements of `run`; `None` when its cell failed.
    fn get(&self, run: SubstrateRun) -> Option<&[Value]> {
        self.0.get(&(run.app.name().to_string(), run.ordering.name(), run.procs)).map(Vec::as_slice)
    }
}

/// Compute every distinct cell that answers `runs` through one [`run_keyed_cells`]
/// call, keyed on (scale, seed, procs, app, ordering) in the substrate's domain.  A
/// spec emits a row only when all of the runs it needs are present, so a failed
/// cell drops exactly the rows that depend on it.
fn run_substrate(
    substrate: Substrate,
    scale: Scale,
    seed: u64,
    runs: impl IntoIterator<Item = SubstrateRun>,
) -> SubstrateRows {
    let needs: Vec<SubstrateRun> = runs.into_iter().collect();
    let mut unique: Vec<SubstrateRun> = Vec::new();
    for &run in &needs {
        let cell = substrate.cell_of(run, &needs);
        if !unique.contains(&cell) {
            unique.push(cell);
        }
    }
    let cells: Vec<(CellKey, SubstrateRun)> = unique
        .into_iter()
        .map(|run| {
            let key = KeyBuilder::new(substrate.domain())
                .field_str("scale", scale_name(scale))
                .field_u64("seed", seed)
                .field_usize("procs", run.procs)
                .field_str("app", run.app.name())
                .field_str("ordering", &run.ordering.name())
                .finish();
            (key, run)
        })
        .collect();
    let rows = run_keyed_cells(cells, |run| {
        let (reorder_seconds, measured) = substrate.measure(run, scale, seed);
        measured
            .into_iter()
            .map(|(procs, columns)| {
                let mut cells = vec![
                    run.app.name().into(),
                    run.ordering.name().into(),
                    procs.into(),
                    reorder_seconds.into(),
                ];
                cells.extend(columns);
                Row { cells }
            })
            .collect()
    });
    SubstrateRows(
        rows.into_iter()
            .map(|row| match &row.cells[..] {
                [Value::Str(app), Value::Str(ordering), Value::Int(procs), tail @ ..] => {
                    ((app.clone(), ordering.clone(), *procs as usize), tail.to_vec())
                }
                cells => panic!("malformed substrate row {cells:?}"),
            })
            .collect(),
    )
}

/// A measurement cell as a float.
fn float(value: &Value) -> f64 {
    match value {
        Value::Float(v) => *v,
        Value::Int(v) => *v as f64,
        Value::Str(s) => panic!("expected a number, found {s:?}"),
    }
}

/// The (app, ordering) versions a table reports, in row order.
fn table_versions(dsm_order: bool) -> Vec<(AppKind, Ordering)> {
    AppKind::ALL
        .into_iter()
        .flat_map(|app| orderings_for(app, dsm_order).into_iter().map(move |o| (app, o)))
        .collect()
}

fn run_table2(cfg: &RunConfig) -> Vec<Row> {
    let par_procs = cfg.procs_or(16);
    let versions = table_versions(false);
    let run = |app, ordering, procs| SubstrateRun { app, ordering, procs };
    let runs = run_substrate(
        Substrate::Origin,
        cfg.scale,
        cfg.seed_or(123),
        versions.iter().flat_map(|&(app, o)| [run(app, o, 1), run(app, o, par_procs)]),
    );
    versions
        .into_iter()
        .filter_map(|(app, ordering)| {
            // One cell answers both runs, so they carry the same reorder_s.
            let seq = runs.get(run(app, ordering, 1))?;
            let par = runs.get(run(app, ordering, par_procs))?;
            let mut cells = vec![app.name().into(), ordering.name().into(), par[0].clone()];
            cells.extend(seq[1..].iter().chain(&par[1..]).cloned());
            Some(Row { cells })
        })
        .collect()
}

fn run_table3(cfg: &RunConfig) -> Vec<Row> {
    let procs = cfg.procs_or(16);
    let versions = table_versions(true);
    let run = |app, ordering| SubstrateRun { app, ordering, procs };
    let runs = run_substrate(
        Substrate::Dsm,
        cfg.scale,
        cfg.seed_or(99),
        versions.iter().map(|&(app, o)| run(app, o)),
    );
    versions
        .into_iter()
        .filter_map(|(app, ordering)| {
            let m = runs.get(run(app, ordering))?;
            // seq_time_s (TreadMarks' estimate), reorder_s, then each protocol's
            // time, data and messages.
            let mut cells = vec![app.name().into(), ordering.name().into()];
            cells.extend([1, 0, 2, 3, 4, 6, 7, 8].map(|i| m[i].clone()));
            Some(Row { cells })
        })
        .collect()
}

/// Phase labels for the traced intervals of one FMM iteration (see `Fmm::step_traced`).
const FMM_INTERVAL_PHASES: [&str; 4] =
    ["Build tree", "Tree traversal (P2M)", "Inter/Intra particle", "Other (update)"];

fn fmm_phase_costs(n: usize, ordering: Ordering, procs: usize, seed: u64) -> Vec<(String, f64)> {
    let mut sim = Fmm::two_plummer(n, seed, FmmParams::default());
    if let Ordering::Reordered(method) = ordering {
        sim.reorder(method);
    }
    let config = DsmConfig::cluster(procs);
    let mut sink = PageHistorySink::new(sim.layout(), procs, config.page_bytes);
    sim.stream_iterations(1, &mut sink);
    let history = sink.finish();
    let cost = NetworkCostModel::default();
    let tmk = TreadMarksSim::new(config);
    // Simulate each interval prefix separately so its communication cost is attributed
    // to its phase.  (The protocol state is rebuilt per interval; this slightly
    // over-counts cold fetches per phase but identically for both versions.)
    let mut out: Vec<(String, f64)> = FMM_INTERVAL_PHASES
        .iter()
        .take(history.intervals.len())
        .enumerate()
        .map(|(idx, phase)| {
            let est = cost.estimate(&tmk.run_history(&history.prefix(idx + 1)));
            (phase.to_string(), est.parallel_seconds)
        })
        .collect();
    // Convert cumulative estimates into per-phase increments.
    for i in (1..out.len()).rev() {
        out[i].1 -= out[i - 1].1;
        out[i].1 = out[i].1.max(0.0);
    }
    out
}

fn run_table4(cfg: &RunConfig) -> Vec<Row> {
    let n = if cfg.scale == Scale::Paper { 16_384 } else { 4_096 };
    let procs = cfg.procs_or(16);
    let seed = cfg.seed_or(77);
    let orderings = [Ordering::Original, Ordering::Reordered(Method::Hilbert)];
    let cells: Vec<(CellKey, Ordering)> = orderings
        .into_iter()
        .map(|ordering| {
            let key = KeyBuilder::new("table4")
                .field_usize("bodies", n)
                .field_usize("procs", procs)
                .field_u64("seed", seed)
                .field_str("ordering", &ordering.name())
                .finish();
            (key, ordering)
        })
        .collect();
    // Cell rows are (ordering, phase, seconds); a table row needs both orderings.
    let rows = run_keyed_cells(cells, |ordering| {
        fmm_phase_costs(n, ordering, procs, seed)
            .into_iter()
            .map(|(phase, seconds)| row![ordering.name(), phase, seconds])
            .collect()
    });
    let costs = |ordering: Ordering| -> Vec<(&Value, f64)> {
        let tag = Value::Str(ordering.name());
        rows.iter()
            .filter(|r| r.cells[0] == tag)
            .map(|r| (&r.cells[1], float(&r.cells[2])))
            .collect()
    };
    let (original, reordered) = (costs(orderings[0]), costs(orderings[1]));
    if original.is_empty() || reordered.is_empty() {
        return Vec::new();
    }
    let total = |costs: &[(&Value, f64)]| -> f64 { costs.iter().map(|(_, t)| t).sum() };
    original
        .iter()
        .zip(&reordered)
        .map(|(&(phase, orig), &(_, reord))| Row {
            cells: vec![phase.clone(), orig.into(), reord.into()],
        })
        .chain(std::iter::once(row!["Total", total(&original), total(&reordered)]))
        .collect()
}

fn run_fig01_04(cfg: &RunConfig) -> Vec<Row> {
    const PARTICLES: usize = 168;
    const PAGE_BYTES: usize = 4096;
    let procs = cfg.procs_or(4);
    let seed = cfg.seed_or(42);
    let cells: Vec<(CellKey, (&str, Ordering))> = [
        ("Figure 1 (original)", Ordering::Original),
        ("Figure 4 (hilbert)", Ordering::Reordered(Method::Hilbert)),
    ]
    .into_iter()
    .map(|(label, ordering)| {
        let key = KeyBuilder::new("fig01_04")
            .field_usize("particles", PARTICLES)
            .field_usize("procs", procs)
            .field_u64("seed", seed)
            .field_str("label", label)
            .field_str("ordering", &ordering.name())
            .finish();
        (key, (label, ordering))
    })
    .collect();
    run_keyed_cells(cells, |(label, ordering)| {
        let run = build_run_sized(AppKind::BarnesHut, ordering, PARTICLES, 1, procs, seed);
        let map = page_update_map(&run.trace, &run.layout, PAGE_BYTES);
        let num_pages = run.layout.num_units(PAGE_BYTES);
        map.iter()
            .enumerate()
            .map(|(p, pages)| {
                let marks: String =
                    (0..num_pages).map(|pg| if pages.contains(pg) { 'X' } else { '.' }).collect();
                row![label, format!("P{p}"), marks, pages.len()]
            })
            .collect()
    })
}

fn run_fig02_05(cfg: &RunConfig) -> Vec<Row> {
    // The paper uses 32 768 bodies on 8 KB pages (384 pages of 96-byte records).
    let bodies = if cfg.scale == Scale::Paper { 32_768 } else { 8_192 };
    let page_bytes = 8 * 1024;
    let seed = cfg.seed_or(7);
    // --procs narrows the sweep to one processor count; default is the paper's 2-16.
    let ladder = cfg.procs.map(|p| vec![p]).unwrap_or_else(|| vec![2, 4, 8, 16]);
    let traced = ladder.iter().copied().max().expect("a non-empty ladder");
    let dump = std::env::var("REPRO_DUMP_PAGES").map(|v| v == "1").unwrap_or(false);
    // One cell per ordering traces Barnes-Hut once on the largest ladder P and folds
    // that trace onto every ladder P that divides it: with one iteration, the Q-processor
    // stream k is the concatenation of P-processor streams k·P/Q .. (k+1)·P/Q
    // (crates/bench/tests/seq_trace_is_par_concatenation.rs pins it).  The key names the
    // ladder because the rows do; tiny and small share `bodies`.  REPRO_DUMP_PAGES is
    // stderr-only diagnostics, so it stays out of the key.
    let ladder_name = ladder.iter().map(usize::to_string).collect::<Vec<_>>().join(",");
    let cells: Vec<(CellKey, (&str, Ordering))> =
        [("original", Ordering::Original), ("hilbert", Ordering::Reordered(Method::Hilbert))]
            .into_iter()
            .map(|(label, ordering)| {
                let key = KeyBuilder::new("fig02_05_folded")
                    .field_usize("bodies", bodies)
                    .field_usize("page_bytes", page_bytes)
                    .field_u64("seed", seed)
                    .field_usize("procs", traced)
                    .field_str("ladder", &ladder_name)
                    .field_str("label", label)
                    .field_str("ordering", &ordering.name())
                    .finish();
                (key, (label, ordering))
            })
            .collect();
    let mut rows = run_keyed_cells(cells, |(label, ordering)| {
        let run = build_run_sized(AppKind::BarnesHut, ordering, bodies, 1, traced, seed);
        let per_proc = processor_unit_sets(&run.trace, &run.layout, page_bytes);
        let num_units = run.layout.num_units(page_bytes);
        ladder
            .iter()
            .filter(|&&procs| traced.is_multiple_of(procs))
            .map(|&procs| {
                let report = PageSharingReport::folded(&per_proc, procs, num_units, page_bytes);
                if dump {
                    // Per-page series for plotting the paper's histograms (stderr keeps
                    // the table / JSON / CSV artifact on stdout clean).
                    eprintln!("# pages P={procs} {label}: {:?}", report.sharers);
                }
                let max = report.sharers.iter().copied().max().unwrap_or(0);
                row![
                    procs,
                    label,
                    report.num_units,
                    report.mean_sharers(),
                    report.mean_writers(),
                    u64::from(max),
                    report.falsely_shared_units
                ]
            })
            .collect()
    });
    // Cells come back per ordering; the figure lists both orderings per P.
    rows.sort_by_key(|row| match row.cells[0] {
        Value::Int(procs) => procs,
        _ => unreachable!("procs is the first column"),
    });
    rows
}

fn run_fig03(_cfg: &RunConfig) -> Vec<Row> {
    const SIDE: usize = 8;
    let points: Vec<[f64; 2]> =
        (0..SIDE * SIDE).map(|i| [(i % SIDE) as f64, (i / SIDE) as f64]).collect();
    let cells: Vec<(CellKey, Method)> = Method::ALL
        .iter()
        .map(|&method| {
            let key = KeyBuilder::new("fig03")
                .field_usize("side", SIDE)
                .field_str("method", method.name())
                .finish();
            (key, method)
        })
        .collect();
    run_keyed_cells(cells, |method| {
        let reordering = compute_reordering_from_points(method, &points);
        // rank_of(cell) = position along the curve; rows are printed top-down as in
        // the paper's figure.
        (0..SIDE)
            .rev()
            .map(|y| {
                let ranks: Vec<String> =
                    (0..SIDE).map(|x| format!("{:3}", reordering.rank_of(y * SIDE + x))).collect();
                row![method.name(), y, ranks.join(" ")]
            })
            .collect()
    })
}

fn fig06_remote_stats(sim: &Moldyn, procs: usize, unit_bytes: usize) -> (f64, f64) {
    let layout = ObjectLayout::new(sim.num_molecules(), molecular::moldyn::MOLECULE_BYTES);
    let n = sim.num_molecules();
    let mut total_units = 0usize;
    let mut total_owners = 0usize;
    for p in 0..procs {
        let mut remote_units = BTreeSet::new();
        let mut remote_owners = BTreeSet::new();
        for &(i, j) in &sim.pairs {
            let (i, j) = (i as usize, j as usize);
            let oi = i * procs / n;
            let oj = j * procs / n;
            // Partner molecules of processor p's pairs that belong to someone else.
            if oi == p && oj != p {
                remote_units.insert(layout.unit_of(j, unit_bytes));
                remote_owners.insert(oj);
            }
            if oj == p && oi != p {
                remote_units.insert(layout.unit_of(i, unit_bytes));
                remote_owners.insert(oi);
            }
        }
        total_units += remote_units.len();
        total_owners += remote_owners.len();
    }
    (total_units as f64 / procs as f64, total_owners as f64 / procs as f64)
}

fn run_fig06(cfg: &RunConfig) -> Vec<Row> {
    let n = if cfg.scale == Scale::Paper { 32_000 } else { 8_000 };
    let procs = cfg.procs_or(16);
    let seed = cfg.seed_or(11);
    let cells: Vec<(CellKey, (&str, Option<Method>))> =
        [("hilbert", Some(Method::Hilbert)), ("column", Some(Method::Column)), ("original", None)]
            .into_iter()
            .map(|(label, method)| {
                let key = KeyBuilder::new("fig06")
                    .field_usize("molecules", n)
                    .field_usize("procs", procs)
                    .field_u64("seed", seed)
                    .field_str("ordering", label)
                    .finish();
                (key, (label, method))
            })
            .collect();
    run_keyed_cells(cells, |(label, method)| {
        let mut sim = Moldyn::lattice(n, seed, MoldynParams::default());
        if let Some(m) = method {
            sim.reorder(m);
        }
        [("4 KB page", 4096usize), ("128 B line", 128)]
            .into_iter()
            .map(|(unit_label, unit_bytes)| {
                let (units, owners) = fig06_remote_stats(&sim, procs, unit_bytes);
                row![label, unit_label, units, owners]
            })
            .collect()
    })
}

fn run_fig07(cfg: &RunConfig) -> Vec<Row> {
    let procs = cfg.procs_or(16);
    let run = |app, ordering, procs| SubstrateRun { app, ordering, procs };
    // Sequential baseline: the original version on one processor.
    let baseline = |app| run(app, Ordering::Original, 1);
    let runs = run_substrate(
        Substrate::Origin,
        cfg.scale,
        cfg.seed_or(123),
        AppKind::ALL.into_iter().flat_map(|app| {
            let parallel = orderings_for(app, false).into_iter().map(move |o| run(app, o, procs));
            std::iter::once(baseline(app)).chain(parallel)
        }),
    );
    AppKind::ALL
        .into_iter()
        .filter_map(|app| {
            let seq_time = float(&runs.get(baseline(app))?[1]);
            let speedup_of = |ordering| -> Option<Value> {
                let m = runs.get(run(app, ordering, procs))?;
                Some((seq_time / (float(&m[1]) + float(&m[0]))).into())
            };
            let column = if app.is_category2() {
                speedup_of(Ordering::Reordered(Method::Column))?
            } else {
                "-".into()
            };
            Some(Row {
                cells: vec![
                    app.name().into(),
                    speedup_of(Ordering::Original)?,
                    speedup_of(Ordering::Reordered(Method::Hilbert))?,
                    column,
                ],
            })
        })
        .collect()
}

fn run_fig08_09(cfg: &RunConfig) -> Vec<Row> {
    let procs = cfg.procs_or(16);
    let run = |app, ordering| SubstrateRun { app, ordering, procs };
    let reordered = |app: AppKind| Ordering::Reordered(app.dsm_reordering());
    let runs = run_substrate(
        Substrate::Dsm,
        cfg.scale,
        cfg.seed_or(99),
        AppKind::ALL
            .into_iter()
            .flat_map(|app| [run(app, Ordering::Original), run(app, reordered(app))]),
    );
    // (TreadMarks, HLRC) speedups: modelled sequential time over modelled parallel
    // time plus the measured reorder cost.
    let speedups = |m: &[Value]| {
        let reorder = float(&m[0]);
        (float(&m[1]) / (float(&m[2]) + reorder), float(&m[5]) / (float(&m[6]) + reorder))
    };
    AppKind::ALL
        .into_iter()
        .filter_map(|app| {
            let (tmk_orig, hlrc_orig) = speedups(runs.get(run(app, Ordering::Original))?);
            let (tmk_reord, hlrc_reord) = speedups(runs.get(run(app, reordered(app)))?);
            Some(row![
                app.name(),
                tmk_orig,
                hlrc_orig,
                tmk_reord,
                hlrc_reord,
                (tmk_reord / tmk_orig - 1.0) * 100.0,
                (hlrc_reord / hlrc_orig - 1.0) * 100.0
            ])
        })
        .collect()
}

fn run_ablation_reorder_frequency(cfg: &RunConfig) -> Vec<Row> {
    let n = if cfg.scale == Scale::Paper { 32_768 } else { 8_192 };
    let steps = 8;
    let procs = cfg.procs_or(16);
    let seed = cfg.seed_or(17);
    let periods: Vec<usize> = vec![0, 1, 2, 4, 8];
    // This is the one wall-clock-timing experiment: cells run *sequentially* so each
    // step_parallel gets the whole machine and total_reorder_s is measured without
    // contention from sibling cells.
    periods
        .into_iter()
        .flat_map(|period| {
            // period 0 = never reorder; otherwise reorder before step i when
            // i % period == 0.
            let mut sim = BarnesHut::two_plummer(n, seed, BarnesHutParams::default());
            let mut reorder_cost = 0.0;
            for step in 0..steps {
                if period != 0 && step % period == 0 {
                    let t0 = Instant::now();
                    sim.reorder(Method::Hilbert);
                    reorder_cost += t0.elapsed().as_secs_f64();
                }
                sim.step_parallel(rayon::current_num_threads());
            }
            // Measure the sharing of one final traced iteration.
            let trace = sim.trace_iterations(1, procs);
            let sharing = page_sharing(&trace, &sim.layout(), 8 * 1024);
            let label = if period == 0 { "never".to_string() } else { format!("every {period}") };
            vec![row![label, sharing.mean_writers(), sharing.mean_sharers(), reorder_cost]]
        })
        .collect()
}

/// Time the reordering pipeline over a flat coordinate buffer, serially or on every
/// worker thread.  Returns (key_ms, rank_ms, permute_ms, permutation).
fn time_pipeline(
    points: &[[f64; 3]],
    coords: &[f64],
    quantizer: &Quantizer,
    parallel: bool,
) -> (f64, f64, f64, Permutation) {
    let ms = |t0: Instant| t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let keys = pack_keys(Method::Hilbert, 3, quantizer, coords, parallel);
    let key_ms = ms(t0);
    let t0 = Instant::now();
    let permutation = keys.rank(parallel);
    let rank_ms = ms(t0);
    let mut objects = points.to_vec();
    let t0 = Instant::now();
    permutation.apply_in_place(&mut objects);
    let permute_ms = ms(t0);
    (key_ms, rank_ms, permute_ms, permutation)
}

fn run_bench_reorder_cost(cfg: &RunConfig) -> Vec<Row> {
    let n = match cfg.scale {
        Scale::Tiny => 20_000,
        Scale::Small => 200_000,
        Scale::Paper => 1_000_000,
    };
    let seed = cfg.seed_or(41);
    let workloads: Vec<(&str, Vec<[f64; 3]>)> = vec![
        ("plummer", two_plummer(n, 3, 1.0, 6.0, seed).0),
        ("mesh", UnstructuredMesh::with_approx_nodes(n, 0.25, seed).positions),
        ("lattice", cubic_lattice(n, 12.0, 0.3, seed)),
    ];
    let threads = rayon::current_num_threads();
    // This is a wall-clock-timing experiment: cells run *sequentially* so each
    // pipeline gets the whole machine (like the reorder-frequency ablation).
    let mut rows = Vec::new();
    for (workload, points) in &workloads {
        let n = points.len();
        let coords: Vec<f64> = points.iter().flat_map(|p| p.iter().copied()).collect();
        let quantizer = Quantizer::fit(n, 3, |i, d| coords[i * 3 + d]);
        let mut serial: Option<Permutation> = None;
        for (pipeline, parallel) in [("radix_serial", false), ("radix_parallel", true)] {
            let (key_ms, rank_ms, permute_ms, permutation) =
                time_pipeline(points, &coords, &quantizer, parallel);
            // Both pipelines must produce the same permutation; a divergence here is a
            // correctness bug, not a performance difference.
            match &serial {
                None => serial = Some(permutation),
                Some(s) => assert_eq!(
                    s.ranks(),
                    permutation.ranks(),
                    "{pipeline} diverged from radix_serial on {workload}"
                ),
            }
            let sort_mobj_s = n as f64 / ((key_ms + rank_ms) * 1e-3) / 1e6;
            let permute_mobj_s = n as f64 / (permute_ms * 1e-3) / 1e6;
            rows.push(row![
                *workload,
                n,
                pipeline,
                if parallel { threads } else { 1 },
                key_ms,
                rank_ms,
                permute_ms,
                sort_mobj_s,
                permute_mobj_s
            ]);
        }
    }
    rows
}

fn run_bench_sim_throughput(cfg: &RunConfig) -> Vec<Row> {
    let scale = cfg.scale;
    let procs = cfg.procs_or(16);
    let seed = cfg.seed_or(61);
    // Best-of-N wall clock per path: replay is deterministic, so repetition only
    // filters scheduler noise out of the recorded throughput.
    let repetitions = if scale == Scale::Tiny { 1 } else { 3 };
    let ms = |t0: Instant| t0.elapsed().as_secs_f64() * 1e3;
    // This is a wall-clock-timing experiment: cells run *sequentially* so each replay
    // gets the whole machine (like the reorder-cost bench).
    let mut rows = Vec::new();
    for app in AppKind::ALL {
        // Replay-representative sizing: `Scale` picks FMM's object count for its
        // *compute* cost (FMM builds expansions per iteration), which at small scale
        // leaves the object array inside the simulated TLB reach — a regime paper-scale
        // FMM (65 536 bodies, 6 MB) is never in.  The replay bench sizes FMM like
        // Barnes-Hut so every trace exercises the same TLB/cache pressure as Table 2.
        let n = if app == AppKind::Fmm {
            scale.size_of(app).max(scale.size_of(AppKind::BarnesHut))
        } else {
            scale.size_of(app)
        };
        let iters = scale.iterations_of(app);
        let run = build_run_sized(app, crate::Ordering::Original, n, iters, procs, seed);
        let accesses = run.trace.total_accesses() as u64;
        let preset = OriginPreset::origin2000(procs);

        // Path 1 — the directory machine over the materialized trace.
        let mut mat_ms = f64::INFINITY;
        let mut mat_result = None;
        for _ in 0..repetitions {
            let mut machine = preset.build_machine();
            let t0 = Instant::now();
            let result = machine.run_trace_with_layout(&run.trace, &run.layout);
            mat_ms = mat_ms.min(ms(t0));
            mat_result = Some(result);
        }
        let mat_result = mat_result.expect("at least one repetition");

        // Path 2 — the directory machine fed through the streaming sink.
        let mut stream_ms = f64::INFINITY;
        let mut stream_result = None;
        for _ in 0..repetitions {
            let mut sink = SimSink::new(preset.build_machine(), run.layout.clone());
            let t0 = Instant::now();
            run.trace.replay_into(&mut sink);
            let result = sink.finish();
            stream_ms = stream_ms.min(ms(t0));
            stream_result = Some(result);
        }
        let stream_result = stream_result.expect("at least one repetition");

        // Identical counters across both paths is a hard correctness requirement, not
        // a statistical expectation — a divergence here is a simulator bug.
        assert_eq!(
            mat_result,
            stream_result,
            "streaming replay diverged from materialized replay for {}",
            app.name()
        );

        let paths: [(&str, f64, &SimulationResult); 2] =
            [("materialized", mat_ms, &mat_result), ("streaming", stream_ms, &stream_result)];
        for (path, path_ms, result) in paths {
            rows.push(row![
                app.name(),
                run.num_objects,
                procs,
                path,
                accesses,
                path_ms,
                accesses as f64 / (path_ms * 1e-3) / 1e6,
                result.l2_misses(),
                result.tlb_misses(),
                result.coherence_misses(),
                mat_ms / path_ms
            ]);
        }
    }
    // Summary rows: aggregate throughput over all five applications plus the geomean
    // per-application speedup — the headline replay-throughput claim.
    for s in summarize_bench_paths(&rows, &["materialized", "streaming"], 3, 4, 5, &[7, 8, 9], 10) {
        rows.push(row![
            "(all)",
            0usize,
            procs,
            s.path,
            s.accesses,
            s.ms,
            s.maccess_s,
            s.col_sums[0],
            s.col_sums[1],
            s.col_sums[2],
            s.geomean_speedup
        ]);
    }
    rows
}

/// The per-path summary of a throughput bench's rows.
struct PathSummary {
    path: &'static str,
    accesses: u64,
    ms: f64,
    maccess_s: f64,
    /// Sums of the caller's extra counter columns, in the order requested.
    col_sums: Vec<u64>,
    /// Geometric mean of the per-application speedup column.
    geomean_speedup: f64,
}

/// Aggregate the `(all)` summary per path: total accesses and wall-clock, aggregate
/// throughput, sums of the requested counter columns, and the geomean per-application
/// speedup.  Shared by the sim-, dsm- and trace-throughput benches, which differ only in
/// column layout and path names.
fn summarize_bench_paths(
    rows: &[Row],
    paths: &[&'static str],
    path_col: usize,
    accesses_col: usize,
    ms_col: usize,
    sum_cols: &[usize],
    speedup_col: usize,
) -> Vec<PathSummary> {
    let cell = |r: &Row, i: usize| match &r.cells[i] {
        crate::runner::Value::Int(v) => *v as f64,
        crate::runner::Value::Float(v) => *v,
        crate::runner::Value::Str(_) => 0.0,
    };
    paths
        .iter()
        .copied()
        .map(|path| {
            let path_rows: Vec<&Row> = rows
                .iter()
                .filter(|r| r.cells[path_col] == crate::runner::Value::Str(path.into()))
                .collect();
            let accesses: f64 = path_rows.iter().map(|r| cell(r, accesses_col)).sum();
            let ms: f64 = path_rows.iter().map(|r| cell(r, ms_col)).sum();
            let geomean_speedup =
                (path_rows.iter().map(|r| cell(r, speedup_col).ln()).sum::<f64>()
                    / path_rows.len() as f64)
                    .exp();
            PathSummary {
                path,
                accesses: accesses as u64,
                ms,
                maccess_s: accesses / (ms * 1e-3) / 1e6,
                col_sums: sum_cols
                    .iter()
                    .map(|&c| path_rows.iter().map(|r| cell(r, c)).sum::<f64>() as u64)
                    .collect(),
                geomean_speedup,
            }
        })
        .collect()
}

/// The applications the DSM-throughput bench replays, with the workload each one's
/// generator draws from (the reorder-cost bench's point sets come from the same three).
const DSM_THROUGHPUT_APPS: [(AppKind, &str); 3] = [
    (AppKind::BarnesHut, "plummer"),
    (AppKind::Unstructured, "mesh"),
    (AppKind::Moldyn, "lattice"),
];

fn run_bench_dsm_throughput(cfg: &RunConfig) -> Vec<Row> {
    let scale = cfg.scale;
    let procs = cfg.procs_or(16);
    let seed = cfg.seed_or(71);
    let config = DsmConfig::cluster(procs);
    // Best-of-N wall clock per path: evaluation is deterministic, so repetition only
    // filters scheduler noise out of the recorded throughput.
    let repetitions = if scale == Scale::Tiny { 1 } else { 3 };
    let ms = |t0: Instant| t0.elapsed().as_secs_f64() * 1e3;
    // This is a wall-clock-timing experiment: cells run *sequentially* so each path
    // gets the whole machine (like the sim-throughput bench).
    let mut rows = Vec::new();
    for (app, workload) in DSM_THROUGHPUT_APPS {
        let run = build_run(app, crate::Ordering::Original, scale, procs, seed);
        let accesses = run.trace.total_accesses() as u64;

        // Path 1 — one flat reduction of the materialized trace feeds both parallel
        // simulators.
        let mut mat_ms = f64::INFINITY;
        let mut mat_results = None;
        for _ in 0..repetitions {
            let t0 = Instant::now();
            let history = PageWriteHistory::build(&run.trace, &run.layout, config.page_bytes);
            let tmk = TreadMarksSim::new(config).run_history(&history);
            let hlrc = HlrcSim::new(config).run_history(&history);
            mat_ms = mat_ms.min(ms(t0));
            mat_results = Some((tmk, hlrc));
        }
        let mat_results = mat_results.expect("at least one repetition");

        // Path 2 — the trace streams through a PageHistorySink (the no-materialized-
        // trace path applications use) into the same simulators.
        let mut stream_ms = f64::INFINITY;
        let mut stream_results = None;
        for _ in 0..repetitions {
            let t0 = Instant::now();
            let mut sink = PageHistorySink::new(run.layout.clone(), procs, config.page_bytes);
            run.trace.replay_into(&mut sink);
            let history = sink.finish();
            let tmk = TreadMarksSim::new(config).run_history(&history);
            let hlrc = HlrcSim::new(config).run_history(&history);
            stream_ms = stream_ms.min(ms(t0));
            stream_results = Some((tmk, hlrc));
        }
        let stream_results = stream_results.expect("at least one repetition");

        // Bit-identical DsmRunResults (aggregate + per-processor, both protocols)
        // across both paths is a hard correctness requirement, not a statistical
        // expectation — a divergence here is a pipeline bug.
        assert_eq!(
            mat_results,
            stream_results,
            "streaming DSM pipeline diverged from the materialized one for {}",
            app.name()
        );

        // Each path's row reports that path's *own* protocol counters (asserted
        // identical above), so the CI artifact check can independently re-verify the
        // cross-path agreement.
        let paths: [(&str, f64, &(dsm::DsmRunResult, dsm::DsmRunResult)); 2] =
            [("materialized", mat_ms, &mat_results), ("streaming", stream_ms, &stream_results)];
        for (path, path_ms, (tmk, hlrc)) in paths {
            rows.push(row![
                app.name(),
                workload,
                run.num_objects,
                procs,
                path,
                accesses,
                path_ms,
                accesses as f64 / (path_ms * 1e-3) / 1e6,
                tmk.stats.messages,
                tmk.stats.data_mbytes(),
                hlrc.stats.messages,
                hlrc.stats.data_mbytes(),
                mat_ms / path_ms
            ]);
        }
    }
    // Summary rows: aggregate throughput over the three applications plus the geomean
    // per-application speedup — the headline pipeline-throughput claim.
    for s in summarize_bench_paths(&rows, &["materialized", "streaming"], 4, 5, 6, &[], 12) {
        rows.push(row![
            "(all)",
            "-",
            0usize,
            procs,
            s.path,
            s.accesses,
            s.ms,
            s.maccess_s,
            0u64,
            0.0f64,
            0u64,
            0.0f64,
            s.geomean_speedup
        ]);
    }
    rows
}

fn run_bench_trace_throughput(cfg: &RunConfig) -> Vec<Row> {
    use smtrace::codec::{CorpusReader, CorpusWriter};

    let scale = cfg.scale;
    let procs = cfg.procs_or(16);
    let seed = cfg.seed_or(101);
    // Best-of-N wall clock per path: both paths are deterministic, so repetition only
    // filters scheduler noise.
    let repetitions = if scale == Scale::Tiny { 1 } else { 5 };
    let ms = |t0: Instant| t0.elapsed().as_secs_f64() * 1e3;
    let total_accesses = |r: &SimulationResult| r.per_proc.iter().map(|p| p.accesses).sum::<u64>();
    // Wall-clock-timing experiment: cells run sequentially so each path gets the
    // whole machine.
    let mut rows = Vec::new();
    for app in AppKind::ALL {
        let n = scale.size_of(app);
        let iters = scale.iterations_of(app);
        let initial = crate::LiveApp::build(app, n, seed);
        let layout = initial.layout();
        let preset = OriginPreset::origin2000(procs);

        // Record the corpus once, outside the timed region: recording cost amortizes
        // over every future replay, which is the whole point of the format.
        let corpus_path = std::env::temp_dir().join(format!(
            "xp-trace-throughput-{}-{}.smtc",
            std::process::id(),
            app.name()
        ));
        let corpus = {
            let mut live = initial.clone();
            let mut writer = CorpusWriter::create(&corpus_path, layout.clone(), procs)
                .expect("create trace corpus");
            live.stream_sharded(iters, &mut writer);
            writer.finish_durable().expect("write trace corpus")
        };

        // The two paths, interleaved: alternating live/replay repetitions sample the
        // same scheduler and frequency conditions, so the marginal apps — where the
        // paths are within a few percent — are not decided by drift between two
        // back-to-back timing blocks.
        let mut live_ms = f64::INFINITY;
        let mut live_result = None;
        let mut replay_ms = f64::INFINITY;
        let mut replay_result = None;
        for _ in 0..repetitions {
            // Path 1 — live generation into the streaming sink (the status quo).
            let mut live = initial.clone();
            let mut sink = SimSink::new(preset.build_machine(), layout.clone());
            let t0 = Instant::now();
            live.stream_sharded(iters, &mut sink);
            let result = sink.finish();
            live_ms = live_ms.min(ms(t0));
            live_result = Some(result);

            // Path 2 — decode the corpus from disk into the identical sink.
            let mut reader = CorpusReader::open(&corpus_path).expect("open trace corpus");
            let mut sink = SimSink::new(preset.build_machine(), layout.clone());
            let t0 = Instant::now();
            reader.replay_into(&mut sink).expect("decode trace corpus");
            let result = sink.finish();
            replay_ms = replay_ms.min(ms(t0));
            replay_result = Some(result);
        }
        let live_result = live_result.expect("at least one repetition");
        let replay_result = replay_result.expect("at least one repetition");
        std::fs::remove_file(&corpus_path).ok();

        // Bit-identical counters across both paths is a hard correctness requirement —
        // a divergence here is a codec bug, not measurement noise.
        assert_eq!(
            live_result,
            replay_result,
            "corpus replay diverged from live generation for {}",
            app.name()
        );

        let accesses = total_accesses(&live_result);
        assert_eq!(accesses, corpus.accesses, "corpus summary disagrees with the sink");
        let paths: [(&str, f64, &SimulationResult); 2] =
            [("live", live_ms, &live_result), ("replay", replay_ms, &replay_result)];
        for (path, path_ms, result) in paths {
            rows.push(row![
                app.name(),
                initial.num_objects(),
                procs,
                path,
                accesses,
                path_ms,
                accesses as f64 / (path_ms * 1e-3) / 1e6,
                corpus.file_bytes,
                corpus.bytes_per_access(),
                result.l2_misses(),
                result.tlb_misses(),
                result.coherence_misses(),
                live_ms / path_ms
            ]);
        }
    }
    // Summary rows: aggregate throughput over all five applications plus the geomean
    // per-application speedup — the headline decode-bound-replay claim.
    for s in summarize_bench_paths(&rows, &["live", "replay"], 3, 4, 5, &[9, 10, 11], 12) {
        rows.push(row![
            "(all)",
            0usize,
            procs,
            s.path,
            s.accesses,
            s.ms,
            s.maccess_s,
            0u64,
            0.0f64,
            s.col_sums[0],
            s.col_sums[1],
            s.col_sums[2],
            s.geomean_speedup
        ]);
    }
    rows
}

/// Consistency-unit ladder of the unit-size ablation, in bytes.
const UNIT_SWEEP_BYTES: [usize; 6] = [128, 512, 1024, 4096, 8192, 16384];

fn run_ablation_unit_sweep(cfg: &RunConfig) -> Vec<Row> {
    let n = if cfg.scale == Scale::Paper { 32_000 } else { 6_000 };
    let procs = cfg.procs_or(16);
    let seed = cfg.seed_or(31);
    let cells: Vec<(CellKey, Method)> = [Method::Hilbert, Method::Column]
        .into_iter()
        .map(|method| {
            let key = KeyBuilder::new("unit_sweep_run")
                .field_usize("molecules", n)
                .field_usize("procs", procs)
                .field_u64("seed", seed)
                .field_str("ordering", method.name())
                .finish();
            (key, method)
        })
        .collect();
    // One traced run per ordering, reduced to a page history at every unit size in a
    // single streaming pass; cell rows are (ordering, unit, messages, data).
    let rows = run_keyed_cells(cells, |method| {
        let mut sim = Moldyn::lattice(n, seed, MoldynParams::default());
        sim.reorder(method);
        let mut sink = PageHistorySink::with_granularities(sim.layout(), procs, &UNIT_SWEEP_BYTES);
        sim.stream_steps(2, &mut sink);
        sink.finish_all()
            .iter()
            .map(|history| {
                let config = DsmConfig::new(history.page_bytes, procs);
                let stats = TreadMarksSim::new(config).run_history(history).stats;
                row![method.name(), history.page_bytes, stats.messages, stats.data_mbytes()]
            })
            .collect()
    });
    // A unit's row needs both orderings' measurements.
    let measured = |method: Method, unit: usize| {
        let (tag, unit) = (Value::from(method.name()), Value::from(unit));
        rows.iter().find(|r| r.cells[0] == tag && r.cells[1] == unit).map(|r| &r.cells[2..])
    };
    UNIT_SWEEP_BYTES
        .into_iter()
        .filter_map(|unit| {
            let hilbert = measured(Method::Hilbert, unit)?;
            let column = measured(Method::Column, unit)?;
            let fewer = if float(&hilbert[0]) <= float(&column[0]) { "hilbert" } else { "column" };
            let mut cells = vec![unit.into()];
            cells.extend(hilbert.iter().chain(column).cloned());
            cells.push(fewer.into());
            Some(Row { cells })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Format;

    #[test]
    fn registry_ids_and_aliases_are_unique() {
        let mut seen = BTreeSet::new();
        for spec in all() {
            assert!(seen.insert(spec.id), "duplicate id {}", spec.id);
            for alias in spec.aliases {
                assert!(seen.insert(alias), "duplicate alias {alias}");
            }
        }
        assert_eq!(
            all().len(),
            16,
            "12 paper specs + the reorder-cost, sim-, dsm- and trace-throughput benches"
        );
    }

    #[test]
    fn every_figure_number_resolves() {
        for n in 1..=9 {
            assert!(find(&format!("fig{n}")).is_some(), "fig{n} must resolve");
        }
        for n in 1..=4 {
            assert!(find(&format!("table{n}")).is_some());
        }
    }

    #[test]
    fn fig03_runs_quickly_and_produces_full_grid() {
        let spec = find("fig03").unwrap();
        let result = spec.execute(&RunConfig { scale: Scale::Small, procs: None, seed: None });
        // 4 methods × 8 grid rows.
        assert_eq!(result.rows.len(), 32);
        for row in &result.rows {
            assert_eq!(row.cells.len(), 3);
        }
    }

    #[test]
    fn reorder_cost_bench_produces_all_pipeline_rows() {
        let spec = find("reorder-cost").unwrap();
        assert_eq!(spec.id, "bench_reorder_cost");
        let result = spec.execute(&RunConfig { scale: Scale::Tiny, procs: None, seed: None });
        // 3 workloads × 2 pipelines; the run itself asserts that both pipelines
        // produced the identical permutation.
        assert_eq!(result.rows.len(), 6);
        let json = result.render(Format::Json);
        assert!(json.contains("\"pipeline\": \"radix_serial\""));
        assert!(json.contains("\"pipeline\": \"radix_parallel\""));
    }

    #[test]
    fn sim_throughput_bench_covers_all_apps_and_paths() {
        let spec = find("sim-throughput").unwrap();
        assert_eq!(spec.id, "bench_sim_throughput");
        let result = spec.execute(&RunConfig { scale: Scale::Tiny, procs: Some(4), seed: None });
        // 5 applications × 2 replay paths, plus one summary row per path; the run
        // itself asserts that both paths produced identical per-processor counters.
        assert_eq!(result.rows.len(), 12);
        let json = result.render(Format::Json);
        assert!(json.contains("\"path\": \"materialized\""));
        assert!(json.contains("\"path\": \"streaming\""));
        assert!(json.contains("\"app\": \"(all)\""));
        assert!(json.contains("\"speedup_vs_materialized\": 1"), "materialized vs itself is 1.0");
    }

    #[test]
    fn dsm_throughput_bench_covers_all_apps_and_paths() {
        let spec = find("dsm-throughput").unwrap();
        assert_eq!(spec.id, "bench_dsm_throughput");
        let result = spec.execute(&RunConfig { scale: Scale::Tiny, procs: Some(4), seed: None });
        // 3 applications × 2 pipeline paths, plus one summary row per path; the run
        // itself asserts that both paths produced bit-identical DsmRunResults.
        assert_eq!(result.rows.len(), 8);
        let json = result.render(Format::Json);
        assert!(json.contains("\"path\": \"materialized\""));
        assert!(json.contains("\"path\": \"streaming\""));
        assert!(json.contains("\"workload\": \"plummer\""));
        assert!(json.contains("\"workload\": \"mesh\""));
        assert!(json.contains("\"workload\": \"lattice\""));
        assert!(json.contains("\"app\": \"(all)\""));
        assert!(json.contains("\"speedup_vs_materialized\": 1"), "materialized vs itself is 1.0");
    }

    #[test]
    fn trace_throughput_bench_covers_all_apps_and_paths() {
        let spec = find("trace-throughput").unwrap();
        assert_eq!(spec.id, "bench_trace_throughput");
        let result = spec.execute(&RunConfig { scale: Scale::Tiny, procs: Some(4), seed: None });
        // 5 applications × 2 paths, plus one summary row per path; the run itself
        // asserts bit-identical SimulationResults between live gen and corpus replay.
        assert_eq!(result.rows.len(), 12);
        let json = result.render(Format::Json);
        assert!(json.contains("\"path\": \"live\""));
        assert!(json.contains("\"path\": \"replay\""));
        assert!(json.contains("\"app\": \"(all)\""));
        assert!(json.contains("\"speedup_vs_live\": 1"), "live speedup vs itself is 1.0");
        // Every recorded corpus must beat the packed 4-byte in-memory stream.
        for row in &result.rows {
            if let (crate::runner::Value::Str(app), crate::runner::Value::Float(bpa)) =
                (&row.cells[0], &row.cells[8])
            {
                if app != "(all)" {
                    assert!(*bpa < 4.0, "{app}: {bpa} bytes/access");
                }
            }
        }
    }

    #[test]
    fn dsm_run_rows_match_per_protocol_run_with_layout() {
        // One shared page history per dsm_run cell must give exactly what each
        // protocol computes when it reduces the trace on its own.  The check runs
        // as a spec body, because cells only run inside a scheduled job.
        fn check(_cfg: &RunConfig) -> Vec<Row> {
            let (scale, seed, procs) = (Scale::Tiny, 3, 4);
            let versions = table_versions(true);
            let run = |app, ordering| SubstrateRun { app, ordering, procs };
            let runs = run_substrate(
                Substrate::Dsm,
                scale,
                seed,
                versions.iter().map(|&(app, o)| run(app, o)),
            );
            let config = DsmConfig::cluster(procs);
            let cost = NetworkCostModel::default();
            for (app, ordering) in versions {
                let traced = build_run(app, ordering, scale, procs, seed);
                let want: Vec<Value> = [
                    TreadMarksSim::new(config).run_with_layout(&traced.trace, &traced.layout),
                    HlrcSim::new(config).run_with_layout(&traced.trace, &traced.layout),
                ]
                .iter()
                .flat_map(|result| {
                    let est = cost.estimate(result);
                    [
                        Value::Float(est.sequential_seconds),
                        Value::Float(est.parallel_seconds),
                        Value::Float(result.stats.data_mbytes()),
                        Value::from(result.stats.messages),
                    ]
                })
                .collect();
                let got = runs.get(run(app, ordering)).expect("every cell succeeds");
                assert_eq!(got[1..], want[..], "{} {}", app.name(), ordering.name());
            }
            Vec::new()
        }
        let spec = ExperimentSpec {
            id: "dsm_run_check",
            aliases: &[],
            title: "dsm_run rows against per-protocol replay",
            columns: &[],
            notes: &[],
            run: check,
        };
        let result = spec.execute(&RunConfig { scale: Scale::Tiny, procs: None, seed: None });
        assert!(result.cell_faults.is_empty(), "{:?}", result.cell_faults);
    }

    #[test]
    fn origin_cell_rows_match_a_separately_traced_run_on_each_machine() {
        // The 1-processor row of an Origin cell comes from its P-processor trace
        // folded onto one processor; it must equal tracing the run on one processor
        // and replaying that, and the P-processor row must equal the plain replay.
        fn check(_cfg: &RunConfig) -> Vec<Row> {
            let (scale, seed, procs) = (Scale::Tiny, 3, 4);
            let versions: Vec<(AppKind, Ordering)> = AppKind::ALL
                .into_iter()
                .flat_map(|app| {
                    std::iter::once(Ordering::Original)
                        .chain(Method::ALL.map(Ordering::Reordered))
                        .map(move |o| (app, o))
                })
                .collect();
            let run = |app, ordering, procs| SubstrateRun { app, ordering, procs };
            let runs = run_substrate(
                Substrate::Origin,
                scale,
                seed,
                versions.iter().flat_map(|&(app, o)| [run(app, o, 1), run(app, o, procs)]),
            );
            for (app, ordering) in versions {
                for p in [1, procs] {
                    let traced = build_run(app, ordering, scale, p, seed);
                    let result = OriginPreset::origin2000(p)
                        .build_machine()
                        .run_trace_with_layout(&traced.trace, &traced.layout);
                    let want = [
                        Value::Float(CostModel::default().machine_time(&result)),
                        Value::from(result.l2_misses()),
                        Value::from(result.tlb_misses()),
                    ];
                    let got = runs.get(run(app, ordering, p)).expect("every cell succeeds");
                    assert_eq!(got[1..], want[..], "{} {} P={p}", app.name(), ordering.name());
                }
            }
            Vec::new()
        }
        let spec = ExperimentSpec {
            id: "origin_cell_check",
            aliases: &[],
            title: "origin cell rows against separately traced runs",
            columns: &[],
            notes: &[],
            run: check,
        };
        let result = spec.execute(&RunConfig { scale: Scale::Tiny, procs: None, seed: None });
        assert!(result.cell_faults.is_empty(), "{:?}", result.cell_faults);
    }

    #[test]
    fn table1_reflects_scale() {
        let spec = find("table1").unwrap();
        let small = spec.execute(&RunConfig { scale: Scale::Small, procs: None, seed: None });
        assert_eq!(small.rows.len(), 5);
    }

    #[test]
    fn fig01_04_produces_one_row_per_processor_per_figure() {
        let spec = find("fig01_04").unwrap();
        let result = spec.execute(&RunConfig { scale: Scale::Small, procs: None, seed: None });
        assert_eq!(result.rows.len(), 8, "2 figures x 4 processors");
        let json = result.render(Format::Json);
        assert!(json.contains("\"figure\": \"Figure 1 (original)\""));
    }
}
