//! `perfbench --workload <origin|dsm|resubmit> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs as many timed iterations of the workload as fit in `--seconds`, checks
//! every artifact against direct memsim/dsm calls, and prints one metric per
//! line followed by a host record and a final JSON line.  `--trace 0` reports
//! the end-to-end metrics; `--trace 1` re-executes the workload's substrate
//! runs serially under spans and reports the per-layer metrics.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::check::{differing_rows, failed_cells, is_checked, Reference};
use perfbench::drive::{self, scale_name, Iteration};
use perfbench::replay::{replay, LayerCounts};
use perfbench::spans::Tracer;
use perfbench::substrate::{substrate_runs, unique_runs, SubstrateRun, PROCS};
use perfbench::{host, median, Workload};
use repro_bench::experiments;
use repro_bench::runner::{ExperimentSpec, RunConfig};
use repro_bench::Scale;

/// Scratch directory (serve sockets, disk caches, span dumps), relative to the
/// working directory.
const WORK_DIR: &str = ".perfbench";

const USAGE: &str = "usage: perfbench --workload origin|dsm|resubmit --seed <n> --seconds <n> \
                     --trace 0|1 [--scale tiny|small]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds) = (None, None, None);
    let (mut trace, mut scale) = (false, Scale::Small);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(value.parse::<u64>().ok().filter(|&s| s >= 1).ok_or_else(bad)?)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                scale = match value.as_str() {
                    "tiny" => Scale::Tiny,
                    "small" => Scale::Small,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        scale,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One reported metric: name, unit, value.
type Metric = (&'static str, &'static str, f64);

fn run(args: &Args) -> Result<(), String> {
    let specs: Vec<&'static ExperimentSpec> = args
        .workload
        .specs()
        .iter()
        .map(|id| experiments::find(id).ok_or_else(|| format!("no experiment named {id}")))
        .collect::<Result<_, _>>()?;
    let config = RunConfig { scale: args.scale, procs: None, seed: Some(args.seed) };
    let slots = rayon::current_num_threads().clamp(1, host::nproc());
    let work_dir = Path::new(WORK_DIR);
    std::fs::create_dir_all(work_dir).map_err(|e| format!("{WORK_DIR}: {e}"))?;

    // The timed region: as many whole iterations as fit in the budget (at least
    // one), judged by the mean length of the iterations so far.
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut iterations: Vec<Iteration> = Vec::new();
    while iterations.is_empty()
        || started.elapsed().mul_f64(1.0 + 1.0 / iterations.len() as f64) <= budget
    {
        let iteration = match args.workload {
            Workload::Resubmit => {
                let tag = format!("{}-{}", std::process::id(), iterations.len());
                drive::resubmit(&specs, &config, slots, work_dir, &tag)?
            }
            Workload::Origin | Workload::Dsm => drive::sweep(&specs, &config, slots)?,
        };
        eprintln!(
            "perfbench: {} iteration {}: setup {:.3} s, reference {:.3} s, wall {:.3} s, cpu {:.3} s",
            args.workload.name(),
            iterations.len() + 1,
            iteration.setup_s,
            iteration.reference_s,
            iteration.wall_s,
            iteration.cpu_s
        );
        iterations.push(iteration);
    }
    let peak_rss_mb = host::peak_rss_mb();

    // Reference counters from direct calls: only the checked specs' runs, or,
    // traced, every run of the workload under spans.
    let runs: Vec<SubstrateRun> =
        specs.iter().flat_map(|spec| substrate_runs(spec.id, args.scale, args.seed)).collect();
    let replayed: Vec<SubstrateRun> =
        runs.iter().filter(|r| args.trace || is_checked(r.spec)).copied().collect();
    let mut tracer = Tracer::default();
    let mut counts = LayerCounts::default();
    let reference = replay(&replayed, &mut tracer, &mut counts);
    let traced_s = tracer.elapsed_s();

    let (attempted, failed) = verdict(&iterations, &runs, &reference);
    let fail_rate = failed as f64 / attempted.max(1) as f64;
    let per_iteration = |f: &dyn Fn(&Iteration) -> f64| median(iterations.iter().map(f).collect());
    let wall_s = per_iteration(&|i| i.wall_s);
    // Host seconds as measured.  On a shared host they move with the load of
    // other tenants, so the bounded metrics divide them by the reference.
    let raw: Vec<Metric> = vec![
        ("wall_s", "s", wall_s),
        ("cpu_s", "s", per_iteration(&|i| i.cpu_s)),
        ("reference_s", "s", per_iteration(&|i| i.reference_s)),
    ];
    let metrics: Vec<Metric> = if args.trace {
        let path = work_dir.join(format!("trace-{}-seed{}.json", args.workload.name(), args.seed));
        std::fs::write(&path, tracer.chrome_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("perfbench: spans written to {}", path.display());
        let traced = Traced { tracer: &tracer, counts: &counts, traced_s, wall_s, peak_rss_mb };
        raw.iter().copied().chain(layer_metrics(&iterations, &runs, &traced, slots)).collect()
    } else {
        vec![
            ("wall_ref", "ref", per_iteration(&|i| i.wall_s / i.reference_s)),
            ("cpu_ref", "ref", per_iteration(&|i| i.cpu_s / i.reference_s)),
            ("setup_s", "s", per_iteration(&|i| i.setup_s)),
            ("pass_rate", "ratio", 1.0 - fail_rate),
        ]
    };

    let name = args.workload.name();
    let shown = if args.trace { &[][..] } else { &raw[..] };
    for (metric, unit, value) in metrics.iter().chain(shown) {
        println!("{name} {metric} = {} {unit}", number(*value));
    }
    println!("{name} fail_rate = {} ratio ({failed} of {attempted} cells)", number(fail_rate));
    println!("host {}", host_record(args, slots, iterations.len()));
    let fields: Vec<String> = metrics
        .iter()
        .map(|(metric, unit, value)| {
            format!("\"{metric}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", number(*value))
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    );
    Ok(())
}

/// Cells attempted and cells failed over all iterations.  A cell fails when the
/// scheduler reports it failed, when a checked row disagrees with the direct
/// memsim/dsm counters or is missing, or when a second client's row differs
/// from the first client's.
fn verdict(iterations: &[Iteration], runs: &[SubstrateRun], reference: &Reference) -> (u64, u64) {
    let expected_rows = |spec: &str| -> usize {
        let cells: BTreeSet<usize> =
            runs.iter().filter(|r| r.spec == spec).filter_map(|r| r.cell).collect();
        cells.len()
    };
    let (mut attempted, mut failed) = (0u64, 0u64);
    for iteration in iterations {
        let cells: BTreeSet<(u64, usize)> =
            iteration.cells.iter().map(|c| (c.job, c.cell)).collect();
        attempted += cells.len() as u64;
        let (first, others) = iteration.artifacts.split_first().expect("at least one client");
        for artifact in first {
            let expected = if is_checked(artifact.spec) { expected_rows(artifact.spec) } else { 0 };
            failed += failed_cells(artifact, reference, expected);
        }
        for other in others {
            for (base, artifact) in first.iter().zip(other) {
                failed += artifact.cells_failed + differing_rows(base, artifact);
            }
        }
    }
    (attempted, failed)
}

/// Substrate runs one iteration performed and how many of them were unique:
/// every run of a computed cell (once per computation), plus the runs a spec
/// performs outside its cells once per execution.
fn substrate_accounting(iteration: &Iteration, runs: &[SubstrateRun]) -> (usize, usize) {
    let mut computed: BTreeMap<(&str, usize), usize> = BTreeMap::new();
    for cell in iteration.cells.iter().filter(|c| c.computed()) {
        *computed.entry((cell.spec, cell.cell)).or_default() += 1;
    }
    let executions =
        |spec: &str| iteration.artifacts.iter().flatten().filter(|a| a.spec == spec).count();
    let performed: Vec<_> = runs
        .iter()
        .flat_map(|r| {
            let times = match r.cell {
                Some(cell) => computed.get(&(r.spec, cell)).copied().unwrap_or(0),
                None => executions(r.spec),
            };
            std::iter::repeat_n(&r.run, times)
        })
        .collect();
    (performed.len(), unique_runs(performed))
}

/// What the traced run recorded besides its iterations.
struct Traced<'a> {
    tracer: &'a Tracer,
    counts: &'a LayerCounts,
    /// Wall seconds of the serial replay.
    traced_s: f64,
    /// Median untraced wall seconds of the iterations.
    wall_s: f64,
    /// Peak resident set after the iterations, in MiB.
    peak_rss_mb: f64,
}

fn layer_metrics(
    iterations: &[Iteration],
    runs: &[SubstrateRun],
    traced: &Traced,
    slots: usize,
) -> Vec<Metric> {
    let own = traced.tracer.self_ms();
    let ms = |name: &str| own.get(name).copied().unwrap_or(0.0);
    // Millions per second from a count and the milliseconds it took.
    let per_s = |count: u64, ms: f64| if ms > 0.0 { count as f64 / (ms * 1e3) } else { 0.0 };
    let per_iteration = |f: &dyn Fn(&Iteration) -> f64| median(iterations.iter().map(f).collect());
    let counts = traced.counts;
    let dsm_ms = ms("dsm.history") + ms("dsm.tmk") + ms("dsm.hlrc");
    let layers_ms: f64 = own.iter().filter(|(name, _)| **name != "run").map(|(_, v)| v).sum();
    let computed_ms: Vec<f64> = iterations
        .iter()
        .flat_map(|i| i.cells.iter().filter(|c| c.computed()).map(|c| c.elapsed_s * 1e3))
        .collect();
    let retries = iterations.iter().flat_map(|i| &i.cells).filter(|c| c.attempt > 1).count();
    let (performed, unique) = substrate_accounting(iterations.last().expect("an iteration"), runs);
    let ratio = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    vec![
        ("app.build_ms", "ms", ms("app.build")),
        ("reorder.ms", "ms", ms("reorder")),
        ("reorder.mobj_per_s", "Mobj/s", per_s(counts.reorder_objects, ms("reorder"))),
        ("gen.ms", "ms", ms("gen")),
        ("gen.accesses", "count", counts.gen_accesses as f64),
        ("gen.maccess_per_s", "Maccess/s", per_s(counts.gen_accesses, ms("gen"))),
        ("trace.bytes_peak", "B", counts.trace_bytes_peak as f64),
        ("peak_rss_mb", "MB", traced.peak_rss_mb),
        ("memsim.ms", "ms", ms("memsim")),
        ("memsim.maccess_per_s", "Maccess/s", per_s(counts.memsim_accesses, ms("memsim"))),
        ("memsim.l2_misses", "count", counts.l2_misses as f64),
        ("memsim.tlb_misses", "count", counts.tlb_misses as f64),
        ("dsm.history_ms", "ms", ms("dsm.history")),
        ("dsm.tmk_ms", "ms", ms("dsm.tmk")),
        ("dsm.hlrc_ms", "ms", ms("dsm.hlrc")),
        ("dsm.maccess_per_s", "Maccess/s", per_s(counts.dsm_accesses, dsm_ms)),
        ("dsm.tmk_messages", "count", counts.tmk_messages as f64),
        ("dsm.hlrc_messages", "count", counts.hlrc_messages as f64),
        (
            "sched.cells",
            "count",
            per_iteration(&|i| i.cells.iter().filter(|c| c.computed()).count() as f64),
        ),
        ("sched.cell_p50_ms", "ms", median(computed_ms)),
        ("sched.retries", "count", retries as f64),
        (
            "sched.busy_ratio",
            "ratio",
            per_iteration(&|i| {
                let busy: f64 = i.cells.iter().filter(|c| !c.cache_hit).map(|c| c.elapsed_s).sum();
                ratio(busy, i.wall_s * slots as f64)
            }),
        ),
        ("cache.lookups", "count", per_iteration(&|i| i.cache.lookups() as f64)),
        (
            "cache.hit_ratio",
            "ratio",
            per_iteration(&|i| ratio(i.cache.hits() as f64, i.cache.lookups() as f64)),
        ),
        ("cache.flight_waits", "count", per_iteration(&|i| i.cache.flight_waits as f64)),
        ("cache.mem_bytes", "B", per_iteration(&|i| i.cache_mem_bytes as f64)),
        ("substrate.runs", "count", performed as f64),
        ("substrate.useful_ratio", "ratio", ratio(unique as f64, performed as f64)),
        (
            "serve.job_p50_ms",
            "ms",
            median(iterations.iter().flat_map(|i| i.job_ms.iter().copied()).collect()),
        ),
        ("render.ms", "ms", per_iteration(&|i| i.render_s * 1e3)),
        ("traced.coverage", "ratio", ratio(layers_ms, traced.traced_s * 1e3)),
        ("traced.overhead", "ratio", ratio(traced.traced_s, traced.wall_s)),
    ]
}

/// A finite JSON number with all its digits.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
fn quote(s: &str) -> String {
    let escaped: String = s
        .chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// Host and settings of this result.
fn host_record(args: &Args, slots: usize, iterations: usize) -> String {
    format!(
        "{{\"nproc\": {}, \"commit\": {}, \"rustc\": {}, \"workload\": \"{}\", \"scale\": \"{}\", \
         \"seed\": {}, \"procs\": {PROCS}, \"slots\": {slots}, \"trace\": {}, \"seconds\": {}, \
         \"iterations\": {iterations}}}",
        host::nproc(),
        quote(&host::commit()),
        quote(&host::rustc_version()),
        args.workload.name(),
        scale_name(args.scale),
        args.seed,
        args.trace,
        args.seconds
    )
}
