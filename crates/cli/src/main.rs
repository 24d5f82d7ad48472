//! `xp` — the experiment runner: every table, figure, ablation and bench of
//! `repro-bench` behind one binary.
//!
//! ```text
//! xp table <1|2|3|4>                  one table of the paper
//! xp fig <1..9>                       one figure (paired figures share a spec)
//! xp ablation <reorder-frequency|unit-sweep>
//! xp bench reorder-cost               key/rank/permute timing of the reordering pipeline
//! xp run <id>                         any experiment by id or alias
//! xp sweep                            every experiment (writes one artifact each)
//! xp serve                            NDJSON job server (stdin/stdout or a socket)
//! xp list                             what exists, with ids and aliases
//! ```
//!
//! Options (after the subcommand): `--format text|json|csv`, `--out PATH` (for
//! `sweep`: a directory), `--scale tiny|small|paper`, `--procs N`, `--seed N`.
//! Cells of each experiment's method × workload × substrate matrix run in parallel
//! on all host cores (cap with `RAYON_NUM_THREADS`).

use std::collections::HashSet;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use repro_bench::cache::{CacheConfig, CellCache};
use repro_bench::experiments;
use repro_bench::runner::{ExperimentSpec, Format, RunConfig};
use repro_bench::scheduler::{JobCounters, JobSession, Scheduler};
use repro_bench::serve::{serve_session, ServeShared};
use repro_bench::Scale;

const USAGE: &str = "\
xp — experiment runner for the SC 2000 data-reordering reproduction

USAGE:
    xp table <1|2|3|4>        [options]
    xp fig <1|2|...|9>        [options]
    xp ablation <name>        [options]   (reorder-frequency | unit-sweep)
    xp bench <name>           [options]   (reorder-cost)
    xp run <id-or-alias>      [options]
    xp sweep [id...]          [options]   run every (or the listed) experiment(s)
    xp serve                  [options]   NDJSON job server on stdin/stdout
    xp list                               list experiments

OPTIONS:
    --format <text|json|csv>  output format (default: text)
    --out <path>              write output to a file (sweep: to a directory)
    --scale <tiny|small|paper> problem sizes (default: small)
    --procs <N>               override the virtual-processor count
    --seed <N>                override the workload seed
    --jobs <N>                bound concurrent cells (default: pool width)
    --cache-dir <path>        persist computed cells on disk (sweep and serve)
    --single-flight           dedupe identical *in-flight* cells (sweep and serve):
                              the first job claims a cell, identical waiters park
                              instead of recomputing; with --cache-dir two
                              processes single-flight against each other through
                              kernel-locked files, freed the moment a claimant
                              exits (kill -9 included)
    -h, --help                this help

SERVE OPTIONS:
    --socket <path>           listen on a Unix socket instead of stdin/stdout

`xp serve` reads one JSON request per line ({\"cmd\": \"submit\" | \"status\" |
\"cancel\" | \"result\" | \"shutdown\"}) and streams one JSON event per line back;
identical cells across submissions are answered from the cell cache.  Each
submit names its own scale, procs and seed, so `xp serve` rejects --scale,
--procs, --seed, --format and --out.  EOF or SIGTERM drains in-flight jobs
before exiting.  `xp sweep` with a repeated or overlapping id list computes
each unique cell once for the same reason.

`xp` exits nonzero when any experiment cell fails, even though partial
results are still rendered.
";

struct Options {
    format: Format,
    out: Option<PathBuf>,
    config: RunConfig,
    /// `--jobs N`: bound on concurrent cells (scheduler slots, and the
    /// executor pool width for direct commands).
    jobs: Option<usize>,
    /// `--cache-dir PATH`: on-disk layer of the cell cache (sweep and serve).
    cache_dir: Option<PathBuf>,
    /// `--single-flight`: dedupe identical in-flight cells via claims + lock files.
    single_flight: bool,
}

fn fail(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    eprintln!("run `xp --help` for usage");
    ExitCode::FAILURE
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut format = Format::Text;
    let mut out = None;
    let mut config = RunConfig::default();
    let mut jobs = None;
    let mut cache_dir = None;
    let mut single_flight = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_for =
            |name: &str| it.next().map(|s| s.to_string()).ok_or(format!("{name} requires a value"));
        match arg.as_str() {
            "--format" => {
                let v = value_for("--format")?;
                format = Format::parse(&v).ok_or(format!("unknown format {v:?}"))?;
            }
            "--out" => out = Some(PathBuf::from(value_for("--out")?)),
            "--scale" => {
                let v = value_for("--scale")?;
                config.scale = Scale::parse(&v).ok_or(format!("unknown scale {v:?}"))?;
            }
            "--procs" => {
                let v = value_for("--procs")?;
                let procs: usize =
                    v.parse().map_err(|_| format!("--procs expects a number, got {v:?}"))?;
                if procs == 0 {
                    return Err("--procs must be positive".to_string());
                }
                config.procs = Some(procs);
            }
            "--seed" => {
                let v = value_for("--seed")?;
                config.seed =
                    Some(v.parse().map_err(|_| format!("--seed expects a number, got {v:?}"))?);
            }
            "--jobs" => {
                let v = value_for("--jobs")?;
                let n: usize =
                    v.parse().map_err(|_| format!("--jobs expects a number, got {v:?}"))?;
                if n == 0 {
                    return Err(
                        "--jobs must be at least 1 (0 would mean no cell ever runs)".to_string()
                    );
                }
                jobs = Some(n);
            }
            "--cache-dir" => cache_dir = Some(PathBuf::from(value_for("--cache-dir")?)),
            "--single-flight" => single_flight = true,
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(Options { format, out, config, jobs, cache_dir, single_flight })
}

/// Reject the cache family of flags for commands that have no cell cache.
fn reject_cache_flags(options: &Options) -> Result<(), String> {
    if options.cache_dir.is_some() {
        return Err("--cache-dir only applies to `xp sweep` and `xp serve`".to_string());
    }
    if options.single_flight {
        return Err("--single-flight only applies to `xp sweep` and `xp serve`".to_string());
    }
    Ok(())
}

fn emit(rendered: &str, out: Option<&Path>) -> Result<(), String> {
    match out {
        None => {
            print!("{rendered}");
            Ok(())
        }
        Some(path) => {
            ensure_parent_dir(path)?;
            std::fs::write(path, rendered)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!("wrote {}", path.display());
            Ok(())
        }
    }
}

/// Create `path`'s missing parent directories, failing with an error that names the
/// directory, so a bad `--out` fails before any experiment runs.
fn ensure_parent_dir(path: &Path) -> Result<(), String> {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create output directory {}: {e}", parent.display())),
        _ => Ok(()),
    }
}

fn run_one(spec: &ExperimentSpec, options: &Options) -> Result<(), String> {
    experiments::check_config(spec, &options.config)?;
    let result = spec.execute(&options.config);
    // Partial results still render (the failure summary is part of the artifact),
    // but a terminally failed cell must not exit 0 — CI keys off the exit code.
    emit(&result.render(options.format), options.out.as_deref())?;
    match result.failure_error() {
        Some(reason) => Err(reason),
        None => Ok(()),
    }
}

/// Build the cell cache an `xp sweep` or `xp serve` invocation shares across
/// experiments: in-memory always, disk-backed when `--cache-dir` is given,
/// single-flighting when asked.
fn open_cache(options: &Options) -> Result<Arc<CellCache>, String> {
    let config =
        CacheConfig { disk: options.cache_dir.clone(), single_flight: options.single_flight };
    let cache =
        CellCache::with_config(config).map_err(|e| format!("cannot open cell cache: {e}"))?;
    Ok(Arc::new(cache))
}

fn run_sweep(ids: &[String], options: &Options) -> Result<(), String> {
    let mut specs: Vec<&'static ExperimentSpec> = if ids.is_empty() {
        experiments::all().iter().collect()
    } else {
        ids.iter()
            .map(|id| {
                experiments::find(id).ok_or(format!("no experiment named {id:?} (try `xp list`)"))
            })
            .collect::<Result<_, _>>()?
    };
    // A repeated id, or an id next to its alias, runs and writes its spec once.
    let mut seen = HashSet::new();
    specs.retain(|spec| seen.insert(spec.id));
    for spec in &specs {
        experiments::check_config(spec, &options.config)?;
    }
    let out_dir = options.out.clone().unwrap_or_else(|| PathBuf::from("xp-out"));
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    // Experiments run one after another; each parallelizes its own cells across all
    // cores, so running two heavyweight experiments at once would only oversubscribe.
    // A cell failure does not stop the sweep — every experiment still writes its
    // artifact (with its failure summary) — but the sweep itself then exits nonzero.
    // All experiments share one content-addressed cache: overlapping specs compute
    // each unique cell exactly once.
    let slots = options.jobs.unwrap_or_else(|| rayon::current_num_threads().max(1));
    let scheduler = Scheduler::new(slots);
    let cache = open_cache(options)?;
    let mut failures = Vec::new();
    for spec in &specs {
        eprintln!("running {} ...", spec.id);
        let counters = Arc::new(JobCounters::default());
        let session = JobSession {
            job: scheduler.next_job_id(),
            cache: Some(Arc::clone(&cache)),
            counters: Some(Arc::clone(&counters)),
            ..JobSession::default()
        };
        let result = scheduler.execute(spec, &options.config, session);
        let path = out_dir.join(format!("{}.{}", spec.id, options.format.extension()));
        emit(&result.render(options.format), Some(&path))?;
        let hits = counters.cache_hits.load(std::sync::atomic::Ordering::Relaxed);
        let computed = counters.computed_cells.load(std::sync::atomic::Ordering::Relaxed);
        if hits + computed > 0 {
            eprintln!("  cache: {hits} cell(s) reused, {computed} computed");
        }
        if let Some(reason) = result.failure_error() {
            eprintln!("FAILED: {reason}");
            failures.push(reason);
        }
    }
    let stats = cache.stats();
    eprintln!(
        "sweep complete: {} experiments in {} ({} cache hits / {} cell lookups)",
        specs.len(),
        out_dir.display(),
        stats.hits(),
        stats.lookups()
    );
    if stats.flight_waits > 0 || stats.flight_steals > 0 {
        eprintln!(
            "  single-flight: {} cell(s) settled by waiting, {} dead claimant(s) taken over",
            stats.flight_waits, stats.flight_steals
        );
    }
    if stats.disk_errors > 0 {
        eprintln!("  WARNING: {} cache disk error(s) — see messages above", stats.disk_errors);
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} experiment(s) had failed cells:\n  {}",
            failures.len(),
            failures.join("\n  ")
        ))
    }
}

#[cfg(unix)]
mod signals {
    //! SIGTERM/SIGINT → graceful drain, without pulling in a signal crate.
    //!
    //! The handler itself may only do async-signal-safe work, so it flips a
    //! process-wide static; a watcher thread mirrors that into the serve
    //! session's shared shutdown flag, which the session polls every 100 ms.

    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    static TERMINATED: AtomicBool = AtomicBool::new(false);

    extern "C" fn note_signal(_signum: i32) {
        TERMINATED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    pub fn drain_on_termination(shutdown: Arc<AtomicBool>) {
        unsafe {
            signal(SIGTERM, note_signal);
            signal(SIGINT, note_signal);
        }
        std::thread::spawn(move || {
            while !TERMINATED.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(100));
            }
            shutdown.store(true, Ordering::SeqCst);
        });
    }
}

/// Flags specific to `xp serve`, peeled off before the shared options.
fn run_serve(args: &[String]) -> Result<(), String> {
    let mut socket: Option<PathBuf> = None;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => {
                let v = it.next().ok_or("--socket requires a value")?;
                socket = Some(PathBuf::from(v));
            }
            // Every submit request carries its own scale, procs and seed.
            "--scale" | "--procs" | "--seed" => {
                return Err(format!(
                    "`xp serve` takes {arg} from each submit request, not as a flag"
                ));
            }
            "--format" => {
                return Err(
                    "`xp serve` always streams NDJSON; --format is not supported".to_string()
                )
            }
            "--out" => {
                return Err(
                    "`xp serve` streams NDJSON to stdout; --out is not supported".to_string()
                )
            }
            other => rest.push(other.to_string()),
        }
    }
    let options = parse_options(&rest)?;
    let slots = options.jobs.unwrap_or_else(|| rayon::current_num_threads().max(1));
    let cache = open_cache(&options)?;
    let shared = Arc::new(ServeShared::new(slots, cache));
    let shutdown = Arc::new(AtomicBool::new(false));
    #[cfg(unix)]
    signals::drain_on_termination(Arc::clone(&shutdown));
    match socket {
        Some(path) => {
            #[cfg(unix)]
            {
                repro_bench::serve::serve_unix_socket(&path, shared, shutdown)
                    .map_err(|e| format!("serve on {}: {e}", path.display()))
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                Err("--socket needs a Unix platform".to_string())
            }
        }
        None => serve_session(io::BufReader::new(io::stdin()), io::stdout(), shared, shutdown)
            .map_err(|e| format!("serve: {e}")),
    }
}

fn print_list() {
    println!("{:28}  TITLE", "ID");
    for spec in experiments::all() {
        println!("{:28}  {}", spec.id, spec.title);
        if !spec.aliases.is_empty() {
            println!("{:28}    aliases: {}", "", spec.aliases.join(", "));
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        print!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if matches!(command, "-h" | "--help" | "help" | "list") {
        if let Some(extra) = args.get(1) {
            return fail(&format!("`xp {command}` takes no arguments, got {extra:?}"));
        }
        if command == "list" {
            print_list();
        } else {
            print!("{USAGE}");
        }
        return ExitCode::SUCCESS;
    }
    if command == "serve" {
        return match run_serve(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => fail(&message),
        };
    }

    // Subcommands that name an experiment, then take shared options.
    let mut sweep_ids: Vec<String> = Vec::new();
    let (spec_name, rest): (String, &[String]) = match command {
        "table" | "fig" => {
            let Some(number) = args.get(1) else {
                return fail(&format!("`xp {command}` needs a number"));
            };
            (format!("{command}{number}"), &args[2..])
        }
        "ablation" | "bench" | "run" => {
            let Some(name) = args.get(1) else {
                return fail(&format!("`xp {command}` needs an experiment name"));
            };
            (name.clone(), &args[2..])
        }
        "sweep" => {
            // Leading non-flag arguments select (and may repeat) experiments.
            let mut idx = 1;
            while idx < args.len() && !args[idx].starts_with('-') {
                sweep_ids.push(args[idx].clone());
                idx += 1;
            }
            (String::new(), &args[idx..])
        }
        other => return fail(&format!("unknown command {other:?}")),
    };

    let options = match parse_options(rest) {
        Ok(options) => options,
        Err(message) => return fail(&message),
    };

    // Create (or reject) the --out location before the experiment runs — a bad path
    // should fail in milliseconds, not after minutes of simulation.  `sweep` treats
    // --out as a directory and prepares it itself.
    if command != "sweep" {
        if let Some(out) = &options.out {
            if let Err(message) = ensure_parent_dir(out) {
                return fail(&message);
            }
        }
    }

    if command != "sweep" {
        if let Err(message) = reject_cache_flags(&options) {
            return fail(&message);
        }
    }

    let go = || {
        if command == "sweep" {
            return run_sweep(&sweep_ids, &options);
        }
        let spec = experiments::find(&spec_name)
            .ok_or(format!("no experiment named {spec_name:?} (try `xp list`)"))?;
        // `xp bench` and `xp ablation` run only their own family of specs.
        if matches!(command, "bench" | "ablation") && !spec.id.starts_with(&format!("{command}_")) {
            return Err(format!(
                "`xp {command}` does not run {:?} (run it with `xp run {}`)",
                spec.id, spec.id
            ));
        }
        run_one(spec, &options)
    };
    // --jobs bounds the executor pool for this command (and, for sweep, the
    // scheduler's slot count built inside the override).
    let outcome = match options.jobs {
        Some(n) => rayon::with_num_threads(n, go),
        None => go(),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => fail(&message),
    }
}
