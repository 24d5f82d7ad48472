//! One timed iteration of a workload: set up a fresh session, then submit the
//! workload's specs through `repro_bench`'s public entry points and time them
//! from the first submission to the last artifact.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use repro_bench::cache::{CacheConfig, CacheStats, CellCache};
use repro_bench::runner::{ExperimentSpec, Format, RunConfig};
use repro_bench::scheduler::{CellEvent, CellStatus, JobSession, Scheduler};
use repro_bench::serve::{serve_unix_socket, Json, ServeShared};
use repro_bench::Scale;

use crate::check::Artifact;
use crate::host::{cpu_seconds, reference_seconds};

/// First job id of each `resubmit` client (distinct ids keep the shared
/// scheduler's fair rotation per job).
const CLIENT_JOB_BASE: [u64; 2] = [1, 1001];

/// How long a client waits for the server before giving up.
const SERVER_TIMEOUT: Duration = Duration::from_secs(150);

/// One cell attempt or cache hit, as the scheduler streamed it.
#[derive(Debug, Clone)]
pub struct CellRecord {
    /// Spec the cell belongs to.
    pub spec: &'static str,
    /// Job that ran it.
    pub job: u64,
    /// Cell index within the spec.
    pub cell: usize,
    /// Attempt number (0 for a cache hit).
    pub attempt: u32,
    /// Whether the rows came from the cache.
    pub cache_hit: bool,
    /// Whether the attempt succeeded.
    pub ok: bool,
    /// Wall-clock seconds of the attempt.
    pub elapsed_s: f64,
}

impl CellRecord {
    /// A successful attempt that computed the cell (not a cache hit).
    pub fn computed(&self) -> bool {
        self.ok && !self.cache_hit
    }
}

/// What one timed iteration measured and produced.
#[derive(Debug, Clone)]
pub struct Iteration {
    /// Seconds spent bringing the session up, before the timed region.
    pub setup_s: f64,
    /// Seconds of the host-speed reference: the mean of one measurement just
    /// before and one just after the timed region (neither counts as set-up).
    pub reference_s: f64,
    /// Seconds from the first submission to the last artifact.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    /// Seconds spent rendering artifacts: `ExperimentResult::render` in process,
    /// or the serve `result` round trip.
    pub render_s: f64,
    /// Per-job milliseconds from submission to `done`.
    pub job_ms: Vec<f64>,
    /// Every cell event of every job.
    pub cells: Vec<CellRecord>,
    /// Artifacts per client (one client for in-process sweeps), in submission order.
    pub artifacts: Vec<Vec<Artifact>>,
    /// Cache counters at the end of the iteration.
    pub cache: CacheStats,
    /// Cache memory-layer bytes at the end of the iteration.
    pub cache_mem_bytes: u64,
}

/// Lowercase scale name, as the serve protocol spells it.
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Paper => "paper",
    }
}

/// Run `spec` once at tiny scale without a cache, so pool threads, the
/// allocator and code pages are warm before timing.
fn warm_up(scheduler: &Scheduler, spec: &ExperimentSpec, seed: Option<u64>) {
    let config = RunConfig { scale: Scale::Tiny, procs: None, seed };
    let session = JobSession { job: scheduler.next_job_id(), ..JobSession::default() };
    scheduler.execute(spec, &config, session);
}

/// One `xp sweep`-style session: a scheduler plus a shared in-memory cache,
/// executing `specs` one after another.
pub fn sweep(
    specs: &[&'static ExperimentSpec],
    config: &RunConfig,
    slots: usize,
) -> Result<Iteration, String> {
    let setup = Instant::now();
    let scheduler = Scheduler::new(slots);
    let cache = Arc::new(CellCache::new());
    warm_up(&scheduler, specs[0], config.seed);
    let setup_s = setup.elapsed().as_secs_f64();
    let reference_before = reference_seconds(slots);

    let (events, received) = mpsc::channel::<CellEvent>();
    let mut jobs = BTreeMap::new();
    let mut bodies = Vec::new();
    let mut job_ms = Vec::new();
    let mut render_s = 0.0;
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    for spec in specs {
        let submitted = Instant::now();
        let job = scheduler.next_job_id();
        jobs.insert(job, spec.id);
        let session = JobSession {
            job,
            cache: Some(Arc::clone(&cache)),
            events: Some(events.clone()),
            ..JobSession::default()
        };
        let result = scheduler.execute(spec, config, session);
        let rendering = Instant::now();
        bodies.push((spec.id, result.render(Format::Json)));
        render_s += rendering.elapsed().as_secs_f64();
        job_ms.push(submitted.elapsed().as_secs_f64() * 1e3);
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    let reference_s = (reference_before + reference_seconds(slots)) / 2.0;
    drop(events);

    let cells = received
        .into_iter()
        .map(|event| CellRecord {
            spec: jobs[&event.job],
            job: event.job,
            cell: event.cell,
            attempt: event.attempt,
            cache_hit: event.cache_hit,
            ok: event.status == CellStatus::Ok,
            elapsed_s: event.elapsed_seconds,
        })
        .collect();
    let artifacts =
        bodies.iter().map(|(spec, body)| Artifact::parse(spec, body)).collect::<Result<_, _>>()?;
    Ok(Iteration {
        setup_s,
        reference_s,
        wall_s,
        cpu_s,
        render_s,
        job_ms,
        cells,
        artifacts: vec![artifacts],
        cache: cache.stats(),
        cache_mem_bytes: cache.memory_usage().1,
    })
}

/// One NDJSON client connection to a serve session.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    next_job: u64,
}

/// What one closed-loop client saw.
#[derive(Default)]
struct ClientLog {
    cells: Vec<CellRecord>,
    job_ms: Vec<f64>,
    render_s: f64,
    bodies: Vec<(&'static str, String)>,
}

impl Client {
    /// Connect, retrying while the server binds its socket.
    fn connect(socket: &Path, first_job: u64) -> Result<Client, String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let stream = loop {
            match UnixStream::connect(socket) {
                Ok(stream) => break stream,
                Err(_) if Instant::now() < deadline => thread::sleep(Duration::from_millis(1)),
                Err(e) => return Err(format!("connect {}: {e}", socket.display())),
            }
        };
        let io = |e: std::io::Error| format!("client socket: {e}");
        stream.set_read_timeout(Some(SERVER_TIMEOUT)).map_err(io)?;
        let reader = BufReader::new(stream.try_clone().map_err(io)?);
        Ok(Client { reader, writer: stream, next_job: first_job })
    }

    fn send(&mut self, request: &str) -> Result<(), String> {
        writeln!(self.writer, "{request}")
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send: {e}"))
    }

    fn event(&mut self) -> Result<Json, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("serve session closed the connection".to_string()),
            Ok(_) => Json::parse(line.trim_end()).map_err(|e| format!("bad event {line:?}: {e}")),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// Submit `spec` and block until its `done` event, collecting its cell events.
    fn run_job(
        &mut self,
        spec: &'static str,
        scale: Scale,
        seed: Option<u64>,
        cells: &mut Vec<CellRecord>,
    ) -> Result<u64, String> {
        let job = self.next_job;
        self.next_job += 1;
        let seed = seed.map_or(String::new(), |s| format!(", \"seed\": {s}"));
        self.send(&format!(
            "{{\"cmd\": \"submit\", \"experiment\": \"{spec}\", \"job\": {job}, \
             \"scale\": \"{}\"{seed}}}",
            scale_name(scale)
        ))?;
        loop {
            let event = self.event()?;
            let field = |name: &str| event.get(name).and_then(Json::as_u64).unwrap_or(0);
            match event.get("event").and_then(Json::as_str) {
                Some("cell") => cells.push(CellRecord {
                    spec,
                    job,
                    cell: field("cell") as usize,
                    attempt: field("attempt") as u32,
                    cache_hit: event.get("cache_hit") == Some(&Json::Bool(true)),
                    ok: event.get("status").and_then(Json::as_str) == Some("ok"),
                    elapsed_s: match event.get("elapsed_ms") {
                        Some(Json::Num(ms)) => ms / 1e3,
                        _ => 0.0,
                    },
                }),
                Some("done") => return Ok(job),
                Some("error") => {
                    let message = event.get("message").and_then(Json::as_str).unwrap_or("?");
                    return Err(format!("{spec}: serve error: {message}"));
                }
                _ => {}
            }
        }
    }

    /// Fetch a finished job's JSON artifact.
    fn result(&mut self, job: u64) -> Result<String, String> {
        self.send(&format!("{{\"cmd\": \"result\", \"job\": {job}, \"format\": \"json\"}}"))?;
        let event = self.event()?;
        match event.get("body").and_then(Json::as_str) {
            Some(body) => Ok(body.to_string()),
            None => Err(format!("job {job}: no result: {event:?}")),
        }
    }

    /// Submit each spec in turn, each only after the previous one's `done`.
    fn closed_loop(
        &mut self,
        specs: &[&'static ExperimentSpec],
        config: &RunConfig,
    ) -> Result<ClientLog, String> {
        let mut log = ClientLog::default();
        for spec in specs {
            let submitted = Instant::now();
            let job = self.run_job(spec.id, config.scale, config.seed, &mut log.cells)?;
            log.job_ms.push(submitted.elapsed().as_secs_f64() * 1e3);
            let fetching = Instant::now();
            log.bodies.push((spec.id, self.result(job)?));
            log.render_s += fetching.elapsed().as_secs_f64();
        }
        Ok(log)
    }
}

/// One `xp serve` session on a Unix socket, with a single-flight cache backed
/// by a fresh directory, and two closed-loop clients on their own connections
/// each submitting every spec of `specs`.
pub fn resubmit(
    specs: &[&'static ExperimentSpec],
    config: &RunConfig,
    slots: usize,
    work_dir: &Path,
    tag: &str,
) -> Result<Iteration, String> {
    let setup = Instant::now();
    let cache_dir = work_dir.join(format!("cache-{tag}"));
    let socket = work_dir.join(format!("serve-{tag}.sock"));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cache =
        CacheConfig { disk: Some(cache_dir.clone()), single_flight: true, ..Default::default() };
    let cache = Arc::new(CellCache::with_config(cache).map_err(|e| format!("cell cache: {e}"))?);
    let shared = Arc::new(ServeShared::new(slots, Arc::clone(&cache)));
    warm_up(&shared.scheduler, specs[0], config.seed);
    let shutdown = Arc::new(AtomicBool::new(false));
    let server = {
        let (socket, shared, shutdown) =
            (socket.clone(), Arc::clone(&shared), Arc::clone(&shutdown));
        thread::spawn(move || serve_unix_socket(&socket, shared, shutdown))
    };

    let session = || -> Result<Iteration, String> {
        let mut clients = CLIENT_JOB_BASE
            .iter()
            .map(|&base| Client::connect(&socket, base))
            .collect::<Result<Vec<_>, _>>()?;
        // A `table1` round trip (no cells) proves each session is serving.
        for client in &mut clients {
            client.run_job("table1", Scale::Tiny, None, &mut Vec::new())?;
        }
        let setup_s = setup.elapsed().as_secs_f64();
        let reference_before = reference_seconds(slots);

        let cpu0 = cpu_seconds();
        let start = Instant::now();
        let logs: Vec<Result<ClientLog, String>> = thread::scope(|scope| {
            let running: Vec<_> = clients
                .iter_mut()
                .map(|client| scope.spawn(move || client.closed_loop(specs, config)))
                .collect();
            running.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let wall_s = start.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds() - cpu0;
        let reference_s = (reference_before + reference_seconds(slots)) / 2.0;

        let mut iteration = Iteration {
            setup_s,
            reference_s,
            wall_s,
            cpu_s,
            render_s: 0.0,
            job_ms: Vec::new(),
            cells: Vec::new(),
            artifacts: Vec::new(),
            cache: cache.stats(),
            cache_mem_bytes: cache.memory_usage().1,
        };
        for log in logs {
            let log = log?;
            iteration.render_s += log.render_s;
            iteration.job_ms.extend(log.job_ms);
            iteration.cells.extend(log.cells);
            let artifacts = log.bodies.iter().map(|(spec, body)| Artifact::parse(spec, body));
            iteration.artifacts.push(artifacts.collect::<Result<_, _>>()?);
        }
        Ok(iteration)
    };
    let outcome = session();

    shutdown.store(true, Ordering::SeqCst);
    let served = server.join().expect("serve thread panicked");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let _ = std::fs::remove_file(&socket);
    served.map_err(|e| format!("serve on {}: {e}", socket.display()))?;
    outcome
}
