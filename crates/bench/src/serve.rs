//! The `xp serve` front end: an NDJSON request/event protocol over any byte
//! stream (stdin/stdout for the CLI, a Unix socket behind `--socket`).
//!
//! One serve session owns a [`Scheduler`] and a [`CellCache`] shared by every
//! job it runs (and, in socket mode, by every connection), which is where the
//! dedup win comes from: two submitted experiments whose cell grids overlap
//! compute the shared cells once, and the second submission's shared cells
//! stream back as `cache_hit` events.
//!
//! # Protocol (one JSON object per line; see DESIGN.md §14 for the grammar)
//!
//! Requests:
//!
//! ```text
//! {"cmd":"submit","experiment":"fig02_05","job":1,"scale":"tiny","procs":8,"seed":7}
//! {"cmd":"status"}            {"cmd":"status","job":1}
//! {"cmd":"cancel","job":1}
//! {"cmd":"result","job":1,"format":"json"}
//! {"cmd":"shutdown"}
//! ```
//!
//! Events: `accepted`, streamed `cell` progress (with `cache_hit`), `done` (one
//! per job, status `ok`/`failed`/`cancelled`), `status`, `result`, `error`, and a
//! final `bye` after drain.  Every response line is a complete JSON object — a
//! client may `readline` in lockstep or just tail the stream.
//!
//! # Lifecycle
//!
//! Requests are handled on the session thread; each accepted job runs on its own
//! thread through [`Scheduler::execute`], so submissions overlap and the fair
//! slot queue arbitrates the pool between them.  A single writer thread owns the
//! output stream (events from concurrent jobs never interleave mid-line).  EOF,
//! a `shutdown` request, or the process shutdown flag (SIGTERM in the CLI) all
//! *drain*: no new submissions, in-flight jobs run to completion, `bye`, exit.

use std::collections::BTreeMap;
use std::io::{self, BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use crate::cache::CellCache;
use crate::experiments;
use crate::runner::{json_f64, json_string, ExperimentResult, Format, RunConfig};
use crate::scheduler::{Cancelled, CellEvent, JobCounters, JobSession, Scheduler};
use crate::Scale;

/// Everything a session (or a socket full of sessions) shares.
#[derive(Debug)]
pub struct ServeShared {
    /// Fair bounded dispatcher for all jobs.
    pub scheduler: Scheduler,
    /// Content-addressed result store (optionally disk-backed).
    pub cache: Arc<CellCache>,
    /// Admission bound: submissions beyond this many in-flight jobs are rejected
    /// with an `error` event (the bounded job queue — clients retry after a
    /// `done`).
    pub queue_limit: usize,
}

impl ServeShared {
    /// A shared state with `slots` concurrent cells and the default
    /// admission bound of `4 × slots` in-flight jobs.
    pub fn new(slots: usize, cache: Arc<CellCache>) -> ServeShared {
        ServeShared { scheduler: Scheduler::new(slots), cache, queue_limit: 4 * slots.max(2) }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Running,
    Ok,
    Failed,
    Cancelled,
}

impl JobState {
    fn name(self) -> &'static str {
        match self {
            JobState::Running => "running",
            JobState::Ok => "ok",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

struct JobRecord {
    experiment: &'static str,
    state: JobState,
    cancel: Arc<AtomicBool>,
    counters: Arc<JobCounters>,
    error: Option<String>,
    result: Option<Arc<ExperimentResult>>,
}

type Jobs = Arc<Mutex<BTreeMap<u64, JobRecord>>>;

/// Run one serve session over `input`/`output` until EOF, a `shutdown` request,
/// or `shutdown` becoming true (checked every 100 ms while idle).
///
/// The session is synchronous from the caller's point of view: when this
/// returns, every accepted job has finished, the `bye` event is written, and the
/// writer thread has exited.
pub fn serve_session<R, W>(
    input: R,
    output: W,
    shared: Arc<ServeShared>,
    shutdown: Arc<AtomicBool>,
) -> io::Result<()>
where
    R: BufRead + Send + 'static,
    W: Write + Send + 'static,
{
    // Single-writer discipline: every thread that speaks sends complete lines
    // here; the writer owns the stream and flushes per line (NDJSON clients read
    // in lockstep).
    let (out_tx, out_rx) = mpsc::channel::<String>();
    let writer = thread::spawn(move || {
        let mut output = output;
        for line in &out_rx {
            if writeln!(output, "{line}").and_then(|()| output.flush()).is_err() {
                // Client hung up mid-stream: keep draining the channel so
                // senders never block, but stop writing.
                for _ in &out_rx {}
                return;
            }
        }
    });

    // Reader thread: the session loop must keep polling the shutdown flag, so
    // blocking reads happen here and lines cross a channel.  Read timeouts
    // (socket mode sets one) just re-check the flag.
    let (line_tx, line_rx) = mpsc::channel::<String>();
    {
        let shutdown = Arc::clone(&shutdown);
        let mut input = input;
        thread::spawn(move || {
            let mut line = String::new();
            loop {
                line.clear();
                match input.read_line(&mut line) {
                    Ok(0) => return,
                    Ok(_) => {
                        if line_tx.send(line.trim_end().to_string()).is_err() {
                            return;
                        }
                    }
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        if shutdown.load(Ordering::SeqCst) {
                            return;
                        }
                    }
                    Err(_) => return,
                }
            }
        });
    }

    let jobs: Jobs = Arc::new(Mutex::new(BTreeMap::new()));
    let mut handles: Vec<thread::JoinHandle<()>> = Vec::new();
    let mut next_auto_job = 1u64;

    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let line = match line_rx.recv_timeout(Duration::from_millis(100)) {
            Ok(line) => line,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        if line.is_empty() {
            continue;
        }
        let request = match Json::parse(&line) {
            Ok(request) => request,
            Err(reason) => {
                let _ = out_tx.send(render_error(None, &format!("bad request: {reason}")));
                continue;
            }
        };
        match request.get("cmd").and_then(Json::as_str) {
            Some("submit") => {
                handle_submit(&request, &shared, &jobs, &mut handles, &mut next_auto_job, &out_tx)
            }
            Some("status") => handle_status(&request, &jobs, &out_tx),
            Some("cancel") => handle_cancel(&request, &jobs, &out_tx),
            Some("result") => handle_result(&request, &jobs, &out_tx),
            Some("shutdown") => break,
            other => {
                let message = match other {
                    Some(cmd) => format!("unknown cmd {cmd:?}"),
                    None => "missing \"cmd\"".to_string(),
                };
                let _ = out_tx.send(render_error(None, &message));
            }
        }
    }

    // Drain: no new work is accepted past this point; in-flight jobs finish
    // (cancelled ones start no further cell and unwind once their started cells
    // have settled).
    for handle in handles {
        let _ = handle.join();
    }
    let stats = shared.cache.stats();
    let jobs_run = jobs.lock().expect("jobs lock").len();
    let _ = out_tx.send(format!(
        "{{\"event\": \"bye\", \"jobs\": {jobs_run}, \"cache_hits\": {}, \"cache_misses\": {}, \
         \"disk_errors\": {}}}",
        stats.hits(),
        stats.misses,
        stats.disk_errors
    ));
    drop(out_tx);
    let _ = writer.join();
    Ok(())
}

fn handle_submit(
    request: &Json,
    shared: &Arc<ServeShared>,
    jobs: &Jobs,
    handles: &mut Vec<thread::JoinHandle<()>>,
    next_auto_job: &mut u64,
    out_tx: &mpsc::Sender<String>,
) {
    // An explicit job id is read first, so every validation error names its job.
    let explicit_job = match request.get("job").map(Json::as_u64) {
        None => None,
        Some(Some(job)) => Some(job),
        Some(None) => {
            let _ = out_tx.send(render_error(None, "job must be a non-negative integer"));
            return;
        }
    };
    let Some(name) = request.get("experiment").and_then(Json::as_str) else {
        let _ = out_tx.send(render_error(explicit_job, "submit needs \"experiment\""));
        return;
    };
    let Some(spec) = experiments::find(name) else {
        let _ = out_tx.send(render_error(explicit_job, &format!("unknown experiment {name:?}")));
        return;
    };
    let mut config = RunConfig::default();
    if let Some(scale) = request.get("scale") {
        match scale.as_str().and_then(Scale::parse) {
            Some(scale) => config.scale = scale,
            None => {
                let _ = out_tx.send(render_error(explicit_job, "scale must be tiny|small|paper"));
                return;
            }
        }
    }
    if let Some(procs) = request.get("procs") {
        match procs.as_u64() {
            Some(p) if p >= 1 => config.procs = Some(p as usize),
            _ => {
                let _ = out_tx.send(render_error(explicit_job, "procs must be an integer >= 1"));
                return;
            }
        }
    }
    if let Some(seed) = request.get("seed") {
        match seed.as_u64() {
            Some(s) => config.seed = Some(s),
            None => {
                let _ =
                    out_tx.send(render_error(explicit_job, "seed must be a non-negative integer"));
                return;
            }
        }
    }
    if let Err(message) = experiments::check_config(spec, &config) {
        let _ = out_tx.send(render_error(explicit_job, &message));
        return;
    }

    let mut table = jobs.lock().expect("jobs lock");
    let job = match explicit_job {
        Some(explicit) => explicit,
        None => {
            while table.contains_key(next_auto_job) {
                *next_auto_job += 1;
            }
            *next_auto_job
        }
    };
    if table.contains_key(&job) {
        let _ = out_tx.send(render_error(Some(job), "job id already used this session"));
        return;
    }
    let running = table.values().filter(|r| r.state == JobState::Running).count();
    if running >= shared.queue_limit {
        let _ = out_tx.send(render_error(
            Some(job),
            &format!("queue full ({running} jobs in flight); resubmit after a done event"),
        ));
        return;
    }

    let cancel = Arc::new(AtomicBool::new(false));
    let counters = Arc::new(JobCounters::default());
    table.insert(
        job,
        JobRecord {
            experiment: spec.id,
            state: JobState::Running,
            cancel: Arc::clone(&cancel),
            counters: Arc::clone(&counters),
            error: None,
            result: None,
        },
    );
    drop(table);
    let _ = out_tx.send(format!(
        "{{\"event\": \"accepted\", \"job\": {job}, \"experiment\": {}, \"scale\": {}}}",
        json_string(spec.id),
        json_string(&format!("{:?}", config.scale).to_lowercase())
    ));

    let shared = Arc::clone(shared);
    let jobs = Arc::clone(jobs);
    let out_tx = out_tx.clone();
    handles.push(thread::spawn(move || {
        // Cell events stream through a per-job forwarder so the job's done
        // event can be sequenced strictly after its last cell line (a warm
        // cache finishes a job faster than a shared queue would drain).
        let (cell_tx, cell_rx) = mpsc::channel::<CellEvent>();
        let cell_out = out_tx.clone();
        let cell_forwarder = thread::spawn(move || {
            for event in cell_rx {
                let _ = cell_out.send(render_cell_event(&event));
            }
        });
        let session = JobSession {
            job,
            cache: Some(Arc::clone(&shared.cache)),
            events: Some(cell_tx),
            cancel: Some(cancel),
            counters: Some(Arc::clone(&counters)),
        };
        let outcome =
            catch_unwind(AssertUnwindSafe(|| shared.scheduler.execute(spec, &config, session)));
        // Every sender clone is gone once execute returns (the job context
        // restores on unwind too), so the join drains the last cell line.
        let _ = cell_forwarder.join();
        let mut table = jobs.lock().expect("jobs lock");
        let record = table.get_mut(&job).expect("submitted job");
        let (rows, elapsed) = match outcome {
            Ok(result) => {
                record.error = result.failure_error();
                record.state = if record.error.is_none() { JobState::Ok } else { JobState::Failed };
                let summary = (result.rows.len(), result.elapsed_seconds);
                record.result = Some(Arc::new(result));
                summary
            }
            Err(payload) => {
                if payload.downcast_ref::<Cancelled>().is_some() {
                    record.state = JobState::Cancelled;
                    record.error = Some("cancelled".to_string());
                } else {
                    record.state = JobState::Failed;
                    let message = payload
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "experiment panicked".to_string());
                    record.error = Some(message);
                }
                (0, 0.0)
            }
        };
        let error = match &record.error {
            Some(error) if record.state != JobState::Cancelled => {
                format!(", \"error\": {}", json_string(error))
            }
            _ => String::new(),
        };
        let line = format!(
            "{{\"event\": \"done\", \"job\": {job}, \"status\": {}, \"rows\": {rows}, \
             \"cache_hits\": {}, \"computed\": {}, \"disk_errors\": {}, \
             \"elapsed_seconds\": {}{error}}}",
            json_string(record.state.name()),
            counters.cache_hits.load(Ordering::Relaxed),
            counters.computed_cells.load(Ordering::Relaxed),
            // Session-wide, not per-job: a sick cache dir is an operator
            // signal, and any job's done line should surface it.
            shared.cache.stats().disk_errors,
            json_f64(elapsed)
        );
        drop(table);
        let _ = out_tx.send(line);
    }));
}

fn handle_status(request: &Json, jobs: &Jobs, out_tx: &mpsc::Sender<String>) {
    let filter = request.get("job").and_then(Json::as_u64);
    let table = jobs.lock().expect("jobs lock");
    let entries: Vec<String> = table
        .iter()
        .filter(|(id, _)| filter.is_none_or(|want| **id == want))
        .map(|(id, record)| {
            format!(
                "{{\"job\": {id}, \"experiment\": {}, \"state\": {}, \"cache_hits\": {}, \
                 \"computed\": {}}}",
                json_string(record.experiment),
                json_string(record.state.name()),
                record.counters.cache_hits.load(Ordering::Relaxed),
                record.counters.computed_cells.load(Ordering::Relaxed)
            )
        })
        .collect();
    let _ = out_tx.send(format!("{{\"event\": \"status\", \"jobs\": [{}]}}", entries.join(", ")));
}

fn handle_cancel(request: &Json, jobs: &Jobs, out_tx: &mpsc::Sender<String>) {
    let Some(job) = request.get("job").and_then(Json::as_u64) else {
        let _ = out_tx.send(render_error(None, "cancel needs a \"job\" id"));
        return;
    };
    let table = jobs.lock().expect("jobs lock");
    match table.get(&job) {
        Some(record) => {
            // Setting the flag is all there is to do: the job starts no further
            // cell and reports `done` with status `cancelled`.  A finished job
            // ignores the flag (its done event already shipped).
            let pending = record.state == JobState::Running;
            record.cancel.store(true, Ordering::SeqCst);
            let _ = out_tx.send(format!(
                "{{\"event\": \"cancelling\", \"job\": {job}, \"pending\": {pending}}}"
            ));
        }
        None => {
            let _ = out_tx.send(render_error(Some(job), "unknown job"));
        }
    }
}

fn handle_result(request: &Json, jobs: &Jobs, out_tx: &mpsc::Sender<String>) {
    let Some(job) = request.get("job").and_then(Json::as_u64) else {
        let _ = out_tx.send(render_error(None, "result needs a \"job\" id"));
        return;
    };
    let format = match request.get("format").and_then(Json::as_str) {
        None => Format::Json,
        Some(name) => match Format::parse(name) {
            Some(format) => format,
            None => {
                let _ = out_tx.send(render_error(Some(job), "format must be text|json|csv"));
                return;
            }
        },
    };
    let table = jobs.lock().expect("jobs lock");
    let Some(record) = table.get(&job) else {
        let _ = out_tx.send(render_error(Some(job), "unknown job"));
        return;
    };
    match (&record.result, record.state) {
        (_, JobState::Running) => {
            let _ = out_tx.send(render_error(Some(job), "job still running; wait for done"));
        }
        (Some(result), _) => {
            let body = result.render(format);
            let _ = out_tx.send(format!(
                "{{\"event\": \"result\", \"job\": {job}, \"format\": {}, \"body\": {}}}",
                json_string(match format {
                    Format::Text => "text",
                    Format::Json => "json",
                    Format::Csv => "csv",
                }),
                json_string(&body)
            ));
        }
        (None, _) => {
            let _ = out_tx
                .send(render_error(Some(job), &format!("no result: job {}", record.state.name())));
        }
    }
}

fn render_cell_event(event: &CellEvent) -> String {
    format!(
        "{{\"event\": \"cell\", \"job\": {}, \"cell\": {}, \"status\": {}, \"attempt\": {}, \
         \"cache_hit\": {}, \"elapsed_ms\": {}}}",
        event.job,
        event.cell,
        json_string(event.status.name()),
        event.attempt,
        event.cache_hit,
        json_f64(event.elapsed_seconds * 1e3)
    )
}

fn render_error(job: Option<u64>, message: &str) -> String {
    match job {
        Some(job) => format!(
            "{{\"event\": \"error\", \"job\": {job}, \"message\": {}}}",
            json_string(message)
        ),
        None => format!("{{\"event\": \"error\", \"message\": {}}}", json_string(message)),
    }
}

/// Serve over a Unix socket: one session per connection, all connections sharing
/// `shared` (scheduler fairness and cache hits span connections).  Returns when
/// `shutdown` becomes true; live sessions drain before the listener is removed.
#[cfg(unix)]
pub fn serve_unix_socket(
    path: &std::path::Path,
    shared: Arc<ServeShared>,
    shutdown: Arc<AtomicBool>,
) -> io::Result<()> {
    use std::os::unix::net::UnixListener;

    // A stale socket file from a previous run would make bind fail.
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    let mut sessions = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _addr)) => {
                stream.set_nonblocking(false)?;
                // Periodic read timeouts let the session reader observe the
                // shutdown flag even while its client is idle.
                stream.set_read_timeout(Some(Duration::from_millis(200)))?;
                let reader = io::BufReader::new(stream.try_clone()?);
                let shared = Arc::clone(&shared);
                let shutdown = Arc::clone(&shutdown);
                sessions.push(thread::spawn(move || {
                    let _ = serve_session(reader, stream, shared, shutdown);
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(50));
            }
            Err(e) => return Err(e),
        }
    }
    for session in sessions {
        let _ = session.join();
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

// ---------------------------------------------------------------------------
// A minimal JSON value and recursive-descent parser: the protocol needs full
// JSON on the *request* side (clients send arbitrary strings/numbers), and the
// build has no registry access for a real parser crate.  ~120 lines, strict
// (trailing garbage and malformed escapes are errors), no extensions.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (always carried as `f64`; the protocol's integers are
    /// well within the 2^53 exact range).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion order preserved; duplicate keys keep the last).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one JSON document (the whole string must be consumed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut at = 0usize;
        let value = parse_value(bytes, &mut at)?;
        skip_ws(bytes, &mut at);
        if at != bytes.len() {
            return Err(format!("trailing bytes at offset {at}"));
        }
        Ok(value)
    }

    /// Object field lookup (last duplicate wins).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an exact non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], at: &mut usize) {
    while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(*at) {
        *at += 1;
    }
}

fn expect(bytes: &[u8], at: &mut usize, what: u8) -> Result<(), String> {
    if bytes.get(*at) == Some(&what) {
        *at += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at offset {at}", what as char, at = *at))
    }
}

fn parse_value(bytes: &[u8], at: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, at);
    match bytes.get(*at) {
        Some(b'{') => parse_object(bytes, at),
        Some(b'[') => parse_array(bytes, at),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, at)?)),
        Some(b't') => parse_literal(bytes, at, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, at, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, at, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, at),
        _ => Err(format!("unexpected input at offset {at}", at = *at)),
    }
}

fn parse_literal(bytes: &[u8], at: &mut usize, literal: &str, value: Json) -> Result<Json, String> {
    if bytes[*at..].starts_with(literal.as_bytes()) {
        *at += literal.len();
        Ok(value)
    } else {
        Err(format!("bad literal at offset {at}", at = *at))
    }
}

fn parse_number(bytes: &[u8], at: &mut usize) -> Result<Json, String> {
    let start = *at;
    if bytes.get(*at) == Some(&b'-') {
        *at += 1;
    }
    while let Some(c) = bytes.get(*at) {
        if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
            *at += 1;
        } else {
            break;
        }
    }
    std::str::from_utf8(&bytes[start..*at])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|n| n.is_finite())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at offset {start}"))
}

fn parse_string(bytes: &[u8], at: &mut usize) -> Result<String, String> {
    expect(bytes, at, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*at).copied() {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *at += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *at += 1;
                let escape = bytes.get(*at).copied().ok_or("unterminated escape")?;
                *at += 1;
                match escape {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let first = parse_hex4(bytes, at)?;
                        let scalar = if (0xD800..0xDC00).contains(&first) {
                            // Surrogate pair: the low half must follow as \uXXXX.
                            if bytes.get(*at) == Some(&b'\\') && bytes.get(*at + 1) == Some(&b'u') {
                                *at += 2;
                                let second = parse_hex4(bytes, at)?;
                                if !(0xDC00..0xE000).contains(&second) {
                                    return Err("bad low surrogate".to_string());
                                }
                                0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                            } else {
                                return Err("lone high surrogate".to_string());
                            }
                        } else {
                            first
                        };
                        out.push(char::from_u32(scalar).ok_or("bad unicode escape")?);
                    }
                    _ => return Err(format!("bad escape \\{}", escape as char)),
                }
            }
            Some(byte) => {
                if byte < 0x20 {
                    return Err("raw control character in string".to_string());
                }
                // Multi-byte UTF-8 passes through verbatim (input was &str).
                let start = *at;
                *at += 1;
                while *at < bytes.len() && bytes[*at] & 0xC0 == 0x80 {
                    *at += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*at]).map_err(|_| "bad utf-8")?);
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], at: &mut usize) -> Result<u32, String> {
    let hex = bytes.get(*at..*at + 4).ok_or("truncated \\u escape")?;
    *at += 4;
    u32::from_str_radix(std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?, 16)
        .map_err(|_| "bad \\u escape".to_string())
}

fn parse_array(bytes: &[u8], at: &mut usize) -> Result<Json, String> {
    expect(bytes, at, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, at);
    if bytes.get(*at) == Some(&b']') {
        *at += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, at)?);
        skip_ws(bytes, at);
        match bytes.get(*at) {
            Some(b',') => *at += 1,
            Some(b']') => {
                *at += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at offset {at}", at = *at)),
        }
    }
}

fn parse_object(bytes: &[u8], at: &mut usize) -> Result<Json, String> {
    expect(bytes, at, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, at);
    if bytes.get(*at) == Some(&b'}') {
        *at += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, at);
        let key = parse_string(bytes, at)?;
        skip_ws(bytes, at);
        expect(bytes, at, b':')?;
        let value = parse_value(bytes, at)?;
        fields.push((key, value));
        skip_ws(bytes, at);
        match bytes.get(*at) {
            Some(b',') => *at += 1,
            Some(b'}') => {
                *at += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {at}", at = *at)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_protocol_requests() {
        let req = Json::parse(
            r#"{"cmd":"submit","experiment":"fig02_05","job":3,"scale":"tiny","procs":8}"#,
        )
        .unwrap();
        assert_eq!(req.get("cmd").and_then(Json::as_str), Some("submit"));
        assert_eq!(req.get("job").and_then(Json::as_u64), Some(3));
        assert_eq!(req.get("procs").and_then(Json::as_u64), Some(8));
        assert!(req.get("seed").is_none());
    }

    #[test]
    fn parses_nesting_escapes_and_numbers() {
        let doc = Json::parse(r#"{"a":[1, -2.5, 1e3, "xA\n\"", {"b": null}], "t": true}"#).unwrap();
        let Json::Arr(items) = doc.get("a").unwrap() else { panic!("array") };
        assert_eq!(items[0], Json::Num(1.0));
        assert_eq!(items[1], Json::Num(-2.5));
        assert_eq!(items[2], Json::Num(1000.0));
        assert_eq!(items[3], Json::Str("xA\n\"".to_string()));
        assert_eq!(items[4].get("b"), Some(&Json::Null));
        assert_eq!(doc.get("t"), Some(&Json::Bool(true)));
    }

    #[test]
    fn surrogate_pairs_and_raw_utf8_round_trip() {
        let doc = Json::parse(r#"{"s":"😀 é"}"#).unwrap();
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("😀 é"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", r#"{"a" 1}"#, "tru", "1 2", r#""\ud800""#, "\u{1}", "nan"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn duplicate_keys_keep_the_last_value() {
        let doc = Json::parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_u64), Some(2));
    }
}
