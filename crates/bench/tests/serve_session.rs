//! End-to-end NDJSON serve sessions, in process: a scripted client submits
//! overlapping experiments and the second one's shared cells must report
//! `cache_hit`; cancellation unwinds a running job into a `"cancelled"` done
//! event; `result` replays a finished artifact; malformed requests answer
//! `error` events without killing the session; EOF drains every accepted job
//! before `bye`.

use std::io::{Cursor, Read, Write};
use std::sync::atomic::AtomicBool;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use repro_bench::cache::CellCache;
use repro_bench::serve::{serve_session, Json, ServeShared};

/// `Write` half the session can own while the test keeps reading it afterwards.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }

    /// Block until a line containing `needle` has been emitted (events arrive
    /// from job threads, so interactive tests must wait for them).
    fn wait_for(&self, needle: &str) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while !self.text().contains(needle) {
            assert!(
                Instant::now() < deadline,
                "timed out waiting for {needle:?}:\n{}",
                self.text()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// `Read` half fed line by line from the test thread; EOF when the sender drops.
struct ChannelReader {
    rx: mpsc::Receiver<Vec<u8>>,
    pending: Vec<u8>,
}

impl Read for ChannelReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pending.is_empty() {
            match self.rx.recv() {
                Ok(bytes) => self.pending = bytes,
                Err(_) => return Ok(0),
            }
        }
        let n = self.pending.len().min(buf.len());
        buf[..n].copy_from_slice(&self.pending[..n]);
        self.pending.drain(..n);
        Ok(n)
    }
}

/// Run one pre-scripted session to completion and parse every emitted line.
fn run_session(script: &str, slots: usize) -> Vec<Json> {
    let shared = Arc::new(ServeShared::new(slots, Arc::new(CellCache::new())));
    let out = SharedBuf::default();
    let sink = out.clone();
    serve_session(Cursor::new(script.to_string()), sink, shared, Arc::new(AtomicBool::new(false)))
        .unwrap();
    parse_lines(&out.text())
}

fn parse_lines(text: &str) -> Vec<Json> {
    text.lines().map(|line| Json::parse(line).expect(line)).collect()
}

fn events<'a>(all: &'a [Json], kind: &str) -> Vec<&'a Json> {
    all.iter().filter(|e| e.get("event").and_then(Json::as_str) == Some(kind)).collect()
}

fn field(event: &Json, key: &str) -> u64 {
    event.get(key).and_then(Json::as_u64).unwrap_or_else(|| panic!("{key} in {event:?}"))
}

#[test]
fn overlapping_submissions_share_cells_and_drain_on_eof() {
    // The cache dedupes *completed* cells (no single-flight claim on in-flight
    // ones), so the overlap is made deterministic by submitting the second job
    // after the first one's done event.
    let shared = Arc::new(ServeShared::new(2, Arc::new(CellCache::new())));
    let out = SharedBuf::default();
    let sink = out.clone();
    let (tx, rx) = mpsc::channel::<Vec<u8>>();
    let session = std::thread::spawn(move || {
        let input = std::io::BufReader::new(ChannelReader { rx, pending: Vec::new() });
        serve_session(input, sink, shared, Arc::new(AtomicBool::new(false))).unwrap()
    });
    tx.send(
        b"{\"cmd\": \"submit\", \"experiment\": \"fig3\", \"scale\": \"tiny\", \"job\": 1}\n"
            .to_vec(),
    )
    .unwrap();
    out.wait_for("\"event\": \"done\", \"job\": 1");
    tx.send(
        b"{\"cmd\": \"submit\", \"experiment\": \"fig03\", \"scale\": \"tiny\", \"job\": 2}\n"
            .to_vec(),
    )
    .unwrap();
    drop(tx);
    session.join().unwrap();
    let all = parse_lines(&out.text());

    let accepted = events(&all, "accepted");
    assert_eq!(accepted.len(), 2);
    let done = events(&all, "done");
    assert_eq!(done.len(), 2, "EOF drained both jobs: {all:?}");
    for d in &done {
        assert_eq!(d.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(field(d, "rows"), 32);
    }
    // The two submissions describe identical cells (fig3 is an alias of fig03),
    // so the second computes nothing at all.
    let second = done.iter().find(|d| field(d, "job") == 2).unwrap();
    assert_eq!(field(second, "cache_hits"), 4, "every shared cell is a hit");
    assert_eq!(field(second, "computed"), 0, "nothing recomputes");

    // The deduplicated job's cells stream with cache_hit: true, attempt 0.
    let hit_cells: Vec<_> = events(&all, "cell")
        .into_iter()
        .filter(|c| c.get("cache_hit") == Some(&Json::Bool(true)))
        .collect();
    assert_eq!(hit_cells.len(), 4);
    for cell in &hit_cells {
        assert_eq!(field(cell, "attempt"), 0);
    }

    let bye = events(&all, "bye");
    assert_eq!(bye.len(), 1, "sessions end with bye");
    assert_eq!(field(bye[0], "jobs"), 2);
    assert_eq!(field(bye[0], "cache_hits"), 4);
}

#[test]
fn result_replays_a_finished_artifact() {
    // Interactive session: wait for the job's done event before asking for its
    // result, so the "still running" answer can never race in.
    let shared = Arc::new(ServeShared::new(2, Arc::new(CellCache::new())));
    let out = SharedBuf::default();
    let sink = out.clone();
    let (tx, rx) = mpsc::channel::<Vec<u8>>();
    let session = std::thread::spawn(move || {
        let input = std::io::BufReader::new(ChannelReader { rx, pending: Vec::new() });
        serve_session(input, sink, shared, Arc::new(AtomicBool::new(false))).unwrap()
    });

    tx.send(
        b"{\"cmd\": \"submit\", \"experiment\": \"fig3\", \"scale\": \"tiny\", \"job\": 1}\n"
            .to_vec(),
    )
    .unwrap();
    out.wait_for("\"event\": \"done\"");
    tx.send(b"{\"cmd\": \"status\"}\n".to_vec()).unwrap();
    tx.send(b"{\"cmd\": \"result\", \"job\": 1, \"format\": \"csv\"}\n".to_vec()).unwrap();
    out.wait_for("\"event\": \"result\"");
    drop(tx);
    session.join().unwrap();

    let all = parse_lines(&out.text());
    let status = events(&all, "status");
    assert_eq!(status.len(), 1);
    let jobs = match status[0].get("jobs") {
        Some(Json::Arr(jobs)) => jobs,
        other => panic!("status jobs: {other:?}"),
    };
    assert_eq!(jobs.len(), 1);
    assert_eq!(jobs[0].get("state").and_then(Json::as_str), Some("ok"));
    assert_eq!(field(&jobs[0], "computed"), 4);

    let results = events(&all, "result");
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].get("format").and_then(Json::as_str), Some("csv"));
    let body = results[0].get("body").and_then(Json::as_str).expect("result body");
    assert!(body.contains("method"), "csv header expected in {body:?}");
    assert_eq!(body.lines().count(), 33, "header plus 32 rows");
}

#[test]
fn cancel_unwinds_a_running_job_gracefully() {
    // The unit-size ablation traces two Moldyn runs, one per cell.  A cancel
    // sent right behind the submit is observed before the next cell starts, or —
    // if it lands after the last cell started — by the check `Scheduler::execute`
    // makes after the spec returns, so the job always ends "cancelled", the
    // session survives, and the drain still emits bye.
    let script = concat!(
        "{\"cmd\": \"submit\", \"experiment\": \"unit-sweep\", \"scale\": \"small\", \"job\": 9}\n",
        "{\"cmd\": \"cancel\", \"job\": 9}\n",
    );
    let all = run_session(script, 1);

    assert_eq!(events(&all, "accepted").len(), 1);
    assert_eq!(events(&all, "cancelling").len(), 1);
    let done = events(&all, "done");
    assert_eq!(done.len(), 1, "{all:?}");
    assert_eq!(done[0].get("status").and_then(Json::as_str), Some("cancelled"), "{all:?}");
    assert_eq!(events(&all, "bye").len(), 1);
}

#[test]
fn protocol_errors_answer_error_events_without_ending_the_session() {
    let script = concat!(
        "this is not json\n",
        "{\"cmd\": \"submit\"}\n",
        "{\"cmd\": \"submit\", \"experiment\": \"no_such_spec\"}\n",
        "{\"cmd\": \"submit\", \"experiment\": \"fig3\", \"scale\": \"galactic\"}\n",
        "{\"cmd\": \"submit\", \"experiment\": \"fig3\", \"procs\": 0}\n",
        "{\"cmd\": \"cancel\", \"job\": 777}\n",
        "{\"cmd\": \"result\", \"job\": 777}\n",
        "{\"cmd\": \"frobnicate\"}\n",
        "{\"cmd\": \"status\", \"job\": 777}\n",
        "{\"cmd\": \"submit\", \"experiment\": \"fig3\", \"scale\": \"tiny\"}\n",
    );
    let all = run_session(script, 2);

    assert_eq!(events(&all, "error").len(), 8, "{all:?}");
    // status of an unknown job is an empty listing, not an error.
    let status = events(&all, "status");
    assert_eq!(status.len(), 1);
    assert_eq!(status[0].get("jobs"), Some(&Json::Arr(Vec::new())));
    // The session is still healthy afterwards: the final submit runs to completion.
    let done = events(&all, "done");
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(events(&all, "bye").len(), 1);
}

#[test]
fn duplicate_job_ids_are_rejected() {
    let script = concat!(
        "{\"cmd\": \"submit\", \"experiment\": \"fig3\", \"scale\": \"tiny\", \"job\": 5}\n",
        "{\"cmd\": \"submit\", \"experiment\": \"fig3\", \"scale\": \"tiny\", \"job\": 5}\n",
    );
    let all = run_session(script, 2);
    assert_eq!(events(&all, "accepted").len(), 1);
    assert_eq!(events(&all, "error").len(), 1, "{all:?}");
    assert_eq!(events(&all, "done").len(), 1);
}

#[test]
fn validation_errors_name_an_explicit_job() {
    // The Origin specs reject more than 64 processors before any cell runs; the
    // error still carries the job id the client chose.
    let script = "{\"cmd\": \"submit\", \"job\": 7, \"experiment\": \"table2\", \"procs\": 65}\n";
    let all = run_session(script, 2);
    let errors = events(&all, "error");
    assert_eq!(errors.len(), 1, "{all:?}");
    assert_eq!(field(errors[0], "job"), 7, "{all:?}");
    assert!(events(&all, "accepted").is_empty(), "{all:?}");
}
