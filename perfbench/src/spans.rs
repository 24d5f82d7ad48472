//! An in-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer (no
//! instrumentation inside the program).  Each span keeps its name, start, end,
//! parent, and the id of the substrate run it belongs to; everything stays in
//! memory until the run ends, when [`Tracer::chrome_json`] writes it out.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`gen`, `memsim`, ...), or `run` for a substrate run's root.
    pub name: &'static str,
    /// Id shared by every span of one substrate run.
    pub run: usize,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Seconds since the tracer started.
    pub start_s: f64,
    /// Seconds since the tracer started.
    pub end_s: f64,
}

/// Serial span recorder (one thread, properly nested spans).
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: usize,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), run: 0 }
    }
}

impl Tracer {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_s = self.now();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, run: self.run, parent, start_s, end_s: start_s });
        self.open.push(id);
        id
    }

    fn close(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must nest");
        self.spans[id].end_s = self.now();
    }

    /// Record `f` as one layer call.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Record one substrate run: a `run` root span with a fresh run id, whose
    /// body records its layer calls through the tracer it is handed.
    pub fn run<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.run += 1;
        let id = self.open("run");
        let out = f(self);
        self.close(id);
        out
    }

    /// Seconds since the tracer started.
    pub fn elapsed_s(&self) -> f64 {
        self.now()
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name in milliseconds: each span's duration minus the
    /// time its children cover.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_s = vec![0.0f64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_s[parent] += span.end_s - span.start_s;
            }
        }
        let mut out = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(child_s) {
            *out.entry(span.name).or_insert(0.0) += (span.end_s - span.start_s - child) * 1e3;
        }
        out
    }

    /// Chrome trace-event JSON (complete `X` events, microseconds), viewable in
    /// Perfetto or `chrome://tracing`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"span\": {i}, \"run\": {}, \"parent\": {parent}}}}}",
                span.name,
                span.start_s * 1e6,
                (span.end_s - span.start_s) * 1e6,
                span.run
            );
            out.push_str(if i + 1 < self.spans.len() { ",\n" } else { "\n" });
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_runs_share_ids() {
        let mut tracer = Tracer::default();
        tracer.run(|t| {
            t.span("gen", || std::thread::sleep(std::time::Duration::from_millis(5)));
            t.span("memsim", || ());
        });
        tracer.run(|t| t.span("gen", || ()));
        let spans = tracer.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!((spans[1].run, spans[1].parent), (1, Some(0)));
        assert_eq!((spans[4].run, spans[4].parent), (2, Some(3)));
        let own = tracer.self_ms();
        assert!(own["gen"] >= 5.0);
        assert!(own["run"] < own["gen"], "the root's self time excludes its layer calls");
        assert!(tracer.chrome_json().contains("\"name\": \"memsim\""));
    }
}
