//! The declarative side of the harness: specs, results, and machine-readable
//! output.
//!
//! Every table, figure, and ablation of the paper is described by an
//! [`ExperimentSpec`]: an id, a column list, a note block, and a `run` function that
//! maps a [`RunConfig`] to data [`Row`]s.  The specs live in
//! [`crate::experiments`]; the `xp` binary (crate `xp-cli`) is a thin shell over this
//! module.  Results render as aligned text, JSON, or CSV via
//! [`ExperimentResult::render`].
//!
//! Execution lives in [`crate::scheduler`]: a spec runs only under
//! [`Scheduler::execute`] (plain [`ExperimentSpec::execute`] delegates to a
//! pool-sized scheduler), and its cells run only through
//! [`crate::scheduler::run_keyed_cells`] — each run once under a panic guard,
//! with every failure classified into a [`CellOutcome`] that every output
//! format ships alongside the surviving rows.  See DESIGN.md §13 for the fault
//! model.

use std::fmt::Write as _;

use crate::scheduler::{CellOutcome, JobSession, Scheduler};
use crate::{fmt_f, Scale};

/// One cell value: a label, a count, or a measurement.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A label (application name, ordering, unit size, ...).
    Str(String),
    /// An exact count (misses, messages, pages, ...).
    Int(i64),
    /// A measurement (seconds, megabytes, means, ...).
    Float(f64),
}

impl Value {
    /// Render for the aligned text table (floats use the engineering format of
    /// [`fmt_f`]).
    pub fn as_text(&self) -> String {
        match self {
            Value::Str(s) => s.clone(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => fmt_f(*f),
        }
    }

    /// Render as a JSON value (full float precision).
    pub fn as_json(&self) -> String {
        match self {
            Value::Str(s) => json_string(s),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => json_f64(*f),
        }
    }

    /// Render as a CSV field (full float precision, quoted when needed).
    pub fn as_csv(&self) -> String {
        match self {
            Value::Str(s) => csv_field(s),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => {
                if f.is_finite() {
                    format!("{f}")
                } else {
                    String::new()
                }
            }
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v as i64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

/// One data row; cells are positional and match the spec's `columns`.
#[derive(Debug, Clone)]
pub struct Row {
    /// Cell values, one per column.
    pub cells: Vec<Value>,
}

/// Build a [`Row`] from anything convertible to [`Value`]s.
#[macro_export]
macro_rules! row {
    ($($cell:expr),* $(,)?) => {
        $crate::runner::Row { cells: vec![$($crate::runner::Value::from($cell)),*] }
    };
}

/// Knobs shared by every experiment.  The default is `Small` scale with no overrides.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunConfig {
    /// Problem sizes: `Tiny` (smoke tests), `Small` (seconds per experiment) or
    /// `Paper` (Table 1 sizes).
    pub scale: Scale,
    /// Override for the experiment's virtual-processor count (default: the count the
    /// paper uses for that experiment, usually 16).
    pub procs: Option<usize>,
    /// Override for the workload seed (default: each experiment's own seed, so
    /// recorded outputs stay reproducible).
    pub seed: Option<u64>,
}

impl RunConfig {
    /// The processor count to use where the spec's default is `default`.
    pub fn procs_or(&self, default: usize) -> usize {
        self.procs.unwrap_or(default)
    }

    /// The seed to use where the spec's default is `default`.
    pub fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }
}

/// A declarative description of one table / figure / ablation.
pub struct ExperimentSpec {
    /// Stable identifier (`table2`, `fig02_05`, `ablation_unit_sweep`, ...).
    pub id: &'static str,
    /// Alternative names accepted by lookup (`fig2`, `fig5`, ...).
    pub aliases: &'static [&'static str],
    /// Human title (the text table's caption).
    pub title: &'static str,
    /// Column identifiers, snake_case, shared by all output formats.
    pub columns: &'static [&'static str],
    /// "Expected shape" commentary printed after the text table.
    pub notes: &'static [&'static str],
    /// Produce the data rows for a configuration.
    pub run: fn(&RunConfig) -> Vec<Row>,
}

impl ExperimentSpec {
    /// Whether `name` names this experiment (id or alias).
    pub fn matches(&self, name: &str) -> bool {
        self.id == name || self.aliases.contains(&name)
    }

    /// Execute the spec under a pool-sized [`Scheduler`] and a default session
    /// (no cache, no events, no cancellation).
    pub fn execute(&self, config: &RunConfig) -> ExperimentResult {
        Scheduler::pool_sized().execute(self, config, JobSession::default())
    }
}

/// Output format selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Aligned table plus notes.
    Text,
    /// One self-describing JSON object.
    Json,
    /// Header row plus data rows.
    Csv,
}

impl Format {
    /// Parse a `--format` argument.
    pub fn parse(s: &str) -> Option<Format> {
        match s {
            "text" => Some(Format::Text),
            "json" => Some(Format::Json),
            "csv" => Some(Format::Csv),
            _ => None,
        }
    }

    /// Canonical file extension.
    pub fn extension(&self) -> &'static str {
        match self {
            Format::Text => "txt",
            Format::Json => "json",
            Format::Csv => "csv",
        }
    }
}

/// An executed experiment: the spec's metadata plus its data rows.
#[derive(Debug)]
pub struct ExperimentResult {
    /// Spec id.
    pub id: &'static str,
    /// Spec title.
    pub title: &'static str,
    /// Spec columns.
    pub columns: &'static [&'static str],
    /// Spec notes.
    pub notes: &'static [&'static str],
    /// The configuration the rows were produced under.
    pub config: RunConfig,
    /// Data rows.
    pub rows: Vec<Row>,
    /// Failed cells, in cell order; empty for a clean run, in which case every
    /// render is byte-identical to the pre-fault-model output.
    pub cell_faults: Vec<CellOutcome>,
    /// Wall-clock cost of producing the rows.
    pub elapsed_seconds: f64,
}

impl ExperimentResult {
    /// Cells that failed.
    pub fn failed_cells(&self) -> usize {
        self.cell_faults.len()
    }

    /// `Some(reason)` when any cell failed — what `xp` prints before exiting
    /// nonzero so CI cannot mistake partial results for a clean run.
    pub fn failure_error(&self) -> Option<String> {
        let first = self.cell_faults.first()?;
        Some(format!(
            "experiment {:?}: {} cell(s) failed (first: cell {} {}: {})",
            self.id,
            self.failed_cells(),
            first.cell,
            first.status.name(),
            first.error
        ))
    }

    /// Render in the requested format.
    pub fn render(&self, format: Format) -> String {
        match format {
            Format::Text => self.render_text(),
            Format::Json => self.render_json(),
            Format::Csv => self.render_csv(),
        }
    }

    fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "\n=== {} [{}] ===", self.title, self.id);
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let text_rows: Vec<Vec<String>> =
            self.rows.iter().map(|r| r.cells.iter().map(Value::as_text).collect()).collect();
        for row in &text_rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{:width$}", cell, width = widths[i] + 2);
            }
            let _ = writeln!(out);
        };
        line(&self.columns.iter().map(|c| c.to_string()).collect::<Vec<_>>(), &mut out);
        for row in &text_rows {
            line(row, &mut out);
        }
        if !self.notes.is_empty() {
            let _ = writeln!(out);
            for note in self.notes {
                let _ = writeln!(out, "{note}");
            }
        }
        if !self.cell_faults.is_empty() {
            let _ = writeln!(out, "\ncell faults ({} failed):", self.failed_cells());
            for outcome in &self.cell_faults {
                let _ = writeln!(
                    out,
                    "  cell {}: {} ({:.2}s): {}",
                    outcome.cell,
                    outcome.status.name(),
                    outcome.elapsed_seconds,
                    outcome.error
                );
            }
        }
        let _ = writeln!(
            out,
            "\nscale: {:?}  (elapsed {:.2}s; pass --scale paper for paper sizes)",
            self.config.scale, self.elapsed_seconds
        );
        out
    }

    fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"experiment\": {},", json_string(self.id));
        let _ = writeln!(out, "  \"title\": {},", json_string(self.title));
        let _ = writeln!(
            out,
            "  \"scale\": {},",
            json_string(&format!("{:?}", self.config.scale).to_lowercase())
        );
        if let Some(procs) = self.config.procs {
            let _ = writeln!(out, "  \"procs_override\": {procs},");
        }
        if let Some(seed) = self.config.seed {
            let _ = writeln!(out, "  \"seed_override\": {seed},");
        }
        let _ = writeln!(out, "  \"elapsed_seconds\": {},", json_f64(self.elapsed_seconds));
        let _ = writeln!(
            out,
            "  \"columns\": [{}],",
            self.columns.iter().map(|c| json_string(c)).collect::<Vec<_>>().join(", ")
        );
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let fields: Vec<String> = self
                .columns
                .iter()
                .zip(&row.cells)
                .map(|(col, cell)| format!("{}: {}", json_string(col), cell.as_json()))
                .collect();
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            let _ = writeln!(out, "    {{{}}}{comma}", fields.join(", "));
        }
        out.push_str("  ],\n");
        if !self.cell_faults.is_empty() {
            let _ = writeln!(out, "  \"cells_failed\": {},", self.failed_cells());
            out.push_str("  \"cell_faults\": [\n");
            for (i, outcome) in self.cell_faults.iter().enumerate() {
                let comma = if i + 1 < self.cell_faults.len() { "," } else { "" };
                let _ = writeln!(
                    out,
                    "    {{\"cell\": {}, \"status\": {}, \"elapsed_seconds\": {}, \
                     \"error\": {}}}{comma}",
                    outcome.cell,
                    json_string(outcome.status.name()),
                    json_f64(outcome.elapsed_seconds),
                    json_string(&outcome.error)
                );
            }
            out.push_str("  ],\n");
        }
        let _ = writeln!(
            out,
            "  \"notes\": [{}]",
            self.notes.iter().map(|n| json_string(n)).collect::<Vec<_>>().join(", ")
        );
        out.push_str("}\n");
        out
    }

    fn render_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.columns.join(","));
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.cells.iter().map(Value::as_csv).collect::<Vec<_>>().join(",")
            );
        }
        // Fault trailer: `#`-prefixed comment lines so existing CSV consumers that
        // split on the header keep working, while a partial result is still visibly
        // partial in the artifact itself.
        for outcome in &self.cell_faults {
            let _ = writeln!(
                out,
                "# cell-fault,cell={},status={},error={}",
                outcome.cell,
                outcome.status.name(),
                csv_field(&outcome.error.replace('\n', " "))
            );
        }
        out
    }
}

pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub(crate) fn json_f64(f: f64) -> String {
    if f.is_finite() {
        let s = format!("{f}");
        // JSON numbers need a decimal point or exponent-free integer form; `{}` on an
        // integral f64 prints e.g. "3", which is valid JSON too.
        s
    } else {
        "null".to_string()
    }
}

fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::KeyBuilder;
    use crate::scheduler::run_keyed_cells;

    fn demo_spec() -> ExperimentSpec {
        ExperimentSpec {
            id: "demo",
            aliases: &["d"],
            title: "Demo experiment",
            columns: &["label", "count", "mean"],
            notes: &["note line"],
            run: |cfg| {
                let cells = [1usize, 2, 3]
                    .map(|i| (KeyBuilder::new("demo").field_usize("cell", i).finish(), i));
                run_keyed_cells(cells.to_vec(), |i| {
                    vec![row![format!("cell{i}"), i * 10, i as f64 / 2.0]]
                })
                .into_iter()
                .chain(std::iter::once(row![
                    format!("{:?}", cfg.scale).to_lowercase(),
                    0usize,
                    0.0
                ]))
                .collect()
            },
        }
    }

    #[test]
    fn cells_execute_in_order_and_render_everywhere() {
        let spec = demo_spec();
        assert!(spec.matches("demo") && spec.matches("d") && !spec.matches("x"));
        let result = spec.execute(&RunConfig { scale: Scale::Small, procs: None, seed: None });
        assert_eq!(result.rows.len(), 4);
        assert_eq!(result.rows[0].cells[0], Value::Str("cell1".into()));
        assert_eq!(result.rows[2].cells[1], Value::Int(30));

        let text = result.render(Format::Text);
        assert!(text.contains("Demo experiment") && text.contains("cell2"));

        let csv = result.render(Format::Csv);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("label,count,mean"));
        assert_eq!(lines.next(), Some("cell1,10,0.5"));

        let json = result.render(Format::Json);
        assert!(json.contains("\"experiment\": \"demo\""));
        assert!(json.contains("\"count\": 30"));
        assert!(json.contains("\"notes\": [\"note line\"]"));
    }

    #[test]
    fn json_escaping_is_safe() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b\"c"), "\"a,b\"\"c\"");
    }

    #[test]
    fn run_config_overrides() {
        let cfg = RunConfig { scale: Scale::Small, procs: Some(4), seed: None };
        assert_eq!(cfg.procs_or(16), 4);
        assert_eq!(cfg.seed_or(99), 99);
    }
}
