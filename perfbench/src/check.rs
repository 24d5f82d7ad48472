//! The output check: every model-counter column the program reports must equal
//! the counter a direct call into memsim or dsm gives for the same seed.
//!
//! Checked columns are the L2/TLB misses of `table2` and the data MB and message
//! counts of `table3`.  Columns that carry host wall-clock time (`reorder_s`, and
//! the `fig07`/`fig08_09` speedups that add it to modelled time) differ between
//! runs at the same seed and are not checked.

use std::collections::BTreeMap;

use repro_bench::serve::Json;

/// Model counters from direct calls, keyed like the rows that report them.
#[derive(Debug, Clone, Default)]
pub struct Reference {
    /// (app, ordering, processors) → Origin-model (L2 misses, TLB misses).
    pub origin: BTreeMap<(String, String, usize), (u64, u64)>,
    /// (app, ordering) → TreadMarks/HLRC counters at the default processor count.
    pub dsm: BTreeMap<(String, String), DsmCounts>,
}

/// TreadMarks and HLRC traffic of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DsmCounts {
    /// TreadMarks messages.
    pub tmk_messages: u64,
    /// TreadMarks data in MB.
    pub tmk_mb: f64,
    /// HLRC messages.
    pub hlrc_messages: u64,
    /// HLRC data in MB.
    pub hlrc_mb: f64,
}

/// One rendered experiment result, parsed back from its JSON artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// Spec id.
    pub spec: &'static str,
    /// Data rows, one JSON object per row.
    pub rows: Vec<Json>,
    /// Cells that terminally failed (`cells_failed`, absent when none did).
    pub cells_failed: u64,
}

impl Artifact {
    /// Parse the JSON rendering of an `ExperimentResult`.
    pub fn parse(spec: &'static str, body: &str) -> Result<Artifact, String> {
        let doc = Json::parse(body).map_err(|e| format!("{spec}: unparsable artifact: {e}"))?;
        let Some(Json::Arr(rows)) = doc.get("rows") else {
            return Err(format!("{spec}: artifact has no rows"));
        };
        let cells_failed = doc.get("cells_failed").and_then(Json::as_u64).unwrap_or(0);
        Ok(Artifact { spec, rows: rows.clone(), cells_failed })
    }
}

fn text<'a>(row: &'a Json, column: &str) -> Option<&'a str> {
    row.get(column).and_then(Json::as_str)
}

fn number(row: &Json, column: &str) -> Option<f64> {
    match row.get(column) {
        Some(Json::Num(v)) => Some(*v),
        _ => None,
    }
}

/// Whether every checked counter of `row` equals its reference.  Counts are
/// below 2^53, so comparing them as JSON numbers is exact.
fn row_matches(spec: &str, row: &Json, reference: &Reference) -> bool {
    if !is_checked(spec) {
        return true;
    }
    let (Some(app), Some(version)) = (text(row, "app"), text(row, "version")) else {
        return false;
    };
    let eq = |column: &str, want: f64| number(row, column) == Some(want);
    match spec {
        "table2" => {
            let at = |procs: usize| reference.origin.get(&(app.into(), version.into(), procs));
            match (at(1), at(crate::substrate::PROCS)) {
                (Some(&(seq_l2, seq_tlb)), Some(&(par_l2, par_tlb))) => {
                    eq("seq_l2_misses", seq_l2 as f64)
                        && eq("seq_tlb_misses", seq_tlb as f64)
                        && eq("par_l2_misses", par_l2 as f64)
                        && eq("par_tlb_misses", par_tlb as f64)
                }
                _ => false,
            }
        }
        "table3" => match reference.dsm.get(&(app.into(), version.into())) {
            Some(want) => {
                eq("tmk_messages", want.tmk_messages as f64)
                    && eq("tmk_data_mb", want.tmk_mb)
                    && eq("hlrc_messages", want.hlrc_messages as f64)
                    && eq("hlrc_data_mb", want.hlrc_mb)
            }
            None => false,
        },
        _ => unreachable!("{spec} is not a checked spec"),
    }
}

/// Whether `spec`'s rows carry checked model counters.
pub fn is_checked(spec: &str) -> bool {
    matches!(spec, "table2" | "table3")
}

/// Cells of `artifact` that fail: terminal cell failures, checked rows whose
/// counters disagree with `reference`, and checked rows missing against
/// `expected_rows`.
pub fn failed_cells(artifact: &Artifact, reference: &Reference, expected_rows: usize) -> u64 {
    let mismatched =
        artifact.rows.iter().filter(|row| !row_matches(artifact.spec, row, reference)).count();
    let missing = expected_rows.saturating_sub(artifact.rows.len());
    artifact.cells_failed + (mismatched + missing) as u64
}

/// Rows of `other` that differ from `base` (rows missing on either side count).
pub fn differing_rows(base: &Artifact, other: &Artifact) -> u64 {
    let differing = base.rows.iter().zip(&other.rows).filter(|(a, b)| a != b).count();
    (differing + base.rows.len().abs_diff(other.rows.len())) as u64
}
