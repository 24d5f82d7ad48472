//! Fault-isolation contract of guarded cell execution: a panicking or failing cell
//! never takes the experiment (or the worker pool) down with it — siblings
//! complete, and the cell, run once, is reported per cell instead of aborting.
//! Every fixture runs its cells the one way cells run: through `run_keyed_cells`
//! inside a spec under `Scheduler::execute`.
//!
//! The nested `join`/`par_iter` test doubles as the proof obligation for the pool's
//! panic contract (DESIGN.md §7): after a cell panics *inside* nested pool
//! constructs, the next job — scheduled on the same persistent pool — must run
//! normally, or the pool would deadlock.

use std::sync::atomic::{AtomicU32, Ordering};

use repro_bench::cache::{CellKey, KeyBuilder};
use repro_bench::row;
use repro_bench::runner::{ExperimentResult, ExperimentSpec, Format, Row, RunConfig, Value};
use repro_bench::scheduler::{run_keyed_cells, CellStatus};
use repro_bench::Scale;

/// Cells `cells`, each under its own content address.
fn keyed(cells: impl IntoIterator<Item = u32>) -> Vec<(CellKey, u32)> {
    cells
        .into_iter()
        .map(|cell| {
            (KeyBuilder::new("runner-faults").field_u64("cell", cell.into()).finish(), cell)
        })
        .collect()
}

/// Execute `spec` under a pool-sized scheduler and a default session.
fn execute(spec: &ExperimentSpec) -> ExperimentResult {
    spec.execute(&RunConfig { scale: Scale::Tiny, procs: None, seed: None })
}

/// A one-column fixture spec around `run`.
fn fixture(run: fn(&RunConfig) -> Vec<Row>) -> ExperimentSpec {
    ExperimentSpec {
        id: "test_faults",
        aliases: &[],
        title: "Fault fixture",
        columns: &["cell"],
        notes: &[],
        run,
    }
}

#[test]
fn a_panicking_cell_is_isolated_and_its_siblings_complete() {
    let spec = fixture(|_| {
        run_keyed_cells(keyed(0..4), |cell| {
            if cell == 2 {
                panic!("cell two exploded");
            }
            vec![row![u64::from(cell)]]
        })
    });
    let result = execute(&spec);
    // Three survivors, in cell order, with the failed cell's rows absent.
    assert_eq!(result.rows.len(), 3);
    assert_eq!(result.rows[2].cells[0], Value::Int(3));
    assert_eq!(result.cell_faults.len(), 1);
    let outcome = &result.cell_faults[0];
    assert_eq!(outcome.cell, 2);
    assert_eq!(outcome.status, CellStatus::Panicked);
    assert!(
        outcome.error.contains("cell two exploded"),
        "the original panic payload is preserved: {:?}",
        outcome.error
    );
}

#[test]
fn a_panic_inside_nested_join_and_par_iter_leaves_the_pool_usable_for_the_next_job() {
    // The failing cell panics from a par_iter nested inside a join, on a pool
    // worker, in the first job only.  The second job reuses the same persistent
    // pool — if the panic killed a worker or poisoned a lock, this test hangs or
    // fails instead of completing.
    static FAILED_ONCE: AtomicU32 = AtomicU32::new(0);
    let spec = ExperimentSpec {
        columns: &["cell", "sum"],
        ..fixture(|_| {
            run_keyed_cells(keyed(0..3), |cell| {
                let (sum, _) = rayon::join(
                    || {
                        use rayon::prelude::*;
                        (0..16u64)
                            .collect::<Vec<_>>()
                            .par_iter()
                            .map(|&i| {
                                if cell == 1 && i == 7 && FAILED_ONCE.swap(1, Ordering::SeqCst) == 0
                                {
                                    panic!("worker task died mid-interval");
                                }
                                i
                            })
                            .collect::<Vec<_>>()
                            .iter()
                            .sum::<u64>()
                    },
                    || (0..100u64).sum::<u64>(),
                );
                vec![row![u64::from(cell), sum]]
            })
        })
    };
    rayon::with_num_threads(4, || {
        let first = execute(&spec);
        assert_eq!(first.rows.len(), 2, "the panicking cell's siblings complete");
        assert_eq!(first.cell_faults.len(), 1);
        assert_eq!(
            (first.cell_faults[0].cell, first.cell_faults[0].status),
            (1, CellStatus::Panicked)
        );
        assert!(first.cell_faults[0].error.contains("worker task died"), "{:?}", first.cell_faults);

        let second = execute(&spec);
        assert_eq!(second.rows.len(), 3, "the next job runs every cell normally");
        assert!(second.rows.iter().all(|r| r.cells[1] == Value::Int(120)));
        assert!(second.cell_faults.is_empty(), "{:?}", second.cell_faults);
        // And the pool is still fully operational after the whole episode.
        use rayon::prelude::*;
        let check: u64 =
            (0..32u64).collect::<Vec<_>>().par_iter().map(|&i| i).collect::<Vec<_>>().iter().sum();
        assert_eq!(check, 496);
    });
}

/// A spec whose second cell always panics: the experiment still completes with the
/// first cell's row plus a per-cell failure report.
fn half_failing_run(_config: &RunConfig) -> Vec<Row> {
    run_keyed_cells(keyed(0..2), |cell| {
        if cell == 1 {
            panic!("simulated cell crash");
        }
        vec![row!["survivor", u64::from(cell)]]
    })
}

const HALF_FAILING: ExperimentSpec = ExperimentSpec {
    id: "test_half_failing",
    aliases: &[],
    title: "Fault rendering fixture",
    columns: &["label", "cell"],
    notes: &["note line"],
    run: half_failing_run,
};

#[test]
fn experiments_complete_with_partial_results_and_render_the_failures() {
    let result = execute(&HALF_FAILING);
    assert_eq!(result.rows.len(), 1, "partial results survive");
    assert_eq!(result.failed_cells(), 1);
    let reason = result.failure_error().expect("a failed cell must surface");
    assert!(
        reason.contains("test_half_failing") && reason.contains("cell 1 panicked"),
        "got: {reason}"
    );

    let text = result.render(Format::Text);
    assert!(text.contains("cell faults (1 failed):"), "text: {text}");
    assert!(text.contains("simulated cell crash"), "text: {text}");

    let json = result.render(Format::Json);
    assert!(json.contains("\"cells_failed\": 1"), "json: {json}");
    assert!(json.contains("\"status\": \"panicked\""), "json: {json}");

    let csv = result.render(Format::Csv);
    assert!(
        csv.lines().any(|l| l.starts_with("# cell-fault,cell=1,status=panicked")),
        "csv: {csv}"
    );
}

#[test]
fn clean_runs_render_byte_identically_to_the_pre_fault_harness() {
    fn clean_run(_config: &RunConfig) -> Vec<Row> {
        run_keyed_cells(keyed(1..3), |cell| vec![row!["ok", u64::from(cell)]])
    }
    const CLEAN: ExperimentSpec = ExperimentSpec {
        id: "test_clean",
        aliases: &[],
        title: "Clean fixture",
        columns: &["label", "cell"],
        notes: &[],
        run: clean_run,
    };
    let result = execute(&CLEAN);
    assert!(result.cell_faults.is_empty());
    assert!(result.failure_error().is_none());
    for format in [Format::Text, Format::Json, Format::Csv] {
        let rendered = result.render(format);
        assert!(!rendered.contains("cell_faults") && !rendered.contains("cell faults"));
        assert!(!rendered.contains("cell-fault"));
    }
}

#[test]
fn cells_outside_a_scheduled_job_panic_naming_scheduler_execute() {
    // There are no bare cells: outside a job there is no slot queue to meter and
    // no result to report a failure into.
    let payload = std::panic::catch_unwind(|| {
        run_keyed_cells(keyed([0]), |cell| vec![row![u64::from(cell)]])
    })
    .expect_err("a cell outside Scheduler::execute must not run");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("a message payload");
    assert!(msg.contains("Scheduler::execute"), "got: {msg}");
}
