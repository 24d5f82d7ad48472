//! Fault injection at the runner's registered site (`runner/cell`): injected
//! errors, panics and delays at the cell boundary are classified and reported
//! exactly like organic ones, each costing its one cell once, and the seeded
//! n-of-m mode produces a reproducible failure schedule.  A panicking trace drain (`trace/drain`) inside
//! `table4` and the unit-size ablation is likewise contained by their cells.
//! Cells run through a spec under `Scheduler::execute`, the only way cells run.
//!
//! Compiled only under `--features failpoints`.
#![cfg(feature = "failpoints")]

use std::sync::atomic::Ordering as AtomicOrdering;
use std::sync::{Arc, Mutex, MutexGuard};

use repro_bench::cache::{CellCache, KeyBuilder};
use repro_bench::experiments;
use repro_bench::row;
use repro_bench::runner::{ExperimentResult, ExperimentSpec, Format, Row, RunConfig, Value};
use repro_bench::scheduler::{
    run_keyed_cells, CellOutcome, CellStatus, JobCounters, JobSession, Scheduler,
};
use repro_bench::Scale;

/// Run cells `0..cells` (each emits its index), returning the surviving rows and
/// the failed cells' outcomes.  The cell count rides in the config's `procs`
/// override, which the fixture spec reads.
fn run(cells: usize) -> (Vec<Row>, Vec<CellOutcome>) {
    let spec = ExperimentSpec {
        id: "test_failpoints",
        aliases: &[],
        title: "Failpoint fixture",
        columns: &["cell"],
        notes: &[],
        run: |cfg| {
            let cells = (0..cfg.procs_or(0) as u64)
                .map(|cell| (KeyBuilder::new("failpoints").field_u64("cell", cell).finish(), cell))
                .collect();
            run_keyed_cells(cells, |cell| vec![row![cell]])
        },
    };
    let config = RunConfig { scale: Scale::Tiny, procs: Some(cells), seed: None };
    let result = spec.execute(&config);
    (result.rows, result.cell_faults)
}

/// Every test configures a global point (`runner/cell` or `trace/drain`), so
/// they must not run concurrently with each other.
fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The cells that survived, by the index each one emitted.
fn surviving(rows: &[Row]) -> Vec<i64> {
    rows.iter()
        .map(|row| match row.cells[0] {
            Value::Int(cell) => cell,
            ref other => panic!("fixture rows hold an index, got {other:?}"),
        })
        .collect()
}

/// `1*<action>` at `runner/cell` costs exactly one of three cells, once: the
/// failed cell's outcome is the only one, and its siblings keep their rows.
fn assert_one_of_three_fails(spec: &str, status: CellStatus, message: &str) {
    let _serial = serialize();
    let _guard = failpoint::configure_guard("runner/cell", spec).unwrap();
    let (rows, outcomes) = run(3);
    assert_eq!(outcomes.len(), 1, "exactly one cell drew the injected fault: {outcomes:?}");
    let outcome = &outcomes[0];
    assert_eq!(outcome.status, status);
    assert!(outcome.error.contains(message), "got {:?}", outcome.error);
    let expected: Vec<i64> = (0..3).filter(|&cell| cell != outcome.cell as i64).collect();
    assert_eq!(surviving(&rows), expected, "the siblings keep their rows, in cell order");
}

#[test]
fn an_injected_error_fails_exactly_one_cell_once() {
    assert_one_of_three_fails("1*return(injected once)", CellStatus::Failed, "injected once");
}

#[test]
fn an_injected_persistent_error_fails_every_cell() {
    let _serial = serialize();
    let _guard = failpoint::configure_guard("runner/cell", "return(persistent fault)").unwrap();
    let (rows, outcomes) = run(2);
    assert!(rows.is_empty(), "every cell fails");
    assert_eq!(outcomes.len(), 2);
    for outcome in &outcomes {
        assert_eq!(outcome.status, CellStatus::Failed, "injected errors classify as Failed");
        assert!(outcome.error.contains("persistent fault"), "got {:?}", outcome.error);
    }
}

#[test]
fn an_injected_panic_fails_exactly_one_cell_once() {
    assert_one_of_three_fails("1*panic(injected crash)", CellStatus::Panicked, "injected crash");
}

#[test]
fn an_injected_delay_slows_but_never_fails_a_cell() {
    let _serial = serialize();
    let _guard = failpoint::configure_guard("runner/cell", "2*delay(5)").unwrap();
    let (rows, outcomes) = run(2);
    assert_eq!(rows.len(), 2);
    assert!(outcomes.is_empty(), "a delay is not a fault");
}

#[test]
fn a_seeded_n_of_m_schedule_is_reproducible() {
    // Single-threaded so the evaluation order is the cell order: the 2-of-4 mask
    // then deterministically maps window positions to cells, and two
    // identically-seeded runs must classify every cell identically.
    let _serial = serialize();
    let run_once = || {
        rayon::with_num_threads(1, || {
            let _guard =
                failpoint::configure_guard("runner/cell", "2/4@1234*return(scheduled)").unwrap();
            let (rows, outcomes) = run(4);
            let summary: Vec<(usize, &'static str)> =
                outcomes.iter().map(|o| (o.cell, o.status.name())).collect();
            (surviving(&rows), summary)
        })
    };
    let first = run_once();
    let second = run_once();
    assert_eq!(first, second, "the seeded schedule must be identical run to run");
    // One evaluation per cell: the 4 cells fill exactly one window, so exactly 2
    // of them fail and the other 2 keep their rows.
    assert_eq!(first.1.len(), 2, "{first:?}");
    assert!(first.1.iter().all(|&(_, status)| status == "failed"), "{first:?}");
    let mut cells: Vec<i64> = first.0.clone();
    cells.extend(first.1.iter().map(|&(cell, _)| cell as i64));
    cells.sort();
    assert_eq!(cells, [0, 1, 2, 3], "every cell either survives or fails: {first:?}");
}

/// Run `spec` under `scheduler` with an optional shared cache, returning the
/// result and the (hits, computed) counters.
fn run_spec(
    scheduler: &Scheduler,
    cache: Option<&Arc<CellCache>>,
    spec: &ExperimentSpec,
) -> (ExperimentResult, u64, u64) {
    let config = RunConfig { scale: Scale::Tiny, procs: None, seed: None };
    let counters = Arc::new(JobCounters::default());
    let session = JobSession {
        job: scheduler.next_job_id(),
        cache: cache.cloned(),
        counters: Some(Arc::clone(&counters)),
        ..JobSession::default()
    };
    let result = scheduler.execute(spec, &config, session);
    let hits = counters.cache_hits.load(AtomicOrdering::Relaxed);
    (result, hits, counters.computed_cells.load(AtomicOrdering::Relaxed))
}

#[test]
fn a_trace_drain_panic_in_a_cold_table4_costs_exactly_that_cell() {
    // table4's trace generation runs inside its two cells, so a drain that dies
    // mid-stream costs that one cell, run once — the other ordering is still
    // computed — and a clean rerun reproduces the clean rows.
    let _serial = serialize();
    let spec = experiments::find("table4").expect("registered");
    let scheduler = Scheduler::new(2);
    let cells = |result: &ExperimentResult| -> Vec<Vec<Value>> {
        result.rows.iter().map(|row| row.cells.clone()).collect()
    };
    let (clean, _, _) = run_spec(&scheduler, None, spec);
    assert!(clean.cell_faults.is_empty() && !clean.rows.is_empty());
    let (faulty, hits, computed) = {
        let _guard = failpoint::configure_guard("trace/drain", "1*panic").unwrap();
        run_spec(&scheduler, None, spec)
    };
    assert_eq!((hits, computed), (0, 1), "a cold run computes only the surviving ordering");
    assert_eq!(faulty.cell_faults.len(), 1, "{:?}", faulty.cell_faults);
    assert_eq!(faulty.cell_faults[0].status, CellStatus::Panicked);
    // Every table4 row pairs the two orderings, so losing one cell loses them all.
    assert!(faulty.rows.is_empty(), "{:?}", faulty.rows);
    let (rerun, _, computed) = run_spec(&scheduler, None, spec);
    assert_eq!(computed, 2);
    assert_eq!(cells(&rerun), cells(&clean), "a clean rerun reproduces the clean rows");
}

#[test]
fn a_warm_sweep_of_table4_and_the_unit_sweep_generates_no_trace() {
    // Every trace of both specs is generated inside a keyed cell, so once the
    // cache is warm no drain runs at all: a drain that always panics cannot
    // touch the warm sweep.
    let _serial = serialize();
    let scheduler = Scheduler::new(2);
    let cache = Arc::new(CellCache::new());
    for id in ["table4", "ablation_unit_sweep"] {
        let spec = experiments::find(id).expect("registered");
        let (cold, _, computed) = run_spec(&scheduler, Some(&cache), spec);
        assert!(cold.cell_faults.is_empty(), "{id}: clean cold run");
        assert_eq!(computed, 2, "{id}: one cell per ordering");
        let _guard = failpoint::configure_guard("trace/drain", "panic").unwrap();
        let (warm, hits, computed) = run_spec(&scheduler, Some(&cache), spec);
        assert_eq!((hits, computed), (2, 0), "{id}: every cell reused");
        assert!(warm.cell_faults.is_empty(), "{id}: {:?}", warm.cell_faults);
        assert_eq!(warm.render(Format::Csv), cold.render(Format::Csv), "{id}: same artifact");
    }
}
