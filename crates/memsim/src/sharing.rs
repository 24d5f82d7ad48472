//! Page-sharing analysis: the data behind Figures 1, 2, 4 and 5 of the paper.
//!
//! Figure 1 (and Figure 4 after reordering) show *which pages each processor updates*
//! for the 168-particle example; Figures 2 and 5 plot, for the 32 768-particle run, the
//! *number of processors sharing each page* of the particle array, before and after
//! Hilbert reordering.  Both are pure functions of each processor's unit sets over the
//! whole run, which [`ProcessorUnitSetsSink`] reduces as the run streams in (or as a
//! materialized trace is replayed into it).

use smtrace::{Access, ObjectLayout, ProgramTrace, SharingHistogram, TraceSink, UnitAccessSets};

/// The per-page sharing report for one trace at one consistency-unit size.
#[derive(Debug, Clone)]
pub struct PageSharingReport {
    /// Consistency-unit size in bytes the report was computed for.
    pub unit_bytes: usize,
    /// Number of units covering the object array.
    pub num_units: usize,
    /// `sharers[u]` — number of processors that touched unit `u` anywhere in the trace
    /// (Figures 2 and 5 plot exactly this, with writes counted as touching).
    pub sharers: Vec<u32>,
    /// `writers[u]` — number of processors that wrote unit `u`.
    pub writers: Vec<u32>,
    /// Number of units flagged as falsely shared (≥2 sharers, ≥1 writer, disjoint
    /// object sets).
    pub falsely_shared_units: usize,
}

impl PageSharingReport {
    /// Average number of processors sharing a unit, over units touched at least once.
    pub fn mean_sharers(&self) -> f64 {
        let touched: Vec<u32> = self.sharers.iter().copied().filter(|&s| s > 0).collect();
        if touched.is_empty() {
            0.0
        } else {
            touched.iter().map(|&s| f64::from(s)).sum::<f64>() / touched.len() as f64
        }
    }

    /// Average number of processors *writing* a unit, over units written at least once
    /// (the quantity Figures 2/5 are most sensitive to).
    pub fn mean_writers(&self) -> f64 {
        let written: Vec<u32> = self.writers.iter().copied().filter(|&w| w > 0).collect();
        if written.is_empty() {
            0.0
        } else {
            written.iter().map(|&w| f64::from(w)).sum::<f64>() / written.len() as f64
        }
    }

    /// Number of units touched by at least two processors.
    pub fn shared_units(&self) -> usize {
        self.sharers.iter().filter(|&&s| s >= 2).count()
    }

    /// The report for the `procs`-processor machine whose processor `k` runs, one after
    /// the other, the streams of processors `k·P/procs .. (k+1)·P/procs` of the
    /// `P = per_proc.len()` processors [`processor_unit_sets`] reduced: each machine
    /// processor's sets are the union of its group's.  It equals [`page_sharing`] of the
    /// `procs`-processor trace whenever that trace's streams are those concatenations —
    /// a property of the application's partition, which callers must establish.
    /// Units at or beyond `num_units` are ignored.
    ///
    /// # Panics
    /// Panics unless `procs` is positive and divides `per_proc.len()`.
    pub fn folded(
        per_proc: &[UnitAccessSets],
        procs: usize,
        num_units: usize,
        unit_bytes: usize,
    ) -> PageSharingReport {
        assert!(
            procs > 0 && per_proc.len().is_multiple_of(procs),
            "cannot fold {} processors onto {procs}",
            per_proc.len()
        );
        let folded: Vec<UnitAccessSets> = per_proc
            .chunks(per_proc.len() / procs)
            .map(|group| {
                let mut sets = group[0].clone();
                for other in &group[1..] {
                    sets.union_with(other);
                }
                sets
            })
            .collect();
        let hist = SharingHistogram::from_unit_sets(&folded, num_units);
        PageSharingReport {
            unit_bytes,
            num_units,
            sharers: hist.sharers,
            writers: hist.writers,
            falsely_shared_units: hist.falsely_shared.iter().filter(|&&f| f).count(),
        }
    }
}

/// A [`TraceSink`] that reduces a whole run to each processor's [`UnitAccessSets`]:
/// every access folds into its processor's one set as it arrives, whatever interval it
/// falls in, so no access is buffered and no trace is materialized.  Figures 1, 2, 4
/// and 5 stream their runs straight into it.
#[derive(Debug)]
pub struct ProcessorUnitSetsSink {
    layout: ObjectLayout,
    unit_bytes: usize,
    per_proc: Vec<UnitAccessSets>,
}

impl ProcessorUnitSetsSink {
    /// Start a reduction over consistency units of `unit_bytes` bytes for an object
    /// array with the given layout, partitioned over `num_procs` virtual processors.
    ///
    /// # Panics
    /// Panics if `num_procs` or `unit_bytes` is zero.
    pub fn new(layout: ObjectLayout, num_procs: usize, unit_bytes: usize) -> Self {
        assert!(num_procs > 0, "num_procs must be positive");
        assert!(unit_bytes > 0, "unit_bytes must be positive");
        ProcessorUnitSetsSink {
            layout,
            unit_bytes,
            per_proc: vec![UnitAccessSets::default(); num_procs],
        }
    }

    /// Each processor's sets over everything streamed in.
    pub fn finish(self) -> Vec<UnitAccessSets> {
        self.per_proc
    }
}

impl TraceSink for ProcessorUnitSetsSink {
    fn num_procs(&self) -> usize {
        self.per_proc.len()
    }

    fn interval(&mut self, streams: &[&[Access]]) {
        assert_eq!(streams.len(), self.per_proc.len(), "one stream per processor");
        for (sets, stream) in self.per_proc.iter_mut().zip(streams) {
            for &a in *stream {
                sets.add(a, &self.layout, self.unit_bytes);
            }
        }
    }
}

/// Each processor's unit and written-object sets over the whole trace: the trace
/// replayed into a [`ProcessorUnitSetsSink`].
pub fn processor_unit_sets(
    trace: &ProgramTrace,
    layout: &ObjectLayout,
    unit_bytes: usize,
) -> Vec<UnitAccessSets> {
    let mut sink = ProcessorUnitSetsSink::new(layout.clone(), trace.num_procs, unit_bytes);
    trace.replay_into(&mut sink);
    sink.finish()
}

/// Compute the aggregate sharing report over the whole trace: a processor counts as
/// sharing a unit if it touches it in *any* interval.  This matches the paper's figures,
/// which are per-iteration snapshots of a steady-state iteration.
pub fn page_sharing(
    trace: &ProgramTrace,
    layout: &ObjectLayout,
    unit_bytes: usize,
) -> PageSharingReport {
    let per_proc = processor_unit_sets(trace, layout, unit_bytes);
    PageSharingReport::folded(&per_proc, trace.num_procs, layout.num_units(unit_bytes), unit_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smtrace::TraceBuilder;

    /// Build a trace in which each of `procs` processors writes `per_proc` objects
    /// chosen by `assign(p, k) -> object`.
    fn trace_from_assignment(
        n: usize,
        object_size: usize,
        procs: usize,
        per_proc: usize,
        assign: impl Fn(usize, usize) -> usize,
    ) -> ProgramTrace {
        let layout = ObjectLayout::new(n, object_size);
        let mut b = TraceBuilder::new(layout, procs);
        for p in 0..procs {
            for k in 0..per_proc {
                b.write(p, assign(p, k));
            }
        }
        b.barrier();
        b.finish()
    }

    #[test]
    fn random_assignment_shares_every_page_contiguous_assignment_shares_none() {
        // 1024 objects of 64 B = 16 pages of 4 KB; 4 processors, 256 objects each.
        let n = 1024;
        let procs = 4;
        // Scattered (round-robin) assignment: processor p owns objects p, p+4, p+8, ...
        let scattered = trace_from_assignment(n, 64, procs, n / procs, |p, k| p + k * procs);
        // Contiguous (block) assignment after "reordering": processor p owns a block.
        let blocked = trace_from_assignment(n, 64, procs, n / procs, |p, k| p * (n / procs) + k);
        let layout = ObjectLayout::new(n, 64);
        let rep_s = page_sharing(&scattered, &layout, 4096);
        let rep_b = page_sharing(&blocked, &layout, 4096);
        assert_eq!(rep_s.num_units, 16);
        assert!((rep_s.mean_sharers() - procs as f64).abs() < 1e-9);
        assert!((rep_b.mean_sharers() - 1.0).abs() < 1e-9);
        assert_eq!(rep_b.shared_units(), 0);
        assert!(rep_s.falsely_shared_units > 0);
        assert_eq!(rep_b.falsely_shared_units, 0);
    }

    #[test]
    fn sharers_aggregate_across_intervals() {
        let layout = ObjectLayout::new(64, 64);
        let mut b = TraceBuilder::new(layout.clone(), 2);
        b.write(0, 0);
        b.barrier();
        b.write(1, 1); // same 4 KB page, later interval
        b.barrier();
        let t = b.finish();
        let rep = page_sharing(&t, &layout, 4096);
        assert_eq!(rep.sharers[0], 2);
        assert_eq!(rep.writers[0], 2);
    }

    #[test]
    fn mean_writers_ignores_read_only_pages() {
        let layout = ObjectLayout::new(128, 64);
        let mut b = TraceBuilder::new(layout.clone(), 2);
        b.write(0, 0);
        b.read(1, 127);
        b.barrier();
        let t = b.finish();
        let rep = page_sharing(&t, &layout, 4096);
        assert!((rep.mean_writers() - 1.0).abs() < 1e-9);
        assert!(rep.mean_sharers() >= 1.0);
    }
}
