//! Per-interval page write history: the intermediate representation both protocol
//! simulators consume.
//!
//! For every synchronization interval and every processor, we need to know which pages
//! the processor read, which it wrote, and *how many bytes* of each page it modified
//! (the diff size).  The history can be produced two ways with bit-identical results:
//!
//! * [`PageWriteHistory::build`] reduces a materialized [`smtrace::ProgramTrace`]
//!   (kept for analyses that re-read one trace under several layouts);
//! * [`crate::PageHistorySink`] accumulates the same reduction interval-by-interval
//!   straight from an application's `stream_*` entry points — no materialized trace —
//!   and can reduce at several page granularities in one pass, so the same run can be
//!   evaluated at 4 KB DSM pages and 16 KB hardware pages without retracing.
//!
//! The per-interval page sets are flat sorted vectors, not maps.  The sink marks each
//! accessed object in a per-processor read or write bitset; at the barrier, draining
//! the bitsets yields the interval's distinct object ids in ascending order, from
//! which one pass emits the (page, count) / (page, bytes) runs in page order, because
//! consecutive object ids occupy non-decreasing page ranges.  Two accounting rules
//! both producers share (they were bugs in the original nested-map reduction):
//!
//! * `reads` counts **distinct objects** read on a page, not raw accesses — re-reading
//!   a particle ten times in an interval is still one object on that page;
//! * an object straddling a page boundary contributes to each page **only the bytes
//!   that land on that page** ([`object_bytes_on_page`]), so per-page diff bytes sum to
//!   the object size instead of multiplying by the number of pages touched.

use smtrace::{ObjectLayout, ProgramTrace};

use crate::sink::PageHistorySink;

/// Distinct objects read on one page by one processor in one interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageRead {
    /// Page number.
    pub page: u32,
    /// Number of distinct objects read on the page.
    pub objects: u32,
}

/// Diff bytes produced for one page by one processor in one interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageWrite {
    /// Page number.
    pub page: u32,
    /// Bytes modified on the page (the size of the diff the processor would create).
    pub bytes: u64,
}

/// Pages read and written by one processor during one interval, with per-page modified
/// byte counts.  Both vectors are sorted by page and hold one entry per touched page.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalPageSets {
    /// Pages the processor read (distinct objects per page, sorted by page).
    pub reads: Vec<PageRead>,
    /// Pages the processor wrote (diff bytes per page, sorted by page).
    pub writes: Vec<PageWrite>,
    /// Number of object accesses (compute-work proxy).
    pub accesses: u64,
}

impl IntervalPageSets {
    /// Diff bytes the processor produced for `page` in this interval (0 if unwritten).
    pub fn write_bytes_on(&self, page: usize) -> u64 {
        self.writes
            .binary_search_by_key(&(page as u32), |w| w.page)
            .map(|i| self.writes[i].bytes)
            .unwrap_or(0)
    }

    /// Distinct objects the processor read on `page` in this interval (0 if unread).
    pub fn read_objects_on(&self, page: usize) -> u32 {
        self.reads
            .binary_search_by_key(&(page as u32), |r| r.page)
            .map(|i| self.reads[i].objects)
            .unwrap_or(0)
    }

    /// The pages the processor touched (read or written) in this interval, each exactly
    /// once, in ascending order — a merge of the two sorted page vectors.
    pub fn touched_pages(&self) -> TouchedPages<'_> {
        TouchedPages { sets: self, read_idx: 0, write_idx: 0 }
    }

    /// Fold ascending, deduplicated object ids into the per-page vectors.
    ///
    /// Because objects are contiguous and non-overlapping, object `i + 1`'s first page
    /// is never below object `i`'s last page, so appending-with-tail-merge keeps both
    /// vectors sorted and unique in one pass.  Pages at or beyond `num_pages` (object
    /// ids outside the evaluated layout) are dropped, mirroring the simulators'
    /// historical `page < num_pages` filter.
    pub(crate) fn accumulate(
        &mut self,
        read_objects: impl IntoIterator<Item = usize>,
        write_objects: impl IntoIterator<Item = usize>,
        layout: &ObjectLayout,
        page_bytes: usize,
        num_pages: usize,
    ) {
        for object in read_objects {
            let (first, last) = layout.units_of(object, page_bytes);
            for page in first..=last {
                if page >= num_pages {
                    break;
                }
                match self.reads.last_mut() {
                    Some(r) if r.page as usize == page => r.objects += 1,
                    _ => self.reads.push(PageRead { page: page as u32, objects: 1 }),
                }
            }
        }
        for object in write_objects {
            let (first, last) = layout.units_of(object, page_bytes);
            for page in first..=last {
                if page >= num_pages {
                    break;
                }
                let bytes = object_bytes_on_page(layout, object, page, page_bytes);
                match self.writes.last_mut() {
                    Some(w) if w.page as usize == page => w.bytes += bytes,
                    _ => self.writes.push(PageWrite { page: page as u32, bytes }),
                }
            }
        }
    }
}

/// Iterator over the union of a processor's read and written pages (ascending, unique);
/// see [`IntervalPageSets::touched_pages`].
#[derive(Debug)]
pub struct TouchedPages<'a> {
    sets: &'a IntervalPageSets,
    read_idx: usize,
    write_idx: usize,
}

impl Iterator for TouchedPages<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let read = self.sets.reads.get(self.read_idx).map(|r| r.page);
        let write = self.sets.writes.get(self.write_idx).map(|w| w.page);
        match (read, write) {
            (None, None) => None,
            (Some(r), None) => {
                self.read_idx += 1;
                Some(r)
            }
            (None, Some(w)) => {
                self.write_idx += 1;
                Some(w)
            }
            (Some(r), Some(w)) => {
                if r <= w {
                    self.read_idx += 1;
                }
                if w <= r {
                    self.write_idx += 1;
                }
                Some(r.min(w))
            }
        }
    }
}

/// The bytes of `object` that fall on `page`: the overlap of the object's byte range
/// with the page's byte range.
///
/// This is the per-page diff attribution both history producers (and the map-based
/// executable spec beside the equivalence tests) share: a straddling object charges
/// each page only its own slice, so the slices sum to the object size.
pub fn object_bytes_on_page(
    layout: &ObjectLayout,
    object: usize,
    page: usize,
    page_bytes: usize,
) -> u64 {
    let first = layout.first_byte(object);
    let last = layout.last_byte(object);
    let page_start = page * page_bytes;
    let page_end = page_start + page_bytes - 1;
    let lo = first.max(page_start);
    let hi = last.min(page_end);
    debug_assert!(lo <= hi, "object {object} does not touch page {page}");
    (hi - lo + 1) as u64
}

/// The full reduction of a trace: `intervals[t][p]` is processor `p`'s page activity in
/// interval `t`.  Every interval ends at a barrier, so the run's barrier count is
/// `intervals.len()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageWriteHistory {
    /// Page size in bytes used for the reduction.
    pub page_bytes: usize,
    /// Number of pages covering the object array.
    pub num_pages: usize,
    /// Number of processors.
    pub num_procs: usize,
    /// Per-interval, per-processor page sets.
    pub intervals: Vec<Vec<IntervalPageSets>>,
}

impl PageWriteHistory {
    /// Reduce `trace` to page granularity under `layout` and `page_bytes`.
    ///
    /// This is the materialized-trace entry point; it replays the trace through a
    /// [`PageHistorySink`], so it is the same reduction the streaming path performs.
    pub fn build(trace: &ProgramTrace, layout: &ObjectLayout, page_bytes: usize) -> Self {
        let mut sink = PageHistorySink::new(layout.clone(), trace.num_procs, page_bytes);
        trace.replay_into(&mut sink);
        sink.finish()
    }

    /// The history of the run cut after its first `len` intervals: exactly what
    /// [`PageWriteHistory::build`] gives for the trace's first `len` intervals, since
    /// intervals reduce independently.
    pub fn prefix(&self, len: usize) -> PageWriteHistory {
        let len = len.min(self.intervals.len());
        PageWriteHistory { intervals: self.intervals[..len].to_vec(), ..*self }
    }

    /// Total object accesses performed by processor `p` across the run.
    pub fn proc_accesses(&self, p: usize) -> u64 {
        self.intervals.iter().map(|iv| iv[p].accesses).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smtrace::TraceBuilder;

    #[test]
    fn history_separates_reads_and_writes_per_page() {
        // 128 objects of 64 B = 2 pages of 4 KB.
        let layout = ObjectLayout::new(128, 64);
        let mut b = TraceBuilder::new(layout.clone(), 2);
        b.write(0, 0);
        b.write(0, 1);
        b.read(0, 100);
        b.write(1, 64);
        b.barrier();
        let trace = b.finish();
        let h = PageWriteHistory::build(&trace, &layout, 4096);
        assert_eq!(h.num_pages, 2);
        assert_eq!(h.intervals.len(), 1);
        let p0 = &h.intervals[0][0];
        let p1 = &h.intervals[0][1];
        // Processor 0 wrote two objects on page 0 (128 bytes of diff) and read page 1.
        assert_eq!(p0.write_bytes_on(0), 128);
        assert_eq!(p0.read_objects_on(1), 1);
        assert_eq!(p0.accesses, 3);
        // Processor 1 wrote one object on page 1.
        assert_eq!(p1.write_bytes_on(1), 64);
        assert_eq!(h.intervals.len(), 1);
    }

    #[test]
    fn duplicate_writes_to_one_object_count_once_in_the_diff() {
        let layout = ObjectLayout::new(64, 64);
        let mut b = TraceBuilder::new(layout.clone(), 1);
        for _ in 0..10 {
            b.write(0, 5);
        }
        b.barrier();
        let trace = b.finish();
        let h = PageWriteHistory::build(&trace, &layout, 4096);
        assert_eq!(h.intervals[0][0].write_bytes_on(0), 64);
        assert_eq!(h.proc_accesses(0), 10);
    }

    #[test]
    fn duplicate_reads_of_one_object_count_once_per_page() {
        // Regression test: `reads` is documented as *distinct objects read on that
        // page*; the original reduction counted raw accesses, so ten re-reads of one
        // molecule inflated the read-fault pressure tenfold.
        let layout = ObjectLayout::new(64, 64);
        let mut b = TraceBuilder::new(layout.clone(), 1);
        for _ in 0..10 {
            b.read(0, 5);
        }
        b.read(0, 6);
        b.barrier();
        let trace = b.finish();
        let h = PageWriteHistory::build(&trace, &layout, 4096);
        let sets = &h.intervals[0][0];
        assert_eq!(sets.read_objects_on(0), 2, "objects 5 and 6, regardless of re-reads");
        assert_eq!(sets.accesses, 11, "raw access count is tracked separately");
    }

    #[test]
    fn diff_bytes_never_exceed_the_page_size() {
        // 256 objects of 64 B on one 4 KB page region -> writes to 64+ objects of one
        // page cap at 4096 bytes (objects are disjoint, so exact per-page attribution
        // can never exceed the page).
        let layout = ObjectLayout::new(256, 64);
        let mut b = TraceBuilder::new(layout.clone(), 1);
        for o in 0..64 {
            b.write(0, o);
        }
        b.barrier();
        let trace = b.finish();
        let h = PageWriteHistory::build(&trace, &layout, 4096);
        assert_eq!(h.intervals[0][0].write_bytes_on(0), 4096);
    }

    #[test]
    fn straddling_objects_split_their_bytes_across_pages() {
        // Regression test: 680-byte molecules, 4 KB pages.  Object 6 occupies bytes
        // 4080..=4759, i.e. 16 bytes on page 0 and 664 bytes on page 1.  The original
        // reduction charged the full 680 bytes to *both* pages.
        let layout = ObjectLayout::new(12, 680);
        assert_eq!(object_bytes_on_page(&layout, 6, 0, 4096), 16);
        assert_eq!(object_bytes_on_page(&layout, 6, 1, 4096), 664);
        let mut b = TraceBuilder::new(layout.clone(), 1);
        b.write(0, 6);
        b.barrier();
        let trace = b.finish();
        let h = PageWriteHistory::build(&trace, &layout, 4096);
        let w = &h.intervals[0][0];
        assert_eq!(w.write_bytes_on(0), 16);
        assert_eq!(w.write_bytes_on(1), 664);
        assert_eq!(w.write_bytes_on(0) + w.write_bytes_on(1), 680);
    }

    #[test]
    fn huge_objects_charge_whole_interior_pages() {
        // A 10 KB object over 4 KB pages covers page 0 partially or fully depending on
        // its offset; object 0 starts page-aligned, so pages 0 and 1 are fully covered
        // and page 2 gets the 2 KB tail.
        let layout = ObjectLayout::new(2, 10 * 1024);
        let mut b = TraceBuilder::new(layout.clone(), 1);
        b.write(0, 0);
        b.barrier();
        let trace = b.finish();
        let h = PageWriteHistory::build(&trace, &layout, 4096);
        let w = &h.intervals[0][0];
        assert_eq!(w.write_bytes_on(0), 4096);
        assert_eq!(w.write_bytes_on(1), 4096);
        assert_eq!(w.write_bytes_on(2), 2048);
    }

    #[test]
    fn touched_pages_merges_reads_and_writes() {
        let layout = ObjectLayout::new(64 * 4, 64);
        let mut b = TraceBuilder::new(layout.clone(), 1);
        b.read(0, 0); // page 0
        b.write(0, 64); // page 1
        b.read(0, 128); // page 2
        b.write(0, 128); // page 2 again (read + write)
        b.barrier();
        let trace = b.finish();
        let h = PageWriteHistory::build(&trace, &layout, 4096);
        let touched: Vec<u32> = h.intervals[0][0].touched_pages().collect();
        assert_eq!(touched, vec![0, 1, 2]);
    }

    #[test]
    fn prefix_equals_the_build_of_the_trace_prefix() {
        let layout = ObjectLayout::new(128, 64);
        let mut b = TraceBuilder::new(layout.clone(), 2);
        b.write(0, 0);
        b.read(1, 70);
        b.barrier();
        b.barrier(); // an empty interval
        b.write(1, 127);
        b.barrier();
        let trace = b.finish();
        let history = PageWriteHistory::build(&trace, &layout, 4096);
        for len in 0..=trace.intervals.len() {
            let prefix = ProgramTrace {
                layout: layout.clone(),
                num_procs: 2,
                intervals: trace.intervals[..len].to_vec(),
            };
            let cut = history.prefix(len);
            assert_eq!(cut, PageWriteHistory::build(&prefix, &layout, 4096), "len {len}");
            assert_eq!(cut.intervals.len(), len);
        }
    }

    #[test]
    fn per_processor_totals_sum_over_intervals() {
        let layout = ObjectLayout::new(64, 64);
        let mut b = TraceBuilder::new(layout.clone(), 2);
        b.write(0, 0);
        b.barrier();
        b.write(0, 1);
        b.read(0, 2);
        b.barrier();
        let trace = b.finish();
        let h = PageWriteHistory::build(&trace, &layout, 4096);
        assert_eq!(h.proc_accesses(0), 3);
        assert_eq!(h.proc_accesses(1), 0);
    }
}
