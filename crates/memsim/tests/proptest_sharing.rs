//! Equivalence suite for the dense page-sharing reduction: for arbitrary traces on P
//! processors, folding the per-processor `DenseSet` reductions onto every Q that
//! divides P must give the report a straightforward `BTreeSet` recomputation gives
//! over the concatenated streams of each group of P/Q processors.  The layouts cover
//! objects that straddle units, a nonzero `base_offset`, and reports cut short of the
//! layout's last unit.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use memsim::{processor_unit_sets, PageSharingReport};
use smtrace::{DenseSet, ObjectLayout, ProgramTrace, TraceBuilder};

/// One processor's units read, units written and objects written, as `BTreeSet`s.
#[derive(Default)]
struct OracleSets {
    read_units: BTreeSet<usize>,
    write_units: BTreeSet<usize>,
    written_objects: BTreeSet<usize>,
}

/// The sets of the processor that runs, one after the other, every interval's streams
/// of processors `procs` of `trace`.
fn oracle_sets(
    trace: &ProgramTrace,
    procs: std::ops::Range<usize>,
    layout: &ObjectLayout,
    unit_bytes: usize,
) -> OracleSets {
    let mut sets = OracleSets::default();
    for interval in &trace.intervals {
        for a in procs.clone().flat_map(|p| interval.accesses[p].iter().copied()) {
            let (first, last) = layout.units_of(a.object(), unit_bytes);
            if a.is_write() {
                sets.written_objects.insert(a.object());
                sets.write_units.extend(first..=last);
            } else {
                sets.read_units.extend(first..=last);
            }
        }
    }
    sets
}

/// `members` as a `DenseSet` grown past them: the trailing zero words must not affect
/// equality with a set that never grew that far.
fn padded(members: &BTreeSet<usize>) -> DenseSet {
    let grown = |last: usize| members.iter().copied().chain([last]).collect::<DenseSet>();
    grown(10_000).intersection(&grown(10_001))
}

/// Sharers, writers and the falsely-shared count over `num_units` units: a unit is
/// falsely shared when at least two processors write it and none of its writers wrote
/// an object that another processor also wrote.
fn oracle_report(groups: &[OracleSets], num_units: usize) -> (Vec<u32>, Vec<u32>, usize) {
    let mut sharers = vec![0u32; num_units];
    let mut writers = vec![0u32; num_units];
    for sets in groups {
        for &u in sets.read_units.union(&sets.write_units) {
            if u < num_units {
                sharers[u] += 1;
            }
        }
        for &u in &sets.write_units {
            if u < num_units {
                writers[u] += 1;
            }
        }
    }
    let mut writer_count: BTreeMap<usize, u32> = BTreeMap::new();
    for sets in groups {
        for &o in &sets.written_objects {
            *writer_count.entry(o).or_insert(0) += 1;
        }
    }
    let falsely_shared = (0..num_units)
        .filter(|&u| {
            writers[u] >= 2
                && !groups.iter().any(|sets| {
                    sets.write_units.contains(&u)
                        && sets.written_objects.iter().any(|o| writer_count[o] >= 2)
                })
        })
        .count();
    (sharers, writers, falsely_shared)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn folded_dense_report_matches_a_btreeset_recomputation_over_the_group_streams(
        procs in 1usize..9,
        shape in (1usize..90, 0usize..4, 0usize..3, 0usize..5000, 0usize..4),
        events in prop::collection::vec((0usize..100, 0usize..8, 0usize..90, any::<bool>()), 1..300),
    ) {
        let (num_objects, size_pick, unit_pick, base_offset, units_cut) = shape;
        // Objects smaller than, straddling, and larger than the unit.
        let object_size = [24usize, 96, 680, 1000][size_pick];
        let unit_bytes = [128usize, 512, 4096][unit_pick];
        let layout = ObjectLayout::with_offset(num_objects, object_size, base_offset);
        // Cut the report short of the layout's units (or run past them) so units at
        // and beyond `num_units` are exercised.
        let num_units = (layout.num_units(unit_bytes) + 1).saturating_sub(units_cut);

        let mut builder = TraceBuilder::new(layout.clone(), procs);
        for (kind, proc, object, write) in events {
            let (proc, object) = (proc % procs, object % num_objects);
            match (kind, write) {
                (0..=94, true) => builder.write(proc, object),
                (0..=94, false) => builder.read(proc, object),
                _ => builder.barrier(),
            }
        }
        builder.barrier();
        let trace = builder.finish();
        let per_proc = processor_unit_sets(&trace, &layout, unit_bytes);

        for q in (1..=procs).filter(|&q| procs.is_multiple_of(q)) {
            let group = procs / q;
            let oracle: Vec<OracleSets> = (0..q)
                .map(|k| oracle_sets(&trace, k * group..(k + 1) * group, &layout, unit_bytes))
                .collect();
            // The dense group unions hold exactly the oracle's members.
            for (k, sets) in oracle.iter().enumerate() {
                let mut folded = per_proc[k * group].clone();
                for other in &per_proc[k * group + 1..(k + 1) * group] {
                    folded.union_with(other);
                }
                prop_assert_eq!(&folded.read_units, &padded(&sets.read_units));
                prop_assert_eq!(&folded.write_units, &padded(&sets.write_units));
                prop_assert_eq!(&folded.written_objects, &padded(&sets.written_objects));
            }
            let report = PageSharingReport::folded(&per_proc, q, num_units, unit_bytes);
            let (sharers, writers, falsely_shared) = oracle_report(&oracle, num_units);
            prop_assert_eq!(report.num_units, num_units);
            prop_assert_eq!(report.unit_bytes, unit_bytes);
            prop_assert_eq!(report.sharers, sharers);
            prop_assert_eq!(report.writers, writers);
            prop_assert_eq!(report.falsely_shared_units, falsely_shared);
        }
    }
}
