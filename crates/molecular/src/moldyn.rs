//! Moldyn — molecular dynamics with an interaction list (Chaos benchmark, Category 2).
//!
//! The computational structure mirrors the non-bonded force calculation of CHARMM: all
//! pairs of molecules within a cutoff radius are kept in an **interaction list** that is
//! rebuilt every few time steps; each time step iterates over the list, computing a
//! Lennard-Jones force per pair and updating *both* partners.  The molecule array is
//! block partitioned: pair (i, j) is handled by the owner of `i`, so reads and partner
//! updates reach into other processors' blocks — which is where the false sharing and
//! the scattered reads come from when the array order is random.
//!
//! Because molecule reordering is not constrained by any computation partition, the
//! whole fix is to reorder the molecule array and remap the interaction list.  The
//! paper's guidance: column ordering on page-based software DSM, Hilbert on hardware
//! shared memory.

use reorder::{reorder_by_method, Method, Reordering};
use smtrace::{ObjectLayout, ProgramTrace, ShardSet, TraceBuilder, TraceSink};

use crate::cellgrid::CellGrid;

/// Reusable buffers for the sharded traced path: per-virtual-processor pair ranges and
/// per-pair force buffers.  Held across steps by [`Moldyn::stream_steps`].
#[derive(Debug, Default)]
struct ShardScratch {
    ranges: Vec<std::ops::Range<usize>>,
    forces: Vec<Vec<[f64; 3]>>,
}

/// Object size (bytes) of a Moldyn molecule record, from Table 1 of the paper.
pub const MOLECULE_BYTES: usize = 72;

/// One molecule: position, velocity and accumulated force.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Molecule {
    /// Position.
    pub pos: [f64; 3],
    /// Velocity.
    pub vel: [f64; 3],
    /// Force accumulated during the current step.
    pub force: [f64; 3],
}

impl Molecule {
    /// A molecule at rest at `pos`.
    pub fn at_rest(pos: [f64; 3]) -> Self {
        Molecule { pos, vel: [0.0; 3], force: [0.0; 3] }
    }
}

/// Tunable parameters of the Moldyn simulation.
#[derive(Debug, Clone, Copy)]
pub struct MoldynParams {
    /// Side length of the simulation box.
    pub box_side: f64,
    /// Cutoff radius of the non-bonded interaction.
    pub cutoff: f64,
    /// Integration time step.
    pub dt: f64,
    /// Number of time steps between interaction-list rebuilds.
    pub rebuild_interval: usize,
}

impl Default for MoldynParams {
    fn default() -> Self {
        MoldynParams { box_side: 13.0, cutoff: 2.5, dt: 1e-3, rebuild_interval: 20 }
    }
}

/// The Moldyn application state.
#[derive(Debug, Clone)]
pub struct Moldyn {
    /// The molecule array (the object array that data reordering permutes).
    pub molecules: Vec<Molecule>,
    /// Simulation parameters.
    pub params: MoldynParams,
    /// The interaction list: pairs `(i, j)` with `i < j` within the cutoff at the time
    /// of the last rebuild.
    pub pairs: Vec<(u32, u32)>,
    steps_since_rebuild: usize,
}

impl Moldyn {
    /// Create a simulation from molecule positions (the interaction list is built
    /// immediately).
    ///
    /// # Panics
    /// Panics if `positions` is empty.
    pub fn new(positions: &[[f64; 3]], params: MoldynParams) -> Self {
        assert!(!positions.is_empty(), "need at least one molecule");
        let molecules = positions.iter().map(|&p| Molecule::at_rest(p)).collect();
        let mut sim = Moldyn { molecules, params, pairs: Vec::new(), steps_since_rebuild: 0 };
        sim.rebuild_interaction_list();
        sim
    }

    /// The paper's input scale: `n` molecules on a jittered lattice at liquid density,
    /// stored in random order.
    pub fn lattice(n: usize, seed: u64, params: MoldynParams) -> Self {
        let positions = workloads::cubic_lattice(n, params.box_side, 0.25, seed);
        Moldyn::new(&positions, params)
    }

    /// Number of molecules.
    pub fn num_molecules(&self) -> usize {
        self.molecules.len()
    }

    /// Object-array layout for the address-space analyses (72-byte records, Table 1).
    pub fn layout(&self) -> ObjectLayout {
        ObjectLayout::new(self.molecules.len(), MOLECULE_BYTES)
    }

    /// Block partition: molecule `i` is owned by processor `i * P / n` — the simple
    /// static partition Category-2 applications use.
    /// Invariant: a 1-processor trace is the processor-order concatenation of a P-processor one.
    pub fn owner_of(&self, molecule: usize, num_procs: usize) -> usize {
        molecule * num_procs / self.molecules.len()
    }

    /// Rebuild the interaction list from the current positions using a cell grid.
    /// Molecules are walked in index (owner) order, and each emits its partners
    /// `j > i` from the neighbourhood of its cell as one row sorted by `j`, so the list
    /// comes out sorted by `(i, j)` — the Chaos code's iteration order over its block —
    /// without a global sort.
    pub fn rebuild_interaction_list(&mut self) {
        let positions: Vec<[f64; 3]> = self.molecules.iter().map(|m| m.pos).collect();
        let grid = CellGrid::build(&positions, self.params.box_side, self.params.cutoff);
        let cutoff2 = self.params.cutoff * self.params.cutoff;
        let mut pairs = std::mem::take(&mut self.pairs);
        pairs.clear();
        for (i, (pi, &cell)) in positions.iter().zip(&grid.cell_of).enumerate() {
            let i = i as u32;
            let row = pairs.len();
            for n in grid.neighborhood(cell as usize) {
                for &j in &grid.members[n] {
                    if j <= i {
                        continue;
                    }
                    let pj = positions[j as usize];
                    let d2: f64 = (0..3).map(|d| (pi[d] - pj[d]).powi(2)).sum();
                    if d2 < cutoff2 {
                        pairs.push((i, j));
                    }
                }
            }
            pairs[row..].sort_unstable();
        }
        self.pairs = pairs;
        self.steps_since_rebuild = 0;
    }

    /// Apply a data reordering to the molecule array and remap the interaction list,
    /// keeping it sorted by `(owner, partner)`: the remapped pairs are counting-sorted
    /// by their new owner, then each owner's row is sorted.
    pub fn reorder(&mut self, method: Method) -> Reordering {
        let reordering = reorder_by_method(method, &mut self.molecules, 3, |m, d| m.pos[d]);
        let mut row_start = vec![0usize; self.molecules.len() + 1];
        for (a, b) in self.pairs.iter_mut() {
            let (x, y) = (
                reordering.remap_index(*a as usize) as u32,
                reordering.remap_index(*b as usize) as u32,
            );
            (*a, *b) = (x.min(y), x.max(y));
            row_start[*a as usize + 1] += 1;
        }
        for i in 1..row_start.len() {
            row_start[i] += row_start[i - 1];
        }
        let mut cursor = row_start.clone();
        let mut sorted = vec![(0, 0); self.pairs.len()];
        for &(a, b) in &self.pairs {
            sorted[cursor[a as usize]] = (a, b);
            cursor[a as usize] += 1;
        }
        for row in row_start.windows(2) {
            sorted[row[0]..row[1]].sort_unstable();
        }
        self.pairs = sorted;
        reordering
    }

    /// Lennard-Jones force (truncated at the cutoff) between two positions; returns the
    /// force on the first molecule (the second gets the negation).
    fn pair_force(&self, pi: [f64; 3], pj: [f64; 3]) -> [f64; 3] {
        let cutoff2 = self.params.cutoff * self.params.cutoff;
        let mut d = [0.0; 3];
        let mut r2 = 0.0;
        for k in 0..3 {
            d[k] = pi[k] - pj[k];
            r2 += d[k] * d[k];
        }
        if r2 >= cutoff2 || r2 < 1e-12 {
            return [0.0; 3];
        }
        // LJ with sigma = 1, epsilon = 1: F = 24 (2 r^-14 - r^-8) * d.
        let inv_r2 = 1.0 / r2;
        let inv_r6 = inv_r2 * inv_r2 * inv_r2;
        let scalar = 24.0 * inv_r2 * inv_r6 * (2.0 * inv_r6 - 1.0);
        [d[0] * scalar, d[1] * scalar, d[2] * scalar]
    }

    fn integrate(&mut self, range: std::ops::Range<usize>) {
        let dt = self.params.dt;
        for m in &mut self.molecules[range] {
            for k in 0..3 {
                m.vel[k] += m.force[k] * dt;
                m.pos[k] += m.vel[k] * dt;
                // Reflective walls keep the box size stable over long runs.
                if m.pos[k] < 0.0 {
                    m.pos[k] = -m.pos[k];
                    m.vel[k] = -m.vel[k];
                } else if m.pos[k] > self.params.box_side {
                    m.pos[k] = 2.0 * self.params.box_side - m.pos[k];
                    m.vel[k] = -m.vel[k];
                }
            }
        }
    }

    fn clear_forces(&mut self) {
        for m in &mut self.molecules {
            m.force = [0.0; 3];
        }
    }

    fn maybe_rebuild(&mut self) {
        self.steps_since_rebuild += 1;
        if self.steps_since_rebuild >= self.params.rebuild_interval {
            self.rebuild_interaction_list();
        }
    }

    /// One sequential time step.
    pub fn step_sequential(&mut self) {
        self.clear_forces();
        // Take the pair list out of `self` for the sweep (no per-step clone).
        let pairs = std::mem::take(&mut self.pairs);
        for &(i, j) in &pairs {
            let f = self.pair_force(self.molecules[i as usize].pos, self.molecules[j as usize].pos);
            for k in 0..3 {
                self.molecules[i as usize].force[k] += f[k];
                self.molecules[j as usize].force[k] -= f[k];
            }
        }
        self.pairs = pairs;
        self.integrate(0..self.molecules.len());
        self.maybe_rebuild();
    }

    /// One traced time step over `num_procs` virtual processors, recorded into
    /// `builder` access by access.  Two intervals per step: force computation (owner
    /// of `i` reads both molecules of each of its pairs and writes both), then
    /// integration (each processor writes its own block).
    ///
    /// This serial path is the oracle, not a production path: production code traces
    /// through the sharded [`Moldyn::stream_steps`], which
    /// `sharded_stream_matches_the_serial_traced_spec` and the bench crate's
    /// `proptest_gen.rs` pin to it bit for bit.
    pub fn step_traced(&mut self, num_procs: usize, builder: &mut TraceBuilder) {
        assert_eq!(builder.num_procs(), num_procs, "sink must match the processor count");
        self.clear_forces();
        // Interval 1: force computation over the interaction list (the pair list is
        // taken out of `self` for the sweep — no per-step clone).
        let pairs = std::mem::take(&mut self.pairs);
        for &(i, j) in &pairs {
            let proc = self.owner_of(i as usize, num_procs);
            builder.read(proc, i as usize);
            builder.read(proc, j as usize);
            let f = self.pair_force(self.molecules[i as usize].pos, self.molecules[j as usize].pos);
            for k in 0..3 {
                self.molecules[i as usize].force[k] += f[k];
                self.molecules[j as usize].force[k] -= f[k];
            }
            builder.write(proc, i as usize);
            builder.write(proc, j as usize);
        }
        self.pairs = pairs;
        builder.barrier();
        // Interval 2: integration of each processor's own block.
        let n = self.molecules.len();
        for proc in 0..num_procs {
            let start = proc * n / num_procs;
            let end = (proc + 1) * n / num_procs;
            for i in start..end {
                builder.read(proc, i);
                builder.write(proc, i);
            }
        }
        self.integrate(0..n);
        builder.barrier();
        self.maybe_rebuild();
    }

    /// One sharded traced time step: the same computation and per-processor access
    /// streams as [`Moldyn::step_traced`] (the executable spec this path is pinned
    /// to), but each virtual processor sweeps its own contiguous range of the sorted
    /// pair list into its own shard through [`ShardSet::run_interval`].  The pair
    /// forces are computed inside the tasks and *applied* serially in global pair
    /// order, so the floating-point accumulation order — and therefore every
    /// subsequent rebuild of the interaction list — is bit-identical to the serial
    /// sweep.
    fn step_traced_sharded<S: TraceSink>(
        &mut self,
        shards: &mut ShardSet,
        scratch: &mut ShardScratch,
        sink: &mut S,
    ) {
        let num_procs = shards.num_procs();
        self.clear_forces();
        let n = self.molecules.len();
        // Owner of pair (i, j) is the owner of i, which is monotone in i; the pair
        // list is sorted, so each processor's pairs form one contiguous range.
        scratch.ranges.clear();
        let mut start = 0usize;
        for p in 0..num_procs {
            let end = self.pairs.partition_point(|&(i, _)| (i as usize) * num_procs / n <= p);
            scratch.ranges.push(start..end);
            start = end;
        }
        scratch.forces.resize_with(num_procs, Vec::new);
        // Interval 1: force computation over the interaction list.
        let work = scratch.ranges.iter().cloned().zip(&mut scratch.forces);
        shards.run_interval(sink, work, |shard, (range, forces)| {
            forces.clear();
            for &(i, j) in &self.pairs[range] {
                shard.read(i as usize);
                shard.read(j as usize);
                forces.push(
                    self.pair_force(self.molecules[i as usize].pos, self.molecules[j as usize].pos),
                );
                shard.write(i as usize);
                shard.write(j as usize);
            }
        });
        // Apply the precomputed pair forces in global pair order (the ranges tile the
        // sorted list), reproducing the serial sweep's accumulation order exactly.
        for (range, forces) in scratch.ranges.iter().zip(&scratch.forces) {
            for (&(i, j), f) in self.pairs[range.clone()].iter().zip(forces) {
                for k in 0..3 {
                    self.molecules[i as usize].force[k] += f[k];
                    self.molecules[j as usize].force[k] -= f[k];
                }
            }
        }
        // Interval 2: integration of each processor's own block.
        let blocks = (0..num_procs).map(|p| p * n / num_procs..(p + 1) * n / num_procs);
        shards.run_interval(sink, blocks, |shard, block| {
            for i in block {
                shard.read(i);
                shard.write(i);
            }
        });
        self.integrate(0..n);
        self.maybe_rebuild();
    }

    /// Run `steps` traced time steps on `num_procs` virtual processors, materializing
    /// the trace (kept for the DSM interval analyses that re-read it under several
    /// layouts).
    pub fn trace_steps(&mut self, steps: usize, num_procs: usize) -> ProgramTrace {
        let mut builder = TraceBuilder::new(self.layout(), num_procs);
        self.stream_steps(steps, &mut builder);
        builder.finish()
    }

    /// Run `steps` traced time steps, streaming the accesses into `sink` without
    /// materializing a trace.  Generation is sharded: every interval runs through
    /// [`ShardSet::run_interval`], one task per virtual processor, so every downstream
    /// counter is bit-identical to looping [`Moldyn::step_traced`] over the same sink.
    pub fn stream_steps<S: TraceSink>(&mut self, steps: usize, sink: &mut S) {
        let mut shards = ShardSet::new(sink.num_procs());
        let mut scratch = ShardScratch::default();
        for _ in 0..steps {
            self.step_traced_sharded(&mut shards, &mut scratch, sink);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(n: usize, seed: u64) -> Moldyn {
        Moldyn::lattice(
            n,
            seed,
            MoldynParams { box_side: 8.0, cutoff: 2.0, dt: 1e-4, rebuild_interval: 5 },
        )
    }

    /// The sort-based construction the owner-order rebuild replaced: every pair from a
    /// cell-by-cell scan, then one global sort.  Kept as the oracle.
    fn pairs_by_global_sort(sim: &Moldyn) -> Vec<(u32, u32)> {
        let positions: Vec<[f64; 3]> = sim.molecules.iter().map(|m| m.pos).collect();
        let grid = CellGrid::build(&positions, sim.params.box_side, sim.params.cutoff);
        let cutoff2 = sim.params.cutoff * sim.params.cutoff;
        let mut pairs = Vec::new();
        for c in 0..grid.num_cells() {
            for &i in &grid.members[c] {
                for n in grid.neighborhood(c) {
                    for &j in &grid.members[n] {
                        if j <= i {
                            continue;
                        }
                        let pi = positions[i as usize];
                        let pj = positions[j as usize];
                        let d2: f64 = (0..3).map(|d| (pi[d] - pj[d]).powi(2)).sum();
                        if d2 < cutoff2 {
                            pairs.push((i, j));
                        }
                    }
                }
            }
        }
        pairs.sort_unstable();
        pairs
    }

    /// The sort-based remap the counting sort replaced: remap, orient, sort globally.
    fn remapped_by_global_sort(pairs: &[(u32, u32)], reordering: &Reordering) -> Vec<(u32, u32)> {
        let mut out: Vec<(u32, u32)> = pairs
            .iter()
            .map(|&(a, b)| {
                let (x, y) = (
                    reordering.remap_index(a as usize) as u32,
                    reordering.remap_index(b as usize) as u32,
                );
                (x.min(y), x.max(y))
            })
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn owner_order_interaction_list_equals_the_global_sort() {
        let tight = MoldynParams { box_side: 8.0, cutoff: 2.0, dt: 1e-4, rebuild_interval: 5 };
        for (n, seed, params) in
            [(200, 1, tight), (777, 2, tight), (1500, 3, MoldynParams::default())]
        {
            let sim = Moldyn::lattice(n, seed, params);
            assert!(!sim.pairs.is_empty());
            assert_eq!(sim.pairs, pairs_by_global_sort(&sim), "{n} molecules");
            for method in [Method::Hilbert, Method::Morton, Method::Column, Method::Row] {
                let mut reordered = sim.clone();
                let reordering = reordered.reorder(method);
                let expected = remapped_by_global_sort(&sim.pairs, &reordering);
                assert_eq!(reordered.pairs, expected, "{n} molecules, {method:?}");
                // The remapped list is the list a rebuild finds in the new order.
                assert_eq!(reordered.pairs, pairs_by_global_sort(&reordered), "{method:?}");
                reordered.rebuild_interaction_list();
                assert_eq!(reordered.pairs, expected, "{n} molecules, {method:?} rebuilt");
            }
        }
    }

    #[test]
    fn interaction_list_contains_exactly_the_pairs_within_cutoff() {
        let sim = small(200, 1);
        let cutoff2 = sim.params.cutoff * sim.params.cutoff;
        let mut expected = Vec::new();
        for i in 0..sim.molecules.len() as u32 {
            for j in (i + 1)..sim.molecules.len() as u32 {
                let pi = sim.molecules[i as usize].pos;
                let pj = sim.molecules[j as usize].pos;
                let d2: f64 = (0..3).map(|d| (pi[d] - pj[d]).powi(2)).sum();
                if d2 < cutoff2 {
                    expected.push((i, j));
                }
            }
        }
        expected.sort_unstable();
        assert_eq!(sim.pairs, expected);
    }

    #[test]
    fn traced_and_sequential_physics_agree() {
        let mut a = small(200, 3);
        let mut b = a.clone();
        a.step_sequential();
        let mut builder = TraceBuilder::new(b.layout(), 4);
        b.step_traced(4, &mut builder);
        for (x, y) in a.molecules.iter().zip(&b.molecules) {
            for k in 0..3 {
                assert!((x.pos[k] - y.pos[k]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn momentum_is_conserved_by_pairwise_forces() {
        let mut sim = small(250, 4);
        for _ in 0..3 {
            sim.step_sequential();
        }
        let mut momentum = [0.0f64; 3];
        for m in &sim.molecules {
            for k in 0..3 {
                momentum[k] += m.vel[k];
            }
        }
        for k in 0..3 {
            assert!(momentum[k].abs() < 1e-9, "net momentum {momentum:?}");
        }
    }

    #[test]
    fn reordering_remaps_the_interaction_list_consistently() {
        let mut sim = small(300, 5);
        // Tag each molecule by its original position so we can check pairs still refer
        // to the same physical molecules after reordering.
        let original_positions: Vec<[f64; 3]> = sim.molecules.iter().map(|m| m.pos).collect();
        let original_pairs: std::collections::BTreeSet<(String, String)> = sim
            .pairs
            .iter()
            .map(|&(i, j)| {
                let mut a = format!("{:?}", original_positions[i as usize]);
                let mut b = format!("{:?}", original_positions[j as usize]);
                if a > b {
                    std::mem::swap(&mut a, &mut b);
                }
                (a, b)
            })
            .collect();
        sim.reorder(Method::Column);
        let new_pairs: std::collections::BTreeSet<(String, String)> = sim
            .pairs
            .iter()
            .map(|&(i, j)| {
                let mut a = format!("{:?}", sim.molecules[i as usize].pos);
                let mut b = format!("{:?}", sim.molecules[j as usize].pos);
                if a > b {
                    std::mem::swap(&mut a, &mut b);
                }
                (a, b)
            })
            .collect();
        assert_eq!(original_pairs, new_pairs);
    }

    #[test]
    fn reordering_does_not_change_the_dynamics() {
        let mut a = small(200, 6);
        let mut b = a.clone();
        b.reorder(Method::Hilbert);
        for _ in 0..2 {
            a.step_sequential();
            b.step_sequential();
        }
        // Compare multisets of positions (the arrays are permuted relative to each other).
        let key = |m: &Molecule| {
            (
                (m.pos[0] * 1e9).round() as i64,
                (m.pos[1] * 1e9).round() as i64,
                (m.pos[2] * 1e9).round() as i64,
            )
        };
        let mut ka: Vec<_> = a.molecules.iter().map(key).collect();
        let mut kb: Vec<_> = b.molecules.iter().map(key).collect();
        ka.sort_unstable();
        kb.sort_unstable();
        assert_eq!(ka, kb);
    }

    #[test]
    fn traced_step_emits_two_intervals_per_step() {
        let mut sim = small(128, 7);
        let trace = sim.trace_steps(2, 4);
        assert_eq!(trace.intervals.len(), 4);
        // The integration interval writes every molecule exactly once.
        let writes: usize = trace.intervals[1]
            .accesses
            .iter()
            .map(|s| s.iter().filter(|a| a.is_write()).count())
            .sum();
        assert_eq!(writes, 128);
    }

    #[test]
    fn interaction_list_is_rebuilt_on_schedule() {
        let mut sim = small(100, 8);
        sim.params.rebuild_interval = 2;
        let before = sim.pairs.clone();
        sim.step_sequential();
        assert_eq!(sim.steps_since_rebuild, 1);
        sim.step_sequential();
        assert_eq!(sim.steps_since_rebuild, 0, "list must be rebuilt after 2 steps");
        let _ = before;
    }

    #[test]
    fn block_partition_owner_is_monotonic_and_balanced() {
        let sim = small(160, 9);
        let owners: Vec<usize> = (0..160).map(|i| sim.owner_of(i, 8)).collect();
        for w in owners.windows(2) {
            assert!(w[1] >= w[0]);
        }
        for p in 0..8 {
            assert_eq!(owners.iter().filter(|&&o| o == p).count(), 20);
        }
    }

    /// The sharded parallel traced path must produce the bit-identical trace — and the
    /// bit-identical molecule state — as looping the serial `step_traced` spec, across
    /// enough steps to cross an interaction-list rebuild.
    #[test]
    fn sharded_stream_matches_the_serial_traced_spec() {
        let mut serial = small(300, 21);
        let mut sharded = serial.clone();
        let steps = 6; // rebuild_interval is 5, so the rebuild path is crossed too
        let procs = 4;
        let mut serial_builder = TraceBuilder::new(serial.layout(), procs);
        for _ in 0..steps {
            serial.step_traced(procs, &mut serial_builder);
        }
        let serial_trace = serial_builder.finish();
        let sharded_trace = sharded.trace_steps(steps, procs);
        assert_eq!(serial_trace, sharded_trace);
        assert_eq!(serial.pairs, sharded.pairs);
        for (a, b) in serial.molecules.iter().zip(&sharded.molecules) {
            for k in 0..3 {
                assert_eq!(a.pos[k].to_bits(), b.pos[k].to_bits());
                assert_eq!(a.vel[k].to_bits(), b.vel[k].to_bits());
                assert_eq!(a.force[k].to_bits(), b.force[k].to_bits());
            }
        }
    }

    /// `stream_steps` feeds the DSM page-history sink directly: the streamed reduction
    /// must be bit-identical to materializing the trace and reducing it afterwards.
    #[test]
    fn stream_steps_feeds_the_dsm_page_history_sink() {
        let mut sim = small(200, 11);
        let layout = sim.layout();
        let mut builder = TraceBuilder::new(layout.clone(), 4);
        let mut sink = dsm::PageHistorySink::new(layout.clone(), 4, 1024);
        {
            let mut tee = smtrace::TeeSink::new(&mut builder, &mut sink);
            sim.stream_steps(2, &mut tee);
        }
        let trace = builder.finish();
        let streamed = sink.finish();
        assert_eq!(streamed, dsm::PageWriteHistory::build(&trace, &layout, 1024));
        assert!(streamed.intervals.iter().any(|iv| iv.iter().any(|s| !s.writes.is_empty())));
    }
}
