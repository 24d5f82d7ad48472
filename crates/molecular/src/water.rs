//! Water-Spatial — the SPLASH-2 spatial-decomposition water simulation (Category 1).
//!
//! A uniform 3-D grid of cells is imposed on the box; each cell chains together the
//! molecules currently inside it, and each processor owns a physically contiguous block
//! of cells.  To evaluate the intermolecular forces for its molecules, a processor only
//! scans the 27-cell neighbourhood of each of its cells — so reads are physically local
//! by construction, but because the molecule array is stored in random order those
//! physically local molecules are scattered over the whole array in memory.
//!
//! The molecule record is large (680 bytes, Table 1) — bigger than the Origin's 128-byte
//! L2 line — which is why the paper finds reordering gives essentially no improvement on
//! the hardware platform for this application while still helping on page-based software
//! DSM, where a 4–8 KB page holds several molecules.  The record layout below mirrors
//! that size class: per-atom positions, velocities and forces for the three atoms of a
//! water molecule.

use reorder::{reorder_by_method, Method, Reordering};
use smtrace::{ObjectLayout, ProgramTrace, ShardSet, TraceBuilder, TraceSink};

use crate::cellgrid::CellGrid;

/// One molecule's computed step result: `(force, potential)`.
type MoleculeForce = ([f64; 3], f64);

/// Reusable buffers for the sharded traced path: the slab owners, each processor's
/// cell list and `(molecule, force)` outputs, and the scatter target the integrator
/// consumes.  Held across steps by [`WaterSpatial::stream_steps`].
#[derive(Debug, Default)]
struct ShardScratch {
    owners: Vec<usize>,
    cells: Vec<Vec<u32>>,
    outputs: Vec<Vec<(u32, MoleculeForce)>>,
    forces: Vec<MoleculeForce>,
}

/// Object size (bytes) of a Water-Spatial molecule record, from Table 1 of the paper.
pub const WATER_MOLECULE_BYTES: usize = 680;

/// One water molecule: oxygen plus two hydrogens, each with position, velocity and
/// force, plus bookkeeping — a deliberately "fat" record like the original benchmark's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaterMolecule {
    /// Atom positions: `[O, H1, H2]`.
    pub atom_pos: [[f64; 3]; 3],
    /// Atom velocities.
    pub atom_vel: [[f64; 3]; 3],
    /// Atom forces accumulated this step.
    pub atom_force: [[f64; 3]; 3],
    /// Potential energy contribution of this molecule (diagnostic).
    pub potential: f64,
}

impl WaterMolecule {
    /// Create a molecule at rest with its oxygen at `center` and the hydrogens at fixed
    /// offsets (the intramolecular geometry is frozen; only intermolecular forces are
    /// simulated, which is what drives the memory behaviour).
    pub fn at_rest(center: [f64; 3]) -> Self {
        let h_offset = 0.04;
        WaterMolecule {
            atom_pos: [
                center,
                [center[0] + h_offset, center[1] + h_offset, center[2]],
                [center[0] - h_offset, center[1] + h_offset, center[2]],
            ],
            atom_vel: [[0.0; 3]; 3],
            atom_force: [[0.0; 3]; 3],
            potential: 0.0,
        }
    }

    /// Centre (oxygen) position — the coordinate used for cell binning and reordering.
    pub fn center(&self) -> [f64; 3] {
        self.atom_pos[0]
    }
}

/// Tunable parameters of the Water-Spatial simulation.
#[derive(Debug, Clone, Copy)]
pub struct WaterSpatialParams {
    /// Side length of the simulation box.
    pub box_side: f64,
    /// Cutoff radius for intermolecular interactions.
    pub cutoff: f64,
    /// Integration time step.
    pub dt: f64,
}

impl Default for WaterSpatialParams {
    fn default() -> Self {
        WaterSpatialParams { box_side: 12.0, cutoff: 2.2, dt: 5e-4 }
    }
}

/// The Water-Spatial application state.
#[derive(Debug, Clone)]
pub struct WaterSpatial {
    /// The molecule array (the object array that data reordering permutes).
    pub molecules: Vec<WaterMolecule>,
    /// Simulation parameters.
    pub params: WaterSpatialParams,
    /// The cell grid chaining spatially adjacent molecules (rebuilt each step, since
    /// molecules may move between cells).
    pub grid: CellGrid,
}

impl WaterSpatial {
    /// Create a simulation from molecule centre positions.
    ///
    /// # Panics
    /// Panics if `positions` is empty.
    pub fn new(positions: &[[f64; 3]], params: WaterSpatialParams) -> Self {
        assert!(!positions.is_empty(), "need at least one molecule");
        let molecules: Vec<WaterMolecule> =
            positions.iter().map(|&p| WaterMolecule::at_rest(p)).collect();
        let grid = CellGrid::build(positions, params.box_side, params.cutoff);
        WaterSpatial { molecules, params, grid }
    }

    /// The paper's input scale: `n` molecules on a jittered lattice, stored in random
    /// order.
    pub fn lattice(n: usize, seed: u64, params: WaterSpatialParams) -> Self {
        let positions = workloads::cubic_lattice(n, params.box_side, 0.2, seed);
        WaterSpatial::new(&positions, params)
    }

    /// Number of molecules.
    pub fn num_molecules(&self) -> usize {
        self.molecules.len()
    }

    /// Object-array layout for the address-space analyses (680-byte records, Table 1).
    pub fn layout(&self) -> ObjectLayout {
        ObjectLayout::new(self.molecules.len(), WATER_MOLECULE_BYTES)
    }

    /// Apply a data reordering to the molecule array and rebuild the cell grid (the
    /// grid stores molecule indices, so rebuilding is simpler and no more expensive than
    /// remapping).
    pub fn reorder(&mut self, method: Method) -> Reordering {
        let reordering = reorder_by_method(method, &mut self.molecules, 3, |m, d| m.center()[d]);
        let centers: Vec<[f64; 3]> = self.molecules.iter().map(|m| m.center()).collect();
        self.grid.rebuild(&centers);
        reordering
    }

    /// Owner of each cell under a slab decomposition into `num_procs` processors.
    pub fn cell_owners(&self, num_procs: usize) -> Vec<usize> {
        self.grid.partition_slabs(num_procs)
    }

    /// Intermolecular force between two molecules (acting on the first's oxygen), using
    /// a Lennard-Jones interaction between the oxygen sites truncated at the cutoff.
    fn pair_force(&self, a: usize, b: usize) -> ([f64; 3], f64) {
        let pa = self.molecules[a].center();
        let pb = self.molecules[b].center();
        let cutoff2 = self.params.cutoff * self.params.cutoff;
        let mut d = [0.0; 3];
        let mut r2 = 0.0;
        for k in 0..3 {
            d[k] = pa[k] - pb[k];
            r2 += d[k] * d[k];
        }
        if r2 >= cutoff2 || r2 < 1e-12 {
            return ([0.0; 3], 0.0);
        }
        let inv_r2 = 1.0 / r2;
        let inv_r6 = inv_r2 * inv_r2 * inv_r2;
        let scalar = 24.0 * inv_r2 * inv_r6 * (2.0 * inv_r6 - 1.0);
        let potential = 4.0 * inv_r6 * (inv_r6 - 1.0);
        ([d[0] * scalar, d[1] * scalar, d[2] * scalar], potential)
    }

    /// Compute the total force on molecule `m` by scanning the 27-cell neighbourhood of
    /// its cell, calling `read(other)` for every molecule read on the way, in order.
    fn force_on_molecule(&self, m: usize, mut read: impl FnMut(u32)) -> ([f64; 3], f64) {
        let cell = self.grid.cell_of[m] as usize;
        let mut force = [0.0; 3];
        let mut pot = 0.0;
        for n in self.grid.neighborhood(cell) {
            for &other in &self.grid.members[n] {
                if other as usize == m {
                    continue;
                }
                read(other);
                let (f, p) = self.pair_force(m, other as usize);
                for k in 0..3 {
                    force[k] += f[k];
                }
                pot += 0.5 * p;
            }
        }
        (force, pot)
    }

    fn integrate_all(&mut self, forces: &[([f64; 3], f64)]) {
        let dt = self.params.dt;
        let box_side = self.params.box_side;
        for (m, &(f, p)) in self.molecules.iter_mut().zip(forces) {
            m.potential = p;
            for k in 0..3 {
                m.atom_force[0][k] = f[k];
                m.atom_vel[0][k] += f[k] * dt;
                let mut new = m.atom_pos[0][k] + m.atom_vel[0][k] * dt;
                if new < 0.0 {
                    new = -new;
                    m.atom_vel[0][k] = -m.atom_vel[0][k];
                } else if new > box_side {
                    new = 2.0 * box_side - new;
                    m.atom_vel[0][k] = -m.atom_vel[0][k];
                }
                let delta = new - m.atom_pos[0][k];
                // The hydrogens ride rigidly with the oxygen.
                for atom in 0..3 {
                    m.atom_pos[atom][k] += delta;
                    m.atom_vel[atom][k] = m.atom_vel[0][k];
                }
            }
        }
        let centers: Vec<[f64; 3]> = self.molecules.iter().map(|m| m.center()).collect();
        self.grid.rebuild(&centers);
    }

    /// One sequential time step.
    pub fn step_sequential(&mut self) {
        let forces: Vec<([f64; 3], f64)> =
            (0..self.molecules.len()).map(|m| self.force_on_molecule(m, |_| {})).collect();
        self.integrate_all(&forces);
    }

    /// One traced time step over `num_procs` virtual processors, recorded into
    /// `builder` access by access.  Two intervals: force computation (a processor reads the
    /// neighbourhood of each of its molecules and writes the molecule) and
    /// integration/cell-update (writes its molecules).
    ///
    /// This serial path is the oracle, not a production path: production code traces
    /// through the sharded [`WaterSpatial::stream_steps`], which
    /// `sharded_stream_matches_the_serial_traced_spec` and the bench crate's
    /// `proptest_gen.rs` pin to it bit for bit.
    pub fn step_traced(&mut self, num_procs: usize, builder: &mut TraceBuilder) {
        assert_eq!(builder.num_procs(), num_procs, "sink must match the processor count");
        let owners = self.cell_owners(num_procs);
        // Interval 1: force computation, cell by cell, owner by owner.
        let mut forces = vec![([0.0; 3], 0.0); self.molecules.len()];
        for c in 0..self.grid.num_cells() {
            let proc = owners[c];
            for &m in &self.grid.members[c] {
                builder.read(proc, m as usize);
                let r = self.force_on_molecule(m as usize, |o| builder.read(proc, o as usize));
                builder.write(proc, m as usize);
                forces[m as usize] = r;
            }
        }
        builder.barrier();
        // Interval 2: integration — the owner of each molecule's cell writes it.
        for c in 0..self.grid.num_cells() {
            let proc = owners[c];
            for &m in &self.grid.members[c] {
                builder.write(proc, m as usize);
            }
        }
        builder.barrier();
        self.integrate_all(&forces);
    }

    /// One sharded traced time step: the same computation and per-processor access
    /// streams as [`WaterSpatial::step_traced`] (the executable spec this path is
    /// pinned to), but each virtual processor scans its own slab of cells — force
    /// evaluation over the 27-cell neighbourhoods plus access recording — into its own
    /// shard through [`ShardSet::run_interval`].  Each molecule's force is computed by
    /// exactly one task, so the scattered force array is bit-identical to the serial
    /// cell sweep's.
    fn step_traced_sharded<S: TraceSink>(
        &mut self,
        shards: &mut ShardSet,
        scratch: &mut ShardScratch,
        sink: &mut S,
    ) {
        let num_procs = shards.num_procs();
        self.grid.partition_slabs_into(num_procs, &mut scratch.owners);
        // Each processor's cells, in ascending cell order — the serial sweep visits
        // cells in that order, so per-processor streams match the serial subsequences.
        scratch.cells.resize_with(num_procs, Vec::new);
        for cells in scratch.cells.iter_mut() {
            cells.clear();
        }
        for c in 0..self.grid.num_cells() {
            scratch.cells[scratch.owners[c]].push(c as u32);
        }
        scratch.outputs.resize_with(num_procs, Vec::new);
        // Interval 1: force computation, slab by slab.
        let work = scratch.cells.iter().zip(&mut scratch.outputs);
        shards.run_interval(sink, work, |shard, (cells, outputs)| {
            outputs.clear();
            for &c in cells {
                for &m in &self.grid.members[c as usize] {
                    shard.read(m as usize);
                    let r = self.force_on_molecule(m as usize, |o| shard.read(o as usize));
                    shard.write(m as usize);
                    outputs.push((m, r));
                }
            }
        });
        // Interval 2: integration — the owner of each molecule's cell writes it.
        shards.run_interval(sink, &scratch.cells, |shard, cells| {
            for &c in cells {
                for &m in &self.grid.members[c as usize] {
                    shard.write(m as usize);
                }
            }
        });
        // Scatter the per-processor forces (the cells partition the molecules, so
        // every molecule is written exactly once) and integrate.
        scratch.forces.clear();
        scratch.forces.resize(self.molecules.len(), ([0.0; 3], 0.0));
        for outputs in &scratch.outputs {
            for &(m, r) in outputs {
                scratch.forces[m as usize] = r;
            }
        }
        let forces = std::mem::take(&mut scratch.forces);
        self.integrate_all(&forces);
        scratch.forces = forces;
    }

    /// Run `steps` traced time steps on `num_procs` virtual processors, materializing
    /// the trace.
    pub fn trace_steps(&mut self, steps: usize, num_procs: usize) -> ProgramTrace {
        let mut builder = TraceBuilder::new(self.layout(), num_procs);
        self.stream_steps(steps, &mut builder);
        builder.finish()
    }

    /// Run `steps` traced time steps, streaming the accesses into `sink` without
    /// materializing a trace.  Generation is sharded: every interval runs through
    /// [`ShardSet::run_interval`], one task per virtual processor, so every downstream
    /// counter is bit-identical to looping [`WaterSpatial::step_traced`] over the same
    /// sink.
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

    fn small(n: usize, seed: u64) -> WaterSpatial {
        WaterSpatial::lattice(n, seed, WaterSpatialParams { box_side: 8.0, cutoff: 2.0, dt: 1e-4 })
    }

    #[test]
    fn record_is_the_expected_size_class() {
        // Table 1: 680-byte objects.  The Rust record must be comparable (large, several
        // cache lines, a few per DSM page).
        let size = std::mem::size_of::<WaterMolecule>();
        assert!((200..=680).contains(&size), "WaterMolecule is {size} bytes");
        assert_eq!(WATER_MOLECULE_BYTES, 680);
    }

    #[test]
    fn forces_match_a_direct_neighbour_scan() {
        let sim = small(200, 1);
        // Direct O(n^2) computation for a sample of molecules.
        for m in (0..200).step_by(23) {
            let mut expected = [0.0f64; 3];
            for other in 0..200 {
                if other == m {
                    continue;
                }
                let (f, _) = sim.pair_force(m, other);
                for k in 0..3 {
                    expected[k] += f[k];
                }
            }
            let (got, _) = sim.force_on_molecule(m, |_| {});
            for k in 0..3 {
                assert!(
                    (got[k] - expected[k]).abs() < 1e-9,
                    "molecule {m} force mismatch: {got:?} vs {expected:?}"
                );
            }
        }
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
                assert!((x.atom_pos[0][k] - y.atom_pos[0][k]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn molecules_stay_inside_the_box() {
        let mut sim = small(150, 4);
        for _ in 0..5 {
            sim.step_sequential();
        }
        for m in &sim.molecules {
            for k in 0..3 {
                assert!(m.center()[k] >= -0.1 && m.center()[k] <= sim.params.box_side + 0.1);
            }
        }
    }

    #[test]
    fn traced_step_emits_two_intervals_and_writes_every_molecule() {
        let mut sim = small(128, 5);
        let trace = sim.trace_steps(1, 4);
        assert_eq!(trace.intervals.len(), 2);
        for interval in 0..2 {
            let writes: usize = trace.intervals[interval]
                .accesses
                .iter()
                .map(|s| s.iter().filter(|a| a.is_write()).count())
                .sum();
            assert_eq!(writes, 128, "interval {interval}");
        }
    }

    #[test]
    fn reordering_preserves_the_molecule_multiset() {
        let mut sim = small(200, 6);
        let mut before: Vec<String> =
            sim.molecules.iter().map(|m| format!("{:?}", m.center())).collect();
        sim.reorder(Method::Hilbert);
        let mut after: Vec<String> =
            sim.molecules.iter().map(|m| format!("{:?}", m.center())).collect();
        before.sort();
        after.sort();
        assert_eq!(before, after);
        // The grid must be consistent after the reorder.
        for (i, &c) in sim.grid.cell_of.iter().enumerate() {
            assert!(sim.grid.members[c as usize].contains(&(i as u32)));
        }
    }

    #[test]
    fn cell_owners_form_contiguous_slabs() {
        let sim = small(400, 7);
        let owners = sim.cell_owners(4);
        assert_eq!(owners.len(), sim.grid.num_cells());
        let mut seen = [false; 4];
        for c in 0..sim.grid.num_cells() {
            seen[owners[c]] = true;
        }
        assert!(seen.iter().all(|&s| s), "every processor must own at least one cell");
    }

    /// The sharded parallel traced path must produce the bit-identical trace — and the
    /// bit-identical molecule state — as looping the serial `step_traced` spec (the
    /// grid is rebuilt from the integrated positions each step, so any drift would
    /// compound into different cell assignments).
    #[test]
    fn sharded_stream_matches_the_serial_traced_spec() {
        let mut serial = small(250, 23);
        let mut sharded = serial.clone();
        let steps = 3;
        let procs = 4;
        let mut serial_builder = TraceBuilder::new(serial.layout(), procs);
        for _ in 0..steps {
            serial.step_traced(procs, &mut serial_builder);
        }
        let serial_trace = serial_builder.finish();
        let sharded_trace = sharded.trace_steps(steps, procs);
        assert_eq!(serial_trace, sharded_trace);
        assert_eq!(serial.grid.cell_of, sharded.grid.cell_of);
        for (a, b) in serial.molecules.iter().zip(&sharded.molecules) {
            for atom in 0..3 {
                for k in 0..3 {
                    assert_eq!(a.atom_pos[atom][k].to_bits(), b.atom_pos[atom][k].to_bits());
                    assert_eq!(a.atom_vel[atom][k].to_bits(), b.atom_vel[atom][k].to_bits());
                }
            }
            assert_eq!(a.potential.to_bits(), b.potential.to_bits());
        }
    }

    /// `stream_steps` feeds the DSM page-history sink directly; with 680-byte
    /// molecules every page boundary is straddled, so this also exercises the
    /// per-page byte attribution on a real application stream.
    #[test]
    fn stream_steps_feeds_the_dsm_page_history_sink() {
        let mut sim = small(200, 13);
        let layout = sim.layout();
        let mut builder = TraceBuilder::new(layout.clone(), 4);
        let mut sink = dsm::PageHistorySink::new(layout.clone(), 4, 4096);
        {
            let mut tee = smtrace::TeeSink::new(&mut builder, &mut sink);
            sim.stream_steps(2, &mut tee);
        }
        let trace = builder.finish();
        let streamed = sink.finish();
        assert_eq!(streamed, dsm::PageWriteHistory::build(&trace, &layout, 4096));
    }
}
