//! The adaptive Fast Multipole Method benchmark (2-D), ported from SPLASH-2.
//!
//! FMM shares its data structures with Barnes-Hut — a shared particle array plus a tree
//! of cells — but traverses the tree only twice per iteration (one upward pass, one
//! downward pass) instead of once per particle.  The particle array is only touched in
//! three places, all of which this port reproduces:
//!
//! * **P2M** — forming a leaf cell's multipole expansion reads the leaf's particles;
//! * **P2P** — near-field interactions read the particles of neighbouring leaves and
//!   write the processor's own particles;
//! * **L2P** — evaluating a leaf's local expansion writes the leaf's particles.
//!
//! The cells are created per processor (private arrays), so the false sharing the paper
//! measures is concentrated in the particle array — which is what Hilbert reordering
//! fixes (Section 5.3.1, Table 4).
//!
//! One iteration runs the phases of Table 4 of the paper (build tree, partition, tree
//! traversal, inter-particle, intra-particle); the traced execution emits one
//! synchronization interval per phase group so the DSM simulators can attribute
//! communication to phases.

pub mod expansion;
pub mod quadtree;

use rayon::prelude::*;
use reorder::{reorder_by_method, Method, Reordering};
use smtrace::{ObjectLayout, ProgramTrace, ShardSet, TraceBuilder, TraceSink};

use crate::body::{Body, BODY_BYTES_FIG};
use crate::vec3::Vec3;
use expansion::{Complex, Local, Multipole};
use quadtree::{CellId, QuadTree};

/// Tunable parameters of the FMM simulation.
#[derive(Debug, Clone, Copy)]
pub struct FmmParams {
    /// Expansion order (number of multipole / local coefficients beyond the charge).
    pub order: usize,
    /// Average number of bodies per leaf cell the tree depth is chosen for.
    pub target_per_leaf: usize,
    /// Time step of the integrator.
    pub dt: f64,
    /// Softening length for near-field interactions.
    pub eps: f64,
}

impl Default for FmmParams {
    fn default() -> Self {
        FmmParams { order: 8, target_per_leaf: 16, dt: 0.025, eps: 0.05 }
    }
}

/// The FMM application state.
#[derive(Debug, Clone)]
pub struct Fmm {
    /// The shared particle array (the object array that data reordering permutes).
    pub bodies: Vec<Body>,
    /// Simulation parameters.
    pub params: FmmParams,
}

/// Per-leaf ownership and the per-processor leaf lists produced by the partitioner.
#[derive(Debug, Clone, Default)]
struct FmmPartition {
    /// `leaves[p]` — leaf cells owned by processor `p`, in row-major cell order.
    leaves: Vec<Vec<CellId>>,
    /// `owner[c]` — processor owning leaf `c`.
    owner: Vec<usize>,
}

/// Reusable buffers for the sharded traced path: the leaf partition plus, per virtual
/// processor, the leaf-local evaluation buffers, read logs, and `(body, acc, phi)`
/// results; `all_results` is the scatter target the integrator consumes.  Held across
/// iterations by [`Fmm::stream_iterations`].
#[derive(Debug, Default)]
struct ShardScratch {
    partition: FmmPartition,
    leaf_out: Vec<Vec<(Vec3, f64)>>,
    leaf_reads: Vec<Vec<Vec<u32>>>,
    results: Vec<Vec<(u32, Vec3, f64)>>,
    all_results: Vec<(Vec3, f64)>,
}

impl ShardScratch {
    fn resize(&mut self, num_procs: usize) {
        self.leaf_out.resize_with(num_procs, Vec::new);
        self.leaf_reads.resize_with(num_procs, Vec::new);
        self.results.resize_with(num_procs, Vec::new);
    }
}

impl Fmm {
    /// Create an FMM run from an existing body array (only the x and y coordinates are
    /// used; the paper's FMM is two-dimensional).
    ///
    /// # Panics
    /// Panics if `bodies` is empty or the expansion order is zero.
    pub fn new(bodies: Vec<Body>, params: FmmParams) -> Self {
        assert!(!bodies.is_empty(), "need at least one body");
        assert!(params.order >= 1, "expansion order must be at least 1");
        Fmm { bodies, params }
    }

    /// The paper's input: `n` bodies from a two-dimensional two-Plummer distribution,
    /// stored in random order.
    pub fn two_plummer(n: usize, seed: u64, params: FmmParams) -> Self {
        let (pos, mass) = workloads::two_plummer(n, 2, 1.0, 6.0, seed);
        Fmm::new(Body::from_positions(&pos, &mass), params)
    }

    /// Number of bodies.
    pub fn num_bodies(&self) -> usize {
        self.bodies.len()
    }

    /// Object-array layout for address-space analyses (96-byte records as in Figures
    /// 1–5; Table 1 lists 104 bytes — the difference does not change any conclusion).
    pub fn layout(&self) -> ObjectLayout {
        ObjectLayout::new(self.bodies.len(), BODY_BYTES_FIG)
    }

    /// Apply a data reordering to the particle array.  FMM rebuilds its tree and lists
    /// every iteration, so no auxiliary indices need remapping.
    pub fn reorder(&mut self, method: Method) -> Reordering {
        reorder_by_method(method, &mut self.bodies, 2, |b, d| b.coord(d))
    }

    fn positions(&self) -> Vec<[f64; 3]> {
        self.bodies.iter().map(|b| b.pos.to_array()).collect()
    }

    fn build_tree(&self) -> QuadTree {
        let levels = QuadTree::levels_for(self.bodies.len(), self.params.target_per_leaf);
        QuadTree::build(&self.positions(), levels)
    }

    /// Partition leaf cells over processors: walk the leaf cells in row-major order and
    /// cut into `num_procs` contiguous chunks of roughly equal body count (the SPLASH-2
    /// code uses costzones over the adaptive tree; on a uniform tree row-major chunks of
    /// equal weight are the analogous physically-contiguous assignment).
    fn partition(&self, tree: &QuadTree, num_procs: usize) -> FmmPartition {
        let mut out = FmmPartition::default();
        self.partition_into(tree, num_procs, &mut out);
        out
    }

    /// [`Fmm::partition`] into a caller-provided buffer, so per-iteration partitions
    /// reuse their allocations.
    /// Invariant: a 1-processor trace is the processor-order concatenation of a P-processor one.
    fn partition_into(&self, tree: &QuadTree, num_procs: usize, out: &mut FmmPartition) {
        let num_leaves = tree.leaf_bodies.len();
        let total: usize = tree.leaf_bodies.iter().map(Vec::len).sum();
        let target = (total as f64 / num_procs as f64).max(1.0);
        out.leaves.resize_with(num_procs, Vec::new);
        for leaves in out.leaves.iter_mut() {
            leaves.clear();
        }
        out.owner.clear();
        out.owner.resize(num_leaves, 0);
        let mut acc = 0.0;
        let mut proc = 0usize;
        for c in 0..num_leaves {
            if acc >= target * (proc + 1) as f64 && proc + 1 < num_procs {
                proc += 1;
            }
            out.leaves[proc].push(c as CellId);
            out.owner[c] = proc;
            acc += tree.leaf_bodies[c].len() as f64;
        }
    }

    /// The full expansion machinery of one iteration — P2M at the leaves, M2M up the
    /// tree, M2L at every level, L2L down — returning each leaf cell's accumulated
    /// local expansion.  Shared verbatim by [`Fmm::compute_forces`] (the serial spec)
    /// and the sharded traced path, so their far-field arithmetic is identical.
    fn leaf_locals(&self, tree: &QuadTree) -> Vec<Local> {
        let p = self.params.order;
        let leaf_level = tree.leaf_level();
        let num_leaves = tree.leaf_bodies.len();
        let mut multipoles: Vec<Vec<Multipole>> = (0..tree.levels)
            .map(|level| {
                (0..QuadTree::cells_at(level))
                    .map(|c| Multipole::zero(tree.cell_center(level, c as CellId), p))
                    .collect()
            })
            .collect();
        for c in 0..num_leaves {
            for &b in &tree.leaf_bodies[c] {
                let body = &self.bodies[b as usize];
                multipoles[leaf_level][c]
                    .add_particle(Complex::new(body.pos.x, body.pos.y), body.mass);
            }
        }
        for level in (1..tree.levels).rev() {
            for c in 0..QuadTree::cells_at(level) {
                let parent = QuadTree::parent(level, c as CellId) as usize;
                let (upper, lower) = multipoles.split_at_mut(level);
                lower[0][c].translate_into(&mut upper[level - 1][parent]);
            }
        }

        // M2L at every level, then L2L downward.
        let mut locals: Vec<Vec<Local>> = (0..tree.levels)
            .map(|level| {
                (0..QuadTree::cells_at(level))
                    .map(|c| Local::zero(tree.cell_center(level, c as CellId), p))
                    .collect()
            })
            .collect();
        for level in 1..tree.levels {
            for c in 0..QuadTree::cells_at(level) {
                for w in QuadTree::interaction_list(level, c as CellId) {
                    let m = &multipoles[level][w as usize];
                    m.to_local_into(&mut locals[level][c]);
                }
            }
            // Push this level's accumulated local expansions down to the children.
            if level + 1 < tree.levels {
                for c in 0..QuadTree::cells_at(level) {
                    let (this, below) = locals.split_at_mut(level + 1);
                    for child in QuadTree::children(level, c as CellId) {
                        this[level][c].translate_into(&mut below[0][child as usize]);
                    }
                }
            }
        }
        locals.swap_remove(leaf_level)
    }

    /// L2P plus intra-leaf P2P for one leaf: `out` receives one `(acc, phi)` per leaf
    /// body (in leaf order) and, when `reads` is provided, `reads[idx]` logs the bodies
    /// body `idx` read.  Shared by the serial and sharded evaluation paths.
    fn eval_leaf_intra(
        &self,
        leaf_bodies: &[u32],
        local: &Local,
        out: &mut Vec<(Vec3, f64)>,
        mut reads: Option<&mut [Vec<u32>]>,
    ) {
        let eps2 = self.params.eps * self.params.eps;
        out.clear();
        for (idx, &bi) in leaf_bodies.iter().enumerate() {
            let body = &self.bodies[bi as usize];
            let z = Complex::new(body.pos.x, body.pos.y);
            let (phi, dphi) = local.evaluate(z);
            // Acceleration on a unit mass is -conj(phi'(z)).
            let mut acc = Complex::new(-dphi.re, dphi.im);
            let mut pot = phi.re;
            for &bj in leaf_bodies {
                if bi == bj {
                    continue;
                }
                let other = &self.bodies[bj as usize];
                if let Some(r) = reads.as_deref_mut() {
                    r[idx].push(bj);
                }
                let dz = Complex::new(other.pos.x - body.pos.x, other.pos.y - body.pos.y);
                let r2 = dz.norm_sq() + eps2;
                acc += dz * (other.mass / r2);
                pot += 0.5 * other.mass * r2.ln();
            }
            out.push((Vec3::new(acc.re, acc.im, 0.0), pot));
        }
    }

    /// Inter-leaf P2P between a home leaf and one neighbouring leaf, accumulating into
    /// the home leaf's `out` buffer.  Shared by the serial and sharded evaluation
    /// paths.
    fn eval_leaf_inter(
        &self,
        home_bodies: &[u32],
        neighbor_bodies: &[u32],
        out: &mut [(Vec3, f64)],
        mut reads: Option<&mut [Vec<u32>]>,
    ) {
        let eps2 = self.params.eps * self.params.eps;
        for (idx, &bi) in home_bodies.iter().enumerate() {
            let body = &self.bodies[bi as usize];
            let mut acc = Complex::ZERO;
            let mut pot = 0.0;
            for &bj in neighbor_bodies {
                let other = &self.bodies[bj as usize];
                if let Some(r) = reads.as_deref_mut() {
                    r[idx].push(bj);
                }
                let dz = Complex::new(other.pos.x - body.pos.x, other.pos.y - body.pos.y);
                let r2 = dz.norm_sq() + eps2;
                acc += dz * (other.mass / r2);
                pot += 0.5 * other.mass * r2.ln();
            }
            out[idx].0 += Vec3::new(acc.re, acc.im, 0.0);
            out[idx].1 += pot;
        }
    }

    /// Complete force computation for one iteration.  Returns per-body `(acc, phi)` and
    /// optionally records, for every body, the indices of the *other* bodies read during
    /// near-field interactions (`reads[i]`).
    fn compute_forces(
        &self,
        tree: &QuadTree,
        record_reads: bool,
    ) -> (Vec<(Vec3, f64)>, Vec<Vec<u32>>) {
        let leaf_level = tree.leaf_level();
        let locals = self.leaf_locals(tree);

        // Evaluation: L2P plus near-field P2P, leaf by leaf via the shared per-leaf
        // kernels (the sharded traced path runs the same kernels per processor, so the
        // arithmetic is identical by construction).
        let mut results = vec![(Vec3::ZERO, 0.0); self.bodies.len()];
        let mut reads: Vec<Vec<u32>> =
            if record_reads { vec![Vec::new(); self.bodies.len()] } else { Vec::new() };
        let mut leaf_out: Vec<(Vec3, f64)> = Vec::new();
        let mut leaf_reads: Vec<Vec<u32>> = Vec::new();
        for (c, leaf_bodies) in tree.leaf_bodies.iter().enumerate() {
            leaf_reads.resize_with(leaf_bodies.len().max(leaf_reads.len()), Vec::new);
            let reads_arg = record_reads.then_some(&mut leaf_reads[..leaf_bodies.len()]);
            self.eval_leaf_intra(leaf_bodies, &locals[c], &mut leaf_out, reads_arg);

            // Inter-leaf (neighbouring cells) direct interactions.
            for &n in &QuadTree::neighbors(leaf_level, c as CellId) {
                let reads_arg = record_reads.then_some(&mut leaf_reads[..leaf_bodies.len()]);
                self.eval_leaf_inter(
                    leaf_bodies,
                    &tree.leaf_bodies[n as usize],
                    &mut leaf_out,
                    reads_arg,
                );
            }

            for (idx, &bi) in leaf_bodies.iter().enumerate() {
                results[bi as usize] = leaf_out[idx];
                if record_reads {
                    std::mem::swap(&mut reads[bi as usize], &mut leaf_reads[idx]);
                    leaf_reads[idx].clear();
                }
            }
        }
        (results, reads)
    }

    /// One sequential iteration.
    pub fn step_sequential(&mut self) {
        let tree = self.build_tree();
        let (results, _) = self.compute_forces(&tree, false);
        self.apply_and_integrate(&results);
    }

    fn apply_and_integrate(&mut self, results: &[(Vec3, f64)]) {
        let dt = self.params.dt;
        for (b, &(acc, phi)) in self.bodies.iter_mut().zip(results) {
            b.acc = acc;
            b.phi = phi;
            b.vel += acc * dt;
            b.pos += b.vel * dt;
        }
    }

    /// One traced iteration over `num_procs` virtual processors, streamed into any
    /// [`TraceSink`].  Intervals, in order: tree build (processor 0 reads all bodies),
    /// upward pass (each processor reads the bodies of its leaves), evaluation
    /// (near-field reads plus writes of owned bodies), and update (writes of owned
    /// bodies) — each closed by a barrier.
    ///
    /// This serial path is the oracle, not a production path: production code traces
    /// through the sharded [`Fmm::stream_iterations`], which
    /// `sharded_stream_matches_the_serial_traced_spec` and the bench crate's
    /// `proptest_gen.rs` pin to it bit for bit.
    pub fn step_traced<S: TraceSink>(&mut self, num_procs: usize, builder: &mut S) {
        assert_eq!(builder.num_procs(), num_procs, "sink must match the processor count");
        let tree = self.build_tree();
        // Interval 1: sequential tree build.
        for i in 0..self.bodies.len() {
            builder.read(0, i);
        }
        builder.barrier();

        let partition = self.partition(&tree, num_procs);
        // Interval 2: upward pass — P2M reads each leaf's bodies (by the leaf's owner).
        for (proc, leaves) in partition.leaves.iter().enumerate() {
            for &c in leaves {
                for &b in &tree.leaf_bodies[c as usize] {
                    builder.read(proc, b as usize);
                }
            }
        }
        builder.barrier();

        // Interval 3: evaluation — near-field reads plus writes of owned bodies.
        let (results, reads) = self.compute_forces(&tree, true);
        for (proc, leaves) in partition.leaves.iter().enumerate() {
            for &c in leaves {
                for &b in &tree.leaf_bodies[c as usize] {
                    builder.read(proc, b as usize);
                    for &other in &reads[b as usize] {
                        builder.read(proc, other as usize);
                    }
                    builder.write(proc, b as usize);
                }
            }
        }
        builder.barrier();

        // Interval 4: update — each owner writes its bodies.
        for (proc, leaves) in partition.leaves.iter().enumerate() {
            for &c in leaves {
                for &b in &tree.leaf_bodies[c as usize] {
                    builder.write(proc, b as usize);
                }
            }
        }
        builder.barrier();
        self.apply_and_integrate(&results);
        let _ = partition.owner;
    }

    /// One sharded traced iteration: the same intervals and per-processor access
    /// streams as [`Fmm::step_traced`] (the executable spec this path is pinned to),
    /// but each virtual processor evaluates its own leaves — near-field P2P, L2P and
    /// access recording — as a rayon task into its own [`smtrace::Shard`].  The
    /// expansion passes stay sequential (they are cheap relative to P2P and shared by
    /// all processors), exactly like the sequential tree build.
    fn step_traced_sharded<S: TraceSink>(
        &mut self,
        shards: &mut ShardSet,
        scratch: &mut ShardScratch,
        sink: &mut S,
    ) {
        let num_procs = shards.num_procs();
        assert_eq!(sink.num_procs(), num_procs, "sink must match the processor count");
        let tree = self.build_tree();
        // Interval 1: sequential tree build.
        for i in 0..self.bodies.len() {
            sink.read(0, i);
        }
        sink.barrier();

        self.partition_into(&tree, num_procs, &mut scratch.partition);
        scratch.resize(num_procs);
        // Interval 2: upward pass — P2M reads each leaf's bodies (by the leaf's owner).
        {
            let tree = &tree;
            let tasks: Vec<_> =
                shards.shards_mut().iter_mut().zip(scratch.partition.leaves.iter()).collect();
            tasks.into_par_iter().for_each(|(shard, leaves)| {
                for &c in leaves {
                    for &b in &tree.leaf_bodies[c as usize] {
                        shard.read(b as usize);
                    }
                }
            });
        }
        shards.drain_interval(sink);

        // Shared far-field machinery, then per-processor near-field evaluation.
        let leaf_level = tree.leaf_level();
        let locals = self.leaf_locals(&tree);

        // Interval 3: evaluation — each owner evaluates and records its own leaves.
        {
            let this = &*self;
            let tree = &tree;
            let locals = &locals;
            let tasks: Vec<_> = shards
                .shards_mut()
                .iter_mut()
                .zip(scratch.partition.leaves.iter())
                .zip(scratch.leaf_out.iter_mut())
                .zip(scratch.leaf_reads.iter_mut())
                .zip(scratch.results.iter_mut())
                .map(|((((shard, leaves), leaf_out), leaf_reads), results)| {
                    (shard, leaves, leaf_out, leaf_reads, results)
                })
                .collect();
            tasks.into_par_iter().for_each(|(shard, leaves, leaf_out, leaf_reads, results)| {
                results.clear();
                for &c in leaves {
                    let leaf_bodies = &tree.leaf_bodies[c as usize];
                    leaf_reads.resize_with(leaf_bodies.len().max(leaf_reads.len()), Vec::new);
                    this.eval_leaf_intra(
                        leaf_bodies,
                        &locals[c as usize],
                        leaf_out,
                        Some(&mut leaf_reads[..leaf_bodies.len()]),
                    );
                    for &n in &QuadTree::neighbors(leaf_level, c)[..] {
                        this.eval_leaf_inter(
                            leaf_bodies,
                            &tree.leaf_bodies[n as usize],
                            leaf_out,
                            Some(&mut leaf_reads[..leaf_bodies.len()]),
                        );
                    }
                    for (idx, &bi) in leaf_bodies.iter().enumerate() {
                        shard.read(bi as usize);
                        for &other in &leaf_reads[idx] {
                            shard.read(other as usize);
                        }
                        shard.write(bi as usize);
                        let (acc, phi) = leaf_out[idx];
                        results.push((bi, acc, phi));
                        leaf_reads[idx].clear();
                    }
                }
            });
        }
        shards.drain_interval(sink);

        // Interval 4: update — each owner writes its bodies.
        {
            let tree = &tree;
            let tasks: Vec<_> =
                shards.shards_mut().iter_mut().zip(scratch.partition.leaves.iter()).collect();
            tasks.into_par_iter().for_each(|(shard, leaves)| {
                for &c in leaves {
                    for &b in &tree.leaf_bodies[c as usize] {
                        shard.write(b as usize);
                    }
                }
            });
        }
        shards.drain_interval(sink);

        // Scatter the per-processor results (every body is owned by exactly one leaf)
        // and integrate, exactly as the serial spec does.
        scratch.all_results.clear();
        scratch.all_results.resize(self.bodies.len(), (Vec3::ZERO, 0.0));
        for results in &scratch.results {
            for &(bi, acc, phi) in results {
                scratch.all_results[bi as usize] = (acc, phi);
            }
        }
        let all_results = std::mem::take(&mut scratch.all_results);
        self.apply_and_integrate(&all_results);
        scratch.all_results = all_results;
    }

    /// Run `iterations` traced iterations on `num_procs` virtual processors and return
    /// the finished (materialized) trace.
    pub fn trace_iterations(&mut self, iterations: usize, num_procs: usize) -> ProgramTrace {
        let mut builder = TraceBuilder::new(self.layout(), num_procs);
        self.stream_iterations(iterations, &mut builder);
        builder.finish()
    }

    /// Run `iterations` traced iterations, streaming the accesses into `sink` without
    /// materializing a trace.  Generation is sharded: each virtual processor's leaves
    /// are evaluated by a rayon task into a per-processor buffer, drained into `sink`
    /// in deterministic processor order — every downstream counter is bit-identical to
    /// looping [`Fmm::step_traced`] over the same sink.
    pub fn stream_iterations<S: TraceSink>(&mut self, iterations: usize, sink: &mut S) {
        let mut shards = ShardSet::new(sink.num_procs());
        let mut scratch = ShardScratch::default();
        for _ in 0..iterations {
            self.step_traced_sharded(&mut shards, &mut scratch, sink);
        }
    }

    /// Direct O(n²) force evaluation with the same 2-D kernel — the accuracy reference
    /// used by the test-suite.  Returns per-body `(acc, phi)`.
    pub fn direct_forces(&self) -> Vec<(Vec3, f64)> {
        let eps2 = self.params.eps * self.params.eps;
        let n = self.bodies.len();
        let mut out = vec![(Vec3::ZERO, 0.0); n];
        for i in 0..n {
            let zi = Complex::new(self.bodies[i].pos.x, self.bodies[i].pos.y);
            let mut acc = Complex::ZERO;
            let mut pot = 0.0;
            for j in 0..n {
                if i == j {
                    continue;
                }
                let zj = Complex::new(self.bodies[j].pos.x, self.bodies[j].pos.y);
                let dz = zj - zi;
                let r2 = dz.norm_sq() + eps2;
                acc += dz * (self.bodies[j].mass / r2);
                pot += 0.5 * self.bodies[j].mass * r2.ln();
            }
            out[i] = (Vec3::new(acc.re, acc.im, 0.0), pot);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_fmm(n: usize, seed: u64) -> Fmm {
        Fmm::two_plummer(n, seed, FmmParams { order: 10, target_per_leaf: 8, dt: 0.01, eps: 0.0 })
    }

    #[test]
    fn fmm_forces_match_direct_summation() {
        let fmm = small_fmm(400, 1);
        let tree = fmm.build_tree();
        let (approx, _) = fmm.compute_forces(&tree, false);
        let exact = fmm.direct_forces();
        let mut rel_err = 0.0;
        let mut count = 0;
        for (a, e) in approx.iter().zip(&exact) {
            let norm = e.0.norm();
            if norm > 1e-9 {
                rel_err += (a.0 - e.0).norm() / norm;
                count += 1;
            }
        }
        let mean = rel_err / count as f64;
        assert!(mean < 1e-3, "mean relative force error {mean}");
    }

    #[test]
    fn higher_order_is_more_accurate() {
        let err_for = |order: usize| {
            let mut f = small_fmm(300, 2);
            f.params.order = order;
            let tree = f.build_tree();
            let (approx, _) = f.compute_forces(&tree, false);
            let exact = f.direct_forces();
            approx
                .iter()
                .zip(&exact)
                .map(|(a, e)| (a.0 - e.0).norm() / e.0.norm().max(1e-12))
                .sum::<f64>()
                / approx.len() as f64
        };
        let coarse = err_for(2);
        let fine = err_for(12);
        assert!(fine < coarse, "order 12 ({fine}) must beat order 2 ({coarse})");
    }

    #[test]
    fn traced_step_emits_four_intervals_and_writes_every_body() {
        let mut fmm = small_fmm(256, 4);
        let trace = fmm.trace_iterations(1, 4);
        assert_eq!(trace.intervals.len(), 4);
        // Every body written exactly once in the evaluation interval and once in update.
        for interval in [2usize, 3] {
            let writes: usize = trace.intervals[interval]
                .accesses
                .iter()
                .map(|s| s.iter().filter(|a| a.is_write()).count())
                .sum();
            assert_eq!(writes, 256, "interval {interval}");
        }
        // Tree build is sequential.
        for p in 1..4 {
            assert!(trace.intervals[0].accesses[p].is_empty());
        }
    }

    #[test]
    fn traced_and_sequential_physics_agree() {
        let mut a = small_fmm(200, 5);
        let mut b = a.clone();
        a.step_sequential();
        let mut builder = TraceBuilder::new(b.layout(), 3);
        b.step_traced(3, &mut builder);
        for (x, y) in a.bodies.iter().zip(&b.bodies) {
            assert!(x.pos.dist(y.pos) < 1e-12);
        }
    }

    #[test]
    fn reordering_does_not_change_the_physics() {
        let mut original = small_fmm(200, 6);
        let mut reordered = original.clone();
        reordered.reorder(Method::Hilbert);
        original.step_sequential();
        reordered.step_sequential();
        let sum = |f: &Fmm| {
            let mut s = Vec3::ZERO;
            for b in &f.bodies {
                s += b.pos;
            }
            s
        };
        assert!((sum(&original) - sum(&reordered)).norm() < 1e-9);
    }

    #[test]
    fn partition_covers_every_leaf_exactly_once() {
        let fmm = small_fmm(500, 8);
        let tree = fmm.build_tree();
        let part = fmm.partition(&tree, 6);
        let mut all: Vec<CellId> = part.leaves.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all.len(), tree.leaf_bodies.len());
        for (c, &o) in part.owner.iter().enumerate() {
            assert!(part.leaves[o].contains(&(c as CellId)));
        }
    }

    /// The sharded parallel traced path must produce the bit-identical trace — and the
    /// bit-identical body state — as looping the serial `step_traced` spec.
    #[test]
    fn sharded_stream_matches_the_serial_traced_spec() {
        let mut serial = small_fmm(300, 23);
        let mut sharded = serial.clone();
        let iterations = 2;
        let procs = 3;
        let mut serial_builder = TraceBuilder::new(serial.layout(), procs);
        for _ in 0..iterations {
            serial.step_traced(procs, &mut serial_builder);
        }
        let serial_trace = serial_builder.finish();
        let sharded_trace = sharded.trace_iterations(iterations, procs);
        assert_eq!(serial_trace, sharded_trace);
        for (a, b) in serial.bodies.iter().zip(&sharded.bodies) {
            assert_eq!(a.pos.x.to_bits(), b.pos.x.to_bits());
            assert_eq!(a.vel.y.to_bits(), b.vel.y.to_bits());
            assert_eq!(a.phi.to_bits(), b.phi.to_bits());
        }
    }

    /// `stream_iterations` feeds the DSM page-history sink directly: the streamed
    /// reduction must be bit-identical to materializing the trace first.
    #[test]
    fn stream_iterations_feeds_the_dsm_page_history_sink() {
        let mut fmm = small_fmm(300, 19);
        let layout = fmm.layout();
        let mut builder = TraceBuilder::new(layout.clone(), 3);
        let mut sink = dsm::PageHistorySink::new(layout.clone(), 3, 1024);
        {
            let mut tee = smtrace::TeeSink::new(&mut builder, &mut sink);
            fmm.stream_iterations(1, &mut tee);
        }
        let trace = builder.finish();
        let streamed = sink.finish();
        assert_eq!(streamed, dsm::PageWriteHistory::build(&trace, &layout, 1024));
    }
}
