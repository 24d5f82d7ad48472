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
//!
//! The sharded traced path evaluates in two parallel phases.  Phase 1 computes each
//! pair of particles in neighbouring leaves once — one `r2.ln()` feeds both particles —
//! into per-(leaf, neighbour, particle) partial sums.  Phase 2 adds them per particle
//! in the serial spec's order after L2P and the intra-leaf terms, pushing the reads
//! straight into the processor's shard.  The serial [`Fmm::step_traced`] keeps the
//! one-sided kernels as the oracle the sharded path is pinned to bit for bit.

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

/// The per-processor leaf lists produced by the partitioner.
#[derive(Debug, Clone, Default)]
struct FmmPartition {
    /// `leaves[p]` — leaf cells owned by processor `p`, in row-major cell order.
    leaves: Vec<Vec<CellId>>,
}

/// Most neighbours a leaf cell has (`QuadTree::neighbors` returns at most eight).
const MAX_NEIGHBORS: usize = 8;

/// The near-field partial sums of one iteration: one `(acc, pot)` slot per (leaf,
/// neighbour slot, leaf body), where slot `(c, k, idx)` holds body `idx` of leaf `c`
/// summed over the bodies of `QuadTree::neighbors(c)[k]`, in that leaf's order.
///
/// The slots are grouped by unordered leaf pair `(a, b)`, `a < b`, walked in the order
/// the owner of `a` computes them: `a`'s block over `b`, then `b`'s block over `a`.  A
/// processor's row-major leaf chunk therefore writes one contiguous range of
/// `sums`, `bounds[p]..bounds[p + 1]`.
#[derive(Debug, Default)]
struct PairPartials {
    /// `offsets[c * MAX_NEIGHBORS + k]` — index in `sums` of slot `(c, k, 0)`.
    offsets: Vec<usize>,
    /// `bounds[p]..bounds[p + 1]` — the slots processor `p` writes.
    bounds: Vec<usize>,
    sums: Vec<(Complex, f64)>,
}

impl PairPartials {
    /// Lay the slots out for `tree` under `partition` (the pair walk of
    /// [`Fmm::pair_partials`]); slot values are left for the pair walk to write.
    fn layout(&mut self, tree: &QuadTree, partition: &FmmPartition) {
        let leaf_level = tree.leaf_level();
        self.offsets.clear();
        self.offsets.resize(tree.leaf_bodies.len() * MAX_NEIGHBORS, usize::MAX);
        self.bounds.clear();
        let mut next = 0;
        for leaves in &partition.leaves {
            self.bounds.push(next);
            for &a in leaves {
                for (k, &b) in QuadTree::neighbors(leaf_level, a).iter().enumerate() {
                    if b < a {
                        continue;
                    }
                    let back = QuadTree::neighbors(leaf_level, b)
                        .iter()
                        .position(|&n| n == a)
                        .expect("leaf adjacency is symmetric");
                    self.offsets[a as usize * MAX_NEIGHBORS + k] = next;
                    next += tree.leaf_bodies[a as usize].len();
                    self.offsets[b as usize * MAX_NEIGHBORS + back] = next;
                    next += tree.leaf_bodies[b as usize].len();
                }
            }
        }
        self.bounds.push(next);
        self.sums.resize(next, (Complex::ZERO, 0.0));
    }

    /// Slot `(c, k, idx)`: body `idx` of leaf `c` summed over its `k`-th neighbour.
    fn get(&self, c: CellId, k: usize, idx: usize) -> (Complex, f64) {
        self.sums[self.offsets[c as usize * MAX_NEIGHBORS + k] + idx]
    }
}

/// Reusable buffers for the sharded traced path: the leaf partition, the near-field
/// partial sums, per virtual processor a leaf-local evaluation buffer, and `results`,
/// one `(acc, phi)` per body, processor 0's leaves first, each leaf's bodies in leaf
/// order.  Held across iterations by [`Fmm::stream_iterations`].
#[derive(Debug, Default)]
struct ShardScratch {
    partition: FmmPartition,
    partials: PairPartials,
    leaf_out: Vec<Vec<(Vec3, f64)>>,
    results: Vec<(Vec3, f64)>,
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
        let total: usize = tree.leaf_bodies.iter().map(Vec::len).sum();
        let target = (total as f64 / num_procs as f64).max(1.0);
        out.leaves.resize_with(num_procs, Vec::new);
        for leaves in out.leaves.iter_mut() {
            leaves.clear();
        }
        let mut acc = 0.0;
        let mut proc = 0usize;
        for (c, bodies) in tree.leaf_bodies.iter().enumerate() {
            if acc >= target * (proc + 1) as f64 && proc + 1 < num_procs {
                proc += 1;
            }
            out.leaves[proc].push(c as CellId);
            acc += bodies.len() as f64;
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
    /// body `idx` read (every other body of the leaf, in leaf order).  Shared by the
    /// serial and sharded evaluation paths.
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
    /// the home leaf's `out` buffer (the serial spec; the sharded path computes the
    /// same partial sums in [`Fmm::pair_partials`]).
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

    /// Phase 1 of the sharded evaluation, for one processor: for every leaf `a` in
    /// `leaves` and every neighbour `b > a`, the P2P partial sums of `a`'s bodies over
    /// `b`, then of `b`'s bodies over `a`, written in turn into `out` (the processor's
    /// range of [`PairPartials::sums`]).  Each pair's `dz`, `r2` and `r2.ln()` are
    /// computed once for both bodies: IEEE subtraction makes `a − b` exactly `−(b − a)`,
    /// so `r2` and its logarithm are the same bits from either side, and every body
    /// still sums its terms in the neighbour's body order — the bits
    /// [`Fmm::eval_leaf_inter`] produces.
    fn pair_partials(&self, tree: &QuadTree, leaves: &[CellId], mut out: &mut [(Complex, f64)]) {
        let eps2 = self.params.eps * self.params.eps;
        let leaf_level = tree.leaf_level();
        for &a in leaves {
            let a_bodies = &tree.leaf_bodies[a as usize];
            for &b in &QuadTree::neighbors(leaf_level, a) {
                if b < a {
                    continue;
                }
                let b_bodies = &tree.leaf_bodies[b as usize];
                let (a_sums, rest) = std::mem::take(&mut out).split_at_mut(a_bodies.len());
                let (b_sums, rest) = rest.split_at_mut(b_bodies.len());
                out = rest;
                b_sums.fill((Complex::ZERO, 0.0));
                for (&ai, a_sum) in a_bodies.iter().zip(a_sums.iter_mut()) {
                    let body = &self.bodies[ai as usize];
                    let mut acc = Complex::ZERO;
                    let mut pot = 0.0;
                    for (&bj, b_sum) in b_bodies.iter().zip(b_sums.iter_mut()) {
                        let other = &self.bodies[bj as usize];
                        let dz = Complex::new(other.pos.x - body.pos.x, other.pos.y - body.pos.y);
                        let r2 = dz.norm_sq() + eps2;
                        let ln = r2.ln();
                        acc += dz * (other.mass / r2);
                        pot += 0.5 * other.mass * ln;
                        let back = Complex::new(body.pos.x - other.pos.x, body.pos.y - other.pos.y);
                        b_sum.0 += back * (body.mass / r2);
                        b_sum.1 += 0.5 * body.mass * ln;
                    }
                    *a_sum = (acc, pot);
                }
            }
        }
        debug_assert!(out.is_empty(), "the pair walk fills exactly its slot range");
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
            integrate_body(b, acc, phi, dt);
        }
    }

    /// One traced iteration over `num_procs` virtual processors, recorded into
    /// `builder` access by access.  Intervals, in order: tree build (processor 0 reads
    /// all bodies), upward pass (each processor reads the bodies of its leaves),
    /// evaluation (near-field reads plus writes of owned bodies), and update (writes of
    /// owned bodies) — each closed by a barrier.
    ///
    /// This serial path is the oracle, not a production path: production code traces
    /// through the sharded [`Fmm::stream_iterations`], which
    /// `sharded_stream_matches_the_serial_traced_spec` and the bench crate's
    /// `proptest_gen.rs` pin to it bit for bit.
    pub fn step_traced(&mut self, num_procs: usize, builder: &mut TraceBuilder) {
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
    }

    /// One sharded traced iteration: the same intervals and per-processor access
    /// streams as [`Fmm::step_traced`] (the executable spec this path is pinned to),
    /// but each virtual processor records its own accesses into its own shard through
    /// [`ShardSet::run_interval`].  The expansion passes stay sequential (they are
    /// cheap relative to P2P and shared by all processors), exactly like the
    /// sequential tree build.  Evaluation runs in two parallel phases: phase 1 computes
    /// the near-field partial sums once per pair of neighbouring leaves
    /// ([`Fmm::pair_partials`]), phase 2 does L2P and intra-leaf P2P for each owned
    /// body, adds its partial sums in neighbour order and emits its reads and write
    /// straight into the shard.
    fn step_traced_sharded<S: TraceSink>(
        &mut self,
        shards: &mut ShardSet,
        scratch: &mut ShardScratch,
        sink: &mut S,
    ) {
        let num_procs = shards.num_procs();
        let tree = self.build_tree();
        // Interval 1: sequential tree build — processor 0 reads every body.
        shards
            .run_interval(sink, [self.bodies.len()], |shard, n| (0..n).for_each(|i| shard.read(i)));

        self.partition_into(&tree, num_procs, &mut scratch.partition);
        scratch.leaf_out.resize_with(num_procs, Vec::new);
        // Interval 2: upward pass — P2M reads each leaf's bodies (by the leaf's owner).
        shards.run_interval(sink, &scratch.partition.leaves, |shard, leaves| {
            for &c in leaves {
                for &b in &tree.leaf_bodies[c as usize] {
                    shard.read(b as usize);
                }
            }
        });

        // Shared far-field machinery, then per-processor near-field evaluation.
        let leaf_level = tree.leaf_level();
        let locals = self.leaf_locals(&tree);

        // Interval 3, phase 1: each owner computes the pair partial sums of its leaves.
        let partition = &scratch.partition;
        let partials = &mut scratch.partials;
        partials.layout(&tree, partition);
        let mut rest = &mut partials.sums[..];
        let mut tasks = Vec::with_capacity(num_procs);
        for (leaves, span) in partition.leaves.iter().zip(partials.bounds.windows(2)) {
            let (mine, tail) = std::mem::take(&mut rest).split_at_mut(span[1] - span[0]);
            rest = tail;
            tasks.push((leaves, mine));
        }
        tasks.into_par_iter().for_each(|(leaves, out)| self.pair_partials(&tree, leaves, out));

        // Interval 3, phase 2: each owner evaluates and records its own bodies.
        scratch.results.resize(self.bodies.len(), (Vec3::ZERO, 0.0));
        let partials = &*partials;
        let mut rest = &mut scratch.results[..];
        let work = partition.leaves.iter().zip(&mut scratch.leaf_out).map(|(leaves, leaf_out)| {
            let len = leaves.iter().map(|&c| tree.leaf_bodies[c as usize].len()).sum();
            let (mine, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            (leaves, leaf_out, mine)
        });
        shards.run_interval(sink, work, |shard, (leaves, leaf_out, mut results)| {
            for &c in leaves {
                let leaf_bodies = &tree.leaf_bodies[c as usize];
                let neighbors = QuadTree::neighbors(leaf_level, c);
                self.eval_leaf_intra(leaf_bodies, &locals[c as usize], leaf_out, None);
                for (idx, &bi) in leaf_bodies.iter().enumerate() {
                    shard.read(bi as usize);
                    for &bj in leaf_bodies {
                        if bj != bi {
                            shard.read(bj as usize);
                        }
                    }
                    let out = &mut leaf_out[idx];
                    for (k, &n) in neighbors.iter().enumerate() {
                        for &bj in &tree.leaf_bodies[n as usize] {
                            shard.read(bj as usize);
                        }
                        let (acc, pot) = partials.get(c, k, idx);
                        out.0 += Vec3::new(acc.re, acc.im, 0.0);
                        out.1 += pot;
                    }
                    shard.write(bi as usize);
                }
                let (mine, tail) = std::mem::take(&mut results).split_at_mut(leaf_bodies.len());
                mine.copy_from_slice(leaf_out);
                results = tail;
            }
        });

        // Interval 4: update — each owner writes its bodies.
        shards.run_interval(sink, &scratch.partition.leaves, |shard, leaves| {
            for &c in leaves {
                for &b in &tree.leaf_bodies[c as usize] {
                    shard.write(b as usize);
                }
            }
        });

        // Integrate, exactly as the serial spec does (every body is in exactly one
        // owned leaf, and `results` follows the processors' leaves in order).
        let dt = self.params.dt;
        let owned = scratch.partition.leaves.iter().flatten();
        let bodies = owned.flat_map(|&c| &tree.leaf_bodies[c as usize]);
        for (&bi, &(acc, phi)) in bodies.zip(&scratch.results) {
            integrate_body(&mut self.bodies[bi as usize], acc, phi, dt);
        }
    }

    /// Run `iterations` traced iterations on `num_procs` virtual processors and return
    /// the finished (materialized) trace.
    pub fn trace_iterations(&mut self, iterations: usize, num_procs: usize) -> ProgramTrace {
        let mut builder = TraceBuilder::new(self.layout(), num_procs);
        self.stream_iterations(iterations, &mut builder);
        builder.finish()
    }

    /// Run `iterations` traced iterations, streaming the accesses into `sink` without
    /// materializing a trace.  Generation is sharded: every interval runs through
    /// [`ShardSet::run_interval`], one task per virtual processor, so every downstream
    /// counter is bit-identical to looping [`Fmm::step_traced`] over the same sink.
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

/// Store one body's evaluated `(acc, phi)` and advance it by one semi-implicit Euler
/// step: the integrator shared by the serial and sharded paths.
fn integrate_body(b: &mut Body, acc: Vec3, phi: f64, dt: f64) {
    b.acc = acc;
    b.phi = phi;
    b.vel += acc * dt;
    b.pos += b.vel * dt;
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
        assert_eq!(all, (0..tree.leaf_bodies.len() as CellId).collect::<Vec<_>>());
    }

    /// Loop the serial `step_traced` spec from `fmm`, run the sharded stream from the
    /// same state under 1, 2 and 8 workers, and require the bit-identical trace and
    /// bit-identical pos, vel, acc and phi for every body.
    fn assert_sharded_matches_serial(fmm: &Fmm, procs: usize, iterations: usize) {
        let mut serial = fmm.clone();
        let mut builder = TraceBuilder::new(serial.layout(), procs);
        for _ in 0..iterations {
            serial.step_traced(procs, &mut builder);
        }
        let serial_trace = builder.finish();
        let bits = |v: Vec3| v.to_array().map(f64::to_bits);
        for threads in [1, 2, 8] {
            let mut sharded = fmm.clone();
            let trace =
                rayon::with_num_threads(threads, || sharded.trace_iterations(iterations, procs));
            let ctx = format!("{procs} procs, {threads} worker(s)");
            assert_eq!(serial_trace, trace, "{ctx}");
            for (a, b) in serial.bodies.iter().zip(&sharded.bodies) {
                assert_eq!(bits(a.pos), bits(b.pos), "{ctx}");
                assert_eq!(bits(a.vel), bits(b.vel), "{ctx}");
                assert_eq!(bits(a.acc), bits(b.acc), "{ctx}");
                assert_eq!(a.phi.to_bits(), b.phi.to_bits(), "{ctx}");
            }
        }
    }

    /// The sharded parallel traced path must produce the bit-identical trace — and the
    /// bit-identical body state — as looping the serial `step_traced` spec, on a tree
    /// with empty leaves and with neighbouring leaves owned by different processors.
    #[test]
    fn sharded_stream_matches_the_serial_traced_spec() {
        let fmm = small_fmm(300, 23);
        let tree = fmm.build_tree();
        assert!(tree.leaf_bodies.iter().any(Vec::is_empty), "some leaves must be empty");
        for procs in [1, 3, 7, 16] {
            let part = fmm.partition(&tree, procs);
            let mut owner = vec![0; tree.leaf_bodies.len()];
            for (p, leaves) in part.leaves.iter().enumerate() {
                for &c in leaves {
                    owner[c as usize] = p;
                }
            }
            let split = (0..owner.len()).any(|c| {
                QuadTree::neighbors(tree.leaf_level(), c as CellId)
                    .iter()
                    .any(|&n| owner[n as usize] != owner[c])
            });
            assert_eq!(split, procs > 1, "{procs} procs split neighbouring leaves");
            assert_sharded_matches_serial(&fmm, procs, 2);
        }
    }

    /// A tree of one leaf has no neighbour pairs: evaluation is L2P plus intra-leaf
    /// P2P alone, and every processor but the first owns nothing.
    #[test]
    fn sharded_stream_matches_the_serial_traced_spec_on_a_single_leaf() {
        let params = FmmParams { order: 6, target_per_leaf: 64, dt: 0.01, eps: 0.05 };
        let fmm = Fmm::two_plummer(40, 29, params);
        assert_eq!(fmm.build_tree().leaf_bodies.len(), 1);
        for procs in [1, 3, 7, 16] {
            assert_sharded_matches_serial(&fmm, procs, 2);
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
