//! The Barnes-Hut benchmark: hierarchical 3-D N-body simulation with costzones
//! partitioning, as used in the paper (SPLASH-2 Barnes with sequential tree building).
//!
//! One iteration is:
//!
//! 1. **Build tree** — a single processor reads all bodies and rebuilds the octree
//!    (barrier);
//! 2. **Force evaluation** — bodies are divided among processors by an in-order
//!    traversal of the tree weighted by the previous iteration's per-body work
//!    (costzones); each processor computes forces for its bodies by partially
//!    traversing the tree with the opening-angle criterion θ (barrier);
//! 3. **Update** — each processor advances its bodies with a leapfrog step (barrier).
//!
//! Every execution path — sequential, rayon-parallel (wall-clock measurements), the
//! sharded traced path that records per-virtual-processor accesses to the body array
//! for the `memsim`/`dsm` substrates, and its serial spec — evaluates forces with one
//! kernel: a stackless walk over the octree's flat preorder layout
//! ([`Octree::walk`]).  The kernel hands each body read to a caller's closure, so the
//! untraced paths pass a no-op and the traced ones push the read straight into the
//! processor's trace.

use rayon::prelude::*;
use reorder::{reorder_by_method, Method, Reordering};
use smtrace::{ObjectLayout, ProgramTrace, ShardSet, TraceBuilder, TraceSink};

use crate::body::{Body, BODY_BYTES_FIG};
use crate::octree::Octree;
use crate::vec3::Vec3;

/// Tunable parameters of the Barnes-Hut simulation.
#[derive(Debug, Clone, Copy)]
pub struct BarnesHutParams {
    /// Opening-angle criterion θ: a cell of size `s` at distance `d` is approximated by
    /// its centre of mass when `s / d < θ`.  θ = 0 forces exact (direct-sum) evaluation.
    pub theta: f64,
    /// Time step of the leapfrog integrator.
    pub dt: f64,
    /// Plummer softening length added to every pairwise distance.
    pub eps: f64,
    /// Maximum number of bodies per leaf cell.
    pub leaf_capacity: usize,
}

impl Default for BarnesHutParams {
    fn default() -> Self {
        BarnesHutParams { theta: 0.5, dt: 0.025, eps: 0.05, leaf_capacity: 8 }
    }
}

/// Result of one force evaluation for one body.
#[derive(Debug, Clone, Copy)]
struct ForceResult {
    body: u32,
    acc: Vec3,
    phi: f64,
    cost: u32,
}

/// Reusable buffers for the sharded traced path: the costzones partition, the in-order
/// traversal scratch, and per-virtual-processor force results.  Held across iterations
/// by [`BarnesHut::stream_iterations`] so steady-state trace generation performs no
/// per-iteration allocations.
#[derive(Debug, Default)]
struct ShardScratch {
    order: Vec<u32>,
    parts: Vec<Vec<u32>>,
    results: Vec<Vec<ForceResult>>,
}

/// The Barnes-Hut application state.
#[derive(Debug, Clone)]
pub struct BarnesHut {
    /// The shared body array (the object array that data reordering permutes).
    pub bodies: Vec<Body>,
    /// Simulation parameters.
    pub params: BarnesHutParams,
}

impl BarnesHut {
    /// Create a simulation from an existing body array.
    ///
    /// # Panics
    /// Panics if `bodies` is empty.
    pub fn new(bodies: Vec<Body>, params: BarnesHutParams) -> Self {
        assert!(!bodies.is_empty(), "need at least one body");
        BarnesHut { bodies, params }
    }

    /// The paper's input: `n` bodies drawn from the two-Plummer distribution, stored in
    /// random order.
    pub fn two_plummer(n: usize, seed: u64, params: BarnesHutParams) -> Self {
        let (pos, mass) = workloads::two_plummer(n, 3, 1.0, 6.0, seed);
        BarnesHut::new(Body::from_positions(&pos, &mass), params)
    }

    /// Number of bodies.
    pub fn num_bodies(&self) -> usize {
        self.bodies.len()
    }

    /// The object-array layout used by the address-space analyses (96-byte records, as
    /// in the paper's Figures 1–5).
    pub fn layout(&self) -> ObjectLayout {
        ObjectLayout::new(self.bodies.len(), BODY_BYTES_FIG)
    }

    /// Apply a data reordering to the body array (the paper's one-call library use).
    /// Returns the applied permutation; Barnes-Hut keeps no persistent index structures
    /// (the tree is rebuilt every iteration), so nothing else needs remapping.
    pub fn reorder(&mut self, method: Method) -> Reordering {
        reorder_by_method(method, &mut self.bodies, 3, |b, d| b.coord(d))
    }

    /// Build the octree over the current body positions.
    pub fn build_tree(&self) -> Octree {
        Octree::build(&self.bodies, self.params.leaf_capacity)
    }

    /// Costzones partition: split the in-order body sequence into `num_procs` contiguous
    /// chunks of approximately equal total cost.  Returns one body-index list per
    /// processor.
    pub fn partition(&self, tree: &Octree, num_procs: usize) -> Vec<Vec<u32>> {
        let mut order = Vec::new();
        let mut parts = Vec::new();
        self.partition_into(tree, num_procs, &mut order, &mut parts);
        parts
    }

    /// [`BarnesHut::partition`] into caller-provided buffers (`order` is traversal
    /// scratch), so per-iteration partitions reuse their allocations.
    /// Invariant: a 1-processor trace is the processor-order concatenation of a P-processor one.
    fn partition_into(
        &self,
        tree: &Octree,
        num_procs: usize,
        order: &mut Vec<u32>,
        parts: &mut Vec<Vec<u32>>,
    ) {
        assert!(num_procs > 0);
        tree.inorder_bodies_into(order);
        let total_cost: u64 =
            order.iter().map(|&b| u64::from(self.bodies[b as usize].cost.max(1))).sum();
        let target = (total_cost as f64 / num_procs as f64).max(1.0);
        parts.resize_with(num_procs, Vec::new);
        for part in parts.iter_mut() {
            part.clear();
        }
        let mut acc = 0.0;
        let mut proc = 0usize;
        for &b in order.iter() {
            if acc >= target * (proc + 1) as f64 && proc + 1 < num_procs {
                proc += 1;
            }
            parts[proc].push(b);
            acc += f64::from(self.bodies[b as usize].cost.max(1));
        }
    }

    /// Compute the gravitational acceleration, potential, and interaction count for
    /// body `i` by a partial walk of `tree`, calling `read(j)` for every *body* read on
    /// the way (direct interactions within opened leaves), in order.
    ///
    /// The walk visits nodes in the order a stack traversal would: a node with no mass
    /// is skipped, an opened internal node steps into its subtree, and every other node
    /// interacts (with its bodies if it is an opened leaf, with its centre of mass
    /// otherwise) and jumps past its subtree.
    fn force(&self, tree: &Octree, i: u32, mut read: impl FnMut(u32)) -> ForceResult {
        let theta = self.params.theta;
        let eps2 = self.params.eps * self.params.eps;
        let pos_i = self.bodies[i as usize].pos;
        let (walk, ids, points) = tree.walk();
        let mut acc = Vec3::ZERO;
        let mut phi = 0.0;
        let mut cost = 0u32;
        let mut k = 0;
        while k < walk.len() {
            let node = &walk[k];
            if node.mass == 0.0 {
                k = node.skip as usize;
                continue;
            }
            let delta = node.com - pos_i;
            let dist2 = delta.norm_sq() + eps2;
            let dist = dist2.sqrt();
            let open = node.size >= theta * dist;
            if open && node.body_len == 0 {
                // Opened internal node: its first child is next in the walk.
                k += 1;
                continue;
            }
            if open {
                // Direct interactions with the bodies of the leaf.
                let leaf = node.body_start as usize..(node.body_start + node.body_len) as usize;
                for (&j, &(pos_j, mass_j)) in ids[leaf.clone()].iter().zip(&points[leaf]) {
                    if j == i {
                        continue;
                    }
                    read(j);
                    let d = pos_j - pos_i;
                    let r2 = d.norm_sq() + eps2;
                    let r1 = r2.sqrt();
                    let inv_r3 = 1.0 / (r2 * r1);
                    acc += d * (mass_j * inv_r3);
                    phi -= mass_j / r1;
                    cost += 1;
                }
            } else {
                // Cell approximation via centre of mass (reads tree data only, not the
                // body array).
                let inv_r3 = 1.0 / (dist2 * dist);
                acc += delta * (node.mass * inv_r3);
                phi -= node.mass / dist;
                cost += 1;
            }
            k = node.skip as usize;
        }
        ForceResult { body: i, acc, phi, cost }
    }

    fn apply_forces(&mut self, results: &[ForceResult]) {
        for r in results {
            let b = &mut self.bodies[r.body as usize];
            b.acc = r.acc;
            b.phi = r.phi;
            b.cost = r.cost.max(1);
        }
    }

    fn integrate_bodies(&mut self, indices: &[u32]) {
        let dt = self.params.dt;
        for &i in indices {
            let b = &mut self.bodies[i as usize];
            b.vel += b.acc * dt;
            b.pos += b.vel * dt;
        }
    }

    /// One sequential iteration (reference path; also used for single-processor
    /// baselines).
    pub fn step_sequential(&mut self) {
        let tree = self.build_tree();
        let results: Vec<ForceResult> =
            (0..self.bodies.len() as u32).map(|i| self.force(&tree, i, |_| {})).collect();
        self.apply_forces(&results);
        let all: Vec<u32> = (0..self.bodies.len() as u32).collect();
        self.integrate_bodies(&all);
    }

    /// One parallel iteration using rayon: the partition is computed exactly as in the
    /// traced path, and each chunk's forces are evaluated by a rayon task.
    pub fn step_parallel(&mut self, num_chunks: usize) {
        let tree = self.build_tree();
        let parts = self.partition(&tree, num_chunks.max(1));
        let results: Vec<ForceResult> = parts
            .par_iter()
            .flat_map_iter(|chunk| {
                chunk.iter().map(|&i| self.force(&tree, i, |_| {})).collect::<Vec<_>>()
            })
            .collect();
        self.apply_forces(&results);
        let all: Vec<u32> = (0..self.bodies.len() as u32).collect();
        self.integrate_bodies(&all);
    }

    /// One traced iteration over `num_procs` virtual processors: performs the same
    /// computation as [`BarnesHut::step_parallel`] and records the body-array accesses
    /// of each virtual processor into `builder`, access by access (three intervals:
    /// tree build, force evaluation, update).
    ///
    /// This serial path is the oracle, not a production path: production code traces
    /// through the sharded [`BarnesHut::stream_iterations`], which
    /// `sharded_stream_matches_the_serial_traced_spec` and the bench crate's
    /// `proptest_gen.rs` pin to it bit for bit.
    pub fn step_traced(&mut self, num_procs: usize, builder: &mut TraceBuilder) {
        assert_eq!(builder.num_procs(), num_procs, "sink must match the processor count");
        // Interval 1: sequential tree build — processor 0 reads every body.
        let tree = self.build_tree();
        for i in 0..self.bodies.len() {
            builder.read(0, i);
        }
        builder.barrier();

        // Interval 2: force evaluation.
        let parts = self.partition(&tree, num_procs);
        let mut all_results = Vec::with_capacity(self.bodies.len());
        for (proc, chunk) in parts.iter().enumerate() {
            for &i in chunk {
                builder.read(proc, i as usize);
                let r = self.force(&tree, i, |j| builder.read(proc, j as usize));
                builder.write(proc, i as usize);
                all_results.push(r);
            }
        }
        builder.barrier();
        self.apply_forces(&all_results);

        // Interval 3: update — each processor advances its own bodies.
        for (proc, chunk) in parts.iter().enumerate() {
            for &i in chunk {
                builder.write(proc, i as usize);
            }
            self.integrate_bodies(chunk);
        }
        builder.barrier();
    }

    /// One sharded traced iteration: the same computation and per-processor access
    /// streams as [`BarnesHut::step_traced`] (the executable spec this path is pinned
    /// to), but each virtual processor's chunk — tree traversal, force evaluation and
    /// access recording — fills its own shard through [`ShardSet::run_interval`],
    /// with all scratch buffers reused across iterations.
    fn step_traced_sharded<S: TraceSink>(
        &mut self,
        shards: &mut ShardSet,
        scratch: &mut ShardScratch,
        sink: &mut S,
    ) {
        // Interval 1: sequential tree build — processor 0 reads every body.
        let tree = self.build_tree();
        shards
            .run_interval(sink, [self.bodies.len()], |shard, n| (0..n).for_each(|i| shard.read(i)));

        // Interval 2: force evaluation — each processor fills its shard in the exact
        // order the serial loop emits.
        self.partition_into(&tree, shards.num_procs(), &mut scratch.order, &mut scratch.parts);
        scratch.results.resize_with(shards.num_procs(), Vec::new);
        let work = scratch.parts.iter().zip(&mut scratch.results);
        shards.run_interval(sink, work, |shard, (chunk, results)| {
            results.clear();
            for &i in chunk {
                shard.read(i as usize);
                let r = self.force(&tree, i, |j| shard.read(j as usize));
                shard.write(i as usize);
                results.push(r);
            }
        });
        for results in &scratch.results {
            self.apply_forces(results);
        }

        // Interval 3: update — each processor writes (and advances) its own bodies.
        shards.run_interval(sink, &scratch.parts, |shard, chunk| {
            for &i in chunk {
                shard.write(i as usize);
            }
        });
        for chunk in &scratch.parts {
            self.integrate_bodies(chunk);
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
    /// counter is bit-identical to looping [`BarnesHut::step_traced`] over the same
    /// sink.
    pub fn stream_iterations<S: TraceSink>(&mut self, iterations: usize, sink: &mut S) {
        let mut shards = ShardSet::new(sink.num_procs());
        let mut scratch = ShardScratch::default();
        for _ in 0..iterations {
            self.step_traced_sharded(&mut shards, &mut scratch, sink);
        }
    }

    /// Total energy (kinetic + potential) of the system; a physics sanity check used by
    /// the test-suite.  Potential energy uses the pairwise direct sum, so only call this
    /// on small systems.
    pub fn total_energy_direct(&self) -> f64 {
        let kinetic: f64 = self.bodies.iter().map(|b| 0.5 * b.mass * b.vel.norm_sq()).sum();
        let mut potential = 0.0;
        let eps2 = self.params.eps * self.params.eps;
        for i in 0..self.bodies.len() {
            for j in (i + 1)..self.bodies.len() {
                let d2 = self.bodies[i].pos.dist_sq(self.bodies[j].pos) + eps2;
                potential -= self.bodies[i].mass * self.bodies[j].mass / d2.sqrt();
            }
        }
        kinetic + potential
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::octree::NodeId;
    use proptest::prelude::*;

    /// The kernel's oracle, a stack traversal of the octree's construction arena: it
    /// pops nodes off an explicit stack, pushing an opened internal node's children in
    /// ascending octant order, and logs every body read into `reads`.
    fn force_on_body_scratch(
        sim: &BarnesHut,
        tree: &Octree,
        i: u32,
        reads: &mut Vec<u32>,
        stack: &mut Vec<NodeId>,
    ) -> ForceResult {
        let theta = sim.params.theta;
        let eps2 = sim.params.eps * sim.params.eps;
        let pos_i = sim.bodies[i as usize].pos;
        let mut acc = Vec3::ZERO;
        let mut phi = 0.0;
        let mut cost = 0u32;
        stack.clear();
        stack.push(tree.root());
        while let Some(id) = stack.pop() {
            let node = tree.node(id);
            if node.mass == 0.0 {
                continue;
            }
            let delta = node.com - pos_i;
            let dist2 = delta.norm_sq() + eps2;
            let dist = dist2.sqrt();
            let open = 2.0 * node.half >= theta * dist;
            if node.is_leaf || !open {
                if node.is_leaf && open {
                    for &j in tree.leaf_bodies(id) {
                        if j == i {
                            continue;
                        }
                        let bj = &sim.bodies[j as usize];
                        reads.push(j);
                        let d = bj.pos - pos_i;
                        let r2 = d.norm_sq() + eps2;
                        let r1 = r2.sqrt();
                        let inv_r3 = 1.0 / (r2 * r1);
                        acc += d * (bj.mass * inv_r3);
                        phi -= bj.mass / r1;
                        cost += 1;
                    }
                } else {
                    let inv_r3 = 1.0 / (dist2 * dist);
                    acc += delta * (node.mass * inv_r3);
                    phi -= node.mass / dist;
                    cost += 1;
                }
            } else {
                for child in node.children.into_iter().flatten() {
                    stack.push(child);
                }
            }
        }
        ForceResult { body: i, acc, phi, cost }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The walk and the stack traversal agree bit for bit on every body's force,
        /// potential and cost, and read the same bodies in the same order.  Inputs
        /// include coincident bodies (leaves that cannot split) and massless bodies
        /// (zero-mass leaves and subtrees, which both traversals skip).
        #[test]
        fn walk_matches_the_stack_oracle(
            n in 1usize..300,
            seed in any::<u64>(),
            theta in (0u32..4, 0.3f64..1.2).prop_map(|(pick, t)| if pick == 0 { 0.0 } else { t }),
            leaf_capacity in 1usize..17,
            shape in (0usize..3, 0usize..3),
        ) {
            let (coincident, massless) = shape;
            let params = BarnesHutParams { theta, dt: 0.01, eps: 0.05, leaf_capacity };
            let mut sim = BarnesHut::two_plummer(n, seed, params);
            let anchor = sim.bodies[0].pos;
            for (j, b) in sim.bodies.iter_mut().enumerate() {
                // Stack every third or every other body onto body 0's position.
                if coincident > 0 && j % (4 - coincident) == 0 {
                    b.pos = anchor;
                }
                // Zero every other body's mass, or a whole half-space's.
                if (massless == 1 && j % 2 == 1) || (massless == 2 && b.pos.x < anchor.x) {
                    b.mass = 0.0;
                }
            }
            let tree = sim.build_tree();
            let (mut walk_reads, mut stack_reads, mut stack) = (Vec::new(), Vec::new(), Vec::new());
            for i in 0..n as u32 {
                walk_reads.clear();
                stack_reads.clear();
                let w = sim.force(&tree, i, |j| walk_reads.push(j));
                let s = force_on_body_scratch(&sim, &tree, i, &mut stack_reads, &mut stack);
                prop_assert_eq!(w.body, s.body);
                prop_assert_eq!(w.acc.x.to_bits(), s.acc.x.to_bits(), "body {}", i);
                prop_assert_eq!(w.acc.y.to_bits(), s.acc.y.to_bits(), "body {}", i);
                prop_assert_eq!(w.acc.z.to_bits(), s.acc.z.to_bits(), "body {}", i);
                prop_assert_eq!(w.phi.to_bits(), s.phi.to_bits(), "body {}", i);
                prop_assert_eq!(w.cost, s.cost, "body {}", i);
                prop_assert_eq!(&walk_reads, &stack_reads, "body {}", i);
            }
        }
    }

    fn small_sim(n: usize, seed: u64, theta: f64) -> BarnesHut {
        BarnesHut::two_plummer(
            n,
            seed,
            BarnesHutParams { theta, dt: 0.01, eps: 0.05, leaf_capacity: 8 },
        )
    }

    #[test]
    fn theta_zero_matches_direct_summation() {
        let sim = small_sim(64, 1, 0.0);
        let tree = sim.build_tree();
        // Direct sum for body 0.
        let eps2 = sim.params.eps * sim.params.eps;
        let p0 = sim.bodies[0].pos;
        let mut acc = Vec3::ZERO;
        for j in 1..sim.bodies.len() {
            let d = sim.bodies[j].pos - p0;
            let r2 = d.norm_sq() + eps2;
            acc += d * (sim.bodies[j].mass / (r2 * r2.sqrt()));
        }
        let r = sim.force(&tree, 0, |_| {});
        assert!((r.acc - acc).norm() < 1e-9 * acc.norm().max(1.0));
    }

    #[test]
    fn approximation_error_is_small_for_moderate_theta() {
        let exact = small_sim(256, 2, 0.0);
        let approx = small_sim(256, 2, 0.7);
        let tree_e = exact.build_tree();
        let tree_a = approx.build_tree();
        let mut rel_err_sum = 0.0;
        for i in 0..64u32 {
            let fe = exact.force(&tree_e, i, |_| {}).acc;
            let fa = approx.force(&tree_a, i, |_| {}).acc;
            rel_err_sum += (fe - fa).norm() / fe.norm().max(1e-12);
        }
        let mean_rel_err = rel_err_sum / 64.0;
        assert!(mean_rel_err < 0.05, "mean relative force error {mean_rel_err}");
    }

    #[test]
    fn parallel_and_sequential_steps_agree() {
        let mut a = small_sim(200, 3, 0.6);
        let mut b = a.clone();
        a.step_sequential();
        b.step_parallel(4);
        for (x, y) in a.bodies.iter().zip(&b.bodies) {
            assert!(x.pos.dist(y.pos) < 1e-12);
            assert!((x.phi - y.phi).abs() < 1e-12);
        }
    }

    /// The reorder-frequency ablation drifts with `step_parallel` between its traced
    /// iterations, so an untraced step must leave every body bit-identical to the
    /// sharded traced stream, whatever the worker count.
    #[test]
    fn parallel_step_is_bit_identical_to_the_sharded_stream() {
        let procs = 5;
        for threads in [1, 3] {
            let mut stepped = small_sim(400, 11, 0.5);
            let mut streamed = stepped.clone();
            rayon::with_num_threads(threads, || {
                for _ in 0..4 {
                    stepped.step_parallel(procs);
                }
                streamed.stream_iterations(4, &mut smtrace::NullSink::new(procs));
            });
            let bits = |v: Vec3| v.to_array().map(f64::to_bits);
            for (a, b) in stepped.bodies.iter().zip(&streamed.bodies) {
                assert_eq!(bits(a.pos), bits(b.pos), "{threads} worker(s)");
                assert_eq!(bits(a.vel), bits(b.vel), "{threads} worker(s)");
                assert_eq!(bits(a.acc), bits(b.acc), "{threads} worker(s)");
                assert_eq!(a.phi.to_bits(), b.phi.to_bits(), "{threads} worker(s)");
                assert_eq!(a.cost, b.cost, "{threads} worker(s)");
            }
        }
    }

    #[test]
    fn traced_step_produces_three_intervals_per_iteration() {
        let mut sim = small_sim(128, 4, 0.6);
        let trace = sim.trace_iterations(2, 4);
        assert_eq!(trace.num_procs, 4);
        assert_eq!(trace.intervals.len(), 6);
        // Interval 0 is the sequential tree build: only processor 0 is active.
        assert!(trace.intervals[0].accesses[0].len() >= 128);
        for p in 1..4 {
            assert!(trace.intervals[0].accesses[p].is_empty());
        }
        // Force evaluation writes every body exactly once per iteration.
        let writes: usize = trace.intervals[1]
            .accesses
            .iter()
            .map(|s| s.iter().filter(|a| a.is_write()).count())
            .sum();
        assert_eq!(writes, 128);
    }

    #[test]
    fn traced_step_matches_untraced_physics() {
        let mut a = small_sim(150, 5, 0.6);
        let mut b = a.clone();
        a.step_sequential();
        let mut builder = TraceBuilder::new(b.layout(), 4);
        b.step_traced(4, &mut builder);
        for (x, y) in a.bodies.iter().zip(&b.bodies) {
            assert!(x.pos.dist(y.pos) < 1e-12);
        }
    }

    #[test]
    fn partition_balances_cost_and_covers_all_bodies() {
        let sim = small_sim(500, 6, 0.6);
        let tree = sim.build_tree();
        let parts = sim.partition(&tree, 8);
        assert_eq!(parts.len(), 8);
        let mut all: Vec<u32> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..500u32).collect::<Vec<_>>());
        let sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max <= min * 3 + 8, "partition is too unbalanced: {sizes:?}");
    }

    #[test]
    fn hilbert_reordering_preserves_the_body_multiset_and_physics() {
        let mut original = small_sim(200, 7, 0.6);
        let mut reordered = original.clone();
        reordered.reorder(Method::Hilbert);
        // Same multiset of bodies.
        let mut a: Vec<_> = original.bodies.iter().map(|b| format!("{:?}", b.pos)).collect();
        let mut b: Vec<_> = reordered.bodies.iter().map(|b| format!("{:?}", b.pos)).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // Physics is identical (order of bodies does not matter).
        original.step_sequential();
        reordered.step_sequential();
        let e1 = original.total_energy_direct();
        let e2 = reordered.total_energy_direct();
        assert!((e1 - e2).abs() < 1e-9 * e1.abs().max(1.0));
    }

    #[test]
    fn energy_is_approximately_conserved_over_a_few_steps() {
        let mut sim = small_sim(100, 8, 0.3);
        let e0 = sim.total_energy_direct();
        for _ in 0..5 {
            sim.step_sequential();
        }
        let e1 = sim.total_energy_direct();
        let drift = ((e1 - e0) / e0).abs();
        assert!(drift < 0.15, "energy drift {drift} too large");
    }

    #[test]
    fn cost_counters_are_updated_for_load_balancing() {
        let mut sim = small_sim(300, 9, 0.6);
        sim.step_sequential();
        assert!(sim.bodies.iter().any(|b| b.cost > 1));
    }

    /// The sharded parallel traced path must produce the bit-identical trace — and the
    /// bit-identical body state — as looping the serial `step_traced` spec.
    #[test]
    fn sharded_stream_matches_the_serial_traced_spec() {
        let mut serial = small_sim(400, 21, 0.5);
        let mut sharded = serial.clone();
        let iterations = 3;
        let procs = 4;
        let mut serial_builder = TraceBuilder::new(serial.layout(), procs);
        for _ in 0..iterations {
            serial.step_traced(procs, &mut serial_builder);
        }
        let serial_trace = serial_builder.finish();
        let sharded_trace = sharded.trace_iterations(iterations, procs);
        assert_eq!(serial_trace, sharded_trace);
        for (a, b) in serial.bodies.iter().zip(&sharded.bodies) {
            assert_eq!(a.pos.x.to_bits(), b.pos.x.to_bits());
            assert_eq!(a.vel.x.to_bits(), b.vel.x.to_bits());
            assert_eq!(a.phi.to_bits(), b.phi.to_bits());
            assert_eq!(a.cost, b.cost);
        }
    }

    /// `stream_iterations` feeds the DSM page-history sink directly: the streamed
    /// reduction must be bit-identical to materializing the trace first.
    #[test]
    fn stream_iterations_feeds_the_dsm_page_history_sink() {
        let mut sim = small_sim(300, 17, 0.5);
        let layout = sim.layout();
        let mut builder = TraceBuilder::new(layout.clone(), 4);
        let mut sink = dsm::PageHistorySink::new(layout.clone(), 4, 1024);
        {
            let mut tee = smtrace::TeeSink::new(&mut builder, &mut sink);
            sim.stream_iterations(2, &mut tee);
        }
        let trace = builder.finish();
        let streamed = sink.finish();
        assert_eq!(streamed, dsm::PageWriteHistory::build(&trace, &layout, 1024));
    }
}
