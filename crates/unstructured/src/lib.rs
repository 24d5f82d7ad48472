//! # `unstructured` — the Chaos Unstructured benchmark (Category 2)
//!
//! A simplified computational-fluid-dynamics kernel over a static unstructured mesh.
//! The mesh is represented by **nodes** (the object array, 32-byte records per Table 1
//! of the paper), **edges** connecting two nodes and **faces** connecting three nodes.
//! Because the mesh is a decomposition of a physical domain, edges and faces only
//! connect physically adjacent nodes — but the node array is stored in random order, so
//! the edge loop's reads (and partner updates) are scattered all over the array.
//!
//! The computation is a series of loops, each block-partitioned over processors:
//!
//! * an **edge loop** that computes a flux per edge from the difference of its endpoint
//!   values and applies it to both endpoints;
//! * a **face loop** that applies a smaller correction among the three nodes of a face;
//! * a **node loop** that relaxes each node towards the new value.
//!
//! Data reordering permutes the node array (by column order or Hilbert order on the
//! node coordinates) and remaps the edge and face endpoint indices.  The paper's finding: column ordering
//! is best on page-based software DSM, Hilbert on hardware shared memory, and both
//! roughly double the speedup over the original random ordering.
//!
//! ```
//! use reorder::Method;
//! use unstructured::{Unstructured, UnstructuredParams};
//!
//! let mut app = Unstructured::generated(512, 21, UnstructuredParams::default());
//! let nodes = app.num_nodes();
//! app.reorder(Method::Column);
//! assert_eq!(app.num_nodes(), nodes, "reordering permutes, never drops nodes");
//! let trace = app.trace_sweeps(1, 4);
//! assert!(trace.total_accesses() > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use reorder::{compute_reordering, Method, Reordering};
use smtrace::{ObjectLayout, ProgramTrace, ShardSet, TraceBuilder, TraceSink};
use workloads::UnstructuredMesh;

/// Reusable buffers for the sharded traced path: per-chunk edge fluxes and face means
/// plus the delta array the node loop consumes.  Held across sweeps by
/// [`Unstructured::stream_sweeps`].
#[derive(Debug, Default)]
struct ShardScratch {
    fluxes: Vec<Vec<f64>>,
    means: Vec<Vec<f64>>,
    delta: Vec<f64>,
}

/// Object size (bytes) of a node record, from Table 1 of the paper.
pub const NODE_BYTES: usize = 32;

/// One mesh node: its coordinates (24 bytes) and the scalar state the solver updates
/// (8 bytes) — exactly the 32-byte object of Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Node {
    /// Node coordinates.
    pub pos: [f64; 3],
    /// Solution value at the node.
    pub value: f64,
}

/// Tunable parameters of the solver.
#[derive(Debug, Clone, Copy)]
pub struct UnstructuredParams {
    /// Flux coefficient of the edge loop.
    pub edge_coeff: f64,
    /// Correction coefficient of the face loop.
    pub face_coeff: f64,
    /// Relaxation factor of the node loop.
    pub relaxation: f64,
}

impl Default for UnstructuredParams {
    fn default() -> Self {
        UnstructuredParams { edge_coeff: 0.05, face_coeff: 0.01, relaxation: 0.9 }
    }
}

/// The Unstructured application state.
#[derive(Debug, Clone)]
pub struct Unstructured {
    /// The node array (the object array that data reordering permutes).
    pub nodes: Vec<Node>,
    /// Edges as pairs of node indices.
    pub edges: Vec<(u32, u32)>,
    /// Triangular faces as triples of node indices.
    pub faces: Vec<[u32; 3]>,
    /// Solver parameters.
    pub params: UnstructuredParams,
}

impl Unstructured {
    /// Build the application from a generated mesh.  Node values are initialized from a
    /// smooth function of position plus a node-index-dependent perturbation, so the
    /// solver has real work to do and results are order-independent.
    pub fn from_mesh(mesh: &UnstructuredMesh, params: UnstructuredParams) -> Self {
        let nodes: Vec<Node> = mesh
            .positions
            .iter()
            .map(|&p| Node { pos: p, value: (p[0] * 0.7).sin() + (p[1] * 0.4).cos() + p[2] * 0.01 })
            .collect();
        Unstructured { nodes, edges: mesh.edges.clone(), faces: mesh.faces.clone(), params }
    }

    /// Generate a mesh of approximately `target_nodes` nodes (the `mesh.10k` stand-in)
    /// and build the application over it.
    pub fn generated(target_nodes: usize, seed: u64, params: UnstructuredParams) -> Self {
        let mesh = UnstructuredMesh::with_approx_nodes(target_nodes, 0.25, seed);
        Unstructured::from_mesh(&mesh, params)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Object-array layout for the address-space analyses (32-byte records, Table 1).
    pub fn layout(&self) -> ObjectLayout {
        ObjectLayout::new(self.nodes.len(), NODE_BYTES)
    }

    /// Block owner of node `i` among `num_procs` processors.
    /// Invariant: a 1-processor trace is the processor-order concatenation of a P-processor one.
    pub fn node_owner(&self, i: usize, num_procs: usize) -> usize {
        i * num_procs / self.nodes.len()
    }

    /// Apply a geometric data reordering (Hilbert, Morton, row or column) to the node
    /// array and remap the edge and face connectivity.
    pub fn reorder(&mut self, method: Method) -> Reordering {
        let reordering =
            compute_reordering(method, self.nodes.len(), 3, |i, d| self.nodes[i].pos[d]);
        self.apply_permutation(&reordering);
        reordering
    }

    fn apply_permutation(&mut self, reordering: &Reordering) {
        reordering.apply_in_place(&mut self.nodes);
        for (a, b) in self.edges.iter_mut() {
            *a = reordering.remap_index(*a as usize) as u32;
            *b = reordering.remap_index(*b as usize) as u32;
        }
        for f in self.faces.iter_mut() {
            for v in f.iter_mut() {
                *v = reordering.remap_index(*v as usize) as u32;
            }
        }
    }

    fn edge_weight(&self, a: usize, b: usize) -> f64 {
        let pa = self.nodes[a].pos;
        let pb = self.nodes[b].pos;
        let len2: f64 = (0..3).map(|k| (pa[k] - pb[k]).powi(2)).sum();
        1.0 / (1.0 + len2)
    }

    /// Compute all per-node deltas for one sweep: edge fluxes plus face corrections.
    /// (Separated from the application of the deltas so the sequential and traced paths
    /// share the arithmetic and stay bit-identical.)
    fn compute_deltas(&self) -> Vec<f64> {
        let mut delta = vec![0.0f64; self.nodes.len()];
        for &(a, b) in &self.edges {
            let (a, b) = (a as usize, b as usize);
            let flux = self.params.edge_coeff
                * self.edge_weight(a, b)
                * (self.nodes[b].value - self.nodes[a].value);
            delta[a] += flux;
            delta[b] -= flux;
        }
        for f in &self.faces {
            let mean = (self.nodes[f[0] as usize].value
                + self.nodes[f[1] as usize].value
                + self.nodes[f[2] as usize].value)
                / 3.0;
            for &v in f {
                delta[v as usize] += self.params.face_coeff * (mean - self.nodes[v as usize].value);
            }
        }
        delta
    }

    fn apply_deltas(&mut self, delta: &[f64]) {
        for (n, d) in self.nodes.iter_mut().zip(delta) {
            n.value =
                self.params.relaxation * (n.value + d) + (1.0 - self.params.relaxation) * n.value;
        }
    }

    /// One sequential sweep (edge loop + face loop + node loop).
    pub fn sweep_sequential(&mut self) {
        let delta = self.compute_deltas();
        self.apply_deltas(&delta);
    }

    /// One traced sweep over `num_procs` virtual processors, recorded into `builder`
    /// access by access.  Three intervals: the edge loop (block partition of edges; reads
    /// and writes both endpoints), the face loop (block partition of faces), and the
    /// node loop (block partition of nodes).
    ///
    /// This serial path is the oracle, not a production path: production code traces
    /// through the sharded [`Unstructured::stream_sweeps`], which
    /// `sharded_stream_matches_the_serial_traced_spec` and the bench crate's
    /// `proptest_gen.rs` pin to it bit for bit.
    pub fn sweep_traced(&mut self, num_procs: usize, builder: &mut TraceBuilder) {
        assert_eq!(builder.num_procs(), num_procs, "sink must match the processor count");
        // Interval 1: edge loop.
        let edges_per_proc = self.edges.len().div_ceil(num_procs);
        for (chunk_idx, chunk) in self.edges.chunks(edges_per_proc.max(1)).enumerate() {
            for &(a, b) in chunk {
                builder.read(chunk_idx, a as usize);
                builder.read(chunk_idx, b as usize);
                builder.write(chunk_idx, a as usize);
                builder.write(chunk_idx, b as usize);
            }
        }
        builder.barrier();
        // Interval 2: face loop.
        let faces_per_proc = self.faces.len().div_ceil(num_procs).max(1);
        for (chunk_idx, chunk) in self.faces.chunks(faces_per_proc).enumerate() {
            for f in chunk {
                for &v in f {
                    builder.read(chunk_idx, v as usize);
                }
                for &v in f {
                    builder.write(chunk_idx, v as usize);
                }
            }
        }
        builder.barrier();
        // Interval 3: node loop.
        for i in 0..self.nodes.len() {
            let proc = self.node_owner(i, num_procs);
            builder.read(proc, i);
            builder.write(proc, i);
        }
        builder.barrier();
        // The arithmetic itself is shared with the sequential path.
        self.sweep_sequential();
    }

    /// One sharded traced sweep: the same intervals and per-processor access streams
    /// as [`Unstructured::sweep_traced`] (the executable spec this path is pinned to),
    /// but each virtual processor's edge chunk, face chunk and node block fill its own
    /// shard through [`ShardSet::run_interval`].  The per-edge fluxes and per-face
    /// means are computed inside the tasks (node values are read-only during a sweep)
    /// and the deltas are *accumulated* serially in global edge/face order, so the
    /// solution stays bit-identical to [`Unstructured::sweep_sequential`].
    fn sweep_traced_sharded<S: TraceSink>(
        &mut self,
        shards: &mut ShardSet,
        scratch: &mut ShardScratch,
        sink: &mut S,
    ) {
        let num_procs = shards.num_procs();
        let n = self.nodes.len();
        // Block partitions of every loop: a 1-processor trace concatenates a P-processor
        // one.  With fewer edges or faces than processors the later shards stay empty.
        // Interval 1: edge loop.
        let edges_per_proc = self.edges.len().div_ceil(num_procs).max(1);
        let num_edge_chunks = self.edges.chunks(edges_per_proc).len();
        scratch.fluxes.resize_with(num_edge_chunks, Vec::new);
        let work = self.edges.chunks(edges_per_proc).zip(&mut scratch.fluxes);
        shards.run_interval(sink, work, |shard, (chunk, fluxes)| {
            fluxes.clear();
            for &(a, b) in chunk {
                shard.read(a as usize);
                shard.read(b as usize);
                shard.write(a as usize);
                shard.write(b as usize);
                let (a, b) = (a as usize, b as usize);
                fluxes.push(
                    self.params.edge_coeff
                        * self.edge_weight(a, b)
                        * (self.nodes[b].value - self.nodes[a].value),
                );
            }
        });
        // Interval 2: face loop.
        let faces_per_proc = self.faces.len().div_ceil(num_procs).max(1);
        let num_face_chunks = self.faces.chunks(faces_per_proc).len();
        scratch.means.resize_with(num_face_chunks, Vec::new);
        let work = self.faces.chunks(faces_per_proc).zip(&mut scratch.means);
        shards.run_interval(sink, work, |shard, (chunk, means)| {
            means.clear();
            for f in chunk {
                for &v in f {
                    shard.read(v as usize);
                }
                for &v in f {
                    shard.write(v as usize);
                }
                means.push(
                    (self.nodes[f[0] as usize].value
                        + self.nodes[f[1] as usize].value
                        + self.nodes[f[2] as usize].value)
                        / 3.0,
                );
            }
        });
        // Interval 3: node loop (contiguous owner blocks).
        let blocks =
            (0..num_procs).map(|p| (p * n).div_ceil(num_procs)..((p + 1) * n).div_ceil(num_procs));
        shards.run_interval(sink, blocks, |shard, block| {
            for i in block {
                shard.read(i);
                shard.write(i);
            }
        });
        // Accumulate the precomputed fluxes and face corrections in global order —
        // the same order (and therefore the same floating-point result) as
        // `compute_deltas` — and relax.
        scratch.delta.clear();
        scratch.delta.resize(n, 0.0);
        for (chunk, fluxes) in self.edges.chunks(edges_per_proc).zip(&scratch.fluxes) {
            for (&(a, b), &flux) in chunk.iter().zip(fluxes) {
                scratch.delta[a as usize] += flux;
                scratch.delta[b as usize] -= flux;
            }
        }
        for (chunk, means) in self.faces.chunks(faces_per_proc).zip(&scratch.means) {
            for (f, &mean) in chunk.iter().zip(means) {
                for &v in f {
                    scratch.delta[v as usize] +=
                        self.params.face_coeff * (mean - self.nodes[v as usize].value);
                }
            }
        }
        let delta = std::mem::take(&mut scratch.delta);
        self.apply_deltas(&delta);
        scratch.delta = delta;
    }

    /// Run `sweeps` traced sweeps on `num_procs` virtual processors and return the
    /// finished (materialized) trace.
    pub fn trace_sweeps(&mut self, sweeps: usize, num_procs: usize) -> ProgramTrace {
        let mut builder = TraceBuilder::new(self.layout(), num_procs);
        self.stream_sweeps(sweeps, &mut builder);
        builder.finish()
    }

    /// Run `sweeps` traced sweeps, streaming the accesses into `sink` without
    /// materializing a trace.  Generation is sharded: every interval runs through
    /// [`ShardSet::run_interval`], one task per virtual processor, so every downstream
    /// counter is bit-identical to looping [`Unstructured::sweep_traced`] over the same
    /// sink.
    pub fn stream_sweeps<S: TraceSink>(&mut self, sweeps: usize, sink: &mut S) {
        let mut shards = ShardSet::new(sink.num_procs());
        let mut scratch = ShardScratch::default();
        for _ in 0..sweeps {
            self.sweep_traced_sharded(&mut shards, &mut scratch, sink);
        }
    }

    /// Sum of all node values (conserved by the edge loop, diagnostic).
    pub fn total_value(&self) -> f64 {
        self.nodes.iter().map(|n| n.value).sum()
    }

    /// Variance of node values (monotonically reduced by the smoothing sweeps).
    pub fn value_variance(&self) -> f64 {
        let n = self.nodes.len() as f64;
        let mean = self.total_value() / n;
        self.nodes.iter().map(|x| (x.value - mean).powi(2)).sum::<f64>() / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> Unstructured {
        Unstructured::generated(1000, seed, UnstructuredParams::default())
    }

    #[test]
    fn node_record_is_exactly_32_bytes() {
        assert_eq!(std::mem::size_of::<Node>(), NODE_BYTES);
    }

    #[test]
    fn edge_loop_conserves_the_total_value() {
        let mut app = small(1);
        app.params.face_coeff = 0.0;
        app.params.relaxation = 1.0;
        let before = app.total_value();
        for _ in 0..5 {
            app.sweep_sequential();
        }
        let after = app.total_value();
        assert!((before - after).abs() < 1e-6 * before.abs().max(1.0));
    }

    #[test]
    fn sweeps_smooth_the_field() {
        let mut app = small(2);
        let before = app.value_variance();
        for _ in 0..10 {
            app.sweep_sequential();
        }
        let after = app.value_variance();
        assert!(after < before, "variance should drop: {before} -> {after}");
    }

    #[test]
    fn traced_sweep_emits_three_intervals() {
        let mut app = small(4);
        let trace = app.trace_sweeps(1, 8);
        assert_eq!(trace.intervals.len(), 3);
        // Node loop writes every node exactly once.
        let writes: usize = trace.intervals[2]
            .accesses
            .iter()
            .map(|s| s.iter().filter(|a| a.is_write()).count())
            .sum();
        assert_eq!(writes, app.num_nodes());
    }

    #[test]
    fn geometric_reordering_preserves_the_solution() {
        let mut a = small(5);
        let mut b = a.clone();
        b.reorder(Method::Column);
        for _ in 0..3 {
            a.sweep_sequential();
            b.sweep_sequential();
        }
        // Compare value multisets (arrays are permutations of each other).
        let mut va: Vec<i64> = a.nodes.iter().map(|n| (n.value * 1e9).round() as i64).collect();
        let mut vb: Vec<i64> = b.nodes.iter().map(|n| (n.value * 1e9).round() as i64).collect();
        va.sort_unstable();
        vb.sort_unstable();
        assert_eq!(va, vb);
    }

    #[test]
    fn column_reordering_reduces_edge_index_span_too() {
        let mut app = small(7);
        let span = |app: &Unstructured| {
            app.edges.iter().map(|&(x, y)| (f64::from(x) - f64::from(y)).abs()).sum::<f64>()
                / app.edges.len() as f64
        };
        let before = span(&app);
        app.reorder(Method::Column);
        let after = span(&app);
        assert!(
            after < before / 2.0,
            "column order should shrink the edge span: {before} -> {after}"
        );
    }

    #[test]
    fn node_owner_blocks_are_contiguous() {
        let app = small(8);
        let owners: Vec<usize> = (0..app.num_nodes()).map(|i| app.node_owner(i, 16)).collect();
        for w in owners.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert_eq!(*owners.last().unwrap(), 15);
    }

    /// The sharded parallel traced path must produce the bit-identical trace — and the
    /// bit-identical solution — as looping the serial `sweep_traced` spec.
    #[test]
    fn sharded_stream_matches_the_serial_traced_spec() {
        let mut serial = small(23);
        let mut sharded = serial.clone();
        let sweeps = 3;
        let procs = 5;
        let mut serial_builder = TraceBuilder::new(serial.layout(), procs);
        for _ in 0..sweeps {
            serial.sweep_traced(procs, &mut serial_builder);
        }
        let serial_trace = serial_builder.finish();
        let sharded_trace = sharded.trace_sweeps(sweeps, procs);
        assert_eq!(serial_trace, sharded_trace);
        for (a, b) in serial.nodes.iter().zip(&sharded.nodes) {
            assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
    }

    /// `stream_sweeps` feeds the DSM page-history sink directly: the streamed
    /// reduction must be bit-identical to materializing the trace first.
    #[test]
    fn stream_sweeps_feeds_the_dsm_page_history_sink() {
        let mut app = small(21);
        let layout = app.layout();
        let mut builder = TraceBuilder::new(layout.clone(), 4);
        let mut sink = dsm::PageHistorySink::new(layout.clone(), 4, 1024);
        {
            let mut tee = smtrace::TeeSink::new(&mut builder, &mut sink);
            app.stream_sweeps(2, &mut tee);
        }
        let trace = builder.finish();
        let streamed = sink.finish();
        assert_eq!(streamed, dsm::PageWriteHistory::build(&trace, &layout, 1024));
    }
}
