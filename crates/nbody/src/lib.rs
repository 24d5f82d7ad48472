//! # `nbody` — hierarchical N-body benchmarks (Barnes-Hut and FMM)
//!
//! These are the paper's *Category 1* applications: the computation is partitioned
//! through an auxiliary spatial data structure (an octree for Barnes-Hut, a quadtree for
//! the adaptive Fast Multipole Method) so that each processor works on a physically
//! contiguous region of the domain.  The particles themselves, however, live in one
//! shared array in **random** order, so the particles a processor updates are scattered
//! over the whole array — the mismatch that causes false sharing and poor spatial
//! locality, and that Hilbert reordering of the particle array removes (Sections 2.1
//! and 3.3 of the paper).
//!
//! Both applications provide the same capabilities:
//!
//! * an untraced sequential reference step;
//! * deterministic *virtual-processor* partitioning plus access-trace capture
//!   (sharded across the host's cores into any [`smtrace::TraceSink`]) so that the
//!   `memsim` / `dsm` substrates can evaluate any processor count regardless of host
//!   cores;
//! * a reordering hook that applies a [`reorder::Method`] to the particle array
//!   (the paper's one-line library call).
//!
//! Structure of one Barnes-Hut iteration (matching the paper's description, with the
//! sequential tree build of the modified benchmark):
//!
//! 1. **Build tree** — one processor reads every particle and builds the octree;
//! 2. **Force evaluation** — particles are divided among processors by an in-order
//!    (costzones) traversal of the tree; each processor computes forces for its
//!    particles via partial tree traversals;
//! 3. **Update** — each processor advances the positions/velocities of its particles.
//!
//! Barriers separate the phases, exactly as in the traced intervals.
//!
//! ```
//! use nbody::{BarnesHut, BarnesHutParams};
//! use reorder::Method;
//!
//! let mut sim = BarnesHut::two_plummer(256, 7, BarnesHutParams::default());
//! sim.reorder(Method::Hilbert);
//! // One traced iteration on 4 virtual processors: three barrier intervals
//! // (build, force, update) with every body touched.
//! let trace = sim.trace_iterations(1, 4);
//! assert_eq!(trace.num_procs, 4);
//! assert_eq!(trace.intervals.len(), 3);
//! assert!(trace.total_accesses() >= 256);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// In the numeric kernels the loop index is also the semantic id (processor,
// cell, dimension), so indexed loops read better than enumerate chains.
#![allow(clippy::needless_range_loop)]

pub mod barnes_hut;
pub mod body;
pub mod fmm;
pub mod octree;
pub mod vec3;

pub use barnes_hut::{BarnesHut, BarnesHutParams};
pub use body::Body;
pub use fmm::{Fmm, FmmParams};
pub use vec3::Vec3;
