//! # `molecular` — the molecular-dynamics benchmarks (Water-Spatial and Moldyn)
//!
//! Two short-range N-body codes from the paper's benchmark set:
//!
//! * **Water-Spatial** (SPLASH-2) — *Category 1*: a uniform 3-D grid of cells chains
//!   together spatially adjacent molecules; each processor owns a physically contiguous
//!   block of cells and only inspects neighbouring cells to find molecules within the
//!   cutoff radius.  The molecule array itself is initialized in random order, so the
//!   molecules a processor updates are scattered through memory — Hilbert reordering of
//!   the molecule array removes the mismatch.  The 680-byte molecule record is larger
//!   than a hardware cache line, which is why reordering helps little on the Origin
//!   (Table 2) while still helping on page-based DSM.
//!
//! * **Moldyn** (Chaos) — *Category 2*: molecules live in a plain array that is block
//!   partitioned over the processors; a periodically rebuilt *interaction list* holds
//!   the index pairs within the cutoff, and each time step iterates over that list.
//!   Writes are local to the owner's block, but reads (and the partner's force update)
//!   chase the interaction list all over the array.  Column reordering is the paper's
//!   recommendation on page-based DSM; Hilbert wins on hardware shared memory.
//!
//! Both applications expose the same execution paths as the `nbody` crate: a
//! sequential reference step, a serial traced step (the oracle), and the sharded traced
//! stream that records per-virtual-processor accesses for the `memsim` / `dsm`
//! substrates.
//!
//! ```
//! use molecular::{Moldyn, MoldynParams};
//! use reorder::Method;
//!
//! let mut sim = Moldyn::lattice(500, 13, MoldynParams::default());
//! sim.reorder(Method::Column);
//! let trace = sim.trace_steps(1, 4);
//! assert_eq!(trace.num_procs, 4);
//! assert!(trace.total_accesses() > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// In the numeric kernels the loop index is also the semantic id (processor,
// cell, dimension), so indexed loops read better than enumerate chains.
#![allow(clippy::needless_range_loop)]

pub mod cellgrid;
pub mod moldyn;
pub mod water;

pub use cellgrid::CellGrid;
pub use moldyn::{Moldyn, MoldynParams, Molecule};
pub use water::{WaterMolecule, WaterSpatial, WaterSpatialParams};
