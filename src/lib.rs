//! # `datareorder` — umbrella crate for the SC 2000 data-reordering reproduction
//!
//! This crate re-exports the whole workspace under one roof so that examples and
//! downstream users can depend on a single crate:
//!
//! * [`reorder`] — the paper's contribution: the data-reordering library (Hilbert,
//!   Morton, row and column orderings, permutation application, index remapping).
//! * [`smtrace`] — object layouts and per-processor access traces.
//! * [`memsim`] — the hardware shared-memory substrate (Origin 2000-style caches, TLBs,
//!   coherence, page-sharing analysis).
//! * [`dsm`] — the software DSM substrate (TreadMarks-like and HLRC-like protocol
//!   simulators with the paper's network cost model).
//! * [`workloads`] — deterministic input generators (Plummer spheres, molecule
//!   lattices, the synthetic unstructured mesh).
//! * [`nbody`], [`molecular`], [`unstructured`] — the five benchmark applications
//!   (Barnes-Hut, FMM, Water-Spatial, Moldyn, Unstructured).
//!
//! The quickest way in is the `quickstart` example:
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! and the unified `xp` experiment runner (`cargo run --release -p xp-cli -- list`),
//! which regenerates every table and figure of the paper (see DESIGN.md for the index
//! and EXPERIMENTS.md for recorded results).
//!
//! The paper's "one library call" experience, through the umbrella crate:
//!
//! ```
//! use datareorder::reorder::{hilbert_reorder, Method};
//!
//! let (positions, _masses) = datareorder::workloads::two_plummer(64, 3, 1.0, 6.0, 1);
//! let mut bodies: Vec<[f64; 3]> = positions;
//! let reordering = hilbert_reorder(&mut bodies, 3, |b, d| b[d]);
//! assert_eq!(reordering.method(), Method::Hilbert);
//! assert_eq!(reordering.len(), 64);
//! ```

#![forbid(unsafe_code)]

pub use dsm;
pub use memsim;
pub use molecular;
pub use nbody;
pub use reorder;
pub use smtrace;
pub use unstructured;
pub use workloads;

/// The library version (mirrors the workspace version).
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_nonempty() {
        assert!(!super::VERSION.is_empty());
    }
}
