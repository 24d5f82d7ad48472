//! # `reorder` — data reordering for fine-grained irregular shared-memory applications
//!
//! This crate is a Rust implementation of the small data-reordering library described in
//! *"Improving Fine-Grained Irregular Shared-Memory Benchmarks by Data Reordering"*
//! (Y. C. Hu, A. Cox, W. Zwaenepoel — SC 2000).
//!
//! Irregular applications (hierarchical N-body codes, molecular dynamics with cutoff
//! radii, unstructured-mesh CFD) store their objects — particles, molecules, mesh
//! nodes — in one large shared array.  The objects are usually *initialized in random
//! order*, so objects that are adjacent in physical space end up scattered across
//! memory.  On a shared-memory machine this produces poor spatial locality and heavy
//! false sharing: many processors write into the same cache line or page even though
//! they work on disjoint objects.
//!
//! The fix is a one-off (or occasional) permutation of the object array so that objects
//! that are close in physical space become close in memory.  Two families of orderings
//! are provided, mirroring the paper:
//!
//! * **Space-filling curves** ([`Method::Hilbert`], [`Method::Morton`]) — best for
//!   applications whose computation is partitioned through an auxiliary tree or grid
//!   (Barnes-Hut, FMM, Water-Spatial; the paper's *Category 1*), and generally best on
//!   hardware shared memory where the consistency unit is a cache line.
//! * **Row / column ordering** ([`Method::Row`], [`Method::Column`]) — concatenate the
//!   coordinate bits; best for block-partitioned applications with interaction lists
//!   (Moldyn, Unstructured; *Category 2*) on page-based software DSM, where the large
//!   consistency unit favours slab-shaped partitions.
//!
//! The public API mirrors the paper's C interface (`hilbert_reorder`, `column_reorder`):
//! the caller hands over the object array, the dimensionality and a coordinate accessor;
//! the library builds a sort key per object, ranks the keys and permutes the array.  The
//! returned [`Reordering`] also lets the caller remap any index-based auxiliary
//! structures (interaction lists, edge arrays, tree leaf pointers).
//!
//! ```
//! use reorder::{hilbert_reorder, Method};
//!
//! #[derive(Clone, Debug, PartialEq)]
//! struct Body { pos: [f64; 3], mass: f64 }
//!
//! let mut bodies: Vec<Body> = (0..64)
//!     .map(|i| Body { pos: [(i % 4) as f64, ((i / 4) % 4) as f64, (i / 16) as f64], mass: 1.0 })
//!     .collect();
//!
//! // One call, as in the paper: reorder the body array along a Hilbert curve.
//! let reordering = hilbert_reorder(&mut bodies, 3, |b, d| b.pos[d]);
//! assert_eq!(reordering.len(), 64);
//! assert_eq!(reordering.method(), Method::Hilbert);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// In the numeric kernels the loop index is also the semantic id (processor,
// cell, dimension), so indexed loops read better than enumerate chains.
#![allow(clippy::needless_range_loop)]

pub mod hilbert;
pub mod keys;
pub mod morton;
pub mod permute;
pub mod quantize;
pub mod radix;
pub mod rowcol;

mod api;

pub use api::{
    column_reorder, compute_reordering, compute_reordering_from_points, hilbert_reorder,
    morton_reorder, reorder_by_method, row_reorder, CoordFn, Reordering,
};
pub use keys::{pack_keys, Method};
pub use permute::{PermutableColumn, Permutation};
pub use quantize::{BoundingBox, Quantizer, DEFAULT_BITS_PER_DIM};
pub use radix::{rank_radix, PARALLEL_THRESHOLD};

/// Maximum number of spatial dimensions supported by the key generators.
///
/// The paper only needs 2-D (FMM) and 3-D (all other benchmarks) coordinates; at
/// [`DEFAULT_BITS_PER_DIM`] bits per axis every such key fits in one `u64`.
pub const MAX_DIMS: usize = 3;

/// Check the grid shape every key codec shares: `1..=MAX_DIMS` dimensions, `1..=32`
/// bits per axis, and a key of at most 64 bits.
fn check_grid(dims: usize, bits: u32) {
    assert!((1..=MAX_DIMS).contains(&dims), "dims must be in 1..={MAX_DIMS}, got {dims}");
    assert!((1..=32).contains(&bits), "bits must be in 1..=32, got {bits}");
    assert!(
        dims as u32 * bits <= 64,
        "dims * bits must be <= 64 so the key fits in u64 (got {dims} * {bits})"
    );
}

/// [`check_grid`] for a grid point, plus every coordinate being below `2^bits`.
fn check_cells(cells: &[u32], bits: u32) {
    check_grid(cells.len(), bits);
    for (d, &c) in cells.iter().enumerate() {
        assert!(
            bits == 32 || c < (1u32 << bits),
            "coordinate {c} in dimension {d} does not fit in {bits} bits"
        );
    }
}
