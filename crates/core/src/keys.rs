//! Sort-key generation: the first phase of every reordering method.
//!
//! Section 3 of the paper: "Each method consists of two phases: first, it constructs a
//! sorting key for every object … and sorts the keys to generate the rank; second, the
//! actual objects are reordered according to the rank."  This module implements the
//! first phase for all four orderings; [`crate::permute`] implements the second.

use rayon::prelude::*;

use crate::hilbert::hilbert_encode;
use crate::morton::morton_encode;
use crate::quantize::Quantizer;
use crate::rowcol::{column_key, row_key};
use crate::MAX_DIMS;

/// The data-reordering methods provided by the library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Hilbert space-filling curve: locality-preserving, visits only face-adjacent
    /// cells.  The paper's recommendation for Category-1 applications and for hardware
    /// shared memory.
    Hilbert,
    /// Morton (Z-order) curve: cheaper to compute but with occasional long jumps.
    Morton,
    /// Column ordering: x-coordinate most significant (slabs perpendicular to x).  The
    /// paper's recommendation for Category-2 applications on page-based software DSM.
    Column,
    /// Row ordering: last coordinate most significant (slabs perpendicular to z).
    Row,
}

impl Method {
    /// All methods, in the order they appear in the paper's Figure 3.
    pub const ALL: [Method; 4] = [Method::Morton, Method::Hilbert, Method::Column, Method::Row];

    /// Short lowercase name used in reports and benchmark output
    /// (`"hilbert"`, `"morton"`, `"column"`, `"row"`).
    pub fn name(self) -> &'static str {
        match self {
            Method::Hilbert => "hilbert",
            Method::Morton => "morton",
            Method::Column => "column",
            Method::Row => "row",
        }
    }

    /// Whether this is a space-filling-curve ordering (Hilbert or Morton) as opposed to
    /// a slab ordering (row or column).
    pub fn is_space_filling(self) -> bool {
        matches!(self, Method::Hilbert | Method::Morton)
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Compute the key of a single quantized grid point under `method`.
///
/// # Panics
/// Panics if `cells.len()` is outside `1..=`[`MAX_DIMS`], if `bits` is outside `1..=32`
/// or `cells.len() * bits > 64`, or if a cell does not fit in `bits` bits.
pub fn key_for_cells(method: Method, cells: &[u32], bits: u32) -> u64 {
    match method {
        Method::Hilbert => hilbert_encode(cells, bits),
        Method::Morton => morton_encode(cells, bits),
        Method::Column => column_key(cells, bits),
        Method::Row => row_key(cells, bits),
    }
}

/// Build one sort key per object from a flat row-major coordinate buffer
/// (`coords[i * dims + d]` is coordinate `d` of object `i`), quantizing with
/// `quantizer` and encoding under `method`; [`crate::rank_radix`] ranks the result.
///
/// With `parallel` set, the buffer is processed in contiguous chunks on rayon worker
/// threads; the produced keys are identical either way.
///
/// # Panics
/// Panics if `dims` is out of range, if `coords.len()` is not a multiple of `dims`, or
/// if `dims * quantizer.bits() > 64`.
pub fn pack_keys(
    method: Method,
    dims: usize,
    quantizer: &Quantizer,
    coords: &[f64],
    parallel: bool,
) -> Vec<u64> {
    assert!((1..=MAX_DIMS).contains(&dims), "dims must be in 1..={MAX_DIMS}, got {dims}");
    assert_eq!(coords.len() % dims, 0, "coordinate buffer length must be a multiple of dims");
    let bits = quantizer.bits();
    let n = coords.len() / dims;
    let encode_chunk = |rows: &[f64], out: &mut [u64]| {
        let mut cells = [0u32; MAX_DIMS];
        for (slot, row) in out.iter_mut().zip(rows.chunks_exact(dims)) {
            quantizer.cells_row(row, &mut cells[..dims]);
            *slot = key_for_cells(method, &cells[..dims], bits);
        }
    };
    let mut out = vec![0; n];
    if parallel && n > 1 && rayon::current_num_threads() > 1 {
        let rows_per_chunk = n.div_ceil(rayon::current_num_threads());
        out.par_chunks_mut(rows_per_chunk)
            .zip(coords.par_chunks(rows_per_chunk * dims))
            .for_each(|(okeys, orows)| encode_chunk(orows, okeys));
    } else {
        encode_chunk(coords, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantize::BoundingBox;

    fn unit_quantizer(dims: usize, bits: u32) -> Quantizer {
        Quantizer::new(BoundingBox { min: vec![0.0; dims], max: vec![1.0; dims] }, bits)
    }

    /// The packed keys of `pts` under `method`, in object order.
    fn keys<const D: usize>(method: Method, q: &Quantizer, pts: &[[f64; D]]) -> Vec<u64> {
        let coords: Vec<f64> = pts.iter().flatten().copied().collect();
        pack_keys(method, D, q, &coords, false)
    }

    #[test]
    fn keys_are_generated_in_object_order() {
        let pts = [[0.1, 0.2], [0.9, 0.8], [0.5, 0.5]];
        let q = unit_quantizer(2, 8);
        let keys = keys(Method::Hilbert, &q, &pts);
        assert_eq!(keys.len(), 3);
        for (pt, &key) in pts.iter().zip(&keys) {
            let cells = [q.cell(0, pt[0]), q.cell(1, pt[1])];
            assert_eq!(key, key_for_cells(Method::Hilbert, &cells, 8));
        }
    }

    #[test]
    fn column_keys_order_by_x() {
        let pts = [[0.9, 0.1, 0.1], [0.1, 0.9, 0.9], [0.5, 0.5, 0.5]];
        let q = unit_quantizer(3, 8);
        let keys = keys(Method::Column, &q, &pts);
        assert!(keys[1] < keys[2]);
        assert!(keys[2] < keys[0]);
    }

    #[test]
    fn hilbert_keys_of_identical_points_are_equal() {
        let pts = [[0.25, 0.75], [0.25, 0.75]];
        let q = unit_quantizer(2, 12);
        let keys = keys(Method::Hilbert, &q, &pts);
        assert_eq!(keys[0], keys[1]);
    }

    #[test]
    fn every_method_produces_finite_distinct_keys_for_a_grid() {
        // A coarse grid of distinct points must receive distinct keys under every
        // method at sufficient resolution.
        let mut pts = Vec::new();
        for x in 0..8 {
            for y in 0..8 {
                pts.push([x as f64 / 8.0, y as f64 / 8.0]);
            }
        }
        let q = unit_quantizer(2, 10);
        for method in Method::ALL {
            let mut keys = keys(method, &q, &pts);
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), pts.len(), "method {method} produced duplicate keys");
        }
    }

    #[test]
    fn method_names_are_stable() {
        assert_eq!(Method::Hilbert.name(), "hilbert");
        assert_eq!(Method::Morton.to_string(), "morton");
        assert_eq!(Method::Column.name(), "column");
        assert_eq!(Method::Row.name(), "row");
        assert!(Method::Hilbert.is_space_filling());
        assert!(Method::Morton.is_space_filling());
        assert!(!Method::Column.is_space_filling());
        assert!(!Method::Row.is_space_filling());
    }
}
