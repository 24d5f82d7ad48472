//! The public reordering API, mirroring the paper's C interface.
//!
//! The paper (Section 3.5) exposes two C functions:
//!
//! ```c
//! void column_reorder(void *object, int object_size, int num_of_objects,
//!                     int num_of_dim, double (*coord)(...));
//! void hilbert_reorder(void *object, int object_size, int num_of_objects,
//!                      int num_of_dim, double (*coord)(...));
//! ```
//!
//! In Rust the untyped `void* + object_size` pair becomes a generic `&mut [T]`, and the
//! coordinate callback becomes a closure `Fn(&T, usize) -> f64`.  Each function quantizes
//! the coordinates, builds sort keys, ranks them and permutes the slice in place, exactly
//! as the paper describes; it additionally *returns* the [`Reordering`] so the caller can
//! remap index-based auxiliary structures (interaction lists, edge arrays) and, if
//! desired, apply the same permutation to parallel arrays.

use crate::keys::{pack_keys, Method};
use crate::permute::Permutation;
use crate::quantize::{BoundingBox, Quantizer};
use crate::radix::{rank_radix, PARALLEL_THRESHOLD};
use crate::MAX_DIMS;

/// Coordinate accessor type used by the slice-free entry point
/// [`compute_reordering`]: `coord(i, d)` returns the `d`-th coordinate of object `i`.
pub type CoordFn<'a> = &'a mut dyn FnMut(usize, usize) -> f64;

/// The result of a reordering: which method was used, the permutation that was applied
/// to the object array, and the quantizer (bounding box + resolution) the keys were
/// built with.
///
/// `Reordering` dereferences to [`Permutation`], so all index-remapping helpers are
/// available directly on it.
#[derive(Debug, Clone)]
pub struct Reordering {
    method: Method,
    permutation: Permutation,
    quantizer: Quantizer,
}

impl Reordering {
    /// The reordering method that produced this permutation.
    pub fn method(&self) -> Method {
        self.method
    }

    /// The underlying permutation (old index → new rank and back).
    pub fn permutation(&self) -> &Permutation {
        &self.permutation
    }

    /// The quantizer (bounding box and bits per dimension) used to build sort keys.
    pub fn quantizer(&self) -> &Quantizer {
        &self.quantizer
    }

    /// The bounding box of the coordinates at the time of reordering.
    pub fn bounding_box(&self) -> &BoundingBox {
        self.quantizer.bounding_box()
    }
}

impl std::ops::Deref for Reordering {
    type Target = Permutation;
    fn deref(&self) -> &Permutation {
        &self.permutation
    }
}

/// Compute a reordering for `n` objects without touching any object array: the caller
/// supplies the number of objects, the dimensionality and a coordinate accessor, and is
/// responsible for applying the returned permutation itself.
///
/// This is the most general entry point; the convenience wrappers below use it.
///
/// The pipeline makes exactly **one** pass through the user's coordinate accessor:
/// [`Quantizer::fit`] reads every coordinate once for the bounding box, and the
/// accessor wrapper it is handed caches each value in a flat buffer.  Key
/// construction (quantize + encode into `u64` keys) and the LSD radix ranking then run
/// over that buffer — in parallel chunks on rayon worker threads once `n` reaches
/// [`PARALLEL_THRESHOLD`].  The resulting permutation is byte-identical to a serial
/// comparison sort of the [`crate::keys::key_for_cells`] keys, the oracle the proptest
/// suite checks every dimension and method against.
///
/// # Panics
/// Panics if `n == 0`, `dims == 0` or `dims > `[`crate::MAX_DIMS`], or if any
/// coordinate is not finite.
pub fn compute_reordering<F>(method: Method, n: usize, dims: usize, mut coord: F) -> Reordering
where
    F: FnMut(usize, usize) -> f64,
{
    assert!((1..=MAX_DIMS).contains(&dims), "dims must be in 1..={MAX_DIMS}, got {dims}");
    assert!(n > 0, "cannot reorder zero objects");
    // One accessor call per coordinate: the bounding-box sweep also fills the cache the
    // encode phase chunks across threads.
    let mut coords = Vec::with_capacity(n * dims);
    let quantizer = Quantizer::fit(n, dims, |i, d| {
        let c = coord(i, d);
        coords.push(c);
        c
    });
    let parallel = n >= PARALLEL_THRESHOLD && rayon::current_num_threads() > 1;
    let keys = pack_keys(method, dims, &quantizer, &coords, parallel);
    let permutation = rank_radix(&keys, parallel);
    Reordering { method, permutation, quantizer }
}

/// Compute a reordering for a point set given as a slice of fixed-size coordinate
/// arrays (`points[i][d]`).
pub fn compute_reordering_from_points<const D: usize>(
    method: Method,
    points: &[[f64; D]],
) -> Reordering {
    compute_reordering(method, points.len(), D, |i, d| points[i][d])
}

/// Reorder `objects` in place with the given method, using `coord(&object, d)` to read
/// the `d`-th coordinate of an object.  Returns the applied [`Reordering`].
///
/// This is the Rust equivalent of the paper's generic reordering primitives; the method
/// is a parameter rather than baked into the function name.
///
/// # Panics
/// Panics if `objects` is empty, if `dims` is out of range, or if a coordinate is not
/// finite.
pub fn reorder_by_method<T, F>(
    method: Method,
    objects: &mut [T],
    dims: usize,
    coord: F,
) -> Reordering
where
    F: Fn(&T, usize) -> f64,
{
    let reordering = compute_reordering(method, objects.len(), dims, |i, d| coord(&objects[i], d));
    reordering.permutation.apply_in_place(objects);
    reordering
}

/// `hilbert_reorder(object, …)` from the paper: reorder the object array along a Hilbert
/// space-filling curve.  Recommended for Category-1 applications (Barnes-Hut, FMM,
/// Water-Spatial) and for hardware shared memory.
pub fn hilbert_reorder<T, F>(objects: &mut [T], dims: usize, coord: F) -> Reordering
where
    F: Fn(&T, usize) -> f64,
{
    reorder_by_method(Method::Hilbert, objects, dims, coord)
}

/// Morton (Z-order) variant of [`hilbert_reorder`]; cheaper keys, slightly weaker
/// locality.
pub fn morton_reorder<T, F>(objects: &mut [T], dims: usize, coord: F) -> Reordering
where
    F: Fn(&T, usize) -> f64,
{
    reorder_by_method(Method::Morton, objects, dims, coord)
}

/// `column_reorder(object, …)` from the paper: reorder the object array by column-major
/// coordinate order (x most significant).  Recommended for Category-2 applications
/// (Moldyn, Unstructured) on page-based software shared memory.
pub fn column_reorder<T, F>(objects: &mut [T], dims: usize, coord: F) -> Reordering
where
    F: Fn(&T, usize) -> f64,
{
    reorder_by_method(Method::Column, objects, dims, coord)
}

/// Row-major variant of [`column_reorder`] (last coordinate most significant).
pub fn row_reorder<T, F>(objects: &mut [T], dims: usize, coord: F) -> Reordering
where
    F: Fn(&T, usize) -> f64,
{
    reorder_by_method(Method::Row, objects, dims, coord)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Body {
        pos: [f64; 3],
        id: usize,
    }

    fn scattered_bodies(n: usize) -> Vec<Body> {
        // A deterministic pseudo-random scatter in the unit cube, intentionally stored
        // in an order unrelated to position (like the paper's random initialization).
        (0..n)
            .map(|i| {
                let h = |k: u64| {
                    let mut x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k);
                    x ^= x >> 33;
                    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
                    x ^= x >> 33;
                    (x as f64) / (u64::MAX as f64)
                };
                Body { pos: [h(1), h(2), h(3)], id: i }
            })
            .collect()
    }

    /// Sum of distances between consecutive objects in the array: the quantity data
    /// reordering is supposed to shrink.
    fn path_length(bodies: &[Body]) -> f64 {
        bodies
            .windows(2)
            .map(|w| {
                w[0].pos.iter().zip(&w[1].pos).map(|(a, b)| (a - b).powi(2)).sum::<f64>().sqrt()
            })
            .sum()
    }

    #[test]
    fn hilbert_reorder_improves_memory_locality() {
        let original = scattered_bodies(512);
        let before = path_length(&original);
        let mut reordered = original.clone();
        let r = hilbert_reorder(&mut reordered, 3, |b, d| b.pos[d]);
        let after = path_length(&reordered);
        assert_eq!(r.method(), Method::Hilbert);
        assert!(
            after < before / 3.0,
            "Hilbert reordering should dramatically shorten the traversal path: before={before}, after={after}"
        );
    }

    #[test]
    fn column_reorder_sorts_primarily_by_x() {
        let mut bodies = scattered_bodies(256);
        column_reorder(&mut bodies, 3, |b, d| b.pos[d]);
        // After column reordering, x coordinates must be (coarsely) non-decreasing:
        // compare quantized x cells rather than raw floats because ties within a cell
        // may appear in any x order.
        let xs: Vec<f64> = bodies.iter().map(|b| b.pos[0]).collect();
        let cells: Vec<i64> = xs.iter().map(|&x| (x * 1024.0) as i64).collect();
        let mut violations = 0;
        for w in cells.windows(2) {
            if w[1] + 1 < w[0] {
                violations += 1;
            }
        }
        assert_eq!(violations, 0, "column order must sweep x monotonically");
    }

    #[test]
    fn reordering_is_a_permutation_of_the_original_objects() {
        let original = scattered_bodies(300);
        let mut reordered = original.clone();
        let r = morton_reorder(&mut reordered, 3, |b, d| b.pos[d]);
        assert_eq!(r.len(), 300);
        let mut ids: Vec<usize> = reordered.iter().map(|b| b.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..300).collect::<Vec<_>>());
        // Each object must be exactly where the permutation says it is.
        for (new_pos, body) in reordered.iter().enumerate() {
            assert_eq!(r.source_of(new_pos), body.id);
            assert_eq!(r.rank_of(body.id), new_pos);
        }
    }

    #[test]
    fn remapping_indices_preserves_references() {
        let original = scattered_bodies(100);
        // Build an "interaction list" referring to old indices.
        let list: Vec<usize> = (0..100).step_by(7).collect();
        let referenced: Vec<usize> = list.iter().map(|&i| original[i].id).collect();
        let mut reordered = original.clone();
        let r = hilbert_reorder(&mut reordered, 3, |b, d| b.pos[d]);
        let mut new_list = list.clone();
        r.remap_indices(&mut new_list);
        let now_referenced: Vec<usize> = new_list.iter().map(|&i| reordered[i].id).collect();
        assert_eq!(referenced, now_referenced);
    }

    #[test]
    fn row_and_column_differ_on_anisotropic_data() {
        let mut a = scattered_bodies(128);
        let mut b = a.clone();
        row_reorder(&mut a, 3, |x, d| x.pos[d]);
        column_reorder(&mut b, 3, |x, d| x.pos[d]);
        assert_ne!(a, b, "row and column orderings should differ on generic data");
    }

    #[test]
    fn compute_reordering_from_points_matches_generic_entry_point() {
        let pts: Vec<[f64; 2]> = (0..64).map(|i| [(i % 8) as f64, (i / 8) as f64]).collect();
        let a = compute_reordering_from_points(Method::Hilbert, &pts);
        let b = compute_reordering(Method::Hilbert, pts.len(), 2, |i, d| pts[i][d]);
        assert_eq!(a.ranks(), b.ranks());
    }

    #[test]
    #[should_panic(expected = "dims must be in 1..=3, got 4")]
    fn four_dimensions_are_rejected() {
        compute_reordering(Method::Hilbert, 4, 4, |i, d| (i + d) as f64);
    }

    #[test]
    fn single_object_reordering_is_identity() {
        let mut objs = vec![Body { pos: [0.5, 0.5, 0.5], id: 0 }];
        let r = hilbert_reorder(&mut objs, 3, |b, d| b.pos[d]);
        assert!(r.is_identity());
        assert_eq!(objs[0].id, 0);
    }

    #[test]
    fn already_ordered_data_stays_ordered() {
        // Points already laid out along x in column order: a second column reorder must
        // be the identity permutation.
        let mut bodies: Vec<Body> =
            (0..64).map(|i| Body { pos: [i as f64, 0.0, 0.0], id: i }).collect();
        let r = column_reorder(&mut bodies, 3, |b, d| b.pos[d]);
        assert!(r.is_identity());
    }
}
