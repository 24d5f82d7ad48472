//! Hilbert space-filling-curve encoding and decoding.
//!
//! The Hilbert curve visits every cell of a `2^bits × … × 2^bits` grid exactly once and,
//! unlike the Morton (Z-order) curve, only ever steps between *face-adjacent* cells.
//! Sorting objects by their Hilbert index therefore places objects that are close in
//! physical space close together in memory, which is exactly what the reordering
//! library needs (Section 3.1 of the paper).
//!
//! The implementation is the classic bit-manipulation formulation (Butz 1969, in the
//! compact "transpose" form popularised by Skilling): coordinates are first converted
//! to a *transposed* Hilbert representation in place, and the transposed bits are then
//! interleaved into a single integer index.  Both directions (`encode` / `decode`) are
//! provided; the decoder is used by the test-suite to prove bijectivity and to walk the
//! curve in order.

use crate::{check_cells, check_grid, MAX_DIMS};

/// Encode a point on a `dims`-dimensional grid with `bits` bits per coordinate into its
/// Hilbert-curve index.
///
/// * `coords[d]` must be `< 2^bits` for every dimension.
/// * `dims * bits` must be ≤ 64 so the index fits in a `u64`.
///
/// # Panics
/// Panics if `dims` is 0 or greater than [`MAX_DIMS`], if `bits` is 0 or `dims * bits`
/// exceeds 64, or if any coordinate is out of range.
///
/// # Examples
/// ```
/// use reorder::hilbert::hilbert_encode;
/// // The 2-D, 1-bit Hilbert curve visits (0,0), (0,1), (1,1), (1,0).
/// assert_eq!(hilbert_encode(&[0, 0], 1), 0);
/// assert_eq!(hilbert_encode(&[0, 1], 1), 1);
/// assert_eq!(hilbert_encode(&[1, 1], 1), 2);
/// assert_eq!(hilbert_encode(&[1, 0], 1), 3);
/// ```
pub fn hilbert_encode(coords: &[u32], bits: u32) -> u64 {
    check_cells(coords, bits);
    let mut x: [u32; MAX_DIMS] = [0; MAX_DIMS];
    let x = &mut x[..coords.len()];
    x.copy_from_slice(coords);
    axes_to_transpose(x, bits);
    interleave_transpose(x, bits)
}

/// Decode a Hilbert-curve index back into grid coordinates.
///
/// This is the exact inverse of [`hilbert_encode`] for indices produced with the same
/// `dims` and `bits`.
///
/// # Panics
/// Panics under the same conditions as [`hilbert_encode`], or if `index` is not
/// representable on the requested grid.
pub fn hilbert_decode(index: u64, dims: usize, bits: u32) -> Vec<u32> {
    check_grid(dims, bits);
    let total_bits = dims as u32 * bits;
    assert!(
        total_bits == 64 || index < (1u64 << total_bits),
        "index {index} does not fit on a {dims}-dimensional grid with {bits} bits per axis"
    );
    let mut x: [u32; MAX_DIMS] = [0; MAX_DIMS];
    deinterleave_transpose(index, &mut x[..dims], bits);
    transpose_to_axes(&mut x[..dims], bits);
    x[..dims].to_vec()
}

/// Convert ordinary axis coordinates into the transposed Hilbert representation
/// (Skilling's `AxestoTranspose`).  After this call, interleaving the bits of `x`
/// most-significant-first yields the Hilbert index.
fn axes_to_transpose(x: &mut [u32], bits: u32) {
    let n = x.len();
    let m = 1u32 << (bits - 1);

    // Inverse undo of the Gray-code / rotation pipeline applied by `transpose_to_axes`.
    let mut q = m;
    while q > 1 {
        let p = q - 1;
        for i in 0..n {
            if x[i] & q != 0 {
                x[0] ^= p; // invert low bits of the first axis
            } else {
                let t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q >>= 1;
    }

    // Gray encode.
    for i in 1..n {
        x[i] ^= x[i - 1];
    }
    let mut t = 0u32;
    let mut q = m;
    while q > 1 {
        if x[n - 1] & q != 0 {
            t ^= q - 1;
        }
        q >>= 1;
    }
    for xi in x.iter_mut() {
        *xi ^= t;
    }
}

/// Convert the transposed Hilbert representation back into ordinary axis coordinates
/// (Skilling's `TransposetoAxes`).
fn transpose_to_axes(x: &mut [u32], bits: u32) {
    let n = x.len();
    let m = 1u32 << (bits - 1);

    // Gray decode by half-exclusive-or-ing.
    let mut t = x[n - 1] >> 1;
    for i in (1..n).rev() {
        x[i] ^= x[i - 1];
    }
    x[0] ^= t;

    // Undo excess work.
    let mut q = 2u32;
    while q != m << 1 {
        let p = q - 1;
        for i in (0..n).rev() {
            if x[i] & q != 0 {
                x[0] ^= p;
            } else {
                t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q <<= 1;
    }
}

/// Interleave the transposed coordinates into a single index.  Bit `b` (from the most
/// significant, `bits - 1`, downwards) of axis `i` becomes bit
/// `(b * dims) + (dims - 1 - i)` of the result, i.e. axis 0 contributes the most
/// significant bit of each group, matching the conventional Hilbert index.
fn interleave_transpose(x: &[u32], bits: u32) -> u64 {
    let mut index: u64 = 0;
    for b in (0..bits).rev() {
        for &xi in x {
            index = (index << 1) | u64::from((xi >> b) & 1);
        }
    }
    index
}

/// Inverse of [`interleave_transpose`].
fn deinterleave_transpose(index: u64, x: &mut [u32], bits: u32) {
    let dims = x.len();
    for xi in x.iter_mut() {
        *xi = 0;
    }
    let total = bits as usize * dims;
    for pos in 0..total {
        // `pos` counts from the most significant interleaved bit.
        let bit = (index >> (total - 1 - pos)) & 1;
        let axis = pos % dims;
        let level = bits - 1 - (pos / dims) as u32;
        x[axis] |= (bit as u32) << level;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_dim_order_one_curve_matches_reference() {
        // The canonical first-order 2-D Hilbert curve: U shape.
        let seq: Vec<_> = (0..4).map(|i| hilbert_decode(i, 2, 1)).collect();
        assert_eq!(seq, vec![vec![0, 0], vec![0, 1], vec![1, 1], vec![1, 0]]);
    }

    #[test]
    fn two_dim_order_two_curve_is_a_permutation_of_the_grid() {
        let mut seen = [false; 16];
        for i in 0..16 {
            let c = hilbert_decode(i, 2, 2);
            let cell = (c[0] * 4 + c[1]) as usize;
            assert!(!seen[cell], "cell visited twice");
            seen[cell] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn encode_decode_roundtrip_3d() {
        let bits = 4;
        for x in 0..16u32 {
            for y in 0..16u32 {
                for z in (0..16u32).step_by(3) {
                    let idx = hilbert_encode(&[x, y, z], bits);
                    assert_eq!(hilbert_decode(idx, 3, bits), vec![x, y, z]);
                }
            }
        }
    }

    /// Every cell of the `dims`-dimensional grid with `bits` bits per axis, in curve
    /// order.
    fn walk(dims: usize, bits: u32) -> Vec<Vec<u32>> {
        (0..1u64 << (dims as u32 * bits)).map(|i| hilbert_decode(i, dims, bits)).collect()
    }

    #[test]
    fn successive_curve_points_are_face_adjacent_2d() {
        for w in walk(2, 3).windows(2) {
            let manhattan: u32 = w[0].iter().zip(&w[1]).map(|(&a, &b)| a.abs_diff(b)).sum();
            assert_eq!(manhattan, 1, "consecutive Hilbert cells must be adjacent: {w:?}");
        }
    }

    #[test]
    fn successive_curve_points_are_face_adjacent_3d() {
        for w in walk(3, 2).windows(2) {
            let manhattan: u32 = w[0].iter().zip(&w[1]).map(|(&a, &b)| a.abs_diff(b)).sum();
            assert_eq!(manhattan, 1, "consecutive Hilbert cells must be adjacent: {w:?}");
        }
    }

    #[test]
    fn indices_cover_the_full_range_without_gaps() {
        let bits = 2;
        let mut indices: Vec<u64> = Vec::new();
        for x in 0..4u32 {
            for y in 0..4u32 {
                for z in 0..4u32 {
                    indices.push(hilbert_encode(&[x, y, z], bits));
                }
            }
        }
        indices.sort_unstable();
        for (i, idx) in indices.iter().enumerate() {
            assert_eq!(*idx, i as u64);
        }
    }

    #[test]
    fn one_dimensional_curve_is_identity() {
        for v in 0..64u32 {
            assert_eq!(hilbert_encode(&[v], 6), u64::from(v));
            assert_eq!(hilbert_decode(u64::from(v), 1, 6), vec![v]);
        }
    }

    #[test]
    fn high_bit_counts_do_not_overflow() {
        // 2 dimensions x 32 bits = every bit of the u64 index.
        let c = [u32::MAX, u32::MAX / 2];
        let idx = hilbert_encode(&c, 32);
        assert_eq!(hilbert_decode(idx, 2, 32), c.to_vec());
    }

    #[test]
    #[should_panic(expected = "dims * bits must be <= 64")]
    fn encoding_rejects_wide_keys() {
        hilbert_encode(&[0, 0, 0], 22);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn coordinate_out_of_range_panics() {
        hilbert_encode(&[4, 0], 2);
    }

    #[test]
    #[should_panic(expected = "dims must be")]
    fn zero_dims_panics() {
        hilbert_encode(&[], 2);
    }
}
