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
//! provided; the decoder is used by the test-suite to prove bijectivity and by the
//! Figure-3 illustration binary to walk the curve in order.

use crate::MAX_DIMS;

/// Encode a point on a `dims`-dimensional grid with `bits` bits per coordinate into its
/// Hilbert-curve index.
///
/// * `coords[d]` must be `< 2^bits` for every dimension.
/// * `dims * bits` must be ≤ 128 so the index fits in a `u128`.
///
/// # Panics
/// Panics if `dims` is 0 or greater than [`MAX_DIMS`], if `bits` is 0 or `dims * bits`
/// exceeds 128, or if any coordinate is out of range.
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
pub fn hilbert_encode(coords: &[u32], bits: u32) -> u128 {
    let x = transposed(coords, bits);
    interleave_transpose(&x[..coords.len()], bits)
}

/// Narrow-key variant of [`hilbert_encode`] used by the radix-sort pipeline when
/// `dims * bits <= 64`: identical curve, but the transposed bits are interleaved in
/// `u64` arithmetic so the subsequent radix sort works on half-width keys.
///
/// # Panics
/// Same conditions as [`hilbert_encode`] except the width bound is `dims * bits <= 64`.
pub fn hilbert_encode_u64(coords: &[u32], bits: u32) -> u64 {
    assert!(
        coords.len() as u32 * bits <= 64,
        "dims * bits must be <= 64 for the narrow encoding (got {} * {bits})",
        coords.len()
    );
    let x = transposed(coords, bits);
    let mut index: u64 = 0;
    for b in (0..bits).rev() {
        for xi in &x[..coords.len()] {
            index = (index << 1) | u64::from((xi >> b) & 1);
        }
    }
    index
}

/// Validate the inputs and run Skilling's `AxestoTranspose`, returning the transposed
/// representation; shared by the wide and narrow encoders.
fn transposed(coords: &[u32], bits: u32) -> [u32; MAX_DIMS] {
    validate(coords.len(), bits);
    for (d, &c) in coords.iter().enumerate() {
        assert!(
            bits == 32 || u64::from(c) < (1u64 << bits),
            "coordinate {c} in dimension {d} does not fit in {bits} bits"
        );
    }
    let mut x: [u32; MAX_DIMS] = [0; MAX_DIMS];
    x[..coords.len()].copy_from_slice(coords);
    axes_to_transpose(&mut x[..coords.len()], bits);
    x
}

/// Decode a Hilbert-curve index back into grid coordinates.
///
/// This is the exact inverse of [`hilbert_encode`] for indices produced with the same
/// `dims` and `bits`.
///
/// # Panics
/// Panics under the same conditions as [`hilbert_encode`], or if `index` is not
/// representable on the requested grid.
pub fn hilbert_decode(index: u128, dims: usize, bits: u32) -> Vec<u32> {
    validate(dims, bits);
    let total_bits = dims as u32 * bits;
    assert!(
        total_bits == 128 || index < (1u128 << total_bits),
        "index {index} does not fit on a {dims}-dimensional grid with {bits} bits per axis"
    );
    let mut x: [u32; MAX_DIMS] = [0; MAX_DIMS];
    deinterleave_transpose(index, &mut x[..dims], bits);
    transpose_to_axes(&mut x[..dims], bits);
    x[..dims].to_vec()
}

fn validate(dims: usize, bits: u32) {
    assert!((1..=MAX_DIMS).contains(&dims), "dims must be in 1..={MAX_DIMS}, got {dims}");
    assert!((1..=32).contains(&bits), "bits must be in 1..=32, got {bits}");
    assert!(
        dims as u32 * bits <= 128,
        "dims * bits must be <= 128 so the Hilbert index fits in u128 (got {dims} * {bits})"
    );
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
fn interleave_transpose(x: &[u32], bits: u32) -> u128 {
    let mut index: u128 = 0;
    for b in (0..bits).rev() {
        for &xi in x {
            index = (index << 1) | u128::from((xi >> b) & 1);
        }
    }
    index
}

/// Inverse of [`interleave_transpose`].
fn deinterleave_transpose(index: u128, x: &mut [u32], bits: u32) {
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

/// Walk the full Hilbert curve on a small grid, returning the coordinates of every cell
/// in curve order.  Intended for illustration and testing (Figure 3 of the paper);
/// the total number of cells `2^(dims*bits)` must fit in memory.
pub fn hilbert_walk(dims: usize, bits: u32) -> Vec<Vec<u32>> {
    validate(dims, bits);
    let cells = 1u128 << (dims as u32 * bits);
    assert!(cells <= 1 << 24, "hilbert_walk is meant for small illustrative grids");
    (0..cells).map(|i| hilbert_decode(i, dims, bits)).collect()
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

    #[test]
    fn successive_curve_points_are_face_adjacent_2d() {
        let bits = 3;
        let walk = hilbert_walk(2, bits);
        for w in walk.windows(2) {
            let manhattan: u32 = w[0].iter().zip(&w[1]).map(|(&a, &b)| a.abs_diff(b)).sum();
            assert_eq!(manhattan, 1, "consecutive Hilbert cells must be adjacent: {w:?}");
        }
    }

    #[test]
    fn successive_curve_points_are_face_adjacent_3d() {
        let bits = 2;
        let walk = hilbert_walk(3, bits);
        for w in walk.windows(2) {
            let manhattan: u32 = w[0].iter().zip(&w[1]).map(|(&a, &b)| a.abs_diff(b)).sum();
            assert_eq!(manhattan, 1, "consecutive Hilbert cells must be adjacent: {w:?}");
        }
    }

    #[test]
    fn indices_cover_the_full_range_without_gaps() {
        let bits = 2;
        let mut indices: Vec<u128> = Vec::new();
        for x in 0..4u32 {
            for y in 0..4u32 {
                for z in 0..4u32 {
                    indices.push(hilbert_encode(&[x, y, z], bits));
                }
            }
        }
        indices.sort_unstable();
        for (i, idx) in indices.iter().enumerate() {
            assert_eq!(*idx, i as u128);
        }
    }

    #[test]
    fn one_dimensional_curve_is_identity() {
        for v in 0..64u32 {
            assert_eq!(hilbert_encode(&[v], 6), u128::from(v));
            assert_eq!(hilbert_decode(u128::from(v), 1, 6), vec![v]);
        }
    }

    #[test]
    fn high_bit_counts_do_not_overflow() {
        // 3 dimensions x 32 bits = 96 bits of index.
        let c = [u32::MAX, 0, u32::MAX / 2];
        let idx = hilbert_encode(&c, 32);
        assert_eq!(hilbert_decode(idx, 3, 32), c.to_vec());
    }

    #[test]
    fn narrow_encoding_matches_wide_encoding() {
        for x in 0..16u32 {
            for y in 0..16u32 {
                for z in (0..16u32).step_by(3) {
                    let wide = hilbert_encode(&[x, y, z], 4);
                    assert_eq!(u128::from(hilbert_encode_u64(&[x, y, z], 4)), wide);
                }
            }
        }
        // Full 64-bit occupancy: 2 dims x 32 bits.
        let c = [u32::MAX, 12345];
        assert_eq!(u128::from(hilbert_encode_u64(&c, 32)), hilbert_encode(&c, 32));
    }

    #[test]
    #[should_panic(expected = "dims * bits must be <= 64")]
    fn narrow_encoding_rejects_wide_keys() {
        hilbert_encode_u64(&[0, 0, 0], 22);
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
