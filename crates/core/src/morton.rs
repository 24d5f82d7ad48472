//! Morton (Z-order) space-filling-curve encoding and decoding.
//!
//! The Morton ordering is obtained by interleaving the bits of the coordinates
//! (Section 3.1 of the paper).  It is cheaper to compute than the Hilbert ordering but
//! occasionally jumps between distant cells, so the paper focuses on Hilbert for the
//! space-filling-curve family; Morton is provided both as a baseline and because the
//! difference between the two is one of the ablations reproduced in `EXPERIMENTS.md`.

use crate::{check_cells, check_grid};

/// Encode a `dims`-dimensional grid point into its Morton (Z-order) index by bit
/// interleaving.  Bit `b` of dimension `d` is placed at position `b * dims + d` of the
/// result, so dimension 0 provides the least significant bit of each group.
///
/// # Panics
/// Panics if `dims` is 0 or exceeds [`crate::MAX_DIMS`], if `bits` is 0 or
/// `dims * bits > 64`, or if a coordinate does not fit in `bits` bits.
///
/// # Examples
/// ```
/// use reorder::morton::morton_encode;
/// // 2-D Z-order on a 2x2 grid: (0,0), (1,0), (0,1), (1,1).
/// assert_eq!(morton_encode(&[0, 0], 1), 0);
/// assert_eq!(morton_encode(&[1, 0], 1), 1);
/// assert_eq!(morton_encode(&[0, 1], 1), 2);
/// assert_eq!(morton_encode(&[1, 1], 1), 3);
/// ```
pub fn morton_encode(coords: &[u32], bits: u32) -> u64 {
    check_cells(coords, bits);
    let dims = coords.len();
    let mut index: u64 = 0;
    for (d, &c) in coords.iter().enumerate() {
        for b in 0..bits {
            let bit = u64::from((c >> b) & 1);
            index |= bit << (b as usize * dims + d);
        }
    }
    index
}

/// Decode a Morton index back into grid coordinates; the inverse of [`morton_encode`].
pub fn morton_decode(index: u64, dims: usize, bits: u32) -> Vec<u32> {
    check_grid(dims, bits);
    let mut coords = vec![0u32; dims];
    for d in 0..dims {
        for b in 0..bits {
            let bit = (index >> (b as usize * dims + d)) & 1;
            coords[d] |= (bit as u32) << b;
        }
    }
    coords
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_2d() {
        for x in 0..32u32 {
            for y in 0..32u32 {
                let idx = morton_encode(&[x, y], 5);
                assert_eq!(morton_decode(idx, 2, 5), vec![x, y]);
            }
        }
    }

    #[test]
    fn roundtrip_3d() {
        for x in (0..64u32).step_by(7) {
            for y in (0..64u32).step_by(5) {
                for z in (0..64u32).step_by(3) {
                    let idx = morton_encode(&[x, y, z], 6);
                    assert_eq!(morton_decode(idx, 3, 6), vec![x, y, z]);
                }
            }
        }
    }

    #[test]
    fn morton_matches_manual_interleave_for_known_values() {
        // x = 0b101, y = 0b011 -> interleaved (y1 x1 y0 x0 ...) from MSB group:
        // bit2: y=0,x=1 -> 01 ; bit1: y=1,x=0 -> 10 ; bit0: y=1,x=1 -> 11
        // => 0b01_10_11 = 27
        assert_eq!(morton_encode(&[0b101, 0b011], 3), 27);
    }

    #[test]
    fn indices_are_a_bijection_on_the_grid() {
        let mut seen = vec![false; 4096];
        for x in 0..16u32 {
            for y in 0..16u32 {
                for z in 0..16u32 {
                    let idx = morton_encode(&[x, y, z], 4) as usize;
                    assert!(!seen[idx]);
                    seen[idx] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn one_dimensional_morton_is_identity() {
        for v in 0..128u32 {
            assert_eq!(morton_encode(&[v], 7), u64::from(v));
        }
    }

    #[test]
    fn full_width_encoding_roundtrips() {
        let c = [u32::MAX, 12345];
        let idx = morton_encode(&c, 32);
        assert_eq!(morton_decode(idx, 2, 32), c.to_vec());
    }

    #[test]
    #[should_panic(expected = "dims * bits must be <= 64")]
    fn encoding_rejects_wide_keys() {
        morton_encode(&[0, 0, 0], 32);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn out_of_range_coordinate_panics() {
        morton_encode(&[8, 1], 3);
    }
}
