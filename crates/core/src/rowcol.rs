//! Row-major and column-major orderings.
//!
//! Section 3.2 of the paper: the sorting key is simply the concatenation of the
//! coordinate bits.  For *column* ordering the z-coordinate (the last dimension)
//! forms the least significant bits, so the ordering sweeps the domain in thin slabs
//! perpendicular to the x-axis; for *row* ordering the x-coordinate (the first
//! dimension) is least significant, producing slabs perpendicular to the last axis.
//!
//! Slab-shaped orderings are the best choice for block-partitioned (Category 2)
//! applications on page-based software DSM: the objects on a processor's interaction
//! list then live on a small number of pages owned by at most two neighbouring
//! processors (Section 3.4 and Figure 6 of the paper).

use crate::{check_cells, check_grid};

/// Build the column-ordering key: coordinate bits are concatenated with dimension 0
/// (x) most significant and the last dimension least significant, i.e. objects are
/// sorted primarily by x, then y, then z.
///
/// # Panics
/// Panics if `dims` is 0 or exceeds [`crate::MAX_DIMS`], if `bits` is 0 or
/// `dims * bits > 64`, or if a coordinate does not fit in `bits` bits.
///
/// # Examples
/// ```
/// use reorder::rowcol::column_key;
/// // With 2 bits per axis the key of (x=1, y=2, z=3) is 0b01_10_11.
/// assert_eq!(column_key(&[1, 2, 3], 2), 0b01_10_11);
/// ```
pub fn column_key(coords: &[u32], bits: u32) -> u64 {
    concat_key(coords, bits, false)
}

/// Build the row-ordering key: coordinate bits are concatenated with the *last*
/// dimension most significant and dimension 0 (x) least significant, i.e. objects are
/// sorted primarily by z, then y, then x.
///
/// # Panics
/// Same conditions as [`column_key`].
///
/// # Examples
/// ```
/// use reorder::rowcol::row_key;
/// // With 2 bits per axis the key of (x=1, y=2, z=3) is 0b11_10_01.
/// assert_eq!(row_key(&[1, 2, 3], 2), 0b11_10_01);
/// ```
pub fn row_key(coords: &[u32], bits: u32) -> u64 {
    concat_key(coords, bits, true)
}

fn concat_key(coords: &[u32], bits: u32, reverse: bool) -> u64 {
    check_cells(coords, bits);
    let dims = coords.len();
    let mut key: u64 = 0;
    // Branchless dimension order (no boxed iterator: this runs once per object on the
    // key-construction hot path).
    for i in 0..dims {
        let d = if reverse { dims - 1 - i } else { i };
        key = (key << bits) | u64::from(coords[d]);
    }
    key
}

/// Decode a column key back into coordinates (inverse of [`column_key`]).
pub fn column_decode(key: u64, dims: usize, bits: u32) -> Vec<u32> {
    decode(key, dims, bits, false)
}

/// Decode a row key back into coordinates (inverse of [`row_key`]).
pub fn row_decode(key: u64, dims: usize, bits: u32) -> Vec<u32> {
    decode(key, dims, bits, true)
}

fn decode(key: u64, dims: usize, bits: u32, reverse: bool) -> Vec<u32> {
    check_grid(dims, bits);
    let mask = (1u64 << bits) - 1;
    let mut coords = vec![0u32; dims];
    let mut k = key;
    // The last dimension pushed by the encoder occupies the least significant bits.
    for i in 0..dims {
        let d = if reverse { i } else { dims - 1 - i };
        coords[d] = (k & mask) as u32;
        k >>= bits;
    }
    coords
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_sorts_by_x_first() {
        // Column ordering: x major. (0, 3, 3) must come before (1, 0, 0).
        assert!(column_key(&[0, 3, 3], 2) < column_key(&[1, 0, 0], 2));
        // Ties on x broken by y.
        assert!(column_key(&[1, 0, 3], 2) < column_key(&[1, 1, 0], 2));
    }

    #[test]
    fn row_sorts_by_last_dimension_first() {
        // Row ordering: z major. (3, 3, 0) must come before (0, 0, 1).
        assert!(row_key(&[3, 3, 0], 2) < row_key(&[0, 0, 1], 2));
        // Ties on z broken by y.
        assert!(row_key(&[3, 0, 1], 2) < row_key(&[0, 1, 1], 2));
    }

    #[test]
    fn column_roundtrip() {
        for x in 0..8u32 {
            for y in 0..8u32 {
                for z in 0..8u32 {
                    let k = column_key(&[x, y, z], 3);
                    assert_eq!(column_decode(k, 3, 3), vec![x, y, z]);
                }
            }
        }
    }

    #[test]
    fn row_roundtrip() {
        for x in 0..8u32 {
            for y in 0..8u32 {
                let k = row_key(&[x, y], 3);
                assert_eq!(row_decode(k, 2, 3), vec![x, y]);
            }
        }
    }

    #[test]
    fn keys_are_unique_on_the_grid() {
        let mut keys: Vec<u64> = Vec::new();
        for x in 0..8u32 {
            for y in 0..8u32 {
                for z in 0..8u32 {
                    keys.push(column_key(&[x, y, z], 3));
                }
            }
        }
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 512);
    }

    #[test]
    fn row_and_column_agree_in_one_dimension() {
        for v in 0..32u32 {
            assert_eq!(row_key(&[v], 5), column_key(&[v], 5));
            assert_eq!(row_key(&[v], 5), u64::from(v));
        }
    }

    #[test]
    fn two_d_row_and_column_are_transposes() {
        // Swapping the coordinates swaps the two orderings.
        for x in 0..8u32 {
            for y in 0..8u32 {
                assert_eq!(column_key(&[x, y], 3), row_key(&[y, x], 3));
            }
        }
    }

    #[test]
    #[should_panic(expected = "dims * bits must be <= 64")]
    fn encoding_rejects_wide_keys() {
        column_key(&[0, 0, 0], 25);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn out_of_range_coordinate_panics() {
        column_key(&[1, 9], 3);
    }
}
