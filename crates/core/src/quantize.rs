//! Quantization of floating-point coordinates onto the integer grid used by the
//! space-filling-curve and row/column key generators.
//!
//! The paper's library takes a user-supplied `coord(object, dim)` callback returning a
//! `double`.  All key generators, however, operate on integer grid coordinates, so the
//! first step of key generation is to compute the bounding box of the point set and
//! scale every coordinate into `[0, 2^bits - 1]`.  The number of bits per dimension
//! controls the resolution of the ordering: [`DEFAULT_BITS_PER_DIM`] (21 for 3-D data)
//! is far finer than any realistic object density, so two objects only collide on the
//! grid if they are essentially coincident — in which case their relative order is
//! irrelevant for locality.

/// Default number of bits per dimension used when quantizing coordinates.
///
/// 21 bits × 3 dimensions = 63 bits, which fits the `u64` sort key while giving a
/// 2-million-cell resolution along each axis.
pub const DEFAULT_BITS_PER_DIM: u32 = 21;

/// Axis-aligned bounding box of a point set.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundingBox {
    /// Minimum coordinate along each dimension.
    pub min: Vec<f64>,
    /// Maximum coordinate along each dimension.
    pub max: Vec<f64>,
}

impl BoundingBox {
    /// Compute the bounding box of `n` points whose coordinates are produced by
    /// `coord(i, d)`.
    ///
    /// # Panics
    /// Panics if `n == 0`, `dims == 0`, or a coordinate is not finite.
    pub fn from_coords<F>(n: usize, dims: usize, mut coord: F) -> Self
    where
        F: FnMut(usize, usize) -> f64,
    {
        assert!(n > 0, "cannot build a bounding box over zero points");
        assert!(dims > 0, "dims must be positive");
        let mut min = vec![f64::INFINITY; dims];
        let mut max = vec![f64::NEG_INFINITY; dims];
        for i in 0..n {
            for d in 0..dims {
                let c = coord(i, d);
                assert!(c.is_finite(), "coordinate ({i}, {d}) = {c} is not finite");
                if c < min[d] {
                    min[d] = c;
                }
                if c > max[d] {
                    max[d] = c;
                }
            }
        }
        BoundingBox { min, max }
    }

    /// Number of dimensions of the box.
    pub fn dims(&self) -> usize {
        self.min.len()
    }

    /// Extent (max - min) along dimension `d`.
    pub fn extent(&self, d: usize) -> f64 {
        self.max[d] - self.min[d]
    }

    /// The largest extent over all dimensions; useful for isotropic quantization.
    pub fn max_extent(&self) -> f64 {
        (0..self.dims()).map(|d| self.extent(d)).fold(0.0, f64::max)
    }
}

/// Maps floating-point coordinates into integer grid cells of `2^bits` cells per axis.
#[derive(Debug, Clone)]
pub struct Quantizer {
    bbox: BoundingBox,
    bits: u32,
    /// Per-dimension scale factor from physical units to grid cells.
    scale: Vec<f64>,
}

impl Quantizer {
    /// Create a quantizer for the given bounding box and resolution.
    ///
    /// Degenerate dimensions (zero extent) map every coordinate to cell 0.
    ///
    /// # Panics
    /// Panics if `bits` is 0 or greater than 32.
    pub fn new(bbox: BoundingBox, bits: u32) -> Self {
        assert!((1..=32).contains(&bits), "bits must be in 1..=32");
        let cells = (1u64 << bits) as f64;
        let scale = (0..bbox.dims())
            .map(|d| {
                let ext = bbox.extent(d);
                if ext > 0.0 {
                    // Scale so that max maps just below 2^bits, then clamp.
                    cells / ext
                } else {
                    0.0
                }
            })
            .collect();
        Quantizer { bbox, bits, scale }
    }

    /// Compute the bounding box of the point set (one `coord(i, d)` call per
    /// coordinate) and build a quantizer with [`DEFAULT_BITS_PER_DIM`] bits, the
    /// resolution every reordering uses.
    ///
    /// # Panics
    /// Panics under the same conditions as [`BoundingBox::from_coords`].
    pub fn fit<F>(n: usize, dims: usize, coord: F) -> Self
    where
        F: FnMut(usize, usize) -> f64,
    {
        Quantizer::new(BoundingBox::from_coords(n, dims, coord), DEFAULT_BITS_PER_DIM)
    }

    /// The resolution in bits per dimension.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The bounding box this quantizer was built from.
    pub fn bounding_box(&self) -> &BoundingBox {
        &self.bbox
    }

    /// Quantize a single coordinate value along dimension `d`.
    ///
    /// Values outside the bounding box are clamped to the boundary cells, so the
    /// quantizer can also be reused for points that moved slightly after it was fitted
    /// (e.g. when reordering every few time steps).
    pub fn cell(&self, d: usize, value: f64) -> u32 {
        let max_cell = if self.bits == 32 { u32::MAX } else { (1u32 << self.bits) - 1 };
        if self.scale[d] == 0.0 {
            return 0;
        }
        let scaled = (value - self.bbox.min[d]) * self.scale[d];
        if scaled <= 0.0 {
            0
        } else if scaled >= max_cell as f64 {
            max_cell
        } else {
            scaled as u32
        }
    }

    /// Quantize all `dims` coordinates of point `i` using the accessor `coord(i, d)`,
    /// writing the grid cell indices into `out`.
    pub fn cells<F>(&self, i: usize, out: &mut [u32], mut coord: F)
    where
        F: FnMut(usize, usize) -> f64,
    {
        for (d, slot) in out.iter_mut().enumerate() {
            *slot = self.cell(d, coord(i, d));
        }
    }

    /// Quantize one point given as a coordinate row (`coords[d]`, already read out of
    /// the caller's objects), writing the grid cell indices into `out`.
    ///
    /// This is the closure-free entry point the parallel key-construction pipeline
    /// uses on its cached coordinate buffer; results are identical to calling
    /// [`Quantizer::cell`] per dimension.
    pub fn cells_row(&self, coords: &[f64], out: &mut [u32]) {
        for (d, (slot, &value)) in out.iter_mut().zip(coords).enumerate() {
            *slot = self.cell(d, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounding_box_covers_all_points() {
        let pts = [[0.0, -1.0], [2.0, 5.0], [-3.0, 0.5]];
        let bbox = BoundingBox::from_coords(pts.len(), 2, |i, d| pts[i][d]);
        assert_eq!(bbox.min, vec![-3.0, -1.0]);
        assert_eq!(bbox.max, vec![2.0, 5.0]);
        assert_eq!(bbox.extent(0), 5.0);
        assert_eq!(bbox.max_extent(), 6.0);
    }

    #[test]
    fn quantization_is_monotonic() {
        let bbox = BoundingBox { min: vec![0.0], max: vec![1.0] };
        let q = Quantizer::new(bbox, 8);
        let mut last = 0;
        for i in 0..=100 {
            let c = q.cell(0, i as f64 / 100.0);
            assert!(c >= last);
            last = c;
        }
    }

    #[test]
    fn extreme_values_map_to_boundary_cells() {
        let bbox = BoundingBox { min: vec![-1.0], max: vec![1.0] };
        let q = Quantizer::new(bbox, 10);
        assert_eq!(q.cell(0, -1.0), 0);
        assert_eq!(q.cell(0, 1.0), 1023);
        // Out-of-box values clamp rather than wrap.
        assert_eq!(q.cell(0, -100.0), 0);
        assert_eq!(q.cell(0, 100.0), 1023);
    }

    #[test]
    fn degenerate_dimension_maps_to_zero() {
        let bbox = BoundingBox { min: vec![3.0, 0.0], max: vec![3.0, 1.0] };
        let q = Quantizer::new(bbox, 8);
        assert_eq!(q.cell(0, 3.0), 0);
        assert_eq!(q.cell(0, 2.9), 0);
        assert!(q.cell(1, 0.7) > 0);
    }

    #[test]
    fn fit_uses_default_bits_for_3d() {
        let pts: Vec<[f64; 3]> = (0..10).map(|i| [i as f64, 0.0, 1.0]).collect();
        let q = Quantizer::fit(pts.len(), 3, |i, d| pts[i][d]);
        assert_eq!(q.bits(), DEFAULT_BITS_PER_DIM);
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn non_finite_coordinates_panic() {
        BoundingBox::from_coords(2, 1, |i, _| if i == 0 { 0.0 } else { f64::NAN });
    }

    #[test]
    #[should_panic(expected = "zero points")]
    fn empty_point_set_panics() {
        BoundingBox::from_coords(0, 3, |_, _| 0.0);
    }
}
