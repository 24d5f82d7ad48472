//! A uniform 3-D cell grid ("chaining mesh") over a periodic box.
//!
//! Both molecular codes need the same spatial structure: divide the box into cells no
//! smaller than the cutoff radius, bin the molecules into cells, and then any molecule's
//! interaction partners are guaranteed to lie in its own or one of the 26 neighbouring
//! cells.  Water-Spatial keeps the grid across iterations (it *is* the computation
//! partition); Moldyn only uses it to rebuild the interaction list periodically.

/// A uniform cell grid over an axis-aligned box `[0, box_side]^3`.
#[derive(Debug, Clone)]
pub struct CellGrid {
    /// Number of cells along each axis.
    pub cells_per_side: usize,
    /// Side length of the whole box.
    pub box_side: f64,
    /// `members[c]` — indices of the molecules currently binned into cell `c`.
    pub members: Vec<Vec<u32>>,
    /// `cell_of[i]` — cell containing molecule `i`.
    pub cell_of: Vec<u32>,
}

impl CellGrid {
    /// Build a grid with cells at least `cutoff` wide (so all partners of a molecule are
    /// in the 27-cell neighbourhood), binning the given positions.
    ///
    /// # Panics
    /// Panics if `positions` is empty, or if `box_side` or `cutoff` is not positive.
    pub fn build(positions: &[[f64; 3]], box_side: f64, cutoff: f64) -> Self {
        assert!(!positions.is_empty(), "cannot build a cell grid over zero molecules");
        assert!(box_side > 0.0 && cutoff > 0.0, "box side and cutoff must be positive");
        let cells_per_side = ((box_side / cutoff).floor() as usize).max(1);
        let mut grid = CellGrid {
            cells_per_side,
            box_side,
            members: vec![Vec::new(); cells_per_side * cells_per_side * cells_per_side],
            cell_of: vec![0; positions.len()],
        };
        for (i, p) in positions.iter().enumerate() {
            let c = grid.cell_index(*p);
            grid.members[c].push(i as u32);
            grid.cell_of[i] = c as u32;
        }
        grid
    }

    /// Total number of cells.
    pub fn num_cells(&self) -> usize {
        self.members.len()
    }

    /// The cell index of a position (positions outside the box are clamped to the
    /// boundary cells).
    pub fn cell_index(&self, p: [f64; 3]) -> usize {
        let s = self.cells_per_side;
        let coord =
            |x: f64| (((x / self.box_side) * s as f64) as isize).clamp(0, s as isize - 1) as usize;
        (coord(p[0]) * s + coord(p[1])) * s + coord(p[2])
    }

    /// The (x, y, z) integer coordinates of cell `c`.
    pub fn cell_coords(&self, c: usize) -> (usize, usize, usize) {
        let s = self.cells_per_side;
        (c / (s * s), (c / s) % s, c % s)
    }

    /// The cells in the 3×3×3 neighbourhood of cell `c` (including `c` itself), without
    /// periodic wrap-around — matching the SPLASH-2 Water-Spatial non-periodic cell scan.
    ///
    /// Returned as an allocation-free iterator (ascending cell order, identical to the
    /// old `Vec` contents): the interaction-list rebuilds call this once per cell per
    /// rebuild, so a `Vec` here was one heap allocation per cell per time step.
    pub fn neighborhood(&self, c: usize) -> impl Iterator<Item = usize> {
        let s = self.cells_per_side;
        let (x, y, z) = self.cell_coords(c);
        let bounds = |v: usize| (v.saturating_sub(1), (v + 1).min(s - 1));
        let (x0, x1) = bounds(x);
        let (y0, y1) = bounds(y);
        let (z0, z1) = bounds(z);
        (x0..=x1).flat_map(move |nx| {
            (y0..=y1).flat_map(move |ny| (z0..=z1).map(move |nz| (nx * s + ny) * s + nz))
        })
    }

    /// Re-bin all molecules after they have moved.
    pub fn rebuild(&mut self, positions: &[[f64; 3]]) {
        for m in self.members.iter_mut() {
            m.clear();
        }
        for (i, p) in positions.iter().enumerate() {
            let c = self.cell_index(*p);
            self.members[c].push(i as u32);
            self.cell_of[i] = c as u32;
        }
    }

    /// Partition the cells into `num_procs` slabs of consecutive x-planes with
    /// approximately equal molecule counts.  Returns `owner[c]` per cell.  This is the
    /// physically contiguous domain decomposition Water-Spatial uses.
    pub fn partition_slabs(&self, num_procs: usize) -> Vec<usize> {
        let mut owner = Vec::new();
        self.partition_slabs_into(num_procs, &mut owner);
        owner
    }

    /// [`CellGrid::partition_slabs`] into a caller-provided buffer (cleared first), so
    /// per-step partitions reuse one allocation.
    /// Invariant: a 1-processor trace is the processor-order concatenation of a P-processor one.
    pub fn partition_slabs_into(&self, num_procs: usize, owner: &mut Vec<usize>) {
        assert!(num_procs > 0);
        let s = self.cells_per_side;
        // Molecules per x-plane.
        let mut plane_weight = vec![0usize; s];
        for c in 0..self.num_cells() {
            let (x, _, _) = self.cell_coords(c);
            plane_weight[x] += self.members[c].len();
        }
        let total: usize = plane_weight.iter().sum::<usize>().max(1);
        // Assign each x-plane to the processor whose share of the cumulative weight its
        // midpoint falls into; this keeps slabs contiguous and near-balanced.
        let mut plane_owner = vec![0usize; s];
        let mut acc = 0.0;
        for x in 0..s {
            let mid = acc + plane_weight[x] as f64 / 2.0;
            let proc = ((mid / total as f64) * num_procs as f64) as usize;
            plane_owner[x] = proc.min(num_procs - 1);
            acc += plane_weight[x] as f64;
        }
        owner.clear();
        owner.extend((0..self.num_cells()).map(|c| plane_owner[self.cell_coords(c).0]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::cubic_lattice;

    fn positions(n: usize) -> Vec<[f64; 3]> {
        cubic_lattice(n, 10.0, 0.3, 42)
    }

    #[test]
    fn every_molecule_is_binned_once() {
        let pos = positions(500);
        let grid = CellGrid::build(&pos, 10.0, 2.5);
        let total: usize = grid.members.iter().map(Vec::len).sum();
        assert_eq!(total, 500);
        for (i, &c) in grid.cell_of.iter().enumerate() {
            assert!(grid.members[c as usize].contains(&(i as u32)));
        }
    }

    #[test]
    fn cell_size_is_at_least_the_cutoff() {
        let pos = positions(100);
        let grid = CellGrid::build(&pos, 10.0, 2.5);
        assert_eq!(grid.cells_per_side, 4);
        let cell_side = grid.box_side / grid.cells_per_side as f64;
        assert!(cell_side >= 2.5);
    }

    #[test]
    fn neighborhood_contains_all_molecules_within_cutoff() {
        let pos = positions(800);
        let cutoff = 2.0;
        let grid = CellGrid::build(&pos, 10.0, cutoff);
        // For a sample of molecules, every other molecule within the cutoff must be in
        // the 27-cell neighbourhood of its cell.
        for i in (0..pos.len()).step_by(37) {
            let in_nbhd: std::collections::BTreeSet<u32> = grid
                .neighborhood(grid.cell_of[i] as usize)
                .flat_map(|c| grid.members[c].iter().copied())
                .collect();
            for (j, q) in pos.iter().enumerate() {
                if i == j {
                    continue;
                }
                let d2: f64 = (0..3).map(|d| (pos[i][d] - q[d]).powi(2)).sum();
                if d2 < cutoff * cutoff {
                    assert!(
                        in_nbhd.contains(&(j as u32)),
                        "molecule {j} is within the cutoff of {i} but not in its neighbourhood"
                    );
                }
            }
        }
    }

    #[test]
    fn neighborhood_size_is_bounded_by_27_and_sorted() {
        let pos = positions(200);
        let grid = CellGrid::build(&pos, 10.0, 2.0);
        for c in 0..grid.num_cells() {
            let cells: Vec<usize> = grid.neighborhood(c).collect();
            assert!((8..=27).contains(&cells.len()));
            assert!(cells.windows(2).all(|w| w[0] < w[1]), "neighbourhood must be sorted");
            assert!(cells.contains(&c));
        }
    }

    #[test]
    fn rebuild_tracks_moved_molecules() {
        let mut pos = positions(100);
        let mut grid = CellGrid::build(&pos, 10.0, 2.5);
        let before = grid.cell_of[0];
        // Move molecule 0 to the far corner and rebuild.
        pos[0] = [9.9, 9.9, 9.9];
        grid.rebuild(&pos);
        let after = grid.cell_of[0];
        assert_ne!(before, after);
        assert!(grid.members[after as usize].contains(&0));
        assert!(!grid.members[before as usize].contains(&0));
    }

    #[test]
    fn slab_partition_is_contiguous_and_balanced() {
        let pos = positions(1000);
        let grid = CellGrid::build(&pos, 10.0, 1.2);
        let owner = grid.partition_slabs(4);
        // Owners are non-decreasing in x.
        for c in 0..grid.num_cells() {
            let (x, _, _) = grid.cell_coords(c);
            for c2 in 0..grid.num_cells() {
                let (x2, _, _) = grid.cell_coords(c2);
                if x2 > x {
                    assert!(owner[c2] >= owner[c]);
                }
            }
        }
        // Every processor owns a reasonable share of the molecules.
        let mut per_proc = vec![0usize; 4];
        for c in 0..grid.num_cells() {
            per_proc[owner[c]] += grid.members[c].len();
        }
        for &w in &per_proc {
            assert!(w > 100, "unbalanced slab partition: {per_proc:?}");
        }
    }

    #[test]
    fn out_of_box_positions_clamp_to_boundary_cells() {
        let pos = vec![[0.0, 0.0, 0.0], [11.0, -3.0, 5.0]];
        let grid = CellGrid::build(&pos, 10.0, 2.5);
        assert_eq!(grid.cell_of.len(), 2);
        let (x, y, _) = grid.cell_coords(grid.cell_of[1] as usize);
        assert_eq!(x, grid.cells_per_side - 1);
        assert_eq!(y, 0);
    }

    #[test]
    #[should_panic(expected = "zero molecules")]
    fn empty_positions_panic() {
        CellGrid::build(&[], 10.0, 2.0);
    }
}
