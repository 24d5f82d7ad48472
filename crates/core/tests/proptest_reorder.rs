//! Property-based tests for the reordering library: the invariants here are the ones
//! the paper's correctness rests on — every ordering is a bijection, reordering never
//! loses or duplicates an object, index remapping follows objects wherever they move,
//! and the Hilbert curve really is a locality-preserving traversal.

use proptest::prelude::*;
use reorder::hilbert::{hilbert_decode, hilbert_encode};
use reorder::keys::key_for_cells;
use reorder::morton::{morton_decode, morton_encode};
use reorder::permute::Permutation;
use reorder::rowcol::{column_decode, column_key, row_decode, row_key};
use reorder::{
    compute_reordering, rank_radix, reorder_by_method, Method, MAX_DIMS, PARALLEL_THRESHOLD,
};

/// The oracle for every radix ranking: a serial comparison sort over `(key, object)`
/// tuples, where object `i` has key `keys[i]`, so objects rank by ascending key with
/// ties broken by object index.
fn comparison_ranking(keys: &[u64]) -> Permutation {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by_key(|&i| (keys[i], i));
    let mut rank = vec![usize::MAX; keys.len()];
    for (r, &i) in order.iter().enumerate() {
        rank[i] = r;
    }
    Permutation::from_rank(rank)
}

/// `keys` widened to `u64`, the key type the radix ranking takes.
fn widened(keys: &[u32]) -> Vec<u64> {
    keys.iter().map(|&k| u64::from(k)).collect()
}

/// Moduli for the ranking proptest: all-equal keys, heavy duplication, one and three
/// occupied key bytes, and the full 64-bit range.
const MODULI: [u64; 6] = [1, 2, 31, 255, 1 << 20, u64::MAX];

/// The comparison-sort ranking of the `key_for_cells` keys of `coords` (flat,
/// row-major), quantized the way `r` was.
fn oracle_ranking(
    r: &reorder::Reordering,
    method: Method,
    dims: usize,
    coords: &[f64],
) -> Permutation {
    let quantizer = r.quantizer();
    let keys: Vec<u64> = coords
        .chunks_exact(dims)
        .map(|row| {
            let cells: Vec<u32> =
                row.iter().enumerate().map(|(d, &c)| quantizer.cell(d, c)).collect();
            key_for_cells(method, &cells, quantizer.bits())
        })
        .collect();
    comparison_ranking(&keys)
}

fn coords_strategy(dims: usize, bits: u32) -> impl Strategy<Value = Vec<u32>> {
    let max = if bits == 32 { u32::MAX } else { (1u32 << bits) - 1 };
    prop::collection::vec(0..=max, dims)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hilbert_roundtrips_2d(c in coords_strategy(2, 16)) {
        let idx = hilbert_encode(&c, 16);
        prop_assert_eq!(hilbert_decode(idx, 2, 16), c);
    }

    #[test]
    fn hilbert_roundtrips_3d(c in coords_strategy(3, 21)) {
        let idx = hilbert_encode(&c, 21);
        prop_assert_eq!(hilbert_decode(idx, 3, 21), c);
    }

    #[test]
    fn morton_roundtrips_3d(c in coords_strategy(3, 20)) {
        let idx = morton_encode(&c, 20);
        prop_assert_eq!(morton_decode(idx, 3, 20), c);
    }

    #[test]
    fn rowcol_roundtrips_3d(c in coords_strategy(3, 20)) {
        prop_assert_eq!(column_decode(column_key(&c, 20), 3, 20), c.clone());
        prop_assert_eq!(row_decode(row_key(&c, 20), 3, 20), c);
    }

    #[test]
    fn hilbert_index_is_injective(a in coords_strategy(3, 12), b in coords_strategy(3, 12)) {
        let ia = hilbert_encode(&a, 12);
        let ib = hilbert_encode(&b, 12);
        if a != b {
            prop_assert_ne!(ia, ib);
        } else {
            prop_assert_eq!(ia, ib);
        }
    }

    #[test]
    fn hilbert_neighbors_in_index_are_neighbors_in_space(idx in 0u64..(1u64 << 15) - 1) {
        // Consecutive Hilbert indices always decode to face-adjacent grid cells
        // (Manhattan distance exactly 1) — the locality property the paper relies on.
        let a = hilbert_decode(idx, 3, 5);
        let b = hilbert_decode(idx + 1, 3, 5);
        let dist: u32 = a.iter().zip(&b).map(|(&x, &y)| x.abs_diff(y)).sum();
        prop_assert_eq!(dist, 1);
    }

    #[test]
    fn permutation_from_arbitrary_keys_is_bijective(keys in prop::collection::vec(any::<u64>(), 1..200)) {
        let p = rank_radix(&keys, false);
        let mut seen_rank = vec![false; keys.len()];
        let mut seen_src = vec![false; keys.len()];
        for i in 0..keys.len() {
            let r = p.rank_of(i);
            let s = p.source_of(i);
            prop_assert!(!seen_rank[r]);
            prop_assert!(!seen_src[s]);
            seen_rank[r] = true;
            seen_src[s] = true;
            prop_assert_eq!(p.source_of(p.rank_of(i)), i);
        }
        // Ranks must respect key order.
        for i in 0..keys.len() {
            for j in 0..keys.len() {
                if keys[i] < keys[j] {
                    prop_assert!(p.rank_of(i) < p.rank_of(j));
                }
            }
        }
    }

    #[test]
    fn in_place_and_cloned_application_agree(keys in prop::collection::vec(any::<u32>(), 1..300)) {
        let p = rank_radix(&widened(&keys), false);
        let objects: Vec<usize> = (0..keys.len()).collect();
        let cloned = p.apply_cloned(&objects);
        let mut in_place = objects;
        p.apply_in_place(&mut in_place);
        prop_assert_eq!(cloned, in_place);
    }

    #[test]
    fn reorder_preserves_multiset_of_objects(
        pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 1..200),
        method_idx in 0usize..4,
    ) {
        let method = Method::ALL[method_idx];
        let mut objects: Vec<(usize, [f64; 3])> =
            pts.iter().enumerate().map(|(i, &(x, y, z))| (i, [x, y, z])).collect();
        let r = reorder_by_method(method, &mut objects, 3, |o, d| o.1[d]);
        prop_assert_eq!(r.len(), pts.len());
        let mut ids: Vec<usize> = objects.iter().map(|o| o.0).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..pts.len()).collect::<Vec<_>>());
    }

    #[test]
    fn remapped_indices_follow_objects(
        pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 2..150),
        raw_refs in prop::collection::vec(any::<usize>(), 1..50),
    ) {
        let n = pts.len();
        let refs: Vec<usize> = raw_refs.iter().map(|&r| r % n).collect();
        let mut objects: Vec<(usize, [f64; 2])> =
            pts.iter().enumerate().map(|(i, &(x, y))| (i, [x, y])).collect();
        let before: Vec<usize> = refs.iter().map(|&i| objects[i].0).collect();
        let r = reorder_by_method(Method::Hilbert, &mut objects, 2, |o, d| o.1[d]);
        let mut remapped = refs.clone();
        r.remap_indices(&mut remapped);
        let after: Vec<usize> = remapped.iter().map(|&i| objects[i].0).collect();
        prop_assert_eq!(before, after);
    }

    #[test]
    fn reordering_is_idempotent(
        pts in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 2..100),
        method_idx in 0usize..4,
    ) {
        // Applying the same ordering twice must not move anything the second time
        // (stable tie-breaking makes the second permutation the identity).
        let method = Method::ALL[method_idx];
        let mut objects: Vec<[f64; 3]> = pts.iter().map(|&(x, y, z)| [x, y, z]).collect();
        reorder_by_method(method, &mut objects, 3, |o, d| o[d]);
        let snapshot = objects.clone();
        let second = reorder_by_method(method, &mut objects, 3, |o, d| o[d]);
        prop_assert!(second.is_identity());
        prop_assert_eq!(objects, snapshot);
    }

    #[test]
    fn radix_ranking_is_byte_identical_to_comparison_ranking(
        raw in prop::collection::vec(any::<u64>(), 1..2000),
        modulus_pick in 0usize..MODULI.len(),
        parallel in any::<bool>(),
    ) {
        // Small moduli guarantee duplicate keys; the stable radix rank must still match
        // the (key, object) comparison sort, serial and parallel.
        let keys: Vec<u64> = raw.iter().map(|&k| k % MODULI[modulus_pick]).collect();
        prop_assert_eq!(rank_radix(&keys, parallel).ranks(), comparison_ranking(&keys).ranks());
    }

    #[test]
    fn in_place_and_soa_application_match_the_gather(
        keys in prop::collection::vec(any::<u32>(), 1..300),
    ) {
        let p = rank_radix(&widened(&keys), false);
        let n = keys.len();
        // A SoA bundle of three parallel arrays of different element types.
        let mut ids: Vec<usize> = (0..n).collect();
        let mut weights: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        let mut flags: Vec<(u8, bool)> = (0..n).map(|i| (i as u8, i % 3 == 0)).collect();
        let gathered_ids = p.apply_cloned(&ids);
        let gathered_weights = p.apply_cloned(&weights);
        let gathered_flags = p.apply_cloned(&flags);
        p.apply_columns(&mut [&mut ids, &mut weights, &mut flags]);
        prop_assert_eq!(&ids, &gathered_ids);
        prop_assert_eq!(weights, gathered_weights);
        prop_assert_eq!(flags, gathered_flags);
        // apply_with_aux walks the same cycles over a pair of arrays.
        let mut a: Vec<usize> = (0..n).collect();
        let mut b: Vec<u64> = (0..n as u64).map(|i| i * 3).collect();
        p.apply_with_aux(&mut a, &mut b);
        prop_assert_eq!(a, gathered_ids);
        prop_assert_eq!(b, p.apply_cloned(&(0..n as u64).map(|i| i * 3).collect::<Vec<_>>()));
    }

    #[test]
    fn compute_reordering_matches_the_comparison_oracle_at_every_dimension(
        dims in 1usize..=MAX_DIMS,
        n in 1usize..300,
        grid in prop::collection::vec(0u32..64, 300 * MAX_DIMS),
    ) {
        // Coordinates on a coarse grid, so ties are common; the ranks must equal the
        // comparison sort of the `key_for_cells` keys.
        let coords: Vec<f64> = grid[..n * dims].iter().map(|&g| f64::from(g) * 0.37 - 3.0).collect();
        for method in Method::ALL {
            let r = compute_reordering(method, n, dims, |i, d| coords[i * dims + d]);
            prop_assert_eq!(r.ranks(), oracle_ranking(&r, method, dims, &coords).ranks());
        }
    }

    #[test]
    fn compute_reordering_never_panics_on_degenerate_data(
        n in 1usize..100,
        value in -1e6f64..1e6,
    ) {
        // All points coincident: every method must still return a valid permutation.
        for method in Method::ALL {
            let r = compute_reordering(method, n, 3, |_, _| value);
            prop_assert_eq!(r.len(), n);
            prop_assert!(r.is_identity());
        }
    }
}

#[test]
fn compute_reordering_matches_the_comparison_oracle_on_the_parallel_path() {
    // Just above the threshold, so the keys and the ranking run in chunks on worker
    // threads (3 workers split the rows unevenly); 1 worker runs the serial path.
    let n = PARALLEL_THRESHOLD + 37;
    for dims in 1..=MAX_DIMS {
        // A coarse pseudo-random grid, so ties are common.
        let coords: Vec<f64> = (0..n * dims)
            .map(|k| ((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as f64 * 0.37)
            .collect();
        for method in Method::ALL {
            for workers in [1, 3] {
                let r = rayon::with_num_threads(workers, || {
                    compute_reordering(method, n, dims, |i, d| coords[i * dims + d])
                });
                assert_eq!(
                    r.ranks(),
                    oracle_ranking(&r, method, dims, &coords).ranks(),
                    "{method}, {dims} dims, {workers} workers"
                );
            }
        }
    }
}
