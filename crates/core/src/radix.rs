//! Parallel LSD radix-sort ranking: the one way the library turns the `u64` sort keys
//! of [`crate::pack_keys`] into a [`crate::permute::Permutation`].
//!
//! The paper argues that reordering pays for itself because the sort-and-permute phase
//! is cheap next to the locality it buys; follow-up work (Asudeh et al., PAPERS.md)
//! shows the reordering *cost* is what decides whether reordering wins end-to-end.
//! Ranking sort keys is the dominant term of that cost, so instead of a comparison
//! sort over `(u64, usize)` tuples this module runs a least-significant-digit radix
//! sort over packed `(u64, u32)` pairs:
//!
//! 1. the maximum key is found with a chunked map-reduce, so only the *occupied* key
//!    bytes get a pass (3-D keys at 21 bits/dim need all 8, 2-D keys 6);
//! 2. each pass computes one 256-bin digit histogram per chunk in parallel, takes a
//!    serial exclusive prefix scan over the chunk × digit matrix (65 µs of work), and
//!    scatters pairs in parallel — every (chunk, digit) run owns a disjoint
//!    destination region carved out of the output buffer with `split_at_mut`, so the
//!    scatter needs no atomics and no `unsafe`;
//! 3. ping-ponging between the pair buffer and one same-sized scratch buffer keeps the
//!    whole sort at exactly one auxiliary allocation.
//!
//! The sort is *stable*, so pairs built in object order break key ties by object
//! index — byte-for-byte the same [`Permutation`] as a
//! serial comparison sort over `(key, object)` tuples, the oracle the proptest suite
//! pins it to.

use crate::permute::Permutation;

/// Number of key bits consumed per scatter pass.
const DIGIT_BITS: u32 = 8;
/// Number of histogram bins per pass (`2^DIGIT_BITS`).
const NUM_BINS: usize = 1 << DIGIT_BITS;

/// Below this many keys, thread fan-out costs more than it saves: the reordering
/// pipeline (`compute_reordering`) passes `parallel = n >= PARALLEL_THRESHOLD` (and a
/// worker count above 1).  The radix algorithm itself is the same either way.
pub const PARALLEL_THRESHOLD: usize = 8 * 1024;

/// Rank `keys` positionally: object `i` has key `keys[i]`, objects are ordered by
/// ascending key with ties broken by object index, and the result maps each object to
/// its rank (exactly like a comparison sort over `(key, object)` tuples).
///
/// With `parallel` set, histogram and scatter phases of every pass run on rayon worker
/// threads; the permutation produced is identical either way.
///
/// # Panics
/// Panics if `keys.len()` exceeds `u32::MAX` (pairs store the object index in 32 bits).
pub fn rank_radix(keys: &[u64], parallel: bool) -> Permutation {
    let n = keys.len();
    assert!(n <= u32::MAX as usize, "radix ranking supports at most 2^32 - 1 objects");
    if n <= 1 {
        return Permutation::identity(n);
    }
    let mut pairs: Vec<Pair> = keys.iter().enumerate().map(|(i, &k)| (k, i as u32)).collect();
    radix_sort_pairs(&mut pairs, parallel);
    // The two directions of the permutation are independent fills over the sorted
    // pairs; build them on separate workers when the caller asked for parallelism.
    let pairs_ref = &pairs;
    let build_perm = move || pairs_ref.iter().map(|&(_, old)| old as usize).collect::<Vec<usize>>();
    let build_rank = move || {
        let mut rank = vec![0usize; n];
        for (r, &(_, old)) in pairs_ref.iter().enumerate() {
            rank[old as usize] = r;
        }
        rank
    };
    let (perm, rank) =
        if parallel { rayon::join(build_perm, build_rank) } else { (build_perm(), build_rank()) };
    Permutation::from_parts(rank, perm)
}

/// Stable LSD radix sort of `(key, object)` pairs by key.
fn radix_sort_pairs(pairs: &mut Vec<Pair>, parallel: bool) {
    let n = pairs.len();
    if n <= 1 {
        return;
    }
    let threads = if parallel { rayon::current_num_threads() } else { 1 };
    let num_chunks = threads.clamp(1, n);
    let chunk_len = n.div_ceil(num_chunks);

    let max_key = if parallel && num_chunks > 1 {
        use rayon::prelude::*;
        pairs
            .par_chunks(chunk_len)
            .map(|c| c.iter().map(|&(k, _)| k).max().unwrap_or(0))
            .reduce(|| 0, u64::max)
    } else {
        pairs.iter().map(|&(k, _)| k).max().unwrap_or(0)
    };
    let significant_bits = u64::BITS - max_key.leading_zeros();
    let passes = significant_bits.div_ceil(DIGIT_BITS).max(1);

    // The single auxiliary allocation: one scratch pair buffer, ping-ponged with the
    // input so every pass scatters from one buffer into the other.
    let mut scratch: Vec<Pair> = vec![(0, 0); n];
    for pass in 0..passes {
        scatter_pass(pairs, &mut scratch, pass * DIGIT_BITS, chunk_len, parallel);
        std::mem::swap(pairs, &mut scratch);
    }
}

/// A sort item: the key plus the object index it ranks.
type Pair = (u64, u32);
/// One chunk's disjoint destination regions, indexed by digit.
type Regions<'a> = Vec<&'a mut [Pair]>;

/// One stable counting-scatter pass: per-chunk digit histograms (parallel), an
/// exclusive prefix scan over the chunk × digit matrix (serial, tiny), and a parallel
/// scatter in which each chunk writes into its own pre-carved disjoint regions.
/// The 8-bit digit of `key` at `shift` (`shift` is a multiple of `DIGIT_BITS`).
#[inline]
fn digit(key: u64, shift: u32) -> usize {
    ((key >> shift) & 0xff) as usize
}

fn scatter_pass(src: &[Pair], dst: &mut [Pair], shift: u32, chunk_len: usize, parallel: bool) {
    let histogram = |chunk: &[Pair]| {
        let mut hist = [0usize; NUM_BINS];
        for &(k, _) in chunk {
            hist[digit(k, shift)] += 1;
        }
        hist
    };
    let hists: Vec<[usize; NUM_BINS]> = if parallel {
        use rayon::prelude::*;
        src.par_chunks(chunk_len).map(histogram).collect()
    } else {
        src.chunks(chunk_len).map(histogram).collect()
    };

    // Carve `dst` into one region per (digit, chunk) pair, in ascending offset order
    // (digit-major, chunk-minor — the stable order), and hand each chunk its regions
    // indexed by digit.  `split_at_mut` proves disjointness to the borrow checker, so
    // the scatter below can run on worker threads without locks or unsafe code.
    let num_chunks = hists.len();
    let mut regions: Vec<Regions<'_>> =
        (0..num_chunks).map(|_| Vec::with_capacity(NUM_BINS)).collect();
    let mut rest = dst;
    for digit in 0..NUM_BINS {
        for (chunk, hist) in hists.iter().enumerate() {
            let (region, tail) = std::mem::take(&mut rest).split_at_mut(hist[digit]);
            regions[chunk].push(region);
            rest = tail;
        }
    }

    let scatter = |(chunk, mut regions): (&[Pair], Regions<'_>)| {
        let mut cursors = [0usize; NUM_BINS];
        for &(k, i) in chunk {
            let bin = digit(k, shift);
            regions[bin][cursors[bin]] = (k, i);
            cursors[bin] += 1;
        }
    };
    let work: Vec<(&[Pair], Regions<'_>)> = src.chunks(chunk_len).zip(regions).collect();
    if parallel {
        use rayon::prelude::*;
        work.into_par_iter().for_each(scatter);
    } else {
        work.into_iter().for_each(scatter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_keys_rank_by_object_index() {
        let p = rank_radix(&[7u64; 50], true);
        assert!(p.is_identity(), "all-equal keys must leave objects in place");
    }

    #[test]
    fn tiny_and_empty_inputs() {
        assert!(rank_radix(&[], false).is_empty());
        assert!(rank_radix(&[42u64], true).is_identity());
        let p = rank_radix(&[9u64, 3], false);
        assert_eq!(p.sources(), &[1, 0]);
    }

    #[test]
    fn high_bits_are_sorted_too() {
        // Keys that differ only in the top byte still get all 8 passes.
        let keys: Vec<u64> = (0..300u64).map(|i| (299 - i) << 55).collect();
        let p = rank_radix(&keys, true);
        for i in 0..keys.len() {
            assert_eq!(p.rank_of(i), keys.len() - 1 - i);
        }
    }
}
