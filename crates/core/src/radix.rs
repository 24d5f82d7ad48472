//! Parallel LSD radix-sort ranking: the fast path behind [`crate::permute::Permutation`].
//!
//! The paper argues that reordering pays for itself because the sort-and-permute phase
//! is cheap next to the locality it buys; follow-up work (Asudeh et al., PAPERS.md)
//! shows the reordering *cost* is what decides whether reordering wins end-to-end.
//! Ranking sort keys is the dominant term of that cost, so this module replaces the
//! comparison sort over `(u128, usize)` tuples with a least-significant-digit radix
//! sort over packed `(key, u32)` pairs:
//!
//! 1. the maximum key is found with a chunked map-reduce, so only the *occupied* key
//!    bytes get a pass (3-D keys at 21 bits/dim need 8 passes, not 16);
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

/// Below this many keys, thread fan-out costs more than it saves: callers that choose
/// between serial and parallel ranking (`compute_reordering`,
/// `Permutation::from_sort_keys`) pass `parallel = n >= PARALLEL_THRESHOLD` (and a
/// worker count above 1).  The radix algorithm itself is the same either way.
pub const PARALLEL_THRESHOLD: usize = 8 * 1024;

/// An unsigned integer type usable as a radix-sort key (`u64` or `u128`).
///
/// The pipeline narrows keys to `u64` whenever `dims * bits_per_dim <= 64` — the
/// common 2-D/3-D case — which halves both the pair size the scatter moves and the
/// worst-case number of passes.
pub trait RadixKey: Copy + Ord + Send + Sync {
    /// The zero key.
    const ZERO: Self;
    /// Width of the key type in bits.
    const BITS: u32;
    /// The 8-bit digit at `shift` (`shift` is a multiple of `DIGIT_BITS`).
    fn digit(self, shift: u32) -> usize;
    /// Number of significant (non-leading-zero) bits.
    fn significant_bits(self) -> u32;
}

impl RadixKey for u64 {
    const ZERO: Self = 0;
    const BITS: u32 = 64;

    #[inline]
    fn digit(self, shift: u32) -> usize {
        ((self >> shift) & 0xff) as usize
    }

    #[inline]
    fn significant_bits(self) -> u32 {
        Self::BITS - self.leading_zeros()
    }
}

impl RadixKey for u128 {
    const ZERO: Self = 0;
    const BITS: u32 = 128;

    #[inline]
    fn digit(self, shift: u32) -> usize {
        ((self >> shift) & 0xff) as usize
    }

    #[inline]
    fn significant_bits(self) -> u32 {
        Self::BITS - self.leading_zeros()
    }
}

/// Rank `keys` positionally: object `i` has key `keys[i]`, objects are ordered by
/// ascending key with ties broken by object index, and the result maps each object to
/// its rank (exactly like sorting [`crate::SortKey`]s built in object order).
///
/// With `parallel` set, histogram and scatter phases of every pass run on rayon worker
/// threads; the permutation produced is identical either way.
///
/// # Panics
/// Panics if `keys.len()` exceeds `u32::MAX` (pairs store the object index in 32 bits).
pub fn rank_radix<K: RadixKey>(keys: &[K], parallel: bool) -> Permutation {
    let n = keys.len();
    assert!(n <= u32::MAX as usize, "radix ranking supports at most 2^32 - 1 objects");
    if n <= 1 {
        return Permutation::identity(n);
    }
    let mut pairs: Vec<(K, u32)> = keys.iter().enumerate().map(|(i, &k)| (k, i as u32)).collect();
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
fn radix_sort_pairs<K: RadixKey>(pairs: &mut Vec<(K, u32)>, parallel: bool) {
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
            .map(|c| c.iter().map(|&(k, _)| k).max().unwrap_or(K::ZERO))
            .reduce(|| K::ZERO, K::max)
    } else {
        pairs.iter().map(|&(k, _)| k).max().unwrap_or(K::ZERO)
    };
    let passes = max_key.significant_bits().div_ceil(DIGIT_BITS).max(1);

    // The single auxiliary allocation: one scratch pair buffer, ping-ponged with the
    // input so every pass scatters from one buffer into the other.
    let mut scratch: Vec<(K, u32)> = vec![(K::ZERO, 0); n];
    for pass in 0..passes {
        scatter_pass(pairs, &mut scratch, pass * DIGIT_BITS, chunk_len, parallel);
        std::mem::swap(pairs, &mut scratch);
    }
}

/// A sort item: the key plus the object index it ranks.
type Pair<K> = (K, u32);
/// One chunk's disjoint destination regions, indexed by digit.
type Regions<'a, K> = Vec<&'a mut [Pair<K>]>;

/// One stable counting-scatter pass: per-chunk digit histograms (parallel), an
/// exclusive prefix scan over the chunk × digit matrix (serial, tiny), and a parallel
/// scatter in which each chunk writes into its own pre-carved disjoint regions.
fn scatter_pass<K: RadixKey>(
    src: &[(K, u32)],
    dst: &mut [(K, u32)],
    shift: u32,
    chunk_len: usize,
    parallel: bool,
) {
    let histogram = |chunk: &[(K, u32)]| {
        let mut hist = [0usize; NUM_BINS];
        for &(k, _) in chunk {
            hist[k.digit(shift)] += 1;
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
    let mut regions: Vec<Regions<'_, K>> =
        (0..num_chunks).map(|_| Vec::with_capacity(NUM_BINS)).collect();
    let mut rest = dst;
    for digit in 0..NUM_BINS {
        for (chunk, hist) in hists.iter().enumerate() {
            let (region, tail) = std::mem::take(&mut rest).split_at_mut(hist[digit]);
            regions[chunk].push(region);
            rest = tail;
        }
    }

    let scatter = |(chunk, mut regions): (&[Pair<K>], Regions<'_, K>)| {
        let mut cursors = [0usize; NUM_BINS];
        for &(k, i) in chunk {
            let digit = k.digit(shift);
            regions[digit][cursors[digit]] = (k, i);
            cursors[digit] += 1;
        }
    };
    let work: Vec<(&[Pair<K>], Regions<'_, K>)> = src.chunks(chunk_len).zip(regions).collect();
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
        assert!(rank_radix::<u64>(&[], false).is_empty());
        assert!(rank_radix(&[42u64], true).is_identity());
        let p = rank_radix(&[9u64, 3], false);
        assert_eq!(p.sources(), &[1, 0]);
    }

    #[test]
    fn high_bits_are_sorted_too() {
        // Keys that differ only above bit 64 exercise the u128 pass count.
        let keys: Vec<u128> = (0..300u32).map(|i| u128::from(299 - i) << 100).collect();
        let p = rank_radix(&keys, true);
        for i in 0..keys.len() {
            assert_eq!(p.rank_of(i), keys.len() - 1 - i);
        }
    }

    #[test]
    fn significant_bits_counts() {
        assert_eq!(0u64.significant_bits(), 0);
        assert_eq!(1u64.significant_bits(), 1);
        assert_eq!(u64::MAX.significant_bits(), 64);
        assert_eq!((1u128 << 127).significant_bits(), 128);
    }
}
