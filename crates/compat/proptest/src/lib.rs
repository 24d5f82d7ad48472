//! Dependency-free stand-in for the subset of `proptest` this workspace uses.
//!
//! The build environment has no access to a crates.io registry, so the workspace
//! vendors this shim as a path dependency under the `proptest` library name (the
//! manifests alias `proptest-shim` → `proptest`).  It implements the pieces the
//! property tests in `crates/*/tests/` rely on:
//!
//! * the [`Strategy`] trait with range, tuple, `prop_map` and collection strategies;
//! * [`any`] for primitive types;
//! * the [`proptest!`] macro (with `#![proptest_config(...)]` support) and the
//!   `prop_assert*` assertion macros;
//! * [`ProptestConfig::with_cases`].
//!
//! Differences from real proptest, by design: sampling is plain deterministic
//! pseudo-random generation (seeded per test from the test name, overridable with the
//! `PROPTEST_SEED` environment variable), there is **no shrinking** — a failing case
//! panics with the sampled inputs left to the assertion message — and `prop_assert*`
//! panic immediately instead of returning `Err`.

#![forbid(unsafe_code)]

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Deterministic generator driving all sampling (SplitMix64).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Build from an explicit seed.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed ^ 0x5DEE_CE66_D1CE_4E5B }
    }

    /// Build the per-test generator: FNV-1a of the test name, XORed with
    /// `PROPTEST_SEED` if set (so a failing run can be varied or pinned).
    pub fn for_test(test_name: &str) -> Self {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
        let env = std::env::var("PROPTEST_SEED").ok().and_then(|v| v.parse::<u64>().ok());
        TestRng::new(hash ^ env.unwrap_or(0))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, span)`; `span` must be positive.
    pub fn below(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64
    }

    /// Uniform draw from `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Test-loop configuration (the subset of proptest's we honour).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of sampled cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` sampled inputs per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A generator of test values (the sampling half of proptest's `Strategy`; no
/// shrinking).
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Sample one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f` (proptest's `prop_map`).
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// Strategy produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),+) => {
        $(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "cannot sample empty range");
                    let span = (self.end - self.start) as u128;
                    let draw = if span > u128::from(u64::MAX) {
                        // Spans wider than 64 bits (u128 ranges): two draws.
                        let wide = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
                        wide % span
                    } else {
                        u128::from(rng.below(span as u64))
                    };
                    self.start + draw as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "cannot sample empty range");
                    if lo == <$t>::MIN && hi == <$t>::MAX {
                        return <$t>::arbitrary(rng);
                    }
                    let span = (hi - lo) as u128 + 1;
                    let draw = if span > u128::from(u64::MAX) {
                        let wide = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
                        wide % span
                    } else {
                        u128::from(rng.below(span as u64))
                    };
                    lo + draw as $t
                }
            }
        )+
    };
}
int_range_strategy!(u8, u16, u32, u64, u128, usize);

macro_rules! signed_range_strategy {
    ($($t:ty),+) => {
        $(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "cannot sample empty range");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
        )+
    };
}
signed_range_strategy!(i8, i16, i32, i64);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($S:ident . $idx:tt),+))+) => {
        $(
            impl<$($S: Strategy),+> Strategy for ($($S,)+) {
                type Value = ($($S::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )+
    };
}
tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
}

/// Types with a canonical "any value" strategy (proptest's `Arbitrary`).
pub trait Arbitrary: Sized {
    /// Sample an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_uint {
    ($($t:ty),+) => {
        $(impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        })+
    };
}
arbitrary_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

impl Arbitrary for u128 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.unit_f64()
    }
}

/// Strategy returned by [`any`].
pub struct Any<T>(PhantomData<T>);

/// Strategy producing any value of `T` (proptest's `any::<T>()`).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

pub mod prop {
    //! The `prop::` namespace (`prop::collection::vec`).

    pub mod collection {
        //! Collection strategies.

        use crate::{Strategy, TestRng};
        use std::ops::{Range, RangeInclusive};

        /// Length specification for [`vec()`]: an exact size or a range of sizes.
        #[derive(Clone, Copy, Debug)]
        pub struct SizeRange {
            lo: usize,
            hi_inclusive: usize,
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                SizeRange { lo: n, hi_inclusive: n }
            }
        }

        impl From<Range<usize>> for SizeRange {
            fn from(r: Range<usize>) -> Self {
                assert!(r.start < r.end, "empty size range");
                SizeRange { lo: r.start, hi_inclusive: r.end - 1 }
            }
        }

        impl From<RangeInclusive<usize>> for SizeRange {
            fn from(r: RangeInclusive<usize>) -> Self {
                assert!(r.start() <= r.end(), "empty size range");
                SizeRange { lo: *r.start(), hi_inclusive: *r.end() }
            }
        }

        /// Strategy for `Vec<S::Value>` with a sampled length.
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        /// `Vec` strategy: each element drawn from `element`, length drawn from
        /// `size` (an exact `usize` or a `usize` range).
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy { element, size: size.into() }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = (self.size.hi_inclusive - self.size.lo) as u64 + 1;
                let len = self.size.lo + rng.below(span) as usize;
                (0..len).map(|_| self.element.sample(rng)).collect()
            }
        }
    }
}

pub mod prelude {
    //! Glob-import target mirroring `proptest::prelude`.
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary,
        ProptestConfig, Strategy,
    };
}

/// Assert a condition inside a property test (panics immediately; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($tokens:tt)*) => { assert!($($tokens)*) };
}

/// Assert equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tokens:tt)*) => { assert_eq!($($tokens)*) };
}

/// Assert inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tokens:tt)*) => { assert_ne!($($tokens)*) };
}

/// Define property tests: each `fn name(arg in strategy, ...) { body }` becomes a
/// `#[test]` that samples its arguments `cases` times and runs the body per sample.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!($config; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!($crate::ProptestConfig::default(); $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($config:expr; $(
        $(#[$attr:meta])*
        fn $name:ident ( $($arg:ident in $strategy:expr),+ $(,)? ) $body:block
    )*) => {
        $(
            $(#[$attr])*
            fn $name() {
                let __config: $crate::ProptestConfig = $config;
                let __strategies = ( $($strategy,)+ );
                let mut __rng = $crate::TestRng::for_test(stringify!($name));
                for __case in 0..__config.cases {
                    let _ = __case;
                    let ( $($arg,)+ ) = $crate::Strategy::sample(&__strategies, &mut __rng);
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_sample_in_bounds() {
        let mut rng = crate::TestRng::new(1);
        for _ in 0..1000 {
            let v = (3u32..17).sample(&mut rng);
            assert!((3..17).contains(&v));
            let w = (0u128..(1u128 << 80)).sample(&mut rng);
            assert!(w < 1u128 << 80);
            let f = (-2.0f64..2.0).sample(&mut rng);
            assert!((-2.0..2.0).contains(&f));
        }
    }

    #[test]
    fn vec_strategy_respects_size() {
        let mut rng = crate::TestRng::new(2);
        for _ in 0..200 {
            let exact = prop::collection::vec(any::<u64>(), 7).sample(&mut rng);
            assert_eq!(exact.len(), 7);
            let ranged = prop::collection::vec(0u32..10, 1..5).sample(&mut rng);
            assert!((1..5).contains(&ranged.len()));
        }
    }

    #[test]
    fn prop_map_transforms() {
        let mut rng = crate::TestRng::new(3);
        let s = (0u32..10).prop_map(|x| x * 2);
        for _ in 0..100 {
            let v = s.sample(&mut rng);
            assert_eq!(v % 2, 0);
            assert!(v < 20);
        }
    }

    #[test]
    fn per_test_rng_is_deterministic() {
        let mut a = crate::TestRng::for_test("some_test");
        let mut b = crate::TestRng::for_test("some_test");
        assert_eq!(a.next_u64(), b.next_u64());
    }

    // The macro itself, exercised end to end.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_generates_working_tests(x in 0u32..100, v in prop::collection::vec(any::<bool>(), 0..10)) {
            prop_assert!(x < 100);
            prop_assert!(v.len() < 10);
            prop_assert_eq!(x, x);
            prop_assert_ne!(x as i64 - 1, x as i64);
        }
    }
}
