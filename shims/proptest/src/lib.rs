//! Offline vendored subset of the `proptest` API.
//!
//! The build container has no access to crates.io, so the workspace vendors
//! the slice of `proptest` its property tests use: the [`Strategy`] trait
//! with `prop_map`, range / tuple / [`collection::vec`] / [`any`] / [`Just`]
//! strategies, the [`proptest!`] macro with an optional
//! `#![proptest_config(...)]` header, and the `prop_assert*` macros.
//!
//! Differences from upstream, deliberate for a test-only shim:
//!
//! * **No shrinking** — a failing case panics with the generated inputs'
//!   `Debug` rendering via the standard assert message instead of a
//!   minimised counterexample.
//! * **Deterministic seeding** — each test derives its RNG seed from the
//!   test's name (override with the `PROPTEST_SEED` env var), so runs are
//!   reproducible by default.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Per-test configuration (case count only).
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// Deterministic test RNG (xoshiro256**-style quality is unnecessary here;
/// SplitMix64 is statistically fine for test-case generation).
pub mod test_runner {
    /// The RNG handed to strategies.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Creates an RNG seeded from the test name (or `PROPTEST_SEED`).
        pub fn deterministic(name: &str) -> Self {
            let seed = match std::env::var("PROPTEST_SEED") {
                Ok(s) => s.parse().unwrap_or(0xDEFA17), // fall back on junk values
                Err(_) => name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                    (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
                }),
            };
            Self { state: seed }
        }

        /// Next 64 random bits (SplitMix64).
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value below `span` (`span > 0`).
        pub fn below(&mut self, span: u64) -> u64 {
            let zone = u64::MAX - (u64::MAX % span + 1) % span;
            loop {
                let v = self.next_u64();
                if v <= zone {
                    return v % span;
                }
            }
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

use test_runner::TestRng;

/// A generator of random values of type `Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Clone, Copy, Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Clone, Copy, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty inclusive range strategy");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.below(span + 1) as $t)
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (self.end - self.start) * rng.unit_f64()
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($s,)+) = self;
                ($($s.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// The strategy [`any`] returns for this type.
    fn arbitrary() -> AnyStrategy<Self>;
}

/// Strategy over the full domain of a primitive type.
#[derive(Clone, Copy, Debug, Default)]
pub struct AnyStrategy<T> {
    _marker: core::marker::PhantomData<T>,
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary() -> AnyStrategy<$t> {
                AnyStrategy { _marker: core::marker::PhantomData }
            }
        }
        impl Strategy for AnyStrategy<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary() -> AnyStrategy<bool> {
        AnyStrategy {
            _marker: core::marker::PhantomData,
        }
    }
}

impl Strategy for AnyStrategy<bool> {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary() -> AnyStrategy<f64> {
        AnyStrategy {
            _marker: core::marker::PhantomData,
        }
    }
}

impl Strategy for AnyStrategy<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        // Finite values only, spread over a wide magnitude range.
        let mag = rng.unit_f64() * 200.0 - 100.0;
        let sign = if rng.next_u64() & 1 == 1 { 1.0 } else { -1.0 };
        sign * mag.exp2() * rng.unit_f64()
    }
}

/// Returns the canonical strategy for `T` (`any::<u32>()` etc.).
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    T::arbitrary()
}

/// Collection strategies (`vec`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Number of elements a [`vec()`] strategy generates: exact or ranged.
    #[derive(Clone, Copy, Debug)]
    pub enum SizeRange {
        /// Always exactly this many.
        Exact(usize),
        /// Uniformly drawn from `[lo, hi)`.
        Between(usize, usize),
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange::Exact(n)
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange::Between(r.start, r.end)
        }
    }

    /// Strategy generating `Vec`s of `element` values.
    #[derive(Clone, Copy, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A `Vec` strategy with `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = match self.size {
                SizeRange::Exact(n) => n,
                SizeRange::Between(lo, hi) => lo + rng.below((hi - lo) as u64) as usize,
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Support items used by the macros; not part of the public API surface.
#[doc(hidden)]
pub mod macro_support {
    pub use super::test_runner::TestRng;
    pub use super::{ProptestConfig, Strategy};
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that runs the body over `config.cases` generated
/// inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { (<$crate::ProptestConfig as ::core::default::Default>::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($cfg:expr)
      $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),* $(,)?) $body:block
      )*
    ) => {
        $(
            // Upstream convention: the user writes `#[test]` on each
            // property fn inside `proptest!`, so it arrives via `$meta`.
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                let mut __rng =
                    $crate::macro_support::TestRng::deterministic(stringify!($name));
                for __case in 0..__config.cases {
                    let ($($arg,)*) = (
                        $( $crate::macro_support::Strategy::generate(&($strat), &mut __rng), )*
                    );
                    // Property bodies may early-exit with `return Ok(())`
                    // (upstream bodies return a Result), so run them inside
                    // a Result-returning closure.
                    #[allow(clippy::redundant_closure_call)]
                    let __outcome: ::core::result::Result<(), ::std::string::String> =
                        (move || {
                            $body
                            #[allow(unreachable_code)]
                            ::core::result::Result::Ok(())
                        })();
                    __outcome.unwrap();
                }
            }
        )*
    };
}

/// Asserts a condition inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Common re-exports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u32..17, y in 0usize..=4) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y <= 4);
        }

        #[test]
        fn vec_sizes_respected(v in collection::vec(0u32..5, 7),
                               w in collection::vec(any::<u8>(), 1..4)) {
            prop_assert_eq!(v.len(), 7);
            prop_assert!(v.iter().all(|&x| x < 5));
            prop_assert!((1..4).contains(&w.len()));
        }

        #[test]
        fn prop_map_and_tuples(pair in (0u32..10, 0u32..10).prop_map(|(a, b)| a + b)) {
            prop_assert!(pair < 19);
        }

        #[test]
        fn just_yields_value(x in Just(41)) {
            prop_assert_eq!(x + 1, 42);
        }
    }

    // No-header form: defaults to `ProptestConfig::default()` cases.
    proptest! {
        #[test]
        fn default_config_without_header(x in 0u32..2) {
            prop_assert!(x < 2);
        }
    }
}
