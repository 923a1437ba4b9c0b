//! A self-contained property-testing harness with the `proptest` API
//! surface this workspace uses.
//!
//! The build environment resolves dependencies offline, so the workspace
//! carries its own harness instead of the `proptest` crate. The workspace
//! `Cargo.toml` renames this package to `proptest`, so the property tests
//! (`proptest! { fn p(x in 0u8..10) {..} }`) compile unchanged.
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * no shrinking — a failing case reports its inputs via the panic
//!   message of the failed assertion, but is not minimized;
//! * cases are derived deterministically from the test's name, so runs
//!   are reproducible without a persistence file;
//! * only the strategy combinators the workspace's tests use are
//!   implemented (ranges, `any`, tuples, `prop_map`, `collection::vec`,
//!   `array::uniform3`).

#![warn(missing_docs)]

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// The RNG handed to strategies.
#[derive(Debug)]
pub struct TestRng(SmallRng);

impl TestRng {
    /// 64 fresh random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform sample from a range.
    pub fn in_range<T, R: rand::SampleRange<T>>(&mut self, r: R) -> T {
        self.0.gen_range(r)
    }
}

/// A generator of test values.
pub trait Strategy {
    /// The value type produced.
    type Value;

    /// Produces one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps produced values through `f` (mirrors proptest's `prop_map`).
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// The output of [`Strategy::prop_map`].
#[derive(Clone, Copy, Debug)]
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

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! impl_range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.in_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.in_range(self.clone())
            }
        }
    )*};
}

impl_range_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        rng.in_range(self.clone())
    }
}

/// Strategy for "any value of `T`" — see [`any`].
#[derive(Clone, Copy, Debug)]
pub struct Any<T>(PhantomData<T>);

/// Uniform samples over the whole domain of `T`.
pub fn any<T>() -> Any<T>
where
    Any<T>: Strategy<Value = T>,
{
    Any(PhantomData)
}

macro_rules! impl_any_int {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Any<bool> {
    type Value = bool;

    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_tuple_strategy {
    ($($s:ident . $idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A.0);
impl_tuple_strategy!(A.0, B.1);
impl_tuple_strategy!(A.0, B.1, C.2);
impl_tuple_strategy!(A.0, B.1, C.2, D.3);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Anything usable as a vector-length specification.
    pub trait SizeRange {
        /// Draws a length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.in_range(self.clone())
        }
    }

    impl SizeRange for RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.in_range(self.clone())
        }
    }

    /// The output of [`vec()`].
    #[derive(Clone, Copy, Debug)]
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    /// A vector of values from `element`, with a length drawn from `len`
    /// (a fixed `usize` or a range).
    pub fn vec<S: Strategy, L: SizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Fixed-size array strategies.
pub mod array {
    use super::{Strategy, TestRng};

    /// The output of [`uniform3`].
    #[derive(Clone, Copy, Debug)]
    pub struct Uniform3<S>(S);

    /// Three values from the same strategy.
    pub fn uniform3<S: Strategy>(element: S) -> Uniform3<S> {
        Uniform3(element)
    }

    impl<S: Strategy> Strategy for Uniform3<S> {
        type Value = [S::Value; 3];

        fn generate(&self, rng: &mut TestRng) -> [S::Value; 3] {
            [self.0.generate(rng), self.0.generate(rng), self.0.generate(rng)]
        }
    }
}

/// Harness configuration (the fields the workspace's tests may set;
/// call sites use `..ProptestConfig::default()` as with real proptest).
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
    /// Accepted for API compatibility; this harness does not shrink.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 64, max_shrink_iters: 0 }
    }
}

/// Drives one property test: a deterministic RNG stream derived from the
/// test's name, advanced once per case.
#[derive(Debug)]
pub struct TestRunner {
    config: ProptestConfig,
    rng: TestRng,
}

impl TestRunner {
    /// Creates a runner for the named test.
    pub fn new(config: ProptestConfig, name: &str) -> TestRunner {
        // FNV-1a over the test name: stable, collision-irrelevant seeding.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRunner { config, rng: TestRng(SmallRng::seed_from_u64(h)) }
    }

    /// Number of cases to run.
    pub fn cases(&self) -> u32 {
        self.config.cases
    }

    /// Draws one tuple of inputs from `strategy`.
    pub fn draw<S: Strategy>(&mut self, strategy: &S) -> S::Value {
        strategy.generate(&mut self.rng)
    }
}

/// Everything the tests import.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{any, prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Declares property tests: each function's arguments are drawn from the
/// given strategies for `cases` iterations.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_impl! { ($config); $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_impl {
    (
        ($config:expr);
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strategy:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                let mut runner = $crate::TestRunner::new(config, stringify!($name));
                let strategy = ( $($strategy,)+ );
                for _ in 0..runner.cases() {
                    let ( $($arg,)+ ) = runner.draw(&strategy);
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    fn pair() -> impl Strategy<Value = (u8, u8)> {
        (0u8..10, 0u8..10).prop_map(|(a, b)| (a.min(b), a.max(b)))
    }

    proptest! {
        #[test]
        fn ranges_hold(x in 3u32..17, y in -5i64..=5, f in 0.25f64..0.75) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-5..=5).contains(&y));
            prop_assert!((0.25..0.75).contains(&f));
        }

        #[test]
        fn vec_lengths_hold(v in prop::collection::vec(any::<u8>(), 2..9)) {
            prop_assert!((2..9).contains(&v.len()));
        }

        #[test]
        fn mapped_strategy_applies(p in pair()) {
            prop_assert!(p.0 <= p.1);
        }

        #[test]
        fn arrays_have_three(a in prop::array::uniform3(0.0f64..1.0)) {
            prop_assert_eq!(a.len(), 3);
            prop_assert!(a.iter().all(|v| (0.0..1.0).contains(v)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

        #[test]
        fn config_override_compiles(b in any::<bool>()) {
            prop_assert!(u8::from(b) <= 1);
        }
    }

    #[test]
    fn runner_is_deterministic_per_name() {
        let mut a = super::TestRunner::new(ProptestConfig::default(), "t");
        let mut b = super::TestRunner::new(ProptestConfig::default(), "t");
        let s = (0u64..1000,);
        assert_eq!(a.draw(&s), b.draw(&s));
    }
}
