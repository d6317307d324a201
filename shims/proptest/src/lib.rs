//! Offline stand-in for the subset of `proptest` this workspace uses.
//!
//! Same shape — `proptest!` blocks over [`Strategy`] values with
//! `prop_map` / `prop_flat_map` composition, `prop_assert*` /
//! `prop_assume` inside test bodies — but a much simpler engine:
//! deterministic splitmix64 case generation seeded from the test name,
//! and **no shrinking** (a failing case reports its case number and
//! message, not a minimized input).

use std::fmt;

/// Outcome of a single generated test case.
#[derive(Debug)]
pub enum TestCaseError {
    /// The case was vetoed by `prop_assume!`; it does not count.
    Reject,
    /// An assertion failed.
    Fail(String),
}

impl TestCaseError {
    /// Builds a failure with the given message.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError::Fail(message.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Reject => write!(f, "rejected by prop_assume"),
            TestCaseError::Fail(m) => write!(f, "{m}"),
        }
    }
}

/// Runner configuration (`cases` is the only knob the shim honours).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of accepted cases each test must pass.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

impl ProptestConfig {
    /// Config running `cases` accepted cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// Deterministic splitmix64 RNG used for case generation.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Seeds deterministically from a test name.
    pub fn from_name(name: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Self::new(h)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A generator of random values (no shrinking in the shim).
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { base: self, map: f }
    }

    /// Generates a value, builds a dependent strategy from it, and
    /// draws from that.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap {
            base: self,
            make: f,
        }
    }
}

/// Strategy yielding a fixed (cloned) value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Output of [`Strategy::prop_map`].
pub struct Map<S, F> {
    base: S,
    map: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.map)(self.base.generate(rng))
    }
}

/// Output of [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    base: S,
    make: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.make)(self.base.generate(rng)).generate(rng)
    }
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u128) - (self.start as u128);
                (self.start as u128 + (rng.next_u64() as u128 % span)) as $t
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u128) - (lo as u128) + 1;
                (lo as u128 + (rng.next_u64() as u128 % span)) as $t
            }
        }

        impl Strategy for std::ops::RangeFrom<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let lo = self.start as u128;
                let span = (<$t>::MAX as u128) - lo + 1;
                (lo + (rng.next_u64() as u128 % span)) as $t
            }
        }
    )*};
}
impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_range {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + (rng.unit_f64() as $t) * (self.end - self.start)
            }
        }
    )*};
}
impl_float_range!(f32, f64);

macro_rules! impl_tuple {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
impl_tuple!(A);
impl_tuple!(A, B);
impl_tuple!(A, B, C);
impl_tuple!(A, B, C, D);
impl_tuple!(A, B, C, D, E);
impl_tuple!(A, B, C, D, E, G);

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};

    /// Length specification for [`vec()`]: an exact size or a range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            Self {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    /// Strategy producing `Vec`s of values drawn from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `proptest::collection::vec`: vectors of `element` values with a
    /// length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// The macro-facing test driver: runs `cases` accepted cases, aborting
/// when rejection dominates (mirrors proptest's give-up behaviour).
pub fn run_cases<F>(test_name: &str, config: &ProptestConfig, mut case: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    let mut rng = TestRng::from_name(test_name);
    let mut passed = 0u32;
    let mut rejected = 0u32;
    let mut case_index = 0u32;
    while passed < config.cases {
        case_index += 1;
        match case(&mut rng) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject) => {
                rejected += 1;
                if rejected > config.cases.saturating_mul(20).max(1000) {
                    panic!(
                        "{test_name}: gave up after {rejected} prop_assume rejections \
                         ({passed}/{} cases passed)",
                        config.cases
                    );
                }
            }
            Err(TestCaseError::Fail(message)) => {
                panic!("{test_name}: case #{case_index} failed: {message}");
            }
        }
    }
}

/// Defines property tests: each `fn name(pattern in strategy, ...)`
/// becomes a `#[test]` running the body over generated inputs.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                $crate::run_cases(stringify!($name), &config, |prop_rng| {
                    $(let $pat = $crate::Strategy::generate(&($strategy), prop_rng);)+
                    $body
                    #[allow(unreachable_code)]
                    Ok(())
                });
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $(
                $(#[$meta])*
                fn $name($($pat in $strategy),+) $body
            )*
        }
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} at {}:{}",
                stringify!($cond),
                file!(),
                line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} at {}:{}",
                format!($($fmt)+),
                file!(),
                line!()
            )));
        }
    };
}

/// Fails the current case unless the two values compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` != `{:?}` at {}:{}",
                l,
                r,
                file!(),
                line!()
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` != `{:?}`: {} at {}:{}",
                l,
                r,
                format!($($fmt)+),
                file!(),
                line!()
            )));
        }
    }};
}

/// Vetoes the current case unless `cond` holds (it is regenerated, not
/// counted as passed).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// Drop-in for `proptest::prelude`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assume, proptest, Just, ProptestConfig, Strategy,
        TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u32..17, y in 0.5f64..2.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((0.5..2.0).contains(&y));
        }

        #[test]
        fn vec_lengths_respect_size(v in collection::vec(0u8..10, 2..9)) {
            prop_assert!(v.len() >= 2 && v.len() < 9);
            prop_assert!(v.iter().all(|&b| b < 10));
        }

        #[test]
        fn flat_map_threads_dependent_values((n, v) in (1usize..20).prop_flat_map(|n| {
            (Just(n), collection::vec(0u32..100, n))
        })) {
            prop_assert_eq!(v.len(), n);
        }

        #[test]
        fn assume_rejects_without_failing(x in 0u32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }
    }

    #[test]
    fn generation_is_deterministic_per_name() {
        let mut a = crate::TestRng::from_name("some_test");
        let mut b = crate::TestRng::from_name("some_test");
        let strat = collection::vec(0u64..1000, 0..50);
        assert_eq!(strat.generate(&mut a), strat.generate(&mut b));
    }
}
