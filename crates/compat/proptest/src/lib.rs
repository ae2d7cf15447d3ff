//! Offline mini-proptest: enough of the `proptest` surface for this
//! workspace's property tests — the [`proptest!`] macro, range and
//! collection [`Strategy`]s, [`any`], and the `prop_assert*` macros.
//!
//! No shrinking: a failing case panics with the values that produced it
//! (cases are deterministic per test name, so a failure reproduces by
//! re-running the test).

use std::ops::{Range, RangeInclusive};

/// Deterministic generator behind the strategies (splitmix64).
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw below `n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// A source of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;
    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as u64) - (self.start as u64);
                self.start + (rng.below(span) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as u64) - (lo as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + (rng.below(span + 1) as $t)
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize);

/// Tuples of strategies generate tuples of values (the upstream crate's
/// tuple composition, for the common `(index, kind, payload)` shapes).
macro_rules! tuple_strategy {
    ($($name:ident),*) => {
        impl<$($name: Strategy),*> Strategy for ($($name,)*) {
            type Value = ($($name::Value,)*);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)*) = self;
                ($($name.generate(rng),)*)
            }
        }
    };
}
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range");
        // Occasionally emit the exact endpoints: they are where the edge
        // cases live (p = 0, q = 1, ...).
        match rng.below(16) {
            0 => lo,
            1 => hi,
            _ => lo + rng.unit_f64() * (hi - lo),
        }
    }
}

/// A strategy for probabilities in the half-open interval `(0, 1]` —
/// the domain of a geometric success probability (a zero-probability
/// coin has no finite runs). Exercises the `p = 1` endpoint and
/// near-zero values deliberately: that is where samplers break.
///
/// # Examples
///
/// ```
/// use pbbf_proptest::{probability_open_closed, Strategy, TestRng};
///
/// let mut rng = TestRng::new(1);
/// for _ in 0..100 {
///     let p = probability_open_closed().generate(&mut rng);
///     assert!(p > 0.0 && p <= 1.0);
/// }
/// ```
#[must_use]
pub fn probability_open_closed() -> ProbabilityOpenClosed {
    ProbabilityOpenClosed
}

/// See [`probability_open_closed`].
pub struct ProbabilityOpenClosed;

impl Strategy for ProbabilityOpenClosed {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        match rng.below(16) {
            // The exact endpoint and the tiny-p regime are the edge
            // cases; f64::MIN_POSITIVE stresses ln/underflow paths.
            0 => 1.0,
            1 => 1e-9,
            2 => f64::MIN_POSITIVE,
            // (0, 1): reject the measure-zero 0.0 by nudging it up.
            _ => rng.unit_f64().max(f64::MIN_POSITIVE),
        }
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64()
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

/// The full-range strategy for `T` (mirrors `proptest::prelude::any`).
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Any value of `T`.
#[must_use]
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Length specification for [`vec()`]: a fixed size or a range.
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    /// Vectors of values from `element`, sized by `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A strategy for `Vec<S::Value>` with lengths drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span + 1) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The names property tests import with one `use`.
pub mod prelude {
    pub use crate::{
        any, probability_open_closed, prop_assert, prop_assert_eq, proptest, Strategy,
    };

    /// Mirror of `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running the body over many generated cases.
#[macro_export]
macro_rules! proptest {
    ($(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),* $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            // Deterministic per-test seed (FNV-1a over the test name).
            let mut seed = 1469598103934665603u64;
            for b in stringify!($name).bytes() {
                seed ^= u64::from(b);
                seed = seed.wrapping_mul(1099511628211);
            }
            let mut rng = $crate::TestRng::new(seed);
            for case in 0..64u32 {
                $(let $arg = $crate::Strategy::generate(&$strategy, &mut rng);)*
                // Render inputs before the body, which may consume them.
                let inputs =
                    [$(::std::format!("{} = {:?}", stringify!($arg), $arg)),*].join(", ");
                let outcome: ::std::result::Result<(), ::std::string::String> = (|| {
                    $body
                    Ok(())
                })();
                if let Err(message) = outcome {
                    panic!(
                        "property `{}` failed on case {case}: {message}\n  inputs: {inputs}",
                        stringify!($name),
                    );
                }
            }
        }
    )*};
}

/// Asserts inside a [`proptest!`] body, reporting the failing inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return Err(::std::format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err(::std::format!($($fmt)+));
        }
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return Err(::std::format!(
                "assertion failed: `{}` != `{}`\n  left: {left:?}\n right: {right:?}",
                stringify!($left),
                stringify!($right),
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_respect_bounds(x in 3u64..10, y in 0.0f64..=1.0, flag in any::<bool>()) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((0.0..=1.0).contains(&y));
            prop_assert_eq!(u64::from(flag) <= 1, true);
        }

        #[test]
        fn vec_strategy_sizes(xs in prop::collection::vec(0u64..5, 2..6)) {
            prop_assert!(xs.len() >= 2 && xs.len() < 6);
            prop_assert!(xs.iter().all(|&v| v < 5));
        }

        #[test]
        fn probabilities_stay_in_domain(p in probability_open_closed()) {
            prop_assert!(p > 0.0 && p <= 1.0, "p = {p}");
        }
    }

    #[test]
    fn probability_strategy_hits_the_endpoint() {
        let mut rng = crate::TestRng::new(5);
        let s = crate::probability_open_closed();
        let draws: Vec<f64> = (0..200).map(|_| s.generate(&mut rng)).collect();
        assert!(draws.contains(&1.0), "p = 1 must be exercised");
        assert!(draws.iter().any(|&p| p < 1e-6), "tiny p must be exercised");
        assert!(draws.iter().all(|&p| p > 0.0 && p <= 1.0));
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = crate::TestRng::new(7);
        let mut b = crate::TestRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
