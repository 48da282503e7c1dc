//! Vendored minimal stand-in for the `proptest` crate.
//!
//! The build environment has no network access, so the real `proptest`
//! cannot be fetched. This shim keeps the same *testing model* — each
//! `proptest!` test runs many randomly generated cases — but does not
//! implement shrinking: a failing case reports its case index and the
//! (deterministic, per-test) seed instead of a minimized input.
//!
//! Supported surface (everything this workspace's property tests use):
//! integer range strategies (`0..n`, `a..=b`), tuples of strategies,
//! [`Just`], `prop_oneof!`, `prop_map`/`prop_flat_map`,
//! [`collection::vec`] with exact or ranged sizes, `prop_assert!` /
//! `prop_assert_eq!`, and `#![proptest_config(ProptestConfig::…)]`.

use std::ops::{Range, RangeInclusive};

/// Per-test configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each test runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // The real default is 256; this shim has no shrinking, so a
        // somewhat smaller default keeps `cargo test` latency sane
        // while still exercising a broad input sample.
        ProptestConfig { cases: 64 }
    }
}

/// Deterministic per-test generator (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeded from the test's name, so every `cargo test` run explores
    /// the same cases (reproducible CI).
    pub fn for_test(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng { state: h }
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }
}

/// A generator of random values of type `Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Produces one random value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Builds a second strategy from each generated value.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// Always generates a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Uniform choice between boxed strategies (`prop_oneof!`).
pub struct Union<V> {
    variants: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    /// Builds a union over `variants` (must be non-empty).
    pub fn new(variants: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!variants.is_empty(), "prop_oneof! of zero strategies");
        Union { variants }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let pick = rng.below(self.variants.len() as u64) as usize;
        self.variants[pick].generate(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128 + 1) as u64;
                lo.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case, reason = "the tuple's type parameters name its elements")]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// `bool` strategy: fair coin.
impl Strategy for fn() -> bool {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.below(2) == 1
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};

    /// Number of elements a [`vec()`] strategy may generate.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    /// `Vec` strategy with element strategy `element` and a size drawn
    /// from `size` (exact `usize`, `a..b`, or `a..=b`).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi_inclusive - self.size.lo + 1) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything a property test needs in scope.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, BoxedStrategy, Just,
        ProptestConfig, Strategy, TestRng,
    };
}

/// Asserts inside a `proptest!` body; failure aborts the case with a
/// formatted message (no shrinking in this shim).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} at {}:{}",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} ({}) at {}:{}",
                stringify!($cond),
                format!($($fmt)+),
                file!(),
                line!()
            ));
        }
    };
}

/// Equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}\n at {}:{}",
                stringify!($left),
                stringify!($right),
                l,
                r,
                file!(),
                line!()
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err(format!(
                "assertion failed: `{} == {}` ({})\n  left: {:?}\n right: {:?}\n at {}:{}",
                stringify!($left),
                stringify!($right),
                format!($($fmt)+),
                l,
                r,
                file!(),
                line!()
            ));
        }
    }};
}

/// Inequality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err(format!(
                "assertion failed: `{} != {}`\n  both: {:?}\n at {}:{}",
                stringify!($left),
                stringify!($right),
                l,
                file!(),
                line!()
            ));
        }
    }};
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$(::std::boxed::Box::new($strat) as _,)+])
    };
}

/// Defines property tests: each `fn` runs `config.cases` random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { [$cfg] $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { [$crate::ProptestConfig::default()] $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ([$cfg:expr]) => {};
    ([$cfg:expr]
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::for_test(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..config.cases {
                let strat = ($($strat,)+);
                let ($($pat,)+) = $crate::Strategy::generate(&strat, &mut rng);
                let outcome: ::std::result::Result<(), ::std::string::String> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(msg) = outcome {
                    panic!(
                        "property `{}` failed on case {}/{} (no shrinking in vendored proptest shim):\n{}",
                        stringify!($name),
                        case + 1,
                        config.cases,
                        msg
                    );
                }
            }
        }
        $crate::__proptest_impl! { [$cfg] $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_in_bounds(x in 3usize..10, y in -4i64..=4) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-4..=4).contains(&y));
        }

        #[test]
        fn vec_sizes(v in collection::vec(0u64..100, 2..5), w in collection::vec(0u64..9, 7usize)) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
            prop_assert_eq!(w.len(), 7);
        }

        #[test]
        fn combinators(pair in (0u32..5, 0u32..5).prop_map(|(a, b)| (a, a + b))) {
            prop_assert!(pair.1 >= pair.0, "pair {:?}", pair);
        }

        #[test]
        fn oneof_and_flat_map(
            v in prop_oneof![Just(1u8), Just(2u8)],
            tagged in (1usize..4).prop_flat_map(|n| collection::vec(0usize..10, n))
        ) {
            prop_assert!(matches!(v, 1u8 | 2u8));
            prop_assert!(!tagged.is_empty() && tagged.len() < 4);
        }
    }

    #[test]
    fn deterministic_per_test_name() {
        let mut a = TestRng::for_test("x");
        let mut b = TestRng::for_test("x");
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    #[should_panic(expected = "property `fails` failed")]
    fn failure_reports_case() {
        proptest! {
            #[allow(unused, reason = "the property exists only to fail")]
            fn fails(x in 0u8..10) {
                prop_assert!(x < 100); // passes
                prop_assert!(x > 200, "x was {}", x); // always fails
            }
        }
        fails();
    }
}
