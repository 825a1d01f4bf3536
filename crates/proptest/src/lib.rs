//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! ships a small in-house property-testing harness exposing the subset of
//! the proptest API its tests use: the [`Strategy`] trait with `prop_map`,
//! integer-range / tuple / `Just` / `any` / collection / oneof strategies,
//! and the `proptest!`, `prop_assert*`, `prop_assume!` and `prop_oneof!`
//! macros. Failing cases are reported with their case number and seed but
//! are **not shrunk**.

use rand::rngs::SmallRng;
use rand::Rng;

#[doc(hidden)]
pub use rand as __rand;

/// The RNG handed to strategies while generating a case.
pub type TestRng = SmallRng;

/// A recipe for generating random values of one type.
///
/// Unlike upstream proptest there is no value tree and no shrinking: a
/// strategy is just a pure function from RNG state to a value.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Erase the concrete strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

/// Output of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always produces a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

macro_rules! impl_tuple_strategy {
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

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);
impl_tuple_strategy!(A, B, C, D, E, F, G);
impl_tuple_strategy!(A, B, C, D, E, F, G, H);

/// Types with a canonical "arbitrary" strategy (see [`any`]).
pub trait Arbitrary: Sized {
    /// Draw an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.gen::<u64>() & 1 == 1
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.gen::<u64>() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Strategy produced by [`any`].
pub struct Any<T>(core::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// An unconstrained value of `T` (`any::<bool>()`, `any::<u8>()`, ...).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(core::marker::PhantomData)
}

/// Weighted union of boxed strategies — the engine behind `prop_oneof!`.
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
    total: u64,
}

impl<T> Union<T> {
    /// Build from `(weight, strategy)` arms.
    ///
    /// # Panics
    /// Panics if `arms` is empty or all weights are zero.
    pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        let total: u64 = arms.iter().map(|(w, _)| *w as u64).sum();
        assert!(total > 0, "prop_oneof! needs at least one weighted arm");
        Union { arms, total }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.gen_range(0..self.total);
        for (w, s) in &self.arms {
            if pick < *w as u64 {
                return s.generate(rng);
            }
            pick -= *w as u64;
        }
        unreachable!("weights changed during generation")
    }
}

/// Sub-modules mirroring the `prop::` namespace.
pub mod prop {
    /// Collection strategies (`prop::collection::vec`).
    pub mod collection {
        use crate::{Strategy, TestRng};
        use rand::Rng;

        /// Acceptable size specifications for [`vec()`].
        pub struct SizeRange {
            lo: usize,
            hi_inclusive: usize,
        }

        impl From<core::ops::Range<usize>> for SizeRange {
            fn from(r: core::ops::Range<usize>) -> Self {
                assert!(r.start < r.end, "empty collection size range");
                SizeRange {
                    lo: r.start,
                    hi_inclusive: r.end - 1,
                }
            }
        }

        impl From<core::ops::RangeInclusive<usize>> for SizeRange {
            fn from(r: core::ops::RangeInclusive<usize>) -> Self {
                SizeRange {
                    lo: *r.start(),
                    hi_inclusive: *r.end(),
                }
            }
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                SizeRange {
                    lo: n,
                    hi_inclusive: n,
                }
            }
        }

        /// Strategy for vectors of `element` with a length drawn from `size`.
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        /// `vec(element, len_range)` — a vector strategy.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let len = rng.gen_range(self.size.lo..=self.size.hi_inclusive);
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }
    }

    /// Boolean strategies (`prop::bool::weighted`).
    pub mod bool {
        use crate::{Strategy, TestRng};
        use rand::Rng;

        /// Strategy returned by [`weighted`].
        pub struct Weighted(f64);

        /// `true` with probability `p`.
        pub fn weighted(p: f64) -> Weighted {
            Weighted(p)
        }

        impl Strategy for Weighted {
            type Value = bool;

            fn generate(&self, rng: &mut TestRng) -> bool {
                rng.gen_bool(self.0)
            }
        }
    }

    /// Sampling strategies (`prop::sample::select`).
    pub mod sample {
        use crate::{Strategy, TestRng};
        use rand::Rng;

        /// Strategy returned by [`select`].
        pub struct Select<T: Clone>(Vec<T>);

        /// Uniformly choose one of `options`.
        ///
        /// # Panics
        /// Panics if `options` is empty.
        pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
            assert!(!options.is_empty(), "select needs at least one option");
            Select(options)
        }

        impl<T: Clone> Strategy for Select<T> {
            type Value = T;

            fn generate(&self, rng: &mut TestRng) -> T {
                self.0[rng.gen_range(0..self.0.len())].clone()
            }
        }
    }
}

/// Runner configuration and helpers used by the generated tests.
pub mod test_runner {
    /// How many random cases each property runs.
    #[derive(Debug, Clone, Copy)]
    pub struct ProptestConfig {
        /// Number of generated cases.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// FNV-1a over a test name: a stable per-test base seed.
    pub fn fnv1a(name: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }
}

pub use test_runner::ProptestConfig;

/// Everything a property-test file needs, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::prop;
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{any, Arbitrary, BoxedStrategy, Just, Strategy};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::core::result::Result::Err(format!($($fmt)*));
        }
    };
}

/// Fail the current case unless the two expressions compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr) => {{
        let (__l, __r) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($lhs),
            stringify!($rhs),
            __l,
            __r
        );
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)*) => {{
        let (__l, __r) = (&$lhs, &$rhs);
        $crate::prop_assert!(*__l == *__r, $($fmt)*);
    }};
}

/// Fail the current case if the two expressions compare equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr) => {{
        let (__l, __r) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($lhs),
            stringify!($rhs),
            __l
        );
    }};
}

/// Skip the current case unless `cond` holds (no shrink-aware rejection —
/// the case simply counts as passed).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Ok(());
        }
    };
}

/// Weighted (or unweighted) choice between strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $(($weight as u32, $crate::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $((1u32, $crate::Strategy::boxed($strat))),+
        ])
    };
}

/// Define property tests: each function runs its body over random values
/// drawn from the `in` strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let __strats = ($($strat,)+);
            let __base_seed = $crate::test_runner::fnv1a(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__cfg.cases {
                let mut __rng = <$crate::TestRng as $crate::__rand::SeedableRng>::seed_from_u64(
                    __base_seed ^ (__case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                let ($($pat,)+) = $crate::Strategy::generate(&__strats, &mut __rng);
                // The closure gives `prop_assert!` an early-return scope.
                #[allow(clippy::redundant_closure_call)]
                let __outcome: ::core::result::Result<(), ::std::string::String> =
                    (|| { $body ::core::result::Result::Ok(()) })();
                if let ::core::result::Result::Err(__msg) = __outcome {
                    panic!(
                        "proptest case {}/{} of `{}` failed (seed {:#x}):\n{}",
                        __case + 1,
                        __cfg.cases,
                        stringify!($name),
                        __base_seed,
                        __msg
                    );
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_and_tuples(x in 0u64..100, (a, b) in (0usize..4, 0i64..10)) {
            prop_assert!(x < 100);
            prop_assert!(a < 4);
            prop_assert!((0..10).contains(&b));
        }

        #[test]
        fn vec_and_map(v in prop::collection::vec((0u32..5).prop_map(|x| x * 2), 1..20)) {
            prop_assert!(!v.is_empty() && v.len() < 20);
            prop_assert!(v.iter().all(|&x| x % 2 == 0 && x < 10));
        }

        #[test]
        fn oneof_and_select(
            c in prop_oneof![3 => Just(0u8), 1 => 1u8..3],
            s in prop::sample::select(vec![10usize, 20, 30]),
            w in prop::bool::weighted(1.0),
        ) {
            prop_assert!(c < 3);
            prop_assert!(s % 10 == 0);
            prop_assert!(w);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]
        #[test]
        fn config_applies(x in 0u8..=255) {
            let _ = x;
        }
    }

    #[test]
    fn failing_case_panics_with_message() {
        proptest! {
            fn always_fails(x in 0u64..10) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        let err = std::panic::catch_unwind(always_fails).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("always_fails"), "message: {msg}");
    }

    #[test]
    fn assume_skips() {
        proptest! {
            fn assume_all(x in 0u64..10) {
                prop_assume!(x > 100); // always skip
                prop_assert!(false, "unreachable");
            }
        }
        assume_all();
    }

    #[test]
    fn deterministic_across_runs() {
        fn collect() -> Vec<u64> {
            proptest! {
                fn one(x in 0u64..1000) { OUT.with(|o| o.borrow_mut().push(x)); }
            }
            thread_local! {
                static OUT: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
            }
            // Reset, run, harvest.
            OUT.with(|o| o.borrow_mut().clear());
            one();
            OUT.with(|o| o.borrow().clone())
        }
        assert_eq!(collect(), collect());
    }
}
