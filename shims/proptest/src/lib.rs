//! Offline shim for the [`proptest`](https://crates.io/crates/proptest)
//! crate.
//!
//! Implements the surface this workspace uses — the [`proptest!`] macro,
//! `prop_assert*!`, [`prop_oneof!`], the [`Strategy`](strategy::Strategy)
//! trait with `prop_map`/`prop_flat_map`, range/tuple/[`Just`](strategy::Just)
//! strategies, [`collection::vec`], and
//! [`ProptestConfig`](test_runner::ProptestConfig) — with two deliberate
//! simplifications:
//!
//! * **Deterministic sampling.** Each test derives its RNG seed from the
//!   test name, so runs are reproducible without a persistence file.
//! * **No shrinking.** A failing case panics with the *unshrunk* inputs
//!   (every strategy value in this workspace is `Debug`, so failures are
//!   still actionable).
//!
//! Two environment variables adjust a run, and a failure prints both so
//! it can be replayed:
//!
//! * `PROPTEST_CASES` — the number of cases each test runs. Upstream
//!   proptest applies it only to tests without an explicit count; here
//!   it overrides `with_cases` too, since every test in this workspace
//!   sets one.
//! * `PROPTEST_SEED` — an unsigned integer mixed into every test's
//!   name-derived seed, to draw a different deterministic sample. Unset,
//!   the sample is the name's alone.

pub mod test_runner {
    //! Test-runner types: config, RNG, and the case-level error.

    /// Configuration accepted by `#![proptest_config(..)]`.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to run per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` random cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }

        /// This config with its case count replaced by `cases`, when
        /// given (the `PROPTEST_CASES` override).
        pub fn overridden(self, cases: Option<u64>) -> Self {
            match cases {
                Some(n) => ProptestConfig {
                    cases: u32::try_from(n).unwrap_or(u32::MAX),
                },
                None => self,
            }
        }
    }

    /// The unsigned integer in environment variable `var`, or `None`
    /// when it is unset.
    ///
    /// # Panics
    /// If the variable is set but is not an unsigned integer: a typo
    /// must not silently run the default sample.
    pub fn env_u64(var: &str) -> Option<u64> {
        let value = std::env::var(var).ok()?;
        match value.trim().parse() {
            Ok(n) => Some(n),
            Err(_) => panic!("{var} must be an unsigned integer, got {value:?}"),
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// Deterministic SplitMix64 RNG used to drive strategies.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the RNG from an arbitrary string (e.g. the test name),
        /// so distinct tests see distinct but reproducible streams.
        pub fn from_name(name: &str) -> Self {
            // FNV-1a over the name.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng { state: h }
        }

        /// The RNG of the test called `name`: [`TestRng::from_name`],
        /// with `seed` (the `PROPTEST_SEED` override) mixed in when given.
        pub fn for_test(name: &str, seed: Option<u64>) -> Self {
            let mut rng = TestRng::from_name(name);
            if let Some(seed) = seed {
                rng.state ^= TestRng { state: seed }.next_u64();
            }
            rng
        }

        /// Next 64 random bits (SplitMix64).
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            self.next_u64() % bound
        }
    }

    /// A failed property case (produced by the `prop_assert*!` macros).
    #[derive(Debug, Clone)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        /// A failure carrying `message`.
        pub fn fail(message: impl Into<String>) -> Self {
            TestCaseError {
                message: message.into(),
            }
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.message)
        }
    }
}

pub mod strategy {
    //! Value-generation strategies (no shrinking).

    use crate::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Samples one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { base: self, f }
        }

        /// Generates an intermediate value, then samples from the
        /// strategy `f` builds from it.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { base: self, f }
        }
    }

    impl<T> Strategy for Box<dyn Strategy<Value = T>> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            (**self).sample(rng)
        }
    }

    /// Boxes a strategy (used by `prop_oneof!`).
    pub fn boxed<S>(s: S) -> Box<dyn Strategy<Value = S::Value>>
    where
        S: Strategy + 'static,
    {
        Box::new(s)
    }

    /// Always yields a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Output of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        base: S,
        f: F,
    }

    impl<S, U, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> U,
    {
        type Value = U;
        fn sample(&self, rng: &mut TestRng) -> U {
            (self.f)(self.base.sample(rng))
        }
    }

    /// Output of [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        base: S,
        f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;
        fn sample(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.base.sample(rng)).sample(rng)
        }
    }

    /// Uniform choice among boxed alternatives (built by `prop_oneof!`).
    pub struct Union<T> {
        options: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> Union<T> {
        /// A union over `options`; must be non-empty.
        pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs >= 1 option");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].sample(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    // Offsets are applied with wrapping arithmetic: for
                    // signed ranges wider than half the domain, `start +
                    // offset` would overflow even though the result is in
                    // range (bit patterns wrap back into bounds).
                    let span = (self.end as u64).wrapping_sub(self.start as u64);
                    self.start.wrapping_add(rng.below(span) as $t)
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                    if span == 0 {
                        // Full-width range: every bit pattern is valid.
                        return rng.next_u64() as $t;
                    }
                    lo.wrapping_add(rng.below(span) as $t)
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i32, i64);

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy for `Vec`s with element strategy `S` and a length drawn
    /// from a range.
    pub struct VecStrategy<S> {
        element: S,
        len: core::ops::Range<usize>,
    }

    /// Generates `Vec`s whose length is drawn uniformly from `len` and
    /// whose elements are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, len: core::ops::Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude`.

    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Defines property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` running `cases` sampled inputs (no shrinking).
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )+
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $config;
                let config = config.overridden($crate::test_runner::env_u64("PROPTEST_CASES"));
                let seed = $crate::test_runner::env_u64("PROPTEST_SEED");
                let mut rng = $crate::test_runner::TestRng::for_test(
                    concat!(module_path!(), "::", stringify!($name)),
                    seed,
                );
                for case in 0..config.cases {
                    $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut rng);)+
                    let outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| {
                            $body
                            ::core::result::Result::Ok(())
                        })();
                    if let ::core::result::Result::Err(e) = outcome {
                        let mut inputs = ::std::string::String::new();
                        $(inputs.push_str(&format!("\n  {} = {:?}", stringify!($arg), &$arg));)+
                        panic!(
                            "proptest {} failed at case {}/{} (PROPTEST_CASES={} PROPTEST_SEED={}): {}\ninputs:{}",
                            stringify!($name),
                            case + 1,
                            config.cases,
                            config.cases,
                            seed.map_or("unset".to_string(), |s| s.to_string()),
                            e,
                            inputs
                        );
                    }
                }
            }
        )+
    };
}

/// Fails the enclosing property case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the enclosing property case unless the two values are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}\n {}",
            stringify!($left), stringify!($right), l, r, format!($($fmt)+)
        );
    }};
}

/// Fails the enclosing property case if the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($left), stringify!($right), l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: {} != {}\n  both: {:?}\n {}",
            stringify!($left), stringify!($right), l, format!($($fmt)+)
        );
    }};
}

/// Uniform choice among several strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::boxed($strat)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_sample_in_bounds() {
        let mut rng = TestRng::from_name("ranges");
        for _ in 0..500 {
            let v = (3usize..9).sample(&mut rng);
            assert!((3..9).contains(&v));
            let w = (2usize..=5).sample(&mut rng);
            assert!((2..=5).contains(&w));
        }
    }

    #[test]
    fn wide_signed_ranges_do_not_overflow() {
        let mut rng = TestRng::from_name("wide");
        let (mut low, mut high) = (false, false);
        for _ in 0..500 {
            let v = (-2_000_000_000i32..2_000_000_000).sample(&mut rng);
            assert!((-2_000_000_000..2_000_000_000).contains(&v));
            low |= v < -1_000_000_000;
            high |= v > 1_000_000_000;
            let w = (i64::MIN..=i64::MAX).sample(&mut rng);
            let _ = w;
        }
        assert!(low && high, "covers both halves of the wide range");
    }

    #[test]
    fn map_flat_map_vec() {
        let mut rng = TestRng::from_name("combinators");
        let s = (1usize..4)
            .prop_flat_map(|n| crate::collection::vec(0u32..10, 0..5).prop_map(move |v| (n, v)));
        for _ in 0..200 {
            let (n, v) = s.sample(&mut rng);
            assert!((1..4).contains(&n));
            assert!(v.len() < 5);
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    #[test]
    fn oneof_hits_all_arms() {
        let s = prop_oneof![Just(b'a'), Just(b'b'), Just(b'.')];
        let mut rng = TestRng::from_name("oneof");
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(s.sample(&mut rng));
        }
        assert_eq!(seen.len(), 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_end_to_end(a in 0u32..50, b in 1u32..50, v in crate::collection::vec(0u8..4, 0..6)) {
            prop_assert!(a < 50);
            prop_assert_eq!(a + b, b + a);
            prop_assert_ne!(b, 0);
            prop_assert!(v.len() < 6, "len was {}", v.len());
        }
    }

    #[test]
    fn seed_override_draws_another_deterministic_sample() {
        let draw = |seed| {
            let mut rng = TestRng::for_test("t", seed);
            (0..4).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        let mut by_name = TestRng::from_name("t");
        assert_eq!(
            draw(None),
            (0..4).map(|_| by_name.next_u64()).collect::<Vec<_>>()
        );
        assert_eq!(draw(Some(7)), draw(Some(7)));
        assert_ne!(draw(Some(7)), draw(None));
        assert_ne!(draw(Some(7)), draw(Some(8)));
    }

    #[test]
    fn cases_override_replaces_the_count() {
        assert_eq!(ProptestConfig::with_cases(8).overridden(None).cases, 8);
        assert_eq!(
            ProptestConfig::with_cases(8).overridden(Some(4096)).cases,
            4096
        );
        assert_eq!(
            ProptestConfig::with_cases(8)
                .overridden(Some(u64::MAX))
                .cases,
            u32::MAX
        );
    }

    #[test]
    #[should_panic(expected = "PROPTEST_SEED=")]
    fn failing_case_panics() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]

            #[allow(dead_code)]
            fn always_fails(a in 0u32..10) {
                prop_assert!(a > 100, "a = {}", a);
            }
        }
        always_fails();
    }
}
