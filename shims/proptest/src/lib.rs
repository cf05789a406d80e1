//! Offline stand-in for the `proptest` property-testing framework.
//!
//! The build environment has no crates.io access, so this shim
//! implements the subset of the proptest API the workspace uses:
//!
//! * the [`proptest!`] macro (with an optional leading
//!   `#![proptest_config(...)]`), expanding each `fn name(x in strategy)`
//!   into a plain `#[test]` that samples the strategies for
//!   `config.cases` deterministic cases;
//! * [`prop_assert!`] / [`prop_assert_eq!`];
//! * strategies: integer and float ranges, `any::<T>()` and
//!   `prop::collection::vec`.
//!
//! Sampling is deterministic: the RNG is seeded from the test name, so
//! failures reproduce exactly. Unlike real proptest there is no
//! shrinking — the failing inputs are printed instead.

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A source of values for one proptest argument.
    pub trait Strategy {
        /// The value type produced.
        type Value: std::fmt::Debug;
        /// Draw one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let off = (rng.next_u64() as u128 % span) as i128;
                    (self.start as i128 + off) as $t
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for std::ops::Range<f32> {
        type Value = f32;
        fn sample(&self, rng: &mut TestRng) -> f32 {
            let u01 = (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
            self.start + u01 * (self.end - self.start)
        }
    }

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            let u01 = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            self.start + u01 * (self.end - self.start)
        }
    }

    /// Types with a full-range default strategy (see [`crate::any`]).
    pub trait Arbitrary: Sized + std::fmt::Debug {
        /// Draw one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// Strategy returned by [`crate::any`].
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T> Default for Any<T> {
        fn default() -> Self {
            Any(std::marker::PhantomData)
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

/// Full-range strategy for a primitive type, like `proptest::arbitrary::any`.
pub fn any<T: strategy::Arbitrary>() -> strategy::Any<T> {
    strategy::Any::default()
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy for `Vec<T>` with a length drawn from a range.
    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    /// Vec strategy, like `proptest::collection::vec`.
    pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.len.clone().sample(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Namespace mirror of `proptest::prelude::prop`.
pub mod prop {
    pub use crate::collection;
}

pub mod test_runner {
    /// Per-test configuration (only `cases` is meaningful in the shim).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of sampled cases per property.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    impl ProptestConfig {
        /// Config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// Failure raised by `prop_assert!`-style macros.
    #[derive(Debug)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        /// A failed assertion with an explanatory message.
        pub fn fail(message: impl Into<String>) -> Self {
            TestCaseError { message: message.into() }
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.message)
        }
    }

    /// Deterministic SplitMix64 RNG seeded from the test name.
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seed deterministically from an identifying string.
        pub fn deterministic(name: &str) -> Self {
            let mut seed = 0xcafe_f00d_d15e_a5e5u64;
            for b in name.bytes() {
                seed = seed.rotate_left(7) ^ b as u64;
                seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            }
            TestRng { state: seed }
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }
}

pub mod prelude {
    pub use crate::strategy::{Arbitrary, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{any, prop};
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

/// Fallible assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Fallible equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)*);
    }};
}

/// Property-test declaration macro; see the crate docs for the supported
/// grammar subset.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)]
     $($(#[$meta:meta])*
       fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut rng = $crate::test_runner::TestRng::deterministic(stringify!($name));
                for case in 0..config.cases {
                    $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut rng);)*
                    let inputs = format!(
                        concat!($(stringify!($arg), " = {:?}, ",)* ""),
                        $(&$arg),*
                    );
                    let result: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| { $body ::core::result::Result::Ok(()) })();
                    if let ::core::result::Result::Err(e) = result {
                        panic!("proptest case {case} failed: {e}\n  inputs: {inputs}");
                    }
                }
            }
        )*
    };
    ($($(#[$meta:meta])*
       fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*) => {
        $crate::proptest! {
            #![proptest_config($crate::test_runner::ProptestConfig::default())]
            $($(#[$meta])* fn $name($($arg in $strat),*) $body)*
        }
    };
}
