//! Minimal property-based testing, replacing the `proptest` crate.
//!
//! The workspace's property suites use a narrow slice of proptest:
//! range/tuple/`Just`/`prop_oneof!`/`prop_map`/`prop_recursive`
//! strategies, `proptest::collection::vec`, `proptest::option::of`,
//! regex-ish string patterns, and the `prop_assert*` macros. This
//! module reimplements exactly that slice on top of the in-tree
//! deterministic PRNG ([`crate::rand::SmallRng`]).
//!
//! ## Differences from proptest
//!
//! * **Deterministic by default.** Case seeds derive from a fixed base
//!   (override with `LLMDM_PROPTEST_SEED`) plus the property name, so a
//!   red property is red on every machine.
//! * **Shrink-by-halving.** Instead of integrated value-tree
//!   shrinking, a failing case is re-generated from the same seed at
//!   geometrically smaller *scale* (1/2, 1/4, … 1/64). Scale
//!   multiplies range widths, collection lengths, and string repeats,
//!   pulling every dimension toward its minimum simultaneously. The
//!   smallest still-failing case is reported.
//! * **String patterns** support the subset actually used: literal
//!   chars, `[...]` classes (ranges, negation, `&&` intersection),
//!   `\PC` (any printable char, multibyte included), and `{m,n}`
//!   repetition.

use crate::rand::{Rng, SeedableRng, SmallRng};
use std::fmt;
use std::rc::Rc;

mod pattern;

/// Generation context: the seeded PRNG plus the current shrink scale in
/// `(0, 1]` (1 = full size, smaller = simpler cases).
pub struct Gen<'a> {
    /// Source of randomness for this case.
    pub rng: &'a mut SmallRng,
    /// Shrink scale: multiplies widths/lengths/repeats.
    pub scale: f64,
}

impl Gen<'_> {
    /// Scale a width: `floor(w * scale)`, preserving 0.
    #[inline]
    pub fn scaled(&self, width: u64) -> u64 {
        (width as f64 * self.scale) as u64
    }
}

/// Outcome of a single property case body.
#[derive(Debug)]
pub enum TestCaseError {
    /// An assertion failed.
    Fail(String),
    /// A `prop_assume!` rejected the inputs; the case is re-drawn.
    Reject,
}

/// Result type produced by the body the [`proptest!`](crate::proptest!) macro generates.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Runner configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of passing cases required.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config requiring `cases` passing cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        let cases = std::env::var("LLMDM_PROPTEST_CASES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(64);
        ProptestConfig { cases }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use super::*;

    /// A generator of test-case values.
    pub trait Strategy {
        /// The generated value type.
        type Value;

        /// Draw one value at the context's scale.
        fn generate(&self, g: &mut Gen<'_>) -> Self::Value;

        /// Transform generated values (`proptest`-compatible name).
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        /// Recursive strategies: repeatedly apply `f` to deepen, mixing
        /// in the leaf at every level so generation bottoms out.
        /// `max_nodes`/`items_per_collection` are accepted for proptest
        /// signature compatibility; depth alone bounds recursion here.
        fn prop_recursive<S, F>(
            self,
            depth: u32,
            _max_nodes: u32,
            _items_per_collection: u32,
            f: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            S: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> S,
        {
            let leaf = self.boxed();
            let mut cur = leaf.clone();
            for _ in 0..depth {
                let deeper = f(cur).boxed();
                cur = OneOf::new(vec![leaf.clone(), deeper]).boxed();
            }
            cur
        }

        /// Type-erase into a cloneable boxed strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            let s = self;
            BoxedStrategy(Rc::new(move |g: &mut Gen<'_>| s.generate(g)))
        }
    }

    /// A cloneable, type-erased strategy.
    pub struct BoxedStrategy<T>(pub(crate) Rc<dyn Fn(&mut Gen<'_>) -> T>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, g: &mut Gen<'_>) -> T {
            (self.0)(g)
        }
    }

    /// Always produces a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _g: &mut Gen<'_>) -> T {
            self.0.clone()
        }
    }

    /// `prop_map` combinator.
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn generate(&self, g: &mut Gen<'_>) -> U {
            (self.f)(self.inner.generate(g))
        }
    }

    /// Uniform choice among boxed alternatives (`prop_oneof!`).
    pub struct OneOf<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> OneOf<T> {
        /// Build from non-empty alternatives.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one alternative");
            OneOf { options }
        }
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;
        fn generate(&self, g: &mut Gen<'_>) -> T {
            let i = g.rng.gen_index(self.options.len() as u64) as usize;
            self.options[i].generate(g)
        }
    }

    /// Function-pointer strategy backing [`any`].
    pub struct FnStrategy<T>(pub(crate) fn(&mut Gen<'_>) -> T);

    impl<T> Strategy for FnStrategy<T> {
        type Value = T;
        fn generate(&self, g: &mut Gen<'_>) -> T {
            (self.0)(g)
        }
    }

    // Numeric ranges are strategies, scaled toward their start.
    macro_rules! impl_int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, g: &mut Gen<'_>) -> $t {
                    assert!(self.start < self.end, "strategy range is empty");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    let draw = g.rng.gen_index(span);
                    let off = g.scaled(draw);
                    (self.start as i128 + off as i128) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, g: &mut Gen<'_>) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "strategy range is empty");
                    let span = (hi as i128 - lo as i128) as u64;
                    let draw = if span == u64::MAX {
                        g.rng.next_u64()
                    } else {
                        g.rng.gen_index(span + 1)
                    };
                    let off = g.scaled(draw);
                    (lo as i128 + off as i128) as $t
                }
            }
        )*};
    }

    impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_float_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, g: &mut Gen<'_>) -> $t {
                    assert!(self.start < self.end, "strategy range is empty");
                    let u = g.rng.gen_f64() * g.scale;
                    let v = self.start + u as $t * (self.end - self.start);
                    if v < self.end { v } else { self.start }
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, g: &mut Gen<'_>) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "strategy range is empty");
                    let u = g.rng.gen_f64() * g.scale;
                    lo + u as $t * (hi - lo)
                }
            }
        )*};
    }

    impl_float_range_strategy!(f32, f64);

    // Tuples of strategies generate tuples of values, left to right.
    macro_rules! impl_tuple_strategy {
        ($($name:ident : $idx:tt),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, g: &mut Gen<'_>) -> Self::Value {
                    ($(self.$idx.generate(g),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A: 0);
    impl_tuple_strategy!(A: 0, B: 1);
    impl_tuple_strategy!(A: 0, B: 1, C: 2);
    impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
    impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);
    impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

    // String patterns (regex-ish subset) are strategies.
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, g: &mut Gen<'_>) -> String {
            super::pattern::Pattern::parse(self).generate(g)
        }
    }

    /// Primitives with a full-domain default strategy ([`any`]).
    pub trait ArbPrim: Sized {
        /// Draw one unconstrained value.
        fn draw(g: &mut Gen<'_>) -> Self;
    }

    macro_rules! impl_arb_prim {
        ($($t:ty),*) => {$(
            impl ArbPrim for $t {
                fn draw(g: &mut Gen<'_>) -> $t {
                    g.rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arb_prim!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl ArbPrim for bool {
        fn draw(g: &mut Gen<'_>) -> bool {
            g.rng.next_u64() & 1 == 1
        }
    }

    impl ArbPrim for f64 {
        fn draw(g: &mut Gen<'_>) -> f64 {
            // Finite, sign-symmetric, wide dynamic range.
            let m = g.rng.gen_range(-1.0f64..1.0);
            let e = g.rng.gen_range(-60i32..60);
            m * (2f64).powi(e)
        }
    }

    impl ArbPrim for f32 {
        fn draw(g: &mut Gen<'_>) -> f32 {
            f64::draw(g) as f32
        }
    }

    /// The default full-domain strategy for a primitive
    /// (`any::<u64>()`, `any::<bool>()`, …).
    pub fn any<T: ArbPrim>() -> FnStrategy<T> {
        FnStrategy(T::draw)
    }
}

pub mod collection {
    //! Collection strategies (`proptest::collection::vec`).

    use super::strategy::Strategy;
    use super::Gen;

    /// Length specification: exact, `lo..hi`, or `lo..=hi`.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi_inclusive: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi_inclusive: r.end - 1 }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi_inclusive: *r.end() }
        }
    }

    /// Strategy for vectors of `element` with scaled length.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A vector whose elements come from `element` and whose length is
    /// drawn from `size` (scaled toward the minimum when shrinking).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, g: &mut Gen<'_>) -> Vec<S::Value> {
            use crate::rand::Rng;
            let span = (self.size.hi_inclusive - self.size.lo + 1) as u64;
            let draw = g.rng.gen_index(span);
            let len = self.size.lo + g.scaled(draw) as usize;
            (0..len).map(|_| self.element.generate(g)).collect()
        }
    }
}

pub mod option {
    //! Option strategies (`proptest::option::of`).

    use super::strategy::Strategy;
    use super::Gen;

    /// Strategy for `Option<V>`: `None` 1/4 of the time.
    pub struct OptionStrategy<S>(S);

    /// `Some(inner)` three times out of four, else `None`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, g: &mut Gen<'_>) -> Option<S::Value> {
            use crate::rand::Rng;
            if g.rng.gen_index(4) == 0 {
                None
            } else {
                Some(self.0.generate(g))
            }
        }
    }
}

/// Everything a property-test file needs in scope.
pub mod prelude {
    pub use super::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use super::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest};
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// Shrink scales tried after a failure, in order.
const SHRINK_SCALES: [f64; 6] = [0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625];

fn base_seed(name: &str) -> u64 {
    let env = std::env::var("LLMDM_PROPTEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5EED_CAFE_F00Du64);
    // Hash the property name in so sibling properties draw independent
    // streams.
    env ^ crate::hash::fnv1a_str(name)
}

enum Outcome {
    Pass,
    Reject,
    Fail(String),
}

fn run_one<S, F>(strat: &S, test: &F, seed: u64, scale: f64) -> (String, Outcome)
where
    S: strategy::Strategy,
    S::Value: fmt::Debug,
    F: Fn(S::Value) -> TestCaseResult,
{
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = Gen { rng: &mut rng, scale };
    let args = strat.generate(&mut g);
    let dbg = format!("{args:?}");
    let outcome = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| test(args))) {
        Ok(Ok(())) => Outcome::Pass,
        Ok(Err(TestCaseError::Reject)) => Outcome::Reject,
        Ok(Err(TestCaseError::Fail(msg))) => Outcome::Fail(msg),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic (non-string payload)".to_string());
            Outcome::Fail(format!("panic: {msg}"))
        }
    };
    (dbg, outcome)
}

/// Drive one property: draw cases until `config.cases` pass, shrinking
/// and panicking on the first failure. Called by the [`proptest!`](crate::proptest!)
/// macro; not intended for direct use.
pub fn run_property<S, F>(name: &str, config: &ProptestConfig, strat: &S, test: F)
where
    S: strategy::Strategy,
    S::Value: fmt::Debug,
    F: Fn(S::Value) -> TestCaseResult,
{
    let base = base_seed(name);
    let mut passed = 0u32;
    let mut attempts = 0u64;
    let max_attempts = config.cases as u64 * 16 + 64;
    while passed < config.cases {
        if attempts >= max_attempts {
            panic!(
                "property `{name}`: too many rejected cases \
                 ({passed}/{} passed after {attempts} attempts) — \
                 loosen `prop_assume!` conditions",
                config.cases
            );
        }
        let seed = base.wrapping_add(attempts);
        attempts += 1;
        let (dbg, outcome) = run_one(strat, &test, seed, 1.0);
        match outcome {
            Outcome::Pass => passed += 1,
            Outcome::Reject => continue,
            Outcome::Fail(msg) => {
                // Shrink: same seed, geometrically smaller scale; keep
                // the smallest scale that still fails.
                let mut minimal = (dbg, msg, 1.0f64);
                for &scale in &SHRINK_SCALES {
                    let (sdbg, soutcome) = run_one(strat, &test, seed, scale);
                    if let Outcome::Fail(smsg) = soutcome {
                        minimal = (sdbg, smsg, scale);
                    }
                }
                let (min_dbg, min_msg, min_scale) = minimal;
                panic!(
                    "property `{name}` failed after {passed} passing case(s)\n\
                     minimal failing input (seed={seed:#x}, scale={min_scale}):\n  \
                     {min_dbg}\ncause: {min_msg}\n\
                     (re-run deterministically with LLMDM_PROPTEST_SEED={})",
                    base_seed_env_value(base, attempts - 1)
                );
            }
        }
    }
}

/// The `LLMDM_PROPTEST_SEED` value that reproduces attempt `offset` as
/// the first attempt (accounting for the per-name mix).
fn base_seed_env_value(base: u64, offset: u64) -> u64 {
    // base = env ^ fnv(name); attempt seed = base + offset. Re-running
    // with env' = env + offset makes the failing seed the first drawn.
    base.wrapping_add(offset) ^ base ^ base_seed_env_raw()
}

fn base_seed_env_raw() -> u64 {
    std::env::var("LLMDM_PROPTEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5EED_CAFE_F00Du64)
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Define property tests. Mirrors `proptest::proptest!`:
///
/// ```ignore
/// llmdm_rt::proptest! {
///     #![proptest_config(ProptestConfig::with_cases(128))] // optional
///     #[test]
///     fn my_property(x in 0u32..100, s in "[a-z]{1,8}") {
///         prop_assert!(x < 100);
///         prop_assert_eq!(s.len(), s.len());
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { cfg = { $cfg }; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            cfg = { $crate::proptest::ProptestConfig::default() };
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (cfg = { $cfg:expr }; ) => {};
    (cfg = { $cfg:expr };
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::proptest::ProptestConfig = $cfg;
            let strat = ($($strat,)+);
            $crate::proptest::run_property(
                stringify!($name),
                &config,
                &strat,
                |($($arg,)+)| -> $crate::proptest::TestCaseResult {
                    { $body }
                    Ok(())
                },
            );
        }
        $crate::__proptest_items! { cfg = { $cfg }; $($rest)* }
    };
}

/// Property-scope assertion: fails the case (triggering shrinking)
/// instead of aborting the whole property.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::proptest::TestCaseError::Fail(
                concat!("assertion failed: ", stringify!($cond)).to_string(),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::proptest::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// `prop_assert!` for equality, printing both sides.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::proptest::TestCaseError::Fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::proptest::TestCaseError::Fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+), l, r
            )));
        }
    }};
}

/// `prop_assert!` for inequality, printing the shared value.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return Err($crate::proptest::TestCaseError::Fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($left), stringify!($right), l
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return Err($crate::proptest::TestCaseError::Fail(format!(
                "{}\n  both: {:?}",
                format!($($fmt)+), l
            )));
        }
    }};
}

/// Reject the current case (re-drawn with a fresh seed, not a failure).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::proptest::TestCaseError::Reject);
        }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::proptest::strategy::OneOf::new(vec![
            $($crate::proptest::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    crate::proptest! {
        #[test]
        fn ranges_respect_bounds(x in 3u32..17, y in -4i64..=4, f in 0.25f64..0.75) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-4..=4).contains(&y));
            prop_assert!((0.25..0.75).contains(&f));
        }

        #[test]
        fn vec_lengths_in_range(v in crate::proptest::collection::vec(0u8..=255, 2..6)) {
            prop_assert!((2..6).contains(&v.len()), "len {}", v.len());
        }

        #[test]
        fn pattern_matches_shape(s in "[a-z][a-z0-9_]{0,8}col") {
            prop_assert!(s.ends_with("col"));
            prop_assert!(s.len() >= 4 && s.len() <= 12, "len {}", s.len());
            prop_assert!(s.chars().next().unwrap().is_ascii_lowercase());
        }

        #[test]
        fn printable_pattern_has_no_controls(s in "\\PC{0,40}") {
            prop_assert!(s.chars().all(|c| !c.is_control()), "control char in {s:?}");
            prop_assert!(s.chars().count() <= 40);
        }

        #[test]
        fn assume_rejects_without_failing(x in 0u32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }

        #[test]
        fn oneof_and_map_compose(v in prop_oneof![
            Just(0usize),
            (1usize..5).prop_map(|x| x * 10),
        ]) {
            prop_assert!(v == 0 || (10..50).contains(&v));
        }
    }

    #[test]
    fn failing_property_panics_with_minimal_case() {
        let result = std::panic::catch_unwind(|| {
            super::run_property(
                "always_fails",
                &ProptestConfig::with_cases(8),
                &(0u32..100,),
                |(_x,)| -> TestCaseResult {
                    Err(TestCaseError::Fail("forced".into()))
                },
            );
        });
        let err = result.expect_err("property must fail");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("always_fails"), "{msg}");
        assert!(msg.contains("forced"), "{msg}");
        assert!(msg.contains("scale=0.015625"), "shrink did not reach min scale: {msg}");
    }

    #[test]
    fn over_rejection_is_reported() {
        let result = std::panic::catch_unwind(|| {
            super::run_property(
                "rejects_everything",
                &ProptestConfig::with_cases(4),
                &(0u32..100,),
                |(_x,)| -> TestCaseResult { Err(TestCaseError::Reject) },
            );
        });
        let err = result.expect_err("must give up");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("rejected"), "{msg}");
    }

    #[test]
    fn deterministic_generation() {
        use super::strategy::any;
        use crate::rand::{SeedableRng, SmallRng};
        let strat = (any::<u64>(), "[a-z]{3,9}");
        let mut draws = Vec::new();
        for _ in 0..2 {
            let mut rng = SmallRng::seed_from_u64(99);
            let mut g = super::Gen { rng: &mut rng, scale: 1.0 };
            draws.push(strat.generate(&mut g));
        }
        assert_eq!(draws[0], draws[1]);
    }
}
