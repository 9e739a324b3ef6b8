//! Offline shim for the `proptest` crate.
//!
//! Implements the subset of the proptest 1.x API the workspace's
//! property tests use: the [`Strategy`] trait with `prop_map` /
//! `prop_filter` / `prop_recursive`, range and regex-literal strategies,
//! `collection::vec`, `option::of`, `char::range`, [`Just`], unions via
//! `prop_oneof!`, and the `proptest!` test macro with
//! `prop_assert*`/`prop_assume!`.
//!
//! Differences from real proptest, deliberate for an offline test shim:
//!
//! * **No shrinking** — a failing case reports its exact inputs and the
//!   deterministic case seed instead of a minimized one.
//! * **Deterministic by default** — cases derive from a fixed seed, so
//!   CI runs are reproducible; set `PROPTEST_SEED` to explore other
//!   schedules.
//! * Regex strategies support the subset actually used: literals,
//!   character classes (with ranges), `.`, and `{n}`/`{n,m}`/`*`/`+`/`?`
//!   quantifiers.

use std::fmt;
use std::sync::Arc;

/// The seeded generator handed to strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Construct from a seed.
    pub fn new(seed: u64) -> TestRng {
        TestRng {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Next 64 random bits (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A generator of test values.
pub trait Strategy {
    /// The type of generated values.
    type Value: fmt::Debug;

    /// Generate one value.
    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<U: fmt::Debug, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Discard values failing a predicate (resamples; panics if the
    /// filter rejects persistently).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        reason: impl Into<String>,
        f: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter {
            inner: self,
            reason: reason.into(),
            f,
        }
    }

    /// Build recursive structures: `recurse` receives a strategy for the
    /// nested level and returns the branching level. `depth` bounds the
    /// recursion; the size/branch hints of real proptest are accepted
    /// and ignored.
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let leaf = self.boxed();
        let mut strat = leaf.clone();
        for _ in 0..depth {
            let branch = recurse(strat).boxed();
            strat = Union::weighted(vec![(1, leaf.clone()), (2, branch)]).boxed();
        }
        strat
    }

    /// Type-erase the strategy (cloneable).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        BoxedStrategy(Arc::new(self))
    }
}

/// Object-safe strategy surface backing [`BoxedStrategy`].
trait DynStrategy<T> {
    fn new_value_dyn(&self, rng: &mut TestRng) -> T;
}

impl<S> DynStrategy<S::Value> for S
where
    S: Strategy,
{
    fn new_value_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.new_value(rng)
    }
}

/// A cloneable, type-erased strategy.
pub struct BoxedStrategy<T>(Arc<dyn DynStrategy<T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> BoxedStrategy<T> {
        BoxedStrategy(self.0.clone())
    }
}

impl<T: fmt::Debug + 'static> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        self.0.new_value_dyn(rng)
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + fmt::Debug>(pub T);

impl<T: Clone + fmt::Debug> Strategy for Just<T> {
    type Value = T;
    fn new_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U: fmt::Debug, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn new_value(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.new_value(rng))
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    reason: String,
    f: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn new_value(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.new_value(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!("prop_filter {:?} rejected 1000 consecutive samples", self.reason);
    }
}

/// Choice between boxed strategies, optionally weighted (the engine
/// behind `prop_oneof!`).
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
    total: u32,
}

impl<T: fmt::Debug + 'static> Union<T> {
    /// Uniform choice.
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Union<T> {
        Union::weighted(arms.into_iter().map(|a| (1, a)).collect())
    }

    /// Weighted choice.
    pub fn weighted(arms: Vec<(u32, BoxedStrategy<T>)>) -> Union<T> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        let total = arms.iter().map(|(w, _)| *w).sum::<u32>().max(1);
        Union { arms, total }
    }
}

impl<T: fmt::Debug + 'static> Strategy for Union<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.below(self.total as u64) as u32;
        for (w, arm) in &self.arms {
            if pick < *w {
                return arm.new_value(rng);
            }
            pick -= w;
        }
        self.arms.last().expect("arms").1.new_value(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let offset = (rng.next_u64() as u128) % span;
                (self.start as i128 + offset as i128) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = (end as i128 - start as i128) as u128 + 1;
                let offset = (rng.next_u64() as u128) % span;
                (start as i128 + offset as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn new_value(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        let v = self.start + (self.end - self.start) * rng.unit_f64();
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.new_value(rng),)+)
            }
        }
    };
}

tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);

/// Regex-literal strategies (subset: literals, classes, `.`, and
/// `{n}`/`{n,m}`/`*`/`+`/`?` quantifiers).
impl Strategy for &'static str {
    type Value = String;
    fn new_value(&self, rng: &mut TestRng) -> String {
        string::generate_from_pattern(self, rng)
    }
}

mod string {
    use super::TestRng;

    enum Atom {
        Literal(char),
        Class(Vec<(char, char)>),
        Any,
    }

    pub(crate) fn generate_from_pattern(pattern: &str, rng: &mut TestRng) -> String {
        let chars: Vec<char> = pattern.chars().collect();
        let mut out = String::new();
        let mut i = 0;
        while i < chars.len() {
            let atom = match chars[i] {
                '[' => {
                    let close = chars[i..]
                        .iter()
                        .position(|&c| c == ']')
                        .map(|p| i + p)
                        .unwrap_or_else(|| panic!("unclosed class in regex {pattern:?}"));
                    let members = &chars[i + 1..close];
                    i = close + 1;
                    Atom::Class(parse_class(members, pattern))
                }
                '.' => {
                    i += 1;
                    Atom::Any
                }
                '\\' => {
                    i += 1;
                    let c = *chars.get(i).unwrap_or_else(|| {
                        panic!("dangling escape in regex {pattern:?}")
                    });
                    i += 1;
                    Atom::Literal(c)
                }
                c => {
                    i += 1;
                    Atom::Literal(c)
                }
            };
            let (lo, hi) = parse_quantifier(&chars, &mut i, pattern);
            let count = lo + rng.below((hi - lo + 1) as u64) as usize;
            for _ in 0..count {
                out.push(sample_atom(&atom, rng));
            }
        }
        out
    }

    fn parse_class(members: &[char], pattern: &str) -> Vec<(char, char)> {
        assert!(!members.is_empty(), "empty class in regex {pattern:?}");
        let mut ranges = Vec::new();
        let mut i = 0;
        while i < members.len() {
            if i + 2 < members.len() + 1 && members.get(i + 1) == Some(&'-') && i + 2 < members.len()
            {
                ranges.push((members[i], members[i + 2]));
                i += 3;
            } else {
                ranges.push((members[i], members[i]));
                i += 1;
            }
        }
        ranges
    }

    fn parse_quantifier(chars: &[char], i: &mut usize, pattern: &str) -> (usize, usize) {
        match chars.get(*i) {
            Some('{') => {
                let close = chars[*i..]
                    .iter()
                    .position(|&c| c == '}')
                    .map(|p| *i + p)
                    .unwrap_or_else(|| panic!("unclosed quantifier in regex {pattern:?}"));
                let body: String = chars[*i + 1..close].iter().collect();
                *i = close + 1;
                match body.split_once(',') {
                    Some((lo, hi)) => (
                        lo.trim().parse().expect("quantifier lower bound"),
                        hi.trim().parse().expect("quantifier upper bound"),
                    ),
                    None => {
                        let n = body.trim().parse().expect("quantifier count");
                        (n, n)
                    }
                }
            }
            Some('*') => {
                *i += 1;
                (0, 8)
            }
            Some('+') => {
                *i += 1;
                (1, 8)
            }
            Some('?') => {
                *i += 1;
                (0, 1)
            }
            _ => (1, 1),
        }
    }

    fn sample_atom(atom: &Atom, rng: &mut TestRng) -> char {
        match atom {
            Atom::Literal(c) => *c,
            Atom::Any => char::from_u32(rng.below(95) as u32 + 0x20).expect("printable"),
            Atom::Class(ranges) => {
                let total: u64 = ranges
                    .iter()
                    .map(|(lo, hi)| (*hi as u64).saturating_sub(*lo as u64) + 1)
                    .sum();
                let mut pick = rng.below(total);
                for (lo, hi) in ranges {
                    let span = (*hi as u64) - (*lo as u64) + 1;
                    if pick < span {
                        return char::from_u32(*lo as u32 + pick as u32).expect("class char");
                    }
                    pick -= span;
                }
                ranges[0].0
            }
        }
    }
}

/// `any::<T>()` support.
pub mod arbitrary {
    use super::{BoxedStrategy, Strategy, TestRng};
    use std::fmt;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: fmt::Debug + Sized + 'static {
        /// Produce the canonical strategy.
        fn arbitrary() -> BoxedStrategy<Self>;
    }

    struct FullDomain<T>(fn(&mut TestRng) -> T);

    impl<T: fmt::Debug + 'static> Strategy for FullDomain<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary() -> BoxedStrategy<$t> {
                    FullDomain(|rng: &mut TestRng| rng.next_u64() as $t).boxed()
                }
            }
        )*};
    }

    arbitrary_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    impl Arbitrary for bool {
        fn arbitrary() -> BoxedStrategy<bool> {
            FullDomain(|rng: &mut TestRng| rng.next_u64() & 1 == 1).boxed()
        }
    }

    impl Arbitrary for char {
        fn arbitrary() -> BoxedStrategy<char> {
            FullDomain(|rng: &mut TestRng| {
                char::from_u32(rng.below(0xD800) as u32).unwrap_or('a')
            })
            .boxed()
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary() -> BoxedStrategy<f64> {
            FullDomain(|rng: &mut TestRng| {
                // Finite floats across a wide magnitude range.
                let mag = rng.unit_f64() * 600.0 - 300.0;
                let sign = if rng.next_u64() & 1 == 1 { -1.0 } else { 1.0 };
                sign * mag.exp2() * rng.unit_f64()
            })
            .boxed()
        }
    }
}

/// The canonical strategy for `T`.
pub fn any<T: arbitrary::Arbitrary>() -> BoxedStrategy<T> {
    T::arbitrary()
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::fmt;
    use std::ops::{Range, RangeInclusive};

    /// Inclusive-lower, exclusive-upper element-count range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> SizeRange {
            SizeRange { lo: *r.start(), hi: *r.end() + 1 }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// A strategy for vectors whose length falls in `size` and whose
    /// elements come from `elem`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { elem, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: fmt::Debug,
    {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.elem.new_value(rng)).collect()
        }
    }
}

/// `Option` strategies.
pub mod option {
    use super::{Strategy, TestRng};

    /// See [`of`].
    pub struct OptionStrategy<S>(S);

    /// `None` roughly a quarter of the time, `Some(inner)` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.0.new_value(rng))
            }
        }
    }
}

/// `char` strategies.
pub mod char {
    use super::{Strategy, TestRng};

    /// See [`range`].
    pub struct CharRange(char, char);

    /// Uniform char in `[lo, hi]`.
    pub fn range(lo: char, hi: char) -> CharRange {
        assert!(lo <= hi, "empty char range");
        CharRange(lo, hi)
    }

    impl Strategy for CharRange {
        type Value = char;
        fn new_value(&self, rng: &mut TestRng) -> char {
            let span = self.1 as u64 - self.0 as u64 + 1;
            char::from_u32(self.0 as u32 + rng.below(span) as u32).expect("char in range")
        }
    }
}

/// The case runner behind the `proptest!` macro.
pub mod test_runner {
    use super::TestRng;

    /// Per-block configuration.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of cases to run.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 64 }
        }
    }

    impl ProptestConfig {
        /// Config running `cases` cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    /// Why a single case did not pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// The case failed an assertion.
        Fail(String),
        /// The case asked to be discarded (`prop_assume!`).
        Reject(String),
    }

    impl TestCaseError {
        /// A failure with the given message.
        pub fn fail(msg: impl Into<String>) -> TestCaseError {
            TestCaseError::Fail(msg.into())
        }

        /// A discard with the given reason.
        pub fn reject(msg: impl Into<String>) -> TestCaseError {
            TestCaseError::Reject(msg.into())
        }
    }

    /// Outcome of one generated case, produced by the macro expansion.
    pub struct CaseResult {
        /// Debug rendering of the generated inputs.
        pub repr: String,
        /// Body outcome: panic payload, rejection, or pass/fail.
        pub outcome: std::thread::Result<Result<(), TestCaseError>>,
    }

    /// Base seed: fixed for reproducible CI, overridable for exploration.
    fn base_seed() -> u64 {
        std::env::var("PROPTEST_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x00C0_FFEE_5EED_1234)
    }

    /// Run `config.cases` generated cases of `case`.
    pub fn run_cases(
        config: &ProptestConfig,
        name: &str,
        mut case: impl FnMut(&mut TestRng) -> CaseResult,
    ) {
        let base = base_seed();
        let mut rejects = 0u64;
        let mut ran = 0u64;
        let mut stream = 0u64;
        while ran < config.cases as u64 {
            let mut rng = TestRng::new(base ^ (stream.wrapping_mul(0x2545_F491_4F6C_DD1D)));
            stream += 1;
            let result = case(&mut rng);
            match result.outcome {
                Ok(Ok(())) => ran += 1,
                Ok(Err(TestCaseError::Reject(_))) => {
                    rejects += 1;
                    if rejects > 20 * config.cases as u64 {
                        panic!(
                            "proptest {name}: too many prop_assume! rejections \
                             ({rejects} rejects for {ran} accepted cases)"
                        );
                    }
                }
                Ok(Err(TestCaseError::Fail(msg))) => {
                    panic!(
                        "proptest {name} failed (case {stream}, PROPTEST_SEED={base}):\n  \
                         inputs: {}\n  {msg}",
                        result.repr
                    );
                }
                Err(payload) => {
                    eprintln!(
                        "proptest {name} panicked (case {stream}, PROPTEST_SEED={base}):\n  \
                         inputs: {}",
                        result.repr
                    );
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }
}

/// One-stop imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::arbitrary::Arbitrary;
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{any, BoxedStrategy, Just, Strategy, TestRng, Union};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest};
}

/// Define property tests. See crate docs for supported forms.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!{ $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!{ $crate::test_runner::ProptestConfig::default(); $($rest)* }
    };
}

/// Internal: expands each `fn` item inside `proptest!`.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ($cfg:expr;) => {};
    ($cfg:expr;
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config = $cfg;
            $crate::test_runner::run_cases(&__config, stringify!($name), |__rng| {
                $(let $arg = $crate::Strategy::new_value(&($strat), __rng);)+
                let mut __repr = String::new();
                $(
                    __repr.push_str(concat!(stringify!($arg), " = "));
                    __repr.push_str(&format!("{:?}; ", &$arg));
                )+
                let __outcome = ::std::panic::catch_unwind(
                    ::std::panic::AssertUnwindSafe(move || {
                        let __ret: ::std::result::Result<
                            (),
                            $crate::test_runner::TestCaseError,
                        > = (|| {
                            $body
                            #[allow(unreachable_code)]
                            Ok(())
                        })();
                        __ret
                    }),
                );
                $crate::test_runner::CaseResult { repr: __repr, outcome: __outcome }
            });
        }
        $crate::__proptest_items!{ $cfg; $($rest)* }
    };
}

/// Choose between several strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::Union::weighted(vec![
            $(($weight as u32, $crate::Strategy::boxed($strat)),)+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strat),)+])
    };
}

/// Assert inside a property test (reports generated inputs on failure).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Assert equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(
            *__a == *__b,
            "assertion failed: {:?} != {:?}", __a, __b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(
            *__a == *__b,
            "assertion failed: {:?} != {:?}: {}", __a, __b, format!($($fmt)*)
        );
    }};
}

/// Assert inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(
            *__a != *__b,
            "assertion failed: {:?} == {:?}", __a, __b
        );
    }};
}

/// Discard the current case unless a precondition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn regex_subset_generates_matching_strings() {
        let mut rng = crate::TestRng::new(9);
        for _ in 0..200 {
            let s = crate::Strategy::new_value(&"[a-zA-Z][a-zA-Z0-9_-]{0,8}", &mut rng);
            assert!(!s.is_empty() && s.len() <= 9, "{s:?}");
            assert!(s.chars().next().unwrap().is_ascii_alphabetic(), "{s:?}");
            assert!(
                s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-'),
                "{s:?}"
            );
            let t = crate::Strategy::new_value(&"[ -~]{0,20}", &mut rng);
            assert!(t.len() <= 20 && t.chars().all(|c| (' '..='~').contains(&c)), "{t:?}");
        }
    }

    #[test]
    fn deterministic_generation() {
        let strat = crate::collection::vec(0u32..100, 1..10);
        let a: Vec<Vec<u32>> = (0..10)
            .map(|i| crate::Strategy::new_value(&strat, &mut crate::TestRng::new(i)))
            .collect();
        let b: Vec<Vec<u32>> = (0..10)
            .map(|i| crate::Strategy::new_value(&strat, &mut crate::TestRng::new(i)))
            .collect();
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_binds_and_asserts(x in -50i64..50, ys in crate::collection::vec(0u32..10, 0..5)) {
            prop_assume!(x != -50);
            prop_assert!((-49..50).contains(&x));
            prop_assert_eq!(ys.len(), ys.iter().filter(|y| **y < 10).count());
        }

        #[test]
        fn oneof_and_recursive_work(v in nested_strategy()) {
            prop_assert!(depth_of(&v) <= 4, "depth {}", depth_of(&v));
        }
    }

    #[derive(Debug, Clone)]
    enum Nested {
        Leaf,
        Node(Vec<Nested>),
    }

    fn nested_strategy() -> BoxedStrategy<Nested> {
        let leaf = prop_oneof![(-5i64..5).prop_map(|_| Nested::Leaf), Just(Nested::Leaf)];
        leaf.prop_recursive(3, 16, 3, |inner| {
            crate::collection::vec(inner, 0..3).prop_map(Nested::Node)
        })
    }

    fn depth_of(n: &Nested) -> usize {
        match n {
            Nested::Leaf => 1,
            Nested::Node(children) => {
                1 + children.iter().map(depth_of).max().unwrap_or(0)
            }
        }
    }
}
