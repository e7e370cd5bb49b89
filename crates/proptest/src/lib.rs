//! Offline stand-in for [proptest](https://github.com/proptest-rs/proptest).
//!
//! The workspace builds without network access, so the real `proptest`
//! crate cannot be vendored; this crate implements the subset of its API
//! the five `proptests.rs` suites use, with real generation and shrinking
//! behind it:
//!
//! * the [`proptest!`] macro surface (`#![proptest_config(..)]` headers,
//!   `arg in strategy` parameters, `prop_assert!`/`prop_assert_eq!`
//!   bodies),
//! * composable [`Strategy`] generators: integer/float ranges, [`any`],
//!   [`Just`], tuples, `prop_oneof!` (weighted unions), `prop_map`,
//!   `prop_filter`, `prop_recursive`, [`collection::vec`],
//!   [`collection::btree_map`], and regex-like string patterns
//!   (`"[a-z]{1,6}"`),
//! * **integrated shrinking**: values are a pure function of a recorded
//!   `u64` draw sequence (seeded by the same splitmix64 the rest of the
//!   workspace uses), so a failing case is minimized by shrinking the
//!   draws and replaying — mapped and filtered strategies shrink for free,
//!   and the reported counterexample is always a value the strategy could
//!   have generated,
//! * **deterministic replay**: every failure report prints the
//!   `QRE_PROPTEST_SEED` value that reproduces the run; set
//!   `QRE_PROPTEST_CASES` to scale every suite's case count (soak runs in
//!   CI, quick runs locally).
//!
//! The library target is named `proptest`, so consuming crates keep their
//! upstream-compatible `use proptest::prelude::*;` imports.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod collection;
mod macros;
mod pattern;
mod runner;
mod source;
mod strategy;

pub use runner::{
    run_internal, run_proptest, Failure, ProptestConfig, RunReport, CASES_ENV, SEED_ENV,
};
pub use source::{splitmix64, Source};
pub use strategy::{
    any, Any, Arbitrary, BoxedStrategy, Filter, Just, Map, NewValue, Rejection, Strategy, Union,
};

/// Why a test case did not pass: a failed assertion (shrunk and reported)
/// or a rejected generation (retried).
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// An assertion failed; the message carries the details.
    Fail(String),
    /// A strategy could not produce a value (filter exhaustion); the case
    /// is retried with fresh draws.
    Reject(String),
}

impl TestCaseError {
    /// Build a failure with the given message.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError::Fail(message.into())
    }

    /// Build a rejection with the given reason.
    pub fn reject(reason: impl Into<String>) -> Self {
        TestCaseError::Reject(reason.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "test case failed: {m}"),
            TestCaseError::Reject(r) => write!(f, "test case rejected: {r}"),
        }
    }
}

/// Everything a property-test module needs (mirrors `proptest::prelude`).
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
    };

    /// Mirror of upstream's `prelude::prop` module path
    /// (`prop::collection::vec(..)`).
    pub mod prop {
        pub use crate::collection;
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The macro surface end-to-end: multiple args, tuples, maps.
        #[test]
        fn macro_generates_and_asserts(
            a in 0u64..100,
            b in any::<bool>(),
            pair in (0u8..10, 0u8..10).prop_map(|(x, y)| (y, x)),
        ) {
            prop_assert!(a < 100);
            if b {
                return Ok(());
            }
            prop_assert_eq!(pair.0 as u64 + pair.1 as u64, pair.1 as u64 + pair.0 as u64);
            prop_assert_ne!(a + 1, 0);
        }

        /// Strategies compose across the whole combinator set.
        #[test]
        fn combinators_compose(
            v in prop::collection::vec(prop_oneof![Just(1u8), Just(2u8)], 0..8),
            s in "[a-c]{0,4}",
        ) {
            prop_assert!(v.iter().all(|&e| e == 1 || e == 2));
            prop_assert!(s.len() <= 4);
        }
    }

    /// A deliberately failing property, driven through the internal runner:
    /// the counterexample must be shrunk to the boundary and carry the
    /// generated inputs in its message.
    #[test]
    fn failing_property_reports_shrunk_inputs() {
        let config = ProptestConfig::with_cases(256);
        let report = crate::run_internal(&config, "doc::boundary", 7, &|src| {
            let n = crate::Strategy::generate(&(0u64..100_000), src)
                .map_err(|r| TestCaseError::Reject(r.0))?;
            let inputs = format!("  n = {n:?}\n");
            let outcome = (move || -> Result<(), TestCaseError> {
                prop_assert!(n < 777, "n = {n}");
                Ok(())
            })();
            match outcome {
                Err(TestCaseError::Fail(m)) => {
                    Err(TestCaseError::Fail(format!("{m}\nwith inputs:\n{inputs}")))
                }
                other => other,
            }
        });
        let failure = report.failure.expect("the property must fail");
        assert!(failure.message.contains("n = 777"), "{}", failure.message);
        assert!(
            failure.message.contains("with inputs"),
            "{}",
            failure.message
        );
    }
}
