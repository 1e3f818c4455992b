//! The hypothesis test of the SAAD anomaly detector.
//!
//! The paper (§3.3.3) tests, per detection window, the null hypothesis
//! *"the proportion of outlier tasks is less than or equal to the training
//! proportion"* at significance level `0.001`.
//! [`one_sided_proportion_test`] is that test, computed exactly: the
//! p-value is the binomial upper tail `P(X ≥ x)` for `X ~ Binomial(n, p0)`,
//! so a healthy window is flagged with probability at most α at every `n`
//! and `p0`. The paper calls it a t-test; referring
//! `(p̂ − p0) / sqrt(p0 (1 − p0) / n)` to a Student-t instead flags healthy
//! windows up to five times too often at the window sizes SAAD sees
//! (5.2 α at `n = 500`, `p0 = 0.01`).

use crate::special::betai;

/// The paper's significance level for both flow and performance anomaly
/// tests.
pub const SAAD_ALPHA: f64 = 0.001;

/// Direction of the alternative hypothesis. SAAD asks only whether a
/// window holds *more* outliers than training did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Alternative {
    /// H1: parameter is greater than the reference.
    Greater,
}

/// Outcome of a hypothesis test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestResult {
    /// The p-value under the null hypothesis.
    pub p_value: f64,
}

impl TestResult {
    /// Whether the null hypothesis is rejected at level `alpha`.
    ///
    /// # Example
    ///
    /// ```
    /// use saad_stats::hypothesis::{one_sided_proportion_test, Alternative, SAAD_ALPHA};
    /// let r = one_sided_proportion_test(50, 100, 0.01, Alternative::Greater);
    /// assert!(r.rejects(SAAD_ALPHA));
    /// ```
    pub fn rejects(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// One-sample proportion test of `successes / n` against a reference
/// proportion `p0`.
///
/// This is the windowed anomaly test from the paper: `successes` is the
/// number of outlier tasks in the window, `n` the window task count, and
/// `p0` the outlier proportion observed during training. The p-value is
/// the exact binomial tail `P(X ≥ successes) = I_p0(successes, n −
/// successes + 1)`, the regularized incomplete beta [`betai`]. No
/// outliers give 1; the incomplete beta's own boundaries give 0 for any
/// outlier under `p0 == 0` and 1 under `p0 == 1`. `Greater` is the only
/// alternative.
///
/// # Panics
///
/// Panics if `n == 0`, `successes > n`, or `p0` is outside `[0, 1]`
/// (NaN included).
pub fn one_sided_proportion_test(
    successes: u64,
    n: u64,
    p0: f64,
    _alternative: Alternative,
) -> TestResult {
    assert!(n > 0, "proportion test requires n > 0");
    assert!(successes <= n, "successes ({successes}) exceeds n ({n})");
    assert!((0.0..=1.0).contains(&p0), "p0 must be in [0,1], got {p0}");
    let p_value = if successes == 0 {
        1.0
    } else {
        betai(successes as f64, (n - successes + 1) as f64, p0)
    };
    TestResult { p_value }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn proportion_at_null_is_insignificant() {
        // Exactly the training rate: p-value ~0.5.
        let r = one_sided_proportion_test(10, 1000, 0.01, Alternative::Greater);
        assert!(r.p_value > 0.4);
        assert!(!r.rejects(SAAD_ALPHA));
    }

    #[test]
    fn proportion_far_above_null_rejects() {
        let r = one_sided_proportion_test(100, 1000, 0.01, Alternative::Greater);
        assert!(r.rejects(SAAD_ALPHA), "p={}", r.p_value);
    }

    #[test]
    fn proportion_below_null_never_rejects_greater() {
        let r = one_sided_proportion_test(0, 1000, 0.01, Alternative::Greater);
        assert!(r.p_value > 0.5);
    }

    #[test]
    fn proportion_zero_null_any_outlier_rejects() {
        let r = one_sided_proportion_test(1, 10, 0.0, Alternative::Greater);
        assert_eq!(r.p_value, 0.0);
        let r = one_sided_proportion_test(0, 10, 0.0, Alternative::Greater);
        assert_eq!(r.p_value, 1.0);
    }

    #[test]
    fn sparse_window_uses_exact_binomial_tail() {
        // The exact tail is scipy binom.sf(1, 12, 0.01) = 0.0061755. Two
        // outliers in 12 must NOT reject at SAAD_ALPHA.
        let r = one_sided_proportion_test(2, 12, 0.01, Alternative::Greater);
        assert!((r.p_value - 0.0061755).abs() < 1e-5, "p={}", r.p_value);
        assert!(!r.rejects(SAAD_ALPHA));
        // Three outliers is exact-tail significant:
        // scipy binom.sf(2, 12, 0.01) = 0.0002060.
        let r = one_sided_proportion_test(3, 12, 0.01, Alternative::Greater);
        assert!((r.p_value - 0.0002060).abs() < 1e-5, "p={}", r.p_value);
        assert!(r.rejects(SAAD_ALPHA));
    }

    #[test]
    fn exact_tail_edges_are_total() {
        // Zero successes: upper tail is the whole space.
        let r = one_sided_proportion_test(0, 12, 0.01, Alternative::Greater);
        assert_eq!(r.p_value, 1.0);
        // All successes under a tiny p0: essentially impossible.
        let r = one_sided_proportion_test(12, 12, 0.01, Alternative::Greater);
        assert!(r.p_value < 1e-20);
    }

    #[test]
    #[should_panic]
    fn proportion_rejects_empty_window() {
        one_sided_proportion_test(0, 0, 0.5, Alternative::Greater);
    }

    #[test]
    #[should_panic]
    fn proportion_rejects_successes_over_n() {
        one_sided_proportion_test(5, 4, 0.5, Alternative::Greater);
    }

    proptest! {
        #[test]
        fn p_values_are_probabilities(
            x in 0u64..500,
            extra in 1u64..500,
            p0 in 0.001f64..0.999,
        ) {
            let r = one_sided_proportion_test(x, x + extra, p0, Alternative::Greater);
            prop_assert!((0.0..=1.0).contains(&r.p_value));
        }

        #[test]
        fn more_successes_is_more_significant(
            n in 100u64..1000,
            p0 in 0.01f64..0.5,
        ) {
            let low = (n as f64 * p0) as u64;
            let high = (low + n / 4).min(n);
            prop_assume!(high > low);
            let r_low = one_sided_proportion_test(low, n, p0, Alternative::Greater);
            let r_high = one_sided_proportion_test(high, n, p0, Alternative::Greater);
            prop_assert!(r_high.p_value <= r_low.p_value + 1e-12);
        }
    }
}
