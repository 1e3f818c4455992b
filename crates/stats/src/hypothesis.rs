//! The hypothesis test of the SAAD anomaly detector.
//!
//! The paper (§3.3.3) tests, per detection window, the null hypothesis
//! *"the proportion of outlier tasks is less than or equal to the training
//! proportion"* at significance level `0.001`.
//! [`one_sided_proportion_test`] is that test: an exact-parameter
//! one-sample test of a window proportion against a known training
//! proportion `p0`, using the normal approximation with a t-distributed
//! statistic for small windows (this is the "t-test" the paper describes
//! applied to 0/1 outcomes). When the approximation's validity rule fails
//! (`n·p0 < 5` or `n·(1−p0) < 5`) the p-value comes from the exact
//! binomial tail instead — the approximation is badly anticonservative
//! there (for `n = 12`, `p0 = 0.01`, two outliers score t ≈ 5.5,
//! "p ≈ 1e-4", while the exact tail is 0.006), which turns sparse stages
//! into false-positive fountains.

use crate::dist::{Normal, StudentT};
use crate::special::betai;

/// The paper's significance level for both flow and performance anomaly
/// tests.
pub const SAAD_ALPHA: f64 = 0.001;

/// Direction of the alternative hypothesis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Alternative {
    /// H1: parameter is greater than the reference.
    Greater,
    /// H1: parameter is less than the reference.
    Less,
    /// H1: parameter differs from the reference (two-sided).
    TwoSided,
}

/// Outcome of a hypothesis test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestResult {
    /// The test statistic (z or t depending on the test).
    pub statistic: f64,
    /// The p-value under the null hypothesis.
    pub p_value: f64,
    /// Degrees of freedom used (`f64::INFINITY` for pure z-tests).
    pub df: f64,
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

fn p_from_statistic(stat: f64, df: f64, alternative: Alternative) -> f64 {
    let upper = if df.is_finite() {
        StudentT::new(df).sf(stat)
    } else {
        Normal::standard().sf(stat)
    };
    match alternative {
        Alternative::Greater => upper,
        Alternative::Less => 1.0 - upper,
        Alternative::TwoSided => {
            let lower = 1.0 - upper;
            2.0 * upper.min(lower)
        }
    }
}

/// One-sample proportion test of `successes / n` against a reference
/// proportion `p0`.
///
/// This is the windowed anomaly test from the paper: `successes` is the
/// number of outlier tasks in the window, `n` the window task count, and
/// `p0` the outlier proportion observed during training. The statistic
/// `(p̂ − p0) / sqrt(p0 (1 − p0) / n)` is referred to a t-distribution with
/// `n − 1` degrees of freedom (matching the paper's description of a t-test;
/// for the window sizes SAAD uses this is nearly identical to the z-test).
///
/// When the classic approximation validity rule fails — `n·p0 < 5` or
/// `n·(1 − p0) < 5` — the p-value is the exact binomial tail instead
/// (via the regularized incomplete beta, `P(X ≥ x) = I_p0(x, n−x+1)`).
/// Low-rate groups such as a periodic health probe produce windows of a
/// dozen tasks with `p0 ≈ 0.01`; there the t-approximation overstates
/// significance by orders of magnitude and flags healthy hosts.
///
/// Degenerate guards: with `p0 == 0` any observed outlier is "infinitely"
/// significant — we report p-value 0 when `successes > 0` and 1 otherwise;
/// symmetrically for `p0 == 1`.
///
/// # Panics
///
/// Panics if `n == 0`, `successes > n`, or `p0` is outside `[0, 1]`.
pub fn one_sided_proportion_test(
    successes: u64,
    n: u64,
    p0: f64,
    alternative: Alternative,
) -> TestResult {
    assert!(n > 0, "proportion test requires n > 0");
    assert!(successes <= n, "successes ({successes}) exceeds n ({n})");
    assert!((0.0..=1.0).contains(&p0), "p0 must be in [0,1], got {p0}");
    let p_hat = successes as f64 / n as f64;
    if p0 == 0.0 || p0 == 1.0 {
        let exceeds = match alternative {
            Alternative::Greater => p_hat > p0,
            Alternative::Less => p_hat < p0,
            Alternative::TwoSided => p_hat != p0,
        };
        return TestResult {
            statistic: if exceeds { f64::INFINITY } else { 0.0 },
            p_value: if exceeds { 0.0 } else { 1.0 },
            df: (n - 1).max(1) as f64,
        };
    }
    let se = (p0 * (1.0 - p0) / n as f64).sqrt();
    let stat = (p_hat - p0) / se;
    let df = (n - 1).max(1) as f64;
    let nf = n as f64;
    let p_value = if nf * p0 < 5.0 || nf * (1.0 - p0) < 5.0 {
        let upper = binomial_sf(successes, n, p0);
        match alternative {
            Alternative::Greater => upper,
            Alternative::Less => 1.0 - binomial_sf(successes + 1, n, p0),
            Alternative::TwoSided => {
                let lower = 1.0 - binomial_sf(successes + 1, n, p0);
                (2.0 * upper.min(lower)).min(1.0)
            }
        }
    } else {
        p_from_statistic(stat, df, alternative)
    };
    TestResult {
        statistic: stat,
        p_value,
        df,
    }
}

/// Exact binomial upper tail `P(X ≥ x)` for `X ~ Binomial(n, p)`, via
/// `I_p(x, n − x + 1)`.
fn binomial_sf(x: u64, n: u64, p: f64) -> f64 {
    if x == 0 {
        return 1.0;
    }
    if x > n {
        return 0.0;
    }
    betai(x as f64, (n - x + 1) as f64, p)
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
    fn proportion_less_alternative() {
        let r = one_sided_proportion_test(0, 5000, 0.05, Alternative::Less);
        assert!(r.rejects(SAAD_ALPHA));
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
        // n·p0 = 0.12 < 5: the t-approximation would report p ≈ 1e-4 for
        // 2/12 outliers; the exact tail is scipy binom.sf(1, 12, 0.01)
        // = 0.0061755. Two outliers must NOT reject at SAAD_ALPHA.
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
        // Less-alternative with nothing observed under sparse p0:
        // P(X <= 0) = 0.99^12 = 0.8864.
        let r = one_sided_proportion_test(0, 12, 0.01, Alternative::Less);
        assert!((r.p_value - 0.8864).abs() < 1e-3, "p={}", r.p_value);
    }

    #[test]
    fn large_windows_keep_the_t_approximation() {
        // n·p0 = 10 ≥ 5: same p-value path as before the exact-tail guard.
        let r = one_sided_proportion_test(25, 1000, 0.01, Alternative::Greater);
        let expected = p_from_statistic(r.statistic, r.df, Alternative::Greater);
        assert_eq!(r.p_value, expected);
    }

    #[test]
    fn proportion_two_sided_doubles_tail() {
        let g = one_sided_proportion_test(30, 100, 0.2, Alternative::Greater);
        let t = one_sided_proportion_test(30, 100, 0.2, Alternative::TwoSided);
        assert!((t.p_value - 2.0 * g.p_value).abs() < 1e-12);
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
            let n = x + extra;
            for alt in [Alternative::Greater, Alternative::Less, Alternative::TwoSided] {
                let r = one_sided_proportion_test(x, n, p0, alt);
                prop_assert!((0.0..=1.0).contains(&r.p_value));
            }
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
