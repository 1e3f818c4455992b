//! Special functions: `ln Γ` and the regularized incomplete beta function.
//!
//! [`betai`] is the exact binomial tail behind
//! [`crate::hypothesis::one_sided_proportion_test`]. Both routines are pure,
//! allocation-free `f64` implementations accurate to better than `1e-8`
//! relative over the window sizes the analyzer sees (up to `10^6` tasks).

/// Maximum iterations for the incomplete-beta continued fraction. A
/// binomial tail near its mean needs `O(sqrt(n))` of them (404 at
/// `n = 10^6`, `p0 = 0.5`; 870 at `10^7`); far from the mean, a handful.
const MAX_ITER: usize = 1_000;
/// Convergence epsilon for iterative routines.
const EPS: f64 = 3.0e-14;
/// A number close to the smallest representable magnitude, used to guard
/// divisions inside the continued fraction.
const FPMIN: f64 = 1.0e-300;

/// Natural log of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Uses the Lanczos approximation (g = 7, n = 9) which is accurate to about
/// 15 significant digits over the positive reals.
///
/// # Panics
///
/// Panics if `x <= 0`.
///
/// # Example
///
/// ```
/// // Γ(5) = 24
/// let v = saad_stats::special::ln_gamma(5.0);
/// assert!((v - 24f64.ln()).abs() < 1e-12);
/// ```
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    // Lanczos coefficients for g = 7, n = 9.
    #[allow(clippy::excessive_precision)] // published coefficients, kept verbatim
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1−x) = π / sin(πx)
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized incomplete beta function `I_x(a, b)`.
///
/// Defined for `a > 0`, `b > 0`, `0 <= x <= 1`. Evaluated by the
/// Lentz-modified continued fraction, using the symmetry
/// `I_x(a,b) = 1 - I_{1-x}(b,a)` to pick the rapidly converging branch.
///
/// # Panics
///
/// Panics if `x` is outside `[0, 1]` or `a`/`b` are not positive.
///
/// # Example
///
/// ```
/// // I_0.5(2, 2) = 0.5 by symmetry.
/// let v = saad_stats::special::betai(2.0, 2.0, 0.5);
/// assert!((v - 0.5).abs() < 1e-12);
/// ```
pub fn betai(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "betai requires positive a, b");
    assert!(
        (0.0..=1.0).contains(&x),
        "betai requires x in [0,1], got {x}"
    );
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * betacf(a, b, x) / a
    } else {
        1.0 - front * betacf(b, a, 1.0 - x) / b
    }
}

/// Continued fraction for the incomplete beta function (Lentz's algorithm).
fn betacf(a: f64, b: f64, x: f64) -> f64 {
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            return h;
        }
    }
    // Did not fully converge (a, b beyond ~10^7): the partial result.
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n-1)!
        let mut fact = 1.0f64;
        for n in 1..15u32 {
            close(ln_gamma(n as f64), fact.ln(), 1e-10);
            fact *= n as f64;
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = sqrt(pi)
        close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-12);
    }

    #[test]
    fn ln_gamma_reflection_region() {
        // Γ(0.25) ≈ 3.6256099082219083
        close(ln_gamma(0.25), 3.625_609_908_221_908f64.ln(), 1e-10);
    }

    #[test]
    #[should_panic]
    fn ln_gamma_rejects_nonpositive() {
        ln_gamma(0.0);
    }

    #[test]
    fn betai_boundaries() {
        assert_eq!(betai(2.0, 3.0, 0.0), 0.0);
        assert_eq!(betai(2.0, 3.0, 1.0), 1.0);
    }

    #[test]
    fn betai_symmetry() {
        for &(a, b, x) in &[(2.0, 2.0, 0.5), (1.5, 3.5, 0.25), (10.0, 0.5, 0.8)] {
            close(betai(a, b, x), 1.0 - betai(b, a, 1.0 - x), 1e-12);
        }
    }

    #[test]
    fn betai_uniform_case() {
        // I_x(1, 1) = x.
        for i in 0..=10 {
            let x = i as f64 / 10.0;
            close(betai(1.0, 1.0, x), x, 1e-12);
        }
    }

    #[test]
    fn betai_reference_values() {
        // From scipy.special.betainc.
        close(betai(2.0, 3.0, 0.4), 0.5248, 1e-10);
        close(betai(5.0, 5.0, 0.3), 0.09880866, 1e-7);
        close(betai(0.5, 0.5, 0.5), 0.5, 1e-12);
    }

    #[test]
    #[should_panic]
    fn betai_rejects_x_out_of_range() {
        betai(1.0, 1.0, 1.5);
    }
}
