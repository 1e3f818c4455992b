//! Harness arithmetic: medians, quartiles and tail percentiles.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the driver that
//! judges this benchmark computes its spreads with.

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` gives them. With fewer than two
/// values all three are the single value.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "quartiles of nothing");
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the driver compares with a metric's bound.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Nearest-rank percentile `p` (0–100) of an already sorted slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it in a sample of `n` — the "ten samples beyond" rule:
/// a p99 of 200 samples rests on two values and is not reported.
pub fn highest_supported_percentile(n: usize) -> f64 {
    // In tenths of a percent, so that the count beyond is exact.
    const LADDER: [usize; 6] = [999, 990, 980, 950, 900, 750];
    for p in LADDER {
        if n * (1000 - p) >= 10 * 1000 {
            return p as f64 / 10.0;
        }
    }
    50.0
}

/// `p` if the sample supports it under the ten-samples-beyond rule,
/// otherwise the highest percentile that it does support.
pub fn supported_percentile(n: usize, p: f64) -> f64 {
    p.min(highest_supported_percentile(n))
}

/// Sorted copy; NaNs are a harness bug.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in measurements"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1,2,3,4,5,6,7], n=4) == [2.0, 4.0, 6.0]
        let v: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.0, 4.0, 6.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 20.0, 40.0));
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(relative_spread(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 95.0), 95.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // 180 samples: p95 leaves 9 beyond, p90 leaves 18.
        assert_eq!(highest_supported_percentile(180), 90.0);
        assert_eq!(highest_supported_percentile(200), 95.0);
        assert_eq!(highest_supported_percentile(1_000), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
        assert_eq!(highest_supported_percentile(12), 50.0);
        assert_eq!(supported_percentile(180, 95.0), 90.0);
        assert_eq!(supported_percentile(5_000, 95.0), 95.0);
    }
}
