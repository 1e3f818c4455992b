//! Empirical quantiles and cumulative shares.
//!
//! SAAD's outlier model is built almost entirely out of percentiles: the
//! flow-outlier cutoff is a percentile *rank* over signature frequencies and
//! the performance-outlier threshold is the 99th percentile of per-signature
//! durations (paper §3.3.2). Durations are integer µs, so that threshold is
//! [`floor_percentile_by`]: an integer, and no sample is NaN.

/// Empirical percentile with linear interpolation between order statistics
/// (the "linear" / type-7 method used by R's default `quantile`).
///
/// `p` is in percent, `0.0..=100.0`. The input slice does **not** need to be
/// sorted; a sorted copy is made internally. Returns `None` on an empty
/// slice.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]` or any value is NaN.
///
/// # Example
///
/// ```
/// let xs = [15.0, 20.0, 35.0, 40.0, 50.0];
/// assert_eq!(saad_stats::percentile(&xs, 50.0), Some(35.0));
/// assert_eq!(saad_stats::percentile(&xs, 100.0), Some(50.0));
/// ```
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    assert!(
        (0.0..=100.0).contains(&p),
        "percentile requires p in [0,100], got {p}"
    );
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    Some(percentile_of_sorted(&sorted, p))
}

/// Same as [`percentile`] but assumes `sorted` is already ascending, avoiding
/// the copy. Useful when many quantiles are read from the same data.
///
/// # Panics
///
/// Panics on an empty slice or `p` outside `[0, 100]`.
pub fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    interpolate(sorted.len(), p, |i| sorted[i])
}

/// [`percentile_of_sorted`] of `len` ascending integer samples (durations
/// in µs), read as `f64`, floored. `at(i)` is the `i`-th smallest; it is
/// asked for at most two ranks, so the samples need not be one slice. For
/// an integer `d`, `d > t` holds exactly when `d > ⌊t⌋`, so the floor
/// keeps every strict compare of a sample.
///
/// # Panics
///
/// Panics when `len` is 0 or `p` is outside `[0, 100]`.
///
/// # Example
///
/// ```
/// let us = [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10];
/// // R's type 7 gives 9.91.
/// assert_eq!(saad_stats::quantile::floor_percentile_by(10, 99.0, |i| us[i]), 9);
/// ```
pub fn floor_percentile_by(len: usize, p: f64, at: impl Fn(usize) -> u64) -> u64 {
    interpolate(len, p, |i| at(i) as f64).floor() as u64
}

/// Type-7 interpolation between the order statistics `at(lo)` and
/// `at(hi)` of `len` ascending samples.
fn interpolate(len: usize, p: f64, at: impl Fn(usize) -> f64) -> f64 {
    assert!(len > 0, "percentile_of_sorted requires data");
    assert!((0.0..=100.0).contains(&p));
    if len == 1 {
        return at(0);
    }
    let rank = p / 100.0 * (len - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        at(lo)
    } else {
        let w = rank - lo as f64;
        at(lo) * (1.0 - w) + at(hi) * w
    }
}

/// Cumulative share curve over descending counts.
///
/// Given per-item counts (e.g. tasks per signature), returns for each item
/// (in descending-count order) the cumulative fraction of the total that the
/// top items account for. This is the curve plotted in the paper's Figure 6.
///
/// # Example
///
/// ```
/// // Three signatures covering 70%, 20%, 10% of tasks.
/// let curve = saad_stats::quantile::cumulative_share(&[20, 70, 10]);
/// assert_eq!(curve, vec![0.7, 0.9, 1.0]);
/// ```
pub fn cumulative_share(counts: &[u64]) -> Vec<f64> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return vec![0.0; counts.len()];
    }
    let mut sorted = counts.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let mut acc = 0u64;
    sorted
        .iter()
        .map(|&c| {
            acc += c;
            acc as f64 / total as f64
        })
        .collect()
}

/// Smallest number of top-ranked items whose counts cover at least
/// `fraction` (in `[0, 1]`) of the total. This is the "6 out of 29
/// signatures account for 95% of tasks" statistic from Figure 6.
///
/// # Example
///
/// ```
/// let n = saad_stats::quantile::items_covering(&[70, 20, 6, 3, 1], 0.95);
/// assert_eq!(n, 3); // 70+20+6 = 96%
/// ```
pub fn items_covering(counts: &[u64], fraction: f64) -> usize {
    let curve = cumulative_share(counts);
    curve
        .iter()
        .position(|&f| f >= fraction)
        .map(|i| i + 1)
        .unwrap_or(counts.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn percentile_empty_is_none() {
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_endpoints() {
        let xs = [5.0, 1.0, 3.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(5.0));
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0];
        assert_eq!(percentile(&xs, 50.0), Some(15.0));
        assert_eq!(percentile(&xs, 25.0), Some(12.5));
    }

    #[test]
    fn percentile_matches_r_type7() {
        // R: quantile(c(1,2,3,4,5,6,7,8,9,10), 0.99) = 9.91
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let v = percentile(&xs, 99.0).unwrap();
        assert!((v - 9.91).abs() < 1e-12);
    }

    #[test]
    fn floor_percentile_floors_the_type7_value() {
        let us: Vec<u64> = (1..=10).collect();
        assert_eq!(floor_percentile_by(10, 99.0, |i| us[i]), 9); // 9.91
        assert_eq!(floor_percentile_by(10, 100.0, |i| us[i]), 10);
        assert_eq!(floor_percentile_by(1, 50.0, |_| 7), 7);
    }

    #[test]
    fn percentile_single_value() {
        assert_eq!(percentile(&[42.0], 73.0), Some(42.0));
    }

    #[test]
    #[should_panic]
    fn percentile_rejects_out_of_range() {
        percentile(&[1.0], 101.0);
    }

    #[test]
    fn cumulative_share_handles_zero_total() {
        assert_eq!(cumulative_share(&[0, 0]), vec![0.0, 0.0]);
    }

    #[test]
    fn items_covering_all_when_unreachable() {
        // fraction 1.0 needs every item when each contributes.
        assert_eq!(items_covering(&[1, 1, 1], 1.0), 3);
    }

    #[test]
    fn items_covering_empty() {
        assert_eq!(items_covering(&[], 0.95), 0);
    }

    proptest! {
        #[test]
        fn percentile_is_monotone_in_p(
            xs in proptest::collection::vec(-1e6f64..1e6, 1..100),
            p1 in 0.0f64..100.0,
            p2 in 0.0f64..100.0,
        ) {
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            let a = percentile(&xs, lo).unwrap();
            let b = percentile(&xs, hi).unwrap();
            prop_assert!(a <= b + 1e-9);
        }

        #[test]
        fn percentile_within_data_range(
            xs in proptest::collection::vec(-1e6f64..1e6, 1..100),
            p in 0.0f64..100.0,
        ) {
            let v = percentile(&xs, p).unwrap();
            let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(v >= min - 1e-9 && v <= max + 1e-9);
        }

        #[test]
        fn cumulative_share_is_monotone_and_ends_at_one(
            counts in proptest::collection::vec(0u64..10_000, 1..50),
        ) {
            prop_assume!(counts.iter().sum::<u64>() > 0);
            let curve = cumulative_share(&counts);
            for w in curve.windows(2) {
                prop_assert!(w[0] <= w[1] + 1e-12);
            }
            prop_assert!((curve.last().unwrap() - 1.0).abs() < 1e-9);
        }
    }
}
