//! k-fold cross-validation utilities.
//!
//! The paper (§3.3.2) discards a signature from performance-outlier
//! detection when its duration distribution cannot support a stable
//! percentile threshold: split the training durations into `k` folds, build
//! the threshold from `k − 1` folds, measure the outlier rate on the held
//! out fold, and discard the signature when the average held-out outlier
//! rate is significantly higher than the nominal rate.

use crate::quantile::floor_percentile_by;

/// Deterministically split `n` items into `k` contiguous folds of
/// near-equal size. Returns `(start, end)` index pairs.
///
/// Folds differ in size by at most one element. Fewer than `k` items yields
/// one fold per item.
///
/// # Panics
///
/// Panics if `k == 0`.
///
/// # Example
///
/// ```
/// let folds = saad_stats::kfold::fold_bounds(10, 3);
/// assert_eq!(folds, vec![(0, 4), (4, 7), (7, 10)]);
/// ```
pub fn fold_bounds(n: usize, k: usize) -> Vec<(usize, usize)> {
    assert!(k > 0, "k must be positive");
    let k = k.min(n.max(1));
    let base = n / k;
    let rem = n % k;
    let mut out = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let len = base + usize::from(i < rem);
        out.push((start, start + len));
        start += len;
    }
    out
}

/// Result of k-fold validation of a percentile threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KFoldOutcome {
    /// Mean held-out outlier rate across folds.
    pub mean_heldout_rate: f64,
    /// Nominal outlier rate implied by the percentile (e.g. 0.01 for p99).
    pub nominal_rate: f64,
    /// Number of folds actually evaluated.
    pub folds: usize,
    /// The whole sample's floored `p`-th percentile: the threshold a
    /// model trained on it keeps.
    pub threshold_us: u64,
    /// Share of the whole sample strictly above `threshold_us`.
    pub outlier_rate: f64,
}

impl KFoldOutcome {
    /// Whether the observed held-out outlier rate exceeds the nominal rate
    /// by more than `tolerance_factor` (the paper's "significantly higher"
    /// criterion; a factor of 3 works well in practice).
    pub fn is_unstable(&self, tolerance_factor: f64) -> bool {
        self.mean_heldout_rate > self.nominal_rate * tolerance_factor
    }
}

/// Run k-fold validation of a `p`-th percentile threshold over µs `durations`.
///
/// For each fold: the threshold is the floored `p`-th percentile of the
/// other folds, as the model's is; the held-out outlier rate is the share
/// of the fold strictly above it. The outcome also carries the whole
/// sample's threshold and outlier rate. Returns `None` when there are not
/// enough samples to form at least two non-empty folds.
///
/// Durations are shuffled deterministically by a simple multiplicative hash
/// of their index so that time-correlated streams don't bias the folds; the
/// caller may pre-shuffle instead if it has a seeded RNG. The samples are
/// sorted once, each tagged with its fold: a fold's training order
/// statistics are that array without the fold.
///
/// # Panics
///
/// Panics if `k == 0` or `p` is outside `[0, 100]`.
pub fn validate_percentile_threshold(durations: &[u64], k: usize, p: f64) -> Option<KFoldOutcome> {
    assert!(k > 0);
    assert!((0.0..=100.0).contains(&p));
    let n = durations.len();
    if n < k.max(2) {
        return None;
    }
    // Deterministic interleave to decorrelate folds from arrival order:
    // the sample at position `j` of it falls in the fold whose bounds hold `j`.
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by_key(|&i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ (i >> 3));
    let bounds = fold_bounds(n, k);
    let mut tagged: Vec<(u64, u32)> = Vec::with_capacity(n);
    for (fold, &(s, e)) in bounds.iter().enumerate() {
        tagged.extend(idx[s..e].iter().map(|&i| (durations[i], fold as u32)));
    }
    tagged.sort_unstable();
    let above = |t: u64| tagged.iter().rev().take_while(move |&&(d, _)| d > t);

    let mut rates = Vec::with_capacity(bounds.len());
    for (fold, &(s, e)) in bounds.iter().enumerate() {
        let fold = fold as u32;
        let train = n - (e - s);
        if train == 0 {
            continue;
        }
        // The `i`-th smallest training sample, walked to from the nearer end.
        let at = |i: usize| {
            let mut rest = tagged.iter().filter(|&&(_, f)| f != fold);
            let found = if i < train / 2 {
                rest.nth(i)
            } else {
                rest.nth_back(train - 1 - i)
            };
            found.expect("rank within the training sample").0
        };
        let threshold = floor_percentile_by(train, p, at);
        let outliers = above(threshold).filter(|&&(_, f)| f == fold).count();
        rates.push(outliers as f64 / (e - s) as f64);
    }
    if rates.len() < 2 {
        return None;
    }
    let threshold_us = floor_percentile_by(n, p, |i| tagged[i].0);
    Some(KFoldOutcome {
        mean_heldout_rate: rates.iter().sum::<f64>() / rates.len() as f64,
        nominal_rate: 1.0 - p / 100.0,
        folds: rates.len(),
        threshold_us,
        outlier_rate: above(threshold_us).count() as f64 / n as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bounds_cover_everything_disjointly() {
        for n in [0usize, 1, 5, 10, 13, 100] {
            for k in [1usize, 2, 3, 5, 10] {
                let b = fold_bounds(n, k);
                let mut covered = 0;
                for w in b.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "folds must be contiguous");
                }
                for &(s, e) in &b {
                    assert!(s <= e);
                    covered += e - s;
                }
                assert_eq!(covered, n);
            }
        }
    }

    #[test]
    fn bounds_sizes_differ_by_at_most_one() {
        let b = fold_bounds(11, 4);
        let sizes: Vec<usize> = b.iter().map(|&(s, e)| e - s).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 11);
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    #[should_panic]
    fn bounds_reject_zero_k() {
        fold_bounds(5, 0);
    }

    #[test]
    fn tight_distribution_is_stable() {
        // Concentrated durations: p99 threshold generalizes, held-out rate
        // stays near the nominal 1%.
        let durations: Vec<u64> = (0..5000).map(|i| 1_000 + i % 100).collect();
        let out = validate_percentile_threshold(&durations, 10, 99.0).unwrap();
        assert!(!out.is_unstable(3.0), "rate={}", out.mean_heldout_rate);
    }

    #[test]
    fn consistent_heavy_tail_is_stable() {
        // A fat but *consistent* tail generalizes: each fold's p99 threshold
        // lands inside the tail and the held-out rate stays near nominal.
        let mut durations = Vec::new();
        for i in 0..1000u64 {
            let x = (i * 2654435761) % 1000;
            durations.push(if x > 900 {
                10_000_000 * (1 + x)
            } else {
                10_000 + x
            });
        }
        let out = validate_percentile_threshold(&durations, 5, 99.0).unwrap();
        assert!(!out.is_unstable(3.0), "rate={}", out.mean_heldout_rate);
    }

    #[test]
    fn sparse_continuous_sample_is_flagged_unstable() {
        // With few, widely spread samples, a p99 threshold is essentially
        // the training max and held-out extremes routinely exceed it: the
        // signature cannot support percentile thresholding (paper §3.3.2).
        let durations: Vec<u64> = (0..25u64)
            .map(|i| (i * 7919) % 10007 * 100 + (i * 104729) % 97)
            .collect();
        let out = validate_percentile_threshold(&durations, 5, 99.0).unwrap();
        assert!(out.is_unstable(3.0), "rate={}", out.mean_heldout_rate);
    }

    #[test]
    fn too_few_samples_is_none() {
        assert!(validate_percentile_threshold(&[1], 5, 99.0).is_none());
        assert!(validate_percentile_threshold(&[], 5, 99.0).is_none());
    }

    /// The oracle: each fold's training sample copied and sorted on its
    /// own, and the whole sample sorted once more for its threshold.
    fn per_fold_sorts(durations: &[u64], k: usize, p: f64) -> Option<KFoldOutcome> {
        if durations.len() < k.max(2) {
            return None;
        }
        let mut idx: Vec<usize> = (0..durations.len()).collect();
        idx.sort_by_key(|&i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ (i >> 3));
        let shuffled: Vec<u64> = idx.iter().map(|&i| durations[i]).collect();
        let mut rates = Vec::new();
        for (s, e) in fold_bounds(shuffled.len(), k) {
            let mut train = [&shuffled[..s], &shuffled[e..]].concat();
            if train.is_empty() {
                continue;
            }
            train.sort_unstable();
            let threshold = floor_percentile_by(train.len(), p, |i| train[i]);
            let outliers = shuffled[s..e].iter().filter(|&&d| d > threshold).count();
            rates.push(outliers as f64 / (e - s) as f64);
        }
        if rates.len() < 2 {
            return None;
        }
        let mut sorted = durations.to_vec();
        sorted.sort_unstable();
        let threshold_us = floor_percentile_by(sorted.len(), p, |i| sorted[i]);
        let above = durations.iter().filter(|&&d| d > threshold_us).count();
        Some(KFoldOutcome {
            mean_heldout_rate: rates.iter().sum::<f64>() / rates.len() as f64,
            nominal_rate: 1.0 - p / 100.0,
            folds: rates.len(),
            threshold_us,
            outlier_rate: above as f64 / durations.len() as f64,
        })
    }

    #[test]
    fn one_sort_matches_per_fold_sorts_at_the_edges() {
        let max = u64::MAX;
        let cases: [&[u64]; 6] = [
            &[5, 5],
            &[1, max, 3],
            &[max, max, max],
            &[0, max, max - 1, max, 0, 7, 7, 7],
            &[9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 1],
            &[3, 1, 2],
        ];
        for xs in cases {
            for k in 1..=xs.len() + 2 {
                for p in [0.0, 50.0, 99.0, 100.0] {
                    assert_eq!(
                        validate_percentile_threshold(xs, k, p),
                        per_fold_sorts(xs, k, p),
                        "{xs:?} k {k} p {p}"
                    );
                }
            }
        }
        let out = validate_percentile_threshold(&[1, max, max], 2, 99.0).unwrap();
        assert_eq!(out.threshold_us, max);
        assert_eq!(out.outlier_rate, 0.0);
    }

    proptest! {
        #[test]
        fn one_sort_matches_per_fold_sorts(
            picks in proptest::collection::vec((0u8..4, 0u64..1_000_000), 2..60),
            k in 1usize..12,
            p in 0.0f64..100.0,
        ) {
            // Few distinct values (ties), values at and next to u64::MAX,
            // and spread ones; `k` above the sample size now and then.
            let xs: Vec<u64> = picks
                .iter()
                .map(|&(kind, x)| match kind {
                    0 => x % 4,
                    1 => u64::MAX - x % 3,
                    _ => x,
                })
                .collect();
            for p in [p, 99.0] {
                prop_assert_eq!(
                    validate_percentile_threshold(&xs, k, p),
                    per_fold_sorts(&xs, k, p)
                );
            }
        }

        #[test]
        fn heldout_rate_is_a_probability(
            xs in proptest::collection::vec(0u64..1_000_000, 10..500),
            k in 2usize..10,
        ) {
            if let Some(out) = validate_percentile_threshold(&xs, k, 99.0) {
                prop_assert!((0.0..=1.0).contains(&out.mean_heldout_rate));
                prop_assert!(out.folds >= 2);
            }
        }
    }
}
