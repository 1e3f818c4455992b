//! Streaming quantile sketch with a relative-error guarantee.
//!
//! A lifecycle pool's drift detector compares one duration percentile of
//! each adapt window against the live model's training window, without
//! keeping either window's raw durations. [`QuantileSketch`] is a
//! log-linear bucketed sketch in the DDSketch family: values are mapped
//! to geometrically spaced buckets, so memory is bounded by the *dynamic
//! range* of the data (not its volume) and any quantile can be answered
//! with a guaranteed relative error.
//!
//! # Error bound
//!
//! With accuracy parameter `alpha` (`0 < alpha < 1`), bucket boundaries
//! grow by `gamma = (1 + alpha) / (1 - alpha)` and each bucket's
//! representative value is the geometric mid-point, so every recorded
//! value `v >= MIN_VALUE` is reported within relative error `alpha`:
//! `|estimate - v| <= alpha * v`. Consequently, for a percentile query the
//! estimate lies within relative error `alpha` of the interval spanned by
//! the two order statistics that the exact [`crate::percentile`]
//! interpolates between — the property the proptests below pin down.
//! Values in `[0, MIN_VALUE)` (and NaN, which sorts *below* everything,
//! matching the detector's `classify_batch` semantics) collapse into a
//! dedicated zero bucket reported as `0.0`.

use std::collections::BTreeMap;

/// Values below this threshold (and NaN) collapse into the zero bucket.
pub const MIN_VALUE: f64 = 1e-9;

/// Default accuracy parameter: 1% relative error.
pub const DEFAULT_ALPHA: f64 = 0.01;

/// A log-linear quantile sketch (DDSketch-style).
///
/// Records non-negative samples (durations in µs, sizes in bytes, …) and
/// answers percentile queries with relative error at most `alpha`. Bounded
/// memory: one `(i32, u64)` entry per occupied geometric bucket.
///
/// # Example
///
/// ```
/// use saad_stats::sketch::QuantileSketch;
///
/// let mut sk = QuantileSketch::new(0.01);
/// for v in 1..=1000 {
///     sk.record(v as f64);
/// }
/// let p99 = sk.percentile(99.0).unwrap();
/// assert!((p99 - 990.0).abs() <= 0.01 * 990.0 + 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    alpha: f64,
    /// Precomputed `ln(gamma)`; bucket index is `ceil(ln(v) / ln_gamma)`.
    ln_gamma: f64,
    /// Occupied buckets: index → sample count. A `BTreeMap` keeps keys
    /// ordered so quantile walks and serialization are deterministic.
    buckets: BTreeMap<i32, u64>,
    /// Samples in `[0, MIN_VALUE)` plus NaN (reported as `0.0`).
    zero_count: u64,
    /// Total recorded samples, including the zero bucket.
    count: u64,
    /// Exact extrema, used to clamp estimates to the observed range.
    min: f64,
    max: f64,
}

impl QuantileSketch {
    /// Create a sketch with relative-error bound `alpha` (`0 < alpha < 1`).
    ///
    /// # Panics
    ///
    /// Panics when `alpha` is not in `(0, 1)`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "sketch alpha must be in (0,1), got {alpha}"
        );
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        Self {
            alpha,
            ln_gamma: gamma.ln(),
            buckets: BTreeMap::new(),
            zero_count: 0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The sketch's accuracy parameter.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of occupied buckets (the sketch's memory footprint driver).
    pub fn bucket_len(&self) -> usize {
        self.buckets.len()
    }

    /// Bucket index for a value `>= MIN_VALUE`.
    fn key(&self, v: f64) -> i32 {
        (v.ln() / self.ln_gamma).ceil() as i32
    }

    /// Representative value of bucket `key`: the geometric mid-point
    /// `2 * gamma^key / (gamma + 1)`, within `alpha` of every value the
    /// bucket covers.
    fn value(&self, key: i32) -> f64 {
        let gamma = (1.0 + self.alpha) / (1.0 - self.alpha);
        2.0 * (self.ln_gamma * key as f64).exp() / (gamma + 1.0)
    }

    /// Record one sample. NaN and values below [`MIN_VALUE`] go to the
    /// zero bucket (reported as `0.0`) — they never panic.
    pub fn record(&mut self, v: f64) {
        self.record_n(v, 1);
    }

    /// Record `n` identical samples in one update.
    pub fn record_n(&mut self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        self.count += n;
        if v.is_nan() || v < MIN_VALUE {
            self.zero_count += n;
            let clamped = if v.is_nan() { 0.0 } else { v.max(0.0) };
            self.min = self.min.min(clamped);
            self.max = self.max.max(clamped);
            return;
        }
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        *self.buckets.entry(self.key(v)).or_insert(0) += n;
    }

    /// Estimate the `p`-th percentile (`p` in `[0, 100]`, matching
    /// [`crate::percentile`]'s percent convention). Returns `None` on an
    /// empty sketch.
    ///
    /// The estimate targets the order statistic at rank
    /// `round(p / 100 * (count - 1))` and is within relative error
    /// `alpha` of it (see the module docs for the exact guarantee).
    ///
    /// # Panics
    ///
    /// Panics when `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!(
            (0.0..=100.0).contains(&p),
            "sketch percentile requires p in [0,100], got {p}"
        );
        if self.count == 0 {
            return None;
        }
        let rank = (p / 100.0 * (self.count - 1) as f64).round() as u64;
        if rank < self.zero_count {
            return Some(0.0);
        }
        let mut cum = self.zero_count;
        for (&key, &n) in &self.buckets {
            cum += n;
            if cum > rank {
                // Clamp to the observed range: the geometric mid-point of
                // the first/last bucket can stick out past the true
                // extrema while staying within the alpha bound.
                return Some(self.value(key).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Smallest recorded sample (`0.0` floor for sub-threshold values).
    /// `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample. `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new(DEFAULT_ALPHA)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantile::percentile;
    use proptest::prelude::*;

    /// The documented bound versus exact type-7 `percentile`: the sketch
    /// estimate must lie within relative error `alpha` of the interval
    /// spanned by the two order statistics the exact method interpolates
    /// between.
    fn assert_within_bound(xs: &[f64], p: f64, alpha: f64) {
        let mut sk = QuantileSketch::new(alpha);
        for &v in xs {
            sk.record(v);
        }
        let est = sk.percentile(p).unwrap();
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = p / 100.0 * (sorted.len() - 1) as f64;
        let lo = sorted[rank.floor() as usize];
        let hi = sorted[rank.ceil() as usize];
        let eps = 1e-9;
        assert!(
            est >= lo * (1.0 - alpha) - eps && est <= hi * (1.0 + alpha) + eps,
            "p{p}: estimate {est} outside [{lo}, {hi}] ± {alpha} relative \
             (n={})",
            xs.len()
        );
    }

    #[test]
    fn empty_sketch_has_no_percentile() {
        let sk = QuantileSketch::default();
        assert_eq!(sk.percentile(50.0), None);
        assert_eq!(sk.min(), None);
        assert_eq!(sk.max(), None);
    }

    #[test]
    fn single_value_round_trips_within_alpha() {
        let mut sk = QuantileSketch::new(0.01);
        sk.record(1234.5);
        let est = sk.percentile(50.0).unwrap();
        assert!((est - 1234.5).abs() <= 0.01 * 1234.5);
    }

    #[test]
    fn nan_and_negatives_go_below_everything() {
        let mut sk = QuantileSketch::new(0.01);
        sk.record(f64::NAN);
        sk.record(-3.0);
        sk.record(100.0);
        sk.record(200.0);
        // Two of four samples sit in the zero bucket, so p0/p25 are 0.
        assert_eq!(sk.percentile(0.0), Some(0.0));
        assert_eq!(sk.percentile(25.0), Some(0.0));
        assert!(sk.percentile(100.0).unwrap() >= 100.0 * 0.99);
    }

    #[test]
    fn memory_is_bounded_by_dynamic_range() {
        let mut sk = QuantileSketch::new(0.01);
        for i in 0..1_000_000u64 {
            // one decade of dynamic range, many samples
            sk.record(100.0 + (i % 1000) as f64);
        }
        // gamma ≈ 1.0202 ⇒ one decade spans ~ln(10)/ln(1.0202) ≈ 115 buckets.
        assert!(sk.bucket_len() < 200, "got {} buckets", sk.bucket_len());
        assert_eq!(sk.count(), 1_000_000);
    }

    proptest! {
        /// Random inputs stay within the documented error bound.
        #[test]
        fn quantiles_within_bound_random(
            xs in proptest::collection::vec(1e-3f64..1e9, 1..300),
            p in 0.0f64..100.0,
        ) {
            assert_within_bound(&xs, p, 0.01);
        }

        /// Sorted inputs (ascending) — insertion order must not matter.
        #[test]
        fn quantiles_within_bound_sorted(
            xs in proptest::collection::vec(1e-3f64..1e9, 1..300),
            p in 0.0f64..100.0,
        ) {
            let mut xs = xs;
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_within_bound(&xs, p, 0.01);
        }

        /// Adversarial duplicates: few distinct values, huge multiplicity
        /// skew — the regime where naive rank estimates collapse.
        #[test]
        fn quantiles_within_bound_adversarial_duplicates(
            distinct in proptest::collection::vec(1e-3f64..1e9, 1..5),
            reps in proptest::collection::vec(1usize..200, 1..5),
            p in 0.0f64..100.0,
        ) {
            let mut xs = Vec::new();
            for (i, &v) in distinct.iter().enumerate() {
                let n = reps.get(i).copied().unwrap_or(1);
                xs.extend(std::iter::repeat_n(v, n));
            }
            assert_within_bound(&xs, p, 0.01);
        }

        /// Percentile is monotone in p, like the exact implementation.
        #[test]
        fn sketch_percentile_is_monotone(
            xs in proptest::collection::vec(1e-3f64..1e9, 1..200),
            p1 in 0.0f64..100.0,
            p2 in 0.0f64..100.0,
        ) {
            let mut sk = QuantileSketch::new(0.01);
            for &v in &xs { sk.record(v); }
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            let a = sk.percentile(lo).unwrap();
            let b = sk.percentile(hi).unwrap();
            prop_assert!(a <= b + 1e-9);
        }

        /// Estimates never leave the observed data range.
        #[test]
        fn sketch_estimate_within_range(
            xs in proptest::collection::vec(1e-3f64..1e9, 1..200),
            p in 0.0f64..100.0,
        ) {
            let mut sk = QuantileSketch::new(0.01);
            for &v in &xs { sk.record(v); }
            let est = sk.percentile(p).unwrap();
            prop_assert!(est >= sk.min().unwrap() - 1e-9);
            prop_assert!(est <= sk.max().unwrap() + 1e-9);
        }
    }

    #[test]
    fn exact_percentile_agreement_on_large_uniform() {
        let xs: Vec<f64> = (1..=10_000).map(|i| i as f64).collect();
        let mut sk = QuantileSketch::new(0.01);
        for &v in &xs {
            sk.record(v);
        }
        for p in [50.0, 90.0, 99.0, 99.9] {
            let exact = percentile(&xs, p).unwrap();
            let est = sk.percentile(p).unwrap();
            assert!(
                (est - exact).abs() <= 0.011 * exact + 1.0,
                "p{p}: {est} vs exact {exact}"
            );
        }
    }
}
