//! Per-key frequency counting over interned keys.
//!
//! The drift detector of a lifecycle pool compares the signature mix of
//! each adapt window with the mix the live model was trained on.
//! [`DecayedFrequency`] keeps one count per `u64` key (an interned
//! signature id, or any other small identifier) and measures the L1
//! distance between two such share distributions. Counts never decay:
//! the detector measures one window at a time, and each window starts a
//! fresh table.

use std::collections::HashMap;

/// Per-key frequency counter.
///
/// # Example
///
/// ```
/// use saad_stats::decay::DecayedFrequency;
///
/// let mut f = DecayedFrequency::new();
/// f.record(7, 8.0);
/// f.record(9, 4.0);
/// assert!((f.share(7) - 2.0 / 3.0).abs() < 1e-12);
/// assert!((f.share(9) - 1.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DecayedFrequency {
    counts: HashMap<u64, f64>,
    total: f64,
}

impl DecayedFrequency {
    /// An empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `weight` observations of `key` (weight must be finite, ≥ 0).
    pub fn record(&mut self, key: u64, weight: f64) {
        if !weight.is_finite() || weight <= 0.0 {
            return;
        }
        *self.counts.entry(key).or_insert(0.0) += weight;
        self.total += weight;
    }

    /// Count of `key` (`0.0` when unseen).
    pub fn count(&self, key: u64) -> f64 {
        self.counts.get(&key).copied().unwrap_or(0.0)
    }

    /// Share of `key` in the total (`0.0` when the total is 0).
    pub fn share(&self, key: u64) -> f64 {
        if self.total <= 0.0 {
            0.0
        } else {
            self.count(key) / self.total
        }
    }

    /// Sum of all counts.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Number of keys counted.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether no key has been counted.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterate `(key, share)` over counted keys (order unspecified).
    pub fn shares(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        let total = self.total;
        self.counts.iter().map(move |(&k, &c)| {
            let s = if total > 0.0 { c / total } else { 0.0 };
            (k, s)
        })
    }

    /// L1 distance between the two share distributions, over the union of
    /// keys: `Σ |share_a(k) − share_b(k)|`, in `[0, 2]`. `0` means the
    /// distributions are identical; `2` means disjoint support. This is
    /// the signature-frequency divergence the drift detector observes.
    pub fn l1_distance(&self, other: &DecayedFrequency) -> f64 {
        let mut d = 0.0;
        for (k, s) in self.shares() {
            d += (s - other.share(k)).abs();
        }
        for (k, s) in other.shares() {
            if self.count(k) == 0.0 {
                d += s;
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_one() {
        let mut f = DecayedFrequency::new();
        for k in 0..10u64 {
            f.record(k, (k + 1) as f64);
        }
        let sum: f64 = f.shares().map(|(_, s)| s).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn l1_distance_identical_is_zero() {
        let mut a = DecayedFrequency::new();
        let mut b = DecayedFrequency::new();
        for k in 0..5u64 {
            a.record(k, 3.0);
            b.record(k, 6.0); // same shape, different scale
        }
        assert!(a.l1_distance(&b) < 1e-12);
    }

    #[test]
    fn l1_distance_disjoint_is_two() {
        let mut a = DecayedFrequency::new();
        let mut b = DecayedFrequency::new();
        a.record(1, 5.0);
        b.record(2, 5.0);
        assert!((a.l1_distance(&b) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn l1_distance_is_symmetric() {
        let mut a = DecayedFrequency::new();
        let mut b = DecayedFrequency::new();
        a.record(1, 3.0);
        a.record(2, 1.0);
        b.record(2, 2.0);
        b.record(3, 2.0);
        assert!((a.l1_distance(&b) - b.l1_distance(&a)).abs() < 1e-12);
    }

    #[test]
    fn ignores_junk_weights() {
        let mut f = DecayedFrequency::new();
        f.record(1, f64::NAN);
        f.record(1, -2.0);
        f.record(1, 0.0);
        assert!(f.is_empty());
    }
}
