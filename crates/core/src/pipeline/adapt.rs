//! Drift-triggered adaptation: the policy a lifecycle pool is configured
//! with, and the router-side state that turns window-level traffic
//! summaries into "retrain now" decisions.

use super::lifecycle::LifecycleObs;
use crate::feature::InternedFeature;
use crate::intern::SigId;
use crate::StageId;
use saad_sim::{SimDuration, SimTime};
use saad_stats::{DecayedFrequency, PageHinkley, QuantileSketch};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Drift-triggered adaptation policy for a lifecycle pool.
///
/// The router accumulates each adapt window's traffic into a
/// [`saad_stats::QuantileSketch`] (durations) and a signature-frequency
/// table, then at every watermark-aligned window close feeds two scalars
/// into per-dimension [`saad_stats::PageHinkley`] tests:
///
/// * the **flow statistic** — L1 divergence between the window's
///   signature-share distribution and the baseline captured at the last
///   swap (range `[0, 2]`);
/// * the **duration statistic** — relative delta between the window
///   sketch's `duration_percentile` quantile and the baseline sketch's.
///
/// When either test trips (sustained shift, not a one-window spike) the
/// router drops the retrain ring — it still holds the regime the drift
/// just invalidated — and marks a retrain pending. Once the ring has
/// refilled with `min_retrain_samples` of purely post-drift traffic, the
/// router invokes the *existing* retrain path at the current watermark
/// boundary — the same k-fold-gated, zero-drop in-band swap that
/// [`PoolHandle::retrain_now`](super::PoolHandle::retrain_now) uses;
/// there is no second swap mechanism. After a swap the baseline is re-captured from the retrain
/// ring, both tests reset, and `cooldown_windows` windows must close
/// before drift evidence accrues again.
#[derive(Debug, Clone)]
pub struct AdaptPolicy {
    /// Width of one adapt window. Windows are aligned to the first
    /// absorbed task's start time and closed by the routed watermark.
    pub window: SimDuration,
    /// Windows with fewer routed tasks than this contribute no drift
    /// evidence (a sparse window says nothing about the distribution).
    pub min_window_samples: u64,
    /// Page-Hinkley tolerance: per-window deviations below this never
    /// accumulate evidence.
    pub delta: f64,
    /// Page-Hinkley trip threshold on accumulated evidence.
    pub lambda: f64,
    /// Windows to wait after any swap before drift can trigger again.
    pub cooldown_windows: u32,
    /// Relative-error bound of the per-window duration sketch.
    pub sketch_alpha: f64,
}

impl Default for AdaptPolicy {
    fn default() -> AdaptPolicy {
        AdaptPolicy {
            window: SimDuration::from_secs(60),
            min_window_samples: 200,
            delta: 0.005,
            lambda: 0.25,
            cooldown_windows: 2,
            sketch_alpha: saad_stats::sketch::DEFAULT_ALPHA,
        }
    }
}

/// Router-side drift detection state for an [`AdaptPolicy`].
pub(super) struct AdaptState {
    policy: AdaptPolicy,
    /// Percentile compared between window and baseline sketches (the
    /// model's own duration percentile, so drift is measured where the
    /// thresholds live).
    quantile: f64,
    /// Start of the currently accumulating window; set by the first
    /// absorbed feature and advanced in lockstep with the watermark.
    window_start: Option<SimTime>,
    /// Current window's duration sketch.
    win_sketch: QuantileSketch,
    /// Current window's per-signature task counts.
    win_sigs: DecayedFrequency,
    /// Baseline captured from the retrain ring at the last swap: what
    /// the live model was trained on.
    base_sketch: QuantileSketch,
    base_sigs: DecayedFrequency,
    /// Change tests over the per-window statistics.
    ph_duration: PageHinkley,
    ph_flow: PageHinkley,
    /// Windows remaining before drift may trigger a swap again.
    cooldown: u32,
    /// A drift trip is waiting for enough *fresh* post-drift traffic to
    /// retrain on. While pending, further trips are ignored and the ring
    /// (cleared at the trip) refills with new-regime tasks only, so the
    /// swap never trains on a mixture dominated by the old regime.
    pending: bool,
    /// Where drift-triggered swaps and evaluated windows (closed with
    /// enough samples) are counted for the pool's handle.
    obs: Arc<LifecycleObs>,
}

impl AdaptState {
    pub(super) fn new(policy: AdaptPolicy, quantile: f64, obs: Arc<LifecycleObs>) -> AdaptState {
        assert!(
            policy.window > SimDuration::ZERO,
            "adapt window must be positive"
        );
        AdaptState {
            win_sketch: QuantileSketch::new(policy.sketch_alpha),
            win_sigs: DecayedFrequency::new(1.0),
            base_sketch: QuantileSketch::new(policy.sketch_alpha),
            base_sigs: DecayedFrequency::new(1.0),
            ph_duration: PageHinkley::new(policy.delta, policy.lambda),
            ph_flow: PageHinkley::new(policy.delta, policy.lambda),
            cooldown: 0,
            pending: false,
            window_start: None,
            quantile,
            obs,
            policy,
        }
    }

    /// Accumulate one routed task into the current window.
    pub(super) fn absorb(&mut self, feature: &InternedFeature) {
        if self.window_start.is_none() {
            self.window_start = Some(feature.start);
        }
        self.win_sketch.record(feature.duration_us);
        self.win_sigs.record(u64::from(feature.sig.0), 1.0);
    }

    /// Re-anchor the baseline to `ring` (what the freshly swapped model
    /// was trained on), reset both change tests, and start the cooldown.
    /// Called after *every* successful swap — drift-triggered, manual,
    /// or bootstrap promotion — so "no drift" always means "like the
    /// live model's training window".
    pub(super) fn on_swap(&mut self, ring: &VecDeque<(StageId, SigId, f64)>) {
        self.base_sketch = QuantileSketch::new(self.policy.sketch_alpha);
        self.base_sigs = DecayedFrequency::new(1.0);
        for &(_, sig, duration_us) in ring {
            self.base_sketch.record(duration_us);
            self.base_sigs.record(u64::from(sig.0), 1.0);
        }
        self.ph_duration.reset();
        self.ph_flow.reset();
        self.cooldown = self.policy.cooldown_windows;
        self.pending = false;
    }

    /// Close every window the watermark has passed and return whether a
    /// confirmed drift should trigger a retrain now.
    pub(super) fn evaluate(&mut self, watermark: SimTime) -> bool {
        let Some(mut start) = self.window_start else {
            return false;
        };
        let mut drifted = false;
        while start + self.policy.window <= watermark {
            drifted |= self.close_window();
            start += self.policy.window;
        }
        self.window_start = Some(start);
        drifted
    }

    /// Note a confirmed drift trip; true when none was pending yet (the
    /// caller then drops the retrain ring).
    pub(super) fn mark_pending(&mut self) -> bool {
        let newly = !self.pending;
        self.pending = true;
        newly
    }

    pub(super) fn is_pending(&self) -> bool {
        self.pending
    }

    /// Account the retrain a pending trip led to. A swap was already
    /// re-anchored by [`AdaptState::on_swap`]; after a refusal (sparse or
    /// unstable window) wait at least one window before retrying, so a
    /// refusal can't retrain every batch.
    pub(super) fn drift_retrain_done(&mut self, swapped: bool) {
        if swapped {
            self.obs.drift_swaps.fetch_add(1, Ordering::SeqCst);
        } else {
            self.cooldown = self.cooldown.max(1);
        }
    }

    /// Close one window: feed the change tests when the window carries
    /// enough samples and a baseline exists, then reset the accumulators.
    fn close_window(&mut self) -> bool {
        let enough = self.win_sketch.count() >= self.policy.min_window_samples;
        let mut tripped = false;
        if enough && !self.base_sketch.is_empty() {
            self.obs.adapt_windows.fetch_add(1, Ordering::SeqCst);
            let flow_stat = self.win_sigs.l1_distance(&self.base_sigs);
            let dur_stat = match (
                self.win_sketch.percentile(self.quantile),
                self.base_sketch.percentile(self.quantile),
            ) {
                (Some(win), Some(base)) if base > 0.0 => (win - base).abs() / base,
                _ => 0.0,
            };
            tripped = self.ph_flow.observe(flow_stat);
            tripped |= self.ph_duration.observe(dur_stat);
        }
        if self.win_sketch.count() > 0 {
            self.win_sketch = QuantileSketch::new(self.policy.sketch_alpha);
            self.win_sigs = DecayedFrequency::new(1.0);
        }
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return false;
        }
        tripped
    }
}
