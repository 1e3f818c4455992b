//! Adaptation per tenant: which tenant each host belongs to, the drift
//! policy every tenant of a lifecycle pool runs, and the router-side state
//! that turns a tenant's window-level traffic summaries into "retrain
//! now" decisions.

use super::lifecycle::TenantObs;
use crate::feature::InternedFeature;
use crate::intern::SigId;
use crate::{HostId, StageId, TenantId};
use saad_sim::{SimDuration, SimTime};
use saad_stats::{DecayedFrequency, PageHinkley, QuantileSketch};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Maps hosts to tenants. Unassigned hosts land in [`TenantId::DEFAULT`],
/// so a single-tenant deployment needs no table at all.
#[derive(Debug, Clone, Default)]
pub struct TenantRouter {
    assignments: BTreeMap<u16, TenantId>,
}

impl TenantRouter {
    /// Router that sends every host to [`TenantId::DEFAULT`].
    pub fn new() -> TenantRouter {
        TenantRouter::default()
    }

    /// Pin `host` to `tenant` (replacing any previous assignment).
    pub fn assign(&mut self, host: HostId, tenant: TenantId) {
        self.assignments.insert(host.0, tenant);
    }

    /// The tenant `host` belongs to.
    pub fn route(&self, host: HostId) -> TenantId {
        let assigned = self.assignments.get(&host.0).copied();
        assigned.unwrap_or(TenantId::DEFAULT)
    }

    /// Distinct tenants reachable through this router (assigned tenants
    /// plus the default), sorted.
    pub fn tenants(&self) -> Vec<TenantId> {
        let mut out: Vec<TenantId> = self.assignments.values().copied().collect();
        out.push(TenantId::DEFAULT);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The router's per-row table: the index into [`Self::tenants`] of
    /// every assigned host, indexed by host id (the way the liveness table
    /// is); a host past its end is in the default tenant. Empty when there
    /// is one tenant, so that pool skips the lookup.
    pub(super) fn host_table(&self, tenants: &[TenantId]) -> Vec<u16> {
        let index = |tenant| tenants.binary_search(&tenant).unwrap_or(0) as u16;
        let mut table = Vec::new();
        if tenants.len() > 1 {
            for (&host, &tenant) in &self.assignments {
                let host = usize::from(host);
                if host >= table.len() {
                    table.resize(host + 1, index(TenantId::DEFAULT));
                }
                table[host] = index(tenant);
            }
        }
        table
    }
}

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
/// router drops the tenant's retrain ring — it still holds the regime the
/// drift just invalidated — and marks a retrain pending. Once the ring has
/// refilled with `min_retrain_samples` of purely post-drift traffic, the
/// router invokes the *existing* retrain path at the current watermark
/// boundary — the same k-fold-gated, zero-drop in-band swap that
/// [`PoolHandle::request_retrain`](super::PoolHandle::request_retrain) uses;
/// there is no second swap mechanism. After a swap the baseline is
/// re-captured from the retrain ring, both tests reset, and for
/// `cooldown_windows` windows the tests are fed but a trip is discarded:
/// the quiet run-in re-establishes the null. Each tenant of a pool runs
/// this policy over its own traffic.
#[derive(Debug, Clone)]
pub struct AdaptPolicy {
    /// Width of one adapt window. Windows are aligned to the first
    /// absorbed task's start time and closed by the routed watermark.
    pub window: SimDuration,
    /// Windows with fewer routed tasks than this contribute no drift
    /// evidence (a sparse window says nothing about the distribution).
    pub min_window_samples: u64,
    /// Windows to wait after any swap before drift can trigger again.
    pub cooldown_windows: u32,
}

impl Default for AdaptPolicy {
    fn default() -> AdaptPolicy {
        AdaptPolicy {
            window: SimDuration::from_secs(60),
            min_window_samples: 200,
            cooldown_windows: 2,
        }
    }
}

/// Page-Hinkley tolerance: a per-window deviation from the running mean
/// below it never accumulates evidence. Both statistics are relative (a
/// signature-share L1 distance in `[0, 2]`, a relative quantile delta),
/// so a half-percent wobble between healthy windows is ignored by both.
const PH_DELTA: f64 = 0.005;

/// Page-Hinkley trip threshold on accumulated evidence, in the same
/// relative units: deviations summing to a quarter — one large shift or
/// several smaller sustained ones — trip; a one-window spike below it
/// does not.
const PH_LAMBDA: f64 = 0.25;

/// Relative-error bound of the per-window duration sketches: the sketch
/// crate's default, far finer than the shifts [`PH_LAMBDA`] trips on.
const SKETCH_ALPHA: f64 = saad_stats::sketch::DEFAULT_ALPHA;

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
    /// Where the tenant's drift-triggered swaps and evaluated windows
    /// (closed with enough samples) are counted for the pool's handle.
    obs: Arc<TenantObs>,
}

impl AdaptState {
    pub(super) fn new(policy: AdaptPolicy, quantile: f64, obs: Arc<TenantObs>) -> AdaptState {
        assert!(policy.window > SimDuration::ZERO, "refused at spawn");
        AdaptState {
            win_sketch: QuantileSketch::new(SKETCH_ALPHA),
            win_sigs: DecayedFrequency::new(),
            base_sketch: QuantileSketch::new(SKETCH_ALPHA),
            base_sigs: DecayedFrequency::new(),
            ph_duration: PageHinkley::new(PH_DELTA, PH_LAMBDA),
            ph_flow: PageHinkley::new(PH_DELTA, PH_LAMBDA),
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
        self.base_sketch = QuantileSketch::new(SKETCH_ALPHA);
        self.base_sigs = DecayedFrequency::new();
        for &(_, sig, duration_us) in ring {
            self.base_sketch.record(duration_us);
            self.base_sigs.record(u64::from(sig.0), 1.0);
        }
        self.ph_duration.reset();
        self.ph_flow.reset();
        self.cooldown = self.policy.cooldown_windows;
        self.pending = false;
    }

    /// Close every window the watermark has passed. True when a trip has
    /// just made a retrain pending: the caller then drops the retrain
    /// ring. A trip while one is pending changes nothing. Evidence needs
    /// a baseline, which only a swap sets, so a tenant in bootstrap never
    /// trips.
    pub(super) fn evaluate(&mut self, watermark: SimTime) -> bool {
        let Some(mut start) = self.window_start else {
            return false;
        };
        let mut tripped = false;
        while start + self.policy.window <= watermark {
            tripped |= self.close_window();
            start += self.policy.window;
        }
        self.window_start = Some(start);
        let newly = tripped && !self.pending;
        self.pending |= tripped;
        newly
    }

    /// Whether a pending trip may retrain now: not before a window has
    /// closed since a refused attempt.
    pub(super) fn retrain_due(&self) -> bool {
        self.pending && self.cooldown == 0
    }

    /// Account the retrain a pending trip led to. A swap was already
    /// re-anchored by [`AdaptState::on_swap`]; after a refusal (unstable
    /// window) wait at least one window before retrying, so a refusal
    /// can't retrain every batch.
    pub(super) fn drift_retrain_done(&mut self, swapped: bool) {
        if swapped {
            self.obs.drift_swaps.fetch_add(1, Ordering::SeqCst);
        } else {
            self.cooldown = self.cooldown.max(1);
        }
    }

    /// Close one window: feed the change tests when the window carries
    /// enough samples and a baseline exists — in cooldown too, where a
    /// trip is then discarded — and reset the accumulators.
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
            self.win_sketch = QuantileSketch::new(SKETCH_ALPHA);
            self.win_sigs = DecayedFrequency::new();
        }
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return false;
        }
        tripped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaskUid;

    #[test]
    fn router_defaults_and_assignments() {
        let mut router = TenantRouter::new();
        router.assign(HostId(0), TenantId(1));
        router.assign(HostId(1), TenantId(2));
        assert_eq!(router.route(HostId(0)), TenantId(1));
        assert_eq!(router.route(HostId(1)), TenantId(2));
        assert_eq!(router.route(HostId(99)), TenantId::DEFAULT);
        let tenants = router.tenants();
        assert_eq!(tenants, [TenantId::DEFAULT, TenantId(1), TenantId(2)]);
        // The router's table: indexes into that list, up to the highest
        // assigned host; none for one tenant.
        assert_eq!(router.host_table(&tenants), [1, 2]);
        assert!(TenantRouter::new()
            .host_table(&[TenantId::DEFAULT])
            .is_empty());
    }

    /// A drift state over one-minute windows that need ten tasks to count
    /// as evidence, with `cooldown` windows of run-in after a swap.
    fn state(cooldown: u32) -> (AdaptState, Arc<TenantObs>) {
        let policy = AdaptPolicy {
            window: SimDuration::from_mins(1),
            min_window_samples: 10,
            cooldown_windows: cooldown,
        };
        let obs = Arc::new(TenantObs::default());
        (AdaptState::new(policy, 99.0, obs.clone()), obs)
    }

    /// What a swap trains on here: one signature at 1 ms.
    fn ring() -> VecDeque<(StageId, SigId, f64)> {
        (0..100).map(|_| (StageId(0), SigId(0), 1_000.0)).collect()
    }

    /// Minute `minute` of `tasks` tasks at `duration_us`, closed by the
    /// watermark at the next minute; what `evaluate` then says.
    fn window(state: &mut AdaptState, minute: u64, tasks: u64, duration_us: f64) -> bool {
        for i in 0..tasks {
            state.absorb(&InternedFeature {
                uid: TaskUid(i),
                host: HostId(0),
                stage: StageId(0),
                sig: SigId(0),
                duration_us,
                start: SimTime::from_mins(minute) + SimDuration::from_millis(i),
            });
        }
        state.evaluate(SimTime::from_mins(minute + 1))
    }

    /// The one drift rule, over scripted windows: a quiet window, then the
    /// durations quintuple for good.
    #[test]
    fn cooldown_feeds_the_test_and_a_refusal_waits_a_window() {
        let (mut adapt, obs) = state(2);
        // No baseline before the first swap: full windows carry no
        // evidence and cannot trip.
        assert!(!window(&mut adapt, 0, 20, 1_000.0));
        assert!(!window(&mut adapt, 1, 20, 50_000.0));
        assert_eq!(obs.adapt_windows.load(Ordering::SeqCst), 0);

        adapt.on_swap(&ring());
        // Two cooldown windows: both feed Page-Hinkley, and the second's
        // trip — five-fold durations after a quiet window — is discarded.
        assert!(!window(&mut adapt, 2, 20, 1_000.0));
        assert!(!window(&mut adapt, 3, 20, 5_000.0));
        assert!(adapt.ph_duration.statistic() > PH_LAMBDA);
        assert!(!adapt.retrain_due());
        // The first window past the cooldown trips on the evidence the
        // cooldown fed: the ring is to be dropped, a retrain is pending.
        assert!(window(&mut adapt, 4, 20, 5_000.0));
        assert!(adapt.retrain_due());
        // A trip while pending does not drop the ring a second time.
        assert!(!window(&mut adapt, 5, 20, 5_000.0));
        assert!(adapt.ph_duration.statistic() > PH_LAMBDA);
        assert!(adapt.retrain_due());

        // Refused: no retry until a window has closed.
        adapt.drift_retrain_done(false);
        assert!(!adapt.retrain_due());
        assert!(!adapt.evaluate(SimTime::from_mins(6) + SimDuration::from_secs(30)));
        assert!(!adapt.retrain_due());
        assert!(!window(&mut adapt, 6, 20, 5_000.0));
        assert!(adapt.retrain_due());
        // Swapped: counted once, nothing pending.
        adapt.on_swap(&ring());
        adapt.drift_retrain_done(true);
        assert!(!adapt.retrain_due());
        assert_eq!(obs.drift_swaps.load(Ordering::SeqCst), 1);

        // Only windows with evidence count: a sparse one and two empty
        // ones, closed by one jump of the watermark, do not.
        assert!(!window(&mut adapt, 7, 5, 1_000.0));
        assert!(!adapt.evaluate(SimTime::from_mins(10)));
        assert_eq!(obs.adapt_windows.load(Ordering::SeqCst), 5);
    }
}
