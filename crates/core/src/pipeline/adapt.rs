//! Adaptation per tenant: which tenant each host belongs to, and the
//! router-side drift state that turns a tenant's traffic summaries per
//! detection window into "retrain now" decisions.

use super::lifecycle::TenantObs;
use crate::feature::InternedFeature;
use crate::intern::SigId;
use crate::{HostId, StageId, TenantId};
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

/// Drift windows with fewer routed tasks than this contribute no drift
/// evidence: a sparse window says nothing about the distribution.
const MIN_WINDOW_SAMPLES: u64 = 50;

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

/// One tenant's drift detector, kept by the router of a pool with
/// [`LifecycleConfig::adapt`](super::LifecycleConfig::adapt) on.
///
/// The drift window is the detection window. The router accumulates each
/// window's traffic into a [`saad_stats::QuantileSketch`] (durations) and
/// a signature-frequency table, and at the window edge that closes it —
/// the row whose stamp enters a new window — feeds two scalars into
/// per-dimension [`saad_stats::PageHinkley`] tests:
///
/// * the **flow statistic** — L1 divergence between the window's
///   signature-share distribution and the baseline captured at the last
///   swap (range `[0, 2]`);
/// * the **duration statistic** — relative delta between the window
///   sketch's duration percentile and the baseline sketch's.
///
/// When either test trips (sustained shift, not a one-window spike) the
/// router drops the tenant's retrain ring — it still holds the regime the
/// drift just invalidated — and marks a retrain pending. At the first
/// window edge where the ring has refilled with `min_retrain_samples` of
/// purely post-drift traffic, the router runs the *existing* retrain path
/// — the same k-fold-gated, zero-drop in-band swap that
/// [`PoolHandle::request_retrain`](super::PoolHandle::request_retrain)
/// uses; there is no second swap mechanism. After a swap the baseline is
/// re-captured from the retrain ring and both tests reset; a reset test's
/// first observation cannot trip, so the window after a swap never does.
/// A refused retrain waits for the next window edge before it is retried.
pub(super) struct AdaptState {
    /// Percentile compared between window and baseline sketches (the
    /// model's own duration percentile, so drift is measured where the
    /// thresholds live).
    quantile: f64,
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
    /// The last drift retrain was refused; the next window edge clears it.
    refused: bool,
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
    pub(super) fn new(quantile: f64, obs: Arc<TenantObs>) -> AdaptState {
        AdaptState {
            win_sketch: QuantileSketch::new(SKETCH_ALPHA),
            win_sigs: DecayedFrequency::new(),
            base_sketch: QuantileSketch::new(SKETCH_ALPHA),
            base_sigs: DecayedFrequency::new(),
            ph_duration: PageHinkley::new(PH_DELTA, PH_LAMBDA),
            ph_flow: PageHinkley::new(PH_DELTA, PH_LAMBDA),
            refused: false,
            pending: false,
            quantile,
            obs,
        }
    }

    /// Accumulate one routed task into the current window.
    pub(super) fn absorb(&mut self, feature: &InternedFeature) {
        self.win_sketch.record(feature.duration_us);
        self.win_sigs.record(u64::from(feature.sig.0), 1.0);
    }

    /// Re-anchor the baseline to `ring` (what the freshly swapped model
    /// was trained on) and reset both change tests.
    /// Called after *every* successful swap — drift-triggered, manual,
    /// or bootstrap promotion — so "no drift" always means "like the
    /// live model's training window".
    pub(super) fn on_swap(&mut self, ring: &VecDeque<(StageId, SigId, u64)>) {
        self.base_sketch = QuantileSketch::new(SKETCH_ALPHA);
        self.base_sigs = DecayedFrequency::new();
        for &(_, sig, duration_us) in ring {
            self.base_sketch.record(duration_us);
            self.base_sigs.record(u64::from(sig.0), 1.0);
        }
        self.ph_duration.reset();
        self.ph_flow.reset();
        self.pending = false;
    }

    /// Whether a pending trip may retrain now: not before a window has
    /// closed since a refused attempt.
    pub(super) fn retrain_due(&self) -> bool {
        self.pending && !self.refused
    }

    /// Account the retrain a pending trip led to. A swap was already
    /// re-anchored by [`AdaptState::on_swap`]; after a refusal (unstable
    /// window) wait at least one window before retrying, so a refusal
    /// can't retrain at every edge.
    pub(super) fn drift_retrain_done(&mut self, swapped: bool) {
        if swapped {
            self.obs.drift_swaps.fetch_add(1, Ordering::SeqCst);
        } else {
            self.refused = true;
        }
    }

    /// Close the current window at an edge, however many empty windows
    /// it skips: feed the change tests when the window carries enough
    /// samples and a baseline exists, reset the accumulators, and end a
    /// refused retrain's wait. True when a trip has just made a retrain
    /// pending: the caller then drops the retrain ring. A trip while one is
    /// pending changes nothing. Evidence needs a baseline, which only a
    /// swap sets, so a tenant in bootstrap never trips.
    pub(super) fn close(&mut self) -> bool {
        let enough = self.win_sketch.count() >= MIN_WINDOW_SAMPLES;
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
        self.refused = false;
        let newly = tripped && !self.pending;
        self.pending |= tripped;
        newly
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaskUid;
    use saad_sim::SimTime;

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

    /// A drift state with no baseline yet, and where it counts.
    fn state() -> (AdaptState, Arc<TenantObs>) {
        let obs = Arc::new(TenantObs::default());
        (AdaptState::new(99.0, obs.clone()), obs)
    }

    /// What a swap trains on here: one signature at 1 ms.
    fn ring() -> VecDeque<(StageId, SigId, u64)> {
        (0..100).map(|_| (StageId(0), SigId(0), 1_000)).collect()
    }

    /// A window of `tasks` tasks at `duration_us`, closed by the edge
    /// into the next window; what `close` then says.
    fn window(state: &mut AdaptState, tasks: u64, duration_us: u64) -> bool {
        for i in 0..tasks {
            state.absorb(&InternedFeature {
                uid: TaskUid(i),
                host: HostId(0),
                stage: StageId(0),
                sig: SigId(0),
                duration_us,
                start: SimTime::from_millis(i),
            });
        }
        state.close()
    }

    /// Tasks in a window that counts as evidence.
    const FULL: u64 = MIN_WINDOW_SAMPLES;

    /// The one drift rule, over scripted windows: a quiet window, then the
    /// durations quintuple for good.
    #[test]
    fn cooldown_feeds_the_test_and_a_refusal_waits_a_window() {
        let (mut adapt, obs) = state();
        // No baseline before the first swap: full windows carry no
        // evidence and cannot trip.
        assert!(!window(&mut adapt, FULL, 1_000));
        assert!(!window(&mut adapt, FULL, 50_000));
        assert_eq!(obs.adapt_windows.load(Ordering::SeqCst), 0);

        adapt.on_swap(&ring());
        // The first window after a swap feeds both tests: a quiet one.
        assert!(!window(&mut adapt, FULL, 1_000));
        assert_eq!(adapt.ph_duration.observations(), 1);
        assert!(!adapt.retrain_due());
        // The next window trips on the evidence the first fed: the ring is
        // to be dropped, a retrain is pending.
        assert!(window(&mut adapt, FULL, 5_000));
        assert!(adapt.retrain_due());
        // A trip while pending does not drop the ring a second time.
        assert!(!window(&mut adapt, FULL, 5_000));
        assert!(adapt.ph_duration.statistic() > PH_LAMBDA);
        assert!(adapt.retrain_due());

        // Refused: no retry is due until the next window has closed. That
        // window feeds the tests, which stay tripped.
        adapt.drift_retrain_done(false);
        assert!(!adapt.retrain_due());
        assert!(!window(&mut adapt, FULL, 5_000));
        assert_eq!(adapt.ph_duration.observations(), 4);
        assert!(adapt.ph_duration.statistic() > PH_LAMBDA);
        assert!(adapt.retrain_due());
        // Swapped: counted once, nothing pending.
        adapt.on_swap(&ring());
        adapt.drift_retrain_done(true);
        assert!(!adapt.retrain_due());
        assert_eq!(obs.drift_swaps.load(Ordering::SeqCst), 1);

        // Only windows with evidence count: a sparse one, and an edge that
        // skips empty ones, do not.
        assert!(!window(&mut adapt, FULL - 1, 1_000));
        assert!(!adapt.close());
        assert_eq!(obs.adapt_windows.load(Ordering::SeqCst), 4);

        // The first window after a swap never trips, however far it
        // drifts: a reset test's first observation carries no evidence.
        // So a swap needs no cooldown of its own.
        adapt.on_swap(&ring());
        assert!(!window(&mut adapt, FULL, 50_000));
        assert_eq!(adapt.ph_duration.statistic(), 0.0);
        assert_eq!(adapt.ph_flow.statistic(), 0.0);
    }

    #[test]
    fn an_edge_at_the_end_of_time_closes_in_one_step() {
        // A refused retrain waits for one window edge. `close` takes no
        // count of the windows an edge skips, so the edge into the last
        // window before `u64::MAX` µs ends the wait in one step as the
        // next one would, and the retry is due after it.
        let (mut adapt, obs) = state();
        adapt.on_swap(&ring());
        assert!(!window(&mut adapt, FULL, 1_000));
        assert!(window(&mut adapt, FULL, 5_000));
        adapt.drift_retrain_done(false);
        assert!(!adapt.retrain_due());
        assert!(!adapt.close());
        assert!(adapt.retrain_due());
        assert_eq!(obs.adapt_windows.load(Ordering::SeqCst), 2);
        // An edge after a sparse window ends the wait too.
        adapt.drift_retrain_done(false);
        assert!(!window(&mut adapt, FULL - 1, 5_000));
        assert!(adapt.retrain_due());
        assert_eq!(obs.adapt_windows.load(Ordering::SeqCst), 2);
    }
}
