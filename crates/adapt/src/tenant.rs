//! Per-tenant model namespaces.
//!
//! A tenant is an independent model universe: its own
//! [`StreamingModelBuilder`], its own [`AnomalyDetector`], its own drift
//! detectors and swap history. Tenancy is **not** a column on
//! [`InternedFeature`] or the synopsis batches — the 7-column hot path is
//! untouched — instead hosts are mapped to tenants at the namespace
//! boundary by a [`TenantRouter`], mirroring how the federation tier maps
//! hosts to collectors.
//!
//! Drift in one tenant retrains and hot-swaps *that tenant's* model only;
//! every other tenant keeps its generation, baselines, and output
//! byte-for-byte unchanged (proven by `tests/adapt.rs`).

use crate::stream::StreamingModelBuilder;
use saad_core::detector::{AnomalyDetector, AnomalyEvent, DetectorConfig};
use saad_core::intern::SignatureInterner;
use saad_core::model::ModelConfig;
use saad_core::pipeline::AdaptPolicy;
use saad_core::prelude::{InternedFeature, TaskSynopsis};
use saad_core::{HostId, TenantId};
use saad_obs::Registry;
use saad_sim::SimTime;
use saad_stats::{DecayedFrequency, PageHinkley, QuantileSketch};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Maps hosts to tenants. Unassigned hosts land in the default tenant,
/// so single-tenant deployments need no routing table at all.
#[derive(Debug, Clone, Default)]
pub struct TenantRouter {
    assignments: HashMap<u16, TenantId>,
    default: TenantId,
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
        self.assignments
            .get(&host.0)
            .copied()
            .unwrap_or(self.default)
    }

    /// Distinct tenants reachable through this router (assigned tenants
    /// plus the default), sorted.
    pub fn tenants(&self) -> Vec<TenantId> {
        let mut out: Vec<TenantId> = self.assignments.values().copied().collect();
        out.push(self.default);
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Shared-atomic view of one tenant's adapt counters, for scrape-time
/// metric bridging (same pattern as the pipeline's pool counters).
#[derive(Debug, Default)]
struct TenantCounters {
    generation: AtomicU64,
    drift_swaps: AtomicU64,
    windows_evaluated: AtomicU64,
    observed: AtomicU64,
}

/// One tenant's private model universe.
struct TenantNamespace {
    detector: AnomalyDetector,
    builder: StreamingModelBuilder,
    /// Drift state: current-window accumulators…
    window_start: Option<SimTime>,
    win_sketch: QuantileSketch,
    win_sigs: DecayedFrequency,
    /// …and the baseline captured at the last swap.
    base_sketch: QuantileSketch,
    base_sigs: DecayedFrequency,
    ph_duration: PageHinkley,
    ph_flow: PageHinkley,
    cooldown: u32,
    /// Drift tripped; waiting for enough fresh samples to retrain.
    retrain_pending: bool,
    counters: Arc<TenantCounters>,
}

/// Adaptive, multi-tenant anomaly monitor: routes synopses to per-tenant
/// namespaces, promotes each tenant from collect-only to detecting once
/// trained, watches each tenant's windows for drift, and hot-swaps only
/// the drifted tenant's model.
///
/// This is the single-threaded adaptive counterpart of a core pool
/// started from a store: same promote/retrain/swap lifecycle semantics, but
/// model building is streaming (sketches, not replay) and every tenant
/// adapts independently.
///
/// # Example
///
/// ```
/// use saad_adapt::{AdaptiveMonitor, TenantRouter};
/// use saad_core::detector::DetectorConfig;
/// use saad_core::model::ModelConfig;
/// use saad_core::pipeline::AdaptPolicy;
///
/// let monitor = AdaptiveMonitor::new(
///     TenantRouter::new(),
///     DetectorConfig::default(),
///     ModelConfig::default(),
///     AdaptPolicy::default(),
///     500,
/// );
/// assert_eq!(monitor.tenants().len(), 1);
/// ```
pub struct AdaptiveMonitor {
    router: TenantRouter,
    interner: Arc<SignatureInterner>,
    detector_config: DetectorConfig,
    model_config: ModelConfig,
    policy: AdaptPolicy,
    /// Features a tenant must accumulate before its first model (and
    /// before a post-drift rebuild) is eligible to swap in.
    min_train_samples: u64,
    namespaces: BTreeMap<TenantId, TenantNamespace>,
}

impl AdaptiveMonitor {
    /// Create a monitor with one namespace per tenant the router knows
    /// about. All tenants share one interner (signatures are global;
    /// models are not).
    ///
    /// # Panics
    ///
    /// Panics when `detector_config`/`model_config` are invalid or the
    /// policy's window is zero.
    pub fn new(
        router: TenantRouter,
        detector_config: DetectorConfig,
        model_config: ModelConfig,
        policy: AdaptPolicy,
        min_train_samples: u64,
    ) -> AdaptiveMonitor {
        assert!(
            policy.window > saad_sim::SimDuration::ZERO,
            "adapt window must be positive"
        );
        let interner = Arc::new(SignatureInterner::new());
        let mut namespaces = BTreeMap::new();
        for tenant in router.tenants() {
            namespaces.insert(
                tenant,
                TenantNamespace {
                    detector: AnomalyDetector::collecting(Arc::clone(&interner), detector_config)
                        .expect("valid detector config"),
                    builder: StreamingModelBuilder::new(model_config, policy.sketch_alpha, 0.8),
                    window_start: None,
                    win_sketch: QuantileSketch::new(policy.sketch_alpha),
                    win_sigs: DecayedFrequency::new(1.0),
                    base_sketch: QuantileSketch::new(policy.sketch_alpha),
                    base_sigs: DecayedFrequency::new(1.0),
                    ph_duration: PageHinkley::new(policy.delta, policy.lambda),
                    ph_flow: PageHinkley::new(policy.delta, policy.lambda),
                    cooldown: 0,
                    retrain_pending: false,
                    counters: Arc::new(TenantCounters::default()),
                },
            );
        }
        AdaptiveMonitor {
            router,
            interner,
            detector_config,
            model_config,
            policy,
            min_train_samples,
            namespaces,
        }
    }

    /// The tenants this monitor maintains namespaces for.
    pub fn tenants(&self) -> Vec<TenantId> {
        self.namespaces.keys().copied().collect()
    }

    /// The shared signature interner.
    pub fn interner(&self) -> &Arc<SignatureInterner> {
        &self.interner
    }

    /// Model generation of `tenant`: 0 while collect-only, bumped by
    /// every swap (promotion or drift retrain).
    pub fn generation(&self, tenant: TenantId) -> u64 {
        self.namespaces
            .get(&tenant)
            .map_or(0, |ns| ns.counters.generation.load(Ordering::SeqCst))
    }

    /// Swaps of `tenant`'s model triggered by drift (excludes the
    /// initial promotion).
    pub fn drift_swaps(&self, tenant: TenantId) -> u64 {
        self.namespaces
            .get(&tenant)
            .map_or(0, |ns| ns.counters.drift_swaps.load(Ordering::SeqCst))
    }

    /// Adapt windows evaluated for `tenant`.
    pub fn windows_evaluated(&self, tenant: TenantId) -> u64 {
        self.namespaces
            .get(&tenant)
            .map_or(0, |ns| ns.counters.windows_evaluated.load(Ordering::SeqCst))
    }

    /// Whether `tenant` is still in collect-only bootstrap.
    pub fn is_collect_only(&self, tenant: TenantId) -> bool {
        self.namespaces
            .get(&tenant)
            .is_none_or(|ns| ns.detector.is_collect_only())
    }

    /// Feed one task synopsis. Routes to the owning tenant, advances that
    /// tenant's adapt windows, and returns any anomaly events its
    /// detector emitted. Other tenants are untouched.
    pub fn observe(&mut self, synopsis: &TaskSynopsis) -> Vec<AnomalyEvent> {
        let tenant = self.router.route(synopsis.host);
        let feature = InternedFeature::from_synopsis(synopsis, &self.interner);
        let policy = self.policy.clone();
        let model_config = self.model_config;
        let min_train = self.min_train_samples;
        let interner = Arc::clone(&self.interner);
        let ns = self
            .namespaces
            .get_mut(&tenant)
            .expect("router tenants all have namespaces");

        // Close every adapt window the new feature's start has passed.
        let start = *ns.window_start.get_or_insert(feature.start);
        let mut boundary = start + policy.window;
        while feature.start >= boundary {
            Self::close_window(ns, &policy, model_config.duration_percentile);
            ns.window_start = Some(boundary);
            boundary += policy.window;
        }

        ns.counters.observed.fetch_add(1, Ordering::SeqCst);
        ns.builder.observe(&feature);
        ns.win_sketch.record(feature.duration_us);
        ns.win_sigs.record(u64::from(feature.sig.0), 1.0);

        // Promotion / post-drift rebuild: both wait for `min_train`
        // fresh samples, then swap through the detector's in-band
        // install (which flushes collect-only windows exactly like the
        // pool's promotion path).
        let eligible = ns.builder.observed() >= min_train
            && (ns.detector.is_collect_only() || ns.retrain_pending);
        let mut events = Vec::new();
        if eligible {
            let was_drift = ns.retrain_pending;
            if let Ok(model) = ns.builder.try_build(&interner) {
                let compiled = Arc::new(model.compile(&interner));
                events.extend(ns.detector.install_model(Arc::new(model), compiled));
                ns.counters.generation.fetch_add(1, Ordering::SeqCst);
                if was_drift {
                    ns.counters.drift_swaps.fetch_add(1, Ordering::SeqCst);
                }
                ns.retrain_pending = false;
                // Re-anchor the drift baseline on the traffic the new
                // model was trained on.
                ns.base_sketch = ns.builder.overall_sketch();
                ns.base_sigs = ns.builder.global_shares();
                ns.ph_duration.reset();
                ns.ph_flow.reset();
                ns.cooldown = policy.cooldown_windows;
            }
        }

        events.extend(ns.detector.observe_interned(&feature));
        events
    }

    /// Close one adapt window for a namespace: compute the window's
    /// drift statistics against the baseline, feed the Page-Hinkley
    /// detectors, and on a trip schedule a retrain on fresh data only.
    fn close_window(ns: &mut TenantNamespace, policy: &AdaptPolicy, quantile: f64) {
        ns.counters.windows_evaluated.fetch_add(1, Ordering::SeqCst);
        ns.builder.advance_window();
        let enough = ns.win_sketch.count() >= policy.min_window_samples;
        let have_baseline = !ns.base_sketch.is_empty();
        if ns.cooldown > 0 {
            ns.cooldown -= 1;
        } else if enough && have_baseline && !ns.retrain_pending {
            let flow_stat = ns.win_sigs.l1_distance(&ns.base_sigs);
            let dur_stat = match (
                ns.win_sketch.percentile(quantile),
                ns.base_sketch.percentile(quantile),
            ) {
                (Some(win), Some(base)) if base > 0.0 => (win - base).abs() / base,
                _ => 0.0,
            };
            let tripped = ns.ph_flow.observe(flow_stat) | ns.ph_duration.observe(dur_stat);
            if tripped && !ns.detector.is_collect_only() {
                // Forget the old regime so the rebuild trains purely on
                // post-drift traffic, then wait for it to accumulate.
                ns.builder.reset();
                ns.retrain_pending = true;
                ns.ph_duration.reset();
                ns.ph_flow.reset();
            }
        }
        ns.win_sketch = QuantileSketch::new(policy.sketch_alpha);
        ns.win_sigs = DecayedFrequency::new(1.0);
    }

    /// Flush every tenant's open detection windows and return the events,
    /// tagged with their tenant.
    pub fn finish(&mut self) -> Vec<(TenantId, AnomalyEvent)> {
        let mut out = Vec::new();
        for (&tenant, ns) in &mut self.namespaces {
            for event in ns.detector.flush() {
                out.push((tenant, event));
            }
        }
        out
    }

    /// Register per-tenant adapt metrics (generation, drift swaps,
    /// windows, observed tasks) on `registry`, each labelled with its
    /// tenant. Scrape-time reads of shared atomics: zero hot-path cost.
    pub fn register_metrics(&self, registry: &Registry) {
        for (&tenant, ns) in &self.namespaces {
            let label = tenant.to_string();
            let c = Arc::clone(&ns.counters);
            registry.register_gauge_fn(
                "saad_tenant_model_generation",
                "Model generation installed for this tenant",
                &[("tenant", &label)],
                move || c.generation.load(Ordering::SeqCst) as i64,
            );
            let c = Arc::clone(&ns.counters);
            registry.register_counter_fn(
                "saad_tenant_drift_swaps_total",
                "Drift-triggered model swaps for this tenant",
                &[("tenant", &label)],
                move || c.drift_swaps.load(Ordering::SeqCst),
            );
            let c = Arc::clone(&ns.counters);
            registry.register_counter_fn(
                "saad_tenant_adapt_windows_total",
                "Adapt windows evaluated for this tenant",
                &[("tenant", &label)],
                move || c.windows_evaluated.load(Ordering::SeqCst),
            );
            let c = Arc::clone(&ns.counters);
            registry.register_counter_fn(
                "saad_tenant_tasks_observed_total",
                "Tasks routed to this tenant",
                &[("tenant", &label)],
                move || c.observed.load(Ordering::SeqCst),
            );
        }
    }

    /// Detector configuration shared by every namespace.
    pub fn detector_config(&self) -> &DetectorConfig {
        &self.detector_config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saad_core::detector::AnomalyKind;
    use saad_core::{StageId, TaskUid};
    use saad_logging::LogPointId;
    use saad_sim::SimDuration;

    fn synopsis(host: u16, minute: u64, idx: u64, dur_us: u64, points: &[u16]) -> TaskSynopsis {
        TaskSynopsis {
            host: HostId(host),
            stage: StageId(1),
            uid: TaskUid(minute * 1_000 + idx),
            start: SimTime::from_mins(minute) + SimDuration::from_millis(idx * 200),
            duration: SimDuration::from_micros(dur_us),
            log_points: points.iter().map(|&p| (LogPointId(p), 1)).collect(),
        }
    }

    fn two_tenant_router() -> TenantRouter {
        let mut router = TenantRouter::new();
        router.assign(HostId(0), TenantId(1));
        router.assign(HostId(1), TenantId(2));
        router
    }

    fn quick_policy() -> AdaptPolicy {
        AdaptPolicy {
            window: SimDuration::from_mins(1),
            min_window_samples: 50,
            cooldown_windows: 1,
            ..AdaptPolicy::default()
        }
    }

    fn monitor() -> AdaptiveMonitor {
        AdaptiveMonitor::new(
            two_tenant_router(),
            DetectorConfig::default(),
            ModelConfig::default(),
            quick_policy(),
            300,
        )
    }

    /// Feed `mins` minutes of healthy traffic for `host` at 240
    /// tasks/min, durations scaled by `factor`.
    fn feed(
        m: &mut AdaptiveMonitor,
        host: u16,
        start_min: u64,
        mins: u64,
        factor: f64,
    ) -> Vec<AnomalyEvent> {
        let mut events = Vec::new();
        for minute in start_min..start_min + mins {
            for i in 0..240u64 {
                let dur = ((1_000 + (i % 53) * 5) as f64 * factor) as u64;
                events.extend(m.observe(&synopsis(host, minute, i, dur, &[1, 2])));
            }
        }
        events
    }

    #[test]
    fn router_defaults_and_assignments() {
        let router = two_tenant_router();
        assert_eq!(router.route(HostId(0)), TenantId(1));
        assert_eq!(router.route(HostId(1)), TenantId(2));
        assert_eq!(router.route(HostId(99)), TenantId::DEFAULT);
        assert_eq!(
            router.tenants(),
            vec![TenantId::DEFAULT, TenantId(1), TenantId(2)]
        );
    }

    #[test]
    fn tenants_promote_independently() {
        let mut m = monitor();
        assert!(m.is_collect_only(TenantId(1)));
        feed(&mut m, 0, 0, 3, 1.0);
        assert!(!m.is_collect_only(TenantId(1)), "tenant 1 promoted");
        assert!(m.is_collect_only(TenantId(2)), "tenant 2 saw no traffic");
        assert_eq!(m.generation(TenantId(1)), 1);
        assert_eq!(m.generation(TenantId(2)), 0);
    }

    #[test]
    fn drift_in_one_tenant_leaves_the_other_untouched() {
        let mut m = monitor();
        // Both tenants promote on healthy traffic.
        feed(&mut m, 0, 0, 6, 1.0);
        feed(&mut m, 1, 0, 6, 1.0);
        let gen_b = m.generation(TenantId(2));
        // Tenant 1 drifts hard; tenant 2 stays healthy.
        let a_events = feed(&mut m, 0, 6, 8, 5.0);
        let b_events = feed(&mut m, 1, 6, 8, 1.0);
        assert!(m.drift_swaps(TenantId(1)) >= 1, "tenant 1 re-adapted");
        assert_eq!(m.drift_swaps(TenantId(2)), 0);
        assert_eq!(
            m.generation(TenantId(2)),
            gen_b,
            "tenant 2 generation unchanged"
        );
        assert!(
            !a_events.is_empty(),
            "drift surfaces as anomalies before the re-adapt lands"
        );
        let b_perf = b_events.iter().filter(|e| e.kind.is_performance()).count();
        assert_eq!(b_perf, 0, "healthy tenant stays quiet");
    }

    #[test]
    fn new_signature_burst_detected_after_promotion() {
        let mut m = monitor();
        feed(&mut m, 0, 0, 3, 1.0);
        assert!(!m.is_collect_only(TenantId(1)));
        // A burst of a never-before-seen signature.
        let mut events = Vec::new();
        for i in 0..100u64 {
            events.extend(m.observe(&synopsis(0, 3, i, 1_000, &[7, 8, 9])));
        }
        events.extend(m.finish().into_iter().map(|(_, e)| e));
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, AnomalyKind::FlowNew(_))),
            "new-signature burst must be reported"
        );
    }

    #[test]
    fn metrics_render_with_tenant_labels() {
        let mut m = monitor();
        feed(&mut m, 0, 0, 3, 1.0);
        let registry = Registry::new();
        m.register_metrics(&registry);
        let text = registry.render();
        assert!(text.contains("saad_tenant_model_generation{tenant=\"tenant1\"} 1"));
        assert!(text.contains("saad_tenant_drift_swaps_total{tenant=\"tenant2\"} 0"));
        assert!(text.contains("saad_tenant_tasks_observed_total{tenant=\"tenant1\"}"));
    }
}
