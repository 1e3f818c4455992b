//! Gray-failure scenario harness: train on healthy relay traffic, replay
//! each catalog scenario, and reconcile the detector's anomalies against
//! the scenario's ground-truth oracle (which stage, which hosts).
//!
//! The oracle match is exact: a scenario counts as *detected* only when
//! anomalies appear on the catalog's faulty stage and the set of hosts
//! flagged on that stage equals the catalog's host set. On top of the
//! verdict, each replay records detection latency (fault start → close of
//! the first matching window) and precision/recall over the fault span —
//! the numbers `BENCH_gray_failure.json` reports per scenario. Its events
//! go to the `ledger/gray` panel named after it.

use crate::ledger::{AnomalyClass, Panel};
use saad_core::detector::{AnomalyEvent, AnomalyKind, DetectorConfig};
use saad_core::model::{ModelConfig, OutlierModel};
use saad_core::pipeline::ModelSink;
use saad_fault::catalog::{gray_catalog, GrayScenario};
use saad_relay::{RelayCluster, RelayConfig};
use saad_sim::SimTime;
use std::sync::Arc;

/// Reconciled outcome of one gray-failure scenario replay.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Catalog scenario name (e.g. `slow-upstream`).
    pub name: &'static str,
    /// The stage the fault degrades (the oracle).
    pub stage: &'static str,
    /// The hosts the fault degrades (the oracle).
    pub oracle_hosts: Vec<u16>,
    /// Hosts flagged on the oracle stage during the fault span, ascending.
    pub detected_hosts: Vec<u16>,
    /// Fault start → close of the first matching window, in seconds.
    /// `None` when the scenario went undetected.
    pub detection_latency_s: Option<f64>,
    /// Matching events / all events in the fault span (strict: every
    /// in-span non-oracle event counts against precision).
    pub precision: f64,
    /// Precision with ±1-window oracle tolerance: non-matching events
    /// whose window touches the first or last window of the fault span
    /// are excluded from the denominator. Windows that only partially
    /// overlap a fault's onset or decay smear its effects onto adjacent
    /// hosts and stages; this mode separates that boundary dilution from
    /// genuine mid-span misattribution. Always ≥ `precision`.
    pub precision_tolerant: f64,
    /// Detected oracle hosts / oracle hosts.
    pub recall: f64,
    /// Events on the oracle stage and an oracle host in the fault span.
    pub matching_events: usize,
    /// Non-matching in-span events excluded by the ±1-window tolerance.
    pub tolerated_events: usize,
    /// All anomaly events whose window overlaps the fault span.
    pub events_in_span: usize,
    /// All anomaly events of the whole replay.
    pub total_events: usize,
    /// Gray disturbances the schedule actually injected.
    pub injected: u64,
    /// Every event of the replay, as its `ledger/gray` panel.
    pub ledger: Panel,
}

impl ScenarioResult {
    /// Whether the detector localized the fault exactly: the host set
    /// flagged on the oracle stage equals the oracle host set.
    pub fn exact_localization(&self) -> bool {
        self.detected_hosts == self.oracle_hosts
    }
}

/// Name of the healthy control's panel: a replay with nothing injected.
const HEALTHY_CONTROL: &str = "healthy-control";

/// What a catalog scenario injects: a slower stage (contextual) or log
/// points that form a signature training never saw (collective).
fn class(scenario: &str) -> AnomalyClass {
    match scenario {
        "slow-upstream" | "correlated-hog" | "asymmetric-partition" | "slow-dns" => {
            AnomalyClass::Contextual
        }
        "retry-storm" | "escaper-flap" => AnomalyClass::Collective,
        HEALTHY_CONTROL => AnomalyClass::Control,
        other => panic!("gray scenario {other} has no anomaly class"),
    }
}

/// Train an outlier model from a fault-free relay run.
pub fn train_relay(cfg: RelayConfig, mins: u64, rate: f64) -> Arc<OutlierModel> {
    let sink = Arc::new(ModelSink::new());
    let mut fleet = RelayCluster::new(cfg, sink.clone());
    let mut wl = crate::workload(cfg.seed ^ 0xBEEF, rate);
    fleet.run(&mut wl, SimTime::from_mins(mins));
    Arc::new(sink.build(ModelConfig::default()))
}

/// Replay one catalog scenario against `model` and reconcile the emitted
/// anomalies with the scenario's oracle.
pub fn run_gray_scenario(
    cfg: RelayConfig,
    model: Arc<OutlierModel>,
    scenario: GrayScenario,
    mins: u64,
    rate: f64,
) -> ScenarioResult {
    let detector_cfg = DetectorConfig::default();
    let window = detector_cfg.window;
    let (events, (out, stages)) = crate::detect(model, detector_cfg, |sink| {
        let mut fleet = RelayCluster::new(cfg, sink);
        fleet.attach_gray(scenario.schedule);
        let stages = fleet.instrumentation().stages_registry.clone();
        let mut wl = crate::workload(cfg.seed, rate);
        (fleet.run(&mut wl, SimTime::from_mins(mins)), stages)
    });
    let oracle_stage = *stages
        .lookup_all(&[scenario.stage])
        .unwrap_or_else(|miss| panic!("catalog stage {miss} not in the relay registry"))
        .first()
        .expect("one name resolves to one id");
    let class = class(scenario.name);
    let about = match class {
        AnomalyClass::Control => format!("nothing injected in {mins} min"),
        _ => format!(
            "{} on hosts {:?} from minute {} to {} of {mins}",
            scenario.stage,
            scenario.hosts,
            scenario.start.as_mins_f64(),
            scenario.end.as_mins_f64()
        ),
    };
    let mut ledger = Panel::new(scenario.name, class, &about);
    ledger.record(0, &events, &stages);

    // A window matches the fault span when it closes after the fault
    // starts and opens no later than one window after it ends (effects of
    // a fault ending mid-window surface at that window's close).
    let span_end = scenario.end + window;
    let in_span =
        |e: &AnomalyEvent| e.window_start + window > scenario.start && e.window_start < span_end;
    let statistical = |e: &AnomalyEvent| {
        !matches!(
            e.kind,
            AnomalyKind::HostSilent { .. } | AnomalyKind::ModelUnavailable
        )
    };

    // ±1-window oracle tolerance: a window that only partially overlaps
    // the fault's onset (opens within one window of `start`) or decay
    // (closes after `end`) sees a mix of healthy and degraded traffic,
    // so its non-oracle flags are boundary dilution rather than genuine
    // mid-span misattribution. Tolerant precision drops those boundary
    // non-matches from the denominator; matches always count.
    let on_boundary = |e: &AnomalyEvent| {
        e.window_start < scenario.start + window || e.window_start + window > scenario.end
    };

    let events_in_span = events
        .iter()
        .filter(|e| statistical(e) && in_span(e))
        .count();
    let is_match = |e: &AnomalyEvent| e.stage == oracle_stage && scenario.hosts.contains(&e.host.0);
    let matching: Vec<&AnomalyEvent> = events
        .iter()
        .filter(|e| statistical(e) && in_span(e) && is_match(e))
        .collect();
    let tolerated_events = events
        .iter()
        .filter(|e| statistical(e) && in_span(e) && !is_match(e) && on_boundary(e))
        .count();
    let mut detected_hosts: Vec<u16> = events
        .iter()
        .filter(|e| statistical(e) && in_span(e) && e.stage == oracle_stage)
        .map(|e| e.host.0)
        .collect();
    detected_hosts.sort_unstable();
    detected_hosts.dedup();

    let detection_latency_s = matching
        .iter()
        .map(|e| e.window_start + window)
        .min()
        .map(|close| close.saturating_since(scenario.start).as_secs_f64());
    let covered = scenario
        .hosts
        .iter()
        .filter(|h| matching.iter().any(|e| e.host.0 == **h))
        .count();

    ScenarioResult {
        name: scenario.name,
        stage: scenario.stage,
        oracle_hosts: scenario.hosts.clone(),
        detected_hosts,
        detection_latency_s,
        precision: if events_in_span == 0 {
            1.0
        } else {
            matching.len() as f64 / events_in_span as f64
        },
        precision_tolerant: {
            let denom = events_in_span - tolerated_events;
            if denom == 0 {
                1.0
            } else {
                matching.len() as f64 / denom as f64
            }
        },
        recall: covered as f64 / scenario.hosts.len() as f64,
        matching_events: matching.len(),
        tolerated_events,
        events_in_span,
        total_events: events.len(),
        injected: out.gray_injected,
        ledger,
    }
}

/// Run the full gray-failure catalog: one healthy training run, then one
/// replay per scenario. Returns one result per catalog entry — nothing is
/// skipped.
pub fn run_gray_catalog(seed: u64, train_mins: u64, replay_mins: u64) -> Vec<ScenarioResult> {
    let rate = 60.0;
    let cfg = RelayConfig {
        seed,
        ..RelayConfig::default()
    };
    let model = train_relay(cfg, train_mins, rate);
    let scenarios = gray_catalog(seed);
    let expected = scenarios.len();
    let results: Vec<ScenarioResult> = scenarios
        .into_iter()
        .map(|s| run_gray_scenario(cfg, model.clone(), s, replay_mins, rate))
        .collect();
    assert_eq!(
        results.len(),
        expected,
        "every catalog scenario must produce a result"
    );
    results
}

/// The catalog's healthy control: the same training and replay with
/// nothing injected. Its replay is a slow-upstream scenario whose schedule
/// never fires, so the result still names that scenario's stage and hosts
/// as the ones that must stay quiet; what the scenarios detect is the
/// fault, not the train/replay seed mismatch.
pub fn run_healthy_control(seed: u64, train_mins: u64, replay_mins: u64) -> ScenarioResult {
    let rate = 60.0;
    let cfg = RelayConfig {
        seed,
        ..RelayConfig::default()
    };
    let model = train_relay(cfg, train_mins, rate);
    let mut scenario = saad_fault::catalog::gray_slow_upstream(seed);
    scenario.name = HEALTHY_CONTROL;
    scenario.schedule = saad_fault::GraySchedule::new(1);
    run_gray_scenario(cfg, model, scenario, replay_mins, rate)
}

/// Render scenario results as the `BENCH_gray_failure.json` document.
pub fn render_gray_json(results: &[ScenarioResult]) -> String {
    let mut out = String::from("{\n  \"bench\": \"gray_failure\",\n  \"scenarios\": [\n");
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        let hosts = |hs: &[u16]| {
            hs.iter()
                .map(|h| h.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        let latency = match r.detection_latency_s {
            Some(s) => format!("{s:.1}"),
            None => "null".to_owned(),
        };
        out.push_str(&format!(
            "    {{ \"name\": \"{}\", \"stage\": \"{}\", \"oracle_hosts\": [{}], \
             \"detected_hosts\": [{}], \"detection_latency_s\": {}, \"precision\": {:.3}, \
             \"precision_tolerant\": {:.3}, \"recall\": {:.3}, \"matching_events\": {}, \
             \"tolerated_events\": {}, \"events_in_span\": {}, \
             \"total_events\": {}, \"injected\": {} }}{sep}\n",
            r.name,
            r.stage,
            hosts(&r.oracle_hosts),
            hosts(&r.detected_hosts),
            latency,
            r.precision,
            r.precision_tolerant,
            r.recall,
            r.matching_events,
            r.tolerated_events,
            r.events_in_span,
            r.total_events,
            r.injected,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
