//! Drift ablation harness: adaptive vs frozen model maintenance, on the
//! lifecycle pool.
//!
//! Replays drift scenarios through two pools that start from an empty
//! store and differ in one setting only — one runs with
//! [`LifecycleConfig::adapt`] on (*adaptive*), the other without it
//! (*frozen*, the ablation: it promotes once at bootstrap and never swaps
//! again) — and reconciles their anomaly output minute by minute:
//!
//! * **rollout** — a deployment replaces the dominant signature and
//!   doubles durations (new code path, new timing);
//! * **new-signature-burst** — 30 % of traffic starts emitting a
//!   never-trained signature (partial rollout, flow-share drift).
//!
//! A pure load shift (every duration 5×, signatures unchanged) is not in
//! the catalog. A step that large trips the duration test at the first
//! window edge after a drifted window, exactly as a rollout's does, and
//! the retrain then waits for the same refill of the ring, so its
//! adaptive row was the rollout's to the digit. The rollout stays because
//! its frozen run also misses the probe.
//!
//! After the drift settles, a genuine anomaly burst is injected on one
//! host and must still be caught by the re-adapted model — adaptation
//! must not cost detection. The numbers written to `BENCH_drift.json`
//! are the per-minute false-positive curves (the time-to-readapt curve),
//! the re-adapt latency, and the post-swap probe precision/recall.
//!
//! The pool's lifecycle steps fall on rows the stream fixes — promotion
//! right after its 300th synopsis, drift closes and swaps at window edges
//! — so the outcome does not depend on how the stream is cut into
//! batches; it goes in as batches of a quarter minute. After each one the
//! harness waits — yielding, never sleeping — until the router has
//! finished it, lifecycle work included, and reads the time to re-adapt
//! in stream time: the window edge of the first drift swap. Each run's
//! events go to its `ledger/drift` panel.

use crate::ledger::{AnomalyClass, Panel};
use crossbeam_channel::unbounded;
use saad_core::batch::SynopsisBatch;
use saad_core::detector::{AnomalyEvent, DetectorConfig};
use saad_core::pipeline::{spawn_analyzer_pool, LifecycleConfig, PoolStart, SupervisorConfig};
use saad_core::synopsis::TaskSynopsis;
use saad_core::{HostId, StageId, StageRegistry, TaskUid, TenantId};
use saad_logging::LogPointId;
use saad_sim::{SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};

/// Minutes of healthy lead-in (training + quiet baseline windows).
pub const HEALTHY_MINS: u64 = 6;
/// Minute the drift starts (and never stops — it is the new normal).
pub const DRIFT_MIN: u64 = HEALTHY_MINS;
/// Minute the post-swap anomaly probe is injected.
pub const PROBE_MIN: u64 = 16;
/// Total replayed minutes (probe minute inclusive).
pub const TOTAL_MINS: u64 = PROBE_MIN + 1;
/// Last drifted minutes (before the probe) used for the quiet-tail
/// false-positive comparison.
pub const TAIL_MINS: u64 = 4;
/// Healthy tasks per minute (split over two hosts).
pub const PER_MIN: u64 = 240;
/// Tasks per input batch: a quarter minute.
const BATCH: usize = (PER_MIN / 4) as usize;

/// One drift shape of the ablation catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftKind {
    /// The dominant signature is replaced and durations double.
    Rollout,
    /// 30 % of traffic adds a never-trained signature.
    NewSignatureBurst,
}

impl DriftKind {
    /// Catalog name.
    pub fn name(&self) -> &'static str {
        match self {
            DriftKind::Rollout => "rollout",
            DriftKind::NewSignatureBurst => "new-signature-burst",
        }
    }

    /// What the drift changes, for the ledger.
    fn about(&self) -> &'static str {
        match self {
            DriftKind::Rollout => "the dominant signature replaced, durations doubled",
            DriftKind::NewSignatureBurst => "30 % of tasks on a never-trained signature",
        }
    }

    /// The full catalog, in a fixed order.
    pub fn catalog() -> [DriftKind; 2] {
        [DriftKind::Rollout, DriftKind::NewSignatureBurst]
    }

    /// Duration multiplier and log points for task `i` of a drifted
    /// minute (healthy traffic is always `(1.0, [1, 2])`).
    fn drifted_shape(&self, i: u64) -> (f64, &'static [u16]) {
        match self {
            DriftKind::Rollout => (2.0, &[1, 4]),
            DriftKind::NewSignatureBurst => {
                if i % 10 < 3 {
                    (1.0, &[1, 3])
                } else {
                    (1.0, &[1, 2])
                }
            }
        }
    }
}

/// Outcome of one pool run (adaptive or frozen) over a scenario.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Anomaly events per replay minute (index = minute).
    pub events_per_min: Vec<usize>,
    /// Drift-triggered swaps at the end of the run.
    pub drift_swaps: u64,
    /// Drift start → the window edge of the first drift swap, in stream
    /// seconds.
    pub time_to_readapt_s: Option<f64>,
    /// Probe-minute performance events on the probe host (true
    /// positives).
    pub probe_hits: usize,
    /// All other probe-minute events (false positives).
    pub probe_misattributed: usize,
    /// Every event of the run, as its `ledger/drift` panel.
    pub ledger: Panel,
}

impl RunOutcome {
    /// Events in the quiet tail: the last [`TAIL_MINS`] drifted minutes
    /// before the probe. Zero means the run fully absorbed the drift.
    pub fn tail_fp(&self) -> usize {
        (PROBE_MIN - TAIL_MINS..PROBE_MIN)
            .map(|m| self.events_per_min[m as usize])
            .sum()
    }

    /// Probe precision: probe-host performance events over all
    /// probe-minute events. `0.0` when the probe went undetected.
    pub fn probe_precision(&self) -> f64 {
        let total = self.probe_hits + self.probe_misattributed;
        if total == 0 {
            0.0
        } else {
            self.probe_hits as f64 / total as f64
        }
    }

    /// Probe recall: whether the injected anomaly was caught at all.
    pub fn probe_detected(&self) -> bool {
        self.probe_hits > 0
    }
}

/// Adaptive-vs-frozen outcome for one drift scenario.
#[derive(Debug, Clone)]
pub struct DriftResult {
    /// Scenario name.
    pub name: &'static str,
    /// The run with a live drift trigger.
    pub adaptive: RunOutcome,
    /// The ablation: the same pool without drift adaptation.
    pub frozen: RunOutcome,
}

fn synopsis(host: u16, minute: u64, i: u64, dur_us: u64, points: &[u16]) -> TaskSynopsis {
    TaskSynopsis {
        host: HostId(host),
        stage: StageId(1),
        uid: TaskUid(minute * 10_000 + i),
        start: SimTime::from_mins(minute) + SimDuration::from_millis(i * (60_000 / PER_MIN)),
        duration: SimDuration::from_micros(dur_us),
        log_points: points.iter().map(|&p| (LogPointId(p), 1)).collect(),
    }
}

/// The scenario's stream: two hosts at [`PER_MIN`], drifted from
/// [`DRIFT_MIN`] on, and the probe after minute [`PROBE_MIN`].
fn stream(kind: DriftKind) -> Vec<TaskSynopsis> {
    let mut out = Vec::new();
    for minute in 0..TOTAL_MINS {
        for i in 0..PER_MIN {
            let (factor, points) = if minute >= DRIFT_MIN {
                kind.drifted_shape(i)
            } else {
                (1.0, &[1u16, 2] as &[u16])
            };
            let dur = ((1_000 + (i % 53) * 5) as f64 * factor) as u64;
            out.push(synopsis((i % 2) as u16, minute, i, dur, points));
        }
        if minute == PROBE_MIN {
            // The genuine anomaly: a burst of probe-host tasks 5× slower
            // than whatever the *current* regime is, on a trained
            // signature of that regime.
            let (factor, points) = kind.drifted_shape(5);
            for i in 0..60u64 {
                let dur = ((1_000 + (i % 53) * 5) as f64 * factor * 5.0) as u64;
                out.push(synopsis(0, minute, PER_MIN + i, dur, points));
            }
        }
    }
    out
}

/// Replay one scenario through a one-worker pool started from an empty
/// store, with drift adaptation (`adaptive`) or without it.
pub fn run_drift_once(kind: DriftKind, adaptive: bool) -> RunOutcome {
    run_drift_cut(kind, adaptive, BATCH)
}

/// [`run_drift_once`] over the stream cut into batches of `batch_len`
/// rows, each spanning at most one window edge.
fn run_drift_cut(kind: DriftKind, adaptive: bool, batch_len: usize) -> RunOutcome {
    // A store per run: tests replay one scenario side by side in a process.
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let mode = if adaptive { "adaptive" } else { "frozen" };
    let dir = std::env::temp_dir().join(format!(
        "saad-drift-{}-{}-{mode}-{}",
        std::process::id(),
        kind.name(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let lifecycle = LifecycleConfig {
        checkpoint_every: 0,
        promote_after: 300,
        min_retrain_samples: 200,
        // One to two windows of traffic, so a post-drift retrain trains
        // on the new regime, not a stale mixture.
        retrain_window: 500,
        adapt: adaptive,
        ..LifecycleConfig::default()
    };
    let start = PoolStart::Store {
        dir: dir.clone(),
        lifecycle,
    };
    let (batch_tx, batch_rx) = unbounded();
    let (config, supervisor) = (DetectorConfig::default(), SupervisorConfig::default());
    let window_us = config.window.as_micros();
    let pool = spawn_analyzer_pool(start, config, supervisor, 1, batch_rx).expect("empty store");
    let interner = pool.interner();
    let tenant = TenantId::DEFAULT;
    let mut readapt_at: Option<SimTime> = None;
    for (sent, chunk) in stream(kind).chunks(batch_len).enumerate() {
        let mut batch = SynopsisBatch::with_capacity(chunk.len());
        for s in chunk {
            batch.push_synopsis(s, &interner);
        }
        batch_tx.send(batch).expect("pool running");
        while pool.batches_routed() <= sent as u64 {
            std::thread::yield_now();
        }
        if readapt_at.is_none() && pool.drift_swaps(tenant) > 0 {
            // The swap ran at this batch's one window edge: where its
            // newest row's window starts.
            let newest = chunk.iter().map(|s| s.start.as_micros()).max();
            readapt_at = newest.map(|us| SimTime::from_micros(us / window_us * window_us));
        }
    }
    drop(batch_tx);
    let events: Vec<AnomalyEvent> = pool.events().iter().collect();
    let drift_swaps = pool.drift_swaps(tenant);
    pool.join().expect("pool ran to completion");
    let _ = std::fs::remove_dir_all(&dir);

    let mut events_per_min = vec![0usize; TOTAL_MINS as usize];
    let mut probe_hits = 0usize;
    let mut probe_misattributed = 0usize;
    for e in &events {
        let minute = (e.window_start.as_secs_f64() / 60.0) as u64;
        if minute < TOTAL_MINS {
            events_per_min[minute as usize] += 1;
        }
        if minute >= PROBE_MIN {
            if e.kind.is_performance() && e.host == HostId(0) && e.stage == StageId(1) {
                probe_hits += 1;
            } else {
                probe_misattributed += 1;
            }
        }
    }

    let about = format!(
        "{} from minute {DRIFT_MIN} on, {mode}; probe: 60 tasks 5x slower on host 0 in minute {PROBE_MIN}",
        kind.about()
    );
    let mut ledger = Panel::new(
        format!("{}-{mode}", kind.name()),
        AnomalyClass::Collective,
        &about,
    );
    ledger.record(0, &events, &StageRegistry::new());

    RunOutcome {
        events_per_min,
        drift_swaps,
        time_to_readapt_s: readapt_at
            .map(|t| t.as_secs_f64() - SimTime::from_mins(DRIFT_MIN).as_secs_f64()),
        probe_hits,
        probe_misattributed,
        ledger,
    }
}

/// Run one scenario adaptively and frozen.
pub fn run_drift_pair(kind: DriftKind) -> DriftResult {
    DriftResult {
        name: kind.name(),
        adaptive: run_drift_once(kind, true),
        frozen: run_drift_once(kind, false),
    }
}

/// The whole ablation catalog.
pub fn run_drift_catalog() -> Vec<DriftResult> {
    DriftKind::catalog()
        .into_iter()
        .map(run_drift_pair)
        .collect()
}

fn render_run(out: &RunOutcome) -> String {
    let curve = out
        .events_per_min
        .iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let readapt = match out.time_to_readapt_s {
        Some(s) => format!("{s:.1}"),
        None => "null".to_owned(),
    };
    format!(
        "{{ \"events_per_min\": [{curve}], \"drift_swaps\": {}, \
         \"time_to_readapt_s\": {readapt}, \"tail_fp\": {}, \
         \"probe_hits\": {}, \"probe_precision\": {:.3}, \
         \"probe_detected\": {} }}",
        out.drift_swaps,
        out.tail_fp(),
        out.probe_hits,
        out.probe_precision(),
        out.probe_detected(),
    )
}

/// Render the ablation results as the `BENCH_drift.json` document.
pub fn render_drift_json(results: &[DriftResult]) -> String {
    let mut out = String::from("{\n  \"bench\": \"drift\",\n  \"scenarios\": [\n");
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{ \"name\": \"{}\",\n      \"adaptive\": {},\n      \"frozen\": {} }}{sep}\n",
            r.name,
            render_run(&r.adaptive),
            render_run(&r.frozen),
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rollout_adaptive_reconverges_frozen_stays_noisy() {
        let r = run_drift_pair(DriftKind::Rollout);
        assert!(r.adaptive.drift_swaps >= 1, "adaptive never re-adapted");
        assert_eq!(r.frozen.drift_swaps, 0, "frozen must never swap");
        let t = r.adaptive.time_to_readapt_s.expect("re-adapt time");
        assert!(t <= 360.0, "re-adapt took {t}s");
        assert_eq!(r.adaptive.tail_fp(), 0, "adaptive tail not quiet");
        assert!(
            r.frozen.tail_fp() > 0,
            "frozen should keep flagging the drifted regime"
        );
        assert!(r.adaptive.probe_detected(), "post-swap anomaly missed");
        assert!(!r.frozen.probe_detected(), "stale signatures cannot see it");
    }

    #[test]
    fn the_adaptive_rollout_does_not_depend_on_the_cuts() {
        let quarters = run_drift_cut(DriftKind::Rollout, true, BATCH);
        let sevens = run_drift_cut(DriftKind::Rollout, true, 7);
        assert_eq!(quarters.drift_swaps, 1);
        assert_eq!(format!("{sevens:?}"), format!("{quarters:?}"));
    }
}
