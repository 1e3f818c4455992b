//! End-to-end adaptive maintenance: mid-stream drift is absorbed by an
//! automatic in-band hot swap, and the re-adapted model still catches a
//! genuine anomaly afterwards — with exact stage and host localization.
//! Separately, tenancy is proven to isolate: drift in tenant A swaps A's
//! model only, while tenant B's generation and event output stay
//! byte-for-byte identical to a run where A never drifted.

mod common;

use crossbeam_channel::unbounded;
use saad::adapt::{AdaptiveMonitor, TenantRouter};
use saad::core::detector::{AnomalyEvent, AnomalyKind, DetectorConfig};
use saad::core::model::ModelConfig;
use saad::core::pipeline::{
    spawn_analyzer_pool, AdaptPolicy, LifecycleConfig, PoolStart, SupervisorConfig,
};
use saad::core::prelude::*;
use saad::logging::LogPointId;
use saad::sim::{SimDuration, SimTime};
use std::path::{Path, PathBuf};

/// Self-cleaning unique temp directory (no tempfile crate).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("saad-adapt-e2e-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn synopsis(host: u16, points: &[u16], dur_us: u64, start: SimTime, uid: u64) -> TaskSynopsis {
    TaskSynopsis {
        host: HostId(host),
        stage: StageId(1),
        uid: TaskUid(uid),
        start,
        duration: SimDuration::from_micros(dur_us),
        log_points: points.iter().map(|&p| (LogPointId(p), 1)).collect(),
    }
}

/// Minutes of traffic at 240 tasks/min over hosts 0/1, durations scaled
/// by `factor`, uids offset so streams concatenate.
fn scaled_stream(start_min: u64, mins: u64, factor: f64) -> Vec<TaskSynopsis> {
    let per_min = 240u64;
    let mut out = Vec::new();
    let mut uid = start_min * per_min;
    for minute in start_min..start_min + mins {
        for i in 0..per_min {
            let dur = ((1_000 + (uid % 53) * 5) as f64 * factor) as u64;
            let start = SimTime::from_mins(minute) + SimDuration::from_millis(i * 250);
            out.push(synopsis((i % 2) as u16, &[1, 2], dur, start, uid));
            uid += 1;
        }
    }
    out
}

#[test]
fn mid_stream_drift_is_absorbed_and_post_swap_anomaly_localized() {
    let dir = TempDir::new("drift-swap");
    let (batch_tx, batch_rx) = unbounded();
    let start = PoolStart::Store {
        dir: dir.path().into(),
        lifecycle: LifecycleConfig {
            checkpoint_every: 0,
            promote_after: 300,
            min_retrain_samples: 200,
            // One-to-two adapt windows of traffic, so the post-drift
            // retrain trains on the new regime, not a stale mixture.
            retrain_window: 500,
            adapt: Some(AdaptPolicy {
                window: SimDuration::from_secs(60),
                min_window_samples: 50,
                cooldown_windows: 1,
                ..AdaptPolicy::default()
            }),
            ..LifecycleConfig::default()
        },
    };
    let (config, supervisor) = (DetectorConfig::default(), SupervisorConfig::default());
    let pool = spawn_analyzer_pool(start, config, supervisor, 2, batch_rx).unwrap();
    let interner = pool.interner();
    let feed = |synopses: &[TaskSynopsis]| {
        for chunk in synopses.chunks(60) {
            batch_tx.send(common::soa(chunk, &interner)).unwrap();
        }
    };

    // Healthy run-in, then every duration quintuples: the new normal.
    feed(&scaled_stream(0, 6, 1.0));
    feed(&scaled_stream(6, 6, 5.0));
    // After the drift has been absorbed, a genuine anomaly: host 0
    // bursts a never-trained signature amid continued drifted traffic.
    let mut tail = scaled_stream(12, 2, 5.0);
    for i in 0..120u64 {
        let start = SimTime::from_mins(12) + SimDuration::from_millis(i * 500);
        tail.push(synopsis(0, &[1, 9], 5_000, start, 1_000_000 + i));
    }
    tail.sort_by_key(|s| s.start);
    feed(&tail);
    drop(batch_tx);

    let mut events: Vec<AnomalyEvent> = Vec::new();
    while let Ok(e) = pool.events().recv() {
        events.push(e);
    }
    assert!(pool.is_detecting(), "pool never promoted");
    assert!(
        pool.drift_swaps() >= 1,
        "sustained drift must auto-swap (adapt windows: {})",
        pool.adapt_windows()
    );

    // The re-adapted model still catches the injected anomaly…
    let after_probe: Vec<&AnomalyEvent> = events
        .iter()
        .filter(|e| e.window_start >= SimTime::from_mins(12) && e.kind.is_flow())
        .collect();
    assert!(
        after_probe
            .iter()
            .any(|e| matches!(e.kind, AnomalyKind::FlowNew(_))),
        "post-swap new-signature burst went undetected: {events:?}"
    );
    // …with exact localization: every post-probe flow anomaly names the
    // burst's host and stage, nothing else lights up.
    for e in &after_probe {
        assert_eq!(e.host, HostId(0), "wrong host localized: {e:?}");
        assert_eq!(e.stage, StageId(1), "wrong stage localized: {e:?}");
    }
    // And the absorbed drift is quiet: no performance anomalies in the
    // probe span from the background (drifted-but-retrained) traffic.
    let post_perf = events
        .iter()
        .filter(|e| e.window_start >= SimTime::from_mins(12) && e.kind.is_performance())
        .count();
    assert_eq!(
        post_perf, 0,
        "re-adapted model still flags the absorbed regime"
    );
    pool.join().unwrap();
}

/// Run the two-tenant monitor; tenant A (hosts 0/1) optionally drifts at
/// minute 6, tenant B (hosts 2/3) always stays healthy. Returns B's full
/// event stream and the monitor for counter inspection.
fn run_two_tenants(a_drifts: bool) -> (Vec<AnomalyEvent>, AdaptiveMonitor) {
    let mut router = TenantRouter::new();
    for h in [0u16, 1] {
        router.assign(HostId(h), TenantId(1));
    }
    for h in [2u16, 3] {
        router.assign(HostId(h), TenantId(2));
    }
    let mut monitor = AdaptiveMonitor::new(
        router,
        DetectorConfig::default(),
        ModelConfig::default(),
        AdaptPolicy {
            window: SimDuration::from_secs(60),
            min_window_samples: 50,
            cooldown_windows: 1,
            ..AdaptPolicy::default()
        },
        300,
    );
    let mut b_events = Vec::new();
    for minute in 0..14u64 {
        for i in 0..240u64 {
            let uid = minute * 240 + i;
            let start = SimTime::from_mins(minute) + SimDuration::from_millis(i * 250);
            let a_factor = if a_drifts && minute >= 6 { 5.0 } else { 1.0 };
            let a_dur = ((1_000 + (uid % 53) * 5) as f64 * a_factor) as u64;
            monitor.observe(&synopsis((i % 2) as u16, &[1, 2], a_dur, start, uid));
            let b_dur = 1_000 + (uid % 53) * 5;
            b_events.extend(monitor.observe(&synopsis(
                2 + (i % 2) as u16,
                &[1, 2],
                b_dur,
                start,
                1_000_000 + uid,
            )));
        }
    }
    for (tenant, e) in monitor.finish() {
        if tenant == TenantId(2) {
            b_events.push(e);
        }
    }
    (b_events, monitor)
}

#[test]
fn drift_in_tenant_a_leaves_tenant_b_byte_identical() {
    let (b_quiet, m_quiet) = run_two_tenants(false);
    let (b_drift, m_drift) = run_two_tenants(true);

    // A re-adapted; B did not.
    assert!(
        m_drift.drift_swaps(TenantId(1)) >= 1,
        "tenant A never re-adapted"
    );
    assert_eq!(m_drift.drift_swaps(TenantId(2)), 0);
    assert_eq!(
        m_drift.generation(TenantId(2)),
        m_quiet.generation(TenantId(2)),
        "tenant B's generation moved because A drifted"
    );
    // B's entire event stream is unchanged by A's drift.
    assert_eq!(
        b_drift, b_quiet,
        "tenant B's output changed because tenant A drifted"
    );
}
