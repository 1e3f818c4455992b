//! End-to-end adaptive maintenance in the lifecycle pool: mid-stream drift
//! is absorbed by an automatic in-band hot swap, and the re-adapted model
//! still catches a genuine anomaly afterwards — with exact stage and host
//! localization. Separately, tenancy is proven to isolate: drift in tenant
//! A swaps A's model only, while tenant B's generation and event output
//! stay byte-for-byte identical to a run where A never drifted.

use crossbeam_channel::unbounded;
use saad::core::batch::SynopsisBatch;
use saad::core::detector::{AnomalyEvent, AnomalyKind, DetectorConfig};
use saad::core::pipeline::{
    spawn_analyzer_pool, AdaptPolicy, LifecycleConfig, PoolHandle, PoolStart, SupervisorConfig,
    TenantRouter,
};
use saad::core::synopsis::TaskSynopsis;
use saad::core::testkit::{event_keys, soa, TempDir};
use saad::core::{HostId, StageId, TaskUid, TenantId};
use saad::logging::LogPointId;
use saad::sim::{SimDuration, SimTime};

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

/// The adaptive lifecycle both tests run: one-minute adapt windows, and
/// a ring of one to two windows of traffic, so the post-drift retrain
/// trains on the new regime, not a stale mixture.
fn adaptive(tenants: TenantRouter) -> LifecycleConfig {
    LifecycleConfig {
        checkpoint_every: 0,
        promote_after: 300,
        min_retrain_samples: 200,
        retrain_window: 500,
        adapt: Some(AdaptPolicy {
            window: SimDuration::from_secs(60),
            min_window_samples: 50,
            cooldown_windows: 1,
        }),
        tenants,
        ..LifecycleConfig::default()
    }
}

/// A pool of `workers` shards per tenant over a fresh store in `dir`.
fn spawn(
    dir: &TempDir,
    lifecycle: LifecycleConfig,
    workers: usize,
) -> (crossbeam_channel::Sender<SynopsisBatch>, PoolHandle) {
    let (batch_tx, batch_rx) = unbounded();
    let start = PoolStart::Store {
        dir: dir.path().into(),
        lifecycle,
    };
    let (config, supervisor) = (DetectorConfig::default(), SupervisorConfig::default());
    let pool = spawn_analyzer_pool(start, config, supervisor, workers, batch_rx).unwrap();
    (batch_tx, pool)
}

#[test]
fn mid_stream_drift_is_absorbed_and_post_swap_anomaly_localized() {
    let dir = TempDir::new("drift-swap");
    let (batch_tx, pool) = spawn(&dir, adaptive(TenantRouter::new()), 2);
    let interner = pool.interner();
    let feed = |synopses: &[TaskSynopsis]| {
        for chunk in synopses.chunks(60) {
            batch_tx.send(soa(chunk, &interner)).unwrap();
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
    let tenant = TenantId::DEFAULT;
    assert!(pool.is_detecting(tenant), "pool never promoted");
    assert!(
        pool.drift_swaps(tenant) >= 1,
        "sustained drift must auto-swap (adapt windows: {})",
        pool.adapt_windows(tenant)
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

/// Run a two-tenant pool of `workers` shards per tenant: tenant A (hosts
/// 0/1) optionally drifts at minute 6 — a rollout, durations ×5 on a new
/// signature, so a model A retrains would flag all of B's traffic had it
/// reached B's slots — and tenant B (hosts 2/3) always stays healthy.
/// Returns B's full event list, sorted, and A's drift swaps, B's drift
/// swaps and B's model generation at the end.
fn run_two_tenants(a_drifts: bool, workers: usize) -> (Vec<String>, [u64; 3]) {
    let (a, b) = (TenantId(1), TenantId(2));
    let mut tenants = TenantRouter::new();
    for h in [0u16, 1] {
        tenants.assign(HostId(h), a);
    }
    for h in [2u16, 3] {
        tenants.assign(HostId(h), b);
    }
    let dir = TempDir::new(&format!("tenants-{a_drifts}-{workers}"));
    let (batch_tx, pool) = spawn(&dir, adaptive(tenants), workers);
    let mut stream = Vec::new();
    for minute in 0..14u64 {
        for i in 0..240u64 {
            let uid = minute * 240 + i;
            let start = SimTime::from_mins(minute) + SimDuration::from_millis(i * 250);
            let drifted = a_drifts && minute >= 6;
            let (a_factor, a_points) = if drifted {
                (5.0, [1, 4])
            } else {
                (1.0, [1, 2])
            };
            let a_dur = ((1_000 + (uid % 53) * 5) as f64 * a_factor) as u64;
            stream.push(synopsis((i % 2) as u16, &a_points, a_dur, start, uid));
            let b_dur = 1_000 + (uid % 53) * 5;
            let b_host = 2 + (i % 2) as u16;
            stream.push(synopsis(b_host, &[1, 2], b_dur, start, 1_000_000 + uid));
        }
    }
    let interner = pool.interner();
    for chunk in stream.chunks(60) {
        batch_tx.send(soa(chunk, &interner)).unwrap();
    }
    drop(batch_tx);
    let events: Vec<AnomalyEvent> = pool.events().iter().collect();
    let counts = [pool.drift_swaps(a), pool.drift_swaps(b), pool.generation(b)];
    pool.join().unwrap();
    let of_b: Vec<AnomalyEvent> = events.into_iter().filter(|e| e.host.0 >= 2).collect();
    (event_keys(&of_b), counts)
}

#[test]
fn drift_in_tenant_a_leaves_tenant_b_byte_identical() {
    for workers in [1usize, 2] {
        let (b_quiet, [_, _, generation_quiet]) = run_two_tenants(false, workers);
        let (b_drift, [a_swaps, b_swaps, generation_drift]) = run_two_tenants(true, workers);

        // A re-adapted; B did not.
        assert!(
            a_swaps >= 1,
            "tenant A never re-adapted ({workers} workers)"
        );
        assert_eq!(b_swaps, 0, "{workers} workers");
        assert_eq!(
            generation_drift, generation_quiet,
            "tenant B's generation moved because A drifted ({workers} workers)"
        );
        // B's entire event list is unchanged by A's drift.
        assert!(!b_quiet.is_empty(), "B's bootstrap windows report");
        assert_eq!(
            b_drift, b_quiet,
            "tenant B's output changed because tenant A drifted ({workers} workers)"
        );
    }
}
