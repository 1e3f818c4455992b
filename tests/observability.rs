//! End-to-end observability: every layer's live counters must be
//! scrapeable over real TCP as well-formed Prometheus text, and the
//! meta-monitoring loop must let SAAD flag anomalies in itself.
//!
//! * A lifecycle pool, TCP collector, agent, and instrumented tracker
//!   all register into one registry served by a `MetricsServer`; a raw
//!   `GET /metrics` over TCP must return valid exposition text whose
//!   counters reflect the traffic that actually flowed.
//! * SAAD's own pipeline stages (router ticks, shard batches, checkpoint
//!   writes) run as tracked stages via `MetaMonitor`. A healthy run
//!   trains a model of SAAD-on-SAAD; a second run with an injected
//!   200 ms checkpoint stall must then surface as a performance anomaly
//!   on the checkpoint stage — the detector catching its own subsystem.

use crossbeam_channel::unbounded;
use saad::core::batch::SynopsisBatch;
use saad::core::detector::{AnomalyEvent, AnomalyKind, DetectorConfig};
use saad::core::intern::SignatureInterner;
use saad::core::model::{ModelBuilder, ModelConfig};
use saad::core::pipeline::{
    spawn_analyzer_pool, BatchSink, LifecycleConfig, PoolHandle, PoolStart, SupervisorConfig,
};
use saad::core::selfmon::{MetaMonitor, MetaStage};
use saad::core::synopsis::TaskSynopsis;
use saad::core::testkit::{soa, TempDir};
use saad::core::tracker::{SynopsisSink, TaskExecutionTracker, TrackerMetrics, VecSink};
use saad::core::transport::FrameSender;
use saad::core::{HostId, StageId, TaskUid, TenantId};
use saad::logging::{Interceptor, Level, LogPointId};
use saad::net::protocol::{encode_hello, write_message, HELLO_ACK_LEN, PINNED_EPOCH};
use saad::net::{
    Agent, AgentConfig, Hello, PeerRole, ReactorCollector, ReactorCollectorConfig, PROTOCOL_VERSION,
};
use saad::obs::{validate_text, MetricsServer, Registry};
use saad::sim::{Clock, ManualClock, SimDuration, SimTime, WallClock};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn wait_processed(pool: &PoolHandle, target: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while pool.processed() < target {
        assert!(
            Instant::now() < deadline,
            "pool stalled at {}",
            pool.processed()
        );
        std::thread::yield_now();
    }
}

/// Scrape `addr` with a raw HTTP/1.0 GET and return (status line, body).
fn scrape(addr: std::net::SocketAddr) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\nHost: saad\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status = response.lines().next().unwrap_or_default().to_string();
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Extract the value of the first sample whose line starts with `prefix`.
fn sample_value(body: &str, prefix: &str) -> f64 {
    body.lines()
        .find(|l| l.starts_with(prefix) && !l.starts_with('#'))
        .unwrap_or_else(|| panic!("no sample starting with {prefix:?}"))
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .unwrap()
}

#[test]
fn scrape_endpoint_serves_live_metrics_from_pool_and_wire() {
    const TASKS: u64 = 600;
    let dir = TempDir::new("scrape");
    let registry = Arc::new(Registry::new());

    // Lifecycle pool behind a TCP collector, all registered.
    let (batch_tx, batch_rx) = unbounded();
    let start = PoolStart::Store {
        dir: dir.path().into(),
        lifecycle: LifecycleConfig {
            checkpoint_every: 200,
            promote_after: 300,
            min_retrain_samples: 200,
            ..LifecycleConfig::default()
        },
    };
    let supervisor = SupervisorConfig {
        silent_after: u64::MAX,
        ..SupervisorConfig::default()
    };
    let pool =
        spawn_analyzer_pool(start, DetectorConfig::default(), supervisor, 2, batch_rx).unwrap();
    pool.register_metrics(&registry);

    let collector = ReactorCollector::bind(
        "127.0.0.1:0",
        batch_tx.clone(),
        pool.interner(),
        ReactorCollectorConfig::default(),
    )
    .unwrap();
    collector.register_metrics(&registry);
    let agent = Agent::connect(collector.local_addr(), HostId(7), AgentConfig::default());
    agent.register_metrics(&registry, HostId(7));

    // An instrumented tracker drives real tasks into the agent.
    let clock = Arc::new(ManualClock::new());
    let sink = Arc::new(agent.sink(48));
    let tracker = Arc::new(TaskExecutionTracker::with_metrics(
        HostId(7),
        clock.clone() as Arc<dyn Clock>,
        sink.clone(),
        TrackerMetrics::register(&registry, HostId(7)),
    ));
    tracker.register_metrics(&registry);

    let server = MetricsServer::bind("127.0.0.1:0", registry.clone()).unwrap();

    for i in 0..TASKS {
        clock.set(SimTime::from_millis(i * 20));
        tracker.set_context(StageId(3));
        tracker.on_log_point(LogPointId(1), Level::Debug);
        clock.set(SimTime::from_millis(i * 20) + SimDuration::from_micros(900 + (i % 7) * 40));
        tracker.on_log_point(LogPointId(2), Level::Debug);
        tracker.end_task();
    }
    sink.flush();
    wait_processed(&pool, TASKS);

    // A mid-run scrape over real TCP: well-formed and live.
    let (status, body) = scrape(server.local_addr());
    assert!(status.contains("200"), "unexpected status: {status}");
    validate_text(&body).unwrap_or_else(|e| panic!("malformed exposition: {e}\n{body}"));

    assert_eq!(
        sample_value(&body, "saad_tracker_synopses_emitted_total") as u64,
        TASKS
    );
    assert_eq!(
        sample_value(&body, "saad_tracker_task_duration_us_count") as u64,
        TASKS
    );
    assert_eq!(
        sample_value(&body, "saad_agent_synopses_written_total") as u64,
        TASKS
    );
    assert_eq!(
        sample_value(&body, "saad_collector_synopses_total ") as u64,
        TASKS
    );
    assert_eq!(
        sample_value(&body, "saad_pool_processed_total") as u64,
        TASKS
    );
    assert!(sample_value(&body, "saad_collector_connections_active ") >= 1.0);
    assert!(sample_value(&body, "saad_pool_watermark_us") > 0.0);

    // The pool promoted (promote_after = 300 < TASKS) and checkpointed;
    // the latency histogram must carry those writes. A scrape renders
    // the latency family before the written count, so a write finishing
    // mid-scrape shows in the count alone: read the histogram from the
    // next scrape.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, body) = scrape(server.local_addr());
        if sample_value(&body, "saad_checkpoints_written_total") >= 1.0 {
            let (_, body) = scrape(server.local_addr());
            assert!(sample_value(&body, "saad_checkpoint_write_latency_us_count") >= 1.0);
            assert!(sample_value(&body, "saad_pool_detecting") == 1.0);
            break;
        }
        assert!(Instant::now() < deadline, "no checkpoint became visible");
        // Checkpoints land at batch boundaries; nudge the idle router.
        let _ = batch_tx.send(SynopsisBatch::new());
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(server.scrapes_served() >= 2);

    // Frames that land together go to the pool together: a peer writing
    // a run of frames in one write costs the collector fewer batches than
    // frames, and the series says so.
    const FRAMES: u64 = 20;
    send_frames_in_one_write(collector.local_addr(), HostId(8), FRAMES, TASKS * 20);
    wait_processed(&pool, TASKS + FRAMES * 16);
    let (_, body) = scrape(server.local_addr());
    let frames = sample_value(&body, "saad_collector_frames_total ");
    let batches = sample_value(&body, "saad_collector_batches_total ");
    assert!(frames >= FRAMES as f64, "{frames} frames");
    assert!(
        batches >= 1.0 && batches < frames,
        "{batches} batches for {frames} frames"
    );

    // Orderly teardown.
    server.shutdown();
    let _ = agent.close();
    collector.shutdown();
    drop(batch_tx);
    pool.join().unwrap();
}

/// Connect to `addr` as `host`, wait for the collector's ack, then write
/// `frames` frames of 16 synopses, starting at `from_ms`, in one write.
fn send_frames_in_one_write(addr: std::net::SocketAddr, host: HostId, frames: u64, from_ms: u64) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let hello = Hello {
        version: PROTOCOL_VERSION,
        host,
        next_seq: 0,
        sent_cum: 0,
        written_cum: 0,
        epoch: PINNED_EPOCH,
        role: PeerRole::Agent,
    };
    stream.write_all(&encode_hello(&hello)).unwrap();
    stream.read_exact(&mut [0; HELLO_ACK_LEN]).unwrap();
    let mut sender = FrameSender::new(host);
    let mut wire = Vec::new();
    for f in 0..frames {
        let batch: Vec<TaskSynopsis> = (0..16)
            .map(|i| TaskSynopsis {
                host,
                stage: StageId(3),
                uid: TaskUid(f * 16 + i),
                start: SimTime::from_millis(from_ms + (f * 16 + i) * 20),
                duration: SimDuration::from_micros(900 + i * 40),
                log_points: vec![(LogPointId(1), 1), (LogPointId(2), 1)],
            })
            .collect();
        write_message(&mut wire, &sender.encode_frame(&batch)).unwrap();
    }
    stream.write_all(&wire).unwrap();
}

/// Drive synthetic healthy traffic through a meta-monitored lifecycle
/// pool and return the meta synopses its ticks emitted.
fn run_meta_monitored_pool(
    dir: &Path,
    checkpoint_every: u64,
    stall: Option<Duration>,
) -> Vec<TaskSynopsis> {
    let meta_sink = Arc::new(VecSink::new());
    let meta = Arc::new(MetaMonitor::new(
        Arc::new(WallClock::new()) as Arc<dyn Clock>,
        meta_sink.clone() as Arc<dyn SynopsisSink>,
    ));
    let (batch_tx, batch_rx) = unbounded();
    let start = PoolStart::Store {
        dir: dir.into(),
        lifecycle: LifecycleConfig {
            checkpoint_every,
            promote_after: 300,
            min_retrain_samples: 200,
            meta: Some(meta.clone()),
            checkpoint_stall: stall,
            ..LifecycleConfig::default()
        },
    };
    let supervisor = SupervisorConfig {
        silent_after: u64::MAX,
        ..SupervisorConfig::default()
    };
    let pool =
        spawn_analyzer_pool(start, DetectorConfig::default(), supervisor, 2, batch_rx).unwrap();

    // Healthy two-host traffic, enough to promote and then take a steady
    // stream of checkpoints (about one per 64 synopses once detecting).
    let interner = pool.interner();
    let mut uid = 0u64;
    for minute in 0..12u64 {
        let mut batch = Vec::new();
        for i in 0..240u64 {
            batch.push(TaskSynopsis {
                host: HostId((i % 2) as u16),
                stage: StageId(0),
                uid: TaskUid(uid),
                start: SimTime::from_mins(minute) + SimDuration::from_millis(i * 250),
                duration: SimDuration::from_micros(1_000 + (uid % 53) * 5),
                log_points: vec![(LogPointId(1), 1), (LogPointId(2), 1)],
            });
            uid += 1;
            if batch.len() == 60 {
                batch_tx.send(soa(&batch, &interner)).unwrap();
                batch.clear();
            }
        }
        if !batch.is_empty() {
            batch_tx.send(soa(&batch, &interner)).unwrap();
        }
    }
    drop(batch_tx);
    while pool.events().recv().is_ok() {}
    assert!(pool.is_detecting(TenantId::DEFAULT), "pool never promoted");
    // The router has exited, but the dedicated writer thread drains its
    // checkpoint queue asynchronously (each save is a real fsync, and
    // phase B stalls each one); wait for the durable count to land.
    let deadline = Instant::now() + Duration::from_secs(60);
    while pool.checkpoints_written() < 8 {
        assert!(
            Instant::now() < deadline,
            "too few checkpoints: {}",
            pool.checkpoints_written()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    pool.join().unwrap();
    meta_sink.drain()
}

#[test]
fn meta_monitoring_flags_injected_checkpoint_stall() {
    // Phase A: a healthy run trains the SAAD-on-SAAD model. Frequent
    // checkpoints give the checkpoint stage plenty of healthy samples.
    let dir_a = TempDir::new("meta-healthy");
    let healthy = run_meta_monitored_pool(dir_a.path(), 64, None);
    let checkpoint_ticks = healthy
        .iter()
        .filter(|s| s.stage == MetaStage::Checkpoint.stage_id())
        .count();
    assert!(checkpoint_ticks >= 10, "phase A: {checkpoint_ticks} ticks");
    let mut builder = ModelBuilder::new();
    for s in &healthy {
        builder.observe(s);
    }
    let meta_model = Arc::new(builder.build(ModelConfig {
        duration_percentile: 90.0,
        kfold: 5,
        min_signature_samples: 8,
        ..ModelConfig::default()
    }));

    // Phase B: same workload, but every checkpoint write stalls 200 ms
    // (fewer, so the injected fault costs ~2 s of wall clock).
    let dir_b = TempDir::new("meta-stalled");
    let stalled = run_meta_monitored_pool(dir_b.path(), 256, Some(Duration::from_millis(200)));

    // SAAD watches itself: the healthy-trained detector reads phase B's
    // meta stream. Meta ticks are wall-clock stamped, so one wide window
    // covers the whole run.
    let interner = Arc::new(SignatureInterner::new());
    let (sink, rx) = BatchSink::new(64, interner.clone());
    let start = PoolStart::Model {
        model: meta_model,
        interner,
    };
    let handle = spawn_analyzer_pool(
        start,
        DetectorConfig {
            window: SimDuration::from_mins(60),
            min_window_tasks: 5,
            min_group_tasks: 5,
            ..DetectorConfig::default()
        },
        // Liveness off: the verdict is about the meta stages' windows.
        SupervisorConfig {
            silent_after: u64::MAX,
            ..SupervisorConfig::default()
        },
        1,
        rx,
    )
    .expect("no store to open");
    for s in stalled {
        sink.submit(s);
    }
    drop(sink);
    let events: Vec<AnomalyEvent> = handle.events().iter().collect();
    handle.join().unwrap();

    let flagged = events.iter().any(|e| {
        e.host == MetaMonitor::HOST
            && e.stage == MetaStage::Checkpoint.stage_id()
            && matches!(e.kind, AnomalyKind::Performance(_))
    });
    assert!(
        flagged,
        "the stalled checkpoint stage was not flagged; events: {events:?}"
    );
    // The stall must not leak anomalies onto the healthy router stage.
    assert!(
        !events
            .iter()
            .any(|e| e.stage == MetaStage::Router.stage_id()
                && matches!(e.kind, AnomalyKind::Performance(_))),
        "healthy router ticks were misflagged: {events:?}"
    );
}
