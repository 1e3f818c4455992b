//! End-to-end over the readiness-driven reactor collector: the epoll
//! event-loop wire path must detect exactly what the in-process path and
//! the thread-per-connection collector detect, and a mid-stream kill +
//! restart must surface as exactly one loss-accounted gap — the same
//! contract `tcp_end_to_end.rs` pins for the threaded collector.
//!
//! * The §5.5 HBase severe-disk-hog capture is replayed three ways — an
//!   uninterrupted in-process lifecycle pool (the oracle), one agent →
//!   threaded `Collector`, and one agent → `ReactorCollector` — and all
//!   three event multisets must be equal.
//! * A `ReactorCollector` is killed mid-stream and restarted on the same
//!   port via `CollectorState` carry-over; the agent reconnects and
//!   resumes. The outage must surface as exactly one contiguous
//!   whole-batch gap with exactly one loss report, and the event multiset
//!   must equal an oracle fed the surviving batches plus that report.

mod common;

use common::{event_keys, soa};
use crossbeam_channel::{unbounded, Sender};
use saad::core::detector::{AnomalyEvent, AnomalyKind};
use saad::core::pipeline::{
    spawn_analyzer_pool_with_lifecycle, LifecycleConfig, LifecyclePool, SupervisorConfig,
};
use saad::core::prelude::*;
use saad::core::transport::LossReport;
use saad::fault::HogSchedule;
use saad::hbase::{HBaseCluster, HBaseConfig};
use saad::logging::LogPointId;
use saad::net::{
    Agent, AgentConfig, Collector, CollectorConfig, ReactorCollector, ReactorCollectorConfig,
};
use saad::sim::{SimDuration, SimTime};
use saad::workload::{KeyChooser, OperationMix, WorkloadGenerator};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCH: usize = 48;

/// Self-cleaning unique temp directory (no tempfile crate).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("saad-reactor-e2e-{}-{tag}", std::process::id()));
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

fn lifecycle_config() -> LifecycleConfig {
    LifecycleConfig {
        checkpoint_every: 0,
        promote_after: 400,
        min_retrain_samples: 200,
        ..LifecycleConfig::default()
    }
}

fn supervisor() -> SupervisorConfig {
    SupervisorConfig {
        // Liveness bookkeeping depends on wall-clock pacing, not stream
        // content; keep it out of wire-vs-in-process equality.
        silent_after: u64::MAX,
        ..SupervisorConfig::default()
    }
}

fn spawn_pool(
    dir: &Path,
    workers: usize,
) -> (Sender<SynopsisBatch>, Sender<LossReport>, LifecyclePool) {
    let (batch_tx, batch_rx) = unbounded();
    let (loss_tx, loss_rx) = unbounded();
    let pool = spawn_analyzer_pool_with_lifecycle(
        DetectorConfig::default(),
        supervisor(),
        lifecycle_config(),
        workers,
        dir,
        batch_rx,
        Some(loss_rx),
    )
    .expect("spawn lifecycle pool");
    (batch_tx, loss_tx, pool)
}

fn wait_processed(pool: &LifecyclePool, target: u64) {
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

fn drain_events(pool: LifecyclePool) -> Vec<AnomalyEvent> {
    let mut events = Vec::new();
    while let Ok(e) = pool.events().recv() {
        events.push(e);
    }
    pool.join().unwrap();
    events
}

// ---------------------------------------------------------------------------
// 1. HBase severe-hog scenario: reactor ≡ threaded collector ≡ in-process.
// ---------------------------------------------------------------------------

/// Capture the synopsis stream of the paper's §5.5 severe-hog HBase run
/// (recovery cascade, regionserver crash) in arrival order — the same
/// scenario `tcp_end_to_end.rs` pins for the threaded collector.
fn hbase_severe_hog_stream() -> Vec<TaskSynopsis> {
    let sink = Arc::new(VecSink::new());
    let cfg = HBaseConfig {
        seed: 61,
        hog: HogSchedule::new().with_window(SimTime::from_mins(3), SimTime::from_mins(12), 6),
        recovery_latency_threshold: SimDuration::from_millis(500),
        recovery_retry_interval: SimDuration::from_secs(2),
        max_recovery_retries: 5,
        ..HBaseConfig::default()
    };
    let mut cluster = HBaseCluster::new(cfg, sink.clone());
    let mut wl = WorkloadGenerator::new(
        OperationMix::write_heavy(),
        KeyChooser::zipfian(10_000),
        18.0,
        62,
    );
    let ops = wl.ops_until(SimTime::from_mins(13));
    let out = cluster.run(&ops, SimTime::from_mins(13));
    assert!(
        out.crashed.iter().any(|&c| c),
        "scenario must crash a regionserver"
    );
    sink.drain()
}

/// Feed `stream` through one agent into an already-bound wire collector,
/// wait until the pool has processed everything, and drain its events.
/// `finish` abstracts over the two collector kinds: it snapshots the
/// collector's stats, shuts it down, and returns the snapshot.
fn run_wire_path(
    stream: &[TaskSynopsis],
    pool: LifecyclePool,
    addr: std::net::SocketAddr,
    finish: impl FnOnce() -> saad::net::CollectorStats,
) -> Vec<AnomalyEvent> {
    let agent = Agent::connect(addr, HostId(900), AgentConfig::default());
    for chunk in stream.chunks(BATCH) {
        agent.send(chunk.to_vec());
    }
    let agent_stats = agent.close();
    assert_eq!(agent_stats.synopses_written, stream.len() as u64);
    assert_eq!(agent_stats.drops.total(), 0);
    assert_eq!(agent_stats.synopses_wire_lost, 0);

    wait_processed(&pool, stream.len() as u64);
    let s = finish();
    assert_eq!(s.synopses, stream.len() as u64);
    assert_eq!(s.lost_synopses, 0);
    assert_eq!(s.duplicate_frames, 0);
    assert_eq!(s.corrupted_frames, 0);
    assert_eq!(s.watermark, stream.iter().map(|s| s.start).max().unwrap());
    drain_events(pool)
}

#[test]
fn hbase_fault_scenario_over_reactor_matches_threaded_and_in_process() {
    let stream = hbase_severe_hog_stream();
    assert!(stream.len() > 2_000, "scenario too small: {}", stream.len());

    // Oracle: the same lifecycle pool shape fed in-process.
    let oracle_dir = TempDir::new("hbase-oracle");
    let (oracle_tx, oracle_loss_tx, oracle_pool) = spawn_pool(oracle_dir.path(), 3);
    let interner = oracle_pool.interner();
    for chunk in stream.chunks(BATCH) {
        oracle_tx.send(soa(chunk, &interner)).unwrap();
    }
    drop(oracle_tx);
    drop(oracle_loss_tx);
    let oracle_events = drain_events(oracle_pool);
    assert!(
        oracle_events
            .iter()
            .any(|e| matches!(e.kind, AnomalyKind::FlowNew(_))),
        "oracle must detect the cascade: {oracle_events:?}"
    );

    // Threaded wire path: agent → thread-per-connection collector.
    let threaded_dir = TempDir::new("hbase-threaded");
    let threaded_events = {
        let (batch_tx, loss_tx, pool) = spawn_pool(threaded_dir.path(), 3);
        let (interner, config) = (pool.interner(), CollectorConfig::default());
        let collector =
            Collector::bind_soa("127.0.0.1:0", batch_tx, interner, loss_tx, config).unwrap();
        let addr = collector.local_addr();
        run_wire_path(&stream, pool, addr, move || {
            let s = collector.stats();
            collector.shutdown();
            s
        })
    };

    // Reactor wire path: agent → readiness-driven event-loop collector.
    let reactor_dir = TempDir::new("hbase-reactor");
    let reactor_events = {
        let (batch_tx, loss_tx, pool) = spawn_pool(reactor_dir.path(), 3);
        let collector = ReactorCollector::bind_soa(
            "127.0.0.1:0",
            batch_tx,
            pool.interner(),
            loss_tx,
            ReactorCollectorConfig::default(),
        )
        .unwrap();
        let addr = collector.local_addr();
        run_wire_path(&stream, pool, addr, move || {
            let s = collector.stats();
            collector.shutdown();
            s
        })
    };

    assert_eq!(
        event_keys(&threaded_events),
        event_keys(&oracle_events),
        "threaded wire path diverged from the in-process path"
    );
    assert_eq!(
        event_keys(&reactor_events),
        event_keys(&oracle_events),
        "reactor wire path diverged from the in-process path"
    );
}

// ---------------------------------------------------------------------------
// 2. Reactor collector killed mid-stream: resume yields exactly one gap.
// ---------------------------------------------------------------------------

fn synopsis(host: u16, stage: u16, points: &[u16], start: SimTime, uid: u64) -> TaskSynopsis {
    TaskSynopsis {
        host: HostId(host),
        stage: StageId(stage),
        uid: TaskUid(uid),
        start,
        duration: SimDuration::from_micros(1_000 + (uid % 53) * 5),
        log_points: points.iter().map(|&p| (LogPointId(p), 1)).collect(),
    }
}

/// Six minutes over three hosts and two stages, with a trained-rare surge
/// and a brand-new flow in the second half (same stream as the threaded
/// restart test, so the two collectors pin the same resume contract).
fn mixed_stream() -> Vec<TaskSynopsis> {
    const PER_MIN: u64 = 240;
    const MINS: u64 = 6;
    let mut out = Vec::new();
    let mut uid = 0u64;
    for minute in 0..MINS {
        for i in 0..PER_MIN {
            let host = (i % 3) as u16;
            let stage = (i % 2) as u16;
            let points: &[u16] = if minute == 4 && host == 1 && stage == 0 && i.is_multiple_of(4) {
                &[1, 2, 3]
            } else if minute == 5 && host == 2 && stage == 1 && i == 7 {
                &[9]
            } else if uid.is_multiple_of(997) {
                &[1, 2, 3]
            } else {
                &[1, 2]
            };
            let start =
                SimTime::from_mins(minute) + SimDuration::from_millis(i * (60_000 / PER_MIN));
            out.push(synopsis(host, stage, points, start, uid));
            uid += 1;
        }
    }
    out
}

#[test]
fn reactor_restart_resume_accounts_exactly_one_gap() {
    let stream = mixed_stream();
    let batches: Vec<Vec<TaskSynopsis>> = stream.chunks(BATCH).map(<[_]>::to_vec).collect();
    let half = batches.len() / 2;
    let frame_host = HostId(900);

    // --- Wire run with a mid-stream reactor kill + restart ------------
    let tcp_dir = TempDir::new("restart-reactor");
    let (batch_tx, loss_tx, pool) = spawn_pool(tcp_dir.path(), 3);
    // The test keeps its own loss-channel tap to count gap reports: wrap
    // the pool's loss sender so every report is also recorded.
    let (tap_tx, tap_rx) = unbounded::<LossReport>();
    let (collector_loss_tx, collector_loss_rx) = unbounded::<LossReport>();
    let forward_loss_tx = loss_tx.clone();
    let loss_forwarder = std::thread::spawn(move || {
        while let Ok(report) = collector_loss_rx.recv() {
            let _ = tap_tx.send(report);
            let _ = forward_loss_tx.send(report);
        }
    });

    let collector_a = ReactorCollector::bind_soa(
        "127.0.0.1:0",
        batch_tx.clone(),
        pool.interner(),
        collector_loss_tx.clone(),
        ReactorCollectorConfig::default(),
    )
    .unwrap();
    let port = collector_a.local_addr().port();
    let agent = Agent::connect(collector_a.local_addr(), frame_host, AgentConfig::default());

    // First half delivered while collector A lives.
    let first_half_len: usize = batches[..half].iter().map(Vec::len).sum();
    for batch in &batches[..half] {
        agent.send(batch.clone());
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while collector_a.stats().synopses < first_half_len as u64 {
        assert!(Instant::now() < deadline, "reactor collector A stalled");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Kill the collector mid-stream, keeping its link state.
    let state = collector_a.shutdown();
    assert_eq!(
        state.receiver().stats(frame_host).delivered_synopses,
        first_half_len as u64
    );

    // The doomed batch: framed (sequence advances) while no collector
    // lives, so it can never be delivered — only accounted. Depending on
    // how fast the kernel surfaces the peer reset, the write either fails
    // immediately or lands in a dead socket; if it "succeeds", the agent
    // only notices on the *next* write, so the gap may extend into the
    // first batch of the second half. Either way it stays one contiguous
    // run of whole batches — which is exactly what the accounting below
    // must reveal.
    let doomed = &batches[half];
    agent.send(doomed.clone());
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let s = agent.stats();
        // Accounted either way: written into a dead socket or failed.
        if s.synopses_written + s.synopses_wire_lost >= (first_half_len + doomed.len()) as u64 {
            break;
        }
        assert!(Instant::now() < deadline, "doomed batch never accounted");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Restart on the same port, adopting the predecessor's link state.
    let listener = {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match TcpListener::bind(("127.0.0.1", port)) {
                Ok(l) => break l,
                Err(e) => {
                    assert!(Instant::now() < deadline, "rebind failed: {e}");
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    };
    let collector_b = ReactorCollector::serve_soa(
        listener,
        state,
        batch_tx.clone(),
        pool.interner(),
        collector_loss_tx.clone(),
        ReactorCollectorConfig::default(),
    )
    .unwrap();

    // Second half (minus the doomed batch) flows after the reconnect.
    for batch in &batches[half + 1..] {
        agent.send(batch.clone());
    }
    let agent_stats = agent.close();
    let total = stream.len() as u64;
    // The agent has written or wire-lost everything by close(); whatever
    // it wrote into the void plus whatever failed outright is the gap.
    assert_eq!(
        agent_stats.synopses_written + agent_stats.synopses_wire_lost,
        total
    );
    let deadline = Instant::now() + Duration::from_secs(30);
    while collector_b.link_stats(frame_host).delivered_synopses
        + collector_b.link_stats(frame_host).lost_synopses
        < total
    {
        assert!(Instant::now() < deadline, "reactor collector B stalled");
        std::thread::sleep(Duration::from_millis(2));
    }

    // --- Exactness: one contiguous gap, fully reconciled, no dups -----
    let link = collector_b.link_stats(frame_host);
    assert_eq!(
        link.expected_synopses, total,
        "sender history fully adopted"
    );
    assert_eq!(link.duplicate_frames, 0, "resume must not replay frames");
    assert_eq!(
        link.delivered_synopses + link.lost_synopses,
        total,
        "delivered + lost must reconcile with everything sent"
    );
    let lost = link.lost_synopses;
    assert_eq!(lost % BATCH as u64, 0, "only whole batches can go missing");
    let k_lost = (lost / BATCH as u64) as usize;
    assert!(
        (1..=2).contains(&k_lost),
        "gap must cover the doomed batch (plus at most the first write \
         that surfaced the dead socket): {k_lost} batches"
    );
    assert_eq!(agent_stats.connects, 2);
    assert_eq!(agent_stats.reconnects, 1);
    assert_eq!(agent_stats.drops.total(), 0);

    let delivered_target = total - lost;
    wait_processed(&pool, delivered_target);
    collector_b.shutdown();
    drop(batch_tx);
    drop(collector_loss_tx);
    let _ = loss_forwarder.join();
    drop(loss_tx);
    let tcp_events = drain_events(pool);

    let reports: Vec<LossReport> = tap_rx.try_iter().collect();
    assert_eq!(reports.len(), 1, "exactly one loss report: {reports:?}");
    assert_eq!(reports[0].count, lost);
    assert_eq!(reports[0].host, frame_host);

    // --- Oracle: same surviving batches, same loss report, in-process --
    // The gap is the contiguous run batches[half .. half + k_lost]; the
    // first surviving batch after it reveals the loss, stamped with its
    // first synopsis start — exactly what the wire decode does.
    let oracle_dir = TempDir::new("restart-reactor-oracle");
    let (oracle_tx, oracle_loss_tx, oracle_pool) = spawn_pool(oracle_dir.path(), 3);
    let interner = oracle_pool.interner();
    for batch in &batches[..half] {
        oracle_tx.send(soa(batch, &interner)).unwrap();
    }
    oracle_loss_tx
        .send(LossReport {
            host: frame_host,
            at: batches[half + k_lost][0].start,
            count: lost,
        })
        .unwrap();
    for batch in &batches[half + k_lost..] {
        oracle_tx.send(soa(batch, &interner)).unwrap();
    }
    drop(oracle_tx);
    drop(oracle_loss_tx);
    let oracle_events = drain_events(oracle_pool);

    assert_eq!(
        event_keys(&tcp_events),
        event_keys(&oracle_events),
        "reactor reconnect run diverged from the uninterrupted oracle"
    );
}
