//! Live, real-time anomaly detection on a real threaded server.
//!
//! Everything in this example runs on actual OS threads and the wall
//! clock: a staged server processes requests while its tracker streams
//! synopses into a sharded analyzer pool with a durable model lifecycle
//! (the paper's centralized statistical analyzer). The pool bootstraps
//! its own model from the first stretch of healthy traffic and promotes
//! itself to detecting mode *while the server keeps running* — there is
//! no offline training phase — and anomalies are printed as they are
//! detected.
//!
//! ```sh
//! cargo run --release --example live_monitor
//! ```
//!
//! With `--tcp` the synopsis stream takes the wire path instead of a
//! channel: a `saad::net` agent on the server side ships CRC-framed
//! batches over real localhost TCP to a collector, which feeds the same
//! analyzer pool — the deployment shape from the paper, where monitored
//! nodes and the analyzer are separate processes.
//!
//! ```sh
//! cargo run --release --example live_monitor -- --tcp
//! ```
//!
//! With `--metrics-addr <addr>` (e.g. `--metrics-addr 127.0.0.1:9464`)
//! the run also serves live Prometheus metrics — pool shard counters,
//! checkpoint latency, sink drops, and (with `--tcp`) collector/agent
//! link counters — scrapeable with `curl http://<addr>/metrics` while
//! the phases execute.

use crossbeam_channel::unbounded;
use saad::core::pipeline::{
    spawn_analyzer_pool, BatchSink, LifecycleConfig, PoolStart, SupervisorConfig,
};
use saad::core::prelude::*;
use saad::net::{Agent, AgentConfig, ReactorCollector, ReactorCollectorConfig};
use saad::sim::{Clock, WallClock};
use saad::stage::StagedServer;
use std::error::Error;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Batch size for shipping synopses to the analyzer pool.
const BATCH: usize = 256;

fn build_server(
    tracker: Arc<TaskExecutionTracker>,
) -> (StagedServer, Vec<saad::logging::LogPointId>) {
    let registry = Arc::new(saad::logging::LogPointRegistry::new());
    let points = vec![
        registry.register(
            "request received",
            saad::logging::Level::Debug,
            "srv.rs",
            10,
        ),
        registry.register(
            "validated payload of {} bytes",
            saad::logging::Level::Debug,
            "srv.rs",
            14,
        ),
        registry.register(
            "persisted record {}",
            saad::logging::Level::Debug,
            "srv.rs",
            21,
        ),
        registry.register(
            "request rejected: {}",
            saad::logging::Level::Debug,
            "srv.rs",
            25,
        ),
    ];
    let server = StagedServer::builder()
        .tracker(tracker)
        .stage("handler", 4, 256)
        .build();
    (server, points)
}

fn drive(server: &StagedServer, points: &[saad::logging::LogPointId], n: u64, reject_every: u64) {
    for i in 0..n {
        let points = points.to_vec();
        server
            .submit("handler", move |ctx| {
                ctx.logger
                    .debug(points[0], format_args!("request received"));
                ctx.logger
                    .debug(points[1], format_args!("validated payload of 512 bytes"));
                if reject_every != 0 && i.is_multiple_of(reject_every) {
                    // The anomalous branch: rejected requests.
                    ctx.logger
                        .debug(points[3], format_args!("request rejected: quota"));
                } else {
                    std::thread::sleep(Duration::from_micros(30));
                    ctx.logger
                        .debug(points[2], format_args!("persisted record {i}"));
                }
            })
            .expect("submit");
    }
}

fn main() -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().collect();
    let tcp = args.iter().any(|a| a == "--tcp");
    let metrics_addr = args
        .iter()
        .position(|a| a == "--metrics-addr")
        .map(|i| {
            args.get(i + 1)
                .cloned()
                .ok_or("--metrics-addr needs an address")
        })
        .transpose()?;

    // ── The analyzer pool: sharded workers + durable model lifecycle ───
    let dir = std::env::temp_dir().join(format!("saad-live-monitor-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let (batch_tx, batch_rx) = unbounded();
    let start = PoolStart::Store {
        dir: dir.clone(),
        lifecycle: LifecycleConfig {
            // Bootstrap aggressively: with healthy traffic flowing, try
            // promotion every 5k synopses so the pool is detecting well
            // before the anomalous burst arrives.
            promote_after: 5_000,
            min_retrain_samples: 4_000,
            checkpoint_every: 0,
            ..LifecycleConfig::default()
        },
    };
    let config = DetectorConfig {
        window: saad::sim::SimDuration::from_millis(500),
        min_window_tasks: 50,
        ..DetectorConfig::default()
    };
    let pool = spawn_analyzer_pool(start, config, SupervisorConfig::default(), 2, batch_rx)?;

    // ── Observability: every layer registers its live counters ─────────
    let metrics = Arc::new(saad::obs::Registry::new());
    pool.register_metrics(&metrics);

    // ── The wire: in-process batching, or agent → TCP → collector ──────
    // Either way synopses are interned at the edge, into SoA batches,
    // against the interner the pool hands out, and a gap the wire reveals
    // rides on the batch that revealed it.
    let (mut wire, mut forwarder) = (None, None);
    let (sink, flush): (Arc<dyn SynopsisSink>, Box<dyn Fn()>) = if tcp {
        let collector = ReactorCollector::bind(
            "127.0.0.1:0",
            batch_tx.clone(),
            pool.interner(),
            ReactorCollectorConfig::default(),
        )?;
        println!("wire: TCP via collector on {}", collector.local_addr());
        let agent = Agent::connect(collector.local_addr(), HostId(1), AgentConfig::default());
        collector.register_metrics(&metrics);
        agent.register_metrics(&metrics, HostId(1));
        let agent_sink = Arc::new(agent.sink(BATCH));
        wire = Some((agent, collector));
        let flush_handle = agent_sink.clone();
        (agent_sink, Box::new(move || flush_handle.flush()))
    } else {
        println!("wire: in-process channel (pass --tcp for the socket path)");
        // The library sink comes with a queue of its own; the pool, spawned
        // first so it could say which interner to use, already reads one.
        let (batch_sink, queued) = BatchSink::new(BATCH, pool.interner());
        let batch_tx = batch_tx.clone();
        forwarder = Some(std::thread::spawn(move || {
            queued.iter().all(|batch| batch_tx.send(batch).is_ok())
        }));
        let batch_sink = Arc::new(batch_sink);
        let flush_handle = batch_sink.clone();
        (batch_sink, Box::new(move || flush_handle.flush()))
    };

    let clock = Arc::new(WallClock::new());
    let tracker = Arc::new(TaskExecutionTracker::with_metrics(
        HostId(1),
        clock as Arc<dyn Clock>,
        sink,
        TrackerMetrics::register(&metrics, HostId(1)),
    ));
    tracker.register_metrics(&metrics);
    let metrics_server = match &metrics_addr {
        Some(addr) => {
            let server = saad::obs::MetricsServer::bind(addr.as_str(), metrics.clone())?;
            println!(
                "metrics: scrape http://{}/metrics while the run executes",
                server.local_addr()
            );
            Some(server)
        }
        None => None,
    };
    let (server, points) = build_server(tracker);

    // ── Phase 1: the pool bootstraps its model from live healthy traffic
    println!("phase 1: bootstrapping model from healthy traffic (real threads)...");
    drive(&server, &points, 20_000, 0);
    flush();
    let deadline = Instant::now() + Duration::from_secs(30);
    while !pool.is_detecting() {
        if Instant::now() >= deadline {
            return Err("pool never promoted to detecting mode".into());
        }
        // Promotion is applied at batch boundaries; nudge an idle pool.
        let _ = batch_tx.send(SynopsisBatch::new());
        std::thread::sleep(Duration::from_millis(20));
    }
    println!(
        "  model promoted live after {} synopses — the server never stopped",
        pool.processed()
    );

    // ── Phase 2: live detection; inject a rejection burst ──────────────
    println!("\nphase 2: live monitoring; injecting a rejection burst...");
    // Healthy stretch, then a burst where 1 in 5 requests is rejected —
    // a flow never seen during bootstrap.
    drive(&server, &points, 20_000, 0);
    drive(&server, &points, 20_000, 5);
    server.shutdown();
    flush();

    if let Some((agent, collector)) = wire {
        let agent_stats = agent.close();
        println!(
            "  wire: {} synopses in {} frames over TCP ({} dropped at the agent, {} lost on the wire)",
            agent_stats.synopses_written,
            agent_stats.frames_written,
            agent_stats.drops.total(),
            agent_stats.synopses_wire_lost,
        );
        let collector_stats = collector.stats();
        println!(
            "  wire: collector admitted {} synopses, {} corrupted frames, {} lost",
            collector_stats.synopses,
            collector_stats.corrupted_frames,
            collector_stats.lost_synopses,
        );
        let link = collector.link_stats(HostId(1));
        println!(
            "  wire: host1 link — {} synopses in {} frames delivered, {} duplicate frames, \
             {} of {} expected synopses lost",
            link.delivered_synopses,
            link.delivered_frames,
            link.duplicate_frames,
            link.lost_synopses,
            link.expected_synopses,
        );
        collector.shutdown();
    }
    drop(flush); // the last handle on the sink: its queue closes
    if let Some(forwarder) = forwarder {
        forwarder.join().expect("forwarder thread");
    }
    drop(batch_tx);

    let mut events = Vec::new();
    while let Ok(e) = pool.events().recv() {
        events.push(e);
    }
    let processed = pool.processed();
    let lost = pool.tasks_lost();
    pool.join().expect("analyzer pool survived");
    println!(
        "  pool processed {processed} synopses in real time ({lost} reported lost in transit)"
    );
    println!("  detected {} anomaly events:", events.len());
    for e in events.iter().take(8) {
        println!(
            "    host{} stage{} {} ({} of {} tasks)",
            e.host.0, e.stage.0, e.kind, e.outliers, e.window_tasks
        );
    }
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, saad::core::detector::AnomalyKind::FlowNew(_))),
        "the rejection flow must be flagged as a new signature"
    );
    println!("\n=> the rejection branch surfaced as a new-signature flow anomaly, live.");
    if let Some(server) = metrics_server {
        println!("metrics: served {} scrapes", server.scrapes_served());
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
