//! End-to-end over real localhost TCP: the wire path (agent → the
//! readiness-driven collector → lifecycle pool) must detect exactly what
//! the in-process path detects, and every fault on the wire must be
//! accounted, never silently swallowed.
//!
//! * An HBase severe-disk-hog scenario is captured once, then replayed
//!   through a single agent → collector → lifecycle pool over TCP and
//!   through an identical in-process pool (the oracle). The pool must
//!   receive the capture's rows in order, and the two event multisets
//!   must be equal.
//! * A collector is killed mid-stream and restarted (state carry-over,
//!   same port); the agent reconnects and resumes. The outage must
//!   surface as exactly one loss-accounted gap, no duplicates, and the
//!   event multiset must equal an oracle fed the same surviving rows with
//!   the same loss report at the same position.
//! * The same HBase capture through a model-started pool over TCP must
//!   report exactly what an in-process pool fed fixed 48-row batches
//!   does: such a pool decides nothing at batch boundaries, so where the
//!   reads cut the stream must not show in its events.
//! * A `FaultyProxy` between agent and collector injects corruption,
//!   drops, a mid-stream disconnect, and a slow-loris trickle; proxy
//!   counters and transport accounting must reconcile exactly.
//!
//! A collector sends one batch per ring drain, wherever the reads cut the
//! stream, while a lifecycle pool promotes, swaps and checkpoints at
//! window edges, rows the stream's content fixes. So every oracle here is
//! fed fixed 48-row batches, whatever cuts the wire path made.

mod common;

use common::wait_for;
use crossbeam_channel::{unbounded, Receiver, Sender};
use saad::core::batch::SynopsisBatch;
use saad::core::detector::{AnomalyEvent, AnomalyKind, DetectorConfig};
use saad::core::intern::SignatureInterner;
use saad::core::model::{ModelBuilder, ModelConfig};
use saad::core::pipeline::{
    spawn_analyzer_pool, LifecycleConfig, ModelSink, PoolHandle, PoolStart, SupervisorConfig,
};
use saad::core::synopsis::TaskSynopsis;
use saad::core::testkit::{event_keys, soa, TempDir};
use saad::core::tracker::{SynopsisSink, VecSink};
use saad::core::transport::LossReport;
use saad::core::{HostId, StageId, TaskUid};
use saad::fault::{FaultyProxy, HogSchedule, ProxySpec};
use saad::hbase::{HBaseCluster, HBaseConfig};
use saad::logging::LogPointId;
use saad::net::protocol::{HELLO_ACK_LEN, HELLO_LEN};
use saad::net::{Agent, AgentConfig, ReactorCollector, ReactorCollectorConfig};
use saad::sim::{SimDuration, SimTime};
use saad::workload::{KeyChooser, OperationMix, WorkloadGenerator};
use std::net::TcpListener;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const BATCH: usize = 48;

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

fn spawn_pool(dir: &Path, workers: usize) -> (Sender<SynopsisBatch>, PoolHandle) {
    let (batch_tx, batch_rx) = unbounded();
    let start = PoolStart::Store {
        dir: dir.into(),
        lifecycle: lifecycle_config(),
    };
    let config = DetectorConfig::default();
    let pool = spawn_analyzer_pool(start, config, supervisor(), workers, batch_rx)
        .expect("spawn lifecycle pool");
    (batch_tx, pool)
}

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

/// A thread between a collector and its pool that forwards every batch
/// unchanged and records its rows' uids and its gap reports.
fn spawn_tap(
    from: Receiver<SynopsisBatch>,
    to: Sender<SynopsisBatch>,
) -> JoinHandle<Vec<(Vec<u64>, Vec<LossReport>)>> {
    std::thread::spawn(move || {
        let mut cuts = Vec::new();
        for batch in from.iter() {
            cuts.push((
                batch.uids.iter().map(|u| u.0).collect(),
                batch.losses.clone(),
            ));
            let _ = to.send(batch);
        }
        cuts
    })
}

/// Feed an oracle pool `batches` in order, each with the gap reports
/// paired with it.
fn feed_fixed(
    tx: &Sender<SynopsisBatch>,
    pool: &PoolHandle,
    batches: &[(&[TaskSynopsis], &[LossReport])],
) {
    let interner = pool.interner();
    for &(rows, losses) in batches {
        let mut batch = soa(rows, &interner);
        batch.losses.extend_from_slice(losses);
        tx.send(batch).unwrap();
    }
}

fn drain_events(pool: PoolHandle) -> Vec<AnomalyEvent> {
    let mut events = Vec::new();
    while let Ok(e) = pool.events().recv() {
        events.push(e);
    }
    pool.join().unwrap();
    events
}

// ---------------------------------------------------------------------------
// 1. HBase severe-hog scenario: wire path ≡ in-process path.
// ---------------------------------------------------------------------------

/// Capture the synopsis stream of the paper's §5.5 severe-hog HBase run
/// (recovery cascade, regionserver crash) in arrival order.
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

#[test]
fn hbase_fault_scenario_over_tcp_matches_in_process_path() {
    let stream = hbase_severe_hog_stream();
    assert!(stream.len() > 2_000, "scenario too small: {}", stream.len());

    // Wire path: one agent (order-preserving) → collector → pool.
    let tcp_dir = TempDir::new("hbase-tcp");
    let (batch_tx, pool) = spawn_pool(tcp_dir.path(), 3);
    let (interner, config) = (pool.interner(), ReactorCollectorConfig::default());
    let collector = ReactorCollector::bind("127.0.0.1:0", batch_tx, interner, config).unwrap();
    let agent = Agent::connect(collector.local_addr(), HostId(900), AgentConfig::default());
    for chunk in stream.chunks(BATCH) {
        agent.send(chunk.to_vec());
    }
    let agent_stats = agent.close();
    assert_eq!(agent_stats.synopses_written, stream.len() as u64);
    assert_eq!(agent_stats.drops.total(), 0);
    assert_eq!(agent_stats.synopses_wire_lost, 0);

    wait_processed(&pool, stream.len() as u64);
    let collector_stats = collector.stats();
    assert_eq!(collector_stats.synopses, stream.len() as u64);
    assert_eq!(collector_stats.lost_synopses, 0);
    assert_eq!(collector_stats.duplicate_frames, 0);
    assert_eq!(collector_stats.corrupted_frames, 0);
    assert_eq!(
        collector_stats.watermark,
        stream.iter().map(|s| s.start).max().unwrap()
    );
    collector.shutdown();
    let tcp_events = drain_events(pool);

    // Oracle: the same lifecycle pool shape fed in-process, fixed 48-row
    // batches.
    let oracle_dir = TempDir::new("hbase-oracle");
    let (oracle_tx, oracle_pool) = spawn_pool(oracle_dir.path(), 3);
    let fixed: Vec<_> = stream.chunks(BATCH).map(|rows| (rows, &[][..])).collect();
    feed_fixed(&oracle_tx, &oracle_pool, &fixed);
    drop(oracle_tx);
    let oracle_events = drain_events(oracle_pool);
    assert!(
        oracle_events
            .iter()
            .any(|e| matches!(e.kind, AnomalyKind::FlowNew(_))),
        "oracle must detect the cascade: {oracle_events:?}"
    );

    assert_eq!(
        event_keys(&tcp_events),
        event_keys(&oracle_events),
        "wire-path detection diverged from the in-process path"
    );
}

/// A model-started pool behind a socket: wherever the collector's drains
/// cut the stream, its events equal an in-process pool's over fixed
/// 48-row batches.
#[test]
fn hbase_fault_over_tcp_into_a_model_pool_matches_fixed_cuts() {
    let stream = hbase_severe_hog_stream();
    // Trained on the minutes before the hog starts.
    let mut builder = ModelBuilder::new();
    for s in stream.iter().filter(|s| s.start < SimTime::from_mins(3)) {
        builder.observe(s);
    }
    let model = Arc::new(builder.build(ModelConfig::default()));
    let spawn_model_pool = || {
        let (batch_tx, batch_rx) = unbounded();
        let start = PoolStart::Model {
            model: model.clone(),
            interner: Arc::new(SignatureInterner::new()),
        };
        let config = DetectorConfig::default();
        let pool = spawn_analyzer_pool(start, config, supervisor(), 3, batch_rx)
            .expect("no store to open");
        (batch_tx, pool)
    };

    // Oracle: fixed 48-row batches, in process.
    let (oracle_tx, oracle_pool) = spawn_model_pool();
    let interner = oracle_pool.interner();
    for chunk in stream.chunks(BATCH) {
        oracle_tx.send(soa(chunk, &interner)).unwrap();
    }
    drop(oracle_tx);
    let oracle_events = drain_events(oracle_pool);
    assert!(
        oracle_events
            .iter()
            .any(|e| matches!(e.kind, AnomalyKind::FlowNew(_))),
        "oracle must detect the cascade: {oracle_events:?}"
    );

    // Wire path: one agent → collector → pool, one batch per drain.
    let (batch_tx, pool) = spawn_model_pool();
    let (interner, config) = (pool.interner(), ReactorCollectorConfig::default());
    let collector = ReactorCollector::bind("127.0.0.1:0", batch_tx, interner, config).unwrap();
    let agent = Agent::connect(collector.local_addr(), HostId(900), AgentConfig::default());
    for chunk in stream.chunks(BATCH) {
        agent.send(chunk.to_vec());
    }
    let agent_stats = agent.close();
    assert_eq!(agent_stats.synopses_written, stream.len() as u64);
    wait_processed(&pool, stream.len() as u64);
    let collector_stats = collector.stats();
    assert_eq!(collector_stats.synopses, stream.len() as u64);
    assert_eq!(collector_stats.lost_synopses, 0);
    collector.shutdown();
    let tcp_events = drain_events(pool);

    assert_eq!(
        event_keys(&tcp_events),
        event_keys(&oracle_events),
        "a model pool behind a socket diverged from fixed 48-row batches"
    );
}

// ---------------------------------------------------------------------------
// 2. Collector killed mid-stream: resume yields exactly one gap.
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
/// and a brand-new flow in the second half (same shape as the checkpoint
/// durability test).
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
fn collector_restart_resume_accounts_exactly_one_gap() {
    let stream = mixed_stream();
    let batches: Vec<Vec<TaskSynopsis>> = stream.chunks(BATCH).map(<[_]>::to_vec).collect();
    let half = batches.len() / 2;
    let frame_host = HostId(900);

    // --- Wire run with a mid-stream collector kill + restart ----------
    let tcp_dir = TempDir::new("restart-tcp");
    let (batch_tx, pool) = spawn_pool(tcp_dir.path(), 3);
    // The test keeps its own tap on the pool's input, to read the rows
    // and the gap reports as the pool got them: both collectors feed it,
    // and it forwards every batch unchanged.
    let (collector_tx, collector_rx) = unbounded::<SynopsisBatch>();
    let tap = spawn_tap(collector_rx, batch_tx);

    let collector_a = ReactorCollector::bind(
        "127.0.0.1:0",
        collector_tx.clone(),
        pool.interner(),
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
    wait_for(
        "collector A to take the first half",
        Duration::from_secs(30),
        || collector_a.stats().synopses >= first_half_len as u64,
    );

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
    wait_for(
        "the doomed batch to be accounted",
        Duration::from_secs(30),
        || {
            let s = agent.stats();
            // Accounted either way: written into a dead socket or failed.
            s.synopses_written + s.synopses_wire_lost >= (first_half_len + doomed.len()) as u64
        },
    );

    // Restart on the same port, adopting the predecessor's link state.
    let mut listener = None;
    wait_for("the port to rebind", Duration::from_secs(10), || {
        listener = TcpListener::bind(("127.0.0.1", port)).ok();
        listener.is_some()
    });
    let listener = listener.expect("rebound");
    let collector_b = ReactorCollector::serve_soa(
        listener,
        state,
        collector_tx.clone(),
        pool.interner(),
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
    wait_for(
        "collector B to account the rest",
        Duration::from_secs(30),
        || {
            let link = collector_b.link_stats(frame_host);
            link.delivered_synopses + link.lost_synopses >= total
        },
    );

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
    drop(collector_tx);
    let cuts = tap.join().unwrap();
    let tcp_events = drain_events(pool);

    // The gap is the contiguous run batches[half .. half + k_lost]; the
    // first surviving frame after it reveals the loss, stamped with its
    // first synopsis start, and the report rides ahead of that frame's
    // rows: on the batch they open.
    let revealer = &batches[half + k_lost][0];
    let owed = LossReport {
        host: frame_host,
        at: revealer.start,
        count: lost,
    };
    let reported: Vec<_> = cuts.iter().filter(|(_, l)| !l.is_empty()).collect();
    assert_eq!(reported.len(), 1, "exactly one loss report: {reported:?}");
    assert_eq!(reported[0].1, [owed]);
    assert_eq!(reported[0].0.first(), Some(&revealer.uid.0));
    let surviving: Vec<&Vec<TaskSynopsis>> = batches[..half]
        .iter()
        .chain(&batches[half + k_lost..])
        .collect();
    let arrived: Vec<u64> = cuts.iter().flat_map(|(uids, _)| uids.clone()).collect();
    let sent: Vec<u64> = surviving
        .iter()
        .flat_map(|b| b.iter())
        .map(|s| s.uid.0)
        .collect();
    assert_eq!(
        arrived, sent,
        "the pool must see exactly these rows, in order"
    );

    // --- Oracle: the same surviving 48-row batches, the report on the
    // revealer's, in-process.
    let oracle_dir = TempDir::new("restart-oracle");
    let (oracle_tx, oracle_pool) = spawn_pool(oracle_dir.path(), 3);
    let report = [owed];
    let losses = |b: &[TaskSynopsis]| &report[..usize::from(b[0].uid == revealer.uid)];
    let fixed: Vec<_> = surviving.iter().map(|b| (&b[..], losses(b))).collect();
    feed_fixed(&oracle_tx, &oracle_pool, &fixed);
    drop(oracle_tx);
    let oracle_events = drain_events(oracle_pool);

    assert_eq!(
        event_keys(&tcp_events),
        event_keys(&oracle_events),
        "reconnect run diverged from the uninterrupted oracle"
    );
}

// ---------------------------------------------------------------------------
// 3. FaultyProxy: every injected fault reconciles with the accounting.
// ---------------------------------------------------------------------------

fn uniform_batches(n_batches: usize) -> Vec<Vec<TaskSynopsis>> {
    (0..n_batches)
        .map(|b| {
            (0..BATCH)
                .map(|i| {
                    let uid = (b * BATCH + i) as u64;
                    synopsis(1, 0, &[1, 2], SimTime::from_millis(uid), uid)
                })
                .collect()
        })
        .collect()
}

/// Run `batches` through agent → proxy(spec) → collector; returns
/// (proxy counts, collector link stats, agent stats, loss reports).
///
/// `pace` spaces out the sends. A zero pace lets the agent blast every
/// frame into the socket buffer — fine for per-message faults, but a
/// mid-stream disconnect would then swallow the whole tail silently
/// (nothing is ever written against the reset socket, so the agent never
/// learns and never reconnects). A small pace guarantees some write
/// observes the reset, triggering the reconnect that reveals the gap.
fn run_through_proxy(
    batches: &[Vec<TaskSynopsis>],
    spec: ProxySpec,
    pace: Duration,
) -> (
    saad::fault::ProxyCounts,
    saad::core::transport::LinkStats,
    saad::net::AgentStats,
    Vec<LossReport>,
    u64,
) {
    let frame_host = HostId(1);
    let (batch_tx, batch_rx) = unbounded::<SynopsisBatch>();
    let (interner, config) = (Arc::default(), ReactorCollectorConfig::default());
    let collector = ReactorCollector::bind("127.0.0.1:0", batch_tx, interner, config).unwrap();
    // A proxy that neither drops nor disconnects forwards every frame, and
    // one that trickles takes its time over it: wait for the last one.
    let forwards_all =
        spec.drop_p == 0.0 && spec.disconnect_after.is_none() && spec.disconnect_schedule.is_none();
    let proxy = FaultyProxy::start(collector.local_addr(), spec).unwrap();
    let agent = Agent::connect(proxy.local_addr(), frame_host, AgentConfig::default());
    for batch in batches {
        agent.send(batch.clone());
        if !pace.is_zero() {
            std::thread::sleep(pace);
        }
    }
    // Quiesce: every frame the agent managed to write has either been
    // admitted, rejected, or provably swallowed once counters agree.
    let settled = || {
        let link = collector.link_stats(frame_host);
        proxy.counts().forwarded
            == link.delivered_frames + link.duplicate_frames + collector.stats().corrupted_frames
    };
    wait_for(
        "the proxy pipeline to settle",
        Duration::from_secs(30),
        || {
            let s = agent.stats();
            let done = s.synopses_written + s.synopses_wire_lost + s.drops.total()
                >= (batches.len() * BATCH) as u64;
            let forwarded = !forwards_all || proxy.counts().forwarded == batches.len() as u64;
            done && settled() && forwarded
        },
    );
    let agent_stats = agent.close();
    // Let any final in-flight frame drain.
    wait_for("the tail to drain", Duration::from_secs(10), settled);
    let counts = proxy.shutdown();
    let link = collector.link_stats(frame_host);
    let corrupted = collector.stats().corrupted_frames;
    collector.shutdown();
    let reports: Vec<LossReport> = batch_rx
        .try_iter()
        .flat_map(|mut b| std::mem::take(&mut b.losses))
        .collect();
    (counts, link, agent_stats, reports, corrupted)
}

#[test]
fn proxy_corruption_is_caught_and_counted_exactly() {
    let batches = uniform_batches(40);
    let spec = ProxySpec {
        client_preamble: HELLO_LEN,
        server_preamble: HELLO_ACK_LEN,
        corrupt_p: 0.3,
        seed: 0xBADB17,
        ..ProxySpec::default()
    };
    let (counts, link, agent_stats, _reports, corrupted) =
        run_through_proxy(&batches, spec, Duration::ZERO);
    assert!(counts.corrupted > 0, "seeded corruption must fire");
    assert_eq!(
        corrupted, counts.corrupted,
        "every flipped byte must be caught by the CRC"
    );
    assert_eq!(
        link.delivered_frames,
        counts.forwarded - counts.corrupted,
        "every clean frame must be delivered"
    );
    assert_eq!(link.duplicate_frames, 0);
    assert_eq!(agent_stats.synopses_written, (batches.len() * BATCH) as u64);
}

#[test]
fn proxy_drops_surface_as_exact_loss() {
    let batches = uniform_batches(40);
    let spec = ProxySpec {
        client_preamble: HELLO_LEN,
        server_preamble: HELLO_ACK_LEN,
        drop_p: 0.25,
        seed: 0xD2055,
        ..ProxySpec::default()
    };
    let (counts, link, agent_stats, reports, corrupted) =
        run_through_proxy(&batches, spec, Duration::ZERO);
    assert!(counts.dropped > 0, "seeded drops must fire");
    assert_eq!(corrupted, 0);
    assert_eq!(link.delivered_frames, counts.forwarded);
    assert_eq!(link.delivered_synopses, counts.forwarded * BATCH as u64);
    // Loss is exact up to the tail: a dropped message is only *revealed*
    // by a later delivered frame, so drops after the last delivered frame
    // are still unaccounted when the link goes quiet.
    assert!(link.lost_synopses <= counts.dropped * BATCH as u64);
    let revealed: u64 = reports.iter().map(|r| r.count).sum();
    assert_eq!(
        revealed, link.lost_synopses,
        "reports must match link accounting"
    );
    assert_eq!(agent_stats.synopses_written, (batches.len() * BATCH) as u64);
}

#[test]
fn proxy_disconnect_reconnects_with_one_accounted_gap() {
    let batches = uniform_batches(30);
    let spec = ProxySpec {
        client_preamble: HELLO_LEN,
        server_preamble: HELLO_ACK_LEN,
        disconnect_after: Some(10),
        seed: 0xD15C0,
        ..ProxySpec::default()
    };
    // Paced sends: the reset must be *observed* by a write for the agent
    // to reconnect (see `run_through_proxy`).
    let (counts, link, agent_stats, reports, corrupted) =
        run_through_proxy(&batches, spec, Duration::from_millis(5));
    let total = (batches.len() * BATCH) as u64;
    assert_eq!(
        counts.disconnects, 1,
        "the disconnect must fire exactly once"
    );
    assert_eq!(corrupted, 0);
    assert_eq!(link.duplicate_frames, 0, "reconnect must not duplicate");
    // Everything the agent framed — written into the void, written and
    // delivered, or failed outright — either arrived or is in the
    // accounted gap; nothing is silently missing. (Frames written into
    // the dead socket count as `synopses_written` on the agent but are
    // revealed as loss by the first post-reconnect frame.)
    assert_eq!(
        agent_stats.synopses_written + agent_stats.synopses_wire_lost,
        total
    );
    assert_eq!(
        link.delivered_synopses + link.lost_synopses,
        total,
        "wire accounting must reconcile"
    );
    assert_eq!(agent_stats.reconnects, 1, "one outage, one reconnect");
    assert!(
        agent_stats.synopses_wire_lost >= BATCH as u64,
        "some write must have observed the reset"
    );
    // The swallowed message, the void-written frames, and the wire-lost
    // write form one contiguous gap, revealed in a single report once the
    // stream resumes.
    assert_eq!(reports.len(), 1, "exactly one loss report: {reports:?}");
    assert_eq!(reports[0].count, link.lost_synopses);
    assert!(
        link.lost_synopses >= BATCH as u64,
        "the swallowed message is in the gap"
    );
}

/// Slow loris: every frame arrives one byte per write, so every length
/// prefix is split across reads and every readiness event finds the
/// session mid-message. Nothing may be lost, corrupted or duplicated.
#[test]
fn proxy_trickle_delivers_every_frame_byte_at_a_time() {
    let batches = uniform_batches(8);
    let spec = ProxySpec {
        client_preamble: HELLO_LEN,
        server_preamble: HELLO_ACK_LEN,
        trickle_p: 1.0,
        trickle_max_chunk: 1,
        trickle_pause: Duration::from_micros(50),
        seed: 0x10415,
        ..ProxySpec::default()
    };
    let (counts, link, agent_stats, reports, corrupted) =
        run_through_proxy(&batches, spec, Duration::ZERO);
    let frames = batches.len() as u64;
    assert!(counts.trickled > 0, "the trickle must fire");
    assert_eq!((counts.trickled, counts.forwarded), (frames, frames));
    assert!(counts.trickle_writes > frames * BATCH as u64);
    assert_eq!(link.delivered_frames, frames, "every frame delivered");
    assert_eq!(link.delivered_synopses, frames * BATCH as u64);
    assert_eq!((corrupted, link.lost_synopses), (0, 0));
    assert_eq!(link.duplicate_frames, 0);
    assert!(reports.is_empty(), "no loss to report: {reports:?}");
    assert_eq!(agent_stats.synopses_written, frames * BATCH as u64);
}

// ---------------------------------------------------------------------------
// 4. Sanity: the captured HBase stream still trains a usable model
//    (guards against the capture path silently changing the scenario).
// ---------------------------------------------------------------------------

#[test]
fn captured_stream_is_model_worthy() {
    let stream = hbase_severe_hog_stream();
    let sink = ModelSink::new();
    for s in stream.iter().take(4_000) {
        sink.submit(s.clone());
    }
    let model = sink.build(ModelConfig::default());
    assert!(model.stage_count() > 0, "captured stream must train");
}
