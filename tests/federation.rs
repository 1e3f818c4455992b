//! End-to-end federation: control plane + leaf collectors + root
//! analyzer ingest over real localhost TCP, under real failures.
//!
//! * **Leaf kill (centerpiece).** The §5.5 HBase severe-hog stream is
//!   split per host and driven through a three-leaf federation; one leaf
//!   is killed mid-stream (uplink severed, no goodbye, no control-plane
//!   notification beyond `mark_dead`). The root's detected event
//!   multiset must equal an uninterrupted in-process oracle fed the same
//!   surviving synopses with the same loss reports: the outage degrades
//!   detection by exactly the accounted gap — one contiguous run of
//!   whole batches per orphaned host, zero duplicates — and detection
//!   resumes through the new leaf after re-homing.
//! * **Leaf flap.** A `DisconnectSchedule` proxy between an agent and
//!   its leaf injects repeated mid-stream disconnects; delivered + lost
//!   must reconcile with everything framed, with one loss report per
//!   outage that actually swallowed data.
//! * **Epoch skew.** An agent routed by a stale ring snapshot is
//!   refused with `StaleEpoch` by a leaf spawned with the control plane,
//!   refetches, and connects; nothing is dropped.
//! * **Interval flush.** A digest no window edge or size cap cuts leaves
//!   a running leaf within a few flush intervals, with no shutdown.
//! * **Version skew.** A v1 agent against a v2 fleet receives a
//!   decodable reject and terminates cleanly with every queued synopsis
//!   accounted as disconnected.

mod common;

use common::wait_for;
use crossbeam_channel::{unbounded, Sender};
use saad::core::batch::SynopsisBatch;
use saad::core::detector::{AnomalyEvent, DetectorConfig};
use saad::core::pipeline::{
    spawn_analyzer_pool, LifecycleConfig, PoolHandle, PoolStart, SupervisorConfig,
};
use saad::core::synopsis::TaskSynopsis;
use saad::core::testkit::{event_keys, TempDir};
use saad::core::tracker::VecSink;
use saad::core::transport::LossReport;
use saad::core::{HostId, StageId, TaskUid};
use saad::fault::{DisconnectSchedule, FaultyProxy, HogSchedule, ProxySpec};
use saad::hbase::{HBaseCluster, HBaseConfig};
use saad::logging::LogPointId;
use saad::net::protocol::{RejectReason, HELLO_ACK_LEN, HELLO_LEN};
use saad::net::{
    Agent, AgentConfig, BackoffConfig, ControlPlane, LeafCollector, LeafConfig, LeafId,
    LeafResolver, RootCollector,
};
use saad::sim::{SimDuration, SimTime};
use saad::workload::{KeyChooser, OperationMix, WorkloadGenerator};
use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCH: usize = 48;

/// An analyzer pool over the store in `dir`. Its one input channel pins
/// every gap report at its exact stream position — on the batch that
/// revealed it — so two pools fed the same batches emit the same event
/// multiset: the property the centerpiece's wire-vs-oracle comparison
/// rests on.
fn spawn_pool(dir: &Path, workers: usize) -> (Sender<SynopsisBatch>, PoolHandle) {
    let (tx, rx) = unbounded();
    let start = PoolStart::Store {
        dir: dir.into(),
        lifecycle: LifecycleConfig {
            checkpoint_every: 0,
            promote_after: 400,
            min_retrain_samples: 200,
            ..LifecycleConfig::default()
        },
    };
    let supervisor = SupervisorConfig {
        silent_after: u64::MAX,
        ..SupervisorConfig::default()
    };
    let pool = spawn_analyzer_pool(start, DetectorConfig::default(), supervisor, workers, rx)
        .expect("spawn lifecycle pool");
    (tx, pool)
}

fn drain_events(pool: PoolHandle) -> Vec<AnomalyEvent> {
    let mut events = Vec::new();
    while let Ok(e) = pool.events().recv() {
        events.push(e);
    }
    pool.join().unwrap();
    events
}

/// The §5.5 severe-hog HBase capture (same scenario as the TCP e2e).
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
    assert!(out.crashed.iter().any(|&c| c), "scenario must crash");
    sink.drain()
}

fn fast_backoff(seed: u64) -> BackoffConfig {
    BackoffConfig {
        initial: Duration::from_millis(5),
        max: Duration::from_millis(80),
        seed,
    }
}

// ---------------------------------------------------------------------------
// 1. Centerpiece: leaf kill mid-stream, exactness of the accounted gap.
// ---------------------------------------------------------------------------

#[test]
fn leaf_kill_degrades_detection_by_exactly_the_accounted_gap() {
    let stream = hbase_severe_hog_stream();
    let mut per_host: BTreeMap<HostId, Vec<TaskSynopsis>> = BTreeMap::new();
    for s in &stream {
        per_host.entry(s.host).or_default().push(s.clone());
    }
    assert!(per_host.len() >= 3, "need a real fleet: {}", per_host.len());
    let batches: BTreeMap<HostId, Vec<Vec<TaskSynopsis>>> = per_host
        .iter()
        .map(|(&h, ss)| (h, ss.chunks(BATCH).map(<[_]>::to_vec).collect()))
        .collect();

    // Federation: control plane, root → lifecycle pool, three leaves. The
    // root's one output channel is both the pool's input and the log the
    // oracle replays: every gap report rides on the batch that revealed
    // it, so the log needs no linearizing. What the root has emitted is
    // moved to the pool, and recorded, at each quiescence point.
    let control = ControlPlane::new(0x05AA_DFED);
    let tcp_dir = TempDir::new("kill-tcp");
    let (pool_tx, pool) = spawn_pool(tcp_dir.path(), 3);
    let wire_interner = pool.interner();
    let (root_tx, root_rx) = unbounded::<SynopsisBatch>();
    let mut log: Vec<SynopsisBatch> = Vec::new();
    let forward = |log: &mut Vec<SynopsisBatch>| {
        for batch in root_rx.try_iter() {
            log.push(batch.clone());
            pool_tx.send(batch).unwrap();
        }
    };
    let root = RootCollector::bind("127.0.0.1:0", root_tx, wire_interner.clone()).unwrap();

    let mut fleet = Vec::new();
    for i in 0..3u16 {
        let cfg = LeafConfig {
            id: LeafId(i),
            flush_interval: Duration::from_millis(10),
            backoff: fast_backoff(0x1EAF ^ u64::from(i)),
            ..LeafConfig::default()
        };
        fleet.push(
            LeafCollector::spawn("127.0.0.1:0", root.local_addr(), Some(control.clone()), cfg)
                .unwrap(),
        );
    }
    // Both tiers and the control plane in one registry: the loops under
    // the root and under each leaf export the same `saad_reactor_*`
    // families, told apart by label, and the whole text is well-formed.
    let registry = saad::obs::Registry::new();
    root.register_metrics(&registry);
    fleet
        .iter()
        .for_each(|leaf| leaf.register_metrics(&registry));
    control.register_metrics(&registry);
    saad::obs::validate_text(&registry.render()).expect("one well-formed exposition");
    let loop_connections = |tier: &str| -> u64 {
        let prefix = format!("saad_reactor_loop_connections{{{tier}");
        let text = registry.render();
        let samples = text.lines().filter(|l| l.starts_with(&prefix));
        samples
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum()
    };

    let resolver: Arc<ControlPlane> = Arc::new(control.clone());
    let agents: BTreeMap<HostId, Agent> = per_host
        .keys()
        .map(|&h| {
            let cfg = AgentConfig {
                backoff: fast_backoff(0xA6E ^ u64::from(h.0)),
                ..AgentConfig::default()
            };
            (h, Agent::connect_via(resolver.clone(), h, cfg))
        })
        .collect();

    // Phase 1: first half of every host's stream, then full quiescence —
    // every admitted synopsis delivered at the root, nothing in flight.
    let halves: BTreeMap<HostId, usize> = batches.iter().map(|(&h, b)| (h, b.len() / 2)).collect();
    for (h, b) in &batches {
        for batch in &b[..halves[h]] {
            agents[h].send(batch.clone());
        }
    }
    for (&h, b) in &batches {
        let sent: u64 = b[..halves[&h]].iter().map(|x| x.len() as u64).sum();
        wait_for("phase-1 quiescence", Duration::from_secs(60), || {
            root.link_stats(h).delivered_synopses == sent
        });
    }
    // Every live connection is in some loop's table: at the root one
    // uplink per leaf that owns a host (an idle leaf never dials), across
    // the leaves one agent per host.
    let snap = control.snapshot();
    let owners: BTreeSet<Option<LeafId>> = per_host.keys().map(|&h| snap.assign(h)).collect();
    let live = (owners.len() as u64, per_host.len() as u64);
    wait_for("the loops to publish", Duration::from_secs(10), || {
        (loop_connections("tier=\"root\""), loop_connections("leaf=")) == live
    });
    forward(&mut log);

    // Kill the leaf owning the most hosts, then declare it dead.
    let snap = control.snapshot();
    let owned = |id: LeafId| {
        per_host
            .keys()
            .filter(|&&h| snap.assign(h) == Some(id))
            .count()
    };
    let victim_idx = (0..fleet.len())
        .max_by_key(|&i| owned(fleet[i].id()))
        .unwrap();
    let victim = fleet.remove(victim_idx);
    let victim_id = victim.id();
    let orphans: Vec<HostId> = per_host
        .keys()
        .copied()
        .filter(|&h| snap.assign(h) == Some(victim_id))
        .collect();
    assert!(!orphans.is_empty(), "victim must own hosts");
    let epoch_before = control.snapshot().epoch;
    victim.kill();
    control.mark_dead(victim_id);
    assert_eq!(control.failovers(), 1, "one kill, one failover");
    assert_eq!(control.snapshot().epoch, epoch_before + 1);

    // Phase 2: the rest of every stream, paced so a write observes the
    // dead socket early and the agent re-homes with most of its tail.
    let max_tail = batches
        .iter()
        .map(|(h, b)| b.len() - halves[h])
        .max()
        .unwrap();
    for i in 0..max_tail {
        for (h, b) in &batches {
            if let Some(batch) = b.get(halves[h] + i) {
                agents[h].send(batch.clone());
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let agent_stats: BTreeMap<HostId, saad::net::AgentStats> =
        agents.into_iter().map(|(h, a)| (h, a.close())).collect();
    for leaf in fleet {
        leaf.shutdown(); // surviving leaves flush + goodbye
    }

    // Reconciliation: every host's full history is adopted and split
    // exactly into delivered + lost.
    for (&h, ss) in &per_host {
        let total = ss.len() as u64;
        wait_for("root reconciliation", Duration::from_secs(60), || {
            let link = root.link_stats(h);
            link.expected_synopses == total && link.delivered_synopses + link.lost_synopses == total
        });
    }
    let links: BTreeMap<HostId, saad::core::transport::LinkStats> =
        per_host.keys().map(|&h| (h, root.link_stats(h))).collect();
    root.shutdown();
    forward(&mut log);
    drop(pool_tx);
    let tcp_events = drain_events(pool);
    let reports: Vec<LossReport> = log.iter().flat_map(|b| b.losses.clone()).collect();

    // Exactness: loss only on orphaned hosts, one contiguous whole-batch
    // gap each, revealed by exactly one report; zero duplicates anywhere.
    let mut gaps: BTreeMap<HostId, (usize, u64)> = BTreeMap::new(); // host → (gap start, len)
    for (&h, ss) in &per_host {
        let link = &links[&h];
        let host_reports: Vec<&LossReport> = reports.iter().filter(|r| r.host == h).collect();
        let revealed: u64 = host_reports.iter().map(|r| r.count).sum();
        assert_eq!(link.duplicate_frames, 0, "{h:?}: failover must not replay");
        assert_eq!(revealed, link.lost_synopses, "{h:?}: reports ≡ accounting");
        if orphans.contains(&h) {
            let lost = link.lost_synopses;
            let first_half: usize = batches[&h][..halves[&h]].iter().map(Vec::len).sum();
            assert!(lost >= BATCH as u64, "{h:?}: kill must cost the host data");
            assert_eq!(lost % BATCH as u64, 0, "{h:?}: only whole batches vanish");
            assert_eq!(host_reports.len(), 1, "{h:?}: one gap, one report");
            // The gap starts exactly where the victim stopped (phase-1
            // quiescence pinned that to the half boundary) and the report
            // is stamped with the first synopsis that survived it.
            let resume = first_half + lost as usize;
            assert_eq!(
                host_reports[0].at, ss[resume].start,
                "{h:?}: report must be stamped at the resume point"
            );
            gaps.insert(h, (first_half, lost));
            let a = &agent_stats[&h];
            assert_eq!(a.rehomes, 1, "{h:?}: exactly one re-homing");
            assert!(a.reconnects >= 1);
            assert_eq!(a.drops.total(), 0, "{h:?}: nothing dropped at the queue");
        } else {
            assert_eq!(
                link.lost_synopses, 0,
                "{h:?} kept its leaf, nothing may be lost"
            );
            assert!(host_reports.is_empty());
            assert_eq!(agent_stats[&h].rehomes, 0);
            gaps.insert(h, (0, 0));
        }
    }

    // Content exactness: per host, the synopses the pool actually
    // received are the full capture minus exactly the accounted gap —
    // in order, nothing reordered, nothing repeated. A batch is one
    // uplink drain, so it may hold several hosts' digests.
    let mut arrived: BTreeMap<HostId, Vec<u64>> = BTreeMap::new();
    for b in &log {
        for (host, uid) in b.hosts.iter().zip(&b.uids) {
            arrived.entry(*host).or_default().push(uid.0);
        }
    }
    for (&h, ss) in &per_host {
        let (gap_start, lost) = gaps[&h];
        let resume = gap_start + lost as usize;
        let survivors: Vec<u64> = ss[..gap_start]
            .iter()
            .chain(&ss[resume..])
            .map(|s| s.uid.0)
            .collect();
        assert_eq!(
            arrived.get(&h).unwrap_or(&Vec::new()),
            &survivors,
            "{h:?}: the pool must see the capture minus exactly the gap"
        );
    }

    // Oracle: replay the recorded log — identical batches, identical loss
    // reports on them, identical order — through an identical in-process
    // pool. Detection must degrade by exactly the accounted
    // gap and nothing else. The oracle pool has an interner of its own
    // (uplink handlers interned in a race the log does not record), so a
    // replayed batch's signatures are re-interned against it.
    let oracle_dir = TempDir::new("kill-oracle");
    let (oracle_tx, oracle_pool) = spawn_pool(oracle_dir.path(), 3);
    let oracle_interner = oracle_pool.interner();
    for batch in &log {
        let mut batch = batch.clone();
        for sig in &mut batch.sigs {
            let signature = wire_interner
                .resolve(*sig)
                .expect("interned on the wire run");
            *sig = oracle_interner.intern(&signature);
        }
        oracle_tx.send(batch).unwrap();
    }
    drop(oracle_tx);
    let oracle_events = drain_events(oracle_pool);

    assert_eq!(
        event_keys(&tcp_events),
        event_keys(&oracle_events),
        "federated detection diverged from the gap-accounted oracle"
    );
}

// ---------------------------------------------------------------------------
// 2. Leaf flap: repeated agent↔leaf disconnects reconcile exactly.
// ---------------------------------------------------------------------------

#[test]
fn leaf_flap_through_proxy_reconciles_exactly() {
    let host = HostId(7);
    let synopses: Vec<TaskSynopsis> = (0..40 * BATCH as u64)
        .map(|uid| TaskSynopsis {
            host,
            stage: StageId(0),
            uid: TaskUid(uid),
            start: SimTime::from_millis(uid),
            duration: SimDuration::from_micros(1_000),
            log_points: vec![(LogPointId(1), 1), (LogPointId(2), 1)],
        })
        .collect();

    let (batch_tx, batch_rx) = unbounded::<SynopsisBatch>();
    let root = RootCollector::bind("127.0.0.1:0", batch_tx, Arc::default()).unwrap();
    let drain = std::thread::spawn(move || {
        let (mut delivered, mut reports) = (0u64, Vec::new());
        for batch in batch_rx.iter() {
            delivered += batch.len() as u64;
            reports.extend_from_slice(&batch.losses);
        }
        (delivered, reports)
    });
    let leaf = LeafCollector::spawn(
        "127.0.0.1:0",
        root.local_addr(),
        None,
        LeafConfig {
            id: LeafId(0),
            flush_interval: Duration::from_millis(5),
            backoff: fast_backoff(0x1EAF),
            ..LeafConfig::default()
        },
    )
    .unwrap();

    // Agent → flapping proxy → leaf → root.
    let proxy = FaultyProxy::start(
        leaf.local_addr(),
        ProxySpec {
            client_preamble: HELLO_LEN,
            server_preamble: HELLO_ACK_LEN,
            disconnect_schedule: Some(DisconnectSchedule {
                first_after: 6,
                every: 8,
                jitter: 0.25,
                max: Some(3),
            }),
            seed: 0xF1A9,
            ..ProxySpec::default()
        },
    )
    .unwrap();
    let agent = Agent::connect(
        proxy.local_addr(),
        host,
        AgentConfig {
            backoff: fast_backoff(0xA6E),
            ..AgentConfig::default()
        },
    );
    for chunk in synopses.chunks(BATCH) {
        agent.send(chunk.to_vec());
        std::thread::sleep(Duration::from_millis(3));
    }
    let agent_stats = agent.close();
    let counts = proxy.shutdown();
    leaf.shutdown();

    let total = synopses.len() as u64;
    assert_eq!(
        agent_stats.synopses_written + agent_stats.synopses_wire_lost,
        total,
        "everything framed is written or accounted"
    );
    assert_eq!(counts.disconnects, 3, "the schedule must fire all 3 times");
    assert_eq!(agent_stats.reconnects, 3, "one reconnect per flap");

    wait_for("root reconciliation", Duration::from_secs(30), || {
        let link = root.link_stats(host);
        link.expected_synopses == total && link.delivered_synopses + link.lost_synopses == total
    });
    let link = root.link_stats(host);
    assert_eq!(link.duplicate_frames, 0, "flapping must never duplicate");
    let stats = root.shutdown();
    let (delivered, reports) = drain.join().unwrap();
    assert_eq!(
        delivered, link.delivered_synopses,
        "pool got every survivor"
    );
    assert_eq!(stats.synopses, link.delivered_synopses);

    let revealed: u64 = reports.iter().map(|r| r.count).sum();
    assert_eq!(revealed, link.lost_synopses, "reports ≡ link accounting");
    assert!(
        reports.len() as u64 <= counts.disconnects,
        "at most one gap per flap: {reports:?}"
    );
}

// ---------------------------------------------------------------------------
// 3. Epoch skew: stale ring → typed reject → refetch → connect.
// ---------------------------------------------------------------------------

/// Resolver that answers what the control plane answers, but one epoch
/// behind for its first `stale_left` resolutions — the refetch an agent
/// performs after a `StaleEpoch` reject, made observable.
struct StaleThenLive {
    control: ControlPlane,
    stale_left: AtomicU64,
}

impl LeafResolver for StaleThenLive {
    fn resolve(&self, host: HostId) -> Option<(SocketAddr, u64)> {
        let (addr, live) = self.control.resolve(host)?;
        let stale = self
            .stale_left
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok();
        Some((addr, if stale { live - 1 } else { live }))
    }
}

#[test]
fn stale_epoch_reject_triggers_refetch_and_clean_connect() {
    let (batch_tx, batch_rx) = unbounded::<SynopsisBatch>();
    let root = RootCollector::bind("127.0.0.1:0", batch_tx, Arc::default()).unwrap();
    // Spawned with the control plane, the leaf registers (epoch 1) and
    // enforces that plane's epoch: nothing is wired by hand.
    let control = ControlPlane::new(0x57A1E);
    let leaf = LeafCollector::spawn(
        "127.0.0.1:0",
        root.local_addr(),
        Some(control.clone()),
        LeafConfig::default(),
    )
    .unwrap();
    assert_eq!(control.snapshot().epoch, 1);

    let resolver = Arc::new(StaleThenLive {
        control,
        stale_left: AtomicU64::new(2),
    });
    let host = HostId(3);
    let agent = Agent::connect_via(
        resolver,
        host,
        AgentConfig {
            backoff: fast_backoff(0x57A1E),
            ..AgentConfig::default()
        },
    );
    let batch: Vec<TaskSynopsis> = (0..BATCH as u64)
        .map(|uid| TaskSynopsis {
            host,
            stage: StageId(0),
            uid: TaskUid(uid),
            start: SimTime::from_millis(uid),
            duration: SimDuration::from_micros(500),
            log_points: vec![(LogPointId(1), 1)],
        })
        .collect();
    agent.send(batch);
    // Let the worker ride out both stale rejects and the refetched
    // connect before closing — close() aborts pending retries by design.
    wait_for("stale retries to connect", Duration::from_secs(30), || {
        agent.stats().synopses_written == BATCH as u64
    });
    let stats = agent.close();

    assert_eq!(
        stats.stale_epoch_rejects, 2,
        "both stale resolutions refused"
    );
    assert_eq!(stats.connects, 1, "the refetched epoch connects");
    assert_eq!(stats.synopses_written, BATCH as u64);
    assert_eq!(stats.drops.total(), 0, "stale rejects must not shed data");
    assert_eq!(stats.reject_reason, Some(RejectReason::StaleEpoch));

    wait_for(
        "the leaf to admit the batch",
        Duration::from_secs(30),
        || leaf.collector_stats().synopses == BATCH as u64,
    );
    let cstats = leaf.collector_stats();
    assert_eq!(cstats.stale_epoch_rejects, 2);
    assert_eq!(cstats.handshakes_rejected, 2);
    assert_eq!(cstats.lost_synopses, 0);
    leaf.shutdown();
    root.shutdown();
    drop(batch_rx);
}

// ---------------------------------------------------------------------------
// 4. The interval flush: an idle agent's short digest is not held back.
// ---------------------------------------------------------------------------

#[test]
fn a_short_digest_reaches_the_root_on_the_leafs_flush_interval() {
    let (batch_tx, batch_rx) = unbounded::<SynopsisBatch>();
    let root = RootCollector::bind("127.0.0.1:0", batch_tx, Arc::default()).unwrap();
    let flush_interval = Duration::from_millis(100);
    let config = LeafConfig {
        flush_interval,
        ..LeafConfig::default()
    };
    let leaf = LeafCollector::spawn("127.0.0.1:0", root.local_addr(), None, config).unwrap();
    // One window, fewer synopses than a digest holds: no window edge and
    // no size cap cuts this digest, only the flush interval.
    let host = HostId(5);
    let n = 10u64;
    assert!(n < LeafConfig::default().max_digest as u64);
    let agent = Agent::connect(
        leaf.local_addr(),
        host,
        AgentConfig {
            backoff: fast_backoff(0xF1A5),
            ..AgentConfig::default()
        },
    );
    let batch: Vec<TaskSynopsis> = (0..n)
        .map(|uid| TaskSynopsis {
            host,
            stage: StageId(0),
            uid: TaskUid(uid),
            start: SimTime::from_millis(uid),
            duration: SimDuration::from_micros(500),
            log_points: vec![(LogPointId(1), 1)],
        })
        .collect();
    agent.send(batch);
    wait_for(
        "the leaf to admit the frame",
        Duration::from_secs(30),
        || leaf.collector_stats().synopses == n,
    );
    // The agent goes idle; the leaf keeps running.
    let (admitted, mut delivered) = (Instant::now(), 0);
    wait_for(
        "the root to deliver the digest",
        Duration::from_secs(30),
        || {
            delivered += batch_rx.try_iter().map(|b| b.len() as u64).sum::<u64>();
            delivered == n
        },
    );
    let waited = admitted.elapsed();
    assert!(
        waited < 5 * flush_interval,
        "{waited:?} is more than a few flush intervals of {flush_interval:?}"
    );
    let leaf_stats = leaf.stats();
    assert_eq!(
        (leaf_stats.digests_sent, leaf_stats.digest_synopses),
        (1, n)
    );
    assert_eq!(root.stats().synopses, n);
    agent.close();
    leaf.shutdown();
    root.shutdown();
}

// ---------------------------------------------------------------------------
// 5. Version skew: a v1 or a v2 agent against the current fleet terminates
//    cleanly (the name is the one this test has had since v2).
// ---------------------------------------------------------------------------

#[test]
fn v1_agent_against_v2_leaf_terminates_cleanly() {
    for version in [1, 2] {
        let (batch_tx, _batch_rx) = unbounded::<SynopsisBatch>();
        let root = RootCollector::bind("127.0.0.1:0", batch_tx, Arc::default()).unwrap();
        let leaf = LeafCollector::spawn(
            "127.0.0.1:0",
            root.local_addr(),
            None,
            LeafConfig::default(),
        )
        .unwrap();

        let host = HostId(9);
        let agent = Agent::connect(
            leaf.local_addr(),
            host,
            AgentConfig {
                version,
                backoff: fast_backoff(0x01D),
                ..AgentConfig::default()
            },
        );
        let batch: Vec<TaskSynopsis> = (0..10u64)
            .map(|uid| TaskSynopsis {
                host,
                stage: StageId(0),
                uid: TaskUid(uid),
                start: SimTime::from_millis(uid),
                duration: SimDuration::from_micros(500),
                log_points: vec![],
            })
            .collect();
        agent.send(batch);
        let stats = agent.close(); // must return, not hang

        assert_eq!(
            stats.connects, 0,
            "a v{version} hello may never be admitted"
        );
        assert_eq!(
            stats.handshake_rejects, 1,
            "v{version}: rejected once, terminally"
        );
        assert_eq!(stats.reject_reason, Some(RejectReason::VersionMismatch));
        assert_eq!(stats.synopses_written, 0);
        assert_eq!(
            stats.drops.disconnected, 10,
            "v{version}: queued synopses surface as disconnected drops, not silence"
        );
        assert_eq!(leaf.collector_stats().handshakes_rejected, 1);
        leaf.shutdown();
        root.shutdown();
    }
}
