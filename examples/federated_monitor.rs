//! Federated collector tier on real localhost TCP: a control plane,
//! leaf collectors, a root analyzer ingest, and a fleet of agents
//! routed by the rendezvous-hash ring — with one leaf killed mid-stream
//! to show hitless re-homing and exact failover accounting.
//!
//! Topology (every arrow is a real TCP connection):
//!
//! ```text
//!   agents (one per host) ──► leaf collectors ──► root collector ──► analyzer pool
//!        ▲                        ▲
//!        └── ring snapshots ──────┴── heartbeats / epochs ── control plane
//! ```
//!
//! The run has three acts:
//!
//! 1. **Steady state** — agents resolve their leaf through the control
//!    plane's versioned ring and stream synopses; leaves window them
//!    into digests and forward upstream in global stream coordinates.
//! 2. **Leaf kill** — one leaf's uplink is severed with no goodbye and
//!    the control plane declares it dead, bumping the ring epoch.
//!    Orphaned agents are refused by stale-epoch checks, refetch the
//!    ring, and re-home to surviving leaves.
//! 3. **Reconciliation** — the root's per-host merge proves delivered +
//!    lost equals everything sent, with zero duplicate frames: the
//!    outage cost exactly one accounted gap per orphaned host.
//!
//! ```sh
//! cargo run --release --example federated_monitor
//! ```

use crossbeam_channel::unbounded;
use saad::core::batch::SynopsisBatch;
use saad::core::detector::DetectorConfig;
use saad::core::pipeline::{spawn_analyzer_pool, LifecycleConfig, PoolStart, SupervisorConfig};
use saad::core::synopsis::TaskSynopsis;
use saad::core::{HostId, StageId, TaskUid};
use saad::net::{
    Agent, AgentConfig, BackoffConfig, ControlPlane, LeafCollector, LeafConfig, LeafId,
    RootCollector,
};
use saad::sim::{SimDuration, SimTime};
use std::error::Error;
use std::sync::Arc;
use std::time::{Duration, Instant};

const HOSTS: u16 = 9;
const LEAVES: u16 = 3;
const BATCH: usize = 64;
const BATCHES_PER_ACT: u64 = 40;

/// Deterministic synthetic stream: four stages with distinct duration
/// scales, enough regularity for the pool to bootstrap a model from it.
fn synopsis(host: HostId, seq: u64) -> TaskSynopsis {
    let stage = StageId((seq % 4) as u16);
    let base = 2_000 + 3_000 * u64::from(stage.0);
    let jitter = (seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 52) % 500;
    TaskSynopsis {
        host,
        stage,
        uid: TaskUid(u64::from(host.0) << 40 | seq),
        start: SimTime::from_micros(seq * 10_000),
        duration: SimDuration::from_micros(base + jitter),
        log_points: vec![],
    }
}

fn backoff(seed: u64) -> BackoffConfig {
    BackoffConfig {
        initial: Duration::from_millis(5),
        max: Duration::from_millis(100),
        seed,
    }
}

fn main() -> Result<(), Box<dyn Error>> {
    let dir = std::env::temp_dir().join(format!("saad-federated-monitor-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;

    // Analyzer pool behind the root: bootstraps its own model from the
    // first stretch of traffic, exactly like the single-collector demos.
    let (batch_tx, batch_rx) = unbounded::<SynopsisBatch>();
    let start = PoolStart::Store {
        dir: dir.clone(),
        lifecycle: LifecycleConfig {
            checkpoint_every: 0,
            promote_after: 2_000,
            min_retrain_samples: 1_000,
            ..LifecycleConfig::default()
        },
    };
    let supervisor = SupervisorConfig {
        silent_after: u64::MAX,
        ..SupervisorConfig::default()
    };
    let pool = spawn_analyzer_pool(start, DetectorConfig::default(), supervisor, 2, batch_rx)?;

    // Control plane, root, and the leaf fleet. The root interns what it
    // admits against the pool's interner, and puts each gap it finds on
    // the batch that revealed it.
    let control = ControlPlane::new(0x5AAD_DE30, Duration::from_secs(3600));
    let root = RootCollector::bind("127.0.0.1:0", batch_tx, pool.interner())?;
    let mut fleet = Vec::new();
    for i in 0..LEAVES {
        let mut cfg = LeafConfig {
            id: LeafId(i),
            flush_interval: Duration::from_millis(10),
            backoff: backoff(0x1EAF ^ u64::from(i)),
            ..LeafConfig::default()
        };
        cfg.collector.epoch = Some(control.epoch_handle());
        fleet.push(LeafCollector::spawn(
            "127.0.0.1:0",
            root.local_addr(),
            Some(control.clone()),
            cfg,
        )?);
    }
    println!(
        "fleet up: {LEAVES} leaves, root at {}, ring epoch {}",
        root.local_addr(),
        control.snapshot().epoch
    );

    // Agents, one per host, routed by the ring.
    let resolver: Arc<ControlPlane> = Arc::new(control.clone());
    let agents: Vec<Agent> = (0..HOSTS)
        .map(|h| {
            let cfg = AgentConfig {
                backoff: backoff(0xA6E ^ u64::from(h)),
                ..AgentConfig::default()
            };
            Agent::connect_via(resolver.clone(), HostId(h), cfg)
        })
        .collect();
    let snap = control.snapshot();
    for h in 0..HOSTS {
        println!(
            "  host {h} -> leaf {:?}",
            snap.assign(HostId(h)).expect("live ring")
        );
    }

    // Act 1: steady state.
    let mut seq = vec![0u64; HOSTS as usize];
    let send_act = |agents: &[Agent], seq: &mut Vec<u64>| {
        for _ in 0..BATCHES_PER_ACT {
            for (h, agent) in agents.iter().enumerate() {
                let batch: Vec<TaskSynopsis> = (0..BATCH as u64)
                    .map(|_| {
                        let s = synopsis(HostId(h as u16), seq[h]);
                        seq[h] += 1;
                        s
                    })
                    .collect();
                agent.send(batch);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    };
    send_act(&agents, &mut seq);
    let sent_act1: u64 = seq.iter().sum();
    let t = Instant::now();
    while root.stats().synopses < sent_act1 && t.elapsed() < Duration::from_secs(30) {
        std::thread::sleep(Duration::from_millis(5));
    }
    println!(
        "\nact 1 — steady state: {} synopses admitted at the root, 0 lost",
        root.stats().synopses
    );

    // Act 2: kill the leaf owning the most hosts, no goodbye.
    let owned = |id: LeafId| {
        (0..HOSTS)
            .filter(|&h| snap.assign(HostId(h)) == Some(id))
            .count()
    };
    let victim_idx = (0..fleet.len())
        .max_by_key(|&i| owned(fleet[i].id()))
        .expect("fleet");
    let victim = fleet.remove(victim_idx);
    let victim_id = victim.id();
    let orphans: Vec<u16> = (0..HOSTS)
        .filter(|&h| snap.assign(HostId(h)) == Some(victim_id))
        .collect();
    victim.kill();
    control.mark_dead(victim_id);
    println!(
        "\nact 2 — killed leaf {victim_id:?} (owned hosts {orphans:?}): \
         failovers={}, ring epoch {} -> {}",
        control.failovers(),
        snap.epoch,
        control.snapshot().epoch
    );
    send_act(&agents, &mut seq);

    // Act 3: reconciliation — every host's history splits exactly into
    // delivered + lost, duplicates forbidden.
    let rehomed: u64 = agents.iter().map(|a| a.stats().rehomes).sum();
    let totals: Vec<u64> = seq.clone();
    let t = Instant::now();
    while t.elapsed() < Duration::from_secs(30) {
        let done = (0..HOSTS).all(|h| {
            let link = root.link_stats(HostId(h));
            link.expected_synopses == totals[h as usize]
                && link.delivered_synopses + link.lost_synopses == totals[h as usize]
        });
        if done {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    for agent in agents {
        agent.close();
    }
    for leaf in fleet {
        leaf.shutdown();
    }
    println!("\nact 3 — per-host failover accounting ({rehomed} agents re-homed):");
    println!(
        "  {:>4} {:>8} {:>9} {:>6} {:>10}",
        "host", "sent", "delivered", "lost", "duplicates"
    );
    for h in 0..HOSTS {
        let link = root.link_stats(HostId(h));
        println!(
            "  {:>4} {:>8} {:>9} {:>6} {:>10}{}",
            h,
            totals[h as usize],
            link.delivered_synopses,
            link.lost_synopses,
            link.duplicate_frames,
            if orphans.contains(&h) {
                "   <- orphaned"
            } else {
                ""
            },
        );
        assert_eq!(
            link.delivered_synopses + link.lost_synopses,
            totals[h as usize],
            "host {h}: delivered + lost must equal sent"
        );
        assert_eq!(
            link.duplicate_frames, 0,
            "host {h}: re-homing must not replay"
        );
    }
    root.shutdown();

    let events = pool.events().clone();
    drop(pool.join());
    let detected = events.try_iter().count();
    println!("\nanalyzer pool drained cleanly ({detected} window events)");
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
