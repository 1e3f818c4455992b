//! Federated collector tier harness: steady digest throughput and
//! re-homing latency at several fleet sizes.
//!
//! Each run stands up a real federation on loopback TCP — a control
//! plane, a root analyzer ingest, `N` leaf collectors, and a fleet of
//! agents routed by the consistent-hash ring — then measures the two
//! numbers `BENCH_federation.json` reports per fleet size:
//!
//! 1. **Steady throughput**: synopses/second from agent submit to root
//!    admission while every leaf is healthy.
//! 2. **Re-homing latency**: one leaf is killed (uplink severed, no
//!    goodbye) and declared dead at the control plane; the latency is
//!    the wall time until *every* host the dead leaf owned is delivering
//!    fresh synopses at the root through its new leaf.

use saad_core::batch::SynopsisBatch;
use saad_core::synopsis::TaskSynopsis;
use saad_core::{HostId, StageId, TaskUid};
use saad_net::{
    Agent, AgentConfig, BackoffConfig, ControlPlane, LeafCollector, LeafConfig, LeafId,
    RootCollector,
};
use saad_sim::{SimDuration, SimTime};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Measured outcome of one federation run at a given fleet size.
#[derive(Debug, Clone)]
pub struct FederationResult {
    /// Leaf collectors in the fleet.
    pub leaves: usize,
    /// Agent hosts routed over the ring.
    pub hosts: usize,
    /// Synopses admitted at the root during the steady phase.
    pub steady_synopses: u64,
    /// Wall seconds the steady phase took end to end.
    pub steady_secs: f64,
    /// Steady synopses / steady seconds.
    pub throughput: f64,
    /// Hosts the killed leaf owned (all of them re-homed).
    pub orphan_hosts: usize,
    /// Kill → every orphan host delivering again at the root, in
    /// milliseconds.
    pub rehome_ms: f64,
    /// Control-plane failovers counted (must be exactly 1).
    pub failovers: u64,
    /// Ring epoch after the failover republish.
    pub ring_epoch: u64,
}

fn synopsis(host: HostId, uid: u64) -> TaskSynopsis {
    TaskSynopsis {
        host,
        stage: StageId(0),
        uid: TaskUid(uid),
        start: SimTime::from_micros(uid),
        duration: SimDuration::from_micros(5),
        log_points: vec![],
    }
}

fn poll_until(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    done()
}

/// Run one federation at `leaves` leaf collectors: `hosts` agents send
/// `per_host` synopses for the steady measurement, then keep trickling
/// while one leaf is killed for the re-homing measurement.
pub fn run_federation(leaves: usize, hosts: usize, per_host: u64, seed: u64) -> FederationResult {
    let control = ControlPlane::new(seed);
    let (batch_tx, batch_rx) = crossbeam_channel::unbounded::<SynopsisBatch>();
    // The root interns at the edge, as it would for a pool behind it.
    let root = RootCollector::bind("127.0.0.1:0", batch_tx, Arc::default()).expect("bind root");
    // Drain the analyzer input so the channel never backs up.
    let drain = std::thread::spawn(move || batch_rx.iter().map(|b| b.len() as u64).sum::<u64>());

    let mut fleet = Vec::new();
    for i in 0..leaves {
        let cfg = LeafConfig {
            id: LeafId(i as u16),
            flush_interval: Duration::from_millis(5),
            max_digest: 256,
            ..LeafConfig::default()
        };
        let leaf =
            LeafCollector::spawn("127.0.0.1:0", root.local_addr(), Some(control.clone()), cfg)
                .expect("spawn leaf");
        fleet.push(leaf);
    }

    let resolver: Arc<ControlPlane> = Arc::new(control.clone());
    let agents: Vec<Agent> = (0..hosts)
        .map(|h| {
            let cfg = AgentConfig {
                backoff: BackoffConfig {
                    initial: Duration::from_millis(5),
                    max: Duration::from_millis(100),
                    seed: seed ^ ((h as u64) << 8),
                },
                ..AgentConfig::default()
            };
            Agent::connect_via(resolver.clone(), HostId(h as u16), cfg)
        })
        .collect();

    // Steady phase: a fixed volume per host, timed from first submit to
    // full admission at the root.
    let steady_total = hosts as u64 * per_host;
    let t0 = Instant::now();
    for (h, agent) in agents.iter().enumerate() {
        for chunk in 0..per_host / 50 {
            let batch = (0..50)
                .map(|i| synopsis(HostId(h as u16), chunk * 50 + i))
                .collect();
            agent.send(batch);
        }
    }
    let ok = poll_until(Duration::from_secs(60), || {
        root.stats().synopses >= steady_total
    });
    let steady_secs = t0.elapsed().as_secs_f64();
    assert!(
        ok,
        "steady phase stalled: root admitted {} of {steady_total}",
        root.stats().synopses
    );

    // Failover phase: every host keeps trickling fresh synopses from its
    // own thread while the victim leaf dies mid-stream.
    let stop = Arc::new(AtomicBool::new(false));
    let agents: Vec<Arc<Agent>> = agents.into_iter().map(Arc::new).collect();
    let senders: Vec<_> = agents
        .iter()
        .enumerate()
        .map(|(h, agent)| {
            let agent = agent.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut uid = 1_000_000u64;
                while !stop.load(Ordering::Relaxed) {
                    agent.send(vec![synopsis(HostId(h as u16), uid)]);
                    uid += 1;
                    std::thread::sleep(Duration::from_millis(3));
                }
            })
        })
        .collect();

    let snap = control.snapshot();
    let victim_idx = fleet
        .iter()
        .position(|l| (0..hosts as u16).any(|h| snap.assign(HostId(h)) == Some(l.id())))
        .expect("some leaf owns at least one host");
    let victim = fleet.remove(victim_idx);
    let victim_id = victim.id();
    let orphans: Vec<HostId> = (0..hosts as u16)
        .map(HostId)
        .filter(|&h| snap.assign(h) == Some(victim_id))
        .collect();
    let baseline: Vec<u64> = orphans
        .iter()
        .map(|&h| root.link_stats(h).delivered_synopses)
        .collect();

    victim.kill();
    control.mark_dead(victim_id);
    let t1 = Instant::now();
    let ok = poll_until(Duration::from_secs(60), || {
        orphans
            .iter()
            .zip(&baseline)
            .all(|(&h, &base)| root.link_stats(h).delivered_synopses > base)
    });
    let rehome_ms = t1.elapsed().as_secs_f64() * 1e3;
    assert!(ok, "re-homing stalled: an orphan host never resumed");

    stop.store(true, Ordering::Relaxed);
    for s in senders {
        s.join().expect("sender thread");
    }
    for agent in agents {
        match Arc::try_unwrap(agent) {
            Ok(agent) => drop(agent.close()),
            Err(_) => unreachable!("sender threads joined"),
        }
    }
    for leaf in fleet {
        leaf.shutdown();
    }
    root.shutdown();
    drain.join().expect("drain thread");

    FederationResult {
        leaves,
        hosts,
        steady_synopses: steady_total,
        steady_secs,
        throughput: steady_total as f64 / steady_secs,
        orphan_hosts: orphans.len(),
        rehome_ms,
        failovers: control.failovers(),
        ring_epoch: control.snapshot().epoch,
    }
}

/// Render fleet-size results as the `BENCH_federation.json` document.
pub fn render_federation_json(results: &[FederationResult]) -> String {
    let mut out = String::from("{\n  \"bench\": \"federation\",\n  \"fleets\": [\n");
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{ \"leaves\": {}, \"hosts\": {}, \"steady_synopses\": {}, \
             \"steady_secs\": {:.3}, \"throughput_per_sec\": {:.0}, \"orphan_hosts\": {}, \
             \"rehome_ms\": {:.1}, \"failovers\": {}, \"ring_epoch\": {} }}{sep}\n",
            r.leaves,
            r.hosts,
            r.steady_synopses,
            r.steady_secs,
            r.throughput,
            r.orphan_hosts,
            r.rehome_ms,
            r.failovers,
            r.ring_epoch,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
