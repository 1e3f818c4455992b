//! Federated collector tier harness: steady digest throughput and
//! re-homing latency at several fleet sizes.
//!
//! Each run stands up a real federation on loopback TCP — a control
//! plane, a root analyzer ingest, `N` leaf collectors, and a fleet of
//! agents routed by the consistent-hash ring — then measures the two
//! numbers `BENCH_federation.json` reports per fleet size:
//!
//! 1. **Steady throughput**: synopses/second from agent submit to root
//!    admission while every leaf is healthy, over [`ROUNDS`] timed rounds
//!    of at least [`ROUND`] each, reported as [`quartiles`]. The
//!    clock starts only once every host has delivered at the root, so no
//!    agent's first connect falls inside a round.
//! 2. **Re-homing latency**: one leaf is killed (uplink severed, no
//!    goodbye) and declared dead at the control plane; the latency is
//!    the wall time until *every* host the dead leaf owned is delivering
//!    fresh synopses at the root through its new leaf.

use crate::{quartiles, ROUND, ROUNDS};
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
    /// Synopses admitted at the root over the timed rounds.
    pub steady_synopses: u64,
    /// Quartiles of the rounds' synopses / second: `[q1, median, q3]`.
    pub throughput: [f64; 3],
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

/// Poll `done` every 2 ms; panic naming `what` after a minute without it.
fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let start = Instant::now();
    while !done() {
        assert!(start.elapsed() < Duration::from_secs(60), "{what} stalled");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Run one federation at `leaves` leaf collectors: `hosts` agents send
/// waves of `per_host` synopses each (a multiple of 50) for the steady
/// rounds, then keep trickling while one leaf is killed for the re-homing
/// measurement.
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

    // A wave: `n` synopses from every host, in frames of 50, uids on from
    // `first`.
    let send_wave = |first: u64, n: u64| {
        for (h, agent) in agents.iter().enumerate() {
            let host = HostId(h as u16);
            for uid in (first..first + n).step_by(50) {
                agent.send((uid..uid + 50).map(|u| synopsis(host, u)).collect());
            }
        }
    };
    let admitted = || root.stats().synopses;

    // Untimed warm-up: every host connects and delivers at the root.
    send_wave(0, 50);
    let delivered = |h| root.link_stats(HostId(h)).delivered_synopses > 0;
    wait_for("warm-up", || (0..hosts as u16).all(delivered));

    // Timed rounds: waves for at least `ROUND` with at most two in flight,
    // each round clocked until the root has admitted all of it.
    let (wave, warm_up) = (hosts as u64 * per_host, admitted());
    let (mut sent, mut rates) = (warm_up, Vec::with_capacity(ROUNDS));
    for _ in 0..ROUNDS {
        let (t0, from) = (Instant::now(), sent);
        while t0.elapsed() < ROUND {
            wait_for("a wave", || admitted() + wave >= sent);
            send_wave(sent / hosts as u64, per_host);
            sent += wave;
        }
        wait_for("a round", || admitted() >= sent);
        rates.push((sent - from) as f64 / t0.elapsed().as_secs_f64());
    }
    let drops: u64 = agents.iter().map(|a| a.stats().drops.total()).sum();
    assert_eq!(drops, 0, "agents dropped synopses");

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
    wait_for("re-homing", || {
        orphans
            .iter()
            .zip(&baseline)
            .all(|(&h, &base)| root.link_stats(h).delivered_synopses > base)
    });
    let rehome_ms = t1.elapsed().as_secs_f64() * 1e3;

    stop.store(true, Ordering::Relaxed);
    for s in senders {
        s.join().expect("sender thread");
    }
    for agent in agents {
        Arc::into_inner(agent)
            .expect("sender threads joined")
            .close();
    }
    for leaf in fleet {
        leaf.shutdown();
    }
    root.shutdown();
    drain.join().expect("drain thread");

    FederationResult {
        leaves,
        hosts,
        steady_synopses: sent - warm_up,
        throughput: quartiles(&rates),
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
            "    {{ \"leaves\": {}, \"hosts\": {}, \"rounds\": {ROUNDS}, \"steady_synopses\": {}, \
             \"throughput_q1_per_sec\": {:.0}, \"throughput_median_per_sec\": {:.0}, \
             \"throughput_q3_per_sec\": {:.0}, \"orphan_hosts\": {}, \"rehome_ms\": {:.1}, \
             \"failovers\": {}, \"ring_epoch\": {} }}{sep}\n",
            r.leaves,
            r.hosts,
            r.steady_synopses,
            r.throughput[0],
            r.throughput[1],
            r.throughput[2],
            r.orphan_hosts,
            r.rehome_ms,
            r.failovers,
            r.ring_epoch,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
