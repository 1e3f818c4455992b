//! Crate-level smoke tests over localhost TCP: one round trip and one
//! rejection. What the protocol does with the bytes is pinned without
//! sockets by the `session` and `ingest` unit tests; the event loop's
//! `poll(2)` fallback, by the reactor crate's suites on both backends.

use crossbeam_channel::{unbounded, Receiver};
use saad_core::batch::SynopsisBatch;
use saad_core::intern::SignatureInterner;
use saad_core::pipeline::OverloadPolicy;
use saad_core::synopsis::TaskSynopsis;
use saad_core::{HostId, StageId, TaskUid};
use saad_logging::LogPointId;
use saad_net::{
    Agent, AgentConfig, CollectorStats, ReactorCollector, ReactorCollectorConfig, RejectReason,
};
use saad_sim::{SimDuration, SimTime};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const PER_AGENT: u64 = 200;

fn synopsis(host: u16, uid: u64) -> TaskSynopsis {
    TaskSynopsis {
        host: HostId(host),
        stage: StageId(1),
        uid: TaskUid(uid),
        start: SimTime::from_millis(uid),
        duration: SimDuration::from_micros(1_000),
        log_points: vec![(LogPointId(1), 1), (LogPointId(2), 2)],
    }
}

/// `agents` agents each stream [`PER_AGENT`] synopses in batches of 20
/// and close; every frame must have been written whole.
fn stream_from(addr: SocketAddr, agents: u16) {
    let fleet: Vec<Agent> = (0..agents)
        .map(|h| Agent::connect(addr, HostId(h), AgentConfig::default()))
        .collect();
    for (h, agent) in fleet.iter().enumerate() {
        for chunk in 0..(PER_AGENT / 20) {
            agent.send(
                (0..20)
                    .map(|i| synopsis(h as u16, chunk * 20 + i))
                    .collect(),
            );
        }
    }
    for agent in fleet {
        let stats = agent.close();
        assert_eq!(stats.synopses_written, PER_AGENT);
        assert_eq!((stats.connects, stats.drops.total()), (1, 0));
    }
}

/// Count what arrives on `rx` until `total` synopses did; every batch's
/// watermark column is a running maximum, and no batch charges a gap.
fn receive(rx: &Receiver<SynopsisBatch>, total: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut received = 0u64;
    while received < total {
        assert!(Instant::now() < deadline, "collector stalled");
        if let Ok(batch) = rx.recv_timeout(Duration::from_millis(100)) {
            assert!(batch.watermarks.windows(2).all(|w| w[0] <= w[1]));
            assert!(
                batch.losses.is_empty(),
                "no loss expected: {:?}",
                batch.losses
            );
            received += batch.len() as u64;
        }
    }
}

fn interner() -> Arc<SignatureInterner> {
    Arc::new(SignatureInterner::new())
}

fn assert_clean(stats: CollectorStats, agents: u16) {
    assert_eq!(stats.synopses, PER_AGENT * u64::from(agents));
    assert_eq!(stats.connections_accepted, u64::from(agents));
    assert_eq!((stats.lost_synopses, stats.corrupted_frames), (0, 0));
    assert_eq!(stats.watermark, SimTime::from_millis(PER_AGENT - 1));
}

/// An agent speaking protocol 99 is refused with a reason it can read,
/// and gives up for good.
fn assert_version_skew_is_refused(addr: SocketAddr) {
    let config = AgentConfig {
        version: 99,
        policy: OverloadPolicy::DropNewest,
        ..AgentConfig::default()
    };
    let agent = Agent::connect(addr, HostId(1), config);
    agent.send(vec![synopsis(1, 0)]);
    let deadline = Instant::now() + Duration::from_secs(5);
    while agent.stats().handshake_rejects == 0 {
        assert!(Instant::now() < deadline, "reject never observed");
        std::thread::yield_now();
    }
    let stats = agent.close();
    assert_eq!(stats.handshake_rejects, 1);
    assert_eq!(stats.reject_reason, Some(RejectReason::VersionMismatch));
    assert_eq!((stats.connects, stats.drops.disconnected), (0, 1));
}

/// Twelve agents over three loops (so connections are handed across
/// loops).
#[test]
fn reactor_round_trip() {
    let config = ReactorCollectorConfig {
        loops: 3,
        ..ReactorCollectorConfig::default()
    };
    let (batch_tx, batch_rx) = unbounded();
    let collector = ReactorCollector::bind("127.0.0.1:0", batch_tx, interner(), config).unwrap();
    stream_from(collector.local_addr(), 12);
    receive(&batch_rx, 12 * PER_AGENT);
    assert_clean(collector.stats(), 12);
    let state = collector.shutdown();
    assert_eq!(
        state.receiver().stats(HostId(7)).delivered_synopses,
        PER_AGENT
    );
}

#[test]
fn reactor_version_skew_is_rejected_with_reason() {
    let (batch_tx, _batch_rx) = unbounded();
    let config = ReactorCollectorConfig::default();
    let collector = ReactorCollector::bind("127.0.0.1:0", batch_tx, interner(), config).unwrap();
    assert_version_skew_is_refused(collector.local_addr());
    assert_eq!(collector.stats().handshakes_rejected, 1);
    collector.shutdown();
}
