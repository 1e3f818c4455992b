//! End-to-end robustness: the full monitoring pipeline under combined
//! transport and analyzer faults.
//!
//! Two hosts stream framed synopses to a one-worker analyzer pool. Host 0's
//! link suffers the combined fault scenario (≥10% frame loss, a
//! duplication burst, delay-induced reordering, and a disconnect/reconnect
//! window); host 1's link is clean. Mid-stream the analyzer is crashed by
//! an injected panic. The test asserts that:
//!
//! * producers are never blocked beyond the sink's overload policy and no
//!   synopsis is dropped uncounted;
//! * the receiver's gap/duplicate accounting matches the link's injection
//!   counters exactly;
//! * the supervisor restarts the analyzer from its snapshot and every
//!   delivered synopsis except the poison pill is analyzed;
//! * a `HostSilent` event fires for host 0 during the disconnect;
//! * the anomaly injected during the lossy window is still detected, and
//!   its event reports a completeness ratio below 1.0.

use saad::core::detector::{AnomalyDetector, DetectorConfig};
use saad::core::intern::SignatureInterner;
use saad::core::model::{ModelBuilder, ModelConfig, OutlierModel};
use saad::core::pipeline::{
    spawn_analyzer_pool, BatchSink, OverloadPolicy, PoolStart, SupervisorConfig,
};
use saad::core::synopsis::TaskSynopsis;
use saad::core::testkit::FrameOutcome;
use saad::core::tracker::SynopsisSink;
use saad::core::transport::{FrameReceiver, FrameSender, LossReport};
use saad::core::{HostId, StageId, TaskUid};
use saad::fault::{catalog, LossyLink};
use saad::logging::LogPointId;
use saad::sim::{SimDuration, SimTime};
use std::sync::Arc;
use std::time::Duration;

const RUN_MINS: u64 = 12;
const BATCH: usize = 5; // synopses per frame; one frame per host-second
const POISON_AT: u64 = 3_000; // analyzer panics on this (received) synopsis

fn synopsis(host: u16, points: &[u16], start: SimTime, uid: u64) -> TaskSynopsis {
    TaskSynopsis {
        host: HostId(host),
        stage: StageId(0),
        uid: TaskUid(uid),
        start,
        duration: SimDuration::from_micros(1_000 + (uid % 53) * 5),
        log_points: points.iter().map(|&p| (LogPointId(p), 1)).collect(),
    }
}

fn train_model() -> Arc<OutlierModel> {
    let mut b = ModelBuilder::new();
    for i in 0..6_000u64 {
        b.observe(&synopsis((i % 2) as u16, &[1, 2], SimTime::ZERO, i));
    }
    Arc::new(b.build(ModelConfig::default()))
}

/// One host's producer state: synopses are batched into frames and pushed
/// through that host's (possibly lossy) link.
struct Producer {
    sender: FrameSender,
    link: LossyLink,
    pending: Vec<TaskSynopsis>,
}

impl Producer {
    fn new(host: u16, link: LossyLink) -> Producer {
        Producer {
            sender: FrameSender::new(HostId(host)),
            link,
            pending: Vec::new(),
        }
    }

    /// Queue one synopsis; returns the frames the link delivered (if the
    /// batch filled).
    fn produce(&mut self, s: TaskSynopsis) -> Vec<bytes::Bytes> {
        let at = s.start;
        self.pending.push(s);
        if self.pending.len() < BATCH {
            return Vec::new();
        }
        let frame = self.sender.encode_frame(&self.pending);
        self.pending.clear();
        self.link.transmit(at, frame)
    }
}

/// Deliver frames into the receiver, forwarding fresh synopses to the
/// sink, each gap a frame reveals charged ahead of its synopses.
fn deliver(receiver: &mut FrameReceiver, frames: Vec<bytes::Bytes>, sink: &BatchSink) {
    for frame in frames {
        match receiver.accept(&frame) {
            Ok(FrameOutcome::Fresh {
                host,
                synopses,
                newly_lost,
            }) => {
                if newly_lost > 0 {
                    let at = synopses.first().map(|s| s.start).unwrap_or(SimTime::ZERO);
                    sink.record_loss(LossReport {
                        host,
                        at,
                        count: newly_lost,
                    });
                }
                for s in synopses {
                    sink.submit(s);
                }
            }
            Ok(FrameOutcome::Duplicate { .. }) => {} // counted by the receiver
            Err(_) => {}                             // counted as corrupted
        }
    }
}

#[test]
fn pipeline_survives_combined_transport_and_analyzer_faults() {
    let model = train_model();

    // Host 0 rides the combined fault scenario: 15% loss (mins 1–4), a
    // duplication burst (min 5), reordering delay (min 6), and a full
    // disconnect (mins 7–9). Host 1's link is clean and keeps the stream
    // clock advancing while host 0 is dark.
    let mut producers = [
        Producer::new(0, catalog::combined_lossy_link(42)),
        Producer::new(1, LossyLink::new(43)),
    ];
    let mut receiver = FrameReceiver::new();

    // Bounded sink: the policy guarantees a producer is never stalled for
    // more than the timeout per batch, and anything discarded is counted —
    // never silent.
    let interner = Arc::new(SignatureInterner::new());
    let (sink, rx) = BatchSink::bounded(
        16_384 / BATCH,
        BATCH,
        OverloadPolicy::Block {
            timeout: Duration::from_millis(100),
        },
        interner.clone(),
    );
    let start = PoolStart::Model { model, interner };
    let handle = spawn_analyzer_pool(
        start,
        DetectorConfig::default(),
        SupervisorConfig {
            silent_after: 1,
            panic_at: vec![POISON_AT],
            ..SupervisorConfig::default()
        },
        1,
        rx,
    )
    .expect("no store to open");
    let drops = sink.stats();

    // ── Drive 12 minutes of traffic: 5 synopses per host-second. ───────
    // Host 0 emits an anomalous flow (an untrained signature) during
    // minutes 2–3 — inside the lossy window, so its detection must happen
    // on incomplete data.
    let mut uid = 0u64;
    for tick in 0..(RUN_MINS * 60 * BATCH as u64) {
        let at = SimTime::from_millis(tick * 1_000 / BATCH as u64);
        let anomalous = (120.0..180.0).contains(&at.as_secs_f64()) && tick % 10 < 3;
        for (host, producer) in producers.iter_mut().enumerate() {
            let points: &[u16] = if host == 0 && anomalous {
                &[1, 9]
            } else {
                &[1, 2]
            };
            let frames = producer.produce(synopsis(host as u16, points, at, uid));
            uid += 1;
            deliver(&mut receiver, frames, &sink);
        }
    }
    // End of stream: release anything still held by delay faults.
    for producer in producers.iter_mut() {
        let frames = producer.link.flush();
        deliver(&mut receiver, frames, &sink);
    }
    drop(sink);

    let mut events = Vec::new();
    while let Ok(e) = handle.events().recv() {
        events.push(e);
    }

    // ── Transport accounting is exact. ─────────────────────────────────
    let counts0 = producers[0].link.counts();
    let sent0 = producers[0].sender.frames_sent();
    let stats0 = receiver.stats(HostId(0));
    let stats1 = receiver.stats(HostId(1));
    // The scenario really injected what the acceptance demands.
    assert!(
        counts0.never_delivered() as f64 / sent0 as f64 >= 0.10,
        "frame loss {}/{sent0} below 10%",
        counts0.never_delivered()
    );
    assert!(counts0.duplicated > 0, "duplication burst never fired");
    assert!(counts0.disconnected > 0, "disconnect window never fired");
    // Receiver-side stats match the link's ground truth exactly. Every
    // frame carries BATCH synopses, so counts convert exactly too.
    assert_eq!(stats0.duplicate_frames, counts0.duplicated);
    assert_eq!(
        stats0.lost_synopses,
        counts0.never_delivered() * BATCH as u64
    );
    assert_eq!(stats0.delivered_frames, sent0 - counts0.never_delivered());
    assert_eq!(receiver.corrupted_frames(), 0);
    // Host 1's clean link delivered everything.
    assert_eq!(stats1.lost_synopses, 0);
    assert_eq!(stats1.delivered_synopses, stats1.expected_synopses);

    // ── Producers were never stalled beyond policy, nothing silent. ────
    // With this capacity the queue never fills, so zero drops — and the
    // stats prove every submit was accounted.
    assert_eq!(drops.dropped(), 0);

    // ── The supervisor restarted from snapshot and kept analyzing. ─────
    assert_eq!(handle.restarts(), 1);
    assert_eq!(handle.skipped(), 1);
    let detectors = handle.join().expect("supervisor absorbed the panic");
    let detector: &AnomalyDetector = &detectors[0];
    let delivered = stats0.delivered_synopses + stats1.delivered_synopses;
    assert_eq!(
        detector.tasks_seen(),
        delivered - 1,
        "every delivered synopsis except the poison pill must be analyzed"
    );
    // The detector knows at least the ground-truth loss (incremental gap
    // reports are conservative under reordering, never under-counting).
    assert!(detector.tasks_lost() >= stats0.lost_synopses);

    // ── Host 0's silence during the disconnect was surfaced. ───────────
    let silent: Vec<_> = events.iter().filter(|e| e.kind.is_liveness()).collect();
    assert!(
        silent
            .iter()
            .any(|e| e.host == HostId(0) && e.stage == StageId::NONE),
        "no HostSilent event for the disconnected host; events: {silent:?}"
    );
    // And it fired *during* the disconnect (mins 7–9): the last synopsis
    // before going dark is from minute 7 or earlier.
    assert!(silent
        .iter()
        .all(|e| e.host != HostId(0) || e.window_start < SimTime::from_mins(8)));

    // ── The anomaly inside the lossy window was still caught, and its
    //    event is honest about how much data it was computed from. ──────
    let caught: Vec<_> = events
        .iter()
        .filter(|e| {
            e.host == HostId(0)
                && e.kind.is_flow()
                && (120.0..180.0).contains(&e.window_start.as_secs_f64())
        })
        .collect();
    assert!(
        !caught.is_empty(),
        "lossy-window anomaly missed: {events:?}"
    );
    assert!(
        caught.iter().any(|e| e.completeness < 1.0),
        "no event reported degraded completeness: {caught:?}"
    );
    assert!(
        caught.iter().all(|e| e.completeness > 0.5),
        "completeness implausibly low: {caught:?}"
    );
}

#[test]
fn backpressure_drops_are_exact_when_the_analyzer_stalls() {
    // A stalled consumer: nothing reads `rx` while producers burst. One
    // synopsis per batch, so the bound and the counts read in synopses.
    let interner = Arc::new(SignatureInterner::new());
    let (sink, rx) = BatchSink::bounded(8, 1, OverloadPolicy::DropOldest, interner);
    for i in 0..100u64 {
        let host = (i % 2) as u16;
        sink.submit(synopsis(host, &[1, 2], SimTime::ZERO, i));
    }
    // Exactly 92 evictions, attributed to the evicted synopses' hosts
    // (alternating, so 46 each), and the queue holds the newest 8.
    assert_eq!(sink.stats().dropped(), 92);
    let by_host = sink.stats().drops_by_host();
    assert_eq!(by_host[&HostId(0)].oldest, 46);
    assert_eq!(by_host[&HostId(1)].oldest, 46);
    let queued: Vec<u64> = rx.try_iter().map(|batch| batch.uids[0].0).collect();
    assert_eq!(queued, (92..100).collect::<Vec<_>>());
}
