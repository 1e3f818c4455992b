//! Pieces the three TCP workloads share: pre-encoded per-connection byte
//! streams, the handshake of a benchmark-owned socket, the tap between
//! collector and pool, link verification and registry reads.

use super::{
    supervisor, Ctx, MarkerTimes, Sabotage, Segment, Trained, CHANNEL_BOUND, POOL_WORKERS,
    RECV_BUFFER,
};
use crate::inputs::CloseLog;
use crate::reference::{event_keys, first_difference, Reference};
use crossbeam_channel::{bounded, unbounded, Receiver, Sender};
use saad_core::batch::SynopsisBatch;
use saad_core::detector::{AnomalyEvent, DetectorConfig};
use saad_core::intern::SignatureInterner;
use saad_core::pipeline::{spawn_batch_analyzer_pool, PoolHandle};
use saad_core::synopsis::TaskSynopsis;
use saad_core::transport::{FrameSender, LossReport};
use saad_core::HostId;
use saad_net::protocol::{
    decode_hello_ack, encode_hello, read_full, write_message, Hello, PeerRole, HELLO_ACK_LEN,
    PINNED_EPOCH, PROTOCOL_VERSION,
};
use saad_net::{ReactorCollector, ReactorCollectorConfig};
use saad_obs::Registry;
use saad_sim::{SimDuration, SimTime};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Host id the agent of connection `conn` frames under.
pub fn agent_host(conn: usize) -> HostId {
    HostId(900 + conn as u16)
}

/// Bytes of the handshake a connection opens with.
pub fn hello_len() -> usize {
    encode_hello(&hello(HostId(0))).len()
}

fn hello(host: HostId) -> Hello {
    Hello {
        version: PROTOCOL_VERSION,
        host,
        next_seq: 0,
        sent_cum: 0,
        written_cum: 0,
        epoch: PINNED_EPOCH,
        role: PeerRole::Agent,
    }
}

/// One frame of an [`EncodedStream`].
#[derive(Debug, Clone, Copy)]
pub struct FrameMeta {
    /// Offset in the stream just past this frame.
    pub end: usize,
    /// Synopses the frame carries.
    pub synopses: u32,
    /// Newest task start in the frame.
    pub max_start: SimTime,
    /// Position (1-based count) of the frame's last synopsis in the global
    /// stream across all connections: the frame is complete, and in the
    /// open loop due, once that many synopses have happened.
    pub position: u64,
}

/// One connection's whole byte stream, encoded ahead of time: the Hello,
/// then every frame as a length-prefixed message.
#[derive(Debug, Default)]
pub struct EncodedStream {
    /// The bytes.
    pub wire: Vec<u8>,
    /// Per-frame bookkeeping, in stream order.
    pub frames: Vec<FrameMeta>,
    /// Synopses in the stream.
    pub synopses: u64,
}

impl EncodedStream {
    /// Start a stream for the agent of connection `conn`.
    pub fn new(conn: usize) -> (EncodedStream, FrameSender) {
        let host = agent_host(conn);
        let stream = EncodedStream {
            wire: encode_hello(&hello(host)),
            ..EncodedStream::default()
        };
        (stream, FrameSender::new(host))
    }

    /// Append one frame carrying `batch`, whose last synopsis is number
    /// `position` of the global stream.
    pub fn push_frame(&mut self, sender: &mut FrameSender, batch: &[TaskSynopsis], position: u64) {
        let frame = sender.encode_frame(batch);
        write_message(&mut self.wire, &frame).expect("writing to a Vec cannot fail");
        self.frames.push(FrameMeta {
            end: self.wire.len(),
            synopses: batch.len() as u32,
            max_start: batch.iter().map(|s| s.start).max().unwrap_or(SimTime::ZERO),
            position,
        });
        self.synopses += batch.len() as u64;
    }

    /// Offset just past the first frame (the warm-up).
    pub fn warmup_end(&self) -> usize {
        self.frames[0].end
    }

    /// Flip one payload byte of the frame in the middle of the stream.
    pub fn flip_a_byte(&mut self) {
        let victim = self.frames[self.frames.len() / 2];
        self.wire[victim.end - 1] ^= 0x40;
    }
}

/// Connect a benchmark-owned socket, send the Hello and the warm-up frame,
/// wait for the accepting ack and switch to non-blocking writes. Both
/// kernel buffers are clamped (see [`RECV_BUFFER`]).
pub fn connect_and_warm_up(addr: SocketAddr, stream: &EncodedStream) -> TcpStream {
    let mut socket = TcpStream::connect(addr).expect("connect to the collector");
    socket.set_nodelay(true).expect("nodelay");
    saad_net::set_send_buffer(&socket, RECV_BUFFER).expect("clamp send buffer");
    socket
        .write_all(&stream.wire[..stream.warmup_end()])
        .expect("hello and warm-up frame");
    let mut ack = [0u8; HELLO_ACK_LEN];
    read_full(&mut socket, &mut ack, || true).expect("handshake ack");
    assert!(
        decode_hello_ack(&ack).expect("ack decodes").accept,
        "collector refused the handshake"
    );
    socket.set_nonblocking(true).expect("non-blocking socket");
    socket
}

/// Order-insensitive digest of a batch's identity columns; what the tap
/// and the drain compare with the digest of what was sent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    /// Synopses.
    pub count: u64,
    /// Wrapping sum of a mix of each synopsis's host, stage, start and
    /// duration.
    pub sum: u64,
}

impl Digest {
    #[inline]
    fn mix(host: u16, stage: u16, start_us: u64, duration_us: u64) -> u64 {
        (start_us ^ (u64::from(host) << 48) ^ (u64::from(stage) << 32))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(duration_us)
    }

    /// Fold in a synopsis that is about to be sent, `shift` later than
    /// recorded.
    pub fn add_synopsis(&mut self, s: &TaskSynopsis, shift: SimDuration) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(Digest::mix(
            s.host.0,
            s.stage.0,
            (s.start + shift).as_micros(),
            s.duration.as_micros(),
        ));
    }

    /// Combine with the digest of a disjoint set.
    pub fn merge(&mut self, other: Digest) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Fold in a batch that came out of the collector.
    pub fn add_batch(&mut self, b: &SynopsisBatch) {
        self.count += b.len() as u64;
        for i in 0..b.len() {
            self.sum = self.sum.wrapping_add(Digest::mix(
                b.hosts[i].0,
                b.stages[i].0,
                b.starts[i].as_micros(),
                b.durations_us[i] as u64,
            ));
        }
    }
}

/// What the tap saw.
#[derive(Debug)]
pub struct TapLog {
    /// Connection and length of every batch, in arrival order: enough to
    /// rebuild the exact stream the pool received, because each
    /// connection delivers its own synopses in order.
    pub order: Vec<(u8, u32)>,
    /// Digest of everything that came out of the collector.
    pub digest: Digest,
    /// When each closing batch passed the tap.
    pub closes: CloseLog,
    /// Traced run: (first host, first uid, arrival) of every batch.
    pub stamps: Vec<(HostId, u64, Instant)>,
}

/// The tap: a thread between the collector's output and the pool's input
/// that records the arrival order (the reference needs it: with several
/// connections the interleaving is the kernel's choice) and forwards each
/// batch untouched. `conn_of` maps a synopsis host to its connection.
pub fn spawn_tap(
    ctx: &Ctx,
    window: SimDuration,
    from_collector: Receiver<SynopsisBatch>,
    to_pool: Sender<SynopsisBatch>,
    expected_batches: usize,
) -> JoinHandle<TapLog> {
    let conns = ctx.conns;
    let traced = ctx.tracer.is_some();
    let drop_at = (ctx.sabotage == Sabotage::TapDropsBatch).then_some(expected_batches / 2);
    std::thread::Builder::new()
        .name("bench-tap".into())
        .spawn(move || {
            let mut log = TapLog {
                order: Vec::with_capacity(expected_batches),
                digest: Digest::default(),
                closes: CloseLog::new(window),
                stamps: Vec::new(),
            };
            for batch in from_collector.iter() {
                let conn = crate::inputs::fold(batch.hosts[0], conns);
                log.order.push((conn as u8, batch.len() as u32));
                log.digest.add_batch(&batch);
                let newest = *batch
                    .watermarks
                    .last()
                    .expect("collector sends no empty batch");
                log.closes.observe(newest, Instant::now);
                if traced {
                    log.stamps
                        .push((batch.hosts[0], batch.uids[0].0, Instant::now()));
                }
                if drop_at == Some(log.order.len()) {
                    continue;
                }
                if to_pool.send(batch).is_err() {
                    break;
                }
            }
            log
        })
        .expect("spawn tap")
}

/// The production pipeline behind the wire, as `fleet_e2e` and
/// `paced_detect` drive it: reactor collector → tap → batch pool.
pub struct Pipeline {
    /// The batch analyzer pool.
    pub pool: PoolHandle,
    /// The readiness-driven collector.
    pub collector: ReactorCollector,
    /// The tap thread between them.
    pub tap: JoinHandle<TapLog>,
    /// Registry holding the collector's `saad_reactor_*` series.
    pub registry: Registry,
    trained: Trained,
    config: DetectorConfig,
}

/// Bind a reactor collector as every wire workload measures it — one
/// loop, SoA output, clamped receive buffers — on a loopback port, with
/// its `saad_reactor_*` series in a registry of its own.
pub fn bind_collector(
    batch_tx: Sender<SynopsisBatch>,
    interner: Arc<SignatureInterner>,
    loss_tx: Sender<LossReport>,
) -> (ReactorCollector, Registry) {
    let collector = ReactorCollector::bind_soa(
        "127.0.0.1:0",
        batch_tx,
        interner,
        loss_tx,
        ReactorCollectorConfig {
            loops: 1,
            recv_buffer: Some(RECV_BUFFER),
            ..ReactorCollectorConfig::default()
        },
    )
    .expect("bind the reactor collector");
    let registry = Registry::new();
    collector.register_metrics(&registry);
    (collector, registry)
}

impl Pipeline {
    /// Bind the collector on a loopback port, spawn the pool and the tap.
    pub fn spawn(
        ctx: &Ctx,
        trained: Trained,
        config: DetectorConfig,
        expected_batches: usize,
    ) -> Pipeline {
        let (collector_tx, collector_rx) = bounded::<SynopsisBatch>(CHANNEL_BOUND);
        let (pool_tx, pool_rx) = bounded::<SynopsisBatch>(CHANNEL_BOUND);
        let (loss_tx, loss_rx) = unbounded::<LossReport>();
        let pool = spawn_batch_analyzer_pool(
            trained.model.clone(),
            config,
            supervisor(),
            POOL_WORKERS,
            trained.interner.clone(),
            pool_rx,
            Some(loss_rx),
        );
        let (collector, registry) = bind_collector(collector_tx, trained.interner.clone(), loss_tx);
        let tap = spawn_tap(ctx, config.window, collector_rx, pool_tx, expected_batches);
        Pipeline {
            pool,
            collector,
            tap,
            registry,
            trained,
            config,
        }
    }

    /// Block until the pool has processed `count` synopses (the warm-up).
    pub fn await_warm(&self, count: u64) {
        while self.pool.processed() < count {
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Receive events, stamping marker events, until the pool has
    /// processed `total` synopses; returns that instant. A batch the tap
    /// dropped (sabotage) never reaches the pool: once the collector has
    /// delivered everything the pool gets a short grace instead.
    pub fn await_processed(
        &self,
        total: u64,
        markers: &mut MarkerTimes,
        events: &mut Vec<AnomalyEvent>,
    ) -> Instant {
        let mut all_delivered: Option<Instant> = None;
        loop {
            if let Ok(event) = self.pool.events().recv_timeout(Duration::from_micros(500)) {
                markers.observe(&event, Instant::now());
                events.push(event);
            }
            if self.pool.processed() >= total {
                return Instant::now();
            }
            if all_delivered.is_none() {
                let s = self.collector.stats();
                if s.synopses + s.lost_synopses >= total {
                    all_delivered = Some(Instant::now());
                }
            }
            if all_delivered.is_some_and(|t| t.elapsed() > Duration::from_millis(500)) {
                return Instant::now();
            }
        }
    }

    /// Shut the pipeline down front to back and verify it: link accounts,
    /// the digest of what left the collector, the pool's counts, and the
    /// event multiset against one detector fed the batches the pool
    /// received, in the order the tap saw them. `sent[c]` synopses went
    /// out on connection `c`, cycling through `source[c]` (one capture's
    /// worth, in emission order), each cycle `period` later.
    #[allow(clippy::too_many_arguments)]
    pub fn finish(
        self,
        seg: &mut Segment,
        sent: &[u64],
        source: &[SynopsisBatch],
        period: SimDuration,
        expected: Digest,
        mut events: Vec<AnomalyEvent>,
        markers: &mut MarkerTimes,
    ) -> TapLog {
        let total: u64 = sent.iter().sum();
        verify_links(seg, &self.collector, sent);
        self.collector.shutdown();
        let tap = self.tap.join().expect("tap thread");
        while let Ok(event) = self.pool.events().recv() {
            markers.observe(&event, Instant::now());
            events.push(event);
        }
        let processed = self.pool.processed();
        let (skipped, restarts, lost) = (
            self.pool.skipped(),
            self.pool.restarts(),
            self.pool.tasks_lost(),
        );
        if let Err(e) = self.pool.join() {
            seg.fail_all(format!("pool failed: {e}"));
        }
        if processed < total {
            seg.fail_some(
                total - processed,
                format!("pool processed {processed} of {total} synopses"),
            );
        }
        if skipped + restarts + lost > 0 {
            seg.fail_all(format!(
                "pool skipped {skipped}, restarted {restarts}, lost {lost}"
            ));
        }
        if tap.digest != expected {
            seg.fail_all(format!(
                "collector output differs from what was sent ({} of {} synopses)",
                tap.digest.count, expected.count
            ));
        }
        let t = &self.trained;
        let mut reference = Reference::new(&t.model, &t.compiled, &t.interner, self.config);
        let mut cursor = vec![0u64; source.len()];
        for &(conn, len) in &tap.order {
            let (conn, src) = (conn as usize, &source[conn as usize]);
            let mut batch = SynopsisBatch::with_capacity(len as usize);
            for _ in 0..len {
                let e = cursor[conn];
                cursor[conn] += 1;
                batch.push_from(src, (e % src.len() as u64) as usize);
                let cycle = e / src.len() as u64;
                let last = batch.len() - 1;
                batch.starts[last] += SimDuration::from_micros(period.as_micros() * cycle);
            }
            reference.feed(batch);
        }
        let (expected_events, seen, late) = reference.finish();
        let (got, wanted) = (event_keys(&events), event_keys(&expected_events));
        if got != wanted {
            seg.fail_all(format!(
                "events differ from the single-detector reference: {}",
                first_difference(&got, &wanted)
            ));
        }
        let c = &mut seg.counters;
        c.insert("core.pipeline.processed", processed as f64);
        c.insert("core.pipeline.skipped", skipped as f64);
        c.insert("core.pipeline.restarts", restarts as f64);
        c.insert("core.pipeline.tasks_lost", lost as f64);
        c.insert("core.detector.events", events.len() as f64);
        c.insert("core.detector.late_share", late as f64 / seen.max(1) as f64);
        c.insert("core.intern.signatures", t.interner.len() as f64);
        tap
    }
}

/// Check every connection's link account: all of what was sent delivered,
/// nothing lost, duplicated or corrupted.
pub fn verify_links(seg: &mut Segment, collector: &ReactorCollector, sent: &[u64]) {
    let stats = collector.stats();
    let (mut lost, mut duplicates) = (0u64, 0u64);
    for (conn, &sent) in sent.iter().enumerate() {
        let link = collector.link_stats(agent_host(conn));
        lost += link.lost_synopses;
        duplicates += link.duplicate_frames;
        let accounted = link.delivered_synopses + link.lost_synopses;
        if accounted < sent {
            seg.fail_some(
                sent - accounted,
                format!("connection {conn}: {accounted} of {sent} synopses accounted"),
            );
        }
        if link.lost_synopses > 0 || link.duplicate_frames > 0 {
            seg.fail_all(format!(
                "connection {conn}: link account differs from a clean wire \
                 (lost {}, duplicate frames {})",
                link.lost_synopses, link.duplicate_frames
            ));
        }
    }
    if stats.corrupted_frames > 0 {
        seg.fail_all(format!("{} corrupted frames", stats.corrupted_frames));
    }
    let c = &mut seg.counters;
    c.insert("core.transport.lost", lost as f64);
    c.insert("core.transport.duplicates", duplicates as f64);
    c.insert(
        "net.reactor_collector.corrupted_frames",
        stats.corrupted_frames as f64,
    );
    c.insert(
        "net.reactor_collector.synopses_per_batch",
        stats.synopses as f64 / stats.frames.max(1) as f64,
    );
}

/// Sum of every series of `family` in a Prometheus text rendering.
pub fn metric_sum(text: &str, family: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            let bare = name.split('{').next()?;
            (bare == family).then(|| value.parse::<f64>().ok())?
        })
        .sum()
}

/// The reactor's readiness counters between two registry renderings.
pub fn reactor_counters(seg: &mut Segment, before: &str, after: &str) -> f64 {
    let delta = |family: &str| metric_sum(after, family) - metric_sum(before, family);
    let polls = delta("saad_reactor_polls_total");
    let read_bytes = delta("saad_reactor_read_bytes_total");
    let c = &mut seg.counters;
    c.insert("net.reactor_collector.polls", polls);
    c.insert(
        "net.reactor_collector.spurious_polls",
        delta("saad_reactor_spurious_polls_total"),
    );
    c.insert(
        "net.reactor_collector.decode_stalls",
        delta("saad_reactor_decode_stalls_total"),
    );
    c.insert(
        "net.reactor_collector.read_bytes_per_poll",
        read_bytes / polls.max(1.0),
    );
    read_bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use saad_core::intern::SignatureInterner;
    use saad_core::{StageId, TaskUid};
    use saad_logging::LogPointId;

    fn synopsis(host: u16, start_ms: u64) -> TaskSynopsis {
        TaskSynopsis {
            host: HostId(host),
            stage: StageId(2),
            uid: TaskUid(start_ms),
            start: SimTime::from_millis(start_ms),
            duration: SimDuration::from_micros(start_ms % 97),
            log_points: vec![(LogPointId(4), 2)],
        }
    }

    #[test]
    fn digest_of_sent_synopses_equals_digest_of_received_batches() {
        let stream: Vec<TaskSynopsis> = (0..100)
            .map(|i| synopsis(1 + i % 4, 10 * u64::from(i)))
            .collect();
        let mut sent = Digest::default();
        stream
            .iter()
            .for_each(|s| sent.add_synopsis(s, SimDuration::ZERO));
        let interner = SignatureInterner::new();
        let mut received = Digest::default();
        // Any batching, any order.
        for b in crate::inputs::soa_batches(&stream, 7, &interner)
            .iter()
            .rev()
        {
            received.add_batch(b);
        }
        assert_eq!(sent, received);
        let mut short = Digest::default();
        stream[1..]
            .iter()
            .for_each(|s| short.add_synopsis(s, SimDuration::ZERO));
        assert_ne!(sent, short);
    }

    #[test]
    fn encoded_stream_tracks_frames_and_flips_inside_a_payload() {
        let (mut stream, mut sender) = EncodedStream::new(1);
        let hello = stream.wire.len();
        assert_eq!(hello, hello_len());
        let batch: Vec<TaskSynopsis> = (0..5).map(|i| synopsis(3, i)).collect();
        for frame in 0..4u64 {
            stream.push_frame(&mut sender, &batch, 5 * (frame + 1));
        }
        assert_eq!(stream.synopses, 20);
        assert_eq!(stream.frames.len(), 4);
        assert_eq!(stream.frames[3].position, 20);
        assert_eq!(stream.frames[3].end, stream.wire.len());
        assert_eq!(stream.frames[0].max_start, SimTime::from_millis(4));
        assert!(stream.warmup_end() > hello);
        let clean = stream.wire.clone();
        stream.flip_a_byte();
        let changed: Vec<usize> = (0..clean.len())
            .filter(|&i| clean[i] != stream.wire[i])
            .collect();
        assert_eq!(changed, vec![stream.frames[2].end - 1]);
        assert_eq!(agent_host(1), HostId(901));
    }

    #[test]
    fn metric_sum_adds_the_series_of_one_family() {
        let text = "# HELP a x\n# TYPE a counter\na{loop=\"0\"} 3\na{loop=\"1\"} 4\nab 100\nb 7\n";
        assert_eq!(metric_sum(text, "a"), 7.0);
        assert_eq!(metric_sum(text, "b"), 7.0);
        assert_eq!(metric_sum(text, "missing"), 0.0);
    }
}
