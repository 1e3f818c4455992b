//! The tracker-side agent: a bounded send queue in front of a persistent
//! framed TCP connection to the collector.
//!
//! Producers hand synopsis batches to [`Agent::send`] (or stream single
//! synopses through an [`AgentSink`]); either way the synopses are
//! encoded on the producer's thread, and what crosses the queue is a
//! [`FramePayload`] — one frame's encoded bytes and its synopsis count.
//! A worker thread owns the socket and a persistent [`FrameSender`], so
//! frame sequence numbers and cumulative counts survive reconnects. The
//! queue honors the same [`OverloadPolicy`] semantics as the in-process
//! `BatchSink` — `DropNewest`, `DropOldest`, and `Block` — with every
//! refused synopsis counted, never silently discarded. Each time the
//! worker wakes it frames every payload already queued into one reused
//! buffer — header, the bytes, length and CRC — hands the lot to the
//! socket in a single write, and passes the emptied payload buffers back
//! to the producers, so a streaming agent allocates nothing.
//!
//! When the connection dies the worker reconnects with jittered
//! exponential backoff and replays the handshake, declaring its resume
//! position (`next_seq`, `sent_cum`, `written_cum`). Frames that failed
//! mid-write are **not retransmitted**: the sender counts their synopses
//! as wire-lost, and the gap surfaces on the collector as exact
//! `newly_lost` accounting (via cumulative-count arithmetic on the next
//! fresh frame, or via the resume handshake if the collector restarted).
//! Frames queued behind the failed one in the same write never reached
//! the socket; they go out on the next connection as framed.
//! Retransmission would trade bounded memory for at-least-once delivery
//! the detector does not need — it is loss-aware by design.

use crate::protocol::{exchange_hello, Hello, PeerRole, RejectReason, PROTOCOL_VERSION};
use crate::ring::{LeafResolver, PinnedResolver};
use bytes::{BufMut, BytesMut};
use crossbeam_channel::{bounded, Receiver, Sender, TrySendError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saad_core::pipeline::{DropCounts, OverloadPolicy};
use saad_core::synopsis::{SynopsisHead, TaskSynopsis};
use saad_core::tracker::SynopsisSink;
use saad_core::transport::{FramePayload, FrameSender};
use saad_core::{HostId, LogPointId};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Reconnect backoff tuning: exponential with multiplicative jitter.
#[derive(Debug, Clone)]
pub struct BackoffConfig {
    /// First retry delay.
    pub initial: Duration,
    /// Ceiling on any single delay.
    pub max: Duration,
    /// Growth factor per consecutive failure.
    pub multiplier: f64,
    /// Each delay is scaled by a uniform factor in `[1−jitter, 1+jitter]`
    /// so a fleet of agents does not reconnect in lockstep.
    pub jitter: f64,
    /// Seed for the jitter stream (deterministic per agent).
    pub seed: u64,
}

impl Default for BackoffConfig {
    fn default() -> BackoffConfig {
        BackoffConfig {
            initial: Duration::from_millis(20),
            max: Duration::from_secs(2),
            multiplier: 2.0,
            jitter: 0.2,
            seed: 0x5AAD_0001,
        }
    }
}

impl BackoffConfig {
    pub(crate) fn delay(&self, attempt: u32, rng: &mut StdRng) -> Duration {
        let base = self.initial.as_secs_f64() * self.multiplier.powi(attempt as i32);
        let capped = base.min(self.max.as_secs_f64());
        let factor = 1.0 + rng.gen_range(-self.jitter..self.jitter.max(1e-9));
        Duration::from_secs_f64((capped * factor).max(0.0))
    }
}

/// Tuning for an [`Agent`].
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// Most frame payloads (batches) the send queue holds before `policy`
    /// applies.
    pub capacity: usize,
    /// What to do when the queue is full. Policies act on whole payloads;
    /// drop counters record the affected synopses individually.
    pub policy: OverloadPolicy,
    /// Reconnect backoff.
    pub backoff: BackoffConfig,
    /// Socket write timeout; a stalled collector fails the write and the
    /// frame is accounted wire-lost rather than blocking the worker
    /// forever.
    pub write_timeout: Duration,
    /// Socket read timeout while waiting for the handshake ack.
    pub read_timeout: Duration,
    /// Protocol version announced in the handshake (normally
    /// [`PROTOCOL_VERSION`]; overridable to exercise rejection paths).
    pub version: u16,
}

impl Default for AgentConfig {
    fn default() -> AgentConfig {
        AgentConfig {
            capacity: 1024,
            policy: OverloadPolicy::Block {
                timeout: Duration::from_secs(1),
            },
            backoff: BackoffConfig::default(),
            write_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(5),
            version: PROTOCOL_VERSION,
        }
    }
}

#[derive(Debug, Default)]
struct StatsInner {
    connects: AtomicU64,
    reconnects: AtomicU64,
    handshake_rejects: AtomicU64,
    stale_epoch_rejects: AtomicU64,
    rehomes: AtomicU64,
    frames_written: AtomicU64,
    synopses_written: AtomicU64,
    synopses_wire_lost: AtomicU64,
    writes: AtomicU64,
    frames_per_write: Arc<saad_obs::Histogram>,
    dropped_newest: AtomicU64,
    dropped_oldest: AtomicU64,
    dropped_timed_out: AtomicU64,
    dropped_disconnected: AtomicU64,
    /// `u64::MAX` = never rejected; otherwise the `RejectReason` as u8.
    reject_reason: AtomicU64,
}

impl StatsInner {
    fn new() -> StatsInner {
        StatsInner {
            reject_reason: AtomicU64::new(u64::MAX),
            ..StatsInner::default()
        }
    }
}

/// Snapshot of one agent's lifetime counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AgentStats {
    /// Successful connection + handshake completions.
    pub connects: u64,
    /// Connects after the first — i.e. recoveries from a dead link.
    pub reconnects: u64,
    /// Handshakes the collector refused (stale-epoch rejects included,
    /// though those are retried, not terminal).
    pub handshake_rejects: u64,
    /// Handshakes refused for routing by a stale ring epoch — each one
    /// triggered a ring refetch and another attempt.
    pub stale_epoch_rejects: u64,
    /// Successful connects whose resolved address differed from the
    /// previous connection's — i.e. control-plane-driven re-homings.
    pub rehomes: u64,
    /// Frames fully written to a live socket.
    pub frames_written: u64,
    /// Synopses carried by those frames.
    pub synopses_written: u64,
    /// Synopses in frames whose write failed — lost on the wire, reported
    /// to the collector via sequence arithmetic, never retransmitted.
    pub synopses_wire_lost: u64,
    /// Socket writes that carried frames: one per worker wake-up, each
    /// taking every batch already queued at that moment, so
    /// `frames_written / writes` is the coalescing factor.
    pub writes: u64,
    /// Synopses refused at the queue, by reason (same semantics as the
    /// in-process sink's [`DropCounts`]).
    pub drops: DropCounts,
    /// Why the collector refused the handshake, if it ever did.
    pub reject_reason: Option<RejectReason>,
}

impl StatsInner {
    fn snapshot(&self) -> AgentStats {
        AgentStats {
            connects: self.connects.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            handshake_rejects: self.handshake_rejects.load(Ordering::Relaxed),
            stale_epoch_rejects: self.stale_epoch_rejects.load(Ordering::Relaxed),
            rehomes: self.rehomes.load(Ordering::Relaxed),
            frames_written: self.frames_written.load(Ordering::Relaxed),
            synopses_written: self.synopses_written.load(Ordering::Relaxed),
            synopses_wire_lost: self.synopses_wire_lost.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            drops: DropCounts {
                newest: self.dropped_newest.load(Ordering::Relaxed),
                oldest: self.dropped_oldest.load(Ordering::Relaxed),
                timed_out: self.dropped_timed_out.load(Ordering::Relaxed),
                disconnected: self.dropped_disconnected.load(Ordering::Relaxed),
            },
            reject_reason: match self.reject_reason.load(Ordering::Relaxed) {
                u64::MAX => None,
                v => Some(match v {
                    1 => RejectReason::VersionMismatch,
                    2 => RejectReason::Malformed,
                    3 => RejectReason::StaleEpoch,
                    _ => RejectReason::None,
                }),
            },
        }
    }
}

/// Emptied payload buffers on their way back from the worker to the
/// producers. The list bounds itself: a buffer is made only when none is
/// waiting here, so there are never more than were once in use together
/// (the queue's capacity, one per sink, one per thread inside `enqueue`,
/// one at the worker), and a buffer that carried more than
/// [`SPARE_MAX_BYTES`] is freed rather than kept. Once the queue has been
/// full once, a streaming agent allocates nothing.
#[derive(Debug, Default)]
struct SparePayloads {
    free: parking_lot::Mutex<Vec<FramePayload>>,
}

/// Largest payload whose buffer is kept for reuse — some 75 typical
/// 48-synopsis frames' worth; an outsize payload's buffer (they run to
/// 16 MiB) is not held on to.
const SPARE_MAX_BYTES: usize = 64 * 1024;

impl SparePayloads {
    /// An empty payload: a recycled buffer if one is waiting.
    fn take(&self) -> FramePayload {
        self.free.lock().pop().unwrap_or_default()
    }

    /// Return `payload`'s buffer for reuse.
    fn give(&self, mut payload: FramePayload) {
        if payload.bytes().len() <= SPARE_MAX_BYTES {
            payload.clear();
            self.free.lock().push(payload);
        }
    }
}

/// Queue front shared by [`Agent`] and every [`AgentSink`] clone.
#[derive(Clone)]
struct QueueFront {
    tx: Sender<FramePayload>,
    /// Receiver clone used to evict under [`OverloadPolicy::DropOldest`].
    evict: Option<Receiver<FramePayload>>,
    spare: Arc<SparePayloads>,
    policy: OverloadPolicy,
    stats: Arc<StatsInner>,
}

/// Bound on eviction retries under [`OverloadPolicy::DropOldest`], same
/// rationale as the in-process sink: give up rather than livelock when
/// other producers keep refilling the evicted slot.
const DROP_OLDEST_RETRIES: usize = 64;

impl QueueFront {
    /// The queue's two ends for an agent configured with `capacity` and
    /// `policy`, counting into `stats`.
    fn new(
        capacity: usize,
        policy: OverloadPolicy,
        stats: Arc<StatsInner>,
    ) -> (QueueFront, Receiver<FramePayload>) {
        assert!(capacity > 0, "agent queue capacity must be positive");
        let (tx, rx) = bounded(capacity);
        let front = QueueFront {
            tx,
            evict: matches!(policy, OverloadPolicy::DropOldest).then(|| rx.clone()),
            spare: Arc::default(),
            policy,
            stats,
        };
        (front, rx)
    }

    /// Encode `batch` and queue it: as one payload, or as several cut on
    /// synopsis boundaries when it encodes past the frame payload bound.
    fn send(&self, batch: &[TaskSynopsis]) {
        let mut payload = self.spare.take();
        for s in batch {
            if let Some(cut) = self.push(&mut payload, &s.head(), &s.log_points) {
                self.enqueue(cut);
            }
        }
        self.enqueue(payload);
    }

    /// Append one synopsis to `payload`. When the payload refuses it —
    /// it would cross the frame payload bound — a spare takes its place
    /// and the synopsis, and the payload cut short is returned for the
    /// queue.
    fn push(
        &self,
        payload: &mut FramePayload,
        head: &SynopsisHead,
        points: &[(LogPointId, u32)],
    ) -> Option<FramePayload> {
        if payload.push_parts(head, points) {
            return None;
        }
        let cut = std::mem::replace(payload, self.spare.take());
        let pushed = payload.push_parts(head, points);
        debug_assert!(pushed, "an empty payload takes any synopsis");
        Some(cut)
    }

    /// Queue one payload under the overload policy. A payload the queue
    /// refuses is counted by its synopses, and its buffer, like that of
    /// an empty payload, goes back to the spares.
    fn enqueue(&self, payload: FramePayload) {
        if payload.is_empty() {
            return self.spare.give(payload);
        }
        let refuse = |counter: &AtomicU64, payload: FramePayload| {
            counter.fetch_add(payload.synopses(), Ordering::Relaxed);
            self.spare.give(payload);
        };
        let stats = &self.stats;
        match self.policy {
            OverloadPolicy::DropNewest => match self.tx.try_send(payload) {
                Ok(()) => {}
                Err(TrySendError::Full(p)) => refuse(&stats.dropped_newest, p),
                Err(TrySendError::Disconnected(p)) => refuse(&stats.dropped_disconnected, p),
            },
            OverloadPolicy::DropOldest => {
                let evict = self.evict.as_ref().expect("DropOldest has receiver");
                let mut payload = payload;
                for _ in 0..DROP_OLDEST_RETRIES {
                    match self.tx.try_send(payload) {
                        Ok(()) => return,
                        Err(TrySendError::Full(p)) => {
                            payload = p;
                            if let Ok(old) = evict.try_recv() {
                                refuse(&stats.dropped_oldest, old);
                            }
                        }
                        Err(TrySendError::Disconnected(p)) => {
                            return refuse(&stats.dropped_disconnected, p);
                        }
                    }
                }
                refuse(&stats.dropped_newest, payload);
            }
            OverloadPolicy::Block { timeout } => match self.tx.send_timeout(payload, timeout) {
                Ok(()) => {}
                Err(crossbeam_channel::SendTimeoutError::Timeout(p)) => {
                    refuse(&stats.dropped_timed_out, p);
                }
                Err(crossbeam_channel::SendTimeoutError::Disconnected(p)) => {
                    refuse(&stats.dropped_disconnected, p);
                }
            },
        }
    }
}

/// A connected (or reconnecting) agent client for one host.
pub struct Agent {
    front: QueueFront,
    closing: Arc<AtomicBool>,
    worker: Option<JoinHandle<()>>,
}

impl Agent {
    /// Start an agent for `host` streaming to the collector at `addr`.
    /// The connection is established lazily by the worker thread; `send`
    /// may be called immediately.
    pub fn connect(addr: SocketAddr, host: HostId, config: AgentConfig) -> Agent {
        Agent::connect_via(Arc::new(PinnedResolver::new(addr)), host, config)
    }

    /// Start an agent whose collector address is looked up through
    /// `resolver` before **every** connect attempt — the federated
    /// deployment, where a
    /// [`ControlPlane`](crate::control::ControlPlane) republishing the
    /// ring re-homes this agent on its next reconnect. A
    /// [`RejectReason::StaleEpoch`] reject is treated as "ask the
    /// resolver again", not as a terminal failure.
    pub fn connect_via(
        resolver: Arc<dyn LeafResolver>,
        host: HostId,
        config: AgentConfig,
    ) -> Agent {
        let stats = Arc::new(StatsInner::new());
        let closing = Arc::new(AtomicBool::new(false));
        let (front, rx) = QueueFront::new(config.capacity, config.policy, stats.clone());
        let spare = front.spare.clone();
        let worker_closing = closing.clone();
        let worker = std::thread::Builder::new()
            .name(format!("saad-net-agent-{}", host.0))
            .spawn(move || worker_loop(resolver, host, config, rx, spare, stats, worker_closing))
            .expect("spawn agent worker");
        Agent {
            front,
            closing,
            worker: Some(worker),
        }
    }

    /// Queue one batch for transmission — encoded here, on the caller's
    /// thread — applying the configured overload policy if the queue is
    /// full. Empty batches are ignored.
    pub fn send(&self, batch: Vec<TaskSynopsis>) {
        self.front.send(&batch);
    }

    /// A [`SynopsisSink`] front that encodes single synopses into frame
    /// payloads of `batch_size` before queueing them. Call
    /// [`AgentSink::flush`] (or drop the sink) to push out a partial
    /// payload.
    pub fn sink(&self, batch_size: usize) -> AgentSink {
        assert!(batch_size > 0, "batch size must be positive");
        AgentSink {
            front: self.front.clone(),
            buf: parking_lot::Mutex::new(FramePayload::new()),
            batch_size: batch_size as u64,
        }
    }

    /// Live counter snapshot.
    pub fn stats(&self) -> AgentStats {
        self.front.stats.snapshot()
    }

    /// Expose this agent's lifetime counters in `registry`, labelled with
    /// the host id so a process running several agents can register them
    /// all. Scrape-time callbacks only; the send path is untouched.
    pub fn register_metrics(&self, registry: &saad_obs::Registry, host: HostId) {
        let host_label = host.0.to_string();
        let labels = [("host", host_label.as_str())];
        let counter = |f: fn(&StatsInner) -> &AtomicU64| {
            let stats = Arc::clone(&self.front.stats);
            move || f(&stats).load(Ordering::Relaxed)
        };
        registry.register_counter_fn(
            "saad_agent_connects_total",
            "Successful connection + handshake completions",
            &labels,
            counter(|s| &s.connects),
        );
        registry.register_counter_fn(
            "saad_agent_reconnects_total",
            "Connects after the first — recoveries from a dead link",
            &labels,
            counter(|s| &s.reconnects),
        );
        registry.register_counter_fn(
            "saad_agent_handshake_rejects_total",
            "Handshakes the collector refused",
            &labels,
            counter(|s| &s.handshake_rejects),
        );
        registry.register_counter_fn(
            "saad_agent_stale_epoch_rejects_total",
            "Handshakes refused for a stale ring epoch (retried after refetch)",
            &labels,
            counter(|s| &s.stale_epoch_rejects),
        );
        registry.register_counter_fn(
            "saad_agent_rehomes_total",
            "Successful connects that landed on a different leaf than before",
            &labels,
            counter(|s| &s.rehomes),
        );
        registry.register_counter_fn(
            "saad_agent_frames_written_total",
            "Frames fully written to a live socket",
            &labels,
            counter(|s| &s.frames_written),
        );
        registry.register_counter_fn(
            "saad_agent_synopses_written_total",
            "Synopses carried by fully written frames",
            &labels,
            counter(|s| &s.synopses_written),
        );
        registry.register_counter_fn(
            "saad_agent_synopses_wire_lost_total",
            "Synopses in frames whose write failed — lost on the wire, never retransmitted",
            &labels,
            counter(|s| &s.synopses_wire_lost),
        );
        registry.register_counter_fn(
            "saad_agent_writes_total",
            "Socket writes that carried frames (one per worker wake-up)",
            &labels,
            counter(|s| &s.writes),
        );
        registry.attach_histogram(
            "saad_agent_frames_per_write",
            "Frames coalesced into one socket write",
            &labels,
            Arc::clone(&self.front.stats.frames_per_write),
        );
        for (reason, f) in [
            (
                "newest",
                (|s| &s.dropped_newest) as fn(&StatsInner) -> &AtomicU64,
            ),
            ("oldest", |s| &s.dropped_oldest),
            ("timed_out", |s| &s.dropped_timed_out),
            ("disconnected", |s| &s.dropped_disconnected),
        ] {
            let stats = Arc::clone(&self.front.stats);
            registry.register_counter_fn(
                "saad_agent_dropped_total",
                "Synopses refused at the agent send queue, by reason",
                &[("host", host_label.as_str()), ("reason", reason)],
                move || f(&stats).load(Ordering::Relaxed),
            );
        }
    }

    /// Flush and stop: queued batches still drain over a live connection,
    /// but the worker stops waiting for reconnects — anything it cannot
    /// deliver is counted as a disconnected drop. Returns the final
    /// counters.
    pub fn close(mut self) -> AgentStats {
        self.closing.store(true, Ordering::SeqCst);
        let stats = self.front.stats.clone();
        if let Some(join) = self.worker.take() {
            let _ = join.join();
        }
        stats.snapshot()
    }
}

impl Drop for Agent {
    fn drop(&mut self) {
        // Dropped without close(): signal the worker to stop retrying and
        // let it wind down on its own (no join — drop must not block).
        self.closing.store(true, Ordering::SeqCst);
    }
}

/// Batching [`SynopsisSink`] front for an [`Agent`] (see [`Agent::sink`]).
///
/// Every synopsis is encoded as it arrives, under the sink's lock, into
/// the payload of the frame it will travel in. The one shared payload —
/// rather than one per producer thread — is what lets [`AgentSink::flush`]
/// and `Drop` push out everything submitted so far from any thread.
pub struct AgentSink {
    front: QueueFront,
    buf: parking_lot::Mutex<FramePayload>,
    batch_size: u64,
}

impl AgentSink {
    /// Queue any buffered partial payload now.
    pub fn flush(&self) {
        let partial = {
            let mut buf = self.buf.lock();
            if buf.is_empty() {
                return;
            }
            std::mem::replace(&mut *buf, self.front.spare.take())
        };
        self.front.enqueue(partial);
    }
}

impl SynopsisSink for AgentSink {
    fn submit(&self, synopsis: TaskSynopsis) {
        self.submit_parts(synopsis.head(), &synopsis.log_points);
    }

    fn submit_parts(&self, head: SynopsisHead, points: &[(LogPointId, u32)]) {
        // Hand-overs happen outside the lock: `enqueue` may block.
        let (cut, full) = {
            let mut buf = self.buf.lock();
            // A cut payload goes out short of `batch_size`, ending on the
            // last synopsis inside the frame payload bound.
            let cut = self.front.push(&mut buf, &head, points);
            let full = (buf.synopses() >= self.batch_size)
                .then(|| std::mem::replace(&mut *buf, self.front.spare.take()));
            (cut, full)
        };
        for payload in [cut, full].into_iter().flatten() {
            self.front.enqueue(payload);
        }
    }
}

impl Drop for AgentSink {
    fn drop(&mut self) {
        self.flush();
    }
}

enum ConnectOutcome {
    Connected(TcpStream),
    Rejected(RejectReason),
    Failed,
}

/// One connect + handshake attempt at the agent's current resume point,
/// announcing the ring epoch the address was resolved under.
fn try_connect(
    addr: SocketAddr,
    epoch: u64,
    host: HostId,
    config: &AgentConfig,
    (next_seq, sent_cum): (u64, u64),
    written_cum: u64,
) -> ConnectOutcome {
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(_) => return ConnectOutcome::Failed,
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let mut stream = stream;
    let hello = Hello {
        version: config.version,
        host,
        next_seq,
        sent_cum,
        written_cum,
        epoch,
        role: PeerRole::Agent,
    };
    match exchange_hello(&mut stream, &hello) {
        Ok(ack) if ack.accept => ConnectOutcome::Connected(stream),
        Ok(ack) => ConnectOutcome::Rejected(ack.reason),
        Err(_) => ConnectOutcome::Failed,
    }
}

/// Most wire bytes the worker coalesces into one write (~75 typical
/// 48-synopsis frames); past this a larger write saves nothing.
const COALESCE_BYTES: usize = 64 * 1024;

/// The agent's outbound wire image: back-to-back `[u32 length][frame]`
/// messages assembled in one reused buffer and handed to the socket in a
/// single write, with each frame's end offset kept so that a cut write is
/// accounted frame by frame.
#[derive(Debug)]
struct Outbox {
    sender: FrameSender,
    wire: BytesMut,
    /// `(end offset in wire, synopses carried)` of each pending frame.
    frames: Vec<(usize, u64)>,
}

/// What one [`Outbox::flush`] did with the pending frames: each is
/// written, wire-lost, or still pending in the outbox.
#[derive(Debug, PartialEq, Eq)]
struct Flushed {
    /// Frames the writer accepted whole.
    frames_written: u64,
    /// Synopses carried by those frames.
    synopses_written: u64,
    /// `Some` iff an error cut the write short: the synopses in the frame
    /// it cut.
    wire_lost: Option<u64>,
}

impl Outbox {
    /// An empty outbox framing for `host`; sequence numbers start at 0.
    fn new(host: HostId) -> Outbox {
        Outbox {
            sender: FrameSender::new(host),
            wire: BytesMut::new(),
            frames: Vec::new(),
        }
    }

    /// The pending messages, exactly as the next flush will write them
    /// (empty when no frame is pending).
    fn wire(&self) -> &[u8] {
        &self.wire
    }

    /// `(next_seq, sent_cum)` to announce in a handshake: the sequence
    /// number and cumulative count of the first frame no socket has been
    /// offered yet (the next frame to be framed, when nothing is pending).
    fn resume_point(&self) -> (u64, u64) {
        let pending: u64 = self.frames.iter().map(|&(_, n)| n).sum();
        (
            self.sender.frames_sent() - self.frames.len() as u64,
            self.sender.synopses_sent() - pending,
        )
    }

    /// Append `payload` as one length-prefixed frame. The frame gets its
    /// sequence number and cumulative count here, once; nothing that
    /// happens to a write renumbers it.
    fn frame(&mut self, payload: &FramePayload) {
        let prefix = self.wire.len();
        self.wire.put_u32(0);
        self.sender.frame_payload_into(&mut self.wire, payload);
        let len = u32::try_from(self.wire.len() - prefix - 4)
            .expect("a frame is bounded by MAX_MESSAGE_LEN");
        self.wire[prefix..prefix + 4].copy_from_slice(&len.to_be_bytes());
        self.frames.push((self.wire.len(), payload.synopses()));
    }

    /// Write the pending messages to `w` in one pass. A frame counts as
    /// written only if the writer accepted it to its last byte. When an
    /// error cuts the write, the first frame not accepted whole is
    /// wire-lost — it may be partly on the wire, and the receiver sees
    /// the gap through the sequence arithmetic; nothing is retransmitted.
    /// The frames behind it never touched the writer: they stay pending,
    /// bytes and sequence numbers as framed, for the next connection —
    /// so a failed write costs one frame however many it carried.
    fn flush<W: Write>(&mut self, w: &mut W) -> Flushed {
        let mut accepted = 0usize;
        while accepted < self.wire.len() {
            match w.write(&self.wire[accepted..]) {
                Ok(0) => break,
                Ok(n) => accepted += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        let whole = self.frames.partition_point(|&(end, _)| end <= accepted);
        let mut flushed = Flushed {
            frames_written: whole as u64,
            synopses_written: self.frames[..whole].iter().map(|&(_, n)| n).sum(),
            wire_lost: None,
        };
        // With no error every frame was accepted whole and this drains
        // the outbox; otherwise frame `whole` is the one the error cut.
        let mut gone = whole;
        if let Some(&(cut_end, synopses)) = self.frames.get(whole) {
            flushed.wire_lost = Some(synopses);
            gone += 1;
            self.wire.copy_within(cut_end.., 0);
            self.wire.truncate(self.wire.len() - cut_end);
            for (end, _) in &mut self.frames[gone..] {
                *end -= cut_end;
            }
        } else {
            self.wire.clear();
        }
        self.frames.drain(..gone);
        flushed
    }

    /// Give up on the pending frames (the agent is stopping): empty the
    /// outbox and return how many synopses they carried.
    fn abandon(&mut self) -> u64 {
        self.wire.clear();
        self.frames.drain(..).map(|(_, n)| n).sum()
    }
}

/// Sleep `total` in short slices so a closing agent stops promptly.
fn backoff_sleep(total: Duration, closing: &AtomicBool) {
    let deadline = Instant::now() + total;
    while Instant::now() < deadline && !closing.load(Ordering::SeqCst) {
        let left = deadline.saturating_duration_since(Instant::now());
        std::thread::sleep(left.min(Duration::from_millis(20)));
    }
}

fn worker_loop(
    resolver: Arc<dyn LeafResolver>,
    host: HostId,
    config: AgentConfig,
    rx: Receiver<FramePayload>,
    spare: Arc<SparePayloads>,
    stats: Arc<StatsInner>,
    closing: Arc<AtomicBool>,
) {
    // A queued payload becomes a frame exactly once — the sequence number
    // is spent whether or not the write succeeds, so a failed write is a
    // visible gap, not a silent renumbering — and its buffer goes back.
    let frame = |outbox: &mut Outbox, payload: FramePayload| {
        outbox.frame(&payload);
        spare.give(payload);
    };
    let mut rng = StdRng::seed_from_u64(config.backoff.seed);
    let mut outbox = Outbox::new(host);
    let mut written_cum = 0u64;
    let mut conn: Option<TcpStream> = None;
    // Address of the last successful connect, for re-homing detection.
    let mut home: Option<SocketAddr> = None;

    'batches: loop {
        // Frames a failed write left pending go out before anything new
        // is taken off the queue.
        if outbox.wire().is_empty() {
            // Poll with a timeout so close() works even while sink clones
            // keep the channel's sender side alive.
            match rx.recv_timeout(Duration::from_millis(50)) {
                Ok(payload) => frame(&mut outbox, payload),
                Err(crossbeam_channel::RecvTimeoutError::Timeout) => {
                    // recv_timeout drains queued payloads before timing out,
                    // so a timeout while closing means the queue is empty.
                    if closing.load(Ordering::SeqCst) {
                        break 'batches;
                    }
                    continue;
                }
                Err(crossbeam_channel::RecvTimeoutError::Disconnected) => break 'batches,
            }
        }
        // Ensure a handshaken connection, backing off between failures.
        // The resolver is consulted before every attempt, so a ring
        // republish between attempts re-homes this agent automatically.
        let mut attempt = 0u32;
        while conn.is_none() {
            let back_off = |attempt: &mut u32, rng: &mut StdRng| {
                backoff_sleep(config.backoff.delay(*attempt, rng), &closing);
                *attempt = attempt.saturating_add(1);
            };
            let Some((addr, epoch)) = resolver.resolve(host) else {
                // Nowhere to go (empty ring): wait for the control plane
                // to publish a member.
                if closing.load(Ordering::SeqCst) {
                    drop_remaining(outbox.abandon(), &rx, &stats);
                    return;
                }
                back_off(&mut attempt, &mut rng);
                continue;
            };
            match try_connect(
                addr,
                epoch,
                host,
                &config,
                outbox.resume_point(),
                written_cum,
            ) {
                ConnectOutcome::Connected(stream) => {
                    if stats.connects.fetch_add(1, Ordering::Relaxed) > 0 {
                        stats.reconnects.fetch_add(1, Ordering::Relaxed);
                    }
                    if home.is_some_and(|h| h != addr) {
                        stats.rehomes.fetch_add(1, Ordering::Relaxed);
                    }
                    home = Some(addr);
                    conn = Some(stream);
                }
                ConnectOutcome::Rejected(RejectReason::StaleEpoch) => {
                    // Our ring view is behind the collector's. Not
                    // terminal: back off and resolve again — the next
                    // attempt routes by the refreshed ring.
                    stats.handshake_rejects.fetch_add(1, Ordering::Relaxed);
                    stats.stale_epoch_rejects.fetch_add(1, Ordering::Relaxed);
                    stats
                        .reject_reason
                        .store(RejectReason::StaleEpoch as u64, Ordering::Relaxed);
                    if closing.load(Ordering::SeqCst) {
                        drop_remaining(outbox.abandon(), &rx, &stats);
                        return;
                    }
                    back_off(&mut attempt, &mut rng);
                }
                ConnectOutcome::Rejected(reason) => {
                    // Version skew or a confused collector: retrying with
                    // the same hello cannot succeed. Account everything
                    // still queued and stop.
                    stats.handshake_rejects.fetch_add(1, Ordering::Relaxed);
                    stats.reject_reason.store(reason as u64, Ordering::Relaxed);
                    drop_remaining(outbox.abandon(), &rx, &stats);
                    return;
                }
                ConnectOutcome::Failed => {
                    if closing.load(Ordering::SeqCst) {
                        drop_remaining(outbox.abandon(), &rx, &stats);
                        return;
                    }
                    back_off(&mut attempt, &mut rng);
                }
            }
        }
        // Payloads already queued ride in the same write; the worker never
        // waits for more.
        while outbox.wire().len() < COALESCE_BYTES {
            match rx.try_recv() {
                Ok(queued) => frame(&mut outbox, queued),
                Err(_) => break,
            }
        }
        stats.writes.fetch_add(1, Ordering::Relaxed);
        stats.frames_per_write.record(outbox.frames.len() as u64);
        let flushed = outbox.flush(conn.as_mut().expect("connected"));
        written_cum += flushed.synopses_written;
        stats
            .frames_written
            .fetch_add(flushed.frames_written, Ordering::Relaxed);
        stats
            .synopses_written
            .fetch_add(flushed.synopses_written, Ordering::Relaxed);
        if let Some(lost) = flushed.wire_lost {
            // The cut frame may be partially on the wire; the stream is
            // desynchronized either way. Count the loss and rebuild the
            // connection for what is still pending — while closing, the
            // connect loop above gives that one attempt and no back-off.
            stats.synopses_wire_lost.fetch_add(lost, Ordering::Relaxed);
            conn = None;
        }
    }
    // Queue closed and drained: a half-close tells the collector this was
    // a deliberate goodbye, not a dying link.
    if let Some(stream) = conn {
        let _ = stream.shutdown(std::net::Shutdown::Write);
    }
}

/// Account `pending` synopses and everything still queued as
/// disconnected drops.
fn drop_remaining(pending: u64, rx: &Receiver<FramePayload>, stats: &StatsInner) {
    let mut dropped = pending;
    while let Ok(payload) = rx.try_recv() {
        dropped += payload.synopses();
    }
    stats
        .dropped_disconnected
        .fetch_add(dropped, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{write_message, MAX_MESSAGE_LEN};
    use saad_core::transport::{
        parse_frame, FrameOutcome, FrameReceiver, FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD,
    };
    use saad_core::{StageId, TaskUid};
    use saad_sim::{SimDuration, SimTime};

    fn task(host: u16, uid: u64, points: usize) -> TaskSynopsis {
        TaskSynopsis {
            host: HostId(host),
            stage: StageId(3),
            uid: TaskUid(uid),
            start: SimTime::from_millis(uid),
            duration: SimDuration::from_micros(900 + uid),
            log_points: (0..points)
                .map(|p| (LogPointId(1 + p as u16), 1 + p as u32))
                .collect(),
        }
    }

    fn batch(host: u16, uids: std::ops::Range<u64>) -> Vec<TaskSynopsis> {
        uids.map(|u| task(host, u, (u % 5) as usize)).collect()
    }

    /// `batch` as the one payload a producer makes of it.
    fn payload(batch: &[TaskSynopsis]) -> FramePayload {
        let mut payload = FramePayload::new();
        for s in batch {
            assert!(payload.push_parts(&s.head(), &s.log_points));
        }
        payload
    }

    /// A queue with no worker behind it: the front, the counters it
    /// counts into, and the end the worker would read.
    fn queue(
        capacity: usize,
        policy: OverloadPolicy,
    ) -> (QueueFront, Arc<StatsInner>, Receiver<FramePayload>) {
        let stats = Arc::new(StatsInner::new());
        let (front, rx) = QueueFront::new(capacity, policy, stats.clone());
        (front, stats, rx)
    }

    fn sink(front: &QueueFront, batch_size: u64) -> AgentSink {
        AgentSink {
            front: front.clone(),
            buf: parking_lot::Mutex::new(FramePayload::new()),
            batch_size,
        }
    }

    /// Split `[u32 length][frame]…` wire bytes into the frames.
    fn messages(mut wire: &[u8]) -> Vec<&[u8]> {
        let mut out = Vec::new();
        while !wire.is_empty() {
            let len = u32::from_be_bytes(wire[..4].try_into().unwrap()) as usize;
            out.push(&wire[4..4 + len]);
            wire = &wire[4 + len..];
        }
        out
    }

    /// Accepts `accept` bytes in all, at most `per_call` per write, then
    /// fails like a dead socket.
    struct FailingWriter {
        accept: usize,
        per_call: usize,
        taken: Vec<u8>,
    }

    impl Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let room = self.accept - self.taken.len();
            if room == 0 {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
            let n = buf.len().min(room).min(self.per_call);
            self.taken.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn outbox_loses_the_cut_frame_and_keeps_the_ones_behind_it() {
        let batches = [batch(9, 0..48), batch(9, 48..53), batch(9, 53..101)];
        let framed: u64 = batches.iter().map(|b| b.len() as u64).sum();
        let mut probe = Outbox::new(HostId(9));
        batches.iter().for_each(|b| probe.frame(&payload(b)));
        let wire = probe.wire().to_vec();
        let ends: Vec<usize> = messages(&wire)
            .iter()
            .scan(0usize, |end, m| {
                *end += 4 + m.len();
                Some(*end)
            })
            .collect();
        assert_eq!(ends.len(), 3);

        // (bytes the writer accepts, frames that must count as written)
        let cases = [
            (0, 0),                // dead before the first byte
            (2, 0),                // inside the first length prefix
            (ends[0] - 1, 0),      // one byte short of a whole frame
            (ends[0], 1),          // exactly on a frame boundary
            (ends[0] + 4 + 10, 1), // inside the second frame's header
            (ends[1], 2),          // on the second boundary
            (ends[2] - 1, 2),      // all but the last byte
            (ends[2], 3),          // everything
            (ends[2] + 100, 3),    // more room than bytes
        ];
        let count = |bs: &[Vec<TaskSynopsis>]| bs.iter().map(|b| b.len() as u64).sum::<u64>();
        for (accept, whole) in cases {
            for per_call in [usize::MAX, 7] {
                let mut outbox = Outbox::new(HostId(9));
                batches.iter().for_each(|b| outbox.frame(&payload(b)));
                let mut w = FailingWriter {
                    accept,
                    per_call,
                    taken: Vec::new(),
                };
                let flushed = outbox.flush(&mut w);
                let case = format!("accept {accept}, {per_call} per call");
                // Whole accepted frames are written; the frame the error cut
                // is lost; the frames behind it are still pending, untouched.
                let cut = usize::from(whole < 3);
                let kept = &batches[whole + cut..];
                assert_eq!(flushed.frames_written, whole as u64, "{case}");
                assert_eq!(flushed.synopses_written, count(&batches[..whole]), "{case}");
                assert_eq!(
                    flushed.wire_lost,
                    (cut == 1).then(|| count(&batches[whole..whole + cut])),
                    "{case}"
                );
                assert_eq!(w.taken[..], wire[..accept.min(wire.len())], "{case}");
                let kept_from = if cut == 1 { ends[whole] } else { wire.len() };
                assert_eq!(outbox.wire(), &wire[kept_from..], "{case}");
                assert_eq!(outbox.wire().is_empty(), kept.is_empty(), "{case}");
                assert_eq!(
                    outbox.resume_point(),
                    ((whole + cut) as u64, count(&batches[..whole + cut])),
                    "{case}: a handshake now resumes at the first kept frame"
                );

                // Whatever happened to that write, nothing is renumbered: the
                // kept frames go out next as framed, and a new frame carries
                // on from everything framed so far.
                outbox.frame(&payload(&batch(9, 101..110)));
                let mut next = Vec::new();
                let flushed = outbox.flush(&mut next);
                assert!(
                    flushed.wire_lost.is_none() && outbox.wire().is_empty(),
                    "{case}"
                );
                assert_eq!(flushed.frames_written, kept.len() as u64 + 1, "{case}");
                assert_eq!(flushed.synopses_written, count(kept) + 9, "{case}");
                assert_eq!(next[..wire.len() - kept_from], wire[kept_from..], "{case}");
                let last = parse_frame(messages(&next).pop().unwrap()).expect("valid frame");
                assert_eq!(last.seq, 3, "{case}");
                assert_eq!(last.cumulative, framed, "{case}");
                assert_eq!(last.synopses, batch(9, 101..110), "{case}");
                assert_eq!(outbox.resume_point(), (4, framed + 9), "{case}");
            }
        }
    }

    #[test]
    fn abandoned_outbox_reports_what_it_held() {
        let mut outbox = Outbox::new(HostId(9));
        outbox.frame(&payload(&batch(9, 0..48)));
        outbox.frame(&payload(&batch(9, 48..53)));
        assert_eq!(outbox.abandon(), 53);
        assert!(outbox.wire().is_empty());
        // The sequence numbers are spent all the same.
        assert_eq!(outbox.resume_point(), (2, 53));
    }

    #[test]
    fn outbox_frames_are_the_frames_a_plain_sender_makes() {
        let batches = [batch(4, 0..48), batch(4, 48..49), batch(4, 49..97)];
        let mut outbox = Outbox::new(HostId(4));
        let mut plain = FrameSender::new(HostId(4));
        let mut want = Vec::new();
        for b in &batches {
            outbox.frame(&payload(b));
            write_message(&mut want, &plain.encode_frame(b)).unwrap();
        }
        assert_eq!(outbox.wire(), &want[..]);
        // All three are pending: a handshake would still resume at frame 0.
        assert_eq!(outbox.resume_point(), (0, 0));
        assert_eq!(outbox.flush(&mut io::sink()).frames_written, 3);
        assert_eq!(outbox.resume_point(), (3, 97));
    }

    #[test]
    fn batch_over_the_payload_bound_splits_on_a_synopsis_boundary() {
        // ~60 KB per synopsis: a few hundred of them straddle the 16 MiB bound.
        let heavy = |uid: u64| TaskSynopsis {
            uid: TaskUid(uid),
            log_points: (0..10_000u16)
                .map(|p| (LogPointId(p), u32::MAX - p as u32))
                .collect(),
            ..task(2, uid, 0)
        };
        let one = FrameSender::new(HostId(2)).encode_frame(&[heavy(0)]).len() - FRAME_HEADER_LEN;
        // `heavy(0)` is the shortest of them, so this many is over the bound
        // by less than one synopsis.
        let count = MAX_FRAME_PAYLOAD / one + 1;
        let big: Vec<TaskSynopsis> = (0..count as u64).map(heavy).collect();
        let small = batch(2, 0..3);

        // Both producers: `Agent::send`'s path, and a sink fed one synopsis
        // at a time whose batch size alone would never cut.
        let (front, stats, rx) = queue(8, OverloadPolicy::DropNewest);
        front.send(&small);
        front.send(&big);
        let via_send: Vec<FramePayload> = rx.try_iter().collect();
        let streaming = sink(&front, u64::MAX);
        for s in small.iter().chain(&big) {
            streaming.submit_parts(s.head(), &s.log_points);
        }
        drop(streaming);
        let via_sink: Vec<FramePayload> = rx.try_iter().collect();
        assert_eq!(stats.snapshot().drops.total(), 0);

        // (payloads queued, synopses in the first)
        for (payloads, shape) in [(via_send, (3, 3)), (via_sink, (2, big.len() as u64 + 2))] {
            assert_eq!((payloads.len(), payloads[0].synopses()), shape);
            let mut outbox = Outbox::new(HostId(2));
            payloads.iter().for_each(|p| outbox.frame(p));
            let mut rx = FrameReceiver::new();
            let mut delivered = Vec::new();
            let mut expected_cumulative = 0u64;
            for (seq, frame) in messages(outbox.wire()).into_iter().enumerate() {
                assert!(frame.len() <= MAX_MESSAGE_LEN);
                assert!(frame.len() - FRAME_HEADER_LEN <= MAX_FRAME_PAYLOAD);
                let parsed = parse_frame(frame).expect("every cut frame is admissible");
                assert_eq!(parsed.seq, seq as u64);
                assert_eq!(parsed.cumulative, expected_cumulative, "contiguous");
                expected_cumulative += parsed.synopses.len() as u64;
                match rx.admit(parsed) {
                    FrameOutcome::Fresh {
                        synopses,
                        newly_lost,
                        ..
                    } => {
                        assert_eq!(newly_lost, 0);
                        delivered.extend(synopses);
                    }
                    other => panic!("unexpected: {other:?}"),
                }
            }
            assert_eq!(delivered.len(), 3 + big.len());
            assert!(delivered[..3] == small[..] && delivered[3..] == big[..]);
            // written + wire_lost + pending == framed, whatever a write does.
            let framed = delivered.len() as u64;
            let mut w = FailingWriter {
                accept: outbox.wire().len() / 2,
                per_call: usize::MAX,
                taken: Vec::new(),
            };
            let flushed = outbox.flush(&mut w);
            let lost = flushed.wire_lost.expect("the write was cut");
            assert_eq!(flushed.synopses_written + lost + outbox.abandon(), framed);
        }

        // The allocating wrapper cannot split; it refuses rather than emit a
        // frame whose length field every receiver rejects.
        let refused = std::panic::catch_unwind(|| FrameSender::new(HostId(2)).encode_frame(&big));
        assert!(refused.is_err());
    }

    #[test]
    fn refused_payloads_are_counted_in_synopses() {
        let counts = |stats: &StatsInner| {
            let d = stats.snapshot().drops;
            (d.newest, d.oldest, d.timed_out, d.disconnected)
        };
        // One slot: the first payload (5 synopses) fills it.
        let (front, stats, rx) = queue(1, OverloadPolicy::DropNewest);
        front.send(&batch(1, 0..5));
        front.send(&batch(1, 5..12));
        assert_eq!(counts(&stats), (7, 0, 0, 0));
        assert_eq!(rx.try_recv().expect("the first is queued").synopses(), 5);

        let (front, stats, rx) = queue(1, OverloadPolicy::DropOldest);
        front.send(&batch(1, 0..5));
        front.send(&batch(1, 5..12));
        assert_eq!(counts(&stats), (0, 5, 0, 0));
        assert_eq!(rx.try_recv().expect("the second is queued").synopses(), 7);

        let policy = OverloadPolicy::Block {
            timeout: Duration::from_millis(1),
        };
        let (front, stats, rx) = queue(1, policy);
        let streaming = sink(&front, 4);
        for s in batch(1, 0..11) {
            streaming.submit(s); // 4 queued, 4 timed out, 3 buffered
        }
        assert_eq!(counts(&stats), (0, 0, 4, 0));
        drop(rx);
        drop(streaming); // flushes the 3 into a queue nobody reads
        front.send(&batch(1, 11..13));
        assert_eq!(counts(&stats), (0, 0, 4, 5));

        // What the worker gives up on is counted the same way.
        let (front, stats, rx) = queue(4, OverloadPolicy::DropNewest);
        front.send(&batch(1, 0..5));
        front.send(&batch(1, 5..12));
        drop_remaining(20, &rx, &stats);
        assert_eq!(counts(&stats), (0, 0, 0, 32));
    }

    #[test]
    fn payload_buffers_circulate_instead_of_being_freed() {
        let (front, _stats, rx) = queue(2, OverloadPolicy::DropNewest);
        let streaming = sink(&front, 48);
        for s in batch(1, 0..48) {
            streaming.submit(s);
        }
        let mut sent = rx.try_recv().expect("a full payload");
        let buffer = sent.bytes().as_ptr();
        // The worker's side: frame it, give the buffer back.
        Outbox::new(HostId(1)).frame(&sent);
        sent.clear();
        front.spare.give(sent);
        for s in batch(1, 48..96) {
            streaming.submit(s); // takes the spare at hand-over
        }
        streaming.flush(); // nothing buffered: nothing queued
        assert_eq!(rx.try_iter().count(), 1);
        for s in batch(1, 96..97) {
            streaming.submit(s);
        }
        assert_eq!(streaming.buf.lock().bytes().as_ptr(), buffer);
        // An outsize payload's buffer is not held on to.
        let mut outsize = FramePayload::new();
        let long = task(1, 0, 4_000);
        while outsize.bytes().len() <= SPARE_MAX_BYTES {
            assert!(outsize.push_parts(&long.head(), &long.log_points));
        }
        let kept = front.spare.free.lock().len();
        front.spare.give(outsize);
        assert_eq!(front.spare.free.lock().len(), kept);
    }
}
