//! The tracker-side agent: a bounded send queue in front of a persistent
//! framed TCP connection to the collector.
//!
//! Producers hand synopsis batches to [`Agent::send`] (or stream single
//! synopses through an [`AgentSink`]); either way the synopses are
//! encoded on the producer's thread, and what crosses the queue is a
//! [`FramePayload`] — one frame's encoded bytes and its synopsis count.
//! The queue honors the same [`OverloadPolicy`] semantics as the
//! in-process `BatchSink` — `DropNewest`, `DropOldest`, and `Block` —
//! with every refused synopsis counted, never silently discarded. Each
//! time the worker wakes it frames every payload already queued into one
//! reused buffer — header, the bytes, length and CRC — hands the lot to
//! the socket in a single write, and passes the emptied payload buffers
//! back to the producers, so a streaming agent allocates nothing.
//!
//! The worker thread is a driver of the shared sender state machine,
//! `net::outbound`, over a real socket and clock. Frame numbering that
//! survives reconnects, back-off, the resume handshake, the verdict on a
//! refused hello and the accounting of a write cut half-way — counted
//! wire-lost, never retransmitted: the detector is loss-aware by design —
//! are decided there. The worker's own: it waits out the due time of the
//! next connect (watching for `close`) and keeps frames queued behind a
//! failed write for the next connection.

use crate::outbound::{LinkCounts, Outbound};
use crate::protocol::{dial, PeerRole, RejectReason, PROTOCOL_VERSION};
use crate::ring::{LeafResolver, PinnedResolver};
use crossbeam_channel::{bounded, Receiver, Sender};
use rand::rngs::StdRng;
use rand::Rng;
use saad_core::pipeline::{offer, DropCounters, DropCounts, OverloadPolicy};
use saad_core::synopsis::{SynopsisHead, TaskSynopsis};
use saad_core::tracker::SynopsisSink;
use saad_core::transport::FramePayload;
use saad_core::{HostId, LogPointId};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Socket write timeout of an agent's link: a stalled collector fails the
/// write and the frame is accounted wire-lost rather than blocking the
/// worker forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Longest a connect, and then the wait for the handshake ack, may take.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Growth factor of the reconnect delay per consecutive failure.
const BACKOFF_MULTIPLIER: f64 = 2.0;

/// Each reconnect delay is scaled by a uniform factor in
/// `[1 − BACKOFF_JITTER, 1 + BACKOFF_JITTER)`, so a fleet that lost its
/// collector at one instant does not reconnect in lockstep; ±20 % spreads
/// a retry over 40 % of its delay while keeping the doubling visible.
pub(crate) const BACKOFF_JITTER: f64 = 0.2;

/// Reconnect backoff tuning: exponential (doubling per consecutive
/// failure) with ±20 % multiplicative jitter.
#[derive(Debug, Clone)]
pub struct BackoffConfig {
    /// First retry delay.
    pub initial: Duration,
    /// Ceiling on any single delay.
    pub max: Duration,
    /// Seed for the jitter stream (deterministic per agent).
    pub seed: u64,
}

impl Default for BackoffConfig {
    fn default() -> BackoffConfig {
        BackoffConfig {
            initial: Duration::from_millis(20),
            max: Duration::from_secs(2),
            seed: 0x5AAD_0001,
        }
    }
}

impl BackoffConfig {
    pub(crate) fn delay(&self, attempt: u32, rng: &mut StdRng) -> Duration {
        let base = self.initial.as_secs_f64() * BACKOFF_MULTIPLIER.powi(attempt as i32);
        let capped = base.min(self.max.as_secs_f64());
        let factor = 1.0 + rng.gen_range(-BACKOFF_JITTER..BACKOFF_JITTER);
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
            version: PROTOCOL_VERSION,
        }
    }
}

#[derive(Debug, Default)]
struct StatsInner {
    /// What the worker's sender state machine has counted so far.
    link: parking_lot::Mutex<LinkCounts>,
    frames_per_write: Arc<saad_obs::Histogram>,
    dropped: DropCounters,
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
        let link = *self.link.lock();
        AgentStats {
            connects: link.connects,
            reconnects: link.reconnects,
            handshake_rejects: link.handshake_rejects,
            stale_epoch_rejects: link.stale_epoch_rejects,
            rehomes: link.rehomes,
            frames_written: link.frames_written,
            synopses_written: link.synopses_written,
            synopses_wire_lost: link.synopses_wire_lost,
            writes: link.writes,
            drops: self.dropped.snapshot(),
            reject_reason: link.reject_reason,
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
    /// refuses or evicts is counted by its synopses, and its buffer, like
    /// that of an empty payload, goes back to the spares.
    fn enqueue(&self, payload: FramePayload) {
        if payload.is_empty() {
            return self.spare.give(payload);
        }
        let (evict, policy) = (self.evict.as_ref(), Some(self.policy));
        offer(&self.tx, evict, policy, payload, |refused, reason| {
            reason(&self.stats.dropped).fetch_add(refused.synopses(), Ordering::Relaxed);
            self.spare.give(refused);
        });
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
        let stats = Arc::new(StatsInner::default());
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
        let counter = |f: fn(&AgentStats) -> u64| {
            let stats = Arc::clone(&self.front.stats);
            move || f(&stats.snapshot())
        };
        registry.register_counter_fn(
            "saad_agent_connects_total",
            "Successful connection + handshake completions",
            &labels,
            counter(|s| s.connects),
        );
        registry.register_counter_fn(
            "saad_agent_reconnects_total",
            "Connects after the first — recoveries from a dead link",
            &labels,
            counter(|s| s.reconnects),
        );
        registry.register_counter_fn(
            "saad_agent_handshake_rejects_total",
            "Handshakes the collector refused",
            &labels,
            counter(|s| s.handshake_rejects),
        );
        registry.register_counter_fn(
            "saad_agent_stale_epoch_rejects_total",
            "Handshakes refused for a stale ring epoch (retried after refetch)",
            &labels,
            counter(|s| s.stale_epoch_rejects),
        );
        registry.register_counter_fn(
            "saad_agent_rehomes_total",
            "Successful connects that landed on a different leaf than before",
            &labels,
            counter(|s| s.rehomes),
        );
        registry.register_counter_fn(
            "saad_agent_frames_written_total",
            "Frames fully written to a live socket",
            &labels,
            counter(|s| s.frames_written),
        );
        registry.register_counter_fn(
            "saad_agent_synopses_written_total",
            "Synopses carried by fully written frames",
            &labels,
            counter(|s| s.synopses_written),
        );
        registry.register_counter_fn(
            "saad_agent_synopses_wire_lost_total",
            "Synopses in frames whose write failed — lost on the wire, never retransmitted",
            &labels,
            counter(|s| s.synopses_wire_lost),
        );
        registry.register_counter_fn(
            "saad_agent_writes_total",
            "Socket writes that carried frames (one per worker wake-up)",
            &labels,
            counter(|s| s.writes),
        );
        registry.attach_histogram(
            "saad_agent_frames_per_write",
            "Frames coalesced into one socket write",
            &labels,
            Arc::clone(&self.front.stats.frames_per_write),
        );
        for (reason, f) in [
            ("newest", (|s| s.drops.newest) as fn(&AgentStats) -> u64),
            ("oldest", |s| s.drops.oldest),
            ("timed_out", |s| s.drops.timed_out),
            ("disconnected", |s| s.drops.disconnected),
        ] {
            registry.register_counter_fn(
                "saad_agent_dropped_total",
                "Synopses refused at the agent send queue, by reason",
                &[("host", host_label.as_str()), ("reason", reason)],
                counter(f),
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

/// Most wire bytes the worker coalesces into one write (~75 typical
/// 48-synopsis frames); past this a larger write saves nothing.
const COALESCE_BYTES: usize = 64 * 1024;

/// Wait until `clock` reads `due`, in slices short enough that a closing
/// agent stops promptly.
fn wait_until(due: Duration, clock: Instant, closing: &AtomicBool) {
    while !closing.load(Ordering::SeqCst) {
        let left = due.saturating_sub(clock.elapsed());
        if left.is_zero() {
            return;
        }
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
    let frame = |out: &mut Outbound, payload: FramePayload| {
        out.outbox.frame(&mut out.sender, &payload);
        spare.give(payload);
    };
    let mut out = Outbound::new(host, config.backoff.clone());
    // What the due times of `out` are read against.
    let clock = Instant::now();
    let mut conn: Option<TcpStream> = None;

    'batches: loop {
        // Frames a failed write left pending go out before anything new
        // is taken off the queue.
        if out.outbox.wire().is_empty() {
            // Poll with a timeout so close() works even while sink clones
            // keep the channel's sender side alive.
            match rx.recv_timeout(Duration::from_millis(50)) {
                Ok(payload) => frame(&mut out, payload),
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
        // Ensure a handshaken connection, one connect at each due time.
        // The resolver is consulted before every attempt, so a ring
        // republish between attempts re-homes this agent automatically.
        while conn.is_none() {
            let Some(due) = out.connect_due() else {
                // Refused for good (version skew or a confused collector:
                // the same hello cannot succeed), or a closing agent's one
                // attempt failed: account everything still queued and stop.
                drop_remaining(out.outbox.abandon(), &rx, &stats);
                return;
            };
            wait_until(due, clock, &closing);
            if closing.load(Ordering::SeqCst) {
                out.close();
            }
            conn = match resolver.resolve(host) {
                Some((addr, epoch)) => {
                    let hello = out.hello(config.version, epoch, PeerRole::Agent);
                    let answer = dial(addr, &hello, WRITE_TIMEOUT, READ_TIMEOUT);
                    out.dialed(addr, answer, clock.elapsed())
                }
                None => {
                    // Empty ring: wait for the control plane to publish.
                    out.failed(clock.elapsed());
                    None
                }
            };
            *stats.link.lock() = out.counts();
        }
        // Payloads already queued ride in the same write; the worker never
        // waits for more.
        while out.outbox.wire().len() < COALESCE_BYTES {
            match rx.try_recv() {
                Ok(queued) => frame(&mut out, queued),
                Err(_) => break,
            }
        }
        stats
            .frames_per_write
            .record(out.outbox.pending_frames() as u64);
        let intact = out.flush(conn.as_mut().expect("connected"));
        *stats.link.lock() = out.counts();
        if !intact {
            // The cut frame may be partly on the wire and is counted
            // lost; rebuild the connection for what is still pending.
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
    let disconnected = &stats.dropped.disconnected;
    disconnected.fetch_add(dropped, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outbound::testkit::{batch, messages, task};
    use crate::protocol::MAX_MESSAGE_LEN;
    use saad_core::testkit::{parse_frame, FrameOutcome};
    use saad_core::transport::{FrameReceiver, FrameSender, FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD};
    use saad_core::TaskUid;

    /// A queue with no worker behind it: the front, the counters it
    /// counts into, and the end the worker would read.
    fn queue(
        capacity: usize,
        policy: OverloadPolicy,
    ) -> (QueueFront, Arc<StatsInner>, Receiver<FramePayload>) {
        let stats = Arc::new(StatsInner::default());
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

    #[test]
    fn batch_over_the_payload_bound_splits_on_a_synopsis_boundary() {
        // ~60 KB per synopsis, each its own definition: a few hundred of
        // them straddle the 16 MiB bound.
        let heavy = |uid: u64| TaskSynopsis {
            uid: TaskUid(uid),
            log_points: (0..10_000u16)
                .map(|p| (LogPointId(p), u32::MAX - p as u32 - uid as u32))
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
            let mut out = Outbound::new(HostId(2), BackoffConfig::default());
            payloads
                .iter()
                .for_each(|p| out.outbox.frame(&mut out.sender, p));
            let mut rx = FrameReceiver::new();
            let mut delivered = Vec::new();
            let mut expected_cumulative = 0u64;
            for (seq, frame) in messages(out.outbox.wire()).into_iter().enumerate() {
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
        let mut out = Outbound::new(HostId(1), BackoffConfig::default());
        out.outbox.frame(&mut out.sender, &sent);
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
