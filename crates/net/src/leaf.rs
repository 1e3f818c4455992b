//! The leaf-collector role: terminate a regional agent fleet, re-frame
//! admitted synopses into windowed per-host digests, and forward them
//! upstream to the root analyzer — **in the agents' own global stream
//! coordinates**.
//!
//! The one invariant everything here serves: every digest frame a leaf
//! sends upstream is positioned (via the transport's cumulative synopsis
//! count) exactly where its first synopsis sits in the originating
//! agent's stream. Gaps on the agent link are forwarded with
//! [`FrameSender::skip`]; synopses a leaf accepted but could not deliver
//! (uplink down, mid-write failure, or the leaf dying outright) simply
//! never advance the root's delivered count. Either way the root
//! recovers the exact per-host loss by ordinary cumulative-gap
//! arithmetic — a leaf crash needs no special wire protocol, and a host
//! re-homed to another leaf continues at the same global position with
//! zero double-counting (see [`RootCollector`](crate::root::RootCollector)).
//!
//! Digests are cut on three boundaries — stage-window edges in stream
//! time (so per-(host,stage) windows aggregate cleanly at the root), a
//! size cap, and a wall-clock timer that bounds forwarding latency —
//! plus a final flush with per-host empty *goodbye* frames on graceful
//! shutdown, which reveals any trailing gap to the root immediately.

use crate::agent::BackoffConfig;
use crate::collector::{AdmittedSink, Collector, CollectorConfig};
use crate::control::ControlPlane;
use crate::protocol::{
    exchange_hello, write_message, Hello, PeerRole, PINNED_EPOCH, PROTOCOL_VERSION,
};
use crate::ring::LeafId;
use bytes::BytesMut;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use saad_core::synopsis::TaskSynopsis;
use saad_core::transport::FrameSender;
use saad_core::HostId;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for a [`LeafCollector`].
#[derive(Debug, Clone)]
pub struct LeafConfig {
    /// This leaf's identity in the federation ring.
    pub id: LeafId,
    /// Digest window width in **stream time**: a digest never mixes
    /// synopses from two windows, so windows aggregate exactly at the
    /// root. Matches the detector's stage-window width in a full
    /// deployment.
    pub window: Duration,
    /// Most synopses one digest frame carries before a size-cap flush.
    pub max_digest: usize,
    /// Wall-clock bound on how long an undersized digest may sit pending
    /// (also the heartbeat cadence toward the control plane).
    pub flush_interval: Duration,
    /// Agent-facing server tuning. Wire a control plane's
    /// [`epoch_handle`](ControlPlane::epoch_handle) into
    /// `collector.epoch` to enforce ring staleness at this leaf.
    pub collector: CollectorConfig,
    /// Uplink socket write timeout (a stalled root fails the flush and
    /// the digest is accounted wire-lost, never blocks agent handlers
    /// for long).
    pub write_timeout: Duration,
    /// Uplink socket read timeout for the handshake ack.
    pub read_timeout: Duration,
    /// Uplink reconnect pacing. Connects are attempted at most once per
    /// flush, spaced by this schedule — never a blocking retry loop,
    /// because flushes run on agent-connection handler threads.
    pub backoff: BackoffConfig,
}

impl Default for LeafConfig {
    fn default() -> LeafConfig {
        LeafConfig {
            id: LeafId(0),
            window: Duration::from_secs(60),
            max_digest: 512,
            flush_interval: Duration::from_millis(50),
            collector: CollectorConfig::default(),
            write_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(5),
            backoff: BackoffConfig::default(),
        }
    }
}

/// Snapshot of a leaf's forwarding counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeafStats {
    /// Digest frames written upstream (goodbye frames included).
    pub digests_sent: u64,
    /// Synopses carried by those digests.
    pub digest_synopses: u64,
    /// Synopses in digests that could not be written (uplink down or
    /// mid-write failure) — surfaced at the root as a stream-position
    /// gap, never retransmitted.
    pub uplink_wire_lost: u64,
    /// Synopses skipped over to forward agent-link gaps upstream.
    pub skipped_synopses: u64,
    /// Synopses dropped because they arrived behind the host's already
    /// forwarded stream position (an agent that restarted from zero).
    pub late_dropped: u64,
    /// Successful uplink connection + handshake completions.
    pub uplink_connects: u64,
}

#[derive(Debug, Default)]
struct Counters {
    digests_sent: AtomicU64,
    digest_synopses: AtomicU64,
    uplink_wire_lost: AtomicU64,
    skipped_synopses: AtomicU64,
    late_dropped: AtomicU64,
    uplink_connects: AtomicU64,
}

/// Per-host digest assembly state. The [`FrameSender`] runs in the
/// host's **global** stream coordinates: `synopses_sent` equals the
/// position just past the last synopsis this leaf flushed (or skipped)
/// for the host.
struct HostBuf {
    sender: FrameSender,
    pending: Vec<TaskSynopsis>,
    /// Stream-time window index of the pending synopses.
    window_idx: u64,
}

/// Everything the flush path mutates, under one lock: host buffers plus
/// the uplink socket and its connect schedule.
struct UplinkIo {
    hosts: HashMap<HostId, HostBuf>,
    /// The digest frame being sent, assembled in place and reused.
    frame: BytesMut,
    conn: Option<TcpStream>,
    next_attempt: Instant,
    attempt: u32,
    rng: StdRng,
}

struct Uplink {
    io: Mutex<UplinkIo>,
    /// Clone of the live uplink socket so [`LeafCollector::kill`] can
    /// sever it without waiting on the io lock.
    kill_handle: Mutex<Option<TcpStream>>,
    root_addr: SocketAddr,
    config: LeafConfig,
    killed: AtomicBool,
    counters: Counters,
}

impl Uplink {
    fn new(root_addr: SocketAddr, config: LeafConfig) -> Uplink {
        Uplink {
            io: Mutex::new(UplinkIo {
                hosts: HashMap::new(),
                frame: BytesMut::new(),
                conn: None,
                next_attempt: Instant::now(),
                attempt: 0,
                rng: StdRng::seed_from_u64(config.backoff.seed ^ config.id.0 as u64),
            }),
            kill_handle: Mutex::new(None),
            root_addr,
            config,
            killed: AtomicBool::new(false),
            counters: Counters::default(),
        }
    }

    /// At most one uplink connect attempt, and only when the backoff
    /// schedule says it is due — flushes run on agent handler threads
    /// and must never spin on a dead root.
    fn ensure_conn(&self, io: &mut UplinkIo) {
        if io.conn.is_some() || Instant::now() < io.next_attempt {
            return;
        }
        match uplink_connect(self.root_addr, &self.config) {
            Some(stream) => {
                *self.kill_handle.lock() = stream.try_clone().ok();
                io.conn = Some(stream);
                io.attempt = 0;
                self.counters
                    .uplink_connects
                    .fetch_add(1, Ordering::Relaxed);
            }
            None => {
                let delay = self.config.backoff.delay(io.attempt, &mut io.rng);
                io.next_attempt = Instant::now() + delay;
                io.attempt = io.attempt.saturating_add(1);
            }
        }
    }

    /// Encode and write the host's pending digest. The frame is encoded
    /// — and the global position advanced — **whether or not** the write
    /// succeeds: an undeliverable digest must become a visible gap at
    /// the root, not a silent renumbering.
    fn flush_host(&self, io: &mut UplinkIo, host: HostId) {
        let Some(buf) = io.hosts.get_mut(&host) else {
            return;
        };
        if buf.pending.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut buf.pending);
        self.ensure_conn(io);
        self.send_digest(io, host, &batch);
    }

    /// Frame `batch` at the host's stream position and write it upstream
    /// — in more than one frame only if it encodes past the frame payload
    /// bound. An empty `batch` is the host's goodbye frame.
    fn send_digest(&self, io: &mut UplinkIo, host: HostId, batch: &[TaskSynopsis]) {
        let mut rest = batch;
        loop {
            let sender = &mut io.hosts.get_mut(&host).expect("host present").sender;
            io.frame.clear();
            let framed = sender.encode_frame_into(&mut io.frame, rest);
            self.write_digest(io, framed as u64);
            rest = &rest[framed..];
            if rest.is_empty() {
                return;
            }
        }
    }

    /// Write the frame in `io.frame`, carrying `n` synopses, upstream.
    fn write_digest(&self, io: &mut UplinkIo, n: u64) {
        if self.killed.load(Ordering::SeqCst) {
            self.counters
                .uplink_wire_lost
                .fetch_add(n, Ordering::Relaxed);
            return;
        }
        let ok = match io.conn.as_mut() {
            Some(stream) => write_message(stream, &io.frame).is_ok(),
            None => false,
        };
        if ok {
            self.counters.digests_sent.fetch_add(1, Ordering::Relaxed);
            self.counters
                .digest_synopses
                .fetch_add(n, Ordering::Relaxed);
        } else {
            self.counters
                .uplink_wire_lost
                .fetch_add(n, Ordering::Relaxed);
            if io.conn.take().is_some() {
                *self.kill_handle.lock() = None;
            }
        }
    }

    /// Timer flush: push out every pending digest.
    fn tick(&self) {
        if self.killed.load(Ordering::SeqCst) {
            return;
        }
        let mut io = self.io.lock();
        let hosts: Vec<HostId> = io
            .hosts
            .iter()
            .filter(|(_, b)| !b.pending.is_empty())
            .map(|(&h, _)| h)
            .collect();
        for host in hosts {
            self.flush_host(&mut io, host);
        }
    }

    /// Graceful finish: flush everything, then send a per-host empty
    /// goodbye frame so the root learns each host's final stream
    /// position — revealing any trailing gap — and half-close.
    fn finish(&self) {
        let mut io = self.io.lock();
        let hosts: Vec<HostId> = io.hosts.keys().copied().collect();
        for host in hosts {
            self.flush_host(&mut io, host);
            self.send_digest(&mut io, host, &[]);
        }
        if let Some(stream) = io.conn.take() {
            let _ = stream.shutdown(std::net::Shutdown::Write);
        }
        *self.kill_handle.lock() = None;
    }

    /// Crash-stop: discard pending digests and sever the uplink. The
    /// point of the exercise — everything undelivered must surface at
    /// the root as an exactly-accounted gap, with no goodbye.
    fn kill(&self) {
        self.killed.store(true, Ordering::SeqCst);
        if let Some(stream) = self.kill_handle.lock().take() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }

    fn stats(&self) -> LeafStats {
        let c = &self.counters;
        LeafStats {
            digests_sent: c.digests_sent.load(Ordering::Relaxed),
            digest_synopses: c.digest_synopses.load(Ordering::Relaxed),
            uplink_wire_lost: c.uplink_wire_lost.load(Ordering::Relaxed),
            skipped_synopses: c.skipped_synopses.load(Ordering::Relaxed),
            late_dropped: c.late_dropped.load(Ordering::Relaxed),
            uplink_connects: c.uplink_connects.load(Ordering::Relaxed),
        }
    }
}

impl AdmittedSink for Uplink {
    fn on_fresh(
        &self,
        host: HostId,
        synopses: Vec<TaskSynopsis>,
        _newly_lost: u64,
        stream_pos_end: u64,
    ) {
        if self.killed.load(Ordering::SeqCst) {
            return;
        }
        let start = stream_pos_end - synopses.len() as u64;
        let window_us = self.config.window.as_micros().max(1) as u64;
        let mut io = self.io.lock();
        let io = &mut *io;
        let buf = io.hosts.entry(host).or_insert_with(|| HostBuf {
            sender: FrameSender::new(host),
            pending: Vec::new(),
            window_idx: 0,
        });
        let pos = buf.sender.synopses_sent() + buf.pending.len() as u64;
        if start > pos {
            // Agent-link gap (or a stretch another leaf handled while
            // this host was homed elsewhere): flush what we have at its
            // own position, then jump forward so the next frame's
            // cumulative count tells the root exactly what is missing.
            self.flush_host(io, host);
            let buf = io.hosts.get_mut(&host).expect("just inserted");
            let jump = start - buf.sender.synopses_sent();
            buf.sender.skip(jump);
            self.counters
                .skipped_synopses
                .fetch_add(jump, Ordering::Relaxed);
        } else if start < pos {
            // Behind our forwarded position: an agent restarted from
            // zero. Forwarding would double-count at the root; drop and
            // account.
            self.counters
                .late_dropped
                .fetch_add(synopses.len() as u64, Ordering::Relaxed);
            return;
        }
        for s in synopses {
            let w = s.start.as_micros() / window_us;
            let buf = io.hosts.get_mut(&host).expect("present");
            if buf.pending.is_empty() {
                buf.window_idx = w;
            } else if w != buf.window_idx {
                // Stage-window edge: digests never mix windows.
                self.flush_host(io, host);
                let buf = io.hosts.get_mut(&host).expect("present");
                buf.window_idx = w;
            }
            let buf = io.hosts.get_mut(&host).expect("present");
            buf.pending.push(s);
            if buf.pending.len() >= self.config.max_digest {
                self.flush_host(io, host);
            }
        }
    }
}

/// One uplink connect + v2 handshake. The hello's host field carries the
/// leaf's own identity and zero resume state: each uplink connection is a
/// fresh framing context at the root (per-connection receivers there),
/// while loss accounting rides in the digests' global coordinates.
fn uplink_connect(root_addr: SocketAddr, config: &LeafConfig) -> Option<TcpStream> {
    let stream = TcpStream::connect(root_addr).ok()?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let mut stream = stream;
    let hello = Hello {
        version: PROTOCOL_VERSION,
        host: HostId(config.id.0),
        next_seq: 0,
        sent_cum: 0,
        written_cum: 0,
        // Leaf uplinks are addressed by deployment, not by ring lookup;
        // epoch staleness governs agent→leaf routing.
        epoch: PINNED_EPOCH,
        role: PeerRole::Leaf,
    };
    let ack = exchange_hello(&mut stream, &hello).ok()?;
    ack.accept.then_some(stream)
}

/// A running leaf: an agent-facing [`Collector`] whose admitted frames
/// feed an upstream digest uplink, plus a timer thread driving
/// latency-bound flushes and control-plane heartbeats.
pub struct LeafCollector {
    id: LeafId,
    collector: Option<Collector>,
    uplink: Arc<Uplink>,
    control: Option<ControlPlane>,
    stop: Arc<AtomicBool>,
    timer: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl LeafCollector {
    /// Bind the agent-facing side on `bind_addr`, forward digests to the
    /// root at `root_addr`, and — when a control plane is given —
    /// register this leaf (publishing a grown ring) and heartbeat every
    /// flush interval.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn spawn<A: ToSocketAddrs>(
        bind_addr: A,
        root_addr: SocketAddr,
        control: Option<ControlPlane>,
        config: LeafConfig,
    ) -> io::Result<LeafCollector> {
        let id = config.id;
        let flush_interval = config.flush_interval;
        let uplink = Arc::new(Uplink::new(root_addr, config.clone()));
        let sink: Arc<dyn AdmittedSink> = uplink.clone();
        let collector = Collector::bind_forward(bind_addr, sink, config.collector)?;
        let local_addr = collector.local_addr();
        if let Some(cp) = &control {
            cp.register_leaf(id, local_addr);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let timer = {
            let uplink = uplink.clone();
            let control = control.clone();
            let stop = stop.clone();
            std::thread::Builder::new()
                .name(format!("saad-leaf-{}-timer", id.0))
                .spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        std::thread::sleep(flush_interval);
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        uplink.tick();
                        if let Some(cp) = &control {
                            cp.heartbeat(id);
                        }
                    }
                })
                .expect("spawn leaf timer")
        };
        Ok(LeafCollector {
            id,
            collector: Some(collector),
            uplink,
            control,
            stop,
            timer: Some(timer),
            local_addr,
        })
    }

    /// This leaf's identity.
    pub fn id(&self) -> LeafId {
        self.id
    }

    /// Agent-facing bound address (the actual port when bound with 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Forwarding counters snapshot.
    pub fn stats(&self) -> LeafStats {
        self.uplink.stats()
    }

    /// Agent-facing collector counters (connections, admitted frames,
    /// link loss on the agent side).
    pub fn collector_stats(&self) -> crate::collector::CollectorStats {
        self.collector
            .as_ref()
            .map(|c| c.stats())
            .unwrap_or_default()
    }

    /// Expose forwarding counters in `registry`, labelled by leaf id.
    pub fn register_metrics(&self, registry: &saad_obs::Registry) {
        let leaf_label = self.id.0.to_string();
        let labels = [("leaf", leaf_label.as_str())];
        let counter = |f: fn(&Counters) -> &AtomicU64| {
            let uplink = Arc::downgrade(&self.uplink);
            move || {
                uplink
                    .upgrade()
                    .map_or(0, |u| f(&u.counters).load(Ordering::Relaxed))
            }
        };
        registry.register_counter_fn(
            "saad_leaf_digests_sent_total",
            "Digest frames written upstream (goodbye frames included)",
            &labels,
            counter(|c| &c.digests_sent),
        );
        registry.register_counter_fn(
            "saad_leaf_digest_synopses_total",
            "Synopses carried by upstream digests",
            &labels,
            counter(|c| &c.digest_synopses),
        );
        registry.register_counter_fn(
            "saad_leaf_uplink_wire_lost_total",
            "Synopses in digests that could not be written upstream",
            &labels,
            counter(|c| &c.uplink_wire_lost),
        );
        registry.register_counter_fn(
            "saad_leaf_skipped_synopses_total",
            "Synopses skipped to forward agent-link gaps upstream",
            &labels,
            counter(|c| &c.skipped_synopses),
        );
        registry.register_counter_fn(
            "saad_leaf_late_dropped_total",
            "Synopses dropped for arriving behind the forwarded position",
            &labels,
            counter(|c| &c.late_dropped),
        );
        registry.register_counter_fn(
            "saad_leaf_uplink_connects_total",
            "Successful uplink connection + handshake completions",
            &labels,
            counter(|c| &c.uplink_connects),
        );
    }

    /// Graceful drain: deregister from the control plane (agents start
    /// re-homing at once), stop the agent-facing collector, flush every
    /// pending digest, and say goodbye per host so the root sees final
    /// positions. Returns the final forwarding counters.
    pub fn shutdown(mut self) -> LeafStats {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(cp) = self.control.take() {
            cp.deregister_leaf(self.id);
        }
        if let Some(t) = self.timer.take() {
            let _ = t.join();
        }
        if let Some(c) = self.collector.take() {
            // Joins agent handlers; their in-flight on_fresh calls finish
            // before this returns, so the final flush below sees a
            // settled buffer.
            let _ = c.shutdown();
        }
        self.uplink.finish();
        self.uplink.stats()
    }

    /// Crash-stop for fault injection: sever the uplink and discard
    /// pending digests **without** telling the control plane — failure
    /// detection (missed heartbeats) must notice on its own, exactly as
    /// with a real process death. Returns the final forwarding counters.
    pub fn kill(mut self) -> LeafStats {
        self.stop.store(true, Ordering::SeqCst);
        self.control = None;
        // Kill the uplink before unblocking handlers so any racing flush
        // fails fast instead of delivering a post-mortem digest.
        self.uplink.kill();
        if let Some(t) = self.timer.take() {
            let _ = t.join();
        }
        if let Some(c) = self.collector.take() {
            let _ = c.shutdown();
        }
        self.uplink.stats()
    }
}
