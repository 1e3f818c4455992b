//! The leaf-collector role: terminate a regional agent fleet, re-frame
//! admitted synopses into windowed per-host digests, and forward them
//! upstream to the root analyzer — **in the agents' own global stream
//! coordinates**. A leaf never decodes a synopsis: it copies the bytes the
//! parser checked ([`CheckedPayload`]) into each host's digest payload, so
//! the root receives the bytes the agents wrote.
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
//! size cap, and a flush every `flush_interval` that bounds forwarding
//! latency — plus a final flush with per-host empty *goodbye* frames on
//! graceful shutdown, which reveals any trailing gap to the root
//! immediately. The interval flush is a deadline timer on the
//! agent-facing collector's loop 0: a leaf runs no thread of its own.
//!
//! A leaf spawned with a [`ControlPlane`] registers in it and enforces its
//! ring epoch: an agent that routed by an older ring is refused with
//! `StaleEpoch` and refetches. It never reports its own health there;
//! failover is [`ControlPlane::mark_dead`], called by whoever saw the
//! leaf die.
//!
//! The uplink is a driver of the shared sender state machine,
//! `net::outbound`: when a connect is due, what a failed write costs and
//! what closing means are decided there. The leaf's own rule is that it
//! never waits — flushes run on the agent-facing loop threads — so a
//! digest that finds the link down and no connect due is framed,
//! abandoned and counted `uplink_wire_lost`: a visible gap at the root.

use crate::agent::BackoffConfig;
use crate::control::ControlPlane;
use crate::ingest::{AdmittedSink, CollectorStats};
use crate::outbound::Outbound;
use crate::protocol::{dial, Hello, HelloAck, PeerRole, PINNED_EPOCH, PROTOCOL_VERSION};
use crate::reactor_collector::{ReactorCollector, ReactorCollectorConfig};
use crate::ring::LeafId;
use parking_lot::Mutex;
use saad_core::codec::CheckedPayload;
use saad_core::transport::{FramePayload, FrameSender};
use saad_core::HostId;
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Uplink socket write timeout: a stalled root fails the flush and the
/// digest is accounted wire-lost, never blocking an agent-facing loop for
/// long.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Longest an uplink connect, and then the wait for its ack, may take.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

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
    /// Wall-clock bound on how long an undersized digest may sit pending:
    /// the period of the flush on the collector's loop 0.
    pub flush_interval: Duration,
    /// Agent-facing server tuning.
    pub collector: ReactorCollectorConfig,
    /// Uplink reconnect pacing: at most one connect per flush, spaced by
    /// this schedule — never a blocking retry loop.
    pub backoff: BackoffConfig,
}

impl Default for LeafConfig {
    fn default() -> LeafConfig {
        LeafConfig {
            id: LeafId(0),
            window: Duration::from_secs(60),
            max_digest: 512,
            flush_interval: Duration::from_millis(50),
            collector: ReactorCollectorConfig::default(),
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

/// Per-host digest assembly state. The [`FrameSender`] runs in the
/// host's **global** stream coordinates: `synopses_sent` equals the
/// position just past the last synopsis this leaf flushed (or skipped)
/// for the host.
struct HostBuf {
    sender: FrameSender,
    pending: FramePayload,
    /// Stream-time window index of the pending synopses.
    window_idx: u64,
    /// Synopses taken into the current digest: more than are pending once
    /// the payload bound has cut it into a frame of its own.
    taken: usize,
}

/// The uplink's connection as the flush path sees it: somewhere to write
/// (a `TcpStream`; a byte vector in the tests).
type Conn = Box<dyn Write + Send>;

/// One uplink connect + handshake.
type Dial = dyn Fn(&Hello) -> io::Result<(Conn, HelloAck)> + Send + Sync;

/// The sender state of the uplink, and its connection while it is up.
struct Link {
    out: Outbound,
    conn: Option<Conn>,
}

struct Uplink {
    /// Everything the flush path mutates, under one lock.
    io: Mutex<(HashMap<HostId, HostBuf>, Link)>,
    dial: Box<Dial>,
    /// Time since the uplink was made; connect due times are read off it.
    clock: Box<dyn Fn() -> Duration + Send + Sync>,
    /// The socket under the connection: [`LeafCollector::kill`] severs it
    /// without waiting on the io lock, a graceful finish half-closes it.
    socket: Arc<Mutex<Option<TcpStream>>>,
    root_addr: SocketAddr,
    config: LeafConfig,
    killed: AtomicBool,
    stats: Mutex<LeafStats>,
}

impl Uplink {
    /// An uplink to the root at `root_addr`, not yet connected.
    fn new(root_addr: SocketAddr, config: LeafConfig) -> Uplink {
        let socket = Arc::new(Mutex::new(None));
        let handle = socket.clone();
        let dial = move |hello: &Hello| {
            let (stream, ack) = dial(root_addr, hello, WRITE_TIMEOUT, READ_TIMEOUT)?;
            *handle.lock() = stream.try_clone().ok();
            Ok((Box::new(stream) as Conn, ack))
        };
        let made = Instant::now();
        let backoff = BackoffConfig {
            seed: config.backoff.seed ^ config.id.0 as u64,
            ..config.backoff.clone()
        };
        let out = Outbound::new(HostId(config.id.0), backoff);
        Uplink {
            io: Mutex::new((HashMap::new(), Link { out, conn: None })),
            dial: Box::new(dial),
            clock: Box::new(move || made.elapsed()),
            socket,
            root_addr,
            config,
            killed: AtomicBool::new(false),
            stats: Mutex::default(),
        }
    }

    /// Frame the host's pending digest, if any, and send it. The frame is
    /// encoded — and the global position advanced — **whether or not**
    /// the write succeeds: an undeliverable digest must become a visible
    /// gap at the root, not a silent renumbering.
    fn flush_host(&self, buf: &mut HostBuf, link: &mut Link) {
        buf.taken = 0;
        if !buf.pending.is_empty() {
            self.send_pending(buf, link);
        }
    }

    /// Frame what is pending in the host's numbering, whatever it holds,
    /// and offer it to the root.
    fn send_pending(&self, buf: &mut HostBuf, link: &mut Link) {
        link.out.outbox.frame(&mut buf.sender, &buf.pending);
        buf.pending.clear();
        self.deliver(link);
    }

    /// Offer the frames in the outbox to the root, now: at most one
    /// connect, and only when one is due. Frames that find no connection,
    /// or are queued behind one a failed write cut, are abandoned.
    fn deliver(&self, Link { out, conn }: &mut Link) {
        let lost_before = out.counts().synopses_wire_lost;
        let killed = || self.killed.load(Ordering::SeqCst);
        let now = &self.clock;
        if !killed() && conn.is_none() && out.connect_due().is_some_and(|due| due <= now()) {
            // The leaf's own identity and no resume point: each uplink
            // connection is a fresh framing context at the root, loss
            // accounting rides in the digests' global coordinates. Uplinks
            // are addressed by deployment, not by ring lookup.
            let hello = Hello {
                version: PROTOCOL_VERSION,
                host: HostId(self.config.id.0),
                next_seq: 0,
                sent_cum: 0,
                written_cum: 0,
                epoch: PINNED_EPOCH,
                role: PeerRole::Leaf,
            };
            *conn = out.dialed(self.root_addr, (self.dial)(&hello), now());
        }
        if let (false, Some(root)) = (killed(), conn.as_mut()) {
            if !out.flush(root) {
                *conn = None;
            }
        }
        if conn.is_none() {
            *self.socket.lock() = None;
        }
        let (counts, mut stats) = (out.counts(), self.stats.lock());
        stats.uplink_connects = counts.connects;
        stats.digests_sent = counts.frames_written;
        stats.digest_synopses = counts.synopses_written;
        // Lost: the frame a failed write cut, and the frames given up on
        // without a write.
        let cut = counts.synopses_wire_lost - lost_before;
        stats.uplink_wire_lost += cut + out.outbox.abandon();
    }

    /// Interval flush (on the collector's loop 0): push out every pending
    /// digest.
    fn tick(&self) {
        if self.killed.load(Ordering::SeqCst) {
            return;
        }
        let (hosts, link) = &mut *self.io.lock();
        for buf in hosts.values_mut() {
            self.flush_host(buf, link);
        }
    }

    /// Graceful finish: flush everything, then send a per-host empty
    /// goodbye frame so the root learns each host's final stream
    /// position — revealing any trailing gap — and half-close. A link
    /// that is down gets one connect for it, due or not.
    fn finish(&self) {
        let (hosts, link) = &mut *self.io.lock();
        link.out.close();
        for buf in hosts.values_mut() {
            self.flush_host(buf, link);
            // Nothing is pending: an empty frame at the final position.
            self.send_pending(buf, link);
        }
        link.conn = None;
        if let Some(socket) = self.socket.lock().take() {
            let _ = socket.shutdown(Shutdown::Write);
        }
    }

    /// Crash-stop: discard pending digests and sever the uplink. The
    /// point of the exercise — everything undelivered must surface at
    /// the root as an exactly-accounted gap, with no goodbye.
    fn kill(&self) {
        self.killed.store(true, Ordering::SeqCst);
        if let Some(socket) = self.socket.lock().take() {
            let _ = socket.shutdown(Shutdown::Both);
        }
    }

    fn stats(&self) -> LeafStats {
        *self.stats.lock()
    }
}

impl AdmittedSink for Uplink {
    fn on_fresh(
        &self,
        host: HostId,
        synopses: &CheckedPayload<'_>,
        _newly_lost: u64,
        stream_pos_end: u64,
    ) {
        if self.killed.load(Ordering::SeqCst) {
            return;
        }
        let n = synopses.starts().len();
        let start = stream_pos_end - n as u64;
        let window_us = self.config.window.as_micros().max(1) as u64;
        let (hosts, link) = &mut *self.io.lock();
        let buf = hosts.entry(host).or_insert_with(|| HostBuf {
            sender: FrameSender::new(host),
            pending: FramePayload::new(),
            window_idx: 0,
            taken: 0,
        });
        let pos = buf.sender.synopses_sent() + buf.pending.synopses();
        if start > pos {
            // Agent-link gap (or a stretch another leaf handled while
            // this host was homed elsewhere): flush what we have at its
            // own position, then jump forward so the next frame's
            // cumulative count tells the root exactly what is missing.
            self.flush_host(buf, link);
            let jump = start - buf.sender.synopses_sent();
            buf.sender.skip(jump);
            self.stats.lock().skipped_synopses += jump;
        } else if start < pos {
            // Behind our forwarded position: an agent restarted from
            // zero. Forwarding would double-count at the root; drop and
            // account.
            self.stats.lock().late_dropped += n as u64;
            return;
        }
        for (i, at) in synopses.starts().enumerate() {
            let w = at.as_micros() / window_us;
            if w != buf.window_idx {
                // Stage-window edge: digests never mix windows.
                self.flush_host(buf, link);
                buf.window_idx = w;
            }
            if !buf.pending.push_checked(synopses, i) {
                // Past the payload bound: what is pending goes out as a
                // frame of its own, and the digest carries on in the next.
                self.send_pending(buf, link);
                let pushed = buf.pending.push_checked(synopses, i);
                debug_assert!(pushed, "an empty payload takes any synopsis");
            }
            buf.taken += 1;
            if buf.taken >= self.config.max_digest {
                self.flush_host(buf, link);
            }
        }
    }
}

/// A running leaf: an agent-facing [`ReactorCollector`] whose admitted
/// frames feed an upstream digest uplink, flushed every flush interval on
/// the collector's loop 0.
pub struct LeafCollector {
    id: LeafId,
    collector: Option<ReactorCollector>,
    uplink: Arc<Uplink>,
    control: Option<ControlPlane>,
    local_addr: SocketAddr,
}

impl LeafCollector {
    /// Bind the agent-facing side on `bind_addr` and forward digests to
    /// the root at `root_addr`, flushing what is pending every flush
    /// interval. When a control plane is given, the leaf enforces its
    /// ring epoch and registers in it, publishing a grown ring.
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
        let uplink = Arc::new(Uplink::new(root_addr, config.clone()));
        let sink: Arc<dyn AdmittedSink> = uplink.clone();
        let flush = {
            let uplink = uplink.clone();
            (config.flush_interval, Box::new(move || uplink.tick()) as _)
        };
        let epoch = control.as_ref().map(ControlPlane::epoch_handle);
        let collector =
            ReactorCollector::bind_forward(bind_addr, sink, config.collector, epoch, flush)?;
        let local_addr = collector.local_addr();
        if let Some(cp) = &control {
            cp.register_leaf(id, local_addr);
        }
        Ok(LeafCollector {
            id,
            collector: Some(collector),
            uplink,
            control,
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
    pub fn collector_stats(&self) -> CollectorStats {
        self.collector
            .as_ref()
            .map(|c| c.stats())
            .unwrap_or_default()
    }

    /// Expose forwarding counters in `registry`, labelled by leaf id, and
    /// the agent-facing collector like any other: its totals (stale-epoch
    /// rejects, corrupted and duplicate frames, agent-link loss) as
    /// `saad_collector_*{leaf="<id>"}`, its loops' readiness health as
    /// `saad_reactor_*{leaf="<id>", loop="<idx>"}`.
    pub fn register_metrics(&self, registry: &saad_obs::Registry) {
        let leaf_label = self.id.0.to_string();
        let labels = [("leaf", leaf_label.as_str())];
        if let Some(c) = &self.collector {
            c.register_labelled(registry, &labels);
        }
        let counter = |f: fn(&LeafStats) -> u64| {
            let uplink = Arc::downgrade(&self.uplink);
            move || uplink.upgrade().map_or(0, |u| f(&u.stats()))
        };
        registry.register_counter_fn(
            "saad_leaf_digests_sent_total",
            "Digest frames written upstream (goodbye frames included)",
            &labels,
            counter(|s| s.digests_sent),
        );
        registry.register_counter_fn(
            "saad_leaf_digest_synopses_total",
            "Synopses carried by upstream digests",
            &labels,
            counter(|s| s.digest_synopses),
        );
        registry.register_counter_fn(
            "saad_leaf_uplink_wire_lost_total",
            "Synopses in digests that could not be written upstream",
            &labels,
            counter(|s| s.uplink_wire_lost),
        );
        registry.register_counter_fn(
            "saad_leaf_skipped_synopses_total",
            "Synopses skipped to forward agent-link gaps upstream",
            &labels,
            counter(|s| s.skipped_synopses),
        );
        registry.register_counter_fn(
            "saad_leaf_late_dropped_total",
            "Synopses dropped for arriving behind the forwarded position",
            &labels,
            counter(|s| s.late_dropped),
        );
        registry.register_counter_fn(
            "saad_leaf_uplink_connects_total",
            "Successful uplink connection + handshake completions",
            &labels,
            counter(|s| s.uplink_connects),
        );
    }

    /// Graceful drain: deregister from the control plane (agents start
    /// re-homing at once), stop the agent-facing collector, flush every
    /// pending digest, and say goodbye per host so the root sees final
    /// positions. Returns the final forwarding counters.
    pub fn shutdown(mut self) -> LeafStats {
        if let Some(cp) = self.control.take() {
            cp.deregister_leaf(self.id);
        }
        if let Some(c) = self.collector.take() {
            // Joins the loops; their in-flight on_fresh calls finish
            // before this returns, so the final flush below sees a
            // settled buffer.
            let _ = c.shutdown();
        }
        self.uplink.finish();
        self.uplink.stats()
    }

    /// Crash-stop for fault injection: sever the uplink and discard
    /// pending digests **without** telling the control plane, exactly as
    /// a real process death would; whoever sees it calls
    /// [`ControlPlane::mark_dead`]. Returns the final forwarding counters.
    pub fn kill(mut self) -> LeafStats {
        self.control = None;
        // Kill the uplink before stopping the loops so any racing flush
        // fails fast instead of delivering a post-mortem digest.
        self.uplink.kill();
        if let Some(c) = self.collector.take() {
            let _ = c.shutdown();
        }
        self.uplink.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outbound::testkit::{ack, messages, task};
    use crate::protocol::RejectReason;
    use proptest::prelude::*;
    use saad_core::synopsis::TaskSynopsis;
    use saad_core::testkit::{parse_frame, FrameOutcome, ParsedFrame};
    use saad_core::transport::{check_frame, FrameReceiver, MAX_FRAME_PAYLOAD};
    use saad_core::LogPointId;
    use saad_sim::SimTime;
    use std::collections::VecDeque;
    use std::sync::atomic::AtomicU64;

    /// A root that is a byte vector: what every dial is answered with
    /// (an accepting ack once `answers` runs out), whether writes
    /// currently fail, every byte accepted, the hellos received and the
    /// time the uplink reads.
    #[derive(Default)]
    struct Root {
        answers: Mutex<VecDeque<io::Result<HelloAck>>>,
        writes_fail: AtomicBool,
        wire: Mutex<Vec<u8>>,
        hellos: Mutex<Vec<Hello>>,
        now_us: AtomicU64,
    }

    struct RootConn(Arc<Root>);

    impl Write for RootConn {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.0.writes_fail.load(Ordering::SeqCst) {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
            self.0.wire.lock().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Root {
        /// The digest frames that arrived whole, in order.
        fn digests(&self) -> Vec<ParsedFrame> {
            let wire = self.wire.lock();
            let frames = messages(&wire).into_iter().map(parse_frame);
            frames.map(|f| f.expect("a valid frame")).collect()
        }

        fn dials(&self) -> usize {
            self.hellos.lock().len()
        }
    }

    fn rig(config: LeafConfig) -> (Uplink, Arc<Root>) {
        let root = Arc::new(Root::default());
        let (dialed, clock) = (root.clone(), root.clone());
        let dial = move |hello: &Hello| {
            dialed.hellos.lock().push(*hello);
            let answer = dialed.answers.lock().pop_front();
            let ack = answer.unwrap_or(Ok(ack(RejectReason::None)))?;
            Ok((Box::new(RootConn(dialed.clone())) as Conn, ack))
        };
        let out = Outbound::new(HostId(config.id.0), config.backoff.clone());
        let uplink = Uplink {
            io: Mutex::new((HashMap::new(), Link { out, conn: None })),
            dial: Box::new(dial),
            clock: Box::new(move || Duration::from_micros(clock.now_us.load(Ordering::SeqCst))),
            socket: Arc::default(),
            root_addr: SocketAddr::from(([127, 0, 0, 1], 9)),
            config,
            killed: AtomicBool::new(false),
            stats: Mutex::default(),
        };
        (uplink, root)
    }

    /// `n` synopses of `host` from uid `first`, starting in stream-time
    /// minute `minute`.
    fn tasks(host: u16, first: u64, n: u64, minute: u64) -> Vec<TaskSynopsis> {
        let at = |uid| SimTime::from_millis(minute * 60_000 + uid);
        (first..first + n)
            .map(|uid| TaskSynopsis {
                start: at(uid),
                ..task(host, uid, (uid % 4) as usize)
            })
            .collect()
    }

    /// Admit one agent frame whose last synopsis sits at stream position
    /// `end`: encoded, then checked and parsed as a collector does.
    fn admit(uplink: &Uplink, synopses: Vec<TaskSynopsis>, end: u64) {
        let host = synopses[0].host;
        let frame = FrameSender::new(host).encode_frame(&synopses);
        let (_, payload) = check_frame(&frame).expect("a valid frame");
        let mut marks = Vec::new();
        let checked = CheckedPayload::parse(payload, &mut marks).expect("a valid payload");
        uplink.on_fresh(host, &checked, 0, end);
    }

    /// (sequence number, stream position, uids) of each digest.
    fn shapes(digests: &[ParsedFrame]) -> Vec<(u64, u64, Vec<u64>)> {
        let uids = |f: &ParsedFrame| f.synopses.iter().map(|s| s.uid.0).collect();
        digests
            .iter()
            .map(|f| (f.seq, f.cumulative, uids(f)))
            .collect()
    }

    #[test]
    fn digests_are_cut_on_the_size_cap_a_window_edge_and_the_timer() {
        let config = LeafConfig {
            id: LeafId(3),
            max_digest: 3,
            ..LeafConfig::default()
        };
        let (uplink, root) = rig(config);
        admit(&uplink, tasks(7, 0, 2, 0), 2);
        assert!(root.digests().is_empty(), "two pending, nothing to cut on");
        // The third fills the digest; the fourth opens minute 1.
        admit(&uplink, [tasks(7, 2, 1, 0), tasks(7, 3, 1, 1)].concat(), 4);
        assert_eq!(shapes(&root.digests()), [(0, 0, vec![0, 1, 2])]);
        // Minute 2 arrives: minute 1's two go out short of the cap.
        admit(&uplink, [tasks(7, 4, 1, 1), tasks(7, 5, 1, 2)].concat(), 6);
        assert_eq!(shapes(&root.digests())[1..], [(1, 3, vec![3, 4])]);
        // The timer takes the straggler, once.
        uplink.tick();
        uplink.tick();
        assert_eq!(shapes(&root.digests())[2..], [(2, 5, vec![5])]);

        let hellos = root.hellos.lock().clone();
        assert_eq!(hellos.len(), 1, "one connect carried them all");
        let hello = hellos[0];
        assert_eq!((hello.host, hello.role), (HostId(3), PeerRole::Leaf));
        assert_eq!(
            (hello.next_seq, hello.sent_cum, hello.written_cum),
            (0, 0, 0)
        );
        assert_eq!(
            (hello.version, hello.epoch),
            (PROTOCOL_VERSION, PINNED_EPOCH)
        );
        let stats = uplink.stats();
        let sent = LeafStats {
            digests_sent: 3,
            digest_synopses: 6,
            uplink_connects: 1,
            ..LeafStats::default()
        };
        assert_eq!(stats, sent);
    }

    #[test]
    fn an_agent_link_gap_is_skipped_and_a_restart_from_zero_is_dropped() {
        let (uplink, root) = rig(LeafConfig::default());
        admit(&uplink, tasks(7, 0, 2, 0), 2);
        // Positions 2..5 never reached this leaf.
        admit(&uplink, tasks(7, 5, 2, 0), 7);
        uplink.tick();
        assert_eq!(
            shapes(&root.digests()),
            [(0, 0, vec![0, 1]), (1, 5, vec![5, 6])],
            "what was pending goes out at its own position before the jump"
        );
        // An agent that starts over is behind what was forwarded.
        admit(&uplink, tasks(7, 0, 3, 0), 3);
        uplink.tick();
        assert_eq!(root.digests().len(), 2);
        let stats = uplink.stats();
        assert_eq!((stats.skipped_synopses, stats.late_dropped), (3, 3));
        assert_eq!((stats.digest_synopses, stats.uplink_wire_lost), (4, 0));
        // The root's own arithmetic finds the gap.
        let mut rx = FrameReceiver::new();
        let lost: u64 = root
            .digests()
            .into_iter()
            .map(|f| newly_lost(&mut rx, f))
            .sum();
        assert_eq!(lost, 3);
    }

    fn newly_lost(rx: &mut FrameReceiver, frame: ParsedFrame) -> u64 {
        match rx.admit(frame) {
            FrameOutcome::Fresh { newly_lost, .. } => newly_lost,
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn finish_says_one_goodbye_per_host_and_kill_says_nothing_further() {
        let (uplink, root) = rig(LeafConfig::default());
        admit(&uplink, tasks(7, 0, 2, 0), 2);
        admit(&uplink, tasks(8, 0, 3, 0), 3);
        uplink.tick();
        admit(&uplink, tasks(7, 2, 1, 0), 3);
        uplink.finish();
        // Per host: what was pending, then an empty frame at the final
        // position.
        let mut by_host: HashMap<u16, Vec<(u64, usize)>> = HashMap::new();
        for f in root.digests() {
            let digest = (f.cumulative, f.synopses.len());
            by_host.entry(f.host.0).or_default().push(digest);
        }
        assert_eq!(by_host[&7], [(0, 2), (2, 1), (3, 0)]);
        assert_eq!(by_host[&8], [(0, 3), (3, 0)]);
        assert_eq!(uplink.stats().digests_sent, 5);
        assert_eq!(root.dials(), 1);

        let (uplink, root) = rig(LeafConfig::default());
        admit(&uplink, tasks(7, 0, 2, 0), 2);
        uplink.tick();
        admit(&uplink, tasks(7, 2, 2, 0), 4);
        uplink.kill();
        admit(&uplink, tasks(7, 4, 2, 0), 6);
        uplink.tick();
        assert_eq!(shapes(&root.digests()), [(0, 0, vec![0, 1])]);
        assert_eq!(root.dials(), 1);
        let stats = uplink.stats();
        assert_eq!((stats.digests_sent, stats.uplink_wire_lost), (1, 0));
        // A flush that raced the kill is counted, not written.
        let (hosts, link) = &mut *uplink.io.lock();
        uplink.flush_host(hosts.get_mut(&HostId(7)).unwrap(), link);
        assert_eq!(root.digests().len(), 1);
        assert_eq!(uplink.stats().uplink_wire_lost, 2);
    }

    /// A leaf that shuts down inside its back-off window still gets one
    /// connect: the pending digest and the goodbyes go out, and the
    /// goodbye's position reveals exactly what the uplink lost.
    #[test]
    fn a_leaf_closing_inside_its_back_off_window_still_says_goodbye() {
        let (uplink, root) = rig(LeafConfig::default());
        // A digest is written…
        admit(&uplink, tasks(7, 0, 2, 0), 2);
        uplink.tick();
        // …the next one's write fails…
        root.writes_fail.store(true, Ordering::SeqCst);
        admit(&uplink, tasks(7, 2, 3, 0), 5);
        uplink.tick();
        root.writes_fail.store(false, Ordering::SeqCst);
        // …and the reconnect that is due at once fails too: the digest
        // that wanted it is abandoned, the next connect is a back-off
        // delay away, and until then nothing dials.
        root.answers
            .lock()
            .push_back(Err(io::ErrorKind::ConnectionRefused.into()));
        admit(&uplink, tasks(7, 5, 1, 0), 6);
        uplink.tick();
        assert_eq!(root.dials(), 2);
        admit(&uplink, tasks(7, 6, 1, 0), 7);
        uplink.tick();
        assert_eq!(root.dials(), 2, "backed off");
        assert_eq!(uplink.stats().uplink_wire_lost, 3 + 1 + 1);
        let due = uplink.io.lock().1.out.connect_due().expect("down");

        // Shutdown, a microsecond later — well inside the delay.
        root.now_us.store(1, Ordering::SeqCst);
        assert!(Duration::from_micros(1) < due);
        admit(&uplink, tasks(7, 7, 4, 0), 11);
        uplink.finish();
        assert_eq!(
            root.dials(),
            3,
            "closing: one connect, whatever the schedule"
        );
        assert_eq!(
            shapes(&root.digests()),
            [
                (0, 0, vec![0, 1]),
                (4, 7, vec![7, 8, 9, 10]),
                (5, 11, vec![]),
            ]
        );
        let stats = uplink.stats();
        assert_eq!((stats.digest_synopses, stats.uplink_wire_lost), (6, 5));
        assert_eq!(stats.uplink_connects, 2);
        // At the root: delivered + lost = sent, the loss exactly the
        // digests the uplink could not write.
        let mut rx = FrameReceiver::new();
        let lost: u64 = root
            .digests()
            .into_iter()
            .map(|f| newly_lost(&mut rx, f))
            .sum();
        assert_eq!(lost, stats.uplink_wire_lost);
        let link = rx.stats(HostId(7));
        assert_eq!(link.delivered_synopses + link.lost_synopses, 11);
    }

    /// What a leaf should make of one host's stream, kept the plain way:
    /// owned synopses cut on the same boundaries, framed by
    /// `FrameSender::encode_frame`.
    struct Digests {
        sender: FrameSender,
        pending: Vec<TaskSynopsis>,
        window: u64,
        frames: Vec<Vec<u8>>,
    }

    impl Digests {
        fn new(host: HostId) -> Digests {
            Digests {
                sender: FrameSender::new(host),
                pending: Vec::new(),
                window: 0,
                frames: Vec::new(),
            }
        }

        fn flush(&mut self) {
            if !self.pending.is_empty() {
                let frame = self.sender.encode_frame(&self.pending);
                self.frames.push(frame.to_vec());
                self.pending.clear();
            }
        }

        fn admit(&mut self, synopses: &[TaskSynopsis], end: u64, config: &LeafConfig) {
            let start = end - synopses.len() as u64;
            let pos = self.sender.synopses_sent() + self.pending.len() as u64;
            if start < pos {
                return;
            }
            if start > pos {
                self.flush();
                self.sender.skip(start - pos);
            }
            for s in synopses {
                let window = s.start.as_micros() / config.window.as_micros() as u64;
                if window != self.window {
                    self.flush();
                    self.window = window;
                }
                self.pending.push(s.clone());
                if self.pending.len() >= config.max_digest {
                    self.flush();
                }
            }
        }
    }

    /// The uplink's frames, per host, in the order written.
    fn frames_by_host(root: &Root) -> HashMap<HostId, Vec<Vec<u8>>> {
        let mut by_host: HashMap<HostId, Vec<Vec<u8>>> = HashMap::new();
        for frame in messages(&root.wire.lock()) {
            let host = HostId(u16::from_be_bytes([frame[0], frame[1]]));
            by_host.entry(host).or_default().push(frame.to_vec());
        }
        by_host
    }

    proptest! {
        /// A leaf forwards the bytes it was sent: over 1–4 hosts, window
        /// edges inside and between agent frames, the size cap, agent-link
        /// gaps, agents restarting from zero, the timer and the goodbyes,
        /// each host's uplink frames are the frames a plain sender makes
        /// of the same synopses at the same cuts — same bytes, sequence
        /// numbers and cumulative counts.
        #[test]
        fn a_leaf_forwards_the_bytes_it_was_sent(
            hosts in 1u16..5,
            max_digest in 1usize..7,
            ops in proptest::collection::vec((0u8..10, 0u16..4, 1u64..7, 0u64..3), 1..60),
        ) {
            let config = LeafConfig {
                max_digest,
                ..LeafConfig::default()
            };
            let (uplink, root) = rig(config.clone());
            let mut want: HashMap<HostId, Digests> = HashMap::new();
            let (mut agent_pos, mut uid) = ([0u64; 4], 0u64);
            for (op, h, n, minute) in ops {
                let h = h % hosts;
                let host = HostId(7 + h);
                let pos = &mut agent_pos[h as usize];
                match op {
                    0 => {
                        uplink.tick();
                        want.values_mut().for_each(Digests::flush);
                        continue;
                    }
                    1 => *pos += n, // positions that never reach the leaf
                    2 => *pos = 0,  // the agent starts over
                    _ => {}
                }
                let synopses: Vec<TaskSynopsis> = (0..n)
                    .map(|_| {
                        uid += 1;
                        let minute = minute + u64::from(uid % 7 == 0);
                        TaskSynopsis {
                            start: SimTime::from_millis(minute * 60_000 + uid),
                            ..task(host.0, uid, (uid % 5) as usize)
                        }
                    })
                    .collect();
                *pos += n;
                admit(&uplink, synopses.clone(), *pos);
                let digests = want.entry(host).or_insert_with(|| Digests::new(host));
                digests.admit(&synopses, *pos, &config);
            }
            uplink.finish();
            for digests in want.values_mut() {
                digests.flush();
                let goodbye = digests.sender.encode_frame(&[]);
                digests.frames.push(goodbye.to_vec());
            }
            let want: HashMap<HostId, Vec<Vec<u8>>> =
                want.into_iter().map(|(host, d)| (host, d.frames)).collect();
            prop_assert_eq!(frames_by_host(&root), want);
            prop_assert_eq!(uplink.stats().uplink_wire_lost, 0);
        }
    }

    /// A digest whose synopses encode past the payload bound goes out in
    /// frames cut as `FramePayload` cuts them, and the size cap still
    /// counts every synopsis of the digest: the frames a plain sender
    /// makes of the greedy pieces of each capped digest.
    #[test]
    fn a_digest_past_the_payload_bound_is_cut_into_frames_within_it() {
        // ~60 KB a synopsis: about 280 fit under the bound.
        let heavy: Vec<TaskSynopsis> = (0..300u64)
            .map(|uid| TaskSynopsis {
                log_points: (0..10_000u16)
                    .map(|p| (LogPointId(p), u32::MAX - p as u32))
                    .collect(),
                ..task(7, uid, 0)
            })
            .collect();
        let ends = heavy.iter().scan(0, |end, s| {
            *end += saad_core::codec::encode(s).len();
            Some(*end)
        });
        let fit = ends.take_while(|&end| end <= MAX_FRAME_PAYLOAD).count();
        let cap = fit + 10;
        assert!(cap < heavy.len());
        let config = LeafConfig {
            max_digest: cap,
            ..LeafConfig::default()
        };
        let (uplink, root) = rig(config);
        admit(&uplink, heavy[..150].to_vec(), 150);
        admit(&uplink, heavy[150..].to_vec(), 300);
        uplink.tick();
        let mut plain = FrameSender::new(HostId(7));
        let want: Vec<Vec<u8>> = [&heavy[..fit], &heavy[fit..cap], &heavy[cap..]]
            .iter()
            .map(|piece| plain.encode_frame(piece).to_vec())
            .collect();
        assert_eq!(frames_by_host(&root)[&HostId(7)], want);
    }
}
