//! The readiness-driven collector: thousands of agent connections
//! multiplexed over a few [`saad_reactor`] event-loop threads.
//!
//! This is the readiness driver of the one receive path. What the bytes
//! mean is not decided here: every connection is a
//! [`Session`] driving the shared
//! `Ingest` core, exactly as under the thread-per-connection
//! [`Collector`](crate::Collector) — same handshake, same framing, same
//! [`FrameReceiver`](saad_core::transport::FrameReceiver) sequencing, same
//! batch/loss-report feed. This file owns only the execution model: each
//! accepted connection is assigned round-robin to one of `loops`
//! event-loop threads and never migrates; vectored reads land directly in
//! the session's ring when the kernel reports the socket ready, the
//! session is drained, pending ack bytes are flushed, and per-loop
//! readiness health is exported.
//!
//! Backpressure is unchanged from the threaded collector: the batch
//! channel send blocks the loop thread when the analyzer falls behind,
//! which stops reads on every connection of that loop and lets TCP flow
//! control push back to the agents.
//!
//! See DESIGN.md §16 for the architecture and buffer-ownership rules.

use crate::collector::{CollectorState, CollectorStats};
use crate::ingest::{register_series, Ingest, IngestLink, SynopsisOut};
use crate::protocol::PROTOCOL_VERSION;
use crate::session::Session;
use crossbeam_channel::Sender;
use parking_lot::Mutex;
use saad_core::batch::SynopsisBatch;
use saad_core::intern::SignatureInterner;
use saad_core::transport::{LinkStats, LossReport};
use saad_core::HostId;
use saad_reactor::{Backend, EventLoop, Interest, Token, Waker, WAKE_TOKEN};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Token of the accept listener (event loop 0 only).
const LISTENER: Token = Token(0);
/// Token of the per-loop heartbeat timer (shutdown safety net).
const TICK: Token = Token(1);
/// First token handed to a connection.
const FIRST_CONN: u64 = 2;

/// Tuning for a [`ReactorCollector`].
#[derive(Debug, Clone)]
pub struct ReactorCollectorConfig {
    /// Event-loop threads. Connections are assigned round-robin at
    /// accept and never migrate.
    pub loops: usize,
    /// Protocol version this collector accepts (normally
    /// [`PROTOCOL_VERSION`]).
    pub version: u16,
    /// Live control-plane epoch to enforce (see
    /// [`CollectorConfig::epoch`](crate::CollectorConfig)).
    pub epoch: Option<Arc<AtomicU64>>,
    /// Heartbeat timer bounding how long a loop sleeps without checking
    /// the shutdown flag (wakes normally make shutdown prompt; this is
    /// the safety net).
    pub tick: Duration,
    /// Initial per-connection ring-buffer capacity in bytes. A full ring
    /// is drained, not grown; it grows only for a single message larger
    /// than itself, up to the largest legal message.
    pub initial_ring: usize,
    /// Readiness backend override (`None` = best available). Forcing
    /// [`Backend::Poll`] exercises the fallback path on Linux.
    pub backend: Option<Backend>,
    /// Kernel receive-buffer clamp applied to every accepted connection
    /// (`None` leaves the OS default and its autotuning); see
    /// [`CollectorConfig::recv_buffer`](crate::CollectorConfig).
    pub recv_buffer: Option<usize>,
}

impl Default for ReactorCollectorConfig {
    fn default() -> ReactorCollectorConfig {
        ReactorCollectorConfig {
            loops: 2,
            version: PROTOCOL_VERSION,
            epoch: None,
            tick: Duration::from_millis(50),
            initial_ring: 16 * 1024,
            backend: None,
            recv_buffer: None,
        }
    }
}

/// Per-loop observability counters, exported as `saad_reactor_*` series.
#[derive(Debug, Default)]
pub(crate) struct LoopMetrics {
    pub(crate) polls: AtomicU64,
    pub(crate) spurious_polls: AtomicU64,
    pub(crate) wakeups: AtomicU64,
    pub(crate) read_bytes: AtomicU64,
    pub(crate) decode_stalls: AtomicU64,
    pub(crate) registered_fds: AtomicU64,
    pub(crate) connections: AtomicU64,
}

struct RShared {
    ingest: Arc<Ingest>,
    shutdown: AtomicBool,
    config: ReactorCollectorConfig,
    loop_metrics: Vec<LoopMetrics>,
    /// Connections accepted on loop 0 awaiting adoption by their target
    /// loop, which is nudged via its waker.
    inject: Vec<Mutex<Vec<Conn>>>,
    wakers: Vec<Waker>,
    conn_seq: AtomicU64,
}

/// A running readiness-driven collector. Call
/// [`ReactorCollector::shutdown`] for a clean stop and to recover the
/// link state for a successor.
pub struct ReactorCollector {
    local_addr: SocketAddr,
    shared: Arc<RShared>,
    joins: Vec<JoinHandle<()>>,
}

impl ReactorCollector {
    /// Bind a fresh reactor collector (empty link state) on `addr`,
    /// feeding [`SynopsisBatch`]es interned into `interner` — the consuming
    /// pool's — straight from the ring: no intermediate `Vec<TaskSynopsis>`.
    ///
    /// # Errors
    ///
    /// Propagates bind, event-loop, or waker creation failure.
    pub fn bind_soa<A: ToSocketAddrs>(
        addr: A,
        batch_tx: Sender<SynopsisBatch>,
        interner: Arc<SignatureInterner>,
        loss_tx: Sender<LossReport>,
        config: ReactorCollectorConfig,
    ) -> io::Result<ReactorCollector> {
        let (listener, state) = (TcpListener::bind(addr)?, CollectorState::default());
        ReactorCollector::serve_soa(listener, state, batch_tx, interner, loss_tx, config)
    }

    /// [`ReactorCollector::bind_soa`] on an already-bound listener,
    /// adopting carried-over `state` (see
    /// [`Collector::serve_soa`](crate::Collector::serve_soa)).
    ///
    /// # Errors
    ///
    /// Propagates event-loop or waker creation failure.
    pub fn serve_soa(
        listener: TcpListener,
        state: CollectorState,
        batch_tx: Sender<SynopsisBatch>,
        interner: Arc<SignatureInterner>,
        loss_tx: Sender<LossReport>,
        config: ReactorCollectorConfig,
    ) -> io::Result<ReactorCollector> {
        let out = SynopsisOut::Soa {
            tx: batch_tx,
            interner,
            loss_tx,
        };
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let nloops = config.loops.max(1);
        // Build every event loop up front so all wakers exist before any
        // loop starts accepting (loop 0 needs peers' wakers to hand off
        // connections).
        let mut els = Vec::with_capacity(nloops);
        let mut wakers = Vec::with_capacity(nloops);
        for _ in 0..nloops {
            let el = match config.backend {
                Some(b) => EventLoop::with_backend(b)?,
                None => EventLoop::new()?,
            };
            wakers.push(el.waker()?);
            els.push(el);
        }
        let shared = Arc::new(RShared {
            ingest: Ingest::new(state.receiver, out, config.version, config.epoch.clone()),
            shutdown: AtomicBool::new(false),
            config,
            loop_metrics: (0..nloops).map(|_| LoopMetrics::default()).collect(),
            inject: (0..nloops).map(|_| Mutex::new(Vec::new())).collect(),
            wakers,
            conn_seq: AtomicU64::new(0),
        });
        let mut listener = Some(listener);
        let joins = els
            .into_iter()
            .enumerate()
            .map(|(idx, el)| {
                let loop_shared = shared.clone();
                let loop_listener = if idx == 0 { listener.take() } else { None };
                std::thread::Builder::new()
                    .name(format!("saad-reactor-{idx}"))
                    .spawn(move || run_loop(idx, el, loop_listener, &loop_shared))
                    .expect("spawn reactor loop")
            })
            .collect();
        Ok(ReactorCollector {
            local_addr,
            shared,
            joins,
        })
    }

    /// The bound address — the actual port when bound with port 0.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Snapshot of collector-wide counters (the threaded collector's
    /// type, so harnesses compare them directly).
    pub fn stats(&self) -> CollectorStats {
        self.shared.ingest.stats()
    }

    /// Link statistics for one host (zeroes if never heard from).
    pub fn link_stats(&self, host: HostId) -> LinkStats {
        self.shared.ingest.link_stats(host)
    }

    /// Expose the collector's counters in `registry`: the collector-wide
    /// totals as `saad_collector_*{backend="reactor"}`, plus per-loop
    /// readiness health (registered fds, wakeups, spurious polls, read
    /// bytes, decode stalls) as `saad_reactor_*{loop="<idx>"}`. All are
    /// scrape-time callbacks over weak references, so a dropped
    /// collector scrapes as zero instead of pinning its channels open.
    pub fn register_metrics(&self, registry: &saad_obs::Registry) {
        self.shared.ingest.register_metrics(registry, "reactor");
        // (name, help, the loop's cell)
        type Series = (&'static str, &'static str, fn(&LoopMetrics) -> &AtomicU64);
        const PER_LOOP: [Series; 7] = [
            (
                "saad_reactor_wakeups_total",
                "Cross-thread wake-token deliveries per event loop",
                |m| &m.wakeups,
            ),
            (
                "saad_reactor_polls_total",
                "Completed readiness polls per event loop",
                |m| &m.polls,
            ),
            (
                "saad_reactor_spurious_polls_total",
                "Polls that delivered no events, per event loop",
                |m| &m.spurious_polls,
            ),
            (
                "saad_reactor_read_bytes_total",
                "Socket bytes landed in connection rings, per event loop",
                |m| &m.read_bytes,
            ),
            (
                "saad_reactor_decode_stalls_total",
                "Drains that ended on a partial message, per event loop",
                |m| &m.decode_stalls,
            ),
            (
                "saad_reactor_registered_fds",
                "Sources currently registered with the loop's poller",
                |m| &m.registered_fds,
            ),
            (
                "saad_reactor_loop_connections",
                "Agent connections currently owned by this event loop",
                |m| &m.connections,
            ),
        ];
        for idx in 0..self.shared.loop_metrics.len() {
            let label = idx.to_string();
            for (name, help, cell) in PER_LOOP {
                let shared = Arc::downgrade(&self.shared);
                let value = move || {
                    shared
                        .upgrade()
                        .map_or(0, |s| cell(&s.loop_metrics[idx]).load(Ordering::Relaxed))
                };
                register_series(registry, name, help, &[("loop", &label)], value);
            }
        }
    }

    /// Stop every loop, close every connection, join the loop threads,
    /// and return the final link state for a successor collector.
    pub fn shutdown(mut self) -> CollectorState {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for waker in &self.shared.wakers {
            waker.wake();
        }
        for join in self.joins.drain(..) {
            let _ = join.join();
        }
        self.shared.ingest.clone().into_state()
    }
}

/// One connection as its loop owns it: the socket, the protocol state
/// and the handler that state drives.
struct Conn {
    stream: TcpStream,
    session: Session,
    link: IngestLink,
    interest: Interest,
}

/// Most bytes one connection lands per readiness event before its loop
/// turns to the others; readiness is level-triggered, so a connection with
/// more to read is reported again.
const READ_BUDGET: usize = 256 * 1024;

/// Read from `source` into the session's ring until it would block or
/// [`READ_BUDGET`] is spent, taking every step the bytes complete. A full
/// ring is drained before it is read into again — never grown — so a peer
/// that out-writes the loop can neither inflate its ring nor starve the
/// loop's other connections. Returns `false` when the connection must
/// close.
fn ingest(
    mut source: impl Read,
    session: &mut Session,
    link: &mut IngestLink,
    metrics: &LoopMetrics,
) -> bool {
    let (mut eof, mut landed) = (false, 0);
    while landed < READ_BUDGET {
        if session.ring_mut().free() == 0 && !session.drain(link) {
            return false;
        }
        let read = source.read_vectored(&mut session.ring_mut().io_slices());
        let n = match read {
            Ok(n) if n > 0 => n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // EOF, or a socket error that amounts to one.
            _ => {
                eof = true;
                break;
            }
        };
        session.ring_mut().commit(n);
        landed += n;
    }
    metrics
        .read_bytes
        .fetch_add(landed as u64, Ordering::Relaxed);
    // Drain even on EOF: complete messages that arrived with the FIN are
    // still valid.
    let framed = session.drain(link);
    if session.mid_message() {
        metrics.decode_stalls.fetch_add(1, Ordering::Relaxed);
    }
    framed && !eof
}

impl Conn {
    /// Write pending ack bytes until done or `WouldBlock`. Returns
    /// `false` on write error.
    fn flush(&mut self) -> bool {
        while !self.session.ack().is_empty() {
            match (&self.stream).write(self.session.ack()) {
                Ok(0) => return false,
                Ok(n) => self.session.ack_written(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    }
}

fn run_loop(idx: usize, mut el: EventLoop, listener: Option<TcpListener>, shared: &RShared) {
    let metrics = &shared.loop_metrics[idx];
    if let Some(l) = &listener {
        el.register(l.as_raw_fd(), LISTENER, Interest::READABLE)
            .expect("register listener");
    }
    el.set_timer_after(shared.config.tick, TICK);
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN;
    let mut events = Vec::new();
    loop {
        events.clear();
        // A failing wait would spin; treat it like shutdown.
        if el.poll(&mut events, None).is_err() || shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        for ev in &events {
            match ev.token {
                WAKE_TOKEN => {
                    let injected = std::mem::take(&mut *shared.inject[idx].lock());
                    for conn in injected {
                        add_conn(&mut el, &mut conns, &mut next_token, conn);
                    }
                }
                TICK => {
                    el.set_timer_after(shared.config.tick, TICK);
                }
                LISTENER => {
                    let l = listener.as_ref().expect("listener events only on loop 0");
                    accept_ready(&mut el, l, &mut conns, &mut next_token, idx, shared);
                }
                token => {
                    let readable = ev.readable || ev.hangup || ev.error;
                    service_conn(&mut el, &mut conns, token, readable, metrics);
                }
            }
        }
        let stats = el.stats();
        metrics.polls.store(stats.polls, Ordering::Relaxed);
        metrics
            .spurious_polls
            .store(stats.spurious_polls, Ordering::Relaxed);
        metrics.wakeups.store(stats.wakeups, Ordering::Relaxed);
        metrics
            .registered_fds
            .store(el.registered() as u64, Ordering::Relaxed);
        metrics
            .connections
            .store(conns.len() as u64, Ordering::Relaxed);
    }
    // Loop exit: dropping the poller and the connections closes their
    // sockets and counts them inactive; zero the gauges.
    metrics.registered_fds.store(0, Ordering::Relaxed);
    metrics.connections.store(0, Ordering::Relaxed);
}

/// Accept every pending connection and dispatch round-robin across
/// loops; remote loops are handed the connection via their inject queue
/// and nudged with a wake.
fn accept_ready(
    el: &mut EventLoop,
    listener: &TcpListener,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    idx: usize,
    shared: &RShared,
) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            return; // `WouldBlock`: the backlog is drained
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let _ = stream.set_nodelay(true);
        if let Some(bytes) = shared.config.recv_buffer {
            let _ = saad_reactor::set_recv_buffer(&stream, bytes);
        }
        let conn = Conn {
            stream,
            session: Session::new(shared.config.initial_ring),
            link: shared.ingest.link(),
            interest: Interest::READABLE,
        };
        let id = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
        let target = (id as usize) % shared.wakers.len();
        if target == idx {
            add_conn(el, conns, next_token, conn);
        } else {
            shared.inject[target].lock().push(conn);
            shared.wakers[target].wake();
        }
    }
}

fn add_conn(el: &mut EventLoop, conns: &mut HashMap<u64, Conn>, next_token: &mut u64, conn: Conn) {
    let token = Token(*next_token);
    *next_token += 1;
    // A connection the poller refuses is dropped, which closes it.
    if el
        .register(conn.stream.as_raw_fd(), token, Interest::READABLE)
        .is_ok()
    {
        conns.insert(token.0, conn);
    }
}

/// Drive one connection for one readiness event: ingest if readable,
/// flush pending ack bytes, adjust interest, close when done.
fn service_conn(
    el: &mut EventLoop,
    conns: &mut HashMap<u64, Conn>,
    token: Token,
    readable: bool,
    metrics: &LoopMetrics,
) {
    let Some(conn) = conns.get_mut(&token.0) else {
        // Already closed earlier in this drain; stale event.
        return;
    };
    let alive = (!readable || ingest(&conn.stream, &mut conn.session, &mut conn.link, metrics))
        && conn.flush();
    let flushed = conn.session.ack().is_empty();
    // A refused peer is closed once its ack is out.
    if alive && !(flushed && conn.session.is_rejected()) {
        let want = if flushed {
            Interest::READABLE
        } else {
            Interest::BOTH
        };
        if want != conn.interest {
            let fd = conn.stream.as_raw_fd();
            if el.reregister(fd, token, want).is_ok() {
                conn.interest = want;
            }
        }
    } else {
        let conn = conns.remove(&token.0).expect("present above");
        let _ = el.deregister(conn.stream.as_raw_fd());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::testkit::{hello_bytes, rig, synopsis};
    use crate::protocol::{write_message, PINNED_EPOCH};
    use saad_core::synopsis::TaskSynopsis;
    use saad_core::transport::FrameSender;

    /// A peer that out-writes the loop: every readiness event finds a
    /// whole slab waiting, then the socket would block.
    struct Slabs<'a> {
        wire: &'a [u8],
        slab_left: usize,
    }

    impl Read for Slabs<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.slab_left == 0 && !self.wire.is_empty() {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.slab_left).min(self.wire.len());
            let (now, later) = self.wire.split_at(n);
            buf[..n].copy_from_slice(now);
            self.wire = later;
            self.slab_left -= n;
            Ok(n)
        }
    }

    #[test]
    fn a_full_ring_is_drained_not_grown() {
        const INITIAL_RING: usize = 16 * 1024;
        const SLAB: usize = 256 * 1024;
        let mut sender = FrameSender::new(HostId(7));
        let mut wire = hello_bytes(2, 7, PINNED_EPOCH);
        let (mut sent, mut largest) = (0u64, 0usize);
        while wire.len() < 8 * 1024 * 1024 {
            let batch: Vec<TaskSynopsis> = (0..32)
                .map(|i| synopsis(7, sent + i, (sent + i) / 100, &[1, 2, 3 + (i % 4) as u16]))
                .collect();
            let body = sender.encode_frame(&batch);
            write_message(&mut wire, &body).unwrap();
            sent += 32;
            largest = largest.max(body.len());
        }

        let rig = rig(2, None, true);
        let (mut session, mut link) = (Session::new(INITIAL_RING), rig.ingest.link());
        let metrics = LoopMetrics::default();
        let bound = INITIAL_RING.max((4 + largest).next_power_of_two());
        let mut source = Slabs {
            wire: &wire,
            slab_left: 0,
        };
        let mut delivered = 0u64;
        while !source.wire.is_empty() {
            source.slab_left = SLAB;
            let more = ingest(&mut source, &mut session, &mut link, &metrics);
            assert_eq!(more, !source.wire.is_empty(), "only EOF closes it");
            let capacity = session.ring_mut().capacity();
            assert!(capacity <= bound, "ring grew to {capacity} (bound {bound})");
            delivered += rig.soa.try_iter().map(|b| b.len() as u64).sum::<u64>();
        }
        assert_eq!(delivered, sent);
        let stats = rig.ingest.stats();
        assert_eq!((stats.synopses, stats.lost_synopses), (sent, 0));
        assert_eq!(
            metrics.read_bytes.load(Ordering::Relaxed),
            wire.len() as u64
        );
    }

    #[test]
    fn one_readiness_event_lands_a_bounded_share_of_an_endless_stream() {
        let mut sender = FrameSender::new(HostId(7));
        let mut wire = hello_bytes(2, 7, PINNED_EPOCH);
        while wire.len() < 4 * READ_BUDGET {
            let batch: Vec<TaskSynopsis> = (0..32).map(|i| synopsis(7, i, i, &[1, 2])).collect();
            write_message(&mut wire, &sender.encode_frame(&batch)).unwrap();
        }
        let rig = rig(2, None, true);
        let (mut session, mut link) = (Session::new(16 * 1024), rig.ingest.link());
        let metrics = LoopMetrics::default();
        // The socket never runs dry, yet the loop gets its turn back.
        let mut source = Slabs {
            wire: &wire,
            slab_left: usize::MAX,
        };
        assert!(ingest(&mut source, &mut session, &mut link, &metrics));
        let landed = wire.len() - source.wire.len();
        assert!((READ_BUDGET..READ_BUDGET + 16 * 1024).contains(&landed));
        assert!(rig.ingest.stats().synopses > 0);
    }
}
