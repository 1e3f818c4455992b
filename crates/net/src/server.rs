//! The readiness driver: a few [`saad_reactor`] event-loop threads moving
//! bytes between thousands of sockets and their [`Session`]s.
//!
//! This is the one receive driver. What the bytes mean is not decided
//! here: every connection is a [`Session`] driving the [`Handler`] that
//! `open` returns for it — the `ingest` core's, under the
//! [`ReactorCollector`](crate::ReactorCollector), the leaf that binds one
//! and the [`RootCollector`](crate::RootCollector) alike. This file owns
//! the execution model: loop 0 accepts (and runs the owner's periodic
//! work, if any, on a deadline timer: a leaf's digest flush), each
//! connection is assigned round-robin to one of `loops` threads and never
//! migrates; vectored reads land directly in the session's ring when the
//! kernel reports the socket ready, the session is drained, pending ack
//! bytes are flushed, and per-loop readiness health is exported.
//!
//! Backpressure is the handler's: a handler that blocks (the batch
//! channel send when the analyzer falls behind, the leaf's uplink write)
//! blocks its loop thread, which stops reads on every connection of that
//! loop and lets TCP flow control push back to the peers.
//!
//! See DESIGN.md §16 for the architecture and buffer-ownership rules.

use crate::ingest::register_series;
use crate::reactor_collector::ReactorCollectorConfig;
use crate::session::{Handler, Session};
use parking_lot::Mutex;
use saad_reactor::{EventLoop, Interest, Token, Waker, WAKE_TOKEN};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Token of the accept listener (event loop 0 only).
const LISTENER: Token = Token(0);
/// Token of the per-loop tick timer (shutdown safety net).
const TICK: Token = Token(1);
/// Token of the periodic work's deadline timer (event loop 0 only).
const PERIODIC: Token = Token(2);
/// First token handed to a connection.
const FIRST_CONN: u64 = 3;
/// Longest a loop sleeps without checking the shutdown flag (wakes make
/// shutdown prompt; this is the safety net).
const TICK_EVERY: Duration = Duration::from_millis(50);
/// A connection ring's first capacity in bytes: it grows only for one
/// message larger than itself (a full ring is drained, not grown).
const INITIAL_RING: usize = 16 * 1024;

/// Per-loop observability counters, exported as `saad_reactor_*` series.
#[derive(Debug, Default)]
struct LoopMetrics {
    polls: AtomicU64,
    spurious_polls: AtomicU64,
    wakeups: AtomicU64,
    read_bytes: AtomicU64,
    decode_stalls: AtomicU64,
    registered_fds: AtomicU64,
    connections: AtomicU64,
}

struct Shared {
    shutdown: AtomicBool,
    /// The driver's share of the config.
    recv_buffer: Option<usize>,
    loop_metrics: Vec<LoopMetrics>,
    /// Sockets accepted on loop 0 awaiting adoption by their target loop,
    /// which is nudged via its waker.
    inject: Vec<Mutex<Vec<TcpStream>>>,
    wakers: Vec<Waker>,
    conn_seq: AtomicU64,
}

/// Work loop 0 runs once every period, between readiness events: what a
/// server's owner must do on time whether or not bytes arrive.
pub(crate) type Periodic = (Duration, Box<dyn FnMut() + Send>);

/// A running readiness-driven server. Dropping it without
/// [`Server::shutdown`] leaves the loop threads running for the process
/// lifetime.
pub(crate) struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    joins: Vec<JoinHandle<()>>,
}

impl Server {
    /// Start `config.loops` event loops named after `name` and accept on
    /// `listener`; every connection gets the handler `open` returns, made
    /// on the loop that owns it. Loop 0 also runs `periodic`, when given.
    pub(crate) fn start<H, F>(
        listener: TcpListener,
        name: &'static str,
        config: &ReactorCollectorConfig,
        open: F,
        mut periodic: Option<Periodic>,
    ) -> io::Result<Server>
    where
        H: Handler + 'static,
        F: Fn() -> H + Clone + Send + 'static,
    {
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let nloops = config.loops.max(1);
        // Build every event loop up front so all wakers exist before any
        // loop starts accepting (loop 0 needs peers' wakers to hand off
        // connections).
        let mut els = Vec::with_capacity(nloops);
        let mut wakers = Vec::with_capacity(nloops);
        for _ in 0..nloops {
            let el = EventLoop::new()?;
            wakers.push(el.waker()?);
            els.push(el);
        }
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            recv_buffer: config.recv_buffer,
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
                let (shared, open) = (shared.clone(), open.clone());
                let listener = if idx == 0 { listener.take() } else { None };
                let periodic = if idx == 0 { periodic.take() } else { None };
                std::thread::Builder::new()
                    .name(format!("{name}-{idx}"))
                    .spawn(move || {
                        let event_loop = Loop {
                            idx,
                            el,
                            shared: &shared,
                            open,
                            conns: HashMap::new(),
                            next_token: FIRST_CONN,
                        };
                        event_loop.run(listener, periodic);
                    })
                    .expect("spawn reactor loop")
            })
            .collect();
        Ok(Server {
            local_addr,
            shared,
            joins,
        })
    }

    /// The bound address — the actual port when bound with port 0.
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Expose per-loop readiness health (registered fds, wakeups, spurious
    /// polls, read bytes, decode stalls) in `registry` as
    /// `saad_reactor_*{<tier>, loop="<idx>"}`: scrape-time callbacks over
    /// weak references, so a server that is gone scrapes as zero. `tier`
    /// tells one registry's servers apart (a root's, each leaf's); a
    /// duplicate `(name, labels)` series panics the registry.
    pub(crate) fn register_metrics(&self, registry: &saad_obs::Registry, tier: &[(&str, &str)]) {
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
                "Connections currently owned by this event loop",
                |m| &m.connections,
            ),
        ];
        for idx in 0..self.shared.loop_metrics.len() {
            let label = idx.to_string();
            let labels = [tier, &[("loop", label.as_str())]].concat();
            for (name, help, cell) in PER_LOOP {
                let shared = Arc::downgrade(&self.shared);
                let value = move || {
                    shared
                        .upgrade()
                        .map_or(0, |s| cell(&s.loop_metrics[idx]).load(Ordering::Relaxed))
                };
                register_series(registry, name, help, &labels, value);
            }
        }
    }

    /// Stop every loop, close every connection — dropping its handler —
    /// and join the loop threads.
    pub(crate) fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for waker in &self.shared.wakers {
            waker.wake();
        }
        for join in self.joins {
            let _ = join.join();
        }
    }
}

/// One connection as its loop owns it: the socket, the protocol state
/// and the handler that state drives.
struct Conn<H> {
    stream: TcpStream,
    session: Session,
    handler: H,
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
fn ingest<H: Handler>(
    mut source: impl Read,
    session: &mut Session,
    handler: &mut H,
    metrics: &LoopMetrics,
) -> bool {
    let (mut eof, mut landed, mut framed) = (false, 0, true);
    while landed < READ_BUDGET {
        if session.ring_mut().free() == 0 && !session.drain(handler) {
            framed = false;
            break;
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
    // Bytes that landed count even when they end the connection.
    metrics
        .read_bytes
        .fetch_add(landed as u64, Ordering::Relaxed);
    if !framed {
        return false;
    }
    // Drain even on EOF: complete messages that arrived with the FIN are
    // still valid.
    let framed = session.drain(handler);
    if session.mid_message() {
        metrics.decode_stalls.fetch_add(1, Ordering::Relaxed);
    }
    framed && !eof
}

impl<H> Conn<H> {
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

/// One event-loop thread's state.
struct Loop<'a, H, F> {
    idx: usize,
    el: EventLoop,
    shared: &'a Shared,
    open: F,
    conns: HashMap<u64, Conn<H>>,
    next_token: u64,
}

impl<H: Handler, F: Fn() -> H> Loop<'_, H, F> {
    fn run(mut self, listener: Option<TcpListener>, mut periodic: Option<Periodic>) {
        let shared = self.shared;
        let metrics = &shared.loop_metrics[self.idx];
        if let Some(l) = &listener {
            self.el
                .register(l.as_raw_fd(), LISTENER, Interest::READABLE)
                .expect("register listener");
        }
        self.el.set_timer_after(TICK_EVERY, TICK);
        // The periodic work's deadlines fall a period apart from start, so
        // the time a run takes does not stretch the period; deadlines a
        // busy loop missed collapse into one run at once.
        let mut due = Instant::now();
        if let Some((every, _)) = &periodic {
            due += *every;
            self.el.set_timer(due, PERIODIC);
        }
        let mut events = Vec::new();
        loop {
            let stats = self.el.stats();
            metrics.polls.store(stats.polls, Ordering::Relaxed);
            metrics
                .spurious_polls
                .store(stats.spurious_polls, Ordering::Relaxed);
            metrics.wakeups.store(stats.wakeups, Ordering::Relaxed);
            metrics
                .registered_fds
                .store(self.el.registered() as u64, Ordering::Relaxed);
            metrics
                .connections
                .store(self.conns.len() as u64, Ordering::Relaxed);
            events.clear();
            // A failing wait would spin; treat it like shutdown.
            if self.el.poll(&mut events, None).is_err() || shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            for ev in &events {
                match ev.token {
                    WAKE_TOKEN => {
                        let injected = std::mem::take(&mut *shared.inject[self.idx].lock());
                        for stream in injected {
                            self.add_conn(stream);
                        }
                    }
                    TICK => {
                        self.el.set_timer_after(TICK_EVERY, TICK);
                    }
                    PERIODIC => {
                        let (every, run) = periodic.as_mut().expect("armed only with work");
                        run();
                        due = (due + *every).max(Instant::now());
                        self.el.set_timer(due, PERIODIC);
                    }
                    LISTENER => {
                        let l = listener.as_ref().expect("listener events only on loop 0");
                        self.accept_ready(l);
                    }
                    token => {
                        let readable = ev.readable || ev.hangup || ev.error;
                        self.service_conn(token, readable);
                    }
                }
            }
        }
        // Loop exit: dropping the poller and the connections closes their
        // sockets and drops their handlers; zero the gauges.
        metrics.registered_fds.store(0, Ordering::Relaxed);
        metrics.connections.store(0, Ordering::Relaxed);
    }

    /// Accept every pending connection and dispatch round-robin across
    /// loops; remote loops are handed the socket via their inject queue
    /// and nudged with a wake.
    fn accept_ready(&mut self, listener: &TcpListener) {
        let shared = self.shared;
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
            if let Some(bytes) = shared.recv_buffer {
                let _ = saad_reactor::set_recv_buffer(&stream, bytes);
            }
            let id = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
            let target = (id as usize) % shared.wakers.len();
            if target == self.idx {
                self.add_conn(stream);
            } else {
                shared.inject[target].lock().push(stream);
                shared.wakers[target].wake();
            }
        }
    }

    fn add_conn(&mut self, stream: TcpStream) {
        let token = Token(self.next_token);
        self.next_token += 1;
        // A connection the poller refuses is dropped, which closes it.
        if (self.el)
            .register(stream.as_raw_fd(), token, Interest::READABLE)
            .is_ok()
        {
            let conn = Conn {
                stream,
                session: Session::new(INITIAL_RING),
                handler: (self.open)(),
                interest: Interest::READABLE,
            };
            self.conns.insert(token.0, conn);
        }
    }

    /// Drive one connection for one readiness event: ingest if readable,
    /// flush pending ack bytes, adjust interest, close when done.
    fn service_conn(&mut self, token: Token, readable: bool) {
        let metrics = &self.shared.loop_metrics[self.idx];
        let Some(conn) = self.conns.get_mut(&token.0) else {
            // Already closed earlier in this drain; stale event.
            return;
        };
        let alive = (!readable
            || ingest(&conn.stream, &mut conn.session, &mut conn.handler, metrics))
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
                if self.el.reregister(fd, token, want).is_ok() {
                    conn.interest = want;
                }
            }
        } else {
            let conn = self.conns.remove(&token.0).expect("present above");
            let _ = self.el.deregister(conn.stream.as_raw_fd());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::testkit::{hello_bytes, rig, synopsis};
    use crate::protocol::{write_message, PINNED_EPOCH};
    use saad_core::synopsis::TaskSynopsis;
    use saad_core::transport::FrameSender;
    use saad_core::HostId;

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

        let rig = rig(None, true);
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

    /// A full ring whose drain meets a length prefix past the bound ends
    /// the connection, and the bytes that filled it still count as read;
    /// the frames ahead of the prefix are admitted and sent.
    #[test]
    fn bytes_read_ahead_of_an_unframeable_prefix_are_counted() {
        use crate::protocol::MAX_MESSAGE_LEN;
        let mut sender = FrameSender::new(HostId(7));
        let mut wire = hello_bytes(2, 7, PINNED_EPOCH);
        let batch: Vec<TaskSynopsis> = (0..32).map(|i| synopsis(7, i, i, &[1, 2])).collect();
        for _ in 0..4 {
            write_message(&mut wire, &sender.encode_frame(&batch)).unwrap();
        }
        wire.extend_from_slice(&(MAX_MESSAGE_LEN as u32 + 1).to_be_bytes());
        wire.resize(wire.len() + 2 * INITIAL_RING, 0xab);

        let rig = rig(None, true);
        let (mut session, mut link) = (Session::new(INITIAL_RING), rig.ingest.link());
        let metrics = LoopMetrics::default();
        let mut source = Slabs {
            wire: &wire,
            slab_left: usize::MAX,
        };
        assert!(!ingest(&mut source, &mut session, &mut link, &metrics));
        let landed = wire.len() - source.wire.len();
        assert_eq!(
            landed, INITIAL_RING,
            "one ring's worth, then the drain failed"
        );
        assert_eq!(metrics.read_bytes.load(Ordering::Relaxed), landed as u64);
        let stats = rig.ingest.stats();
        assert_eq!(
            (stats.frames, stats.synopses, stats.corrupted_frames),
            (4, 128, 1)
        );
        assert_eq!(rig.soa.try_iter().map(|b| b.len()).sum::<usize>(), 128);
    }

    #[test]
    fn one_readiness_event_lands_a_bounded_share_of_an_endless_stream() {
        let mut sender = FrameSender::new(HostId(7));
        let mut wire = hello_bytes(2, 7, PINNED_EPOCH);
        while wire.len() < 4 * READ_BUDGET {
            let batch: Vec<TaskSynopsis> = (0..32).map(|i| synopsis(7, i, i, &[1, 2])).collect();
            write_message(&mut wire, &sender.encode_frame(&batch)).unwrap();
        }
        let rig = rig(None, true);
        let (mut session, mut link) = (Session::new(INITIAL_RING), rig.ingest.link());
        let metrics = LoopMetrics::default();
        // The socket never runs dry, yet the loop gets its turn back.
        let mut source = Slabs {
            wire: &wire,
            slab_left: usize::MAX,
        };
        assert!(ingest(&mut source, &mut session, &mut link, &metrics));
        let landed = wire.len() - source.wire.len();
        assert!((READ_BUDGET..READ_BUDGET + INITIAL_RING).contains(&landed));
        assert!(rig.ingest.stats().synopses > 0);
    }

    /// Spin (no sleep) until `done`, failing after ten seconds.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::yield_now();
        }
    }

    /// 200 connect/close cycles against a two-loop server opening `open`
    /// handlers; `counted` reads the handler side's (accepted, active).
    /// A reconnecting fleet must cost a handler, a table entry and a
    /// registered fd per live connection, not per connection ever served.
    fn churn<H: Handler + 'static>(
        open: impl Fn() -> H + Clone + Send + 'static,
        counted: impl Fn() -> (u64, u64),
    ) {
        let config = ReactorCollectorConfig::default();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let server = Server::start(listener, "test", &config, open, None).unwrap();
        let registry = saad_obs::Registry::new();
        server.register_metrics(&registry, &[]);
        // A gauge summed over the loops, as scraped.
        let scraped = |name: &str| -> u64 {
            let text = registry.render();
            let samples = text.lines().filter(|l| l.starts_with(name));
            samples
                .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
                .sum()
        };
        // Idle: the listener, on loop 0.
        wait_until("the loops to start", || {
            scraped("saad_reactor_registered_fds{") == 1
        });
        for cycle in 1..=200u64 {
            drop(TcpStream::connect(server.local_addr()).unwrap());
            wait_until("the loop to see EOF", || counted() == (cycle, 0));
        }
        wait_until("the loops to publish their tables", || {
            scraped("saad_reactor_loop_connections{") == 0
                && scraped("saad_reactor_registered_fds{") == 1
        });
        assert_eq!(counted(), (200, 0));
        server.shutdown();
        assert_eq!(scraped("saad_reactor_registered_fds{"), 0);
    }

    #[test]
    fn closed_connections_leave_nothing_behind_as_they_come_and_go() {
        let rig = rig(None, false);
        let opener = rig.ingest.clone();
        churn(
            move || opener.link(),
            || {
                let s = rig.ingest.stats();
                (s.connections_accepted, s.connections_active)
            },
        );
    }
}
