//! The thread-per-connection driver: an accept loop, one blocking thread
//! per connection moving bytes into a [`Session`], and a prompt shutdown.
//!
//! Shared by the threaded [`Collector`](crate::Collector) and the
//! [`RootCollector`](crate::RootCollector), which differ only in the
//! [`Handler`] they open per connection. The blocking loop reads exactly
//! the bytes the session says it needs next — the hello prefix, its
//! extension, a length prefix, a body — so per-byte work parallelizes
//! across connection threads and a frame costs two reads.

use crate::protocol::read_full;
use crate::session::{Handler, Session};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Ring a connection starts with; it grows to the largest message seen.
const INITIAL_RING: usize = 4096;

struct Live {
    shutdown: AtomicBool,
    /// Live connection sockets by connection id, so shutdown can unblock
    /// handlers stuck in a read.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Handler threads not yet joined; finished ones are reaped at each
    /// accept, so the table tracks live connections, not history.
    handlers: Mutex<Vec<JoinHandle<()>>>,
}

/// A running thread-per-connection server. Dropping it without
/// [`Server::shutdown`] leaves the accept thread running for the process
/// lifetime.
pub(crate) struct Server {
    local_addr: SocketAddr,
    live: Arc<Live>,
    accept_join: JoinHandle<()>,
}

impl Server {
    /// Start accepting on `listener`; every connection gets the handler
    /// `open` returns and a thread named after `name`. A handler blocked
    /// in a read re-checks the shutdown flag every `read_poll`;
    /// `recv_buffer` clamps each socket's kernel receive buffer.
    pub(crate) fn start<H, F>(
        listener: TcpListener,
        name: &'static str,
        read_poll: Duration,
        recv_buffer: Option<usize>,
        open: F,
    ) -> io::Result<Server>
    where
        H: Handler + Send + 'static,
        F: Fn() -> H + Send + 'static,
    {
        let local_addr = listener.local_addr()?;
        let live = Arc::new(Live {
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            handlers: Mutex::new(Vec::new()),
        });
        let accept_live = live.clone();
        let accept_join = std::thread::Builder::new()
            .name(format!("{name}-accept"))
            .spawn(move || {
                accept_loop(&listener, name, read_poll, recv_buffer, &accept_live, open);
            })?;
        Ok(Server {
            local_addr,
            live,
            accept_join,
        })
    }

    /// The bound address — the actual port when bound with port 0.
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting, close every live connection and join every thread.
    pub(crate) fn shutdown(self) {
        self.live.shutdown.store(true, Ordering::SeqCst);
        // Unblock handlers stuck mid-read (their poll timeout would catch
        // the flag anyway; this just makes shutdown prompt).
        for stream in self.live.conns.lock().values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // Unblock the accept call with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        let _ = self.accept_join.join();
        let handlers = std::mem::take(&mut *self.live.handlers.lock());
        for join in handlers {
            let _ = join.join();
        }
    }
}

fn accept_loop<H, F>(
    listener: &TcpListener,
    name: &str,
    read_poll: Duration,
    recv_buffer: Option<usize>,
    live: &Arc<Live>,
    open: F,
) where
    H: Handler + Send + 'static,
    F: Fn() -> H,
{
    for conn_id in 0u64.. {
        let stream = match listener.accept() {
            Ok((stream, _)) if !live.shutdown.load(Ordering::SeqCst) => stream,
            Err(_) if !live.shutdown.load(Ordering::SeqCst) => continue,
            _ => return,
        };
        let _ = stream.set_read_timeout(Some(read_poll));
        let _ = stream.set_nodelay(true);
        if let Some(bytes) = recv_buffer {
            let _ = saad_reactor::set_recv_buffer(&stream, bytes);
        }
        if let Ok(registered) = stream.try_clone() {
            live.conns.lock().insert(conn_id, registered);
        }
        let handler = open();
        let conn_live = live.clone();
        let join = std::thread::Builder::new()
            .name(format!("{name}-conn-{conn_id}"))
            .spawn(move || {
                serve_connection(stream, handler, &conn_live);
                conn_live.conns.lock().remove(&conn_id);
            })
            .expect("spawn connection handler");
        let mut handlers = live.handlers.lock();
        handlers.retain(|h| !h.is_finished());
        handlers.push(join);
    }
}

/// Move bytes between `stream` and a fresh [`Session`] until EOF, error,
/// rejection, lost framing, or shutdown.
fn serve_connection<H: Handler>(mut stream: TcpStream, mut handler: H, live: &Live) {
    let keep_going = || !live.shutdown.load(Ordering::SeqCst);
    let mut session = Session::new(INITIAL_RING);
    loop {
        let mut want = session.needs();
        while want > 0 {
            let (space, _) = session.ring_mut().write_slices();
            let take = want.min(space.len());
            let Ok(true) = read_full(&mut stream, &mut space[..take], keep_going) else {
                return;
            };
            session.ring_mut().commit(take);
            want -= take;
        }
        let framed = session.drain(&mut handler);
        let ack = session.ack().len();
        if ack > 0 {
            if stream.write_all(session.ack()).is_err() {
                return;
            }
            session.ack_written(ack);
        }
        if !framed || session.is_rejected() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::testkit::rig;
    use std::time::Instant;

    /// Spin (no sleep) until `done`, failing after ten seconds.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn finished_handlers_are_reaped_as_connections_come_and_go() {
        let rig = rig(2, None, false);
        let opener = rig.ingest.clone();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let poll = Duration::from_millis(50);
        let server = Server::start(listener, "test", poll, None, move || opener.link()).unwrap();
        for cycle in 1..=200u64 {
            drop(TcpStream::connect(server.local_addr()).unwrap());
            wait_until("the handler to see EOF", || {
                let s = rig.ingest.stats();
                s.connections_accepted == cycle && s.connections_active == 0
            });
        }
        // A reconnecting fleet costs a handle per live connection, not per
        // connection ever served (a thread counted inactive may still be
        // a few instructions from finished, hence "a handful").
        let handles = server.live.handlers.lock().len();
        assert!(
            handles <= 8,
            "{handles} handles kept for 0 live connections"
        );
        assert_eq!(rig.ingest.stats().connections_accepted, 200);
        server.shutdown();
    }
}
