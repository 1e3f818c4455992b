//! The agent-facing collector: thousands of agent connections feeding one
//! shared, exactly-accounted synopsis stream.
//!
//! A [`ReactorCollector`] is two parts and nothing else: the `Ingest`
//! core — handshake verdict, frame check and in-place decode outside any
//! lock, sequencing under the shared [`FrameReceiver`], the batch feed
//! with each revealed gap on its batch — and the readiness-driven `server`
//! whose loops move the bytes into each connection's
//! [`Session`](crate::Session).
//!
//! Backpressure: the batch channel send blocks the loop thread when the
//! analyzer falls behind, which stops reads on every connection of that
//! loop and lets TCP flow control push back to the agents.
//!
//! See DESIGN.md §16 for the architecture and buffer-ownership rules.

use crate::ingest::{Admission, AdmittedSink, CollectorState, CollectorStats, Ingest, SynopsisOut};
use crate::server::{Periodic, Server};
use crossbeam_channel::Sender;
use saad_core::batch::SynopsisBatch;
use saad_core::intern::SignatureInterner;
use saad_core::transport::{FrameReceiver, LinkStats, LossReport};
use saad_core::HostId;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Tuning for a [`ReactorCollector`], which accepts hellos of
/// [`PROTOCOL_VERSION`](crate::protocol::PROTOCOL_VERSION) only.
#[derive(Debug, Clone)]
pub struct ReactorCollectorConfig {
    /// Event-loop threads. Connections are assigned round-robin at
    /// accept and never migrate.
    pub loops: usize,
    /// Kernel receive-buffer clamp applied to every accepted connection
    /// (`None` leaves the OS default and its autotuning). Bounds
    /// per-connection kernel memory at high fan-in and makes
    /// backpressure timing reproducible; see
    /// [`saad_reactor::set_recv_buffer`].
    pub recv_buffer: Option<usize>,
}

impl Default for ReactorCollectorConfig {
    fn default() -> ReactorCollectorConfig {
        ReactorCollectorConfig {
            loops: 2,
            recv_buffer: None,
        }
    }
}

/// A running readiness-driven collector. Call
/// [`ReactorCollector::shutdown`] for a clean stop and to recover the
/// link state for a successor.
pub struct ReactorCollector {
    ingest: Arc<Ingest>,
    server: Server,
}

impl ReactorCollector {
    /// Bind a fresh reactor collector (empty link state) on `addr`,
    /// feeding [`SynopsisBatch`]es interned into `interner` — the consuming
    /// pool's — straight from the ring: no intermediate `Vec<TaskSynopsis>`.
    /// A gap a frame reveals rides on that frame's batch
    /// ([`SynopsisBatch::losses`]); a goodbye's on a batch without rows.
    ///
    /// # Errors
    ///
    /// Propagates bind, event-loop, or waker creation failure.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        batch_tx: Sender<SynopsisBatch>,
        interner: Arc<SignatureInterner>,
        config: ReactorCollectorConfig,
    ) -> io::Result<ReactorCollector> {
        let (listener, state) = (TcpListener::bind(addr)?, CollectorState::default());
        ReactorCollector::serve_soa(listener, state, batch_tx, interner, config)
    }

    /// [`ReactorCollector::bind`] in the legacy two-channel form: a gap
    /// report goes to `loss_tx` just before the batch that revealed it,
    /// instead of riding on it, and a frame without synopses sends no
    /// batch. Kept only for the pinned benchmark package, until it moves
    /// to the in-band form.
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
        let out = SynopsisOut::Soa {
            tx: batch_tx,
            interner,
            side_losses: Some(loss_tx),
        };
        let listener = TcpListener::bind(addr)?;
        ReactorCollector::start(listener, FrameReceiver::new(), out, config, None, None)
    }

    /// Bind a collector whose admitted frames feed an [`AdmittedSink`]
    /// instead of an analyzer channel — the leaf-collector role: the sink
    /// re-frames synopses upstream in the agents' global stream
    /// coordinates. Agent-link loss is not reported locally; it is passed
    /// to the sink, which shows it to the root as a stream-position gap.
    /// The sink runs on the loop threads, so a sink that blocks
    /// back-pressures its loop's agents; `flush` runs on loop 0.
    ///
    /// With `epoch` (a control plane's live ring epoch), a hello routed by
    /// an older ring epoch is rejected with
    /// [`RejectReason::StaleEpoch`](crate::RejectReason::StaleEpoch) so the
    /// peer refetches the ring;
    /// [`PINNED_EPOCH`](crate::protocol::PINNED_EPOCH) hellos (everything
    /// v1 included) are exempt.
    ///
    /// # Errors
    ///
    /// Propagates bind, event-loop, or waker creation failure.
    pub(crate) fn bind_forward<A: ToSocketAddrs>(
        addr: A,
        sink: Arc<dyn AdmittedSink>,
        config: ReactorCollectorConfig,
        epoch: Option<Arc<AtomicU64>>,
        flush: Periodic,
    ) -> io::Result<ReactorCollector> {
        let (listener, out) = (TcpListener::bind(addr)?, SynopsisOut::Forward(sink));
        let receiver = FrameReceiver::new();
        ReactorCollector::start(listener, receiver, out, config, epoch, Some(flush))
    }

    /// [`ReactorCollector::bind`] on an already-bound listener,
    /// adopting `state` — a previous incarnation's
    /// [`ReactorCollector::shutdown`] — so per-host delivery and loss
    /// accounting continue where they left off. The caller owns the bind
    /// (e.g. retries a fixed port across a restart), so a bind failure
    /// never costs the carried-over `state`.
    ///
    /// # Errors
    ///
    /// Propagates event-loop or waker creation failure.
    pub fn serve_soa(
        listener: TcpListener,
        state: CollectorState,
        batch_tx: Sender<SynopsisBatch>,
        interner: Arc<SignatureInterner>,
        config: ReactorCollectorConfig,
    ) -> io::Result<ReactorCollector> {
        let out = SynopsisOut::batches(batch_tx, interner);
        ReactorCollector::start(listener, state.receiver, out, config, None, None)
    }

    fn start(
        listener: TcpListener,
        receiver: FrameReceiver,
        out: SynopsisOut,
        config: ReactorCollectorConfig,
        epoch: Option<Arc<AtomicU64>>,
        periodic: Option<Periodic>,
    ) -> io::Result<ReactorCollector> {
        let ingest = Ingest::new(Admission::Shared(receiver), out, epoch);
        let opener = ingest.clone();
        let open = move || opener.link();
        let server = Server::start(listener, "saad-reactor", &config, open, periodic)?;
        Ok(ReactorCollector { ingest, server })
    }

    /// The bound address — the actual port when bound with port 0.
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Snapshot of collector-wide counters (takes the receiver lock
    /// briefly for link totals).
    pub fn stats(&self) -> CollectorStats {
        self.ingest.stats()
    }

    /// Link statistics for one host (zeroes if never heard from).
    pub fn link_stats(&self, host: HostId) -> LinkStats {
        self.ingest.link_stats(host)
    }

    /// Expose the collector's counters in `registry`: the collector-wide
    /// totals as `saad_collector_*`, plus per-loop readiness health
    /// (registered fds, wakeups, spurious polls, read bytes, decode
    /// stalls) as `saad_reactor_*{loop="<idx>"}`. All are scrape-time
    /// callbacks over weak references, so a dropped collector scrapes as
    /// zero instead of pinning its channels open.
    pub fn register_metrics(&self, registry: &saad_obs::Registry) {
        self.register_labelled(registry, &[]);
    }

    /// [`ReactorCollector::register_metrics`] with `labels` on every
    /// series: a leaf's `leaf="<id>"`.
    pub(crate) fn register_labelled(&self, registry: &saad_obs::Registry, labels: &[(&str, &str)]) {
        self.ingest.register_metrics(registry, labels);
        self.server.register_metrics(registry, labels);
    }

    /// Stop every loop, close every connection, join the loop threads,
    /// and return the final link state for a successor collector.
    pub fn shutdown(self) -> CollectorState {
        self.server.shutdown();
        self.ingest.into_state()
    }
}
