//! The collector server: many concurrent agent connections feeding one
//! shared, exactly-accounted synopsis stream.
//!
//! This is the thread-per-connection driver of the one receive path: the
//! `server` module gives every accepted connection a thread that moves
//! bytes into a [`Session`](crate::Session), which drives the shared
//! `Ingest` core — frame validation and decode **outside** any shared
//! lock, sequencing **under** the shared [`FrameReceiver`] lock (O(1) per
//! frame), so per-byte work parallelizes across connections. The
//! [`ReactorCollector`](crate::ReactorCollector) drives the same sessions
//! and core from readiness events instead.
//!
//! Admitted frames flow into the analyzer input as one [`SynopsisBatch`]
//! send per frame — decoded in place and interned against the consuming
//! pool's interner — newly revealed gaps as [`LossReport`]s before the
//! batch that revealed them: exactly what an in-process
//! [`BatchSink`](saad_core::pipeline::BatchSink) feeds a pool, so either
//! pool spawn works unchanged behind a socket.
//!
//! [`Collector::shutdown`] returns the final [`CollectorState`] — the
//! carried-over `FrameReceiver` — which a restarted collector can adopt
//! via [`Collector::serve_soa`] so loss accounting stays exact across
//! collector restarts. A collector restarted *without* that state relies
//! on the agents' resume handshakes ([`FrameReceiver::resume`]) instead.

use crate::ingest::{Ingest, SynopsisOut};
use crate::protocol::PROTOCOL_VERSION;
use crate::server::Server;
use crossbeam_channel::Sender;
use saad_core::batch::SynopsisBatch;
use saad_core::intern::SignatureInterner;
use saad_core::synopsis::TaskSynopsis;
use saad_core::transport::{FrameReceiver, LinkStats, LossReport};
use saad_core::HostId;
use saad_sim::SimTime;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

/// Tuning for a [`Collector`].
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// Socket read timeout used by connection handlers to poll the
    /// shutdown flag; a handler notices shutdown within about this long.
    pub read_poll: Duration,
    /// Protocol version this collector accepts (normally
    /// [`PROTOCOL_VERSION`]; overridable to exercise rejection paths).
    pub version: u16,
    /// Live control-plane epoch to enforce, typically
    /// [`ControlPlane::epoch_handle`](crate::control::ControlPlane::epoch_handle).
    /// A hello routed by an older ring epoch is rejected with
    /// [`RejectReason::StaleEpoch`](crate::RejectReason::StaleEpoch) so the peer refetches the ring;
    /// [`PINNED_EPOCH`](crate::protocol::PINNED_EPOCH) hellos (including everything v1) are exempt.
    /// `None` disables the check entirely.
    pub epoch: Option<Arc<AtomicU64>>,
    /// Kernel receive-buffer clamp applied to every accepted connection
    /// (`None` leaves the OS default and its autotuning). Bounds
    /// per-connection kernel memory at high fan-in and makes
    /// backpressure timing reproducible; see
    /// [`saad_reactor::set_recv_buffer`].
    pub recv_buffer: Option<usize>,
}

impl Default for CollectorConfig {
    fn default() -> CollectorConfig {
        CollectorConfig {
            read_poll: Duration::from_millis(50),
            version: PROTOCOL_VERSION,
            epoch: None,
            recv_buffer: None,
        }
    }
}

/// Link state carried across collector restarts: the shared
/// [`FrameReceiver`] with its per-host delivery, duplicate, and loss
/// accounting.
#[derive(Debug, Default)]
pub struct CollectorState {
    pub(crate) receiver: FrameReceiver,
}

impl CollectorState {
    /// The carried-over receiver (read-only view).
    pub fn receiver(&self) -> &FrameReceiver {
        &self.receiver
    }
}

/// Snapshot of collector-wide counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectorStats {
    /// Connections accepted since start.
    pub connections_accepted: u64,
    /// Connections currently streaming.
    pub connections_active: u64,
    /// Handshakes refused (bad magic/checksum or version skew).
    pub handshakes_rejected: u64,
    /// Subset of rejections caused by a stale control-plane ring epoch.
    pub stale_epoch_rejects: u64,
    /// Fresh (non-duplicate) frames admitted.
    pub frames: u64,
    /// Synopses forwarded to the analyzer input.
    pub synopses: u64,
    /// Frames rejected as corrupt (checksum, truncation, oversize, codec).
    pub corrupted_frames: u64,
    /// Duplicate frames discarded across all hosts.
    pub duplicate_frames: u64,
    /// Synopses known lost across all hosts (exact at quiescence).
    pub lost_synopses: u64,
    /// Ingest watermark: the highest synopsis start time admitted on any
    /// connection. Monotone; [`SimTime::ZERO`] until the first synopsis.
    pub watermark: SimTime,
}

/// Consumer of admitted frames that needs the agent's **global stream
/// coordinates**, not just the payload — what a leaf collector's uplink
/// implements so it can re-frame digests upstream at the exact positions
/// the originating agents encoded them at (see `crate::leaf`).
pub trait AdmittedSink: Send + Sync {
    /// One fresh admitted frame for `host`: its synopses, the loss this
    /// frame newly revealed on the agent link, and the host's global
    /// stream position just past the frame's last synopsis (i.e. the
    /// frame's `cumulative` + `synopses.len()`).
    fn on_fresh(
        &self,
        host: HostId,
        synopses: Vec<TaskSynopsis>,
        newly_lost: u64,
        stream_pos_end: u64,
    );
}

/// A running collector server. Dropping without calling
/// [`Collector::shutdown`] leaves the accept thread running for the
/// process lifetime; call `shutdown` for a clean stop and to recover the
/// link state.
pub struct Collector {
    ingest: Arc<Ingest>,
    server: Server,
}

impl Collector {
    /// Bind a fresh collector (empty link state) on `addr` (port 0
    /// allowed; see [`Collector::local_addr`]) and start accepting.
    /// Admitted synopses are interned into `interner` — the consuming
    /// pool's — and forwarded as one [`SynopsisBatch`] per admitted frame.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind_soa<A: ToSocketAddrs>(
        addr: A,
        batch_tx: Sender<SynopsisBatch>,
        interner: Arc<SignatureInterner>,
        loss_tx: Sender<LossReport>,
        config: CollectorConfig,
    ) -> io::Result<Collector> {
        let (listener, state) = (TcpListener::bind(addr)?, CollectorState::default());
        Collector::serve_soa(listener, state, batch_tx, interner, loss_tx, config)
    }

    /// Bind a collector whose admitted frames feed an [`AdmittedSink`]
    /// instead of an analyzer channel — the leaf-collector role: the sink
    /// re-frames synopses upstream in the agents' global stream
    /// coordinates. Agent-link loss is not reported locally; it is passed
    /// to the sink, which shows it to the root as a stream-position gap.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind_forward<A: ToSocketAddrs>(
        addr: A,
        sink: Arc<dyn AdmittedSink>,
        config: CollectorConfig,
    ) -> io::Result<Collector> {
        let (listener, out) = (TcpListener::bind(addr)?, SynopsisOut::Forward(sink));
        Collector::start(listener, CollectorState::default(), out, config)
    }

    /// [`Collector::bind_soa`] on an already-bound listener, adopting
    /// `state` — a previous incarnation's [`Collector::shutdown`] — so
    /// per-host delivery and loss accounting continue where they left off.
    /// The caller owns the bind (e.g. retries a fixed port across a
    /// restart), so a bind failure never costs the carried-over `state`.
    ///
    /// # Errors
    ///
    /// Propagates a `local_addr` query failure.
    pub fn serve_soa(
        listener: TcpListener,
        state: CollectorState,
        batch_tx: Sender<SynopsisBatch>,
        interner: Arc<SignatureInterner>,
        loss_tx: Sender<LossReport>,
        config: CollectorConfig,
    ) -> io::Result<Collector> {
        let out = SynopsisOut::Soa {
            tx: batch_tx,
            interner,
            loss_tx,
        };
        Collector::start(listener, state, out, config)
    }

    fn start(
        listener: TcpListener,
        state: CollectorState,
        out: SynopsisOut,
        config: CollectorConfig,
    ) -> io::Result<Collector> {
        let ingest = Ingest::new(state.receiver, out, config.version, config.epoch);
        let (opener, poll, clamp) = (ingest.clone(), config.read_poll, config.recv_buffer);
        let server = Server::start(listener, "saad-net", poll, clamp, move || opener.link())?;
        Ok(Collector { ingest, server })
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

    /// Expose the collector's live counters in `registry` as
    /// `saad_collector_*{backend="threaded"}`. Every series is a
    /// scrape-time callback over [`Collector::stats`] holding only a weak
    /// reference, so a collector that was shut down scrapes as zero.
    pub fn register_metrics(&self, registry: &saad_obs::Registry) {
        self.ingest.register_metrics(registry, "threaded");
    }

    /// Stop accepting, close every live connection, join all handler
    /// threads, and return the final link state for a successor collector.
    pub fn shutdown(self) -> CollectorState {
        self.server.shutdown();
        self.ingest.into_state()
    }
}
