//! Wire-level synopsis ingestion: the distributed half of SAAD.
//!
//! The paper's deployment has a tracker shim on every server node
//! streaming tiny task synopses over the network to one statistical
//! analyzer. This crate supplies that link for the reproduction. Nothing
//! is retransmitted: the detector is loss-aware by design (`record_loss` +
//! completeness), so the transport's job is to make loss *visible and
//! exact*, not to hide it.
//!
//! ## Entry points
//!
//! Every item has one path: the crate root, or [`protocol`] for the wire
//! format.
//!
//! * **Send**: an [`Agent`] behind the trackers (as an [`AgentSink`]),
//!   tuned by an [`AgentConfig`] and its [`BackoffConfig`], counted in
//!   [`AgentStats`]. A bounded queue with the in-process `DropNewest` /
//!   `DropOldest` / `Block` overload policies feeds a worker that waits
//!   out each due connect and owns the socket. The link under it is a
//!   sans-IO state machine: frames numbered once, one coalesced wire
//!   image, a cut write accounted frame by frame, reconnect with jittered
//!   exponential backoff, and a resume handshake that turns every outage
//!   into exact loss accounting instead of silent gaps.
//! * **Receive**: [`ReactorCollector::bind`] (tuned by a
//!   [`ReactorCollectorConfig`], counted in [`CollectorStats`], restarted
//!   on a kept [`CollectorState`] by [`ReactorCollector::serve_soa`]). A
//!   few [`saad_reactor`] event-loop threads multiplex thousands of
//!   connections: handshake verdict, frame check and in-place decode
//!   outside any lock, sequencing under one shared
//!   [`FrameReceiver`](saad_core::transport::FrameReceiver), and one
//!   [`SynopsisBatch`](saad_core::batch::SynopsisBatch) send per ring
//!   drain — every frame the drain admitted, interned against the
//!   consuming pool's interner, the
//!   [`LossReport`](saad_core::transport::LossReport) of a gap riding
//!   ahead of the rows of the frame that revealed it — into the pool's one
//!   input.
//! * **Receive by hand**, without a socket: a [`Session`] turns bytes into
//!   protocol steps (hello phases, length-prefix reassembly over a
//!   [`FrameAssembler`], the pending ack) and drives a [`Handler`]. It is
//!   the one receive path; the collectors' readiness loop is its one
//!   driver.
//! * **Federate**: a [`ControlPlane`] registers leaves, takes heartbeats,
//!   detects failures and republishes seeded rendezvous-hash host→leaf
//!   assignments as immutable, epoch-versioned [`RingSnapshot`]s
//!   (join/leave re-homes only ~1/N of hosts); it is the [`LeafResolver`]
//!   agents consult before every connect ([`PinnedResolver`] names one
//!   collector). A [`LeafCollector`] ([`LeafConfig`], [`LeafStats`])
//!   terminates a regional agent fleet and forwards windowed digests
//!   upstream **in the agents' global stream coordinates**, so any loss
//!   anywhere surfaces at the root as a cumulative-count gap. The
//!   [`RootCollector`] is the same driver (one loop) and handler core,
//!   sequencing per uplink and keeping loss in one
//!   [`LossLedger`](saad_core::transport::LossLedger) whose sum/max law
//!   reports each lost synopsis exactly once across failover; it counts
//!   and exports as a collector, `saad_collector_*{tier="root"}`.
//! * **Wire format**: [`protocol`] — a versioned fixed-size handshake
//!   ([`Hello`] / [`HelloAck`], re-exported here with [`PeerRole`],
//!   [`RejectReason`] and [`PROTOCOL_VERSION`]) followed by `u32`
//!   length-prefixed transport frames, everything CRC-32 checked. Socket
//!   buffers: [`set_recv_buffer`], [`set_send_buffer`].

#![warn(missing_docs)]

mod agent;
mod control;
mod framing;
mod ingest;
mod leaf;
mod outbound;
pub mod protocol;
mod reactor_collector;
mod ring;
mod root;
mod server;
mod session;

pub use agent::{Agent, AgentConfig, AgentSink, AgentStats, BackoffConfig};
pub use control::ControlPlane;
pub use framing::{FrameAssembler, OversizedPrefix};
pub use ingest::{CollectorState, CollectorStats};
pub use leaf::{LeafCollector, LeafConfig, LeafStats};
pub use protocol::{Hello, HelloAck, PeerRole, RejectReason, PROTOCOL_VERSION};
pub use reactor_collector::{ReactorCollector, ReactorCollectorConfig};
pub use ring::{LeafId, LeafResolver, PinnedResolver, RingSnapshot};
pub use root::RootCollector;
pub use saad_reactor::{set_recv_buffer, set_send_buffer};
pub use session::{Handler, Session};
