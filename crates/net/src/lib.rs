//! Wire-level synopsis ingestion: the distributed half of SAAD.
//!
//! The paper's deployment has a tracker shim on every server node
//! streaming tiny task synopses over the network to one statistical
//! analyzer. This crate supplies that link for the reproduction:
//!
//! * [`protocol`] — a versioned fixed-size handshake (`Hello` /
//!   `HelloAck`) followed by `u32` length-prefixed transport frames,
//!   everything CRC-32 checked.
//! * [`session`] — the receiving end of one connection as a sans-IO state
//!   machine: a [`Session`] turns bytes into protocol steps (hello
//!   phases, length-prefix reassembly over [`framing`], the pending ack)
//!   and drives a [`Handler`]. There is one receive path and one driver
//!   of it: a few [`saad_reactor`] event-loop threads multiplex thousands
//!   of connections, landing vectored reads in the sessions' rings.
//! * [`ReactorCollector`] — that driver over the one handler core:
//!   handshake verdict, frame check and in-place decode outside any lock,
//!   sequencing under one shared
//!   [`FrameReceiver`](saad_core::transport::FrameReceiver), and one
//!   [`SynopsisBatch`](saad_core::batch::SynopsisBatch) send per ring
//!   drain — every frame the drain admitted, interned at the collector
//!   against the consuming pool's interner, the
//!   [`LossReport`](saad_core::transport::LossReport) of a gap riding
//!   ahead of the rows of the frame that revealed it — into the pool's one
//!   input.
//! * `outbound` — the sending end of one link as a sans-IO state machine,
//!   the session's mirror: frames numbered once, one coalesced wire
//!   image, a cut write accounted frame by frame, reconnect with jittered
//!   exponential backoff, and a resume handshake that turns every outage
//!   into exact loss accounting instead of silent gaps. There is one send
//!   path; the agent's worker and the leaf's uplink are its drivers.
//! * [`Agent`] — the tracker side: a bounded queue with the in-process
//!   `DropNewest` / `DropOldest` / `Block` overload policies, and a worker
//!   that waits out each due connect and owns the socket.
//!
//! Nothing is retransmitted: the detector is loss-aware by design
//! (`record_loss` + completeness), so the transport's job is to make
//! loss *visible and exact*, not to hide it.
//!
//! # Federation
//!
//! Above the single link, the crate also provides a two-tier collection
//! topology with the same exactness guarantee end to end:
//!
//! * [`ring`] — seeded rendezvous-hash host→leaf assignment published as
//!   immutable, epoch-versioned [`RingSnapshot`]s; join/leave re-homes
//!   only ~1/N of hosts.
//! * [`control`] — the [`ControlPlane`]: leaf registration, heartbeats,
//!   failure detection, and epoch republication; doubles as the
//!   [`LeafResolver`] agents consult before every connect attempt.
//! * [`leaf`] — [`LeafCollector`]: terminates a regional agent fleet and
//!   forwards windowed digests upstream **in the agents' global stream
//!   coordinates**, so any loss anywhere surfaces at the root as a
//!   cumulative-count gap.
//! * [`root`] — [`RootCollector`]: the same driver (one loop) and the
//!   same handler core, sequencing per uplink and keeping loss in one
//!   [`LossLedger`](saad_core::transport::LossLedger) whose sum/max law
//!   reports each lost synopsis exactly once across failover, with zero
//!   double-counting; it counts and exports as a collector,
//!   `saad_collector_*{tier="root"}`.

#![warn(missing_docs)]

pub mod agent;
pub mod control;
pub mod framing;
mod ingest;
pub mod leaf;
mod outbound;
pub mod protocol;
pub mod reactor_collector;
pub mod ring;
pub mod root;
mod server;
pub mod session;

pub use agent::{Agent, AgentConfig, AgentSink, AgentStats, BackoffConfig};
pub use control::ControlPlane;
pub use framing::{FrameAssembler, OversizedPrefix};
pub use ingest::{AdmittedSink, CollectorState, CollectorStats};
pub use leaf::{LeafCollector, LeafConfig, LeafStats};
pub use protocol::{Hello, HelloAck, PeerRole, RejectReason, PROTOCOL_VERSION};
pub use reactor_collector::{ReactorCollector, ReactorCollectorConfig};
pub use ring::{LeafId, LeafResolver, PinnedResolver, RingSnapshot};
pub use root::RootCollector;
pub use saad_reactor::{set_recv_buffer, set_send_buffer};
pub use session::{Handler, Session};
