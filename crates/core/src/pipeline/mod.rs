//! Real-time streaming pipeline: tracker → batch sink → analyzer pool.
//!
//! In the paper, synopses are streamed from every node to a centralized
//! statistical analyzer that handles "streams of task synopses as fast as
//! they are generated, up to ... 1500 task synopses per second" on one
//! core. This module is that wiring for the live (threaded) runtime: one
//! threaded analyzer — the sharded pool — and one file per job.
//!
//! * `sink` — the producer edge: [`BatchSink`] behind trackers, and the
//!   [`ModelSink`] a simulated run trains through. A `BatchSink` interns
//!   at the edge, against the consuming pool's interner, and puts a
//!   transport gap on the batch that follows it; a collector
//!   (`saad-net`) is the other producer of pool input.
//!   [`BatchSink::bounded`] caps the queue to the analyzer; an
//!   [`OverloadPolicy`] decides what happens when it fills — in [`offer`],
//!   which the network agent's queue calls too — and every dropped
//!   synopsis is counted per host in [`SinkStats`]: monitoring never
//!   stalls the server and never discards silently.
//! * `supervise` — the panic boundary each shard's detector runs behind
//!   (restore from the latest snapshot, replay, skip the poison synopsis,
//!   up to three restarts per shard) and the liveness table that
//!   turns a host silent for [`SupervisorConfig::silent_after`] windows
//!   into an explicit `HostSilent` event instead of a quiet gap.
//! * `pool` — [`spawn_analyzer_pool`], the one way to start a pool, over
//!   one ordered channel of batches: a router charges each batch's gaps,
//!   then partitions its rows by `hash(host, stage)` over supervised shard
//!   workers. All windowed detector state is keyed per `(host, stage)`,
//!   so sharding preserves the single-threaded event stream exactly (as a
//!   multiset).
//! * `lifecycle` — what a [`PoolStart::Store`] adds: tenants, each with
//!   its own shard slots and model, durable checkpoints, crash recovery,
//!   bootstrap promotion and hot model swap. Spawn the pool first, then
//!   build its producers on [`PoolHandle::interner`] — a restored pool's
//!   interner is the checkpoint's, not a fresh one.
//! * `adapt` — which tenant a host is in ([`TenantRouter`]), and the drift
//!   detector that swaps a tenant's model by itself.

mod adapt;
mod lifecycle;
mod pool;
mod sink;
mod supervise;

pub use adapt::TenantRouter;
pub use lifecycle::{LifecycleConfig, LifecycleError, SwapReport};
pub use pool::{spawn_analyzer_pool, spawn_batch_analyzer_pool, PoolHandle, PoolStart};
pub use sink::{offer, BatchSink, DropCounters, DropCounts, ModelSink, OverloadPolicy, SinkStats};
pub use supervise::{AnalyzerError, SupervisorConfig};
