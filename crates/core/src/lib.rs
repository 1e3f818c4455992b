//! # SAAD — Stage-Aware Anomaly Detection
//!
//! A Rust implementation of *"Stage-Aware Anomaly Detection through
//! Tracking Log Points"* (Ghanbari, Hashemi, Amza — Middleware 2014).
//!
//! SAAD detects runtime anomalies in staged (SEDA-style) servers with
//! near-zero overhead by tracking which **log points** each task visits —
//! without rendering or storing log messages — and running light-weight
//! statistical tests over the resulting task synopses.
//!
//! ## Architecture
//!
//! ```text
//!  server code ──log calls──▶ saad_logging::Logger
//!                                  │ (interceptor, before verbosity check)
//!                                  ▼
//!                       [`tracker::TaskExecutionTracker`]
//!                                  │ per-task synopsis at termination
//!                                  ▼
//!                       [`synopsis::TaskSynopsis`] stream
//!                                  │
//!                 training ─────────────────── runtime
//!                     ▼                           ▼
//!         [`model::ModelBuilder`] ──▶ [`model::OutlierModel`]
//!                                                 │
//!                                                 ▼
//!                                  [`detector::AnomalyDetector`]
//!                                                 │ windowed exact binomial tests
//!                                                 ▼
//!                                  [`report::AnomalyReport`]
//! ```
//!
//! * The **tracker** sits behind the logging facade as an
//!   [`saad_logging::Interceptor`]. Stage code is delimited with
//!   [`tracker::TaskExecutionTracker::set_context`] (producer-consumer
//!   stages) or a [`tracker::TaskGuard`] (dispatcher-worker stages); every
//!   log call between delimiters is credited to the current task. At task
//!   termination a compact [`synopsis::TaskSynopsis`] (tens of bytes, see
//!   [`codec`]) is streamed to the analyzer.
//! * The **model** ranks signatures by frequency per stage (flow outliers
//!   below the 99th percentile rank), thresholds per-(stage, signature)
//!   durations at their 99th percentile (performance outliers), and uses
//!   k-fold cross-validation to discard signatures whose durations cannot
//!   support a stable threshold.
//! * The **detector** runs one-sided proportion tests (α = 0.001) per
//!   window and stage: a **flow anomaly** is a significant excess of
//!   rare-signature tasks or any never-trained signature; a **performance
//!   anomaly** is a significant excess of over-threshold durations for a
//!   trained signature.
//!
//! ## Entry points
//!
//! Every item has one path: its module, or the crate root for the ids
//! ([`HostId`], [`StageId`], [`TaskUid`], [`TenantId`], [`LogPointId`]),
//! [`Signature`] and [`StageRegistry`]. There is no prelude.
//!
//! * **Track**: [`tracker`] — one [`tracker::TaskExecutionTracker`] per
//!   node behind the logger hands each finished task's
//!   [`synopsis::TaskSynopsis`] to a [`tracker::SynopsisSink`];
//!   [`simtask`] drives it in virtual time.
//! * **Train**: [`model`] — a [`model::ModelBuilder`] builds an
//!   [`model::OutlierModel`], compiled against a
//!   [`intern::SignatureInterner`] into a [`model::CompiledModel`];
//!   [`feature`] is the paper's per-task feature.
//! * **Spawn** the analyzer: [`pipeline::spawn_analyzer_pool`], from a
//!   trained model or from a checkpoint store ([`pipeline::PoolStart`];
//!   the checkpoints are [`store`]'s). It is the one way to start a pool;
//!   read its events from [`pipeline::PoolHandle::events`].
//! * **Feed** it [`batch::SynopsisBatch`]es interned on
//!   [`pipeline::PoolHandle::interner`]: a [`pipeline::BatchSink`] behind
//!   trackers in process, or, behind agents on the network,
//!   `saad_net::ReactorCollector::bind` (in the `saad-net` crate), which
//!   reads [`transport`] frames of [`codec`]-encoded synopses.
//! * **Train inline** from a simulated run: a [`pipeline::ModelSink`]
//!   builds the model as synopses are submitted; the run then detects
//!   through a pool like any other stream.
//! * **By hand**: [`detector::AnomalyDetector::observe_batch`] is the one
//!   way into a detector, and [`detector::AnomalyDetector::flush`] closes
//!   what is still open at the end of a run.
//! * **Report**: [`report::AnomalyReport`] renders
//!   [`detector::AnomalyEvent`]s with stage and log-point names.
//! * **Run the analyzer itself**: [`affinity`] pins shard threads, and
//!   [`selfmon`] tracks the pipeline's own stages.
//!
//! The `testkit` cargo feature adds `saad_core::testkit`: the per-row
//! reference paths (`reference_run`, the map classifier, the owned
//! whole-frame receive path) and the fixtures the tests share. It selects no
//! behaviour, and only `[dev-dependencies]` entries enable it.
//!
//! ## Quickstart
//!
//! ```
//! use saad_core::tracker::{TaskExecutionTracker, VecSink};
//! use saad_core::{HostId, StageRegistry};
//! use saad_logging::{Level, Logger, LogPointRegistry};
//! use saad_sim::{ManualClock, SimTime};
//! use std::sync::Arc;
//!
//! // 1. Instrumentation pass: register log points and stages.
//! let registry = Arc::new(LogPointRegistry::new());
//! let p_recv = registry.register("Receiving block blk_{}", Level::Info, "dx.rs", 10);
//! let stages = Arc::new(StageRegistry::new());
//! let dx = stages.register("DataXceiver");
//!
//! // 2. Wire the tracker between the server and the logger.
//! let clock = Arc::new(ManualClock::new());
//! let sink = Arc::new(VecSink::new());
//! let tracker = Arc::new(TaskExecutionTracker::new(
//!     HostId(0), clock.clone(), sink.clone()));
//! let logger = Logger::builder("DataXceiver")
//!     .interceptor(tracker.clone())
//!     .build();
//!
//! // 3. Stage code runs tasks between delimiters.
//! tracker.set_context(dx);
//! logger.info(p_recv, format_args!("Receiving block blk_1"));
//! clock.set(SimTime::from_millis(10));
//! tracker.end_task();
//!
//! let synopses = sink.drain();
//! assert_eq!(synopses.len(), 1);
//! assert_eq!(synopses[0].stage, dx);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod affinity;
pub mod batch;
pub mod codec;
pub mod detector;
pub mod feature;
mod ids;
pub mod intern;
pub mod model;
pub mod pipeline;
pub mod report;
pub mod selfmon;
mod signature;
pub mod simtask;
mod stage_registry;
pub mod store;
pub mod synopsis;
#[cfg(any(test, feature = "testkit"))]
pub mod testkit;
pub mod tracker;
pub mod transport;

pub use ids::{HostId, StageId, TaskUid, TenantId};
/// The log point id of `saad-logging`, re-exported because it is part of
/// this crate's interface (synopsis point lists, [`tracker::SynopsisSink`]):
/// a crate that implements a sink needs no dependency of its own for it.
pub use saad_logging::LogPointId;
pub use signature::Signature;
pub use stage_registry::StageRegistry;
