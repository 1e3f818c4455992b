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
//!                                                 │ windowed t-tests
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
//! ## Quickstart
//!
//! ```
//! use saad_core::prelude::*;
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
mod fasthash;
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
pub mod tracker;
pub mod transport;

pub use ids::{HostId, StageId, TaskUid, TenantId};
/// The log point id of `saad-logging`, re-exported because it is part of
/// this crate's interface (synopsis point lists, [`tracker::SynopsisSink`]):
/// a crate that implements a sink needs no dependency of its own for it.
pub use saad_logging::LogPointId;
pub use signature::Signature;
pub use stage_registry::StageRegistry;

/// Convenient glob import of the commonly used types.
pub mod prelude {
    pub use crate::batch::SynopsisBatch;
    pub use crate::detector::{AnomalyDetector, AnomalyEvent, AnomalyKind, DetectorConfig};
    pub use crate::feature::{FeatureVector, InternedFeature};
    pub use crate::intern::{SigId, SignatureInterner};
    pub use crate::model::{
        CompiledModel, ConfigError, ModelBuilder, ModelConfig, OutlierModel, TaskClass, VerdictMask,
    };
    pub use crate::selfmon::{MetaMonitor, MetaStage};
    pub use crate::store::{Checkpoint, CheckpointError, CheckpointStore, Recovery};
    pub use crate::synopsis::TaskSynopsis;
    pub use crate::tracker::{SynopsisSink, TaskExecutionTracker, TrackerMetrics, VecSink};
    pub use crate::{HostId, Signature, StageId, StageRegistry, TaskUid, TenantId};
}
