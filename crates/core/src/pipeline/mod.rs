//! Real-time streaming pipeline: tracker → batch sink → analyzer pool.
//!
//! In the paper, synopses are streamed from every node to a centralized
//! statistical analyzer that handles "streams of task synopses as fast as
//! they are generated, up to ... 1500 task synopses per second" on one
//! core. This module is that wiring for the live (threaded) runtime: one
//! threaded analyzer — the sharded pool — and one file per job.
//!
//! * `sink` — the producer edge: [`BatchSink`] behind trackers,
//!   [`feed_frame_soa`] behind a frame receiver, and the inline
//!   [`ModelSink`]/[`DetectorSink`] of the deterministic simulators. Both
//!   producers intern at the edge, against the consuming pool's interner,
//!   and put a transport gap on the batch that revealed it.
//!   [`BatchSink::bounded`] caps the queue to the analyzer; an
//!   [`OverloadPolicy`] decides what happens when it fills — in [`offer`],
//!   which the network agent's queue calls too — and every dropped
//!   synopsis is counted per host in [`SinkStats`]: monitoring never
//!   stalls the server and never discards silently.
//! * `supervise` — the panic boundary each shard's detector runs behind
//!   (restore from the latest snapshot, replay, skip the poison synopsis,
//!   up to [`SupervisorConfig::max_restarts`]) and the liveness table that
//!   turns a host silent for [`SupervisorConfig::silent_after`] windows
//!   into an explicit `HostSilent` event instead of a quiet gap.
//! * `pool` — [`spawn_analyzer_pool`], the one way to start a pool, over
//!   one ordered channel of batches: a router charges each batch's gaps,
//!   then partitions its rows by `hash(host, stage)` over supervised shard
//!   workers. All windowed detector state is keyed per `(host, stage)`,
//!   so sharding preserves the single-threaded event stream exactly (as a
//!   multiset).
//! * `lifecycle` — what a [`PoolStart::Store`] adds: durable checkpoints,
//!   crash recovery, bootstrap promotion and hot model swap. Spawn the
//!   pool first, then build its producers on [`PoolHandle::interner`] — a
//!   restored pool's interner is the checkpoint's, not a fresh one.
//! * `adapt` — the drift detector ([`AdaptPolicy`]) that triggers a
//!   lifecycle pool's swap by itself.

mod adapt;
mod lifecycle;
mod pool;
mod sink;
mod supervise;

pub use adapt::AdaptPolicy;
pub use lifecycle::{LifecycleConfig, LifecycleError, SwapReport};
pub use pool::{spawn_analyzer_pool, spawn_batch_analyzer_pool, PoolHandle, PoolStart};
pub use sink::{
    feed_frame_soa, offer, BatchSink, DetectorSink, DropCounters, DropCounts, ModelSink,
    OverloadPolicy, SinkStats,
};
pub use supervise::{AnalyzerError, SupervisorConfig};

#[cfg(test)]
/// Fixtures shared by the test modules of this directory's files.
mod testkit {
    use crate::batch::SynopsisBatch;
    use crate::detector::{AnomalyDetector, AnomalyEvent};
    use crate::intern::SignatureInterner;
    use crate::model::{ModelBuilder, ModelConfig, OutlierModel};
    use crate::synopsis::TaskSynopsis;
    use crate::transport::LossReport;
    use crate::{HostId, StageId, TaskUid};
    use saad_logging::LogPointId;
    use saad_sim::{SimDuration, SimTime};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, OnceLock};

    /// Self-cleaning unique temp directory (no tempfile crate).
    pub struct TempDir(std::path::PathBuf);

    impl TempDir {
        pub fn new() -> TempDir {
            static SEQ: AtomicUsize = AtomicUsize::new(0);
            let dir = std::env::temp_dir().join(format!(
                "saad-pipeline-test-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        pub fn path(&self) -> &std::path::Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    pub fn synopsis(points: &[u16], dur_us: u64, start: SimTime, uid: u64) -> TaskSynopsis {
        synopsis_on(0, points, dur_us, start, uid)
    }

    pub fn synopsis_on(
        host: u16,
        points: &[u16],
        dur_us: u64,
        start: SimTime,
        uid: u64,
    ) -> TaskSynopsis {
        TaskSynopsis {
            host: HostId(host),
            stage: StageId(0),
            uid: TaskUid(uid),
            start,
            duration: SimDuration::from_micros(dur_us),
            log_points: points.iter().map(|&p| (LogPointId(p), 1)).collect(),
        }
    }

    /// `synopses` as one SoA batch interned against `interner`.
    pub fn soa(synopses: &[TaskSynopsis], interner: &SignatureInterner) -> SynopsisBatch {
        let mut batch = SynopsisBatch::with_capacity(synopses.len());
        for s in synopses {
            batch.push_synopsis(s, interner);
        }
        batch
    }

    /// A batch with no rows that charges one gap: what a goodbye frame
    /// revealing a trailing gap puts on a pool's input.
    pub fn gap(report: LossReport) -> SynopsisBatch {
        let mut batch = SynopsisBatch::new();
        batch.losses.push(report);
        batch
    }

    /// Stage 0 with signature [1, 2] at ~1 ms.
    pub fn model() -> Arc<OutlierModel> {
        let mut b = ModelBuilder::new();
        for i in 0..5000u64 {
            b.observe(&synopsis(&[1, 2], 1_000 + (i % 53) * 5, SimTime::ZERO, i));
        }
        Arc::new(b.build(ModelConfig::default()))
    }

    /// A model covering stages 0 and 1 with [1,2] common and [1,2,3]
    /// rare, so [`mixed_stream`]'s anomalies are detectable. Built once.
    pub fn multi_stage_model() -> Arc<OutlierModel> {
        static MODEL: OnceLock<Arc<OutlierModel>> = OnceLock::new();
        let build = || {
            let mut b = ModelBuilder::new();
            for i in 0..20_000u64 {
                let mut s = if i.is_multiple_of(1000) {
                    synopsis(&[1, 2, 3], 1_000, SimTime::ZERO, i)
                } else {
                    synopsis(&[1, 2], 1_000 + (i % 53) * 5, SimTime::ZERO, i)
                };
                s.stage = StageId((i % 2) as u16);
                b.observe(&s);
            }
            Arc::new(b.build(ModelConfig::default()))
        };
        MODEL.get_or_init(build).clone()
    }

    /// A mixed stream over several hosts and stages: mostly healthy, plus
    /// a rare-signature surge on (host 1, stage 0) in minute 1 and a
    /// brand-new signature on (host 2, stage 1) in minute 2.
    pub fn mixed_stream() -> Vec<TaskSynopsis> {
        let mut out = Vec::new();
        let mut uid = 0u64;
        for minute in 0..4u64 {
            for i in 0..120u64 {
                let host = (i % 3) as u16;
                let stage = (i % 2) as u16;
                let points: &[u16] = if minute == 1 && host == 1 && stage == 0 && i % 4 == 0 {
                    &[1, 2, 3] // trained-rare surge
                } else if minute == 2 && host == 2 && stage == 1 && i == 7 {
                    &[9] // never trained
                } else {
                    &[1, 2]
                };
                let mut s = synopsis_on(host, points, 1_000, SimTime::ZERO, uid);
                s.stage = StageId(stage);
                s.start = SimTime::from_mins(minute) + SimDuration::from_millis(i * 450);
                out.push(s);
                uid += 1;
            }
        }
        out
    }

    /// Sorted Debug strings — order-insensitive event comparison.
    pub fn event_keys(events: &[AnomalyEvent]) -> Vec<String> {
        let mut keys: Vec<String> = events.iter().map(|e| format!("{e:?}")).collect();
        keys.sort_unstable();
        keys
    }

    /// THE reference every threaded path is compared with: one plain
    /// detector driven element by element in stream order — a batch's gap
    /// reports applied where they stand, then each row: advance to the
    /// stream's running-maximum watermark, observe. Batches are interned
    /// against the detector's own interner. Returns the events (final
    /// flush included) and the detector.
    pub fn reference_run(
        mut detector: AnomalyDetector,
        stream: &[SynopsisBatch],
    ) -> (Vec<AnomalyEvent>, AnomalyDetector) {
        let mut events = Vec::new();
        let mut watermark = SimTime::ZERO;
        for batch in stream {
            for r in &batch.losses {
                detector.record_loss(r.host, r.at, r.count);
            }
            for i in 0..batch.len() {
                let feature = batch.feature(i);
                watermark = watermark.max(feature.start);
                events.extend(detector.advance_watermark(watermark));
                events.extend(detector.observe_interned(&feature));
            }
        }
        events.extend(detector.flush());
        (events, detector)
    }
}
