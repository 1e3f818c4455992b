//! The per-row reference paths and the fixtures the tests share.
//!
//! Compiled for this crate's own tests and under the `testkit` cargo
//! feature, which only `[dev-dependencies]` entries enable: no production
//! build contains any of it. A production caller has one way into a
//! detector, [`AnomalyDetector::observe_batch`]; a test has one reference
//! to hold it to, [`reference_run`].
//!
//! * [`reference_run`] drives one plain detector row by row, through
//!   [`AnomalyDetector::advance_watermark`] and
//!   [`AnomalyDetector::observe_interned`].
//! * [`FeatureVector`] is the paper's feature with its signature not
//!   interned: the input of the map classifier [`OutlierModel::classify`]
//!   that [`crate::model::CompiledModel::classify`] is held to.
//! * The owned whole-frame path, [`parse_frame`] → [`FrameReceiver::admit`]
//!   → [`feed_frame_soa`], is the reference the in-place receive paths of
//!   `saad-net` are held to. Built on [`check_frame`], the one synopsis
//!   parser and [`FrameReceiver::admit_meta`], it cannot drift from them.
//! * Fixtures: [`TempDir`], synopsis, model and stream builders, [`soa`],
//!   [`gap`] and [`event_keys`].

use crate::batch::SynopsisBatch;
use crate::codec::{CheckedPayload, DecodeError};
use crate::detector::{AnomalyDetector, AnomalyEvent};
use crate::feature::InternedFeature;
use crate::intern::SignatureInterner;
use crate::model::{ModelBuilder, ModelConfig, OutlierModel};
use crate::synopsis::TaskSynopsis;
use crate::transport::{check_frame, AdmitDecision, FrameError, FrameReceiver, LossReport};
use crate::{HostId, Signature, StageId, TaskUid};
use bytes::{Buf, Bytes};
use crossbeam_channel::Sender;
use saad_logging::LogPointId;
use saad_sim::{SimDuration, SimTime};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// THE reference every optimised analyzer path is held to: one plain
/// detector driven row by row in stream order — a batch's gap reports
/// applied where they stand, then per row: advance to the stream's
/// running-maximum watermark, observe. Batches are interned against the
/// detector's own interner. Returns the events (final flush included) and
/// the detector.
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

/// The analyzer's per-task feature vector (paper §3.3.1), its signature
/// not interned.
///
/// * **signature** captures the task's logical behaviour (which code paths
///   ran);
/// * **duration** (in integer microseconds, as the synopsis carries it)
///   captures its performance behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureVector {
    /// Unique id of the task execution.
    pub uid: TaskUid,
    /// Host the task ran on.
    pub host: HostId,
    /// Stage the task is an instance of.
    pub stage: StageId,
    /// Set of distinct log points visited.
    pub signature: Signature,
    /// Duration (start → last log point) in microseconds.
    pub duration_us: u64,
    /// Task start time, used for detection windowing.
    pub start: SimTime,
}

impl FeatureVector {
    /// The interned form of this feature: the signature is swapped for
    /// its dense id, interning it if never seen before.
    pub fn intern(&self, interner: &SignatureInterner) -> InternedFeature {
        InternedFeature {
            uid: self.uid,
            host: self.host,
            stage: self.stage,
            sig: interner.intern_sorted(self.signature.points()),
            duration_us: self.duration_us,
            start: self.start,
        }
    }
}

impl From<&TaskSynopsis> for FeatureVector {
    fn from(s: &TaskSynopsis) -> FeatureVector {
        FeatureVector {
            uid: s.uid,
            host: s.host,
            stage: s.stage,
            signature: s.signature(),
            duration_us: s.duration.as_micros(),
            start: s.start,
        }
    }
}

impl From<TaskSynopsis> for FeatureVector {
    fn from(s: TaskSynopsis) -> FeatureVector {
        FeatureVector::from(&s)
    }
}

/// Every synopsis of `payload`, owned: the payload checked as a leaf
/// checks it, then each row read back.
fn owned(payload: &[u8]) -> Result<Vec<TaskSynopsis>, DecodeError> {
    let mut marks = Vec::new();
    CheckedPayload::parse(payload, &mut marks).map(|checked| decode_checked(&checked))
}

/// Decode a one-synopsis payload (what [`crate::codec::encode`] makes),
/// consuming it.
///
/// # Errors
///
/// The parser's [`DecodeError`] on truncated or malformed input, or
/// [`DecodeError::UnexpectedEof`] on an empty one.
pub fn decode(buf: &mut Bytes) -> Result<TaskSynopsis, DecodeError> {
    let first = owned(buf)?.into_iter().next();
    buf.advance(buf.len());
    first.ok_or(DecodeError::UnexpectedEof)
}

/// Decode every synopsis of a payload, consuming it.
///
/// # Errors
///
/// The first [`DecodeError`].
pub fn decode_batch(buf: &mut Bytes) -> Result<Vec<TaskSynopsis>, DecodeError> {
    owned(buf).inspect(|_| buf.advance(buf.len()))
}

/// The synopses a checked payload holds, owned, every visit count
/// included.
pub fn decode_checked(checked: &CheckedPayload<'_>) -> Vec<TaskSynopsis> {
    let mut points = Vec::new();
    let each = (0..checked.starts().len()).map(|i| {
        checked.points(i, &mut points);
        checked.head(i).0.with_points(&points)
    });
    each.collect()
}

/// A frame that passed [`parse_frame`]: its header fields and its payload
/// decoded into owned synopses.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedFrame {
    /// Sending host.
    pub host: HostId,
    /// Frame sequence number.
    pub seq: u64,
    /// Cumulative synopses sent in frames before this one.
    pub cumulative: u64,
    /// Decoded payload.
    pub synopses: Vec<TaskSynopsis>,
}

/// [`check_frame`], then the payload decoded into owned synopses.
///
/// # Errors
///
/// The frame check's [`FrameError`], or [`FrameError::Codec`] for a
/// payload the parser refuses.
pub fn parse_frame(frame: &[u8]) -> Result<ParsedFrame, FrameError> {
    let (header, payload) = check_frame(frame)?;
    Ok(ParsedFrame {
        host: header.host,
        seq: header.seq,
        cumulative: header.cumulative,
        synopses: owned(payload).map_err(FrameError::Codec)?,
    })
}

/// What [`FrameReceiver::admit`] concluded about a parsed frame: an
/// [`AdmitDecision`] with the payload of a fresh frame (to process, the
/// gap it reveals beside it) or the number of a duplicate (to discard).
#[derive(Debug, Clone, PartialEq)]
pub enum FrameOutcome {
    /// A frame not seen before.
    Fresh {
        /// Sending host.
        host: HostId,
        /// Decoded payload.
        synopses: Vec<TaskSynopsis>,
        /// As [`AdmitDecision::Fresh`] reports it.
        newly_lost: u64,
    },
    /// A frame already delivered, or past the reorder horizon.
    Duplicate {
        /// Sending host.
        host: HostId,
        /// Its sequence number.
        seq: u64,
    },
}

impl FrameReceiver {
    /// [`parse_frame`] then [`FrameReceiver::admit`], counting a frame
    /// that fails as corrupted.
    ///
    /// # Errors
    ///
    /// The [`FrameError`] of a frame [`parse_frame`] refuses.
    pub fn accept(&mut self, frame: &[u8]) -> Result<FrameOutcome, FrameError> {
        let parsed = parse_frame(frame).inspect_err(|_| self.record_corrupted())?;
        Ok(self.admit(parsed))
    }

    /// Sequence a parsed frame through [`FrameReceiver::admit_meta`].
    pub fn admit(&mut self, parsed: ParsedFrame) -> FrameOutcome {
        let (host, seq, count) = (parsed.host, parsed.seq, parsed.synopses.len());
        match self.admit_meta(host, seq, parsed.cumulative, count as u64) {
            AdmitDecision::Fresh { newly_lost } => FrameOutcome::Fresh {
                host,
                synopses: parsed.synopses,
                newly_lost,
            },
            AdmitDecision::Duplicate => FrameOutcome::Duplicate { host, seq },
        }
    }
}

/// Feed one decoded transport frame into a pool's input as a **single**
/// send: the frame's synopses, interned into one [`SynopsisBatch`] against
/// the pool's interner, with the gap the frame reveals riding ahead of
/// them ([`SynopsisBatch::reveal_gap`]; `watermark`, the highest start its
/// collector has admitted, stamps the gap of a frame without synopses — a
/// leaf's goodbye). Returns the synopses forwarded; a duplicate frame,
/// already counted, yields nothing, and a frame with neither synopses nor
/// a gap sends nothing.
///
/// No collector calls this: the collector and the root decode each frame
/// in place from their rings. It is the whole-frame reference those
/// in-place paths are tested against (`parse_frame` → admit → this).
pub fn feed_frame_soa(
    outcome: FrameOutcome,
    batch_tx: &Sender<SynopsisBatch>,
    interner: &SignatureInterner,
    watermark: SimTime,
) -> usize {
    let FrameOutcome::Fresh {
        host,
        synopses,
        newly_lost,
    } = outcome
    else {
        return 0;
    };
    let mut batch = soa(&synopses, interner);
    batch.reveal_gap(host, newly_lost, watermark);
    if !batch.is_empty() || !batch.losses.is_empty() {
        let _ = batch_tx.send(batch);
    }
    synopses.len()
}

/// A directory under the system temp dir, removed on drop. It is named by
/// the process id, a process-wide counter and `tag`, so no two are the
/// same, within a process or across processes.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Create a fresh, empty directory.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created.
    pub fn new(tag: &str) -> TempDir {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("saad-{}-{n}-{tag}", std::process::id()));
        // A crashed run with the same pid may have left one behind.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create a temp dir");
        TempDir(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A task of host 0, stage 0, visiting each of `points` once.
pub fn synopsis(points: &[u16], dur_us: u64, start: SimTime, uid: u64) -> TaskSynopsis {
    synopsis_on(0, points, dur_us, start, uid)
}

/// A task of `host`, stage 0, visiting each of `points` once.
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

/// `synopses` as one batch interned against `interner` — for a pool's
/// input, the pool's own ([`PoolHandle::interner`]).
///
/// [`PoolHandle::interner`]: crate::pipeline::PoolHandle::interner
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

/// Stage 0 with signature `[1, 2]` at ~1 ms.
pub fn model() -> Arc<OutlierModel> {
    let mut b = ModelBuilder::new();
    for i in 0..5000u64 {
        b.observe(&synopsis(&[1, 2], 1_000 + (i % 53) * 5, SimTime::ZERO, i));
    }
    Arc::new(b.build(ModelConfig::default()))
}

/// A model covering stages 0 and 1 with `[1, 2]` common and `[1, 2, 3]` rare, so
/// [`mixed_stream`]'s anomalies are detectable. Built once.
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

/// A mixed stream over several hosts and stages: mostly healthy, plus a
/// rare-signature surge on (host 1, stage 0) in minute 1 and a brand-new
/// signature on (host 2, stage 1) in minute 2.
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

/// Sorted `Debug` strings: the order-insensitive form two event streams
/// are compared in (shards interleave on a pool's event channel).
pub fn event_keys(events: &[AnomalyEvent]) -> Vec<String> {
    let mut keys: Vec<String> = events.iter().map(|e| format!("{e:?}")).collect();
    keys.sort_unstable();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam_channel::unbounded;

    #[test]
    fn feature_vector_from_synopsis() {
        let s = TaskSynopsis {
            host: HostId(2),
            stage: StageId(9),
            uid: TaskUid(77),
            start: SimTime::from_millis(100),
            duration: SimDuration::from_micros(12_345),
            log_points: vec![(LogPointId(1), 3), (LogPointId(5), 1)],
        };
        let f = FeatureVector::from(&s);
        assert_eq!(f.uid, TaskUid(77));
        assert_eq!(f.stage, StageId(9));
        assert_eq!(f.duration_us, 12_345);
        assert_eq!(
            f.signature,
            Signature::from_points([LogPointId(1), LogPointId(5)])
        );
        // Owned conversion agrees.
        assert_eq!(FeatureVector::from(s), f);
    }

    #[test]
    fn interned_feature_agrees_with_feature_vector() {
        let s = synopsis_on(2, &[1, 5], 12_345, SimTime::from_millis(100), 77);
        let interner = SignatureInterner::new();
        let direct = InternedFeature::from_synopsis(&s, &interner);
        let via_vector = FeatureVector::from(&s).intern(&interner);
        assert_eq!(direct, via_vector);
        assert_eq!(interner.resolve(direct.sig), Some(s.signature()));
        assert_eq!(direct.duration_us, 12_345);
        assert_eq!(direct.start, SimTime::from_millis(100));
    }

    #[test]
    fn feed_frame_soa_puts_the_gap_on_its_batch_and_ignores_duplicates() {
        let frame = |synopses, newly_lost| FrameOutcome::Fresh {
            host: HostId(3),
            synopses,
            newly_lost,
        };
        let two = || {
            vec![
                synopsis_on(3, &[1, 2], 1_000, SimTime::from_secs(9), 0),
                synopsis_on(3, &[1, 2], 1_000, SimTime::from_secs(10), 1),
            ]
        };
        let dup = FrameOutcome::Duplicate {
            host: HostId(3),
            seq: 7,
        };
        let watermark = SimTime::from_secs(8);
        let interner = SignatureInterner::new();
        let (batch_tx, batch_rx) = unbounded();
        let feed = |outcome| feed_frame_soa(outcome, &batch_tx, &interner, watermark);
        let charged = |at, count| {
            let batch: SynopsisBatch = batch_rx.try_recv().unwrap();
            assert_eq!(
                batch.losses,
                [LossReport {
                    host: HostId(3),
                    at,
                    count
                }]
            );
            batch.len()
        };

        // The gap rides ahead of the synopses that revealed it, stamped
        // with the first one's start.
        assert_eq!(feed(frame(two(), 5)), 2);
        assert_eq!(charged(SimTime::from_secs(9), 5), 2);
        assert_eq!(feed(dup), 0);
        assert!(batch_rx.try_recv().is_err());

        // A frame with no synopses (a goodbye) still charges its gap — at
        // the collector's watermark, having no start of its own — and one
        // with no gap either sends nothing.
        assert_eq!(feed(frame(Vec::new(), 4)), 0);
        assert_eq!(charged(watermark, 4), 0, "a gap and no rows");
        assert_eq!(feed(frame(Vec::new(), 0)), 0);
        assert!(batch_rx.try_recv().is_err());
    }

    #[test]
    fn temp_dirs_are_distinct_and_removed_on_drop() {
        let (a, b) = (TempDir::new("same"), TempDir::new("same"));
        assert_ne!(a.path(), b.path());
        assert!(a.path().is_dir() && b.path().is_dir());
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
    }
}
