//! Structure-of-arrays synopsis batches — the hot path's unit of work.
//!
//! The analyzer pool used to move one [`TaskSynopsis`] at a time: one
//! channel hop, one routing decision, one heap-allocated `log_points`
//! vector per task. At millions of synopses per second that per-element
//! overhead dominates (BENCH_analyzer_throughput.json plateaued at ~46%
//! parallel efficiency). A [`SynopsisBatch`] carries the same stream as
//! parallel columns of plain-old-data — one `SigId`, `HostId`, `StageId`,
//! duration, start, and watermark per element — built **once** at ingest
//! (frame decode in `saad-net`, or the in-process emit path) and reused
//! through routing, classification, and windowed accumulation without
//! any further per-synopsis allocation.
//!
//! Columns are append-only between [`SynopsisBatch::clear`] calls, and
//! `clear` keeps the column capacity, so a recycled batch reaches an
//! allocation-free steady state after the first few pushes.
//!
//! A batch is also the one ordered input of an analyzer pool: the transport
//! gaps its producer found ride in [`SynopsisBatch::losses`], ahead of the
//! rows, so where a gap is charged is part of the stream's content.

use crate::feature::InternedFeature;
use crate::intern::{SigId, SignatureInterner};
use crate::synopsis::TaskSynopsis;
use crate::transport::LossReport;
use crate::{HostId, StageId, TaskUid};
use saad_sim::SimTime;

/// A batch of task synopses in structure-of-arrays layout.
///
/// Every column has the same length; element `i` across all columns is
/// one interned synopsis. `watermarks[i]` is the stream watermark *after*
/// element `i` — the running maximum start time stamped by whoever built
/// the batch — so a consumer replaying the batch element by element
/// advances its clock exactly as the per-synopsis path did.
#[derive(Debug, Clone, Default)]
pub struct SynopsisBatch {
    /// Task execution uids.
    pub uids: Vec<TaskUid>,
    /// Hosts the tasks ran on.
    pub hosts: Vec<HostId>,
    /// Stages the tasks are instances of.
    pub stages: Vec<StageId>,
    /// Interned flow signatures.
    pub sigs: Vec<SigId>,
    /// Task durations in microseconds.
    pub durations_us: Vec<f64>,
    /// Task start times.
    pub starts: Vec<SimTime>,
    /// Stream watermark after each element (running max of starts).
    pub watermarks: Vec<SimTime>,
    /// Transport gaps that take effect before the first row: a consumer
    /// charges them, then observes the rows. Row operations leave them
    /// alone; [`SynopsisBatch::clear`] empties them.
    pub losses: Vec<LossReport>,
}

impl SynopsisBatch {
    /// An empty batch with no reserved capacity.
    #[must_use]
    pub fn new() -> SynopsisBatch {
        SynopsisBatch::default()
    }

    /// An empty batch with every column pre-sized for `capacity` elements.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> SynopsisBatch {
        SynopsisBatch {
            uids: Vec::with_capacity(capacity),
            hosts: Vec::with_capacity(capacity),
            stages: Vec::with_capacity(capacity),
            sigs: Vec::with_capacity(capacity),
            durations_us: Vec::with_capacity(capacity),
            starts: Vec::with_capacity(capacity),
            watermarks: Vec::with_capacity(capacity),
            losses: Vec::new(),
        }
    }

    /// Number of synopses in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    /// Whether the batch holds no synopses.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }

    /// Truncate every column to `len` elements (no-op when already
    /// shorter). Used by incremental decoders to roll back partially
    /// appended frames on a decode error.
    pub fn truncate(&mut self, len: usize) {
        self.uids.truncate(len);
        self.hosts.truncate(len);
        self.stages.truncate(len);
        self.sigs.truncate(len);
        self.durations_us.truncate(len);
        self.starts.truncate(len);
        self.watermarks.truncate(len);
    }

    /// Remove every element and gap report, keeping each column's capacity
    /// for reuse.
    pub fn clear(&mut self) {
        self.uids.clear();
        self.hosts.clear();
        self.stages.clear();
        self.sigs.clear();
        self.durations_us.clear();
        self.starts.clear();
        self.watermarks.clear();
        self.losses.clear();
    }

    /// Charge a gap of `count` synopses from `host` that the rows now in
    /// this batch revealed — the one stamp rule of every producer edge.
    /// The report takes effect before the first row and is stamped with
    /// its start; a batch without rows (a goodbye frame's) is stamped at
    /// `watermark`, the highest start its producer has admitted. A zero
    /// count charges nothing.
    pub fn reveal_gap(&mut self, host: HostId, count: u64, watermark: SimTime) {
        if count > 0 {
            let at = self.starts.first().copied().unwrap_or(watermark);
            self.losses.push(LossReport { host, at, count });
        }
    }

    /// Append one already-interned feature with its stream watermark.
    pub fn push_feature(&mut self, f: &InternedFeature, watermark: SimTime) {
        self.uids.push(f.uid);
        self.hosts.push(f.host);
        self.stages.push(f.stage);
        self.sigs.push(f.sig);
        self.durations_us.push(f.duration_us);
        self.starts.push(f.start);
        self.watermarks.push(watermark);
    }

    /// Append one synopsis, interning its signature through `interner`.
    /// The watermark column gets the running max of starts pushed so far
    /// (continuing from the last element already in the batch).
    pub fn push_synopsis(&mut self, synopsis: &TaskSynopsis, interner: &SignatureInterner) {
        let sig = interner.intern_synopsis(synopsis);
        let watermark = self
            .watermarks
            .last()
            .map_or(synopsis.start, |&w| w.max(synopsis.start));
        self.uids.push(synopsis.uid);
        self.hosts.push(synopsis.host);
        self.stages.push(synopsis.stage);
        self.sigs.push(sig);
        self.durations_us.push(synopsis.duration.as_micros() as f64);
        self.starts.push(synopsis.start);
        self.watermarks.push(watermark);
    }

    /// Reconstruct element `i` as an [`InternedFeature`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn feature(&self, i: usize) -> InternedFeature {
        InternedFeature {
            uid: self.uids[i],
            host: self.hosts[i],
            stage: self.stages[i],
            sig: self.sigs[i],
            duration_us: self.durations_us[i],
            start: self.starts[i],
        }
    }

    /// Append every element of `src`, preserving watermark stamps —
    /// seven column memcpys, no per-element work.
    pub fn extend_from(&mut self, src: &SynopsisBatch) {
        self.uids.extend_from_slice(&src.uids);
        self.hosts.extend_from_slice(&src.hosts);
        self.stages.extend_from_slice(&src.stages);
        self.sigs.extend_from_slice(&src.sigs);
        self.durations_us.extend_from_slice(&src.durations_us);
        self.starts.extend_from_slice(&src.starts);
        self.watermarks.extend_from_slice(&src.watermarks);
    }

    /// Copy element `i` of `src` into this batch, preserving its
    /// watermark stamp.
    ///
    /// # Panics
    ///
    /// Panics if `i >= src.len()`.
    pub fn push_from(&mut self, src: &SynopsisBatch, i: usize) {
        self.uids.push(src.uids[i]);
        self.hosts.push(src.hosts[i]);
        self.stages.push(src.stages[i]);
        self.sigs.push(src.sigs[i]);
        self.durations_us.push(src.durations_us[i]);
        self.starts.push(src.starts[i]);
        self.watermarks.push(src.watermarks[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saad_sim::SimDuration;

    fn synopsis(host: u16, stage: u16, uid: u64, start_us: u64, dur_us: u64) -> TaskSynopsis {
        TaskSynopsis {
            host: HostId(host),
            stage: StageId(stage),
            uid: TaskUid(uid),
            start: SimTime::from_micros(start_us),
            duration: SimDuration::from_micros(dur_us),
            log_points: vec![(saad_logging::LogPointId(1), 1)],
        }
    }

    #[test]
    fn push_synopsis_tracks_running_watermark() {
        let interner = SignatureInterner::new();
        let mut batch = SynopsisBatch::new();
        batch.push_synopsis(&synopsis(0, 1, 1, 50, 5), &interner);
        batch.push_synopsis(&synopsis(0, 1, 2, 30, 5), &interner);
        batch.push_synopsis(&synopsis(0, 1, 3, 90, 5), &interner);
        assert_eq!(batch.len(), 3);
        assert_eq!(
            batch.watermarks,
            vec![
                SimTime::from_micros(50),
                SimTime::from_micros(50),
                SimTime::from_micros(90)
            ]
        );
    }

    #[test]
    fn clear_keeps_capacity() {
        let interner = SignatureInterner::new();
        let mut batch = SynopsisBatch::with_capacity(8);
        for i in 0..8 {
            batch.push_synopsis(&synopsis(0, 1, i, i * 10, 5), &interner);
        }
        let caps = (batch.sigs.capacity(), batch.durations_us.capacity());
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!((batch.sigs.capacity(), batch.durations_us.capacity()), caps);
    }

    #[test]
    fn feature_round_trips() {
        let interner = SignatureInterner::new();
        let mut batch = SynopsisBatch::new();
        let s = synopsis(3, 2, 7, 120, 40);
        batch.push_synopsis(&s, &interner);
        let f = batch.feature(0);
        assert_eq!(f.host, HostId(3));
        assert_eq!(f.stage, StageId(2));
        assert_eq!(f.uid, TaskUid(7));
        assert_eq!(f.start, SimTime::from_micros(120));
        assert!((f.duration_us - 40.0).abs() < f64::EPSILON);
        assert_eq!(f.sig, interner.intern_synopsis(&s));
    }

    #[test]
    fn a_gap_is_stamped_at_the_first_row_or_the_watermark_and_only_clear_drops_it() {
        let interner = SignatureInterner::new();
        let at = SimTime::from_micros;
        let mut batch = SynopsisBatch::new();
        batch.reveal_gap(HostId(3), 0, at(5)); // nothing to charge
        batch.reveal_gap(HostId(3), 2, at(5)); // no rows yet: the watermark
        batch.push_synopsis(&synopsis(3, 1, 1, 70, 5), &interner);
        batch.push_synopsis(&synopsis(3, 1, 2, 40, 5), &interner);
        batch.reveal_gap(HostId(3), 4, at(90)); // the first row's start
        let report = |at, count| LossReport {
            host: HostId(3),
            at,
            count,
        };
        let charged = [report(at(5), 2), report(at(70), 4)];
        assert_eq!(batch.losses, charged);
        batch.truncate(0);
        batch.extend_from(&SynopsisBatch::new());
        assert_eq!(batch.losses, charged, "row operations leave reports alone");
        batch.clear();
        assert!(batch.losses.is_empty());
    }
}
