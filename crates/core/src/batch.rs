//! Structure-of-arrays synopsis batches — the hot path's unit of work.
//!
//! A [`SynopsisBatch`] carries a stream of [`TaskSynopsis`]es as parallel
//! columns of plain-old-data — one `SigId`, `HostId`, `StageId`,
//! duration, start, and watermark per element — built **once** at ingest
//! (frame decode in `saad-net`, or a `BatchSink` in process) and reused
//! through routing, classification, and windowed accumulation without
//! any further per-synopsis allocation: one channel hop and one routing
//! decision per batch, not per task.
//!
//! Columns are append-only between [`SynopsisBatch::clear`] calls, and
//! `clear` keeps the column capacity, so a reused batch reaches an
//! allocation-free steady state after the first few pushes.
//!
//! Batches recycle themselves. A dropped batch hands its emptied columns
//! to one bounded, process-wide spare list, and
//! [`SynopsisBatch::with_capacity`] and `clone` draw from it, so a batch
//! built on one thread and dropped on another — a decoded frame, a router
//! arena — costs no allocation once the list is warm, and no consumer
//! sends buffers back.
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
use std::mem::size_of;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A batch of task synopses in structure-of-arrays layout.
///
/// Every column has the same length; element `i` across all columns is
/// one interned synopsis. `watermarks[i]` is the stream watermark *after*
/// element `i` — the running maximum start time stamped by whoever built
/// the batch, re-stamped with the global one by a pool's router — which
/// [`AnomalyDetector::observe_batch`] advances to before counting the row.
///
/// Dropping a batch returns its columns to the spare list (see the module
/// docs), so no field can be moved out of one: take it instead, as in
/// `std::mem::take(&mut batch.losses)`.
///
/// [`AnomalyDetector::observe_batch`]: crate::detector::AnomalyDetector::observe_batch
#[derive(Debug, Default)]
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

/// Widest batch, in rows of column capacity, whose columns are kept when
/// it drops. Every steady-state batch is far narrower — a frame's rows, a
/// `BatchSink`'s `batch_len`, a router arena's share of one input batch —
/// while a replay tail's last batch or a whole capture runs to megabytes
/// and would sit on the list where no `with_capacity` asks for it.
const SPARE_MAX_ROWS: usize = 4_096;

/// Most bytes the spare list holds, each spare's columns and its slot in
/// the list counted: room for hundreds of frame-sized batches in flight
/// between a producer and its consumer, and a bound on what a burst of
/// drops leaves behind once it drains.
const SPARE_MAX_BYTES: usize = 4 << 20;

/// Emptied batches waiting for [`SynopsisBatch::with_capacity`], and the
/// bytes they hold.
struct Spares {
    batches: Vec<SynopsisBatch>,
    bytes: usize,
}

static SPARES: Mutex<Spares> = Mutex::new(Spares {
    batches: Vec::new(),
    bytes: 0,
});

/// The spare list, locked for one push or pop. A poisoned lock is taken
/// over: the list is whole between statements, and `Drop` must not panic.
fn spares() -> MutexGuard<'static, Spares> {
    SPARES.lock().unwrap_or_else(PoisonError::into_inner)
}

impl SynopsisBatch {
    /// An empty batch with no reserved capacity.
    #[must_use]
    pub fn new() -> SynopsisBatch {
        SynopsisBatch::default()
    }

    /// An empty batch with every column sized for at least `capacity`
    /// elements: a dropped batch's columns when one is waiting, fresh
    /// ones otherwise. A batch too wide to be kept takes no spare.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> SynopsisBatch {
        let spare = if capacity <= SPARE_MAX_ROWS {
            let mut spares = spares();
            let spare = spares.batches.pop();
            if let Some(batch) = &spare {
                spares.bytes -= batch.spare_bytes();
            }
            spare
        } else {
            None
        };
        let mut batch = spare.unwrap_or_default();
        batch.uids.reserve_exact(capacity);
        batch.hosts.reserve_exact(capacity);
        batch.stages.reserve_exact(capacity);
        batch.sigs.reserve_exact(capacity);
        batch.durations_us.reserve_exact(capacity);
        batch.starts.reserve_exact(capacity);
        batch.watermarks.reserve_exact(capacity);
        batch
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
    pub(crate) fn extend_from(&mut self, src: &SynopsisBatch) {
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

    /// Most rows any column has room for.
    fn row_capacity(&self) -> usize {
        [
            self.uids.capacity(),
            self.hosts.capacity(),
            self.stages.capacity(),
            self.sigs.capacity(),
            self.durations_us.capacity(),
            self.starts.capacity(),
            self.watermarks.capacity(),
        ]
        .into_iter()
        .max()
        .unwrap_or(0)
    }

    /// What this batch counts against the spare list's byte budget: its
    /// columns' capacity and its own slot in the list.
    fn spare_bytes(&self) -> usize {
        fn bytes<T>(column: &Vec<T>) -> usize {
            column.capacity() * size_of::<T>()
        }
        size_of::<SynopsisBatch>()
            + bytes(&self.uids)
            + bytes(&self.hosts)
            + bytes(&self.stages)
            + bytes(&self.sigs)
            + bytes(&self.durations_us)
            + bytes(&self.starts)
            + bytes(&self.watermarks)
            + bytes(&self.losses)
    }
}

/// A copy on a spare's columns when one is waiting: the same rows and the
/// same gap reports.
impl Clone for SynopsisBatch {
    fn clone(&self) -> SynopsisBatch {
        let mut copy = SynopsisBatch::with_capacity(self.len());
        copy.extend_from(self);
        copy.losses.extend_from_slice(&self.losses);
        copy
    }
}

/// A dropped batch, on whichever thread, goes onto the spare list cleared
/// with its capacity kept — unless it has no row capacity, is too wide,
/// or would take the list past its byte budget; then its columns are
/// freed as usual.
impl Drop for SynopsisBatch {
    fn drop(&mut self) {
        let rows = self.row_capacity();
        if rows == 0 || rows > SPARE_MAX_ROWS {
            return;
        }
        let bytes = self.spare_bytes();
        self.clear();
        let mut spares = spares();
        if spares.bytes + bytes <= SPARE_MAX_BYTES {
            spares.bytes += bytes;
            spares.batches.push(std::mem::take(self));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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

    fn feature(host: u16, uid: u64) -> InternedFeature {
        InternedFeature {
            uid: TaskUid(uid),
            host: HostId(host),
            stage: StageId((uid % 7) as u16),
            sig: SigId(uid as u32),
            duration_us: uid as f64 * 0.5,
            start: SimTime::from_micros(uid),
        }
    }

    /// A batch of `rows` rows and one gap report, as a producer leaves it.
    fn filled(rows: u64) -> SynopsisBatch {
        let mut batch = SynopsisBatch::with_capacity(rows as usize);
        for uid in 0..rows {
            batch.push_feature(&feature(1, uid), SimTime::from_micros(uid));
        }
        batch.reveal_gap(HostId(1), 2, SimTime::ZERO);
        batch
    }

    fn assert_empty(batch: &SynopsisBatch) {
        let lens = [
            batch.uids.len(),
            batch.hosts.len(),
            batch.stages.len(),
            batch.sigs.len(),
            batch.durations_us.len(),
            batch.starts.len(),
            batch.watermarks.len(),
            batch.losses.len(),
        ];
        assert_eq!(lens, [0; 8], "a drawn batch holds nothing");
    }

    /// The bytes on the spare list and the widest spare's row capacity.
    fn spare_stats() -> (usize, usize) {
        let spares = spares();
        let widest = spares.batches.iter().map(SynopsisBatch::row_capacity);
        (spares.bytes, widest.max().unwrap_or(0))
    }

    #[test]
    fn a_dropped_batch_comes_back_empty_in_every_column() {
        // The list is last in, first out, so the batch drawn is the one
        // just dropped unless a test on another thread came between.
        for rows in [1, 32, 256].repeat(100) {
            drop(filled(rows));
            assert_empty(&SynopsisBatch::with_capacity(rows as usize));
        }
    }

    #[test]
    fn the_spare_list_never_holds_more_than_its_budget() {
        // 10 000 batches of 16 rows hold about twice the budget.
        let batches: Vec<SynopsisBatch> = (0..10_000).map(|_| filled(16)).collect();
        for batch in batches {
            drop(batch);
            let (bytes, _) = spare_stats();
            assert!(bytes <= SPARE_MAX_BYTES, "{bytes} bytes on the list");
        }
    }

    #[test]
    fn a_batch_over_the_row_cap_is_freed_not_kept() {
        let wide = filled(SPARE_MAX_ROWS as u64 + 1);
        assert!(wide.row_capacity() > SPARE_MAX_ROWS);
        drop(wide);
        let (_, widest) = spare_stats();
        assert!(widest <= SPARE_MAX_ROWS, "a {widest}-row batch was kept");
    }

    #[test]
    fn four_threads_never_draw_a_batch_with_rows() {
        std::thread::scope(|scope| {
            for host in 0..4u16 {
                scope.spawn(move || {
                    for uid in 0..10_000u64 {
                        let mut batch = SynopsisBatch::with_capacity(1 + uid as usize % 64);
                        assert_empty(&batch);
                        batch.push_feature(&feature(host, uid), SimTime::ZERO);
                        batch.reveal_gap(HostId(host), 1, SimTime::ZERO);
                    }
                });
            }
        });
    }

    proptest! {
        /// A clone equals its original column by column and in its gap
        /// reports — with rows, with gap reports only, and empty.
        #[test]
        fn a_clone_equals_its_original(
            rows in proptest::collection::vec((0u16..4, 0u64..10_000), 0..300),
            gaps in proptest::collection::vec((0u16..4, 1u64..50), 0..4),
        ) {
            let mut batch = SynopsisBatch::new();
            for &(host, uid) in &rows {
                batch.push_feature(&feature(host, uid), SimTime::from_micros(uid / 2));
            }
            for &(host, count) in &gaps {
                batch.reveal_gap(HostId(host), count, SimTime::from_micros(count));
            }
            for _ in 0..3 {
                let copy = batch.clone();
                assert_eq!(
                    (&copy.uids, &copy.hosts, &copy.stages, &copy.sigs),
                    (&batch.uids, &batch.hosts, &batch.stages, &batch.sigs)
                );
                assert_eq!(
                    (&copy.durations_us, &copy.starts, &copy.watermarks, &copy.losses),
                    (&batch.durations_us, &batch.starts, &batch.watermarks, &batch.losses)
                );
                // Then with gap reports only (when there are any), then empty.
                if batch.is_empty() {
                    batch.clear();
                }
                batch.truncate(0);
            }
        }
    }
}
