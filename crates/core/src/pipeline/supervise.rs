//! Supervision of one detector: the panic boundary with snapshot/replay
//! recovery and poison-pill skipping that every pool shard runs behind, and
//! the per-host liveness table and global watermark the pool's router
//! keeps over the whole stream.

use crate::batch::SynopsisBatch;
use crate::detector::{AnomalyDetector, AnomalyEvent, AnomalyKind};
use crate::model::{CompiledModel, OutlierModel, VerdictMask};
use crate::transport::LossReport;
use crate::{HostId, StageId};
use saad_obs::Histogram;
use saad_sim::{SimDuration, SimTime};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Why an analyzer pool failed to return its detectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalyzerError {
    /// A pool thread panicked outside the panic boundary.
    Panicked(String),
    /// A shard exhausted its restart budget.
    RestartsExhausted {
        /// Restarts consumed before giving up.
        restarts: u32,
        /// Message of the final panic.
        panic: String,
    },
}

impl fmt::Display for AnalyzerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzerError::Panicked(msg) => write!(f, "analyzer thread panicked: {msg}"),
            AnalyzerError::RestartsExhausted { restarts, panic } => write!(
                f,
                "analyzer gave up after {restarts} restart(s); last panic: {panic}"
            ),
        }
    }
}

impl std::error::Error for AnalyzerError {}

pub(super) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Tuning for an analyzer pool's liveness tracking and shard placement.
/// Supervision has no settings: its snapshot floor and restart budget are
/// constants.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// A host with no synopses for more than this many detection windows
    /// (while other hosts advance the stream clock) raises
    /// [`AnomalyKind::HostSilent`].
    pub silent_after: u64,
    /// Pin each pool shard thread to the logical CPU matching its shard
    /// index (see [`crate::affinity::pin_current_thread`]). Strictly an
    /// optimization — keeps per-shard window maps cache-resident — and a
    /// refused pin (unsupported platform, seccomp, too few CPUs) silently
    /// falls back to normal scheduling with identical semantics.
    pub pin_shards: bool,
    /// Fault injection: panic inside the supervised region while
    /// processing each of these synopses (1-based ordinals of what the
    /// shard has received, skipped poison included).
    #[cfg(any(test, feature = "testkit"))]
    pub panic_at: Vec<u64>,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            silent_after: 3,
            pin_shards: false,
            #[cfg(any(test, feature = "testkit"))]
            panic_at: Vec::new(),
        }
    }
}

fn host_silent_event(host: HostId, last_seen: SimTime, windows: u64) -> AnomalyEvent {
    AnomalyEvent {
        host,
        stage: StageId::NONE,
        window_start: last_seen,
        kind: AnomalyKind::HostSilent { windows },
        p_value: None,
        outliers: 0,
        window_tasks: 0,
        completeness: 0.0,
    }
}

/// One host's slot in the [`LivenessTracker`] table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct HostLiveness {
    last_seen: SimTime,
    known: bool,
    flagged: bool,
}

/// Per-host liveness and the global stream watermark, kept by the pool's
/// router outside the panic boundary so a detector crash cannot corrupt
/// them.
#[derive(Debug)]
pub(super) struct LivenessTracker {
    /// Detection window width, in stream microseconds (at least 1).
    window_us: u64,
    /// Stream microseconds of silence past which a host is flagged.
    threshold_us: u64,
    /// Indexed by the `u16` host id, grown to the highest id seen: the
    /// per-synopsis touch is one bounds check and two stores, no hashing.
    hosts: Vec<HostLiveness>,
    /// Ids with a live slot, in first-seen order — what the silence sweep
    /// walks, so sparse ids cost it nothing.
    known: Vec<HostId>,
    /// The global stream watermark: the running maximum of task starts.
    watermark: SimTime,
    /// Detection-window index of the last full silence scan. The
    /// all-hosts sweep is O(hosts), so it runs once per window boundary
    /// instead of once per synopsis: the silence threshold is a whole
    /// number of windows, and crossing it is only observable at window
    /// granularity anyway.
    scanned_window: u64,
    /// First stream microsecond of the window after `scanned_window`: a
    /// start at or past it is the one that triggers the next sweep.
    next_window_us: u64,
}

impl LivenessTracker {
    /// A tracker flagging hosts silent for more than `silent_after`
    /// detection windows of width `window`.
    pub(super) fn new(window: SimDuration, silent_after: u64) -> LivenessTracker {
        let window_us = window.as_micros().max(1);
        LivenessTracker {
            window_us,
            threshold_us: window_us.saturating_mul(silent_after),
            hosts: Vec::new(),
            known: Vec::new(),
            watermark: SimTime::ZERO,
            scanned_window: 0,
            next_window_us: window_us,
        }
    }

    /// The global stream watermark: the highest start stamped so far.
    pub(super) fn watermark(&self) -> SimTime {
        self.watermark
    }

    /// Stamp `batch` in one pass over its `hosts` and `starts`: note each
    /// row's host as seen at its start, write the running-maximum
    /// watermark into `watermarks` in place, and at each row whose start
    /// first enters a new detection window sweep every host, appending to
    /// `events` one event per host that crossed the silence threshold.
    pub(super) fn stamp(&mut self, batch: &mut SynopsisBatch, events: &mut Vec<AnomalyEvent>) {
        let rows = batch.hosts.iter().zip(&batch.starts);
        for ((&host, &at), stamp) in rows.zip(&mut batch.watermarks) {
            let slot = usize::from(host.0);
            if slot >= self.hosts.len() {
                self.grow(slot);
            }
            let entry = &mut self.hosts[slot];
            if !entry.known {
                entry.known = true;
                self.known.push(host);
            }
            entry.last_seen = at;
            entry.flagged = false; // re-arm: the host is back
            self.watermark = self.watermark.max(at);
            if at.as_micros() >= self.next_window_us {
                self.sweep(at, events);
            }
            *stamp = self.watermark;
        }
    }

    /// Widen the host table to hold `slot`.
    #[cold]
    fn grow(&mut self, slot: usize) {
        self.hosts.resize(slot + 1, HostLiveness::default());
    }

    /// The silence sweep at `at`, a start that entered a window past the
    /// last one scanned.
    #[cold]
    fn sweep(&mut self, at: SimTime, events: &mut Vec<AnomalyEvent>) {
        let index = at.as_micros() / self.window_us;
        // The next boundary saturates at the end of time; past it no
        // start enters a later window.
        if index <= self.scanned_window {
            return;
        }
        self.scanned_window = index;
        self.next_window_us = (index + 1).saturating_mul(self.window_us);
        for &h in &self.known {
            let entry = &mut self.hosts[usize::from(h.0)];
            if entry.flagged {
                continue;
            }
            let seen = entry.last_seen;
            let silent_for = at.as_micros().saturating_sub(seen.as_micros());
            if silent_for > self.threshold_us {
                entry.flagged = true;
                events.push(host_silent_event(h, seen, silent_for / self.window_us));
            }
        }
    }

    /// The row-by-row reference [`LivenessTracker::stamp`] is held to:
    /// note a synopsis from `host` at stream time `at`, appending to
    /// `events` one event per host that crossed the silence threshold,
    /// and return the watermark to stamp it with.
    #[cfg(test)]
    fn observe(&mut self, host: HostId, at: SimTime, events: &mut Vec<AnomalyEvent>) -> SimTime {
        let slot = usize::from(host.0);
        if slot >= self.hosts.len() {
            self.hosts.resize(slot + 1, HostLiveness::default());
        }
        let entry = &mut self.hosts[slot];
        if !entry.known {
            entry.known = true;
            self.known.push(host);
        }
        entry.last_seen = at;
        entry.flagged = false;
        if at > self.watermark {
            self.watermark = at;
            let index = at.as_micros() / self.window_us;
            if index > self.scanned_window {
                self.scanned_window = index;
                for &h in &self.known {
                    let entry = &mut self.hosts[usize::from(h.0)];
                    if entry.flagged {
                        continue;
                    }
                    let seen = entry.last_seen;
                    let silent_for = at.as_micros().saturating_sub(seen.as_micros());
                    if silent_for > self.threshold_us {
                        entry.flagged = true;
                        events.push(host_silent_event(h, seen, silent_for / self.window_us));
                    }
                }
            }
        }
        self.watermark
    }
}

/// Synopses of replay tail a restart may cost per open window the
/// restore copies. A snapshot deep-copies every open window: an
/// accumulator and its slot-indexed group counters, timed (clone and
/// drop) by `micro`'s `detector/hosts/256/snapshot` on 2 560 open windows,
/// the nearest row to `analyze_churn`'s ~2 000, at 93–113 ns each (three
/// runs, 2-vCPU VM). `observe_batch` spends ~18 ns per synopsis on
/// `analyze_churn`, so at 64 synopses per window the copying amortises to
/// 1.5–1.8 ns per synopsis, under a tenth of detection, and a restart's
/// replay (64 × 18 ns per window) costs 10–12× the restore copy it follows.
/// The tail holds the kept batches' columns: 40 bytes per synopsis in a
/// full batch, 2.5 KiB per open window.
const REPLAY_PER_OPEN_WINDOW: u64 = 64;

/// Floor on the synopses observed between two restart snapshots: the
/// supervisor snapshots once the replay tail holds
/// `max(SNAPSHOT_FLOOR, REPLAY_PER_OPEN_WINDOW × open windows)`. With
/// few windows open a snapshot is cheap, and a 256-synopsis tail (10 KiB)
/// keeps one from being taken every batch.
pub(super) const SNAPSHOT_FLOOR: u64 = 256;

/// Restarts a shard may take before it gives up with
/// [`AnalyzerError::RestartsExhausted`]. Each restart skips one poison
/// synopsis; a fourth fault in one shard's lifetime means something other
/// than a stray bad input, and crash-looping would hide it.
pub(super) const MAX_RESTARTS: u32 = 3;

/// Supervision counters of one detector, written by its own thread with
/// relaxed stores and read at scrape time.
#[derive(Debug, Clone, Default)]
pub(super) struct SupervisionObs {
    /// Restarts after a panic, and the poison synopses they skipped.
    pub(super) restarts: Arc<AtomicU64>,
    pub(super) skipped: Arc<AtomicU64>,
    pub(super) snapshots: Arc<AtomicU64>,
    pub(super) replay_tail: Arc<AtomicU64>,
    /// The detector's [`AnomalyDetector::late_seen`].
    pub(super) late: Arc<AtomicU64>,
    /// Wall-clock microseconds per restart snapshot.
    pub(super) snapshot_us: Arc<Histogram>,
}

/// What every pool shard worker runs: a detector behind a panic boundary
/// with snapshot/replay recovery and poison-pill skipping.
///
/// Liveness tracking stays with the caller — it must see the full stream
/// (the pool's router does; a shard only sees its slice).
pub(super) struct SupervisedDetector {
    detector: AnomalyDetector,
    /// The restart point: a clone of the detector.
    snapshot: AnomalyDetector,
    // Everything successfully applied since `snapshot` — the batches
    // observed, each row stamped with the global-stream watermark in
    // force when it was observed, and the gap reports — for replay after
    // a restart. Events from replay are suppressed (they were already
    // emitted before the crash). The batches are the ones the shard was
    // handed, kept whole: the hot path records a batch by moving it, not
    // by copying its rows.
    replay: Vec<SynopsisBatch>,
    /// Rows across `replay`: what the snapshot rule counts.
    replay_rows: u64,
    replay_losses: Vec<(LossReport, SimTime)>,
    verdicts: VerdictMask,
    restarts_used: u32,
    received: u64,
    obs: SupervisionObs,
    /// [`SupervisorConfig::panic_at`].
    #[cfg(any(test, feature = "testkit"))]
    pub(super) panic_at: Vec<u64>,
}

impl SupervisedDetector {
    pub(super) fn new(detector: AnomalyDetector, obs: SupervisionObs) -> SupervisedDetector {
        let snapshot = detector.clone();
        SupervisedDetector {
            detector,
            snapshot,
            replay: Vec::new(),
            replay_rows: 0,
            replay_losses: Vec::new(),
            verdicts: VerdictMask::new(),
            restarts_used: 0,
            received: 0,
            obs,
            #[cfg(any(test, feature = "testkit"))]
            panic_at: Vec::new(),
        }
    }

    /// Apply a transport gap report that took effect when the global
    /// stream watermark stood at `watermark` (see
    /// [`AnomalyDetector::record_loss_at`]).
    pub(super) fn record_loss(&mut self, report: LossReport, watermark: SimTime) {
        self.detector
            .record_loss_at(report.host, report.at, report.count, watermark);
        self.replay_losses.push((report, watermark));
    }

    /// Make the detector's present state the restart point and drop the
    /// replay tail it supersedes.
    fn take_snapshot(&mut self) {
        let began = Instant::now();
        self.snapshot = self.detector.clone();
        self.replay.clear();
        self.replay_rows = 0;
        self.replay_losses.clear();
        self.obs
            .snapshot_us
            .record(began.elapsed().as_micros() as u64);
        self.obs.snapshots.fetch_add(1, Ordering::Relaxed);
    }

    /// Bookkeeping after a successful observation: snapshot once the
    /// replay tail has reached `max(SNAPSHOT_FLOOR, 64 × open windows)`.
    fn after_observe(&mut self) {
        let per_state = REPLAY_PER_OPEN_WINDOW.saturating_mul(self.detector.open_windows() as u64);
        if self.replay_rows >= SNAPSHOT_FLOOR.max(per_state) {
            self.take_snapshot();
        }
        self.obs
            .replay_tail
            .store(self.replay_rows, Ordering::Relaxed);
        self.obs
            .late
            .store(self.detector.late_seen(), Ordering::Relaxed);
    }

    /// The one panic boundary: [`AnomalyDetector::observe_batch`] over
    /// `batch`, whose rows follow the `received` already counted. An
    /// injected fault whose ordinal falls in the batch is raised inside
    /// it, so it takes the rollback path a real one does.
    fn try_batch(&mut self, batch: &SynopsisBatch) -> std::thread::Result<Vec<AnomalyEvent>> {
        #[cfg(any(test, feature = "testkit"))]
        let inject = {
            let (from, len) = (self.received, batch.len() as u64);
            let mut hits = self.panic_at.iter().copied();
            hits.find(|&n| n > from && n <= from + len)
        };
        let (detector, verdicts) = (&mut self.detector, &mut self.verdicts);
        catch_unwind(AssertUnwindSafe(|| {
            #[cfg(any(test, feature = "testkit"))]
            if let Some(n) = inject {
                panic!("injected analyzer fault at synopsis {n}");
            }
            detector.observe_batch(batch, verdicts)
        }))
    }

    /// Keep an observed batch in the replay tail.
    fn keep(&mut self, batch: SynopsisBatch) {
        self.replay_rows += batch.len() as u64;
        self.replay.push(batch);
    }

    /// Rebuild the detector from the latest snapshot and replay the
    /// since-snapshot tail, losses first, then the kept batches in order.
    /// Replayed events are suppressed — they were already emitted before
    /// the crash.
    fn restore_from_snapshot(&mut self) {
        self.detector = self.snapshot.clone();
        for &(report, watermark) in &self.replay_losses {
            self.detector
                .record_loss_at(report.host, report.at, report.count, watermark);
        }
        for batch in &self.replay {
            let _ = self.detector.observe_batch(batch, &mut self.verdicts);
        }
    }

    /// Observe a whole SoA batch — the pool shard hot path — behind the
    /// panic boundary, and keep it in the replay tail. A panic leaves the
    /// detector partly mutated: it is rolled back to the latest snapshot,
    /// uncounted, and the batch runs again through the same boundary one
    /// row at a time, so the restart and the skip are charged to the
    /// poison row alone. That row is skipped, not retried: a
    /// deterministic poison pill would otherwise crash-loop the analyzer.
    /// Only an exhausted restart budget is a terminal error.
    pub(super) fn observe_batch(
        &mut self,
        batch: SynopsisBatch,
    ) -> Result<Vec<AnomalyEvent>, AnalyzerError> {
        if let Ok(events) = self.try_batch(&batch) {
            self.received += batch.len() as u64;
            self.keep(batch);
            self.after_observe();
            return Ok(events);
        }
        self.restore_from_snapshot();
        let (mut events, mut row) = (Vec::new(), SynopsisBatch::new());
        for i in 0..batch.len() {
            row.clear();
            row.push_from(&batch, i);
            let outcome = self.try_batch(&row);
            self.received += 1;
            match outcome {
                Ok(row_events) => {
                    events.extend(row_events);
                    // Rows that pass join the tail's last batch, so a
                    // restart later replays them as one run.
                    match self.replay.last_mut() {
                        Some(last) => {
                            last.push_from(&row, 0);
                            self.replay_rows += 1;
                        }
                        None => self.keep(row.clone()),
                    }
                    self.after_observe();
                }
                Err(payload) => {
                    self.restarts_used += 1;
                    if self.restarts_used > MAX_RESTARTS {
                        return Err(AnalyzerError::RestartsExhausted {
                            restarts: self.restarts_used - 1,
                            panic: panic_message(payload.as_ref()),
                        });
                    }
                    self.obs.restarts.fetch_add(1, Ordering::Relaxed);
                    self.obs.skipped.fetch_add(1, Ordering::Relaxed);
                    self.restore_from_snapshot();
                }
            }
        }
        Ok(events)
    }

    /// Advance the detector to the global-stream watermark (closing stale
    /// windows) without observing anything — the end-of-stream broadcast.
    pub(super) fn advance(&mut self, watermark: SimTime) -> Vec<AnomalyEvent> {
        self.detector.advance_watermark(watermark)
    }

    /// Snapshot the detector for a durable checkpoint. Also refreshes the
    /// restart snapshot: state persisted to disk is exactly the state a
    /// panic would restore, and the replay tail never straddles a
    /// checkpoint.
    pub(super) fn checkpoint_snapshot(&mut self) -> AnomalyDetector {
        self.take_snapshot();
        self.snapshot.clone()
    }

    /// Install a new model (hot swap, or bootstrap promotion), first
    /// advancing to the swap watermark so pre-swap windows close under the
    /// rates they accumulated against. The restart snapshot is refreshed —
    /// a panic after the swap must not resurrect the old model.
    pub(super) fn install(
        &mut self,
        model: Arc<OutlierModel>,
        compiled: Arc<CompiledModel>,
        watermark: SimTime,
    ) -> Vec<AnomalyEvent> {
        let mut events = self.detector.advance_watermark(watermark);
        events.extend(self.detector.install_model(model, compiled));
        self.take_snapshot();
        events
    }

    /// Close all open windows and hand the detector back.
    pub(super) fn finish(mut self) -> (Vec<AnomalyEvent>, AnomalyDetector) {
        let events = self.detector.flush();
        (events, self.detector)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::DetectorConfig;
    use crate::intern::SignatureInterner;
    use crate::testkit::{multi_stage_model, synopsis_on};
    use bytes::BytesMut;
    use proptest::prelude::TestRunner;
    use std::time::Duration;

    /// A stream over `hosts × 2` `(host, stage)` pairs, 40 000 synopses
    /// to the one-minute window, so two windows' worth of pairs are open
    /// at any time; stamped with its own running-max watermark as the
    /// router would. A rare-signature surge on host 1 and the odd
    /// never-trained signature make window closes emit events.
    fn wide_stream(hosts: u64, n: u64, interner: &SignatureInterner) -> SynopsisBatch {
        let mut batch = SynopsisBatch::with_capacity(n as usize);
        for i in 0..n {
            let host = (i % hosts) as u16;
            let points: &[u16] = if host == 1 && i % 3 == 0 {
                &[1, 2, 3]
            } else if i % 4_999 == 0 {
                &[9]
            } else {
                &[1, 2]
            };
            let mut s = synopsis_on(host, points, 1_000, SimTime::from_micros(i * 1_500), i);
            s.stage = StageId(((i / hosts) % 2) as u16);
            batch.push_synopsis(&s, interner);
        }
        batch
    }

    /// Rows `range` of `batch`, as a batch.
    fn rows(batch: &SynopsisBatch, range: std::ops::Range<usize>) -> SynopsisBatch {
        let mut out = SynopsisBatch::with_capacity(range.len());
        for i in range {
            out.push_from(batch, i);
        }
        out
    }

    /// Feed `stream` to a supervised detector in batches of 512; returns
    /// the events, the detector, the ordinal after which the first
    /// restart snapshot was taken, and the open windows it copied.
    fn run_supervised(
        stream: &SynopsisBatch,
        detector: AnomalyDetector,
        panic_at: Vec<u64>,
        obs: &SupervisionObs,
    ) -> (Vec<AnomalyEvent>, AnomalyDetector, Option<(u64, usize)>) {
        let mut supervised = SupervisedDetector::new(detector, obs.clone());
        supervised.panic_at = panic_at;
        let mut events = Vec::new();
        let mut first_snapshot = None;
        for from in (0..stream.len()).step_by(512) {
            let to = (from + 512).min(stream.len());
            events.extend(supervised.observe_batch(rows(stream, from..to)).unwrap());
            if first_snapshot.is_none() && obs.snapshots.load(Ordering::Relaxed) > 0 {
                first_snapshot = Some((to as u64, supervised.detector.open_windows()));
            }
        }
        let (tail, detector) = supervised.finish();
        events.extend(tail);
        (events, detector, first_snapshot)
    }

    #[test]
    fn restart_before_and_after_a_stretched_snapshot_loses_only_the_poison() {
        let model = multi_stage_model();
        let interner = Arc::new(SignatureInterner::new());
        let compiled = Arc::new(model.compile(&interner));
        let fresh = || {
            AnomalyDetector::with_shared(
                model.clone(),
                compiled.clone(),
                interner.clone(),
                DetectorConfig::default(),
            )
        };
        let stream = wide_stream(600, 200_000, &interner);
        // A run without a fault tells where the first snapshot falls.
        let obs = SupervisionObs::default();
        let (_, _, first) = run_supervised(&stream, fresh(), Vec::new(), &obs);
        let (first_at, copied) = first.expect("200 000 synopses outlast the first snapshot");
        assert!(copied >= 1_000, "{copied} open windows");
        assert!(
            first_at >= REPLAY_PER_OPEN_WINDOW * 500,
            "first snapshot at {first_at}: not stretched over the open windows"
        );
        assert_eq!(obs.restarts.load(Ordering::Relaxed), 0);

        // Mid-batch before and after the first snapshot; the first and the
        // last row of a batch; a row of the batch that takes the first
        // snapshot, which the row-by-row pass takes before the poison.
        for poison in [
            first_at / 2,
            first_at + 700,
            3 * 512 + 1,
            4 * 512,
            first_at - 1,
        ] {
            let obs = SupervisionObs::default();
            let (events, detector, _) = run_supervised(&stream, fresh(), vec![poison], &obs);
            assert_eq!(
                obs.restarts.load(Ordering::Relaxed),
                1,
                "poison at {poison}"
            );
            assert_eq!(obs.skipped.load(Ordering::Relaxed), 1, "poison at {poison}");
            // Never crashed, never saw the poison synopsis (ordinals are
            // 1-based); every other row keeps its watermark stamp.
            let mut reference = fresh();
            let at = poison as usize - 1;
            let mut verdicts = VerdictMask::new();
            let mut expected = reference.observe_batch(&rows(&stream, 0..at), &mut verdicts);
            expected.extend(
                reference.observe_batch(&rows(&stream, at + 1..stream.len()), &mut verdicts),
            );
            expected.extend(reference.flush());
            assert!(expected.len() >= 20, "{} events", expected.len());
            assert_eq!(events, expected, "poison at {poison}");
            assert_eq!(detector.tasks_seen(), stream.len() as u64 - 1);
        }
    }

    /// The tail's batches end to end, as one batch.
    fn concatenated(tail: &[SynopsisBatch]) -> SynopsisBatch {
        let mut whole = SynopsisBatch::new();
        for batch in tail {
            whole.extend_from(batch);
        }
        whole
    }

    #[test]
    fn restart_replays_the_tail_of_batches_whatever_is_open() {
        // Over 1 000 open windows and a tail the snapshot schedule has
        // stretched to tens of thousands of synopses in dozens of kept
        // batches: a restart must cost what one `observe_batch` over the
        // concatenated tail costs, not one open-window visit per replayed
        // synopsis, nor one per kept batch.
        let model = multi_stage_model();
        let interner = Arc::new(SignatureInterner::new());
        let compiled = Arc::new(model.compile(&interner));
        let detector = AnomalyDetector::with_shared(
            model,
            compiled,
            interner.clone(),
            DetectorConfig::default(),
        );
        let stream = wide_stream(600, 110_000, &interner);
        let mut supervised = SupervisedDetector::new(detector, SupervisionObs::default());
        for from in (0..stream.len()).step_by(512) {
            let to = (from + 512).min(stream.len());
            supervised.observe_batch(rows(&stream, from..to)).unwrap();
        }
        assert!(supervised.detector.open_windows() >= 1_000);
        let whole = concatenated(&supervised.replay);
        assert!(whole.len() >= 20_000, "tail {}", whole.len());
        assert!(
            supervised.replay.len() >= 40,
            "{} kept batches",
            supervised.replay.len()
        );
        assert_eq!(supervised.replay_rows, whole.len() as u64);
        let before = supervised.detector.clone();
        let fastest = |work: &mut dyn FnMut()| {
            (0..5)
                .map(|_| {
                    let began = Instant::now();
                    work();
                    began.elapsed()
                })
                .min()
                .expect("five runs")
        };
        let restart = fastest(&mut || supervised.restore_from_snapshot());
        let mut verdicts = VerdictMask::new();
        let batch = fastest(&mut || {
            let mut d = supervised.snapshot.clone();
            let _ = d.observe_batch(&whole, &mut verdicts);
        });
        assert!(
            restart < batch * 4 + Duration::from_millis(2),
            "restart {restart:?} against one batch replay {batch:?}"
        );
        // And it lands exactly where the detector stood.
        let mut restored = BytesMut::new();
        supervised.detector.encode_into(&mut restored);
        let mut original = BytesMut::new();
        before.encode_into(&mut original);
        assert_eq!(&restored[..], &original[..]);
    }

    #[test]
    fn a_snapshot_after_turnover_copies_the_open_windows_and_no_spare_bucket() {
        // 80 (host, stage) pairs report in minutes 0 and 1, half of them in
        // minute 2: minute 2 runs in minute 0's recycled bucket, with 40
        // entries that count nothing, and the advance past minute 1 leaves
        // its bucket spare. The restart copy holds the open windows only,
        // and resumes exactly where the detector stands. One task in seven
        // is never-trained, so every window closes with an event.
        let model = multi_stage_model();
        let interner = Arc::new(SignatureInterner::new());
        let compiled = Arc::new(model.compile(&interner));
        let config = DetectorConfig::default();
        let detector = AnomalyDetector::with_shared(model, compiled, interner.clone(), config);
        let mut supervised = SupervisedDetector::new(detector, SupervisionObs::default());
        let minute = |m: u64| {
            let hosts = if m == 2 { 20 } else { 40 };
            let mut batch = SynopsisBatch::new();
            for i in 0..hosts * 10 {
                let at = SimTime::from_mins(m) + SimDuration::from_millis(i);
                let points: &[u16] = if i % 7 == 0 { &[9] } else { &[1, 2] };
                let mut s = synopsis_on((i % hosts) as u16, points, 1_000, at, m * 1_000 + i);
                s.stage = StageId((i / hosts % 2) as u16);
                batch.push_synopsis(&s, &interner);
            }
            batch
        };
        for m in 0..3 {
            supervised.observe_batch(minute(m)).unwrap();
        }
        supervised.advance(SimTime::from_mins(3));
        let detector = &supervised.detector;
        assert_eq!(detector.open_windows(), 40);
        assert!(detector.spare_window_rows() >= 80);

        supervised.take_snapshot();
        let (detector, snapshot) = (&supervised.detector, &supervised.snapshot);
        assert_eq!(snapshot.open_windows(), detector.open_windows());
        assert_eq!(snapshot.spare_window_rows(), 0);
        let (mut copied, mut original) = (BytesMut::new(), BytesMut::new());
        snapshot.encode_into(&mut copied);
        detector.encode_into(&mut original);
        assert_eq!(&copied[..], &original[..]);
        let (mut restored, mut verdicts) = (snapshot.clone(), VerdictMask::new());
        let mut resumed = restored.observe_batch(&minute(4), &mut verdicts);
        resumed.extend(restored.flush());
        let mut expected = supervised.detector.observe_batch(&minute(4), &mut verdicts);
        expected.extend(supervised.detector.flush());
        assert!(!expected.is_empty());
        assert_eq!(resumed, expected);
        assert_eq!(restored.tasks_seen(), supervised.detector.tasks_seen());
    }

    #[test]
    fn a_poison_row_in_the_third_tail_batch_costs_only_itself() {
        // Five batches of 100 on 40 hosts stay below the snapshot floor's
        // worth of open windows, so all of them sit in the tail; a gap
        // report rides between the first two. The fault hits row 37 of the
        // third batch: the restart replays the two kept batches (losses
        // first) and the third's rows before the poison, skips it, and
        // goes on.
        let model = multi_stage_model();
        let interner = Arc::new(SignatureInterner::new());
        let compiled = Arc::new(model.compile(&interner));
        let fresh = || {
            AnomalyDetector::with_shared(
                model.clone(),
                compiled.clone(),
                interner.clone(),
                DetectorConfig::default(),
            )
        };
        let stream = wide_stream(40, 500, &interner);
        let batches: Vec<_> = (0..5)
            .map(|b| rows(&stream, b * 100..(b + 1) * 100))
            .collect();
        let report = LossReport {
            host: HostId(3),
            at: SimTime::from_millis(100),
            count: 5,
        };
        let poison = 2 * 100 + 37; // 1-based ordinal of the row skipped

        let obs = SupervisionObs::default();
        let mut supervised = SupervisedDetector::new(fresh(), obs.clone());
        supervised.panic_at = vec![poison as u64];
        let mut events = Vec::new();
        for (b, batch) in batches.iter().enumerate() {
            if b == 1 {
                supervised.record_loss(report, stream.watermarks[99]);
            }
            events.extend(supervised.observe_batch(batch.clone()).unwrap());
            if b == 2 {
                assert_eq!(obs.restarts.load(Ordering::Relaxed), 1);
                assert_eq!(obs.snapshots.load(Ordering::Relaxed), 0);
                // The third batch's rows that passed joined the second.
                assert_eq!(supervised.replay.len(), 2);
                assert_eq!(supervised.replay_rows, 299);
            }
        }
        let (tail, detector) = supervised.finish();
        events.extend(tail);
        assert_eq!(obs.skipped.load(Ordering::Relaxed), 1);

        // The per-row reference: every row but the poison, each advanced
        // to its stamp and observed alone, the report at its position.
        let mut reference = fresh();
        let mut expected = Vec::new();
        for (b, batch) in batches.iter().enumerate() {
            if b == 1 {
                let (host, at, count) = (report.host, report.at, report.count);
                reference.record_loss_at(host, at, count, stream.watermarks[99]);
            }
            for i in 0..batch.len() {
                if b * 100 + i + 1 == poison {
                    continue;
                }
                expected.extend(reference.advance_watermark(batch.watermarks[i]));
                expected.extend(reference.observe_interned(&batch.feature(i)));
            }
        }
        expected.extend(reference.flush());
        assert!(
            !expected.is_empty(),
            "the stream should close windows with events"
        );
        assert_eq!(events, expected);
        let (mut got, mut want) = (BytesMut::new(), BytesMut::new());
        detector.encode_into(&mut got);
        reference.encode_into(&mut want);
        assert_eq!(&got[..], &want[..]);
        assert_eq!(detector.tasks_seen(), 499);
        assert_eq!(detector.tasks_lost(), 5);
    }

    /// What the liveness cases reached, summed over them.
    #[derive(Debug, Default)]
    struct Reached {
        /// Batches whose stamp pass crossed two or more window boundaries.
        multi_window_batches: usize,
        /// Hosts seen again after being flagged silent.
        returns: usize,
        /// `HostSilent` events for host `u16::MAX`.
        top_id_silent: usize,
        /// Rows starting exactly on a window boundary.
        on_boundary: usize,
    }

    /// One seeded case of the liveness property: a stream on sparse host
    /// ids (0 and `u16::MAX` among them), starts on a grid of
    /// quarter-windows so many fall exactly on a boundary, the clock
    /// mostly creeping and sometimes jumping up to three windows, one row
    /// in eight a straggler; cut into batches of 0–47 rows; stamped by
    /// one tracker a batch at a time and by the row-by-row oracle.
    fn stamp_case(runner: &mut TestRunner, reached: &mut Reached) -> Result<(), String> {
        let mut draw = |n: u64| runner.next_u64() % n;
        let mut hosts = vec![0u16, u16::MAX];
        hosts.extend((0..1 + draw(5)).map(|_| 1 + draw(u64::from(u16::MAX) - 1) as u16));
        let quarter = 250 * (1 + draw(10));
        let window = SimDuration::from_micros(4 * quarter);
        let silent_after = 1 + draw(3);
        let (mut pass, mut oracle) = (
            LivenessTracker::new(window, silent_after),
            LivenessTracker::new(window, silent_after),
        );
        let interner = SignatureInterner::new();
        let (rows, mut clock, mut uid) = (1 + draw(400), 0u64, 0u64);
        let mut flagged = std::collections::HashSet::new();
        while uid < rows {
            let mut batch = SynopsisBatch::new();
            for _ in 0..draw(48).min(rows - uid) {
                clock += quarter * if draw(8) == 0 { draw(13) } else { draw(3) };
                let back = if draw(8) == 0 { quarter * draw(9) } else { 0 };
                let at = SimTime::from_micros(clock.saturating_sub(back));
                reached.on_boundary +=
                    usize::from(at.as_micros().is_multiple_of(window.as_micros()));
                // Host 0 keeps the clock; the rest come and go.
                let host = if draw(3) == 0 {
                    0
                } else {
                    hosts[draw(hosts.len() as u64) as usize]
                };
                let s = synopsis_on(host, &[1, 2], 1_000, at, uid);
                batch.push_synopsis(&s, &interner);
                uid += 1;
            }
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let stamps: Vec<SimTime> = (0..batch.len())
                .map(|i| {
                    let host = batch.hosts[i];
                    reached.returns += usize::from(flagged.remove(&host));
                    let before = want.len();
                    let stamp = oracle.observe(host, batch.starts[i], &mut want);
                    flagged.extend(want[before..].iter().map(|e| e.host));
                    stamp
                })
                .collect();
            let scanned = pass.scanned_window;
            pass.stamp(&mut batch, &mut got);
            reached.multi_window_batches += usize::from(pass.scanned_window >= scanned + 2);
            reached.top_id_silent += got.iter().filter(|e| e.host.0 == u16::MAX).count();
            if batch.watermarks != stamps {
                return Err(format!("stamps {:?}, oracle {stamps:?}", batch.watermarks));
            }
            if got != want {
                return Err(format!("events {got:?}, oracle {want:?}"));
            }
        }
        if (pass.hosts != oracle.hosts) || (pass.known != oracle.known) {
            return Err(format!(
                "host table {:?}, oracle {:?}",
                pass.hosts, oracle.hosts
            ));
        }
        if (pass.watermark, pass.scanned_window) != (oracle.watermark, oracle.scanned_window) {
            return Err(format!(
                "watermark {:?} window {}, oracle {:?} window {}",
                pass.watermark, pass.scanned_window, oracle.watermark, oracle.scanned_window
            ));
        }
        Ok(())
    }

    #[test]
    fn one_stamp_pass_per_batch_equals_the_row_by_row_tracker() {
        // 512 seeded cases: the same stamp on every row, the same
        // `HostSilent` events out of every batch in the same order, and
        // the same host table, watermark and scanned window at the end.
        let mut reached = Reached::default();
        for seed in 0..512 {
            let mut runner = TestRunner::from_seed(seed);
            if let Err(why) = stamp_case(&mut runner, &mut reached) {
                panic!("seed {seed}: {why}");
            }
        }
        // The inputs reached what the property is about.
        assert!(reached.multi_window_batches >= 1_000, "{reached:?}");
        assert!(reached.returns >= 1_000, "{reached:?}");
        assert!(reached.top_id_silent >= 100, "{reached:?}");
        assert!(reached.on_boundary >= 1_000, "{reached:?}");
    }
}
