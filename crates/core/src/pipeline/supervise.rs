//! Supervision of one detector: the panic boundary with snapshot/replay
//! recovery and poison-pill skipping that every pool shard runs behind, and
//! the per-host liveness table the pool's router keeps over the whole
//! stream.

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
#[derive(Debug, Clone, Copy, Default)]
struct HostLiveness {
    last_seen: SimTime,
    known: bool,
    flagged: bool,
}

/// Per-host liveness bookkeeping for the pool's router. Kept outside the
/// panic boundary so a detector crash cannot corrupt it.
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
    watermark: SimTime,
    /// Detection-window index of the last full silence scan. The
    /// all-hosts sweep is O(hosts), so it runs once per window boundary
    /// instead of once per synopsis: the silence threshold is a whole
    /// number of windows, and crossing it is only observable at window
    /// granularity anyway.
    scanned_window: u64,
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
        }
    }

    /// Note a synopsis from `host` at stream time `at`, appending to
    /// `events` one event per host that crossed the silence threshold. The
    /// all-hosts silence sweep runs only when the stream watermark crosses
    /// into a new detection window.
    #[inline]
    pub(super) fn observe(&mut self, host: HostId, at: SimTime, events: &mut Vec<AnomalyEvent>) {
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
        entry.flagged = false; // re-arm: the host is back
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
    }
}

/// Synopses of replay tail a restart may cost per open window the
/// restore copies. A snapshot deep-copies every open window (measured
/// ~100 ns each on `analyze_churn`'s ~2000 windows: a hash map and a
/// vector) while `observe_batch` spends ~25 ns per synopsis; at 64
/// synopses per window the copying amortises to under 2 ns per synopsis,
/// below a tenth of detection, and a restart's replay (64 × 25 ns per
/// window) stays within ~16× of the restore copy it follows. The tail
/// itself holds 40 bytes per synopsis, 2.5 KiB per open window.
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
    // Everything successfully applied since `snapshot` — each feature
    // with the global-stream watermark in force when it was observed —
    // for replay after a restart. Events from replay are suppressed
    // (they were already emitted before the crash). Kept in SoA form so
    // the batch hot path records a whole batch as column memcpys and a
    // restart replays it as one batch.
    replay: SynopsisBatch,
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
            replay: SynopsisBatch::new(),
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
        self.replay_losses.clear();
        self.obs
            .snapshot_us
            .record(began.elapsed().as_micros() as u64);
        self.obs.snapshots.fetch_add(1, Ordering::Relaxed);
    }

    /// Bookkeeping after a successful observation: snapshot once the
    /// replay tail has reached `max(SNAPSHOT_FLOOR, 64 × open windows)`.
    fn after_observe(&mut self) {
        let tail = self.replay.len() as u64;
        let per_state = REPLAY_PER_OPEN_WINDOW.saturating_mul(self.detector.open_windows() as u64);
        if tail >= SNAPSHOT_FLOOR.max(per_state) {
            self.take_snapshot();
        }
        self.obs
            .replay_tail
            .store(self.replay.len() as u64, Ordering::Relaxed);
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

    /// Rebuild the detector from the latest snapshot and replay the
    /// since-snapshot tail as one batch, losses first. Replayed events
    /// are suppressed — they were already emitted before the crash.
    fn restore_from_snapshot(&mut self) {
        self.detector = self.snapshot.clone();
        for &(report, watermark) in &self.replay_losses {
            self.detector
                .record_loss_at(report.host, report.at, report.count, watermark);
        }
        let _ = self
            .detector
            .observe_batch(&self.replay, &mut self.verdicts);
    }

    /// Observe a whole SoA batch — the pool shard hot path — behind the
    /// panic boundary. A panic leaves the detector partly mutated: it is
    /// rolled back to the latest snapshot, uncounted, and the batch runs
    /// again through the same boundary one row at a time, so the restart
    /// and the skip are charged to the poison row alone. That row is
    /// skipped, not retried: a deterministic poison pill would otherwise
    /// crash-loop the analyzer. Only an exhausted restart budget is a
    /// terminal error.
    pub(super) fn observe_batch(
        &mut self,
        batch: &SynopsisBatch,
    ) -> Result<Vec<AnomalyEvent>, AnalyzerError> {
        if let Ok(events) = self.try_batch(batch) {
            self.received += batch.len() as u64;
            self.replay.extend_from(batch);
            self.after_observe();
            return Ok(events);
        }
        self.restore_from_snapshot();
        let (mut events, mut row) = (Vec::new(), SynopsisBatch::new());
        for i in 0..batch.len() {
            row.clear();
            row.push_from(batch, i);
            let outcome = self.try_batch(&row);
            self.received += 1;
            match outcome {
                Ok(row_events) => {
                    events.extend(row_events);
                    self.replay.extend_from(&row);
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
            events.extend(supervised.observe_batch(&rows(stream, from..to)).unwrap());
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

    #[test]
    fn restart_replays_the_tail_as_one_batch_whatever_is_open() {
        // Over 1 000 open windows and a tail the snapshot schedule has
        // stretched to tens of thousands of synopses: a restart must cost
        // what one `observe_batch` over the tail costs, not one
        // open-window visit per replayed synopsis.
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
            supervised.observe_batch(&rows(&stream, from..to)).unwrap();
        }
        assert!(supervised.detector.open_windows() >= 1_000);
        assert!(
            supervised.replay.len() >= 20_000,
            "tail {}",
            supervised.replay.len()
        );
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
            let _ = d.observe_batch(&supervised.replay, &mut verdicts);
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
}
