//! The task execution tracker — the thin layer between server code and the
//! logging library (paper §3.2, §4.1).
//!
//! The tracker identifies tasks at runtime from **stage delimiters** and
//! tracks execution flow by intercepting log calls:
//!
//! * **Producer-consumer stages** (thread pools looping over a request
//!   queue) call [`TaskExecutionTracker::set_context`] at the top of the
//!   loop. Starting a new task implicitly terminates the previous one —
//!   exactly the paper's termination inference for this model.
//! * **Dispatcher-worker stages** (spawned worker threads) hold a
//!   [`TaskGuard`]; dropping the guard at the end of `run()` emits the
//!   synopsis. This is the RAII equivalent of the paper's
//!   `finalize()`-based termination inference through garbage collection.
//!
//! Tasks live in thread-local storage (as in the paper) keyed by tracker
//! instance, so multiple simulated hosts can share one driver thread and
//! real servers can run many threads per tracker.

use crate::intern::INLINE_POINTS;
use crate::synopsis::{SynopsisHead, TaskSynopsis};
use crate::{HostId, StageId, TaskUid};
use parking_lot::Mutex;
use saad_logging::{Interceptor, Level, LogPointId};
use saad_obs::{Counter, Histogram, Registry};
use saad_sim::{Clock, SimTime};
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Destination for completed task synopses.
///
/// In the paper synopses are streamed to a centralized analyzer; the
/// pipeline module provides a channel-backed sink, while [`VecSink`]
/// buffers in memory for training-trace collection and tests.
pub trait SynopsisSink: Send + Sync {
    /// Accept one completed synopsis.
    fn submit(&self, synopsis: TaskSynopsis);

    /// Accept one completed synopsis as its head and a borrowed point
    /// list (ascending by point id) — what the tracker calls. The default
    /// builds the owned [`TaskSynopsis`], `log_points` at exact size, and
    /// passes it to [`SynopsisSink::submit`]; a sink that consumes the
    /// fields on the spot (encoding, counting) overrides this and is
    /// handed a task without a heap allocation anywhere on the way.
    fn submit_parts(&self, head: SynopsisHead, points: &[(LogPointId, u32)]) {
        self.submit(head.with_points(points));
    }
}

/// A sink that buffers synopses in memory (training traces, tests).
#[derive(Debug, Default)]
pub struct VecSink {
    synopses: Mutex<Vec<TaskSynopsis>>,
}

impl VecSink {
    /// Create an empty sink.
    pub fn new() -> VecSink {
        VecSink::default()
    }

    /// Number of buffered synopses.
    pub fn len(&self) -> usize {
        self.synopses.lock().len()
    }

    /// Whether the sink is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove and return all buffered synopses.
    pub fn drain(&self) -> Vec<TaskSynopsis> {
        std::mem::take(&mut *self.synopses.lock())
    }

    /// Clone of the buffered synopses.
    pub fn snapshot(&self) -> Vec<TaskSynopsis> {
        self.synopses.lock().clone()
    }
}

impl SynopsisSink for VecSink {
    fn submit(&self, synopsis: TaskSynopsis) {
        self.synopses.lock().push(synopsis);
    }
}

/// A sink that counts and discards (overhead benchmarking).
#[derive(Debug, Default)]
pub struct NullSink {
    count: AtomicU64,
}

impl NullSink {
    /// Create a sink with a zeroed counter.
    pub fn new() -> NullSink {
        NullSink::default()
    }

    /// Synopses discarded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

impl SynopsisSink for NullSink {
    fn submit(&self, _synopsis: TaskSynopsis) {
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    // Overridden so that a tracker measured against this sink is charged
    // for tracking, not for building a synopsis nobody reads.
    fn submit_parts(&self, _head: SynopsisHead, _points: &[(LogPointId, u32)]) {
        self.count.fetch_add(1, Ordering::Relaxed);
    }
}

/// A task's `log point id -> frequency` map: ascending by point id, the
/// first [`INLINE_POINTS`] distinct points in place, the whole list moved
/// to one heap vector only by a task that visits more (the shape
/// `intern_synopsis` and `decode_batch_into` use for point ids). A task
/// within the inline size never touches the allocator.
#[derive(Debug)]
struct PointCounts {
    /// Entries in `inline`; unused once `spill` holds the list.
    len: usize,
    inline: [(LogPointId, u32); INLINE_POINTS],
    /// Empty (and unallocated) until the inline array overflows.
    spill: Vec<(LogPointId, u32)>,
}

impl PointCounts {
    fn new() -> PointCounts {
        PointCounts {
            len: 0,
            inline: [(LogPointId(0), 0); INLINE_POINTS],
            spill: Vec::new(),
        }
    }

    /// Empty the map, keeping a spill buffer for a later long task.
    fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }

    fn as_slice(&self) -> &[(LogPointId, u32)] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    #[inline]
    fn visit(&mut self, point: LogPointId) {
        // Tasks visit few distinct points, so a search of the short sorted
        // list beats a HashMap here.
        let spilled = !self.spill.is_empty();
        let list = if spilled {
            &mut self.spill[..]
        } else {
            &mut self.inline[..self.len]
        };
        match list.binary_search_by_key(&point, |&(p, _)| p) {
            Ok(i) => list[i].1 += 1,
            Err(i) if !spilled && self.len < INLINE_POINTS => {
                self.inline.copy_within(i..self.len, i + 1);
                self.inline[i] = (point, 1);
                self.len += 1;
            }
            Err(i) => {
                if !spilled {
                    self.spill.reserve(2 * INLINE_POINTS);
                    self.spill.extend_from_slice(&self.inline);
                }
                self.spill.insert(i, (point, 1));
            }
        }
    }
}

/// Per-task in-memory record, kept in thread-local storage while the task
/// runs. Mirrors the paper's map of `log point id -> frequency` plus the
/// stage id, unique id, and start timestamp.
///
/// Always boxed: with its points in place a record is ~200 bytes, and a
/// task changes hands — thread slot, [`SuspendedTask`], emit — by pointer.
/// The box outlives the task: a finished task's record waits in the
/// thread's [`ThreadTasks::idle`] list for the next task begun there.
#[derive(Debug)]
struct ActiveTask {
    stage: StageId,
    uid: TaskUid,
    start: SimTime,
    last_visit: SimTime,
    points: PointCounts,
}

/// What one thread keeps for the trackers it serves.
struct ThreadTasks {
    /// Active tasks per tracker instance on this thread, keyed by tracker
    /// id so multiple simulated hosts can share one driver thread. A tiny
    /// linear-scanned vec: a thread rarely serves more than a handful of
    /// trackers, and the scan beats hashing on the per-log-point hot path.
    active: Vec<(u64, Box<ActiveTask>)>,
    /// Records of tasks that ended on this thread, at most
    /// [`IDLE_RECORDS`], reused by whichever task begins here next.
    // Boxed although in a `Vec`: a record moves between here, `active` and
    // a `SuspendedTask` as a pointer, never as its ~200 bytes.
    #[allow(clippy::vec_box)]
    idle: Vec<Box<ActiveTask>>,
}

/// Most finished-task records a thread keeps. A thread needs as many as
/// it has tasks in progress at once (active and suspended); past this
/// bound a record is freed and the next task allocates one.
const IDLE_RECORDS: usize = 16;

thread_local! {
    static TASKS: RefCell<ThreadTasks> = const {
        RefCell::new(ThreadTasks {
            active: Vec::new(),
            idle: Vec::new(),
        })
    };
}

// The per-task methods here and `PointCounts::visit` are `#[inline]`:
// their callers are `TASKS.with` closures, which the compiler may place in
// another codegen unit of this crate, and without the hint an unrelated
// edit elsewhere in the crate has stopped them being inlined (~15 ns a
// task).
impl ThreadTasks {
    /// A record for a task of `stage` beginning at `now`: a reused one
    /// if any is idle.
    #[inline]
    fn begin(&mut self, stage: StageId, uid: TaskUid, now: SimTime) -> Box<ActiveTask> {
        match self.idle.pop() {
            Some(mut task) => {
                task.stage = stage;
                task.uid = uid;
                task.start = now;
                task.last_visit = now;
                task.points.clear();
                task
            }
            None => Box::new(ActiveTask {
                stage,
                uid,
                start: now,
                last_visit: now,
                points: PointCounts::new(),
            }),
        }
    }

    /// Make `task` the active task of tracker `id`; returns the one it
    /// replaces.
    #[inline]
    fn insert(&mut self, id: u64, task: Box<ActiveTask>) -> Option<Box<ActiveTask>> {
        match self.active.iter_mut().find(|(k, _)| *k == id) {
            Some(slot) => Some(std::mem::replace(&mut slot.1, task)),
            None => {
                self.active.push((id, task));
                None
            }
        }
    }

    /// Take out the active task of tracker `id` — only if it is `uid`,
    /// when one is given.
    #[inline]
    fn remove(&mut self, id: u64, uid: Option<TaskUid>) -> Option<Box<ActiveTask>> {
        self.active
            .iter()
            .position(|(k, t)| *k == id && uid.is_none_or(|uid| t.uid == uid))
            .map(|i| self.active.swap_remove(i).1)
    }

    /// Keep the record of a task that is over.
    #[inline]
    fn retire(&mut self, task: Box<ActiveTask>) {
        if self.idle.len() < IDLE_RECORDS {
            self.idle.push(task);
        }
    }
}

static NEXT_TRACKER_ID: AtomicU64 = AtomicU64::new(0);

/// Hot-path instruments for a tracker's emit path.
///
/// Recording is two relaxed atomic adds per completed task (counter
/// increment + histogram sample), which keeps the tracker inside the
/// paper's <1% overhead budget — see the `obs_overhead` bench.
#[derive(Debug)]
pub struct TrackerMetrics {
    emitted: Arc<Counter>,
    task_duration_us: Arc<Histogram>,
}

impl TrackerMetrics {
    /// Register the tracker instrument family for `host` in `registry`.
    pub fn register(registry: &Registry, host: HostId) -> TrackerMetrics {
        let host_label = host.0.to_string();
        let labels = [("host", host_label.as_str())];
        TrackerMetrics {
            emitted: registry.register_counter(
                "saad_tracker_synopses_emitted_total",
                "Task synopses emitted by the tracker",
                &labels,
            ),
            task_duration_us: registry.register_histogram(
                "saad_tracker_task_duration_us",
                "Tracked task duration (start to last log point) in microseconds",
                &labels,
            ),
        }
    }
}

/// The task execution tracker: ~50 lines of logic in the paper, sitting
/// between the server code and the logging library.
///
/// Implements [`saad_logging::Interceptor`], so wiring it up is one call to
/// [`saad_logging::LoggerBuilder::interceptor`].
pub struct TaskExecutionTracker {
    id: u64,
    host: HostId,
    clock: Arc<dyn Clock>,
    sink: Arc<dyn SynopsisSink>,
    next_uid: AtomicU64,
    completed: AtomicU64,
    untracked_visits: AtomicU64,
    metrics: Option<TrackerMetrics>,
}

impl fmt::Debug for TaskExecutionTracker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskExecutionTracker")
            .field("host", &self.host)
            .field("completed", &self.completed.load(Ordering::Relaxed))
            .finish()
    }
}

impl TaskExecutionTracker {
    /// Create a tracker for `host`, timestamping with `clock` and emitting
    /// synopses to `sink`.
    pub fn new(
        host: HostId,
        clock: Arc<dyn Clock>,
        sink: Arc<dyn SynopsisSink>,
    ) -> TaskExecutionTracker {
        TaskExecutionTracker {
            id: NEXT_TRACKER_ID.fetch_add(1, Ordering::Relaxed),
            host,
            clock,
            sink,
            next_uid: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            untracked_visits: AtomicU64::new(0),
            metrics: None,
        }
    }

    /// Like [`TaskExecutionTracker::new`], but recording emit rate and
    /// task durations into the instruments of `metrics` on every
    /// completed task.
    pub fn with_metrics(
        host: HostId,
        clock: Arc<dyn Clock>,
        sink: Arc<dyn SynopsisSink>,
        metrics: TrackerMetrics,
    ) -> TaskExecutionTracker {
        let mut tracker = TaskExecutionTracker::new(host, clock, sink);
        tracker.metrics = Some(metrics);
        tracker
    }

    /// Expose this tracker's bookkeeping counters (tasks completed,
    /// untracked log-point visits) as scrape-time metrics in
    /// `registry`. Zero hot-path cost: the counters already exist and
    /// are only read when scraped.
    ///
    /// The closures hold the tracker weakly: a tracker owns its
    /// [`SynopsisSink`], and a long-lived registry owning the tracker
    /// would keep that sink's channel open after the tracker is dropped,
    /// wedging analyzer shutdown. Scrapes after drop read zero.
    pub fn register_metrics(self: &Arc<Self>, registry: &Registry) {
        let host_label = self.host.0.to_string();
        let labels = [("host", host_label.as_str())];
        let completed = Arc::downgrade(self);
        registry.register_counter_fn(
            "saad_tracker_tasks_completed_total",
            "Tasks completed (synopses emitted) by the tracker",
            &labels,
            move || completed.upgrade().map_or(0, |t| t.completed()),
        );
        let untracked = Arc::downgrade(self);
        registry.register_counter_fn(
            "saad_tracker_untracked_visits_total",
            "Log point visits outside any delimited task (missing stage delimiters)",
            &labels,
            move || untracked.upgrade().map_or(0, |t| t.untracked_visits()),
        );
    }

    /// The host this tracker tags synopses with.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Stage delimiter (the paper's `setContext(int stageId)`): the calling
    /// thread is about to execute a new task of `stage`.
    ///
    /// If a task is already active on this thread it is finalized first —
    /// the producer-consumer termination inference: "if a task synopsis
    /// data structure is already initialized in thread private storage, it
    /// indicates that the thread is finished with the previous task".
    ///
    /// Returns the new task's uid.
    pub fn set_context(&self, stage: StageId) -> TaskUid {
        let now = self.clock.now();
        let uid = TaskUid(self.next_uid.fetch_add(1, Ordering::Relaxed));
        let previous = TASKS.with(|t| {
            let mut tasks = t.borrow_mut();
            let task = tasks.begin(stage, uid, now);
            tasks.insert(self.id, task)
        });
        if let Some(prev) = previous {
            self.finish(prev);
        }
        uid
    }

    /// Explicitly terminate the current task on this thread, emitting its
    /// synopsis. No-op when no task is active.
    pub fn end_task(&self) {
        if let Some(task) = TASKS.with(|t| t.borrow_mut().remove(self.id, None)) {
            self.finish(task);
        }
    }

    /// [`TaskExecutionTracker::end_task`] if the task active on this
    /// thread is `uid`, in one scan of the thread's slots; otherwise
    /// nothing.
    fn end_task_if(&self, uid: TaskUid) {
        if let Some(task) = TASKS.with(|t| t.borrow_mut().remove(self.id, Some(uid))) {
            self.finish(task);
        }
    }

    /// Discard the current task without emitting a synopsis (used when a
    /// stage decides an execution should not be observed, e.g. an idle
    /// poll loop iteration).
    pub fn abandon_task(&self) {
        TASKS.with(|t| {
            let mut tasks = t.borrow_mut();
            if let Some(task) = tasks.remove(self.id, None) {
                tasks.retire(task);
            }
        });
    }

    /// RAII stage delimiter for dispatcher-worker stages: the returned
    /// guard finalizes the task when dropped (even on panic/unwind —
    /// the analogue of the paper's `finalize()` hook firing when a worker
    /// thread dies).
    pub fn task_guard(&self, stage: StageId) -> TaskGuard<'_> {
        let uid = self.set_context(stage);
        TaskGuard { tracker: self, uid }
    }

    /// Uid of the task currently active on this thread, if any.
    #[cfg(test)]
    pub fn current_task(&self) -> Option<TaskUid> {
        TASKS.with(|t| {
            t.borrow()
                .active
                .iter()
                .find(|(k, _)| *k == self.id)
                .map(|(_, t)| t.uid)
        })
    }

    /// Detach the current task from this thread without terminating it.
    ///
    /// Event-driven stages (and the simulators' single driver thread) use
    /// this when a task blocks on downstream work executed by other tasks
    /// of the *same* tracker: suspend, let the other tasks run, then
    /// [`TaskExecutionTracker::resume_task`] to keep accumulating visits.
    /// Returns `None` when no task is active.
    pub fn suspend_task(&self) -> Option<SuspendedTask> {
        TASKS
            .with(|t| t.borrow_mut().remove(self.id, None))
            .map(|task| SuspendedTask {
                tracker_id: self.id,
                task,
            })
    }

    /// Re-attach a task previously detached with
    /// [`TaskExecutionTracker::suspend_task`].
    ///
    /// If another task is active on this thread it is finalized first
    /// (same inference as [`TaskExecutionTracker::set_context`]).
    ///
    /// # Panics
    ///
    /// Panics if the suspended task came from a different tracker.
    pub fn resume_task(&self, suspended: SuspendedTask) {
        assert_eq!(
            suspended.tracker_id, self.id,
            "task resumed on a different tracker than it was suspended from"
        );
        let previous = TASKS.with(|t| t.borrow_mut().insert(self.id, suspended.task));
        if let Some(prev) = previous {
            self.finish(prev);
        }
    }

    /// Total tasks completed (synopses emitted).
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Log point visits that occurred outside any delimited task. A large
    /// number here means a stage is missing its delimiter instrumentation.
    pub fn untracked_visits(&self) -> u64 {
        self.untracked_visits.load(Ordering::Relaxed)
    }

    /// Emit the synopsis of a task that is over and keep its record. The
    /// sink runs with the thread's task table released, so it may log.
    fn finish(&self, task: Box<ActiveTask>) {
        self.emit(&task);
        TASKS.with(|t| t.borrow_mut().retire(task));
    }

    fn emit(&self, task: &ActiveTask) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        let head = SynopsisHead {
            host: self.host,
            stage: task.stage,
            uid: task.uid,
            start: task.start,
            duration: task.last_visit.saturating_since(task.start),
        };
        if let Some(metrics) = &self.metrics {
            metrics.emitted.inc();
            metrics.task_duration_us.record(head.duration.as_micros());
        }
        self.sink.submit_parts(head, task.points.as_slice());
    }
}

impl Interceptor for TaskExecutionTracker {
    fn on_log_point(&self, point: LogPointId, _level: Level) {
        let tracked = TASKS.with(|t| {
            let mut tasks = t.borrow_mut();
            if let Some((_, task)) = tasks.active.iter_mut().find(|(k, _)| *k == self.id) {
                // The clock is read only for a visit that has a task to
                // stamp; an untracked one costs the scan and a counter.
                task.last_visit = self.clock.now();
                task.points.visit(point);
                true
            } else {
                false
            }
        });
        if !tracked {
            self.untracked_visits.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A task detached from its thread, holding its accumulated state.
///
/// Produced by [`TaskExecutionTracker::suspend_task`]; pass it back to
/// [`TaskExecutionTracker::resume_task`] to continue the task. Dropping a
/// `SuspendedTask` discards the task without emitting a synopsis.
#[derive(Debug)]
pub struct SuspendedTask {
    tracker_id: u64,
    task: Box<ActiveTask>,
}

impl SuspendedTask {
    /// Uid of the suspended task.
    pub fn uid(&self) -> TaskUid {
        self.task.uid
    }
}

/// RAII handle for a dispatcher-worker task; ends the task on drop.
///
/// If the stage (or anything else) started a *different* task on this
/// thread before the guard drops, the guard does nothing — the newer
/// delimiter already finalized this task.
#[derive(Debug)]
pub struct TaskGuard<'a> {
    tracker: &'a TaskExecutionTracker,
    uid: TaskUid,
}

impl TaskGuard<'_> {
    /// This task's uid.
    pub fn uid(&self) -> TaskUid {
        self.uid
    }
}

impl Drop for TaskGuard<'_> {
    fn drop(&mut self) {
        self.tracker.end_task_if(self.uid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saad_logging::{LogPointRegistry, Logger};
    use saad_sim::ManualClock;
    use saad_sim::SimDuration;

    struct Fixture {
        clock: Arc<ManualClock>,
        sink: Arc<VecSink>,
        tracker: Arc<TaskExecutionTracker>,
        logger: Logger,
        points: Vec<LogPointId>,
    }

    fn fixture() -> Fixture {
        let registry = Arc::new(LogPointRegistry::new());
        let points: Vec<LogPointId> = (0..6)
            .map(|i| registry.register(format!("msg {i}"), Level::Info, "f.rs", i))
            .collect();
        let clock = Arc::new(ManualClock::new());
        let sink = Arc::new(VecSink::new());
        let tracker = Arc::new(TaskExecutionTracker::new(
            HostId(7),
            clock.clone() as Arc<dyn Clock>,
            sink.clone() as Arc<dyn SynopsisSink>,
        ));
        let logger = Logger::builder("Stage")
            .interceptor(tracker.clone())
            .registry(registry)
            .build();
        Fixture {
            clock,
            sink,
            tracker,
            logger,
            points,
        }
    }

    #[test]
    fn set_context_then_end_emits_synopsis() {
        let f = fixture();
        let stage = StageId(1);
        f.tracker.set_context(stage);
        f.logger.info(f.points[0], format_args!("a"));
        f.clock.set(SimTime::from_millis(10));
        f.logger.info(f.points[1], format_args!("b"));
        f.tracker.end_task();

        let s = f.sink.drain();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].stage, stage);
        assert_eq!(s[0].host, HostId(7));
        assert_eq!(s[0].duration, SimDuration::from_millis(10));
        assert_eq!(s[0].log_points.len(), 2);
    }

    #[test]
    fn duration_is_start_to_last_log_point() {
        // Paper §3.3.1: duration = start → timestamp of last log point,
        // NOT start → task end.
        let f = fixture();
        f.tracker.set_context(StageId(0));
        f.clock.set(SimTime::from_millis(3));
        f.logger.info(f.points[0], format_args!("x"));
        f.clock.set(SimTime::from_millis(99)); // silent tail work
        f.tracker.end_task();
        let s = f.sink.drain();
        assert_eq!(s[0].duration, SimDuration::from_millis(3));
    }

    #[test]
    fn producer_consumer_termination_inference() {
        // Starting task B implicitly completes task A.
        let f = fixture();
        f.tracker.set_context(StageId(0));
        f.logger.info(f.points[0], format_args!("a"));
        f.tracker.set_context(StageId(0));
        f.logger.info(f.points[1], format_args!("b"));
        f.tracker.end_task();

        let s = f.sink.drain();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].log_points[0].0, f.points[0]);
        assert_eq!(s[1].log_points[0].0, f.points[1]);
        assert_ne!(s[0].uid, s[1].uid);
    }

    #[test]
    fn frequencies_accumulate() {
        // The DataXceiver packet loop: L2 visited once per packet.
        let f = fixture();
        f.tracker.set_context(StageId(0));
        for _ in 0..40 {
            f.logger.info(f.points[2], format_args!("packet"));
        }
        f.tracker.end_task();
        let s = f.sink.drain();
        assert_eq!(s[0].log_points, vec![(f.points[2], 40)]);
        assert_eq!(s[0].total_visits(), 40);
    }

    #[test]
    fn guard_emits_on_drop() {
        let f = fixture();
        {
            let _guard = f.tracker.task_guard(StageId(4));
            f.logger.info(f.points[0], format_args!("w"));
        }
        assert_eq!(f.sink.len(), 1);
        assert_eq!(f.tracker.completed(), 1);
    }

    #[test]
    fn guard_emits_even_on_panic() {
        let f = fixture();
        let tracker = f.tracker.clone();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = tracker.task_guard(StageId(4));
            f.logger.info(f.points[0], format_args!("w"));
            panic!("worker died");
        }));
        assert!(result.is_err());
        assert_eq!(
            f.sink.len(),
            1,
            "synopsis must be emitted when the worker dies (finalize analogue)"
        );
    }

    #[test]
    fn stale_guard_does_not_double_emit() {
        let f = fixture();
        let guard = f.tracker.task_guard(StageId(1));
        f.tracker.set_context(StageId(2)); // supersedes the guarded task
        drop(guard);
        f.tracker.end_task();
        assert_eq!(f.sink.len(), 2, "exactly one synopsis per task");
    }

    #[test]
    fn untracked_visits_are_counted_not_credited() {
        let f = fixture();
        f.logger.info(f.points[0], format_args!("no task"));
        assert_eq!(f.tracker.untracked_visits(), 1);
        assert!(f.sink.is_empty());
    }

    #[test]
    fn abandon_discards_without_emitting() {
        let f = fixture();
        f.tracker.set_context(StageId(0));
        f.logger.info(f.points[0], format_args!("x"));
        f.tracker.abandon_task();
        assert!(f.sink.is_empty());
        assert_eq!(f.tracker.current_task(), None);
    }

    #[test]
    fn end_task_without_context_is_noop() {
        let f = fixture();
        f.tracker.end_task();
        assert!(f.sink.is_empty());
    }

    #[test]
    fn two_trackers_share_a_thread_independently() {
        // Two simulated hosts driven by one thread must not cross-credit.
        let f1 = fixture();
        let f2 = fixture();
        f1.tracker.set_context(StageId(1));
        f2.tracker.set_context(StageId(2));
        f1.logger.info(f1.points[0], format_args!("h1"));
        f2.logger.info(f2.points[1], format_args!("h2"));
        f1.tracker.end_task();
        f2.tracker.end_task();
        let s1 = f1.sink.drain();
        let s2 = f2.sink.drain();
        assert_eq!(s1.len(), 1);
        assert_eq!(s2.len(), 1);
        assert_eq!(s1[0].log_points[0].0, f1.points[0]);
        assert_eq!(s2[0].log_points[0].0, f2.points[1]);
    }

    #[test]
    fn tracker_works_across_threads() {
        let f = fixture();
        let tracker = f.tracker.clone();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let t = tracker.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        t.set_context(StageId(0));
                        t.on_log_point(LogPointId(0), Level::Info);
                        t.end_task();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(f.sink.len(), 400);
        assert_eq!(tracker.completed(), 400);
        // All uids distinct.
        let mut uids: Vec<u64> = f.sink.drain().iter().map(|s| s.uid.0).collect();
        uids.sort_unstable();
        uids.dedup();
        assert_eq!(uids.len(), 400);
    }

    #[test]
    fn debug_level_points_tracked_at_info_verbosity() {
        // End-to-end check of the paper's headline property through the
        // real logger: DEBUG insight at INFO cost.
        let f = fixture();
        f.tracker.set_context(StageId(0));
        f.logger.debug(f.points[3], format_args!("debug detail"));
        f.tracker.end_task();
        let s = f.sink.drain();
        assert_eq!(s[0].log_points, vec![(f.points[3], 1)]);
    }

    #[test]
    fn suspend_resume_keeps_accumulating() {
        let f = fixture();
        f.tracker.set_context(StageId(3));
        f.logger.info(f.points[0], format_args!("before"));
        let suspended = f.tracker.suspend_task().expect("task active");
        assert_eq!(f.tracker.current_task(), None);

        // Another task of the same tracker runs in between.
        f.tracker.set_context(StageId(4));
        f.logger.info(f.points[1], format_args!("inner"));
        f.tracker.end_task();

        f.tracker.resume_task(suspended);
        f.clock.set(SimTime::from_millis(50));
        f.logger.info(f.points[2], format_args!("after"));
        f.tracker.end_task();

        let mut s = f.sink.drain();
        assert_eq!(s.len(), 2);
        s.sort_by_key(|x| x.uid.0);
        // The outer task has both its points and the full duration.
        assert_eq!(s[0].stage, StageId(3));
        assert_eq!(s[0].log_points.len(), 2);
        assert_eq!(s[0].duration, SimDuration::from_millis(50));
        assert_eq!(s[1].stage, StageId(4));
        assert_eq!(s[1].log_points.len(), 1);
    }

    #[test]
    fn suspend_without_task_is_none() {
        let f = fixture();
        assert!(f.tracker.suspend_task().is_none());
    }

    #[test]
    fn dropped_suspended_task_is_discarded() {
        let f = fixture();
        f.tracker.set_context(StageId(0));
        let suspended = f.tracker.suspend_task().unwrap();
        assert_eq!(suspended.uid(), TaskUid(suspended.uid().0)); // accessor works
        drop(suspended);
        assert!(f.sink.is_empty());
    }

    #[test]
    #[should_panic]
    fn resume_on_wrong_tracker_panics() {
        let f1 = fixture();
        let f2 = fixture();
        f1.tracker.set_context(StageId(0));
        let suspended = f1.tracker.suspend_task().unwrap();
        f2.tracker.resume_task(suspended);
    }

    #[test]
    fn points_past_the_inline_size_spill_and_stay_sorted() {
        let f = fixture();
        // 40 distinct points in a scattered order, every third visited
        // twice: crosses the inline bound mid-task, inserts on both sides
        // of it, and bumps counts before and after the move to the heap.
        let order: Vec<u16> = (0..40u16).map(|i| (i * 17) % 40).collect();
        f.tracker.set_context(StageId(2));
        for &p in &order {
            f.tracker.on_log_point(LogPointId(p), Level::Info);
            if p % 3 == 0 {
                f.tracker.on_log_point(LogPointId(p), Level::Info);
            }
        }
        f.tracker.end_task();
        // Exactly at the inline bound: no spill, same answer.
        f.tracker.set_context(StageId(2));
        for p in (0..INLINE_POINTS as u16).rev() {
            f.tracker.on_log_point(LogPointId(p), Level::Info);
        }
        f.tracker.end_task();

        let s = f.sink.drain();
        let want: Vec<(LogPointId, u32)> = (0..40u16)
            .map(|p| (LogPointId(p), if p % 3 == 0 { 2 } else { 1 }))
            .collect();
        assert_eq!(s[0].log_points, want);
        assert_eq!(s[0].log_points.capacity(), 40, "exact-size heap form");
        let want: Vec<(LogPointId, u32)> = (0..INLINE_POINTS as u16)
            .map(|p| (LogPointId(p), 1))
            .collect();
        assert_eq!(s[1].log_points, want);
    }

    /// A clock that counts how often it is read.
    #[derive(Debug, Default)]
    struct CountingClock(AtomicU64);

    impl Clock for CountingClock {
        fn now(&self) -> SimTime {
            SimTime::from_micros(self.0.fetch_add(1, Ordering::Relaxed))
        }
    }

    #[test]
    fn untracked_visit_does_not_read_the_clock() {
        let clock = Arc::new(CountingClock::default());
        let tracker = TaskExecutionTracker::new(
            HostId(1),
            clock.clone() as Arc<dyn Clock>,
            Arc::new(NullSink::new()),
        );
        tracker.on_log_point(LogPointId(1), Level::Info);
        assert_eq!(tracker.untracked_visits(), 1);
        assert_eq!(clock.0.load(Ordering::Relaxed), 0);
        tracker.set_context(StageId(0));
        tracker.on_log_point(LogPointId(1), Level::Info);
        tracker.end_task();
        assert_eq!(clock.0.load(Ordering::Relaxed), 2, "task start + one visit");
    }

    #[test]
    fn stale_guard_leaves_another_trackers_task_alone() {
        // The guard's single scan matches tracker *and* uid: uids restart
        // at 0 per tracker, so a second tracker on the thread holds a task
        // with the same uid as the stale guard's.
        let f1 = fixture();
        let f2 = fixture();
        let guard = f1.tracker.task_guard(StageId(1));
        assert_eq!(f2.tracker.set_context(StageId(1)), guard.uid());
        f1.tracker.set_context(StageId(2)); // supersedes the guarded task
        drop(guard);
        assert_eq!(f1.sink.len(), 1, "only the superseded task was emitted");
        assert!(f2.sink.is_empty());
        assert!(f2.tracker.current_task().is_some());
        f1.tracker.end_task();
        f2.tracker.end_task();
    }

    #[test]
    fn null_sink_counts() {
        let sink = NullSink::new();
        sink.submit(TaskSynopsis {
            host: HostId(0),
            stage: StageId(0),
            uid: TaskUid(0),
            start: SimTime::ZERO,
            duration: SimDuration::ZERO,
            log_points: vec![],
        });
        assert_eq!(sink.count(), 1);
        let head = SynopsisHead {
            host: HostId(0),
            stage: StageId(0),
            uid: TaskUid(1),
            start: SimTime::ZERO,
            duration: SimDuration::ZERO,
        };
        sink.submit_parts(head, &[(LogPointId(3), 1)]);
        assert_eq!(sink.count(), 2);
    }

    proptest::proptest! {
        /// After every visit, a task's counts equal a `BTreeMap` count of
        /// the visits so far: any order, repeats, up to 40 distinct points
        /// (past the inline array too); and a cleared map, which keeps its
        /// spill buffer, counts the next task afresh.
        #[test]
        fn point_counts_hold_what_a_map_holds(
            pool in proptest::collection::vec(0u16..u16::MAX, 1..41),
            tasks in proptest::collection::vec(proptest::collection::vec(0usize..40, 0..120), 1..4),
        ) {
            let mut counts = PointCounts::new();
            for picks in &tasks {
                counts.clear();
                let mut map = std::collections::BTreeMap::new();
                for &pick in picks {
                    let point = LogPointId(pool[pick % pool.len()]);
                    counts.visit(point);
                    *map.entry(point).or_insert(0u32) += 1;
                    let expected: Vec<(LogPointId, u32)> = map.clone().into_iter().collect();
                    proptest::prop_assert_eq!(counts.as_slice(), &expected[..]);
                }
            }
        }
    }
}
