//! Virtual-time task execution helper for the storage simulators.
//!
//! The simulators are timestamp-advancing: each task runs to completion as
//! a plain function call carrying its own time cursor. [`SimTask`] bundles
//! the bookkeeping — it pins the shared [`ManualClock`] to the cursor
//! before every log call so the tracker timestamps visits correctly, and
//! finalizes the task (RAII) when dropped.
//!
//! `SimTask` owns `Arc` handles rather than borrows so simulator state
//! structs can be mutated freely while a task is in flight.

use crate::tracker::{SuspendedTask, TaskExecutionTracker};
use crate::StageId;
use saad_logging::{Level, LogPointId, Logger};
use saad_sim::{ManualClock, SimDuration, SimTime};
use std::fmt;
use std::sync::Arc;

/// One simulated task execution: a stage delimiter, a time cursor, and the
/// logger the stage writes through.
///
/// # Example
///
/// ```
/// use saad_core::simtask::SimTask;
/// use saad_core::tracker::{TaskExecutionTracker, VecSink};
/// use saad_core::{HostId, StageRegistry};
/// use saad_logging::{Level, Logger, LogPointRegistry};
/// use saad_sim::{ManualClock, SimDuration, SimTime};
/// use std::sync::Arc;
///
/// let registry = Arc::new(LogPointRegistry::new());
/// let p = registry.register("Receiving one packet", Level::Debug, "dx.rs", 1);
/// let clock = Arc::new(ManualClock::new());
/// let sink = Arc::new(VecSink::new());
/// let tracker = Arc::new(TaskExecutionTracker::new(HostId(0), clock.clone(), sink.clone()));
/// let logger = Arc::new(Logger::builder("DataXceiver").interceptor(tracker.clone()).build());
/// let stages = StageRegistry::new();
/// let dx = stages.register("DataXceiver");
///
/// let mut task = SimTask::begin(&tracker, &clock, &logger, dx, SimTime::ZERO);
/// task.debug(p, format_args!("Receiving one packet"));
/// task.advance(SimDuration::from_millis(10));
/// task.finish();
/// assert_eq!(sink.len(), 1);
/// ```
#[derive(Debug)]
pub struct SimTask {
    tracker: Arc<TaskExecutionTracker>,
    clock: Arc<ManualClock>,
    logger: Arc<Logger>,
    now: SimTime,
    finished: bool,
}

impl SimTask {
    /// Begin a task of `stage` at virtual time `start`.
    pub fn begin(
        tracker: &Arc<TaskExecutionTracker>,
        clock: &Arc<ManualClock>,
        logger: &Arc<Logger>,
        stage: StageId,
        start: SimTime,
    ) -> SimTask {
        clock.set(start);
        tracker.set_context(stage);
        SimTask {
            tracker: tracker.clone(),
            clock: clock.clone(),
            logger: logger.clone(),
            now: start,
            finished: false,
        }
    }

    /// Current cursor time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Move the cursor forward by `d`.
    pub fn advance(&mut self, d: SimDuration) {
        self.now += d;
    }

    /// Move the cursor to `t` if `t` is later (waiting on a completion).
    pub fn advance_to(&mut self, t: SimTime) {
        self.now = self.now.max(t);
    }

    /// Log through the stage's logger at the cursor time.
    pub fn log(&mut self, point: LogPointId, level: Level, args: fmt::Arguments<'_>) {
        self.clock.set(self.now);
        self.logger.log(point, level, args);
    }

    /// Log a `Debug`-level point.
    pub fn debug(&mut self, point: LogPointId, args: fmt::Arguments<'_>) {
        self.log(point, Level::Debug, args);
    }

    /// Log an `Info`-level point.
    pub fn info(&mut self, point: LogPointId, args: fmt::Arguments<'_>) {
        self.log(point, Level::Info, args);
    }

    /// Log a `Warn`-level point.
    pub fn warn(&mut self, point: LogPointId, args: fmt::Arguments<'_>) {
        self.log(point, Level::Warn, args);
    }

    /// Log an `Error`-level point.
    pub fn error(&mut self, point: LogPointId, args: fmt::Arguments<'_>) {
        self.log(point, Level::Error, args);
    }

    /// Terminate the task, emitting its synopsis; returns the final cursor.
    pub fn finish(mut self) -> SimTime {
        self.do_finish();
        self.now
    }

    /// Detach the task so other tasks of the same tracker can run on this
    /// thread; resume with [`SimTask::resume`].
    pub fn suspend(mut self) -> SuspendedSimTask {
        self.finished = true; // prevent Drop from finalizing
        let inner = self
            .tracker
            .suspend_task()
            .expect("SimTask is the active task");
        SuspendedSimTask {
            inner,
            now: self.now,
        }
    }

    /// Re-attach a suspended task.
    pub fn resume(
        tracker: &Arc<TaskExecutionTracker>,
        clock: &Arc<ManualClock>,
        logger: &Arc<Logger>,
        suspended: SuspendedSimTask,
    ) -> SimTask {
        tracker.resume_task(suspended.inner);
        SimTask {
            tracker: tracker.clone(),
            clock: clock.clone(),
            logger: logger.clone(),
            now: suspended.now,
            finished: false,
        }
    }

    fn do_finish(&mut self) {
        if !self.finished {
            self.finished = true;
            self.clock.set(self.now);
            self.tracker.end_task();
        }
    }
}

impl Drop for SimTask {
    fn drop(&mut self) {
        self.do_finish();
    }
}

/// A [`SimTask`] detached from execution, carrying its cursor.
#[derive(Debug)]
pub struct SuspendedSimTask {
    inner: SuspendedTask,
    now: SimTime,
}

impl SuspendedSimTask {
    /// The suspended task's cursor time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Adjust the cursor (e.g. to the time an awaited ack arrived).
    pub fn advance_to(&mut self, t: SimTime) {
        self.now = self.now.max(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracker::{SynopsisSink, VecSink};
    use crate::HostId;
    use saad_logging::LogPointRegistry;
    use saad_sim::Clock;

    struct Fx {
        clock: Arc<ManualClock>,
        sink: Arc<VecSink>,
        tracker: Arc<TaskExecutionTracker>,
        logger: Arc<Logger>,
        p: Vec<LogPointId>,
    }

    fn fx() -> Fx {
        let registry = Arc::new(LogPointRegistry::new());
        let p = (0..4)
            .map(|i| registry.register(format!("m{i}"), Level::Debug, "f", i))
            .collect();
        let clock = Arc::new(ManualClock::new());
        let sink = Arc::new(VecSink::new());
        let tracker = Arc::new(TaskExecutionTracker::new(
            HostId(0),
            clock.clone() as Arc<dyn Clock>,
            sink.clone() as Arc<dyn SynopsisSink>,
        ));
        let logger = Arc::new(Logger::builder("S").interceptor(tracker.clone()).build());
        Fx {
            clock,
            sink,
            tracker,
            logger,
            p,
        }
    }

    #[test]
    fn cursor_drives_timestamps() {
        let f = fx();
        let mut t = SimTask::begin(
            &f.tracker,
            &f.clock,
            &f.logger,
            StageId(1),
            SimTime::from_millis(100),
        );
        t.debug(f.p[0], format_args!("a"));
        t.advance(SimDuration::from_millis(7));
        t.debug(f.p[1], format_args!("b"));
        t.finish();
        let s = f.sink.drain();
        assert_eq!(s[0].start, SimTime::from_millis(100));
        assert_eq!(s[0].duration, SimDuration::from_millis(7));
    }

    #[test]
    fn drop_finalizes() {
        let f = fx();
        {
            let mut t = SimTask::begin(&f.tracker, &f.clock, &f.logger, StageId(1), SimTime::ZERO);
            t.debug(f.p[0], format_args!("x"));
        }
        assert_eq!(f.sink.len(), 1);
    }

    #[test]
    fn advance_to_only_moves_forward() {
        let f = fx();
        let mut t = SimTask::begin(
            &f.tracker,
            &f.clock,
            &f.logger,
            StageId(0),
            SimTime::from_secs(2),
        );
        t.advance_to(SimTime::from_secs(1));
        assert_eq!(t.now(), SimTime::from_secs(2));
        t.advance_to(SimTime::from_secs(3));
        assert_eq!(t.now(), SimTime::from_secs(3));
    }

    #[test]
    fn suspend_resume_spans_inner_tasks() {
        let f = fx();
        let mut outer = SimTask::begin(&f.tracker, &f.clock, &f.logger, StageId(1), SimTime::ZERO);
        outer.debug(f.p[0], format_args!("send"));
        let mut susp = outer.suspend();

        // Inner task of the same tracker while the outer waits.
        let mut inner = SimTask::begin(
            &f.tracker,
            &f.clock,
            &f.logger,
            StageId(2),
            SimTime::from_millis(1),
        );
        inner.debug(f.p[1], format_args!("replica work"));
        inner.advance(SimDuration::from_millis(5));
        let ack = inner.finish();

        susp.advance_to(ack);
        assert_eq!(susp.now(), SimTime::from_millis(6));
        let mut outer = SimTask::resume(&f.tracker, &f.clock, &f.logger, susp);
        outer.debug(f.p[2], format_args!("ack"));
        outer.finish();

        let mut s = f.sink.drain();
        assert_eq!(s.len(), 2);
        s.sort_by_key(|x| x.uid.0);
        // The outer task has both its points and the full duration.
        assert_eq!(s[0].stage, StageId(1));
        assert_eq!(s[0].duration, SimDuration::from_millis(6));
        assert_eq!(s[0].log_points.len(), 2);
        assert_eq!(s[1].stage, StageId(2));
    }

    #[test]
    fn suspended_and_dropped_is_discarded() {
        let f = fx();
        let t = SimTask::begin(&f.tracker, &f.clock, &f.logger, StageId(1), SimTime::ZERO);
        let susp = t.suspend();
        assert_eq!(susp.now(), SimTime::ZERO);
        drop(susp);
        assert!(f.sink.is_empty());
    }

    mod interleaving_property {
        use super::*;
        use crate::synopsis::TaskSynopsis;
        use proptest::prelude::*;

        /// One task's script: its stage, start time, and segments. Each
        /// segment logs one point then advances the cursor; between
        /// segments the task may be suspended while others run.
        #[derive(Debug, Clone)]
        struct Plan {
            stage: u16,
            start_ms: u64,
            segments: Vec<(usize, u64)>,
        }

        /// Strategy output for one plan; the vendored proptest has no
        /// `prop_map`, so tuples are reshaped in the test body.
        fn plan() -> impl Strategy<Value = (u16, u64, Vec<(usize, u64)>)> {
            (
                0u16..4,
                0u64..50,
                collection::vec((0usize..4, 1u64..10), 1..5),
            )
        }

        enum Slot {
            NotStarted,
            Parked(SuspendedSimTask),
            Done,
        }

        /// Run one segment of plan `i`, honoring the one-active-task
        /// invariant: begin/resume, log + advance, then suspend or finish.
        fn step(f: &Fx, plans: &[Plan], slots: &mut [Slot], progress: &mut [usize], i: usize) {
            let mut t = match std::mem::replace(&mut slots[i], Slot::Done) {
                Slot::NotStarted => SimTask::begin(
                    &f.tracker,
                    &f.clock,
                    &f.logger,
                    StageId(plans[i].stage),
                    SimTime::from_millis(plans[i].start_ms),
                ),
                Slot::Parked(susp) => SimTask::resume(&f.tracker, &f.clock, &f.logger, susp),
                Slot::Done => unreachable!("stepping a finished task"),
            };
            let (point, advance_ms) = plans[i].segments[progress[i]];
            t.debug(f.p[point], format_args!("seg"));
            t.advance(SimDuration::from_millis(advance_ms));
            progress[i] += 1;
            if progress[i] == plans[i].segments.len() {
                t.finish();
            } else {
                slots[i] = Slot::Parked(t.suspend());
            }
        }

        fn run_interleaved(f: &Fx, plans: &[Plan], schedule: &[usize]) {
            let mut slots: Vec<Slot> = plans.iter().map(|_| Slot::NotStarted).collect();
            let mut progress = vec![0usize; plans.len()];
            for &pick in schedule {
                let open: Vec<usize> = (0..plans.len())
                    .filter(|&i| !matches!(slots[i], Slot::Done))
                    .collect();
                if open.is_empty() {
                    break;
                }
                step(f, plans, &mut slots, &mut progress, open[pick % open.len()]);
            }
            for i in 0..plans.len() {
                while !matches!(slots[i], Slot::Done) {
                    step(f, plans, &mut slots, &mut progress, i);
                }
            }
        }

        fn run_sequential(f: &Fx, plans: &[Plan]) {
            for p in plans {
                let mut t = SimTask::begin(
                    &f.tracker,
                    &f.clock,
                    &f.logger,
                    StageId(p.stage),
                    SimTime::from_millis(p.start_ms),
                );
                for &(point, advance_ms) in &p.segments {
                    t.debug(f.p[point], format_args!("seg"));
                    t.advance(SimDuration::from_millis(advance_ms));
                }
                t.finish();
            }
        }

        /// Uid-free multiset key: everything a synopsis says about the
        /// task except the begin-order-dependent uid.
        #[allow(clippy::type_complexity)]
        fn keys(
            synopses: Vec<TaskSynopsis>,
        ) -> Vec<(StageId, SimTime, SimDuration, Vec<(LogPointId, u32)>)> {
            let mut keys: Vec<_> = synopses
                .into_iter()
                .map(|s| {
                    let mut points = s.log_points;
                    points.sort_unstable();
                    (s.stage, s.start, s.duration, points)
                })
                .collect();
            keys.sort();
            keys
        }

        proptest! {
            /// Suspend/resume is transparent to the synopsis stream: any
            /// interleaving of N tasks on one tracker yields the same
            /// synopsis multiset (stage, start, duration, point counts)
            /// as running the tasks back-to-back.
            #[test]
            fn interleaved_suspend_resume_matches_sequential_oracle(
                raw_plans in collection::vec(plan(), 2..6),
                schedule in collection::vec(0usize..1_000_000, 0..40),
            ) {
                let plans: Vec<Plan> = raw_plans
                    .into_iter()
                    .map(|(stage, start_ms, segments)| Plan { stage, start_ms, segments })
                    .collect();
                let seq = fx();
                run_sequential(&seq, &plans);
                let inter = fx();
                run_interleaved(&inter, &plans, &schedule);

                prop_assert_eq!(inter.sink.len(), plans.len());
                prop_assert_eq!(keys(inter.sink.drain()), keys(seq.sink.drain()));
            }
        }
    }
}
