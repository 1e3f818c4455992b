//! The tracker's borrowed hand-over against its owned one, byte for byte.
//!
//! A tracker gives a finished task to its sink as a head and a borrowed
//! point slice (`SynopsisSink::submit_parts`). A sink that does not
//! override that method is handed the owned `TaskSynopsis` instead, and an
//! `AgentSink` encodes the parts straight into the payload of the frame
//! they will travel in. Seeded random task scripts — empty tasks, tasks
//! past the inline point array, repeated visits, suspend/resume, implicit
//! termination by the next `set_context`, stale guards, abandoned tasks —
//! are driven through one tracker whose sink feeds both forms at once,
//! and then through real agents into a socket:
//!
//! * owned synopses → `encode_batch` ≡ the payload the parts were pushed
//!   into, and both decode to the owned synopses;
//! * those synopses are what a plain model of the tracker's rules says
//!   the script emits;
//! * the bytes an `Agent` writes for them — from the tracker's borrowed
//!   call and from `AgentSink::submit`, the path a wrapping sink takes —
//!   are the frames a plain `FrameSender` makes of the owned synopses.

mod common;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saad::core::codec::{decode_batch, encode_batch};
use saad::core::prelude::*;
use saad::core::synopsis::SynopsisHead;
use saad::core::tracker::{SuspendedTask, TaskGuard};
use saad::core::transport::{FramePayload, FrameSender};
use saad::logging::{Interceptor, Level, LogPointId};
use saad::net::protocol::write_message;
use saad::net::{Agent, AgentConfig};
use saad::sim::{Clock, ManualClock, SimTime};
use std::collections::BTreeMap;
use std::io::Read;
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Points past this many leave the tracker's inline array.
const INLINE_POINTS: usize = 16;

/// One step of a task script.
#[derive(Debug, Clone)]
enum Step {
    /// `set_context`; implicitly ends a task already active.
    Begin(u16),
    /// `task_guard`, kept until `DropGuard`.
    BeginGuarded(u16),
    /// Advance the clock, then `on_log_point`.
    Visit {
        point: u16,
        after_us: u64,
    },
    End,
    Abandon,
    Suspend,
    Resume,
    DropGuard,
}

/// A script: tasks of 0 to 40 distinct points, visits repeated and in no
/// order, cut through by the steps that move tasks around.
fn script(rng: &mut StdRng) -> Vec<Step> {
    let mut steps = Vec::new();
    for _ in 0..rng.gen_range(1usize..12) {
        let stage = rng.gen_range(0u16..300);
        steps.push(if rng.gen_bool(0.3) {
            Step::BeginGuarded(stage)
        } else {
            Step::Begin(stage)
        });
        let distinct = match rng.gen_range(0u32..10) {
            0 => 0,
            1..=5 => rng.gen_range(1usize..8),
            6..=7 => rng.gen_range(INLINE_POINTS - 2..INLINE_POINTS + 3),
            _ => rng.gen_range(INLINE_POINTS + 1..41),
        };
        let base = rng.gen_range(0u16..5000);
        let visits = distinct * rng.gen_range(1usize..4);
        for _ in 0..visits {
            steps.push(Step::Visit {
                // Spread so that ids take one to three varint bytes.
                point: base + 37 * rng.gen_range(0..distinct) as u16,
                after_us: rng.gen_range(0u64..3_000),
            });
            // A task is interrupted in the middle now and then.
            match rng.gen_range(0u32..40) {
                0 => steps.push(Step::Suspend),
                1 => steps.push(Step::Resume),
                2 => steps.push(Step::Begin(stage + 1)),
                3 => steps.push(Step::DropGuard),
                _ => {}
            }
        }
        steps.push(match rng.gen_range(0u32..10) {
            0..=5 => Step::End,
            6 => Step::Abandon,
            7 => Step::Suspend,
            8 => Step::DropGuard,
            // Left active: the next `Begin` ends it.
            _ => continue,
        });
        if rng.gen_bool(0.2) {
            steps.push(Step::Resume);
        }
    }
    steps
}

/// Which of the cases the scripts must reach a run has reached.
#[derive(Debug, Default)]
struct Seen {
    spilled: u32,
    at_inline_bound: u32,
    empty: u32,
    repeated: u32,
    implicit_end: u32,
    resumed: u32,
    resume_ended_another: u32,
    stale_guard: u32,
    live_guard: u32,
    abandoned: u32,
    untracked: u32,
}

/// The tracker's rules restated on plain maps: what a script emits.
#[derive(Debug, Default)]
struct Model {
    active: Option<ModelTask>,
    emitted: Vec<TaskSynopsis>,
}

#[derive(Debug, Clone)]
struct ModelTask {
    stage: u16,
    uid: u64,
    start: SimTime,
    last_visit: SimTime,
    points: BTreeMap<u16, u32>,
}

impl Model {
    fn begin(&mut self, stage: u16, uid: u64, now: SimTime, seen: &mut Seen) {
        let task = ModelTask {
            stage,
            uid,
            start: now,
            last_visit: now,
            points: BTreeMap::new(),
        };
        if let Some(prev) = self.active.replace(task) {
            seen.implicit_end += 1;
            self.emit(prev, seen);
        }
    }

    fn emit(&mut self, task: ModelTask, seen: &mut Seen) {
        seen.spilled += u32::from(task.points.len() > INLINE_POINTS);
        seen.at_inline_bound += u32::from(task.points.len() == INLINE_POINTS);
        seen.empty += u32::from(task.points.is_empty());
        seen.repeated += u32::from(task.points.values().any(|&c| c > 1));
        self.emitted.push(TaskSynopsis {
            host: HOST,
            stage: StageId(task.stage),
            uid: TaskUid(task.uid),
            start: task.start,
            duration: task.last_visit.saturating_since(task.start),
            log_points: task
                .points
                .into_iter()
                .map(|(p, c)| (LogPointId(p), c))
                .collect(),
        });
    }
}

const HOST: HostId = HostId(11);

/// Run `steps` against `tracker` (whose clock is `clock`) and against the
/// model; returns what the model says was emitted.
fn drive(
    steps: &[Step],
    tracker: &TaskExecutionTracker,
    clock: &ManualClock,
    seen: &mut Seen,
) -> Vec<TaskSynopsis> {
    let mut model = Model::default();
    let mut suspended: Vec<(SuspendedTask, ModelTask)> = Vec::new();
    let mut guards: Vec<(TaskGuard<'_>, u64)> = Vec::new();
    for step in steps {
        match *step {
            Step::Begin(stage) => {
                let uid = tracker.set_context(StageId(stage));
                model.begin(stage, uid.0, clock.now(), seen);
            }
            Step::BeginGuarded(stage) => {
                let guard = tracker.task_guard(StageId(stage));
                let uid = guard.uid().0;
                model.begin(stage, uid, clock.now(), seen);
                guards.push((guard, uid));
            }
            Step::Visit { point, after_us } => {
                clock.set(SimTime::from_micros(clock.now().as_micros() + after_us));
                tracker.on_log_point(LogPointId(point), Level::Debug);
                match &mut model.active {
                    Some(task) => {
                        task.last_visit = clock.now();
                        *task.points.entry(point).or_insert(0) += 1;
                    }
                    None => seen.untracked += 1,
                }
            }
            Step::End => {
                tracker.end_task();
                if let Some(task) = model.active.take() {
                    model.emit(task, seen);
                }
            }
            Step::Abandon => {
                tracker.abandon_task();
                seen.abandoned += u32::from(model.active.take().is_some());
            }
            Step::Suspend => {
                if let Some(handle) = tracker.suspend_task() {
                    let task = model.active.take().expect("model has the task too");
                    assert_eq!(handle.uid().0, task.uid);
                    suspended.push((handle, task));
                } else {
                    assert!(model.active.is_none());
                }
            }
            Step::Resume => {
                if let Some((handle, task)) = suspended.pop() {
                    tracker.resume_task(handle);
                    seen.resumed += 1;
                    if let Some(prev) = model.active.replace(task) {
                        seen.resume_ended_another += 1;
                        model.emit(prev, seen);
                    }
                }
            }
            Step::DropGuard => {
                if let Some((guard, uid)) = guards.pop() {
                    drop(guard);
                    if model.active.as_ref().is_some_and(|t| t.uid == uid) {
                        seen.live_guard += 1;
                        let task = model.active.take().expect("just matched");
                        model.emit(task, seen);
                    } else {
                        seen.stale_guard += 1;
                    }
                }
            }
        }
    }
    // Leave nothing behind on the thread: guards oldest last, as scopes
    // would drop them; then whatever is still active. Suspended tasks
    // left over are discarded unemitted, as the API says.
    while let Some((guard, uid)) = guards.pop() {
        drop(guard);
        if model.active.as_ref().is_some_and(|t| t.uid == uid) {
            let task = model.active.take().expect("just matched");
            model.emit(task, seen);
        }
    }
    tracker.end_task();
    if let Some(task) = model.active.take() {
        model.emit(task, seen);
    }
    model.emitted
}

/// Feeds both forms of every hand-over: the parts into a payload, and —
/// through the trait's default — the owned synopsis into a `VecSink`.
#[derive(Default)]
struct BothForms {
    owned: VecSink,
    payload: Mutex<FramePayload>,
}

impl SynopsisSink for BothForms {
    fn submit(&self, _synopsis: TaskSynopsis) {
        unreachable!("the tracker hands over parts");
    }

    fn submit_parts(&self, head: SynopsisHead, points: &[(LogPointId, u32)]) {
        assert!(self.payload.lock().unwrap().push_parts(&head, points));
        self.owned.submit_parts(head, points);
    }
}

fn tracker_on(sink: Arc<dyn SynopsisSink>) -> (TaskExecutionTracker, Arc<ManualClock>) {
    let clock = Arc::new(ManualClock::new());
    let tracker = TaskExecutionTracker::new(HOST, clock.clone() as Arc<dyn Clock>, sink);
    (tracker, clock)
}

#[test]
fn borrowed_and_owned_hand_over_encode_to_the_same_bytes() {
    let mut seen = Seen::default();
    for seed in 0..400u64 {
        let steps = script(&mut StdRng::seed_from_u64(seed));
        let sink = Arc::new(BothForms::default());
        let (tracker, clock) = tracker_on(sink.clone());
        let expected = drive(&steps, &tracker, &clock, &mut seen);

        let owned = sink.owned.drain();
        assert_eq!(owned, expected, "seed {seed}: {steps:?}");
        assert_eq!(tracker.completed(), owned.len() as u64, "seed {seed}");
        assert!(
            owned.windows(2).all(|w| w[0].uid != w[1].uid),
            "seed {seed}: a task is emitted once"
        );
        for s in &owned {
            assert!(
                s.log_points.windows(2).all(|w| w[0].0 < w[1].0),
                "seed {seed}: points ascend, each once"
            );
            assert_eq!(s.log_points.capacity(), s.log_points.len(), "exact size");
        }
        let payload = sink.payload.lock().unwrap();
        let via_owned = encode_batch(&owned);
        assert_eq!(payload.bytes(), &via_owned[..], "seed {seed}");
        assert_eq!(payload.synopses(), owned.len() as u64);
        let mut wire = Bytes::copy_from_slice(payload.bytes());
        assert_eq!(decode_batch(&mut wire).expect("decodes"), owned);
    }
    // The generator reached every case this test is about.
    let Seen {
        spilled,
        at_inline_bound,
        empty,
        repeated,
        implicit_end,
        resumed,
        resume_ended_another,
        stale_guard,
        live_guard,
        abandoned,
        untracked,
    } = seen;
    for (case, hits) in [
        ("a task past the inline points", spilled),
        ("a task of exactly the inline points", at_inline_bound),
        ("a task with no visit", empty),
        ("a repeated visit", repeated),
        ("implicit termination by set_context", implicit_end),
        ("a resumed task", resumed),
        ("a resume that ended another task", resume_ended_another),
        ("a stale guard", stale_guard),
        ("a guard that ended its task", live_guard),
        ("an abandoned task", abandoned),
        ("an untracked visit", untracked),
    ] {
        assert!(hits >= 5, "only {hits} scripts reached {case}");
    }
}

/// A collector that accepts one agent, acknowledges its hello and keeps
/// every byte that follows until the agent's goodbye.
fn capture() -> (SocketAddr, JoinHandle<Vec<u8>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let reader = std::thread::spawn(move || {
        let mut wire = Vec::new();
        common::accept_agent(&listener)
            .read_to_end(&mut wire)
            .expect("frames");
        wire
    });
    (addr, reader)
}

#[test]
fn agent_writes_the_frames_a_plain_sender_makes_of_the_owned_synopses() {
    const BATCH: usize = 48;
    // The owned synopses of a long run of scripts.
    let owned = {
        let sink = Arc::new(VecSink::new());
        let (tracker, clock) = tracker_on(sink.clone());
        let mut seen = Seen::default();
        for seed in 1000..1060u64 {
            drive(
                &script(&mut StdRng::seed_from_u64(seed)),
                &tracker,
                &clock,
                &mut seen,
            );
        }
        sink.drain()
    };
    assert!(owned.len() > 3 * BATCH && !owned.len().is_multiple_of(BATCH));
    let mut plain = FrameSender::new(HOST);
    let mut want = Vec::new();
    for chunk in owned.chunks(BATCH) {
        write_message(&mut want, &plain.encode_frame(chunk)).expect("vec write");
    }

    // The tracker's borrowed call into an `AgentSink`.
    let (addr, reader) = capture();
    let agent = Agent::connect(addr, HOST, AgentConfig::default());
    {
        let (tracker, clock) = tracker_on(Arc::new(agent.sink(BATCH)));
        let mut seen = Seen::default();
        for seed in 1000..1060u64 {
            drive(
                &script(&mut StdRng::seed_from_u64(seed)),
                &tracker,
                &clock,
                &mut seen,
            );
        }
        // Dropping the tracker drops the sink, which flushes the tail.
    }
    let stats = agent.close();
    assert_eq!(stats.synopses_written, owned.len() as u64);
    assert_eq!(stats.frames_written, owned.len().div_ceil(BATCH) as u64);
    assert_eq!(stats.drops.total() + stats.synopses_wire_lost, 0);
    assert!(reader.join().expect("capture thread") == want);

    // `AgentSink::submit`, where a sink wrapped around it arrives; and
    // `Agent::send` with the same cuts.
    for streamed in [true, false] {
        let (addr, reader) = capture();
        let agent = Agent::connect(addr, HOST, AgentConfig::default());
        if streamed {
            let sink = agent.sink(BATCH);
            owned.iter().cloned().for_each(|s| sink.submit(s));
        } else {
            owned.chunks(BATCH).for_each(|c| agent.send(c.to_vec()));
        }
        assert_eq!(agent.close().synopses_written, owned.len() as u64);
        assert!(reader.join().expect("capture thread") == want);
    }
}
