//! `fleet_e2e`: every layer, closed loop. The faulty capture is replayed
//! through real `TaskExecutionTracker`s on one producer thread per
//! connection → `AgentSink` → `Agent` → TCP → reactor collector → tap →
//! batch pool → events.

use super::wire::{agent_host, reactor_counters, Digest, Pipeline};
use super::{detector_config, prepare, Ctx, MarkerTimes, Segment};
use crate::inputs::{fold, CloseLog};
use crate::sys;
use saad_core::batch::SynopsisBatch;
use saad_core::detector::AnomalyEvent;
use saad_core::pipeline::OverloadPolicy;
use saad_core::synopsis::TaskSynopsis;
use saad_core::tracker::{SynopsisSink, TaskExecutionTracker};
use saad_core::HostId;
use saad_logging::{Interceptor, Level};
use saad_net::{Agent, AgentConfig, AgentStats};
use saad_sim::{ManualClock, SimDuration};
use std::collections::HashMap;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Synopses per agent batch (the e2e tests of the repository ship 48).
pub const AGENT_BATCH: usize = 48;
/// The paper's one-minute detection windows.
pub const WINDOW: SimDuration = SimDuration::from_mins(1);
/// A `submit` that takes longer than this waited for queue space.
const BLOCKED_ABOVE: Duration = Duration::from_micros(20);

/// Replay one recorded task through `tracker` exactly as instrumented
/// server code would drive it: stage delimiter, one intercepted log call
/// per recorded visit, task end. `clock` is scripted so that the emitted
/// synopsis carries the recorded start and duration.
#[inline]
pub fn replay_task(
    tracker: &TaskExecutionTracker,
    clock: &ManualClock,
    task: &TaskSynopsis,
    shift: SimDuration,
) {
    let start = task.start + shift;
    clock.set(start);
    tracker.set_context(task.stage);
    let visits: u32 = task.log_points.iter().map(|&(_, c)| c).sum();
    let mut seen = 0u32;
    for &(point, count) in &task.log_points {
        for _ in 0..count {
            seen += 1;
            if seen == visits {
                // The tracker takes the duration from the last visit.
                clock.set(start + task.duration);
            }
            tracker.on_log_point(point, Level::Info);
        }
    }
    tracker.end_task();
}

/// The synopsis the tracker emits for `task`: a task that visited no log
/// point has no last visit, hence no duration.
pub fn as_emitted(mut task: TaskSynopsis) -> TaskSynopsis {
    if task.log_points.is_empty() {
        task.duration = SimDuration::ZERO;
    }
    task
}

/// Traced run: the sink handed to the trackers, timing every `submit` of
/// the real [`saad_net::AgentSink`] behind it.
struct TimedSink {
    inner: Arc<dyn SynopsisSink>,
    state: Mutex<TimedSinkState>,
}

#[derive(Default)]
struct TimedSinkState {
    in_batch: usize,
    first: Option<(HostId, u64, Instant)>,
    busy: Duration,
    blocked: Duration,
    /// (first host, first uid, batch begun, hand-over begun, hand-over done)
    batches: Vec<(HostId, u64, Instant, Instant, Instant)>,
}

impl SynopsisSink for TimedSink {
    fn submit(&self, synopsis: TaskSynopsis) {
        let key = (synopsis.host, synopsis.uid.0);
        let before = Instant::now();
        self.inner.submit(synopsis);
        let after = Instant::now();
        // One producer thread per sink: the lock is never contended.
        let mut st = self.state.lock().expect("sink state lock");
        let took = after - before;
        if took > BLOCKED_ABOVE {
            st.blocked += took;
        } else {
            st.busy += took;
        }
        let first = *st.first.get_or_insert((key.0, key.1, before));
        st.in_batch += 1;
        if st.in_batch == AGENT_BATCH {
            st.batches.push((first.0, first.1, first.2, before, after));
            st.in_batch = 0;
            st.first = None;
        }
    }
}

/// What a producer thread reports back.
struct Produced {
    closes: CloseLog,
    agent: Agent,
    tasks: u64,
    untracked: u64,
    wall: Duration,
    timed: Option<TimedSinkState>,
}

/// One set-up pass and timed segment of `fleet_e2e`.
pub fn run(ctx: &Ctx) -> Segment {
    let mut seg = Segment::default();
    let setup_started = Instant::now();
    let conns = ctx.conns;
    let config = detector_config(WINDOW);
    let period = ctx.scale.capture;
    let (trained, stream) = prepare(ctx, &mut seg, true, config.window);

    // Tasks per connection, in stream order; and, for the reference, the
    // SoA form of what the trackers will emit for one replay of them.
    let mut tasks: Vec<Vec<TaskSynopsis>> = vec![Vec::new(); conns];
    for s in stream {
        tasks[fold(s.host, conns)].push(as_emitted(s));
    }
    let source: Vec<SynopsisBatch> = tasks
        .iter()
        .map(|t| {
            let mut b = SynopsisBatch::with_capacity(t.len());
            t.iter().for_each(|s| b.push_synopsis(s, &trained.interner));
            b
        })
        .collect();
    let share = ctx.scale.fleet_synopses / conns as u64 + AGENT_BATCH as u64;
    let total = share * conns as u64;
    let warmup = (conns * AGENT_BATCH) as u64;
    let mut expected = Digest::default();
    for t in &tasks {
        for e in 0..share {
            let cycle = e / t.len() as u64;
            expected.add_synopsis(
                &t[(e % t.len() as u64) as usize],
                SimDuration::from_micros(period.as_micros() * cycle),
            );
        }
    }

    let pipeline = Pipeline::spawn(ctx, trained, config, (total as usize).div_ceil(AGENT_BATCH));
    let addr = pipeline.collector.local_addr();

    // Producers: one thread, one agent and one scripted clock per
    // connection; one tracker per original host.
    let go = Arc::new(Barrier::new(conns + 1));
    let traced = ctx.tracer.is_some();
    let producers: Vec<_> = tasks
        .into_iter()
        .enumerate()
        .map(|(conn, tasks)| {
            let go = go.clone();
            let agent = Agent::connect(
                addr,
                agent_host(conn),
                AgentConfig {
                    policy: OverloadPolicy::Block {
                        timeout: Duration::from_secs(120),
                    },
                    ..AgentConfig::default()
                },
            );
            std::thread::Builder::new()
                .name(format!("bench-producer-{conn}"))
                .spawn(move || produce(&tasks, agent, period, share, traced, &go))
                .expect("spawn producer")
        })
        .collect();
    pipeline.await_warm(warmup);
    seg.setup_s = setup_started.elapsed().as_secs_f64();
    seg.setup_span = Some((setup_started, Instant::now()));

    let before = pipeline.registry.render();
    let calib_before = sys::calib_ms();
    let cpu_before = sys::process_cpu_ns();
    let mut markers = MarkerTimes::new(config.window);
    let mut events: Vec<AnomalyEvent> = Vec::new();
    let started = Instant::now();
    go.wait();
    let ended = pipeline.await_processed(total, &mut markers, &mut events);
    seg.cpu_ns = sys::process_cpu_ns() - cpu_before;
    seg.wall_s = (ended - started).as_secs_f64();
    seg.timed_span = Some((started, ended));
    seg.calib_ms = (calib_before, sys::calib_ms());

    // Tear down front to back, collecting what each stage counted.
    let produced: Vec<Produced> = producers
        .into_iter()
        .map(|p| p.join().expect("producer thread"))
        .collect();
    let producer_wall: Duration = produced.iter().map(|p| p.wall).sum();
    let tasks_done: u64 = produced.iter().map(|p| p.tasks).sum();
    let untracked: u64 = produced.iter().map(|p| p.untracked).sum();
    let mut closes = Vec::new();
    let mut agents = Vec::new();
    let mut timed: Vec<TimedSinkState> = Vec::new();
    for p in produced {
        closes.push(p.closes);
        agents.push(p.agent);
        timed.extend(p.timed);
    }
    // `Agent::close` waits out the worker's poll interval: close all at once.
    let agent_stats: Vec<AgentStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = agents
            .into_iter()
            .map(|a| scope.spawn(move || a.close()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("agent close"))
            .collect()
    });
    let after = pipeline.registry.render();
    seg.attempted = total;
    seg.synopses = total - warmup;
    let (mut frames_written, mut dropped, mut reconnects) = (0u64, 0u64, 0u64);
    for (conn, s) in agent_stats.iter().enumerate() {
        frames_written += s.frames_written;
        dropped += s.drops.total() + s.synopses_wire_lost;
        reconnects += s.reconnects;
        if s.synopses_written != share {
            seg.fail_all(format!(
                "agent {conn} wrote {} of {share} synopses",
                s.synopses_written
            ));
        }
    }
    let tap = pipeline.finish(
        &mut seg,
        &vec![share; conns],
        &source,
        period,
        expected,
        events,
        &mut markers,
    );

    seg.delays_ms = markers.delays_ms(&closes);
    // Both renderings were taken with the handshakes and the warm-up
    // frames already read, so the difference is the timed frames only.
    let read_bytes = reactor_counters(&mut seg, &before, &after);
    seg.bytes_per_synopsis = read_bytes / seg.synopses as f64;
    let c = &mut seg.counters;
    c.insert("core.tracker.tasks", tasks_done as f64);
    c.insert("core.tracker.untracked_visits", untracked as f64);
    c.insert("net.agent.frames_written", frames_written as f64);
    c.insert("net.agent.dropped", dropped as f64);
    c.insert("net.agent.reconnects", reconnects as f64);
    if !timed.is_empty() {
        let busy: Duration = timed.iter().map(|t| t.busy).sum();
        let blocked: Duration = timed.iter().map(|t| t.blocked).sum();
        c.insert(
            "net.agent.send_ns",
            busy.as_secs_f64() * 1e9 / seg.synopses as f64,
        );
        c.insert(
            "net.agent.blocked_share",
            blocked.as_secs_f64() / producer_wall.as_secs_f64().max(1e-9),
        );
    }
    if let Some(tracer) = ctx.tracer {
        let root = tracer.record("segment", started, ended, None, 0);
        let batch_id =
            |host: HostId, uid: u64| (u64::from(host.0) << 48) | (uid & 0xFFFF_FFFF_FFFF);
        let arrived: HashMap<u64, Instant> = tap
            .stamps
            .iter()
            .map(|&(h, u, at)| (batch_id(h, u), at))
            .collect();
        for t in &timed {
            for &(host, uid, begun, handover, done) in &t.batches {
                let id = batch_id(host, uid);
                let parent = tracer.record("bench.producer.batch", begun, done, Some(root), id);
                tracer.record("net.agent.send", handover, done, Some(parent), id);
                if let Some(&at) = arrived.get(&id) {
                    tracer.record("hop.sink_to_tap", done, at, Some(root), id);
                }
            }
        }
        for (k, at_tap, received) in markers.samples(std::slice::from_ref(&tap.closes)) {
            tracer.record("hop.tap_to_event", at_tap, received, Some(root), k);
        }
    }
    seg
}

/// The body of one producer thread: replay `share` tasks of `tasks`
/// (cycling, each cycle `period` later) through per-host trackers into the
/// agent's sink; the first agent batch goes out before `go`, as warm-up.
fn produce(
    tasks: &[TaskSynopsis],
    agent: Agent,
    period: SimDuration,
    share: u64,
    traced: bool,
    go: &Barrier,
) -> Produced {
    let agent_sink = Arc::new(agent.sink(AGENT_BATCH));
    let timed = traced.then(|| {
        Arc::new(TimedSink {
            inner: agent_sink.clone(),
            state: Mutex::default(),
        })
    });
    let sink: Arc<dyn SynopsisSink> = match &timed {
        Some(t) => t.clone(),
        None => agent_sink.clone(),
    };
    let clock = Arc::new(ManualClock::new());
    let top = tasks.iter().map(|s| s.host.0).max().unwrap_or(0);
    let trackers: Vec<TaskExecutionTracker> = (0..=top)
        .map(|h| TaskExecutionTracker::new(HostId(h), clock.clone(), sink.clone()))
        .collect();
    let mut closes = CloseLog::new(WINDOW);
    let mut emit = |e: u64| {
        let task = &tasks[(e % tasks.len() as u64) as usize];
        let shift = SimDuration::from_micros(period.as_micros() * (e / tasks.len() as u64));
        closes.observe(task.start + shift, Instant::now);
        replay_task(&trackers[task.host.0 as usize], &clock, task, shift);
    };
    (0..AGENT_BATCH as u64).for_each(&mut emit);
    go.wait();
    let began = Instant::now();
    (AGENT_BATCH as u64..share).for_each(&mut emit);
    agent_sink.flush();
    let wall = began.elapsed();
    Produced {
        tasks: trackers.iter().map(TaskExecutionTracker::completed).sum(),
        untracked: trackers
            .iter()
            .map(TaskExecutionTracker::untracked_visits)
            .sum(),
        closes,
        agent,
        wall,
        timed: timed.map(|t| std::mem::take(&mut *t.state.lock().expect("sink state lock"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saad_core::tracker::VecSink;
    use saad_core::{StageId, TaskUid};
    use saad_logging::LogPointId;
    use saad_sim::SimTime;

    #[test]
    fn replayed_task_comes_out_of_the_tracker_as_recorded() {
        let sink = Arc::new(VecSink::new());
        let clock = Arc::new(ManualClock::new());
        let tracker = TaskExecutionTracker::new(HostId(3), clock.clone(), sink.clone());
        let recorded = TaskSynopsis {
            host: HostId(3),
            stage: StageId(7),
            uid: TaskUid(0),
            start: SimTime::from_millis(1_500),
            duration: SimDuration::from_micros(730),
            log_points: vec![(LogPointId(2), 1), (LogPointId(9), 3)],
        };
        let silent = TaskSynopsis {
            uid: TaskUid(1),
            start: SimTime::from_millis(900),
            log_points: Vec::new(),
            ..recorded.clone()
        };
        let shift = SimDuration::from_mins(60);
        replay_task(&tracker, &clock, &recorded, SimDuration::ZERO);
        // An earlier start after a later one: the scripted clock may rewind.
        replay_task(&tracker, &clock, &silent, SimDuration::ZERO);
        replay_task(&tracker, &clock, &recorded, shift);
        let out = sink.drain();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], recorded);
        assert_eq!(out[1], as_emitted(silent.clone()));
        assert_eq!(out[1].duration, SimDuration::ZERO);
        assert_eq!(out[2].start, recorded.start + shift);
        assert_eq!(out[2].duration, recorded.duration);
        assert_eq!(out[2].uid, TaskUid(2));
        assert_eq!(tracker.untracked_visits(), 0);
    }
}
