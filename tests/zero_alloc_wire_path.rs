//! Wire-path allocation audit: at steady state the sender side performs
//! **zero** heap allocations — both the framing round on its own (batches
//! framed back to back into one reused buffer with
//! `FrameSender::encode_frame_into`) and the whole producer path, from
//! `set_context` through the tracker, an `AgentSink`, the agent's queue
//! and its worker thread to the socket `write`.
//!
//! Sibling of `zero_alloc_hot_path.rs`, with its own counting global
//! allocator (integration tests are separate binaries) so that neither
//! audit's process-wide counter sees the other's work. For the same
//! reason this file has one `#[test]`: the counter sees every thread, and
//! the test harness allocates when a test on another thread ends.

mod common;

use bytes::BytesMut;
use saad::core::prelude::*;
use saad::core::synopsis::TaskSynopsis;
use saad::core::transport::FrameSender;
use saad::logging::{Interceptor, Level, LogPointId};
use saad::net::{Agent, AgentConfig};
use saad::sim::{Clock, ManualClock, SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Read;
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: defers entirely to the system allocator; the counter does not
// affect the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static AUDIT: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn steady_state_wire_path_allocates_nothing() {
    frame_encoding_allocates_nothing();
    tracker_to_socket_allocates_nothing();
}

fn frame_encoding_allocates_nothing() {
    // The agent's recurring wire round: a few 48-synopsis batches framed
    // back to back into one buffer, which is then cleared for the next.
    let batches: Vec<Vec<TaskSynopsis>> = (0..4u64)
        .map(|b| {
            (0..48u64)
                .map(|i| TaskSynopsis {
                    host: HostId(7),
                    stage: StageId((i % 3) as u16),
                    uid: TaskUid(b * 48 + i),
                    start: SimTime::from_millis(1 + b * 48 + i),
                    duration: SimDuration::from_micros(1_000 + i * 17),
                    log_points: if i % 3 == 0 {
                        [1, 2, 3, 700].map(|p| (LogPointId(p), 1)).to_vec()
                    } else {
                        [4, 5].map(|p| (LogPointId(p), 1)).to_vec()
                    },
                })
                .collect()
        })
        .collect();
    let mut sender = FrameSender::new(HostId(7));
    let mut wire = BytesMut::new();
    let mut round = |wire: &mut BytesMut| {
        wire.clear();
        for batch in &batches {
            assert_eq!(sender.encode_frame_into(wire, batch), batch.len());
        }
        wire.len()
    };

    // Warm-up: the buffer reaches its steady-state capacity.
    round(&mut wire);

    let before = allocations();
    const ROUNDS: u64 = 16;
    let mut wire_bytes = 0;
    for _ in 0..ROUNDS {
        wire_bytes = round(&mut wire);
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "steady-state frame encoding must be allocation-free \
         ({delta} allocations over {ROUNDS} rounds)"
    );
    assert!(
        wire_bytes > batches.len() * 48 * 10,
        "the rounds framed real bytes"
    );
    assert_eq!(sender.frames_sent(), (1 + ROUNDS) * batches.len() as u64);
}

/// A collector that acknowledges one agent's hello, then reads and
/// discards, into one fixed buffer, until the agent's goodbye. Returns
/// the bytes it discarded.
fn draining_listener() -> (std::net::SocketAddr, std::thread::JoinHandle<u64>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let drain = std::thread::spawn(move || {
        let mut stream = common::accept_agent(&listener);
        let mut scratch = [0u8; 16 * 1024];
        let mut drained = 0u64;
        loop {
            match stream.read(&mut scratch).expect("read") {
                0 => return drained,
                n => drained += n as u64,
            }
        }
    });
    (addr, drain)
}

fn tracker_to_socket_allocates_nothing() {
    const BATCH: u64 = 48;
    let (addr, drain) = draining_listener();
    let agent = Agent::connect(
        addr,
        HostId(7),
        AgentConfig {
            // A short queue bounds the payload buffers in circulation.
            capacity: 4,
            ..AgentConfig::default()
        },
    );
    let clock = Arc::new(ManualClock::new());
    let tracker = TaskExecutionTracker::new(
        HostId(7),
        clock.clone() as Arc<dyn Clock>,
        Arc::new(agent.sink(BATCH as usize)),
    );
    // One round is one frame's worth of tasks, as instrumented server
    // code runs them: stage delimiter, log calls, task end.
    let mut uid = 0u64;
    let mut round = || {
        for _ in 0..BATCH {
            clock.set(SimTime::from_micros(1_000 * uid));
            tracker.set_context(StageId((uid % 3) as u16));
            for p in 0..1 + uid % 5 {
                clock.set(SimTime::from_micros(1_000 * uid + 100 * p));
                tracker.on_log_point(LogPointId(3 + 200 * p as u16), Level::Debug);
                tracker.on_log_point(LogPointId(3), Level::Info);
            }
            tracker.end_task();
            uid += 1;
        }
    };
    let wait_for_frames = |frames: u64| {
        while agent.stats().frames_written < frames {
            std::thread::yield_now();
        }
    };

    // In step with the worker — every frame on the socket before the next
    // round begins — each round does exactly the per-synopsis and
    // per-frame work and nothing that depends on how far one thread got
    // ahead of the other. Warm-up: the thread's task record, two payload
    // buffers, the queue, the worker's wire buffer.
    const WARM_UP: u64 = 8;
    const ROUNDS: u64 = 64;
    for done in 1..=WARM_UP {
        round();
        wait_for_frames(done);
    }
    let before = allocations();
    for done in WARM_UP + 1..=WARM_UP + ROUNDS {
        round();
        wait_for_frames(done);
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "set_context to socket write must be allocation-free at steady state \
         ({delta} allocations over {ROUNDS} frames, producer and worker threads)"
    );

    // Free-running, the producer gets ahead: buffers grow to what the
    // burst needs (at most queue + 2 payloads, one wire image), which is
    // a handful of allocations, not one per frame or per synopsis.
    const BURST: u64 = 400;
    let before = allocations();
    (0..BURST).for_each(|_| round());
    wait_for_frames(WARM_UP + ROUNDS + BURST);
    let delta = allocations() - before;
    assert!(
        delta < BURST / 4,
        "{delta} allocations over {BURST} free-running frames"
    );

    drop(tracker); // and with it the sink: nothing is buffered
    let stats = agent.close();
    let frames = WARM_UP + ROUNDS + BURST;
    assert_eq!(stats.frames_written, frames);
    assert_eq!(stats.synopses_written, frames * BATCH);
    assert_eq!(stats.drops.total() + stats.synopses_wire_lost, 0);
    let drained = drain.join().expect("listener thread");
    assert!(drained > stats.synopses_written * 10, "real bytes arrived");
}
