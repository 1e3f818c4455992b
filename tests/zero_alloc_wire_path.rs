//! Wire-path allocation audit: at steady state the sender side performs
//! **zero** heap allocations — both the framing round on its own (batches
//! pushed into one reused `FramePayload` and framed back to back into one
//! reused buffer with `FrameSender::frame_payload_into`) and the whole
//! producer path, from
//! `set_context` through the tracker, an `AgentSink`, the agent's queue
//! and its worker thread to the socket `write`. So does the collector's
//! hand-over: the frames of one ring drain decoded into one batch, sent
//! to another thread and dropped there.
//!
//! Sibling of `zero_alloc_hot_path.rs`, with its own counting global
//! allocator (integration tests are separate binaries) so that neither
//! audit's process-wide counter sees the other's work. For the same
//! reason this file has one `#[test]`: the counter sees every thread, and
//! the test harness allocates when a test on another thread ends.

mod common;

use bytes::BytesMut;
use saad::core::codec::{decode_batch_into, encode_batch};
use saad::core::prelude::*;
use saad::core::synopsis::TaskSynopsis;
use saad::core::transport::{FramePayload, FrameSender};
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
    decoded_batches_cross_threads_without_allocating();
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
    let mut payload = FramePayload::new();
    let mut round = |wire: &mut BytesMut| {
        wire.clear();
        for batch in &batches {
            payload.clear();
            for s in batch {
                assert!(payload.push_parts(&s.head(), &s.log_points));
            }
            sender.frame_payload_into(wire, &payload);
            assert_eq!(payload.synopses(), batch.len() as u64);
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

/// The collector's hand-over, as its reactor loop makes it: the frames
/// of one ring drain decoded onto one staging batch, which is sent over a
/// bounded channel, replaced by a `SynopsisBatch::with_capacity` of its
/// length, and dropped by the thread that receives it. A dropped batch's
/// columns go back on the batch spare list, so once that list holds a set
/// for every batch that can be in flight, no drain allocates — whether it
/// completes one frame or thirty; a clone of a warm 256-row batch draws
/// from the same list.
fn decoded_batches_cross_threads_without_allocating() {
    const FRAME: usize = 32;
    const QUEUE: usize = 4;
    const DRAINS: u64 = 1_000;
    /// Frames one 16 KiB ring drain completes at this frame size.
    const DRAIN: usize = 30;
    let frame: Vec<TaskSynopsis> = (0..FRAME as u64)
        .map(|i| TaskSynopsis {
            host: HostId(3),
            stage: StageId((i % 4) as u16),
            uid: TaskUid(i),
            start: SimTime::from_micros(1_000 + i),
            duration: SimDuration::from_micros(500 + i * 13),
            log_points: [1, 2, 3 + i as u16 % 5]
                .map(|p| (LogPointId(p), 1))
                .to_vec(),
        })
        .collect();
    let payload = encode_batch(&frame);
    let interner = SignatureInterner::new();
    let (tx, rx) = crossbeam_channel::bounded::<SynopsisBatch>(QUEUE);
    let dropped = Arc::new(AtomicU64::new(0));
    let consumer = {
        let dropped = Arc::clone(&dropped);
        std::thread::spawn(move || {
            for batch in rx.iter() {
                assert_eq!(batch.len() % FRAME, 0);
                drop(batch);
                dropped.fetch_add(1, Ordering::SeqCst);
            }
        })
    };
    // `drains` drains of `frames` frames each.
    let hand_over = |drains: u64, frames: usize| {
        let sent = dropped.load(Ordering::SeqCst) + drains;
        let mut staging = SynopsisBatch::with_capacity(frames * FRAME);
        for _ in 0..drains {
            for _ in 0..frames {
                decode_batch_into(&payload, &mut staging, &interner).expect("own encoding decodes");
            }
            let next = SynopsisBatch::with_capacity(staging.len());
            tx.send(std::mem::replace(&mut staging, next))
                .expect("consumer alive");
        }
        drop(staging);
        while dropped.load(Ordering::SeqCst) < sent {
            std::thread::yield_now();
        }
    };

    for frames in [1, DRAIN] {
        // Warm-up: the interner learns the flows, the channel reaches its
        // capacity, and the spare list gets a column set of this width for
        // every batch that can be alive at once (the queue's, one being
        // decoded, one being dropped, with room to spare).
        hand_over(64, frames);
        let in_flight: Vec<SynopsisBatch> = (0..QUEUE + 4)
            .map(|_| SynopsisBatch::with_capacity(frames * FRAME))
            .collect();
        drop(in_flight);

        let before = allocations();
        hand_over(DRAINS, frames);
        let delta = allocations() - before;
        assert_eq!(
            delta, 0,
            "a drain of {frames} decoded frames handed to another thread and dropped \
             there must not allocate at steady state ({delta} allocations over {DRAINS} drains)"
        );
    }
    drop(tx);
    consumer.join().expect("consumer thread");

    let mut warm = SynopsisBatch::with_capacity(8 * FRAME);
    for _ in 0..8 {
        decode_batch_into(&payload, &mut warm, &interner).expect("own encoding decodes");
    }
    drop(warm.clone()); // the spare it leaves on top is 256 rows wide
    let before = allocations();
    let copy = warm.clone();
    assert_eq!((copy.len(), &copy.sigs), (8 * FRAME, &warm.sigs));
    drop(copy);
    let delta = allocations() - before;
    assert_eq!(delta, 0, "a warm 256-row clone allocated {delta} times");
}
