//! Wire-path allocation audit: at steady state the sender-side round —
//! batches framed back to back into one reused buffer with
//! `FrameSender::encode_frame_into` — performs **zero** heap allocations.
//!
//! Sibling of `zero_alloc_hot_path.rs`, with its own counting global
//! allocator (integration tests are separate binaries) so that neither
//! audit's process-wide counter sees the other's work.

use bytes::BytesMut;
use saad::core::prelude::*;
use saad::core::synopsis::TaskSynopsis;
use saad::core::transport::FrameSender;
use saad::logging::LogPointId;
use saad::sim::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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
fn steady_state_frame_encoding_allocates_nothing() {
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
