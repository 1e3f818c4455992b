//! Microbenchmarks for the fault-tolerant transport layer, each row the
//! quartiles of `saad_bench::timed_ns` rounds in ns per call:
//!
//! * frame encode/decode (CRC-32 framing on top of the synopsis codec),
//! * the CRC-32 alone at the sizes the wire checksums,
//! * a collector's admission of a frame — check, in-place decode,
//!   sequencing — fresh and duplicate,
//! * bounded-sink submit under each overload policy, queue saturated —
//!   the backpressure fast path a producer pays when the analyzer lags.

use saad_bench::ns_row;
use saad_core::batch::SynopsisBatch;
use saad_core::codec::decode_batch_into;
use saad_core::intern::SignatureInterner;
use saad_core::pipeline::{BatchSink, OverloadPolicy};
use saad_core::synopsis::TaskSynopsis;
use saad_core::tracker::SynopsisSink;
use saad_core::transport::{
    check_frame, crc32, AdmitDecision, FramePayload, FrameReceiver, FrameSender, FRAME_HEADER_LEN,
};
use saad_core::{HostId, StageId, TaskUid};
use saad_logging::LogPointId;
use saad_sim::{SimDuration, SimTime};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn synopsis(uid: u64) -> TaskSynopsis {
    TaskSynopsis {
        host: HostId(0),
        stage: StageId(4),
        uid: TaskUid(uid),
        start: SimTime::from_micros(uid * 500),
        duration: SimDuration::from_micros(10_000),
        log_points: [1u16, 2, 4, 5, 9]
            .iter()
            .map(|&p| (LogPointId(p), 1))
            .collect(),
    }
}

fn batch(n: u64) -> Vec<TaskSynopsis> {
    (0..n).map(synopsis).collect()
}

/// What a collector does with one frame body: the frame check, the
/// payload decoded in place into `batch`, the sequencing verdict.
fn admit(
    rx: &mut FrameReceiver,
    frame: &[u8],
    batch: &mut SynopsisBatch,
    interner: &SignatureInterner,
) -> AdmitDecision {
    batch.clear();
    let (header, payload) = check_frame(frame).expect("a valid frame");
    let n = decode_batch_into(payload, batch, interner).expect("a valid payload");
    rx.admit_meta(header.host, header.seq, header.cumulative, n as u64)
}

fn bench_framing() {
    let synopses = batch(5);
    let frame = FrameSender::new(HostId(0)).encode_frame(&synopses);
    let mut sender = FrameSender::new(HostId(0));
    ns_row(
        "transport/encode_frame_5",
        1,
        || (),
        |()| sender.encode_frame(&synopses),
    );
    // The agent's shape: a 48-synopsis payload filled in place and framed
    // into a reused buffer — no allocation.
    let agent_batch = batch(48);
    let mut wire = bytes::BytesMut::new();
    let mut payload = FramePayload::new();
    let mut sender = FrameSender::new(HostId(0));
    ns_row(
        "transport/frame_payload_into_48",
        1,
        || (),
        |()| {
            payload.clear();
            for s in &agent_batch {
                assert!(payload.push_parts(&s.head(), &s.log_points));
            }
            wire.clear();
            sender.frame_payload_into(&mut wire, &payload);
        },
    );
    let kib = vec![0xA5u8; 1024];
    ns_row("transport/crc32_1k", 1, || (), |()| crc32(&[&kib]));
    let interner = SignatureInterner::new();
    let mut rows = SynopsisBatch::new();
    // A fresh receiver per call keeps every frame a fresh sequence.
    ns_row(
        "transport/admit_frame_5",
        1,
        || (FrameReceiver::new(), FrameSender::new(HostId(0))),
        |(mut rx, mut tx)| admit(&mut rx, &tx.encode_frame(&synopses), &mut rows, &interner),
    );
    let mut rx = FrameReceiver::new();
    admit(&mut rx, &frame, &mut rows, &interner);
    ns_row(
        "transport/admit_duplicate_frame",
        1,
        || (),
        |()| admit(&mut rx, &frame, &mut rows, &interner),
    );
    // Sanity: the header should stay a small fixed fraction of the frame.
    assert!(FRAME_HEADER_LEN < frame.len());
}

/// The CRC at the shapes the wire computes it, chunked as the callers
/// chunk them: an empty frame's header, a hello, and a header beside an
/// agent frame's payload of 32 synopses (~17.5 and ~25.5 bytes each).
fn bench_crc32() {
    let bytes: Vec<u8> = (0..22 + 816u32).map(|i| (i * 151 + 17) as u8).collect();
    let rows: [(&str, &[&[u8]]); 4] = [
        ("crc32/header_22", &[&bytes[..22], &[]]),
        ("crc32/hello_32", &[&bytes[..32]]),
        ("crc32/frame_22+560", &[&bytes[..22], &bytes[22..22 + 560]]),
        ("crc32/frame_22+816", &[&bytes[..22], &bytes[22..22 + 816]]),
    ];
    for (name, chunks) in rows {
        ns_row(name, 1, || (), |()| crc32(black_box(chunks)));
    }
}

fn bench_sink_policies() {
    for (name, policy) in [
        ("sink_saturated/drop_newest", OverloadPolicy::DropNewest),
        ("sink_saturated/drop_oldest", OverloadPolicy::DropOldest),
        (
            "sink_saturated/block_1us",
            OverloadPolicy::Block {
                timeout: Duration::from_micros(1),
            },
        ),
    ] {
        // One synopsis per batch: the per-submit cost of a full queue.
        let interner = Arc::new(SignatureInterner::new());
        let (sink, _rx) = BatchSink::bounded(64, 1, policy, interner);
        for s in batch(64) {
            sink.submit(s);
        }
        ns_row(name, 1, || (), |()| sink.submit(synopsis(0)));
    }
}

fn main() {
    bench_framing();
    bench_crc32();
    bench_sink_policies();
}
