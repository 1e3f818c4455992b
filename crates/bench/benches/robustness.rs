//! Criterion benchmarks for the fault-tolerant transport layer:
//!
//! * frame encode/decode (CRC-32 framing on top of the synopsis codec),
//! * the CRC-32 alone at the sizes the wire checksums,
//! * receiver accept cost with the reorder-horizon duplicate filter,
//! * bounded-sink submit under each overload policy, queue saturated —
//!   the backpressure fast path a producer pays when the analyzer lags.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use saad_core::intern::SignatureInterner;
use saad_core::pipeline::{BatchSink, OverloadPolicy};
use saad_core::synopsis::TaskSynopsis;
use saad_core::tracker::SynopsisSink;
use saad_core::transport::{crc32, FrameReceiver, FrameSender, FRAME_HEADER_LEN};
use saad_core::{HostId, StageId, TaskUid};
use saad_logging::LogPointId;
use saad_sim::{SimDuration, SimTime};
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

fn bench_framing(c: &mut Criterion) {
    let synopses = batch(5);
    let frame = FrameSender::new(HostId(0)).encode_frame(&synopses);
    let mut g = c.benchmark_group("transport");
    g.throughput(Throughput::Bytes(frame.len() as u64));
    g.bench_function("encode_frame_5", |b| {
        let mut sender = FrameSender::new(HostId(0));
        b.iter(|| sender.encode_frame(&synopses))
    });
    // The agent's shape: a 48-synopsis batch assembled in place in a
    // reused buffer — no allocation, one pass.
    let agent_batch = batch(48);
    let mut wire = bytes::BytesMut::new();
    let mut sender = FrameSender::new(HostId(0));
    sender.encode_frame_into(&mut wire, &agent_batch);
    g.throughput(Throughput::Bytes(wire.len() as u64));
    g.bench_function("encode_frame_into_48", |b| {
        b.iter(|| {
            wire.clear();
            sender.encode_frame_into(&mut wire, &agent_batch)
        })
    });
    let kib = vec![0xA5u8; 1024];
    g.throughput(Throughput::Bytes(kib.len() as u64));
    g.bench_function("crc32_1k", |b| b.iter(|| crc32(&[&kib])));
    g.throughput(Throughput::Bytes(frame.len() as u64));
    g.bench_function("accept_frame_5", |b| {
        // A fresh receiver per batch keeps every frame a fresh sequence.
        b.iter_batched(
            || (FrameReceiver::new(), FrameSender::new(HostId(0))),
            |(mut rx, mut tx)| rx.accept(&tx.encode_frame(&synopses)),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("accept_duplicate_frame", |b| {
        let mut rx = FrameReceiver::new();
        rx.accept(&frame).unwrap();
        b.iter(|| rx.accept(&frame))
    });
    g.finish();
    // Sanity: the header should stay a small fixed fraction of the frame.
    assert!(FRAME_HEADER_LEN < frame.len());
}

/// The CRC at the shapes the wire computes it, chunked as the callers
/// chunk them: an empty frame's header, a hello, and a header beside an
/// agent frame's payload of 32 synopses (~17.5 and ~25.5 bytes each).
fn bench_crc32(c: &mut Criterion) {
    let bytes: Vec<u8> = (0..22 + 816u32).map(|i| (i * 151 + 17) as u8).collect();
    let rows: [(&str, &[&[u8]]); 4] = [
        ("header_22", &[&bytes[..22], &[]]),
        ("hello_32", &[&bytes[..32]]),
        ("frame_22+560", &[&bytes[..22], &bytes[22..22 + 560]]),
        ("frame_22+816", &[&bytes[..22], &bytes[22..22 + 816]]),
    ];
    let mut g = c.benchmark_group("crc32");
    for (name, chunks) in rows {
        g.throughput(Throughput::Bytes(
            chunks.iter().map(|s| s.len() as u64).sum(),
        ));
        g.bench_function(name, |b| b.iter(|| crc32(black_box(chunks))));
    }
    g.finish();
}

fn bench_sink_policies(c: &mut Criterion) {
    let mut g = c.benchmark_group("sink_saturated");
    g.throughput(Throughput::Elements(1));
    for (name, policy) in [
        ("drop_newest", OverloadPolicy::DropNewest),
        ("drop_oldest", OverloadPolicy::DropOldest),
        (
            "block_1us",
            OverloadPolicy::Block {
                timeout: Duration::from_micros(1),
            },
        ),
    ] {
        g.bench_function(name, |b| {
            // One synopsis per batch: the per-submit cost of a full queue.
            let interner = Arc::new(SignatureInterner::new());
            let (sink, _rx) = BatchSink::bounded(64, 1, policy, interner);
            for s in batch(64) {
                sink.submit(s);
            }
            b.iter(|| sink.submit(synopsis(0)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_framing, bench_crc32, bench_sink_policies);
criterion_main!(benches);
