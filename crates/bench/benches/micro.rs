//! Criterion microbenchmarks for SAAD's hot paths:
//!
//! * per-log-point tracker cost (the paper's "practically zero overhead"
//!   claim reduced to its inner loop), and per-task cost into a discarding
//!   sink and into an `AgentSink` streaming to a collector,
//! * synopsis encode/decode,
//! * the collector's edge one layer at a time — interning a known and a
//!   new signature, decoding a 32-synopsis frame straight into a batch,
//!   one channel hand-over with nobody parked (EXPERIMENTS.md "Collector
//!   edge" quotes these),
//! * model construction throughput,
//! * analyzer observe throughput (the paper sustains 1500 synopses/s), the
//!   batch path over one stream in order and with every sixth element three
//!   windows old, and the cost of closing a silent window (EXPERIMENTS.md
//!   "Late data" quotes these three).

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use saad_bench::DrainingCollector;
use saad_core::batch::SynopsisBatch;
use saad_core::detector::{AnomalyDetector, DetectorConfig};
use saad_core::feature::InternedFeature;
use saad_core::intern::SignatureInterner;
use saad_core::model::{ModelBuilder, ModelConfig, VerdictMask};
use saad_core::pipeline::OverloadPolicy;
use saad_core::synopsis::TaskSynopsis;
use saad_core::tracker::{NullSink, SynopsisSink, TaskExecutionTracker};
use saad_core::{codec, HostId, StageId, TaskUid};
use saad_logging::{LogPointId, Logger};
use saad_net::{Agent, AgentConfig};
use saad_sim::{Clock, ManualClock, SimDuration, SimTime};
use std::sync::Arc;

fn synopsis(stage: u16, points: &[u16], dur_us: u64, uid: u64) -> TaskSynopsis {
    TaskSynopsis {
        host: HostId(0),
        stage: StageId(stage),
        uid: TaskUid(uid),
        start: SimTime::from_micros(uid * 500),
        duration: SimDuration::from_micros(dur_us),
        log_points: points.iter().map(|&p| (LogPointId(p), 1)).collect(),
    }
}

fn bench_tracker(c: &mut Criterion) {
    let clock = Arc::new(ManualClock::new());
    let sink = Arc::new(NullSink::new());
    let tracker = Arc::new(TaskExecutionTracker::new(
        HostId(0),
        clock as Arc<dyn Clock>,
        sink as Arc<dyn SynopsisSink>,
    ));
    let logger = Logger::builder("S").interceptor(tracker.clone()).build();
    let mut g = c.benchmark_group("tracker");
    g.throughput(Throughput::Elements(1));
    tracker.set_context(StageId(1));
    g.bench_function("log_point_visit", |b| {
        b.iter(|| logger.debug(LogPointId(3), format_args!("Receiving one packet")))
    });
    g.bench_function("task_lifecycle_5_points", |b| {
        b.iter(|| {
            tracker.set_context(StageId(1));
            for p in 0..5u16 {
                logger.debug(LogPointId(p), format_args!("point"));
            }
            tracker.end_task();
        })
    });
    // The same task handed to an `AgentSink`: encoded into the frame
    // payload on this thread, one queue hand-over per 48 tasks, the agent's
    // worker and a reactor collector running alongside. This loop outruns
    // the wire, so a full queue drops (and counts) the payload rather
    // than block: the figure is what the server thread pays, not what
    // the pipeline sustains.
    let collector = DrainingCollector::spawn();
    let config = AgentConfig {
        policy: OverloadPolicy::DropNewest,
        ..AgentConfig::default()
    };
    let agent = Agent::connect(collector.addr(), HostId(0), config);
    let streaming = Arc::new(TaskExecutionTracker::new(
        HostId(0),
        Arc::new(ManualClock::new()) as Arc<dyn Clock>,
        Arc::new(agent.sink(48)) as Arc<dyn SynopsisSink>,
    ));
    let logger = Logger::builder("S").interceptor(streaming.clone()).build();
    g.bench_function("task_to_payload", |b| {
        b.iter(|| {
            streaming.set_context(StageId(1));
            for p in 0..5u16 {
                logger.debug(LogPointId(p), format_args!("point"));
            }
            streaming.end_task();
        })
    });
    g.finish();
    let tasks = streaming.completed();
    drop((logger, streaming)); // the sink goes with them, flushing its tail
    let stats = agent.close();
    assert_eq!(stats.synopses_written + stats.drops.total(), tasks);
    assert_eq!(collector.finish(), stats.synopses_written);
}

fn bench_codec(c: &mut Criterion) {
    let s = synopsis(4, &[1, 2, 4, 5, 9], 10_000, 7);
    let wire = codec::encode(&s);
    let mut g = c.benchmark_group("codec");
    g.throughput(Throughput::Elements(1));
    g.bench_function("encode", |b| b.iter(|| codec::encode(&s)));
    g.bench_function("decode", |b| {
        b.iter_batched(
            || wire.clone(),
            |mut w| codec::decode(&mut w).expect("decodes"),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_collector_edge(c: &mut Criterion) {
    // As many flows as `saad-e2e`'s capture holds, one to six points each.
    let flows: Vec<Vec<u16>> = (0..23u16)
        .map(|k| (0..1 + k % 6).map(|j| 3 * k + 7 * j).collect())
        .collect();
    let slices: Vec<Vec<LogPointId>> = flows
        .iter()
        .map(|f| f.iter().map(|&p| LogPointId(p)).collect())
        .collect();
    let intern_all = |interner: &SignatureInterner| {
        for points in &slices {
            black_box(interner.intern_points(points));
        }
    };

    let mut g = c.benchmark_group("intern");
    g.throughput(Throughput::Elements(slices.len() as u64));
    let warm = SignatureInterner::new();
    intern_all(&warm);
    g.bench_function("hit", |b| b.iter(|| intern_all(&warm)));
    g.bench_function("miss", |b| {
        b.iter_batched(
            SignatureInterner::new,
            |fresh| {
                intern_all(&fresh);
                fresh
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();

    let frame: Vec<TaskSynopsis> = (0..32u64)
        .map(|i| {
            synopsis(
                (i % 5) as u16,
                &flows[i as usize % flows.len()],
                9_000 + i,
                i,
            )
        })
        .collect();
    let payload = codec::encode_batch(&frame);
    let mut batch = SynopsisBatch::with_capacity(frame.len());
    let mut g = c.benchmark_group("decode_batch_into");
    g.throughput(Throughput::Elements(frame.len() as u64));
    g.bench_function("32", |b| {
        b.iter(|| {
            batch.clear();
            codec::decode_batch_into(&payload, &mut batch, &warm).expect("decodes")
        })
    });
    g.finish();

    let (tx, rx) = crossbeam_channel::bounded::<u64>(64);
    let mut g = c.benchmark_group("channel");
    g.throughput(Throughput::Elements(1));
    g.bench_function("send_recv_nobody_parked", |b| {
        b.iter(|| {
            tx.send(7).expect("receiver alive");
            rx.recv().expect("just sent")
        })
    });
    g.finish();
}

fn trained_model() -> Arc<saad_core::model::OutlierModel> {
    let mut b = ModelBuilder::new();
    for i in 0..50_000u64 {
        let pts: &[u16] = if i.is_multiple_of(1000) {
            &[1, 2, 3, 4, 5]
        } else {
            &[1, 2, 4, 5]
        };
        b.observe(&synopsis(0, pts, 9_000 + (i % 97) * 20, i));
    }
    Arc::new(b.build(ModelConfig::default()))
}

fn bench_model_build(c: &mut Criterion) {
    let synopses: Vec<TaskSynopsis> = (0..20_000u64)
        .map(|i| synopsis((i % 8) as u16, &[1, 2, 4, 5], 9_000 + (i % 97) * 20, i))
        .collect();
    let mut g = c.benchmark_group("model");
    g.throughput(Throughput::Elements(synopses.len() as u64));
    g.bench_function("build_20k", |b| {
        b.iter(|| {
            let mut mb = ModelBuilder::new();
            for s in &synopses {
                mb.observe(s);
            }
            mb.build(ModelConfig::default())
        })
    });
    g.finish();
}

fn bench_detector(c: &mut Criterion) {
    let model = trained_model();
    let interner = Arc::new(SignatureInterner::new());
    let compiled = Arc::new(model.compile(&interner));
    let fresh = || {
        let config = DetectorConfig::default();
        AnomalyDetector::with_shared(model.clone(), compiled.clone(), interner.clone(), config)
    };
    let features: Vec<InternedFeature> = (0..10_000u64)
        .map(|i| InternedFeature::from_synopsis(&synopsis(0, &[1, 2, 4, 5], 9_500, i), &interner))
        .collect();
    let mut g = c.benchmark_group("detector");
    g.throughput(Throughput::Elements(features.len() as u64));
    g.bench_function("observe_10k", |b| {
        b.iter_batched(
            fresh,
            |mut d| {
                for f in &features {
                    d.observe_interned(f);
                }
                d.flush()
            },
            BatchSize::SmallInput,
        )
    });

    // The batch path over six one-minute windows of four hosts, in batches
    // of 256 stamped with the running-maximum watermark: once in order,
    // once with every sixth element three windows old — a straggler, which
    // is a silent window of its own.
    const STREAM: u64 = 12_288;
    let window_us = DetectorConfig::default().window.as_micros();
    let batches = |late_every: u64| -> (Vec<SynopsisBatch>, u64) {
        let (mut watermark, mut late) = (SimTime::ZERO, 0);
        let mut out = Vec::new();
        let mut batch = SynopsisBatch::with_capacity(256);
        for i in 0..STREAM {
            let mut s = synopsis(0, &[1, 2, 4, 5], 9_000 + (i % 97) * 20, i);
            s.host = HostId((i % 4) as u16);
            let behind = if late_every != 0 && i % late_every == 0 {
                3
            } else {
                0
            };
            s.start = SimTime::from_micros((3 - behind) * window_us + i * 30_000);
            watermark = watermark.max(s.start);
            late +=
                u64::from(s.start.as_micros() / window_us + 1 < watermark.as_micros() / window_us);
            batch.push_feature(&InternedFeature::from_synopsis(&s, &interner), watermark);
            if batch.len() == 256 {
                out.push(std::mem::replace(
                    &mut batch,
                    SynopsisBatch::with_capacity(256),
                ));
            }
        }
        (out, late)
    };
    g.throughput(Throughput::Elements(STREAM));
    for (name, late_every) in [("observe_batch/in_order", 0), ("observe_batch/late_16", 6)] {
        let (batches, late) = batches(late_every);
        // Every `late_every`-th element but the first, which nothing precedes.
        let stragglers = STREAM.checked_div(late_every).map_or(0, |n| n - 1);
        assert_eq!(late, stragglers);
        let mut verdicts = VerdictMask::new();
        g.bench_function(name, |b| {
            b.iter_batched(
                fresh,
                |mut d| {
                    for batch in &batches {
                        black_box(d.observe_batch(batch, &mut verdicts));
                    }
                    assert_eq!(d.late_seen(), late);
                    d
                },
                BatchSize::SmallInput,
            )
        });
    }

    // 1000 open windows of 16 healthy tasks each — both proportion tests
    // run in every one, neither rejects — closed by one watermark advance.
    let mut filled = fresh();
    for i in 0..16_000u64 {
        let mut s = synopsis(0, &[1, 2, 4, 5], 9_000 + (i % 97) * 20, i);
        s.host = HostId((i % 1000) as u16);
        filled.observe_interned(&InternedFeature::from_synopsis(&s, &interner));
    }
    let filled = filled.snapshot();
    g.throughput(Throughput::Elements(1000));
    g.bench_function("close_silent_windows/1000", |b| {
        b.iter_batched(
            || AnomalyDetector::from_snapshot(filled.clone()),
            |mut d| {
                let events = d.advance_watermark(SimTime::from_micros(3 * window_us));
                assert!(events.is_empty() && d.open_windows() == 0);
                d
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_tracker,
    bench_codec,
    bench_collector_edge,
    bench_model_build,
    bench_detector
);
criterion_main!(benches);
