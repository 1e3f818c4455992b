//! Criterion microbenchmarks for SAAD's hot paths:
//!
//! * per-log-point tracker cost (the paper's "practically zero overhead"
//!   claim reduced to its inner loop), and per-task cost into a discarding
//!   sink and into an `AgentSink` streaming to a collector,
//! * synopsis encode/decode,
//! * the collector's edge one layer at a time — interning a known and a
//!   new signature, decoding a 32-synopsis frame straight into a batch,
//!   one channel hand-over with nobody parked (EXPERIMENTS.md
//!   "Microbenchmarks" quotes these),
//! * a frame-sized batch built, sent to another thread and dropped there,
//!   and a copy of a 256-row batch (EXPERIMENTS.md "Claimed gains", PR 32),
//! * model construction throughput,
//! * analyzer observe throughput (the paper sustains 1500 synopses/s): the
//!   batch path over one stream in order and with every sixth element three
//!   windows old, the cost of closing a silent window, window turnover
//!   over 2 000 (host, stage) pairs, a boundary crossed every batch, and
//!   the capture's 23 flows on five stages and 256 hosts (EXPERIMENTS.md
//!   "Microbenchmarks" quotes these five),
//! * a host sweep (ROADMAP 13): one fixed stream on 16 to 4 096 hosts —
//!   ns per synopsis, a restart copy and a close per open window,
//!   checkpoint bytes per open window (EXPERIMENTS.md "Host sweep").

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
            |mut w| saad_core::testkit::decode(&mut w).expect("decodes"),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// As many flows as `saad-e2e`'s capture holds, one to six points each.
fn capture_flows() -> Vec<Vec<u16>> {
    (0..23u16)
        .map(|k| (0..1 + k % 6).map(|j| 3 * k + 7 * j).collect())
        .collect()
}

fn bench_collector_edge(c: &mut Criterion) {
    let flows = capture_flows();
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

fn bench_batch(c: &mut Criterion) {
    let interner = SignatureInterner::new();
    let features: Vec<InternedFeature> = (0..256u64)
        .map(|i| {
            let s = synopsis((i % 5) as u16, &[1, 2, 4, 5], 9_000 + i, i);
            InternedFeature::from_synopsis(&s, &interner)
        })
        .collect();
    let mut g = c.benchmark_group("batch");
    g.throughput(Throughput::Elements(1));
    // The collector's per-frame hand-over: a batch of 32 built here and
    // dropped on the receiving thread, so its columns are freed, or
    // recycled, by a thread other than the one that asked for them.
    let (tx, rx) = crossbeam_channel::bounded::<SynopsisBatch>(64);
    let consumer = std::thread::spawn(move || rx.iter().count());
    g.bench_function("handover_32", |b| {
        b.iter(|| {
            let mut batch = SynopsisBatch::with_capacity(32);
            for f in &features[..32] {
                batch.push_feature(f, f.start);
            }
            tx.send(batch).expect("consumer alive");
        })
    });
    let mut warm = SynopsisBatch::with_capacity(features.len());
    for f in &features {
        warm.push_feature(f, f.start);
    }
    g.bench_function("clone_256", |b| b.iter(|| warm.clone()));
    g.finish();
    drop(tx);
    consumer.join().expect("consumer thread");
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
    let mut g = c.benchmark_group("detector");

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
    let mut tasks = SynopsisBatch::with_capacity(16_000);
    for i in 0..16_000u64 {
        let mut s = synopsis(0, &[1, 2, 4, 5], 9_000 + (i % 97) * 20, i);
        s.host = HostId((i % 1000) as u16);
        tasks.push_synopsis(&s, &interner);
    }
    filled.observe_batch(&tasks, &mut VerdictMask::new());
    g.throughput(Throughput::Elements(1000));
    g.bench_function("close_silent_windows/1000", |b| {
        b.iter_batched(
            || filled.clone(),
            |mut d| {
                let events = d.advance_watermark(SimTime::from_micros(3 * window_us));
                assert!(events.is_empty() && d.open_windows() == 0);
                d
            },
            BatchSize::SmallInput,
        )
    });

    // Window turnover at fleet width: 2 000 (host, stage) pairs at 8 tasks
    // per window, one window per 16 000-row batch, stamped with the running
    // maximum, so every batch's first row crosses a window boundary and
    // closes the window two back. Ten windows per iteration from a copy
    // that has two open; ns per synopsis.
    const PAIRS: u64 = 2_000;
    let per_window = PAIRS * 8;
    let mut watermark = SimTime::ZERO;
    let turnover: Vec<SynopsisBatch> = (0..12u64)
        .map(|idx| {
            let mut batch = SynopsisBatch::with_capacity(per_window as usize);
            for i in 0..per_window {
                let mut s = synopsis(0, &[1, 2, 4, 5], 9_000 + (i % 97) * 20, i);
                s.host = HostId((i % PAIRS) as u16);
                s.start = SimTime::from_micros(idx * window_us + i * (window_us / per_window));
                watermark = watermark.max(s.start);
                batch.push_feature(&InternedFeature::from_synopsis(&s, &interner), watermark);
            }
            batch
        })
        .collect();
    let mut warm = fresh();
    let mut verdicts = VerdictMask::new();
    for batch in &turnover[..2] {
        warm.observe_batch(batch, &mut verdicts);
    }
    assert_eq!(warm.open_windows(), 2 * PAIRS as usize);
    g.throughput(Throughput::Elements(10 * per_window));
    g.bench_function("window_turnover/2000", |b| {
        b.iter_batched(
            || warm.clone(),
            |mut d| {
                for batch in &turnover[2..] {
                    black_box(d.observe_batch(batch, &mut verdicts));
                }
                assert_eq!(d.open_windows(), 2 * PAIRS as usize);
                d
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
    bench_mixed(c);
}

/// The capture's 23 flows on five stages (flow `k` on stage `k % 5`): per
/// stage three or four performance groups and, on stages 0–2, one rare
/// flow (a flow outlier); one row in 97 is a never-trained signature.
fn mixed_model(flows: &[Vec<u16>]) -> Arc<saad_core::model::OutlierModel> {
    let mut b = ModelBuilder::new();
    for i in 0..92_000u64 {
        let k = (i % 23) as usize;
        if k >= 20 && (i / 23) % 200 != 0 {
            continue;
        }
        b.observe(&synopsis(
            (k % 5) as u16,
            &flows[k],
            9_000 + (i % 97) * 20,
            i,
        ));
    }
    Arc::new(b.build(ModelConfig::default()))
}

/// `rows` rows of the mixed stream over `hosts` hosts and `windows`
/// one-minute windows, in batches of 256 stamped with the running maximum.
fn mixed_stream(
    flows: &[Vec<u16>],
    interner: &SignatureInterner,
    rows: u64,
    hosts: u64,
    windows: u64,
) -> Vec<SynopsisBatch> {
    let window_us = DetectorConfig::default().window.as_micros();
    let mut out = Vec::new();
    let mut batch = SynopsisBatch::with_capacity(256);
    for i in 0..rows {
        let mut k = ((i * 7 + i / 256) % 23) as usize;
        if k >= 20 && !i.is_multiple_of(50) {
            k -= 3;
        }
        let slow = i.is_multiple_of(13);
        let dur = if slow { 120_000 } else { 9_000 + (i % 97) * 20 };
        let never_trained = [500 + (i % 3) as u16];
        let points: &[u16] = if i.is_multiple_of(97) {
            &never_trained
        } else {
            &flows[k]
        };
        let mut s = synopsis((k % 5) as u16, points, dur, i);
        s.host = HostId((i % hosts) as u16);
        s.start = SimTime::from_micros(i * windows * window_us / rows);
        batch.push_synopsis(&s, interner);
        if batch.len() == 256 {
            out.push(std::mem::replace(
                &mut batch,
                SynopsisBatch::with_capacity(256),
            ));
        }
    }
    out.push(batch);
    out
}

/// `detector/observe_batch/mixed`: the mixed stream on 256 hosts, 1 280
/// (host, stage) pairs, six windows of eight rows per pair. Then the host
/// sweep (ROADMAP 13): one fixed stream of 2^18 rows over eight windows on
/// 16 to 4 096 hosts — ns per synopsis; per open window half-way through,
/// a restart copy (clone and drop) and a close; and the checkpoint bytes
/// per open window there (printed).
fn bench_mixed(c: &mut Criterion) {
    let flows = capture_flows();
    let model = mixed_model(&flows);
    let interner = Arc::new(SignatureInterner::new());
    let compiled = Arc::new(model.compile(&interner));
    let fresh = || {
        let config = DetectorConfig::default();
        AnomalyDetector::with_shared(model.clone(), compiled.clone(), interner.clone(), config)
    };
    let run = |batches: &[SynopsisBatch], verdicts: &mut VerdictMask| {
        let mut d = fresh();
        for batch in batches {
            black_box(d.observe_batch(batch, verdicts));
        }
        d
    };
    let mut g = c.benchmark_group("detector");
    let mut verdicts = VerdictMask::new();

    const MIXED: u64 = 256 * 5 * 6 * 8;
    let mixed = mixed_stream(&flows, &interner, MIXED, 256, 6);
    g.throughput(Throughput::Elements(MIXED));
    g.bench_function("observe_batch/mixed", |b| {
        b.iter_batched(
            || (),
            |()| run(&mixed, &mut verdicts),
            BatchSize::SmallInput,
        )
    });

    const SWEEP: u64 = 1 << 18;
    for hosts in [16u64, 256, 1_024, 4_096] {
        let stream = mixed_stream(&flows, &interner, SWEEP, hosts, 8);
        g.throughput(Throughput::Elements(SWEEP));
        g.bench_function(&format!("hosts/{hosts}/observe_batch"), |b| {
            b.iter_batched(
                || (),
                |()| run(&stream, &mut verdicts),
                BatchSize::SmallInput,
            )
        });
        let half = run(&stream[..stream.len() / 2], &mut verdicts);
        let open = half.open_windows() as u64;
        let mut checkpoint = bytes::BytesMut::new();
        half.encode_into(&mut checkpoint);
        println!(
            "detector/hosts/{hosts}: {open} open windows half-way, {:.1} checkpoint bytes per open window",
            checkpoint.len() as f64 / open as f64
        );
        g.throughput(Throughput::Elements(open));
        g.bench_function(&format!("hosts/{hosts}/snapshot"), |b| {
            b.iter(|| half.clone())
        });
        // One advance past every window, from a copy of `half` (its drop
        // timed too): the open windows' tests, events and turnover. Rows
        // deal hosts round-robin, so windows open out of key order;
        // `window_turnover/2000` opens its windows in key order and cannot
        // see what putting a close's output in key order costs.
        let past = SimTime::from_micros(10 * DetectorConfig::default().window.as_micros());
        g.bench_function(&format!("hosts/{hosts}/close"), |b| {
            b.iter_batched(
                || half.clone(),
                |mut d| {
                    black_box(d.advance_watermark(past));
                    assert_eq!(d.open_windows(), 0);
                    d
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_tracker,
    bench_codec,
    bench_collector_edge,
    bench_batch,
    bench_model_build,
    bench_detector
);
criterion_main!(benches);
