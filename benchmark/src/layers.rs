//! Per-layer timings of the traced run: each layer's public functions are
//! called directly, on one thread, over a sample of the workload's own
//! inputs. Every figure is the median of [`PASSES`] passes, stated at the
//! reference machine speed; every pass is a span. A layer the workload does
//! not use is not called and reports 0.

use crate::inputs::{on_hosts, soa_batches};
use crate::sys::SpeedProbe;
use crate::trace::Tracer;
use crate::workloads::fleet::{as_emitted, replay_task};
use crate::workloads::{
    analyze, detector_config, fleet, ingest, paced, prepare, supervisor, Ctx, Segment,
};
use crate::{stats, workloads};
use crossbeam_channel::bounded;
use saad_core::batch::SynopsisBatch;
use saad_core::codec::{decode_batch_into, encode_batch};
use saad_core::detector::{AnomalyDetector, DetectorConfig};
use saad_core::intern::SignatureInterner;
use saad_core::model::{CompiledModel, OutlierModel, TaskClass, VerdictMask};
use saad_core::pipeline::spawn_batch_analyzer_pool;
use saad_core::synopsis::TaskSynopsis;
use saad_core::tracker::{NullSink, TaskExecutionTracker};
use saad_core::transport::{
    crc32, parse_frame_header, FrameReceiver, FrameSender, FRAME_HEADER_LEN,
};
use saad_core::HostId;
use saad_sim::{ManualClock, SimDuration, SimTime};
use saad_stats::hypothesis::{one_sided_proportion_test, Alternative};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Passes per layer; the median is reported.
pub const PASSES: usize = 5;

/// Which layers a workload exercises.
#[derive(Debug, Clone, Copy)]
struct Uses {
    tracker: bool,
    wire: bool,
    analyzer: bool,
}

/// A sample of one workload's inputs.
struct Sample {
    tasks: Vec<TaskSynopsis>,
    frame: usize,
    batch: usize,
    copies: u16,
    config: DetectorConfig,
    model: Arc<OutlierModel>,
}

/// What every layer pass is timed with.
struct Timer<'a> {
    tracer: &'a Tracer,
    probe: &'a SpeedProbe,
    /// The span the passes hang under.
    root: u32,
    /// Least time one pass lasts.
    pass_s: f64,
}

impl Timer<'_> {
    /// Run `work` (which returns how many synopses it handled) until
    /// `pass_s` has gone by, [`PASSES`] times; record a span per pass;
    /// return the median nanoseconds per synopsis, at the reference
    /// machine speed.
    fn layer(&self, name: &'static str, mut work: impl FnMut() -> u64) -> f64 {
        let mut per_synopsis = Vec::with_capacity(PASSES);
        for pass in 0..PASSES {
            let began = Instant::now();
            let mut handled = 0u64;
            loop {
                handled += work();
                if began.elapsed().as_secs_f64() >= self.pass_s {
                    break;
                }
            }
            let ended = Instant::now();
            self.tracer
                .record(name, began, ended, Some(self.root), pass as u64);
            let ns = (ended - began).as_secs_f64() * 1e9 / handled.max(1) as f64;
            per_synopsis.push(ns * self.probe.speed((began, ended)));
        }
        stats::median(&per_synopsis)
    }
}

/// Build the sample of `workload`: a stretch of the stream it runs on.
fn sample(workload: &str, ctx: &Ctx, out: &mut BTreeMap<&'static str, f64>) -> (Sample, Uses) {
    let on_faulty = !matches!(workload, "analyze_replay" | "collector_ingest");
    let (window, frame, batch, copies, uses) = match workload {
        "analyze_replay" => (
            analyze::REPLAY_WINDOW,
            0,
            analyze::BATCH,
            1,
            Uses {
                tracker: false,
                wire: false,
                analyzer: true,
            },
        ),
        "analyze_churn" => (
            analyze::CHURN_WINDOW,
            0,
            analyze::BATCH,
            ctx.scale.churn_copies,
            Uses {
                tracker: false,
                wire: false,
                analyzer: true,
            },
        ),
        "collector_ingest" => (
            ingest::WINDOW,
            ingest::FRAME,
            ingest::FRAME,
            1,
            Uses {
                tracker: false,
                wire: true,
                analyzer: false,
            },
        ),
        "fleet_e2e" => (
            fleet::WINDOW,
            fleet::AGENT_BATCH,
            fleet::AGENT_BATCH,
            1,
            Uses {
                tracker: true,
                wire: true,
                analyzer: true,
            },
        ),
        _ => (
            paced::WINDOW,
            paced::FRAME,
            paced::FRAME,
            1,
            Uses {
                tracker: false,
                wire: true,
                analyzer: true,
            },
        ),
    };
    let mut shares = Segment::default();
    let (trained, stream) = prepare(ctx, &mut shares, on_faulty, window);
    out.insert("bench.capture_s", shares.capture_s);
    // A tenth of a capture, from a minute before the fault region begins
    // (a faulty stream) or from the start (a healthy one).
    let from = if on_faulty {
        ctx.scale.capture.as_micros() / 3 - SimDuration::from_mins(1).as_micros()
    } else {
        0
    };
    let first = stream
        .iter()
        .position(|s| s.start.as_micros() >= from)
        .unwrap_or(0);
    let wanted = (stream.len() / 10 / copies as usize).max(4 * batch);
    let tasks: Vec<TaskSynopsis> = stream[first..(first + wanted).min(stream.len())]
        .iter()
        .cloned()
        .map(as_emitted)
        .collect();
    let sample = Sample {
        tasks,
        frame,
        batch,
        copies,
        config: detector_config(window),
        model: trained.model,
    };
    (sample, uses)
}

/// Measure every layer `workload` uses. Returns per-layer metric values
/// under their final names; metrics of unused layers are absent (the
/// caller reports them as 0).
pub fn measure(
    workload: &str,
    ctx: &Ctx,
    tracer: &Tracer,
    probe: &SpeedProbe,
) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let began = Instant::now();
    let (sample, uses) = sample(workload, ctx, &mut out);
    let timer = Timer {
        tracer,
        probe,
        root: tracer.record("layers", began, Instant::now(), None, 0),
        pass_s: ctx.scale.layer_pass_s,
    };
    let n = sample.tasks.len() as u64;

    if uses.tracker {
        let sink = Arc::new(NullSink::new());
        let clock = Arc::new(ManualClock::new());
        let top = sample.tasks.iter().map(|s| s.host.0).max().unwrap_or(0);
        let trackers: Vec<TaskExecutionTracker> = (0..=top)
            .map(|h| TaskExecutionTracker::new(HostId(h), clock.clone(), sink.clone()))
            .collect();
        let ns = timer.layer("core.tracker.emit", || {
            for task in &sample.tasks {
                replay_task(
                    &trackers[task.host.0 as usize],
                    &clock,
                    task,
                    SimDuration::ZERO,
                );
            }
            n
        });
        black_box(sink.count());
        out.insert("core.tracker.emit_ns", ns);
    }

    let interner = Arc::new(SignatureInterner::new());
    let ns = timer.layer("core.intern.push_synopsis", || {
        let mut batch = SynopsisBatch::with_capacity(sample.batch);
        for chunk in sample.tasks.chunks(sample.batch) {
            batch.clear();
            for s in chunk {
                batch.push_synopsis(s, &interner);
            }
            black_box(batch.len());
        }
        n
    });
    out.insert("core.intern.push_synopsis_ns", ns);

    if uses.wire {
        wire_layers(&sample, &timer, &mut out);
    }
    if uses.analyzer {
        analyzer_layers(&sample, workload, &timer, &mut out);
    }
    out
}

/// Codec and transport, sender side then receiver side.
fn wire_layers(
    sample: &Sample,
    timer: &Timer,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let n = sample.tasks.len() as u64;
    let host = workloads::agent_host(0);
    let encode = timer.layer("core.codec.encode", || {
        for chunk in sample.tasks.chunks(sample.frame) {
            black_box(encode_batch(chunk));
        }
        n
    });
    let mut sender = FrameSender::new(host);
    let encode_frame = timer.layer("core.transport.encode_frame", || {
        for chunk in sample.tasks.chunks(sample.frame) {
            black_box(sender.encode_frame(chunk));
        }
        n
    });
    let mut sender = FrameSender::new(host);
    let frames: Vec<_> = sample
        .tasks
        .chunks(sample.frame)
        .map(|chunk| (sender.encode_frame(chunk), chunk.len() as u64))
        .collect();
    let crc = timer.layer("core.transport.crc", || {
        for (frame, _) in &frames {
            black_box(crc32(&[
                &frame[..FRAME_HEADER_LEN - 4],
                &frame[FRAME_HEADER_LEN..],
            ]));
        }
        n
    });
    let interner = SignatureInterner::new();
    let mut batch = SynopsisBatch::with_capacity(sample.frame);
    let decode = timer.layer("core.codec.decode_into", || {
        for (frame, _) in &frames {
            batch.clear();
            decode_batch_into(&frame[FRAME_HEADER_LEN..], &mut batch, &interner)
                .expect("frames the sender encoded decode");
            black_box(batch.len());
        }
        n
    });
    let admit = timer.layer("core.transport.admit", || {
        // A fresh receiver per pass: re-admitting a frame is the
        // duplicate path, which is not what a clean wire exercises.
        let mut receiver = FrameReceiver::new();
        for (frame, count) in &frames {
            let header = parse_frame_header(&frame[..FRAME_HEADER_LEN]).expect("own header");
            black_box(receiver.admit_meta(header.host, header.seq, header.cumulative, *count));
        }
        n
    });
    let payload: usize = frames.iter().map(|(f, _)| f.len() - FRAME_HEADER_LEN).sum();
    let framed: usize = frames.iter().map(|(f, _)| f.len() + 4).sum();
    out.insert("core.codec.encode_ns", encode);
    out.insert("core.codec.decode_into_ns", decode);
    out.insert("core.codec.bytes_per_synopsis", payload as f64 / n as f64);
    out.insert("core.transport.encode_frame_ns", encode_frame);
    out.insert("core.transport.crc_ns", crc);
    out.insert("core.transport.admit_ns", admit);
    out.insert(
        "core.transport.frame_overhead_bytes",
        (framed - payload) as f64 / n as f64,
    );
}

/// The sample as the batches the pool would receive: `copies` copies of
/// the cluster, one after the other, per source batch.
fn delivered(sample: &Sample, interner: &SignatureInterner) -> Vec<SynopsisBatch> {
    soa_batches(&sample.tasks, sample.batch, interner)
        .iter()
        .flat_map(|b| (0..sample.copies).map(move |j| on_hosts(b, 4 * j)))
        .collect()
}

/// Model, detector, statistics, and the pool around them.
fn analyzer_layers(
    sample: &Sample,
    workload: &str,
    timer: &Timer,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let interner = Arc::new(SignatureInterner::new());
    let compiled = Arc::new(sample.model.compile(&interner));
    let batches = delivered(sample, &interner);
    let n: u64 = batches.iter().map(|b| b.len() as u64).sum();

    let mut verdicts = VerdictMask::new();
    let classify = timer.layer("core.model.classify_batch", || {
        for b in &batches {
            compiled.classify_batch(&b.stages, &b.sigs, &b.durations_us, &mut verdicts);
            black_box(verdicts.len());
        }
        n
    });
    let fresh = || {
        AnomalyDetector::with_shared(
            sample.model.clone(),
            compiled.clone(),
            interner.clone(),
            sample.config,
        )
    };
    let mut events = 0u64;
    let observe = timer.layer("core.detector.observe_batch", || {
        let mut detector = fresh();
        for b in &batches {
            events += detector.observe_batch(b, &mut verdicts).len() as u64;
        }
        events += detector.flush().len() as u64;
        n
    });
    black_box(events);
    out.insert("core.model.classify_batch_ns", classify);
    out.insert("core.detector.observe_batch_ns", observe);
    out.insert("core.detector.self_ns", (observe - classify).max(0.0));

    // An `advance_watermark` at each window boundary, timed on its own.
    let window_us = sample.config.window.as_micros();
    let mut closes_us = Vec::new();
    let mut detector = fresh();
    // The first boundary that closes a window holding sample data.
    let mut boundary = (batches[0].starts[0].as_micros() / window_us + 2) * window_us;
    let began = Instant::now();
    for b in &batches {
        let newest = b.watermarks.last().expect("no empty batch").as_micros();
        while newest >= boundary {
            let t = Instant::now();
            black_box(detector.advance_watermark(SimTime::from_micros(boundary)));
            closes_us.push(t.elapsed().as_secs_f64() * 1e6);
            boundary += window_us;
        }
        black_box(detector.observe_batch(b, &mut verdicts));
    }
    let ended = Instant::now();
    timer.tracer.record(
        "core.detector.window_close",
        began,
        ended,
        Some(timer.root),
        0,
    );
    if !closes_us.is_empty() {
        out.insert(
            "core.detector.window_close_us",
            stats::median(&closes_us) * timer.probe.speed((began, ended)),
        );
    }

    let tests = proportion_tests(&batches, &compiled, sample.config, out);
    if !tests.is_empty() {
        let count = tests.len() as u64;
        let ns = timer.layer("stats.proportion_test", || {
            for &(outliers, tasks, p0) in &tests {
                black_box(one_sided_proportion_test(
                    outliers,
                    tasks,
                    p0,
                    Alternative::Greater,
                ));
            }
            count
        });
        out.insert("stats.proportion_test_ns", ns);
    }

    // On the workloads whose timed segment is not the pool alone, push the
    // same batches through a pool of their own.
    if !workload.starts_with("analyze_") {
        let pool_ns = timer.layer("core.pipeline.pool", || {
            let (tx, rx) = bounded::<SynopsisBatch>(workloads::CHANNEL_BOUND);
            let pool = spawn_batch_analyzer_pool(
                sample.model.clone(),
                sample.config,
                supervisor(),
                workloads::POOL_WORKERS,
                interner.clone(),
                rx,
                None,
            );
            for b in &batches {
                tx.send(b.clone()).expect("pool outlives the pass");
            }
            drop(tx);
            while pool.events().recv().is_ok() {}
            pool.join().expect("pool of the layer pass");
            n
        });
        out.insert("core.pipeline.pool_ns", pool_ns);
        out.insert("core.pipeline.self_ns", (pool_ns - observe).max(0.0));
    }
}

/// The proportion tests the detector runs over `batches`: one flow test
/// per closed `(host, stage, window)` with enough tasks, one performance
/// test per eligible signature group with enough tasks. Recounted here
/// from the public classification, because the detector does not expose
/// how many tests it ran.
fn proportion_tests(
    batches: &[SynopsisBatch],
    compiled: &CompiledModel,
    config: DetectorConfig,
    out: &mut BTreeMap<&'static str, f64>,
) -> Vec<(u64, u64, f64)> {
    let window_us = config.window.as_micros();
    let mut windows: HashMap<(u16, u16, u64), (u64, u64)> = HashMap::new();
    let mut groups: HashMap<(u16, u16, u64, u32), (u64, u64)> = HashMap::new();
    for b in batches {
        for i in 0..b.len() {
            let (host, stage, sig) = (b.hosts[i], b.stages[i], b.sigs[i]);
            let index = b.starts[i].as_micros() / window_us;
            let class = compiled.classify(stage, sig, b.durations_us[i]);
            let w = windows.entry((host.0, stage.0, index)).or_default();
            w.0 += 1;
            if matches!(class, TaskClass::FlowOutlier | TaskClass::NewSignature) {
                w.1 += 1;
            } else if compiled.perf_p0(stage, sig).is_some() {
                let g = groups.entry((host.0, stage.0, index, sig.0)).or_default();
                g.1 += 1;
                g.0 += u64::from(class == TaskClass::PerformanceOutlier);
            }
        }
    }
    let mut tests = Vec::new();
    for (&(_, stage, _), &(tasks, outliers)) in &windows {
        if tasks >= config.min_window_tasks {
            let p0 = compiled.flow_outlier_rate(saad_core::StageId(stage));
            tests.push((outliers, tasks, p0));
        }
    }
    for (&(_, stage, _, sig), &(outliers, tasks)) in &groups {
        if tasks >= config.min_group_tasks {
            if let Some(p0) =
                compiled.perf_p0(saad_core::StageId(stage), saad_core::intern::SigId(sig))
            {
                tests.push((outliers, tasks, p0));
            }
        }
    }
    // Hash order varies between runs; the tests themselves do not.
    tests.sort_by(|a, b| a.partial_cmp(b).expect("no NaN rate"));
    out.insert(
        "stats.tests_per_window",
        tests.len() as f64 / windows.len().max(1) as f64,
    );
    tests
}
