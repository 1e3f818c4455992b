//! The two analyzer-only workloads: pre-interned SoA batches pushed by one
//! generator thread through a bounded channel into the batch pool. The
//! tracker, codec, transport and network layers do no work here.

use super::{
    detector_config, prepare, supervisor, Ctx, MarkerTimes, Segment, Trained, CHANNEL_BOUND,
    POOL_WORKERS,
};
use crate::inputs::{late_order, on_hosts, shifted, soa_batches, CloseLog, MARKER_STAGE};
use crate::reference::{event_keys, first_difference, keys_by_replay, Reference};
use crate::sys;
use crossbeam_channel::bounded;
use saad_core::batch::SynopsisBatch;
use saad_core::detector::{AnomalyEvent, DetectorConfig};
use saad_core::intern::SignatureInterner;
use saad_core::model::OutlierModel;
use saad_core::pipeline::spawn_batch_analyzer_pool;
use saad_sim::{SimDuration, SimTime};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Synopses per generated batch.
pub const BATCH: usize = 256;
/// `analyze_replay` keeps the paper's one-minute windows.
pub const REPLAY_WINDOW: SimDuration = SimDuration::from_mins(1);
/// `analyze_churn` closes windows six times as often.
pub const CHURN_WINDOW: SimDuration = SimDuration::from_secs(10);

/// Bytes of SoA column data one synopsis occupies in a batch: what crosses
/// the boundary into the system on the workloads that have no wire.
pub fn soa_bytes_per_synopsis(batch: &SynopsisBatch) -> f64 {
    use std::mem::size_of_val;
    let bytes = size_of_val(&batch.uids[..])
        + size_of_val(&batch.hosts[..])
        + size_of_val(&batch.stages[..])
        + size_of_val(&batch.sigs[..])
        + size_of_val(&batch.durations_us[..])
        + size_of_val(&batch.starts[..])
        + size_of_val(&batch.watermarks[..]);
    bytes as f64 / batch.len().max(1) as f64
}

/// Synopses the generator keeps outstanding: the depth of the closed loop.
/// The bounded channel alone does not close it, because the pool's own
/// router→shard channel is unbounded: when the shard is the slower stage
/// the whole stream would pile up there and peak memory would depend on
/// who won the race.
const IN_FLIGHT: u64 = (2 * CHANNEL_BOUND * BATCH) as u64;
/// How long the generator naps when the loop is full.
const NAP: Duration = Duration::from_micros(50);

/// What the generator thread reports back.
struct Generated {
    closes: CloseLog,
    blocked: Duration,
    sent: u64,
    stream_done: Instant,
    spans: Vec<(usize, Instant, Instant)>,
}

/// The stream a pool segment delivers.
struct Stream<F> {
    /// Delivered units; unit 0 is the warm-up.
    units: usize,
    /// Builds unit `i`.
    make: F,
}

/// Spawn the pool, ship unit 0 as warm-up, then time the delivery of the
/// remaining units with at most [`IN_FLIGHT`] synopses outstanding.
///
/// The set-up pass ends (and `seg.setup_s` is taken from `setup_started`)
/// once the warm-up batch has been processed; the timed segment ends when
/// the pool has taken the stream's last synopsis.
fn drive_pool<F: Fn(usize) -> SynopsisBatch + Sync>(
    ctx: &Ctx,
    seg: &mut Segment,
    setup_started: Instant,
    model: Arc<OutlierModel>,
    config: DetectorConfig,
    interner: Arc<SignatureInterner>,
    stream: Stream<F>,
) -> Vec<AnomalyEvent> {
    let (tx, rx) = bounded::<SynopsisBatch>(CHANNEL_BOUND);
    let pool_handle = spawn_batch_analyzer_pool(
        model,
        config,
        supervisor(),
        POOL_WORKERS,
        interner.clone(),
        rx,
        None,
    );
    let pool = &pool_handle;
    let warmup = (stream.make)(0);
    let warmup_len = warmup.len() as u64;
    let go = Barrier::new(2);
    let traced = ctx.tracer.is_some();
    let mut markers = MarkerTimes::new(config.window);
    let mut events = Vec::new();
    let mut started = Instant::now();
    let mut calib_before = 0.0;
    let mut cpu_before = 0;

    let generated = std::thread::scope(|scope| {
        let generator = std::thread::Builder::new()
            .name("bench-generator".into())
            .spawn_scoped(scope, || {
                let mut g = Generated {
                    closes: CloseLog::new(config.window),
                    blocked: Duration::ZERO,
                    sent: warmup_len,
                    stream_done: Instant::now(),
                    spans: Vec::new(),
                };
                tx.send(warmup).expect("pool accepts the warm-up batch");
                go.wait();
                for unit in 1..stream.units {
                    let batch = (stream.make)(unit);
                    let len = batch.len() as u64;
                    let newest = *batch.watermarks.last().expect("units are not empty");
                    let before = Instant::now();
                    g.closes.observe(newest, || before);
                    while g.sent + len - pool.processed() > IN_FLIGHT {
                        std::thread::sleep(NAP);
                    }
                    tx.send(batch).expect("pool outlives the generator");
                    let after = Instant::now();
                    g.blocked += after - before;
                    g.sent += len;
                    if traced {
                        g.spans.push((unit, before, after));
                    }
                }
                while pool.processed() < g.sent {
                    std::thread::sleep(NAP);
                }
                g.stream_done = Instant::now();
                drop(tx);
                g
            })
            .expect("spawn generator");
        while pool.processed() < warmup_len {
            std::thread::sleep(Duration::from_micros(200));
        }
        seg.setup_s = setup_started.elapsed().as_secs_f64();
        seg.setup_span = Some((setup_started, Instant::now()));

        calib_before = sys::calib_ms();
        cpu_before = sys::process_cpu_ns();
        started = Instant::now();
        go.wait();
        while let Ok(event) = pool.events().recv() {
            markers.observe(&event, Instant::now());
            events.push(event);
        }
        generator.join().expect("generator thread")
    });
    seg.cpu_ns = sys::process_cpu_ns() - cpu_before;
    seg.calib_ms = (calib_before, sys::calib_ms());
    seg.wall_s = (generated.stream_done - started).as_secs_f64();
    seg.timed_span = Some((started, generated.stream_done));
    seg.attempted = generated.sent;
    seg.synopses = generated.sent - warmup_len;
    let processed = pool.processed();
    let (skipped, restarts, lost) = (pool.skipped(), pool.restarts(), pool.tasks_lost());
    if let Err(e) = pool_handle.join() {
        seg.fail_all(format!("pool failed: {e}"));
    }
    if processed < seg.attempted {
        seg.fail_some(
            seg.attempted - processed,
            format!("pool processed {processed} of {} synopses", seg.attempted),
        );
    }
    if skipped + restarts + lost > 0 {
        seg.fail_all(format!(
            "pool skipped {skipped}, restarted {restarts}, lost {lost}"
        ));
    }
    seg.delays_ms = markers.delays_ms(std::slice::from_ref(&generated.closes));
    let c = &mut seg.counters;
    c.insert("core.pipeline.processed", processed as f64);
    c.insert("core.pipeline.skipped", skipped as f64);
    c.insert("core.pipeline.restarts", restarts as f64);
    c.insert("core.pipeline.tasks_lost", lost as f64);
    c.insert(
        "core.pipeline.send_blocked_share",
        generated.blocked.as_secs_f64() / seg.wall_s,
    );
    c.insert("core.detector.events", events.len() as f64);
    c.insert("core.intern.signatures", interner.len() as f64);
    if let Some(tracer) = ctx.tracer {
        let root = tracer.record("segment", started, generated.stream_done, None, 0);
        for &(unit, from, to) in &generated.spans {
            tracer.record("bench.generator.send", from, to, Some(root), unit as u64);
        }
        for (k, due, received) in markers.samples(std::slice::from_ref(&generated.closes)) {
            tracer.record("hop.handover_to_event", due, received, Some(root), k);
        }
    }
    events
}

/// `analyze_replay`: the healthy capture, replayed time-shifted until the
/// source-constant count is reached. Almost every synopsis takes the
/// trained fast path: router, `classify_batch`, window accounting.
pub fn replay(ctx: &Ctx) -> Segment {
    let mut seg = Segment::default();
    let setup_started = Instant::now();
    let config = detector_config(REPLAY_WINDOW);
    let (trained, stream) = prepare(ctx, &mut seg, false, config.window);
    let Trained {
        model,
        compiled,
        interner,
    } = trained;
    let batches = Arc::new(soa_batches(&stream, BATCH, &interner));
    drop(stream);
    seg.bytes_per_synopsis = soa_bytes_per_synopsis(&batches[0]);

    // The delivered stream: whole replays of the capture, each one capture
    // length later than the last, cut off at the fixed total.
    let capture_len: u64 = batches.iter().map(|b| b.len() as u64).sum();
    let total = BATCH as u64 + ctx.scale.replay_synopses;
    let (full_replays, remainder) = (total / capture_len, total % capture_len);
    let per_replay = batches.len();
    let tail_units = batches
        .iter()
        .scan(0u64, |seen, b| {
            let before = *seen;
            *seen += b.len() as u64;
            Some(before)
        })
        .take_while(|&before| before < remainder)
        .count();
    let units = full_replays as usize * per_replay + tail_units;
    let period = ctx.scale.capture;
    let make = {
        let batches = batches.clone();
        move |unit: usize| {
            let (replay, index) = (unit / per_replay, unit % per_replay);
            let shift = SimDuration::from_micros(period.as_micros() * replay as u64);
            let mut batch = shifted(&batches[index], shift);
            if unit + 1 == units && remainder > 0 {
                let before: u64 = batches[..index].iter().map(|b| b.len() as u64).sum();
                batch.truncate((remainder - before) as usize);
            }
            batch
        }
    };

    // Reference: shifting a replay by whole capture lengths shifts its
    // events and changes nothing else (a unit test in `reference` holds
    // this), so one pass over a full replay and one over the cut-off last
    // replay give the expected events of every replay.
    let mut full = Reference::new(&model, &compiled, &interner, config);
    batches.iter().for_each(|b| full.feed(b.clone()));
    let (full_events, _, full_late) = full.finish();
    let mut tail = Reference::new(&model, &compiled, &interner, config);
    (0..tail_units).for_each(|i| tail.feed(make(full_replays as usize * per_replay + i)));
    let (mut tail_events, _, tail_late) = tail.finish();
    for e in &mut tail_events {
        e.window_start = SimTime::from_micros(e.window_start.as_micros() % period.as_micros());
    }
    let mut expected = vec![event_keys(&full_events); full_replays as usize];
    if tail_units > 0 {
        expected.push(event_keys(&tail_events));
    }

    let events = drive_pool(
        ctx,
        &mut seg,
        setup_started,
        model,
        config,
        interner,
        Stream { units, make },
    );
    let got = keys_by_replay(&events, period, expected.len());
    if let Some(r) = (0..expected.len()).find(|&r| got[r] != expected[r]) {
        seg.fail_all(format!(
            "replay {r}: events differ from the single-detector reference: {}",
            first_difference(&got[r], &expected[r])
        ));
    }
    seg.counters.insert(
        "core.detector.late_share",
        (full_late * full_replays + tail_late) as f64 / total as f64,
    );
    seg
}

/// `analyze_churn`: the fault region of the faulty capture on 256 hosts at
/// once (each node's tasks dealt over several synthetic hosts, several
/// copies of the cluster side by side), short windows, a tenth of the
/// batches a window late. The run is dominated by what `analyze_replay`
/// barely touches: new-signature and outlier verdicts, thousands of open
/// accumulators, `close_stale` scans, proportion tests and event emission
/// at every window.
pub fn churn(ctx: &Ctx) -> Segment {
    let mut seg = Segment::default();
    let setup_started = Instant::now();
    let config = detector_config(CHURN_WINDOW);
    let (copies, slots) = (ctx.scale.churn_copies, ctx.scale.churn_slots);
    let (trained, stream) = prepare(ctx, &mut seg, true, config.window);
    let Trained {
        model,
        compiled,
        interner,
    } = trained;

    // Source: the faulty stream from one minute before the fault begins,
    // as many batches as the fixed unit count needs; every task but the
    // markers moved to one of its node's synthetic hosts.
    let from = ctx.scale.capture.as_micros() / 3 - SimDuration::from_mins(1).as_micros();
    let first = stream
        .iter()
        .position(|s| s.start.as_micros() >= from)
        .expect("the capture reaches its fault region");
    let source_batches = ctx.scale.churn_batches / copies as usize;
    let mut source = soa_batches(
        &stream[first..(first + source_batches * BATCH).min(stream.len())],
        BATCH,
        &interner,
    );
    drop(stream);
    assert_eq!(source.len(), source_batches, "capture too short for churn");
    for b in &mut source {
        for i in 0..b.len() {
            if b.stages[i] != MARKER_STAGE {
                b.hosts[i].0 += 4 * copies * (b.uids[i].0 % u64::from(slots)) as u16;
            }
        }
    }
    let source = Arc::new(source);
    seg.bytes_per_synopsis = soa_bytes_per_synopsis(&source[0]);

    // One detection window of stream, in delivered units: how far a late
    // unit is held back.
    let span_us = source[source.len() - 1].starts[0].as_micros() - source[0].starts[0].as_micros();
    let per_window = (source.len() as f64 * config.window.as_micros() as f64
        / span_us.max(1) as f64)
        .round()
        .max(1.0) as usize;
    let units = source.len() * copies as usize;
    let order = late_order(units, per_window * copies as usize, ctx.seed);
    let make = {
        let source = source.clone();
        move |position: usize| {
            let unit = order[position] as usize;
            on_hosts(
                &source[unit / copies as usize],
                4 * (unit % copies as usize) as u16,
            )
        }
    };

    let mut reference = Reference::new(&model, &compiled, &interner, config);
    (0..units).for_each(|u| reference.feed(make(u)));
    let (expected, seen, late) = reference.finish();

    let events = drive_pool(
        ctx,
        &mut seg,
        setup_started,
        model,
        config,
        interner,
        Stream { units, make },
    );
    let (got, expected) = (event_keys(&events), event_keys(&expected));
    if got != expected {
        seg.fail_all(format!(
            "events differ from the single-detector reference: {}",
            first_difference(&got, &expected)
        ));
    }
    seg.counters
        .insert("core.detector.late_share", late as f64 / seen as f64);
    seg
}
