//! Hot-path allocation audit: at steady state — warm window accumulators,
//! trained signatures, reused batch and verdict buffers — a full
//! build-batch → classify-batch → observe-batch round performs **zero**
//! heap allocations, and so does decoding a frame of known flows
//! straight into a batch (`decode_batch_into`: every signature a hit in
//! the interner's front table).
//!
//! Late data is held to the same bar: a straggler is tested in the
//! detector's scratch accumulator, and a window that stays silent resolves
//! no signature, so a batch of nothing but silent stragglers allocates
//! nothing, and nor does closing a bucket of silent windows: a close walks
//! the bucket's open rows in place and sorts only the events it pushed.
//! Closing recycles: the closed bucket, its accumulators cleared and its
//! counter slab truncated, becomes the next window index's, so window
//! turnover at steady state allocates nothing.
//!
//! The tests install their own counting global allocator (integration
//! tests are separate binaries, so this does not leak into other suites),
//! warm every map and buffer the path touches, then drive many more
//! rounds and assert the allocation counter did not move. The counter is
//! per thread: the harness runs each test on its own, and prints from
//! another.

use saad::core::batch::SynopsisBatch;
use saad::core::codec::{decode_batch_into, encode_batch};
use saad::core::detector::{AnomalyDetector, DetectorConfig};
use saad::core::feature::InternedFeature;
use saad::core::intern::{SigId, SignatureInterner};
use saad::core::model::{ModelBuilder, ModelConfig, OutlierModel, TaskClass, VerdictMask};
use saad::core::synopsis::TaskSynopsis;
use saad::core::{HostId, StageId, TaskUid};
use saad::logging::LogPointId;
use saad::sim::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    // Const-initialised and without a destructor: reading it allocates
    // nothing and is valid for the whole life of the thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: defers entirely to the system allocator; the counter does not
// affect the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static AUDIT: CountingAlloc = CountingAlloc;

/// Allocations this thread has made.
fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

fn synopsis(host: u16, stage: u16, points: &[u16], dur_us: u64, start_ms: u64) -> TaskSynopsis {
    TaskSynopsis {
        host: HostId(host),
        stage: StageId(stage),
        uid: TaskUid(start_ms),
        start: SimTime::from_millis(start_ms),
        duration: SimDuration::from_micros(dur_us),
        log_points: points.iter().map(|&p| (LogPointId(p), 1)).collect(),
    }
}

/// A model over stages 0..3 with two well-trained signatures per stage —
/// one with a tight duration spread (perf-eligible) and one rare flow —
/// so the steady-state stream can hit the Normal, PerformanceOutlier and
/// FlowOutlier verdict arms without ever minting a new signature.
fn trained_model() -> Arc<OutlierModel> {
    let mut b = ModelBuilder::new();
    for i in 0..30_000u64 {
        let stage = (i % 3) as u16;
        let (points, dur): (&[u16], u64) = if i.is_multiple_of(997) {
            (&[1, 2, 3], 5_000)
        } else if i.is_multiple_of(2) {
            (&[1, 2], 1_000 + (i % 53) * 5)
        } else {
            (&[4, 5, 6], 2_000 + (i % 31) * 11)
        };
        b.observe(&synopsis(0, stage, points, dur, 0));
    }
    Arc::new(b.build(ModelConfig::default()))
}

/// A detector over [`trained_model`] and the interner its features use.
fn trained_detector() -> (AnomalyDetector, Arc<SignatureInterner>) {
    let model = trained_model();
    let interner = Arc::new(SignatureInterner::new());
    let compiled = Arc::new(model.compile(&interner));
    let config = DetectorConfig::default();
    let detector = AnomalyDetector::with_shared(model, compiled, interner.clone(), config);
    (detector, interner)
}

#[test]
fn steady_state_batch_round_allocates_nothing() {
    let (mut detector, interner) = trained_detector();

    // The recurring workload: 256 tasks over 4 hosts and 3 stages, all
    // inside one detection window, trained signatures only. Durations mix
    // in-band values with gross outliers so the perf arm fires.
    let window_ms = DetectorConfig::default().window.as_micros() / 1_000;
    let synopses: Vec<TaskSynopsis> = (0..256u64)
        .map(|i| {
            let host = (i % 4) as u16;
            let stage = (i % 3) as u16;
            let (points, dur): (&[u16], u64) = if i.is_multiple_of(31) {
                (&[1, 2, 3], 5_000) // trained-rare flow
            } else if i.is_multiple_of(7) {
                (&[1, 2], 900_000) // gross performance outlier
            } else if i.is_multiple_of(2) {
                (&[1, 2], 1_000 + (i % 53) * 5)
            } else {
                (&[4, 5, 6], 2_000 + (i % 31) * 11)
            };
            let start_ms = (i * window_ms / 512).max(1); // first half-window
            synopsis(host, stage, points, dur, start_ms)
        })
        .collect();
    let features: Vec<(InternedFeature, SimTime)> = synopses
        .iter()
        .map(|s| (InternedFeature::from_synopsis(s, &interner), s.start))
        .collect();
    let watermark = features.iter().map(|&(_, at)| at).max().unwrap();

    let mut batch = SynopsisBatch::with_capacity(features.len());
    let mut verdicts = VerdictMask::new();
    let mut round = |batch: &mut SynopsisBatch, verdicts: &mut VerdictMask| {
        batch.clear();
        for (feature, _) in &features {
            batch.push_feature(feature, watermark);
        }
        detector.observe_batch(batch, verdicts)
    };

    // Warm-up: window accumulators, perf groups, verdict words, and the
    // batch columns all reach capacity here.
    for _ in 0..2 {
        let events = round(&mut batch, &mut verdicts);
        assert!(events.is_empty(), "no window closes inside the window");
    }

    // Steady state: the same recurring workload must not touch the heap.
    let before = allocations();
    const ROUNDS: u64 = 16;
    for _ in 0..ROUNDS {
        let events = round(&mut batch, &mut verdicts);
        assert!(events.is_empty(), "no window closes inside the window");
    }
    let delta = allocations() - before;
    assert_eq!(
        delta,
        0,
        "steady-state batch rounds must be allocation-free \
         ({delta} allocations over {ROUNDS} rounds of {} synopses)",
        features.len()
    );

    // The rounds did real work: every element was classified and
    // accumulated, and the stream hit more than one verdict arm.
    assert_eq!(detector.tasks_seen(), (2 + ROUNDS) * features.len() as u64);
    let (mut normal, mut perf, mut flow) = (0u64, 0u64, 0u64);
    for i in 0..features.len() {
        match verdicts.get(i) {
            TaskClass::Normal => normal += 1,
            TaskClass::PerformanceOutlier => perf += 1,
            TaskClass::FlowOutlier => flow += 1,
            TaskClass::NewSignature => {}
        }
    }
    assert!(normal > 0, "steady stream must contain normal tasks");
    assert!(perf > 0, "gross outliers must classify as perf outliers");
    assert!(flow + perf + normal == features.len() as u64);

    // The collector's edge: the same synopses as a frame payload, decoded
    // in place. Every signature is known, so each is one front-table hit:
    // no lock, no normalizing copy to the heap, no allocation.
    let wire = encode_batch(&synopses);
    let expected: Vec<SigId> = features.iter().map(|(f, _)| f.sig).collect();
    batch.clear();
    decode_batch_into(&wire, &mut batch, &interner).expect("own encoding decodes");
    let before = allocations();
    for _ in 0..ROUNDS {
        batch.clear();
        let n = decode_batch_into(&wire, &mut batch, &interner).expect("own encoding decodes");
        assert_eq!(n, synopses.len());
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "decoding known flows must be allocation-free ({delta} allocations over {ROUNDS} rounds)"
    );
    assert_eq!(
        batch.sigs, expected,
        "decode interns to the ids the model was compiled on"
    );
}

#[test]
fn batch_of_silent_stragglers_allocates_nothing() {
    let (mut detector, interner) = trained_detector();
    let window_ms = DetectorConfig::default().window.as_micros() / 1_000;
    // The watermark stands in window 100; every element of the batch is
    // from windows 0..50, so each is a window of one task: under
    // `min_window_tasks` and `min_group_tasks`, trained signatures only —
    // it can emit nothing.
    let head = synopsis(0, 0, &[1, 2], 1_000, 100 * window_ms);
    let watermark = head.start;
    let head = InternedFeature::from_synopsis(&head, &interner);
    assert!(detector.observe_interned(&head).is_empty());
    let mut batch = SynopsisBatch::with_capacity(256);
    for i in 0..256u64 {
        let (points, dur): (&[u16], u64) = if i.is_multiple_of(31) {
            (&[1, 2, 3], 5_000) // trained-rare flow
        } else if i.is_multiple_of(7) {
            (&[1, 2], 900_000) // gross performance outlier
        } else {
            (&[4, 5, 6], 2_000 + (i % 31) * 11)
        };
        let s = synopsis(
            (i % 4) as u16,
            (i % 3) as u16,
            points,
            dur,
            (i % 50) * window_ms + i,
        );
        batch.push_feature(&InternedFeature::from_synopsis(&s, &interner), watermark);
    }
    let mut verdicts = VerdictMask::new();
    // Warm-up: the scratch accumulator's one perf slot, the verdict words.
    assert!(detector.observe_batch(&batch, &mut verdicts).is_empty());

    let before = allocations();
    const ROUNDS: u64 = 16;
    for _ in 0..ROUNDS {
        assert!(detector.observe_batch(&batch, &mut verdicts).is_empty());
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "a batch of silent stragglers must be allocation-free ({delta} over {ROUNDS} rounds)"
    );
    assert_eq!(detector.late_seen(), (1 + ROUNDS) * 256);
    assert_eq!(
        detector.open_windows(),
        1,
        "only the watermark's own window"
    );
}

#[test]
fn closing_silent_windows_allocates_nothing() {
    let (mut detector, interner) = trained_detector();
    let window_ms = DetectorConfig::default().window.as_micros() / 1_000;
    // 48 windows of window index 0, 16 healthy tasks each: both
    // proportion tests run in every one and neither rejects.
    let mut batch = SynopsisBatch::with_capacity(48 * 16);
    for i in 0..48 * 16u64 {
        let (host, stage) = ((i % 16) as u16, (i / 16 % 3) as u16);
        let s = synopsis(host, stage, &[1, 2], 1_000 + (i % 53) * 5, 1 + i);
        batch.push_feature(&InternedFeature::from_synopsis(&s, &interner), s.start);
    }
    assert!(detector
        .observe_batch(&batch, &mut VerdictMask::new())
        .is_empty());
    assert_eq!(detector.open_windows(), 48);

    let before = allocations();
    let events = detector.advance_watermark(SimTime::from_millis(3 * window_ms));
    let delta = allocations() - before;
    assert!(events.is_empty(), "healthy windows are silent: {events:?}");
    assert_eq!(detector.open_windows(), 0);
    assert_eq!(
        delta, 0,
        "closing 48 silent windows allocated {delta} times"
    );
}

#[test]
fn window_turnover_allocates_nothing_at_steady_state() {
    let (mut detector, interner) = trained_detector();
    let window_ms = DetectorConfig::default().window.as_micros() / 1_000;
    // Each cycle opens 48 (host, stage) windows in each of two window
    // indices, 8 healthy tasks apiece (the perf test runs, the flow test
    // does not, nothing rejects). Crossing into the second index inside
    // the batch closes the previous cycle's second index; an advance past
    // the first closes the first. Every window closes, one way or the
    // other, and every new index opens in the bucket the last close left.
    const PAIRS: u64 = 48;
    const CYCLES: u64 = 1 + 64;
    let cycle = |c: u64| {
        let mut batch = SynopsisBatch::with_capacity(2 * PAIRS as usize * 8);
        let mut watermark = SimTime::ZERO;
        for idx in [2 * c, 2 * c + 1] {
            for i in 0..PAIRS * 8 {
                let (host, stage) = ((i % 16) as u16, (i / 16 % 3) as u16);
                let start_ms = idx * window_ms + 1 + i;
                let s = synopsis(host, stage, &[1, 2], 1_000 + (i % 53) * 5, start_ms);
                watermark = watermark.max(s.start);
                batch.push_feature(&InternedFeature::from_synopsis(&s, &interner), watermark);
            }
        }
        (batch, SimTime::from_millis((2 * c + 2) * window_ms))
    };
    let cycles: Vec<_> = (0..CYCLES).map(cycle).collect();
    let mut verdicts = VerdictMask::new();
    let mut run = |detector: &mut AnomalyDetector, (batch, advance): &(SynopsisBatch, SimTime)| {
        let events = detector.observe_batch(batch, &mut verdicts);
        assert!(events.is_empty(), "healthy windows are silent: {events:?}");
        let events = detector.advance_watermark(*advance);
        assert!(events.is_empty(), "healthy windows are silent: {events:?}");
        assert_eq!(detector.open_windows(), PAIRS as usize);
    };

    // Warm-up: one open→close cycle grows the buckets, their counter
    // slabs and the verdict words.
    run(&mut detector, &cycles[0]);
    let before = allocations();
    for c in &cycles[1..] {
        run(&mut detector, c);
    }
    let delta = allocations() - before;
    assert_eq!(
        delta,
        0,
        "window turnover must be allocation-free at steady state \
         ({delta} allocations over {} cycles of {} windows)",
        CYCLES - 1,
        2 * PAIRS
    );
    assert_eq!(detector.tasks_seen(), CYCLES * 2 * PAIRS * 8);
}
