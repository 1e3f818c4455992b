//! Equivalence properties for the interned/compiled/sharded analyzer,
//! each against the one reference of `saad::core::testkit`:
//!
//! * compiled + interned classification ≡ the map classifier
//!   `OutlierModel::classify`, over arbitrary streams and over arbitrary
//!   trained models;
//! * `classify_batch` (branch-free SoA loop) ≡ per-element
//!   `CompiledModel::classify`, including NaN / zero / infinite durations;
//! * pool-sharded detection ≡ `testkit::reference_run` (a plain detector
//!   driven row by row), as an event multiset, for any worker count —
//!   behind both producer edges, `BatchSink` and
//!   `testkit::feed_frame_soa`, and from both starts: a model on an
//!   interner the caller made, and a store on the interner the pool
//!   restored from a checkpoint another worker count wrote;
//! * a `DetectorSink` fed one synopsis at a time ≡ `reference_run`, event
//!   for event and in order;
//! * the one hazard of interning at the edge — a producer built on some
//!   other interner — is refused in debug builds.

use crossbeam_channel::{unbounded, Sender};
use proptest::prelude::*;
use saad::core::batch::SynopsisBatch;
use saad::core::detector::{AnomalyDetector, AnomalyEvent, AnomalyKind, DetectorConfig};
use saad::core::feature::InternedFeature;
use saad::core::intern::SignatureInterner;
use saad::core::model::{ModelBuilder, ModelConfig, OutlierModel, VerdictMask};
use saad::core::pipeline::{
    spawn_analyzer_pool, BatchSink, DetectorSink, LifecycleConfig, PoolHandle, PoolStart,
    SupervisorConfig,
};
use saad::core::store::{Checkpoint, CheckpointStore};
use saad::core::synopsis::TaskSynopsis;
use saad::core::testkit::{
    event_keys, feed_frame_soa, reference_run, soa, FeatureVector, FrameOutcome, TempDir,
};
use saad::core::tracker::SynopsisSink;
use saad::core::{HostId, Signature, StageId, TaskUid};
use saad::logging::LogPointId;
use saad::sim::{SimDuration, SimTime};
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// One generated task, pre-signature: everything a synopsis needs.
type RawTask = (u16, u16, Vec<u16>, u64, u64); // host, stage, points, dur_us, start_ms

fn synopsis_of(&(host, stage, ref points, dur_us, start_ms): &RawTask, uid: u64) -> TaskSynopsis {
    TaskSynopsis {
        host: HostId(host),
        stage: StageId(stage),
        uid: TaskUid(uid),
        start: SimTime::from_millis(start_ms),
        duration: SimDuration::from_micros(dur_us),
        log_points: points.iter().map(|&p| (LogPointId(p), 1)).collect(),
    }
}

/// A deterministic trained model covering stages 0..3 with a few common
/// signatures, one rare one, and varied duration spreads — so generated
/// streams exercise every `TaskClass` arm, including the perf-eligible
/// and perf-ineligible (unstable-threshold) paths.
fn trained_model() -> Arc<OutlierModel> {
    static MODEL: OnceLock<Arc<OutlierModel>> = OnceLock::new();
    MODEL
        .get_or_init(|| {
            let mut b = ModelBuilder::new();
            for i in 0..30_000u64 {
                let stage = (i % 3) as u16;
                let (points, dur): (&[u16], u64) = if i.is_multiple_of(997) {
                    (&[1, 2, 3], 5_000) // rare, constant duration
                } else if i.is_multiple_of(2) {
                    (&[1, 2], 1_000 + (i % 53) * 5)
                } else {
                    (&[4, 5, 6], 2_000 + (i % 31) * 11)
                };
                b.observe(&synopsis_of(&(0, stage, points.to_vec(), dur, 0), i));
            }
            Arc::new(b.build(ModelConfig::default()))
        })
        .clone()
}

fn raw_task_strategy() -> impl Strategy<Value = RawTask> {
    (
        0u16..4,                        // host
        0u16..4,                        // stage (3 is untrained)
        collection::vec(1u16..9, 0..5), // log points (may repeat/unsorted)
        1u64..30_000,                   // duration µs
        0u64..240_000,                  // start within 4 minutes
    )
}

fn small_config() -> DetectorConfig {
    DetectorConfig {
        // Small thresholds so short generated streams can trip tests.
        min_window_tasks: 4,
        min_group_tasks: 2,
        ..DetectorConfig::default()
    }
}

fn stream_of(tasks: &[RawTask]) -> Vec<TaskSynopsis> {
    tasks
        .iter()
        .enumerate()
        .map(|(uid, t)| synopsis_of(t, uid as u64))
        .collect()
}

/// Liveness is disabled (saturating threshold): the reference detector
/// has no liveness tracker to mirror.
fn supervisor() -> SupervisorConfig {
    SupervisorConfig {
        silent_after: u64::MAX,
        ..SupervisorConfig::default()
    }
}

/// The pool under test, started from the model on an interner the caller
/// made.
fn spawn_pool(
    workers: usize,
    interner: Arc<SignatureInterner>,
    batch_rx: crossbeam_channel::Receiver<SynopsisBatch>,
) -> PoolHandle {
    let start = PoolStart::Model {
        model: trained_model(),
        interner,
    };
    spawn_analyzer_pool(start, small_config(), supervisor(), workers, batch_rx)
        .expect("no store to open")
}

/// Hold what a pool (or two incarnations of one) reported — every event,
/// and the tasks its detectors count at the end — against the one
/// reference: a plain detector over the whole stream, in order.
fn check_against_reference(
    events: &[AnomalyEvent],
    seen: u64,
    stream: &[TaskSynopsis],
) -> Result<(), TestCaseError> {
    let reference = AnomalyDetector::new(trained_model(), small_config());
    let whole = soa(stream, reference.interner());
    let (expected, reference) = reference_run(reference, &[whole]);
    prop_assert_eq!(seen, reference.tasks_seen());
    prop_assert_eq!(event_keys(events), event_keys(&expected));
    Ok(())
}

/// Drain a plain pool whose input is closed; see [`check_against_reference`].
fn check_pool(pool: PoolHandle, stream: &[TaskSynopsis]) -> Result<(), TestCaseError> {
    let events: Vec<AnomalyEvent> = pool.events().iter().collect();
    let detectors = pool.join().expect("no faults injected");
    let seen = detectors.iter().map(|d| d.tasks_seen()).sum();
    check_against_reference(&events, seen, stream)
}

/// The two producer edges of a pool.
#[derive(Debug, Clone, Copy)]
enum Edge {
    /// A `BatchSink` behind trackers.
    Sink,
    /// `feed_frame_soa` behind a frame receiver.
    Frame,
}

/// Put `synopses` on a pool's input through `edge`, `batch_size` at a
/// time, interned where the pool says to.
fn produce(
    edge: Edge,
    synopses: &[TaskSynopsis],
    batch_size: usize,
    interner: &Arc<SignatureInterner>,
    batch_tx: &Sender<SynopsisBatch>,
) {
    match edge {
        Edge::Sink => {
            // The sink makes its own (unbounded) queue; a pool that was
            // spawned first already has one, so move the batches over.
            let (sink, queued) = BatchSink::new(batch_size, interner.clone());
            for s in synopses {
                sink.submit(s.clone());
            }
            drop(sink); // flushes the partial tail batch
            for batch in queued.iter() {
                batch_tx.send(batch).unwrap();
            }
        }
        Edge::Frame => {
            for chunk in synopses.chunks(batch_size) {
                let frame = FrameOutcome::Fresh {
                    host: chunk[0].host,
                    synopses: chunk.to_vec(),
                    newly_lost: 0,
                };
                let fed = feed_frame_soa(frame, batch_tx, interner, SimTime::ZERO);
                assert_eq!(fed, chunk.len());
            }
        }
    }
}

/// A pool over the checkpoint store in `dir`.
fn spawn_lifecycle_pool(dir: &Path, workers: usize) -> (Sender<SynopsisBatch>, PoolHandle) {
    let (batch_tx, batch_rx) = unbounded();
    let start = PoolStart::Store {
        dir: dir.into(),
        lifecycle: LifecycleConfig {
            checkpoint_every: 0, // explicit + shutdown checkpoints only
            ..LifecycleConfig::default()
        },
    };
    let pool = spawn_analyzer_pool(start, small_config(), supervisor(), workers, batch_rx)
        .expect("spawn lifecycle pool");
    (batch_tx, pool)
}

/// `stream` through a lifecycle pool that changes worker count half way:
/// `written_by` workers take `stream[..cut]` and checkpoint, `workers`
/// restore that checkpoint — resharded, its interner holding the first
/// incarnation's signatures — and take the rest. Every producer is built
/// on the interner its pool hands out. Returns all events and the tasks
/// the second incarnation's detectors count.
fn run_lifecycle_pools(
    edge: Edge,
    (written_by, workers): (usize, usize),
    stream: &[TaskSynopsis],
    cut: usize,
    batch_size: usize,
) -> (Vec<AnomalyEvent>, u64) {
    // Generation 0: the trained model over an interner that already holds
    // the stream's signatures — in reverse of the order the stream would
    // intern them, so no id is what a fresh interner would issue.
    let (first_dir, second_dir) = (TempDir::new("first"), TempDir::new("second"));
    let (model, seeded) = (trained_model(), Arc::new(SignatureInterner::new()));
    for s in stream.iter().rev() {
        seeded.intern_synopsis(s);
    }
    let compiled = Arc::new(model.compile(&seeded));
    let blank = AnomalyDetector::with_shared(
        model.clone(),
        compiled.clone(),
        seeded.clone(),
        small_config(),
    );
    let generation_0 = Checkpoint::new(0, model, compiled, seeded, vec![blank]);
    let store = CheckpointStore::create(first_dir.path(), 3).unwrap();
    store.save(&generation_0).unwrap();

    // First incarnation: the head of the stream, then a checkpoint of the
    // windows it left open — set aside before shutdown flushes them into
    // a newer generation.
    let (batch_tx, first) = spawn_lifecycle_pool(first_dir.path(), written_by);
    assert_eq!(first.recovered_generation(), Some(0));
    produce(
        edge,
        &stream[..cut],
        batch_size,
        &first.interner(),
        &batch_tx,
    );
    while first.processed() < cut as u64 {
        std::thread::yield_now();
    }
    let reply = first.request_checkpoint();
    batch_tx.send(SynopsisBatch::new()).unwrap(); // nudge the batch boundary
    let generation = reply.recv().unwrap().expect("checkpoint failed");
    let mut events: Vec<AnomalyEvent> = first.events().try_iter().collect();
    let written = store.generations().unwrap();
    let (_, path) = written.iter().find(|(g, _)| *g == generation).unwrap();
    std::fs::copy(path, second_dir.path().join(path.file_name().unwrap())).unwrap();
    drop(batch_tx);
    first.join().expect("no faults injected");

    // Second incarnation: another worker count, the checkpoint's interner.
    let (batch_tx, second) = spawn_lifecycle_pool(second_dir.path(), workers);
    assert_eq!(second.recovered_generation(), Some(generation));
    produce(
        edge,
        &stream[cut..],
        batch_size,
        &second.interner(),
        &batch_tx,
    );
    drop(batch_tx);
    events.extend(second.events().iter());
    let detectors = second.join().expect("no faults injected");
    (events, detectors.iter().map(|d| d.tasks_seen()).sum())
}

/// Durations for the batch-classify property: ordinary in-range values
/// mixed with every adversarial edge the branch-free compare must get
/// right — NaN, exact zero, negatives, and both infinities. (Hand-rolled
/// `Strategy`: the vendored proptest shim has no `prop_oneof`.)
struct EdgeDuration;

impl Strategy for EdgeDuration {
    type Value = f64;

    fn generate(&self, runner: &mut TestRunner) -> f64 {
        match runner.next_u64() % 10 {
            0 => 0.0,
            1 => f64::NAN,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            4 => -1.0,
            _ => 1.0 + runner.next_f64() * 3_000_000.0,
        }
    }
}

proptest! {
    #[test]
    fn compiled_classify_matches_model_oracle(
        tasks in collection::vec(raw_task_strategy(), 1..60)
    ) {
        let model = trained_model();
        let interner = SignatureInterner::new();
        let compiled = model.compile(&interner);
        for (uid, task) in tasks.iter().enumerate() {
            let s = synopsis_of(task, uid as u64);
            let f = FeatureVector::from(&s);
            let oracle = model.classify(&f);
            // Via the synopsis fast path…
            let direct = InternedFeature::from_synopsis(&s, &interner);
            prop_assert_eq!(compiled.classify(direct.stage, direct.sig, direct.duration_us), oracle);
            // …and via an interned feature vector.
            let interned = f.intern(&interner);
            prop_assert_eq!(interned.sig, direct.sig);
            prop_assert_eq!(compiled.classify(interned.stage, interned.sig, interned.duration_us), oracle);
        }
    }

    #[test]
    fn classify_batch_matches_scalar_classify(
        tasks in collection::vec(
            (0u16..5, collection::vec(1u16..9, 0..5), EdgeDuration),
            1..80,
        )
    ) {
        let model = trained_model();
        let interner = SignatureInterner::new();
        let compiled = model.compile(&interner);
        let mut stages = Vec::with_capacity(tasks.len());
        let mut sigs = Vec::with_capacity(tasks.len());
        let mut durations = Vec::with_capacity(tasks.len());
        for (stage, points, duration_us) in &tasks {
            let points: Vec<LogPointId> = points.iter().map(|&p| LogPointId(p)).collect();
            stages.push(StageId(*stage));
            sigs.push(interner.intern_points(&points));
            durations.push(*duration_us);
        }
        // Reused (dirty) mask: correctness must not depend on a fresh one.
        let mut verdicts = VerdictMask::new();
        compiled.classify_batch(&stages, &sigs, &durations, &mut verdicts);
        compiled.classify_batch(&stages, &sigs, &durations, &mut verdicts);
        prop_assert_eq!(verdicts.len(), tasks.len());
        for i in 0..tasks.len() {
            let scalar = compiled.classify(stages[i], sigs[i], durations[i]);
            prop_assert!(
                verdicts.get(i) == scalar,
                "element {} (stage {:?}, sig {:?}, duration {}): batch {:?} != scalar {:?}",
                i, stages[i], sigs[i], durations[i], verdicts.get(i), scalar
            );
        }
    }

    #[test]
    fn batch_pool_matches_single_threaded_detector(
        tasks in collection::vec(raw_task_strategy(), 1..50),
        workers in 1usize..5,
        batch_size in 1usize..17
    ) {
        let stream = stream_of(&tasks);
        // Producer edge: a `BatchSink` behind trackers — synopses interned
        // into batches as they are submitted, one channel send per batch.
        let interner = Arc::new(SignatureInterner::new());
        let (sink, batch_rx) = BatchSink::new(batch_size, interner.clone());
        let pool = spawn_pool(workers, interner, batch_rx);
        for s in &stream {
            sink.submit(s.clone());
        }
        drop(sink); // flushes the partial tail batch
        check_pool(pool, &stream)?;
    }

    #[test]
    fn pool_matches_single_threaded_detector(
        tasks in collection::vec(raw_task_strategy(), 1..50),
        workers in 1usize..5,
        batch_size in 1usize..17
    ) {
        let stream = stream_of(&tasks);
        // Producer edge: `feed_frame_soa` behind a frame receiver — one
        // decoded frame in, one interned batch out.
        let interner = Arc::new(SignatureInterner::new());
        let (batch_tx, batch_rx) = unbounded();
        let pool = spawn_pool(workers, interner.clone(), batch_rx);
        produce(Edge::Frame, &stream, batch_size, &interner, &batch_tx);
        drop(batch_tx);
        check_pool(pool, &stream)?;
    }
}

/// The same matrix behind the lifecycle spawn, where the interner is the
/// pool's to give: both edges, 1..=4 workers, each restoring what a
/// different worker count checkpointed mid-stream over an interner whose
/// ids are in no producer's order. (Two pools and three checkpoint writes
/// a case: a few dozen seeded cases, not proptest's 256.)
#[test]
fn lifecycle_pool_matches_single_threaded_detector() {
    for seed in 0..24u64 {
        let mut runner = TestRunner::from_seed(seed);
        let tasks = collection::vec(raw_task_strategy(), 1..50).generate(&mut runner);
        let stream = stream_of(&tasks);
        let cut = (0..stream.len() + 1).generate(&mut runner);
        let batch_size = (1usize..17).generate(&mut runner);
        let workers = 1 + (seed % 4) as usize;
        let written_by = 1 + (workers + (seed / 4) as usize % 3) % 4; // never `workers`
        for edge in [Edge::Sink, Edge::Frame] {
            let (events, seen) =
                run_lifecycle_pools(edge, (written_by, workers), &stream, cut, batch_size);
            check_against_reference(&events, seen, &stream).unwrap_or_else(|e| {
                panic!("seed {seed}, {edge:?}, {written_by} → {workers} workers, cut {cut}: {e:?}")
            });
        }
    }
}

/// A producer built on any interner but the pool's own hands it ids that
/// mean nothing there. The router checks every batch in debug builds (the
/// check compiles out of release ones) and refuses the first such batch.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "foreign interner")]
fn a_batch_built_on_a_foreign_interner_is_refused() {
    let (batch_tx, batch_rx) = unbounded();
    let pool = spawn_pool(2, Arc::new(SignatureInterner::new()), batch_rx);
    // More distinct signatures than the model ever gave the pool's interner.
    let foreign = SignatureInterner::new();
    let tasks: Vec<RawTask> = (0..64).map(|p| (0, 0, vec![100 + p], 1_000, 0)).collect();
    batch_tx.send(soa(&stream_of(&tasks), &foreign)).unwrap();
    drop(batch_tx);
    pool.join().unwrap(); // the router's panic, as the handle reports it
}

/// One stage of a generated training set: per signature, its points, a
/// count exponent (counts from 1 to 1 024, so shares are skewed and some
/// fall below the flow cutoff), how many distinct duration levels it
/// spreads over (one to three, so the percentile lands on a tied value)
/// and how often a task runs ten times slow (never, or one in 2..40).
type TrainedStage = Vec<(Vec<u16>, u32, u64, u64)>;

fn trained_stage_strategy() -> impl Strategy<Value = TrainedStage> {
    collection::vec(
        (collection::vec(1u16..10, 1..5), 0u32..11, 1u64..4, 0u64..40),
        1..13,
    )
}

/// The duration of training task `j` of a signature: one of `levels`
/// values 40 µs apart, ten times longer every `tail_every`-th task.
fn training_duration(j: u64, levels: u64, tail_every: u64) -> u64 {
    let base = 2_000 + 40 * (j % levels);
    if tail_every > 1 && j.is_multiple_of(tail_every) {
        base * 10
    } else {
        base
    }
}

/// The next representable duration above (`step` 1) or below (`step` −1)
/// a positive `t`.
fn ulp_step(t: f64, step: i64) -> f64 {
    f64::from_bits(t.to_bits().wrapping_add_signed(step))
}

/// Map classify equals compiled classify on every trained model: seeded
/// training sets of 1–4 stages and up to 12 signatures each (skewed
/// counts, durations tied at the percentile, three percentiles, two
/// sample floors), and, against each, runtime tasks of every trained,
/// rare and never-trained signature — one interned before `compile`, one
/// after — in every trained stage and one untrained stage, at each
/// stage's thresholds, one ulp above and below them, at zero and far
/// above. The compiled `perf_p0` is the training rate floored at
/// `1 − percentile/100`, and both forms report the same flow rate.
#[test]
fn map_classify_equals_compiled_classify_on_every_trained_model() {
    let mut seen = std::collections::BTreeMap::<String, u64>::new();
    let mut count = |what: String| *seen.entry(what).or_default() += 1;
    for seed in 0..256u64 {
        let mut runner = TestRunner::from_seed(seed);
        let stages = collection::vec(trained_stage_strategy(), 1..5).generate(&mut runner);
        let percentile = [99.0, 95.0, 90.0][(0usize..3).generate(&mut runner)];
        let min_samples = [50usize, 10][(0usize..2).generate(&mut runner)];
        let config = ModelConfig {
            duration_percentile: percentile,
            min_signature_samples: min_samples,
            ..ModelConfig::default()
        };
        let mut builder = ModelBuilder::new();
        for (stage, sigs) in stages.iter().enumerate() {
            for (points, exp, levels, tail_every) in sigs {
                let signature = Signature::from_points(points.iter().map(|&p| LogPointId(p)));
                for j in 0..1u64 << exp {
                    let dur = training_duration(j, *levels, *tail_every) as f64;
                    builder.observe_parts(StageId(stage as u16), &signature, dur);
                }
            }
        }
        let model = builder.build(config);

        // Two never-trained signatures: one interned before `compile`, so
        // its id is inside the tables, and one after, past them.
        let interner = SignatureInterner::new();
        let never = |p: u16| Signature::from_points([LogPointId(100 + p)]);
        interner.intern(&never(0));
        let compiled = model.compile(&interner);
        interner.intern(&never(1));

        let floor = 1.0 - percentile / 100.0;
        let untrained = StageId(stages.len() as u16);
        let mut signatures = vec![never(0), never(1)];
        for (stage, sm) in model.stages() {
            assert_eq!(
                compiled.flow_outlier_rate(stage),
                model.flow_outlier_rate(stage),
                "seed {seed}"
            );
            for (sig, m) in &sm.signatures {
                signatures.push(sig.clone());
                let expected = m
                    .duration_threshold_us
                    .map(|_| m.training_perf_outlier_rate.max(floor));
                assert_eq!(
                    compiled.perf_p0(stage, interner.intern(sig)),
                    expected,
                    "seed {seed}: p0 of {sig} in {stage}"
                );
                if m.duration_threshold_us.is_some() {
                    let above = m.training_perf_outlier_rate > floor;
                    count(format!("p0 {}", if above { "rate" } else { "floor" }));
                }
            }
        }
        assert_eq!(compiled.flow_outlier_rate(untrained), 0.0);
        assert_eq!(model.flow_outlier_rate(untrained), 0.0);

        for stage in (0..=stages.len()).map(|s| StageId(s as u16)) {
            let mut durations = vec![0.0, 1.0e12];
            for m in model
                .stage(stage)
                .into_iter()
                .flat_map(|sm| sm.signatures.values())
            {
                if let Some(t) = m.duration_threshold_us {
                    durations.extend([t, ulp_step(t, 1), ulp_step(t, -1)]);
                }
            }
            for signature in &signatures {
                for &duration_us in &durations {
                    let f = FeatureVector {
                        uid: TaskUid(0),
                        host: HostId(0),
                        stage,
                        signature: signature.clone(),
                        duration_us,
                        start: SimTime::ZERO,
                    };
                    let interned = f.intern(&interner);
                    let map = model.classify(&f);
                    let dense = compiled.classify(interned.stage, interned.sig, duration_us);
                    assert_eq!(
                        dense, map,
                        "seed {seed}: {signature} in {stage} at {duration_us} µs"
                    );
                    count(format!("{map:?}"));
                }
            }
        }
    }
    // Every class, and both sides of the p0 floor, came up.
    for what in [
        "Normal",
        "FlowOutlier",
        "NewSignature",
        "PerformanceOutlier",
        "p0 floor",
        "p0 rate",
    ] {
        assert!(
            seen.get(what).is_some_and(|&n| n > 0),
            "no {what}: {seen:?}"
        );
    }
}

/// A seeded stream for [`detector_sink_equals_reference_run_event_for_event`]:
/// a clock of up to 0.5 s a task over hosts 0–3 and stages 0–3 (3 untrained),
/// one task in eight late by one to three windows, a surge of the
/// trained-rare [1, 2, 3] on (host 1, stage 0) in minutes 4–6, of slow
/// [1, 2] tasks on (host 2, stage 1) in minutes 8–10, never-trained flows
/// now and then, and the odd task ten times slow.
fn sink_stream(seed: u64, len: usize) -> Vec<TaskSynopsis> {
    let mut runner = TestRunner::from_seed(seed);
    let window_ms = small_config().window.as_micros() / 1_000;
    let mut clock_ms = 0u64;
    (0..len as u64)
        .map(|uid| {
            clock_ms += (0u64..500).generate(&mut runner);
            let host = (0u16..4).generate(&mut runner);
            let stage = (0u16..4).generate(&mut runner);
            let late = if (0u8..8).generate(&mut runner) == 0 {
                (1u64..4).generate(&mut runner) * window_ms
            } else {
                0
            };
            let minute = clock_ms / 60_000;
            let roll = (0u8..100).generate(&mut runner);
            let surge = |h, s, from| host == h && stage == s && (from..from + 3).contains(&minute);
            let (points, dur): (Vec<u16>, u64) = if surge(1, 0, 4) && roll < 40 {
                (vec![1, 2, 3], 5_000)
            } else if surge(2, 1, 8) && roll < 40 {
                (vec![1, 2], 30_000)
            } else if roll < 3 {
                (vec![7, 8 + (roll as u16)], 1_500)
            } else if roll < 53 {
                (vec![1, 2], 1_000 + (uid % 53) * 5)
            } else {
                (vec![4, 5, 6], 2_000 + (uid % 31) * 11)
            };
            let dur = if roll == 99 { dur * 10 } else { dur };
            let start_ms = clock_ms.saturating_sub(late);
            synopsis_of(&(host, stage, points, dur, start_ms), uid)
        })
        .collect()
}

/// `DetectorSink` — one synopsis at a time, each a one-row
/// `observe_batch` — reports exactly what `reference_run` reports over the
/// whole stream as one batch: the same events in the same order (Fig 10's
/// timelines render that order), and the same `tasks_seen`.
#[test]
fn detector_sink_equals_reference_run_event_for_event() {
    for seed in 0..8u64 {
        let stream = sink_stream(seed, 4_000);
        let sink = DetectorSink::new(trained_model(), small_config());
        for s in &stream {
            sink.submit(s.clone());
        }
        let seen = sink.tasks_seen();
        let events = sink.finish();

        let reference = AnomalyDetector::new(trained_model(), small_config());
        let whole = soa(&stream, reference.interner());
        let (expected, reference) = reference_run(reference, &[whole]);
        assert!(reference.late_seen() > 0, "seed {seed}: no stragglers");
        for kind in ["FlowRare", "FlowNew", "Performance"] {
            assert!(
                expected
                    .iter()
                    .any(|e| format!("{:?}", e.kind).starts_with(kind)),
                "seed {seed}: no {kind} event in {expected:?}"
            );
        }
        assert!(expected
            .iter()
            .all(|e| e.kind != AnomalyKind::ModelUnavailable));
        assert_eq!(events, expected, "seed {seed}");
        assert_eq!(seen, reference.tasks_seen(), "seed {seed}");
    }
}
