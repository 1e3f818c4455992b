//! Equivalence properties for the interned/compiled/sharded analyzer.
//!
//! The PR that introduced signature interning, compiled dense models, and
//! the sharded analyzer pool keeps `OutlierModel::classify` (map-based)
//! as the reference oracle. These properties check, over arbitrary
//! feature streams, that every fast path agrees with it exactly:
//!
//! * compiled + interned classification ≡ `OutlierModel::classify`;
//! * `observe_synopsis` (interned hot path) ≡ `observe(&FeatureVector)`;
//! * `classify_batch` (branch-free SoA loop) ≡ per-element
//!   `CompiledModel::classify`, including NaN / zero / infinite durations;
//! * pool-sharded detection ≡ the one reference (a plain detector driven
//!   element by element, `common::reference_run`), as an event multiset,
//!   for any worker count — behind both producer edges, `BatchSink` and
//!   `feed_frame_soa`.

mod common;

use common::{event_keys, reference_run};
use proptest::prelude::*;
use saad::core::detector::{AnomalyDetector, AnomalyEvent, DetectorConfig};
use saad::core::model::{ModelBuilder, ModelConfig, OutlierModel};
use saad::core::pipeline::{
    feed_frame_soa, spawn_batch_analyzer_pool, BatchSink, PoolHandle, SequencedInput,
    SupervisorConfig,
};
use saad::core::prelude::*;
use saad::core::synopsis::TaskSynopsis;
use saad::core::tracker::SynopsisSink;
use saad::core::transport::FrameOutcome;
use saad::logging::LogPointId;
use saad::sim::{SimDuration, SimTime};
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

/// The pool under test. Liveness is disabled (saturating threshold): the
/// reference detector has no liveness tracker to mirror.
fn spawn_pool(
    workers: usize,
    interner: Arc<SignatureInterner>,
    batch_rx: crossbeam_channel::Receiver<SynopsisBatch>,
) -> PoolHandle {
    let supervisor = SupervisorConfig {
        silent_after: u64::MAX,
        ..SupervisorConfig::default()
    };
    let config = small_config();
    spawn_batch_analyzer_pool(
        trained_model(),
        config,
        supervisor,
        workers,
        interner,
        batch_rx,
        None,
    )
}

/// Drain `pool` (its input is closed) and hold it against the one
/// reference: a plain detector over the whole stream, in order.
fn check_against_reference(
    pool: PoolHandle,
    stream: Vec<TaskSynopsis>,
) -> Result<(), TestCaseError> {
    let reference = AnomalyDetector::new(trained_model(), small_config());
    let (expected, reference) = reference_run(reference, &[SequencedInput::Batch(stream)]);
    let pool_events: Vec<AnomalyEvent> = pool.events().iter().collect();
    let detectors = pool.join().expect("no faults injected");
    let seen: u64 = detectors.iter().map(|d| d.tasks_seen()).sum();
    prop_assert_eq!(seen, reference.tasks_seen());
    prop_assert_eq!(event_keys(&pool_events), event_keys(&expected));
    Ok(())
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
            prop_assert_eq!(compiled.classify_feature(&interned), oracle);
        }
    }

    #[test]
    fn interned_observe_matches_feature_observe(
        tasks in collection::vec(raw_task_strategy(), 1..60)
    ) {
        let model = trained_model();
        let config = small_config();
        let mut by_feature = AnomalyDetector::new(model.clone(), config);
        let mut by_synopsis = AnomalyDetector::new(model, config);
        let mut events_a = Vec::new();
        let mut events_b = Vec::new();
        for (uid, task) in tasks.iter().enumerate() {
            let s = synopsis_of(task, uid as u64);
            events_a.extend(by_feature.observe(&FeatureVector::from(&s)));
            events_b.extend(by_synopsis.observe_synopsis(&s));
        }
        events_a.extend(by_feature.flush());
        events_b.extend(by_synopsis.flush());
        // Same stream, same order → identical events, not just a multiset.
        prop_assert_eq!(events_a, events_b);
        prop_assert_eq!(by_feature.tasks_seen(), by_synopsis.tasks_seen());
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
        check_against_reference(pool, stream)?;
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
        let (batch_tx, batch_rx) = crossbeam_channel::unbounded();
        let (loss_tx, _loss_rx) = crossbeam_channel::unbounded();
        let pool = spawn_pool(workers, interner.clone(), batch_rx);
        for chunk in stream.chunks(batch_size) {
            let frame = FrameOutcome::Fresh {
                host: chunk[0].host,
                synopses: chunk.to_vec(),
                newly_lost: 0,
            };
            prop_assert_eq!(feed_frame_soa(frame, &batch_tx, &interner, &loss_tx), chunk.len());
        }
        drop(batch_tx);
        check_against_reference(pool, stream)?;
    }
}
