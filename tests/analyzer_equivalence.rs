//! Equivalence properties for the interned/compiled/sharded analyzer.
//!
//! The PR that introduced signature interning, compiled dense models, and
//! the sharded analyzer pool keeps `OutlierModel::classify` (map-based)
//! as the reference oracle. These properties check, over arbitrary
//! feature streams, that every fast path agrees with it exactly:
//!
//! * compiled + interned classification ≡ `OutlierModel::classify`;
//! * `classify_batch` (branch-free SoA loop) ≡ per-element
//!   `CompiledModel::classify`, including NaN / zero / infinite durations;
//! * pool-sharded detection ≡ the one reference (a plain detector driven
//!   element by element, `common::reference_run`), as an event multiset,
//!   for any worker count — behind both producer edges, `BatchSink` and
//!   `feed_frame_soa`, and from both starts: a model on an interner the
//!   caller made, and a store on the interner the pool restored from a
//!   checkpoint another worker count wrote;
//! * the one hazard of interning at the edge — a producer built on some
//!   other interner — is refused in debug builds.

mod common;

use common::{event_keys, reference_run, soa};
use crossbeam_channel::{unbounded, Sender};
use proptest::prelude::*;
use saad::core::detector::{AnomalyDetector, AnomalyEvent, DetectorConfig};
use saad::core::model::{ModelBuilder, ModelConfig, OutlierModel};
use saad::core::pipeline::{
    feed_frame_soa, spawn_analyzer_pool, BatchSink, LifecycleConfig, PoolHandle, PoolStart,
    SupervisorConfig,
};
use saad::core::prelude::*;
use saad::core::synopsis::TaskSynopsis;
use saad::core::tracker::SynopsisSink;
use saad::core::transport::FrameOutcome;
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

/// Self-cleaning unique temp directory (no tempfile crate).
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("saad-equiv-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
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
    let generation_0 = Checkpoint::new(0, model, compiled, seeded, vec![blank.snapshot()]);
    let store = CheckpointStore::create(&first_dir.0, 3).unwrap();
    store.save(&generation_0).unwrap();

    // First incarnation: the head of the stream, then a checkpoint of the
    // windows it left open — set aside before shutdown flushes them into
    // a newer generation.
    let (batch_tx, first) = spawn_lifecycle_pool(&first_dir.0, written_by);
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
    std::fs::copy(path, second_dir.0.join(path.file_name().unwrap())).unwrap();
    drop(batch_tx);
    first.join().expect("no faults injected");

    // Second incarnation: another worker count, the checkpoint's interner.
    let (batch_tx, second) = spawn_lifecycle_pool(&second_dir.0, workers);
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
