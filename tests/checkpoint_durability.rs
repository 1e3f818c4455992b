//! End-to-end durability: checkpointed analyzer pools survive crashes and
//! storage faults without changing what they detect.
//!
//! * A lifecycle pool bootstraps from nothing, promotes itself to a
//!   trained model, is killed mid-stream right after a checkpoint, and is
//!   restarted from disk — the union of events emitted before the crash
//!   and after recovery must equal, as a multiset, the events of an
//!   identical pool that never crashed.
//! * A checkpoint store whose newest generations suffer bit rot and torn
//!   writes (via `saad::fault::CheckpointTamperer`) must fall back to the
//!   newest intact generation and report a typed rejection per damaged
//!   file.

use crossbeam_channel::{unbounded, Sender};
use saad::core::batch::SynopsisBatch;
use saad::core::detector::{AnomalyKind, DetectorConfig};
use saad::core::pipeline::{
    spawn_analyzer_pool, LifecycleConfig, PoolHandle, PoolStart, SupervisorConfig,
};
use saad::core::store::CheckpointStore;
use saad::core::synopsis::TaskSynopsis;
use saad::core::testkit::{event_keys, soa, TempDir};
use saad::core::{HostId, StageId, TaskUid, TenantId};
use saad::fault::CheckpointTamperer;
use saad::logging::LogPointId;
use saad::sim::{SimDuration, SimTime};
use std::path::Path;
use std::time::Duration;

const BATCH: usize = 48;
const PER_MIN: u64 = 240;
const MINS: u64 = 6;

fn synopsis(host: u16, stage: u16, points: &[u16], start: SimTime, uid: u64) -> TaskSynopsis {
    TaskSynopsis {
        host: HostId(host),
        stage: StageId(stage),
        uid: TaskUid(uid),
        start,
        duration: SimDuration::from_micros(1_000 + (uid % 53) * 5),
        log_points: points.iter().map(|&p| (LogPointId(p), 1)).collect(),
    }
}

/// Six minutes over three hosts and two stages: healthy [1, 2] traffic
/// (with a sparse [1, 2, 3] flow so the trained model knows it as rare),
/// then — in the second half — a [1, 2, 3] surge on (host 1, stage 0) and
/// a brand-new [9] flow on (host 2, stage 1).
fn mixed_stream() -> Vec<TaskSynopsis> {
    let mut out = Vec::new();
    let mut uid = 0u64;
    for minute in 0..MINS {
        for i in 0..PER_MIN {
            let host = (i % 3) as u16;
            let stage = (i % 2) as u16;
            let points: &[u16] = if minute == 4 && host == 1 && stage == 0 && i.is_multiple_of(4) {
                &[1, 2, 3] // trained-rare surge after the crash point
            } else if minute == 5 && host == 2 && stage == 1 && i == 7 {
                &[9] // never trained
            } else if uid.is_multiple_of(997) {
                &[1, 2, 3] // sparse: trains [1,2,3] as a rare flow
            } else {
                &[1, 2]
            };
            let start =
                SimTime::from_mins(minute) + SimDuration::from_millis(i * (60_000 / PER_MIN));
            out.push(synopsis(host, stage, points, start, uid));
            uid += 1;
        }
    }
    out
}

fn lifecycle_config() -> LifecycleConfig {
    LifecycleConfig {
        checkpoint_every: 0, // explicit + shutdown checkpoints only
        promote_after: 400,
        min_retrain_samples: 200,
        ..LifecycleConfig::default()
    }
}

fn supervisor() -> SupervisorConfig {
    SupervisorConfig {
        // Liveness bookkeeping is not checkpointed; keep it out of the
        // crash-equality comparison.
        silent_after: u64::MAX,
        ..SupervisorConfig::default()
    }
}

fn spawn(dir: &Path, workers: usize) -> (Sender<SynopsisBatch>, PoolHandle) {
    let (batch_tx, batch_rx) = unbounded();
    let start = PoolStart::Store {
        dir: dir.into(),
        lifecycle: lifecycle_config(),
    };
    let config = DetectorConfig::default();
    let pool = spawn_analyzer_pool(start, config, supervisor(), workers, batch_rx)
        .expect("spawn lifecycle pool");
    (batch_tx, pool)
}

/// `stream` in batches of [`BATCH`], interned where the pool says to: a
/// recovered pool's interner is its checkpoint's.
fn feed(pool: &PoolHandle, batch_tx: &Sender<SynopsisBatch>, stream: &[TaskSynopsis]) {
    let interner = pool.interner();
    for chunk in stream.chunks(BATCH) {
        batch_tx.send(soa(chunk, &interner)).unwrap();
    }
}

fn wait_processed(pool: &PoolHandle, target: u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while pool.processed() < target {
        assert!(std::time::Instant::now() < deadline, "pool stalled");
        std::thread::yield_now();
    }
}

#[test]
fn recovered_pool_matches_uninterrupted_oracle() {
    let stream = mixed_stream();
    let half = stream.len() / 2;
    assert_eq!(half % BATCH, 0, "crash point must be a batch boundary");

    // Oracle: same pool shape, never crashed.
    let oracle_dir = TempDir::new("oracle");
    let (oracle_tx, oracle) = spawn(oracle_dir.path(), 3);
    feed(&oracle, &oracle_tx, &stream);
    drop(oracle_tx);
    let mut oracle_events = Vec::new();
    while let Ok(e) = oracle.events().recv() {
        oracle_events.push(e);
    }
    let oracle_detectors = oracle.join().unwrap();
    let oracle_seen: u64 = oracle_detectors.iter().map(|d| d.tasks_seen()).sum();
    assert_eq!(oracle_seen, stream.len() as u64);
    assert!(
        oracle_events.iter().any(|e| e.kind.is_model_unavailable()),
        "oracle should account its bootstrap windows: {oracle_events:?}"
    );
    assert!(
        oracle_events
            .iter()
            .any(|e| matches!(e.kind, AnomalyKind::FlowNew(_))),
        "oracle should detect the injected anomaly: {oracle_events:?}"
    );

    // Crash run: first half, explicit checkpoint, then the process "dies"
    // — handles are forgotten, no drain, no shutdown checkpoint.
    let crash_dir = TempDir::new("crash");
    let (crash_tx, crash_pool) = spawn(crash_dir.path(), 3);
    feed(&crash_pool, &crash_tx, &stream[..half]);
    wait_processed(&crash_pool, half as u64);
    assert!(
        crash_pool.is_detecting(TenantId::DEFAULT),
        "pool should have promoted"
    );
    let reply = crash_pool.request_checkpoint();
    crash_tx.send(SynopsisBatch::new()).unwrap(); // nudge the batch boundary
    let generation = reply.recv().unwrap().expect("checkpoint failed");
    // Everything emitted before the crash; the snapshot replies ordered
    // these after all pre-checkpoint batches.
    let pre_crash_events = crash_pool.events().try_iter().collect::<Vec<_>>();
    std::mem::forget(crash_tx);
    std::mem::forget(crash_pool);

    // Recovery: a fresh pool over the same store picks up the checkpoint
    // and finishes the stream.
    let (recovered_tx, recovered) = spawn(crash_dir.path(), 3);
    assert_eq!(recovered.recovered_generation(), Some(generation));
    assert!(
        recovered.is_detecting(TenantId::DEFAULT),
        "recovery must skip bootstrap"
    );
    assert!(recovered.rejected_checkpoints().is_empty());
    feed(&recovered, &recovered_tx, &stream[half..]);
    drop(recovered_tx);
    let mut post_crash_events = Vec::new();
    while let Ok(e) = recovered.events().recv() {
        post_crash_events.push(e);
    }
    let recovered_detectors = recovered.join().unwrap();
    let recovered_seen: u64 = recovered_detectors.iter().map(|d| d.tasks_seen()).sum();
    assert_eq!(
        recovered_seen,
        stream.len() as u64,
        "tasks lost or double counted across the crash"
    );

    let mut combined = pre_crash_events;
    combined.extend(post_crash_events);
    assert_eq!(
        event_keys(&combined),
        event_keys(&oracle_events),
        "recovered detection diverged from the uninterrupted oracle"
    );
}

#[test]
fn recovery_falls_back_past_damaged_checkpoints() {
    let stream = mixed_stream();
    let dir = TempDir::new("tamper");
    let (batch_tx, pool) = spawn(dir.path(), 2);

    // Three explicit generations at different points in the stream, plus
    // the shutdown checkpoint.
    let third = stream.len() / 3;
    let mut fed = 0usize;
    for part in [&stream[..third], &stream[third..2 * third]] {
        feed(&pool, &batch_tx, part);
        fed += part.len();
        wait_processed(&pool, fed as u64);
        let reply = pool.request_checkpoint();
        batch_tx.send(SynopsisBatch::new()).unwrap();
        reply.recv().unwrap().expect("checkpoint failed");
    }
    feed(&pool, &batch_tx, &stream[2 * third..]);
    drop(batch_tx);
    while pool.events().recv().is_ok() {}
    pool.join().unwrap();

    let store = CheckpointStore::create(dir.path(), 3).unwrap();
    let generations = store.generations().unwrap();
    assert!(
        generations.len() >= 3,
        "expected 3 generations, got {generations:?}"
    );
    let (oldest_intact, _) = generations[generations.len() - 3];

    // Bit rot on the newest generation, a torn write on the next.
    let mut tamperer = CheckpointTamperer::new(0xC0FFEE);
    let (_, newest_path) = &generations[generations.len() - 1];
    let (_, second_path) = &generations[generations.len() - 2];
    tamperer.corrupt_file(newest_path, 8).unwrap();
    tamperer.truncate_file(second_path).unwrap();
    assert_eq!(tamperer.counts().total(), 2);

    let (recovered_tx, recovered) = spawn(dir.path(), 2);
    assert_eq!(
        recovered.recovered_generation(),
        Some(oldest_intact),
        "recovery should fall back to the newest intact generation"
    );
    let rejected = recovered.rejected_checkpoints();
    assert_eq!(rejected.len(), 2, "one typed rejection per damaged file");
    assert!(rejected.iter().any(|(p, _)| p == newest_path));
    assert!(rejected.iter().any(|(p, _)| p == second_path));
    drop(recovered_tx);
    while recovered.events().recv().is_ok() {}
    recovered.join().unwrap();
}
