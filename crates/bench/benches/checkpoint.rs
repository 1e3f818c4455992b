//! Checkpoint durability cost — encode/decode and disk round-trip latency.
//!
//! The model lifecycle (see `saad_core::store`) periodically persists the
//! trained [`OutlierModel`], the shared [`SignatureInterner`], and one
//! `DetectorSnapshot` per shard, each write framed with a CRC-32 trailer
//! and made durable with fsync + atomic rename. Checkpoints are taken on
//! the router thread's batch boundary, so their cost is a stall the
//! analyzer actually pays; this bench measures it at several shard counts
//! and writes `BENCH_checkpoint.json`.
//!
//! Four phases per row:
//!
//! * `encode` — serialize the checkpoint to its framed byte form;
//! * `decode` — parse + CRC-verify + recompile the model (the restart
//!   path after the file is read);
//! * `save`   — full durable write: temp file, fsync, rename, dir fsync;
//! * `recover`— scan the store and restore the newest valid generation.

use saad_core::detector::{AnomalyDetector, DetectorConfig};
use saad_core::feature::InternedFeature;
use saad_core::intern::SignatureInterner;
use saad_core::model::{ModelBuilder, ModelConfig};
use saad_core::store::{Checkpoint, CheckpointStore};
use saad_core::synopsis::TaskSynopsis;
use saad_core::{HostId, StageId, TaskUid};
use saad_logging::LogPointId;
use saad_sim::{SimDuration, SimTime};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const TASKS: u64 = 40_000;
const HOSTS: u16 = 8;
const STAGES: u16 = 4;
const ITERS: u32 = 25;

/// Self-cleaning unique temp directory (no tempfile crate).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("saad-bench-ckpt-{}-{tag}", std::process::id()));
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

/// A mixed workload: several flows per stage (one of them long) so the
/// model, interner, and per-window accumulators all carry realistic state.
fn stream() -> Vec<TaskSynopsis> {
    let mut out = Vec::with_capacity(TASKS as usize);
    for uid in 0..TASKS {
        let host = (uid % u64::from(HOSTS)) as u16;
        let stage = ((uid / u64::from(HOSTS)) % u64::from(STAGES)) as u16;
        let flow = uid % 7;
        let points: Vec<(LogPointId, u32)> = match flow {
            0..=3 => vec![(LogPointId(1), 1), (LogPointId(2), 1)],
            4 | 5 => vec![(LogPointId(1), 1), (LogPointId(2), 1), (LogPointId(3), 1)],
            // A long tail of distinct per-stage paths so the persisted
            // model and interner carry hundreds of signatures.
            _ => {
                let variant = ((uid / 7) % 96) as u16;
                (1..=12u16)
                    .map(|p| (LogPointId(100 + stage * 2_000 + variant * 16 + p), 1))
                    .collect()
            }
        };
        out.push(TaskSynopsis {
            host: HostId(host),
            stage: StageId(stage),
            uid: TaskUid(uid),
            start: SimTime::from_millis(uid * 15),
            duration: SimDuration::from_micros(900 + (uid % 211) * 7),
            log_points: points,
        });
    }
    out
}

/// Assemble a live checkpoint: train on the stream, then run sharded
/// detectors over it *without* flushing, so every shard snapshot carries
/// open windows — exactly what a mid-stream checkpoint persists.
fn build_checkpoint(synopses: &[TaskSynopsis], shards: usize) -> Checkpoint {
    let mut builder = ModelBuilder::new();
    for s in synopses {
        builder.observe(s);
    }
    let model = Arc::new(builder.build(ModelConfig::default()));
    let interner = Arc::new(SignatureInterner::new());
    let compiled = Arc::new(model.compile(&interner));
    let mut detectors: Vec<AnomalyDetector> = (0..shards)
        .map(|_| {
            AnomalyDetector::with_shared(
                model.clone(),
                compiled.clone(),
                interner.clone(),
                DetectorConfig::default(),
            )
        })
        .collect();
    for s in synopses {
        let shard = (s.host.0 as usize) % shards;
        let f = InternedFeature::from_synopsis(s, &interner);
        std::hint::black_box(detectors[shard].observe_interned(&f));
    }
    let snapshots = detectors.iter().map(|d| d.snapshot()).collect();
    Checkpoint::new(1, model, compiled, interner, snapshots)
}

/// Mean wall-clock milliseconds of `f` over [`ITERS`] runs.
fn time_ms(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..ITERS {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e3 / f64::from(ITERS)
}

struct Row {
    shards: usize,
    bytes: usize,
    encode_ms: f64,
    decode_ms: f64,
    save_ms: f64,
    recover_ms: f64,
}

fn measure(synopses: &[TaskSynopsis], shards: usize) -> Row {
    let checkpoint = build_checkpoint(synopses, shards);
    let bytes = checkpoint.encode();

    let encode_ms = time_ms(|| {
        std::hint::black_box(checkpoint.encode());
    });
    let decode_ms = time_ms(|| {
        std::hint::black_box(Checkpoint::decode(&bytes).expect("decode"));
    });

    // Durable write into a fresh store; the fixed generation makes every
    // save rewrite (temp + fsync + rename) the same file.
    let dir = TempDir::new(&format!("save-{shards}"));
    let store = CheckpointStore::create(&dir.0, 4).expect("create store");
    let save_ms = time_ms(|| {
        store.save(&checkpoint).expect("save");
    });
    let recover_ms = time_ms(|| {
        let recovery = store.recover().expect("recover");
        assert!(recovery.checkpoint.is_some() && recovery.rejected.is_empty());
    });

    // Round-trip sanity: the restart path sees the same state it saved.
    let restored = Checkpoint::decode(&bytes).expect("round trip");
    assert_eq!(restored.generation, checkpoint.generation);
    assert_eq!(restored.shards.len(), shards);
    assert_eq!(restored.model.stage_count(), checkpoint.model.stage_count());
    assert_eq!(restored.interner.len(), checkpoint.interner.len());

    Row {
        shards,
        bytes: bytes.len(),
        encode_ms,
        decode_ms,
        save_ms,
        recover_ms,
    }
}

fn render_json(tasks: u64, rows: &[Row]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"checkpoint\",\n");
    out.push_str(&format!("  \"tasks\": {tasks},\n"));
    out.push_str(&format!("  \"iters\": {ITERS},\n"));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{ \"shards\": {}, \"bytes\": {}, \"encode_ms\": {:.3}, \
             \"decode_ms\": {:.3}, \"save_ms\": {:.3}, \"recover_ms\": {:.3} }}{sep}\n",
            r.shards, r.bytes, r.encode_ms, r.decode_ms, r.save_ms, r.recover_ms
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let synopses = stream();
    println!(
        "checkpoint latency over {} synopses ({HOSTS} hosts x {STAGES} stages), {ITERS} iters/phase\n",
        synopses.len()
    );
    println!("shards      bytes  encode_ms  decode_ms   save_ms  recover_ms");

    let mut rows = Vec::new();
    for &shards in &[1usize, 2, 4, 8] {
        let row = measure(&synopses, shards);
        println!(
            "{:>6} {:>10} {:>10.3} {:>10.3} {:>9.3} {:>11.3}",
            row.shards, row.bytes, row.encode_ms, row.decode_ms, row.save_ms, row.recover_ms
        );
        rows.push(row);
    }

    let json = render_json(TASKS, &rows);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_checkpoint.json");
    std::fs::write(path, json).expect("write BENCH_checkpoint.json");
    println!("\nwrote {path}");

    // The checkpoint stalls the router's batch loop: even at 8 shards the
    // whole durable write must stay well under a second, and the restart
    // path (recover) must not be an order of magnitude above a plain
    // decode of the same bytes.
    let worst = rows.last().expect("rows");
    assert!(
        worst.save_ms < 1_000.0,
        "durable checkpoint save too slow: {:.1} ms",
        worst.save_ms
    );
    assert!(
        worst.recover_ms < 1_000.0,
        "checkpoint recovery too slow: {:.1} ms",
        worst.recover_ms
    );
}
