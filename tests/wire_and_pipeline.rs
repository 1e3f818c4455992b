//! Cross-crate integration: the synopsis wire format and the real-time
//! analyzer pipeline.
//!
//! The paper streams synopses from every node to a centralized analyzer;
//! these tests check that (a) the compact codec is a faithful transport —
//! detection over decoded synopses is identical to detection over the
//! originals — and (b) the threaded pipeline detects the same anomalies
//! the offline path does.

use saad::cassandra::{Cluster, ClusterConfig};
use saad::core::codec;
use saad::core::detector::{AnomalyDetector, AnomalyEvent, DetectorConfig};
use saad::core::intern::SignatureInterner;
use saad::core::model::{ModelBuilder, ModelConfig};
use saad::core::pipeline::{spawn_analyzer_pool, BatchSink, PoolStart, SupervisorConfig};
use saad::core::synopsis::TaskSynopsis;
use saad::core::testkit::{self, event_keys, reference_run, soa};
use saad::core::tracker::{SynopsisSink, VecSink};
use saad::fault::{catalog, FaultSchedule, FaultSpec, FaultType, Intensity};
use saad::sim::SimTime;
use saad::workload::{KeyChooser, OperationMix, WorkloadGenerator};
use std::sync::Arc;

fn workload(seed: u64) -> WorkloadGenerator {
    WorkloadGenerator::new(
        OperationMix::write_heavy(),
        KeyChooser::zipfian(10_000),
        25.0,
        seed,
    )
}

fn faulted_run(mins: u64) -> (Vec<TaskSynopsis>, Arc<saad::core::model::OutlierModel>) {
    // Train.
    let sink = Arc::new(VecSink::new());
    let mut cluster = Cluster::new(ClusterConfig::default(), sink.clone());
    cluster.run(&mut workload(1), SimTime::from_mins(4));
    let mut builder = ModelBuilder::new();
    for s in sink.drain() {
        builder.observe(&s);
    }
    let model = Arc::new(builder.build(ModelConfig::default()));
    // Faulted run, raw synopses.
    let sink = Arc::new(VecSink::new());
    let mut cluster = Cluster::new(
        ClusterConfig {
            seed: 9,
            ..ClusterConfig::default()
        },
        sink.clone(),
    );
    cluster.attach_fault(
        3,
        FaultSchedule::new(5).with_window(
            SimTime::from_mins(2),
            SimTime::from_mins(mins),
            FaultSpec::new(catalog::WAL, FaultType::Error, Intensity::High),
        ),
    );
    cluster.run(&mut workload(2), SimTime::from_mins(mins));
    (sink.drain(), model)
}

/// Offline detection: the reference detector over the whole stream.
fn detect(
    model: Arc<saad::core::model::OutlierModel>,
    synopses: &[TaskSynopsis],
) -> Vec<AnomalyEvent> {
    let detector = AnomalyDetector::new(model, DetectorConfig::default());
    let whole = soa(synopses, detector.interner());
    reference_run(detector, &[whole]).0
}

#[test]
fn codec_round_trip_preserves_detection_exactly() {
    let (synopses, model) = faulted_run(6);
    assert!(synopses.len() > 10_000);

    // Encode the whole stream, decode it, and compare detection outcomes.
    let wire = codec::encode_batch(synopses.iter());
    // The stream really is tens of bytes per synopsis (paper: ~48 B avg).
    let avg = wire.len() as f64 / synopses.len() as f64;
    assert!(avg < 48.0, "avg encoded size {avg:.1} B");
    let mut buf = wire.clone();
    let decoded = testkit::decode_batch(&mut buf).expect("stream decodes");
    assert_eq!(decoded.len(), synopses.len());

    let direct = detect(model.clone(), &synopses);
    let via_wire = detect(model, &decoded);
    assert!(!direct.is_empty(), "fault must be detected");
    assert_eq!(direct, via_wire, "wire transport must not change detection");
}

#[test]
fn threaded_pipeline_matches_offline_detection() {
    let (synopses, model) = faulted_run(6);
    let offline = detect(model.clone(), &synopses);

    // Liveness off: the offline replay has no liveness tracker to mirror.
    let supervisor = SupervisorConfig {
        silent_after: u64::MAX,
        ..SupervisorConfig::default()
    };
    let interner = Arc::new(SignatureInterner::new());
    let (sink, rx) = BatchSink::new(64, interner.clone());
    let start = PoolStart::Model { model, interner };
    let config = DetectorConfig::default();
    let pool = spawn_analyzer_pool(start, config, supervisor, 1, rx).expect("no store to open");
    for s in &synopses {
        sink.submit(s.clone());
    }
    drop(sink);
    let online: Vec<AnomalyEvent> = pool.events().iter().collect();
    let detectors = pool.join().expect("analyzer ran to completion");
    assert_eq!(detectors[0].tasks_seen(), synopses.len() as u64);
    // Events may interleave differently across window-close boundaries;
    // compare as multisets keyed by the full event value.
    assert_eq!(
        event_keys(&offline),
        event_keys(&online),
        "threaded analyzer must match offline replay"
    );
}
