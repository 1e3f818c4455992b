//! End-to-end: the HBase/HDFS disk-hog experiment (paper §5.5), checking
//! the recovery-bug cascade and the major-compaction false positive.

use saad::core::detector::{AnomalyKind, DetectorConfig};
use saad::core::model::ModelConfig;
use saad::core::pipeline::ModelSink;
use saad::fault::HogSchedule;
use saad::hbase::{HBaseCluster, HBaseConfig};
use saad::sim::{SimDuration, SimTime};
use saad::workload::{KeyChooser, OperationMix, WorkloadGenerator};
use saad_bench::detect;
use std::sync::Arc;

fn ops(seed: u64, mins: u64) -> Vec<saad::workload::Operation> {
    let mut wl = WorkloadGenerator::new(
        OperationMix::write_heavy(),
        KeyChooser::zipfian(10_000),
        18.0,
        seed,
    );
    wl.ops_until(SimTime::from_mins(mins))
}

fn trained_model() -> Arc<saad::core::model::OutlierModel> {
    let sink = Arc::new(ModelSink::new());
    let mut cluster = HBaseCluster::new(
        HBaseConfig {
            seed: 5,
            ..HBaseConfig::default()
        },
        sink.clone(),
    );
    let stream = ops(51, 6);
    cluster.run(&stream, SimTime::from_mins(6));
    Arc::new(sink.build(ModelConfig::default()))
}

#[test]
fn severe_hog_crashes_a_regionserver_and_saad_sees_the_cascade() {
    let model = trained_model();
    let cfg = HBaseConfig {
        seed: 61,
        hog: HogSchedule::new().with_window(SimTime::from_mins(3), SimTime::from_mins(12), 6),
        recovery_latency_threshold: SimDuration::from_millis(500),
        recovery_retry_interval: SimDuration::from_secs(2),
        max_recovery_retries: 5,
        ..HBaseConfig::default()
    };
    let (events, (out, stages)) = detect(model, DetectorConfig::default(), |sink| {
        let mut cluster = HBaseCluster::new(cfg, sink);
        let out = cluster.run(&ops(62, 13), SimTime::from_mins(13));
        (out, cluster.instrumentation().stages_registry.clone())
    });

    assert!(out.crashed.iter().any(|&c| c), "a regionserver must abort");
    // RecoverBlocks flow anomaly on the Data Node side (paper Fig 10b).
    let rb = stages.lookup("RecoverBlocks").expect("registered");
    assert!(
        events.iter().any(|e| e.stage == rb && e.kind.is_flow()),
        "RecoverBlocks must light up: {:?}",
        events
            .iter()
            .map(|e| (e.stage, e.host.0))
            .collect::<Vec<_>>()
    );
    // Survivor takeover flows (never seen in training).
    for name in ["OpenRegionHandler", "SplitLogWorker"] {
        let id = stages.lookup(name).expect("registered");
        assert!(
            events.iter().any(|e| e.stage == id),
            "{name} takeover flows must be flagged"
        );
    }
}

#[test]
fn major_compaction_is_a_false_positive_when_unseen_in_training() {
    let model = trained_model();
    let cfg = HBaseConfig {
        seed: 71,
        major_compaction_at: Some(SimTime::from_mins(3)),
        ..HBaseConfig::default()
    };
    let (events, (out, stages)) = detect(model, DetectorConfig::default(), |sink| {
        let mut cluster = HBaseCluster::new(cfg, sink);
        let out = cluster.run(&ops(72, 6), SimTime::from_mins(6));
        (out, cluster.instrumentation().stages_registry.clone())
    });

    assert!(out.rs_stats.iter().any(|r| r.major_compactions > 0));
    let cr = stages.lookup("CompactionRequest").expect("registered");
    assert!(
        events
            .iter()
            .any(|e| e.stage == cr && matches!(e.kind, AnomalyKind::FlowNew(_))),
        "the legitimate-but-rare major compaction must be (falsely) flagged: {events:?}"
    );
}

#[test]
fn training_with_major_compaction_removes_the_false_positive() {
    // The paper: "our system could have avoided the falsely detected flow
    // anomaly, if the trace used to construct the statistical model had
    // had at least one case of major compaction."
    let sink = Arc::new(ModelSink::new());
    let mut cluster = HBaseCluster::new(
        HBaseConfig {
            seed: 5,
            major_compaction_at: Some(SimTime::from_mins(2)),
            ..HBaseConfig::default()
        },
        sink.clone(),
    );
    let stream = ops(51, 6);
    cluster.run(&stream, SimTime::from_mins(6));
    let model = Arc::new(sink.build(ModelConfig::default()));

    let cfg = HBaseConfig {
        seed: 71,
        major_compaction_at: Some(SimTime::from_mins(3)),
        ..HBaseConfig::default()
    };
    let (events, stages) = detect(model, DetectorConfig::default(), |sink| {
        let mut cluster = HBaseCluster::new(cfg, sink);
        cluster.run(&ops(72, 6), SimTime::from_mins(6));
        cluster.instrumentation().stages_registry.clone()
    });
    let cr = stages.lookup("CompactionRequest").expect("registered");
    assert!(
        !events
            .iter()
            .any(|e| e.stage == cr && matches!(e.kind, AnomalyKind::FlowNew(_))),
        "a trained-on major compaction must not raise a new-signature alarm"
    );
}
