//! End-to-end: train on a healthy Cassandra cluster, inject the paper's
//! §5.4 faults, and check SAAD pinpoints the stages the paper reports.

use saad::cassandra::{Cluster, ClusterConfig};
use saad::core::detector::{AnomalyEvent, DetectorConfig};
use saad::core::model::ModelConfig;
use saad::core::pipeline::ModelSink;
use saad::core::{HostId, StageRegistry};
use saad::fault::{catalog, FaultSchedule, FaultSpec, FaultType, Intensity};
use saad::sim::SimTime;
use saad::workload::{KeyChooser, OperationMix, WorkloadGenerator};
use saad_bench::detect;
use std::sync::Arc;

fn workload(seed: u64) -> WorkloadGenerator {
    WorkloadGenerator::new(
        OperationMix::write_heavy(),
        KeyChooser::zipfian(10_000),
        25.0,
        seed,
    )
}

fn trained_model(mins: u64) -> Arc<saad::core::model::OutlierModel> {
    let sink = Arc::new(ModelSink::new());
    let mut cluster = Cluster::new(ClusterConfig::default(), sink.clone());
    cluster.run(&mut workload(1), SimTime::from_mins(mins));
    Arc::new(sink.build(ModelConfig::default()))
}

fn detect_with_fault(
    model: Arc<saad::core::model::OutlierModel>,
    fault: FaultSpec,
    mins: u64,
    seed: u64,
) -> (
    Vec<AnomalyEvent>,
    Arc<StageRegistry>,
    saad::cassandra::RunOutput,
) {
    let (events, (stages, out)) = detect(model, DetectorConfig::default(), |sink| {
        let mut cluster = Cluster::new(
            ClusterConfig {
                seed,
                ..ClusterConfig::default()
            },
            sink,
        );
        cluster.attach_fault(
            3,
            FaultSchedule::new(seed).with_window(
                SimTime::from_mins(mins / 3),
                SimTime::from_mins(mins),
                fault,
            ),
        );
        let stages = cluster.instrumentation().stages_registry.clone();
        let out = cluster.run(&mut workload(seed + 1), SimTime::from_mins(mins));
        (stages, out)
    });
    (events, stages, out)
}

#[test]
fn healthy_run_stays_quiet() {
    let model = trained_model(6);
    let (events, out) = detect(model, DetectorConfig::default(), |sink| {
        let cfg = ClusterConfig {
            seed: 77,
            ..ClusterConfig::default()
        };
        Cluster::new(cfg, sink).run(&mut workload(78), SimTime::from_mins(6))
    });
    // A handful of false positives is expected (the paper measures them);
    // a healthy run must not light up like a faulted one.
    assert!(
        events.len() <= 8,
        "too many anomalies on a healthy run: {events:?}"
    );
    assert_eq!(out.errors.len(), 0);
}

#[test]
fn wal_error_fault_pinpoints_table_stage_on_host_4() {
    let model = trained_model(6);
    let (events, stages, out) = detect_with_fault(
        model,
        FaultSpec::new(catalog::WAL, FaultType::Error, Intensity::High),
        9,
        101,
    );
    let table = stages.lookup("Table").expect("Table registered");
    assert!(
        events
            .iter()
            .any(|e| e.stage == table && e.host == HostId(4) && e.kind.is_flow()),
        "must flag flow anomalies in Table(4): {events:?}"
    );
    // The paper's headline: conventional error-log monitoring sees almost
    // nothing before the late crash burst.
    let early_errors = out
        .errors
        .iter()
        .filter(|(t, _)| *t < SimTime::from_mins(6))
        .count();
    assert!(
        early_errors <= 2,
        "the fault must be nearly invisible to error-log monitors early on"
    );
}

#[test]
fn wal_delay_fault_raises_performance_anomalies_on_host_4() {
    let model = trained_model(6);
    let (events, _stages, _out) = detect_with_fault(
        model,
        FaultSpec::new(catalog::WAL, FaultType::standard_delay(), Intensity::High),
        9,
        202,
    );
    let perf_on_4 = events
        .iter()
        .filter(|e| e.host == HostId(4) && e.kind.is_performance())
        .count();
    let perf_elsewhere = events
        .iter()
        .filter(|e| e.host != HostId(4) && e.kind.is_performance())
        .count();
    assert!(perf_on_4 >= 2, "delay fault must slow host 4: {events:?}");
    assert!(
        perf_on_4 > perf_elsewhere,
        "host 4 must dominate: {perf_on_4} vs {perf_elsewhere}"
    );
}

#[test]
fn flush_error_fault_reaches_memtable_and_gc_stages() {
    let model = trained_model(6);
    let (events, stages, _out) = detect_with_fault(
        model,
        FaultSpec::new(catalog::MEMTABLE_FLUSH, FaultType::Error, Intensity::High),
        12,
        303,
    );
    let memtable = stages.lookup("Memtable").expect("registered");
    let gc = stages.lookup("GCInspector").expect("registered");
    assert!(
        events
            .iter()
            .any(|e| e.stage == memtable && e.host == HostId(4)),
        "must flag Memtable(4): {events:?}"
    );
    assert!(
        events.iter().any(|e| e.stage == gc && e.host == HostId(4)),
        "memory pressure must surface in GCInspector(4): {events:?}"
    );
}
