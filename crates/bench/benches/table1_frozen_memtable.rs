//! Table 1 — Signature of the normal execution flow vs the anomalous
//! frozen-MemTable flow.
//!
//! Paper: the anomalous flow "can only be detected as a rare execution
//! flow" — it contains only the first of the four log statements (the
//! MemTable-is-frozen message), because the injected WAL error leaves a
//! mutation stuck holding the MemTable lock and concurrent tasks terminate
//! prematurely.
//!
//! The ledger (`ledger/table1`) records what the detector says on the same
//! run, the anomalous flow's events among them.

use saad_bench::ledger::{self, AnomalyClass, Panel};
use saad_bench::{detect, scaled_mins, train_cassandra, workload};
use saad_cassandra::{Cluster, ClusterConfig};
use saad_core::detector::DetectorConfig;
use saad_core::intern::SignatureInterner;
use saad_core::model::TaskClass;
use saad_core::report::AnomalyReport;
use saad_core::tracker::VecSink;
use saad_core::Signature;
use saad_fault::{catalog, FaultSchedule, FaultSpec, FaultType, Intensity};
use saad_sim::SimTime;
use std::collections::HashMap;
use std::sync::Arc;

fn main() {
    let train_mins = scaled_mins(120, 6);
    let model = train_cassandra(ClusterConfig::default(), train_mins, 25.0);

    // Run with the high-intensity WAL error fault active.
    let sink = Arc::new(VecSink::new());
    let mut cluster = Cluster::new(ClusterConfig::default(), sink.clone());
    cluster.attach_fault(
        3,
        FaultSchedule::new(7).with_window(
            SimTime::from_mins(1),
            SimTime::from_mins(8),
            FaultSpec::new(catalog::WAL, FaultType::Error, Intensity::High),
        ),
    );
    let mut wl = workload(77, 25.0);
    cluster.run(&mut wl, SimTime::from_mins(8));

    let inst = cluster.instrumentation();
    let table = inst.stages.table;

    // Collect Table-stage signatures and classify them.
    let interner = SignatureInterner::new();
    let compiled = model.compile(&interner);
    let mut by_signature: HashMap<Signature, (u64, TaskClass)> = HashMap::new();
    let synopses = sink.drain();
    for s in &synopses {
        if s.stage != table {
            continue;
        }
        let sig = interner.intern_synopsis(s);
        let class = compiled.classify(s.stage, sig, s.duration.as_micros());
        let e = by_signature.entry(s.signature()).or_insert((0, class));
        e.0 += 1;
    }

    // Normal flow: the most frequent signature classified Normal that
    // contains the frozen point (matching the paper's Table 1 rows).
    // Anomalous flow: the most frequent NewSignature.
    let frozen = inst.points.t_frozen;
    let normal = by_signature
        .iter()
        .filter(|(sig, (_, c))| {
            *c != TaskClass::NewSignature && sig.contains(frozen) && sig.len() >= 4
        })
        .max_by_key(|(_, (n, _))| *n)
        .map(|(sig, _)| sig.clone())
        .expect("trained Table signature with the frozen point");
    let anomalous = by_signature
        .iter()
        .filter(|(_, (_, c))| *c == TaskClass::NewSignature)
        .max_by_key(|(_, (n, _))| *n)
        .map(|(sig, _)| sig.clone())
        .expect("anomalous (never-trained) Table signature");

    println!("Table 1 — normal vs anomalous execution flow in stage Table\n");
    let report = AnomalyReport::new(&inst.stages_registry, &inst.points_registry);
    println!(
        "{}",
        report.render_signature_comparison(&normal, &anomalous)
    );
    println!(
        "normal flow tasks: {}, anomalous flow tasks: {}",
        by_signature[&normal].0, by_signature[&anomalous].0
    );
    assert_eq!(
        anomalous.points(),
        &[frozen],
        "the anomalous flow must be exactly the frozen premature termination"
    );

    // The detector over the run's synopses, in the order the cluster
    // emitted them: what it would have said live.
    let (events, ()) = detect(model, DetectorConfig::default(), |sink| {
        synopses.into_iter().for_each(|s| sink.submit(s))
    });
    let mut panel = Panel::new(
        "wal-error-high",
        AnomalyClass::Collective,
        "error on wal (high intensity) on host 4 from minute 1 to 8",
    );
    panel.record(0, &events, &inst.stages_registry);
    ledger::write(
        "table1",
        "Table 1: the frozen-MemTable run, fast scale. cargo bench -p saad-bench --bench table1_frozen_memtable",
        &[panel],
    );
}
