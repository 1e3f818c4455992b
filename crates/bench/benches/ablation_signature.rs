//! Ablation — set signatures vs frequency-bucketed (multiset) signatures.
//!
//! The paper defines a signature as the *set* of distinct log points
//! (§3.3.1): "Each log point in the signature indicates that the task has
//! encountered the log point at least once." A natural alternative keeps
//! (bucketed) visit frequencies. This ablation compares the two on model
//! size and detection behaviour: frequency buckets multiply the signature
//! space (loop trip counts differ per task), inflating new-signature false
//! positives, while adding little detection power — supporting the paper's
//! design choice.

use saad_bench::{detect, scaled_mins, workload};
use saad_cassandra::{Cluster, ClusterConfig};
use saad_core::detector::{AnomalyKind, DetectorConfig};
use saad_core::model::{ModelBuilder, ModelConfig};
use saad_core::synopsis::TaskSynopsis;
use saad_core::tracker::VecSink;
use saad_fault::{catalog, FaultSchedule, FaultSpec, FaultType, Intensity};
use saad_logging::LogPointId;
use saad_sim::SimTime;
use std::sync::Arc;

/// Re-encode visit frequencies into the point id space: each point becomes
/// `(id, count-bucket)` so the *set* signature of the transformed synopsis
/// is the multiset signature of the original.
fn bucketize(s: &TaskSynopsis) -> TaskSynopsis {
    let mut t = s.clone();
    t.log_points = s
        .log_points
        .iter()
        .map(|&(p, c)| {
            let bucket = c.min(8) as u16;
            (LogPointId(p.0 * 16 + bucket), c)
        })
        .collect();
    t
}

fn run(mins: u64, seed: u64, fault: bool) -> Vec<TaskSynopsis> {
    let sink = Arc::new(VecSink::new());
    let mut cluster = Cluster::new(
        ClusterConfig {
            seed,
            ..ClusterConfig::default()
        },
        sink.clone(),
    );
    if fault {
        cluster.attach_fault(
            3,
            FaultSchedule::new(seed).with_window(
                SimTime::from_mins(mins / 2),
                SimTime::from_mins(mins),
                FaultSpec::new(catalog::WAL, FaultType::Error, Intensity::High),
            ),
        );
    }
    let mut wl = workload(seed, 25.0);
    cluster.run(&mut wl, SimTime::from_mins(mins));
    sink.drain()
}

fn evaluate(name: &str, train: &[TaskSynopsis], healthy: &[TaskSynopsis], faulty: &[TaskSynopsis]) {
    let mut b = ModelBuilder::new();
    for s in train {
        b.observe(s);
    }
    let model = Arc::new(b.build(ModelConfig::default()));
    let signatures: usize = model.stages().map(|(_, st)| st.signatures.len()).sum();

    let fp = detect(model.clone(), DetectorConfig::default(), |sink| {
        healthy.iter().for_each(|s| sink.submit(s.clone()))
    })
    .0;
    let tp = detect(model, DetectorConfig::default(), |sink| {
        faulty.iter().for_each(|s| sink.submit(s.clone()))
    })
    .0;
    let fp_new = fp
        .iter()
        .filter(|e| matches!(e.kind, AnomalyKind::FlowNew(_)))
        .count();
    let tp_flow = tp.iter().filter(|e| e.kind.is_flow()).count();
    println!(
        "{name:<22} {signatures:>10} {:>14} {:>17}",
        fp.len(),
        tp_flow
    );
    println!("{:<22} {fp_new:>25} new-signature false positives", "");
}

fn main() {
    let mins = scaled_mins(60, 8);
    println!("Ablation — signature definition (set vs frequency-bucketed)\n");
    let train = run(mins, 5, false);
    let healthy = run(mins, 6, false);
    let faulty = run(mins, 7, true);
    println!(
        "{:<22} {:>10} {:>14} {:>10}",
        "variant", "signatures", "healthy events", "fault flow events"
    );
    evaluate("set (paper)", &train, &healthy, &faulty);
    let train_b: Vec<_> = train.iter().map(bucketize).collect();
    let healthy_b: Vec<_> = healthy.iter().map(bucketize).collect();
    let faulty_b: Vec<_> = faulty.iter().map(bucketize).collect();
    evaluate("frequency-bucketed", &train_b, &healthy_b, &faulty_b);
    println!("\nexpected shape: bucketed variant has more signatures and more healthy-run");
    println!("events (false alarms) while fault detection stays comparable.");
}
