//! Ablation — outlier percentile and test significance sweep.
//!
//! The paper fixes the flow/duration outlier cutoffs at the 99th
//! percentile and tests at α = 0.001. This ablation sweeps both and
//! reports the trade-off on one healthy run (false alarms) and one
//! faulted run (detections).

use saad_bench::{detect, scaled_mins, workload};
use saad_cassandra::{Cluster, ClusterConfig};
use saad_core::detector::DetectorConfig;
use saad_core::model::{ModelBuilder, ModelConfig};
use saad_core::synopsis::TaskSynopsis;
use saad_core::tracker::VecSink;
use saad_fault::{catalog, FaultSchedule, FaultSpec, FaultType, Intensity};
use saad_sim::SimTime;
use std::sync::Arc;

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
                FaultSpec::new(catalog::WAL, FaultType::standard_delay(), Intensity::High),
            ),
        );
    }
    let mut wl = workload(seed, 25.0);
    cluster.run(&mut wl, SimTime::from_mins(mins));
    sink.drain()
}

fn main() {
    let mins = scaled_mins(60, 8);
    println!("Ablation — percentile / significance sweep ({mins}-min runs)\n");
    let train = run(mins, 15, false);
    let healthy = run(mins, 16, false);
    let faulty = run(mins, 17, true);

    println!(
        "{:>10} {:>8} | {:>14} {:>14} | {:>14} {:>14}",
        "percentile", "alpha", "healthy flow", "healthy perf", "fault flow", "fault perf"
    );
    for &percentile in &[95.0, 99.0, 99.9] {
        let mut b = ModelBuilder::new();
        for s in &train {
            b.observe(s);
        }
        let model = Arc::new(b.build(ModelConfig {
            flow_rank_percentile: percentile,
            duration_percentile: percentile,
            ..ModelConfig::default()
        }));
        for &alpha in &[0.05, 0.01, 0.001] {
            let cfg = DetectorConfig {
                alpha,
                ..DetectorConfig::default()
            };
            let fp = detect(model.clone(), cfg, |sink| {
                healthy.iter().for_each(|s| sink.submit(s.clone()))
            })
            .0;
            let tp = detect(model.clone(), cfg, |sink| {
                faulty.iter().for_each(|s| sink.submit(s.clone()))
            })
            .0;
            println!(
                "{percentile:>10} {alpha:>8} | {:>14} {:>14} | {:>14} {:>14}",
                fp.iter().filter(|e| e.kind.is_flow()).count(),
                fp.iter().filter(|e| e.kind.is_performance()).count(),
                tp.iter().filter(|e| e.kind.is_flow()).count(),
                tp.iter().filter(|e| e.kind.is_performance()).count(),
            );
        }
    }
    println!("\npaper's operating point: percentile 99, alpha 0.001 — low false alarms");
    println!("while the 100%-intensity fault remains clearly visible.");
}
