//! Ablation — k-fold validation of duration thresholds, on vs off.
//!
//! The paper (§3.3.2) discards signatures whose duration distribution
//! cannot support a stable percentile threshold, using k-fold
//! cross-validation. With the validation disabled, every signature keeps
//! a threshold — including ones whose held-out outlier rate is far above
//! nominal — inflating performance false positives on a healthy run.

use saad_bench::{detect_batch, scaled_mins, workload};
use saad_cassandra::{Cluster, ClusterConfig};
use saad_core::detector::DetectorConfig;
use saad_core::model::{ModelBuilder, ModelConfig};
use saad_core::synopsis::TaskSynopsis;
use saad_core::tracker::VecSink;
use saad_core::{HostId, StageId, TaskUid};
use saad_logging::LogPointId;
use saad_sim::{SimDuration, SimTime};
use std::sync::Arc;

fn run(mins: u64, seed: u64) -> Vec<TaskSynopsis> {
    let sink = Arc::new(VecSink::new());
    let mut cluster = Cluster::new(
        ClusterConfig {
            seed,
            ..ClusterConfig::default()
        },
        sink.clone(),
    );
    let mut wl = workload(seed, 25.0);
    cluster.run(&mut wl, SimTime::from_mins(mins));
    sink.drain()
}

/// A stage whose duration distribution cannot support a stable percentile
/// threshold: a sparse, wildly spread sample (the paper's §3.3.2 case).
fn unstable_stage(n: u64, seed: u64, start_offset_ms: u64, horizon_mins: u64) -> Vec<TaskSynopsis> {
    (0..n)
        .map(|i| {
            // Multiplicative-hash pseudo-noise with a huge dynamic range.
            let h = (i.wrapping_add(seed)).wrapping_mul(0x9E3779B97F4A7C15);
            let dur_us = 1_000 + (h % 1_000_000) * (1 + (h >> 32) % 50);
            TaskSynopsis {
                host: HostId(1),
                stage: StageId(200),
                uid: TaskUid(1_000_000 + i),
                start: SimTime::from_millis(start_offset_ms)
                    + SimDuration::from_micros(
                        i * SimDuration::from_mins(horizon_mins).as_micros() / n.max(1),
                    ),
                duration: SimDuration::from_micros(dur_us),
                log_points: vec![(LogPointId(900), 1)],
            }
        })
        .collect()
}

fn main() {
    let mins = scaled_mins(60, 8);
    println!("Ablation — k-fold threshold validation ({mins}-min runs)\n");
    // Deliberately sparse training (a quarter of the observation run):
    // sparse signature groups are exactly where threshold stability fails.
    let mut train = run((mins / 4).max(2), 25);
    let mut healthy = run(mins, 26);
    // Add a controlled stage with an unstable duration distribution — the
    // exact case the paper's k-fold pass exists to discard.
    train.extend(unstable_stage(80, 1, 0, (mins / 4).max(2)));
    healthy.extend(unstable_stage(600, 999, 0, mins));
    healthy.sort_by_key(|s| s.start);

    println!(
        "{:<26} {:>18} {:>22}",
        "variant", "perf-eligible sigs", "healthy perf events"
    );
    // "Off" is the largest finite tolerance: no held-out rate exceeds it,
    // and `ModelConfig::validate` refuses an infinite one.
    for (name, tolerance, min_samples) in [
        ("k-fold on (paper)", 3.0, 50usize),
        ("k-fold off", f64::MAX, 50),
        ("k-fold off, min=10", f64::MAX, 10),
    ] {
        let mut b = ModelBuilder::new();
        for s in &train {
            b.observe(s);
        }
        let model = Arc::new(b.build(ModelConfig {
            kfold_tolerance: tolerance,
            min_signature_samples: min_samples,
            ..ModelConfig::default()
        }));
        let eligible: usize = model
            .stages()
            .map(|(_, st)| {
                st.signatures
                    .values()
                    .filter(|s| s.duration_threshold_us.is_some())
                    .count()
            })
            .sum();
        let fp = detect_batch(model, DetectorConfig::default(), &healthy);
        println!(
            "{name:<26} {eligible:>18} {:>22}",
            fp.iter().filter(|e| e.kind.is_performance()).count()
        );
    }
    println!("\nobserved: with >=50 training samples per signature and empirical");
    println!("per-signature baseline rates, percentile thresholds are already stable —");
    println!("k-fold's discard matters mainly for the sparse groups a lower");
    println!("min-samples bound admits (compare the eligible-signature counts).");
    println!("The paper's R analyzer used fixed nominal rates, where instability");
    println!("translated directly into false positives.");
}
