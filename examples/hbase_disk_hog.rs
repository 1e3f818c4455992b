//! The paper's §5.5 experiment in miniature: a disk hog on every host of
//! an HBase-on-HDFS deployment, escalating until the premature-recovery
//! bug crashes a Regionserver and the survivors take over its regions.
//!
//! ```sh
//! cargo run --release --example hbase_disk_hog
//! ```

use saad::core::detector::DetectorConfig;
use saad::core::model::ModelConfig;
use saad::core::pipeline::{DetectorSink, ModelSink};
use saad::fault::HogSchedule;
use saad::hbase::{HBaseCluster, HBaseConfig};
use saad::sim::{SimDuration, SimTime};
use saad::workload::{KeyChooser, OperationMix, WorkloadGenerator};
use std::collections::BTreeMap;
use std::error::Error;
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

fn main() -> Result<(), Box<dyn Error>> {
    // ── Train fault-free ────────────────────────────────────────────────
    println!("training on a fault-free 6-minute run...");
    let trainer = Arc::new(ModelSink::new());
    let mut cluster = HBaseCluster::new(
        HBaseConfig {
            seed: 3,
            ..HBaseConfig::default()
        },
        trainer.clone(),
    );
    let stream = ops(31, 6);
    cluster.run(&stream, SimTime::from_mins(6));
    let model = Arc::new(trainer.build(ModelConfig::default()));
    println!(
        "  {} synopses, {} stages modeled",
        trainer.observed(),
        model.stage_count()
    );

    // ── Hog run: 1 process at min 2, 4 processes from min 5 ────────────
    println!("\nlaunching disk hogs: 1 process minutes 2-4, 4 processes minutes 5-9...");
    let cfg = HBaseConfig {
        seed: 41,
        hog: HogSchedule::new()
            .with_window(SimTime::from_mins(2), SimTime::from_mins(4), 1)
            .with_window(SimTime::from_mins(5), SimTime::from_mins(9), 4),
        recovery_latency_threshold: SimDuration::from_millis(700),
        recovery_retry_interval: SimDuration::from_secs(3),
        max_recovery_retries: 6,
        ..HBaseConfig::default()
    };
    let detector = Arc::new(DetectorSink::new(model, DetectorConfig::default()));
    let mut cluster = HBaseCluster::new(cfg, detector.clone());
    let stream = ops(43, 15);
    let out = cluster.run(&stream, SimTime::from_mins(15));
    let stages = cluster.instrumentation().stages_registry.clone();
    drop(cluster); // release the cluster's sink handles
    let events = Arc::try_unwrap(detector).expect("sole owner").finish();

    // ── Summarize per stage(host), paper style ──────────────────────────
    let mut per_row: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for e in &events {
        let name = stages.name(e.stage).unwrap_or_default();
        let host = if e.host.0 > 100 {
            format!("DN{}", e.host.0 - 100)
        } else {
            format!("RS{}", e.host.0)
        };
        let entry = per_row.entry(format!("{name}({host})")).or_default();
        if e.kind.is_flow() {
            entry.0 += 1;
        } else {
            entry.1 += 1;
        }
    }
    println!("\nanomaly windows per stage(host) — flow/perf:");
    for (row, (f, p)) in &per_row {
        println!("  {row:<34} {f:>3} flow  {p:>3} perf");
    }

    let crashed: Vec<usize> = (0..out.crashed.len()).filter(|&i| out.crashed[i]).collect();
    let attempts: u64 = out.rs_stats.iter().map(|r| r.recovery_attempts).sum();
    let already: u64 = out.dn_stats.iter().map(|d| d.already_in_recovery).sum();
    println!(
        "\nrecovery-bug cycle: {attempts} requests, {already} 'already in recovery' responses"
    );
    println!("crashed regionservers: {crashed:?}");
    println!("errors logged: {}", out.errors.len());
    assert!(
        !crashed.is_empty(),
        "the severe hog must trip the recovery bug"
    );
    assert!(
        per_row.keys().any(|k| k.starts_with("RecoverBlocks")),
        "the bug must surface as RecoverBlocks anomalies on the Data Node side"
    );
    println!("\n=> the hog slowed WAL syncs, the DFS client entered the buggy recovery");
    println!("   retry cycle, a Regionserver aborted, and survivors ran OpenRegionHandler/");
    println!("   SplitLogWorker takeovers — all visible as stage anomalies, as in Fig 10.");
    Ok(())
}
