//! Figure 10 — Anomalies per stage in HBase Regionservers and HDFS Data
//! Nodes under the Table 2 disk-hog schedule.
//!
//! One 3-hour run (scaled in fast mode) with:
//!
//! * the Table 2 hog windows (low 8–16 ×1, medium 28–44 ×2, high-1 56–64
//!   ×4, high-2 116–130 ×4);
//! * the YCSB 0.1.4 put-batching misconfiguration (client-side batches
//!   delaying writes ~9 minutes — why high-intensity fault 2 shows few
//!   log-sync anomalies);
//! * a major compaction near minute 150 (the paper's false positive);
//! * the premature-recovery-termination bug, which crashes a Regionserver
//!   during high-intensity fault 1 and floods survivors with
//!   region-takeover flows.

use saad_bench::ledger::{self, AnomalyClass, Panel};
use saad_bench::{detect, minute_windows, Timeline};
use saad_core::detector::DetectorConfig;
use saad_core::model::ModelConfig;
use saad_core::pipeline::ModelSink;
use saad_fault::HogSchedule;
use saad_hbase::{HBaseCluster, HBaseConfig};
use saad_sim::{SimDuration, SimTime};
use saad_workload::{Batching, KeyChooser, OperationMix, WorkloadGenerator};
use std::sync::Arc;

struct Scale {
    total: u64,
    div: u64,
    batch_interval: SimDuration,
}

fn scale() -> Scale {
    if saad_bench::full_scale() {
        Scale {
            total: 180,
            div: 1,
            batch_interval: SimDuration::from_mins(9),
        }
    } else {
        Scale {
            total: 60,
            div: 3,
            batch_interval: SimDuration::from_mins(1),
        }
    }
}

fn hog(div: u64) -> HogSchedule {
    HogSchedule::new()
        .with_factors(1.2, 0.25)
        .with_window(SimTime::from_mins(8 / div), SimTime::from_mins(16 / div), 1)
        .with_window(
            SimTime::from_mins(28 / div),
            SimTime::from_mins(44 / div),
            2,
        )
        .with_window(
            SimTime::from_mins(56 / div),
            SimTime::from_mins(64 / div),
            4,
        )
        .with_window(
            SimTime::from_mins(116 / div),
            SimTime::from_mins(130 / div),
            4,
        )
}

fn ops(
    seed: u64,
    mins: u64,
    rate: f64,
    batching: Option<Batching>,
) -> Vec<saad_workload::Operation> {
    let mut wl = WorkloadGenerator::new(
        OperationMix::write_heavy(),
        KeyChooser::zipfian(10_000),
        rate,
        seed,
    );
    let raw = wl.ops_until(SimTime::from_mins(mins));
    match batching {
        Some(b) => {
            let (out, lag) = b.apply(&raw);
            println!(
                "put-batching misconfiguration active: mean write lag {:.1} min",
                lag.as_secs_f64() / 60.0
            );
            out
        }
        None => raw,
    }
}

fn main() {
    let s = scale();
    let rate = 18.0;
    println!(
        "Figure 10 — HBase/HDFS disk-hog run ({} virtual minutes; Table 2 schedule /{})\n",
        s.total, s.div
    );
    println!(
        "Table 2 (scaled): low {}-{} x1, medium {}-{} x2, high-1 {}-{} x4, high-2 {}-{} x4",
        8 / s.div,
        16 / s.div,
        28 / s.div,
        44 / s.div,
        56 / s.div,
        64 / s.div,
        116 / s.div,
        130 / s.div
    );

    // Train on a fault-free, batching-free run.
    let train_mins = if saad_bench::full_scale() { 60 } else { 8 };
    let trainer = Arc::new(ModelSink::new());
    let mut train_cluster = HBaseCluster::new(
        HBaseConfig {
            seed: 7,
            ..HBaseConfig::default()
        },
        trainer.clone(),
    );
    let train_ops = ops(71, train_mins, rate, None);
    train_cluster.run(&train_ops, SimTime::from_mins(train_mins));
    let model = Arc::new(trainer.build(ModelConfig::default()));
    println!(
        "trained on {} synopses, {} stages\n",
        trainer.observed(),
        model.stage_count()
    );

    // The experiment run.
    let cfg = HBaseConfig {
        seed: 42,
        hog: hog(s.div),
        major_compaction_at: Some(SimTime::from_mins(150 / s.div)),
        recovery_latency_threshold: SimDuration::from_millis(250),
        recovery_retry_interval: SimDuration::from_secs(2),
        max_recovery_retries: 8,
        ..HBaseConfig::default()
    };
    let config = DetectorConfig {
        window: minute_windows(),
        ..DetectorConfig::default()
    };
    let (events, (out, stages)) = detect(model, config, |sink| {
        let mut cluster = HBaseCluster::new(cfg, sink);
        let stream = ops(
            42,
            s.total,
            rate,
            Some(Batching::new(100_000, s.batch_interval)),
        );
        let out = cluster.run(&stream, SimTime::from_mins(s.total));
        (out, cluster.instrumentation().stages_registry.clone())
    });

    // Regionserver panel: hosts 1..=4.
    let mut rs_tl = Timeline::new(s.total as usize);
    rs_tl.add_events(&events, &stages, |h| (h.0 <= 100).then(|| h.0.to_string()));
    rs_tl.add_errors(&out.errors, "ErrorLog", |h| Some(h.0.to_string()));
    println!("--- Figure 10(a): HBase Regionservers ---");
    println!("{}", rs_tl.render(Some(&out.throughput.ops_per_sec())));

    // Data Node panel: hosts 101..=104 (DN processes).
    let mut dn_tl = Timeline::new(s.total as usize);
    dn_tl.add_events(&events, &stages, |h| {
        (h.0 > 100).then(|| (h.0 - 100).to_string())
    });
    println!("--- Figure 10(b): HDFS Data Nodes ---");
    println!("{}", dn_tl.render(None));

    let crashed: Vec<usize> = (0..out.crashed.len()).filter(|&i| out.crashed[i]).collect();
    println!(
        "regionservers crashed: {crashed:?} (paper: Regionserver 3 during high-intensity fault 1)"
    );
    let recov: u64 = out.rs_stats.iter().map(|r| r.recovery_attempts).sum();
    let already: u64 = out.dn_stats.iter().map(|d| d.already_in_recovery).sum();
    println!("recovery-bug cycle: {recov} requests, {already} answered 'already in recovery'");
    let majors: u64 = out.rs_stats.iter().map(|r| r.major_compactions).sum();
    println!("major compactions near minute {}: {majors} (training never saw one => false-positive flows)", 150 / s.div);
    println!(
        "ops completed {}, dropped {}",
        out.ops_completed, out.ops_dropped
    );

    let about = |tier: &str| {
        format!(
            "{tier} under the Table 2 disk-hog schedule /{} over {} min",
            s.div, s.total
        )
    };
    let (rs, dn): (Vec<_>, Vec<_>) = events.into_iter().partition(|e| e.host.0 <= 100);
    let mut rs_panel = Panel::new(
        "a-regionservers",
        AnomalyClass::Contextual,
        &about("HBase Regionservers (hosts 1-4)"),
    );
    rs_panel.record(0, &rs, &stages);
    let mut dn_panel = Panel::new(
        "b-datanodes",
        AnomalyClass::Contextual,
        &about("HDFS Data Nodes (hosts 101-104)"),
    );
    dn_panel.record(0, &dn, &stages);
    ledger::write(
        "fig10",
        "Figure 10: HBase/HDFS disk hog, fast scale. cargo bench -p saad-bench --bench fig10_hbase_hdfs",
        &[rs_panel, dn_panel],
    );
}
