//! Figure 6 — Distribution of signatures.
//!
//! Paper: "Most of the tasks follow a few execution paths. In HDFS Data
//! Node, 6 out of 29, in HBase, 12 out of 72, and in Cassandra 10 out of
//! 68 signatures account for 95% of all tasks."
//!
//! For each system, a fault-free run is summarized into per-signature task
//! counts; the bench prints the descending frequency distribution (the
//! log-scale series of Fig 6a–c) and writes the 95%-coverage statistic to
//! `ledger/fig6`.

use saad_bench::ledger::{self, Panel};
use saad_bench::{scaled_mins, workload};
use saad_cassandra::{Cluster, ClusterConfig};
use saad_core::model::{ModelBuilder, ModelConfig, OutlierModel};
use saad_core::pipeline::ModelSink;
use saad_core::tracker::VecSink;
use saad_hbase::{HBaseCluster, HBaseConfig};
use saad_hdfs::HdfsCluster;
use saad_logging::Level;
use saad_sim::{SimDuration, SimTime};
use saad_stats::quantile::{cumulative_share, items_covering};
use std::sync::Arc;

fn pooled_counts(model: &OutlierModel) -> Vec<u64> {
    let mut counts: Vec<u64> = model
        .stages()
        .flat_map(|(_, s)| s.signature_counts_desc())
        .collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    counts
}

/// Print `system`'s distribution and claim its head and total
/// signatures beside the paper's `[head, total]`.
fn report(claims: &mut Panel, panel: &str, system: &str, counts: &[u64], paper: [u32; 2]) {
    let total: u64 = counts.iter().sum();
    println!("\n=== Figure 6: {system} ({panel}) ===");
    println!("tasks: {total}");
    let head = items_covering(counts, 0.95);
    claims.claim(
        system,
        "signatures covering 95% of tasks",
        head,
        &paper[0].to_string(),
    );
    claims.claim(system, "signatures", counts.len(), &paper[1].to_string());
    println!(
        "{:>4}  {:>12}  {:>10}  {:>10}",
        "rank", "tasks", "share", "cum"
    );
    let shares = cumulative_share(counts);
    for (i, (&c, &cum)) in counts.iter().zip(shares.iter()).enumerate().take(30) {
        println!(
            "{:>4}  {:>12}  {:>9.5}%  {:>9.3}%",
            i + 1,
            c,
            100.0 * c as f64 / total as f64,
            100.0 * cum
        );
    }
    if counts.len() > 30 {
        println!("  ... {} more signatures in the tail", counts.len() - 30);
    }
}

fn hdfs_model(mins: u64) -> OutlierModel {
    let sink = Arc::new(VecSink::new());
    let mut hdfs = HdfsCluster::new(4, 11, Level::Info, sink.clone());
    let mut wl = workload(21, 20.0);
    let horizon = SimTime::from_mins(mins);
    // Synthetic DFS client traffic: block writes with varying packet
    // counts, reads, and the occasional recovery.
    let mut i = 0u64;
    loop {
        let op = wl.next_op();
        if op.at >= horizon {
            break;
        }
        hdfs.heartbeats_until(op.at);
        if op.kind.is_write() {
            let replicas: Vec<usize> = (0..3).map(|k| ((op.key as usize) + k) % 4).collect();
            let h = hdfs.open_block(op.at, &replicas);
            let packets = 2 + (op.key % 14) as u32;
            let mut t = op.at;
            for _ in 0..packets {
                t = hdfs
                    .write_packet(h, t, 16 * 1024 + op.value_size as u64)
                    .acked_at;
            }
            hdfs.close_block(h, t);
        } else {
            hdfs.read_block(op.at, (op.key as usize) % 4, 64 * 1024);
        }
        i += 1;
        if i.is_multiple_of(701) {
            hdfs.recover_block(
                op.at + SimDuration::from_millis(3),
                (i as usize) % 4,
                8 << 20,
            );
        }
    }
    let mut b = ModelBuilder::new();
    for s in sink.drain() {
        b.observe(&s);
    }
    b.build(ModelConfig::default())
}

fn hbase_model(mins: u64) -> OutlierModel {
    let sink = Arc::new(ModelSink::new());
    let mut cluster = HBaseCluster::new(HBaseConfig::default(), sink.clone());
    let mut wl = workload(23, 20.0);
    let ops = wl.ops_until(SimTime::from_mins(mins));
    cluster.run(&ops, SimTime::from_mins(mins));
    sink.build(ModelConfig::default())
}

fn cassandra_model(mins: u64) -> OutlierModel {
    let sink = Arc::new(ModelSink::new());
    let mut cluster = Cluster::new(ClusterConfig::default(), sink.clone());
    let mut wl = workload(25, 25.0);
    cluster.run(&mut wl, SimTime::from_mins(mins));
    sink.build(ModelConfig::default())
}

fn main() {
    let mins = scaled_mins(120, 8);
    println!("Figure 6 — signature distributions ({mins} virtual minutes per system)");
    let mut claims = Panel::claims(
        "fig6",
        &format!("signatures of a fault-free run, {mins} virtual minutes per system"),
    );
    let hdfs = pooled_counts(&hdfs_model(mins));
    report(&mut claims, "6a", "HDFS Data Node", &hdfs, [6, 29]);
    let hbase = pooled_counts(&hbase_model(mins));
    report(&mut claims, "6b", "HBase Regionserver", &hbase, [12, 72]);
    let cassandra = pooled_counts(&cassandra_model(mins));
    report(&mut claims, "6c", "Cassandra", &cassandra, [10, 68]);
    ledger::write(
        "fig6",
        "Figure 6: distribution of signatures, fast scale. cargo bench -p saad-bench --bench fig6_signatures",
        &[claims],
    );
}
