//! Figure 8 — SAAD's reduction in monitoring-data volume.
//!
//! Paper: DEBUG-level log text vs SAAD task synopses over the same run:
//! HDFS 1,457 MB vs 1.8 MB, HBase 928 MB vs 1.0 MB, Cassandra 1,431 MB vs
//! 136.7 MB — "the volume of task synopses is 15 to 900 times less".
//!
//! We run each simulator once with (a) a DEBUG-level counting appender
//! measuring rendered log bytes and (b) a synopsis-encoding byte counter,
//! and write both to `ledger/fig8`.

use saad_bench::ledger::{self, Panel};
use saad_bench::{scaled_mins, workload, ByteCountingSink};
use saad_cassandra::{Cluster, ClusterConfig};
use saad_hbase::{HBaseCluster, HBaseConfig};
use saad_hdfs::HdfsCluster;
use saad_logging::appender::CountingAppender;
use saad_logging::Level;
use saad_sim::SimTime;
use std::sync::Arc;

struct Volumes {
    log_bytes: u64,
    log_records: u64,
    synopsis_bytes: u64,
    synopses: u64,
}

/// Claim `system`'s volumes beside the paper's `[log MB, synopsis MB,
/// ratio]` (it gives no record or synopsis counts).
fn report(claims: &mut Panel, system: &str, v: &Volumes, paper: [&str; 3]) {
    let ratio = v.log_bytes as f64 / v.synopsis_bytes.max(1) as f64;
    let mb = |bytes: u64, digits: usize| format!("{:.digits$}", bytes as f64 / 1e6);
    claims.claim(system, "log MB", mb(v.log_bytes, 2), paper[0]);
    claims.claim(system, "log records", v.log_records, "-");
    claims.claim(system, "synopsis MB", mb(v.synopsis_bytes, 3), paper[1]);
    claims.claim(system, "synopses", v.synopses, "-");
    claims.claim(system, "ratio", format!("{ratio:.0}x"), paper[2]);
}

fn cassandra(mins: u64) -> Volumes {
    let counter = Arc::new(CountingAppender::new());
    let sink = Arc::new(ByteCountingSink::new());
    let cfg = ClusterConfig {
        log_level: Level::Debug, // conventional mining needs DEBUG text
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::with_appender(cfg, sink.clone(), Some(counter.clone()));
    let mut wl = workload(31, 25.0);
    cluster.run(&mut wl, SimTime::from_mins(mins));
    Volumes {
        log_bytes: counter.bytes(),
        log_records: counter.records(),
        synopsis_bytes: sink.bytes(),
        synopses: sink.count(),
    }
}

fn hbase(mins: u64) -> Volumes {
    let counter = Arc::new(CountingAppender::new());
    let sink = Arc::new(ByteCountingSink::new());
    let cfg = HBaseConfig {
        log_level: Level::Debug,
        ..HBaseConfig::default()
    };
    let mut cluster = HBaseCluster::with_appender(cfg, sink.clone(), Some(counter.clone()));
    let mut wl = workload(33, 20.0);
    let ops = wl.ops_until(SimTime::from_mins(mins));
    cluster.run(&ops, SimTime::from_mins(mins));
    Volumes {
        log_bytes: counter.bytes(),
        log_records: counter.records(),
        synopsis_bytes: sink.bytes(),
        synopses: sink.count(),
    }
}

fn hdfs(mins: u64) -> Volumes {
    let counter = Arc::new(CountingAppender::new());
    let sink = Arc::new(ByteCountingSink::new());
    let mut cluster = HdfsCluster::with_parts(
        4,
        35,
        Level::Debug,
        sink.clone(),
        Some(counter.clone()),
        Arc::new(saad_sim::ManualClock::new()),
        saad_hdfs::HdfsInstrumentation::install(),
        0,
    );
    let mut wl = workload(35, 20.0);
    let horizon = SimTime::from_mins(mins);
    loop {
        let op = wl.next_op();
        if op.at >= horizon {
            break;
        }
        cluster.heartbeats_until(op.at);
        if op.kind.is_write() {
            let replicas: Vec<usize> = (0..3).map(|k| ((op.key as usize) + k) % 4).collect();
            let h = cluster.open_block(op.at, &replicas);
            let mut t = op.at;
            for _ in 0..(2 + op.key % 14) {
                t = cluster.write_packet(h, t, 16 * 1024).acked_at;
            }
            cluster.close_block(h, t);
        } else {
            cluster.read_block(op.at, (op.key as usize) % 4, 64 * 1024);
        }
    }
    Volumes {
        log_bytes: counter.bytes(),
        log_records: counter.records(),
        synopsis_bytes: sink.bytes(),
        synopses: sink.count(),
    }
}

fn main() {
    let mins = scaled_mins(60, 6);
    println!("Figure 8 — monitoring-data volume over {mins} virtual minutes\n");
    let mut claims = Panel::claims(
        "fig8",
        &format!(
            "DEBUG log text vs encoded task synopses of one run, {mins} virtual minutes per system"
        ),
    );
    report(&mut claims, "HDFS", &hdfs(mins), ["1457", "1.8", "809x"]);
    report(&mut claims, "HBase", &hbase(mins), ["928", "1.0", "928x"]);
    report(
        &mut claims,
        "Cassandra",
        &cassandra(mins),
        ["1431", "136.7", "10.5x"],
    );
    ledger::write(
        "fig8",
        "Figure 8: monitoring-data volume, fast scale. cargo bench -p saad-bench --bench fig8_volume",
        &[claims],
    );
}
