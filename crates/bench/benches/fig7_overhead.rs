//! Figure 7 — SAAD runtime overhead.
//!
//! Paper: "Normalized average throughput of HBase and Cassandra with SAAD
//! is compared to their original versions (without SAAD). ... SAAD imposes
//! insignificant overhead."
//!
//! This is the one experiment that must run on *real threads and real
//! time*: we build a staged write-path server with the `saad-stage`
//! runtime — an HBase-like pipeline (call → wal → apply) and a
//! Cassandra-like pipeline (proxy → table → commitlog) — drive identical
//! op counts through it in three configurations (INFO-level logging in
//! all, as in production) and report normalized throughput: the original
//! server; the tracker attached, synopses counted and dropped; and the
//! tracker streaming its synopses off the host as the paper describes —
//! `AgentSink` → `Agent` → loopback TCP → a draining reactor collector,
//! whose threads run on this same box and so count against the server.

use saad_bench::DrainingCollector;
use saad_core::tracker::{NullSink, SynopsisSink, TaskExecutionTracker};
use saad_core::HostId;
use saad_logging::{Level, LogPointRegistry};
use saad_net::{Agent, AgentConfig};
use saad_sim::{Clock, WallClock};
use saad_stage::{StageContext, StagedServer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A little CPU work standing in for real request processing.
fn busy_work(iters: u64) -> u64 {
    let mut acc = 0u64;
    for i in 0..iters {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    acc
}

struct PipelineSpec {
    name: &'static str,
    stages: &'static [&'static str],
    log_points_per_task: usize,
}

fn forward(
    server: &Arc<StagedServer>,
    chain: &[&'static str],
    op: u64,
    done: Arc<AtomicU64>,
    sink: Arc<AtomicU64>,
    points: Arc<Vec<saad_logging::LogPointId>>,
    n_points: usize,
) {
    let Some((&next, rest)) = chain.split_first() else {
        done.fetch_add(1, Ordering::Relaxed);
        return;
    };
    let rest: Vec<&'static str> = rest.to_vec();
    let server2 = server.clone();
    let _ = server.submit(next, move |ctx: &StageContext| {
        for p in points.iter().take(n_points) {
            ctx.logger
                .debug(*p, format_args!("processing step of {op}"));
        }
        sink.fetch_add(busy_work(40_000), Ordering::Relaxed);
        forward(
            &server2,
            &rest,
            op,
            done,
            sink.clone(),
            points.clone(),
            n_points,
        );
    });
}

/// How much of SAAD a run has attached.
#[derive(Clone, Copy, PartialEq)]
enum Saad {
    /// The original server.
    Off,
    /// Tracker attached; synopses counted and dropped.
    Tracked,
    /// Tracker attached; synopses streamed to a collector over TCP.
    Streamed,
}

fn run_pipeline(spec: &PipelineSpec, ops: u64, saad: Saad) -> f64 {
    let registry = Arc::new(LogPointRegistry::new());
    let points: Arc<Vec<_>> = Arc::new(
        (0..8)
            .map(|i| {
                registry.register(
                    format!("processing step {i} of {{}}"),
                    Level::Debug,
                    "srv.rs",
                    i,
                )
            })
            .collect(),
    );
    let wire = (saad == Saad::Streamed).then(|| {
        let collector = DrainingCollector::spawn();
        let agent = Agent::connect(collector.addr(), HostId(1), AgentConfig::default());
        let sink = Arc::new(agent.sink(48));
        (collector, agent, sink)
    });
    let tracker = (saad != Saad::Off).then(|| {
        let sink: Arc<dyn SynopsisSink> = match &wire {
            Some((_, _, sink)) => sink.clone(),
            None => Arc::new(NullSink::new()),
        };
        Arc::new(TaskExecutionTracker::new(
            HostId(1),
            Arc::new(WallClock::new()) as Arc<dyn Clock>,
            sink,
        ))
    });
    let mut builder = StagedServer::builder();
    if let Some(t) = &tracker {
        builder = builder.tracker(t.clone());
    }
    for s in spec.stages {
        builder = builder.stage(*s, 2, 1024);
    }
    let server = Arc::new(builder.build());
    let done = Arc::new(AtomicU64::new(0));
    let sink = Arc::new(AtomicU64::new(0));
    let n_points = spec.log_points_per_task;

    let start = Instant::now();
    for op in 0..ops {
        let server2 = server.clone();
        let done2 = done.clone();
        let sink2 = sink.clone();
        let points2 = points.clone();
        let chain: Vec<&'static str> = spec.stages[1..].to_vec();
        server
            .submit(spec.stages[0], move |ctx: &StageContext| {
                for p in points2.iter().take(n_points) {
                    ctx.logger
                        .debug(*p, format_args!("processing step of {op}"));
                }
                sink2.fetch_add(busy_work(40_000), Ordering::Relaxed);
                forward(
                    &server2,
                    &chain,
                    op,
                    done2,
                    sink2.clone(),
                    points2.clone(),
                    n_points,
                );
            })
            .expect("submit");
    }
    while done.load(Ordering::Relaxed) < ops {
        std::thread::yield_now();
    }
    let elapsed = start.elapsed().as_secs_f64();
    if let Ok(s) = Arc::try_unwrap(server) {
        s.shutdown();
    }
    if let (Some((collector, agent, sink)), Some(tracker)) = (wire, tracker) {
        // Outside the timed span: check that the stream was real — every
        // task of every stage arrived. (The last tasks end a moment after
        // their closures counted the op done.)
        let tasks = ops * spec.stages.len() as u64;
        while tracker.completed() < tasks {
            std::thread::yield_now();
        }
        sink.flush();
        assert_eq!(agent.close().synopses_written, tasks);
        assert_eq!(collector.finish(), tasks);
    }
    ops as f64 / elapsed
}

fn main() {
    let ops: u64 = if saad_bench::full_scale() {
        120_000
    } else {
        30_000
    };
    let specs = [
        PipelineSpec {
            name: "HBase",
            stages: &["call", "wal", "apply"],
            log_points_per_task: 4,
        },
        PipelineSpec {
            name: "Cassandra",
            stages: &["proxy", "table", "commitlog"],
            log_points_per_task: 5,
        },
    ];
    println!("Figure 7 — SAAD overhead ({ops} ops per configuration, real threads)\n");
    println!(
        "{:<10} {:>12} {:>12} {:>11} {:>14} {:>11}",
        "system", "orig op/s", "saad op/s", "normalized", "streamed op/s", "normalized"
    );
    for spec in &specs {
        // Warm-up pass, then five rounds in which the configurations take
        // turns, so that a slow stretch of the machine falls on all three.
        // Throughput is the median of a configuration's runs; normalized
        // throughput the median of its per-round ratios to the original.
        run_pipeline(spec, ops / 10, Saad::Off);
        let rounds: Vec<[f64; 3]> = (0..5)
            .map(|_| [Saad::Off, Saad::Tracked, Saad::Streamed].map(|s| run_pipeline(spec, ops, s)))
            .collect();
        let median = |of: fn(&[f64; 3]) -> f64| {
            let mut v: Vec<f64> = rounds.iter().map(of).collect();
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        println!(
            "{:<10} {:>12.0} {:>12.0} {:>11.3} {:>14.0} {:>11.3}",
            spec.name,
            median(|r| r[0]),
            median(|r| r[1]),
            median(|r| r[1] / r[0]),
            median(|r| r[2]),
            median(|r| r[2] / r[0]),
        );
    }
    println!(
        "\nsaad: tracker attached, synopses dropped; streamed: tracker -> AgentSink -> Agent -> \
         loopback TCP -> reactor collector on this box\n\
         paper reference: normalized throughput with SAAD ~1.0 (insignificant overhead)"
    );
}
