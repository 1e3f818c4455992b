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
//! Each SAAD configuration's normalized throughput is printed as a claim
//! line beside the paper's floor, "not met" when its median is below it,
//! and written with its quartiles to `BENCH_fig7_overhead.json`.

use saad_bench::ledger::Panel;
use saad_bench::{quartile_json, quartile_text, quartiles, DrainingCollector, ROUNDS};
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

/// The lowest normalized throughput the paper's Figure 7 shows with SAAD
/// attached: its "insignificant overhead".
const PAPER_FLOOR: f64 = 0.98;

/// One pipeline's rounds: quartiles of the original server's op/s, and of
/// each SAAD configuration's per-round ratio to it.
struct Overhead {
    system: &'static str,
    original: [f64; 3],
    tracked: [f64; 3],
    streamed: [f64; 3],
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
    println!(
        "Figure 7 — SAAD overhead ({ops} ops per configuration, real threads; \
         median [q1, q3] of {ROUNDS} rounds)\n\
         tracked: tracker attached, synopses dropped; streamed: tracker -> AgentSink -> Agent -> \
         loopback TCP -> reactor collector on this box\n"
    );
    let mut claims = Panel::claims("fig7", "");
    let mut results = Vec::new();
    for spec in &specs {
        // Warm-up pass, then rounds in which the configurations take
        // turns, so that a slow stretch of the machine falls on all three.
        // Normalized throughput is a round's ratio to the original.
        run_pipeline(spec, ops / 10, Saad::Off);
        let rounds: Vec<[f64; 3]> = (0..ROUNDS)
            .map(|_| [Saad::Off, Saad::Tracked, Saad::Streamed].map(|s| run_pipeline(spec, ops, s)))
            .collect();
        let of = |f: fn(&[f64; 3]) -> f64| quartiles(&rounds.iter().map(f).collect::<Vec<_>>());
        let r = Overhead {
            system: spec.name,
            original: of(|r| r[0]),
            tracked: of(|r| r[1] / r[0]),
            streamed: of(|r| r[2] / r[0]),
        };
        println!(
            "{}: original {:.0} op/s [{:.0}, {:.0}]",
            r.system, r.original[1], r.original[0], r.original[2]
        );
        for (quantity, q) in [
            ("tracked, normalized throughput", r.tracked),
            ("streamed, normalized throughput", r.streamed),
        ] {
            let met = if q[1] >= PAPER_FLOOR { "" } else { " not met" };
            let measured = format!("{}{met}", quartile_text(q, 3));
            claims.claim(r.system, quantity, measured, &format!(">= {PAPER_FLOOR}"));
        }
        results.push(r);
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_fig7_overhead.json"
    );
    std::fs::write(path, render_json(ops, &results)).expect("write BENCH_fig7_overhead.json");
    println!("wrote BENCH_fig7_overhead.json");
}

fn render_json(ops: u64, results: &[Overhead]) -> String {
    let mut out = format!(
        "{{\n  \"bench\": \"fig7_overhead\",\n  \"ops_per_run\": {ops},\n  \
         \"rounds\": {ROUNDS},\n  \"paper_floor\": {PAPER_FLOOR},\n  \"systems\": [\n"
    );
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{ \"system\": \"{}\", {}, {}, \"tracked_met\": {}, {}, \"streamed_met\": {} }}{sep}\n",
            r.system,
            quartile_json("original_ops_per_sec", r.original, 0),
            quartile_json("tracked_normalized", r.tracked, 3),
            r.tracked[1] >= PAPER_FLOOR,
            quartile_json("streamed_normalized", r.streamed, 3),
            r.streamed[1] >= PAPER_FLOOR,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
