//! Observability overhead — instrumented vs uninstrumented hot path.
//!
//! The `saad-obs` registry claims its primitives are cheap enough to leave
//! enabled in production: a counter increment or histogram record is a
//! couple of relaxed atomic RMWs, and nothing on the hot path allocates
//! after registration. This bench backs the claim two ways and writes
//! `BENCH_obs_overhead.json`:
//!
//! * raw primitive cost — ns/op for `Counter::inc` and
//!   `Histogram::record`, the median [q1, q3] of `saad_bench::timed_ns`
//!   rounds;
//! * end-to-end tracker cost — identical task streams driven through a
//!   `TaskExecutionTracker` with and without `TrackerMetrics` attached,
//!   each task doing realistic CPU work, reported as normalized
//!   throughput (instrumented / plain). The gate is <1% overhead.

use saad_bench::{quartile_text, timed_ns};
use saad_core::tracker::{NullSink, SynopsisSink, TaskExecutionTracker, TrackerMetrics};
use saad_core::{HostId, StageId};
use saad_logging::{Interceptor, Level, LogPointId};
use saad_obs::{Counter, Histogram, Registry};
use saad_sim::{Clock, WallClock};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// A little CPU work standing in for real request processing; sized so a
/// task costs a few microseconds, as a short RPC handler would.
fn busy_work(iters: u64) -> u64 {
    let mut acc = 0u64;
    for i in 0..iters {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    acc
}

const WORK_ITERS: u64 = 40_000;

/// Drives `tasks` tracked tasks through the tracker hot path: context
/// setup, two log-point visits, the busy-work payload, synopsis emission.
fn run_tasks(tracker: &TaskExecutionTracker, tasks: u64) -> f64 {
    let mut sink = 0u64;
    let start = Instant::now();
    for i in 0..tasks {
        tracker.set_context(StageId(3));
        tracker.on_log_point(LogPointId(1), Level::Debug);
        // black_box keeps the payload loop from being hoisted out of the
        // task loop — each task must really pay its CPU cost.
        sink = sink.wrapping_add(busy_work(black_box(WORK_ITERS)));
        tracker.on_log_point(LogPointId(2), Level::Debug);
        tracker.end_task();
        black_box(i);
    }
    let elapsed = start.elapsed().as_secs_f64();
    black_box(sink);
    tasks as f64 / elapsed
}

/// Measures plain vs instrumented throughput with the runs interleaved —
/// alternating configurations per round so clock-frequency drift over the
/// bench hits both sides equally instead of biasing whichever ran last.
fn tracker_throughput(tasks: u64) -> (f64, f64) {
    let clock = Arc::new(WallClock::new()) as Arc<dyn Clock>;
    let sink = Arc::new(NullSink::new()) as Arc<dyn SynopsisSink>;
    let plain = TaskExecutionTracker::new(HostId(1), clock.clone(), sink.clone());
    let registry = Registry::new();
    let instrumented = TaskExecutionTracker::with_metrics(
        HostId(1),
        clock,
        sink,
        TrackerMetrics::register(&registry, HostId(1)),
    );
    run_tasks(&plain, tasks / 10); // warm-up
    run_tasks(&instrumented, tasks / 10);
    let mut best_plain = 0.0f64;
    let mut best_instr = 0.0f64;
    for _ in 0..3 {
        best_plain = best_plain.max(run_tasks(&plain, tasks));
        best_instr = best_instr.max(run_tasks(&instrumented, tasks));
    }
    (best_plain, best_instr)
}

fn main() {
    let tasks: u64 = if saad_bench::full_scale() {
        200_000
    } else {
        50_000
    };
    println!("observability overhead ({tasks} tasks per configuration, real threads)\n");

    let counter = Counter::new();
    let counter_q = timed_ns(1, || (), |()| counter.inc());
    let histogram = Histogram::new();
    let mut i = 0u64;
    let histogram_q = timed_ns(
        1,
        || (),
        |()| {
            i += 1;
            histogram.record(i % 100_000)
        },
    );
    println!("primitive cost (ns/op, median [q1, q3] of timed rounds):");
    println!("  Counter::inc       {}", quartile_text(counter_q, 2));
    println!("  Histogram::record  {}", quartile_text(histogram_q, 2));
    let (counter_ns, histogram_ns) = (counter_q[1], histogram_q[1]);

    let (plain, instrumented) = tracker_throughput(tasks);
    let normalized = instrumented / plain;
    println!("\ntracker hot path (set_context + 2 log points + work + end_task):");
    println!(
        "{:<14} {:>14} {:>14} {:>12}",
        "config", "plain op/s", "metrics op/s", "normalized"
    );
    println!(
        "{:<14} {plain:>14.0} {instrumented:>14.0} {normalized:>11.3}",
        "tracker"
    );

    let json = format!(
        "{{\n  \"bench\": \"obs_overhead\",\n  \"tasks\": {tasks},\n  \
         \"work_iters\": {WORK_ITERS},\n  \"counter_inc_ns\": {counter_ns:.2},\n  \
         \"histogram_record_ns\": {histogram_ns:.2},\n  \
         \"plain_tasks_per_sec\": {plain:.0},\n  \
         \"instrumented_tasks_per_sec\": {instrumented:.0},\n  \
         \"normalized_throughput\": {normalized:.4}\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs_overhead.json");
    std::fs::write(path, json).expect("write BENCH_obs_overhead.json");
    println!("\nwrote {path}");

    // The primitives' medians must stay in atomic-RMW territory, and the end-to-end
    // instrumented hot path must cost less than 1% of throughput.
    assert!(
        counter_ns < 50.0,
        "Counter::inc too slow: {counter_ns:.1} ns/op"
    );
    assert!(
        histogram_ns < 100.0,
        "Histogram::record too slow: {histogram_ns:.1} ns/op"
    );
    assert!(
        normalized > 0.99,
        "instrumented tracker overhead above 1%: normalized {normalized:.4}"
    );
    println!("=> instrumented hot path within 1% of uninstrumented throughput");
}
