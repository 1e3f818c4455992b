//! Quickstart: SAAD end to end in one file.
//!
//! Walks the paper's motivating example (the HDFS `DataXceiver` stage,
//! Figures 3 and 4): instrument log points, track tasks, train an outlier
//! model from a healthy population, then detect a burst of anomalous
//! premature-termination flows and slow tasks.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use saad::core::batch::SynopsisBatch;
use saad::core::detector::{AnomalyDetector, DetectorConfig};
use saad::core::model::{ModelBuilder, ModelConfig, VerdictMask};
use saad::core::report::AnomalyReport;
use saad::core::tracker::{TaskExecutionTracker, VecSink};
use saad::core::{HostId, StageRegistry};
use saad::logging::{Level, LogPointRegistry, Logger};
use saad::sim::{Clock, ManualClock, SimDuration, SimTime};
use std::error::Error;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn Error>> {
    // ── 1. Instrumentation pass ─────────────────────────────────────────
    // Assign ids to every log statement (the paper's Ruby script; see the
    // saad-instrument crate for the automated version) and register the
    // stage delimiter.
    let points = Arc::new(LogPointRegistry::new());
    let l1 = points.register(
        "Receiving block blk_{}",
        Level::Info,
        "DataXceiver.java",
        221,
    );
    let l2 = points.register(
        "Receiving one packet for blk_{}",
        Level::Debug,
        "DataXceiver.java",
        260,
    );
    let l3 = points.register(
        "Receiving empty packet for blk_{}",
        Level::Debug,
        "DataXceiver.java",
        268,
    );
    let l4 = points.register(
        "WriteTo blockfile of size {}",
        Level::Debug,
        "DataXceiver.java",
        281,
    );
    let l5 = points.register("Closing down.", Level::Info, "DataXceiver.java", 310);
    let stages = Arc::new(StageRegistry::new());
    let dx = stages.register("DataXceiver");

    // ── 2. Wire the tracker between the server and its logger ──────────
    let clock = Arc::new(ManualClock::new());
    let sink = Arc::new(VecSink::new());
    let tracker = Arc::new(TaskExecutionTracker::new(
        HostId(1),
        clock.clone() as Arc<dyn Clock>,
        sink.clone(),
    ));
    // Production verbosity: INFO. The tracker still sees the DEBUG points.
    let logger = Logger::builder("DataXceiver")
        .level(Level::Info)
        .interceptor(tracker.clone())
        .registry(points.clone())
        .build();

    // One simulated DataXceiver task: the Figure 3 control flow.
    let run_task = |start_ms: u64, packets: u32, empty: bool, slow: bool, cut_short: bool| {
        let mut now = SimTime::from_millis(start_ms);
        clock.set(now);
        tracker.set_context(dx);
        logger.info(l1, format_args!("Receiving block blk_{start_ms}"));
        let per_packet = if slow { 2_000 } else { 1_000 };
        for p in 0..packets {
            now += SimDuration::from_micros(per_packet);
            clock.set(now);
            logger.debug(l2, format_args!("Receiving one packet for blk_{start_ms}"));
            if empty && p == 0 {
                logger.debug(
                    l3,
                    format_args!("Receiving empty packet for blk_{start_ms}"),
                );
                continue;
            }
            if cut_short {
                // Fault: the task dies mid-block — never writes, never
                // closes down.
                tracker.end_task();
                return;
            }
            logger.debug(l4, format_args!("WriteTo blockfile of size 65536"));
        }
        now += SimDuration::from_micros(per_packet);
        clock.set(now);
        logger.info(l5, format_args!("Closing down."));
        tracker.end_task();
    };

    // ── 3. Healthy population (Figure 4): 99% normal 10 ms tasks, ~0.9%
    //       slow 20 ms tasks, 0.1% empty-packet flows ──────────────────
    for i in 0..5_000u64 {
        let empty = i.is_multiple_of(1000);
        let slow = i.is_multiple_of(111);
        run_task(i * 20, 9, empty, slow, false);
    }
    let training = sink.drain();
    println!("training synopses: {}", training.len());

    // ── 4. Train the outlier model ──────────────────────────────────────
    let mut builder = ModelBuilder::new();
    for s in &training {
        builder.observe(s);
    }
    let model = Arc::new(builder.build(ModelConfig::default()));
    let stage_model = model.stage(dx).expect("trained stage");
    println!(
        "trained: {} signatures over {} tasks, flow-outlier rate {:.4}",
        stage_model.signatures.len(),
        stage_model.task_count,
        stage_model.flow_outlier_rate
    );

    // ── 5. Runtime: a window of traffic with an injected fault ─────────
    let mut detector = AnomalyDetector::new(model, DetectorConfig::default());
    for i in 0..600u64 {
        // 10% of tasks terminate prematurely; 15% run 3x slow.
        let cut = i.is_multiple_of(10);
        let slow = i.is_multiple_of(7);
        run_task(200_000 + i * 90, 9, false, slow, cut);
    }
    // The detector takes synopses as a batch interned on its own interner.
    let mut batch = SynopsisBatch::new();
    for s in sink.drain() {
        batch.push_synopsis(&s, detector.interner());
    }
    let mut events = detector.observe_batch(&batch, &mut VerdictMask::new());
    events.extend(detector.flush());

    // ── 6. Report like the paper's visualization tool ───────────────────
    let report = AnomalyReport::new(&stages, &points);
    println!("\ndetected {} anomaly events:", events.len());
    for e in &events {
        print!("{}", report.render(e));
    }
    assert!(
        events.iter().any(|e| e.kind.is_flow()),
        "premature terminations must raise a flow anomaly"
    );
    Ok(())
}
