//! Gray-failure detection-latency harness.
//!
//! Trains an outlier model on healthy staged-relay traffic, replays each
//! scenario of the gray-failure catalog (slow-upstream, correlated-hog,
//! asymmetric-partition, retry-storm, slow-dns, escaper-flap),
//! reconciles the detector's anomaly
//! events against each scenario's ground-truth oracle (faulty stage +
//! host set), and writes per-scenario detection latency, precision, and
//! recall to `BENCH_gray_failure.json`. No scenario is skipped: the
//! catalog length is asserted, and an undetected scenario shows up as a
//! `null` latency in the JSON and fails the final assertion here. Every
//! replay's events, and those of a healthy control, go to `ledger/gray`.

use saad_bench::gray::{render_gray_json, run_gray_catalog, run_healthy_control};
use saad_bench::{ledger, scaled_mins};

fn main() {
    let train_mins = scaled_mins(30, 6);
    let replay_mins = scaled_mins(30, 10);
    println!(
        "gray-failure catalog: train {train_mins} min healthy relay, replay {replay_mins} min per scenario\n"
    );
    println!(
        " {:<22} {:<12} {:>8} {:>10} {:>10} {:>10} {:>8} {:>8}",
        "scenario", "stage", "hosts", "latency_s", "precision", "tolerant", "recall", "events"
    );

    let results = run_gray_catalog(42, train_mins, replay_mins);
    assert_eq!(results.len(), 6, "all six catalog scenarios must run");

    for r in &results {
        let latency = r
            .detection_latency_s
            .map(|s| format!("{s:.0}"))
            .unwrap_or_else(|| "MISSED".to_owned());
        let hosts = r
            .detected_hosts
            .iter()
            .map(|h| h.to_string())
            .collect::<Vec<_>>()
            .join(",");
        println!(
            " {:<22} {:<12} {:>8} {:>10} {:>10.3} {:>10.3} {:>8.2} {:>8}",
            r.name,
            r.stage,
            hosts,
            latency,
            r.precision,
            r.precision_tolerant,
            r.recall,
            r.matching_events
        );
    }

    let json = render_gray_json(&results);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gray_failure.json");
    std::fs::write(path, json).expect("write BENCH_gray_failure.json");
    println!("\nwrote {path}");
    let control = run_healthy_control(42, train_mins, replay_mins);
    let mut panels: Vec<_> = results.iter().map(|r| r.ledger.clone()).collect();
    panels.push(control.ledger);
    ledger::write(
        "gray",
        "Gray-failure catalog and its healthy control, fast scale. cargo bench -p saad-bench --bench gray_failure",
        &panels,
    );

    for r in &results {
        assert!(
            r.detection_latency_s.is_some(),
            "scenario {} went undetected",
            r.name
        );
        assert!(
            r.exact_localization(),
            "scenario {}: detected hosts {:?} != oracle {:?} on stage {}",
            r.name,
            r.detected_hosts,
            r.oracle_hosts,
            r.stage
        );
        assert_eq!(r.recall, 1.0, "scenario {} missed an oracle host", r.name);
    }
}
