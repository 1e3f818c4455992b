//! Drift ablation: adaptive vs frozen model maintenance.
//!
//! Replays the drift catalog (rollout, new-signature-burst) through an
//! adaptive lifecycle pool and a frozen ablation, prints the per-minute
//! false-positive curves side by side, and writes `BENCH_drift.json`. The
//! final assertions are the acceptance criteria: the adaptive pool
//! re-converges (quiet tail, bounded time-to-readapt) while the frozen one
//! keeps flagging the drifted regime, and the post-swap anomaly probe is
//! still caught. Every run's events go to `ledger/drift`.

use saad_bench::drift::{render_drift_json, run_drift_catalog, DriftKind, DRIFT_MIN, PROBE_MIN};
use saad_bench::ledger;

fn main() {
    println!("drift ablation: drift at minute {DRIFT_MIN}, anomaly probe at minute {PROBE_MIN}\n");

    let results = run_drift_catalog();
    assert_eq!(
        results.len(),
        DriftKind::catalog().len(),
        "every drift scenario must run"
    );

    println!(
        " {:<22} {:<9} {:>6} {:>12} {:>8} {:>8} {:>10} {:>8}",
        "scenario", "mode", "swaps", "readapt_s", "tail_fp", "probe", "precision", "events"
    );
    for r in &results {
        for (mode, out) in [("adaptive", &r.adaptive), ("frozen", &r.frozen)] {
            let readapt = out
                .time_to_readapt_s
                .map(|s| format!("{s:.0}"))
                .unwrap_or_else(|| "-".to_owned());
            println!(
                " {:<22} {:<9} {:>6} {:>12} {:>8} {:>8} {:>10.3} {:>8}",
                r.name,
                mode,
                out.drift_swaps,
                readapt,
                out.tail_fp(),
                if out.probe_detected() { "hit" } else { "MISS" },
                out.probe_precision(),
                out.events_per_min.iter().sum::<usize>(),
            );
        }
        println!(
            "   fp curve adaptive: {:?}\n   fp curve frozen:   {:?}",
            r.adaptive.events_per_min, r.frozen.events_per_min
        );
    }

    let json = render_drift_json(&results);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_drift.json");
    std::fs::write(path, json).expect("write BENCH_drift.json");
    println!("\nwrote {path}");
    let panels: Vec<_> = results
        .iter()
        .flat_map(|r| [r.adaptive.ledger.clone(), r.frozen.ledger.clone()])
        .collect();
    ledger::write(
        "drift",
        "Drift ablation, adaptive and frozen. cargo bench -p saad-bench --bench drift",
        &panels,
    );

    for r in &results {
        assert!(
            r.adaptive.drift_swaps >= 1,
            "{}: adaptive pool never re-adapted",
            r.name
        );
        assert_eq!(
            r.frozen.drift_swaps, 0,
            "{}: frozen ablation must never swap",
            r.name
        );
        let t = r
            .adaptive
            .time_to_readapt_s
            .unwrap_or_else(|| panic!("{}: no re-adapt time", r.name));
        assert!(t <= 360.0, "{}: re-adapt took {t}s (> 6 windows)", r.name);
        assert_eq!(
            r.adaptive.tail_fp(),
            0,
            "{}: adaptive tail still flags the absorbed drift",
            r.name
        );
        assert!(
            r.frozen.tail_fp() > 0,
            "{}: frozen ablation absorbed the drift (nothing to adapt to?)",
            r.name
        );
        assert!(
            r.adaptive.probe_detected(),
            "{}: post-swap genuine anomaly went undetected",
            r.name
        );
    }
}
