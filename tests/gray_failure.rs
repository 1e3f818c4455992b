//! End-to-end gray-failure detection: every scenario of the catalog must
//! be detected with the faulty stage and host set matching the oracle
//! exactly, at a detection latency bounded by a few windows. Both tests
//! run the fast-scale replays `--bench gray_failure` runs, and each
//! replay's events must equal its panel of the committed `ledger/gray`.

use saad_bench::gray::{run_gray_catalog, run_healthy_control};
use saad_bench::ledger::{self, Panel};

/// Fail with the lines that moved when `panels` differ from their blocks
/// in `ledger/gray` (regenerate it with `cargo bench -p saad-bench --bench
/// gray_failure` when the move is meant).
fn assert_ledger(panels: &[Panel]) {
    if let Err(diff) = ledger::check("gray", panels) {
        panic!("{diff}");
    }
}

#[test]
fn all_gray_scenarios_are_detected_and_localized_exactly() {
    let results = run_gray_catalog(42, 6, 10);
    assert_ledger(&results.iter().map(|r| r.ledger.clone()).collect::<Vec<_>>());
    assert_eq!(results.len(), 6, "no scenario may be skipped");
    assert_eq!(
        results.iter().map(|r| r.name).collect::<Vec<_>>(),
        vec![
            "slow-upstream",
            "correlated-hog",
            "asymmetric-partition",
            "retry-storm",
            "slow-dns",
            "escaper-flap"
        ]
    );

    for r in &results {
        assert!(r.injected > 0, "{}: schedule never fired", r.name);
        let latency = r
            .detection_latency_s
            .unwrap_or_else(|| panic!("{} went undetected", r.name));
        // The fault starts at minute 3; detection windows are one minute.
        // Exact localization within three window closes.
        assert!(
            latency <= 180.0,
            "{}: detection latency {latency}s exceeds three windows",
            r.name
        );
        assert!(
            r.exact_localization(),
            "{}: hosts {:?} flagged on stage {}, oracle says {:?}",
            r.name,
            r.detected_hosts,
            r.stage,
            r.oracle_hosts
        );
        assert_eq!(r.recall, 1.0, "{}: an oracle host went unflagged", r.name);
        assert!(
            r.matching_events >= 2,
            "{}: a sustained fault must flag more than one window, got {}",
            r.name,
            r.matching_events
        );
    }
}

#[test]
fn healthy_replay_stays_quiet_on_the_gray_stages() {
    // Precision sanity: replaying healthy traffic (a slow-upstream replay
    // whose schedule never fires) against the catalog's model must not
    // flag the stages the catalog targets — what the scenarios detect is
    // the fault, not the train/replay seed mismatch.
    let r = run_healthy_control(42, 6, 10);
    assert_ledger(std::slice::from_ref(&r.ledger));
    assert_eq!(r.injected, 0);
    assert!(
        r.detected_hosts.is_empty(),
        "healthy replay flagged {:?} on {}",
        r.detected_hosts,
        r.stage
    );
}
