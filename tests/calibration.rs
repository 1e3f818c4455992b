//! Calibration of the window test against α.
//!
//! SAAD's claim is statistical: a healthy window is flagged with
//! probability at most α = 0.001. Every check here computes that
//! probability exactly, from a binomial pmf summed term by term in this
//! file, so nothing is sampled and nothing shares code with the
//! incomplete beta the test itself uses.
//!
//! Run: `cargo test --test calibration` (well under 5 s in a debug build).

use saad::core::batch::SynopsisBatch;
use saad::core::detector::{AnomalyDetector, AnomalyKind, DetectorConfig};
use saad::core::model::{ModelBuilder, ModelConfig, OutlierModel, VerdictMask};
use saad::core::synopsis::TaskSynopsis;
use saad::core::{HostId, Signature, StageId, TaskUid};
use saad::logging::LogPointId;
use saad::sim::{SimDuration, SimTime};
use saad::stats::hypothesis::{one_sided_proportion_test, Alternative, SAAD_ALPHA};
use std::sync::Arc;

/// `P(X ≥ x)` for `X ~ Binomial(n, p)`. Log-pmf terms are built outward
/// from the mode by the ratio `pmf(k + 1) / pmf(k) = (n − k) p / ((k + 1)
/// (1 − p))` and normalised by their own sum; each side stops once a term
/// is below 1e-25 of what it adds to, and the upper side not before `x`.
fn tail(x: u64, n: u64, p: f64) -> f64 {
    if x == 0 || p == 1.0 {
        return 1.0;
    }
    if p == 0.0 {
        return 0.0;
    }
    let mode = (((n + 1) as f64 * p).floor() as u64).min(n);
    let ratio = |k: u64| (n - k) as f64 * p / ((k + 1) as f64 * (1.0 - p));
    let (mut upper, mut total) = (0.0, 0.0);
    let (mut k, mut log_pmf) = (mode, 0.0f64);
    loop {
        let term = log_pmf.exp();
        total += term;
        if k >= x {
            upper += term;
        }
        if k == n || (k >= x && term < 1e-25 * upper) {
            break;
        }
        log_pmf += ratio(k).ln();
        k += 1;
    }
    let (mut k, mut log_pmf) = (mode, 0.0f64);
    while k > 0 {
        k -= 1;
        log_pmf -= ratio(k).ln();
        let term = log_pmf.exp();
        total += term;
        if k >= x {
            upper += term;
        }
        if term < 1e-25 * total {
            break;
        }
    }
    upper / total
}

fn p_value(x: u64, n: u64, p0: f64) -> f64 {
    one_sided_proportion_test(x, n, p0, Alternative::Greater).p_value
}

/// The smallest `x` in `0..=n` for which `rejects(x)`, or `n + 1` when
/// none does; `rejects` must be monotone in `x`.
fn smallest_rejected(n: u64, rejects: impl Fn(u64) -> bool) -> u64 {
    let (mut lo, mut hi) = (0, n + 1);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if rejects(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

#[test]
fn the_test_rejects_a_healthy_window_at_most_alpha_of_the_time() {
    let sizes = [
        5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 100_000,
    ];
    let nulls = [0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.2, 0.5];
    let mut over = Vec::new();
    let mut worst = 0.0f64;
    for &n in &sizes {
        for &p0 in &nulls {
            let x = smallest_rejected(n, |x| p_value(x, n, p0) < SAAD_ALPHA);
            let false_alarms = if x > n { 0.0 } else { tail(x, n, p0) };
            worst = worst.max(false_alarms);
            if false_alarms > SAAD_ALPHA {
                over.push(format!(
                    "n = {n}, p0 = {p0}: rejecting from {x} outliers flags {:.2} α",
                    false_alarms / SAAD_ALPHA
                ));
            }
        }
    }
    assert!(
        over.is_empty(),
        "healthy windows flagged too often:\n{}",
        over.join("\n")
    );
    println!("worst false-alarm rate {:.3} α", worst / SAAD_ALPHA);
}

#[test]
fn p_value_equals_the_pmf_tail_sum() {
    let sizes = [1, 5, 12, 100, 1_000, 10_000, 100_000, 1_000_000];
    let nulls = [0.0005, 0.001, 0.01, 0.05, 0.1, 0.3, 0.5, 0.9];
    let mut worst = 0.0f64;
    for &n in &sizes {
        for &p0 in &nulls {
            let (mean, sd) = (n as f64 * p0, (n as f64 * p0 * (1.0 - p0)).sqrt());
            for half_sds in 0..=12 {
                let x = ((mean + half_sds as f64 / 2.0 * sd).ceil() as u64).clamp(1, n);
                let (got, want) = (p_value(x, n, p0), tail(x, n, p0));
                let err = (got / want - 1.0).abs();
                worst = worst.max(err);
                assert!(
                    err < 1e-8,
                    "n = {n}, p0 = {p0}, x = {x}: p = {got:e}, pmf sum {want:e}"
                );
            }
        }
    }
    println!("worst relative error {worst:.2e}");
}

#[test]
fn edge_cases_have_their_specified_outcome() {
    // A null of 0: any outlier is impossible under it, none is certain.
    assert_eq!(p_value(1, 10, 0.0), 0.0);
    assert_eq!(p_value(10, 10, 0.0), 0.0);
    assert_eq!(p_value(0, 10, 0.0), 1.0);
    // A null of 1: every count is as expected.
    for x in [0, 1, 10] {
        assert_eq!(p_value(x, 10, 1.0), 1.0);
    }
    // No outliers: the whole space.
    for p0 in [0.001, 0.5, 0.999] {
        assert_eq!(p_value(0, 1_000, p0), 1.0);
    }
    // A one-task window: P(X ≥ 1) = p0, so it rejects only below α.
    for p0 in [0.0005, 0.01, 0.5] {
        assert!((p_value(1, 1, p0) / p0 - 1.0).abs() < 1e-12);
        assert_eq!(p_value(0, 1, p0), 1.0);
    }
}

#[test]
#[should_panic(expected = "p0 must be in [0,1]")]
fn a_nan_null_panics() {
    p_value(1, 10, f64::NAN);
}

/// Stage trained for performance tests: one signature, every training
/// task 100 µs, so the perf p0 is the floor `1 − duration_percentile/100`.
const PERF_STAGE: StageId = StageId(0);
/// Stage trained for the flow test: `RARE` covers `RARE_SHARE` of it.
const FLOW_STAGE: StageId = StageId(1);
const COMMON: &[u16] = &[1, 2];
const RARE: &[u16] = &[1, 3];
const RARE_SHARE: f64 = 0.005;

fn task(stage: StageId, points: &[u16], dur_us: u64, uid: u64) -> TaskSynopsis {
    TaskSynopsis {
        host: HostId(0),
        stage,
        uid: TaskUid(uid),
        start: SimTime::from_millis(uid % 1_000),
        duration: SimDuration::from_micros(dur_us),
        log_points: points.iter().map(|&p| (LogPointId(p), 1)).collect(),
    }
}

fn model(duration_percentile: f64) -> Arc<OutlierModel> {
    let mut b = ModelBuilder::new();
    for uid in 0..1_000 {
        b.observe(&task(PERF_STAGE, COMMON, 100, uid));
    }
    let rare_every = (1.0 / RARE_SHARE) as u64;
    for uid in 0..10_000 {
        let points = if uid % rare_every == 0 { RARE } else { COMMON };
        b.observe(&task(FLOW_STAGE, points, 100, uid));
    }
    Arc::new(b.build(ModelConfig {
        duration_percentile,
        ..ModelConfig::default()
    }))
}

/// Whether one window of `n` tasks on `stage`, `x` of them outliers
/// (`outlier` builds one), raises an event of the kind `counts`.
fn window_fires(
    model: &Arc<OutlierModel>,
    n: u64,
    x: u64,
    outlier: impl Fn(u64) -> TaskSynopsis,
    normal: impl Fn(u64) -> TaskSynopsis,
    counts: fn(&AnomalyKind) -> bool,
) -> bool {
    let mut detector = AnomalyDetector::new(model.clone(), DetectorConfig::default());
    let mut batch = SynopsisBatch::with_capacity(n as usize);
    for uid in 0..n {
        let s = if uid < x { outlier(uid) } else { normal(uid) };
        batch.push_synopsis(&s, detector.interner());
    }
    let mut events = detector.observe_batch(&batch, &mut VerdictMask::new());
    events.extend(detector.flush());
    events.iter().any(|e| counts(&e.kind))
}

/// The detector's own false-alarm rate at `(n, p0)`: find the fewest
/// outliers that raise an event and sum the pmf from there. It must be at
/// most α, and one outlier fewer must be a count the exact test keeps.
fn check_detector(what: &str, n: u64, p0: f64, fires: impl Fn(u64) -> bool) {
    let x = smallest_rejected(n, &fires);
    assert!(x <= n, "{what}, n = {n}: even {n} outliers raise nothing");
    assert!(
        x > 0,
        "{what}, n = {n}: a window without outliers raises an event"
    );
    let false_alarms = tail(x, n, p0);
    assert!(
        false_alarms <= SAAD_ALPHA,
        "{what}, n = {n}, p0 = {p0}: the detector fires from {x} outliers, \
         flagging {:.2} α of healthy windows",
        false_alarms / SAAD_ALPHA
    );
    assert!(
        tail(x - 1, n, p0) >= SAAD_ALPHA * (1.0 - 1e-8),
        "{what}, n = {n}, p0 = {p0}: {} outliers are already significant but raise nothing",
        x - 1
    );
}

#[test]
fn the_detector_flags_a_healthy_window_at_most_alpha_of_the_time() {
    let sizes = [100, 500, 1_000, 5_000];
    for duration_percentile in [99.0, 95.0, 90.0] {
        let model = model(duration_percentile);
        let detector = AnomalyDetector::new(model.clone(), DetectorConfig::default());
        let sig = detector.interner().intern(&Signature::from_points(
            COMMON.iter().map(|&p| LogPointId(p)),
        ));
        let p0 = detector
            .compiled()
            .perf_p0(PERF_STAGE, sig)
            .expect("perf-eligible");
        assert!((p0 - (1.0 - duration_percentile / 100.0)).abs() < 1e-12);
        for n in sizes {
            check_detector("performance", n, p0, |x| {
                window_fires(
                    &model,
                    n,
                    x,
                    |uid| task(PERF_STAGE, COMMON, 200, uid),
                    |uid| task(PERF_STAGE, COMMON, 100, uid),
                    AnomalyKind::is_performance,
                )
            });
        }
    }
    let model = model(99.0);
    let p0 = model.flow_outlier_rate(FLOW_STAGE);
    assert_eq!(p0, RARE_SHARE);
    for n in sizes {
        check_detector("flow", n, p0, |x| {
            window_fires(
                &model,
                n,
                x,
                |uid| task(FLOW_STAGE, RARE, 100, uid),
                |uid| task(FLOW_STAGE, COMMON, 100, uid),
                AnomalyKind::is_flow,
            )
        });
    }
}
