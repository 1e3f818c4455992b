//! Metric names, the aggregation of segments into a run's metrics, and
//! every print-out: per-segment lines, the metric list, the per-layer
//! budget and the one-line JSON result the driver reads.

use crate::stats::{self, median, quartiles};
use crate::workloads::Segment;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: name, unit, direction, regression bound. The same
/// list, in the same order, is in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("synopses_per_s", "1/s", "higher", 0.2),
    ("wire_bytes_per_synopsis", "B", "lower", 0.01),
    ("peak_rss_mib", "MiB", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
];

/// Per-layer metrics: name and unit, grouped by layer.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("core.tracker.emit_ns", "ns"),
    ("core.tracker.tasks", "count"),
    ("core.tracker.untracked_visits", "count"),
    ("core.codec.encode_ns", "ns"),
    ("core.codec.decode_into_ns", "ns"),
    ("core.codec.bytes_per_synopsis", "B"),
    ("core.transport.encode_frame_ns", "ns"),
    ("core.transport.crc_ns", "ns"),
    ("core.transport.admit_ns", "ns"),
    ("core.transport.frame_overhead_bytes", "B"),
    ("core.transport.lost", "count"),
    ("core.transport.duplicates", "count"),
    ("core.intern.push_synopsis_ns", "ns"),
    ("core.intern.signatures", "count"),
    ("net.agent.send_ns", "ns"),
    ("net.agent.blocked_share", "ratio"),
    ("net.agent.frames_written", "count"),
    ("net.agent.dropped", "count"),
    ("net.agent.reconnects", "count"),
    ("net.reactor_collector.ingest_ns", "ns"),
    ("net.reactor_collector.polls", "count"),
    ("net.reactor_collector.spurious_polls", "count"),
    ("net.reactor_collector.read_bytes_per_poll", "B"),
    ("net.reactor_collector.decode_stalls", "count"),
    ("net.reactor_collector.synopses_per_batch", "count"),
    ("net.reactor_collector.corrupted_frames", "count"),
    ("core.pipeline.pool_ns", "ns"),
    ("core.pipeline.self_ns", "ns"),
    ("core.pipeline.send_blocked_share", "ratio"),
    ("core.pipeline.processed", "count"),
    ("core.pipeline.skipped", "count"),
    ("core.pipeline.restarts", "count"),
    ("core.pipeline.tasks_lost", "count"),
    ("core.model.classify_batch_ns", "ns"),
    ("core.model.train_s", "s"),
    ("core.model.compile_ms", "ms"),
    ("core.detector.observe_batch_ns", "ns"),
    ("core.detector.self_ns", "ns"),
    ("core.detector.window_close_us", "us"),
    ("core.detector.events", "count"),
    ("core.detector.late_share", "ratio"),
    ("stats.proportion_test_ns", "ns"),
    ("stats.tests_per_window", "count"),
    ("bench.capture_s", "s"),
    ("bench.gen_lag_p99_us", "us"),
    ("bench.event_delay_p50_ms", "ms"),
    ("bench.event_delay_p95_ms", "ms"),
    ("bench.event_delay_max_ms", "ms"),
    ("bench.delay_samples", "count"),
    ("bench.cpu_ns_per_synopsis", "ns"),
    ("bench.unattributed_cpu_ns", "ns"),
    ("bench.calib_ms", "ms"),
    ("bench.raw_synopses_per_s", "1/s"),
    ("bench.machine_speed", "ratio"),
    ("bench.trace_overhead_share", "ratio"),
];

/// Median over the segments that have a value.
fn median_of(segments: &[Segment], value: impl Fn(&Segment) -> Option<f64>) -> f64 {
    let values: Vec<f64> = segments.iter().filter_map(value).collect();
    if values.is_empty() {
        0.0
    } else {
        median(&values)
    }
}

/// The end-to-end metrics of a run: each the median over its (untraced)
/// segments, except the peak memory of the process.
pub fn end_to_end(segments: &[Segment], peak_rss_mib: f64) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    m.insert(
        "synopses_per_s",
        median_of(segments, |s| Some(s.synopses_per_s())),
    );
    m.insert(
        "wire_bytes_per_synopsis",
        median_of(segments, |s| Some(s.bytes_per_synopsis)),
    );
    m.insert("peak_rss_mib", peak_rss_mib);
    m.insert(
        "setup_s",
        median_of(segments, |s| Some(s.of_setup(s.setup_s))),
    );
    m
}

/// One line per segment, then the quartiles of each per-segment figure.
pub fn print_segments(label: &str, segments: &[Segment]) {
    for (i, s) in segments.iter().enumerate() {
        let p50 = if s.delays_ms.is_empty() {
            0.0
        } else {
            median(&s.delays_ms)
        };
        println!(
            "segment {label}{i}: setup {:.3} s at speed {:.3} = {:.3} s, {} synopses in {:.3} s = {:.0} /s \
             at speed {:.3} = {:.0} /s, \
             delay p50 {:.3} ms over {} samples, cpu {:.0} ns/synopsis at that speed, calib {:.2}/{:.2} ms, failed {}",
            s.setup_s,
            s.setup_speed.unwrap_or(1.0),
            s.of_setup(s.setup_s),
            s.synopses,
            s.wall_s,
            s.raw_synopses_per_s(),
            s.timed_speed.unwrap_or(1.0),
            s.synopses_per_s(),
            p50,
            s.delays_ms.len(),
            s.cpu_ns_per_synopsis(),
            s.calib_ms.0,
            s.calib_ms.1,
            s.failed
        );
        for why in &s.failures {
            println!("  FAILED: {why}");
        }
    }
    if segments.len() < 2 {
        return;
    }
    let show = |name: &str, values: Vec<f64>| {
        let (q1, med, q3) = quartiles(&values);
        println!(
            "quartiles {label}{name}: q1 {q1:.6} median {med:.6} q3 {q3:.6} (spread {:.2} %)",
            100.0 * stats::relative_spread(&values)
        );
    };
    show(
        "synopses_per_s",
        segments.iter().map(Segment::synopses_per_s).collect(),
    );
    show(
        "raw synopses_per_s",
        segments.iter().map(Segment::raw_synopses_per_s).collect(),
    );
    show(
        "setup_s",
        segments.iter().map(|s| s.of_setup(s.setup_s)).collect(),
    );
    show("raw setup_s", segments.iter().map(|s| s.setup_s).collect());
    let delays: Vec<f64> = segments
        .iter()
        .filter(|s| !s.delays_ms.is_empty())
        .map(|s| median(&s.delays_ms))
        .collect();
    if delays.len() >= 2 {
        show("event_delay_p50_ms", delays);
    }
}

/// What the per-layer metrics of a traced run are computed from.
pub struct LayerInputs<'a> {
    /// The workload.
    pub workload: &'a str,
    /// Segments run without spans.
    pub untraced: &'a [Segment],
    /// Segments run with spans.
    pub traced: &'a [Segment],
    /// Direct-call timings from [`crate::layers::measure`].
    pub direct: &'a BTreeMap<&'static str, f64>,
}

/// Every per-layer metric of a traced run, in [`PER_LAYER`] order. A
/// metric of a layer the workload does not exercise is 0.
pub fn per_layer(inputs: &LayerInputs) -> BTreeMap<&'static str, f64> {
    let LayerInputs {
        workload,
        untraced,
        traced,
        direct,
    } = *inputs;
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
    for (&name, &value) in direct {
        m.insert(name, value);
    }
    // Counters: the median over the segments that report them; the ones
    // only a traced segment can take come from the traced segments.
    for &(name, _) in &PER_LAYER {
        for set in [untraced, traced] {
            let values: Vec<f64> = set
                .iter()
                .filter_map(|s| s.counters.get(name).copied())
                .collect();
            if !values.is_empty() {
                m.insert(name, median(&values));
                break;
            }
        }
    }
    m.insert(
        "core.model.train_s",
        median_of(untraced, |s| Some(s.of_setup(s.train_s))),
    );
    m.insert(
        "core.model.compile_ms",
        median_of(untraced, |s| Some(s.of_setup(s.compile_ms))),
    );
    m.insert(
        "bench.capture_s",
        median_of(untraced, |s| Some(s.of_setup(s.capture_s))),
    );
    if workload.starts_with("analyze_") {
        let pool_ns = median_of(untraced, |s| Some(s.ns_per_synopsis()));
        m.insert("core.pipeline.pool_ns", pool_ns);
        m.insert(
            "core.pipeline.self_ns",
            (pool_ns - m["core.detector.observe_batch_ns"]).max(0.0),
        );
    }

    m.insert(
        "bench.event_delay_p50_ms",
        median_of(untraced, |s| {
            (!s.delays_ms.is_empty()).then(|| median(&s.delays_ms))
        }),
    );
    let delays: Vec<f64> = untraced
        .iter()
        .flat_map(|s| s.delays_ms.iter().copied())
        .collect();
    if !delays.is_empty() {
        let sorted = stats::sorted(&delays);
        let p = stats::supported_percentile(sorted.len(), 95.0);
        m.insert(
            "bench.event_delay_p95_ms",
            stats::percentile_sorted(&sorted, p),
        );
        m.insert("bench.event_delay_max_ms", sorted[sorted.len() - 1]);
    }
    m.insert(
        "bench.delay_samples",
        median_of(untraced, |s| Some(s.delays_ms.len() as f64)),
    );
    let lags: Vec<f64> = untraced
        .iter()
        .flat_map(|s| s.gen_lag_us.iter().copied())
        .collect();
    if !lags.is_empty() {
        let sorted = stats::sorted(&lags);
        let p = stats::supported_percentile(sorted.len(), 99.0);
        m.insert("bench.gen_lag_p99_us", stats::percentile_sorted(&sorted, p));
    }
    let cpu = median_of(untraced, |s| Some(s.cpu_ns_per_synopsis()));
    m.insert("bench.cpu_ns_per_synopsis", cpu);
    let attributed: f64 = budget_rows(workload, &m).iter().map(|r| r.ns).sum();
    m.insert("bench.unattributed_cpu_ns", cpu - attributed);
    let calib: Vec<f64> = untraced
        .iter()
        .chain(traced)
        .flat_map(|s| [s.calib_ms.0, s.calib_ms.1])
        .collect();
    if !calib.is_empty() {
        m.insert("bench.calib_ms", median(&calib));
    }
    m.insert(
        "bench.raw_synopses_per_s",
        median_of(untraced, |s| Some(s.raw_synopses_per_s())),
    );
    m.insert(
        "bench.machine_speed",
        median_of(untraced, |s| s.timed_speed.or(s.setup_speed)),
    );
    if !traced.is_empty() && !untraced.is_empty() {
        let with = median_of(traced, |s| Some(s.synopses_per_s()));
        let without = median_of(untraced, |s| Some(s.synopses_per_s()));
        m.insert("bench.trace_overhead_share", 1.0 - with / without);
    }
    m
}

/// One row of the per-layer budget.
pub struct BudgetRow {
    /// Layer and what of it the row counts.
    pub what: &'static str,
    /// CPU nanoseconds per synopsis (direct-call, one thread).
    pub ns: f64,
    /// Bytes per synopsis the layer produces or moves, where known.
    pub bytes: Option<f64>,
}

/// The budget rows of `workload`: only work done inside a timed segment
/// counts, so the pre-encoded workloads have no sender-side rows.
pub fn budget_rows(workload: &str, m: &BTreeMap<&'static str, f64>) -> Vec<BudgetRow> {
    let v = |name: &str| m.get(name).copied().unwrap_or(0.0);
    let row = |what, ns, bytes| BudgetRow { what, ns, bytes };
    let mut rows = Vec::new();
    if workload == "fleet_e2e" {
        let assembly = v("core.transport.encode_frame_ns")
            - v("core.codec.encode_ns")
            - v("core.transport.crc_ns");
        rows.push(row("core.tracker (emit)", v("core.tracker.emit_ns"), None));
        rows.push(row(
            "net.agent (sink + enqueue)",
            v("net.agent.send_ns"),
            None,
        ));
        rows.push(row(
            "core.codec (encode)",
            v("core.codec.encode_ns"),
            Some(v("core.codec.bytes_per_synopsis")),
        ));
        rows.push(row(
            "core.transport (crc, sender)",
            v("core.transport.crc_ns"),
            None,
        ));
        rows.push(row(
            "core.transport (frame assembly)",
            assembly.max(0.0),
            Some(v("core.transport.frame_overhead_bytes")),
        ));
    }
    if matches!(workload, "fleet_e2e" | "collector_ingest" | "paced_detect") {
        rows.push(row(
            "core.transport (crc, receiver)",
            v("core.transport.crc_ns"),
            None,
        ));
        rows.push(row(
            "core.codec + core.intern (decode_into)",
            v("core.codec.decode_into_ns"),
            None,
        ));
        rows.push(row(
            "core.transport (admit)",
            v("core.transport.admit_ns"),
            None,
        ));
    }
    if workload != "collector_ingest" {
        rows.push(row(
            "core.pipeline (channel, router, fan-out)",
            v("core.pipeline.self_ns"),
            None,
        ));
        rows.push(row(
            "core.model (classify_batch)",
            v("core.model.classify_batch_ns"),
            None,
        ));
        rows.push(row(
            "core.detector + stats (windows, tests)",
            v("core.detector.self_ns"),
            None,
        ));
    }
    rows
}

/// Print the budget: one row per layer, the unattributed remainder, and
/// their sum next to the measured figure.
pub fn print_budget(workload: &str, m: &BTreeMap<&'static str, f64>) {
    let measured = m["bench.cpu_ns_per_synopsis"];
    let share = |ns: f64| 100.0 * ns / measured.max(1e-9);
    println!("\nbudget for {workload} (per synopsis)");
    println!("{:<44} {:>10} {:>8} {:>8}", "layer", "ns", "bytes", "share");
    let mut sum = 0.0;
    for r in budget_rows(workload, m) {
        sum += r.ns;
        let bytes = r.bytes.map_or("-".to_owned(), |b| format!("{b:.1}"));
        println!(
            "{:<44} {:>10.1} {:>8} {:>7.1}%",
            r.what,
            r.ns,
            bytes,
            share(r.ns)
        );
    }
    let rest = m["bench.unattributed_cpu_ns"];
    sum += rest;
    println!(
        "{:<44} {:>10.1} {:>8} {:>7.1}%",
        "bench.unattributed_cpu_ns (syscalls, copies, channels, wake-ups, generator)",
        rest,
        "-",
        share(rest)
    );
    println!(
        "{:<44} {:>10.1} {:>8} {:>7.1}%   measured bench.cpu_ns_per_synopsis {:.1}",
        "sum",
        sum,
        "-",
        share(sum),
        measured
    );
}

/// Print every metric by name with its unit.
pub fn print_metrics(title: &str, names: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) {
    println!("\n{title}");
    for &(name, unit) in names {
        println!("  {name} = {} {unit}", values[name]);
    }
}

/// The one-line JSON object the driver reads from the end of stdout.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, &(name, unit)) in names.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = values[name];
        // JSON has no NaN or infinity; a metric that could not be taken
        // reads 0 rather than breaking the line.
        let value = if value.is_finite() { value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// Pull `"name": {"value": X` out of a result line (the benchmark reads
/// its own children's output in `--repeat`; no general JSON parser needed).
pub fn value_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Pull a top-level integer such as `"failed": 3` out of a result line.
pub fn count_in(line: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segment(rate: f64, setup_s: f64, delays: &[f64]) -> Segment {
        Segment {
            setup_s,
            wall_s: 2.0,
            synopses: (rate * 2.0) as u64,
            attempted: (rate * 2.0) as u64,
            delays_ms: delays.to_vec(),
            bytes_per_synopsis: 40.0,
            cpu_ns: (rate * 2.0) as u64 * 300,
            ..Segment::default()
        }
    }

    #[test]
    fn run_metrics_are_medians_over_segments() {
        let segs = vec![
            segment(1_000.0, 0.9, &[1.0, 2.0, 9.0]),
            segment(3_000.0, 0.8, &[4.0]),
            segment(2_000.0, 1.5, &[]),
        ];
        let m = end_to_end(&segs, 123.5);
        assert_eq!(m["synopses_per_s"], 2_000.0);
        assert_eq!(m["setup_s"], 0.9);
        assert_eq!(m["wire_bytes_per_synopsis"], 40.0);
        assert_eq!(m["peak_rss_mib"], 123.5);
    }

    #[test]
    fn budget_rows_and_remainder_sum_to_the_measured_cpu() {
        let segs = vec![segment(1_000.0, 1.0, &[1.0]), segment(1_200.0, 1.0, &[1.0])];
        let mut direct = BTreeMap::new();
        direct.insert("core.tracker.emit_ns", 40.0);
        direct.insert("core.codec.encode_ns", 30.0);
        direct.insert("core.transport.crc_ns", 50.0);
        direct.insert("core.transport.encode_frame_ns", 95.0);
        direct.insert("core.codec.decode_into_ns", 35.0);
        direct.insert("core.detector.observe_batch_ns", 25.0);
        direct.insert("core.model.classify_batch_ns", 5.0);
        direct.insert("core.detector.self_ns", 20.0);
        let m = per_layer(&LayerInputs {
            workload: "fleet_e2e",
            untraced: &segs,
            traced: &[],
            direct: &direct,
        });
        let rows: f64 = budget_rows("fleet_e2e", &m).iter().map(|r| r.ns).sum();
        assert_eq!(m["bench.cpu_ns_per_synopsis"], 300.0);
        // Segment medians of the delay samples, then their median.
        assert_eq!(m["bench.event_delay_p50_ms"], 1.0);
        assert!((rows + m["bench.unattributed_cpu_ns"] - 300.0).abs() < 1e-9);
        // crc counted on both sides, assembly = 95 - 30 - 50.
        assert!((rows - (40.0 + 30.0 + 50.0 + 15.0 + 50.0 + 35.0 + 5.0 + 20.0)).abs() < 1e-9);
        // The wire-only workload has no sender, tracker or analyzer rows.
        assert_eq!(budget_rows("collector_ingest", &m).len(), 3);
        assert_eq!(m.len(), PER_LAYER.len());
    }

    #[test]
    fn result_line_round_trips_through_the_repeat_reader() {
        let mut values = BTreeMap::new();
        values.insert("synopses_per_s", 1234567.891);
        values.insert("setup_s", 0.8127);
        let names = [("synopses_per_s", "1/s"), ("setup_s", "s")];
        let line = result_json(true, 1000, 0, &names, &values);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0"));
        assert_eq!(value_in(&line, "synopses_per_s"), Some(1234567.891));
        assert_eq!(value_in(&line, "setup_s"), Some(0.8127));
        assert_eq!(value_in(&line, "missing"), None);
        assert_eq!(count_in(&line, "attempted"), Some(1000));
        assert_eq!(count_in(&line, "failed"), Some(0));
    }

    #[test]
    fn metric_names_match_the_declared_benchmark() {
        let declared = include_str!("../../BENCHMARK.json");
        for (name, unit, better, bound) in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(declared.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit) in PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert!(declared.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let names = declared.matches("{\"name\": ").count();
        assert_eq!(
            names,
            END_TO_END.len() + PER_LAYER.len() + crate::workloads::WORKLOADS.len()
        );
        for w in crate::workloads::WORKLOADS {
            assert!(declared.contains(&format!("{{\"name\": \"{w}\", \"why\": ")));
        }
    }
}
