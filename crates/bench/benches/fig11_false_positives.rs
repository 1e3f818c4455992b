//! Figure 11 / Table 3 — False positive analysis.
//!
//! Paper: for each of 7 Cassandra fault configs (Table 3), 10 controlled
//! runs: 30 min warm-up, 30 min fault-free observation (anomalies here are
//! false positives), 30 min with the fault. Findings: error faults raise
//! flow anomalies 10–60×; WAL-delay-high and MemTable-delay-low raise
//! performance anomalies 3–8×; the 1%-intensity WAL delay moves nothing;
//! flow false positives average 54 over 70 runs (MTBFP 38 min),
//! performance false positives ~3 per run.
//!
//! `SAAD_RUNS` overrides the repetitions (default 3 fast / 10 full).

use saad_bench::ledger::{self, AnomalyClass, Panel};
use saad_bench::{events_between, run_cassandra_detected, scaled_mins, train_cassandra};
use saad_cassandra::ClusterConfig;
use saad_fault::{catalog, FaultSchedule};
use saad_sim::SimTime;

fn main() {
    let fast_runs = 3;
    let runs: u64 = std::env::var("SAAD_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if saad_bench::full_scale() {
            10
        } else {
            fast_runs
        });
    // Phase length: paper 30 min; fast 6 min. Warm-up is implicit in the
    // simulator (no JIT/caches), so we run observe + fault phases only.
    let phase = scaled_mins(30, 6);
    let rate = 25.0;
    let train_mins = scaled_mins(120, 8);

    println!("Figure 11 — false positive analysis: {runs} runs x 7 faults, {phase}-min phases\n");
    println!("Table 3 fault matrix:");
    for spec in saad_fault::catalog::table3_specs() {
        println!("  {}", spec);
    }

    let model = train_cassandra(ClusterConfig::default(), train_mins, rate);

    println!(
        "\n{:<28} {:>12} {:>12} {:>12} {:>12}",
        "fault", "flow before", "flow during", "perf before", "perf during"
    );
    let mut total_flow_fp = 0usize;
    let mut total_perf_fp = 0usize;
    let mut total_runs = 0u64;
    let mut panels = Vec::new();
    for (fi, spec) in catalog::table3_specs().into_iter().enumerate() {
        let (mut fb, mut fd, mut pb, mut pd) = (0usize, 0usize, 0usize, 0usize);
        let about = format!("{spec} on host 4 from minute {phase} to {}", 2 * phase);
        let mut panel = Panel::new(spec.name(), AnomalyClass::of_fault(spec.fault), &about);
        for r in 0..runs {
            let seed = 1000 + fi as u64 * 100 + r;
            let schedule = FaultSchedule::new(seed).with_window(
                SimTime::from_mins(phase),
                SimTime::from_mins(2 * phase),
                spec,
            );
            let out = run_cassandra_detected(
                ClusterConfig {
                    seed,
                    ..ClusterConfig::default()
                },
                model.clone(),
                Some(schedule),
                2 * phase,
                rate,
            );
            fb += events_between(&out.events, 0, phase, true);
            fd += events_between(&out.events, phase, 2 * phase, true);
            pb += events_between(&out.events, 0, phase, false);
            pd += events_between(&out.events, phase, 2 * phase, false);
            panel.record(r as u32, &out.events, &out.stages);
            total_runs += 1;
        }
        panels.push(panel);
        total_flow_fp += fb;
        total_perf_fp += pb;
        let n = runs as f64;
        println!(
            "{:<28} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
            spec.name(),
            fb as f64 / n,
            fd as f64 / n,
            pb as f64 / n,
            pd as f64 / n
        );
    }
    let observed_mins = total_runs * phase;
    println!(
        "\nfalse positives across all {total_runs} fault-free phases: {total_flow_fp} flow, {total_perf_fp} perf"
    );
    if total_flow_fp > 0 {
        println!(
            "mean time between flow false positives: {:.0} min (paper: 38 min)",
            observed_mins as f64 / total_flow_fp as f64
        );
    } else {
        println!("no flow false positives observed over {observed_mins} fault-free minutes");
    }
    if runs == fast_runs {
        ledger::write(
            "fig11",
            "Figure 11 / Table 3: false positives, 3 runs x 7 faults, fast scale. cargo bench -p saad-bench --bench fig11_false_positives",
            &panels,
        );
    } else {
        println!("ledger/fig11 not written: it records {fast_runs} runs");
    }
}
