//! Figure 9 — Anomalies per stage in Cassandra under four injected faults.
//!
//! Each panel injects one fault on host 4: low intensity (1%) during
//! minutes 10–20, high intensity (100%) during minutes 30–40:
//!
//! * (a) error on appending to WAL — flow anomalies in `Table(4)`
//!   (frozen-MemTable premature terminations), hint-timeout flows in
//!   `WorkerProcess` on healthy hosts, almost no error log lines until a
//!   late burst when host 4 crashes;
//! * (b) error on flushing MemTable — flow anomalies in `Memtable(4)` /
//!   `CompactionManager(4)`, GC-pressure anomalies in `GCInspector(4)`
//!   lingering after the fault lifts;
//! * (c) delay on appending to WAL — performance anomalies in
//!   `WorkerProcess(4)` / `StorageProxy(4)`;
//! * (d) delay on flushing MemTable — performance anomalies in
//!   `CommitLog(4)` and flush-triggering `WorkerProcess(4)` tasks.
//!
//! Marks: `F` flow anomaly, `P` performance anomaly, `B` both, `E` error
//! log record; the throughput row is a 1–9 scale of op/sec per minute.

use saad_bench::ledger::{self, AnomalyClass, Panel as LedgerPanel};
use saad_bench::{run_cassandra_detected, scaled_mins, train_cassandra, Timeline};
use saad_cassandra::ClusterConfig;
use saad_fault::{catalog, FaultSchedule, FaultSpec, FaultType, Intensity};
use saad_sim::SimTime;

struct Panel {
    name: &'static str,
    ledger: &'static str,
    class: &'static str,
    fault: FaultType,
}

fn schedule(p: &Panel, low_start: u64, dur: u64, high_start: u64, seed: u64) -> FaultSchedule {
    FaultSchedule::new(seed)
        .with_window(
            SimTime::from_mins(low_start),
            SimTime::from_mins(low_start + dur),
            FaultSpec::new(p.class, p.fault, Intensity::Low),
        )
        .with_window(
            SimTime::from_mins(high_start),
            SimTime::from_mins(high_start + dur),
            FaultSpec::new(p.class, p.fault, Intensity::High),
        )
}

fn main() {
    let rate = 25.0;
    // Fast scale: low fault at 4–8, high at 12–16, run 20 min.
    // Full scale: the paper's 10–20 / 30–40 over 50 min.
    let (low, dur, high, total) = if saad_bench::full_scale() {
        (10, 10, 30, 50)
    } else {
        (4, 4, 12, 20)
    };
    let train_mins = scaled_mins(120, 8);
    println!(
        "Figure 9 — Cassandra fault panels (train {train_mins} min; low fault {low}-{}, high {high}-{}, total {total} min)\n",
        low + dur,
        high + dur
    );
    let model = train_cassandra(ClusterConfig::default(), train_mins, rate);

    let panels = [
        Panel {
            name: "(a) Error on appending to WAL",
            ledger: "a-wal-error",
            class: catalog::WAL,
            fault: FaultType::Error,
        },
        Panel {
            name: "(b) Error on flushing MemTable",
            ledger: "b-memtable-error",
            class: catalog::MEMTABLE_FLUSH,
            fault: FaultType::Error,
        },
        Panel {
            name: "(c) Delay on appending to WAL",
            ledger: "c-wal-delay",
            class: catalog::WAL,
            fault: FaultType::standard_delay(),
        },
        Panel {
            name: "(d) Delay on flushing MemTable",
            ledger: "d-memtable-delay",
            class: catalog::MEMTABLE_FLUSH,
            fault: FaultType::standard_delay(),
        },
    ];

    let mut ledger_panels = Vec::new();
    for (i, p) in panels.iter().enumerate() {
        let out = run_cassandra_detected(
            ClusterConfig {
                seed: 42 + i as u64,
                ..ClusterConfig::default()
            },
            model.clone(),
            Some(schedule(p, low, dur, high, 90 + i as u64)),
            total,
            rate,
        );
        let mut tl = Timeline::new(total as usize);
        tl.add_events(&out.events, &out.stages, |h| Some(h.0.to_string()));
        tl.add_errors(&out.run.errors, "ErrorLog", |h| Some(h.0.to_string()));
        println!("--- Figure 9{} ---", p.name);
        println!(
            "fault: {} on host 4; ops completed {}, dropped {}; host-4 crashed: {}",
            p.class, out.run.ops_completed, out.run.ops_dropped, out.run.crashed[3]
        );
        println!("{}", tl.render(Some(&out.run.throughput.ops_per_sec())));
        let flow = out.events.iter().filter(|e| e.kind.is_flow()).count();
        let perf = out
            .events
            .iter()
            .filter(|e| e.kind.is_performance())
            .count();
        println!("totals: {flow} flow anomaly windows, {perf} performance anomaly windows\n");
        let about = format!(
            "{} on host 4: low {low}-{}, high {high}-{} of {total} min",
            p.name,
            low + dur,
            high + dur
        );
        let mut panel = LedgerPanel::new(p.ledger, AnomalyClass::of_fault(p.fault), &about);
        panel.record(0, &out.events, &out.stages);
        ledger_panels.push(panel);
    }
    ledger::write(
        "fig9",
        "Figure 9: Cassandra fault panels, fast scale. cargo bench -p saad-bench --bench fig9_cassandra",
        &ledger_panels,
    );
}
