//! Shared harness code for the experiment benches.
//!
//! Every table and figure in the paper's evaluation section has a bench
//! target under `benches/` that regenerates it; this library holds the
//! pieces they share: run-scale control, synopsis byte accounting, corpus
//! capture, timeline rendering, the event ledger, and train/run drivers
//! for the simulated clusters.
//!
//! Run scale: the benches default to *fast* runs (minutes of virtual time
//! scaled down ~3–6× from the paper, seconds of wall time). Set
//! `SAAD_SCALE=full` to run the paper's full experiment lengths.

#![warn(missing_docs)]

pub mod drift;
pub mod federation;
pub mod gray;
pub mod ledger;

use parking_lot::Mutex;
use saad_cassandra::{Cluster, ClusterConfig, RunOutput};
use saad_core::codec;
use saad_core::detector::{AnomalyEvent, AnomalyKind, DetectorConfig};
use saad_core::intern::SignatureInterner;
use saad_core::model::{ModelConfig, OutlierModel};
use saad_core::pipeline::{spawn_analyzer_pool, BatchSink, ModelSink, PoolStart, SupervisorConfig};
use saad_core::synopsis::TaskSynopsis;
use saad_core::tracker::SynopsisSink;
use saad_core::{HostId, StageRegistry};
use saad_fault::FaultSchedule;
use saad_logging::appender::{Appender, Record};
use saad_sim::{SimDuration, SimTime};
use saad_workload::{KeyChooser, OperationMix, WorkloadGenerator};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Whether `SAAD_SCALE=full` requests paper-length runs.
pub fn full_scale() -> bool {
    std::env::var("SAAD_SCALE")
        .map(|v| v == "full")
        .unwrap_or(false)
}

/// Scale a paper-length duration (in minutes) down for fast runs.
pub fn scaled_mins(paper_mins: u64, fast_mins: u64) -> u64 {
    if full_scale() {
        paper_mins
    } else {
        fast_mins
    }
}

/// Timed rounds per wall-clock figure.
pub const ROUNDS: usize = 5;

/// The least time a timed round lasts.
pub const ROUND: Duration = Duration::from_secs(1);

/// `[q1, median, q3]` of the rounds' values.
///
/// # Panics
///
/// Panics on no rounds.
pub fn quartiles(rounds: &[f64]) -> [f64; 3] {
    [25.0, 50.0, 75.0].map(|p| saad_stats::percentile(rounds, p).expect("rounds ran"))
}

/// Quartiles `q` as a claim's measured value: the median, then `[q1,
/// q3]`, each to `digits` decimals.
pub fn quartile_text(q: [f64; 3], digits: usize) -> String {
    format!("{:.digits$} [{:.digits$}, {:.digits$}]", q[1], q[0], q[2])
}

/// Quartiles `q` as the JSON members `"<name>_q1"`, `"<name>_median"` and
/// `"<name>_q3"`, each to `digits` decimals.
pub fn quartile_json(name: &str, q: [f64; 3], digits: usize) -> String {
    format!(
        "\"{name}_q1\": {:.digits$}, \"{name}_median\": {:.digits$}, \"{name}_q3\": {:.digits$}",
        q[0], q[1], q[2]
    )
}

/// The quartiles of a wall-clock rate over [`ROUNDS`] rounds. `run` does
/// one unit of work and returns (items done, seconds taken); after one
/// warm-up run, a round repeats it until its seconds reach [`ROUND`], and
/// its rate is its items over its seconds.
pub fn timed_rate(mut run: impl FnMut() -> (f64, f64)) -> [f64; 3] {
    run();
    let rates: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let (mut items, mut secs) = (0.0, 0.0);
            while secs < ROUND.as_secs_f64() {
                let (i, s) = run();
                items += i;
                secs += s;
            }
            items / secs
        })
        .collect();
    quartiles(&rates)
}

/// A sink that counts synopses and their encoded byte volume, optionally
/// forwarding to another sink.
#[derive(Default)]
pub struct ByteCountingSink {
    count: AtomicU64,
    bytes: AtomicU64,
    forward: Option<Arc<dyn SynopsisSink>>,
}

impl std::fmt::Debug for ByteCountingSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ByteCountingSink")
            .field("count", &self.count())
            .field("bytes", &self.bytes())
            .finish()
    }
}

impl ByteCountingSink {
    /// Count-only sink.
    pub fn new() -> ByteCountingSink {
        ByteCountingSink::default()
    }

    /// Counting sink that forwards every synopsis to `inner`.
    pub fn forwarding(inner: Arc<dyn SynopsisSink>) -> ByteCountingSink {
        ByteCountingSink {
            count: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            forward: Some(inner),
        }
    }

    /// Synopses seen.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Total encoded bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

impl SynopsisSink for ByteCountingSink {
    fn submit(&self, synopsis: TaskSynopsis) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.bytes
            .fetch_add(codec::encode(&synopsis).len() as u64, Ordering::Relaxed);
        if let Some(f) = &self.forward {
            f.submit(synopsis);
        }
    }
}

/// A reactor collector on a loopback port whose decoded batches are
/// counted and thrown away: the far end of the wire for benches that
/// measure the producer side (tracker → `AgentSink` → `Agent` → TCP) and
/// need the bytes to go somewhere real.
pub struct DrainingCollector {
    collector: saad_net::ReactorCollector,
    drain: std::thread::JoinHandle<u64>,
}

impl DrainingCollector {
    /// Bind on `127.0.0.1:0` with one reactor loop and start draining.
    pub fn spawn() -> DrainingCollector {
        let (batch_tx, batch_rx) = crossbeam_channel::unbounded();
        let collector = saad_net::ReactorCollector::bind(
            "127.0.0.1:0",
            batch_tx,
            Arc::new(SignatureInterner::new()),
            saad_net::ReactorCollectorConfig {
                loops: 1,
                ..saad_net::ReactorCollectorConfig::default()
            },
        )
        .expect("bind draining collector");
        let drain = std::thread::spawn(move || {
            let mut synopses = 0u64;
            while let Ok(batch) = batch_rx.recv() {
                assert!(batch.losses.is_empty(), "loopback lost synopses");
                synopses += batch.len() as u64;
            }
            synopses
        });
        DrainingCollector { collector, drain }
    }

    /// Where agents connect.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.collector.local_addr()
    }

    /// Stop the collector; returns how many synopses it decoded.
    pub fn finish(self) -> u64 {
        self.collector.shutdown();
        self.drain.join().expect("drain thread")
    }
}

/// An appender that captures rendered lines into one big string (the
/// baseline's input corpus) while counting bytes.
#[derive(Debug, Default)]
pub struct StringAppender {
    buf: Mutex<String>,
}

impl StringAppender {
    /// Create an empty capture buffer.
    pub fn new() -> StringAppender {
        StringAppender::default()
    }

    /// Take the captured corpus.
    pub fn take(&self) -> String {
        std::mem::take(&mut *self.buf.lock())
    }

    /// Captured bytes so far.
    pub fn bytes(&self) -> u64 {
        self.buf.lock().len() as u64
    }
}

impl Appender for StringAppender {
    fn append(&self, record: &Record) {
        self.buf.lock().push_str(&record.render_line());
    }
}

/// The standard write-heavy workload generator used across experiments.
pub fn workload(seed: u64, ops_per_sec: f64) -> WorkloadGenerator {
    WorkloadGenerator::new(
        OperationMix::write_heavy(),
        KeyChooser::zipfian(10_000),
        ops_per_sec,
        seed,
    )
}

/// Train an outlier model from a fault-free Cassandra run.
pub fn train_cassandra(cfg: ClusterConfig, mins: u64, rate: f64) -> Arc<OutlierModel> {
    let sink = Arc::new(ModelSink::new());
    let mut cluster = Cluster::new(cfg, sink.clone());
    let mut wl = workload(cfg.seed ^ 0xBEEF, rate);
    cluster.run(&mut wl, SimTime::from_mins(mins));
    Arc::new(sink.build(ModelConfig::default()))
}

/// Outcome of a detected Cassandra run.
#[derive(Debug)]
pub struct DetectedRun {
    /// Detected anomaly events.
    pub events: Vec<AnomalyEvent>,
    /// Cluster run output (throughput, errors, stats).
    pub run: RunOutput,
    /// Stage name registry of the run.
    pub stages: Arc<StageRegistry>,
}

/// Run a Cassandra cluster with an optional fault schedule on host 4
/// (index 3), classifying against `model` in stream.
pub fn run_cassandra_detected(
    cfg: ClusterConfig,
    model: Arc<OutlierModel>,
    fault: Option<FaultSchedule>,
    mins: u64,
    rate: f64,
) -> DetectedRun {
    let (events, (run, stages)) = detect(model, DetectorConfig::default(), |sink| {
        let mut cluster = Cluster::new(cfg, sink);
        if let Some(f) = fault {
            cluster.attach_fault(3, f);
        }
        let stages = cluster.instrumentation().stages_registry.clone();
        let mut wl = workload(cfg.seed, rate);
        (cluster.run(&mut wl, SimTime::from_mins(mins)), stages)
    });
    DetectedRun {
        events,
        run,
        stages,
    }
}

/// Detect on what `feed` submits through the production path: a
/// [`BatchSink`] into a model-started pool of two workers, with liveness
/// off so a crashed or finished host raises no `HostSilent`. `feed` must
/// drop every handle to the sink it is given before it
/// returns; that closes the stream. Returns the pool's events, stably
/// sorted by (window start, host, stage), and what `feed` returned. A
/// (host, stage) pair lives on one shard, so the order does not depend on
/// how the shards' outputs interleave.
pub fn detect<R>(
    model: Arc<OutlierModel>,
    config: DetectorConfig,
    feed: impl FnOnce(Arc<dyn SynopsisSink>) -> R,
) -> (Vec<AnomalyEvent>, R) {
    let interner = Arc::new(SignatureInterner::new());
    let (sink, rx) = BatchSink::new(1_024, interner.clone());
    let start = PoolStart::Model { model, interner };
    let supervisor = SupervisorConfig {
        silent_after: u64::MAX,
        ..SupervisorConfig::default()
    };
    let pool = spawn_analyzer_pool(start, config, supervisor, 2, rx)
        .expect("a model start needs no store");
    let sink = Arc::new(sink);
    let fed = feed(sink.clone());
    drop(Arc::into_inner(sink).expect("the feed released the sink"));
    let mut events: Vec<AnomalyEvent> = pool.events().iter().collect();
    pool.join().expect("pool ran to completion");
    events.sort_by_key(|e| (e.window_start, e.host, e.stage));
    (events, fed)
}

/// ASCII timeline in the style of the paper's Figures 9 and 10: one row
/// per `Stage(host)`, one column per minute; `F` = flow anomaly, `P` =
/// performance anomaly, `B` = both, `E` = error log record.
#[derive(Debug)]
pub struct Timeline {
    mins: usize,
    rows: BTreeMap<String, Vec<char>>,
}

impl Timeline {
    /// Create an empty timeline covering `mins` minutes.
    pub fn new(mins: usize) -> Timeline {
        Timeline {
            mins,
            rows: BTreeMap::new(),
        }
    }

    fn cell(&mut self, row: String, min: usize, mark: char) {
        if min >= self.mins {
            return;
        }
        let cells = self.rows.entry(row).or_insert_with(|| vec!['.'; self.mins]);
        let current = cells[min];
        cells[min] = match (current, mark) {
            ('.', m) => m,
            ('F', 'P') | ('P', 'F') => 'B',
            ('B', _) | (_, 'B') => 'B',
            (c, 'E') if c != '.' => c, // anomaly marks win over errors
            ('E', m) => m,
            (c, _) => c,
        };
    }

    /// Add anomaly events, labeling rows through `stages` and mapping
    /// host ids with `host_label`.
    pub fn add_events<F: Fn(HostId) -> Option<String>>(
        &mut self,
        events: &[AnomalyEvent],
        stages: &StageRegistry,
        host_label: F,
    ) {
        for e in events {
            let Some(host) = host_label(e.host) else {
                continue;
            };
            let name = stages.name(e.stage).unwrap_or_else(|| e.stage.to_string());
            let row = format!("{name}({host})");
            let min = e.window_start.as_mins_f64() as usize;
            let mark = match e.kind {
                AnomalyKind::FlowRare | AnomalyKind::FlowNew(_) => 'F',
                AnomalyKind::Performance(_) => 'P',
                AnomalyKind::HostSilent { .. } => 'S',
                AnomalyKind::ModelUnavailable => 'U',
            };
            self.cell(row, min, mark);
        }
    }

    /// Add error log marks.
    pub fn add_errors<F: Fn(HostId) -> Option<String>>(
        &mut self,
        errors: &[(SimTime, HostId)],
        label: &str,
        host_label: F,
    ) {
        for &(t, h) in errors {
            let Some(host) = host_label(h) else { continue };
            let row = format!("{label}({host})");
            let min = t.as_mins_f64() as usize;
            self.cell(row, min, 'E');
        }
    }

    /// Render the grid with an optional per-minute throughput footer.
    pub fn render(&self, throughput: Option<&[f64]>) -> String {
        let width = self
            .rows
            .keys()
            .map(|k| k.len())
            .max()
            .unwrap_or(10)
            .max("op/sec".len());
        let mut out = String::new();
        // Minute ruler.
        out.push_str(&format!("{:>width$} |", "minute"));
        for m in 0..self.mins {
            out.push(if m.is_multiple_of(10) { '|' } else { ' ' });
        }
        out.push('\n');
        for (row, cells) in &self.rows {
            out.push_str(&format!("{row:>width$} |"));
            for &c in cells {
                out.push(c);
            }
            out.push('\n');
        }
        if let Some(tp) = throughput {
            out.push_str(&format!("{:>width$} |", "op/sec"));
            for m in 0..self.mins {
                let v = tp.get(m).copied().unwrap_or(0.0);
                let c = if v <= 0.0 {
                    '_'
                } else {
                    // Log-ish bucket into 1..9.
                    let max = tp.iter().cloned().fold(1.0_f64, f64::max);
                    char::from_digit(((v / max) * 9.0).ceil().clamp(1.0, 9.0) as u32, 10)
                        .unwrap_or('9')
                };
                out.push(c);
            }
            out.push('\n');
        }
        out
    }

    /// Count anomaly cells per row (for summaries).
    pub fn row_counts(&self) -> Vec<(String, usize)> {
        self.rows
            .iter()
            .map(|(k, cells)| {
                (
                    k.clone(),
                    cells
                        .iter()
                        .filter(|&&c| c == 'F' || c == 'P' || c == 'B')
                        .count(),
                )
            })
            .collect()
    }
}

/// Count events by predicate in a time range (minutes).
pub fn events_between(events: &[AnomalyEvent], from_min: u64, to_min: u64, flow: bool) -> usize {
    events
        .iter()
        .filter(|e| {
            let m = e.window_start.as_mins_f64();
            m >= from_min as f64
                && m < to_min as f64
                && (if flow {
                    e.kind.is_flow()
                } else {
                    e.kind.is_performance()
                })
        })
        .count()
}

/// Standard detector window duration used by all figure benches.
pub fn minute_windows() -> SimDuration {
    SimDuration::from_mins(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use saad_core::Signature;
    use saad_core::StageId;

    #[test]
    fn byte_counting_sink_counts_and_forwards() {
        let inner = Arc::new(saad_core::tracker::VecSink::new());
        let sink = ByteCountingSink::forwarding(inner.clone());
        sink.submit(TaskSynopsis {
            host: HostId(1),
            stage: StageId(0),
            uid: saad_core::TaskUid(1),
            start: SimTime::ZERO,
            duration: SimDuration::from_micros(10),
            log_points: vec![],
        });
        assert_eq!(sink.count(), 1);
        assert!(sink.bytes() > 0);
        assert_eq!(inner.len(), 1);
    }

    #[test]
    fn string_appender_captures_lines() {
        let a = StringAppender::new();
        a.append(&Record {
            point: saad_logging::LogPointId(0),
            level: saad_logging::Level::Debug,
            logger: "X".into(),
            message: "hello".into(),
        });
        assert!(a.bytes() > 0);
        assert!(a.take().contains("hello"));
        assert_eq!(a.bytes(), 0);
    }

    #[test]
    fn timeline_marks_and_merges() {
        let stages = StageRegistry::new();
        let table = stages.register("Table");
        let events = vec![
            AnomalyEvent {
                host: HostId(4),
                stage: table,
                window_start: SimTime::from_mins(3),
                kind: AnomalyKind::FlowRare,
                p_value: Some(1e-9),
                outliers: 5,
                window_tasks: 100,
                completeness: 1.0,
            },
            AnomalyEvent {
                host: HostId(4),
                stage: table,
                window_start: SimTime::from_mins(3),
                kind: AnomalyKind::Performance(Signature::empty()),
                p_value: Some(1e-5),
                outliers: 9,
                window_tasks: 100,
                completeness: 1.0,
            },
        ];
        let mut tl = Timeline::new(10);
        tl.add_events(&events, &stages, |h| Some(h.0.to_string()));
        let s = tl.render(None);
        assert!(s.contains("Table(4)"));
        assert!(s.lines().any(|l| l.contains('B')), "{s}");
        assert_eq!(tl.row_counts(), vec![("Table(4)".to_owned(), 1)]);
    }

    #[test]
    fn events_between_filters_kind_and_time() {
        let stages = StageRegistry::new();
        let st = stages.register("S");
        let mk = |min: u64, flow: bool| AnomalyEvent {
            host: HostId(1),
            stage: st,
            window_start: SimTime::from_mins(min),
            kind: if flow {
                AnomalyKind::FlowRare
            } else {
                AnomalyKind::Performance(Signature::empty())
            },
            p_value: None,
            outliers: 1,
            window_tasks: 10,
            completeness: 1.0,
        };
        let events = vec![mk(1, true), mk(5, true), mk(5, false), mk(9, false)];
        assert_eq!(events_between(&events, 0, 4, true), 1);
        assert_eq!(events_between(&events, 4, 10, true), 1);
        assert_eq!(events_between(&events, 4, 10, false), 2);
    }

    #[test]
    fn timed_rate_repeats_a_run_until_each_round_lasts_a_round() {
        // Runs report a quarter of a round each: one warm-up, then four
        // per round.
        let mut runs = 0;
        let quarter = ROUND.as_secs_f64() / 4.0;
        let rate = timed_rate(|| {
            runs += 1;
            (runs as f64, quarter)
        });
        assert_eq!(runs, 1 + 4 * ROUNDS);
        // Round r (from 0) sums runs 4r+2 ..= 4r+5.
        let round = |r: f64| (16.0 * r + 14.0) / ROUND.as_secs_f64();
        let mid = (ROUNDS / 2) as f64;
        assert_eq!(rate, [round(mid - 1.0), round(mid), round(mid + 1.0)]);
    }

    #[test]
    fn scaled_mins_obeys_env_default() {
        // Default (no env): fast scale.
        assert_eq!(scaled_mins(50, 10), if full_scale() { 50 } else { 10 });
    }
}
