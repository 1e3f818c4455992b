//! Shared harness code for the experiment benches.
//!
//! Every table and figure in the paper's evaluation section has a bench
//! target under `benches/` that regenerates it; this library holds the
//! pieces they share: run-scale control, the timed rounds every
//! wall-clock figure is read from, synopsis byte accounting, corpus
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
use saad_core::detector::{AnomalyEvent, AnomalyKind, DetectorConfig};
use saad_core::intern::SignatureInterner;
use saad_core::model::{ModelConfig, OutlierModel};
use saad_core::pipeline::{spawn_analyzer_pool, BatchSink, ModelSink, PoolStart, SupervisorConfig};
use saad_core::synopsis::{SynopsisHead, TaskSynopsis};
use saad_core::tracker::SynopsisSink;
use saad_core::transport::{FramePayload, FRAME_HEADER_LEN};
use saad_core::{HostId, StageRegistry};
use saad_fault::FaultSchedule;
use saad_logging::appender::{Appender, Record};
use saad_logging::LogPointId;
use saad_sim::{SimDuration, SimTime};
use saad_workload::{KeyChooser, OperationMix, WorkloadGenerator};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// The quartiles, in ns per item, of `routine` over inputs from `setup`,
/// one call doing `items` items. A span builds k inputs, then starts the
/// clock and runs `routine` on each, dropping each output before the clock
/// stops; k doubles from 1 until a span lasts `ROUND / 100`, and
/// [`timed_rate`] times spans of that k.
pub fn timed_ns<I, O>(
    items: u64,
    setup: impl FnMut() -> I,
    routine: impl FnMut(I) -> O,
) -> [f64; 3] {
    let epoch = Instant::now();
    spans_ns(items, setup, routine, || epoch.elapsed().as_secs_f64())
}

/// [`timed_ns`] of `routine`, printed as `name: median [q1, q3] ns`.
pub fn ns_row<I, O>(name: &str, items: u64, setup: impl FnMut() -> I, routine: impl FnMut(I) -> O) {
    let q = timed_ns(items, setup, routine);
    println!("{name}: {} ns", quartile_text(q, 1));
}

/// [`timed_ns`] on the clock `now`, in seconds.
fn spans_ns<I, O>(
    items: u64,
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(I) -> O,
    mut now: impl FnMut() -> f64,
) -> [f64; 3] {
    let mut inputs = Vec::new();
    let mut span = |k: usize| {
        inputs.extend((0..k).map(|_| setup()));
        let start = now();
        for input in inputs.drain(..) {
            drop(black_box(routine(input)));
        }
        now() - start
    };
    let mut k = 1;
    while span(k) < ROUND.as_secs_f64() / 100.0 {
        k *= 2;
    }
    // Each of the rates' quartiles is one round's rate (five rounds), so
    // their inverses are the quartiles of the rounds' ns per item.
    let [q1, median, q3] = timed_rate(|| ((k as u64 * items) as f64, span(k)));
    [1e9 / q3, 1e9 / median, 1e9 / q1]
}

/// Synopses per frame the agents of the paper's harnesses ship
/// (`Agent::sink(AGENT_BATCH)`).
pub const AGENT_BATCH: usize = 48;

/// Bytes the wire adds to a frame's payload: its header, and the `u32`
/// length prefix `saad_net::protocol::write_message` puts before it.
const FRAMING: usize = FRAME_HEADER_LEN + 4;

/// A sink that counts synopses and the bytes an agent ships for them:
/// each host's synopses framed in payloads of [`AGENT_BATCH`], as its
/// agent frames them, every frame with its header and length prefix.
#[derive(Debug, Default)]
pub struct ByteCountingSink {
    count: AtomicU64,
    shipped: AtomicU64,
    pending: Mutex<HashMap<HostId, FramePayload>>,
}

impl ByteCountingSink {
    /// An empty sink.
    pub fn new() -> ByteCountingSink {
        ByteCountingSink::default()
    }

    /// Synopses seen.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Bytes on the wire: every full frame shipped, and each host's last,
    /// partial one.
    pub fn bytes(&self) -> u64 {
        let pending = self.pending.lock();
        let tails = pending.values().filter(|p| !p.is_empty());
        let tail_bytes: usize = tails.map(|p| FRAMING + p.bytes().len()).sum();
        self.shipped.load(Ordering::Relaxed) + tail_bytes as u64
    }

    /// Count `payload` as one frame on the wire, and empty it.
    fn ship(&self, payload: &mut FramePayload) {
        let bytes = (FRAMING + payload.bytes().len()) as u64;
        self.shipped.fetch_add(bytes, Ordering::Relaxed);
        payload.clear();
    }
}

impl SynopsisSink for ByteCountingSink {
    fn submit(&self, synopsis: TaskSynopsis) {
        self.submit_parts(synopsis.head(), &synopsis.log_points);
    }

    fn submit_parts(&self, head: SynopsisHead, points: &[(LogPointId, u32)]) {
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut pending = self.pending.lock();
        let payload = pending.entry(head.host).or_default();
        if !payload.push_parts(&head, points) {
            self.ship(payload);
            let pushed = payload.push_parts(&head, points);
            debug_assert!(pushed, "an empty payload takes any synopsis");
        }
        if payload.synopses() == AGENT_BATCH as u64 {
            self.ship(payload);
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
    use std::cell::{Cell, RefCell};

    #[test]
    fn byte_counting_sink_counts_the_frames_an_agent_ships() {
        let task = |host: u16, uid: u64| TaskSynopsis {
            host: HostId(host),
            stage: StageId(0),
            uid: saad_core::TaskUid(uid),
            start: SimTime::ZERO,
            duration: SimDuration::from_micros(10),
            log_points: vec![(LogPointId(4), 2)],
        };
        let sink = ByteCountingSink::new();
        assert_eq!(sink.bytes(), 0);
        // Host 1 fills one frame and starts another; host 2 has one task.
        let one: Vec<TaskSynopsis> = (0..AGENT_BATCH as u64 + 3).map(|u| task(1, u)).collect();
        one.iter().cloned().for_each(|s| sink.submit(s));
        sink.submit(task(2, 0));
        let frames = [&one[..AGENT_BATCH], &one[AGENT_BATCH..], &[task(2, 0)]];
        let want: usize = frames
            .iter()
            .map(|f| {
                let frame = saad_core::transport::FrameSender::new(f[0].host).encode_frame(f);
                let mut message = Vec::new();
                saad_net::protocol::write_message(&mut message, &frame).unwrap();
                message.len()
            })
            .sum();
        assert_eq!(sink.count(), AGENT_BATCH as u64 + 4);
        assert_eq!(sink.bytes(), want as u64);
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

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Step {
        Setup,
        Clock,
        Routine,
        Drop,
    }

    struct Output<'a>(&'a RefCell<Vec<Step>>);

    impl Drop for Output<'_> {
        fn drop(&mut self) {
            self.0.borrow_mut().push(Step::Drop);
        }
    }

    #[test]
    fn timed_ns_builds_a_span_before_its_clock_and_drops_within_it() {
        // A fake clock on which each routine call takes 1 ms: spans of 1,
        // 2, 4, 8 and 16 calls calibrate, then every span is 16 calls.
        let log = RefCell::new(Vec::new());
        let calls = Cell::new(0u32);
        let ns = spans_ns(
            4,
            || log.borrow_mut().push(Step::Setup),
            |()| {
                calls.set(calls.get() + 1);
                log.borrow_mut().push(Step::Routine);
                Output(&log)
            },
            || {
                log.borrow_mut().push(Step::Clock);
                f64::from(calls.get()) / 1e3
            },
        );
        let log = log.into_inner();
        // Cut at the clock reads: setups, a span, setups, a span, ..., and
        // nothing after the last span.
        let parts: Vec<&[Step]> = log.split(|&s| s == Step::Clock).collect();
        let (last, pairs) = parts.split_last().expect("spans ran");
        assert!(last.is_empty());
        let mut sizes = Vec::new();
        for pair in pairs.chunks(2) {
            let (setups, span) = (pair[0], pair[1]);
            assert!(setups.iter().all(|&s| s == Step::Setup));
            assert_eq!(span, [Step::Routine, Step::Drop].repeat(setups.len()));
            sizes.push(setups.len());
        }
        assert_eq!(sizes[..5], [1, 2, 4, 8, 16]);
        assert!(sizes[5..].iter().all(|&k| k == 16));
        // 1 ms a call over 4 items a call.
        for q in ns {
            assert!((q - 250_000.0).abs() < 1e-6, "{ns:?}");
        }
    }

    #[test]
    fn scaled_mins_obeys_env_default() {
        // Default (no env): fast scale.
        assert_eq!(scaled_mins(50, 10), if full_scale() { 50 } else { 10 });
    }
}
