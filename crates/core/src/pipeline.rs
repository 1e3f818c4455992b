//! Real-time streaming pipeline: tracker → channel → analyzer thread.
//!
//! In the paper, synopses are streamed from every node to a centralized
//! statistical analyzer that handles "streams of task synopses as fast as
//! they are generated, up to ... 1500 task synopses per second" on one
//! core. This module provides that wiring for the live (threaded) runtime:
//! a [`ChannelSink`] for trackers and an analyzer thread that classifies,
//! windows, and emits [`AnomalyEvent`]s in real time.
//!
//! # Robustness
//!
//! Monitoring must never take the server down, and it must never lie about
//! what it saw. Three mechanisms enforce that:
//!
//! * **Bounded backpressure** — [`ChannelSink::bounded`] caps the queue
//!   between trackers and the analyzer; an [`OverloadPolicy`] decides what
//!   happens when it fills. Every dropped synopsis is counted per host in
//!   [`SinkStats`]; nothing is discarded silently.
//! * **Supervision** — [`spawn_supervised_analyzer`] wraps the detector in
//!   a panic boundary: a crash restores the detector from its latest
//!   snapshot, replays the synopses seen since, skips the poison synopsis,
//!   and keeps going (up to [`SupervisorConfig::max_restarts`]).
//! * **Liveness** — the supervisor tracks when each host last produced a
//!   synopsis; a host silent for more than
//!   [`SupervisorConfig::silent_after`] detection windows raises an
//!   [`AnomalyKind::HostSilent`] event, so a dead link is an explicit
//!   anomaly instead of a quiet gap in the data.
//!
//! # Scale-out
//!
//! [`spawn_analyzer_pool`] shards the analyzer across worker threads by
//! `hash(host, stage)`: since all windowed detector state is keyed per
//! `(host, stage)`, sharding preserves the single-threaded event stream
//! exactly (as a multiset). Shards share one [`SignatureInterner`] and one
//! compiled model, keep the same supervision semantics per shard, and
//! receive whole batches in a single channel send (see [`feed_frame`] for
//! the transport glue).

use crate::batch::SynopsisBatch;
use crate::detector::{
    AnomalyDetector, AnomalyEvent, AnomalyKind, DetectorConfig, DetectorSnapshot,
};
use crate::feature::{FeatureVector, InternedFeature};
use crate::intern::{SigId, SignatureInterner};
use crate::model::{
    CompiledModel, ConfigError, ModelBuilder, ModelConfig, OutlierModel, VerdictMask,
};
use crate::selfmon::{MetaMonitor, MetaStage};
use crate::store::{Checkpoint, CheckpointError, CheckpointStore};
use crate::synopsis::TaskSynopsis;
use crate::tracker::SynopsisSink;
use crate::transport::{FrameOutcome, LossReport};
use crate::Signature;
use crate::{HostId, StageId};
use crossbeam_channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use saad_obs::{Histogram, Registry};
use saad_sim::{SimDuration, SimTime};
use saad_stats::{DecayedFrequency, PageHinkley, QuantileSketch};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a bounded [`ChannelSink`] does when the queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Discard the synopsis being submitted (the newest). The producer
    /// never waits.
    DropNewest,
    /// Evict the oldest queued synopsis to make room. The producer never
    /// waits; the analyzer sees the freshest data.
    DropOldest,
    /// Wait up to `timeout` for space, then discard the synopsis. Bounds
    /// how long monitoring may ever stall a server thread.
    Block {
        /// Longest a single submit may wait for queue space.
        timeout: Duration,
    },
}

/// Exact counts of synopses a sink dropped, by reason.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropCounts {
    /// Dropped by [`OverloadPolicy::DropNewest`] (or bounded-retry
    /// exhaustion under [`OverloadPolicy::DropOldest`]).
    pub newest: u64,
    /// Evicted by [`OverloadPolicy::DropOldest`].
    pub oldest: u64,
    /// Timed out under [`OverloadPolicy::Block`].
    pub timed_out: u64,
    /// Discarded because the analyzer is gone.
    pub disconnected: u64,
}

impl DropCounts {
    /// Sum over all reasons.
    pub fn total(&self) -> u64 {
        self.newest + self.oldest + self.timed_out + self.disconnected
    }
}

/// Per-host drop counters, updated lock-free once allocated. Producers on
/// different hosts never contend on a shared mutex; each reason is a plain
/// relaxed atomic increment.
#[derive(Debug, Default)]
struct HostDropCounters {
    newest: AtomicU64,
    oldest: AtomicU64,
    timed_out: AtomicU64,
    disconnected: AtomicU64,
}

impl HostDropCounters {
    fn snapshot(&self) -> DropCounts {
        DropCounts {
            newest: self.newest.load(Ordering::Relaxed),
            oldest: self.oldest.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            disconnected: self.disconnected.load(Ordering::Relaxed),
        }
    }
}

/// Shared, exact drop accounting for one sink (and its clones).
///
/// The per-host table takes a write lock only the first time a host drops
/// anything; every subsequent drop is a read-lock plus one relaxed atomic
/// add, so overloaded producers do not serialize on a global mutex.
#[derive(Debug, Default)]
pub struct SinkStats {
    total: AtomicU64,
    by_host: parking_lot::RwLock<HashMap<HostId, Arc<HostDropCounters>>>,
}

impl SinkStats {
    fn counters(&self, host: HostId) -> Arc<HostDropCounters> {
        if let Some(c) = self.by_host.read().get(&host) {
            return c.clone();
        }
        self.by_host.write().entry(host).or_default().clone()
    }

    fn record(&self, host: HostId, bump: impl FnOnce(&HostDropCounters)) {
        self.total.fetch_add(1, Ordering::Relaxed);
        bump(&self.counters(host));
    }

    /// Total synopses dropped, all hosts and reasons.
    pub fn dropped(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Per-host drop counts.
    pub fn drops_by_host(&self) -> HashMap<HostId, DropCounts> {
        self.by_host
            .read()
            .iter()
            .map(|(&host, c)| (host, c.snapshot()))
            .collect()
    }

    /// Drop counts for one host (zeroes if nothing was dropped).
    pub fn drops_for(&self, host: HostId) -> DropCounts {
        self.by_host
            .read()
            .get(&host)
            .map(|c| c.snapshot())
            .unwrap_or_default()
    }

    /// Drop counts summed over every host, broken down by reason.
    pub fn drop_totals(&self) -> DropCounts {
        self.by_host
            .read()
            .values()
            .map(|c| c.snapshot())
            .fold(DropCounts::default(), |acc, c| DropCounts {
                newest: acc.newest + c.newest,
                oldest: acc.oldest + c.oldest,
                timed_out: acc.timed_out + c.timed_out,
                disconnected: acc.disconnected + c.disconnected,
            })
    }

    /// Total drops behind an optionally attached stats handle — the one
    /// shared helper for consumer-side handles ([`AnalyzerHandle`],
    /// [`PoolHandle`]) that may or may not have stats attached.
    pub fn dropped_of(stats: Option<&Arc<SinkStats>>) -> u64 {
        stats.map_or(0, |s| s.dropped())
    }

    /// Per-host drop counts behind an optionally attached stats handle;
    /// empty when none is attached. Companion of
    /// [`SinkStats::dropped_of`].
    pub fn drops_by_host_of(stats: Option<&Arc<SinkStats>>) -> HashMap<HostId, DropCounts> {
        stats.map(|s| s.drops_by_host()).unwrap_or_default()
    }

    /// Expose this sink's drop accounting in `registry`, one counter
    /// series per drop reason, labelled with the queue name. Scrape-time
    /// only: the hot drop path is untouched.
    pub fn register_metrics(self: &Arc<Self>, registry: &Registry, queue: &str) {
        const NAME: &str = "saad_sink_dropped_total";
        const HELP: &str = "Synopses dropped by a bounded sink, by reason";
        let stats = Arc::clone(self);
        registry.register_counter_fn(NAME, HELP, &[("queue", queue), ("reason", "newest")], {
            move || stats.drop_totals().newest
        });
        let stats = Arc::clone(self);
        registry.register_counter_fn(NAME, HELP, &[("queue", queue), ("reason", "oldest")], {
            move || stats.drop_totals().oldest
        });
        let stats = Arc::clone(self);
        registry.register_counter_fn(NAME, HELP, &[("queue", queue), ("reason", "timed_out")], {
            move || stats.drop_totals().timed_out
        });
        let stats = Arc::clone(self);
        registry.register_counter_fn(
            NAME,
            HELP,
            &[("queue", queue), ("reason", "disconnected")],
            move || stats.drop_totals().disconnected,
        );
    }
}

/// A [`SynopsisSink`] that streams synopses over a channel to the analyzer.
///
/// [`ChannelSink::new`] gives the paper's unbounded queue;
/// [`ChannelSink::bounded`] adds backpressure with a chosen
/// [`OverloadPolicy`]. In both cases every synopsis that does not reach
/// the queue is counted in [`SinkStats`] — dropping is a measured,
/// observable act, never a silent one.
#[derive(Debug, Clone)]
pub struct ChannelSink {
    tx: Sender<TaskSynopsis>,
    /// Receiver clone used to evict under [`OverloadPolicy::DropOldest`].
    evict: Option<Receiver<TaskSynopsis>>,
    policy: Option<OverloadPolicy>,
    stats: Arc<SinkStats>,
}

/// Bound on eviction retries under [`OverloadPolicy::DropOldest`] before a
/// submit gives up and counts the synopsis as a newest-drop.
const DROP_OLDEST_RETRIES: usize = 64;

impl ChannelSink {
    /// Create an unbounded sink/receiver pair. Submits never block and
    /// never drop while the analyzer lives; if the analyzer is gone the
    /// synopsis is counted as a disconnected drop.
    pub fn new() -> (ChannelSink, Receiver<TaskSynopsis>) {
        let (tx, rx) = unbounded();
        (
            ChannelSink {
                tx,
                evict: None,
                policy: None,
                stats: Arc::new(SinkStats::default()),
            },
            rx,
        )
    }

    /// Create a bounded sink/receiver pair holding at most `capacity`
    /// queued synopses, resolving overload with `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn bounded(
        capacity: usize,
        policy: OverloadPolicy,
    ) -> (ChannelSink, Receiver<TaskSynopsis>) {
        assert!(capacity > 0, "sink capacity must be positive");
        let (tx, rx) = bounded(capacity);
        let evict = matches!(policy, OverloadPolicy::DropOldest).then(|| rx.clone());
        (
            ChannelSink {
                tx,
                evict,
                policy: Some(policy),
                stats: Arc::new(SinkStats::default()),
            },
            rx,
        )
    }

    /// Shared drop statistics (live — counts keep updating).
    pub fn stats(&self) -> Arc<SinkStats> {
        self.stats.clone()
    }

    /// Total synopses this sink (and its clones) dropped.
    pub fn dropped(&self) -> u64 {
        self.stats.dropped()
    }

    /// Per-host drop counts.
    pub fn drops_by_host(&self) -> HashMap<HostId, DropCounts> {
        self.stats.drops_by_host()
    }

    /// Expose this sink's queue depth and drop accounting in `registry`
    /// under the given queue name. `rx` is the receiver half returned
    /// alongside this sink — a clone of it measures depth without ever
    /// consuming a message, and extra receiver clones do not keep the
    /// analyzer alive once every sender is gone.
    pub fn register_metrics(&self, registry: &Registry, queue: &str, rx: &Receiver<TaskSynopsis>) {
        let depth = rx.clone();
        registry.register_gauge_fn(
            "saad_sink_queue_depth",
            "Synopses queued between producers and the analyzer",
            &[("queue", queue)],
            move || depth.len() as i64,
        );
        self.stats.register_metrics(registry, queue);
    }

    fn submit_bounded(&self, policy: OverloadPolicy, synopsis: TaskSynopsis) {
        match policy {
            OverloadPolicy::DropNewest => match self.tx.try_send(synopsis) {
                Ok(()) => {}
                Err(TrySendError::Full(s)) => self.stats.record(s.host, |c| {
                    c.newest.fetch_add(1, Ordering::Relaxed);
                }),
                Err(TrySendError::Disconnected(s)) => self.stats.record(s.host, |c| {
                    c.disconnected.fetch_add(1, Ordering::Relaxed);
                }),
            },
            OverloadPolicy::DropOldest => {
                let evict = self.evict.as_ref().expect("DropOldest sink has receiver");
                let mut synopsis = synopsis;
                for _ in 0..DROP_OLDEST_RETRIES {
                    match self.tx.try_send(synopsis) {
                        Ok(()) => return,
                        Err(TrySendError::Full(s)) => {
                            synopsis = s;
                            if let Ok(old) = evict.try_recv() {
                                self.stats.record(old.host, |c| {
                                    c.oldest.fetch_add(1, Ordering::Relaxed);
                                });
                            }
                        }
                        Err(TrySendError::Disconnected(s)) => {
                            self.stats.record(s.host, |c| {
                                c.disconnected.fetch_add(1, Ordering::Relaxed);
                            });
                            return;
                        }
                    }
                }
                // Pathological contention: other producers refilled the
                // slot we evicted, every time. Give up on this synopsis.
                self.stats.record(synopsis.host, |c| {
                    c.newest.fetch_add(1, Ordering::Relaxed);
                });
            }
            OverloadPolicy::Block { timeout } => match self.tx.send_timeout(synopsis, timeout) {
                Ok(()) => {}
                Err(crossbeam_channel::SendTimeoutError::Timeout(s)) => {
                    self.stats.record(s.host, |c| {
                        c.timed_out.fetch_add(1, Ordering::Relaxed);
                    })
                }
                Err(crossbeam_channel::SendTimeoutError::Disconnected(s)) => {
                    self.stats.record(s.host, |c| {
                        c.disconnected.fetch_add(1, Ordering::Relaxed);
                    })
                }
            },
        }
    }
}

impl SynopsisSink for ChannelSink {
    fn submit(&self, synopsis: TaskSynopsis) {
        match self.policy {
            None => {
                // Unbounded: only a dead analyzer can refuse the synopsis.
                if let Err(e) = self.tx.send(synopsis) {
                    self.stats.record(e.0.host, |c| {
                        c.disconnected.fetch_add(1, Ordering::Relaxed);
                    });
                }
            }
            Some(policy) => self.submit_bounded(policy, synopsis),
        }
    }
}

/// A [`SynopsisSink`] that accumulates synopses into SoA
/// [`SynopsisBatch`]es and emits ONE channel send per full batch — the
/// producer half of the batch-first hot path (pair the receiver with
/// [`spawn_batch_analyzer_pool`], sharing the same interner).
///
/// Interning happens here, at the edge, so everything downstream works in
/// dense column arrays. Dropping the sink flushes the partial batch;
/// [`BatchSink::flush`] forces one out early (e.g. at a quiesce point).
#[derive(Debug)]
pub struct BatchSink {
    tx: Sender<SynopsisBatch>,
    interner: Arc<SignatureInterner>,
    capacity: usize,
    buf: parking_lot::Mutex<SynopsisBatch>,
}

impl BatchSink {
    /// Create a sink batching `capacity` synopses per send, interning
    /// into `interner`, plus the receiver for the batch stream.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(
        capacity: usize,
        interner: Arc<SignatureInterner>,
    ) -> (BatchSink, Receiver<SynopsisBatch>) {
        assert!(capacity > 0, "batch capacity must be positive");
        let (tx, rx) = unbounded();
        let sink = BatchSink {
            tx,
            interner,
            capacity,
            buf: parking_lot::Mutex::new(SynopsisBatch::with_capacity(capacity)),
        };
        (sink, rx)
    }

    /// Send whatever is buffered, even a partial batch. No send happens
    /// when the buffer is empty.
    pub fn flush(&self) {
        let mut buf = self.buf.lock();
        if buf.is_empty() {
            return;
        }
        let full = std::mem::replace(&mut *buf, SynopsisBatch::with_capacity(self.capacity));
        let _ = self.tx.send(full);
    }
}

impl SynopsisSink for BatchSink {
    fn submit(&self, synopsis: TaskSynopsis) {
        let mut buf = self.buf.lock();
        buf.push_synopsis(&synopsis, &self.interner);
        if buf.len() >= self.capacity {
            let full = std::mem::replace(&mut *buf, SynopsisBatch::with_capacity(self.capacity));
            let _ = self.tx.send(full);
        }
    }
}

impl Drop for BatchSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A sink that feeds synopses straight into a [`crate::model::ModelBuilder`] —
/// train from a simulated run without buffering millions of synopses.
#[derive(Debug, Default)]
pub struct ModelSink {
    builder: parking_lot::Mutex<crate::model::ModelBuilder>,
}

impl ModelSink {
    /// Create a sink over an empty builder.
    pub fn new() -> ModelSink {
        ModelSink::default()
    }

    /// Number of synopses observed.
    pub fn observed(&self) -> u64 {
        self.builder.lock().observed()
    }

    /// Build the model from everything observed so far.
    pub fn build(&self, config: crate::model::ModelConfig) -> OutlierModel {
        self.builder.lock().build(config)
    }
}

impl SynopsisSink for ModelSink {
    fn submit(&self, synopsis: TaskSynopsis) {
        self.builder.lock().observe(&synopsis);
    }
}

/// A sink that classifies and windows synopses inline — the single-threaded
/// analogue of the analyzer thread, used by the deterministic simulators.
#[derive(Debug)]
pub struct DetectorSink {
    detector: parking_lot::Mutex<AnomalyDetector>,
    events: parking_lot::Mutex<Vec<AnomalyEvent>>,
}

impl DetectorSink {
    /// Create a sink over a fresh detector.
    pub fn new(model: Arc<OutlierModel>, config: DetectorConfig) -> DetectorSink {
        DetectorSink {
            detector: parking_lot::Mutex::new(AnomalyDetector::new(model, config)),
            events: parking_lot::Mutex::new(Vec::new()),
        }
    }

    /// Flush remaining windows and return every event detected.
    pub fn finish(self) -> Vec<AnomalyEvent> {
        let mut events = self.events.into_inner();
        events.extend(self.detector.into_inner().flush());
        events
    }

    /// Events detected so far (without flushing open windows).
    pub fn events_so_far(&self) -> Vec<AnomalyEvent> {
        self.events.lock().clone()
    }

    /// Synopses observed so far.
    pub fn tasks_seen(&self) -> u64 {
        self.detector.lock().tasks_seen()
    }
}

impl SynopsisSink for DetectorSink {
    fn submit(&self, synopsis: TaskSynopsis) {
        let feature = FeatureVector::from(&synopsis);
        let new_events = self.detector.lock().observe(&feature);
        if !new_events.is_empty() {
            self.events.lock().extend(new_events);
        }
    }
}

/// Why an analyzer thread failed to return a detector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalyzerError {
    /// The analyzer thread panicked (unsupervised, or outside the panic
    /// boundary).
    Panicked(String),
    /// A supervised analyzer exhausted its restart budget.
    RestartsExhausted {
        /// Restarts consumed before giving up.
        restarts: u32,
        /// Message of the final panic.
        panic: String,
    },
}

impl fmt::Display for AnalyzerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzerError::Panicked(msg) => write!(f, "analyzer thread panicked: {msg}"),
            AnalyzerError::RestartsExhausted { restarts, panic } => write!(
                f,
                "analyzer gave up after {restarts} restart(s); last panic: {panic}"
            ),
        }
    }
}

impl std::error::Error for AnalyzerError {}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Handle to a running analyzer thread.
#[derive(Debug)]
pub struct AnalyzerHandle {
    events: Receiver<AnomalyEvent>,
    processed: Arc<AtomicU64>,
    restarts: Arc<AtomicU64>,
    skipped: Arc<AtomicU64>,
    sink_stats: Option<Arc<SinkStats>>,
    join: Option<JoinHandle<Result<AnomalyDetector, AnalyzerError>>>,
}

impl AnalyzerHandle {
    /// Attach the sink's drop statistics so producers' losses are visible
    /// from the consumer side.
    pub fn with_sink_stats(mut self, stats: Arc<SinkStats>) -> AnalyzerHandle {
        self.sink_stats = Some(stats);
        self
    }

    /// Receiver of detected anomaly events.
    pub fn events(&self) -> &Receiver<AnomalyEvent> {
        &self.events
    }

    /// Synopses received by the analyzer so far (including any skipped
    /// after a supervised restart).
    pub fn processed(&self) -> u64 {
        self.processed.load(Ordering::Relaxed)
    }

    /// Times a supervised analyzer restarted after a panic (0 for
    /// [`spawn_analyzer`]).
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// Poison synopses a supervised analyzer skipped (0 for
    /// [`spawn_analyzer`]).
    pub fn skipped(&self) -> u64 {
        self.skipped.load(Ordering::Relaxed)
    }

    /// Synopses dropped by the attached sink (0 unless
    /// [`AnalyzerHandle::with_sink_stats`] was used).
    pub fn dropped(&self) -> u64 {
        SinkStats::dropped_of(self.sink_stats.as_ref())
    }

    /// Per-host drop counts from the attached sink (empty unless
    /// [`AnalyzerHandle::with_sink_stats`] was used).
    pub fn drops_by_host(&self) -> HashMap<HostId, DropCounts> {
        SinkStats::drops_by_host_of(self.sink_stats.as_ref())
    }

    /// Drain any events currently queued without blocking.
    pub fn drain_events(&self) -> Vec<AnomalyEvent> {
        let mut out = Vec::new();
        while let Ok(e) = self.events.try_recv() {
            out.push(e);
        }
        out
    }

    /// Wait for the analyzer to finish (all sinks dropped), returning the
    /// detector for inspection. Remaining windows are flushed first.
    ///
    /// # Errors
    ///
    /// Returns [`AnalyzerError::Panicked`] if the analyzer thread died, or
    /// [`AnalyzerError::RestartsExhausted`] if a supervised analyzer ran
    /// out of restarts.
    pub fn join(mut self) -> Result<AnomalyDetector, AnalyzerError> {
        match self.join.take().expect("join called once").join() {
            Ok(result) => result,
            Err(payload) => Err(AnalyzerError::Panicked(panic_message(payload.as_ref()))),
        }
    }
}

/// Spawn the analyzer thread over a synopsis stream.
///
/// The thread runs until every [`ChannelSink`] clone feeding `rx` is
/// dropped, then flushes remaining windows and exits.
///
/// # Example
///
/// ```
/// use saad_core::pipeline::{spawn_analyzer, ChannelSink};
/// use saad_core::prelude::*;
/// use std::sync::Arc;
///
/// let model = Arc::new(ModelBuilder::new().build(ModelConfig::default()));
/// let (sink, rx) = ChannelSink::new();
/// let handle = spawn_analyzer(model, DetectorConfig::default(), rx);
/// drop(sink); // close the stream
/// let detector = handle.join().expect("analyzer ran to completion");
/// assert_eq!(detector.tasks_seen(), 0);
/// ```
pub fn spawn_analyzer(
    model: Arc<OutlierModel>,
    config: DetectorConfig,
    rx: Receiver<TaskSynopsis>,
) -> AnalyzerHandle {
    let (event_tx, event_rx) = unbounded();
    let processed = Arc::new(AtomicU64::new(0));
    let processed_inner = processed.clone();
    let join = std::thread::Builder::new()
        .name("saad-analyzer".into())
        .spawn(move || {
            let mut detector = AnomalyDetector::new(model, config);
            for synopsis in rx.iter() {
                processed_inner.fetch_add(1, Ordering::Relaxed);
                let feature = FeatureVector::from(&synopsis);
                for event in detector.observe(&feature) {
                    let _ = event_tx.send(event);
                }
            }
            for event in detector.flush() {
                let _ = event_tx.send(event);
            }
            Ok(detector)
        })
        .expect("spawn analyzer thread");
    AnalyzerHandle {
        events: event_rx,
        processed,
        restarts: Arc::new(AtomicU64::new(0)),
        skipped: Arc::new(AtomicU64::new(0)),
        sink_stats: None,
        join: Some(join),
    }
}

/// Tuning for [`spawn_supervised_analyzer`].
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Floor on the synopses observed between two restart snapshots. The
    /// supervisor snapshots once the replay tail holds
    /// `max(snapshot_every, 64 × open windows)` synopses: a snapshot copies
    /// every open window, so spacing snapshots in proportion to them keeps
    /// the copying a fixed small share of detection, and a restart replays
    /// at most that tail — a constant factor over the restore copy it pays
    /// anyway.
    pub snapshot_every: u64,
    /// Restarts allowed before the supervisor gives up with
    /// [`AnalyzerError::RestartsExhausted`].
    pub max_restarts: u32,
    /// A host with no synopses for more than this many detection windows
    /// (while other hosts advance the stream clock) raises
    /// [`AnomalyKind::HostSilent`].
    pub silent_after: u64,
    /// Deterministic fault-injection hook: panic inside the supervised
    /// region while processing the Nth synopsis (1-based). `None` in
    /// production.
    pub panic_after: Option<u64>,
    /// Pin each pool shard thread to the logical CPU matching its shard
    /// index (see [`crate::affinity::pin_current_thread`]). Strictly an
    /// optimization — keeps per-shard window maps cache-resident — and a
    /// refused pin (unsupported platform, seccomp, too few CPUs) silently
    /// falls back to normal scheduling with identical semantics.
    pub pin_shards: bool,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            snapshot_every: 256,
            max_restarts: 3,
            silent_after: 3,
            panic_after: None,
            pin_shards: false,
        }
    }
}

fn host_silent_event(host: HostId, last_seen: SimTime, windows: u64) -> AnomalyEvent {
    AnomalyEvent {
        host,
        stage: StageId::NONE,
        window_start: last_seen,
        kind: AnomalyKind::HostSilent { windows },
        p_value: None,
        outliers: 0,
        window_tasks: 0,
        completeness: 0.0,
    }
}

/// One host's slot in the [`LivenessTracker`] table.
#[derive(Debug, Clone, Copy, Default)]
struct HostLiveness {
    last_seen: SimTime,
    known: bool,
    flagged: bool,
}

/// Per-host liveness bookkeeping for the supervisor. Kept outside the
/// panic boundary so a detector crash cannot corrupt it.
#[derive(Debug)]
struct LivenessTracker {
    /// Detection window width, in stream microseconds (at least 1).
    window_us: u64,
    /// Stream microseconds of silence past which a host is flagged.
    threshold_us: u64,
    /// Indexed by the `u16` host id, grown to the highest id seen: the
    /// per-synopsis touch is one bounds check and two stores, no hashing.
    hosts: Vec<HostLiveness>,
    /// Ids with a live slot, in first-seen order — what the silence sweep
    /// walks, so sparse ids cost it nothing.
    known: Vec<HostId>,
    watermark: SimTime,
    /// Detection-window index of the last full silence scan. The
    /// all-hosts sweep is O(hosts), so it runs once per window boundary
    /// instead of once per synopsis: the silence threshold is a whole
    /// number of windows, and crossing it is only observable at window
    /// granularity anyway.
    scanned_window: u64,
}

impl LivenessTracker {
    /// A tracker flagging hosts silent for more than `silent_after`
    /// detection windows of width `window`.
    fn new(window: SimDuration, silent_after: u64) -> LivenessTracker {
        let window_us = window.as_micros().max(1);
        LivenessTracker {
            window_us,
            threshold_us: window_us.saturating_mul(silent_after),
            hosts: Vec::new(),
            known: Vec::new(),
            watermark: SimTime::ZERO,
            scanned_window: 0,
        }
    }

    /// Note a synopsis from `host` at stream time `at`, appending to
    /// `events` one event per host that crossed the silence threshold. The
    /// all-hosts silence sweep runs only when the stream watermark crosses
    /// into a new detection window.
    #[inline]
    fn observe(&mut self, host: HostId, at: SimTime, events: &mut Vec<AnomalyEvent>) {
        let slot = usize::from(host.0);
        if slot >= self.hosts.len() {
            self.hosts.resize(slot + 1, HostLiveness::default());
        }
        let entry = &mut self.hosts[slot];
        if !entry.known {
            entry.known = true;
            self.known.push(host);
        }
        entry.last_seen = at;
        entry.flagged = false; // re-arm: the host is back
        if at > self.watermark {
            self.watermark = at;
            let index = at.as_micros() / self.window_us;
            if index > self.scanned_window {
                self.scanned_window = index;
                for &h in &self.known {
                    let entry = &mut self.hosts[usize::from(h.0)];
                    if entry.flagged {
                        continue;
                    }
                    let seen = entry.last_seen;
                    let silent_for = at.as_micros().saturating_sub(seen.as_micros());
                    if silent_for > self.threshold_us {
                        entry.flagged = true;
                        events.push(host_silent_event(h, seen, silent_for / self.window_us));
                    }
                }
            }
        }
    }
}

/// Synopses of replay tail a restart may cost per open window the
/// restore copies. A snapshot deep-copies every open window (measured
/// ~100 ns each on `analyze_churn`'s ~2000 windows: a hash map and a
/// vector) while `observe_batch` spends ~25 ns per synopsis; at 64
/// synopses per window the copying amortises to under 2 ns per synopsis,
/// below a tenth of detection, and a restart's replay (64 × 25 ns per
/// window) stays within ~16× of the restore copy it follows. The tail
/// itself holds 40 bytes per synopsis, 2.5 KiB per open window.
const REPLAY_PER_OPEN_WINDOW: u64 = 64;

/// Supervision counters of one detector, written by its own thread with
/// relaxed stores and read at scrape time.
#[derive(Debug, Clone, Default)]
struct SupervisionObs {
    snapshots: Arc<AtomicU64>,
    replay_tail: Arc<AtomicU64>,
    /// Wall-clock microseconds per restart snapshot.
    snapshot_us: Arc<Histogram>,
}

/// The supervised detector core shared by [`spawn_supervised_analyzer`]
/// and the shard workers of [`spawn_analyzer_pool`]: a detector behind a
/// panic boundary with snapshot/replay recovery and poison-pill skipping.
///
/// Liveness tracking stays with the caller — it must see the full stream
/// (the pool's router does; a shard only sees its slice).
struct SupervisedDetector {
    detector: AnomalyDetector,
    snapshot: DetectorSnapshot,
    // Everything successfully applied since `snapshot` — each feature
    // with the global-stream watermark in force when it was observed —
    // for replay after a restart. Events from replay are suppressed
    // (they were already emitted before the crash). Kept in SoA form so
    // the batch hot path records a whole batch as column memcpys and a
    // restart replays it as one batch.
    replay: SynopsisBatch,
    replay_losses: Vec<(LossReport, SimTime)>,
    verdicts: VerdictMask,
    supervisor: SupervisorConfig,
    restarts_used: u32,
    received: u64,
    restarts: Arc<AtomicU64>,
    skipped: Arc<AtomicU64>,
    obs: SupervisionObs,
}

impl SupervisedDetector {
    fn new(
        detector: AnomalyDetector,
        supervisor: SupervisorConfig,
        restarts: Arc<AtomicU64>,
        skipped: Arc<AtomicU64>,
        obs: SupervisionObs,
    ) -> SupervisedDetector {
        let snapshot = detector.snapshot();
        SupervisedDetector {
            detector,
            snapshot,
            replay: SynopsisBatch::new(),
            replay_losses: Vec::new(),
            verdicts: VerdictMask::new(),
            supervisor,
            restarts_used: 0,
            received: 0,
            restarts,
            skipped,
            obs,
        }
    }

    fn interner(&self) -> &Arc<SignatureInterner> {
        self.detector.interner()
    }

    /// Apply a transport gap report that took effect when the global
    /// stream watermark stood at `watermark` (see
    /// [`AnomalyDetector::record_loss_at`]).
    fn record_loss(&mut self, report: LossReport, watermark: SimTime) {
        self.detector
            .record_loss_at(report.host, report.at, report.count, watermark);
        self.replay_losses.push((report, watermark));
    }

    /// Make the detector's present state the restart point and drop the
    /// replay tail it supersedes.
    fn take_snapshot(&mut self) {
        let began = Instant::now();
        self.snapshot = self.detector.snapshot();
        self.replay.clear();
        self.replay_losses.clear();
        self.obs
            .snapshot_us
            .record(began.elapsed().as_micros() as u64);
        self.obs.snapshots.fetch_add(1, Ordering::Relaxed);
    }

    /// Bookkeeping after a successful observation: snapshot once the
    /// replay tail has reached `max(snapshot_every, 64 × open windows)`.
    fn after_observe(&mut self) {
        let tail = self.replay.len() as u64;
        let per_state = REPLAY_PER_OPEN_WINDOW.saturating_mul(self.detector.open_windows() as u64);
        if tail >= self.supervisor.snapshot_every.max(per_state) {
            self.take_snapshot();
        }
        self.obs
            .replay_tail
            .store(self.replay.len() as u64, Ordering::Relaxed);
    }

    /// Observe one interned feature inside the panic boundary, first
    /// advancing the detector to `watermark` — the global-stream
    /// watermark, which for a pool shard runs ahead of what the shard's
    /// own slice implies (see [`AnomalyDetector::advance_watermark`]).
    /// A panic restores the detector from its latest snapshot, replays
    /// the since-snapshot tail, and skips the poison feature; only an
    /// exhausted restart budget is a terminal error.
    fn observe(
        &mut self,
        feature: InternedFeature,
        watermark: SimTime,
    ) -> Result<Vec<AnomalyEvent>, AnalyzerError> {
        self.received += 1;
        let received = self.received;
        let inject = self.supervisor.panic_after == Some(received);
        let detector = &mut self.detector;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if inject {
                panic!("injected analyzer fault at synopsis {received}");
            }
            let mut events = detector.advance_watermark(watermark);
            events.extend(detector.observe_interned(&feature));
            events
        }));
        match outcome {
            Ok(events) => {
                self.replay.push_feature(&feature, watermark);
                self.after_observe();
                Ok(events)
            }
            Err(payload) => {
                self.restarts_used += 1;
                if self.restarts_used > self.supervisor.max_restarts {
                    return Err(AnalyzerError::RestartsExhausted {
                        restarts: self.restarts_used - 1,
                        panic: panic_message(payload.as_ref()),
                    });
                }
                self.restarts.fetch_add(1, Ordering::Relaxed);
                // The synopsis that triggered the panic is skipped, not
                // retried: a deterministic poison pill would otherwise
                // crash-loop the analyzer.
                self.skipped.fetch_add(1, Ordering::Relaxed);
                self.restore_from_snapshot();
                Ok(Vec::new())
            }
        }
    }

    /// Rebuild the detector from the latest snapshot and replay the
    /// since-snapshot tail as one batch, losses first. Replayed events
    /// are suppressed — they were already emitted before the crash.
    fn restore_from_snapshot(&mut self) {
        self.detector = AnomalyDetector::from_snapshot(self.snapshot.clone());
        for &(report, watermark) in &self.replay_losses {
            self.detector
                .record_loss_at(report.host, report.at, report.count, watermark);
        }
        let _ = self
            .detector
            .observe_batch(&self.replay, &mut self.verdicts);
    }

    /// Observe a whole SoA batch inside one panic boundary — the pool
    /// shard hot path. The happy path is a single call into
    /// [`AnomalyDetector::observe_batch`] (branch-free batch classify,
    /// then per-element accumulation); fault handling degrades to the
    /// per-synopsis path so poison-pill skipping and restart accounting
    /// stay element-exact.
    fn observe_batch(&mut self, batch: &SynopsisBatch) -> Result<Vec<AnomalyEvent>, AnalyzerError> {
        let len = batch.len() as u64;
        if len == 0 {
            return Ok(Vec::new());
        }
        // Injected faults land on an exact synopsis ordinal: when the
        // target falls inside this batch, process it element by element so
        // the panic hits precisely the Nth synopsis, as the scalar path
        // would.
        if let Some(n) = self.supervisor.panic_after {
            if n > self.received && n <= self.received + len {
                return self.observe_batch_per_element(batch);
            }
        }
        self.received += len;
        let (detector, verdicts) = (&mut self.detector, &mut self.verdicts);
        let outcome = catch_unwind(AssertUnwindSafe(|| detector.observe_batch(batch, verdicts)));
        match outcome {
            Ok(events) => {
                self.replay.extend_from(batch);
                self.after_observe();
                Ok(events)
            }
            Err(_) => {
                // A genuine panic mid-batch leaves the detector partially
                // mutated, so roll back to the snapshot — uncounted: the
                // restart and skip are charged when the per-element pass
                // re-hits the poison element behind its own boundary.
                self.restore_from_snapshot();
                self.received -= len;
                self.observe_batch_per_element(batch)
            }
        }
    }

    /// The scalar fallback for [`SupervisedDetector::observe_batch`]:
    /// exactly the per-synopsis supervised path, element by element.
    fn observe_batch_per_element(
        &mut self,
        batch: &SynopsisBatch,
    ) -> Result<Vec<AnomalyEvent>, AnalyzerError> {
        let mut events = Vec::new();
        for i in 0..batch.len() {
            events.extend(self.observe(batch.feature(i), batch.watermarks[i])?);
        }
        Ok(events)
    }

    /// Advance the detector to the global-stream watermark (closing stale
    /// windows) without observing anything — the end-of-stream broadcast.
    fn advance(&mut self, watermark: SimTime) -> Vec<AnomalyEvent> {
        self.detector.advance_watermark(watermark)
    }

    /// Snapshot the detector for a durable checkpoint. Also refreshes the
    /// restart snapshot: state persisted to disk is exactly the state a
    /// panic would restore, and the replay tail never straddles a
    /// checkpoint.
    fn checkpoint_snapshot(&mut self) -> DetectorSnapshot {
        self.take_snapshot();
        self.snapshot.clone()
    }

    /// Install a new model (hot swap, or bootstrap promotion), first
    /// advancing to the swap watermark so pre-swap windows close under the
    /// rates they accumulated against. The restart snapshot is refreshed —
    /// a panic after the swap must not resurrect the old model.
    fn install(
        &mut self,
        model: Arc<OutlierModel>,
        compiled: Arc<CompiledModel>,
        watermark: SimTime,
    ) -> Vec<AnomalyEvent> {
        let mut events = self.detector.advance_watermark(watermark);
        events.extend(self.detector.install_model(model, compiled));
        self.take_snapshot();
        events
    }

    /// Close all open windows and hand the detector back.
    fn finish(mut self) -> (Vec<AnomalyEvent>, AnomalyDetector) {
        let events = self.detector.flush();
        (events, self.detector)
    }
}

/// Spawn a supervised analyzer: like [`spawn_analyzer`], plus a panic
/// boundary with snapshot/replay recovery, per-host liveness tracking, and
/// optional link-loss reports feeding the degradation-aware detector.
///
/// `loss_rx`, when provided, delivers [`LossReport`]s from the transport
/// layer (see [`crate::transport::FrameReceiver`]); each is applied via
/// [`AnomalyDetector::record_loss`] so windowed tests account for missing
/// data and events carry honest completeness ratios.
pub fn spawn_supervised_analyzer(
    model: Arc<OutlierModel>,
    config: DetectorConfig,
    supervisor: SupervisorConfig,
    rx: Receiver<TaskSynopsis>,
    loss_rx: Option<Receiver<LossReport>>,
) -> AnalyzerHandle {
    let (event_tx, event_rx) = unbounded();
    let processed = Arc::new(AtomicU64::new(0));
    let restarts = Arc::new(AtomicU64::new(0));
    let skipped = Arc::new(AtomicU64::new(0));
    let (processed_inner, restarts_inner, skipped_inner) =
        (processed.clone(), restarts.clone(), skipped.clone());
    let window = config.window;
    let silent_after = supervisor.silent_after;
    let join = std::thread::Builder::new()
        .name("saad-supervised-analyzer".into())
        .spawn(move || {
            let detector = AnomalyDetector::new(model, config);
            let mut supervised = SupervisedDetector::new(
                detector,
                supervisor,
                restarts_inner,
                skipped_inner,
                SupervisionObs::default(),
            );
            let mut liveness = LivenessTracker::new(window, silent_after);
            let mut silent = Vec::new();
            for synopsis in rx.iter() {
                processed_inner.fetch_add(1, Ordering::Relaxed);
                liveness.observe(synopsis.host, synopsis.start, &mut silent);
                for event in silent.drain(..) {
                    let _ = event_tx.send(event);
                }
                if let Some(loss_rx) = &loss_rx {
                    for report in loss_rx.try_iter() {
                        // The detector sees the whole stream: its own
                        // watermark is the stream's.
                        supervised.record_loss(report, SimTime::ZERO);
                    }
                }
                // Interning happens outside the panic boundary: the
                // interner is shared state a restart must not lose. A
                // single analyzer sees the whole stream, so its own
                // start times are the global watermark.
                let feature = InternedFeature::from_synopsis(&synopsis, supervised.interner());
                for event in supervised.observe(feature, synopsis.start)? {
                    let _ = event_tx.send(event);
                }
            }
            let (events, detector) = supervised.finish();
            for event in events {
                let _ = event_tx.send(event);
            }
            Ok(detector)
        })
        .expect("spawn supervised analyzer thread");
    AnalyzerHandle {
        events: event_rx,
        processed,
        restarts,
        skipped,
        sink_stats: None,
        join: Some(join),
    }
}

/// Message routed from the pool's router thread to one shard worker.
enum ShardMsg {
    /// A run of synopses that all hash to this shard, in SoA layout — one
    /// channel send per shard per input batch, however many synopses it
    /// carries. Each element is stamped (`watermarks[i]`) with the
    /// global-stream watermark in force when the router saw it, so the
    /// shard closes windows at exactly the moments a single-threaded
    /// analyzer would. The shard returns the drained buffer on the
    /// recycle channel, so steady-state routing allocates nothing.
    Batch(SynopsisBatch),
    /// A transport gap report, broadcast to every shard: loss is keyed by
    /// host and window, and any shard may own windows for that host. The
    /// router counts each report once for the pool-level total, and
    /// stamps it with the global-stream watermark at its position (see
    /// [`AnomalyDetector::record_loss_at`]).
    Loss(LossReport, SimTime),
    /// Hot model swap, delivered in-band and broadcast to every shard:
    /// channel FIFO ordering guarantees the shard installs the new model
    /// only after every synopsis the router saw before the swap decision,
    /// so no task is dropped or classified twice. The carried watermark is
    /// the global-stream watermark at the decision — stale windows close
    /// under the old model before the new one takes over.
    Swap {
        model: Arc<OutlierModel>,
        compiled: Arc<CompiledModel>,
        watermark: SimTime,
    },
    /// Checkpoint request: the worker replies with a snapshot of its
    /// detector as of everything routed before this message.
    Snapshot(Sender<DetectorSnapshot>),
    /// The router's final global watermark, broadcast at end of stream so
    /// every shard — including ones whose own slice went quiet early —
    /// closes its stale windows exactly where a single-threaded analyzer
    /// would, before the drain flush.
    FinalWatermark(SimTime),
}

/// Pin a `(host, stage)` pair to one shard. The detector's windowed state
/// is keyed per `(host, stage)`, so pinning the pair keeps each window's
/// accumulation — and therefore its test results — on a single thread,
/// bit-identical to a single-threaded analyzer.
fn shard_for(host: HostId, stage: StageId, workers: usize) -> usize {
    let key = ((host.0 as u64) << 16) | stage.0 as u64;
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % workers
}

/// One element of a *sequenced* analyzer-pool input stream: synopsis
/// batches and transport loss reports interleaved on a single ordered
/// channel.
///
/// The two-channel pool inputs deliver [`LossReport`]s on a side channel
/// the router drains opportunistically at batch boundaries. That is
/// *correct* — a gap always takes effect no later than its revealing
/// batch — but not *reproducible*: under backpressure a queued report can
/// take effect several batches early, so two runs over identical content
/// may attribute a gap's degradation to different window closes. A
/// sequenced stream pins every report at the exact stream position its
/// producer emitted it, which makes the pool's event multiset a pure
/// function of stream content. The federation end-to-end proof (wire run
/// vs. replayed oracle) relies on exactly this property.
#[derive(Debug, Clone)]
pub enum SequencedInput {
    /// A batch of task synopses.
    Batch(Vec<TaskSynopsis>),
    /// A loss report taking effect exactly here in the stream.
    Loss(LossReport),
}

/// Input stream driving an analyzer pool's router.
enum PoolInput {
    /// Batches of raw synopses: the router interns each one into the
    /// pool's shared interner while routing.
    Raw(Receiver<Vec<TaskSynopsis>>),
    /// Pre-interned SoA batches (see [`SynopsisBatch`]) built against the
    /// SAME interner the pool's detectors share. The router re-stamps
    /// each element's watermark with the global running maximum and
    /// repartitions columns directly — the hot path never materializes a
    /// per-synopsis struct or performs a per-synopsis channel send.
    Batches(Receiver<SynopsisBatch>),
    /// Raw batches and loss reports on one ordered channel (see
    /// [`SequencedInput`]): loss placement is part of the stream content
    /// instead of a race against the router's drain timing.
    Sequenced(Receiver<SequencedInput>),
}

/// The router's per-shard SoA arenas. Elements accumulate into a reusable
/// [`SynopsisBatch`] per shard and flush as ONE channel send per
/// (shard, input batch); shards hand drained buffers back on the recycle
/// channel, so steady-state routing performs no allocation.
///
/// Control-plane rule: every control send (loss, swap, snapshot, final
/// watermark) must be preceded by [`ShardFanout::flush`] — control
/// messages are ordered in-band at batch boundaries, never between a
/// batch's elements. The router flushes at the end of every input batch,
/// before lifecycle pumping, so the rule holds by construction.
struct ShardFanout {
    arenas: Vec<SynopsisBatch>,
    recycle_rx: Receiver<SynopsisBatch>,
}

impl ShardFanout {
    fn new(workers: usize, recycle_rx: Receiver<SynopsisBatch>) -> ShardFanout {
        ShardFanout {
            arenas: (0..workers).map(|_| SynopsisBatch::new()).collect(),
            recycle_rx,
        }
    }

    /// Append one element to its shard's arena, stamped with the global
    /// watermark the router just computed.
    #[inline]
    fn push(&mut self, feature: &InternedFeature, watermark: SimTime) {
        let shard = shard_for(feature.host, feature.stage, self.arenas.len());
        self.arenas[shard].push_feature(feature, watermark);
    }

    /// Send every non-empty arena to its shard, swapping in a recycled
    /// (or, before steady state, fresh) buffer.
    fn flush(&mut self, shard_txs: &[Sender<ShardMsg>]) {
        for (shard, arena) in self.arenas.iter_mut().enumerate() {
            if arena.is_empty() {
                continue;
            }
            let replacement = self.recycle_rx.try_recv().unwrap_or_default();
            let full = std::mem::replace(arena, replacement);
            let _ = shard_txs[shard].send(ShardMsg::Batch(full));
        }
    }
}

/// Live counters for one shard worker, updated with relaxed stores on
/// the shard thread and read only at scrape time.
#[derive(Debug, Default)]
struct ShardObs {
    processed: AtomicU64,
    events: AtomicU64,
    watermark_micros: AtomicU64,
    supervision: SupervisionObs,
}

/// Live router- and shard-level counters for an analyzer pool, shared
/// between the pool threads (writers) and [`PoolHandle::register_metrics`]
/// callbacks (scrape-time readers).
#[derive(Debug)]
struct PoolObs {
    shards: Vec<ShardObs>,
    batches_routed: AtomicU64,
    watermark_micros: AtomicU64,
    /// Restart-snapshot latency, fed by every shard's supervisor.
    snapshot_us: Arc<Histogram>,
}

impl PoolObs {
    fn new(workers: usize) -> PoolObs {
        let snapshot_us = Arc::new(Histogram::new());
        PoolObs {
            shards: (0..workers)
                .map(|_| ShardObs {
                    supervision: SupervisionObs {
                        snapshot_us: Arc::clone(&snapshot_us),
                        ..SupervisionObs::default()
                    },
                    ..ShardObs::default()
                })
                .collect(),
            batches_routed: AtomicU64::new(0),
            watermark_micros: AtomicU64::new(0),
            snapshot_us,
        }
    }
}

/// Handle to a running analyzer pool: a router thread plus `workers`
/// supervised shard workers (see [`spawn_analyzer_pool`]).
#[derive(Debug)]
pub struct PoolHandle {
    events: Receiver<AnomalyEvent>,
    processed: Arc<AtomicU64>,
    restarts: Arc<AtomicU64>,
    skipped: Arc<AtomicU64>,
    tasks_lost: Arc<AtomicU64>,
    sink_stats: Option<Arc<SinkStats>>,
    obs: Arc<PoolObs>,
    router: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<Result<AnomalyDetector, AnalyzerError>>>,
}

impl PoolHandle {
    /// Attach the sink's drop statistics so producers' losses are visible
    /// from the consumer side.
    pub fn with_sink_stats(mut self, stats: Arc<SinkStats>) -> PoolHandle {
        self.sink_stats = Some(stats);
        self
    }

    /// Receiver of detected anomaly events, merged across all shards.
    pub fn events(&self) -> &Receiver<AnomalyEvent> {
        &self.events
    }

    /// Synopses delivered to shard workers so far (including any skipped
    /// after a supervised restart).
    pub fn processed(&self) -> u64 {
        self.processed.load(Ordering::Relaxed)
    }

    /// Total shard-worker restarts after panics.
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// Poison synopses skipped across all shards.
    pub fn skipped(&self) -> u64 {
        self.skipped.load(Ordering::Relaxed)
    }

    /// Synopses the transport reported lost, counted once per report.
    /// (Loss reports are broadcast to every shard for window accounting,
    /// so summing the shard detectors' own counters would overcount.)
    pub fn tasks_lost(&self) -> u64 {
        self.tasks_lost.load(Ordering::Relaxed)
    }

    /// Number of shard workers.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Synopses dropped by the attached sink (0 unless
    /// [`PoolHandle::with_sink_stats`] was used).
    pub fn dropped(&self) -> u64 {
        SinkStats::dropped_of(self.sink_stats.as_ref())
    }

    /// Per-host drop counts from the attached sink (empty unless
    /// [`PoolHandle::with_sink_stats`] was used).
    pub fn drops_by_host(&self) -> HashMap<HostId, DropCounts> {
        SinkStats::drops_by_host_of(self.sink_stats.as_ref())
    }

    /// Expose the pool's live counters in `registry`: per-shard
    /// processed/event counts, watermark lag, restart snapshots taken and
    /// the replay tail a restart would re-apply, plus pool-level
    /// restart/skip/loss totals, the router watermark and the snapshot
    /// latency histogram. All series but the histogram are scrape-time
    /// callbacks over counters the pool already maintains — registering
    /// them costs the hot path nothing.
    pub fn register_metrics(&self, registry: &Registry) {
        for (shard, shard_obs) in self.obs.shards.iter().enumerate() {
            let label = shard.to_string();
            let labels = [("shard", label.as_str())];
            let snapshots = Arc::clone(&shard_obs.supervision.snapshots);
            registry.register_counter_fn(
                "saad_pool_shard_snapshots_total",
                "Restart snapshots this shard's supervisor has taken",
                &labels,
                move || snapshots.load(Ordering::Relaxed),
            );
            let replay_tail = Arc::clone(&shard_obs.supervision.replay_tail);
            registry.register_gauge_fn(
                "saad_pool_shard_replay_tail",
                "Synopses a restart of this shard would replay on top of its snapshot",
                &labels,
                move || replay_tail.load(Ordering::Relaxed) as i64,
            );
            let obs = Arc::clone(&self.obs);
            registry.register_counter_fn(
                "saad_pool_shard_processed_total",
                "Synopses applied by this shard worker",
                &labels,
                move || obs.shards[shard].processed.load(Ordering::Relaxed),
            );
            let obs = Arc::clone(&self.obs);
            registry.register_counter_fn(
                "saad_pool_shard_events_total",
                "Anomaly events emitted by this shard worker",
                &labels,
                move || obs.shards[shard].events.load(Ordering::Relaxed),
            );
            let obs = Arc::clone(&self.obs);
            registry.register_gauge_fn(
                "saad_pool_shard_watermark_lag_us",
                "Stream time between the router watermark and this shard's last applied watermark",
                &labels,
                move || {
                    let router = obs.watermark_micros.load(Ordering::Relaxed);
                    let shard_wm = obs.shards[shard].watermark_micros.load(Ordering::Relaxed);
                    router.saturating_sub(shard_wm) as i64
                },
            );
        }
        registry.attach_histogram(
            "saad_pool_snapshot_us",
            "Wall-clock time to take one restart snapshot of a shard's detector, in microseconds",
            &[],
            Arc::clone(&self.obs.snapshot_us),
        );
        let obs = Arc::clone(&self.obs);
        registry.register_counter_fn(
            "saad_pool_batches_routed_total",
            "Input batches routed to shard workers",
            &[],
            move || obs.batches_routed.load(Ordering::Relaxed),
        );
        let obs = Arc::clone(&self.obs);
        registry.register_gauge_fn(
            "saad_pool_watermark_us",
            "Global stream watermark at the router, in stream microseconds",
            &[],
            move || obs.watermark_micros.load(Ordering::Relaxed) as i64,
        );
        let processed = Arc::clone(&self.processed);
        registry.register_counter_fn(
            "saad_pool_processed_total",
            "Synopses delivered to shard workers",
            &[],
            move || processed.load(Ordering::Relaxed),
        );
        let restarts = Arc::clone(&self.restarts);
        registry.register_counter_fn(
            "saad_pool_restarts_total",
            "Shard worker restarts after panics",
            &[],
            move || restarts.load(Ordering::Relaxed),
        );
        let skipped = Arc::clone(&self.skipped);
        registry.register_counter_fn(
            "saad_pool_skipped_total",
            "Poison synopses skipped across all shards",
            &[],
            move || skipped.load(Ordering::Relaxed),
        );
        let tasks_lost = Arc::clone(&self.tasks_lost);
        registry.register_counter_fn(
            "saad_pool_tasks_lost_total",
            "Synopses the transport reported lost, counted once per report",
            &[],
            move || tasks_lost.load(Ordering::Relaxed),
        );
        if let Some(stats) = &self.sink_stats {
            stats.register_metrics(registry, "pool");
        }
    }

    /// Drain any events currently queued without blocking.
    pub fn drain_events(&self) -> Vec<AnomalyEvent> {
        let mut out = Vec::new();
        while let Ok(e) = self.events.try_recv() {
            out.push(e);
        }
        out
    }

    /// Wait for the pool to finish (input channel closed), returning each
    /// shard's detector for inspection. Remaining windows are flushed
    /// before workers exit.
    ///
    /// # Errors
    ///
    /// Returns the first [`AnalyzerError`] if the router panicked or any
    /// shard exhausted its restart budget; the remaining shards are still
    /// joined first so no thread is leaked.
    pub fn join(mut self) -> Result<Vec<AnomalyDetector>, AnalyzerError> {
        let mut first_err = None;
        if let Some(router) = self.router.take() {
            if let Err(payload) = router.join() {
                first_err = Some(AnalyzerError::Panicked(panic_message(payload.as_ref())));
            }
        }
        let mut detectors = Vec::with_capacity(self.workers.len());
        for worker in self.workers.drain(..) {
            match worker.join() {
                Ok(Ok(detector)) => detectors.push(detector),
                Ok(Err(e)) => {
                    first_err.get_or_insert(e);
                }
                Err(payload) => {
                    first_err
                        .get_or_insert(AnalyzerError::Panicked(panic_message(payload.as_ref())));
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(detectors),
        }
    }
}

/// Spawn a sharded analyzer pool over a stream of synopsis batches.
///
/// A router thread receives whole batches (e.g. one decoded transport
/// frame per send, see [`feed_frame`]), runs per-host liveness tracking
/// over the full ordered stream, and splits each batch by
/// `hash(host, stage)` into per-shard sub-batches — one channel send per
/// shard per batch. Each of the `workers` shard threads runs its own
/// supervised [`AnomalyDetector`] (same snapshot/replay/poison-skip
/// semantics as [`spawn_supervised_analyzer`]) against a **shared**
/// signature interner and compiled model, built once here.
///
/// Because the detector's windowed state is keyed per `(host, stage)` and
/// each pair is pinned to one shard, the pool's event stream is — as a
/// multiset — identical to a single supervised analyzer's over the same
/// input; only channel interleaving differs.
///
/// `supervisor.panic_after` counts per shard (each worker panics on its
/// own Nth synopsis), which keeps fault injection deterministic per
/// route.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn spawn_analyzer_pool(
    model: Arc<OutlierModel>,
    config: DetectorConfig,
    supervisor: SupervisorConfig,
    workers: usize,
    rx: Receiver<Vec<TaskSynopsis>>,
    loss_rx: Option<Receiver<LossReport>>,
) -> PoolHandle {
    assert!(workers > 0, "analyzer pool needs at least one worker");
    // One interner and one compiled model, shared read-only by every
    // shard: interning and compilation costs are paid once, regardless of
    // the worker count.
    let interner = Arc::new(SignatureInterner::new());
    let compiled = Arc::new(model.compile(&interner));
    let detectors = (0..workers)
        .map(|_| {
            AnomalyDetector::with_shared(model.clone(), compiled.clone(), interner.clone(), config)
        })
        .collect();
    spawn_pool_inner(
        detectors,
        supervisor,
        config.window,
        PoolInput::Raw(rx),
        loss_rx,
        None,
        None,
    )
}

/// Spawn a batch-native analyzer pool over a stream of pre-built SoA
/// batches — the zero-copy fast path.
///
/// Semantics are identical to [`spawn_analyzer_pool`]; only the input
/// currency differs. Producers build [`SynopsisBatch`]es against
/// `interner` (one intern per synopsis at the edge — e.g. a
/// [`BatchSink`] behind trackers, or a transport decoder filling columns
/// straight from the wire) and the router repartitions columns into
/// per-shard sub-batches with one channel send per (shard, batch). No
/// per-synopsis struct is materialized and no per-synopsis channel send
/// happens anywhere on the path. Producer-side watermarks are re-stamped
/// with the pool's global running maximum, so window-close points are
/// bit-identical to the single-threaded analyzer's.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn spawn_batch_analyzer_pool(
    model: Arc<OutlierModel>,
    config: DetectorConfig,
    supervisor: SupervisorConfig,
    workers: usize,
    interner: Arc<SignatureInterner>,
    rx: Receiver<SynopsisBatch>,
    loss_rx: Option<Receiver<LossReport>>,
) -> PoolHandle {
    assert!(workers > 0, "analyzer pool needs at least one worker");
    let compiled = Arc::new(model.compile(&interner));
    let detectors = (0..workers)
        .map(|_| {
            AnomalyDetector::with_shared(model.clone(), compiled.clone(), interner.clone(), config)
        })
        .collect();
    spawn_pool_inner(
        detectors,
        supervisor,
        config.window,
        PoolInput::Batches(rx),
        loss_rx,
        None,
        None,
    )
}

/// Run `work` as a tracked meta task when a monitor is attached, or
/// plainly when self-observation is off. Keeping the untracked path a
/// bare call means a `None` monitor costs one branch.
fn meta_tick<R>(meta: &Option<Arc<MetaMonitor>>, stage: MetaStage, work: impl FnOnce() -> R) -> R {
    match meta {
        Some(m) => m.tick(stage, work),
        None => work(),
    }
}

/// Backoff before checkpoint-write retry `attempt` (1-based): the base
/// doubles per retry, capped at 8x, scaled by a jitter factor in
/// [0.5, 1.5) mixed from the generation and attempt with a splitmix64
/// finalizer. Deterministic — replays and tests see identical schedules —
/// yet de-synchronized across generations and attempts.
fn checkpoint_retry_delay(base: Duration, attempt: u32, generation: u64) -> Duration {
    let capped = base.saturating_mul(1u32 << (attempt - 1).min(3));
    let mut x = generation ^ (u64::from(attempt) << 32) ^ 0x9E37_79B9_7F4A_7C15;
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    let jitter = 0.5 + (x >> 11) as f64 / (1u64 << 53) as f64;
    capped.mul_f64(jitter)
}

/// The router thread's state: everything one routed element touches.
struct Router {
    liveness: LivenessTracker,
    /// Reused buffer for the (rare) events of one liveness observation.
    silent: Vec<AnomalyEvent>,
    /// Global stream watermark: the running maximum of task start times.
    watermark: SimTime,
    fanout: ShardFanout,
    lifecycle: Option<RouterLifecycle>,
    event_tx: Sender<AnomalyEvent>,
    shard_txs: Vec<Sender<ShardMsg>>,
    tasks_lost: Arc<AtomicU64>,
    obs: Arc<PoolObs>,
}

impl Router {
    /// Account one element of the ordered stream — host liveness, then
    /// the global watermark — and return the watermark to stamp it with.
    #[inline]
    fn stamp(&mut self, host: HostId, start: SimTime) -> SimTime {
        self.liveness.observe(host, start, &mut self.silent);
        for event in self.silent.drain(..) {
            let _ = self.event_tx.send(event);
        }
        self.watermark = self.watermark.max(start);
        self.watermark
    }

    /// Route one element, whatever shape the input delivered it in, into
    /// its shard's arena.
    #[inline]
    fn route(&mut self, feature: &InternedFeature) {
        let watermark = self.stamp(feature.host, feature.start);
        if let Some(lc) = self.lifecycle.as_mut() {
            lc.absorb(feature);
        }
        self.fanout.push(feature, watermark);
    }

    /// Count a gap report once and broadcast it, stamped with the global
    /// watermark at its stream position, to every shard.
    fn broadcast_loss(&mut self, report: LossReport) {
        self.tasks_lost.fetch_add(report.count, Ordering::Relaxed);
        for tx in &self.shard_txs {
            let _ = tx.send(ShardMsg::Loss(report, self.watermark));
        }
    }

    /// Broadcast whatever the side channel of gap reports holds right now.
    fn drain_losses(&mut self, loss_rx: Option<&Receiver<LossReport>>) {
        for report in loss_rx.into_iter().flat_map(Receiver::try_iter) {
            self.broadcast_loss(report);
        }
    }

    /// The work at the end of every input batch: one flush per shard,
    /// then lifecycle pumping — arenas are empty whenever a control
    /// message goes out.
    fn batch_boundary(&mut self) {
        self.fanout.flush(&self.shard_txs);
        if let Some(lc) = self.lifecycle.as_mut() {
            lc.pump(self.watermark, &self.shard_txs);
        }
        self.obs.batches_routed.fetch_add(1, Ordering::Relaxed);
        self.obs
            .watermark_micros
            .store(self.watermark.as_micros(), Ordering::Relaxed);
    }
}

/// The pool core shared by [`spawn_analyzer_pool`] and
/// [`spawn_analyzer_pool_with_lifecycle`]: one shard worker per initial
/// detector, plus the router thread that stamps watermarks, routes
/// batches, tracks liveness, and — when a [`RouterLifecycle`] is given —
/// drives checkpoints, hot swaps, and bootstrap promotion at batch
/// boundaries.
fn spawn_pool_inner(
    detectors: Vec<AnomalyDetector>,
    supervisor: SupervisorConfig,
    window: SimDuration,
    input: PoolInput,
    loss_rx: Option<Receiver<LossReport>>,
    lifecycle: Option<RouterLifecycle>,
    meta: Option<Arc<MetaMonitor>>,
) -> PoolHandle {
    let workers = detectors.len();
    assert!(workers > 0, "analyzer pool needs at least one worker");
    // The router interns raw synopses into the same interner every shard
    // detector already shares.
    let interner = detectors[0].interner().clone();
    let (event_tx, event_rx) = unbounded();
    let processed = Arc::new(AtomicU64::new(0));
    let restarts = Arc::new(AtomicU64::new(0));
    let skipped = Arc::new(AtomicU64::new(0));
    let tasks_lost = Arc::new(AtomicU64::new(0));
    let obs = Arc::new(PoolObs::new(workers));
    // Drained batch buffers flow back to the router on this channel for
    // reuse — after warm-up the router never allocates a batch. Bounded:
    // when the router routes faster than it recycles (e.g. the
    // single-shard forwarding path, which consumes no arenas), surplus
    // buffers are dropped instead of piling up.
    let (recycle_tx, recycle_rx) = bounded::<SynopsisBatch>(2 * workers);

    let mut shard_txs = Vec::with_capacity(workers);
    let mut worker_joins = Vec::with_capacity(workers);
    for (shard, detector) in detectors.into_iter().enumerate() {
        let (shard_tx, shard_rx) = unbounded::<ShardMsg>();
        shard_txs.push(shard_tx);
        let supervisor = supervisor.clone();
        let event_tx = event_tx.clone();
        let (processed, restarts, skipped) = (processed.clone(), restarts.clone(), skipped.clone());
        let obs = Arc::clone(&obs);
        let meta = meta.clone();
        let recycle_tx = recycle_tx.clone();
        let join = std::thread::Builder::new()
            .name(format!("saad-analyzer-shard-{shard}"))
            .spawn(move || {
                if supervisor.pin_shards {
                    // Best-effort: a refused pin just runs unpinned.
                    let _ = crate::affinity::pin_current_thread(shard);
                }
                let shard_obs = &obs.shards[shard];
                let emit = |event: AnomalyEvent| {
                    shard_obs.events.fetch_add(1, Ordering::Relaxed);
                    let _ = event_tx.send(event);
                };
                let mut supervised = SupervisedDetector::new(
                    detector,
                    supervisor,
                    restarts,
                    skipped,
                    shard_obs.supervision.clone(),
                );
                for msg in shard_rx.iter() {
                    match msg {
                        ShardMsg::Loss(report, watermark) => {
                            supervised.record_loss(report, watermark)
                        }
                        ShardMsg::Batch(mut batch) => {
                            processed.fetch_add(batch.len() as u64, Ordering::Relaxed);
                            shard_obs
                                .processed
                                .fetch_add(batch.len() as u64, Ordering::Relaxed);
                            meta_tick(&meta, MetaStage::Shard, || {
                                for event in supervised.observe_batch(&batch)? {
                                    emit(event);
                                }
                                if let Some(&watermark) = batch.watermarks.last() {
                                    shard_obs
                                        .watermark_micros
                                        .store(watermark.as_micros(), Ordering::Relaxed);
                                }
                                Ok(())
                            })?;
                            batch.clear();
                            let _ = recycle_tx.try_send(batch);
                        }
                        ShardMsg::Swap {
                            model,
                            compiled,
                            watermark,
                        } => {
                            for event in supervised.install(model, compiled, watermark) {
                                emit(event);
                            }
                        }
                        ShardMsg::Snapshot(reply) => {
                            let _ = reply.send(supervised.checkpoint_snapshot());
                        }
                        ShardMsg::FinalWatermark(watermark) => {
                            for event in supervised.advance(watermark) {
                                emit(event);
                            }
                            shard_obs
                                .watermark_micros
                                .store(watermark.as_micros(), Ordering::Relaxed);
                        }
                    }
                }
                let (events, detector) = supervised.finish();
                for event in events {
                    emit(event);
                }
                Ok(detector)
            })
            .expect("spawn analyzer pool worker");
        worker_joins.push(join);
    }

    let mut router = Router {
        liveness: LivenessTracker::new(window, supervisor.silent_after),
        silent: Vec::new(),
        watermark: SimTime::ZERO,
        fanout: ShardFanout::new(workers, recycle_rx),
        lifecycle,
        event_tx,
        shard_txs,
        tasks_lost: tasks_lost.clone(),
        obs: Arc::clone(&obs),
    };
    let router = std::thread::Builder::new()
        .name("saad-analyzer-router".into())
        .spawn(move || {
            match input {
                PoolInput::Raw(rx) => {
                    for batch in rx.iter() {
                        meta_tick(&meta, MetaStage::Router, || {
                            router.drain_losses(loss_rx.as_ref());
                            for synopsis in batch {
                                router.route(&InternedFeature::from_synopsis(&synopsis, &interner));
                            }
                            router.batch_boundary();
                        });
                    }
                }
                PoolInput::Sequenced(rx) => {
                    for step in rx.iter() {
                        meta_tick(&meta, MetaStage::Router, || match step {
                            // In-band: the report takes effect exactly
                            // here. Arenas are empty between batch
                            // boundaries, so shards see it at the same
                            // stream position the producer pinned.
                            SequencedInput::Loss(report) => router.broadcast_loss(report),
                            SequencedInput::Batch(batch) => {
                                for synopsis in batch {
                                    router.route(&InternedFeature::from_synopsis(
                                        &synopsis, &interner,
                                    ));
                                }
                                router.batch_boundary();
                            }
                        });
                    }
                }
                PoolInput::Batches(rx) => {
                    // With a single shard and no lifecycle duties the
                    // router degenerates to a forwarder: re-stamp the
                    // watermark column in place with the global running
                    // max and hand the whole batch through untouched —
                    // no per-element repartition copy at all.
                    let forward_only = workers == 1 && router.lifecycle.is_none();
                    for mut batch in rx.iter() {
                        meta_tick(&meta, MetaStage::Router, || {
                            router.drain_losses(loss_rx.as_ref());
                            if forward_only {
                                for i in 0..batch.len() {
                                    batch.watermarks[i] =
                                        router.stamp(batch.hosts[i], batch.starts[i]);
                                }
                                if !batch.is_empty() {
                                    let _ = router.shard_txs[0].send(ShardMsg::Batch(batch));
                                }
                            } else {
                                // Re-stamped with the GLOBAL watermark: the
                                // producer's per-batch watermark only saw
                                // its own stream.
                                for i in 0..batch.len() {
                                    router.route(&batch.feature(i));
                                }
                            }
                            router.batch_boundary();
                        });
                    }
                }
            }
            // Stream closed: deliver any last gap reports and pending
            // control commands, advance every shard to the final global
            // watermark (so stale windows close exactly where one thread
            // would close them), persist a last checkpoint of that state,
            // then drop the shard senders so every worker flushes and
            // exits.
            router.drain_losses(loss_rx.as_ref());
            router.fanout.flush(&router.shard_txs);
            if let Some(lc) = router.lifecycle.as_mut() {
                lc.pump(router.watermark, &router.shard_txs);
            }
            for tx in &router.shard_txs {
                let _ = tx.send(ShardMsg::FinalWatermark(router.watermark));
            }
            if let Some(lc) = router.lifecycle.as_mut() {
                if lc.detecting {
                    lc.take_checkpoint(&router.shard_txs, None);
                }
            }
        })
        .expect("spawn analyzer pool router");

    PoolHandle {
        events: event_rx,
        processed,
        restarts,
        skipped,
        tasks_lost,
        sink_stats: None,
        obs,
        router: Some(router),
        workers: worker_joins,
    }
}

/// Feed one decoded transport frame into an analyzer pool's input: the
/// frame's synopses go to `batch_tx` as a **single** batch send, and a
/// newly discovered gap becomes a [`LossReport`] on `loss_tx` (stamped,
/// by convention, with the first synopsis's start time). Duplicate frames
/// are ignored — the transport already counted them. Returns the number
/// of synopses forwarded.
pub fn feed_frame(
    outcome: FrameOutcome,
    batch_tx: &Sender<Vec<TaskSynopsis>>,
    loss_tx: &Sender<LossReport>,
) -> usize {
    match outcome {
        FrameOutcome::Fresh {
            host,
            synopses,
            newly_lost,
        } => {
            if newly_lost > 0 {
                let at = synopses.first().map(|s| s.start).unwrap_or(SimTime::ZERO);
                let _ = loss_tx.send(LossReport {
                    host,
                    at,
                    count: newly_lost,
                });
            }
            let n = synopses.len();
            if n > 0 {
                let _ = batch_tx.send(synopses);
            }
            n
        }
        FrameOutcome::Duplicate { .. } => 0,
    }
}

/// SoA counterpart of [`feed_frame`]: the frame's synopses are interned
/// into one [`SynopsisBatch`] (against the interner shared with the
/// consuming [`spawn_batch_analyzer_pool`]) and forwarded as a **single**
/// batch send; gap discoveries become [`LossReport`]s exactly as in
/// [`feed_frame`]. Returns the number of synopses forwarded.
pub fn feed_frame_soa(
    outcome: FrameOutcome,
    batch_tx: &Sender<SynopsisBatch>,
    interner: &SignatureInterner,
    loss_tx: &Sender<LossReport>,
) -> usize {
    match outcome {
        FrameOutcome::Fresh {
            host,
            synopses,
            newly_lost,
        } => {
            if newly_lost > 0 {
                let at = synopses.first().map(|s| s.start).unwrap_or(SimTime::ZERO);
                let _ = loss_tx.send(LossReport {
                    host,
                    at,
                    count: newly_lost,
                });
            }
            let n = synopses.len();
            if n > 0 {
                let mut batch = SynopsisBatch::with_capacity(n);
                for s in &synopses {
                    batch.push_synopsis(s, interner);
                }
                let _ = batch_tx.send(batch);
            }
            n
        }
        FrameOutcome::Duplicate { .. } => 0,
    }
}

// ---------------------------------------------------------------------------
// Durable model lifecycle: checkpointed pools, crash recovery, hot swap.
// ---------------------------------------------------------------------------

/// Tuning for [`spawn_analyzer_pool_with_lifecycle`].
#[derive(Debug, Clone)]
pub struct LifecycleConfig {
    /// Automatically checkpoint after this many routed synopses
    /// (0 disables automatic checkpoints; explicit
    /// [`LifecyclePool::checkpoint_now`] and the final shutdown
    /// checkpoint still run).
    pub checkpoint_every: u64,
    /// Checkpoint generations retained on disk (older ones are pruned).
    pub keep: usize,
    /// In bootstrap mode, attempt promotion to detecting mode once this
    /// many synopses have been observed (and again after every further
    /// `promote_after` observations while the stability gate refuses).
    pub promote_after: u64,
    /// Capacity of the ring buffer of recent synopses kept by the router
    /// for retraining.
    pub retrain_window: usize,
    /// Minimum synopses in the ring buffer before a retrain (or bootstrap
    /// promotion) is allowed.
    pub min_retrain_samples: u64,
    /// Training configuration for retrained models.
    pub model_config: ModelConfig,
    /// Meta-monitor delimiting the pool's own router/shard/checkpoint
    /// iterations as tracked tasks (see [`MetaMonitor`]). `None` disables
    /// self-observation.
    pub meta: Option<Arc<MetaMonitor>>,
    /// Fault injection: sleep this long inside every checkpoint write.
    /// Lets tests make the checkpoint stage observably slow, the same
    /// way [`SupervisorConfig::panic_after`] injects worker crashes.
    pub checkpoint_stall: Option<Duration>,
    /// Transient checkpoint write failures ([`CheckpointError::Io`]) are
    /// retried up to this many times before the generation is abandoned
    /// and the error surfaced. Corruption-class errors (bad magic,
    /// checksum mismatch, version skew) are never retried — rewriting
    /// won't fix those.
    pub checkpoint_retries: u32,
    /// Base backoff before the first checkpoint retry. Doubles per
    /// retry, capped at 8x the base, with deterministic jitter in
    /// [0.5, 1.5) derived from the checkpoint generation and attempt
    /// number so concurrent pools don't retry in lockstep.
    pub checkpoint_retry_backoff: Duration,
    /// Fault injection: fail this many checkpoint write attempts with a
    /// synthesized transient I/O error before letting writes through —
    /// the transient-failure counterpart of `checkpoint_stall`.
    pub checkpoint_fail_first: u32,
    /// Continuous adaptation: when set, the router runs a Page-Hinkley
    /// drift detector over window-level traffic summaries and triggers
    /// the in-band retrain/hot-swap itself when drift is confirmed.
    /// `None` (the default) keeps the pool's episodic behaviour —
    /// retrains happen only on explicit [`LifecyclePool::retrain_now`]
    /// and at bootstrap promotion.
    pub adapt: Option<AdaptPolicy>,
}

impl Default for LifecycleConfig {
    fn default() -> LifecycleConfig {
        LifecycleConfig {
            checkpoint_every: 4096,
            keep: 3,
            promote_after: 5_000,
            retrain_window: 16_384,
            min_retrain_samples: 1_000,
            model_config: ModelConfig::default(),
            meta: None,
            checkpoint_stall: None,
            checkpoint_retries: 3,
            checkpoint_retry_backoff: Duration::from_millis(10),
            checkpoint_fail_first: 0,
            adapt: None,
        }
    }
}

/// Drift-triggered adaptation policy for a lifecycle pool.
///
/// The router accumulates each adapt window's traffic into a
/// [`saad_stats::QuantileSketch`] (durations) and a signature-frequency
/// table, then at every watermark-aligned window close feeds two scalars
/// into per-dimension [`saad_stats::PageHinkley`] tests:
///
/// * the **flow statistic** — L1 divergence between the window's
///   signature-share distribution and the baseline captured at the last
///   swap (range `[0, 2]`);
/// * the **duration statistic** — relative delta between the window
///   sketch's `duration_percentile` quantile and the baseline sketch's.
///
/// When either test trips (sustained shift, not a one-window spike) the
/// router drops the retrain ring — it still holds the regime the drift
/// just invalidated — and marks a retrain pending. Once the ring has
/// refilled with `min_retrain_samples` of purely post-drift traffic, the
/// router invokes the *existing* retrain path at the current watermark
/// boundary — the same k-fold-gated, zero-drop [`ShardMsg`] swap that
/// [`LifecyclePool::retrain_now`] uses; there is no second swap
/// mechanism. After a swap the baseline is re-captured from the retrain
/// ring, both tests reset, and `cooldown_windows` windows must close
/// before drift evidence accrues again.
#[derive(Debug, Clone)]
pub struct AdaptPolicy {
    /// Width of one adapt window. Windows are aligned to the first
    /// absorbed task's start time and closed by the routed watermark.
    pub window: SimDuration,
    /// Windows with fewer routed tasks than this contribute no drift
    /// evidence (a sparse window says nothing about the distribution).
    pub min_window_samples: u64,
    /// Page-Hinkley tolerance: per-window deviations below this never
    /// accumulate evidence.
    pub delta: f64,
    /// Page-Hinkley trip threshold on accumulated evidence.
    pub lambda: f64,
    /// Windows to wait after any swap before drift can trigger again.
    pub cooldown_windows: u32,
    /// Relative-error bound of the per-window duration sketch.
    pub sketch_alpha: f64,
}

impl Default for AdaptPolicy {
    fn default() -> AdaptPolicy {
        AdaptPolicy {
            window: SimDuration::from_secs(60),
            min_window_samples: 200,
            delta: 0.005,
            lambda: 0.25,
            cooldown_windows: 2,
            sketch_alpha: saad_stats::sketch::DEFAULT_ALPHA,
        }
    }
}

/// Why a lifecycle operation (checkpoint, retrain, swap, recovery) failed.
#[derive(Debug, Clone, PartialEq)]
pub enum LifecycleError {
    /// Reading or writing the checkpoint store failed.
    Checkpoint(CheckpointError),
    /// The retrained model's configuration was rejected.
    Config(ConfigError),
    /// The pool is still in bootstrap (collect-only) mode, which is never
    /// checkpointed — there is no model to persist.
    Bootstrapping,
    /// Not enough recent synopses to train a model.
    InsufficientData {
        /// Synopses available in the retrain ring buffer.
        have: u64,
        /// Synopses required by the lifecycle configuration.
        need: u64,
    },
    /// The k-fold stability gate refused the candidate model: held-out
    /// outlier rates stray too far from the nominal rate, so thresholds
    /// trained from this window would not be trustworthy.
    UnstableModel {
        /// Mean held-out outlier rate across folds.
        heldout_rate: f64,
        /// Nominal outlier rate implied by the duration percentile.
        nominal_rate: f64,
    },
    /// The pool's router (or a shard worker) is gone.
    PoolClosed,
}

impl fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LifecycleError::Checkpoint(e) => write!(f, "checkpoint store: {e}"),
            LifecycleError::Config(e) => write!(f, "retrain config: {e}"),
            LifecycleError::Bootstrapping => {
                write!(f, "pool is in bootstrap mode (no model to checkpoint)")
            }
            LifecycleError::InsufficientData { have, need } => {
                write!(f, "retrain needs {need} recent synopses, have {have}")
            }
            LifecycleError::UnstableModel {
                heldout_rate,
                nominal_rate,
            } => write!(
                f,
                "k-fold gate refused the model: held-out outlier rate {heldout_rate:.4} \
                 vs nominal {nominal_rate:.4}"
            ),
            LifecycleError::PoolClosed => write!(f, "analyzer pool is no longer running"),
        }
    }
}

impl std::error::Error for LifecycleError {}

impl From<CheckpointError> for LifecycleError {
    fn from(e: CheckpointError) -> LifecycleError {
        LifecycleError::Checkpoint(e)
    }
}

impl From<ConfigError> for LifecycleError {
    fn from(e: ConfigError) -> LifecycleError {
        LifecycleError::Config(e)
    }
}

/// Outcome of a successful hot model swap (or bootstrap promotion).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwapReport {
    /// Synopses the new model was trained from.
    pub trained_from: u64,
    /// Whether this swap promoted the pool out of bootstrap mode.
    pub promoted: bool,
    /// Stages covered by the new model.
    pub stages: usize,
}

/// Control commands accepted by a lifecycle pool's router, applied at the
/// next batch boundary (or at end of stream).
enum PoolCommand {
    Checkpoint(Sender<Result<u64, LifecycleError>>),
    Retrain(Sender<Result<SwapReport, LifecycleError>>),
}

/// A checkpoint handed to the writer thread, with an optional reply
/// channel for an explicit [`LifecyclePool::checkpoint_now`] request.
type WriterJob = (Checkpoint, Option<Sender<Result<u64, LifecycleError>>>);

/// Router-side drift detection state for an [`AdaptPolicy`].
struct AdaptState {
    policy: AdaptPolicy,
    /// Percentile compared between window and baseline sketches (the
    /// model's own duration percentile, so drift is measured where the
    /// thresholds live).
    quantile: f64,
    /// Start of the currently accumulating window; set by the first
    /// absorbed feature and advanced in lockstep with the watermark.
    window_start: Option<SimTime>,
    /// Current window's duration sketch.
    win_sketch: QuantileSketch,
    /// Current window's per-signature task counts.
    win_sigs: DecayedFrequency,
    /// Baseline captured from the retrain ring at the last swap: what
    /// the live model was trained on.
    base_sketch: QuantileSketch,
    base_sigs: DecayedFrequency,
    /// Change tests over the per-window statistics.
    ph_duration: PageHinkley,
    ph_flow: PageHinkley,
    /// Windows remaining before drift may trigger a swap again.
    cooldown: u32,
    /// A drift trip is waiting for enough *fresh* post-drift traffic to
    /// retrain on. While pending, further trips are ignored and the ring
    /// (cleared at the trip) refills with new-regime tasks only, so the
    /// swap never trains on a mixture dominated by the old regime.
    pending: bool,
    /// Drift-triggered swaps, shared with [`LifecyclePool`].
    drift_swaps: Arc<AtomicU64>,
    /// Adapt windows evaluated (closed with enough samples), shared with
    /// [`LifecyclePool`].
    windows_evaluated: Arc<AtomicU64>,
}

impl AdaptState {
    fn new(
        policy: AdaptPolicy,
        quantile: f64,
        drift_swaps: Arc<AtomicU64>,
        windows_evaluated: Arc<AtomicU64>,
    ) -> AdaptState {
        assert!(
            policy.window > SimDuration::ZERO,
            "adapt window must be positive"
        );
        AdaptState {
            win_sketch: QuantileSketch::new(policy.sketch_alpha),
            win_sigs: DecayedFrequency::new(1.0),
            base_sketch: QuantileSketch::new(policy.sketch_alpha),
            base_sigs: DecayedFrequency::new(1.0),
            ph_duration: PageHinkley::new(policy.delta, policy.lambda),
            ph_flow: PageHinkley::new(policy.delta, policy.lambda),
            cooldown: 0,
            pending: false,
            window_start: None,
            quantile,
            drift_swaps,
            windows_evaluated,
            policy,
        }
    }

    /// Accumulate one routed task into the current window.
    fn absorb(&mut self, feature: &InternedFeature) {
        if self.window_start.is_none() {
            self.window_start = Some(feature.start);
        }
        self.win_sketch.record(feature.duration_us);
        self.win_sigs.record(u64::from(feature.sig.0), 1.0);
    }

    /// Re-anchor the baseline to `ring` (what the freshly swapped model
    /// was trained on), reset both change tests, and start the cooldown.
    /// Called after *every* successful swap — drift-triggered, manual,
    /// or bootstrap promotion — so "no drift" always means "like the
    /// live model's training window".
    fn on_swap(&mut self, ring: &VecDeque<(StageId, SigId, f64)>) {
        self.base_sketch = QuantileSketch::new(self.policy.sketch_alpha);
        self.base_sigs = DecayedFrequency::new(1.0);
        for &(_, sig, duration_us) in ring {
            self.base_sketch.record(duration_us);
            self.base_sigs.record(u64::from(sig.0), 1.0);
        }
        self.ph_duration.reset();
        self.ph_flow.reset();
        self.cooldown = self.policy.cooldown_windows;
        self.pending = false;
    }

    /// Close every window the watermark has passed and return whether a
    /// confirmed drift should trigger a retrain now.
    fn evaluate(&mut self, watermark: SimTime) -> bool {
        let Some(mut start) = self.window_start else {
            return false;
        };
        let mut drifted = false;
        while start + self.policy.window <= watermark {
            drifted |= self.close_window();
            start += self.policy.window;
        }
        self.window_start = Some(start);
        drifted
    }

    /// Close one window: feed the change tests when the window carries
    /// enough samples and a baseline exists, then reset the accumulators.
    fn close_window(&mut self) -> bool {
        let enough = self.win_sketch.count() >= self.policy.min_window_samples;
        let mut tripped = false;
        if enough && !self.base_sketch.is_empty() {
            self.windows_evaluated.fetch_add(1, Ordering::SeqCst);
            let flow_stat = self.win_sigs.l1_distance(&self.base_sigs);
            let dur_stat = match (
                self.win_sketch.percentile(self.quantile),
                self.base_sketch.percentile(self.quantile),
            ) {
                (Some(win), Some(base)) if base > 0.0 => (win - base).abs() / base,
                _ => 0.0,
            };
            tripped = self.ph_flow.observe(flow_stat);
            tripped |= self.ph_duration.observe(dur_stat);
        }
        if self.win_sketch.count() > 0 {
            self.win_sketch = QuantileSketch::new(self.policy.sketch_alpha);
            self.win_sigs = DecayedFrequency::new(1.0);
        }
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return false;
        }
        tripped
    }
}

/// Lifecycle state owned by the router thread of a
/// [`spawn_analyzer_pool_with_lifecycle`] pool.
struct RouterLifecycle {
    cfg: LifecycleConfig,
    control_rx: Receiver<PoolCommand>,
    writer_tx: Sender<WriterJob>,
    interner: Arc<SignatureInterner>,
    model: Arc<OutlierModel>,
    compiled: Arc<CompiledModel>,
    /// False while in bootstrap (collect-only) mode.
    detecting: bool,
    detecting_flag: Arc<AtomicBool>,
    /// Next checkpoint generation to assemble.
    generation: u64,
    /// Recent traffic for retraining, newest at the back — compacted to
    /// the three fields training needs (stage, interned signature,
    /// duration) instead of whole cloned synopses: 24 bytes per element
    /// and no per-element heap allocation. Signatures are resolved back
    /// through the shared interner only on the (cold) retrain path.
    ring: VecDeque<(StageId, SigId, f64)>,
    seen: u64,
    since_checkpoint: u64,
    next_attempt: u64,
    /// Drift detection state, present when the configuration carries an
    /// [`AdaptPolicy`].
    adapt: Option<AdaptState>,
}

impl RouterLifecycle {
    /// Record one routed element in the retrain ring buffer and counters.
    fn absorb(&mut self, feature: &InternedFeature) {
        if self.ring.len() == self.cfg.retrain_window {
            self.ring.pop_front();
        }
        self.ring
            .push_back((feature.stage, feature.sig, feature.duration_us));
        self.seen += 1;
        self.since_checkpoint += 1;
        if let Some(adapt) = self.adapt.as_mut() {
            adapt.absorb(feature);
        }
    }

    /// Batch-boundary lifecycle work: drain control commands, attempt
    /// bootstrap promotion, and take an automatic checkpoint when due.
    fn pump(&mut self, watermark: SimTime, shard_txs: &[Sender<ShardMsg>]) {
        let commands: Vec<PoolCommand> = self.control_rx.try_iter().collect();
        for command in commands {
            match command {
                PoolCommand::Checkpoint(reply) => self.take_checkpoint(shard_txs, Some(reply)),
                PoolCommand::Retrain(reply) => {
                    let _ = reply.send(self.try_retrain(watermark, shard_txs));
                }
            }
        }
        if !self.detecting
            && self.seen >= self.next_attempt
            && self.try_retrain(watermark, shard_txs).is_err()
        {
            // The gate refused; observe more traffic before retrying.
            self.next_attempt = self.seen + self.cfg.promote_after.max(1);
        }
        // Drift-triggered adaptation: close any adapt windows the
        // watermark has passed. A confirmed trip does NOT retrain on the
        // spot — the ring still holds the regime the drift just
        // invalidated. Instead the trip drops the ring and marks the
        // retrain pending; the swap happens at a later watermark
        // boundary, once enough purely post-drift traffic has refilled
        // the ring (reusing the existing retrain/hot-swap path).
        let drifted = self
            .adapt
            .as_mut()
            .is_some_and(|adapt| adapt.evaluate(watermark));
        if drifted && self.detecting {
            if let Some(adapt) = self.adapt.as_mut() {
                if !adapt.pending {
                    adapt.pending = true;
                    self.ring.clear();
                }
            }
        }
        let retrain_ready = self.detecting
            && self.adapt.as_ref().is_some_and(|adapt| adapt.pending)
            && self.ring.len() as u64 >= self.cfg.min_retrain_samples;
        if retrain_ready {
            match self.try_retrain(watermark, shard_txs) {
                Ok(_) => {
                    // on_swap already cleared `pending` and re-anchored
                    // the baseline to the fresh ring.
                    if let Some(adapt) = self.adapt.as_ref() {
                        adapt.drift_swaps.fetch_add(1, Ordering::SeqCst);
                    }
                }
                Err(_) => {
                    // The gate refused the candidate (sparse or unstable
                    // window); wait at least one window before retrying
                    // so a refusal can't retrain every batch.
                    if let Some(adapt) = self.adapt.as_mut() {
                        adapt.cooldown = adapt.cooldown.max(1);
                    }
                }
            }
        }
        if self.detecting
            && self.cfg.checkpoint_every > 0
            && self.since_checkpoint >= self.cfg.checkpoint_every
        {
            self.take_checkpoint(shard_txs, None);
        }
    }

    /// Collect a snapshot from every shard (in shard order, in-band) and
    /// hand the assembled checkpoint to the writer thread. Bootstrap mode
    /// is never checkpointed: there is no model worth persisting, and
    /// recovery falls back to bootstrap anyway.
    fn take_checkpoint(
        &mut self,
        shard_txs: &[Sender<ShardMsg>],
        reply: Option<Sender<Result<u64, LifecycleError>>>,
    ) {
        let fail = |reply: Option<Sender<Result<u64, LifecycleError>>>, e: LifecycleError| {
            if let Some(reply) = reply {
                let _ = reply.send(Err(e));
            }
        };
        if !self.detecting {
            return fail(reply, LifecycleError::Bootstrapping);
        }
        let mut pending = Vec::with_capacity(shard_txs.len());
        for tx in shard_txs {
            let (snap_tx, snap_rx) = bounded(1);
            if tx.send(ShardMsg::Snapshot(snap_tx)).is_err() {
                return fail(reply, LifecycleError::PoolClosed);
            }
            pending.push(snap_rx);
        }
        let mut shards = Vec::with_capacity(pending.len());
        for snap_rx in pending {
            match snap_rx.recv() {
                Ok(snapshot) => shards.push(snapshot),
                Err(_) => return fail(reply, LifecycleError::PoolClosed),
            }
        }
        let checkpoint = Checkpoint::new(
            self.generation,
            self.model.clone(),
            self.compiled.clone(),
            self.interner.clone(),
            shards,
        );
        self.generation += 1;
        self.since_checkpoint = 0;
        if self.writer_tx.send((checkpoint, reply)).is_err() {
            // Writer gone; the reply (if any) went with the job.
        }
    }

    /// Train a candidate model from the retrain ring buffer, gate it with
    /// k-fold cross-validation over the pooled durations, and — if it
    /// passes — broadcast an in-band swap to every shard.
    fn try_retrain(
        &mut self,
        watermark: SimTime,
        shard_txs: &[Sender<ShardMsg>],
    ) -> Result<SwapReport, LifecycleError> {
        let have = self.ring.len() as u64;
        let need = self.cfg.min_retrain_samples;
        if have < need {
            return Err(LifecycleError::InsufficientData { have, need });
        }
        let mc = self.cfg.model_config;
        // Whole-window stability gate: if even the pooled duration
        // distribution cannot support a stable percentile threshold, the
        // traffic window is too heterogeneous to train from.
        let durations: Vec<f64> = self.ring.iter().map(|&(_, _, d)| d).collect();
        let outcome = saad_stats::kfold::validate_percentile_threshold(
            &durations,
            mc.kfold,
            mc.duration_percentile,
        )
        .ok_or(LifecycleError::InsufficientData { have, need })?;
        if outcome.is_unstable(mc.kfold_tolerance) {
            return Err(LifecycleError::UnstableModel {
                heldout_rate: outcome.mean_heldout_rate,
                nominal_rate: outcome.nominal_rate,
            });
        }
        let mut builder = ModelBuilder::new();
        // Resolve each distinct SigId back to its signature once; the
        // ring's ids all came from this pool's shared interner.
        let mut resolved: HashMap<SigId, Signature> = HashMap::new();
        for &(stage, sig, duration_us) in &self.ring {
            let signature = resolved.entry(sig).or_insert_with(|| {
                self.interner
                    .resolve(sig)
                    .expect("retrain ring SigId interned by this pool")
            });
            builder.observe_parts(stage, signature, duration_us);
        }
        let model = Arc::new(builder.try_build(mc)?);
        // Compiled against the SAME shared interner every shard already
        // uses, so interned features stay valid across the swap.
        let compiled = Arc::new(model.compile(&self.interner));
        for tx in shard_txs {
            if tx
                .send(ShardMsg::Swap {
                    model: model.clone(),
                    compiled: compiled.clone(),
                    watermark,
                })
                .is_err()
            {
                return Err(LifecycleError::PoolClosed);
            }
        }
        let promoted = !self.detecting;
        self.model = model;
        self.compiled = compiled;
        self.detecting = true;
        self.detecting_flag.store(true, Ordering::SeqCst);
        if let Some(adapt) = self.adapt.as_mut() {
            // Every swap re-anchors the drift baseline: the no-drift
            // reference is always the live model's training window.
            adapt.on_swap(&self.ring);
        }
        Ok(SwapReport {
            trained_from: have,
            promoted,
            stages: self.model.stage_count(),
        })
    }
}

/// Handle to an analyzer pool with a durable model lifecycle: everything
/// [`PoolHandle`] offers, plus checkpoint/retrain control and recovery
/// introspection. See [`spawn_analyzer_pool_with_lifecycle`].
#[derive(Debug)]
pub struct LifecyclePool {
    pool: PoolHandle,
    control: Sender<PoolCommand>,
    writer: Option<JoinHandle<()>>,
    detecting: Arc<AtomicBool>,
    checkpoints_written: Arc<AtomicU64>,
    checkpoint_retries: Arc<AtomicU64>,
    last_generation: Arc<AtomicU64>,
    last_error: Arc<parking_lot::Mutex<Option<LifecycleError>>>,
    checkpoint_latency: Arc<Histogram>,
    recovered_generation: Option<u64>,
    rejected: Vec<(PathBuf, CheckpointError)>,
    drift_swaps: Arc<AtomicU64>,
    adapt_windows: Arc<AtomicU64>,
}

/// Sentinel for "no checkpoint written yet" in `last_generation`.
const NO_GENERATION: u64 = u64::MAX;

impl LifecyclePool {
    /// Receiver of detected anomaly events, merged across all shards.
    pub fn events(&self) -> &Receiver<AnomalyEvent> {
        self.pool.events()
    }

    /// Drain any events currently queued without blocking.
    pub fn drain_events(&self) -> Vec<AnomalyEvent> {
        self.pool.drain_events()
    }

    /// Synopses delivered to shard workers so far.
    pub fn processed(&self) -> u64 {
        self.pool.processed()
    }

    /// Total shard-worker restarts after panics.
    pub fn restarts(&self) -> u64 {
        self.pool.restarts()
    }

    /// Poison synopses skipped across all shards.
    pub fn skipped(&self) -> u64 {
        self.pool.skipped()
    }

    /// Synopses the transport reported lost, counted once per report.
    pub fn tasks_lost(&self) -> u64 {
        self.pool.tasks_lost()
    }

    /// Number of shard workers.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Whether the pool has a model and is classifying (true), or is in
    /// bootstrap collect-only mode (false).
    pub fn is_detecting(&self) -> bool {
        self.detecting.load(Ordering::SeqCst)
    }

    /// Checkpoints durably written so far.
    pub fn checkpoints_written(&self) -> u64 {
        self.checkpoints_written.load(Ordering::SeqCst)
    }

    /// Hot swaps triggered by the drift detector (0 without an
    /// [`AdaptPolicy`]; manual retrains and bootstrap promotion are not
    /// counted here).
    pub fn drift_swaps(&self) -> u64 {
        self.drift_swaps.load(Ordering::SeqCst)
    }

    /// Adapt windows that closed with enough samples to contribute drift
    /// evidence (0 without an [`AdaptPolicy`]).
    pub fn adapt_windows(&self) -> u64 {
        self.adapt_windows.load(Ordering::SeqCst)
    }

    /// Transient checkpoint write failures retried with backoff so far
    /// (each failed attempt that was retried counts once).
    pub fn checkpoint_retries(&self) -> u64 {
        self.checkpoint_retries.load(Ordering::SeqCst)
    }

    /// Generation of the most recent durable checkpoint, if any.
    pub fn last_checkpoint_generation(&self) -> Option<u64> {
        match self.last_generation.load(Ordering::SeqCst) {
            NO_GENERATION => None,
            generation => Some(generation),
        }
    }

    /// The most recent background checkpoint-write failure, if any.
    /// (Explicit [`LifecyclePool::checkpoint_now`] calls surface their
    /// errors directly.)
    pub fn last_checkpoint_error(&self) -> Option<LifecycleError> {
        self.last_error.lock().clone()
    }

    /// Generation this pool was restored from at startup (`None` if it
    /// started in bootstrap mode).
    pub fn recovered_generation(&self) -> Option<u64> {
        self.recovered_generation
    }

    /// Checkpoint files rejected during startup recovery, newest first,
    /// each with the typed reason (corruption, truncation, version skew).
    pub fn rejected_checkpoints(&self) -> &[(PathBuf, CheckpointError)] {
        &self.rejected
    }

    /// Expose the pool's live counters plus the lifecycle layer's own:
    /// checkpoint write latency (wall-clock histogram recorded on the
    /// writer thread), checkpoints written, last durable generation, and
    /// the detecting/bootstrap flag.
    pub fn register_metrics(&self, registry: &Registry) {
        self.pool.register_metrics(registry);
        registry.attach_histogram(
            "saad_checkpoint_write_latency_us",
            "Wall-clock time to durably write one checkpoint, in microseconds",
            &[],
            Arc::clone(&self.checkpoint_latency),
        );
        let written = Arc::clone(&self.checkpoints_written);
        registry.register_counter_fn(
            "saad_checkpoints_written_total",
            "Checkpoints durably written by this pool",
            &[],
            move || written.load(Ordering::SeqCst),
        );
        let retries = Arc::clone(&self.checkpoint_retries);
        registry.register_counter_fn(
            "saad_checkpoint_retries",
            "Transient checkpoint write failures retried with backoff",
            &[],
            move || retries.load(Ordering::SeqCst),
        );
        let last_gen = Arc::clone(&self.last_generation);
        registry.register_gauge_fn(
            "saad_checkpoint_last_generation",
            "Generation of the most recent durable checkpoint (-1 before the first)",
            &[],
            move || match last_gen.load(Ordering::SeqCst) {
                NO_GENERATION => -1,
                generation => generation as i64,
            },
        );
        let detecting = Arc::clone(&self.detecting);
        registry.register_gauge_fn(
            "saad_pool_detecting",
            "1 while the pool classifies with a model, 0 in bootstrap collect-only mode",
            &[],
            move || i64::from(detecting.load(Ordering::SeqCst)),
        );
        let drift_swaps = Arc::clone(&self.drift_swaps);
        registry.register_counter_fn(
            "saad_drift_swaps_total",
            "Hot model swaps triggered by the drift detector",
            &[],
            move || drift_swaps.load(Ordering::SeqCst),
        );
        let adapt_windows = Arc::clone(&self.adapt_windows);
        registry.register_counter_fn(
            "saad_adapt_windows_total",
            "Adapt windows that closed with enough samples for drift evidence",
            &[],
            move || adapt_windows.load(Ordering::SeqCst),
        );
    }

    /// Request a checkpoint; the reply arrives once the checkpoint is
    /// durably on disk. Commands are applied at the next batch boundary
    /// (or at end of stream), so an idle pool replies only after the next
    /// batch — send an empty batch to nudge it if needed.
    pub fn request_checkpoint(&self) -> Receiver<Result<u64, LifecycleError>> {
        let (tx, rx) = bounded(1);
        if self
            .control
            .send(PoolCommand::Checkpoint(tx.clone()))
            .is_err()
        {
            let _ = tx.send(Err(LifecycleError::PoolClosed));
        }
        rx
    }

    /// Blocking convenience for [`LifecyclePool::request_checkpoint`].
    ///
    /// # Errors
    ///
    /// [`LifecycleError::Bootstrapping`] before promotion,
    /// [`LifecycleError::Checkpoint`] if the write failed, or
    /// [`LifecycleError::PoolClosed`] if the pool is gone.
    pub fn checkpoint_now(&self) -> Result<u64, LifecycleError> {
        self.request_checkpoint()
            .recv()
            .unwrap_or(Err(LifecycleError::PoolClosed))
    }

    /// Request a hot model swap retrained from the recent synopsis
    /// window. Applied at the next batch boundary, like
    /// [`LifecyclePool::request_checkpoint`].
    pub fn request_retrain(&self) -> Receiver<Result<SwapReport, LifecycleError>> {
        let (tx, rx) = bounded(1);
        if self.control.send(PoolCommand::Retrain(tx.clone())).is_err() {
            let _ = tx.send(Err(LifecycleError::PoolClosed));
        }
        rx
    }

    /// Blocking convenience for [`LifecyclePool::request_retrain`].
    ///
    /// # Errors
    ///
    /// [`LifecycleError::InsufficientData`] or
    /// [`LifecycleError::UnstableModel`] when the gate refuses the
    /// candidate, [`LifecycleError::Config`] for an invalid training
    /// configuration, or [`LifecycleError::PoolClosed`].
    pub fn retrain_now(&self) -> Result<SwapReport, LifecycleError> {
        self.request_retrain()
            .recv()
            .unwrap_or(Err(LifecycleError::PoolClosed))
    }

    /// Wait for the pool to finish (input channel closed): the final
    /// checkpoint is durable once this returns. Returns each shard's
    /// detector for inspection, like [`PoolHandle::join`].
    ///
    /// # Errors
    ///
    /// Propagates the first [`AnalyzerError`] from the router or any
    /// shard, after joining every thread.
    pub fn join(mut self) -> Result<Vec<AnomalyDetector>, AnalyzerError> {
        drop(self.control);
        let result = self.pool.join();
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
        result
    }
}

/// Spawn an analyzer pool with a durable model lifecycle rooted at `dir`:
///
/// * **Recovery** — on startup the newest checkpoint that decodes cleanly
///   is restored (model, signature interner, and every shard's windowed
///   state); corrupt, truncated, or version-skewed files are skipped with
///   typed reasons (see [`LifecyclePool::rejected_checkpoints`]). A
///   checkpoint taken with a different worker count is resharded by
///   merging the snapshots and re-partitioning along the pool's own
///   routing function.
/// * **Bootstrap** — with no usable checkpoint the pool starts in
///   collect-only mode: windows are observed and accounted (emitting
///   [`AnomalyKind::ModelUnavailable`] events with completeness ratios)
///   but nothing is classified. After
///   [`LifecycleConfig::promote_after`] observations the router trains a
///   model from the recent synopsis window and — if the k-fold stability
///   gate passes — promotes the pool to detecting mode.
/// * **Checkpoints** — while detecting, the router snapshots every shard
///   at batch boundaries (every [`LifecycleConfig::checkpoint_every`]
///   synopses, on [`LifecyclePool::checkpoint_now`], and at shutdown) and
///   a dedicated writer thread persists them atomically, pruning old
///   generations.
/// * **Hot swap** — [`LifecyclePool::retrain_now`] retrains from recent
///   traffic and broadcasts the new model in-band to every shard, which
///   installs it at the swap watermark: no synopsis is dropped, double
///   counted, or classified by a half-installed model.
///
/// # Errors
///
/// Fails with [`LifecycleError::Checkpoint`] if the store directory is
/// unusable or recovery I/O fails (individual bad checkpoint files are
/// recovered around, not errors), or [`LifecycleError::Config`] for an
/// invalid detector configuration.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn spawn_analyzer_pool_with_lifecycle(
    config: DetectorConfig,
    supervisor: SupervisorConfig,
    lifecycle: LifecycleConfig,
    workers: usize,
    dir: impl Into<PathBuf>,
    rx: Receiver<Vec<TaskSynopsis>>,
    loss_rx: Option<Receiver<LossReport>>,
) -> Result<LifecyclePool, LifecycleError> {
    spawn_lifecycle_pool_inner(
        config,
        supervisor,
        lifecycle,
        workers,
        dir,
        PoolInput::Raw(rx),
        loss_rx,
    )
}

/// [`spawn_analyzer_pool_with_lifecycle`] over a single ordered channel
/// of [`SequencedInput`] steps instead of separate batch and loss
/// channels.
///
/// Loss reports take effect at exactly their stream position, so the
/// pool's event multiset is a pure function of the sequence it is fed:
/// two pools consuming identical sequences emit identical event
/// multisets. Use this when detection output must be reproducible or
/// auditable against a recorded stream — e.g. replaying a root
/// collector's linearized output through an oracle pool to prove a
/// failover degraded detection by exactly its accounted gap.
///
/// # Errors
///
/// Same conditions as [`spawn_analyzer_pool_with_lifecycle`].
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn spawn_sequenced_analyzer_pool_with_lifecycle(
    config: DetectorConfig,
    supervisor: SupervisorConfig,
    lifecycle: LifecycleConfig,
    workers: usize,
    dir: impl Into<PathBuf>,
    rx: Receiver<SequencedInput>,
) -> Result<LifecyclePool, LifecycleError> {
    spawn_lifecycle_pool_inner(
        config,
        supervisor,
        lifecycle,
        workers,
        dir,
        PoolInput::Sequenced(rx),
        None,
    )
}

fn spawn_lifecycle_pool_inner(
    config: DetectorConfig,
    supervisor: SupervisorConfig,
    lifecycle: LifecycleConfig,
    workers: usize,
    dir: impl Into<PathBuf>,
    input: PoolInput,
    loss_rx: Option<Receiver<LossReport>>,
) -> Result<LifecyclePool, LifecycleError> {
    assert!(workers > 0, "analyzer pool needs at least one worker");
    let store = CheckpointStore::create(dir, lifecycle.keep)?;
    let recovery = store.recover()?;
    let next_generation = store.latest_generation()?.map_or(0, |g| g + 1);
    let rejected = recovery.rejected;

    let (recovered_generation, detecting, model, compiled, interner, detectors) =
        match recovery.checkpoint {
            Some(checkpoint) => {
                let Checkpoint {
                    generation,
                    model,
                    compiled,
                    interner,
                    shards,
                } = checkpoint;
                let shards = if shards.len() == workers {
                    shards
                } else {
                    // Worker count changed since the checkpoint: merge the
                    // old shards and re-partition along this pool's own
                    // routing, so every (host, stage) window lands on the
                    // shard that will keep feeding it.
                    match DetectorSnapshot::merge(shards) {
                        Some(merged) => {
                            merged.partition(workers, |host, stage| shard_for(host, stage, workers))
                        }
                        None => Vec::new(),
                    }
                };
                let detectors: Vec<AnomalyDetector> = if shards.is_empty() {
                    (0..workers)
                        .map(|_| {
                            AnomalyDetector::with_shared(
                                model.clone(),
                                compiled.clone(),
                                interner.clone(),
                                config,
                            )
                        })
                        .collect()
                } else {
                    shards
                        .into_iter()
                        .map(AnomalyDetector::from_snapshot)
                        .collect()
                };
                (Some(generation), true, model, compiled, interner, detectors)
            }
            None => {
                // Bootstrap: no usable checkpoint. Collect-only detectors
                // share a fresh interner; the placeholder model never
                // classifies anything and is replaced at promotion.
                let interner = Arc::new(SignatureInterner::new());
                let model = Arc::new(ModelBuilder::new().build(ModelConfig::default()));
                let compiled = Arc::new(model.compile(&interner));
                let mut detectors = Vec::with_capacity(workers);
                for _ in 0..workers {
                    detectors.push(AnomalyDetector::collecting(interner.clone(), config)?);
                }
                (None, false, model, compiled, interner, detectors)
            }
        };

    let detecting_flag = Arc::new(AtomicBool::new(detecting));
    let checkpoints_written = Arc::new(AtomicU64::new(0));
    let checkpoint_retries = Arc::new(AtomicU64::new(0));
    let last_generation = Arc::new(AtomicU64::new(NO_GENERATION));
    let last_error: Arc<parking_lot::Mutex<Option<LifecycleError>>> =
        Arc::new(parking_lot::Mutex::new(None));
    let checkpoint_latency = Arc::new(Histogram::new());
    let meta = lifecycle.meta.clone();
    let checkpoint_stall = lifecycle.checkpoint_stall;
    let retry_cap = lifecycle.checkpoint_retries;
    let retry_base = lifecycle.checkpoint_retry_backoff;
    let mut fail_first = lifecycle.checkpoint_fail_first;

    let (writer_tx, writer_rx) = unbounded::<WriterJob>();
    let (written, last_gen, errors) = (
        checkpoints_written.clone(),
        last_generation.clone(),
        last_error.clone(),
    );
    let latency = checkpoint_latency.clone();
    let retries_counter = checkpoint_retries.clone();
    let writer_meta = meta.clone();
    let writer = std::thread::Builder::new()
        .name("saad-checkpoint-writer".into())
        .spawn(move || {
            for (checkpoint, reply) in writer_rx.iter() {
                let started = Instant::now();
                let result = meta_tick(&writer_meta, MetaStage::Checkpoint, || {
                    if let Some(stall) = checkpoint_stall {
                        std::thread::sleep(stall);
                    }
                    let mut attempt = 0u32;
                    loop {
                        let saved = if fail_first > 0 {
                            fail_first -= 1;
                            Err(CheckpointError::Io(
                                "injected transient write failure".to_owned(),
                            ))
                        } else {
                            store.save(&checkpoint).map(|_| ())
                        };
                        match saved {
                            Ok(()) => break Ok(checkpoint.generation),
                            // Only transient I/O failures are worth a
                            // rewrite; corruption-class errors surface
                            // immediately.
                            Err(CheckpointError::Io(_)) if attempt < retry_cap => {
                                attempt += 1;
                                retries_counter.fetch_add(1, Ordering::SeqCst);
                                std::thread::sleep(checkpoint_retry_delay(
                                    retry_base,
                                    attempt,
                                    checkpoint.generation,
                                ));
                            }
                            Err(e) => break Err(LifecycleError::from(e)),
                        }
                    }
                });
                latency.record(started.elapsed().as_micros() as u64);
                match &result {
                    Ok(generation) => {
                        written.fetch_add(1, Ordering::SeqCst);
                        last_gen.store(*generation, Ordering::SeqCst);
                    }
                    Err(e) => *errors.lock() = Some(e.clone()),
                }
                if let Some(reply) = reply {
                    let _ = reply.send(result);
                }
            }
        })
        .expect("spawn checkpoint writer thread");

    let (control_tx, control_rx) = unbounded();
    let next_attempt = lifecycle.promote_after;
    let drift_swaps = Arc::new(AtomicU64::new(0));
    let adapt_windows = Arc::new(AtomicU64::new(0));
    let adapt = lifecycle.adapt.clone().map(|policy| {
        AdaptState::new(
            policy,
            lifecycle.model_config.duration_percentile,
            drift_swaps.clone(),
            adapt_windows.clone(),
        )
    });
    let router_lifecycle = RouterLifecycle {
        cfg: lifecycle,
        control_rx,
        writer_tx,
        interner,
        model,
        compiled,
        detecting,
        detecting_flag: detecting_flag.clone(),
        generation: next_generation,
        ring: VecDeque::new(),
        seen: 0,
        since_checkpoint: 0,
        next_attempt,
        adapt,
    };
    let pool = spawn_pool_inner(
        detectors,
        supervisor,
        config.window,
        input,
        loss_rx,
        Some(router_lifecycle),
        meta,
    );
    Ok(LifecyclePool {
        pool,
        control: control_tx,
        writer: Some(writer),
        detecting: detecting_flag,
        checkpoints_written,
        checkpoint_retries,
        last_generation,
        last_error,
        checkpoint_latency,
        recovered_generation,
        rejected,
        drift_swaps,
        adapt_windows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModelBuilder, ModelConfig};
    use crate::TaskUid;
    use bytes::BytesMut;
    use saad_logging::LogPointId;
    use saad_sim::{SimDuration, SimTime};

    fn synopsis(points: &[u16], dur_us: u64, start: SimTime, uid: u64) -> TaskSynopsis {
        synopsis_on(0, points, dur_us, start, uid)
    }

    fn synopsis_on(
        host: u16,
        points: &[u16],
        dur_us: u64,
        start: SimTime,
        uid: u64,
    ) -> TaskSynopsis {
        TaskSynopsis {
            host: HostId(host),
            stage: StageId(0),
            uid: TaskUid(uid),
            start,
            duration: SimDuration::from_micros(dur_us),
            log_points: points.iter().map(|&p| (LogPointId(p), 1)).collect(),
        }
    }

    fn model() -> Arc<OutlierModel> {
        let mut b = ModelBuilder::new();
        for i in 0..5000u64 {
            b.observe(&synopsis(&[1, 2], 1_000 + (i % 53) * 5, SimTime::ZERO, i));
        }
        Arc::new(b.build(ModelConfig::default()))
    }

    #[test]
    fn pipeline_detects_anomalies_end_to_end() {
        let (sink, rx) = ChannelSink::new();
        let handle = spawn_analyzer(model(), DetectorConfig::default(), rx);
        // A minute of traffic with a burst of a brand-new signature.
        for i in 0..100u64 {
            let s = if i.is_multiple_of(4) {
                synopsis(&[1, 9], 1_000, SimTime::from_millis(i * 100), i)
            } else {
                synopsis(&[1, 2], 1_000, SimTime::from_millis(i * 100), i)
            };
            sink.submit(s);
        }
        drop(sink);
        let detector = handle.join().unwrap();
        assert_eq!(detector.tasks_seen(), 100);
    }

    #[test]
    fn events_are_delivered_over_channel() {
        let (sink, rx) = ChannelSink::new();
        let handle = spawn_analyzer(model(), DetectorConfig::default(), rx);
        for i in 0..50u64 {
            sink.submit(synopsis(&[7], 1_000, SimTime::from_millis(i), i));
        }
        drop(sink);
        // Collect all events until the channel closes.
        let mut events = Vec::new();
        while let Ok(e) = handle.events().recv() {
            events.push(e);
        }
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, AnomalyKind::FlowNew(_))),
            "events: {events:?}"
        );
        assert_eq!(handle.processed(), 50);
        handle.join().unwrap();
    }

    #[test]
    fn multiple_sinks_can_feed_one_analyzer() {
        let (sink, rx) = ChannelSink::new();
        let sink2 = sink.clone();
        let handle = spawn_analyzer(model(), DetectorConfig::default(), rx);
        let t1 = std::thread::spawn(move || {
            for i in 0..500u64 {
                sink.submit(synopsis(&[1, 2], 1_000, SimTime::from_millis(i), i));
            }
        });
        let t2 = std::thread::spawn(move || {
            for i in 0..500u64 {
                sink2.submit(synopsis(&[1, 2], 1_000, SimTime::from_millis(i), 1000 + i));
            }
        });
        t1.join().unwrap();
        t2.join().unwrap();
        let detector = handle.join().unwrap();
        assert_eq!(detector.tasks_seen(), 1000);
    }

    #[test]
    fn model_sink_trains_inline() {
        let sink = ModelSink::new();
        for i in 0..200u64 {
            sink.submit(synopsis(&[1, 2], 1_000, SimTime::ZERO, i));
        }
        assert_eq!(sink.observed(), 200);
        let model = sink.build(ModelConfig::default());
        assert_eq!(model.stage_count(), 1);
    }

    #[test]
    fn detector_sink_detects_inline() {
        let sink = DetectorSink::new(model(), DetectorConfig::default());
        for i in 0..60u64 {
            sink.submit(synopsis(&[3], 1_000, SimTime::from_millis(i * 10), i));
        }
        assert_eq!(sink.tasks_seen(), 60);
        assert!(sink.events_so_far().is_empty(), "window still open");
        let events = sink.finish();
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, AnomalyKind::FlowNew(_))),
            "events: {events:?}"
        );
    }

    #[test]
    fn drain_events_is_nonblocking() {
        let (sink, rx) = ChannelSink::new();
        let handle = spawn_analyzer(model(), DetectorConfig::default(), rx);
        assert!(handle.drain_events().is_empty());
        drop(sink);
        handle.join().unwrap();
    }

    #[test]
    fn unbounded_sink_counts_disconnected_drops() {
        let (sink, rx) = ChannelSink::new();
        drop(rx);
        for i in 0..3u64 {
            sink.submit(synopsis_on(9, &[1, 2], 1_000, SimTime::ZERO, i));
        }
        assert_eq!(sink.dropped(), 3);
        assert_eq!(sink.stats().drops_for(HostId(9)).disconnected, 3);
    }

    #[test]
    fn drop_newest_counts_exact_per_host_drops() {
        let (sink, rx) = ChannelSink::bounded(4, OverloadPolicy::DropNewest);
        for i in 0..10u64 {
            let host = (i % 2) as u16;
            sink.submit(synopsis_on(host, &[1, 2], 1_000, SimTime::ZERO, i));
        }
        // 4 queued (uids 0..4), 6 dropped (uids 4..10 → hosts 0,1,0,1,0,1).
        assert_eq!(sink.dropped(), 6);
        assert_eq!(sink.stats().drops_for(HostId(0)).newest, 3);
        assert_eq!(sink.stats().drops_for(HostId(1)).newest, 3);
        let queued: Vec<u64> = rx.try_iter().map(|s| s.uid.0).collect();
        assert_eq!(queued, vec![0, 1, 2, 3]);
    }

    #[test]
    fn drop_oldest_keeps_the_freshest_synopses() {
        let (sink, rx) = ChannelSink::bounded(4, OverloadPolicy::DropOldest);
        for i in 0..10u64 {
            sink.submit(synopsis_on(5, &[1, 2], 1_000, SimTime::ZERO, i));
        }
        assert_eq!(sink.dropped(), 6);
        assert_eq!(sink.stats().drops_for(HostId(5)).oldest, 6);
        let queued: Vec<u64> = rx.try_iter().map(|s| s.uid.0).collect();
        assert_eq!(queued, vec![6, 7, 8, 9]);
    }

    #[test]
    fn block_policy_bounds_the_stall_and_counts_timeouts() {
        let timeout = Duration::from_millis(40);
        let (sink, rx) = ChannelSink::bounded(1, OverloadPolicy::Block { timeout });
        sink.submit(synopsis(&[1, 2], 1_000, SimTime::ZERO, 0));
        let start = std::time::Instant::now();
        sink.submit(synopsis(&[1, 2], 1_000, SimTime::ZERO, 1));
        let stalled = start.elapsed();
        assert!(stalled >= timeout, "returned before the timeout");
        assert!(
            stalled < timeout * 20,
            "stalled far beyond the policy bound: {stalled:?}"
        );
        assert_eq!(sink.stats().drops_for(HostId(0)).timed_out, 1);
        drop(rx);
    }

    #[test]
    fn handle_exposes_sink_stats() {
        let (sink, rx) = ChannelSink::bounded(2, OverloadPolicy::DropNewest);
        let stats = sink.stats();
        for i in 0..5u64 {
            sink.submit(synopsis(&[1, 2], 1_000, SimTime::ZERO, i));
        }
        drop(sink);
        let handle = spawn_analyzer(model(), DetectorConfig::default(), rx).with_sink_stats(stats);
        assert_eq!(handle.dropped(), 3);
        assert_eq!(handle.drops_by_host()[&HostId(0)].newest, 3);
        handle.join().unwrap();
    }

    #[test]
    fn sink_stats_exact_under_concurrent_multi_host_drops() {
        // N threads hammer one SinkStats with drops across disjoint and
        // shared hosts; every count must land exactly once.
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 1_000;
        let stats = Arc::new(SinkStats::default());
        let threads: Vec<_> = (0..THREADS)
            .map(|t| {
                let stats = Arc::clone(&stats);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        // Half the traffic contends on a shared host 0,
                        // half goes to a per-thread host.
                        let host = if i % 2 == 0 {
                            HostId(0)
                        } else {
                            HostId(t as u16 + 1)
                        };
                        match i % 4 {
                            0 => stats.record(host, |c| {
                                c.newest.fetch_add(1, Ordering::Relaxed);
                            }),
                            1 => stats.record(host, |c| {
                                c.oldest.fetch_add(1, Ordering::Relaxed);
                            }),
                            2 => stats.record(host, |c| {
                                c.timed_out.fetch_add(1, Ordering::Relaxed);
                            }),
                            _ => stats.record(host, |c| {
                                c.disconnected.fetch_add(1, Ordering::Relaxed);
                            }),
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(stats.dropped(), THREADS * PER_THREAD);
        let totals = stats.drop_totals();
        assert_eq!(totals.total(), THREADS * PER_THREAD);
        assert_eq!(totals.newest, THREADS * PER_THREAD / 4);
        assert_eq!(totals.oldest, THREADS * PER_THREAD / 4);
        assert_eq!(totals.timed_out, THREADS * PER_THREAD / 4);
        assert_eq!(totals.disconnected, THREADS * PER_THREAD / 4);
        let by_host = stats.drops_by_host();
        assert_eq!(by_host.len(), THREADS as usize + 1);
        assert_eq!(by_host[&HostId(0)].total(), THREADS * PER_THREAD / 2);
        for t in 0..THREADS {
            assert_eq!(by_host[&HostId(t as u16 + 1)].total(), PER_THREAD / 2);
        }
    }

    #[test]
    fn pool_register_metrics_exposes_live_counters() {
        let registry = saad_obs::Registry::new();
        let (batch_tx, batch_rx) = unbounded();
        let handle = spawn_analyzer_pool(
            model(),
            DetectorConfig::default(),
            SupervisorConfig::default(),
            2,
            batch_rx,
            None,
        );
        handle.register_metrics(&registry);
        let batch: Vec<TaskSynopsis> = (0..10)
            .map(|i| synopsis(&[1, 2], 1_000, SimTime::from_millis(i * 10), i))
            .collect();
        batch_tx.send(batch).unwrap();
        drop(batch_tx);
        let text = registry.render();
        saad_obs::validate_text(&text).unwrap();
        handle.join().unwrap();
        let text = registry.render();
        assert!(text.contains("saad_pool_processed_total 10"), "{text}");
        assert!(text.contains("saad_pool_batches_routed_total 1"), "{text}");
        assert!(
            text.contains(r#"saad_pool_shard_processed_total{shard="0"}"#),
            "{text}"
        );
        // Ten synopses stay below the snapshot floor: none taken, and
        // every one sits in some shard's replay tail.
        for series in [
            r#"saad_pool_shard_snapshots_total{shard="1"} 0"#,
            r#"saad_pool_shard_replay_tail{shard="0"}"#,
            "saad_pool_snapshot_us_count 0",
        ] {
            assert!(text.contains(series), "{series} missing from {text}");
        }
    }

    #[test]
    fn join_reports_analyzer_panic_as_error() {
        let (sink, rx) = ChannelSink::new();
        let supervisor = SupervisorConfig {
            max_restarts: 0,
            panic_after: Some(1),
            ..SupervisorConfig::default()
        };
        let handle =
            spawn_supervised_analyzer(model(), DetectorConfig::default(), supervisor, rx, None);
        sink.submit(synopsis(&[1, 2], 1_000, SimTime::ZERO, 0));
        drop(sink);
        match handle.join() {
            Err(AnalyzerError::RestartsExhausted { restarts: 0, panic }) => {
                assert!(panic.contains("injected"), "{panic}");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn supervisor_restarts_from_snapshot_and_skips_poison() {
        let (sink, rx) = ChannelSink::new();
        let supervisor = SupervisorConfig {
            snapshot_every: 10,
            panic_after: Some(30),
            ..SupervisorConfig::default()
        };
        let handle =
            spawn_supervised_analyzer(model(), DetectorConfig::default(), supervisor, rx, None);
        for i in 0..60u64 {
            sink.submit(synopsis(&[7], 1_000, SimTime::from_millis(i * 10), i));
        }
        drop(sink);
        let mut events = Vec::new();
        while let Ok(e) = handle.events().recv() {
            events.push(e);
        }
        assert_eq!(handle.restarts(), 1);
        assert_eq!(handle.skipped(), 1);
        assert_eq!(handle.processed(), 60);
        let detector = handle.join().unwrap();
        // Everything except the poison synopsis was analyzed…
        assert_eq!(detector.tasks_seen(), 59);
        // …and detection survived the crash.
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, AnomalyKind::FlowNew(_))),
            "events: {events:?}"
        );
    }

    #[test]
    fn silent_host_raises_liveness_event_and_rearms() {
        let (sink, rx) = ChannelSink::new();
        let supervisor = SupervisorConfig {
            silent_after: 2,
            ..SupervisorConfig::default()
        };
        let handle =
            spawn_supervised_analyzer(model(), DetectorConfig::default(), supervisor, rx, None);
        let mut uid = 0u64;
        let at = |min: u64, sec: u64| SimTime::from_secs(min * 60 + sec);
        // Both hosts active in minute 0.
        for s in 0..10u64 {
            for host in [0u16, 1] {
                sink.submit(synopsis_on(host, &[1, 2], 1_000, at(0, s * 6), uid));
                uid += 1;
            }
        }
        // Host 1 goes silent; host 0 keeps the clock moving for 4 minutes.
        for min in 1..=4u64 {
            for s in 0..10u64 {
                sink.submit(synopsis_on(0, &[1, 2], 1_000, at(min, s * 6), uid));
                uid += 1;
            }
        }
        // Host 1 comes back.
        sink.submit(synopsis_on(1, &[1, 2], 1_000, at(5, 0), uid));
        drop(sink);
        let mut events = Vec::new();
        while let Ok(e) = handle.events().recv() {
            events.push(e);
        }
        handle.join().unwrap();
        let silent: Vec<_> = events.iter().filter(|e| e.kind.is_liveness()).collect();
        assert_eq!(silent.len(), 1, "{events:?}");
        assert_eq!(silent[0].host, HostId(1));
        assert_eq!(silent[0].stage, StageId::NONE);
        assert_eq!(silent[0].completeness, 0.0);
        assert!(matches!(
            silent[0].kind,
            AnomalyKind::HostSilent { windows } if windows >= 2
        ));
    }

    #[test]
    fn loss_reports_reach_the_detector() {
        let (sink, rx) = ChannelSink::new();
        let (loss_tx, loss_rx) = unbounded();
        let handle = spawn_supervised_analyzer(
            model(),
            DetectorConfig::default(),
            SupervisorConfig::default(),
            rx,
            Some(loss_rx),
        );
        loss_tx
            .send(LossReport {
                host: HostId(0),
                at: SimTime::from_secs(5),
                count: 40,
            })
            .unwrap();
        for i in 0..20u64 {
            sink.submit(synopsis(&[1, 2], 1_000, SimTime::from_secs(i), i));
        }
        drop(sink);
        let detector = handle.join().unwrap();
        assert_eq!(detector.tasks_lost(), 40);
        assert_eq!(detector.tasks_seen(), 20);
    }

    /// Sorted Debug strings — order-insensitive event comparison.
    fn event_keys(events: &[AnomalyEvent]) -> Vec<String> {
        let mut keys: Vec<String> = events.iter().map(|e| format!("{e:?}")).collect();
        keys.sort_unstable();
        keys
    }

    /// A mixed stream over several hosts and stages: mostly healthy, plus
    /// a rare-signature surge on (host 1, stage 0) in minute 1 and a
    /// brand-new signature on (host 2, stage 1) in minute 2.
    fn mixed_stream() -> Vec<TaskSynopsis> {
        let mut out = Vec::new();
        let mut uid = 0u64;
        for minute in 0..4u64 {
            for i in 0..120u64 {
                let host = (i % 3) as u16;
                let stage = (i % 2) as u16;
                let points: &[u16] = if minute == 1 && host == 1 && stage == 0 && i % 4 == 0 {
                    &[1, 2, 3] // trained-rare surge
                } else if minute == 2 && host == 2 && stage == 1 && i == 7 {
                    &[9] // never trained
                } else {
                    &[1, 2]
                };
                let mut s = synopsis_on(host, points, 1_000, SimTime::ZERO, uid);
                s.stage = StageId(stage);
                s.start = SimTime::from_mins(minute) + SimDuration::from_millis(i * 450);
                out.push(s);
                uid += 1;
            }
        }
        out
    }

    /// A model covering stages 0 and 1 with [1,2] common and [1,2,3]
    /// rare, so the mixed stream's anomalies are detectable.
    fn multi_stage_model() -> Arc<OutlierModel> {
        let mut b = ModelBuilder::new();
        for i in 0..20_000u64 {
            let mut s = if i.is_multiple_of(1000) {
                synopsis(&[1, 2, 3], 1_000, SimTime::ZERO, i)
            } else {
                synopsis(&[1, 2], 1_000 + (i % 53) * 5, SimTime::ZERO, i)
            };
            s.stage = StageId((i % 2) as u16);
            b.observe(&s);
        }
        Arc::new(b.build(ModelConfig::default()))
    }

    #[test]
    fn pool_matches_single_supervised_analyzer() {
        let model = multi_stage_model();
        let stream = mixed_stream();
        // Reference: single supervised analyzer over the same stream.
        let (sink, rx) = ChannelSink::new();
        let single = spawn_supervised_analyzer(
            model.clone(),
            DetectorConfig::default(),
            SupervisorConfig::default(),
            rx,
            None,
        );
        for s in &stream {
            sink.submit(s.clone());
        }
        drop(sink);
        let mut single_events = Vec::new();
        while let Ok(e) = single.events().recv() {
            single_events.push(e);
        }
        let single_detector = single.join().unwrap();
        assert!(!single_events.is_empty(), "stream should produce events");

        for workers in [1usize, 3] {
            let (batch_tx, batch_rx) = unbounded();
            let pool = spawn_analyzer_pool(
                model.clone(),
                DetectorConfig::default(),
                SupervisorConfig::default(),
                workers,
                batch_rx,
                None,
            );
            // Batches of 16, as a frame-batched transport would send them.
            for chunk in stream.chunks(16) {
                batch_tx.send(chunk.to_vec()).unwrap();
            }
            drop(batch_tx);
            let mut pool_events = Vec::new();
            while let Ok(e) = pool.events().recv() {
                pool_events.push(e);
            }
            assert_eq!(pool.processed(), stream.len() as u64);
            let detectors = pool.join().unwrap();
            assert_eq!(detectors.len(), workers);
            let seen: u64 = detectors.iter().map(|d| d.tasks_seen()).sum();
            assert_eq!(seen, single_detector.tasks_seen());
            assert_eq!(
                event_keys(&pool_events),
                event_keys(&single_events),
                "pool with {workers} workers diverged"
            );
        }
    }

    #[test]
    fn batch_pool_matches_raw_pool_and_single_analyzer() {
        let model = multi_stage_model();
        let stream = mixed_stream();
        // Reference: single supervised analyzer over the same stream.
        let (sink, rx) = ChannelSink::new();
        let single = spawn_supervised_analyzer(
            model.clone(),
            DetectorConfig::default(),
            SupervisorConfig::default(),
            rx,
            None,
        );
        for s in &stream {
            sink.submit(s.clone());
        }
        drop(sink);
        let mut single_events = Vec::new();
        while let Ok(e) = single.events().recv() {
            single_events.push(e);
        }
        let single_detector = single.join().unwrap();

        for workers in [1usize, 3] {
            // Producer side: a BatchSink interning into the pool's own
            // interner, 16 synopses per SoA batch.
            let interner = Arc::new(SignatureInterner::new());
            let (batch_sink, batch_rx) = BatchSink::new(16, interner.clone());
            let pool = spawn_batch_analyzer_pool(
                model.clone(),
                DetectorConfig::default(),
                SupervisorConfig {
                    pin_shards: true, // benign wherever pinning is refused
                    ..SupervisorConfig::default()
                },
                workers,
                interner,
                batch_rx,
                None,
            );
            for s in &stream {
                batch_sink.submit(s.clone());
            }
            drop(batch_sink); // flushes the partial tail batch
            let mut pool_events = Vec::new();
            while let Ok(e) = pool.events().recv() {
                pool_events.push(e);
            }
            assert_eq!(pool.processed(), stream.len() as u64);
            let detectors = pool.join().unwrap();
            let seen: u64 = detectors.iter().map(|d| d.tasks_seen()).sum();
            assert_eq!(seen, single_detector.tasks_seen());
            assert_eq!(
                event_keys(&pool_events),
                event_keys(&single_events),
                "batch pool with {workers} workers diverged"
            );
        }
    }

    #[test]
    fn batch_sink_flushes_partial_batch_on_drop() {
        let interner = Arc::new(SignatureInterner::new());
        let (sink, rx) = BatchSink::new(8, interner);
        for i in 0..13u64 {
            sink.submit(synopsis(&[1, 2], 1_000, SimTime::from_millis(i), i));
        }
        let first = rx.try_recv().unwrap();
        assert_eq!(first.len(), 8);
        assert!(rx.try_recv().is_err(), "partial batch must wait for drop");
        drop(sink);
        let tail = rx.try_recv().unwrap();
        assert_eq!(tail.len(), 5);
        // Watermarks within a producer batch are a running maximum.
        assert!(tail.watermarks.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn batch_pool_restarts_from_snapshot_and_skips_poison() {
        // Mirror of pool_shard_restarts_from_snapshot_and_skips_poison
        // over the SoA input path: one worker, poison at synopsis 30.
        let interner = Arc::new(SignatureInterner::new());
        let (batch_sink, batch_rx) = BatchSink::new(60, interner.clone());
        let pool = spawn_batch_analyzer_pool(
            model(),
            DetectorConfig::default(),
            SupervisorConfig {
                snapshot_every: 10,
                panic_after: Some(30),
                ..SupervisorConfig::default()
            },
            1,
            interner,
            batch_rx,
            None,
        );
        for i in 0..60u64 {
            batch_sink.submit(synopsis(&[7], 1_000, SimTime::from_millis(i * 10), i));
        }
        drop(batch_sink);
        let mut events = Vec::new();
        while let Ok(e) = pool.events().recv() {
            events.push(e);
        }
        assert_eq!(pool.restarts(), 1);
        assert_eq!(pool.skipped(), 1);
        let detectors = pool.join().unwrap();
        assert_eq!(detectors[0].tasks_seen(), 59);
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, AnomalyKind::FlowNew(_))),
            "events: {events:?}"
        );
    }

    #[test]
    fn pool_counts_losses_once_despite_broadcast() {
        let (batch_tx, batch_rx) = unbounded();
        let (loss_tx, loss_rx) = unbounded();
        let pool = spawn_analyzer_pool(
            model(),
            DetectorConfig::default(),
            SupervisorConfig::default(),
            4,
            batch_rx,
            Some(loss_rx),
        );
        loss_tx
            .send(LossReport {
                host: HostId(0),
                at: SimTime::from_secs(5),
                count: 40,
            })
            .unwrap();
        let batch: Vec<TaskSynopsis> = (0..20u64)
            .map(|i| synopsis(&[1, 2], 1_000, SimTime::from_secs(i), i))
            .collect();
        batch_tx.send(batch).unwrap();
        drop(batch_tx);
        drop(loss_tx);
        while pool.events().recv().is_ok() {}
        // Counted once at the pool level…
        assert_eq!(pool.tasks_lost(), 40);
        let detectors = pool.join().unwrap();
        // …while every shard detector knows the loss for its own windows.
        assert!(detectors.iter().all(|d| d.tasks_lost() == 40));
    }

    #[test]
    fn pool_shard_restarts_from_snapshot_and_skips_poison() {
        // One worker so panic_after hits a deterministic synopsis.
        let (batch_tx, batch_rx) = unbounded();
        let pool = spawn_analyzer_pool(
            model(),
            DetectorConfig::default(),
            SupervisorConfig {
                snapshot_every: 10,
                panic_after: Some(30),
                ..SupervisorConfig::default()
            },
            1,
            batch_rx,
            None,
        );
        let batch: Vec<TaskSynopsis> = (0..60u64)
            .map(|i| synopsis(&[7], 1_000, SimTime::from_millis(i * 10), i))
            .collect();
        batch_tx.send(batch).unwrap();
        drop(batch_tx);
        let mut events = Vec::new();
        while let Ok(e) = pool.events().recv() {
            events.push(e);
        }
        assert_eq!(pool.restarts(), 1);
        assert_eq!(pool.skipped(), 1);
        let detectors = pool.join().unwrap();
        assert_eq!(detectors[0].tasks_seen(), 59);
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, AnomalyKind::FlowNew(_))),
            "events: {events:?}"
        );
    }

    #[test]
    fn pool_surfaces_exhausted_restarts() {
        let (batch_tx, batch_rx) = unbounded();
        let pool = spawn_analyzer_pool(
            model(),
            DetectorConfig::default(),
            SupervisorConfig {
                max_restarts: 0,
                panic_after: Some(1),
                ..SupervisorConfig::default()
            },
            2,
            batch_rx,
            None,
        );
        batch_tx
            .send(vec![synopsis(&[1, 2], 1_000, SimTime::ZERO, 0)])
            .unwrap();
        drop(batch_tx);
        match pool.join() {
            Err(AnalyzerError::RestartsExhausted { restarts: 0, panic }) => {
                assert!(panic.contains("injected"), "{panic}");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn pool_router_tracks_liveness_across_shards() {
        let (batch_tx, batch_rx) = unbounded();
        let pool = spawn_analyzer_pool(
            model(),
            DetectorConfig::default(),
            SupervisorConfig {
                silent_after: 2,
                ..SupervisorConfig::default()
            },
            4,
            batch_rx,
            None,
        );
        let mut uid = 0u64;
        let at = |min: u64, sec: u64| SimTime::from_secs(min * 60 + sec);
        let mut batch = Vec::new();
        for s in 0..10u64 {
            for host in [0u16, 1] {
                batch.push(synopsis_on(host, &[1, 2], 1_000, at(0, s * 6), uid));
                uid += 1;
            }
        }
        // Host 1 goes silent; host 0 keeps the clock moving.
        for min in 1..=4u64 {
            for s in 0..10u64 {
                batch.push(synopsis_on(0, &[1, 2], 1_000, at(min, s * 6), uid));
                uid += 1;
            }
        }
        batch_tx.send(batch).unwrap();
        drop(batch_tx);
        let mut events = Vec::new();
        while let Ok(e) = pool.events().recv() {
            events.push(e);
        }
        pool.join().unwrap();
        let silent: Vec<_> = events.iter().filter(|e| e.kind.is_liveness()).collect();
        assert_eq!(silent.len(), 1, "{events:?}");
        assert_eq!(silent[0].host, HostId(1));
    }

    #[test]
    fn feed_frame_forwards_fresh_and_ignores_duplicates() {
        let (batch_tx, batch_rx) = unbounded();
        let (loss_tx, loss_rx) = unbounded();
        let fresh = FrameOutcome::Fresh {
            host: HostId(3),
            synopses: vec![
                synopsis_on(3, &[1, 2], 1_000, SimTime::from_secs(9), 0),
                synopsis_on(3, &[1, 2], 1_000, SimTime::from_secs(10), 1),
            ],
            newly_lost: 5,
        };
        assert_eq!(feed_frame(fresh, &batch_tx, &loss_tx), 2);
        let batch = batch_rx.try_recv().unwrap();
        assert_eq!(batch.len(), 2);
        let report = loss_rx.try_recv().unwrap();
        assert_eq!(report.host, HostId(3));
        assert_eq!(report.count, 5);
        assert_eq!(report.at, SimTime::from_secs(9));
        let dup = FrameOutcome::Duplicate {
            host: HostId(3),
            seq: 7,
        };
        assert_eq!(feed_frame(dup, &batch_tx, &loss_tx), 0);
        assert!(batch_rx.try_recv().is_err());
        assert!(loss_rx.try_recv().is_err());
    }

    // --- durable model lifecycle ---

    /// Self-cleaning unique temp directory (no tempfile crate).
    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new() -> TempDir {
            static SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
            let dir = std::env::temp_dir().join(format!(
                "saad-pipeline-test-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        fn path(&self) -> &std::path::Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn quick_lifecycle() -> LifecycleConfig {
        LifecycleConfig {
            checkpoint_every: 0,
            promote_after: 300,
            min_retrain_samples: 200,
            ..LifecycleConfig::default()
        }
    }

    /// Healthy two-host traffic: `per_min` tasks per minute of signature
    /// [1, 2] with mildly varying durations.
    fn healthy_stream(mins: u64, per_min: u64) -> Vec<TaskSynopsis> {
        let mut out = Vec::new();
        let mut uid = 0u64;
        for minute in 0..mins {
            for i in 0..per_min {
                let mut s = synopsis_on(
                    (i % 2) as u16,
                    &[1, 2],
                    1_000 + (uid % 53) * 5,
                    SimTime::ZERO,
                    uid,
                );
                s.start =
                    SimTime::from_mins(minute) + SimDuration::from_millis(i * (60_000 / per_min));
                out.push(s);
                uid += 1;
            }
        }
        out
    }

    fn feed(batch_tx: &Sender<Vec<TaskSynopsis>>, stream: &[TaskSynopsis]) {
        for chunk in stream.chunks(60) {
            batch_tx.send(chunk.to_vec()).unwrap();
        }
    }

    /// Control commands apply at the router's next batch boundary, so a
    /// command sent while queued batches are still in flight could land
    /// before them. Wait until the pool has consumed what was fed.
    fn wait_processed(pool: &LifecyclePool, target: u64) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while pool.processed() < target {
            assert!(std::time::Instant::now() < deadline, "pool stalled");
            std::thread::yield_now();
        }
    }

    #[test]
    fn shutdown_advances_every_shard_to_the_final_watermark() {
        // Hosts 1..=5 stop after minute 0; host 0 keeps the clock moving
        // to minute 9. Without the FinalWatermark broadcast, shards owning
        // only the early hosts would shut down with a stale watermark.
        let (batch_tx, batch_rx) = unbounded();
        let pool = spawn_analyzer_pool(
            model(),
            DetectorConfig::default(),
            SupervisorConfig::default(),
            4,
            batch_rx,
            None,
        );
        let mut batch = Vec::new();
        let mut uid = 0u64;
        for host in 0..6u16 {
            batch.push(synopsis_on(
                host,
                &[1, 2],
                1_000,
                SimTime::from_secs(1),
                uid,
            ));
            uid += 1;
        }
        let last = SimTime::from_mins(9);
        batch.push(synopsis_on(0, &[1, 2], 1_000, last, uid));
        batch_tx.send(batch).unwrap();
        drop(batch_tx);
        while pool.events().recv().is_ok() {}
        let mut detectors = pool.join().unwrap();
        for detector in &mut detectors {
            assert_eq!(
                detector.snapshot().watermark(),
                last,
                "shard shut down with a stale watermark"
            );
            assert!(
                detector.flush().is_empty(),
                "shard left windows open through shutdown"
            );
        }
    }

    #[test]
    fn lifecycle_pool_bootstraps_promotes_and_checkpoints() {
        let dir = TempDir::new();
        let (batch_tx, batch_rx) = unbounded();
        let pool = spawn_analyzer_pool_with_lifecycle(
            DetectorConfig::default(),
            SupervisorConfig::default(),
            quick_lifecycle(),
            2,
            dir.path(),
            batch_rx,
            None,
        )
        .unwrap();
        assert!(!pool.is_detecting(), "no checkpoint: must start bootstrap");
        assert_eq!(pool.recovered_generation(), None);

        // Healthy traffic through promotion (promote_after = 300)…
        feed(&batch_tx, &healthy_stream(3, 240));
        // …then a burst of a never-seen signature that only a promoted,
        // detecting pool can flag.
        let mut tail = Vec::new();
        for i in 0..100u64 {
            let points: &[u16] = if i.is_multiple_of(4) {
                &[1, 9]
            } else {
                &[1, 2]
            };
            let mut s = synopsis_on(0, points, 1_000, SimTime::ZERO, 10_000 + i);
            s.start = SimTime::from_mins(4) + SimDuration::from_millis(i * 400);
            tail.push(s);
        }
        feed(&batch_tx, &tail);
        drop(batch_tx);
        let mut events = Vec::new();
        while let Ok(e) = pool.events().recv() {
            events.push(e);
        }
        assert!(pool.is_detecting(), "pool never promoted");
        assert!(
            events.iter().any(|e| e.kind.is_model_unavailable()),
            "bootstrap windows must be accounted as ModelUnavailable: {events:?}"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, AnomalyKind::FlowNew(_))),
            "promoted pool missed the anomaly burst: {events:?}"
        );
        // The shutdown checkpoint is durable once join returns.
        pool.join().unwrap();
        let store = CheckpointStore::create(dir.path(), 3).unwrap();
        assert!(store.latest_generation().unwrap().is_some());
    }

    /// Like [`healthy_stream`] but with durations scaled by `factor`
    /// (a rollout changing the stage's performance profile) starting at
    /// `start_min`, with uids offset so streams can be concatenated.
    fn scaled_stream(start_min: u64, mins: u64, per_min: u64, factor: f64) -> Vec<TaskSynopsis> {
        let mut out = Vec::new();
        let mut uid = start_min * per_min;
        for minute in start_min..start_min + mins {
            for i in 0..per_min {
                let dur = ((1_000 + (uid % 53) * 5) as f64 * factor) as u64;
                let mut s = synopsis_on((i % 2) as u16, &[1, 2], dur, SimTime::ZERO, uid);
                s.start =
                    SimTime::from_mins(minute) + SimDuration::from_millis(i * (60_000 / per_min));
                out.push(s);
                uid += 1;
            }
        }
        out
    }

    fn adaptive_lifecycle() -> LifecycleConfig {
        LifecycleConfig {
            checkpoint_every: 0,
            promote_after: 300,
            min_retrain_samples: 200,
            // Keep the ring close to one adapt window of traffic so a
            // post-drift retrain trains on the *new* regime, not a
            // mixture dominated by history.
            retrain_window: 500,
            adapt: Some(AdaptPolicy {
                window: SimDuration::from_secs(60),
                min_window_samples: 50,
                cooldown_windows: 1,
                ..AdaptPolicy::default()
            }),
            ..LifecycleConfig::default()
        }
    }

    #[test]
    fn drift_triggers_auto_swap_at_watermark_boundary() {
        let dir = TempDir::new();
        let (batch_tx, batch_rx) = unbounded();
        let pool = spawn_analyzer_pool_with_lifecycle(
            DetectorConfig::default(),
            SupervisorConfig::default(),
            adaptive_lifecycle(),
            2,
            dir.path(),
            batch_rx,
            None,
        )
        .unwrap();
        // Healthy run-in (promotes around minute 1.25, then quiet
        // windows establish the Page-Hinkley null), then a rollout that
        // quintuples every duration.
        feed(&batch_tx, &scaled_stream(0, 6, 240, 1.0));
        feed(&batch_tx, &scaled_stream(6, 6, 240, 5.0));
        drop(batch_tx);
        while pool.events().recv().is_ok() {}
        assert!(pool.is_detecting());
        assert!(
            pool.adapt_windows() > 0,
            "adapt windows never closed with evidence"
        );
        assert!(
            pool.drift_swaps() >= 1,
            "sustained rollout drift must trigger an auto-swap \
             (windows evaluated: {})",
            pool.adapt_windows()
        );
        pool.join().unwrap();
    }

    #[test]
    fn quiet_traffic_never_drift_swaps() {
        let dir = TempDir::new();
        let (batch_tx, batch_rx) = unbounded();
        let pool = spawn_analyzer_pool_with_lifecycle(
            DetectorConfig::default(),
            SupervisorConfig::default(),
            adaptive_lifecycle(),
            2,
            dir.path(),
            batch_rx,
            None,
        )
        .unwrap();
        feed(&batch_tx, &scaled_stream(0, 12, 240, 1.0));
        drop(batch_tx);
        while pool.events().recv().is_ok() {}
        assert!(pool.is_detecting());
        assert!(
            pool.adapt_windows() > 0,
            "quiet windows must still be evaluated"
        );
        assert_eq!(
            pool.drift_swaps(),
            0,
            "stationary traffic must not trigger drift swaps"
        );
        pool.join().unwrap();
    }

    #[test]
    fn checkpoint_is_rejected_in_bootstrap_mode() {
        let dir = TempDir::new();
        let (batch_tx, batch_rx) = unbounded();
        let pool = spawn_analyzer_pool_with_lifecycle(
            DetectorConfig::default(),
            SupervisorConfig::default(),
            quick_lifecycle(),
            2,
            dir.path(),
            batch_rx,
            None,
        )
        .unwrap();
        let reply = pool.request_checkpoint();
        batch_tx.send(Vec::new()).unwrap(); // nudge the batch boundary
        assert_eq!(reply.recv().unwrap(), Err(LifecycleError::Bootstrapping));
        let retrain = pool.request_retrain();
        batch_tx.send(Vec::new()).unwrap();
        assert_eq!(
            retrain.recv().unwrap(),
            Err(LifecycleError::InsufficientData { have: 0, need: 200 })
        );
        drop(batch_tx);
        pool.join().unwrap();
        // Nothing durable came out of bootstrap.
        let store = CheckpointStore::create(dir.path(), 3).unwrap();
        assert_eq!(store.latest_generation().unwrap(), None);
    }

    #[test]
    fn lifecycle_pool_recovers_and_reshards_checkpointed_state() {
        let dir = TempDir::new();
        let stream = healthy_stream(3, 240);
        let seen = stream.len() as u64;
        {
            let (batch_tx, batch_rx) = unbounded();
            let pool = spawn_analyzer_pool_with_lifecycle(
                DetectorConfig::default(),
                SupervisorConfig::default(),
                quick_lifecycle(),
                2,
                dir.path(),
                batch_rx,
                None,
            )
            .unwrap();
            feed(&batch_tx, &stream);
            drop(batch_tx);
            while pool.events().recv().is_ok() {}
            assert!(pool.is_detecting());
            pool.join().unwrap();
        }
        // Same worker count: shard-for-shard restore.
        {
            let (batch_tx, batch_rx) = unbounded();
            let pool = spawn_analyzer_pool_with_lifecycle(
                DetectorConfig::default(),
                SupervisorConfig::default(),
                quick_lifecycle(),
                2,
                dir.path(),
                batch_rx,
                None,
            )
            .unwrap();
            assert!(pool.is_detecting(), "recovered pool must skip bootstrap");
            assert!(pool.recovered_generation().is_some());
            drop(batch_tx);
            while pool.events().recv().is_ok() {}
            let detectors = pool.join().unwrap();
            let total: u64 = detectors.iter().map(|d| d.tasks_seen()).sum();
            assert_eq!(total, seen, "recovered tasks_seen diverged");
        }
        // Different worker count: merge + re-partition along the pool's
        // own routing.
        {
            let (batch_tx, batch_rx) = unbounded();
            let pool = spawn_analyzer_pool_with_lifecycle(
                DetectorConfig::default(),
                SupervisorConfig::default(),
                quick_lifecycle(),
                3,
                dir.path(),
                batch_rx,
                None,
            )
            .unwrap();
            assert!(pool.is_detecting());
            drop(batch_tx);
            while pool.events().recv().is_ok() {}
            let detectors = pool.join().unwrap();
            assert_eq!(detectors.len(), 3);
            let total: u64 = detectors.iter().map(|d| d.tasks_seen()).sum();
            assert_eq!(total, seen, "resharded tasks_seen diverged");
        }
    }

    #[test]
    fn explicit_checkpoint_is_durable_when_the_call_returns() {
        let dir = TempDir::new();
        let (batch_tx, batch_rx) = unbounded();
        let pool = spawn_analyzer_pool_with_lifecycle(
            DetectorConfig::default(),
            SupervisorConfig::default(),
            quick_lifecycle(),
            2,
            dir.path(),
            batch_rx,
            None,
        )
        .unwrap();
        feed(&batch_tx, &healthy_stream(2, 240));
        wait_processed(&pool, 480);
        let reply = pool.request_checkpoint();
        batch_tx.send(Vec::new()).unwrap();
        let generation = reply.recv().unwrap().expect("checkpoint failed");
        // Durable right now — not merely queued.
        let store = CheckpointStore::create(dir.path(), 3).unwrap();
        assert!(store.load(generation).is_ok());
        assert_eq!(pool.last_checkpoint_generation(), Some(generation));
        assert_eq!(pool.checkpoints_written(), 1);
        assert_eq!(pool.last_checkpoint_error(), None);
        drop(batch_tx);
        while pool.events().recv().is_ok() {}
        pool.join().unwrap();
    }

    #[test]
    fn transient_checkpoint_write_failures_are_retried_and_counted() {
        let dir = TempDir::new();
        let (batch_tx, batch_rx) = unbounded();
        let pool = spawn_analyzer_pool_with_lifecycle(
            DetectorConfig::default(),
            SupervisorConfig::default(),
            LifecycleConfig {
                checkpoint_fail_first: 2,
                checkpoint_retry_backoff: Duration::from_millis(1),
                ..quick_lifecycle()
            },
            2,
            dir.path(),
            batch_rx,
            None,
        )
        .unwrap();
        feed(&batch_tx, &healthy_stream(2, 240));
        wait_processed(&pool, 480);
        let reply = pool.request_checkpoint();
        batch_tx.send(Vec::new()).unwrap();
        let generation = reply
            .recv()
            .unwrap()
            .expect("retries must absorb transient write failures");
        let store = CheckpointStore::create(dir.path(), 3).unwrap();
        assert!(store.load(generation).is_ok());
        assert_eq!(pool.checkpoint_retries(), 2, "each failed attempt counts");
        assert_eq!(pool.checkpoints_written(), 1);
        assert_eq!(pool.last_checkpoint_error(), None);
        drop(batch_tx);
        while pool.events().recv().is_ok() {}
        pool.join().unwrap();
    }

    #[test]
    fn exhausted_checkpoint_retries_surface_the_io_error() {
        let dir = TempDir::new();
        let (batch_tx, batch_rx) = unbounded();
        let pool = spawn_analyzer_pool_with_lifecycle(
            DetectorConfig::default(),
            SupervisorConfig::default(),
            LifecycleConfig {
                // More injected failures than 1 initial try + 2 retries.
                checkpoint_fail_first: 10,
                checkpoint_retries: 2,
                checkpoint_retry_backoff: Duration::from_millis(1),
                ..quick_lifecycle()
            },
            2,
            dir.path(),
            batch_rx,
            None,
        )
        .unwrap();
        feed(&batch_tx, &healthy_stream(2, 240));
        wait_processed(&pool, 480);
        let reply = pool.request_checkpoint();
        batch_tx.send(Vec::new()).unwrap();
        let err = reply
            .recv()
            .unwrap()
            .expect_err("all attempts were injected to fail");
        assert!(
            matches!(err, LifecycleError::Checkpoint(CheckpointError::Io(_))),
            "unexpected error: {err:?}"
        );
        assert_eq!(pool.checkpoint_retries(), 2, "retries stop at the cap");
        assert_eq!(pool.checkpoints_written(), 0);
        drop(batch_tx);
        while pool.events().recv().is_ok() {}
        pool.join().unwrap();
    }

    #[test]
    fn hot_swap_loses_and_double_counts_nothing_under_load() {
        let dir = TempDir::new();
        let (batch_tx, batch_rx) = unbounded();
        let pool = spawn_analyzer_pool_with_lifecycle(
            DetectorConfig::default(),
            SupervisorConfig::default(),
            quick_lifecycle(),
            3,
            dir.path(),
            batch_rx,
            None,
        )
        .unwrap();
        let stream = healthy_stream(4, 240);
        feed(&batch_tx, &stream[..720]);
        wait_processed(&pool, 720);
        // Mid-stream explicit retrain → hot swap broadcast to all shards.
        let reply = pool.request_retrain();
        batch_tx.send(Vec::new()).unwrap();
        let report = reply.recv().unwrap().expect("retrain refused");
        assert!(report.trained_from >= 200);
        feed(&batch_tx, &stream[720..]);
        drop(batch_tx);
        while pool.events().recv().is_ok() {}
        assert_eq!(pool.processed(), stream.len() as u64);
        let detectors = pool.join().unwrap();
        let total: u64 = detectors.iter().map(|d| d.tasks_seen()).sum();
        assert_eq!(total, stream.len() as u64, "swap lost or duplicated tasks");
    }

    fn shared_multi_stage_model() -> Arc<OutlierModel> {
        static MODEL: std::sync::OnceLock<Arc<OutlierModel>> = std::sync::OnceLock::new();
        MODEL.get_or_init(multi_stage_model).clone()
    }

    /// A stream over `hosts × 2` `(host, stage)` pairs, 40 000 synopses
    /// to the one-minute window, so two windows' worth of pairs are open
    /// at any time; stamped with its own running-max watermark as the
    /// router would. A rare-signature surge on host 1 and the odd
    /// never-trained signature make window closes emit events.
    fn wide_stream(hosts: u64, n: u64, interner: &SignatureInterner) -> SynopsisBatch {
        let mut batch = SynopsisBatch::with_capacity(n as usize);
        for i in 0..n {
            let host = (i % hosts) as u16;
            let points: &[u16] = if host == 1 && i % 3 == 0 {
                &[1, 2, 3]
            } else if i % 4_999 == 0 {
                &[9]
            } else {
                &[1, 2]
            };
            let mut s = synopsis_on(host, points, 1_000, SimTime::from_micros(i * 1_500), i);
            s.stage = StageId(((i / hosts) % 2) as u16);
            batch.push_synopsis(&s, interner);
        }
        batch
    }

    /// Rows `range` of `batch`, as a batch.
    fn rows(batch: &SynopsisBatch, range: std::ops::Range<usize>) -> SynopsisBatch {
        let mut out = SynopsisBatch::with_capacity(range.len());
        for i in range {
            out.push_from(batch, i);
        }
        out
    }

    /// Feed `stream` to a supervised detector in batches of 512; returns
    /// the events, the detector, the ordinal after which the first
    /// restart snapshot was taken, and the open windows it copied.
    fn run_supervised(
        stream: &SynopsisBatch,
        detector: AnomalyDetector,
        panic_after: Option<u64>,
        restarts: &Arc<AtomicU64>,
        skipped: &Arc<AtomicU64>,
    ) -> (Vec<AnomalyEvent>, AnomalyDetector, Option<(u64, usize)>) {
        let obs = SupervisionObs::default();
        let mut supervised = SupervisedDetector::new(
            detector,
            SupervisorConfig {
                panic_after,
                ..SupervisorConfig::default()
            },
            restarts.clone(),
            skipped.clone(),
            obs.clone(),
        );
        let mut events = Vec::new();
        let mut first_snapshot = None;
        for from in (0..stream.len()).step_by(512) {
            let to = (from + 512).min(stream.len());
            events.extend(supervised.observe_batch(&rows(stream, from..to)).unwrap());
            if first_snapshot.is_none() && obs.snapshots.load(Ordering::Relaxed) > 0 {
                first_snapshot = Some((to as u64, supervised.detector.open_windows()));
            }
        }
        let (tail, detector) = supervised.finish();
        events.extend(tail);
        (events, detector, first_snapshot)
    }

    #[test]
    fn restart_before_and_after_a_stretched_snapshot_loses_only_the_poison() {
        let model = shared_multi_stage_model();
        let interner = Arc::new(SignatureInterner::new());
        let compiled = Arc::new(model.compile(&interner));
        let fresh = || {
            AnomalyDetector::with_shared(
                model.clone(),
                compiled.clone(),
                interner.clone(),
                DetectorConfig::default(),
            )
        };
        let stream = wide_stream(600, 200_000, &interner);
        let counters = || (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));

        // A run without a fault tells where the first snapshot falls.
        let (restarts, skipped) = counters();
        let (_, _, first) = run_supervised(&stream, fresh(), None, &restarts, &skipped);
        let (first_at, copied) = first.expect("200 000 synopses outlast the first snapshot");
        assert!(copied >= 1_000, "{copied} open windows");
        assert!(
            first_at >= REPLAY_PER_OPEN_WINDOW * 500,
            "first snapshot at {first_at}: not stretched over the open windows"
        );
        assert_eq!(restarts.load(Ordering::Relaxed), 0);

        for poison in [first_at / 2, first_at + 700] {
            let (restarts, skipped) = counters();
            let (events, detector, _) =
                run_supervised(&stream, fresh(), Some(poison), &restarts, &skipped);
            assert_eq!(restarts.load(Ordering::Relaxed), 1, "poison at {poison}");
            assert_eq!(skipped.load(Ordering::Relaxed), 1, "poison at {poison}");
            // Never crashed, never saw the poison synopsis (ordinals are
            // 1-based); every other row keeps its watermark stamp.
            let mut reference = fresh();
            let at = poison as usize - 1;
            let mut verdicts = VerdictMask::new();
            let mut expected = reference.observe_batch(&rows(&stream, 0..at), &mut verdicts);
            expected.extend(
                reference.observe_batch(&rows(&stream, at + 1..stream.len()), &mut verdicts),
            );
            expected.extend(reference.flush());
            assert!(expected.len() >= 20, "{} events", expected.len());
            assert_eq!(events, expected, "poison at {poison}");
            assert_eq!(detector.tasks_seen(), stream.len() as u64 - 1);
        }
    }

    #[test]
    fn restart_replays_the_tail_as_one_batch_whatever_is_open() {
        // Over 1 000 open windows and a tail the snapshot schedule has
        // stretched to tens of thousands of synopses: a restart must cost
        // what one `observe_batch` over the tail costs, not one
        // open-window visit per replayed synopsis.
        let model = shared_multi_stage_model();
        let interner = Arc::new(SignatureInterner::new());
        let compiled = Arc::new(model.compile(&interner));
        let detector = AnomalyDetector::with_shared(
            model,
            compiled,
            interner.clone(),
            DetectorConfig::default(),
        );
        let stream = wide_stream(600, 110_000, &interner);
        let mut supervised = SupervisedDetector::new(
            detector,
            SupervisorConfig::default(),
            Arc::default(),
            Arc::default(),
            SupervisionObs::default(),
        );
        for from in (0..stream.len()).step_by(512) {
            let to = (from + 512).min(stream.len());
            supervised.observe_batch(&rows(&stream, from..to)).unwrap();
        }
        assert!(supervised.detector.open_windows() >= 1_000);
        assert!(
            supervised.replay.len() >= 20_000,
            "tail {}",
            supervised.replay.len()
        );
        let before = supervised.detector.snapshot();
        let fastest = |work: &mut dyn FnMut()| {
            (0..5)
                .map(|_| {
                    let began = Instant::now();
                    work();
                    began.elapsed()
                })
                .min()
                .expect("five runs")
        };
        let restart = fastest(&mut || supervised.restore_from_snapshot());
        let mut verdicts = VerdictMask::new();
        let batch = fastest(&mut || {
            let mut d = AnomalyDetector::from_snapshot(supervised.snapshot.clone());
            let _ = d.observe_batch(&supervised.replay, &mut verdicts);
        });
        assert!(
            restart < batch * 4 + Duration::from_millis(2),
            "restart {restart:?} against one batch replay {batch:?}"
        );
        // And it lands exactly where the detector stood.
        let mut restored = BytesMut::new();
        supervised.detector.snapshot().encode_into(&mut restored);
        let mut original = BytesMut::new();
        before.encode_into(&mut original);
        assert_eq!(&restored[..], &original[..]);
    }

    /// One step of a generated stream: a task, or (one step in five) a
    /// transport gap report, either of them up to three windows behind
    /// the stream's clock.
    type Step = (u8, u16, u16, u8, u64, u8);

    /// `(clock, step)` → the synopsis or loss report the step stands for.
    /// The clock advances up to 5 s a step against 10 s windows.
    fn materialize(steps: &[Step]) -> Vec<SequencedInput> {
        const WINDOW_US: u64 = 10_000_000;
        let mut clock = 0u64;
        steps
            .iter()
            .enumerate()
            .map(|(uid, &(kind, host, stage, sig, delta_us, lag))| {
                clock += delta_us;
                // Most steps are on time; the rest trail by 1–3 windows.
                let lag = if lag < 5 { 0 } else { u64::from(lag - 4) };
                let at = SimTime::from_micros(clock.saturating_sub(lag * WINDOW_US));
                if kind < 8 {
                    let (points, dur): (&[u16], u64) = match sig {
                        0 => (&[1, 2, 3], 1_000),
                        1 => (&[9], 700),
                        2 => (&[1, 2], 90_000),
                        _ => (&[1, 2], 1_050),
                    };
                    let mut s = synopsis_on(host, points, dur, at, uid as u64);
                    s.stage = StageId(stage);
                    SequencedInput::Batch(vec![s])
                } else {
                    SequencedInput::Loss(LossReport {
                        host: HostId(host),
                        at,
                        count: 1 + u64::from(sig) * 7,
                    })
                }
            })
            .collect()
    }

    proptest::proptest! {
        /// Late elements (two and more windows behind the watermark) and
        /// gap reports for windows already closed, interleaved at random:
        /// the batch path, the per-synopsis path and pools of one and four
        /// workers report the same events, completeness included.
        #[test]
        fn late_data_and_stale_losses_agree_on_every_path(
            steps in proptest::collection::vec(
                (0u8..10, 0u16..5, 0u16..2, 0u8..6, 0u64..5_000_000, 0u8..8),
                1..160,
            ),
            chunk in 1usize..24,
        ) {
            let model = shared_multi_stage_model();
            let config = DetectorConfig {
                window: SimDuration::from_secs(10),
                min_window_tasks: 3,
                min_group_tasks: 2,
                ..DetectorConfig::default()
            };
            let interner = Arc::new(SignatureInterner::new());
            let compiled = Arc::new(model.compile(&interner));
            let fresh = || AnomalyDetector::with_shared(
                model.clone(), compiled.clone(), interner.clone(), config,
            );
            let stream = materialize(&steps);

            // Per-synopsis: advance to the stream watermark, then observe.
            let mut scalar = fresh();
            let mut scalar_events = Vec::new();
            let mut watermark = SimTime::ZERO;
            for step in &stream {
                match step {
                    SequencedInput::Batch(batch) => for s in batch {
                        watermark = watermark.max(s.start);
                        scalar_events.extend(scalar.advance_watermark(watermark));
                        let f = InternedFeature::from_synopsis(s, &interner);
                        scalar_events.extend(scalar.observe_interned(&f));
                    },
                    SequencedInput::Loss(r) => scalar.record_loss(r.host, r.at, r.count),
                }
            }
            scalar_events.extend(scalar.flush());

            // Batch: runs of up to `chunk` synopses, cut at every report.
            let mut batched = fresh();
            let mut batch_events = Vec::new();
            let mut verdicts = VerdictMask::new();
            let mut pending = SynopsisBatch::new();
            let mut watermark = SimTime::ZERO;
            for step in &stream {
                match step {
                    SequencedInput::Batch(batch) => for s in batch {
                        watermark = watermark.max(s.start);
                        let f = InternedFeature::from_synopsis(s, &interner);
                        pending.push_feature(&f, watermark);
                        if pending.len() == chunk {
                            batch_events.extend(batched.observe_batch(&pending, &mut verdicts));
                            pending.clear();
                        }
                    },
                    SequencedInput::Loss(r) => {
                        batch_events.extend(batched.observe_batch(&pending, &mut verdicts));
                        pending.clear();
                        batched.record_loss(r.host, r.at, r.count);
                    }
                }
            }
            batch_events.extend(batched.observe_batch(&pending, &mut verdicts));
            batch_events.extend(batched.flush());
            proptest::prop_assert_eq!(&batch_events, &scalar_events);
            proptest::prop_assert_eq!(batched.tasks_lost(), scalar.tasks_lost());

            // Pools: the same sequence on one ordered channel, synopses
            // regrouped into input batches of `chunk`.
            for workers in [1usize, 4] {
                let (tx, rx) = unbounded();
                let pool = spawn_pool_inner(
                    (0..workers).map(|_| fresh()).collect(),
                    SupervisorConfig { silent_after: u64::MAX, ..SupervisorConfig::default() },
                    config.window,
                    PoolInput::Sequenced(rx),
                    None,
                    None,
                    None,
                );
                let mut group = Vec::new();
                for step in &stream {
                    match step {
                        SequencedInput::Batch(batch) => {
                            group.extend(batch.iter().cloned());
                            if group.len() == chunk {
                                tx.send(SequencedInput::Batch(std::mem::take(&mut group))).unwrap();
                            }
                        }
                        SequencedInput::Loss(_) => {
                            tx.send(SequencedInput::Batch(std::mem::take(&mut group))).unwrap();
                            tx.send(step.clone()).unwrap();
                        }
                    }
                }
                tx.send(SequencedInput::Batch(group)).unwrap();
                drop(tx);
                let mut pool_events = Vec::new();
                while let Ok(e) = pool.events().recv() {
                    pool_events.push(e);
                }
                proptest::prop_assert_eq!(pool.tasks_lost(), scalar.tasks_lost());
                pool.join().unwrap();
                proptest::prop_assert!(
                    event_keys(&pool_events) == event_keys(&scalar_events),
                    "pool with {} workers reported {:?}, one detector {:?}",
                    workers,
                    event_keys(&pool_events),
                    event_keys(&scalar_events)
                );
            }
        }
    }
}
