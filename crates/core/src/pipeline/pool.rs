//! The sharded analyzer pool: a router thread that charges each input
//! batch's gap reports, stamps the global watermark, tracks host liveness
//! and partitions the batch's rows by tenant and `hash(host, stage)`, and
//! one supervised shard worker per partition (slot).

use super::lifecycle::{open_store, LifecycleConfig, LifecycleError, RouterLifecycle, Store};
use super::supervise::{
    panic_message, AnalyzerError, LivenessTracker, SupervisedDetector, SupervisionObs,
    SupervisorConfig,
};
use crate::batch::SynopsisBatch;
use crate::detector::{AnomalyDetector, AnomalyEvent, DetectorConfig};
use crate::intern::SignatureInterner;
use crate::model::{CompiledModel, OutlierModel};
use crate::selfmon::{MetaMonitor, MetaStage};
use crate::transport::LossReport;
use crate::{HostId, StageId};
use crossbeam_channel::{unbounded, Receiver, Sender};
use saad_obs::{Histogram, Registry};
use saad_sim::{SimDuration, SimTime};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Message routed from the pool's router thread to one shard worker.
pub(super) enum ShardMsg {
    /// A run of synopses that all hash to this shard, in SoA layout — one
    /// channel send per shard per input batch, however many synopses it
    /// carries. Each element is stamped (`watermarks[i]`) with the
    /// global-stream watermark in force when the router saw it, so the
    /// shard closes windows at exactly the moments a single-threaded
    /// analyzer would. The shard keeps the batch in its replay tail until
    /// its next restart snapshot drops it, which returns its columns to
    /// the batch spare list the router's next arena comes from.
    Batch(SynopsisBatch),
    /// A transport gap report, broadcast to every shard of the host's
    /// tenant: loss is keyed by host and window, and any of them may own
    /// windows for that host. The router counts each report once for the
    /// pool-level total, and stamps it with the global-stream watermark
    /// at its position (see [`AnomalyDetector::record_loss_at`]).
    Loss(LossReport, SimTime),
    /// Hot model swap, delivered in-band to every shard of one tenant:
    /// channel FIFO ordering guarantees the shard installs the new model
    /// only after every synopsis the router saw before the swap decision,
    /// so no task is dropped or classified twice. The carried watermark is
    /// the stamp where the swap was decided — stale windows close under the
    /// old model before the new one takes over.
    Swap {
        model: Arc<OutlierModel>,
        compiled: Arc<CompiledModel>,
        watermark: SimTime,
    },
    /// Checkpoint request: the worker replies with a clone of its
    /// detector as of everything routed before this message.
    Snapshot(Sender<AnomalyDetector>),
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
pub(super) fn shard_for(host: HostId, stage: StageId, workers: usize) -> usize {
    let key = ((host.0 as u64) << 16) | stage.0 as u64;
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % workers
}

/// The router's per-slot SoA arenas. Elements accumulate into a
/// [`SynopsisBatch`] per shard slot and flush as ONE channel send per
/// (slot, input batch); the arena swapped in is drawn from the batch spare
/// list the shards' snapshots refill when they drop their replay tails. A
/// tenant's slots are the `workers` from `tenant × workers`.
///
/// Control-plane rule: every control send (loss, swap, snapshot, final
/// watermark) must be preceded by [`ShardFanout::flush`] — a control
/// message lands in-band exactly where the router decided it, after every
/// row routed before. The router flushes before every lifecycle step and
/// at the end of every input batch, so the rule holds by construction.
struct ShardFanout {
    arenas: Vec<SynopsisBatch>,
    /// Slots per tenant.
    workers: usize,
}

impl ShardFanout {
    fn new(slots: usize, workers: usize) -> ShardFanout {
        ShardFanout {
            arenas: (0..slots).map(|_| SynopsisBatch::new()).collect(),
            workers,
        }
    }

    /// Copy row `i` of a stamped batch to its slot's arena in `tenant`'s
    /// slots.
    #[inline]
    fn push(&mut self, batch: &SynopsisBatch, i: usize, tenant: usize) {
        let shard = shard_for(batch.hosts[i], batch.stages[i], self.workers);
        self.arenas[tenant * self.workers + shard].push_from(batch, i);
    }

    /// Send every non-empty arena to its shard, swapping in a batch sized
    /// like the one sent.
    fn flush(&mut self, shard_txs: &[Sender<ShardMsg>]) {
        for (shard, arena) in self.arenas.iter_mut().enumerate() {
            if arena.is_empty() {
                continue;
            }
            let replacement = SynopsisBatch::with_capacity(arena.len());
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
    /// Synopses the transport reported lost, counted once per report by
    /// the router (every shard's detector hears of every report).
    tasks_lost: AtomicU64,
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
            tasks_lost: AtomicU64::new(0),
            snapshot_us,
        }
    }

    /// A pool-level total: one per-shard counter summed over the shards.
    fn total(&self, counter: impl Fn(&ShardObs) -> &AtomicU64) -> u64 {
        let shards = self.shards.iter();
        shards.map(|s| counter(s).load(Ordering::Relaxed)).sum()
    }
}

/// Handle to a running analyzer pool: a router thread plus `workers`
/// supervised shard workers per tenant (see [`spawn_analyzer_pool`]), and
/// — for a pool started from a store — its checkpoint writer and
/// lifecycle controls.
#[derive(Debug)]
pub struct PoolHandle {
    events: Receiver<AnomalyEvent>,
    obs: Arc<PoolObs>,
    router: JoinHandle<()>,
    workers: Vec<JoinHandle<Result<AnomalyDetector, AnalyzerError>>>,
    interner: Arc<SignatureInterner>,
    /// The checkpoint store's side; `None` on a pool started from a model.
    pub(super) store: Option<Store>,
}

impl PoolHandle {
    /// The interner this pool's detectors share — the one it was started
    /// with, a recovered checkpoint's, or a fresh one in bootstrap. Every
    /// producer feeding the pool must be built on it: a batch's ids mean
    /// nothing elsewhere.
    pub fn interner(&self) -> Arc<SignatureInterner> {
        self.interner.clone()
    }

    /// Receiver of detected anomaly events, merged across all shards.
    pub fn events(&self) -> &Receiver<AnomalyEvent> {
        &self.events
    }

    /// Synopses delivered to shard workers so far (including any skipped
    /// after a supervised restart).
    pub fn processed(&self) -> u64 {
        self.obs.total(|shard| &shard.processed)
    }

    /// Total shard-worker restarts after panics.
    pub fn restarts(&self) -> u64 {
        self.obs.total(|shard| &shard.supervision.restarts)
    }

    /// Poison synopses skipped across all shards.
    pub fn skipped(&self) -> u64 {
        self.obs.total(|shard| &shard.supervision.skipped)
    }

    /// Input batches the router has finished, the lifecycle steps on their
    /// rows and at their boundaries included: once this reads `n`, every
    /// per-tenant counter reflects the first `n` batches.
    pub fn batches_routed(&self) -> u64 {
        self.obs.batches_routed.load(Ordering::Acquire)
    }

    /// Synopses the transport reported lost, counted once per report.
    /// (Loss reports are broadcast to every shard for window accounting,
    /// so summing the shard detectors' own counters would overcount.)
    pub fn tasks_lost(&self) -> u64 {
        self.obs.tasks_lost.load(Ordering::Relaxed)
    }

    /// Expose the pool's live counters in `registry`: per-shard
    /// processed/late/event counts, watermark lag, restart snapshots taken
    /// and the replay tail a restart would re-apply, plus pool-level
    /// restart/skip/loss totals, the router watermark and the snapshot
    /// latency histogram, and — on a pool started from a store — the
    /// lifecycle's checkpoint and drift series. All series but the
    /// histograms are scrape-time callbacks over counters the pool already
    /// maintains — registering them costs the hot path nothing.
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
            let late = Arc::clone(&shard_obs.supervision.late);
            registry.register_counter_fn(
                "saad_pool_shard_late_total",
                "Synopses this shard saw more than the grace window late, each tested as a window of its own",
                &labels,
                move || late.load(Ordering::Relaxed),
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
        registry.register_gauge_fn(
            "saad_pool_watermark_us",
            "Global stream watermark at the router, in stream microseconds",
            &[],
            move || obs.watermark_micros.load(Ordering::Relaxed) as i64,
        );
        let counter = |name, help, read: fn(&PoolObs) -> u64| {
            let obs = Arc::clone(&self.obs);
            registry.register_counter_fn(name, help, &[], move || read(&obs));
        };
        counter(
            "saad_pool_batches_routed_total",
            "Input batches routed to shard workers",
            |obs| obs.batches_routed.load(Ordering::Relaxed),
        );
        counter(
            "saad_pool_processed_total",
            "Synopses delivered to shard workers",
            |obs| obs.total(|shard| &shard.processed),
        );
        counter(
            "saad_pool_restarts_total",
            "Shard worker restarts after panics",
            |obs| obs.total(|shard| &shard.supervision.restarts),
        );
        counter(
            "saad_pool_skipped_total",
            "Poison synopses skipped across all shards",
            |obs| obs.total(|shard| &shard.supervision.skipped),
        );
        counter(
            "saad_pool_tasks_lost_total",
            "Synopses the transport reported lost, counted once per report",
            |obs| obs.tasks_lost.load(Ordering::Relaxed),
        );
        if let Some(store) = &self.store {
            store.register_metrics(registry);
        }
    }

    /// Wait for the pool to finish (input channel closed), returning each
    /// shard slot's detector for inspection, tenant by tenant. Remaining
    /// windows are flushed before workers exit, and on a pool started
    /// from a store the final checkpoint is durable once this returns.
    ///
    /// # Errors
    ///
    /// Returns the first [`AnalyzerError`] if the router panicked or any
    /// shard exhausted its restart budget; the remaining threads are still
    /// joined first so none is leaked.
    pub fn join(self) -> Result<Vec<AnomalyDetector>, AnalyzerError> {
        let panicked = |payload: Box<dyn std::any::Any + Send>| {
            AnalyzerError::Panicked(panic_message(payload.as_ref()))
        };
        let mut first_err = self.router.join().err().map(panicked);
        let mut detectors = Vec::with_capacity(self.workers.len());
        for worker in self.workers {
            match worker.join() {
                Ok(Ok(detector)) => detectors.push(detector),
                Ok(Err(e)) => {
                    first_err.get_or_insert(e);
                }
                Err(payload) => {
                    first_err.get_or_insert(panicked(payload));
                }
            }
        }
        if let Some(store) = self.store {
            store.join();
        }
        first_err.map_or(Ok(detectors), Err)
    }
}

/// Where a pool's detectors come from.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // built once per spawn and consumed there
pub enum PoolStart {
    /// A trained model over the interner every producer shares. Nothing is
    /// checkpointed: lifecycle requests answer [`LifecycleError::NoStore`].
    Model {
        /// The model every shard classifies with, compiled once.
        model: Arc<OutlierModel>,
        /// The interner the model is compiled against.
        interner: Arc<SignatureInterner>,
    },
    /// A checkpoint store and a durable model lifecycle, per tenant of
    /// [`LifecycleConfig::tenants`]: each tenant gets `workers` shard slots
    /// of its own, so the pool runs tenants × workers shard threads. The
    /// pool restores the newest checkpoint that decodes — interner, and
    /// for each tenant its model and every shard's windows, resharded
    /// along the pool's own routing if the worker count changed — and
    /// skips damaged files with typed reasons
    /// ([`PoolHandle::rejected_checkpoints`]). A tenant it has no model
    /// for bootstraps: windows are counted without a model
    /// (`ModelUnavailable` events) until [`LifecycleConfig::promote_after`]
    /// of its synopses train one the k-fold gate accepts. Promotion, drift
    /// swaps and periodic checkpoints fall on rows the stream's content
    /// fixes (see [`LifecycleConfig`]), however it was cut into batches;
    /// operator requests run at batch boundaries. A swap applies in-band
    /// from its row on: no synopsis is dropped or classified twice.
    Store {
        /// The store's directory, created if missing.
        dir: PathBuf,
        /// Checkpointing, promotion, retraining and drift adaptation.
        lifecycle: LifecycleConfig,
    },
}

/// Spawn the sharded analyzer pool — the one threaded analyzer — over one
/// ordered stream of [`SynopsisBatch`]es, built against
/// [`PoolHandle::interner`] by a [`BatchSink`](super::BatchSink) or a
/// collector (`saad_net::ReactorCollector::bind`). A transport
/// gap rides in [`SynopsisBatch::losses`] on the batch that revealed it,
/// and lifecycle steps fall on rows the stream fixes, so the pool's output
/// is a function of the stream's content alone (operator requests aside).
///
/// Per batch the router counts each gap report once and broadcasts it to
/// every shard of its host's tenant, stamped with the global watermark at
/// its position; then it re-stamps each row with the global
/// running-maximum watermark, tracks host liveness, and repartitions the
/// columns by tenant and `hash(host, stage)` — one channel send per
/// (shard, batch); with one worker and no store it only re-stamps and
/// forwards. Each shard runs its own
/// [`AnomalyDetector`] behind a panic boundary. Windowed state is keyed
/// per `(host, stage)` and each pair is pinned to one shard, so the event
/// stream is — as a multiset — a single detector's over the same input,
/// whatever the worker count.
///
/// # Example
///
/// ```
/// use saad_core::pipeline::{spawn_analyzer_pool, BatchSink, PoolStart, SupervisorConfig};
/// use saad_core::detector::DetectorConfig;
/// use saad_core::intern::SignatureInterner;
/// use saad_core::model::{ModelBuilder, ModelConfig};
/// use std::sync::Arc;
///
/// let model = Arc::new(ModelBuilder::new().build(ModelConfig::default()));
/// let interner = Arc::new(SignatureInterner::new());
/// let (sink, rx) = BatchSink::new(64, interner.clone());
/// let start = PoolStart::Model { model, interner };
/// let config = DetectorConfig::default();
/// let pool = spawn_analyzer_pool(start, config, SupervisorConfig::default(), 1, rx)
///     .expect("a model start needs no store");
/// drop(sink); // close the stream
/// let detectors = pool.join().expect("pool ran to completion");
/// assert_eq!(detectors[0].tasks_seen(), 0);
/// ```
///
/// # Errors
///
/// A [`PoolStart::Store`] pool fails with [`LifecycleError::Checkpoint`] if
/// the store directory is unusable or recovery I/O fails (individual bad
/// checkpoint files are recovered around, not errors), or
/// [`LifecycleError::Config`] for an invalid detector configuration or a
/// `retrain_window` below `min_retrain_samples`.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn spawn_analyzer_pool(
    start: PoolStart,
    config: DetectorConfig,
    supervisor: SupervisorConfig,
    workers: usize,
    rx: Receiver<SynopsisBatch>,
) -> Result<PoolHandle, LifecycleError> {
    spawn_pool(start, config, supervisor, workers, rx, None)
}

/// [`spawn_analyzer_pool`] from a [`PoolStart::Model`], fed the legacy
/// two-channel way: gap reports arrive on `loss_rx`, which the router
/// drains before each batch and at end of stream. A report queued behind
/// a backlog of batches is charged that many batches early, so the output
/// depends on timing; in-band [`SynopsisBatch::losses`] do not. Kept only
/// for the pinned benchmark package, until it moves to the in-band form.
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
    let start = PoolStart::Model { model, interner };
    spawn_pool(start, config, supervisor, workers, rx, loss_rx).expect("a model start cannot fail")
}

/// Build the detectors `start` calls for and spawn the pool over them.
fn spawn_pool(
    start: PoolStart,
    config: DetectorConfig,
    supervisor: SupervisorConfig,
    workers: usize,
    rx: Receiver<SynopsisBatch>,
    side_losses: Option<Receiver<LossReport>>,
) -> Result<PoolHandle, LifecycleError> {
    assert!(workers > 0, "analyzer pool needs at least one worker");
    let (detectors, lifecycle, store) = match start {
        PoolStart::Model { model, interner } => {
            let compiled = Arc::new(model.compile(&interner));
            let detectors = (0..workers)
                .map(|_| {
                    let (model, compiled) = (model.clone(), compiled.clone());
                    AnomalyDetector::with_shared(model, compiled, interner.clone(), config)
                })
                .collect();
            (detectors, None, None)
        }
        PoolStart::Store { dir, lifecycle } => {
            let (detectors, lifecycle, store) = open_store(dir, lifecycle, config, workers)?;
            (detectors, Some(lifecycle), Some(store))
        }
    };
    let mut pool = spawn_pool_inner(
        detectors,
        supervisor,
        config.window,
        rx,
        side_losses,
        lifecycle,
    );
    pool.store = store;
    Ok(pool)
}

/// Run `work` as a tracked meta task when a monitor is attached, or
/// plainly when self-observation is off. Keeping the untracked path a
/// bare call means a `None` monitor costs one branch.
pub(super) fn meta_tick<R>(
    meta: &Option<Arc<MetaMonitor>>,
    stage: MetaStage,
    work: impl FnOnce() -> R,
) -> R {
    match meta {
        Some(m) => m.tick(stage, work),
        None => work(),
    }
}

/// The router thread's state: everything one routed element touches.
struct Router {
    /// Host liveness and the global stream watermark.
    liveness: LivenessTracker,
    /// Reused buffer for the (rare) events of one batch's stamp pass.
    silent: Vec<AnomalyEvent>,
    fanout: ShardFanout,
    lifecycle: Option<RouterLifecycle>,
    /// The legacy side channel of gap reports ([`spawn_batch_analyzer_pool`]).
    side_losses: Option<Receiver<LossReport>>,
    /// The interner every shard detector shares — and every producer must.
    interner: Arc<SignatureInterner>,
    event_tx: Sender<AnomalyEvent>,
    shard_txs: Vec<Sender<ShardMsg>>,
    obs: Arc<PoolObs>,
}

impl Router {
    /// Route one input batch — its gap reports first, then its rows — and
    /// do the batch-boundary work. The rows are stamped in one pass: host
    /// liveness, window edges, and the watermark column re-stamped in
    /// place with the GLOBAL running max (the producer's per-batch
    /// watermark only saw its own stream). With a single shard and no
    /// lifecycle duties (`forward_only`) the router then hands the whole
    /// batch through — no per-element repartition copy at all; otherwise
    /// it deals the stamped rows to the arenas, flushed before each
    /// lifecycle step (see [`LifecycleConfig`]).
    #[inline]
    fn route_batch(&mut self, mut batch: SynopsisBatch, forward_only: bool) {
        // Ids some other interner issued mean nothing (or something else)
        // to this pool's model tables and windows; one it never issued
        // proves a producer was built on the wrong one.
        debug_assert!(
            batch.sigs.iter().all(|&sig| self.interner.issued(sig)),
            "batch interned against a foreign interner: build producers on the pool's own"
        );
        // The arenas are empty between batches, so every shard sees a
        // report exactly where its producer put it: before these rows.
        for report in batch.losses.drain(..) {
            self.broadcast_loss(report);
        }
        self.liveness.stamp(&mut batch, &mut self.silent);
        for event in self.silent.drain(..) {
            let _ = self.event_tx.send(event);
        }
        // Published before any of these rows reaches a shard, so a reader
        // that sees them counted in `processed` sees the watermark they
        // moved, however few batches carried them.
        self.obs
            .watermark_micros
            .store(self.liveness.watermark().as_micros(), Ordering::Relaxed);
        if forward_only {
            if !batch.is_empty() {
                let _ = self.shard_txs[0].send(ShardMsg::Batch(batch));
            }
        } else if let Some(lc) = self.lifecycle.as_mut() {
            let mut edges = self.liveness.edges.iter().peekable();
            for i in 0..batch.len() {
                if edges.next_if(|&&row| row == i).is_some() {
                    self.fanout.flush(&self.shard_txs);
                    lc.window_edge(batch.watermarks[i], &self.shard_txs);
                }
                let tenant = lc.absorb(&batch.feature(i));
                self.fanout.push(&batch, i, tenant);
                if lc.count_due(tenant) {
                    self.fanout.flush(&self.shard_txs);
                    lc.count_row(tenant, batch.watermarks[i], &self.shard_txs);
                }
            }
        } else {
            for i in 0..batch.len() {
                self.fanout.push(&batch, i, 0);
            }
        }
        self.batch_boundary();
    }

    /// Count a gap report once and broadcast it, stamped with the global
    /// watermark at its stream position, to every shard of its host's
    /// tenant.
    fn broadcast_loss(&mut self, report: LossReport) {
        self.obs
            .tasks_lost
            .fetch_add(report.count, Ordering::Relaxed);
        let tenant = self
            .lifecycle
            .as_ref()
            .map_or(0, |lc| lc.tenant_of(report.host));
        let workers = self.fanout.workers;
        for tx in &self.shard_txs[tenant * workers..(tenant + 1) * workers] {
            let _ = tx.send(ShardMsg::Loss(report, self.liveness.watermark()));
        }
    }

    /// Broadcast whatever the legacy side channel holds right now.
    fn drain_losses(&mut self) {
        while let Some(report) = self.side_losses.as_ref().and_then(|rx| rx.try_recv().ok()) {
            self.broadcast_loss(report);
        }
    }

    /// The work at the end of every input batch: one flush per shard,
    /// then the lifecycle's batch-boundary work — arenas are empty
    /// whenever a control message goes out.
    fn batch_boundary(&mut self) {
        self.fanout.flush(&self.shard_txs);
        if let Some(lc) = self.lifecycle.as_mut() {
            lc.pump(self.liveness.watermark(), &self.shard_txs);
        }
        self.obs.batches_routed.fetch_add(1, Ordering::Release);
    }
}

/// The pool core: one shard worker per initial detector (slot), plus the
/// router thread that charges gaps, stamps watermarks, routes batches,
/// tracks liveness, and — when a [`RouterLifecycle`] is given — drives
/// each tenant's checkpoints, hot swaps, and bootstrap promotion on the
/// rows they fall on. The detectors come tenant by tenant, the same number
/// each.
pub(super) fn spawn_pool_inner(
    detectors: Vec<AnomalyDetector>,
    supervisor: SupervisorConfig,
    window: SimDuration,
    rx: Receiver<SynopsisBatch>,
    side_losses: Option<Receiver<LossReport>>,
    lifecycle: Option<RouterLifecycle>,
) -> PoolHandle {
    let slots = detectors.len();
    let workers = slots / lifecycle.as_ref().map_or(1, RouterLifecycle::tenant_count);
    assert!(workers > 0, "analyzer pool needs at least one worker");
    let interner = detectors[0].interner().clone();
    let meta = lifecycle.as_ref().and_then(RouterLifecycle::meta);
    let (event_tx, event_rx) = unbounded();
    let obs = Arc::new(PoolObs::new(slots));

    let mut shard_txs = Vec::with_capacity(slots);
    let mut worker_joins = Vec::with_capacity(slots);
    for (shard, detector) in detectors.into_iter().enumerate() {
        let (shard_tx, shard_rx) = unbounded::<ShardMsg>();
        shard_txs.push(shard_tx);
        let supervisor = supervisor.clone();
        let event_tx = event_tx.clone();
        let obs = Arc::clone(&obs);
        let meta = meta.clone();
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
                let mut supervised =
                    SupervisedDetector::new(detector, shard_obs.supervision.clone());
                #[cfg(any(test, feature = "testkit"))]
                supervised.panic_at.clone_from(&supervisor.panic_at);
                for msg in shard_rx.iter() {
                    match msg {
                        ShardMsg::Loss(report, watermark) => {
                            supervised.record_loss(report, watermark)
                        }
                        ShardMsg::Batch(batch) => {
                            shard_obs
                                .processed
                                .fetch_add(batch.len() as u64, Ordering::Relaxed);
                            let newest = batch.watermarks.last().copied();
                            meta_tick(&meta, MetaStage::Shard, || {
                                for event in supervised.observe_batch(batch)? {
                                    emit(event);
                                }
                                if let Some(watermark) = newest {
                                    shard_obs
                                        .watermark_micros
                                        .store(watermark.as_micros(), Ordering::Relaxed);
                                }
                                Ok(())
                            })?;
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
        fanout: ShardFanout::new(slots, workers),
        lifecycle,
        side_losses,
        interner: interner.clone(),
        event_tx,
        shard_txs,
        obs: Arc::clone(&obs),
    };
    let router = std::thread::Builder::new()
        .name("saad-analyzer-router".into())
        .spawn(move || {
            let forward_only = slots == 1 && router.lifecycle.is_none();
            for batch in rx.iter() {
                meta_tick(&meta, MetaStage::Router, || {
                    router.drain_losses();
                    router.route_batch(batch, forward_only);
                });
            }
            router.drain_losses();
            // Stream closed (any last gap reports delivered above): apply
            // pending control commands, advance every shard to the final
            // global watermark (so stale windows close exactly where one
            // thread would close them), persist a last checkpoint of that
            // state, then drop the shard senders so every worker flushes
            // and exits.
            router.fanout.flush(&router.shard_txs);
            if let Some(lc) = router.lifecycle.as_mut() {
                lc.pump(router.liveness.watermark(), &router.shard_txs);
            }
            for tx in &router.shard_txs {
                let _ = tx.send(ShardMsg::FinalWatermark(router.liveness.watermark()));
            }
            if let Some(lc) = router.lifecycle.as_mut() {
                if lc.detecting() {
                    lc.take_checkpoint(&router.shard_txs, None);
                }
            }
        })
        .expect("spawn analyzer pool router");

    PoolHandle {
        events: event_rx,
        obs,
        router,
        workers: worker_joins,
        interner,
        store: None,
    }
}

#[cfg(test)]
mod tests {
    use super::super::sink::BatchSink;
    use super::super::supervise::{MAX_RESTARTS, SNAPSHOT_FLOOR};
    use super::super::LifecycleConfig;
    use super::*;
    use crate::detector::AnomalyKind;
    use crate::feature::InternedFeature;
    use crate::model::VerdictMask;
    use crate::store::{Checkpoint, CheckpointStore};
    use crate::testkit::{
        event_keys, gap, mixed_stream, model, multi_stage_model, reference_run, soa, synopsis,
        synopsis_on, TempDir,
    };
    use crate::tracker::SynopsisSink;
    use crossbeam_channel::bounded;

    /// A pool started from `model` over `interner`.
    fn model_pool(
        model: Arc<OutlierModel>,
        interner: Arc<SignatureInterner>,
        config: DetectorConfig,
        supervisor: SupervisorConfig,
        workers: usize,
        rx: Receiver<SynopsisBatch>,
    ) -> PoolHandle {
        let start = PoolStart::Model { model, interner };
        spawn_analyzer_pool(start, config, supervisor, workers, rx).expect("no store to open")
    }

    /// A pool over `model()` with its producer-side sink: `batch_len`
    /// synopses per input batch, every synopsis interned at the edge.
    fn pool_with_sink(
        supervisor: SupervisorConfig,
        workers: usize,
        batch_len: usize,
    ) -> (BatchSink, PoolHandle) {
        let interner = Arc::new(SignatureInterner::new());
        let (sink, rx) = BatchSink::new(batch_len, interner.clone());
        let config = DetectorConfig::default();
        let pool = model_pool(model(), interner, config, supervisor, workers, rx);
        (sink, pool)
    }

    /// Every event until the pool closes its channel.
    fn drain(pool: &PoolHandle) -> Vec<AnomalyEvent> {
        pool.events().iter().collect()
    }

    fn tasks_seen(detectors: &[AnomalyDetector]) -> u64 {
        detectors.iter().map(|d| d.tasks_seen()).sum()
    }

    #[test]
    fn pipeline_detects_anomalies_end_to_end() {
        let (sink, pool) = pool_with_sink(SupervisorConfig::default(), 1, 16);
        // A minute of traffic with a burst of a brand-new signature.
        for i in 0..100u64 {
            let points: &[u16] = if i.is_multiple_of(4) {
                &[1, 9]
            } else {
                &[1, 2]
            };
            sink.submit(synopsis(points, 1_000, SimTime::from_millis(i * 100), i));
        }
        drop(sink);
        let events = drain(&pool);
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, AnomalyKind::FlowNew(_))),
            "events: {events:?}"
        );
        assert_eq!(pool.processed(), 100);
        assert_eq!(tasks_seen(&pool.join().unwrap()), 100);
    }

    #[test]
    fn many_producers_can_feed_one_pool() {
        let (sink, pool) = pool_with_sink(SupervisorConfig::default(), 2, 16);
        std::thread::scope(|scope| {
            for producer in 0..2u64 {
                let sink = &sink;
                scope.spawn(move || {
                    for i in 0..500u64 {
                        let uid = producer * 1_000 + i;
                        sink.submit(synopsis(&[1, 2], 1_000, SimTime::from_millis(i), uid));
                    }
                });
            }
        });
        drop(sink);
        assert_eq!(tasks_seen(&pool.join().unwrap()), 1000);
    }

    #[test]
    fn pool_register_metrics_exposes_live_counters() {
        let registry = saad_obs::Registry::new();
        let (sink, pool) = pool_with_sink(SupervisorConfig::default(), 2, 10);
        pool.register_metrics(&registry);
        for i in 0..9 {
            sink.submit(synopsis(&[1, 2], 1_000, SimTime::from_mins(5 + i), i));
        }
        // One straggler, eight windows behind the watermark.
        sink.submit(synopsis(&[1, 2], 1_000, SimTime::from_mins(5), 9));
        drop(sink);
        let text = registry.render();
        saad_obs::validate_text(&text).unwrap();
        pool.join().unwrap();
        let text = registry.render();
        assert!(text.contains("saad_pool_processed_total 10"), "{text}");
        let late = |shard: usize| format!(r#"saad_pool_shard_late_total{{shard="{shard}"}} 1"#);
        let owner = shard_for(HostId(0), StageId(0), 2);
        assert!(text.contains(&late(owner)), "{text}");
        assert!(!text.contains(&late(1 - owner)), "{text}");
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
    fn pool_surfaces_exhausted_restarts() {
        // One fault more than the budget: in batches of one, and in a
        // batch of eight poisoned mid-batch.
        let faults = u64::from(MAX_RESTARTS) + 1;
        for (batch_len, first) in [(1usize, 1u64), (8, 3)] {
            for workers in [1usize, 2] {
                let supervisor = SupervisorConfig {
                    panic_at: (first..first + faults).collect(),
                    ..SupervisorConfig::default()
                };
                let (sink, pool) = pool_with_sink(supervisor, workers, batch_len);
                for i in 0..batch_len.max(faults as usize) as u64 {
                    sink.submit(synopsis(&[1, 2], 1_000, SimTime::ZERO, i));
                }
                drop(sink);
                match pool.join() {
                    Err(AnalyzerError::RestartsExhausted { restarts, panic })
                        if restarts == MAX_RESTARTS =>
                    {
                        assert!(panic.contains("injected"), "{panic}");
                    }
                    other => panic!("{batch_len} rows: unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn pool_restarts_from_snapshot_and_skips_poison() {
        // One worker so `panic_at` hits a deterministic synopsis; the
        // poison falls three snapshot floors in, mid-batch in the batch
        // that carries the whole stream.
        let floor = SNAPSHOT_FLOOR;
        let supervisor = SupervisorConfig {
            panic_at: vec![3 * floor],
            ..SupervisorConfig::default()
        };
        let n = 6 * floor;
        for batch_len in [1, n as usize] {
            let (sink, pool) = pool_with_sink(supervisor.clone(), 1, batch_len);
            let registry = saad_obs::Registry::new();
            pool.register_metrics(&registry);
            for i in 0..n {
                sink.submit(synopsis(&[7], 1_000, SimTime::from_millis(i * 10), i));
            }
            drop(sink);
            let events = drain(&pool);
            assert_eq!(pool.restarts(), 1);
            assert_eq!(pool.skipped(), 1);
            assert_eq!(pool.processed(), n);
            // Snapshots at every floor's worth of tail: two before the
            // poison, which the restart restores from, and more after.
            let text = registry.render();
            let taken = r#"saad_pool_shard_snapshots_total{shard="0"} "#;
            let line = text.lines().find(|l| l.starts_with(taken));
            let snapshots: u64 = line.expect(taken)[taken.len()..].parse().unwrap();
            assert!(snapshots >= 2, "{snapshots} snapshots before the poison");
            // Everything except the poison synopsis was analyzed…
            assert_eq!(tasks_seen(&pool.join().unwrap()), n - 1);
            // …and detection survived the crash.
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e.kind, AnomalyKind::FlowNew(_))),
                "events: {events:?}"
            );
        }
    }

    #[test]
    fn silent_host_raises_liveness_event_and_rearms() {
        for workers in [1usize, 4] {
            let supervisor = SupervisorConfig {
                silent_after: 2,
                ..SupervisorConfig::default()
            };
            let (sink, pool) = pool_with_sink(supervisor, workers, 16);
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
            let events = drain(&pool);
            pool.join().unwrap();
            let silent: Vec<_> = events.iter().filter(|e| e.kind.is_liveness()).collect();
            assert_eq!(silent.len(), 1, "{workers} workers: {events:?}");
            assert_eq!(silent[0].host, HostId(1));
            assert_eq!(silent[0].stage, StageId::NONE);
            assert_eq!(silent[0].completeness, 0.0);
            assert!(matches!(
                silent[0].kind,
                AnomalyKind::HostSilent { windows } if windows >= 2
            ));
        }
    }

    #[test]
    fn loss_reports_reach_every_shard_and_count_once() {
        for workers in [1usize, 4] {
            let (sink, pool) = pool_with_sink(SupervisorConfig::default(), workers, 20);
            sink.record_loss(LossReport {
                host: HostId(0),
                at: SimTime::from_secs(5),
                count: 40,
            });
            for i in 0..20u64 {
                sink.submit(synopsis(&[1, 2], 1_000, SimTime::from_secs(i), i));
            }
            drop(sink);
            drain(&pool);
            // Counted once at the pool level…
            assert_eq!(pool.tasks_lost(), 40);
            let detectors = pool.join().unwrap();
            // …while every shard detector knows the loss for its own windows.
            assert!(detectors.iter().all(|d| d.tasks_lost() == 40));
            assert_eq!(tasks_seen(&detectors), 20);
        }
    }

    #[test]
    fn batch_pool_matches_the_reference_detector() {
        let model = multi_stage_model();
        let stream = mixed_stream();
        let reference = AnomalyDetector::new(model.clone(), DetectorConfig::default());
        let whole = soa(&stream, reference.interner());
        let (expected, reference) = reference_run(reference, &[whole]);
        assert!(!expected.is_empty(), "stream should produce events");

        for workers in [1usize, 3] {
            // Producer side: a BatchSink interning into the pool's own
            // interner, 16 synopses per SoA batch.
            let interner = Arc::new(SignatureInterner::new());
            let (sink, rx) = BatchSink::new(16, interner.clone());
            let supervisor = SupervisorConfig {
                pin_shards: true, // benign wherever pinning is refused
                ..SupervisorConfig::default()
            };
            let config = DetectorConfig::default();
            let pool = model_pool(model.clone(), interner, config, supervisor, workers, rx);
            for s in &stream {
                sink.submit(s.clone());
            }
            drop(sink); // flushes the partial tail batch
            let events = drain(&pool);
            assert_eq!(pool.processed(), stream.len() as u64);
            let detectors = pool.join().unwrap();
            assert_eq!(detectors.len(), workers);
            assert_eq!(tasks_seen(&detectors), reference.tasks_seen());
            assert_eq!(
                event_keys(&events),
                event_keys(&expected),
                "batch pool with {workers} workers diverged"
            );
        }
    }

    #[test]
    fn shutdown_advances_every_shard_to_the_final_watermark() {
        // Hosts 1..=5 stop after minute 0; host 0 keeps the clock moving
        // to minute 9. Without the FinalWatermark broadcast, shards owning
        // only the early hosts would shut down with a stale watermark.
        let (sink, pool) = pool_with_sink(SupervisorConfig::default(), 4, 16);
        for host in 0..6u16 {
            let uid = u64::from(host);
            sink.submit(synopsis_on(
                host,
                &[1, 2],
                1_000,
                SimTime::from_secs(1),
                uid,
            ));
        }
        let last = SimTime::from_mins(9);
        sink.submit(synopsis_on(0, &[1, 2], 1_000, last, 6));
        drop(sink);
        drain(&pool);
        let mut detectors = pool.join().unwrap();
        for detector in &mut detectors {
            assert_eq!(
                detector.watermark(),
                last,
                "shard shut down with a stale watermark"
            );
            assert!(
                detector.flush().is_empty(),
                "shard left windows open through shutdown"
            );
        }
    }

    /// One step of a generated stream: a task, or (one step in five) a
    /// transport gap report, either of them up to three windows behind
    /// the stream's clock.
    type Step = (u8, u16, u16, u8, u64, u8);

    /// The flows the generated streams draw from, as points and duration:
    /// trained-rare, never trained, trained but grossly slow, healthy.
    fn flow(sig: u8) -> (&'static [u16], u64) {
        match sig {
            0 => (&[1, 2, 3], 1_000),
            1 => (&[9], 700),
            2 => (&[1, 2], 90_000),
            _ => (&[1, 2], 1_050),
        }
    }

    /// `(clock, step)` → a batch of the one synopsis, or the row-less
    /// batch of the one gap report, the step stands for. The clock
    /// advances up to 5 s a step against 10 s windows.
    fn materialize(steps: &[Step], interner: &SignatureInterner) -> Vec<SynopsisBatch> {
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
                    let (points, dur) = flow(sig);
                    let mut s = synopsis_on(host, points, dur, at, uid as u64);
                    s.stage = StageId(stage);
                    soa(&[s], interner)
                } else {
                    gap(LossReport {
                        host: HostId(host),
                        at,
                        count: 1 + u64::from(sig) * 7,
                    })
                }
            })
            .collect()
    }

    /// Drive `stream` through the batch path (runs of up to `chunk`
    /// synopses, cut at every gap report) and through pools of one and four
    /// workers fed input batches of `chunk`, every path starting from
    /// `start(workers)`, and require what [`reference_run`] reports from
    /// `start(1)`: the events in order wherever one detector sees the whole
    /// stream, as a multiset across four shards, and the loss and late
    /// totals everywhere. Each pool runs twice: on in-band reports, and on
    /// the legacy side channel, whose producer puts a report there only
    /// once the router has routed every batch ahead of it — the one
    /// schedule on which the two forms must agree. Returns the reference's
    /// events and detector.
    fn agree_on_every_path(
        start: impl Fn(usize) -> Vec<AnomalyDetector>,
        window: SimDuration,
        stream: &[SynopsisBatch],
        chunk: usize,
    ) -> Result<(Vec<AnomalyEvent>, AnomalyDetector), proptest::TestCaseError> {
        let one = || start(1).pop().expect("one detector");
        let (expected, reference) = reference_run(one(), stream);

        let mut batched = one();
        let mut batch_events = Vec::new();
        let mut verdicts = VerdictMask::new();
        let mut pending = SynopsisBatch::new();
        let mut watermark = SimTime::ZERO;
        // The pools' input: runs of `chunk` synopses, a gap opening a run.
        let (mut input, mut group) = (Vec::new(), SynopsisBatch::new());
        for batch in stream {
            if !batch.losses.is_empty() {
                batch_events.extend(batched.observe_batch(&pending, &mut verdicts));
                pending.clear();
                for r in &batch.losses {
                    batched.record_loss(r.host, r.at, r.count);
                }
                input.push(std::mem::take(&mut group));
                group.losses.clone_from(&batch.losses);
            }
            for i in 0..batch.len() {
                let f = batch.feature(i);
                watermark = watermark.max(f.start);
                pending.push_feature(&f, watermark);
                if pending.len() == chunk {
                    batch_events.extend(batched.observe_batch(&pending, &mut verdicts));
                    pending.clear();
                }
            }
            group.extend_from(batch);
            if group.len() >= chunk {
                input.push(std::mem::take(&mut group));
            }
        }
        input.push(group);
        batch_events.extend(batched.observe_batch(&pending, &mut verdicts));
        batch_events.extend(batched.flush());
        proptest::prop_assert_eq!(&batch_events, &expected);
        proptest::prop_assert_eq!(batched.tasks_lost(), reference.tasks_lost());
        proptest::prop_assert_eq!(batched.late_seen(), reference.late_seen());

        for (workers, legacy) in [(1usize, false), (1, true), (4, false), (4, true)] {
            let (tx, rx) = unbounded();
            let (loss_tx, loss_rx) = unbounded();
            let supervisor = SupervisorConfig {
                silent_after: u64::MAX,
                ..SupervisorConfig::default()
            };
            let side_losses = legacy.then_some(loss_rx);
            let pool = spawn_pool_inner(start(workers), supervisor, window, rx, side_losses, None);
            for (sent, batch) in input.iter().enumerate() {
                let mut batch = batch.clone();
                if legacy && !batch.losses.is_empty() {
                    while pool.obs.batches_routed.load(Ordering::Relaxed) < sent as u64 {
                        std::thread::yield_now();
                    }
                    for report in batch.losses.drain(..) {
                        loss_tx.send(report).unwrap();
                    }
                }
                tx.send(batch).unwrap();
            }
            drop((tx, loss_tx));
            let pool_events = drain(&pool);
            // The pool counts the reports it routed, not those restored.
            let routed_lost = reference.tasks_lost() - one().tasks_lost();
            proptest::prop_assert_eq!(pool.tasks_lost(), routed_lost);
            let late: u64 = pool.join().unwrap().iter().map(|d| d.late_seen()).sum();
            proptest::prop_assert_eq!(late, reference.late_seen());
            if workers == 1 {
                proptest::prop_assert_eq!(&pool_events, &expected);
            } else {
                proptest::prop_assert!(
                    event_keys(&pool_events) == event_keys(&expected),
                    "pool with {} workers (legacy: {}) reported {:?}, the reference {:?}",
                    workers,
                    legacy,
                    event_keys(&pool_events),
                    event_keys(&expected)
                );
            }
        }
        Ok((expected, reference))
    }

    /// The stream of [`stragglers_close_alone_on_every_path`]: host 0 is
    /// the stream's clock (up to 5 s a task against 10 s windows, from
    /// window 10 on) and host 1 — every `period`-th task — runs `skew`
    /// windows behind it, so each of its tasks is a straggler; one step in
    /// ten is a gap report addressed to the window host 1 is then sending
    /// from. Ahead of them go three never-trained stragglers: two of host
    /// 2, in windows 6 and 7, and one of host 1 in window 5.
    fn skewed_stream(
        steps: &[(u8, u16, u8, u64)],
        period: usize,
        skew: u64,
        interner: &SignatureInterner,
    ) -> Vec<SynopsisBatch> {
        const WINDOW_US: u64 = 10_000_000;
        let task = |host: u16, stage: u16, sig: u8, at_us: u64| {
            let (points, dur) = flow(sig);
            let mut s = synopsis_on(host, points, dur, SimTime::from_micros(at_us), at_us);
            s.stage = StageId(stage);
            soa(&[s], interner)
        };
        let mut stream = vec![
            task(2, 0, 1, 6 * WINDOW_US),
            task(2, 0, 1, 7 * WINDOW_US),
            task(1, 0, 1, 5 * WINDOW_US),
        ];
        let mut clock = 10 * WINDOW_US;
        let mut tasks = 0;
        for &(kind, stage, sig, delta_us) in steps {
            let lagging = clock - skew * WINDOW_US;
            if kind == 9 {
                stream.push(gap(LossReport {
                    host: HostId(1),
                    at: SimTime::from_micros(lagging),
                    count: 1 + u64::from(sig) * 7,
                }));
            } else if tasks % period == 0 {
                stream.push(task(1, stage, sig, lagging));
                tasks += 1;
            } else {
                clock += delta_us;
                stream.push(task(0, stage, sig, clock));
                tasks += 1;
            }
        }
        stream
    }

    proptest::proptest! {
        /// Late elements (two and more windows behind the watermark) and
        /// gap reports for windows already closed, interleaved at random:
        /// the batch path and pools of one and four workers report what the
        /// reference detector reports, completeness included.
        #[test]
        fn late_data_and_stale_losses_agree_on_every_path(
            steps in proptest::collection::vec(
                (0u8..10, 0u16..5, 0u16..2, 0u8..6, 0u64..5_000_000, 0u8..8),
                1..160,
            ),
            chunk in 1usize..24,
        ) {
            let model = multi_stage_model();
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
            let stream = materialize(&steps, &interner);
            agree_on_every_path(|workers| (0..workers).map(|_| fresh()).collect(), config.window, &stream, chunk)?;
        }

        /// Two hosts skewed by two to four windows, so a sixth and more of
        /// the stream is stragglers, each a window of its own that runs
        /// both tests (`min_window_tasks = min_group_tasks = 1`). Every
        /// path starts from a detector merged from two shards whose
        /// watermarks stood in windows 10 and 7: the merged loss entry for
        /// (host 2, window 7) is stale, and with `stale_bucket` so is an
        /// open window of host 0 — which the first straggler must close
        /// ahead of its own, and whose absence lets that straggler close
        /// alone and still drop the entry before host 2's window 7 reads
        /// it. The same stream then runs without a model.
        #[test]
        fn stragglers_close_alone_on_every_path(
            steps in proptest::collection::vec(
                (0u8..10, 0u16..2, 0u8..6, 0u64..5_000_000),
                12..120,
            ),
            period in 2usize..7,
            skew in 2u64..5,
            stale_bucket in 0u8..2,
            chunk in 1usize..24,
        ) {
            let model = multi_stage_model();
            let config = DetectorConfig {
                window: SimDuration::from_secs(10),
                min_window_tasks: 1,
                min_group_tasks: 1,
                ..DetectorConfig::default()
            };
            let interner = Arc::new(SignatureInterner::new());
            let compiled = Arc::new(model.compile(&interner));
            let fresh = || AnomalyDetector::with_shared(
                model.clone(), compiled.clone(), interner.clone(), config,
            );
            let stream = skewed_stream(&steps, period, skew, &interner);
            let feed = |d: &mut AnomalyDetector, host, stage, window: u64| {
                let mut s = synopsis_on(host, &[9], 700, SimTime::from_secs(window * 10), window);
                s.stage = StageId(stage);
                let f = InternedFeature::from_synopsis(&s, d.interner());
                d.observe_interned(&f)
            };
            let (mut ahead, mut behind) = (fresh(), fresh());
            feed(&mut ahead, 0, 0, 10);
            feed(&mut behind, 0, 1, 7);
            if stale_bucket == 0 {
                behind.flush();
            }
            behind.record_loss(HostId(2), SimTime::from_secs(70), 9);
            let merged = AnomalyDetector::merge(vec![ahead, behind]).expect("two parts");
            let restored =
                |workers: usize| merged.clone().partition(workers, |h, s| shard_for(h, s, workers));
            let (events, reference) = agree_on_every_path(restored, config.window, &stream, chunk)?;

            let late = reference.late_seen();
            let seen = reference.tasks_seen() - 2; // the two the merged shards had seen
            proptest::prop_assert!(late * 100 >= seen * 15, "{} late of {}", late, seen);
            // Host 2's stragglers: never-trained, one task each, and the
            // second no longer sees the restored loss entry.
            let of_host_2: Vec<_> = events.iter().filter(|e| e.host == HostId(2)).collect();
            proptest::prop_assert_eq!(of_host_2.len(), 2);
            for e in of_host_2 {
                proptest::prop_assert!(matches!(e.kind, AnomalyKind::FlowNew(_)), "{:?}", e);
                proptest::prop_assert_eq!((e.outliers, e.window_tasks, e.completeness), (1, 1, 1.0));
            }
            // The restored stale window closes first, when there is one.
            let first = (events[0].host, events[0].stage);
            let stale_first = (HostId(0), StageId(1));
            proptest::prop_assert_eq!(first == stale_first, stale_bucket == 1);

            // Without a model every straggler is one ModelUnavailable
            // event of one task.
            let collecting = |workers: usize| (0..workers)
                .map(|_| AnomalyDetector::collecting(interner.clone(), config).unwrap())
                .collect();
            let (events, reference) = agree_on_every_path(collecting, config.window, &stream, chunk)?;
            proptest::prop_assert!(events.iter().all(|e| e.kind == AnomalyKind::ModelUnavailable));
            let alone = events.iter().filter(|e| e.window_tasks == 1).count() as u64;
            proptest::prop_assert!(alone >= reference.late_seen());
            proptest::prop_assert_eq!(events.iter().map(|e| e.window_tasks).sum::<u64>(), reference.tasks_seen());
        }
    }

    /// The early-application schedule, `k` batches deep: host 1 opens
    /// window 0 with a never-trained task, then `k - 1` batches of host 0
    /// carry the clock to window `k`. The batch after them reveals a gap of
    /// three host-1 tasks — with a straggler of host 1 in window 0, stamped
    /// at its start, or, for a `goodbye`, with no rows and the stamp of
    /// host 1's last admitted start. At its position the report finds
    /// window 0 closed once `k ≥ 2`; charged ahead of the queue, open.
    fn gap_behind_a_queue(
        k: u64,
        goodbye: bool,
        interner: &SignatureInterner,
    ) -> Vec<SynopsisBatch> {
        let task = |host, secs, uid| {
            soa(
                &[synopsis_on(host, &[9], 700, SimTime::from_secs(secs), uid)],
                interner,
            )
        };
        let mut stream = vec![task(1, 1, 0)];
        stream.extend((1..k).map(|i| task(0, 10 * i + 10, i)));
        let mut revealing = if goodbye {
            SynopsisBatch::new()
        } else {
            task(1, 2, k)
        };
        revealing.reveal_gap(HostId(1), 3, SimTime::from_secs(1));
        stream.push(revealing);
        stream
    }

    /// `stream` through the pool `spawn` starts on a queue that the rest
    /// of the stream already fills: the last batch waits for room.
    fn behind_a_full_queue(
        stream: &[SynopsisBatch],
        spawn: impl FnOnce(Receiver<SynopsisBatch>) -> PoolHandle,
    ) -> Vec<AnomalyEvent> {
        let (revealing, queued) = stream.split_last().expect("a revealing batch");
        let (tx, rx) = bounded(queued.len());
        for batch in queued {
            tx.send(batch.clone()).unwrap();
        }
        let pool = spawn(rx);
        tx.send(revealing.clone()).unwrap();
        drop(tx);
        let events = drain(&pool);
        pool.join().unwrap();
        events
    }

    /// What the early-application tests share: `model()` over a fresh
    /// interner, windows of 10 s that every task is tested in, and the
    /// reference detector over them.
    struct EarlyRig {
        model: Arc<OutlierModel>,
        compiled: Arc<CompiledModel>,
        interner: Arc<SignatureInterner>,
        config: DetectorConfig,
        supervisor: SupervisorConfig,
    }

    impl EarlyRig {
        fn new() -> EarlyRig {
            let (model, interner) = (model(), Arc::new(SignatureInterner::new()));
            EarlyRig {
                compiled: Arc::new(model.compile(&interner)),
                model,
                interner,
                config: DetectorConfig {
                    window: SimDuration::from_secs(10),
                    min_window_tasks: 1,
                    min_group_tasks: 1,
                    ..DetectorConfig::default()
                },
                supervisor: SupervisorConfig {
                    silent_after: u64::MAX,
                    ..SupervisorConfig::default()
                },
            }
        }

        fn reference(&self, stream: &[SynopsisBatch]) -> Vec<String> {
            let (model, compiled) = (self.model.clone(), self.compiled.clone());
            let detector =
                AnomalyDetector::with_shared(model, compiled, self.interner.clone(), self.config);
            event_keys(&reference_run(detector, stream).0)
        }
    }

    /// However deep the queue a gap waits behind, the in-band pool charges
    /// it where its producer put it: at every depth, for one and four
    /// workers, from a model and from a store, whether a frame or a
    /// goodbye reveals it, the pool reports what [`reference_run`] does.
    #[test]
    fn a_gap_behind_a_full_queue_is_charged_at_its_position() {
        let rig = EarlyRig::new();
        for (k, goodbye, workers) in
            (1..=5).flat_map(|k| [(k, false, 1), (k, true, 1), (k, false, 4), (k, true, 4)])
        {
            let stream = gap_behind_a_queue(k, goodbye, &rig.interner);
            let expected = rig.reference(&stream);
            // A store whose one checkpoint holds the model over this
            // interner, so the store-started pool takes the same ids.
            let (model, compiled) = (rig.model.clone(), rig.compiled.clone());
            let blank = AnomalyDetector::with_shared(
                model.clone(),
                compiled.clone(),
                rig.interner.clone(),
                rig.config,
            );
            let dir = TempDir::new("pool-gap");
            let checkpoint = Checkpoint::new(0, model, compiled, rig.interner.clone(), vec![blank]);
            CheckpointStore::create(dir.path(), 3)
                .unwrap()
                .save(&checkpoint)
                .unwrap();
            let lifecycle = LifecycleConfig {
                checkpoint_every: 0,
                ..LifecycleConfig::default()
            };
            let starts = [
                (
                    "model",
                    PoolStart::Model {
                        model: rig.model.clone(),
                        interner: rig.interner.clone(),
                    },
                ),
                (
                    "store",
                    PoolStart::Store {
                        dir: dir.path().into(),
                        lifecycle,
                    },
                ),
            ];
            for (from, start) in starts {
                let events = behind_a_full_queue(&stream, |rx| {
                    let supervisor = rig.supervisor.clone();
                    spawn_analyzer_pool(start, rig.config, supervisor, workers, rx).unwrap()
                });
                assert_eq!(
                    event_keys(&events),
                    expected,
                    "{k} deep, goodbye {goodbye}, {workers} workers, from a {from}"
                );
            }
        }
    }

    /// The legacy side channel on the same schedule: the router drains
    /// the report before the first queued batch, so it is charged `k - 1`
    /// batches early — exactly what the reference reports with the report
    /// moved to the head of the stream, and, once a batch is queued ahead
    /// of it, not what the reference reports with it in place.
    #[test]
    fn the_legacy_side_channel_charges_a_gap_behind_a_full_queue_early() {
        let rig = EarlyRig::new();
        for (k, goodbye, workers) in
            (1..=5).flat_map(|k| [(k, false, 1), (k, true, 1), (k, false, 4), (k, true, 4)])
        {
            let mut stream = gap_behind_a_queue(k, goodbye, &rig.interner);
            let in_place = rig.reference(&stream);
            let reports = std::mem::take(&mut stream.last_mut().unwrap().losses);
            let mut early = stream.clone();
            early[0].losses.clone_from(&reports);
            let ahead = rig.reference(&early);
            assert_eq!(in_place == ahead, k == 1, "{k} deep, goodbye {goodbye}");

            let (loss_tx, loss_rx) = unbounded();
            for report in reports {
                loss_tx.send(report).unwrap();
            }
            let events = behind_a_full_queue(&stream, |rx| {
                let (model, interner) = (rig.model.clone(), rig.interner.clone());
                let supervisor = rig.supervisor.clone();
                let loss_rx = Some(loss_rx);
                spawn_batch_analyzer_pool(
                    model, rig.config, supervisor, workers, interner, rx, loss_rx,
                )
            });
            assert_eq!(
                event_keys(&events),
                ahead,
                "{k} deep, goodbye {goodbye}, {workers} workers"
            );
        }
    }
}
