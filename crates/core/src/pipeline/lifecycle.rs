//! Durable model lifecycle on top of the pool: checkpointed state, crash
//! recovery, bootstrap promotion and the in-band hot model swap.

use super::adapt::{AdaptPolicy, AdaptState};
use super::pool::{meta_tick, shard_for, PoolHandle, ShardMsg};
use crate::detector::{AnomalyDetector, DetectorConfig, DetectorSnapshot};
use crate::feature::InternedFeature;
use crate::intern::{SigId, SignatureInterner};
use crate::model::{CompiledModel, ConfigError, ModelBuilder, ModelConfig, OutlierModel};
use crate::selfmon::{MetaMonitor, MetaStage};
use crate::store::{Checkpoint, CheckpointError, CheckpointStore};
use crate::{Signature, StageId};
use crossbeam_channel::{bounded, unbounded, Receiver, Sender};
use saad_obs::{Histogram, Registry};
use saad_sim::SimTime;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for a pool started from a
/// [`PoolStart::Store`](super::PoolStart::Store).
#[derive(Debug, Clone)]
pub struct LifecycleConfig {
    /// Automatically checkpoint after this many routed synopses
    /// (0 disables automatic checkpoints; explicit
    /// [`PoolHandle::checkpoint_now`] and the final shutdown
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
    /// way [`SupervisorConfig::panic_after`](super::SupervisorConfig::panic_after)
    /// injects worker crashes.
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
    /// retrains happen only on explicit [`PoolHandle::retrain_now`]
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
    /// The pool was started from a model and has no checkpoint store.
    NoStore,
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
            LifecycleError::NoStore => write!(f, "pool was started from a model, without a store"),
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
/// channel for an explicit [`PoolHandle::checkpoint_now`] request.
type WriterJob = (Checkpoint, Option<Sender<Result<u64, LifecycleError>>>);

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

/// Live lifecycle counters, shared between the router and checkpoint-writer
/// threads (writers) and the [`PoolHandle`] with its scrape-time callbacks
/// (readers).
#[derive(Debug, Default)]
pub(super) struct LifecycleObs {
    /// False while in bootstrap (collect-only) mode.
    detecting: AtomicBool,
    checkpoints_written: AtomicU64,
    checkpoint_retries: AtomicU64,
    /// [`NO_GENERATION`] until the first durable checkpoint.
    last_generation: AtomicU64,
    last_error: parking_lot::Mutex<Option<LifecycleError>>,
    /// Wall-clock microseconds per durable checkpoint write.
    checkpoint_latency: Arc<Histogram>,
    pub(super) drift_swaps: AtomicU64,
    pub(super) adapt_windows: AtomicU64,
}

/// Lifecycle state owned by the router thread of a pool started from a
/// store.
pub(super) struct RouterLifecycle {
    cfg: LifecycleConfig,
    control_rx: Receiver<PoolCommand>,
    writer_tx: Sender<WriterJob>,
    interner: Arc<SignatureInterner>,
    model: Arc<OutlierModel>,
    compiled: Arc<CompiledModel>,
    /// False while in bootstrap (collect-only) mode.
    pub(super) detecting: bool,
    obs: Arc<LifecycleObs>,
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
    /// The meta-monitor the pool's own stages report to, if any.
    pub(super) fn meta(&self) -> Option<Arc<MetaMonitor>> {
        self.cfg.meta.clone()
    }

    /// Record one routed element in the retrain ring buffer and counters.
    pub(super) fn absorb(&mut self, feature: &InternedFeature) {
        self.ring
            .push_back((feature.stage, feature.sig, feature.duration_us));
        if self.ring.len() > self.cfg.retrain_window {
            self.ring.pop_front();
        }
        self.seen += 1;
        self.since_checkpoint += 1;
        if let Some(adapt) = self.adapt.as_mut() {
            adapt.absorb(feature);
        }
    }

    /// Batch-boundary lifecycle work: drain control commands, attempt
    /// bootstrap promotion, and take an automatic checkpoint when due.
    pub(super) fn pump(&mut self, watermark: SimTime, shard_txs: &[Sender<ShardMsg>]) {
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
        if let Some(adapt) = self.adapt.as_mut() {
            if adapt.evaluate(watermark) && self.detecting && adapt.mark_pending() {
                self.ring.clear();
            }
        }
        let retrain_ready = self.detecting
            && self.adapt.as_ref().is_some_and(AdaptState::is_pending)
            && self.ring.len() as u64 >= self.cfg.min_retrain_samples;
        if retrain_ready {
            let swapped = self.try_retrain(watermark, shard_txs).is_ok();
            if let Some(adapt) = self.adapt.as_mut() {
                adapt.drift_retrain_done(swapped);
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
    pub(super) fn take_checkpoint(
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
        self.obs.detecting.store(true, Ordering::SeqCst);
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

/// The store's side of a pool started from a
/// [`PoolStart::Store`](super::PoolStart::Store): the control channel into
/// its router, the checkpoint writer, and what recovery found.
#[derive(Debug)]
pub(super) struct Store {
    control: Sender<PoolCommand>,
    writer: JoinHandle<()>,
    obs: Arc<LifecycleObs>,
    recovered_generation: Option<u64>,
    rejected: Vec<(PathBuf, CheckpointError)>,
}

/// Sentinel for "no checkpoint written yet" in `last_generation`.
const NO_GENERATION: u64 = u64::MAX;

impl Store {
    /// Wait for the writer. The router's exit closed its queue, so the
    /// final checkpoint is durable once this returns.
    pub(super) fn join(self) {
        let _ = self.writer.join();
    }

    /// The lifecycle layer's series: checkpoint write latency (wall-clock
    /// histogram recorded on the writer thread), checkpoints written, last
    /// durable generation, the detecting/bootstrap flag and drift swaps.
    pub(super) fn register_metrics(&self, registry: &Registry) {
        registry.attach_histogram(
            "saad_checkpoint_write_latency_us",
            "Wall-clock time to durably write one checkpoint, in microseconds",
            &[],
            Arc::clone(&self.obs.checkpoint_latency),
        );
        let obs = Arc::clone(&self.obs);
        registry.register_gauge_fn(
            "saad_checkpoint_last_generation",
            "Generation of the most recent durable checkpoint (-1 before the first)",
            &[],
            move || match obs.last_generation.load(Ordering::SeqCst) {
                NO_GENERATION => -1,
                generation => generation as i64,
            },
        );
        let obs = Arc::clone(&self.obs);
        registry.register_gauge_fn(
            "saad_pool_detecting",
            "1 while the pool classifies with a model, 0 in bootstrap collect-only mode",
            &[],
            move || i64::from(obs.detecting.load(Ordering::SeqCst)),
        );
        let counter = |name, help, read: fn(&LifecycleObs) -> &AtomicU64| {
            let obs = Arc::clone(&self.obs);
            registry
                .register_counter_fn(name, help, &[], move || read(&obs).load(Ordering::SeqCst));
        };
        counter(
            "saad_checkpoints_written_total",
            "Checkpoints durably written by this pool",
            |obs| &obs.checkpoints_written,
        );
        counter(
            "saad_checkpoint_retries",
            "Transient checkpoint write failures retried with backoff",
            |obs| &obs.checkpoint_retries,
        );
        counter(
            "saad_drift_swaps_total",
            "Hot model swaps triggered by the drift detector",
            |obs| &obs.drift_swaps,
        );
        counter(
            "saad_adapt_windows_total",
            "Adapt windows that closed with enough samples for drift evidence",
            |obs| &obs.adapt_windows,
        );
    }
}

/// The lifecycle side of a pool. A pool started from a
/// [`PoolStart::Model`](super::PoolStart::Model) has no store: it is always
/// detecting, counts nothing here, and answers every request with
/// [`LifecycleError::NoStore`].
impl PoolHandle {
    fn lifecycle_obs(&self) -> Option<&LifecycleObs> {
        self.store.as_ref().map(|store| &*store.obs)
    }

    fn lifecycle_count(&self, counter: fn(&LifecycleObs) -> &AtomicU64) -> u64 {
        self.lifecycle_obs()
            .map_or(0, |obs| counter(obs).load(Ordering::SeqCst))
    }

    /// Whether the pool has a model and is classifying (true), or is in
    /// bootstrap collect-only mode (false).
    pub fn is_detecting(&self) -> bool {
        self.lifecycle_obs()
            .is_none_or(|obs| obs.detecting.load(Ordering::SeqCst))
    }

    /// Checkpoints durably written so far.
    pub fn checkpoints_written(&self) -> u64 {
        self.lifecycle_count(|obs| &obs.checkpoints_written)
    }

    /// Hot swaps triggered by the drift detector (0 without an
    /// [`AdaptPolicy`]; manual retrains and bootstrap promotion are not
    /// counted here).
    pub fn drift_swaps(&self) -> u64 {
        self.lifecycle_count(|obs| &obs.drift_swaps)
    }

    /// Adapt windows that closed with enough samples to contribute drift
    /// evidence (0 without an [`AdaptPolicy`]).
    pub fn adapt_windows(&self) -> u64 {
        self.lifecycle_count(|obs| &obs.adapt_windows)
    }

    /// Transient checkpoint write failures retried with backoff so far
    /// (each failed attempt that was retried counts once).
    pub fn checkpoint_retries(&self) -> u64 {
        self.lifecycle_count(|obs| &obs.checkpoint_retries)
    }

    /// Generation of the most recent durable checkpoint, if any.
    pub fn last_checkpoint_generation(&self) -> Option<u64> {
        match self.lifecycle_obs()?.last_generation.load(Ordering::SeqCst) {
            NO_GENERATION => None,
            generation => Some(generation),
        }
    }

    /// The most recent background checkpoint-write failure, if any.
    /// (Explicit [`PoolHandle::checkpoint_now`] calls surface their
    /// errors directly.)
    pub fn last_checkpoint_error(&self) -> Option<LifecycleError> {
        self.lifecycle_obs()?.last_error.lock().clone()
    }

    /// Generation this pool was restored from at startup (`None` if it
    /// started in bootstrap mode or from a model).
    pub fn recovered_generation(&self) -> Option<u64> {
        self.store.as_ref()?.recovered_generation
    }

    /// Checkpoint files rejected during startup recovery, newest first,
    /// each with the typed reason (corruption, truncation, version skew).
    pub fn rejected_checkpoints(&self) -> &[(PathBuf, CheckpointError)] {
        self.store.as_ref().map_or(&[], |store| &store.rejected)
    }

    /// Hand `command` to the router with a fresh reply channel, or answer
    /// it at once when there is no store or no router.
    fn request<T>(
        &self,
        command: fn(Sender<Result<T, LifecycleError>>) -> PoolCommand,
    ) -> Receiver<Result<T, LifecycleError>> {
        let (tx, rx) = bounded(1);
        let refused = match &self.store {
            None => Some(LifecycleError::NoStore),
            Some(store) => {
                (store.control.send(command(tx.clone())).err()).map(|_| LifecycleError::PoolClosed)
            }
        };
        if let Some(e) = refused {
            let _ = tx.send(Err(e));
        }
        rx
    }

    /// Request a checkpoint; the reply arrives once the checkpoint is
    /// durably on disk. Commands are applied at the next batch boundary
    /// (or at end of stream), so an idle pool replies only after the next
    /// batch — send an empty batch to nudge it if needed.
    pub fn request_checkpoint(&self) -> Receiver<Result<u64, LifecycleError>> {
        self.request(PoolCommand::Checkpoint)
    }

    /// Blocking convenience for [`PoolHandle::request_checkpoint`].
    ///
    /// # Errors
    ///
    /// [`LifecycleError::Bootstrapping`] before promotion,
    /// [`LifecycleError::Checkpoint`] if the write failed,
    /// [`LifecycleError::NoStore`] on a pool started from a model, or
    /// [`LifecycleError::PoolClosed`] if the pool is gone.
    pub fn checkpoint_now(&self) -> Result<u64, LifecycleError> {
        self.request_checkpoint()
            .recv()
            .unwrap_or(Err(LifecycleError::PoolClosed))
    }

    /// Request a hot model swap retrained from the recent synopsis
    /// window. Applied at the next batch boundary, like
    /// [`PoolHandle::request_checkpoint`].
    pub fn request_retrain(&self) -> Receiver<Result<SwapReport, LifecycleError>> {
        self.request(PoolCommand::Retrain)
    }

    /// Blocking convenience for [`PoolHandle::request_retrain`].
    ///
    /// # Errors
    ///
    /// [`LifecycleError::InsufficientData`] or
    /// [`LifecycleError::UnstableModel`] when the gate refuses the
    /// candidate, [`LifecycleError::Config`] for an invalid training
    /// configuration, [`LifecycleError::NoStore`], or
    /// [`LifecycleError::PoolClosed`].
    pub fn retrain_now(&self) -> Result<SwapReport, LifecycleError> {
        self.request_retrain()
            .recv()
            .unwrap_or(Err(LifecycleError::PoolClosed))
    }
}

/// The checkpoint writer thread: persist each job durably — retrying
/// transient I/O failures with backoff — record the outcome, and answer
/// an explicit request.
fn run_checkpoint_writer(
    store: &CheckpointStore,
    jobs: &Receiver<WriterJob>,
    cfg: &LifecycleConfig,
    obs: &LifecycleObs,
) {
    let mut fail_first = cfg.checkpoint_fail_first;
    for (checkpoint, reply) in jobs.iter() {
        let started = Instant::now();
        let result = meta_tick(&cfg.meta, MetaStage::Checkpoint, || {
            if let Some(stall) = cfg.checkpoint_stall {
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
                    // Only transient I/O failures are worth a rewrite;
                    // corruption-class errors surface immediately.
                    Err(CheckpointError::Io(_)) if attempt < cfg.checkpoint_retries => {
                        attempt += 1;
                        obs.checkpoint_retries.fetch_add(1, Ordering::SeqCst);
                        let base = cfg.checkpoint_retry_backoff;
                        std::thread::sleep(checkpoint_retry_delay(
                            base,
                            attempt,
                            checkpoint.generation,
                        ));
                    }
                    Err(e) => break Err(LifecycleError::from(e)),
                }
            }
        });
        obs.checkpoint_latency
            .record(started.elapsed().as_micros() as u64);
        match &result {
            Ok(generation) => {
                obs.checkpoints_written.fetch_add(1, Ordering::SeqCst);
                obs.last_generation.store(*generation, Ordering::SeqCst);
            }
            Err(e) => *obs.last_error.lock() = Some(e.clone()),
        }
        if let Some(reply) = reply {
            let _ = reply.send(result);
        }
    }
}

/// Open the checkpoint store in `dir` for a pool of `workers` shards:
/// restore its newest checkpoint that decodes — resharded when the worker
/// count changed — or bootstrap collect-only detectors on a fresh
/// interner, and start the checkpoint writer. Returns the shard detectors,
/// the router's lifecycle state and the handle's side of the store.
pub(super) fn open_store(
    dir: PathBuf,
    lifecycle: LifecycleConfig,
    config: DetectorConfig,
    workers: usize,
) -> Result<(Vec<AnomalyDetector>, RouterLifecycle, Store), LifecycleError> {
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

    let obs = Arc::new(LifecycleObs {
        detecting: AtomicBool::new(detecting),
        last_generation: AtomicU64::new(NO_GENERATION),
        ..LifecycleObs::default()
    });
    let (writer_tx, writer_rx) = unbounded::<WriterJob>();
    let (writer_cfg, writer_obs) = (lifecycle.clone(), obs.clone());
    let writer = std::thread::Builder::new()
        .name("saad-checkpoint-writer".into())
        .spawn(move || run_checkpoint_writer(&store, &writer_rx, &writer_cfg, &writer_obs))
        .expect("spawn checkpoint writer thread");

    let (control_tx, control_rx) = unbounded();
    let next_attempt = lifecycle.promote_after;
    let quantile = lifecycle.model_config.duration_percentile;
    let adapt = lifecycle
        .adapt
        .clone()
        .map(|policy| AdaptState::new(policy, quantile, obs.clone()));
    let router_lifecycle = RouterLifecycle {
        cfg: lifecycle,
        control_rx,
        writer_tx,
        interner,
        model,
        compiled,
        detecting,
        obs: obs.clone(),
        generation: next_generation,
        ring: VecDeque::new(),
        seen: 0,
        since_checkpoint: 0,
        next_attempt,
        adapt,
    };
    let store = Store {
        control: control_tx,
        writer,
        obs,
        recovered_generation,
        rejected,
    };
    Ok((detectors, router_lifecycle, store))
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{model, soa, synopsis_on, TempDir};
    use super::super::{spawn_analyzer_pool, PoolStart, SupervisorConfig};
    use super::*;
    use crate::batch::SynopsisBatch;
    use crate::detector::AnomalyKind;
    use crate::synopsis::TaskSynopsis;
    use saad_sim::SimDuration;

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

    /// A pool over the store in `dir`, and the sender of its one input.
    fn spawn(
        dir: &TempDir,
        lifecycle: LifecycleConfig,
        workers: usize,
    ) -> (Sender<SynopsisBatch>, PoolHandle) {
        let (batch_tx, batch_rx) = unbounded();
        let start = PoolStart::Store {
            dir: dir.path().into(),
            lifecycle,
        };
        let supervisor = SupervisorConfig::default();
        let config = DetectorConfig::default();
        let pool = spawn_analyzer_pool(start, config, supervisor, workers, batch_rx).unwrap();
        (batch_tx, pool)
    }

    /// `stream` in batches of 60, interned where the pool says to.
    fn feed(pool: &PoolHandle, batch_tx: &Sender<SynopsisBatch>, stream: &[TaskSynopsis]) {
        let interner = pool.interner();
        for chunk in stream.chunks(60) {
            batch_tx.send(soa(chunk, &interner)).unwrap();
        }
    }

    /// Control commands apply at the router's next batch boundary, so a
    /// command sent while queued batches are still in flight could land
    /// before them. Wait until the pool has consumed what was fed.
    fn wait_processed(pool: &PoolHandle, target: u64) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while pool.processed() < target {
            assert!(std::time::Instant::now() < deadline, "pool stalled");
            std::thread::yield_now();
        }
    }

    /// A router lifecycle as a bootstrapping pool would start with, its
    /// channels leading nowhere.
    fn router_lifecycle(cfg: LifecycleConfig) -> RouterLifecycle {
        let interner = Arc::new(SignatureInterner::new());
        let model = Arc::new(ModelBuilder::new().build(ModelConfig::default()));
        RouterLifecycle {
            cfg,
            control_rx: unbounded().1,
            writer_tx: unbounded().0,
            compiled: Arc::new(model.compile(&interner)),
            interner,
            model,
            detecting: false,
            obs: Arc::default(),
            generation: 0,
            ring: VecDeque::new(),
            seen: 0,
            since_checkpoint: 0,
            next_attempt: u64::MAX,
            adapt: None,
        }
    }

    #[test]
    fn retrain_ring_never_outgrows_its_window() {
        for retrain_window in [0usize, 1, 500] {
            let mut lifecycle = router_lifecycle(LifecycleConfig {
                retrain_window,
                ..LifecycleConfig::default()
            });
            let interner = lifecycle.interner.clone();
            for s in healthy_stream(1, 10_000) {
                lifecycle.absorb(&InternedFeature::from_synopsis(&s, &interner));
                assert!(lifecycle.ring.len() <= retrain_window);
            }
            assert_eq!(lifecycle.seen, 10_000);
            assert_eq!(lifecycle.ring.len(), retrain_window);
        }
    }

    #[test]
    fn a_pool_started_from_a_model_answers_lifecycle_requests_without_a_store() {
        let (batch_tx, batch_rx) = unbounded();
        let start = PoolStart::Model {
            model: model(),
            interner: Arc::default(),
        };
        let (config, supervisor) = (DetectorConfig::default(), SupervisorConfig::default());
        let pool = spawn_analyzer_pool(start, config, supervisor, 2, batch_rx).unwrap();
        assert!(pool.is_detecting());
        assert_eq!(pool.checkpoint_now(), Err(LifecycleError::NoStore));
        assert_eq!(pool.retrain_now(), Err(LifecycleError::NoStore));
        assert_eq!(pool.checkpoints_written(), 0);
        assert_eq!(pool.last_checkpoint_generation(), None);
        assert_eq!(pool.recovered_generation(), None);
        assert!(pool.rejected_checkpoints().is_empty());
        drop(batch_tx);
        pool.join().unwrap();
    }

    #[test]
    fn lifecycle_pool_bootstraps_promotes_and_checkpoints() {
        let dir = TempDir::new();
        let (batch_tx, pool) = spawn(&dir, quick_lifecycle(), 2);
        assert!(!pool.is_detecting(), "no checkpoint: must start bootstrap");
        assert_eq!(pool.recovered_generation(), None);

        // Healthy traffic through promotion (promote_after = 300)…
        feed(&pool, &batch_tx, &healthy_stream(3, 240));
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
        feed(&pool, &batch_tx, &tail);
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
        let (batch_tx, pool) = spawn(&dir, adaptive_lifecycle(), 2);
        // Healthy run-in (promotes around minute 1.25, then quiet
        // windows establish the Page-Hinkley null), then a rollout that
        // quintuples every duration.
        feed(&pool, &batch_tx, &scaled_stream(0, 6, 240, 1.0));
        feed(&pool, &batch_tx, &scaled_stream(6, 6, 240, 5.0));
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
        let (batch_tx, pool) = spawn(&dir, adaptive_lifecycle(), 2);
        feed(&pool, &batch_tx, &scaled_stream(0, 12, 240, 1.0));
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
        let (batch_tx, pool) = spawn(&dir, quick_lifecycle(), 2);
        let reply = pool.request_checkpoint();
        batch_tx.send(SynopsisBatch::new()).unwrap(); // nudge the batch boundary
        assert_eq!(reply.recv().unwrap(), Err(LifecycleError::Bootstrapping));
        let retrain = pool.request_retrain();
        batch_tx.send(SynopsisBatch::new()).unwrap();
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
            let (batch_tx, pool) = spawn(&dir, quick_lifecycle(), 2);
            feed(&pool, &batch_tx, &stream);
            drop(batch_tx);
            while pool.events().recv().is_ok() {}
            assert!(pool.is_detecting());
            pool.join().unwrap();
        }
        // Same worker count: shard-for-shard restore.
        {
            let (batch_tx, pool) = spawn(&dir, quick_lifecycle(), 2);
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
            let (batch_tx, pool) = spawn(&dir, quick_lifecycle(), 3);
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
        let (batch_tx, pool) = spawn(&dir, quick_lifecycle(), 2);
        feed(&pool, &batch_tx, &healthy_stream(2, 240));
        wait_processed(&pool, 480);
        let reply = pool.request_checkpoint();
        batch_tx.send(SynopsisBatch::new()).unwrap();
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
        let (batch_tx, pool) = spawn(
            &dir,
            LifecycleConfig {
                checkpoint_fail_first: 2,
                checkpoint_retry_backoff: Duration::from_millis(1),
                ..quick_lifecycle()
            },
            2,
        );
        feed(&pool, &batch_tx, &healthy_stream(2, 240));
        wait_processed(&pool, 480);
        let reply = pool.request_checkpoint();
        batch_tx.send(SynopsisBatch::new()).unwrap();
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
        let (batch_tx, pool) = spawn(
            &dir,
            LifecycleConfig {
                // More injected failures than 1 initial try + 2 retries.
                checkpoint_fail_first: 10,
                checkpoint_retries: 2,
                checkpoint_retry_backoff: Duration::from_millis(1),
                ..quick_lifecycle()
            },
            2,
        );
        feed(&pool, &batch_tx, &healthy_stream(2, 240));
        wait_processed(&pool, 480);
        let reply = pool.request_checkpoint();
        batch_tx.send(SynopsisBatch::new()).unwrap();
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
        let (batch_tx, pool) = spawn(&dir, quick_lifecycle(), 3);
        let stream = healthy_stream(4, 240);
        feed(&pool, &batch_tx, &stream[..720]);
        wait_processed(&pool, 720);
        // Mid-stream explicit retrain → hot swap broadcast to all shards.
        let reply = pool.request_retrain();
        batch_tx.send(SynopsisBatch::new()).unwrap();
        let report = reply.recv().unwrap().expect("retrain refused");
        assert!(report.trained_from >= 200);
        feed(&pool, &batch_tx, &stream[720..]);
        drop(batch_tx);
        while pool.events().recv().is_ok() {}
        assert_eq!(pool.processed(), stream.len() as u64);
        let detectors = pool.join().unwrap();
        let total: u64 = detectors.iter().map(|d| d.tasks_seen()).sum();
        assert_eq!(total, stream.len() as u64, "swap lost or duplicated tasks");
    }
}
