//! Durable model lifecycle on top of the pool: tenants, checkpointed
//! state, crash recovery, bootstrap promotion and the in-band hot model
//! swap.

use super::adapt::{AdaptPolicy, AdaptState, TenantRouter};
use super::pool::{meta_tick, shard_for, PoolHandle, ShardMsg};
use crate::detector::{AnomalyDetector, DetectorConfig};
use crate::feature::InternedFeature;
use crate::intern::{SigId, SignatureInterner};
use crate::model::{CompiledModel, ConfigError, ModelBuilder, ModelConfig, OutlierModel};
use crate::selfmon::{MetaMonitor, MetaStage};
use crate::store::{Checkpoint, CheckpointError, CheckpointStore, TenantCheckpoint};
use crate::{HostId, Signature, StageId, TenantId};
use crossbeam_channel::{bounded, unbounded, Receiver, Sender};
use saad_obs::{Histogram, Registry};
use saad_sim::{SimDuration, SimTime};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for a pool started from a
/// [`PoolStart::Store`](super::PoolStart::Store). Retrained models use
/// [`ModelConfig::default`] (the paper's parameters); three checkpoint
/// generations are kept on disk; a transient write failure is retried
/// three times, 10 ms apart and doubling.
#[derive(Debug, Clone)]
pub struct LifecycleConfig {
    /// Automatically checkpoint after this many routed synopses
    /// (0 disables automatic checkpoints; explicit
    /// [`PoolHandle::request_checkpoint`] and the final shutdown
    /// checkpoint still run).
    pub checkpoint_every: u64,
    /// In bootstrap mode, attempt promotion to detecting mode once this
    /// many synopses have been observed (and again after every further
    /// `promote_after` observations while the stability gate refuses).
    pub promote_after: u64,
    /// Capacity of the ring buffer of recent synopses kept by the router
    /// for retraining. At least `min_retrain_samples`, or no tenant could
    /// ever train.
    pub retrain_window: usize,
    /// Minimum synopses in the ring buffer before a retrain (or bootstrap
    /// promotion) is allowed.
    pub min_retrain_samples: u64,
    /// Meta-monitor delimiting the pool's own router/shard/checkpoint
    /// iterations as tracked tasks (see [`MetaMonitor`]). `None` disables
    /// self-observation.
    pub meta: Option<Arc<MetaMonitor>>,
    /// Continuous adaptation: when set, the router runs a Page-Hinkley
    /// drift detector over each tenant's window-level traffic summaries
    /// and triggers that tenant's in-band retrain/hot-swap itself when
    /// drift is confirmed. `None` (the default) keeps the pool's episodic
    /// behaviour — retrains happen only on explicit
    /// [`PoolHandle::request_retrain`] and at bootstrap promotion.
    pub adapt: Option<AdaptPolicy>,
    /// Which tenant each host belongs to. Every tenant gets `workers`
    /// shard slots and a model of its own: bootstrapped, promoted,
    /// retrained, drift-swapped and checkpointed apart from the others.
    /// By default every host is in [`TenantId::DEFAULT`].
    pub tenants: TenantRouter,
    /// Fault injection: sleep this long inside every checkpoint write,
    /// so the checkpoint stage is observably slow.
    #[cfg(any(test, feature = "testkit"))]
    pub checkpoint_stall: Option<Duration>,
    /// Fault injection: fail this many checkpoint write attempts with a
    /// synthesized transient I/O error before letting writes through.
    #[cfg(any(test, feature = "testkit"))]
    pub checkpoint_fail_first: u32,
}

impl Default for LifecycleConfig {
    fn default() -> LifecycleConfig {
        LifecycleConfig {
            checkpoint_every: 4096,
            promote_after: 5_000,
            retrain_window: 16_384,
            min_retrain_samples: 1_000,
            meta: None,
            adapt: None,
            tenants: TenantRouter::new(),
            #[cfg(any(test, feature = "testkit"))]
            checkpoint_stall: None,
            #[cfg(any(test, feature = "testkit"))]
            checkpoint_fail_first: 0,
        }
    }
}

/// Checkpoint generations kept on disk; older ones are pruned. Recovery
/// takes the newest that decodes, so three survive two bad writes in a row.
const KEEP_CHECKPOINTS: usize = 3;

/// Retries of a checkpoint write that failed with [`CheckpointError::Io`]
/// (corruption-class errors are never retried: a rewrite will not fix
/// them). A transient fault clears within a few tries or is not transient.
pub(super) const CHECKPOINT_RETRIES: u32 = 3;

/// Backoff before the first checkpoint retry, doubling per retry: three
/// retries wait about 70 ms in all, brief next to a checkpoint interval.
const CHECKPOINT_RETRY_BACKOFF: Duration = Duration::from_millis(10);

/// Why a lifecycle operation (checkpoint, retrain, swap, recovery) failed.
#[derive(Debug, Clone, PartialEq)]
pub enum LifecycleError {
    /// Reading or writing the checkpoint store failed.
    Checkpoint(CheckpointError),
    /// The retrained model's configuration was rejected.
    Config(ConfigError),
    /// Every tenant is still in bootstrap (collect-only) mode, which is
    /// never checkpointed — there is no model to persist.
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
    /// The pool's [`TenantRouter`] has no such tenant.
    UnknownTenant(TenantId),
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
            LifecycleError::UnknownTenant(tenant) => write!(f, "pool has no tenant {tenant}"),
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
    /// Whether this swap promoted the tenant out of bootstrap mode.
    pub promoted: bool,
    /// Stages covered by the new model.
    pub stages: usize,
}

/// Control commands accepted by a lifecycle pool's router, applied at the
/// next batch boundary (or at end of stream).
enum PoolCommand {
    Checkpoint(Sender<Result<u64, LifecycleError>>),
    Retrain(TenantId, Sender<Result<SwapReport, LifecycleError>>),
}

/// A checkpoint handed to the writer thread, with an optional reply
/// channel for an explicit [`PoolHandle::request_checkpoint`].
type WriterJob = (Checkpoint, Option<Sender<Result<u64, LifecycleError>>>);

/// Backoff before checkpoint-write retry `attempt` (1-based):
/// [`CHECKPOINT_RETRY_BACKOFF`] doubled per retry, capped at 8x, scaled by
/// a jitter factor in [0.5, 1.5) mixed from the generation and attempt
/// with a splitmix64 finalizer. Deterministic — replays and tests see
/// identical schedules — yet de-synchronized across generations and
/// attempts.
fn checkpoint_retry_delay(attempt: u32, generation: u64) -> Duration {
    let capped = CHECKPOINT_RETRY_BACKOFF.saturating_mul(1u32 << (attempt - 1).min(3));
    let mut x = generation ^ (u64::from(attempt) << 32) ^ 0x9E37_79B9_7F4A_7C15;
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    let jitter = 0.5 + (x >> 11) as f64 / (1u64 << 53) as f64;
    capped.mul_f64(jitter)
}

/// Live checkpoint counters, shared between the router and
/// checkpoint-writer threads (writers) and the [`PoolHandle`] with its
/// scrape-time callbacks (readers).
#[derive(Debug, Default)]
struct LifecycleObs {
    checkpoints_written: AtomicU64,
    checkpoint_retries: AtomicU64,
    /// [`NO_GENERATION`] until the first durable checkpoint.
    last_generation: AtomicU64,
    last_error: parking_lot::Mutex<Option<LifecycleError>>,
    /// Wall-clock microseconds per durable checkpoint write.
    checkpoint_latency: Arc<Histogram>,
}

/// One tenant's live counters, written by the router thread and read by
/// the [`PoolHandle`] and its scrape-time callbacks.
#[derive(Debug, Default)]
pub(super) struct TenantObs {
    /// Model generation: 0 in bootstrap, one more per swap.
    generation: AtomicU64,
    pub(super) drift_swaps: AtomicU64,
    pub(super) adapt_windows: AtomicU64,
    /// Synopses routed to the tenant, published at batch boundaries.
    observed: AtomicU64,
}

/// One tenant's side of the router's lifecycle: its model, the ring of
/// recent traffic its next model trains on, its promotion schedule and its
/// drift state. Its shard slots are the `workers` from `index × workers`.
struct TenantLifecycle {
    id: TenantId,
    model: Arc<OutlierModel>,
    compiled: Arc<CompiledModel>,
    /// Swaps so far, promotion included; 0 while in bootstrap
    /// (collect-only) mode.
    generation: u64,
    /// Recent traffic for retraining, newest at the back — compacted to
    /// the three fields training needs (stage, interned signature,
    /// duration) instead of whole cloned synopses: no per-element heap
    /// allocation. Signatures are resolved back through the shared
    /// interner only on the (cold) retrain path.
    ring: VecDeque<(StageId, SigId, f64)>,
    seen: u64,
    next_attempt: u64,
    /// Drift detection state, present when the configuration carries an
    /// [`AdaptPolicy`].
    adapt: Option<AdaptState>,
    obs: Arc<TenantObs>,
}

impl TenantLifecycle {
    fn detecting(&self) -> bool {
        self.generation > 0
    }

    /// Record one routed element in the retrain ring and drift window.
    fn absorb(&mut self, feature: &InternedFeature, window: usize) {
        self.ring
            .push_back((feature.stage, feature.sig, feature.duration_us));
        if self.ring.len() > window {
            self.ring.pop_front();
        }
        self.seen += 1;
        if let Some(adapt) = self.adapt.as_mut() {
            adapt.absorb(feature);
        }
    }

    /// Batch-boundary work for this tenant: bootstrap promotion, then
    /// drift. A confirmed trip does NOT retrain on the spot — the ring
    /// still holds the regime the drift just invalidated. It drops the
    /// ring instead, and the swap happens at a later boundary, once
    /// enough purely post-drift traffic has refilled it (reusing the
    /// existing retrain/hot-swap path).
    fn pump(
        &mut self,
        cfg: &LifecycleConfig,
        interner: &SignatureInterner,
        watermark: SimTime,
        slots: &[Sender<ShardMsg>],
    ) {
        if !self.detecting()
            && self.seen >= self.next_attempt
            && self.try_retrain(cfg, interner, watermark, slots).is_err()
        {
            // The gate refused; observe more traffic before retrying.
            self.next_attempt = self.seen + cfg.promote_after.max(1);
        }
        if self.adapt.as_mut().is_some_and(|a| a.evaluate(watermark)) {
            self.ring.clear();
        }
        if self.adapt.as_ref().is_some_and(AdaptState::retrain_due)
            && self.ring.len() as u64 >= cfg.min_retrain_samples
        {
            let swapped = self.try_retrain(cfg, interner, watermark, slots).is_ok();
            if let Some(adapt) = self.adapt.as_mut() {
                adapt.drift_retrain_done(swapped);
            }
        }
        self.obs.observed.store(self.seen, Ordering::Relaxed);
    }

    /// Train a candidate model from the retrain ring, gate it with k-fold
    /// cross-validation over the pooled durations, and — if it passes —
    /// send an in-band swap to each of the tenant's shard slots.
    fn try_retrain(
        &mut self,
        cfg: &LifecycleConfig,
        interner: &SignatureInterner,
        watermark: SimTime,
        slots: &[Sender<ShardMsg>],
    ) -> Result<SwapReport, LifecycleError> {
        let have = self.ring.len() as u64;
        let need = cfg.min_retrain_samples;
        if have < need {
            return Err(LifecycleError::InsufficientData { have, need });
        }
        let mc = ModelConfig::default();
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
                interner
                    .resolve(sig)
                    .expect("retrain ring SigId interned by this pool")
            });
            builder.observe_parts(stage, signature, duration_us);
        }
        let model = Arc::new(builder.try_build(mc)?);
        // Compiled against the SAME shared interner every shard already
        // uses, so interned features stay valid across the swap.
        let compiled = Arc::new(model.compile(interner));
        for tx in slots {
            let (model, compiled) = (model.clone(), compiled.clone());
            let swap = ShardMsg::Swap {
                model,
                compiled,
                watermark,
            };
            if tx.send(swap).is_err() {
                return Err(LifecycleError::PoolClosed);
            }
        }
        let promoted = !self.detecting();
        self.model = model;
        self.compiled = compiled;
        self.generation += 1;
        self.obs.generation.store(self.generation, Ordering::SeqCst);
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

/// Lifecycle state owned by the router thread of a pool started from a
/// store: what is pool-wide (commands, checkpoints, the interner), and
/// one [`TenantLifecycle`] per tenant.
pub(super) struct RouterLifecycle {
    cfg: LifecycleConfig,
    control_rx: Receiver<PoolCommand>,
    writer_tx: Sender<WriterJob>,
    interner: Arc<SignatureInterner>,
    /// Next checkpoint generation to assemble.
    generation: u64,
    since_checkpoint: u64,
    /// Shard slots per tenant.
    workers: usize,
    /// [`TenantRouter::host_table`], and the default tenant's index.
    hosts: Vec<u16>,
    default_tenant: usize,
    tenants: Vec<TenantLifecycle>,
}

impl RouterLifecycle {
    /// The meta-monitor the pool's own stages report to, if any.
    pub(super) fn meta(&self) -> Option<Arc<MetaMonitor>> {
        self.cfg.meta.clone()
    }

    /// Tenants, each with `workers` consecutive shard slots.
    pub(super) fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// The index of `host`'s tenant.
    #[inline]
    pub(super) fn tenant_of(&self, host: HostId) -> usize {
        let entry = self.hosts.get(usize::from(host.0));
        entry.map_or(self.default_tenant, |&tenant| usize::from(tenant))
    }

    /// Record one routed element with its tenant; returns the tenant's
    /// index.
    #[inline]
    pub(super) fn absorb(&mut self, feature: &InternedFeature) -> usize {
        let tenant = self.tenant_of(feature.host);
        self.tenants[tenant].absorb(feature, self.cfg.retrain_window);
        self.since_checkpoint += 1;
        tenant
    }

    /// Whether any tenant has a model (and so a section to checkpoint).
    pub(super) fn detecting(&self) -> bool {
        self.tenants.iter().any(TenantLifecycle::detecting)
    }

    /// Batch-boundary lifecycle work: drain control commands, pump every
    /// tenant over its own slots, and take an automatic checkpoint when
    /// due.
    pub(super) fn pump(&mut self, watermark: SimTime, shard_txs: &[Sender<ShardMsg>]) {
        let commands: Vec<PoolCommand> = self.control_rx.try_iter().collect();
        for command in commands {
            match command {
                PoolCommand::Checkpoint(reply) => self.take_checkpoint(shard_txs, Some(reply)),
                PoolCommand::Retrain(id, reply) => {
                    let found = self.tenants.iter().position(|t| t.id == id);
                    let result = found.map_or(Err(LifecycleError::UnknownTenant(id)), |i| {
                        let slots = &shard_txs[i * self.workers..(i + 1) * self.workers];
                        let interner = &self.interner;
                        self.tenants[i].try_retrain(&self.cfg, interner, watermark, slots)
                    });
                    let _ = reply.send(result);
                }
            }
        }
        let slots = shard_txs.chunks(self.workers);
        for (tenant, slots) in self.tenants.iter_mut().zip(slots) {
            tenant.pump(&self.cfg, &self.interner, watermark, slots);
        }
        if self.detecting()
            && self.cfg.checkpoint_every > 0
            && self.since_checkpoint >= self.cfg.checkpoint_every
        {
            self.take_checkpoint(shard_txs, None);
        }
    }

    /// Collect a snapshot from every shard slot of every tenant with a
    /// model (in slot order, in-band) and hand the assembled checkpoint to
    /// the writer thread. A tenant in bootstrap writes no section: it has
    /// no model worth persisting, and recovery bootstraps it anyway.
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
        if !self.detecting() {
            return fail(reply, LifecycleError::Bootstrapping);
        }
        let slots = shard_txs.chunks(self.workers);
        let detecting: Vec<_> = (self.tenants.iter().zip(slots))
            .filter(|(tenant, _)| tenant.detecting())
            .collect();
        let mut replies = Vec::new();
        for tx in detecting.iter().flat_map(|(_, slots)| slots.iter()) {
            let (snap_tx, snap_rx) = bounded(1);
            if tx.send(ShardMsg::Snapshot(snap_tx)).is_err() {
                return fail(reply, LifecycleError::PoolClosed);
            }
            replies.push(snap_rx);
        }
        let mut replies = replies.into_iter();
        let mut sections = Vec::with_capacity(detecting.len());
        for (tenant, _) in detecting {
            let shards = replies.by_ref().take(self.workers).map(|rx| rx.recv().ok());
            let Some(shards) = shards.collect() else {
                return fail(reply, LifecycleError::PoolClosed);
            };
            sections.push(TenantCheckpoint {
                tenant: tenant.id,
                generation: tenant.generation,
                model: tenant.model.clone(),
                compiled: tenant.compiled.clone(),
                shards,
            });
        }
        let checkpoint = Checkpoint {
            generation: self.generation,
            interner: self.interner.clone(),
            tenants: sections,
        };
        self.generation += 1;
        self.since_checkpoint = 0;
        if self.writer_tx.send((checkpoint, reply)).is_err() {
            // Writer gone; the reply (if any) went with the job.
        }
    }
}

/// The store's side of a pool started from a
/// [`PoolStart::Store`](super::PoolStart::Store): the control channel into
/// its router, the checkpoint writer, each tenant's counters, and what
/// recovery found.
#[derive(Debug)]
pub(super) struct Store {
    control: Sender<PoolCommand>,
    writer: JoinHandle<()>,
    obs: Arc<LifecycleObs>,
    tenants: Vec<(TenantId, Arc<TenantObs>)>,
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
    /// durable generation, the detecting/bootstrap flag, and per tenant
    /// its model generation, drift swaps, adapt windows and tasks.
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
        let tenants: Vec<Arc<TenantObs>> = self.tenants.iter().map(|(_, t)| t.clone()).collect();
        registry.register_gauge_fn(
            "saad_pool_detecting",
            "1 while a tenant classifies with a model, 0 while every tenant is in bootstrap collect-only mode",
            &[],
            move || i64::from(tenants.iter().any(|t| t.generation.load(Ordering::SeqCst) > 0)),
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
            "saad_checkpoint_retries_total",
            "Transient checkpoint write failures retried with backoff",
            |obs| &obs.checkpoint_retries,
        );
        for (tenant, obs) in &self.tenants {
            let label = tenant.to_string();
            let labels = [("tenant", label.as_str())];
            let generation = Arc::clone(obs);
            registry.register_gauge_fn(
                "saad_tenant_model_generation",
                "Model generation installed for this tenant",
                &labels,
                move || generation.generation.load(Ordering::SeqCst) as i64,
            );
            let counter = |name, help, read: fn(&TenantObs) -> &AtomicU64| {
                let obs = Arc::clone(obs);
                let read_now = move || read(&obs).load(Ordering::SeqCst);
                registry.register_counter_fn(name, help, &labels, read_now);
            };
            counter(
                "saad_tenant_drift_swaps_total",
                "Drift-triggered model swaps for this tenant",
                |obs| &obs.drift_swaps,
            );
            counter(
                "saad_tenant_adapt_windows_total",
                "Adapt windows of this tenant that closed with enough samples for drift evidence",
                |obs| &obs.adapt_windows,
            );
            counter(
                "saad_tenant_tasks_observed_total",
                "Tasks routed to this tenant",
                |obs| &obs.observed,
            );
        }
    }
}

/// The lifecycle side of a pool. A pool started from a
/// [`PoolStart::Model`](super::PoolStart::Model) has no store: it is always
/// detecting, counts nothing here, and answers every request with
/// [`LifecycleError::NoStore`].
impl PoolHandle {
    fn lifecycle_count(&self, counter: fn(&LifecycleObs) -> &AtomicU64) -> u64 {
        let store = self.store.as_ref();
        store.map_or(0, |store| counter(&store.obs).load(Ordering::SeqCst))
    }

    fn tenant_count(&self, tenant: TenantId, counter: fn(&TenantObs) -> &AtomicU64) -> u64 {
        let tenants = self
            .store
            .as_ref()
            .map_or(&[][..], |store| store.tenants.as_slice());
        let obs = tenants.iter().find(|(id, _)| *id == tenant);
        obs.map_or(0, |(_, obs)| counter(obs).load(Ordering::SeqCst))
    }

    /// Whether `tenant` has a model and is classifying (true), or is in
    /// bootstrap collect-only mode (false). False for a tenant the pool
    /// does not have; true on a pool started from a model.
    pub fn is_detecting(&self, tenant: TenantId) -> bool {
        self.store.is_none() || self.generation(tenant) > 0
    }

    /// `tenant`'s model generation: 0 in bootstrap, 1 after promotion,
    /// one more for every swap since (restored from the checkpoint).
    /// 0 on a pool started from a model.
    pub fn generation(&self, tenant: TenantId) -> u64 {
        self.tenant_count(tenant, |obs| &obs.generation)
    }

    /// Hot swaps of `tenant`'s model triggered by the drift detector (0
    /// without an [`AdaptPolicy`]; manual retrains and bootstrap
    /// promotion are not counted here).
    pub fn drift_swaps(&self, tenant: TenantId) -> u64 {
        self.tenant_count(tenant, |obs| &obs.drift_swaps)
    }

    /// Adapt windows of `tenant` that closed with enough samples to
    /// contribute drift evidence (0 without an [`AdaptPolicy`]).
    pub fn adapt_windows(&self, tenant: TenantId) -> u64 {
        self.tenant_count(tenant, |obs| &obs.adapt_windows)
    }

    /// Checkpoints durably written so far.
    pub fn checkpoints_written(&self) -> u64 {
        self.lifecycle_count(|obs| &obs.checkpoints_written)
    }

    /// The most recent background checkpoint-write failure, if any.
    /// (Explicit [`PoolHandle::request_checkpoint`] calls surface their
    /// errors directly.)
    pub fn last_checkpoint_error(&self) -> Option<LifecycleError> {
        self.store.as_ref()?.obs.last_error.lock().clone()
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
        command: impl FnOnce(Sender<Result<T, LifecycleError>>) -> PoolCommand,
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

    /// Request a checkpoint; the reply carries its generation once it is
    /// durably on disk, or [`LifecycleError::Bootstrapping`] while no
    /// tenant has a model, [`LifecycleError::Checkpoint`] if the write
    /// failed, [`LifecycleError::NoStore`] or [`LifecycleError::PoolClosed`].
    /// Commands are applied at the next batch boundary (or at end of
    /// stream), so an idle pool replies only after the next batch — send
    /// an empty batch to nudge it if needed.
    pub fn request_checkpoint(&self) -> Receiver<Result<u64, LifecycleError>> {
        self.request(PoolCommand::Checkpoint)
    }

    /// Request a hot swap of `tenant`'s model, retrained from its recent
    /// synopsis window, applied at the next batch boundary like
    /// [`PoolHandle::request_checkpoint`]. The reply is refused with
    /// [`LifecycleError::InsufficientData`] or
    /// [`LifecycleError::UnstableModel`] by the gate,
    /// [`LifecycleError::UnknownTenant`], [`LifecycleError::NoStore`] or
    /// [`LifecycleError::PoolClosed`].
    pub fn request_retrain(
        &self,
        tenant: TenantId,
    ) -> Receiver<Result<SwapReport, LifecycleError>> {
        self.request(|reply| PoolCommand::Retrain(tenant, reply))
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
    #[cfg(any(test, feature = "testkit"))]
    let mut fail_first = cfg.checkpoint_fail_first;
    for (checkpoint, reply) in jobs.iter() {
        let started = Instant::now();
        let result = meta_tick(&cfg.meta, MetaStage::Checkpoint, || {
            #[cfg(any(test, feature = "testkit"))]
            if let Some(stall) = cfg.checkpoint_stall {
                std::thread::sleep(stall);
            }
            let mut attempt = 0u32;
            loop {
                #[cfg(any(test, feature = "testkit"))]
                let saved = if fail_first > 0 {
                    fail_first -= 1;
                    Err(CheckpointError::Io(
                        "injected transient write failure".to_owned(),
                    ))
                } else {
                    store.save(&checkpoint).map(|_| ())
                };
                #[cfg(not(any(test, feature = "testkit")))]
                let saved = store.save(&checkpoint).map(|_| ());
                match saved {
                    Ok(()) => break Ok(checkpoint.generation),
                    // Only transient I/O failures are worth a rewrite;
                    // corruption-class errors surface immediately.
                    Err(CheckpointError::Io(_)) if attempt < CHECKPOINT_RETRIES => {
                        attempt += 1;
                        obs.checkpoint_retries.fetch_add(1, Ordering::SeqCst);
                        let delay = checkpoint_retry_delay(attempt, checkpoint.generation);
                        std::thread::sleep(delay);
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

/// A tenant's checkpointed shards as `workers` detectors: one to one, or
/// — when the worker count changed since — merged and re-partitioned
/// along this pool's own routing, so every (host, stage) window lands on
/// the shard that will keep feeding it.
fn restore_shards(
    section: TenantCheckpoint,
    interner: &Arc<SignatureInterner>,
    config: DetectorConfig,
    workers: usize,
) -> Vec<AnomalyDetector> {
    if section.shards.len() == workers {
        return section.shards;
    }
    match AnomalyDetector::merge(section.shards) {
        Some(merged) => merged.partition(workers, |host, stage| shard_for(host, stage, workers)),
        None => {
            let (model, compiled) = (&section.model, &section.compiled);
            let fresh = || {
                let (model, compiled) = (model.clone(), compiled.clone());
                AnomalyDetector::with_shared(model, compiled, interner.clone(), config)
            };
            (0..workers).map(|_| fresh()).collect()
        }
    }
}

/// Open the checkpoint store in `dir` for a pool of `workers` shard slots
/// per tenant and start its checkpoint writer. The newest checkpoint that
/// decodes gives the pool its interner, and every configured tenant with
/// a section there its model, generation and windows; a tenant without
/// one bootstraps collect-only detectors, and a section for a tenant no
/// longer configured is ignored. Without a checkpoint every tenant
/// bootstraps on a fresh interner. Returns the detectors in slot order
/// (tenant by tenant), the router's lifecycle state and the handle's
/// side of the store.
pub(super) fn open_store(
    dir: PathBuf,
    lifecycle: LifecycleConfig,
    config: DetectorConfig,
    workers: usize,
) -> Result<(Vec<AnomalyDetector>, RouterLifecycle, Store), LifecycleError> {
    // Refuse a lifecycle no tenant could live under: a ring smaller than
    // a retrain needs never trains, an adapt window of zero never closes.
    let (window, need) = (lifecycle.retrain_window, lifecycle.min_retrain_samples);
    if (window as u64) < need {
        return Err(ConfigError::RetrainWindowTooSmall { window, need }.into());
    }
    if matches!(&lifecycle.adapt, Some(p) if p.window == SimDuration::ZERO) {
        return Err(ConfigError::ZeroWindow.into());
    }
    let store = CheckpointStore::create(dir, KEEP_CHECKPOINTS)?;
    let recovery = store.recover()?;
    let next_generation = store.latest_generation()?.map_or(0, |g| g + 1);
    let rejected = recovery.rejected;
    let (recovered_generation, interner, mut sections) = match recovery.checkpoint {
        Some(checkpoint) => (
            Some(checkpoint.generation),
            checkpoint.interner,
            checkpoint.tenants,
        ),
        None => (None, Arc::new(SignatureInterner::new()), Vec::new()),
    };

    let ids = lifecycle.tenants.tenants();
    let mut detectors = Vec::with_capacity(ids.len() * workers);
    let mut tenants = Vec::with_capacity(ids.len());
    for &id in &ids {
        let found = sections.iter().position(|s| s.tenant == id);
        let (generation, model, compiled) = match found.map(|i| sections.swap_remove(i)) {
            Some(section) => {
                let (model, compiled) = (section.model.clone(), section.compiled.clone());
                let generation = section.generation.max(1);
                detectors.extend(restore_shards(section, &interner, config, workers));
                (generation, model, compiled)
            }
            None => {
                // Bootstrap: collect-only detectors; the placeholder
                // model never classifies anything and is replaced at
                // promotion.
                for _ in 0..workers {
                    detectors.push(AnomalyDetector::collecting(interner.clone(), config)?);
                }
                let model = Arc::new(ModelBuilder::new().build(ModelConfig::default()));
                let compiled = Arc::new(model.compile(&interner));
                (0, model, compiled)
            }
        };
        let obs = Arc::new(TenantObs {
            generation: AtomicU64::new(generation),
            ..TenantObs::default()
        });
        let quantile = ModelConfig::default().duration_percentile;
        let adapt = lifecycle
            .adapt
            .clone()
            .map(|p| AdaptState::new(p, quantile, obs.clone()));
        tenants.push(TenantLifecycle {
            id,
            model,
            compiled,
            generation,
            ring: VecDeque::new(),
            seen: 0,
            next_attempt: lifecycle.promote_after,
            adapt,
            obs,
        });
    }

    let obs = Arc::new(LifecycleObs {
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
    let store = Store {
        control: control_tx,
        writer,
        obs: obs.clone(),
        tenants: tenants.iter().map(|t| (t.id, t.obs.clone())).collect(),
        recovered_generation,
        rejected,
    };
    let router_lifecycle = RouterLifecycle {
        hosts: lifecycle.tenants.host_table(&ids),
        default_tenant: ids.binary_search(&TenantId::DEFAULT).unwrap_or(0),
        cfg: lifecycle,
        control_rx,
        writer_tx,
        interner,
        generation: next_generation,
        since_checkpoint: 0,
        workers,
        tenants,
    };
    Ok((detectors, router_lifecycle, store))
}

#[cfg(test)]
mod tests {
    use super::super::{spawn_analyzer_pool, PoolStart, SupervisorConfig};
    use super::*;
    use crate::batch::SynopsisBatch;
    use crate::detector::AnomalyKind;
    use crate::synopsis::TaskSynopsis;
    use crate::testkit::{event_keys, model, soa, synopsis_on, TempDir};

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

    /// The value of the unlabelled series `name` in a scrape of `pool`'s
    /// metrics, `None` when the pool exports no such series.
    fn scrape(pool: &PoolHandle, name: &str) -> Option<i64> {
        let registry = Registry::new();
        pool.register_metrics(&registry);
        let text = registry.render();
        let sample = text
            .lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))?;
        Some(sample.parse().unwrap())
    }

    /// A router lifecycle as a bootstrapping one-tenant pool would start
    /// with, its channels leading nowhere.
    fn router_lifecycle(cfg: LifecycleConfig) -> RouterLifecycle {
        let interner = Arc::new(SignatureInterner::new());
        let model = Arc::new(ModelBuilder::new().build(ModelConfig::default()));
        let tenant = TenantLifecycle {
            id: TenantId::DEFAULT,
            compiled: Arc::new(model.compile(&interner)),
            model,
            generation: 0,
            ring: VecDeque::new(),
            seen: 0,
            next_attempt: u64::MAX,
            adapt: None,
            obs: Arc::default(),
        };
        RouterLifecycle {
            cfg,
            control_rx: unbounded().1,
            writer_tx: unbounded().0,
            interner,
            generation: 0,
            since_checkpoint: 0,
            workers: 1,
            hosts: Vec::new(),
            default_tenant: 0,
            tenants: vec![tenant],
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
                assert!(lifecycle.tenants[0].ring.len() <= retrain_window);
            }
            assert_eq!(lifecycle.tenants[0].seen, 10_000);
            assert_eq!(lifecycle.tenants[0].ring.len(), retrain_window);
        }
    }

    #[test]
    fn a_lifecycle_no_tenant_could_live_under_is_refused_at_spawn() {
        let dir = TempDir::new("lifecycle");
        let start = |lifecycle| {
            let start = PoolStart::Store {
                dir: dir.path().into(),
                lifecycle,
            };
            let (config, supervisor) = (DetectorConfig::default(), SupervisorConfig::default());
            spawn_analyzer_pool(start, config, supervisor, 1, unbounded().1).err()
        };
        // A ring that can never hold a retrain's worth: collect-only
        // forever.
        let (window, need) = (500, 1_000);
        let never_trains = LifecycleConfig {
            retrain_window: window,
            min_retrain_samples: need,
            ..LifecycleConfig::default()
        };
        let refused = ConfigError::RetrainWindowTooSmall { window, need };
        assert_eq!(start(never_trains), Some(LifecycleError::Config(refused)));
        // An adapt window that never closes.
        let never_closes = LifecycleConfig {
            adapt: Some(AdaptPolicy {
                window: SimDuration::ZERO,
                ..AdaptPolicy::default()
            }),
            ..LifecycleConfig::default()
        };
        let refused = ConfigError::ZeroWindow;
        assert_eq!(start(never_closes), Some(LifecycleError::Config(refused)));

        // A ring exactly as large as a retrain needs promotes.
        let (batch_tx, pool) = spawn(
            &dir,
            LifecycleConfig {
                retrain_window: 500,
                min_retrain_samples: 500,
                ..quick_lifecycle()
            },
            1,
        );
        feed(&pool, &batch_tx, &healthy_stream(3, 240));
        drop(batch_tx);
        while pool.events().recv().is_ok() {}
        assert_eq!(pool.generation(TenantId::DEFAULT), 1);
        pool.join().unwrap();
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
        assert!(pool.is_detecting(TenantId::DEFAULT));
        let checkpoint = pool.request_checkpoint().recv().unwrap();
        assert_eq!(checkpoint, Err(LifecycleError::NoStore));
        let retrain = pool.request_retrain(TenantId::DEFAULT).recv().unwrap();
        assert_eq!(retrain, Err(LifecycleError::NoStore));
        assert_eq!(pool.checkpoints_written(), 0);
        assert_eq!(scrape(&pool, "saad_checkpoint_last_generation"), None);
        assert_eq!(pool.recovered_generation(), None);
        assert!(pool.rejected_checkpoints().is_empty());
        drop(batch_tx);
        pool.join().unwrap();
    }

    #[test]
    fn lifecycle_pool_bootstraps_promotes_and_checkpoints() {
        let dir = TempDir::new("lifecycle");
        let (batch_tx, pool) = spawn(&dir, quick_lifecycle(), 2);
        assert!(
            !pool.is_detecting(TenantId::DEFAULT),
            "no checkpoint: must start bootstrap"
        );
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
        assert!(pool.is_detecting(TenantId::DEFAULT), "pool never promoted");
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
            }),
            ..LifecycleConfig::default()
        }
    }

    #[test]
    fn drift_triggers_auto_swap_at_watermark_boundary() {
        let dir = TempDir::new("lifecycle");
        let (batch_tx, pool) = spawn(&dir, adaptive_lifecycle(), 2);
        // Healthy run-in (promotes around minute 1.25, then quiet
        // windows establish the Page-Hinkley null), then a rollout that
        // quintuples every duration.
        feed(&pool, &batch_tx, &scaled_stream(0, 6, 240, 1.0));
        feed(&pool, &batch_tx, &scaled_stream(6, 6, 240, 5.0));
        drop(batch_tx);
        while pool.events().recv().is_ok() {}
        assert!(pool.is_detecting(TenantId::DEFAULT));
        assert!(
            pool.adapt_windows(TenantId::DEFAULT) > 0,
            "adapt windows never closed with evidence"
        );
        assert!(
            pool.drift_swaps(TenantId::DEFAULT) >= 1,
            "sustained rollout drift must trigger an auto-swap \
             (windows evaluated: {})",
            pool.adapt_windows(TenantId::DEFAULT)
        );
        pool.join().unwrap();
    }

    #[test]
    fn quiet_traffic_never_drift_swaps() {
        let dir = TempDir::new("lifecycle");
        let (batch_tx, pool) = spawn(&dir, adaptive_lifecycle(), 2);
        feed(&pool, &batch_tx, &scaled_stream(0, 12, 240, 1.0));
        drop(batch_tx);
        while pool.events().recv().is_ok() {}
        assert!(pool.is_detecting(TenantId::DEFAULT));
        assert!(
            pool.adapt_windows(TenantId::DEFAULT) > 0,
            "quiet windows must still be evaluated"
        );
        assert_eq!(
            pool.drift_swaps(TenantId::DEFAULT),
            0,
            "stationary traffic must not trigger drift swaps"
        );
        pool.join().unwrap();
    }

    #[test]
    fn checkpoint_is_rejected_in_bootstrap_mode() {
        let dir = TempDir::new("lifecycle");
        let (batch_tx, pool) = spawn(&dir, quick_lifecycle(), 2);
        let reply = pool.request_checkpoint();
        batch_tx.send(SynopsisBatch::new()).unwrap(); // nudge the batch boundary
        assert_eq!(reply.recv().unwrap(), Err(LifecycleError::Bootstrapping));
        let retrain = pool.request_retrain(TenantId::DEFAULT);
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
        let dir = TempDir::new("lifecycle");
        let stream = healthy_stream(3, 240);
        let seen = stream.len() as u64;
        {
            let (batch_tx, pool) = spawn(&dir, quick_lifecycle(), 2);
            feed(&pool, &batch_tx, &stream);
            drop(batch_tx);
            while pool.events().recv().is_ok() {}
            assert!(pool.is_detecting(TenantId::DEFAULT));
            pool.join().unwrap();
        }
        // Same worker count: shard-for-shard restore.
        {
            let (batch_tx, pool) = spawn(&dir, quick_lifecycle(), 2);
            assert!(
                pool.is_detecting(TenantId::DEFAULT),
                "recovered pool must skip bootstrap"
            );
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
            assert!(pool.is_detecting(TenantId::DEFAULT));
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
        let dir = TempDir::new("lifecycle");
        let (batch_tx, pool) = spawn(&dir, quick_lifecycle(), 2);
        feed(&pool, &batch_tx, &healthy_stream(2, 240));
        wait_processed(&pool, 480);
        let reply = pool.request_checkpoint();
        batch_tx.send(SynopsisBatch::new()).unwrap();
        let generation = reply.recv().unwrap().expect("checkpoint failed");
        // Durable right now — not merely queued.
        let store = CheckpointStore::create(dir.path(), 3).unwrap();
        assert!(store.load(generation).is_ok());
        assert_eq!(
            scrape(&pool, "saad_checkpoint_last_generation"),
            Some(generation as i64)
        );
        assert_eq!(pool.checkpoints_written(), 1);
        assert_eq!(pool.last_checkpoint_error(), None);
        drop(batch_tx);
        while pool.events().recv().is_ok() {}
        pool.join().unwrap();
    }

    #[test]
    fn transient_checkpoint_write_failures_are_retried_and_counted() {
        let dir = TempDir::new("lifecycle");
        let (batch_tx, pool) = spawn(
            &dir,
            LifecycleConfig {
                // Every retry is needed; the last one writes.
                checkpoint_fail_first: CHECKPOINT_RETRIES,
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
        let retries = i64::from(CHECKPOINT_RETRIES);
        assert_eq!(
            scrape(&pool, "saad_checkpoint_retries_total"),
            Some(retries),
            "each failed attempt counts"
        );
        assert_eq!(pool.checkpoints_written(), 1);
        assert_eq!(pool.last_checkpoint_error(), None);
        drop(batch_tx);
        while pool.events().recv().is_ok() {}
        pool.join().unwrap();
    }

    #[test]
    fn exhausted_checkpoint_retries_surface_the_io_error() {
        let dir = TempDir::new("lifecycle");
        let (batch_tx, pool) = spawn(
            &dir,
            LifecycleConfig {
                // One injected failure more than 1 initial try + the
                // retries: a further retry would have written.
                checkpoint_fail_first: CHECKPOINT_RETRIES + 1,
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
        let retries = i64::from(CHECKPOINT_RETRIES);
        assert_eq!(
            scrape(&pool, "saad_checkpoint_retries_total"),
            Some(retries),
            "retries stop at the cap"
        );
        assert_eq!(pool.checkpoints_written(), 0);
        let store = CheckpointStore::create(dir.path(), 3).unwrap();
        assert_eq!(
            store.latest_generation().unwrap(),
            None,
            "nothing reached the disk"
        );
        drop(batch_tx);
        while pool.events().recv().is_ok() {}
        pool.join().unwrap();
    }

    #[test]
    fn hot_swap_loses_and_double_counts_nothing_under_load() {
        let dir = TempDir::new("lifecycle");
        let (batch_tx, pool) = spawn(&dir, quick_lifecycle(), 3);
        let stream = healthy_stream(4, 240);
        feed(&pool, &batch_tx, &stream[..720]);
        wait_processed(&pool, 720);
        // Mid-stream explicit retrain → hot swap broadcast to all shards.
        let reply = pool.request_retrain(TenantId::DEFAULT);
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

    /// Hosts 0 and 1 in tenants 1 and 2; everyone else in the default.
    fn two_tenants() -> TenantRouter {
        let mut router = TenantRouter::new();
        router.assign(HostId(0), TenantId(1));
        router.assign(HostId(1), TenantId(2));
        router
    }

    /// 240 tasks a minute of signature [1, 2] on `host` alone, from minute
    /// `from` for `mins` minutes.
    fn host_stream(host: u16, from: u64, mins: u64) -> Vec<TaskSynopsis> {
        let mut out = Vec::new();
        for minute in from..from + mins {
            for i in 0..240u64 {
                let uid = minute * 240 + i;
                let at = SimTime::from_mins(minute) + SimDuration::from_millis(i * 250);
                let uid_on_host = (u64::from(host) << 32) | uid;
                out.push(synopsis_on(
                    host,
                    &[1, 2],
                    1_000 + (uid % 53) * 5,
                    at,
                    uid_on_host,
                ));
            }
        }
        out
    }

    /// Tasks seen by each tenant's slots of a joined pool.
    fn seen_per_tenant(detectors: &[AnomalyDetector], workers: usize) -> Vec<u64> {
        let chunks = detectors.chunks(workers);
        chunks
            .map(|slots| slots.iter().map(AnomalyDetector::tasks_seen).sum())
            .collect()
    }

    #[test]
    fn a_gap_reaches_the_slots_of_its_hosts_tenant_only() {
        let dir = TempDir::new("lifecycle");
        let lifecycle = LifecycleConfig {
            tenants: two_tenants(),
            ..quick_lifecycle()
        };
        let (batch_tx, pool) = spawn(&dir, lifecycle, 2);
        let mut batch = soa(&host_stream(1, 0, 1)[..10], &pool.interner());
        batch.reveal_gap(HostId(1), 7, SimTime::from_secs(1));
        batch_tx.send(batch).unwrap();
        drop(batch_tx);
        while pool.events().recv().is_ok() {}
        assert_eq!(pool.tasks_lost(), 7);
        let detectors = pool.join().unwrap();
        let lost: Vec<u64> = detectors.iter().map(|d| d.tasks_lost()).collect();
        assert_eq!(lost, [0, 0, 0, 0, 7, 7], "host 1 is tenant 2's");
    }

    #[test]
    fn tenants_promote_independently() {
        let dir = TempDir::new("lifecycle");
        let lifecycle = LifecycleConfig {
            tenants: two_tenants(),
            ..quick_lifecycle()
        };
        let (batch_tx, pool) = spawn(&dir, lifecycle, 2);
        assert!(!pool.is_detecting(TenantId(1)));
        feed(&pool, &batch_tx, &host_stream(0, 0, 3));
        let unknown = pool.request_retrain(TenantId(9));
        batch_tx.send(SynopsisBatch::new()).unwrap();
        let refused = unknown.recv().unwrap();
        assert_eq!(refused, Err(LifecycleError::UnknownTenant(TenantId(9))));
        drop(batch_tx);
        while pool.events().recv().is_ok() {}
        assert!(pool.is_detecting(TenantId(1)), "tenant 1 promoted");
        assert!(!pool.is_detecting(TenantId(2)), "tenant 2 saw no traffic");
        assert_eq!(pool.generation(TenantId(1)), 1);
        assert_eq!(pool.generation(TenantId(2)), 0);
        assert!(!pool.is_detecting(TenantId(9)));
        // Tenants × workers slots, tenant by tenant; only tenant 1's
        // left bootstrap.
        let detectors = pool.join().unwrap();
        assert_eq!(seen_per_tenant(&detectors, 2), [0, 720, 0]);
        let collecting: Vec<bool> = detectors.iter().map(|d| d.is_collect_only()).collect();
        assert_eq!(collecting, [true, true, false, false, true, true]);
        // The shutdown checkpoint holds the one tenant with a model.
        let store = CheckpointStore::create(dir.path(), 3).unwrap();
        let checkpoint = store.recover().unwrap().checkpoint.unwrap();
        let sections: Vec<_> = checkpoint.tenants.iter().map(|t| t.tenant).collect();
        assert_eq!(sections, [TenantId(1)]);
    }

    /// Metric families in a rendering, from its `# TYPE` lines.
    fn families(text: &str) -> Vec<&str> {
        let names = text.lines().filter_map(|l| l.strip_prefix("# TYPE "));
        let mut names: Vec<&str> = names.filter_map(|l| l.split(' ').next()).collect();
        names.sort_unstable();
        names
    }

    #[test]
    fn metrics_render_with_tenant_labels() {
        for (tenants, labelled) in [(TenantRouter::new(), 1), (two_tenants(), 3)] {
            let dir = TempDir::new("lifecycle");
            let lifecycle = LifecycleConfig {
                tenants,
                ..quick_lifecycle()
            };
            let (batch_tx, pool) = spawn(&dir, lifecycle, 1);
            let registry = Registry::new();
            pool.register_metrics(&registry);
            feed(&pool, &batch_tx, &host_stream(0, 0, 3));
            drop(batch_tx);
            while pool.events().recv().is_ok() {}
            let text = registry.render();
            saad_obs::validate_text(&text).unwrap();
            // The pool's and the store's series, and the tenant family;
            // no unlabelled drift counter.
            let mut expected = vec![
                "saad_checkpoint_last_generation",
                "saad_checkpoint_retries_total",
                "saad_checkpoint_write_latency_us",
                "saad_checkpoints_written_total",
                "saad_pool_batches_routed_total",
                "saad_pool_detecting",
                "saad_pool_processed_total",
                "saad_pool_restarts_total",
                "saad_pool_shard_events_total",
                "saad_pool_shard_late_total",
                "saad_pool_shard_processed_total",
                "saad_pool_shard_replay_tail",
                "saad_pool_shard_snapshots_total",
                "saad_pool_shard_watermark_lag_us",
                "saad_pool_skipped_total",
                "saad_pool_snapshot_us",
                "saad_pool_tasks_lost_total",
                "saad_pool_watermark_us",
                "saad_tenant_adapt_windows_total",
                "saad_tenant_drift_swaps_total",
                "saad_tenant_model_generation",
                "saad_tenant_tasks_observed_total",
            ];
            expected.sort_unstable();
            assert_eq!(families(&text), expected);
            let rows = |name: &str| text.lines().filter(|l| l.starts_with(name)).count();
            assert_eq!(rows("saad_tenant_model_generation{"), labelled, "{text}");
            assert_eq!(rows("saad_pool_shard_processed_total{"), labelled, "{text}");
            let busy = if labelled == 1 { "tenant0" } else { "tenant1" };
            for series in [
                format!("saad_tenant_model_generation{{tenant=\"{busy}\"}} 1"),
                format!("saad_tenant_tasks_observed_total{{tenant=\"{busy}\"}} 720"),
                format!("saad_tenant_drift_swaps_total{{tenant=\"{busy}\"}} 0"),
            ] {
                assert!(text.contains(&series), "{series} missing from {text}");
            }
            if labelled == 3 {
                let idle = "saad_tenant_model_generation{tenant=\"tenant2\"} 0";
                assert!(text.contains(idle), "{text}");
                assert!(text.contains("saad_pool_detecting 1"), "{text}");
            }
            pool.join().unwrap();
        }
    }

    /// What a restored checkpoint is fed in the version 1 test: two more
    /// minutes of healthy traffic, a burst of a never-trained signature on
    /// host 0 and slow tasks on host 1.
    fn fixture_tail() -> Vec<TaskSynopsis> {
        let mut tail = scaled_stream(3, 2, 240, 1.0);
        for i in 0..60u64 {
            let mut s = synopsis_on(0, &[1, 9], 1_000, SimTime::ZERO, 50_000 + i);
            s.start = SimTime::from_mins(4) + SimDuration::from_millis(i * 500);
            tail.push(s);
            let mut s = synopsis_on(1, &[1, 2], 20_000, SimTime::ZERO, 60_000 + i);
            s.start = SimTime::from_mins(3) + SimDuration::from_millis(i * 700);
            tail.push(s);
        }
        tail.sort_by_key(|s| s.start);
        tail
    }

    /// A checkpoint written by a pool of two workers before pools had
    /// tenants (format version 1: three minutes of [`healthy_stream`]),
    /// and what restoring it and feeding it [`fixture_tail`] reported
    /// then: the tasks seen, then each event, sorted.
    const V1: &[u8] = include_bytes!("../../tests/fixtures/checkpoint-v1.ckpt");
    const V1_RESTORED: &str = include_str!("../../tests/fixtures/checkpoint-v1.restored.txt");

    #[test]
    fn a_version_1_checkpoint_restores_as_the_default_tenant() {
        let (seen, expected) = V1_RESTORED.split_once('\n').unwrap();
        let expected: Vec<&str> = expected.lines().collect();
        assert_eq!(expected.len(), 2);
        for workers in [1usize, 2, 3] {
            let dir = TempDir::new("lifecycle");
            std::fs::write(dir.path().join("ckpt-0000000000000000.ckpt"), V1).unwrap();
            let (batch_tx, pool) = spawn(&dir, quick_lifecycle(), workers);
            assert_eq!(pool.recovered_generation(), Some(0));
            assert_eq!(pool.generation(TenantId::DEFAULT), 1);
            feed(&pool, &batch_tx, &fixture_tail());
            drop(batch_tx);
            let events: Vec<_> = pool.events().iter().collect();
            let detectors = pool.join().unwrap();
            let total: u64 = detectors.iter().map(|d| d.tasks_seen()).sum();
            assert_eq!(total.to_string(), seen, "{workers} workers");
            assert_eq!(event_keys(&events), expected, "{workers} workers");
        }
    }

    #[test]
    fn a_tenant_gained_between_runs_bootstraps_beside_the_restored_one() {
        let dir = TempDir::new("lifecycle");
        {
            let (batch_tx, pool) = spawn(&dir, quick_lifecycle(), 2);
            feed(&pool, &batch_tx, &healthy_stream(3, 240));
            drop(batch_tx);
            while pool.events().recv().is_ok() {}
            pool.join().unwrap();
        }
        let mut tenants = TenantRouter::new();
        tenants.assign(HostId(2), TenantId(1));
        let lifecycle = LifecycleConfig {
            tenants,
            ..quick_lifecycle()
        };
        let (batch_tx, pool) = spawn(&dir, lifecycle, 2);
        assert_eq!(pool.generation(TenantId::DEFAULT), 1, "restored");
        assert!(!pool.is_detecting(TenantId(1)), "no section: bootstraps");
        feed(&pool, &batch_tx, &host_stream(2, 3, 3));
        drop(batch_tx);
        while pool.events().recv().is_ok() {}
        assert_eq!(
            pool.generation(TenantId(1)),
            1,
            "promoted on its own traffic"
        );
        assert_eq!(pool.generation(TenantId::DEFAULT), 1, "untouched");
        let detectors = pool.join().unwrap();
        assert_eq!(seen_per_tenant(&detectors, 2), [720, 720]);
    }

    #[test]
    fn a_tenant_lost_between_runs_is_ignored_on_recovery() {
        let dir = TempDir::new("lifecycle");
        {
            let lifecycle = LifecycleConfig {
                tenants: two_tenants(),
                ..quick_lifecycle()
            };
            let (batch_tx, pool) = spawn(&dir, lifecycle, 2);
            let mut stream = host_stream(0, 0, 3);
            stream.extend(host_stream(1, 0, 3));
            stream.sort_by_key(|s| s.start);
            feed(&pool, &batch_tx, &stream);
            drop(batch_tx);
            while pool.events().recv().is_ok() {}
            pool.join().unwrap();
        }
        let store = CheckpointStore::create(dir.path(), 3).unwrap();
        let checkpoint = store.recover().unwrap().checkpoint.unwrap();
        let sections: Vec<_> = checkpoint.tenants.iter().map(|t| t.tenant).collect();
        assert_eq!(sections, [TenantId(1), TenantId(2)]);
        // Tenant 2 is gone: its host falls to the default tenant, which
        // has no section and bootstraps.
        let mut tenants = TenantRouter::new();
        tenants.assign(HostId(0), TenantId(1));
        let lifecycle = LifecycleConfig {
            tenants,
            ..quick_lifecycle()
        };
        let (batch_tx, pool) = spawn(&dir, lifecycle, 3);
        assert_eq!(pool.generation(TenantId(1)), 1, "restored, resharded");
        assert_eq!(pool.generation(TenantId(2)), 0, "ignored");
        assert!(!pool.is_detecting(TenantId::DEFAULT));
        drop(batch_tx);
        while pool.events().recv().is_ok() {}
        let detectors = pool.join().unwrap();
        assert_eq!(seen_per_tenant(&detectors, 3), [0, 720]);
    }
}
