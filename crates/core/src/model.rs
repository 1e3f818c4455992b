//! The learned outlier model (paper §3.3.2).
//!
//! Training is deliberately cheap — counting and percentiles:
//!
//! 1. **Flow outliers.** Per stage, tasks are grouped by signature and
//!    counted. Signatures whose share of the stage's tasks falls below the
//!    rank threshold (99th percentile ⇒ signatures accounting for < 1% of
//!    tasks) are flow outliers.
//! 2. **Performance outliers.** Per (stage, signature) group, the
//!    99th-percentile duration becomes the outlier threshold.
//! 3. **k-fold validation.** Signatures whose duration distribution does
//!    not support a stable threshold (held-out outlier rate far above
//!    nominal) are discarded from performance detection.

use crate::codec::{get_f64, get_u8, get_varint, id16, put_f64, put_varint, DecodeError};
use crate::intern::{SigId, SignatureInterner};
use crate::synopsis::TaskSynopsis;
use crate::{Signature, StageId};
use bytes::{BufMut, Bytes, BytesMut};
use saad_stats::kfold::validate_percentile_threshold;
use saad_stats::percentile_nan_below;
use std::collections::HashMap;
use std::fmt;

/// A configuration parameter outside its valid domain, reported by
/// [`ModelConfig::validate`] and
/// [`crate::detector::DetectorConfig::validate`] instead of a
/// debug-assert, so invalid configurations are rejected identically in
/// release builds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// A percentile parameter was outside `[0, 100]`.
    PercentileOutOfRange {
        /// Which parameter.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The significance level was outside the open interval `(0, 1)`.
    AlphaOutOfRange(f64),
    /// The detection window was zero.
    ZeroWindow,
    /// The number of cross-validation folds was zero.
    ZeroKfold,
    /// The k-fold tolerance factor was not a positive finite number.
    NonPositiveTolerance(f64),
    /// The retrain ring holds fewer synopses than a retrain needs, so no
    /// tenant could ever train.
    RetrainWindowTooSmall {
        /// The ring's capacity.
        window: usize,
        /// Synopses a retrain needs.
        need: u64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::PercentileOutOfRange { name, value } => {
                write!(f, "{name} must be in [0, 100], got {value}")
            }
            ConfigError::AlphaOutOfRange(a) => {
                write!(f, "alpha must be in the open interval (0, 1), got {a}")
            }
            ConfigError::ZeroWindow => f.write_str("detection window must be positive"),
            ConfigError::ZeroKfold => f.write_str("kfold must be at least 1"),
            ConfigError::NonPositiveTolerance(t) => {
                write!(f, "kfold_tolerance must be positive and finite, got {t}")
            }
            ConfigError::RetrainWindowTooSmall { window, need } => write!(
                f,
                "retrain_window {window} is below min_retrain_samples {need}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

fn check_percentile(name: &'static str, value: f64) -> Result<(), ConfigError> {
    if (0.0..=100.0).contains(&value) {
        Ok(())
    } else {
        Err(ConfigError::PercentileOutOfRange { name, value })
    }
}

/// Training configuration. The defaults are the paper's parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelConfig {
    /// Percentile-rank threshold for flow outliers (default 99.0: a
    /// signature covering < 1% of a stage's tasks is a flow outlier).
    pub flow_rank_percentile: f64,
    /// Duration percentile used as the performance-outlier threshold
    /// (default 99.0).
    pub duration_percentile: f64,
    /// Number of cross-validation folds (default 10).
    pub kfold: usize,
    /// Held-out-rate multiple above nominal at which a signature is
    /// discarded from performance detection (default 3.0).
    pub kfold_tolerance: f64,
    /// Minimum training tasks for a signature to participate in
    /// performance detection at all (default 50).
    pub min_signature_samples: usize,
}

impl Default for ModelConfig {
    fn default() -> ModelConfig {
        ModelConfig {
            flow_rank_percentile: 99.0,
            duration_percentile: 99.0,
            kfold: 10,
            kfold_tolerance: 3.0,
            min_signature_samples: 50,
        }
    }
}

impl ModelConfig {
    /// Check every parameter against its valid domain.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found: percentiles must lie in
    /// `[0, 100]`, `kfold` must be at least 1, and `kfold_tolerance` must
    /// be positive and finite.
    pub fn validate(&self) -> Result<(), ConfigError> {
        check_percentile("flow_rank_percentile", self.flow_rank_percentile)?;
        check_percentile("duration_percentile", self.duration_percentile)?;
        if self.kfold == 0 {
            return Err(ConfigError::ZeroKfold);
        }
        if !(self.kfold_tolerance > 0.0 && self.kfold_tolerance.is_finite()) {
            return Err(ConfigError::NonPositiveTolerance(self.kfold_tolerance));
        }
        Ok(())
    }
}

/// Classification of a runtime task against the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskClass {
    /// Known common signature, duration within threshold.
    Normal,
    /// Known but rare signature (flow outlier).
    FlowOutlier,
    /// Signature never seen in training — the strongest flow signal.
    NewSignature,
    /// Common signature but duration above the learned threshold.
    PerformanceOutlier,
}

/// Learned statistics for one (stage, signature) group.
#[derive(Debug, Clone, PartialEq)]
pub struct SignatureModel {
    /// Training task count with this signature.
    pub count: u64,
    /// Share of the stage's training tasks.
    pub share: f64,
    /// Whether the signature is a flow outlier (share below rank cutoff).
    pub is_flow_outlier: bool,
    /// Duration threshold in µs; `None` when the signature was excluded
    /// from performance detection (too few samples or failed k-fold).
    pub duration_threshold_us: Option<f64>,
    /// Fraction of training tasks above the threshold (≈ 1 − percentile).
    pub training_perf_outlier_rate: f64,
}

/// Learned statistics for one stage.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StageModel {
    /// Training task count for the stage.
    pub task_count: u64,
    /// Per-signature models.
    pub signatures: HashMap<Signature, SignatureModel>,
    /// Fraction of training tasks whose signature is a flow outlier.
    pub flow_outlier_rate: f64,
}

impl StageModel {
    /// Signature counts in descending order (the Figure 6 distribution).
    pub fn signature_counts_desc(&self) -> Vec<u64> {
        let mut counts: Vec<u64> = self.signatures.values().map(|s| s.count).collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        counts
    }
}

/// Accumulates a training trace and builds an [`OutlierModel`].
///
/// # Example
///
/// ```
/// use saad_core::model::{ModelBuilder, ModelConfig};
/// use saad_core::synopsis::TaskSynopsis;
///
/// # fn training_trace() -> Vec<TaskSynopsis> { Vec::new() }
/// let mut builder = ModelBuilder::new();
/// for synopsis in training_trace() {
///     builder.observe(&synopsis);
/// }
/// let model = builder.build(ModelConfig::default());
/// assert_eq!(model.stage_count(), 0);
/// ```
#[derive(Debug, Default)]
pub struct ModelBuilder {
    // durations in µs per (stage, signature)
    groups: HashMap<StageId, HashMap<Signature, Vec<f64>>>,
    observed: u64,
}

impl ModelBuilder {
    /// Create an empty builder.
    pub fn new() -> ModelBuilder {
        ModelBuilder::default()
    }

    /// Add one training synopsis.
    pub fn observe(&mut self, synopsis: &TaskSynopsis) {
        let duration_us = synopsis.duration.as_micros() as f64;
        self.observe_parts(synopsis.stage, &synopsis.signature(), duration_us);
    }

    /// Add one training observation from already-destructured parts, for
    /// retrain paths that keep `(stage, signature, duration)` triples
    /// instead of whole synopses.
    pub fn observe_parts(&mut self, stage: StageId, signature: &Signature, duration_us: f64) {
        self.observed += 1;
        let sigs = self.groups.entry(stage).or_default();
        // `entry(sig.clone())` would clone the boxed signature on every
        // observation; clone only when the group is first created.
        match sigs.get_mut(signature) {
            Some(durations) => durations.push(duration_us),
            None => {
                sigs.insert(signature.clone(), vec![duration_us]);
            }
        }
    }

    /// Number of training tasks observed.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Build the model. Consumes nothing; the builder can keep absorbing
    /// a later trace and rebuild.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid (see
    /// [`ModelConfig::validate`]); use [`ModelBuilder::try_build`] for a
    /// typed error instead.
    pub fn build(&self, config: ModelConfig) -> OutlierModel {
        match self.try_build(config) {
            Ok(model) => model,
            Err(e) => panic!("invalid model config: {e}"),
        }
    }

    /// Build the model, first validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when any parameter is outside its valid
    /// domain; no training work happens in that case.
    pub fn try_build(&self, config: ModelConfig) -> Result<OutlierModel, ConfigError> {
        config.validate()?;
        let mut stages = HashMap::with_capacity(self.groups.len());
        for (&stage, sig_groups) in &self.groups {
            let task_count: u64 = sig_groups.values().map(|d| d.len() as u64).sum();
            let rare_share_cutoff = 1.0 - config.flow_rank_percentile / 100.0;
            let mut signatures = HashMap::with_capacity(sig_groups.len());
            let mut flow_outlier_tasks = 0u64;
            for (sig, durations) in sig_groups {
                let count = durations.len() as u64;
                let share = count as f64 / task_count as f64;
                let is_flow_outlier = share < rare_share_cutoff;
                if is_flow_outlier {
                    flow_outlier_tasks += count;
                }
                // Performance thresholding only for signatures with enough
                // samples and a k-fold-stable distribution.
                let mut duration_threshold_us = None;
                let mut training_perf_outlier_rate = 0.0;
                if !is_flow_outlier && durations.len() >= config.min_signature_samples {
                    let stable = validate_percentile_threshold(
                        durations,
                        config.kfold,
                        config.duration_percentile,
                    )
                    .map(|o| !o.is_unstable(config.kfold_tolerance))
                    .unwrap_or(false);
                    if stable {
                        // NaN-safe: a corrupt duration sorts below the
                        // threshold instead of panicking a release-path
                        // retrain (NaN→below, matching `classify_batch`).
                        let threshold = percentile_nan_below(durations, config.duration_percentile)
                            .expect("non-empty group");
                        let above = durations.iter().filter(|&&d| d > threshold).count() as f64;
                        duration_threshold_us = Some(threshold);
                        training_perf_outlier_rate = above / durations.len() as f64;
                    }
                }
                signatures.insert(
                    sig.clone(),
                    SignatureModel {
                        count,
                        share,
                        is_flow_outlier,
                        duration_threshold_us,
                        training_perf_outlier_rate,
                    },
                );
            }
            stages.insert(
                stage,
                StageModel {
                    task_count,
                    signatures,
                    flow_outlier_rate: flow_outlier_tasks as f64 / task_count as f64,
                },
            );
        }
        Ok(OutlierModel { stages, config })
    }
}

impl Extend<TaskSynopsis> for ModelBuilder {
    fn extend<T: IntoIterator<Item = TaskSynopsis>>(&mut self, iter: T) {
        for s in iter {
            self.observe(&s);
        }
    }
}

/// The trained classifier: labels runtime tasks normal or outlier.
#[derive(Debug, Clone, PartialEq)]
pub struct OutlierModel {
    stages: HashMap<StageId, StageModel>,
    config: ModelConfig,
}

impl OutlierModel {
    /// Classify one runtime task on the maps: the reference
    /// [`CompiledModel::classify`] is held to (`testkit` feature).
    #[cfg(any(test, feature = "testkit"))]
    pub fn classify(&self, f: &crate::testkit::FeatureVector) -> TaskClass {
        let Some(stage) = self.stages.get(&f.stage) else {
            // A whole stage never seen in training: every signature is new.
            return TaskClass::NewSignature;
        };
        let Some(sig) = stage.signatures.get(&f.signature) else {
            return TaskClass::NewSignature;
        };
        if sig.is_flow_outlier {
            return TaskClass::FlowOutlier;
        }
        if let Some(threshold) = sig.duration_threshold_us {
            if f.duration_us > threshold {
                return TaskClass::PerformanceOutlier;
            }
        }
        TaskClass::Normal
    }

    /// The training configuration the model was built with.
    pub fn config(&self) -> ModelConfig {
        self.config
    }

    /// Per-stage model, if the stage appeared in training.
    pub fn stage(&self, stage: StageId) -> Option<&StageModel> {
        self.stages.get(&stage)
    }

    /// All trained stages.
    pub fn stages(&self) -> impl Iterator<Item = (StageId, &StageModel)> + '_ {
        self.stages.iter().map(|(&s, m)| (s, m))
    }

    /// Number of trained stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Training flow-outlier proportion for a stage (0 if untrained).
    pub fn flow_outlier_rate(&self, stage: StageId) -> f64 {
        self.stages.get(&stage).map_or(0.0, |s| s.flow_outlier_rate)
    }

    /// Training performance-outlier proportion for a (stage, signature)
    /// group; `None` when the group is not performance-eligible.
    #[cfg(test)]
    pub fn perf_outlier_rate(&self, stage: StageId, signature: &Signature) -> Option<f64> {
        let sig = self.stages.get(&stage)?.signatures.get(signature)?;
        sig.duration_threshold_us
            .map(|_| sig.training_perf_outlier_rate)
    }

    /// Compile the model into dense [`SigId`]-indexed tables.
    ///
    /// Every training signature is interned into `interner`; the
    /// resulting [`CompiledModel`] classifies with two array indexes and
    /// a float compare — no hashing, no locks — and is immutable, so it
    /// can be shared across analyzer shards behind an `Arc`. Signatures
    /// interned *after* compilation get ids beyond the compiled tables
    /// and classify as [`TaskClass::NewSignature`], exactly like a
    /// signature the model's maps do not hold.
    pub fn compile(&self, interner: &SignatureInterner) -> CompiledModel {
        let p0_floor = 1.0 - self.config.duration_percentile / 100.0;
        // Intern everything first: table sizes depend on the final id
        // range.
        let mut entries: Vec<(StageId, Vec<(SigId, CompiledSig)>)> = self
            .stages
            .iter()
            .map(|(&stage, sm)| {
                let sigs = sm
                    .signatures
                    .iter()
                    .map(|(sig, s)| {
                        let id = interner.intern(sig);
                        let compiled = if s.is_flow_outlier {
                            CompiledSig::Flow
                        } else if let Some(threshold_us) = s.duration_threshold_us {
                            CompiledSig::Perf {
                                threshold_us,
                                p0: s.training_perf_outlier_rate.max(p0_floor),
                                slot: 0,
                            }
                        } else {
                            CompiledSig::Normal
                        };
                        (id, compiled)
                    })
                    .collect();
                (stage, sigs)
            })
            .collect();
        let sig_table_len = interner.capacity();
        let stage_table_len = entries
            .iter()
            .map(|&(stage, _)| stage.0 as usize + 1)
            .max()
            .unwrap_or(0);
        let mut stages: Vec<Option<CompiledStage>> = Vec::new();
        stages.resize_with(stage_table_len, || None);
        for (stage, sigs) in entries.drain(..) {
            let mut table = vec![CompiledSig::New; sig_table_len];
            for (id, compiled) in sigs {
                table[id.0 as usize] = compiled;
            }
            // Every performance-eligible signature gets the next dense
            // slot of its stage, in id order.
            let mut slots = Vec::new();
            for (id, entry) in table.iter_mut().enumerate() {
                if let CompiledSig::Perf { p0, slot, .. } = entry {
                    *slot = slots.len() as u32;
                    slots.push((SigId(id as u32), *p0));
                }
            }
            stages[stage.0 as usize] = Some(CompiledStage {
                sigs: table.into_boxed_slice(),
                slots: slots.into_boxed_slice(),
                flow_outlier_rate: self.flow_outlier_rate(stage),
            });
        }

        // Flatten into the branch-free batch-classify tables: one row of
        // `sig_cap + 1` entries per trained stage (the trailing entry
        // catches ids interned after compilation), plus a shared all-New
        // fallback row at offset 0 for untrained / out-of-range stages.
        // Every entry is `(threshold, class-if-below, class-if-above,
        // slot)`; non-performance entries use an infinite threshold so the
        // compare always picks the below class (NaN durations compare
        // false too, matching the oracle's `duration > threshold` test),
        // and carry no slot.
        let row_len = sig_table_len + 1;
        let trained = stages.iter().filter(|s| s.is_some()).count();
        let mut flat = FlatTables::with_capacity(row_len * (trained + 1));
        for _ in 0..row_len {
            flat.push(CompiledSig::New);
        }
        let mut row_index = vec![0u32; stage_table_len + 1];
        for (stage, entry) in stages.iter().enumerate() {
            if let Some(cs) = entry {
                row_index[stage] = flat.thresholds.len() as u32;
                for &sig in cs.sigs.iter() {
                    flat.push(sig);
                }
                flat.push(CompiledSig::New);
            }
        }

        CompiledModel {
            stages: stages.into_boxed_slice(),
            row_index: row_index.into_boxed_slice(),
            flat_thresholds: flat.thresholds.into_boxed_slice(),
            flat_below: flat.below.into_boxed_slice(),
            flat_above: flat.above.into_boxed_slice(),
            flat_slot: flat.slot.into_boxed_slice(),
            sig_cap: sig_table_len as u32,
        }
    }

    /// Append the model's compact wire form to `buf` (the checkpoint
    /// payload format; see [`crate::store`]). Stages and signatures are
    /// written in sorted order so the encoding is deterministic.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        put_f64(buf, self.config.flow_rank_percentile);
        put_f64(buf, self.config.duration_percentile);
        put_varint(buf, self.config.kfold as u64);
        put_f64(buf, self.config.kfold_tolerance);
        put_varint(buf, self.config.min_signature_samples as u64);
        put_varint(buf, self.stages.len() as u64);
        let mut stages: Vec<(&StageId, &StageModel)> = self.stages.iter().collect();
        stages.sort_unstable_by_key(|(s, _)| **s);
        for (&stage, sm) in stages {
            put_varint(buf, stage.0 as u64);
            put_varint(buf, sm.task_count);
            put_f64(buf, sm.flow_outlier_rate);
            put_varint(buf, sm.signatures.len() as u64);
            let mut sigs: Vec<(&Signature, &SignatureModel)> = sm.signatures.iter().collect();
            sigs.sort_unstable_by_key(|(s, _)| *s);
            for (sig, m) in sigs {
                crate::codec::put_points(buf, sig.points());
                put_varint(buf, m.count);
                put_f64(buf, m.share);
                buf.put_u8(m.is_flow_outlier as u8);
                match m.duration_threshold_us {
                    Some(t) => {
                        buf.put_u8(1);
                        put_f64(buf, t);
                    }
                    None => buf.put_u8(0),
                }
                put_f64(buf, m.training_perf_outlier_rate);
            }
        }
    }

    /// Decode a model previously written with
    /// [`OutlierModel::encode_into`], consuming its bytes from `buf`.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated or malformed input (the
    /// checkpoint store's CRC framing catches corruption before this
    /// runs; these errors guard against logic-level format drift): a
    /// configuration [`ModelConfig::validate`] refuses, a proportion
    /// outside `[0, 1]` or a stage id wider than 16 bits.
    pub fn decode_from(buf: &mut Bytes) -> Result<OutlierModel, DecodeError> {
        let config = ModelConfig {
            flow_rank_percentile: get_f64(buf)?,
            duration_percentile: get_f64(buf)?,
            kfold: get_varint(buf)? as usize,
            kfold_tolerance: get_f64(buf)?,
            min_signature_samples: get_varint(buf)? as usize,
        };
        // Decoded, either would restore cleanly and then panic every shard
        // at its first window close: a percentile of −100 makes every
        // performance p0 2, a NaN rate is a NaN p0.
        config.validate().map_err(|e| {
            DecodeError::LengthOutOfRange(match e {
                ConfigError::PercentileOutOfRange { value, .. } => value.to_bits(),
                ConfigError::NonPositiveTolerance(t) => t.to_bits(),
                _ => config.kfold as u64,
            })
        })?;
        let get_proportion = |buf: &mut Bytes| {
            let p = get_f64(buf)?;
            if (0.0..=1.0).contains(&p) {
                Ok(p)
            } else {
                Err(DecodeError::LengthOutOfRange(p.to_bits()))
            }
        };
        let stage_count = get_varint(buf)?;
        if stage_count > u16::MAX as u64 + 1 {
            return Err(DecodeError::LengthOutOfRange(stage_count));
        }
        let mut stages = HashMap::with_capacity(stage_count as usize);
        for _ in 0..stage_count {
            let stage = StageId(id16(get_varint(buf)?)?);
            let task_count = get_varint(buf)?;
            let flow_outlier_rate = get_proportion(buf)?;
            let sig_count = get_varint(buf)?;
            if sig_count > MAX_MODEL_SIGNATURES {
                return Err(DecodeError::LengthOutOfRange(sig_count));
            }
            let mut signatures = HashMap::with_capacity(sig_count as usize);
            for _ in 0..sig_count {
                let points = crate::codec::get_points(buf)?;
                let sig = Signature::from_points(points);
                let count = get_varint(buf)?;
                let share = get_proportion(buf)?;
                let is_flow_outlier = get_u8(buf)? != 0;
                let duration_threshold_us = if get_u8(buf)? != 0 {
                    Some(get_f64(buf)?)
                } else {
                    None
                };
                let training_perf_outlier_rate = get_proportion(buf)?;
                signatures.insert(
                    sig,
                    SignatureModel {
                        count,
                        share,
                        is_flow_outlier,
                        duration_threshold_us,
                        training_perf_outlier_rate,
                    },
                );
            }
            stages.insert(
                stage,
                StageModel {
                    task_count,
                    signatures,
                    flow_outlier_rate,
                },
            );
        }
        Ok(OutlierModel { stages, config })
    }
}

/// Sanity bound on per-stage signatures accepted by the checkpoint
/// decoder.
const MAX_MODEL_SIGNATURES: u64 = 1 << 24;

/// The flat tables [`OutlierModel::compile`] builds, column by column.
struct FlatTables {
    thresholds: Vec<f64>,
    below: Vec<u8>,
    above: Vec<u8>,
    slot: Vec<u32>,
}

impl FlatTables {
    fn with_capacity(n: usize) -> FlatTables {
        FlatTables {
            thresholds: Vec::with_capacity(n),
            below: Vec::with_capacity(n),
            above: Vec::with_capacity(n),
            slot: Vec::with_capacity(n),
        }
    }

    fn push(&mut self, entry: CompiledSig) {
        let (threshold, lo, hi, slot) = match entry {
            CompiledSig::New => (f64::INFINITY, CLASS_NEW, CLASS_NEW, None),
            CompiledSig::Flow => (f64::INFINITY, CLASS_FLOW, CLASS_FLOW, None),
            CompiledSig::Normal => (f64::INFINITY, CLASS_NORMAL, CLASS_NORMAL, None),
            CompiledSig::Perf {
                threshold_us, slot, ..
            } => (threshold_us, CLASS_NORMAL, CLASS_PERF, Some(slot as usize)),
        };
        self.thresholds.push(threshold);
        self.below.push(lo);
        self.above.push(hi);
        // The class bits stay zero: the classify pass ORs the class in.
        self.slot.push(RowVerdict::new(TaskClass::Normal, slot).0);
    }
}

/// Compiled per-(stage, signature) classification entry.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CompiledSig {
    /// Signature not seen in this stage's training data.
    New,
    /// Trained flow outlier (rare signature).
    Flow,
    /// Trained common signature, excluded from performance detection.
    Normal,
    /// Trained common signature with a stable duration threshold.
    Perf {
        /// Duration threshold in µs.
        threshold_us: f64,
        /// Training outlier proportion, pre-floored at
        /// `1 − duration_percentile/100` (the detector's null rate).
        p0: f64,
        /// The signature's performance-group slot within its stage.
        slot: u32,
    },
}

/// One stage's dense signature table.
#[derive(Debug, Clone, PartialEq)]
struct CompiledStage {
    /// Indexed by `SigId`; ids beyond the table are new signatures.
    sigs: Box<[CompiledSig]>,
    /// `(signature, p0)` of each performance group, indexed by slot.
    slots: Box<[(SigId, f64)]>,
    flow_outlier_rate: f64,
}

/// A dense, read-only compilation of an [`OutlierModel`].
///
/// Produced by [`OutlierModel::compile`]; classification is two array
/// indexes and a float compare. Immutable and `Sync` — share it across
/// analyzer shards with `Arc`.
///
/// # Example
///
/// ```
/// use saad_core::intern::SignatureInterner;
/// use saad_core::model::{ModelBuilder, ModelConfig, TaskClass};
/// use saad_core::{Signature, StageId};
///
/// let model = ModelBuilder::new().build(ModelConfig::default());
/// let interner = SignatureInterner::new();
/// let compiled = model.compile(&interner);
/// let sig = interner.intern(&Signature::empty());
/// assert_eq!(
///     compiled.classify(StageId(0), sig, 10.0),
///     TaskClass::NewSignature,
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledModel {
    stages: Box<[Option<CompiledStage>]>,
    /// Flat-table row offset per stage id; the extra trailing slot (and
    /// every untrained stage) points at the shared all-New row 0.
    row_index: Box<[u32]>,
    /// Concatenated per-stage rows of `sig_cap + 1` duration thresholds
    /// (infinite for entries without a performance threshold).
    flat_thresholds: Box<[f64]>,
    /// Class code when `duration <= threshold`, parallel to
    /// `flat_thresholds`.
    flat_below: Box<[u8]>,
    /// Class code when `duration > threshold`, parallel to
    /// `flat_thresholds`.
    flat_above: Box<[u8]>,
    /// The entry's [`RowVerdict`] with class bits zero: its performance
    /// slot, or none. Parallel to `flat_thresholds`.
    flat_slot: Box<[u32]>,
    /// Interner capacity at compile time; sig ids at or beyond this
    /// clamp to each row's trailing all-New entry.
    sig_cap: u32,
}

/// 2-bit class codes used by the flat tables and [`VerdictMask`].
const CLASS_NORMAL: u8 = 0;
const CLASS_FLOW: u8 = 1;
const CLASS_NEW: u8 = 2;
const CLASS_PERF: u8 = 3;

impl TaskClass {
    /// The 2-bit code used in [`VerdictMask`] words.
    const fn code(self) -> u8 {
        match self {
            TaskClass::Normal => CLASS_NORMAL,
            TaskClass::FlowOutlier => CLASS_FLOW,
            TaskClass::NewSignature => CLASS_NEW,
            TaskClass::PerformanceOutlier => CLASS_PERF,
        }
    }

    const fn from_code(code: u8) -> TaskClass {
        match code & 3 {
            CLASS_NORMAL => TaskClass::Normal,
            CLASS_FLOW => TaskClass::FlowOutlier,
            CLASS_NEW => TaskClass::NewSignature,
            _ => TaskClass::PerformanceOutlier,
        }
    }
}

/// One row's verdict as the detector counts it: the class code in the
/// low two bits, and above them the row's performance-group slot plus one
/// (zero: the row counts towards no group). A row has a slot exactly when
/// its `(stage, signature)` is performance-eligible, so only `Normal` and
/// `PerformanceOutlier` rows carry one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RowVerdict(u32);

impl RowVerdict {
    pub(crate) fn new(class: TaskClass, slot: Option<usize>) -> RowVerdict {
        let slot = slot.map_or(0, |s| s + 1);
        assert!(slot < 1 << 30, "a stage has fewer than 2^30 signatures");
        RowVerdict((slot as u32) << 2 | u32::from(class.code()))
    }

    #[inline]
    pub(crate) fn class(self) -> TaskClass {
        TaskClass::from_code(self.0 as u8)
    }

    /// The row's performance-group slot in its stage.
    #[inline]
    pub(crate) fn slot(self) -> Option<usize> {
        (self.0 >> 2).checked_sub(1).map(|s| s as usize)
    }
}

/// Packed classification verdicts from [`CompiledModel::classify_batch`]:
/// 2 bits per element, 32 elements per `u64` word. Reusable — `reset`
/// keeps the word buffer's capacity, so a recycled mask classifies
/// batch after batch without allocating.
///
/// A detector's classify pass also writes each row's class and
/// performance-group slot beside the words, so counting a row indexes
/// neither the model nor the mask's packing again.
#[derive(Debug, Clone, Default)]
pub struct VerdictMask {
    words: Vec<u64>,
    len: usize,
    rows: Vec<RowVerdict>,
}

impl PartialEq for VerdictMask {
    /// The verdicts, not what a detector's pass left beside them.
    fn eq(&self, other: &VerdictMask) -> bool {
        (self.len, &self.words) == (other.len, &other.words)
    }
}

impl VerdictMask {
    /// An empty mask.
    #[must_use]
    pub fn new() -> VerdictMask {
        VerdictMask::default()
    }

    /// Number of verdicts held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask holds no verdicts.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resize for `len` verdicts, zeroing the words but keeping their
    /// capacity.
    pub fn reset(&mut self, len: usize) {
        self.len = len;
        self.words.clear();
        self.words.resize(len.div_ceil(32), 0);
    }

    /// The verdict for element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn get(&self, i: usize) -> TaskClass {
        assert!(i < self.len, "verdict index {i} out of range {}", self.len);
        TaskClass::from_code((self.words[i / 32] >> ((i % 32) * 2)) as u8)
    }

    /// Iterate the verdicts in element order.
    pub fn iter(&self) -> impl Iterator<Item = TaskClass> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Each row's class and slot, as [`CompiledModel::classify_rows`]
    /// wrote them.
    #[inline]
    pub(crate) fn rows(&self) -> &[RowVerdict] {
        &self.rows
    }

    /// Set the verdict for element `i` (`classify_batch` writes whole
    /// words directly).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[cfg(test)]
    pub fn set(&mut self, i: usize, class: TaskClass) {
        assert!(i < self.len, "verdict index {i} out of range {}", self.len);
        let shift = (i % 32) * 2;
        let word = &mut self.words[i / 32];
        *word = (*word & !(0b11 << shift)) | ((class.code() as u64) << shift);
    }
}

impl CompiledModel {
    fn entry(&self, stage: StageId, sig: SigId) -> CompiledSig {
        match self.stages.get(stage.0 as usize) {
            Some(Some(s)) => s
                .sigs
                .get(sig.0 as usize)
                .copied()
                .unwrap_or(CompiledSig::New),
            // Whole stage never seen in training.
            _ => CompiledSig::New,
        }
    }

    /// Classify one runtime task. Agrees exactly with the map classifier
    /// (`OutlierModel::classify`, `testkit` feature) on the model this was
    /// compiled from, ids resolved through the same interner — the oracle
    /// of [`CompiledModel::classify_batch`].
    pub fn classify(&self, stage: StageId, sig: SigId, duration_us: f64) -> TaskClass {
        match self.entry(stage, sig) {
            CompiledSig::New => TaskClass::NewSignature,
            CompiledSig::Flow => TaskClass::FlowOutlier,
            CompiledSig::Normal => TaskClass::Normal,
            CompiledSig::Perf { threshold_us, .. } => {
                if duration_us > threshold_us {
                    TaskClass::PerformanceOutlier
                } else {
                    TaskClass::Normal
                }
            }
        }
    }

    /// Classify a whole structure-of-arrays batch in one branch-free
    /// pass, writing packed verdicts into `out` (which is reset to the
    /// batch length, reusing its buffer).
    ///
    /// Per element the loop does two clamped table indexes and one float
    /// compare — no hashing, no enum matching, no data-dependent
    /// branches — and agrees exactly with [`CompiledModel::classify`] on
    /// every input, including NaN and zero durations (NaN compares
    /// not-above, so it classifies like an in-threshold duration, same
    /// as the oracle).
    ///
    /// # Panics
    ///
    /// Panics if the column slices have different lengths.
    pub fn classify_batch(
        &self,
        stages: &[StageId],
        sigs: &[SigId],
        durations_us: &[f64],
        out: &mut VerdictMask,
    ) {
        self.classify_into::<false>(stages, sigs, durations_us, out);
    }

    /// [`CompiledModel::classify_batch`], and beside the words each row's
    /// [`RowVerdict`]: its class and performance-group slot, read from
    /// the same table entry. The detector's one classify pass.
    pub(crate) fn classify_rows(
        &self,
        stages: &[StageId],
        sigs: &[SigId],
        durations_us: &[f64],
        out: &mut VerdictMask,
    ) {
        self.classify_into::<true>(stages, sigs, durations_us, out);
    }

    #[inline]
    fn classify_into<const ROWS: bool>(
        &self,
        stages: &[StageId],
        sigs: &[SigId],
        durations_us: &[f64],
        out: &mut VerdictMask,
    ) {
        let len = stages.len();
        assert_eq!(sigs.len(), len, "sig column length mismatch");
        assert_eq!(durations_us.len(), len, "duration column length mismatch");
        out.reset(len);
        let rows = &mut out.rows;
        if ROWS {
            rows.clear();
            rows.resize(len, RowVerdict::default());
        }
        let stage_cap = self.row_index.len() - 1;
        let sig_cap = self.sig_cap as usize;
        for (word_idx, word) in out.words.iter_mut().enumerate() {
            let base = word_idx * 32;
            let chunk = (len - base).min(32);
            let mut packed = 0u64;
            for j in 0..chunk {
                let i = base + j;
                let row = self.row_index[(stages[i].0 as usize).min(stage_cap)] as usize;
                let entry = row + (sigs[i].0 as usize).min(sig_cap);
                let above = durations_us[i] > self.flat_thresholds[entry];
                let code = if above {
                    self.flat_above[entry]
                } else {
                    self.flat_below[entry]
                };
                packed |= (code as u64) << (j * 2);
                if ROWS {
                    rows[i] = RowVerdict(self.flat_slot[entry] | u32::from(code));
                }
            }
            *word = packed;
        }
    }

    /// Training flow-outlier proportion for a stage (0 if untrained).
    pub fn flow_outlier_rate(&self, stage: StageId) -> f64 {
        match self.stages.get(stage.0 as usize) {
            Some(Some(s)) => s.flow_outlier_rate,
            _ => 0.0,
        }
    }

    /// Null proportion for the performance test of a (stage, signature)
    /// group — the training outlier rate floored at
    /// `1 − duration_percentile/100` — or `None` when the group is not
    /// performance-eligible.
    pub fn perf_p0(&self, stage: StageId, sig: SigId) -> Option<f64> {
        match self.entry(stage, sig) {
            CompiledSig::Perf { p0, .. } => Some(p0),
            _ => None,
        }
    }

    /// The performance-group slot of a (stage, signature) group, `None`
    /// exactly when [`CompiledModel::perf_p0`] is: what
    /// [`CompiledModel::classify_rows`] writes for it, read from the
    /// per-stage table instead of the flat one.
    pub(crate) fn perf_slot(&self, stage: StageId, sig: SigId) -> Option<usize> {
        match self.entry(stage, sig) {
            CompiledSig::Perf { slot, .. } => Some(slot as usize),
            _ => None,
        }
    }

    /// `(signature, p0)` of each of `stage`'s performance groups, indexed
    /// by slot (in ascending signature id); empty for an untrained stage.
    pub(crate) fn slots(&self, stage: StageId) -> &[(SigId, f64)] {
        match self.stages.get(stage.0 as usize) {
            Some(Some(s)) => &s.slots,
            _ => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::FeatureVector;
    use crate::{HostId, TaskUid};
    use saad_logging::LogPointId;
    use saad_sim::{SimDuration, SimTime};

    fn synopsis(stage: u16, points: &[u16], dur_us: u64, uid: u64) -> TaskSynopsis {
        TaskSynopsis {
            host: HostId(0),
            stage: StageId(stage),
            uid: TaskUid(uid),
            start: SimTime::ZERO,
            duration: SimDuration::from_micros(dur_us),
            log_points: points.iter().map(|&p| (LogPointId(p), 1)).collect(),
        }
    }

    /// Paper Figure 4 population: 99% normal flow at ~10 ms, 0.9% slow
    /// (same flow, 20 ms), 0.1% rare flow with the extra point L3.
    fn figure4_trace() -> Vec<TaskSynopsis> {
        let mut out = Vec::new();
        let mut uid = 0;
        for i in 0..10_000u64 {
            uid += 1;
            if i.is_multiple_of(1000) {
                // 0.1%: rare flow [L1,L2,L3,L4,L5]
                out.push(synopsis(0, &[1, 2, 3, 4, 5], 10_000, uid));
            } else if i.is_multiple_of(100) {
                // ~1% slow: normal flow, double duration
                out.push(synopsis(0, &[1, 2, 4, 5], 20_000, uid));
            } else {
                // normal flow, 10ms +- jitter
                let jitter = (i % 97) * 10;
                out.push(synopsis(0, &[1, 2, 4, 5], 9_500 + jitter, uid));
            }
        }
        out
    }

    fn figure4_model() -> OutlierModel {
        let mut b = ModelBuilder::new();
        for s in figure4_trace() {
            b.observe(&s);
        }
        b.build(ModelConfig::default())
    }

    #[test]
    fn rare_signature_is_flow_outlier() {
        let model = figure4_model();
        let rare = FeatureVector::from(&synopsis(0, &[1, 2, 3, 4, 5], 10_000, 1));
        assert_eq!(model.classify(&rare), TaskClass::FlowOutlier);
    }

    #[test]
    fn common_fast_task_is_normal() {
        let model = figure4_model();
        let normal = FeatureVector::from(&synopsis(0, &[1, 2, 4, 5], 10_000, 1));
        assert_eq!(model.classify(&normal), TaskClass::Normal);
    }

    #[test]
    fn slow_common_task_is_performance_outlier() {
        let model = figure4_model();
        // Far above the p99 of the mixture.
        let slow = FeatureVector::from(&synopsis(0, &[1, 2, 4, 5], 80_000, 1));
        assert_eq!(model.classify(&slow), TaskClass::PerformanceOutlier);
    }

    #[test]
    fn unseen_signature_is_new() {
        let model = figure4_model();
        let new = FeatureVector::from(&synopsis(0, &[1, 9], 10_000, 1));
        assert_eq!(model.classify(&new), TaskClass::NewSignature);
        let unseen_stage = FeatureVector::from(&synopsis(42, &[1], 10, 1));
        assert_eq!(model.classify(&unseen_stage), TaskClass::NewSignature);
    }

    #[test]
    fn flow_outlier_rate_matches_population() {
        let model = figure4_model();
        let rate = model.flow_outlier_rate(StageId(0));
        assert!((rate - 0.001).abs() < 1e-6, "rate={rate}");
    }

    #[test]
    fn rare_signatures_excluded_from_perf_detection() {
        let model = figure4_model();
        let rare_sig = Signature::from_points([1, 2, 3, 4, 5].map(LogPointId));
        assert_eq!(model.perf_outlier_rate(StageId(0), &rare_sig), None);
        // Even an extreme duration with the rare signature is a FLOW
        // outlier, not a performance outlier.
        let task = FeatureVector::from(&synopsis(0, &[1, 2, 3, 4, 5], 10_000_000, 1));
        assert_eq!(model.classify(&task), TaskClass::FlowOutlier);
    }

    #[test]
    fn perf_rate_near_nominal_for_common_signature() {
        let model = figure4_model();
        let sig = Signature::from_points([1, 2, 4, 5].map(LogPointId));
        let rate = model.perf_outlier_rate(StageId(0), &sig).unwrap();
        assert!(rate <= 0.011, "rate={rate}");
        assert!(rate > 0.0, "rate={rate}");
    }

    #[test]
    fn tiny_signature_groups_skip_perf_thresholding() {
        let mut b = ModelBuilder::new();
        // 30 tasks of one signature: below min_signature_samples.
        for uid in 0..30 {
            b.observe(&synopsis(1, &[7], 100 + uid, uid));
        }
        let model = b.build(ModelConfig::default());
        let sig = Signature::from_points([LogPointId(7)]);
        // Not a flow outlier (it is 100% of the stage) but perf-ineligible.
        let f = FeatureVector::from(&synopsis(1, &[7], 1_000_000, 99));
        assert_eq!(model.classify(&f), TaskClass::Normal);
        assert_eq!(model.perf_outlier_rate(StageId(1), &sig), None);
    }

    #[test]
    fn stage_model_exposes_figure6_counts() {
        let model = figure4_model();
        let stage = model.stage(StageId(0)).unwrap();
        let counts = stage.signature_counts_desc();
        assert_eq!(counts.len(), 2); // normal + rare signatures
        assert!(counts[0] > counts[1]);
        assert_eq!(counts.iter().sum::<u64>(), 10_000);
        assert_eq!(stage.task_count, 10_000);
    }

    #[test]
    fn builder_extend_and_observed() {
        let mut b = ModelBuilder::new();
        b.extend(figure4_trace());
        assert_eq!(b.observed(), 10_000);
        assert_eq!(b.build(ModelConfig::default()).stage_count(), 1);
    }

    #[test]
    fn empty_model_classifies_everything_new() {
        let model = ModelBuilder::new().build(ModelConfig::default());
        let f = FeatureVector::from(&synopsis(0, &[1], 5, 1));
        assert_eq!(model.classify(&f), TaskClass::NewSignature);
        assert_eq!(model.stage_count(), 0);
        assert_eq!(model.flow_outlier_rate(StageId(0)), 0.0);
    }

    #[test]
    fn compiled_rates_match_model() {
        let model = figure4_model();
        let interner = SignatureInterner::new();
        let compiled = model.compile(&interner);
        assert_eq!(
            compiled.flow_outlier_rate(StageId(0)),
            model.flow_outlier_rate(StageId(0))
        );
        assert_eq!(compiled.flow_outlier_rate(StageId(42)), 0.0);
        let common = Signature::from_points([1, 2, 4, 5].map(LogPointId));
        let rare = Signature::from_points([1, 2, 3, 4, 5].map(LogPointId));
        let floor = 1.0 - model.config().duration_percentile / 100.0;
        let expected = model
            .perf_outlier_rate(StageId(0), &common)
            .unwrap()
            .max(floor);
        assert_eq!(
            compiled.perf_p0(StageId(0), interner.intern(&common)),
            Some(expected)
        );
        assert_eq!(compiled.perf_p0(StageId(0), interner.intern(&rare)), None);
    }

    #[test]
    fn classify_batch_agrees_with_scalar_classify() {
        let model = figure4_model();
        let interner = SignatureInterner::new();
        let compiled = model.compile(&interner);
        let late = interner.intern(&Signature::from_points([LogPointId(77)]));
        let common = interner.intern(&Signature::from_points([1, 2, 4, 5].map(LogPointId)));
        let rare = interner.intern(&Signature::from_points([1, 2, 3, 4, 5].map(LogPointId)));
        let mut stages = Vec::new();
        let mut sigs = Vec::new();
        let mut durations = Vec::new();
        // 67 elements (spans word boundaries) over every class and edge
        // duration: zero, NaN, infinity, exactly-at-threshold.
        let cases: Vec<(u16, SigId, f64)> = vec![
            (0, common, 10_000.0),
            (0, common, 80_000.0),
            (0, rare, 10_000.0),
            (0, late, 5.0),
            (42, common, 10.0),
            (0, common, 0.0),
            (0, common, f64::NAN),
            (0, common, f64::INFINITY),
            (0, rare, f64::NAN),
            (42, late, f64::NAN),
        ];
        for i in 0..67 {
            let (stage, sig, dur) = cases[i % cases.len()];
            stages.push(StageId(stage));
            sigs.push(sig);
            durations.push(dur);
        }
        let mut mask = VerdictMask::new();
        compiled.classify_batch(&stages, &sigs, &durations, &mut mask);
        assert_eq!(mask.len(), 67);
        for i in 0..67 {
            assert_eq!(
                mask.get(i),
                compiled.classify(stages[i], sigs[i], durations[i]),
                "element {i}"
            );
        }
        // The detector's pass writes the same words, and beside them each
        // row's slot as the per-stage table gives it.
        let mut rows = VerdictMask::new();
        compiled.classify_rows(&stages, &sigs, &durations, &mut rows);
        assert_eq!(rows, mask);
        for (i, row) in rows.rows().iter().enumerate() {
            assert_eq!(row.class(), mask.get(i), "element {i}");
            assert_eq!(
                row.slot(),
                compiled.perf_slot(stages[i], sigs[i]),
                "element {i}"
            );
        }
        assert_eq!(compiled.perf_slot(StageId(0), common), Some(0));
        assert_eq!(compiled.slots(StageId(0))[0].0, common);
        // iter() agrees with get().
        let collected: Vec<TaskClass> = mask.iter().collect();
        assert_eq!(collected.len(), 67);
        assert_eq!(collected[1], TaskClass::PerformanceOutlier);
        // A reused mask resets cleanly between batches.
        compiled.classify_batch(&stages[..3], &sigs[..3], &durations[..3], &mut mask);
        assert_eq!(mask.len(), 3);
        assert_eq!(mask.get(2), TaskClass::FlowOutlier);
    }

    #[test]
    fn verdict_mask_set_round_trips() {
        let mut mask = VerdictMask::new();
        mask.reset(33);
        mask.set(0, TaskClass::PerformanceOutlier);
        mask.set(31, TaskClass::NewSignature);
        mask.set(32, TaskClass::FlowOutlier);
        assert_eq!(mask.get(0), TaskClass::PerformanceOutlier);
        assert_eq!(mask.get(1), TaskClass::Normal);
        assert_eq!(mask.get(31), TaskClass::NewSignature);
        assert_eq!(mask.get(32), TaskClass::FlowOutlier);
        mask.set(0, TaskClass::Normal);
        assert_eq!(mask.get(0), TaskClass::Normal);
    }

    #[test]
    fn signatures_interned_after_compile_classify_as_new() {
        let model = figure4_model();
        let interner = SignatureInterner::new();
        let compiled = model.compile(&interner);
        // Interned only at runtime — id beyond every compiled table.
        let late = interner.intern(&Signature::from_points([LogPointId(77)]));
        assert_eq!(
            compiled.classify(StageId(0), late, 1.0),
            TaskClass::NewSignature
        );
        assert_eq!(compiled.perf_p0(StageId(0), late), None);
    }

    #[test]
    fn model_codec_round_trip_preserves_behavior() {
        let model = figure4_model();
        let mut buf = BytesMut::new();
        model.encode_into(&mut buf);
        let mut bytes = buf.freeze();
        let decoded = OutlierModel::decode_from(&mut bytes).unwrap();
        assert!(bytes.is_empty(), "decoder must consume the full encoding");
        // Deterministic encoding: re-encoding the decoded model is
        // byte-identical, so the two models hold the same state.
        let mut again = BytesMut::new();
        decoded.encode_into(&mut again);
        let mut orig = BytesMut::new();
        model.encode_into(&mut orig);
        assert_eq!(orig, again);
        // And classification agrees on every class of input.
        for s in [
            synopsis(0, &[1, 2, 4, 5], 10_000, 1),
            synopsis(0, &[1, 2, 4, 5], 80_000, 2),
            synopsis(0, &[1, 2, 3, 4, 5], 10_000, 3),
            synopsis(0, &[1, 9], 10_000, 4),
            synopsis(42, &[1], 10, 5),
        ] {
            let f = FeatureVector::from(&s);
            assert_eq!(decoded.classify(&f), model.classify(&f), "case {s:?}");
        }
        assert_eq!(decoded.config(), model.config());
    }

    #[test]
    fn model_codec_rejects_truncation() {
        let model = figure4_model();
        let mut buf = BytesMut::new();
        model.encode_into(&mut buf);
        let full = buf.freeze();
        for len in 0..full.len() {
            let mut prefix = full.slice(0..len);
            assert!(
                OutlierModel::decode_from(&mut prefix).is_err(),
                "prefix of {len} bytes decoded successfully"
            );
        }
        // A stage id no encoder writes is refused, not narrowed onto a
        // real stage: an empty model's bytes with one signature-less stage.
        let one_stage = |id: u64| {
            let mut buf = BytesMut::new();
            ModelBuilder::new()
                .build(ModelConfig::default())
                .encode_into(&mut buf);
            buf.truncate(buf.len() - 1); // the stage count, 0
            [1, id, 0].into_iter().for_each(|v| put_varint(&mut buf, v));
            put_f64(&mut buf, 0.0);
            put_varint(&mut buf, 0);
            OutlierModel::decode_from(&mut buf.freeze())
        };
        assert!(one_stage(7).is_ok());
        assert!(matches!(
            one_stage(70_000),
            Err(DecodeError::LengthOutOfRange(70_000))
        ));
    }

    #[test]
    fn model_decode_rejects_proportions_and_configs_out_of_range() {
        // Hand-written bytes of a model with one stage and one signature.
        // No encoder writes these values; decoded, each would restore
        // cleanly and then panic every shard at its first window close.
        let model = |duration_percentile: f64, flow_rate: f64, share: f64, perf_rate: f64| {
            let mut buf = BytesMut::new();
            put_f64(&mut buf, 99.0);
            put_f64(&mut buf, duration_percentile);
            put_varint(&mut buf, 10);
            put_f64(&mut buf, 3.0);
            put_varint(&mut buf, 50);
            [1, 0, 1_000]
                .into_iter()
                .for_each(|v| put_varint(&mut buf, v));
            put_f64(&mut buf, flow_rate);
            put_varint(&mut buf, 1);
            crate::codec::put_points(&mut buf, &[LogPointId(1), LogPointId(2)]);
            put_varint(&mut buf, 995);
            put_f64(&mut buf, share);
            buf.put_u8(0);
            buf.put_u8(1);
            put_f64(&mut buf, 250.0);
            put_f64(&mut buf, perf_rate);
            OutlierModel::decode_from(&mut buf.freeze())
        };
        let decoded = model(99.0, 0.005, 0.995, 0.01).expect("the valid original");
        assert_eq!(decoded.flow_outlier_rate(StageId(0)), 0.005);
        for (case, result) in [
            ("NaN flow rate", model(99.0, f64::NAN, 0.995, 0.01)),
            ("perf rate 1.5", model(99.0, 0.005, 0.995, 1.5)),
            ("share -0.1", model(99.0, 0.005, -0.1, 0.01)),
            (
                "duration percentile -100",
                model(-100.0, 0.005, 0.995, 0.01),
            ),
        ] {
            let err = result.expect_err(case);
            assert!(
                matches!(err, DecodeError::LengthOutOfRange(_)),
                "{case}: {err:?}"
            );
        }
    }

    #[test]
    fn empty_model_round_trips() {
        let model = ModelBuilder::new().build(ModelConfig::default());
        let mut buf = BytesMut::new();
        model.encode_into(&mut buf);
        let decoded = OutlierModel::decode_from(&mut buf.freeze()).unwrap();
        assert_eq!(decoded.stage_count(), 0);
        assert_eq!(decoded.config(), model.config());
    }

    #[test]
    fn try_build_rejects_invalid_config() {
        let b = ModelBuilder::new();
        let bad_pct = ModelConfig {
            flow_rank_percentile: 101.0,
            ..ModelConfig::default()
        };
        assert_eq!(
            b.try_build(bad_pct).unwrap_err(),
            ConfigError::PercentileOutOfRange {
                name: "flow_rank_percentile",
                value: 101.0
            }
        );
        let nan_pct = ModelConfig {
            duration_percentile: f64::NAN,
            ..ModelConfig::default()
        };
        assert!(matches!(
            b.try_build(nan_pct).unwrap_err(),
            ConfigError::PercentileOutOfRange {
                name: "duration_percentile",
                ..
            }
        ));
        let zero_k = ModelConfig {
            kfold: 0,
            ..ModelConfig::default()
        };
        assert_eq!(b.try_build(zero_k).unwrap_err(), ConfigError::ZeroKfold);
        let bad_tol = ModelConfig {
            kfold_tolerance: 0.0,
            ..ModelConfig::default()
        };
        assert_eq!(
            b.try_build(bad_tol).unwrap_err(),
            ConfigError::NonPositiveTolerance(0.0)
        );
        assert!(b.try_build(ModelConfig::default()).is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid model config")]
    fn build_panics_on_invalid_config() {
        ModelBuilder::new().build(ModelConfig {
            kfold: 0,
            ..ModelConfig::default()
        });
    }

    #[test]
    fn config_error_messages_name_the_parameter() {
        let e = ConfigError::PercentileOutOfRange {
            name: "flow_rank_percentile",
            value: -1.0,
        };
        assert!(e.to_string().contains("flow_rank_percentile"));
        assert!(ConfigError::ZeroWindow.to_string().contains("window"));
        assert!(ConfigError::AlphaOutOfRange(1.5)
            .to_string()
            .contains("1.5"));
    }

    #[test]
    fn multiple_stages_are_independent() {
        let mut b = ModelBuilder::new();
        for uid in 0..200 {
            b.observe(&synopsis(0, &[1], 100, uid));
            b.observe(&synopsis(1, &[2], 100, uid));
        }
        let model = b.build(ModelConfig::default());
        assert_eq!(model.stage_count(), 2);
        // Signature [1] is normal in stage 0 but NEW in stage 1.
        let cross = FeatureVector::from(&synopsis(1, &[1], 100, 9));
        assert_eq!(model.classify(&cross), TaskClass::NewSignature);
    }
}
