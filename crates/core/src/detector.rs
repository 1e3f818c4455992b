//! Windowed anomaly detection (paper §3.3.3).
//!
//! The detector consumes classified tasks and periodically runs one-sided
//! proportion tests at significance α = 0.001, per `(host, stage)`:
//!
//! * **Flow anomaly** — the proportion of flow-outlier tasks (rare or new
//!   signatures) significantly exceeds the training proportion, *or* any
//!   signature never seen in training appears (reported immediately at
//!   window close, no test needed).
//! * **Performance anomaly** — for some trained signature, the proportion
//!   of over-threshold durations significantly exceeds that signature's
//!   training outlier rate.

use crate::batch::SynopsisBatch;
use crate::codec::{get_f64, get_u8, get_varint, id16, put_f64, put_varint, DecodeError};
use crate::fasthash::{FastBuild, FastMap};
use crate::intern::{SigId, SignatureInterner};
use crate::model::{
    CompiledModel, ConfigError, ModelBuilder, ModelConfig, OutlierModel, TaskClass, VerdictMask,
};
use crate::{HostId, Signature, StageId};
use bytes::{BufMut, Bytes, BytesMut};
use saad_sim::{SimDuration, SimTime};
use saad_stats::hypothesis::{one_sided_proportion_test, Alternative};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Detection configuration. Defaults follow the paper: 1-minute windows,
/// α = 0.001.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Width of a detection window in virtual time.
    pub window: SimDuration,
    /// Significance level for both tests.
    pub alpha: f64,
    /// Minimum tasks in a window for the flow test to run.
    pub min_window_tasks: u64,
    /// Minimum tasks of one signature in a window for its performance
    /// test to run.
    pub min_group_tasks: u64,
    /// Cap on distinct new signatures reported per window (the rest are
    /// counted but not enumerated).
    pub max_new_signatures: usize,
}

impl Default for DetectorConfig {
    fn default() -> DetectorConfig {
        DetectorConfig {
            window: SimDuration::from_mins(1),
            alpha: 0.001,
            min_window_tasks: 15,
            min_group_tasks: 6,
            max_new_signatures: 8,
        }
    }
}

impl DetectorConfig {
    /// Check every parameter's domain: the window must be positive and
    /// `alpha` must lie in the open interval `(0, 1)`.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a typed
    /// [`ConfigError`] — the same error type [`ModelConfig::validate`]
    /// uses, so callers handle both uniformly.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.window == SimDuration::ZERO {
            return Err(ConfigError::ZeroWindow);
        }
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            return Err(ConfigError::AlphaOutOfRange(self.alpha));
        }
        Ok(())
    }
}

/// What kind of anomaly an event reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnomalyKind {
    /// Significant excess of rare-signature tasks (the paper's *rare
    /// pattern* flow anomaly).
    FlowRare,
    /// A signature never observed during training (the paper's *new
    /// pattern* flow anomaly, e.g. premature task termination).
    FlowNew(Signature),
    /// Significant excess of over-threshold durations for this signature.
    Performance(Signature),
    /// A host that previously sent synopses has gone quiet for the given
    /// number of detection windows. Emitted by the supervised analyzer's
    /// liveness tracker, not by the statistical tests; the event's stage is
    /// [`crate::StageId::NONE`].
    HostSilent {
        /// Consecutive windows with no data from the host.
        windows: u64,
    },
    /// A window closed while the detector had no trained model (bootstrap
    /// / degraded mode, see [`AnomalyDetector::collecting`]). The event's
    /// `window_tasks` and `completeness` account for exactly how much
    /// data went unclassified, so downstream consumers can tell "no
    /// anomaly" apart from "could not look".
    ModelUnavailable,
}

impl AnomalyKind {
    /// Whether this is a flow anomaly (rare or new).
    pub fn is_flow(&self) -> bool {
        matches!(self, AnomalyKind::FlowRare | AnomalyKind::FlowNew(_))
    }

    /// Whether this is a performance anomaly.
    pub fn is_performance(&self) -> bool {
        matches!(self, AnomalyKind::Performance(_))
    }

    /// Whether this is a liveness event (host silence), as opposed to a
    /// statistical anomaly.
    pub fn is_liveness(&self) -> bool {
        matches!(self, AnomalyKind::HostSilent { .. })
    }

    /// Whether this is a degraded-mode accounting event (window observed
    /// without a model), as opposed to a detected anomaly.
    pub fn is_model_unavailable(&self) -> bool {
        matches!(self, AnomalyKind::ModelUnavailable)
    }
}

impl fmt::Display for AnomalyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnomalyKind::FlowRare => f.write_str("flow anomaly (rare pattern)"),
            AnomalyKind::FlowNew(sig) => write!(f, "flow anomaly (new pattern {sig})"),
            AnomalyKind::Performance(sig) => write!(f, "performance anomaly ({sig})"),
            AnomalyKind::HostSilent { windows } => {
                write!(f, "host silent ({windows} windows with no data)")
            }
            AnomalyKind::ModelUnavailable => {
                f.write_str("model unavailable (window observed without classification)")
            }
        }
    }
}

/// One detected anomaly, attributed to a `(host, stage)` and a window.
#[derive(Debug, Clone, PartialEq)]
pub struct AnomalyEvent {
    /// Host the anomalous stage ran on.
    pub host: HostId,
    /// The anomalous stage.
    pub stage: StageId,
    /// Start of the detection window.
    pub window_start: SimTime,
    /// Anomaly kind and the signature evidence.
    pub kind: AnomalyKind,
    /// p-value of the proportion test (`None` for new-signature events,
    /// which need no test).
    pub p_value: Option<f64>,
    /// Outlier tasks counted in the window (for the relevant test).
    pub outliers: u64,
    /// Total tasks counted in the window (for the relevant test).
    pub window_tasks: u64,
    /// Fraction of the window's data that actually arrived:
    /// `observed / (observed + known-lost)`. `1.0` on an intact link;
    /// lower when the transport reported gaps (see
    /// [`AnomalyDetector::record_loss`]). `0.0` for [`AnomalyKind::HostSilent`].
    pub completeness: f64,
}

#[derive(Debug, Default, Clone)]
struct WindowAccum {
    n: u64,
    rare_flow_outliers: u64,
    new_signature_tasks: u64,
    new_signatures: Vec<SigId>,
    // (interned signature, perf outliers, group n) for each perf-eligible
    // signature, in arrival order. A window holds a handful, so a linear
    // search over dense ids beats hashing, and clearing keeps the vector.
    perf: Vec<(SigId, u64, u64)>,
}

impl WindowAccum {
    /// Count one classified task of `stage`.
    #[inline]
    fn count(
        &mut self,
        class: TaskClass,
        stage: StageId,
        sig: SigId,
        compiled: &CompiledModel,
        max_new_signatures: usize,
    ) {
        self.n += 1;
        match class {
            TaskClass::Normal | TaskClass::PerformanceOutlier => {
                // Track the per-signature performance group when eligible.
                if compiled.is_perf_eligible(stage, sig) {
                    let outlier = u64::from(class == TaskClass::PerformanceOutlier);
                    self.add_group(sig, outlier, 1);
                }
            }
            TaskClass::FlowOutlier => self.rare_flow_outliers += 1,
            TaskClass::NewSignature => {
                self.new_signature_tasks += 1;
                self.enumerate_new(sig, max_new_signatures);
            }
        }
    }

    /// Add `n` tasks, `outliers` of them over threshold, to `sig`'s
    /// performance group.
    #[inline]
    fn add_group(&mut self, sig: SigId, outliers: u64, n: u64) {
        match self.perf.iter_mut().find(|g| g.0 == sig) {
            Some(g) => (g.1, g.2) = (g.1 + outliers, g.2 + n),
            None => self.perf.push((sig, outliers, n)),
        }
    }

    /// List a new signature for the window's report, up to the cap.
    fn enumerate_new(&mut self, sig: SigId, max_new_signatures: usize) {
        if !self.new_signatures.contains(&sig) && self.new_signatures.len() < max_new_signatures {
            self.new_signatures.push(sig);
        }
    }

    /// Empty the accumulator, keeping what its vectors allocated.
    fn clear(&mut self) {
        self.n = 0;
        self.rare_flow_outliers = 0;
        self.new_signature_tasks = 0;
        self.new_signatures.clear();
        self.perf.clear();
    }
}

/// Identity of one detection window: `(host, stage, window index)`.
type WindowKey = (HostId, StageId, u64);

/// The windows of one window index, by `(host, stage)`.
type Bucket = FastMap<(HostId, StageId), WindowAccum>;

/// The open detection windows, indexed by window index first.
///
/// Windows close in index order — everything below the watermark's grace
/// bound at once — so the store keeps one bucket per window index and
/// closing visits only the leading buckets it closes: the work is
/// proportional to the windows closed, never to the windows open. Only the
/// watermark's own index and the one before it are present (a straggler
/// never enters the store, see `AnomalyDetector::account`), so finding an
/// element's bucket is a search over two keys.
///
/// **A window is open while its accumulator has counted a row (`n > 0`).**
/// `windows` counts exactly those, so [`AnomalyDetector::open_windows`] is
/// O(1). Closing recycles rather than frees: the closed windows are tested
/// by reference in key order, then the bucket keeps the accumulators that
/// counted, cleared in place, drops the entries that counted nothing, and
/// waits as `spare` for the next window index to open. A `(host, stage)`
/// that reports window after window reuses its accumulator and the vectors
/// it grew, so steady-state turnover allocates nothing. An entry with
/// `n == 0` is such an accumulator that has not counted yet: not a window,
/// not iterated, not written, not copied.
///
/// The one spare bucket and the key scratch are not state: they are not in
/// the wire form, and a clone (the restart copy) carries neither.
#[derive(Debug, Default)]
struct OpenWindows {
    by_index: BTreeMap<u64, Bucket>,
    /// Windows open: entries of `by_index` with `n > 0`.
    windows: usize,
    /// The last bucket closed, its entries cleared, for the next index.
    spare: Bucket,
    /// The keys of the windows one close tests, reused across closes.
    closing: Vec<WindowKey>,
}

impl Clone for OpenWindows {
    /// The open windows only: no empty entry, no spare bucket, no scratch.
    fn clone(&self) -> OpenWindows {
        let by_index = self.by_index.iter().map(|(&idx, bucket)| {
            let open = || bucket.iter().filter(|(_, acc)| acc.n > 0);
            let mut copy = Bucket::with_capacity_and_hasher(open().count(), FastBuild);
            copy.extend(open().map(|(&key, acc)| (key, acc.clone())));
            (idx, copy)
        });
        OpenWindows {
            by_index: by_index.collect(),
            windows: self.windows,
            ..OpenWindows::default()
        }
    }
}

impl OpenWindows {
    fn len(&self) -> usize {
        self.windows
    }

    /// The accumulator of one window, opening it; the caller counts at
    /// least one row into it. A new window index takes the spare bucket.
    #[inline]
    fn accum(&mut self, host: HostId, stage: StageId, idx: u64) -> &mut WindowAccum {
        let spare = &mut self.spare;
        let bucket = self
            .by_index
            .entry(idx)
            .or_insert_with(|| std::mem::take(spare));
        let acc = bucket.entry((host, stage)).or_default();
        self.windows += usize::from(acc.n == 0);
        acc
    }

    /// The accumulator of an open window.
    fn get(&self, (host, stage, idx): WindowKey) -> &WindowAccum {
        &self.by_index[&idx][&(host, stage)]
    }

    fn iter(&self) -> impl Iterator<Item = (WindowKey, &WindowAccum)> {
        self.by_index.iter().flat_map(|(&idx, bucket)| {
            bucket
                .iter()
                .filter(|(_, acc)| acc.n > 0)
                .map(move |(&(host, stage), acc)| ((host, stage, idx), acc))
        })
    }

    /// The keys of the open windows of every leading index `stale`
    /// accepts, sorted: emission order must not depend on hash-map layout.
    /// The vector is the store's scratch; hand it back to
    /// [`OpenWindows::recycle_while`].
    fn stale_keys(&mut self, stale: impl Fn(u64) -> bool) -> Vec<WindowKey> {
        let mut keys = std::mem::take(&mut self.closing);
        let leading = || self.by_index.iter().take_while(|&(&idx, _)| stale(idx));
        // One reservation, so a first close grows the scratch once.
        keys.reserve(leading().map(|(_, bucket)| bucket.len()).sum());
        for (&idx, bucket) in leading() {
            let open = bucket.iter().filter(|(_, acc)| acc.n > 0);
            keys.extend(open.map(|(&(host, stage), _)| (host, stage, idx)));
        }
        keys.sort_unstable();
        keys
    }

    /// Retire every leading index `stale` accepts, its windows tested:
    /// each bucket keeps the accumulators that counted, cleared, and the
    /// fullest becomes the spare. `keys` is the scratch
    /// [`OpenWindows::stale_keys`] lent out.
    fn recycle_while(&mut self, stale: impl Fn(u64) -> bool, mut keys: Vec<WindowKey>) {
        keys.clear();
        self.closing = keys;
        while let Some(entry) = self.by_index.first_entry() {
            if !stale(*entry.key()) {
                break;
            }
            let mut bucket = entry.remove();
            bucket.retain(|_, acc| {
                let counted = acc.n > 0;
                acc.clear();
                counted
            });
            self.windows -= bucket.len();
            if bucket.len() >= self.spare.len() {
                self.spare = bucket;
            }
        }
    }

    /// Whether a window below the grace bound is open. Closing leaves none
    /// behind, so only a snapshot merged from shards whose watermarks stood
    /// in different windows brings one in.
    #[inline]
    fn has_stale(&self, closable_before: u64) -> bool {
        let first = self.by_index.first_key_value();
        first.is_some_and(|(&idx, _)| idx + 1 < closable_before)
    }

    /// Every open window, moved out and sorted by key: the cold path of
    /// [`AnomalyDetector::merge`] and [`AnomalyDetector::partition`].
    fn into_windows(self) -> Vec<(WindowKey, WindowAccum)> {
        let mut taken: Vec<_> = self
            .by_index
            .into_iter()
            .flat_map(|(idx, bucket)| {
                bucket
                    .into_iter()
                    .filter(|(_, acc)| acc.n > 0)
                    .map(move |((host, stage), acc)| ((host, stage, idx), acc))
            })
            .collect();
        taken.sort_unstable_by_key(|&(key, _)| key);
        taken
    }
}

/// The windowed statistical anomaly detector.
///
/// Feed it [`SynopsisBatch`]es with [`AnomalyDetector::observe_batch`], the
/// one way in; events are returned as windows close. Call
/// [`AnomalyDetector::flush`] at the end of a run to close all remaining
/// windows.
///
/// Internally the detector runs entirely on interned [`SigId`]s against a
/// [`CompiledModel`]: classification is two array indexes and a float
/// compare, and window accumulators key on `u32` ids. Signatures are
/// only materialized when an event is emitted at window close.
///
/// A clone is a restartable copy: the model, compiled tables and
/// interner are shared, not copied. The supervised analyzer restores from
/// its latest clone after a panic and replays the tail of the stream;
/// [`AnomalyDetector::encode_into`] is a clone's durable form.
#[derive(Debug, Clone)]
pub struct AnomalyDetector {
    model: Arc<OutlierModel>,
    compiled: Arc<CompiledModel>,
    interner: Arc<SignatureInterner>,
    config: DetectorConfig,
    open: OpenWindows,
    // (window idx, host) -> synopses the transport reported lost; index
    // first, like `open`, so closing pops the entries it outdates. Only
    // windows that can still close are kept (see `record_loss`).
    lost: BTreeMap<(u64, HostId), u64>,
    watermark: SimTime,
    tasks_seen: u64,
    tasks_lost: u64,
    // Not in the wire form: a restored checkpoint counts from zero.
    late_seen: u64,
    // Bootstrap/degraded mode: no trained model yet; count windows and
    // emit ModelUnavailable instead of classifying.
    collect_only: bool,
    // The one-task window of a straggler (see `account`), reused so that
    // closing it touches neither the store nor the heap. Not state:
    // cleared before every use, and not in the wire form.
    scratch: WindowAccum,
}

/// Sanity bounds for decoding a detector's wire form. The checkpoint
/// store's CRC framing catches corruption first; these guard against
/// format drift producing absurd allocations.
const MAX_SNAPSHOT_WINDOWS: u64 = 1 << 22;
const MAX_SNAPSHOT_SIGS: u64 = 1 << 22;

impl AnomalyDetector {
    /// Append the detector's wire form to `buf` (the per-shard section of
    /// a checkpoint; see [`crate::store`]). Maps are written in sorted
    /// key order so the encoding is deterministic.
    ///
    /// The shared model, compiled tables, and interner are **not**
    /// written here — the checkpoint stores each exactly once and
    /// [`AnomalyDetector::decode_from`] re-links them.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        let d = self;
        buf.put_u8(d.collect_only as u8);
        put_varint(buf, d.config.window.as_micros());
        put_f64(buf, d.config.alpha);
        put_varint(buf, d.config.min_window_tasks);
        put_varint(buf, d.config.min_group_tasks);
        put_varint(buf, d.config.max_new_signatures as u64);
        put_varint(buf, d.watermark.as_micros());
        put_varint(buf, d.tasks_seen);
        put_varint(buf, d.tasks_lost);
        let mut windows: Vec<_> = d.open.iter().collect();
        windows.sort_unstable_by_key(|&(key, _)| key);
        put_varint(buf, windows.len() as u64);
        for ((host, stage, idx), acc) in windows {
            put_varint(buf, host.0 as u64);
            put_varint(buf, stage.0 as u64);
            put_varint(buf, idx);
            put_varint(buf, acc.n);
            put_varint(buf, acc.rare_flow_outliers);
            put_varint(buf, acc.new_signature_tasks);
            put_varint(buf, acc.new_signatures.len() as u64);
            for sig in &acc.new_signatures {
                put_varint(buf, sig.0 as u64);
            }
            let mut perf = acc.perf.clone();
            perf.sort_unstable_by_key(|g| g.0);
            put_varint(buf, perf.len() as u64);
            for (sig, outliers, n) in perf {
                put_varint(buf, sig.0 as u64);
                put_varint(buf, outliers);
                put_varint(buf, n);
            }
        }
        let mut lost: Vec<_> = d.lost.iter().map(|(&(i, h), &c)| (h, i, c)).collect();
        lost.sort_unstable_by_key(|&(h, i, _)| (h, i));
        put_varint(buf, lost.len() as u64);
        for (host, idx, count) in lost {
            put_varint(buf, host.0 as u64);
            put_varint(buf, idx);
            put_varint(buf, count);
        }
    }

    /// Decode a detector written with [`AnomalyDetector::encode_into`],
    /// re-linking it to the checkpoint's shared `model`, `compiled`
    /// tables, and `interner`.
    ///
    /// Interned signature ids inside the encoding are validated against
    /// `interner` — an id the interner cannot resolve means the shard and
    /// interner sections are out of sync, and is rejected rather than
    /// deferred to a panic at window close.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated input, out-of-range
    /// lengths, host or stage ids wider than 16 bits, unresolvable
    /// signature ids, or a configuration [`DetectorConfig::validate`]
    /// refuses.
    pub fn decode_from(
        buf: &mut Bytes,
        model: Arc<OutlierModel>,
        compiled: Arc<CompiledModel>,
        interner: Arc<SignatureInterner>,
    ) -> Result<AnomalyDetector, DecodeError> {
        let collect_only = get_u8(buf)? != 0;
        let config = DetectorConfig {
            window: SimDuration::from_micros(get_varint(buf)?),
            alpha: get_f64(buf)?,
            min_window_tasks: get_varint(buf)?,
            min_group_tasks: get_varint(buf)?,
            max_new_signatures: get_varint(buf)? as usize,
        };
        let watermark = SimTime::from_micros(get_varint(buf)?);
        let tasks_seen = get_varint(buf)?;
        let tasks_lost = get_varint(buf)?;
        let read_sig = |buf: &mut Bytes| -> Result<SigId, DecodeError> {
            let raw = get_varint(buf)?;
            let sig = SigId(u32::try_from(raw).map_err(|_| DecodeError::LengthOutOfRange(raw))?);
            if interner.resolve(sig).is_none() {
                return Err(DecodeError::LengthOutOfRange(raw));
            }
            Ok(sig)
        };
        let window_count = get_varint(buf)?;
        if window_count > MAX_SNAPSHOT_WINDOWS {
            return Err(DecodeError::LengthOutOfRange(window_count));
        }
        let mut open = OpenWindows::default();
        for _ in 0..window_count {
            let host = HostId(id16(get_varint(buf)?)?);
            let stage = StageId(id16(get_varint(buf)?)?);
            let idx = get_varint(buf)?;
            let mut acc = WindowAccum {
                n: get_varint(buf)?,
                rare_flow_outliers: get_varint(buf)?,
                new_signature_tasks: get_varint(buf)?,
                ..WindowAccum::default()
            };
            let new_count = get_varint(buf)?;
            if new_count > MAX_SNAPSHOT_SIGS {
                return Err(DecodeError::LengthOutOfRange(new_count));
            }
            for _ in 0..new_count {
                acc.new_signatures.push(read_sig(buf)?);
            }
            let group_count = get_varint(buf)?;
            if group_count > MAX_SNAPSHOT_SIGS {
                return Err(DecodeError::LengthOutOfRange(group_count));
            }
            for _ in 0..group_count {
                let sig = read_sig(buf)?;
                // Written in ascending id order, each group once.
                if acc.perf.last().is_some_and(|g| g.0 >= sig) {
                    return Err(DecodeError::LengthOutOfRange(sig.0.into()));
                }
                acc.perf.push((sig, get_varint(buf)?, get_varint(buf)?));
            }
            // A window that counted nothing is not open (see `OpenWindows`).
            if acc.n > 0 {
                *open.accum(host, stage, idx) = acc;
            }
        }
        let loss_count = get_varint(buf)?;
        if loss_count > MAX_SNAPSHOT_WINDOWS {
            return Err(DecodeError::LengthOutOfRange(loss_count));
        }
        let mut lost = BTreeMap::new();
        for _ in 0..loss_count {
            let host = HostId(id16(get_varint(buf)?)?);
            let idx = get_varint(buf)?;
            let count = get_varint(buf)?;
            lost.insert((idx, host), count);
        }
        // A config no detector could be built with (a zero window divides
        // by zero at the first observation) is as undecodable as a bad id.
        let d =
            AnomalyDetector::try_with_shared(model, compiled, interner, config).map_err(|e| {
                DecodeError::LengthOutOfRange(match e {
                    ConfigError::AlphaOutOfRange(alpha) => alpha.to_bits(),
                    _ => config.window.as_micros(),
                })
            })?;
        Ok(AnomalyDetector {
            open,
            lost,
            watermark,
            tasks_seen,
            tasks_lost,
            collect_only,
            ..d
        })
    }

    /// Merge per-shard detectors into one logical detector. Used when a
    /// checkpoint taken with one worker count is restored into a pool
    /// with another: shards merge first, then
    /// [`AnomalyDetector::partition`] re-splits along the new routing
    /// function.
    ///
    /// Open windows are a disjoint union by construction (each
    /// `(host, stage)` lives on exactly one shard), but colliding keys
    /// are combined additively for robustness. Loss maps are broadcast
    /// to every shard by the router, so they merge per-key by `max`, as
    /// do `tasks_lost` and the watermark; `tasks_seen` and `late_seen` sum.
    /// Returns `None` for an empty input.
    pub fn merge(parts: Vec<AnomalyDetector>) -> Option<AnomalyDetector> {
        let mut iter = parts.into_iter();
        let mut merged = iter.next()?;
        let m = &mut merged;
        for part in iter {
            for ((host, stage, idx), acc) in part.open.into_windows() {
                // Adding into a freshly opened (empty) accumulator is the
                // plain insert of the disjoint case.
                let into = m.open.accum(host, stage, idx);
                into.n += acc.n;
                into.rare_flow_outliers += acc.rare_flow_outliers;
                into.new_signature_tasks += acc.new_signature_tasks;
                for sig in acc.new_signatures {
                    into.enumerate_new(sig, m.config.max_new_signatures);
                }
                for (sig, outliers, n) in acc.perf {
                    into.add_group(sig, outliers, n);
                }
            }
            for (key, count) in part.lost {
                let slot = m.lost.entry(key).or_insert(0);
                *slot = (*slot).max(count);
            }
            m.watermark = m.watermark.max(part.watermark);
            m.tasks_seen += part.tasks_seen;
            m.late_seen += part.late_seen;
            m.tasks_lost = m.tasks_lost.max(part.tasks_lost);
        }
        Some(merged)
    }

    /// Split one logical detector into `n` per-shard detectors, sending
    /// each open window to `route(host, stage) % n`. The inverse of
    /// [`AnomalyDetector::merge`]: loss maps, the watermark, and
    /// `tasks_lost` are broadcast to every part (matching the router's
    /// broadcast of loss reports), while `tasks_seen` and `late_seen` are
    /// carried by part 0 so pool-level totals stay exact.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn partition(
        mut self,
        n: usize,
        route: impl Fn(HostId, StageId) -> usize,
    ) -> Vec<AnomalyDetector> {
        assert!(n > 0, "cannot partition a detector into zero shards");
        let open = std::mem::take(&mut self.open);
        let seen = std::mem::take(&mut self.tasks_seen);
        let late = std::mem::take(&mut self.late_seen);
        let mut parts = vec![self; n];
        (parts[0].tasks_seen, parts[0].late_seen) = (seen, late);
        for ((host, stage, idx), acc) in open.into_windows() {
            *parts[route(host, stage) % n].open.accum(host, stage, idx) = acc;
        }
        parts
    }

    /// Create a detector over a trained model.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid
    /// ([`DetectorConfig::validate`]).
    pub fn new(model: Arc<OutlierModel>, config: DetectorConfig) -> AnomalyDetector {
        let interner = Arc::new(SignatureInterner::new());
        let compiled = Arc::new(model.compile(&interner));
        AnomalyDetector::with_shared(model, compiled, interner, config)
    }

    /// Create a detector with **no model** (bootstrap/degraded mode): it
    /// counts tasks per window and emits [`AnomalyKind::ModelUnavailable`]
    /// events with completeness accounting instead of classifying. A pool
    /// started from a store
    /// ([`PoolStart::Store`](crate::pipeline::PoolStart::Store)) promotes
    /// it once enough training data has accumulated.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] from [`DetectorConfig::validate`].
    pub fn collecting(
        interner: Arc<SignatureInterner>,
        config: DetectorConfig,
    ) -> Result<AnomalyDetector, ConfigError> {
        let model = Arc::new(ModelBuilder::new().build(ModelConfig::default()));
        let compiled = Arc::new(model.compile(&interner));
        let mut d = AnomalyDetector::try_with_shared(model, compiled, interner, config)?;
        d.collect_only = true;
        Ok(d)
    }

    /// Create a detector over pre-built shared parts. This is how the
    /// analyzer pool gives every shard the same interner and compiled
    /// model: interning and compilation happen once, each shard keeps
    /// only its own window state.
    ///
    /// `compiled` must have been produced by `model.compile(&interner)`
    /// with this same interner, or classification results are undefined.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid
    /// ([`DetectorConfig::validate`]).
    pub fn with_shared(
        model: Arc<OutlierModel>,
        compiled: Arc<CompiledModel>,
        interner: Arc<SignatureInterner>,
        config: DetectorConfig,
    ) -> AnomalyDetector {
        match AnomalyDetector::try_with_shared(model, compiled, interner, config) {
            Ok(d) => d,
            Err(e) => panic!("invalid detector config: {e}"),
        }
    }

    /// Fallible form of [`AnomalyDetector::with_shared`]: the
    /// [`ConfigError`] from [`DetectorConfig::validate`].
    fn try_with_shared(
        model: Arc<OutlierModel>,
        compiled: Arc<CompiledModel>,
        interner: Arc<SignatureInterner>,
        config: DetectorConfig,
    ) -> Result<AnomalyDetector, ConfigError> {
        config.validate()?;
        Ok(AnomalyDetector {
            model,
            compiled,
            interner,
            config,
            open: OpenWindows::default(),
            lost: BTreeMap::new(),
            watermark: SimTime::ZERO,
            tasks_seen: 0,
            tasks_lost: 0,
            late_seen: 0,
            collect_only: false,
            scratch: WindowAccum::default(),
        })
    }

    /// Whether the detector is in bootstrap (collect-only) mode.
    #[cfg(test)]
    pub fn is_collect_only(&self) -> bool {
        self.collect_only
    }

    /// Atomically replace the detector's model (hot model swap), or
    /// promote a [collecting] detector to detecting.
    ///
    /// When the detector was collecting, every open window is closed
    /// first — their tasks were observed without classification, so they
    /// emit [`AnomalyKind::ModelUnavailable`] events (returned here)
    /// rather than silently becoming half-classified windows.
    ///
    /// When the detector was already detecting, open windows are kept:
    /// their accumulated counts reflect the outgoing model, and they
    /// close against the incoming model's rates — the documented swap
    /// semantics (no task is dropped or double-counted; windows
    /// straddling the swap mix the two models' classifications).
    ///
    /// `compiled` must have been produced by `model.compile(&interner)`
    /// against this detector's own interner.
    ///
    /// [collecting]: AnomalyDetector::collecting
    pub(crate) fn install_model(
        &mut self,
        model: Arc<OutlierModel>,
        compiled: Arc<CompiledModel>,
    ) -> Vec<AnomalyEvent> {
        let events = if self.collect_only {
            self.flush()
        } else {
            Vec::new()
        };
        self.collect_only = false;
        self.model = model;
        self.compiled = compiled;
        events
    }

    /// The model in use.
    pub fn model(&self) -> &OutlierModel {
        &self.model
    }

    /// The signature interner backing this detector's interned features.
    pub fn interner(&self) -> &Arc<SignatureInterner> {
        &self.interner
    }

    /// The compiled (dense, read-only) form of the model the hot path
    /// classifies against.
    pub fn compiled(&self) -> &Arc<CompiledModel> {
        &self.compiled
    }

    /// The detection configuration.
    pub fn config(&self) -> DetectorConfig {
        self.config
    }

    /// The watermark: the highest task start, or stamped stream
    /// watermark, the detector has advanced to.
    pub fn watermark(&self) -> SimTime {
        self.watermark
    }

    /// Total tasks observed.
    pub fn tasks_seen(&self) -> u64 {
        self.tasks_seen
    }

    /// Total synopses the transport reported as lost (see
    /// [`AnomalyDetector::record_loss`]).
    pub fn tasks_lost(&self) -> u64 {
        self.tasks_lost
    }

    /// Tasks that arrived after the watermark had moved more than the
    /// grace window past theirs. Each was tested as a window of its own,
    /// so it counted towards no window that could reach
    /// [`DetectorConfig::min_window_tasks`] with its peers. Carried by a
    /// clone but not by [`AnomalyDetector::encode_into`]: a detector
    /// restored from disk counts from zero.
    pub fn late_seen(&self) -> u64 {
        self.late_seen
    }

    /// Detection windows currently open: what a clone copies. O(1), a
    /// count the store keeps.
    pub fn open_windows(&self) -> usize {
        self.open.len()
    }

    /// Entries the store's spare bucket can hold without growing; zero on
    /// a clone.
    #[cfg(test)]
    pub(crate) fn spare_bucket_capacity(&self) -> usize {
        self.open.spare.capacity()
    }

    /// Tell the detector that `count` synopses from `host` around virtual
    /// time `at` never arrived (detected via transport sequence gaps).
    ///
    /// Known loss feeds the degradation-aware tests: the rare-pattern
    /// proportion test inflates its denominator by the lost count
    /// (conservatively assuming missing tasks were normal, so degraded
    /// data cannot manufacture anomalies), and every event from an
    /// affected window carries `completeness < 1.0`.
    ///
    /// A report for a window the watermark has already closed is counted
    /// in [`AnomalyDetector::tasks_lost`] and otherwise dropped: that
    /// window's tests have run, and a straggler reopening it is tested on
    /// its own.
    pub fn record_loss(&mut self, host: HostId, at: SimTime, count: u64) {
        self.record_loss_at(host, at, count, self.watermark);
    }

    /// [`AnomalyDetector::record_loss`] for a detector that sees only a
    /// slice of the stream: whether the report's window has already
    /// closed is judged against `stream_watermark`, the watermark of the
    /// whole stream at the report's position, so every shard of a pool
    /// keeps or drops a report exactly as a single detector over the whole
    /// stream would, however far its own watermark lags.
    pub(crate) fn record_loss_at(
        &mut self,
        host: HostId,
        at: SimTime,
        count: u64,
        stream_watermark: SimTime,
    ) {
        if count == 0 {
            return;
        }
        self.tasks_lost += count;
        let idx = self.window_index(at);
        if idx + 1 >= self.window_index(self.watermark.max(stream_watermark)) {
            *self.lost.entry((idx, host)).or_insert(0) += count;
        }
    }

    fn window_index(&self, t: SimTime) -> u64 {
        t.as_micros() / self.config.window.as_micros()
    }

    fn lost_in(&self, host: HostId, idx: u64) -> u64 {
        self.lost.get(&(idx, host)).copied().unwrap_or(0)
    }

    /// Observe one pre-interned task; returns events from any windows
    /// that closed. The per-row reference [`observe_batch`] is held to
    /// (`testkit` feature, through `testkit::reference_run`): build the
    /// feature with `InternedFeature::from_synopsis` on this detector's
    /// [`interner`](AnomalyDetector::interner).
    ///
    /// Windows close when the watermark (max task start time seen) moves a
    /// full window past their end, tolerating modest reordering in the
    /// synopsis stream.
    ///
    /// [`observe_batch`]: AnomalyDetector::observe_batch
    #[cfg(any(test, feature = "testkit"))]
    pub fn observe_interned(&mut self, f: &crate::feature::InternedFeature) -> Vec<AnomalyEvent> {
        self.tasks_seen += 1;
        let mut events = Vec::new();
        let key = (f.host, f.stage, self.window_index(f.start));
        let closable_before = self.window_index(self.watermark);
        let late = if self.collect_only {
            // Bootstrap mode: no model to classify against. Count the
            // task so the window's ModelUnavailable event carries exact
            // unclassified-task accounting.
            self.account(key, closable_before, &mut events, |acc, _| acc.n += 1)
        } else {
            let class = self.compiled.classify(f.stage, f.sig, f.duration_us);
            let max_new = self.config.max_new_signatures;
            self.account(key, closable_before, &mut events, |acc, compiled| {
                acc.count(class, f.stage, f.sig, compiled, max_new)
            })
        };
        if !late {
            // Advance the watermark and close stale windows.
            self.watermark = self.watermark.max(f.start);
            self.close_stale(&mut events);
        }
        events
    }

    /// Count one task into its window, through `count`; returns whether it
    /// was late. This is the one place the late rule lives: **a straggler
    /// is a window of its own, closed at once.** An element whose window
    /// lies below the grace bound `closable_before` (the watermark's window
    /// index) is counted into the scratch accumulator, tested and
    /// forgotten — what inserting it into the store and closing every
    /// stale window would do, since the store holds no other stale window:
    /// closing never leaves one behind. A detector merged from shards
    /// whose watermarks stood in different windows can bring one in, and
    /// then the insert-and-close path runs, so the straggler joins or
    /// closes together with what was restored.
    #[inline]
    fn account(
        &mut self,
        (host, stage, idx): WindowKey,
        closable_before: u64,
        events: &mut Vec<AnomalyEvent>,
        count: impl FnOnce(&mut WindowAccum, &CompiledModel),
    ) -> bool {
        if idx + 1 >= closable_before {
            count(self.open.accum(host, stage, idx), &self.compiled);
            return false;
        }
        self.late_seen += 1;
        if self.open.has_stale(closable_before) {
            count(self.open.accum(host, stage, idx), &self.compiled);
            self.close_stale(events);
        } else {
            self.scratch.clear();
            count(&mut self.scratch, &self.compiled);
            self.close_window((host, stage, idx), &self.scratch, events);
            self.drop_outdated_losses(closable_before);
        }
        true
    }

    /// Observe a whole structure-of-arrays batch — the one way into a
    /// detector; returns events from any windows that closed, in exactly
    /// the order the per-row reference (`testkit::reference_run`)
    /// produces them.
    ///
    /// Per row, the watermark moves to the row's stamp
    /// (`batch.watermarks[i]`: the pool router's global running max, or
    /// the running-max start [`SynopsisBatch::push_synopsis`] stamps) when
    /// that stamp passes the detector's own, closing the windows it
    /// outdates; then the row is counted into its window, a straggler
    /// into a window of its own. Every row is classified up front with
    /// [`CompiledModel::classify_batch`] into `verdicts` (caller-supplied
    /// so its buffer is reused across batches), and closable windows are
    /// looked for only when a stamp enters a new window or the row itself
    /// is late.
    ///
    /// A batch of one row is how a caller holding one task at a time
    /// comes in ([`DetectorSink`](crate::pipeline::DetectorSink) reuses
    /// one). Every signature in the batch must have been interned through
    /// this detector's own interner.
    pub fn observe_batch(
        &mut self,
        batch: &SynopsisBatch,
        verdicts: &mut VerdictMask,
    ) -> Vec<AnomalyEvent> {
        if self.collect_only {
            // Bootstrap mode: count each task, classify none.
            return self.observe_rows(batch, |acc, _, _| acc.n += 1);
        }
        self.compiled
            .classify_batch(&batch.stages, &batch.sigs, &batch.durations_us, verdicts);
        let (verdicts, max_new) = (&*verdicts, self.config.max_new_signatures);
        self.observe_rows(batch, |acc, compiled, i| {
            let (stage, sig) = (batch.stages[i], batch.sigs[i]);
            acc.count(verdicts.get(i), stage, sig, compiled, max_new)
        })
    }

    /// The one batch loop under [`AnomalyDetector::observe_batch`]: each
    /// row advances the watermark, then `count(accumulator, compiled, row)`
    /// counts it into its window. Generic, so each mode compiles to a loop
    /// of its own.
    #[inline]
    fn observe_rows(
        &mut self,
        batch: &SynopsisBatch,
        count: impl Fn(&mut WindowAccum, &CompiledModel, usize),
    ) -> Vec<AnomalyEvent> {
        let mut events = Vec::new();
        let window_us = self.config.window.as_micros();
        // One-entry window-index cache for task starts: streams are
        // near-sorted, so consecutive elements usually share a window and
        // skip the u64 division.
        let mut cached_lo = u64::MAX;
        let mut cached_idx = 0u64;
        // Windows become closable only when the watermark's window index
        // grows; track it so in-window elements skip `close_stale`.
        let mut closable_before = self.window_index(self.watermark);
        for i in 0..batch.len() {
            self.tasks_seen += 1;
            let wm = batch.watermarks[i];
            if wm > self.watermark {
                self.watermark = wm;
                let wm_idx = self.window_index(wm);
                if wm_idx > closable_before {
                    closable_before = wm_idx;
                    self.close_stale(&mut events);
                }
            }
            let start_us = batch.starts[i].as_micros();
            let idx = if start_us >= cached_lo && start_us - cached_lo < window_us {
                cached_idx
            } else {
                let idx = start_us / window_us;
                cached_lo = idx * window_us;
                cached_idx = idx;
                idx
            };
            let key = (batch.hosts[i], batch.stages[i], idx);
            self.account(key, closable_before, &mut events, |acc, compiled| {
                count(acc, compiled, i)
            });
        }
        events
    }

    /// Advance the watermark to (at least) `to` and close any windows
    /// that became stale, returning their events.
    ///
    /// A sharded analyzer needs this because each shard only sees a slice
    /// of the stream: its own watermark lags the global one, which would
    /// keep windows open that a single-threaded detector (whose watermark
    /// the full stream advances) has already closed. The pool's router
    /// stamps every row with the global stream watermark, which
    /// [`AnomalyDetector::observe_batch`] follows; at end of stream and
    /// at a model swap the shard advances to the router's watermark with
    /// this, closing windows exactly where a single-threaded analyzer
    /// would.
    pub fn advance_watermark(&mut self, to: SimTime) -> Vec<AnomalyEvent> {
        self.watermark = self.watermark.max(to);
        let mut events = Vec::new();
        self.close_stale(&mut events);
        events
    }

    fn close_stale(&mut self, events: &mut Vec<AnomalyEvent>) {
        let closable_before = self.window_index(self.watermark); // grace = 1 window
        self.close_while(|idx| idx + 1 < closable_before, events);
        self.drop_outdated_losses(closable_before);
    }

    /// Close the windows of every leading index `stale` accepts, in key
    /// order and in place: each is tested by reference, then its bucket is
    /// recycled for the next window index (see `OpenWindows`).
    fn close_while(&mut self, stale: impl Fn(u64) -> bool, events: &mut Vec<AnomalyEvent>) {
        let keys = self.open.stale_keys(&stale);
        for &key in &keys {
            self.close_window(key, self.open.get(key), events);
        }
        self.open.recycle_while(stale, keys);
    }

    /// Loss entries for windows below the grace bound can no longer affect
    /// any test; drop them so the map stays bounded on long runs.
    fn drop_outdated_losses(&mut self, closable_before: u64) {
        while let Some(entry) = self.lost.first_entry() {
            if entry.key().0 + 1 >= closable_before {
                break;
            }
            entry.remove();
        }
    }

    /// Close every open window and return the resulting events.
    pub fn flush(&mut self) -> Vec<AnomalyEvent> {
        let mut events = Vec::new();
        self.close_while(|_| true, &mut events);
        self.lost.clear();
        events
    }

    fn close_window(
        &self,
        (host, stage, idx): WindowKey,
        acc: &WindowAccum,
        events: &mut Vec<AnomalyEvent>,
    ) {
        let window_start = SimTime::from_micros(idx * self.config.window.as_micros());
        // Degradation accounting: synopses the transport reported lost for
        // this host-window. Tests below treat them as if they had arrived
        // and been normal — the conservative direction, so a lossy link
        // can only suppress detections, never invent them.
        let lost = self.lost_in(host, idx);
        let completeness = if acc.n + lost == 0 {
            1.0
        } else {
            acc.n as f64 / (acc.n + lost) as f64
        };
        // Bootstrap mode: the window was observed but never classified.
        // Emit exactly one accounting event instead of test results.
        if self.collect_only {
            events.push(AnomalyEvent {
                host,
                stage,
                window_start,
                kind: AnomalyKind::ModelUnavailable,
                p_value: None,
                outliers: 0,
                window_tasks: acc.n,
                completeness,
            });
            return;
        }
        // (ii) New signatures: report each, no test required. Ids resolve
        // back to full signatures only here, on the (cold) emission path.
        for &sig in &acc.new_signatures {
            let signature = self.interner.resolve(sig).expect("sig interned by observe");
            events.push(AnomalyEvent {
                host,
                stage,
                window_start,
                kind: AnomalyKind::FlowNew(signature),
                p_value: None,
                outliers: acc.new_signature_tasks,
                window_tasks: acc.n,
                completeness,
            });
        }
        // (i) Rare-pattern proportion test, with the denominator inflated
        // by the known-lost count.
        if acc.n >= self.config.min_window_tasks {
            let outliers = acc.rare_flow_outliers + acc.new_signature_tasks;
            let p0 = self.compiled.flow_outlier_rate(stage);
            let r = one_sided_proportion_test(outliers, acc.n + lost, p0, Alternative::Greater);
            if r.rejects(self.config.alpha) && acc.rare_flow_outliers > 0 {
                events.push(AnomalyEvent {
                    host,
                    stage,
                    window_start,
                    kind: AnomalyKind::FlowRare,
                    p_value: Some(r.p_value),
                    outliers,
                    window_tasks: acc.n,
                    completeness,
                });
            }
        }
        // Performance tests per signature group, on ids: a signature is
        // resolved (a lock and a clone) only for a group that rejects.
        let first = events.len();
        for &(sig, outliers, n) in &acc.perf {
            if n < self.config.min_group_tasks {
                continue;
            }
            // Eligible groups always carry a compiled p0, already floored
            // at `1 - duration_percentile/100` so a training rate of 0
            // (every training task at or below the threshold due to ties)
            // cannot make a single outlier fire with p = 0.
            let Some(p0) = self.compiled.perf_p0(stage, sig) else {
                continue;
            };
            let r = one_sided_proportion_test(outliers, n, p0, Alternative::Greater);
            if r.rejects(self.config.alpha) {
                let signature = self.interner.resolve(sig).expect("sig interned by observe");
                events.push(AnomalyEvent {
                    host,
                    stage,
                    window_start,
                    kind: AnomalyKind::Performance(signature),
                    p_value: Some(r.p_value),
                    outliers,
                    window_tasks: n,
                    completeness,
                });
            }
        }
        // Emission order must be deterministic and independent of both map
        // layout and interning order: by signature, not by the
        // (arrival-order-dependent) SigId. Interning is a bijection, so
        // ordering the emitted events is ordering the groups.
        events[first..].sort_unstable_by(|a, b| match (&a.kind, &b.kind) {
            (AnomalyKind::Performance(a), AnomalyKind::Performance(b)) => a.cmp(b),
            _ => unreachable!("only performance events past `first`"),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::InternedFeature;
    use crate::synopsis::TaskSynopsis;
    use crate::TaskUid;
    use proptest::prelude::*;
    use saad_logging::LogPointId;

    fn synopsis(stage: u16, points: &[u16], dur_us: u64, start: SimTime, uid: u64) -> TaskSynopsis {
        TaskSynopsis {
            host: HostId(0),
            stage: StageId(stage),
            uid: TaskUid(uid),
            start,
            duration: SimDuration::from_micros(dur_us),
            log_points: points.iter().map(|&p| (LogPointId(p), 1)).collect(),
        }
    }

    /// A model trained on a healthy population: one dominant signature
    /// [1,2,4,5] at ~10ms, one rare [1,2,3,4,5] at 0.1%. Trained once and
    /// shared — the model is immutable, and retraining it for each of the
    /// property-test cases below would dominate the suite's runtime.
    fn trained_model() -> Arc<OutlierModel> {
        static MODEL: std::sync::OnceLock<Arc<OutlierModel>> = std::sync::OnceLock::new();
        MODEL
            .get_or_init(|| {
                let mut b = ModelBuilder::new();
                for i in 0..20_000u64 {
                    let s = if i.is_multiple_of(1000) {
                        synopsis(0, &[1, 2, 3, 4, 5], 10_000, SimTime::ZERO, i)
                    } else {
                        synopsis(0, &[1, 2, 4, 5], 9_000 + (i % 97) * 20, SimTime::ZERO, i)
                    };
                    b.observe(&s);
                }
                Arc::new(b.build(ModelConfig::default()))
            })
            .clone()
    }

    fn detector() -> AnomalyDetector {
        AnomalyDetector::new(trained_model(), DetectorConfig::default())
    }

    /// One synopsis through the per-feature reference.
    fn observe_one(d: &mut AnomalyDetector, s: &TaskSynopsis) -> Vec<AnomalyEvent> {
        let f = InternedFeature::from_synopsis(s, d.interner());
        d.observe_interned(&f)
    }

    fn feed(
        d: &mut AnomalyDetector,
        minute: u64,
        count: u64,
        mk: impl Fn(u64) -> TaskSynopsis,
    ) -> Vec<AnomalyEvent> {
        let mut events = Vec::new();
        for i in 0..count {
            let mut s = mk(i);
            s.start = SimTime::from_mins(minute) + SimDuration::from_millis(i * 10);
            events.extend(observe_one(d, &s));
        }
        events
    }

    #[test]
    fn observe_batch_matches_per_synopsis_path() {
        let model = trained_model();
        let interner = Arc::new(SignatureInterner::new());
        let compiled = Arc::new(model.compile(&interner));
        let config = DetectorConfig::default();
        let mut scalar =
            AnomalyDetector::with_shared(model.clone(), compiled.clone(), interner.clone(), config);
        let mut batched = AnomalyDetector::with_shared(model, compiled, interner.clone(), config);
        // A stream spanning several windows with anomalies of every kind
        // and a late straggler whose window is already closable.
        let mut stream = Vec::new();
        for minute in 0..6u64 {
            for i in 0..120u64 {
                let mut s = if i % 10 < 3 && minute == 2 {
                    synopsis(
                        0,
                        &[1, 2, 3, 4, 5],
                        10_000,
                        SimTime::ZERO,
                        minute * 1000 + i,
                    )
                } else if i == 7 && minute == 3 {
                    synopsis(0, &[1], 500, SimTime::ZERO, minute * 1000 + i)
                } else if i.is_multiple_of(5) && minute == 4 {
                    synopsis(0, &[1, 2, 4, 5], 150_000, SimTime::ZERO, minute * 1000 + i)
                } else {
                    synopsis(0, &[1, 2, 4, 5], 9_500, SimTime::ZERO, minute * 1000 + i)
                };
                s.start = SimTime::from_mins(minute) + SimDuration::from_millis(i * 10);
                s.host = HostId((i % 3) as u16);
                stream.push(s);
            }
            if minute == 5 {
                // Straggler from minute 0 arriving after minute 5 opened.
                let mut late = synopsis(0, &[1, 2, 4, 5], 9_500, SimTime::ZERO, 999_999);
                late.start = SimTime::from_mins(0) + SimDuration::from_millis(1);
                stream.push(late);
            }
        }
        // Batch path: SoA batches of 37 (splits windows across batches).
        let mut batch_events = Vec::new();
        let mut mask = VerdictMask::new();
        for chunk in stream.chunks(37) {
            let mut batch = SynopsisBatch::new();
            let mut wm = batched.watermark();
            for s in chunk {
                wm = wm.max(s.start);
                batch.push_feature(&InternedFeature::from_synopsis(s, &interner), wm);
            }
            batch_events.extend(batched.observe_batch(&batch, &mut mask));
        }
        // Scalar path: the same per-element watermark stamps.
        let mut scalar_events = Vec::new();
        for s in &stream {
            let f = InternedFeature::from_synopsis(s, &interner);
            scalar_events.extend(scalar.advance_watermark(s.start.max(scalar.watermark())));
            scalar_events.extend(scalar.observe_interned(&f));
        }
        batch_events.extend(batched.flush());
        scalar_events.extend(scalar.flush());
        assert!(!scalar_events.is_empty());
        assert_eq!(batch_events, scalar_events);
        assert_eq!(batched.tasks_seen(), scalar.tasks_seen());
        assert_eq!(batched.watermark(), scalar.watermark());
    }

    #[test]
    fn observe_batch_collect_only_matches_scalar() {
        let interner = Arc::new(SignatureInterner::new());
        let config = DetectorConfig::default();
        let mut scalar = AnomalyDetector::collecting(interner.clone(), config).unwrap();
        let mut batched = AnomalyDetector::collecting(interner.clone(), config).unwrap();
        let mut batch = SynopsisBatch::new();
        let mut scalar_events = Vec::new();
        for minute in 0..4u64 {
            for i in 0..30u64 {
                let mut s = synopsis(1, &[1, 2], 1_000, SimTime::ZERO, minute * 100 + i);
                s.start = SimTime::from_mins(minute) + SimDuration::from_millis(i);
                batch.push_synopsis(&s, &interner);
                scalar_events.extend(observe_one(&mut scalar, &s));
            }
        }
        let mut mask = VerdictMask::new();
        let mut batch_events = batched.observe_batch(&batch, &mut mask);
        batch_events.extend(batched.flush());
        scalar_events.extend(scalar.flush());
        assert_eq!(batch_events, scalar_events);
        assert!(batch_events
            .iter()
            .all(|e| e.kind == AnomalyKind::ModelUnavailable));
        assert_eq!(batched.tasks_seen(), scalar.tasks_seen());
    }

    #[test]
    fn healthy_traffic_raises_no_anomalies() {
        let mut d = detector();
        let mut events = Vec::new();
        for minute in 0..5 {
            events.extend(feed(&mut d, minute, 200, |i| {
                // Include the occasional trained-rare task at its
                // training rate — that is normal behaviour.
                if i.is_multiple_of(1000) {
                    synopsis(0, &[1, 2, 3, 4, 5], 10_000, SimTime::ZERO, i)
                } else {
                    synopsis(0, &[1, 2, 4, 5], 9_500, SimTime::ZERO, i)
                }
            }));
        }
        events.extend(d.flush());
        assert!(events.is_empty(), "events: {events:?}");
        assert_eq!(d.tasks_seen(), 1000);
    }

    #[test]
    fn surge_of_rare_signature_is_flow_anomaly() {
        let mut d = detector();
        // 30% of the window is the trained-rare signature (training: 0.1%).
        let mut events = feed(&mut d, 0, 200, |i| {
            if i % 10 < 3 {
                synopsis(0, &[1, 2, 3, 4, 5], 10_000, SimTime::ZERO, i)
            } else {
                synopsis(0, &[1, 2, 4, 5], 9_500, SimTime::ZERO, i)
            }
        });
        events.extend(d.flush());
        assert!(
            events.iter().any(|e| e.kind == AnomalyKind::FlowRare),
            "events: {events:?}"
        );
        let e = events
            .iter()
            .find(|e| e.kind == AnomalyKind::FlowRare)
            .unwrap();
        assert!(e.p_value.unwrap() < 0.001);
        assert_eq!(e.window_tasks, 200);
        assert_eq!(e.host, HostId(0));
        assert_eq!(e.stage, StageId(0));
    }

    #[test]
    fn new_signature_reported_without_test() {
        // The frozen-MemTable scenario: premature termination produces a
        // signature never seen in training.
        let mut d = detector();
        let mut events = feed(&mut d, 0, 50, |i| {
            if i == 7 {
                synopsis(0, &[1], 500, SimTime::ZERO, i) // premature stop
            } else {
                synopsis(0, &[1, 2, 4, 5], 9_500, SimTime::ZERO, i)
            }
        });
        events.extend(d.flush());
        let new_events: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.kind, AnomalyKind::FlowNew(_)))
            .collect();
        assert_eq!(new_events.len(), 1);
        assert_eq!(new_events[0].p_value, None);
        match &new_events[0].kind {
            AnomalyKind::FlowNew(sig) => {
                assert_eq!(sig, &Signature::from_points([LogPointId(1)]));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn slow_tasks_are_performance_anomaly() {
        let mut d = detector();
        // 20% of common-signature tasks run 10x slower than the threshold.
        let mut events = feed(&mut d, 0, 200, |i| {
            let dur = if i.is_multiple_of(5) { 120_000 } else { 9_500 };
            synopsis(0, &[1, 2, 4, 5], dur, SimTime::ZERO, i)
        });
        events.extend(d.flush());
        let perf: Vec<_> = events.iter().filter(|e| e.kind.is_performance()).collect();
        assert_eq!(perf.len(), 1, "events: {events:?}");
        assert!(perf[0].p_value.unwrap() < 0.001);
        match &perf[0].kind {
            AnomalyKind::Performance(sig) => {
                assert!(sig.contains(LogPointId(5)));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn windows_close_as_watermark_advances() {
        let mut d = detector();
        // Window at minute 0 with an obvious anomaly...
        let mut events = feed(&mut d, 0, 100, |i| {
            synopsis(0, &[1, 2, 3, 4, 5], 10_000, SimTime::ZERO, i)
        });
        assert!(events.is_empty(), "window should still be open");
        // ...watermark moving to minute 3 closes it mid-stream.
        events.extend(feed(&mut d, 3, 30, |i| {
            synopsis(0, &[1, 2, 4, 5], 9_500, SimTime::ZERO, i)
        }));
        assert!(
            events.iter().any(|e| e.kind == AnomalyKind::FlowRare),
            "events: {events:?}"
        );
        assert_eq!(events[0].window_start, SimTime::ZERO);
    }

    #[test]
    fn small_windows_skip_proportion_tests() {
        let mut d = detector();
        // 5 tasks, all rare: below min_window_tasks, no FlowRare event;
        // but they are known signatures, so no FlowNew either.
        let mut events = feed(&mut d, 0, 5, |i| {
            synopsis(0, &[1, 2, 3, 4, 5], 10_000, SimTime::ZERO, i)
        });
        events.extend(d.flush());
        assert!(events.is_empty(), "events: {events:?}");
    }

    #[test]
    fn hosts_are_tracked_independently() {
        let mut d = detector();
        let mut events = Vec::new();
        for i in 0..200u64 {
            let mut s = if i.is_multiple_of(2) {
                // host 1 anomalous
                let mut s = synopsis(0, &[1, 2, 3, 4, 5], 10_000, SimTime::ZERO, i);
                s.host = HostId(1);
                s
            } else {
                // host 2 healthy
                let mut s = synopsis(0, &[1, 2, 4, 5], 9_500, SimTime::ZERO, i);
                s.host = HostId(2);
                s
            };
            s.start = SimTime::from_millis(i * 20);
            events.extend(observe_one(&mut d, &s));
        }
        events.extend(d.flush());
        assert!(
            events.iter().all(|e| e.host == HostId(1)),
            "events: {events:?}"
        );
        assert!(!events.is_empty());
    }

    #[test]
    fn max_new_signatures_caps_enumeration() {
        let cfg = DetectorConfig {
            max_new_signatures: 2,
            ..DetectorConfig::default()
        };
        let mut d = AnomalyDetector::new(trained_model(), cfg);
        let mut events = feed(&mut d, 0, 30, |i| {
            synopsis(0, &[100 + i as u16], 500, SimTime::ZERO, i)
        });
        events.extend(d.flush());
        let new_count = events
            .iter()
            .filter(|e| matches!(e.kind, AnomalyKind::FlowNew(_)))
            .count();
        assert_eq!(new_count, 2);
    }

    #[test]
    fn kind_predicates_and_display() {
        assert!(AnomalyKind::FlowRare.is_flow());
        assert!(!AnomalyKind::FlowRare.is_performance());
        let sig = Signature::from_points([LogPointId(1)]);
        assert!(AnomalyKind::FlowNew(sig.clone()).is_flow());
        assert!(AnomalyKind::Performance(sig.clone()).is_performance());
        assert!(format!("{}", AnomalyKind::Performance(sig)).contains("performance"));
    }

    #[test]
    fn zero_window_rejected_with_typed_error() {
        let cfg = DetectorConfig {
            window: SimDuration::ZERO,
            ..DetectorConfig::default()
        };
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroWindow));
        assert_eq!(
            AnomalyDetector::collecting(Arc::default(), cfg).unwrap_err(),
            ConfigError::ZeroWindow
        );
    }

    #[test]
    fn out_of_range_alpha_rejected_with_typed_error() {
        for alpha in [0.0, 1.0, -0.5, f64::NAN] {
            let cfg = DetectorConfig {
                alpha,
                ..DetectorConfig::default()
            };
            assert!(
                matches!(cfg.validate(), Err(ConfigError::AlphaOutOfRange(_))),
                "alpha={alpha}"
            );
        }
        assert!(DetectorConfig::default().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid detector config")]
    fn new_panics_on_invalid_config() {
        AnomalyDetector::new(
            trained_model(),
            DetectorConfig {
                window: SimDuration::ZERO,
                ..DetectorConfig::default()
            },
        );
    }

    #[test]
    fn intact_link_events_report_full_completeness() {
        let mut d = detector();
        let mut events = feed(&mut d, 0, 200, |i| {
            if i % 10 < 3 {
                synopsis(0, &[1, 2, 3, 4, 5], 10_000, SimTime::ZERO, i)
            } else {
                synopsis(0, &[1, 2, 4, 5], 9_500, SimTime::ZERO, i)
            }
        });
        events.extend(d.flush());
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.completeness == 1.0), "{events:?}");
        assert_eq!(d.tasks_lost(), 0);
    }

    #[test]
    fn known_loss_suppresses_marginal_rare_anomaly() {
        // 4 trained-rare tasks in 200 observed rejects at α = 0.001 on an
        // intact link, but with 2000 known-lost synopses the inflated
        // denominator keeps the null.
        let run = |lost: u64| {
            let mut d = detector();
            if lost > 0 {
                d.record_loss(HostId(0), SimTime::from_secs(10), lost);
            }
            let mut events = feed(&mut d, 0, 200, |i| {
                if i.is_multiple_of(50) {
                    synopsis(0, &[1, 2, 3, 4, 5], 10_000, SimTime::ZERO, i)
                } else {
                    synopsis(0, &[1, 2, 4, 5], 9_500, SimTime::ZERO, i)
                }
            });
            events.extend(d.flush());
            events
        };
        let intact = run(0);
        assert!(
            intact.iter().any(|e| e.kind == AnomalyKind::FlowRare),
            "{intact:?}"
        );
        let degraded = run(2000);
        assert!(
            !degraded.iter().any(|e| e.kind == AnomalyKind::FlowRare),
            "{degraded:?}"
        );
    }

    #[test]
    fn events_from_lossy_windows_carry_completeness() {
        let mut d = detector();
        // 100 observed + 300 lost in minute 0 → completeness 0.25. The
        // new-signature report fires regardless of loss.
        d.record_loss(HostId(0), SimTime::from_secs(30), 300);
        let mut events = feed(&mut d, 0, 100, |i| {
            if i == 7 {
                synopsis(0, &[1], 500, SimTime::ZERO, i)
            } else {
                synopsis(0, &[1, 2, 4, 5], 9_500, SimTime::ZERO, i)
            }
        });
        events.extend(d.flush());
        let new_event = events
            .iter()
            .find(|e| matches!(e.kind, AnomalyKind::FlowNew(_)))
            .expect("new-signature event");
        assert!((new_event.completeness - 0.25).abs() < 1e-9);
        assert_eq!(d.tasks_lost(), 300);
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        let mk = |i: u64| {
            if i % 10 < 3 {
                synopsis(0, &[1, 2, 3, 4, 5], 10_000, SimTime::ZERO, i)
            } else {
                synopsis(0, &[1, 2, 4, 5], 9_500, SimTime::ZERO, i)
            }
        };
        // Reference run: straight through.
        let mut reference = detector();
        let mut expected = feed(&mut reference, 0, 100, mk);
        expected.extend(feed(&mut reference, 1, 100, mk));
        expected.extend(reference.flush());
        // Snapshotted run: snapshot after minute 0, "crash", restore, and
        // feed minute 1 into the restored detector.
        let mut first = detector();
        let early = feed(&mut first, 0, 100, mk);
        assert!(early.is_empty(), "window 0 still open");
        let snap = first.clone();
        assert_eq!(snap.tasks_seen(), 100);
        drop(first); // the "crash"
        let mut restored = snap;
        let mut resumed = feed(&mut restored, 1, 100, mk);
        resumed.extend(restored.flush());
        assert_eq!(resumed, expected);
        assert_eq!(restored.tasks_seen(), reference.tasks_seen());
    }

    #[test]
    fn snapshot_preserves_loss_accounting() {
        let mut d = detector();
        d.record_loss(HostId(0), SimTime::from_secs(5), 40);
        assert_eq!(d.clone().tasks_lost(), 40);
        assert_eq!(restore_via_codec(&d).tasks_lost(), 40);
    }

    #[test]
    fn host_silent_kind_predicates() {
        let k = AnomalyKind::HostSilent { windows: 3 };
        assert!(k.is_liveness());
        assert!(!k.is_flow());
        assert!(!k.is_performance());
        assert!(k.to_string().contains("3 windows"));
    }

    #[test]
    fn model_unavailable_kind_predicates() {
        let k = AnomalyKind::ModelUnavailable;
        assert!(k.is_model_unavailable());
        assert!(!k.is_flow());
        assert!(!k.is_performance());
        assert!(!k.is_liveness());
        assert!(k.to_string().contains("model unavailable"));
    }

    #[test]
    fn collecting_detector_emits_model_unavailable_with_completeness() {
        let interner = Arc::new(SignatureInterner::new());
        let mut d = AnomalyDetector::collecting(interner, DetectorConfig::default()).unwrap();
        assert!(d.is_collect_only());
        // 100 observed + 100 known-lost in minute 0 → completeness 0.5.
        d.record_loss(HostId(0), SimTime::from_secs(30), 100);
        let mut events = feed(&mut d, 0, 100, |i| {
            synopsis(0, &[1, 2, 4, 5], 9_500, SimTime::ZERO, i)
        });
        events.extend(d.flush());
        assert_eq!(events.len(), 1, "{events:?}");
        let e = &events[0];
        assert_eq!(e.kind, AnomalyKind::ModelUnavailable);
        assert_eq!(e.p_value, None);
        assert_eq!(e.window_tasks, 100);
        assert!((e.completeness - 0.5).abs() < 1e-9);
        assert_eq!(d.tasks_seen(), 100);
    }

    #[test]
    fn promotion_flushes_bootstrap_windows_then_detects() {
        let interner = Arc::new(SignatureInterner::new());
        let mut d =
            AnomalyDetector::collecting(interner.clone(), DetectorConfig::default()).unwrap();
        let pre = feed(&mut d, 0, 50, |i| {
            synopsis(0, &[1, 2, 4, 5], 9_500, SimTime::ZERO, i)
        });
        assert!(pre.is_empty(), "window still open during bootstrap");
        let model = trained_model();
        let compiled = Arc::new(model.compile(&interner));
        let promoted = d.install_model(model, compiled);
        assert_eq!(promoted.len(), 1);
        assert_eq!(promoted[0].kind, AnomalyKind::ModelUnavailable);
        assert_eq!(promoted[0].window_tasks, 50);
        assert!(!d.is_collect_only());
        // The promoted detector now detects normally.
        let mut events = feed(&mut d, 2, 200, |i| {
            if i % 10 < 3 {
                synopsis(0, &[1, 2, 3, 4, 5], 10_000, SimTime::ZERO, i)
            } else {
                synopsis(0, &[1, 2, 4, 5], 9_500, SimTime::ZERO, i)
            }
        });
        events.extend(d.flush());
        assert!(
            events.iter().any(|e| e.kind == AnomalyKind::FlowRare),
            "{events:?}"
        );
        assert!(events.iter().all(|e| !e.kind.is_model_unavailable()));
    }

    #[test]
    fn hot_swap_drops_and_double_counts_nothing() {
        let mk = |i: u64| {
            if i % 10 < 3 {
                synopsis(0, &[1, 2, 3, 4, 5], 10_000, SimTime::ZERO, i)
            } else {
                synopsis(0, &[1, 2, 4, 5], 9_500, SimTime::ZERO, i)
            }
        };
        // Reference: no swap.
        let mut reference = detector();
        let mut expected = feed(&mut reference, 0, 100, mk);
        expected.extend(feed(&mut reference, 1, 100, mk));
        expected.extend(reference.flush());
        // Swap an (equally trained) model in with minute 0 still open.
        let mut swapped = detector();
        let mut events = feed(&mut swapped, 0, 100, mk);
        let model = trained_model();
        let compiled = Arc::new(model.compile(swapped.interner()));
        events.extend(swapped.install_model(model, compiled));
        events.extend(feed(&mut swapped, 1, 100, mk));
        events.extend(swapped.flush());
        assert_eq!(events, expected);
        assert_eq!(swapped.tasks_seen(), reference.tasks_seen());
    }

    fn mixed_mk(i: u64) -> TaskSynopsis {
        if i % 10 < 3 {
            synopsis(0, &[1, 2, 3, 4, 5], 10_000, SimTime::ZERO, i)
        } else if i % 10 == 9 {
            synopsis(0, &[1, 9], 500, SimTime::ZERO, i) // never trained
        } else {
            let dur = if i.is_multiple_of(7) { 120_000 } else { 9_500 };
            synopsis(0, &[1, 2, 4, 5], dur, SimTime::ZERO, i)
        }
    }

    /// Restore a copy of `d` the way a checkpoint load does: the model and
    /// interner round-trip through their own codecs first, then the
    /// detector's encoding re-links against the restored copies.
    fn restore_via_codec(d: &AnomalyDetector) -> AnomalyDetector {
        let mut sbuf = BytesMut::new();
        d.encode_into(&mut sbuf);
        let mut sbytes = sbuf.freeze();
        let interner = Arc::new(SignatureInterner::from_shard_contents(
            d.interner().shard_contents(),
        ));
        let mut mbuf = BytesMut::new();
        d.model().encode_into(&mut mbuf);
        let model = Arc::new(OutlierModel::decode_from(&mut mbuf.freeze()).unwrap());
        let compiled = Arc::new(model.compile(&interner));
        let decoded = AnomalyDetector::decode_from(&mut sbytes, model, compiled, interner).unwrap();
        assert!(sbytes.is_empty(), "decoder must consume the full encoding");
        decoded
    }

    #[test]
    fn snapshot_codec_round_trip_resumes_identically() {
        let mut original = detector();
        original.record_loss(HostId(0), SimTime::from_secs(10), 25);
        let early = feed(&mut original, 0, 120, mixed_mk);
        assert!(early.is_empty(), "windows still open");
        let mut restored = restore_via_codec(&original);
        let mut a = feed(&mut original, 1, 120, mixed_mk);
        a.extend(original.flush());
        let mut b = feed(&mut restored, 1, 120, mixed_mk);
        b.extend(restored.flush());
        assert_eq!(a, b);
        assert!(!a.is_empty(), "stream should have produced events");
        assert_eq!(original.tasks_seen(), restored.tasks_seen());
        assert_eq!(original.tasks_lost(), restored.tasks_lost());
    }

    #[test]
    fn snapshot_decode_rejects_truncation() {
        let mut d = detector();
        d.record_loss(HostId(0), SimTime::from_secs(10), 5);
        feed(&mut d, 0, 60, mixed_mk);
        let mut buf = BytesMut::new();
        d.encode_into(&mut buf);
        let full = buf.freeze();
        for len in 0..full.len() {
            let mut prefix = full.slice(0..len);
            let (model, compiled) = (d.model.clone(), d.compiled.clone());
            assert!(
                AnomalyDetector::decode_from(&mut prefix, model, compiled, d.interner.clone())
                    .is_err(),
                "prefix of {len} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn snapshot_decode_rejects_ids_and_configs_out_of_range() {
        // Hand-written snapshots of one window of one task and one loss
        // entry. No encoder writes a wider id or an invalid config; decoded,
        // one would alias a real host or stage, the other panic the first
        // observation (a zero window divides by zero).
        let snapshot = |window_us: u64, alpha: f64, host: u64, stage: u64, loss_host: u64| {
            let mut buf = BytesMut::new();
            buf.put_u8(0);
            put_varint(&mut buf, window_us);
            put_f64(&mut buf, alpha);
            // Both minimums, the new-signature cap, watermark, seen, lost;
            // one window; one loss entry.
            let fields = [15, 6, 8, 0, 0, 0, 1, host, stage, 0, 1, 0, 0, 0, 0];
            for v in fields.into_iter().chain([1, loss_host, 0, 3]) {
                put_varint(&mut buf, v);
            }
            buf.freeze()
        };
        let d = detector();
        let decode = |mut bytes: Bytes| {
            let (model, compiled) = (d.model.clone(), d.compiled.clone());
            AnomalyDetector::decode_from(&mut bytes, model, compiled, d.interner.clone())
        };
        let window = DetectorConfig::default().window.as_micros();
        assert!(decode(snapshot(window, 0.001, 7, 3, 7)).is_ok());
        for (case, bytes) in [
            ("wide host", snapshot(window, 0.001, 70_000, 3, 7)),
            ("wide stage", snapshot(window, 0.001, 7, 70_000, 7)),
            ("wide loss host", snapshot(window, 0.001, 7, 3, 70_000)),
            ("zero window", snapshot(0, 0.001, 7, 3, 7)),
            ("alpha out of range", snapshot(window, 1.5, 7, 3, 7)),
        ] {
            let err = decode(bytes).expect_err(case);
            assert!(
                matches!(err, DecodeError::LengthOutOfRange(_)),
                "{case}: {err:?}"
            );
        }

        let mut d = detector();
        feed(&mut d, 0, 60, mixed_mk); // open windows reference interned sigs
        let mut buf = BytesMut::new();
        d.encode_into(&mut buf);
        // An empty interner cannot resolve the encoding's sig ids.
        let empty = Arc::new(SignatureInterner::new());
        let compiled = Arc::new(d.model().compile(&empty));
        let model = Arc::new(
            OutlierModel::decode_from(&mut {
                let mut mbuf = BytesMut::new();
                d.model().encode_into(&mut mbuf);
                mbuf.freeze()
            })
            .unwrap(),
        );
        let err = AnomalyDetector::decode_from(&mut buf.freeze(), model, compiled, empty)
            .expect_err("out-of-sync interner must be rejected");
        assert!(matches!(err, DecodeError::LengthOutOfRange(_)), "{err:?}");
    }

    #[test]
    fn snapshot_decode_rejects_performance_groups_out_of_order() {
        // The encoder writes a window's groups in ascending id order, each
        // once; a repeated or descending id would split one signature's
        // group in two.
        let d = detector();
        let ids =
            [[1, 2], [3, 4]].map(|points| d.interner().intern_points(&points.map(LogPointId)));
        let (lo, hi) = (ids[0].0.min(ids[1].0).into(), ids[0].0.max(ids[1].0).into());
        let decode = |groups: [u64; 2]| {
            let mut buf = BytesMut::new();
            buf.put_u8(0);
            put_varint(&mut buf, DetectorConfig::default().window.as_micros());
            put_f64(&mut buf, 0.001);
            // Both minimums, the cap, watermark, seen, lost; one window of
            // one task with two groups; then no loss entry.
            for v in [15, 6, 8, 0, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 2] {
                put_varint(&mut buf, v);
            }
            for sig in groups {
                for v in [sig, 0, 1] {
                    put_varint(&mut buf, v);
                }
            }
            put_varint(&mut buf, 0);
            let (model, compiled) = (d.model.clone(), d.compiled.clone());
            AnomalyDetector::decode_from(&mut buf.freeze(), model, compiled, d.interner.clone())
        };
        assert_eq!(decode([lo, hi]).expect("ascending").open_windows(), 1);
        for (case, groups) in [("descending", [hi, lo]), ("repeated", [lo, lo])] {
            let err = decode(groups).expect_err(case);
            assert!(
                matches!(err, DecodeError::LengthOutOfRange(_)),
                "{case}: {err:?}"
            );
        }
    }

    #[test]
    fn partition_then_merge_round_trips() {
        let mut d = detector();
        d.record_loss(HostId(1), SimTime::from_secs(20), 10);
        for i in 0..300u64 {
            let mut s = mixed_mk(i);
            s.host = HostId((i % 3) as u16);
            s.stage = StageId((i % 2) as u16);
            s.start = SimTime::from_millis(i * 15);
            observe_one(&mut d, &s);
        }
        let mut orig = BytesMut::new();
        d.encode_into(&mut orig);
        let parts = d.partition(3, |h, s| h.0 as usize + s.0 as usize);
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().any(|p| p.open.len() > 0));
        let merged = AnomalyDetector::merge(parts).expect("nonempty parts");
        let mut back = BytesMut::new();
        merged.encode_into(&mut back);
        assert_eq!(&orig[..], &back[..]);
        assert!(AnomalyDetector::merge(Vec::new()).is_none());
    }

    /// One never-trained task of `host` in `minute`, interned.
    fn untrained(d: &AnomalyDetector, host: u16, minute: u64) -> InternedFeature {
        let mut s = synopsis(0, &[1], 500, SimTime::from_mins(minute), minute);
        s.host = HostId(host);
        InternedFeature::from_synopsis(&s, d.interner())
    }

    /// Two shards whose watermarks stand in minutes 10 and 7, merged: the
    /// second part's loss entry for (host 2, minute 7) is stale under the
    /// merged watermark, and so is its open window on host 0 when
    /// `stale_bucket` keeps it.
    fn merged_across_watermarks(stale_bucket: bool) -> AnomalyDetector {
        let model = trained_model();
        let interner = Arc::new(SignatureInterner::new());
        let compiled = Arc::new(model.compile(&interner));
        let part = || {
            let config = DetectorConfig::default();
            AnomalyDetector::with_shared(model.clone(), compiled.clone(), interner.clone(), config)
        };
        let mut ahead = part();
        assert!(ahead.observe_interned(&untrained(&ahead, 0, 10)).is_empty());
        let mut behind = part();
        assert!(behind
            .observe_interned(&untrained(&behind, 0, 7))
            .is_empty());
        if !stale_bucket {
            behind.flush();
        }
        behind.record_loss(HostId(2), SimTime::from_mins(7), 9);
        AnomalyDetector::merge(vec![ahead, behind]).expect("two parts")
    }

    /// `(host, window minute, window_tasks, completeness)` of each event,
    /// all of which must be new-signature reports.
    fn new_signature_reports(events: &[AnomalyEvent]) -> Vec<(u16, u64, u64, f64)> {
        let report = |e: &AnomalyEvent| {
            assert!(matches!(e.kind, AnomalyKind::FlowNew(_)), "{e:?}");
            assert_eq!(e.outliers, e.window_tasks);
            let minute = e.window_start.as_micros() / 60_000_000;
            (e.host.0, minute, e.window_tasks, e.completeness)
        };
        events.iter().map(report).collect()
    }

    #[test]
    fn straggler_meeting_a_stale_bucket_takes_the_insert_and_close_path() {
        // The straggler closes together with the restored stale window,
        // in key order, on the scalar and on the batch path.
        let mut scalar = merged_across_watermarks(true);
        let late = untrained(&scalar, 1, 5);
        let events = scalar.observe_interned(&late);
        let expected = [(0, 7, 1, 1.0), (1, 5, 1, 1.0)];
        assert_eq!(new_signature_reports(&events), expected);
        assert_eq!((scalar.late_seen(), scalar.open_windows()), (1, 1));

        let mut batched = merged_across_watermarks(true);
        let mut batch = SynopsisBatch::new();
        batch.push_feature(&untrained(&batched, 1, 5), SimTime::ZERO);
        let events = batched.observe_batch(&batch, &mut VerdictMask::new());
        assert_eq!(new_signature_reports(&events), expected);
        assert_eq!((batched.late_seen(), batched.open_windows()), (1, 1));

        // A straggler of the stale window itself joins it.
        let mut joined = merged_across_watermarks(true);
        let late = untrained(&joined, 0, 7);
        let events = joined.observe_interned(&late);
        assert_eq!(new_signature_reports(&events), [(0, 7, 2, 1.0)]);
    }

    #[test]
    fn straggler_alone_drops_the_loss_entries_it_outdates() {
        // The merged loss entry is live for the window it names…
        let mut d = merged_across_watermarks(false);
        let late = untrained(&d, 2, 7);
        let events = d.observe_interned(&late);
        assert_eq!(new_signature_reports(&events), [(2, 7, 1, 0.1)]);
        // …and gone once any straggler has closed, as after any close.
        let mut d = merged_across_watermarks(false);
        for (minute, path) in [(6, "scalar"), (7, "batch")] {
            let late = untrained(&d, 2, minute);
            let events = if path == "scalar" {
                d.observe_interned(&late)
            } else {
                let mut batch = SynopsisBatch::new();
                batch.push_feature(&late, SimTime::ZERO);
                d.observe_batch(&batch, &mut VerdictMask::new())
            };
            assert_eq!(new_signature_reports(&events), [(2, minute, 1, 1.0)]);
        }
        assert_eq!((d.late_seen(), d.open_windows()), (2, 1));
        assert_eq!(d.tasks_lost(), 9);
    }

    #[test]
    fn performance_events_sort_by_signature_and_resolve_only_what_they_emit() {
        use crate::intern::RESOLVES;
        // Five equally common flows; the model swapped in before the
        // window closes never saw the last.
        let flows = [[1u16, 2], [3, 4], [5, 6], [7, 8], [9, 10]];
        let train = |flows: &[[u16; 2]]| {
            let mut b = ModelBuilder::new();
            for i in 0..2_000u64 {
                for points in flows {
                    b.observe(&synopsis(0, points, 1_000 + (i % 53) * 5, SimTime::ZERO, i));
                }
            }
            Arc::new(b.build(ModelConfig::default()))
        };
        // Interned in reverse, so id order is not signature order.
        let interner = Arc::new(SignatureInterner::new());
        let ids: Vec<SigId> = flows
            .iter()
            .rev()
            .map(|points| interner.intern_points(&points.map(LogPointId)))
            .rev()
            .collect();
        assert!(
            !ids[..3].is_sorted(),
            "pick flows whose ids are out of order: {ids:?}"
        );
        let (model, swapped) = (train(&flows), train(&flows[..4]));
        let compiled = Arc::new(model.compile(&interner));
        let config = DetectorConfig::default();
        let mut d = AnomalyDetector::with_shared(model, compiled, interner.clone(), config);
        // Half of each of the first three groups is grossly slow; the
        // fourth stays under `min_group_tasks`, the fifth loses its p0.
        let mut uid = 0;
        for (points, tasks) in flows.iter().zip([20, 20, 20, 3, 20u64]) {
            for i in 0..tasks {
                let dur = if i % 2 == 0 { 500_000 } else { 1_100 };
                uid += 1;
                let s = synopsis(0, points, dur, SimTime::from_millis(uid), uid);
                assert!(observe_one(&mut d, &s).is_empty());
            }
        }
        let compiled = Arc::new(swapped.compile(&interner));
        assert!(d.install_model(swapped, compiled).is_empty());
        assert_eq!(d.compiled().perf_p0(StageId(0), ids[4]), None);

        let before = RESOLVES.with(|n| n.get());
        let events = d.flush();
        assert_eq!(RESOLVES.with(|n| n.get()) - before, 3, "{events:?}");
        let emitted: Vec<Signature> = events
            .iter()
            .map(|e| match &e.kind {
                AnomalyKind::Performance(sig) => sig.clone(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        let expected: Vec<Signature> = flows[..3]
            .iter()
            .map(|points| Signature::from_points(points.map(LogPointId)))
            .collect();
        assert_eq!(emitted, expected);
        assert!(events
            .iter()
            .all(|e| (e.outliers, e.window_tasks) == (10, 20)));
    }

    /// The order oracle's window width.
    const ORACLE_WINDOW_US: u64 = 1_000_000;

    /// One row of an order-oracle stream: `(host, stage, start_us,
    /// never-trained)`.
    type Row = (u16, u16, u64, bool);

    /// What the oracle compares, per flow event: `(host, stage,
    /// window_start_us, window_tasks, outliers)`.
    type Report = (u16, u16, u64, u64, u64);

    /// The order oracle's model of window turnover: every open window in
    /// one ordered map, `(n, outliers)` by `(host, stage, idx)`, closed by
    /// scanning the whole map. It shares no code with `OpenWindows` or the
    /// detector's close path; it restates their rules.
    #[derive(Debug, Default)]
    struct NaiveWindows {
        open: BTreeMap<(u16, u16, u64), (u64, u64)>,
        watermark: u64,
    }

    /// What the oracle's inputs reached, summed over its cases.
    #[derive(Debug, Default)]
    struct OrderReached {
        /// Closes that reported windows of two or more indices.
        multi_index_closes: usize,
        /// Stragglers tested alone.
        alone: usize,
        /// Closes, in a merged detector, of a window the merge brought in
        /// below the grace bound.
        merged_stale: usize,
        /// Batches after which the store held an entry that counted
        /// nothing (a recycled accumulator not yet reused).
        empty_entries: usize,
    }

    impl NaiveWindows {
        fn observe(
            &mut self,
            row: Row,
            stamp: u64,
            out: &mut Vec<Report>,
            reached: &mut OrderReached,
        ) {
            let w = ORACLE_WINDOW_US;
            if stamp > self.watermark {
                let grew = stamp / w > self.watermark / w;
                self.watermark = stamp;
                if grew {
                    self.close_stale(out, reached);
                }
            }
            let (host, stage, start, new) = row;
            let (idx, closable) = (start / w, self.watermark / w);
            let late = idx + 1 < closable;
            if late && !self.open.keys().any(|k| k.2 + 1 < closable) {
                reached.alone += 1;
                report(out, (host, stage, idx), (1, u64::from(new)));
                return;
            }
            let window = self.open.entry((host, stage, idx)).or_insert((0, 0));
            window.0 += 1;
            window.1 += u64::from(new);
            if late {
                self.close_stale(out, reached);
            }
        }

        fn close_stale(&mut self, out: &mut Vec<Report>, reached: &mut OrderReached) {
            let closable = self.watermark / ORACLE_WINDOW_US;
            self.close_where(|idx| idx + 1 < closable, out, reached);
        }

        fn close_where(
            &mut self,
            stale: impl Fn(u64) -> bool,
            out: &mut Vec<Report>,
            reached: &mut OrderReached,
        ) {
            let first = out.len();
            let closing: Vec<_> = self.open.keys().copied().filter(|k| stale(k.2)).collect();
            for key in closing {
                let window = self.open.remove(&key).expect("listed");
                report(out, key, window);
            }
            let reported = &out[first..];
            reached.multi_index_closes +=
                usize::from(reported.iter().any(|r| r.2 != reported[0].2));
        }

        /// Fold a shard's model into this one, as `merge` folds detectors.
        fn absorb(&mut self, part: NaiveWindows) {
            for (key, (n, outliers)) in part.open {
                let window = self.open.entry(key).or_insert((0, 0));
                window.0 += n;
                window.1 += outliers;
            }
            self.watermark = self.watermark.max(part.watermark);
        }
    }

    /// A closed window's flow report: one new-signature event when it
    /// counted a never-trained task (the one such signature the streams
    /// use), none otherwise.
    fn report(out: &mut Vec<Report>, (host, stage, idx): (u16, u16, u64), (n, new): (u64, u64)) {
        if new > 0 {
            out.push((host, stage, idx * ORACLE_WINDOW_US, n, new));
        }
    }

    /// The flow events of `events` as the oracle reports them.
    fn flow_reports(events: &[AnomalyEvent]) -> Vec<Report> {
        let flow = events.iter().filter(|e| e.kind.is_flow());
        flow.map(|e| {
            let start = e.window_start.as_micros();
            (e.host.0, e.stage.0, start, e.window_tasks, e.outliers)
        })
        .collect()
    }

    /// Seeded streams for the order oracle.
    struct OracleStreams<'a> {
        runner: &'a mut TestRunner,
        hosts: u64,
        /// Mean clock step between rows.
        step: u64,
    }

    impl OracleStreams<'_> {
        fn draw(&mut self, n: u64) -> u64 {
            self.runner.next_u64() % n
        }

        /// About `rows` rows from `*clock` on, cut into batches of 0–47:
        /// the clock creeps and, once in sixteen rows, jumps 0–3 windows;
        /// one row in eight is a straggler up to four windows back; one in
        /// three is never-trained. Only hosts `route` accepts are kept.
        fn batches(
            &mut self,
            clock: &mut u64,
            rows: u64,
            route: impl Fn(u16) -> bool,
        ) -> Vec<Vec<Row>> {
            let w = ORACLE_WINDOW_US;
            let mut out = Vec::new();
            let mut left = rows;
            while left > 0 {
                let len = self.draw(48).min(left);
                left -= len;
                let mut batch = Vec::new();
                for _ in 0..len {
                    *clock += if self.draw(16) == 0 {
                        w * self.draw(4)
                    } else {
                        self.draw(2 * self.step)
                    };
                    let back = if self.draw(8) == 0 {
                        self.draw(4 * w)
                    } else {
                        0
                    };
                    let host = self.draw(self.hosts) as u16;
                    let row = (
                        host,
                        self.draw(2) as u16,
                        clock.saturating_sub(back),
                        self.draw(3) == 0,
                    );
                    if route(host) {
                        batch.push(row);
                    }
                }
                out.push(batch);
            }
            out
        }
    }

    /// Feed `batches` to the detector and to its model, stamping each row
    /// with the running max of `*stamp` and its start, and hold the
    /// detector to the model after every batch.
    fn feed_oracle(
        d: &mut AnomalyDetector,
        naive: &mut NaiveWindows,
        stamp: &mut u64,
        batches: &[Vec<Row>],
        reached: &mut OrderReached,
    ) -> Result<(), String> {
        let mut verdicts = VerdictMask::new();
        for rows in batches {
            let mut batch = SynopsisBatch::new();
            let mut want = Vec::new();
            for (uid, &row) in rows.iter().enumerate() {
                let (host, stage, start, new) = row;
                let points: &[u16] = if new { &[9] } else { &[1, 2] };
                let mut s = crate::testkit::synopsis_on(
                    host,
                    points,
                    1_100,
                    SimTime::from_micros(start),
                    uid as u64,
                );
                s.stage = StageId(stage);
                *stamp = (*stamp).max(start);
                batch.push_feature(
                    &InternedFeature::from_synopsis(&s, d.interner()),
                    SimTime::from_micros(*stamp),
                );
                naive.observe(row, *stamp, &mut want, reached);
            }
            let got = flow_reports(&d.observe_batch(&batch, &mut verdicts));
            if got != want {
                return Err(format!("batch {rows:?}: events {got:?}, model {want:?}"));
            }
            check_store(d, naive, reached)?;
        }
        Ok(())
    }

    /// The detector's open-window count and wire form against the model:
    /// as many windows written as the model holds open (none with
    /// `n == 0`), and encode → decode → encode gives the same bytes.
    fn check_store(
        d: &AnomalyDetector,
        naive: &NaiveWindows,
        reached: &mut OrderReached,
    ) -> Result<(), String> {
        let open = naive.open.len();
        if d.open_windows() != open {
            return Err(format!("{} open windows, model {open}", d.open_windows()));
        }
        let entries: usize = d.open.by_index.values().map(FastMap::len).sum();
        reached.empty_entries += usize::from(entries > open);
        let mut first = BytesMut::new();
        d.encode_into(&mut first);
        let mut bytes = first.clone().freeze();
        get_u8(&mut bytes).map_err(|e| e.to_string())?;
        put_nothing(get_varint(&mut bytes))?;
        get_f64(&mut bytes).map_err(|e| e.to_string())?;
        for _ in 0..6 {
            put_nothing(get_varint(&mut bytes))?;
        }
        let written = get_varint(&mut bytes).map_err(|e| e.to_string())?;
        if written != open as u64 {
            return Err(format!("{written} windows written, model {open}"));
        }
        let (model, compiled) = (d.model.clone(), d.compiled.clone());
        let decoded = AnomalyDetector::decode_from(
            &mut first.clone().freeze(),
            model,
            compiled,
            d.interner.clone(),
        )
        .map_err(|e| e.to_string())?;
        let mut second = BytesMut::new();
        decoded.encode_into(&mut second);
        if first != second || decoded.open_windows() != open {
            return Err("encode → decode → encode moved the bytes".into());
        }
        Ok(())
    }

    fn put_nothing(field: Result<u64, DecodeError>) -> Result<(), String> {
        field.map(drop).map_err(|e| e.to_string())
    }

    /// One seeded case of the order oracle: 1–300 hosts on two stages; a
    /// fresh detector, or one merged from 2–3 shards whose watermarks
    /// stand in different windows; up to 600 rows; then a flush.
    fn order_case(runner: &mut TestRunner, reached: &mut OrderReached) -> Result<(), String> {
        let model = crate::testkit::multi_stage_model();
        let interner = Arc::new(SignatureInterner::new());
        let compiled = Arc::new(model.compile(&interner));
        let config = DetectorConfig {
            window: SimDuration::from_micros(ORACLE_WINDOW_US),
            ..DetectorConfig::default()
        };
        let fresh = || {
            AnomalyDetector::with_shared(model.clone(), compiled.clone(), interner.clone(), config)
        };
        let hosts = 1 + runner.next_u64() % 300;
        let step = 1 + runner.next_u64() % (ORACLE_WINDOW_US / 4);
        let mut s = OracleStreams {
            runner,
            hosts,
            step,
        };
        let (mut d, mut naive) = (fresh(), NaiveWindows::default());
        if s.draw(2) == 0 {
            let shards = 2 + s.draw(2);
            let mut parts = Vec::new();
            for shard in 0..shards {
                let (mut part, mut part_naive, mut stamp) = (fresh(), NaiveWindows::default(), 0);
                let mut clock = ORACLE_WINDOW_US * s.draw(6);
                let rows = s.draw(200);
                let batches = s.batches(&mut clock, rows, |h| u64::from(h) % shards == shard);
                feed_oracle(&mut part, &mut part_naive, &mut stamp, &batches, reached)?;
                parts.push(part);
                naive.absorb(part_naive);
            }
            d = AnomalyDetector::merge(parts).expect("two or more shards");
            check_store(&d, &naive, reached)?;
            let closable = naive.watermark / ORACLE_WINDOW_US;
            let stale = naive.open.keys().filter(|k| k.2 + 1 < closable).count();
            reached.merged_stale += stale;
        }
        let (mut clock, mut stamp) = (naive.watermark, naive.watermark);
        let rows = s.draw(600);
        let batches = s.batches(&mut clock, rows, |_| true);
        feed_oracle(&mut d, &mut naive, &mut stamp, &batches, reached)?;
        let mut want = Vec::new();
        naive.close_where(|_| true, &mut want, reached);
        let got = flow_reports(&d.flush());
        if got != want {
            return Err(format!("flush: events {got:?}, model {want:?}"));
        }
        check_store(&d, &naive, reached)
    }

    #[test]
    fn window_turnover_matches_a_naive_ordered_model() {
        // 256 seeded cases: after every batch, the same flow events in the
        // same order as a model that keeps every window in one ordered
        // map, the same open-window count, and a wire form that writes
        // exactly the open windows and round-trips byte for byte.
        let mut reached = OrderReached::default();
        for seed in 0..256 {
            let mut runner = TestRunner::from_seed(seed);
            if let Err(why) = order_case(&mut runner, &mut reached) {
                panic!("seed {seed}: {why}");
            }
        }
        // The inputs reached what the property is about.
        assert!(reached.multi_index_closes >= 500, "{reached:?}");
        assert!(reached.alone >= 2_000, "{reached:?}");
        assert!(reached.merged_stale >= 300, "{reached:?}");
        assert!(reached.empty_entries >= 1_500, "{reached:?}");
    }

    proptest! {
        /// Encode → decode yields a detector whose subsequent
        /// observations produce identical events on random feature
        /// streams.
        #[test]
        fn snapshot_round_trip_preserves_observe_output(
            stream in proptest::collection::vec(
                (0u16..3, 0u16..2, proptest::collection::vec(1u16..8, 1..5),
                 500u64..200_000, 0u64..300_000_000),
                1..120,
            ),
            split_seed in 0usize..1000,
        ) {
            let split = split_seed % (stream.len() + 1);
            let to_synopsis = |(h, st, pts, dur, start): &(u16, u16, Vec<u16>, u64, u64), uid| {
                let mut s = synopsis(*st, pts, *dur, SimTime::from_micros(*start), uid);
                s.host = HostId(*h);
                s
            };
            let mut original = detector();
            for (uid, item) in stream[..split].iter().enumerate() {
                observe_one(&mut original, &to_synopsis(item, uid as u64));
            }
            let mut restored = restore_via_codec(&original);
            for (uid, item) in stream[split..].iter().enumerate() {
                let s = to_synopsis(item, uid as u64);
                // observe_one() interns against each detector's own interner.
                prop_assert_eq!(
                    observe_one(&mut restored, &s),
                    observe_one(&mut original, &s)
                );
            }
            prop_assert_eq!(restored.flush(), original.flush());
            prop_assert_eq!(restored.tasks_seen(), original.tasks_seen());
        }
    }
}
