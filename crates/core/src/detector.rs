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
use crate::intern::{SigId, SignatureInterner};
use crate::model::{
    CompiledModel, ConfigError, ModelBuilder, ModelConfig, OutlierModel, RowVerdict, TaskClass,
    VerdictMask,
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
    // `(perf outliers, group n)` of each performance group of the
    // window's stage, indexed by the slot the model in force gives its
    // signature (`CompiledModel::slots`); `(0, 0)` for a group that has
    // counted nothing. Sized when the window opens, zeroed when it closes.
    perf: Vec<(u64, u64)>,
    // `(interned signature, perf outliers, group n)` of each group whose
    // signature has no slot under the model in force, ascending by id.
    // Only a window left open across `install_model`, or decoded from a
    // checkpoint, holds one; no row counts into it.
    unslotted: Vec<(SigId, u64, u64)>,
}

impl WindowAccum {
    /// Ready an empty accumulator to count rows of a stage with `slots`
    /// performance groups.
    #[inline]
    fn open(&mut self, slots: usize) {
        if self.perf.len() != slots {
            self.perf.clear();
            self.perf.resize(slots, (0, 0));
        }
    }

    /// Count one classified task: indexed adds only. `sig` is read only
    /// for a new signature.
    #[inline]
    fn count(&mut self, verdict: RowVerdict, sig: impl FnOnce() -> SigId, max_new: usize) {
        self.n += 1;
        if let Some(slot) = verdict.slot() {
            let outlier = u64::from(verdict.class() == TaskClass::PerformanceOutlier);
            let group = &mut self.perf[slot];
            (group.0, group.1) = (group.0 + outlier, group.1 + 1);
            return;
        }
        match verdict.class() {
            TaskClass::FlowOutlier => self.rare_flow_outliers += 1,
            TaskClass::NewSignature => {
                self.new_signature_tasks += 1;
                self.enumerate_new(sig(), max_new);
            }
            // A trained signature outside performance detection.
            TaskClass::Normal | TaskClass::PerformanceOutlier => {}
        }
    }

    /// Every group that has counted, `(signature, outliers, n)` ascending
    /// by signature id; `slots` is the window's stage's under the model
    /// in force.
    fn groups(&self, slots: &[(SigId, f64)]) -> Vec<(SigId, u64, u64)> {
        let slotted = slots.iter().zip(&self.perf);
        let counted = slotted.filter(|(_, &(_, n))| n > 0);
        let mut groups: Vec<_> = counted.map(|(&(sig, _), &(o, n))| (sig, o, n)).collect();
        groups.extend_from_slice(&self.unslotted);
        groups.sort_unstable_by_key(|g| g.0);
        groups
    }

    /// Add `n` tasks, `outliers` of them over threshold, to `sig`'s group:
    /// into `slot`, its slot under the model in force, or by id.
    fn add_group(&mut self, (sig, outliers, n): (SigId, u64, u64), slot: Option<usize>) {
        let (group_outliers, group_n) = match slot {
            Some(slot) => {
                let g = &mut self.perf[slot];
                (&mut g.0, &mut g.1)
            }
            None => {
                let found = self.unslotted.binary_search_by_key(&sig, |g| g.0);
                let at = found.unwrap_or_else(|at| {
                    self.unslotted.insert(at, (sig, 0, 0));
                    at
                });
                let g = &mut self.unslotted[at];
                (&mut g.1, &mut g.2)
            }
        };
        (*group_outliers, *group_n) = (*group_outliers + outliers, *group_n + n);
    }

    /// Re-key an open window of `stage` from the slots of `from` to those
    /// of `to`: a model swap with the window open.
    fn reslot(&mut self, stage: StageId, from: &CompiledModel, to: &CompiledModel) {
        let groups = self.groups(from.slots(stage));
        self.unslotted.clear();
        self.perf.clear();
        self.open(to.slots(stage).len());
        for group in groups {
            self.add_group(group, to.perf_slot(stage, group.0));
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
        self.perf.fill((0, 0));
        self.unslotted.clear();
    }
}

/// Identity of one detection window: `(host, stage, window index)`.
type WindowKey = (HostId, StageId, u64);

/// `(host, stage)` → the pair's row: an open-addressing table of
/// `(host, stage, row)` words, linear probing from a Fibonacci hash of
/// the pair, at most half full. Its size follows the pairs that have a
/// window open, whatever ids they carry.
#[derive(Debug, Default, Clone)]
struct PairIndex {
    /// `pair << 32 | row`, or `EMPTY`; a power-of-two count.
    slots: Vec<u64>,
    /// `64 − log2(slots.len())`: a hash's top bits pick the first slot.
    shift: u32,
    len: usize,
}

/// A free slot: no row reaches `u32::MAX`.
const EMPTY: u64 = u64::MAX;

impl PairIndex {
    #[inline]
    fn pair(host: HostId, stage: StageId) -> u64 {
        u64::from(host.0) << 16 | u64::from(stage.0)
    }

    /// The slot a pair's probe starts at.
    #[inline]
    fn home(&self, pair: u64) -> usize {
        (pair.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    #[inline]
    fn get(&self, host: HostId, stage: StageId) -> Option<u32> {
        let mask = self.slots.len().checked_sub(1)?;
        let pair = Self::pair(host, stage);
        let mut at = self.home(pair) & mask;
        loop {
            match self.slots[at] {
                EMPTY => return None,
                word if word >> 32 == pair => return Some(word as u32),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Add a pair that has no row.
    fn insert(&mut self, host: HostId, stage: StageId, row: u32) {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let pair = Self::pair(host, stage);
        self.put(pair << 32 | u64::from(row));
        self.len += 1;
    }

    fn put(&mut self, word: u64) {
        let mask = self.slots.len() - 1;
        let mut at = self.home(word >> 32);
        while self.slots[at] != EMPTY {
            at = (at + 1) & mask;
        }
        self.slots[at] = word;
    }

    /// Double the table (16 slots at first), re-placing every pair.
    #[cold]
    fn grow(&mut self) {
        let wider = (2 * self.slots.len()).max(16);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; wider]);
        self.shift = 64 - wider.trailing_zeros();
        for word in old.into_iter().filter(|&w| w != EMPTY) {
            self.put(word);
        }
    }

    /// Drop a pair that has a row, shifting back the entries its slot
    /// let pass so no probe stops short.
    fn remove(&mut self, host: HostId, stage: StageId) {
        let (pair, mask) = (Self::pair(host, stage), self.slots.len() - 1);
        let mut hole = self.home(pair);
        loop {
            let word = self.slots[hole];
            assert_ne!(word, EMPTY, "only a pair with a row is removed");
            if word >> 32 == pair {
                break;
            }
            hole = (hole + 1) & mask;
        }
        let mut at = hole;
        loop {
            at = (at + 1) & mask;
            let word = self.slots[at];
            if word == EMPTY {
                break;
            }
            // An entry may fill the hole unless its probe starts after the
            // hole, cyclically, at or before where it sits.
            let home = self.home(word >> 32);
            if (at.wrapping_sub(home) & mask) >= (at.wrapping_sub(hole) & mask) {
                self.slots[hole] = word;
                hole = at;
            }
        }
        self.slots[hole] = EMPTY;
        self.len -= 1;
    }
}

/// The windows of one window index: an accumulator per pair row.
#[derive(Debug, Default)]
struct Window {
    idx: u64,
    /// Indexed by pair row; an entry with `n == 0` is not a window.
    accs: Vec<WindowAccum>,
    /// The rows whose window here is open, in opening order.
    opened: Vec<u32>,
}

/// The open detection windows.
///
/// Every `(host, stage)` pair with a window open holds a **row**, found
/// with one probe of a pair table; every live window index holds a
/// [`Window`], an accumulator per row. Only the watermark's own index and
/// the one before it are live (a straggler never enters the store, see
/// `AnomalyDetector::account`), so a row's window is found by comparing
/// its index with the last two and indexing that window's accumulators by
/// the row. Any other index — a detector merged from shards whose
/// watermarks stood in different windows, or a row stamped behind its own
/// start — takes a search of the sorted live windows.
///
/// **A window is open while its accumulator has counted a row (`n > 0`).**
/// `windows` counts exactly those, so [`AnomalyDetector::open_windows`] is
/// O(1), and each window lists its open rows, so closing visits only the
/// windows it closes: it sorts their keys, tests each accumulator by
/// reference, clears it in place, and hands the row back once the pair has
/// no other window open. The closed [`Window`] waits as `spare` for the next
/// index to open, its accumulators and the vectors they grew kept, so
/// steady-state turnover allocates nothing; a row handed back goes on the
/// free list, which can hold every row.
///
/// The spare window and the key scratch are not state: they are not in
/// the wire form, and a clone (the restart copy) carries neither, nor any
/// accumulator that has counted nothing.
#[derive(Debug, Default)]
struct OpenWindows {
    /// `(host, stage)` → row, for every pair with a window open.
    pairs: PairIndex,
    /// The pair each row was last given to.
    rows: Vec<(HostId, StageId)>,
    /// Rows handed back; its capacity is `rows.len()` or more.
    free: Vec<u32>,
    /// The live window indices, ascending.
    live: Vec<Window>,
    /// Windows open: accumulators with `n > 0`.
    windows: usize,
    /// The last window closed, its accumulators cleared, for the next index.
    spare: Window,
    /// The keys and rows of the windows one close tests, reused.
    closing: Vec<(WindowKey, u32)>,
}

impl Clone for OpenWindows {
    /// The open windows only: no spare, no scratch, and an empty
    /// accumulator wherever a row has counted nothing.
    fn clone(&self) -> OpenWindows {
        let live = self.live.iter().map(|w| Window {
            idx: w.idx,
            accs: w
                .accs
                .iter()
                .map(|acc| match acc.n {
                    0 => WindowAccum::default(),
                    _ => acc.clone(),
                })
                .collect(),
            opened: w.opened.clone(),
        });
        let mut free = Vec::with_capacity(self.rows.len());
        free.extend_from_slice(&self.free);
        OpenWindows {
            pairs: self.pairs.clone(),
            rows: self.rows.clone(),
            free,
            live: live.collect(),
            windows: self.windows,
            ..OpenWindows::default()
        }
    }
}

impl OpenWindows {
    fn len(&self) -> usize {
        self.windows
    }

    /// The accumulator of one window, opening it under `compiled`; the
    /// caller counts at least one row into it. A new window index takes
    /// the spare window. Always inlined: it is most of a row's work, and
    /// out of line it costs a call and its register spills per row.
    #[inline(always)]
    fn accum(
        &mut self,
        host: HostId,
        stage: StageId,
        idx: u64,
        compiled: &CompiledModel,
    ) -> &mut WindowAccum {
        let row = match self.pairs.get(host, stage) {
            Some(row) => row,
            None => self.add_pair(host, stage),
        } as usize;
        let at = self.position(idx);
        let accs = &self.live[at].accs;
        if accs.get(row).is_none_or(|acc| acc.n == 0) {
            self.open_window(at, row, compiled.slots(stage).len());
        }
        &mut self.live[at].accs[row]
    }

    /// Open the window of `row` at `live[at]`, of a stage with `slots`
    /// performance groups.
    #[cold]
    fn open_window(&mut self, at: usize, row: usize, slots: usize) {
        let rows = self.rows.len();
        let window = &mut self.live[at];
        if row >= window.accs.len() {
            window.accs.resize_with(rows, WindowAccum::default);
        }
        window.opened.push(row as u32);
        window.accs[row].open(slots);
        self.windows += 1;
    }

    /// Give a pair a row: a handed-back one, or a new one.
    #[cold]
    fn add_pair(&mut self, host: HostId, stage: StageId) -> u32 {
        let row = match self.free.pop() {
            Some(row) => {
                self.rows[row as usize] = (host, stage);
                row
            }
            None => {
                self.rows.push((host, stage));
                // Handing every row back never grows the free list.
                self.free.reserve(self.rows.len() - self.free.len());
                (self.rows.len() - 1) as u32
            }
        };
        self.pairs.insert(host, stage, row);
        row
    }

    /// The position in `live` of window index `idx`, opened if absent.
    #[inline]
    fn position(&mut self, idx: u64) -> usize {
        let n = self.live.len();
        if n > 0 && self.live[n - 1].idx == idx {
            n - 1
        } else if n > 1 && self.live[n - 2].idx == idx {
            n - 2
        } else {
            self.position_cold(idx)
        }
    }

    #[cold]
    fn position_cold(&mut self, idx: u64) -> usize {
        match self.live.binary_search_by_key(&idx, |w| w.idx) {
            Ok(at) => at,
            Err(at) => {
                let window = Window {
                    idx,
                    ..std::mem::take(&mut self.spare)
                };
                self.live.insert(at, window);
                at
            }
        }
    }

    /// The accumulator of an open window, by index and row.
    fn get(&self, idx: u64, row: u32) -> &WindowAccum {
        let window = self.live.iter().find(|w| w.idx == idx).expect("live index");
        &window.accs[row as usize]
    }

    fn iter(&self) -> impl Iterator<Item = (WindowKey, &WindowAccum)> {
        self.live.iter().flat_map(move |w| {
            w.opened.iter().map(move |&row| {
                let (host, stage) = self.rows[row as usize];
                ((host, stage, w.idx), &w.accs[row as usize])
            })
        })
    }

    /// The keys and rows of the open windows of every leading index
    /// `stale` accepts, sorted by key: emission order must not depend on
    /// the order windows opened in. The vector is the store's scratch;
    /// hand it back to [`OpenWindows::recycle_while`].
    fn stale_keys(&mut self, stale: impl Fn(u64) -> bool) -> Vec<(WindowKey, u32)> {
        let mut keys = std::mem::take(&mut self.closing);
        let leading = || self.live.iter().take_while(|w| stale(w.idx));
        // One reservation, so a first close grows the scratch once.
        keys.reserve(leading().map(|w| w.opened.len()).sum());
        for w in leading() {
            keys.extend(w.opened.iter().map(|&row| {
                let (host, stage) = self.rows[row as usize];
                ((host, stage, w.idx), row)
            }));
        }
        keys.sort_unstable_by_key(|&(key, _)| key);
        keys
    }

    /// Retire every leading index `stale` accepts, its windows tested:
    /// each accumulator that counted is cleared in place, its row handed
    /// back unless the pair has a window open at another index, and the
    /// fullest retired window becomes the spare. `keys` is the scratch
    /// [`OpenWindows::stale_keys`] lent out.
    fn recycle_while(&mut self, stale: impl Fn(u64) -> bool, mut keys: Vec<(WindowKey, u32)>) {
        keys.clear();
        self.closing = keys;
        while self.live.first().is_some_and(|w| stale(w.idx)) {
            let mut window = self.live.remove(0);
            for &row in &window.opened {
                window.accs[row as usize].clear();
                let open_elsewhere = self.live.iter().any(|w| {
                    let acc = w.accs.get(row as usize);
                    acc.is_some_and(|acc| acc.n > 0)
                });
                if !open_elsewhere {
                    let (host, stage) = self.rows[row as usize];
                    self.pairs.remove(host, stage);
                    self.free.push(row);
                }
            }
            self.windows -= window.opened.len();
            window.opened.clear();
            if window.accs.len() >= self.spare.accs.len() {
                self.spare = window;
            }
        }
    }

    /// Re-key every open window from the slots of `from` to those of
    /// `to`. Empty accumulators are sized when they next open.
    fn reslot(&mut self, from: &CompiledModel, to: &CompiledModel) {
        for w in &mut self.live {
            for &row in &w.opened {
                let stage = self.rows[row as usize].1;
                w.accs[row as usize].reslot(stage, from, to);
            }
        }
    }

    /// Whether a window below the grace bound is open. Closing leaves none
    /// behind, so only a snapshot merged from shards whose watermarks stood
    /// in different windows brings one in.
    #[inline]
    fn has_stale(&self, closable_before: u64) -> bool {
        let first = self.live.first();
        first.is_some_and(|w| w.idx + 1 < closable_before)
    }

    /// Every open window, moved out and sorted by key: the cold path of
    /// [`AnomalyDetector::merge`] and [`AnomalyDetector::partition`].
    fn into_windows(mut self) -> Vec<(WindowKey, WindowAccum)> {
        let mut taken = Vec::with_capacity(self.windows);
        for w in &mut self.live {
            for &row in &w.opened {
                let (host, stage) = self.rows[row as usize];
                let acc = std::mem::take(&mut w.accs[row as usize]);
                taken.push(((host, stage, w.idx), acc));
            }
        }
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
            let groups = acc.groups(d.compiled.slots(stage));
            put_varint(buf, groups.len() as u64);
            for (sig, outliers, n) in groups {
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
            acc.open(compiled.slots(stage).len());
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
            let mut last = None;
            for _ in 0..group_count {
                let sig = read_sig(buf)?;
                // Written in ascending id order, each group once.
                if last.is_some_and(|last| last >= sig) {
                    return Err(DecodeError::LengthOutOfRange(sig.0.into()));
                }
                last = Some(sig);
                let (outliers, n) = (get_varint(buf)?, get_varint(buf)?);
                // A group is written only once it has counted a task.
                if n == 0 {
                    return Err(DecodeError::LengthOutOfRange(0));
                }
                acc.add_group((sig, outliers, n), compiled.perf_slot(stage, sig));
            }
            // A window that counted nothing is not open (see `OpenWindows`).
            if acc.n > 0 {
                *open.accum(host, stage, idx, &compiled) = acc;
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
                // plain insert of the disjoint case. Groups move by
                // signature: the part may count under another model.
                let into = m.open.accum(host, stage, idx, &m.compiled);
                into.n += acc.n;
                into.rare_flow_outliers += acc.rare_flow_outliers;
                into.new_signature_tasks += acc.new_signature_tasks;
                for &sig in &acc.new_signatures {
                    into.enumerate_new(sig, m.config.max_new_signatures);
                }
                for group in acc.groups(part.compiled.slots(stage)) {
                    into.add_group(group, m.compiled.perf_slot(stage, group.0));
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
            let part = &mut parts[route(host, stage) % n];
            *part.open.accum(host, stage, idx, &part.compiled) = acc;
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
    /// straddling the swap mix the two models' classifications). Their
    /// performance groups move to the incoming model's slots; a group
    /// whose signature has none is kept by id and tested by neither.
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
        self.open.reslot(&self.compiled, &compiled);
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

    /// Pair rows the store's spare window holds accumulators for; zero on
    /// a clone.
    #[cfg(test)]
    pub(crate) fn spare_window_rows(&self) -> usize {
        self.open.spare.accs.len()
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
            self.account(key, closable_before, &mut events, |acc| acc.n += 1)
        } else {
            // The per-stage table, not the flat one the batch pass reads.
            let class = self.compiled.classify(f.stage, f.sig, f.duration_us);
            let verdict = RowVerdict::new(class, self.compiled.perf_slot(f.stage, f.sig));
            let max_new = self.config.max_new_signatures;
            self.account(key, closable_before, &mut events, |acc| {
                acc.count(verdict, || f.sig, max_new)
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
        count: impl FnOnce(&mut WindowAccum),
    ) -> bool {
        if idx + 1 >= closable_before {
            count(self.open.accum(host, stage, idx, &self.compiled));
            return false;
        }
        self.late_seen += 1;
        if self.open.has_stale(closable_before) {
            count(self.open.accum(host, stage, idx, &self.compiled));
            self.close_stale(events);
        } else {
            self.scratch.clear();
            self.scratch.open(self.compiled.slots(stage).len());
            count(&mut self.scratch);
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
    /// into a window of its own. Every row is classified up front into
    /// `verdicts` (caller-supplied so its buffers are reused across
    /// batches), which afterwards holds what
    /// [`CompiledModel::classify_batch`] would write and, beside it, each
    /// row's performance-group slot: counting a row is indexed adds, with
    /// no second model lookup and no search. Closable windows are looked
    /// for only when a stamp enters a new window or the row itself is
    /// late.
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
            return self.observe_rows(batch, |acc, _| acc.n += 1);
        }
        self.compiled
            .classify_rows(&batch.stages, &batch.sigs, &batch.durations_us, verdicts);
        let (rows, max_new) = (verdicts.rows(), self.config.max_new_signatures);
        self.observe_rows(batch, |acc, i| {
            acc.count(rows[i], || batch.sigs[i], max_new)
        })
    }

    /// The one batch loop under [`AnomalyDetector::observe_batch`]: each
    /// row advances the watermark, then `count(accumulator, row)` counts it
    /// into its window. Generic, so each mode compiles to a loop of its
    /// own.
    #[inline]
    fn observe_rows(
        &mut self,
        batch: &SynopsisBatch,
        count: impl Fn(&mut WindowAccum, usize),
    ) -> Vec<AnomalyEvent> {
        let mut events = Vec::new();
        let window_us = self.config.window.as_micros();
        // One-entry window-index cache for task starts: streams are
        // near-sorted, so consecutive elements usually share a window and
        // skip the u64 division.
        let mut cached_lo = u64::MAX;
        let mut cached_idx = 0u64;
        // Windows become closable only when the watermark's window index
        // grows, i.e. when a stamp reaches the next window's start; track
        // that bound so in-window stamps skip the division and
        // `close_stale`.
        let mut closable_before = self.window_index(self.watermark);
        let mut next_window_us = (closable_before + 1).saturating_mul(window_us);
        let n = batch.len();
        let (watermarks, starts) = (&batch.watermarks[..n], &batch.starts[..n]);
        let (hosts, stages) = (&batch.hosts[..n], &batch.stages[..n]);
        self.tasks_seen += n as u64;
        for i in 0..n {
            let wm = watermarks[i];
            if wm > self.watermark {
                self.watermark = wm;
                if wm.as_micros() >= next_window_us {
                    closable_before = self.window_index(wm);
                    next_window_us = (closable_before + 1).saturating_mul(window_us);
                    self.close_stale(&mut events);
                }
            }
            let start_us = starts[i].as_micros();
            let idx = if start_us >= cached_lo && start_us - cached_lo < window_us {
                cached_idx
            } else {
                let idx = start_us / window_us;
                cached_lo = idx * window_us;
                cached_idx = idx;
                idx
            };
            let key = (hosts[i], stages[i], idx);
            self.account(key, closable_before, &mut events, |acc| count(acc, i));
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
    /// order and in place: each is tested by reference, then its window
    /// index is recycled for the next one (see `OpenWindows`).
    fn close_while(&mut self, stale: impl Fn(u64) -> bool, events: &mut Vec<AnomalyEvent>) {
        let keys = self.open.stale_keys(&stale);
        for &(key, row) in &keys {
            self.close_window(key, self.open.get(key.2, row), events);
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
        // Performance tests per slotted group, on ids: a signature is
        // resolved (a lock and a clone) only for a group that rejects. A
        // group kept by id has no p0 under the model in force and is not
        // tested. Every slot carries a compiled p0, already floored at
        // `1 - duration_percentile/100` so a training rate of 0 (every
        // training task at or below the threshold due to ties) cannot make
        // a single outlier fire with p = 0.
        let first = events.len();
        let slots = self.compiled.slots(stage);
        debug_assert_eq!(
            slots.len(),
            acc.perf.len(),
            "window sized under another model"
        );
        let min_group_tasks = self.config.min_group_tasks.max(1);
        for (&(sig, p0), &(outliers, n)) in slots.iter().zip(&acc.perf) {
            if n < min_group_tasks {
                continue;
            }
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
        let entries: usize = d.open.live.iter().map(|w| w.accs.len()).sum();
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

    #[test]
    fn pair_index_matches_a_map_through_inserts_and_removals() {
        // Few hosts and stages, so probes collide and wrap around the
        // table's end, and removals shift entries back across the end.
        let mut runner = TestRunner::from_seed(7);
        let (mut index, mut model) = (PairIndex::default(), BTreeMap::new());
        for step in 0..20_000u32 {
            let host = HostId((runner.next_u64() % 40) as u16 * 1_000);
            let stage = StageId((runner.next_u64() % 5) as u16 + 999 * (step % 2) as u16);
            match model.remove(&(host, stage)) {
                Some(_) if !runner.next_u64().is_multiple_of(3) => index.remove(host, stage),
                Some(row) => drop(model.insert((host, stage), row)),
                None => {
                    index.insert(host, stage, step);
                    model.insert((host, stage), step);
                }
            }
            assert_eq!(index.len, model.len());
            for (&(host, stage), &row) in &model {
                assert_eq!(index.get(host, stage), Some(row), "step {step}");
            }
        }
        assert_eq!(index.get(HostId(1), StageId(1)), None);
    }

    /// The group oracle's flows: point sets, by flow number. Flow 6 is
    /// never trained.
    const GROUP_FLOWS: [&[u16]; 7] = [&[1, 2], &[3, 4], &[5, 6], &[7, 8], &[9, 10], &[11], &[12]];

    /// A model over stages 0 and 1: per stage, its common flows and its one
    /// rare flow (a flow outlier).
    fn group_model(stages: [(&[usize], usize); 2]) -> Arc<OutlierModel> {
        let mut b = ModelBuilder::new();
        for i in 0..8_000u64 {
            for (stage, &(common, rare)) in stages.iter().enumerate() {
                let k = if i.is_multiple_of(1000) {
                    rare
                } else {
                    common[i as usize % common.len()]
                };
                let mut s = synopsis(
                    stage as u16,
                    GROUP_FLOWS[k],
                    1_000 + (i % 53) * 5,
                    SimTime::ZERO,
                    i,
                );
                s.stage = StageId(stage as u16);
                b.observe(&s);
            }
        }
        Arc::new(b.build(ModelConfig::default()))
    }

    /// The two models the group oracle swaps between. From the first to
    /// the second, on stage 0, flow 2 loses its group (it turns rare) and
    /// flow 3 its training, while flow 4 (rare before) and flow 5 (never
    /// trained before) gain one; stage 1 numbers its groups differently.
    fn group_models() -> [Arc<OutlierModel>; 2] {
        static MODELS: std::sync::OnceLock<[Arc<OutlierModel>; 2]> = std::sync::OnceLock::new();
        MODELS
            .get_or_init(|| {
                [
                    group_model([(&[0, 1, 2, 3], 4), (&[1, 3], 0)]),
                    group_model([(&[0, 1, 4, 5], 2), (&[0, 2, 3], 1)]),
                ]
            })
            .clone()
    }

    /// One row of a group-oracle stream: `(host, stage, start_us, flow,
    /// slow)`.
    type GroupRow = (u16, u16, u64, usize, bool);

    /// One open window of the group oracle.
    #[derive(Debug, Default, Clone)]
    struct NaiveWindow {
        n: u64,
        rare: u64,
        new_tasks: u64,
        new_sigs: Vec<SigId>,
    }

    /// The group oracle: every open window in one ordered map and every
    /// performance group in another, keyed `(host, stage, idx, SigId)`,
    /// closed by scanning both. It classifies with the per-stage tables
    /// (`CompiledModel::classify`, `perf_p0`), writes the wire form itself,
    /// and shares no code with `OpenWindows`, `WindowAccum` or the slots.
    struct NaiveGroups {
        compiled: Arc<CompiledModel>,
        interner: Arc<SignatureInterner>,
        config: DetectorConfig,
        windows: BTreeMap<(u16, u16, u64), NaiveWindow>,
        groups: BTreeMap<(u16, u16, u64, SigId), (u64, u64)>,
        watermark: u64,
        seen: u64,
    }

    /// What the group oracle's inputs reached, summed over its cases.
    #[derive(Debug, Default)]
    struct GroupsReached {
        perf_events: usize,
        rare_events: usize,
        /// Stragglers tested alone.
        alone: usize,
        /// Model swaps with windows open.
        swaps_open: usize,
        /// Open groups, at a round trip, whose signature has no group
        /// under the model in force.
        unslotted: usize,
        /// Partition → merge round trips over two or three shards.
        reshards: usize,
    }

    impl NaiveGroups {
        fn observe(
            &mut self,
            row: GroupRow,
            sig: SigId,
            stamp: u64,
            out: &mut Vec<AnomalyEvent>,
        ) -> bool {
            let w = ORACLE_WINDOW_US;
            self.seen += 1;
            if stamp > self.watermark {
                let grew = stamp / w > self.watermark / w;
                self.watermark = stamp;
                if grew {
                    self.close_stale(out);
                }
            }
            let (host, stage, start, _, slow) = row;
            let (idx, closable) = (start / w, self.watermark / w);
            let late = idx + 1 < closable;
            let alone = late && !self.windows.keys().any(|k| k.2 + 1 < closable);
            let dur = if slow { 5_000.0 } else { 1_100.0 };
            let class = self.compiled.classify(StageId(stage), sig, dur);
            let eligible = self.compiled.perf_p0(StageId(stage), sig).is_some();
            let mut window = match alone {
                true => NaiveWindow::default(),
                false => self.windows.remove(&(host, stage, idx)).unwrap_or_default(),
            };
            let mut group = (0, 0);
            window.n += 1;
            match class {
                TaskClass::FlowOutlier => window.rare += 1,
                TaskClass::NewSignature => {
                    window.new_tasks += 1;
                    let cap = self.config.max_new_signatures;
                    if !window.new_sigs.contains(&sig) && window.new_sigs.len() < cap {
                        window.new_sigs.push(sig);
                    }
                }
                _ if eligible => {
                    group = (u64::from(class == TaskClass::PerformanceOutlier), 1);
                }
                _ => {}
            }
            if alone {
                let groups = BTreeMap::from([(sig, group)]);
                self.emit(
                    (host, stage, idx),
                    &window,
                    groups.into_iter().filter(|g| g.1 .1 > 0),
                    out,
                );
                return true;
            }
            self.windows.insert((host, stage, idx), window);
            if group.1 > 0 {
                let g = self.groups.entry((host, stage, idx, sig)).or_insert((0, 0));
                (g.0, g.1) = (g.0 + group.0, g.1 + 1);
            }
            if late {
                self.close_stale(out);
            }
            false
        }

        fn close_stale(&mut self, out: &mut Vec<AnomalyEvent>) {
            let closable = self.watermark / ORACLE_WINDOW_US;
            self.close_where(|idx| idx + 1 < closable, out);
        }

        fn close_where(&mut self, stale: impl Fn(u64) -> bool, out: &mut Vec<AnomalyEvent>) {
            let closing: Vec<_> = self
                .windows
                .keys()
                .copied()
                .filter(|k| stale(k.2))
                .collect();
            for key in closing {
                let window = self.windows.remove(&key).expect("listed");
                let (h, s, i) = key;
                let range = (h, s, i, SigId(0))..=(h, s, i, SigId(u32::MAX));
                let groups: Vec<_> = self.groups.range(range).map(|(k, &g)| (k.3, g)).collect();
                self.groups.retain(|k, _| (k.0, k.1, k.2) != key);
                self.emit(key, &window, groups.into_iter(), out);
            }
        }

        /// A closed window's events, restated from the paper's tests.
        fn emit(
            &self,
            (host, stage, idx): (u16, u16, u64),
            window: &NaiveWindow,
            groups: impl Iterator<Item = (SigId, (u64, u64))>,
            out: &mut Vec<AnomalyEvent>,
        ) {
            let (c, n) = (&self.config, window.n);
            let event = |kind, p_value, outliers, window_tasks| AnomalyEvent {
                host: HostId(host),
                stage: StageId(stage),
                window_start: SimTime::from_micros(idx * ORACLE_WINDOW_US),
                kind,
                p_value,
                outliers,
                window_tasks,
                completeness: 1.0,
            };
            for &sig in &window.new_sigs {
                let kind = AnomalyKind::FlowNew(self.interner.resolve(sig).expect("interned"));
                out.push(event(kind, None, window.new_tasks, n));
            }
            let outliers = window.rare + window.new_tasks;
            let p0 = self.compiled.flow_outlier_rate(StageId(stage));
            let r = one_sided_proportion_test(outliers, n, p0, Alternative::Greater);
            if n >= c.min_window_tasks && r.rejects(c.alpha) && window.rare > 0 {
                out.push(event(AnomalyKind::FlowRare, Some(r.p_value), outliers, n));
            }
            let mut perf = Vec::new();
            for (sig, (outliers, n)) in groups {
                let Some(p0) = self.compiled.perf_p0(StageId(stage), sig) else {
                    continue;
                };
                let r = one_sided_proportion_test(outliers, n, p0, Alternative::Greater);
                if n >= c.min_group_tasks && r.rejects(c.alpha) {
                    let kind =
                        AnomalyKind::Performance(self.interner.resolve(sig).expect("interned"));
                    perf.push(event(kind, Some(r.p_value), outliers, n));
                }
            }
            perf.sort_by(|a, b| match (&a.kind, &b.kind) {
                (AnomalyKind::Performance(a), AnomalyKind::Performance(b)) => a.cmp(b),
                _ => unreachable!(),
            });
            out.extend(perf);
        }

        /// The detector's wire form, written from the two maps.
        fn encode(&self) -> BytesMut {
            let (mut buf, c) = (BytesMut::new(), &self.config);
            buf.put_u8(0);
            put_varint(&mut buf, c.window.as_micros());
            put_f64(&mut buf, c.alpha);
            let fields = [
                c.min_window_tasks,
                c.min_group_tasks,
                c.max_new_signatures as u64,
            ];
            for v in fields.into_iter().chain([self.watermark, self.seen, 0]) {
                put_varint(&mut buf, v);
            }
            put_varint(&mut buf, self.windows.len() as u64);
            for (&(h, s, i), window) in &self.windows {
                for v in [
                    h.into(),
                    s.into(),
                    i,
                    window.n,
                    window.rare,
                    window.new_tasks,
                ] {
                    put_varint(&mut buf, v);
                }
                put_varint(&mut buf, window.new_sigs.len() as u64);
                for sig in &window.new_sigs {
                    put_varint(&mut buf, sig.0.into());
                }
                let range = (h, s, i, SigId(0))..=(h, s, i, SigId(u32::MAX));
                let groups: Vec<_> = self.groups.range(range).collect();
                put_varint(&mut buf, groups.len() as u64);
                for (key, &(outliers, n)) in groups {
                    for v in [key.3 .0.into(), outliers, n] {
                        put_varint(&mut buf, v);
                    }
                }
            }
            put_varint(&mut buf, 0);
            buf
        }

        /// Open groups whose signature has no group under the model in force.
        fn unslotted(&self) -> usize {
            let keys = self.groups.keys();
            keys.filter(|k| self.compiled.perf_p0(StageId(k.1), k.3).is_none())
                .count()
        }
    }

    /// The detector against the group oracle: the same open-window count,
    /// the same checkpoint bytes, and encode → decode → encode moving none.
    fn check_groups(d: &AnomalyDetector, naive: &NaiveGroups) -> Result<(), String> {
        if d.open_windows() != naive.windows.len() {
            let open = naive.windows.len();
            return Err(format!("{} open windows, oracle {open}", d.open_windows()));
        }
        let mut bytes = BytesMut::new();
        d.encode_into(&mut bytes);
        if bytes != naive.encode() {
            return Err("checkpoint bytes differ from the oracle's".into());
        }
        let mut again = BytesMut::new();
        restore(d)?.encode_into(&mut again);
        if again != bytes {
            return Err("encode → decode → encode moved the bytes".into());
        }
        Ok(())
    }

    /// `d` decoded from its own wire form, against its shared parts.
    fn restore(d: &AnomalyDetector) -> Result<AnomalyDetector, String> {
        let mut bytes = BytesMut::new();
        d.encode_into(&mut bytes);
        let (model, compiled, interner) = (d.model.clone(), d.compiled.clone(), d.interner.clone());
        let mut bytes = bytes.freeze();
        AnomalyDetector::decode_from(&mut bytes, model, compiled, interner)
            .map_err(|e| e.to_string())
    }

    /// About `rows` group-oracle rows from `*clock` on, in batches of 0–47,
    /// fed to the detector and the oracle, each row stamped with the
    /// running max of `*stamp` and its start; checked after every batch.
    fn feed_groups(
        s: &mut OracleStreams<'_>,
        d: &mut AnomalyDetector,
        naive: &mut NaiveGroups,
        (clock, stamp): (&mut u64, &mut u64),
        rows: u64,
        reached: &mut GroupsReached,
    ) -> Result<(), String> {
        let mut verdicts = VerdictMask::new();
        let batches = s.batches(clock, rows, |_| true);
        for rows in batches {
            let mut batch = SynopsisBatch::new();
            let mut want = Vec::new();
            for (uid, &(host, stage, start, _)) in rows.iter().enumerate() {
                let flow = match s.draw(16) {
                    0 => 4 + s.draw(3) as usize,
                    _ => s.draw(4) as usize,
                };
                let slow = s.draw(if host % 5 == 0 { 3 } else { 40 }) == 0;
                let row = (host, stage, start, flow, slow);
                let dur = if slow { 5_000 } else { 1_100 };
                let at = SimTime::from_micros(start);
                let mut syn =
                    crate::testkit::synopsis_on(host, GROUP_FLOWS[flow], dur, at, uid as u64);
                syn.stage = StageId(stage);
                let feature = InternedFeature::from_synopsis(&syn, d.interner());
                *stamp = (*stamp).max(start);
                batch.push_feature(&feature, SimTime::from_micros(*stamp));
                reached.alone += usize::from(naive.observe(row, feature.sig, *stamp, &mut want));
            }
            let got = d.observe_batch(&batch, &mut verdicts);
            if got != want {
                return Err(format!("batch {rows:?}: events {got:?}, oracle {want:?}"));
            }
            reached.perf_events += got.iter().filter(|e| e.kind.is_performance()).count();
            reached.rare_events += got
                .iter()
                .filter(|e| e.kind == AnomalyKind::FlowRare)
                .count();
            check_groups(d, naive)?;
        }
        Ok(())
    }

    /// Split `d` over 1–3 shards, round-trip each through its wire form
    /// when `decode` says so, and merge them back.
    fn reshard(d: AnomalyDetector, shards: usize, decode: bool) -> Result<AnomalyDetector, String> {
        let mut parts = d.partition(shards, |h, s| usize::from(h.0) * 2 + usize::from(s.0));
        if decode {
            parts = parts.iter().map(restore).collect::<Result<_, _>>()?;
        }
        Ok(AnomalyDetector::merge(parts).expect("one or more shards"))
    }

    /// One seeded case of the group oracle: 1–4 or 1–300 hosts on two
    /// stages; up to 400 rows under the first model, a swap with windows
    /// open, up to 400 under the second, resharded and restored on the way;
    /// then a flush.
    fn groups_case(runner: &mut TestRunner, reached: &mut GroupsReached) -> Result<(), String> {
        let [first, second] = group_models();
        let interner = Arc::new(SignatureInterner::new());
        let compiled = [&first, &second].map(|m| Arc::new(m.compile(&interner)));
        let config = DetectorConfig {
            window: SimDuration::from_micros(ORACLE_WINDOW_US),
            min_window_tasks: 8,
            min_group_tasks: 3,
            max_new_signatures: 2,
            ..DetectorConfig::default()
        };
        let mut d =
            AnomalyDetector::with_shared(first, compiled[0].clone(), interner.clone(), config);
        let mut naive = NaiveGroups {
            compiled: compiled[0].clone(),
            interner,
            config,
            windows: BTreeMap::new(),
            groups: BTreeMap::new(),
            watermark: 0,
            seen: 0,
        };
        let wide = runner.next_u64().is_multiple_of(2);
        let hosts = 1 + runner.next_u64() % if wide { 300 } else { 4 };
        let step = 1 + runner.next_u64() % (ORACLE_WINDOW_US / 64);
        let mut s = OracleStreams {
            runner,
            hosts,
            step,
        };
        let (mut clock, mut stamp) = (0, 0);
        for phase in 0..2 {
            let rows = s.draw(400);
            feed_groups(
                &mut s,
                &mut d,
                &mut naive,
                (&mut clock, &mut stamp),
                rows,
                reached,
            )?;
            let shards = 1 + s.draw(3) as usize;
            reached.reshards += usize::from(shards > 1);
            d = reshard(d, shards, s.draw(2) == 0)?;
            check_groups(&d, &naive)?;
            if phase == 0 {
                reached.swaps_open += usize::from(d.open_windows() > 0);
                let events = d.install_model(second.clone(), compiled[1].clone());
                assert!(events.is_empty(), "a detecting swap closes nothing");
                naive.compiled = compiled[1].clone();
                reached.unslotted += naive.unslotted();
                check_groups(&d, &naive)?;
                if s.draw(2) == 0 {
                    d = restore(&d)?;
                }
            }
        }
        let mut want = Vec::new();
        naive.close_where(|_| true, &mut want);
        let got = d.flush();
        if got != want {
            return Err(format!("flush: events {got:?}, oracle {want:?}"));
        }
        check_groups(&d, &naive)
    }

    #[test]
    fn group_slots_match_a_naive_keyed_model() {
        // 192 seeded cases: after every batch, the same events in the same
        // order as a model that keeps every performance group by
        // `(host, stage, idx, SigId)`, the same open-window count and the
        // same checkpoint bytes — across a model swap that moves groups
        // in and out of the slots, resharding over 1–3 shards, and
        // restores from the wire form.
        let mut reached = GroupsReached::default();
        for seed in 0..192 {
            let mut runner = TestRunner::from_seed(1_000 + seed);
            if let Err(why) = groups_case(&mut runner, &mut reached) {
                panic!("seed {seed}: {why}");
            }
        }
        // The inputs reached what the property is about.
        assert!(reached.perf_events >= 250, "{reached:?}");
        assert!(reached.rare_events >= 400, "{reached:?}");
        assert!(reached.alone >= 2_500, "{reached:?}");
        assert!(reached.swaps_open >= 150, "{reached:?}");
        assert!(reached.unslotted >= 500, "{reached:?}");
        assert!(reached.reshards >= 150, "{reached:?}");
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
