//! The five workloads. Each exposes one function that performs a complete
//! set-up pass from the seed, runs one timed segment of a source-constant
//! synopsis count, verifies the outputs against a reference and tears the
//! pipeline down again.

pub mod analyze;
pub mod fleet;
pub mod ingest;
pub mod paced;
mod wire;

pub use wire::agent_host;

use crate::inputs::{capture, with_markers, CloseLog};
use crate::trace::Tracer;
use saad_core::detector::{AnomalyEvent, DetectorConfig};
use saad_core::intern::SignatureInterner;
use saad_core::model::{CompiledModel, ModelBuilder, ModelConfig, OutlierModel};
use saad_core::pipeline::SupervisorConfig;
use saad_core::synopsis::TaskSynopsis;
use saad_sim::SimDuration;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 5] = [
    "analyze_replay",
    "analyze_churn",
    "collector_ingest",
    "fleet_e2e",
    "paced_detect",
];

/// Pool workers, reactor loops: the smallest production configuration, so
/// that on a 2-vCPU box the generator does not starve the system.
pub const POOL_WORKERS: usize = 1;
/// Bound of the channels the benchmark owns (generator → pool, collector
/// → tap → pool).
pub const CHANNEL_BOUND: usize = 64;
/// Kernel receive-buffer clamp per connection: without it autotuning
/// absorbs a varying share of a stream into kernel memory and a run flips
/// between burst decode and sustained streaming.
pub const RECV_BUFFER: usize = 64 * 1024;

/// Every size that shapes a segment. All are constants in the source: a
/// timed segment never derives its length from a duration at run time.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Virtual length of each capture.
    pub capture: SimDuration,
    /// `analyze_replay`: synopses per timed segment.
    pub replay_synopses: u64,
    /// `analyze_churn`: delivered batches (of 256) per timed segment.
    pub churn_batches: usize,
    /// `analyze_churn`: copies of the 4-node cluster delivered side by side.
    pub churn_copies: u16,
    /// `analyze_churn`: synthetic hosts each node's tasks are dealt over
    /// (4 × copies × slots hosts in all).
    pub churn_slots: u16,
    /// `collector_ingest`: synopses per timed segment.
    pub ingest_synopses: u64,
    /// `fleet_e2e`: synopses per timed segment.
    pub fleet_synopses: u64,
    /// `paced_detect`: synopses per timed segment.
    pub paced_synopses: u64,
    /// `paced_detect`: offered rate, synopses per second.
    pub paced_rate: u64,
    /// Traced run: least time one direct-call pass over a layer lasts.
    pub layer_pass_s: f64,
}

/// The measured configuration: segments of about two seconds on the
/// 2-vCPU reference box.
pub const FULL: Scale = Scale {
    capture: SimDuration::from_mins(60),
    replay_synopses: 16_000_000,
    churn_batches: 4_096,
    churn_copies: 8,
    churn_slots: 8,
    ingest_synopses: 3_200_000,
    fleet_synopses: 2_000_000,
    paced_synopses: 320_000,
    paced_rate: 200_000,
    layer_pass_s: 0.1,
};

/// `--selftest`: the same code paths on tiny fixed counts.
pub const SELFTEST: Scale = Scale {
    capture: SimDuration::from_mins(6),
    replay_synopses: 400_000,
    churn_batches: 512,
    churn_copies: 8,
    churn_slots: 8,
    ingest_synopses: 100_000,
    fleet_synopses: 60_000,
    paced_synopses: 40_000,
    paced_rate: 200_000,
    layer_pass_s: 0.01,
};

/// Deliberate breakage for `--selftest`, to show the checks can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    /// Run as measured.
    None,
    /// The tap between collector and pool swallows one batch.
    TapDropsBatch,
    /// One payload byte of one frame is flipped before it is written.
    FlipFrameByte,
}

/// What a segment is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Ctx<'a> {
    /// `--seed`.
    pub seed: u64,
    /// Sizes.
    pub scale: &'a Scale,
    /// Span recorder of a traced segment.
    pub tracer: Option<&'a Tracer>,
    /// Breakage to inject.
    pub sabotage: Sabotage,
    /// Connections and generator threads: never more than the cores.
    pub conns: usize,
}

/// Everything one set-up pass plus timed segment reports.
#[derive(Debug, Default)]
pub struct Segment {
    /// Wall time of the complete set-up pass.
    pub setup_s: f64,
    /// Capture simulation share of the set-up pass.
    pub capture_s: f64,
    /// `ModelBuilder::observe` + `build` share.
    pub train_s: f64,
    /// `OutlierModel::compile`, milliseconds.
    pub compile_ms: f64,
    /// Wall time of the timed segment.
    pub wall_s: f64,
    /// When the set-up pass began and ended.
    pub setup_span: Option<(Instant, Instant)>,
    /// When the timed segment began and ended.
    pub timed_span: Option<(Instant, Instant)>,
    /// Speed of the machine during the set-up pass, relative to the
    /// reference (see [`crate::sys::SpeedProbe`]); 1 until `calibrate`.
    pub setup_speed: Option<f64>,
    /// The same during the timed segment. Stays 1 on the open-loop
    /// workload, whose rate is the schedule's and not the machine's.
    pub timed_speed: Option<f64>,
    /// Synopses the timed segment processed (the source constant).
    pub synopses: u64,
    /// Synopses sent, warm-up included.
    pub attempted: u64,
    /// Synopses sent and neither processed nor exactly accounted, or the
    /// whole segment if its events or link accounts do not match.
    pub failed: u64,
    /// Why `failed` is not zero.
    pub failures: Vec<String>,
    /// One delay sample per detection window, milliseconds: from the
    /// instant the unit that closes the window was due (open loop) or
    /// handed over (closed loop, where it is the depth of every queue on
    /// the way) to the receipt of the window's first event.
    pub delays_ms: Vec<f64>,
    /// Bytes that crossed the boundary into the system per synopsis.
    pub bytes_per_synopsis: f64,
    /// Process CPU time spent during the timed segment.
    pub cpu_ns: u64,
    /// Fixed ALU loop before and after the segment.
    pub calib_ms: (f64, f64),
    /// Open loop: how late each frame left, microseconds.
    pub gen_lag_us: Vec<f64>,
    /// Counters read from public `stats()` and registries afterwards,
    /// under their per-layer metric names.
    pub counters: BTreeMap<&'static str, f64>,
}

impl Segment {
    /// Throughput of the timed segment as the clock saw it.
    pub fn raw_synopses_per_s(&self) -> f64 {
        self.synopses as f64 / self.wall_s
    }

    /// Throughput of the timed segment at the reference machine speed.
    pub fn synopses_per_s(&self) -> f64 {
        self.raw_synopses_per_s() / self.timed_speed.unwrap_or(1.0)
    }

    /// Wall nanoseconds per synopsis of the timed segment, at the
    /// reference machine speed.
    pub fn ns_per_synopsis(&self) -> f64 {
        1e9 / self.synopses_per_s()
    }

    /// Process CPU nanoseconds per synopsis of the timed segment, at the
    /// reference machine speed.
    pub fn cpu_ns_per_synopsis(&self) -> f64 {
        self.cpu_ns as f64 * self.timed_speed.unwrap_or(1.0) / self.synopses.max(1) as f64
    }

    /// `seconds` of the set-up pass at the reference machine speed.
    pub fn of_setup(&self, seconds: f64) -> f64 {
        seconds * self.setup_speed.unwrap_or(1.0)
    }

    /// Fill the speeds from the probe's samples.
    pub fn calibrate(&mut self, probe: &crate::sys::SpeedProbe) {
        self.setup_speed = self.setup_span.map(|span| probe.speed(span));
        self.timed_speed = self.timed_span.map(|span| probe.speed(span));
        // Times per synopsis taken inside the timed segment.
        for name in ["net.agent.send_ns", "net.reactor_collector.ingest_ns"] {
            if let Some(ns) = self.counters.get_mut(name) {
                *ns *= self.timed_speed.unwrap_or(1.0);
            }
        }
    }

    /// Record a verification failure that voids the whole segment.
    pub fn fail_all(&mut self, why: String) {
        self.failed = self.attempted;
        self.failures.push(why);
    }

    /// Record `n` synopses that were sent and never accounted for.
    pub fn fail_some(&mut self, n: u64, why: String) {
        self.failed = self.attempted.min(self.failed + n);
        self.failures.push(why);
    }
}

/// What every workload with an analyzer prepares first.
#[derive(Debug, Clone)]
pub struct Trained {
    /// The model trained on the healthy capture.
    pub model: Arc<OutlierModel>,
    /// Its compiled form (as the pool builds it for itself).
    pub compiled: Arc<CompiledModel>,
    /// The interner the model was compiled against; inputs are interned
    /// into it too.
    pub interner: Arc<SignatureInterner>,
}

/// The first part of a set-up pass: simulate the healthy capture (and the
/// faulty one if the workload replays it), train and compile the model.
/// Fills the set-up shares of `seg` and returns the stream to replay, with
/// a marker at the head of every `window`.
pub fn prepare(
    ctx: &Ctx,
    seg: &mut Segment,
    replay_faulty: bool,
    window: SimDuration,
) -> (Trained, Vec<TaskSynopsis>) {
    let t = Instant::now();
    let healthy = capture(ctx.seed, false, ctx.scale.capture);
    let faulty = replay_faulty.then(|| capture(ctx.seed, true, ctx.scale.capture));
    seg.capture_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut builder = ModelBuilder::new();
    healthy.iter().for_each(|s| builder.observe(s));
    let model = Arc::new(builder.build(ModelConfig::default()));
    seg.train_s = t.elapsed().as_secs_f64();
    let interner = Arc::new(SignatureInterner::new());
    let t = Instant::now();
    let compiled = Arc::new(model.compile(&interner));
    seg.compile_ms = t.elapsed().as_secs_f64() * 1e3;
    let trained = Trained {
        model,
        compiled,
        interner,
    };
    (trained, with_markers(faulty.unwrap_or(healthy), window))
}

/// Detector configuration with the given window, paper defaults otherwise.
pub fn detector_config(window: SimDuration) -> DetectorConfig {
    DetectorConfig {
        window,
        ..DetectorConfig::default()
    }
}

/// Pool supervision as measured: no shard pinning, and host-silence
/// events off — they depend on how connections interleave in wall time,
/// not on stream content, so no reference could predict them.
pub fn supervisor() -> SupervisorConfig {
    SupervisorConfig {
        silent_after: u64::MAX,
        pin_shards: false,
        ..SupervisorConfig::default()
    }
}

/// Receipt instants of marker events, by the window they belong to.
#[derive(Debug, Default)]
pub struct MarkerTimes {
    window_us: u64,
    seen: Vec<(u64, Instant)>,
}

impl MarkerTimes {
    /// For detection windows of `window`.
    pub fn new(window: SimDuration) -> MarkerTimes {
        MarkerTimes {
            window_us: window.as_micros(),
            seen: Vec::new(),
        }
    }

    /// Note `event` if it is the window marker's (of the first copy of the
    /// cluster, where a workload runs several).
    #[inline]
    pub fn observe(&mut self, event: &AnomalyEvent, at: Instant) {
        if event.stage == crate::inputs::MARKER_STAGE && event.host == crate::inputs::MARKER_HOST {
            self.seen
                .push((event.window_start.as_micros() / self.window_us, at));
        }
    }

    /// `(window, due, received)` of every window that was closed by a
    /// delivered unit: `due` is the instant in `closes` (hand-over or due
    /// time of the closing unit), `received` the receipt of the window's
    /// marker event. Windows closed by the final flush have no closing
    /// unit and give no sample.
    pub fn samples(&self, closes: &[CloseLog]) -> Vec<(u64, Instant, Instant)> {
        let closed_at = CloseLog::merge(closes);
        self.seen
            .iter()
            .filter_map(|&(k, received)| closed_at.get(&k).map(|&due| (k, due, received)))
            .collect()
    }

    /// The samples as delays in milliseconds.
    pub fn delays_ms(&self, closes: &[CloseLog]) -> Vec<f64> {
        self.samples(closes)
            .iter()
            .map(|(_, due, received)| received.saturating_duration_since(*due).as_secs_f64() * 1e3)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{MARKER_HOST, MARKER_STAGE};
    use saad_core::detector::AnomalyKind;
    use saad_core::Signature;
    use saad_sim::SimTime;
    use std::time::Duration;

    fn marker_event(window_start_s: u64) -> AnomalyEvent {
        AnomalyEvent {
            host: MARKER_HOST,
            stage: MARKER_STAGE,
            window_start: SimTime::from_secs(window_start_s),
            kind: AnomalyKind::FlowNew(Signature::empty()),
            p_value: None,
            outliers: 1,
            window_tasks: 1,
            completeness: 1.0,
        }
    }

    #[test]
    fn delay_runs_from_the_closing_units_due_time_not_its_send_time() {
        let window = SimDuration::from_secs(10);
        let t0 = Instant::now();
        let due = t0 + Duration::from_millis(100);
        // The frame that closes window 0 was due at +100 ms; the sender
        // ran late and wrote it at +130 ms. The log holds the due time.
        let mut log = CloseLog::new(window);
        log.observe(SimTime::from_secs(20), || due);
        let mut markers = MarkerTimes::new(window);
        markers.observe(&marker_event(0), t0 + Duration::from_millis(135));
        // An event of a window no unit closed (flushed at the end).
        markers.observe(&marker_event(50), t0 + Duration::from_millis(500));
        // A non-marker event is ignored.
        let mut other = marker_event(0);
        other.stage = saad_core::StageId(3);
        markers.observe(&other, t0 + Duration::from_millis(1));
        let delays = markers.delays_ms(&[log]);
        assert_eq!(delays.len(), 1);
        assert!(
            (delays[0] - 35.0).abs() < 1e-6,
            "35 ms from due: {delays:?}"
        );
    }

    #[test]
    fn figures_are_restated_at_the_reference_speed() {
        // Two million synopses in two seconds on a machine at half speed,
        // after a set-up pass at four fifths of it.
        let mut s = Segment {
            synopses: 2_000_000,
            wall_s: 2.0,
            setup_s: 1.5,
            cpu_ns: 2_000_000 * 400,
            setup_speed: Some(0.8),
            timed_speed: Some(0.5),
            ..Segment::default()
        };
        assert_eq!(s.raw_synopses_per_s(), 1_000_000.0);
        assert_eq!(s.synopses_per_s(), 2_000_000.0);
        assert_eq!(s.ns_per_synopsis(), 500.0);
        assert_eq!(s.cpu_ns_per_synopsis(), 200.0);
        assert!((s.of_setup(s.setup_s) - 1.2).abs() < 1e-12);
        // Without a probe reading (the open loop's timed segment) the
        // clock's figures stand.
        s.timed_speed = None;
        assert_eq!(s.synopses_per_s(), 1_000_000.0);
    }

    #[test]
    fn failures_are_capped_at_attempted() {
        let mut s = Segment {
            attempted: 100,
            ..Segment::default()
        };
        s.fail_some(30, "a".into());
        assert_eq!(s.failed, 30);
        s.fail_some(90, "b".into());
        assert_eq!(s.failed, 100);
        let mut s = Segment {
            attempted: 7,
            ..Segment::default()
        };
        s.fail_all("c".into());
        assert_eq!((s.failed, s.failures.len()), (7, 1));
    }

    #[test]
    fn scales_respect_the_core_budget_and_frame_sizes() {
        for scale in [FULL, SELFTEST] {
            assert_eq!(4 * scale.churn_copies * scale.churn_slots, 256);
            assert_eq!(scale.churn_batches % scale.churn_copies as usize, 0);
            assert!(scale.paced_rate > 0);
            assert!(scale.capture.as_micros() % SimDuration::from_mins(1).as_micros() == 0);
        }
    }
}
