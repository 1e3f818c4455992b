//! Workload inputs, all derived from `--seed`: the two Cassandra
//! captures, window markers, host folding, replay time-shifting, the
//! late-delivery order of `analyze_churn`, and the bookkeeping that says
//! which delivered unit closes which detection window.

use saad_cassandra::{Cluster, ClusterConfig};
use saad_core::batch::SynopsisBatch;
use saad_core::intern::SignatureInterner;
use saad_core::synopsis::TaskSynopsis;
use saad_core::tracker::VecSink;
use saad_core::{HostId, StageId, TaskUid};
use saad_fault::{catalog, FaultSchedule, FaultSpec, FaultType, Intensity};
use saad_logging::LogPointId;
use saad_sim::{SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Client operation rate of the simulated cluster (ops per virtual second).
const OPS_PER_SEC: f64 = 25.0;
/// Node (0-based) whose disk the fault plan of `faulty` disturbs.
const FAULTY_NODE: usize = 3;

/// Stage of the per-window marker task. No model is trained on it, so each
/// marker is a never-seen signature and its window emits exactly one
/// `FlowNew` event when it closes — the event the delay samples end on.
pub const MARKER_STAGE: StageId = StageId(999);
/// Log point the marker task visits.
pub const MARKER_POINT: LogPointId = LogPointId(65_000);
/// Host the marker task runs on (the first Cassandra node).
pub const MARKER_HOST: HostId = HostId(1);

/// Run the Cassandra simulator for `length` of virtual time and return
/// every synopsis in emission order. `healthy` uses `seed`; `faulty` uses `seed + 1` and
/// a high-intensity plan (100 ms delay on every WAL append, error on every
/// MemTable flush) on one node for the middle third of the run, so flow
/// and performance events fire throughout that third.
pub fn capture(seed: u64, faulty: bool, length: SimDuration) -> Vec<TaskSynopsis> {
    let seed = if faulty { seed.wrapping_add(1) } else { seed };
    let sink = Arc::new(VecSink::new());
    let cfg = ClusterConfig {
        seed,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(cfg, sink.clone());
    if faulty {
        let third = SimDuration::from_micros(length.as_micros() / 3);
        let (from, to) = (SimTime::ZERO + third, SimTime::ZERO + third + third);
        let plan = FaultSchedule::new(seed)
            .with_window(
                from,
                to,
                FaultSpec::new(catalog::WAL, FaultType::standard_delay(), Intensity::High),
            )
            .with_window(
                from,
                to,
                FaultSpec::new(catalog::MEMTABLE_FLUSH, FaultType::Error, Intensity::High),
            );
        cluster.attach_fault(FAULTY_NODE, plan);
    }
    let mut ops = saad_bench::workload(seed, OPS_PER_SEC);
    cluster.run(&mut ops, SimTime::ZERO + length);
    drop(cluster);
    // Background tasks scheduled exactly at the end start outside the
    // capture; a replay shifted by whole captures would put them into the
    // next replay's first window.
    let mut stream = sink.drain();
    stream.retain(|s| s.start.as_micros() < length.as_micros());
    stream
}

/// The marker task of window `index`.
fn marker(index: u64, window: SimDuration) -> TaskSynopsis {
    TaskSynopsis {
        host: MARKER_HOST,
        stage: MARKER_STAGE,
        uid: TaskUid(u64::MAX - index),
        start: SimTime::from_micros(index * window.as_micros()),
        duration: SimDuration::ZERO,
        log_points: vec![(MARKER_POINT, 1)],
    }
}

/// Insert one marker task at the head of every detection window: the
/// marker of window `k` starts exactly at `k * window` and sits just
/// before the first synopsis of the stream that starts at or after it.
pub fn with_markers(stream: Vec<TaskSynopsis>, window: SimDuration) -> Vec<TaskSynopsis> {
    let window_us = window.as_micros();
    let mut out = Vec::with_capacity(stream.len() + stream.len() / 1000 + 8);
    let mut next = 0u64;
    for s in stream {
        while s.start.as_micros() >= next * window_us {
            out.push(marker(next, window));
            next += 1;
        }
        out.push(s);
    }
    out
}

/// Connection (agent host) a synopsis of `host` travels on when the
/// cluster's hosts are folded onto `conns` agents.
pub fn fold(host: HostId, conns: usize) -> usize {
    host.0 as usize % conns
}

/// Intern `stream` into SoA batches of `size` (the last one may be short),
/// each stamped with its own running-max watermark as the ingest edge
/// would build them.
pub fn soa_batches(
    stream: &[TaskSynopsis],
    size: usize,
    interner: &SignatureInterner,
) -> Vec<SynopsisBatch> {
    stream
        .chunks(size)
        .map(|chunk| {
            let mut batch = SynopsisBatch::with_capacity(chunk.len());
            for s in chunk {
                batch.push_synopsis(s, interner);
            }
            batch
        })
        .collect()
}

/// Clone `batch` moved `shift` later in virtual time (replay `r` of a
/// capture uses `r` capture lengths).
pub fn shifted(batch: &SynopsisBatch, shift: SimDuration) -> SynopsisBatch {
    let mut out = batch.clone();
    if shift != SimDuration::ZERO {
        for t in out.starts.iter_mut().chain(out.watermarks.iter_mut()) {
            *t += shift;
        }
    }
    out
}

/// Clone `batch` with every host moved up by `offset` (copy `j` of the
/// cluster in `analyze_churn` uses `4 * j`).
pub fn on_hosts(batch: &SynopsisBatch, offset: u16) -> SynopsisBatch {
    let mut out = batch.clone();
    for h in &mut out.hosts {
        h.0 += offset;
    }
    out
}

/// SplitMix64 step: the benchmark's only source of pseudo-randomness, so
/// that the same seed always yields the same inputs.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *state;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Delivery order of `units` in which roughly one in ten (chosen from
/// `seed`) is held back and delivered `lag` positions later. Returns a
/// permutation of `0..units`.
pub fn late_order(units: usize, lag: usize, seed: u64) -> Vec<u32> {
    let mut rng = seed ^ 0x1A7E_0DE1;
    let mut keyed: Vec<(u64, u32)> = (0..units as u64)
        .map(|i| {
            let late = splitmix(&mut rng).is_multiple_of(10);
            // Doubling leaves room to slot a late unit between two
            // on-time ones.
            let key = if late {
                2 * (i + lag as u64) + 1
            } else {
                2 * i
            };
            (key, i as u32)
        })
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// Which delivered unit made which detection windows closable, and when
/// it was handed over (closed loop) or due (open loop).
///
/// The detector closes window `k` once the stream watermark reaches
/// window `k + 2`. A unit whose newest start raises the watermark's
/// window index from `a` to `b` therefore closes windows `a-1 ..= b-2`.
#[derive(Debug)]
pub struct CloseLog {
    window_us: u64,
    watermark_index: u64,
    /// Start of the window after the watermark's: below it nothing closes.
    next_boundary_us: u64,
    marks: Vec<(u64, u64, Instant)>,
}

impl CloseLog {
    /// A log for detection windows of `window`.
    pub fn new(window: SimDuration) -> CloseLog {
        CloseLog {
            window_us: window.as_micros(),
            watermark_index: 0,
            next_boundary_us: window.as_micros(),
            marks: Vec::new(),
        }
    }

    /// Note a delivered unit whose newest task start is `max_start`.
    /// `at` is only evaluated when the unit closes a window, which is
    /// rare, so the usual cost is one compare.
    #[inline]
    pub fn observe(&mut self, max_start: SimTime, at: impl FnOnce() -> Instant) {
        if max_start.as_micros() < self.next_boundary_us {
            return;
        }
        let index = max_start.as_micros() / self.window_us;
        if index >= 2 {
            let first = self.watermark_index.saturating_sub(1);
            self.marks.push((first, index - 2, at()));
        }
        self.watermark_index = index;
        self.next_boundary_us = (index + 1) * self.window_us;
    }

    /// Earliest hand-over instant per closed window across `logs` (one
    /// log per generator thread: the first thread to cross a boundary is
    /// the one that lets the window close).
    pub fn merge(logs: &[CloseLog]) -> HashMap<u64, Instant> {
        let mut out: HashMap<u64, Instant> = HashMap::new();
        for log in logs {
            for &(first, last, at) in &log.marks {
                for k in first..=last {
                    out.entry(k).and_modify(|t| *t = (*t).min(at)).or_insert(at);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn synopsis(host: u16, start_ms: u64) -> TaskSynopsis {
        TaskSynopsis {
            host: HostId(host),
            stage: StageId(1),
            uid: TaskUid(start_ms),
            start: SimTime::from_millis(start_ms),
            duration: SimDuration::from_micros(10),
            log_points: vec![(LogPointId(1), 1)],
        }
    }

    #[test]
    fn hosts_fold_onto_connections_by_modulo() {
        assert_eq!(fold(HostId(1), 2), 1);
        assert_eq!(fold(HostId(2), 2), 0);
        assert_eq!(fold(HostId(3), 2), 1);
        assert_eq!(fold(HostId(4), 2), 0);
        for h in 0..64 {
            assert_eq!(fold(HostId(h), 1), 0);
            assert!(fold(HostId(h), 3) < 3);
        }
    }

    #[test]
    fn markers_head_every_window_including_empty_ones() {
        let w = SimDuration::from_secs(10);
        // Nothing in window 1 (10–20 s); window 3 entered by a late start.
        let stream = vec![
            synopsis(2, 500),
            synopsis(2, 9_000),
            synopsis(3, 25_000),
            synopsis(2, 31_000),
        ];
        let out = with_markers(stream, w);
        let marks: Vec<(usize, u64)> = out
            .iter()
            .enumerate()
            .filter(|(_, s)| s.stage == MARKER_STAGE)
            .map(|(i, s)| (i, s.start.as_micros() / w.as_micros()))
            .collect();
        assert_eq!(marks, vec![(0, 0), (3, 1), (4, 2), (6, 3)]);
        assert_eq!(out.len(), 8);
        assert!(out
            .iter()
            .filter(|s| s.stage == MARKER_STAGE)
            .all(|s| s.host == MARKER_HOST && s.start.as_micros() % w.as_micros() == 0));
    }

    #[test]
    fn time_shifted_replays_keep_watermarks_monotone() {
        let interner = SignatureInterner::new();
        let capture = SimDuration::from_mins(60);
        // Out-of-order starts inside the capture, as real emission order is.
        let stream: Vec<TaskSynopsis> = [5u64, 3, 900, 700, 3_599_000, 3_598_000]
            .iter()
            .map(|&ms| synopsis(1, ms))
            .collect();
        let batches = soa_batches(&stream, 4, &interner);
        assert_eq!(batches.len(), 2);
        let mut last = SimTime::ZERO;
        let mut running = SimTime::ZERO;
        for replay in 0..3u64 {
            let shift = SimDuration::from_micros(capture.as_micros() * replay);
            for b in &batches {
                let b = shifted(b, shift);
                for i in 0..b.len() {
                    // What the pool's router stamps: the global running max.
                    running = running.max(b.starts[i]);
                    assert!(running >= last);
                    last = running;
                    assert!(b.watermarks[i] >= b.starts[i]);
                    assert!(b.starts[i] >= SimTime::ZERO + shift);
                }
            }
            // A whole replay stays inside its own hour, so the next one
            // starts strictly later than anything seen so far.
            assert!(running < SimTime::ZERO + shift + capture);
        }
    }

    #[test]
    fn shift_and_host_offset_touch_only_their_columns() {
        let interner = SignatureInterner::new();
        let b = &soa_batches(&[synopsis(2, 40), synopsis(3, 50)], 8, &interner)[0];
        let s = shifted(b, SimDuration::from_secs(7));
        assert_eq!(s.starts[1], SimTime::from_millis(7_050));
        assert_eq!(s.watermarks[0], SimTime::from_millis(7_040));
        assert_eq!((&s.hosts, &s.sigs, &s.uids), (&b.hosts, &b.sigs, &b.uids));
        let h = on_hosts(b, 8);
        assert_eq!(h.hosts, vec![HostId(10), HostId(11)]);
        assert_eq!((&h.starts, &h.sigs), (&b.starts, &b.sigs));
    }

    #[test]
    fn late_order_is_a_seeded_permutation_with_bounded_lag() {
        let order = late_order(10_000, 50, 9);
        assert_eq!(order, late_order(10_000, 50, 9));
        assert_ne!(order, late_order(10_000, 50, 10));
        let mut seen = order.clone();
        seen.sort_unstable();
        assert!(seen.iter().enumerate().all(|(i, &u)| i as u32 == u));
        let mut late = 0;
        for (pos, &unit) in order.iter().enumerate() {
            let displacement = pos as i64 - unit as i64;
            // On-time units only move forward past late ones that were
            // slotted in ahead of them; late ones land about `lag` later.
            assert!((-60..=60).contains(&displacement), "{unit} at {pos}");
            if displacement > 25 {
                late += 1;
            }
        }
        assert!(
            (800..1_200).contains(&late),
            "about a tenth are late: {late}"
        );
    }

    #[test]
    fn close_log_names_the_windows_each_unit_closes() {
        let mut log = CloseLog::new(SimDuration::from_secs(10));
        let t0 = Instant::now();
        let at = |ms: u64| move || t0 + Duration::from_millis(ms);
        log.observe(SimTime::from_secs(3), at(1)); // window 0: nothing closable
        log.observe(SimTime::from_secs(12), at(2)); // window 1: nothing yet
        log.observe(SimTime::from_secs(21), at(3)); // window 2: closes window 0
        log.observe(SimTime::from_secs(25), at(4)); // same window: no mark
        log.observe(SimTime::from_secs(58), at(5)); // window 5: closes 1, 2, 3
        log.observe(SimTime::from_secs(40), at(6)); // behind the watermark
        let merged = CloseLog::merge(std::slice::from_ref(&log));
        assert_eq!(merged.len(), 4);
        assert_eq!(merged[&0], t0 + Duration::from_millis(3));
        for k in 1..=3 {
            assert_eq!(merged[&k], t0 + Duration::from_millis(5));
        }
    }

    #[test]
    fn merged_close_logs_keep_the_earliest_crossing() {
        let w = SimDuration::from_secs(10);
        let t0 = Instant::now();
        let (mut a, mut b) = (CloseLog::new(w), CloseLog::new(w));
        a.observe(SimTime::from_secs(20), || t0 + Duration::from_millis(9));
        b.observe(SimTime::from_secs(22), || t0 + Duration::from_millis(4));
        b.observe(SimTime::from_secs(31), || t0 + Duration::from_millis(6));
        let merged = CloseLog::merge(&[a, b]);
        assert_eq!(merged[&0], t0 + Duration::from_millis(4));
        assert_eq!(merged[&1], t0 + Duration::from_millis(6));
    }

    #[test]
    fn splitmix_is_deterministic() {
        let (mut a, mut b) = (1u64, 1u64);
        assert_eq!(splitmix(&mut a), splitmix(&mut b));
        assert_ne!(splitmix(&mut a), 0);
    }
}
