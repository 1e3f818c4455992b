//! Task synopses — the tiny per-task records SAAD streams instead of logs.
//!
//! Mirrors the paper's synopsis struct:
//!
//! ```c
//! struct synopsis {
//!   byte sid;        // stage id
//!   int  uid;        // unique id per task
//!   int  ts;         // task start time (ms)
//!   int  duration;   // task duration (us)
//!   struct { short int lpid; int count; } log_points[];
//! }
//! ```

use crate::{HostId, Signature, StageId, TaskUid};
use saad_logging::LogPointId;
use saad_sim::{SimDuration, SimTime};

/// Summary of one task execution, produced by the tracker at task
/// termination and streamed to the statistical analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSynopsis {
    /// Host the task ran on (added when synopses are tagged for the
    /// centralized analyzer).
    pub host: HostId,
    /// Stage the task is an instance of.
    pub stage: StageId,
    /// Unique id of this task execution.
    pub uid: TaskUid,
    /// Task start time.
    pub start: SimTime,
    /// Task duration — time from start to the *last log point* the task
    /// encountered (paper §3.3.1).
    pub duration: SimDuration,
    /// Visited log points with visit frequencies, ascending by point id.
    pub log_points: Vec<(LogPointId, u32)>,
}

/// The fixed-size fields of a synopsis — everything but the point list.
///
/// The tracker hands a completed task to its sink as a head plus a
/// borrowed `(point, count)` slice
/// ([`SynopsisSink::submit_parts`](crate::tracker::SynopsisSink::submit_parts)),
/// so a sink that encodes on the spot never needs the owned
/// [`TaskSynopsis`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynopsisHead {
    /// Host the task ran on.
    pub host: HostId,
    /// Stage the task is an instance of.
    pub stage: StageId,
    /// Unique id of this task execution.
    pub uid: TaskUid,
    /// Task start time.
    pub start: SimTime,
    /// Start to the last log point the task encountered.
    pub duration: SimDuration,
}

impl SynopsisHead {
    /// The owned synopsis of this head and `points`, its `log_points`
    /// allocated at exactly `points.len()`.
    pub fn with_points(self, points: &[(LogPointId, u32)]) -> TaskSynopsis {
        TaskSynopsis {
            host: self.host,
            stage: self.stage,
            uid: self.uid,
            start: self.start,
            duration: self.duration,
            log_points: points.to_vec(),
        }
    }
}

impl TaskSynopsis {
    /// This synopsis without its point list.
    pub fn head(&self) -> SynopsisHead {
        SynopsisHead {
            host: self.host,
            stage: self.stage,
            uid: self.uid,
            start: self.start,
            duration: self.duration,
        }
    }

    /// The task's flow signature: its distinct visited points.
    pub fn signature(&self) -> Signature {
        Signature::from_points(self.log_points.iter().map(|&(p, _)| p))
    }

    /// Whether the task visited a given log point — the allocation-free
    /// form of `self.signature().contains(point)`, for callers that only
    /// probe membership and don't need the whole signature built.
    pub fn has_point(&self, point: LogPointId) -> bool {
        // Tracker-emitted synopses keep `log_points` sorted, but
        // hand-built ones need not; a linear scan over a handful of
        // points is cheap either way.
        self.log_points.iter().any(|&(p, _)| p == point)
    }

    /// Total log point visits (sum of frequencies).
    pub fn total_visits(&self) -> u64 {
        self.log_points.iter().map(|&(_, c)| c as u64).sum()
    }

    /// Approximate in-memory/wire size in bytes (for the Figure 8 volume
    /// accounting; the paper reports ~48 bytes per synopsis on average).
    pub fn approx_bytes(&self) -> usize {
        // sid + uid + ts + duration + host ≈ 17 bytes fixed, 6 per point.
        17 + 6 * self.log_points.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synopsis(points: &[(u16, u32)]) -> TaskSynopsis {
        TaskSynopsis {
            host: HostId(1),
            stage: StageId(2),
            uid: TaskUid(3),
            start: SimTime::from_millis(5),
            duration: SimDuration::from_micros(1500),
            log_points: points.iter().map(|&(p, c)| (LogPointId(p), c)).collect(),
        }
    }

    #[test]
    fn head_and_points_rebuild_the_synopsis_at_exact_size() {
        let s = synopsis(&[(1, 5), (4, 1), (9, 2)]);
        let rebuilt = s.head().with_points(&s.log_points);
        assert_eq!(rebuilt, s);
        assert_eq!(rebuilt.log_points.capacity(), 3);
    }

    #[test]
    fn signature_drops_frequencies() {
        let s = synopsis(&[(1, 5), (4, 1)]);
        assert_eq!(
            s.signature(),
            Signature::from_points([LogPointId(1), LogPointId(4)])
        );
    }

    #[test]
    fn has_point_probes_without_allocating() {
        let s = synopsis(&[(1, 5), (4, 1)]);
        assert!(s.has_point(LogPointId(1)));
        assert!(s.has_point(LogPointId(4)));
        assert!(!s.has_point(LogPointId(2)));
        assert!(!synopsis(&[]).has_point(LogPointId(1)));
    }

    #[test]
    fn total_visits_sums_counts() {
        assert_eq!(synopsis(&[(1, 5), (4, 2)]).total_visits(), 7);
        assert_eq!(synopsis(&[]).total_visits(), 0);
    }

    #[test]
    fn approx_bytes_is_tens_of_bytes() {
        // The paper's claim: a synopsis is "a tiny data structure of few
        // tens of bytes" (~48 bytes average).
        let s = synopsis(&[(1, 2), (2, 1), (3, 1), (4, 9), (5, 1)]);
        assert!(s.approx_bytes() < 64, "{}", s.approx_bytes());
    }
}
