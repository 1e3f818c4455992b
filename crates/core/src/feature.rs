//! Feature creation (paper §3.3.1): from a task synopsis to the
//! `<id, stage, signature, duration>` feature vector, its signature
//! interned.

use crate::intern::{SigId, SignatureInterner};
use crate::synopsis::TaskSynopsis;
use crate::{HostId, StageId, TaskUid};
use saad_sim::SimTime;

/// The analyzer's per-task feature vector, its signature replaced by the
/// interned [`SigId`] — `Copy`, allocation-free, and the router's per-row
/// currency. Built once per task (directly from the synopsis, no
/// intermediate boxed signature); everything downstream keys on the
/// dense id.
///
/// * **signature** captures the task's logical behaviour (which code paths
///   ran);
/// * **duration** (in microseconds, as a float for the statistics)
///   captures its performance behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InternedFeature {
    /// Unique id of the task execution.
    pub uid: TaskUid,
    /// Host the task ran on.
    pub host: HostId,
    /// Stage the task is an instance of.
    pub stage: StageId,
    /// Interned signature id (relative to the interner used to build it).
    pub sig: SigId,
    /// Duration (start → last log point) in microseconds.
    pub duration_us: f64,
    /// Task start time, used for detection windowing.
    pub start: SimTime,
}

impl InternedFeature {
    /// Build the interned feature straight from a synopsis — one stack
    /// copy of the point ids and one interner probe; no boxed signature
    /// is materialized on the hit path.
    pub fn from_synopsis(s: &TaskSynopsis, interner: &SignatureInterner) -> InternedFeature {
        InternedFeature {
            uid: s.uid,
            host: s.host,
            stage: s.stage,
            sig: interner.intern_synopsis(s),
            duration_us: s.duration.as_micros() as f64,
            start: s.start,
        }
    }
}
