//! Identifier newtypes for stages, tasks, and hosts.

use std::fmt;

/// Identifier of a stage (a code module executed by tasks).
///
/// The paper stores this as a byte (`byte sid`) — there are 55 stages in
/// HDFS, 38 in HBase Regionservers, 78 in Cassandra — but we allow 16 bits
/// of headroom; the [`crate::codec`] varint encoding still emits one byte
/// for ids below 128.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StageId(pub u16);

impl StageId {
    /// Sentinel for events not attributable to any stage (e.g. host
    /// liveness events emitted by the supervisor).
    pub const NONE: StageId = StageId(u16::MAX);
}

impl fmt::Display for StageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// Unique identifier of one task execution (`int uid` in the paper's
/// synopsis struct; we use 64 bits so multi-billion-task runs can't wrap).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskUid(pub u64);

impl fmt::Display for TaskUid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Identifier of a host (cluster node). The paper reports anomalies per
/// `Stage (host id)` pair; host 0 is conventionally the first data node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u16);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host{}", self.0)
    }
}

/// Identifier of a tenant: an isolation domain that trains, drifts, and
/// swaps its models independently of every other tenant.
///
/// Tenancy is deliberately *not* a column on the interned feature or the
/// synopsis batch — the batch hot path stays seven columns wide and the
/// zero-alloc/equivalence guarantees untouched. Instead, a lifecycle
/// pool's router derives a tenant from the host (`TenantRouter` in
/// `pipeline`) and sends the row to that tenant's shard slots, so
/// per-tenant state lives beside the pipeline rather than inside every
/// feature.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u16);

impl TenantId {
    /// The tenant every host belongs to when no routing is configured.
    pub const DEFAULT: TenantId = TenantId(0);
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_compact() {
        assert_eq!(StageId(3).to_string(), "S3");
        assert_eq!(TaskUid(9).to_string(), "T9");
        assert_eq!(HostId(4).to_string(), "host4");
        assert_eq!(TenantId(2).to_string(), "tenant2");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        assert!(StageId(1) < StageId(2));
        let mut set = HashSet::new();
        set.insert(TaskUid(1));
        assert!(set.contains(&TaskUid(1)));
    }
}
