//! The federation control plane: leaf membership, heartbeats, and epoch
//! publication.
//!
//! Modeled on the role/roleGroup orchestration of the HBase operator the
//! roadmap cites: the control plane holds the authoritative membership
//! table, each leaf heartbeats into it, and every membership change —
//! register, deregister, or a missed-heartbeat eviction — publishes a new
//! immutable [`RingSnapshot`] under the next epoch. Readers (agents via
//! [`LeafResolver`], collectors via the shared epoch handle) only ever
//! see complete snapshots; there is no partially-applied membership.
//!
//! The control plane is deliberately *not* in the data path. It answers
//! `resolve()` from a cached `Arc` snapshot and shares the current epoch
//! with root/leaf collectors through one `Arc<AtomicU64>`, so a thousand
//! agents re-homing cost it nothing but atomic loads.

use crate::ring::{LeafId, LeafResolver, RingSnapshot};
use parking_lot::Mutex;
use saad_core::HostId;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct LeafEntry {
    addr: SocketAddr,
    last_beat: Instant,
    alive: bool,
}

struct Inner {
    leaves: Mutex<BTreeMap<LeafId, LeafEntry>>,
    /// Current published epoch, shared (via [`ControlPlane::epoch_handle`])
    /// with every collector that enforces staleness.
    epoch: Arc<AtomicU64>,
    snapshot: Mutex<Arc<RingSnapshot>>,
    seed: u64,
    heartbeat_timeout: Duration,
    /// Leaves evicted for missed heartbeats (not graceful deregisters).
    failovers: AtomicU64,
    republishes: AtomicU64,
}

impl Inner {
    /// Rebuild + publish a snapshot from live membership under the next
    /// epoch. Caller must hold no locks taken inside.
    fn republish(&self) {
        let leaves = self.leaves.lock();
        let live: Vec<(LeafId, SocketAddr)> = leaves
            .iter()
            .filter(|(_, e)| e.alive)
            .map(|(&id, e)| (id, e.addr))
            .collect();
        drop(leaves);
        // fetch_add returns the previous value; epochs start at 1 so that
        // 0 can mean "no epoch ever published".
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        let snap = RingSnapshot::new(epoch, self.seed, live);
        *self.snapshot.lock() = snap;
        self.republishes.fetch_add(1, Ordering::Relaxed);
    }
}

/// Authoritative federation membership + epoch publisher.
///
/// Clone-cheap handle (`Arc` inside); collectors, agent resolvers and
/// whatever timer calls [`ControlPlane::sweep`] all share one instance.
#[derive(Clone)]
pub struct ControlPlane {
    inner: Arc<Inner>,
}

impl ControlPlane {
    /// New control plane with no members. `seed` fixes ring assignment
    /// for the federation's lifetime; a leaf that misses heartbeats for
    /// `heartbeat_timeout` is declared dead by [`ControlPlane::sweep`].
    pub fn new(seed: u64, heartbeat_timeout: Duration) -> ControlPlane {
        let epoch = Arc::new(AtomicU64::new(0));
        ControlPlane {
            inner: Arc::new(Inner {
                leaves: Mutex::new(BTreeMap::new()),
                snapshot: Mutex::new(RingSnapshot::new(0, seed, [])),
                epoch,
                seed,
                heartbeat_timeout,
                failovers: AtomicU64::new(0),
                republishes: AtomicU64::new(0),
            }),
        }
    }

    /// Add (or resurrect) a leaf and publish the grown ring.
    pub fn register_leaf(&self, id: LeafId, addr: SocketAddr) {
        self.inner.leaves.lock().insert(
            id,
            LeafEntry {
                addr,
                last_beat: Instant::now(),
                alive: true,
            },
        );
        self.inner.republish();
    }

    /// Gracefully remove a leaf (planned drain, not a failure) and
    /// publish the shrunk ring.
    pub fn deregister_leaf(&self, id: LeafId) {
        if self.inner.leaves.lock().remove(&id).is_some() {
            self.inner.republish();
        }
    }

    /// Record a heartbeat from `id`. Returns `false` for an unknown or
    /// already-evicted leaf — the leaf's cue to re-register.
    pub fn heartbeat(&self, id: LeafId) -> bool {
        let mut leaves = self.inner.leaves.lock();
        match leaves.get_mut(&id) {
            Some(e) if e.alive => {
                e.last_beat = Instant::now();
                true
            }
            _ => false,
        }
    }

    /// Declare `id` dead immediately (e.g. the root observed its uplink
    /// socket die) and publish the shrunk ring. Counts as a failover.
    pub fn mark_dead(&self, id: LeafId) {
        let mut leaves = self.inner.leaves.lock();
        match leaves.get_mut(&id) {
            Some(e) if e.alive => e.alive = false,
            _ => return,
        }
        drop(leaves);
        self.inner.failovers.fetch_add(1, Ordering::Relaxed);
        self.inner.republish();
    }

    /// Evict every live leaf whose last heartbeat is older than the
    /// timeout; returns the evicted ids. Publishes at most one new epoch
    /// regardless of how many died in the interval.
    pub fn sweep(&self) -> Vec<LeafId> {
        let now = Instant::now();
        let mut dead = Vec::new();
        {
            let mut leaves = self.inner.leaves.lock();
            for (&id, e) in leaves.iter_mut() {
                if e.alive && now.duration_since(e.last_beat) > self.inner.heartbeat_timeout {
                    e.alive = false;
                    dead.push(id);
                }
            }
        }
        if !dead.is_empty() {
            self.inner
                .failovers
                .fetch_add(dead.len() as u64, Ordering::Relaxed);
            self.inner.republish();
        }
        dead
    }

    /// The currently published ring.
    pub fn snapshot(&self) -> Arc<RingSnapshot> {
        self.inner.snapshot.lock().clone()
    }

    /// Shared handle to the current epoch, for wiring into
    /// `ReactorCollectorConfig::epoch` so collectors enforce staleness against
    /// the live value without calling back into the control plane.
    pub fn epoch_handle(&self) -> Arc<AtomicU64> {
        self.inner.epoch.clone()
    }

    /// Leaves evicted by failure detection (missed heartbeats or
    /// [`ControlPlane::mark_dead`]) since start.
    pub fn failovers(&self) -> u64 {
        self.inner.failovers.load(Ordering::Relaxed)
    }

    /// Live leaves in the current membership table.
    pub fn live_leaves(&self) -> usize {
        self.inner
            .leaves
            .lock()
            .values()
            .filter(|e| e.alive)
            .count()
    }

    /// Export control-plane health: epoch, live membership, failovers.
    pub fn register_metrics(&self, registry: &saad_obs::Registry) {
        let inner = Arc::downgrade(&self.inner);
        registry.register_gauge_fn(
            "saad_control_epoch",
            "Current published ring epoch",
            &[],
            move || {
                inner
                    .upgrade()
                    .map_or(0, |i| i.epoch.load(Ordering::SeqCst) as i64)
            },
        );
        let inner = Arc::downgrade(&self.inner);
        registry.register_counter_fn(
            "saad_control_failovers_total",
            "Leaves evicted by failure detection since start",
            &[],
            move || {
                inner
                    .upgrade()
                    .map_or(0, |i| i.failovers.load(Ordering::Relaxed))
            },
        );
        let inner = Arc::downgrade(&self.inner);
        registry.register_counter_fn(
            "saad_control_republishes_total",
            "Ring snapshots published since start",
            &[],
            move || {
                inner
                    .upgrade()
                    .map_or(0, |i| i.republishes.load(Ordering::Relaxed))
            },
        );
        let inner = Arc::downgrade(&self.inner);
        registry.register_gauge_fn(
            "saad_control_leaves_live",
            "Leaves currently alive in the membership table",
            &[],
            move || {
                inner.upgrade().map_or(0, |i| {
                    i.leaves.lock().values().filter(|e| e.alive).count() as i64
                })
            },
        );
    }
}

impl LeafResolver for ControlPlane {
    fn resolve(&self, host: HostId) -> Option<(SocketAddr, u64)> {
        let snap = self.snapshot();
        let (_, addr) = snap.assign_addr(host)?;
        Some((addr, snap.epoch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u16) -> SocketAddr {
        format!("127.0.0.1:{}", 20_000 + n).parse().unwrap()
    }

    #[test]
    fn membership_changes_bump_the_epoch_monotonically() {
        let cp = ControlPlane::new(7, Duration::from_secs(1));
        assert_eq!(cp.snapshot().epoch, 0);
        cp.register_leaf(LeafId(0), addr(0));
        cp.register_leaf(LeafId(1), addr(1));
        let e2 = cp.snapshot().epoch;
        assert_eq!(e2, 2);
        cp.mark_dead(LeafId(0));
        let snap = cp.snapshot();
        assert_eq!(snap.epoch, 3);
        assert!(!snap.leaves.contains_key(&LeafId(0)));
        assert_eq!(cp.failovers(), 1);
        assert_eq!(cp.epoch_handle().load(Ordering::SeqCst), 3);
    }

    #[test]
    fn resolve_follows_the_published_ring() {
        let cp = ControlPlane::new(0x5AAD, Duration::from_secs(1));
        cp.register_leaf(LeafId(0), addr(0));
        cp.register_leaf(LeafId(1), addr(1));
        let host = HostId(12);
        let (a, epoch) = cp.resolve(host).unwrap();
        assert_eq!(epoch, 2);
        // Kill whichever leaf owns the host; resolution must move to the
        // survivor under the bumped epoch.
        let owner = cp.snapshot().assign(host).unwrap();
        cp.mark_dead(owner);
        let (b, epoch2) = cp.resolve(host).unwrap();
        assert_eq!(epoch2, 3);
        assert_ne!(a, b);
    }

    #[test]
    fn sweep_evicts_only_silent_leaves() {
        let cp = ControlPlane::new(1, Duration::from_millis(40));
        cp.register_leaf(LeafId(0), addr(0));
        cp.register_leaf(LeafId(1), addr(1));
        std::thread::sleep(Duration::from_millis(70));
        assert!(cp.heartbeat(LeafId(1)), "live leaf heartbeats fine");
        let dead = cp.sweep();
        assert_eq!(dead, vec![LeafId(0)]);
        assert_eq!(cp.live_leaves(), 1);
        assert!(!cp.heartbeat(LeafId(0)), "evicted leaf told to re-register");
        // Dead leaf re-registers and is live again under a fresh epoch.
        let before = cp.snapshot().epoch;
        cp.register_leaf(LeafId(0), addr(0));
        assert_eq!(cp.live_leaves(), 2);
        assert!(cp.snapshot().epoch > before);
        assert!(cp.sweep().is_empty(), "fresh registration not re-evicted");
    }

    #[test]
    fn empty_ring_resolves_to_nowhere() {
        let cp = ControlPlane::new(1, Duration::from_secs(1));
        assert!(cp.resolve(HostId(0)).is_none());
        cp.register_leaf(LeafId(3), addr(3));
        cp.deregister_leaf(LeafId(3));
        assert!(cp.resolve(HostId(0)).is_none());
        assert_eq!(cp.failovers(), 0, "graceful drain is not a failover");
    }
}
