//! Host→leaf assignment: a seeded rendezvous-hash ring published as
//! versioned, immutable epochs.
//!
//! Each tracked host is routed to exactly one leaf collector by
//! **rendezvous (highest-random-weight) hashing**: every live leaf gets a
//! deterministic pseudo-random score for the host, and the highest score
//! wins. Rendezvous hashing gives the two properties federation needs
//! with no virtual-node bookkeeping:
//!
//! - **Bounded churn.** When a leaf dies, only the hosts it owned move
//!   (they redistribute evenly over the survivors); when a leaf joins,
//!   hosts move *only to the joiner*, and in expectation only `1/N` of
//!   them. Everything else keeps its assignment, so a membership change
//!   never stampedes the whole fleet through reconnects.
//! - **Determinism.** Scores depend only on `(seed, host, leaf)`, so
//!   every party holding the same [`RingSnapshot`] computes the same
//!   assignment — there is no coordination beyond distributing the
//!   snapshot itself.
//!
//! Snapshots are immutable and tagged with a monotonically increasing
//! **epoch**; the control plane bumps the epoch on every membership
//! change and collectors reject handshakes routed by an older epoch (see
//! [`RejectReason::StaleEpoch`](crate::protocol::RejectReason)), which is
//! the signal for an agent to refetch the ring and re-home.

use saad_core::HostId;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;

/// Identity of one leaf collector in the federation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LeafId(pub u16);

impl std::fmt::Display for LeafId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "leaf-{}", self.0)
    }
}

/// splitmix64 finalizer — the same cheap, well-distributed mix the rest
/// of the codebase seeds RNGs with, used here as the rendezvous score
/// function.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One immutable published view of ring membership.
///
/// Cheap to clone behind an [`Arc`]; a new membership view is a new
/// snapshot under a higher epoch, never a mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingSnapshot {
    /// Version of this membership view. Strictly increases across
    /// publishes; handshakes carry it so collectors can detect routing
    /// by an obsolete view.
    pub epoch: u64,
    /// Seed all assignment scores derive from. Fixed for the lifetime of
    /// the federation so assignments are reproducible run to run.
    pub seed: u64,
    /// Live leaves and where to reach them, keyed by id (sorted, so
    /// iteration order — and therefore score tie-breaking — is
    /// deterministic).
    pub leaves: BTreeMap<LeafId, SocketAddr>,
}

impl RingSnapshot {
    /// Build a snapshot from explicit membership.
    pub fn new(
        epoch: u64,
        seed: u64,
        leaves: impl IntoIterator<Item = (LeafId, SocketAddr)>,
    ) -> Arc<RingSnapshot> {
        Arc::new(RingSnapshot {
            epoch,
            seed,
            leaves: leaves.into_iter().collect(),
        })
    }

    /// The leaf `host` is assigned to, or `None` when the ring is empty.
    ///
    /// Highest rendezvous score wins; on the (astronomically unlikely)
    /// score tie the lower [`LeafId`] wins, so the choice is total and
    /// deterministic.
    pub fn assign(&self, host: HostId) -> Option<LeafId> {
        self.leaves
            .keys()
            .map(|&leaf| (score(self.seed, host, leaf), leaf))
            .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
            .map(|(_, leaf)| leaf)
    }

    /// Address of the leaf `host` is assigned to.
    pub(crate) fn assign_addr(&self, host: HostId) -> Option<(LeafId, SocketAddr)> {
        let leaf = self.assign(host)?;
        Some((leaf, self.leaves[&leaf]))
    }
}

fn score(seed: u64, host: HostId, leaf: LeafId) -> u64 {
    mix64(seed ^ mix64((host.0 as u64) << 16 | leaf.0 as u64))
}

/// Where an agent should connect *right now*, and under which ring epoch
/// that answer was computed.
///
/// The agent consults its resolver before **every** connect attempt, so a
/// control-plane republish re-homes a reconnecting agent with no extra
/// machinery: the next backoff attempt simply dials the new owner. A
/// `None` answer means "nowhere to go at the moment" — the agent backs
/// off and asks again.
pub trait LeafResolver: Send + Sync {
    /// Resolve the current collector address and ring epoch for `host`.
    fn resolve(&self, host: HostId) -> Option<(SocketAddr, u64)>;
}

/// Resolver for the non-federated (single collector) deployment: always
/// the same address, with the epoch pinned to
/// [`PINNED_EPOCH`](crate::protocol::PINNED_EPOCH) so no staleness check
/// applies.
#[derive(Debug, Clone, Copy)]
pub struct PinnedResolver {
    addr: SocketAddr,
}

impl PinnedResolver {
    /// Pin every host to `addr`.
    pub fn new(addr: SocketAddr) -> PinnedResolver {
        PinnedResolver { addr }
    }
}

impl LeafResolver for PinnedResolver {
    fn resolve(&self, _host: HostId) -> Option<(SocketAddr, u64)> {
        Some((self.addr, crate::protocol::PINNED_EPOCH))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn addr(n: u16) -> SocketAddr {
        format!("127.0.0.1:{}", 10_000 + n).parse().unwrap()
    }

    fn ring(epoch: u64, seed: u64, ids: &[u16]) -> Arc<RingSnapshot> {
        RingSnapshot::new(epoch, seed, ids.iter().map(|&i| (LeafId(i), addr(i))))
    }

    #[test]
    fn empty_ring_assigns_nothing() {
        assert_eq!(ring(1, 7, &[]).assign(HostId(3)), None);
    }

    #[test]
    fn assignment_is_deterministic_and_covers_all_leaves() {
        let r = ring(1, 0x5AAD, &[0, 1, 2, 3]);
        let mut owned = std::collections::HashMap::new();
        for h in 0..400u16 {
            let leaf = r.assign(HostId(h)).unwrap();
            assert_eq!(r.assign(HostId(h)), Some(leaf), "stable on re-query");
            *owned.entry(leaf).or_insert(0usize) += 1;
        }
        // Every leaf owns a reasonable share of 400 hosts (expected 100
        // each) — rendezvous hashing balances without virtual nodes.
        assert_eq!(owned.len(), 4, "all leaves own hosts: {owned:?}");
        for (&leaf, &n) in &owned {
            assert!((40..=180).contains(&n), "{leaf} owns {n} of 400");
        }
    }

    #[test]
    fn leave_rehomes_only_the_dead_leafs_hosts() {
        let before = ring(1, 0x5AAD, &[0, 1, 2, 3]);
        let after = ring(2, 0x5AAD, &[0, 1, 3]); // leaf 2 died
        for h in 0..500u16 {
            let was = before.assign(HostId(h)).unwrap();
            let now = after.assign(HostId(h)).unwrap();
            if was != LeafId(2) {
                assert_eq!(was, now, "host {h} moved although its leaf survived");
            } else {
                assert_ne!(now, LeafId(2));
            }
        }
    }

    proptest! {
        #[test]
        fn join_moves_hosts_only_to_the_joiner_and_about_one_in_n(
            seed in 0u64..u64::MAX,
            existing in proptest::collection::vec(0u16..200, 1..12),
            joiner in 200u16..220,
        ) {
            let ids: Vec<u16> = existing
                .iter()
                .copied()
                .collect::<std::collections::BTreeSet<u16>>()
                .into_iter()
                .collect();
            let mut grown = ids.clone();
            grown.push(joiner);
            let before = ring(1, seed, &ids);
            let after = ring(2, seed, &grown);
            let n = grown.len() as f64;
            let hosts = 600u16;
            let mut moved = 0usize;
            for h in 0..hosts {
                let was = before.assign(HostId(h)).unwrap();
                let now = after.assign(HostId(h)).unwrap();
                if was != now {
                    prop_assert!(now == LeafId(joiner), "host {} moved to a non-joiner", h);
                    moved += 1;
                }
            }
            // Expected moves: hosts/n. Allow generous slack for small n,
            // but rule out both stampede (≫1/N) and dead joiner.
            let expected = hosts as f64 / n;
            prop_assert!((moved as f64) < expected * 2.5 + 8.0,
                "{} of {} moved on join of 1/{} (expected ~{:.0})", moved, hosts, n, expected);
            prop_assert!(moved > 0, "joiner {} owns nothing across {} hosts", joiner, hosts);
        }

        #[test]
        fn assignment_depends_only_on_snapshot_contents(
            seed in 0u64..u64::MAX,
            ids in proptest::collection::vec(0u16..300, 1..16),
            host in 0u16..2000,
        ) {
            let v: Vec<u16> = ids
                .iter()
                .copied()
                .collect::<std::collections::BTreeSet<u16>>()
                .into_iter()
                .collect();
            // Same membership under different epochs or construction
            // order → same assignment: the epoch versions the view, it
            // does not perturb routing.
            let a = ring(1, seed, &v);
            let mut rev = v.clone();
            rev.reverse();
            let b = ring(999, seed, &rev);
            prop_assert_eq!(a.assign(HostId(host)), b.assign(HostId(host)));
        }
    }
}
