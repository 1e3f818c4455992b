//! Concurrent signature interning: `Signature` → dense [`SigId`].
//!
//! The analyzer's per-task hot path used to allocate a boxed
//! [`Signature`] for every synopsis and re-hash the full variable-length
//! point slice on every map lookup. The interner removes both costs:
//! a signature is hashed **once** when it is interned (a borrowed-slice
//! lookup that allocates nothing on a hit), and every downstream
//! structure — compiled model tables, detection-window accumulators —
//! keys on the dense `u32` [`SigId`] instead.
//!
//! The table is sharded 16 ways; each shard is an append-only
//! `RwLock<{HashMap, Vec}>` pair, so concurrent analyzer shards interning
//! already-seen signatures (the overwhelmingly common case — a stage has
//! a handful of live flows) take only a read lock on one shard. A write
//! lock is needed only the first time a signature is ever seen,
//! cluster-wide.
//!
//! Ids are stable for the lifetime of the interner and encode their
//! shard in the low bits, so [`SignatureInterner::resolve`] is two array
//! indexes under a read lock.

use crate::signature::Signature;
use crate::synopsis::TaskSynopsis;
use parking_lot::RwLock;
use saad_logging::LogPointId;
use std::collections::HashMap;
use std::fmt;

/// Number of independent shards (must be a power of two).
const SHARDS: usize = 16;
const SHARD_MASK: u32 = (SHARDS as u32) - 1;
const SHARD_BITS: u32 = SHARDS.trailing_zeros();

/// Signatures held on the stack while normalizing a synopsis's points;
/// longer signatures fall back to one heap allocation.
pub(crate) const INLINE_POINTS: usize = 16;

/// Dense identifier of an interned [`Signature`].
///
/// Ids are compact (`u32`), cheap to hash, and index directly into the
/// [`crate::model::CompiledModel`] lookup tables. An id is only
/// meaningful relative to the [`SignatureInterner`] that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SigId(pub u32);

impl SigId {
    fn shard(self) -> usize {
        (self.0 & SHARD_MASK) as usize
    }

    fn index(self) -> usize {
        (self.0 >> SHARD_BITS) as usize
    }
}

impl fmt::Display for SigId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sig#{}", self.0)
    }
}

#[derive(Debug, Default)]
struct Shard {
    /// Signature → local index. Lookup is by borrowed `[LogPointId]`
    /// slice (no allocation) via `Borrow`.
    ids: HashMap<Signature, u32>,
    /// Local index → signature, for [`SignatureInterner::resolve`].
    sigs: Vec<Signature>,
}

/// FNV-1a over the point ids; used only to pick a shard, so it needs to
/// be cheap and stable, not cryptographic.
fn shard_of(points: &[LogPointId]) -> usize {
    let mut h: u32 = 0x811c_9dc5;
    for p in points {
        h ^= p.0 as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    // Fold the high bits in so shards stay balanced even if the low
    // bits of the product are biased.
    ((h ^ (h >> 16)) as usize) & (SHARDS - 1)
}

/// A concurrent, append-only map `Signature → SigId`.
///
/// # Example
///
/// ```
/// use saad_core::intern::SignatureInterner;
/// use saad_core::Signature;
/// use saad_logging::LogPointId;
///
/// let interner = SignatureInterner::new();
/// let sig = Signature::from_points([LogPointId(1), LogPointId(4)]);
/// let id = interner.intern(&sig);
/// assert_eq!(interner.intern(&sig), id); // stable
/// assert_eq!(interner.resolve(id), Some(sig));
/// ```
#[derive(Default)]
pub struct SignatureInterner {
    shards: [RwLock<Shard>; SHARDS],
}

impl fmt::Debug for SignatureInterner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SignatureInterner")
            .field("len", &self.len())
            .finish()
    }
}

impl SignatureInterner {
    /// Create an empty interner.
    pub fn new() -> SignatureInterner {
        SignatureInterner::default()
    }

    /// Total distinct signatures interned.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().sigs.len()).sum()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One past the largest id value issued so far — the table length a
    /// dense `SigId`-indexed array needs to cover every issued id. May
    /// exceed [`SignatureInterner::len`] because ids interleave their
    /// shard number in the low bits.
    pub fn capacity(&self) -> usize {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let len = s.read().sigs.len();
                if len == 0 {
                    0
                } else {
                    (((len - 1) << SHARD_BITS as usize) | i) + 1
                }
            })
            .max()
            .unwrap_or(0)
    }

    /// Intern a signature, returning its stable id.
    pub fn intern(&self, sig: &Signature) -> SigId {
        self.intern_sorted(sig.points())
    }

    /// Intern a **sorted, deduplicated** slice of points without
    /// building a [`Signature`] first. On a hit (every observation of a
    /// known flow) this allocates nothing.
    ///
    /// The caller must uphold the signature invariant; out-of-order or
    /// duplicated points would intern a malformed signature. Use
    /// [`SignatureInterner::intern_points`] for arbitrary slices.
    pub fn intern_sorted(&self, points: &[LogPointId]) -> SigId {
        debug_assert!(
            points.windows(2).all(|w| w[0] < w[1]),
            "intern_sorted requires strictly ascending points"
        );
        let shard_idx = shard_of(points);
        let shard = &self.shards[shard_idx];
        if let Some(&local) = shard.read().ids.get(points) {
            return SigId((local << SHARD_BITS) | shard_idx as u32);
        }
        let mut inner = shard.write();
        // Double-check: another thread may have interned it between the
        // read unlock and the write lock.
        if let Some(&local) = inner.ids.get(points) {
            return SigId((local << SHARD_BITS) | shard_idx as u32);
        }
        let local = inner.sigs.len() as u32;
        assert!(
            local < (u32::MAX >> SHARD_BITS),
            "signature interner shard overflow"
        );
        let sig = Signature::from_sorted_points(points.to_vec());
        inner.sigs.push(sig.clone());
        inner.ids.insert(sig, local);
        SigId((local << SHARD_BITS) | shard_idx as u32)
    }

    /// Intern an arbitrary (possibly unsorted, possibly duplicated)
    /// slice of visited points. Normalizes into a small inline buffer —
    /// no heap allocation for signatures of up to 16 distinct points.
    pub fn intern_points(&self, points: &[LogPointId]) -> SigId {
        if points.windows(2).all(|w| w[0] < w[1]) {
            return self.intern_sorted(points);
        }
        let mut inline = [LogPointId(0); INLINE_POINTS];
        if points.len() <= INLINE_POINTS {
            let buf = &mut inline[..points.len()];
            buf.copy_from_slice(points);
            buf.sort_unstable();
            let n = dedup_in_place(buf);
            self.intern_sorted(&inline[..n])
        } else {
            let mut v = points.to_vec();
            v.sort_unstable();
            v.dedup();
            self.intern_sorted(&v)
        }
    }

    /// Intern a synopsis's signature. The tracker keeps `log_points`
    /// sorted and distinct, so the common case is a copy into a stack
    /// buffer plus one hash — no allocation, no re-sort.
    pub fn intern_synopsis(&self, s: &TaskSynopsis) -> SigId {
        let mut inline = [LogPointId(0); INLINE_POINTS];
        if s.log_points.len() <= INLINE_POINTS {
            for (slot, &(p, _)) in inline.iter_mut().zip(&s.log_points) {
                *slot = p;
            }
            self.intern_points(&inline[..s.log_points.len()])
        } else {
            let v: Vec<LogPointId> = s.log_points.iter().map(|&(p, _)| p).collect();
            self.intern_points(&v)
        }
    }

    /// Id of an already-interned signature, if present.
    pub fn get(&self, sig: &Signature) -> Option<SigId> {
        let shard_idx = shard_of(sig.points());
        self.shards[shard_idx]
            .read()
            .ids
            .get(sig.points())
            .map(|&local| SigId((local << SHARD_BITS) | shard_idx as u32))
    }

    /// Whether this interner has issued `id` (a lock and a compare — the
    /// allocation-free half of [`SignatureInterner::resolve`]).
    pub(crate) fn issued(&self, id: SigId) -> bool {
        id.index() < self.shards[id.shard()].read().sigs.len()
    }

    /// The signature behind an id (cloned; ids resolve only against the
    /// interner that issued them).
    pub fn resolve(&self, id: SigId) -> Option<Signature> {
        self.shards[id.shard()].read().sigs.get(id.index()).cloned()
    }

    /// Every interned signature, grouped per shard in local-index order.
    ///
    /// This is the interner's durable form: feeding the result to
    /// [`SignatureInterner::from_shard_contents`] reconstructs an
    /// interner that issues **exactly the same** [`SigId`] for every
    /// signature, so ids embedded in detector snapshots stay valid
    /// across a checkpoint/restore cycle.
    pub fn shard_contents(&self) -> Vec<Vec<Signature>> {
        self.shards.iter().map(|s| s.read().sigs.clone()).collect()
    }

    /// Rebuild an interner from [`SignatureInterner::shard_contents`]
    /// output, placing each signature back in its original shard at its
    /// original local index.
    ///
    /// # Panics
    ///
    /// Panics if `contents` does not have exactly one entry per shard or
    /// if a signature is listed under a shard other than the one its
    /// hash selects — both indicate a corrupted or hand-built input, and
    /// silently accepting it would issue ids that resolve to the wrong
    /// signature. (Checkpoint decoding validates lengths and checksums
    /// before calling this.)
    pub fn from_shard_contents(contents: Vec<Vec<Signature>>) -> SignatureInterner {
        assert_eq!(
            contents.len(),
            SHARDS,
            "shard_contents must have exactly {SHARDS} shards"
        );
        let interner = SignatureInterner::new();
        for (shard_idx, sigs) in contents.into_iter().enumerate() {
            let mut inner = interner.shards[shard_idx].write();
            for (local, sig) in sigs.into_iter().enumerate() {
                assert_eq!(
                    shard_of(sig.points()),
                    shard_idx,
                    "signature {sig} restored into the wrong shard"
                );
                inner.ids.insert(sig.clone(), local as u32);
                inner.sigs.push(sig);
            }
        }
        interner
    }
}

/// Dedup a sorted slice in place, returning the deduplicated length.
fn dedup_in_place(buf: &mut [LogPointId]) -> usize {
    let mut n = 0;
    for i in 0..buf.len() {
        if n == 0 || buf[i] != buf[n - 1] {
            buf[n] = buf[i];
            n += 1;
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HostId, StageId, TaskUid};
    use proptest::prelude::*;
    use saad_sim::{SimDuration, SimTime};
    use std::sync::Arc;

    fn sig(ids: &[u16]) -> Signature {
        Signature::from_points(ids.iter().map(|&i| LogPointId(i)))
    }

    #[test]
    fn intern_is_stable_and_resolvable() {
        let interner = SignatureInterner::new();
        let a = interner.intern(&sig(&[1, 2, 5]));
        let b = interner.intern(&sig(&[3]));
        assert_ne!(a, b);
        assert_eq!(interner.intern(&sig(&[1, 2, 5])), a);
        assert_eq!(interner.resolve(a), Some(sig(&[1, 2, 5])));
        assert_eq!(interner.resolve(b), Some(sig(&[3])));
        assert_eq!(interner.len(), 2);
        assert!(!interner.is_empty());
    }

    #[test]
    fn empty_signature_interned() {
        let interner = SignatureInterner::new();
        let id = interner.intern(&Signature::empty());
        assert_eq!(interner.resolve(id), Some(Signature::empty()));
        assert_eq!(interner.intern_points(&[]), id);
    }

    #[test]
    fn unknown_ids_resolve_to_none() {
        let interner = SignatureInterner::new();
        assert_eq!(interner.resolve(SigId(12345)), None);
        assert_eq!(interner.get(&sig(&[9])), None);
    }

    #[test]
    fn intern_points_normalizes() {
        let interner = SignatureInterner::new();
        let a = interner.intern_points(&[5, 1, 5, 3].map(LogPointId));
        let b = interner.intern(&sig(&[1, 3, 5]));
        assert_eq!(a, b);
        assert_eq!(interner.len(), 1);
    }

    #[test]
    fn long_signatures_intern_via_heap_path() {
        let interner = SignatureInterner::new();
        let points: Vec<LogPointId> = (0..40u16).rev().map(LogPointId).collect();
        let id = interner.intern_points(&points);
        let expected = Signature::from_points(points);
        assert_eq!(interner.resolve(id), Some(expected));
    }

    #[test]
    fn intern_synopsis_matches_signature() {
        let mk = |points: &[(u16, u32)]| TaskSynopsis {
            host: HostId(0),
            stage: StageId(0),
            uid: TaskUid(0),
            start: SimTime::ZERO,
            duration: SimDuration::from_micros(5),
            log_points: points.iter().map(|&(p, c)| (LogPointId(p), c)).collect(),
        };
        let interner = SignatureInterner::new();
        for points in [
            &[(1u16, 3u32), (4, 1), (9, 2)][..],
            &[][..],
            &[(7, 1)][..],
            // Unsorted input (hand-built synopses): still normalized.
            &[(9, 1), (2, 1), (9, 4)][..],
        ] {
            let s = mk(points);
            let id = interner.intern_synopsis(&s);
            assert_eq!(interner.resolve(id), Some(s.signature()), "{points:?}");
        }
        // A synopsis wider than the inline buffer.
        let wide: Vec<(u16, u32)> = (0..30u16).map(|p| (p, 1)).collect();
        let s = mk(&wide);
        assert_eq!(
            interner.resolve(interner.intern_synopsis(&s)),
            Some(s.signature())
        );
    }

    #[test]
    fn concurrent_interning_agrees() {
        let interner = Arc::new(SignatureInterner::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let interner = interner.clone();
                std::thread::spawn(move || {
                    let mut ids = Vec::new();
                    for round in 0..200u16 {
                        // Overlapping signature space across threads.
                        let base = (round % 50) + t; // deliberate collisions
                        ids.push(interner.intern(&sig(&[base, base + 1])));
                    }
                    ids
                })
            })
            .collect();
        for h in handles {
            for id in h.join().unwrap() {
                assert!(interner.resolve(id).is_some());
            }
        }
        // Same signature from different threads got one id.
        let a = interner.intern(&sig(&[0, 1]));
        assert_eq!(interner.get(&sig(&[0, 1])), Some(a));
    }

    #[test]
    fn shard_contents_round_trip_preserves_ids() {
        let interner = SignatureInterner::new();
        let sigs: Vec<Signature> = (0..100u16)
            .map(|i| sig(&[i, i + 1, i.wrapping_mul(7) % 200]))
            .collect();
        let ids: Vec<SigId> = sigs.iter().map(|s| interner.intern(s)).collect();
        let restored = SignatureInterner::from_shard_contents(interner.shard_contents());
        assert_eq!(restored.len(), interner.len());
        assert_eq!(restored.capacity(), interner.capacity());
        for (s, &id) in sigs.iter().zip(&ids) {
            assert_eq!(restored.get(s), Some(id), "{s}");
            assert_eq!(restored.resolve(id), Some(s.clone()));
        }
        // The restored interner keeps appending without id collisions.
        let fresh = restored.intern(&sig(&[250, 251]));
        assert!(ids.iter().all(|&id| id != fresh));
    }

    #[test]
    fn empty_interner_round_trips() {
        let restored =
            SignatureInterner::from_shard_contents(SignatureInterner::new().shard_contents());
        assert!(restored.is_empty());
        assert_eq!(restored.capacity(), 0);
    }

    #[test]
    #[should_panic(expected = "wrong shard")]
    fn misplaced_signature_rejected_on_restore() {
        let interner = SignatureInterner::new();
        interner.intern(&sig(&[1, 2, 5]));
        let mut contents = interner.shard_contents();
        // Move every signature one shard over.
        contents.rotate_right(1);
        SignatureInterner::from_shard_contents(contents);
    }

    proptest! {
        #[test]
        fn interning_round_trips(ids in proptest::collection::vec(0u16..100, 0..30)) {
            let interner = SignatureInterner::new();
            let points: Vec<LogPointId> = ids.iter().map(|&i| LogPointId(i)).collect();
            let id = interner.intern_points(&points);
            prop_assert_eq!(
                interner.resolve(id),
                Some(Signature::from_points(points))
            );
        }
    }
}
