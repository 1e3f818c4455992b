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
//! Two levels. The source of truth is a table sharded 16 ways, each
//! shard an append-only `RwLock<{HashMap, Vec}>` pair: it issues every
//! id, answers [`SignatureInterner::resolve`] and is what a checkpoint
//! stores. In front of it sits a small insert-only table of
//! `FRONT_SLOTS` (256) publish-once slots that takes no lock at all: a
//! handful of signatures cover 95 % of tasks (the paper's Fig 6: 29–72
//! per system), so interning a known flow is one hash of the point
//! slice, one acquire load and one slice compare. A signature enters the
//! front the first time the sharded table resolves it; a slot, once
//! published, is never replaced, and a signature whose `FRONT_PROBES` (8)
//! candidate slots are all taken simply keeps going through its shard
//! (a read lock on a hit, a write lock the first time it is ever seen,
//! cluster-wide). The front changes no id: it only remembers what the
//! shards answered.
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
use std::sync::OnceLock;

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
    fn new(shard: usize, local: u32) -> SigId {
        SigId((local << SHARD_BITS) | shard as u32)
    }

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

/// Slots in the lock-free front table (a power of two). Fig 6 puts the
/// signatures that cover 95 % of tasks at 29–72 per system, so the hot
/// set loads the table to under a third.
const FRONT_SLOTS: usize = 256;
/// Consecutive slots a signature may occupy, counted from its hash. Past
/// them the signature is not cached and resolves through its shard.
const FRONT_PROBES: usize = 8;

/// One published front slot: a canonical point slice and the id its
/// shard issued for it.
struct FrontEntry {
    hash: u64,
    id: SigId,
    points: Box<[LogPointId]>,
}

/// Hash of a point slice for the front table only (the shard — and so
/// the id — is still chosen by [`shard_of`]): one multiply per point,
/// finished so that the low bits, which pick the slot, depend on every
/// point.
fn front_hash(points: &[LogPointId]) -> u64 {
    let mut h = points.len() as u64;
    for p in points {
        h = (h.rotate_left(5) ^ u64::from(p.0)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    h ^ (h >> 32)
}

/// The insert-only front table. `OnceLock` gives each slot exactly one
/// publication (release) that every later reader sees whole (acquire).
struct Front {
    slots: [OnceLock<FrontEntry>; FRONT_SLOTS],
}

impl Default for Front {
    fn default() -> Front {
        Front {
            slots: [const { OnceLock::new() }; FRONT_SLOTS],
        }
    }
}

impl Front {
    fn probes(hash: u64) -> impl Iterator<Item = usize> {
        (0..FRONT_PROBES).map(move |i| (hash as usize).wrapping_add(i) & (FRONT_SLOTS - 1))
    }

    /// The cached id of exactly this slice. Slots fill in probe order and
    /// are never vacated, so the first empty one ends the search. Only
    /// canonical slices are ever published, so an unsorted or duplicated
    /// slice matches nothing.
    fn get(&self, hash: u64, points: &[LogPointId]) -> Option<SigId> {
        for slot in Front::probes(hash) {
            let entry = self.slots[slot].get()?;
            if entry.hash == hash && *entry.points == *points {
                return Some(entry.id);
            }
        }
        None
    }

    /// Publish `points → id` in the first free candidate slot, unless a
    /// racing thread already published the same signature or every
    /// candidate is taken.
    fn publish(&self, hash: u64, points: &[LogPointId], id: SigId) {
        for slot in Front::probes(hash) {
            let slot = &self.slots[slot];
            let entry = slot.get_or_init(|| FrontEntry {
                hash,
                id,
                points: points.into(),
            });
            if entry.hash == hash && *entry.points == *points {
                return;
            }
        }
    }
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
    front: Front,
    shards: [RwLock<Shard>; SHARDS],
}

impl fmt::Debug for SignatureInterner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SignatureInterner")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
thread_local! {
    /// [`SignatureInterner::resolve`] calls made by this thread: lets a
    /// test assert that a path resolved nothing.
    pub(crate) static RESOLVES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
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
        let hash = front_hash(points);
        match self.front.get(hash, points) {
            Some(id) => id,
            None => self.intern_through_shard(hash, points),
        }
    }

    /// The front missed: resolve the canonical `points` through their
    /// shard, which issues the id if nobody has yet, then remember the
    /// answer in the front.
    fn intern_through_shard(&self, hash: u64, points: &[LogPointId]) -> SigId {
        let shard_idx = shard_of(points);
        let shard = &self.shards[shard_idx];
        let known = shard.read().ids.get(points).copied();
        let local = known.unwrap_or_else(|| {
            let mut inner = shard.write();
            // Double-check: another thread may have interned it between
            // the read unlock and the write lock.
            if let Some(&local) = inner.ids.get(points) {
                return local;
            }
            let local = inner.sigs.len() as u32;
            assert!(
                local < (u32::MAX >> SHARD_BITS),
                "signature interner shard overflow"
            );
            let sig = Signature::from_sorted_points(points.to_vec());
            inner.sigs.push(sig.clone());
            inner.ids.insert(sig, local);
            local
        });
        let id = SigId::new(shard_idx, local);
        self.front.publish(hash, points, id);
        id
    }

    /// Intern an arbitrary (possibly unsorted, possibly duplicated)
    /// slice of visited points. Normalizes into a small inline buffer —
    /// no heap allocation for signatures of up to 16 distinct points.
    pub fn intern_points(&self, points: &[LogPointId]) -> SigId {
        // A front hit proves the slice canonical (nothing else is ever
        // published), so a known flow skips the sortedness pass too.
        let hash = front_hash(points);
        if let Some(id) = self.front.get(hash, points) {
            return id;
        }
        if points.windows(2).all(|w| w[0] < w[1]) {
            return self.intern_through_shard(hash, points);
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
    /// buffer, one hash and a front-table hit — no allocation, no
    /// re-sort, no lock.
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
            .map(|&local| SigId::new(shard_idx, local))
    }

    /// Whether this interner has issued `id` (a lock and a compare — the
    /// allocation-free half of [`SignatureInterner::resolve`]).
    pub(crate) fn issued(&self, id: SigId) -> bool {
        id.index() < self.shards[id.shard()].read().sigs.len()
    }

    /// The signature behind an id (cloned; ids resolve only against the
    /// interner that issued them).
    pub fn resolve(&self, id: SigId) -> Option<Signature> {
        #[cfg(test)]
        RESOLVES.with(|n| n.set(n.get() + 1));
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
        // Warm the front in local-index order across the shards — the
        // nearest thing to first-seen order a checkpoint keeps — so the
        // flows the writer met first are the ones cached again.
        let deepest = contents.iter().map(Vec::len).max().unwrap_or(0);
        for local in 0..deepest {
            for (shard_idx, sigs) in contents.iter().enumerate() {
                if let Some(sig) = sigs.get(local) {
                    let (points, id) = (sig.points(), SigId::new(shard_idx, local as u32));
                    interner.front.publish(front_hash(points), points, id);
                }
            }
        }
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
        let mut warm = 0;
        for (s, &id) in sigs.iter().zip(&ids) {
            assert_eq!(restored.get(s), Some(id), "{s}");
            assert_eq!(restored.resolve(id), Some(s.clone()));
            // The front was warmed from the shards and agrees with them.
            let cached = restored.front.get(front_hash(s.points()), s.points());
            assert!(cached.is_none() || cached == Some(id), "{s}");
            warm += usize::from(cached.is_some());
            assert_eq!(restored.intern(s), id, "{s}");
        }
        assert!(
            warm >= sigs.len() / 2,
            "only {warm} restored into the front"
        );
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

    /// An interner whose front can cache nothing — every slot is already
    /// published, to an entry no slice matches — so every call resolves
    /// through the shards alone: the behaviour before the front existed,
    /// and the behaviour of a full table.
    fn shards_only() -> SignatureInterner {
        let interner = SignatureInterner::new();
        for slot in &interner.front.slots {
            let taken = slot.set(FrontEntry {
                hash: 0,
                id: SigId(u32::MAX),
                points: [LogPointId(0), LogPointId(0)].into(),
            });
            assert!(taken.is_ok());
        }
        interner
    }

    /// Slice `i` of a reproducible stream: canonical, reversed, or with
    /// its first point repeated at the end, over ~700 distinct signatures
    /// (more than the front holds).
    fn stream_slice(i: u32) -> Vec<LogPointId> {
        let k = (i.wrapping_mul(2_654_435_761) >> 7) % 700;
        let len = 1 + (k % 5) as u16;
        let mut points: Vec<LogPointId> = (0..len).map(|j| LogPointId(k as u16 + 97 * j)).collect();
        match i % 3 {
            0 => {}
            1 => points.reverse(),
            _ => points.push(points[0]),
        }
        points
    }

    #[test]
    fn front_issues_exactly_the_ids_the_shards_issue() {
        let fronted = SignatureInterner::new();
        let plain = shards_only();
        for i in 0..6_000u32 {
            let points = stream_slice(i);
            let id = fronted.intern_points(&points);
            assert_eq!(id, plain.intern_points(&points), "slice {i}: {points:?}");
            let canonical = Signature::from_points(points.iter().copied());
            assert_eq!(fronted.resolve(id), Some(canonical.clone()));
            assert_eq!(fronted.intern_sorted(canonical.points()), id);
            assert_eq!(fronted.get(&canonical), Some(id));
        }
        assert_eq!(fronted.shard_contents(), plain.shard_contents());
        // The stream outgrew the front: some signatures are cached, the
        // rest found every candidate slot taken and still interned.
        let cached = fronted.front.slots.iter().filter(|s| s.get().is_some());
        let cached = cached.count();
        assert!(
            cached > FRONT_SLOTS / 2 && fronted.len() > cached,
            "{cached} cached"
        );
    }

    #[test]
    fn only_canonical_slices_are_cached() {
        let interner = SignatureInterner::new();
        let raw = [5, 1, 5, 3].map(LogPointId);
        let canonical = [1, 3, 5].map(LogPointId);
        let id = interner.intern_points(&raw);
        assert_eq!(interner.front.get(front_hash(&raw), &raw), None);
        assert_eq!(
            interner.front.get(front_hash(&canonical), &canonical),
            Some(id)
        );
        let published = interner.front.slots.iter().filter(|s| s.get().is_some());
        assert_eq!(published.count(), 1);
    }

    #[test]
    fn threads_racing_new_signatures_get_one_id_each() {
        const THREADS: usize = 4;
        const SIGNATURES: u16 = 400;
        let interner = SignatureInterner::new();
        let start = std::sync::Barrier::new(THREADS);
        let per_thread: Vec<Vec<SigId>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        // Everyone meets each signature for the first time
                        // at once: front miss, shard insert and front
                        // publication all race.
                        start.wait();
                        (0..SIGNATURES)
                            .map(|k| interner.intern_points(&[k, k + 1, 2 * k + 7].map(LogPointId)))
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for ids in &per_thread[1..] {
            assert_eq!(ids, &per_thread[0], "threads disagree on an id");
        }
        let distinct: std::collections::HashSet<SigId> = per_thread[0].iter().copied().collect();
        assert_eq!(distinct.len(), SIGNATURES as usize);
        assert_eq!(interner.len(), SIGNATURES as usize);
        // No signature was published twice, and what is cached is right.
        let mut cached = std::collections::HashSet::new();
        for entry in interner.front.slots.iter().filter_map(OnceLock::get) {
            assert!(cached.insert(entry.id), "{} cached twice", entry.id);
            let sig = Signature::from_sorted_points(entry.points.to_vec());
            assert_eq!(interner.resolve(entry.id), Some(sig));
        }
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
