//! Task signatures: the set of distinct log points a task visited.

use saad_logging::LogPointId;
use std::borrow::Borrow;
use std::fmt;

/// A task's execution-flow signature — the *set* of distinct log points it
/// encountered (paper §3.3.1).
///
/// "The slightest difference in signature is a strong indicator of a
/// difference in the execution flow": two tasks with different signatures
/// executed different code. The set is stored sorted and deduplicated, so
/// equal flows compare equal regardless of visit order or frequency.
///
/// # Example
///
/// ```
/// use saad_core::Signature;
/// use saad_logging::LogPointId;
///
/// let a = Signature::from_points([LogPointId(4), LogPointId(1), LogPointId(1)]);
/// let b = Signature::from_points([LogPointId(1), LogPointId(4)]);
/// assert_eq!(a, b);
/// assert_eq!(a.to_string(), "[L1, L4]");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Signature(Box<[LogPointId]>);

impl Signature {
    /// The empty signature (a task that hit no log points).
    pub fn empty() -> Signature {
        Signature::default()
    }

    /// Build a signature from any iterator of visited points; duplicates
    /// and ordering are normalized away.
    pub fn from_points<I: IntoIterator<Item = LogPointId>>(points: I) -> Signature {
        let mut v: Vec<LogPointId> = points.into_iter().collect();
        if v.windows(2).all(|w| w[0] < w[1]) {
            // Already canonical (the tracker emits points sorted and
            // distinct) — skip the sort and the dedup shuffle.
            return Signature(v.into_boxed_slice());
        }
        v.sort_unstable();
        v.dedup();
        Signature(v.into_boxed_slice())
    }

    /// Build a signature from points already in canonical form (strictly
    /// ascending, no duplicates), skipping normalization. Used by the
    /// interner's hot path, where the invariant is checked upstream.
    ///
    /// # Panics
    ///
    /// Debug builds assert the invariant; release builds trust it.
    pub(crate) fn from_sorted_points(points: Vec<LogPointId>) -> Signature {
        debug_assert!(
            points.windows(2).all(|w| w[0] < w[1]),
            "from_sorted_points requires strictly ascending points"
        );
        Signature(points.into_boxed_slice())
    }

    /// The distinct points, ascending.
    pub fn points(&self) -> &[LogPointId] {
        &self.0
    }

    /// Number of distinct points.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the task hit no log points.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Whether the signature contains a given point.
    pub fn contains(&self, point: LogPointId) -> bool {
        self.0.binary_search(&point).is_ok()
    }

    /// Points present in `self` but not in `other` — used by the anomaly
    /// report to explain *how* an anomalous flow differs from the normal
    /// one (e.g. Table 1's frozen-MemTable diagnosis).
    pub fn difference(&self, other: &Signature) -> Vec<LogPointId> {
        self.0
            .iter()
            .filter(|p| !other.contains(**p))
            .copied()
            .collect()
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, p) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "]")
    }
}

/// Allows `HashMap<Signature, _>` lookups by borrowed point slice with
/// zero allocation (the interner's hit path). Sound because the derived
/// `Hash`/`Eq` of a single-field struct delegate to the field, and
/// `Box<[T]>` hashes identically to `[T]`.
impl Borrow<[LogPointId]> for Signature {
    fn borrow(&self) -> &[LogPointId] {
        &self.0
    }
}

impl FromIterator<LogPointId> for Signature {
    fn from_iter<I: IntoIterator<Item = LogPointId>>(iter: I) -> Signature {
        Signature::from_points(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sig(ids: &[u16]) -> Signature {
        Signature::from_points(ids.iter().map(|&i| LogPointId(i)))
    }

    #[test]
    fn normalizes_order_and_duplicates() {
        assert_eq!(sig(&[5, 1, 5, 3]), sig(&[1, 3, 5]));
        assert_eq!(sig(&[5, 1, 5, 3]).len(), 3);
    }

    #[test]
    fn empty_signature() {
        let s = Signature::empty();
        assert!(s.is_empty());
        assert_eq!(s.to_string(), "[]");
        assert_eq!(sig(&[]), s);
    }

    #[test]
    fn contains_uses_binary_search() {
        let s = sig(&[1, 4, 9]);
        assert!(s.contains(LogPointId(4)));
        assert!(!s.contains(LogPointId(5)));
    }

    #[test]
    fn difference_explains_flow_divergence() {
        // Paper Table 1: normal flow hits all 4 points, the frozen-MemTable
        // flow hits only the first.
        let normal = sig(&[1, 2, 3, 4]);
        let frozen = sig(&[1]);
        assert_eq!(
            normal.difference(&frozen),
            vec![LogPointId(2), LogPointId(3), LogPointId(4)]
        );
        assert!(frozen.difference(&normal).is_empty());
    }

    #[test]
    fn display_is_bracketed_list() {
        assert_eq!(sig(&[2, 1]).to_string(), "[L1, L2]");
    }

    #[test]
    fn from_sorted_points_skips_normalization() {
        let s = Signature::from_sorted_points(vec![LogPointId(1), LogPointId(3)]);
        assert_eq!(s, sig(&[3, 1]));
    }

    #[test]
    fn borrowed_slice_lookup_finds_signature() {
        use std::collections::HashMap;
        let mut m: HashMap<Signature, u32> = HashMap::new();
        m.insert(sig(&[2, 7]), 5);
        let key: &[LogPointId] = &[LogPointId(2), LogPointId(7)];
        assert_eq!(m.get(key), Some(&5));
        let miss: &[LogPointId] = &[LogPointId(2)];
        assert_eq!(m.get(miss), None);
    }

    #[test]
    fn hashable_as_map_key() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        m.insert(sig(&[1, 2]), 10u32);
        assert_eq!(m[&sig(&[2, 1, 1])], 10);
    }

    proptest! {
        #[test]
        fn from_points_is_canonical(ids in proptest::collection::vec(0u16..50, 0..40)) {
            let points: Vec<LogPointId> = ids.iter().map(|&i| LogPointId(i)).collect();
            let a = Signature::from_points(points.clone());
            let mut shuffled = points;
            shuffled.reverse();
            let b = Signature::from_points(shuffled);
            prop_assert_eq!(&a, &b);
            // Sorted, deduplicated invariants.
            for w in a.points().windows(2) {
                prop_assert!(w[0] < w[1]);
            }
        }
    }
}
