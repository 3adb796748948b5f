//! Sequence sets and the interval algebra of §4.2.
//!
//! A [`SequenceSet`] is a set of disjoint, sorted clip intervals: the
//! *individual sequences* `P_{o_i}` / `P_{a_j}` materialised at ingestion,
//! and the query result `P_q` formed by the `⊗` intersection (Eq. 12) via a
//! single-pass interval sweep.

use svq_types::{ClipId, ClipInterval, SvqError, SvqResult};

/// Disjoint, sorted clip intervals.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SequenceSet {
    intervals: Vec<ClipInterval>,
}

impl SequenceSet {
    /// Build from arbitrary intervals; overlapping/adjacent inputs merge.
    pub fn new(intervals: Vec<ClipInterval>) -> Self {
        Self {
            intervals: svq_types::interval::merge_intervals(intervals),
        }
    }

    /// The empty set.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Build from already-disjoint, already-sorted intervals (checked in
    /// debug builds). The output of a sequence merger is in this form.
    pub fn from_sorted(intervals: Vec<ClipInterval>) -> Self {
        // Sorted, disjoint AND non-adjacent (adjacent runs would violate
        // the maximal-run invariant Eq. 4 relies on).
        debug_assert!(intervals.windows(2).all(|w| w[0].end.next() < w[1].start));
        Self { intervals }
    }

    /// Rebuild a set from intervals read out of a catalog file. Nothing is
    /// repaired: they must already be well-formed, sorted, disjoint and
    /// non-adjacent — what [`SequenceSet::from_sorted`] only debug-asserts —
    /// or the file is refused.
    pub(crate) fn from_file(intervals: Vec<ClipInterval>) -> SvqResult<Self> {
        if let Some(iv) = intervals.iter().find(|iv| iv.start > iv.end) {
            return Err(SvqError::Storage(format!(
                "sequence [{}, {}] is inverted",
                iv.start.raw(),
                iv.end.raw()
            )));
        }
        if let Some(w) = intervals.windows(2).find(|w| w[0].end.next() >= w[1].start) {
            return Err(SvqError::Storage(format!(
                "sequences [{}, {}] and [{}, {}] are unsorted, overlapping or adjacent",
                w[0].start.raw(),
                w[0].end.raw(),
                w[1].start.raw(),
                w[1].end.raw()
            )));
        }
        Ok(Self { intervals })
    }

    /// The intervals, sorted by start.
    pub fn intervals(&self) -> &[ClipInterval] {
        &self.intervals
    }

    /// Number of sequences.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// Whether the set has no sequences.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Total clips covered.
    pub fn clip_count(&self) -> u64 {
        self.intervals.iter().map(|iv| iv.len()).sum()
    }

    /// Whether `clip` lies inside some sequence (binary search).
    pub fn contains(&self, clip: ClipId) -> bool {
        self.find(clip).is_some()
    }

    /// The sequence containing `clip`, if any.
    pub fn find(&self, clip: ClipId) -> Option<ClipInterval> {
        let idx = self.intervals.partition_point(|iv| iv.end < clip);
        self.intervals
            .get(idx)
            .filter(|iv| iv.contains(clip))
            .copied()
    }

    /// Index of the sequence containing `clip`, if any.
    pub fn find_index(&self, clip: ClipId) -> Option<usize> {
        let idx = self.intervals.partition_point(|iv| iv.end < clip);
        self.intervals
            .get(idx)
            .filter(|iv| iv.contains(clip))
            .map(|_| idx)
    }

    /// The `⊗` operator (Eq. 12): sequences of clips present in both sets,
    /// by a single-pass sweep over the two sorted interval lists.
    ///
    /// Note `⊗` fragments at boundaries: `[0,9] ⊗ ([0,4] ∪ [5,9])` is
    /// `[0,9]` because the clip sets are intersected first and maximal runs
    /// re-formed — which the merge inside [`SequenceSet::new`] guarantees.
    pub fn intersect(&self, other: &SequenceSet) -> SequenceSet {
        let mut out: Vec<ClipInterval> = Vec::new();
        let (a, b) = (&self.intervals, &other.intervals);
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            if let Some(iv) = a[i].intersect(&b[j]) {
                // Coalesce with the previous output if contiguous (can
                // happen when one side's boundary splits the other's run).
                match out.last_mut() {
                    Some(last) if last.touches(&iv) => *last = last.hull(&iv),
                    _ => out.push(iv),
                }
            }
            if a[i].end <= b[j].end {
                i += 1;
            } else {
                j += 1;
            }
        }
        SequenceSet { intervals: out }
    }

    /// Intersect many sets (Eq. 12's `P_a ⊗ P_{o_1} ⊗ … ⊗ P_{o_I}`),
    /// short-circuiting on empty.
    pub fn intersect_all<'a>(sets: impl IntoIterator<Item = &'a SequenceSet>) -> SequenceSet {
        let mut iter = sets.into_iter();
        let Some(first) = iter.next() else {
            return SequenceSet::empty();
        };
        let mut acc = first.clone();
        for s in iter {
            if acc.is_empty() {
                break;
            }
            acc = acc.intersect(s);
        }
        acc
    }

    /// Iterate all clip ids covered.
    pub fn iter_clips(&self) -> impl Iterator<Item = ClipId> + '_ {
        self.intervals.iter().flat_map(|iv| iv.iter())
    }
}

impl From<Vec<ClipInterval>> for SequenceSet {
    fn from(v: Vec<ClipInterval>) -> Self {
        Self::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svq_types::Interval;

    fn iv(s: u64, e: u64) -> ClipInterval {
        Interval::new(ClipId::new(s), ClipId::new(e))
    }

    #[test]
    fn construction_merges() {
        let s = SequenceSet::new(vec![iv(5, 8), iv(0, 2), iv(3, 4)]);
        assert_eq!(s.intervals(), &[iv(0, 8)]);
        assert_eq!(s.clip_count(), 9);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn membership_and_find() {
        let s = SequenceSet::new(vec![iv(0, 2), iv(10, 14)]);
        assert!(s.contains(ClipId::new(1)));
        assert!(!s.contains(ClipId::new(5)));
        assert_eq!(s.find(ClipId::new(12)), Some(iv(10, 14)));
        assert_eq!(s.find_index(ClipId::new(12)), Some(1));
        assert_eq!(s.find(ClipId::new(15)), None);
    }

    #[test]
    fn intersection_sweep() {
        let a = SequenceSet::new(vec![iv(0, 9), iv(20, 29)]);
        let b = SequenceSet::new(vec![iv(5, 24)]);
        assert_eq!(a.intersect(&b).intervals(), &[iv(5, 9), iv(20, 24)]);
        // Symmetric.
        assert_eq!(b.intersect(&a).intervals(), &[iv(5, 9), iv(20, 24)]);
    }

    #[test]
    fn intersection_coalesces_contiguous_pieces() {
        // b's split at 4/5 must not fragment the result.
        let a = SequenceSet::new(vec![iv(0, 9)]);
        let b = SequenceSet::from_sorted(vec![iv(0, 4), iv(6, 9)]);
        assert_eq!(a.intersect(&b).intervals(), &[iv(0, 4), iv(6, 9)]);
        let c = SequenceSet::new(vec![iv(0, 4), iv(5, 9)]); // new() merges these
        assert_eq!(a.intersect(&c).intervals(), &[iv(0, 9)]);
    }

    #[test]
    fn empty_intersections() {
        let a = SequenceSet::new(vec![iv(0, 4)]);
        let b = SequenceSet::new(vec![iv(5, 9)]);
        assert!(a.intersect(&b).is_empty());
        assert!(a.intersect(&SequenceSet::empty()).is_empty());
    }

    #[test]
    fn eq12_composition() {
        let p_a = SequenceSet::new(vec![iv(0, 50)]);
        let p_o1 = SequenceSet::new(vec![iv(10, 30), iv(40, 60)]);
        let p_o2 = SequenceSet::new(vec![iv(20, 45)]);
        let p_q = SequenceSet::intersect_all([&p_a, &p_o1, &p_o2]);
        assert_eq!(p_q.intervals(), &[iv(20, 30), iv(40, 45)]);
        assert!(SequenceSet::intersect_all(std::iter::empty()).is_empty());
    }

    #[test]
    fn iter_clips_enumerates_members() {
        let s = SequenceSet::new(vec![iv(0, 1), iv(4, 5)]);
        let clips: Vec<u64> = s.iter_clips().map(|c| c.raw()).collect();
        assert_eq!(clips, vec![0, 1, 4, 5]);
    }

    #[test]
    fn from_file_refuses_what_new_would_have_repaired() {
        let good = vec![iv(0, 2), iv(4, 4), iv(9, 12)];
        assert_eq!(
            SequenceSet::from_file(good.clone()).unwrap(),
            SequenceSet::new(good)
        );
        let refused = |intervals: Vec<ClipInterval>, needle: &str| {
            let err = SequenceSet::from_file(intervals).unwrap_err();
            assert!(matches!(err, SvqError::Storage(_)), "{err}");
            assert!(err.to_string().contains(needle), "{err}");
        };
        let inverted = Interval {
            start: ClipId::new(5),
            end: ClipId::new(3),
        };
        refused(vec![inverted], "inverted");
        refused(vec![iv(4, 6), iv(0, 2)], "unsorted");
        refused(vec![iv(0, 4), iv(3, 6)], "overlapping");
        refused(vec![iv(0, 4), iv(5, 6)], "adjacent");
    }
}
