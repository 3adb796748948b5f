//! The skip set `C_skip` of §4.3.
//!
//! Clips the TBClip iterator may safely ignore: everything outside `P_q`
//! (initialised at query start), plus the clips of sequences that become
//! conclusively ranked as RVAQ's bounds tighten. Because skips always
//! arrive as whole sequences of `P_q`, membership is tracked per sequence —
//! a bitmap over `P_q`'s intervals — rather than per clip; a dense
//! clip → sequence index built once per query makes the lookup the TBClip
//! iterator performs per candidate a pair of loads instead of a binary
//! search. Sequences can be skipped but never un-skipped: `C_skip` only
//! grows, which the iterator's lazy pruning relies on.

use svq_storage::SequenceSet;
use svq_types::ClipId;

/// `sequence_of` entry of a clip outside `P_q`.
const OUTSIDE: u32 = u32::MAX;

/// Dynamic skip set over the result sequences of one query.
#[derive(Debug, Clone)]
pub struct SkipSet {
    /// The query's result sequences `P_q` (sorted, disjoint).
    pq: SequenceSet,
    /// Index into `pq.intervals()` of the sequence holding each clip up to
    /// the end of `P_q`, [`OUTSIDE`] in the gaps.
    sequence_of: Vec<u32>,
    /// Per-sequence skip flags, indexed like `pq.intervals()`.
    skipped: Vec<bool>,
    /// When set, nothing is skipped (the noSkip baseline).
    disabled: bool,
}

impl SkipSet {
    /// Initialise from `P_q`: every clip outside `P_q` is already skipped
    /// (Algorithm 4 line 2, `C_skip = C(X) \ C(P_q)`).
    pub fn new(pq: SequenceSet) -> Self {
        Self::build(pq, false)
    }

    /// A skip set with the whole mechanism disabled — nothing is ever
    /// skipped, not even clips outside `P_q` (the RVAQ-noSkip baseline:
    /// "without activating the skip mechanism").
    pub fn disabled(pq: SequenceSet) -> Self {
        Self::build(pq, true)
    }

    fn build(pq: SequenceSet, disabled: bool) -> Self {
        let span = pq.intervals().last().map_or(0, |iv| iv.end.index() + 1);
        let mut sequence_of = vec![OUTSIDE; span];
        for (i, iv) in pq.intervals().iter().enumerate() {
            sequence_of[iv.start.index()..=iv.end.index()].fill(i as u32);
        }
        Self {
            skipped: vec![false; pq.len()],
            pq,
            sequence_of,
            disabled,
        }
    }

    /// The result sequences this skip set is defined over.
    pub fn pq(&self) -> &SequenceSet {
        &self.pq
    }

    /// Mark one sequence (by index into `P_q`) as skippable.
    pub fn skip_sequence(&mut self, index: usize) {
        self.skipped[index] = true;
    }

    /// Whether a sequence is skipped.
    pub fn sequence_skipped(&self, index: usize) -> bool {
        self.skipped[index]
    }

    /// Index into `P_q` of the sequence holding `clip`, skipped or not.
    pub fn sequence_of(&self, clip: ClipId) -> Option<usize> {
        match self.sequence_of.get(clip.index()) {
            Some(&i) if i != OUTSIDE => Some(i as usize),
            _ => None,
        }
    }

    /// Whether the iterator should skip this clip: outside `P_q`, or inside
    /// a conclusively ranked sequence.
    pub fn contains(&self, clip: ClipId) -> bool {
        if self.disabled {
            return false;
        }
        match self.sequence_of(clip) {
            None => true,
            Some(i) => self.skipped[i],
        }
    }

    /// Index of the sequence holding `clip`, if it is an active member.
    pub fn active_sequence(&self, clip: ClipId) -> Option<usize> {
        self.sequence_of(clip).filter(|&i| !self.skipped[i])
    }

    /// Number of sequences not yet skipped.
    pub fn active_count(&self) -> usize {
        self.skipped.iter().filter(|s| !**s).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svq_types::{ClipInterval, Interval};

    fn iv(s: u64, e: u64) -> ClipInterval {
        Interval::new(ClipId::new(s), ClipId::new(e))
    }

    #[test]
    fn outside_pq_is_always_skipped() {
        let skip = SkipSet::new(SequenceSet::new(vec![iv(2, 4), iv(8, 9)]));
        assert!(skip.contains(ClipId::new(0)));
        assert!(!skip.contains(ClipId::new(3)));
        assert!(skip.contains(ClipId::new(5)));
        assert!(!skip.contains(ClipId::new(8)));
        assert!(skip.contains(ClipId::new(10)));
    }

    #[test]
    fn skipping_a_sequence_removes_its_clips() {
        let mut skip = SkipSet::new(SequenceSet::new(vec![iv(2, 4), iv(8, 9)]));
        assert_eq!(skip.active_count(), 2);
        skip.skip_sequence(0);
        assert!(skip.contains(ClipId::new(3)));
        assert!(!skip.contains(ClipId::new(9)));
        assert!(skip.sequence_skipped(0));
        assert_eq!(skip.active_count(), 1);
        assert_eq!(skip.active_sequence(ClipId::new(3)), None);
        assert_eq!(skip.active_sequence(ClipId::new(9)), Some(1));
    }

    #[test]
    fn dense_index_agrees_with_binary_search() {
        let pq = SequenceSet::new(vec![iv(0, 0), iv(2, 4), iv(8, 9), iv(11, 11)]);
        let skip = SkipSet::new(pq.clone());
        for c in 0..15 {
            let c = ClipId::new(c);
            assert_eq!(skip.sequence_of(c), pq.find_index(c), "{c:?}");
        }
    }

    #[test]
    fn empty_pq_skips_everything() {
        let skip = SkipSet::new(SequenceSet::empty());
        assert!(skip.contains(ClipId::new(0)));
        assert_eq!(skip.active_count(), 0);
    }
}
