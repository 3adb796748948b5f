//! Streaming sequence merging — Eq. 4.
//!
//! Positive clips that are contiguous form one result sequence
//! `(c_l, c_r)`; a negative clip closes the open sequence. The merger is
//! incremental so results are emitted *as the stream plays* — a closed
//! sequence is final the moment the first negative clip after it arrives.
//! It holds only the open sequence: every closed one is handed to the
//! caller by the push that closed it.

use svq_types::{ClipId, ClipInterval, Interval};

/// Incremental merger of per-clip indicators into maximal sequences.
#[derive(Debug, Clone, Copy, Default)]
pub struct SequenceMerger {
    open: Option<ClipInterval>,
}

impl SequenceMerger {
    /// Create an empty merger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed the indicator of the next clip (clips must arrive in stream
    /// order). Returns the sequence that this clip *closed*, if any.
    pub fn push(&mut self, clip: ClipId, positive: bool) -> Option<ClipInterval> {
        if let Some(open) = &mut self.open {
            debug_assert!(clip > open.end, "clips must arrive in order");
        }
        if !positive {
            return self.open.take();
        }
        match &mut self.open {
            Some(open) if open.end.next() == clip => {
                open.end = clip;
                None
            }
            // A gap in clip ids (clip skipped as negative elsewhere) closes
            // the open run and starts a new one.
            Some(open) => Some(std::mem::replace(open, Interval::point(clip))),
            None => {
                self.open = Some(Interval::point(clip));
                None
            }
        }
    }

    /// End of stream: the sequence still open, if the last clip was
    /// positive — the last result.
    pub fn finish(self) -> Option<ClipInterval> {
        self.open
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u64) -> ClipId {
        ClipId::new(i)
    }

    fn iv(s: u64, e: u64) -> ClipInterval {
        Interval::new(c(s), c(e))
    }

    #[test]
    fn merges_contiguous_positives() {
        let mut m = SequenceMerger::new();
        assert_eq!(m.push(c(0), false), None);
        assert_eq!(m.push(c(1), true), None);
        assert_eq!(m.push(c(2), true), None);
        // The merger is `Copy`: finishing a copy reads the open run.
        assert_eq!(m.finish(), Some(iv(1, 2)));
        assert_eq!(m.push(c(3), false), Some(iv(1, 2)));
        assert_eq!(m.push(c(4), true), None);
        assert_eq!(m.finish(), Some(iv(4, 4)));
    }

    #[test]
    fn all_negative_yields_nothing() {
        let mut m = SequenceMerger::new();
        for i in 0..10 {
            assert_eq!(m.push(c(i), false), None);
        }
        assert_eq!(m.finish(), None);
    }

    #[test]
    fn all_positive_yields_single_sequence() {
        let mut m = SequenceMerger::new();
        for i in 0..10 {
            assert_eq!(m.push(c(i), true), None);
        }
        assert_eq!(m.finish(), Some(iv(0, 9)));
    }

    #[test]
    fn open_sequence_closed_at_finish() {
        let mut m = SequenceMerger::new();
        m.push(c(0), true);
        assert_eq!(m.push(c(1), false), Some(iv(0, 0)));
        m.push(c(2), true);
        m.push(c(3), true);
        assert_eq!(m.finish(), Some(iv(2, 3)));
    }

    #[test]
    fn gap_in_clip_ids_splits_sequences() {
        let mut m = SequenceMerger::new();
        m.push(c(0), true);
        // Clip 1 never pushed (e.g. filtered upstream); clip 2 arrives.
        let closed = m.push(c(2), true);
        assert_eq!(closed, Some(iv(0, 0)));
        assert_eq!(m.finish(), Some(iv(2, 2)));
    }
}
