//! The per-clip evaluation trace of one stream, stored column-wise.
//!
//! Every evaluated clip contributes one row: its id, its indicator, and
//! one count and one critical value per distinct predicate. The rows live
//! in four flat columns, so recording a clip allocates nothing once the
//! columns have grown, and a row costs 9 bytes plus 12 per predicate.

use svq_types::ClipId;

/// One clip's row of an [`EvaluationTrace`], borrowed from its columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClipEvaluation<'a> {
    pub clip: ClipId,
    /// `𝟙_q^(c)` — Eq. 3.
    pub positive: bool,
    /// Positive-unit count per distinct predicate, in the engine's
    /// predicate order; `None` where evaluation short-circuited before
    /// reaching the predicate.
    pub counts: &'a [Option<u32>],
    /// Critical values used for this clip, matching `counts` positionally
    /// (SVAQD varies them over time).
    pub criticals: &'a [u32],
}

/// Every clip an online engine evaluated, in stream order.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationTrace {
    /// Distinct predicates: the entries per clip of `counts` and
    /// `criticals`.
    width: usize,
    clips: Vec<ClipId>,
    positives: Vec<bool>,
    /// `clips.len() × width`, row-major.
    counts: Vec<Option<u32>>,
    /// `clips.len() × width`, row-major.
    criticals: Vec<u32>,
}

impl EvaluationTrace {
    /// An empty trace for an engine with `width` distinct predicates.
    pub(crate) fn new(width: usize) -> Self {
        Self {
            width,
            clips: Vec::new(),
            positives: Vec::new(),
            counts: Vec::new(),
            criticals: Vec::new(),
        }
    }

    /// Clips recorded.
    pub fn len(&self) -> usize {
        self.clips.len()
    }

    /// Whether no clip has been recorded.
    pub fn is_empty(&self) -> bool {
        self.clips.is_empty()
    }

    /// The `i`-th recorded clip, if any.
    pub fn get(&self, i: usize) -> Option<ClipEvaluation<'_>> {
        let row = i * self.width..(i + 1) * self.width;
        Some(ClipEvaluation {
            clip: *self.clips.get(i)?,
            positive: self.positives[i],
            counts: &self.counts[row.clone()],
            criticals: &self.criticals[row],
        })
    }

    /// Every recorded clip, in stream order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = ClipEvaluation<'_>> + '_ {
        (0..self.len()).map(|i| self.get(i).expect("i < len"))
    }

    /// Record `clip`: its row takes the `width` values of `criticals`,
    /// starts its counts at `None`, and `evaluate` fills them and returns
    /// the clip's indicator. Returns the recorded row.
    pub(crate) fn record(
        &mut self,
        clip: ClipId,
        criticals: impl IntoIterator<Item = u32>,
        evaluate: impl FnOnce(&[u32], &mut [Option<u32>]) -> bool,
    ) -> ClipEvaluation<'_> {
        let start = self.criticals.len();
        self.criticals.extend(criticals);
        debug_assert_eq!(self.criticals.len(), start + self.width);
        self.counts.resize(start + self.width, None);
        let positive = evaluate(&self.criticals[start..], &mut self.counts[start..]);
        self.clips.push(clip);
        self.positives.push(positive);
        ClipEvaluation {
            clip,
            positive,
            counts: &self.counts[start..],
            criticals: &self.criticals[start..],
        }
    }
}
