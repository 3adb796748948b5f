//! The online (streaming) case — §3 of the paper.
//!
//! A query `q : {o_1 … o_I; a}` is processed one clip at a time as the
//! stream arrives. For each clip, Algorithm 2 ([`evaluate_clip`]) counts
//! positive per-frame object predictions and per-shot action predictions,
//! compares each count against its scan-statistic critical value, and
//! conjoins the per-predicate indicators (Eq. 3). Positive clips are merged
//! into maximal result sequences (Eq. 4, [`SequenceMerger`]).
//!
//! [`Svaq`] derives the critical values once from an a-priori background
//! probability `p0`; [`Svaqd`] estimates each predicate's background
//! dynamically with the exponential-kernel estimator and re-derives the
//! critical values as the estimate moves, which removes the `p0`
//! sensitivity Figure 2 demonstrates.

mod config;
mod indicator;
mod merger;
pub mod ordering;
mod svaq;
mod svaqd;

pub use config::{BackgroundUpdate, OnlineConfig, OnlineConfigBuilder};
pub use indicator::{evaluate_clip, evaluate_clip_ordered, ClipEvaluation, CriticalValues};
pub use merger::SequenceMerger;
pub use ordering::SelectivityOrderer;
pub use svaq::Svaq;
pub(crate) use svaqd::censor;
pub use svaqd::Svaqd;

use svq_types::ClipInterval;
use svq_vision::CostLedger;

/// Outcome of running an online algorithm over a stream.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineResult {
    /// Result sequences `P_q` in stream order.
    pub sequences: Vec<ClipInterval>,
    /// Inference + algorithm cost.
    pub cost: CostLedger,
    /// Per-clip evaluation trace (used by the evaluation metrics and the
    /// FPR analysis of Table 5).
    pub evaluations: Vec<ClipEvaluation>,
}

impl OnlineResult {
    /// Number of clips that satisfied the query.
    pub fn positive_clips(&self) -> usize {
        self.evaluations.iter().filter(|e| e.positive).count()
    }
}
