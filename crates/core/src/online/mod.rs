//! The online (streaming) case — §3 of the paper.
//!
//! A query — the canonical `q : {o_1 … o_I; a}`, or any
//! [`crate::expr::CnfQuery`] of the footnote 2–4 extensions — is processed
//! one clip at a time as the stream arrives. For each clip, Algorithm 2
//! counts positive per-frame predictions (objects, relationships) and
//! per-shot action predictions, compares each count against its
//! scan-statistic critical value, and combines the per-predicate
//! indicators (Eq. 3; OR within a clause, AND across clauses), recording a
//! [`ClipEvaluation`]. Positive clips are merged into maximal result
//! sequences (Eq. 4, [`SequenceMerger`]).
//!
//! One engine, [`Svaqd`], runs every statement. [`Svaqd::new`] estimates
//! each predicate's background dynamically with the exponential-kernel
//! estimator and re-derives the critical values as the estimate moves
//! (Algorithm 3), which removes the `p0` sensitivity Figure 2
//! demonstrates; [`Svaqd::svaq`] derives them once from an a-priori
//! background probability `p0` (Algorithm 1).

mod config;
mod indicator;
mod merger;
pub mod ordering;
mod svaqd;

pub use config::{BackgroundUpdate, OnlineConfig, OnlineConfigBuilder};
pub use indicator::ClipEvaluation;
pub use merger::SequenceMerger;
pub use ordering::SelectivityOrderer;
pub(crate) use svaqd::PredicateState;
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
