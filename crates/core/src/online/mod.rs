//! The online (streaming) case — §3 of the paper.
//!
//! A query — the canonical `q : {o_1 … o_I; a}`, or any
//! [`crate::expr::CnfQuery`] of the footnote 2–4 extensions — is processed
//! one clip at a time as the stream arrives. For each clip, Algorithm 2
//! counts positive per-frame predictions (objects, relationships) and
//! per-shot action predictions, compares each count against its
//! scan-statistic critical value, and combines the per-predicate
//! indicators (Eq. 3; OR within a clause, AND across clauses). Positive
//! clips are merged into maximal result sequences (Eq. 4,
//! [`SequenceMerger`]).
//!
//! One engine, [`Svaqd`], runs every statement. [`Svaqd::new`] estimates
//! each predicate's background dynamically with the exponential-kernel
//! estimator and re-derives the critical values as the estimate moves
//! (Algorithm 3), which removes the `p0` sensitivity Figure 2
//! demonstrates; [`Svaqd::svaq`] derives them once from an a-priori
//! background probability `p0` (Algorithm 1).
//!
//! The engine is a step function: [`Svaqd::push_clip`] returns the clip's
//! row as a borrowed [`ClipEvaluation`] — counts and critical values, one
//! per distinct predicate, in one row the engine reuses — together with
//! the sequence the clip closed. A step allocates nothing, and the engine
//! holds O(predicates) state however long the stream runs; a caller that
//! reads per-clip history or the result sequences keeps them.

mod config;
mod indicator;
mod merger;
mod svaqd;

pub use config::{
    BackgroundUpdate, OnlineConfig, BANDWIDTH_FRAMES, BANDWIDTH_SHOTS, HORIZON_WINDOWS,
};
pub use merger::SequenceMerger;
pub(crate) use svaqd::PredicateState;
pub use svaqd::{ClipEvaluation, Svaqd};

use svq_types::ClipInterval;
use svq_vision::CostLedger;

/// Outcome of running an online algorithm over a stream.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineResult {
    /// Result sequences `P_q` in stream order.
    pub sequences: Vec<ClipInterval>,
    /// Inference + algorithm cost.
    pub cost: CostLedger,
}
