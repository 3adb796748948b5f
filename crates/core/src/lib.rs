//! # svq-core
//!
//! The paper's primary contribution: query processing over videos with
//! actions and objects as first-class predicates.
//!
//! * [`online`] — the streaming case (§3): one engine, [`online::Svaqd`],
//!   for every online statement — Algorithm 3 (dynamic background
//!   estimation via the kernel estimator of Eq. 6) or, built with
//!   [`online::Svaqd::svaq`], Algorithm 1 (static critical values from an
//!   a-priori background probability). It converts noisy per-frame /
//!   per-shot model predictions into per-clip indicators through
//!   scan-statistic critical values (Eqs. 1-3) and merges positive clips
//!   into result sequences (Eq. 4).
//! * [`offline`] — the repository case (§4): ingestion-time metadata
//!   (moved to `svq-storage`) is consumed by [`offline::Rvaq`]
//!   (Algorithm 4), a top-k engine over user scoring functions driven by
//!   the [`offline::TbClip`] iterator (Algorithm 5), plus the comparison
//!   baselines `FaTopK`, `RvaqNoSkip` and `PqTraverse` of §5.1.
//! * [`scoring`] — the scoring-function algebra of §4.1 (`h`, `g`, `f`,
//!   `⊙`) with the paper's §5 instances.
//! * [`expr`] — the footnote 2-4 extensions as a [`expr::CnfQuery`]:
//!   conjunctions of multiple actions, disjunctions in CNF, and
//!   spatial-relationship predicates, all run by [`online::Svaqd`].

#![forbid(unsafe_code)]

pub mod expr;
pub mod offline;
pub mod online;

/// The scoring-function algebra of §4.1 (re-exported from `svq-types`,
/// where it lives so the storage layer can consume it without a cycle).
pub use svq_types::scoring;

pub use offline::{FaTopK, PqTraverse, Rvaq, RvaqNoSkip, TopKResult};
pub use online::{OnlineConfig, OnlineResult, Svaqd};
pub use scoring::{PaperScoring, ScoringFunctions};
