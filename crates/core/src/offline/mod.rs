//! The offline (repository) case — §4 of the paper.
//!
//! Queries run against videos that were pre-processed during the ingestion
//! phase (`svq-storage`): per-class clip score tables and per-class
//! individual sequences. At query time `P_q` is formed by interval-sweep
//! intersection (Eq. 12) and the top-K sequences under the user's scoring
//! algebra are produced by [`Rvaq`] (Algorithm 4), which drives the
//! [`TbClip`] iterator (Algorithm 5) and refines per-sequence score bounds
//! until the stopping condition `B_lo^K ≥ B_up^¬K` (Eq. 15).
//!
//! Baselines used in the paper's §5.1 comparison live here too: [`FaTopK`]
//! (Fagin's algorithm adapted), [`RvaqNoSkip`] (RVAQ without the skip set),
//! and [`PqTraverse`] (score every clip of every sequence in `P_q`).

mod baselines;
mod bounds;
mod column;
pub mod ingest;
pub mod rvaq;
mod skip;
pub mod tbclip;

pub use baselines::{FaTopK, PqTraverse, RvaqNoSkip};
pub use bounds::SequenceBounds;
pub use ingest::ingest;
pub use rvaq::{RankedSequence, Rvaq, RvaqOptions, TopKResult};
pub use skip::SkipSet;
pub use tbclip::{TbClip, TbClipStep};
