//! # svq-query
//!
//! The declarative surface language of SVQ-ACT (§1-§2 of the paper): a
//! SQL-like dialect whose `PROCESS … PRODUCE … USING` clause exposes vision
//! models as relations and whose `WHERE` clause mixes action and object
//! predicates. Two canonical statement shapes:
//!
//! **Online** (streaming; results as the video plays):
//!
//! ```sql
//! SELECT MERGE(clipID) AS Sequence
//! FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectDetector,
//!       act USING ActionRecognizer)
//! WHERE act = 'jumping' AND obj.include('car', 'person')
//! ```
//!
//! **Offline** (top-K over an ingested repository):
//!
//! ```sql
//! SELECT MERGE(clipID) AS Sequence, RANK(act, obj)
//! FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectTracker,
//!       act USING ActionRecognizer)
//! WHERE act = 'jumping' AND obj.include('car', 'person')
//! ORDER BY RANK(act, obj) LIMIT 5
//! ```
//!
//! Extensions follow the paper's footnotes: `OR` between predicates
//! (normalised to CNF), several `act = …` conjuncts (multiple actions), and
//! `leftOf('a', 'b')` spatial relationships.
//!
//! Pipeline: [`lexer`] → [`parser`] (AST in [`ast`]) → [`plan`] (semantic
//! analysis against the model vocabularies, logical plan, `EXPLAIN`) →
//! [`exec`] (binds the plan to the online engines or the offline RVAQ).
//! Both execution modes return one [`exec::QueryOutcome`] envelope carrying
//! the mode payload, the disk-access delta, and wall time.

#![forbid(unsafe_code)]

pub mod ast;
pub mod cluster;
pub mod exec;
pub mod lexer;
pub mod parser;
pub mod plan;

pub use cluster::{merge_cluster, ClusterPart, ClusterRanked, ClusterTopK, MergeStats};
pub use exec::{execute_offline, execute_offline_all, execute_online, QueryOutcome, QueryResults};
pub use parser::parse;
pub use plan::{LogicalPlan, QueryMode};
