//! # SVQ-ACT
//!
//! A from-scratch Rust reproduction of **"SVQ-ACT: Querying for Actions
//! over Videos"** (ICDE 2023; full version *Querying For Actions Over
//! Videos*, EDBT 2024): declarative queries over videos whose predicates
//! mix one **action** with several **objects**, processed either *online*
//! (as a stream plays — algorithms SVAQ and SVAQD) or *offline* (top-K over
//! a pre-ingested repository — algorithm RVAQ).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`types`] — ids, video geometry, labels, intervals, queries, scoring;
//! * [`scanstats`] — the scan-statistics substrate (Naus approximation,
//!   critical values, kernel background estimation);
//! * [`vision`] — the simulated vision stack (synthetic scenarios,
//!   stochastic detector/recognizer/tracker models, cost accounting);
//! * [`storage`] — clip score tables, sequence sets, the simulated disk;
//! * [`core`] — SVAQ/SVAQD (online) and RVAQ + baselines (offline);
//! * [`query`] — the SQL-like surface language;
//! * [`eval`] — metrics and the paper's workloads.
//!
//! ## Quickstart
//!
//! ```
//! use svq_act::prelude::*;
//!
//! // A 2-minute synthetic scene: someone walks a dog among trees.
//! let video = ScenarioSpec::activitynet(
//!     VideoId::new(0),
//!     3_000,
//!     ActionClass::named("walking the dog"),
//!     vec![ObjectSpec::scene(ObjectClass::named("tree"))],
//!     7,
//! )
//! .generate();
//!
//! // Run the streaming engine with realistic detector noise.
//! let oracle = video.oracle(ModelSuite::accurate());
//! let mut stream = VideoStream::new(&oracle);
//! let query = ActionQuery::named("walking the dog", &["tree"]);
//! let result = Svaqd::run(query, &mut stream, OnlineConfig::default(), 1e-4, 1e-4);
//! println!("found {} sequences", result.sequences.len());
//! ```

pub use svq_core as core;
pub use svq_eval as eval;
pub use svq_query as query;
pub use svq_scanstats as scanstats;
pub use svq_storage as storage;
pub use svq_types as types;
pub use svq_vision as vision;

/// The most common imports in one place.
pub mod prelude {
    pub use svq_core::offline::{ingest, FaTopK, PqTraverse, Rvaq, RvaqOptions};
    pub use svq_core::online::{OnlineConfig, Svaqd};
    pub use svq_query::{
        execute_offline, execute_online, parse, LogicalPlan, QueryOutcome, QueryResults,
    };
    pub use svq_storage::{IngestedVideo, SequenceSet};
    pub use svq_types::{
        ActionClass, ActionQuery, ClipId, ClipInterval, FrameId, Interval, ObjectClass,
        PaperScoring, ScoringFunctions, VideoGeometry, VideoId, Vocabulary,
    };
    pub use svq_vision::models::{ModelSuite, SceneConfusion};
    pub use svq_vision::synth::{MovieSpec, ObjectSpec, ScenarioSpec, SyntheticVideo};
    pub use svq_vision::VideoStream;
}
