//! # svq-types
//!
//! Foundation types for the SVQ-ACT video action-query engine.
//!
//! The paper ("Querying For Actions Over Videos", the full version of the
//! ICDE 2023 demo *SVQ-ACT*) models a video as a hierarchy:
//!
//! ```text
//! video  =  [clip | clip | clip | ...]          (non-overlapping, fixed size)
//! clip   =  [shot | shot | shot | shot | shot]  (fixed number of shots)
//! shot   =  [frame frame ... frame]             (fixed number of frames)
//! ```
//!
//! * **Frames** are the occurrence unit for *object* detections.
//! * **Shots** are the occurrence unit for *action* recognitions.
//! * **Clips** are the unit at which query predicates are decided
//!   (via scan-statistic critical values).
//! * **Sequences** — maximal runs of positive clips — are query results.
//!
//! This crate provides the id newtypes, the [`VideoGeometry`] arithmetic that
//! converts between the levels, label vocabularies for objects (COCO-80) and
//! actions (a Kinetics-style catalogue), detection/score records produced by
//! the (simulated) vision models, interval types used throughout the
//! ingestion and query layers, and the basic [`ActionQuery`] shape.

#![forbid(unsafe_code)]

pub mod clock;
pub mod detection;
pub mod error;
pub mod geometry;
pub mod ids;
pub mod interval;
pub mod labels;
pub mod query;
pub mod scoring;

pub use clock::{Clock, ManualClock, SimClock};
pub use detection::{ActionScore, BBox, Detection, TrackedDetection};
pub use error::{RejectReason, SvqError, SvqResult};
pub use geometry::VideoGeometry;
pub use ids::{shard_index, ClipId, FrameId, ShotId, TrackId, VideoId};
pub use interval::{ClipInterval, FrameInterval, Interval};
pub use labels::{ActionClass, ObjectClass, Vocabulary};
pub use query::{ActionQuery, Predicate};
pub use scoring::{MaxScoring, PaperScoring, ScoringFunctions};
