//! # svq-vision
//!
//! The simulated vision substrate.
//!
//! The paper runs Mask R-CNN / YOLOv3 (object detection), CenterTrack
//! (object tracking) and I3D (action recognition) over real videos. The
//! query algorithms under study never look at pixels — they consume the
//! models' *outputs*: per-frame object detections with confidence scores and
//! per-shot action scores, plus interval ground truth for evaluation. This
//! crate reproduces that interface with a statistically calibrated
//! simulator (see DESIGN.md for the substitution argument):
//!
//! * [`truth`] — ground-truth *scripts*: object-track intervals and action
//!   episodes on a frame timeline, plus the intersection semantics used to
//!   derive per-query ground-truth result sequences;
//! * [`synth`] — seeded scenario generators producing ActivityNet-like and
//!   movie-like scripts (episode lengths, occupancy, correlated objects);
//! * [`noise`] — bursty (two-state Markov) false-positive/false-negative
//!   processes: real detector errors are temporally correlated, which is
//!   precisely the regime scan statistics must discriminate against;
//! * [`models`] — the simulated [`ObjectDetector`], [`ActionRecognizer`]
//!   and tracker with per-model [`profiles`] (`MASK_RCNN`, `YOLOV3`, `I3D`,
//!   `CENTER_TRACK`, `IDEAL_*`) spanning the accuracy ladder of Table 4;
//! * [`cost`] — the inference cost model: per-invocation simulated
//!   milliseconds, so the runtime experiments can reproduce the paper's
//!   ">98 % of online latency is model inference" decomposition;
//! * [`stream`] — [`VideoStream`], the clip-at-a-time source the online
//!   algorithms consume: each clip's frames and shots are charged when
//!   requested and answer Algorithm 2's occurrence counts from the
//!   oracle's per-class memo, or lend their rows as borrowed [`Rows`].

#![forbid(unsafe_code)]

pub mod clock;
pub mod cost;
pub mod models;
pub mod noise;
pub mod profiles;
pub mod stream;
pub mod synth;
pub mod truth;

pub use clock::WallClock;
pub use cost::{CostLedger, CostModel};
pub use models::{ActionRecognizer, ModelSuite, ObjectDetector, Rows};
pub use stream::{ClipAccess, ClipFrames, ClipShots, OwnedClipView, VideoStream};
pub use synth::{MovieSpec, ScenarioSpec, SyntheticVideo};
pub use truth::{ActionSpan, GroundTruth, ObjectTrack};
