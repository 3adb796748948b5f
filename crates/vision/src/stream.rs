//! Clip-at-a-time video streaming.
//!
//! [`VideoStream`] is the `X.next()` of Algorithm 1: it walks a
//! [`DetectionOracle`] clip by clip and charges simulated inference cost to
//! a [`CostLedger`] *only for the occurrence units the consumer actually
//! requests* — which is how Algorithm 2's predicate short-circuiting
//! translates into saved inference.
//!
//! A consumer requests a clip's frames or shots through [`ClipAccess`] and
//! gets a [`ClipFrames`] / [`ClipShots`] handle back. Requesting is what
//! costs: one detector pass per frame, one recognizer pass per shot. A
//! request charges the clip's units in one step
//! ([`CostLedger::charge_object_frames`] / `charge_action_shots`), and the
//! ledger it leaves is bit for bit the one a per-unit charge in the order
//! requested would leave, for every cost model — whatever the handle is
//! then asked. A handle answers Algorithm 2's occurrence counts from the
//! oracle's per-class memo ([`DetectionOracle::object_count`]) and lends
//! the rows themselves, borrowed from the oracle, for predicates a count
//! cannot answer (`leftOf` reads boxes).

use crate::cost::{CostLedger, CostModel};
use crate::models::{DetectionOracle, Rows};
use std::sync::Arc;
use svq_types::{ActionClass, ActionScore, ClipId, ObjectClass, TrackedDetection};

/// Cost-charging access to one clip's model outputs — the surface the
/// online engine (`Svaqd`'s Algorithm 2 evaluation)
/// actually consume. Implemented by the borrowing [`ClipView`]
/// (single-threaded streaming) and the owning [`OwnedClipView`] (clip
/// tickets handed across threads by the exec layer, standing queries).
///
/// Each call charges the whole clip, whether or not the handle is then
/// read; a consumer that needs several predicates of one kind asks once.
pub trait ClipAccess {
    /// The clip id.
    fn clip(&self) -> ClipId;
    /// The clip's frames (charges one detector pass per frame).
    fn frames(&mut self) -> ClipFrames<'_>;
    /// The clip's shots (charges one recognizer pass per shot).
    fn shots(&mut self) -> ClipShots<'_>;
}

/// One clip's frames, already paid for.
#[derive(Clone, Copy)]
pub struct ClipFrames<'o> {
    oracle: &'o DetectionOracle,
    clip: ClipId,
}

impl<'o> ClipFrames<'o> {
    /// Frames holding `class` at `score ≥ t_obj` (Eq. 1's count).
    pub fn count(&self, class: ObjectClass, t_obj: f64) -> u32 {
        self.oracle.object_count(self.clip, class, t_obj)
    }

    /// Detections on every frame, one row per frame.
    pub fn rows(&self) -> Rows<'o, TrackedDetection> {
        self.oracle.clip_frame_rows(self.clip)
    }
}

/// One clip's shots, already paid for.
#[derive(Clone, Copy)]
pub struct ClipShots<'o> {
    oracle: &'o DetectionOracle,
    clip: ClipId,
}

impl<'o> ClipShots<'o> {
    /// Shots holding `class` at `score ≥ t_act` (Eq. 2's count).
    pub fn count(&self, class: ActionClass, t_act: f64) -> u32 {
        self.oracle.action_count(self.clip, class, t_act)
    }

    /// Action scores on every shot, one row per shot.
    pub fn rows(&self) -> Rows<'o, ActionScore> {
        self.oracle.clip_shot_rows(self.clip)
    }
}

/// Charge one detector pass per frame of `clip` and hand out its frames.
fn frames<'o>(
    oracle: &'o DetectionOracle,
    cost_model: &CostModel,
    ledger: &mut CostLedger,
    clip: ClipId,
) -> ClipFrames<'o> {
    let frames = oracle.truth().geometry.frames_per_clip();
    ledger.charge_object_frames(cost_model, u64::from(frames));
    ClipFrames { oracle, clip }
}

/// Charge one recognizer pass per shot of `clip` and hand out its shots.
fn shots<'o>(
    oracle: &'o DetectionOracle,
    cost_model: &CostModel,
    ledger: &mut CostLedger,
    clip: ClipId,
) -> ClipShots<'o> {
    let shots = oracle.truth().geometry.shots_per_clip;
    ledger.charge_action_shots(cost_model, u64::from(shots));
    ClipShots { oracle, clip }
}

/// A borrowed, cost-charging view over one clip of the oracle.
pub struct ClipView<'a> {
    oracle: &'a DetectionOracle,
    cost_model: CostModel,
    ledger: &'a mut CostLedger,
    clip: ClipId,
}

impl ClipAccess for ClipView<'_> {
    fn clip(&self) -> ClipId {
        self.clip
    }

    fn frames(&mut self) -> ClipFrames<'_> {
        frames(self.oracle, &self.cost_model, self.ledger, self.clip)
    }

    fn shots(&mut self) -> ClipShots<'_> {
        shots(self.oracle, &self.cost_model, self.ledger, self.clip)
    }
}

/// An owning, cost-charging view over one clip — the thread-crossing
/// counterpart of [`ClipView`].
///
/// Holds its oracle by `Arc` and accumulates inference cost in a private
/// [`CostLedger`], so a clip can be described by a lightweight ticket
/// (oracle handle + clip id), shipped to a worker thread, evaluated there,
/// and its cost merged back into per-session accounting afterwards.
pub struct OwnedClipView {
    oracle: Arc<DetectionOracle>,
    cost_model: CostModel,
    ledger: CostLedger,
    clip: ClipId,
}

impl OwnedClipView {
    /// View `clip` of `oracle`'s video with a fresh ledger.
    pub fn new(oracle: Arc<DetectionOracle>, clip: ClipId) -> Self {
        Self {
            cost_model: CostModel::from_suite(oracle.suite()),
            ledger: CostLedger::default(),
            clip,
            oracle,
        }
    }

    /// Inference cost charged through this view so far.
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }
}

impl ClipAccess for OwnedClipView {
    fn clip(&self) -> ClipId {
        self.clip
    }

    fn frames(&mut self) -> ClipFrames<'_> {
        frames(&self.oracle, &self.cost_model, &mut self.ledger, self.clip)
    }

    fn shots(&mut self) -> ClipShots<'_> {
        shots(&self.oracle, &self.cost_model, &mut self.ledger, self.clip)
    }
}

/// Streaming access to an oracle, clip by clip.
pub struct VideoStream<'a> {
    oracle: &'a DetectionOracle,
    cost_model: CostModel,
    ledger: CostLedger,
    next_clip: u64,
    clip_count: u64,
}

impl<'a> VideoStream<'a> {
    /// Open a stream over the oracle's video.
    pub fn new(oracle: &'a DetectionOracle) -> Self {
        Self {
            oracle,
            cost_model: CostModel::from_suite(oracle.suite()),
            ledger: CostLedger::default(),
            next_clip: 0,
            clip_count: oracle.clip_count(),
        }
    }

    /// Geometry of the underlying video.
    pub fn geometry(&self) -> svq_types::VideoGeometry {
        self.oracle.truth().geometry
    }

    /// Total clips in the stream.
    pub fn clip_count(&self) -> u64 {
        self.clip_count
    }

    /// Whether the stream is exhausted — the `X.end()` of Algorithm 1.
    pub fn at_end(&self) -> bool {
        self.next_clip >= self.clip_count
    }

    /// The next clip as a cost-charging view, or `None` at end of stream —
    /// the `X.next()` of Algorithm 1.
    pub fn next_clip(&mut self) -> Option<ClipView<'_>> {
        if self.at_end() {
            return None;
        }
        let clip = ClipId::new(self.next_clip);
        self.next_clip += 1;
        Some(ClipView {
            oracle: self.oracle,
            cost_model: self.cost_model,
            ledger: &mut self.ledger,
            clip,
        })
    }

    /// Inference cost accumulated so far.
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// Mutable access to the ledger (for recording algorithm wall-clock).
    pub fn ledger_mut(&mut self) -> &mut CostLedger {
        &mut self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{ActionRecognizer, ModelSuite, ObjectDetector, SceneConfusion};
    use crate::truth::{ActionSpan, GroundTruth, ObjectTrack};
    use svq_types::{
        ActionClass, BBox, FrameId, Interval, ObjectClass, ShotId, TrackId, VideoGeometry, VideoId,
    };

    fn small_oracle() -> DetectionOracle {
        let gt = GroundTruth::new(VideoId::new(0), VideoGeometry::default(), 500);
        DetectionOracle::new(
            Arc::new(gt),
            ModelSuite::accurate(),
            &SceneConfusion::default(),
            1,
        )
    }

    #[test]
    fn stream_walks_every_clip_once() {
        let oracle = small_oracle();
        let mut stream = VideoStream::new(&oracle);
        assert_eq!(stream.clip_count(), 10); // 500 frames / 50.
        let mut seen = Vec::new();
        while let Some(view) = stream.next_clip() {
            seen.push(view.clip().raw());
        }
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert!(stream.at_end());
        assert!(stream.next_clip().is_none());
    }

    #[test]
    fn cost_charged_only_for_requested_units() {
        let oracle = small_oracle();
        let mut stream = VideoStream::new(&oracle);
        {
            let mut view = stream.next_clip().unwrap();
            assert_eq!(view.frames().rows().count(), 50);
            // Action shots never requested for this clip.
        }
        assert_eq!(stream.ledger().object_frames, 50);
        assert_eq!(stream.ledger().action_shots, 0);
        {
            let mut view = stream.next_clip().unwrap();
            assert_eq!(view.shots().rows().count(), 5);
        }
        assert_eq!(stream.ledger().object_frames, 50);
        assert_eq!(stream.ledger().action_shots, 5);
    }

    #[test]
    fn both_row_runs_pay_for_everything() {
        let oracle = small_oracle();
        let mut stream = VideoStream::new(&oracle);
        let mut view = stream.next_clip().unwrap();
        assert_eq!(view.frames().rows().count(), 50);
        assert_eq!(view.shots().rows().count(), 5);
        assert_eq!(stream.ledger().object_frames, 50);
        assert_eq!(stream.ledger().action_shots, 5);
        let expected_ms = 50.0 * (75.0 + 18.0) + 5.0 * 140.0;
        assert!((stream.ledger().inference_ms() - expected_ms).abs() < 1e-9);
    }

    #[test]
    fn rows_are_the_clips_own_frames_and_shots() {
        let oracle = small_oracle();
        let mut stream = VideoStream::new(&oracle);
        let _ = stream.next_clip().unwrap(); // clip 0
        let mut view = stream.next_clip().unwrap(); // clip 1
        for (i, row) in view.frames().rows().enumerate() {
            assert_eq!(row, oracle.detect(FrameId::new(50 + i as u64)));
        }
        for (i, row) in view.shots().rows().enumerate() {
            assert_eq!(row, oracle.recognize(ShotId::new(5 + i as u64)));
        }
    }

    /// The exec layer's thread-crossing view and the streaming view are
    /// interchangeable: for every clip, under every access pattern, they
    /// lend the same rows and charge the same ledger.
    #[test]
    fn owned_and_borrowed_views_agree_on_rows_and_ledgers() {
        let mut gt = GroundTruth::new(VideoId::new(4), VideoGeometry::default(), 1_000);
        gt.tracks.push(ObjectTrack {
            class: ObjectClass::named("car"),
            track: TrackId::new(1),
            frames: Interval::new(FrameId::new(100), FrameId::new(699)),
            visibility: 1.0,
            bbox: BBox::FULL,
        });
        gt.actions.push(ActionSpan {
            class: ActionClass::named("jumping"),
            frames: Interval::new(FrameId::new(300), FrameId::new(599)),
            salience: 1.0,
        });
        let confusion = SceneConfusion {
            objects: vec![(ObjectClass::named("car"), 1.0)],
            actions: vec![(ActionClass::named("jumping"), 1.0)],
        };
        let oracle = Arc::new(DetectionOracle::new(
            Arc::new(gt),
            ModelSuite::accurate(),
            &confusion,
            9,
        ));
        let mut stream = VideoStream::new(&oracle);
        let mut merged = CostLedger::default();
        while let Some(mut view) = stream.next_clip() {
            let clip = view.clip();
            let mut owned = OwnedClipView::new(oracle.clone(), clip);
            assert_eq!(owned.clip(), clip);
            // Objects only, actions only, both, neither.
            let (objects, actions) = match clip.raw() % 4 {
                0 => (true, false),
                1 => (false, true),
                2 => (true, true),
                _ => (false, false),
            };
            if objects {
                let a: Vec<&[TrackedDetection]> = view.frames().rows().collect();
                let b: Vec<&[TrackedDetection]> = owned.frames().rows().collect();
                assert_eq!(a, b, "clip {clip:?} detections");
            }
            if actions {
                let a: Vec<&[ActionScore]> = view.shots().rows().collect();
                let b: Vec<&[ActionScore]> = owned.shots().rows().collect();
                assert_eq!(a, b, "clip {clip:?} action scores");
            }
            merged.merge(owned.ledger());
            assert_eq!(*stream.ledger(), merged, "clip {clip:?} ledger");
        }
        assert_eq!(stream.ledger().object_frames, 10 * 50);
        assert_eq!(stream.ledger().action_shots, 10 * 5);
    }
}
