//! Clip indicator evaluation — Algorithm 2.
//!
//! For each object predicate, count the clip's frames with a positive
//! thresholded detection (`Σ 𝟙_{o_i}^{(v)}`) and compare against
//! `k_crit_{o_i}` (Eq. 1); for the action predicate, count positive shots
//! against `k_crit_a` (Eq. 2); conjoin (Eq. 3). Predicates are evaluated in
//! query order and evaluation short-circuits on the first negative
//! predicate (Algorithm 2 lines 6-8), skipping the remaining predicates'
//! inference — which is where the online algorithms save model cost.

use super::config::OnlineConfig;
use svq_types::{ActionQuery, ClipId};
use svq_vision::stream::ClipAccess;

/// Per-predicate critical values for one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalValues {
    /// `k_crit_{o_i}` per object predicate, in query order (units: frames).
    pub objects: Vec<u32>,
    /// `k_crit_a` (units: shots).
    pub action: u32,
}

/// The trace of one clip's evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct ClipEvaluation {
    pub clip: ClipId,
    /// `𝟙_q^(c)` — Eq. 3.
    pub positive: bool,
    /// Positive-frame count per object predicate; `None` where evaluation
    /// short-circuited before reaching the predicate.
    pub object_counts: Vec<Option<u32>>,
    /// Positive-shot count for the action; `None` if short-circuited.
    pub action_count: Option<u32>,
    /// Critical values used for this clip (SVAQD varies them over time).
    pub criticals: CriticalValues,
}

impl ClipEvaluation {
    /// Indicator of object predicate `i` on this clip, if evaluated.
    pub fn object_indicator(&self, i: usize) -> Option<bool> {
        self.object_counts[i].map(|c| c >= self.criticals.objects[i])
    }

    /// Indicator of the action predicate, if evaluated.
    pub fn action_indicator(&self) -> Option<bool> {
        self.action_count.map(|c| c >= self.criticals.action)
    }
}

/// Evaluate Algorithm 2 on one clip (predicates in query order).
///
/// Object predicates are evaluated first, in query order, then the action —
/// matching the listing. The clip's frames are charged once, before the
/// first object predicate (real detectors emit all classes in one pass;
/// subsequent predicates reuse the same detections at zero extra
/// inference). The action predicate charges the recognizer over the clip's
/// shots only if every object predicate held. Counts are read from the
/// oracle's occurrence memo through [`svq_vision::ClipFrames::count`] and
/// [`svq_vision::ClipShots::count`].
pub fn evaluate_clip<C: ClipAccess>(
    view: &mut C,
    query: &ActionQuery,
    criticals: &CriticalValues,
    config: &OnlineConfig,
) -> ClipEvaluation {
    evaluate(view, query, criticals, config, 0..query.objects.len())
}

/// Evaluate Algorithm 2 with an explicit object-predicate evaluation order
/// (indices into `query.objects`) — the footnote 5 knob, driven adaptively
/// by [`super::ordering::SelectivityOrderer`]. Counts land at their
/// *original* indices regardless of the order.
pub fn evaluate_clip_ordered<C: ClipAccess>(
    view: &mut C,
    query: &ActionQuery,
    criticals: &CriticalValues,
    config: &OnlineConfig,
    order: &[usize],
) -> ClipEvaluation {
    debug_assert_eq!(order.len(), query.objects.len());
    evaluate(view, query, criticals, config, order.iter().copied())
}

fn evaluate<C: ClipAccess>(
    view: &mut C,
    query: &ActionQuery,
    criticals: &CriticalValues,
    config: &OnlineConfig,
    order: impl Iterator<Item = usize>,
) -> ClipEvaluation {
    debug_assert_eq!(criticals.objects.len(), query.objects.len());
    let clip = view.clip();
    let mut object_counts: Vec<Option<u32>> = vec![None; query.objects.len()];

    if !query.objects.is_empty() {
        // One detector pass yields every class's detections for the clip.
        let frames = view.frames();
        for i in order {
            // Σ_{v ∈ V(c)} 𝟙_{o_i}^{(v)} with 𝟙 = [maxS ≥ T_obj].
            let count = frames.count(query.objects[i], config.t_obj);
            object_counts[i] = Some(count);
            if count < criticals.objects[i] {
                // Short-circuit: remaining predicates unevaluated.
                return ClipEvaluation {
                    clip,
                    positive: false,
                    object_counts,
                    action_count: None,
                    criticals: criticals.clone(),
                };
            }
        }
    }

    // All object predicates held — run the action recognizer.
    let action_count = view.shots().count(query.action, config.t_act);
    let positive = action_count >= criticals.action;
    ClipEvaluation {
        clip,
        positive,
        object_counts,
        action_count: Some(action_count),
        criticals: criticals.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use svq_types::{ActionClass, FrameId, Interval, ObjectClass, TrackId, VideoGeometry, VideoId};
    use svq_vision::models::{DetectionOracle, ModelSuite, SceneConfusion};
    use svq_vision::truth::{ActionSpan, GroundTruth, ObjectTrack};
    use svq_vision::VideoStream;

    /// 4 clips (200 frames): car on clip 1-2, jumping on clip 2 only.
    fn oracle() -> DetectionOracle {
        let mut gt = GroundTruth::new(VideoId::new(0), VideoGeometry::default(), 200);
        gt.tracks.push(ObjectTrack {
            class: ObjectClass::named("car"),
            track: TrackId::new(1),
            frames: Interval::new(FrameId::new(50), FrameId::new(149)),
            visibility: 1.0,
            bbox: svq_types::BBox::FULL,
        });
        gt.actions.push(ActionSpan {
            class: ActionClass::named("jumping"),
            frames: Interval::new(FrameId::new(100), FrameId::new(149)),
            salience: 1.0,
        });
        DetectionOracle::new(
            Arc::new(gt),
            ModelSuite::ideal(),
            &SceneConfusion::default(),
            0,
        )
    }

    fn crits(obj: u32, act: u32, n_obj: usize) -> CriticalValues {
        CriticalValues {
            objects: vec![obj; n_obj],
            action: act,
        }
    }

    #[test]
    fn indicator_conjunction_with_ideal_models() {
        let oracle = oracle();
        let mut stream = VideoStream::new(&oracle);
        let query = ActionQuery::named("jumping", &["car"]);
        let config = OnlineConfig::default();
        let criticals = crits(5, 2, 1);
        let mut outcomes = Vec::new();
        while let Some(mut view) = stream.next_clip() {
            outcomes.push(evaluate_clip(&mut view, &query, &criticals, &config));
        }
        assert_eq!(outcomes.len(), 4);
        // Clip 0: no car — negative, action never evaluated.
        assert!(!outcomes[0].positive);
        assert_eq!(outcomes[0].object_counts[0], Some(0));
        assert_eq!(outcomes[0].action_count, None);
        // Clip 1: car but no action.
        assert!(!outcomes[1].positive);
        assert_eq!(outcomes[1].object_counts[0], Some(50));
        assert_eq!(outcomes[1].action_count, Some(0));
        // Clip 2: car + jumping.
        assert!(outcomes[2].positive);
        assert_eq!(outcomes[2].action_count, Some(5));
        // Clip 3: nothing.
        assert!(!outcomes[3].positive);
    }

    #[test]
    fn short_circuit_saves_action_inference() {
        let oracle = oracle();
        let mut stream = VideoStream::new(&oracle);
        let query = ActionQuery::named("jumping", &["car"]);
        let config = OnlineConfig::default();
        let criticals = crits(5, 2, 1);
        while let Some(mut view) = stream.next_clip() {
            evaluate_clip(&mut view, &query, &criticals, &config);
        }
        // Object inference on all 4 clips (200 frames); action only on the
        // two clips whose object predicate held (clips 1 and 2 -> 10 shots).
        assert_eq!(stream.ledger().object_frames, 200);
        assert_eq!(stream.ledger().action_shots, 10);
    }

    #[test]
    fn action_only_query_skips_object_detection() {
        let oracle = oracle();
        let mut stream = VideoStream::new(&oracle);
        let query = ActionQuery::named("jumping", &[]);
        let config = OnlineConfig::default();
        let criticals = crits(0, 2, 0);
        let mut positives = 0;
        while let Some(mut view) = stream.next_clip() {
            positives += evaluate_clip(&mut view, &query, &criticals, &config).positive as u32;
        }
        assert_eq!(positives, 1);
        assert_eq!(stream.ledger().object_frames, 0);
        assert_eq!(stream.ledger().action_shots, 20);
    }

    #[test]
    fn critical_value_gates_the_count() {
        let oracle = oracle();
        let query = ActionQuery::named("jumping", &["car"]);
        let config = OnlineConfig::default();
        // Demand more positive frames than the clip holds: clip 2 has 50.
        let strict = crits(51, 1, 1);
        let mut stream = VideoStream::new(&oracle);
        let mut any_positive = false;
        while let Some(mut view) = stream.next_clip() {
            any_positive |= evaluate_clip(&mut view, &query, &strict, &config).positive;
        }
        assert!(!any_positive);
    }

    #[test]
    fn indicators_reflect_criticals() {
        let oracle = oracle();
        let mut stream = VideoStream::new(&oracle);
        let query = ActionQuery::named("jumping", &["car"]);
        let config = OnlineConfig::default();
        let criticals = crits(5, 2, 1);
        let mut v = stream.next_clip().unwrap();
        let e0 = evaluate_clip(&mut v, &query, &criticals, &config);
        assert_eq!(e0.object_indicator(0), Some(false));
        assert_eq!(e0.action_indicator(), None);
        let _ = stream.next_clip().unwrap();
        let mut v2 = stream.next_clip().unwrap();
        let e2 = evaluate_clip(&mut v2, &query, &criticals, &config);
        assert_eq!(e2.object_indicator(0), Some(true));
        assert_eq!(e2.action_indicator(), Some(true));
    }
}
