//! The ingestion phase — §4.2.
//!
//! Runs once per video, query-independently, over *every* class the
//! deployed models support:
//!
//! 1. **Clip score tables.** For each clip and each class, the per-class
//!    clip score (`h` over the model scores inside the clip, Eqs. 7-8) is
//!    computed and stored into the class's `(cid, Score)` table.
//! 2. **Individual sequences.** For each class, a per-class SVAQD instance
//!    (dynamic background estimation + scan-statistic critical values)
//!    converts the per-clip positive-prediction counts into positive clips
//!    (Eqs. 1-2) and merges them into the class's sequence set `P_{o_i}` /
//!    `P_{a_j}`.
//!
//! The output [`IngestedVideo`] is all the offline engine ever touches at
//! query time.

use crate::online::{OnlineConfig, PredicateState, SequenceMerger};
use svq_scanstats::{CriticalValueTable, ScanConfig};
use svq_storage::{ClipScoreTable, IngestedVideo, SequenceSet};
use svq_types::{ActionClass, ClipId, ObjectClass, ScoringFunctions, Vocabulary};
use svq_vision::models::DetectionOracle;

/// One class's individual sequences: the online engine's per-predicate
/// state (clamp, vicinity guard, censoring, warm-up) with the class as its
/// own one-predicate query, fed with per-clip counts.
#[derive(Clone)]
struct ClassTracker {
    state: PredicateState,
    merger: SequenceMerger,
}

impl ClassTracker {
    fn new(bandwidth: f64, prior: f64, window: u32, table: &mut CriticalValueTable) -> Self {
        Self {
            state: PredicateState::new(bandwidth, prior, window, table),
            merger: SequenceMerger::new(),
        }
    }

    fn push(
        &mut self,
        clip: ClipId,
        count: u32,
        config: &OnlineConfig,
        t: &mut CriticalValueTable,
    ) {
        let positive = count >= self.state.critical();
        let in_warmup = clip.raw() < u64::from(config.warmup_clips);
        self.state
            .observe(Some(count), positive, in_warmup, config, t);
        self.merger.push(clip, positive);
    }

    fn finish(self) -> SequenceSet {
        SequenceSet::from_sorted(self.merger.finish())
    }
}

/// Run the ingestion phase over one simulated video.
///
/// `scoring` supplies the `h` functions used for the clip score tables;
/// `config` supplies thresholds and the scan-statistic parameters used for
/// the per-class individual sequences (the same knobs the online engine
/// uses, per §4.2's "utilizing algorithm SVAQD").
pub fn ingest(
    oracle: &DetectionOracle,
    scoring: &dyn ScoringFunctions,
    config: &OnlineConfig,
) -> IngestedVideo {
    let truth = oracle.truth();
    let geometry = truth.geometry;
    let clip_count = geometry.clip_count(truth.total_frames);
    let n_obj = ObjectClass::cardinality();
    let n_act = ActionClass::cardinality();

    let table =
        |w| CriticalValueTable::new(ScanConfig::new(w, config.horizon_windows, config.alpha));
    let mut object_table_sweep = table(geometry.frames_per_clip());
    let mut action_table_sweep = table(geometry.shots_per_clip);

    // Ingestion is query-independent: no prior knowledge of any class's
    // noise rate, so every class starts from the same uninformative prior.
    let prior = 0.01;
    let (w_obj, w_act) = (geometry.frames_per_clip(), geometry.shots_per_clip);
    let obj_tracker = ClassTracker::new(
        config.bandwidth_frames,
        prior,
        w_obj,
        &mut object_table_sweep,
    );
    let act_tracker = ClassTracker::new(
        config.bandwidth_shots,
        prior,
        w_act,
        &mut action_table_sweep,
    );
    let mut obj_trackers = vec![obj_tracker; n_obj];
    let mut act_trackers = vec![act_tracker; n_act];

    let mut obj_rows: Vec<Vec<(ClipId, f64)>> = vec![Vec::new(); n_obj];
    let mut act_rows: Vec<Vec<(ClipId, f64)>> = vec![Vec::new(); n_act];

    // Reused per-clip scratch.
    let mut obj_counts = vec![0u32; n_obj];
    let mut obj_scores: Vec<Vec<f64>> = vec![Vec::new(); n_obj];
    let mut act_counts = vec![0u32; n_act];
    let mut act_scores: Vec<Vec<f64>> = vec![Vec::new(); n_act];
    let mut seen_this_frame = vec![u64::MAX; n_obj];
    let mut seen_this_shot = vec![u64::MAX; n_act];

    use svq_vision::models::{ActionRecognizer, ObjectDetector};
    for c in 0..clip_count {
        let clip = ClipId::new(c);
        obj_counts.iter_mut().for_each(|x| *x = 0);
        act_counts.iter_mut().for_each(|x| *x = 0);
        // --- frames: object detections.
        for f in geometry.frames_of_clip(clip) {
            for det in oracle.detect(svq_types::FrameId::new(f)) {
                let idx = det.detection.class.index();
                obj_scores[idx].push(det.detection.score);
                // One positive indicator per frame per class (Eq. 1 counts
                // frames, not detections), thresholded like the online path.
                if det.detection.score >= config.t_obj && seen_this_frame[idx] != f {
                    obj_counts[idx] += 1;
                    seen_this_frame[idx] = f;
                }
            }
        }
        // --- shots: action scores.
        for s in geometry.shots_of_clip(clip) {
            for act in oracle.recognize(svq_types::ShotId::new(s)) {
                let idx = act.class.index();
                act_scores[idx].push(act.score);
                if act.score >= config.t_act && seen_this_shot[idx] != s {
                    act_counts[idx] += 1;
                    seen_this_shot[idx] = s;
                }
            }
        }
        // --- fold into tables and trackers.
        for i in 0..n_obj {
            if !obj_scores[i].is_empty() {
                let score = scoring.h_object(&obj_scores[i]);
                if score > 0.0 {
                    obj_rows[i].push((clip, score));
                }
                obj_scores[i].clear();
            }
            obj_trackers[i].push(clip, obj_counts[i], config, &mut object_table_sweep);
        }
        for j in 0..n_act {
            if !act_scores[j].is_empty() {
                let score = scoring.h_action(&act_scores[j]);
                if score > 0.0 {
                    act_rows[j].push((clip, score));
                }
                act_scores[j].clear();
            }
            act_trackers[j].push(clip, act_counts[j], config, &mut action_table_sweep);
        }
    }

    let object_tables: Vec<ClipScoreTable> =
        obj_rows.into_iter().map(ClipScoreTable::new).collect();
    let action_tables: Vec<ClipScoreTable> =
        act_rows.into_iter().map(ClipScoreTable::new).collect();
    let object_sequences: Vec<SequenceSet> =
        obj_trackers.into_iter().map(ClassTracker::finish).collect();
    let action_sequences: Vec<SequenceSet> =
        act_trackers.into_iter().map(ClassTracker::finish).collect();

    IngestedVideo::new(
        truth.video,
        geometry,
        clip_count,
        object_tables,
        action_tables,
        object_sequences,
        action_sequences,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use svq_types::{
        ActionQuery, BBox, FrameId, Interval, PaperScoring, TrackId, VideoGeometry, VideoId,
    };
    use svq_vision::models::{ModelSuite, SceneConfusion};
    use svq_vision::truth::{ActionSpan, GroundTruth, ObjectTrack};

    fn oracle(suite: ModelSuite) -> DetectionOracle {
        let mut gt = GroundTruth::new(VideoId::new(0), VideoGeometry::default(), 3_000);
        gt.tracks.push(ObjectTrack {
            class: ObjectClass::named("car"),
            track: TrackId::new(1),
            frames: Interval::new(FrameId::new(1_000), FrameId::new(1_999)),
            visibility: 1.0,
            bbox: BBox::FULL,
        });
        gt.actions.push(ActionSpan {
            class: ActionClass::named("jumping"),
            frames: Interval::new(FrameId::new(1_200), FrameId::new(1_799)),
            salience: 1.0,
        });
        let confusion = SceneConfusion {
            objects: vec![(ObjectClass::named("car"), 1.0)],
            actions: vec![(ActionClass::named("jumping"), 1.0)],
        };
        DetectionOracle::new(Arc::new(gt), suite, &confusion, 17)
    }

    #[test]
    fn ideal_ingestion_matches_truth_exactly() {
        let oracle = oracle(ModelSuite::ideal());
        let cat = ingest(&oracle, &PaperScoring, &OnlineConfig::default());
        let car = ObjectClass::named("car");
        let jumping = ActionClass::named("jumping");
        // Car visible frames 1000-1999 = clips 20..=39.
        assert_eq!(
            cat.object_sequences(car).intervals(),
            &[Interval::new(ClipId::new(20), ClipId::new(39))]
        );
        // Jumping frames 1200-1799 = clips 24..=35.
        assert_eq!(
            cat.action_sequences(jumping).intervals(),
            &[Interval::new(ClipId::new(24), ClipId::new(35))]
        );
        // Eq. 12 intersection at query time.
        let q = ActionQuery::named("jumping", &["car"]);
        assert_eq!(
            cat.result_sequences(&q).intervals(),
            &[Interval::new(ClipId::new(24), ClipId::new(35))]
        );
        // Tables hold scores exactly on the clips where the class appears.
        assert_eq!(cat.object_table(car).len(), 20);
        assert_eq!(cat.action_table(jumping).len(), 12);
        // Unrelated classes are empty.
        assert!(cat.object_sequences(ObjectClass::named("dog")).is_empty());
        assert_eq!(cat.object_table(ObjectClass::named("dog")).len(), 0);
    }

    #[test]
    fn table_scores_are_h_sums() {
        let oracle = oracle(ModelSuite::ideal());
        let cat = ingest(&oracle, &PaperScoring, &OnlineConfig::default());
        let car = ObjectClass::named("car");
        // Ideal detector: one detection per frame, score >= 0.99; h = sum
        // over 50 frames -> table scores in [49.5, 50.0+].
        for (_, score) in cat.object_table(car).iter_sorted() {
            assert!((45.0..=51.0).contains(&score), "clip score {score}");
        }
    }

    #[test]
    fn realistic_ingestion_recovers_sequences_approximately() {
        let oracle = oracle(ModelSuite::accurate());
        let cat = ingest(&oracle, &PaperScoring, &OnlineConfig::default());
        let car = ObjectClass::named("car");
        let truth = Interval::new(ClipId::new(20), ClipId::new(39));
        let covered: u64 = cat
            .object_sequences(car)
            .intervals()
            .iter()
            .map(|iv| iv.overlap_len(&truth))
            .sum();
        assert!(covered >= 14, "covered only {covered}/20 clips");
        // Noise does not flood the catalog: claimed clips outside truth are
        // bounded.
        let spurious = cat.object_sequences(car).clip_count() - covered;
        assert!(spurious <= 8, "spurious {spurious}");
    }

    #[test]
    fn ingestion_is_deterministic() {
        let oracle = oracle(ModelSuite::accurate());
        let a = ingest(&oracle, &PaperScoring, &OnlineConfig::default());
        let b = ingest(&oracle, &PaperScoring, &OnlineConfig::default());
        let car = ObjectClass::named("car");
        assert_eq!(a.object_sequences(car), b.object_sequences(car));
        assert_eq!(
            a.object_table(car).iter_sorted().collect::<Vec<_>>(),
            b.object_table(car).iter_sorted().collect::<Vec<_>>()
        );
    }
}
