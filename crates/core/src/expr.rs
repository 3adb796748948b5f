//! Extended query expressions — the footnote 2-4 generalisations.
//!
//! The canonical query is a conjunction of object predicates and one action.
//! The paper sketches three extensions, all of which reduce to per-clip
//! binary indicators combined with boolean structure:
//!
//! * **multiple actions** (footnote 3): each action predicate gets its own
//!   per-shot indicator and critical value; indicators conjoin;
//! * **disjunction** (footnote 4): transform to conjunctive normal form and
//!   evaluate clause indicators per clip;
//! * **object relationships** (footnote 2): a binary per-frame indicator
//!   derived from detector boxes (here: `leftOf`), thresholded by a
//!   frame-window critical value exactly like an object-presence predicate.
//!
//! [`CnfQuery`] is a conjunction of clauses, each a disjunction of
//! [`Predicate`]s; [`ExprSvaqd`] runs SVAQD-style dynamic background
//! estimation per distinct predicate.

use crate::online::{OnlineConfig, SequenceMerger};
use svq_scanstats::{CriticalValueTable, KernelEstimator, ScanConfig};
use svq_types::{
    ActionQuery, ClipInterval, ObjectClass, Predicate, TrackedDetection, VideoGeometry,
};
use svq_vision::stream::ClipAccess;
use svq_vision::{Rows, VideoStream};

/// A query in conjunctive normal form: every clause must hold on a clip;
/// a clause holds when at least one of its predicates does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CnfQuery {
    pub clauses: Vec<Vec<Predicate>>,
}

impl CnfQuery {
    /// Build a CNF query; empty clauses are rejected (they are vacuously
    /// false and almost certainly a caller bug).
    pub fn new(clauses: Vec<Vec<Predicate>>) -> Self {
        assert!(!clauses.is_empty(), "query needs at least one clause");
        assert!(
            clauses.iter().all(|c| !c.is_empty()),
            "clauses must not be empty"
        );
        Self { clauses }
    }

    /// The canonical conjunctive query as CNF (one singleton clause per
    /// predicate).
    pub fn from_action_query(q: &ActionQuery) -> Self {
        let mut clauses: Vec<Vec<Predicate>> = q
            .objects
            .iter()
            .map(|&o| vec![Predicate::Object(o)])
            .collect();
        clauses.push(vec![Predicate::Action(q.action)]);
        Self::new(clauses)
    }

    /// All distinct predicates, in first-appearance order.
    pub fn predicates(&self) -> Vec<Predicate> {
        let mut out: Vec<Predicate> = Vec::new();
        for clause in &self.clauses {
            for p in clause {
                if !out.contains(p) {
                    out.push(*p);
                }
            }
        }
        out
    }
}

/// Whether a predicate counts positive occurrence units on frames (true)
/// or shots (false).
fn is_frame_level(p: &Predicate) -> bool {
    !matches!(p, Predicate::Action(_))
}

/// SVAQD generalised to CNF queries: one background estimator and critical
/// value per distinct predicate.
#[derive(Debug)]
pub struct ExprSvaqd {
    /// Each clause as indices into `predicates`.
    clauses: Vec<Vec<usize>>,
    predicates: Vec<Predicate>,
    config: OnlineConfig,
    geometry: VideoGeometry,
    estimators: Vec<KernelEstimator>,
    frame_table: CriticalValueTable,
    shot_table: CriticalValueTable,
    criticals: Vec<u32>,
    merger: SequenceMerger,
    /// This clip's count and indicator per predicate, reused across clips.
    counts: Vec<u32>,
    indicators: Vec<bool>,
}

impl ExprSvaqd {
    /// Initialise with one shared prior per OU kind.
    pub fn new(
        query: CnfQuery,
        geometry: VideoGeometry,
        config: OnlineConfig,
        p_frame_0: f64,
        p_shot_0: f64,
    ) -> Self {
        let predicates = query.predicates();
        let mut frame_table = CriticalValueTable::new(ScanConfig::new(
            geometry.frames_per_clip(),
            config.horizon_windows,
            config.alpha,
        ));
        let mut shot_table = CriticalValueTable::new(ScanConfig::new(
            geometry.shots_per_clip,
            config.horizon_windows,
            config.alpha,
        ));
        let estimators: Vec<KernelEstimator> = predicates
            .iter()
            .map(|p| {
                if is_frame_level(p) {
                    KernelEstimator::new(config.bandwidth_frames, p_frame_0)
                } else {
                    KernelEstimator::new(config.bandwidth_shots, p_shot_0)
                }
            })
            .collect();
        let criticals = predicates
            .iter()
            .zip(&estimators)
            .map(|(p, e)| {
                if is_frame_level(p) {
                    frame_table.critical_value(e.estimate())
                } else {
                    shot_table.critical_value(e.estimate())
                }
            })
            .collect();
        let clauses = query
            .clauses
            .iter()
            .map(|clause| {
                clause
                    .iter()
                    .map(|p| {
                        predicates
                            .iter()
                            .position(|q| q == p)
                            .expect("predicates() lists every clause predicate")
                    })
                    .collect()
            })
            .collect();
        let n = predicates.len();
        Self {
            clauses,
            predicates,
            config,
            geometry,
            estimators,
            frame_table,
            shot_table,
            criticals,
            merger: SequenceMerger::new(),
            counts: vec![0; n],
            indicators: vec![false; n],
        }
    }

    /// Frames of one clip holding `left` left of `right`, both at
    /// `score ≥ t_obj` — the one predicate that reads boxes, so rows.
    fn count_left_of(
        frames: Rows<'_, TrackedDetection>,
        left: ObjectClass,
        right: ObjectClass,
        t_obj: f64,
    ) -> u32 {
        frames
            .filter(|detections| {
                detections.iter().any(|l| {
                    l.detection.class == left
                        && l.detection.score >= t_obj
                        && detections.iter().any(|r| {
                            r.detection.class == right
                                && r.detection.score >= t_obj
                                && l.detection.bbox.left_of(&r.detection.bbox)
                        })
                })
            })
            .count() as u32
    }

    /// Process the next clip; returns a closed sequence if any.
    pub fn push_clip<C: ClipAccess>(&mut self, view: &mut C) -> Option<ClipInterval> {
        let clip = view.clip();
        let (t_obj, t_act) = (self.config.t_obj, self.config.t_act);

        // Per-predicate counts: one detector pass over the clip's frames
        // (if any predicate reads frames), then one recognizer pass over
        // its shots (if any reads shots) — the order the ledger is charged.
        if self.predicates.iter().any(is_frame_level) {
            let frames = view.frames();
            for (count, p) in self.counts.iter_mut().zip(&self.predicates) {
                match *p {
                    Predicate::Object(class) => *count = frames.count(class, t_obj),
                    Predicate::LeftOf(left, right) => {
                        *count = Self::count_left_of(frames.rows(), left, right, t_obj)
                    }
                    Predicate::Action(_) => {}
                }
            }
        }
        if self.predicates.iter().any(|p| !is_frame_level(p)) {
            let shots = view.shots();
            for (count, p) in self.counts.iter_mut().zip(&self.predicates) {
                if let Predicate::Action(class) = *p {
                    *count = shots.count(class, t_act);
                }
            }
        }
        for ((ind, &c), &k) in self
            .indicators
            .iter_mut()
            .zip(&self.counts)
            .zip(&self.criticals)
        {
            *ind = c >= k;
        }

        // CNF evaluation.
        let positive = self
            .clauses
            .iter()
            .all(|clause| clause.iter().any(|&i| self.indicators[i]));

        // Background updates (NegativeClips semantics per predicate).
        for ((p, est), (&count, &ind)) in self
            .predicates
            .iter()
            .zip(self.estimators.iter_mut())
            .zip(self.counts.iter().zip(&self.indicators))
        {
            let update = match self.config.update {
                crate::online::BackgroundUpdate::NegativeClips => !ind,
                crate::online::BackgroundUpdate::AllClips => true,
                crate::online::BackgroundUpdate::PositiveClips => positive,
            };
            if update {
                let units = if is_frame_level(p) {
                    self.geometry.frames_per_clip() as u64
                } else {
                    self.geometry.shots_per_clip as u64
                };
                est.observe_run(units, count as u64);
            }
        }
        for (i, p) in self.predicates.iter().enumerate() {
            let est = self.estimators[i].estimate();
            self.criticals[i] = if is_frame_level(p) {
                self.frame_table.critical_value(est)
            } else {
                self.shot_table.critical_value(est)
            };
        }

        self.merger.push(clip, positive)
    }

    /// Current per-predicate background activation estimates, in the
    /// engine's distinct-predicate order (the drift surface a standing
    /// query snapshots).
    pub fn backgrounds(&self) -> Vec<f64> {
        self.estimators.iter().map(|e| e.estimate()).collect()
    }

    /// Current per-predicate critical run lengths, matching
    /// [`ExprSvaqd::backgrounds`] positionally.
    pub fn criticals(&self) -> Vec<u32> {
        self.criticals.clone()
    }

    /// End of stream.
    pub fn finish(self) -> Vec<ClipInterval> {
        self.merger.finish()
    }

    /// Convenience: run over a whole stream.
    pub fn run(
        query: CnfQuery,
        stream: &mut VideoStream<'_>,
        config: OnlineConfig,
        p_frame_0: f64,
        p_shot_0: f64,
    ) -> Vec<ClipInterval> {
        let mut engine = ExprSvaqd::new(query, stream.geometry(), config, p_frame_0, p_shot_0);
        while let Some(mut view) = stream.next_clip() {
            engine.push_clip(&mut view);
        }
        engine.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use svq_types::{ActionClass, BBox, ClipId, FrameId, Interval, ObjectClass, TrackId, VideoId};
    use svq_vision::models::{DetectionOracle, ModelSuite, SceneConfusion};
    use svq_vision::truth::{ActionSpan, GroundTruth, ObjectTrack};

    /// Clips 0..19. car left (x<0.3) on clips 4..=9; person right on 4..=14;
    /// jumping on 6..=9; kissing on 12..=13.
    fn oracle() -> DetectionOracle {
        let mut gt = GroundTruth::new(VideoId::new(0), VideoGeometry::default(), 1_000);
        gt.tracks.push(ObjectTrack {
            class: ObjectClass::named("car"),
            track: TrackId::new(1),
            frames: Interval::new(FrameId::new(200), FrameId::new(499)),
            visibility: 1.0,
            bbox: BBox::new(0.05, 0.3, 0.25, 0.7),
        });
        gt.tracks.push(ObjectTrack {
            class: ObjectClass::named("person"),
            track: TrackId::new(2),
            frames: Interval::new(FrameId::new(200), FrameId::new(749)),
            visibility: 1.0,
            bbox: BBox::new(0.6, 0.2, 0.9, 0.9),
        });
        gt.actions.push(ActionSpan {
            class: ActionClass::named("jumping"),
            frames: Interval::new(FrameId::new(300), FrameId::new(499)),
            salience: 1.0,
        });
        gt.actions.push(ActionSpan {
            class: ActionClass::named("kissing"),
            frames: Interval::new(FrameId::new(600), FrameId::new(699)),
            salience: 1.0,
        });
        DetectionOracle::new(
            Arc::new(gt),
            ModelSuite::ideal(),
            &SceneConfusion::default(),
            0,
        )
    }

    fn iv(s: u64, e: u64) -> ClipInterval {
        Interval::new(ClipId::new(s), ClipId::new(e))
    }

    #[test]
    fn cnf_from_action_query_matches_svaqd_semantics() {
        let q = ActionQuery::named("jumping", &["car", "person"]);
        let cnf = CnfQuery::from_action_query(&q);
        assert_eq!(cnf.clauses.len(), 3);
        let oracle = oracle();
        let mut stream = VideoStream::new(&oracle);
        let seqs = ExprSvaqd::run(cnf, &mut stream, OnlineConfig::default(), 1e-4, 1e-4);
        assert_eq!(seqs, vec![iv(6, 9)]);
    }

    #[test]
    fn disjunction_of_actions() {
        // jumping OR kissing, with person present.
        let cnf = CnfQuery::new(vec![
            vec![
                Predicate::Action(ActionClass::named("jumping")),
                Predicate::Action(ActionClass::named("kissing")),
            ],
            vec![Predicate::Object(ObjectClass::named("person"))],
        ]);
        let oracle = oracle();
        let mut stream = VideoStream::new(&oracle);
        let seqs = ExprSvaqd::run(cnf, &mut stream, OnlineConfig::default(), 1e-4, 1e-4);
        assert_eq!(seqs, vec![iv(6, 9), iv(12, 13)]);
    }

    #[test]
    fn conjunction_of_multiple_actions() {
        // jumping AND kissing never co-occur here.
        let cnf = CnfQuery::new(vec![
            vec![Predicate::Action(ActionClass::named("jumping"))],
            vec![Predicate::Action(ActionClass::named("kissing"))],
        ]);
        let oracle = oracle();
        let mut stream = VideoStream::new(&oracle);
        let seqs = ExprSvaqd::run(cnf, &mut stream, OnlineConfig::default(), 1e-4, 1e-4);
        assert!(seqs.is_empty());
    }

    #[test]
    fn left_of_relationship_predicate() {
        // car (x ~0.05-0.25) is left of person (x ~0.6-0.9) on clips 4..=9.
        let cnf = CnfQuery::new(vec![vec![Predicate::LeftOf(
            ObjectClass::named("car"),
            ObjectClass::named("person"),
        )]]);
        let oracle = oracle();
        let mut stream = VideoStream::new(&oracle);
        let seqs = ExprSvaqd::run(cnf, &mut stream, OnlineConfig::default(), 1e-4, 1e-4);
        assert_eq!(seqs, vec![iv(4, 9)]);
        // The reverse relation never holds.
        let cnf = CnfQuery::new(vec![vec![Predicate::LeftOf(
            ObjectClass::named("person"),
            ObjectClass::named("car"),
        )]]);
        let oracle2 = self::tests::oracle();
        let mut stream = VideoStream::new(&oracle2);
        let seqs = ExprSvaqd::run(cnf, &mut stream, OnlineConfig::default(), 1e-4, 1e-4);
        assert!(seqs.is_empty());
    }

    #[test]
    fn duplicate_predicates_share_one_estimator() {
        let cnf = CnfQuery::new(vec![
            vec![Predicate::Object(ObjectClass::named("car"))],
            vec![
                Predicate::Object(ObjectClass::named("car")),
                Predicate::Action(ActionClass::named("jumping")),
            ],
        ]);
        assert_eq!(cnf.predicates().len(), 2);
    }

    #[test]
    #[should_panic(expected = "clauses must not be empty")]
    fn empty_clause_rejected() {
        CnfQuery::new(vec![vec![]]);
    }
}
