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
//! [`Predicate`]s. [`Svaqd`] runs it: one background estimator and critical
//! value per distinct predicate, and Algorithm 2's short-circuit over the
//! clauses — the same engine, with the same safeguards, as the canonical
//! query, which is just the CNF of singleton clauses.

use crate::online::Svaqd;
use svq_types::{ActionQuery, Predicate};

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

impl From<ActionQuery> for CnfQuery {
    /// The canonical conjunctive query as CNF: one singleton clause per
    /// object, then the action's.
    fn from(q: ActionQuery) -> Self {
        let mut clauses: Vec<Vec<Predicate>> = q
            .objects
            .iter()
            .map(|&o| vec![Predicate::Object(o)])
            .collect();
        clauses.push(vec![Predicate::Action(q.action)]);
        Self::new(clauses)
    }
}

/// The CNF engine's former name: [`Svaqd`] runs every [`CnfQuery`].
/// Kept only until the benchmark stops naming it (ROADMAP item 19).
pub type ExprSvaqd = Svaqd;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::OnlineConfig;
    use std::sync::Arc;
    use svq_types::{
        ActionClass, BBox, ClipId, ClipInterval, FrameId, Interval, ObjectClass, TrackId,
        VideoGeometry, VideoId,
    };
    use svq_vision::models::{DetectionOracle, ModelSuite, SceneConfusion};
    use svq_vision::truth::{ActionSpan, GroundTruth, ObjectTrack};
    use svq_vision::VideoStream;

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

    fn run(cnf: CnfQuery, stream: &mut VideoStream<'_>) -> Vec<ClipInterval> {
        Svaqd::run(cnf, stream, OnlineConfig::default(), 1e-4, 1e-4).sequences
    }

    fn iv(s: u64, e: u64) -> ClipInterval {
        Interval::new(ClipId::new(s), ClipId::new(e))
    }

    #[test]
    fn cnf_from_action_query_matches_svaqd_semantics() {
        let q = ActionQuery::named("jumping", &["car", "person"]);
        let cnf = CnfQuery::from(q);
        assert_eq!(cnf.clauses.len(), 3);
        let oracle = oracle();
        let mut stream = VideoStream::new(&oracle);
        let seqs = run(cnf, &mut stream);
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
        let seqs = run(cnf, &mut stream);
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
        let seqs = run(cnf, &mut stream);
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
        let seqs = run(cnf, &mut stream);
        assert_eq!(seqs, vec![iv(4, 9)]);
        // The reverse relation never holds.
        let cnf = CnfQuery::new(vec![vec![Predicate::LeftOf(
            ObjectClass::named("person"),
            ObjectClass::named("car"),
        )]]);
        let oracle2 = self::tests::oracle();
        let mut stream = VideoStream::new(&oracle2);
        let seqs = run(cnf, &mut stream);
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
