//! Clip indicator evaluation — Algorithm 2 over a CNF query.
//!
//! For each predicate, count the clip's occurrence units with a positive
//! thresholded prediction — frames for objects and relationships
//! (`Σ 𝟙_{o_i}^{(v)}`, Eq. 1), shots for actions (Eq. 2) — and compare the
//! count against the predicate's critical value. A clause holds when one of
//! its predicates does; the clip holds when every clause does (Eq. 3, and
//! footnotes 2–4 for the extended predicates).
//!
//! Evaluation short-circuits (Algorithm 2 lines 6-8): clauses that read only
//! frames go first, and the first one that fails skips every remaining
//! predicate — in particular the action recognizer, which is where the
//! online algorithms save model cost. Within a clause the first predicate
//! that holds ends the clause. The clip's frames and shots are each charged
//! at most once.

use super::config::OnlineConfig;
use super::ordering::SelectivityOrderer;
use crate::expr::CnfQuery;
use svq_types::{ClipId, ObjectClass, Predicate, TrackedDetection};
use svq_vision::stream::ClipAccess;
use svq_vision::Rows;

/// The trace of one clip's evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct ClipEvaluation {
    pub clip: ClipId,
    /// `𝟙_q^(c)` — Eq. 3.
    pub positive: bool,
    /// Positive-unit count per distinct predicate, in the engine's
    /// predicate order; `None` where evaluation short-circuited before
    /// reaching the predicate.
    pub counts: Vec<Option<u32>>,
    /// Critical values used for this clip, matching `counts` positionally
    /// (SVAQD varies them over time).
    pub criticals: Vec<u32>,
}

/// Index of a predicate's occurrence unit: `0` for frames, `1` for shots.
pub(crate) fn unit(p: &Predicate) -> usize {
    usize::from(matches!(p, Predicate::Action(_)))
}

/// A [`CnfQuery`] compiled for Algorithm 2: distinct predicates, and each
/// clause as indices into them, split by the units the clause reads.
#[derive(Debug, Clone)]
pub(crate) struct Clauses {
    /// Distinct predicates, in first-appearance order.
    pub(crate) predicates: Vec<Predicate>,
    /// Clauses over frames only, in query order — the ones footnote 5
    /// reorders.
    pub(crate) frame: Vec<Vec<usize>>,
    /// Clauses holding an action predicate, in query order.
    rest: Vec<Vec<usize>>,
    /// Whether any predicate reads frames.
    reads_frames: bool,
}

impl Clauses {
    /// Compile `query`. A predicate repeated inside a clause, or a clause
    /// repeated in the query, is kept once: neither changes the indicator.
    pub(crate) fn new(query: &CnfQuery) -> Self {
        let predicates = query.predicates();
        let (mut frame, mut rest) = (Vec::new(), Vec::new());
        for clause in &query.clauses {
            let mut indices: Vec<usize> = Vec::with_capacity(clause.len());
            for p in clause {
                let i = predicates
                    .iter()
                    .position(|q| q == p)
                    .expect("predicates() lists every clause predicate");
                if !indices.contains(&i) {
                    indices.push(i);
                }
            }
            let side = if indices.iter().all(|&i| unit(&predicates[i]) == 0) {
                &mut frame
            } else {
                &mut rest
            };
            if !side.contains(&indices) {
                side.push(indices);
            }
        }
        Self {
            reads_frames: predicates.iter().any(|p| unit(p) == 0),
            predicates,
            frame,
            rest,
        }
    }

    /// Evaluate Algorithm 2 on one clip against `criticals` (one per
    /// distinct predicate). With an `orderer`, frame-only clauses run in its
    /// learned order and their outcomes are recorded into it.
    pub(crate) fn evaluate<C: ClipAccess>(
        &self,
        view: &mut C,
        criticals: Vec<u32>,
        config: &OnlineConfig,
        orderer: Option<&mut SelectivityOrderer>,
    ) -> ClipEvaluation {
        let mut counts = vec![None; self.predicates.len()];
        let positive = self.indicate(view, &criticals, config, orderer, &mut counts);
        ClipEvaluation {
            clip: view.clip(),
            positive,
            counts,
            criticals,
        }
    }

    fn indicate<C: ClipAccess>(
        &self,
        view: &mut C,
        criticals: &[u32],
        config: &OnlineConfig,
        orderer: Option<&mut SelectivityOrderer>,
        counts: &mut [Option<u32>],
    ) -> bool {
        if self.reads_frames {
            // One detector pass yields every frame predicate's count.
            let frames = view.frames();
            let mut holds = |i: usize| {
                let count = *counts[i].get_or_insert_with(|| match self.predicates[i] {
                    Predicate::Object(class) => frames.count(class, config.t_obj),
                    Predicate::LeftOf(left, right) => {
                        count_left_of(frames.rows(), left, right, config.t_obj)
                    }
                    Predicate::Action(_) => unreachable!("actions read shots"),
                });
                count >= criticals[i]
            };
            let held = match orderer {
                None => self.frame.iter().all(|c| c.iter().any(|&i| holds(i))),
                Some(orderer) => {
                    let mut outcomes = vec![None; self.frame.len()];
                    let held = orderer.order().iter().all(|&j| {
                        let held = self.frame[j].iter().any(|&i| holds(i));
                        outcomes[j] = Some(held);
                        held
                    });
                    orderer.record(&outcomes);
                    held
                }
            };
            if !held {
                return false;
            }
            // A clause mixing units tries its frame predicates first: the
            // detector pass is already paid for.
            for clause in &self.rest {
                let _ = clause
                    .iter()
                    .any(|&i| unit(&self.predicates[i]) == 0 && holds(i));
            }
        }
        let satisfied = |counts: &[Option<u32>], clause: &[usize]| {
            clause
                .iter()
                .any(|&i| counts[i].is_some_and(|c| c >= criticals[i]))
        };
        if self.rest.iter().all(|clause| satisfied(counts, clause)) {
            return true;
        }
        let shots = view.shots();
        self.rest.iter().all(|clause| {
            satisfied(counts, clause)
                || clause.iter().any(|&i| match self.predicates[i] {
                    Predicate::Action(class) => {
                        let count =
                            *counts[i].get_or_insert_with(|| shots.count(class, config.t_act));
                        count >= criticals[i]
                    }
                    _ => false,
                })
        })
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
