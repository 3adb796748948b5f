//! Per-sequence score bounds — Eqs. 13-14.
//!
//! For each result sequence RVAQ tracks the clips whose exact scores are
//! already known (delivered by either side of the TBClip iterator) and
//! bounds the rest:
//!
//! ```text
//! B_up = f(S(c_top), …, S(c_top))  ⊙  S_known     (`remaining` copies — Eq. 13)
//! B_lo = f(S(c_btm), …, S(c_btm))  ⊙  S_known     (`remaining` copies — Eq. 14)
//! ```
//!
//! The iterator delivers top clips in non-increasing and bottom clips in
//! non-decreasing score order, so every still-unprocessed clip's score lies
//! in `[S(c_btm), S(c_top)]`; with `f` monotone the expressions above bound
//! the exact sequence score from both sides.
//!
//! *Deviation from the listing, for tightness:* Algorithm 4 books top- and
//! bottom-processed clips separately (`L_up`/`S_up` vs `L_lo`/`S_lo`). A
//! clip delivered by one side has a fully *known* score, which is valid —
//! and tighter — inside both bounds; it also removes the corner case of a
//! clip delivered by both sides being double-counted. We therefore keep a
//! single `remaining`/`s_known` pair (the caller guarantees each clip is
//! absorbed once). Both bounds remain exactly Eqs. 13-14 with
//! `L_up = L_lo = remaining`.

use svq_types::{ClipInterval, ScoringFunctions};

/// Bound state of one result sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct SequenceBounds {
    /// The sequence `(c_l, c_r)`.
    pub interval: ClipInterval,
    /// Clips whose exact scores are not yet known.
    pub remaining: u64,
    /// `f`-aggregate of the known clip scores.
    pub s_known: f64,
    /// Current bounds.
    pub b_up: f64,
    pub b_lo: f64,
    /// Conclusively inside / outside the top-K.
    pub resolved_in: bool,
    pub resolved_out: bool,
}

impl SequenceBounds {
    /// Fresh bounds for a sequence (Algorithm 4 lines 5-6).
    pub fn new<S: ScoringFunctions + ?Sized>(interval: ClipInterval, scoring: &S) -> Self {
        Self {
            interval,
            remaining: interval.len(),
            s_known: scoring.f_identity(),
            b_up: f64::INFINITY,
            b_lo: 0.0,
            resolved_in: false,
            resolved_out: false,
        }
    }

    /// Whether the sequence still participates in bound refinement.
    pub fn active(&self) -> bool {
        !self.resolved_in && !self.resolved_out
    }

    /// Absorb a clip whose exact score became known.
    pub fn absorb<S: ScoringFunctions + ?Sized>(&mut self, score: f64, scoring: &S) {
        debug_assert!(
            self.remaining > 0,
            "absorbed more clips than the sequence holds"
        );
        self.remaining -= 1;
        self.s_known = scoring.f_combine(self.s_known, score);
    }

    /// Re-estimate the upper bound against the current `c_top` score
    /// (Eq. 13). Pass `0.0` once the top side is exhausted (then
    /// `remaining == 0` for active sequences and the bound is exact).
    pub fn refresh_upper<S: ScoringFunctions + ?Sized>(&mut self, top_score: f64, scoring: &S) {
        self.b_up = scoring.f_combine(scoring.f_repeat(top_score, self.remaining), self.s_known);
    }

    /// Re-estimate the lower bound against the current `c_btm` score
    /// (Eq. 14).
    pub fn refresh_lower<S: ScoringFunctions + ?Sized>(&mut self, btm_score: f64, scoring: &S) {
        self.b_lo = scoring.f_combine(scoring.f_repeat(btm_score, self.remaining), self.s_known);
    }

    /// The exact score, once every clip is known.
    pub fn exact(&self) -> Option<f64> {
        (self.remaining == 0).then_some(self.s_known)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svq_types::{ClipId, Interval, MaxScoring, PaperScoring};

    fn iv(s: u64, e: u64) -> ClipInterval {
        Interval::new(ClipId::new(s), ClipId::new(e))
    }

    #[test]
    fn initial_state() {
        let b = SequenceBounds::new(iv(2, 5), &PaperScoring);
        assert_eq!(b.remaining, 4);
        assert_eq!(b.b_up, f64::INFINITY);
        assert_eq!(b.b_lo, 0.0);
        assert!(b.active());
        assert!(b.exact().is_none());
    }

    #[test]
    fn bounds_tighten_and_converge_additive() {
        // Sequence of 3 clips with true scores [5, 3, 2]; exact f = 10.
        let s = PaperScoring;
        let mut b = SequenceBounds::new(iv(0, 2), &s);

        // Iterator delivers top=5 (ours) and bottom=2 (ours).
        b.absorb(5.0, &s);
        b.absorb(2.0, &s);
        b.refresh_upper(5.0, &s); // 1 unknown clip ≤ 5: B_up = 5 + 7 = 12
        b.refresh_lower(2.0, &s); // 1 unknown clip ≥ 2: B_lo = 2 + 7 = 9
        assert_eq!(b.b_up, 12.0);
        assert_eq!(b.b_lo, 9.0);
        assert!(b.exact().is_none());

        // Last clip (3) arrives.
        b.absorb(3.0, &s);
        b.refresh_upper(3.0, &s);
        b.refresh_lower(3.0, &s);
        assert_eq!(b.b_up, 10.0);
        assert_eq!(b.b_lo, 10.0);
        assert_eq!(b.exact(), Some(10.0));
    }

    #[test]
    fn bounds_always_bracket_the_exact_score() {
        // Property: at every refinement step, b_lo <= exact <= b_up, for
        // both scoring algebras, under the true delivery order.
        for scoring in [&PaperScoring as &dyn ScoringFunctions, &MaxScoring] {
            let clip_scores = [7.0, 1.0, 4.0, 4.0, 9.0];
            let exact = scoring.f(&clip_scores);
            let mut desc = clip_scores.to_vec();
            desc.sort_by(|a, b| b.partial_cmp(a).unwrap());
            let mut asc = desc.clone();
            asc.reverse();
            let mut b = SequenceBounds::new(iv(0, 4), scoring);
            let mut known = std::collections::HashSet::new();
            for i in 0..clip_scores.len() {
                // Top delivers desc[i], bottom delivers asc[i]; absorb each
                // value once (they collide mid-way).
                for (idx, v) in [(i, desc[i]), (clip_scores.len() - 1 - i, asc[i])] {
                    let _ = v;
                    if known.insert(idx) {
                        b.absorb(desc[idx], scoring);
                    }
                }
                b.refresh_upper(desc[i], scoring);
                b.refresh_lower(asc[i], scoring);
                assert!(
                    b.b_up + 1e-9 >= exact && b.b_lo <= exact + 1e-9,
                    "step {i}: [{}, {}] misses {exact}",
                    b.b_lo,
                    b.b_up
                );
            }
            assert_eq!(b.exact(), Some(exact));
        }
    }
}
