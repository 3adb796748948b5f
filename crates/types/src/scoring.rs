//! The scoring-function algebra of §4.1.
//!
//! RVAQ ranks result sequences through three user-supplied functions plus an
//! aggregation operator:
//!
//! * `h` — folds the raw model scores of one class inside one clip into a
//!   per-class clip score (`S_{o_i}^{(c)}`, Eq. 7; `S_{a_j}^{(c)}`, Eq. 8);
//! * `g` — folds the per-class clip scores into the clip's overall score
//!   `S_q^{(c)}` (Eq. 9); must be monotone in every argument;
//! * `f` — folds clip scores into a sequence score `S_q^{(z)}` (Eq. 10);
//!   must be monotone, must not increase on sub-sequences, and must
//!   decompose over a partition via the operator `⊙` (Eq. 11).
//!
//! [`ScoringFunctions`] captures exactly this contract. The fold-based
//! shape (`f_identity` / `f_combine` for `⊙`) guarantees Eq. 11 by
//! construction, and the RVAQ bound refinement (Eqs. 13-14) only ever needs
//! `⊙` plus [`ScoringFunctions::f_repeat`], the score of `n` hypothetical
//! copies of one clip.
//!
//! [`PaperScoring`] is the instantiation used in the paper's experiments
//! (§5): `h` = sum, `g` = action × Σ objects, `f` = sum with `⊙` = `+`.
//! [`MaxScoring`] (`f` = `⊙` = max) demonstrates that any conforming
//! algebra drops in.

/// User-pluggable scoring algebra for the offline engine.
pub trait ScoringFunctions: std::fmt::Debug {
    /// `h` for object classes: fold all tracked-detection scores of one
    /// class inside one clip.
    fn h_object(&self, scores: &[f64]) -> f64;

    /// `h` for action classes: fold all shot scores of one class inside one
    /// clip.
    fn h_action(&self, scores: &[f64]) -> f64;

    /// `g`: fold per-class clip scores into the clip score. Must be
    /// monotone non-decreasing in every argument.
    fn g(&self, object_scores: &[f64], action_score: f64) -> f64;

    /// The identity of `⊙` (the score of an empty sub-sequence).
    fn f_identity(&self) -> f64;

    /// `⊙`: combine the scores of two disjoint sub-sequences (Eq. 11).
    /// Folding clip scores with this operator from `f_identity` *is* `f`.
    fn f_combine(&self, a: f64, b: f64) -> f64;

    /// `f` applied to `n` copies of the same clip score — the bound
    /// arithmetic of Eqs. 13-14. The default folds `n` times; additive
    /// algebras override with `n × score`.
    fn f_repeat(&self, clip_score: f64, n: u64) -> f64 {
        let mut acc = self.f_identity();
        for _ in 0..n {
            acc = self.f_combine(acc, clip_score);
        }
        acc
    }

    /// `f` over a slice of clip scores.
    fn f(&self, clip_scores: &[f64]) -> f64 {
        clip_scores
            .iter()
            .fold(self.f_identity(), |acc, &s| self.f_combine(acc, s))
    }
}

/// The paper's §5 scoring functions: everything additive, `g` multiplicative.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PaperScoring;

impl ScoringFunctions for PaperScoring {
    fn h_object(&self, scores: &[f64]) -> f64 {
        scores.iter().sum()
    }

    fn h_action(&self, scores: &[f64]) -> f64 {
        scores.iter().sum()
    }

    #[inline]
    fn g(&self, object_scores: &[f64], action_score: f64) -> f64 {
        action_score * object_scores.iter().sum::<f64>()
    }

    #[inline]
    fn f_identity(&self) -> f64 {
        0.0
    }

    #[inline]
    fn f_combine(&self, a: f64, b: f64) -> f64 {
        a + b
    }

    #[inline]
    fn f_repeat(&self, clip_score: f64, n: u64) -> f64 {
        clip_score * n as f64
    }
}

/// A max-based algebra: a sequence is as good as its best clip.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaxScoring;

impl ScoringFunctions for MaxScoring {
    fn h_object(&self, scores: &[f64]) -> f64 {
        scores.iter().copied().fold(0.0, f64::max)
    }

    fn h_action(&self, scores: &[f64]) -> f64 {
        scores.iter().copied().fold(0.0, f64::max)
    }

    #[inline]
    fn g(&self, object_scores: &[f64], action_score: f64) -> f64 {
        action_score * object_scores.iter().copied().fold(0.0, f64::max)
    }

    #[inline]
    fn f_identity(&self) -> f64 {
        0.0
    }

    #[inline]
    fn f_combine(&self, a: f64, b: f64) -> f64 {
        a.max(b)
    }

    #[inline]
    fn f_repeat(&self, clip_score: f64, n: u64) -> f64 {
        if n == 0 {
            0.0
        } else {
            clip_score
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_contract<S: ScoringFunctions>(s: &S) {
        // ⊙ identity.
        assert_eq!(s.f_combine(s.f_identity(), 3.0), 3.0);
        // f via fold equals explicit slice f.
        let scores = [1.0, 2.0, 4.0];
        let folded = scores
            .iter()
            .fold(s.f_identity(), |acc, &x| s.f_combine(acc, x));
        assert_eq!(s.f(&scores), folded);
        // Eq. 11: partition decomposition.
        let left = s.f(&scores[..1]);
        let right = s.f(&scores[1..]);
        assert!((s.f_combine(left, right) - s.f(&scores)).abs() < 1e-12);
        // Sub-sequence never scores higher (scores are non-negative).
        assert!(s.f(&scores[..2]) <= s.f(&scores));
        // Monotonicity of f in a clip score.
        let bumped = [1.0, 2.5, 4.0];
        assert!(s.f(&bumped) >= s.f(&scores));
        // Monotonicity of g.
        assert!(s.g(&[1.0, 2.0], 0.9) >= s.g(&[1.0, 2.0], 0.5));
        assert!(s.g(&[1.5, 2.0], 0.5) >= s.g(&[1.0, 2.0], 0.5));
        // f_repeat consistency with fold-based default.
        let mut acc = s.f_identity();
        for _ in 0..5 {
            acc = s.f_combine(acc, 2.0);
        }
        assert!((s.f_repeat(2.0, 5) - acc).abs() < 1e-12);
        assert_eq!(s.f_repeat(2.0, 0), s.f_identity());
    }

    #[test]
    fn paper_scoring_satisfies_contract() {
        check_contract(&PaperScoring);
    }

    #[test]
    fn max_scoring_satisfies_contract() {
        check_contract(&MaxScoring);
    }

    #[test]
    fn paper_scoring_matches_section5_definitions() {
        let s = PaperScoring;
        // h: additive over raw scores.
        assert_eq!(s.h_object(&[0.5, 0.7, 0.9]), 2.1);
        assert_eq!(s.h_action(&[]), 0.0);
        // g: S_a * (Σ S_oi).
        assert_eq!(s.g(&[2.0, 3.0], 0.5), 2.5);
        // f: additive; repeat is n*s.
        assert_eq!(s.f(&[1.0, 2.0, 3.0]), 6.0);
        assert_eq!(s.f_repeat(1.5, 4), 6.0);
    }

    #[test]
    fn max_scoring_picks_best_clip() {
        let s = MaxScoring;
        assert_eq!(s.f(&[1.0, 5.0, 3.0]), 5.0);
        assert_eq!(s.f_repeat(2.0, 100), 2.0);
        assert_eq!(s.h_object(&[0.2, 0.9, 0.4]), 0.9);
    }
}
