//! Adaptive predicate ordering — the footnote 5 future work.
//!
//! Algorithm 2 evaluates predicates sequentially and short-circuits on the
//! first negative, so the *order* matters operationally: evaluating the
//! most selective predicate first minimises the expected number of
//! predicate evaluations per clip (and, in deployments where predicates
//! bind to separate specialised models, the inference those evaluations
//! trigger). The paper leaves the order "based on user expertise";
//! [`SelectivityOrderer`] learns it instead, tracking each frame-only
//! clause's (for a canonical query: each object predicate's) observed pass
//! rate with exponential decay and proposing the ascending-pass-rate order.
//!
//! The expected evaluation count under independence is
//! `1 + p_(1) + p_(1)p_(2) + …` for pass rates in evaluation order —
//! minimised by sorting ascending, the classic result for short-circuit
//! conjunctions.

/// Exponentially decayed pass-rate tracker proposing an evaluation order.
#[derive(Debug, Clone)]
pub struct SelectivityOrderer {
    /// Decayed pass mass per predicate.
    passes: Vec<f64>,
    /// Decayed evaluation mass per predicate.
    evals: Vec<f64>,
    /// Per-observation decay (memory of ~1/(1-decay) clips).
    decay: f64,
    /// Current proposed order (indices into the original predicate list).
    order: Vec<usize>,
    /// Re-sort cadence, in observations.
    refresh_every: u32,
    seen: u32,
}

impl SelectivityOrderer {
    /// Track `n` predicates with a memory of roughly 200 clips.
    pub fn new(n: usize) -> Self {
        Self {
            passes: vec![0.0; n],
            evals: vec![0.0; n],
            decay: 1.0 - 1.0 / 200.0,
            order: (0..n).collect(),
            refresh_every: 10,
            seen: 0,
        }
    }

    /// The current evaluation order (most selective predicate first).
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Estimated pass rate of predicate `i` (0.5 before any evidence — the
    /// uninformative prior under which the original order is kept).
    pub fn pass_rate(&self, i: usize) -> f64 {
        if self.evals[i] <= 0.0 {
            0.5
        } else {
            self.passes[i] / self.evals[i]
        }
    }

    /// Record one clip's outcomes: `results[i] = Some(passed)` for
    /// evaluated predicates, `None` where evaluation short-circuited.
    pub fn record(&mut self, results: &[Option<bool>]) {
        debug_assert_eq!(results.len(), self.passes.len());
        for (i, r) in results.iter().enumerate() {
            self.passes[i] *= self.decay;
            self.evals[i] *= self.decay;
            if let Some(passed) = r {
                self.evals[i] += 1.0;
                self.passes[i] += *passed as u32 as f64;
            }
        }
        self.seen += 1;
        if self.seen.is_multiple_of(self.refresh_every) {
            self.refresh();
        }
    }

    /// Re-sort the proposed order by pass rate ascending (stable, so ties
    /// keep the user's order — their expertise remains the tiebreak).
    fn refresh(&mut self) {
        let rates: Vec<f64> = (0..self.passes.len()).map(|i| self.pass_rate(i)).collect();
        self.order.sort_by(|&a, &b| rates[a].total_cmp(&rates[b]));
    }

    /// Expected predicate evaluations per clip under the current order and
    /// estimated rates (the quantity the ordering minimises).
    pub fn expected_evaluations(&self) -> f64 {
        let mut total = 0.0;
        let mut reach = 1.0;
        for &i in &self.order {
            total += reach;
            reach *= self.pass_rate(i);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_to_put_selective_predicate_first() {
        let mut orderer = SelectivityOrderer::new(3);
        assert_eq!(orderer.order(), &[0, 1, 2]);
        // Predicate 2 almost never passes; 0 always; 1 half the time.
        for i in 0..200u32 {
            orderer.record(&[Some(true), Some(i % 2 == 0), Some(i % 50 == 0)]);
        }
        assert_eq!(orderer.order(), &[2, 1, 0]);
        assert!(orderer.pass_rate(2) < 0.1);
        assert!(orderer.pass_rate(0) > 0.9);
    }

    #[test]
    fn short_circuited_predicates_keep_their_estimates() {
        let mut orderer = SelectivityOrderer::new(2);
        for _ in 0..50 {
            orderer.record(&[Some(false), None]); // predicate 1 never seen
        }
        assert!((orderer.pass_rate(1) - 0.5).abs() < 1e-9); // prior retained
        assert!(orderer.pass_rate(0) < 0.05);
        assert_eq!(orderer.order(), &[0, 1]);
    }

    #[test]
    fn expected_evaluations_shrink_with_better_order() {
        let mut learned = SelectivityOrderer::new(2);
        for _ in 0..100 {
            learned.record(&[Some(true), Some(false)]);
        }
        // Learned order evaluates the failing predicate first: ~1 eval.
        assert!(learned.expected_evaluations() < 1.2);
        // The naive order would pay 1 + p0 ≈ 2.
        let mut naive = SelectivityOrderer::new(2);
        for _ in 0..100 {
            naive.record(&[Some(true), Some(false)]);
        }
        naive.order = vec![0, 1];
        assert!(naive.expected_evaluations() > 1.8);
    }

    #[test]
    fn adapts_when_selectivities_drift() {
        let mut orderer = SelectivityOrderer::new(2);
        for _ in 0..300 {
            orderer.record(&[Some(false), Some(true)]);
        }
        assert_eq!(orderer.order(), &[0, 1]);
        // Drift: predicate 0 becomes common, 1 becomes rare.
        for _ in 0..600 {
            orderer.record(&[Some(true), Some(false)]);
        }
        assert_eq!(orderer.order(), &[1, 0]);
    }
}
