//! Inference cost accounting.
//!
//! The paper reports that online query latency is dominated (>98 %) by
//! model inference (§5.2, "Runtime Superiority"). Our substrate replaces
//! GPU inference with table lookups, so wall-clock alone would misrepresent
//! the paper's cost structure. [`CostModel`] attaches the per-invocation
//! simulated costs of the profiled models, and [`CostLedger`] accumulates
//! them alongside real algorithm wall-clock, letting the runtime experiment
//! reproduce the decomposition.
//!
//! A clip's units are charged in one step ([`CostLedger::charge_object_frames`],
//! [`CostLedger::charge_action_shots`]), and the result is bit for bit the
//! ledger `n` one-unit charges leave, for every [`CostModel`]: the step is
//! one multiply-add only when that is exact, and the per-unit loop
//! otherwise (see [`add_units`]).

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Per-invocation simulated inference costs, milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Object detector + tracker, per frame.
    pub object_ms_per_frame: f64,
    /// Action recognizer, per shot.
    pub action_ms_per_shot: f64,
}

impl CostModel {
    /// Derive the cost model from a model suite.
    pub fn from_suite(suite: &crate::models::ModelSuite) -> Self {
        Self {
            object_ms_per_frame: suite.detector.ms_per_frame + suite.tracker.ms_per_frame,
            action_ms_per_shot: suite.recognizer.ms_per_shot,
        }
    }
}

/// Accumulated cost of one query execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CostLedger {
    /// Frames sent through the object detector.
    pub object_frames: u64,
    /// Shots sent through the action recognizer.
    pub action_shots: u64,
    /// Simulated object-detection milliseconds.
    pub object_ms: f64,
    /// Simulated action-recognition milliseconds.
    pub action_ms: f64,
    /// Real wall-clock spent in the query algorithm itself, milliseconds.
    pub algorithm_ms: f64,
}

impl CostLedger {
    /// Charge an object-detection pass over one frame.
    pub fn charge_object_frame(&mut self, model: &CostModel) {
        self.object_frames += 1;
        self.object_ms += model.object_ms_per_frame;
    }

    /// Charge an action-recognition pass over one shot.
    pub fn charge_action_shot(&mut self, model: &CostModel) {
        self.action_shots += 1;
        self.action_ms += model.action_ms_per_shot;
    }

    /// Charge object-detection passes over `n` frames: the ledger `n`
    /// calls of [`CostLedger::charge_object_frame`] leave, bit for bit.
    pub fn charge_object_frames(&mut self, model: &CostModel, n: u64) {
        self.object_frames += n;
        self.object_ms = add_units(self.object_ms, model.object_ms_per_frame, n);
    }

    /// Charge action-recognition passes over `n` shots: the ledger `n`
    /// calls of [`CostLedger::charge_action_shot`] leave, bit for bit.
    pub fn charge_action_shots(&mut self, model: &CostModel, n: u64) {
        self.action_shots += n;
        self.action_ms = add_units(self.action_ms, model.action_ms_per_shot, n);
    }

    /// Record algorithm wall-clock.
    pub fn charge_algorithm(&mut self, elapsed: Duration) {
        self.algorithm_ms += elapsed.as_secs_f64() * 1e3;
    }

    /// Total simulated inference milliseconds.
    pub fn inference_ms(&self) -> f64 {
        self.object_ms + self.action_ms
    }

    /// End-to-end milliseconds (inference + algorithm).
    pub fn total_ms(&self) -> f64 {
        self.inference_ms() + self.algorithm_ms
    }

    /// Fraction of end-to-end time spent on inference — the paper's
    /// ">98 %" figure for the online case.
    pub fn inference_fraction(&self) -> f64 {
        let total = self.total_ms();
        if total <= 0.0 {
            0.0
        } else {
            self.inference_ms() / total
        }
    }

    /// Merge another ledger into this one.
    pub fn merge(&mut self, other: &CostLedger) {
        self.object_frames += other.object_frames;
        self.action_shots += other.action_shots;
        self.object_ms += other.object_ms;
        self.action_ms += other.action_ms;
        self.algorithm_ms += other.algorithm_ms;
    }
}

/// 2^53: every integer of at most this magnitude is an `f64`.
const EXACT_INTEGERS: f64 = 9_007_199_254_740_992.0;

/// `sum` after `n` repeated `sum += unit`, bit for bit.
///
/// One multiply-add when every partial sum is an integer of at most 2^53 in
/// magnitude, which holds for every profile's integral millisecond costs:
/// each repeated add is then exact, and so are the product and the sum.
/// The partial sums run monotonically from `sum` to the total, so bounding
/// the two ends bounds them all; rounding is monotone too, so a computed
/// product or total below 2^53 means the exact one is. A zero total takes
/// the same sign both ways (`-0.0` only when `sum` and `unit` are both
/// `-0.0`). Any other model, a fractional cost say, takes the loop; `n = 0`
/// returns `sum` untouched, sign included.
fn add_units(sum: f64, unit: f64, n: u64) -> f64 {
    if n == 0 {
        return sum;
    }
    // An integer of at most 2^53 in magnitude survives the round trip
    // through `i64` exactly; a fraction, a larger magnitude or a non-finite
    // value fails the bound or the round trip. (Casts, not `fract`, which
    // is a libm call on baseline x86-64.)
    let integral = |x: f64| x.abs() <= EXACT_INTEGERS && (x as i64) as f64 == x;
    let step = n as f64 * unit;
    let total = sum + step;
    let exact = integral(unit)
        && integral(sum)
        && step.abs() < EXACT_INTEGERS
        && total.abs() < EXACT_INTEGERS;
    if exact {
        return total;
    }
    let mut sum = sum;
    for _ in 0..n {
        sum += unit;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelSuite;

    #[test]
    fn charges_accumulate() {
        let model = CostModel {
            object_ms_per_frame: 75.0,
            action_ms_per_shot: 140.0,
        };
        let mut ledger = CostLedger::default();
        for _ in 0..100 {
            ledger.charge_object_frame(&model);
        }
        for _ in 0..10 {
            ledger.charge_action_shot(&model);
        }
        ledger.charge_algorithm(Duration::from_millis(20));
        assert_eq!(ledger.object_frames, 100);
        assert_eq!(ledger.action_shots, 10);
        assert!((ledger.object_ms - 7_500.0).abs() < 1e-9);
        assert!((ledger.action_ms - 1_400.0).abs() < 1e-9);
        assert!((ledger.total_ms() - 8_920.0).abs() < 1e-6);
        assert!(ledger.inference_fraction() > 0.99);
    }

    #[test]
    fn from_suite_includes_tracker() {
        let m = CostModel::from_suite(&ModelSuite::accurate());
        assert!((m.object_ms_per_frame - 93.0).abs() < 1e-9); // 75 + 18
        assert!((m.action_ms_per_shot - 140.0).abs() < 1e-9);
        let ideal = CostModel::from_suite(&ModelSuite::ideal());
        assert_eq!(ideal.object_ms_per_frame, 0.0);
    }

    #[test]
    fn merge_sums_fields() {
        let model = CostModel {
            object_ms_per_frame: 1.0,
            action_ms_per_shot: 2.0,
        };
        let mut a = CostLedger::default();
        a.charge_object_frame(&model);
        let mut b = CostLedger::default();
        b.charge_action_shot(&model);
        a.merge(&b);
        assert_eq!(a.object_frames, 1);
        assert_eq!(a.action_shots, 1);
        assert!((a.inference_ms() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn one_step_charges_take_the_loop_when_the_product_is_not_exact() {
        let per_unit = |sum: f64, unit: f64, n: u64| (0..n).fold(sum, |s, _| s + unit);
        for (sum, unit, n) in [
            (0.0, 93.0, 50),
            (-0.0, -0.0, 3),
            (-0.0, 0.0, 3),
            (-0.0, 7.0, 0),
            (0.1, 93.0, 50),
            (0.0, 0.1, 50),
            (EXACT_INTEGERS - 2.0, 1.0, 4),
            (EXACT_INTEGERS, -1.0, 3),
            (-5.0, 1.0, 5),
            (1e300, 1e300, 4),
        ] {
            assert_eq!(
                add_units(sum, unit, n).to_bits(),
                per_unit(sum, unit, n).to_bits(),
                "{sum:e} + {n} x {unit:e}"
            );
        }
    }
}
