//! Dynamic background-probability estimation (SVAQD, §3.3).
//!
//! SVAQD replaces the a-priori background probability `p0` with a running
//! estimate `p̂(t)` computed from the event stream itself: an exponential
//! kernel smooths past events, and Diggle edge correction removes the bias
//! near the start of the stream (the paper's Eq. 6).
//!
//! With discrete occurrence units and kernel `K(Δ) = exp(−Δ/u)` the
//! edge-corrected estimator has a closed incremental form. Maintain two
//! exponentially decayed masses,
//!
//! ```text
//! E(t) = Σ_{event OUs n ≤ t}  exp(−(t − t_n)/u)      (event mass)
//! A(t) = Σ_{all OUs j ≤ t}    exp(−(t − t_j)/u)      (occurrence mass)
//! ```
//!
//! and estimate `p̂(t) = E(t) / A(t)`. `A(t)` is the geometric series
//! `(1 − e^{−t/u}) / (1 − e^{−1/u})`, so dividing by it is precisely the
//! paper's edge-correction factor `(1 − e^{−1/u}) / (1 − e^{−t/u})` applied
//! to the normalised kernel sum; advancing time by `Δt` multiplies both
//! masses by `e^{−Δt/u}`, which is the paper's update `p̂(t+Δt) =
//! e^{−Δt/u} p̂(t)` before re-normalisation. The estimator is unbiased for
//! a constant background and tracks sudden changes within `O(u)` OUs while
//! smoothing gradual drift — the behaviour Figure 2 relies on.
//!
//! Because the update is multiplicative, a whole clip's run of OUs advances
//! in one closed-form step ([`KernelEstimator::observe_run`]) whose cost
//! grows with the run's events, not its length.

use serde::{Deserialize, Serialize};

/// Exponential-kernel background-probability estimator with edge correction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelEstimator {
    /// Kernel bandwidth `u`, in occurrence units.
    bandwidth: f64,
    /// Per-OU decay factor `γ = exp(−1/u)`.
    decay: f64,
    /// Decayed event mass `E(t)`.
    event_mass: f64,
    /// Decayed occurrence mass `A(t)`.
    occurrence_mass: f64,
    /// Total OUs observed.
    observed: u64,
    /// Total events observed (the paper's `N*`).
    events: u64,
    /// Prior estimate returned before any OU is observed, blended in with
    /// pseudo-count weight [`Self::prior_strength`] so it fades quickly as
    /// evidence arrives.
    prior: f64,
    /// Pseudo-count weight of the prior, in occurrence units.
    prior_strength: f64,
    /// Remaining prior mass: the prior acts as `prior_strength` virtual
    /// occurrence units observed just before the stream began, decaying
    /// under the kernel exactly like real observations.
    prior_mass: f64,
    /// Floor/ceiling keeping downstream critical-value searches well-posed.
    clamp: (f64, f64),
}

impl KernelEstimator {
    /// Default clamp range for estimated probabilities.
    pub const DEFAULT_CLAMP: (f64, f64) = (1e-6, 0.9);

    /// Create an estimator with bandwidth `u` (occurrence units) and an
    /// initial prior `p0` (the paper's `p_obj_0` / `p_act_0`).
    pub fn new(bandwidth: f64, prior: f64) -> Self {
        assert!(bandwidth >= 1.0, "bandwidth must be at least one OU");
        assert!((0.0..=1.0).contains(&prior), "prior must lie in [0,1]");
        Self {
            bandwidth,
            decay: (-1.0 / bandwidth).exp(),
            event_mass: 0.0,
            occurrence_mass: 0.0,
            observed: 0,
            events: 0,
            prior,
            prior_strength: 100.0,
            prior_mass: 100.0,
            clamp: Self::DEFAULT_CLAMP,
        }
    }

    /// Override the prior pseudo-count (occurrence units of evidence at
    /// which the prior and the data weigh equally).
    pub fn with_prior_strength(mut self, strength: f64) -> Self {
        assert!(strength >= 0.0);
        self.prior_strength = strength;
        self.prior_mass = strength;
        self
    }

    /// Observe one occurrence unit; `event` is whether the unit carried a
    /// positive prediction.
    pub fn observe(&mut self, event: bool) {
        self.event_mass = self.event_mass * self.decay + if event { 1.0 } else { 0.0 };
        self.occurrence_mass = self.occurrence_mass * self.decay + 1.0;
        self.prior_mass *= self.decay;
        self.observed += 1;
        self.events += event as u64;
    }

    /// Observe a run of `units` occurrence units of which `events` were
    /// positive, in one closed-form step equal to `units` calls of
    /// [`observe`](Self::observe). The `e = min(events, units)` events fire
    /// at the evenly spread positions `j` where `⌊(j+1)e/u⌋ > ⌊je/u⌋`
    /// (`u = units`); with `γ = exp(−1/bandwidth)`:
    ///
    /// ```text
    /// E ← E·γᵘ + Σ_fired γ^(u−1−j)
    /// A ← A·γᵘ + (1 − γᵘ)/(1 − γ)
    /// prior_mass ← prior_mass·γᵘ
    /// ```
    ///
    /// `γᵘ` and the geometric sum `Σ_{k<u} γᵏ` come from `geometric` in
    /// `O(log u)` multiply-adds, with no cancellation near `γ ≈ 1` and the
    /// same rounded `γ` as `observe`. The fired units' sum is a Horner pass
    /// over the fire gaps, which are `⌊u/e⌋` or `⌈u/e⌉` units: `O(e)`
    /// multiply-adds. A run therefore costs `O(log u + e)`, not `O(u)`;
    /// `units == 0` is a no-op. The estimate stays within 1e-12 of the
    /// per-unit recurrence computed exactly, closer than a loop of
    /// `observe` calls, which rounds up to `~ε·bandwidth` away from it near
    /// its fixed point.
    ///
    /// A mass that decays below `f64::MIN_POSITIVE` is flushed to zero.
    /// Left alone it would sink into the subnormals, where `x·γ` rounds back
    /// to `x` forever and every later step runs on slow subnormal
    /// arithmetic (a quiet predicate's event mass, or the prior's after
    /// some 713 bandwidths). The estimate cannot tell: such a mass is below
    /// the clamp floor's resolution against `A ≥ 1`.
    pub fn observe_run(&mut self, units: u64, events: u64) {
        if units == 0 {
            return;
        }
        let events = events.min(units);
        let (decay_run, unit_mass) = geometric(self.decay, units);
        let fired_mass = match units.checked_div(events) {
            None => 0.0,
            // Fire `k` ends unit `⌈k·u/e⌉`: `q = ⌊u/e⌋` units after the
            // previous one, plus one whenever `⌈k·r/e⌉` steps up
            // (`r = u mod e`). `slack = ⌈k·r/e⌉·e − k·r` tracks the steps
            // without a product. The sum starts empty, so the first gap
            // decays nothing, and the last fire ends the run.
            Some(q) => {
                let r = units % events;
                let short = geometric(self.decay, q).0;
                let long = short * self.decay;
                let mut slack = 0;
                let mut mass = 0.0;
                for _ in 0..events {
                    let gap = if slack < r {
                        slack += events - r;
                        long
                    } else {
                        slack -= r;
                        short
                    };
                    mass = mass * gap + 1.0;
                }
                mass
            }
        };
        self.event_mass = flush(self.event_mass * decay_run + fired_mass);
        self.occurrence_mass = flush(self.occurrence_mass * decay_run + unit_mass);
        self.prior_mass = flush(self.prior_mass * decay_run);
        self.observed += units;
        self.events += events;
    }

    /// The current edge-corrected estimate `p̂(t)`.
    ///
    /// The prior enters as a pseudo-count of [`prior_strength`] occurrence
    /// units: `p̂ = (E + n₀·p₀) / (A + n₀)`. A cold-started stream returns
    /// `p₀`; once a few hundred OUs are seen the data dominate, so a wildly
    /// wrong `p₀` (Figure 2's sweep spans five orders of magnitude) washes
    /// out within a handful of clips.
    ///
    /// [`prior_strength`]: Self::with_prior_strength
    pub fn estimate(&self) -> f64 {
        let blended = (self.event_mass + self.prior_mass * self.prior)
            / (self.occurrence_mass + self.prior_mass).max(1e-12);
        blended.clamp(self.clamp.0, self.clamp.1)
    }

    /// Maximum-likelihood estimate over the whole stream (`N*/N`), ignoring
    /// the kernel — exposed for diagnostics and tests.
    pub fn global_rate(&self) -> f64 {
        if self.observed == 0 {
            self.prior
        } else {
            self.events as f64 / self.observed as f64
        }
    }

    /// Total occurrence units observed.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Total events observed (the paper's `N*`).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Kernel bandwidth `u`.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }
}

/// `(γⁿ, Σ_{k<n} γᵏ)` by binary powering over `n`'s bits: doubling takes
/// `S_{2m} = S_m·(1 + γᵐ)`, a set bit `S_{m+1} = S_m·γ + 1`. Every step
/// multiplies and adds non-negative terms, so nothing cancels.
///
/// Squaring doubles a power's relative error, so the squared `γⁿ` is off by
/// up to `~n·ε/2`, and a run's decay error is amplified `~bandwidth/n`-fold
/// in the masses' fixed point. Near 1 the power is therefore taken as
/// `1 − (1 − γ)·S_n` instead: `1 − γ` is exact for `γ ≥ ½`, the
/// subtraction is exact above ½, and the sum's error then reaches the
/// power scaled down by `1 − γⁿ`.
fn geometric(decay: f64, n: u64) -> (f64, f64) {
    let (mut power, mut sum) = (1.0, 0.0);
    for bit in (0..u64::BITS - n.leading_zeros()).rev() {
        sum += sum * power;
        power *= power;
        if (n >> bit) & 1 == 1 {
            sum = sum * decay + 1.0;
            power *= decay;
        }
    }
    let decayed = (1.0 - decay) * sum;
    if decayed < 0.5 {
        power = 1.0 - decayed;
    }
    (power, sum)
}

/// `x`, or zero once it has decayed below the normal range.
fn flush(x: f64) -> f64 {
    if x < f64::MIN_POSITIVE {
        0.0
    } else {
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn cold_start_returns_prior() {
        let est = KernelEstimator::new(100.0, 0.01);
        assert!((est.estimate() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn converges_to_constant_background() {
        let mut est = KernelEstimator::new(500.0, 0.5); // bad prior on purpose
        let mut rng = StdRng::seed_from_u64(42);
        let p = 0.03;
        for _ in 0..20_000 {
            est.observe(rng.gen_bool(p));
        }
        let e = est.estimate();
        assert!((e - p).abs() < 0.01, "estimate {e} far from {p}");
        assert!((est.global_rate() - p).abs() < 0.01);
    }

    #[test]
    fn tracks_sudden_change_within_bandwidth() {
        let mut est = KernelEstimator::new(200.0, 0.01);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..5_000 {
            est.observe(rng.gen_bool(0.01));
        }
        assert!(est.estimate() < 0.05);
        // Traffic spike: the background jumps to 0.3.
        for _ in 0..1_000 {
            est.observe(rng.gen_bool(0.3));
        }
        let e = est.estimate();
        assert!(e > 0.2, "estimator failed to adapt: {e}");
    }

    #[test]
    fn smooths_single_outlier_burst() {
        let mut est = KernelEstimator::new(1_000.0, 0.01);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10_000 {
            est.observe(rng.gen_bool(0.01));
        }
        let before = est.estimate();
        // A 20-OU burst of positives: far shorter than the bandwidth.
        for _ in 0..20 {
            est.observe(true);
        }
        let after = est.estimate();
        assert!(
            after - before < 0.05,
            "burst moved estimate too far: {before} -> {after}"
        );
    }

    #[test]
    fn estimate_stays_clamped() {
        let mut est = KernelEstimator::new(10.0, 0.5);
        for _ in 0..1_000 {
            est.observe(true);
        }
        assert!(est.estimate() <= KernelEstimator::DEFAULT_CLAMP.1);
        let mut est = KernelEstimator::new(10.0, 0.5);
        for _ in 0..1_000 {
            est.observe(false);
        }
        assert!(est.estimate() >= KernelEstimator::DEFAULT_CLAMP.0);
    }

    #[test]
    fn observe_run_matches_interleaved_observation_rate() {
        let mut a = KernelEstimator::new(50.0, 0.1);
        a.observe_run(500, 50);
        assert_eq!(a.observed(), 500);
        assert_eq!(a.events(), 50);
        // The long-run estimate reflects the 10% rate.
        assert!(
            (a.estimate() - 0.1).abs() < 0.05,
            "estimate {}",
            a.estimate()
        );
    }

    /// `observe_run`'s definition: `units` calls of `observe`, the events
    /// firing at the evenly spread positions.
    fn observe_per_unit(est: &mut KernelEstimator, units: u64, events: u64) {
        let e = events.min(units);
        for j in 0..units {
            est.observe((j + 1) * e / units > j * e / units);
        }
    }

    /// Everything `observe_run` may change, bit for bit.
    fn state(est: &KernelEstimator) -> [u64; 5] {
        [
            est.event_mass.to_bits(),
            est.occurrence_mass.to_bits(),
            est.prior_mass.to_bits(),
            est.observed,
            est.events,
        ]
    }

    fn relative_error(got: f64, want: f64) -> f64 {
        (got - want).abs() / want
    }

    /// A double-double `hi + lo`: the `observe` recurrence carried to
    /// ~106 bits, so its rounding is far below what the tests measure.
    #[derive(Clone, Copy)]
    struct DoubleDouble(f64, f64);

    impl DoubleDouble {
        fn two_sum(a: f64, b: f64) -> Self {
            let s = a + b;
            let b_part = s - a;
            Self(s, (a - (s - b_part)) + (b - b_part))
        }

        /// Dekker's split: `a = hi + lo` with 26-bit halves, so halves
        /// multiply exactly (no `mul_add`, which is a slow libm call on
        /// targets built without FMA).
        fn split(a: f64) -> (f64, f64) {
            let t = 134_217_729.0 * a;
            let hi = t - (t - a);
            (hi, a - hi)
        }

        fn mul(self, x: f64) -> Self {
            let p = self.0 * x;
            let ((ah, al), (xh, xl)) = (Self::split(self.0), Self::split(x));
            let err = ((ah * xh - p) + ah * xl + al * xh) + al * xl;
            Self::two_sum(p, err + self.1 * x)
        }

        fn add(self, x: f64) -> Self {
            let s = Self::two_sum(self.0, x);
            Self::two_sum(s.0, s.1 + self.1)
        }

        fn value(self) -> f64 {
            self.0 + self.1
        }

        /// Zero once below the normal range, as `observe_run` flushes; the
        /// low word is dropped first, before it can turn subnormal.
        fn flushed(self) -> Self {
            if self.0 < f64::MIN_POSITIVE / f64::EPSILON {
                Self(flush(self.0), 0.0)
            } else {
                self
            }
        }
    }

    /// `observe`'s recurrence over the same rounded `γ`, in double-double
    /// arithmetic: the value the per-unit loop approximates. Masses below
    /// the normal range are flushed as in `observe_run`, which keeps the
    /// reference off slow subnormal arithmetic and moves no estimate.
    struct ExactPerUnit {
        decay: f64,
        prior: f64,
        observed: u64,
        events: u64,
        event_mass: DoubleDouble,
        occurrence_mass: DoubleDouble,
        prior_mass: DoubleDouble,
    }

    impl ExactPerUnit {
        fn new(est: &KernelEstimator) -> Self {
            Self {
                decay: est.decay,
                prior: est.prior,
                observed: est.observed,
                events: est.events,
                event_mass: DoubleDouble(est.event_mass, 0.0),
                occurrence_mass: DoubleDouble(est.occurrence_mass, 0.0),
                prior_mass: DoubleDouble(est.prior_mass, 0.0),
            }
        }

        fn observe_run(&mut self, units: u64, events: u64) {
            let e = events.min(units);
            for j in 0..units {
                let fire = (j + 1) * e / units > j * e / units;
                self.event_mass = self
                    .event_mass
                    .mul(self.decay)
                    .add(f64::from(u8::from(fire)))
                    .flushed();
                self.occurrence_mass = self.occurrence_mass.mul(self.decay).add(1.0);
                self.prior_mass = self.prior_mass.mul(self.decay).flushed();
                self.observed += 1;
                self.events += u64::from(fire);
            }
        }

        fn estimate(&self) -> f64 {
            let prior_mass = self.prior_mass.value();
            let (floor, ceil) = KernelEstimator::DEFAULT_CLAMP;
            ((self.event_mass.value() + prior_mass * self.prior)
                / (self.occurrence_mass.value() + prior_mass).max(1e-12))
            .clamp(floor, ceil)
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// The closed form against per-unit observation over hostile
        /// streams: bandwidth 1 to 1e6 and up to 1e5 runs, runs of 0 to 512
        /// units (all three log-uniform) with 0 to `units + 5` events, from
        /// all-quiet to all-busy, up to 1e7 units long. Counts must be the
        /// per-unit loop's and the estimate within 1e-11 of the per-unit
        /// recurrence's exact value.
        /// The f64 `observe` loop is not the yardstick for the estimate:
        /// near its fixed point `A·γ + 1` rounds back to `A` up to
        /// `~ε·bandwidth` away from the true value (5e-11 measured at
        /// bandwidth 1e6), while the closed form stays within 7.4e-13 over
        /// these cases.
        #[test]
        fn observe_run_equals_per_unit_observation(
            log_bandwidth in 0.0f64..6.0,
            log_runs in 0.0f64..5.0,
            log_max_units in 0.0f64..2.7093,
            busy in 0.0f64..1.0,
            prior in 0.0f64..1.0,
            seed in any::<u64>(),
        ) {
            let bandwidth = 10f64.powf(log_bandwidth);
            let max_units = 10f64.powf(log_max_units).round() as u64;
            // At most 1e7 units of stream (ten bandwidths at the largest),
            // so the longest streams run shorter clips.
            let runs = (10f64.powf(log_runs).round() as u64).min(10_000_000 / max_units);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut closed = KernelEstimator::new(bandwidth, prior);
            let mut exact = ExactPerUnit::new(&closed);
            for run in 0..runs {
                let units = rng.gen_range(0..=max_units);
                let events = if rng.gen_bool(busy) {
                    rng.gen_range(0..=units + 5)
                } else {
                    0
                };
                let before = state(&closed);
                closed.observe_run(units, events);
                if units == 0 {
                    prop_assert_eq!(state(&closed), before);
                }
                exact.observe_run(units, events);
                prop_assert_eq!(closed.observed(), exact.observed);
                prop_assert_eq!(closed.events(), exact.events);
                let err = relative_error(closed.estimate(), exact.estimate());
                prop_assert!(
                    err <= 1e-11,
                    "run {run}: bandwidth {bandwidth} units {units} events {events}: \
                     {} vs {} (relative error {err:e})",
                    closed.estimate(),
                    exact.estimate()
                );
            }
        }
    }

    #[test]
    fn observe_run_matches_the_loop_at_the_fire_rule_edges() {
        for (units, events) in [(1, 0), (1, 1), (1, 2), (7, 3), (50, 49), (50, 50), (50, 55)] {
            let mut closed = KernelEstimator::new(100.0, 0.2);
            let mut reference = closed.clone();
            closed.observe_run(units, events);
            observe_per_unit(&mut reference, units, events);
            assert_eq!(closed.events(), events.min(units));
            assert_eq!(closed.observed(), units);
            let err = relative_error(closed.estimate(), reference.estimate());
            assert!(err <= 1e-15, "({units}, {events}): {err:e}");
        }
    }

    /// Quiet units past the point where the prior's mass (and a quiet
    /// predicate's event mass) leaves the normal range: `observe_run`
    /// flushes them to zero instead of leaving them stuck on a subnormal,
    /// and the estimate is the unflushed per-unit one, bit for bit.
    #[test]
    fn quiet_masses_flush_instead_of_turning_subnormal() {
        let mut closed = KernelEstimator::new(20_000.0, 0.01);
        closed.observe_run(50, 7);
        let mut reference = closed.clone();
        for _ in 0..400_000 {
            closed.observe_run(50, 0);
        }
        observe_per_unit(&mut reference, 20_000_000, 0);
        assert_eq!(closed.observed(), 20_000_050);
        assert!(reference.prior_mass > 0.0 && reference.prior_mass.is_subnormal());
        assert!(reference.event_mass > 0.0 && reference.event_mass.is_subnormal());
        for mass in [closed.event_mass, closed.occurrence_mass, closed.prior_mass] {
            assert!(!mass.is_subnormal(), "{mass:e} is subnormal");
        }
        assert_eq!((closed.event_mass, closed.prior_mass), (0.0, 0.0));
        assert_eq!(closed.estimate().to_bits(), reference.estimate().to_bits());
    }

    #[test]
    fn edge_correction_unbiased_early() {
        // Without edge correction the early estimate would be biased low by
        // the missing left tail of the kernel. Average the estimate after
        // only bandwidth/5 observations over many seeds: it should centre on
        // the true rate.
        let p = 0.2;
        let mut total = 0.0;
        let seeds = 200;
        for seed in 0..seeds {
            let mut est = KernelEstimator::new(100.0, p); // prior = truth so
                                                          // blending is neutral
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..20 {
                est.observe(rng.gen_bool(p));
            }
            total += est.estimate();
        }
        let mean = total / seeds as f64;
        assert!(
            (mean - p).abs() < 0.03,
            "early-window mean {mean} biased vs {p}"
        );
    }
}
