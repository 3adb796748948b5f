//! Configuration shared by the online algorithms.

use serde::{Deserialize, Serialize};
use svq_types::{SvqError, SvqResult};

/// Which clips feed the SVAQD background estimators.
///
/// [`BackgroundUpdate::NegativeClips`] — the default — implements §3.2's
/// framing of the background as the prediction distribution "when the
/// query predicates are **not** satisfied": a predicate's estimator
/// observes only clips where that predicate was not significant (plus the
/// vicinity guard and count censoring documented on [`super::Svaqd`]), so
/// genuine signal stays out of the noise floor. The ablation bench shows
/// this dominating the alternatives. [`BackgroundUpdate::AllClips`] is the
/// literal smoothing of Eq. 6 — episodes inflate the background and
/// fragment their own detection, badly at ActivityNet-like occupancy.
/// [`BackgroundUpdate::PositiveClips`] is the literal reading of
/// Algorithm 3 lines 7-9 and is included for the ablation only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum BackgroundUpdate {
    /// Update a predicate's estimator only from clips where the predicate
    /// was *not* significant (the §3.2 semantics; default).
    #[default]
    NegativeClips,
    /// Update from every evaluated clip (the literal Eq. 6 smoothing).
    AllClips,
    /// Update only from clips where the whole query held (the literal
    /// reading of Algorithm 3, lines 7-9).
    PositiveClips,
}

/// Knobs of the online algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnlineConfig {
    /// Object-detection score threshold `T_obj` (§2).
    pub t_obj: f64,
    /// Action-recognition score threshold `T_act` (§2).
    pub t_act: f64,
    /// Significance level `α` of Eq. 5.
    pub alpha: f64,
    /// Reference horizon `L = N/w` used when deriving critical values. The
    /// scan-statistic tail grows with the number of windows scanned; a
    /// fixed reference horizon (default: 200 clips ≈ 7 minutes at the
    /// default geometry) keeps the test calibrated for "bursts an operator
    /// would flag within minutes" rather than drifting with stream length.
    pub horizon_windows: f64,
    /// SVAQD background-update policy.
    pub update: BackgroundUpdate,
    /// SVAQD kernel bandwidth for object estimators, in frames.
    pub bandwidth_frames: f64,
    /// SVAQD kernel bandwidth for the action estimator, in shots.
    pub bandwidth_shots: f64,
    /// Optional burn-in: for the first this-many clips, SVAQD estimators
    /// observe every evaluated clip regardless of the update policy.
    /// Default 0 — the critical-value floor and censored feeding make the
    /// estimate↔threshold ratchet self-starting — but a burn-in can
    /// accelerate convergence on streams whose opening is known to be
    /// signal-free.
    pub warmup_clips: u32,
    /// Learn the evaluation order of frame-only clauses (the object
    /// predicates of a canonical query) from observed selectivities
    /// (footnote 5) instead of using the query's order.
    /// Off by default — the paper leaves ordering to "user expertise".
    pub adaptive_order: bool,
    /// Executor knob: clip tickets a multiplexer worker pulls from a
    /// session mailbox per state-lock acquisition (`svq-exec` drain
    /// batching). Batching amortises mailbox and metrics overhead when
    /// clips are short; it never changes results — each session still
    /// consumes its clips in feed order. `1` (the default) evaluates
    /// ticket-at-a-time.
    pub drain_batch: u32,
    /// Executor knob: ingress shards the multiplexer hashes streams
    /// across (one feeder thread each); a full blocking mailbox stalls
    /// only its own shard. `1` (the default) is the single-feeder
    /// topology. Like `drain_batch`, never changes results.
    pub shards: u32,
    /// Executor knob: wall seconds slept per simulated inference second
    /// (`0.0`, the default, disables pacing). Makes executor throughput
    /// numbers reflect the inference-bound regime of deployment.
    pub pacing: f64,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        Self {
            t_obj: 0.5,
            t_act: 0.45,
            alpha: 0.05,
            horizon_windows: 200.0,
            update: BackgroundUpdate::default(),
            bandwidth_frames: 20_000.0,
            bandwidth_shots: 3_000.0,
            warmup_clips: 0,
            adaptive_order: false,
            drain_batch: 1,
            shards: 1,
            pacing: 0.0,
        }
    }
}

impl OnlineConfig {
    /// Start a validating [`OnlineConfigBuilder`] seeded with the defaults.
    ///
    /// The `with_*` methods below stay for quick in-code overrides (they
    /// assert or clamp); the builder is the boundary API — every field has
    /// a setter and [`OnlineConfigBuilder::build`] returns
    /// [`SvqError::InvalidConfig`] with the offending field named instead
    /// of panicking, so CLI flags and config files get real diagnostics:
    ///
    /// ```
    /// use svq_core::online::OnlineConfig;
    /// let config = OnlineConfig::builder().shards(4).drain_batch(16).build()?;
    /// assert_eq!((config.shards, config.drain_batch), (4, 16));
    /// # Ok::<(), svq_types::SvqError>(())
    /// ```
    pub fn builder() -> OnlineConfigBuilder {
        OnlineConfigBuilder::default()
    }

    /// Builder-style override of the significance level.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0);
        self.alpha = alpha;
        self
    }

    /// Builder-style override of the update policy.
    pub fn with_update(mut self, update: BackgroundUpdate) -> Self {
        self.update = update;
        self
    }

    /// Builder-style toggle for adaptive predicate ordering.
    pub fn with_adaptive_order(mut self) -> Self {
        self.adaptive_order = true;
        self
    }

    /// Builder-style override of the score thresholds.
    pub fn with_thresholds(mut self, t_obj: f64, t_act: f64) -> Self {
        self.t_obj = t_obj;
        self.t_act = t_act;
        self
    }

    /// Builder-style override of the executor drain batch size (min 1).
    pub fn with_drain_batch(mut self, drain_batch: u32) -> Self {
        self.drain_batch = drain_batch.max(1);
        self
    }
}

/// Validating builder for [`OnlineConfig`], started via
/// [`OnlineConfig::builder`].
///
/// Setters only record values; all checking happens in [`Self::build`] so a
/// caller can set fields in any order (including temporarily inconsistent
/// ones sourced from flags) and get one error naming the first offending
/// field.
#[derive(Debug, Clone, Default)]
pub struct OnlineConfigBuilder {
    config: OnlineConfig,
}

impl OnlineConfigBuilder {
    /// Object-detection score threshold `T_obj`; must lie in `(0, 1)`.
    pub fn t_obj(mut self, t_obj: f64) -> Self {
        self.config.t_obj = t_obj;
        self
    }

    /// Action-recognition score threshold `T_act`; must lie in `(0, 1)`.
    pub fn t_act(mut self, t_act: f64) -> Self {
        self.config.t_act = t_act;
        self
    }

    /// Significance level `α`; must lie in `(0, 1)`.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.config.alpha = alpha;
        self
    }

    /// Reference horizon in windows; must be finite and positive.
    pub fn horizon_windows(mut self, horizon_windows: f64) -> Self {
        self.config.horizon_windows = horizon_windows;
        self
    }

    /// SVAQD background-update policy.
    pub fn update(mut self, update: BackgroundUpdate) -> Self {
        self.config.update = update;
        self
    }

    /// Object-estimator kernel bandwidth in frames; finite and positive.
    pub fn bandwidth_frames(mut self, bandwidth_frames: f64) -> Self {
        self.config.bandwidth_frames = bandwidth_frames;
        self
    }

    /// Action-estimator kernel bandwidth in shots; finite and positive.
    pub fn bandwidth_shots(mut self, bandwidth_shots: f64) -> Self {
        self.config.bandwidth_shots = bandwidth_shots;
        self
    }

    /// Estimator burn-in length in clips (any value is valid).
    pub fn warmup_clips(mut self, warmup_clips: u32) -> Self {
        self.config.warmup_clips = warmup_clips;
        self
    }

    /// Learn predicate evaluation order from observed selectivities.
    pub fn adaptive_order(mut self, adaptive_order: bool) -> Self {
        self.config.adaptive_order = adaptive_order;
        self
    }

    /// Executor mailbox drain batch; must be at least 1.
    pub fn drain_batch(mut self, drain_batch: u32) -> Self {
        self.config.drain_batch = drain_batch;
        self
    }

    /// Executor ingress shard count; must be at least 1.
    pub fn shards(mut self, shards: u32) -> Self {
        self.config.shards = shards;
        self
    }

    /// Pacing factor in wall seconds per simulated second; finite, `>= 0`.
    pub fn pacing(mut self, pacing: f64) -> Self {
        self.config.pacing = pacing;
        self
    }

    /// Validate every field and return the finished config, or
    /// [`SvqError::InvalidConfig`] naming the first invalid field.
    pub fn build(self) -> SvqResult<OnlineConfig> {
        let c = self.config;
        fn unit_open(name: &str, v: f64) -> SvqResult<()> {
            if v > 0.0 && v < 1.0 {
                Ok(())
            } else {
                Err(SvqError::InvalidConfig(format!(
                    "{name} must lie in (0, 1), got {v}"
                )))
            }
        }
        fn finite_positive(name: &str, v: f64) -> SvqResult<()> {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(SvqError::InvalidConfig(format!(
                    "{name} must be finite and positive, got {v}"
                )))
            }
        }
        unit_open("t_obj", c.t_obj)?;
        unit_open("t_act", c.t_act)?;
        unit_open("alpha", c.alpha)?;
        finite_positive("horizon_windows", c.horizon_windows)?;
        finite_positive("bandwidth_frames", c.bandwidth_frames)?;
        finite_positive("bandwidth_shots", c.bandwidth_shots)?;
        if c.drain_batch < 1 {
            return Err(SvqError::InvalidConfig(
                "drain_batch must be at least 1".into(),
            ));
        }
        if c.shards < 1 {
            return Err(SvqError::InvalidConfig("shards must be at least 1".into()));
        }
        if !c.pacing.is_finite() || c.pacing < 0.0 {
            return Err(SvqError::InvalidConfig(format!(
                "pacing must be finite and non-negative, got {}",
                c.pacing
            )));
        }
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = OnlineConfig::default();
        assert!(c.t_obj > 0.0 && c.t_obj < 1.0);
        assert!(c.alpha > 0.0 && c.alpha < 1.0);
        assert_eq!(c.update, BackgroundUpdate::NegativeClips);
        assert_eq!(c.drain_batch, 1, "batching must be opt-in");
    }

    #[test]
    fn builders_override() {
        let c = OnlineConfig::default()
            .with_alpha(0.01)
            .with_update(BackgroundUpdate::AllClips)
            .with_thresholds(0.6, 0.55)
            .with_drain_batch(16);
        assert_eq!(c.alpha, 0.01);
        assert_eq!(c.update, BackgroundUpdate::AllClips);
        assert_eq!((c.t_obj, c.t_act), (0.6, 0.55));
        assert_eq!(c.drain_batch, 16);
        assert_eq!(OnlineConfig::default().with_drain_batch(0).drain_batch, 1);
    }

    #[test]
    fn builder_accepts_defaults_and_overrides() {
        let c = OnlineConfig::builder().build().unwrap();
        assert_eq!(c, OnlineConfig::default());

        let c = OnlineConfig::builder()
            .t_obj(0.6)
            .t_act(0.55)
            .alpha(0.01)
            .horizon_windows(500.0)
            .update(BackgroundUpdate::AllClips)
            .bandwidth_frames(10_000.0)
            .bandwidth_shots(1_500.0)
            .warmup_clips(8)
            .adaptive_order(true)
            .drain_batch(16)
            .shards(4)
            .pacing(0.25)
            .build()
            .unwrap();
        assert_eq!((c.t_obj, c.t_act, c.alpha), (0.6, 0.55, 0.01));
        assert_eq!(c.horizon_windows, 500.0);
        assert_eq!(c.update, BackgroundUpdate::AllClips);
        assert_eq!(c.warmup_clips, 8);
        assert!(c.adaptive_order);
        assert_eq!((c.drain_batch, c.shards), (16, 4));
        assert_eq!(c.pacing, 0.25);
    }

    #[test]
    fn builder_rejects_out_of_range_fields_by_name() {
        let cases: Vec<(&str, SvqResult<OnlineConfig>)> = vec![
            ("t_obj", OnlineConfig::builder().t_obj(0.0).build()),
            ("t_act", OnlineConfig::builder().t_act(1.0).build()),
            ("alpha", OnlineConfig::builder().alpha(-0.1).build()),
            (
                "horizon_windows",
                OnlineConfig::builder().horizon_windows(f64::NAN).build(),
            ),
            (
                "bandwidth_frames",
                OnlineConfig::builder().bandwidth_frames(0.0).build(),
            ),
            (
                "bandwidth_shots",
                OnlineConfig::builder()
                    .bandwidth_shots(f64::INFINITY)
                    .build(),
            ),
            (
                "drain_batch",
                OnlineConfig::builder().drain_batch(0).build(),
            ),
            ("shards", OnlineConfig::builder().shards(0).build()),
            ("pacing", OnlineConfig::builder().pacing(-1.0).build()),
        ];
        for (field, result) in cases {
            let err = result.expect_err(field).to_string();
            assert!(err.contains("invalid config"), "{field}: {err}");
            assert!(err.contains(field), "{field} not named in: {err}");
        }
    }
}
