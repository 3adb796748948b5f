//! Configuration shared by the online algorithms.

use serde::{Deserialize, Serialize};

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

/// Reference horizon `L = N/w` used when deriving critical values, and
/// [`OnlineConfig::horizon_windows`]'s default. The scan-statistic tail
/// grows with the number of windows scanned; a fixed reference horizon
/// (200 clips ≈ 7 minutes at the default geometry) keeps the test
/// calibrated for "bursts an operator would flag within minutes" rather
/// than drifting with stream length.
pub const HORIZON_WINDOWS: f64 = 200.0;

/// SVAQD kernel bandwidth for object (frame-level) estimators, in frames.
pub const BANDWIDTH_FRAMES: f64 = 20_000.0;

/// SVAQD kernel bandwidth for action estimators, in shots.
pub const BANDWIDTH_SHOTS: f64 = 3_000.0;

/// Knobs of the online algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnlineConfig {
    /// Object-detection score threshold `T_obj` (§2).
    pub t_obj: f64,
    /// Action-recognition score threshold `T_act` (§2).
    pub t_act: f64,
    /// Significance level `α` of Eq. 5.
    pub alpha: f64,
    /// Reference horizon `L = N/w`. Every caller leaves it at
    /// [`HORIZON_WINDOWS`]; it stays a field only while svqbench reads it
    /// from a config.
    pub horizon_windows: f64,
    /// SVAQD background-update policy.
    pub update: BackgroundUpdate,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        Self {
            t_obj: 0.5,
            t_act: 0.45,
            alpha: 0.05,
            horizon_windows: HORIZON_WINDOWS,
            update: BackgroundUpdate::default(),
        }
    }
}

impl OnlineConfig {
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

    /// Builder-style override of the score thresholds.
    pub fn with_thresholds(mut self, t_obj: f64, t_act: f64) -> Self {
        self.t_obj = t_obj;
        self.t_act = t_act;
        self
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
    }

    #[test]
    fn builders_override() {
        let c = OnlineConfig::default()
            .with_alpha(0.01)
            .with_update(BackgroundUpdate::AllClips)
            .with_thresholds(0.6, 0.55);
        assert_eq!(c.alpha, 0.01);
        assert_eq!(c.update, BackgroundUpdate::AllClips);
        assert_eq!((c.t_obj, c.t_act), (0.6, 0.55));
    }
}
