//! Short-horizon utilization forecasting (Holt's linear exponential
//! smoothing).
//!
//! The paper's related work contrasts its reactive controller with
//! *predictive* approaches that "avoid the long setup time … when the
//! workload has intrinsic patterns". This module implements that
//! extension: a per-tier trend smoother whose forecast one VM-preparation
//! period ahead can drive the scale-out decision, hiding the boot delay
//! when load ramps steadily (and degrading gracefully to reactive
//! behaviour when it doesn't — see the `predictive` ablation).

/// Holt's linear smoothing configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoltConfig {
    /// Level smoothing factor `α ∈ (0, 1]`.
    pub level_alpha: f64,
    /// Trend smoothing factor `β ∈ (0, 1]`.
    pub trend_beta: f64,
    /// Forecast horizon in control periods (e.g. 2 ≈ boot delay + one
    /// period at the paper's 15 s timings).
    pub horizon_periods: f64,
}

impl Default for HoltConfig {
    fn default() -> Self {
        HoltConfig {
            level_alpha: 0.5,
            trend_beta: 0.3,
            horizon_periods: 2.0,
        }
    }
}

/// A per-signal Holt smoother.
///
/// # Examples
///
/// ```
/// use dcm_core::predictor::{HoltConfig, HoltTrend};
///
/// let mut trend = HoltTrend::new(HoltConfig::default());
/// for step in 0..10 {
///     trend.observe(0.1 * step as f64); // steady ramp
/// }
/// // The forecast runs ahead of the last observation.
/// assert!(trend.forecast() > 0.9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoltTrend {
    config: HoltConfig,
    level: f64,
    trend: f64,
    observations: u64,
}

impl HoltTrend {
    /// Creates an empty smoother.
    ///
    /// # Panics
    ///
    /// Panics if the smoothing factors are outside `(0, 1]` or the horizon
    /// is negative.
    pub fn new(config: HoltConfig) -> Self {
        assert!(
            config.level_alpha > 0.0 && config.level_alpha <= 1.0,
            "level_alpha must be in (0,1]"
        );
        assert!(
            config.trend_beta > 0.0 && config.trend_beta <= 1.0,
            "trend_beta must be in (0,1]"
        );
        assert!(config.horizon_periods >= 0.0, "horizon must be >= 0");
        HoltTrend {
            config,
            level: 0.0,
            trend: 0.0,
            observations: 0,
        }
    }

    /// Feeds one observation (one control period's measurement).
    pub fn observe(&mut self, value: f64) {
        if self.observations == 0 {
            self.level = value;
            self.trend = 0.0;
        } else {
            let previous_level = self.level;
            self.level = self.config.level_alpha * value
                + (1.0 - self.config.level_alpha) * (self.level + self.trend);
            self.trend = self.config.trend_beta * (self.level - previous_level)
                + (1.0 - self.config.trend_beta) * self.trend;
        }
        self.observations += 1;
    }

    /// The smoothed current level.
    pub fn level(&self) -> f64 {
        self.level
    }

    /// The smoothed per-period trend.
    pub fn trend(&self) -> f64 {
        self.trend
    }

    /// Observations seen so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Forecast `horizon_periods` ahead; equals the last level until two
    /// observations have been seen (no trend to extrapolate).
    pub fn forecast(&self) -> f64 {
        if self.observations < 2 {
            self.level
        } else {
            self.level + self.trend * self.config.horizon_periods
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_signal_forecasts_itself() {
        let mut t = HoltTrend::new(HoltConfig::default());
        for _ in 0..20 {
            t.observe(0.6);
        }
        assert!((t.forecast() - 0.6).abs() < 1e-9);
        assert!(t.trend().abs() < 1e-9);
    }

    #[test]
    fn ramp_is_extrapolated_ahead() {
        let mut t = HoltTrend::new(HoltConfig {
            level_alpha: 0.8,
            trend_beta: 0.5,
            horizon_periods: 2.0,
        });
        let mut last = 0.0;
        for step in 0..30 {
            last = 0.02 * f64::from(step);
            t.observe(last);
        }
        let forecast = t.forecast();
        assert!(
            forecast > last + 0.02,
            "forecast {forecast} should lead the ramp ({last})"
        );
        assert!(forecast < last + 0.1, "but not wildly: {forecast}");
    }

    #[test]
    fn single_observation_has_no_trend() {
        let mut t = HoltTrend::new(HoltConfig::default());
        t.observe(0.9);
        assert_eq!(t.forecast(), 0.9);
        assert_eq!(t.observations(), 1);
    }

    #[test]
    fn falling_signal_forecasts_lower() {
        let mut t = HoltTrend::new(HoltConfig::default());
        for step in 0..20 {
            t.observe(1.0 - 0.03 * f64::from(step));
        }
        assert!(t.forecast() < t.level());
    }

    #[test]
    #[should_panic(expected = "level_alpha")]
    fn rejects_invalid_alpha() {
        let _ = HoltTrend::new(HoltConfig {
            level_alpha: 0.0,
            ..HoltConfig::default()
        });
    }
}
