//! Random variate distributions used by workload and service-time models.
//!
//! Implemented here (rather than pulling in `rand_distr`) so sampling
//! algorithms are pinned and the dependency surface stays on the approved
//! list. All samplers draw from the crate's own [`SimRng`].

use std::fmt;

use crate::rng::SimRng;

/// A source of non-negative `f64` samples (times, sizes, rates).
pub trait Sample {
    /// Draws one sample.
    fn sample(&self, rng: &mut SimRng) -> f64;

    /// The distribution mean, if finite and known in closed form.
    fn mean(&self) -> Option<f64>;
}

/// Serializable description of a distribution; the closed set of shapes the
/// simulator knows how to sample.
///
/// # Examples
///
/// ```
/// use dcm_sim::dist::{Dist, Sample};
/// use dcm_sim::rng::SimRng;
///
/// let d = Dist::exponential(2.0); // mean 0.5
/// let mut rng = SimRng::seed_from(1);
/// let x = d.sample(&mut rng);
/// assert!(x >= 0.0);
/// assert_eq!(d.mean(), Some(0.5));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Dist {
    /// Always returns the same value.
    Constant(f64),
    /// Uniform on `[low, high)`.
    Uniform {
        /// Inclusive lower bound.
        low: f64,
        /// Exclusive upper bound.
        high: f64,
    },
    /// Exponential with rate `lambda` (mean `1/lambda`).
    Exponential {
        /// Rate parameter (events per unit).
        lambda: f64,
    },
    /// Normal with the given mean and standard deviation, truncated at zero.
    TruncatedNormal {
        /// Mean of the untruncated normal.
        mean: f64,
        /// Standard deviation of the untruncated normal.
        std_dev: f64,
    },
    /// Log-normal parameterized by the underlying normal's `mu`/`sigma`.
    LogNormal {
        /// Mean of the underlying normal.
        mu: f64,
        /// Standard deviation of the underlying normal.
        sigma: f64,
    },
    /// Pareto with scale `x_min > 0` and shape `alpha > 0`.
    Pareto {
        /// Scale (minimum value).
        x_min: f64,
        /// Tail shape; smaller is heavier.
        alpha: f64,
    },
    /// Erlang-k: sum of `k` exponentials each with rate `lambda`.
    Erlang {
        /// Number of exponential stages.
        k: u32,
        /// Per-stage rate.
        lambda: f64,
    },
}

impl Dist {
    /// A distribution that always yields `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is negative or not finite.
    pub fn constant(value: f64) -> Self {
        assert!(
            value.is_finite() && value >= 0.0,
            "constant must be finite and >= 0"
        );
        Dist::Constant(value)
    }

    /// Uniform on `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not finite or `low > high`.
    pub fn uniform(low: f64, high: f64) -> Self {
        assert!(
            low.is_finite() && high.is_finite() && low <= high,
            "invalid uniform bounds"
        );
        Dist::Uniform { low, high }
    }

    /// Exponential with rate `lambda`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda <= 0` or is not finite.
    pub fn exponential(lambda: f64) -> Self {
        assert!(lambda.is_finite() && lambda > 0.0, "lambda must be > 0");
        Dist::Exponential { lambda }
    }

    /// Exponential with the given mean (`lambda = 1/mean`).
    ///
    /// # Panics
    ///
    /// Panics if `mean <= 0` or is not finite.
    pub fn exponential_mean(mean: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0, "mean must be > 0");
        Dist::Exponential { lambda: 1.0 / mean }
    }

    /// Normal truncated at zero.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev < 0` or parameters are not finite.
    pub fn truncated_normal(mean: f64, std_dev: f64) -> Self {
        assert!(
            mean.is_finite() && std_dev.is_finite() && std_dev >= 0.0,
            "invalid normal params"
        );
        Dist::TruncatedNormal { mean, std_dev }
    }

    /// Log-normal from the underlying normal's parameters.
    ///
    /// # Panics
    ///
    /// Panics if `sigma < 0` or parameters are not finite.
    pub fn log_normal(mu: f64, sigma: f64) -> Self {
        assert!(
            mu.is_finite() && sigma.is_finite() && sigma >= 0.0,
            "invalid lognormal params"
        );
        Dist::LogNormal { mu, sigma }
    }

    /// Pareto with scale `x_min` and shape `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `x_min <= 0` or `alpha <= 0`.
    pub fn pareto(x_min: f64, alpha: f64) -> Self {
        assert!(x_min > 0.0 && alpha > 0.0, "pareto params must be > 0");
        Dist::Pareto { x_min, alpha }
    }

    /// Erlang-k with per-stage rate `lambda`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `lambda <= 0`.
    pub fn erlang(k: u32, lambda: f64) -> Self {
        assert!(k > 0 && lambda > 0.0, "invalid erlang params");
        Dist::Erlang { k, lambda }
    }
}

impl Sample for Dist {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        match *self {
            Dist::Constant(v) => v,
            Dist::Uniform { low, high } => low + (high - low) * rng.next_f64(),
            Dist::Exponential { lambda } => sample_exp(rng, lambda),
            Dist::TruncatedNormal { mean, std_dev } => {
                (mean + std_dev * sample_standard_normal(rng)).max(0.0)
            }
            Dist::LogNormal { mu, sigma } => (mu + sigma * sample_standard_normal(rng)).exp(),
            Dist::Pareto { x_min, alpha } => {
                // Inverse transform: F^-1(u) = x_min / (1-u)^{1/alpha}.
                let u = rng.next_f64();
                x_min / (1.0 - u).powf(1.0 / alpha)
            }
            Dist::Erlang { k, lambda } => (0..k).map(|_| sample_exp(rng, lambda)).sum(),
        }
    }

    fn mean(&self) -> Option<f64> {
        match *self {
            Dist::Constant(v) => Some(v),
            Dist::Uniform { low, high } => Some((low + high) / 2.0),
            Dist::Exponential { lambda } => Some(1.0 / lambda),
            // Truncation shifts the mean; only exact when the mass below zero
            // is negligible, so report the untruncated mean as approximation
            // only when it is at least 4 sigma above zero.
            Dist::TruncatedNormal { mean, std_dev } => {
                if mean >= 4.0 * std_dev {
                    Some(mean)
                } else {
                    None
                }
            }
            Dist::LogNormal { mu, sigma } => Some((mu + sigma * sigma / 2.0).exp()),
            Dist::Pareto { x_min, alpha } => {
                if alpha > 1.0 {
                    Some(alpha * x_min / (alpha - 1.0))
                } else {
                    None
                }
            }
            Dist::Erlang { k, lambda } => Some(k as f64 / lambda),
        }
    }
}

impl fmt::Display for Dist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Dist::Constant(v) => write!(f, "const({v})"),
            Dist::Uniform { low, high } => write!(f, "uniform({low}, {high})"),
            Dist::Exponential { lambda } => write!(f, "exp(rate={lambda})"),
            Dist::TruncatedNormal { mean, std_dev } => write!(f, "normal+({mean}, {std_dev})"),
            Dist::LogNormal { mu, sigma } => write!(f, "lognormal({mu}, {sigma})"),
            Dist::Pareto { x_min, alpha } => write!(f, "pareto({x_min}, {alpha})"),
            Dist::Erlang { k, lambda } => write!(f, "erlang({k}, rate={lambda})"),
        }
    }
}

#[inline]
fn sample_exp(rng: &mut SimRng, lambda: f64) -> f64 {
    // Inverse transform; 1 - u avoids ln(0).
    -(1.0 - rng.next_f64()).ln() / lambda
}

/// Marsaglia polar method for a standard normal variate.
fn sample_standard_normal(rng: &mut SimRng) -> f64 {
    loop {
        let u = 2.0 * rng.next_f64() - 1.0;
        let v = 2.0 * rng.next_f64() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Weighted discrete sampling over `0..n` via Vose's alias method — O(1) per
/// draw after O(n) setup; used for e.g. picking a servlet from the RUBBoS mix.
///
/// # Examples
///
/// ```
/// use dcm_sim::dist::AliasTable;
/// use dcm_sim::rng::SimRng;
///
/// let table = AliasTable::new(&[1.0, 3.0]).unwrap();
/// let mut rng = SimRng::seed_from(1);
/// let idx = table.sample(&mut rng);
/// assert!(idx < 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

/// Error building an [`AliasTable`] from an invalid weight vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WeightsError {
    /// The weight slice was empty.
    Empty,
    /// A weight was negative, NaN, or infinite.
    Invalid {
        /// Index of the offending weight.
        index: usize,
    },
    /// All weights were zero.
    ZeroSum,
}

impl fmt::Display for WeightsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WeightsError::Empty => write!(f, "weight vector is empty"),
            WeightsError::Invalid { index } => {
                write!(f, "weight at index {index} is negative or non-finite")
            }
            WeightsError::ZeroSum => write!(f, "all weights are zero"),
        }
    }
}

impl std::error::Error for WeightsError {}

impl AliasTable {
    /// Builds a table from non-negative weights (need not be normalized).
    ///
    /// # Errors
    ///
    /// Returns [`WeightsError`] if the slice is empty, contains a negative or
    /// non-finite weight, or sums to zero.
    pub fn new(weights: &[f64]) -> Result<Self, WeightsError> {
        if weights.is_empty() {
            return Err(WeightsError::Empty);
        }
        for (index, &w) in weights.iter().enumerate() {
            if !w.is_finite() || w < 0.0 {
                return Err(WeightsError::Invalid { index });
            }
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(WeightsError::ZeroSum);
        }

        let n = weights.len();
        let mut prob = vec![0.0; n];
        let mut alias = vec![0usize; n];
        // Scaled probabilities; > 1 means "overfull" bucket.
        let mut scaled: Vec<f64> = weights.iter().map(|w| w * n as f64 / total).collect();
        let mut small: Vec<usize> = Vec::with_capacity(n);
        let mut large: Vec<usize> = Vec::with_capacity(n);
        for (i, &p) in scaled.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while !small.is_empty() && !large.is_empty() {
            let s = small.pop().expect("checked non-empty");
            let l = *large.last().expect("checked non-empty");
            prob[s] = scaled[s];
            alias[s] = l;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        for i in large {
            prob[i] = 1.0;
        }
        for i in small {
            prob[i] = 1.0;
        }
        Ok(AliasTable { prob, alias })
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True if the table has no categories (never constructible; kept for
    /// API completeness).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws a category index.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let n = self.prob.len();
        let i = (rng.next_f64() * n as f64) as usize % n;
        if rng.next_f64() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from(0xDCB5)
    }

    fn empirical_mean(d: &Dist, n: usize) -> f64 {
        let mut r = rng();
        (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_always_returns_value() {
        let d = Dist::constant(3.25);
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(d.sample(&mut r), 3.25);
        }
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Dist::exponential_mean(0.04);
        let m = empirical_mean(&d, 200_000);
        assert!((m - 0.04).abs() < 0.001, "mean {m}");
    }

    #[test]
    fn uniform_mean_and_bounds() {
        let d = Dist::uniform(2.0, 4.0);
        let mut r = rng();
        for _ in 0..10_000 {
            let x = d.sample(&mut r);
            assert!((2.0..4.0).contains(&x));
        }
        assert!((empirical_mean(&d, 100_000) - 3.0).abs() < 0.01);
    }

    #[test]
    fn truncated_normal_never_negative() {
        let d = Dist::truncated_normal(0.01, 0.05);
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(d.sample(&mut r) >= 0.0);
        }
    }

    #[test]
    fn lognormal_mean_formula() {
        let d = Dist::log_normal(-3.0, 0.5);
        let expected = (-3.0f64 + 0.125).exp();
        assert_eq!(d.mean(), Some(expected));
        let m = empirical_mean(&d, 300_000);
        assert!(
            (m - expected).abs() / expected < 0.02,
            "mean {m} vs {expected}"
        );
    }

    #[test]
    fn pareto_respects_minimum_and_mean() {
        let d = Dist::pareto(1.0, 3.0);
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(d.sample(&mut r) >= 1.0);
        }
        assert_eq!(d.mean(), Some(1.5));
        let m = empirical_mean(&d, 300_000);
        assert!((m - 1.5).abs() < 0.05, "mean {m}");
    }

    #[test]
    fn pareto_heavy_tail_has_no_mean() {
        assert_eq!(Dist::pareto(1.0, 0.9).mean(), None);
    }

    #[test]
    fn erlang_mean_matches() {
        let d = Dist::erlang(4, 100.0);
        assert_eq!(d.mean(), Some(0.04));
        let m = empirical_mean(&d, 100_000);
        assert!((m - 0.04).abs() < 0.001, "mean {m}");
    }

    #[test]
    #[should_panic(expected = "lambda must be > 0")]
    fn exponential_rejects_zero_rate() {
        let _ = Dist::exponential(0.0);
    }

    #[test]
    fn alias_table_rejects_bad_weights() {
        assert_eq!(AliasTable::new(&[]), Err(WeightsError::Empty));
        assert_eq!(
            AliasTable::new(&[1.0, -2.0]),
            Err(WeightsError::Invalid { index: 1 })
        );
        assert_eq!(AliasTable::new(&[0.0, 0.0]), Err(WeightsError::ZeroSum));
    }

    #[test]
    fn alias_table_matches_weights() {
        let table = AliasTable::new(&[1.0, 2.0, 7.0]).unwrap();
        let mut r = rng();
        let mut counts = [0usize; 3];
        let n = 200_000;
        for _ in 0..n {
            counts[table.sample(&mut r)] += 1;
        }
        let freq: Vec<f64> = counts.iter().map(|&c| c as f64 / n as f64).collect();
        assert!((freq[0] - 0.1).abs() < 0.01, "{freq:?}");
        assert!((freq[1] - 0.2).abs() < 0.01, "{freq:?}");
        assert!((freq[2] - 0.7).abs() < 0.01, "{freq:?}");
    }

    #[test]
    fn alias_table_single_category() {
        let table = AliasTable::new(&[5.0]).unwrap();
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(table.sample(&mut r), 0);
        }
        assert_eq!(table.len(), 1);
        assert!(!table.is_empty());
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(Dist::constant(1.0).to_string(), "const(1)");
        assert_eq!(Dist::exponential(2.0).to_string(), "exp(rate=2)");
    }
}
