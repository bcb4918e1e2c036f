//! Replication analysis: aggregate a metric across independent simulation
//! runs (different seeds) into mean ± confidence interval.
//!
//! Simulation results are random variables; a single run of a bursty
//! scenario proves little. The experiment harness runs each configuration
//! under several seeds and reports Student-t confidence intervals.

use super::OnlineStats;

/// Two-sided Student-t critical values at 95 % confidence, indexed by
/// degrees of freedom (1-based; `[0]` unused). Beyond 30 df the normal
/// approximation (1.96) is used.
const T_95: [f64; 31] = [
    f64::NAN,
    12.706,
    4.303,
    3.182,
    2.776,
    2.571,
    2.447,
    2.365,
    2.306,
    2.262,
    2.228,
    2.201,
    2.179,
    2.160,
    2.145,
    2.131,
    2.120,
    2.110,
    2.101,
    2.093,
    2.086,
    2.080,
    2.074,
    2.069,
    2.064,
    2.060,
    2.056,
    2.052,
    2.048,
    2.045,
    2.042,
];

/// Two-sided 95 % Student-t critical value for the given degrees of
/// freedom (`df >= 1`; the normal 1.96 beyond 30).
///
/// # Panics
///
/// Panics if `df == 0`.
pub fn t_critical_95(df: usize) -> f64 {
    assert!(df >= 1, "degrees of freedom must be >= 1");
    if df <= 30 {
        T_95[df]
    } else {
        1.96
    }
}

/// A metric observed across independent replications.
///
/// # Examples
///
/// ```
/// use dcm_sim::stats::Replications;
///
/// let reps: Replications = [10.0, 11.0, 9.5, 10.5, 10.0].into_iter().collect();
/// let (lo, hi) = reps.confidence_interval_95().unwrap();
/// assert!(lo < 10.2 && 10.2 < hi);
/// assert!((reps.mean() - 10.2).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Replications {
    stats: OnlineStats,
}

impl Replications {
    /// Creates an empty set.
    pub fn new() -> Self {
        Replications {
            stats: OnlineStats::new(),
        }
    }

    /// Records one replication's metric value.
    pub fn record(&mut self, value: f64) {
        self.stats.record(value);
    }

    /// Number of replications.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Mean across replications.
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Sample standard deviation across replications.
    pub fn std_dev(&self) -> f64 {
        self.stats.std_dev()
    }

    /// Standard error of the mean; `None` with fewer than two
    /// replications.
    pub fn standard_error(&self) -> Option<f64> {
        if self.stats.count() < 2 {
            None
        } else {
            Some(self.stats.std_dev() / (self.stats.count() as f64).sqrt())
        }
    }

    /// Two-sided 95 % confidence interval for the mean (Student t);
    /// `None` with fewer than two replications.
    pub fn confidence_interval_95(&self) -> Option<(f64, f64)> {
        let se = self.standard_error()?;
        let df = (self.stats.count() - 1) as usize;
        let half = t_critical_95(df) * se;
        Some((self.mean() - half, self.mean() + half))
    }

    /// The half-width of the 95 % confidence interval, if defined.
    pub fn half_width_95(&self) -> Option<f64> {
        self.confidence_interval_95()
            .map(|(lo, hi)| (hi - lo) / 2.0)
    }

    /// Formats as `mean ± half-width` with the given decimals.
    pub fn display(&self, decimals: usize) -> String {
        match self.half_width_95() {
            Some(half) => format!("{:.decimals$} ± {:.decimals$}", self.mean(), half),
            None => format!("{:.decimals$}", self.mean()),
        }
    }
}

impl FromIterator<f64> for Replications {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut reps = Replications::new();
        for v in iter {
            reps.record(v);
        }
        reps
    }
}

impl Extend<f64> for Replications {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_table_boundaries() {
        assert!((t_critical_95(1) - 12.706).abs() < 1e-9);
        assert!((t_critical_95(30) - 2.042).abs() < 1e-9);
        assert!((t_critical_95(31) - 1.96).abs() < 1e-9);
        assert!((t_critical_95(1000) - 1.96).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "degrees of freedom")]
    fn zero_df_panics() {
        let _ = t_critical_95(0);
    }

    #[test]
    fn single_replication_has_no_interval() {
        let reps: Replications = [5.0].into_iter().collect();
        assert_eq!(reps.confidence_interval_95(), None);
        assert_eq!(reps.display(1), "5.0");
    }

    #[test]
    fn interval_matches_hand_computation() {
        // n=4, values 1,2,3,4: mean 2.5, s = sqrt(5/3) ≈ 1.29099,
        // se = s/2 ≈ 0.6455, t(3) = 3.182 → half ≈ 2.0540.
        let reps: Replications = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        let (lo, hi) = reps.confidence_interval_95().unwrap();
        assert!((reps.mean() - 2.5).abs() < 1e-12);
        assert!(
            ((hi - lo) / 2.0 - 2.0540).abs() < 1e-3,
            "half {}",
            (hi - lo) / 2.0
        );
        assert!(lo < 2.5 && hi > 2.5);
    }

    #[test]
    fn tighter_with_more_replications() {
        // Same per-replication variance (alternating ±1 around 10); more
        // replications must shrink the interval.
        let pattern = |n: usize| -> Replications {
            (0..n)
                .map(|i| if i % 2 == 0 { 9.0 } else { 11.0 })
                .collect()
        };
        let many = pattern(30);
        let few = pattern(4);
        assert!(many.half_width_95().unwrap() < few.half_width_95().unwrap());
    }

    #[test]
    fn display_formats() {
        let reps: Replications = [1.0, 2.0, 3.0].into_iter().collect();
        let text = reps.display(2);
        assert!(text.starts_with("2.00 ± "), "{text}");
    }
}
