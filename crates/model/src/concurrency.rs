//! The concurrency-aware throughput model and its online fitting
//! (paper §III-B/§III-C, Eq. 5–8, and the Table I training procedure).
//!
//! `X(N) = γ·K·N / (S⁰ + α(N−1) + βN(N−1))` relates a bottleneck tier's
//! saturated throughput to its per-server request-processing concurrency
//! `N`. Fitted from `⟨concurrency, throughput⟩` measurements, it yields the
//! optimal per-server concurrency `N* = √((S⁰−α)/β)` — the setting the
//! DCM APP-agent pushes into thread/connection pools.
//!
//! ### Identifiability note
//!
//! The parametrization is scale-degenerate: multiplying `(S⁰, α, β)` by `c`
//! and `γ` by `c` leaves `X(N)` unchanged. Everything DCM acts on — `N*`,
//! `X(N)` predictions, `X_max` — is scale-invariant, so the degeneracy is
//! harmless (the paper's own Table I shows it: `γ = 4.45` for a single
//! MySQL server). [`FitOptions::fix_s0`] pins the scale when a measured
//! single-thread service time is available.

use crate::lsq::{levenberg_marquardt, r_squared, FitError, LmOptions};

/// A fitted concurrency-aware throughput model for one tier.
///
/// # Examples
///
/// ```
/// use dcm_model::concurrency::ConcurrencyModel;
///
/// // The paper's Table I Tomcat model.
/// let model = ConcurrencyModel::new(2.84e-2, 9.87e-3, 4.54e-5, 11.03, 1);
/// assert_eq!(model.optimal_concurrency(), 20);
/// let xmax = model.predicted_max_throughput();
/// assert!((xmax - 946.0).abs() < 5.0, "Table I reports 946: {xmax}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConcurrencyModel {
    /// Single-threaded service time `S⁰` (seconds).
    pub s0: f64,
    /// Linear contention coefficient `α`.
    pub alpha: f64,
    /// Quadratic crosstalk coefficient `β`.
    pub beta: f64,
    /// Scaling correction `γ` (absorbs visit ratios and imbalance).
    pub gamma: f64,
    /// Servers in the tier, `K`.
    pub servers: u32,
}

impl ConcurrencyModel {
    /// Creates a model from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-finite, `s0 <= 0`, `gamma <= 0`, or
    /// `alpha`/`beta` negative.
    pub fn new(s0: f64, alpha: f64, beta: f64, gamma: f64, servers: u32) -> Self {
        assert!(s0.is_finite() && s0 > 0.0, "s0 must be positive");
        assert!(alpha.is_finite() && alpha >= 0.0, "alpha must be >= 0");
        assert!(beta.is_finite() && beta >= 0.0, "beta must be >= 0");
        assert!(gamma.is_finite() && gamma > 0.0, "gamma must be positive");
        ConcurrencyModel {
            s0,
            alpha,
            beta,
            gamma,
            servers: servers.max(1),
        }
    }

    /// Adjusted service time `S*(N)` (Eq. 5).
    pub fn adjusted_service_time(&self, n: f64) -> f64 {
        let n = n.max(1.0);
        self.s0 + self.alpha * (n - 1.0) + self.beta * n * (n - 1.0)
    }

    /// Predicted saturated throughput at per-server concurrency `n`
    /// (Eq. 7).
    pub fn predict_throughput(&self, n: f64) -> f64 {
        let n = n.max(1.0);
        self.gamma * f64::from(self.servers) * n / self.adjusted_service_time(n)
    }

    /// The continuous optimum `N* = √((S⁰−α)/β)`; `None` when `β = 0` or
    /// `α ≥ S⁰` (no interior optimum).
    pub fn optimal_concurrency_f64(&self) -> Option<f64> {
        if self.beta <= 0.0 || self.alpha >= self.s0 {
            None
        } else {
            Some(((self.s0 - self.alpha) / self.beta).sqrt())
        }
    }

    /// The integer optimal per-server concurrency (≥ 1); `u32::MAX` when
    /// throughput increases monotonically.
    pub fn optimal_concurrency(&self) -> u32 {
        match self.optimal_concurrency_f64() {
            None => u32::MAX,
            Some(n_star) => {
                let lo = (n_star.floor() as u32).max(1);
                let hi = lo + 1;
                if self.predict_throughput(f64::from(hi)) > self.predict_throughput(f64::from(lo)) {
                    hi
                } else {
                    lo
                }
            }
        }
    }

    /// Predicted maximum throughput `Max(X_max)` at `N*` (Eq. 8).
    pub fn predicted_max_throughput(&self) -> f64 {
        self.predict_throughput(f64::from(self.optimal_concurrency().min(1_000_000)))
    }

    /// The same model re-expressed for a different server count `k`
    /// (per-server `N*` is unchanged; aggregate throughput scales).
    pub fn with_servers(&self, k: u32) -> ConcurrencyModel {
        ConcurrencyModel {
            servers: k.max(1),
            ..*self
        }
    }
}

/// Options for [`fit_throughput_curve`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FitOptions {
    /// Pin `S⁰` to a measured single-thread service time instead of fitting
    /// it (resolves the γ scale degeneracy).
    pub fix_s0: Option<f64>,
    /// Levenberg–Marquardt controls.
    pub lm: LmOptionsWrapper,
}

/// Wrapper with a [`Default`] so [`FitOptions`] can derive it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LmOptionsWrapper(pub LmOptions);

/// A fitted model with goodness-of-fit diagnostics — the reproduction's
/// Table I row.
#[derive(Debug, Clone, PartialEq)]
pub struct FitReport {
    /// The fitted model.
    pub model: ConcurrencyModel,
    /// Coefficient of determination against the training data.
    pub r_squared: f64,
    /// LM iterations used.
    pub iterations: usize,
    /// Whether LM met its tolerance.
    pub converged: bool,
}

/// Fits the throughput model to `⟨per-server concurrency, system
/// throughput⟩` samples from a tier with `servers` servers.
///
/// Parameters are optimized in log-space, which enforces positivity without
/// constrained optimization.
///
/// # Errors
///
/// [`FitError`] when there are fewer samples than free parameters or the
/// optimizer cannot make progress.
///
/// # Examples
///
/// ```
/// use dcm_model::concurrency::{fit_throughput_curve, ConcurrencyModel, FitOptions};
///
/// // Generate noiseless data from a known model and recover it.
/// let truth = ConcurrencyModel::new(0.03, 0.01, 5e-5, 1.0, 1);
/// let data: Vec<(f64, f64)> = (1..=100)
///     .map(|n| (n as f64, truth.predict_throughput(n as f64)))
///     .collect();
/// let report = fit_throughput_curve(&data, 1, FitOptions::default()).unwrap();
/// assert!(report.r_squared > 0.999);
/// assert_eq!(report.model.optimal_concurrency(), truth.optimal_concurrency());
/// ```
pub fn fit_throughput_curve(
    data: &[(f64, f64)],
    servers: u32,
    options: FitOptions,
) -> Result<FitReport, FitError> {
    let clean: Vec<(f64, f64)> = data
        .iter()
        .copied()
        .filter(|&(n, x)| n >= 1.0 && x > 0.0 && n.is_finite() && x.is_finite())
        .collect();
    let k = f64::from(servers.max(1));

    // Initial guess. In a saturated closed loop X(1) = γ·K/S⁰; anchor the
    // scale there (γ₀ = 1), put the initial knee at the empirical argmax.
    let x_at_min_n = clean
        .iter()
        .min_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"))
        .map(|&(n, x)| x / n.max(1.0))
        .unwrap_or(1.0);
    let s0_guess = options.fix_s0.unwrap_or_else(|| (k / x_at_min_n).max(1e-6));
    let peak_n = clean
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .map(|&(n, _)| n.max(2.0))
        .unwrap_or(16.0);
    let alpha_guess = s0_guess * 0.05;
    let beta_guess = (s0_guess - alpha_guess) / (peak_n * peak_n);

    // Log-space parameter vector; s0 is included only when not fixed.
    let mut initial = vec![alpha_guess.ln(), beta_guess.ln(), 0.0f64 /* ln γ */];
    if options.fix_s0.is_none() {
        initial.push(s0_guess.ln());
    }
    let fixed_s0 = options.fix_s0;

    let predict = move |p: &[f64], n: f64| -> f64 {
        let alpha = p[0].exp();
        let beta = p[1].exp();
        let gamma = p[2].exp();
        let s0 = fixed_s0.unwrap_or_else(|| p[3].exp());
        let n = n.max(1.0);
        gamma * k * n / (s0 + alpha * (n - 1.0) + beta * n * (n - 1.0))
    };

    let observations = clean.clone();
    let result = levenberg_marquardt(
        &initial,
        observations.len(),
        |p, out| {
            for (i, &(n, x)) in observations.iter().enumerate() {
                out[i] = predict(p, n) - x;
            }
        },
        options.lm.0,
    )?;

    let p = &result.params;
    let model = ConcurrencyModel::new(
        fixed_s0.unwrap_or_else(|| p[3].exp()),
        p[0].exp(),
        p[1].exp(),
        p[2].exp(),
        servers.max(1),
    );
    let observed: Vec<f64> = clean.iter().map(|&(_, x)| x).collect();
    let predicted: Vec<f64> = clean
        .iter()
        .map(|&(n, _)| model.predict_throughput(n))
        .collect();
    Ok(FitReport {
        model,
        r_squared: r_squared(&observed, &predicted),
        iterations: result.iterations,
        converged: result.converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> ConcurrencyModel {
        // The calibrated MySQL ground truth (per-server, γ=1).
        ConcurrencyModel::new(5.89e-2, 2.0e-3, 4.3904e-5, 1.0, 1)
    }

    #[test]
    fn paper_table1_values_reproduce() {
        let tomcat = ConcurrencyModel::new(2.84e-2, 9.87e-3, 4.54e-5, 11.03, 1);
        assert_eq!(tomcat.optimal_concurrency(), 20);
        assert!((tomcat.predicted_max_throughput() - 946.0).abs() < 5.0);

        let mysql = ConcurrencyModel::new(7.19e-3, 5.04e-3, 1.65e-6, 4.45, 1);
        assert_eq!(mysql.optimal_concurrency(), 36);
        assert!((mysql.predicted_max_throughput() - 865.0).abs() < 5.0);
    }

    #[test]
    fn recovers_planted_model_noiseless() {
        let truth = truth();
        let data: Vec<(f64, f64)> = (1..=120)
            .map(|n| (f64::from(n), truth.predict_throughput(f64::from(n))))
            .collect();
        let report = fit_throughput_curve(&data, 1, FitOptions::default()).unwrap();
        assert!(report.r_squared > 0.9999, "r2 {}", report.r_squared);
        assert_eq!(
            report.model.optimal_concurrency(),
            truth.optimal_concurrency()
        );
        let xmax = report.model.predicted_max_throughput();
        let expected = truth.predicted_max_throughput();
        assert!((xmax - expected).abs() / expected < 0.01);
    }

    #[test]
    fn recovers_under_multiplicative_noise() {
        let truth = truth();
        let data: Vec<(f64, f64)> = (1..=150)
            .map(|n| {
                let noise = 1.0 + 0.03 * ((n as f64) * 1.7).sin();
                (f64::from(n), truth.predict_throughput(f64::from(n)) * noise)
            })
            .collect();
        let report = fit_throughput_curve(&data, 1, FitOptions::default()).unwrap();
        assert!(report.r_squared > 0.99, "r2 {}", report.r_squared);
        let n_star = report.model.optimal_concurrency();
        assert!(
            (34..=38).contains(&n_star),
            "knee {n_star} should be near 36"
        );
    }

    #[test]
    fn fixed_s0_pins_the_scale() {
        let truth = truth();
        let data: Vec<(f64, f64)> = (1..=100)
            .map(|n| (f64::from(n), truth.predict_throughput(f64::from(n))))
            .collect();
        let report = fit_throughput_curve(
            &data,
            1,
            FitOptions {
                fix_s0: Some(truth.s0),
                ..FitOptions::default()
            },
        )
        .unwrap();
        assert!((report.model.alpha - truth.alpha).abs() / truth.alpha < 0.05);
        assert!((report.model.beta - truth.beta).abs() / truth.beta < 0.05);
        assert!((report.model.gamma - 1.0).abs() < 0.05);
    }

    #[test]
    fn multi_server_prediction_scales() {
        let m1 = truth();
        let m2 = m1.with_servers(2);
        assert_eq!(m2.optimal_concurrency(), m1.optimal_concurrency());
        let x1 = m1.predicted_max_throughput();
        let x2 = m2.predicted_max_throughput();
        assert!((x2 - 2.0 * x1).abs() < 1e-9);
    }

    #[test]
    fn degenerate_models_report_no_interior_optimum() {
        let flat = ConcurrencyModel::new(0.01, 0.0, 0.0, 1.0, 1);
        assert_eq!(flat.optimal_concurrency_f64(), None);
        assert_eq!(flat.optimal_concurrency(), u32::MAX);
    }

    #[test]
    fn fit_rejects_insufficient_data() {
        let data = [(1.0, 100.0), (2.0, 150.0)];
        let err = fit_throughput_curve(&data, 1, FitOptions::default()).unwrap_err();
        assert!(matches!(err, FitError::TooFewObservations { .. }));
    }

    #[test]
    fn fit_filters_invalid_samples() {
        let truth = truth();
        let mut data: Vec<(f64, f64)> = (1..=80)
            .map(|n| (f64::from(n), truth.predict_throughput(f64::from(n))))
            .collect();
        data.push((0.0, -5.0));
        data.push((f64::NAN, 10.0));
        let report = fit_throughput_curve(&data, 1, FitOptions::default()).unwrap();
        assert!(report.r_squared > 0.999);
    }
}
