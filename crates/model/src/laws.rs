//! Operational queueing laws (paper §III-A, Eq. 1–4).
//!
//! Utilization Law (`U = X·S`), Forced Flow Law (`X_m = X·V_m`), Little's
//! Law, and the bottleneck analysis built on them: the tier with the
//! largest per-server service demand `V_m·S_m/K_m` saturates first and caps
//! system throughput at `X_max = γ·K_b/(V_b·S_b)`.

/// Utilization Law: `U = X·S` — utilization from throughput and mean
/// service time.
pub fn utilization(throughput: f64, service_time: f64) -> f64 {
    throughput * service_time
}

/// Forced Flow Law: `X_m = X·V_m` — a tier's local throughput from system
/// throughput and visit ratio.
pub fn forced_flow(system_throughput: f64, visit_ratio: f64) -> f64 {
    system_throughput * visit_ratio
}

/// Little's Law: `N = X·R` — mean population from throughput and residence
/// time.
pub fn littles_law(throughput: f64, residence_time: f64) -> f64 {
    throughput * residence_time
}

/// Interactive Response Time Law: `R = N/X − Z` for a closed system of `n`
/// users with think time `z`.
pub fn interactive_response_time(n_users: f64, throughput: f64, think_time: f64) -> f64 {
    n_users / throughput - think_time
}

/// One tier's operational parameters for bottleneck analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierDemand {
    /// End-to-end visit ratio `V_m` (sub-requests per client request).
    pub visit_ratio: f64,
    /// Mean per-visit service time `S_m` (seconds).
    pub service_time: f64,
    /// Servers in the tier, `K_m`.
    pub servers: u32,
}

impl TierDemand {
    /// Total service demand `D_m = V_m·S_m` per client request.
    pub fn demand(&self) -> f64 {
        self.visit_ratio * self.service_time
    }

    /// Demand per server, the quantity that saturates first.
    pub fn demand_per_server(&self) -> f64 {
        self.demand() / f64::from(self.servers.max(1))
    }
}

/// Result of a bottleneck analysis over the tier chain.
#[derive(Debug, Clone, PartialEq)]
pub struct BottleneckAnalysis {
    /// Index of the bottleneck tier.
    pub bottleneck: usize,
    /// Predicted maximum system throughput `γ·K_b/(V_b·S_b)` (Eq. 4).
    pub max_throughput: f64,
    /// Per-tier utilization at that maximum (`U_m = X·D_m/K_m`).
    pub utilizations: Vec<f64>,
}

/// Finds the bottleneck tier and the throughput ceiling (Eq. 2–4) with
/// scaling-correction factor `gamma` (1.0 for ideal linear scaling).
///
/// # Panics
///
/// Panics if `tiers` is empty or any demand is non-positive.
///
/// # Examples
///
/// ```
/// use dcm_model::laws::{analyze_bottleneck, TierDemand};
///
/// let tiers = [
///     TierDemand { visit_ratio: 1.0, service_time: 0.0006, servers: 1 },
///     TierDemand { visit_ratio: 1.0, service_time: 0.0284, servers: 1 },
///     TierDemand { visit_ratio: 2.0, service_time: 0.0072, servers: 1 },
/// ];
/// let analysis = analyze_bottleneck(&tiers, 1.0);
/// assert_eq!(analysis.bottleneck, 1); // Tomcat: largest V·S
/// assert!((analysis.max_throughput - 1.0 / 0.0284).abs() < 1e-9);
/// ```
pub fn analyze_bottleneck(tiers: &[TierDemand], gamma: f64) -> BottleneckAnalysis {
    assert!(!tiers.is_empty(), "need at least one tier");
    for t in tiers {
        assert!(
            t.demand() > 0.0 && t.demand().is_finite(),
            "tier demands must be positive"
        );
    }
    let bottleneck = tiers
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| {
            a.demand_per_server()
                .partial_cmp(&b.demand_per_server())
                .expect("finite demands")
        })
        .map(|(i, _)| i)
        .expect("non-empty");
    let b = &tiers[bottleneck];
    let max_throughput = gamma * f64::from(b.servers.max(1)) / b.demand();
    let utilizations = tiers
        .iter()
        .map(|t| max_throughput * t.demand_per_server())
        .collect();
    BottleneckAnalysis {
        bottleneck,
        max_throughput,
        utilizations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_laws() {
        assert_eq!(utilization(100.0, 0.005), 0.5);
        assert_eq!(forced_flow(50.0, 2.0), 100.0);
        assert_eq!(littles_law(10.0, 0.5), 5.0);
        assert!((interactive_response_time(100.0, 25.0, 3.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bottleneck_shifts_with_scaling() {
        // 1/1/1: Tomcat (28.4 ms) dominates MySQL (2×7.2 = 14.4 ms).
        let mut tiers = vec![
            TierDemand {
                visit_ratio: 1.0,
                service_time: 0.0006,
                servers: 1,
            },
            TierDemand {
                visit_ratio: 1.0,
                service_time: 0.0284,
                servers: 1,
            },
            TierDemand {
                visit_ratio: 2.0,
                service_time: 0.0072,
                servers: 1,
            },
        ];
        assert_eq!(analyze_bottleneck(&tiers, 1.0).bottleneck, 1);
        // 1/2/1: two Tomcats halve the per-server demand; MySQL takes over.
        tiers[1].servers = 2;
        let analysis = analyze_bottleneck(&tiers, 1.0);
        assert_eq!(analysis.bottleneck, 2);
        assert!((analysis.max_throughput - 1.0 / 0.0144).abs() < 1e-9);
    }

    #[test]
    fn utilizations_peak_at_bottleneck() {
        let tiers = [
            TierDemand {
                visit_ratio: 1.0,
                service_time: 0.001,
                servers: 1,
            },
            TierDemand {
                visit_ratio: 1.0,
                service_time: 0.010,
                servers: 1,
            },
        ];
        let analysis = analyze_bottleneck(&tiers, 1.0);
        assert!((analysis.utilizations[1] - 1.0).abs() < 1e-12);
        assert!(analysis.utilizations[0] < 0.2);
    }

    #[test]
    fn gamma_scales_the_ceiling() {
        let tiers = [TierDemand {
            visit_ratio: 1.0,
            service_time: 0.01,
            servers: 2,
        }];
        let ideal = analyze_bottleneck(&tiers, 1.0).max_throughput;
        let corrected = analyze_bottleneck(&tiers, 0.9).max_throughput;
        assert!((ideal - 200.0).abs() < 1e-9);
        assert!((corrected - 180.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_demand_rejected() {
        let _ = analyze_bottleneck(
            &[TierDemand {
                visit_ratio: 0.0,
                service_time: 0.01,
                servers: 1,
            }],
            1.0,
        );
    }
}
