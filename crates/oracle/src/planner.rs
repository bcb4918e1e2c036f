//! The reusable MVA planner behind the model-predictive controller.
//!
//! [`predict`] maps a proposed deployment — per-tier VM counts, per-VM
//! concurrency caps, and fitted per-tier demands — onto the same closed
//! product-form network the conformance harness solves, and returns the
//! exact MVA throughput / residence / response time at a given client
//! population. Each tier becomes one multi-server queueing station with
//! `servers × concurrency` service channels (a tier of `k` identical VMs
//! behind a random balancer, each admitting `N` concurrent requests, has
//! exactly that aggregate completion rate when demands are i.i.d.).
//!
//! The demands are *inputs*: contention effects (the paper's concurrency
//! law `S*(N)`) are folded in by the caller, which adjusts each
//! candidate's demand via the fitted [`dcm_model::concurrency`] model
//! before asking for a prediction. That keeps the planner itself a pure
//! product-form solver with the classic guarantees — predicted throughput
//! is monotone non-decreasing in every tier's server count and
//! concurrency, and never exceeds the asymptotic bound
//! `X ≤ min(N/(Z+ΣD), min_m c_m/D_m)` — properties the planner proptests
//! pin down.

use dcm_model::mva::{ClosedNetwork, SolveCache, Station};

/// One tier of a candidate deployment, as the planner sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedTier {
    /// VMs in the tier (`k ≥ 1`).
    pub servers: u32,
    /// Admitted concurrency per VM (`N ≥ 1`): thread- or connection-pool
    /// size, whichever gates this tier.
    pub concurrency: u32,
    /// Mean per-visit service demand at the offered concurrency (seconds,
    /// `> 0`). Contention-adjust before calling if the tier is lawful.
    pub demand: f64,
    /// Visits per client request (`≥ 0`; `0` drops the tier out).
    pub visits: f64,
}

impl PlannedTier {
    /// Aggregate service channels the tier offers.
    fn channels(self) -> u32 {
        self.servers.max(1).saturating_mul(self.concurrency.max(1))
    }

    /// Service demand `D = V·S` per client request.
    pub fn total_demand(self) -> f64 {
        self.visits * self.demand
    }
}

/// What [`predict`] returns: the exact MVA solution of the candidate
/// deployment at the given population, flattened to the quantities the
/// controller ranks plans by.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Client population the network was solved at.
    pub population: u32,
    /// Predicted system throughput `X(N)` (requests/sec).
    pub throughput: f64,
    /// Predicted end-to-end response time `R(N)` (seconds, excl. think).
    pub response_time: f64,
    /// Per-tier residence per client request, `V_m·R_m` (seconds), in the
    /// order the tiers were given.
    pub residence: Vec<f64>,
    /// Per-tier utilization (fraction of the tier's peak rate).
    pub utilization: Vec<f64>,
}

/// Builds the closed network for a candidate deployment. Tiers with zero
/// visits are kept as (unvisited) stations so residence indices line up.
fn network(tiers: &[PlannedTier], think: f64) -> ClosedNetwork {
    assert!(!tiers.is_empty(), "planner needs at least one tier");
    let stations = tiers
        .iter()
        .map(|t| {
            assert!(
                t.demand.is_finite() && t.demand > 0.0,
                "tier demand must be positive"
            );
            Station::Queueing {
                visit_ratio: t.visits,
                service_time: t.demand,
                servers: t.channels(),
            }
        })
        .collect();
    ClosedNetwork::new(stations, think)
}

/// Predicts throughput, per-tier residence, and response time for a
/// candidate deployment at client population `population` with mean think
/// time `think`, by exact load-dependent MVA.
///
/// # Panics
///
/// Panics on an empty tier list, a non-positive demand, or a negative /
/// non-finite think time (same contract as [`ClosedNetwork::new`]).
pub fn predict(tiers: &[PlannedTier], think: f64, population: u32) -> Prediction {
    predict_with(tiers, think, population, &mut SolveCache::default())
}

/// [`predict`], sharing solver work with the other predictions made
/// through `cache` (see [`ClosedNetwork::solve_with`]); bit-identical to
/// [`predict`].
pub fn predict_with(
    tiers: &[PlannedTier],
    think: f64,
    population: u32,
    cache: &mut SolveCache,
) -> Prediction {
    let sol = network(tiers, think).solve_with(population, cache);
    Prediction {
        population,
        throughput: sol.throughput,
        response_time: sol.response_time,
        residence: sol.station_residence,
        utilization: sol.station_utilization,
    }
}

/// The classic asymptotic throughput bound for a candidate deployment:
/// `X ≤ min(N/(Z+ΣD), min_m c_m/D_m)` where `c_m` is the tier's aggregate
/// channel count. Every [`predict`] result respects it (proptested).
pub fn throughput_bound(tiers: &[PlannedTier], think: f64, population: u32) -> f64 {
    network(tiers, think)
        .asymptotic_bounds(population)
        .throughput_upper
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_tier() -> Vec<PlannedTier> {
        vec![
            PlannedTier {
                servers: 1,
                concurrency: 100,
                demand: 0.005,
                visits: 1.0,
            },
            PlannedTier {
                servers: 2,
                concurrency: 20,
                demand: 0.02,
                visits: 1.0,
            },
            PlannedTier {
                servers: 1,
                concurrency: 4,
                demand: 0.04,
                visits: 2.0,
            },
        ]
    }

    #[test]
    fn population_one_sees_bare_demands() {
        let tiers = three_tier();
        let p = predict(&tiers, 1.0, 1);
        let d: f64 = tiers.iter().map(|t| t.total_demand()).sum();
        assert!((p.response_time - d).abs() < 1e-12);
        assert!((p.throughput - 1.0 / (1.0 + d)).abs() < 1e-12);
        assert_eq!(p.residence.len(), 3);
    }

    #[test]
    fn saturates_at_the_bottleneck_channel_rate() {
        let tiers = three_tier();
        // Bottleneck: DB with 1×4 channels, D = 2·0.04 ⇒ cap 4/(2·0.04) = 50/s.
        let p = predict(&tiers, 0.5, 400);
        assert!(
            (p.throughput - 50.0).abs() / 50.0 < 0.01,
            "{}",
            p.throughput
        );
        assert!(p.throughput <= throughput_bound(&tiers, 0.5, 400) + 1e-9);
    }

    #[test]
    fn more_servers_and_concurrency_never_hurt() {
        let base = three_tier();
        let p0 = predict(&base, 1.0, 120);
        let mut more_servers = base.clone();
        more_servers[2].servers += 1;
        let p1 = predict(&more_servers, 1.0, 120);
        assert!(p1.throughput >= p0.throughput - 1e-12);
        let mut more_conc = base;
        more_conc[2].concurrency += 4;
        let p2 = predict(&more_conc, 1.0, 120);
        assert!(p2.throughput >= p0.throughput - 1e-12);
    }

    #[test]
    fn zero_population_is_degenerate() {
        let p = predict(&three_tier(), 1.0, 0);
        assert_eq!(p.throughput, 0.0);
        assert_eq!(p.response_time, 0.0);
    }

    #[test]
    #[should_panic(expected = "tier demand must be positive")]
    fn rejects_non_positive_demand() {
        let mut tiers = three_tier();
        tiers[0].demand = 0.0;
        let _ = predict(&tiers, 1.0, 10);
    }
}
