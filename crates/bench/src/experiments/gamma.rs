//! The γ scaling-correction measurement (paper Eq. 4).
//!
//! Eq. 4 introduces `γ` because "the system performance will not double if
//! we increase the bottleneck tier resource from one server to two" — load
//! imbalance and shared downstream resources eat part of the gain. This
//! experiment measures that directly: scale the bottleneck (DB) tier
//! `K = 1..4` with the rest of the system over-provisioned and the soft
//! resources at each K's optimum, and report the per-step scaling
//! efficiency `X(K)/(K·X(1))`.

use dcm_core::experiment::{SteadyStateOptions, SteadyStateReport};
use dcm_ntier::balancer::BalancerPolicy;
use dcm_ntier::topology::{SoftConfig, ThreeTierBuilder};
use dcm_sim::time::SimTime;
use dcm_workload::generator::UserPopulation;
use dcm_workload::profile::ProfileFactory;
use dcm_workload::report::LoadReport;

use crate::format::{num, TextTable};

use super::Fidelity;

/// One K's measurement under both balancing policies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GammaPoint {
    /// Bottleneck-tier servers.
    pub servers: u32,
    /// Saturated throughput under round-robin (req/s).
    pub x_round_robin: f64,
    /// Saturated throughput under least-connections (req/s).
    pub x_least_conn: f64,
    /// `X_rr(K) / (K·X_rr(1))`.
    pub eff_round_robin: f64,
    /// `X_lc(K) / (K·X_lc(1))`.
    pub eff_least_conn: f64,
}

/// The γ measurement across bottleneck-tier sizes.
#[derive(Debug, Clone)]
pub struct GammaSweep {
    /// One point per K.
    pub points: Vec<GammaPoint>,
}

fn measure(k: u32, policy: BalancerPolicy, options: &SteadyStateOptions) -> SteadyStateReport {
    let app_servers = 2 * k;
    let conns = (36 * k).div_ceil(app_servers).max(1);
    let users = 400 * k;
    let (mut world, mut engine) = ThreeTierBuilder::new()
        .counts(1, app_servers, k)
        .soft(SoftConfig::new(2000, 22, conns))
        .balancer(policy)
        .seed(dcm_sim::rng::derive_seed(options.seed, u64::from(users)))
        .build();
    let warmup_end = SimTime::ZERO + options.warmup;
    let measure_end = warmup_end + options.measure;
    let population = UserPopulation::start_think_time(
        &mut world,
        &mut engine,
        ProfileFactory::rubbos(),
        users,
        options.think_time_secs,
        measure_end,
    );
    engine.run_until(&mut world, measure_end);
    population.with_completions(|log| {
        let mut report = LoadReport::from_completions(log, warmup_end, measure_end);
        SteadyStateReport {
            users,
            throughput: report.throughput(),
            mean_rt: report.mean_response_time(),
            p95_rt: report.response_time_quantile(0.95).unwrap_or(0.0),
        }
    })
}

/// Runs the sweep: DB tier scaled `1..=max_servers`, app tier at `2K`
/// servers with per-server pools at the app optimum, connection budget at
/// the DB optimum (`36·K` split across app servers), users scaled with
/// capacity so every configuration is saturated. Both balancing policies
/// are measured — without per-server back-pressure, round-robin feeds a
/// slow database until it thrashes, while least-connections self-corrects.
pub fn run_gamma_sweep(fidelity: Fidelity, max_servers: u32) -> GammaSweep {
    let options = SteadyStateOptions {
        warmup: fidelity.warmup(),
        measure: fidelity.measure(),
        think_time_secs: 3.0,
        seed: 20170606,
        ..SteadyStateOptions::default()
    };
    // Measure every (K, policy) pair in parallel; the efficiency ratios
    // need K=1's throughputs, so they are computed from the ordered results
    // afterwards — same values the serial loop produced.
    let ks: Vec<u32> = (1..=max_servers.max(1)).collect();
    let descriptors: Vec<(u32, BalancerPolicy)> = ks
        .iter()
        .flat_map(|&k| {
            [
                (k, BalancerPolicy::RoundRobin),
                (k, BalancerPolicy::LeastConnections),
            ]
        })
        .collect();
    let reports =
        dcm_sim::runner::run_ordered(descriptors, |(k, policy)| measure(k, policy, &options));
    let (x1_rr, x1_lc) = (reports[0].throughput, reports[1].throughput);
    let points = ks
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            let (rr, lc) = (&reports[2 * i], &reports[2 * i + 1]);
            let eff = |x: f64, x1: f64| {
                if x1 > 0.0 {
                    x / (f64::from(k) * x1)
                } else {
                    0.0
                }
            };
            GammaPoint {
                servers: k,
                x_round_robin: rr.throughput,
                x_least_conn: lc.throughput,
                eff_round_robin: eff(rr.throughput, x1_rr),
                eff_least_conn: eff(lc.throughput, x1_lc),
            }
        })
        .collect();
    GammaSweep { points }
}

impl GammaSweep {
    /// The table of `K`, throughput, and efficiency per policy.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new([
            "db_servers",
            "x_rr(req/s)",
            "eff_rr",
            "x_lc(req/s)",
            "eff_lc",
        ]);
        for p in &self.points {
            t.row([
                p.servers.to_string(),
                num(p.x_round_robin, 1),
                num(p.eff_round_robin, 3),
                num(p.x_least_conn, 1),
                num(p.eff_least_conn, 3),
            ]);
        }
        t
    }

    /// Self-checks against the paper's qualitative claim.
    pub fn findings(&self) -> Vec<String> {
        let mut out = Vec::new();
        if let Some(last) = self.points.last() {
            out.push(format!(
                "scaling the bottleneck tier to K={}: round-robin keeps {:.0} % of linear \
                 speedup, least-connections {:.0} % (paper Eq. 4: γ < 1 corrects for \
                 imbalance and shared resources; the gap is the slow-server runaway that \
                 per-server back-pressure prevents)",
                last.servers,
                100.0 * last.eff_round_robin,
                100.0 * last.eff_least_conn
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_reference_and_growth() {
        let sweep = run_gamma_sweep(Fidelity::Quick, 3);
        assert_eq!(sweep.points.len(), 3);
        assert!(
            (sweep.points[0].eff_round_robin - 1.0).abs() < 1e-9,
            "K=1 is the reference"
        );
        // Least-connections stays near-linear where round-robin's lack of
        // back-pressure lets a slow server run away.
        let last = sweep.points.last().unwrap();
        assert!(
            last.eff_least_conn > 0.8,
            "least-conn efficiency collapsed\n{}",
            sweep.table().render()
        );
        assert!(
            last.eff_least_conn >= last.eff_round_robin - 0.05,
            "least-conn should not lose to round-robin\n{}",
            sweep.table().render()
        );
        // Throughput must still grow with K under least-connections.
        assert!(last.x_least_conn > sweep.points[0].x_least_conn * 1.5);
    }
}
