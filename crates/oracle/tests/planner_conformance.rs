//! Predicted-vs-realized conformance for the MPC planner: on frictionless
//! scenarios the planner's MVA prediction of the *deployed* configuration
//! must match the DES-measured throughput within the PR-3 zero-overhead
//! gate (2 %). This is the planner-side half of the satellite; the
//! full-stack half (the MPC's journaled per-tick prediction error) lives
//! in the bench crate's full-stack tests.

use dcm_ntier::law::ServiceLaw;
use dcm_oracle::planner::{predict, PlannedTier};
use dcm_oracle::{run_scenario, Scenario};

fn planner_tiers(s: &Scenario) -> Vec<PlannedTier> {
    let visits = s.visit_ratios();
    s.nodes
        .iter()
        .zip(visits)
        .map(|(node, visits)| PlannedTier {
            servers: node.capacities.len() as u32,
            concurrency: node.threads,
            demand: node.demand(),
            visits,
        })
        .collect()
}

/// The PR-3 zero-overhead conformance gate.
const GATE: f64 = 0.02;

fn scenario(name: &'static str, db_threads: u32, db_demand: f64, db_visits: u32) -> Scenario {
    Scenario::chain(
        name,
        (1, 1, 1),
        db_threads,
        [0.005, 0.012],
        db_visits,
        1.0,
        ServiceLaw::frictionless(db_demand),
    )
    .sweep(&[], 200.0, 4000.0)
}

#[test]
fn planner_prediction_matches_des_within_gates() {
    // Single-DB frictionless points: the planner's one pooled station is
    // exactly the conformance network, so the 2 % gate applies directly.
    let cases = [
        (scenario("plan-mm1", 1, 0.04, 1), 12u32),
        (scenario("plan-mm1-hot", 1, 0.04, 1), 22u32),
        (scenario("plan-mm4", 4, 0.05, 2), 16u32),
        (scenario("plan-mm4-hot", 4, 0.05, 2), 36u32),
    ];
    for (s, population) in cases {
        let point = run_scenario(&s, population, 0x0D0C_5EED);
        let plan = predict(&planner_tiers(&s), s.think, population);
        let err = (plan.throughput - point.throughput.des).abs() / plan.throughput;
        assert!(
            err <= GATE,
            "{} N={population}: planner X {:.4} vs DES {:.4} ({:.2} % > {:.0} %)",
            s.name,
            plan.throughput,
            point.throughput.des,
            100.0 * err,
            100.0 * GATE
        );
        assert_eq!(point.audit_violations, 0, "{} audit", s.name);
        // The planner agrees with the conformance harness's own MVA to
        // float precision (same network, same solver).
        let mva_err = (plan.throughput - point.throughput.mva).abs() / plan.throughput;
        assert!(
            mva_err < 1e-9,
            "{}: planner X {:.6} vs oracle MVA {:.6}",
            s.name,
            plan.throughput,
            point.throughput.mva
        );
    }
}
