//! Validate: the DES against exact queueing theory.
//!
//! Sweeps the [`dcm_oracle`] conformance grid — topologies whose analytic
//! steady state is known exactly (product-form networks solved by
//! load-dependent MVA) — and reports the relative error of the simulator's
//! throughput, per-tier residence, and DB queue length at every
//! `(scenario, population)` point. Zero-overhead points must land within
//! 2 %, load-dependent points within 5 %, the asymptotic bounds must never
//! be violated, and every point's conservation audit must be clean.

use dcm_oracle::{
    default_grid, default_mesh_grid, run_scenario, run_scenario_cohort, Point, Scenario,
    ScenarioKind,
};
use dcm_sim::rng::derive_seed;

use crate::format::{json_rows, num, Field, TextTable, Value};

use super::Fidelity;

/// Base seed for the conformance sweep (point seeds derive from it).
const SEED: u64 = 20170607;

/// Cohort size for the aggregated-generator column: every grid point is
/// re-run with users multiplexed into cohorts of this size, and gated
/// against the same oracle.
const COHORT_SIZE: u32 = 16;

/// Tolerances for (zero-overhead, load-dependent) points at each fidelity.
/// Quick shrinks the measurement windows 10×, so the Monte-Carlo noise
/// floor rises by ~√10 and the gates widen accordingly.
fn tolerances(fidelity: Fidelity) -> (f64, f64) {
    match fidelity {
        Fidelity::Quick => (0.10, 0.12),
        Fidelity::Full => (0.02, 0.05),
    }
}

/// One grid point measured twice: once with the per-user generator, once
/// with the cohort-aggregated generator (same seed, same oracle).
#[derive(Debug, Clone)]
pub struct ValidatePoint {
    /// The per-user DES measurement.
    pub per_user: Point,
    /// The cohort-aggregated DES measurement.
    pub cohort: Point,
}

/// The conformance sweep results.
#[derive(Debug, Clone)]
pub struct Validate {
    /// Every measured grid point, in grid order.
    pub points: Vec<ValidatePoint>,
    /// Every mesh grid point (fan-out DAG, steady-state cache,
    /// heterogeneous VM capacity), in grid order. All mesh scenarios are
    /// frictionless, so the zero-overhead tolerance gates them.
    pub mesh_points: Vec<Point>,
    /// The zero-overhead tolerance applied.
    pub tol_zero: f64,
    /// The load-dependent tolerance applied.
    pub tol_law: f64,
    /// Cohort size used for the aggregated column.
    pub cohort_size: u32,
}

/// The `(scenario, population, seed)` jobs of one grid: windows scaled
/// to the fidelity, the seed of population `j` of scenario `i` derived
/// from stream `space | i << 8 | j`.
fn jobs(grid: Vec<Scenario>, fidelity: Fidelity, space: u64) -> Vec<(Scenario, u32, u64)> {
    let scale = match fidelity {
        Fidelity::Quick => 0.1,
        Fidelity::Full => 1.0,
    };
    let mut jobs = Vec::new();
    for (i, scenario) in grid.into_iter().enumerate() {
        for (j, &population) in scenario.populations.iter().enumerate() {
            let mut s = scenario.clone();
            s.warmup *= scale;
            s.measure *= scale;
            let seed = derive_seed(SEED, space | (i as u64) << 8 | j as u64);
            jobs.push((s, population, seed));
        }
    }
    jobs
}

/// Runs both conformance grids (points fan out across workers; each
/// builds its own world, so results are bit-identical for every `--jobs`
/// value).
pub fn run_validate(fidelity: Fidelity) -> Validate {
    let (tol_zero, tol_law) = tolerances(fidelity);
    let chain_jobs = jobs(default_grid(), fidelity, 0);
    let points =
        dcm_sim::runner::run_ordered(chain_jobs, |(scenario, population, seed)| ValidatePoint {
            per_user: run_scenario(&scenario, population, seed),
            cohort: run_scenario_cohort(&scenario, population, seed, COHORT_SIZE),
        });
    // A stream space distinct from the chain grid's.
    let mesh_jobs = jobs(default_mesh_grid(), fidelity, 0x4D << 16);
    let mesh_points = dcm_sim::runner::run_ordered(mesh_jobs, |(scenario, population, seed)| {
        run_scenario(&scenario, population, seed)
    });
    Validate {
        points,
        mesh_points,
        tol_zero,
        tol_law,
        cohort_size: COHORT_SIZE,
    }
}

impl Validate {
    /// The tolerance gating one point, by its oracle kind.
    fn tolerance(&self, kind: ScenarioKind) -> f64 {
        match kind {
            ScenarioKind::ZeroOverhead => self.tol_zero,
            ScenarioKind::LoadDependent => self.tol_law,
        }
    }

    /// Whether one measurement satisfies its gate: errors within the
    /// tolerance of its oracle kind, bound respected, audit clean.
    pub fn point_ok(&self, p: &Point) -> bool {
        p.max_rel_err() <= self.tolerance(p.kind) && p.bound_ok && p.audit_violations == 0
    }

    /// Whether every point passed — per-user, cohort, and mesh alike.
    pub fn passed(&self) -> bool {
        self.points
            .iter()
            .all(|p| self.point_ok(&p.per_user) && self.point_ok(&p.cohort))
            && self.mesh_points.iter().all(|p| self.point_ok(p))
    }

    /// The largest relative error across the mesh grid.
    pub fn mesh_max_rel_err(&self) -> f64 {
        worst(self.mesh_points.iter())
    }

    /// The largest per-user relative error across points of the given kind.
    pub fn max_rel_err(&self, kind: ScenarioKind) -> f64 {
        worst(
            self.points
                .iter()
                .map(|p| &p.per_user)
                .filter(|p| p.kind == kind),
        )
    }

    /// The largest cohort-aggregated relative error across points of the
    /// given kind.
    pub fn cohort_max_rel_err(&self, kind: ScenarioKind) -> f64 {
        worst(
            self.points
                .iter()
                .map(|p| &p.cohort)
                .filter(|p| p.kind == kind),
        )
    }

    /// The per-point conformance table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new([
            "scenario",
            "kind",
            "N",
            "X des",
            "X mva",
            "X err%",
            "R_web err%",
            "R_app err%",
            "R_db err%",
            "Q_db err%",
            "bound ok",
            "audits",
            "pass",
            "coh X err%",
            "coh max err%",
            "coh pass",
        ]);
        for pair in &self.points {
            t.row(self.table_row(&pair.per_user, Some(&pair.cohort)));
        }
        for p in &self.mesh_points {
            t.row(self.table_row(p, None));
        }
        t
    }

    /// One table row. The residence columns show nodes 0 and 1 and the
    /// worst remaining node (the DB on the chain). Chain rows carry their
    /// cohort twin; mesh rows have none and leave the queue and cohort
    /// columns blank.
    fn table_row(&self, p: &Point, cohort: Option<&Point>) -> [String; 16] {
        let pct = |x: f64| num(100.0 * x, 3);
        let yes = |ok: bool| if ok { "yes" } else { "NO" }.to_string();
        let dash = || "-".to_string();
        let rest = p
            .residence
            .iter()
            .skip(2)
            .map(|t| t.rel_err)
            .fold(0.0, f64::max);
        let kind = match cohort {
            Some(_) => kind_label(p.kind),
            None => "mesh",
        };
        [
            p.scenario.to_string(),
            kind.to_string(),
            p.population.to_string(),
            num(p.throughput.des, 3),
            num(p.throughput.mva, 3),
            pct(p.throughput.rel_err),
            pct(p.residence[0].rel_err),
            pct(p.residence[1].rel_err),
            pct(rest),
            cohort.map_or_else(dash, |_| pct(p.last_queue.rel_err)),
            yes(p.bound_ok),
            p.audit_violations.to_string(),
            yes(self.point_ok(p)),
            cohort.map_or_else(dash, |c| pct(c.throughput.rel_err)),
            cohort.map_or_else(dash, |c| pct(c.max_rel_err())),
            cohort.map_or_else(dash, |c| yes(self.point_ok(c))),
        ]
    }

    /// Stable JSON for `results/validate.json` (hand-rolled; keys and
    /// shapes are fixed for downstream tooling and the CI tolerance gate).
    pub fn to_json(&self) -> String {
        let mut json = String::from("{\n");
        json.push_str(&format!(
            "  \"tolerance_zero_overhead\": {:.6},\n",
            self.tol_zero
        ));
        json.push_str(&format!(
            "  \"tolerance_load_dependent\": {:.6},\n",
            self.tol_law
        ));
        json.push_str(&format!(
            "  \"max_rel_err_zero_overhead\": {:.6},\n",
            self.max_rel_err(ScenarioKind::ZeroOverhead)
        ));
        json.push_str(&format!(
            "  \"max_rel_err_load_dependent\": {:.6},\n",
            self.max_rel_err(ScenarioKind::LoadDependent)
        ));
        json.push_str(&format!("  \"cohort_size\": {},\n", self.cohort_size));
        json.push_str(&format!(
            "  \"cohort_max_rel_err_zero_overhead\": {:.6},\n",
            self.cohort_max_rel_err(ScenarioKind::ZeroOverhead)
        ));
        json.push_str(&format!(
            "  \"cohort_max_rel_err_load_dependent\": {:.6},\n",
            self.cohort_max_rel_err(ScenarioKind::LoadDependent)
        ));
        json.push_str(&format!(
            "  \"max_rel_err_mesh\": {:.6},\n",
            self.mesh_max_rel_err()
        ));
        json.push_str(&format!("  \"passed\": {},\n", self.passed()));
        let rows: Vec<_> = self.points.iter().map(|p| self.chain_row(p)).collect();
        json.push_str("  \"points\": [\n");
        json.push_str(&json_rows(&rows));
        json.push_str("  ],\n");
        let rows: Vec<_> = self.mesh_points.iter().map(|p| self.mesh_row(p)).collect();
        json.push_str("  \"mesh_points\": [\n");
        json.push_str(&json_rows(&rows));
        json.push_str("  ]\n}\n");
        json
    }

    /// One chain row of `validate.json`: the per-user point and the
    /// cohort columns.
    fn chain_row(&self, pair: &ValidatePoint) -> [Field; 16] {
        let p = &pair.per_user;
        let c = &pair.cohort;
        let r: Vec<String> = p
            .residence
            .iter()
            .map(|t| format!("{:.6}", t.rel_err))
            .collect();
        [
            ("scenario", Value::Text(p.scenario)),
            ("kind", Value::Text(kind_label(p.kind))),
            ("population", Value::int(p.population)),
            ("completions", Value::int(p.completions)),
            ("throughput_des", Value::fixed(p.throughput.des)),
            ("throughput_mva", Value::fixed(p.throughput.mva)),
            ("throughput_rel_err", Value::fixed(p.throughput.rel_err)),
            (
                "residence_rel_err",
                Value::Num(format!("[{}]", r.join(", "))),
            ),
            ("db_queue_rel_err", Value::fixed(p.last_queue.rel_err)),
            ("throughput_bound", Value::fixed(p.throughput_bound)),
            ("bound_ok", Value::int(p.bound_ok)),
            ("audit_violations", Value::int(p.audit_violations)),
            ("pass", Value::int(self.point_ok(p))),
            (
                "cohort_throughput_rel_err",
                Value::fixed(c.throughput.rel_err),
            ),
            ("cohort_max_rel_err", Value::fixed(c.max_rel_err())),
            ("cohort_pass", Value::int(self.point_ok(c))),
        ]
    }

    /// One mesh row of `validate.json`: per-node residence errors by name.
    fn mesh_row(&self, p: &Point) -> [Field; 11] {
        let nodes: Vec<String> = p
            .node_names
            .iter()
            .zip(&p.residence)
            .map(|(name, r)| format!("{{\"node\": \"{name}\", \"rel_err\": {:.6}}}", r.rel_err))
            .collect();
        [
            ("scenario", Value::Text(p.scenario)),
            ("population", Value::int(p.population)),
            ("completions", Value::int(p.completions)),
            ("throughput_des", Value::fixed(p.throughput.des)),
            ("throughput_mva", Value::fixed(p.throughput.mva)),
            ("throughput_rel_err", Value::fixed(p.throughput.rel_err)),
            ("residence", Value::Num(format!("[{}]", nodes.join(", ")))),
            ("throughput_bound", Value::fixed(p.throughput_bound)),
            ("bound_ok", Value::int(p.bound_ok)),
            ("audit_violations", Value::int(p.audit_violations)),
            ("pass", Value::int(self.point_ok(p))),
        ]
    }

    /// Self-checks against the conformance claims.
    pub fn findings(&self) -> Vec<String> {
        let zero = self.max_rel_err(ScenarioKind::ZeroOverhead);
        let law = self.max_rel_err(ScenarioKind::LoadDependent);
        let zero_points = self
            .points
            .iter()
            .filter(|p| p.per_user.kind == ScenarioKind::ZeroOverhead)
            .count();
        let law_points = self.points.len() - zero_points;
        let audits: usize = self
            .points
            .iter()
            .map(|p| p.per_user.audit_violations + p.cohort.audit_violations)
            .sum();
        vec![
            format!(
                "zero-overhead conformance: {zero_points} points, worst error \
                 {:.3}% (gate {:.0}%) — delay tiers + M/M/c DB match exact MVA",
                100.0 * zero,
                100.0 * self.tol_zero
            ),
            format!(
                "load-dependent conformance: {law_points} points, worst error \
                 {:.3}% (gate {:.0}%) — lawful DB matches MVA driven by the \
                 ground-truth S*(N)",
                100.0 * law,
                100.0 * self.tol_law
            ),
            format!(
                "cohort aggregation (size {}): worst error {:.3}% zero-overhead / \
                 {:.3}% load-dependent under the same gates — with constant \
                 think times the cohort run reproduces the per-user sample path, \
                 so these equal the per-user errors",
                self.cohort_size,
                100.0 * self.cohort_max_rel_err(ScenarioKind::ZeroOverhead),
                100.0 * self.cohort_max_rel_err(ScenarioKind::LoadDependent)
            ),
            format!(
                "asymptotic bounds: {} of {} points under X <= min(N/(Z+D), 1/D_max); \
                 conservation audits: {audits} violations across all windows",
                self.points
                    .iter()
                    .filter(|p| p.per_user.bound_ok && p.cohort.bound_ok)
                    .count(),
                self.points.len()
            ),
            format!(
                "mesh conformance: {} points (fan-out DAG, steady-state cache, \
                 heterogeneous VM capacity), worst error {:.3}% (gate {:.0}%) — \
                 DAG visit ratios, Bernoulli cache routing, and capacity-rescaled \
                 stations stay exact product-form",
                self.mesh_points.len(),
                100.0 * self.mesh_max_rel_err(),
                100.0 * self.tol_zero
            ),
        ]
    }
}

/// The largest relative error across `points` (0 when there are none).
fn worst<'a>(points: impl Iterator<Item = &'a Point>) -> f64 {
    points.map(Point::max_rel_err).fold(0.0, f64::max)
}

fn kind_label(kind: ScenarioKind) -> &'static str {
    match kind {
        ScenarioKind::ZeroOverhead => "zero-overhead",
        ScenarioKind::LoadDependent => "load-dependent",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_validate_passes_and_serializes() {
        let result = run_validate(Fidelity::Quick);
        assert!(result.points.len() >= 18, "grid too small");
        assert!(result.mesh_points.len() >= 9, "mesh grid too small");
        assert!(
            result.passed(),
            "conformance gate failed:\n{}",
            result.table().render()
        );
        let json = result.to_json();
        assert!(json.contains("\"passed\": true"));
        assert!(json.ends_with("}\n"));
        assert!(json.contains("\"cohort_max_rel_err\""));
        assert!(json.contains("\"mesh_points\""));
        assert!(json.contains("\"max_rel_err_mesh\""));
        assert_eq!(result.findings().len(), 5);
        assert_eq!(
            result.table().len(),
            result.points.len() + result.mesh_points.len()
        );
    }
}
