//! Mesh bench: the controllers leave the chain.
//!
//! Every prior controller experiment ran the paper's fixed three-tier
//! chain. This one runs the generalized topology the `dcm-ntier` DAG
//! dispatch supports — a fan-out microservice mesh with a **warming cache**
//! and a **mixed-flavor VM fleet** — and asks whether the controllers'
//! rankings survive the move:
//!
//! * **Topology.** `web → app → {db×2, svc}`: the app tier calls the DB
//!   twice and a side service once per request (tree-shaped call graph,
//!   per-request [`dcm_ntier::graph::TopologyGraph`]).
//! * **Cache.** The app tier caches DB responses; the hit ratio warms from
//!   0 toward its steady-state maximum over served requests
//!   ([`dcm_workload::CacheDynamics`]), so the bottleneck *migrates* from
//!   the DB toward the app/service tiers mid-run — a regime change no
//!   static-threshold controller was tuned for.
//! * **VM types.** The DB tier launches alternating small/large flavors
//!   ([`VmPolicy::cycle`]) and the app tier buys the cheapest capacity per
//!   dollar from a large/xlarge catalog, so the cost metric is **dollars**
//!   ([`TraceRunResult::vm_cost`]), not VM-hours.
//!
//! DCM, MPC, and EC2-AutoScale each face the step and flash-crowd traces.
//! Every cell builds its own world from the same seed, so the matrix is
//! bit-identical for every `--jobs` value.

use dcm_core::controller::{Dcm, DcmConfig, DcmModels, Ec2AutoScale};
use dcm_core::experiment::{
    run_mesh_trace_experiment, MeshExperimentConfig, TraceExperimentConfig, TraceRunResult,
};
use dcm_core::mpc::{ModelPredictive, MpcConfig};
use dcm_core::policy::ScalingConfig;
use dcm_ntier::graph::TopologyGraph;
use dcm_ntier::law::reference;
use dcm_ntier::server::VmType;
use dcm_ntier::system::{VmPolicy, VmSelection};
use dcm_ntier::topology::MeshNode;
use dcm_sim::dist::Dist;
use dcm_sim::time::{SimDuration, SimTime};
use dcm_workload::cache::CacheDynamics;
use dcm_workload::profile::{CacheEdge, NodeDemand};
use dcm_workload::traces;

use crate::format::{csv_rows, json_rows, num, Field, TextTable, Value};

use super::Fidelity;

/// Response-time windows used for SLO accounting, in seconds.
const WINDOW_SECS: f64 = 5.0;
/// The response-time SLO every controller is judged against.
const SLO_SECS: f64 = 1.0;
/// Shared seed: every cell differs only in controller and trace.
const SEED: u64 = 4242;

/// The mesh bench's contestants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshController {
    /// The paper's two-level controller (hardware + soft resources).
    Dcm,
    /// MVA-predictive planner over candidate topologies and pools.
    Mpc,
    /// Hardware-only threshold baseline.
    Ec2,
}

impl MeshController {
    /// All contestants, in matrix order.
    pub const ALL: [MeshController; 3] = [
        MeshController::Dcm,
        MeshController::Mpc,
        MeshController::Ec2,
    ];

    /// Display name (matches each controller's `Controller::name`).
    pub fn name(self) -> &'static str {
        match self {
            MeshController::Dcm => "DCM",
            MeshController::Mpc => "MPC",
            MeshController::Ec2 => "EC2-AutoScale",
        }
    }
}

/// The traces every contestant faces on the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshTrace {
    /// Ramp to a plateau (the cache warms through the ramp).
    Step,
    /// Flash crowd arriving before the cache has warmed.
    Flash,
}

impl MeshTrace {
    /// All traces, in matrix order.
    pub const ALL: [MeshTrace; 2] = [MeshTrace::Step, MeshTrace::Flash];

    /// Short artifact name.
    pub fn name(self) -> &'static str {
        match self {
            MeshTrace::Step => "step",
            MeshTrace::Flash => "flash",
        }
    }
}

/// Steady-state cache hit ratio the app→db edge warms toward.
pub const CACHE_MAX_HIT: f64 = 0.6;
/// Requests over which the cache warms to `1 − 1/e` of its maximum.
pub const CACHE_WARMUP_REQUESTS: f64 = 3000.0;

/// The mesh every cell runs: topology, demands, cache, VM policies.
/// Public so the degeneracy tests and `repro explain` can inspect it.
pub fn mesh_experiment_config(trace: MeshTrace, fidelity: Fidelity) -> MeshExperimentConfig {
    let horizon_secs = match fidelity {
        Fidelity::Quick => 240.0,
        Fidelity::Full => 600.0,
    };
    let trace = match trace {
        MeshTrace::Step => traces::step(60, 240, 30.0),
        MeshTrace::Flash => traces::flash_crowd(60, 280, horizon_secs * 0.35, horizon_secs * 0.25),
    };
    let mut run = TraceExperimentConfig::figure5(trace);
    run.horizon = SimTime::from_secs_f64(horizon_secs);
    run.seed = SEED;
    run.control_period = SimDuration::from_secs(15);
    // web(0) → app(1) → db(2) ×2 calls, app(1) → svc(3) ×1 call. The DB
    // keeps tier index 2, so DcmConfig/MpcConfig defaults (app tier 1, DB
    // tier 2) target the same tiers they do on the chain.
    let graph = TopologyGraph::from_edges(4, &[(0, 1, 1), (1, 2, 2), (1, 3, 1)]);
    MeshExperimentConfig {
        run,
        nodes: vec![
            MeshNode::new("web", reference::apache(), 1000),
            MeshNode::new("app", reference::tomcat(), 200)
                .conns(40)
                .vm_policy(VmPolicy {
                    types: vec![VmType::LARGE, VmType::XLARGE],
                    selection: VmSelection::CheapestPerCapacity,
                }),
            MeshNode::new("db", reference::mysql(), 800)
                .vm_policy(VmPolicy::cycle(vec![VmType::SMALL, VmType::LARGE])),
            MeshNode::new("svc", reference::tomcat(), 50).count(2),
        ],
        graph,
        demands: vec![
            NodeDemand::split(Dist::constant(0.002)),
            NodeDemand::split(Dist::constant(0.008)),
            NodeDemand::leaf(Dist::exponential_mean(0.02)).iid_visits(),
            NodeDemand::leaf(Dist::exponential_mean(0.012)).iid_visits(),
        ],
        cache: Some(CacheEdge {
            from: 1,
            to: 2,
            dynamics: CacheDynamics::new(CACHE_MAX_HIT, CACHE_WARMUP_REQUESTS),
        }),
    }
}

/// One (controller, trace) cell of the mesh matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshCell {
    /// Controller display name.
    pub controller: &'static str,
    /// Trace name.
    pub trace: &'static str,
    /// Successful completions over the run.
    pub completed: u64,
    /// Completions per second over the run.
    pub goodput: f64,
    /// Fraction of requests meeting the 1 s SLO.
    pub slo_attainment_1s: f64,
    /// Seconds spent in 5 s windows whose mean RT exceeded the SLO.
    pub slo_violation_secs: f64,
    /// Total VM-seconds across tiers, in hours.
    pub vm_hours: f64,
    /// Total dollars across tiers — the metric that separates flavors
    /// VM-hours cannot.
    pub vm_dollars: f64,
    /// Candidate-plan evaluations (deterministic decision-latency proxy).
    pub planner_evals: u64,
    /// Scaling actions the controller actually applied.
    pub actions: usize,
}

impl MeshCell {
    /// The cell's row in `mesh.json` and `mesh.csv`.
    fn fields(&self) -> [Field; 10] {
        [
            ("controller", Value::Text(self.controller)),
            ("trace", Value::Text(self.trace)),
            ("completed", Value::int(self.completed)),
            ("goodput", Value::fixed(self.goodput)),
            ("slo_attainment_1s", Value::fixed(self.slo_attainment_1s)),
            ("slo_violation_secs", Value::fixed(self.slo_violation_secs)),
            ("vm_hours", Value::fixed(self.vm_hours)),
            ("vm_dollars", Value::fixed(self.vm_dollars)),
            ("planner_evals", Value::int(self.planner_evals)),
            ("actions", Value::int(self.actions)),
        ]
    }
}

/// Reduces one mesh run to its cell metrics.
pub fn summarize_mesh_cell(
    controller: MeshController,
    trace: MeshTrace,
    run: &TraceRunResult,
) -> MeshCell {
    let overall = run.overall();
    let series = run.series(SimDuration::from_secs_f64(WINDOW_SECS));
    let violated = series.mean_rt.iter().filter(|&(_, v)| v > SLO_SECS).count();
    MeshCell {
        controller: controller.name(),
        trace: trace.name(),
        completed: run.counters.completed,
        goodput: overall.throughput(),
        slo_attainment_1s: overall.sla_attainment(SLO_SECS),
        slo_violation_secs: violated as f64 * WINDOW_SECS,
        vm_hours: run.total_vm_seconds() / 3600.0,
        vm_dollars: run.total_vm_cost(),
        planner_evals: run.planner_evals,
        actions: run.actions.len(),
    }
}

/// The full mesh bench result.
#[derive(Debug, Clone)]
pub struct MeshBench {
    /// All cells, controller-major in [`MeshController::ALL`] order, traces
    /// in [`MeshTrace::ALL`] order.
    pub cells: Vec<MeshCell>,
    /// Run length per cell in seconds.
    pub horizon_secs: f64,
}

fn run_cell(
    controller: MeshController,
    trace: MeshTrace,
    fidelity: Fidelity,
    models: DcmModels,
) -> TraceRunResult {
    let config = mesh_experiment_config(trace, fidelity);
    match controller {
        MeshController::Dcm => {
            run_mesh_trace_experiment(&config, |bus| Dcm::new(bus, DcmConfig::default(), models))
        }
        MeshController::Mpc => run_mesh_trace_experiment(&config, |bus| {
            ModelPredictive::new(bus, MpcConfig::default(), models)
        }),
        MeshController::Ec2 => run_mesh_trace_experiment(&config, |bus| {
            Ec2AutoScale::new(bus, ScalingConfig::default())
        }),
    }
}

/// Runs the full mesh matrix (cells fan out across workers; each builds
/// its own world from the same seed, so the result is bit-identical for
/// every `--jobs` value).
pub fn run_mesh(fidelity: Fidelity, models: DcmModels) -> MeshBench {
    let descriptors: Vec<(MeshController, MeshTrace)> = MeshController::ALL
        .iter()
        .flat_map(|&c| MeshTrace::ALL.iter().map(move |&t| (c, t)))
        .collect();
    let cells = dcm_sim::runner::run_ordered(descriptors, |(controller, trace)| {
        let run = run_cell(controller, trace, fidelity, models);
        summarize_mesh_cell(controller, trace, &run)
    });
    let horizon_secs = match fidelity {
        Fidelity::Quick => 240.0,
        Fidelity::Full => 600.0,
    };
    MeshBench {
        cells,
        horizon_secs,
    }
}

impl MeshBench {
    /// A cell by controller and trace kind.
    pub fn cell(&self, controller: MeshController, trace: MeshTrace) -> &MeshCell {
        self.cells
            .iter()
            .find(|c| c.controller == controller.name() && c.trace == trace.name())
            .expect("every (controller, trace) pair ran")
    }

    /// The matrix table, one row per cell.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new([
            "controller",
            "trace",
            "completed",
            "goodput",
            "SLO att.",
            "SLO-viol (s)",
            "VM-hours",
            "dollars",
            "plan evals",
            "actions",
        ]);
        for c in &self.cells {
            t.row([
                c.controller.to_string(),
                c.trace.to_string(),
                c.completed.to_string(),
                num(c.goodput, 1),
                num(c.slo_attainment_1s, 3),
                num(c.slo_violation_secs, 0),
                num(c.vm_hours, 3),
                num(c.vm_dollars, 4),
                c.planner_evals.to_string(),
                c.actions.to_string(),
            ]);
        }
        t
    }

    /// Stable JSON for `results/mesh.json` (hand-rolled; keys and shapes
    /// are fixed for downstream tooling and the determinism check).
    pub fn to_json(&self) -> String {
        let cells: Vec<_> = self.cells.iter().map(MeshCell::fields).collect();
        format!(
            "{{\n  \"horizon_secs\": {:.6},\n  \"cache_max_hit\": {:.6},\n  \
             \"cache_warmup_requests\": {:.6},\n  \"cells\": [\n{}  ]\n}}\n",
            self.horizon_secs,
            CACHE_MAX_HIT,
            CACHE_WARMUP_REQUESTS,
            json_rows(&cells),
        )
    }

    /// CSV of the matrix for `results/mesh.csv`: the same fields as the
    /// JSON cell rows.
    pub fn to_csv(&self) -> String {
        let cells: Vec<_> = self.cells.iter().map(MeshCell::fields).collect();
        csv_rows(&cells)
    }

    /// Self-checks against the mesh bench's qualitative claims.
    pub fn findings(&self) -> Vec<String> {
        let mut out = Vec::new();
        out.push(format!(
            "topology: web → app → {{db×2, svc}} with a cache on the app→db \
             edge warming to {:.0}% hits over ~{:.0} requests — the DB \
             bottleneck softens mid-run as V_db falls toward {:.1}",
            100.0 * CACHE_MAX_HIT,
            CACHE_WARMUP_REQUESTS,
            2.0 * (1.0 - CACHE_MAX_HIT),
        ));
        for trace in MeshTrace::ALL {
            let dcm = self.cell(MeshController::Dcm, trace);
            let ec2 = self.cell(MeshController::Ec2, trace);
            out.push(format!(
                "{}: DCM attains {:.3} of the 1 s SLO for ${:.4} vs \
                 EC2-AutoScale {:.3} for ${:.4} (mixed small/large DB fleet, \
                 cheapest-per-capacity app fleet — costs are dollars, not \
                 VM-hours)",
                trace.name(),
                dcm.slo_attainment_1s,
                dcm.vm_dollars,
                ec2.slo_attainment_1s,
                ec2.vm_dollars,
            ));
        }
        let mpc = self.cell(MeshController::Mpc, MeshTrace::Step);
        out.push(format!(
            "decision latency: MPC paid {} plan evaluations on the mesh; \
             DCM and EC2-AutoScale paid 0",
            mpc.planner_evals
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcm_model::concurrency::ConcurrencyModel;

    fn models() -> DcmModels {
        let app = reference::tomcat();
        let db = reference::mysql();
        DcmModels {
            app: ConcurrencyModel::new(app.s0(), app.alpha(), app.beta(), 1.0, 1),
            db: ConcurrencyModel::new(db.s0(), db.alpha(), db.beta(), 1.0, 1),
        }
    }

    #[test]
    fn mesh_matrix_runs_every_cell_with_real_work() {
        let bench = run_mesh(Fidelity::Quick, models());
        assert_eq!(
            bench.cells.len(),
            MeshController::ALL.len() * MeshTrace::ALL.len()
        );
        for cell in &bench.cells {
            assert!(cell.completed > 0, "{cell:?}");
            assert!(cell.vm_hours > 0.0, "{cell:?}");
            assert!(cell.vm_dollars > 0.0, "{cell:?}");
        }
        // The mixed fleet separates the dollar metric from VM-hours: with
        // everything priced at the small flavor's rate, hours × price would
        // equal dollars; the large DB / large app flavors must push real
        // spend strictly above that floor.
        for cell in &bench.cells {
            let small_floor = cell.vm_hours * VmType::SMALL.price_per_hour;
            assert!(
                cell.vm_dollars > small_floor * 1.05,
                "mixed fleet must out-price the all-small floor: {cell:?}"
            );
        }
        // Only MPC plans.
        for trace in MeshTrace::ALL {
            assert!(bench.cell(MeshController::Mpc, trace).planner_evals > 0);
            assert_eq!(bench.cell(MeshController::Dcm, trace).planner_evals, 0);
            assert_eq!(bench.cell(MeshController::Ec2, trace).planner_evals, 0);
        }
        // Artifacts are well-formed.
        assert!(bench.to_json().ends_with("}\n"));
        assert_eq!(bench.to_csv().lines().count(), 1 + bench.cells.len());
        assert!(bench.findings().len() >= 4);
    }

    #[test]
    fn json_cell_rows_match_csv_lines() {
        let run = run_cell(
            MeshController::Dcm,
            MeshTrace::Step,
            Fidelity::Quick,
            models(),
        );
        let bench = MeshBench {
            cells: vec![summarize_mesh_cell(
                MeshController::Dcm,
                MeshTrace::Step,
                &run,
            )],
            horizon_secs: 240.0,
        };
        crate::format::assert_json_cells_match_csv(&bench.to_json(), &bench.to_csv());
    }

    #[test]
    fn mesh_is_identical_across_worker_counts() {
        // The determinism contract behind `--jobs`: re-running the matrix
        // must reproduce the artifacts byte for byte.
        dcm_sim::runner::set_jobs(1);
        let serial = run_mesh(Fidelity::Quick, models());
        dcm_sim::runner::set_jobs(4);
        let parallel = run_mesh(Fidelity::Quick, models());
        dcm_sim::runner::set_jobs(0);
        assert_eq!(serial.to_json(), parallel.to_json());
        assert_eq!(serial.to_csv(), parallel.to_csv());
    }
}
