//! Controller league: every controller in the repo — DCM, the
//! EC2-AutoScale baseline, the MVA-predictive MPC planner, and the
//! baseline zoo (M/M/c threshold staffing, Holt-Winters predictive
//! staffing) — runs the same trace library (step, flash crowd, sine, and
//! a chaos trace with an app-VM crash, a DB straggler, and transient
//! faults) and is ranked on the numbers that matter operationally:
//!
//! * **SLO-violation seconds** — 5-second windows whose mean response
//!   time exceeds the 1 s SLO, times the window length.
//! * **VM-hours** — the resource bill.
//! * **decision latency** — candidate-plan evaluations the controller
//!   performed ([`dcm_core::controller::Controller::planner_evals`]), a
//!   deterministic proxy (wall clocks are banned in Strict crates).
//! * **retry amplification** — tier-entry attempts per logical request
//!   (only the chaos trace arms client retries).
//!
//! Every cell builds its own world from the same seed, so the matrix is
//! bit-identical for every `--jobs` value. The MPC step-trace run also
//! captures its decision journal (plan provenance: candidates evaluated,
//! predicted throughput/response, chosen plan, rolling prediction error),
//! exported as `results/league_mpc.journal.json`.

use dcm_core::controller::{Dcm, DcmConfig, DcmModels, Ec2AutoScale};
use dcm_core::experiment::{
    run_trace_experiment, ObsConfig, TraceExperimentConfig, TraceRunResult,
};
use dcm_core::mpc::{ModelPredictive, MpcConfig};
use dcm_core::policy::ScalingConfig;
use dcm_core::predictor::HoltConfig;
use dcm_core::zoo::{HoltWinters, StaffingConfig, ThresholdMmc};
use dcm_ntier::system::InterTierRetry;
use dcm_sim::faults::FaultPlan;
use dcm_sim::time::{SimDuration, SimTime};
use dcm_workload::generator::RetryPolicy;
use dcm_workload::traces;

use crate::format::{csv_rows, json_rows, num, Field, TextTable, Value};

use super::Fidelity;

/// Response-time windows used for SLO accounting, in seconds.
const WINDOW_SECS: f64 = 5.0;
/// The response-time SLO every controller is judged against.
const SLO_SECS: f64 = 1.0;

/// The league's contestants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerKind {
    /// The paper's two-level controller (hardware + soft resources).
    Dcm,
    /// Hardware-only threshold baseline.
    Ec2,
    /// MVA-predictive planner over candidate topologies and pools.
    Mpc,
    /// M/M/c-style utilization-law staffing.
    Mmc,
    /// Holt-trend predictive staffing.
    HoltWinters,
}

impl ControllerKind {
    /// All contestants, in ranking-table order.
    pub const ALL: [ControllerKind; 5] = [
        ControllerKind::Dcm,
        ControllerKind::Ec2,
        ControllerKind::Mpc,
        ControllerKind::Mmc,
        ControllerKind::HoltWinters,
    ];

    /// Display name (matches each controller's `Controller::name`).
    pub fn name(self) -> &'static str {
        match self {
            ControllerKind::Dcm => "DCM",
            ControllerKind::Ec2 => "EC2-AutoScale",
            ControllerKind::Mpc => "MPC",
            ControllerKind::Mmc => "MMC-Threshold",
            ControllerKind::HoltWinters => "Holt-Winters",
        }
    }
}

/// The trace library every contestant faces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Fig. 5-style ramp to a plateau.
    Step,
    /// Flash crowd: sudden spike, then back to base load.
    Flash,
    /// Slow sinusoidal swing (tests scale-in as much as scale-out).
    Sine,
    /// The step trace plus the chaos fault schedule (crash, straggler,
    /// transient failures) with client retries and deadlines armed.
    Chaos,
}

impl TraceKind {
    /// All traces, in matrix order.
    pub const ALL: [TraceKind; 4] = [
        TraceKind::Step,
        TraceKind::Flash,
        TraceKind::Sine,
        TraceKind::Chaos,
    ];

    /// Short artifact name.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Step => "step",
            TraceKind::Flash => "flash",
            TraceKind::Sine => "sine",
            TraceKind::Chaos => "chaos",
        }
    }
}

/// The experiment configuration one league cell runs under. Identical for
/// every controller facing the same trace (same seed, same horizon), so
/// the matrix compares controllers and nothing else.
pub fn league_trace_config(kind: TraceKind, fidelity: Fidelity) -> TraceExperimentConfig {
    let horizon_secs = match fidelity {
        Fidelity::Quick => 240.0,
        Fidelity::Full => 600.0,
    };
    let trace = match kind {
        TraceKind::Step | TraceKind::Chaos => traces::step(60, 240, 30.0),
        TraceKind::Flash => traces::flash_crowd(60, 280, horizon_secs * 0.35, horizon_secs * 0.25),
        TraceKind::Sine => traces::sine(60, 220, horizon_secs / 2.0, horizon_secs, 10.0),
    };
    let mut config = TraceExperimentConfig::figure5(trace);
    config.horizon = SimTime::from_secs_f64(horizon_secs);
    config.seed = 4242;
    if kind == TraceKind::Chaos {
        let crash_at = horizon_secs / 2.0;
        config.fault_plan = Some(
            FaultPlan::none()
                .with_crash(crash_at, 1, 0)
                .with_straggler(crash_at + 60.0, 2, 0, 4.0, 45.0)
                .with_transient_failures(0.002),
        );
        config.client_retry = Some(RetryPolicy::default());
        config.request_deadline_secs = Some(8.0);
        config.inter_tier_retry = Some(InterTierRetry::default());
    }
    config
}

/// One (controller, trace) cell of the league matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct LeagueCell {
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
    /// Candidate-plan evaluations (deterministic decision-latency proxy).
    pub planner_evals: u64,
    /// Tier-entry attempts per logical client request.
    pub retry_amplification: f64,
    /// Scaling actions the controller actually applied.
    pub actions: usize,
}

impl LeagueCell {
    /// The cell's row in `league.json` and `league.csv`.
    fn fields(&self) -> [Field; 10] {
        [
            ("controller", Value::Text(self.controller)),
            ("trace", Value::Text(self.trace)),
            ("completed", Value::int(self.completed)),
            ("goodput", Value::fixed(self.goodput)),
            ("slo_attainment_1s", Value::fixed(self.slo_attainment_1s)),
            ("slo_violation_secs", Value::fixed(self.slo_violation_secs)),
            ("vm_hours", Value::fixed(self.vm_hours)),
            ("planner_evals", Value::int(self.planner_evals)),
            (
                "retry_amplification",
                Value::fixed(self.retry_amplification),
            ),
            ("actions", Value::int(self.actions)),
        ]
    }
}

/// Reduces one run to its league metrics.
pub fn summarize_cell(
    controller: ControllerKind,
    trace: TraceKind,
    run: &TraceRunResult,
) -> LeagueCell {
    let overall = run.overall();
    let series = run.series(SimDuration::from_secs_f64(WINDOW_SECS));
    let violated = series.mean_rt.iter().filter(|&(_, v)| v > SLO_SECS).count();
    let logical = run.completions.len().max(1) as u64;
    LeagueCell {
        controller: controller.name(),
        trace: trace.name(),
        completed: run.counters.completed,
        goodput: overall.throughput(),
        slo_attainment_1s: overall.sla_attainment(SLO_SECS),
        slo_violation_secs: violated as f64 * WINDOW_SECS,
        vm_hours: run.total_vm_seconds() / 3600.0,
        planner_evals: run.planner_evals,
        retry_amplification: run.counters.submitted as f64 / logical as f64,
        actions: run.actions.len(),
    }
}

/// One controller's aggregate across the whole trace library, ranked.
#[derive(Debug, Clone, PartialEq)]
pub struct LeagueStanding {
    /// 1-based rank (1 = winner).
    pub rank: usize,
    /// Controller display name.
    pub controller: &'static str,
    /// SLO-violation seconds summed across traces.
    pub slo_violation_secs: f64,
    /// VM-hours summed across traces.
    pub vm_hours: f64,
    /// Plan evaluations summed across traces.
    pub planner_evals: u64,
    /// Mean retry amplification across traces.
    pub retry_amplification: f64,
}

impl LeagueStanding {
    /// The standing's row in `league.json`.
    fn fields(&self) -> [Field; 6] {
        [
            ("rank", Value::int(self.rank)),
            ("controller", Value::Text(self.controller)),
            ("slo_violation_secs", Value::fixed(self.slo_violation_secs)),
            ("vm_hours", Value::fixed(self.vm_hours)),
            ("planner_evals", Value::int(self.planner_evals)),
            (
                "retry_amplification",
                Value::fixed(self.retry_amplification),
            ),
        ]
    }
}

/// The full league result: the raw matrix, the ranking, and the MPC
/// decision journal captured from the step-trace run.
#[derive(Debug, Clone)]
pub struct League {
    /// All cells, controller-major in [`ControllerKind::ALL`] order, traces
    /// in [`TraceKind::ALL`] order.
    pub cells: Vec<LeagueCell>,
    /// Controllers ranked by (SLO-violation seconds, VM-hours, plan
    /// evaluations) ascending.
    pub standings: Vec<LeagueStanding>,
    /// Run length per cell in seconds.
    pub horizon_secs: f64,
    /// Stable JSON of the MPC step-trace decision journal (plan
    /// provenance: candidates, predictions, chosen plan, prediction
    /// error). Written to `results/league_mpc.journal.json`.
    pub mpc_journal_json: String,
    /// Human-readable journal (for `repro explain league`).
    pub mpc_journal_explain: String,
}

fn run_cell(
    controller: ControllerKind,
    trace: TraceKind,
    fidelity: Fidelity,
    models: DcmModels,
) -> TraceRunResult {
    let mut config = league_trace_config(trace, fidelity);
    if controller == ControllerKind::Mpc && trace == TraceKind::Step {
        // Capture plan provenance once, on the clean ramp.
        config.obs = Some(ObsConfig::default());
    }
    match controller {
        ControllerKind::Dcm => {
            run_trace_experiment(&config, |bus| Dcm::new(bus, DcmConfig::default(), models))
        }
        ControllerKind::Ec2 => run_trace_experiment(&config, |bus| {
            Ec2AutoScale::new(bus, ScalingConfig::default())
        }),
        ControllerKind::Mpc => run_trace_experiment(&config, |bus| {
            ModelPredictive::new(bus, MpcConfig::default(), models)
        }),
        ControllerKind::Mmc => run_trace_experiment(&config, |bus| {
            ThresholdMmc::new(bus, StaffingConfig::default())
        }),
        ControllerKind::HoltWinters => run_trace_experiment(&config, |bus| {
            HoltWinters::new(bus, StaffingConfig::default(), HoltConfig::default())
        }),
    }
}

/// Runs the full matrix (in parallel when jobs > 1; each cell builds its
/// own world from the same per-trace seed, so the result is bit-identical
/// for every `--jobs` value) and ranks the contestants.
pub fn run_league(fidelity: Fidelity, models: DcmModels) -> League {
    let descriptors: Vec<(ControllerKind, TraceKind)> = ControllerKind::ALL
        .iter()
        .flat_map(|&c| TraceKind::ALL.iter().map(move |&t| (c, t)))
        .collect();
    let runs = dcm_sim::runner::run_ordered(descriptors, |(controller, trace)| {
        let run = run_cell(controller, trace, fidelity, models);
        let cell = summarize_cell(controller, trace, &run);
        let journal = (controller == ControllerKind::Mpc && trace == TraceKind::Step).then(|| {
            let obs = run
                .obs
                .as_ref()
                .expect("MPC step cell runs with obs enabled");
            (obs.journal.to_json(), obs.journal.render_explain(false))
        });
        (cell, journal)
    });

    let mut cells = Vec::with_capacity(runs.len());
    let mut mpc_journal_json = String::new();
    let mut mpc_journal_explain = String::new();
    for (cell, journal) in runs {
        if let Some((json, explain)) = journal {
            mpc_journal_json = json;
            mpc_journal_explain = explain;
        }
        cells.push(cell);
    }

    let horizon_secs = match fidelity {
        Fidelity::Quick => 240.0,
        Fidelity::Full => 600.0,
    };
    let standings = standings_of(&cells);
    League {
        cells,
        standings,
        horizon_secs,
        mpc_journal_json,
        mpc_journal_explain,
    }
}

fn standings_of(cells: &[LeagueCell]) -> Vec<LeagueStanding> {
    let mut standings: Vec<LeagueStanding> = ControllerKind::ALL
        .iter()
        .map(|&c| {
            let mine: Vec<&LeagueCell> = cells
                .iter()
                .filter(|cell| cell.controller == c.name())
                .collect();
            let n = mine.len().max(1) as f64;
            LeagueStanding {
                rank: 0,
                controller: c.name(),
                slo_violation_secs: mine.iter().map(|c| c.slo_violation_secs).sum(),
                vm_hours: mine.iter().map(|c| c.vm_hours).sum(),
                planner_evals: mine.iter().map(|c| c.planner_evals).sum(),
                retry_amplification: mine.iter().map(|c| c.retry_amplification).sum::<f64>() / n,
            }
        })
        .collect();
    standings.sort_by(|a, b| {
        a.slo_violation_secs
            .total_cmp(&b.slo_violation_secs)
            .then(a.vm_hours.total_cmp(&b.vm_hours))
            .then(a.planner_evals.cmp(&b.planner_evals))
            .then(a.controller.cmp(b.controller))
    });
    for (i, s) in standings.iter_mut().enumerate() {
        s.rank = i + 1;
    }
    standings
}

impl League {
    /// A cell by controller and trace kind.
    pub fn cell(&self, controller: ControllerKind, trace: TraceKind) -> &LeagueCell {
        self.cells
            .iter()
            .find(|c| c.controller == controller.name() && c.trace == trace.name())
            .expect("every (controller, trace) pair ran")
    }

    /// The ranking table (the headline of `repro explain league`).
    pub fn standings_table(&self) -> TextTable {
        let mut t = TextTable::new([
            "rank",
            "controller",
            "SLO-violation (s)",
            "VM-hours",
            "plan evals",
            "retry amp",
        ]);
        for s in &self.standings {
            t.row([
                s.rank.to_string(),
                s.controller.to_string(),
                num(s.slo_violation_secs, 0),
                num(s.vm_hours, 3),
                s.planner_evals.to_string(),
                num(s.retry_amplification, 3),
            ]);
        }
        t
    }

    /// The full matrix table, one row per cell.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new([
            "controller",
            "trace",
            "completed",
            "goodput",
            "SLO att.",
            "SLO-viol (s)",
            "VM-hours",
            "plan evals",
            "retry amp",
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
                c.planner_evals.to_string(),
                num(c.retry_amplification, 3),
                c.actions.to_string(),
            ]);
        }
        t
    }

    /// Stable JSON for `results/league.json` (hand-rolled; keys and shapes
    /// are fixed for downstream tooling and the determinism check).
    pub fn to_json(&self) -> String {
        let standings: Vec<_> = self.standings.iter().map(LeagueStanding::fields).collect();
        let cells: Vec<_> = self.cells.iter().map(LeagueCell::fields).collect();
        format!(
            "{{\n  \"horizon_secs\": {:.6},\n  \"standings\": [\n{}  ],\n  \
             \"cells\": [\n{}  ]\n}}\n",
            self.horizon_secs,
            json_rows(&standings),
            json_rows(&cells),
        )
    }

    /// CSV of the raw matrix for `results/league.csv`: the same fields as
    /// the JSON cell rows.
    pub fn to_csv(&self) -> String {
        let cells: Vec<_> = self.cells.iter().map(LeagueCell::fields).collect();
        csv_rows(&cells)
    }

    /// Self-checks against the league's qualitative claims.
    pub fn findings(&self) -> Vec<String> {
        let mut out = Vec::new();
        let winner = &self.standings[0];
        out.push(format!(
            "ranking: {} wins the league ({} SLO-violation seconds, {:.3} \
             VM-hours across {} traces)",
            winner.controller,
            num(winner.slo_violation_secs, 0),
            winner.vm_hours,
            TraceKind::ALL.len()
        ));
        for trace in [TraceKind::Step, TraceKind::Flash] {
            let mpc = self.cell(ControllerKind::Mpc, trace);
            let dcm = self.cell(ControllerKind::Dcm, trace);
            out.push(format!(
                "{}: MPC SLO attainment {:.3} at {:.3} VM-hours vs DCM {:.3} \
                 at {:.3} VM-hours (the planner buys the SLO no dearer than \
                 the reactive controller)",
                trace.name(),
                mpc.slo_attainment_1s,
                mpc.vm_hours,
                dcm.slo_attainment_1s,
                dcm.vm_hours,
            ));
        }
        let chaos_mpc = self.cell(ControllerKind::Mpc, TraceKind::Chaos);
        out.push(format!(
            "chaos: MPC keeps retry amplification at {:.3} with {} \
             SLO-violation seconds under crash + straggler + transient faults",
            chaos_mpc.retry_amplification,
            num(chaos_mpc.slo_violation_secs, 0),
        ));
        out.push(format!(
            "decision latency: MPC paid {} plan evaluations; every model-free \
             baseline paid 0",
            self.cell(ControllerKind::Mpc, TraceKind::Step)
                .planner_evals
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcm_model::concurrency::ConcurrencyModel;
    use dcm_ntier::law::reference;

    fn models() -> DcmModels {
        let app = reference::tomcat();
        let db = reference::mysql();
        DcmModels {
            app: ConcurrencyModel::new(app.s0(), app.alpha(), app.beta(), 1.0, 1),
            db: ConcurrencyModel::new(db.s0(), db.alpha(), db.beta(), 1.0, 1),
        }
    }

    #[test]
    fn league_ranks_all_controllers_on_all_traces() {
        let league = run_league(Fidelity::Quick, models());
        assert_eq!(
            league.cells.len(),
            ControllerKind::ALL.len() * TraceKind::ALL.len()
        );
        assert_eq!(league.standings.len(), ControllerKind::ALL.len());
        // Ranks are a permutation 1..=n and the sort keys are respected.
        for (i, s) in league.standings.iter().enumerate() {
            assert_eq!(s.rank, i + 1);
        }
        for pair in league.standings.windows(2) {
            assert!(
                pair[0].slo_violation_secs <= pair[1].slo_violation_secs
                    || (pair[0].slo_violation_secs == pair[1].slo_violation_secs
                        && pair[0].vm_hours <= pair[1].vm_hours)
            );
        }
        // Every cell did real work.
        for cell in &league.cells {
            assert!(cell.completed > 0, "{cell:?}");
            assert!(cell.vm_hours > 0.0, "{cell:?}");
        }
        // Only MPC plans; every baseline is model-free per the proxy.
        for trace in TraceKind::ALL {
            assert!(league.cell(ControllerKind::Mpc, trace).planner_evals > 0);
            for kind in [
                ControllerKind::Dcm,
                ControllerKind::Ec2,
                ControllerKind::Mmc,
                ControllerKind::HoltWinters,
            ] {
                assert_eq!(league.cell(kind, trace).planner_evals, 0);
            }
        }
        // Chaos is the only trace that arms client retries.
        assert!(
            league
                .cell(ControllerKind::Dcm, TraceKind::Chaos)
                .retry_amplification
                >= 1.0
        );
        // Artifacts are well-formed.
        assert!(league.to_json().ends_with("}\n"));
        assert_eq!(league.to_csv().lines().count(), 1 + league.cells.len());
        assert!(league.findings().len() >= 4);
        assert!(league.mpc_journal_json.contains("\"plan\""));
        assert!(!league.mpc_journal_explain.is_empty());
    }

    #[test]
    fn mpc_meets_slo_no_dearer_than_dcm_on_step_and_flash() {
        // The acceptance claim, at quick fidelity: on the step and flash
        // traces MPC holds the SLO as well as DCM (within one accounting
        // window — the shared ramp transient dominates a 240 s run) while
        // spending no more than DCM plus a 5 % tolerance. At full
        // fidelity (the committed artifact) MPC is strictly cheaper than
        // DCM on both traces; the quick bounds here are the regression
        // guard that keeps that result from silently rotting.
        let league = run_league(Fidelity::Quick, models());
        for trace in [TraceKind::Step, TraceKind::Flash] {
            let mpc = league.cell(ControllerKind::Mpc, trace);
            let dcm = league.cell(ControllerKind::Dcm, trace);
            assert!(
                mpc.slo_violation_secs <= dcm.slo_violation_secs + WINDOW_SECS,
                "MPC must hold the SLO as well as DCM on {}: MPC {} s vs DCM {} s violated",
                trace.name(),
                mpc.slo_violation_secs,
                dcm.slo_violation_secs
            );
            assert!(
                mpc.vm_hours <= dcm.vm_hours * 1.05,
                "MPC must not out-spend DCM on {}: MPC {:.4} vs DCM {:.4} VM-hours",
                trace.name(),
                mpc.vm_hours,
                dcm.vm_hours
            );
        }
        // On the flash crowd the planner's pre-provisioning pays off
        // outright: strictly better attainment than the reactive DCM.
        let mpc = league.cell(ControllerKind::Mpc, TraceKind::Flash);
        let dcm = league.cell(ControllerKind::Dcm, TraceKind::Flash);
        assert!(
            mpc.slo_attainment_1s > dcm.slo_attainment_1s,
            "MPC must beat DCM's attainment on flash: {:.3} vs {:.3}",
            mpc.slo_attainment_1s,
            dcm.slo_attainment_1s
        );
    }

    #[test]
    fn mpc_journal_records_prediction_error() {
        // Satellite: the full-stack half of predicted-vs-realized
        // conformance. The MPC journal from the clean step ramp must carry
        // plan provenance with a rolling prediction error, and once the
        // plateau settles the planner's throughput prediction must track
        // the realized rate to within 15 %.
        let league = run_league(Fidelity::Quick, models());
        let json = &league.mpc_journal_json;
        for field in [
            "\"candidates\"",
            "\"predicted_throughput\"",
            "\"predicted_response\"",
            "\"chosen\"",
            "\"reason\"",
            "\"prediction_error\"",
        ] {
            assert!(json.contains(field), "journal missing {field}");
        }
        let errors: Vec<f64> = json
            .lines()
            .filter_map(|line| {
                let idx = line.find("\"prediction_error\": ")?;
                let rest = &line[idx + "\"prediction_error\": ".len()..];
                let end = rest.find(['}', ','])?;
                rest[..end].trim().parse::<f64>().ok()
            })
            .collect();
        assert!(
            !errors.is_empty(),
            "at least one tick must realize a prior prediction"
        );
        let tail = &errors[errors.len() - errors.len().min(10)..];
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(
            mean < 0.15,
            "late-run prediction error must settle under 15 %: mean {mean:.3} of {tail:?}"
        );
    }

    #[test]
    fn json_cell_rows_match_csv_lines() {
        let run = run_cell(
            ControllerKind::Dcm,
            TraceKind::Step,
            Fidelity::Quick,
            models(),
        );
        let cells = vec![summarize_cell(ControllerKind::Dcm, TraceKind::Step, &run)];
        let league = League {
            standings: standings_of(&cells),
            cells,
            horizon_secs: 240.0,
            mpc_journal_json: String::new(),
            mpc_journal_explain: String::new(),
        };
        crate::format::assert_json_cells_match_csv(&league.to_json(), &league.to_csv());
    }

    #[test]
    fn league_is_identical_across_worker_counts() {
        // The determinism contract behind `--jobs`: re-running the matrix
        // must reproduce the artifacts byte for byte.
        dcm_sim::runner::set_jobs(1);
        let serial = run_league(Fidelity::Quick, models());
        dcm_sim::runner::set_jobs(4);
        let parallel = run_league(Fidelity::Quick, models());
        dcm_sim::runner::set_jobs(0);
        assert_eq!(serial.to_json(), parallel.to_json());
        assert_eq!(serial.to_csv(), parallel.to_csv());
        assert_eq!(serial.mpc_journal_json, parallel.mpc_journal_json);
    }
}
