//! Fig. 5: DCM vs EC2-AutoScale under the "Large Variation" bursty trace —
//! response-time/throughput timelines, per-tier scaling activity, CPU
//! utilization, and the resource-efficiency summary.

use dcm_core::controller::{Dcm, DcmConfig, DcmModels, Ec2AutoScale};
use dcm_core::experiment::{run_trace_experiment, TraceExperimentConfig, TraceRunResult};
use dcm_core::policy::ScalingConfig;
use dcm_core::training::{train_app_model, train_db_model, SweepOptions};
use dcm_model::lsq::FitError;
use dcm_sim::time::{SimDuration, SimTime};
use dcm_workload::traces;

use crate::format::{num, TextTable};

use super::Fidelity;

/// Both Fig. 5 runs plus the models that drove DCM.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// The DCM run (panels a/c/e).
    pub dcm: TraceRunResult,
    /// The EC2-AutoScale run (panels b/d/f).
    pub ec2: TraceRunResult,
    /// The offline-trained models DCM used.
    pub models: DcmModels,
}

/// Trains the models (paper §V-A) and returns them for DCM use.
///
/// # Errors
///
/// Propagates [`FitError`] if training fails.
pub fn train_models(fidelity: Fidelity) -> Result<DcmModels, FitError> {
    let options = SweepOptions {
        warmup: fidelity.warmup(),
        measure: fidelity.measure(),
        seed: 20170601,
        deterministic: false,
    };
    Ok(DcmModels {
        app: train_app_model(&options)?.report.model,
        db: train_db_model(&options)?.report.model,
    })
}

/// The experiment configuration for the given fidelity (full = the paper's
/// 700 s horizon).
pub fn fig5_config(fidelity: Fidelity) -> TraceExperimentConfig {
    let mut config = TraceExperimentConfig::figure5(traces::large_variation());
    if fidelity == Fidelity::Quick {
        config.horizon = SimTime::from_secs(200);
    }
    config
}

/// Runs both controllers on an arbitrary external trace.
pub fn run_fig5_on_trace(
    fidelity: Fidelity,
    models: DcmModels,
    trace: traces::WorkloadTrace,
) -> Fig5 {
    let mut config = fig5_config(fidelity);
    config.horizon = config
        .horizon
        .max(trace.last_change() + dcm_sim::time::SimDuration::from_secs(30));
    config.trace = trace;
    run_with_config(&config, models)
}

/// Runs both controllers on the same trace with the given models.
pub fn run_fig5(fidelity: Fidelity, models: DcmModels) -> Fig5 {
    let config = fig5_config(fidelity);
    run_with_config(&config, models)
}

fn run_with_config(config: &TraceExperimentConfig, models: DcmModels) -> Fig5 {
    let config = config.clone();
    // The two controller runs are independent (each builds its own world
    // from the shared config), so they execute concurrently when jobs > 1.
    let (ec2, dcm) = dcm_sim::runner::join(
        || {
            run_trace_experiment(&config, |bus| {
                Ec2AutoScale::new(bus, ScalingConfig::default())
            })
        },
        || run_trace_experiment(&config, |bus| Dcm::new(bus, DcmConfig::default(), models)),
    );
    Fig5 { dcm, ec2, models }
}

/// Trains models then runs the comparison.
///
/// # Errors
///
/// Propagates [`FitError`] from training.
pub fn run_fig5_with_training(fidelity: Fidelity) -> Result<Fig5, FitError> {
    let models = train_models(fidelity)?;
    Ok(run_fig5(fidelity, models))
}

/// Summary metrics of one run, used in the comparison table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// Successful completions.
    pub completed: u64,
    /// Mean throughput (req/s).
    pub throughput: f64,
    /// Mean response time (s).
    pub mean_rt: f64,
    /// 95th-percentile response time (s).
    pub p95_rt: f64,
    /// Worst 5-second-window mean response time (s).
    pub worst_window_rt: f64,
    /// 5-second windows with mean response time above 1 s (the paper's
    /// spike criterion).
    pub windows_over_1s: usize,
    /// Total VM-seconds consumed across tiers.
    pub vm_seconds: f64,
    /// Completed requests per VM-second (resource efficiency).
    pub efficiency: f64,
    /// Fraction of requests meeting a 1-second response-time SLA.
    pub sla_1s: f64,
}

/// Replicated comparison: each metric as mean ± 95 % CI over several
/// seeds of the same trace.
#[derive(Debug, Clone)]
pub struct ReplicatedFig5 {
    /// Per-metric replications for DCM.
    pub dcm: Vec<(&'static str, dcm_sim::stats::Replications)>,
    /// Per-metric replications for EC2-AutoScale.
    pub ec2: Vec<(&'static str, dcm_sim::stats::Replications)>,
    /// The seeds used.
    pub seeds: Vec<u64>,
}

/// Runs the Fig. 5 comparison under each seed and aggregates with
/// Student-t confidence intervals.
pub fn run_fig5_replicated(fidelity: Fidelity, models: DcmModels, seeds: &[u64]) -> ReplicatedFig5 {
    fn metric_set() -> Vec<(&'static str, dcm_sim::stats::Replications)> {
        vec![
            ("throughput (req/s)", dcm_sim::stats::Replications::new()),
            ("mean RT (s)", dcm_sim::stats::Replications::new()),
            ("p95 RT (s)", dcm_sim::stats::Replications::new()),
            (
                "worst 5s-window RT (s)",
                dcm_sim::stats::Replications::new(),
            ),
            (
                "requests per VM-second",
                dcm_sim::stats::Replications::new(),
            ),
        ]
    }
    let mut out = ReplicatedFig5 {
        dcm: metric_set(),
        ec2: metric_set(),
        seeds: seeds.to_vec(),
    };
    // Every (seed, controller) run is independent; fan them all out and
    // aggregate the in-order summaries serially so each Replications sees
    // values in exactly the seed order the serial loop produced.
    let descriptors: Vec<(u64, bool)> = seeds
        .iter()
        .flat_map(|&seed| [(seed, true), (seed, false)])
        .collect();
    let summaries = dcm_sim::runner::run_ordered(descriptors, |(seed, is_dcm)| {
        let mut config = fig5_config(fidelity);
        config.seed = seed;
        let run = if is_dcm {
            run_trace_experiment(&config, |bus| Dcm::new(bus, DcmConfig::default(), models))
        } else {
            run_trace_experiment(&config, |bus| {
                Ec2AutoScale::new(bus, ScalingConfig::default())
            })
        };
        summarize(&run)
    });
    for pair in summaries.chunks(2) {
        for (s, slot) in [(pair[0], &mut out.dcm), (pair[1], &mut out.ec2)] {
            slot[0].1.record(s.throughput);
            slot[1].1.record(s.mean_rt);
            slot[2].1.record(s.p95_rt);
            slot[3].1.record(s.worst_window_rt);
            slot[4].1.record(s.efficiency);
        }
    }
    out
}

impl ReplicatedFig5 {
    /// The mean ± CI comparison table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(["metric", "DCM (95% CI)", "EC2-AutoScale (95% CI)"]);
        for ((name, d), (_, e)) in self.dcm.iter().zip(self.ec2.iter()) {
            t.row([(*name).to_string(), d.display(2), e.display(2)]);
        }
        t
    }
}

/// Summarizes one run.
pub fn summarize(run: &TraceRunResult) -> RunSummary {
    let mut overall = run.overall();
    let series = run.series(SimDuration::from_secs(5));
    let worst = series.mean_rt.max().unwrap_or(0.0);
    let over: usize = series.mean_rt.iter().filter(|&(_, v)| v > 1.0).count();
    let vm_seconds = run.total_vm_seconds();
    RunSummary {
        completed: overall.completed(),
        throughput: overall.throughput(),
        mean_rt: overall.mean_response_time(),
        p95_rt: overall.response_time_quantile(0.95).unwrap_or(0.0),
        worst_window_rt: worst,
        windows_over_1s: over,
        vm_seconds,
        efficiency: if vm_seconds > 0.0 {
            overall.completed() as f64 / vm_seconds
        } else {
            0.0
        },
        sla_1s: overall.sla_attainment(1.0),
    }
}

impl Fig5 {
    /// The head-to-head summary table.
    pub fn summary_table(&self) -> TextTable {
        let d = summarize(&self.dcm);
        let e = summarize(&self.ec2);
        let mut t = TextTable::new(["metric", "DCM", "EC2-AutoScale"]);
        t.row([
            "completed".to_string(),
            d.completed.to_string(),
            e.completed.to_string(),
        ]);
        t.row([
            "throughput (req/s)".to_string(),
            num(d.throughput, 1),
            num(e.throughput, 1),
        ]);
        t.row([
            "mean RT (s)".to_string(),
            num(d.mean_rt, 3),
            num(e.mean_rt, 3),
        ]);
        t.row(["p95 RT (s)".to_string(), num(d.p95_rt, 3), num(e.p95_rt, 3)]);
        t.row([
            "worst 5s-window RT (s)".to_string(),
            num(d.worst_window_rt, 2),
            num(e.worst_window_rt, 2),
        ]);
        t.row([
            "5s windows with RT > 1s".to_string(),
            d.windows_over_1s.to_string(),
            e.windows_over_1s.to_string(),
        ]);
        t.row([
            "SLA attainment (RT <= 1s)".to_string(),
            num(d.sla_1s, 3),
            num(e.sla_1s, 3),
        ]);
        t.row([
            "VM-seconds".to_string(),
            num(d.vm_seconds, 0),
            num(e.vm_seconds, 0),
        ]);
        t.row([
            "requests per VM-second".to_string(),
            num(d.efficiency, 2),
            num(e.efficiency, 2),
        ]);
        t
    }

    /// A downsampled timeline of one run (`every` seconds per row):
    /// offered users, throughput, mean RT, app/db VM counts and CPU util.
    pub fn timeline_table(&self, run: &TraceRunResult, every: u64) -> TextTable {
        let series = run.series(SimDuration::from_secs(every));
        let mut t = TextTable::new([
            "t(s)", "users", "x(req/s)", "rt(s)", "app_vms", "db_vms", "app_util", "db_util",
        ]);
        for ((at, x), (_, rt)) in series.throughput.iter().zip(series.mean_rt.iter()) {
            let end = at + SimDuration::from_secs(every);
            let users = run
                .offered
                .iter()
                .take_while(|&(w, _)| w <= at)
                .last()
                .map_or(0.0, |(_, v)| v);
            let vm = |tier: usize| {
                run.tier_vm_counts[tier]
                    .range(at, end)
                    .map(|(_, v)| v)
                    .fold(0.0f64, f64::max)
            };
            let util = |tier: usize| {
                let pts: Vec<f64> = run.tier_cpu_util[tier]
                    .range(at, end)
                    .map(|(_, v)| v)
                    .collect();
                if pts.is_empty() {
                    0.0
                } else {
                    pts.iter().sum::<f64>() / pts.len() as f64
                }
            };
            t.row([
                num(at.as_secs_f64(), 0),
                num(users, 0),
                num(x, 1),
                num(rt, 2),
                num(vm(1), 0),
                num(vm(2), 0),
                num(util(1), 2),
                num(util(2), 2),
            ]);
        }
        t
    }

    /// Self-checks against the paper's qualitative claims.
    pub fn findings(&self) -> Vec<String> {
        let d = summarize(&self.dcm);
        let e = summarize(&self.ec2);
        let mut out = Vec::new();
        out.push(format!(
            "stability: DCM worst 5s-window RT {:.2} s vs EC2 {:.2} s; windows over 1 s: {} vs {} \
             (paper: DCM 'much more stable', EC2 has large spikes)",
            d.worst_window_rt, e.worst_window_rt, d.windows_over_1s, e.windows_over_1s
        ));
        out.push(format!(
            "throughput: DCM {:.1} req/s vs EC2 {:.1} req/s ({:+.0} %); \
             no-throughput-loss claim holds: {}",
            d.throughput,
            e.throughput,
            100.0 * (d.throughput - e.throughput) / e.throughput,
            d.throughput >= e.throughput
        ));
        out.push(format!(
            "efficiency: DCM {:.2} req/VM-s vs EC2 {:.2} req/VM-s (paper: 'higher resource efficiency')",
            d.efficiency, e.efficiency
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcm_model::concurrency::ConcurrencyModel;
    use dcm_ntier::law::reference;

    fn cheap_models() -> DcmModels {
        // Ground-truth laws as stand-in fitted models (skips training in
        // the quick test).
        let app = reference::tomcat();
        let db = reference::mysql();
        DcmModels {
            app: ConcurrencyModel::new(app.s0(), app.alpha(), app.beta(), 1.0, 1).with_servers(1),
            db: ConcurrencyModel::new(db.s0(), db.alpha(), db.beta(), 1.0, 1).with_servers(1),
        }
    }

    #[test]
    fn quick_fig5_dcm_is_more_stable_than_ec2() {
        let result = run_fig5(Fidelity::Quick, cheap_models());
        let d = summarize(&result.dcm);
        let e = summarize(&result.ec2);
        assert!(d.completed > 0 && e.completed > 0);
        assert!(
            d.p95_rt <= e.p95_rt,
            "DCM p95 {} should not exceed EC2 {}",
            d.p95_rt,
            e.p95_rt
        );
        assert!(d.throughput >= e.throughput * 0.95);
        let table = result.summary_table();
        assert_eq!(table.len(), 9);
        assert_eq!(result.findings().len(), 3);
        let tl = result.timeline_table(&result.dcm, 20);
        assert!(tl.len() >= 8);
    }
}
