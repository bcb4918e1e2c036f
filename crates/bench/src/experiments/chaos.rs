//! Chaos: DCM vs EC2-AutoScale under injected faults — an app-tier VM
//! crash, a database straggler episode, and a low rate of transient
//! request failures — on a Fig. 5-style ramp-and-plateau load.
//!
//! The paper's evaluation assumes every booted VM stays healthy; this
//! experiment measures what each controller does when that assumption
//! breaks. The headline metric is the *degradation window*: how long
//! goodput stays below 90 % of its pre-crash mean after the crash. DCM
//! tracks the capacity its own decisions aimed for and re-provisions a
//! lost VM on the next control period regardless of thresholds, while the
//! baseline must wait until the survivors' utilization signal re-trips.

use dcm_core::controller::{Dcm, DcmConfig, DcmModels, Ec2AutoScale};
use dcm_core::experiment::{run_trace_experiment, TraceExperimentConfig, TraceRunResult};
use dcm_core::policy::ScalingConfig;
use dcm_ntier::system::InterTierRetry;
use dcm_sim::faults::FaultPlan;
use dcm_sim::time::{SimDuration, SimTime};
use dcm_workload::generator::RetryPolicy;
use dcm_workload::traces;

use crate::format::{num, TextTable};

use super::Fidelity;

/// Goodput windows used for recovery measurement, in seconds.
const WINDOW_SECS: f64 = 5.0;
/// A window counts as degraded below this fraction of pre-crash goodput.
const RECOVERY_FRACTION: f64 = 0.9;

/// The chaos schedule and experiment configuration for a fidelity level.
///
/// Returns the trace config (faults, client retry, deadline, and
/// inter-tier retry installed) plus the crash time the recovery metrics
/// are anchored on.
pub fn chaos_config(fidelity: Fidelity) -> (TraceExperimentConfig, f64) {
    let (horizon_secs, crash_at) = match fidelity {
        Fidelity::Quick => (240.0, 120.0),
        Fidelity::Full => (600.0, 300.0),
    };
    // Ramp to a plateau high enough that the tiers scale out before the
    // crash; the crash then removes a meaningful fraction of app capacity.
    let mut config = TraceExperimentConfig::figure5(traces::step(60, 240, 30.0));
    config.horizon = SimTime::from_secs_f64(horizon_secs);
    config.seed = 4242;
    config.fault_plan = Some(
        FaultPlan::none()
            .with_crash(crash_at, 1, 0)
            .with_straggler(crash_at + 60.0, 2, 0, 4.0, 45.0)
            .with_transient_failures(0.002),
    );
    config.client_retry = Some(RetryPolicy::default());
    config.request_deadline_secs = Some(8.0);
    config.inter_tier_retry = Some(InterTierRetry::default());
    (config, crash_at)
}

/// Resilience metrics of one controller's chaos run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosSummary {
    /// Successful completions over the whole run.
    pub completed: u64,
    /// Requests lost to the crash or transient faults (after retries).
    pub failed: u64,
    /// Requests abandoned at the client deadline.
    pub timed_out: u64,
    /// Requests rejected for lack of a routable server.
    pub rejected: u64,
    /// Completions per second over the whole run.
    pub goodput: f64,
    /// Tier-entry attempts submitted per logical client request (client
    /// retries re-submit, so amplification > 1 under faults).
    pub retry_amplification: f64,
    /// Requests parked and re-attempted by the inter-tier retry layer.
    pub inter_tier_retries: u64,
    /// Fraction of requests meeting the 1-second response-time SLO.
    pub slo_attainment_1s: f64,
    /// 5-second windows with mean response time above 1 s.
    pub slo_windows_violated: usize,
    /// Mean goodput over the minute before the crash (req/s).
    pub pre_crash_goodput: f64,
    /// Post-crash 5-second windows below 90 % of pre-crash goodput.
    pub degraded_windows: usize,
    /// Seconds from the crash until goodput returns to >= 90 % of its
    /// pre-crash mean (and holds for the following window). `Some(0.0)`
    /// if goodput never dropped; `None` if it never recovered.
    pub time_to_recover_secs: Option<f64>,
}

/// Computes the resilience metrics of one run against the crash time.
pub fn summarize_chaos(run: &TraceRunResult, crash_at_secs: f64) -> ChaosSummary {
    let logical = run.completions.len().max(1) as u64;
    let overall = {
        let r = run.overall();
        (r.throughput(), r.sla_attainment(1.0))
    };
    let series = run.series(SimDuration::from_secs_f64(WINDOW_SECS));
    let slo_windows_violated = series.mean_rt.iter().filter(|&(_, v)| v > 1.0).count();

    // Pre-crash baseline: the minute of fully-pre-crash windows.
    let pre: Vec<f64> = series
        .throughput
        .iter()
        .filter(|&(at, _)| {
            let s = at.as_secs_f64();
            s + WINDOW_SECS <= crash_at_secs && s >= crash_at_secs - 60.0
        })
        .map(|(_, v)| v)
        .collect();
    let pre_crash_goodput = if pre.is_empty() {
        0.0
    } else {
        pre.iter().sum::<f64>() / pre.len() as f64
    };
    let target = RECOVERY_FRACTION * pre_crash_goodput;

    // Post-crash windows (including the one straddling the crash).
    let post: Vec<(f64, f64)> = series
        .throughput
        .iter()
        .filter(|&(at, _)| at.as_secs_f64() + WINDOW_SECS > crash_at_secs)
        .map(|(at, v)| (at.as_secs_f64(), v))
        .collect();
    let degraded_windows = post.iter().filter(|&&(_, v)| v < target).count();
    let mut dropped = false;
    let mut time_to_recover_secs = None;
    for (i, &(start, value)) in post.iter().enumerate() {
        if !dropped {
            if value < target {
                dropped = true;
            } else {
                continue;
            }
        }
        // Recovered once back at target and holding for the next window.
        if value >= target && post.get(i + 1).is_none_or(|&(_, v)| v >= target) {
            time_to_recover_secs = Some(start + WINDOW_SECS - crash_at_secs);
            break;
        }
    }
    if !dropped {
        time_to_recover_secs = Some(0.0);
    }

    ChaosSummary {
        completed: run.counters.completed,
        failed: run.counters.failed,
        timed_out: run.counters.timed_out,
        rejected: run.counters.rejected,
        goodput: overall.0,
        retry_amplification: run.counters.submitted as f64 / logical as f64,
        inter_tier_retries: run.counters.retried,
        slo_attainment_1s: overall.1,
        slo_windows_violated,
        pre_crash_goodput,
        degraded_windows,
        time_to_recover_secs,
    }
}

/// Both chaos runs and the schedule they shared.
#[derive(Debug, Clone)]
pub struct Chaos {
    /// DCM's resilience metrics.
    pub dcm: ChaosSummary,
    /// The baseline's resilience metrics.
    pub ec2: ChaosSummary,
    /// When the app-tier crash fired, in seconds.
    pub crash_at_secs: f64,
    /// Run length in seconds.
    pub horizon_secs: f64,
}

/// Runs both controllers through the same fault schedule (in parallel when
/// jobs > 1; each run builds its own world, so results are bit-identical
/// for every `--jobs` value).
pub fn run_chaos(fidelity: Fidelity, models: DcmModels) -> Chaos {
    let (config, crash_at_secs) = chaos_config(fidelity);
    let horizon_secs = config.horizon.as_secs_f64();
    let (ec2, dcm) = dcm_sim::runner::join(
        {
            let config = config.clone();
            move || {
                run_trace_experiment(&config, |bus| {
                    Ec2AutoScale::new(bus, ScalingConfig::default())
                })
            }
        },
        {
            let config = config.clone();
            move || run_trace_experiment(&config, |bus| Dcm::new(bus, DcmConfig::default(), models))
        },
    );
    Chaos {
        dcm: summarize_chaos(&dcm, crash_at_secs),
        ec2: summarize_chaos(&ec2, crash_at_secs),
        crash_at_secs,
        horizon_secs,
    }
}

fn ttr_display(ttr: Option<f64>) -> String {
    match ttr {
        Some(v) => num(v, 1),
        None => "never".to_string(),
    }
}

fn json_ttr(ttr: Option<f64>) -> String {
    match ttr {
        Some(v) => format!("{v:.6}"),
        None => "null".to_string(),
    }
}

fn summary_json(s: &ChaosSummary, indent: &str) -> String {
    format!(
        "{{\n\
         {indent}  \"completed\": {},\n\
         {indent}  \"failed\": {},\n\
         {indent}  \"timed_out\": {},\n\
         {indent}  \"rejected\": {},\n\
         {indent}  \"goodput\": {:.6},\n\
         {indent}  \"retry_amplification\": {:.6},\n\
         {indent}  \"inter_tier_retries\": {},\n\
         {indent}  \"slo_attainment_1s\": {:.6},\n\
         {indent}  \"slo_windows_violated\": {},\n\
         {indent}  \"pre_crash_goodput\": {:.6},\n\
         {indent}  \"degraded_windows\": {},\n\
         {indent}  \"time_to_recover_secs\": {}\n\
         {indent}}}",
        s.completed,
        s.failed,
        s.timed_out,
        s.rejected,
        s.goodput,
        s.retry_amplification,
        s.inter_tier_retries,
        s.slo_attainment_1s,
        s.slo_windows_violated,
        s.pre_crash_goodput,
        s.degraded_windows,
        json_ttr(s.time_to_recover_secs),
    )
}

impl Chaos {
    /// The head-to-head resilience table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(["metric", "DCM", "EC2-AutoScale"]);
        let d = &self.dcm;
        let e = &self.ec2;
        t.row([
            "completed".to_string(),
            d.completed.to_string(),
            e.completed.to_string(),
        ]);
        t.row([
            "goodput (req/s)".to_string(),
            num(d.goodput, 1),
            num(e.goodput, 1),
        ]);
        t.row([
            "failed (crash+transient)".to_string(),
            d.failed.to_string(),
            e.failed.to_string(),
        ]);
        t.row([
            "timed out".to_string(),
            d.timed_out.to_string(),
            e.timed_out.to_string(),
        ]);
        t.row([
            "rejected".to_string(),
            d.rejected.to_string(),
            e.rejected.to_string(),
        ]);
        t.row([
            "retry amplification".to_string(),
            num(d.retry_amplification, 3),
            num(e.retry_amplification, 3),
        ]);
        t.row([
            "inter-tier retries".to_string(),
            d.inter_tier_retries.to_string(),
            e.inter_tier_retries.to_string(),
        ]);
        t.row([
            "SLO attainment (RT <= 1s)".to_string(),
            num(d.slo_attainment_1s, 3),
            num(e.slo_attainment_1s, 3),
        ]);
        t.row([
            "5s windows with RT > 1s".to_string(),
            d.slo_windows_violated.to_string(),
            e.slo_windows_violated.to_string(),
        ]);
        t.row([
            "pre-crash goodput (req/s)".to_string(),
            num(d.pre_crash_goodput, 1),
            num(e.pre_crash_goodput, 1),
        ]);
        t.row([
            "degraded 5s windows".to_string(),
            d.degraded_windows.to_string(),
            e.degraded_windows.to_string(),
        ]);
        t.row([
            "time to recover (s)".to_string(),
            ttr_display(d.time_to_recover_secs),
            ttr_display(e.time_to_recover_secs),
        ]);
        t
    }

    /// Stable JSON for `results/chaos.json` (hand-rolled; keys and shapes
    /// are fixed for downstream tooling and the determinism check).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"crash_at_secs\": {:.6},\n  \"horizon_secs\": {:.6},\n  \
             \"dcm\": {},\n  \"ec2\": {}\n}}\n",
            self.crash_at_secs,
            self.horizon_secs,
            summary_json(&self.dcm, "  "),
            summary_json(&self.ec2, "  "),
        )
    }

    /// Self-checks against the resilience claims.
    pub fn findings(&self) -> Vec<String> {
        let d = &self.dcm;
        let e = &self.ec2;
        let mut out = Vec::new();
        out.push(format!(
            "recovery: DCM returns to 90% pre-crash goodput in {} s vs EC2 {} s \
             (DCM replaces the crashed VM on its capacity memory within one \
             control period; the baseline waits for thresholds)",
            ttr_display(d.time_to_recover_secs),
            ttr_display(e.time_to_recover_secs),
        ));
        out.push(format!(
            "degradation: DCM {} degraded 5s windows vs EC2 {}",
            d.degraded_windows, e.degraded_windows
        ));
        out.push(format!(
            "goodput under faults: DCM {:.1} req/s vs EC2 {:.1} req/s; \
             retry amplification {:.3} vs {:.3}",
            d.goodput, e.goodput, d.retry_amplification, e.retry_amplification
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
    fn chaos_dcm_recovers_no_slower_than_ec2() {
        let result = run_chaos(Fidelity::Quick, models());
        assert!(result.dcm.completed > 0 && result.ec2.completed > 0);
        assert!(
            result.dcm.failed > 0 && result.ec2.failed > 0,
            "the crash must strike in-flight work: {:?} / {:?}",
            result.dcm,
            result.ec2
        );
        let d = result
            .dcm
            .time_to_recover_secs
            .expect("DCM must recover goodput after the crash");
        // A baseline that never recovered (`None`) is strictly worse.
        if let Some(e) = result.ec2.time_to_recover_secs {
            assert!(
                d <= e,
                "DCM recovery ({d} s) must not lag the baseline ({e} s)\n{}",
                result.table().render()
            );
        }
        assert_eq!(result.table().len(), 12);
        assert_eq!(result.findings().len(), 3);
        // JSON is stable and parseable-shaped.
        let json = result.to_json();
        assert!(json.contains("\"time_to_recover_secs\""));
        assert!(json.ends_with("}\n"));
    }
}
