//! Turning passes and spans into named metrics, the run report and the
//! result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::spans::{descends_from, layer_self_times, to_csv, Span};
use crate::speed::REFERENCE_S;
use crate::workloads::{CellOutcome, Counts, Workload};

/// One pass of a workload: its cells and, when traced, its root span.
#[derive(Debug)]
pub struct Pass {
    /// Whether spans were recorded during the pass.
    pub traced: bool,
    /// The pass's `bench.pass` span (traced passes only).
    pub root: Option<usize>,
    /// The pass's cells, in run order.
    pub cells: Vec<CellOutcome>,
}

impl Pass {
    /// Host seconds of the measured part: set-up excluded.
    pub fn wall_s(&self) -> f64 {
        self.cells.iter().map(CellOutcome::measured_s).sum()
    }

    /// The measured part's segments, cell after cell.
    fn segments(&self) -> Vec<f64> {
        self.cells
            .iter()
            .flat_map(|c| c.segments.iter().copied())
            .collect()
    }

    /// Host seconds of world building and population start.
    pub fn setup_s(&self) -> f64 {
        self.cells.iter().map(|c| c.setup_s).sum()
    }

    /// Simulated counts summed over the cells.
    pub fn counts(&self) -> Counts {
        let mut total = Counts {
            slo_met: Some(0.0),
            ..Counts::default()
        };
        for c in &self.cells {
            total.add(&c.counts);
        }
        total
    }
}

/// A named, measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// What the value is taken over: the base of a ratio, or the samples.
    pub base: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, base: impl Into<String>) -> Metric {
    Metric {
        name,
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        value: if value.is_finite() { value + 0.0 } else { 0.0 },
        unit,
        base: base.into(),
    }
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile of `v` (0 when empty); the median of an even
/// count is the mean of the middle two.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if q == 0.5 && s.len().is_multiple_of(2) {
        return (s[s.len() / 2 - 1] + s[s.len() / 2]) / 2.0;
    }
    let rank = (q * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct RunSummary {
    /// Host seconds of each model training in set-up.
    pub train_s: Vec<f64>,
    /// Host seconds of each extra world set-up in the run's set-up.
    pub extra_setup_s: Vec<f64>,
    /// The passes, in run order.
    pub passes: Vec<Pass>,
    /// Every recorded span.
    pub spans: Vec<Span>,
    /// Peak resident memory of the process, MiB.
    pub peak_rss_mb: f64,
    /// The run's fastest host speed probe, seconds.
    pub probe_s: f64,
    /// Host speed probes run.
    pub probes: u64,
    /// Cells checked.
    pub attempted: u64,
    /// Cells that failed a check.
    pub failed: u64,
}

impl RunSummary {
    fn passes_where(&self, traced: bool) -> Vec<&Pass> {
        self.passes.iter().filter(|p| p.traced == traced).collect()
    }

    fn walls(passes: &[&Pass]) -> Vec<f64> {
        passes.iter().map(|p| p.wall_s()).collect()
    }

    /// Measured host seconds of one pass, as the lower envelope of
    /// `passes`: each segment's fastest time across them, summed. The
    /// machine's speed drifts between runs and within one; the fastest
    /// of several timings of the same work is the estimate least moved by
    /// that drift. Falls back to the fastest pass if the passes' segments
    /// do not line up.
    fn envelope(passes: &[&Pass]) -> f64 {
        let segs: Vec<Vec<f64>> = passes.iter().map(|p| p.segments()).collect();
        let Some(first) = segs.first() else {
            return 0.0;
        };
        if segs.iter().any(|s| s.len() != first.len()) {
            return Self::walls(passes)
                .into_iter()
                .fold(f64::INFINITY, f64::min);
        }
        (0..first.len())
            .map(|i| segs.iter().map(|s| s[i]).fold(f64::INFINITY, f64::min))
            .sum()
    }

    /// World set-up samples: every pass's plus the extra ones.
    fn world_setups(&self) -> Vec<f64> {
        let passes = self.passes.iter().map(Pass::setup_s);
        passes.chain(self.extra_setup_s.iter().copied()).collect()
    }

    /// Set-up seconds: the median model training plus the median world
    /// set-up (world building and population start).
    fn setup_s(&self) -> f64 {
        median(&self.train_s) + median(&self.world_setups())
    }

    /// Scale that turns this run's host seconds into reference-host
    /// seconds: the speed probe's reference time over its fastest time in
    /// this run (1 when no probe ran).
    fn speed_scale(&self) -> f64 {
        if self.probe_s.is_finite() && self.probe_s > 0.0 {
            REFERENCE_S / self.probe_s
        } else {
            1.0
        }
    }

    /// The end-to-end metrics, from the untraced passes, in reference-host
    /// seconds.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let untraced = self.passes_where(false);
        let n = untraced.len();
        let scale = self.speed_scale();
        let wall = Self::envelope(&untraced) * scale;
        let requests = untraced.first().map_or(0, |p| p.counts().requests());
        let segments = untraced.first().map_or(0, |p| p.segments().len());
        let scaled = format!("scaled by {scale:.4} to the reference host");
        vec![
            metric(
                "wall_s",
                wall,
                "s",
                format!("sum over {segments} segments of the fastest of {n} passes, {scaled}"),
            ),
            metric(
                "setup_s",
                self.setup_s() * scale,
                "s",
                format!(
                    "median of {} model trainings + median of {} world set-ups, {scaled}",
                    self.train_s.len(),
                    self.world_setups().len()
                ),
            ),
            metric(
                "requests_per_s",
                ratio(requests as f64, wall),
                "1/s",
                format!("{requests} requests finished / wall_s"),
            ),
            metric(
                "peak_rss_mb",
                self.peak_rss_mb,
                "MiB",
                "VmHWM of the process",
            ),
        ]
    }

    /// Spans of `pass` named `name`.
    fn spans_named<'a>(&'a self, pass: &Pass, name: &'a str) -> impl Iterator<Item = &'a Span> {
        let root = pass.root;
        self.spans.iter().enumerate().filter_map(move |(i, s)| {
            let under = root.is_some_and(|r| descends_from(&self.spans, i, r));
            (under && s.name == name).then_some(s)
        })
    }

    /// Mean over traced passes of the summed duration of spans `name`.
    fn mean_span_secs(&self, traced: &[&Pass], name: &str) -> f64 {
        let total: f64 = traced
            .iter()
            .map(|p| self.spans_named(p, name).map(Span::secs).sum::<f64>())
            .sum();
        ratio(total, traced.len() as f64)
    }

    /// Mean over traced passes of each layer's self time under the pass's
    /// cells (the benchmark's own checks after a cell are left out, as
    /// they are from `wall_s`).
    pub fn layer_table(&self) -> BTreeMap<&'static str, f64> {
        let traced = self.passes_where(true);
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for p in &traced {
            let cells = self.spans.iter().enumerate().filter(|(_, s)| {
                s.name == "bench.cell" && s.parent.is_some() && s.parent == p.root
            });
            for (cell, _) in cells {
                for (layer, secs) in layer_self_times(&self.spans, cell) {
                    *out.entry(layer).or_insert(0.0) += secs / traced.len() as f64;
                }
            }
        }
        out
    }

    /// Traced minus untraced pass wall time (each a lower envelope).
    fn tracing_overhead_s(&self) -> f64 {
        let traced = self.passes_where(true);
        let untraced = self.passes_where(false);
        if traced.is_empty() || untraced.is_empty() {
            return 0.0;
        }
        Self::envelope(&traced) - Self::envelope(&untraced)
    }

    /// The per-layer metrics, from the traced passes.
    pub fn per_layer(&self) -> Vec<Metric> {
        let traced = self.passes_where(true);
        let m = traced.len();
        let c = traced.last().map(|p| p.counts()).unwrap_or_default();
        let wall = ratio(Self::walls(&traced).iter().sum(), m as f64);
        let layers = self.layer_table();
        let sim_self = layers.get("sim").copied().unwrap_or(0.0);
        let tick_busy = self.mean_span_secs(&traced, "core.tick");
        let tick_ms: Vec<f64> = traced
            .iter()
            .flat_map(|p| self.spans_named(p, "core.tick").map(|s| s.secs() * 1e3))
            .collect();
        let requests = c.requests() as f64;
        let slab = (c.slab_allocated + c.slab_reused) as f64;
        let per_pass = format!("mean of {m} traced passes");
        vec![
            metric(
                "sim.events",
                c.events as f64,
                "count",
                "engine events per pass, drain included",
            ),
            metric(
                "sim.events_per_request",
                ratio(c.events as f64, requests),
                "events/req",
                format!("{} requests", c.requests()),
            ),
            metric(
                "sim.events_per_s",
                ratio(c.events as f64, wall),
                "1/s",
                "events / traced wall_s",
            ),
            metric(
                "sim.ns_per_event",
                ratio(sim_self * 1e9, c.events as f64),
                "ns",
                "sim.kernel_self_s / sim.events",
            ),
            metric(
                "sim.kernel_self_s",
                sim_self,
                "s",
                format!("run_until slices minus tick spans, {per_pass}"),
            ),
            metric(
                "sim.pending_end",
                c.pending_end as f64,
                "count",
                "pending events at the horizon",
            ),
            metric(
                "ntier.submitted",
                c.sys.submitted as f64,
                "count",
                "SystemCounters",
            ),
            metric(
                "ntier.completed",
                c.sys.completed as f64,
                "count",
                "SystemCounters",
            ),
            metric(
                "ntier.rejected",
                c.sys.rejected as f64,
                "count",
                "SystemCounters",
            ),
            metric(
                "ntier.timed_out",
                c.sys.timed_out as f64,
                "count",
                "SystemCounters",
            ),
            metric(
                "ntier.failed",
                c.sys.failed as f64,
                "count",
                "SystemCounters",
            ),
            metric(
                "ntier.retried",
                c.sys.retried as f64,
                "count",
                "SystemCounters",
            ),
            metric(
                "ntier.goodput_ratio",
                ratio(c.sys.completed as f64, c.sys.submitted as f64),
                "ratio",
                format!("completed / {} submitted", c.sys.submitted),
            ),
            metric(
                "ntier.slab_allocated",
                c.slab_allocated as f64,
                "count",
                "request_slab_stats",
            ),
            metric(
                "ntier.slab_reused",
                c.slab_reused as f64,
                "count",
                "request_slab_stats",
            ),
            metric(
                "ntier.slab_hit",
                ratio(c.slab_reused as f64, slab),
                "ratio",
                format!("reused / {slab} slots"),
            ),
            metric(
                "ntier.vm_dollars",
                c.vm_dollars,
                "USD",
                "vm_cost at the horizon",
            ),
            metric(
                "ntier.build_s",
                self.mean_span_secs(&traced, "setup.build"),
                "s",
                format!("world builder, {per_pass}"),
            ),
            metric(
                "workload.start_s",
                self.mean_span_secs(&traced, "setup.start"),
                "s",
                format!("population start, {per_pass}"),
            ),
            metric(
                "workload.mean_rt_s",
                ratio(c.rt_sum, c.logical as f64),
                "s",
                format!("{} client requests", c.logical),
            ),
            metric(
                "workload.slo_attainment_1s",
                ratio(c.slo_met.unwrap_or(0.0), c.logical as f64),
                "ratio",
                if c.slo_met.is_some() {
                    format!("{} client requests", c.logical)
                } else {
                    "not measured: the cohort log is off (0)".to_string()
                },
            ),
            metric(
                "workload.retry_amplification",
                ratio(c.sys.submitted as f64, c.logical as f64),
                "ratio",
                format!("submitted / {} client requests", c.logical),
            ),
            metric(
                "model.train_s",
                median(&self.train_s),
                "s",
                format!("median of {} trainings", self.train_s.len()),
            ),
            metric(
                "bus.records",
                c.bus_records as f64,
                "count",
                "sum of metrics-topic high watermarks",
            ),
            metric(
                "bus.records_per_tick",
                ratio(c.bus_records as f64, c.ticks as f64),
                "count",
                format!("{} ticks", c.ticks),
            ),
            metric(
                "core.ticks",
                c.ticks as f64,
                "count",
                "controller on_tick calls per pass",
            ),
            metric("core.tick_busy_s", tick_busy, "s", per_pass.clone()),
            metric(
                "core.tick_share",
                ratio(tick_busy, wall),
                "ratio",
                "tick time / traced wall_s",
            ),
            metric(
                "core.tick_p50_ms",
                median(&tick_ms),
                "ms",
                format!("{} tick samples", tick_ms.len()),
            ),
            metric(
                "core.tick_p90_ms",
                quantile(&tick_ms, 0.9),
                "ms",
                format!("{} tick samples", tick_ms.len()),
            ),
            metric(
                "core.tick_samples",
                tick_ms.len() as f64,
                "count",
                "ticks timed in this run",
            ),
            metric(
                "core.planner_evals",
                c.planner_evals as f64,
                "count",
                "Controller::planner_evals",
            ),
            metric(
                "core.evals_per_tick",
                ratio(c.planner_evals as f64, c.ticks as f64),
                "count",
                format!("{} ticks", c.ticks),
            ),
            metric(
                "core.us_per_eval",
                ratio(tick_busy * 1e6, c.planner_evals as f64),
                "us",
                format!("tick time / {} evals", c.planner_evals),
            ),
            metric(
                "core.actions",
                c.actions as f64,
                "count",
                "applied scaling actions",
            ),
            metric(
                "obs.spans_seen",
                c.spans_seen as f64,
                "count",
                "RecorderStats",
            ),
            metric(
                "obs.spans_recorded",
                c.spans_recorded as f64,
                "count",
                "RecorderStats",
            ),
            metric(
                "obs.spans_evicted",
                c.spans_evicted as f64,
                "count",
                "RecorderStats",
            ),
            metric(
                "obs.export_s",
                self.mean_span_secs(&traced, "obs.export"),
                "s",
                format!("chrome_trace_json + spans_csv, {per_pass}"),
            ),
            metric("trace.wall_s", wall, "s", per_pass),
            metric(
                "host.probe_ms",
                self.probe_s * 1e3,
                "ms",
                format!("fastest of {} host speed probes", self.probes),
            ),
            metric(
                "trace.overhead_s",
                self.tracing_overhead_s(),
                "s",
                "traced minus untraced wall_s, each the fastest-segment envelope",
            ),
        ]
    }

    /// Prints the human-readable report as `#` lines.
    pub fn print_report(&self, workload: Workload) {
        println!("# pass traced  setup_s     wall_s      requests  requests_per_s");
        for (i, p) in self.passes.iter().enumerate() {
            let requests = p.counts().requests();
            println!(
                "# {i:>4} {:>6}  {:<10.6}  {:<10.6}  {requests:<8}  {:.1}",
                p.traced,
                p.setup_s(),
                p.wall_s(),
                ratio(requests as f64, p.wall_s())
            );
        }
        println!("# end-to-end ({}):", workload.name());
        for m in self.end_to_end() {
            println!(
                "#   {:<16} {:>16.6} {:<5} {}",
                m.name, m.value, m.unit, m.base
            );
        }
        println!(
            "#   (host seconds before scaling: wall {:.6}, setup {:.6}; fastest of {} speed probes {:.4} ms)",
            Self::envelope(&self.passes_where(false)),
            self.setup_s(),
            self.probes,
            self.probe_s * 1e3
        );
        println!(
            "#   failed_share     {:>16.6} ratio {} failed / {} cells attempted",
            ratio(self.failed as f64, self.attempted as f64),
            self.failed,
            self.attempted
        );
        if self.passes_where(true).is_empty() {
            return;
        }
        println!("# per-layer ({}):", workload.name());
        for m in self.per_layer() {
            println!(
                "#   {:<28} {:>18.6} {:<10} {}",
                m.name, m.value, m.unit, m.base
            );
        }
        self.print_layer_table();
    }

    fn print_layer_table(&self) {
        let traced = self.passes_where(true);
        let wall = ratio(Self::walls(&traced).iter().sum(), traced.len() as f64);
        let layers = self.layer_table();
        println!(
            "# layer self times, mean of {} traced passes (setup excluded from wall):",
            traced.len()
        );
        let mut sum = 0.0;
        for (layer, secs) in &layers {
            if matches!(*layer, "setup" | "host") {
                continue;
            }
            sum += secs;
            println!(
                "#   {layer:<8} {secs:>12.6} s  {:>6.2} %",
                100.0 * ratio(*secs, wall)
            );
        }
        println!(
            "#   {:<8} {:>12.6} s  (setup, outside wall; model.train {:.6} s per training)",
            "setup",
            layers.get("setup").copied().unwrap_or(0.0),
            median(&self.train_s)
        );
        println!(
            "#   {:<8} {:>12.6} s  (host speed probes, outside wall)",
            "host",
            layers.get("host").copied().unwrap_or(0.0)
        );
        println!(
            "#   sum of layers {sum:.6} s vs traced wall {wall:.6} s (difference {:.6} s); \
             tracing overhead {:.6} s (traced minus untraced wall_s envelope)",
            sum - wall,
            self.tracing_overhead_s()
        );
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Writes the spans as CSV under the package's `out/` directory and
/// returns the path.
pub fn write_spans(workload: Workload, seed: u64, spans: &[Span]) -> Result<String, String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
    let path = format!("{dir}/{}-seed{seed}.spans.csv", workload.name());
    std::fs::write(&path, to_csv(spans)).map_err(|e| format!("writing {path}: {e}"))?;
    Ok(path)
}

/// The result line: verdict, counts and metrics as one JSON object.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn listed(m: &Metric) -> bool {
        BENCHMARK_JSON.contains(&format!(
            "\"name\": \"{}\", \"unit\": \"{}\"",
            m.name, m.unit
        ))
    }

    #[test]
    fn every_reported_metric_is_listed_with_its_unit() {
        let summary = RunSummary::default();
        let e2e = summary.end_to_end();
        let layers = summary.per_layer();
        for m in e2e.iter().chain(&layers) {
            assert!(
                listed(m),
                "{} ({}) missing from BENCHMARK.json",
                m.name,
                m.unit
            );
        }
        let names = BENCHMARK_JSON.matches("\"name\":").count();
        assert_eq!(
            names,
            3 + e2e.len() + layers.len(),
            "BENCHMARK.json lists unreported names"
        );
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_json(true, 2, 0, &[metric("wall_s", 1.25, "s", "")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
