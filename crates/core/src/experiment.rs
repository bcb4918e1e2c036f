//! The Fig. 5 experiment harness: a trace-driven run of the full stack —
//! workload, monitor, broker, controller — producing every series the
//! paper's evaluation plots.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};

use dcm_bus::{Entry, GroupConsumer};
use dcm_ntier::audit::ConservationAuditor;
use dcm_ntier::graph::TopologyGraph;
use dcm_ntier::ids::ServerId;
use dcm_ntier::metrics::ServerSample;
use dcm_ntier::request::Completion;
use dcm_ntier::spans::Span;
use dcm_ntier::system::{InterTierRetry, SystemCounters};
use dcm_ntier::topology::{MeshBuilder, MeshNode, SoftConfig, ThreeTierBuilder};
use dcm_ntier::world::{SimEngine, World};
use dcm_obs::journal::DecisionJournal;
use dcm_obs::metrics::{Registry, SeriesTable};
use dcm_obs::recorder::{SamplerConfig, SpanRecorder};
use dcm_obs::trace::{ControlTick, TraceData};
use dcm_sim::faults::FaultPlan;
use dcm_sim::stats::TimeSeries;
use dcm_sim::time::{SimDuration, SimTime};
use dcm_workload::generator::{RetryPolicy, UserPopulation};
use dcm_workload::profile::{
    CacheEdge, MeshProfileFactory, NodeDemand, ProfileFactory, WorkloadFactory,
};
use dcm_workload::report::{windowed_series, LoadReport, WindowedSeries};
use dcm_workload::traces::WorkloadTrace;

use crate::agents::ActionRecord;
use crate::controller::Controller;
use crate::monitor::{install_monitor, new_metrics_bus, MetricsBus, MonitorConfig, METRICS_TOPIC};

/// Process-wide default for the conservation audit, consulted by the
/// config constructors ([`TraceExperimentConfig::figure5`],
/// [`SteadyStateOptions::default`]). Set once at startup (e.g. from a
/// `--audit` CLI flag) before building configs; individual configs can
/// still override their own `audit` field.
static GLOBAL_AUDIT: AtomicBool = AtomicBool::new(false);

/// Makes every subsequently-constructed experiment config carry a
/// [`ConservationAuditor`] across its run (`assert_clean` at the end).
pub fn set_global_audit(enabled: bool) {
    GLOBAL_AUDIT.store(enabled, Ordering::SeqCst);
}

/// The current process-wide conservation-audit default.
pub fn global_audit() -> bool {
    GLOBAL_AUDIT.load(Ordering::SeqCst)
}

/// Configuration of a trace-driven scaling experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceExperimentConfig {
    /// The user-count trace to follow.
    pub trace: WorkloadTrace,
    /// Run length.
    pub horizon: SimTime,
    /// Client think time (the paper's RUBBoS clients average 3 s).
    pub think_time_secs: f64,
    /// Initial `#W_T/#A_T/#A_C` soft allocation (the paper's Fig. 5 run
    /// starts at `1000-200-40`).
    pub initial_soft: SoftConfig,
    /// Initial `#W/#A/#D` hardware configuration.
    pub initial_counts: (u32, u32, u32),
    /// Controller invocation period (15 s in the paper).
    pub control_period: SimDuration,
    /// RNG seed.
    pub seed: u64,
    /// Probability that a VM boot fails (failure injection; 0 in the
    /// paper's environment).
    pub boot_failure_prob: f64,
    /// Scheduled fault injection (crashes, stragglers, transient
    /// failures); `None` runs the paper's fault-free environment.
    pub fault_plan: Option<FaultPlan>,
    /// Client-side retry with exponential backoff and a shared budget;
    /// `None` means clients give up on the first failure.
    pub client_retry: Option<RetryPolicy>,
    /// Per-request client deadline in seconds; `None` waits forever.
    pub request_deadline_secs: Option<f64>,
    /// Inter-tier retry (park + backoff when a tier momentarily has no
    /// routable server); `None` rejects outright as before.
    pub inter_tier_retry: Option<InterTierRetry>,
    /// Run a [`ConservationAuditor`] across the whole run and panic on any
    /// violated conservation law (flow balance, Little's law, utilization
    /// law, work conservation).
    pub audit: bool,
    /// With `audit` set, collect the [`AuditReport`] into
    /// [`TraceRunResult::audit`] instead of panicking on violations. The
    /// fuzz harness uses this to treat violations as data (shrink and pin
    /// them) rather than aborting the campaign.
    pub audit_tolerant: bool,
    /// Observability capture ([`dcm_obs`]): span recording, per-period
    /// metric snapshots, and the controller decision journal. `None` (the
    /// default) records nothing and costs nothing on the hot path.
    pub obs: Option<ObsConfig>,
}

/// Observability capture settings for a trace run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObsConfig {
    /// Per-request head-sampling probability in `[0, 1]` (the coin is
    /// seeded from the experiment seed, so the sampled set is identical
    /// across `--jobs`).
    pub sample_rate: f64,
    /// Hard span ring-buffer capacity (oldest evicted, with counters).
    pub span_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            sample_rate: 1.0,
            span_capacity: 65_536,
        }
    }
}

impl TraceExperimentConfig {
    /// The paper's Fig. 5 setup around the given trace.
    pub fn figure5(trace: WorkloadTrace) -> Self {
        TraceExperimentConfig {
            trace,
            horizon: SimTime::from_secs(700),
            think_time_secs: 3.0,
            initial_soft: SoftConfig::new(1000, 200, 40),
            initial_counts: (1, 1, 1),
            control_period: SimDuration::from_secs(15),
            seed: 42,
            boot_failure_prob: 0.0,
            fault_plan: None,
            client_retry: None,
            request_deadline_secs: None,
            inter_tier_retry: None,
            audit: global_audit(),
            audit_tolerant: false,
            obs: None,
        }
    }
}

/// Everything a Fig. 5 style run produces.
#[derive(Debug, Clone)]
pub struct TraceRunResult {
    /// Controller display name.
    pub controller: &'static str,
    /// Every request completion (successes and rejections).
    pub completions: Vec<Completion>,
    /// Offered user-count series.
    pub offered: TimeSeries,
    /// Per-tier routable-server counts — one series per tier, one point
    /// per second.
    pub tier_vm_counts: Vec<TimeSeries>,
    /// Per-tier mean CPU utilization, one point per second.
    pub tier_cpu_util: Vec<TimeSeries>,
    /// The controller's actuation timeline.
    pub actions: Vec<ActionRecord>,
    /// Candidate-plan evaluations the controller performed over the run —
    /// the deterministic decision-latency proxy (0 for model-free
    /// controllers).
    pub planner_evals: u64,
    /// Per-tier VM-seconds consumed (the resource-cost metric).
    pub vm_seconds: Vec<f64>,
    /// Per-tier dollars consumed. With a homogeneous fleet this is
    /// VM-seconds times a constant; with mixed VM types it is the metric
    /// that actually ranks controllers on spend.
    pub vm_cost: Vec<f64>,
    /// System conservation counters at the end of the run.
    pub counters: SystemCounters,
    /// The configured horizon.
    pub horizon: SimTime,
    /// Observability artifacts, present when the config asked for them.
    pub obs: Option<ObsArtifacts>,
    /// The conservation-audit report, present when the config set `audit`.
    /// Clean unless `audit_tolerant` allowed violations through.
    pub audit: Option<dcm_ntier::audit::AuditReport>,
}

/// Everything [`dcm_obs`] captured from one run.
#[derive(Debug, Clone)]
pub struct ObsArtifacts {
    /// Exporter input: sampled spans, lifecycle events, control ticks,
    /// server names, recorder keep/drop accounting.
    pub trace: TraceData,
    /// The controller's per-tick decision journal.
    pub journal: DecisionJournal,
    /// Per-control-period metric snapshots (queue depth, occupancy,
    /// utilization, goodput, timeout/retry rates per tier).
    pub series: SeriesTable,
}

impl TraceRunResult {
    /// Per-window throughput/response-time series over the full horizon.
    pub fn series(&self, window: SimDuration) -> WindowedSeries {
        windowed_series(&self.completions, SimTime::ZERO, self.horizon, window)
    }

    /// Summary over `[start, end)`.
    pub fn report(&self, start: SimTime, end: SimTime) -> LoadReport {
        LoadReport::from_completions(&self.completions, start, end)
    }

    /// Whole-run summary (excluding nothing).
    pub fn overall(&self) -> LoadReport {
        self.report(SimTime::ZERO, self.horizon)
    }

    /// Total VM-seconds across tiers.
    pub fn total_vm_seconds(&self) -> f64 {
        self.vm_seconds.iter().sum()
    }

    /// Total dollars across tiers.
    pub fn total_vm_cost(&self) -> f64 {
        self.vm_cost.iter().sum()
    }
}

/// Configuration of a trace-driven scaling experiment on a microservice
/// mesh (arbitrary tree-shaped call graph, optional warming cache edge,
/// per-tier VM policies) instead of the paper's fixed chain.
#[derive(Debug, Clone)]
pub struct MeshExperimentConfig {
    /// Everything shared with the chain harness: trace, horizon, think
    /// time, control period, seed, faults, retries, audit, obs. The
    /// chain-only `initial_soft` / `initial_counts` fields are ignored —
    /// a mesh world takes its pools, counts, and VM types from `nodes`.
    pub run: TraceExperimentConfig,
    /// One node per tier, in tier order (node 0 is the entry tier).
    pub nodes: Vec<MeshNode>,
    /// The per-request call graph (must match `nodes` in tier count).
    pub graph: TopologyGraph,
    /// Per-node demand specs, aligned with `nodes`.
    pub demands: Vec<NodeDemand>,
    /// Optional cache edge: hits skip the downstream hop, and the hit
    /// ratio warms over served requests ([`dcm_workload::CacheDynamics`]).
    pub cache: Option<CacheEdge>,
}

/// Runs a trace experiment on a mesh topology with the controller
/// produced by `make`. Identical harness to [`run_trace_experiment`] —
/// monitor, per-second recorder, controller loop, optional obs/audit —
/// over a [`MeshBuilder`] world driven by a [`MeshProfileFactory`].
pub fn run_mesh_trace_experiment<C, F>(config: &MeshExperimentConfig, make: F) -> TraceRunResult
where
    C: Controller + 'static,
    F: FnOnce(MetricsBus) -> C,
{
    let mut builder = MeshBuilder::new().seed(config.run.seed);
    for node in config.nodes.clone() {
        builder = builder.node(node);
    }
    builder.check_graph(&config.graph);
    let (world, engine) = builder.build();
    let mut factory = MeshProfileFactory::new(config.graph.clone(), config.demands.clone());
    if let Some(cache) = config.cache.clone() {
        factory = factory.with_cache(cache.from, cache.to, cache.dynamics);
    }
    run_trace_on_world(&config.run, world, engine, factory.into(), make)
}

/// Options for a steady-state throughput measurement under think-time
/// clients (the validation-phase workload of Fig. 2(b)/Fig. 4).
#[derive(Debug, Clone, PartialEq)]
pub struct SteadyStateOptions {
    /// Settling time excluded from measurement.
    pub warmup: SimDuration,
    /// Measurement window.
    pub measure: SimDuration,
    /// Mean think time between a user's requests (the RUBBoS client's 3 s).
    pub think_time_secs: f64,
    /// RNG seed.
    pub seed: u64,
    /// Run a [`ConservationAuditor`] across the run and panic on any
    /// violated conservation law.
    pub audit: bool,
}

impl Default for SteadyStateOptions {
    fn default() -> Self {
        SteadyStateOptions {
            warmup: SimDuration::from_secs(30),
            measure: SimDuration::from_secs(90),
            think_time_secs: 3.0,
            seed: 1,
            audit: global_audit(),
        }
    }
}

/// Result of one steady-state measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteadyStateReport {
    /// Concurrent users offered.
    pub users: u32,
    /// Completions per second over the measurement window.
    pub throughput: f64,
    /// Mean response time (seconds).
    pub mean_rt: f64,
    /// 95th-percentile response time (seconds).
    pub p95_rt: f64,
}

/// Measures steady-state throughput and response time of a fixed topology
/// under `users` think-time clients (no controllers; this is the paper's
/// validation methodology for Fig. 2(b) and Fig. 4).
pub fn steady_state_throughput(
    counts: (u32, u32, u32),
    soft: SoftConfig,
    users: u32,
    options: &SteadyStateOptions,
) -> SteadyStateReport {
    let (mut world, mut engine) = ThreeTierBuilder::new()
        .counts(counts.0, counts.1, counts.2)
        .soft(soft)
        .seed(dcm_sim::rng::derive_seed(options.seed, u64::from(users)))
        .build();
    let auditor = options.audit.then(|| {
        world.system.enable_tracing();
        ConservationAuditor::begin(&world.system, engine.now())
    });
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
    if let Some(auditor) = auditor {
        let spans = world.system.take_spans();
        auditor
            .finish(&world.system, &spans, engine.now())
            .assert_clean();
    }
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

#[derive(Debug, Default)]
struct RecorderState {
    tier_vm_counts: Vec<TimeSeries>,
    tier_cpu_util: Vec<TimeSeries>,
}

/// Stream index for the span-sampling coin, derived from the experiment
/// seed so the sampled set is a pure function of the config.
const OBS_SEED_STREAM: u64 = 0x6f62_735f_7370_616e; // "obs_span"

/// Live observability capture state, driven once per control period.
#[derive(Debug)]
struct ObsState {
    recorder: SpanRecorder,
    registry: Registry,
    series: SeriesTable,
    consumer: GroupConsumer,
    ticks: Vec<ControlTick>,
    /// Spans drained from the system en route to the recorder, kept whole
    /// for the conservation auditor when one is running.
    audit_spans: Vec<Span>,
    last_counters: SystemCounters,
    last_actions: usize,
    auditing: bool,
}

impl ObsState {
    /// One control-period capture: drain spans, fold this period's monitor
    /// samples into per-tier gauges, convert system-counter deltas into
    /// rates, mark the controller tick, snapshot a series row.
    fn capture<C: Controller>(
        &mut self,
        world: &mut World,
        controller: &Rc<RefCell<C>>,
        bus: &MetricsBus,
        now: SimTime,
        period: SimDuration,
    ) {
        let spans = world.system.take_spans();
        // Fetch each per-tier histogram once per period rather than paying a
        // name format + map lookup per span: span volume scales with
        // throughput, and this loop used to dominate the trace experiment's
        // per-event cost.
        for tier in 0..world.system.tier_count() {
            let h = self
                .registry
                .histogram_entry(&format!("tier{tier}.queue_s"), 0.0, 30.0, 300);
            for s in spans.iter().filter(|s| s.tier == tier) {
                h.record(s.queue_time().as_secs_f64());
            }
            let h = self
                .registry
                .histogram_entry(&format!("tier{tier}.service_s"), 0.0, 30.0, 300);
            for s in spans.iter().filter(|s| s.tier == tier) {
                h.record(s.service_time().as_secs_f64());
            }
        }
        self.recorder.record_all(&spans);
        if self.auditing {
            self.audit_spans.extend(spans);
        }

        let records = {
            let broker = bus.borrow();
            self.consumer
                .poll(&broker, 100_000)
                .expect("metrics topic exists")
        };
        {
            let mut broker = bus.borrow_mut();
            self.consumer
                .commit(&mut broker)
                .expect("metrics topic exists");
        }
        self.fold_samples(&records);
        for tier in 0..world.system.tier_count() {
            self.registry.gauge_set(
                &format!("tier{tier}.running"),
                world.system.running_count(tier) as f64,
            );
            self.registry.gauge_set(
                &format!("tier{tier}.booting"),
                world.system.booting_count(tier) as f64,
            );
        }

        let counters = world.system.counters();
        let secs = period.as_secs_f64().max(1e-9);
        let deltas = [
            (
                "sys.completed",
                counters.completed,
                self.last_counters.completed,
            ),
            (
                "sys.rejected",
                counters.rejected,
                self.last_counters.rejected,
            ),
            (
                "sys.timed_out",
                counters.timed_out,
                self.last_counters.timed_out,
            ),
            ("sys.failed", counters.failed, self.last_counters.failed),
            ("sys.retried", counters.retried, self.last_counters.retried),
        ];
        for (name, cur, prev) in deltas {
            let delta = cur.saturating_sub(prev);
            self.registry.counter_add(name, delta);
            self.registry
                .gauge_set(&format!("{name}_per_sec"), delta as f64 / secs);
        }
        self.last_counters = counters;

        let (name, total_actions) = {
            let c = controller.borrow();
            (c.name().to_string(), c.actions().len())
        };
        self.ticks.push(ControlTick {
            at: now,
            controller: name,
            actions: total_actions - self.last_actions,
        });
        self.last_actions = total_actions;

        self.series.snapshot(now.as_secs_f64(), &self.registry);
    }

    /// Per-tier gauges from one period's raw monitor samples: each server
    /// is first averaged over its own samples, then servers are averaged
    /// (throughput summed) across the tier — the same convention as
    /// [`crate::aggregate::aggregate_by_tier`], extended with pool
    /// occupancy and connection-queue depth.
    fn fold_samples(&mut self, records: &[Entry<ServerSample>]) {
        #[derive(Default)]
        struct Acc {
            n: f64,
            cpu: f64,
            xput: f64,
            threads: f64,
            thread_queue: f64,
            conn_queue: f64,
            occupancy: f64,
        }
        let mut tiers: BTreeMap<usize, BTreeMap<String, Acc>> = BTreeMap::new();
        for e in records {
            let s = &e.value;
            let acc = tiers
                .entry(s.tier)
                .or_default()
                .entry(s.server.clone())
                .or_default();
            acc.n += 1.0;
            acc.cpu += s.cpu_util;
            acc.xput += s.throughput;
            acc.threads += s.active_threads;
            acc.thread_queue += s.thread_queue as f64;
            acc.conn_queue += s.conn_queue as f64;
            acc.occupancy += if s.thread_pool_size > 0 {
                s.active_threads / f64::from(s.thread_pool_size)
            } else {
                0.0
            };
        }
        for (tier, servers) in tiers {
            let k = servers.len() as f64;
            let mut sums = Acc::default();
            for a in servers.values() {
                sums.cpu += a.cpu / a.n;
                sums.xput += a.xput / a.n;
                sums.threads += a.threads / a.n;
                sums.thread_queue += a.thread_queue / a.n;
                sums.conn_queue += a.conn_queue / a.n;
                sums.occupancy += a.occupancy / a.n;
            }
            self.registry
                .gauge_set(&format!("tier{tier}.utilization"), sums.cpu / k);
            self.registry
                .gauge_set(&format!("tier{tier}.goodput"), sums.xput);
            self.registry
                .gauge_set(&format!("tier{tier}.concurrency"), sums.threads / k);
            self.registry
                .gauge_set(&format!("tier{tier}.thread_queue"), sums.thread_queue / k);
            self.registry
                .gauge_set(&format!("tier{tier}.conn_queue"), sums.conn_queue / k);
            self.registry
                .gauge_set(&format!("tier{tier}.occupancy"), sums.occupancy / k);
        }
    }
}

/// Runs a trace experiment with the controller produced by `make` (which
/// receives the metrics bus the monitor publishes to).
pub fn run_trace_experiment<C, F>(config: &TraceExperimentConfig, make: F) -> TraceRunResult
where
    C: Controller + 'static,
    F: FnOnce(MetricsBus) -> C,
{
    let (world, engine) = ThreeTierBuilder::new()
        .counts(
            config.initial_counts.0,
            config.initial_counts.1,
            config.initial_counts.2,
        )
        .soft(config.initial_soft)
        .seed(config.seed)
        .build();
    run_trace_on_world(config, world, engine, ProfileFactory::rubbos().into(), make)
}

/// The shared experiment core: full monitoring/control/obs stack over a
/// pre-built world (chain or mesh) and workload factory. The config's
/// `initial_soft` / `initial_counts` are NOT consulted here — topology is
/// the caller's job; this function owns everything that happens after.
fn run_trace_on_world<C, F>(
    config: &TraceExperimentConfig,
    mut world: World,
    mut engine: SimEngine,
    factory: WorkloadFactory,
    make: F,
) -> TraceRunResult
where
    C: Controller + 'static,
    F: FnOnce(MetricsBus) -> C,
{
    world.system.boot_failure_prob = config.boot_failure_prob;
    world.system.inter_tier_retry = config.inter_tier_retry;
    if let Some(plan) = &config.fault_plan {
        dcm_ntier::faults::install_fault_plan(&mut world, &mut engine, plan);
    }
    let auditor = config.audit.then(|| {
        world.system.enable_tracing();
        ConservationAuditor::begin(&world.system, engine.now())
    });
    if config.obs.is_some() {
        world.system.enable_tracing();
        world.system.enable_event_log();
    }
    let tier_count = world.system.tier_count();

    // Monitoring pipeline.
    let bus = new_metrics_bus();
    install_monitor(
        &mut engine,
        Rc::clone(&bus),
        MonitorConfig::every_second_until(config.horizon),
    );

    // Per-second recorder for the Fig. 5(c)–(f) series.
    let recorder = Rc::new(RefCell::new(RecorderState {
        tier_vm_counts: vec![TimeSeries::new(); tier_count],
        tier_cpu_util: vec![TimeSeries::new(); tier_count],
    }));
    let rec_consumer = {
        let broker = bus.borrow();
        GroupConsumer::new("recorder", METRICS_TOPIC, &broker).expect("metrics topic exists")
    };
    schedule_recorder(
        &mut engine,
        Rc::clone(&recorder),
        Rc::clone(&bus),
        Rc::new(RefCell::new(rec_consumer)),
        config.horizon,
    );

    // Workload.
    let population = UserPopulation::start_trace_driven(
        &mut world,
        &mut engine,
        factory,
        &config.trace,
        config.think_time_secs,
        config.horizon,
    );
    if let Some(policy) = config.client_retry {
        population.set_client_retry(policy);
    }
    if let Some(secs) = config.request_deadline_secs {
        population.set_request_deadline(SimDuration::from_secs_f64(secs));
    }

    // Controller loop. The controller is scheduled before the obs tick so
    // that at every shared period boundary the engine (FIFO at equal
    // times) runs the controller first and the obs capture sees the
    // decisions of the tick it stamps.
    let controller = Rc::new(RefCell::new(make(Rc::clone(&bus))));
    schedule_controller(
        &mut engine,
        Rc::clone(&controller),
        config.control_period,
        config.horizon,
    );

    // Observability capture (spans, metrics, journal), one event per
    // control period.
    let journal = Rc::new(RefCell::new(DecisionJournal::new()));
    let obs_state = config.obs.map(|obs_config| {
        controller.borrow_mut().attach_journal(Rc::clone(&journal));
        let consumer = {
            let broker = bus.borrow();
            GroupConsumer::new("obs", METRICS_TOPIC, &broker).expect("metrics topic exists")
        };
        let state = Rc::new(RefCell::new(ObsState {
            recorder: SpanRecorder::new(SamplerConfig {
                rate: obs_config.sample_rate,
                seed: dcm_sim::rng::derive_seed(config.seed, OBS_SEED_STREAM),
                capacity: obs_config.span_capacity,
            }),
            registry: Registry::new(),
            series: SeriesTable::new(),
            consumer,
            ticks: Vec::new(),
            audit_spans: Vec::new(),
            last_counters: world.system.counters(),
            last_actions: 0,
            auditing: config.audit,
        }));
        schedule_obs(
            &mut engine,
            Rc::clone(&state),
            Rc::clone(&controller),
            Rc::clone(&bus),
            config.control_period,
            config.horizon,
        );
        state
    });

    // Run to the horizon, then drain in-flight work.
    engine.run_until(&mut world, config.horizon);
    let vm_seconds: Vec<f64> = (0..tier_count)
        .map(|t| world.system.vm_seconds(t, config.horizon))
        .collect();
    let vm_cost: Vec<f64> = (0..tier_count)
        .map(|t| world.system.vm_cost(t, config.horizon))
        .collect();
    engine.run(&mut world);

    let mut obs_final = obs_state.map(|state| {
        Rc::try_unwrap(state)
            .expect("obs events finished")
            .into_inner()
    });
    // Tail spans finished after the last periodic drain (or, with obs off,
    // every span of the run).
    let tail = world.system.take_spans();
    if let Some(state) = obs_final.as_mut() {
        state.recorder.record_all(&tail);
    }
    let audit_report = auditor.map(|auditor| {
        let mut spans = obs_final
            .as_mut()
            .map_or_else(Vec::new, |state| std::mem::take(&mut state.audit_spans));
        spans.extend(tail);
        let report = auditor.finish(&world.system, &spans, engine.now());
        if !config.audit_tolerant {
            report.assert_clean();
        }
        report
    });
    let obs = obs_final.map(|state| {
        let server_names: BTreeMap<ServerId, (String, usize)> = world
            .system
            .servers()
            .map(|s| (s.id(), (s.name().to_string(), s.tier())))
            .collect();
        let events = world.system.take_server_events();
        let (spans, stats) = state.recorder.finish();
        ObsArtifacts {
            trace: TraceData {
                spans,
                events,
                ticks: state.ticks,
                server_names,
                stats,
            },
            journal: journal.borrow().clone(),
            series: state.series,
        }
    });

    let recorder = Rc::try_unwrap(recorder)
        .expect("recorder events finished")
        .into_inner();
    let controller = controller.borrow();
    TraceRunResult {
        controller: controller.name(),
        completions: population.completions(),
        offered: population.offered_series(),
        tier_vm_counts: recorder.tier_vm_counts,
        tier_cpu_util: recorder.tier_cpu_util,
        actions: controller.actions(),
        planner_evals: controller.planner_evals(),
        vm_seconds,
        vm_cost,
        counters: world.system.counters(),
        horizon: config.horizon,
        obs,
        audit: audit_report,
    }
}

fn schedule_obs<C: Controller + 'static>(
    engine: &mut SimEngine,
    state: Rc<RefCell<ObsState>>,
    controller: Rc<RefCell<C>>,
    bus: MetricsBus,
    period: SimDuration,
    stop_at: SimTime,
) {
    let next = engine.now() + period;
    if next > stop_at {
        return;
    }
    engine.schedule_at(next, move |world: &mut World, engine: &mut SimEngine| {
        let now = engine.now();
        state
            .borrow_mut()
            .capture(world, &controller, &bus, now, period);
        schedule_obs(engine, state, controller, bus, period, stop_at);
    });
}

fn schedule_controller<C: Controller + 'static>(
    engine: &mut SimEngine,
    controller: Rc<RefCell<C>>,
    period: SimDuration,
    stop_at: SimTime,
) {
    let next = engine.now() + period;
    if next > stop_at {
        return;
    }
    engine.schedule_at(next, move |world: &mut World, engine: &mut SimEngine| {
        controller.borrow_mut().on_tick(world, engine);
        schedule_controller(engine, controller, period, stop_at);
    });
}

fn schedule_recorder(
    engine: &mut SimEngine,
    recorder: Rc<RefCell<RecorderState>>,
    bus: MetricsBus,
    consumer: Rc<RefCell<GroupConsumer>>,
    stop_at: SimTime,
) {
    let next = engine.now() + SimDuration::from_secs(1);
    if next > stop_at {
        return;
    }
    engine.schedule_at(next, move |world: &mut World, engine: &mut SimEngine| {
        let now = engine.now();
        {
            let mut rec = recorder.borrow_mut();
            for tier in 0..world.system.tier_count() {
                rec.tier_vm_counts[tier].push(now, world.system.running_count(tier) as f64);
            }
            let records = {
                let broker = bus.borrow();
                consumer
                    .borrow_mut()
                    .poll(&broker, 10_000)
                    .expect("metrics topic exists")
            };
            let windows = crate::aggregate::aggregate_by_tier(&records);
            for tier in 0..world.system.tier_count() {
                let util = windows.get(&tier).map_or(0.0, |w| w.mean_cpu_util);
                rec.tier_cpu_util[tier].push(now, util);
            }
        }
        schedule_recorder(engine, recorder, bus, consumer, stop_at);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{DcmConfig, DcmModels, Ec2AutoScale};
    use crate::policy::ScalingConfig;
    use dcm_model::concurrency::ConcurrencyModel;
    use dcm_ntier::law::reference;
    use dcm_workload::traces;

    fn quick_config(trace: WorkloadTrace) -> TraceExperimentConfig {
        TraceExperimentConfig {
            trace,
            horizon: SimTime::from_secs(120),
            think_time_secs: 1.0,
            initial_soft: SoftConfig::new(1000, 200, 40),
            initial_counts: (1, 1, 1),
            control_period: SimDuration::from_secs(15),
            seed: 5,
            boot_failure_prob: 0.0,
            fault_plan: None,
            client_retry: None,
            request_deadline_secs: None,
            inter_tier_retry: None,
            audit: true,
            audit_tolerant: false,
            obs: None,
        }
    }

    #[test]
    fn ec2_run_scales_out_under_step_load() {
        let config = quick_config(traces::step(20, 320, 30.0));
        let result = run_trace_experiment(&config, |bus| {
            Ec2AutoScale::new(bus, ScalingConfig::default())
        });
        assert_eq!(result.controller, "EC2-AutoScale");
        assert!(
            result
                .actions
                .iter()
                .any(|a| matches!(a.action, crate::agents::Action::ScaleOut { .. })),
            "step load should trigger a scale-out: {:?}",
            result.actions
        );
        // Series recorded every second.
        assert_eq!(result.tier_vm_counts.len(), 3);
        assert!(result.tier_vm_counts[1].len() >= 118);
        assert!(result.counters.in_flight() == 0);
        assert!(result.overall().completed() > 500);
        // VM-seconds: tier 1 grew beyond one server at some point.
        assert!(result.vm_seconds[1] > 120.0 - 1e-9);
    }

    #[test]
    fn dcm_run_applies_soft_allocations() {
        let config = quick_config(traces::step(20, 320, 30.0));
        let app = reference::tomcat();
        let db = reference::mysql();
        let models = DcmModels {
            app: ConcurrencyModel::new(app.s0(), app.alpha(), app.beta(), 1.0, 1),
            db: ConcurrencyModel::new(db.s0(), db.alpha(), db.beta(), 1.0, 1),
        };
        let result = run_trace_experiment(&config, |bus| {
            crate::controller::Dcm::new(bus, DcmConfig::default(), models)
        });
        assert_eq!(result.controller, "DCM");
        assert!(
            result
                .actions
                .iter()
                .any(|a| matches!(a.action, crate::agents::Action::SetThreadPools { .. })),
            "DCM must actuate thread pools: {:?}",
            result.actions
        );
        assert!(result.counters.in_flight() == 0);
    }

    #[test]
    fn obs_capture_journals_every_action_with_reasons() {
        let mut config = quick_config(traces::step(20, 320, 30.0));
        config.obs = Some(ObsConfig::default());
        let app = reference::tomcat();
        let db = reference::mysql();
        let models = DcmModels {
            app: ConcurrencyModel::new(app.s0(), app.alpha(), app.beta(), 1.0, 1),
            db: ConcurrencyModel::new(db.s0(), db.alpha(), db.beta(), 1.0, 1),
        };
        let result = run_trace_experiment(&config, |bus| {
            crate::controller::Dcm::new(bus, DcmConfig::default(), models)
        });
        let obs = result.obs.as_ref().expect("obs requested");
        // One journal entry, control tick, and series row per control
        // period (120 s horizon / 15 s period).
        assert_eq!(obs.journal.len(), 8);
        assert_eq!(obs.trace.ticks.len(), 8);
        assert_eq!(obs.series.len(), 8);
        // Every actuation in the timeline is reconstructable from the
        // journal: same tick, same tier, marked applied.
        assert!(!result.actions.is_empty());
        for action in &result.actions {
            let entry = obs
                .journal
                .entries()
                .iter()
                .find(|e| e.at == action.at)
                .unwrap_or_else(|| panic!("no journal entry at {:?}", action.at));
            let (kinds, tier): (&[&str], usize) = match &action.action {
                crate::agents::Action::ScaleOut { tier } => (&["scale-out", "replace-lost"], *tier),
                crate::agents::Action::ScaleIn { tier } => (&["scale-in"], *tier),
                crate::agents::Action::SetThreadPools { tier, .. } => (&["set-threads"], *tier),
                crate::agents::Action::SetConnPools { tier, .. } => (&["set-conns"], *tier),
            };
            assert!(
                entry.decisions.iter().any(|d| d.applied
                    && d.tier == tier
                    && kinds.contains(&d.action.as_str())
                    && !d.reason.is_empty()),
                "action {action:?} has no applied journal decision: {:?}",
                entry.decisions
            );
        }
        // DCM journals its model state with provenance every tick.
        let entry = &obs.journal.entries()[0];
        assert_eq!(entry.fits.len(), 2);
        assert!(entry.fits.iter().all(|f| f.source == "offline"));
        // Recorder accounting is conserved and spans were captured.
        let stats = obs.trace.stats;
        assert_eq!(stats.seen, stats.recorded + stats.unsampled);
        assert!(stats.seen > 0, "spans must flow into the recorder");
        assert!(!obs.trace.spans.is_empty());
        assert!(!obs.trace.server_names.is_empty());
        // Per-tier gauges landed in the series.
        assert!(obs.series.column("tier1.utilization").is_some());
        assert!(obs.series.column("tier1.occupancy").is_some());
        assert!(obs.series.column("sys.completed").is_some());
        // The audit ran alongside obs (quick_config sets audit: true), so
        // the periodic span drain fed both consumers without conflict.
    }

    #[test]
    fn audit_report_is_surfaced_in_the_result() {
        let mut config = quick_config(traces::step(20, 120, 30.0));
        config.audit_tolerant = true;
        let run = run_trace_experiment(&config, |bus| {
            Ec2AutoScale::new(bus, ScalingConfig::default())
        });
        let report = run.audit.as_ref().expect("audit requested");
        assert!(report.is_clean(), "clean run: {:?}", report.violations);
        assert!(report.spans_audited > 0, "audit must have seen spans");
    }

    #[test]
    fn obs_disabled_run_carries_no_artifacts() {
        let config = quick_config(traces::step(20, 320, 30.0));
        let result = run_trace_experiment(&config, |bus| {
            Ec2AutoScale::new(bus, ScalingConfig::default())
        });
        assert!(result.obs.is_none());
    }

    #[test]
    fn mesh_run_with_cache_and_mixed_vms_conserves_requests() {
        use dcm_ntier::server::VmType;
        use dcm_ntier::system::VmPolicy;
        use dcm_sim::dist::Dist;
        use dcm_workload::cache::CacheDynamics;

        // Fan-out mesh: web -> app -> {svc, db×2}, a warming cache on the
        // app -> db edge, and a mixed small/large DB fleet. The full
        // monitoring/control/audit stack must hold on this topology too.
        let graph = TopologyGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (1, 3, 2)]);
        let config = MeshExperimentConfig {
            run: quick_config(traces::step(20, 200, 30.0)),
            nodes: vec![
                MeshNode::new("web", reference::apache(), 1000),
                MeshNode::new("app", reference::tomcat(), 100).conns(80),
                MeshNode::new("svc", reference::tomcat(), 50),
                MeshNode::new("db", reference::mysql(), 800)
                    .count(2)
                    .vm_policy(VmPolicy::cycle(vec![VmType::SMALL, VmType::LARGE])),
            ],
            graph: graph.clone(),
            demands: vec![
                NodeDemand::split(Dist::constant(0.002)),
                NodeDemand::split(Dist::constant(0.008)),
                NodeDemand::leaf(Dist::exponential_mean(0.01)).iid_visits(),
                NodeDemand::leaf(Dist::exponential_mean(0.02)).iid_visits(),
            ],
            cache: Some(CacheEdge {
                from: 1,
                to: 3,
                dynamics: CacheDynamics::new(0.5, 200.0),
            }),
        };
        let result = run_mesh_trace_experiment(&config, |bus| {
            Ec2AutoScale::new(bus, ScalingConfig::default())
        });
        assert_eq!(result.counters.in_flight(), 0, "mesh conservation");
        assert!(result.overall().completed() > 200);
        assert_eq!(result.vm_seconds.len(), 4);
        assert_eq!(result.vm_cost.len(), 4);
        // Two DB servers for the whole horizon, one small + one large:
        // the dollar metric must price the pair above two smalls.
        let horizon_h = result.horizon.as_secs_f64() / 3600.0;
        let two_smalls = 2.0 * VmType::SMALL.price_per_hour * horizon_h;
        assert!(
            result.vm_cost[3] > two_smalls * 1.2,
            "mixed fleet must cost more than homogeneous small: {} vs {}",
            result.vm_cost[3],
            two_smalls
        );
        assert!(result.total_vm_cost() > result.vm_cost[3]);
    }

    #[test]
    fn faulted_run_conserves_requests() {
        let mut config = quick_config(traces::step(20, 200, 30.0));
        config.fault_plan = Some(
            FaultPlan::none()
                .with_crash(40.0, 1, 0)
                .with_straggler(60.0, 2, 0, 4.0, 20.0)
                .with_transient_failures(0.005),
        );
        config.client_retry = Some(RetryPolicy::default());
        config.request_deadline_secs = Some(10.0);
        config.inter_tier_retry = Some(InterTierRetry::default());
        let result = run_trace_experiment(&config, |bus| {
            Ec2AutoScale::new(bus, ScalingConfig::default())
        });
        assert_eq!(result.counters.in_flight(), 0, "conservation under faults");
        assert!(
            result.counters.failed > 0,
            "the crash must fail in-flight work: {:?}",
            result.counters
        );
        // The app tier lost its only server at t=40; the controller must
        // have booted a replacement rather than holding a dead tier.
        assert!(
            result
                .actions
                .iter()
                .any(|a| matches!(a.action, crate::agents::Action::ScaleOut { tier: 1, .. })),
            "crashed tier must be re-provisioned: {:?}",
            result.actions
        );
    }
}
