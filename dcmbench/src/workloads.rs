//! The three workloads. Each is built only through the public API of the
//! repository's crates, and each pass of a workload is a fixed amount of
//! simulated work: the same seed gives the same inputs and the same
//! simulated outputs on every pass.
//!
//! Timing is taken from outside the program:
//! * `fleet` drives `engine.run_until` itself, one slice per control period;
//! * `control` and `mesh_chaos` run through the dcm-core trace harness with
//!   the controller wrapped in [`Timed`], which implements the public
//!   `Controller` trait, times every `on_tick` and cuts the time between
//!   ticks into `run_until` slices;
//! * world building, population start, model training and obs export are
//!   timed around the calls.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use dcm_bench::experiments::fleet::{Fleet, FleetPoint};
use dcm_bench::experiments::league::{self, League, TraceKind};
use dcm_bench::experiments::mesh::{self, MeshBench, MeshController, MeshTrace};
use dcm_bench::experiments::Fidelity;
use dcm_core::agents::ActionRecord;
use dcm_core::controller::{Controller, Dcm, DcmConfig, DcmModels};
use dcm_core::experiment::{
    run_mesh_trace_experiment, run_trace_experiment, MeshExperimentConfig, ObsConfig,
    TraceExperimentConfig, TraceRunResult,
};
use dcm_core::monitor::{MetricsBus, METRICS_TOPIC};
use dcm_core::mpc::{ModelPredictive, MpcConfig};
use dcm_ntier::balancer::BalancerPolicy;
use dcm_ntier::system::SystemCounters;
use dcm_ntier::topology::{MeshBuilder, SoftConfig, ThreeTierBuilder};
use dcm_ntier::world::{SimEngine, World};
use dcm_obs::journal::DecisionJournal;
use dcm_obs::trace::{chrome_trace_json, spans_csv, TraceData};
use dcm_sim::dist::Dist;
use dcm_sim::rng::derive_seed;
use dcm_sim::time::{SimDuration, SimTime};
use dcm_workload::cohort::CohortPopulation;
use dcm_workload::generator::UserPopulation;
use dcm_workload::profile::{MeshProfileFactory, ProfileFactory};

use crate::check::Fingerprint;
use crate::spans::Tracer;
use crate::speed::SpeedProbe;

/// Servers in each fleet tier (the 250-per-tier row of `results/fleet.csv`).
const FLEET_SERVERS: u32 = 250;
/// Closed-loop users per fleet server, as in the fleet experiment.
const FLEET_USERS_PER_SERVER: u32 = 1000;
/// Users multiplexed onto one cohort timer, as in the fleet experiment.
const FLEET_COHORT: u32 = 256;
/// Mean exponential think time of a fleet user, seconds.
const FLEET_THINK_SECS: f64 = 30.0;
/// Simulated fleet horizon, seconds.
const FLEET_HORIZON_SECS: u64 = 300;
/// Control period, seconds: the `run_until` slice length on every workload.
const CONTROL_PERIOD_SECS: u64 = 15;
/// Response-time SLO, seconds.
const SLO_SECS: f64 = 1.0;
/// Far past every horizon: the drain probe runs after the last real event.
const DRAIN_PROBE_SECS: u64 = 10_000_000;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 3-tier chain, 250 servers per tier, 250,000 cohort users, no
    /// controller: the DES kernel does all the work.
    Fleet,
    /// The MPC controller on the four league traces: the planner does
    /// almost all the work.
    Control,
    /// The mesh DAG with the warming cache and mixed VM flavours under
    /// DCM, with the league chaos fault plan and obs capture on.
    MeshChaos,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Fleet, Workload::Control, Workload::MeshChaos];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fleet => "fleet",
            Workload::Control => "control",
            Workload::MeshChaos => "mesh_chaos",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether set-up trains the DCM models (`table1::run_table1`).
    pub fn needs_models(self) -> bool {
        self != Workload::Fleet
    }
}

/// Simulated counts of one cell, read through public accessors. Summed
/// over the cells of a pass. Engine counts (`events`, `pending_end`) and
/// slab counts are read only on traced passes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Engine events executed, drain included.
    pub events: u64,
    /// Pending engine events at the horizon.
    pub pending_end: u64,
    /// System counters after the drain.
    pub sys: SystemCounters,
    /// Request-slab slots created fresh.
    pub slab_allocated: u64,
    /// Request-slab slots recycled.
    pub slab_reused: u64,
    /// Dollars of VM time at the horizon.
    pub vm_dollars: f64,
    /// Logical client requests that finished (retries folded).
    pub logical: u64,
    /// Sum of response times over `logical`, seconds.
    pub rt_sum: f64,
    /// Requests that met the 1 s SLO (`None` where no per-request log is kept).
    pub slo_met: Option<f64>,
    /// Records the monitor published on the metrics topic.
    pub bus_records: u64,
    /// Controller ticks.
    pub ticks: u64,
    /// Candidate-plan evaluations.
    pub planner_evals: u64,
    /// Scaling actions applied.
    pub actions: u64,
    /// Spans offered to the obs recorder.
    pub spans_seen: u64,
    /// Spans admitted to the obs ring.
    pub spans_recorded: u64,
    /// Spans evicted from the obs ring.
    pub spans_evicted: u64,
}

impl Counts {
    /// Requests that left the system with any outcome.
    pub fn requests(&self) -> u64 {
        self.sys.completed + self.sys.rejected + self.sys.timed_out + self.sys.failed
    }

    /// Adds another cell's counts.
    pub fn add(&mut self, o: &Counts) {
        self.events += o.events;
        self.pending_end += o.pending_end;
        let (a, b) = (&mut self.sys, &o.sys);
        a.submitted += b.submitted;
        a.completed += b.completed;
        a.rejected += b.rejected;
        a.timed_out += b.timed_out;
        a.failed += b.failed;
        a.retried += b.retried;
        self.slab_allocated += o.slab_allocated;
        self.slab_reused += o.slab_reused;
        self.vm_dollars += o.vm_dollars;
        self.logical += o.logical;
        self.rt_sum += o.rt_sum;
        self.slo_met = match (self.slo_met, o.slo_met) {
            (Some(x), Some(y)) => Some(x + y),
            _ => None,
        };
        self.bus_records += o.bus_records;
        self.ticks += o.ticks;
        self.planner_evals += o.planner_evals;
        self.actions += o.actions;
        self.spans_seen += o.spans_seen;
        self.spans_recorded += o.spans_recorded;
        self.spans_evicted += o.spans_evicted;
    }
}

/// What one cell produced.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// `workload/cell`, e.g. `control/step`.
    pub label: String,
    /// Host seconds of world building and population start.
    pub setup_s: f64,
    /// Host seconds of each consecutive segment of the measured part:
    /// `run_until` slices and controller ticks, then the drain and result
    /// assembly, the summary and the obs export. Passes of one run do the
    /// same work, so they have the same segments.
    pub segments: Vec<f64>,
    /// Simulated counts.
    pub counts: Counts,
    /// Exact simulated outputs the correctness gate compares.
    pub fingerprint: Fingerprint,
    /// The cell's row in the format of the committed artifact it
    /// reproduces (`results/fleet.csv`, `results/league.csv`) or of
    /// `results/mesh.csv` for the mesh.
    pub row: String,
}

impl CellOutcome {
    /// Host seconds of the measured part: set-up excluded.
    pub fn measured_s(&self) -> f64 {
        self.segments.iter().sum()
    }
}

/// Times consecutive segments: each mark ends the segment that began at
/// the previous one.
#[derive(Debug)]
struct Clock {
    last: Instant,
    segments: Vec<f64>,
}

impl Clock {
    fn start(at: Instant) -> Self {
        Clock {
            last: at,
            segments: Vec::new(),
        }
    }

    fn mark(&mut self, at: Instant) {
        self.segments.push(secs_between(self.last, at));
        self.last = at;
    }
}

/// Everything a pass needs besides its seed.
pub struct Ctx<'a> {
    /// Trained DCM models (`None` on `fleet`).
    pub models: Option<DcmModels>,
    /// The span recorder (off on untraced passes).
    pub tracer: &'a Rc<RefCell<Tracer>>,
    /// The host speed probe, run between segments.
    pub speed: &'a Rc<RefCell<SpeedProbe>>,
    /// The pass span every cell hangs under.
    pub parent: Option<usize>,
}

/// Runs one pass of `workload` with workload seed `seed`.
pub fn run_pass(workload: Workload, seed: u64, ctx: &Ctx<'_>) -> Vec<CellOutcome> {
    match workload {
        Workload::Fleet => vec![fleet_cell(seed, ctx)],
        Workload::Control => TraceKind::ALL
            .into_iter()
            .map(|trace| control_cell(trace, seed, ctx))
            .collect(),
        Workload::MeshChaos => vec![mesh_chaos_cell(seed, ctx)],
    }
}

fn secs_between(a: Instant, b: Instant) -> f64 {
    b.duration_since(a).as_secs_f64()
}

/// Runs the host speed probe if it is due, recording it as a `host.probe`
/// span, and returns when it ended so the caller's clock can skip it.
fn probe_speed(
    speed: &RefCell<SpeedProbe>,
    tracer: &RefCell<Tracer>,
    cell: Option<usize>,
) -> Option<Instant> {
    let (from, to) = speed.borrow_mut().maybe_probe()?;
    tracer.borrow_mut().push("host.probe", from, to, cell);
    Some(to)
}

/// Builds the fleet world: 250 servers per tier behind round-robin
/// balancers, seeded as the fleet experiment seeds its 250-per-tier point.
fn fleet_build(seed: u64) -> (World, SimEngine) {
    ThreeTierBuilder::new()
        .counts(FLEET_SERVERS, FLEET_SERVERS, FLEET_SERVERS)
        .soft(SoftConfig::new(2000, 22, 18))
        .balancer(BalancerPolicy::RoundRobin)
        .seed(derive_seed(seed, u64::from(FLEET_SERVERS)))
        .build()
}

/// Starts the fleet's 250,000 staggered cohort users.
fn fleet_start(world: &mut World, engine: &mut SimEngine) -> CohortPopulation {
    let population = CohortPopulation::start_staggered(
        world,
        engine,
        ProfileFactory::rubbos(),
        FLEET_SERVERS * FLEET_USERS_PER_SERVER,
        FLEET_COHORT,
        Dist::exponential_mean(FLEET_THINK_SECS),
        SimTime::from_secs(FLEET_HORIZON_SECS),
    );
    population.disable_log();
    population
}

/// Host seconds of one fleet set-up (world build and population start),
/// as a fleet pass does it; the world is dropped unrun.
pub fn fleet_setup_s(seed: u64) -> f64 {
    let from = Instant::now();
    let (mut world, mut engine) = fleet_build(seed);
    std::hint::black_box(fleet_start(&mut world, &mut engine));
    from.elapsed().as_secs_f64()
}

fn fleet_cell(seed: u64, ctx: &Ctx<'_>) -> CellOutcome {
    let tracer = ctx.tracer;
    let cell = tracer.borrow_mut().open("bench.cell", ctx.parent);
    let entry = Instant::now();
    let (mut world, mut engine) = fleet_build(seed);
    let built = Instant::now();
    tracer.borrow_mut().push("setup.build", entry, built, cell);
    let population = fleet_start(&mut world, &mut engine);
    let started = Instant::now();
    tracer
        .borrow_mut()
        .push("setup.start", built, started, cell);

    let users = FLEET_SERVERS * FLEET_USERS_PER_SERVER;
    let end = SimTime::from_secs(FLEET_HORIZON_SECS);
    let mut clock = Clock::start(started);
    let mut slice_end = SimTime::ZERO;
    while slice_end < end {
        slice_end = (slice_end + SimDuration::from_secs(CONTROL_PERIOD_SECS)).min(end);
        let from = clock.last;
        engine.run_until(&mut world, slice_end);
        let to = Instant::now();
        clock.mark(to);
        tracer.borrow_mut().push("sim.slice", from, to, cell);
        if let Some(end) = probe_speed(ctx.speed, tracer, cell) {
            clock.last = end;
        }
    }
    let at_horizon = population.stats();
    let pending_end = engine.pending() as u64;
    let (slab_allocated, slab_reused) = world.system.request_slab_stats();
    let vm_seconds: Vec<f64> = (0..3).map(|t| world.system.vm_seconds(t, end)).collect();
    let vm_cost: Vec<f64> = (0..3).map(|t| world.system.vm_cost(t, end)).collect();
    // Drain the in-flight requests so the conservation check sees every
    // request settled.
    let from = clock.last;
    engine.run(&mut world);
    let drained_at = Instant::now();
    clock.mark(drained_at);
    tracer
        .borrow_mut()
        .push("sim.drain", from, drained_at, cell);
    let (chrome, csv) = export_obs(&TraceData::default(), &mut clock, ctx, cell);

    let sys = world.system.counters();
    let drained = population.stats();
    let sim_secs = FLEET_HORIZON_SECS as f64;
    let fleet = Fleet {
        points: vec![FleetPoint {
            servers_per_tier: FLEET_SERVERS,
            users,
            events: 0,
            completions: at_horizon.completed,
            succeeded: at_horizon.succeeded,
            sim_secs,
            throughput: at_horizon.completed as f64 / sim_secs,
            mean_rt: at_horizon.response_mean(),
            max_rt: at_horizon.response_max,
            slab_allocated,
            slab_reused,
            pending_at_end: 0,
        }],
        cohort_size: FLEET_COHORT,
    };
    let row = last_csv_row(&fleet.table().to_csv());
    end_cell(&mut clock, ctx, cell);
    let mut fingerprint = Fingerprint::default();
    fingerprint.counters(&sys);
    fingerprint
        .u("horizon_completed", at_horizon.completed)
        .u("horizon_succeeded", at_horizon.succeeded)
        .f("horizon_rt_sum", at_horizon.response_sum)
        .f("horizon_rt_max", at_horizon.response_max)
        .u("drained_completed", drained.completed)
        .f("drained_rt_sum", drained.response_sum)
        .fs("vm_seconds", &vm_seconds)
        .fs("vm_cost", &vm_cost)
        .text("obs.chrome_trace", &chrome)
        .text("obs.spans_csv", &csv);
    let counts = Counts {
        events: engine.executed(),
        pending_end,
        sys,
        slab_allocated,
        slab_reused,
        vm_dollars: vm_cost.iter().sum(),
        logical: drained.completed,
        rt_sum: drained.response_sum,
        slo_met: None,
        ..Counts::default()
    };
    CellOutcome {
        label: format!("fleet/{FLEET_SERVERS}"),
        setup_s: secs_between(entry, started),
        segments: clock.segments,
        counts,
        fingerprint,
        row,
    }
}

fn last_csv_row(csv: &str) -> String {
    csv.lines().last().unwrap_or_default().to_string()
}

/// The league trace `kind` at full fidelity, under workload seed `seed`.
/// The league runs every trace from the same experiment seed, so `seed`
/// is that seed: `--seed 4242` reproduces `results/league.csv`.
fn control_config(kind: TraceKind, seed: u64) -> TraceExperimentConfig {
    let mut config = league::league_trace_config(kind, Fidelity::Full);
    config.seed = seed;
    config.audit = false;
    config
}

fn control_cell(kind: TraceKind, seed: u64, ctx: &Ctx<'_>) -> CellOutcome {
    let config = control_config(kind, seed);
    let models = ctx.models.expect("control trains the DCM models in set-up");
    if ctx.tracer.borrow().on() {
        probe_chain_setup(&config, ctx);
    }
    let (run, timing, clock) = harness_cell(ctx, config.horizon, |probe| {
        run_trace_experiment(&config, |bus| {
            Timed::new(probe, bus, |bus| {
                ModelPredictive::new(bus, MpcConfig::default(), models)
            })
        })
    });
    finish_harness_cell(
        ctx,
        format!("control/{}", kind.name()),
        &run,
        &timing,
        clock,
        |run| {
            let league = League {
                cells: vec![league::summarize_cell(
                    league::ControllerKind::Mpc,
                    kind,
                    run,
                )],
                standings: Vec::new(),
                horizon_secs: config.horizon.as_secs_f64(),
                mpc_journal_json: String::new(),
                mpc_journal_explain: String::new(),
            };
            last_csv_row(&league.to_csv())
        },
    )
}

/// The mesh DAG (web → app → {db ×2, svc}, warming cache, mixed VM
/// flavours) on the step trace, carrying the league chaos trace's fault
/// plan, retries and deadline, with obs capture on. The mesh runs from a
/// single experiment seed, so `seed` is that seed.
fn mesh_chaos_config(seed: u64) -> MeshExperimentConfig {
    let mut config = mesh::mesh_experiment_config(MeshTrace::Step, Fidelity::Full);
    let chaos = league::league_trace_config(TraceKind::Chaos, Fidelity::Full);
    config.run.fault_plan = chaos.fault_plan;
    config.run.client_retry = chaos.client_retry;
    config.run.request_deadline_secs = chaos.request_deadline_secs;
    config.run.inter_tier_retry = chaos.inter_tier_retry;
    config.run.obs = Some(ObsConfig::default());
    config.run.seed = seed;
    config.run.audit = false;
    config
}

fn mesh_chaos_cell(seed: u64, ctx: &Ctx<'_>) -> CellOutcome {
    let config = mesh_chaos_config(seed);
    let models = ctx
        .models
        .expect("mesh_chaos trains the DCM models in set-up");
    if ctx.tracer.borrow().on() {
        probe_mesh_setup(&config, ctx);
    }
    let (run, timing, clock) = harness_cell(ctx, config.run.horizon, |probe| {
        run_mesh_trace_experiment(&config, |bus| {
            Timed::new(probe, bus, |bus| {
                Dcm::new(bus, DcmConfig::default(), models)
            })
        })
    });
    let horizon_secs = config.run.horizon.as_secs_f64();
    finish_harness_cell(
        ctx,
        "mesh_chaos/dcm".to_string(),
        &run,
        &timing,
        clock,
        |run| {
            let bench = MeshBench {
                cells: vec![mesh::summarize_mesh_cell(
                    MeshController::Dcm,
                    MeshTrace::Step,
                    run,
                )],
                horizon_secs,
            };
            last_csv_row(&bench.to_csv())
        },
    )
}

/// Exports what obs captured (nothing when capture is off) as the Chrome
/// trace and the spans CSV, timed as an `obs.export` segment and span.
fn export_obs(
    data: &TraceData,
    clock: &mut Clock,
    ctx: &Ctx<'_>,
    cell: Option<usize>,
) -> (String, String) {
    let from = clock.last;
    let exported = (chrome_trace_json(data), spans_csv(data));
    let to = Instant::now();
    clock.mark(to);
    ctx.tracer.borrow_mut().push("obs.export", from, to, cell);
    exported
}

/// Ends a cell's measured part: times `from..now` as the summary segment
/// and closes the cell span. What follows is the benchmark's own checking.
fn end_cell(clock: &mut Clock, ctx: &Ctx<'_>, cell: Option<usize>) {
    let from = clock.last;
    let done = Instant::now();
    clock.mark(done);
    let mut t = ctx.tracer.borrow_mut();
    t.push("bench.summary", from, done, cell);
    t.close(cell);
}

/// Exports obs, summarises and fingerprints a finished harness cell;
/// `summary_row` renders the cell in its committed artifact's format.
fn finish_harness_cell(
    ctx: &Ctx<'_>,
    label: String,
    run: &TraceRunResult,
    timing: &HarnessTiming,
    mut clock: Clock,
    summary_row: impl FnOnce(&TraceRunResult) -> String,
) -> CellOutcome {
    let off = TraceData::default();
    let captured = run.obs.as_ref().map_or(&off, |obs| &obs.trace);
    let (chrome, csv) = export_obs(captured, &mut clock, ctx, timing.cell);
    let row = summary_row(run);
    end_cell(&mut clock, ctx, timing.cell);
    let (mut fingerprint, counts) = harness_outputs(run, timing);
    fingerprint
        .text("obs.chrome_trace", &chrome)
        .text("obs.spans_csv", &csv);
    CellOutcome {
        label,
        setup_s: timing.setup_s,
        segments: clock.segments,
        counts,
        fingerprint,
        row,
    }
}

/// Times the chain harness's world build and population start on their
/// own (the harness makes both calls inside one function).
fn probe_chain_setup(config: &TraceExperimentConfig, ctx: &Ctx<'_>) {
    let entry = Instant::now();
    let (c0, c1, c2) = config.initial_counts;
    let (mut world, mut engine) = ThreeTierBuilder::new()
        .counts(c0, c1, c2)
        .soft(config.initial_soft)
        .seed(config.seed)
        .build();
    let built = Instant::now();
    let population = UserPopulation::start_trace_driven(
        &mut world,
        &mut engine,
        ProfileFactory::rubbos(),
        &config.trace,
        config.think_time_secs,
        config.horizon,
    );
    std::hint::black_box(&population);
    let mut t = ctx.tracer.borrow_mut();
    t.push("setup.build", entry, built, ctx.parent);
    t.push("setup.start", built, Instant::now(), ctx.parent);
}

/// Times the mesh harness's world build and population start on their own.
fn probe_mesh_setup(config: &MeshExperimentConfig, ctx: &Ctx<'_>) {
    let entry = Instant::now();
    let mut builder = MeshBuilder::new().seed(config.run.seed);
    for node in config.nodes.clone() {
        builder = builder.node(node);
    }
    let (mut world, mut engine) = builder.build();
    let built = Instant::now();
    let mut factory = MeshProfileFactory::new(config.graph.clone(), config.demands.clone());
    if let Some(cache) = config.cache.clone() {
        factory = factory.with_cache(cache.from, cache.to, cache.dynamics);
    }
    let population = UserPopulation::start_trace_driven(
        &mut world,
        &mut engine,
        factory,
        &config.run.trace,
        config.run.think_time_secs,
        config.run.horizon,
    );
    std::hint::black_box(&population);
    let mut t = ctx.tracer.borrow_mut();
    t.push("setup.build", entry, built, ctx.parent);
    t.push("setup.start", built, Instant::now(), ctx.parent);
}

/// Host times and engine counts one harness cell collected.
struct HarnessTiming {
    cell: Option<usize>,
    /// The harness's set-up: entry until it builds the controller.
    setup_s: f64,
    ticks: u64,
    bus_records: u64,
    pending_end: u64,
    events: u64,
    slab: (u64, u64),
}

/// Runs one harness cell: `run` calls the dcm-core harness with a
/// controller built through [`Timed::new`]. Returns the run, its timing,
/// and its segments up to the harness's return.
fn harness_cell(
    ctx: &Ctx<'_>,
    horizon: SimTime,
    run: impl FnOnce(&Rc<RefCell<Probe>>) -> TraceRunResult,
) -> (TraceRunResult, HarnessTiming, Clock) {
    let cell = ctx.tracer.borrow_mut().open("bench.cell", ctx.parent);
    let probe = Rc::new(RefCell::new(Probe {
        tracer: Rc::clone(ctx.tracer),
        speed: Rc::clone(ctx.speed),
        cell,
        horizon,
        made: None,
        bus: None,
        clock: None,
        ticks: 0,
        pending_end: 0,
        drained: None,
    }));
    let entry = Instant::now();
    let result = run(&probe);
    let returned = Instant::now();
    let mut p = probe.borrow_mut();
    let made = p.made.expect("the harness builds its controller");
    let mut clock = p.clock.take().expect("the harness builds its controller");
    clock.mark(returned);
    let mut t = ctx.tracer.borrow_mut();
    t.push("setup.harness", entry, made, cell);
    if let Some((at, _, _)) = p.drained {
        t.push("core.harness", at, returned, cell);
    }
    let (events, slab) = p.drained.map_or((0, (0, 0)), |(_, e, s)| (e, s));
    let bus_records = p.bus.as_ref().map_or(0, |bus| {
        let broker = bus.borrow();
        let parts = broker
            .partition_count(METRICS_TOPIC)
            .expect("metrics topic exists");
        (0..parts)
            .map(|part| {
                broker
                    .high_watermark(METRICS_TOPIC, part)
                    .expect("partition exists")
            })
            .sum()
    });
    let timing = HarnessTiming {
        cell,
        setup_s: secs_between(entry, made),
        ticks: p.ticks,
        bus_records,
        pending_end: p.pending_end,
        events,
        slab,
    };
    drop(p);
    (result, timing, clock)
}

/// Fingerprint and counts of a harness run.
fn harness_outputs(run: &TraceRunResult, timing: &HarnessTiming) -> (Fingerprint, Counts) {
    let overall = run.overall();
    let logical = run.completions.len() as u64;
    let rt_sum: f64 = run
        .completions
        .iter()
        .map(|c| c.response_time().as_secs_f64())
        .sum();
    let succeeded = run.completions.iter().filter(|c| c.is_success()).count() as u64;
    let mut fingerprint = Fingerprint::default();
    fingerprint.counters(&run.counters);
    fingerprint
        .u("completions", logical)
        .u("succeeded", succeeded)
        .f("rt_sum", rt_sum)
        .u("actions", run.actions.len() as u64)
        .fs("vm_seconds", &run.vm_seconds)
        .fs("vm_cost", &run.vm_cost);
    let mut counts = Counts {
        events: timing.events,
        pending_end: timing.pending_end,
        sys: run.counters,
        slab_allocated: timing.slab.0,
        slab_reused: timing.slab.1,
        vm_dollars: run.total_vm_cost(),
        logical,
        rt_sum,
        slo_met: Some(overall.sla_attainment(SLO_SECS) * logical as f64),
        bus_records: timing.bus_records,
        ticks: timing.ticks,
        planner_evals: run.planner_evals,
        actions: run.actions.len() as u64,
        ..Counts::default()
    };
    if let Some(obs) = &run.obs {
        counts.spans_seen = obs.trace.stats.seen;
        counts.spans_recorded = obs.trace.stats.recorded;
        counts.spans_evicted = obs.trace.stats.evicted;
    }
    (fingerprint, counts)
}

/// State shared between a harness cell and its [`Timed`] controller.
struct Probe {
    tracer: Rc<RefCell<Tracer>>,
    speed: Rc<RefCell<SpeedProbe>>,
    cell: Option<usize>,
    horizon: SimTime,
    made: Option<Instant>,
    bus: Option<MetricsBus>,
    /// Segments of the measured part, from the controller's construction.
    clock: Option<Clock>,
    ticks: u64,
    pending_end: u64,
    /// (host instant, engine events, slab counters) after the drain.
    drained: Option<(Instant, u64, (u64, u64))>,
}

impl Probe {
    fn clock(&mut self) -> &mut Clock {
        self.clock
            .as_mut()
            .expect("the controller is built before it ticks")
    }

    /// Records a span from the last segment boundary to `at`.
    fn span_to(&mut self, name: &'static str, at: Instant) {
        let from = self.clock().last;
        self.tracer.borrow_mut().push(name, from, at, self.cell);
    }
}

/// A controller wrapped so the benchmark can time it from outside: it
/// implements the public [`Controller`] trait by delegation, ends a
/// segment at the start and the end of each `on_tick` and, when the tracer
/// is on, records each `on_tick` as a `core.tick` span and the engine time
/// between ticks as a `sim.slice` span.
pub struct Timed<C> {
    inner: C,
    probe: Rc<RefCell<Probe>>,
}

impl<C: Controller> Timed<C> {
    /// Builds the inner controller; called by the harness after it has
    /// built the world and started the population, so this instant ends
    /// the harness's set-up. Keeps a clone of the bus.
    fn new(
        probe: &Rc<RefCell<Probe>>,
        bus: MetricsBus,
        make: impl FnOnce(MetricsBus) -> C,
    ) -> Self {
        {
            let mut p = probe.borrow_mut();
            let now = Instant::now();
            p.made = Some(now);
            p.clock = Some(Clock::start(now));
            p.bus = Some(Rc::clone(&bus));
        }
        Timed {
            inner: make(bus),
            probe: Rc::clone(probe),
        }
    }
}

impl<C: Controller> Controller for Timed<C> {
    fn on_tick(&mut self, world: &mut World, engine: &mut SimEngine) {
        let start = Instant::now();
        let traced = {
            let mut p = self.probe.borrow_mut();
            p.ticks += 1;
            let traced = p.tracer.borrow().on();
            if traced {
                p.span_to("sim.slice", start);
                if p.ticks == 1 {
                    schedule_drain_probe(engine, Rc::clone(&self.probe));
                }
                if engine.now() == p.horizon {
                    p.pending_end = engine.pending() as u64;
                }
            }
            p.clock().mark(start);
            if let Some(end) = probe_speed(&p.speed, &p.tracer, p.cell) {
                p.clock().last = end;
            }
            traced
        };
        self.inner.on_tick(world, engine);
        let end = Instant::now();
        let mut p = self.probe.borrow_mut();
        if traced {
            p.span_to("core.tick", end);
        }
        p.clock().mark(end);
    }

    fn actions(&self) -> Vec<ActionRecord> {
        self.inner.actions()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn attach_journal(&mut self, journal: Rc<RefCell<DecisionJournal>>) {
        self.inner.attach_journal(journal);
    }

    fn planner_evals(&self) -> u64 {
        self.inner.planner_evals()
    }
}

/// Schedules one read-only event after every other: it runs at the end of
/// the harness's drain and reads the engine and slab counters there.
fn schedule_drain_probe(engine: &mut SimEngine, probe: Rc<RefCell<Probe>>) {
    engine.schedule_at(
        SimTime::from_secs(DRAIN_PROBE_SECS),
        move |world: &mut World, engine: &mut SimEngine| {
            let at = Instant::now();
            let mut p = probe.borrow_mut();
            // The slice ends here but the segment runs on to the harness's
            // return, so traced and untraced passes keep the same segments.
            p.span_to("sim.slice", at);
            // `executed` already counts this probe event.
            p.drained = Some((at, engine.executed() - 1, world.system.request_slab_stats()));
        },
    );
}
