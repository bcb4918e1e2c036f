//! Conformance scenarios: one graph-shaped config, two solvers, a table of
//! errors.
//!
//! Every scenario is a mesh: a [`Scenario`] is a tree of [`Node`]s with
//! per-edge call counts. The paper's three-tier chain is the special case
//! built by [`Scenario::chain`] (`web → app → db×V_db`); [`Scenario::mesh`]
//! builds any other tree (fan-out services, a cache tier, heterogeneous VM
//! capacities). Both go through the same world builder, network mapping,
//! measurement window and residence extractor, and yield the same
//! [`Point`].

use std::collections::BTreeMap;

use dcm_model::mva::{law_rate_table, ClosedNetwork, Station};
use dcm_ntier::audit::ConservationAuditor;
use dcm_ntier::balancer::BalancerPolicy;
use dcm_ntier::graph::TopologyGraph;
use dcm_ntier::ids::RequestId;
use dcm_ntier::law::ServiceLaw;
use dcm_ntier::server::VmType;
use dcm_ntier::spans::Span;
use dcm_ntier::system::VmPolicy;
use dcm_ntier::topology::{MeshBuilder, MeshNode};
use dcm_ntier::world::{SimEngine, World};
use dcm_sim::dist::Dist;
use dcm_sim::time::SimTime;
use dcm_workload::cache::CacheDynamics;
use dcm_workload::cohort::CohortPopulation;
use dcm_workload::generator::UserPopulation;
use dcm_workload::profile::{MeshProfileFactory, NodeDemand, ProfileFactory, WorkloadFactory};
use dcm_workload::servlets::{Servlet, ServletMix};

/// A pool size that never queues at the populations the grids sweep.
const AMPLE: u32 = 4096;

/// What kind of analytic truth a scenario is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Every node behind finite threads is frictionless: an exact
    /// product-form network (delay + `M/M/c` stations). Tight tolerance
    /// applies.
    ZeroOverhead,
    /// Some node behind finite threads follows a real concurrency law
    /// `S*(N)`: exact load-dependent MVA with the ground-truth rate table.
    /// Looser tolerance applies.
    LoadDependent,
}

/// One node (tier) of a conformance scenario.
#[derive(Debug, Clone)]
pub struct Node {
    /// Display name (`web`, `svc`, `cache`, …).
    pub name: &'static str,
    /// The node's service law; its `S⁰` is the mean per-visit CPU demand
    /// (seconds of work at capacity 1) clients sample.
    pub law: ServiceLaw,
    /// Exponential per-visit demand (required for queueing-station
    /// exactness); constant otherwise (fine for delay nodes).
    pub exponential: bool,
    /// Thread pool per server (the queueing station's `c`); `>= AMPLE`
    /// makes the node a delay station.
    pub threads: u32,
    /// Outbound connection pool per server, if the node pools its calls.
    pub conns: Option<u32>,
    /// Per-server VM capacity multipliers, one entry per server.
    pub capacities: Vec<f64>,
}

impl Node {
    /// A frictionless node on one capacity-1 server with constant demand
    /// behind ample threads: a delay station.
    pub fn delay(name: &'static str, demand: f64) -> Self {
        Node {
            name,
            law: ServiceLaw::frictionless(demand),
            exponential: false,
            threads: AMPLE,
            conns: None,
            capacities: vec![1.0],
        }
    }

    /// A frictionless node on one capacity-1 server with exponential
    /// demand behind `threads` threads: an `M/M/c` station.
    pub fn queue(name: &'static str, demand: f64, threads: u32) -> Self {
        Node {
            exponential: true,
            threads,
            ..Node::delay(name, demand)
        }
    }

    /// Mean per-visit CPU demand: the law's `S⁰`.
    pub fn demand(&self) -> f64 {
        self.law.s0()
    }

    /// The per-visit demand distribution clients sample for this node.
    fn dist(&self) -> Dist {
        if self.exponential {
            Dist::exponential_mean(self.demand())
        } else {
            Dist::constant(self.demand())
        }
    }

    fn frictionless(&self) -> bool {
        self.law == ServiceLaw::frictionless(self.law.s0())
    }

    /// The MVA station one of this node's servers is: a delay station
    /// behind ample threads, `M/M/c` when frictionless, and a
    /// load-dependent station driven by the law's `S*(n)` otherwise. The
    /// rate table stops at `threads`: past it `r(n)` stays at its last
    /// entry.
    fn station(&self, visit_ratio: f64, capacity: f64) -> Station {
        if self.threads >= AMPLE {
            return Station::Delay {
                visit_ratio,
                service_time: self.demand() / capacity,
            };
        }
        if self.frictionless() {
            return Station::queueing_with_capacity(
                visit_ratio,
                self.demand(),
                self.threads,
                capacity,
            );
        }
        let law = self.law;
        Station::LoadDependent {
            visit_ratio,
            service_time: self.demand() / capacity,
            rate: law_rate_table(law.s0(), self.threads, self.threads, |m| {
                law.adjusted_service_time(m)
            }),
        }
    }
}

/// A steady-state cache on one edge of the scenario graph.
#[derive(Debug, Clone, Copy)]
pub struct CacheSpec {
    /// The caching node.
    pub from: usize,
    /// The downstream node whose calls a hit skips.
    pub to: usize,
    /// Steady-state hit probability `h`.
    pub hit_ratio: f64,
}

/// One conformance configuration (a topology; populations are swept
/// separately so each `(scenario, population)` pair is one run).
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Short name used in tables (`mm1`, `fanout`, …).
    pub name: &'static str,
    /// The nodes, in tier order (node 0 is the entry tier).
    pub nodes: Vec<Node>,
    /// Call edges `(from, to, calls)`; must form a tree rooted at node 0.
    pub edges: Vec<(usize, usize, u32)>,
    /// Optional steady-state cache edge.
    pub cache: Option<CacheSpec>,
    /// Constant think time `Z` (seconds).
    pub think: f64,
    /// Client populations to sweep.
    pub populations: &'static [u32],
    /// Warmup before the measurement window (seconds).
    pub warmup: f64,
    /// Measurement window length (seconds).
    pub measure: f64,
    /// The profile source the clients sample.
    pub factory: WorkloadFactory,
}

impl Scenario {
    /// The paper's three-tier chain: `counts = (web, app, db)` servers,
    /// `db_threads` per DB server, constant web/app demands
    /// (`demands = [web, app]`), `db_visits` queries per request, think
    /// time `think` and the DB's `db_law`, whose `S⁰` is the mean of the
    /// DB's exponential demand. Web and app run frictionless behind ample
    /// pools. Clients sample a single-servlet [`ProfileFactory`].
    ///
    /// Populations and the window start empty; set them with
    /// [`Scenario::sweep`].
    pub fn chain(
        name: &'static str,
        counts: (u32, u32, u32),
        db_threads: u32,
        demands: [f64; 2],
        db_visits: u32,
        think: f64,
        db_law: ServiceLaw,
    ) -> Self {
        let (w, a, d) = counts;
        let [web, app] = demands;
        let nodes = vec![
            Node {
                capacities: vec![1.0; w as usize],
                ..Node::delay("web", web)
            },
            Node {
                conns: Some(AMPLE),
                capacities: vec![1.0; a as usize],
                ..Node::delay("app", app)
            },
            Node {
                law: db_law,
                capacities: vec![1.0; d as usize],
                ..Node::queue("db", db_law.s0(), db_threads)
            },
        ];
        let mix = ServletMix::from_servlets(vec![Servlet {
            name: "conformance",
            weight: 1.0,
            web_mult: 1.0,
            app_mult: 1.0,
            db_mult: 1.0,
            db_queries: db_visits,
        }])
        .expect("single-servlet mix is valid");
        let factory = ProfileFactory::rubbos_deterministic()
            .with_mix(mix)
            .with_bases(nodes[0].dist(), nodes[1].dist(), nodes[2].dist());
        Scenario {
            name,
            nodes,
            edges: vec![(0, 1, 1), (1, 2, db_visits)],
            cache: None,
            think,
            populations: &[],
            warmup: 0.0,
            measure: 0.0,
            factory: factory.into(),
        }
    }

    /// A microservice tree: `nodes` joined by `edges`, with an optional
    /// steady-state `cache` edge. Clients sample a [`MeshProfileFactory`]
    /// whose exponential nodes draw every visit i.i.d.
    ///
    /// Populations and the window start empty; set them with
    /// [`Scenario::sweep`].
    ///
    /// # Panics
    ///
    /// Panics if the edges do not form a tree rooted at node 0.
    pub fn mesh(
        name: &'static str,
        nodes: Vec<Node>,
        edges: Vec<(usize, usize, u32)>,
        cache: Option<CacheSpec>,
        think: f64,
    ) -> Self {
        let graph = tree(name, nodes.len(), &edges);
        let demands = nodes
            .iter()
            .enumerate()
            .map(|(m, node)| {
                let d = if graph.total_calls(m) > 0 {
                    NodeDemand::split(node.dist())
                } else {
                    NodeDemand::leaf(node.dist())
                };
                if node.exponential {
                    d.iid_visits()
                } else {
                    d
                }
            })
            .collect();
        let mut factory = MeshProfileFactory::new(graph, demands);
        if let Some(c) = cache {
            factory = factory.with_cache(c.from, c.to, CacheDynamics::steady(c.hit_ratio));
        }
        Scenario {
            name,
            nodes,
            edges,
            cache,
            think,
            populations: &[],
            warmup: 0.0,
            measure: 0.0,
            factory: factory.into(),
        }
    }

    /// Sets the populations to sweep and the warmup and measurement
    /// window lengths (seconds).
    pub fn sweep(mut self, populations: &'static [u32], warmup: f64, measure: f64) -> Self {
        self.populations = populations;
        self.warmup = warmup;
        self.measure = measure;
        self
    }

    /// Which oracle applies, derived from the nodes: load-dependent when
    /// some node behind finite threads has a non-frictionless law.
    pub fn kind(&self) -> ScenarioKind {
        if self
            .nodes
            .iter()
            .any(|n| n.threads < AMPLE && !n.frictionless())
        {
            ScenarioKind::LoadDependent
        } else {
            ScenarioKind::ZeroOverhead
        }
    }

    /// The scenario's call graph (the miss-path shape).
    pub fn graph(&self) -> TopologyGraph {
        tree(self.name, self.nodes.len(), &self.edges)
    }

    /// Expected per-node visit ratios `V_m`, with the cached edge's
    /// contribution rescaled by `1 − h` (Bernoulli routing).
    pub fn visit_ratios(&self) -> Vec<f64> {
        let mut v = vec![0.0f64; self.nodes.len()];
        v[0] = 1.0;
        for &(from, to, calls) in &self.edges {
            let scale = match self.cache {
                Some(c) if c.from == from && c.to == to => 1.0 - c.hit_ratio,
                _ => 1.0,
            };
            v[to] += v[from] * f64::from(calls) * scale;
        }
        v
    }

    /// The closed product-form network this scenario is, solved exactly.
    /// Each node contributes one station per server (visit `V_m /
    /// servers`, service `demand / capacity_i`).
    pub fn network(&self) -> ClosedNetwork {
        let mut stations = Vec::new();
        for (node, v) in self.nodes.iter().zip(self.visit_ratios()) {
            let per_server = v / node.capacities.len() as f64;
            for &cap in &node.capacities {
                stations.push(node.station(per_server, cap));
            }
        }
        ClosedNetwork::new(stations, self.think)
    }

    /// The DES world this scenario runs in: one [`MeshNode`] per node
    /// under the `Random` balancer, with a cycling VM catalogue on nodes
    /// whose capacities are not all 1.
    pub fn build_world(&self, seed: u64) -> (World, SimEngine) {
        let mut builder = MeshBuilder::new()
            .balancer(BalancerPolicy::Random)
            .seed(seed);
        for node in &self.nodes {
            let mut mesh_node = MeshNode::new(node.name, node.law, node.threads)
                .count(node.capacities.len() as u32);
            if let Some(conns) = node.conns {
                mesh_node = mesh_node.conns(conns);
            }
            if node.capacities.iter().any(|&c| (c - 1.0).abs() > 1e-12) {
                let types: Vec<VmType> = node
                    .capacities
                    .iter()
                    .map(|&c| VmType {
                        name: "mesh-custom",
                        capacity: c,
                        price_per_hour: 0.10 * c,
                    })
                    .collect();
                mesh_node = mesh_node.vm_policy(VmPolicy::cycle(types));
            }
            builder = builder.node(mesh_node);
        }
        builder.build()
    }
}

/// The tree over `nodes` nodes the edges describe.
///
/// # Panics
///
/// Panics if the edges do not form a tree — per-request exclusive
/// residence attribution needs a unique parent per node.
fn tree(name: &str, nodes: usize, edges: &[(usize, usize, u32)]) -> TopologyGraph {
    let g = TopologyGraph::from_edges(nodes, edges);
    assert!(g.is_tree(), "{name}: conformance scenarios must be trees");
    g
}

/// DES-vs-oracle comparison for one quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierComparison {
    /// The measured value.
    pub des: f64,
    /// The exact MVA value.
    pub mva: f64,
    /// `|des − mva| / mva`.
    pub rel_err: f64,
}

fn compare(des: f64, mva: f64) -> TierComparison {
    TierComparison {
        des,
        mva,
        rel_err: (des - mva).abs() / mva.abs().max(f64::MIN_POSITIVE),
    }
}

/// One `(scenario, population)` conformance measurement.
#[derive(Debug, Clone)]
pub struct Point {
    /// Scenario name.
    pub scenario: &'static str,
    /// Which oracle applied.
    pub kind: ScenarioKind,
    /// Client population `N`.
    pub population: u32,
    /// Requests completed inside the measurement window.
    pub completions: u64,
    /// Measured vs exact system throughput (requests/sec).
    pub throughput: TierComparison,
    /// Per-node residence per client request (queueing + service at the
    /// node, downstream time excluded) vs the exact `Σ V·R` over the
    /// node's stations, in node order.
    pub residence: Vec<TierComparison>,
    /// Node names aligned with `residence`.
    pub node_names: Vec<&'static str>,
    /// Mean population at the last node (the DB in every grid scenario):
    /// DES (via Little on measured X·R) vs MVA.
    pub last_queue: TierComparison,
    /// The asymptotic throughput upper bound at this population.
    pub throughput_bound: f64,
    /// Whether measured throughput respects the bound (with 0.5%
    /// measurement slack).
    pub bound_ok: bool,
    /// Conservation-audit violations over the measurement window (must be
    /// zero).
    pub audit_violations: usize,
}

impl Point {
    /// The largest relative error across throughput and node residences.
    /// Nodes whose exact residence is negligible (< 0.1 ms — e.g. a fully
    /// cached-off DB) are skipped: their relative error is noise on an
    /// absolute quantity below measurement resolution.
    pub fn max_rel_err(&self) -> f64 {
        self.residence
            .iter()
            .filter(|t| t.mva > 1e-4)
            .map(|t| t.rel_err)
            .fold(self.throughput.rel_err, f64::max)
    }
}

/// Runs one scenario at one population and compares against the oracle.
///
/// # Panics
///
/// Panics if the DES produces no completions in the window.
pub fn run_scenario(scenario: &Scenario, population: u32, seed: u64) -> Point {
    run(scenario, population, seed, None)
}

/// Like [`run_scenario`], but drives the system with the cohort-aggregated
/// generator ([`CohortPopulation`]) at the given cohort size, gated
/// against the same exact-MVA oracle. With the constant think times every
/// grid scenario uses, the cohort run reproduces the per-user run exactly
/// (same completions, same throughput and residence bits), so this checks
/// that aggregation changes nothing rather than a second sample path.
pub fn run_scenario_cohort(
    scenario: &Scenario,
    population: u32,
    seed: u64,
    cohort_size: u32,
) -> Point {
    run(scenario, population, seed, Some(cohort_size))
}

fn run(scenario: &Scenario, population: u32, seed: u64, cohort: Option<u32>) -> Point {
    let horizon = scenario.warmup + scenario.measure + 60.0;
    let (mut world, mut engine) = scenario.build_world(seed);
    world.system.enable_tracing();

    let factory = scenario.factory.clone();
    let think = Some(Dist::constant(scenario.think));
    let stop = SimTime::from_secs_f64(horizon);
    match cohort {
        Some(size) => {
            let _pop = CohortPopulation::start_with_think_dist(
                &mut world,
                &mut engine,
                factory,
                population,
                size,
                think,
                stop,
            );
        }
        None => {
            let _pop = UserPopulation::start_with_think_dist(
                &mut world,
                &mut engine,
                factory,
                population,
                think,
                stop,
            );
        }
    }

    engine.run_until(&mut world, SimTime::from_secs_f64(scenario.warmup));
    let t0 = engine.now();
    let _ = world.system.take_spans();
    let auditor = ConservationAuditor::begin(&world.system, t0);
    let completed_mark = world.system.counters().completed;

    engine.run_until(
        &mut world,
        SimTime::from_secs_f64(scenario.warmup + scenario.measure),
    );
    let t1 = engine.now();
    let spans = world.system.take_spans();
    let audit = auditor.finish(&world.system, &spans, t1);
    let window = t1.saturating_since(t0).as_secs_f64();
    assert!(window > 0.0, "empty measurement window");

    let completions = world.system.counters().completed - completed_mark;
    assert!(
        completions > 0,
        "no completions in window for {}",
        scenario.name
    );
    let x_des = completions as f64 / window;
    let res_des = node_residences(&spans, t0, &scenario.graph());

    let net = scenario.network();
    let sol = net.solve(population);
    let bounds = net.asymptotic_bounds(population);
    let mut residence = Vec::with_capacity(scenario.nodes.len());
    let mut at = 0usize;
    for (node, &des) in scenario.nodes.iter().zip(&res_des) {
        let servers = node.capacities.len();
        let mva_r: f64 = sol.station_residence.iter().skip(at).take(servers).sum();
        residence.push(compare(des, mva_r));
        at += servers;
    }
    let last = scenario.nodes.last().map_or(0, |n| n.capacities.len());
    let mva_q: f64 = sol.station_queue.iter().skip(at.saturating_sub(last)).sum();
    let last_queue = compare(x_des * res_des.last().copied().unwrap_or(0.0), mva_q);

    Point {
        scenario: scenario.name,
        kind: scenario.kind(),
        population,
        completions,
        throughput: compare(x_des, sol.throughput),
        residence,
        node_names: scenario.nodes.iter().map(|n| n.name).collect(),
        last_queue,
        throughput_bound: bounds.throughput_upper,
        bound_ok: x_des <= bounds.throughput_upper * 1.005,
        audit_violations: audit.violations.len(),
    }
}

/// Mean per-request exclusive residence per node over the window, from
/// spans of requests fully inside it (submitted after `t0`, completed). A
/// span's `[arrived, finished]` covers downstream time; on a tree every
/// node has a unique parent, so each request's exclusive residence at a
/// node is its span time minus its children's.
fn node_residences(spans: &[Span], t0: SimTime, graph: &TopologyGraph) -> Vec<f64> {
    let n = graph.tiers();
    let mut parent = vec![None; n];
    graph.for_each_edge(|from, to, _calls| {
        parent[to] = Some(from);
    });

    let mut per_request: BTreeMap<RequestId, Vec<f64>> = BTreeMap::new();
    let mut eligible: BTreeMap<RequestId, bool> = BTreeMap::new();
    for s in spans {
        if s.tier >= n {
            continue;
        }
        let dur = s.finished_at.saturating_since(s.arrived_at).as_secs_f64();
        per_request.entry(s.request).or_insert_with(|| vec![0.0; n])[s.tier] += dur;
        if s.tier == 0 {
            eligible.insert(s.request, s.is_completed() && s.arrived_at >= t0);
        }
    }
    let mut sums = vec![0.0f64; n];
    let mut count = 0u64;
    for (rid, mut totals) in per_request {
        if !eligible.get(&rid).copied().unwrap_or(false) {
            continue;
        }
        count += 1;
        // Edges point forward, so a child's total is still inclusive when
        // it is subtracted from its parent.
        for (c, p) in parent.iter().enumerate() {
            if let Some(p) = *p {
                totals[p] -= totals[c];
            }
        }
        for (sum, t) in sums.iter_mut().zip(&totals) {
            *sum += t;
        }
    }
    assert!(count > 0, "no fully-observed requests in window");
    let count = count as f64;
    for s in &mut sums {
        *s /= count;
    }
    sums
}

/// The committed chain grid: 14 zero-overhead points (delay tiers +
/// `M/M/1`, `M/M/4`, dual `M/M/2` DB stations, plus a pure delay network
/// exercising `V_db = 2`) and 6 load-dependent points driven by real
/// concurrency laws, spanning light load through saturation.
pub fn default_grid() -> Vec<Scenario> {
    let free = ServiceLaw::frictionless;
    vec![
        Scenario::chain("mm1", (1, 1, 1), 1, [0.002, 0.008], 1, 1.0, free(0.04)).sweep(
            &[4, 12, 20, 30],
            100.0,
            4000.0,
        ),
        Scenario::chain("mm4", (1, 1, 1), 4, [0.002, 0.008], 1, 1.0, free(0.12)).sweep(
            &[6, 18, 36, 54],
            100.0,
            4000.0,
        ),
        Scenario::chain("dual-db", (1, 2, 2), 2, [0.002, 0.008], 1, 0.8, free(0.08)).sweep(
            &[10, 30, 60, 90],
            100.0,
            4000.0,
        ),
        Scenario::chain("delay", (2, 2, 2), AMPLE, [0.004, 0.02], 2, 0.5, free(0.04)).sweep(
            &[5, 50],
            60.0,
            1500.0,
        ),
        Scenario::chain(
            "law-mysql",
            (1, 1, 1),
            16,
            [0.002, 0.008],
            1,
            0.5,
            ServiceLaw::new(2.95501e-2, 4.53985e-3, 1.9298e-5),
        )
        .sweep(&[6, 16, 32], 100.0, 4000.0),
        Scenario::chain(
            "law-knee",
            (1, 1, 1),
            24,
            [0.002, 0.008],
            1,
            0.5,
            ServiceLaw::new(2.84e-2, 1.6e-2, 7.0e-5),
        )
        .sweep(&[8, 20, 40], 100.0, 4000.0),
    ]
}

/// The committed mesh grid: a fan-out DAG, a steady-state cache chain, and
/// a heterogeneous-capacity DB tier — all frictionless, so every point is
/// gated at the zero-overhead tolerance.
pub fn default_mesh_grid() -> Vec<Scenario> {
    vec![
        Scenario::mesh(
            "fanout",
            vec![
                Node::delay("web", 0.002),
                Node::delay("app", 0.008),
                Node::queue("svc", 0.030, 2),
                Node::queue("db", 0.040, 1),
            ],
            vec![(0, 1, 1), (1, 2, 1), (1, 3, 2)],
            None,
            1.0,
        )
        .sweep(&[4, 10, 18], 100.0, 8000.0),
        Scenario::mesh(
            "cache-steady",
            vec![
                Node::delay("web", 0.002),
                Node::delay("app", 0.010),
                Node::delay("cache", 0.004),
                Node::queue("db", 0.050, 2),
            ],
            vec![(0, 1, 1), (1, 2, 1), (2, 3, 1)],
            Some(CacheSpec {
                from: 2,
                to: 3,
                hit_ratio: 0.6,
            }),
            0.8,
        )
        .sweep(&[5, 20, 40], 100.0, 8000.0),
        Scenario::mesh(
            "hetero-db",
            vec![
                Node::delay("web", 0.002),
                Node::delay("app", 0.008),
                Node {
                    capacities: vec![1.0, 2.0],
                    ..Node::queue("db", 0.060, 1)
                },
            ],
            vec![(0, 1, 1), (1, 2, 1)],
            None,
            0.8,
        )
        .sweep(&[4, 12, 24], 100.0, 8000.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs scenario `i` of `grid` at `population` over a short window and
    /// checks it lands within a loose 10% of the oracle and audits clean.
    fn quick_point(grid: Vec<Scenario>, i: usize, population: u32, seed: u64, cohort: Option<u32>) {
        let mut s = grid[i].clone();
        s.warmup = 30.0;
        s.measure = 400.0;
        let point = match cohort {
            Some(size) => run_scenario_cohort(&s, population, seed, size),
            None => run_scenario(&s, population, seed),
        };
        assert_eq!(point.audit_violations, 0, "{point:?}");
        assert!(point.bound_ok, "bound violated: {point:?}");
        assert!(point.max_rel_err() < 0.10, "errors too large: {point:?}");
    }

    #[test]
    fn grid_has_enough_points_and_coherent_laws() {
        let grid = default_grid();
        let points = |kind| -> usize {
            grid.iter()
                .filter(|s| s.kind() == kind)
                .map(|s| s.populations.len())
                .sum()
        };
        let zero = points(ScenarioKind::ZeroOverhead);
        let law = points(ScenarioKind::LoadDependent);
        assert!(zero >= 12, "need >= 12 zero-overhead points, have {zero}");
        assert!(law >= 6, "need >= 6 load-dependent points, have {law}");
        // A lawful node behind ample threads would be a delay station that
        // ignores its law: no exact oracle covers it.
        for s in grid.iter().chain(&default_mesh_grid()) {
            for node in &s.nodes {
                assert!(
                    node.threads < AMPLE || node.frictionless(),
                    "{}/{}: a lawful node needs finite threads",
                    s.name,
                    node.name
                );
            }
        }
    }

    #[test]
    fn grid_shapes_are_coherent() {
        let grid = default_mesh_grid();
        assert_eq!(grid.len(), 3);
        let points: usize = grid.iter().map(|s| s.populations.len()).sum();
        assert!(points >= 9, "need >= 9 mesh points, have {points}");
        for s in grid.iter().chain(&default_grid()) {
            assert_eq!(s.graph().tiers(), s.nodes.len());
        }
        for s in &grid {
            assert_eq!(s.kind(), ScenarioKind::ZeroOverhead, "{}", s.name);
        }
    }

    #[test]
    fn network_station_count_tracks_db_servers() {
        let grid = default_grid();
        let dual = grid.iter().find(|s| s.name == "dual-db").unwrap();
        // 1 web + 2 app + 2 db stations: one per server.
        assert_eq!(dual.network().stations.len(), 1 + 2 + 2);
        let mm1 = grid.iter().find(|s| s.name == "mm1").unwrap();
        assert_eq!(mm1.network().stations.len(), 3);
        // A lawful DB behind 16 threads is load-dependent, its rate table
        // one entry per thread.
        let law = grid.iter().find(|s| s.name == "law-mysql").unwrap();
        match &law.network().stations[2] {
            Station::LoadDependent { rate, .. } => assert_eq!(rate.len(), 16),
            other => panic!("expected a load-dependent DB station: {other:?}"),
        }
    }

    #[test]
    fn fanout_visit_ratios_follow_edges() {
        let fanout = &default_mesh_grid()[0];
        assert_eq!(fanout.visit_ratios(), vec![1.0, 1.0, 1.0, 2.0]);
        // 1 web + 1 app + 1 svc + 1 db station.
        assert_eq!(fanout.network().stations.len(), 4);
    }

    #[test]
    fn cache_rescales_downstream_visits() {
        let v = default_mesh_grid()[1].visit_ratios();
        assert!((v[3] - 0.4).abs() < 1e-12, "db visits {}", v[3]);
        assert!((v[2] - 1.0).abs() < 1e-12, "cache node still visited");
    }

    #[test]
    fn hetero_capacities_become_distinct_stations() {
        let net = default_mesh_grid()[2].network();
        assert_eq!(net.stations.len(), 4, "web, app, and two db stations");
        let s_slow = net.stations[2].service_time();
        let s_fast = net.stations[3].service_time();
        assert!((s_slow - 0.060).abs() < 1e-12);
        assert!((s_fast - 0.030).abs() < 1e-12);
        assert!((net.stations[2].visit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn quick_point_conforms_and_audits_clean() {
        quick_point(default_grid(), 0, 8, 1234, None);
    }

    #[test]
    fn quick_cohort_point_conforms_and_audits_clean() {
        quick_point(default_grid(), 0, 8, 1234, Some(4));
    }

    #[test]
    fn quick_fanout_point_conforms_and_audits_clean() {
        quick_point(default_mesh_grid(), 0, 6, 1234, None);
    }

    #[test]
    fn quick_cache_point_conforms_and_audits_clean() {
        quick_point(default_mesh_grid(), 1, 8, 77, None);
    }

    #[test]
    fn quick_hetero_point_conforms_and_audits_clean() {
        quick_point(default_mesh_grid(), 2, 6, 4321, None);
    }

    #[test]
    fn cohort_run_reproduces_per_user_run_under_constant_think() {
        // Constant think times keep the cohort generator's wake-up order
        // equal to the per-user generator's, so the sample paths coincide.
        let mut s = default_grid().into_iter().next().unwrap();
        s.warmup = 30.0;
        s.measure = 400.0;
        let user = run_scenario(&s, 20, 99);
        let cohort = run_scenario_cohort(&s, 20, 99, 16);
        assert_eq!(user.completions, cohort.completions);
        assert_eq!(
            user.throughput.des.to_bits(),
            cohort.throughput.des.to_bits()
        );
        for (u, c) in user.residence.iter().zip(&cohort.residence) {
            assert_eq!(u.des.to_bits(), c.des.to_bits());
        }
    }
    /// Full sweep of both grids at the shipping tolerances (2 %
    /// zero-overhead, 5 % load-dependent). Expensive (~minutes of
    /// simulated time per point), so ignored by default; `repro validate`
    /// is the shipping entry point. Run with `cargo test -p dcm-oracle --
    /// --ignored`.
    #[test]
    #[ignore]
    fn full_grids_within_tolerance() {
        let mut worst_zero = 0.0f64;
        let mut worst_law = 0.0f64;
        for (grid, offset) in [(default_grid(), 7), (default_mesh_grid(), 11)] {
            for (i, s) in grid.iter().enumerate() {
                for (j, &n) in s.populations.iter().enumerate() {
                    let seed = (i as u64) * 100 + j as u64 + offset;
                    let p = run_scenario(s, n, seed);
                    let r: Vec<String> = p
                        .node_names
                        .iter()
                        .zip(&p.residence)
                        .map(|(name, t)| format!("{name} {:+.3}%", 100.0 * t.rel_err))
                        .collect();
                    eprintln!(
                        "{:>12} N={:<3} X: {:.4}/{:.4} ({:+.3}%)  R: {}  Q_last {:+.3}%  audits={}",
                        p.scenario,
                        n,
                        p.throughput.des,
                        p.throughput.mva,
                        100.0 * p.throughput.rel_err,
                        r.join(" "),
                        100.0 * p.last_queue.rel_err,
                        p.audit_violations,
                    );
                    assert_eq!(p.audit_violations, 0, "{p:?}");
                    assert!(p.bound_ok, "{p:?}");
                    let worst = match p.kind {
                        ScenarioKind::ZeroOverhead => &mut worst_zero,
                        ScenarioKind::LoadDependent => &mut worst_law,
                    };
                    *worst = worst.max(p.max_rel_err());
                }
            }
        }
        eprintln!("worst zero-overhead: {:.4}%", 100.0 * worst_zero);
        eprintln!("worst load-dependent: {:.4}%", 100.0 * worst_law);
        assert!(
            worst_zero < 0.02,
            "zero-overhead tolerance exceeded: {worst_zero}"
        );
        assert!(
            worst_law < 0.05,
            "load-dependent tolerance exceeded: {worst_law}"
        );
    }
}
