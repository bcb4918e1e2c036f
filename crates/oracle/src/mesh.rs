//! Mesh conformance: microservice-DAG scenarios vs product-form MVA.
//!
//! The chain harness ([`crate::conformance`]) checks the simulator on the
//! paper's three-tier topology; this module checks the DAG generalization.
//! The mapping stays inside the exact product-form class:
//!
//! * **DAG visit ratios.** A tree-shaped call graph with per-edge call
//!   counts has deterministic per-node visit ratios `V_m` (the forward DP
//!   over edges); per-server visit ratios split `V_m / servers` under the
//!   `Random` balancer, exactly as in the chain harness.
//! * **Steady-state cache.** A cache that hits with probability `h` and
//!   skips the downstream hop is Bernoulli (Markovian) routing, so the
//!   network stays product-form with the downstream edge's visit
//!   contribution rescaled by `1 − h`.
//! * **Heterogeneous VM capacity.** A server with capacity multiplier `c`
//!   runs every burst `c×` faster, so its station serves at `S / c`
//!   ([`Station::queueing_with_capacity`]) — exact, not approximate.
//!
//! All mesh nodes run frictionless laws, so every scenario is gated at the
//! tight zero-overhead tolerance; each run carries a
//! [`ConservationAuditor`], which now also cross-checks the per-tier /
//! per-edge flow ledger the DAG dispatch maintains.

use std::collections::BTreeMap;

use dcm_model::mva::{ClosedNetwork, Station};
use dcm_ntier::audit::ConservationAuditor;
use dcm_ntier::balancer::BalancerPolicy;
use dcm_ntier::graph::TopologyGraph;
use dcm_ntier::ids::RequestId;
use dcm_ntier::law::ServiceLaw;
use dcm_ntier::server::VmType;
use dcm_ntier::spans::Span;
use dcm_ntier::system::VmPolicy;
use dcm_ntier::topology::{MeshBuilder, MeshNode};
use dcm_sim::dist::Dist;
use dcm_sim::time::SimTime;
use dcm_workload::cache::CacheDynamics;
use dcm_workload::generator::UserPopulation;
use dcm_workload::profile::{MeshProfileFactory, NodeDemand};

use crate::conformance::TierComparison;

/// A pool size that never queues at the populations the grid sweeps.
const AMPLE: u32 = 4096;

/// One node of a mesh scenario.
#[derive(Debug, Clone)]
pub struct MeshNodeSpec {
    /// Display name (`web`, `svc-a`, `cache`, …).
    pub name: &'static str,
    /// Mean per-visit CPU demand (seconds of work at capacity 1).
    pub demand: f64,
    /// Exponential per-visit demand (required for queueing-station
    /// exactness); constant otherwise (fine for delay nodes).
    pub exponential: bool,
    /// Thread pool per server; `>= AMPLE` makes the node a delay station.
    pub threads: u32,
    /// Per-server VM capacity multipliers — one entry per server.
    pub capacities: &'static [f64],
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

/// One mesh conformance configuration.
#[derive(Debug, Clone)]
pub struct MeshScenario {
    /// Short name used in tables (`fanout`, `cache-steady`, …).
    pub name: &'static str,
    /// The nodes, in tier order (node 0 is the entry tier).
    pub nodes: Vec<MeshNodeSpec>,
    /// Call edges `(from, to, calls)`; must form a tree rooted at node 0.
    pub edges: &'static [(usize, usize, u32)],
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
}

impl MeshScenario {
    /// The scenario's call graph (the miss-path shape).
    ///
    /// # Panics
    ///
    /// Panics if the edges do not form a tree — per-request exclusive
    /// residence attribution needs a unique parent per node.
    pub fn graph(&self) -> TopologyGraph {
        let g = TopologyGraph::from_edges(self.nodes.len(), self.edges);
        assert!(g.is_tree(), "{}: mesh scenarios must be trees", self.name);
        g
    }

    /// Expected per-node visit ratios `V_m`, with the cached edge's
    /// contribution rescaled by `1 − h` (Bernoulli routing).
    pub fn expected_visit_ratios(&self) -> Vec<f64> {
        let mut v = vec![0.0f64; self.nodes.len()];
        v[0] = 1.0;
        for &(from, to, calls) in self.edges {
            let scale = match self.cache {
                Some(c) if c.from == from && c.to == to => 1.0 - c.hit_ratio,
                _ => 1.0,
            };
            v[to] += v[from] * f64::from(calls) * scale;
        }
        v
    }

    /// The closed product-form network this mesh is, solved exactly. Each
    /// node contributes one station per server (visit `V_m / servers`,
    /// service `demand / capacity_i`).
    pub fn network(&self) -> ClosedNetwork {
        let v = self.expected_visit_ratios();
        let mut stations = Vec::new();
        for (m, node) in self.nodes.iter().enumerate() {
            let servers = node.capacities.len().max(1);
            let per_server = v[m] / servers as f64;
            for &cap in node.capacities {
                if node.threads >= AMPLE {
                    stations.push(Station::Delay {
                        visit_ratio: per_server,
                        service_time: node.demand / cap,
                    });
                } else {
                    stations.push(Station::queueing_with_capacity(
                        per_server,
                        node.demand,
                        node.threads,
                        cap,
                    ));
                }
            }
        }
        ClosedNetwork::new(stations, self.think)
    }

    /// Index of each node's first station in [`MeshScenario::network`]'s
    /// station list (nodes contribute one station per server).
    fn station_offsets(&self) -> Vec<usize> {
        let mut offsets = Vec::with_capacity(self.nodes.len());
        let mut at = 0usize;
        for node in &self.nodes {
            offsets.push(at);
            at += node.capacities.len().max(1);
        }
        offsets
    }

    /// The workload factory driving the DES side.
    pub fn factory(&self) -> MeshProfileFactory {
        let graph = self.graph();
        let mut demands = Vec::with_capacity(self.nodes.len());
        for (m, node) in self.nodes.iter().enumerate() {
            let base = if node.exponential {
                Dist::exponential_mean(node.demand)
            } else {
                Dist::constant(node.demand)
            };
            let mut d = if graph.total_calls(m) > 0 {
                NodeDemand::split(base)
            } else {
                NodeDemand::leaf(base)
            };
            if node.exponential {
                d = d.iid_visits();
            }
            demands.push(d);
        }
        let factory = MeshProfileFactory::new(graph, demands);
        match self.cache {
            Some(c) => factory.with_cache(c.from, c.to, CacheDynamics::steady(c.hit_ratio)),
            None => factory,
        }
    }

    /// The DES world this scenario runs in.
    pub fn build_world(&self, seed: u64) -> (dcm_ntier::world::World, dcm_ntier::world::SimEngine) {
        let mut builder = MeshBuilder::new()
            .balancer(BalancerPolicy::Random)
            .seed(seed);
        for node in &self.nodes {
            // The per-server thread pool IS the queueing station's `c`
            // (`AMPLE` makes the node a delay station); outbound calls stay
            // unpooled, so threads are the only concurrency gate.
            let mut mesh_node = MeshNode::new(
                node.name,
                ServiceLaw::frictionless(node.demand),
                node.threads,
            )
            .count(node.capacities.len().max(1) as u32);
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

/// One `(mesh scenario, population)` conformance measurement.
#[derive(Debug, Clone)]
pub struct MeshPoint {
    /// Scenario name.
    pub scenario: &'static str,
    /// Client population `N`.
    pub population: u32,
    /// Requests completed inside the measurement window.
    pub completions: u64,
    /// Measured vs exact system throughput (requests/sec).
    pub throughput: TierComparison,
    /// Per-node exclusive residence comparisons, in node order.
    pub residence: Vec<TierComparison>,
    /// Node names aligned with `residence`.
    pub node_names: Vec<&'static str>,
    /// The asymptotic throughput upper bound at this population.
    pub throughput_bound: f64,
    /// Whether measured throughput respects the bound (0.5% slack).
    pub bound_ok: bool,
    /// Conservation-audit violations over the window (must be zero).
    pub audit_violations: usize,
}

impl MeshPoint {
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

fn compare(des: f64, mva: f64) -> TierComparison {
    TierComparison {
        des,
        mva,
        rel_err: (des - mva).abs() / mva.abs().max(f64::MIN_POSITIVE),
    }
}

/// Runs one mesh scenario at one population and compares against the
/// exact MVA oracle.
///
/// # Panics
///
/// Panics if the DES produces no completions in the window.
pub fn run_mesh_scenario(scenario: &MeshScenario, population: u32, seed: u64) -> MeshPoint {
    let n_nodes = scenario.nodes.len();
    let horizon = scenario.warmup + scenario.measure + 60.0;
    let (mut world, mut engine) = scenario.build_world(seed);
    world.system.enable_tracing();

    let factory = scenario.factory();
    let think = Some(Dist::constant(scenario.think));
    let stop = SimTime::from_secs_f64(horizon);
    let _pop = UserPopulation::start_with_think_dist(
        &mut world,
        &mut engine,
        factory,
        population,
        think,
        stop,
    );

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

    let graph = scenario.graph();
    let res_des = node_residences(&spans, t0, &graph);

    let net = scenario.network();
    let sol = net.solve(population);
    let bounds = net.asymptotic_bounds(population);
    let offsets = scenario.station_offsets();
    let mut residence = Vec::with_capacity(n_nodes);
    let mut node_names = Vec::with_capacity(n_nodes);
    for (m, node) in scenario.nodes.iter().enumerate() {
        let servers = node.capacities.len().max(1);
        let mva_r: f64 = sol
            .station_residence
            .iter()
            .skip(offsets[m])
            .take(servers)
            .sum();
        residence.push(compare(res_des[m], mva_r));
        node_names.push(node.name);
    }

    MeshPoint {
        scenario: scenario.name,
        population,
        completions,
        throughput: compare(x_des, sol.throughput),
        residence,
        node_names,
        throughput_bound: bounds.throughput_upper,
        bound_ok: x_des <= bounds.throughput_upper * 1.005,
        audit_violations: audit.violations.len(),
    }
}

/// Mean per-request exclusive residence per node over the window, from
/// spans of requests fully inside it. A span's `[arrived, finished]`
/// covers downstream time; on a tree every node has a unique parent, so
/// the exclusive residence subtracts each child's span time from its
/// parent, request by request.
fn node_residences(spans: &[Span], t0: SimTime, graph: &TopologyGraph) -> Vec<f64> {
    let n = graph.tiers();
    let mut parent = vec![usize::MAX; n];
    graph.for_each_edge(|from, to, _calls| {
        parent[to] = from;
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
    for (rid, totals) in &per_request {
        if !eligible.get(rid).copied().unwrap_or(false) {
            continue;
        }
        count += 1;
        for m in 0..n {
            sums[m] += totals[m];
        }
        for (c, &p) in parent.iter().enumerate() {
            if p != usize::MAX {
                sums[p] -= totals[c];
            }
        }
    }
    assert!(count > 0, "no fully-observed requests in window");
    let count = count as f64;
    for s in &mut sums {
        *s /= count;
    }
    sums
}

/// The committed mesh grid: a fan-out DAG, a steady-state cache chain, and
/// a heterogeneous-capacity DB tier — all frictionless, so every point is
/// gated at the zero-overhead tolerance.
pub fn default_mesh_grid() -> Vec<MeshScenario> {
    vec![
        MeshScenario {
            name: "fanout",
            nodes: vec![
                MeshNodeSpec {
                    name: "web",
                    demand: 0.002,
                    exponential: false,
                    threads: AMPLE,
                    capacities: &[1.0],
                },
                MeshNodeSpec {
                    name: "app",
                    demand: 0.008,
                    exponential: false,
                    threads: AMPLE,
                    capacities: &[1.0],
                },
                MeshNodeSpec {
                    name: "svc",
                    demand: 0.030,
                    exponential: true,
                    threads: 2,
                    capacities: &[1.0],
                },
                MeshNodeSpec {
                    name: "db",
                    demand: 0.040,
                    exponential: true,
                    threads: 1,
                    capacities: &[1.0],
                },
            ],
            edges: &[(0, 1, 1), (1, 2, 1), (1, 3, 2)],
            cache: None,
            think: 1.0,
            populations: &[4, 10, 18],
            warmup: 100.0,
            measure: 8000.0,
        },
        MeshScenario {
            name: "cache-steady",
            nodes: vec![
                MeshNodeSpec {
                    name: "web",
                    demand: 0.002,
                    exponential: false,
                    threads: AMPLE,
                    capacities: &[1.0],
                },
                MeshNodeSpec {
                    name: "app",
                    demand: 0.010,
                    exponential: false,
                    threads: AMPLE,
                    capacities: &[1.0],
                },
                MeshNodeSpec {
                    name: "cache",
                    demand: 0.004,
                    exponential: false,
                    threads: AMPLE,
                    capacities: &[1.0],
                },
                MeshNodeSpec {
                    name: "db",
                    demand: 0.050,
                    exponential: true,
                    threads: 2,
                    capacities: &[1.0],
                },
            ],
            edges: &[(0, 1, 1), (1, 2, 1), (2, 3, 1)],
            cache: Some(CacheSpec {
                from: 2,
                to: 3,
                hit_ratio: 0.6,
            }),
            think: 0.8,
            populations: &[5, 20, 40],
            warmup: 100.0,
            measure: 8000.0,
        },
        MeshScenario {
            name: "hetero-db",
            nodes: vec![
                MeshNodeSpec {
                    name: "web",
                    demand: 0.002,
                    exponential: false,
                    threads: AMPLE,
                    capacities: &[1.0],
                },
                MeshNodeSpec {
                    name: "app",
                    demand: 0.008,
                    exponential: false,
                    threads: AMPLE,
                    capacities: &[1.0],
                },
                MeshNodeSpec {
                    name: "db",
                    demand: 0.060,
                    exponential: true,
                    threads: 1,
                    capacities: &[1.0, 2.0],
                },
            ],
            edges: &[(0, 1, 1), (1, 2, 1)],
            cache: None,
            think: 0.8,
            populations: &[4, 12, 24],
            warmup: 100.0,
            measure: 8000.0,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shapes_are_coherent() {
        let grid = default_mesh_grid();
        assert_eq!(grid.len(), 3);
        let points: usize = grid.iter().map(|s| s.populations.len()).sum();
        assert!(points >= 9, "need >= 9 mesh points, have {points}");
        for s in &grid {
            let g = s.graph();
            assert!(g.is_tree());
            assert_eq!(g.tiers(), s.nodes.len());
        }
    }

    #[test]
    fn fanout_visit_ratios_follow_edges() {
        let grid = default_mesh_grid();
        let fanout = &grid[0];
        let v = fanout.expected_visit_ratios();
        assert_eq!(v, vec![1.0, 1.0, 1.0, 2.0]);
        // 1 web + 1 app + 1 svc + 1 db station.
        assert_eq!(fanout.network().stations.len(), 4);
    }

    #[test]
    fn cache_rescales_downstream_visits() {
        let grid = default_mesh_grid();
        let cached = &grid[1];
        let v = cached.expected_visit_ratios();
        assert!((v[3] - 0.4).abs() < 1e-12, "db visits {}", v[3]);
        assert!((v[2] - 1.0).abs() < 1e-12, "cache node still visited");
    }

    #[test]
    fn hetero_capacities_become_distinct_stations() {
        let grid = default_mesh_grid();
        let hetero = &grid[2];
        let net = hetero.network();
        assert_eq!(net.stations.len(), 4, "web, app, and two db stations");
        let s_slow = net.stations[2].service_time();
        let s_fast = net.stations[3].service_time();
        assert!((s_slow - 0.060).abs() < 1e-12);
        assert!((s_fast - 0.030).abs() < 1e-12);
        assert!((net.stations[2].visit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn quick_fanout_point_conforms_and_audits_clean() {
        let mut s = default_mesh_grid().into_iter().next().unwrap();
        s.warmup = 30.0;
        s.measure = 400.0;
        let point = run_mesh_scenario(&s, 6, 1234);
        assert_eq!(point.audit_violations, 0);
        assert!(point.bound_ok, "bound violated: {point:?}");
        assert!(point.max_rel_err() < 0.10, "errors too large: {point:?}");
    }

    #[test]
    fn quick_cache_point_conforms_and_audits_clean() {
        let mut s = default_mesh_grid().into_iter().nth(1).unwrap();
        s.warmup = 30.0;
        s.measure = 400.0;
        let point = run_mesh_scenario(&s, 8, 77);
        assert_eq!(point.audit_violations, 0);
        assert!(point.bound_ok, "bound violated: {point:?}");
        assert!(point.max_rel_err() < 0.10, "errors too large: {point:?}");
    }

    #[test]
    fn quick_hetero_point_conforms_and_audits_clean() {
        let mut s = default_mesh_grid().into_iter().nth(2).unwrap();
        s.warmup = 30.0;
        s.measure = 400.0;
        let point = run_mesh_scenario(&s, 6, 4321);
        assert_eq!(point.audit_violations, 0);
        assert!(point.bound_ok, "bound violated: {point:?}");
        assert!(point.max_rel_err() < 0.10, "errors too large: {point:?}");
    }

    /// Full mesh sweep at the shipping tolerances. Expensive, so ignored by
    /// default; `repro validate` is the shipping entry point.
    #[test]
    #[ignore]
    fn full_mesh_grid_within_tolerance() {
        let mut worst = 0.0f64;
        for (i, s) in default_mesh_grid().iter().enumerate() {
            for (j, &n) in s.populations.iter().enumerate() {
                let seed = (i as u64) * 100 + j as u64 + 11;
                let p = run_mesh_scenario(s, n, seed);
                eprintln!(
                    "{:>12} N={:<3} X: {:.4}/{:.4} ({:+.3}%)  worst-R {:+.3}%  audits={}",
                    p.scenario,
                    n,
                    p.throughput.des,
                    p.throughput.mva,
                    100.0 * p.throughput.rel_err,
                    100.0 * p.max_rel_err(),
                    p.audit_violations,
                );
                assert_eq!(p.audit_violations, 0, "{p:?}");
                assert!(p.bound_ok, "{p:?}");
                worst = worst.max(p.max_rel_err());
            }
        }
        eprintln!("worst mesh error: {:.4}%", 100.0 * worst);
        assert!(worst < 0.02, "mesh tolerance exceeded: {worst}");
    }
}
