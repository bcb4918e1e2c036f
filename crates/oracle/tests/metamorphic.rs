//! Metamorphic properties of the DES: known transformations of a
//! configuration must transform the steady state in a known way, with no
//! oracle in the loop (the simulator is checked against itself).

use dcm_ntier::balancer::BalancerPolicy;
use dcm_ntier::graph::TopologyGraph;
use dcm_ntier::law::{reference, ServiceLaw};
use dcm_ntier::server::VmType;
use dcm_ntier::system::VmPolicy;
use dcm_ntier::topology::{MeshBuilder, MeshNode, SoftConfig, ThreeTierBuilder};
use dcm_oracle::{run_scenario, Scenario};
use dcm_sim::dist::Dist;
use dcm_sim::time::SimTime;
use dcm_workload::generator::UserPopulation;
use dcm_workload::profile::{MeshProfileFactory, NodeDemand, ProfileFactory};

/// Doubling every tier's server count AND the client population in a
/// zero-overhead configuration leaves per-server utilization and mean
/// per-request residence invariant, and doubles throughput — the scaled
/// system behaves like two copies of the original. (The equivalence is
/// exact only away from the saturation knee: random routing couples the
/// copies, a finite-population effect, so the test runs at moderate
/// utilization where the residual is well under the tolerance.)
#[test]
fn doubling_servers_and_load_preserves_per_server_state() {
    let chain = |name, counts| {
        Scenario::chain(
            name,
            counts,
            2,
            [0.002, 0.008],
            1,
            0.8,
            ServiceLaw::frictionless(0.08),
        )
        .sweep(&[], 50.0, 1500.0)
    };
    let base = chain("meta-base", (1, 1, 1));
    let doubled = chain("meta-doubled", (2, 2, 2));
    let one = run_scenario(&base, 10, 9001);
    let two = run_scenario(&doubled, 20, 9002);
    assert_eq!(one.audit_violations, 0);
    assert_eq!(two.audit_violations, 0);

    // Throughput doubles (per-server utilization X·S/d invariant follows
    // directly: 2X over 2d servers with the same demands).
    let x_ratio = two.throughput.des / one.throughput.des;
    assert!(
        (x_ratio - 2.0).abs() < 0.04,
        "throughput must double: {x_ratio:.4} ({} vs {})",
        one.throughput.des,
        two.throughput.des
    );
    // Mean per-request residence at each tier is invariant.
    for (tier, (a, b)) in one.residence.iter().zip(two.residence.iter()).enumerate() {
        let rel = (a.des - b.des).abs() / a.des;
        assert!(
            rel < 0.05,
            "tier {tier} residence must be invariant: {:.6} vs {:.6} ({:.2}%)",
            a.des,
            b.des,
            100.0 * rel
        );
    }
}

/// Permuting the order in which two identical middle tiers are configured
/// (the app/db builder arguments swapped, and the setters called in the
/// opposite order) produces a bit-identical simulation: same completion
/// count and identical per-request finish timestamps.
#[test]
fn permuting_identical_tier_configuration_is_bit_identical() {
    let law = ServiceLaw::new(0.02, 1.0e-3, 1.0e-5);
    let demand = 0.02;
    let run = |swap: bool| {
        let builder = ThreeTierBuilder::new()
            .counts(1, 1, 1)
            .soft(SoftConfig::new(1000, 24, 24))
            .balancer(BalancerPolicy::Random)
            .seed(4711);
        // The two middle-tier laws are equal; `swap` routes each value
        // through the other setter and flips the call order.
        let builder = if swap {
            builder.db_law(law).app_law(law)
        } else {
            builder.app_law(law).db_law(law)
        };
        let (mut world, mut engine) = builder.build();
        let factory = ProfileFactory::rubbos().with_bases(
            dcm_sim::dist::Dist::constant(0.002),
            dcm_sim::dist::Dist::constant(demand),
            dcm_sim::dist::Dist::exponential_mean(demand),
        );
        let pop = UserPopulation::start_think_time(
            &mut world,
            &mut engine,
            factory,
            60,
            1.0,
            SimTime::from_secs(120),
        );
        engine.run(&mut world);
        let counters = world.system.counters();
        let finishes =
            pop.with_completions(|log| log.iter().map(|c| c.finished).collect::<Vec<_>>());
        (counters, finishes)
    };
    let (counters_a, finishes_a) = run(false);
    let (counters_b, finishes_b) = run(true);
    assert_eq!(counters_a, counters_b, "outcome counters must be identical");
    assert!(counters_a.completed > 1000, "sanity: the run did something");
    assert_eq!(
        finishes_a, finishes_b,
        "per-request finish timestamps must be bit-identical"
    );
}

/// The chain is the degenerate DAG: attaching the explicit chain graph to
/// the request profiles (which routes every request through the
/// DAG-dispatch path instead of the fixed-chain path) must reproduce the
/// plain chain simulation bit for bit — same counters, same per-request
/// finish timestamps.
#[test]
fn chain_graph_dispatch_is_bit_identical_to_plain_chain() {
    let run = |chain_graph: bool| {
        let (mut world, mut engine) = ThreeTierBuilder::new()
            .counts(1, 2, 1)
            .soft(SoftConfig::new(1000, 60, 24))
            .seed(8080)
            .build();
        let factory = if chain_graph {
            ProfileFactory::rubbos().with_chain_graph()
        } else {
            ProfileFactory::rubbos()
        };
        let pop = UserPopulation::start_think_time(
            &mut world,
            &mut engine,
            factory,
            40,
            1.0,
            SimTime::from_secs(120),
        );
        engine.run(&mut world);
        let counters = world.system.counters();
        let finishes =
            pop.with_completions(|log| log.iter().map(|c| c.finished).collect::<Vec<_>>());
        (counters, finishes)
    };
    let (counters_plain, finishes_plain) = run(false);
    let (counters_dag, finishes_dag) = run(true);
    assert_eq!(
        counters_plain, counters_dag,
        "DAG dispatch of the chain graph must not change outcomes"
    );
    assert!(counters_plain.completed > 1000, "sanity: the run did work");
    assert_eq!(
        finishes_plain, finishes_dag,
        "per-request finish timestamps must be bit-identical"
    );
}

/// A heterogeneous VM policy whose catalog holds only the small flavor is
/// the degenerate fleet: it must be bit-identical to the homogeneous
/// default — same completions, same per-tier VM-seconds and dollars.
#[test]
fn single_flavor_vm_policy_is_bit_identical_to_homogeneous_default() {
    let horizon = SimTime::from_secs(120);
    let run = |explicit: bool| {
        let graph = TopologyGraph::from_edges(3, &[(0, 1, 1), (1, 2, 2)]);
        let node = |name: &str, law, threads: u32| {
            let n = MeshNode::new(name, law, threads);
            if explicit {
                n.vm_policy(VmPolicy::fixed(VmType::SMALL))
            } else {
                n
            }
        };
        let (mut world, mut engine) = MeshBuilder::new()
            .node(node("web", reference::apache(), 1000))
            .node(node("app", reference::tomcat(), 100).conns(40).count(2))
            .node(node("db", reference::mysql(), 800))
            .seed(6060)
            .build();
        let factory = MeshProfileFactory::new(
            graph,
            vec![
                NodeDemand::split(Dist::constant(0.002)),
                NodeDemand::split(Dist::constant(0.008)),
                NodeDemand::leaf(Dist::exponential_mean(0.02)).iid_visits(),
            ],
        );
        let pop =
            UserPopulation::start_think_time(&mut world, &mut engine, factory, 30, 1.0, horizon);
        engine.run(&mut world);
        let counters = world.system.counters();
        let finishes =
            pop.with_completions(|log| log.iter().map(|c| c.finished).collect::<Vec<_>>());
        let now = engine.now();
        let accounting: Vec<(u64, u64)> = (0..world.system.tier_count())
            .map(|m| {
                (
                    world.system.vm_seconds(m, now).to_bits(),
                    world.system.vm_cost(m, now).to_bits(),
                )
            })
            .collect();
        (counters, finishes, accounting)
    };
    let (counters_default, finishes_default, accounting_default) = run(false);
    let (counters_explicit, finishes_explicit, accounting_explicit) = run(true);
    assert_eq!(counters_default, counters_explicit);
    assert!(counters_default.completed > 500, "sanity: the run did work");
    assert_eq!(finishes_default, finishes_explicit);
    assert_eq!(
        accounting_default, accounting_explicit,
        "single-small catalog must price exactly like the default fleet"
    );
}
