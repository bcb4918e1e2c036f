//! # dcm-oracle — analytic oracle & DES conformance harness
//!
//! Proves the simulator right (or catches it drifting): every conformance
//! [`Scenario`] is a tree of nodes built *twice* — once as a DES world
//! ([`dcm_ntier::topology::MeshBuilder`] + a think-time client
//! population) and once as a closed product-form queueing network solved
//! exactly by load-dependent MVA ([`dcm_model::mva`]) — then compares
//! steady-state throughput, per-node residence, and the last node's queue
//! length. The paper's three-tier chain is [`Scenario::chain`]; fan-out
//! services, a cache tier and heterogeneous VM fleets are
//! [`Scenario::mesh`] trees.
//!
//! The mapping rests on how the simulated server actually works (see
//! [`dcm_ntier::cpu`]): all bursts progress at speed `1/f(n)`, so
//!
//! * a **frictionless** (`α = β = 0`) server with an ample thread pool is
//!   an infinite-server (delay) station — insensitive to the demand
//!   distribution, so constant demands are exact;
//! * a frictionless server behind a **finite thread pool** of `c` threads
//!   serves like `M/M/c` (rate `min(n,c)/S`) — exact when per-visit demand
//!   is exponential;
//! * a **lawful** (`α, β > 0`) server behind `c` threads is a
//!   load-dependent station with rate `min(n,c)·S⁰/S*(min(n,c))` per mean
//!   demand — the ground-truth `S*(N)` from [`dcm_ntier::law`] feeds the
//!   oracle via [`dcm_model::mva::law_rate_table`].
//!
//! Every node contributes one station per server. Visit ratios follow the
//! tree's per-edge call counts and split evenly over a node's servers
//! under the `Random` balancer. A steady-state cache that hits with
//! probability `h` and skips its downstream hop is Bernoulli (Markovian)
//! routing, so the network stays product-form with that edge's visit
//! contribution rescaled by `1 − h`. A server with VM capacity multiplier
//! `c` runs every burst `c×` faster, so its station serves at `S / c` —
//! exact, not approximate.
//!
//! Every scenario run also carries a [`dcm_ntier::audit::ConservationAuditor`]
//! across its measurement window, so a conformance sweep doubles as a
//! conservation sweep.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod mesh;
pub mod planner;

pub use mesh::{
    default_grid, default_mesh_grid, run_scenario, run_scenario_cohort, CacheSpec, Node, Point,
    Scenario, ScenarioKind, TierComparison,
};
pub use planner::{predict, throughput_bound, PlannedTier, Prediction};
