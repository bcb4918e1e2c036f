//! Request representation and the per-request execution state machine.
//!
//! An HTTP request travels the tier chain recursively: at tier *m* it holds
//! a server thread, runs a **pre** CPU burst, makes `visits[m+1]` sequential
//! calls into tier *m+1* (holding a downstream connection for each call),
//! runs a **post** burst, and replies. The [`Frame`] stack records where in
//! that recursion the request currently is; `dcm-ntier`'s flow module drives
//! the transitions.

use dcm_sim::time::{SimDuration, SimTime};

use crate::graph::TopologyGraph;
use crate::ids::{RequestId, ServerId};

/// CPU demand at one tier, split around the downstream calls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageDemand {
    /// Work-seconds before the first downstream call.
    pub pre: f64,
    /// Work-seconds after the last downstream call returns.
    pub post: f64,
}

impl StageDemand {
    /// Demand entirely before the downstream calls.
    pub fn pre_only(pre: f64) -> Self {
        StageDemand { pre, post: 0.0 }
    }

    /// Demand split evenly around the downstream calls.
    pub fn split(total: f64) -> Self {
        StageDemand {
            pre: total / 2.0,
            post: total / 2.0,
        }
    }

    /// Total work-seconds at this tier.
    pub fn total(&self) -> f64 {
        self.pre + self.post
    }
}

/// The fully-sampled execution plan of one request: per-tier CPU demands and
/// the visit ratios between adjacent tiers.
///
/// Built by workload generators (which own the service-demand
/// distributions); consumed by the system simulator.
///
/// # Examples
///
/// ```
/// use dcm_ntier::request::{RequestProfile, StageDemand};
///
/// // A RUBBoS-style browse interaction: cheap Apache pass-through, a Tomcat
/// // burst split around two MySQL queries.
/// let profile = RequestProfile::new(
///     vec![
///         StageDemand::pre_only(0.0006),
///         StageDemand::split(0.0284),
///         StageDemand::pre_only(0.00719),
///     ],
///     vec![1, 1, 2],
///     0,
/// );
/// assert_eq!(profile.tiers(), 3);
/// assert_eq!(profile.visits_to(2), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RequestProfile {
    demands: Vec<StageDemand>,
    visits: Vec<u32>,
    class: u16,
    /// Per-visit demand overrides, indexed `[tier][global visit index]`.
    /// Empty inner vectors mean every visit to that tier uses
    /// `demands[tier]`. Workload generators fill this when per-visit
    /// demands must be sampled independently (e.g. i.i.d. exponential DB
    /// queries — reusing one sample across a request's visits correlates
    /// service times and breaks the product-form model the MVA oracle
    /// checks against).
    per_visit: Vec<Vec<StageDemand>>,
    /// Call-graph topology. `None` means the linear chain (tier `m` calls
    /// tier `m + 1` `visits[m + 1]` times); `Some` routes downstream calls
    /// through an arbitrary DAG instead.
    graph: Option<TopologyGraph>,
}

impl RequestProfile {
    /// Creates a profile.
    ///
    /// `demands[m]` is the per-call CPU demand at tier `m`; `visits[m]` is
    /// the number of calls tier `m−1` makes into tier `m` per request
    /// (`visits[0]` is conventionally 1: the client calls the front tier
    /// once).
    ///
    /// # Panics
    ///
    /// Panics if the vectors are empty, have different lengths, any demand
    /// is negative/non-finite, or `visits[0] != 1`.
    pub fn new(demands: Vec<StageDemand>, visits: Vec<u32>, class: u16) -> Self {
        assert!(
            !demands.is_empty(),
            "a request must visit at least one tier"
        );
        assert_eq!(
            demands.len(),
            visits.len(),
            "demands and visits must cover the same tiers"
        );
        assert_eq!(visits[0], 1, "the client makes exactly one front-tier call");
        for d in &demands {
            assert!(
                d.pre.is_finite() && d.pre >= 0.0 && d.post.is_finite() && d.post >= 0.0,
                "demands must be finite and non-negative"
            );
        }
        RequestProfile {
            demands,
            visits,
            class,
            per_visit: Vec::new(),
            graph: None,
        }
    }

    /// Routes this request's downstream calls through `graph` instead of
    /// the linear chain. The per-hop `visits` vector is re-derived from the
    /// graph (sum of in-edge call counts per node) so chain-shaped graphs
    /// report the same visit counts as before.
    ///
    /// Install the graph *before* [`RequestProfile::with_per_visit_demands`]
    /// — per-visit demand lengths are validated against the graph's visit
    /// ratios.
    ///
    /// # Panics
    ///
    /// Panics if the graph's node count differs from the profile's tiers.
    pub fn with_graph(mut self, graph: TopologyGraph) -> Self {
        assert_eq!(
            graph.tiers(),
            self.demands.len(),
            "graph nodes must match profile tiers"
        );
        for (m, v) in self.visits.iter_mut().enumerate() {
            *v = graph.in_calls(m);
        }
        self.graph = Some(graph);
        self
    }

    /// The call graph, when this profile routes through one.
    pub fn graph(&self) -> Option<&TopologyGraph> {
        self.graph.as_ref()
    }

    /// Total downstream calls a frame at tier `m` makes: the chain makes
    /// `visits[m + 1]` calls into the next tier (0 at the last tier); a
    /// graph profile sums its out-edge call counts.
    pub fn total_calls_from(&self, m: usize) -> u32 {
        match &self.graph {
            Some(g) => g.total_calls(m),
            None => {
                let next = m.saturating_add(1);
                if next < self.visits.len() {
                    self.visits[next]
                } else {
                    0
                }
            }
        }
    }

    /// The tier receiving call number `k` (0-based, in call order) from a
    /// frame at tier `m`: always `m + 1` on the chain, the graph's edge
    /// target otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not less than [`RequestProfile::total_calls_from`].
    pub fn call_target(&self, m: usize, k: u32) -> usize {
        match &self.graph {
            Some(g) => g.call_target(m, k),
            None => {
                assert!(k < self.total_calls_from(m), "call index out of range");
                m.saturating_add(1)
            }
        }
    }

    /// Installs independent per-visit demands for tier `m`: visit `k` of
    /// the request at tier `m` (counting every visit across the whole
    /// request, in call order) uses `demands[k]` instead of the shared
    /// per-call demand.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range, `demands` does not cover exactly the
    /// request's [`RequestProfile::cumulative_visits`] to tier `m`, or any
    /// demand is negative/non-finite.
    pub fn with_per_visit_demands(mut self, m: usize, demands: Vec<StageDemand>) -> Self {
        assert!(m < self.demands.len(), "tier {m} out of range");
        assert_eq!(
            demands.len() as u64,
            self.cumulative_visits(m),
            "per-visit demands must cover every visit to tier {m}"
        );
        for d in &demands {
            assert!(
                d.pre.is_finite() && d.pre >= 0.0 && d.post.is_finite() && d.post >= 0.0,
                "demands must be finite and non-negative"
            );
        }
        if self.per_visit.len() <= m {
            self.per_visit.resize(m + 1, Vec::new());
        }
        self.per_visit[m] = demands;
        self
    }

    /// Number of tiers this request traverses.
    pub fn tiers(&self) -> usize {
        self.demands.len()
    }

    /// Per-call demand at tier `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn demand(&self, m: usize) -> StageDemand {
        self.demands[m]
    }

    /// Demand of the `visit`-th visit (global, in call order) to tier `m`;
    /// falls back to the shared per-call demand when no per-visit override
    /// is installed.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn demand_for_visit(&self, m: usize, visit: u64) -> StageDemand {
        self.per_visit
            .get(m)
            .and_then(|v| usize::try_from(visit).ok().and_then(|k| v.get(k)))
            .copied()
            .unwrap_or(self.demands[m])
    }

    /// Calls made into tier `m` per parent-tier call.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn visits_to(&self, m: usize) -> u32 {
        self.visits[m]
    }

    /// The workload class (servlet index) for bookkeeping.
    pub fn class(&self) -> u16 {
        self.class
    }

    /// Total CPU demand an average request places on tier `m`, accounting
    /// for the multiplicative visit ratios along the chain (the `V_m · S_m`
    /// service demand of the paper's Eq. 2).
    pub fn service_demand(&self, m: usize) -> f64 {
        match self.per_visit.get(m) {
            Some(v) if !v.is_empty() => v.iter().map(StageDemand::total).sum(),
            _ => self.demands[m].total() * self.cumulative_visits(m) as f64,
        }
    }

    /// The end-to-end visit ratio `V_m` from the client to tier `m`
    /// (product of per-hop visits on the chain; the DAG visit-ratio sum
    /// when a graph is installed).
    pub fn cumulative_visits(&self, m: usize) -> u64 {
        match &self.graph {
            Some(g) => g.visit_ratios()[m],
            None => self.visits[..=m].iter().map(|&v| u64::from(v)).product(),
        }
    }
}

/// Where a frame is in its tier-local lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Parked in the server's thread-pool queue.
    AwaitThread,
    /// Running the pre-call CPU burst.
    PreBurst,
    /// Parked in this server's downstream connection-pool queue.
    AwaitConn,
    /// A child call is in flight at the next tier.
    InCall,
    /// Running the post-call CPU burst.
    PostBurst,
}

/// One level of the request's call stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Tier index of this frame.
    pub tier: usize,
    /// Server processing this frame.
    pub server: ServerId,
    /// Current phase.
    pub phase: Phase,
    /// Downstream calls completed so far.
    pub calls_done: u32,
    /// Which global visit (in call order, per tier) of the request this
    /// frame is — the index into per-visit demand overrides.
    pub visit: u64,
    /// Whether this frame currently holds a downstream connection.
    pub holds_conn: bool,
    /// When this frame's thread was granted (for dwell-time accounting;
    /// meaningful once past [`Phase::AwaitThread`]).
    pub thread_since: SimTime,
    /// When the request arrived at this tier (thread requested).
    pub arrived_at: SimTime,
}

impl Frame {
    /// A frame newly arrived at `server` in `tier` at time `now` as the
    /// request's `visit`-th visit to that tier, not yet holding a thread.
    pub fn arriving(tier: usize, server: ServerId, now: SimTime, visit: u64) -> Self {
        Frame {
            tier,
            server,
            phase: Phase::AwaitThread,
            calls_done: 0,
            visit,
            holds_conn: false,
            thread_since: SimTime::ZERO,
            arrived_at: now,
        }
    }
}

/// Why a request left the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Fully processed.
    Completed,
    /// Dropped because a tier had no routable server.
    Rejected {
        /// The tier that could not accept the request.
        at_tier: usize,
    },
    /// Abandoned by the client after its deadline elapsed.
    TimedOut,
    /// Lost to a fault: the server processing it crashed mid-flight, or
    /// the request was dropped by a transient (injected) failure.
    Failed {
        /// The tier at which the fault struck.
        at_tier: usize,
    },
}

/// Completion record delivered to the submitter's callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The request.
    pub id: RequestId,
    /// Workload class (servlet index).
    pub class: u16,
    /// Submission time.
    pub submitted: SimTime,
    /// Completion (or rejection) time.
    pub finished: SimTime,
    /// How the request ended.
    pub outcome: Outcome,
}

impl Completion {
    /// End-to-end response time.
    pub fn response_time(&self) -> SimDuration {
        self.finished.saturating_since(self.submitted)
    }

    /// True if the request completed successfully.
    pub fn is_success(&self) -> bool {
        self.outcome == Outcome::Completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> RequestProfile {
        RequestProfile::new(
            vec![
                StageDemand::pre_only(0.001),
                StageDemand::split(0.028),
                StageDemand::pre_only(0.007),
            ],
            vec![1, 1, 2],
            3,
        )
    }

    #[test]
    fn profile_accessors() {
        let p = profile();
        assert_eq!(p.tiers(), 3);
        assert_eq!(p.class(), 3);
        assert_eq!(p.demand(1).pre, 0.014);
        assert_eq!(p.demand(1).post, 0.014);
        assert_eq!(p.visits_to(2), 2);
    }

    #[test]
    fn cumulative_visits_multiply_along_chain() {
        let p = RequestProfile::new(
            vec![
                StageDemand::pre_only(0.0),
                StageDemand::pre_only(0.0),
                StageDemand::pre_only(0.0),
            ],
            vec![1, 3, 2],
            0,
        );
        assert_eq!(p.cumulative_visits(0), 1);
        assert_eq!(p.cumulative_visits(1), 3);
        assert_eq!(p.cumulative_visits(2), 6);
    }

    #[test]
    fn service_demand_weights_by_visits() {
        let p = profile();
        // Tier 2: 0.007 per query × 2 queries.
        assert!((p.service_demand(2) - 0.014).abs() < 1e-12);
        assert!((p.service_demand(1) - 0.028).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "exactly one front-tier call")]
    fn front_tier_visits_must_be_one() {
        let _ = RequestProfile::new(vec![StageDemand::pre_only(0.0)], vec![2], 0);
    }

    #[test]
    #[should_panic(expected = "same tiers")]
    fn mismatched_lengths_rejected() {
        let _ = RequestProfile::new(vec![StageDemand::pre_only(0.0)], vec![1, 1], 0);
    }

    #[test]
    fn completion_response_time() {
        let c = Completion {
            id: RequestId::new(1),
            class: 0,
            submitted: SimTime::from_secs(1),
            finished: SimTime::from_secs(3),
            outcome: Outcome::Completed,
        };
        assert_eq!(c.response_time(), SimDuration::from_secs(2));
        assert!(c.is_success());
        let r = Completion {
            outcome: Outcome::Rejected { at_tier: 1 },
            ..c
        };
        assert!(!r.is_success());
    }

    #[test]
    fn arriving_frame_defaults() {
        let f = Frame::arriving(2, ServerId::new(5), SimTime::from_secs(3), 1);
        assert_eq!(f.phase, Phase::AwaitThread);
        assert_eq!(f.calls_done, 0);
        assert_eq!(f.visit, 1);
        assert!(!f.holds_conn);
        assert_eq!(f.arrived_at, SimTime::from_secs(3));
    }
}
