//! Model-predictive concurrency management: plan with the exact closed
//! network, act on the cheapest plan that meets the SLO.
//!
//! Every control period the controller maps the observed topology and the
//! work-rate-law demand estimates onto [`dcm_oracle::planner`]'s closed
//! product-form network, enumerates candidate actions — VMs per scalable
//! tier within caps and per-tick step limits, crossed with thread/
//! connection-pool sizes around each tier model's `N*` — predicts each
//! candidate's throughput and response time with exact MVA, and applies
//! the cheapest plan whose predicted latency meets the SLO (falling back
//! to the best-effort plan when none does).
//!
//! Demands are estimated online from the monitor stream by inverting the
//! CPU sensor's work-rate law — `S⁰_i = U_i·k_i·(n*/f(n*)) / X_i`, the
//! zero-contention per-visit demand (delivered work is `X·S⁰` no matter
//! the contention level) — then re-contended for each candidate's pool
//! size with the fitted concurrency law, so the planner's monotonicity
//! guarantees hold while the concurrency trade-off (paper Eq. 5) still
//! shapes the choice. Estimates are invalidated whenever the topology or
//! soft allocation changes shape — points measured under a different
//! configuration describe a different system.
//!
//! The controller closes the same failure blind spots the DCM controller
//! does: a tier gone silent while the rest of the system reports is
//! treated as wedged after [`SILENT_TICKS_FOR_PRESSURE`] periods (a dead
//! tier immediately), and the plan the controller last committed to is
//! remembered as desired capacity, so a crashed VM is re-provisioned on
//! the next tick without waiting for load to re-trip anything.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use dcm_model::mva::SolveCache;
use dcm_ntier::world::{SimEngine, World};
use dcm_obs::journal::{Decision, DecisionJournal, JournalEntry, PlanProvenance, TierObservation};
use dcm_oracle::planner::{predict_with, PlannedTier, Prediction};

use crate::agents::{ActionRecord, AppAgent, VmAgent};
use crate::aggregate::TierWindow;
use crate::controller::{Controller, DcmModels, MetricsFeed, SILENT_TICKS_FOR_PRESSURE};
use crate::monitor::MetricsBus;

/// Effective concurrency ceiling for tiers the MPC does not pool-manage
/// (the web tier's 1000-thread default never binds at league populations).
const UNMANAGED_CONCURRENCY: u32 = 1024;

/// EMA weight for the demand/visit estimators.
const EMA_ALPHA: f64 = 0.3;

/// MPC configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MpcConfig {
    /// Mean response-time SLO the plan must meet (seconds).
    pub slo_secs: f64,
    /// Client think time `Z` for the interactive-law population estimate.
    pub think_time_secs: f64,
    /// Tiers the controller may scale.
    pub scalable_tiers: Vec<usize>,
    /// Never scale a tier below this many servers.
    pub min_servers: usize,
    /// Never scale a tier above this many servers.
    pub max_servers: usize,
    /// Largest net VM change per tier per tick the planner may propose.
    pub step_limit: usize,
    /// Plan for `population × headroom` users so the plan leads the ramp
    /// instead of chasing it (boot delays are long; predictions are for
    /// the steady state the system is heading into).
    pub population_headroom: f64,
    /// Index of the application tier (thread-pool actuated).
    pub app_tier: usize,
    /// Index of the database tier (connection-pool actuated via the app
    /// tier).
    pub db_tier: usize,
    /// Multiplier on `N*` for the realistic pool size (same rationale as
    /// [`crate::controller::DcmConfig::headroom`]).
    pub pool_headroom: f64,
    /// Hysteresis against capacity flapping: a plan that surrenders a VM
    /// relative to the current allocation only qualifies as SLO-meeting
    /// when its predicted response clears `slo_secs × scale_in_margin`.
    pub scale_in_margin: f64,
}

impl Default for MpcConfig {
    fn default() -> Self {
        MpcConfig {
            slo_secs: 1.0,
            think_time_secs: 3.0,
            scalable_tiers: vec![1, 2],
            min_servers: 1,
            max_servers: 8,
            step_limit: 2,
            population_headroom: 1.0,
            app_tier: 1,
            db_tier: 2,
            pool_headroom: 1.1,
            scale_in_margin: 0.9,
        }
    }
}

/// Per-tier online demand estimate (work-rate-law inversion,
/// EMA-smoothed).
#[derive(Debug, Clone, Copy)]
struct TierEstimate {
    /// Zero-contention per-visit demand (seconds): `U·k·(n*/f(n*)) / X`,
    /// already contention-free because delivered work is `X·S⁰`
    /// regardless of how contention slows individual requests.
    base_demand: f64,
    /// Visit ratio relative to the front tier.
    visits: f64,
}

/// The model-predictive controller.
pub struct ModelPredictive {
    feed: MetricsFeed,
    vm: VmAgent,
    app: AppAgent,
    models: DcmModels,
    config: MpcConfig,
    estimates: BTreeMap<usize, TierEstimate>,
    silence: BTreeMap<usize, u32>,
    /// Capacity the last committed plan called for, per scalable tier
    /// (crash-replacement memory).
    desired: BTreeMap<usize, usize>,
    /// `(per-tier counts, threads, conns)` shape under which the current
    /// estimates were measured; a change invalidates them.
    last_shape: Option<(Vec<usize>, u32, u32)>,
    /// Soft allocation the last plan committed to.
    committed_pools: Option<(u32, u32)>,
    /// Predicted throughput of the last committed plan, for the
    /// predicted-vs-realized journal line.
    last_predicted_x: Option<f64>,
    planner_evals: u64,
    journal: Option<Rc<RefCell<DecisionJournal>>>,
}

impl std::fmt::Debug for ModelPredictive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelPredictive")
            .field("config", &self.config)
            .field("planner_evals", &self.planner_evals)
            .finish_non_exhaustive()
    }
}

/// One enumerated candidate plan.
#[derive(Debug, Clone)]
struct Candidate {
    app_servers: usize,
    db_servers: usize,
    app_threads: u32,
    db_conns_total: u32,
    prediction: Prediction,
}

impl Candidate {
    /// VM cost the league charges for (web tier is fixed).
    fn cost(&self) -> usize {
        self.app_servers + self.db_servers
    }
}

impl ModelPredictive {
    /// Creates the controller reading from `bus`, planning with the given
    /// fitted tier models.
    pub fn new(bus: MetricsBus, config: MpcConfig, models: DcmModels) -> Self {
        ModelPredictive {
            feed: MetricsFeed::new(bus, "mpc"),
            vm: VmAgent::new(),
            app: AppAgent::new(),
            models,
            config,
            estimates: BTreeMap::new(),
            silence: BTreeMap::new(),
            desired: BTreeMap::new(),
            last_shape: None,
            committed_pools: None,
            last_predicted_x: None,
            planner_evals: 0,
            journal: None,
        }
    }

    /// Tiers with a current demand estimate (diagnostics/tests).
    pub fn estimated_tiers(&self) -> Vec<usize> {
        self.estimates.keys().copied().collect()
    }

    /// Contention factor `S*(n)/S⁰` of the tier's fitted law at
    /// concurrency `n` (1.0 for unmodeled tiers).
    fn contention(&self, tier: usize, n: f64) -> f64 {
        let model = if tier == self.config.app_tier {
            &self.models.app
        } else if tier == self.config.db_tier {
            &self.models.db
        } else {
            return 1.0;
        };
        model.adjusted_service_time(n) / model.s0
    }

    /// Peak deliverable work rate `n*/f(n*)` of the tier's fitted law —
    /// the denominator of the simulated CPU sensor (1.0 for unmodeled
    /// tiers, degrading to the plain utilization law there).
    fn peak_work_rate(&self, tier: usize) -> f64 {
        let model = if tier == self.config.app_tier {
            &self.models.app
        } else if tier == self.config.db_tier {
            &self.models.db
        } else {
            return 1.0;
        };
        let n_star = model.optimal_concurrency();
        if n_star == u32::MAX {
            return 1.0;
        }
        let n = f64::from(n_star.min(10_000));
        n / (model.adjusted_service_time(n) / model.s0)
    }

    fn update_estimates(&mut self, windows: &BTreeMap<usize, TierWindow>) {
        let Some(front) = windows.get(&0) else {
            return;
        };
        let x0 = front.total_throughput;
        if x0 <= 0.0 {
            return;
        }
        for (&tier, w) in windows {
            let x_i = w.total_throughput;
            if x_i <= 0.0 || w.mean_cpu_util <= 0.0 {
                continue;
            }
            // The CPU sensor reports delivered work over the peak
            // deliverable work rate `n*/f(n*)`, and delivered work is
            // `X·S⁰` (contention slows progress, it does not add work), so
            // `S⁰ = U·k·(n*/f(n*)) / X` recovers the zero-contention
            // per-visit demand directly: local to the tier (thread
            // occupancy would fold in downstream wait) and already
            // contention-free (candidates re-apply their own pool's
            // contention factor).
            let base = w.mean_cpu_util * w.servers as f64 * self.peak_work_rate(tier) / x_i;
            let visits = if tier == 0 { 1.0 } else { x_i / x0 };
            let entry = self.estimates.entry(tier).or_insert(TierEstimate {
                base_demand: base,
                visits,
            });
            entry.base_demand += EMA_ALPHA * (base - entry.base_demand);
            entry.visits += EMA_ALPHA * (visits - entry.visits);
        }
    }

    /// Interactive-law population estimate `N = X·(R+Z)`, with per-tier
    /// dwell standing in for residence (falling back to the demand
    /// estimate when a tier had no completions this window).
    fn estimate_population(&self, windows: &BTreeMap<usize, TierWindow>) -> Option<u32> {
        let x0 = windows.get(&0)?.total_throughput;
        if x0 <= 0.0 {
            return Some(1);
        }
        let mut response = 0.0;
        for (&tier, est) in &self.estimates {
            let dwell = windows
                .get(&tier)
                .and_then(|w| w.mean_dwell)
                .unwrap_or(est.base_demand);
            response += est.visits * dwell;
        }
        let n = x0 * (response + self.config.think_time_secs) * self.config.population_headroom;
        Some((n.ceil() as u32).max(1))
    }

    /// Enumerates and evaluates every candidate within caps and step
    /// limits; returns them in deterministic enumeration order.
    fn enumerate(&mut self, world: &World, population: u32) -> Vec<Candidate> {
        let (lo, hi) = (self.config.min_servers, self.config.max_servers);
        let span = |cur: usize| {
            let from = cur.saturating_sub(self.config.step_limit).max(lo);
            let to = (cur + self.config.step_limit).min(hi);
            from..=to
        };
        let cur_app = world.system.running_count(self.config.app_tier)
            + world.system.booting_count(self.config.app_tier);
        let cur_db = world.system.running_count(self.config.db_tier)
            + world.system.booting_count(self.config.db_tier);
        let web_servers = world.system.running_count(0).max(1);

        let n_app = self.models.app.optimal_concurrency().min(10_000);
        let n_db = self.models.db.optimal_concurrency().min(10_000);
        let headroom = self.config.pool_headroom;
        let thread_options = [n_app, (f64::from(n_app) * headroom).ceil() as u32];
        let conn_options = [n_db, (f64::from(n_db) * headroom).ceil() as u32];

        // One cache per round: every candidate shares the web tier, and
        // app and db tiers repeat across the grid.
        let mut cache = SolveCache::default();
        let mut out = Vec::new();
        for a in span(cur_app.max(1)) {
            for d in span(cur_db.max(1)) {
                for &threads in &thread_options {
                    for &conns_per_db in &conn_options {
                        let tiers = self.planned_tiers(web_servers, a, d, threads, conns_per_db);
                        let prediction = predict_with(
                            &tiers,
                            self.config.think_time_secs,
                            population,
                            &mut cache,
                        );
                        self.planner_evals += 1;
                        out.push(Candidate {
                            app_servers: a,
                            db_servers: d,
                            app_threads: threads,
                            db_conns_total: conns_per_db * d as u32,
                            prediction,
                        });
                    }
                }
            }
        }
        out
    }

    /// The planner's view of one candidate: the web tier as it stands, the
    /// app and db tiers at the candidate's VM counts with demands
    /// contention-adjusted to its pool sizes.
    fn planned_tiers(
        &self,
        web_servers: usize,
        app_servers: usize,
        db_servers: usize,
        threads: u32,
        conns_per_db: u32,
    ) -> Vec<PlannedTier> {
        let web = self.estimates[&0];
        let app = self.estimates[&self.config.app_tier];
        let db = self.estimates[&self.config.db_tier];
        vec![
            PlannedTier {
                servers: web_servers as u32,
                concurrency: UNMANAGED_CONCURRENCY,
                demand: web.base_demand.max(1e-6),
                visits: web.visits.max(1e-6),
            },
            PlannedTier {
                servers: app_servers as u32,
                concurrency: threads,
                demand: (app.base_demand
                    * self.contention(self.config.app_tier, f64::from(threads)))
                .max(1e-6),
                visits: app.visits.max(1e-6),
            },
            PlannedTier {
                servers: db_servers as u32,
                concurrency: conns_per_db,
                demand: (db.base_demand
                    * self.contention(self.config.db_tier, f64::from(conns_per_db)))
                .max(1e-6),
                visits: db.visits.max(1e-6),
            },
        ]
    }

    /// The cheapest SLO-meeting candidate, or the lowest-response
    /// best-effort one. Ties break toward fewer VMs, then lower predicted
    /// response, then enumeration order — all deterministic.
    fn choose(
        &self,
        candidates: &[Candidate],
        cur_app: usize,
        cur_db: usize,
    ) -> (Candidate, &'static str) {
        let slo = self.config.slo_secs;
        let mut best_meeting: Option<Candidate> = None;
        let mut best_effort: Option<Candidate> = None;
        for c in candidates {
            // Giving capacity back needs margin, not a borderline pass.
            let shrinks = c.app_servers < cur_app || c.db_servers < cur_db;
            let bar = if shrinks {
                slo * self.config.scale_in_margin
            } else {
                slo
            };
            if c.prediction.response_time <= bar {
                let better = match &best_meeting {
                    None => true,
                    Some(b) => {
                        c.cost() < b.cost()
                            || (c.cost() == b.cost()
                                && c.prediction.response_time < b.prediction.response_time - 1e-12)
                    }
                };
                if better {
                    best_meeting = Some(c.clone());
                }
            }
            let better = match &best_effort {
                None => true,
                Some(b) => c.prediction.response_time < b.prediction.response_time - 1e-12,
            };
            if better {
                best_effort = Some(c.clone());
            }
        }
        match best_meeting {
            Some(c) => (c, "meets-slo-cheapest"),
            None => (
                best_effort.expect("candidate set is never empty"),
                "best-effort",
            ),
        }
    }

    /// Scales `tier` toward `target` VMs, one provision/drain at a time.
    fn drive_tier(
        &mut self,
        world: &mut World,
        engine: &mut SimEngine,
        tier: usize,
        target: usize,
        decisions: &mut Vec<Decision>,
        reason: &str,
    ) {
        let mut have = world.system.running_count(tier) + world.system.booting_count(tier);
        while have < target {
            if self.vm.scale_out(world, engine, tier).is_none() {
                break;
            }
            have += 1;
            decisions.push(Decision {
                action: "scale-out".to_string(),
                tier,
                value: Some(have as u32),
                applied: true,
                reason: reason.to_string(),
            });
        }
        while have > target {
            if self.vm.scale_in(world, engine, tier).is_none() {
                break;
            }
            have -= 1;
            decisions.push(Decision {
                action: "scale-in".to_string(),
                tier,
                value: Some(have as u32),
                applied: true,
                reason: reason.to_string(),
            });
        }
    }

    /// Builds the journal observation for one tier and maintains the
    /// silence streaks; returns whether the tier must be force-scaled
    /// (dead or wedged-silent).
    fn observe_tier(
        &mut self,
        world: &World,
        tier: usize,
        windows: &BTreeMap<usize, TierWindow>,
    ) -> (TierObservation, bool) {
        let running = world.system.running_count(tier);
        let booting = world.system.booting_count(tier);
        let mut obs = TierObservation {
            tier,
            pressure: 0.0,
            signal: String::new(),
            utilization: None,
            throughput: None,
            concurrency: None,
            mean_dwell: None,
            queue: None,
            running,
            booting,
            silent_streak: 0,
        };
        match windows.get(&tier) {
            Some(w) => {
                self.silence.insert(tier, 0);
                obs.signal = "cpu-util".to_string();
                obs.pressure = w.mean_cpu_util;
                obs.utilization = Some(w.mean_cpu_util);
                obs.throughput = Some(w.total_throughput);
                obs.concurrency = Some(w.mean_concurrency);
                obs.mean_dwell = w.mean_dwell;
                obs.queue = Some(w.mean_thread_queue);
                (obs, false)
            }
            None => {
                let streak = self.silence.entry(tier).or_insert(0);
                *streak += 1;
                obs.signal = "silent".to_string();
                obs.silent_streak = *streak;
                if windows.is_empty() {
                    // Monitor itself silent: no evidence of anything.
                    return (obs, false);
                }
                let dead = running == 0 && booting == 0;
                let wedged = dead || *streak >= SILENT_TICKS_FOR_PRESSURE;
                if wedged {
                    obs.pressure = f64::INFINITY;
                }
                (obs, wedged)
            }
        }
    }
}

impl Controller for ModelPredictive {
    fn on_tick(&mut self, world: &mut World, engine: &mut SimEngine) {
        let windows = self.feed.poll_windows();

        // Estimates are only comparable within one configuration shape.
        let counts: Vec<usize> = (0..world.system.tier_count())
            .map(|t| world.system.running_count(t) + world.system.booting_count(t))
            .collect();
        let (threads_now, conns_now) = self.committed_pools.unwrap_or((0, 0));
        let shape = (counts, threads_now, conns_now);
        if self.last_shape.as_ref() != Some(&shape) {
            if self.last_shape.is_some() {
                self.estimates.clear();
            }
            self.last_shape = Some(shape);
        }
        self.update_estimates(&windows);

        // Predicted-vs-realized: compare last tick's committed prediction
        // against the throughput the system just delivered.
        let measured_x = windows.get(&0).map(|w| w.total_throughput);
        let prediction_error = match (self.last_predicted_x, measured_x) {
            (Some(pred), Some(meas)) if pred > 0.0 => Some((pred - meas).abs() / pred),
            _ => None,
        };

        let scalable = self.config.scalable_tiers.clone();
        let mut observations = Vec::new();
        let mut decisions: Vec<Decision> = Vec::new();
        let mut forced: Vec<usize> = Vec::new();
        for &tier in &scalable {
            let (obs, wedged) = self.observe_tier(world, tier, &windows);
            if wedged {
                forced.push(tier);
            }
            observations.push(obs);
        }

        // Blind spot 1: silent/dead tiers get capacity now, not after the
        // planner regains signal (it never will while the tier is down).
        for &tier in &forced {
            let have = world.system.running_count(tier) + world.system.booting_count(tier);
            let target = (have + 1).clamp(self.config.min_servers, self.config.max_servers);
            self.drive_tier(
                world,
                engine,
                tier,
                target,
                &mut decisions,
                "tier silent/dead under load: forced scale-out",
            );
        }

        // Blind spot 2: the last committed plan is remembered as desired
        // capacity; a crashed VM is replaced without re-planning (the
        // estimates were just invalidated by the shape change, so the
        // planner is blind exactly when the crash happens).
        for &tier in &scalable {
            let desired = match self.desired.get(&tier) {
                Some(&d) => d.clamp(self.config.min_servers, self.config.max_servers),
                None => continue,
            };
            let before = world.system.running_count(tier) + world.system.booting_count(tier);
            if before < desired {
                self.drive_tier(
                    world,
                    engine,
                    tier,
                    desired,
                    &mut decisions,
                    "capacity below committed plan (VM loss); re-provisioning",
                );
                decisions.push(Decision {
                    action: "replace-lost".to_string(),
                    tier,
                    value: Some(desired as u32),
                    applied: true,
                    reason: format!("capacity {before} below committed plan {desired}"),
                });
            }
        }

        // Plan only with a full set of demand estimates; until then the
        // forced-capacity paths above are the whole policy.
        let have_estimates = self.estimates.contains_key(&0)
            && self.estimates.contains_key(&self.config.app_tier)
            && self.estimates.contains_key(&self.config.db_tier);
        let mut plan = None;
        if have_estimates {
            if let Some(population) = self.estimate_population(&windows) {
                let cur_app = world.system.running_count(self.config.app_tier)
                    + world.system.booting_count(self.config.app_tier);
                let cur_db = world.system.running_count(self.config.db_tier)
                    + world.system.booting_count(self.config.db_tier);
                let candidates = self.enumerate(world, population);
                let (chosen, reason) = self.choose(&candidates, cur_app, cur_db);
                self.drive_tier(
                    world,
                    engine,
                    self.config.app_tier,
                    chosen.app_servers,
                    &mut decisions,
                    reason,
                );
                self.drive_tier(
                    world,
                    engine,
                    self.config.db_tier,
                    chosen.db_servers,
                    &mut decisions,
                    reason,
                );
                self.desired
                    .insert(self.config.app_tier, chosen.app_servers);
                self.desired.insert(self.config.db_tier, chosen.db_servers);

                let k_app = (world.system.running_count(self.config.app_tier)
                    + world.system.booting_count(self.config.app_tier))
                .max(1) as u32;
                let conns_per_app = chosen.db_conns_total.div_ceil(k_app).max(1);
                let before = self.app.log().len();
                self.app
                    .set_tier_threads(world, engine, self.config.app_tier, chosen.app_threads);
                if self.app.log().len() > before {
                    decisions.push(Decision {
                        action: "set-threads".to_string(),
                        tier: self.config.app_tier,
                        value: Some(chosen.app_threads),
                        applied: true,
                        reason: format!("plan pool size {}", chosen.app_threads),
                    });
                }
                let before = self.app.log().len();
                self.app
                    .set_tier_conns(world, engine, self.config.app_tier, conns_per_app);
                if self.app.log().len() > before {
                    decisions.push(Decision {
                        action: "set-conns".to_string(),
                        tier: self.config.app_tier,
                        value: Some(conns_per_app),
                        applied: true,
                        reason: format!(
                            "plan db concurrency {} split across {k_app} app server(s)",
                            chosen.db_conns_total
                        ),
                    });
                }
                self.committed_pools = Some((chosen.app_threads, conns_per_app));
                self.last_predicted_x = Some(chosen.prediction.throughput);
                plan = Some(PlanProvenance {
                    candidates: candidates.len() as u32,
                    predicted_throughput: chosen.prediction.throughput,
                    predicted_response: chosen.prediction.response_time,
                    chosen: format!(
                        "app={}x{} db={}x{} N={}",
                        chosen.app_servers,
                        chosen.app_threads,
                        chosen.db_servers,
                        chosen.db_conns_total,
                        chosen.prediction.population,
                    ),
                    reason: reason.to_string(),
                    prediction_error,
                });
            }
        }
        if plan.is_none() {
            decisions.push(Decision {
                action: "hold".to_string(),
                tier: self.config.app_tier,
                value: None,
                applied: false,
                reason: "demand estimates not yet seeded; planning deferred".to_string(),
            });
        }

        if let Some(journal) = &self.journal {
            journal.borrow_mut().push(JournalEntry {
                at: engine.now(),
                controller: "MPC".to_string(),
                observations,
                fits: Vec::new(),
                decisions,
                plan,
            });
        }
    }

    fn actions(&self) -> Vec<ActionRecord> {
        let mut all: Vec<ActionRecord> = self
            .vm
            .log()
            .iter()
            .chain(self.app.log().iter())
            .cloned()
            .collect();
        all.sort_by_key(|r| r.at);
        all
    }

    fn name(&self) -> &'static str {
        "MPC"
    }

    fn attach_journal(&mut self, journal: Rc<RefCell<DecisionJournal>>) {
        self.journal = Some(journal);
    }

    fn planner_evals(&self) -> u64 {
        self.planner_evals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{new_metrics_bus, METRICS_TOPIC};
    use dcm_model::concurrency::ConcurrencyModel;
    use dcm_ntier::flow;
    use dcm_ntier::law::reference;
    use dcm_ntier::metrics::ServerSample;
    use dcm_ntier::topology::ThreeTierBuilder;
    use dcm_oracle::planner::predict;
    use dcm_sim::time::SimTime;

    fn models() -> DcmModels {
        let app = reference::tomcat();
        let db = reference::mysql();
        DcmModels {
            app: ConcurrencyModel::new(app.s0(), app.alpha(), app.beta(), 1.0, 1),
            db: ConcurrencyModel::new(db.s0(), db.alpha(), db.beta(), 1.0, 1),
        }
    }

    fn sample(server: &str, tier: usize, cpu: f64, x: f64) -> ServerSample {
        ServerSample {
            server: server.into(),
            tier,
            window_start: SimTime::ZERO,
            window_end: SimTime::from_secs(1),
            cpu_util: cpu,
            busy_fraction: cpu,
            active_threads: 1.0,
            active_conns: None,
            completed: x as u64,
            throughput: x,
            mean_dwell: Some(0.05),
            thread_pool_size: 100,
            conn_pool_size: None,
            thread_queue: 0,
            conn_queue: 0,
        }
    }

    fn produce(bus: &MetricsBus, ts_ms: u64, sample: ServerSample) {
        let key = sample.server.clone();
        bus.borrow_mut()
            .produce(METRICS_TOPIC, ts_ms, Some(key), sample)
            .expect("metrics topic exists");
    }

    fn feed_all(bus: &MetricsBus, ts_ms: u64, cpu: f64) {
        produce(bus, ts_ms, sample("web-1", 0, cpu, 50.0));
        produce(bus, ts_ms, sample("app-1", 1, cpu, 50.0));
        produce(bus, ts_ms, sample("db-1", 2, cpu, 50.0));
    }

    #[test]
    fn seeds_estimates_then_plans_and_journals_provenance() {
        let (mut world, mut engine) = ThreeTierBuilder::new().build();
        let bus = new_metrics_bus();
        let mut mpc = ModelPredictive::new(Rc::clone(&bus), MpcConfig::default(), models());
        let journal = Rc::new(RefCell::new(DecisionJournal::new()));
        mpc.attach_journal(Rc::clone(&journal));

        // Tick 1 with metrics: estimates seed and a plan is produced.
        feed_all(&bus, 1_000, 0.5);
        mpc.on_tick(&mut world, &mut engine);
        assert_eq!(mpc.estimated_tiers(), vec![0, 1, 2]);
        assert!(mpc.planner_evals() > 0, "candidates must be evaluated");
        let entry = journal.borrow().entries()[0].clone();
        let plan = entry.plan.expect("plan provenance journaled");
        assert!(plan.candidates > 0);
        assert!(plan.predicted_throughput > 0.0);
        assert!(
            plan.prediction_error.is_none(),
            "first tick has nothing to compare against"
        );

        // Tick 2: the previous prediction is scored against measurement
        // (if the shape didn't change, estimates survive).
        feed_all(&bus, 2_000, 0.5);
        mpc.on_tick(&mut world, &mut engine);
        let entry = journal.borrow().entries()[1].clone();
        if let Some(plan) = entry.plan {
            assert!(plan.prediction_error.is_some());
        }
    }

    /// The per-round solve cache changes no prediction: over one tick's
    /// full candidate grid, cached and uncached predictions agree bit for
    /// bit, and each enumerated candidate is one planner evaluation.
    #[test]
    fn cached_candidate_grid_matches_uncached_predictions() {
        let (mut world, mut engine) = ThreeTierBuilder::new().build();
        let bus = new_metrics_bus();
        let mut mpc = ModelPredictive::new(Rc::clone(&bus), MpcConfig::default(), models());
        let journal = Rc::new(RefCell::new(DecisionJournal::new()));
        mpc.attach_journal(Rc::clone(&journal));
        feed_all(&bus, 1_000, 0.5);
        mpc.on_tick(&mut world, &mut engine);
        let plan = journal.borrow().entries()[0]
            .plan
            .clone()
            .expect("plan provenance journaled");
        assert_eq!(mpc.planner_evals(), u64::from(plan.candidates));

        let population: u32 = plan
            .chosen
            .rsplit("N=")
            .next()
            .and_then(|n| n.parse().ok())
            .expect("journaled plan names its population");
        let before = mpc.planner_evals();
        let grid = mpc.enumerate(&world, population);
        assert_eq!(mpc.planner_evals() - before, grid.len() as u64);
        let web_servers = world.system.running_count(0).max(1);
        for c in &grid {
            let conns_per_db = c.db_conns_total / c.db_servers as u32;
            let tiers = mpc.planned_tiers(
                web_servers,
                c.app_servers,
                c.db_servers,
                c.app_threads,
                conns_per_db,
            );
            let uncached = predict(&tiers, mpc.config.think_time_secs, population);
            assert_eq!(
                c.prediction.throughput.to_bits(),
                uncached.throughput.to_bits()
            );
            assert_eq!(
                c.prediction.response_time.to_bits(),
                uncached.response_time.to_bits()
            );
        }
    }

    #[test]
    fn without_metrics_holds_everything() {
        let (mut world, mut engine) = ThreeTierBuilder::new().build();
        let bus = new_metrics_bus();
        let mut mpc = ModelPredictive::new(bus, MpcConfig::default(), models());
        mpc.on_tick(&mut world, &mut engine);
        assert!(mpc.actions().is_empty());
        assert_eq!(world.system.running_count(1), 1);
    }

    /// Blind spot 1: a tier whose every server crashed goes silent; the
    /// MPC must re-provision it within [`SILENT_TICKS_FOR_PRESSURE`]
    /// ticks even though the planner has no signal from it.
    #[test]
    fn dead_silent_tier_is_reprovisioned_immediately() {
        let (mut world, mut engine) = ThreeTierBuilder::new().build();
        let bus = new_metrics_bus();
        let mut mpc = ModelPredictive::new(Rc::clone(&bus), MpcConfig::default(), models());
        let victim = world.system.tier(1).members()[0];
        flow::crash_server(&mut world, &mut engine, victim);
        assert_eq!(world.system.running_count(1), 0);
        // Other tiers keep reporting: the pipeline is alive.
        produce(&bus, 1_000, sample("web-1", 0, 0.3, 20.0));
        mpc.on_tick(&mut world, &mut engine);
        assert_eq!(
            world.system.booting_count(1),
            1,
            "a dead-silent tier must not be ignored"
        );
    }

    /// Blind spot 1b: a silent-but-capacitated tier is wedged after the
    /// streak, not on the first missed window.
    #[test]
    fn wedged_silent_tier_scales_out_after_streak() {
        let (mut world, mut engine) = ThreeTierBuilder::new().build();
        let bus = new_metrics_bus();
        let mut mpc = ModelPredictive::new(Rc::clone(&bus), MpcConfig::default(), models());
        produce(&bus, 1_000, sample("web-1", 0, 0.3, 20.0));
        mpc.on_tick(&mut world, &mut engine);
        assert_eq!(world.system.booting_count(1), 0, "one miss is a hiccup");
        produce(&bus, 2_000, sample("web-1", 0, 0.3, 20.0));
        mpc.on_tick(&mut world, &mut engine);
        assert_eq!(
            world.system.booting_count(1),
            1,
            "consecutive silence means wedged"
        );
    }

    /// Blind spot 2: the committed plan is capacity memory — a crashed VM
    /// is replaced on the next tick even when the survivors report
    /// mid-band load.
    #[test]
    fn crashed_vm_is_replaced_from_committed_plan() {
        let (mut world, mut engine) = ThreeTierBuilder::new().counts(1, 2, 1).build();
        let bus = new_metrics_bus();
        let mut mpc = ModelPredictive::new(Rc::clone(&bus), MpcConfig::default(), models());
        // Saturated app tier at low throughput: the per-visit demand is
        // heavy, so the committed plan needs more than the survivors.
        produce(&bus, 1_000, sample("web-1", 0, 0.3, 10.0));
        produce(&bus, 1_000, sample("app-1", 1, 0.95, 5.0));
        produce(&bus, 1_000, sample("app-2", 1, 0.95, 5.0));
        produce(&bus, 1_000, sample("db-1", 2, 0.3, 10.0));
        mpc.on_tick(&mut world, &mut engine);
        let committed = mpc.desired[&1];
        assert!(
            committed > 2,
            "a saturated tier's plan must grow it: committed {committed}"
        );
        let victim = world.system.tier(1).members()[0];
        flow::crash_server(&mut world, &mut engine, victim);
        let after_crash = world.system.running_count(1) + world.system.booting_count(1);
        assert!(after_crash < committed);
        // Estimates were invalidated by the shape change, so the planner
        // is blind this tick — only the committed-capacity memory acts.
        produce(&bus, 2_000, sample("web-1", 0, 0.3, 10.0));
        produce(&bus, 2_000, sample("app-2", 1, 0.95, 5.0));
        produce(&bus, 2_000, sample("db-1", 2, 0.3, 10.0));
        mpc.on_tick(&mut world, &mut engine);
        assert!(
            world.system.running_count(1) + world.system.booting_count(1) >= committed,
            "lost capacity must be re-provisioned from the committed plan"
        );
    }

    /// Blind spot 3: estimates measured under one shape must not leak
    /// into the next (a scale event changes the throughput curve).
    #[test]
    fn estimates_reset_on_shape_change() {
        let (mut world, mut engine) = ThreeTierBuilder::new().build();
        let bus = new_metrics_bus();
        let mut mpc = ModelPredictive::new(Rc::clone(&bus), MpcConfig::default(), models());
        feed_all(&bus, 1_000, 0.5);
        mpc.on_tick(&mut world, &mut engine);
        assert!(!mpc.estimated_tiers().is_empty());
        // An operator-driven scale event changes the topology shape.
        flow::provision_server(&mut world, &mut engine, 1).unwrap();
        mpc.on_tick(&mut world, &mut engine);
        assert!(
            mpc.estimated_tiers().is_empty(),
            "estimates from the old shape must be dropped"
        );
    }
}
