//! Deterministic fault schedules: VM crashes, stragglers, and transient
//! per-request failures.
//!
//! The autoscaling literature treats fault tolerance as a first-class
//! dimension a controller must handle (VMs degrade and die under real cloud
//! conditions), but the paper's evaluation assumes every booted VM stays
//! healthy. This module provides the *schedule* half of a fault-injection
//! subsystem: a [`FaultPlan`] is an ordered list of [`FaultEvent`]s, either
//! written out explicitly or sampled from a seeded RNG via
//! [`FaultPlan::sampled`], so the same seed always produces the same
//! failure history regardless of how many worker jobs execute runs.
//!
//! The plan is deliberately world-agnostic: events name a tier index and a
//! *victim rank* rather than a concrete server id, because server ids only
//! exist once the simulated system is built. The interpretation layer
//! (`dcm_ntier::faults`) resolves ranks against live membership at fire
//! time, which keeps a single plan meaningful across controllers that grow
//! and shrink tiers differently.

use crate::rng::{derive_seed, SimRng};

/// What happens to the victim when a fault event fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The VM dies instantly: in-flight work on it fails, pools are torn
    /// down, and the balancer stops routing to it.
    Crash,
    /// The VM becomes a straggler: its CPU slows by `factor` for
    /// `duration_secs`, then recovers.
    Straggler {
        /// Service-time multiplier while degraded (e.g. 4.0 = 4× slower).
        factor: f64,
        /// How long the degradation lasts, in seconds.
        duration_secs: f64,
    },
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Simulated time at which the fault fires, in seconds.
    pub at_secs: f64,
    /// Tier whose member is targeted.
    pub tier: usize,
    /// Victim rank within the tier's healthy members at fire time
    /// (interpreted modulo the current member count, so a rank is always
    /// resolvable).
    pub victim: usize,
    /// The fault itself.
    pub kind: FaultKind,
}

/// Parameters for sampling a random fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// No fault fires before this time (lets the system warm up).
    pub start_secs: f64,
    /// No fault fires at or after this time.
    pub horizon_secs: f64,
    /// Mean crashes per hour across all targeted tiers.
    pub crash_rate_per_hour: f64,
    /// Mean straggler onsets per hour across all targeted tiers.
    pub straggler_rate_per_hour: f64,
    /// Slowdown factor applied to sampled stragglers.
    pub straggler_factor: f64,
    /// Degradation duration for sampled stragglers, in seconds.
    pub straggler_duration_secs: f64,
    /// Tiers eligible to be struck (victims drawn uniformly).
    pub tiers: Vec<usize>,
    /// Per-request transient failure probability carried on the plan.
    pub transient_failure_prob: f64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            start_secs: 60.0,
            horizon_secs: 600.0,
            crash_rate_per_hour: 6.0,
            straggler_rate_per_hour: 6.0,
            straggler_factor: 4.0,
            straggler_duration_secs: 60.0,
            tiers: vec![1, 2],
            transient_failure_prob: 0.0,
        }
    }
}

/// A deterministic schedule of faults plus a transient-failure rate.
///
/// # Examples
///
/// ```
/// use dcm_sim::faults::{FaultKind, FaultPlan};
///
/// let plan = FaultPlan::none()
///     .with_crash(120.0, 1, 0)
///     .with_straggler(200.0, 2, 0, 4.0, 60.0)
///     .with_transient_failures(0.001);
/// assert_eq!(plan.events.len(), 2);
/// assert!(matches!(plan.events[0].kind, FaultKind::Crash));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Scheduled faults, ordered by `at_secs`.
    pub events: Vec<FaultEvent>,
    /// Probability that any individual request admission fails
    /// transiently (0.0 disables the draw entirely, preserving the RNG
    /// stream of fault-free runs).
    pub transient_failure_prob: f64,
}

impl FaultPlan {
    /// An empty plan: no scheduled faults, no transient failures.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.transient_failure_prob == 0.0
    }

    /// Adds a crash of tier `tier`'s member at rank `victim` at `at_secs`.
    pub fn with_crash(mut self, at_secs: f64, tier: usize, victim: usize) -> Self {
        self.events.push(FaultEvent {
            at_secs,
            tier,
            victim,
            kind: FaultKind::Crash,
        });
        self.sort();
        self
    }

    /// Adds a straggler episode: the victim slows by `factor` at `at_secs`
    /// and recovers after `duration_secs`.
    pub fn with_straggler(
        mut self,
        at_secs: f64,
        tier: usize,
        victim: usize,
        factor: f64,
        duration_secs: f64,
    ) -> Self {
        self.events.push(FaultEvent {
            at_secs,
            tier,
            victim,
            kind: FaultKind::Straggler {
                factor,
                duration_secs,
            },
        });
        self.sort();
        self
    }

    /// Sets the transient per-request failure probability.
    pub fn with_transient_failures(mut self, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "probability must be in [0,1]");
        self.transient_failure_prob = prob;
        self
    }

    /// Samples a schedule from `spec` using a seed derived from `seed`.
    ///
    /// Crash and straggler onsets are independent Poisson processes
    /// (exponential interarrivals); victims are drawn uniformly over
    /// `spec.tiers`. The RNG is dedicated to the plan (derived stream), so
    /// sampling never perturbs the simulation's own random sequence, and
    /// the same `(seed, spec)` pair always yields the same plan.
    pub fn sampled(seed: u64, spec: &FaultSpec) -> Self {
        let mut rng = SimRng::seed_from(derive_seed(seed, 0xFA17));
        let mut events = Vec::new();
        let sample_process = |rng: &mut SimRng, rate_per_hour: f64, crash: bool| {
            if rate_per_hour <= 0.0 || spec.tiers.is_empty() {
                return Vec::new();
            }
            let rate_per_sec = rate_per_hour / 3600.0;
            let mut out = Vec::new();
            let mut t = spec.start_secs;
            loop {
                // Exponential interarrival; 1-u keeps the draw in (0,1].
                let u = rng.next_f64();
                t += -(1.0 - u).ln() / rate_per_sec;
                if t >= spec.horizon_secs {
                    break;
                }
                let tier_ix = (rng.next_f64() * spec.tiers.len() as f64) as usize;
                let tier = spec.tiers[tier_ix.min(spec.tiers.len() - 1)];
                let victim = (rng.next_f64() * 64.0) as usize;
                out.push(FaultEvent {
                    at_secs: t,
                    tier,
                    victim,
                    kind: if crash {
                        FaultKind::Crash
                    } else {
                        FaultKind::Straggler {
                            factor: spec.straggler_factor,
                            duration_secs: spec.straggler_duration_secs,
                        }
                    },
                });
            }
            out
        };
        events.extend(sample_process(&mut rng, spec.crash_rate_per_hour, true));
        events.extend(sample_process(
            &mut rng,
            spec.straggler_rate_per_hour,
            false,
        ));
        let mut plan = FaultPlan {
            events,
            transient_failure_prob: spec.transient_failure_prob,
        };
        plan.sort();
        plan
    }

    fn sort(&mut self) {
        // Stable order: by time, then tier, then victim. Ties keep the
        // crash-before-straggler insertion order stable via sort_by's
        // stability, making the plan reproducible byte-for-byte.
        self.events.sort_by(|a, b| {
            a.at_secs
                .total_cmp(&b.at_secs)
                .then(a.tier.cmp(&b.tier))
                .then(a.victim.cmp(&b.victim))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_plan_is_time_ordered() {
        let plan = FaultPlan::none()
            .with_straggler(300.0, 2, 1, 4.0, 30.0)
            .with_crash(100.0, 1, 0);
        assert_eq!(plan.events[0].at_secs, 100.0);
        assert_eq!(plan.events[1].at_secs, 300.0);
        assert!(!plan.is_empty());
    }

    #[test]
    fn sampled_plan_is_deterministic() {
        let spec = FaultSpec {
            crash_rate_per_hour: 60.0,
            straggler_rate_per_hour: 60.0,
            ..FaultSpec::default()
        };
        let a = FaultPlan::sampled(42, &spec);
        let b = FaultPlan::sampled(42, &spec);
        assert_eq!(a, b);
        assert!(
            !a.events.is_empty(),
            "rates this high should produce events"
        );
        let c = FaultPlan::sampled(43, &spec);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn sampled_events_respect_window_and_tiers() {
        let spec = FaultSpec {
            start_secs: 50.0,
            horizon_secs: 400.0,
            crash_rate_per_hour: 120.0,
            straggler_rate_per_hour: 120.0,
            tiers: vec![1],
            ..FaultSpec::default()
        };
        let plan = FaultPlan::sampled(7, &spec);
        for event in &plan.events {
            assert!(event.at_secs > 50.0 && event.at_secs < 400.0);
            assert_eq!(event.tier, 1);
        }
        // Ordered by time.
        for pair in plan.events.windows(2) {
            assert!(pair[0].at_secs <= pair[1].at_secs);
        }
    }

    #[test]
    fn zero_rates_sample_empty() {
        let spec = FaultSpec {
            crash_rate_per_hour: 0.0,
            straggler_rate_per_hour: 0.0,
            ..FaultSpec::default()
        };
        assert!(FaultPlan::sampled(1, &spec).events.is_empty());
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_invalid_transient_prob() {
        let _ = FaultPlan::none().with_transient_failures(1.5);
    }
}
