//! Burstiness injection (Mi et al., "Injecting realistic burstiness to a
//! traditional client-server benchmark", ICAC 2009 — the paper's reference \[23\],
//! motivating the bursty evaluation workload).
//!
//! A two-state Markov-modulated process toggles the client population
//! between a *normal* and a *burst* regime: in the burst state think times
//! shrink by the burst intensity, multiplying the offered load without
//! changing the number of users. The resulting arrival process has a
//! controllable **index of dispersion** `I` — `I ≈ 1` for Poisson-like
//! traffic, `I ≫ 1` for bursty production-like traffic.

use std::cell::Cell;
use std::rc::Rc;

use dcm_ntier::world::{SimEngine, World};
use dcm_sim::dist::{Dist, Sample};
use dcm_sim::time::{SimDuration, SimTime};

/// Two-state MMPP configuration.
///
/// # Examples
///
/// ```
/// use dcm_workload::burstiness::MmppConfig;
///
/// let config = MmppConfig::with_intensity(8.0);
/// assert_eq!(config.burst_intensity, 8.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmppConfig {
    /// Mean dwell time in the normal state (seconds).
    pub mean_normal_secs: f64,
    /// Mean dwell time in the burst state (seconds).
    pub mean_burst_secs: f64,
    /// Think-time divisor while bursting (≥ 1): intensity 8 makes users
    /// click 8× faster during a burst.
    pub burst_intensity: f64,
}

impl MmppConfig {
    /// A standard shape: long normal periods (60 s) punctuated by short
    /// (10 s) bursts of the given intensity.
    ///
    /// # Panics
    ///
    /// Panics if `intensity < 1`.
    pub fn with_intensity(intensity: f64) -> Self {
        assert!(intensity >= 1.0, "burst intensity must be >= 1");
        MmppConfig {
            mean_normal_secs: 60.0,
            mean_burst_secs: 10.0,
            burst_intensity: intensity,
        }
    }

    /// Long-run fraction of time spent bursting.
    pub fn burst_fraction(&self) -> f64 {
        self.mean_burst_secs / (self.mean_normal_secs + self.mean_burst_secs)
    }
}

/// A live modulator: exposes the current think-time multiplier (1.0 in the
/// normal state, `1/intensity` while bursting) through a shared cell the
/// generator reads on every think-time sample.
#[derive(Debug, Clone)]
pub struct MmppModulator {
    multiplier: Rc<Cell<f64>>,
    bursting: Rc<Cell<bool>>,
}

impl MmppModulator {
    /// Installs the modulation process on the engine; state flips are
    /// scheduled with exponential dwell times until `stop_at`.
    ///
    /// # Panics
    ///
    /// Panics if dwell times are non-positive or intensity < 1.
    pub fn install(engine: &mut SimEngine, config: MmppConfig, stop_at: SimTime) -> Self {
        assert!(
            config.mean_normal_secs > 0.0 && config.mean_burst_secs > 0.0,
            "dwell times must be positive"
        );
        assert!(
            config.burst_intensity >= 1.0,
            "burst intensity must be >= 1"
        );
        let modulator = MmppModulator {
            multiplier: Rc::new(Cell::new(1.0)),
            bursting: Rc::new(Cell::new(false)),
        };
        schedule_flip(engine, modulator.clone(), config, stop_at);
        modulator
    }

    /// The multiplier to apply to the next think-time sample.
    pub fn think_multiplier(&self) -> f64 {
        self.multiplier.get()
    }

    /// True while in the burst state.
    pub fn is_bursting(&self) -> bool {
        self.bursting.get()
    }

    /// A shared handle to the multiplier cell (what the generator holds).
    pub fn multiplier_cell(&self) -> Rc<Cell<f64>> {
        Rc::clone(&self.multiplier)
    }
}

fn schedule_flip(
    engine: &mut SimEngine,
    modulator: MmppModulator,
    config: MmppConfig,
    stop_at: SimTime,
) {
    let dwell_mean = if modulator.is_bursting() {
        config.mean_burst_secs
    } else {
        config.mean_normal_secs
    };
    let dist = Dist::exponential_mean(dwell_mean);
    engine.schedule_now(move |world: &mut World, engine: &mut SimEngine| {
        let dwell = dist.sample(&mut world.rng);
        let at = engine.now() + SimDuration::from_secs_f64(dwell);
        if at > stop_at {
            return;
        }
        engine.schedule_at(at, move |_world: &mut World, engine: &mut SimEngine| {
            let now_bursting = !modulator.is_bursting();
            modulator.bursting.set(now_bursting);
            modulator.multiplier.set(if now_bursting {
                1.0 / config.burst_intensity
            } else {
                1.0
            });
            schedule_flip(engine, modulator, config, stop_at);
        });
    });
}

/// Index of dispersion of an event sequence, estimated from counts in
/// fixed windows: `I = Var(counts)/Mean(counts)`. Poisson arrivals give
/// `I ≈ 1`; bursty traffic gives `I ≫ 1`.
///
/// Returns `None` with fewer than two windows or a zero mean.
///
/// # Examples
///
/// ```
/// use dcm_workload::burstiness::index_of_dispersion;
/// use dcm_sim::time::{SimDuration, SimTime};
///
/// // Perfectly regular arrivals: dispersion ~ 0.
/// let times: Vec<SimTime> = (0..100).map(SimTime::from_secs).collect();
/// let i = index_of_dispersion(&times, SimTime::ZERO, SimTime::from_secs(100),
///                             SimDuration::from_secs(10)).unwrap();
/// assert!(i < 0.2);
/// ```
pub fn index_of_dispersion(
    events: &[SimTime],
    start: SimTime,
    end: SimTime,
    window: SimDuration,
) -> Option<f64> {
    if window.is_zero() || end <= start {
        return None;
    }
    let w = window.as_secs_f64();
    let horizon = end.saturating_since(start).as_secs_f64();
    let n_windows = (horizon / w).floor() as usize;
    if n_windows < 2 {
        return None;
    }
    let mut counts = vec![0u64; n_windows];
    for &t in events.iter().filter(|&&t| t >= start && t < end) {
        let idx = ((t.saturating_since(start)).as_secs_f64() / w) as usize;
        if idx < n_windows {
            counts[idx] += 1;
        }
    }
    let n = counts.len() as f64;
    let mean = counts.iter().sum::<u64>() as f64 / n;
    if mean == 0.0 {
        return None;
    }
    let var = counts
        .iter()
        .map(|&c| (c as f64 - mean).powi(2))
        .sum::<f64>()
        / (n - 1.0);
    Some(var / mean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::UserPopulation;
    use crate::profile::ProfileFactory;
    use dcm_ntier::topology::ThreeTierBuilder;

    #[test]
    fn config_fraction() {
        let c = MmppConfig::with_intensity(8.0);
        assert!((c.burst_fraction() - 10.0 / 70.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "intensity must be >= 1")]
    fn rejects_sub_unit_intensity() {
        let _ = MmppConfig::with_intensity(0.5);
    }

    #[test]
    fn modulator_flips_states_over_time() {
        let (mut world, mut engine) = ThreeTierBuilder::new().seed(3).build();
        let config = MmppConfig {
            mean_normal_secs: 5.0,
            mean_burst_secs: 5.0,
            burst_intensity: 4.0,
        };
        let modulator = MmppModulator::install(&mut engine, config, SimTime::from_secs(200));
        let mut burst_seconds = 0u32;
        for s in 1..=200u64 {
            engine.run_until(&mut world, SimTime::from_secs(s));
            if modulator.is_bursting() {
                burst_seconds += 1;
                assert_eq!(modulator.think_multiplier(), 0.25);
            } else {
                assert_eq!(modulator.think_multiplier(), 1.0);
            }
        }
        // Symmetric dwell times: roughly half the time bursting.
        assert!(
            (40..=160).contains(&burst_seconds),
            "burst fraction implausible: {burst_seconds}/200"
        );
    }

    #[test]
    fn bursty_population_has_higher_dispersion() {
        let run = |mmpp: Option<MmppConfig>| {
            let (mut world, mut engine) = ThreeTierBuilder::new().seed(9).build();
            let stop = SimTime::from_secs(400);
            let modulator = mmpp.map(|config| MmppModulator::install(&mut engine, config, stop));
            let pop = UserPopulation::start_think_time_modulated(
                &mut world,
                &mut engine,
                ProfileFactory::rubbos(),
                60,
                3.0,
                modulator.as_ref().map(MmppModulator::multiplier_cell),
                stop,
            );
            engine.run(&mut world);
            let finishes: Vec<SimTime> = pop.completions().iter().map(|c| c.finished).collect();
            index_of_dispersion(
                &finishes,
                SimTime::from_secs(20),
                stop,
                SimDuration::from_secs(5),
            )
            .expect("enough windows")
        };
        let calm = run(None);
        let bursty = run(Some(MmppConfig {
            mean_normal_secs: 40.0,
            mean_burst_secs: 15.0,
            burst_intensity: 6.0,
        }));
        assert!(
            bursty > calm * 2.0,
            "dispersion should rise sharply: calm {calm:.2} vs bursty {bursty:.2}"
        );
    }

    #[test]
    fn dispersion_estimator_edge_cases() {
        assert_eq!(
            index_of_dispersion(
                &[],
                SimTime::ZERO,
                SimTime::from_secs(10),
                SimDuration::from_secs(1)
            ),
            None,
            "no events → zero mean → None"
        );
        assert_eq!(
            index_of_dispersion(
                &[SimTime::from_secs(1)],
                SimTime::ZERO,
                SimTime::from_secs(1),
                SimDuration::from_secs(1)
            ),
            None,
            "fewer than two windows"
        );
    }
}
