//! # dcm-sim — deterministic discrete-event simulation substrate
//!
//! The foundation the DCM reproduction runs on: a virtual clock and event
//! queue with one-shot events and re-armable timers ([`engine::Engine`]),
//! reproducible random number generation ([`rng`]), random variate
//! distributions ([`dist`]), and online statistics ([`stats`]).
//!
//! Determinism is the design constraint that shapes everything here: given
//! the same seed and schedule, a simulation run is bit-for-bit identical
//! across machines, which lets the experiment harness assert on *shapes* of
//! results rather than flaky absolute values.
//!
//! ## Example: an M/M/1 queue in a few lines
//!
//! ```
//! use dcm_sim::engine::Engine;
//! use dcm_sim::dist::{Dist, Sample};
//! use dcm_sim::rng::SimRng;
//! use dcm_sim::time::{SimDuration, SimTime};
//!
//! struct World {
//!     rng: SimRng,
//!     arrivals: Dist,
//!     service: Dist,
//!     queue: u32,
//!     served: u32,
//! }
//!
//! fn arrive(w: &mut World, e: &mut Engine<World>) {
//!     w.queue += 1;
//!     if w.queue == 1 {
//!         let s = w.service.sample(&mut w.rng);
//!         e.schedule_in(SimDuration::from_secs_f64(s), depart);
//!     }
//!     let next = w.arrivals.sample(&mut w.rng);
//!     e.schedule_in(SimDuration::from_secs_f64(next), arrive);
//! }
//!
//! fn depart(w: &mut World, e: &mut Engine<World>) {
//!     w.queue -= 1;
//!     w.served += 1;
//!     if w.queue > 0 {
//!         let s = w.service.sample(&mut w.rng);
//!         e.schedule_in(SimDuration::from_secs_f64(s), depart);
//!     }
//! }
//!
//! let mut world = World {
//!     rng: SimRng::seed_from(1),
//!     arrivals: Dist::exponential(10.0),
//!     service: Dist::exponential(20.0),
//!     queue: 0,
//!     served: 0,
//! };
//! let mut engine = Engine::new();
//! engine.schedule_at(SimTime::ZERO, arrive);
//! engine.run_until(&mut world, SimTime::from_secs(100));
//! // ~10 arrivals/sec for 100 s, utilization 0.5
//! assert!(world.served > 800 && world.served < 1200);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dist;
pub mod engine;
pub mod faults;
pub mod heap;
pub mod rng;
pub mod runner;
pub mod stats;
pub mod time;

pub use dist::{Dist, Sample};
pub use engine::{Engine, EventId, TimerId};
pub use faults::{FaultEvent, FaultKind, FaultPlan, FaultSpec};
pub use rng::{derive_seed, SimRng};
pub use runner::{run_ordered, set_jobs};
pub use time::{SimDuration, SimTime};
