//! The reproduction experiments, one module per paper artefact.
//!
//! Every experiment returns a structured result with a `table()` renderer
//! and a `findings()` self-check that verifies the paper's qualitative
//! claims against the measured data (these are the assertions
//! EXPERIMENTS.md reports).

pub mod ablation;
pub mod chaos;
pub mod fig2;
pub mod fig4;
pub mod fig5;
pub mod fleet;
pub mod gamma;
pub mod hunt;
pub mod league;
pub mod mesh;
pub mod queuebench;
pub mod table1;
pub mod trace_export;
pub mod validate;

use dcm_sim::time::SimDuration;

/// Experiment size: `Quick` for smoke tests and CI, `Full` for the
/// numbers reported in EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Short windows, coarse sweeps.
    Quick,
    /// Paper-scale runs.
    Full,
}

impl Fidelity {
    /// Warm-up period for steady-state measurements.
    pub fn warmup(self) -> SimDuration {
        match self {
            Fidelity::Quick => SimDuration::from_secs(5),
            Fidelity::Full => SimDuration::from_secs(20),
        }
    }

    /// Measurement window for steady-state measurements.
    pub fn measure(self) -> SimDuration {
        match self {
            Fidelity::Quick => SimDuration::from_secs(20),
            Fidelity::Full => SimDuration::from_secs(60),
        }
    }
}
