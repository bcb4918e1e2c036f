//! # dcm-core — Dynamic Concurrency Management
//!
//! The paper's contribution, assembled from the substrate crates: a
//! two-level autoscaling framework for n-tier applications that scales
//! **hardware** (VMs per tier) and **soft resources** (thread pools, DB
//! connection pools) together.
//!
//! The architecture mirrors the paper's Fig. 3:
//!
//! * [`monitor`] — the Fine-Grained Resource Monitor: per-second server
//!   samples published to a Kafka-style broker ([`dcm_bus`]).
//! * [`aggregate`] — turning raw samples into per-tier control inputs.
//! * [`controller`] — the Optimization Controller ([`controller::Dcm`]) and
//!   the hardware-only baseline ([`controller::Ec2AutoScale`]); both share
//!   the quick-start/slow-stop threshold policy ([`policy`]).
//! * [`mpc`] — the model-predictive controller: exact-MVA planning over
//!   candidate topologies and pool sizes via [`dcm_oracle::planner`].
//! * [`zoo`] — league baselines: M/M/c-style staffing ([`zoo::ThresholdMmc`])
//!   and Holt-trend predictive staffing ([`zoo::HoltWinters`]).
//! * [`agents`] — the two actuators: VM-agent (boot/drain VMs) and
//!   APP-agent (runtime pool resizing).
//! * [`training`] — the offline §V-A pipeline that fits the
//!   concurrency-aware model from closed-loop sweeps (Table I).
//! * [`experiment`] — the §V-B harness: trace-driven runs producing every
//!   series of Fig. 5.
//!
//! ## Example: a miniature Fig. 5 run
//!
//! ```
//! use dcm_core::controller::Ec2AutoScale;
//! use dcm_core::experiment::{run_trace_experiment, TraceExperimentConfig};
//! use dcm_core::policy::ScalingConfig;
//! use dcm_sim::time::SimTime;
//! use dcm_workload::traces;
//!
//! let mut config = TraceExperimentConfig::figure5(traces::step(20, 150, 20.0));
//! config.horizon = SimTime::from_secs(60); // keep the doctest quick
//! let result = run_trace_experiment(&config, |bus| {
//!     Ec2AutoScale::new(bus, ScalingConfig::default())
//! });
//! assert_eq!(result.counters.in_flight(), 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod agents;
pub mod aggregate;
pub mod controller;
pub mod experiment;
pub mod monitor;
pub mod mpc;
pub mod policy;
pub mod predictor;
pub mod training;
pub mod zoo;

pub use agents::{Action, ActionRecord, AppAgent, VmAgent};
pub use aggregate::{aggregate_by_tier, TierWindow};
pub use controller::{Controller, Dcm, DcmConfig, DcmModels, Ec2AutoScale};
pub use experiment::{
    run_mesh_trace_experiment, run_trace_experiment, steady_state_throughput, MeshExperimentConfig,
    ObsArtifacts, ObsConfig, SteadyStateOptions, SteadyStateReport, TraceExperimentConfig,
    TraceRunResult,
};
pub use monitor::{install_monitor, new_metrics_bus, MetricsBus, MonitorConfig, METRICS_TOPIC};
pub use mpc::{ModelPredictive, MpcConfig};
pub use policy::{ScaleDecision, ScalingConfig, ThresholdPolicy};
pub use predictor::{HoltConfig, HoltTrend};
pub use training::{train_app_model, train_db_model, SweepOptions, SweepPoint, TrainingRun};
pub use zoo::{HoltWinters, StaffingConfig, ThresholdMmc};
