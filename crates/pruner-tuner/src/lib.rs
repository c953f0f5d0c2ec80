//! The tensor-program tuning loop: search, measurement and model updates.
//!
//! This crate wires the Pruner stack into the round-based campaign the
//! paper evaluates (§2.1, §3.3): each round the [`Tuner`] picks the most
//! promising task, the task proposes a sample space — from the PSA-pruned
//! target space plus an ε share of the original space, or by pure
//! evolution for the Ansor baseline — the cost model ranks it, the top
//! candidates are measured on the simulated device, and the model is
//! updated (optionally through a Momentum Transfer Learning round,
//! [`Mtl`]).
//!
//! [`Measurer`] accounts simulated search time (compile + run + model +
//! PSA + training) so the "Search Time (s)" axes of Figures 8–10 and the
//! compile-time comparison of Table 3 can be regenerated without real
//! hardware; [`TuningCurve`] records the best-so-far trajectory and
//! implements the time-to-parity query those figures report.
//!
//! # Example
//!
//! ```no_run
//! use pruner_gpu::GpuSpec;
//! use pruner_ir::Workload;
//! use pruner_cost::ModelKind;
//! use pruner_tuner::{ModelSetup, Tuner, TunerConfig};
//!
//! let mut tuner = Tuner::new(
//!     GpuSpec::t4(),
//!     TunerConfig::default(),
//!     ModelSetup::Fresh(ModelKind::Pacm),
//! );
//! tuner.add_task(Workload::matmul(1, 512, 512, 512), 1);
//! let result = tuner.run();
//! println!("best: {:.3} ms", result.best_latency_s * 1e3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod checkpoint;
mod curve;
pub mod fleet;
mod measure;
mod mtl;
mod state;
mod supervisor;
mod task;
mod tuner;

pub use checkpoint::{Checkpoint, MeasurerCheckpoint, TaskCheckpoint};
pub use curve::{CurvePoint, TuningCurve};
pub use fleet::{
    Fleet, FleetConfig, FleetDeviceSummary, FleetResult, FleetRun, FleetStatus,
    FleetTransferReport, ForgettingDelta, TransferPair, FLEET_MANIFEST_VERSION,
};
pub use measure::{
    MeasureOutcome, Measurer, PipelineStage, RetryPolicy, SearchStats, TimeModel, WallTimings,
};
pub use mtl::{pretrain_pacm, Mtl};
pub use state::{CampaignPhase, CampaignStatus};
pub use supervisor::{
    CampaignFault, CampaignOutcome, SupervisedRun, Supervisor, SupervisorConfig, STOP_KILL,
    STOP_NONE, STOP_PARK,
};
pub use task::{FunnelCounts, ProposeParams, TaskTuner};
pub use tuner::{ModelSetup, Tuner, TunerConfig, TuningResult};
