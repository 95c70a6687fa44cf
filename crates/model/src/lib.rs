//! Model, parallelism, and schedule descriptions for Lumos.
//!
//! This crate captures everything the toolkit needs to know about
//! *what* is being trained and *how* it is deployed:
//!
//! * [`ModelConfig`] — GPT-3 transformer architectures (the paper's
//!   Table 1 presets and Table 2 variants), with parameter and FLOP
//!   accounting;
//! * [`Parallelism`] — 3D (tensor × pipeline × data) parallelism,
//!   Megatron-style rank coordinates and communicator groups;
//! * [`BatchConfig`] — sequence length, micro-batch size and count;
//! * [`ops`] — the logical operator IR for one transformer layer under
//!   tensor parallelism (forward and backward), embedding/head ops,
//!   and the optimizer step;
//! * [`PipelineSchedule`] — pipeline-schedule generation with
//!   validation and bubble analytics for the [`ScheduleKind`]
//!   policies: 1F1B (Narayanan et al., 2021), GPipe, and the
//!   zero-bubble ZB-H1 variant;
//! * [`memory`] — per-rank GPU memory estimation (weights, gradients,
//!   optimizer state, in-flight activations) with OOM checking, the
//!   feasibility gate the paper's §5 limitations call for;
//! * [`spec`] — the TOML-subset reader behind search-space and
//!   fault-scenario files.
//!
//! # Example
//!
//! ```
//! use lumos_model::{ModelConfig, Parallelism, PipelineSchedule, ScheduleKind};
//!
//! let model = ModelConfig::gpt3_15b();
//! let par = Parallelism::new(2, 2, 4)?;
//! assert_eq!(par.world_size(), 16);
//! let schedule = PipelineSchedule::generate(ScheduleKind::OneFOneB, par.pp, 8)?;
//! assert_eq!(schedule.stage(0).unwrap().len(), 16); // 8 fwd + 8 bwd
//! assert!(model.num_params() > 14_000_000_000);
//! # Ok::<(), lumos_model::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod error;
pub mod flops;
mod gpt3;
pub mod inference;
pub mod memory;
pub mod ops;
mod parallel;
pub mod recovery;
mod schedule;
mod setup;
pub mod spec;
pub mod stagecost;

pub use batch::BatchConfig;
pub use error::ModelError;
pub use flops::{iteration_flops, utilization, IterationFlops, Utilization};
pub use gpt3::ModelConfig;
pub use inference::InferenceSetup;
pub use memory::{MemoryEstimate, MemoryModel, OomError, OptimizerPlacement, Recompute};
pub use parallel::{CommScope, GroupRegistry, Parallelism, RankCoords, ScopeClass};
pub use recovery::RecoveryCosts;
pub use schedule::{PipelineSchedule, ScheduleAdjustment, ScheduleItem, ScheduleKind};
pub use setup::TrainingSetup;
pub use stagecost::{StageCostKey, StageWork};
