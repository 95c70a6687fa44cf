//! Ground-truth cluster substrate: a multi-rank training-execution
//! engine that emits Kineto-style traces.
//!
//! The Lumos paper profiles real GPT-3 training on a production
//! cluster with up to 512 H100 GPUs. This crate replaces that cluster:
//! it lowers a model + 3D-parallelism deployment into per-rank host
//! programs (kernel launches, CUDA events, stream synchronization,
//! fwd/bwd thread handoffs) and executes them in a discrete-event
//! engine with faithful CUDA semantics — FIFO streams, event-fenced
//! inter-stream dependencies, cross-rank collective rendezvous, 1F1B
//! pipelining, and compute/communication overlap.
//!
//! The output is a [`lumos_trace::ClusterTrace`] indistinguishable in
//! structure from what PyTorch Kineto records, which the Lumos core
//! consumes without knowing it came from a simulator. A seeded
//! [`JitterModel`] supplies run-to-run variance so replay error can be
//! measured the way the paper measures it.
//!
//! The engine has two execution modes sharing one simulation:
//! full-trace ([`execute`], [`PreparedJob::execute`]) materializes
//! the Kineto-style trace, while metrics-only ([`execute_metrics`],
//! [`PreparedJob::execute_metrics`]) accumulates just the aggregates
//! ([`EngineMetrics`]: makespan, per-rank spans, per-stream busy
//! time, collective waits) without constructing a single trace event
//! — the mode the simulation-refined configuration search runs in.
//! [`PreparedJob`] resolves a lowered job's tuple-keyed lookups into
//! dense indices once, so repeated iterations (jitter replicas) share
//! one prepared form.
//!
//! # Example
//!
//! ```
//! use lumos_cluster::{GroundTruthCluster, JitterModel, SimConfig};
//! use lumos_cost::AnalyticalCostModel;
//! use lumos_model::{ModelConfig, Parallelism};
//!
//! let config = SimConfig::new(ModelConfig::tiny(), Parallelism::new(1, 2, 1)?);
//! let cluster = GroundTruthCluster::new(&config, AnalyticalCostModel::h100())?
//!     .with_jitter(JitterModel::realistic(42));
//! let profiled = cluster.profile_iteration(0)?;
//! assert_eq!(profiled.trace.world_size(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod exec;
mod inference;
mod jitter;
mod lower;
mod program;
mod run;
pub mod scenario;
mod sink;
mod verify;

pub use engine::{execute, execute_metrics, CycleStep, EngineError, EngineOutput};
pub use exec::PreparedJob;
pub use inference::lower_inference;
pub use jitter::JitterModel;
pub use lower::{lower, LoweredJob, SimConfig};
pub use program::{
    streams, threads, HostOp, KernelSpec, NameId, NameTable, Program, ThreadProgram,
};
pub use run::{profile, profile_inference, ClusterError, GroundTruthCluster, MeasuredStats};
pub use scenario::{FaultSpec, Realization, RunScenario};
pub use sink::{EngineMetrics, RankMetrics, StreamBusy};
pub use verify::{verify, GroupEntry, PortableJob, VerifyError, VerifyReport};
