//! Lumos core: trace-driven performance modeling and estimation for
//! large-scale LLM training (MLSys 2025 reproduction).
//!
//! The pipeline mirrors the paper's workflow (Figure 2):
//!
//! 1. **Graph construction** ([`build_graph`]) — parse a Kineto-style
//!    [`lumos_trace::ClusterTrace`] into a task-level
//!    [`ExecutionGraph`] with the four dependency classes of §3.3.2
//!    (intra/inter-thread, kernel launch, intra-stream, event-based
//!    inter-stream) plus cross-rank collective instances;
//! 2. **Simulation** ([`simulate`], Algorithm 1) — replay the graph
//!    deterministically, resolving blocking synchronizations through
//!    *runtime* dependencies and coupling ranks through collective
//!    rendezvous;
//! 3. **Graph manipulation** ([`manipulate`]) — generate new graphs
//!    for what-if configurations: data-parallel scaling, pipeline
//!    re-staging, layer-count and hidden-size changes, and
//!    kernel-speedup studies (§3.4). A prediction reassembles the
//!    recorded blocks straight into the execution graph
//!    ([`Lumos::predict_spec`]); no trace is built on the way;
//! 4. **Analysis** ([`analysis`]) — critical paths, bottleneck
//!    kernels, and overlap reports on replayed schedules.
//!
//! The [`Lumos`] façade ties these together; [`Dpro`] is the same
//! pipeline configured as the paper's dPRO baseline. A [`Replayed`]
//! holds the graph and its simulated schedule: makespan, breakdown and
//! pipeline-communication time are read from those two, and the
//! simulated trace is materialized only on request
//! ([`Replayed::trace`]).
//!
//! # Example
//!
//! ```
//! use lumos_core::Lumos;
//! use lumos_trace::{ClusterTrace, RankTrace, TraceEvent, Ts, Dur, ThreadId, StreamId, CudaRuntimeKind};
//!
//! // A profiled trace (normally produced by PyTorch Kineto or the
//! // lumos-cluster ground-truth engine).
//! let mut rank0 = RankTrace::new(0);
//! rank0.push(TraceEvent::cpu_op("aten::mm", Ts(0), Dur(5_000), ThreadId(1)));
//! rank0.push(TraceEvent::cuda_runtime(CudaRuntimeKind::LaunchKernel, Ts(5_000), Dur(2_000), ThreadId(1)).with_correlation(1));
//! rank0.push(TraceEvent::kernel("gemm", Ts(9_000), Dur(100_000), StreamId(7)).with_correlation(1));
//! let mut trace = ClusterTrace::new("example");
//! trace.push_rank(rank0);
//!
//! let replayed = Lumos::new().replay(&trace)?;
//! assert!(replayed.makespan() > Dur(100_000));
//! # Ok::<(), lumos_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// The reference simulator shared with the root tests names this crate.
#[cfg(test)]
extern crate self as lumos_core;

pub mod analysis;
mod build;
mod error;
mod graph;
pub mod manipulate;
mod replay;
mod segment;
mod sim;
mod task;

pub use build::{build_graph, BuildOptions, InterStreamMode};
pub use error::CoreError;
pub use graph::{Edge, ExecutionGraph, GraphStats};
pub use replay::{Dpro, Lumos, Replayed};
pub use segment::{merge, parse_annotation, tag_host_events};
#[doc(hidden)]
pub use sim::quotient_classes;
pub use sim::{simulate, RendezvousMode, SimOptions, SimResult};
pub use task::{DepKind, Phase, ProcIdx, Processor, SegmentTag, Task, TaskId, TaskKind};
