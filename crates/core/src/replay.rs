//! High-level replay API: trace in, simulated trace + metrics out.

use crate::build::{build_graph, BuildOptions};
use crate::error::CoreError;
use crate::graph::ExecutionGraph;
use crate::sim::{simulate, SimOptions, SimResult};
use lumos_trace::{Breakdown, BreakdownExt, ClusterTrace, Dur};

/// The Lumos toolkit façade: builds execution graphs from traces and
/// replays or predicts performance through simulation.
#[derive(Debug, Clone, Default)]
pub struct Lumos {
    /// Graph-construction options.
    pub build: BuildOptions,
    /// Simulation timing constants.
    pub sim: SimOptions,
}

impl Lumos {
    /// A toolkit with default options.
    pub fn new() -> Self {
        Lumos::default()
    }

    /// The dPRO baseline configuration: dataflow-recoverable fences
    /// only, and no synchronized execution of all-reduce collectives
    /// (see [`crate::sim::RendezvousMode::SendRecvOnly`]).
    pub fn dpro_baseline() -> Self {
        Lumos {
            build: BuildOptions::dpro_baseline(),
            sim: SimOptions {
                rendezvous: crate::sim::RendezvousMode::SendRecvOnly,
                ..SimOptions::default()
            },
        }
    }

    /// Builds the execution graph of a profiled trace (§3.3).
    ///
    /// # Errors
    ///
    /// Returns trace-validation and graph-consistency failures.
    pub fn build_graph(&self, trace: &ClusterTrace) -> Result<ExecutionGraph, CoreError> {
        build_graph(trace, &self.build)
    }

    /// Replays a profiled trace through simulation (§3.5), returning
    /// the graph, the schedule, and the simulated trace.
    ///
    /// # Errors
    ///
    /// Returns graph-construction or simulation failures.
    pub fn replay(&self, trace: &ClusterTrace) -> Result<Replayed, CoreError> {
        let graph = self.build_graph(trace)?;
        let result = simulate(&graph, &self.sim)?;
        let label = format!("replay of {}", trace.label);
        let simulated = result.to_trace(&graph, &label);
        Ok(Replayed {
            graph,
            result,
            trace: simulated,
        })
    }

    /// Replays a graph directly (used after manipulation).
    ///
    /// # Errors
    ///
    /// Returns simulation failures.
    pub fn replay_graph(&self, graph: ExecutionGraph, label: &str) -> Result<Replayed, CoreError> {
        let result = simulate(&graph, &self.sim)?;
        let simulated = result.to_trace(&graph, label);
        Ok(Replayed {
            graph,
            result,
            trace: simulated,
        })
    }
}

/// The dPRO baseline replayer (Hu et al., MLSys 2022).
///
/// dPRO builds a global dataflow graph from profiled traces and
/// replays it — but, as the Lumos paper demonstrates (§4.2), it does
/// not model the **event-based inter-stream dependencies**
/// (`cudaEventRecord`/`cudaStreamWaitEvent` fences) that serialize
/// compute and communication streams in modern LLM training. The
/// consequence, quoting the paper:
///
/// > "dPRO consistently overestimates overlapped execution and
/// > underestimates total iteration time, primarily due to its
/// > inability to accurately model inter-stream dependencies, leading
/// > to overly optimistic predictions of parallel execution."
///
/// This reproduces that baseline *faithfully but charitably*: it
/// shares Lumos's graph builder, simulator, launch/sync modeling, and
/// cross-rank collective rendezvous, differing **only** in the
/// [`Lumos::dpro_baseline`] options. Any accuracy gap between
/// [`Dpro::replay`] and Lumos is therefore attributable to exactly the
/// modeling difference the paper identifies.
///
/// # Example
///
/// ```
/// use lumos_core::Dpro;
/// use lumos_trace::{ClusterTrace, RankTrace, TraceEvent, Ts, Dur, ThreadId, StreamId, CudaRuntimeKind};
///
/// let mut rank0 = RankTrace::new(0);
/// rank0.push(TraceEvent::cpu_op("aten::mm", Ts(0), Dur(5_000), ThreadId(1)));
/// rank0.push(TraceEvent::cuda_runtime(CudaRuntimeKind::LaunchKernel, Ts(5_000), Dur(2_000), ThreadId(1)).with_correlation(1));
/// rank0.push(TraceEvent::kernel("gemm", Ts(9_000), Dur(100_000), StreamId(7)).with_correlation(1));
/// let mut trace = ClusterTrace::new("example");
/// trace.push_rank(rank0);
///
/// let replayed = Dpro::new().replay(&trace)?;
/// assert!(replayed.makespan() > Dur(100_000));
/// # Ok::<(), lumos_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Dpro {
    inner: Lumos,
}

impl Dpro {
    /// Creates the baseline with its published modeling behavior.
    pub fn new() -> Self {
        Dpro {
            inner: Lumos::dpro_baseline(),
        }
    }

    /// Replays a profiled trace with dPRO's dependency model.
    ///
    /// # Errors
    ///
    /// Returns graph-construction or simulation failures.
    pub fn replay(&self, trace: &ClusterTrace) -> Result<Replayed, CoreError> {
        self.inner.replay(trace)
    }

    /// The underlying toolkit configuration (for inspection).
    pub fn toolkit(&self) -> &Lumos {
        &self.inner
    }
}

impl Default for Dpro {
    fn default() -> Self {
        Dpro::new()
    }
}

/// A completed replay.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// The execution graph that was simulated.
    pub graph: ExecutionGraph,
    /// Per-task simulated times.
    pub result: SimResult,
    /// The simulated trace (same event vocabulary as the input).
    pub trace: ClusterTrace,
}

impl Replayed {
    /// Simulated end-to-end iteration time.
    pub fn makespan(&self) -> Dur {
        self.result.makespan()
    }

    /// Execution breakdown of the simulated trace (§4.2.2).
    pub fn breakdown(&self) -> Breakdown {
        self.trace.breakdown()
    }

    /// Relative replay error against a measured iteration time.
    pub fn error_vs(&self, actual: Dur) -> f64 {
        self.makespan().relative_error(actual)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_trace::{CudaRuntimeKind, RankTrace, StreamId, ThreadId, TraceEvent, Ts};

    fn small_trace() -> ClusterTrace {
        let t1 = ThreadId(1);
        let mut r = RankTrace::new(0);
        r.push(TraceEvent::cpu_op("op", Ts(0), Dur(5_000), t1));
        r.push(
            TraceEvent::cuda_runtime(CudaRuntimeKind::LaunchKernel, Ts(5_000), Dur(2_000), t1)
                .with_correlation(1),
        );
        r.push(TraceEvent::kernel("k", Ts(9_000), Dur(50_000), StreamId(7)).with_correlation(1));
        let mut c = ClusterTrace::new("small");
        c.push_rank(r);
        c
    }

    #[test]
    fn replay_small_trace() {
        let lumos = Lumos::new();
        let replayed = lumos.replay(&small_trace()).unwrap();
        // op(5us) + launch(2us) + gap(2us) + kernel(50us) = 59us.
        assert_eq!(replayed.makespan(), Dur(59_000));
        assert_eq!(replayed.trace.total_events(), 3);
        assert!(replayed.trace.label.contains("small"));
    }

    #[test]
    fn error_vs_actual() {
        let lumos = Lumos::new();
        let replayed = lumos.replay(&small_trace()).unwrap();
        let err = replayed.error_vs(Dur(59_000));
        assert_eq!(err, 0.0);
        assert!((replayed.error_vs(Dur(118_000)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dpro_baseline_differs_in_build_options() {
        let d = Lumos::dpro_baseline();
        assert_ne!(d.build.interstream, crate::build::InterStreamMode::Full);
        assert_eq!(
            Lumos::new().build.interstream,
            crate::build::InterStreamMode::Full
        );
    }
}
