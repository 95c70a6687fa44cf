//! High-level replay API: trace or graph in, simulated schedule and
//! metrics out. Metrics come straight from the graph and the schedule;
//! the simulated trace is built only when asked for
//! ([`Replayed::trace`]).

use crate::build::{build_graph, BuildOptions, InterStreamMode};
use crate::error::CoreError;
use crate::graph::ExecutionGraph;
use crate::sim::{simulate, SimOptions, SimResult};
use crate::task::{Processor, Task, TaskKind};
use lumos_trace::{Breakdown, ClusterTrace, CollectiveKind, Dur, KernelClass, RankId, TimeSpan};

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

    /// The dPRO baseline (Hu et al., MLSys 2022): dataflow-recoverable
    /// fences only, and no synchronized execution of all-reduce
    /// collectives (see [`crate::sim::RendezvousMode::SendRecvOnly`]).
    ///
    /// dPRO builds a global dataflow graph from profiled traces and
    /// replays it — but, as the Lumos paper demonstrates (§4.2), it
    /// does not model the **event-based inter-stream dependencies**
    /// (`cudaEventRecord`/`cudaStreamWaitEvent` fences) that serialize
    /// compute and communication streams in modern LLM training. The
    /// consequence, quoting the paper:
    ///
    /// > "dPRO consistently overestimates overlapped execution and
    /// > underestimates total iteration time, primarily due to its
    /// > inability to accurately model inter-stream dependencies,
    /// > leading to overly optimistic predictions of parallel
    /// > execution."
    ///
    /// This reproduces that baseline *faithfully but charitably*: it
    /// shares Lumos's graph builder, simulator, launch/sync modeling,
    /// and cross-rank collective rendezvous, differing **only** in
    /// these options. Any accuracy gap between this toolkit's replay
    /// and [`Lumos::new`]'s is therefore attributable to exactly the
    /// modeling difference the paper identifies.
    pub fn dpro_baseline() -> Self {
        Lumos {
            build: BuildOptions {
                interstream: InterStreamMode::DataflowOnly,
            },
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
    /// the graph and the schedule.
    ///
    /// # Errors
    ///
    /// Returns graph-construction or simulation failures.
    pub fn replay(&self, trace: &ClusterTrace) -> Result<Replayed, CoreError> {
        let graph = self.build_graph(trace)?;
        self.replay_graph(graph, &format!("replay of {}", trace.label))
    }

    /// Replays a graph directly (used after manipulation); `label`
    /// names the simulated trace if one is built.
    ///
    /// # Errors
    ///
    /// Returns simulation failures.
    pub fn replay_graph(&self, graph: ExecutionGraph, label: &str) -> Result<Replayed, CoreError> {
        let result = simulate(&graph, &self.sim)?;
        Ok(Replayed {
            graph,
            result,
            label: label.to_string(),
        })
    }
}

/// A completed replay.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// The execution graph that was simulated.
    pub graph: ExecutionGraph,
    /// Per-task simulated times.
    pub result: SimResult,
    /// The label of the simulated trace ([`Replayed::trace`]).
    pub label: String,
}

impl Replayed {
    /// Simulated end-to-end iteration time.
    pub fn makespan(&self) -> Dur {
        self.result.makespan()
    }

    /// The simulated trace (same event vocabulary as the input),
    /// materialized on each call.
    pub fn trace(&self) -> ClusterTrace {
        self.result.to_trace(&self.graph, &self.label)
    }

    /// Execution breakdown of the simulated schedule (§4.2.2), read
    /// from the graph and the schedule: each rank's kernels within the
    /// whole run's span, averaged over the ranks that ran any task.
    /// Equals [`lumos_trace::BreakdownExt::breakdown`] of
    /// [`Replayed::trace`].
    pub fn breakdown(&self) -> Breakdown {
        let (starts, ends) = (&self.result.starts, &self.result.ends);
        let (Some(&first), Some(&last)) = (starts.iter().min(), ends.iter().max()) else {
            return Breakdown::default();
        };
        let window = TimeSpan::new(first, last);
        // Per rank: its kernels as (busy span, is communication).
        let ranks = self.per_rank(|kernels: &mut Vec<(TimeSpan, bool)>, i, task| {
            if let TaskKind::Kernel(class) = task.kind {
                kernels.push((TimeSpan::new(starts[i], ends[i]), class.is_comm()));
            }
        });
        Breakdown::mean(
            ranks
                .into_iter()
                .map(|kernels| Breakdown::from_kernel_spans(kernels, window)),
        )
    }

    /// Mean per-rank time spent in pipeline-boundary SendRecv kernels,
    /// in seconds, over the ranks that ran any task — the replay twin
    /// of `lumos_cluster::EngineMetrics::pipeline_comm_secs_per_rank`,
    /// which schedule adjustments add to a skeleton's makespan.
    pub fn pipeline_comm_secs_per_rank(&self) -> f64 {
        let ranks = self.per_rank(|ns: &mut u128, i, task| {
            if matches!(
                task.kind,
                TaskKind::Kernel(KernelClass::Collective(meta)) if meta.kind == CollectiveKind::SendRecv
            ) {
                *ns += (self.result.ends[i] - self.result.starts[i]).as_ns() as u128;
            }
        });
        let total_ns: u128 = ranks.iter().sum();
        total_ns as f64 / 1e9 / ranks.len().max(1) as f64
    }

    /// Folds every task (with its id) into an accumulator of its rank;
    /// returns the accumulators of the ranks that ran any task, in
    /// rank order — the ranks [`Replayed::trace`] would contain.
    fn per_rank<T: Default>(&self, mut visit: impl FnMut(&mut T, usize, &Task)) -> Vec<T> {
        let procs = self.graph.processors();
        let mut ranks: Vec<RankId> = procs.iter().map(Processor::rank).collect();
        ranks.sort_unstable();
        ranks.dedup();
        let slot: Vec<usize> = procs
            .iter()
            .map(|p| ranks.binary_search(&p.rank()).expect("rank listed"))
            .collect();
        let mut acc: Vec<Option<T>> = ranks.iter().map(|_| None).collect();
        for (i, task) in self.graph.tasks().iter().enumerate() {
            let rank = acc[slot[task.processor as usize]].get_or_insert_with(T::default);
            visit(rank, i, task);
        }
        acc.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_trace::{
        BreakdownExt, CudaRuntimeKind, RankTrace, StreamId, ThreadId, TraceEvent, Ts,
    };

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
        assert_eq!(replayed.trace().total_events(), 3);
        assert!(replayed.trace().label.contains("small"));
    }

    /// Launches `kernel` from thread 1 at `launch_ts` under `corr`.
    fn launched(r: &mut RankTrace, launch_ts: u64, corr: u64, kernel: TraceEvent) {
        r.push(
            TraceEvent::cuda_runtime(
                CudaRuntimeKind::LaunchKernel,
                Ts(launch_ts),
                Dur(2_000),
                ThreadId(1),
            )
            .with_correlation(corr),
        );
        r.push(kernel.with_correlation(corr));
    }

    fn send_recv(name: &str, seq: u32, ts: u64, dur: u64) -> TraceEvent {
        TraceEvent::kernel(name, Ts(ts), Dur(dur), StreamId(21)).with_class(
            KernelClass::Collective(lumos_trace::CommMeta {
                kind: CollectiveKind::SendRecv,
                group: 3,
                seq,
                bytes: 64,
            }),
        )
    }

    /// The graph-derived metrics equal the ones read off the simulated
    /// trace, bit for bit.
    fn assert_metrics_match_trace(replayed: &Replayed) {
        let trace = replayed.trace();
        assert_eq!(replayed.breakdown(), trace.breakdown());
        let send_recv_ns: u128 = trace
            .ranks()
            .iter()
            .flat_map(|r| r.kernels())
            .filter(|e| {
                matches!(
                    e.kind,
                    lumos_trace::EventKind::Kernel {
                        class: KernelClass::Collective(meta),
                        ..
                    } if meta.kind == CollectiveKind::SendRecv
                )
            })
            .map(|e| e.dur.as_ns() as u128)
            .sum();
        let expected = send_recv_ns as f64 / 1e9 / trace.world_size().max(1) as f64;
        assert_eq!(
            replayed.pipeline_comm_secs_per_rank().to_bits(),
            expected.to_bits()
        );
    }

    #[test]
    fn metrics_of_a_single_rank_match_its_trace() {
        let replayed = Lumos::new().replay(&small_trace()).unwrap();
        assert_metrics_match_trace(&replayed);
        assert_eq!(replayed.breakdown().exposed_compute, Dur(50_000));
        assert_eq!(replayed.pipeline_comm_secs_per_rank(), 0.0);
    }

    #[test]
    fn metrics_count_a_rank_with_host_tasks_but_no_kernels() {
        let mut busy = RankTrace::new(0);
        busy.push(TraceEvent::cpu_op("op", Ts(0), Dur(5_000), ThreadId(1)));
        launched(
            &mut busy,
            5_000,
            1,
            TraceEvent::kernel("gemm", Ts(9_000), Dur(40_000), StreamId(7)),
        );
        launched(
            &mut busy,
            7_000,
            2,
            send_recv("sendrecv", 0, 50_000, 10_000),
        );
        let mut host_only = RankTrace::new(1);
        host_only.push(TraceEvent::cpu_op("op", Ts(0), Dur(20_000), ThreadId(1)));
        let mut trace = ClusterTrace::new("mixed");
        trace.push_rank(busy);
        trace.push_rank(host_only);
        let replayed = Lumos::new().replay(&trace).unwrap();
        assert_metrics_match_trace(&replayed);
        // The host-only rank counts in the mean (all of its window is
        // "other"), halving the per-rank SendRecv time.
        let b = replayed.breakdown();
        assert_eq!(b.total(), replayed.makespan());
        assert!(b.other > replayed.makespan() / 2);
        assert_eq!(replayed.pipeline_comm_secs_per_rank(), 10e-6 / 2.0);
    }

    #[test]
    fn metrics_with_zero_length_kernels_match_the_trace() {
        let mut r = RankTrace::new(0);
        r.push(TraceEvent::cpu_op("op", Ts(0), Dur(5_000), ThreadId(1)));
        launched(
            &mut r,
            5_000,
            1,
            TraceEvent::kernel("empty", Ts(9_000), Dur(0), StreamId(7)),
        );
        launched(
            &mut r,
            7_000,
            2,
            TraceEvent::kernel("gemm", Ts(11_000), Dur(30_000), StreamId(7)),
        );
        launched(&mut r, 9_000, 3, send_recv("sendrecv_empty", 0, 11_000, 0));
        launched(&mut r, 11_000, 4, send_recv("sendrecv", 1, 13_000, 8_000));
        let mut trace = ClusterTrace::new("zero");
        trace.push_rank(r);
        let replayed = Lumos::new().replay(&trace).unwrap();
        assert_metrics_match_trace(&replayed);
        assert_eq!(replayed.pipeline_comm_secs_per_rank(), 8e-6);
    }

    #[test]
    fn metrics_of_an_empty_replay_are_zero() {
        let replayed = Lumos::new().replay(&ClusterTrace::new("empty")).unwrap();
        assert_eq!(replayed.breakdown(), Breakdown::default());
        assert_eq!(replayed.pipeline_comm_secs_per_rank(), 0.0);
        assert_metrics_match_trace(&replayed);
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
