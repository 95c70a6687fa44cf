//! Operator-level what-if studies (paper §5).
//!
//! "More importantly, it can offer invaluable insights for
//! optimization even before implementation by answering what-if
//! questions, such as how much the overall runtime would be reduced
//! if a kernel ran twice as fast, and identifying which optimization
//! would yield the greatest performance improvement."
//!
//! These transforms edit task durations on an already-built
//! [`ExecutionGraph`]; re-simulating the edited graph answers the
//! question.

use crate::error::CoreError;
use crate::graph::ExecutionGraph;
use crate::task::{Task, TaskKind};
use lumos_trace::{KernelClass, ScaleError};

/// Scales the duration of every task matched by `predicate` by
/// `factor` (0.5 = twice as fast). Returns the number of tasks
/// affected. The graph is left untouched on error.
///
/// # Errors
///
/// Returns [`CoreError::InvalidScale`] when `factor` is negative or
/// not finite.
pub fn try_scale_tasks(
    graph: &mut ExecutionGraph,
    factor: f64,
    predicate: impl Fn(&Task) -> bool,
) -> Result<usize, CoreError> {
    if !(factor >= 0.0 && factor.is_finite()) {
        return Err(CoreError::InvalidScale(ScaleError { factor }));
    }
    let mut affected = 0;
    for task in graph.tasks_mut() {
        if predicate(task) {
            task.duration = task.duration.scale(factor);
            affected += 1;
        }
    }
    Ok(affected)
}

/// Scales every GPU kernel whose class matches `matcher`.
///
/// # Errors
///
/// Returns [`CoreError::InvalidScale`] on invalid factors.
pub fn try_scale_kernel_class(
    graph: &mut ExecutionGraph,
    factor: f64,
    matcher: impl Fn(&KernelClass) -> bool,
) -> Result<usize, CoreError> {
    try_scale_tasks(
        graph,
        factor,
        |t| matches!(&t.kind, TaskKind::Kernel(c) if matcher(c)),
    )
}

/// Scales every GEMM kernel ("what if matmuls were 2× faster?").
///
/// # Errors
///
/// Returns [`CoreError::InvalidScale`] on invalid factors.
pub fn try_scale_gemms(graph: &mut ExecutionGraph, factor: f64) -> Result<usize, CoreError> {
    try_scale_kernel_class(graph, factor, |c| matches!(c, KernelClass::Gemm { .. }))
}

/// Scales every communication kernel ("what if the network were 2×
/// faster?").
///
/// # Errors
///
/// Returns [`CoreError::InvalidScale`] on invalid factors.
pub fn try_scale_comms(graph: &mut ExecutionGraph, factor: f64) -> Result<usize, CoreError> {
    try_scale_kernel_class(graph, factor, KernelClass::is_comm)
}

/// Scales every host-side task ("what if dispatch overhead halved?").
///
/// # Errors
///
/// Returns [`CoreError::InvalidScale`] on invalid factors.
pub fn try_scale_host(graph: &mut ExecutionGraph, factor: f64) -> Result<usize, CoreError> {
    try_scale_tasks(graph, factor, |t| {
        matches!(t.kind, TaskKind::CpuOp | TaskKind::Runtime(_))
    })
}

/// Returns `true` for kernel classes a pointwise fuser can absorb
/// (elementwise chains and the normalizations between them).
pub fn is_fusible(class: &KernelClass) -> bool {
    matches!(
        class,
        KernelClass::Elementwise { .. } | KernelClass::Norm { .. }
    )
}

/// Models a pointwise operator-fusion pass (the §5 example of a
/// change "not supported by the framework" that developers would
/// otherwise have to hack in): every maximal run of ≥ 2 consecutive
/// fusible kernels on a stream is treated as one fused kernel.
///
/// Each fused-away kernel boundary saves `per_kernel_overhead` of
/// device time (the fixed launch-to-finish floor of the absorbed
/// kernel) and the absorbed kernel's `cudaLaunchKernel` host time.
/// Durations never drop below 1 µs of residual streaming work.
///
/// Returns the number of kernel boundaries fused away.
pub fn fuse_pointwise(graph: &mut ExecutionGraph, per_kernel_overhead: lumos_trace::Dur) -> usize {
    use lumos_trace::Dur;
    const RESIDUAL: Dur = Dur(1_000);

    // Collect the edits first: graph access is by value while
    // iterating stream orders.
    let mut absorbed: Vec<crate::task::TaskId> = Vec::new();
    for proc in 0..graph.processors().len() as u32 {
        let kernels = graph.stream_kernels(proc);
        let mut run: Vec<crate::task::TaskId> = Vec::new();
        let flush = |run: &mut Vec<crate::task::TaskId>, absorbed: &mut Vec<_>| {
            if run.len() >= 2 {
                absorbed.extend(run.iter().skip(1).copied());
            }
            run.clear();
        };
        for &k in kernels {
            let fusible = matches!(&graph.task(k).kind, TaskKind::Kernel(c) if is_fusible(c));
            if fusible {
                run.push(k);
            } else {
                flush(&mut run, &mut absorbed);
            }
        }
        flush(&mut run, &mut absorbed);
    }

    for &k in &absorbed {
        let launch = graph.launch_of(k);
        {
            let t = &mut graph.tasks_mut()[k as usize];
            t.duration = t.duration.saturating_sub(per_kernel_overhead).max(RESIDUAL);
        }
        if let Some(l) = launch {
            graph.tasks_mut()[l as usize].duration = Dur::ZERO;
        }
    }
    absorbed.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Processor;
    use lumos_trace::{Dur, RankId, StreamId, ThreadId, Ts};

    fn graph_with_kernels() -> ExecutionGraph {
        let mut g = ExecutionGraph::new();
        let sp = g.processor_idx(Processor::Stream {
            rank: RankId(0),
            stream: StreamId(7),
        });
        let tp = g.processor_idx(Processor::Thread {
            rank: RankId(0),
            tid: ThreadId(1),
        });
        g.add_task(Task {
            name: "gemm".into(),
            kind: TaskKind::Kernel(KernelClass::Gemm { m: 8, n: 8, k: 8 }),
            processor: sp,
            duration: Dur(100),
            orig_start: Ts(0),
            correlation: 1,
        });
        g.add_task(Task {
            name: "nccl".into(),
            kind: TaskKind::Kernel(KernelClass::Collective(lumos_trace::CommMeta {
                kind: lumos_trace::CollectiveKind::AllReduce,
                group: 0,
                seq: 0,
                bytes: 8,
            })),
            processor: sp,
            duration: Dur(200),
            orig_start: Ts(0),
            correlation: 2,
        });
        g.add_task(Task {
            name: "op".into(),
            kind: TaskKind::CpuOp,
            processor: tp,
            duration: Dur(50),
            orig_start: Ts(0),
            correlation: 0,
        });
        g
    }

    #[test]
    fn scale_gemms_targets_gemms_only() {
        let mut g = graph_with_kernels();
        assert_eq!(try_scale_gemms(&mut g, 0.5).unwrap(), 1);
        assert_eq!(g.task(0).duration, Dur(50));
        assert_eq!(g.task(1).duration, Dur(200));
        assert_eq!(g.task(2).duration, Dur(50));
    }

    #[test]
    fn scale_comms_targets_collectives() {
        let mut g = graph_with_kernels();
        assert_eq!(try_scale_comms(&mut g, 2.0).unwrap(), 1);
        assert_eq!(g.task(1).duration, Dur(400));
    }

    #[test]
    fn scale_host_targets_cpu_tasks() {
        let mut g = graph_with_kernels();
        assert_eq!(try_scale_host(&mut g, 0.1).unwrap(), 1);
        assert_eq!(g.task(2).duration, Dur(5));
    }

    #[test]
    fn try_variants_reject_bad_factors_and_leave_graph_untouched() {
        let mut g = graph_with_kernels();
        for bad in [-0.5, f64::NAN, f64::INFINITY] {
            for result in [
                try_scale_gemms(&mut g, bad),
                try_scale_comms(&mut g, bad),
                try_scale_host(&mut g, bad),
                try_scale_tasks(&mut g, bad, |_| true),
            ] {
                assert!(matches!(result, Err(CoreError::InvalidScale(_))));
            }
        }
        // Nothing was scaled by the failed calls.
        assert_eq!(g.task(0).duration, Dur(100));
        assert_eq!(g.task(1).duration, Dur(200));
        assert_eq!(g.task(2).duration, Dur(50));
        // Valid factors still apply afterwards.
        assert_eq!(try_scale_gemms(&mut g, 0.5).unwrap(), 1);
        assert_eq!(g.task(0).duration, Dur(50));
        assert_eq!(try_scale_comms(&mut g, 2.0).unwrap(), 1);
        assert_eq!(g.task(1).duration, Dur(400));
        assert_eq!(try_scale_host(&mut g, 0.1).unwrap(), 1);
        assert_eq!(g.task(2).duration, Dur(5));
    }

    /// gemm, ew, ew, norm, gemm, ew on one stream: one fusible run of
    /// three (ew ew norm), so two boundaries fuse away.
    fn graph_with_pointwise_run() -> ExecutionGraph {
        let mut g = ExecutionGraph::new();
        let sp = g.processor_idx(Processor::Stream {
            rank: RankId(0),
            stream: StreamId(7),
        });
        let th = g.processor_idx(Processor::Thread {
            rank: RankId(0),
            tid: ThreadId(1),
        });
        let classes = [
            KernelClass::Gemm { m: 8, n: 8, k: 8 },
            KernelClass::Elementwise { elems: 100 },
            KernelClass::Elementwise { elems: 100 },
            KernelClass::Norm { elems: 100 },
            KernelClass::Gemm { m: 8, n: 8, k: 8 },
            KernelClass::Elementwise { elems: 100 },
        ];
        for (i, class) in classes.into_iter().enumerate() {
            let corr = i as u64 + 1;
            let launch = g.add_task(Task {
                name: "cudaLaunchKernel".into(),
                kind: TaskKind::Runtime(lumos_trace::CudaRuntimeKind::LaunchKernel),
                processor: th,
                duration: Dur(4_000),
                orig_start: Ts(i as u64 * 10_000),
                correlation: corr,
            });
            let kernel = g.add_task(Task {
                name: "k".into(),
                kind: TaskKind::Kernel(class),
                processor: sp,
                duration: Dur(10_000),
                orig_start: Ts(i as u64 * 10_000 + 5_000),
                correlation: corr,
            });
            g.register_kernel(kernel, launch);
        }
        g
    }

    #[test]
    fn fuse_pointwise_absorbs_runs_only() {
        let mut g = graph_with_pointwise_run();
        let fused = fuse_pointwise(&mut g, Dur(2_000));
        // Run of 3 -> 2 absorbed; the trailing single ew is not fused.
        assert_eq!(fused, 2);
    }

    #[test]
    fn fuse_pointwise_shrinks_absorbed_kernels_and_launches() {
        let mut g = graph_with_pointwise_run();
        let before: Dur = g.total_work();
        let fused = fuse_pointwise(&mut g, Dur(2_000));
        // Each absorbed kernel loses 2us, its launch loses 4us.
        let expect = Dur(fused as u64 * (2_000 + 4_000));
        assert_eq!(g.total_work(), before - expect);
    }

    #[test]
    fn fuse_pointwise_respects_residual_floor() {
        let mut g = graph_with_pointwise_run();
        fuse_pointwise(&mut g, Dur(1_000_000)); // absurd overhead
        for t in g.tasks() {
            if matches!(&t.kind, TaskKind::Kernel(c) if is_fusible(c)) {
                assert!(t.duration >= Dur(1_000));
            }
        }
    }

    #[test]
    fn fuse_pointwise_ignores_streams_without_runs() {
        let mut g = graph_with_kernels(); // gemm + nccl + cpu op
        assert_eq!(fuse_pointwise(&mut g, Dur(2_000)), 0);
    }
}
