//! Summary statistics over traces: event counts, kernel time by name,
//! top bottleneck kernels.

use crate::event::EventKind;
use crate::time::Dur;
use crate::trace::RankTrace;
use serde::Serialize;
use std::collections::HashMap;
use std::sync::Arc;

/// Aggregate statistics for one kernel name.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize)]
pub struct KernelStats {
    /// Invocation count.
    pub count: u64,
    /// Total device time.
    pub total: Dur,
    /// Longest single invocation.
    pub max: Dur,
}

impl KernelStats {
    /// Mean duration per invocation.
    pub fn mean(&self) -> Dur {
        if self.count == 0 {
            Dur::ZERO
        } else {
            self.total / self.count
        }
    }

    fn record(&mut self, dur: Dur) {
        self.count += 1;
        self.total += dur;
        self.max = self.max.max(dur);
    }
}

/// Event-population statistics for one rank trace.
#[derive(Debug, Clone, Default, Serialize)]
pub struct TraceStats {
    /// Number of CPU operator events.
    pub cpu_ops: usize,
    /// Number of CUDA runtime events.
    pub runtime_calls: usize,
    /// Number of GPU kernel events.
    pub kernels: usize,
    /// Number of user annotations.
    pub annotations: usize,
    /// Total device time across compute kernels.
    pub compute_time: Dur,
    /// Total device time across communication kernels.
    pub comm_time: Dur,
    /// Per-kernel-name aggregates.
    pub by_kernel: HashMap<Arc<str>, KernelStats>,
}

impl TraceStats {
    /// Computes statistics for a rank trace.
    pub fn from_trace(trace: &RankTrace) -> Self {
        let mut stats = TraceStats::default();
        for e in trace.events() {
            match &e.kind {
                EventKind::CpuOp { .. } => stats.cpu_ops += 1,
                EventKind::CudaRuntime { .. } => stats.runtime_calls += 1,
                EventKind::UserAnnotation { .. } => stats.annotations += 1,
                EventKind::Kernel { .. } => {
                    stats.kernels += 1;
                    if e.is_comm_kernel() {
                        stats.comm_time += e.dur;
                    } else {
                        stats.compute_time += e.dur;
                    }
                    stats
                        .by_kernel
                        .entry(Arc::clone(&e.name))
                        .or_default()
                        .record(e.dur);
                }
            }
        }
        stats
    }

    /// Total number of events counted.
    pub fn total_events(&self) -> usize {
        self.cpu_ops + self.runtime_calls + self.kernels + self.annotations
    }

    /// The `k` kernel names with the largest total device time,
    /// descending — the paper's bottleneck-identification use case.
    pub fn top_kernels(&self, k: usize) -> Vec<(Arc<str>, KernelStats)> {
        let mut v: Vec<_> = self
            .by_kernel
            .iter()
            .map(|(n, s)| (Arc::clone(n), s.clone()))
            .collect();
        v.sort_by(|a, b| b.1.total.cmp(&a.1.total).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CollectiveKind, CommMeta, CudaRuntimeKind, KernelClass, TraceEvent};
    use crate::time::Ts;
    use crate::trace::{StreamId, ThreadId};

    #[test]
    fn counts_by_kind() {
        let mut t = RankTrace::new(0);
        t.push(TraceEvent::cpu_op("aten::mm", Ts(0), Dur(5), ThreadId(1)));
        t.push(TraceEvent::cuda_runtime(
            CudaRuntimeKind::LaunchKernel,
            Ts(5),
            Dur(1),
            ThreadId(1),
        ));
        t.push(TraceEvent::kernel("gemm", Ts(10), Dur(100), StreamId(7)));
        t.push(TraceEvent::annotation("fwd", Ts(0), Dur(200), ThreadId(1)));
        let s = TraceStats::from_trace(&t);
        assert_eq!(s.cpu_ops, 1);
        assert_eq!(s.runtime_calls, 1);
        assert_eq!(s.kernels, 1);
        assert_eq!(s.annotations, 1);
        assert_eq!(s.total_events(), 4);
        assert_eq!(s.compute_time, Dur(100));
        assert_eq!(s.comm_time, Dur::ZERO);
    }

    #[test]
    fn comm_time_separated() {
        let mut t = RankTrace::new(0);
        t.push(
            TraceEvent::kernel("nccl", Ts(0), Dur(40), StreamId(13)).with_class(
                KernelClass::Collective(CommMeta {
                    kind: CollectiveKind::AllReduce,
                    group: 0,
                    seq: 0,
                    bytes: 8,
                }),
            ),
        );
        t.push(TraceEvent::kernel("gemm", Ts(0), Dur(60), StreamId(7)));
        let s = TraceStats::from_trace(&t);
        assert_eq!(s.comm_time, Dur(40));
        assert_eq!(s.compute_time, Dur(60));
    }

    #[test]
    fn top_kernels_ranked_by_total() {
        let mut t = RankTrace::new(0);
        for i in 0..3 {
            t.push(TraceEvent::kernel("small", Ts(i * 10), Dur(5), StreamId(7)));
        }
        t.push(TraceEvent::kernel("big", Ts(100), Dur(100), StreamId(7)));
        let s = TraceStats::from_trace(&t);
        let top = s.top_kernels(2);
        assert_eq!(&*top[0].0, "big");
        assert_eq!(top[0].1.count, 1);
        assert_eq!(&*top[1].0, "small");
        assert_eq!(top[1].1.count, 3);
        assert_eq!(top[1].1.total, Dur(15));
        assert_eq!(top[1].1.mean(), Dur(5));
        assert_eq!(top[1].1.max, Dur(5));
    }

    #[test]
    fn empty_kernel_stats_mean_is_zero() {
        assert_eq!(KernelStats::default().mean(), Dur::ZERO);
    }
}
