//! Launch-queue and stream-occupancy analytics.
//!
//! Two signals engineers read off Kineto timelines when hunting
//! dispatch bottlenecks, computed here from any trace (profiled or
//! simulated):
//!
//! * **queue delay** — the gap between a `cudaLaunchKernel`'s end and
//!   its kernel's start. Near-zero delays mean the GPU is draining the
//!   stream as fast as the host can feed it (launch-bound execution);
//!   large delays mean kernels queue behind earlier GPU work
//!   (GPU-bound execution);
//! * **stream occupancy** — the busy fraction of each stream over the
//!   rank's active window, separating "one stream saturated" from
//!   "work spread thinly across streams".

use crate::event::EventKind;
use crate::interval::IntervalSet;
use crate::time::{Dur, Ts};
use crate::trace::RankTrace;
use serde::Serialize;
use std::collections::HashMap;

/// Order statistics of launch→start delays on one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct QueueDelayStats {
    /// Number of launch/kernel pairs measured.
    pub count: u64,
    /// Mean delay.
    pub mean: Dur,
    /// Median delay.
    pub p50: Dur,
    /// 99th-percentile delay.
    pub p99: Dur,
    /// Largest delay.
    pub max: Dur,
}

impl QueueDelayStats {
    /// Returns `true` when execution is launch-bound: the typical
    /// kernel starts within `threshold` of its launch, i.e. the GPU
    /// is waiting on the host rather than the reverse.
    pub fn is_launch_bound(&self, threshold: Dur) -> bool {
        self.p50 <= threshold
    }
}

/// Computes launch→kernel-start delay statistics for one rank.
///
/// Kernels whose launch cannot be found (foreign correlation ids) are
/// skipped. Returns `None` when no pair exists.
pub fn queue_delays(trace: &RankTrace) -> Option<QueueDelayStats> {
    // Correlation -> launch end.
    let mut launch_end: HashMap<u64, Ts> = HashMap::new();
    for e in trace.events() {
        if let EventKind::CudaRuntime {
            kind, correlation, ..
        } = e.kind
        {
            if kind.launches_work() && correlation != 0 {
                launch_end.insert(correlation, e.end());
            }
        }
    }
    let mut delays: Vec<Dur> = Vec::new();
    for e in trace.kernels() {
        let Some(corr) = e.kind.correlation() else {
            continue;
        };
        if let Some(&le) = launch_end.get(&corr) {
            delays.push(e.ts.saturating_since(le));
        }
    }
    if delays.is_empty() {
        return None;
    }
    delays.sort_unstable();
    let count = delays.len() as u64;
    let total: u128 = delays.iter().map(|d| d.as_ns() as u128).sum();
    let at = |q: f64| delays[((delays.len() - 1) as f64 * q).round() as usize];
    Some(QueueDelayStats {
        count,
        mean: Dur((total / count as u128) as u64),
        p50: at(0.50),
        p99: at(0.99),
        max: *delays.last().expect("non-empty"),
    })
}

/// Busy fraction of one stream over the rank's active window.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StreamOccupancy {
    /// Stream id.
    pub stream: u32,
    /// Total busy time (union of kernel spans).
    pub busy: Dur,
    /// Busy fraction of the rank's active window in `[0, 1]`.
    pub fraction: f64,
    /// Kernels executed.
    pub kernels: u64,
}

/// Computes per-stream occupancy for one rank, descending by busy
/// time. Returns an empty vector for kernel-less traces.
pub fn stream_occupancy(trace: &RankTrace) -> Vec<StreamOccupancy> {
    let mut per_stream: HashMap<u32, Vec<crate::time::TimeSpan>> = HashMap::new();
    let mut lo = Ts(u64::MAX);
    let mut hi = Ts(0);
    for e in trace.events() {
        lo = lo.min(e.ts);
        hi = hi.max(e.end());
        if let EventKind::Kernel { stream, .. } = e.kind {
            per_stream.entry(stream.0).or_default().push(e.span());
        }
    }
    if per_stream.is_empty() {
        return Vec::new();
    }
    let window = hi.saturating_since(lo).as_secs_f64().max(f64::MIN_POSITIVE);
    let mut v: Vec<StreamOccupancy> = per_stream
        .into_iter()
        .map(|(stream, spans)| {
            let kernels = spans.len() as u64;
            let busy = IntervalSet::from_spans(spans).total();
            StreamOccupancy {
                stream,
                busy,
                fraction: busy.as_secs_f64() / window,
                kernels,
            }
        })
        .collect();
    v.sort_by(|a, b| b.busy.cmp(&a.busy).then(a.stream.cmp(&b.stream)));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CudaRuntimeKind, TraceEvent};
    use crate::trace::{RankTrace, StreamId, ThreadId};

    fn trace_with_delays(delays_us: &[u64]) -> RankTrace {
        let tid = ThreadId(1);
        let mut r = RankTrace::new(0);
        for (i, &d) in delays_us.iter().enumerate() {
            let corr = i as u64 + 1;
            let t0 = Ts::from_us(i as u64 * 1_000);
            r.push(
                TraceEvent::cuda_runtime(CudaRuntimeKind::LaunchKernel, t0, Dur::from_us(4), tid)
                    .with_correlation(corr),
            );
            r.push(
                TraceEvent::kernel(
                    "k",
                    t0 + Dur::from_us(4 + d),
                    Dur::from_us(100),
                    StreamId(7),
                )
                .with_correlation(corr),
            );
        }
        r
    }

    #[test]
    fn delay_statistics_match_construction() {
        let stats = queue_delays(&trace_with_delays(&[2, 2, 2, 2, 50])).unwrap();
        assert_eq!(stats.count, 5);
        assert_eq!(stats.p50, Dur::from_us(2));
        assert_eq!(stats.max, Dur::from_us(50));
        assert_eq!(stats.p99, Dur::from_us(50));
        assert_eq!(stats.mean, Dur(11_600)); // (2+2+2+2+50)/5 = 11.6 us
        assert!(stats.is_launch_bound(Dur::from_us(5)));
        assert!(!stats.is_launch_bound(Dur::from_us(1)));
    }

    #[test]
    fn no_kernels_no_stats() {
        let mut r = RankTrace::new(0);
        r.push(TraceEvent::cpu_op("op", Ts(0), Dur(100), ThreadId(1)));
        assert!(queue_delays(&r).is_none());
        assert!(stream_occupancy(&r).is_empty());
    }

    #[test]
    fn occupancy_unions_overlapping_spans() {
        let tid = ThreadId(1);
        let mut r = RankTrace::new(0);
        // Two kernels on stream 7 back to back (100us + 100us over a
        // 1000us window via a trailing cpu op), one on stream 13.
        for (i, stream) in [(0u64, 7u32), (1, 7), (2, 13)] {
            let corr = i + 1;
            r.push(
                TraceEvent::cuda_runtime(
                    CudaRuntimeKind::LaunchKernel,
                    Ts::from_us(i * 10),
                    Dur::from_us(2),
                    tid,
                )
                .with_correlation(corr),
            );
            r.push(
                TraceEvent::kernel(
                    "k",
                    Ts::from_us(100 * i),
                    Dur::from_us(100),
                    StreamId(stream),
                )
                .with_correlation(corr),
            );
        }
        r.push(TraceEvent::cpu_op(
            "tail",
            Ts::from_us(990),
            Dur::from_us(10),
            tid,
        ));
        let occ = stream_occupancy(&r);
        assert_eq!(occ.len(), 2);
        assert_eq!(occ[0].stream, 7);
        assert_eq!(occ[0].busy, Dur::from_us(200));
        assert_eq!(occ[0].kernels, 2);
        assert!((occ[0].fraction - 0.2).abs() < 1e-9);
        assert_eq!(occ[1].stream, 13);
        assert_eq!(occ[1].kernels, 1);
    }

    #[test]
    fn queue_delay_zero_when_gpu_starved() {
        // Kernel starts exactly at launch end: zero delay.
        let stats = queue_delays(&trace_with_delays(&[0])).unwrap();
        assert_eq!(stats.p50, Dur::ZERO);
        assert_eq!(stats.max, Dur::ZERO);
    }
}
