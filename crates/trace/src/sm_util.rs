//! SM-utilization timelines (paper §4.2.3, Figure 6).
//!
//! The paper defines utilization as "the fraction of time, over 1 ms
//! intervals, during which at least one CUDA stream is actively
//! executing tasks", derived from kernel activity in profiled or
//! simulated traces.

use crate::event::TraceEvent;
use crate::interval::IntervalSet;
use crate::time::{Dur, TimeSpan, Ts};
use crate::trace::RankTrace;
use serde::Serialize;

/// A binned SM-utilization timeline for one rank.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SmUtilization {
    /// Bin width.
    pub bin: Dur,
    /// Start of the first bin.
    pub origin: Ts,
    /// Utilization in `[0, 1]` per bin.
    pub values: Vec<f64>,
}

impl SmUtilization {
    /// Number of bins.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` when there are no bins.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Mean utilization across bins (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Mean absolute error against a reference timeline, comparing the
    /// overlapping prefix of bins and penalizing length mismatch by
    /// treating missing bins as zero.
    pub fn mae(&self, reference: &SmUtilization) -> f64 {
        let n = self.values.len().max(reference.values.len());
        if n == 0 {
            return 0.0;
        }
        let mut sum = 0.0;
        for i in 0..n {
            let a = self.values.get(i).copied().unwrap_or(0.0);
            let b = reference.values.get(i).copied().unwrap_or(0.0);
            sum += (a - b).abs();
        }
        sum / n as f64
    }
}

/// Computes the binned SM-utilization timeline of a rank trace.
///
/// `bin` is the bin width (the paper uses 1 ms). The timeline covers
/// the trace's own span, starting at its first event.
pub fn sm_utilization(trace: &RankTrace, bin: Dur) -> SmUtilization {
    assert!(!bin.is_zero(), "bin width must be positive");
    let Some(span) = trace.span() else {
        return SmUtilization {
            bin,
            origin: Ts::ZERO,
            values: Vec::new(),
        };
    };
    sm_utilization_within(trace.kernels(), bin, span)
}

/// Computes the binned utilization of GPU events within an explicit
/// window (used to align simulated and actual timelines).
pub fn sm_utilization_within<'a>(
    events: impl IntoIterator<Item = &'a TraceEvent>,
    bin: Dur,
    window: TimeSpan,
) -> SmUtilization {
    assert!(!bin.is_zero(), "bin width must be positive");
    let busy: IntervalSet = events
        .into_iter()
        .filter(|e| e.is_gpu())
        .filter_map(|e| e.span().intersect(&window))
        .collect();

    let total = window.duration().as_ns();
    let nbins = total.div_ceil(bin.as_ns()) as usize;
    let mut values = Vec::with_capacity(nbins);
    for i in 0..nbins {
        let b_start = window.start + Dur(bin.as_ns() * i as u64);
        let b_end = (b_start + bin).min(window.end);
        let w = TimeSpan::new(b_start, b_end);
        let active = busy.total_within(w);
        values.push(active.as_ns() as f64 / w.duration().as_ns() as f64);
    }
    SmUtilization {
        bin,
        origin: window.start,
        values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::StreamId;

    fn kernel(ts: u64, dur: u64, stream: u32) -> TraceEvent {
        TraceEvent::kernel("k", Ts(ts), Dur(dur), StreamId(stream))
    }

    #[test]
    fn single_kernel_fills_bins() {
        let mut t = RankTrace::new(0);
        t.push(kernel(0, 100, 7));
        let u = sm_utilization(&t, Dur(50));
        assert_eq!(u.values, vec![1.0, 1.0]);
        assert_eq!(u.mean(), 1.0);
    }

    #[test]
    fn partial_bin_fraction() {
        let mut t = RankTrace::new(0);
        t.push(kernel(0, 25, 7));
        t.push(kernel(50, 50, 7));
        let u = sm_utilization_within(t.kernels(), Dur(50), TimeSpan::new(Ts(0), Ts(100)));
        assert_eq!(u.values, vec![0.5, 1.0]);
    }

    #[test]
    fn overlapping_streams_count_once() {
        let mut t = RankTrace::new(0);
        t.push(kernel(0, 50, 7));
        t.push(kernel(0, 50, 13));
        let u = sm_utilization_within(t.kernels(), Dur(50), TimeSpan::new(Ts(0), Ts(50)));
        assert_eq!(u.values, vec![1.0]);
    }

    #[test]
    fn ragged_final_bin_normalized_by_own_width() {
        let mut t = RankTrace::new(0);
        t.push(kernel(0, 75, 7));
        // window 75 ns, bins of 50: second bin is 25 wide, fully busy.
        let u = sm_utilization_within(t.kernels(), Dur(50), TimeSpan::new(Ts(0), Ts(75)));
        assert_eq!(u.values, vec![1.0, 1.0]);
    }

    #[test]
    fn empty_trace_empty_timeline() {
        let t = RankTrace::new(0);
        let u = sm_utilization(&t, Dur(50));
        assert!(u.is_empty());
        assert_eq!(u.mean(), 0.0);
    }

    #[test]
    fn mae_penalizes_length_mismatch() {
        let a = SmUtilization {
            bin: Dur(1),
            origin: Ts::ZERO,
            values: vec![1.0, 1.0],
        };
        let b = SmUtilization {
            bin: Dur(1),
            origin: Ts::ZERO,
            values: vec![1.0],
        };
        assert!((a.mae(&b) - 0.5).abs() < 1e-12);
        assert_eq!(a.mae(&a), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bin_panics() {
        let t = RankTrace::new(0);
        let _ = sm_utilization(&t, Dur::ZERO);
    }
}
