//! Execution-time breakdown (paper §4.2.2, Figures 1, 5, 7, 8).
//!
//! An iteration decomposes into four components measured on the GPU
//! timeline of each rank:
//!
//! * **exposed compute** — computation not overlapping communication;
//! * **overlapped** — computation and communication running
//!   concurrently on different streams;
//! * **exposed communication** — communication not overlapping
//!   computation;
//! * **other** — periods where no stream is active (pipeline bubbles,
//!   host-bound gaps, synchronization stalls).

use crate::event::TraceEvent;
use crate::interval::IntervalSet;
use crate::time::{Dur, TimeSpan};
use crate::trace::{ClusterTrace, RankTrace};
use serde::Serialize;
use std::fmt;

/// The four-component execution-time breakdown of one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct Breakdown {
    /// Compute-only time.
    pub exposed_compute: Dur,
    /// Compute and communication overlapping.
    pub overlapped: Dur,
    /// Communication-only time.
    pub exposed_comm: Dur,
    /// GPU-idle time within the window.
    pub other: Dur,
}

impl Breakdown {
    /// Computes the breakdown of a set of events within `window`.
    ///
    /// Only GPU events contribute; kernels are split into compute and
    /// communication by [`TraceEvent::is_comm_kernel`].
    pub fn from_events<'a>(
        events: impl IntoIterator<Item = &'a TraceEvent>,
        window: TimeSpan,
    ) -> Self {
        Breakdown::from_kernel_spans(
            events
                .into_iter()
                .filter(|e| e.is_gpu())
                .map(|e| (e.span(), e.is_comm_kernel())),
            window,
        )
    }

    /// Computes the breakdown of one rank's kernels within `window`,
    /// each given as its busy span and whether it communicates. Spans
    /// are clipped to the window; empty ones contribute nothing. This
    /// is the one place the four components are derived, whether the
    /// kernels come from a trace or straight from a simulated graph.
    pub fn from_kernel_spans(
        kernels: impl IntoIterator<Item = (TimeSpan, bool)>,
        window: TimeSpan,
    ) -> Self {
        let mut compute_spans = Vec::new();
        let mut comm_spans = Vec::new();
        for (span, is_comm) in kernels {
            let Some(span) = span.intersect(&window) else {
                continue;
            };
            if is_comm {
                comm_spans.push(span);
            } else {
                compute_spans.push(span);
            }
        }
        let compute = IntervalSet::from_spans(compute_spans);
        let comm = IntervalSet::from_spans(comm_spans);
        let busy = compute.union(&comm);
        Breakdown {
            exposed_compute: compute.subtract(&comm).total(),
            overlapped: compute.intersect(&comm).total(),
            exposed_comm: comm.subtract(&compute).total(),
            other: busy.complement_within(window).total(),
        }
    }

    /// Sum of all four components; equals the window length when
    /// computed by [`Breakdown::from_kernel_spans`].
    pub fn total(&self) -> Dur {
        self.exposed_compute + self.overlapped + self.exposed_comm + self.other
    }

    /// Element-wise mean of several breakdowns (used to aggregate
    /// across ranks). Returns the zero breakdown for an empty input.
    pub fn mean<I: IntoIterator<Item = Breakdown>>(items: I) -> Breakdown {
        let mut acc = Breakdown::default();
        let mut n = 0u64;
        for b in items {
            acc.exposed_compute += b.exposed_compute;
            acc.overlapped += b.overlapped;
            acc.exposed_comm += b.exposed_comm;
            acc.other += b.other;
            n += 1;
        }
        if n == 0 {
            return acc;
        }
        Breakdown {
            exposed_compute: acc.exposed_compute / n,
            overlapped: acc.overlapped / n,
            exposed_comm: acc.exposed_comm / n,
            other: acc.other / n,
        }
    }

    /// Mean absolute relative error of each component against a
    /// reference breakdown, ignoring components that are zero in the
    /// reference.
    pub fn component_error(&self, reference: &Breakdown) -> f64 {
        let pairs = [
            (self.exposed_compute, reference.exposed_compute),
            (self.overlapped, reference.overlapped),
            (self.exposed_comm, reference.exposed_comm),
            (self.other, reference.other),
        ];
        let mut sum = 0.0;
        let mut n = 0;
        for (mine, theirs) in pairs {
            if theirs.is_zero() {
                continue;
            }
            sum += mine.relative_error(theirs);
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

impl fmt::Display for Breakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "compute {:.1}ms | overlap {:.1}ms | comm {:.1}ms | other {:.1}ms (total {:.1}ms)",
            self.exposed_compute.as_ms_f64(),
            self.overlapped.as_ms_f64(),
            self.exposed_comm.as_ms_f64(),
            self.other.as_ms_f64(),
            self.total().as_ms_f64(),
        )
    }
}

/// Breakdown computation on trace containers.
pub trait BreakdownExt {
    /// Computes the execution breakdown within `window`, defaulting to
    /// the container's own span.
    fn breakdown_within(&self, window: Option<TimeSpan>) -> Breakdown;

    /// Breakdown over the container's full span.
    fn breakdown(&self) -> Breakdown {
        self.breakdown_within(None)
    }
}

impl BreakdownExt for RankTrace {
    fn breakdown_within(&self, window: Option<TimeSpan>) -> Breakdown {
        let Some(window) = window.or_else(|| self.span()) else {
            return Breakdown::default();
        };
        Breakdown::from_events(self.events(), window)
    }
}

impl BreakdownExt for ClusterTrace {
    /// Per-rank breakdowns (each within the *cluster* span, so "other"
    /// includes time waiting for peer ranks) averaged across ranks.
    fn breakdown_within(&self, window: Option<TimeSpan>) -> Breakdown {
        let Some(window) = window.or_else(|| self.span()) else {
            return Breakdown::default();
        };
        Breakdown::mean(
            self.ranks()
                .iter()
                .map(|r| Breakdown::from_events(r.events(), window)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CollectiveKind, CommMeta, KernelClass};
    use crate::time::Ts;
    use crate::trace::{StreamId, ThreadId};

    fn compute_kernel(ts: u64, dur: u64) -> TraceEvent {
        TraceEvent::kernel("gemm", Ts(ts), Dur(dur), StreamId(7))
    }

    fn comm_kernel(ts: u64, dur: u64) -> TraceEvent {
        TraceEvent::kernel("nccl", Ts(ts), Dur(dur), StreamId(13)).with_class(
            KernelClass::Collective(CommMeta {
                kind: CollectiveKind::AllReduce,
                group: 0,
                seq: 0,
                bytes: 0,
            }),
        )
    }

    #[test]
    fn four_way_split() {
        // window [0,100): compute [0,40), comm [30,70) -> exposed
        // compute 30, overlap 10, exposed comm 30, other 30.
        let events = [compute_kernel(0, 40), comm_kernel(30, 40)];
        let b = Breakdown::from_events(events.iter(), TimeSpan::new(Ts(0), Ts(100)));
        assert_eq!(b.exposed_compute, Dur(30));
        assert_eq!(b.overlapped, Dur(10));
        assert_eq!(b.exposed_comm, Dur(30));
        assert_eq!(b.other, Dur(30));
        assert_eq!(b.total(), Dur(100));
    }

    #[test]
    fn cpu_events_do_not_contribute() {
        let events = [
            TraceEvent::cpu_op("op", Ts(0), Dur(50), ThreadId(1)),
            compute_kernel(10, 10),
        ];
        let b = Breakdown::from_events(events.iter(), TimeSpan::new(Ts(0), Ts(20)));
        assert_eq!(b.exposed_compute, Dur(10));
        assert_eq!(b.other, Dur(10));
    }

    #[test]
    fn events_clipped_to_window() {
        let events = [compute_kernel(0, 100)];
        let b = Breakdown::from_events(events.iter(), TimeSpan::new(Ts(50), Ts(80)));
        assert_eq!(b.exposed_compute, Dur(30));
        assert_eq!(b.other, Dur::ZERO);
    }

    #[test]
    fn mean_aggregates() {
        let a = Breakdown {
            exposed_compute: Dur(10),
            overlapped: Dur(20),
            exposed_comm: Dur(30),
            other: Dur(40),
        };
        let b = Breakdown {
            exposed_compute: Dur(30),
            overlapped: Dur(0),
            exposed_comm: Dur(10),
            other: Dur(0),
        };
        let m = Breakdown::mean([a, b]);
        assert_eq!(m.exposed_compute, Dur(20));
        assert_eq!(m.overlapped, Dur(10));
        assert_eq!(m.exposed_comm, Dur(20));
        assert_eq!(m.other, Dur(20));
        assert_eq!(Breakdown::mean([]), Breakdown::default());
    }

    #[test]
    fn component_error_ignores_zero_reference() {
        let reference = Breakdown {
            exposed_compute: Dur(100),
            overlapped: Dur::ZERO,
            exposed_comm: Dur(100),
            other: Dur::ZERO,
        };
        let mine = Breakdown {
            exposed_compute: Dur(110),
            overlapped: Dur(50),
            exposed_comm: Dur(90),
            other: Dur(10),
        };
        let err = mine.component_error(&reference);
        assert!((err - 0.1).abs() < 1e-9);
    }

    #[test]
    fn rank_trace_breakdown_uses_own_span() {
        let mut t = RankTrace::new(0);
        t.push(compute_kernel(10, 20));
        t.push(comm_kernel(40, 10));
        let b = t.breakdown();
        // span [10,50): compute 20, idle 10, comm 10
        assert_eq!(b.exposed_compute, Dur(20));
        assert_eq!(b.exposed_comm, Dur(10));
        assert_eq!(b.other, Dur(10));
        assert_eq!(b.total(), Dur(40));
    }

    #[test]
    fn empty_trace_breakdown_is_zero() {
        let t = RankTrace::new(0);
        assert_eq!(t.breakdown(), Breakdown::default());
    }
}
