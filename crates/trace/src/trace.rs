//! Per-rank and cluster-wide trace containers.

use crate::error::TraceError;
use crate::event::{CorrelationId, EventKind, TraceEvent};
use crate::time::{Dur, TimeSpan, Ts};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// A GPU rank (one worker process / one GPU) in the training job.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct RankId(pub u32);

/// A host thread within a rank's process.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct ThreadId(pub u32);

/// A CUDA stream within a rank's GPU.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct StreamId(pub u32);

impl fmt::Display for RankId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank{}", self.0)
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tid{}", self.0)
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream{}", self.0)
    }
}

/// The profiled timeline of a single rank: CPU ops, CUDA runtime
/// calls, GPU kernels, and annotations.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RankTrace {
    rank: RankId,
    events: Vec<TraceEvent>,
}

impl RankTrace {
    /// Creates an empty trace for `rank`.
    pub fn new(rank: impl Into<RankId>) -> Self {
        RankTrace {
            rank: rank.into(),
            events: Vec::new(),
        }
    }

    /// The rank this trace belongs to.
    pub fn rank(&self) -> RankId {
        self.rank
    }

    /// Appends an event.
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` when the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All events in recorded order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Mutable access to the events (used by graph manipulation).
    pub fn events_mut(&mut self) -> &mut Vec<TraceEvent> {
        &mut self.events
    }

    /// Sorts events by `(ts, dur desc)` so that enclosing ranges come
    /// before the events they contain.
    pub fn sort(&mut self) {
        self.events
            .sort_by(|a, b| a.ts.cmp(&b.ts).then(b.dur.cmp(&a.dur)));
    }

    /// Iterator over GPU kernel events.
    pub fn kernels(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(|e| e.is_gpu())
    }

    /// Iterator over user annotations.
    pub fn annotations(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::UserAnnotation { .. }))
    }

    /// The hull `[min ts, max end)` of all events, or `None` when
    /// empty.
    pub fn span(&self) -> Option<TimeSpan> {
        let start = self.events.iter().map(|e| e.ts).min()?;
        let end = self.events.iter().map(|e| e.end()).max()?;
        Some(TimeSpan::new(start, end))
    }

    /// Distinct CUDA streams appearing in the trace, sorted.
    pub fn streams(&self) -> Vec<StreamId> {
        let mut v: Vec<StreamId> = self.events.iter().filter_map(|e| e.kind.stream()).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Distinct host threads appearing in the trace, sorted.
    pub fn threads(&self) -> Vec<ThreadId> {
        let mut v: Vec<ThreadId> = self.events.iter().filter_map(|e| e.kind.tid()).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Checks structural invariants:
    ///
    /// * every GPU event's correlation id is matched by exactly one
    ///   work-launching runtime call;
    /// * kernels on the same stream do not overlap (streams are FIFO
    ///   execution queues).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), TraceError> {
        let mut launches: HashMap<CorrelationId, usize> = HashMap::new();
        for e in &self.events {
            if let EventKind::CudaRuntime {
                kind, correlation, ..
            } = &e.kind
            {
                if kind.launches_work() {
                    *launches.entry(*correlation).or_default() += 1;
                }
            }
        }
        for e in &self.events {
            if let EventKind::Kernel { correlation, .. } = &e.kind {
                match launches.get(correlation) {
                    Some(1) => {}
                    Some(n) => {
                        return Err(TraceError::AmbiguousCorrelation {
                            rank: self.rank,
                            correlation: *correlation,
                            launches: *n,
                        })
                    }
                    None => {
                        return Err(TraceError::OrphanKernel {
                            rank: self.rank,
                            correlation: *correlation,
                            name: e.name.to_string(),
                        })
                    }
                }
            }
        }

        // Per-stream FIFO: sort kernel intervals per stream, check no
        // overlap.
        let mut per_stream: HashMap<StreamId, Vec<TimeSpan>> = HashMap::new();
        for e in self.kernels() {
            if let Some(s) = e.kind.stream() {
                per_stream.entry(s).or_default().push(e.span());
            }
        }
        for (stream, mut spans) in per_stream {
            spans.sort();
            for w in spans.windows(2) {
                if w[0].overlaps(&w[1]) {
                    return Err(TraceError::StreamOverlap {
                        rank: self.rank,
                        stream,
                        first: w[0],
                        second: w[1],
                    });
                }
            }
        }
        Ok(())
    }

    /// Shifts every event so the trace starts at `Ts::ZERO`.
    pub fn normalize(&mut self) {
        let Some(span) = self.span() else { return };
        let offset = span.start;
        for e in &mut self.events {
            e.ts = Ts(e.ts.0 - offset.0);
        }
    }
}

impl From<u32> for RankId {
    fn from(v: u32) -> Self {
        RankId(v)
    }
}

impl Extend<TraceEvent> for RankTrace {
    fn extend<T: IntoIterator<Item = TraceEvent>>(&mut self, iter: T) {
        self.events.extend(iter);
    }
}

/// Traces from every rank of a distributed training job, for one
/// profiled iteration.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ClusterTrace {
    /// Free-form description of the run (model, parallelism, seed).
    pub label: String,
    ranks: Vec<RankTrace>,
}

impl ClusterTrace {
    /// Creates an empty cluster trace.
    pub fn new(label: impl Into<String>) -> Self {
        ClusterTrace {
            label: label.into(),
            ranks: Vec::new(),
        }
    }

    /// Adds a rank's trace.
    ///
    /// # Panics
    ///
    /// Panics if a trace for the same rank was already added.
    pub fn push_rank(&mut self, trace: RankTrace) {
        assert!(
            self.ranks.iter().all(|r| r.rank() != trace.rank()),
            "duplicate trace for {}",
            trace.rank()
        );
        self.ranks.push(trace);
    }

    /// Number of ranks.
    pub fn world_size(&self) -> usize {
        self.ranks.len()
    }

    /// All per-rank traces.
    pub fn ranks(&self) -> &[RankTrace] {
        &self.ranks
    }

    /// Mutable access to per-rank traces.
    pub fn ranks_mut(&mut self) -> &mut [RankTrace] {
        &mut self.ranks
    }

    /// The trace of a specific rank.
    pub fn rank(&self, rank: RankId) -> Option<&RankTrace> {
        self.ranks.iter().find(|r| r.rank() == rank)
    }

    /// Total number of events across all ranks.
    pub fn total_events(&self) -> usize {
        self.ranks.iter().map(|r| r.len()).sum()
    }

    /// Hull of all ranks' spans.
    pub fn span(&self) -> Option<TimeSpan> {
        self.ranks
            .iter()
            .filter_map(|r| r.span())
            .reduce(|a, b| a.hull(&b))
    }

    /// End-to-end makespan: latest end minus earliest start across all
    /// ranks — the per-iteration training time the paper reports.
    pub fn makespan(&self) -> Dur {
        self.span().map_or(Dur::ZERO, |s| s.duration())
    }

    /// Validates every rank trace.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), TraceError> {
        for r in &self.ranks {
            r.validate()?;
        }
        Ok(())
    }
}

impl FromIterator<RankTrace> for ClusterTrace {
    fn from_iter<T: IntoIterator<Item = RankTrace>>(iter: T) -> Self {
        let mut ct = ClusterTrace::new("");
        for r in iter {
            ct.push_rank(r);
        }
        ct
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CudaRuntimeKind;

    fn launch_and_kernel(corr: u64, ts: u64) -> [TraceEvent; 2] {
        [
            TraceEvent::cuda_runtime(CudaRuntimeKind::LaunchKernel, Ts(ts), Dur(2), ThreadId(1))
                .with_correlation(corr),
            TraceEvent::kernel("k", Ts(ts + 5), Dur(10), StreamId(7)).with_correlation(corr),
        ]
    }

    #[test]
    fn span_and_makespan() {
        let mut t = RankTrace::new(0);
        t.push(TraceEvent::cpu_op("a", Ts(10), Dur(5), ThreadId(1)));
        t.push(TraceEvent::cpu_op("b", Ts(30), Dur(10), ThreadId(1)));
        assert_eq!(t.span().unwrap(), TimeSpan::new(Ts(10), Ts(40)));

        let mut c = ClusterTrace::new("test");
        c.push_rank(t);
        let mut t2 = RankTrace::new(1);
        t2.push(TraceEvent::cpu_op("c", Ts(0), Dur(5), ThreadId(1)));
        c.push_rank(t2);
        assert_eq!(c.makespan(), Dur(40));
        assert_eq!(c.world_size(), 2);
    }

    #[test]
    fn validate_accepts_matched_correlation() {
        let mut t = RankTrace::new(0);
        for e in launch_and_kernel(1, 0) {
            t.push(e);
        }
        assert!(t.validate().is_ok());
    }

    #[test]
    fn validate_rejects_orphan_kernel() {
        let mut t = RankTrace::new(0);
        t.push(TraceEvent::kernel("k", Ts(0), Dur(1), StreamId(7)).with_correlation(99));
        assert!(matches!(
            t.validate(),
            Err(TraceError::OrphanKernel {
                correlation: 99,
                ..
            })
        ));
    }

    #[test]
    fn validate_rejects_stream_overlap() {
        let mut t = RankTrace::new(0);
        for e in launch_and_kernel(1, 0) {
            t.push(e);
        }
        // second kernel on same stream overlapping the first
        t.push(
            TraceEvent::cuda_runtime(CudaRuntimeKind::LaunchKernel, Ts(1), Dur(1), ThreadId(1))
                .with_correlation(2),
        );
        t.push(TraceEvent::kernel("k2", Ts(10), Dur(10), StreamId(7)).with_correlation(2));
        assert!(matches!(
            t.validate(),
            Err(TraceError::StreamOverlap { .. })
        ));
    }

    #[test]
    fn normalize_shifts_origin() {
        let mut t = RankTrace::new(3);
        t.push(TraceEvent::cpu_op("a", Ts(100), Dur(5), ThreadId(1)));
        t.normalize();
        assert_eq!(t.events()[0].ts, Ts::ZERO);
    }

    #[test]
    fn streams_and_threads_dedup() {
        let mut t = RankTrace::new(0);
        for e in launch_and_kernel(1, 0) {
            t.push(e);
        }
        for e in launch_and_kernel(2, 100) {
            t.push(e);
        }
        assert_eq!(t.streams(), vec![StreamId(7)]);
        assert_eq!(t.threads(), vec![ThreadId(1)]);
    }

    #[test]
    #[should_panic(expected = "duplicate trace")]
    fn duplicate_rank_panics() {
        let mut c = ClusterTrace::new("t");
        c.push_rank(RankTrace::new(0));
        c.push_rank(RankTrace::new(0));
    }

    #[test]
    fn sort_orders_enclosing_first() {
        let mut t = RankTrace::new(0);
        t.push(TraceEvent::cpu_op("inner", Ts(10), Dur(5), ThreadId(1)));
        t.push(TraceEvent::annotation(
            "outer",
            Ts(10),
            Dur(50),
            ThreadId(1),
        ));
        t.sort();
        assert_eq!(&*t.events()[0].name, "outer");
    }
}
