//! Event sinks: what the engine does with the events it computes.
//!
//! The discrete-event engine produces the same timeline either way;
//! the sink decides how much of it is materialized:
//!
//! * [`FullTraceSink`] builds complete per-rank Kineto-style
//!   [`TraceEvent`] streams — what `profile`/replay/trace-export
//!   consumers need;
//! * [`MetricsSink`] keeps only what refinement reads — the makespan
//!   and the pipeline-boundary SendRecv time — without constructing a
//!   single [`TraceEvent`]. Every callback is a min/max or an add.
//!
//! Both sinks observe exactly the same callbacks in exactly the same
//! order, so a [`MetricsSink`] run's statistics are bit-identical to
//! the same numbers derived from a [`FullTraceSink`] trace (asserted by
//! the `sink` equivalence test suite).

use crate::exec::PreparedJob;
use crate::program::NameId;
use lumos_trace::{
    ClusterTrace, CollectiveKind, CudaRuntimeKind, Dur, KernelClass, RankTrace, StreamId, ThreadId,
    TraceEvent, Ts,
};

/// Receiver of the engine's computed events (see module docs).
///
/// `prog` is the dense program index (the rank slot), letting sinks
/// index pre-sized vectors instead of hashing rank ids. Names arrive
/// as interned [`NameId`]s: the metrics sink never resolves them, so
/// the hot loop pays for string handling only when a trace is
/// actually materialized.
pub(crate) trait EventSink {
    /// A framework-operator dispatch on a host thread.
    fn cpu_op(&mut self, prog: u32, tid: ThreadId, name: NameId, ts: Ts, dur: Dur);
    /// A CUDA runtime call on a host thread (`corr` 0 = none).
    fn runtime(
        &mut self,
        prog: u32,
        tid: ThreadId,
        kind: CudaRuntimeKind,
        corr: u64,
        ts: Ts,
        dur: Dur,
    );
    /// A user-annotation range on a host thread.
    fn annotation(&mut self, prog: u32, tid: ThreadId, name: NameId, ts: Ts, dur: Dur);
    /// A kernel execution on stream `sid`.
    #[allow(clippy::too_many_arguments)]
    fn kernel(
        &mut self,
        prog: u32,
        sid: StreamId,
        name: NameId,
        class: KernelClass,
        corr: u64,
        ts: Ts,
        dur: Dur,
    );
}

// ---------------------------------------------------------------- //
// Full-trace sink
// ---------------------------------------------------------------- //

/// Materializes complete per-rank traces (the pre-existing engine
/// behavior). Holds the prepared job to resolve interned names.
pub(crate) struct FullTraceSink<'p> {
    prep: &'p PreparedJob<'p>,
    ranks: Vec<RankTrace>,
}

impl<'p> FullTraceSink<'p> {
    pub(crate) fn new(prep: &'p PreparedJob<'p>) -> Self {
        FullTraceSink {
            prep,
            ranks: prep.ranks.iter().map(|&r| RankTrace::new(r)).collect(),
        }
    }

    /// Sorts and assembles the cluster trace.
    pub(crate) fn finish(self, label: String) -> (ClusterTrace, Dur) {
        let mut ranks: Vec<RankTrace> = self.ranks;
        ranks.sort_unstable_by_key(|r| r.rank());
        let mut cluster = ClusterTrace::new(label);
        for mut t in ranks {
            t.sort();
            cluster.push_rank(t);
        }
        let makespan = cluster.makespan();
        (cluster, makespan)
    }

    fn push(&mut self, prog: u32, event: TraceEvent) {
        self.ranks[prog as usize].push(event);
    }
}

impl EventSink for FullTraceSink<'_> {
    fn cpu_op(&mut self, prog: u32, tid: ThreadId, name: NameId, ts: Ts, dur: Dur) {
        let name = self.prep.name(prog, name).clone();
        self.push(prog, TraceEvent::cpu_op(name, ts, dur, tid));
    }

    fn runtime(
        &mut self,
        prog: u32,
        tid: ThreadId,
        kind: CudaRuntimeKind,
        corr: u64,
        ts: Ts,
        dur: Dur,
    ) {
        let mut ev = TraceEvent::cuda_runtime(kind, ts, dur, tid);
        if corr != 0 {
            ev = ev.with_correlation(corr);
        }
        self.push(prog, ev);
    }

    fn annotation(&mut self, prog: u32, tid: ThreadId, name: NameId, ts: Ts, dur: Dur) {
        let name = self.prep.name(prog, name).clone();
        self.push(prog, TraceEvent::annotation(name, ts, dur, tid));
    }

    fn kernel(
        &mut self,
        prog: u32,
        sid: StreamId,
        name: NameId,
        class: KernelClass,
        corr: u64,
        ts: Ts,
        dur: Dur,
    ) {
        let name = self.prep.name(prog, name).clone();
        self.push(
            prog,
            TraceEvent::kernel(name, ts, dur, sid)
                .with_correlation(corr)
                .with_class(class),
        );
    }
}

// ---------------------------------------------------------------- //
// Metrics-only sink
// ---------------------------------------------------------------- //

/// Accumulates the makespan and SendRecv time only; never constructs
/// a [`TraceEvent`].
pub(crate) struct MetricsSink {
    /// Earliest event start and latest event end over every rank.
    min_ts: Ts,
    max_end: Ts,
    sendrecv_ns: u128,
    programs: usize,
}

impl MetricsSink {
    pub(crate) fn new(prep: &PreparedJob<'_>) -> Self {
        MetricsSink {
            min_ts: Ts(u64::MAX),
            max_end: Ts::ZERO,
            sendrecv_ns: 0,
            programs: prep.ranks.len(),
        }
    }

    #[inline]
    fn observe(&mut self, ts: Ts, dur: Dur) {
        self.min_ts = self.min_ts.min(ts);
        self.max_end = self.max_end.max(ts + dur);
    }

    pub(crate) fn finish(self) -> EngineMetrics {
        EngineMetrics {
            // The hull of every event, as `ClusterTrace::makespan`
            // computes it over a full trace (zero when nothing ran).
            makespan: self.max_end.saturating_since(self.min_ts),
            sendrecv_ns: self.sendrecv_ns,
            programs: self.programs,
        }
    }
}

impl EventSink for MetricsSink {
    fn cpu_op(&mut self, _prog: u32, _tid: ThreadId, _name: NameId, ts: Ts, dur: Dur) {
        self.observe(ts, dur);
    }

    fn runtime(
        &mut self,
        _prog: u32,
        _tid: ThreadId,
        _kind: CudaRuntimeKind,
        _corr: u64,
        ts: Ts,
        dur: Dur,
    ) {
        self.observe(ts, dur);
    }

    fn annotation(&mut self, _prog: u32, _tid: ThreadId, _name: NameId, ts: Ts, dur: Dur) {
        self.observe(ts, dur);
    }

    fn kernel(
        &mut self,
        _prog: u32,
        _sid: StreamId,
        _name: NameId,
        class: KernelClass,
        _corr: u64,
        ts: Ts,
        dur: Dur,
    ) {
        self.observe(ts, dur);
        if let KernelClass::Collective(meta) = class {
            if meta.kind == CollectiveKind::SendRecv {
                self.sendrecv_ns += dur.as_ns() as u128;
            }
        }
    }
}

// ---------------------------------------------------------------- //
// Public metrics type
// ---------------------------------------------------------------- //

/// The result of a metrics-only engine execution: everything the
/// simulation-refined search consumes, with zero [`TraceEvent`]
/// construction.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineMetrics {
    /// End-to-end iteration time (bit-identical to
    /// [`ClusterTrace::makespan`] of the equivalent full trace).
    pub makespan: Dur,
    /// Total SendRecv kernel nanoseconds across all ranks (pipeline-
    /// boundary traffic; each member's kernel counts once, as in a
    /// trace).
    sendrecv_ns: u128,
    /// Programs (ranks) the job ran.
    programs: usize,
}

impl EngineMetrics {
    /// Mean per-rank time spent in pipeline-boundary SendRecv kernels
    /// — the same number the trace-walking
    /// `pipeline_comm_secs_per_rank` derives from a full trace, used
    /// by the search's interleaving adjustment.
    pub fn pipeline_comm_secs_per_rank(&self) -> f64 {
        let world = self.programs.max(1) as f64;
        self.sendrecv_ns as f64 / 1e9 / world
    }

    /// Total SendRecv kernel nanoseconds across all ranks.
    pub fn sendrecv_ns(&self) -> u128 {
        self.sendrecv_ns
    }
}
