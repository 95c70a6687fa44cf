//! Execution-graph construction from profiled traces (§3.3).
//!
//! Implements the paper's four dependency classes:
//!
//! * **CPU→CPU**: consecutive host tasks on one thread chain
//!   sequentially; cross-thread dependencies are detected from
//!   *significant execution gaps* — a host task that starts after an
//!   idle gap on its own thread is linked to the latest-finishing task
//!   on a sibling thread (the fwd→bwd handoff pattern);
//! * **CPU→GPU**: `cudaLaunchKernel`-style calls link to their kernel
//!   through the shared correlation id;
//! * **GPU→CPU**: blocking synchronization calls get *runtime*
//!   dependencies — the builder marks them, the simulator resolves
//!   them against the live last-enqueued kernel (Algorithm 1);
//! * **GPU→GPU**: kernels on one stream chain in enqueue (launch)
//!   order; `cudaEventRecord`/`cudaStreamWaitEvent` pairs become
//!   cross-stream edges from the last kernel enqueued before the
//!   record to the first kernel enqueued after the wait.
//!
//! Collective kernels are additionally registered by
//! `(communicator, sequence)` so the simulator can rendezvous the
//! instance across ranks — membership is derived purely from the
//! trace.

use crate::error::CoreError;
use crate::graph::ExecutionGraph;
use crate::task::{DepKind, ProcIdx, Processor, SegmentTag, Task, TaskId, TaskKind};
use lumos_trace::{
    ClusterTrace, CommMeta, CudaRuntimeKind, Dur, EventKind, KernelClass, RankId, RankTrace,
    StreamId, ThreadId, Ts,
};
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// How much of the event-based inter-stream dependency structure the
/// builder models — the axis separating Lumos from the dPRO baseline
/// (§4.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterStreamMode {
    /// All `cudaEventRecord`/`cudaStreamWaitEvent` edges (Lumos).
    Full,
    /// Keep fences whose *source* is a communication kernel
    /// (collective → compute consumer edges — recoverable from tensor
    /// dataflow) but drop fences *into* communication streams.
    /// A dataflow-level tool like dPRO sees that computation consumes
    /// a collective's output, but not that the collective itself
    /// queues behind stream fences.
    ConsumerOnly,
    /// Keep fences *into* communication streams (producers gate
    /// collectives correctly) but drop collective → compute consumer
    /// fences: downstream computation no longer waits for collectives,
    /// so communication appears free to overlap.
    ProducerOnly,
    /// Drop producer fences into collectives that were launched from
    /// the autograd (backward) thread. Megatron issues backward
    /// tensor-parallel all-reduces and DDP gradient buckets from
    /// autograd *hooks*; an operator-level dataflow reconstruction
    /// (dPRO's method) sees the hooks' outputs being consumed but not
    /// what produced their inputs, so those collectives float free of
    /// their producers and overlap optimistically.
    DataflowOnly,
    /// Drop every event-based inter-stream edge.
    None,
}

impl InterStreamMode {
    fn keeps(
        self,
        source_is_comm: bool,
        target_is_comm: bool,
        target_launched_by_hook: bool,
    ) -> bool {
        match self {
            InterStreamMode::Full => true,
            // Keep collective→compute consumer fences and neutral
            // compute→compute edges; drop fences into collectives.
            InterStreamMode::ConsumerOnly => source_is_comm || !target_is_comm,
            // Keep compute→collective producer fences and neutral
            // edges; drop consumer fences out of collectives.
            InterStreamMode::ProducerOnly => target_is_comm || !source_is_comm,
            // Drop producer fences into hook-launched collectives.
            InterStreamMode::DataflowOnly => !(target_is_comm && target_launched_by_hook),
            InterStreamMode::None => false,
        }
    }
}

/// Minimum idle gap on a thread that triggers cross-thread dependency
/// detection.
const INTERTHREAD_GAP: Dur = Dur::from_us(20);

/// Options controlling graph construction.
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Event-based inter-stream dependency coverage.
    pub interstream: InterStreamMode,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            interstream: InterStreamMode::Full,
        }
    }
}

/// Builds the execution graph of a cluster trace, after validating it
/// (correlation integrity, per-stream FIFO).
///
/// # Errors
///
/// Returns trace-validation failures, cycle detection failures, and
/// inconsistent collective instances.
pub fn build_graph(trace: &ClusterTrace, opts: &BuildOptions) -> Result<ExecutionGraph, CoreError> {
    trace.validate()?;
    let mut graph = ExecutionGraph::new();
    for rank_trace in trace.ranks() {
        build_rank(
            &mut graph,
            rank_trace.rank(),
            &RankOps::of_trace(rank_trace),
            opts,
        );
    }
    graph.validate()?;
    Ok(graph)
}

/// A host call (CPU operator or CUDA runtime call) of a [`RankOps`].
#[derive(Debug, Clone, PartialEq)]
struct HostOp {
    tid: ThreadId,
    kind: TaskKind,
    name: Arc<str>,
    start: Ts,
    dur: Dur,
    correlation: u64,
}

/// A kernel of a [`RankOps`].
#[derive(Debug, Clone)]
struct KernelOp {
    stream: StreamId,
    class: KernelClass,
    name: Arc<str>,
    start: Ts,
    dur: Dur,
    correlation: u64,
    /// Index of the launching call in [`RankOps::host`], once
    /// resolved.
    launch: Option<usize>,
}

/// One rank's program in the form [`build_rank`] consumes: its host
/// calls and kernels, with each kernel linked to the call that
/// launched it. Annotations are not part of it: no task is made of
/// them. Built either from a trace ([`RankOps::of_trace`]) or op by op
/// through its [`Sink`], as reassembly emits it, then
/// [`RankOps::in_trace_order`].
#[derive(Debug, Clone, Default)]
pub(crate) struct RankOps {
    /// Host calls, ordered by start.
    host: Vec<HostOp>,
    /// Kernels, in trace order.
    kernels: Vec<KernelOp>,
}

/// Where one rank's program is written, op by op: host calls and
/// kernels with their recorded (or placeholder) times, and annotation
/// scopes as segment tags. [`RankOps`] collects the calls and kernels
/// for [`build_rank`] and drops the scopes; reassembly's trace sink
/// writes all three out as a trace, the scopes as annotations.
pub(crate) trait Sink {
    /// A host call: a CUDA runtime call of kind `runtime`, or a CPU
    /// operator when `None`.
    fn host(
        &mut self,
        tid: ThreadId,
        runtime: Option<CudaRuntimeKind>,
        name: Arc<str>,
        start: Ts,
        dur: Dur,
        correlation: u64,
    );
    /// A kernel.
    fn kernel(
        &mut self,
        stream: StreamId,
        class: KernelClass,
        name: Arc<str>,
        start: Ts,
        dur: Dur,
        correlation: u64,
    );
    /// An annotation scope `[start, end)` on `tid`.
    fn scope(&mut self, tid: ThreadId, tag: SegmentTag, start: Ts, end: Ts);
}

/// Kernels are linked to their launches by
/// [`RankOps::in_trace_order`]; scopes are dropped.
impl Sink for RankOps {
    fn host(
        &mut self,
        tid: ThreadId,
        runtime: Option<CudaRuntimeKind>,
        name: Arc<str>,
        start: Ts,
        dur: Dur,
        correlation: u64,
    ) {
        self.host.push(HostOp {
            tid,
            kind: runtime.map_or(TaskKind::CpuOp, TaskKind::Runtime),
            name,
            start,
            dur,
            correlation,
        });
    }

    fn kernel(
        &mut self,
        stream: StreamId,
        class: KernelClass,
        name: Arc<str>,
        start: Ts,
        dur: Dur,
        correlation: u64,
    ) {
        self.kernels.push(KernelOp {
            stream,
            class,
            name,
            start,
            dur,
            correlation,
            launch: None,
        });
    }

    fn scope(&mut self, _tid: ThreadId, _tag: SegmentTag, _start: Ts, _end: Ts) {}
}

impl RankOps {
    /// Reads a rank trace: host calls stably sorted by start, kernels
    /// in trace order, annotations skipped.
    fn of_trace(trace: &RankTrace) -> RankOps {
        let mut ops = RankOps::default();
        for e in trace.events() {
            let name = e.name.clone();
            match e.kind {
                EventKind::CpuOp { tid } => ops.host(tid, None, name, e.ts, e.dur, 0),
                EventKind::CudaRuntime {
                    tid,
                    kind,
                    correlation,
                } => ops.host(tid, Some(kind), name, e.ts, e.dur, correlation),
                EventKind::Kernel {
                    stream,
                    correlation,
                    class,
                } => ops.kernel(stream, class, name, e.ts, e.dur, correlation),
                EventKind::UserAnnotation { .. } => {}
            }
        }
        ops.host.sort_by_key(|h| h.start);
        ops.resolve_launches();
        ops
    }

    /// Puts ops pushed in emission order into the order reading them
    /// back from a sorted trace gives ([`RankTrace::sort`]: by start,
    /// longest first, ties in emission order), so both routes hand
    /// [`build_rank`] the same program and the graph gets the same
    /// task ids.
    pub(crate) fn in_trace_order(mut self) -> RankOps {
        self.host.sort_by_key(|h| (h.start, Reverse(h.dur)));
        self.kernels.sort_by_key(|k| (k.start, Reverse(k.dur)));
        self.resolve_launches();
        self
    }

    /// Whether `other` is this program op for op, with collective
    /// communicator ids renamed one to one; if so, `rename` holds the
    /// renaming as `(this program's id, other's id)` pairs. Compares
    /// every field [`build_rank`] reads: host calls whole, kernels with
    /// their communicators set aside. Equal programs in emission order
    /// stay equal through [`RankOps::in_trace_order`], so `build_rank`
    /// writes them as the same fragment up to ids.
    pub(crate) fn same_program(&self, other: &RankOps, rename: &mut Vec<(u64, u64)>) -> bool {
        rename.clear();
        self.kernels.len() == other.kernels.len()
            && self.host == other.host
            && self.kernels.iter().zip(&other.kernels).all(|(a, b)| {
                (a.stream, a.start, a.dur, a.correlation)
                    == (b.stream, b.start, b.dur, b.correlation)
                    && a.name == b.name
                    && same_class(a.class, b.class, rename)
            })
    }

    /// Links every kernel to the work-launching call sharing its
    /// correlation id (the latest by start, if several do).
    fn resolve_launches(&mut self) {
        let mut launch_by_corr: HashMap<u64, usize> = HashMap::new();
        for (i, h) in self.host.iter().enumerate() {
            if matches!(h.kind, TaskKind::Runtime(k) if k.launches_work()) && h.correlation != 0 {
                launch_by_corr.insert(h.correlation, i);
            }
        }
        for k in &mut self.kernels {
            k.launch = launch_by_corr.get(&k.correlation).copied();
        }
    }
}

/// Whether kernel classes `a` and `b` are equal up to the
/// communicator of a collective, extending the one-to-one renaming
/// `rename` of `a`'s communicators to `b`'s.
fn same_class(a: KernelClass, b: KernelClass, rename: &mut Vec<(u64, u64)>) -> bool {
    let (KernelClass::Collective(x), KernelClass::Collective(y)) = (a, b) else {
        return a == b;
    };
    let renamed = CommMeta {
        group: x.group,
        ..y
    };
    if renamed != x {
        return false;
    }
    match rename
        .iter()
        .find(|&&(old, new)| old == x.group || new == y.group)
    {
        Some(&pair) => pair == (x.group, y.group),
        None => {
            rename.push((x.group, y.group));
            true
        }
    }
}

/// Adds one rank's tasks and fixed edges to `graph`.
pub(crate) fn build_rank(
    graph: &mut ExecutionGraph,
    rank: RankId,
    ops: &RankOps,
    opts: &BuildOptions,
) {
    // --- Host tasks, in start order. ---
    let mut host_ids: Vec<TaskId> = Vec::with_capacity(ops.host.len());
    let mut threads: BTreeMap<ThreadId, Vec<TaskId>> = BTreeMap::new();
    let mut procs: Vec<(ThreadId, ProcIdx)> = Vec::new();
    for h in &ops.host {
        let proc = match procs.iter().find(|&&(tid, _)| tid == h.tid) {
            Some(&(_, proc)) => proc,
            None => {
                let proc = graph.processor_idx(Processor::Thread { rank, tid: h.tid });
                procs.push((h.tid, proc));
                proc
            }
        };
        let id = graph.add_task(Task {
            name: h.name.clone(),
            kind: h.kind,
            processor: proc,
            duration: h.dur,
            orig_start: h.start,
            correlation: h.correlation,
        });
        host_ids.push(id);
        threads.entry(h.tid).or_default().push(id);
    }
    link_threads(graph, &threads);

    // --- Kernel tasks, launch edges, intra-stream chains. ---
    // Kernels per stream in enqueue (launch-timestamp) order.
    let mut by_stream: BTreeMap<StreamId, Vec<(Ts, usize)>> = BTreeMap::new();
    for (i, k) in ops.kernels.iter().enumerate() {
        let launch_ts = k.launch.map_or(k.start, |l| ops.host[l].start);
        by_stream.entry(k.stream).or_default().push((launch_ts, i));
    }
    // (stream -> (launch_ts, kernel task)) for event-edge lookups.
    let mut enqueued: HashMap<StreamId, Vec<(Ts, TaskId)>> = HashMap::new();
    for (stream, mut list) in by_stream {
        list.sort_unstable();
        let proc = graph.processor_idx(Processor::Stream { rank, stream });
        let mut prev: Option<TaskId> = None;
        let mut with_tasks = Vec::with_capacity(list.len());
        for (launch_ts, i) in list {
            let k = &ops.kernels[i];
            let launch = k.launch.map(|l| host_ids[l]);
            let id = graph.add_task(Task {
                name: k.name.clone(),
                kind: TaskKind::Kernel(k.class),
                processor: proc,
                duration: k.dur,
                orig_start: k.start,
                correlation: k.correlation,
            });
            if let Some(l) = launch {
                graph.add_edge(l, id, DepKind::KernelLaunch);
                graph.register_kernel(id, l);
            }
            if let Some(p) = prev {
                graph.add_edge(p, id, DepKind::IntraStream);
            }
            prev = Some(id);
            if let KernelClass::Collective(meta) = k.class {
                graph.register_collective(meta.group, meta.seq, id, rank);
            }
            with_tasks.push((launch_ts, id));
        }
        enqueued.insert(stream, with_tasks);
    }

    if opts.interstream != InterStreamMode::None {
        link_streams(graph, &host_ids, &enqueued, opts.interstream);
    }
}

/// CPU→CPU edges: program order within each thread, plus the gap rule
/// across threads — a host task that starts after an idle gap of at
/// least [`INTERTHREAD_GAP`] on its own thread depends on the
/// latest-finishing task of any other thread that ended inside the
/// gap.
fn link_threads(graph: &mut ExecutionGraph, threads: &BTreeMap<ThreadId, Vec<TaskId>>) {
    for tasks in threads.values() {
        for w in tasks.windows(2) {
            graph.add_edge(w[0], w[1], DepKind::IntraThread);
        }
    }
    // Per-thread (end, task) lists sorted by end for binary search.
    let ends: Vec<(ThreadId, Vec<(Ts, TaskId)>)> = threads
        .iter()
        .map(|(&tid, tasks)| {
            let mut v: Vec<(Ts, TaskId)> = tasks
                .iter()
                .map(|&id| (graph.task(id).orig_end(), id))
                .collect();
            v.sort_unstable();
            (tid, v)
        })
        .collect();
    for (&tid, tasks) in threads {
        let mut prev_end: Option<Ts> = None;
        for &id in tasks {
            let (start, end) = {
                let t = graph.task(id);
                (t.orig_start, t.orig_end())
            };
            // The first task on a thread that starts late: the thread
            // was waiting on someone.
            let gap_start = prev_end.unwrap_or(Ts::ZERO);
            prev_end = Some(end);
            if start.saturating_since(gap_start) < INTERTHREAD_GAP {
                continue;
            }
            // Latest-finishing task on any *other* thread with
            // end <= start; it must end inside the gap to explain it.
            let mut best: Option<(Ts, TaskId)> = None;
            for (other, list) in &ends {
                if *other == tid {
                    continue;
                }
                let pos = list.partition_point(|&(end, _)| end <= start);
                if pos > 0 {
                    let cand = list[pos - 1];
                    if cand.0 > gap_start && best.is_none_or(|b| cand > b) {
                        best = Some(cand);
                    }
                }
            }
            if let Some((_, src)) = best {
                graph.add_edge(src, id, DepKind::InterThread);
            }
        }
    }
}

/// GPU→GPU edges across streams: each `cudaStreamWaitEvent` links the
/// last kernel enqueued on the recorded stream before the matching
/// `cudaEventRecord` to the first kernel enqueued on the waiting
/// stream after the wait, as far as `mode` keeps it. `host` lists the
/// rank's host tasks in start order; `enqueued` each stream's
/// `(launch time, kernel)` pairs in enqueue order.
fn link_streams(
    graph: &mut ExecutionGraph,
    host: &[TaskId],
    enqueued: &HashMap<StreamId, Vec<(Ts, TaskId)>>,
    mode: InterStreamMode,
) {
    let thread_of =
        |graph: &ExecutionGraph, task: TaskId| match graph.processor(graph.task(task).processor) {
            Processor::Thread { tid, .. } => Some(tid),
            Processor::Stream { .. } => None,
        };
    // The rank's main thread is the one dispatching the earliest host
    // task; other threads are autograd/hook threads.
    let main_thread = host.first().and_then(|&h| thread_of(graph, h));
    // event id -> (record host ts, recorded stream)
    let mut records: HashMap<u64, (Ts, StreamId)> = HashMap::new();
    for &h in host {
        let t = graph.task(h);
        if let TaskKind::Runtime(CudaRuntimeKind::EventRecord { event, stream }) = t.kind {
            records.insert(event, (t.orig_start, stream));
        }
    }
    for &h in host {
        let t = graph.task(h);
        let TaskKind::Runtime(CudaRuntimeKind::StreamWaitEvent { stream, event }) = t.kind else {
            continue;
        };
        let wait_ts = t.orig_start;
        let Some(&(record_ts, record_stream)) = records.get(&event) else {
            continue;
        };
        // Source: last kernel enqueued on the recorded stream before
        // the record call.
        let source = enqueued.get(&record_stream).and_then(|ks| {
            let pos = ks.partition_point(|&(lts, _)| lts <= record_ts);
            (pos > 0).then(|| ks[pos - 1].1)
        });
        // Target: first kernel enqueued on the waiting stream after
        // the wait call.
        let target = enqueued.get(&stream).and_then(|ks| {
            let pos = ks.partition_point(|&(lts, _)| lts < wait_ts);
            ks.get(pos).map(|&(_, id)| id)
        });
        if let (Some(s), Some(t)) = (source, target) {
            let source_is_comm = graph.task(s).is_comm_kernel();
            let target_is_comm = graph.task(t).is_comm_kernel();
            // "Hook-launched": enqueued from a thread other than the
            // rank's main thread (the autograd thread).
            let target_hooked = graph
                .launch_of(t)
                .is_some_and(|l| thread_of(graph, l) != main_thread);
            if s != t && mode.keeps(source_is_comm, target_is_comm, target_hooked) {
                graph.add_edge(s, t, DepKind::InterStreamEvent);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_trace::{KernelClass, TraceEvent};

    /// Builds a minimal single-rank trace exercising every dependency
    /// class:
    ///
    /// * thread 1: op A, launch k1 (compute), record e1 on compute,
    ///   wait e1 on comm, launch k2 (comm), streamSync(comm)
    /// * thread 2: op B starting after a long gap (handoff from
    ///   thread 1)
    fn sample_trace() -> ClusterTrace {
        let t1 = ThreadId(1);
        let t2 = ThreadId(2);
        let comp = StreamId(7);
        let comm = StreamId(13);
        let mut r = RankTrace::new(0);
        let us = |x: u64| Ts::from_us(x);
        r.push(TraceEvent::cpu_op("opA", us(0), Dur::from_us(5), t1));
        r.push(
            TraceEvent::cuda_runtime(CudaRuntimeKind::LaunchKernel, us(5), Dur::from_us(2), t1)
                .with_correlation(1),
        );
        r.push(TraceEvent::cuda_runtime(
            CudaRuntimeKind::EventRecord {
                event: 11,
                stream: comp,
            },
            us(7),
            Dur::from_us(1),
            t1,
        ));
        r.push(TraceEvent::cuda_runtime(
            CudaRuntimeKind::StreamWaitEvent {
                stream: comm,
                event: 11,
            },
            us(8),
            Dur::from_us(1),
            t1,
        ));
        r.push(
            TraceEvent::cuda_runtime(CudaRuntimeKind::LaunchKernel, us(9), Dur::from_us(2), t1)
                .with_correlation(2),
        );
        r.push(TraceEvent::cuda_runtime(
            CudaRuntimeKind::StreamSynchronize { stream: comm },
            us(11),
            Dur::from_us(120),
            t1,
        ));
        // GPU side.
        r.push(TraceEvent::kernel("k1", us(20), Dur::from_us(50), comp).with_correlation(1));
        r.push(TraceEvent::kernel("k2", us(75), Dur::from_us(40), comm).with_correlation(2));
        // Thread 2 wakes up long after thread 1 finished its ops.
        r.push(TraceEvent::cpu_op("opB", us(131), Dur::from_us(5), t2));
        let mut c = ClusterTrace::new("sample");
        c.push_rank(r);
        c
    }

    #[test]
    fn builds_all_dependency_classes() {
        let g = build_graph(&sample_trace(), &BuildOptions::default()).unwrap();
        let s = g.stats();
        assert_eq!(s.tasks, 9);
        assert_eq!(s.intra_thread, 5); // 6 host tasks on t1 chained
        assert_eq!(s.kernel_launch, 2);
        assert_eq!(s.inter_stream, 1); // k1 -> k2 via e11
        assert_eq!(s.inter_thread, 1); // t1 tail -> opB
        assert_eq!(s.intra_stream, 0); // one kernel per stream
    }

    #[test]
    fn interstream_edge_links_kernels() {
        let g = build_graph(&sample_trace(), &BuildOptions::default()).unwrap();
        // Find the edge k1 -> k2.
        let k1 = g.tasks().iter().position(|t| &*t.name == "k1").unwrap() as TaskId;
        let k2 = g.tasks().iter().position(|t| &*t.name == "k2").unwrap() as TaskId;
        assert!(g
            .successors(k1)
            .iter()
            .any(|e| e.to == k2 && e.kind == DepKind::InterStreamEvent));
    }

    #[test]
    fn interstream_none_drops_all_event_edges() {
        let opts = BuildOptions {
            interstream: InterStreamMode::None,
        };
        let g = build_graph(&sample_trace(), &opts).unwrap();
        assert_eq!(g.stats().inter_stream, 0);
        // Everything else is intact.
        assert_eq!(g.stats().kernel_launch, 2);
        assert_eq!(g.stats().inter_thread, 1);
    }

    #[test]
    fn dpro_mode_drops_hook_launched_producer_fences() {
        // Rebuild the sample with k2 classed as a collective and its
        // launch moved to the autograd thread (a hook launch): the
        // compute→collective producer fence must vanish in dPRO mode.
        let mut trace = sample_trace();
        for r in trace.ranks_mut() {
            for e in r.events_mut() {
                if &*e.name == "k2" {
                    *e = e
                        .clone()
                        .with_class(KernelClass::Collective(lumos_trace::CommMeta {
                            kind: lumos_trace::CollectiveKind::AllReduce,
                            group: 7,
                            seq: 0,
                            bytes: 64,
                        }));
                }
                // Retarget k2's launch (correlation 2) to thread 2.
                if let EventKind::CudaRuntime {
                    kind: k,
                    correlation: 2,
                    ..
                } = e.kind
                {
                    e.kind = EventKind::CudaRuntime {
                        tid: ThreadId(2),
                        kind: k,
                        correlation: 2,
                    };
                }
            }
        }
        let lumos = build_graph(&trace, &BuildOptions::default()).unwrap();
        assert_eq!(lumos.stats().inter_stream, 1);
        let dpro = crate::Lumos::dpro_baseline().build_graph(&trace).unwrap();
        assert_eq!(dpro.stats().inter_stream, 0);
        // Main-thread-launched collectives keep their producer fence
        // even in dPRO mode (visible in the op-level dataflow).
        let mut main_launched = sample_trace();
        for r in main_launched.ranks_mut() {
            for e in r.events_mut() {
                if &*e.name == "k2" {
                    *e = e
                        .clone()
                        .with_class(KernelClass::Collective(lumos_trace::CommMeta {
                            kind: lumos_trace::CollectiveKind::AllReduce,
                            group: 7,
                            seq: 0,
                            bytes: 64,
                        }));
                }
            }
        }
        let dpro_main = crate::Lumos::dpro_baseline()
            .build_graph(&main_launched)
            .unwrap();
        assert_eq!(dpro_main.stats().inter_stream, 1);
    }

    #[test]
    fn interthread_edge_targets_latest_source() {
        let g = build_graph(&sample_trace(), &BuildOptions::default()).unwrap();
        let op_b = g.tasks().iter().position(|t| &*t.name == "opB").unwrap() as TaskId;
        // Its inter-thread predecessor is the streamSync (latest t1
        // task ending at 131us).
        let pred = g
            .tasks()
            .iter()
            .enumerate()
            .find(|(_, t)| &*t.name == "cudaStreamSynchronize")
            .map(|(i, _)| i as TaskId)
            .unwrap();
        assert!(g
            .successors(pred)
            .iter()
            .any(|e| e.to == op_b && e.kind == DepKind::InterThread));
    }

    #[test]
    fn small_gaps_do_not_create_interthread_edges() {
        // opB now starts 19 us into its thread, after t1 tasks ended
        // inside that gap: under the 20 us threshold, so no handoff.
        let mut trace = sample_trace();
        for r in trace.ranks_mut() {
            for e in r.events_mut() {
                if &*e.name == "opB" {
                    e.ts = Ts::from_us(19);
                }
            }
        }
        let g = build_graph(&trace, &BuildOptions::default()).unwrap();
        assert_eq!(g.stats().inter_thread, 0);
    }

    #[test]
    fn collective_registration_from_trace() {
        let mut c = ClusterTrace::new("coll");
        for rank in 0..2u32 {
            let mut r = RankTrace::new(rank);
            r.push(
                TraceEvent::cuda_runtime(
                    CudaRuntimeKind::LaunchKernel,
                    Ts::from_us(0),
                    Dur::from_us(2),
                    ThreadId(1),
                )
                .with_correlation(1),
            );
            r.push(
                TraceEvent::kernel("ar", Ts::from_us(10), Dur::from_us(30), StreamId(13))
                    .with_correlation(1)
                    .with_class(KernelClass::Collective(lumos_trace::CommMeta {
                        kind: lumos_trace::CollectiveKind::AllReduce,
                        group: 42,
                        seq: 0,
                        bytes: 1024,
                    })),
            );
            c.push_rank(r);
        }
        let g = build_graph(&c, &BuildOptions::default()).unwrap();
        assert_eq!(g.stats().collective_instances, 1);
        assert_eq!(g.collectives()[&(42, 0)].len(), 2);
        assert_eq!(g.group_ranks(42).unwrap().len(), 2);
    }

    #[test]
    fn invalid_trace_rejected() {
        let mut r = RankTrace::new(0);
        // Orphan kernel (no launch).
        r.push(TraceEvent::kernel("k", Ts(0), Dur(1), StreamId(7)).with_correlation(5));
        let mut c = ClusterTrace::new("bad");
        c.push_rank(r);
        assert!(matches!(
            build_graph(&c, &BuildOptions::default()),
            Err(CoreError::Trace(_))
        ));
    }

    #[test]
    fn empty_trace_builds_empty_graph() {
        let c = ClusterTrace::new("empty");
        let g = build_graph(&c, &BuildOptions::default()).unwrap();
        assert!(g.is_empty());
    }
}
