//! The replay simulator — the paper's Algorithm 1.
//!
//! Tasks wait for their *fixed* dependencies (thread/stream chains,
//! launch edges, event-based inter-stream edges), then execute on
//! their processor, advancing its availability. Two behaviors go
//! beyond plain list scheduling:
//!
//! * **Runtime dependencies**: a blocking synchronization call must
//!   wait for "the last kernel on a specific stream, but which kernel
//!   will be last cannot be known prior to execution" (§3.5). When a
//!   sync task is picked, the simulator snapshots the live
//!   last-enqueued kernel of each target stream and defers the sync
//!   until those kernels complete.
//! * **Collective rendezvous**: kernels of one collective instance
//!   (same communicator and sequence) start simultaneously once every
//!   member rank has reached them — this cross-rank coupling is what
//!   produces exposed communication time.
//!
//! Ready tasks are ordered by original trace timestamp (ties by task
//! id), making replays bit-deterministic.

use crate::error::CoreError;
use crate::graph::ExecutionGraph;
use crate::task::{DepKind, ProcIdx, Processor, TaskId, TaskKind};
use lumos_trace::{
    ClusterTrace, CudaRuntimeKind, Dur, RankId, RankTrace, StreamId, TraceEvent, Ts,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// Which collective instances rendezvous across ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RendezvousMode {
    /// Every collective synchronizes all members (NCCL reality;
    /// Lumos).
    All,
    /// Only point-to-point send/recv pairs couple ranks; all-reduce
    /// style collectives run locally with their recorded durations.
    /// This is the dPRO baseline's blind spot: its global dataflow
    /// graph carries explicit cross-worker transfer edges, but it does
    /// not model NCCL's synchronized execution of collectives, so
    /// straggler-induced waits vanish.
    SendRecvOnly,
}

/// Timing constants of the replay model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOptions {
    /// Delay between a launch call completing and the kernel becoming
    /// runnable on an idle stream.
    pub launch_gap: Dur,
    /// Host-side cost of a synchronization call.
    pub sync_call: Dur,
    /// Latency between a GPU completion and the blocked host thread
    /// observing it.
    pub sync_poll: Dur,
    /// Cross-rank collective coupling.
    pub rendezvous: RendezvousMode,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            launch_gap: Dur::from_us(2),
            sync_call: Dur::from_us(2),
            sync_poll: Dur(500),
            rendezvous: RendezvousMode::All,
        }
    }
}

/// Simulated schedule: a start and end time for every task.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Simulated start per task (indexed by task id).
    pub starts: Vec<Ts>,
    /// Simulated end per task.
    pub ends: Vec<Ts>,
    /// Runtime dependencies resolved during simulation:
    /// `(blocking sync task, kernel it waited on)`. Analysis uses
    /// these as extra graph edges (they are not fixed edges).
    pub runtime_deps: Vec<(TaskId, TaskId)>,
}

impl SimResult {
    /// End-to-end simulated time (max end − min start).
    pub fn makespan(&self) -> Dur {
        let min = self.starts.iter().copied().min().unwrap_or(Ts::ZERO);
        let max = self.ends.iter().copied().max().unwrap_or(Ts::ZERO);
        max - min
    }

    /// Materializes the simulated schedule as a trace (the paper:
    /// "the simulation generates a trace similar to the input trace"),
    /// enabling breakdown / SM-utilization analysis of the replay.
    ///
    /// This is the replay simulator's full-trace product; call it only
    /// when the trace itself is consumed (e.g. `--out`, SM-utilization
    /// timelines). Estimation paths never need it: the makespan,
    /// breakdown and pipeline-communication time come straight from
    /// the graph and this schedule ([`crate::Replayed::breakdown`],
    /// [`crate::Replayed::pipeline_comm_secs_per_rank`]), and
    /// [`crate::Replayed::trace`] builds the trace on demand.
    pub fn to_trace(&self, graph: &ExecutionGraph, label: &str) -> ClusterTrace {
        let mut per_rank: HashMap<RankId, RankTrace> = HashMap::new();
        for (i, task) in graph.tasks().iter().enumerate() {
            let proc = graph.processor(task.processor);
            let rank = proc.rank();
            let (ts, dur) = (self.starts[i], self.ends[i] - self.starts[i]);
            let event = match (&task.kind, proc) {
                (TaskKind::CpuOp, Processor::Thread { tid, .. }) => {
                    TraceEvent::cpu_op(task.name.clone(), ts, dur, tid)
                }
                (TaskKind::Runtime(kind), Processor::Thread { tid, .. }) => {
                    let mut e = TraceEvent::cuda_runtime(*kind, ts, dur, tid);
                    e.name = task.name.clone();
                    if task.correlation != 0 {
                        e = e.with_correlation(task.correlation);
                    }
                    e
                }
                (TaskKind::Kernel(class), Processor::Stream { stream, .. }) => {
                    TraceEvent::kernel(task.name.clone(), ts, dur, stream)
                        .with_correlation(task.correlation)
                        .with_class(*class)
                }
                (kind, proc) => unreachable!("task kind {kind:?} on processor {proc}"),
            };
            per_rank
                .entry(rank)
                .or_insert_with(|| RankTrace::new(rank))
                .push(event);
        }
        let mut ranks: Vec<(RankId, RankTrace)> = per_rank.into_iter().collect();
        ranks.sort_unstable_by_key(|&(r, _)| r);
        let mut cluster = ClusterTrace::new(label);
        for (_, mut t) in ranks {
            t.sort();
            cluster.push_rank(t);
        }
        cluster
    }
}

struct CollSim {
    arrived: usize,
    ready_max: Ts,
}

/// Replays an execution graph, producing per-task simulated times.
///
/// # Errors
///
/// Returns [`CoreError::SimulationStuck`] when tasks remain
/// unexecutable (mismatched collectives or a dependency bug).
pub fn simulate(graph: &ExecutionGraph, opts: &SimOptions) -> Result<SimResult, CoreError> {
    let n = graph.len();
    let mut remaining: Vec<u32> = (0..n as u32).map(|t| graph.pred_count(t)).collect();
    let mut start_lb: Vec<Ts> = vec![Ts::ZERO; n];
    let mut starts: Vec<Ts> = vec![Ts::ZERO; n];
    let mut ends: Vec<Ts> = vec![Ts::ZERO; n];
    let mut done: Vec<bool> = vec![false; n];
    let mut proc_avail: Vec<Ts> = vec![Ts::ZERO; graph.processors().len()];
    let mut ready: BinaryHeap<Reverse<(Ts, TaskId)>> = BinaryHeap::new();
    // Per stream processor: the last-enqueued kernel (greatest enqueue
    // seq whose launch has completed).
    let mut last_enqueued: HashMap<ProcIdx, (u32, TaskId)> = HashMap::new();
    // Deferred syncs: kernel -> syncs waiting on it.
    let mut sync_waiters: HashMap<TaskId, Vec<TaskId>> = HashMap::new();
    // sync -> (unresolved deps, latest dep end).
    let mut sync_state: HashMap<TaskId, (u32, Ts)> = HashMap::new();
    // Collective rendezvous state.
    let mut coll_state: HashMap<(u64, u32), CollSim> = HashMap::new();
    // (rank, stream) -> proc and per-rank stream processors.
    let mut stream_proc: HashMap<(RankId, StreamId), ProcIdx> = HashMap::new();
    let mut rank_streams: HashMap<RankId, Vec<ProcIdx>> = HashMap::new();
    for (i, p) in graph.processors().iter().enumerate() {
        if let Processor::Stream { rank, stream } = *p {
            stream_proc.insert((rank, stream), i as ProcIdx);
            rank_streams.entry(rank).or_default().push(i as ProcIdx);
        }
    }
    // Task -> collective key, for rendezvous lookup. The expected
    // arrival count is the communicator's rank count (a mismatched
    // instance hangs, as it would on real NCCL).
    let mut coll_of: HashMap<TaskId, (u64, u32)> = HashMap::new();
    let mut coll_expected: HashMap<(u64, u32), usize> = HashMap::new();
    for (&key, members) in graph.collectives() {
        let expected = graph.group_ranks(key.0).map_or(members.len(), <[_]>::len);
        if expected <= 1 {
            continue;
        }
        if opts.rendezvous == RendezvousMode::SendRecvOnly {
            let is_sendrecv = members.iter().any(|&m| {
                matches!(
                    graph.task(m).comm_meta(),
                    Some(meta) if meta.kind == lumos_trace::CollectiveKind::SendRecv
                )
            });
            if !is_sendrecv {
                continue;
            }
        }
        for &m in members {
            coll_of.insert(m, key);
        }
        coll_expected.insert(key, expected);
    }

    for t in 0..n as u32 {
        if remaining[t as usize] == 0 {
            ready.push(Reverse((graph.task(t).orig_start, t)));
        }
    }

    let mut completions: VecDeque<(TaskId, Ts, Ts)> = VecDeque::new();
    let mut completed_count = 0usize;
    let mut runtime_deps: Vec<(TaskId, TaskId)> = Vec::new();

    while let Some(Reverse((_, t))) = ready.pop() {
        let task = graph.task(t);
        let p = task.processor as usize;
        let ready_time = start_lb[t as usize].max(proc_avail[p]);

        if let Some(&key) = coll_of.get(&t) {
            // Collective rendezvous: defer until all members arrive.
            let members = &graph.collectives()[&key];
            let expected = coll_expected[&key];
            let state = coll_state.entry(key).or_insert(CollSim {
                arrived: 0,
                ready_max: Ts::ZERO,
            });
            state.arrived += 1;
            state.ready_max = state.ready_max.max(ready_time);
            if state.arrived == expected {
                let start = state.ready_max;
                for &m in members {
                    completions.push_back((m, start, start + graph.task(m).duration));
                }
            }
        } else if task.kind.is_blocking_sync() {
            // Runtime dependencies: snapshot the live last-enqueued
            // kernels of the target stream(s).
            let rank = graph.processor(task.processor).rank();
            let targets: Vec<ProcIdx> = match task.kind {
                TaskKind::Runtime(CudaRuntimeKind::StreamSynchronize { stream }) => stream_proc
                    .get(&(rank, stream))
                    .copied()
                    .into_iter()
                    .collect(),
                TaskKind::Runtime(CudaRuntimeKind::DeviceSynchronize) => {
                    rank_streams.get(&rank).cloned().unwrap_or_default()
                }
                _ => Vec::new(),
            };
            let mut unmet = 0u32;
            let mut latest = Ts::ZERO;
            for sp in targets {
                if let Some(&(_, k)) = last_enqueued.get(&sp) {
                    runtime_deps.push((t, k));
                    if done[k as usize] {
                        latest = latest.max(ends[k as usize]);
                    } else {
                        sync_waiters.entry(k).or_default().push(t);
                        unmet += 1;
                    }
                }
            }
            if unmet == 0 {
                let start = ready_time;
                let end = (start + opts.sync_call).max(latest + opts.sync_poll);
                completions.push_back((t, start, end));
            } else {
                sync_state.insert(t, (unmet, latest));
                starts[t as usize] = ready_time; // provisional start
            }
        } else {
            let start = ready_time;
            completions.push_back((t, start, start + task.duration));
        }

        // Drain the completion queue: record times, advance
        // processors, propagate to successors, resolve deferred syncs.
        while let Some((c, start, end)) = completions.pop_front() {
            debug_assert!(!done[c as usize], "task {c} completed twice");
            starts[c as usize] = start;
            ends[c as usize] = end;
            done[c as usize] = true;
            completed_count += 1;
            let cp = graph.task(c).processor as usize;
            proc_avail[cp] = proc_avail[cp].max(end);

            for edge in graph.successors(c) {
                let latency = match edge.kind {
                    DepKind::KernelLaunch => opts.launch_gap,
                    _ => Dur::ZERO,
                };
                let to = edge.to as usize;
                start_lb[to] = start_lb[to].max(end + latency);
                remaining[to] -= 1;
                if remaining[to] == 0 {
                    ready.push(Reverse((graph.task(edge.to).orig_start, edge.to)));
                }
            }

            // A completed launch makes its kernel "enqueued".
            if matches!(graph.task(c).kind, TaskKind::Runtime(k) if k.launches_work()) {
                for edge in graph.successors(c) {
                    if edge.kind == DepKind::KernelLaunch {
                        let k = edge.to;
                        let kp = graph.task(k).processor;
                        if let Some(seq) = graph.enqueue_seq(k) {
                            let entry = last_enqueued.entry(kp).or_insert((seq, k));
                            if seq >= entry.0 {
                                *entry = (seq, k);
                            }
                        }
                    }
                }
            }

            // A completed kernel may release deferred syncs.
            if let Some(waiters) = sync_waiters.remove(&c) {
                for s in waiters {
                    let (unmet, latest) = sync_state.get_mut(&s).expect("waiting sync has state");
                    *unmet -= 1;
                    *latest = (*latest).max(end);
                    if *unmet == 0 {
                        let (_, latest) = sync_state.remove(&s).expect("state exists");
                        let start = starts[s as usize];
                        let send = (start + opts.sync_call).max(latest + opts.sync_poll);
                        completions.push_back((s, start, send));
                    }
                }
            }
        }
    }

    if completed_count != n {
        return Err(CoreError::SimulationStuck {
            completed: completed_count,
            total: n,
        });
    }
    Ok(SimResult {
        starts,
        ends,
        runtime_deps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_graph, BuildOptions};
    use crate::task::{SegmentTag, Task};
    use lumos_trace::KernelClass;

    fn mk_graph() -> ExecutionGraph {
        ExecutionGraph::new()
    }

    fn add(g: &mut ExecutionGraph, proc: Processor, kind: TaskKind, dur: u64, orig: u64) -> TaskId {
        let p = g.processor_idx(proc);
        g.add_task(Task {
            name: "t".into(),
            kind,
            processor: p,
            duration: Dur(dur),
            orig_start: Ts(orig),
            correlation: 0,
            tag: SegmentTag::default(),
        })
    }

    fn thread0() -> Processor {
        Processor::Thread {
            rank: RankId(0),
            tid: lumos_trace::ThreadId(1),
        }
    }

    #[test]
    fn chain_executes_sequentially() {
        let mut g = mk_graph();
        let a = add(&mut g, thread0(), TaskKind::CpuOp, 10, 0);
        let b = add(&mut g, thread0(), TaskKind::CpuOp, 20, 10);
        g.add_edge(a, b, DepKind::IntraThread);
        let r = simulate(&g, &SimOptions::default()).unwrap();
        assert_eq!(r.starts[a as usize], Ts(0));
        assert_eq!(r.ends[a as usize], Ts(10));
        assert_eq!(r.starts[b as usize], Ts(10));
        assert_eq!(r.makespan(), Dur(30));
    }

    #[test]
    fn processor_serializes_independent_tasks() {
        // Two tasks on one processor with no edge between them: the
        // processor still runs them one at a time, in orig_start
        // order.
        let mut g = mk_graph();
        let a = add(&mut g, thread0(), TaskKind::CpuOp, 10, 5);
        let b = add(&mut g, thread0(), TaskKind::CpuOp, 10, 0);
        let r = simulate(&g, &SimOptions::default()).unwrap();
        // b picked first (earlier orig_start).
        assert_eq!(r.starts[b as usize], Ts(0));
        assert_eq!(r.starts[a as usize], Ts(10));
    }

    #[test]
    fn launch_gap_applied() {
        let mut g = mk_graph();
        let l = add(
            &mut g,
            thread0(),
            TaskKind::Runtime(CudaRuntimeKind::LaunchKernel),
            4,
            0,
        );
        let k = add(
            &mut g,
            Processor::Stream {
                rank: RankId(0),
                stream: StreamId(7),
            },
            TaskKind::Kernel(KernelClass::Other),
            100,
            10,
        );
        g.add_edge(l, k, DepKind::KernelLaunch);
        g.register_kernel(k, l);
        let opts = SimOptions::default();
        let r = simulate(&g, &opts).unwrap();
        assert_eq!(r.starts[k as usize], Ts(4) + opts.launch_gap);
    }

    #[test]
    fn collective_rendezvous_synchronizes_members() {
        let mut g = mk_graph();
        // Two ranks: rank 1's kernel becomes ready later.
        let k0 = add(
            &mut g,
            Processor::Stream {
                rank: RankId(0),
                stream: StreamId(13),
            },
            TaskKind::Kernel(KernelClass::Other),
            50,
            0,
        );
        let blocker = add(
            &mut g,
            Processor::Stream {
                rank: RankId(1),
                stream: StreamId(13),
            },
            TaskKind::Kernel(KernelClass::Other),
            300,
            0,
        );
        let k1 = add(
            &mut g,
            Processor::Stream {
                rank: RankId(1),
                stream: StreamId(13),
            },
            TaskKind::Kernel(KernelClass::Other),
            50,
            1,
        );
        g.add_edge(blocker, k1, DepKind::IntraStream);
        g.register_collective(9, 0, k0, RankId(0));
        g.register_collective(9, 0, k1, RankId(1));
        let r = simulate(&g, &SimOptions::default()).unwrap();
        // k0 waits for k1's readiness (after the 300ns blocker).
        assert_eq!(r.starts[k0 as usize], Ts(300));
        assert_eq!(r.starts[k1 as usize], Ts(300));
        assert_eq!(r.ends[k0 as usize], Ts(350));
    }

    #[test]
    fn stream_sync_waits_for_last_enqueued_kernel() {
        let stream = StreamId(7);
        let mut g = mk_graph();
        let l = add(
            &mut g,
            thread0(),
            TaskKind::Runtime(CudaRuntimeKind::LaunchKernel),
            4,
            0,
        );
        let sync = add(
            &mut g,
            thread0(),
            TaskKind::Runtime(CudaRuntimeKind::StreamSynchronize { stream }),
            2,
            4,
        );
        let k = add(
            &mut g,
            Processor::Stream {
                rank: RankId(0),
                stream,
            },
            TaskKind::Kernel(KernelClass::Other),
            1000,
            10,
        );
        g.add_edge(l, sync, DepKind::IntraThread);
        g.add_edge(l, k, DepKind::KernelLaunch);
        g.register_kernel(k, l);
        let opts = SimOptions::default();
        let r = simulate(&g, &opts).unwrap();
        // Kernel runs 4+2000(gap) .. 3004; sync must end after it.
        let k_end = r.ends[k as usize];
        assert_eq!(r.ends[sync as usize], k_end + opts.sync_poll);
        assert_eq!(r.starts[sync as usize], Ts(4));
    }

    #[test]
    fn sync_without_enqueued_work_is_fast() {
        let stream = StreamId(7);
        let mut g = mk_graph();
        let sync = add(
            &mut g,
            thread0(),
            TaskKind::Runtime(CudaRuntimeKind::StreamSynchronize { stream }),
            2,
            0,
        );
        let opts = SimOptions::default();
        let r = simulate(&g, &opts).unwrap();
        assert_eq!(r.ends[sync as usize], Ts::ZERO + opts.sync_call);
    }

    #[test]
    fn mismatched_collective_reports_stuck() {
        let mut g = mk_graph();
        let k0 = add(
            &mut g,
            Processor::Stream {
                rank: RankId(0),
                stream: StreamId(13),
            },
            TaskKind::Kernel(KernelClass::Other),
            50,
            0,
        );
        g.register_collective(9, 0, k0, RankId(0));
        // Pretend the group has another rank that never issues seq 0.
        let k1 = add(
            &mut g,
            Processor::Stream {
                rank: RankId(1),
                stream: StreamId(13),
            },
            TaskKind::Kernel(KernelClass::Other),
            50,
            0,
        );
        g.register_collective(9, 1, k1, RankId(1));
        // Graph validation would reject this; simulate directly to
        // exercise the stuck path.
        let err = simulate(&g, &SimOptions::default()).unwrap_err();
        assert!(matches!(err, CoreError::SimulationStuck { .. }));
    }

    #[test]
    fn simulation_is_deterministic() {
        let mut g = mk_graph();
        let mut prev = None;
        for i in 0..50 {
            let t = add(&mut g, thread0(), TaskKind::CpuOp, 7, i);
            if let Some(p) = prev {
                g.add_edge(p, t, DepKind::IntraThread);
            }
            prev = Some(t);
        }
        let a = simulate(&g, &SimOptions::default()).unwrap();
        let b = simulate(&g, &SimOptions::default()).unwrap();
        assert_eq!(a.starts, b.starts);
        assert_eq!(a.ends, b.ends);
    }

    #[test]
    fn to_trace_round_trips_through_builder() {
        // A simulated trace must itself be a valid trace.
        let t1 = lumos_trace::ThreadId(1);
        let mut r = RankTrace::new(0);
        r.push(TraceEvent::cpu_op("op", Ts(0), Dur(5_000), t1));
        r.push(
            TraceEvent::cuda_runtime(CudaRuntimeKind::LaunchKernel, Ts(5_000), Dur(2_000), t1)
                .with_correlation(1),
        );
        r.push(TraceEvent::kernel("k", Ts(10_000), Dur(50_000), StreamId(7)).with_correlation(1));
        let mut c = ClusterTrace::new("t");
        c.push_rank(r);
        let g = build_graph(&c, &BuildOptions::default()).unwrap();
        let sim = simulate(&g, &SimOptions::default()).unwrap();
        let out = sim.to_trace(&g, "replay");
        out.validate().unwrap();
        assert_eq!(out.total_events(), 3);
        assert_eq!(out.label, "replay");
    }
}
