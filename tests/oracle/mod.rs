//! The reference simulator: `lumos_core::simulate` as it was before
//! the symmetry quotient and the dense-state kernel, copied verbatim
//! (one `HashMap`-keyed loop over every task, runtime dependencies in
//! pop order). The differential tests compare the product against it
//! bit for bit; it reads only the graph's public accessors.

use lumos_core::{CoreError, DepKind, ExecutionGraph, ProcIdx, Processor, RendezvousMode};
use lumos_core::{SimOptions, SimResult, TaskId, TaskKind};
use lumos_trace::{CudaRuntimeKind, Dur, RankId, StreamId, Ts};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

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
