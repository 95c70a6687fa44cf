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
//! id), making replays bit-deterministic. The loop keeps its state in
//! vectors, per simulated task, processor and collective instance.
//!
//! # One simulation per distinct rank program
//!
//! Reassembly gives every rank with the same `(tp mod old_tp, dp mod
//! old_dp, stage)` the same program, so a scale-out holds far fewer
//! distinct programs than ranks (2x4x16 from a 2x2x1 base: 128 ranks,
//! 8 programs). [`simulate`] groups ranks into classes, simulates one
//! representative per class and copies its start and end times to the
//! other members. The classes are checked on the graph; they are used
//! only when all three conditions hold:
//!
//! 1. **Programs equal.** A member's tasks, in id order, equal its
//!    representative's at the same local index: kind (communicator id
//!    aside), duration, original start, thread or stream id,
//!    predecessor count, enqueue position, launching task, and
//!    successors as local offsets with their dependency kinds. No
//!    fixed edge leaves a rank. Ranks are bucketed by a fingerprint of
//!    a few sampled tasks and compared exactly up to the first
//!    difference, so ranks that differ cost next to nothing.
//! 2. **Collectives consistent.** Every collective instance has as
//!    many members as its communicator has ranks, and classes are
//!    refined until, for each class and local index, the instances of
//!    all members meet the same set of (class, local index) pairs. A
//!    quotient instance is that set's representative tasks, and waits
//!    for one arrival from each.
//! 3. **Pop order cannot matter** (checked on representatives):
//!    (a) each processor's tasks form one chain of same-processor
//!    edges, so a processor is free exactly when its chain predecessor
//!    ends; (b) every launch into a stream that a blocking sync drains
//!    is an ancestor or a descendant of that sync, so the sync's
//!    last-enqueued snapshot is fixed by the graph. (A snapshot kernel
//!    that is already done, or one the sync is deferred behind, gives
//!    the same end.)
//!
//! Why this is exact: under (a) and (b) every start and end is the
//! unique solution of the dependency and rendezvous equations,
//! whatever order ready tasks are taken in. A task starts at its
//! latest predecessor's end (plus the launch gap after a launch), a
//! collective at the latest such time over its instance, and a sync
//! ends after the kernels the graph fixes for it. By (1) a member's
//! equations are its representative's under renaming, and by (2) its
//! collectives meet the same representatives, so the representatives'
//! times, copied to every member, solve the full system — the one the
//! per-rank run solves.
//!
//! When no two ranks match, when a condition fails, or when the
//! quotient run is stuck, the same loop runs every rank as its own
//! class, taking ready tasks in the order above, so an error reports
//! the per-rank run's counts.

use crate::error::CoreError;
use crate::graph::ExecutionGraph;
use crate::task::{DepKind, ProcIdx, Processor, TaskId, TaskKind};
use lumos_trace::{
    ClusterTrace, CollectiveKind, CommMeta, CudaRuntimeKind, Dur, KernelClass, RankId, RankTrace,
    StreamId, TraceEvent, Ts,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::ops::Range;

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
    /// `(blocking sync task, kernel it waited on)`, sorted by sync and
    /// then kernel. Analysis uses these as extra graph edges (they are
    /// not fixed edges).
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

/// Replays an execution graph, producing per-task simulated times.
///
/// Runs one representative per class of identical ranks when the
/// module's exactness conditions hold, and every rank otherwise; the
/// result is the same either way.
///
/// # Errors
///
/// Returns [`CoreError::SimulationStuck`] when tasks remain
/// unexecutable (mismatched collectives or a dependency bug).
pub fn simulate(graph: &ExecutionGraph, opts: &SimOptions) -> Result<SimResult, CoreError> {
    let quotient = Quotient::find(graph, opts);
    let mut result = match quotient.and_then(|q| q.run(graph, opts)) {
        Some(result) => result,
        None => run(graph, opts, &Plan::per_rank(graph, opts)).map_err(|completed| {
            CoreError::SimulationStuck {
                completed,
                total: graph.len(),
            }
        })?,
    };
    result.runtime_deps.sort_unstable();
    Ok(result)
}

/// The number of rank classes [`simulate`] finds on `graph`, or `None`
/// when it runs every rank as its own class from the start. Exposed
/// for the differential tests, which must see that the quotient is
/// taken.
#[doc(hidden)]
pub fn quotient_classes(graph: &ExecutionGraph, opts: &SimOptions) -> Option<usize> {
    Quotient::find(graph, opts).map(|q| q.plan.tasks.len())
}

/// The empty slot of the per-task tables.
const NONE: u32 = u32::MAX;

/// What one run of the simulation loop covers. The loop keeps a
/// simulated task's state in a slot; slots are numbered range after
/// range, so a task's successors, which lie in its range, sit as far
/// from it in slots as in ids.
struct Plan {
    /// The simulated tasks, as id ranges.
    tasks: Vec<Range<TaskId>>,
    /// Per slot: its task's rendezvous instance (index into `insts`),
    /// or [`NONE`].
    inst_of: Vec<u32>,
    /// Per instance: its members' span in `members`, and how many
    /// arrivals start it.
    insts: Vec<(Range<usize>, usize)>,
    /// Instance members as (task, slot), instance after instance.
    members: Vec<(TaskId, u32)>,
}

impl Plan {
    /// Every task, with the graph's collective instances: each waits
    /// for its communicator's rank count, so a mismatched instance
    /// hangs, as it would on real NCCL.
    fn per_rank(graph: &ExecutionGraph, opts: &SimOptions) -> Plan {
        let mut plan = Plan::new(std::iter::once(0..graph.len() as TaskId).collect());
        for (&(group, _), members) in graph.collectives() {
            let expected = graph.group_ranks(group).map_or(members.len(), <[_]>::len);
            if expected > 1 && rendezvous(graph, opts, members) {
                plan.push_inst(members.iter().map(|&m| (m, m)), expected);
            }
        }
        plan
    }

    fn new(tasks: Vec<Range<TaskId>>) -> Plan {
        let slots = tasks.iter().map(ExactSizeIterator::len).sum();
        Plan {
            tasks,
            inst_of: vec![NONE; slots],
            insts: Vec::new(),
            members: Vec::new(),
        }
    }

    fn push_inst(&mut self, members: impl Iterator<Item = (TaskId, u32)>, expected: usize) {
        let id = self.insts.len() as u32;
        let first = self.members.len();
        for (m, slot) in members {
            self.inst_of[slot as usize] = id;
            self.members.push((m, slot));
        }
        self.insts.push((first..self.members.len(), expected));
    }
}

/// Whether a collective instance couples its ranks under `opts`.
fn rendezvous(graph: &ExecutionGraph, opts: &SimOptions, members: &[TaskId]) -> bool {
    opts.rendezvous == RendezvousMode::All
        || members.iter().any(|&m| {
            matches!(
                graph.task(m).comm_meta(),
                Some(meta) if meta.kind == CollectiveKind::SendRecv
            )
        })
}

/// Each rank's stream processors, for resolving what a blocking sync
/// drains.
struct Streams(Vec<(RankId, StreamId, ProcIdx)>);

impl Streams {
    fn of(graph: &ExecutionGraph) -> Streams {
        let mut streams: Vec<(RankId, StreamId, ProcIdx)> = graph
            .processors()
            .iter()
            .enumerate()
            .filter_map(|(i, p)| match *p {
                Processor::Stream { rank, stream } => Some((rank, stream, i as ProcIdx)),
                Processor::Thread { .. } => None,
            })
            .collect();
        streams.sort_unstable();
        Streams(streams)
    }

    /// The stream processors a blocking sync of `kind` on `rank`
    /// drains: one stream, every stream of the rank, or none.
    fn drained(&self, rank: RankId, kind: TaskKind) -> &[(RankId, StreamId, ProcIdx)] {
        let of_rank = {
            let lo = self.0.partition_point(|s| s.0 < rank);
            let hi = self.0.partition_point(|s| s.0 <= rank);
            &self.0[lo..hi]
        };
        match kind {
            TaskKind::Runtime(CudaRuntimeKind::StreamSynchronize { stream }) => {
                match of_rank.binary_search_by_key(&stream, |s| s.1) {
                    Ok(i) => &of_rank[i..=i],
                    Err(_) => &[],
                }
            }
            TaskKind::Runtime(CudaRuntimeKind::DeviceSynchronize) => of_rank,
            _ => &[],
        }
    }
}

/// Runs the simulation loop over `plan`'s tasks. Tasks outside the
/// plan keep zero times. Returns the number of completed tasks when
/// some never become runnable.
fn run(graph: &ExecutionGraph, opts: &SimOptions, plan: &Plan) -> Result<SimResult, usize> {
    let (n, slots) = (graph.len(), plan.inst_of.len());
    let mut remaining: Vec<u32> = vec![0; slots];
    let mut start_lb: Vec<Ts> = vec![Ts::ZERO; slots];
    let mut done: Vec<bool> = vec![false; slots];
    let mut starts: Vec<Ts> = vec![Ts::ZERO; n];
    let mut ends: Vec<Ts> = vec![Ts::ZERO; n];
    let mut proc_avail: Vec<Ts> = vec![Ts::ZERO; graph.processors().len()];
    // Per stream processor: the last-enqueued kernel (greatest enqueue
    // seq whose launch has completed), as (seq, kernel, slot).
    let mut last_enqueued: Vec<Option<(u32, TaskId, u32)>> = vec![None; graph.processors().len()];
    // Deferred syncs: (sync, slot, unresolved kernels, latest kernel
    // end).
    let mut deferred: Vec<(TaskId, u32, u32, Ts)> = Vec::new();
    // Per kernel slot: its first wait (index into `waits`) or NONE; a
    // wait is (deferred sync, next wait on the same kernel).
    let mut first_wait: Vec<u32> = vec![NONE; slots];
    let mut waits: Vec<(u32, u32)> = Vec::new();
    // Per instance: (arrivals so far, latest arrival's ready time).
    let mut arrivals: Vec<(usize, Ts)> = vec![(0, Ts::ZERO); plan.insts.len()];
    let streams = Streams::of(graph);

    // Ready tasks by (original start, id), with their slots.
    let mut ready: BinaryHeap<Reverse<(Ts, TaskId, u32)>> = BinaryHeap::new();
    let mut slot = 0u32;
    for range in &plan.tasks {
        for t in range.clone() {
            remaining[slot as usize] = graph.pred_count(t);
            if remaining[slot as usize] == 0 {
                ready.push(Reverse((graph.task(t).orig_start, t, slot)));
            }
            slot += 1;
        }
    }

    let mut completions: VecDeque<(TaskId, u32, Ts, Ts)> = VecDeque::new();
    let mut completed_count = 0usize;
    let mut runtime_deps: Vec<(TaskId, TaskId)> = Vec::new();

    while let Some(Reverse((_, t, ts))) = ready.pop() {
        let task = graph.task(t);
        let p = task.processor as usize;
        let ready_time = start_lb[ts as usize].max(proc_avail[p]);
        let inst = plan.inst_of[ts as usize];

        if inst != NONE {
            // Collective rendezvous: defer until all members arrive.
            let (members, expected) = &plan.insts[inst as usize];
            let (arrived, ready_max) = &mut arrivals[inst as usize];
            *arrived += 1;
            *ready_max = (*ready_max).max(ready_time);
            if *arrived == *expected {
                let start = *ready_max;
                for &(m, ms) in &plan.members[members.clone()] {
                    completions.push_back((m, ms, start, start + graph.task(m).duration));
                }
            }
        } else if task.kind.is_blocking_sync() {
            // Runtime dependencies: snapshot the live last-enqueued
            // kernels of the target stream(s).
            let rank = graph.processor(task.processor).rank();
            let pending = deferred.len() as u32;
            let mut unmet = 0u32;
            let mut latest = Ts::ZERO;
            for &(_, _, sp) in streams.drained(rank, task.kind) {
                if let Some((_, k, ks)) = last_enqueued[sp as usize] {
                    runtime_deps.push((t, k));
                    if done[ks as usize] {
                        latest = latest.max(ends[k as usize]);
                    } else {
                        waits.push((pending, first_wait[ks as usize]));
                        first_wait[ks as usize] = (waits.len() - 1) as u32;
                        unmet += 1;
                    }
                }
            }
            if unmet == 0 {
                let start = ready_time;
                let end = (start + opts.sync_call).max(latest + opts.sync_poll);
                completions.push_back((t, ts, start, end));
            } else {
                deferred.push((t, ts, unmet, latest));
                starts[t as usize] = ready_time; // provisional start
            }
        } else {
            let start = ready_time;
            completions.push_back((t, ts, start, start + task.duration));
        }

        // Drain the completion queue: record times, advance
        // processors, propagate to successors, resolve deferred syncs.
        while let Some((c, cs, start, end)) = completions.pop_front() {
            debug_assert!(!done[cs as usize], "task {c} completed twice");
            starts[c as usize] = start;
            ends[c as usize] = end;
            done[cs as usize] = true;
            completed_count += 1;
            let completed = graph.task(c);
            let cp = completed.processor as usize;
            proc_avail[cp] = proc_avail[cp].max(end);
            // A completed launch makes its kernels "enqueued".
            let launches = matches!(completed.kind, TaskKind::Runtime(k) if k.launches_work());

            for edge in graph.successors(c) {
                let to = cs.wrapping_add(edge.to.wrapping_sub(c));
                let latency = match edge.kind {
                    DepKind::KernelLaunch => opts.launch_gap,
                    _ => Dur::ZERO,
                };
                start_lb[to as usize] = start_lb[to as usize].max(end + latency);
                remaining[to as usize] -= 1;
                if remaining[to as usize] == 0 {
                    ready.push(Reverse((graph.task(edge.to).orig_start, edge.to, to)));
                }
                if launches && edge.kind == DepKind::KernelLaunch {
                    if let Some(seq) = graph.enqueue_seq(edge.to) {
                        let kp = graph.task(edge.to).processor as usize;
                        if last_enqueued[kp].is_none_or(|(last, _, _)| seq >= last) {
                            last_enqueued[kp] = Some((seq, edge.to, to));
                        }
                    }
                }
            }

            // A completed kernel may release deferred syncs.
            let mut w = std::mem::replace(&mut first_wait[cs as usize], NONE);
            while w != NONE {
                let (pending, next) = waits[w as usize];
                let (s, ss, unmet, latest) = &mut deferred[pending as usize];
                *unmet -= 1;
                *latest = (*latest).max(end);
                if *unmet == 0 {
                    let start = starts[*s as usize];
                    let send = (start + opts.sync_call).max(*latest + opts.sync_poll);
                    completions.push_back((*s, *ss, start, send));
                }
                w = next;
            }
        }
    }

    if completed_count != slots {
        return Err(completed_count);
    }
    Ok(SimResult {
        starts,
        ends,
        runtime_deps,
    })
}

/// Classes of ranks that run the same program, and the plan that
/// simulates one representative per class (the module's quotient).
struct Quotient {
    /// Each rank's tasks, in id order.
    ranks: Vec<Range<TaskId>>,
    /// Per rank: the rank (index into `ranks`) representing its class.
    rep: Vec<usize>,
    /// The representatives' tasks and the quotient's instances.
    plan: Plan,
}

impl Quotient {
    /// The classes of `graph`'s ranks, when at least two ranks share
    /// one and every exactness condition holds.
    fn find(graph: &ExecutionGraph, opts: &SimOptions) -> Option<Quotient> {
        let spans = rank_spans(graph)?;
        let mut rep = classes_by_program(graph, &spans);
        if rep.iter().enumerate().all(|(r, &p)| r == p) {
            return None;
        }
        let ranks: Vec<Range<TaskId>> = spans.iter().map(|(_, span)| span.clone()).collect();
        let colls = Collectives::of(graph, &ranks)?;
        let images = colls.refine(&mut rep);
        if rep.iter().enumerate().all(|(r, &p)| r == p) {
            return None;
        }
        let reps: Vec<usize> = (0..ranks.len()).filter(|&r| rep[r] == r).collect();
        let mut order = OrderCheck::new(graph);
        if !reps
            .iter()
            .all(|&r| order.check(spans[r].0, ranks[r].clone()))
        {
            return None;
        }
        let mut plan = Plan::new(reps.iter().map(|&r| ranks[r].clone()).collect());
        // Each representative's first slot.
        let mut first_slot = vec![0; ranks.len()];
        let mut next = 0;
        for &r in &reps {
            first_slot[r] = next;
            next += ranks[r].len() as u32;
        }
        for &r in &reps {
            for &(local, inst) in &colls.by_rank[r] {
                if plan.inst_of[(first_slot[r] + local) as usize] != NONE {
                    continue;
                }
                let image = images.of(inst);
                if image.len() > 1 && rendezvous(graph, opts, colls.members(inst)) {
                    let members = image.iter().map(|&(c, j)| {
                        let c = c as usize;
                        (ranks[c].start + j, first_slot[c] + j)
                    });
                    plan.push_inst(members, image.len());
                }
            }
        }
        Some(Quotient { ranks, rep, plan })
    }

    /// Simulates the representatives and copies their times to every
    /// member; `None` when the run is stuck.
    fn run(self, graph: &ExecutionGraph, opts: &SimOptions) -> Option<SimResult> {
        let mut result = run(graph, opts, &self.plan).ok()?;
        for (m, &r) in self.rep.iter().enumerate() {
            if r != m {
                let (from, to) = (&self.ranks[r], self.ranks[m].start as usize);
                let from = from.start as usize..from.end as usize;
                result.starts.copy_within(from.clone(), to);
                result.ends.copy_within(from, to);
            }
        }
        let rep_deps = std::mem::take(&mut result.runtime_deps);
        for (sync, kernel) in rep_deps {
            let r = self.ranks.partition_point(|span| span.end <= sync);
            let base = self.ranks[r].start;
            for (m, _) in self.rep.iter().enumerate().filter(|&(_, &p)| p == r) {
                let shift = |t: TaskId| t - base + self.ranks[m].start;
                result.runtime_deps.push((shift(sync), shift(kernel)));
            }
        }
        Some(result)
    }
}

/// Each rank's tasks as one id range, with the rank, in id order;
/// found by galloping over the task table, so this costs a few probes
/// per rank. `None` for fewer than two ranks, or when a rank shows up
/// in two ranges. A task of another rank inside a range is caught
/// where that range is checked task by task.
fn rank_spans(graph: &ExecutionGraph) -> Option<Vec<(RankId, Range<TaskId>)>> {
    let n = graph.len() as TaskId;
    let rank = |t: TaskId| graph.processor(graph.task(t).processor).rank();
    let mut spans = Vec::new();
    let mut lo = 0;
    while lo < n {
        let r = rank(lo);
        // `last` holds r; `hi` is past the end or holds another rank.
        let (mut last, mut step) = (lo, 1);
        while last + step < n && rank(last + step) == r {
            last += step;
            step *= 2;
        }
        let mut hi = n.min(last + step);
        while hi - last > 1 {
            let mid = last + (hi - last) / 2;
            if rank(mid) == r {
                last = mid;
            } else {
                hi = mid;
            }
        }
        spans.push((r, lo..hi));
        lo = hi;
    }
    let mut seen: Vec<RankId> = spans.iter().map(|&(r, _)| r).collect();
    seen.sort_unstable();
    seen.dedup();
    (spans.len() > 1 && seen.len() == spans.len()).then_some(spans)
}

/// Classes of equal programs (condition 1): per rank, the first rank
/// (in id order) with the same program. Ranks are bucketed by a
/// fingerprint and compared exactly within a bucket.
fn classes_by_program(graph: &ExecutionGraph, spans: &[(RankId, Range<TaskId>)]) -> Vec<usize> {
    let mut rep: Vec<usize> = (0..spans.len()).collect();
    let mut order: Vec<(u64, usize)> = spans
        .iter()
        .enumerate()
        .map(|(r, (_, span))| (fingerprint(graph, span.clone()), r))
        .collect();
    order.sort_unstable();
    for bucket in order.chunk_by(|a, b| a.0 == b.0) {
        let mut reps: Vec<usize> = Vec::new();
        for &(_, r) in bucket {
            let (rank, span) = &spans[r];
            match reps
                .iter()
                .find(|&&p| same_program(graph, spans[p].1.clone(), *rank, span.clone()))
            {
                Some(&p) => rep[r] = p,
                None => reps.push(r),
            }
        }
    }
    rep
}

/// A cheap hash of a rank's program: its length and eight sampled
/// tasks' timing and fan-out.
fn fingerprint(graph: &ExecutionGraph, span: Range<TaskId>) -> u64 {
    let len = span.len() as u64;
    let mut h = len;
    let mut mix = |x: u64| h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29);
    for k in 0..8u64 {
        if len == 0 {
            break;
        }
        let t = span.start + (len * k / 8) as TaskId;
        let task = graph.task(t);
        mix(task.duration.as_ns());
        mix(task.orig_start.as_ns());
        mix(graph.successors(t).len() as u64);
    }
    h
}

/// Condition 1: `b` (on `rank_b`) runs `a`'s program, up to
/// communicator ids, and no fixed edge of either leaves its range.
/// Stops at the first difference.
fn same_program(
    graph: &ExecutionGraph,
    a: Range<TaskId>,
    rank_b: RankId,
    b: Range<TaskId>,
) -> bool {
    let len = a.len() as TaskId;
    if b.len() as TaskId != len {
        return false;
    }
    // A task's offset in its rank when inside it, else `len` or more.
    let local = |t: TaskId, lo: TaskId| t.wrapping_sub(lo);
    (0..len).all(|i| {
        let (x, y) = (a.start + i, b.start + i);
        let (tx, ty) = (graph.task(x), graph.task(y));
        tx.duration == ty.duration
            && tx.orig_start == ty.orig_start
            && same_kind(tx.kind, ty.kind)
            && same_place(graph.processor(tx.processor), graph.processor(ty.processor))
            && graph.processor(ty.processor).rank() == rank_b
            && graph.pred_count(x) == graph.pred_count(y)
            && graph.enqueue_seq(x) == graph.enqueue_seq(y)
            && match (graph.launch_of(x), graph.launch_of(y)) {
                (None, None) => true,
                (Some(lx), Some(ly)) => {
                    local(lx, a.start) < len && local(lx, a.start) == local(ly, b.start)
                }
                _ => false,
            }
            && {
                let (ex, ey) = (graph.successors(x), graph.successors(y));
                ex.len() == ey.len()
                    && ex.iter().zip(ey).all(|(ex, ey)| {
                        let off = local(ex.to, a.start);
                        ex.kind == ey.kind && off < len && local(ey.to, b.start) == off
                    })
            }
    })
}

/// Equal task kinds, with collectives compared without their
/// communicator id.
fn same_kind(a: TaskKind, b: TaskKind) -> bool {
    let blank = |meta: CommMeta| CommMeta { group: 0, ..meta };
    match (a, b) {
        (
            TaskKind::Kernel(KernelClass::Collective(x)),
            TaskKind::Kernel(KernelClass::Collective(y)),
        ) => blank(x) == blank(y),
        _ => a == b,
    }
}

/// The same thread or stream id, whatever the rank.
fn same_place(a: Processor, b: Processor) -> bool {
    match (a, b) {
        (Processor::Thread { tid: x, .. }, Processor::Thread { tid: y, .. }) => x == y,
        (Processor::Stream { stream: x, .. }, Processor::Stream { stream: y, .. }) => x == y,
        _ => false,
    }
}

/// The graph's collective instances, seen from the ranks.
struct Collectives<'g> {
    /// Per instance: its members.
    insts: Vec<&'g [TaskId]>,
    /// Per instance: its members' span in `located`.
    spans: Vec<Range<usize>>,
    /// Instance members as (rank, local index).
    located: Vec<(u32, TaskId)>,
    /// Per rank: (local index, instance) of its collective tasks, by
    /// local index.
    by_rank: Vec<Vec<(TaskId, usize)>>,
}

/// Per instance, the set of (class, local index) its members hold.
struct Images {
    spans: Vec<Range<usize>>,
    pairs: Vec<(u32, TaskId)>,
}

impl Images {
    fn of(&self, inst: usize) -> &[(u32, TaskId)] {
        &self.pairs[self.spans[inst].clone()]
    }
}

impl<'g> Collectives<'g> {
    /// `None` when an instance's member count differs from its
    /// communicator's rank count (the per-rank run reports it stuck),
    /// or a task belongs to two instances.
    fn of(graph: &'g ExecutionGraph, ranks: &[Range<TaskId>]) -> Option<Collectives<'g>> {
        let mut colls = Collectives {
            insts: Vec::with_capacity(graph.collectives().len()),
            spans: Vec::with_capacity(graph.collectives().len()),
            located: Vec::new(),
            by_rank: vec![Vec::new(); ranks.len()],
        };
        for (&(group, _), members) in graph.collectives() {
            if graph
                .group_ranks(group)
                .is_some_and(|g| g.len() != members.len())
            {
                return None;
            }
            let inst = colls.insts.len();
            let first = colls.located.len();
            for &m in members {
                let r = ranks.partition_point(|span| span.end <= m);
                let local = m - ranks[r].start;
                colls.located.push((r as u32, local));
                colls.by_rank[r].push((local, inst));
            }
            colls.insts.push(members);
            colls.spans.push(first..colls.located.len());
        }
        for list in &mut colls.by_rank {
            list.sort_unstable();
            if list.windows(2).any(|w| w[0].0 == w[1].0) {
                return None;
            }
        }
        Some(colls)
    }

    fn members(&self, inst: usize) -> &'g [TaskId] {
        self.insts[inst]
    }

    /// Each instance's image under the classes `rep`.
    fn images(&self, rep: &[usize]) -> Images {
        let mut pairs: Vec<(u32, TaskId)> = Vec::with_capacity(self.located.len());
        let mut spans = Vec::with_capacity(self.spans.len());
        let mut image = Vec::new();
        for span in &self.spans {
            image.clear();
            image.extend(
                self.located[span.clone()]
                    .iter()
                    .map(|&(r, local)| (rep[r as usize] as u32, local)),
            );
            image.sort_unstable();
            image.dedup();
            let first = pairs.len();
            pairs.extend_from_slice(&image);
            spans.push(first..pairs.len());
        }
        Images { spans, pairs }
    }

    /// Condition 2: splits classes until every member's collectives
    /// meet the same images as its representative's, and returns the
    /// images under the final classes. A split-off rank represents
    /// its new class.
    fn refine(&self, rep: &mut [usize]) -> Images {
        loop {
            let images = self.images(rep);
            let same = |a: usize, b: usize| {
                let (x, y) = (&self.by_rank[a], &self.by_rank[b]);
                x.len() == y.len()
                    && x.iter()
                        .zip(y)
                        .all(|(&(i, p), &(j, q))| i == j && images.of(p) == images.of(q))
            };
            let mut splits: Vec<Vec<usize>> = vec![Vec::new(); rep.len()];
            let mut changed = false;
            for (r, class) in rep.iter_mut().enumerate() {
                let p = *class;
                if p == r || same(p, r) {
                    continue;
                }
                changed = true;
                match splits[p].iter().find(|&&q| same(q, r)) {
                    Some(&q) => *class = q,
                    None => {
                        splits[p].push(r);
                        *class = r;
                    }
                }
            }
            if !changed {
                return images;
            }
        }
    }
}

/// Checks a representative rank's layout and condition 3, reusing its
/// buffers from rank to rank.
struct OrderCheck<'g> {
    graph: &'g ExecutionGraph,
    streams: Streams,
    /// Per task of the rank: its successor on the same processor.
    next: Vec<TaskId>,
    /// Per task of the rank: whether it has a predecessor there.
    has_prev: Vec<bool>,
    /// Per task of the rank: its position in its processor's chain.
    pos: Vec<u32>,
}

impl<'g> OrderCheck<'g> {
    fn new(graph: &'g ExecutionGraph) -> Self {
        OrderCheck {
            graph,
            streams: Streams::of(graph),
            next: Vec::new(),
            has_prev: Vec::new(),
            pos: Vec::new(),
        }
    }

    /// Every task of `span` runs on `rank`, no fixed edge leaves the
    /// span or runs from a kernel to a host task, each processor's
    /// tasks form one chain (3a), and every launch into a stream a
    /// blocking sync drains is ordered with that sync (3b).
    fn check(&mut self, rank: RankId, span: Range<TaskId>) -> bool {
        let g = self.graph;
        let (lo, len) = (span.start, span.len());
        self.next.clear();
        self.next.resize(len, NONE);
        self.has_prev.clear();
        self.has_prev.resize(len, false);
        self.pos.clear();
        self.pos.resize(len, NONE);
        // The rank's processors: (processor, tasks on it, chain head).
        let mut procs: Vec<(ProcIdx, u32, TaskId)> = Vec::new();
        let mut syncs = false;
        for t in span.clone() {
            let task = g.task(t);
            if g.processor(task.processor).rank() != rank {
                return false;
            }
            match procs.iter_mut().find(|p| p.0 == task.processor) {
                Some(p) => p.1 += 1,
                None => procs.push((task.processor, 1, NONE)),
            }
            syncs |= task.kind.is_blocking_sync();
            for e in g.successors(t) {
                let to = e.to.wrapping_sub(lo) as usize;
                if to >= len || (task.kind.is_gpu() && !g.task(e.to).kind.is_gpu()) {
                    return false;
                }
                if g.task(e.to).processor == task.processor {
                    let from = (t - lo) as usize;
                    if self.next[from] != NONE || self.has_prev[to] {
                        return false;
                    }
                    self.next[from] = e.to;
                    self.has_prev[to] = true;
                }
            }
        }
        // 3(a): one head per processor, whose chain covers it.
        for t in span.clone() {
            if !self.has_prev[(t - lo) as usize] {
                let p = procs
                    .iter_mut()
                    .find(|p| p.0 == g.task(t).processor)
                    .expect("listed");
                if p.2 != NONE {
                    return false;
                }
                p.2 = t;
            }
        }
        for &(_, count, head) in &procs {
            let (mut t, mut walked) = (head, 0u32);
            while t != NONE {
                self.pos[(t - lo) as usize] = walked;
                walked += 1;
                t = self.next[(t - lo) as usize];
            }
            if walked != count {
                return false;
            }
        }
        !syncs || self.syncs_ordered(rank, span, &procs)
    }

    /// Condition 3(b) on a rank whose processors are chains.
    fn syncs_ordered(
        &self,
        rank: RankId,
        span: Range<TaskId>,
        procs: &[(ProcIdx, u32, TaskId)],
    ) -> bool {
        let g = self.graph;
        let lo = span.start;
        let proc_of = |t: TaskId| {
            procs
                .iter()
                .position(|p| p.0 == g.task(t).processor)
                .expect("listed")
        };
        // Launches into each stream processor of the rank.
        let mut launches: Vec<(ProcIdx, TaskId)> = Vec::new();
        for t in span.clone() {
            if matches!(g.task(t).kind, TaskKind::Runtime(k) if k.launches_work()) {
                for e in g.successors(t) {
                    if e.kind == DepKind::KernelLaunch && g.enqueue_seq(e.to).is_some() {
                        launches.push((g.task(e.to).processor, t));
                    }
                }
            }
        }
        // Host ancestry as vector clocks over the rank's processors:
        // clock[t * k + p] is one past the last position on processor
        // p that reaches t (0: none). Built only if needed.
        let k = procs.len();
        let mut clock: Vec<u32> = Vec::new();
        for s in span.clone() {
            let kind = g.task(s).kind;
            if !kind.is_blocking_sync() {
                continue;
            }
            for &(_, _, sp) in self.streams.drained(rank, kind) {
                for &(_, l) in launches.iter().filter(|&&(p, _)| p == sp) {
                    let (ps, pl) = (proc_of(s), proc_of(l));
                    if ps == pl {
                        continue; // ordered by their thread's chain
                    }
                    if clock.is_empty() {
                        clock = match self.host_clocks(span.clone(), k, proc_of) {
                            Some(clock) => clock,
                            None => return false,
                        };
                    }
                    let (ls, ll) = ((s - lo) as usize, (l - lo) as usize);
                    let ancestor = clock[ls * k + pl] > self.pos[ll];
                    let descendant = clock[ll * k + ps] > self.pos[ls];
                    if !(ancestor || descendant) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Vector clocks of the rank's host tasks (see `syncs_ordered`),
    /// in a topological order over host edges; `None` if some host
    /// task is never reached.
    fn host_clocks(
        &self,
        span: Range<TaskId>,
        k: usize,
        proc_of: impl Fn(TaskId) -> usize,
    ) -> Option<Vec<u32>> {
        let g = self.graph;
        let lo = span.start;
        let host = |t: TaskId| !g.task(t).kind.is_gpu();
        let mut clock = vec![0u32; span.len() * k];
        let mut indeg: Vec<u32> = span.clone().map(|t| g.pred_count(t)).collect();
        let mut stack: Vec<TaskId> = span
            .clone()
            .filter(|&t| host(t) && indeg[(t - lo) as usize] == 0)
            .collect();
        let mut visited = 0;
        while let Some(t) = stack.pop() {
            visited += 1;
            let i = (t - lo) as usize;
            let own = i * k + proc_of(t);
            clock[own] = clock[own].max(self.pos[i] + 1);
            for e in g.successors(t) {
                if !host(e.to) {
                    continue;
                }
                let j = (e.to - lo) as usize;
                for p in 0..k {
                    clock[j * k + p] = clock[j * k + p].max(clock[i * k + p]);
                }
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    stack.push(e.to);
                }
            }
        }
        (visited == span.clone().filter(|&t| host(t)).count()).then_some(clock)
    }
}

/// The reference simulator the tests compare against (shared with the
/// root package's differential tests).
#[cfg(test)]
#[path = "../../../tests/oracle/mod.rs"]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_graph, BuildOptions};
    use crate::task::Task;
    use crate::Lumos;
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

    // ----- The quotient: each fallback, checked against the reference -----

    /// `simulate` equals the reference simulator bit for bit (runtime
    /// dependencies compared as sorted sets), stuck errors included.
    fn assert_matches_reference(g: &ExecutionGraph, opts: &SimOptions) {
        match (simulate(g, opts), oracle::simulate(g, opts)) {
            (Ok(ours), Ok(mut reference)) => {
                reference.runtime_deps.sort_unstable();
                assert_eq!(ours.starts, reference.starts);
                assert_eq!(ours.ends, reference.ends);
                assert_eq!(ours.runtime_deps, reference.runtime_deps);
            }
            (
                Err(CoreError::SimulationStuck { completed, total }),
                Err(CoreError::SimulationStuck {
                    completed: c,
                    total: t,
                }),
            ) => assert_eq!((completed, total), (c, t)),
            (ours, reference) => panic!("ours {ours:?}, reference {reference:?}"),
        }
    }

    fn stream(rank: u32, stream: u32) -> Processor {
        Processor::Stream {
            rank: RankId(rank),
            stream: StreamId(stream),
        }
    }

    fn thread(rank: u32, tid: u32) -> Processor {
        Processor::Thread {
            rank: RankId(rank),
            tid: lumos_trace::ThreadId(tid),
        }
    }

    fn collective(group: u64, kind: lumos_trace::CollectiveKind) -> TaskKind {
        TaskKind::Kernel(KernelClass::Collective(lumos_trace::CommMeta {
            kind,
            group,
            seq: 0,
            bytes: 1 << 20,
        }))
    }

    /// Appends one rank's program: a compute kernel and a collective
    /// on `group`, launched from thread 1, then a device sync. Returns
    /// the collective kernel. `scale` stretches every duration.
    fn add_rank(g: &mut ExecutionGraph, rank: u32, group: u64, scale: u64) -> TaskId {
        let t = thread(rank, 1);
        let launch = TaskKind::Runtime(CudaRuntimeKind::LaunchKernel);
        let op = add(g, t, TaskKind::CpuOp, 5 * scale, 0);
        let l1 = add(g, t, launch, 2 * scale, 5);
        let l2 = add(g, t, launch, 2 * scale, 7);
        let sync = add(
            g,
            t,
            TaskKind::Runtime(CudaRuntimeKind::DeviceSynchronize),
            1,
            9,
        );
        let k1 = add(
            g,
            stream(rank, 7),
            TaskKind::Kernel(KernelClass::Other),
            40 * scale,
            10,
        );
        let kind = collective(group, lumos_trace::CollectiveKind::AllReduce);
        let k2 = add(g, stream(rank, 13), kind, 30 * scale, 12);
        g.add_edge(op, l1, DepKind::IntraThread);
        g.add_edge(l1, l2, DepKind::IntraThread);
        g.add_edge(l2, sync, DepKind::IntraThread);
        g.add_edge(l1, k1, DepKind::KernelLaunch);
        g.add_edge(l2, k2, DepKind::KernelLaunch);
        g.add_edge(k1, k2, DepKind::InterStreamEvent);
        g.register_kernel(k1, l1);
        g.register_kernel(k2, l2);
        g.register_collective(group, 0, k2, RankId(rank));
        k2
    }

    #[test]
    fn ranks_equal_but_for_communicator_ids_form_one_class() {
        let mut g = mk_graph();
        for rank in 0..4 {
            add_rank(&mut g, rank, 100 + u64::from(rank), 1);
        }
        let opts = SimOptions::default();
        assert_eq!(quotient_classes(&g, &opts), Some(1));
        assert_matches_reference(&g, &opts);
        assert_eq!(simulate(&g, &opts).unwrap().runtime_deps.len(), 4 * 2);
    }

    #[test]
    fn collectives_meet_one_representative_per_class() {
        // Ranks 0 and 2 run one program, 1 and 3 a slower one; the
        // collectives pair 0 with 1 and 2 with 3, so the quotient
        // instance waits for both representatives.
        let mut g = mk_graph();
        for rank in 0..4 {
            add_rank(
                &mut g,
                rank,
                100 + u64::from(rank / 2),
                1 + u64::from(rank % 2),
            );
        }
        for opts in [SimOptions::default(), Lumos::dpro_baseline().sim] {
            assert_eq!(quotient_classes(&g, &opts), Some(2));
            assert_matches_reference(&g, &opts);
        }
        let r = simulate(&g, &SimOptions::default()).unwrap();
        // The fast rank's collective waits for the slow one.
        assert_eq!(r.starts[5], r.starts[11]);
    }

    #[test]
    fn a_class_whose_collectives_meet_different_classes_splits() {
        // Ranks 0..3 run one program and rank 3 another: rank 2 meets
        // rank 3 where ranks 0 and 1 meet each other.
        let mut g = mk_graph();
        for rank in 0..4 {
            add_rank(
                &mut g,
                rank,
                100 + u64::from(rank / 2),
                1 + u64::from(rank / 3),
            );
        }
        let opts = SimOptions::default();
        assert_eq!(quotient_classes(&g, &opts), Some(3));
        assert_matches_reference(&g, &opts);
    }

    #[test]
    fn a_fixed_edge_across_ranks_runs_every_rank() {
        let mut g = mk_graph();
        let k0 = add_rank(&mut g, 0, 100, 1);
        add_rank(&mut g, 1, 101, 1);
        add_rank(&mut g, 2, 102, 1);
        g.add_edge(k0, 6 + 4, DepKind::InterStreamEvent);
        let opts = SimOptions::default();
        assert_eq!(quotient_classes(&g, &opts), None);
        assert_matches_reference(&g, &opts);
    }

    #[test]
    fn a_processor_that_is_not_one_chain_runs_every_rank() {
        // Two unordered tasks share thread 2 on each rank.
        let mut g = mk_graph();
        for rank in 0..2 {
            add_rank(&mut g, rank, 100 + u64::from(rank), 1);
            add(&mut g, thread(rank, 2), TaskKind::CpuOp, 10, 3);
            add(&mut g, thread(rank, 2), TaskKind::CpuOp, 10, 1);
        }
        let opts = SimOptions::default();
        assert_eq!(quotient_classes(&g, &opts), None);
        assert_matches_reference(&g, &opts);
    }

    #[test]
    fn a_sync_draining_a_launch_from_an_unordered_thread_runs_every_rank() {
        // Thread 2 launches into the stream thread 1 syncs on. With no
        // edge either way, which launch the sync sees depends on
        // order; a cross-thread edge from the launch to the sync fixes
        // it.
        for ordered in [false, true] {
            let mut g = mk_graph();
            let launch = TaskKind::Runtime(CudaRuntimeKind::LaunchKernel);
            let sync = TaskKind::Runtime(CudaRuntimeKind::StreamSynchronize {
                stream: StreamId(7),
            });
            let kernel = TaskKind::Kernel(KernelClass::Other);
            for rank in 0..2 {
                let l1 = add(&mut g, thread(rank, 1), launch, 2, 0);
                let s = add(&mut g, thread(rank, 1), sync, 1, 30);
                let l2 = add(&mut g, thread(rank, 2), launch, 20, 0);
                let k1 = add(&mut g, stream(rank, 7), kernel, 50, 4);
                let k2 = add(&mut g, stream(rank, 7), kernel, 50, 60);
                g.add_edge(l1, s, DepKind::IntraThread);
                g.add_edge(l1, k1, DepKind::KernelLaunch);
                g.add_edge(l2, k2, DepKind::KernelLaunch);
                g.add_edge(k1, k2, DepKind::IntraStream);
                g.register_kernel(k1, l1);
                g.register_kernel(k2, l2);
                if ordered {
                    g.add_edge(l2, s, DepKind::InterThread);
                }
            }
            let opts = SimOptions::default();
            assert_eq!(quotient_classes(&g, &opts), ordered.then_some(1));
            assert_matches_reference(&g, &opts);
        }
    }

    #[test]
    fn ranks_differing_in_one_duration_run_every_rank() {
        let mut g = mk_graph();
        add_rank(&mut g, 0, 100, 1);
        add_rank(&mut g, 1, 101, 1);
        g.tasks_mut()[6 + 4].duration = Dur(41);
        let opts = SimOptions::default();
        assert_eq!(quotient_classes(&g, &opts), None);
        assert_matches_reference(&g, &opts);
    }

    #[test]
    fn a_mismatched_collective_reports_the_per_rank_stuck_counts() {
        // Two alike ranks share group 100, which a third rank joins
        // without ever issuing its seq 0.
        let mut g = mk_graph();
        add_rank(&mut g, 0, 100, 1);
        add_rank(&mut g, 1, 100, 1);
        let stray = add(
            &mut g,
            stream(2, 13),
            collective(100, lumos_trace::CollectiveKind::AllReduce),
            9,
            0,
        );
        g.register_collective(100, 1, stray, RankId(2));
        let opts = SimOptions::default();
        assert_eq!(quotient_classes(&g, &opts), None);
        assert_matches_reference(&g, &opts);
        assert!(matches!(
            simulate(&g, &opts),
            Err(CoreError::SimulationStuck { total: 13, .. })
        ));
    }

    #[test]
    fn a_stuck_quotient_reruns_every_rank() {
        // Each rank's two streams wait on each other: the quotient
        // holds, its run is stuck, and the error is the per-rank run's.
        let mut g = mk_graph();
        for rank in 0..3 {
            let kind = TaskKind::Kernel(KernelClass::Other);
            let a1 = add(&mut g, stream(rank, 7), kind, 5, 0);
            let a2 = add(&mut g, stream(rank, 7), kind, 5, 1);
            let b1 = add(&mut g, stream(rank, 13), kind, 5, 2);
            let b2 = add(&mut g, stream(rank, 13), kind, 5, 3);
            add(&mut g, thread(rank, 1), TaskKind::CpuOp, 5, 0);
            g.add_edge(a1, a2, DepKind::IntraStream);
            g.add_edge(b1, b2, DepKind::IntraStream);
            g.add_edge(a2, b1, DepKind::InterStreamEvent);
            g.add_edge(b2, a1, DepKind::InterStreamEvent);
        }
        let opts = SimOptions::default();
        assert_eq!(quotient_classes(&g, &opts), Some(1));
        assert_matches_reference(&g, &opts);
        assert!(matches!(
            simulate(&g, &opts),
            Err(CoreError::SimulationStuck {
                completed: 3,
                total: 15
            })
        ));
    }
}
