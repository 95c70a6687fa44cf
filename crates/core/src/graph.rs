//! The execution graph: compact storage for tasks, typed dependency
//! edges, processors, and collective-instance membership.
//!
//! Each task's successor list sits in a 24-byte slot, the size of a
//! `Vec`, that holds up to two edges inline and spills longer lists to
//! the heap. Two 8-byte edges are what fit beside the slot's tag, and
//! almost every task has one or two successors (its chain edge, plus a
//! launch or event edge): in a 2x4x16 prediction from a 15B 2x2x1
//! profile, 640 of 635 296 tasks have more. So building, stamping or
//! dropping a task allocates nothing for its successors.

use crate::error::CoreError;
use crate::task::{DepKind, ProcIdx, Processor, Task, TaskId, TaskKind};
use lumos_trace::{Dur, KernelClass, RankId};
use std::collections::HashMap;
use std::ops::Range;

/// An edge with its dependency class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Destination task.
    pub to: TaskId,
    /// Dependency class.
    pub kind: DepKind,
}

/// Per-class edge counts, reported by [`ExecutionGraph::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphStats {
    /// Total tasks.
    pub tasks: usize,
    /// CPU→CPU same-thread edges.
    pub intra_thread: usize,
    /// CPU→CPU cross-thread edges.
    pub inter_thread: usize,
    /// CPU→GPU launch edges.
    pub kernel_launch: usize,
    /// GPU→GPU same-stream edges.
    pub intra_stream: usize,
    /// GPU→GPU cross-stream (event) edges.
    pub inter_stream: usize,
    /// Collective instances spanning ranks.
    pub collective_instances: usize,
}

impl GraphStats {
    /// Total edge count.
    pub fn total_edges(&self) -> usize {
        self.intra_thread
            + self.inter_thread
            + self.kernel_launch
            + self.intra_stream
            + self.inter_stream
    }
}

/// The task-level execution graph of §3.3.
///
/// Nodes are [`Task`]s placed on [`Processor`]s; fixed edges carry a
/// [`DepKind`]; blocking synchronization tasks additionally acquire
/// *runtime* dependencies during simulation (Algorithm 1). Collective
/// kernel instances are registered by `(group, seq)` so the simulator
/// can rendezvous them across ranks.
#[derive(Debug, Clone, Default)]
pub struct ExecutionGraph {
    tasks: Vec<Task>,
    processors: Vec<Processor>,
    proc_index: HashMap<Processor, ProcIdx>,
    succ: Vec<Successors>,
    pred_count: Vec<u32>,
    /// (group, seq) → member kernel tasks across ranks.
    collectives: HashMap<(u64, u32), Vec<TaskId>>,
    /// group → ranks observed issuing it (derived from the trace).
    groups: HashMap<u64, Vec<RankId>>,
    /// Kernels per stream processor (indexed by processor), in
    /// enqueue (launch) order.
    stream_kernels: Vec<Vec<TaskId>>,
    /// Per task: its position within its stream's enqueue order
    /// ([`NONE`] for tasks that are not registered kernels).
    enqueue_seq: Vec<u32>,
    /// Per task: the runtime task that launched it ([`NONE`] if none).
    launch_of: Vec<TaskId>,
}

/// The empty slot of the per-task kernel tables.
const NONE: u32 = u32::MAX;

/// One task's successor edges in push order: up to two inline, more on
/// the heap (see the module doc).
#[derive(Debug, Clone)]
enum Successors {
    Zero,
    One(Edge),
    Two([Edge; 2]),
    Heap(Vec<Edge>),
}

impl Successors {
    fn push(&mut self, edge: Edge) {
        match self {
            Successors::Zero => *self = Successors::One(edge),
            Successors::One(a) => *self = Successors::Two([*a, edge]),
            Successors::Two([a, b]) => *self = Successors::Heap(vec![*a, *b, edge]),
            Successors::Heap(edges) => edges.push(edge),
        }
    }

    fn as_slice(&self) -> &[Edge] {
        match self {
            Successors::Zero => &[],
            Successors::One(edge) => std::slice::from_ref(edge),
            Successors::Two(edges) => edges,
            Successors::Heap(edges) => edges,
        }
    }

    /// The same list with every destination moved `by` ids on.
    fn shifted(&self, by: TaskId) -> Successors {
        let shift = |e: &Edge| Edge {
            to: e.to + by,
            kind: e.kind,
        };
        match self {
            Successors::Zero => Successors::Zero,
            Successors::One(a) => Successors::One(shift(a)),
            Successors::Two([a, b]) => Successors::Two([shift(a), shift(b)]),
            Successors::Heap(edges) => Successors::Heap(edges.iter().map(shift).collect()),
        }
    }
}

impl ExecutionGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        ExecutionGraph::default()
    }

    /// Interns a processor, returning its dense index.
    pub fn processor_idx(&mut self, p: Processor) -> ProcIdx {
        if let Some(&i) = self.proc_index.get(&p) {
            return i;
        }
        let i = self.processors.len() as ProcIdx;
        self.processors.push(p);
        self.proc_index.insert(p, i);
        i
    }

    /// Adds a task, returning its id.
    pub fn add_task(&mut self, task: Task) -> TaskId {
        let id = self.tasks.len() as TaskId;
        self.tasks.push(task);
        self.succ.push(Successors::Zero);
        self.pred_count.push(0);
        self.enqueue_seq.push(NONE);
        self.launch_of.push(NONE);
        id
    }

    /// Adds a fixed dependency edge.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range or the edge is a
    /// self-loop.
    pub fn add_edge(&mut self, from: TaskId, to: TaskId, kind: DepKind) {
        assert!(
            (from as usize) < self.tasks.len() && (to as usize) < self.tasks.len(),
            "edge endpoint out of range"
        );
        assert_ne!(from, to, "self-loop on task {from}");
        self.succ[from as usize].push(Edge { to, kind });
        self.pred_count[to as usize] += 1;
    }

    /// Registers a kernel's stream-enqueue position and launching
    /// task.
    pub fn register_kernel(&mut self, kernel: TaskId, launch: TaskId) {
        let proc = self.tasks[kernel as usize].processor as usize;
        if self.stream_kernels.len() <= proc {
            self.stream_kernels.resize_with(proc + 1, Vec::new);
        }
        let list = &mut self.stream_kernels[proc];
        self.enqueue_seq[kernel as usize] = list.len() as u32;
        list.push(kernel);
        self.launch_of[kernel as usize] = launch;
    }

    /// Registers a collective member kernel.
    pub fn register_collective(&mut self, group: u64, seq: u32, member: TaskId, rank: RankId) {
        self.collectives
            .entry((group, seq))
            .or_default()
            .push(member);
        let ranks = self.groups.entry(group).or_default();
        if !ranks.contains(&rank) {
            ranks.push(rank);
        }
    }

    /// Appends a copy of the fragment [`crate::build::build_rank`]
    /// wrote for one rank, its tasks `tasks` and processors `procs`, as
    /// the fragment of the new rank `rank`, with each collective's
    /// communicator renamed by the `(old, new)` pairs of `rename`.
    ///
    /// `build_rank` interns a rank's processors as new consecutive
    /// indices and reads and writes nothing outside its own fragment,
    /// so this is what it writes for `rank` from the same program with
    /// the communicators renamed. In task-id order: tasks are copied
    /// with processor and communicator renamed; successor lists,
    /// launching tasks and stream kernel lists are shifted by the
    /// task-id offset; predecessor counts and enqueue positions are
    /// copied as they are; collectives are registered as `build_rank`
    /// registers them, so every member list keeps its order.
    ///
    /// # Panics
    ///
    /// Panics if one of `rank`'s processors is already interned.
    pub(crate) fn stamp(
        &mut self,
        tasks: Range<TaskId>,
        procs: Range<ProcIdx>,
        rank: RankId,
        rename: &[(u64, u64)],
    ) {
        let proc_shift = self.processors.len() as ProcIdx - procs.start;
        for p in procs.clone() {
            let copy = match self.processors[p as usize] {
                Processor::Thread { tid, .. } => Processor::Thread { rank, tid },
                Processor::Stream { stream, .. } => Processor::Stream { rank, stream },
            };
            assert_eq!(
                self.processor_idx(copy),
                p + proc_shift,
                "processor {copy} is already interned"
            );
        }
        let first = self.tasks.len() as TaskId;
        let shift = first - tasks.start;
        let (lo, hi) = (tasks.start as usize, tasks.end as usize);
        for t in lo..hi {
            let mut task = self.tasks[t].clone();
            task.processor += proc_shift;
            if let TaskKind::Kernel(KernelClass::Collective(meta)) = &mut task.kind {
                if let Some(&(_, new)) = rename.iter().find(|&&(old, _)| old == meta.group) {
                    meta.group = new;
                }
            }
            self.tasks.push(task);
            let succ = self.succ[t].shifted(shift);
            self.succ.push(succ);
        }
        self.pred_count.extend_from_within(lo..hi);
        self.enqueue_seq.extend_from_within(lo..hi);
        for t in lo..hi {
            let launch = self.launch_of[t];
            self.launch_of
                .push(if launch == NONE { NONE } else { launch + shift });
        }
        for p in procs {
            let list: Vec<TaskId> = self.stream_kernels(p).iter().map(|&k| k + shift).collect();
            if list.is_empty() {
                continue;
            }
            let q = (p + proc_shift) as usize;
            if self.stream_kernels.len() <= q {
                self.stream_kernels.resize_with(q + 1, Vec::new);
            }
            self.stream_kernels[q] = list;
        }
        for id in first..self.tasks.len() as TaskId {
            if let Some(meta) = self.tasks[id as usize].comm_meta() {
                let (group, seq) = (meta.group, meta.seq);
                self.register_collective(group, seq, id, rank);
            }
        }
    }

    /// All tasks.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Mutable access to tasks (what-if transforms re-cost durations).
    pub fn tasks_mut(&mut self) -> &mut [Task] {
        &mut self.tasks
    }

    /// A task by id.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id as usize]
    }

    /// All processors.
    pub fn processors(&self) -> &[Processor] {
        &self.processors
    }

    /// A processor by index.
    pub fn processor(&self, idx: ProcIdx) -> Processor {
        self.processors[idx as usize]
    }

    /// Successor edges of a task, in the order they were added.
    pub fn successors(&self, id: TaskId) -> &[Edge] {
        self.succ[id as usize].as_slice()
    }

    /// Fixed-predecessor count of a task.
    pub fn pred_count(&self, id: TaskId) -> u32 {
        self.pred_count[id as usize]
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Returns `true` when the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Collective instance map.
    pub fn collectives(&self) -> &HashMap<(u64, u32), Vec<TaskId>> {
        &self.collectives
    }

    /// Member ranks of a communicator, as observed in the trace.
    pub fn group_ranks(&self, group: u64) -> Option<&[RankId]> {
        self.groups.get(&group).map(Vec::as_slice)
    }

    /// Communicator ids observed in the trace.
    pub fn groups(&self) -> impl Iterator<Item = (u64, &[RankId])> {
        self.groups.iter().map(|(g, r)| (*g, r.as_slice()))
    }

    /// Kernels of a stream processor in enqueue order.
    pub fn stream_kernels(&self, proc: ProcIdx) -> &[TaskId] {
        self.stream_kernels
            .get(proc as usize)
            .map_or(&[], Vec::as_slice)
    }

    /// A kernel's position in its stream's enqueue order.
    pub fn enqueue_seq(&self, kernel: TaskId) -> Option<u32> {
        Some(self.enqueue_seq[kernel as usize]).filter(|&s| s != NONE)
    }

    /// The runtime task that launched a kernel.
    pub fn launch_of(&self, kernel: TaskId) -> Option<TaskId> {
        Some(self.launch_of[kernel as usize]).filter(|&l| l != NONE)
    }

    /// Total recorded duration of all tasks (work, not makespan).
    pub fn total_work(&self) -> Dur {
        self.tasks.iter().map(|t| t.duration).sum()
    }

    /// Edge and node statistics.
    pub fn stats(&self) -> GraphStats {
        let mut s = GraphStats {
            tasks: self.tasks.len(),
            collective_instances: self.collectives.len(),
            ..GraphStats::default()
        };
        for edges in &self.succ {
            for e in edges.as_slice() {
                match e.kind {
                    DepKind::IntraThread => s.intra_thread += 1,
                    DepKind::InterThread => s.inter_thread += 1,
                    DepKind::KernelLaunch => s.kernel_launch += 1,
                    DepKind::IntraStream => s.intra_stream += 1,
                    DepKind::InterStreamEvent => s.inter_stream += 1,
                }
            }
        }
        s
    }

    /// Validates that the fixed-dependency graph is acyclic (Kahn's
    /// algorithm) and that collective instances have consistent
    /// member counts per group.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CyclicGraph`] or
    /// [`CoreError::InconsistentCollective`].
    pub fn validate(&self) -> Result<(), CoreError> {
        let mut remaining: Vec<u32> = self.pred_count.clone();
        let mut queue: Vec<TaskId> = remaining
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == 0)
            .map(|(i, _)| i as TaskId)
            .collect();
        let mut visited = 0usize;
        while let Some(t) = queue.pop() {
            visited += 1;
            for e in self.succ[t as usize].as_slice() {
                let c = &mut remaining[e.to as usize];
                *c -= 1;
                if *c == 0 {
                    queue.push(e.to);
                }
            }
        }
        if visited != self.tasks.len() {
            return Err(CoreError::CyclicGraph {
                stuck: self.tasks.len() - visited,
            });
        }
        for ((group, seq), members) in &self.collectives {
            let expected = self.groups.get(group).map_or(0, Vec::len);
            if members.len() != expected {
                return Err(CoreError::InconsistentCollective {
                    group: *group,
                    seq: *seq,
                    members: members.len(),
                    expected,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_trace::{CollectiveKind, CommMeta, StreamId, ThreadId, Ts};

    fn mk_task(g: &mut ExecutionGraph, proc: Processor, kind: TaskKind) -> TaskId {
        let p = g.processor_idx(proc);
        g.add_task(Task {
            name: "t".into(),
            kind,
            processor: p,
            duration: Dur(10),
            orig_start: Ts(0),
            correlation: 0,
        })
    }

    fn thread_proc() -> Processor {
        Processor::Thread {
            rank: RankId(0),
            tid: ThreadId(1),
        }
    }

    fn stream_proc() -> Processor {
        Processor::Stream {
            rank: RankId(0),
            stream: StreamId(7),
        }
    }

    #[test]
    fn processor_interning_dedups() {
        let mut g = ExecutionGraph::new();
        let a = g.processor_idx(thread_proc());
        let b = g.processor_idx(thread_proc());
        let c = g.processor_idx(stream_proc());
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(g.processors().len(), 2);
    }

    #[test]
    fn edges_update_pred_counts() {
        let mut g = ExecutionGraph::new();
        let a = mk_task(&mut g, thread_proc(), TaskKind::CpuOp);
        let b = mk_task(&mut g, thread_proc(), TaskKind::CpuOp);
        g.add_edge(a, b, DepKind::IntraThread);
        assert_eq!(g.pred_count(b), 1);
        assert_eq!(g.pred_count(a), 0);
        assert_eq!(
            g.successors(a),
            &[Edge {
                to: b,
                kind: DepKind::IntraThread
            }]
        );
        assert_eq!(g.stats().intra_thread, 1);
        g.validate().unwrap();
    }

    #[test]
    fn cycle_detected() {
        let mut g = ExecutionGraph::new();
        let a = mk_task(&mut g, thread_proc(), TaskKind::CpuOp);
        let b = mk_task(&mut g, thread_proc(), TaskKind::CpuOp);
        g.add_edge(a, b, DepKind::IntraThread);
        g.add_edge(b, a, DepKind::InterThread);
        assert!(matches!(
            g.validate(),
            Err(CoreError::CyclicGraph { stuck: 2 })
        ));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut g = ExecutionGraph::new();
        let a = mk_task(&mut g, thread_proc(), TaskKind::CpuOp);
        g.add_edge(a, a, DepKind::IntraThread);
    }

    #[test]
    fn stream_enqueue_registration() {
        let mut g = ExecutionGraph::new();
        let l1 = mk_task(
            &mut g,
            thread_proc(),
            TaskKind::Runtime(lumos_trace::CudaRuntimeKind::LaunchKernel),
        );
        let k1 = mk_task(&mut g, stream_proc(), TaskKind::Kernel(KernelClass::Other));
        let k2 = mk_task(&mut g, stream_proc(), TaskKind::Kernel(KernelClass::Other));
        g.register_kernel(k1, l1);
        g.register_kernel(k2, l1);
        let proc = g.task(k1).processor;
        assert_eq!(g.stream_kernels(proc), &[k1, k2]);
        assert_eq!(g.enqueue_seq(k2), Some(1));
        assert_eq!(g.launch_of(k1), Some(l1));
    }

    #[test]
    fn inconsistent_collective_detected() {
        let mut g = ExecutionGraph::new();
        let k = mk_task(&mut g, stream_proc(), TaskKind::Kernel(KernelClass::Other));
        g.register_collective(5, 0, k, RankId(0));
        // Another rank issues seq 1 on the same group but nobody
        // matches seq 0 there… simulate by registering group member
        // rank without the matching instance member.
        let k2 = mk_task(&mut g, stream_proc(), TaskKind::Kernel(KernelClass::Other));
        g.register_collective(5, 1, k2, RankId(1));
        let err = g.validate().unwrap_err();
        assert!(matches!(err, CoreError::InconsistentCollective { .. }));
    }

    #[test]
    fn total_work_sums_durations() {
        let mut g = ExecutionGraph::new();
        mk_task(&mut g, thread_proc(), TaskKind::CpuOp);
        mk_task(&mut g, thread_proc(), TaskKind::CpuOp);
        assert_eq!(g.total_work(), Dur(20));
    }

    const KINDS: [DepKind; 5] = [
        DepKind::IntraThread,
        DepKind::InterThread,
        DepKind::KernelLaunch,
        DepKind::IntraStream,
        DepKind::InterStreamEvent,
    ];

    /// Kahn's algorithm over plain `Vec` successor lists: the number
    /// of tasks it cannot reach.
    fn stuck_in(lists: &[Vec<Edge>]) -> usize {
        let mut remaining = vec![0u32; lists.len()];
        for e in lists.iter().flatten() {
            remaining[e.to as usize] += 1;
        }
        let mut queue: Vec<usize> = (0..lists.len()).filter(|&t| remaining[t] == 0).collect();
        let mut visited = 0;
        while let Some(t) = queue.pop() {
            visited += 1;
            for e in &lists[t] {
                remaining[e.to as usize] -= 1;
                if remaining[e.to as usize] == 0 {
                    queue.push(e.to as usize);
                }
            }
        }
        lists.len() - visited
    }

    #[test]
    fn successor_slot_is_the_size_of_a_vec() {
        assert_eq!(
            std::mem::size_of::<Successors>(),
            std::mem::size_of::<Vec<Edge>>()
        );
    }

    /// Stamps copy every task of a repeated rank, so its size is most
    /// of a stamp's cost.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn task_fits_in_80_bytes() {
        assert!(std::mem::size_of::<Task>() <= 80);
    }

    #[test]
    fn successor_lists_agree_with_vec_reference() {
        const LENGTHS: [usize; 5] = [0, 1, 2, 3, 5];
        for back_edge in [false, true] {
            let n = 40;
            let mut g = ExecutionGraph::new();
            for _ in 0..n {
                mk_task(&mut g, thread_proc(), TaskKind::CpuOp);
            }
            let mut reference: Vec<Vec<Edge>> = vec![Vec::new(); n];
            let mut pushed = 0;
            for (from, list) in reference.iter_mut().enumerate() {
                for i in 0..LENGTHS[from % LENGTHS.len()] {
                    // Forward edges only, so the graph is acyclic.
                    let to = from + 1 + (i * 7 + from) % 5;
                    if to >= n {
                        continue;
                    }
                    let edge = Edge {
                        to: to as TaskId,
                        kind: KINDS[pushed % KINDS.len()],
                    };
                    pushed += 1;
                    g.add_edge(from as TaskId, edge.to, edge.kind);
                    list.push(edge);
                }
            }
            if back_edge {
                // Close a cycle through a task with a heap list.
                let edge = Edge {
                    to: 4,
                    kind: DepKind::InterThread,
                };
                g.add_edge(19, 4, edge.kind);
                reference[19].push(edge);
            }
            for (t, list) in reference.iter().enumerate() {
                assert_eq!(g.successors(t as TaskId), list.as_slice(), "task {t}");
                let preds = reference.iter().flatten().filter(|e| e.to as usize == t);
                assert_eq!(g.pred_count(t as TaskId) as usize, preds.count());
            }
            let count = |kind| {
                reference
                    .iter()
                    .flatten()
                    .filter(|e| e.kind == kind)
                    .count()
            };
            let stats = g.stats();
            assert_eq!(stats.intra_thread, count(DepKind::IntraThread));
            assert_eq!(stats.inter_thread, count(DepKind::InterThread));
            assert_eq!(stats.kernel_launch, count(DepKind::KernelLaunch));
            assert_eq!(stats.intra_stream, count(DepKind::IntraStream));
            assert_eq!(stats.inter_stream, count(DepKind::InterStreamEvent));
            assert_eq!(stats.total_edges(), reference.iter().flatten().count());
            match (g.validate(), stuck_in(&reference)) {
                (Ok(()), 0) => assert!(!back_edge),
                (Err(CoreError::CyclicGraph { stuck }), expected) => {
                    assert!(back_edge);
                    assert_eq!(stuck, expected);
                }
                (got, expected) => panic!("validate {got:?}, reference stuck {expected}"),
            }
        }
    }

    #[test]
    fn stamp_copies_a_rank_fragment_shifted() {
        let mut g = ExecutionGraph::new();
        // Another rank first, so the fragment starts past id 0.
        let other = Processor::Thread {
            rank: RankId(5),
            tid: ThreadId(1),
        };
        mk_task(&mut g, other, TaskKind::CpuOp);
        let (tasks, procs) = (g.len() as TaskId, g.processors().len() as ProcIdx);
        let op = mk_task(&mut g, thread_proc(), TaskKind::CpuOp);
        let launch = mk_task(
            &mut g,
            thread_proc(),
            TaskKind::Runtime(lumos_trace::CudaRuntimeKind::LaunchKernel),
        );
        let meta = CommMeta {
            kind: CollectiveKind::AllReduce,
            group: 40,
            seq: 3,
            bytes: 64,
        };
        let coll = mk_task(
            &mut g,
            stream_proc(),
            TaskKind::Kernel(KernelClass::Collective(meta)),
        );
        let after = mk_task(&mut g, stream_proc(), TaskKind::Kernel(KernelClass::Other));
        for (from, to, kind) in [
            (op, launch, DepKind::IntraThread),
            (launch, coll, DepKind::KernelLaunch),
            (launch, after, DepKind::KernelLaunch),
            (op, after, DepKind::InterThread),
            (coll, after, DepKind::IntraStream),
        ] {
            g.add_edge(from, to, kind);
        }
        g.register_kernel(coll, launch);
        g.register_kernel(after, launch);
        g.register_collective(40, 3, coll, RankId(0));
        let fragment = tasks..g.len() as TaskId;
        let procs = procs..g.processors().len() as ProcIdx;
        // And another rank after it, so the copy lands past both.
        let later = Processor::Stream {
            rank: RankId(6),
            stream: StreamId(7),
        };
        let later_meta = CommMeta { group: 50, ..meta };
        let later = mk_task(
            &mut g,
            later,
            TaskKind::Kernel(KernelClass::Collective(later_meta)),
        );
        g.register_collective(50, 3, later, RankId(6));

        g.stamp(fragment.clone(), procs.clone(), RankId(1), &[(40, 41)]);
        let offset = g.len() as TaskId - fragment.end;
        assert_eq!(offset, 5);
        let proc_offset = g.processors().len() as ProcIdx - procs.end;
        for p in procs.clone() {
            let (built, copy) = (g.processor(p), g.processor(p + proc_offset));
            assert_eq!(copy.rank(), RankId(1));
            assert_eq!(built.is_stream(), copy.is_stream());
        }
        for t in fragment.clone() {
            let c = t + offset;
            let shifted: Vec<Edge> = g
                .successors(t)
                .iter()
                .map(|e| Edge {
                    to: e.to + offset,
                    kind: e.kind,
                })
                .collect();
            assert_eq!(g.successors(c), shifted.as_slice(), "task {t}");
            assert_eq!(g.pred_count(c), g.pred_count(t));
            assert_eq!(g.enqueue_seq(c), g.enqueue_seq(t));
            assert_eq!(g.launch_of(c), g.launch_of(t).map(|l| l + offset));
            assert_eq!(g.task(c).processor, g.task(t).processor + proc_offset);
            assert_eq!(g.task(c).name, g.task(t).name);
        }
        let copy_stream = g.task(coll + offset).processor;
        assert_eq!(
            g.stream_kernels(copy_stream),
            &[coll + offset, after + offset]
        );
        assert_eq!(g.task(coll + offset).comm_meta().unwrap().group, 41);
        assert_eq!(g.collectives()[&(41, 3)], vec![coll + offset]);
        assert_eq!(g.collectives()[&(40, 3)], vec![coll]);
        assert_eq!(g.collectives()[&(50, 3)], vec![later]);
        assert_eq!(g.group_ranks(41), Some(&[RankId(1)][..]));
        assert_eq!(g.group_ranks(50), Some(&[RankId(6)][..]));
        assert_eq!(g.stats().total_edges(), 10);
        g.validate().unwrap();
    }
}
