//! Post-replay analysis: critical paths, bottleneck kernels, and
//! overlap summaries — the "deeper analysis and downstream
//! optimization studies" the paper's fine-grained replay enables.

use crate::graph::ExecutionGraph;
use crate::sim::SimResult;
use crate::task::{TaskId, TaskKind};
use lumos_trace::{Dur, Ts};
use std::collections::HashMap;
use std::sync::Arc;

/// One step of the critical path.
#[derive(Debug, Clone)]
pub struct CriticalStep {
    /// Task id in the graph.
    pub task: TaskId,
    /// Task name.
    pub name: Arc<str>,
    /// Simulated duration.
    pub duration: Dur,
    /// Whether this step is a GPU kernel.
    pub is_gpu: bool,
    /// Whether this step is a communication kernel.
    pub is_comm: bool,
}

/// The longest start-to-finish dependency chain of a replay.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// Steps from the beginning of the iteration to its end.
    pub steps: Vec<CriticalStep>,
    /// Total time attributed to GPU compute kernels on the path.
    pub compute: Dur,
    /// Total time attributed to communication kernels on the path.
    pub comm: Dur,
    /// Total time attributed to host tasks on the path.
    pub host: Dur,
    /// Gaps on the path (waiting that no single task accounts for).
    pub idle: Dur,
}

impl CriticalPath {
    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Returns `true` when the path is empty.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// Extracts the critical path of a simulated schedule: walk backwards
/// from the last-finishing task, at each step moving to the
/// predecessor (dependency or processor-order) that ends latest.
pub fn critical_path(graph: &ExecutionGraph, sim: &SimResult) -> CriticalPath {
    let n = graph.len();
    if n == 0 {
        return CriticalPath {
            steps: Vec::new(),
            compute: Dur::ZERO,
            comm: Dur::ZERO,
            host: Dur::ZERO,
            idle: Dur::ZERO,
        };
    }
    // Predecessor lists (dependency edges reversed), plus the runtime
    // dependencies the simulator resolved (sync -> kernel), so the
    // path can route through GPU work at blocking synchronizations.
    let mut preds: Vec<Vec<TaskId>> = vec![Vec::new(); n];
    for t in 0..n as u32 {
        for e in graph.successors(t) {
            preds[e.to as usize].push(t);
        }
    }
    for &(sync, kernel) in &sim.runtime_deps {
        preds[sync as usize].push(kernel);
    }
    // Processor-order predecessors: previous task (by simulated start)
    // on the same processor.
    let mut by_proc: HashMap<u32, Vec<TaskId>> = HashMap::new();
    for t in 0..n as u32 {
        by_proc.entry(graph.task(t).processor).or_default().push(t);
    }
    let mut proc_prev: Vec<Option<TaskId>> = vec![None; n];
    for list in by_proc.values_mut() {
        list.sort_by_key(|&t| (sim.starts[t as usize], t));
        for w in list.windows(2) {
            proc_prev[w[1] as usize] = Some(w[0]);
        }
    }

    let end_task = (0..n as u32)
        .max_by_key(|&t| (sim.ends[t as usize], t))
        .expect("non-empty graph");
    let mut rev = Vec::new();
    let mut cur = end_task;
    loop {
        rev.push(cur);
        let candidates = preds[cur as usize]
            .iter()
            .copied()
            .chain(proc_prev[cur as usize]);
        let best = candidates.max_by_key(|&p| (sim.ends[p as usize], p));
        match best {
            Some(p) => cur = p,
            None => break,
        }
    }
    rev.reverse();

    // Attribute wall time along the chain: each step owns the segment
    // between its predecessor's end and its own end (steps can overlap
    // their predecessor when a blocking sync spans the kernel it waits
    // on — only the non-overlapped tail is attributed), and positive
    // gaps between steps count as idle.
    let mut compute = Dur::ZERO;
    let mut comm = Dur::ZERO;
    let mut host = Dur::ZERO;
    let mut idle = Dur::ZERO;
    let origin = sim.starts.iter().copied().min().unwrap_or(Ts::ZERO);
    let mut prev_end = origin;
    let steps: Vec<CriticalStep> = rev
        .iter()
        .map(|&t| {
            let task = graph.task(t);
            let (start, end) = (sim.starts[t as usize], sim.ends[t as usize]);
            idle += start.saturating_since(prev_end);
            let seg_start = start.max(prev_end);
            let duration = end.saturating_since(seg_start);
            prev_end = prev_end.max(end);
            let (is_gpu, is_comm) = match &task.kind {
                TaskKind::Kernel(c) => (true, c.is_comm()),
                _ => (false, false),
            };
            if is_comm {
                comm += duration;
            } else if is_gpu {
                compute += duration;
            } else {
                host += duration;
            }
            CriticalStep {
                task: t,
                name: task.name.clone(),
                duration,
                is_gpu,
                is_comm,
            }
        })
        .collect();
    CriticalPath {
        steps,
        compute,
        comm,
        host,
        idle,
    }
}

/// Aggregate time per kernel name in a simulated schedule, descending
/// — "identifying which optimization would yield the greatest
/// performance improvement" (§5).
pub fn bottleneck_kernels(
    graph: &ExecutionGraph,
    sim: &SimResult,
    top: usize,
) -> Vec<(Arc<str>, Dur, u64)> {
    let mut acc: HashMap<Arc<str>, (Dur, u64)> = HashMap::new();
    for (i, task) in graph.tasks().iter().enumerate() {
        if !matches!(task.kind, TaskKind::Kernel(_)) {
            continue;
        }
        let d = sim.ends[i] - sim.starts[i];
        let e = acc.entry(task.name.clone()).or_insert((Dur::ZERO, 0));
        e.0 += d;
        e.1 += 1;
    }
    let mut v: Vec<(Arc<str>, Dur, u64)> = acc.into_iter().map(|(n, (d, c))| (n, d, c)).collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v.truncate(top);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{simulate, SimOptions};
    use crate::task::{DepKind, Processor, Task};
    use lumos_trace::{KernelClass, RankId, StreamId, ThreadId, Ts};

    fn diamond_graph() -> ExecutionGraph {
        // a -> b (slow), a -> c (fast), b -> d, c -> d
        let mut g = ExecutionGraph::new();
        let th = g.processor_idx(Processor::Thread {
            rank: RankId(0),
            tid: ThreadId(1),
        });
        let s1 = g.processor_idx(Processor::Stream {
            rank: RankId(0),
            stream: StreamId(7),
        });
        let s2 = g.processor_idx(Processor::Stream {
            rank: RankId(0),
            stream: StreamId(13),
        });
        let mk = |g: &mut ExecutionGraph, name: &str, p, dur, kind| {
            g.add_task(Task {
                name: name.into(),
                kind,
                processor: p,
                duration: Dur(dur),
                orig_start: Ts(0),
                correlation: 0,
            })
        };
        let a = mk(&mut g, "a", th, 10, TaskKind::CpuOp);
        let b = mk(&mut g, "b", s1, 100, TaskKind::Kernel(KernelClass::Other));
        let c = mk(&mut g, "c", s2, 20, TaskKind::Kernel(KernelClass::Other));
        let d = mk(&mut g, "d", th, 5, TaskKind::CpuOp);
        g.add_edge(a, b, DepKind::KernelLaunch);
        g.add_edge(a, c, DepKind::KernelLaunch);
        g.add_edge(b, d, DepKind::InterThread);
        g.add_edge(c, d, DepKind::InterThread);
        g
    }

    #[test]
    fn critical_path_takes_slow_branch() {
        let g = diamond_graph();
        let sim = simulate(
            &g,
            &SimOptions {
                launch_gap: Dur::ZERO,
                ..SimOptions::default()
            },
        )
        .unwrap();
        let cp = critical_path(&g, &sim);
        let names: Vec<&str> = cp.steps.iter().map(|s| &*s.name).collect();
        assert_eq!(names, vec!["a", "b", "d"]);
        assert_eq!(cp.compute, Dur(100));
        assert_eq!(cp.host, Dur(15));
        assert_eq!(cp.idle, Dur::ZERO);
        assert_eq!(cp.comm, Dur::ZERO);
    }

    #[test]
    fn bottlenecks_ranked_by_total_time() {
        let g = diamond_graph();
        let sim = simulate(&g, &SimOptions::default()).unwrap();
        let top = bottleneck_kernels(&g, &sim, 10);
        assert_eq!(top.len(), 2);
        assert_eq!(&*top[0].0, "b");
        assert_eq!(top[0].1, Dur(100));
        assert_eq!(top[0].2, 1);
        // Truncation works.
        assert_eq!(bottleneck_kernels(&g, &sim, 1).len(), 1);
    }

    #[test]
    fn empty_graph_empty_path() {
        let g = ExecutionGraph::new();
        let sim = simulate(&g, &SimOptions::default()).unwrap();
        let cp = critical_path(&g, &sim);
        assert!(cp.is_empty());
    }
}
