//! Id-for-id comparison of execution graphs through their public
//! accessors, shared by the differential tests of graph emission.

use lumos::core::ExecutionGraph;
use lumos::trace::{ClusterTrace, EventKind, KernelClass, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Debug;

/// The first index at which `a` and `b` differ, described.
fn first_mismatch<T: PartialEq + Debug>(what: &str, a: &[T], b: &[T]) -> Option<String> {
    if let Some(i) = (0..a.len().min(b.len())).find(|&i| a[i] != b[i]) {
        return Some(format!("{what}[{i}]: {:?} vs {:?}", a[i], b[i]));
    }
    (a.len() != b.len()).then(|| format!("{what}: {} vs {} entries", a.len(), b.len()))
}

/// The first way `a` and `b` differ, or `None` when they are equal id
/// for id: processors in order; each task by index with its successor
/// list in order (kinds included), predecessor count, enqueue position
/// and launching task; each stream processor's kernel list; each
/// collective's members in order; each communicator's ranks in order.
pub fn first_difference(a: &ExecutionGraph, b: &ExecutionGraph) -> Option<String> {
    if let Some(d) = first_mismatch("processor", a.processors(), b.processors()) {
        return Some(d);
    }
    let task = |g: &ExecutionGraph, id: u32| {
        let t = g.task(id);
        let kind = (t.kind, t.processor, t.duration, t.orig_start, t.correlation);
        (t.name.to_string(), kind)
    };
    if a.len() != b.len() {
        return Some(format!("tasks: {} vs {}", a.len(), b.len()));
    }
    for id in 0..a.len() as u32 {
        let (ta, tb) = (task(a, id), task(b, id));
        if ta != tb {
            return Some(format!("task {id}: {ta:?} vs {tb:?}"));
        }
        let what = format!("task {id} successor");
        if let Some(d) = first_mismatch(&what, a.successors(id), b.successors(id)) {
            return Some(d);
        }
        let kernel = |g: &ExecutionGraph| (g.pred_count(id), g.enqueue_seq(id), g.launch_of(id));
        if kernel(a) != kernel(b) {
            return Some(format!(
                "task {id} (preds, enqueue seq, launch): {:?} vs {:?}",
                kernel(a),
                kernel(b)
            ));
        }
    }
    for p in 0..a.processors().len() as u32 {
        let what = format!("stream processor {p} kernel");
        if let Some(d) = first_mismatch(&what, a.stream_kernels(p), b.stream_kernels(p)) {
            return Some(d);
        }
    }
    let collectives = |g: &ExecutionGraph| -> BTreeMap<(u64, u32), Vec<u32>> {
        g.collectives()
            .iter()
            .map(|(&key, members)| (key, members.clone()))
            .collect()
    };
    let (ca, cb) = (collectives(a), collectives(b));
    if ca != cb {
        let key = ca.keys().chain(cb.keys()).find(|k| ca.get(k) != cb.get(k));
        let key = key.expect("unequal maps differ at some key");
        return Some(format!(
            "collective {key:?}: {:?} vs {:?}",
            ca.get(key),
            cb.get(key)
        ));
    }
    let groups = |g: &ExecutionGraph| -> BTreeMap<u64, Vec<u32>> {
        g.groups()
            .map(|(group, ranks)| (group, ranks.iter().map(|r| r.0).collect()))
            .collect()
    };
    let (ga, gb) = (groups(a), groups(b));
    (ga != gb).then(|| format!("communicator ranks: {ga:?} vs {gb:?}"))
}

/// Whether events `a` and `b` are equal once a collective's
/// communicator in `b` is renamed from `a`'s, extending the one-to-one
/// renaming `rename`.
fn same_event(a: &TraceEvent, b: &TraceEvent, rename: &mut Vec<(u64, u64)>) -> bool {
    if (&a.name, a.ts, a.dur) != (&b.name, b.ts, b.dur) {
        return false;
    }
    let collective = |e: &TraceEvent| match e.kind {
        EventKind::Kernel {
            class: KernelClass::Collective(meta),
            ..
        } => Some(meta.group),
        _ => None,
    };
    let (Some(x), Some(y)) = (collective(a), collective(b)) else {
        return a.kind == b.kind;
    };
    let mut renamed = b.kind;
    if let EventKind::Kernel {
        class: KernelClass::Collective(meta),
        ..
    } = &mut renamed
    {
        meta.group = x;
    }
    if a.kind != renamed {
        return false;
    }
    match rename.iter().find(|&&(old, new)| old == x || new == y) {
        Some(&pair) => pair == (x, y),
        None => {
            rename.push((x, y));
            true
        }
    }
}

/// How many ranks of `trace` repeat an earlier rank's events, with
/// collective communicator ids renamed one to one: the ranks a
/// prediction copies from an earlier rank instead of building.
pub fn repeated_ranks(trace: &ClusterTrace) -> usize {
    let ranks = trace.ranks();
    let mut rename = Vec::new();
    (1..ranks.len())
        .filter(|&j| {
            ranks[..j].iter().any(|earlier| {
                rename.clear();
                let (a, b) = (earlier.events(), ranks[j].events());
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_event(x, y, &mut rename))
            })
        })
        .count()
}
