//! Segmentation: recovering micro-batch / layer / phase structure from
//! user annotations.
//!
//! Frameworks like Megatron mark logical ranges (NVTX / profiler
//! ranges) on the host timeline; Kineto records them as user
//! annotations. Lumos parses these to tag every task with its position
//! in the iteration — the information graph manipulation needs to
//! "group the tasks by layers" (§3.4).

use crate::task::{Phase, SegmentTag};
use lumos_trace::{EventKind, RankTrace, ThreadId, Ts};
use std::collections::HashMap;

/// Parses one annotation label into a tag.
///
/// Recognized vocabulary (space-separated tokens):
/// `layer=N`, `mb=N`, `fwd`, `bwd`, `embed`, `head`, `dp_grads`,
/// `optimizer`, `iteration`. Unknown tokens are ignored.
pub fn parse_annotation(name: &str) -> SegmentTag {
    let mut tag = SegmentTag::default();
    for token in name.split_whitespace() {
        if let Some(v) = token.strip_prefix("layer=") {
            tag.layer = v.parse().ok();
        } else if let Some(v) = token.strip_prefix("mb=") {
            tag.mb = v.parse().ok();
        } else {
            match token {
                "fwd" => tag.phase = Some(Phase::Forward),
                "bwd" => tag.phase = Some(Phase::Backward),
                "dp_grads" => tag.phase = Some(Phase::DpGrads),
                "optimizer" => tag.phase = Some(Phase::Optimizer),
                "embed" => tag.embed = true,
                "head" => tag.head = true,
                _ => {}
            }
        }
    }
    tag
}

/// Merges an outer tag with an inner (more specific) one: inner fields
/// win where present.
pub fn merge(outer: SegmentTag, inner: SegmentTag) -> SegmentTag {
    SegmentTag {
        mb: inner.mb.or(outer.mb),
        layer: inner.layer.or(outer.layer),
        embed: inner.embed || outer.embed,
        head: inner.head || outer.head,
        phase: inner.phase.or(outer.phase),
    }
}

/// Computes the tag of every host event in a rank trace by annotation
/// containment (annotations are properly nested per thread).
///
/// Returns a map from event index (position in `trace.events()`) to
/// tag; untagged events are absent.
pub fn tag_host_events(trace: &RankTrace) -> HashMap<usize, SegmentTag> {
    let mut anns: HashMap<ThreadId, Vec<(Ts, Ts, SegmentTag)>> = HashMap::new();
    let mut events_by_thread: HashMap<ThreadId, Vec<(usize, Ts)>> = HashMap::new();
    for (i, e) in trace.events().iter().enumerate() {
        match e.kind {
            EventKind::UserAnnotation { tid } => {
                anns.entry(tid)
                    .or_default()
                    .push((e.ts, e.end(), parse_annotation(&e.name)))
            }
            _ => {
                if let Some(tid) = e.kind.tid() {
                    events_by_thread.entry(tid).or_default().push((i, e.ts));
                }
            }
        }
    }
    let mut tags = HashMap::new();
    for (tid, mut events) in events_by_thread {
        let Some(thread_anns) = anns.get_mut(&tid) else {
            continue;
        };
        sort_scopes(thread_anns);
        events.sort_by_key(|&(_, ts)| ts);
        sweep_thread(thread_anns, events, |i, tag| {
            tags.insert(i, tag);
        });
    }
    tags
}

/// Orders one thread's annotation scopes `(start, end, tag)` for
/// [`sweep_thread`]: by start, widest first (ties keep their order).
pub(crate) fn sort_scopes(scopes: &mut [(Ts, Ts, SegmentTag)]) {
    scopes.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
}

/// Tags one thread's events by containment: an event starting at `ts`
/// lies in every scope with `start <= ts < end` (half-open), merged
/// outer to inner. `scopes` must be ordered by [`sort_scopes`] and
/// `events` by start; `tagged` receives every event whose tag is not
/// empty.
pub(crate) fn sweep_thread<K>(
    scopes: &[(Ts, Ts, SegmentTag)],
    events: impl IntoIterator<Item = (K, Ts)>,
    mut tagged: impl FnMut(K, SegmentTag),
) {
    let mut stack: Vec<(Ts, Ts, SegmentTag)> = Vec::new();
    let mut next = 0usize;
    for (key, ts) in events {
        // Open scopes that start at or before this event.
        while next < scopes.len() && scopes[next].0 <= ts {
            stack.push(scopes[next]);
            next += 1;
        }
        // Close scopes that ended before or at this event's start.
        stack.retain(|&(_, end, _)| end > ts);
        if stack.is_empty() {
            continue;
        }
        let tag = stack
            .iter()
            .fold(SegmentTag::default(), |acc, &(_, _, t)| merge(acc, t));
        if !tag.is_empty() {
            tagged(key, tag);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_trace::{Dur, TraceEvent};

    #[test]
    fn parse_vocabulary() {
        let t = parse_annotation("layer=12 fwd mb=3");
        assert_eq!(t.layer, Some(12));
        assert_eq!(t.mb, Some(3));
        assert_eq!(t.phase, Some(Phase::Forward));
        assert!(!t.embed && !t.head);

        let t = parse_annotation("dp_grads embed mb=7");
        assert_eq!(t.phase, Some(Phase::DpGrads));
        assert!(t.embed);
        assert_eq!(t.mb, Some(7));

        assert!(parse_annotation("iteration").is_empty());
        assert_eq!(parse_annotation("optimizer").phase, Some(Phase::Optimizer));
        // Garbage tolerated.
        assert!(parse_annotation("layer=x unknown").is_empty());
    }

    #[test]
    fn merge_inner_wins() {
        let outer = parse_annotation("fwd mb=3");
        let inner = parse_annotation("layer=5 bwd");
        let m = merge(outer, inner);
        assert_eq!(m.layer, Some(5));
        assert_eq!(m.mb, Some(3));
        assert_eq!(m.phase, Some(Phase::Backward));
    }

    #[test]
    fn containment_tagging() {
        let mut trace = RankTrace::new(0);
        let tid = ThreadId(1);
        trace.push(TraceEvent::annotation("fwd mb=0", Ts(0), Dur(100), tid));
        trace.push(TraceEvent::annotation(
            "layer=2 fwd mb=0",
            Ts(10),
            Dur(50),
            tid,
        ));
        trace.push(TraceEvent::cpu_op("inside_layer", Ts(20), Dur(5), tid)); // idx 2
        trace.push(TraceEvent::cpu_op("inside_fwd_only", Ts(70), Dur(5), tid)); // idx 3
        trace.push(TraceEvent::cpu_op("outside", Ts(200), Dur(5), tid)); // idx 4
        let tags = tag_host_events(&trace);
        assert_eq!(tags[&2].layer, Some(2));
        assert_eq!(tags[&2].mb, Some(0));
        assert_eq!(tags[&3].layer, None);
        assert_eq!(tags[&3].mb, Some(0));
        assert!(!tags.contains_key(&4));
    }

    #[test]
    fn threads_do_not_cross_tag() {
        let mut trace = RankTrace::new(0);
        trace.push(TraceEvent::annotation(
            "fwd mb=1",
            Ts(0),
            Dur(100),
            ThreadId(1),
        ));
        trace.push(TraceEvent::cpu_op(
            "other_thread",
            Ts(50),
            Dur(5),
            ThreadId(2),
        ));
        let tags = tag_host_events(&trace);
        assert!(tags.is_empty());
    }

    #[test]
    fn half_open_boundary() {
        let mut trace = RankTrace::new(0);
        let tid = ThreadId(1);
        trace.push(TraceEvent::annotation("fwd mb=0", Ts(0), Dur(10), tid));
        // Starts exactly at the annotation end: not contained.
        trace.push(TraceEvent::cpu_op("at_end", Ts(10), Dur(1), tid));
        let tags = tag_host_events(&trace);
        assert!(tags.is_empty());
    }
}
