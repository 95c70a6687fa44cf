//! Source-trace identity: the fingerprint an artifact stores so a
//! stale calibration can never silently answer for the wrong trace.

use lumos_trace::{ClusterTrace, Dur};
use serde::value_digest;
use serde::{Deserialize, Serialize};

/// A compact identity of a profiled cluster trace: cheap structural
/// counters plus a stable content hash over every event. Two traces
/// with the same fingerprint are, for calibration purposes, the same
/// trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceFingerprint {
    /// Total events across all ranks.
    pub events: u64,
    /// Number of ranks.
    pub ranks: u32,
    /// End-to-end makespan of the recorded iteration.
    pub makespan: Dur,
    /// FNV-1a hash over every rank's events (names, timestamps,
    /// durations, kinds), stable across processes and platforms.
    pub content_hash: u64,
}

impl TraceFingerprint {
    /// Fingerprints a trace.
    pub fn of(trace: &ClusterTrace) -> Self {
        TraceFingerprint {
            events: trace.total_events() as u64,
            ranks: trace.world_size() as u32,
            makespan: trace.makespan(),
            content_hash: content_hash(trace),
        }
    }

    /// The first differing field versus `other`, as
    /// `(field, self value, other value)` — `None` when identical.
    pub fn first_mismatch(&self, other: &Self) -> Option<(&'static str, String, String)> {
        if self.events != other.events {
            return Some((
                "event count",
                self.events.to_string(),
                other.events.to_string(),
            ));
        }
        if self.ranks != other.ranks {
            return Some((
                "rank count",
                self.ranks.to_string(),
                other.ranks.to_string(),
            ));
        }
        if self.makespan != other.makespan {
            return Some((
                "makespan",
                format!("{} ns", self.makespan.as_ns()),
                format!("{} ns", other.makespan.as_ns()),
            ));
        }
        if self.content_hash != other.content_hash {
            return Some((
                "content hash",
                format!("{:#018x}", self.content_hash),
                format!("{:#018x}", other.content_hash),
            ));
        }
        None
    }
}

/// A stable FNV-1a hash of the trace's full serialized content
/// (shared [`value_digest`] machinery, one digest per rank folded
/// into one so peak memory stays at one rank's value tree). Computed
/// from the parsed representation (not raw file bytes), so
/// formatting-only differences in the on-disk JSON do not change the
/// hash, while any event-level difference does.
fn content_hash(trace: &ClusterTrace) -> u64 {
    let mut parts = vec![value_digest(&trace.label.serialize_value())];
    for rank in trace.ranks() {
        parts.push(value_digest(&rank.serialize_value()));
    }
    value_digest(&parts.serialize_value())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_trace::{RankTrace, ThreadId, TraceEvent, Ts};

    fn trace() -> ClusterTrace {
        let mut r = RankTrace::new(0);
        r.push(TraceEvent::cpu_op("op", Ts(0), Dur(5_000), ThreadId(1)));
        let mut c = ClusterTrace::new("fp");
        c.push_rank(r);
        c
    }

    #[test]
    fn identical_traces_fingerprint_equal() {
        assert_eq!(
            TraceFingerprint::of(&trace()),
            TraceFingerprint::of(&trace())
        );
        assert!(TraceFingerprint::of(&trace())
            .first_mismatch(&TraceFingerprint::of(&trace()))
            .is_none());
    }

    #[test]
    fn content_change_flips_hash_only() {
        let a = TraceFingerprint::of(&trace());
        let mut t = trace();
        t.ranks_mut()[0].events_mut()[0].name = "renamed".into();
        let b = TraceFingerprint::of(&t);
        assert_eq!(a.events, b.events);
        assert_eq!(a.makespan, b.makespan);
        assert_ne!(a.content_hash, b.content_hash);
        let (field, _, _) = a.first_mismatch(&b).unwrap();
        assert_eq!(field, "content hash");
    }

    #[test]
    fn structural_change_reported_first() {
        let a = TraceFingerprint::of(&trace());
        let mut t = trace();
        t.ranks_mut()[0].push(TraceEvent::cpu_op("x", Ts(9_000), Dur(1), ThreadId(1)));
        let b = TraceFingerprint::of(&t);
        let (field, av, bv) = a.first_mismatch(&b).unwrap();
        assert_eq!(field, "event count");
        assert_eq!(av, "1");
        assert_eq!(bv, "2");
    }
}
