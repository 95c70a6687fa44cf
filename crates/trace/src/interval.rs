//! Interval-set algebra over half-open time intervals.
//!
//! The execution-breakdown and SM-utilization analytics both reduce to
//! set operations over the busy intervals of CUDA streams: *overlapped*
//! time is `compute ∩ comm`, *exposed* compute is `compute \ comm`, and
//! *other* (idle) time is the complement of `compute ∪ comm` within the
//! iteration span. [`IntervalSet`] provides those operations on a
//! normalized (sorted, disjoint, non-empty) list of [`TimeSpan`]s.

use crate::time::{Dur, TimeSpan, Ts};
use serde::Serialize;

/// A normalized set of half-open time intervals: sorted by start,
/// pairwise disjoint, and free of empty intervals.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize)]
pub struct IntervalSet {
    spans: Vec<TimeSpan>,
}

impl IntervalSet {
    /// The empty set.
    pub fn new() -> Self {
        IntervalSet::default()
    }

    /// Builds a normalized set from arbitrary (possibly overlapping,
    /// unsorted, empty) spans: sorts, drops empties, and merges
    /// touching or overlapping spans.
    pub fn from_spans(mut spans: Vec<TimeSpan>) -> Self {
        spans.retain(|s| !s.is_empty());
        spans.sort();
        let mut merged: Vec<TimeSpan> = Vec::with_capacity(spans.len());
        for s in spans {
            match merged.last_mut() {
                Some(last) if s.start <= last.end => {
                    last.end = last.end.max(s.end);
                }
                _ => merged.push(s),
            }
        }
        IntervalSet { spans: merged }
    }

    /// The normalized spans.
    pub fn spans(&self) -> &[TimeSpan] {
        &self.spans
    }

    /// Returns `true` when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Number of disjoint spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Sum of the lengths of all spans.
    pub fn total(&self) -> Dur {
        self.spans.iter().map(|s| s.duration()).sum()
    }

    /// Hull `[min start, max end)`, or `None` when empty.
    pub fn hull(&self) -> Option<TimeSpan> {
        match (self.spans.first(), self.spans.last()) {
            (Some(f), Some(l)) => Some(TimeSpan::new(f.start, l.end)),
            _ => None,
        }
    }

    /// Set union.
    pub fn union(&self, other: &IntervalSet) -> IntervalSet {
        let mut all = self.spans.clone();
        all.extend_from_slice(&other.spans);
        IntervalSet::from_spans(all)
    }

    /// Set intersection.
    pub fn intersect(&self, other: &IntervalSet) -> IntervalSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.spans.len() && j < other.spans.len() {
            let (a, b) = (self.spans[i], other.spans[j]);
            if let Some(x) = a.intersect(&b) {
                out.push(x);
            }
            if a.end <= b.end {
                i += 1;
            } else {
                j += 1;
            }
        }
        IntervalSet { spans: out }
    }

    /// Set difference `self \ other`.
    pub fn subtract(&self, other: &IntervalSet) -> IntervalSet {
        let mut out = Vec::new();
        let mut j = 0;
        for &a in &self.spans {
            let mut cursor = a.start;
            while j < other.spans.len() && other.spans[j].end <= cursor {
                j += 1;
            }
            let mut k = j;
            while k < other.spans.len() && other.spans[k].start < a.end {
                let b = other.spans[k];
                if b.start > cursor {
                    out.push(TimeSpan::new(cursor, b.start.min(a.end)));
                }
                cursor = cursor.max(b.end);
                if b.end >= a.end {
                    break;
                }
                k += 1;
            }
            if cursor < a.end {
                out.push(TimeSpan::new(cursor, a.end));
            }
        }
        IntervalSet { spans: out }
    }

    /// Complement of the set within `window` — the idle gaps.
    pub fn complement_within(&self, window: TimeSpan) -> IntervalSet {
        IntervalSet {
            spans: vec![window],
        }
        .subtract(self)
    }

    /// Total length of the overlap with `window`.
    pub fn total_within(&self, window: TimeSpan) -> Dur {
        self.spans
            .iter()
            .filter_map(|s| s.intersect(&window))
            .map(|s| s.duration())
            .sum()
    }

    /// Returns `true` if `ts` lies in one of the spans.
    pub fn contains(&self, ts: Ts) -> bool {
        // Binary search for the last span starting at or before ts.
        let idx = self.spans.partition_point(|s| s.start <= ts);
        idx > 0 && self.spans[idx - 1].contains(ts)
    }
}

impl FromIterator<TimeSpan> for IntervalSet {
    fn from_iter<T: IntoIterator<Item = TimeSpan>>(iter: T) -> Self {
        IntervalSet::from_spans(iter.into_iter().collect())
    }
}

impl Extend<TimeSpan> for IntervalSet {
    fn extend<T: IntoIterator<Item = TimeSpan>>(&mut self, iter: T) {
        let mut all = std::mem::take(&mut self.spans);
        all.extend(iter);
        *self = IntervalSet::from_spans(all);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(spans: &[(u64, u64)]) -> IntervalSet {
        spans
            .iter()
            .map(|&(a, b)| TimeSpan::new(Ts(a), Ts(b)))
            .collect()
    }

    #[test]
    fn normalization_merges_and_sorts() {
        let s = set(&[(5, 10), (0, 3), (3, 6), (20, 20)]);
        assert_eq!(s.spans(), &[TimeSpan::new(Ts(0), Ts(10))]);
        assert_eq!(s.total(), Dur(10));
    }

    #[test]
    fn union_basic() {
        let a = set(&[(0, 5), (10, 15)]);
        let b = set(&[(3, 12)]);
        assert_eq!(a.union(&b), set(&[(0, 15)]));
    }

    #[test]
    fn intersect_basic() {
        let a = set(&[(0, 5), (10, 15)]);
        let b = set(&[(3, 12)]);
        assert_eq!(a.intersect(&b), set(&[(3, 5), (10, 12)]));
        assert_eq!(a.intersect(&IntervalSet::new()), IntervalSet::new());
    }

    #[test]
    fn subtract_basic() {
        let a = set(&[(0, 10)]);
        let b = set(&[(2, 4), (6, 8)]);
        assert_eq!(a.subtract(&b), set(&[(0, 2), (4, 6), (8, 10)]));
        // subtracting a superset leaves nothing
        assert_eq!(b.subtract(&a), IntervalSet::new());
    }

    #[test]
    fn subtract_spanning_multiple() {
        let a = set(&[(0, 3), (5, 9), (12, 14)]);
        let b = set(&[(2, 13)]);
        assert_eq!(a.subtract(&b), set(&[(0, 2), (13, 14)]));
    }

    #[test]
    fn complement_within_window() {
        let a = set(&[(2, 4), (6, 8)]);
        let w = TimeSpan::new(Ts(0), Ts(10));
        assert_eq!(a.complement_within(w), set(&[(0, 2), (4, 6), (8, 10)]));
        assert_eq!(IntervalSet::new().complement_within(w), set(&[(0, 10)]));
    }

    #[test]
    fn total_within_clips() {
        let a = set(&[(0, 10)]);
        assert_eq!(a.total_within(TimeSpan::new(Ts(5), Ts(20))), Dur(5));
        assert_eq!(a.total_within(TimeSpan::new(Ts(20), Ts(30))), Dur::ZERO);
    }

    #[test]
    fn contains_uses_half_open() {
        let a = set(&[(2, 4), (10, 12)]);
        assert!(!a.contains(Ts(1)));
        assert!(a.contains(Ts(2)));
        assert!(a.contains(Ts(3)));
        assert!(!a.contains(Ts(4)));
        assert!(a.contains(Ts(11)));
        assert!(!a.contains(Ts(12)));
    }

    #[test]
    fn hull_spans_everything() {
        let a = set(&[(2, 4), (10, 12)]);
        assert_eq!(a.hull(), Some(TimeSpan::new(Ts(2), Ts(12))));
        assert_eq!(IntervalSet::new().hull(), None);
    }

    #[test]
    fn extend_renormalizes() {
        let mut a = set(&[(0, 2)]);
        a.extend([TimeSpan::new(Ts(1), Ts(5))]);
        assert_eq!(a, set(&[(0, 5)]));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_spans() -> impl Strategy<Value = Vec<TimeSpan>> {
        proptest::collection::vec((0u64..500, 0u64..50), 0..40).prop_map(|v| {
            v.into_iter()
                .map(|(s, len)| TimeSpan::new(Ts(s), Ts(s + len)))
                .collect()
        })
    }

    // Membership-based model: a timestamp is in the set iff it is in
    // any input span.
    fn model_contains(spans: &[TimeSpan], ts: Ts) -> bool {
        spans.iter().any(|s| s.contains(ts))
    }

    proptest! {
        #[test]
        fn normalization_preserves_membership(spans in arb_spans(), probe in 0u64..600) {
            let set = IntervalSet::from_spans(spans.clone());
            prop_assert_eq!(set.contains(Ts(probe)), model_contains(&spans, Ts(probe)));
        }

        #[test]
        fn union_is_pointwise_or(a in arb_spans(), b in arb_spans(), probe in 0u64..600) {
            let (sa, sb) = (IntervalSet::from_spans(a), IntervalSet::from_spans(b));
            let u = sa.union(&sb);
            prop_assert_eq!(
                u.contains(Ts(probe)),
                sa.contains(Ts(probe)) || sb.contains(Ts(probe))
            );
        }

        #[test]
        fn intersect_is_pointwise_and(a in arb_spans(), b in arb_spans(), probe in 0u64..600) {
            let (sa, sb) = (IntervalSet::from_spans(a), IntervalSet::from_spans(b));
            let i = sa.intersect(&sb);
            prop_assert_eq!(
                i.contains(Ts(probe)),
                sa.contains(Ts(probe)) && sb.contains(Ts(probe))
            );
        }

        #[test]
        fn subtract_is_pointwise_andnot(a in arb_spans(), b in arb_spans(), probe in 0u64..600) {
            let (sa, sb) = (IntervalSet::from_spans(a), IntervalSet::from_spans(b));
            let d = sa.subtract(&sb);
            prop_assert_eq!(
                d.contains(Ts(probe)),
                sa.contains(Ts(probe)) && !sb.contains(Ts(probe))
            );
        }

        #[test]
        fn inclusion_exclusion(a in arb_spans(), b in arb_spans()) {
            let (sa, sb) = (IntervalSet::from_spans(a), IntervalSet::from_spans(b));
            let union = sa.union(&sb).total();
            let inter = sa.intersect(&sb).total();
            prop_assert_eq!(union + inter, sa.total() + sb.total());
        }

        #[test]
        fn subtract_partitions(a in arb_spans(), b in arb_spans()) {
            let (sa, sb) = (IntervalSet::from_spans(a), IntervalSet::from_spans(b));
            prop_assert_eq!(
                sa.subtract(&sb).total() + sa.intersect(&sb).total(),
                sa.total()
            );
        }

        #[test]
        fn result_is_normalized(a in arb_spans(), b in arb_spans()) {
            let (sa, sb) = (IntervalSet::from_spans(a), IntervalSet::from_spans(b));
            for out in [sa.union(&sb), sa.intersect(&sb), sa.subtract(&sb)] {
                for w in out.spans().windows(2) {
                    prop_assert!(w[0].end < w[1].start);
                }
                for s in out.spans() {
                    prop_assert!(!s.is_empty());
                }
            }
        }
    }
}
