//! The traced run's span recorder: one span around each public call
//! the benchmark makes into the Lumos crates, kept in memory and
//! written out as a Chrome trace when the run ends.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    op: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Recorded spans of one process, timed against one origin.
pub struct Spans {
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            op: 0,
            spans: Vec::new(),
        }
    }

    /// Starts a new op: later spans share its identifier.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            op: self.op,
            start_ns,
            end_ns,
        });
        out
    }

    /// A mark for [`Spans::totals_since`].
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Nanoseconds per span name over the spans recorded since `mark`.
    pub fn totals_since(&self, mark: usize) -> BTreeMap<&'static str, u64> {
        let mut totals = BTreeMap::new();
        for s in &self.spans[mark..] {
            *totals.entry(s.name).or_insert(0) += s.end_ns - s.start_ns;
        }
        totals
    }

    /// Writes every span as a Chrome trace (one thread per op).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    r#"{{"name":"{}","ph":"X","pid":0,"tid":{},"ts":{:.3},"dur":{:.3}}}"#,
                    s.name,
                    s.op,
                    s.start_ns as f64 / 1e3,
                    (s.end_ns - s.start_ns) as f64 / 1e3
                )
            })
            .collect();
        std::fs::write(
            path,
            format!("{{\"traceEvents\":[{}]}}\n", events.join(",\n")),
        )
    }
}
