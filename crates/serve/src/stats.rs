//! Server observability: lock-free counters and fixed-bucket latency
//! histograms behind the `stats` request.
//!
//! Latencies are recorded in power-of-two microsecond buckets, so a
//! quantile costs one pass over ~40 `u64`s and reports the bucket's
//! upper bound (a conservative answer: the true quantile is ≤ the
//! reported value, never above it). Recording is a single relaxed
//! atomic increment — cheap enough to sit on every request.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Power-of-two µs buckets: bucket `i` holds latencies in
/// `[2^(i−1), 2^i)` µs (bucket 0 holds `0`), covering sub-µs to
/// ~2^39 µs ≈ 6 days.
const BUCKETS: usize = 40;

/// One fixed-bucket latency histogram.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records one latency observation.
    pub fn record_us(&self, us: u64) {
        let bucket = (64 - us.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The `q`-quantile (`0 < q ≤ 1`) as the matching bucket's upper
    /// bound in µs; `0` when nothing was recorded.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cumulative = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cumulative += b.load(Ordering::Relaxed);
            if cumulative >= target {
                return 1u64 << i;
            }
        }
        1u64 << (BUCKETS - 1)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Per-request-kind slot index: the compute kinds the pool serves.
pub const KIND_NAMES: [&str; 3] = ["predict", "search", "refine"];

/// The daemon's shared counters. All methods are `&self` and
/// thread-safe.
#[derive(Debug)]
pub struct ServerStats {
    started: Instant,
    served: [AtomicU64; 3],
    histograms: [Histogram; 3],
    rejected_overloaded: AtomicU64,
    deadline_exceeded: AtomicU64,
    queue_depth: AtomicU64,
    adaptive_runs: AtomicU64,
    adaptive_visited: AtomicU64,
    adaptive_frontier: AtomicU64,
    fault_runs: AtomicU64,
    fault_replicas_executed: AtomicU64,
}

impl ServerStats {
    /// Fresh counters; uptime starts now.
    pub fn new() -> Self {
        ServerStats {
            started: Instant::now(),
            served: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            histograms: [Histogram::new(), Histogram::new(), Histogram::new()],
            rejected_overloaded: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            adaptive_runs: AtomicU64::new(0),
            adaptive_visited: AtomicU64::new(0),
            adaptive_frontier: AtomicU64::new(0),
            fault_runs: AtomicU64::new(0),
            fault_replicas_executed: AtomicU64::new(0),
        }
    }

    /// Seconds since the daemon started.
    pub fn uptime_secs(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Records one successfully served compute request and its
    /// client-visible latency (queue wait + service).
    pub fn record_served(&self, slot: usize, latency_us: u64) {
        self.served[slot].fetch_add(1, Ordering::Relaxed);
        self.histograms[slot].record_us(latency_us);
    }

    /// Requests served for one kind slot.
    pub fn served(&self, slot: usize) -> u64 {
        self.served[slot].load(Ordering::Relaxed)
    }

    /// Latency quantile for one kind slot.
    pub fn quantile_us(&self, slot: usize, q: f64) -> u64 {
        self.histograms[slot].quantile_us(q)
    }

    /// Counts one request shed because the queue was full.
    pub fn record_overloaded(&self) {
        self.rejected_overloaded.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests shed so far.
    pub fn overloaded(&self) -> u64 {
        self.rejected_overloaded.load(Ordering::Relaxed)
    }

    /// Counts one request that hit its deadline (queued or running).
    pub fn record_deadline_exceeded(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// Deadline-exceeded requests so far.
    pub fn deadline_exceeded(&self) -> u64 {
        self.deadline_exceeded.load(Ordering::Relaxed)
    }

    /// Queue-depth bookkeeping: one request entered the bounded queue.
    pub fn enqueue(&self) {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// Queue-depth bookkeeping: a worker took one request out.
    pub fn dequeue(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Compute requests waiting in the queue right now.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Records one completed adaptive search: how many grid indices it
    /// visited and its frontier size at termination.
    pub fn record_adaptive(&self, visited: u64, frontier: u64) {
        self.adaptive_runs.fetch_add(1, Ordering::Relaxed);
        self.adaptive_visited.fetch_add(visited, Ordering::Relaxed);
        self.adaptive_frontier
            .fetch_add(frontier, Ordering::Relaxed);
    }

    /// Adaptive searches served so far.
    pub fn adaptive_runs(&self) -> u64 {
        self.adaptive_runs.load(Ordering::Relaxed)
    }

    /// Grid indices visited across all adaptive searches.
    pub fn adaptive_visited(&self) -> u64 {
        self.adaptive_visited.load(Ordering::Relaxed)
    }

    /// Frontier entries live at termination, summed over runs.
    pub fn adaptive_frontier(&self) -> u64 {
        self.adaptive_frontier.load(Ordering::Relaxed)
    }

    /// Records one fault-robust search: how many fault replicas it
    /// executed across its finalists.
    pub fn record_faults(&self, replicas: u64) {
        self.fault_runs.fetch_add(1, Ordering::Relaxed);
        self.fault_replicas_executed
            .fetch_add(replicas, Ordering::Relaxed);
    }

    /// Fault-robust searches served so far.
    pub fn fault_runs(&self) -> u64 {
        self.fault_runs.load(Ordering::Relaxed)
    }

    /// Fault replicas executed across all fault-robust searches.
    pub fn fault_replicas_executed(&self) -> u64 {
        self.fault_replicas_executed.load(Ordering::Relaxed)
    }
}

impl Default for ServerStats {
    fn default() -> Self {
        ServerStats::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_bucket_upper_bounds() {
        let h = Histogram::new();
        assert_eq!(h.quantile_us(0.5), 0);
        for us in [1u64, 1, 1, 1000] {
            h.record_us(us);
        }
        // Three of four observations land in the 1 µs bucket (< 2 µs).
        assert_eq!(h.quantile_us(0.5), 2);
        assert_eq!(h.quantile_us(0.75), 2);
        // The tail observation lands in [512, 1024) µs.
        assert_eq!(h.quantile_us(0.99), 1024);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn zero_latency_lands_in_bucket_zero() {
        let h = Histogram::new();
        h.record_us(0);
        assert_eq!(h.quantile_us(1.0), 1);
    }
}
