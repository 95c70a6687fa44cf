//! Worker-pool sizing and the shared atomic-cursor claim loop.
//!
//! Every parallel walk in the workspace — the batch evaluator both
//! search engines score through (`evaluate::process_batch`), the
//! refinement of search finalists, and `lumos lint`'s space-file mode
//! — shards the same way: plain `std::thread::scope` threads claiming
//! indices from one shared atomic cursor ([`Claims`]), so load
//! imbalance between items self-levels without a work-stealing
//! runtime (the usual crate for this is `rayon`; this workspace builds
//! offline).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves the worker count: explicit override, else available
/// parallelism, never more than `jobs` and never zero.
pub fn effective_threads(requested: Option<usize>, jobs: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    requested.unwrap_or(hw).clamp(1, jobs.max(1))
}

/// One shared work cursor over `0..total`: workers call [`Claims::next`]
/// until it returns `None`. Claiming is a single relaxed `fetch_add`,
/// so the only coordination cost per item is one atomic RMW.
pub struct Claims {
    cursor: AtomicUsize,
    total: usize,
}

impl Claims {
    /// A fresh cursor over `0..total`.
    pub fn new(total: usize) -> Self {
        Claims {
            cursor: AtomicUsize::new(0),
            total,
        }
    }

    /// Claims the next unprocessed index, or `None` when the range is
    /// exhausted.
    pub fn next(&self) -> Option<usize> {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        (i < self.total).then_some(i)
    }
}

/// Runs `worker` on `threads` scoped threads against one shared
/// [`Claims`] cursor over `0..total`, returning each thread's result
/// in spawn order.
///
/// The worker owns its claim loop (`while let Some(i) = claims.next()`)
/// so it can bail early on cancellation or deadline; per-thread results
/// are merged by the caller, which keeps the hot path free of shared
/// locks.
pub fn run_claimed<T, F>(threads: usize, total: usize, worker: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &Claims) -> T + Sync,
{
    let claims = Claims::new(total);
    let (claims, worker) = (&claims, &worker);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|t| s.spawn(move || worker(t, claims)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("search worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_threads_clamps() {
        assert_eq!(effective_threads(Some(16), 3), 3);
        assert_eq!(effective_threads(Some(0), 3), 1);
        assert!(effective_threads(None, 100) >= 1);
        assert_eq!(effective_threads(Some(2), 0), 1);
    }

    #[test]
    fn claims_cover_the_range_exactly_once() {
        for threads in [1usize, 2, 4, 7] {
            let per_thread = run_claimed(threads, 100, |_, claims| {
                let mut mine = Vec::new();
                while let Some(i) = claims.next() {
                    mine.push(i);
                }
                mine
            });
            let mut all: Vec<usize> = per_thread.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, (0..100).collect::<Vec<_>>());
        }
    }

    #[test]
    fn next_stays_none_past_total() {
        let claims = Claims::new(2);
        assert_eq!(claims.next(), Some(0));
        assert_eq!(claims.next(), Some(1));
        assert_eq!(claims.next(), None);
        assert_eq!(claims.next(), None);
    }

    #[test]
    fn empty_range_spawns_but_claims_nothing() {
        let results = run_claimed(3, 0, |t, claims| {
            assert!(claims.next().is_none());
            t
        });
        assert_eq!(results, vec![0, 1, 2]);
    }
}
