//! The bounded worker pool and the per-request execution paths.
//!
//! Compute requests (`predict` / `search` / `refine`), already checked
//! when their line was parsed, flow through a bounded queue into a
//! fixed set of worker threads — the daemon's backpressure story in
//! one place:
//!
//! * **shed, don't buffer**: when the queue is full, [`Pool::submit`]
//!   hands the job back and the connection answers with a typed
//!   `overloaded` error instead of queueing unboundedly;
//! * **deadlines are end-to-end**: a request's deadline covers queue
//!   wait *and* service. A job still queued at its deadline is answered
//!   `deadline_exceeded` by its connection, which stops waiting then,
//!   and the worker that later dequeues it skips it; a search that
//!   expires mid-run is cancelled cooperatively via
//!   [`lumos_search::SearchOptions::deadline`], checked between
//!   candidates, finalists and replicas;
//! * **artifacts are pinned at enqueue**: a job carries its
//!   `Arc<LoadedArtifact>`, so a registry reload during queueing or
//!   execution never changes what the request computes against.

use crate::protocol::{self, ErrorResponse, Query, SearchQuery};
use crate::registry::LoadedArtifact;
use crate::stats::ServerStats;
use lumos_core::manipulate::Transform;
use lumos_core::Lumos;
use lumos_search::{search_calibrated, SearchError, SearchOptions, SearchReport};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One queued unit of work: the pinned artifact, the checked query,
/// and the reply channel its connection is waiting on.
pub(crate) struct Job {
    pub artifact: Arc<LoadedArtifact>,
    pub query: Query,
    /// When the connection enqueued it (latency measurement origin).
    pub enqueued: Instant,
    /// Absolute expiry instant, from the request's `deadline_ms`.
    pub deadline: Option<Instant>,
    /// Where the finished response line goes.
    pub reply: mpsc::Sender<String>,
    /// Set by whichever side takes the job first: the worker that
    /// dequeues it, or its connection when the deadline passes while
    /// it is queued (the connection then answers it, and the worker
    /// skips it). Both sides `swap` it, so exactly one sees `false`;
    /// it guards no other data.
    pub taken: Arc<AtomicBool>,
}

/// The bounded worker pool.
pub(crate) struct Pool {
    tx: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
    queue_capacity: usize,
}

impl Pool {
    /// Spawns `workers` threads over a bounded queue of
    /// `queue_capacity` jobs.
    pub(crate) fn new(
        workers: usize,
        queue_capacity: usize,
        stats: Arc<ServerStats>,
        search_threads: Option<usize>,
    ) -> Pool {
        let (tx, rx) = mpsc::sync_channel::<Job>(queue_capacity);
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let stats = Arc::clone(&stats);
                std::thread::spawn(move || worker_loop(&rx, &stats, search_threads))
            })
            .collect();
        Pool {
            tx: Some(tx),
            workers: handles,
            queue_capacity,
        }
    }

    /// The queue bound (for stats reporting).
    pub(crate) fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Worker-thread count (for stats reporting).
    pub(crate) fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues a job, or hands it back when the queue is full (the
    /// caller sheds it with an `overloaded` response).
    pub(crate) fn submit(&self, job: Job) -> Result<(), Box<Job>> {
        let tx = self.tx.as_ref().expect("pool already shut down");
        match tx.try_send(job) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(job)) | Err(TrySendError::Disconnected(job)) => {
                Err(Box::new(job))
            }
        }
    }

    /// Closes the queue and joins every worker (queued jobs drain
    /// first).
    pub(crate) fn shutdown(&mut self) {
        self.tx = None; // disconnects the channel; workers drain and exit
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(rx: &Arc<Mutex<Receiver<Job>>>, stats: &ServerStats, search_threads: Option<usize>) {
    loop {
        // Hold the receiver lock only for the dequeue itself.
        let job = match rx.lock().expect("pool queue poisoned").recv() {
            Ok(job) => job,
            Err(_) => break, // queue closed: daemon shutting down
        };
        stats.dequeue();
        if job.taken.swap(true, Ordering::AcqRel) {
            continue; // expired in the queue: its connection answered
        }
        let line = run_job(&job, stats, search_threads);
        // A vanished connection is not a worker problem.
        let _ = job.reply.send(line);
    }
}

/// Executes one job end to end, producing the response line and
/// updating the counters.
fn run_job(job: &Job, stats: &ServerStats, search_threads: Option<usize>) -> String {
    let now = Instant::now();
    if job.deadline.is_some_and(|d| now >= d) {
        // Expired while queued: answer without running.
        stats.record_deadline_exceeded();
        return protocol::response_line(&ErrorResponse::new(
            "deadline_exceeded",
            "request expired while queued",
        ));
    }
    let remaining = job.deadline.map(|d| d.saturating_duration_since(now));
    // The stats slot is the kind's index in `KIND_NAMES`.
    let (slot, outcome) = match &job.query {
        Query::Predict(transforms) => (0, execute_predict(&job.artifact, transforms)),
        Query::Search(query) => (
            1,
            run_search(&job.artifact, query, search_threads, remaining)
                .map(|report| search_line(&report, query.top, stats)),
        ),
        Query::Refine(query) => (
            2,
            run_search(&job.artifact, query, search_threads, remaining)
                .and_then(|r| refine_line(&r)),
        ),
    };
    match outcome {
        Ok(line) => {
            let latency_us = job.enqueued.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            stats.record_served(slot, latency_us);
            line
        }
        Err(err) => {
            if err.error.kind == "deadline_exceeded" {
                stats.record_deadline_exceeded();
            }
            protocol::response_line(&err)
        }
    }
}

/// Maps a search failure onto the protocol's error kinds.
fn search_error(err: &SearchError) -> ErrorResponse {
    match err {
        SearchError::DeadlineExceeded => ErrorResponse::new("deadline_exceeded", err.to_string()),
        SearchError::EmptySpace { .. } => ErrorResponse::new("infeasible", err.to_string()),
        SearchError::InvalidProgram { .. } => {
            ErrorResponse::new("invalid_program", err.to_string())
        }
        _ => ErrorResponse::new("internal", err.to_string()),
    }
}

fn execute_predict(la: &LoadedArtifact, transforms: &[Transform]) -> Result<String, ErrorResponse> {
    let toolkit = Lumos::new();
    let prediction = toolkit
        .predict_with_library(
            la.calibration.library(),
            la.calibration.base(),
            transforms,
            la.calibration.lookup(),
        )
        .map_err(|e| ErrorResponse::new("infeasible", e.to_string()))?;
    let response = protocol::predict_response(
        &la.calibration.base().label(),
        la.calibration.base_makespan(),
        &prediction,
    );
    Ok(protocol::response_line(&response))
}

/// Runs a checked query with the daemon's own knobs added: static
/// verification of every program it simulates for a remote caller
/// (free for clean programs, so answers stay byte-identical with the
/// CLI, which verifies only under `--verify`), the worker's search
/// threads, the remaining deadline, and the artifact's shared memo.
fn run_search(
    la: &LoadedArtifact,
    query: &SearchQuery,
    search_threads: Option<usize>,
    remaining: Option<Duration>,
) -> Result<SearchReport, ErrorResponse> {
    let opts = SearchOptions {
        top_k: Some(query.top),
        verify: true,
        threads: search_threads,
        deadline: remaining,
        shared_memo: Some(Arc::clone(&la.shared_memo)),
        ..query.options.clone()
    };
    search_calibrated(&la.calibration, &query.space, &opts).map_err(|e| search_error(&e))
}

/// The `search` answer, counting adaptive and fault work for `stats`.
fn search_line(report: &SearchReport, top: usize, stats: &ServerStats) -> String {
    if let Some(adaptive) = &report.adaptive {
        stats.record_adaptive(adaptive.visited as u64, adaptive.frontier as u64);
    }
    if let Some(refined) = &report.refined {
        let replicas: u64 = refined
            .iter()
            .filter_map(|r| r.faults.as_ref())
            .map(|f| u64::from(f.replicas))
            .sum();
        if replicas > 0 {
            stats.record_faults(replicas);
        }
    }
    protocol::response_line(&protocol::search_response(report, top))
}

/// The `refine` answer: the one refined candidate, or why there is
/// none.
fn refine_line(report: &SearchReport) -> Result<String, ErrorResponse> {
    match report.refined.as_ref().and_then(|r| r.first()) {
        Some(refined) => Ok(protocol::response_line(&protocol::refine_response(
            &report.base_label,
            refined,
        ))),
        None => {
            let detail = if let Some(p) = report.pruned.first() {
                format!(
                    "memory-infeasible: stage {} requires {} bytes (capacity {})",
                    p.stage, p.required_bytes, p.capacity_bytes
                )
            } else if let Some(r) = report.rejected.first() {
                format!("not rankable: {}", r.reason)
            } else {
                "candidate was rejected by the configuration lattice".to_string()
            };
            Err(ErrorResponse::new("infeasible", detail))
        }
    }
}
