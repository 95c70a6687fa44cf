//! The bounded worker pool and the per-request execution paths.
//!
//! Compute requests (`predict` / `search` / `refine`) flow through a
//! bounded queue into a fixed set of worker threads — the daemon's
//! backpressure story in one place:
//!
//! * **shed, don't buffer**: when the queue is full, [`Pool::submit`]
//!   hands the job back and the connection answers with a typed
//!   `overloaded` error instead of queueing unboundedly;
//! * **deadlines are end-to-end**: a request's deadline covers queue
//!   wait *and* service. A job that expires while queued is answered
//!   `deadline_exceeded` without running; a search that expires
//!   mid-run is cancelled cooperatively via
//!   [`lumos_search::SearchOptions::deadline`] threaded into the
//!   atomic-cursor evaluator;
//! * **artifacts are pinned at enqueue**: a job carries its
//!   `Arc<LoadedArtifact>`, so a registry reload during queueing or
//!   execution never changes what the request computes against.

use crate::protocol::{self, ErrorResponse, PredictRequest, RefineRequest, SearchRequest};
use crate::registry::LoadedArtifact;
use crate::stats::ServerStats;
use lumos_core::manipulate::Transform;
use lumos_core::Lumos;
use lumos_cost::GpuSpec;
use lumos_search::{search_calibrated, SearchError, SearchOptions, SpaceSpec};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// A compute request bound for the pool.
#[derive(Debug, Clone)]
pub(crate) enum ComputeRequest {
    Predict(PredictRequest),
    Search(Box<SearchRequest>),
    Refine(RefineRequest),
}

/// One queued unit of work: the pinned artifact, the request, and the
/// reply channel its connection is waiting on.
pub(crate) struct Job {
    pub artifact: Arc<LoadedArtifact>,
    pub request: ComputeRequest,
    /// Stats slot of the request kind.
    pub kind_slot: usize,
    /// When the connection enqueued it (latency measurement origin).
    pub enqueued: Instant,
    /// Absolute expiry instant, from the request's `deadline_ms`.
    pub deadline: Option<Instant>,
    /// Where the finished response line goes.
    pub reply: mpsc::Sender<String>,
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
    let outcome = match &job.request {
        ComputeRequest::Predict(req) => execute_predict(&job.artifact, req),
        ComputeRequest::Search(req) => {
            execute_search(&job.artifact, req, search_threads, remaining, stats)
        }
        ComputeRequest::Refine(req) => {
            execute_refine(&job.artifact, req, search_threads, remaining)
        }
    };
    match outcome {
        Ok(line) => {
            let latency_us = job.enqueued.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            stats.record_served(job.kind_slot, latency_us);
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

fn bad_request(detail: impl Into<String>) -> ErrorResponse {
    ErrorResponse::new("bad_request", detail)
}

/// Resolves schedule names; an unknown name is a `bad_request` whose
/// detail lists the known set.
fn resolve_schedules(names: &[String]) -> Result<Vec<lumos_model::ScheduleKind>, ErrorResponse> {
    names
        .iter()
        .map(|name| {
            lumos_model::ScheduleKind::from_name(name).map_err(|e| bad_request(e.to_string()))
        })
        .collect()
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

/// The request's transforms in the same order `lumos predict` applies
/// them — a different order could reassemble a different (equally
/// valid) graph and break byte-identity with the CLI.
fn predict_transforms(req: &PredictRequest) -> Result<Vec<Transform>, ErrorResponse> {
    let mut transforms = Vec::new();
    if let Some(tp) = req.tp {
        transforms.push(Transform::TensorParallel { tp });
    }
    if let Some(pp) = req.pp {
        transforms.push(Transform::PipelineParallel { pp });
    }
    if let Some(dp) = req.dp {
        transforms.push(Transform::DataParallel { dp });
    }
    if let Some(layers) = req.layers {
        transforms.push(Transform::NumLayers { layers });
    }
    match (req.hidden, req.ffn) {
        (Some(hidden), Some(ffn)) => transforms.push(Transform::HiddenSize { hidden, ffn }),
        (None, None) => {}
        _ => return Err(bad_request("`hidden` and `ffn` must be given together")),
    }
    if let Some(seq_len) = req.seq {
        transforms.push(Transform::SeqLen { seq_len });
    }
    if let Some(num) = req.microbatches {
        transforms.push(Transform::Microbatches { num });
    }
    if transforms.is_empty() {
        return Err(bad_request("no transform requested"));
    }
    Ok(transforms)
}

fn execute_predict(la: &LoadedArtifact, req: &PredictRequest) -> Result<String, ErrorResponse> {
    let transforms = predict_transforms(req)?;
    let toolkit = Lumos::new();
    let prediction = toolkit
        .predict_with_library(
            la.calibration.library(),
            la.calibration.base(),
            &transforms,
            la.calibration.lookup(),
        )
        .map_err(|e| ErrorResponse::new("infeasible", e.to_string()))?;
    let response = protocol::predict_response(
        &la.calibration.base().label(),
        la.artifact.fingerprint.makespan,
        &prediction,
    );
    Ok(protocol::response_line(&response))
}

/// Search knobs shared by `search` and `refine`, mirroring the CLI's
/// wiring exactly (objective / memory / top / refinement) so daemon
/// and `--json` output stay byte-identical.
#[allow(clippy::too_many_arguments)]
fn search_options(
    objective: Option<&str>,
    memory_gib: Option<u32>,
    top: usize,
    refine_sim: bool,
    jitter_replicas: u32,
    jitter_seed: Option<u64>,
    search_threads: Option<usize>,
    remaining: Option<std::time::Duration>,
    la: &LoadedArtifact,
) -> Result<SearchOptions, ErrorResponse> {
    let mut opts = SearchOptions::default();
    if let Some(objective) = objective {
        opts.objective = objective.parse().map_err(|e: String| bad_request(e))?;
    }
    if let Some(gib) = memory_gib {
        if gib == 0 {
            return Err(bad_request("gpu memory capacity must be positive"));
        }
        opts.gpu = GpuSpec {
            memory_gib: gib,
            ..opts.gpu
        };
    }
    opts.top_k = Some(top);
    opts.refine_sim = refine_sim;
    if jitter_replicas > 0 {
        opts.jitter_replicas = jitter_replicas;
        opts.refine_sim = true;
    }
    if let Some(seed) = jitter_seed {
        if !opts.refine_sim {
            return Err(bad_request(
                "`jitter_seed` only applies with `refine_sim` / `jitter_replicas`",
            ));
        }
        opts.jitter_seed = seed;
    }
    // Admission-time safety: anything the daemon simulates on behalf
    // of a remote caller is statically verified first. Free for clean
    // programs (results stay byte-identical with the CLI, which only
    // verifies under --verify).
    opts.verify = true;
    opts.threads = search_threads;
    opts.deadline = remaining;
    opts.shared_memo = Some(Arc::clone(&la.shared_memo));
    Ok(opts)
}

fn execute_search(
    la: &LoadedArtifact,
    req: &SearchRequest,
    search_threads: Option<usize>,
    remaining: Option<std::time::Duration>,
    stats: &ServerStats,
) -> Result<String, ErrorResponse> {
    let top = req.top.unwrap_or(10);
    let mut opts = search_options(
        req.objective.as_deref(),
        req.memory_gib,
        top,
        req.refine_sim,
        req.jitter_replicas,
        req.jitter_seed,
        search_threads,
        remaining,
        la,
    )?;
    if let Some(text) = &req.faults_toml {
        let spec = lumos_cluster::FaultSpec::parse(text)
            .map_err(|e| bad_request(format!("`faults_toml`: {e}")))?;
        opts.fault_spec = Some(spec);
        opts.refine_sim = true; // robustness requires the refinement pass
    }
    if let Some(replicas) = req.fault_replicas {
        if opts.fault_spec.is_none() {
            return Err(bad_request(
                "`fault_replicas` only applies with `faults_toml`",
            ));
        }
        opts.fault_replicas = replicas;
    }
    if let Some(seed) = req.fault_seed {
        if opts.fault_spec.is_none() {
            return Err(bad_request("`fault_seed` only applies with `faults_toml`"));
        }
        opts.fault_seed = seed;
    }
    opts.adaptive = req.adaptive;
    if let Some(budget) = req.budget {
        if !req.adaptive {
            return Err(bad_request("`budget` only applies with `adaptive`"));
        }
        opts.budget = Some(budget);
    }
    if let Some(seed) = req.seed {
        if !req.adaptive {
            return Err(bad_request("`seed` only applies with `adaptive`"));
        }
        opts.seed = seed;
    }
    let mut space = SpaceSpec::empty();
    space.tp = req.tp.clone();
    space.pp = req.pp.clone();
    space.dp = req.dp.clone();
    space.microbatches = req.microbatches.clone();
    space.interleave = req.interleave.clone();
    space.schedules = resolve_schedules(&req.schedules)?;
    space.gpus = req.gpus.clone();
    if let Some(max_gpus) = req.max_gpus {
        space.max_gpus = max_gpus;
    }
    let report = search_calibrated(&la.calibration, &space, &opts).map_err(|e| search_error(&e))?;
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
    Ok(protocol::response_line(&protocol::search_response(
        &report, top,
    )))
}

fn execute_refine(
    la: &LoadedArtifact,
    req: &RefineRequest,
    search_threads: Option<usize>,
    remaining: Option<std::time::Duration>,
) -> Result<String, ErrorResponse> {
    let base = la.calibration.base();
    // A single-point space: absent fields pin to the base values, so
    // the whole search machinery (lattice, memory gate, refinement)
    // runs over exactly one candidate.
    let mut space = SpaceSpec::empty();
    space.tp = vec![req.tp.unwrap_or(base.parallelism.tp)];
    space.pp = vec![req.pp.unwrap_or(base.parallelism.pp)];
    space.dp = vec![req.dp.unwrap_or(base.parallelism.dp)];
    space.microbatches = vec![req.microbatches.unwrap_or(base.batch.num_microbatches)];
    space.interleave = vec![req.interleave.unwrap_or(1)];
    if let Some(name) = &req.schedule {
        space.schedules = resolve_schedules(std::slice::from_ref(name))?;
    }
    let opts = search_options(
        None,
        None,
        1,
        true,
        req.jitter_replicas,
        req.jitter_seed,
        search_threads,
        remaining,
        la,
    )?;
    let report = search_calibrated(&la.calibration, &space, &opts).map_err(|e| search_error(&e))?;
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
