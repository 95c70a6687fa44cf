//! The line-delimited JSON protocol: one request object per line in,
//! one response object per line out.
//!
//! The response types here are **the single schema** for machine-
//! readable estimation output: the daemon serializes them onto the
//! socket, and `lumos predict --json` / `lumos search --json` print
//! exactly the same serialization to stdout. Both sides build
//! responses through the constructors in this module
//! ([`predict_response`], [`search_response`]) and encode them with
//! [`response_line`], so a daemon answer is byte-identical to the CLI
//! answer for the same artifact and knobs — the property the
//! integration tests and the CI smoke diff assert.
//!
//! Requests are parsed by hand from a [`serde_json::Value`] so a
//! malformed line yields one precise `bad_request` message (unknown
//! key, wrong type, missing field) instead of a generic shape error.
//! Durations travel as integer nanoseconds (`*_ns`) — never floats —
//! so equality is exact.
//!
//! Only numbers that describe the answer appear in [`SearchResponse`]:
//! grid totals, lattice-reject counts, memory prunes, and the ranked
//! results themselves. Bound-skip / evaluated / memo counters describe
//! the work that found it (a warm shared memo, or the adaptive engine,
//! reaches the same answer with other counts) and are deliberately
//! excluded.

use lumos_search::{RefinedResult, SearchReport};
use serde::{Deserialize, Serialize};
use serde_json::Value;

/// A parsed request line.
#[derive(Debug, Clone)]
pub enum Request {
    /// Price one configuration change against an artifact.
    Predict(PredictRequest),
    /// Rank a configuration space against an artifact.
    Search(Box<SearchRequest>),
    /// Engine-refine one candidate configuration.
    Refine(RefineRequest),
    /// Report server statistics.
    Stats,
    /// Rescan the registry directory.
    Reload,
    /// Stop the daemon.
    Shutdown,
}

impl Request {
    /// The request's `kind` string (used for per-kind stats keys).
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Predict(_) => "predict",
            Request::Search(_) => "search",
            Request::Refine(_) => "refine",
            Request::Stats => "stats",
            Request::Reload => "reload",
            Request::Shutdown => "shutdown",
        }
    }
}

/// `{"kind":"predict",...}` — mirror of `lumos predict --calib`:
/// every transform field optional, at least one required.
#[derive(Debug, Clone, Default)]
pub struct PredictRequest {
    /// Digest key of the artifact to price against (`0x`-hex).
    pub artifact: String,
    /// Tensor-parallel degree.
    pub tp: Option<u32>,
    /// Pipeline-parallel degree.
    pub pp: Option<u32>,
    /// Data-parallel degree.
    pub dp: Option<u32>,
    /// Layer count.
    pub layers: Option<u32>,
    /// Hidden size (give with `ffn`).
    pub hidden: Option<u64>,
    /// FFN size (give with `hidden`).
    pub ffn: Option<u64>,
    /// Sequence length.
    pub seq: Option<u64>,
    /// Micro-batches per iteration.
    pub microbatches: Option<u32>,
    /// Per-request deadline in milliseconds (queue wait included).
    pub deadline_ms: Option<u64>,
}

/// `{"kind":"search",...}` — mirror of `lumos search --calib`: axis
/// arrays (empty / absent = base value), ranking knobs, refinement.
#[derive(Debug, Clone, Default)]
pub struct SearchRequest {
    /// Digest key of the artifact to search against (`0x`-hex).
    pub artifact: String,
    /// Tensor-parallel axis.
    pub tp: Vec<u32>,
    /// Pipeline-parallel axis.
    pub pp: Vec<u32>,
    /// Data-parallel axis.
    pub dp: Vec<u32>,
    /// Micro-batch axis.
    pub microbatches: Vec<u32>,
    /// Interleave axis.
    pub interleave: Vec<u32>,
    /// Schedule axis: schedule names (empty = base's).
    pub schedules: Vec<String>,
    /// Exact allowed world sizes.
    pub gpus: Option<Vec<u32>>,
    /// Hard GPU budget.
    pub max_gpus: Option<u32>,
    /// Ranking objective (`makespan` / `throughput` / `mfu`).
    pub objective: Option<String>,
    /// Results to report (default 10).
    pub top: Option<usize>,
    /// Per-GPU memory capacity for the feasibility gate.
    pub memory_gib: Option<u32>,
    /// Engine-refine the finals.
    pub refine_sim: bool,
    /// Jitter replicas per finalist (> 0 implies `refine_sim`).
    pub jitter_replicas: u32,
    /// Jitter-model seed.
    pub jitter_seed: Option<u64>,
    /// Fault-scenario spec **text** (the contents of a `--faults`
    /// TOML file, not a path — the daemon never reads client
    /// filesystems). Presence implies `refine_sim`.
    pub faults_toml: Option<String>,
    /// Fault replicas per finalist (`--fault-replicas`; default 32).
    pub fault_replicas: Option<u32>,
    /// Fault-sampling seed (`--fault-seed`).
    pub fault_seed: Option<u64>,
    /// Per-request deadline in milliseconds (queue wait included).
    pub deadline_ms: Option<u64>,
    /// Run the corpus-guided adaptive engine instead of the
    /// exhaustive walk (mirror of `lumos search --adaptive`).
    pub adaptive: bool,
    /// Adaptive full-evaluation budget (`--budget`).
    pub budget: Option<usize>,
    /// Adaptive RNG seed (`--seed`); fixed seeds replay identically.
    pub seed: Option<u64>,
}

/// `{"kind":"refine",...}` — engine-refine a single pinned candidate
/// (absent fields default to the artifact's base configuration).
#[derive(Debug, Clone, Default)]
pub struct RefineRequest {
    /// Digest key of the artifact to refine against (`0x`-hex).
    pub artifact: String,
    /// Tensor-parallel degree (default: base).
    pub tp: Option<u32>,
    /// Pipeline-parallel degree (default: base).
    pub pp: Option<u32>,
    /// Data-parallel degree (default: base).
    pub dp: Option<u32>,
    /// Micro-batches per iteration (default: base).
    pub microbatches: Option<u32>,
    /// Interleaved-1F1B virtual chunks (default: 1).
    pub interleave: Option<u32>,
    /// Schedule name (default: the artifact base's).
    pub schedule: Option<String>,
    /// Jitter replicas (0 = zero-jitter refinement only).
    pub jitter_replicas: u32,
    /// Jitter-model seed.
    pub jitter_seed: Option<u64>,
    /// Per-request deadline in milliseconds (queue wait included).
    pub deadline_ms: Option<u64>,
}

/// Typed failure sent instead of a success payload. Success payloads
/// never carry a top-level `error` key, so clients dispatch on its
/// presence alone.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct ErrorResponse {
    /// The failure.
    pub error: ErrorBody,
}

/// The inside of an [`ErrorResponse`].
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct ErrorBody {
    /// Stable machine-readable kind: `bad_request`,
    /// `unknown_artifact`, `overloaded`, `deadline_exceeded`,
    /// `infeasible`, or `internal`.
    pub kind: String,
    /// Human-readable detail.
    pub detail: String,
}

impl ErrorResponse {
    /// Builds a typed error.
    pub fn new(kind: &str, detail: impl Into<String>) -> Self {
        ErrorResponse {
            error: ErrorBody {
                kind: kind.to_string(),
                detail: detail.into(),
            },
        }
    }
}

/// Predicted-breakdown component of a [`PredictResponse`].
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct BreakdownBody {
    /// Compute time not overlapped by communication.
    pub exposed_compute_ns: u64,
    /// Compute/communication overlap.
    pub overlapped_ns: u64,
    /// Communication time not hidden behind compute.
    pub exposed_comm_ns: u64,
    /// Everything else (host gaps, bubbles).
    pub other_ns: u64,
}

/// Successful `predict` payload — also what `lumos predict --json`
/// prints.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct PredictResponse {
    /// Always `"predict"`.
    pub kind: String,
    /// Base configuration label.
    pub base: String,
    /// Target configuration label.
    pub target: String,
    /// Pipeline-schedule name the target runs under.
    pub schedule: String,
    /// Recorded makespan of the base trace.
    pub recorded_ns: u64,
    /// Predicted makespan of the target.
    pub predicted_ns: u64,
    /// Where the predicted time goes.
    pub breakdown: BreakdownBody,
}

/// One ranked candidate in a [`SearchResponse`].
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct SearchResultBody {
    /// 1-based rank under the requested objective.
    pub rank: usize,
    /// Display label (`TPxPPxDP m=N [v=N]`).
    pub label: String,
    /// Tensor-parallel degree.
    pub tp: u32,
    /// Pipeline-parallel degree.
    pub pp: u32,
    /// Data-parallel degree.
    pub dp: u32,
    /// Micro-batches per iteration.
    pub microbatches: u32,
    /// Interleaved-1F1B virtual chunks.
    pub interleave: u32,
    /// Pipeline-schedule name the candidate runs under.
    pub schedule: String,
    /// Total GPUs occupied.
    pub gpus: u32,
    /// Predicted iteration time.
    pub makespan_ns: u64,
    /// Training throughput normalized by cluster size.
    pub tokens_per_sec_per_gpu: f64,
    /// Model-FLOPS utilization.
    pub mfu: f64,
    /// Pipeline-bubble fraction.
    pub bubble_fraction: f64,
    /// Peak-stage memory estimate.
    pub memory_bytes: u64,
}

/// Jitter-robustness statistics of a refined finalist.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct JitterBody {
    /// Deterministic variance replicas executed.
    pub replicas: u32,
    /// Mean simulated makespan across replicas.
    pub mean_ns: u64,
    /// Nearest-rank p95 simulated makespan.
    pub p95_ns: u64,
    /// Stability score `mean / p95` in `(0, 1]`; absent when fewer
    /// than 2 replicas ran (a p95 needs at least two observations).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub stability: Option<f64>,
}

/// Fault-robustness statistics of a refined finalist (the
/// `faults_toml` pass).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct FaultBody {
    /// Deterministic fault replicas executed.
    pub replicas: u32,
    /// Expected (mean) makespan across fault replicas.
    pub expected_ns: u64,
    /// Nearest-rank p95 makespan across fault replicas.
    pub p95_ns: u64,
    /// Relative degradation `(expected − clean) / clean`, ≥ 0.
    pub degradation: f64,
    /// Robustness score `clean / p95` in `(0, 1]`.
    pub robustness: f64,
}

/// One engine-refined finalist in a [`SearchResponse`] (and the body
/// of a [`RefineResponse`]).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct RefinedBody {
    /// 1-based refined rank.
    pub rank: usize,
    /// Display label.
    pub label: String,
    /// Phase one's analytic makespan estimate.
    pub analytic_ns: u64,
    /// Zero-jitter engine-simulated makespan.
    pub simulated_ns: u64,
    /// Signed relative delta `(simulated − analytic) / analytic`.
    pub delta: f64,
    /// Robustness statistics when the jitter pass ran.
    pub jitter: Option<JitterBody>,
    /// Fault statistics when a non-empty fault spec ran; absent
    /// otherwise (older clients never see the key).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub faults: Option<FaultBody>,
}

/// Successful `search` payload — also what `lumos search --json`
/// prints. Carries only run-to-run deterministic numbers.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct SearchResponse {
    /// Always `"search"`.
    pub kind: String,
    /// Base configuration label.
    pub base: String,
    /// Recorded makespan of the base trace.
    pub base_makespan_ns: u64,
    /// Ranking objective.
    pub objective: String,
    /// Grid points enumerated.
    pub grid_points: usize,
    /// Candidates rejected by the GPU budget.
    pub budget_rejects: usize,
    /// Candidates rejected by divisibility constraints.
    pub divisibility_rejects: usize,
    /// Candidates rejected by structural TP constraints.
    pub structural_rejects: usize,
    /// Candidates cut by the memory-feasibility gate.
    pub memory_pruned: usize,
    /// Ranked results, best first.
    pub results: Vec<SearchResultBody>,
    /// Simulation-refined finals, `None` when refinement was off.
    pub refined: Option<Vec<RefinedBody>>,
}

/// Successful `refine` payload.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct RefineResponse {
    /// Always `"refine"`.
    pub kind: String,
    /// Base configuration label.
    pub base: String,
    /// The refined candidate.
    pub result: RefinedBody,
}

/// Per-artifact entry in a [`StatsResponse`].
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct ArtifactStatsBody {
    /// Registry key (`0x`-hex content digest).
    pub digest: String,
    /// Pipeline-schedule name of the artifact's base setup.
    pub schedule: String,
    /// Cross-request stage-work memo hits.
    pub memo_hits: u64,
    /// Cross-request stage-work memo misses (distinct entries derived).
    pub memo_misses: u64,
    /// `hits / (hits + misses)`, 0 when the memo is untouched.
    pub memo_hit_rate: f64,
}

/// Per-request-kind latency/volume entry in a [`StatsResponse`].
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct KindStatsBody {
    /// Request kind (`predict` / `search` / `refine`).
    pub kind: String,
    /// Requests answered successfully.
    pub served: u64,
    /// p50 latency (µs, fixed-bucket upper bound).
    pub p50_us: u64,
    /// p95 latency (µs, fixed-bucket upper bound).
    pub p95_us: u64,
    /// p99 latency (µs, fixed-bucket upper bound).
    pub p99_us: u64,
}

/// Successful `stats` payload.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct StatsResponse {
    /// Always `"stats"`.
    pub kind: String,
    /// Seconds since the daemon started.
    pub uptime_secs: u64,
    /// Compute requests waiting in the bounded queue right now.
    pub queue_depth: u64,
    /// Bounded-queue capacity.
    pub queue_capacity: usize,
    /// Worker threads in the pool.
    pub workers: usize,
    /// Compute requests answered successfully (all kinds).
    pub served: u64,
    /// Compute requests shed with `overloaded`.
    pub rejected_overloaded: u64,
    /// Compute requests that hit their deadline (in queue or mid-run).
    pub deadline_exceeded: u64,
    /// Per-artifact memo statistics, sorted by digest.
    pub artifacts: Vec<ArtifactStatsBody>,
    /// Per-kind volume and latency quantiles.
    pub request_kinds: Vec<KindStatsBody>,
    /// Adaptive searches served.
    pub adaptive_runs: u64,
    /// Grid indices visited across all adaptive searches.
    pub adaptive_visited: u64,
    /// Frontier entries live at termination, summed over adaptive
    /// searches.
    pub adaptive_frontier: u64,
    /// Fault-robust searches served (`faults_toml` requests whose
    /// fault pass ran).
    #[serde(default)]
    pub fault_runs: u64,
    /// Fault replicas executed across all fault-robust searches.
    #[serde(default)]
    pub fault_replicas_executed: u64,
}

/// Successful `reload` payload.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct ReloadResponse {
    /// Always `"reload"`.
    pub kind: String,
    /// Digests newly added by this scan.
    pub loaded: Vec<String>,
    /// Digests already live and still present (kept, memo intact).
    pub kept: Vec<String>,
    /// Digests no longer present in the directory (dropped from the
    /// registry; in-flight requests pinned to them still complete).
    pub dropped: Vec<String>,
    /// Files that failed to load, with reasons; never disturbs live
    /// artifacts.
    pub rejected: Vec<ReloadRejectBody>,
}

/// One rejected file in a [`ReloadResponse`].
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct ReloadRejectBody {
    /// The offending file.
    pub path: String,
    /// Why it was rejected.
    pub detail: String,
}

/// Successful `shutdown` acknowledgement.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct ShutdownResponse {
    /// Always `"shutdown"`.
    pub kind: String,
}

/// Encodes any response as its wire line (no trailing newline — the
/// writer appends exactly one). This is the **only** encoder either
/// side uses, which is what makes daemon and CLI output byte-
/// comparable.
pub fn response_line<T: Serialize>(response: &T) -> String {
    serde_json::to_string(response).expect("responses serialize")
}

/// Builds the shared `predict` payload from the scalars both the CLI
/// and the daemon have in hand after
/// [`lumos_core::Lumos::predict_with_library`].
pub fn predict_response(
    base: &str,
    recorded: lumos_trace::Dur,
    prediction: &lumos_core::manipulate::Prediction,
) -> PredictResponse {
    let b = prediction.replayed.breakdown();
    PredictResponse {
        kind: "predict".to_string(),
        base: base.to_string(),
        target: prediction.setup.label(),
        schedule: prediction.setup.schedule.name().to_string(),
        recorded_ns: recorded.as_ns(),
        predicted_ns: prediction.makespan().as_ns(),
        breakdown: BreakdownBody {
            exposed_compute_ns: b.exposed_compute.as_ns(),
            overlapped_ns: b.overlapped.as_ns(),
            exposed_comm_ns: b.exposed_comm.as_ns(),
            other_ns: b.other.as_ns(),
        },
    }
}

/// Converts one refined finalist.
fn refined_body(rank: usize, r: &RefinedResult) -> RefinedBody {
    RefinedBody {
        rank,
        label: r.label.clone(),
        analytic_ns: r.analytic_makespan.as_ns(),
        simulated_ns: r.simulated_makespan.as_ns(),
        delta: r.delta,
        jitter: r.jitter.as_ref().map(|j| JitterBody {
            replicas: j.replicas,
            mean_ns: j.mean.as_ns(),
            p95_ns: j.p95.as_ns(),
            stability: j.stability,
        }),
        faults: r.faults.as_ref().map(|f| FaultBody {
            replicas: f.replicas,
            expected_ns: f.expected.as_ns(),
            p95_ns: f.p95.as_ns(),
            degradation: f.degradation,
            robustness: f.robustness,
        }),
    }
}

/// Builds the shared `search` payload from a finished report, keeping
/// at most `top` ranked results (refined finals are already a short
/// list). Only deterministic report fields are carried — see the
/// module docs.
pub fn search_response(report: &SearchReport, top: usize) -> SearchResponse {
    SearchResponse {
        kind: "search".to_string(),
        base: report.base_label.clone(),
        base_makespan_ns: report.base_makespan.as_ns(),
        objective: report.objective.to_string(),
        grid_points: report.stats.enumerated,
        budget_rejects: report.stats.budget_rejects,
        divisibility_rejects: report.stats.divisibility_rejects,
        structural_rejects: report.stats.structural_rejects,
        memory_pruned: report.stats.memory_pruned,
        results: report
            .results
            .iter()
            .take(top)
            .enumerate()
            .map(|(i, r)| SearchResultBody {
                rank: i + 1,
                label: r.label.clone(),
                tp: r.candidate.tp,
                pp: r.candidate.pp,
                dp: r.candidate.dp,
                microbatches: r.candidate.microbatches,
                interleave: r.candidate.interleave,
                schedule: r.candidate.schedule.name().to_string(),
                gpus: r.world_size(),
                makespan_ns: r.makespan.as_ns(),
                tokens_per_sec_per_gpu: r.tokens_per_sec_per_gpu,
                mfu: r.utilization.mfu,
                bubble_fraction: r.bubble_fraction,
                memory_bytes: r.memory.total(),
            })
            .collect(),
        refined: report.refined.as_ref().map(|refined| {
            refined
                .iter()
                .enumerate()
                .map(|(i, r)| refined_body(i + 1, r))
                .collect()
        }),
    }
}

/// Builds the `refine` payload from a single-candidate refined report.
pub fn refine_response(base: &str, refined: &RefinedResult) -> RefineResponse {
    RefineResponse {
        kind: "refine".to_string(),
        base: base.to_string(),
        result: refined_body(1, refined),
    }
}

// ---------------------------------------------------------------------
// Request parsing
// ---------------------------------------------------------------------

/// Parses one request line. The error string is the `bad_request`
/// detail the server sends back verbatim.
///
/// # Errors
///
/// Returns a message naming the malformed/unknown/missing field.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value: Value = serde_json::from_str(line).map_err(|e| format!("malformed JSON: {e}"))?;
    let obj = value
        .as_object()
        .ok_or_else(|| format!("request must be a JSON object, got {}", value.kind()))?;
    let kind = obj
        .get("kind")
        .ok_or("missing `kind` field")?
        .as_str()
        .ok_or("`kind` must be a string")?;
    match kind {
        "predict" => parse_predict(obj).map(Request::Predict),
        "search" => parse_search(obj).map(|r| Request::Search(Box::new(r))),
        "refine" => parse_refine(obj).map(Request::Refine),
        "stats" => only_kind(obj).map(|()| Request::Stats),
        "reload" => only_kind(obj).map(|()| Request::Reload),
        "shutdown" => only_kind(obj).map(|()| Request::Shutdown),
        other => Err(format!(
            "unknown request kind `{other}` (expected predict, search, refine, stats, reload, \
             or shutdown)"
        )),
    }
}

/// Rejects unknown keys so typos fail loudly, mirroring the CLI's
/// unknown-option policy.
fn check_keys(obj: &serde_json::Map, allowed: &[&str]) -> Result<(), String> {
    for (key, _) in obj.iter() {
        if key != "kind" && !allowed.contains(&key.as_str()) {
            return Err(format!("unknown field `{key}`"));
        }
    }
    Ok(())
}

fn only_kind(obj: &serde_json::Map) -> Result<(), String> {
    check_keys(obj, &[])
}

fn field_str(obj: &serde_json::Map, key: &str) -> Result<String, String> {
    obj.get(key)
        .ok_or_else(|| format!("missing `{key}` field"))?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("`{key}` must be a string"))
}

fn field_u64_opt(obj: &serde_json::Map, key: &str) -> Result<Option<u64>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    }
}

fn field_u32_opt(obj: &serde_json::Map, key: &str) -> Result<Option<u32>, String> {
    match field_u64_opt(obj, key)? {
        None => Ok(None),
        Some(v) => u32::try_from(v)
            .map(Some)
            .map_err(|_| format!("`{key}` is out of range")),
    }
}

fn field_bool(obj: &serde_json::Map, key: &str) -> Result<bool, String> {
    match obj.get(key) {
        None => Ok(false),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| format!("`{key}` must be a boolean")),
    }
}

/// A `u32` axis: an array of values (absent = empty = base value).
fn field_axis(obj: &serde_json::Map, key: &str) -> Result<Vec<u32>, String> {
    match obj.get(key) {
        None => Ok(Vec::new()),
        Some(v) => {
            let arr = v
                .as_array()
                .ok_or_else(|| format!("`{key}` must be an array of integers"))?;
            arr.iter()
                .map(|e| {
                    e.as_u64()
                        .and_then(|n| u32::try_from(n).ok())
                        .ok_or_else(|| format!("`{key}` must contain non-negative integers"))
                })
                .collect()
        }
    }
}

/// A string axis: an array of names (absent = empty = base value).
fn field_str_axis(obj: &serde_json::Map, key: &str) -> Result<Vec<String>, String> {
    match obj.get(key) {
        None => Ok(Vec::new()),
        Some(v) => {
            let arr = v
                .as_array()
                .ok_or_else(|| format!("`{key}` must be an array of strings"))?;
            arr.iter()
                .map(|e| {
                    e.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("`{key}` must contain strings"))
                })
                .collect()
        }
    }
}

fn parse_predict(obj: &serde_json::Map) -> Result<PredictRequest, String> {
    check_keys(
        obj,
        &[
            "artifact",
            "tp",
            "pp",
            "dp",
            "layers",
            "hidden",
            "ffn",
            "seq",
            "microbatches",
            "deadline_ms",
        ],
    )?;
    let req = PredictRequest {
        artifact: field_str(obj, "artifact")?,
        tp: field_u32_opt(obj, "tp")?,
        pp: field_u32_opt(obj, "pp")?,
        dp: field_u32_opt(obj, "dp")?,
        layers: field_u32_opt(obj, "layers")?,
        hidden: field_u64_opt(obj, "hidden")?,
        ffn: field_u64_opt(obj, "ffn")?,
        seq: field_u64_opt(obj, "seq")?,
        microbatches: field_u32_opt(obj, "microbatches")?,
        deadline_ms: field_u64_opt(obj, "deadline_ms")?,
    };
    if req.hidden.is_some() != req.ffn.is_some() {
        return Err("`hidden` and `ffn` must be given together".to_string());
    }
    if req.tp.is_none()
        && req.pp.is_none()
        && req.dp.is_none()
        && req.layers.is_none()
        && req.hidden.is_none()
        && req.seq.is_none()
        && req.microbatches.is_none()
    {
        return Err(
            "no transform requested (pass tp/pp/dp/layers/hidden+ffn/seq/microbatches)".to_string(),
        );
    }
    Ok(req)
}

fn parse_search(obj: &serde_json::Map) -> Result<SearchRequest, String> {
    check_keys(
        obj,
        &[
            "artifact",
            "tp",
            "pp",
            "dp",
            "microbatches",
            "interleave",
            "schedules",
            "gpus",
            "max_gpus",
            "objective",
            "top",
            "memory_gib",
            "refine_sim",
            "jitter_replicas",
            "jitter_seed",
            "faults_toml",
            "fault_replicas",
            "fault_seed",
            "deadline_ms",
            "adaptive",
            "budget",
            "seed",
        ],
    )?;
    let gpus = match obj.get("gpus") {
        None => None,
        Some(_) => Some(field_axis(obj, "gpus")?),
    };
    let top = match field_u64_opt(obj, "top")? {
        Some(0) => return Err("`top` must be at least 1".to_string()),
        Some(k) => Some(k as usize),
        None => None,
    };
    Ok(SearchRequest {
        artifact: field_str(obj, "artifact")?,
        tp: field_axis(obj, "tp")?,
        pp: field_axis(obj, "pp")?,
        dp: field_axis(obj, "dp")?,
        microbatches: field_axis(obj, "microbatches")?,
        interleave: field_axis(obj, "interleave")?,
        schedules: field_str_axis(obj, "schedules")?,
        gpus,
        max_gpus: field_u32_opt(obj, "max_gpus")?,
        objective: match obj.get("objective") {
            None => None,
            Some(_) => Some(field_str(obj, "objective")?),
        },
        top,
        memory_gib: field_u32_opt(obj, "memory_gib")?,
        refine_sim: field_bool(obj, "refine_sim")?,
        jitter_replicas: field_u32_opt(obj, "jitter_replicas")?.unwrap_or(0),
        jitter_seed: field_u64_opt(obj, "jitter_seed")?,
        faults_toml: match obj.get("faults_toml") {
            None => None,
            Some(_) => Some(field_str(obj, "faults_toml")?),
        },
        fault_replicas: field_u32_opt(obj, "fault_replicas")?,
        fault_seed: field_u64_opt(obj, "fault_seed")?,
        deadline_ms: field_u64_opt(obj, "deadline_ms")?,
        adaptive: field_bool(obj, "adaptive")?,
        budget: field_u64_opt(obj, "budget")?.map(|b| b as usize),
        seed: field_u64_opt(obj, "seed")?,
    })
}

fn parse_refine(obj: &serde_json::Map) -> Result<RefineRequest, String> {
    check_keys(
        obj,
        &[
            "artifact",
            "tp",
            "pp",
            "dp",
            "microbatches",
            "interleave",
            "schedule",
            "jitter_replicas",
            "jitter_seed",
            "deadline_ms",
        ],
    )?;
    Ok(RefineRequest {
        artifact: field_str(obj, "artifact")?,
        tp: field_u32_opt(obj, "tp")?,
        pp: field_u32_opt(obj, "pp")?,
        dp: field_u32_opt(obj, "dp")?,
        microbatches: field_u32_opt(obj, "microbatches")?,
        interleave: field_u32_opt(obj, "interleave")?,
        schedule: match obj.get("schedule") {
            None => None,
            Some(_) => Some(field_str(obj, "schedule")?),
        },
        jitter_replicas: field_u32_opt(obj, "jitter_replicas")?.unwrap_or(0),
        jitter_seed: field_u64_opt(obj, "jitter_seed")?,
        deadline_ms: field_u64_opt(obj, "deadline_ms")?,
    })
}
