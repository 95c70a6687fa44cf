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
//! Requests are read the same way for both front-ends. The three
//! request types derive `Deserialize` with `deny_unknown_fields`, so a
//! malformed line yields one precise `bad_request` message naming the
//! key (unknown key, wrong type, out of range, missing field). Each
//! knob rule is then written once, in [`PredictRequest::transforms`]
//! and [`SearchRequest::options`]: [`parse_request`] applies them when
//! the daemon reads a line, so a request that breaks one never takes
//! a queue slot, and `lumos predict`/`lumos search` fill the same
//! request types from their flags and call the same functions. A
//! broken rule ([`KnobError`]) names knobs by request key and each
//! front-end spells them its own way: `` `jitter_seed` `` on the wire,
//! `--jitter-seed` on the command line. Durations travel as integer
//! nanoseconds (`*_ns`) — never floats — so equality is exact.
//!
//! Only numbers that describe the answer appear in [`SearchResponse`]:
//! grid totals, lattice-reject counts, memory prunes, and the ranked
//! results themselves. Bound-skip / evaluated / memo counters describe
//! the work that found it (a warm shared memo, or the adaptive engine,
//! reaches the same answer with other counts) and are deliberately
//! excluded.

use lumos_core::manipulate::Transform;
use lumos_cost::GpuSpec;
use lumos_model::ScheduleKind;
use lumos_search::{RefinedResult, SearchOptions, SearchReport, SpaceSpec};
use serde::{Deserialize, Serialize};
use serde_json::{Kind, Reader};
use std::borrow::Cow;

/// A parsed and checked request line.
#[derive(Debug)]
pub enum Request {
    /// Work for the pool (`predict`, `search`, `refine`): every knob
    /// rule has passed and the knobs are what the engine takes.
    Compute {
        /// Digest key of the artifact to run against (`0x`-hex).
        artifact: String,
        /// Per-request deadline in milliseconds (queue wait included).
        deadline_ms: Option<u64>,
        /// What to compute.
        query: Query,
    },
    /// Report server statistics.
    Stats,
    /// Rescan the registry directory.
    Reload,
    /// Stop the daemon.
    Shutdown,
}

/// The work a [`Request::Compute`] asks for.
#[derive(Debug)]
pub enum Query {
    /// Price these transforms, applied in order.
    Predict(Vec<Transform>),
    /// Rank a space.
    Search(Box<SearchQuery>),
    /// Engine-refine the one candidate of a space.
    Refine(Box<SearchQuery>),
}

/// A checked search: the space, the options its knobs set, and how
/// many ranked results to report.
#[derive(Debug)]
pub struct SearchQuery {
    /// The space to rank.
    pub space: SpaceSpec,
    /// The request's knobs; the daemon adds its own (verification,
    /// threads, deadline, shared memo) before running.
    pub options: SearchOptions,
    /// Ranked results to report and retain.
    pub top: usize,
}

/// `{"kind":"predict",...}` — mirror of `lumos predict --calib`:
/// every transform field optional, at least one required.
#[derive(Debug, Clone, Default, Deserialize)]
#[serde(deny_unknown_fields)]
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
#[derive(Debug, Clone, Default, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SearchRequest {
    /// Digest key of the artifact to search against (`0x`-hex).
    pub artifact: String,
    /// Tensor-parallel axis.
    #[serde(default)]
    pub tp: Vec<u32>,
    /// Pipeline-parallel axis.
    #[serde(default)]
    pub pp: Vec<u32>,
    /// Data-parallel axis.
    #[serde(default)]
    pub dp: Vec<u32>,
    /// Micro-batch axis.
    #[serde(default)]
    pub microbatches: Vec<u32>,
    /// Interleave axis.
    #[serde(default)]
    pub interleave: Vec<u32>,
    /// Schedule axis: schedule names (empty = base's).
    #[serde(default)]
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
    #[serde(default)]
    pub refine_sim: bool,
    /// Jitter replicas per finalist (> 0 implies `refine_sim`).
    #[serde(default)]
    pub jitter_replicas: u32,
    /// Jitter-model seed (only with `jitter_replicas`).
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
    #[serde(default)]
    pub adaptive: bool,
    /// Adaptive full-evaluation budget (`--budget`).
    pub budget: Option<usize>,
    /// Adaptive RNG seed (`--seed`); fixed seeds replay identically.
    pub seed: Option<u64>,
}

/// `{"kind":"refine",...}` — engine-refine a single pinned candidate
/// (absent fields default to the artifact's base configuration).
#[derive(Debug, Clone, Default, Deserialize)]
#[serde(deny_unknown_fields)]
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
    #[serde(default)]
    pub jitter_replicas: u32,
    /// Jitter-model seed (only with `jitter_replicas`).
    pub jitter_seed: Option<u64>,
    /// Per-request deadline in milliseconds (queue wait included).
    pub deadline_ms: Option<u64>,
}

/// Typed failure sent instead of a success payload. Success payloads
/// never carry a top-level `error` key, so clients dispatch on its
/// presence alone.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct ErrorResponse {
    /// The failure.
    pub error: ErrorBody,
}

/// The inside of an [`ErrorResponse`].
#[derive(Debug, Clone, Serialize, PartialEq)]
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
#[derive(Debug, Clone, Serialize, PartialEq)]
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
#[derive(Debug, Clone, Serialize, PartialEq)]
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
#[derive(Debug, Clone, Serialize, PartialEq)]
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
#[derive(Debug, Clone, Serialize, PartialEq)]
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
#[derive(Debug, Clone, Serialize, PartialEq)]
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
#[derive(Debug, Clone, Serialize, PartialEq)]
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
#[derive(Debug, Clone, Serialize, PartialEq)]
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
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct RefineResponse {
    /// Always `"refine"`.
    pub kind: String,
    /// Base configuration label.
    pub base: String,
    /// The refined candidate.
    pub result: RefinedBody,
}

/// Per-artifact entry in a [`StatsResponse`].
#[derive(Debug, Clone, Serialize, PartialEq)]
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
#[derive(Debug, Clone, Serialize, PartialEq)]
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
#[derive(Debug, Clone, Serialize, PartialEq)]
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
#[derive(Debug, Clone, Serialize, PartialEq)]
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
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct ReloadRejectBody {
    /// The offending file.
    pub path: String,
    /// Why it was rejected.
    pub detail: String,
}

/// Successful `shutdown` acknowledgement.
#[derive(Debug, Clone, Serialize, PartialEq)]
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
// Requests and their knob rules
// ---------------------------------------------------------------------

/// A broken knob rule. Knobs are named by request key, and each
/// front-end spells a key its own way when it renders the message
/// ([`KnobError::message`]): `` `jitter_seed` `` on the wire,
/// `--jitter-seed` on the command line.
#[derive(Debug, Clone, PartialEq)]
pub enum KnobError {
    /// `hidden` without `ffn`, or `ffn` without `hidden`.
    HiddenWithoutFfn,
    /// `objective` names no objective (the parser's message).
    Objective(String),
    /// `memory_gib` is 0.
    NoMemory,
    /// `top` is 0.
    TopZero,
    /// The first knob was given, but none of the knobs it needs.
    OnlyWith(&'static str, &'static [&'static str]),
    /// `faults_toml` does not parse (the parser's message).
    Faults(String),
}

impl KnobError {
    /// The message, each knob spelled by `spell`.
    pub fn message(&self, spell: impl Fn(&str) -> String) -> String {
        match self {
            KnobError::HiddenWithoutFfn => format!(
                "{} and {} must be given together",
                spell("hidden"),
                spell("ffn")
            ),
            KnobError::Objective(detail) => detail.clone(),
            KnobError::NoMemory => format!(
                "gpu memory capacity must be positive ({})",
                spell("memory_gib")
            ),
            KnobError::TopZero => format!(
                "{} must be at least 1 (a zero-length report retains nothing)",
                spell("top")
            ),
            KnobError::OnlyWith(key, needs) => {
                let needs: Vec<String> = needs.iter().map(|k| spell(k)).collect();
                format!("{} only applies with {}", spell(key), needs.join(" / "))
            }
            KnobError::Faults(detail) => format!("{}: {detail}", spell("faults_toml")),
        }
    }
}

/// How the wire spells a knob in a `bad_request` detail.
fn wire(key: &str) -> String {
    format!("`{key}`")
}

/// Fails with [`KnobError::OnlyWith`] when `broken`.
fn gate(broken: bool, key: &'static str, needs: &'static [&'static str]) -> Result<(), KnobError> {
    if broken {
        return Err(KnobError::OnlyWith(key, needs));
    }
    Ok(())
}

impl PredictRequest {
    /// The requested transforms, in the order `lumos predict` has
    /// always applied them: another order could reassemble a
    /// different (equally valid) graph and break byte-identity
    /// between the daemon and the CLI.
    ///
    /// # Errors
    ///
    /// Returns [`KnobError::HiddenWithoutFfn`].
    pub fn transforms(&self) -> Result<Vec<Transform>, KnobError> {
        let width = match (self.hidden, self.ffn) {
            (Some(hidden), Some(ffn)) => Some(Transform::HiddenSize { hidden, ffn }),
            (None, None) => None,
            _ => return Err(KnobError::HiddenWithoutFfn),
        };
        Ok([
            self.tp.map(|tp| Transform::TensorParallel { tp }),
            self.pp.map(|pp| Transform::PipelineParallel { pp }),
            self.dp.map(|dp| Transform::DataParallel { dp }),
            self.layers.map(|layers| Transform::NumLayers { layers }),
            width,
            self.seq.map(|seq_len| Transform::SeqLen { seq_len }),
            self.microbatches.map(|num| Transform::Microbatches { num }),
        ]
        .into_iter()
        .flatten()
        .collect())
    }
}

impl SearchRequest {
    /// Checks the ranking and refinement knobs, in this order, and
    /// turns them into search options: `objective` parses,
    /// `memory_gib` > 0, `top` ≥ 1, `jitter_seed` needs `jitter_replicas`,
    /// `faults_toml` parses, `fault_replicas` and `fault_seed` need a
    /// fault spec, `budget` and `seed` need `adaptive`. Jitter
    /// replicas or a fault spec turn refinement on. Returns the
    /// options and the report length (`top`, default 10); the caller
    /// adds its own knobs, the retention bound included.
    ///
    /// # Errors
    ///
    /// Returns the first broken rule.
    pub fn options(&self) -> Result<(SearchOptions, usize), KnobError> {
        let defaults = SearchOptions::default();
        let objective = match &self.objective {
            Some(name) => name.parse().map_err(KnobError::Objective)?,
            None => defaults.objective,
        };
        let memory_gib = match self.memory_gib {
            Some(0) => return Err(KnobError::NoMemory),
            gib => gib.unwrap_or(defaults.gpu.memory_gib),
        };
        let top = self.top.unwrap_or(10);
        if top == 0 {
            return Err(KnobError::TopZero);
        }
        let refine = self.refine_sim || self.jitter_replicas > 0;
        // Only the jitter replicas draw from the seed.
        gate(
            self.jitter_seed.is_some() && self.jitter_replicas == 0,
            "jitter_seed",
            &["jitter_replicas"],
        )?;
        let fault_spec = match &self.faults_toml {
            Some(text) => Some(
                lumos_cluster::FaultSpec::parse(text)
                    .map_err(|e| KnobError::Faults(e.to_string()))?,
            ),
            None => None,
        };
        let faults = fault_spec.is_some();
        gate(
            self.fault_replicas.is_some() && !faults,
            "fault_replicas",
            &["faults_toml"],
        )?;
        gate(
            self.fault_seed.is_some() && !faults,
            "fault_seed",
            &["faults_toml"],
        )?;
        gate(
            self.budget.is_some() && !self.adaptive,
            "budget",
            &["adaptive"],
        )?;
        gate(self.seed.is_some() && !self.adaptive, "seed", &["adaptive"])?;
        let options = SearchOptions {
            objective,
            gpu: GpuSpec {
                memory_gib,
                ..defaults.gpu
            },
            refine_sim: refine || faults,
            jitter_replicas: self.jitter_replicas,
            jitter_seed: self.jitter_seed.unwrap_or(defaults.jitter_seed),
            fault_spec,
            fault_replicas: self.fault_replicas.unwrap_or(defaults.fault_replicas),
            fault_seed: self.fault_seed.unwrap_or(defaults.fault_seed),
            adaptive: self.adaptive,
            budget: self.budget,
            seed: self.seed.unwrap_or(defaults.seed),
            ..defaults
        };
        Ok((options, top))
    }

    /// The checked search: the knob rules, then the space.
    fn query(&self) -> Result<SearchQuery, String> {
        let (options, top) = self.options().map_err(|e| e.message(wire))?;
        let space = SpaceSpec {
            tp: self.tp.clone(),
            pp: self.pp.clone(),
            dp: self.dp.clone(),
            microbatches: self.microbatches.clone(),
            interleave: self.interleave.clone(),
            schedules: schedules("schedules", &self.schedules)?,
            gpus: self.gpus.clone(),
            max_gpus: self.max_gpus.unwrap_or(SpaceSpec::empty().max_gpus),
            ..SpaceSpec::empty()
        };
        Ok(SearchQuery {
            space,
            options,
            top,
        })
    }
}

impl RefineRequest {
    /// The checked refinement: a one-candidate search whose absent
    /// axes stay empty, which the search reads as the base value.
    fn query(&self) -> Result<SearchQuery, String> {
        let knobs = SearchRequest {
            top: Some(1),
            refine_sim: true,
            jitter_replicas: self.jitter_replicas,
            jitter_seed: self.jitter_seed,
            ..SearchRequest::default()
        };
        let (options, top) = knobs.options().map_err(|e| e.message(wire))?;
        let space = SpaceSpec {
            tp: self.tp.into_iter().collect(),
            pp: self.pp.into_iter().collect(),
            dp: self.dp.into_iter().collect(),
            microbatches: self.microbatches.into_iter().collect(),
            interleave: self.interleave.into_iter().collect(),
            schedules: schedules("schedule", self.schedule.as_slice())?,
            ..SpaceSpec::empty()
        };
        Ok(SearchQuery {
            space,
            options,
            top,
        })
    }
}

/// Resolves schedule names; an unknown name fails naming `key` and
/// listing the known set.
fn schedules(key: &str, names: &[String]) -> Result<Vec<ScheduleKind>, String> {
    names
        .iter()
        .map(|name| ScheduleKind::from_name(name).map_err(|e| format!("`{key}`: {e}")))
        .collect()
}

/// Parses and checks one request line: the JSON, the `kind`, each
/// field's key and type, then the knob rules. The error string is
/// the `bad_request` detail the server sends back verbatim; it names
/// the offending key.
///
/// # Errors
///
/// Returns a message naming the malformed, unknown or missing field,
/// or the broken knob rule.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let (found, members) = read_members(line).map_err(|e| format!("malformed JSON: {e}"))?;
    if found != Kind::Object {
        return Err(format!(
            "request must be a JSON object, got {}",
            found.name()
        ));
    }
    // A repeated key keeps its last value, `kind` included.
    let kind = match members.iter().rev().find(|(key, _)| key == "kind") {
        Some((_, text)) => serde_json::from_str::<String>(text)
            .map_err(|_| "`kind` must be a string".to_string())?,
        None => return Err("missing `kind` field".to_string()),
    };
    let fields: Vec<_> = members.iter().filter(|(key, _)| key != "kind").collect();
    let (artifact, deadline_ms, query) = match kind.as_str() {
        "predict" => {
            let req = decode::<PredictRequest>(&fields)?;
            let transforms = req.transforms().map_err(|e| e.message(wire))?;
            if transforms.is_empty() {
                return Err(
                    "no transform requested (pass tp/pp/dp/layers/hidden+ffn/seq/microbatches)"
                        .to_string(),
                );
            }
            (req.artifact, req.deadline_ms, Query::Predict(transforms))
        }
        "search" => {
            let req = decode::<SearchRequest>(&fields)?;
            let query = Query::Search(Box::new(req.query()?));
            (req.artifact, req.deadline_ms, query)
        }
        "refine" => {
            let req = decode::<RefineRequest>(&fields)?;
            let query = Query::Refine(Box::new(req.query()?));
            (req.artifact, req.deadline_ms, query)
        }
        "stats" | "reload" | "shutdown" => {
            if let Some((key, _)) = fields.first() {
                return Err(format!("unknown field `{key}`"));
            }
            return Ok(match kind.as_str() {
                "stats" => Request::Stats,
                "reload" => Request::Reload,
                _ => Request::Shutdown,
            });
        }
        other => {
            return Err(format!(
                "unknown request kind `{other}` (expected predict, search, refine, stats, \
                 reload, or shutdown)"
            ))
        }
    };
    Ok(Request::Compute {
        artifact,
        deadline_ms,
        query,
    })
}

/// A request line member: its key and its value's JSON text.
type Member<'a> = (Cow<'a, str>, &'a str);

/// The kind of a line's value and, for an object, its members, read
/// in one pass, so a syntax error anywhere wins over every shape
/// error.
fn read_members(line: &str) -> Result<(Kind, Vec<Member<'_>>), serde_json::Error> {
    let mut r = Reader::new(line);
    let found = r.peek()?;
    let mut members = Vec::new();
    if found == Kind::Object {
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            members.push((key, r.raw()?));
        }
    } else {
        r.skip()?;
    }
    r.end()?;
    Ok((found, members))
}

/// Decodes members as a `T`, with its derived decoder.
fn decode<T: Deserialize>(members: &[&Member<'_>]) -> Result<T, String> {
    let text: Vec<String> = members
        .iter()
        .map(|(key, value)| {
            format!(
                "{}:{value}",
                serde_json::to_string(&**key).expect("strings serialize")
            )
        })
        .collect();
    serde_json::from_str(&format!("{{{}}}", text.join(","))).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `bad_request` detail of one request line.
    fn refused(line: &str) -> String {
        parse_request(line).expect_err(line)
    }

    #[test]
    fn parse_request_names_the_key_of_every_refusal() {
        let cases: &[(&str, &str)] = &[
            // predict
            (
                r#"{"kind":"predict","artifact":"0x1","dp":2,"bogus":1}"#,
                "unknown field `bogus` for PredictRequest",
            ),
            (
                r#"{"kind":"predict","artifact":"0x1","dp":"2"}"#,
                "`dp`: expected u32, found string",
            ),
            (
                r#"{"kind":"predict","artifact":"0x1","dp":4294967296}"#,
                "`dp`: integer 4294967296 out of range for u32",
            ),
            (
                r#"{"kind":"predict","artifact":"0x1","seq":-1}"#,
                "`seq`: expected u64, found number",
            ),
            (
                r#"{"kind":"predict","dp":2}"#,
                "missing field `artifact` for PredictRequest",
            ),
            (
                r#"{"kind":"predict","artifact":"0x1","hidden":512}"#,
                "`hidden` and `ffn` must be given together",
            ),
            (
                r#"{"kind":"predict","artifact":"0x1","ffn":512,"dp":2}"#,
                "`hidden` and `ffn` must be given together",
            ),
            (
                r#"{"kind":"predict","artifact":"0x1"}"#,
                "no transform requested (pass tp/pp/dp/layers/hidden+ffn/seq/microbatches)",
            ),
            // search
            (
                r#"{"kind":"search","artifact":"0x1","extra":1}"#,
                "unknown field `extra` for SearchRequest",
            ),
            (
                r#"{"kind":"search","artifact":"0x1","tp":2}"#,
                "`tp`: expected array, found number",
            ),
            (
                r#"{"kind":"search","artifact":"0x1","dp":[1,"2"]}"#,
                "`dp`: expected u32, found string",
            ),
            (
                r#"{"kind":"search","artifact":"0x1","max_gpus":4294967296}"#,
                "`max_gpus`: integer 4294967296 out of range for u32",
            ),
            (
                r#"{"kind":"search","artifact":"0x1","refine_sim":1}"#,
                "`refine_sim`: expected bool, found number",
            ),
            (
                r#"{"kind":"search","top":3}"#,
                "missing field `artifact` for SearchRequest",
            ),
            (
                r#"{"kind":"search","artifact":"0x1","top":0}"#,
                "`top` must be at least 1 (a zero-length report retains nothing)",
            ),
            (
                r#"{"kind":"search","artifact":"0x1","memory_gib":0}"#,
                "gpu memory capacity must be positive (`memory_gib`)",
            ),
            (
                r#"{"kind":"search","artifact":"0x1","objective":"speed"}"#,
                "unknown objective `speed` (expected makespan, throughput, or mfu)",
            ),
            (
                r#"{"kind":"search","artifact":"0x1","jitter_seed":3}"#,
                "`jitter_seed` only applies with `jitter_replicas`",
            ),
            // Refinement alone, or beside a fault spec, draws no jitter.
            (
                r#"{"kind":"search","artifact":"0x1","refine_sim":true,"jitter_seed":3}"#,
                "`jitter_seed` only applies with `jitter_replicas`",
            ),
            (
                r#"{"kind":"search","artifact":"0x1","faults_toml":"version = 1\n","jitter_seed":3}"#,
                "`jitter_seed` only applies with `jitter_replicas`",
            ),
            (
                r#"{"kind":"search","artifact":"0x1","faults_toml":"[[straggler]]\nslowdown = 0.5\n"}"#,
                "`faults_toml`: line 2: [[straggler]] #1: key `slowdown`: 0.5 must be a finite \
                 multiplier ≥ 1",
            ),
            (
                r#"{"kind":"search","artifact":"0x1","fault_replicas":3}"#,
                "`fault_replicas` only applies with `faults_toml`",
            ),
            (
                r#"{"kind":"search","artifact":"0x1","fault_seed":3}"#,
                "`fault_seed` only applies with `faults_toml`",
            ),
            (
                r#"{"kind":"search","artifact":"0x1","budget":3}"#,
                "`budget` only applies with `adaptive`",
            ),
            (
                r#"{"kind":"search","artifact":"0x1","seed":3}"#,
                "`seed` only applies with `adaptive`",
            ),
            (
                r#"{"kind":"search","artifact":"0x1","schedules":["dualpipe"]}"#,
                "`schedules`: unknown schedule `dualpipe` (known: 1f1b, gpipe, zb-h1)",
            ),
            // refine
            (
                r#"{"kind":"refine","artifact":"0x1","top":1}"#,
                "unknown field `top` for RefineRequest",
            ),
            (
                r#"{"kind":"refine","artifact":"0x1","tp":"1"}"#,
                "`tp`: expected u32, found string",
            ),
            (
                r#"{"kind":"refine","artifact":"0x1","jitter_replicas":4294967296}"#,
                "`jitter_replicas`: integer 4294967296 out of range for u32",
            ),
            (
                r#"{"kind":"refine","microbatches":4}"#,
                "missing field `artifact` for RefineRequest",
            ),
            (
                r#"{"kind":"refine","artifact":"0x1","schedule":"dualpipe"}"#,
                "`schedule`: unknown schedule `dualpipe` (known: 1f1b, gpipe, zb-h1)",
            ),
            (
                r#"{"kind":"refine","artifact":"0x1","jitter_seed":3}"#,
                "`jitter_seed` only applies with `jitter_replicas`",
            ),
            // the line and its kind
            ("[]", "request must be a JSON object, got array"),
            (r#"{"dp":2}"#, "missing `kind` field"),
            (r#"{"kind":3}"#, "`kind` must be a string"),
            (r#"{"kind":"stats","bogus":1}"#, "unknown field `bogus`"),
            (
                r#"{"kind":"train"}"#,
                "unknown request kind `train` (expected predict, search, refine, stats, reload, \
                 or shutdown)",
            ),
        ];
        for (line, detail) in cases {
            assert_eq!(refused(line), *detail, "{line}");
        }
        assert!(refused("not json").starts_with("malformed JSON: "));
    }

    #[test]
    fn parse_request_checks_and_builds_the_query() {
        let Ok(Request::Compute {
            artifact,
            deadline_ms,
            query: Query::Predict(transforms),
        }) = parse_request(
            r#"{"kind":"predict","artifact":"0x1","microbatches":8,"ffn":2048,"hidden":512,"tp":2,"deadline_ms":5}"#,
        )
        else {
            panic!("not a predict");
        };
        assert_eq!((artifact.as_str(), deadline_ms), ("0x1", Some(5)));
        // `lumos predict`'s order, whatever the key order on the line.
        assert_eq!(
            transforms,
            vec![
                Transform::TensorParallel { tp: 2 },
                Transform::HiddenSize {
                    hidden: 512,
                    ffn: 2048
                },
                Transform::Microbatches { num: 8 },
            ]
        );

        // Jitter replicas and a fault spec each turn refinement on; an
        // explicit `null` reads as absent.
        let search = |line: &str| match parse_request(line) {
            Ok(Request::Compute {
                query: Query::Search(q),
                ..
            }) => q,
            other => panic!("{line}: {other:?}"),
        };
        let q = search(r#"{"kind":"search","artifact":"0x1","jitter_replicas":2,"jitter_seed":9}"#);
        assert!(q.options.refine_sim);
        assert_eq!((q.options.jitter_replicas, q.options.jitter_seed), (2, 9));
        assert_eq!(q.top, 10);
        let q = search(
            r#"{"kind":"search","artifact":"0x1","faults_toml":"version = 1\n","fault_seed":4,"top":3,"gpus":null}"#,
        );
        assert!(q.options.refine_sim && q.options.fault_spec.is_some());
        assert_eq!(
            (q.options.fault_seed, q.top, q.space.gpus.clone()),
            (4, 3, None)
        );
        let q = search(r#"{"kind":"search","artifact":"0x1","adaptive":true,"budget":7,"seed":3}"#);
        assert_eq!((q.options.budget, q.options.seed), (Some(7), 3));

        // A refinement is a one-candidate search that always refines;
        // absent axes stay empty (= the base value).
        let Ok(Request::Compute {
            query: Query::Refine(q),
            ..
        }) = parse_request(
            r#"{"kind":"refine","artifact":"0x1","dp":2,"schedule":"gpipe","jitter_replicas":2,"jitter_seed":3}"#,
        )
        else {
            panic!("not a refine");
        };
        assert_eq!((q.space.dp.clone(), q.space.tp.clone()), (vec![2], vec![]));
        assert_eq!(q.space.schedules, vec![ScheduleKind::GPipe]);
        assert!(q.options.refine_sim);
        assert_eq!(
            (q.options.jitter_replicas, q.options.jitter_seed, q.top),
            (2, 3, 1)
        );

        for (line, expected) in [
            (r#"{"kind":"stats"}"#, "Stats"),
            (r#"{"kind":"reload"}"#, "Reload"),
            (r#"{"kind":"shutdown"}"#, "Shutdown"),
        ] {
            assert_eq!(format!("{:?}", parse_request(line).unwrap()), expected);
        }
    }
}
