//! Parallel what-if configuration search over the Lumos estimation
//! stack.
//!
//! Lumos's headline capability is cheap what-if estimation: one
//! profiled trace plus graph manipulation (§3.4) prices a *new*
//! configuration in milliseconds instead of a cluster run. The obvious
//! consumer of that capability is not a single question but a *search*:
//! "over a million candidate (TP, PP, DP, micro-batch, interleave,
//! GPU-count) deployments, which feasible one trains fastest?" This
//! crate turns the one-at-a-time [`lumos_core::Lumos::predict`] flow
//! into that engine:
//!
//! 1. **Describe** the space with a [`SpaceSpec`] — value grids per
//!    axis plus a world-size divisibility lattice (layer/head/chunk
//!    divisibility, GPU budget, structural TP constraints);
//! 2. **Stream** candidates: the grid is a mixed-radix index space
//!    decoded on demand ([`CandidateStream`]), never a materialized
//!    vector, so enumeration costs O(1) memory however large the
//!    space. The grid is walked in index order, in batches that double
//!    from one index up to 16 384; worker threads claim a batch's
//!    indices from one atomic cursor. Lattice violations are rejected
//!    before they cost anything;
//! 3. **Pre-prune** on memory feasibility via
//!    [`lumos_model::MemoryModel`] — configurations that would OOM
//!    never reach simulation, and every pruned candidate records the
//!    stage and byte requirement that killed it;
//! 4. **Skip dominated candidates**: per-stage compute costs are
//!    derived once per [`lumos_model::StageCostKey`] and memoized
//!    across every candidate that differs only in PP/DP/micro-batch
//!    count/interleave. The memo feeds a sound analytic lower bound
//!    on iteration time; once k results are merged, candidates of the
//!    next batches whose bound is strictly worse than the k-th best key
//!    are counted ([`PruneStats::bound_skipped`]) and never fully
//!    simulated — without changing the reported top-k;
//! 5. **Evaluate** the rest in parallel: the trace-fitted
//!    [`lumos_cost::LookupCostModel`] and the reassembly block
//!    library are each built **once** and shared read-only across
//!    workers, which reassemble the base execution graph under the
//!    candidate's transforms and replay it. Degenerate candidates
//!    (zero makespan, bubble → 1, missing peak FLOP/s, non-finite
//!    objective) become typed [`Infeasibility`] rejections instead of
//!    NaN-ranked garbage;
//! 6. **Rank** into a [`SearchReport`]: each batch is merged, in index
//!    order, into one top-k under a NaN-safe total order
//!    ([`f64::total_cmp`], non-finite keys strictly last, enumeration
//!    index as tie-break). With [`SearchOptions::top_k`] set, peak
//!    memory is the top-k plus one batch — not the size of the space —
//!    and the result is byte-identical to ranking every candidate;
//! 7. **Refine** (optional, [`SearchOptions::refine_sim`]): lower each
//!    analytic finalist to a full multi-rank program and execute it
//!    through the ground-truth discrete-event engine
//!    ([`lumos_cluster`]) in parallel, against the same shared
//!    trace-fitted cost model — re-ranking the finals by the search
//!    objective re-evaluated at the simulated makespan (overlap, host
//!    dispatch, and collective rendezvous included) and
//!    reporting the analytic-vs-simulated delta per finalist, plus
//!    deterministic jitter-replica robustness statistics
//!    (mean/p95/stability) when [`SearchOptions::jitter_replicas`] is
//!    set.
//!
//! For spaces too large to walk at all, [`SearchOptions::adaptive`]
//! swaps the exhaustive enumeration for the corpus-guided engine:
//! deterministic seed probes, a power-scheduled mutation frontier
//! (single-axis neighbor moves plus divisibility-lattice jumps), and
//! — on spaces small enough — a screened verification sweep that
//! proves the adaptive answer *equals* the exhaustive top-k while
//! fully simulating only a fraction of the grid.
//! [`SearchReport::adaptive`] records how the run terminated
//! ([`AdaptiveOutcome`]), and a fixed [`SearchOptions::seed`] replays
//! the run byte-identically.
//!
//! Search is deterministic: the same spec produces the same ranking,
//! the same [`PruneStats`] and the same error regardless of thread
//! count or how workers happened to carve up a batch, because the
//! screen threshold changes only between batches and batch boundaries
//! ignore the worker count.
//!
//! # Quickstart
//!
//! ```
//! use lumos_search::{search, Objective, SearchOptions, SpaceSpec};
//! use lumos_cluster::{GroundTruthCluster, JitterModel};
//! use lumos_cost::AnalyticalCostModel;
//! use lumos_model::{ModelConfig, Parallelism, TrainingSetup};
//!
//! // Profile one base iteration (in real use: load a Kineto trace).
//! let base = TrainingSetup::new(ModelConfig::tiny(), Parallelism::new(1, 2, 1)?);
//! let profiled = GroundTruthCluster::new(&base, AnalyticalCostModel::h100())?
//!     .with_jitter(JitterModel::realistic(7))
//!     .profile_iteration(0)?;
//!
//! // Search deployments of up to 8 GPUs reachable from that trace,
//! // keeping only the 5 best in memory.
//! let spec = SpaceSpec::deployment_grid(&[1], &[1, 2], &[1, 2, 4]);
//! let opts = SearchOptions {
//!     top_k: Some(5),
//!     ..SearchOptions::default()
//! };
//! let report = search(
//!     &profiled.trace,
//!     &base,
//!     &spec,
//!     &opts,
//!     AnalyticalCostModel::h100(),
//! )?;
//! assert!(!report.results.is_empty());
//! println!("{report}");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod candidate;
mod corpus;
mod enumerate;
mod error;
mod evaluate;
mod faults;
mod memo;
mod mutate;
pub mod parallel;
mod power;
mod prune;
mod refine;
mod report;
mod space;
pub mod spec_toml;

pub use adaptive::{AdaptiveOutcome, AdaptiveReport};
pub use candidate::Candidate;
pub use enumerate::{
    enumerate_candidates, CandidateStream, EnumeratedCandidate, EnumerationOutcome, RejectReason,
};
pub use error::SearchError;
pub use evaluate::{CandidateResult, Infeasibility, RejectedCandidate};
pub use faults::FaultStats;
pub use memo::SharedStageMemo;
pub use prune::{memory_gate, MemoStats, PruneStats, PrunedCandidate};
pub use refine::{JitterStats, RefinedResult};
pub use report::{rank, Objective, SearchReport};
pub use space::{ArchPoint, SpaceSpec};
pub use spec_toml::SpecFile;

use lumos_calib::CalibrationArtifact;
use lumos_core::manipulate::BlockLibrary;
use lumos_cost::{CostModel, GpuSpec, LookupCostModel};
use lumos_model::{MemoryModel, TrainingSetup};
use lumos_trace::{ClusterTrace, Dur};
use std::fmt;
use std::sync::Arc;

/// Finalists refined when no retention bound is set
/// ([`SearchOptions::top_k`] = `None`, the `--keep-all` path): phase
/// two lowers and engine-executes each finalist, so it must stay a
/// short list even when the screen retained the whole space.
const DEFAULT_REFINE_FINALISTS: usize = 16;

/// A live progress snapshot of a search, delivered to
/// [`SearchOptions::progress`] after each merged batch (the exhaustive
/// walk's batches double from one grid point up to 16 384).
#[derive(Debug, Clone, Copy)]
pub struct SearchProgress {
    /// Total grid points in the space.
    pub grid_points: usize,
    /// Grid points walked so far.
    pub claimed: usize,
    /// Candidates fully simulated so far.
    pub evaluated: usize,
    /// Candidates cut by the memory gate so far.
    pub memory_pruned: usize,
    /// Candidates skipped by the analytic lower bound so far.
    pub bound_skipped: usize,
}

/// A progress callback, invoked after each merged batch from the thread
/// that called the search (keep it cheap — e.g. a line to stderr).
#[derive(Clone)]
pub struct ProgressSink(pub Arc<dyn Fn(SearchProgress) + Send + Sync>);

impl ProgressSink {
    /// Wraps a callback.
    pub fn new(f: impl Fn(SearchProgress) + Send + Sync + 'static) -> Self {
        ProgressSink(Arc::new(f))
    }
}

impl fmt::Debug for ProgressSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ProgressSink(..)")
    }
}

/// Knobs of one search run.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// What to rank by.
    pub objective: Objective,
    /// The device candidates must fit on (capacity bytes + peak
    /// FLOP/s for MFU).
    pub gpu: GpuSpec,
    /// Memory-model constants for the feasibility gate.
    pub memory_model: MemoryModel,
    /// Worker threads (`None` = available parallelism).
    pub threads: Option<usize>,
    /// Retention bound: `Some(k)` keeps only the global top-k results
    /// (and at most `k` pruned/rejected example records) in memory —
    /// the setting for million-candidate spaces, and what arms
    /// lower-bound skipping. `None` retains every evaluated candidate
    /// (the pre-streaming behavior); skipping stays disabled so the
    /// full ranking is exact.
    pub top_k: Option<usize>,
    /// Phase two: execute the analytic finals through the discrete-
    /// event engine (full multi-rank lowering, shared trace-fitted
    /// cost model) and re-rank them by the search objective
    /// re-evaluated at the simulated makespan, reporting the
    /// analytic-vs-simulated delta per finalist
    /// ([`SearchReport::refined`]). Refines at most
    /// [`SearchOptions::top_k`] finalists (16 when retention is
    /// unbounded) — engine execution per candidate is orders of
    /// magnitude costlier than the screen.
    pub refine_sim: bool,
    /// With [`SearchOptions::refine_sim`]: deterministic jitter
    /// replicas to execute per finalist (0 = off). Adds mean / p95 /
    /// stability columns and re-ranks by the jittered mean, so the
    /// search optimizes for robustness under run-to-run variance.
    pub jitter_replicas: u32,
    /// Seed of the refinement jitter model (replica `r` executes as
    /// iteration `r` of a [`lumos_cluster::JitterModel::realistic`]
    /// model with this seed). Fixed by default so refined reports are
    /// reproducible run to run.
    pub jitter_seed: u64,
    /// With [`SearchOptions::refine_sim`]: the fault-scenario
    /// specification of the robustness pass (see [`FaultStats`]).
    /// `None` — or a spec with no scenarios — leaves the report
    /// byte-identical to a fault-less run.
    pub fault_spec: Option<lumos_cluster::FaultSpec>,
    /// Deterministic fault replicas to execute per finalist when
    /// [`SearchOptions::fault_spec`] is set. Each replica samples
    /// which scenarios fire by hashing `(fault_seed, replica, site)`,
    /// so rankings replay byte-identically on any thread count.
    pub fault_replicas: u32,
    /// Seed of the fault-scenario sampler. Fixed by default so robust
    /// rankings are reproducible run to run.
    pub fault_seed: u64,
    /// With [`SearchOptions::refine_sim`]: statically verify each
    /// finalist's lowered program ([`lumos_cluster::verify`] —
    /// referential integrity, collective consistency, point-to-point
    /// matching, deadlock freedom) before handing it to the engine.
    /// A violation aborts the run with
    /// [`SearchError::InvalidProgram`] instead of surfacing as a
    /// simulated deadlock. Never changes results for clean programs.
    pub verify: bool,
    /// Optional progress callback for long searches.
    pub progress: Option<ProgressSink>,
    /// Cooperative cancel flag: workers observe it between candidates,
    /// between refinement finalists and before each jitter or fault
    /// replica, and once it is raised the run
    /// aborts with [`SearchError::DeadlineExceeded`]. Raise it from
    /// another thread to interrupt a long search cleanly.
    pub cancel: Option<Arc<std::sync::atomic::AtomicBool>>,
    /// Wall-clock budget for the whole run (screen *and* refinement),
    /// measured from entry into [`search_calibrated`]. Expiry aborts
    /// with [`SearchError::DeadlineExceeded`] — partial results are
    /// discarded, because a truncated grid walk cannot claim to
    /// contain the true top-k.
    pub deadline: Option<std::time::Duration>,
    /// Cross-run stage-work memo shared between searches against the
    /// **same** calibration (a long-lived service keeps one per
    /// artifact). A warm memo never changes reported results — see
    /// [`SharedStageMemo`].
    pub shared_memo: Option<Arc<SharedStageMemo>>,
    /// Run the corpus-guided adaptive engine ([`AdaptiveReport`])
    /// instead of the exhaustive walk: seed probes, a
    /// power-scheduled mutation frontier, and (on spaces small enough)
    /// a screened verification sweep that proves the result equals the
    /// exhaustive top-k. The setting for spaces too large to
    /// enumerate; [`SearchReport::adaptive`] records how the run
    /// terminated.
    pub adaptive: bool,
    /// Adaptive-only: the full-evaluation budget (candidates fully
    /// simulated, not merely screened). `None` uses the built-in
    /// default. Checked between batches, so overshoot is bounded by
    /// one batch; exhaustion yields the typed
    /// [`AdaptiveOutcome::BudgetExhausted`] marker, never an error.
    pub budget: Option<usize>,
    /// Adaptive-only: RNG seed for probe and mutation draws. A fixed
    /// seed replays the identical search — byte-identical report —
    /// on any thread count.
    pub seed: u64,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            objective: Objective::PerGpuThroughput,
            gpu: GpuSpec::h100_sxm(),
            memory_model: MemoryModel::default(),
            threads: None,
            top_k: None,
            refine_sim: false,
            jitter_replicas: 0,
            jitter_seed: 2025,
            fault_spec: None,
            fault_replicas: 32,
            fault_seed: 2025,
            verify: false,
            progress: None,
            cancel: None,
            deadline: None,
            shared_memo: None,
            adaptive: false,
            budget: None,
            seed: 2025,
        }
    }
}

/// `true` when the run should abort cooperatively: its cancel flag is
/// raised or its wall-clock deadline instant has passed. Checked by
/// the batch evaluator between candidates and by refinement between
/// finalists and before each jitter or fault replica.
pub(crate) fn cancel_requested(opts: &SearchOptions, deadline: Option<std::time::Instant>) -> bool {
    opts.cancel
        .as_ref()
        .is_some_and(|c| c.load(std::sync::atomic::Ordering::Relaxed))
        || deadline.is_some_and(|d| std::time::Instant::now() >= d)
}

/// The reusable, query-independent half of a search: the trace-fitted
/// lookup cost model and the reassembly block library, bundled with
/// the base setup and recorded makespan. Fit it once — from a trace
/// ([`SearchCalibration::fit`]) or from a persisted calibration
/// artifact ([`SearchCalibration::from_artifact`]) — then run any
/// number of [`search_calibrated`] queries against it without ever
/// re-walking the source trace.
#[derive(Debug)]
pub struct SearchCalibration<C> {
    pub(crate) lookup: LookupCostModel<C>,
    pub(crate) library: BlockLibrary,
    pub(crate) base: TrainingSetup,
    pub(crate) base_makespan: Dur,
}

impl<C: CostModel> SearchCalibration<C> {
    /// Fits a calibration from a profiled trace: lookup tables from
    /// every kernel observation, the block library from every
    /// annotation range. `gpus_per_node` classifies collective
    /// placements (plain [`search`] passes 8, as
    /// [`lumos_core::Lumos::predict`] does).
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::Extraction`] when the trace has no
    /// annotation ranges to carve blocks from.
    pub fn fit(
        trace: &ClusterTrace,
        base: &TrainingSetup,
        fallback: C,
        gpus_per_node: u32,
    ) -> Result<Self, SearchError> {
        let lookup = LookupCostModel::fit_from_trace(trace, fallback, gpus_per_node);
        let library = BlockLibrary::extract(trace, base.parallelism)
            .map_err(|source| SearchError::Extraction { source })?;
        Ok(SearchCalibration {
            lookup,
            library,
            base: base.clone(),
            base_makespan: trace.makespan(),
        })
    }

    /// Builds a calibration from a persisted artifact (tables and
    /// library are cloned out of it). Searches run this way are
    /// byte-identical to [`search`] on the artifact's source trace.
    pub fn from_artifact(artifact: &CalibrationArtifact, fallback: C) -> Self {
        SearchCalibration {
            lookup: artifact.cost_model(fallback),
            library: artifact.library.clone(),
            base: artifact.setup.clone(),
            base_makespan: artifact.fingerprint.makespan,
        }
    }

    /// The base setup queries start from.
    pub fn base(&self) -> &TrainingSetup {
        &self.base
    }

    /// Recorded makespan of the base trace.
    pub fn base_makespan(&self) -> Dur {
        self.base_makespan
    }

    /// The shared trace-fitted cost model.
    pub fn lookup(&self) -> &LookupCostModel<C> {
        &self.lookup
    }

    /// The shared reassembly block library.
    pub fn library(&self) -> &BlockLibrary {
        &self.library
    }
}

/// Runs the full streaming search pipeline: enumerate lazily →
/// memory-prune → lower-bound skip → parallel-evaluate → merge top-k.
///
/// `trace` is the profiled base iteration and `base` the setup that
/// produced it; `fallback` prices kernel shapes absent from the trace
/// (shared read-only across workers, fitted once). Equivalent to
/// [`SearchCalibration::fit`] followed by [`search_calibrated`]; use
/// that pair directly when several queries share one trace.
///
/// A report with **zero results** is a valid outcome: it means every
/// lattice-valid candidate was memory-pruned (or rejected as
/// infeasible during scoring), and the report's
/// [`SearchReport::pruned`] / [`SearchReport::rejected`] lists say
/// why, per candidate.
///
/// With [`SearchOptions::refine_sim`] set, a second phase lowers each
/// analytic finalist to a full multi-rank program, executes it through
/// the discrete-event engine against the same shared trace-fitted cost
/// model, and re-ranks the finals by the search objective re-evaluated
/// at the simulated makespan — [`SearchReport::refined`] carries the
/// per-finalist analytic-vs-simulated deltas (and jitter-robustness
/// statistics when [`SearchOptions::jitter_replicas`] > 0).
///
/// # Errors
///
/// Returns [`SearchError::EmptySpace`] when no candidate survives the
/// lattice, [`SearchError::Extraction`] when the base trace cannot
/// supply reassembly blocks, [`SearchError::Refinement`] when a
/// finalist cannot be lowered or executed, and propagates
/// manipulation/simulation failures from candidate evaluation.
pub fn search<C>(
    trace: &ClusterTrace,
    base: &TrainingSetup,
    spec: &SpaceSpec,
    opts: &SearchOptions,
    fallback: C,
) -> Result<SearchReport, SearchError>
where
    C: CostModel + Send + Sync + 'static,
{
    let calib = SearchCalibration::fit(trace, base, fallback, 8)?;
    search_calibrated(&calib, spec, opts)
}

/// [`search`] against a prebuilt [`SearchCalibration`] — the
/// calibrate-once path. Repeated queries (different spaces,
/// objectives, retention bounds, refinement settings) share one
/// fitted cost model and block library; nothing re-reads or re-walks
/// the source trace. Collective-topology classification was fixed
/// when the calibration was fitted.
///
/// # Errors
///
/// As [`search`], minus [`SearchError::Extraction`] (extraction
/// already happened when the calibration was built).
pub fn search_calibrated<C>(
    calib: &SearchCalibration<C>,
    spec: &SpaceSpec,
    opts: &SearchOptions,
) -> Result<SearchReport, SearchError>
where
    C: CostModel + Send + Sync,
{
    let base = &calib.base;
    let normalized = spec.normalized();
    // One deadline instant for the whole run: screen and refinement
    // share the budget instead of each getting a fresh one.
    let deadline = opts.deadline.map(|d| std::time::Instant::now() + d);
    let (outcome, adaptive) = if opts.adaptive {
        let (outcome, adaptive) = adaptive::run_adaptive(calib, &normalized, opts, deadline)?;
        (outcome, Some(adaptive))
    } else {
        (
            evaluate::run_exhaustive(calib, &normalized, opts, deadline)?,
            None,
        )
    };
    let mut results = outcome.results;
    let refined = if opts.refine_sim {
        // Phase two is per-candidate engine work, so it always runs on
        // a short list: the retention bound when one is set, else a
        // fixed cap — full retention must not turn refinement into an
        // engine execution of the whole space.
        let finalists = opts
            .top_k
            .unwrap_or(DEFAULT_REFINE_FINALISTS)
            .min(results.len());
        let refined =
            refine::refine_finalists(&results[..finalists], opts, &calib.lookup, deadline)?;
        // Phase two's verdict wins: reorder the refined prefix of the
        // ranked results to the simulation-refined order (indices are
        // unique per candidate); unrefined results keep their analytic
        // order behind it.
        let position: std::collections::HashMap<usize, usize> = refined
            .iter()
            .enumerate()
            .map(|(pos, r)| (r.index, pos))
            .collect();
        results[..finalists].sort_by_key(|r| {
            (
                position.get(&r.index).copied().unwrap_or(usize::MAX),
                r.index,
            )
        });
        Some(refined)
    } else {
        None
    };
    Ok(SearchReport {
        base_label: base.label(),
        base_makespan: calib.base_makespan,
        objective: opts.objective,
        results,
        pruned: outcome.pruned,
        rejected: outcome.rejected,
        stats: outcome.stats,
        memo: outcome.memo,
        threads: outcome.threads,
        refined,
        adaptive,
    })
}
