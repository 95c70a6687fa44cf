//! The streaming parallel evaluator: one shared trace-fitted cost
//! model and block library, one reassembly + replay per candidate
//! that cannot be skipped, bounded top-k retention per worker.
//!
//! Workers claim grid indices from a single atomic cursor, decode and
//! lattice-check them on the fly ([`crate::enumerate::Grid`]), gate on
//! memory feasibility, and then — when a retention bound is set —
//! consult the memoized analytic lower bound
//! ([`crate::memo::StageCostCache`]) to skip full interleaved-1F1B
//! scoring for candidates that provably cannot enter the top-k. Peak
//! memory is proportional to `top_k × threads`, not to the size of the
//! space, and the merged result is byte-identical to ranking every
//! candidate: a candidate is only skipped when its objective key is
//! *strictly* worse than `k` already-scored candidates.

use crate::candidate::Candidate;
use crate::enumerate::Grid;
use crate::error::SearchError;
use crate::memo::StageCostCache;
use crate::prune::{self, MemoStats, PruneStats, PrunedCandidate};
use crate::report::{objective_key_cmp, rank_cmp, Objective};
use crate::{SearchOptions, SearchProgress};
use lumos_core::manipulate::{plan, BlockLibrary};
use lumos_core::Lumos;
use lumos_cost::{CostModel, LookupCostModel};
use lumos_model::{utilization, MemoryEstimate, TrainingSetup, Utilization};
use lumos_trace::Dur;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering as AtomicOrdering};

/// Why a fully scored candidate was rejected instead of ranked.
#[derive(Debug, Clone, PartialEq)]
pub enum Infeasibility {
    /// The schedule's bubble fraction reached 1.0 — no useful work
    /// share, so the interleaving adjustment would divide by zero.
    DegenerateBubble {
        /// The degenerate bubble fraction.
        bubble: f64,
    },
    /// The predicted makespan is zero; per-GPU throughput and MFU are
    /// undefined.
    ZeroMakespan,
    /// The device spec reports no peak FLOP/s; MFU is undefined.
    NoPeakFlops,
    /// The objective key came out non-finite (NaN or ±∞) — reported
    /// instead of ranked so the sort never sees it.
    NonFiniteObjective {
        /// The offending key value.
        key: f64,
    },
}

impl std::fmt::Display for Infeasibility {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Infeasibility::DegenerateBubble { bubble } => {
                write!(f, "degenerate pipeline bubble ({bubble})")
            }
            Infeasibility::ZeroMakespan => write!(f, "zero predicted makespan"),
            Infeasibility::NoPeakFlops => write!(f, "device spec has no peak FLOP/s"),
            Infeasibility::NonFiniteObjective { key } => {
                write!(f, "non-finite objective key ({key})")
            }
        }
    }
}

/// A fully scored candidate rejected with a typed reason.
#[derive(Debug, Clone)]
pub struct RejectedCandidate {
    /// The candidate configuration.
    pub candidate: Candidate,
    /// Display label.
    pub label: String,
    /// Enumeration index.
    pub index: usize,
    /// Why it was rejected.
    pub reason: Infeasibility,
}

/// One evaluated candidate: the numbers a capacity planner ranks by.
#[derive(Debug, Clone)]
pub struct CandidateResult {
    /// The candidate configuration.
    pub candidate: Candidate,
    /// Display label (deployment + micro-batch/interleave/arch).
    pub label: String,
    /// Its validated target setup.
    pub setup: TrainingSetup,
    /// Enumeration index (deterministic ranking tie-break).
    pub index: usize,
    /// Predicted iteration time, including the interleaving
    /// adjustment when `candidate.interleave > 1`.
    pub makespan: Dur,
    /// Raw simulated makespan of the reassembled plain-1F1B graph.
    pub simulated_makespan: Dur,
    /// Pipeline-bubble fraction of the candidate's schedule.
    pub bubble_fraction: f64,
    /// MFU/HFU/achieved TFLOPs at the predicted iteration time.
    pub utilization: Utilization,
    /// Peak-stage memory estimate.
    pub memory: MemoryEstimate,
    /// The pipeline stage that binds memory.
    pub memory_stage: u32,
    /// Training throughput normalized by cluster size.
    pub tokens_per_sec_per_gpu: f64,
    /// `Some` when the candidate must not be ranked: degenerate
    /// bubble, zero makespan, missing peak FLOP/s, or a non-finite
    /// objective key. Such results are reported in
    /// [`crate::SearchReport::rejected`], never in `results`.
    pub infeasibility: Option<Infeasibility>,
}

impl CandidateResult {
    /// Total GPUs the candidate occupies.
    pub fn world_size(&self) -> u32 {
        self.candidate.world_size()
    }

    /// `true` when the result is rankable (no infeasibility flag).
    pub fn is_feasible(&self) -> bool {
        self.infeasibility.is_none()
    }
}

/// Everything the streaming engine produced, pre-merge of the final
/// report. The shared trace-fitted cost model lives in the
/// [`crate::SearchCalibration`] the run was given, so the refinement
/// phase prices engine executions identically to the screen without
/// re-fitting it.
pub(crate) struct EngineOutcome {
    pub results: Vec<CandidateResult>,
    pub pruned: Vec<PrunedCandidate>,
    pub rejected: Vec<RejectedCandidate>,
    pub stats: PruneStats,
    pub memo: MemoStats,
    pub threads: usize,
}

/// Shared per-run atomic counters.
#[derive(Default)]
struct Counters {
    claimed: AtomicUsize,
    budget: AtomicUsize,
    divisibility: AtomicUsize,
    structural: AtomicUsize,
    memory_pruned: AtomicUsize,
    bound_skipped: AtomicUsize,
    evaluated: AtomicUsize,
    infeasible: AtomicUsize,
}

/// A max-heap entry ordered by (objective key, index) under the
/// NaN-safe total order: the heap's top is the *worst* retained
/// candidate, the one a new candidate must strictly beat.
struct HeapEntry {
    key: f64,
    result: CandidateResult,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        objective_key_cmp(self.key, other.key)
            .then_with(|| self.result.index.cmp(&other.result.index))
    }
}

/// Per-worker bounded retention: an unbounded list when no cap is set
/// (full-ranking compatibility mode), a size-`k` max-heap otherwise.
struct TopK {
    cap: Option<usize>,
    heap: BinaryHeap<HeapEntry>,
}

impl TopK {
    fn new(cap: Option<usize>) -> Self {
        TopK {
            cap,
            heap: BinaryHeap::new(),
        }
    }

    /// `true` once the retention bound is reached (never for
    /// unbounded retention — skipping stays disabled there).
    fn full(&self) -> bool {
        self.cap.is_some_and(|k| self.heap.len() >= k)
    }

    /// The objective key a challenger must strictly beat, once full.
    fn worst_key(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.key)
    }

    fn push(&mut self, key: f64, result: CandidateResult) {
        let entry = HeapEntry { key, result };
        match self.cap {
            Some(k) if self.heap.len() >= k => {
                if k == 0 {
                    return;
                }
                if entry.cmp(self.heap.peek().expect("non-empty")) == Ordering::Less {
                    self.heap.pop();
                    self.heap.push(entry);
                }
            }
            _ => self.heap.push(entry),
        }
    }

    fn into_results(self) -> Vec<CandidateResult> {
        self.heap.into_iter().map(|e| e.result).collect()
    }
}

/// What one worker hands back at join time.
struct WorkerOut {
    results: Vec<CandidateResult>,
    pruned: Vec<PrunedCandidate>,
    rejected: Vec<RejectedCandidate>,
    /// Lowest-index evaluation failure this worker hit.
    error: Option<(usize, SearchError)>,
}

/// One grid point's fate in the decode → lattice → memory-gate →
/// bound-screen → evaluate pipeline.
pub(crate) enum IndexOutcome {
    /// Rejected by the lattice before costing anything.
    Lattice(crate::RejectReason),
    /// Cut by the memory-feasibility gate (would OOM).
    MemoryPruned(PrunedCandidate),
    /// Provably dominated: the analytic lower bound on its objective
    /// key is strictly worse than the screen threshold.
    BoundSkipped,
    /// Fully scored (the result may still carry an infeasibility
    /// flag the caller routes to the rejected list).
    Scored(Box<CandidateResult>),
    /// Graph manipulation or replay failed.
    Failed(Box<SearchError>),
}

/// The per-candidate scoring pipeline with its shared pieces bundled:
/// the grid decoder, the trace-fitted cost model and block library,
/// and the lazily built stage-cost bound cache. Both the exhaustive
/// walk ([`run_streaming`]) and the adaptive engine
/// ([`crate::adaptive`]) drive it index by index, so a candidate is
/// scored identically no matter which engine reached it.
pub(crate) struct Evaluator<'a, C: CostModel> {
    grid: Grid<'a>,
    base: &'a TrainingSetup,
    lookup: &'a LookupCostModel<C>,
    library: &'a BlockLibrary,
    opts: &'a SearchOptions,
    lumos: Lumos,
    // The stage-cost memo's construction walks the whole library
    // (dominant-stream scan + completeness probe); build it only when
    // a bound is actually queried.
    cache: std::sync::OnceLock<StageCostCache<'a, C>>,
    shared_memo: Option<&'a crate::memo::SharedStageMemo>,
    capacity: u64,
}

impl<'a, C: CostModel> Evaluator<'a, C> {
    pub(crate) fn new(
        calib: &'a crate::SearchCalibration<C>,
        spec: &crate::SpaceSpec,
        opts: &'a SearchOptions,
    ) -> Self {
        Evaluator {
            grid: Grid::new(spec, &calib.base),
            base: &calib.base,
            lookup: &calib.lookup,
            library: &calib.library,
            opts,
            lumos: Lumos::new(),
            cache: std::sync::OnceLock::new(),
            shared_memo: opts.shared_memo.as_deref(),
            capacity: opts.gpu.memory_bytes(),
        }
    }

    /// The grid this evaluator decodes indices against.
    pub(crate) fn grid(&self) -> &Grid<'a> {
        &self.grid
    }

    /// Stage-cost memo counters (zeros until a bound was queried).
    pub(crate) fn memo_stats(&self) -> MemoStats {
        self.cache
            .get()
            .map(StageCostCache::stats)
            .unwrap_or_default()
    }

    fn bound_cache(&self) -> &StageCostCache<'a, C> {
        self.cache.get_or_init(|| {
            StageCostCache::new(self.base, self.library, self.lookup, self.shared_memo)
        })
    }

    /// A sound lower bound on the candidate's objective key, `None`
    /// when no bound exists (incomplete library, degenerate schedule).
    fn bound_key(&self, cand: &Candidate, setup: &TrainingSetup) -> Option<f64> {
        let lb = self.bound_cache().lower_bound_secs(cand, setup)?;
        objective_key_lower_bound(self.opts.objective, setup, lb, self.opts)
    }

    /// Runs one grid index through the pipeline. `screen` is the
    /// objective key a candidate's lower bound must *strictly* exceed
    /// to be skipped — ties must still be scored, the enumeration-
    /// index tie-break could admit them. `None` disables the screen:
    /// everything admissible is scored.
    pub(crate) fn process(&self, index: usize, screen: Option<f64>) -> IndexOutcome {
        let cand = self.grid.candidate(index);
        let setup = match self.grid.admit(&cand) {
            Ok(setup) => setup,
            Err(reason) => return IndexOutcome::Lattice(reason),
        };
        if let Some(pruned) =
            prune::gate_one(index, &cand, &setup, &self.opts.memory_model, self.capacity)
        {
            return IndexOutcome::MemoryPruned(pruned);
        }
        if let Some(threshold) = screen {
            let dominated = self
                .bound_key(&cand, &setup)
                .is_some_and(|key_lb| objective_key_cmp(key_lb, threshold) == Ordering::Greater);
            if dominated {
                return IndexOutcome::BoundSkipped;
            }
        }
        let mut result = match evaluate_one(
            self.library,
            self.base,
            self.grid.spec(),
            &cand,
            &setup,
            index,
            self.opts,
            &self.lumos,
            self.lookup,
        ) {
            Ok(r) => r,
            Err(source) => {
                return IndexOutcome::Failed(Box::new(SearchError::Evaluation {
                    candidate: cand.label(self.grid.spec()),
                    source,
                }))
            }
        };
        if result.is_feasible() {
            let key = self.opts.objective.key(&result);
            if !key.is_finite() {
                result.infeasibility = Some(Infeasibility::NonFiniteObjective { key });
            }
        }
        IndexOutcome::Scored(Box::new(result))
    }
}

/// Runs the full streaming pipeline over the grid of `spec` (already
/// normalized): claim → decode → lattice → memory gate → lower-bound
/// skip → evaluate → per-worker top-k, merged deterministically.
/// The calibration (lookup tables + block library) is prebuilt and
/// shared — repeated queries against one [`crate::SearchCalibration`]
/// never re-walk the source trace.
pub(crate) fn run_streaming<C>(
    calib: &crate::SearchCalibration<C>,
    spec: &crate::SpaceSpec,
    opts: &SearchOptions,
    deadline: Option<std::time::Instant>,
) -> Result<EngineOutcome, SearchError>
where
    C: CostModel + Send + Sync,
{
    let evaluator = Evaluator::new(calib, spec, opts);
    let total = evaluator.grid().total();
    let threads = crate::parallel::effective_threads(opts.threads, total);

    let counters = Counters::default();
    let abort = AtomicBool::new(false);
    let expired = AtomicBool::new(false);
    let progress_stride = (total / 20).clamp(1, 65_536);

    let outs: Vec<WorkerOut> = crate::parallel::run_claimed(threads, total, |_t, claims| {
        let mut top = TopK::new(opts.top_k);
        let mut out = WorkerOut {
            results: Vec::new(),
            pruned: Vec::new(),
            rejected: Vec::new(),
            error: None,
        };
        loop {
            if abort.load(AtomicOrdering::Relaxed) {
                break;
            }
            if crate::cancel_requested(opts, deadline) {
                expired.store(true, AtomicOrdering::Relaxed);
                abort.store(true, AtomicOrdering::Relaxed);
                break;
            }
            let Some(index) = claims.next() else { break };
            let claimed = counters.claimed.fetch_add(1, AtomicOrdering::Relaxed) + 1;
            if claimed % progress_stride == 0 {
                if let Some(sink) = &opts.progress {
                    (sink.0)(SearchProgress {
                        grid_points: total,
                        claimed,
                        evaluated: counters.evaluated.load(AtomicOrdering::Relaxed),
                        memory_pruned: counters.memory_pruned.load(AtomicOrdering::Relaxed),
                        bound_skipped: counters.bound_skipped.load(AtomicOrdering::Relaxed),
                    });
                }
            }
            // Lower-bound screen: only once the local heap already
            // holds k candidates does the worst retained key become a
            // threshold. (With `top_k = Some(0)` the heap is trivially
            // full but has no worst entry to dominate, so nothing is
            // ever *claimed* to be dominated: every candidate is still
            // scored honestly, just not retained.)
            let screen = if top.full() { top.worst_key() } else { None };
            match evaluator.process(index, screen) {
                IndexOutcome::Lattice(crate::RejectReason::Budget) => {
                    counters.budget.fetch_add(1, AtomicOrdering::Relaxed);
                }
                IndexOutcome::Lattice(crate::RejectReason::Divisibility) => {
                    counters.divisibility.fetch_add(1, AtomicOrdering::Relaxed);
                }
                IndexOutcome::Lattice(crate::RejectReason::Structural) => {
                    counters.structural.fetch_add(1, AtomicOrdering::Relaxed);
                }
                IndexOutcome::MemoryPruned(pruned) => {
                    counters.memory_pruned.fetch_add(1, AtomicOrdering::Relaxed);
                    bounded_push(&mut out.pruned, pruned, opts.top_k, pruned_order);
                }
                IndexOutcome::BoundSkipped => {
                    counters.bound_skipped.fetch_add(1, AtomicOrdering::Relaxed);
                }
                IndexOutcome::Failed(err) => {
                    if out.error.as_ref().is_none_or(|(i, _)| index < *i) {
                        out.error = Some((index, *err));
                    }
                    abort.store(true, AtomicOrdering::Relaxed);
                    break;
                }
                IndexOutcome::Scored(result) => {
                    counters.evaluated.fetch_add(1, AtomicOrdering::Relaxed);
                    let result = *result;
                    match result.infeasibility.clone() {
                        Some(reason) => {
                            counters.infeasible.fetch_add(1, AtomicOrdering::Relaxed);
                            bounded_push(
                                &mut out.rejected,
                                RejectedCandidate {
                                    candidate: result.candidate,
                                    label: result.label.clone(),
                                    index: result.index,
                                    reason,
                                },
                                opts.top_k,
                                rejected_order,
                            );
                        }
                        None => top.push(opts.objective.key(&result), result),
                    }
                }
            }
        }
        out.results = top.into_results();
        finish_bounded(&mut out.pruned, opts.top_k, pruned_order);
        finish_bounded(&mut out.rejected, opts.top_k, rejected_order);
        out
    });

    // Deterministic error selection: the lowest-index failure wins
    // among the failures workers saw before aborting.
    let mut error: Option<(usize, SearchError)> = None;
    let mut results = Vec::new();
    let mut pruned = Vec::new();
    let mut rejected = Vec::new();
    for out in outs {
        if let Some((i, e)) = out.error {
            if error.as_ref().is_none_or(|(j, _)| i < *j) {
                error = Some((i, e));
            }
        }
        results.extend(out.results);
        pruned.extend(out.pruned);
        rejected.extend(out.rejected);
    }
    if let Some((_, e)) = error {
        return Err(e);
    }
    // Cancellation beats the empty-space diagnosis: an interrupted run
    // may not have claimed enough of the grid to say anything about it.
    if expired.load(AtomicOrdering::Relaxed) {
        return Err(SearchError::DeadlineExceeded);
    }

    let stats = PruneStats {
        enumerated: counters.claimed.load(AtomicOrdering::Relaxed),
        budget_rejects: counters.budget.load(AtomicOrdering::Relaxed),
        divisibility_rejects: counters.divisibility.load(AtomicOrdering::Relaxed),
        structural_rejects: counters.structural.load(AtomicOrdering::Relaxed),
        memory_pruned: counters.memory_pruned.load(AtomicOrdering::Relaxed),
        bound_skipped: counters.bound_skipped.load(AtomicOrdering::Relaxed),
        evaluated: counters.evaluated.load(AtomicOrdering::Relaxed),
        infeasible: counters.infeasible.load(AtomicOrdering::Relaxed),
        ..PruneStats::default()
    };
    if stats.memory_pruned + stats.bound_skipped + stats.evaluated == 0 {
        return Err(SearchError::EmptySpace {
            enumerated: stats.enumerated,
            rejected: stats.budget_rejects + stats.divisibility_rejects + stats.structural_rejects,
        });
    }

    // Deterministic merges: the union of per-worker top-k sets
    // contains the global top-k; ranking + truncation recovers it
    // exactly, independent of how workers carved up the grid.
    results.sort_by(|a, b| rank_cmp(a, b, opts.objective));
    if let Some(k) = opts.top_k {
        results.truncate(k);
    }
    pruned.sort_by(pruned_order);
    rejected.sort_by(rejected_order);
    if let Some(k) = opts.top_k {
        pruned.truncate(k);
        rejected.truncate(k);
    }

    let memo = evaluator.memo_stats();
    Ok(EngineOutcome {
        results,
        pruned,
        rejected,
        stats,
        memo,
        threads,
    })
}

/// Retention order for pruned examples: worst offender (largest
/// requirement) first, enumeration index as tie-break.
pub(crate) fn pruned_order(a: &PrunedCandidate, b: &PrunedCandidate) -> Ordering {
    b.required_bytes
        .cmp(&a.required_bytes)
        .then_with(|| a.index.cmp(&b.index))
}

/// Retention order for rejected examples: enumeration order.
pub(crate) fn rejected_order(a: &RejectedCandidate, b: &RejectedCandidate) -> Ordering {
    a.index.cmp(&b.index)
}

/// Bounded example retention: unbounded when no cap is set; otherwise
/// amortized sort-and-truncate keeping the `cap` best by `order`.
pub(crate) fn bounded_push<T>(
    list: &mut Vec<T>,
    item: T,
    cap: Option<usize>,
    order: fn(&T, &T) -> Ordering,
) {
    list.push(item);
    if let Some(cap) = cap {
        if list.len() >= cap.saturating_mul(2) + 16 {
            list.sort_by(order);
            list.truncate(cap);
        }
    }
}

/// Final truncation pass for [`bounded_push`] lists.
pub(crate) fn finish_bounded<T>(
    list: &mut Vec<T>,
    cap: Option<usize>,
    order: fn(&T, &T) -> Ordering,
) {
    if let Some(cap) = cap {
        list.sort_by(order);
        list.truncate(cap);
    }
}

/// Tokens one iteration trains across all data-parallel replicas —
/// shared between the scored result, the throughput lower bound, and
/// the refinement phase's objective re-evaluation, which are only
/// mutually sound while all use the same formula.
pub(crate) fn tokens_per_iter(setup: &TrainingSetup) -> u64 {
    setup.batch.tokens_per_microbatch()
        * setup.batch.num_microbatches as u64
        * setup.parallelism.dp as u64
}

/// A lower bound on the candidate's objective *key* given a lower
/// bound on its iteration seconds (`None`: no sound bound exists).
fn objective_key_lower_bound(
    objective: Objective,
    setup: &TrainingSetup,
    lb_secs: f64,
    opts: &SearchOptions,
) -> Option<f64> {
    if !(lb_secs > 0.0 && lb_secs.is_finite()) {
        return None;
    }
    match objective {
        Objective::Makespan => Some(lb_secs),
        Objective::PerGpuThroughput => {
            let tokens = tokens_per_iter(setup);
            // secs ≥ lb ⇒ throughput ≤ tokens/(lb·world) ⇒ key ≥ this.
            Some(-(tokens as f64 / lb_secs / setup.parallelism.world_size() as f64))
        }
        Objective::Mfu => {
            let peak = opts.gpu.peak_flops();
            if !(peak > 0.0 && peak.is_finite()) {
                return None;
            }
            Some(-utilization(setup, opts.memory_model.recompute, lb_secs, peak).mfu)
        }
    }
}

/// Prices one candidate: reassemble the base graph under the
/// candidate's transforms (against the shared block library), replay
/// it, and derive planner metrics. Degenerate numerics become typed
/// [`Infeasibility`] flags instead of NaN/∞ metrics.
#[allow(clippy::too_many_arguments)]
fn evaluate_one<C: CostModel>(
    library: &BlockLibrary,
    base: &TrainingSetup,
    space: &crate::SpaceSpec,
    cand: &Candidate,
    setup: &TrainingSetup,
    index: usize,
    opts: &SearchOptions,
    lumos: &Lumos,
    lookup: &LookupCostModel<C>,
) -> Result<CandidateResult, lumos_core::CoreError> {
    let replayed = lumos.predict_spec(library, &plan(base, setup), lookup)?;
    let simulated = replayed.makespan();

    let pp = setup.parallelism.pp;
    let m = setup.batch.num_microbatches;

    let mut infeasibility = None;
    // Replay pastes recorded blocks into a plain 1F1B/GPipe-shaped
    // skeleton, so schedules that reshape the pipeline — interleaved
    // 1F1B's virtual chunks, zero-bubble's split backward — are
    // scored through their own adjustment hook: it rescales the
    // skeleton's analytic bubble into the target's and charges any
    // extra pipeline-boundary traffic. Policies whose replay already
    // has the right shape return `None` and keep the raw simulation.
    let (makespan, bubble_fraction) = match setup.schedule.replay_adjustment(pp, m, cand.interleave)
    {
        Some(adj) => {
            if adj.is_degenerate() {
                infeasibility = Some(Infeasibility::DegenerateBubble {
                    bubble: adj.target_bubble.max(adj.skeleton_bubble),
                });
                (simulated, adj.target_bubble)
            } else {
                let pp_comm = replayed.pipeline_comm_secs_per_rank();
                (
                    Dur::from_secs_f64(adj.apply_secs(simulated.as_secs_f64(), pp_comm)),
                    adj.target_bubble,
                )
            }
        }
        None => {
            let plain = setup.schedule.analytic_bubble(pp, m);
            if plain >= 1.0 {
                infeasibility = Some(Infeasibility::DegenerateBubble { bubble: plain });
            }
            (simulated, plain)
        }
    };

    if infeasibility.is_none() && makespan.is_zero() {
        infeasibility = Some(Infeasibility::ZeroMakespan);
    }
    let secs = makespan.as_secs_f64().max(1e-12);
    let peak = opts.gpu.peak_flops();
    let util = if peak > 0.0 && peak.is_finite() {
        utilization(setup, opts.memory_model.recompute, secs, peak)
    } else {
        if infeasibility.is_none() {
            infeasibility = Some(Infeasibility::NoPeakFlops);
        }
        Utilization {
            mfu: 0.0,
            hfu: 0.0,
            tflops_per_gpu: 0.0,
        }
    };
    let (memory_stage, memory) = opts.memory_model.estimate_peak(setup);
    let tokens_per_sec_per_gpu =
        tokens_per_iter(setup) as f64 / secs / setup.parallelism.world_size() as f64;

    Ok(CandidateResult {
        candidate: *cand,
        label: cand.label(space),
        setup: setup.clone(),
        index,
        makespan,
        simulated_makespan: simulated,
        bubble_fraction,
        utilization: util,
        memory,
        memory_stage,
        tokens_per_sec_per_gpu,
        infeasibility,
    })
}
