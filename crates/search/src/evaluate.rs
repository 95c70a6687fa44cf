//! The evaluation pipeline both search engines share: one shared
//! trace-fitted cost model and block library, one reassembly + replay
//! per candidate that cannot be skipped, and one way to walk batches.
//!
//! [`Evaluator::process`] runs one grid index through decode → lattice
//! check → memory gate → lower-bound screen → full scoring.
//! [`process_batch`] scores a fixed batch of indices in parallel
//! against one screen threshold, [`Aggregate`] folds the batches into
//! the retained top-k, the bounded example lists and the counters, and
//! [`Aggregate::finish`] closes the run. The exhaustive walk
//! ([`run_exhaustive`]) feeds the whole grid through them in index
//! order; the adaptive engine ([`crate::adaptive`]) feeds its probes,
//! rounds and verification sweep through the same three.
//!
//! When a retention bound is set, a candidate is skipped only when the
//! memoized analytic lower bound on its objective key
//! ([`crate::memo::StageCostCache`]) is *strictly* worse than the k-th
//! best key merged before its batch, so the result is byte-identical
//! to ranking every candidate. The threshold moves only between
//! batches, and batch boundaries ignore the worker count, so which
//! candidates are scored, skipped and reported is the same at every
//! thread count. Peak memory is the top-k plus one batch's outcomes,
//! not the size of the space.

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
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering as AtomicOrdering};
use std::time::Instant;

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

/// Everything one search engine produced, pre-merge of the final
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

/// Largest batch either engine scores under one screen threshold: the
/// exhaustive walk's batches double up to it, and the adaptive
/// verification sweep is cut into it (its budget is re-checked between
/// chunks, so overshoot is bounded by one chunk's evaluations).
pub(crate) const SWEEP_CHUNK: usize = 16_384;

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
/// walk ([`run_exhaustive`]) and the adaptive engine
/// ([`crate::adaptive`]) drive it through [`process_batch`], so a
/// candidate is scored identically no matter which engine reached it.
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
    fn process(&self, index: usize, screen: Option<f64>) -> IndexOutcome {
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

/// Scores one fixed batch of grid indices in parallel against one
/// screen threshold and returns the outcomes sorted by index.
/// Generation-synchronous: the batch and its threshold are fixed while
/// workers run, and the merge order is independent of which worker
/// processed what. A cancelled batch is [`SearchError::DeadlineExceeded`];
/// otherwise the lowest failing index's error wins.
pub(crate) fn process_batch<C>(
    evaluator: &Evaluator<'_, C>,
    batch: &[usize],
    screen: Option<f64>,
    threads: usize,
    opts: &SearchOptions,
    deadline: Option<Instant>,
) -> Result<Vec<(usize, IndexOutcome)>, SearchError>
where
    C: CostModel + Send + Sync,
{
    if batch.is_empty() {
        return Ok(Vec::new());
    }
    let workers = threads.min(batch.len());
    let expired = AtomicBool::new(false);
    // The lowest failing index seen so far. Higher indices are not worth
    // scoring once one failed, and the batch's lowest failing index is
    // never skipped, so it is still the error reported. It publishes no
    // other data: a stale read only scores more.
    let first_failure = AtomicUsize::new(usize::MAX);
    let per_worker = crate::parallel::run_claimed(workers, batch.len(), |_t, claims| {
        let mut out = Vec::new();
        while let Some(slot) = claims.next() {
            if expired.load(AtomicOrdering::Relaxed) {
                break;
            }
            if crate::cancel_requested(opts, deadline) {
                expired.store(true, AtomicOrdering::Relaxed);
                break;
            }
            let index = batch[slot];
            if index > first_failure.load(AtomicOrdering::Relaxed) {
                continue;
            }
            let outcome = evaluator.process(index, screen);
            if matches!(outcome, IndexOutcome::Failed(_)) {
                first_failure.fetch_min(index, AtomicOrdering::Relaxed);
            }
            out.push((index, outcome));
        }
        out
    });
    if expired.load(AtomicOrdering::Relaxed) {
        return Err(SearchError::DeadlineExceeded);
    }
    let mut outcomes: Vec<(usize, IndexOutcome)> = per_worker.into_iter().flatten().collect();
    outcomes.sort_by_key(|(index, _)| *index);
    // Deterministic error selection: the lowest failing index wins.
    if let Some(pos) = outcomes
        .iter()
        .position(|(_, o)| matches!(o, IndexOutcome::Failed(_)))
    {
        let (_, IndexOutcome::Failed(err)) = outcomes.swap_remove(pos) else {
            unreachable!("position matched Failed");
        };
        return Err(*err);
    }
    Ok(outcomes)
}

/// Merged, deterministically ordered state accumulated batch by batch:
/// the retained top-k, the bounded example lists and the counters.
#[derive(Default)]
pub(crate) struct Aggregate {
    results: Vec<CandidateResult>,
    pruned: Vec<PrunedCandidate>,
    rejected: Vec<RejectedCandidate>,
    pub(crate) stats: PruneStats,
}

impl Aggregate {
    /// Folds one batch's index-ordered outcomes in (errors were already
    /// taken out by [`process_batch`]).
    pub(crate) fn apply(&mut self, outcomes: Vec<(usize, IndexOutcome)>, opts: &SearchOptions) {
        for (index, outcome) in outcomes {
            self.stats.enumerated += 1;
            match outcome {
                IndexOutcome::Lattice(crate::RejectReason::Budget) => {
                    self.stats.budget_rejects += 1;
                }
                IndexOutcome::Lattice(crate::RejectReason::Divisibility) => {
                    self.stats.divisibility_rejects += 1;
                }
                IndexOutcome::Lattice(crate::RejectReason::Structural) => {
                    self.stats.structural_rejects += 1;
                }
                IndexOutcome::MemoryPruned(pruned) => {
                    self.stats.memory_pruned += 1;
                    bounded_push(&mut self.pruned, pruned, opts.top_k, pruned_order);
                }
                IndexOutcome::BoundSkipped => self.stats.bound_skipped += 1,
                IndexOutcome::Failed(_) => unreachable!("batch errors handled before apply"),
                IndexOutcome::Scored(result) => {
                    self.stats.evaluated += 1;
                    let result = *result;
                    match result.infeasibility.clone() {
                        Some(reason) => {
                            self.stats.infeasible += 1;
                            bounded_push(
                                &mut self.rejected,
                                RejectedCandidate {
                                    candidate: result.candidate,
                                    label: result.label.clone(),
                                    index,
                                    reason,
                                },
                                opts.top_k,
                                rejected_order,
                            );
                        }
                        None => self.results.push(result),
                    }
                }
            }
        }
        // The ranking is a total order (key, then unique index), so the
        // top k of everything merged so far is the top k of the last
        // top k plus this batch. Unbounded retention has no threshold
        // to keep current and is ranked once, by `finish`.
        if let Some(k) = opts.top_k {
            self.results.sort_by(|a, b| rank_cmp(a, b, opts.objective));
            self.results.truncate(k);
        }
    }

    /// The screen threshold: the k-th best key once k feasible results
    /// exist (`None` before that, or under unbounded retention, where
    /// skipping must stay disabled to keep the full ranking exact).
    pub(crate) fn threshold(&self, opts: &SearchOptions) -> Option<f64> {
        let k = opts.top_k?;
        if k == 0 || self.results.len() < k {
            return None;
        }
        Some(opts.objective.key(&self.results[k - 1]))
    }

    /// Streams a progress snapshot after a merged batch; `claimed` is
    /// how many grid points the engine has walked so far.
    pub(crate) fn report_progress(&self, opts: &SearchOptions, grid_points: usize, claimed: usize) {
        if let Some(sink) = &opts.progress {
            (sink.0)(SearchProgress {
                grid_points,
                claimed,
                evaluated: self.stats.evaluated,
                memory_pruned: self.stats.memory_pruned,
                bound_skipped: self.stats.bound_skipped,
            });
        }
    }

    /// Closes a run: a space where nothing got past the lattice is an
    /// error; the results are ranked and the example lists put in their
    /// retention orders, each cut to the retention bound.
    pub(crate) fn finish(
        self,
        opts: &SearchOptions,
        memo: MemoStats,
        threads: usize,
    ) -> Result<EngineOutcome, SearchError> {
        let Aggregate {
            mut results,
            mut pruned,
            mut rejected,
            stats,
        } = self;
        if stats.memory_pruned + stats.bound_skipped + stats.evaluated == 0 {
            return Err(SearchError::EmptySpace {
                enumerated: stats.enumerated,
                rejected: stats.budget_rejects
                    + stats.divisibility_rejects
                    + stats.structural_rejects,
            });
        }
        results.sort_by(|a, b| rank_cmp(a, b, opts.objective));
        pruned.sort_by(pruned_order);
        rejected.sort_by(rejected_order);
        if let Some(k) = opts.top_k {
            pruned.truncate(k);
            rejected.truncate(k);
        }
        Ok(EngineOutcome {
            results,
            pruned,
            rejected,
            stats,
            memo,
            threads,
        })
    }
}

/// The exhaustive walk over the grid of `spec` (already normalized):
/// every index in order, in batches that double from one index up to
/// [`SWEEP_CHUNK`], each screened against the threshold merged before
/// it. Batches start at one so the bound is armed as soon as k results
/// exist, and their boundaries ignore the worker count, so which
/// candidates get scored is the same at every thread count. The
/// calibration (lookup tables + block library) is prebuilt and shared —
/// repeated queries against one [`crate::SearchCalibration`] never
/// re-walk the source trace.
pub(crate) fn run_exhaustive<C>(
    calib: &crate::SearchCalibration<C>,
    spec: &crate::SpaceSpec,
    opts: &SearchOptions,
    deadline: Option<Instant>,
) -> Result<EngineOutcome, SearchError>
where
    C: CostModel + Send + Sync,
{
    let evaluator = Evaluator::new(calib, spec, opts);
    let total = evaluator.grid().total();
    let threads = crate::parallel::effective_threads(opts.threads, total);
    let mut agg = Aggregate::default();
    let (mut start, mut len) = (0, 1);
    while start < total {
        let end = (start + len).min(total);
        let batch: Vec<usize> = (start..end).collect();
        let screen = agg.threshold(opts);
        let outcomes = process_batch(&evaluator, &batch, screen, threads, opts, deadline)?;
        agg.apply(outcomes, opts);
        agg.report_progress(opts, total, end);
        start = end;
        len = (len * 2).min(SWEEP_CHUNK);
    }
    agg.finish(opts, evaluator.memo_stats(), threads)
}

/// Retention order for pruned examples: worst offender (largest
/// requirement) first, enumeration index as tie-break.
fn pruned_order(a: &PrunedCandidate, b: &PrunedCandidate) -> Ordering {
    b.required_bytes
        .cmp(&a.required_bytes)
        .then_with(|| a.index.cmp(&b.index))
}

/// Retention order for rejected examples: enumeration order.
fn rejected_order(a: &RejectedCandidate, b: &RejectedCandidate) -> Ordering {
    a.index.cmp(&b.index)
}

/// Bounded example retention: unbounded when no cap is set; otherwise
/// amortized sort-and-truncate keeping the `cap` best by `order`.
fn bounded_push<T>(list: &mut Vec<T>, item: T, cap: Option<usize>, order: fn(&T, &T) -> Ordering) {
    list.push(item);
    if let Some(cap) = cap {
        if list.len() >= cap.saturating_mul(2) + 16 {
            list.sort_by(order);
            list.truncate(cap);
        }
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
