//! Corpus-guided adaptive search: explore huge candidate spaces
//! without enumerating them, then (when the space is small enough)
//! *prove* the answer exact with a screened verification sweep.
//!
//! The engine scores and folds through the same batch evaluator as the
//! exhaustive walk ([`crate::evaluate::process_batch`] and
//! [`crate::evaluate::Aggregate`]) and runs in three phases:
//!
//! 1. **Seed**: deterministic random probes establish an initial
//!    corpus of scored candidates.
//! 2. **Exploration rounds**: a power schedule ([`crate::power`])
//!    picks frontier parents, mutation operators ([`crate::mutate`])
//!    propose neighbors and lattice jumps, and each round's batch is
//!    screened against the current top-k's worst key before anything
//!    is fully simulated. Rounds are *generation-synchronous* — the
//!    batch is fixed before workers touch it, results merge in index
//!    order — so a fixed `--seed` replays byte-identical reports and
//!    counters on any thread count.
//! 3. **Verification sweep**: on spaces under [`SWEEP_CAP`], the
//!    remaining unvisited indices are screened against the *final*
//!    top-k threshold (a fixed bound, so evaluation decisions stay
//!    deterministic) and the survivors scored. When the sweep
//!    completes, every grid point was either scored or provably
//!    dominated, so the report **equals the exhaustive top-k
//!    exactly** — that is [`AdaptiveOutcome::Exact`].
//!
//! The full-evaluation budget ([`crate::SearchOptions::budget`]) is
//! checked between batches: exhausting it ends the run with the typed
//! [`AdaptiveOutcome::BudgetExhausted`] marker and the best results
//! found — a partial answer, never an error.

use crate::corpus::Corpus;
use crate::error::SearchError;
use crate::evaluate::{
    process_batch, Aggregate, EngineOutcome, Evaluator, IndexOutcome, SWEEP_CHUNK,
};
use crate::power::{self, SplitMix64};
use crate::{mutate, SearchOptions};
use lumos_cost::CostModel;
use std::time::Instant;

/// Default full-evaluation budget when `--budget` is not given.
const DEFAULT_BUDGET: usize = 4096;

/// Largest space the verification sweep will walk. Above this the run
/// reports [`AdaptiveOutcome::Unverified`]: screening four million
/// indices is seconds of work, screening a billion is not.
const SWEEP_CAP: usize = 4_000_000;

/// Random probes seeding the corpus.
const SEED_PROBES: usize = 64;

/// Frontier parents mutated per exploration round.
const ROUND_PARENTS: usize = 12;

/// Best-scored candidates the frontier retains as mutation parents.
const FRONTIER_CAP: usize = 64;

/// Consecutive exploration rounds allowed to complete zero full
/// evaluations before the engine stops exploring. On spaces whose
/// feasible region is a vanishing fraction of the grid (huge axes,
/// tight GPU budget), random probing could otherwise spin for
/// millions of rounds without ever draining the evaluation budget.
const MAX_DRY_ROUNDS: usize = 64;

/// How an adaptive run terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptiveOutcome {
    /// Every grid point was either fully scored or provably excluded
    /// by the analytic screen: the reported top-k equals the
    /// exhaustive top-k exactly.
    Exact,
    /// The evaluation budget ran out before the verification sweep
    /// completed. The results are the best candidates found — a valid
    /// partial answer, not proven optimal.
    BudgetExhausted,
    /// The space exceeds the verification-sweep cap, so exactness was
    /// never on the table: results are the best found within budget
    /// (the expected mode on billion-candidate spaces).
    Unverified,
}

impl std::fmt::Display for AdaptiveOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AdaptiveOutcome::Exact => "exact",
            AdaptiveOutcome::BudgetExhausted => "budget-exhausted",
            AdaptiveOutcome::Unverified => "unverified",
        })
    }
}

/// Accounting of one adaptive run, reported alongside the ranking.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveReport {
    /// How the run terminated (see [`AdaptiveOutcome`]).
    pub outcome: AdaptiveOutcome,
    /// Total grid points in the searched space.
    pub grid_points: usize,
    /// Distinct grid indices decoded (probes, mutations, sweep).
    pub visited: usize,
    /// Mutation proposals the power schedule issued.
    pub mutations: usize,
    /// Frontier size at termination.
    pub frontier: usize,
    /// Exploration rounds run after seeding.
    pub rounds: usize,
    /// The effective full-evaluation budget.
    pub budget: usize,
    /// The RNG seed; re-running with it replays the identical search.
    pub seed: u64,
}

impl AdaptiveReport {
    /// Visited share of the grid as a percentage (0 on empty grids —
    /// never divides by zero).
    pub fn visited_percent(&self) -> f64 {
        if self.grid_points == 0 {
            0.0
        } else {
            self.visited as f64 * 100.0 / self.grid_points as f64
        }
    }
}

/// Runs the corpus-guided adaptive search. Returns the engine outcome
/// (same shape the exhaustive walk produces, so refinement and
/// reporting compose unchanged) plus the adaptive accounting.
pub(crate) fn run_adaptive<C>(
    calib: &crate::SearchCalibration<C>,
    spec: &crate::SpaceSpec,
    opts: &SearchOptions,
    deadline: Option<Instant>,
) -> Result<(EngineOutcome, AdaptiveReport), SearchError>
where
    C: CostModel + Send + Sync,
{
    let evaluator = Evaluator::new(calib, spec, opts);
    let total = evaluator.grid().total();
    let budget = opts.budget.unwrap_or(DEFAULT_BUDGET).max(1);
    let threads = crate::parallel::effective_threads(opts.threads, total);
    let mut rng = SplitMix64::new(opts.seed);
    let mut corpus = Corpus::new(FRONTIER_CAP);
    let mut agg = Aggregate::default();
    let mut mutations = 0usize;
    let mut rounds = 0usize;

    // Phase 1 — seed probes. Tiny spaces are claimed whole (the
    // sweep would visit them anyway); larger ones get deterministic
    // random probes.
    let mut batch: Vec<usize> = Vec::new();
    if total <= SEED_PROBES {
        for index in 0..total {
            corpus.mark_visited(index);
            batch.push(index);
        }
    } else {
        let mut tries = 0;
        while batch.len() < SEED_PROBES && tries < SEED_PROBES * 8 {
            tries += 1;
            let probe = rng.below(total);
            if corpus.mark_visited(probe) {
                batch.push(probe);
            }
        }
    }
    let outcomes = process_batch(&evaluator, &batch, None, threads, opts, deadline)?;
    merge(&mut agg, &mut corpus, outcomes, opts, total);

    // Phase 2 — power-scheduled exploration rounds.
    let mut dry_rounds = 0usize;
    while agg.stats.evaluated < budget && corpus.visited_len() < total {
        if dry_rounds >= MAX_DRY_ROUNDS {
            break;
        }
        rounds += 1;
        let evaluated_before = agg.stats.evaluated;
        let mut batch: Vec<usize> = Vec::new();
        for _ in 0..ROUND_PARENTS {
            let Some(pos) = power::pick_parent(&corpus, &mut rng) else {
                break;
            };
            corpus.record_trial(pos);
            let parent = corpus.frontier()[pos].index;
            let mut proposals = Vec::new();
            mutate::propose(evaluator.grid(), parent, &mut rng, &mut proposals);
            mutations += proposals.len();
            for proposal in proposals {
                if corpus.mark_visited(proposal) {
                    batch.push(proposal);
                }
            }
        }
        // Escape hatch: the frontier is empty (nothing feasible found
        // yet) or every proposal was already visited — fall back to
        // fresh random probes.
        if batch.is_empty() {
            let mut tries = 0;
            while batch.len() < SEED_PROBES && tries < SEED_PROBES * 8 {
                tries += 1;
                let probe = rng.below(total);
                if corpus.mark_visited(probe) {
                    batch.push(probe);
                }
            }
        }
        if batch.is_empty() {
            // Sampling can no longer find unvisited points; the sweep
            // below covers whatever remains.
            break;
        }
        let screen = agg.threshold(opts);
        let outcomes = process_batch(&evaluator, &batch, screen, threads, opts, deadline)?;
        merge(&mut agg, &mut corpus, outcomes, opts, total);
        if agg.stats.evaluated == evaluated_before {
            dry_rounds += 1;
        } else {
            dry_rounds = 0;
        }
    }

    // Phase 3 — verification sweep under a *fixed* threshold (the
    // final adaptive top-k's worst key), so which candidates get
    // evaluated does not depend on worker interleaving.
    let outcome_kind = if corpus.visited_len() == total {
        AdaptiveOutcome::Exact
    } else if total > SWEEP_CAP {
        AdaptiveOutcome::Unverified
    } else {
        let screen = agg.threshold(opts);
        let mut exact = true;
        let mut start = 0usize;
        while start < total {
            if agg.stats.evaluated >= budget {
                exact = false;
                break;
            }
            let end = (start + SWEEP_CHUNK).min(total);
            let chunk: Vec<usize> = (start..end).filter(|&i| corpus.mark_visited(i)).collect();
            if !chunk.is_empty() {
                let outcomes = process_batch(&evaluator, &chunk, screen, threads, opts, deadline)?;
                merge(&mut agg, &mut corpus, outcomes, opts, total);
            }
            start = end;
        }
        if exact {
            AdaptiveOutcome::Exact
        } else {
            AdaptiveOutcome::BudgetExhausted
        }
    };

    agg.stats.visited = corpus.visited_len();
    agg.stats.mutations = mutations;
    agg.stats.frontier = corpus.frontier_len();
    let report = AdaptiveReport {
        outcome: outcome_kind,
        grid_points: total,
        visited: agg.stats.visited,
        mutations,
        frontier: agg.stats.frontier,
        rounds,
        budget,
        seed: opts.seed,
    };
    Ok((agg.finish(opts, evaluator.memo_stats(), threads)?, report))
}

/// Folds one scored batch into the aggregate, offers its feasible
/// candidates to the corpus frontier, and reports progress.
fn merge(
    agg: &mut Aggregate,
    corpus: &mut Corpus,
    outcomes: Vec<(usize, IndexOutcome)>,
    opts: &SearchOptions,
    total: usize,
) {
    for (index, outcome) in &outcomes {
        if let IndexOutcome::Scored(result) = outcome {
            if result.is_feasible() {
                corpus.insert(*index, opts.objective.key(result));
            }
        }
    }
    agg.apply(outcomes, opts);
    agg.report_progress(opts, total, corpus.visited_len());
}
