//! The fault-robustness pass of simulation refinement: rank
//! configurations by how they hold up when things go wrong.
//!
//! Jitter replicas ([`crate::refine`]) answer "how does this finalist
//! behave under *healthy* run-to-run variance?". This pass answers the
//! harsher question: with a [`lumos_cluster::FaultSpec`]'s stragglers, degradation
//! windows, and rank failures injected, what makespan should the
//! planner *expect*, and how bad is the tail? Per finalist it executes
//! `fault_replicas` deterministic scenario replicas through the
//! metrics-only engine path
//! ([`lumos_cluster::PreparedJob::execute_metrics_faulted`]) and
//! reports:
//!
//! * **expected** — mean effective makespan across replicas (the
//!   re-ranking key when the pass runs: optimize for expected time
//!   under faults, not the clean point estimate);
//! * **p95** — nearest-rank tail makespan;
//! * **degradation** — `(expected − clean) / clean`, how much the
//!   fault mix costs this configuration on average;
//! * **robustness** — `clean / p95` in `(0, 1]`: 1.0 means even the
//!   tail replica is no slower than the clean run.
//!
//! Replica `r` of a finalist is sampled as
//! [`lumos_cluster::FaultSpec::realize`]`(fault_seed, r, world)` — a pure hash of
//! `(seed, replica, site)`, so rankings are byte-identical across
//! thread counts and replays. Elastic-failure replicas additionally
//! need the **survivor configuration** (one fewer data-parallel
//! replica, same everything else) simulated; it is lowered and
//! executed at most once per finalist, lazily, and its makespan is
//! rescaled by `dp / (dp − 1)` so the survivor processes the same
//! global batch. Finalists with `dp = 1` have no survivor to shrink
//! to — elastic recovery degrades to checkpoint restart there.

use crate::candidate::Candidate;
use crate::error::SearchError;
use crate::evaluate::CandidateResult;
use crate::refine::adjusted_makespan;
use crate::SearchOptions;
use lumos_cluster::{lower, JitterModel, MeasuredStats, PreparedJob};
use lumos_cost::{CostModel, HostOverheads, LookupCostModel};
use lumos_model::Parallelism;
use lumos_trace::Dur;

/// Robustness statistics from the fault-scenario pass of one finalist.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultStats {
    /// Deterministic fault replicas executed.
    pub replicas: u32,
    /// Mean effective makespan across replicas (recovery costs
    /// included) — the robust ranking key.
    pub expected: Dur,
    /// Nearest-rank 95th-percentile effective makespan.
    pub p95: Dur,
    /// Signed relative delta `(expected − clean) / clean`: what the
    /// fault mix costs this configuration on average.
    pub degradation: f64,
    /// Robustness score `clean / p95`, clamped into `(0, 1]`: 1.0
    /// means the tail fault replica is no slower than the clean run.
    pub robustness: f64,
}

/// Executes the fault-replica pass for one finalist. Returns `None`
/// when the pass is off (no spec, an empty spec, or zero replicas) —
/// the caller's output is then byte-identical to a fault-less run.
///
/// `engine_clean` is the finalist's *unadjusted* engine makespan
/// (degradation windows are fractions of the engine timeline);
/// `simulated` is the adjusted clean makespan every replica's
/// effective time is compared against. Replicas run under the default
/// host overheads, as the clean run does, and each first checks for
/// cancellation (the cancel flag or `deadline`).
pub(crate) fn fault_pass<C>(
    finalist: &CandidateResult,
    opts: &SearchOptions,
    lookup: &LookupCostModel<C>,
    prep: &PreparedJob<'_>,
    engine_clean: Dur,
    simulated: Dur,
    deadline: Option<std::time::Instant>,
) -> Result<Option<FaultStats>, SearchError>
where
    C: CostModel,
{
    let Some(spec) = &opts.fault_spec else {
        return Ok(None);
    };
    if spec.is_empty() || opts.fault_replicas == 0 {
        return Ok(None);
    }
    let fail = |detail: String| SearchError::Refinement {
        candidate: finalist.label.clone(),
        detail,
    };
    let cand = &finalist.candidate;
    let setup = &finalist.setup;
    let world = setup.parallelism.world_size();
    let overheads = HostOverheads::default();
    let no_jitter = JitterModel::none();

    // The elastic survivor (dp − 1) is simulated at most once, the
    // first time a replica needs it. `Some(None)` = tried and
    // unavailable (dp = 1 or the survivor will not lower).
    let mut survivor_s: Option<Option<f64>> = None;

    let mut iterations = Vec::new();
    for replica in 0..opts.fault_replicas {
        if crate::cancel_requested(opts, deadline) {
            return Err(SearchError::DeadlineExceeded);
        }
        let real = spec.realize(opts.fault_seed, replica, world);
        if real.is_clean() {
            iterations.push(simulated);
            continue;
        }
        let scenario = real.compile(world, engine_clean);
        let faulted = if scenario.is_identity() {
            // Failure-only replica: the engine timeline is the clean
            // one; only the recovery arithmetic differs.
            simulated
        } else {
            let out = prep
                .execute_metrics_faulted(lookup, &overheads, &no_jitter, 0, &scenario)
                .map_err(|e| fail(format!("engine (fault replica {replica}): {e}")))?;
            adjusted_makespan(cand, setup, out.makespan, out.pipeline_comm_secs_per_rank())
                .map_err(&fail)?
        };
        let survivor = if real.wants_survivor() {
            *survivor_s
                .get_or_insert_with(|| survivor_iteration_s(finalist, opts, lookup, &overheads))
        } else {
            None
        };
        let effective = real.effective_iteration_s(faulted.as_secs_f64(), survivor);
        iterations.push(Dur::from_secs_f64(effective));
    }

    let stats = MeasuredStats { iterations };
    let (expected, p95) = (stats.mean(), stats.p95());
    let clean_s = simulated.as_secs_f64();
    let degradation = if clean_s > 0.0 {
        (expected.as_secs_f64() - clean_s) / clean_s
    } else {
        0.0
    };
    let robustness = if p95.is_zero() {
        1.0
    } else {
        (clean_s / p95.as_secs_f64()).min(1.0)
    };
    Ok(Some(FaultStats {
        replicas: opts.fault_replicas,
        expected,
        p95,
        degradation,
        robustness,
    }))
}

/// Simulates the elastic survivor configuration of a finalist: the
/// same deployment with one fewer data-parallel replica, makespan
/// rescaled by `dp / (dp − 1)` to conserve the global batch. `None`
/// when no survivor exists (`dp = 1`) or the survivor configuration
/// fails to lower/execute — elastic recovery then degrades to
/// checkpoint restart rather than failing the search.
fn survivor_iteration_s<C>(
    finalist: &CandidateResult,
    opts: &SearchOptions,
    lookup: &LookupCostModel<C>,
    overheads: &HostOverheads,
) -> Option<f64>
where
    C: CostModel,
{
    let setup = &finalist.setup;
    let dp = setup.parallelism.dp;
    if dp < 2 {
        return None;
    }
    let parallelism = Parallelism::new(setup.parallelism.tp, setup.parallelism.pp, dp - 1).ok()?;
    let mut survivor = setup.clone();
    survivor.parallelism = parallelism;
    let job = lower(&survivor).ok()?;
    if opts.verify {
        lumos_cluster::verify(&job).ok()?;
    }
    let prep = PreparedJob::new(&job).ok()?;
    let out = prep
        .execute_metrics(lookup, overheads, &JitterModel::none(), 0)
        .ok()?;
    let cand = Candidate {
        dp: dp - 1,
        ..finalist.candidate
    };
    let adjusted = adjusted_makespan(
        &cand,
        &survivor,
        out.makespan,
        out.pipeline_comm_secs_per_rank(),
    )
    .ok()?;
    Some(adjusted.as_secs_f64() * dp as f64 / (dp - 1) as f64)
}
