//! Phase two of the two-phase search: simulation-refined finals.
//!
//! The streaming screen (phase one) prices every candidate with the
//! closed-form interleaved-1F1B schedule model over a replayed
//! reassembly of the base trace — fast, but blind to the effects only
//! a full multi-rank execution exposes: compute/communication overlap,
//! host-dispatch serialization, and cross-rank collective rendezvous.
//! This module takes the analytic top-k and *replays the paper's
//! ground-truth methodology on each finalist*: lower the candidate's
//! full configuration into per-rank host programs
//! ([`lumos_cluster::lower`]), execute them through the discrete-event
//! engine ([`lumos_cluster::execute`]) against the **same** shared
//! trace-fitted [`LookupCostModel`] the screen used, and re-rank by
//! the *search objective re-evaluated at the simulated makespan* —
//! the user's ranking criterion stays in charge, informed by the
//! engine's number instead of the screen's. Each [`RefinedResult`]
//! reports the analytic-vs-simulated delta so a planner can see where
//! the cheap model diverges from trace-level simulation.
//!
//! An optional **jitter-robustness pass** executes `jitter_replicas`
//! deterministic, seeded variance replicas per finalist
//! ([`JitterModel::realistic`]) and reports mean / p95 makespans plus
//! a stability score (`mean / p95` clamped into `(0, 1]`, 1.0 =
//! perfectly stable; undefined — `None` — below two replicas, where
//! p95 is just the single sample), so the search can prefer
//! configurations that degrade gracefully under run-to-run noise
//! rather than point-estimate winners; the objective is then
//! re-evaluated at the jittered mean.
//!
//! An optional **fault-robustness pass** ([`crate::faults`]) goes
//! further: it injects a [`lumos_cluster::FaultSpec`]'s stragglers,
//! degradation windows, and rank failures into deterministic scenario
//! replicas and re-ranks by the *expected* makespan under faults,
//! reporting expected / p95 / degradation / robustness per finalist.
//!
//! Finalists are refined in parallel on the same worker-pool sizing as
//! the screen ([`crate::parallel::effective_threads`]); every engine
//! execution is deterministic (seeded jitter, wake-order-independent
//! timestamps), so refined rankings are bit-identical across thread
//! counts.
//!
//! Refinement runs the engine in **metrics-only mode**
//! ([`lumos_cluster::PreparedJob::execute_metrics`]): search consumes
//! only the makespan and the pipeline-boundary communication total,
//! so no per-rank `TraceEvent` stream is ever materialized, and each
//! finalist's program is lowered and prepared **once** and shared
//! across the zero-jitter base run and all jitter replicas (jitter is
//! applied at execution time via iteration-indexed multipliers). The
//! numbers are bit-identical to full-trace execution — the engine
//! computes the same timeline either way; only the bookkeeping
//! differs.
//!
//! Candidates with `interleave > 1` are simulated under their plain
//! 1F1B lowering and adjusted by the same interleaving model phase one
//! applies (bubble divided by `v`, pipeline-boundary traffic
//! multiplied by `v`) — the engine, like graph manipulation, does not
//! restage a schedule into virtual chunks, and using the identical
//! adjustment keeps the analytic-vs-simulated delta a statement about
//! *simulation fidelity*, not about schedule-model disagreement.

use crate::candidate::Candidate;
use crate::error::SearchError;
use crate::evaluate::{tokens_per_iter, CandidateResult};
use crate::faults::{fault_pass, FaultStats};
use crate::report::{objective_key_cmp, Objective};
use crate::SearchOptions;
use lumos_cluster::{lower, JitterModel, MeasuredStats, PreparedJob};
use lumos_cost::{CostModel, HostOverheads, LookupCostModel};
use lumos_model::{utilization, TrainingSetup};
use lumos_trace::Dur;
use std::sync::atomic::{AtomicBool, Ordering};

/// Robustness statistics from the jitter-replica pass of one finalist.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitterStats {
    /// Deterministic variance replicas executed.
    pub replicas: u32,
    /// Mean simulated makespan across replicas.
    pub mean: Dur,
    /// Nearest-rank 95th-percentile simulated makespan.
    pub p95: Dur,
    /// Stability score `mean / p95`, clamped into `(0, 1]` (with
    /// enough replicas a heavy-tailed draw can push the mean above the
    /// nearest-rank p95): 1.0 means the tail replica is no slower than
    /// the average — the configuration absorbs jitter instead of
    /// amplifying it. `None` below two replicas: the nearest-rank p95
    /// of a single sample is the sample itself, so the score would be
    /// a vacuous 1.0, not evidence of stability.
    pub stability: Option<f64>,
}

/// One finalist after engine refinement: the analytic screen's
/// estimate next to the discrete-event simulation's, with the delta
/// between them and optional jitter-robustness statistics.
#[derive(Debug, Clone)]
pub struct RefinedResult {
    /// The candidate configuration.
    pub candidate: Candidate,
    /// Display label (same as the phase-one result).
    pub label: String,
    /// Phase-one enumeration index (stable identity + tie-break).
    pub index: usize,
    /// Phase one's analytic makespan estimate.
    pub analytic_makespan: Dur,
    /// Zero-jitter engine-simulated makespan (interleave-adjusted the
    /// same way the analytic estimate is).
    pub simulated_makespan: Dur,
    /// Signed relative delta `(simulated − analytic) / analytic`:
    /// positive when the engine found the candidate *slower* than the
    /// screen believed.
    pub delta: f64,
    /// Jitter-robustness statistics, when
    /// [`SearchOptions::jitter_replicas`] > 0.
    pub jitter: Option<JitterStats>,
    /// Fault-robustness statistics, when [`SearchOptions::fault_spec`]
    /// is a non-empty spec and [`SearchOptions::fault_replicas`] > 0.
    pub faults: Option<FaultStats>,
}

impl RefinedResult {
    /// The makespan the refinement objective is evaluated at: the
    /// expected makespan under injected faults when the fault pass
    /// ran (robust ranking), else the jittered mean when the jitter
    /// pass ran (optimize for expected time under noise), else the
    /// zero-jitter simulated makespan.
    pub fn ranking_makespan(&self) -> Dur {
        if let Some(f) = &self.faults {
            return f.expected;
        }
        match &self.jitter {
            Some(j) => j.mean,
            None => self.simulated_makespan,
        }
    }
}

/// The search objective's ranking key re-evaluated at a simulated
/// makespan — the same formulas [`Objective::key`] applies to
/// phase-one results, so phase two re-ranks by the *user's* objective
/// (makespan, per-GPU throughput, or MFU), informed by the engine's
/// number instead of the screen's. Degenerate inputs yield a
/// non-finite key, which the NaN-safe comparator ranks strictly last.
fn refined_key(finalist: &CandidateResult, secs: f64, opts: &SearchOptions) -> f64 {
    if !(secs > 0.0 && secs.is_finite()) {
        return f64::INFINITY;
    }
    let setup = &finalist.setup;
    match opts.objective {
        Objective::Makespan => secs,
        Objective::PerGpuThroughput => {
            -(tokens_per_iter(setup) as f64 / secs / setup.parallelism.world_size() as f64)
        }
        Objective::Mfu => {
            let peak = opts.gpu.peak_flops();
            if !(peak > 0.0 && peak.is_finite()) {
                return f64::INFINITY;
            }
            -utilization(setup, opts.memory_model.recompute, secs, peak).mfu
        }
    }
}

/// Executes every finalist through the discrete-event engine in
/// parallel and returns them re-ranked by the search objective
/// re-evaluated at the simulated makespan (jittered mean when the
/// robustness pass is on), ties broken by the phase-one enumeration
/// index.
///
/// Deterministic: per-finalist work depends only on the finalist and
/// the options, results merge by finalist slot, and ranking uses a
/// total order — so the output is identical for any worker count.
pub(crate) fn refine_finalists<C>(
    finalists: &[CandidateResult],
    opts: &SearchOptions,
    lookup: &LookupCostModel<C>,
    deadline: Option<std::time::Instant>,
) -> Result<Vec<RefinedResult>, SearchError>
where
    C: CostModel + Send + Sync,
{
    if finalists.is_empty() {
        return Ok(Vec::new());
    }
    let threads = crate::parallel::effective_threads(opts.threads, finalists.len());
    let expired = AtomicBool::new(false);
    let per_worker = crate::parallel::run_claimed(threads, finalists.len(), |_t, claims| {
        let mut out = Vec::new();
        while let Some(slot) = claims.next() {
            if expired.load(Ordering::Relaxed) {
                break;
            }
            if crate::cancel_requested(opts, deadline) {
                expired.store(true, Ordering::Relaxed);
                break;
            }
            out.push((slot, refine_one(&finalists[slot], opts, lookup)));
        }
        out
    });

    // A cancelled run leaves unclaimed slots behind — bail before the
    // merge below, which (correctly) insists every slot was claimed.
    if expired.load(Ordering::Relaxed) {
        return Err(SearchError::DeadlineExceeded);
    }

    // Merge by slot so worker scheduling cannot reorder anything, and
    // report the lowest-slot failure deterministically.
    let mut slots: Vec<Option<Result<RefinedResult, SearchError>>> =
        (0..finalists.len()).map(|_| None).collect();
    for (slot, result) in per_worker.into_iter().flatten() {
        slots[slot] = Some(result);
    }
    let mut refined = Vec::with_capacity(finalists.len());
    for slot in slots {
        refined.push(slot.expect("every finalist slot was claimed")?);
    }
    // `refined` is in finalist order here, so pairing with `finalists`
    // recovers each result's setup for the objective re-evaluation.
    let mut keyed: Vec<(f64, RefinedResult)> = refined
        .into_iter()
        .zip(finalists)
        .map(|(r, f)| {
            let key = refined_key(f, r.ranking_makespan().as_secs_f64(), opts);
            (key, r)
        })
        .collect();
    keyed.sort_by(|a, b| objective_key_cmp(a.0, b.0).then_with(|| a.1.index.cmp(&b.1.index)));
    Ok(keyed.into_iter().map(|(_, r)| r).collect())
}

/// Lowers and executes one finalist: zero-jitter simulation, then the
/// optional jitter-replica pass.
fn refine_one<C>(
    finalist: &CandidateResult,
    opts: &SearchOptions,
    lookup: &LookupCostModel<C>,
) -> Result<RefinedResult, SearchError>
where
    C: CostModel,
{
    let fail = |detail: String| SearchError::Refinement {
        candidate: finalist.label.clone(),
        detail,
    };
    let setup = &finalist.setup;
    let job = lower(setup).map_err(|e| fail(format!("lowering: {e}")))?;
    if opts.verify {
        lumos_cluster::verify(&job).map_err(|e| SearchError::InvalidProgram {
            candidate: finalist.label.clone(),
            source: e,
        })?;
    }
    // One prepared (dense, interned) form shared by the base run and
    // every jitter replica: the engine executes in metrics-only mode,
    // so no trace event is ever materialized on this path.
    let prep = PreparedJob::new(&job).map_err(|e| fail(format!("prepare: {e}")))?;
    let overheads = HostOverheads::default();

    let out = prep
        .execute_metrics(lookup, &overheads, &JitterModel::none(), 0)
        .map_err(|e| fail(format!("engine: {e}")))?;
    let simulated = adjusted_makespan(
        &finalist.candidate,
        setup,
        out.makespan,
        out.pipeline_comm_secs_per_rank(),
    )
    .map_err(fail)?;

    let jitter = if opts.jitter_replicas > 0 {
        let model = JitterModel::realistic(opts.jitter_seed);
        let mut iterations = Vec::with_capacity(opts.jitter_replicas as usize);
        for replica in 0..opts.jitter_replicas {
            let jittered = prep
                .execute_metrics(lookup, &overheads, &model, replica as u64)
                .map_err(|e| fail(format!("engine (jitter replica {replica}): {e}")))?;
            iterations.push(
                adjusted_makespan(
                    &finalist.candidate,
                    setup,
                    jittered.makespan,
                    jittered.pipeline_comm_secs_per_rank(),
                )
                .map_err(fail)?,
            );
        }
        let stats = MeasuredStats { iterations };
        let (mean, p95) = (stats.mean(), stats.p95());
        // A single replica's nearest-rank p95 is the sample itself, so
        // mean/p95 would report a vacuous 1.0 — below two replicas the
        // score is undefined, not perfect.
        let stability = if opts.jitter_replicas < 2 {
            None
        } else if p95.is_zero() {
            Some(1.0)
        } else {
            Some((mean.as_secs_f64() / p95.as_secs_f64()).min(1.0))
        };
        Some(JitterStats {
            replicas: opts.jitter_replicas,
            mean,
            p95,
            stability,
        })
    } else {
        None
    };

    let faults = fault_pass(
        finalist,
        opts,
        lookup,
        &overheads,
        &prep,
        out.makespan,
        simulated,
    )?;

    let analytic = finalist.makespan;
    let delta = if analytic.is_zero() {
        0.0
    } else {
        (simulated.as_secs_f64() - analytic.as_secs_f64()) / analytic.as_secs_f64()
    };
    Ok(RefinedResult {
        candidate: finalist.candidate,
        label: finalist.label.clone(),
        index: finalist.index,
        analytic_makespan: analytic,
        simulated_makespan: simulated,
        delta,
        jitter,
        faults,
    })
}

/// Applies the schedule's engine adjustment to a simulated makespan,
/// so analytic and simulated estimates stay directly comparable.
/// Lowering realizes most schedules natively (including zero-bubble's
/// split backward) and needs no correction; interleaved 1F1B is the
/// exception — its virtual chunks cannot be lowered, so the engine
/// simulates plain 1F1B and the hook rescales.
/// `pp_comm_secs_per_rank` is the engine metrics' mean per-rank
/// pipeline-boundary SendRecv time — the same quantity phase one
/// derives by walking a full trace.
pub(crate) fn adjusted_makespan(
    cand: &Candidate,
    setup: &TrainingSetup,
    simulated: Dur,
    pp_comm_secs_per_rank: f64,
) -> Result<Dur, String> {
    let pp = setup.parallelism.pp;
    let m = setup.batch.num_microbatches;
    match setup.schedule.engine_adjustment(pp, m, cand.interleave) {
        None => Ok(simulated),
        // Phase one rejects degenerate candidates before they can
        // become finalists; fall back to the unadjusted simulation if
        // one slips through via a hand-built result list.
        Some(adj) if adj.is_degenerate() => Ok(simulated),
        Some(adj) => Ok(Dur::from_secs_f64(
            adj.apply_secs(simulated.as_secs_f64(), pp_comm_secs_per_rank),
        )),
    }
}
