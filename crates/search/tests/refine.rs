//! Guarantees of the simulation-refined second phase:
//!
//! * `refine_sim` re-ranks the analytic top-k by engine-simulated
//!   makespan and reports per-finalist analytic-vs-simulated deltas;
//! * refined output is bit-identical across worker counts;
//! * on a zero-jitter base, the engine-simulated makespan of a plain
//!   1F1B finalist agrees with the analytic screen within a tight
//!   band (engine-vs-analytic agreement);
//! * jitter replicas are deterministic, and their statistics are
//!   internally consistent (`mean ≤ p95`, stability in `(0, 1]`);
//! * a deadline stops the jitter and fault replica passes between
//!   replicas, not only between finalists.

use lumos_cluster::{
    lower, FaultSpec, GroundTruthCluster, JitterModel, MeasuredStats, PreparedJob,
};
use lumos_cost::{AnalyticalCostModel, HostOverheads, LookupCostModel};
use lumos_model::{BatchConfig, ModelConfig, Parallelism, ScheduleKind, TrainingSetup};
use lumos_search::{
    search, search_calibrated, Objective, RefinedResult, SearchCalibration, SearchError,
    SearchOptions, SearchReport, SpaceSpec,
};
use lumos_trace::ClusterTrace;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// An 8-layer research model, small enough that engine-executing a
/// handful of finalists stays fast.
fn base_setup() -> TrainingSetup {
    TrainingSetup {
        model: ModelConfig::custom("refine-e2e", 8, 256, 1024, 4, 64),
        parallelism: Parallelism::new(1, 2, 2).unwrap(),
        batch: BatchConfig {
            seq_len: 128,
            microbatch_size: 1,
            num_microbatches: 4,
        },
        schedule: ScheduleKind::OneFOneB,
    }
}

/// Zero-jitter base trace: the analytic screen replays exactly what
/// the engine recorded, so refinement deltas isolate modeling effects
/// rather than sampling noise.
fn shared_trace() -> &'static (TrainingSetup, ClusterTrace) {
    static CELL: OnceLock<(TrainingSetup, ClusterTrace)> = OnceLock::new();
    CELL.get_or_init(|| {
        let base = base_setup();
        let trace = GroundTruthCluster::new(&base, AnalyticalCostModel::h100())
            .unwrap()
            .profile_iteration(0)
            .unwrap()
            .trace;
        (base, trace)
    })
}

fn plain_spec() -> SpaceSpec {
    SpaceSpec::deployment_grid(&[1], &[1, 2, 4], &[1, 2]).with_microbatches(&[4, 8])
}

fn run(opts: &SearchOptions) -> SearchReport {
    let (base, trace) = shared_trace();
    search(
        trace,
        base,
        &plain_spec(),
        opts,
        AnalyticalCostModel::h100(),
    )
    .unwrap()
}

fn refined_opts(threads: Option<usize>, jitter_replicas: u32) -> SearchOptions {
    SearchOptions {
        objective: Objective::Makespan,
        top_k: Some(5),
        refine_sim: true,
        jitter_replicas,
        threads,
        ..SearchOptions::default()
    }
}

/// Everything that must be bit-identical across worker counts.
type Fingerprint = (
    String,
    usize,
    u64,
    u64,
    u64,
    Option<(u64, u64, Option<u64>)>,
);

fn fingerprint(r: &RefinedResult) -> Fingerprint {
    (
        r.label.clone(),
        r.index,
        r.analytic_makespan.as_ns(),
        r.simulated_makespan.as_ns(),
        r.delta.to_bits(),
        r.jitter
            .as_ref()
            .map(|j| (j.mean.as_ns(), j.p95.as_ns(), j.stability.map(f64::to_bits))),
    )
}

#[test]
fn refinement_reranks_and_reports_deltas() {
    let base_report = run(&SearchOptions {
        refine_sim: false,
        ..refined_opts(None, 0)
    });
    assert!(base_report.refined.is_none());

    let report = run(&refined_opts(None, 0));
    let refined = report.refined.as_ref().expect("refinement ran");
    assert_eq!(refined.len(), report.results.len());
    assert!(!refined.is_empty());
    // Re-ranked by simulated makespan, ascending.
    for pair in refined.windows(2) {
        assert!(
            pair[0].simulated_makespan <= pair[1].simulated_makespan,
            "refined finals not sorted by simulated makespan"
        );
    }
    // The ranked results were reordered to match the refined order.
    for (res, refd) in report.results.iter().zip(refined) {
        assert_eq!(res.index, refd.index);
        assert_eq!(res.label, refd.label);
        assert_eq!(res.makespan, refd.analytic_makespan);
    }
    // The same finalists, by index, as the unrefined analytic top-k.
    let mut analytic: Vec<usize> = base_report.results.iter().map(|r| r.index).collect();
    let mut sim: Vec<usize> = refined.iter().map(|r| r.index).collect();
    analytic.sort_unstable();
    sim.sort_unstable();
    assert_eq!(analytic, sim);
    // The report prints the refinement table.
    let text = report.format_top(10);
    assert!(text.contains("simulation-refined finals"), "{text}");
    assert!(text.contains("delta"), "{text}");
}

#[test]
fn refined_output_identical_across_worker_counts() {
    let reference: Vec<_> = run(&refined_opts(Some(1), 3))
        .refined
        .unwrap()
        .iter()
        .map(fingerprint)
        .collect();
    for threads in [2, 4, 7] {
        let got: Vec<_> = run(&refined_opts(Some(threads), 3))
            .refined
            .unwrap()
            .iter()
            .map(fingerprint)
            .collect();
        assert_eq!(
            got, reference,
            "refined output differs at {threads} threads"
        );
    }
}

#[test]
fn engine_agrees_with_analytic_screen_on_zero_jitter_finalists() {
    // Both phases price the same programs from the same trace-fitted
    // cost model; on a zero-jitter base their makespans must stay in a
    // tight band. (The residual is real modeling difference: graph
    // replay of reassembled blocks vs full host-dispatch simulation.)
    let report = run(&refined_opts(None, 0));
    let refined = report.refined.unwrap();
    assert!(!refined.is_empty());
    for r in &refined {
        assert!(
            r.simulated_makespan.as_ns() > 0,
            "{}: empty simulation",
            r.label
        );
        assert!(
            r.delta.abs() < 0.15,
            "{}: analytic {:.3} ms vs simulated {:.3} ms (delta {:+.1}%) out of band",
            r.label,
            r.analytic_makespan.as_ms_f64(),
            r.simulated_makespan.as_ms_f64(),
            r.delta * 100.0
        );
    }
}

#[test]
fn refinement_honors_the_search_objective() {
    // Per-GPU throughput, not raw makespan, must order the refined
    // finals when that is the objective: a bigger cluster with a
    // slightly lower makespan but worse per-GPU efficiency may not
    // outrank a smaller one.
    let report = run(&SearchOptions {
        objective: Objective::PerGpuThroughput,
        ..refined_opts(None, 0)
    });
    let refined = report.refined.as_ref().unwrap();
    assert!(refined.len() > 1);
    // report.results is reordered to match; recompute the throughput
    // key at each finalist's simulated makespan and check descending.
    let throughput_at_sim: Vec<f64> = report
        .results
        .iter()
        .zip(refined)
        .map(|(res, refd)| {
            assert_eq!(res.index, refd.index);
            let s = &res.setup;
            let tokens = s.batch.tokens_per_microbatch() as f64
                * s.batch.num_microbatches as f64
                * s.parallelism.dp as f64;
            tokens / refd.simulated_makespan.as_secs_f64() / s.parallelism.world_size() as f64
        })
        .collect();
    for pair in throughput_at_sim.windows(2) {
        assert!(
            pair[0] >= pair[1],
            "refined finals not ordered by per-GPU throughput: {throughput_at_sim:?}"
        );
    }
}

#[test]
fn full_retention_caps_refined_finalists() {
    // --keep-all retains every result; refinement must still run on a
    // short list (16 when unbounded), not engine-execute the space.
    let (base, trace) = shared_trace();
    let spec = SpaceSpec::deployment_grid(&[1], &[1, 2, 4], &[1, 2]).with_microbatches(&[4, 8, 16]);
    let opts = SearchOptions {
        objective: Objective::Makespan,
        top_k: None,
        refine_sim: true,
        ..SearchOptions::default()
    };
    let report = search(trace, base, &spec, &opts, AnalyticalCostModel::h100()).unwrap();
    assert!(
        report.results.len() > 16,
        "need more retained results than the cap, got {}",
        report.results.len()
    );
    let refined = report.refined.as_ref().unwrap();
    assert_eq!(refined.len(), 16);
    // Prefix reordered to the refined ranking, tail left analytic.
    for (res, refd) in report.results.iter().zip(refined) {
        assert_eq!(res.index, refd.index);
    }
}

#[test]
fn jitter_replicas_are_deterministic_and_consistent() {
    let a = run(&refined_opts(None, 5));
    let b = run(&refined_opts(None, 5));
    let (ra, rb) = (a.refined.clone().unwrap(), b.refined.unwrap());
    assert_eq!(
        ra.iter().map(fingerprint).collect::<Vec<_>>(),
        rb.iter().map(fingerprint).collect::<Vec<_>>()
    );
    for r in &ra {
        let j = r.jitter.as_ref().expect("jitter stats present");
        assert_eq!(j.replicas, 5);
        assert!(j.mean <= j.p95, "{}: mean above p95", r.label);
        let stability = j.stability.expect("≥2 replicas define stability");
        assert!(
            stability > 0.0 && stability <= 1.0,
            "{}: stability {} out of (0, 1]",
            r.label,
            stability
        );
        // Jittered means stay in the same ballpark as the zero-jitter
        // simulation (the jitter model is mean-1 multiplicative).
        let rel = j.mean.relative_error(r.simulated_makespan);
        assert!(rel < 0.2, "{}: jittered mean drifted {rel}", r.label);
    }
    // With replicas on, the ranking key is the jittered mean.
    for pair in ra.windows(2) {
        let (ma, mb) = (
            pair[0].jitter.as_ref().unwrap().mean,
            pair[1].jitter.as_ref().unwrap().mean,
        );
        assert!(ma <= mb, "refined finals not sorted by jittered mean");
    }
    // And the report gains the robustness columns.
    let text = a.format_top(10);
    assert!(text.contains("p95 (ms)"), "{text}");
    assert!(text.contains("stability"), "{text}");
}

#[test]
fn single_jitter_replica_has_undefined_stability() {
    // The nearest-rank p95 of one sample is the sample itself, so
    // mean/p95 would be a vacuous 1.0 — the score must be reported as
    // undefined, not as perfect stability.
    let report = run(&refined_opts(None, 1));
    let refined = report.refined.as_ref().unwrap();
    assert!(!refined.is_empty());
    for r in refined {
        let j = r.jitter.as_ref().expect("jitter stats present");
        assert_eq!(j.replicas, 1);
        assert_eq!(j.mean, j.p95, "one replica: mean is the sample");
        assert!(
            j.stability.is_none(),
            "{}: stability must be undefined with 1 replica",
            r.label
        );
    }
    let text = report.format_top(10);
    assert!(text.contains("n/a"), "{text}");
    // With two replicas the score is defined again.
    let two = run(&refined_opts(None, 2));
    for r in two.refined.as_ref().unwrap() {
        assert!(r.jitter.as_ref().unwrap().stability.is_some());
    }
}

#[test]
fn metrics_only_refinement_matches_full_trace_engine_execution() {
    // The refinement phase runs the engine in metrics-only mode (no
    // TraceEvent is ever constructed). Re-execute every finalist with
    // *full* trace collection against an identically fitted cost
    // model: the makespans the report ranked by must be bit-identical
    // — the sink changes bookkeeping, never the timeline.
    let (_base, trace) = shared_trace();
    let opts = refined_opts(None, 3);
    let report = run(&opts);
    let refined = report.refined.as_ref().expect("refinement ran");
    assert!(!refined.is_empty());
    // The same fit `search` performs internally (same trace, same
    // fallback, same 8-GPU-per-node classification).
    let lookup = LookupCostModel::fit_from_trace(trace, AnalyticalCostModel::h100(), 8);
    let oh = HostOverheads::default();
    for (res, refd) in report.results.iter().zip(refined) {
        assert_eq!(res.index, refd.index);
        // plain_spec() enumerates no interleaving, so the simulated
        // makespan is the raw engine number (no adjustment applied).
        assert!(refd.candidate.interleave <= 1);
        let job = lower(&res.setup).unwrap();
        let full = PreparedJob::new(&job)
            .unwrap()
            .execute(&lookup, &oh, &JitterModel::none(), 0)
            .unwrap();
        assert_eq!(
            refd.simulated_makespan, full.makespan,
            "{}: metrics-only refinement diverged from full-trace execution",
            refd.label
        );
        // Jitter replicas reproduce too: same seeds, same iteration
        // indices, full-trace engine.
        let model = JitterModel::realistic(opts.jitter_seed);
        let iterations: Vec<_> = (0..opts.jitter_replicas)
            .map(|r| {
                PreparedJob::new(&job)
                    .unwrap()
                    .execute(&lookup, &oh, &model, r as u64)
                    .unwrap()
                    .makespan
            })
            .collect();
        let stats = MeasuredStats { iterations };
        let j = refd.jitter.as_ref().expect("jitter stats present");
        assert_eq!(j.mean, stats.mean(), "{}: jittered mean", refd.label);
        assert_eq!(j.p95, stats.p95(), "{}: jittered p95", refd.label);
    }
}

#[test]
fn deadline_stops_refinement_inside_the_replica_pass() {
    // One finalist whose replica pass runs far past the deadline: the
    // deadline expires between replicas, never between finalists, and
    // the run must still end with the typed error instead of finishing
    // the pass and answering late.
    let (base, trace) = shared_trace();
    let calib = SearchCalibration::fit(trace, base, AnalyticalCostModel::h100(), 8).unwrap();
    let one = SpaceSpec::empty();
    let timed = |opts: &SearchOptions| {
        let start = Instant::now();
        let result = search_calibrated(&calib, &one, opts);
        (start.elapsed(), result)
    };
    let straggler = "version = 1\n[[straggler]]\nprobability = 1.0\nslowdown = 2.0\n";
    for faults in [false, true] {
        let opts = |replicas: u32, deadline: Option<Duration>| SearchOptions {
            refine_sim: true,
            jitter_replicas: if faults { 0 } else { replicas },
            fault_spec: faults.then(|| FaultSpec::parse(straggler).unwrap()),
            fault_replicas: replicas,
            deadline,
            ..SearchOptions::default()
        };
        // Size the pass from this machine's speed: the run up to the
        // replica pass, then eight replicas on top.
        let (clean, result) = timed(&opts(0, None));
        result.unwrap();
        let (eight, result) = timed(&opts(8, None));
        result.unwrap();
        let per_replica = eight.saturating_sub(clean) / 8 + Duration::from_micros(1);
        let deadline = clean * 4 + Duration::from_millis(50);
        let replicas = (50 * deadline.as_nanos() / per_replica.as_nanos()).clamp(64, 1 << 20);
        let (elapsed, result) = timed(&opts(replicas as u32, Some(deadline)));
        assert!(
            matches!(result, Err(SearchError::DeadlineExceeded)),
            "faults {faults}: {replicas} replicas under a {deadline:?} deadline answered after \
             {elapsed:?}: {:?}",
            result.map(|r| r.refined)
        );
    }
}
