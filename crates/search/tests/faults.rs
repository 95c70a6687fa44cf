//! Guarantees of the fault-robustness pass:
//!
//! * identical `(spec, seed, replica-count)` inputs produce
//!   byte-identical robust rankings on 1/2/4/7 worker threads
//!   (property-tested over seeds and replica counts);
//! * a `--faults` run with an **empty** spec is byte-identical to a
//!   plain `--refine-sim` run — down to the formatted report;
//! * the committed `examples/spaces/robust-demo.toml` space has a
//!   robust-optimal deployment that differs from its clean-optimal
//!   one under `examples/fixtures/faults-pp-degraded.toml`;
//! * the committed `examples/fixtures/faults.toml` CI fixture stays
//!   pinned to the spec this test generates, and ranks a pp=4
//!   finalist set to pinned robust numbers at ≥ 100 replicas per
//!   finalist per second.

use lumos_cluster::scenario::{DegradationSpec, FailureSpec, StragglerSpec};
use lumos_cluster::FaultSpec;
use lumos_cost::AnalyticalCostModel;
use lumos_model::{
    BatchConfig, ModelConfig, Parallelism, RecoveryCosts, ScheduleKind, ScopeClass, TrainingSetup,
};
use lumos_search::{
    search, Objective, RefinedResult, SearchOptions, SearchReport, SpaceSpec, SpecFile,
};
use lumos_trace::ClusterTrace;
use proptest::prelude::*;
use std::sync::OnceLock;
use std::time::Instant;

/// Small research model; the base deployment can transform into every
/// candidate the tests enumerate.
fn shared_trace() -> &'static (TrainingSetup, ClusterTrace) {
    static CELL: OnceLock<(TrainingSetup, ClusterTrace)> = OnceLock::new();
    CELL.get_or_init(|| {
        let base = TrainingSetup {
            model: ModelConfig::custom("faults-e2e", 8, 256, 1024, 4, 64),
            parallelism: Parallelism::new(1, 2, 2).unwrap(),
            batch: BatchConfig {
                seq_len: 128,
                microbatch_size: 1,
                num_microbatches: 4,
            },
            schedule: ScheduleKind::OneFOneB,
        };
        let trace = lumos_cluster::GroundTruthCluster::new(&base, AnalyticalCostModel::h100())
            .unwrap()
            .profile_iteration(0)
            .unwrap()
            .trace;
        (base, trace)
    })
}

fn mixed_spec() -> FaultSpec {
    FaultSpec::parse(
        r#"
        version = 1
        [[straggler]]
        probability = 0.5
        ranks = 1
        slowdown = 1.5
        [[degradation]]
        probability = 0.4
        scope = "dp"
        bandwidth_factor = 0.25
        [[failure]]
        probability = 0.25
        checkpoint_interval = 50
        [[failure]]
        probability = 0.2
        elastic = true
        "#,
    )
    .unwrap()
}

fn run(opts: &SearchOptions, space: &str) -> SearchReport {
    let (base, trace) = shared_trace();
    let spec = SpecFile::parse(space).unwrap();
    search(trace, base, &spec.space, opts, AnalyticalCostModel::h100()).unwrap()
}

const SMALL_SPACE: &str = "tp = [1]\npp = [1, 2]\ndp = [1, 2]\nmicrobatches = [4, 8]";

fn fault_opts(threads: Option<usize>, replicas: u32, seed: u64) -> SearchOptions {
    SearchOptions {
        objective: Objective::Makespan,
        top_k: Some(4),
        refine_sim: true,
        fault_spec: Some(mixed_spec()),
        fault_replicas: replicas,
        fault_seed: seed,
        threads,
        ..SearchOptions::default()
    }
}

/// `(replicas, expected_ns, p95_ns, degradation_bits, robustness_bits)`.
type FaultBits = (u32, u64, u64, u64, u64);

/// Everything of the robust ranking that must be bit-identical.
fn fingerprint(r: &RefinedResult) -> (String, usize, u64, Option<FaultBits>) {
    (
        r.label.clone(),
        r.index,
        r.simulated_makespan.as_ns(),
        r.faults.as_ref().map(|f| {
            (
                f.replicas,
                f.expected.as_ns(),
                f.p95.as_ns(),
                f.degradation.to_bits(),
                f.robustness.to_bits(),
            )
        }),
    )
}

proptest! {
    // Engine-refined searches are expensive; a few sampled
    // (seed, replica-count) points across four thread counts each is
    // plenty to falsify order-dependence.
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn robust_rankings_byte_identical_across_thread_counts(
        seed in 0u64..1_000_000,
        replicas in 1u32..10,
    ) {
        let reference: Vec<_> = run(&fault_opts(Some(1), replicas, seed), SMALL_SPACE)
            .refined
            .unwrap()
            .iter()
            .map(fingerprint)
            .collect();
        prop_assert!(reference.iter().any(|f| f.3.is_some()));
        for threads in [2usize, 4, 7] {
            let got: Vec<_> = run(&fault_opts(Some(threads), replicas, seed), SMALL_SPACE)
                .refined
                .unwrap()
                .iter()
                .map(fingerprint)
                .collect();
            prop_assert_eq!(
                &got,
                &reference,
                "robust ranking differs at {} threads (seed {}, {} replicas)",
                threads,
                seed,
                replicas
            );
        }
    }
}

#[test]
fn empty_spec_is_byte_identical_to_plain_refine() {
    let plain = run(
        &SearchOptions {
            fault_spec: None,
            ..fault_opts(None, 8, 2025)
        },
        SMALL_SPACE,
    );
    let empty = run(
        &SearchOptions {
            fault_spec: Some(FaultSpec::default()),
            ..fault_opts(None, 8, 2025)
        },
        SMALL_SPACE,
    );
    // Same rankings, same stats, and the formatted report is
    // byte-identical — no robustness columns appear for an empty spec.
    assert_eq!(plain.format_top(10), empty.format_top(10));
    assert!(empty.refined.unwrap().iter().all(|r| r.faults.is_none()));
}

#[test]
fn committed_space_has_differing_robust_winner() {
    let space = include_str!("../../../examples/spaces/robust-demo.toml");
    let faults = FaultSpec::parse(include_str!(
        "../../../examples/fixtures/faults-pp-degraded.toml"
    ))
    .unwrap();

    let clean = run(
        &SearchOptions {
            fault_spec: None,
            ..fault_opts(None, 0, 2025)
        },
        space,
    );
    let clean_winner = clean.refined.as_ref().unwrap()[0].label.clone();
    assert_eq!(
        clean_winner, "1x2x1 m=8",
        "the pipeline should win on a clean cluster"
    );

    let robust = run(
        &SearchOptions {
            fault_spec: Some(faults),
            fault_replicas: 4,
            ..fault_opts(None, 0, 2025)
        },
        space,
    );
    let refined = robust.refined.as_ref().unwrap();
    let robust_winner = refined[0].label.clone();
    assert_eq!(
        robust_winner, "1x1x1 m=8",
        "under severe pp degradation the single-GPU deployment must win"
    );
    assert_ne!(clean_winner, robust_winner);
    // The ranked results prefix follows the robust order, and the
    // report carries the robustness columns.
    assert_eq!(robust.results[0].label, robust_winner);
    let text = robust.format_top(10);
    assert!(
        text.contains("expected makespan under injected faults"),
        "{text}"
    );
    assert!(text.contains("robust"), "{text}");
    // The pipelined loser shows real degradation; the winner is clean.
    let loser = refined
        .iter()
        .find(|r| r.label == "1x2x1 m=8")
        .expect("pp=2 finalist present");
    assert!(loser.faults.as_ref().unwrap().degradation > 0.5);
    let winner_faults = refined[0].faults.as_ref().unwrap();
    assert!(winner_faults.degradation.abs() < 1e-9);
    assert!((winner_faults.robustness - 1.0).abs() < 1e-9);
}

#[test]
fn ci_fixture_is_pinned() {
    // The generator for examples/fixtures/faults.toml: if the file
    // drifts from this spec, regenerate it (or revert the edit).
    let text = include_str!("../../../examples/fixtures/faults.toml");
    let expected = FaultSpec {
        stragglers: vec![StragglerSpec {
            probability: 0.4,
            ranks: 1,
            slowdown: 1.35,
        }],
        degradations: vec![DegradationSpec {
            probability: 0.3,
            scope: Some(ScopeClass::Dp),
            bandwidth_factor: 0.25,
            start_frac: 0.25,
            end_frac: 0.75,
        }],
        failures: vec![
            FailureSpec {
                probability: 0.1,
                elastic: false,
                recovery: RecoveryCosts {
                    checkpoint_interval_iters: 100,
                    restart_latency_s: 120.0,
                    reshard_cost_s: 45.0,
                },
            },
            FailureSpec {
                probability: 0.05,
                elastic: true,
                recovery: RecoveryCosts {
                    checkpoint_interval_iters: 100,
                    restart_latency_s: 120.0,
                    reshard_cost_s: 45.0,
                },
            },
        ],
    };
    assert_eq!(FaultSpec::parse(text).unwrap(), expected);
}

/// Checks every finalist's fault stats against each other and
/// against its clean simulated makespan.
fn assert_consistent(refined: &[RefinedResult], replicas: u32) {
    assert!(!refined.is_empty());
    for r in refined {
        let f = r.faults.as_ref().expect("fault stats present");
        assert_eq!(f.replicas, replicas);
        assert!(f.expected <= f.p95, "{}: expected above p95", r.label);
        assert!(
            f.expected >= r.simulated_makespan,
            "{}: faults cannot speed a run up",
            r.label
        );
        assert!(f.degradation >= 0.0, "{}", r.label);
        assert!(
            f.robustness > 0.0 && f.robustness <= 1.0,
            "{}: robustness {} out of (0, 1]",
            r.label,
            f.robustness
        );
    }
}

#[test]
fn fault_stats_are_internally_consistent() {
    let report = run(&fault_opts(None, 12, 7), SMALL_SPACE);
    let refined = report.refined.unwrap();
    assert_consistent(&refined, 12);
    // Re-ranked by expected makespan under faults, ascending.
    for pair in refined.windows(2) {
        let (a, b) = (
            pair[0].faults.as_ref().unwrap().expected,
            pair[1].faults.as_ref().unwrap().expected,
        );
        assert!(a <= b, "refined finals not sorted by expected makespan");
    }
}

#[test]
fn ci_fixture_ranks_a_pp4_finalist_set_to_pinned_numbers() {
    // Profiled at pp=4, the deepest pipeline in the ranked space, so
    // every candidate is trace-reachable.
    let base = TrainingSetup {
        model: ModelConfig::custom("faults-pp4", 8, 256, 1024, 4, 64),
        parallelism: Parallelism::new(1, 4, 1).unwrap(),
        batch: BatchConfig {
            seq_len: 128,
            microbatch_size: 1,
            num_microbatches: 8,
        },
        schedule: ScheduleKind::OneFOneB,
    };
    let trace = lumos_cluster::GroundTruthCluster::new(&base, AnalyticalCostModel::h100())
        .unwrap()
        .with_jitter(lumos_cluster::JitterModel::realistic(2025))
        .profile_iteration(0)
        .unwrap()
        .trace;
    let space = SpaceSpec::deployment_grid(&[1], &[1, 2, 4], &[1]).with_microbatches(&[8]);
    let rank = |opts: &SearchOptions| {
        search(&trace, &base, &space, opts, AnalyticalCostModel::h100()).unwrap()
    };
    let clean_opts = SearchOptions {
        top_k: Some(4),
        refine_sim: true,
        ..SearchOptions::default()
    };
    assert_eq!(rank(&clean_opts).refined.unwrap()[0].label, "1x1x1 m=8");

    const REPLICAS: u32 = 64;
    let robust_opts = SearchOptions {
        fault_spec: Some(
            FaultSpec::parse(include_str!("../../../examples/fixtures/faults.toml")).unwrap(),
        ),
        fault_replicas: REPLICAS,
        fault_seed: 2025,
        ..clean_opts
    };
    let started = Instant::now();
    let robust = rank(&robust_opts);
    // Whole-search wall time is a conservative denominator: screening
    // and clean refinement are charged to the fault pass too.
    let rate = f64::from(REPLICAS) / started.elapsed().as_secs_f64();

    let refined = robust.refined.unwrap();
    assert_eq!(refined.len(), 3);
    assert_consistent(&refined, REPLICAS);
    assert_eq!(refined[0].label, "1x1x1 m=8");
    let top = refined[0].faults.as_ref().unwrap();
    assert_eq!(top.expected.as_ns(), 225_940_371);
    assert_eq!(top.p95.as_ns(), 1_224_432_302);
    assert!(
        rate >= 100.0,
        "fault pass sustained {rate:.1} replicas/finalist/sec, under 100"
    );
}
