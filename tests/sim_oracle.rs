//! Differential test of the simulator: `simulate` — one representative
//! per class of identical ranks, on dense state — against the
//! reference simulator it replaced (`oracle`, a verbatim copy), bit for
//! bit: starts, ends, runtime dependencies (as sorted sets), makespan,
//! breakdown and pipeline-communication time. Cases are random tiny
//! predictions (dp, pp and micro-batch changes, TP 2→4 rescales) and
//! replays of zero-jitter and jittered ground-truth traces, under both
//! toolkits; enough of them must take the quotient that the test
//! cannot pass by always running every rank.

mod oracle;

use lumos::core::manipulate::{apply_transforms, plan, BlockLibrary};
use lumos::core::{quotient_classes, simulate, ExecutionGraph, Replayed};
use lumos::prelude::*;
use proptest::test_runner::TestRng;

/// Cases per test (each a calibration plus a prediction, or a replay).
const CASES: u64 = 64;

fn tiny(tp: u32, pp: u32, dp: u32, microbatches: u32) -> TrainingSetup {
    TrainingSetup {
        model: ModelConfig::tiny(),
        parallelism: Parallelism::new(tp, pp, dp).unwrap(),
        batch: BatchConfig {
            seq_len: 128,
            microbatch_size: 1,
            num_microbatches: microbatches,
        },
        schedule: ScheduleKind::OneFOneB,
    }
}

fn profile(setup: &TrainingSetup, jitter: Option<u64>) -> ClusterTrace {
    let cluster = GroundTruthCluster::new(setup, AnalyticalCostModel::h100()).unwrap();
    let cluster = match jitter {
        Some(seed) => cluster.with_jitter(JitterModel::realistic(seed)),
        None => cluster,
    };
    cluster.profile_iteration(0).unwrap().trace
}

fn pick(rng: &mut TestRng, lo: u32, hi: u32) -> u32 {
    rng.range_u64(u64::from(lo), u64::from(hi) + 1) as u32
}

/// Compares `simulate` with the reference on `graph`; returns whether
/// the quotient ran fewer rank classes than the graph has ranks.
fn check(lumos: &Lumos, graph: ExecutionGraph, case: &str) -> bool {
    let ranks = {
        let mut ranks: Vec<_> = graph.processors().iter().map(|p| p.rank()).collect();
        ranks.sort_unstable();
        ranks.dedup();
        ranks.len()
    };
    let classes = quotient_classes(&graph, &lumos.sim);
    let ours = simulate(&graph, &lumos.sim).unwrap_or_else(|e| panic!("{case}: {e}"));
    let mut reference = oracle::simulate(&graph, &lumos.sim).unwrap();
    reference.runtime_deps.sort_unstable();
    assert!(ours.starts == reference.starts, "{case}: starts differ");
    assert!(ours.ends == reference.ends, "{case}: ends differ");
    assert_eq!(ours.runtime_deps, reference.runtime_deps, "{case}");
    let ours = Replayed {
        graph: graph.clone(),
        result: ours,
        label: String::new(),
    };
    let reference = Replayed {
        graph,
        result: reference,
        label: String::new(),
    };
    assert_eq!(ours.makespan(), reference.makespan(), "{case}");
    assert_eq!(ours.breakdown(), reference.breakdown(), "{case}");
    assert_eq!(
        ours.pipeline_comm_secs_per_rank().to_bits(),
        reference.pipeline_comm_secs_per_rank().to_bits(),
        "{case}"
    );
    classes.is_some_and(|c| c < ranks)
}

#[test]
fn predictions_match_the_reference_simulator() {
    let mut rng = TestRng::deterministic("predictions_match_the_reference_simulator");
    let mut quotients = 0;
    for _ in 0..CASES {
        let (tp, pp, dp) = (
            pick(&mut rng, 1, 2),
            pick(&mut rng, 1, 2),
            pick(&mut rng, 1, 2),
        );
        let base = tiny(tp, pp, dp, pick(&mut rng, 1, 3));
        let seed = rng.range_u64(0, 1000);
        let trace = profile(&base, Some(seed));
        let library = BlockLibrary::extract(&trace, base.parallelism).unwrap();
        let lookup = LookupCostModel::fit_from_trace(&trace, AnalyticalCostModel::h100(), 8);
        let mut transforms = vec![
            Transform::DataParallel {
                dp: pick(&mut rng, 1, 4),
            },
            Transform::PipelineParallel {
                pp: pick(&mut rng, 1, 2),
            },
            Transform::Microbatches {
                num: pick(&mut rng, 1, 4),
            },
        ];
        if tp == 2 && rng.range_u64(0, 2) == 1 {
            transforms.push(Transform::TensorParallel { tp: 4 });
        }
        let dpro = rng.range_u64(0, 2) == 1;
        let lumos = if dpro {
            Lumos::dpro_baseline()
        } else {
            Lumos::new()
        };
        let case = format!("{} seed {seed} {transforms:?} dpro {dpro}", base.label());
        let target = apply_transforms(&base, &transforms).unwrap();
        let replayed = lumos
            .predict_spec(&library, &plan(&base, &target), &lookup)
            .unwrap_or_else(|e| panic!("{case}: {e}"));
        quotients += usize::from(check(&lumos, replayed.graph, &case));
    }
    assert!(
        quotients >= CASES as usize / 2,
        "only {quotients} of {CASES} predictions took the quotient"
    );
}

#[test]
fn replays_match_the_reference_simulator() {
    let mut rng = TestRng::deterministic("replays_match_the_reference_simulator");
    let (mut quotients, mut clean) = (0, 0);
    for i in 0..CASES {
        let setup = tiny(
            pick(&mut rng, 1, 2),
            pick(&mut rng, 1, 2),
            pick(&mut rng, 1, 4),
            pick(&mut rng, 1, 3),
        );
        // Every other trace is jittered, so no two of its ranks match.
        let jitter = (i % 2 == 1).then(|| rng.range_u64(0, 1000));
        let trace = profile(&setup, jitter);
        let dpro = rng.range_u64(0, 2) == 1;
        let lumos = if dpro {
            Lumos::dpro_baseline()
        } else {
            Lumos::new()
        };
        let case = format!("replay of {} jitter {jitter:?} dpro {dpro}", setup.label());
        let graph = lumos.build_graph(&trace).unwrap();
        let quotient = check(&lumos, graph, &case);
        assert!(
            !(quotient && jitter.is_some()),
            "{case}: jittered ranks matched"
        );
        clean += usize::from(jitter.is_none() && setup.parallelism.world_size() > 1);
        quotients += usize::from(quotient);
    }
    assert!(
        quotients * 2 >= clean,
        "only {quotients} of {clean} zero-jitter multi-rank replays took the quotient"
    );
}
