//! Differential test of the estimate path: reassembling a prediction
//! straight into the execution graph (`Lumos::predict_spec`) must give
//! the graph that `build_graph` derives from the reassembled trace, and
//! the same makespan, breakdown and pipeline-communication time as the
//! simulated trace — bit for bit.

use lumos::core::manipulate::{apply_transforms, plan, reassemble_with_library, BlockLibrary};
use lumos::core::{build_graph, simulate, ExecutionGraph, Replayed};
use lumos::prelude::*;
use lumos::trace::{CollectiveKind, EventKind, KernelClass};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn base_setup(tp: u32, pp: u32, dp: u32, microbatches: u32) -> TrainingSetup {
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

/// A jittered profile of `base`, calibrated the way `lumos calibrate`
/// does it.
fn calibrate(
    base: &TrainingSetup,
    seed: u64,
) -> (BlockLibrary, LookupCostModel<AnalyticalCostModel>) {
    let trace = GroundTruthCluster::new(base, AnalyticalCostModel::h100())
        .unwrap()
        .with_jitter(JitterModel::realistic(seed))
        .profile_iteration(0)
        .unwrap()
        .trace;
    let library = BlockLibrary::extract(&trace, base.parallelism).unwrap();
    let lookup = LookupCostModel::fit_from_trace(&trace, AnalyticalCostModel::h100(), 8);
    (library, lookup)
}

/// Everything the simulator reads about a task except its id.
fn task_keys(graph: &ExecutionGraph) -> Vec<String> {
    graph
        .tasks()
        .iter()
        .map(|t| {
            format!(
                "{} {:?} {} {} {} {} {:?}",
                graph.processor(t.processor),
                t.kind,
                t.name,
                t.duration.as_ns(),
                t.orig_start.as_ns(),
                t.correlation,
                t.tag
            )
        })
        .collect()
}

fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort();
    v
}

/// A graph as id-free multisets: tasks, edges with their kinds, and
/// collective membership.
#[derive(Debug, PartialEq)]
struct Shape {
    tasks: Vec<String>,
    edges: Vec<(String, String, String)>,
    collectives: BTreeMap<(u64, u32), Vec<String>>,
    groups: BTreeMap<u64, Vec<u32>>,
}

fn shape(graph: &ExecutionGraph) -> Shape {
    let keys = task_keys(graph);
    let mut edges = Vec::new();
    for (from, key) in keys.iter().enumerate() {
        for e in graph.successors(from as u32) {
            edges.push((
                key.clone(),
                keys[e.to as usize].clone(),
                format!("{:?}", e.kind),
            ));
        }
    }
    let collectives = graph
        .collectives()
        .iter()
        .map(|(&k, members)| {
            let members = members.iter().map(|&m| keys[m as usize].clone()).collect();
            (k, sorted(members))
        })
        .collect();
    let groups = graph
        .groups()
        .map(|(g, ranks)| (g, sorted(ranks.iter().map(|r| r.0).collect())))
        .collect();
    Shape {
        tasks: sorted(keys),
        edges: sorted(edges),
        collectives,
        groups,
    }
}

/// Mean per-rank SendRecv kernel time of a trace, walking its events.
fn pipeline_comm_of_trace(trace: &ClusterTrace) -> f64 {
    let total_ns: u128 = trace
        .ranks()
        .iter()
        .flat_map(|r| r.kernels())
        .filter_map(|e| match e.kind {
            EventKind::Kernel {
                class: KernelClass::Collective(meta),
                ..
            } if meta.kind == CollectiveKind::SendRecv => Some(e.dur.as_ns() as u128),
            _ => None,
        })
        .sum();
    total_ns as f64 / 1e9 / trace.world_size().max(1) as f64
}

/// Checks the direct path against the trace round trip for one
/// target; `Err` describes the first difference.
fn check(
    lumos: &Lumos,
    base: &TrainingSetup,
    library: &BlockLibrary,
    lookup: &LookupCostModel<AnalyticalCostModel>,
    transforms: &[Transform],
) -> Result<(), TestCaseError> {
    let Ok(target) = apply_transforms(base, transforms) else {
        return Ok(());
    };
    let spec = plan(base, &target);
    let direct = lumos.predict_spec(library, &spec, lookup);
    // The reference: trace sink, then the trace-reading builder with
    // input validation on.
    prop_assert!(lumos.build.validate_input);
    let reference = reassemble_with_library(library, &spec, lookup)
        .and_then(|trace| Ok((build_graph(&trace, &lumos.build)?, trace.label)));
    let (direct, (graph, label)): (Replayed, _) = match (direct, reference) {
        (Ok(d), Ok(r)) => (d, r),
        (Err(a), Err(b)) => {
            prop_assert_eq!(a.to_string(), b.to_string());
            return Ok(());
        }
        (a, b) => {
            return Err(TestCaseError::fail(format!(
                "paths diverged on {transforms:?}: {:?} vs {:?}",
                a.err(),
                b.err()
            )))
        }
    };
    prop_assert_eq!(
        shape(&direct.graph),
        shape(&graph),
        "graph of {:?}",
        transforms
    );

    let result = simulate(&graph, &lumos.sim).unwrap();
    let simulated = result.to_trace(&graph, &label);
    prop_assert_eq!(direct.makespan(), result.makespan());
    prop_assert_eq!(direct.makespan(), simulated.makespan());
    prop_assert_eq!(direct.breakdown(), simulated.breakdown());
    prop_assert_eq!(direct.breakdown(), direct.trace().breakdown());
    prop_assert_eq!(
        direct.pipeline_comm_secs_per_rank().to_bits(),
        pipeline_comm_of_trace(&simulated).to_bits()
    );
    prop_assert_eq!(&direct.label, &label);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn direct_graph_equals_graph_of_reassembled_trace(
        (tp, pp, dp) in (1u32..3, 1u32..3, 1u32..3),
        base_microbatches in 1u32..4,
        seed in 0u64..1000,
        (new_dp, new_pp, wider_tp) in (1u32..4, 1u32..3, prop::bool::ANY),
        (layers, microbatches) in (prop_oneof![Just(2u32), Just(4)], 1u32..5),
        (hidden, longer) in (prop::bool::ANY, prop::bool::ANY),
        dpro in prop::bool::ANY,
    ) {
        let base = base_setup(tp, pp, dp, base_microbatches);
        let (library, lookup) = calibrate(&base, seed);
        let mut transforms = vec![
            Transform::DataParallel { dp: new_dp },
            Transform::PipelineParallel { pp: new_pp },
            Transform::NumLayers { layers },
            Transform::Microbatches { num: microbatches },
        ];
        // TP rescales keep the collective structure (tp > 1 only).
        if tp > 1 && wider_tp {
            transforms.push(Transform::TensorParallel { tp: 2 * tp });
        }
        if hidden {
            transforms.push(Transform::HiddenSize { hidden: 512, ffn: 2048 });
        }
        if longer {
            transforms.push(Transform::SeqLen { seq_len: 256 });
        }
        let lumos = if dpro { Lumos::dpro_baseline() } else { Lumos::new() };
        check(&lumos, &base, &library, &lookup, &transforms)?;
    }
}

#[test]
fn dpro_baseline_direct_graph_equals_graph_of_reassembled_trace() {
    let base = base_setup(2, 2, 1, 2);
    let (library, lookup) = calibrate(&base, 7);
    let transforms = [
        Transform::DataParallel { dp: 2 },
        Transform::Microbatches { num: 4 },
    ];
    check(
        &Lumos::dpro_baseline(),
        &base,
        &library,
        &lookup,
        &transforms,
    )
    .unwrap();
}
