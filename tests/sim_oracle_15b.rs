//! The simulator against the reference simulator on the benchmark's
//! own inputs: a GPT-3 15B 2x2x1 base profiled and calibrated the way
//! perfbench's generator does it, at seeds 161 and 7919, predicted to
//! perfbench's eight `predict-replay` targets (4 to 128 GPUs) under
//! both toolkits. Starts, ends, runtime dependencies, makespan,
//! breakdown and pipeline-communication time must match bit for bit,
//! and every target above four ranks must take the quotient.
//!
//! Too slow for the debug suite, so `cargo test` skips this target
//! (`test = false` in `Cargo.toml`). Run it in release:
//!
//! ```console
//! $ cargo test --release --test sim_oracle_15b
//! ```

mod oracle;

use lumos::calib::CalibrationArtifact;
use lumos::core::manipulate::{apply_transforms, plan};
use lumos::core::{quotient_classes, Replayed};
use lumos::prelude::*;

/// perfbench's `predict-replay` targets as (tp, pp, dp, micro-batches).
const TARGETS: [(u32, u32, u32, u32); 8] = [
    (2, 2, 1, 8),
    (2, 2, 2, 4),
    (2, 4, 4, 4),
    (4, 2, 4, 4),
    (8, 8, 1, 4),
    (2, 4, 8, 4),
    (2, 8, 8, 4),
    (2, 4, 16, 4),
];

fn transforms_for(base: &TrainingSetup, (tp, pp, dp, m): (u32, u32, u32, u32)) -> Vec<Transform> {
    let mut t = Vec::new();
    if tp != base.parallelism.tp {
        t.push(Transform::TensorParallel { tp });
    }
    if pp != base.parallelism.pp {
        t.push(Transform::PipelineParallel { pp });
    }
    if dp != base.parallelism.dp {
        t.push(Transform::DataParallel { dp });
    }
    if m != base.batch.num_microbatches {
        t.push(Transform::Microbatches { num: m });
    }
    t
}

#[test]
fn benchmark_predictions_match_the_reference_simulator() {
    let base = TrainingSetup::new(ModelConfig::gpt3_15b(), Parallelism::new(2, 2, 1).unwrap());
    for seed in [161, 7919] {
        let trace = GroundTruthCluster::new(&base, AnalyticalCostModel::h100())
            .unwrap()
            .with_jitter(JitterModel::realistic(seed))
            .profile_iteration(0)
            .unwrap()
            .trace;
        let artifact = CalibrationArtifact::calibrate(&trace, &base, "h100", 8).unwrap();
        let lookup = artifact.cost_model(AnalyticalCostModel::h100());
        for lumos in [Lumos::new(), Lumos::dpro_baseline()] {
            for target in TARGETS {
                let case = format!("seed {seed} {target:?} {:?}", lumos.sim.rendezvous);
                let new =
                    apply_transforms(&artifact.setup, &transforms_for(&base, target)).unwrap();
                let ours = lumos
                    .predict_spec(&artifact.library, &plan(&artifact.setup, &new), &lookup)
                    .unwrap();
                let ranks = new.parallelism.world_size() as usize;
                let classes = quotient_classes(&ours.graph, &lumos.sim);
                assert!(
                    ranks == 4 || classes.is_some_and(|c| c < ranks),
                    "{case}: {classes:?}"
                );
                let mut result = oracle::simulate(&ours.graph, &lumos.sim).unwrap();
                result.runtime_deps.sort_unstable();
                assert!(ours.result.starts == result.starts, "{case}: starts differ");
                assert!(ours.result.ends == result.ends, "{case}: ends differ");
                assert_eq!(ours.result.runtime_deps, result.runtime_deps, "{case}");
                let reference = Replayed {
                    graph: ours.graph.clone(),
                    result,
                    label: ours.label.clone(),
                };
                assert_eq!(ours.makespan(), reference.makespan(), "{case}");
                assert_eq!(ours.breakdown(), reference.breakdown(), "{case}");
                assert_eq!(
                    ours.pipeline_comm_secs_per_rank().to_bits(),
                    reference.pipeline_comm_secs_per_rank().to_bits(),
                    "{case}"
                );
            }
        }
    }
}
