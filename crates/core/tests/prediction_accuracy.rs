//! Prediction accuracy: manipulating a profiled trace must predict
//! the performance of configurations that were never profiled.
//!
//! For each transform, we (1) profile a *base* configuration on the
//! ground-truth engine, (2) predict the target configuration from the
//! base trace via graph manipulation, and (3) compare against a fresh
//! ground-truth run of the target configuration — exactly the paper's
//! §4.3 methodology (Figures 7 and 8).

use lumos_cluster::{GroundTruthCluster, SimConfig};
use lumos_core::manipulate::{plan, reassemble_with_library, BlockLibrary, Transform};
use lumos_core::Lumos;
use lumos_cost::{AnalyticalCostModel, LookupCostModel};
use lumos_model::{BatchConfig, ModelConfig, Parallelism, ScheduleKind};
use lumos_trace::Dur;

/// A compute-heavy small model so kernel time dominates host noise.
fn base_model() -> ModelConfig {
    ModelConfig::custom("pred-test", 4, 1024, 4096, 8, 128)
}

fn base_setup(tp: u32, pp: u32, dp: u32, mb: u32) -> SimConfig {
    SimConfig {
        model: base_model(),
        parallelism: Parallelism::new(tp, pp, dp).unwrap(),
        batch: BatchConfig {
            seq_len: 1024,
            microbatch_size: 1,
            num_microbatches: mb,
        },
        schedule: ScheduleKind::OneFOneB,
    }
}

fn ground_truth(cfg: &SimConfig) -> (lumos_trace::ClusterTrace, Dur) {
    let cluster = GroundTruthCluster::new(cfg, AnalyticalCostModel::h100()).unwrap();
    let out = cluster.profile_iteration(0).unwrap();
    (out.trace, out.makespan)
}

/// Predicts `transforms` from `base` and returns (predicted, actual)
/// iteration times, where actual comes from a fresh ground-truth run
/// of the target configuration.
fn predict_vs_actual(base: &SimConfig, transforms: &[Transform]) -> (Dur, Dur) {
    let (trace, _) = ground_truth(base);
    let lumos = Lumos::new();
    let prediction = lumos
        .predict(&trace, base, transforms, AnalyticalCostModel::h100())
        .unwrap();
    let (_, actual) = ground_truth(&prediction.setup);
    (prediction.makespan(), actual)
}

fn assert_close(predicted: Dur, actual: Dur, tolerance: f64, what: &str) {
    let err = predicted.relative_error(actual);
    assert!(
        err < tolerance,
        "{what}: predicted {predicted} vs actual {actual} (err {:.1}%)",
        err * 100.0
    );
}

#[test]
fn identity_prediction_matches_replay() {
    // No transforms: the reassembled trace must predict the base
    // configuration itself.
    let base = base_setup(1, 2, 1, 4);
    let (trace, actual) = ground_truth(&base);
    let lumos = Lumos::new();
    let prediction = lumos
        .predict(&trace, &base, &[], AnalyticalCostModel::h100())
        .unwrap();
    assert_close(prediction.makespan(), actual, 0.05, "identity");
}

#[test]
fn dp_scaling_prediction() {
    // Figure 7a: scale DP 2 -> 4.
    let base = base_setup(1, 1, 2, 2);
    let (predicted, actual) = predict_vs_actual(&base, &[Transform::DataParallel { dp: 4 }]);
    assert_close(predicted, actual, 0.08, "dp 2->4");
}

#[test]
fn pp_scaling_prediction() {
    // Figure 7b: scale PP 2 -> 4 (micro-batches kept).
    let base = base_setup(1, 2, 1, 4);
    let (predicted, actual) = predict_vs_actual(&base, &[Transform::PipelineParallel { pp: 4 }]);
    assert_close(predicted, actual, 0.08, "pp 2->4");
}

#[test]
fn simultaneous_dp_pp_prediction() {
    // Figure 7c: scale both.
    let base = base_setup(1, 2, 2, 4);
    let (predicted, actual) = predict_vs_actual(
        &base,
        &[
            Transform::PipelineParallel { pp: 4 },
            Transform::DataParallel { dp: 4 },
        ],
    );
    assert_close(predicted, actual, 0.10, "pp 2->4 + dp 2->4");
}

#[test]
fn layer_count_prediction() {
    // Figure 8 V1/V2: more layers.
    let base = base_setup(1, 2, 1, 4);
    let (predicted, actual) = predict_vs_actual(&base, &[Transform::NumLayers { layers: 8 }]);
    assert_close(predicted, actual, 0.08, "4 -> 8 layers");
}

#[test]
fn hidden_size_prediction() {
    // Figure 8 V3/V4: wider model; shape-sensitive kernels re-priced.
    let base = base_setup(1, 2, 1, 4);
    let (predicted, actual) = predict_vs_actual(
        &base,
        &[Transform::HiddenSize {
            hidden: 2048,
            ffn: 8192,
        }],
    );
    assert_close(predicted, actual, 0.10, "hidden 1024 -> 2048");
}

#[test]
fn tp_preserving_prediction_with_tensor_parallel_base() {
    // TP stays fixed but the base uses it: TP all-reduce blocks must
    // remap groups/seqs correctly across the new stages.
    let base = base_setup(2, 2, 1, 4);
    let (predicted, actual) = predict_vs_actual(&base, &[Transform::PipelineParallel { pp: 4 }]);
    assert_close(predicted, actual, 0.08, "tp=2 base, pp 2->4");
}

#[test]
fn predicted_trace_is_structurally_valid() {
    let base = base_setup(2, 2, 2, 4);
    let (trace, _) = ground_truth(&base);
    let lumos = Lumos::new();
    let prediction = lumos
        .predict(
            &trace,
            &base,
            &[Transform::DataParallel { dp: 4 }],
            AnalyticalCostModel::h100(),
        )
        .unwrap();
    // The reassembled trace behind the prediction.
    let lookup = LookupCostModel::fit_from_trace(&trace, AnalyticalCostModel::h100(), 8);
    let library = BlockLibrary::extract(&trace, base.parallelism).unwrap();
    let predicted =
        reassemble_with_library(&library, &plan(&base, &prediction.setup), &lookup).unwrap();
    predicted.validate().unwrap();
    assert_eq!(
        predicted.world_size(),
        prediction.setup.parallelism.world_size() as usize
    );
    // Predicted trace can itself be re-manipulated (round-trip).
    let second = lumos
        .predict(
            &predicted,
            &prediction.setup,
            &[Transform::DataParallel { dp: 2 }],
            AnalyticalCostModel::h100(),
        )
        .unwrap();
    assert!(second.makespan() > Dur::ZERO);
}
