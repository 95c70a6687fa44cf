//! Cross-validation of graph manipulation (§3.4/§4.3) against the
//! ground-truth cluster: every supported transform's prediction is
//! compared with an actual profile of the target configuration, the
//! way the paper's Figures 7 and 8 validate Lumos.

use lumos::core::manipulate::{plan, reassemble_with_library, BlockLibrary};
use lumos::prelude::*;
use lumos::trace::{RankId, StreamId};
use std::collections::BTreeMap;

fn base_model() -> ModelConfig {
    ModelConfig::custom("xval-model", 4, 1024, 4096, 8, 128)
}

fn setup(tp: u32, pp: u32, dp: u32) -> TrainingSetup {
    TrainingSetup::new(base_model(), Parallelism::new(tp, pp, dp).unwrap())
}

fn profiled(setup: &TrainingSetup, seed: u64) -> (ClusterTrace, Dur) {
    let cluster = GroundTruthCluster::new(setup, AnalyticalCostModel::h100())
        .unwrap()
        .with_jitter(JitterModel::realistic(seed));
    let out = cluster.profile_iteration(0).unwrap();
    (out.trace, out.makespan)
}

/// Predicts `transforms` applied to `base`, profiles the target
/// configuration for ground truth, and returns (predicted, actual).
fn predict_vs_actual(
    base: &TrainingSetup,
    transforms: &[Transform],
    seed: u64,
) -> (Dur, Dur, TrainingSetup) {
    let (trace, _) = profiled(base, seed);
    let prediction = Lumos::new()
        .predict(&trace, base, transforms, AnalyticalCostModel::h100())
        .unwrap();
    let target = prediction.setup.clone();
    let (_, actual) = profiled(&target, seed + 1000);
    (prediction.makespan(), actual, target)
}

#[test]
fn tp_rescale_up_predicts_ground_truth() {
    // The paper's future work: tp 2 -> 4 on the same model.
    let base = setup(2, 1, 1);
    let (predicted, actual, target) =
        predict_vs_actual(&base, &[Transform::TensorParallel { tp: 4 }], 21);
    assert_eq!(target.parallelism.tp, 4);
    let err = predicted.relative_error(actual);
    assert!(err < 0.15, "tp 2->4 prediction error {err:.3}");
}

#[test]
fn tp_rescale_down_predicts_ground_truth() {
    let base = setup(4, 1, 1);
    let (predicted, actual, _) =
        predict_vs_actual(&base, &[Transform::TensorParallel { tp: 2 }], 22);
    let err = predicted.relative_error(actual);
    assert!(err < 0.15, "tp 4->2 prediction error {err:.3}");
}

#[test]
fn tp_rescale_shrinks_per_rank_compute() {
    // Doubling TP halves per-rank GEMM work; with fast intra-node
    // collectives the iteration must get faster.
    let base = setup(2, 1, 1);
    let (trace, actual_base) = profiled(&base, 23);
    let prediction = Lumos::new()
        .predict(
            &trace,
            &base,
            &[Transform::TensorParallel { tp: 4 }],
            AnalyticalCostModel::h100(),
        )
        .unwrap();
    assert!(
        prediction.makespan() < actual_base,
        "tp 4 predicted {} !< tp 2 actual {}",
        prediction.makespan(),
        actual_base
    );
}

#[test]
fn tp_one_to_many_is_rejected() {
    let base = setup(1, 1, 1);
    let (trace, _) = profiled(&base, 24);
    let err = Lumos::new()
        .predict(
            &trace,
            &base,
            &[Transform::TensorParallel { tp: 2 }],
            AnalyticalCostModel::h100(),
        )
        .unwrap_err();
    assert!(err.to_string().contains("collective structure"));
}

#[test]
fn seq_len_scaling_predicts_ground_truth() {
    let base = setup(2, 1, 1);
    for (seq, seed) in [(256u64, 31u64), (1024, 32)] {
        let (predicted, actual, target) =
            predict_vs_actual(&base, &[Transform::SeqLen { seq_len: seq }], seed);
        assert_eq!(target.batch.seq_len, seq);
        let err = predicted.relative_error(actual);
        assert!(err < 0.15, "seq {seq} prediction error {err:.3}");
    }
}

#[test]
fn longer_sequences_cost_more() {
    let base = setup(2, 1, 1); // default seq 2048
    let (trace, _) = profiled(&base, 33);
    let lumos = Lumos::new();
    let short = lumos
        .predict(
            &trace,
            &base,
            &[Transform::SeqLen { seq_len: 512 }],
            AnalyticalCostModel::h100(),
        )
        .unwrap();
    let long = lumos
        .predict(
            &trace,
            &base,
            &[Transform::SeqLen { seq_len: 4096 }],
            AnalyticalCostModel::h100(),
        )
        .unwrap();
    assert!(long.makespan() > short.makespan());
    // 8x the tokens must scale substantially, but host overheads and
    // the optimizer phase are seq-independent, so stay loose.
    let ratio = long.makespan().as_secs_f64() / short.makespan().as_secs_f64();
    assert!(ratio > 2.0, "8x seq scaled only {ratio:.2}x");
}

#[test]
fn tp_composes_with_dp_and_layers() {
    let base = setup(2, 1, 1);
    let (predicted, actual, target) = predict_vs_actual(
        &base,
        &[
            Transform::TensorParallel { tp: 4 },
            Transform::DataParallel { dp: 2 },
            Transform::NumLayers { layers: 8 },
        ],
        41,
    );
    assert_eq!(target.parallelism.tp, 4);
    assert_eq!(target.parallelism.dp, 2);
    assert_eq!(target.model.num_layers, 8);
    let err = predicted.relative_error(actual);
    assert!(err < 0.20, "composed prediction error {err:.3}");
}

#[test]
fn predicted_tp_trace_has_resharded_kernels() {
    let base = setup(2, 1, 1);
    let (trace, _) = profiled(&base, 51);
    let prediction = Lumos::new()
        .predict(
            &trace,
            &base,
            &[Transform::TensorParallel { tp: 4 }],
            AnalyticalCostModel::h100(),
        )
        .unwrap();
    // Every QKV GEMM in the predicted trace must have n = 3a/4.
    let model = base_model();
    let expect_n = 3 * model.num_heads as u64 * model.head_dim / 4;
    let mut seen = 0;
    let predicted = prediction.replayed.trace();
    for rank in predicted.ranks() {
        for e in rank.kernels() {
            if let lumos::trace::EventKind::Kernel {
                class: lumos::trace::KernelClass::Gemm { n, k, .. },
                ..
            } = e.kind
            {
                // QKV is the only k = d_model GEMM whose width is a
                // multiple of 3 (fc1's 4096/4 = 1024 is not).
                if k == model.hidden_size && n % 3 == 0 {
                    assert_eq!(n, expect_n);
                    seen += 1;
                }
            }
        }
    }
    assert!(seen > 0, "no qkv gemms found in predicted trace");
    // And the TP communicators must now span 4 ranks.
    assert_eq!(predicted.world_size(), 4);
}

#[test]
fn microbatch_scaling_predicts_ground_truth() {
    let base = setup(2, 2, 1);
    let (predicted, actual, _) =
        predict_vs_actual(&base, &[Transform::Microbatches { num: 8 }], 61);
    let err = predicted.relative_error(actual);
    assert!(err < 0.15, "microbatch prediction error {err:.3}");
}

/// Kernel counts by (rank, stream, kernel name).
fn kernel_placement(trace: &ClusterTrace) -> BTreeMap<(RankId, StreamId, String), usize> {
    let mut placement = BTreeMap::new();
    for rank in trace.ranks() {
        for k in rank.kernels() {
            let stream = k.kind.stream().expect("kernels run on a stream");
            *placement
                .entry((rank.rank(), stream, k.name.to_string()))
                .or_default() += 1;
        }
    }
    placement
}

#[test]
fn reassembly_places_kernels_where_the_ground_truth_does() {
    // The ground-truth lowering and reassembly write the same program
    // shape through the shared stream and thread ids: every kernel of
    // an identity or scale-out reassembly must run on the rank and
    // stream the target's own profile puts it on, as often.
    let cases = [
        ((1, 1, 1), 2, (1, 2, 2)),
        ((2, 2, 1), 4, (2, 1, 2)),
        ((2, 2, 2), 4, (2, 1, 4)),
        ((1, 2, 2), 3, (1, 1, 4)),
    ];
    let truth = |setup: &TrainingSetup| {
        GroundTruthCluster::new(setup, AnalyticalCostModel::h100())
            .unwrap()
            .profile_iteration(0)
            .unwrap()
            .trace
    };
    for ((tp, pp, dp), m, (to_tp, to_pp, to_dp)) in cases {
        let mut base =
            TrainingSetup::new(ModelConfig::tiny(), Parallelism::new(tp, pp, dp).unwrap());
        base.batch.num_microbatches = m;
        let trace = truth(&base);
        let library = BlockLibrary::extract(&trace, base.parallelism).unwrap();
        let lookup = LookupCostModel::fit_from_trace(&trace, AnalyticalCostModel::h100(), 8);
        let mut scaled = base.clone();
        scaled.parallelism = Parallelism::new(to_tp, to_pp, to_dp).unwrap();
        for target in [base.clone(), scaled] {
            let predicted =
                reassemble_with_library(&library, &plan(&base, &target), &lookup).unwrap();
            let (got, want) = (
                kernel_placement(&predicted),
                kernel_placement(&truth(&target)),
            );
            assert_eq!(got, want, "{} -> {}", base.label(), target.label());
        }
    }
}
