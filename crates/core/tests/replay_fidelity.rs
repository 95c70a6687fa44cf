//! End-to-end replay fidelity: Lumos must reproduce the ground-truth
//! engine's timing from the trace alone.
//!
//! With jitter disabled, the replay model (chains + launch edges +
//! event edges + runtime syncs + rendezvous) captures every mechanism
//! in the ground-truth engine, so replayed makespans must match to
//! sub-0.1%. With jitter enabled, replaying the profiled iteration
//! still matches that iteration tightly, while differing from other
//! iterations — the paper's replay-error structure.

use lumos_cluster::{GroundTruthCluster, JitterModel, SimConfig};
use lumos_core::Lumos;
use lumos_cost::AnalyticalCostModel;
use lumos_model::{BatchConfig, ModelConfig, Parallelism, ScheduleKind};
use lumos_trace::BreakdownExt;

fn config(tp: u32, pp: u32, dp: u32) -> SimConfig {
    SimConfig {
        model: ModelConfig::tiny(),
        parallelism: Parallelism::new(tp, pp, dp).unwrap(),
        batch: BatchConfig {
            seq_len: 256,
            microbatch_size: 1,
            num_microbatches: 2 * pp,
        },
        schedule: ScheduleKind::OneFOneB,
    }
}

fn replay_error_zero_jitter(tp: u32, pp: u32, dp: u32) -> f64 {
    let cfg = config(tp, pp, dp);
    let cluster = GroundTruthCluster::new(&cfg, AnalyticalCostModel::h100()).unwrap();
    let truth = cluster.profile_iteration(0).unwrap();
    let replayed = Lumos::new().replay(&truth.trace).unwrap();
    replayed.makespan().relative_error(truth.makespan)
}

#[test]
fn exact_replay_single_gpu() {
    let err = replay_error_zero_jitter(1, 1, 1);
    assert!(err < 0.001, "single-GPU replay error {err}");
}

#[test]
fn exact_replay_tensor_parallel() {
    let err = replay_error_zero_jitter(2, 1, 1);
    assert!(err < 0.001, "TP replay error {err}");
}

#[test]
fn exact_replay_pipeline_parallel() {
    let err = replay_error_zero_jitter(1, 2, 1);
    assert!(err < 0.001, "PP replay error {err}");
}

#[test]
fn exact_replay_data_parallel() {
    let err = replay_error_zero_jitter(1, 1, 2);
    assert!(err < 0.001, "DP replay error {err}");
}

#[test]
fn exact_replay_3d_parallel() {
    let err = replay_error_zero_jitter(2, 2, 2);
    assert!(err < 0.001, "3D replay error {err}");
}

#[test]
fn replay_of_jittered_iteration_matches_that_iteration() {
    let cfg = config(2, 2, 1);
    let cluster = GroundTruthCluster::new(&cfg, AnalyticalCostModel::h100())
        .unwrap()
        .with_jitter(JitterModel::realistic(17));
    let truth = cluster.profile_iteration(0).unwrap();
    let replayed = Lumos::new().replay(&truth.trace).unwrap();
    let err = replayed.makespan().relative_error(truth.makespan);
    // Replaying the very iteration that was profiled: tight.
    assert!(err < 0.01, "same-iteration replay error {err}");
}

#[test]
fn replayed_breakdown_matches_ground_truth() {
    let cfg = config(2, 2, 1);
    let cluster = GroundTruthCluster::new(&cfg, AnalyticalCostModel::h100()).unwrap();
    let truth = cluster.profile_iteration(0).unwrap();
    let replayed = Lumos::new().replay(&truth.trace).unwrap();
    let actual = truth.trace.breakdown();
    let simulated = replayed.trace().breakdown();
    let err = simulated.component_error(&actual);
    assert!(
        err < 0.01,
        "breakdown error {err}: actual [{actual}] vs sim [{simulated}]"
    );
}

#[test]
fn dpro_underestimates_when_overlap_matters() {
    // dPRO drops inter-stream dependencies, so communication appears
    // free to overlap: simulated time must be <= Lumos's and
    // (on DP-overlapped configs) strictly below ground truth. The
    // model must be compute-heavy — on host-dispatch-bound toys the
    // GPU dependency structure never binds.
    let mut cfg = config(2, 1, 2);
    cfg.model = ModelConfig::custom("heavy-test", 2, 4096, 16384, 32, 128);
    cfg.batch = BatchConfig {
        seq_len: 2048,
        microbatch_size: 1,
        num_microbatches: 2,
    };
    let cluster = GroundTruthCluster::new(&cfg, AnalyticalCostModel::h100()).unwrap();
    let truth = cluster.profile_iteration(0).unwrap();
    let lumos = Lumos::new().replay(&truth.trace).unwrap();
    let dpro = Lumos::dpro_baseline().replay(&truth.trace).unwrap();
    assert!(
        dpro.makespan() <= lumos.makespan(),
        "dPRO {} vs Lumos {}",
        dpro.makespan(),
        lumos.makespan()
    );
    assert!(
        dpro.makespan() < truth.makespan,
        "dPRO should be optimistic: {} vs truth {}",
        dpro.makespan(),
        truth.makespan
    );
}

#[test]
fn replayed_trace_is_valid_and_complete() {
    let cfg = config(2, 2, 2);
    let cluster = GroundTruthCluster::new(&cfg, AnalyticalCostModel::h100()).unwrap();
    let truth = cluster.profile_iteration(0).unwrap();
    let replayed = Lumos::new().replay(&truth.trace).unwrap();
    replayed.trace().validate().unwrap();
    // Kernel population must be preserved exactly.
    let count_kernels = |t: &lumos_trace::ClusterTrace| {
        t.ranks().iter().map(|r| r.kernels().count()).sum::<usize>()
    };
    assert_eq!(
        count_kernels(&truth.trace),
        count_kernels(&replayed.trace())
    );
}
