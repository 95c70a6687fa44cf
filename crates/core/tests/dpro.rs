//! The dPRO baseline (Hu et al., MLSys 2022): the Lumos pipeline
//! without event-based inter-stream fences, which the paper shows is
//! systematically optimistic about overlap (§4.2).

use lumos_cluster::{GroundTruthCluster, SimConfig};
use lumos_core::Lumos;
use lumos_cost::AnalyticalCostModel;
use lumos_model::{BatchConfig, ModelConfig, Parallelism, ScheduleKind};
use lumos_trace::BreakdownExt;

/// Compute-heavy setup with TP + DP so inter-stream fences matter.
fn overlapping_setup() -> SimConfig {
    SimConfig {
        model: ModelConfig::custom("dpro-test", 2, 2048, 8192, 16, 128),
        parallelism: Parallelism::new(2, 1, 2).unwrap(),
        batch: BatchConfig {
            seq_len: 2048,
            microbatch_size: 1,
            num_microbatches: 2,
        },
        schedule: ScheduleKind::OneFOneB,
    }
}

#[test]
fn baseline_drops_interstream_edges_only() {
    let cfg = overlapping_setup();
    let truth = GroundTruthCluster::new(&cfg, AnalyticalCostModel::h100())
        .unwrap()
        .profile_iteration(0)
        .unwrap();
    let lumos_graph = Lumos::new().build_graph(&truth.trace).unwrap();
    let dpro_graph = Lumos::dpro_baseline().build_graph(&truth.trace).unwrap();
    let (ls, ds) = (lumos_graph.stats(), dpro_graph.stats());
    // dPRO loses the producer-side fences (roughly half the event
    // edges: each fenced collective has a producer and a consumer
    // fence).
    assert!(ds.inter_stream < ls.inter_stream);
    assert!(ls.inter_stream > 0);
    // Everything else identical.
    assert_eq!(ls.tasks, ds.tasks);
    assert_eq!(ls.intra_thread, ds.intra_thread);
    assert_eq!(ls.inter_thread, ds.inter_thread);
    assert_eq!(ls.kernel_launch, ds.kernel_launch);
    assert_eq!(ls.intra_stream, ds.intra_stream);
    assert_eq!(ls.collective_instances, ds.collective_instances);
}

#[test]
fn dpro_is_systematically_optimistic() {
    let cfg = overlapping_setup();
    let truth = GroundTruthCluster::new(&cfg, AnalyticalCostModel::h100())
        .unwrap()
        .profile_iteration(0)
        .unwrap();
    let dpro = Lumos::dpro_baseline().replay(&truth.trace).unwrap();
    let lumos = Lumos::new().replay(&truth.trace).unwrap();
    assert!(
        dpro.makespan() < truth.makespan,
        "dpro {} !< truth {}",
        dpro.makespan(),
        truth.makespan
    );
    assert!(dpro.makespan() <= lumos.makespan());
}

#[test]
fn dpro_overestimates_overlap() {
    // The paper's Figure 1/5 diagnosis: overlapped time inflated,
    // exposed communication deflated.
    let cfg = overlapping_setup();
    let truth = GroundTruthCluster::new(&cfg, AnalyticalCostModel::h100())
        .unwrap()
        .profile_iteration(0)
        .unwrap();
    let actual = truth.trace.breakdown();
    let dpro = Lumos::dpro_baseline()
        .replay(&truth.trace)
        .unwrap()
        .breakdown();
    assert!(
        dpro.overlapped >= actual.overlapped,
        "dpro overlap {} !>= actual {}",
        dpro.overlapped,
        actual.overlapped
    );
    assert!(
        dpro.exposed_comm <= actual.exposed_comm,
        "dpro exposed comm {} !<= actual {}",
        dpro.exposed_comm,
        actual.exposed_comm
    );
}
