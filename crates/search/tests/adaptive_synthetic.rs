//! The adaptive engine on a space far too large to enumerate: a
//! ~3×10⁷-point synthetic grid is ranked while visiting at most 10% of
//! it, and the run replays to pinned numbers.
//!
//! Too slow for the debug suite, so `cargo test` skips this target
//! (`test = false` in `Cargo.toml`). Run it in release:
//!
//! ```console
//! $ cargo test --release -p lumos-search --test adaptive_synthetic
//! ```

use lumos_cluster::{GroundTruthCluster, JitterModel};
use lumos_cost::AnalyticalCostModel;
use lumos_model::{BatchConfig, ModelConfig, Parallelism, ScheduleKind, TrainingSetup};
use lumos_search::{search, AdaptiveOutcome, SearchOptions, SpaceSpec};

#[test]
fn synthetic_space_visits_under_ten_percent_and_replays_pinned_numbers() {
    // Profiled at tp=2 so tp>1 candidates are trace-reachable.
    let base = TrainingSetup {
        model: ModelConfig::custom("adaptive-synthetic", 8, 256, 1024, 4, 64),
        parallelism: Parallelism::new(2, 1, 1).unwrap(),
        batch: BatchConfig {
            seq_len: 128,
            microbatch_size: 1,
            num_microbatches: 4,
        },
        schedule: ScheduleKind::OneFOneB,
    };
    let trace = GroundTruthCluster::new(&base, AnalyticalCostModel::h100())
        .unwrap()
        .with_jitter(JitterModel::realistic(2025))
        .profile_iteration(0)
        .unwrap()
        .trace;
    // A huge dp axis under a tight GPU budget: the feasible region is
    // a vanishing fraction of the grid.
    let dp: Vec<u32> = (1..=8192).collect();
    let mb: Vec<u32> = (1..=16).collect();
    let v: Vec<u32> = (1..=4).collect();
    let space = SpaceSpec::deployment_grid(&[2, 4, 8], &[1, 2, 4, 8, 16, 32], &dp)
        .with_microbatches(&mb)
        .with_interleave(&v)
        .with_schedules(&[
            ScheduleKind::OneFOneB,
            ScheduleKind::GPipe,
            ScheduleKind::ZbH1,
        ])
        .with_max_gpus(128);
    let opts = SearchOptions {
        top_k: Some(10),
        adaptive: true,
        budget: Some(512),
        seed: 2025,
        ..SearchOptions::default()
    };
    let report = search(&trace, &base, &space, &opts, AnalyticalCostModel::h100()).unwrap();

    let acct = report.adaptive.expect("adaptive accounting");
    assert!(
        acct.visited.saturating_mul(10) <= acct.grid_points,
        "visited {} of {} grid points ({:.2}%), over the 10% cap",
        acct.visited,
        acct.grid_points,
        acct.visited_percent()
    );
    assert_eq!(acct.grid_points, 28_311_552);
    assert_eq!(acct.budget, 512);
    assert_eq!(acct.seed, 2025);
    assert_eq!(acct.visited, 1202);
    assert_eq!(acct.outcome, AdaptiveOutcome::Unverified);
    let top = report.results.first().expect("ranked results");
    assert_eq!(top.label, "2x1x4 m=12 s=gpipe");
    assert_eq!(top.makespan.as_ns(), 30_047_016);
}
