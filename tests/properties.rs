//! Workspace-level property tests: invariants that must hold for
//! arbitrary (small) configurations, end to end.

use lumos::prelude::*;
use proptest::prelude::*;

fn setup_for(tp: u32, pp: u32, dp: u32, layers: u32, mb: u32) -> TrainingSetup {
    let model = ModelConfig::custom("prop-model", layers, 256, 1024, 4, 64);
    TrainingSetup {
        model,
        parallelism: Parallelism::new(tp, pp, dp).unwrap(),
        batch: BatchConfig {
            seq_len: 128,
            microbatch_size: 1,
            num_microbatches: mb,
        },
        schedule: ScheduleKind::OneFOneB,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any valid small deployment executes, validates, and replays
    /// exactly under zero jitter.
    #[test]
    fn zero_jitter_replay_is_exact(
        tp in 1u32..3,
        pp in 1u32..4,
        dp in 1u32..3,
        mb in 1u32..5,
    ) {
        // Layers divisible by pp; heads (4) divisible by tp.
        let layers = pp * 2;
        let setup = setup_for(tp, pp, dp, layers, mb);
        let cluster = GroundTruthCluster::new(&setup, AnalyticalCostModel::h100()).unwrap();
        let out = cluster.profile_iteration(0).unwrap();
        out.trace.validate().unwrap();
        let replayed = Lumos::new().replay(&out.trace).unwrap();
        let err = replayed.makespan().relative_error(out.makespan);
        prop_assert!(err < 0.001, "replay error {err} for {}", setup.label());
    }

    /// The dPRO baseline never predicts slower than Lumos (it only
    /// removes constraints).
    #[test]
    fn dpro_is_a_relaxation(
        tp in 1u32..3,
        dp in 1u32..3,
        mb in 1u32..4,
    ) {
        let setup = setup_for(tp, 1, dp, 2, mb);
        let cluster = GroundTruthCluster::new(&setup, AnalyticalCostModel::h100()).unwrap();
        let out = cluster.profile_iteration(0).unwrap();
        let lumos = Lumos::new().replay(&out.trace).unwrap();
        let dpro = Dpro::new().replay(&out.trace).unwrap();
        prop_assert!(dpro.makespan() <= lumos.makespan());
    }

    /// Identity prediction (no transforms) reproduces the base
    /// configuration's timing within tolerance.
    #[test]
    fn identity_prediction_stable(
        pp in 1u32..3,
        dp in 1u32..3,
    ) {
        let setup = setup_for(1, pp, dp, pp * 2, 2 * pp);
        let cluster = GroundTruthCluster::new(&setup, AnalyticalCostModel::h100()).unwrap();
        let out = cluster.profile_iteration(0).unwrap();
        let prediction = Lumos::new()
            .predict(&out.trace, &setup, &[], AnalyticalCostModel::h100())
            .unwrap();
        // The reassembled trace behind the prediction is itself valid.
        let spec = manipulate::plan(&setup, &prediction.setup);
        let lookup = LookupCostModel::fit_from_trace(&out.trace, AnalyticalCostModel::h100(), 8);
        manipulate::reassemble(&out.trace, &spec, &lookup)
            .unwrap()
            .validate()
            .unwrap();
        let err = prediction.makespan().relative_error(out.makespan);
        prop_assert!(err < 0.06, "identity prediction error {err} for {}", setup.label());
    }

    /// Scaling every kernel duration by a factor scales no task's
    /// simulated span below the host-bound floor, and the makespan is
    /// monotone in the factor.
    #[test]
    fn whatif_scaling_is_monotone(factor_pct in 25u32..100) {
        let setup = setup_for(1, 1, 1, 2, 2);
        let cluster = GroundTruthCluster::new(&setup, AnalyticalCostModel::h100()).unwrap();
        let out = cluster.profile_iteration(0).unwrap();
        let lumos = Lumos::new();
        let baseline = lumos.replay(&out.trace).unwrap().makespan();
        let mut graph = lumos.build_graph(&out.trace).unwrap();
        lumos::core::manipulate::whatif::try_scale_tasks(
            &mut graph,
            factor_pct as f64 / 100.0,
            |t| matches!(t.kind, lumos::core::TaskKind::Kernel(_)),
        )
        .unwrap();
        let scaled = lumos::core::simulate(&graph, &SimOptions::default())
            .unwrap()
            .makespan();
        prop_assert!(scaled <= baseline);
    }
}
