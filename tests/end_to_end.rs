//! Workspace-level integration tests exercising the public facade the
//! way a downstream user would: trace I/O, replay, prediction,
//! baseline comparison, and analytics all composed together.

use lumos::prelude::*;

fn small_setup() -> TrainingSetup {
    let model = ModelConfig::custom("e2e-model", 4, 1024, 4096, 8, 128);
    TrainingSetup::new(model, Parallelism::new(2, 2, 1).unwrap())
}

fn profiled_trace(setup: &TrainingSetup, seed: u64) -> (ClusterTrace, Dur) {
    let cluster = GroundTruthCluster::new(setup, AnalyticalCostModel::h100())
        .unwrap()
        .with_jitter(JitterModel::realistic(seed));
    let out = cluster.profile_iteration(0).unwrap();
    (out.trace, out.makespan)
}

#[test]
fn replay_round_trips_through_chrome_json() {
    // Kineto-format export/import must preserve replay results
    // exactly: a user can archive traces as JSON and replay later.
    let setup = small_setup();
    let (trace, _) = profiled_trace(&setup, 1);
    let direct = Lumos::new().replay(&trace).unwrap();

    let json = lumos::trace::to_chrome_json(&trace, &Default::default());
    let parsed = lumos::trace::from_chrome_json(&json).unwrap();
    let via_json = Lumos::new().replay(&parsed).unwrap();

    assert_eq!(direct.makespan(), via_json.makespan());
    assert_eq!(direct.breakdown(), via_json.breakdown());
}

#[test]
fn full_paper_loop_on_one_trace() {
    // Profile -> replay -> dPRO compare -> predict 2x DP -> validate.
    let setup = small_setup();
    let (trace, actual) = profiled_trace(&setup, 2);

    let lumos = Lumos::new();
    let replayed = lumos.replay(&trace).unwrap();
    assert!(
        replayed.makespan().relative_error(actual) < 0.02,
        "same-iteration replay should be tight"
    );

    let dpro = Lumos::dpro_baseline().replay(&trace).unwrap();
    assert!(dpro.makespan() <= replayed.makespan());

    let prediction = lumos
        .predict(
            &trace,
            &setup,
            &[Transform::DataParallel { dp: 2 }],
            AnalyticalCostModel::h100(),
        )
        .unwrap();
    let mut target = setup.clone();
    target.parallelism = Parallelism::new(2, 2, 2).unwrap();
    let (_, target_actual) = profiled_trace(&target, 3);
    let err = prediction.makespan().relative_error(target_actual);
    assert!(err < 0.12, "dp prediction error {err}");
}

#[test]
fn breakdown_components_sum_to_makespan() {
    let setup = small_setup();
    let (trace, _) = profiled_trace(&setup, 4);
    let b = trace.breakdown();
    // Component sum equals the analysis window (the cluster span), up
    // to one nanosecond of integer rounding per averaged component.
    let diff = trace.makespan().saturating_sub(b.total());
    assert!(diff <= Dur(4), "breakdown total off by {diff}");
    // A TP+PP job must expose some communication and some overlap-free
    // compute.
    assert!(b.exposed_compute > Dur::ZERO);
    assert!(b.exposed_comm > Dur::ZERO);
}

#[test]
fn deterministic_end_to_end() {
    let setup = small_setup();
    let (t1, m1) = profiled_trace(&setup, 9);
    let (t2, m2) = profiled_trace(&setup, 9);
    assert_eq!(m1, m2);
    assert_eq!(t1.total_events(), t2.total_events());
    let r1 = Lumos::new().replay(&t1).unwrap();
    let r2 = Lumos::new().replay(&t2).unwrap();
    assert_eq!(r1.makespan(), r2.makespan());
}

#[test]
fn schedule_policies_differ_as_expected() {
    // GPipe holds more activations in flight and (with these sizes)
    // the same bubble fraction; both must execute and validate.
    let mut gpipe_setup = small_setup();
    gpipe_setup.schedule = ScheduleKind::GPipe;
    let (gpipe_trace, gpipe_time) = profiled_trace(&gpipe_setup, 5);
    let (f1b_trace, f1b_time) = profiled_trace(&small_setup(), 5);
    gpipe_trace.validate().unwrap();
    f1b_trace.validate().unwrap();
    assert!(gpipe_time > Dur::ZERO && f1b_time > Dur::ZERO);
}

#[test]
fn what_if_kernel_speedups_bounded_by_amdahl() {
    let setup = small_setup();
    let (trace, _) = profiled_trace(&setup, 6);
    let lumos = Lumos::new();
    let baseline = lumos.replay(&trace).unwrap().makespan();

    let mut graph = lumos.build_graph(&trace).unwrap();
    let touched = lumos::core::manipulate::whatif::try_scale_gemms(&mut graph, 0.5).unwrap();
    assert!(touched > 0);
    let sim = lumos::core::simulate(&graph, &SimOptions::default()).unwrap();
    // Faster GEMMs help, but never more than 2x (Amdahl).
    assert!(sim.makespan() < baseline);
    assert!(sim.makespan() > baseline.scale(0.4));
}

#[test]
fn critical_path_spans_the_iteration() {
    let setup = small_setup();
    let (trace, _) = profiled_trace(&setup, 8);
    let replayed = Lumos::new().replay(&trace).unwrap();
    let cp = lumos::core::analysis::critical_path(&replayed.graph, &replayed.result);
    assert!(!cp.is_empty());
    let accounted = cp.compute + cp.comm + cp.host + cp.idle;
    // The path plus its gaps accounts for the full makespan.
    assert_eq!(accounted, replayed.makespan());
}

#[test]
fn predictions_compose_transforms() {
    let setup = small_setup();
    let (trace, _) = profiled_trace(&setup, 10);
    let prediction = Lumos::new()
        .predict(
            &trace,
            &setup,
            &[
                Transform::NumLayers { layers: 8 },
                Transform::DataParallel { dp: 2 },
                Transform::Microbatches { num: 6 },
            ],
            AnalyticalCostModel::h100(),
        )
        .unwrap();
    assert_eq!(prediction.setup.model.num_layers, 8);
    assert_eq!(prediction.setup.parallelism.dp, 2);
    assert_eq!(prediction.setup.batch.num_microbatches, 6);
    let predicted = prediction.replayed.trace();
    predicted.validate().unwrap();
    // The predicted trace world matches the target deployment.
    assert_eq!(
        predicted.world_size(),
        prediction.setup.parallelism.world_size() as usize
    );
}
