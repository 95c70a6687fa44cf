//! Schedule integration: every policy works end to end (zb-h1 lowers,
//! verifies, simulates, and searches), 1F1B/GPipe keep their legacy
//! labels and wire names, and every `ScheduleKind` simulates the
//! fixture to pinned numbers.

use lumos::cluster::{lower, verify};
use lumos::prelude::*;

/// The sweep-style fixture: four stages, eight micro-batches —
/// enough pipeline depth for the schedules to separate.
fn fixture(schedule: ScheduleKind) -> TrainingSetup {
    let model = ModelConfig::custom("sched-e2e", 8, 256, 1024, 4, 64);
    let mut setup = TrainingSetup::new(model, Parallelism::new(1, 4, 1).unwrap());
    setup.batch = BatchConfig {
        seq_len: 128,
        microbatch_size: 1,
        num_microbatches: 8,
    };
    setup.schedule = schedule;
    setup
}

/// Deterministic (zero-jitter) ground-truth profile.
fn profiled(setup: &TrainingSetup) -> (ClusterTrace, Dur) {
    let out = GroundTruthCluster::new(setup, AnalyticalCostModel::h100())
        .unwrap()
        .profile_iteration(0)
        .unwrap();
    (out.trace, out.makespan)
}

/// The non-compute/non-comm share of the simulated iteration (host
/// gaps + pipeline bubbles).
fn bubble_share(trace: &ClusterTrace) -> f64 {
    let b = trace.breakdown();
    b.other.as_secs_f64() / b.total().as_secs_f64()
}

#[test]
fn zb_h1_lowers_verifies_and_beats_1f1b_in_simulation() {
    let zb = fixture(ScheduleKind::ZbH1);
    let f1b = fixture(ScheduleKind::OneFOneB);

    // The lowered multi-rank program is statically deadlock-free.
    verify(&lower(&zb).unwrap()).unwrap();

    // Engine-simulated: splitting backward lets weight-grad work fill
    // cooldown bubbles, so the same workload finishes sooner.
    let (zb_trace, zb_time) = profiled(&zb);
    let (f1b_trace, f1b_time) = profiled(&f1b);
    zb_trace.validate().unwrap();
    f1b_trace.validate().unwrap();
    assert!(
        zb_time < f1b_time,
        "zb-h1 {zb_time:?} should beat 1f1b {f1b_time:?}"
    );

    // The simulated bubble share shrinks under zb-h1.
    assert!(
        bubble_share(&zb_trace) < bubble_share(&f1b_trace),
        "zb-h1 bubble share {} should be below 1f1b {}",
        bubble_share(&zb_trace),
        bubble_share(&f1b_trace)
    );

    // And the analytic model agrees: (p-1)/(3m+p-1) < (p-1)/(m+p-1).
    assert!(
        ScheduleKind::ZbH1.analytic_bubble(4, 8) < ScheduleKind::OneFOneB.analytic_bubble(4, 8)
    );
}

#[test]
fn registered_schedules_simulate_the_fixture_to_pinned_numbers() {
    // Zero jitter, so every number is deterministic; floats are
    // compared at six decimals. `(name, makespan ns, simulated bubble
    // share, analytic bubble at pp=4, m=8)`.
    let pinned = [
        ("1f1b", 5_799_189, "0.522969", "0.272727"),
        ("gpipe", 6_603_279, "0.574460", "0.272727"),
        ("zb-h1", 5_448_493, "0.493153", "0.111111"),
    ];
    let names = ScheduleKind::ALL.map(|s| s.name());
    assert_eq!(names, pinned.map(|p| p.0));
    for (schedule, (name, makespan_ns, share, analytic)) in
        ScheduleKind::ALL.into_iter().zip(pinned)
    {
        let setup = fixture(schedule);
        verify(&lower(&setup).unwrap())
            .unwrap_or_else(|e| panic!("{name} failed static verification: {e}"));
        let (trace, time) = profiled(&setup);
        assert_eq!(time.as_ns(), makespan_ns, "{name} makespan");
        assert_eq!(
            format!("{:.6}", bubble_share(&trace)),
            share,
            "{name} bubble share"
        );
        assert_eq!(
            format!("{:.6}", schedule.analytic_bubble(4, 8)),
            analytic,
            "{name} analytic bubble"
        );
    }
    // Interleaved 1F1B (v=2) is priced through 1F1B's virtual-stage
    // adjustment hook.
    let interleaved = ScheduleKind::OneFOneB
        .engine_adjustment(4, 8, 2)
        .expect("1f1b carries the interleaved adjustment at v=2")
        .target_bubble;
    assert_eq!(format!("{interleaved:.6}"), "0.157895");
}

#[test]
fn schedule_axis_searches_and_ranks_zb_h1_ahead() {
    let base = fixture(ScheduleKind::OneFOneB);
    let (trace, _) = profiled(&base);
    let spec = SpaceSpec::empty().with_schedules(&[ScheduleKind::OneFOneB, ScheduleKind::ZbH1]);
    let opts = SearchOptions {
        refine_sim: true,
        verify: true,
        ..SearchOptions::default()
    };
    let report = search_space(&trace, &base, &spec, &opts, AnalyticalCostModel::h100()).unwrap();

    let find = |needle: &str| {
        report
            .results
            .iter()
            .find(|r| r.label.contains(needle))
            .unwrap_or_else(|| panic!("no result labeled {needle}"))
    };
    let zb = find("s=zb-h1");
    let f1b = find("s=1f1b");
    assert!(zb.bubble_fraction < f1b.bubble_fraction);
    assert!(zb.makespan < f1b.makespan);

    // The refinement phase lowered both natively and simulated them.
    let refined = report.refined.as_ref().unwrap();
    let refined_find = |needle: &str| {
        refined
            .iter()
            .find(|r| r.label.contains(needle))
            .unwrap_or_else(|| panic!("no refined finalist labeled {needle}"))
    };
    assert!(refined_find("s=zb-h1").simulated_makespan < refined_find("s=1f1b").simulated_makespan);
}

#[test]
fn default_space_reports_stay_schedule_suffix_free_and_deterministic() {
    // Spaces that never name a schedule axis keep their axis-free
    // labels and rank deterministically.
    let base = fixture(ScheduleKind::OneFOneB);
    let (trace, _) = profiled(&base);
    let spec = SpaceSpec::deployment_grid(&[1], &[2, 4], &[1]).with_microbatches(&[4, 8]);
    let opts = SearchOptions::default();
    let a = search_space(&trace, &base, &spec, &opts, AnalyticalCostModel::h100()).unwrap();
    let b = search_space(&trace, &base, &spec, &opts, AnalyticalCostModel::h100()).unwrap();
    assert_eq!(a.format_top(10), b.format_top(10));
    assert!(
        !a.format_top(10).contains(" s="),
        "default spaces must not grow schedule suffixes"
    );
}

#[test]
fn explicit_1f1b_axis_matches_default_numbers() {
    // A singleton `schedules = ["1f1b"]` axis prices every candidate
    // identically to the axis-free default — only the label gains the
    // disambiguating suffix.
    let base = fixture(ScheduleKind::OneFOneB);
    let (trace, _) = profiled(&base);
    let spec = SpaceSpec::deployment_grid(&[1], &[2, 4], &[1]).with_microbatches(&[4, 8]);
    let spec_axis = spec.clone().with_schedules(&[ScheduleKind::OneFOneB]);
    let opts = SearchOptions::default();
    let a = search_space(&trace, &base, &spec, &opts, AnalyticalCostModel::h100()).unwrap();
    let b = search_space(
        &trace,
        &base,
        &spec_axis,
        &opts,
        AnalyticalCostModel::h100(),
    )
    .unwrap();
    assert_eq!(a.results.len(), b.results.len());
    for (x, y) in a.results.iter().zip(&b.results) {
        assert_eq!(x.candidate, y.candidate);
        assert_eq!(x.makespan, y.makespan);
        assert_eq!(x.bubble_fraction.to_bits(), y.bubble_fraction.to_bits());
        assert_eq!(y.label, format!("{} s=1f1b", x.label));
    }
}

#[test]
fn gpipe_stays_byte_identical_through_the_registry() {
    // GPipe simulates to a valid trace and keeps its wire name, as
    // 1F1B does.
    let setup = fixture(ScheduleKind::GPipe);
    let (trace, time) = profiled(&setup);
    trace.validate().unwrap();
    assert!(time > Dur::ZERO);
    assert_eq!(
        serde_json::to_string(&ScheduleKind::GPipe).unwrap(),
        "\"GPipe\""
    );
    assert_eq!(
        serde_json::to_string(&ScheduleKind::OneFOneB).unwrap(),
        "\"OneFOneB\""
    );
    // ZB-H1 serializes under its name.
    assert_eq!(
        serde_json::to_string(&ScheduleKind::ZbH1).unwrap(),
        "\"zb-h1\""
    );
}
