//! Differential test of the estimate path: reassembling a prediction
//! straight into the execution graph (`Lumos::predict_spec`), which
//! builds each distinct rank program once and stamps its copies, must
//! give the graph that `build_graph` derives from the reassembled
//! trace id for id, and the same makespan, breakdown and
//! pipeline-communication time as the simulated trace — bit for bit.
//! Enough cases must repeat a rank's program that the stamp is
//! exercised, and a cost model that prices each collective by its
//! members must make otherwise-equal ranks be built, not stamped.
//! Annotations never reach the graph: a profile stripped of them
//! replays to the same graph and schedule.

mod graph_diff;

use graph_diff::{first_difference, repeated_ranks};
use lumos::core::manipulate::{apply_transforms, plan, reassemble_with_library, BlockLibrary};
use lumos::core::{build_graph, simulate, Replayed};
use lumos::prelude::*;
use lumos::trace::{CollectiveKind, EventKind, KernelClass};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

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
/// target; `Err` describes the first difference. Returns how many
/// ranks of the reassembled trace repeat an earlier rank's program.
fn check<C: CostModel>(
    lumos: &Lumos,
    base: &TrainingSetup,
    library: &BlockLibrary,
    cost: &C,
    transforms: &[Transform],
) -> Result<usize, TestCaseError> {
    let Ok(target) = apply_transforms(base, transforms) else {
        return Ok(0);
    };
    let spec = plan(base, &target);
    let direct = lumos.predict_spec(library, &spec, cost);
    // The reference: trace sink, then the trace-reading builder (which
    // validates its input).
    let reference = reassemble_with_library(library, &spec, cost).and_then(|trace| {
        let graph = build_graph(&trace, &lumos.build)?;
        Ok((graph, trace))
    });
    let (direct, (graph, trace)): (Replayed, _) = match (direct, reference) {
        (Ok(d), Ok(r)) => (d, r),
        (Err(a), Err(b)) => {
            prop_assert_eq!(a.to_string(), b.to_string());
            return Ok(0);
        }
        (a, b) => {
            return Err(TestCaseError::fail(format!(
                "paths diverged on {transforms:?}: {:?} vs {:?}",
                a.err(),
                b.err()
            )))
        }
    };
    if let Some(difference) = first_difference(&direct.graph, &graph) {
        return Err(TestCaseError::fail(format!(
            "graph of {transforms:?}: {difference}"
        )));
    }

    let result = simulate(&graph, &lumos.sim).unwrap();
    let simulated = result.to_trace(&graph, &trace.label);
    prop_assert_eq!(direct.makespan(), result.makespan());
    prop_assert_eq!(direct.makespan(), simulated.makespan());
    prop_assert_eq!(direct.breakdown(), simulated.breakdown());
    prop_assert_eq!(direct.breakdown(), direct.trace().breakdown());
    prop_assert_eq!(
        direct.pipeline_comm_secs_per_rank().to_bits(),
        pipeline_comm_of_trace(&simulated).to_bits()
    );
    prop_assert_eq!(&direct.label, &trace.label);
    Ok(repeated_ranks(&trace))
}

/// Cases of the random differential test.
const CASES: u32 = 32;

#[test]
fn direct_graph_equals_graph_of_reassembled_trace() {
    let mut rng = TestRng::deterministic("direct_graph_equals_graph_of_reassembled_trace");
    let mut repeating = 0;
    for case in 1..=CASES {
        let (tp, pp, dp) = (1u32..3, 1u32..3, 1u32..3).sample(&mut rng);
        let base_microbatches = (1u32..4).sample(&mut rng);
        let seed = (0u64..1000).sample(&mut rng);
        let (new_dp, new_pp, wider_tp) = (1u32..4, 1u32..3, prop::bool::ANY).sample(&mut rng);
        let (layers, microbatches) = (prop_oneof![Just(2u32), Just(4)], 1u32..5).sample(&mut rng);
        let (hidden, longer) = (prop::bool::ANY, prop::bool::ANY).sample(&mut rng);
        let dpro = prop::bool::ANY.sample(&mut rng);

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
            transforms.push(Transform::HiddenSize {
                hidden: 512,
                ffn: 2048,
            });
        }
        if longer {
            transforms.push(Transform::SeqLen { seq_len: 256 });
        }
        let lumos = if dpro {
            Lumos::dpro_baseline()
        } else {
            Lumos::new()
        };
        let repeated = check(&lumos, &base, &library, &lookup, &transforms)
            .unwrap_or_else(|e| panic!("case {case}/{CASES} ({}, seed {seed}): {e}", base.label()));
        repeating += usize::from(repeated > 0);
    }
    // 18 of the 32 cases repeat a rank program.
    assert!(
        repeating * 2 >= CASES as usize,
        "only {repeating} of {CASES} cases repeat a rank program"
    );
}

#[test]
fn dpro_baseline_direct_graph_equals_graph_of_reassembled_trace() {
    let base = base_setup(2, 2, 1, 2);
    let (library, lookup) = calibrate(&base, 7);
    let transforms = [
        Transform::DataParallel { dp: 2 },
        Transform::Microbatches { num: 4 },
    ];
    let repeated = check(
        &Lumos::dpro_baseline(),
        &base,
        &library,
        &lookup,
        &transforms,
    )
    .unwrap();
    assert!(repeated > 0);
}

/// Prices each collective as `C` does, plus its first member's id in
/// ns: ranks that paste the same blocks then differ in the durations
/// of their pipeline transfers and embedding all-reduce.
struct MemberPriced<C>(C);

impl<C: CostModel> CostModel for MemberPriced<C> {
    fn compute_cost(&self, class: &KernelClass) -> Dur {
        self.0.compute_cost(class)
    }

    fn collective_cost(&self, kind: CollectiveKind, bytes: u64, members: &[u32]) -> Dur {
        let first = members.first().copied().map_or(0, u64::from);
        self.0.collective_cost(kind, bytes, members) + Dur(first)
    }
}

#[test]
fn ranks_that_differ_in_a_collective_duration_are_built_not_stamped() {
    let base = base_setup(1, 2, 1, 2);
    let (library, lookup) = calibrate(&base, 11);
    let transforms = [Transform::DataParallel { dp: 2 }];
    for lumos in [Lumos::new(), Lumos::dpro_baseline()] {
        // Priced by the lookup alone, the two data-parallel replicas
        // of each stage run one program.
        let repeated = check(&lumos, &base, &library, &lookup, &transforms).unwrap();
        assert_eq!(repeated, 2);
        let priced = MemberPriced(&lookup);
        let repeated = check(&lumos, &base, &library, &priced, &transforms).unwrap();
        assert_eq!(repeated, 0);
    }
}

#[test]
fn annotations_never_reach_the_graph() {
    // The tiny bases of tests/manipulation.rs, with their micro-batch
    // counts.
    let bases = [
        ((1, 1, 1), 2),
        ((2, 2, 1), 4),
        ((2, 2, 2), 4),
        ((1, 2, 2), 3),
    ];
    for ((tp, pp, dp), microbatches) in bases {
        let base = base_setup(tp, pp, dp, microbatches);
        for jitter in [JitterModel::none(), JitterModel::realistic(17)] {
            let trace = GroundTruthCluster::new(&base, AnalyticalCostModel::h100())
                .unwrap()
                .with_jitter(jitter)
                .profile_iteration(0)
                .unwrap()
                .trace;
            let mut stripped = trace.clone();
            for rank in stripped.ranks_mut() {
                rank.events_mut()
                    .retain(|e| !matches!(e.kind, EventKind::UserAnnotation { .. }));
            }
            assert!(stripped.total_events() < trace.total_events());
            for lumos in [Lumos::new(), Lumos::dpro_baseline()] {
                let case = format!("{} under {:?}", base.label(), lumos.build.interstream);
                let (a, b) = (
                    lumos.replay(&trace).unwrap(),
                    lumos.replay(&stripped).unwrap(),
                );
                if let Some(difference) = first_difference(&a.graph, &b.graph) {
                    panic!("{case}: {difference}");
                }
                assert_eq!(a.result.starts, b.result.starts, "{case}");
                assert_eq!(a.result.ends, b.result.ends, "{case}");
                assert_eq!(a.breakdown(), b.breakdown(), "{case}");
            }
        }
    }
}
