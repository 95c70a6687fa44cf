//! Sink-equivalence suite: the metrics-only engine mode must be
//! bit-identical, in every statistic it keeps, to deriving the same
//! numbers from a full trace — across world sizes, schedules, jitter
//! settings, and arbitrary small random programs.
//!
//! The engine computes one timeline; the sink only decides what is
//! materialized. These tests pin that contract:
//!
//! * makespan, pipeline-boundary SendRecv total and its per-rank mean
//!   agree exactly with the full trace for worlds of 1 / 2 / 4 / 7
//!   ranks;
//! * the equality holds under deterministic jitter, per iteration
//!   index (the jitter-replica pattern the refined search runs);
//! * property test: random single-rank host programs (kernels,
//!   event fences, stream syncs, annotations) keep the two modes in
//!   exact agreement;
//! * a metrics-only run of a prepared job is faster than the per-run
//!   full-trace `execute` the refined search used to pay.

use lumos_cluster::{
    lower, EngineMetrics, EngineOutput, GroundTruthCluster, HostOp, JitterModel, KernelSpec,
    LoweredJob, PreparedJob, Program, SimConfig,
};
use lumos_cost::{AnalyticalCostModel, HostOverheads, LookupCostModel};
use lumos_model::{BatchConfig, ModelConfig, Parallelism, ScheduleKind};
use lumos_trace::{streams, CollectiveKind, Dur, EventKind, KernelClass};
use proptest::prelude::*;
use std::hint::black_box;
use std::time::Instant;

fn config(tp: u32, pp: u32, dp: u32) -> SimConfig {
    SimConfig {
        model: ModelConfig::tiny(),
        parallelism: Parallelism::new(tp, pp, dp).unwrap(),
        batch: BatchConfig {
            seq_len: 128,
            microbatch_size: 1,
            num_microbatches: 2 * pp,
        },
        schedule: ScheduleKind::OneFOneB,
    }
}

/// Asserts every statistic of a metrics-only run matches the same
/// number derived from a full-trace run of the same job/iteration.
fn assert_equivalent(out: &EngineOutput, metrics: &EngineMetrics) {
    assert_eq!(metrics.makespan, out.makespan, "makespan");
    assert_eq!(metrics.makespan, out.trace.makespan(), "makespan of trace");

    // Pipeline-boundary SendRecv accounting: bit-identical to the
    // trace walk the search's interleave adjustment used to perform.
    let world = out.trace.world_size().max(1) as f64;
    let total_ns: u128 = out
        .trace
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
    assert_eq!(metrics.sendrecv_ns(), total_ns, "sendrecv total");
    let expected = total_ns as f64 / 1e9 / world;
    assert_eq!(
        metrics.pipeline_comm_secs_per_rank().to_bits(),
        expected.to_bits(),
        "pipeline comm secs per rank"
    );
}

fn run_both(
    job: &LoweredJob,
    jitter: &JitterModel,
    iteration: u64,
) -> (EngineOutput, EngineMetrics) {
    let cost = AnalyticalCostModel::h100();
    let oh = HostOverheads::default();
    let out = PreparedJob::new(job)
        .unwrap()
        .execute(&cost, &oh, jitter, iteration)
        .unwrap();
    let metrics = PreparedJob::new(job)
        .unwrap()
        .execute_metrics(&cost, &oh, jitter, iteration)
        .unwrap();
    (out, metrics)
}

#[test]
fn equivalent_across_world_sizes() {
    // Worlds of 1, 2, 4, and 7 ranks, exercising every coupling class:
    // single rank, TP rendezvous, PP transfers + DP gradient
    // reductions, and a wide pure-DP world.
    for (tp, pp, dp) in [(1, 1, 1), (2, 1, 1), (1, 2, 2), (1, 1, 7)] {
        let job = lower(&config(tp, pp, dp)).unwrap();
        let (out, metrics) = run_both(&job, &JitterModel::none(), 0);
        assert_eq!(
            out.trace.world_size() as u32,
            tp * pp * dp,
            "world size for tp={tp} pp={pp} dp={dp}"
        );
        assert_equivalent(&out, &metrics);
    }
}

#[test]
fn equivalent_under_jitter_per_iteration() {
    // The jitter-replica pattern: one prepared job, several iteration
    // indices, realistic variance. Every iteration must agree between
    // modes (same seeds → same multipliers → same timeline).
    let job = lower(&config(1, 2, 1)).unwrap();
    let prep = PreparedJob::new(&job).unwrap();
    let cost = AnalyticalCostModel::h100();
    let oh = HostOverheads::default();
    let jitter = JitterModel::realistic(2025);
    let mut makespans = Vec::new();
    for iteration in 0..4 {
        let out = PreparedJob::new(&job)
            .unwrap()
            .execute(&cost, &oh, &jitter, iteration)
            .unwrap();
        let metrics = prep
            .execute_metrics(&cost, &oh, &jitter, iteration)
            .unwrap();
        assert_equivalent(&out, &metrics);
        makespans.push(metrics.makespan);
    }
    // Jitter actually varies across iterations.
    assert!(makespans.windows(2).any(|w| w[0] != w[1]));
}

#[test]
fn equivalent_for_gpipe_schedule() {
    let mut cfg = config(1, 2, 1);
    cfg.schedule = ScheduleKind::GPipe;
    let job = lower(&cfg).unwrap();
    let (out, metrics) = run_both(&job, &JitterModel::none(), 0);
    assert_equivalent(&out, &metrics);
}

#[test]
fn metrics_mode_is_deterministic() {
    let job = lower(&config(2, 2, 1)).unwrap();
    let prep = PreparedJob::new(&job).unwrap();
    let cost = AnalyticalCostModel::h100();
    let oh = HostOverheads::default();
    let jitter = JitterModel::realistic(7);
    let a = prep.execute_metrics(&cost, &oh, &jitter, 3).unwrap();
    let b = prep.execute_metrics(&cost, &oh, &jitter, 3).unwrap();
    assert_eq!(a, b);
}

#[test]
fn empty_job_yields_zero_metrics() {
    let cfg = SimConfig::new(ModelConfig::tiny(), Parallelism::new(1, 1, 1).unwrap());
    let job = LoweredJob {
        programs: vec![Program::new(0)],
        groups: std::collections::HashMap::new(),
        config: cfg,
    };
    let (out, metrics) = run_both(&job, &JitterModel::none(), 0);
    assert_eq!(metrics.makespan, Dur::ZERO);
    assert_eq!(metrics.sendrecv_ns(), 0);
    assert_equivalent(&out, &metrics);
}

/// Median wall-clock seconds of `a` and of `b` over `samples` runs
/// each, after one warm-up run each. Samples alternate between the
/// two so clock-frequency drift hits both sides equally.
fn median_pair_secs(samples: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    a();
    b();
    let mut ta = Vec::with_capacity(samples);
    let mut tb = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        a();
        ta.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        b();
        tb.push(start.elapsed().as_secs_f64());
    }
    ta.sort_by(f64::total_cmp);
    tb.sort_by(f64::total_cmp);
    (ta[samples / 2], tb[samples / 2])
}

#[test]
fn metrics_only_beats_per_run_full_trace_on_the_refine_fixture() {
    // The refined-search fixture (`crates/search/tests/refine.rs`),
    // priced by a lookup model fitted from its own trace, as
    // `lumos search --refine-sim` prices finalists.
    let cfg = SimConfig {
        model: ModelConfig::custom("refine-e2e", 8, 256, 1024, 4, 64),
        parallelism: Parallelism::new(1, 2, 2).unwrap(),
        batch: BatchConfig {
            seq_len: 128,
            microbatch_size: 1,
            num_microbatches: 4,
        },
        schedule: ScheduleKind::OneFOneB,
    };
    let trace = GroundTruthCluster::new(&cfg, AnalyticalCostModel::h100())
        .unwrap()
        .profile_iteration(0)
        .unwrap()
        .trace;
    let lookup = LookupCostModel::fit_from_trace(&trace, AnalyticalCostModel::h100(), 8);
    let job = lower(&cfg).unwrap();
    let prep = PreparedJob::new(&job).unwrap();
    let oh = HostOverheads::default();
    let jitter = JitterModel::none();
    // Per-run setup plus trace materialization, against one shared
    // prepared job accumulating aggregates only.
    let (full, metrics) = median_pair_secs(
        9,
        || {
            black_box(
                PreparedJob::new(&job)
                    .unwrap()
                    .execute(&lookup, &oh, &jitter, 0)
                    .unwrap(),
            );
        },
        || {
            black_box(prep.execute_metrics(&lookup, &oh, &jitter, 0).unwrap());
        },
    );
    assert!(
        metrics < full,
        "metrics-only median {metrics:.6}s is not below full-trace {full:.6}s"
    );
}

/// Builds a random but well-formed single-rank program from a code
/// stream: kernels on two streams, producer event fences, stream
/// syncs, and balanced annotations. Every generated program
/// terminates (waits only reference events recorded earlier in
/// program order).
fn program_from_codes(codes: &[u8]) -> LoweredJob {
    let mut p = Program::new(0);
    let op_name = p.intern("aten::op");
    let gemm = p.intern("gemm_kernel");
    let ew = p.intern("elementwise_kernel");
    let ann = p.intern("block");
    let mut next_event = 0u32;
    let mut recorded: Vec<u32> = Vec::new();
    let mut depth = 0u32;
    for &c in codes {
        match c % 8 {
            0 => p.main_mut().push(HostOp::CpuOp { name: op_name }),
            1 => p.main_mut().push(HostOp::Launch {
                spec: KernelSpec {
                    name: gemm,
                    class: KernelClass::Gemm {
                        m: 64 + c as u64,
                        n: 64,
                        k: 64,
                    },
                    stream: streams::COMPUTE,
                },
            }),
            2 => p.main_mut().push(HostOp::Launch {
                spec: KernelSpec {
                    name: ew,
                    class: KernelClass::Elementwise {
                        elems: 1000 * (1 + c as u64),
                    },
                    stream: streams::TP_COMM,
                },
            }),
            3 => {
                let event = next_event;
                next_event += 1;
                recorded.push(event);
                p.main_mut().push(HostOp::EventRecord {
                    event,
                    stream: streams::COMPUTE,
                });
            }
            4 => {
                if let Some(&event) = recorded.last() {
                    p.main_mut().push(HostOp::StreamWait {
                        stream: streams::TP_COMM,
                        event,
                    });
                }
            }
            5 => p.main_mut().push(HostOp::StreamSync {
                stream: streams::COMPUTE,
            }),
            6 => {
                depth += 1;
                p.main_mut().push(HostOp::AnnotationBegin { name: ann });
            }
            _ => {
                if depth > 0 {
                    depth -= 1;
                    p.main_mut().push(HostOp::AnnotationEnd);
                }
            }
        }
    }
    for _ in 0..depth {
        p.main_mut().push(HostOp::AnnotationEnd);
    }
    p.main_mut().push(HostOp::DeviceSync);
    p.well_formed().expect("generated program is well-formed");
    let config = SimConfig::new(ModelConfig::tiny(), Parallelism::new(1, 1, 1).unwrap());
    LoweredJob {
        programs: vec![p],
        groups: std::collections::HashMap::new(),
        config,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random small host programs: full-trace and metrics-only modes
    /// agree exactly on every shared statistic, with and without
    /// jitter.
    #[test]
    fn random_programs_equivalent(
        codes in proptest::collection::vec(0u8..255, 0..48),
        seed in 0u64..1000,
    ) {
        let job = program_from_codes(&codes);
        let (out, metrics) = run_both(&job, &JitterModel::none(), 0);
        assert_equivalent(&out, &metrics);
        let (out, metrics) = run_both(&job, &JitterModel::realistic(seed), seed % 5);
        assert_equivalent(&out, &metrics);
    }
}
