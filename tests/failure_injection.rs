//! Failure-injection and robustness tests: extreme noise, straggler
//! ranks, and degenerate traces must produce defined behavior (clean
//! errors or sound replays), never panics or silent nonsense.

use lumos::prelude::*;
use lumos_trace::{CudaRuntimeKind, RankTrace, StreamId, ThreadId, TraceEvent, Ts};

fn small_setup() -> TrainingSetup {
    let model = ModelConfig::custom("inject-model", 2, 512, 2048, 4, 128);
    TrainingSetup::new(model, Parallelism::new(2, 1, 2).unwrap())
}

#[test]
fn extreme_jitter_still_replays() {
    // Crank every noise source far beyond production levels: the
    // trace must stay structurally valid and replay exactly (replay
    // reproduces whatever timeline was recorded, noisy or not).
    let jitter = JitterModel {
        kernel_cv: 0.5,
        host_cv: 1.0,
        comm_cv: 0.8,
        drift_cv: 0.3,
        seed: 99,
    };
    let cluster = GroundTruthCluster::new(&small_setup(), AnalyticalCostModel::h100())
        .unwrap()
        .with_jitter(jitter);
    let out = cluster.profile_iteration(0).unwrap();
    out.trace.validate().unwrap();
    let replayed = Lumos::new().replay(&out.trace).unwrap();
    let err = replayed.makespan().relative_error(out.makespan);
    assert!(err < 0.01, "replay of a noisy trace drifted {err}");
}

#[test]
fn straggler_rank_slows_everyone_through_rendezvous() {
    // Slow down one rank's compute kernels 3x in the graph; collective
    // rendezvous must propagate the slowdown to the whole job, and
    // the healthy ranks' added time must show up as exposed comm /
    // waiting, not compute.
    let setup = small_setup();
    let cluster = GroundTruthCluster::new(&setup, AnalyticalCostModel::h100()).unwrap();
    let trace = cluster.profile_iteration(0).unwrap().trace;
    let lumos = Lumos::new();
    let baseline = lumos.replay(&trace).unwrap().makespan();

    let mut graph = lumos.build_graph(&trace).unwrap();
    let straggler = lumos_trace::RankId(0);
    // The predicate sees only the task, so resolve the straggler's
    // processor indices up front.
    let straggler_procs: Vec<u32> = (0..graph.processors().len() as u32)
        .filter(|&i| match graph.processor(i) {
            lumos::core::Processor::Stream { rank, .. } => rank == straggler,
            lumos::core::Processor::Thread { rank, .. } => rank == straggler,
        })
        .collect();
    let slowed = lumos::core::manipulate::whatif::scale_tasks(&mut graph, 3.0, |t| {
        straggler_procs.contains(&t.processor)
            && matches!(t.kind, lumos::core::TaskKind::Kernel(ref c) if !c.is_comm())
    });
    assert!(slowed > 0);

    let sim = lumos::core::simulate(&graph, &SimOptions::default()).unwrap();
    assert!(
        sim.makespan() > baseline.scale(1.5),
        "straggler did not propagate: {} vs baseline {}",
        sim.makespan(),
        baseline
    );
}

#[test]
fn empty_trace_replays_to_zero() {
    let trace = ClusterTrace::new("empty");
    let replayed = Lumos::new().replay(&trace).unwrap();
    assert_eq!(replayed.makespan(), Dur::ZERO);
    assert!(replayed.trace().ranks().is_empty());
}

#[test]
fn kernel_without_launch_is_rejected() {
    // A kernel whose correlation id has no launching runtime event
    // breaks the CPU→GPU dependency class: the builder must say so.
    let mut r = RankTrace::new(0);
    r.push(TraceEvent::kernel("orphan", Ts(0), Dur(1000), StreamId(7)).with_correlation(42));
    let mut trace = ClusterTrace::new("orphan-kernel");
    trace.push_rank(r);
    let err = Lumos::new().replay(&trace).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("correlation") || msg.contains("launch"),
        "unhelpful error: {msg}"
    );
}

#[test]
fn wait_on_unrecorded_event_is_rejected() {
    let tid = ThreadId(1);
    let mut r = RankTrace::new(0);
    r.push(TraceEvent::cuda_runtime(
        CudaRuntimeKind::StreamWaitEvent {
            stream: StreamId(7),
            event: 123,
        },
        Ts(0),
        Dur(1000),
        tid,
    ));
    let mut trace = ClusterTrace::new("dangling-wait");
    trace.push_rank(r);
    // Waiting on an event never recorded is a no-op in CUDA; the
    // builder must tolerate it (no edge) rather than fail.
    let replayed = Lumos::new().replay(&trace).unwrap();
    assert!(replayed.makespan() >= Dur(1000));
}

#[test]
fn unsorted_rank_trace_is_handled() {
    // Events pushed out of order: RankTrace sorts on demand; the
    // replay must match the sorted equivalent.
    let tid = ThreadId(1);
    let mut r = RankTrace::new(0);
    r.push(
        TraceEvent::cuda_runtime(CudaRuntimeKind::LaunchKernel, Ts(5_000), Dur(2_000), tid)
            .with_correlation(1),
    );
    r.push(TraceEvent::kernel("k", Ts(9_000), Dur(10_000), StreamId(7)).with_correlation(1));
    r.push(TraceEvent::cpu_op("eager-op", Ts(0), Dur(5_000), tid));
    let mut trace = ClusterTrace::new("unsorted");
    trace.push_rank(r);
    let replayed = Lumos::new().replay(&trace).unwrap();
    assert!(replayed.makespan() >= Dur(17_000));
}

#[test]
fn duplicate_correlation_ids_are_rejected() {
    let tid = ThreadId(1);
    let mut r = RankTrace::new(0);
    for i in 0..2u64 {
        r.push(
            TraceEvent::cuda_runtime(
                CudaRuntimeKind::LaunchKernel,
                Ts(i * 10_000),
                Dur(2_000),
                tid,
            )
            .with_correlation(7),
        );
        r.push(
            TraceEvent::kernel("k", Ts(i * 10_000 + 4_000), Dur(1_000), StreamId(7))
                .with_correlation(7),
        );
    }
    let mut trace = ClusterTrace::new("dup-corr");
    trace.push_rank(r);
    let result = Lumos::new().replay(&trace);
    assert!(
        result.is_err(),
        "duplicate correlation ids must not be silently accepted"
    );
}

#[test]
fn predict_on_unannotated_trace_gives_missing_annotations() {
    // Structural manipulation needs layer annotations; a bare trace
    // must produce the documented MissingAnnotations error.
    let tid = ThreadId(1);
    let mut r = RankTrace::new(0);
    r.push(TraceEvent::cpu_op("op", Ts(0), Dur(1_000), tid));
    let mut trace = ClusterTrace::new("bare");
    trace.push_rank(r);
    let setup = small_setup();
    let err = Lumos::new()
        .predict(
            &trace,
            &setup,
            &[Transform::NumLayers { layers: 4 }],
            AnalyticalCostModel::h100(),
        )
        .unwrap_err();
    assert!(err.to_string().contains("annotation"));
}

#[test]
fn zero_duration_events_are_harmless() {
    let tid = ThreadId(1);
    let mut r = RankTrace::new(0);
    r.push(TraceEvent::cpu_op("instant", Ts(0), Dur::ZERO, tid));
    r.push(TraceEvent::cpu_op("after", Ts(0), Dur(100), tid));
    let mut trace = ClusterTrace::new("zero-dur");
    trace.push_rank(r);
    let replayed = Lumos::new().replay(&trace).unwrap();
    assert_eq!(replayed.makespan(), Dur(100));
}
