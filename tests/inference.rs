//! End-to-end inference (serving) modeling: the §5 discussion's claim
//! that the methodology "is also applicable to the inference",
//! exercised through the same trace → graph → replay pipeline as
//! training.

use lumos::prelude::*;
use lumos_cluster::{lower_inference, JitterModel as Jitter, PreparedJob};
use lumos_cost::HostOverheads;
use lumos_model::inference::layer_decode_ops;
use lumos_model::InferenceSetup;
use lumos_trace::KernelClass;

fn serving_setup(tp: u32) -> InferenceSetup {
    InferenceSetup {
        model: ModelConfig::custom("serve-model", 4, 1024, 4096, 8, 128),
        tp,
        batch_size: 4,
        prompt_len: 256,
        decode_tokens: 8,
    }
}

fn profile(setup: &InferenceSetup, seed: u64) -> (ClusterTrace, Dur) {
    let job = lower_inference(setup).unwrap();
    let out = PreparedJob::new(&job)
        .unwrap()
        .execute(
            &AnalyticalCostModel::h100(),
            &HostOverheads::default(),
            &Jitter::realistic(seed),
            0,
        )
        .unwrap();
    (out.trace, out.makespan)
}

#[test]
fn inference_trace_replays_accurately() {
    // Serving timelines re-derive one blocking sync per decode step,
    // so the replay floor is looser than training's; the paper's
    // average across training configs is 3.3%.
    let (trace, actual) = profile(&serving_setup(2), 1);
    trace.validate().unwrap();
    let replayed = Lumos::new().replay(&trace).unwrap();
    let err = replayed.makespan().relative_error(actual);
    assert!(err < 0.03, "inference replay error {err}");
}

#[test]
fn small_batch_decode_is_host_bound() {
    // A real serving insight the what-if machinery surfaces: at batch
    // 4 on an H100, decode kernels are near the launch floor, so
    // halving *kernel* time barely moves the makespan while halving
    // *host* time moves it substantially.
    let setup = serving_setup(2);
    let (trace, _) = profile(&setup, 2);
    let lumos = Lumos::new();
    let baseline = lumos.replay(&trace).unwrap().makespan();

    let mut kernel_graph = lumos.build_graph(&trace).unwrap();
    let touched =
        lumos::core::manipulate::whatif::try_scale_kernel_class(&mut kernel_graph, 0.5, |c| {
            matches!(
                c,
                KernelClass::AttentionDecode { .. } | KernelClass::Gemm { .. }
            )
        })
        .unwrap();
    assert!(touched > 0, "decode kernels present in the graph");
    let kernel_fast = lumos::core::simulate(&kernel_graph, &SimOptions::default())
        .unwrap()
        .makespan();

    let mut host_graph = lumos.build_graph(&trace).unwrap();
    lumos::core::manipulate::whatif::try_scale_host(&mut host_graph, 0.5).unwrap();
    let host_fast = lumos::core::simulate(&host_graph, &SimOptions::default())
        .unwrap()
        .makespan();

    let kernel_gain = 1.0 - kernel_fast.as_secs_f64() / baseline.as_secs_f64();
    let host_gain = 1.0 - host_fast.as_secs_f64() / baseline.as_secs_f64();
    assert!(
        host_gain > kernel_gain,
        "expected host-bound decode: host gain {host_gain:.3} vs kernel gain {kernel_gain:.3}"
    );
    assert!(host_gain > 0.15, "host gain {host_gain:.3}");
}

#[test]
fn tensor_parallel_serving_exposes_communication() {
    // At this model size TP does not pay for itself (collective
    // latency exceeds the GEMM savings) — the structural claim that
    // holds at every size is that sharded serving shows communication
    // and solo serving shows none.
    let (solo_trace, _) = profile(&serving_setup(1), 3);
    let (tp_trace, _) = profile(&serving_setup(2), 3);
    use lumos_trace::BreakdownExt;
    let b = tp_trace.breakdown();
    assert!(b.exposed_comm > Dur::ZERO || b.overlapped > Dur::ZERO);
    let solo_b = solo_trace.breakdown();
    assert_eq!(solo_b.exposed_comm, Dur::ZERO);
    assert_eq!(solo_b.overlapped, Dur::ZERO);
}

#[test]
fn decode_cost_grows_with_kv_length() {
    // Later decode steps attend over longer caches; the modeled cost
    // of a decode layer must be monotone in cache length.
    let setup = serving_setup(1);
    let cost = AnalyticalCostModel::h100();
    let layer_cost = |kv: u64| -> Dur {
        layer_decode_ops(&setup, kv)
            .iter()
            .filter_map(|op| match op.body {
                lumos_model::ops::OpBody::AttentionDecode {
                    batch_heads,
                    kv_len,
                    head_dim,
                } => Some(cost.compute_cost(&KernelClass::AttentionDecode {
                    batch_heads,
                    kv_len,
                    head_dim,
                })),
                _ => None,
            })
            .sum()
    };
    assert!(layer_cost(4096) > layer_cost(1024));
    assert!(layer_cost(65_536) > layer_cost(4096));
}

#[test]
fn prefill_dominates_short_generations() {
    // A long prompt and two generated tokens: prefill compute dwarfs
    // the (host-bound) decode steps, so most of the makespan must be
    // the prefill annotation's span.
    let mut setup = serving_setup(1);
    setup.prompt_len = 4096;
    setup.batch_size = 8;
    setup.decode_tokens = 2;
    let (trace, makespan) = profile(&setup, 4);
    let rank0 = &trace.ranks()[0];
    // The prefill *annotation* covers only host dispatch; prefill
    // completion is the end of the first sample step's blocking sync
    // — i.e. time-to-first-token.
    let ttft = rank0
        .annotations()
        .find(|a| &*a.name == "sample step=0")
        .expect("first sample annotation present")
        .end();
    let origin = rank0
        .events()
        .iter()
        .map(|e| e.ts)
        .min()
        .expect("non-empty trace");
    let ttft = ttft.saturating_since(origin);
    assert!(
        ttft.as_secs_f64() > 0.5 * makespan.as_secs_f64(),
        "ttft {ttft} vs makespan {makespan}"
    );
}

#[test]
fn kv_cache_fits_are_checkable() {
    // An 80 GiB device holds the serve-model's cache comfortably, but
    // not at absurd batch sizes: the capacity math must be usable as
    // a feasibility gate like the training memory model.
    let setup = serving_setup(2);
    let per_seq_len = setup.kv_cache_bytes(setup.prompt_len + setup.decode_tokens as u64);
    assert!(per_seq_len < 80 * (1 << 30));
    let mut absurd = setup.clone();
    absurd.batch_size = 1 << 24;
    assert!(absurd.kv_cache_bytes(4096) > 80 * (1 << 30));
}
