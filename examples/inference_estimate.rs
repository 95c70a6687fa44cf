//! Inference (serving) estimation: the §5 discussion's extension of
//! the methodology to inference, end to end — profile a prefill +
//! decode request batch, replay it, extract serving metrics
//! (time-to-first-token, per-token latency), and answer what-if
//! questions about host overhead and kernel speedups.
//!
//! Run with: `cargo run --release --example inference_estimate`

use lumos::prelude::*;
use lumos_cluster::{lower_inference, PreparedJob};
use lumos_cost::HostOverheads;
use lumos_model::InferenceSetup;
use lumos_trace::KernelClass;

fn ttft_of(trace: &ClusterTrace) -> Option<Dur> {
    let rank0 = trace.ranks().first()?;
    let origin = rank0.events().iter().map(|e| e.ts).min()?;
    let first_sample = rank0.annotations().find(|a| &*a.name == "sample step=0")?;
    Some(first_sample.end().saturating_since(origin))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let setup = InferenceSetup {
        model: ModelConfig::custom("GPT-3 15B (8-layer slice)", 8, 6144, 12288, 48, 128),
        tp: 4,
        batch_size: 8,
        prompt_len: 1024,
        decode_tokens: 32,
    };
    println!("serving config: {}", setup.label());
    println!(
        "  kv cache at end of generation: {:.2} GiB/rank\n",
        setup.kv_cache_bytes(setup.prompt_len + setup.decode_tokens as u64) as f64
            / (1u64 << 30) as f64
    );

    // Profile one request batch on the ground-truth engine.
    let job = lower_inference(&setup)?;
    let out = PreparedJob::new(&job)?.execute(
        &AnalyticalCostModel::h100(),
        &HostOverheads::default(),
        &JitterModel::realistic(23),
        0,
    )?;
    let ttft = ttft_of(&out.trace).expect("sample annotations present");
    let decode_time = out.makespan.saturating_sub(ttft);
    let tpot = decode_time.scale(1.0 / setup.decode_tokens as f64);
    println!("profiled request batch:");
    println!("  end-to-end:          {:.2} ms", out.makespan.as_ms_f64());
    println!("  time-to-first-token: {:.2} ms", ttft.as_ms_f64());
    println!("  per-token latency:   {:.3} ms", tpot.as_ms_f64());

    // Replay through the Lumos pipeline — same machinery as training.
    let lumos = Lumos::new();
    let replayed = lumos.replay(&out.trace)?;
    println!(
        "  replay error:        {:.2}%\n",
        replayed.makespan().relative_error(out.makespan) * 100.0
    );

    // What-if 1: a fused decode step halves host dispatch work.
    let mut host_graph = lumos.build_graph(&out.trace)?;
    lumos::core::manipulate::whatif::try_scale_host(&mut host_graph, 0.5)?;
    let host_fast = lumos::core::simulate(&host_graph, &SimOptions::default())?.makespan();

    // What-if 2: a better decode-attention kernel runs 2x faster.
    let mut attn_graph = lumos.build_graph(&out.trace)?;
    let touched =
        lumos::core::manipulate::whatif::try_scale_kernel_class(&mut attn_graph, 0.5, |c| {
            matches!(c, KernelClass::AttentionDecode { .. })
        })?;
    let attn_fast = lumos::core::simulate(&attn_graph, &SimOptions::default())?.makespan();

    // What-if 3: pointwise fusion absorbs adjacent elementwise/norm
    // kernels (the §5 "new operator fusion pattern" example).
    let mut fuse_graph = lumos.build_graph(&out.trace)?;
    let fused = lumos::core::manipulate::whatif::fuse_pointwise(&mut fuse_graph, Dur::from_us(2));
    let fuse_fast = lumos::core::simulate(&fuse_graph, &SimOptions::default())?.makespan();

    let baseline = replayed.makespan();
    let gain = |d: Dur| (1.0 - d.as_secs_f64() / baseline.as_secs_f64()) * 100.0;
    println!(
        "what-if studies (vs {:.2} ms replay):",
        baseline.as_ms_f64()
    );
    println!(
        "  2x faster host dispatch:    {:.2} ms ({:+.1}%)",
        host_fast.as_ms_f64(),
        -gain(host_fast)
    );
    println!(
        "  2x faster decode attention: {:.2} ms ({:+.1}%), {touched} kernels",
        attn_fast.as_ms_f64(),
        -gain(attn_fast)
    );
    println!(
        "  pointwise fusion:           {:.2} ms ({:+.1}%), {fused} boundaries fused",
        fuse_fast.as_ms_f64(),
        -gain(fuse_fast)
    );
    let winner = if gain(host_fast) > gain(attn_fast) {
        "host dispatch — decode is launch-bound at this batch size, which is \
         why serving engines batch aggressively and use CUDA graphs"
    } else {
        "the decode-attention kernel — KV-cache reads dominate at this \
         prompt length, the optimization paged/flash-decoding targets"
    };
    println!("\nreading: the binding constraint is {winner}.");

    // Decode-length scaling: replay cost per generated token.
    println!("\ngeneration-length scaling (predicted by fresh ground truth):");
    for decode in [8u32, 16, 32, 64] {
        let mut s = setup.clone();
        s.decode_tokens = decode;
        let job = lower_inference(&s)?;
        let out = PreparedJob::new(&job)?.execute(
            &AnalyticalCostModel::h100(),
            &HostOverheads::default(),
            &JitterModel::none(),
            0,
        )?;
        println!("  {decode:>3} tokens: {:>8.2} ms", out.makespan.as_ms_f64());
    }

    // Export for chrome://tracing.
    let json = lumos::trace::to_chrome_json(&out.trace, &Default::default());
    std::fs::write("/tmp/lumos_inference_trace.json", json)?;
    println!("\nwrote /tmp/lumos_inference_trace.json (open in chrome://tracing)");
    Ok(())
}
