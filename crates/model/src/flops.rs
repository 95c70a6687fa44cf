//! Iteration-level FLOP accounting and model-FLOPS-utilization (MFU).
//!
//! The paper's §5 limitations list "FLOPS utilization" among the
//! system-level metrics left to future work; this module provides it.
//! Definitions follow the PaLM / Megatron convention:
//!
//! * **model FLOPs** — the FLOPs the *algorithm* requires: one forward
//!   pass plus the backward pass (2× forward);
//! * **hardware FLOPs** — model FLOPs plus any recomputation the
//!   implementation performs (activation checkpointing re-runs the
//!   forward pass during backward);
//! * **MFU** = model FLOPs ÷ (wall time × #GPUs × peak FLOP/s);
//! * **HFU** = hardware FLOPs ÷ (wall time × #GPUs × peak FLOP/s).
//!
//! FLOPs are computed from the transformer shapes, not from the 6·N·D
//! approximation, so the quadratic attention term is priced exactly.

use crate::memory::Recompute;
use crate::setup::TrainingSetup;
use serde::Serialize;
use std::fmt;

/// FLOPs of one training iteration, summed over every rank (global).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct IterationFlops {
    /// Forward-pass FLOPs (transformer layers + LM head).
    pub forward: u64,
    /// Backward-pass FLOPs (2× forward, dgrad + wgrad).
    pub backward: u64,
    /// Extra forward FLOPs re-executed under activation
    /// checkpointing (zero unless [`Recompute::Full`]).
    pub recompute: u64,
}

impl IterationFlops {
    /// FLOPs the algorithm requires (MFU numerator).
    pub fn model_flops(&self) -> u64 {
        self.forward + self.backward
    }

    /// FLOPs the hardware executes (HFU numerator).
    pub fn hardware_flops(&self) -> u64 {
        self.forward + self.backward + self.recompute
    }
}

/// Computes the global per-iteration FLOPs of a training setup.
///
/// Covers the transformer stack and the LM-head projection; embedding
/// lookups and optimizer arithmetic are omitted (sub-0.1% of total for
/// GPT-3-scale models).
pub fn iteration_flops(setup: &TrainingSetup, recompute: Recompute) -> IterationFlops {
    let model = &setup.model;
    let batch = &setup.batch;
    let seq = batch.seq_len;
    // Tokens processed per iteration across all data-parallel replicas.
    let tokens = batch.global_batch(setup.parallelism.dp) * seq;
    let layers = model.forward_flops(tokens, seq);
    let head = 2 * model.hidden_size * model.vocab_size * tokens;
    let forward = layers + head;
    let backward = 2 * forward;
    let recompute = match recompute {
        // Selective recomputation re-runs only softmax-scale work; the
        // flash-attention backward already re-reads K/Q so its cost is
        // inside the backward factor. Treat it as free, like MFU
        // reports from Megatron do.
        Recompute::None | Recompute::Selective => 0,
        Recompute::Full => forward - head, // layers re-run; head is not checkpointed
    };
    IterationFlops {
        forward,
        backward,
        recompute,
    }
}

/// Utilization of a replayed or measured iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Utilization {
    /// Model-FLOPS utilization in `[0, 1]`.
    pub mfu: f64,
    /// Hardware-FLOPS utilization in `[0, 1]` (≥ MFU).
    pub hfu: f64,
    /// Achieved model TFLOP/s per GPU.
    pub tflops_per_gpu: f64,
}

impl fmt::Display for Utilization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MFU {:.1}% / HFU {:.1}% ({:.0} TFLOP/s per GPU)",
            self.mfu * 100.0,
            self.hfu * 100.0,
            self.tflops_per_gpu
        )
    }
}

/// Computes MFU/HFU for an iteration that took `iter_time_secs` on
/// `setup.parallelism.world_size()` GPUs with the given per-GPU peak.
///
/// # Panics
///
/// Panics if `iter_time_secs` or `peak_flops_per_gpu` is not positive.
pub fn utilization(
    setup: &TrainingSetup,
    recompute: Recompute,
    iter_time_secs: f64,
    peak_flops_per_gpu: f64,
) -> Utilization {
    assert!(iter_time_secs > 0.0, "iteration time must be positive");
    assert!(peak_flops_per_gpu > 0.0, "peak FLOP/s must be positive");
    let flops = iteration_flops(setup, recompute);
    let gpus = setup.parallelism.world_size() as f64;
    let denom = iter_time_secs * gpus * peak_flops_per_gpu;
    Utilization {
        mfu: flops.model_flops() as f64 / denom,
        hfu: flops.hardware_flops() as f64 / denom,
        tflops_per_gpu: flops.model_flops() as f64 / (iter_time_secs * gpus) / 1e12,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpt3::ModelConfig;
    use crate::parallel::Parallelism;

    fn setup_175b() -> TrainingSetup {
        TrainingSetup::new(ModelConfig::gpt3_175b(), Parallelism::new(8, 4, 8).unwrap())
    }

    #[test]
    fn matches_6nd_approximation() {
        // Model FLOPs per token should be within ~25% of 6·N (the
        // approximation undercounts attention and the LM head).
        let s = setup_175b();
        let flops = iteration_flops(&s, Recompute::Selective);
        let tokens = s.batch.global_batch(8) * s.batch.seq_len;
        let per_token = flops.model_flops() as f64 / tokens as f64;
        let approx = 6.0 * s.model.num_params() as f64;
        let ratio = per_token / approx;
        assert!(
            (0.95..1.25).contains(&ratio),
            "per-token {per_token:.3e} vs 6N {approx:.3e} (ratio {ratio:.3})"
        );
    }

    #[test]
    fn backward_is_twice_forward() {
        let flops = iteration_flops(&setup_175b(), Recompute::Selective);
        assert_eq!(flops.backward, 2 * flops.forward);
        assert_eq!(flops.recompute, 0);
        assert_eq!(flops.model_flops(), flops.hardware_flops());
    }

    #[test]
    fn full_recompute_adds_one_forward() {
        let none = iteration_flops(&setup_175b(), Recompute::Selective);
        let full = iteration_flops(&setup_175b(), Recompute::Full);
        assert!(full.recompute > 0);
        assert!(full.recompute < full.forward); // head not recomputed
        assert_eq!(none.model_flops(), full.model_flops());
        assert!(full.hardware_flops() > full.model_flops());
    }

    #[test]
    fn flops_scale_with_dp() {
        let mut s = setup_175b();
        let base = iteration_flops(&s, Recompute::Selective);
        s.parallelism = Parallelism::new(8, 4, 16).unwrap();
        let doubled = iteration_flops(&s, Recompute::Selective);
        assert_eq!(doubled.forward, 2 * base.forward);
    }

    #[test]
    fn mfu_is_plausible_for_h100() {
        // 8 micro-batches of 2048 tokens × 8 replicas on 256 H100s: a
        // 7-second iteration corresponds to ~40% MFU — the realistic
        // band for the paper's Figure 1 setup (~7s iterations).
        let s = setup_175b();
        let u = utilization(&s, Recompute::Selective, 7.0, 989e12);
        assert!((0.05..0.95).contains(&u.mfu), "implausible MFU {}", u.mfu);
        assert_eq!(u.mfu, u.hfu);
        assert!(u.tflops_per_gpu > 0.0);
    }

    #[test]
    fn hfu_at_least_mfu() {
        let s = setup_175b();
        let u = utilization(&s, Recompute::Full, 7.0, 989e12);
        assert!(u.hfu > u.mfu);
    }

    #[test]
    fn faster_iteration_higher_mfu() {
        let s = setup_175b();
        let fast = utilization(&s, Recompute::Selective, 5.0, 989e12);
        let slow = utilization(&s, Recompute::Selective, 10.0, 989e12);
        assert!(fast.mfu > slow.mfu);
        assert!((fast.mfu / slow.mfu - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_time_panics() {
        let _ = utilization(&setup_175b(), Recompute::Selective, 0.0, 1.0);
    }

    #[test]
    fn display_formats_percent() {
        let u = Utilization {
            mfu: 0.412,
            hfu: 0.52,
            tflops_per_gpu: 407.0,
        };
        let text = u.to_string();
        assert!(text.contains("41.2%"));
        assert!(text.contains("407"));
    }
}
