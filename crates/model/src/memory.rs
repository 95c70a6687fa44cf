//! Per-rank GPU memory estimation for 3D-parallel training.
//!
//! The paper's §5 limitations name memory consumption as future work
//! ("we assume the model will function as expected under the new
//! settings, without unforeseen issues such as out-of-memory errors").
//! This module closes that gap: it estimates the per-rank footprint of
//! a [`TrainingSetup`] so what-if predictions can be gated on
//! feasibility before any simulation is run.
//!
//! Accounting follows Megatron-LM's mixed-precision recipe (bf16
//! weights/activations, fp32 main gradients, fp32 Adam state) and the
//! activation-memory model of Korthikanti et al., *Reducing Activation
//! Recomputation in Large Transformer Models* (2022), adapted to
//! arbitrary attention width `a = n_heads × d_head` and FFN width
//! `f = d_ffn`:
//!
//! * replicated per-layer activations: `10·s·b·h` bytes;
//! * tensor-parallel-sharded activations: `s·b·(8a + 4f)/t` bytes;
//! * the attention-map term `5·s²·b·n_heads/t` appears only without
//!   flash attention ([`Recompute::None`]);
//! * [`Recompute::Full`] keeps only the `2·s·b·h` layer input.
//!
//! Pipeline stages hold one activation set per *in-flight* micro-batch:
//! `min(m, pp − stage)` under 1F1B, all `m` under GPipe — so stage 0
//! is the activation-memory peak.

use crate::batch::BatchConfig;
use crate::gpt3::ModelConfig;
use crate::ops::local_params;
use crate::schedule::ScheduleKind;
use crate::setup::TrainingSetup;
use serde::Serialize;
use std::fmt;

/// Bytes per bf16 weight/activation element.
const BF16: u64 = 2;
/// Bytes per fp32 element (main grads, optimizer state).
const FP32: u64 = 4;

/// Activation-recomputation (checkpointing) policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize)]
pub enum Recompute {
    /// No recomputation and *no* flash attention: the full quadratic
    /// attention map is materialized and saved for backward.
    None,
    /// Selective recomputation — equivalently, flash attention: the
    /// attention map is never stored (the paper's Transformer Engine
    /// 0.12 setup). This is the repository default.
    #[default]
    Selective,
    /// Full recomputation: only each layer's input survives the
    /// forward pass; everything else is rebuilt during backward.
    Full,
}

impl fmt::Display for Recompute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Recompute::None => "none",
            Recompute::Selective => "selective",
            Recompute::Full => "full",
        };
        f.write_str(s)
    }
}

/// Optimizer-state placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize)]
pub enum OptimizerPlacement {
    /// Every data-parallel replica keeps full fp32 master weights and
    /// Adam moments (Megatron default).
    #[default]
    Replicated,
    /// Megatron distributed optimizer / ZeRO-1: master weights and
    /// moments are sharded across the data-parallel group.
    DistributedOptimizer,
}

/// A per-rank memory estimate, broken into the components reported by
/// `torch.cuda.memory_summary`-style tooling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct MemoryEstimate {
    /// bf16 parameter shard.
    pub weights: u64,
    /// fp32 main gradients (Megatron DDP keeps full-precision grads).
    pub gradients: u64,
    /// fp32 master weights + Adam first/second moments.
    pub optimizer: u64,
    /// Peak activation storage across in-flight micro-batches.
    pub activations: u64,
    /// Largest transient workspace (LM-head logits, GEMM scratch).
    pub workspace: u64,
    /// Fixed runtime overhead: CUDA context, NCCL buffers, allocator
    /// fragmentation reserve.
    pub overhead: u64,
}

impl MemoryEstimate {
    /// Total bytes across all components.
    pub fn total(&self) -> u64 {
        self.weights
            + self.gradients
            + self.optimizer
            + self.activations
            + self.workspace
            + self.overhead
    }

    /// Whether the estimate fits a device with `capacity` bytes.
    pub fn fits(&self, capacity: u64) -> bool {
        self.total() <= capacity
    }

    /// Headroom (positive) or deficit (negative) against `capacity`,
    /// in bytes.
    pub fn headroom(&self, capacity: u64) -> i64 {
        capacity as i64 - self.total() as i64
    }
}

impl fmt::Display for MemoryEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let gib = |b: u64| b as f64 / (1u64 << 30) as f64;
        write!(
            f,
            "total {:.1} GiB (weights {:.1} + grads {:.1} + optim {:.1} + acts {:.1} + ws {:.1} + ovh {:.1})",
            gib(self.total()),
            gib(self.weights),
            gib(self.gradients),
            gib(self.optimizer),
            gib(self.activations),
            gib(self.workspace),
            gib(self.overhead)
        )
    }
}

/// Tunable constants of the memory model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MemoryModel {
    /// Recomputation policy.
    pub recompute: Recompute,
    /// Optimizer-state placement.
    pub optimizer: OptimizerPlacement,
    /// Fixed runtime overhead in bytes (CUDA context + NCCL channels +
    /// fragmentation reserve). Defaults to 4 GiB, a typical H100
    /// figure for multi-communicator Megatron jobs.
    pub overhead_bytes: u64,
    /// Floor for transient GEMM/attention workspace in bytes
    /// (cuBLAS/cuDNN reserve). Defaults to 128 MiB.
    pub workspace_floor_bytes: u64,
}

impl Default for MemoryModel {
    fn default() -> Self {
        MemoryModel {
            recompute: Recompute::Selective,
            optimizer: OptimizerPlacement::Replicated,
            overhead_bytes: 4 << 30,
            workspace_floor_bytes: 128 << 20,
        }
    }
}

impl MemoryModel {
    /// A model with everything default except the recompute policy.
    pub fn with_recompute(recompute: Recompute) -> Self {
        MemoryModel {
            recompute,
            ..MemoryModel::default()
        }
    }

    /// Activation bytes one pipeline stage must hold for **one**
    /// micro-batch of one transformer layer.
    pub fn activation_bytes_per_layer(
        &self,
        model: &ModelConfig,
        batch: &BatchConfig,
        tp: u32,
    ) -> u64 {
        let n = batch.tokens_per_microbatch(); // s·b
        let h = model.hidden_size;
        let a = model.attn_size();
        let f = model.ffn_size;
        let t = tp as u64;
        match self.recompute {
            Recompute::Full => BF16 * n * h,
            Recompute::Selective => 10 * n * h + n * (8 * a + 4 * f) / t,
            Recompute::None => {
                let map = 5 * batch.seq_len * n * model.num_heads as u64 / t;
                10 * n * h + n * (8 * a + 4 * f) / t + map
            }
        }
    }

    /// Peak number of in-flight micro-batch activation sets at
    /// `stage`, as accounted by the schedule policy itself.
    pub fn in_flight(&self, schedule: ScheduleKind, pp: u32, stage: u32, microbatches: u32) -> u32 {
        schedule.in_flight(pp, stage, microbatches)
    }

    /// Estimates the footprint of the rank at pipeline `stage`.
    ///
    /// # Panics
    ///
    /// Panics if `stage >= setup.parallelism.pp`.
    pub fn estimate_stage(&self, setup: &TrainingSetup, stage: u32) -> MemoryEstimate {
        let par = &setup.parallelism;
        assert!(
            stage < par.pp,
            "stage {stage} out of range for pp={}",
            par.pp
        );
        let model = &setup.model;
        let batch = &setup.batch;
        let params = local_params(model, par.tp, par.pp, stage);

        let weights = BF16 * params;
        let gradients = FP32 * params;
        let optim_full = 3 * FP32 * params; // master + m + v
        let optimizer = match self.optimizer {
            OptimizerPlacement::Replicated => optim_full,
            OptimizerPlacement::DistributedOptimizer => optim_full.div_ceil(par.dp as u64),
        };

        let layers_here = (model.num_layers / par.pp) as u64;
        let per_layer = self.activation_bytes_per_layer(model, batch, par.tp);
        let in_flight =
            self.in_flight(setup.schedule, par.pp, stage, batch.num_microbatches) as u64;
        let mut activations = in_flight * layers_here * per_layer;
        if stage == 0 {
            // Embedding output held per in-flight micro-batch.
            activations += in_flight * BF16 * batch.tokens_per_microbatch() * model.hidden_size;
        }

        let mut workspace = self.workspace_floor_bytes;
        if stage == par.pp - 1 {
            // fp32 logits + bf16 logits for the sharded vocabulary.
            let logits =
                (FP32 + BF16) * batch.tokens_per_microbatch() * model.vocab_size / par.tp as u64;
            workspace = workspace.max(logits);
        }

        MemoryEstimate {
            weights,
            gradients,
            optimizer,
            activations,
            workspace,
            overhead: self.overhead_bytes,
        }
    }

    /// Estimates all stages and returns `(stage, estimate)` for the
    /// most memory-hungry one (the binding constraint for OOM).
    pub fn estimate_peak(&self, setup: &TrainingSetup) -> (u32, MemoryEstimate) {
        (0..setup.parallelism.pp)
            .map(|s| (s, self.estimate_stage(setup, s)))
            .max_by_key(|(_, e)| e.total())
            .expect("pp >= 1")
    }

    /// Checks whether `setup` fits on devices with `capacity` bytes,
    /// returning the peak stage's estimate either way.
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] naming the stage and deficit when the peak
    /// stage exceeds `capacity`.
    pub fn check(&self, setup: &TrainingSetup, capacity: u64) -> Result<MemoryEstimate, OomError> {
        let (stage, est) = self.estimate_peak(setup);
        if est.fits(capacity) {
            Ok(est)
        } else {
            Err(OomError {
                stage,
                required: est.total(),
                capacity,
            })
        }
    }
}

/// Predicted out-of-memory condition for a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OomError {
    /// The pipeline stage that overflows first.
    pub stage: u32,
    /// Bytes the stage requires.
    pub required: u64,
    /// Bytes available per device.
    pub capacity: u64,
}

impl fmt::Display for OomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "predicted OOM at pipeline stage {}: needs {:.1} GiB, device has {:.1} GiB",
            self.stage,
            self.required as f64 / (1u64 << 30) as f64,
            self.capacity as f64 / (1u64 << 30) as f64
        )
    }
}

impl std::error::Error for OomError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::Parallelism;

    const GIB: u64 = 1 << 30;
    const H100_CAPACITY: u64 = 80 * GIB;

    fn setup(model: ModelConfig, tp: u32, pp: u32, dp: u32) -> TrainingSetup {
        TrainingSetup::new(model, Parallelism::new(tp, pp, dp).unwrap())
    }

    #[test]
    fn paper_config_fits_h100() {
        // GPT-3 175B at TP8/PP4/DP8 trains on the paper's cluster. At
        // 5.5B params/rank the replicated-optimizer footprint (18
        // bytes/param ≈ 99 GiB) exceeds 80 GiB — the MLPerf reference
        // enables Megatron's distributed optimizer, which must fit.
        let s = setup(ModelConfig::gpt3_175b(), 8, 4, 8);
        let replicated = MemoryModel::default();
        assert!(!replicated.estimate_peak(&s).1.fits(H100_CAPACITY));

        let dist = MemoryModel {
            optimizer: OptimizerPlacement::DistributedOptimizer,
            ..MemoryModel::default()
        };
        let (stage, est) = dist.estimate_peak(&s);
        assert!(est.fits(H100_CAPACITY), "stage {stage} does not fit: {est}");
    }

    #[test]
    fn single_gpu_175b_overflows() {
        let s = setup(ModelConfig::gpt3_175b(), 1, 1, 1);
        let m = MemoryModel::default();
        let err = m.check(&s, H100_CAPACITY).unwrap_err();
        // 175B × 18 bytes/param static state alone is ~2.9 TiB.
        assert!(err.required > 2_000 * GIB);
        assert_eq!(err.stage, 0);
        assert!(err.to_string().contains("OOM"));
    }

    #[test]
    fn static_state_is_18_bytes_per_param() {
        let s = setup(ModelConfig::tiny(), 1, 1, 1);
        let m = MemoryModel::default();
        let est = m.estimate_stage(&s, 0);
        let params = local_params(&s.model, 1, 1, 0);
        assert_eq!(est.weights + est.gradients + est.optimizer, 18 * params);
    }

    #[test]
    fn distributed_optimizer_shards_states() {
        let s = setup(ModelConfig::gpt3_15b(), 2, 2, 4);
        let repl = MemoryModel::default().estimate_stage(&s, 0);
        let dist = MemoryModel {
            optimizer: OptimizerPlacement::DistributedOptimizer,
            ..MemoryModel::default()
        }
        .estimate_stage(&s, 0);
        assert_eq!(dist.optimizer, repl.optimizer.div_ceil(4));
        assert_eq!(dist.weights, repl.weights);
    }

    #[test]
    fn recompute_ordering() {
        // More recomputation ⇒ less activation memory.
        let model = ModelConfig::gpt3_15b();
        let batch = BatchConfig::gpt3_default(4);
        let bytes = |r: Recompute| {
            MemoryModel::with_recompute(r).activation_bytes_per_layer(&model, &batch, 2)
        };
        assert!(bytes(Recompute::None) > bytes(Recompute::Selective));
        assert!(bytes(Recompute::Selective) > bytes(Recompute::Full));
    }

    #[test]
    fn selective_matches_korthikanti_constant() {
        // For the classic GPT shape (a = h, f = 4h) the selective
        // formula must reduce to sbh·(10 + 24/t).
        let model = ModelConfig::custom("classic", 4, 1024, 4096, 8, 128);
        let batch = BatchConfig {
            seq_len: 512,
            microbatch_size: 2,
            num_microbatches: 4,
        };
        let sbh = 512 * 2 * 1024;
        for t in [1u32, 2, 4] {
            let got = MemoryModel::default().activation_bytes_per_layer(&model, &batch, t);
            assert_eq!(got, sbh * (10 + 24 / t as u64), "t={t}");
        }
    }

    #[test]
    fn stage0_is_activation_peak_under_1f1b() {
        let s = setup(ModelConfig::gpt3_15b(), 2, 4, 1);
        let m = MemoryModel::default();
        let first = m.estimate_stage(&s, 0);
        let last = m.estimate_stage(&s, 3);
        assert!(first.activations > last.activations);
        // 1F1B in-flight: stage 0 holds pp sets, last stage holds 1.
        assert_eq!(m.in_flight(ScheduleKind::OneFOneB, 4, 0, 8), 4);
        assert_eq!(m.in_flight(ScheduleKind::OneFOneB, 4, 3, 8), 1);
        // GPipe holds everything everywhere.
        assert_eq!(m.in_flight(ScheduleKind::GPipe, 4, 3, 8), 8);
    }

    #[test]
    fn gpipe_needs_more_activation_memory() {
        let mut s = setup(ModelConfig::gpt3_15b(), 2, 2, 1);
        let m = MemoryModel::default();
        let f1b = m.estimate_stage(&s, 0);
        s.schedule = ScheduleKind::GPipe;
        let gpipe = m.estimate_stage(&s, 0);
        assert!(gpipe.activations > f1b.activations);
    }

    #[test]
    fn tp_shards_activations_and_weights() {
        let s1 = setup(ModelConfig::gpt3_15b(), 1, 2, 1);
        let s2 = setup(ModelConfig::gpt3_15b(), 2, 2, 1);
        let m = MemoryModel::default();
        let e1 = m.estimate_stage(&s1, 0);
        let e2 = m.estimate_stage(&s2, 0);
        assert!(e2.weights < e1.weights);
        assert!(e2.activations < e1.activations);
    }

    #[test]
    fn last_stage_logits_workspace() {
        let s = setup(ModelConfig::gpt3_15b(), 2, 2, 1);
        let m = MemoryModel::default();
        let last = m.estimate_stage(&s, 1);
        let logits = 6 * s.batch.tokens_per_microbatch() * s.model.vocab_size / 2;
        assert_eq!(last.workspace, logits.max(m.workspace_floor_bytes));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_stage_panics() {
        let s = setup(ModelConfig::tiny(), 1, 2, 1);
        let _ = MemoryModel::default().estimate_stage(&s, 5);
    }

    #[test]
    fn headroom_signs() {
        let est = MemoryEstimate {
            weights: GIB,
            gradients: GIB,
            optimizer: GIB,
            activations: GIB,
            workspace: 0,
            overhead: 0,
        };
        assert_eq!(est.total(), 4 * GIB);
        assert!(est.headroom(5 * GIB) > 0);
        assert!(est.headroom(3 * GIB) < 0);
        assert!(est.fits(4 * GIB));
    }

    #[test]
    fn display_is_humane() {
        let s = setup(ModelConfig::tiny(), 1, 1, 1);
        let text = MemoryModel::default().estimate_stage(&s, 0).to_string();
        assert!(text.contains("GiB"));
        assert!(text.contains("weights"));
    }
}
