//! Inference (serving) workload descriptions: prefill + decode.
//!
//! The paper's discussion (§5) notes that "although this paper focuses
//! on LLM training … Lumos is also applicable to the inference". This
//! module provides the operator IR for a tensor-parallel inference
//! engine step — one *prefill* pass over the prompt followed by
//! autoregressive *decode* steps against a growing KV cache — which
//! `lumos-cluster` lowers into traced programs exactly like training.
//!
//! Decode attention is a distinct kernel shape
//! ([`OpBody::AttentionDecode`]): one query token reads the whole K/V
//! cache, so its cost is linear in cache length and memory-bound,
//! unlike the quadratic prefill kernel.

use crate::batch::BatchConfig;
use crate::error::ModelError;
use crate::gpt3::ModelConfig;
use crate::ops::{self, CollOp, OpBody, OpDesc, ACT_BYTES};
use crate::parallel::{CommScope, Parallelism};
use serde::Serialize;

/// A complete inference-job description.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct InferenceSetup {
    /// The transformer architecture.
    pub model: ModelConfig,
    /// Tensor-parallel degree (inference deployments shard within a
    /// node; pipeline/data parallelism run as independent replicas and
    /// are out of scope here).
    pub tp: u32,
    /// Concurrent sequences in the batch.
    pub batch_size: u64,
    /// Prompt length consumed by the prefill pass.
    pub prompt_len: u64,
    /// Tokens generated autoregressively after prefill.
    pub decode_tokens: u32,
}

impl InferenceSetup {
    /// A setup for `model` on `tp` GPUs with typical serving shapes
    /// (batch 8, 512-token prompts, 64 generated tokens).
    pub fn new(model: ModelConfig, tp: u32) -> Self {
        InferenceSetup {
            model,
            tp,
            batch_size: 8,
            prompt_len: 512,
            decode_tokens: 64,
        }
    }

    /// Label like `GPT-3 15B serve @ tp2 b8 p512+64`.
    pub fn label(&self) -> String {
        format!(
            "{} serve @ tp{} b{} p{}+{}",
            self.model.name, self.tp, self.batch_size, self.prompt_len, self.decode_tokens
        )
    }

    /// The equivalent parallelism (tp × 1 × 1).
    pub fn parallelism(&self) -> Parallelism {
        Parallelism::new(self.tp, 1, 1).expect("tp validated")
    }

    /// Validates dimensions and TP divisibility.
    ///
    /// # Errors
    ///
    /// Returns model-dimension errors, divisibility errors, and
    /// [`ModelError::ZeroDimension`] for empty batch/prompt/decode.
    pub fn validate(&self) -> Result<(), ModelError> {
        self.model.validate()?;
        let par = Parallelism::new(self.tp, 1, 1)?;
        par.validate_for(self.model.num_layers, self.model.num_heads)?;
        for (dim, v) in [
            ("batch_size", self.batch_size),
            ("prompt_len", self.prompt_len),
            ("decode_tokens", self.decode_tokens as u64),
        ] {
            if v == 0 {
                return Err(ModelError::ZeroDimension { dim });
            }
        }
        Ok(())
    }

    /// KV-cache bytes per rank when the cache holds `kv_len` tokens
    /// per sequence: K and V, bf16, local heads only.
    pub fn kv_cache_bytes(&self, kv_len: u64) -> u64 {
        let local_attn = self.model.attn_size() / self.tp as u64;
        2 * self.batch_size * kv_len * local_attn * ACT_BYTES
    }
}

/// The prefill pass for one transformer layer: identical shapes to
/// the training forward pass over `prompt_len`-token sequences.
pub fn layer_prefill_ops(setup: &InferenceSetup) -> Vec<OpDesc> {
    let batch = BatchConfig {
        seq_len: setup.prompt_len,
        microbatch_size: setup.batch_size,
        num_microbatches: 1,
    };
    ops::layer_forward_ops(&setup.model, setup.tp, &batch)
}

/// One decode step for one transformer layer: single-token GEMMs,
/// KV-cache attention over `kv_len` tokens, and the TP all-reduces of
/// the forward pass (payload is one token's activations).
pub fn layer_decode_ops(setup: &InferenceSetup, kv_len: u64) -> Vec<OpDesc> {
    let model = &setup.model;
    let t = setup.tp as u64;
    let b = setup.batch_size; // one token per sequence
    let d = model.hidden_size;
    let a = model.attn_size();
    let f = model.ffn_size;
    let heads_local = model.num_heads as u64 / t;
    let ar_bytes = b * d * ACT_BYTES;

    let mut ops = vec![
        OpDesc {
            name: "aten::layer_norm",
            body: OpBody::Norm { elems: b * d },
        },
        OpDesc {
            name: "aten::mm_qkv",
            body: OpBody::Gemm {
                m: b,
                n: 3 * a / t,
                k: d,
            },
        },
        OpDesc {
            name: "paged_attention_decode",
            body: OpBody::AttentionDecode {
                batch_heads: b * heads_local,
                kv_len,
                head_dim: model.head_dim,
            },
        },
        OpDesc {
            name: "aten::mm_attn_out",
            body: OpBody::Gemm {
                m: b,
                n: d,
                k: a / t,
            },
        },
    ];
    if setup.tp > 1 {
        ops.push(OpDesc {
            name: "nccl:all_reduce_tp_attn_fwd",
            body: OpBody::Collective {
                op: CollOp::AllReduce,
                scope: CommScope::Tp,
                bytes: ar_bytes,
            },
        });
    }
    ops.extend([
        OpDesc {
            name: "aten::layer_norm",
            body: OpBody::Norm { elems: b * d },
        },
        OpDesc {
            name: "aten::mm_mlp_fc1",
            body: OpBody::Gemm {
                m: b,
                n: f / t,
                k: d,
            },
        },
        OpDesc {
            name: "aten::gelu",
            body: OpBody::Elementwise { elems: b * f / t },
        },
        OpDesc {
            name: "aten::mm_mlp_fc2",
            body: OpBody::Gemm {
                m: b,
                n: d,
                k: f / t,
            },
        },
    ]);
    if setup.tp > 1 {
        ops.push(OpDesc {
            name: "nccl:all_reduce_tp_mlp_fwd",
            body: OpBody::Collective {
                op: CollOp::AllReduce,
                scope: CommScope::Tp,
                bytes: ar_bytes,
            },
        });
    }
    ops
}

/// The sampling head run once per decode step: final LayerNorm, the
/// sharded logits GEMM for the **last** position only, and softmax.
pub fn sampling_ops(setup: &InferenceSetup) -> Vec<OpDesc> {
    let model = &setup.model;
    let t = setup.tp as u64;
    let b = setup.batch_size;
    let d = model.hidden_size;
    vec![
        OpDesc {
            name: "aten::layer_norm",
            body: OpBody::Norm { elems: b * d },
        },
        OpDesc {
            name: "aten::mm_lm_head",
            body: OpBody::Gemm {
                m: b,
                n: model.vocab_size / t,
                k: d,
            },
        },
        OpDesc {
            name: "aten::softmax_sample",
            body: OpBody::Softmax {
                elems: b * model.vocab_size / t,
            },
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> InferenceSetup {
        InferenceSetup {
            model: ModelConfig::tiny(),
            tp: 2,
            batch_size: 4,
            prompt_len: 128,
            decode_tokens: 8,
        }
    }

    #[test]
    fn validation_catches_zeros_and_divisibility() {
        let mut s = setup();
        s.validate().unwrap();
        s.batch_size = 0;
        assert!(s.validate().is_err());
        let mut s = setup();
        s.tp = 3; // 4 heads % 3 != 0
        assert!(s.validate().is_err());
    }

    #[test]
    fn prefill_matches_training_forward_shapes() {
        let s = setup();
        let prefill = layer_prefill_ops(&s);
        let train = ops::layer_forward_ops(
            &s.model,
            2,
            &BatchConfig {
                seq_len: 128,
                microbatch_size: 4,
                num_microbatches: 1,
            },
        );
        assert_eq!(prefill, train);
    }

    #[test]
    fn decode_gemms_are_single_token() {
        let s = setup();
        let ops = layer_decode_ops(&s, 128);
        for op in &ops {
            if let OpBody::Gemm { m, .. } = op.body {
                assert_eq!(m, s.batch_size, "{}", op.name);
            }
        }
        // Decode attention present with the right cache length.
        let dec = ops
            .iter()
            .find(|o| matches!(o.body, OpBody::AttentionDecode { .. }))
            .unwrap();
        match dec.body {
            OpBody::AttentionDecode {
                kv_len,
                batch_heads,
                ..
            } => {
                assert_eq!(kv_len, 128);
                assert_eq!(batch_heads, 4 * 2); // batch 4 × 2 local heads
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn decode_has_tp_allreduces_iff_sharded() {
        let s = setup();
        let comms = layer_decode_ops(&s, 64)
            .iter()
            .filter(|o| o.body.is_comm())
            .count();
        assert_eq!(comms, 2);
        let mut solo = setup();
        solo.tp = 1;
        let comms = layer_decode_ops(&solo, 64)
            .iter()
            .filter(|o| o.body.is_comm())
            .count();
        assert_eq!(comms, 0);
    }

    #[test]
    fn decode_flops_linear_in_kv() {
        let s = setup();
        let flops = |kv: u64| -> u64 {
            layer_decode_ops(&s, kv)
                .iter()
                .map(|o| o.body.flops())
                .sum()
        };
        let f1 = flops(1000);
        let f2 = flops(2000);
        // GEMM flops are kv-independent; attention grows linearly.
        let attn = |kv: u64| 4 * (4 * 2) * kv * s.model.head_dim;
        assert_eq!(f2 - f1, attn(2000) - attn(1000));
    }

    #[test]
    fn kv_cache_grows_linearly_and_shards_by_tp() {
        let s = setup();
        assert_eq!(s.kv_cache_bytes(200), 2 * s.kv_cache_bytes(100));
        let mut wide = setup();
        wide.tp = 1;
        assert_eq!(s.kv_cache_bytes(100) * 2, wide.kv_cache_bytes(100));
    }

    #[test]
    fn sampling_prices_last_position_only() {
        let s = setup();
        let head = sampling_ops(&s);
        match head
            .iter()
            .find(|o| o.name == "aten::mm_lm_head")
            .unwrap()
            .body
        {
            OpBody::Gemm { m, n, .. } => {
                assert_eq!(m, s.batch_size);
                assert_eq!(n, s.model.vocab_size / 2);
            }
            _ => panic!("lm head must be a gemm"),
        }
    }

    #[test]
    fn label_mentions_shapes() {
        let l = setup().label();
        assert!(l.contains("tp2"));
        assert!(l.contains("p128+8"));
    }
}
