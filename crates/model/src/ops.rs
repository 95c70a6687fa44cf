//! Logical operator IR: the per-layer forward/backward operator
//! sequences of a Megatron-style tensor-parallel transformer.
//!
//! These sequences are what the ground-truth cluster engine lowers
//! into kernel launches, and what graph manipulation reasons about
//! when layers are added or resized. Shapes are *per-rank* (already
//! divided by the tensor-parallel degree where applicable).
//!
//! Conventions:
//! * activations and gradients are 2-byte (bf16) elements;
//! * data-parallel gradient buckets are 4-byte (fp32 main grads);
//! * each forward GEMM produces two backward GEMMs (dgrad + wgrad);
//! * tensor parallelism inserts two all-reduces in the forward pass
//!   (after the attention output projection and after the MLP second
//!   matmul — Megatron's `g` operators) and two in the backward pass
//!   (the conjugate `f` operators).

use crate::batch::BatchConfig;
use crate::gpt3::ModelConfig;
use crate::parallel::CommScope;
use serde::Serialize;

/// Bytes per activation / activation-gradient element (bf16).
pub const ACT_BYTES: u64 = 2;
/// Bytes per element of data-parallel gradient buckets (fp32 main
/// grads, Megatron DDP default).
pub const GRAD_BYTES: u64 = 4;

/// Collective algorithms at the IR level (converted to
/// `lumos_trace::CollectiveKind` during lowering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum CollOp {
    /// Sum all-reduce.
    AllReduce,
    /// All-gather.
    AllGather,
    /// Reduce-scatter.
    ReduceScatter,
    /// Broadcast.
    Broadcast,
    /// Paired send/recv across a pipeline boundary.
    SendRecv,
}

/// The computational body of a logical operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum OpBody {
    /// Dense matmul `C[m,n] += A[m,k] B[k,n]`.
    Gemm {
        /// Output rows.
        m: u64,
        /// Output columns.
        n: u64,
        /// Contraction dimension.
        k: u64,
    },
    /// Fused attention forward.
    AttentionFwd {
        /// Batch × local heads.
        batch_heads: u64,
        /// Sequence length.
        seq: u64,
        /// Head dimension.
        head_dim: u64,
    },
    /// Fused attention backward.
    AttentionBwd {
        /// Batch × local heads.
        batch_heads: u64,
        /// Sequence length.
        seq: u64,
        /// Head dimension.
        head_dim: u64,
    },
    /// Single-query attention against a KV cache (inference decode).
    AttentionDecode {
        /// Batch × local heads.
        batch_heads: u64,
        /// KV-cache length attended over.
        kv_len: u64,
        /// Head dimension.
        head_dim: u64,
    },
    /// Pointwise op over `elems` elements.
    Elementwise {
        /// Element count.
        elems: u64,
    },
    /// LayerNorm over `elems` elements.
    Norm {
        /// Element count.
        elems: u64,
    },
    /// Softmax / cross-entropy over `elems` elements.
    Softmax {
        /// Element count.
        elems: u64,
    },
    /// Embedding gather/scatter over `elems` elements.
    Embedding {
        /// Element count.
        elems: u64,
    },
    /// Fused optimizer update over `params` parameters.
    Optimizer {
        /// Parameter count.
        params: u64,
    },
    /// Collective communication.
    Collective {
        /// Algorithm.
        op: CollOp,
        /// Communicator axis.
        scope: CommScope,
        /// Payload bytes contributed by this rank.
        bytes: u64,
    },
}

impl OpBody {
    /// Returns `true` for communication bodies.
    pub fn is_comm(&self) -> bool {
        matches!(self, OpBody::Collective { .. })
    }

    /// Forward FLOPs of the body (0 for comms and data movement).
    pub fn flops(&self) -> u64 {
        match *self {
            OpBody::Gemm { m, n, k } => 2 * m * n * k,
            OpBody::AttentionFwd {
                batch_heads,
                seq,
                head_dim,
            } => 4 * batch_heads * seq * seq * head_dim,
            OpBody::AttentionBwd {
                batch_heads,
                seq,
                head_dim,
            } => 10 * batch_heads * seq * seq * head_dim,
            OpBody::AttentionDecode {
                batch_heads,
                kv_len,
                head_dim,
            } => 4 * batch_heads * kv_len * head_dim,
            OpBody::Elementwise { elems } | OpBody::Norm { elems } | OpBody::Softmax { elems } => {
                elems
            }
            OpBody::Embedding { .. } | OpBody::Collective { .. } => 0,
            OpBody::Optimizer { params } => 12 * params, // Adam: ~12 flops/param
        }
    }
}

/// A named logical operator.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct OpDesc {
    /// PyTorch-style operator name (what the profiler would show).
    pub name: &'static str,
    /// Computational body with shapes.
    pub body: OpBody,
}

impl OpDesc {
    fn new(name: &'static str, body: OpBody) -> Self {
        OpDesc { name, body }
    }
}

/// Per-rank activation payload crossing a pipeline boundary for one
/// micro-batch: `seq × microbatch × hidden × 2 bytes`.
pub fn pp_activation_bytes(model: &ModelConfig, batch: &BatchConfig) -> u64 {
    batch.tokens_per_microbatch() * model.hidden_size * ACT_BYTES
}

/// Bytes all-reduced by one tensor-parallel `g`/`f` operator:
/// the full activation tensor.
pub fn tp_allreduce_bytes(model: &ModelConfig, batch: &BatchConfig) -> u64 {
    batch.tokens_per_microbatch() * model.hidden_size * ACT_BYTES
}

/// The forward operator sequence for one transformer layer on one
/// rank, under tensor parallelism `tp`.
///
/// TP all-reduces are included only when `tp > 1` (NCCL elides
/// single-member collectives).
pub fn layer_forward_ops(model: &ModelConfig, tp: u32, batch: &BatchConfig) -> Vec<OpDesc> {
    let t = tp as u64;
    let s = batch.seq_len;
    let b = batch.microbatch_size;
    let tokens = s * b;
    let d = model.hidden_size;
    let a = model.attn_size();
    let f = model.ffn_size;
    let heads_local = model.num_heads as u64 / t;
    let ar_bytes = tp_allreduce_bytes(model, batch);

    let mut ops = vec![
        OpDesc::new("aten::layer_norm", OpBody::Norm { elems: tokens * d }),
        OpDesc::new(
            "aten::mm_qkv",
            OpBody::Gemm {
                m: tokens,
                n: 3 * a / t,
                k: d,
            },
        ),
        OpDesc::new(
            "flash_attn_fwd",
            OpBody::AttentionFwd {
                batch_heads: b * heads_local,
                seq: s,
                head_dim: model.head_dim,
            },
        ),
        OpDesc::new(
            "aten::mm_attn_out",
            OpBody::Gemm {
                m: tokens,
                n: d,
                k: a / t,
            },
        ),
    ];
    if tp > 1 {
        ops.push(OpDesc::new(
            "nccl:all_reduce_tp_attn_fwd",
            OpBody::Collective {
                op: CollOp::AllReduce,
                scope: CommScope::Tp,
                bytes: ar_bytes,
            },
        ));
    }
    ops.extend([
        OpDesc::new(
            "aten::dropout_add",
            OpBody::Elementwise { elems: tokens * d },
        ),
        OpDesc::new("aten::layer_norm", OpBody::Norm { elems: tokens * d }),
        OpDesc::new(
            "aten::mm_mlp_fc1",
            OpBody::Gemm {
                m: tokens,
                n: f / t,
                k: d,
            },
        ),
        OpDesc::new(
            "aten::gelu",
            OpBody::Elementwise {
                elems: tokens * f / t,
            },
        ),
        OpDesc::new(
            "aten::mm_mlp_fc2",
            OpBody::Gemm {
                m: tokens,
                n: d,
                k: f / t,
            },
        ),
    ]);
    if tp > 1 {
        ops.push(OpDesc::new(
            "nccl:all_reduce_tp_mlp_fwd",
            OpBody::Collective {
                op: CollOp::AllReduce,
                scope: CommScope::Tp,
                bytes: ar_bytes,
            },
        ));
    }
    ops.push(OpDesc::new(
        "aten::dropout_add",
        OpBody::Elementwise { elems: tokens * d },
    ));
    ops
}

/// The backward operator sequence for one transformer layer on one
/// rank (reverse order of the forward pass; every forward GEMM yields
/// a dgrad and a wgrad GEMM).
pub fn layer_backward_ops(model: &ModelConfig, tp: u32, batch: &BatchConfig) -> Vec<OpDesc> {
    let t = tp as u64;
    let s = batch.seq_len;
    let b = batch.microbatch_size;
    let tokens = s * b;
    let d = model.hidden_size;
    let a = model.attn_size();
    let f = model.ffn_size;
    let heads_local = model.num_heads as u64 / t;
    let ar_bytes = tp_allreduce_bytes(model, batch);

    let mut ops = vec![
        OpDesc::new(
            "aten::dropout_add_bwd",
            OpBody::Elementwise { elems: tokens * d },
        ),
        // MLP fc2 backward: dgrad + wgrad.
        OpDesc::new(
            "aten::mm_mlp_fc2_dgrad",
            OpBody::Gemm {
                m: tokens,
                n: f / t,
                k: d,
            },
        ),
        OpDesc::new(
            "aten::mm_mlp_fc2_wgrad",
            OpBody::Gemm {
                m: f / t,
                n: d,
                k: tokens,
            },
        ),
        OpDesc::new(
            "aten::gelu_bwd",
            OpBody::Elementwise {
                elems: tokens * f / t,
            },
        ),
        // MLP fc1 backward.
        OpDesc::new(
            "aten::mm_mlp_fc1_dgrad",
            OpBody::Gemm {
                m: tokens,
                n: d,
                k: f / t,
            },
        ),
        OpDesc::new(
            "aten::mm_mlp_fc1_wgrad",
            OpBody::Gemm {
                m: d,
                n: f / t,
                k: tokens,
            },
        ),
    ];
    if tp > 1 {
        ops.push(OpDesc::new(
            "nccl:all_reduce_tp_mlp_bwd",
            OpBody::Collective {
                op: CollOp::AllReduce,
                scope: CommScope::Tp,
                bytes: ar_bytes,
            },
        ));
    }
    ops.extend([
        OpDesc::new("aten::layer_norm_bwd", OpBody::Norm { elems: tokens * d }),
        OpDesc::new(
            "aten::dropout_add_bwd",
            OpBody::Elementwise { elems: tokens * d },
        ),
        // Attention out-proj backward.
        OpDesc::new(
            "aten::mm_attn_out_dgrad",
            OpBody::Gemm {
                m: tokens,
                n: a / t,
                k: d,
            },
        ),
        OpDesc::new(
            "aten::mm_attn_out_wgrad",
            OpBody::Gemm {
                m: a / t,
                n: d,
                k: tokens,
            },
        ),
        OpDesc::new(
            "flash_attn_bwd",
            OpBody::AttentionBwd {
                batch_heads: b * heads_local,
                seq: s,
                head_dim: model.head_dim,
            },
        ),
        // QKV backward.
        OpDesc::new(
            "aten::mm_qkv_dgrad",
            OpBody::Gemm {
                m: tokens,
                n: d,
                k: 3 * a / t,
            },
        ),
        OpDesc::new(
            "aten::mm_qkv_wgrad",
            OpBody::Gemm {
                m: d,
                n: 3 * a / t,
                k: tokens,
            },
        ),
    ]);
    if tp > 1 {
        ops.push(OpDesc::new(
            "nccl:all_reduce_tp_attn_bwd",
            OpBody::Collective {
                op: CollOp::AllReduce,
                scope: CommScope::Tp,
                bytes: ar_bytes,
            },
        ));
    }
    ops.push(OpDesc::new(
        "aten::layer_norm_bwd",
        OpBody::Norm { elems: tokens * d },
    ));
    ops
}

/// Embedding lookup ops at the first pipeline stage (forward).
pub fn embedding_forward_ops(model: &ModelConfig, batch: &BatchConfig) -> Vec<OpDesc> {
    let tokens = batch.tokens_per_microbatch();
    vec![
        OpDesc::new(
            "aten::embedding",
            OpBody::Embedding {
                elems: tokens * model.hidden_size,
            },
        ),
        OpDesc::new(
            "aten::dropout",
            OpBody::Elementwise {
                elems: tokens * model.hidden_size,
            },
        ),
    ]
}

/// Embedding gradient ops at the first pipeline stage (backward).
pub fn embedding_backward_ops(model: &ModelConfig, batch: &BatchConfig) -> Vec<OpDesc> {
    let tokens = batch.tokens_per_microbatch();
    vec![OpDesc::new(
        "aten::embedding_dense_backward",
        OpBody::Embedding {
            elems: tokens * model.hidden_size,
        },
    )]
}

/// LM-head ops at the last pipeline stage (final LayerNorm, logits
/// GEMM over the TP-sharded vocabulary, softmax cross-entropy).
pub fn head_forward_ops(model: &ModelConfig, tp: u32, batch: &BatchConfig) -> Vec<OpDesc> {
    let t = tp as u64;
    let tokens = batch.tokens_per_microbatch();
    let d = model.hidden_size;
    vec![
        OpDesc::new("aten::layer_norm", OpBody::Norm { elems: tokens * d }),
        OpDesc::new(
            "aten::mm_lm_head",
            OpBody::Gemm {
                m: tokens,
                n: model.vocab_size / t,
                k: d,
            },
        ),
        OpDesc::new(
            "vocab_parallel_cross_entropy",
            OpBody::Softmax {
                elems: tokens * model.vocab_size / t,
            },
        ),
    ]
}

/// LM-head backward ops at the last pipeline stage.
pub fn head_backward_ops(model: &ModelConfig, tp: u32, batch: &BatchConfig) -> Vec<OpDesc> {
    let t = tp as u64;
    let tokens = batch.tokens_per_microbatch();
    let d = model.hidden_size;
    vec![
        OpDesc::new(
            "vocab_parallel_cross_entropy_bwd",
            OpBody::Softmax {
                elems: tokens * model.vocab_size / t,
            },
        ),
        OpDesc::new(
            "aten::mm_lm_head_dgrad",
            OpBody::Gemm {
                m: tokens,
                n: d,
                k: model.vocab_size / t,
            },
        ),
        OpDesc::new(
            "aten::mm_lm_head_wgrad",
            OpBody::Gemm {
                m: model.vocab_size / t,
                n: d,
                k: tokens,
            },
        ),
        OpDesc::new("aten::layer_norm_bwd", OpBody::Norm { elems: tokens * d }),
    ]
}

/// Parameters held by one rank: its pipeline stage's layer shard plus
/// the embedding shard on the first/last stages.
pub fn local_params(model: &ModelConfig, tp: u32, pp: u32, stage: u32) -> u64 {
    let t = tp as u64;
    let layers = model.num_layers as u64 / pp as u64;
    // Per-layer parameters are almost entirely TP-sharded matrices.
    let mut params = layers * model.params_per_layer() / t;
    if stage == 0 || stage == pp - 1 {
        params += model.params_embedding() / t;
    }
    params
}

/// The fused-optimizer (Adam) update ops for a rank's local
/// parameters, chunked to mirror Megatron's per-bucket application.
pub fn optimizer_ops(local_params: u64) -> Vec<OpDesc> {
    vec![
        OpDesc::new(
            "aten::clip_grad_norm",
            OpBody::Elementwise {
                elems: local_params,
            },
        ),
        OpDesc::new(
            "fused_adam",
            OpBody::Optimizer {
                params: local_params,
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ModelConfig {
        ModelConfig::gpt3_15b()
    }

    fn batch() -> BatchConfig {
        BatchConfig::gpt3_default(4)
    }

    #[test]
    fn forward_ops_have_two_tp_allreduces() {
        let ops = layer_forward_ops(&model(), 2, &batch());
        let comms: Vec<_> = ops.iter().filter(|o| o.body.is_comm()).collect();
        assert_eq!(comms.len(), 2);
        // Without TP there are no collectives.
        let ops1 = layer_forward_ops(&model(), 1, &batch());
        assert!(ops1.iter().all(|o| !o.body.is_comm()));
        assert_eq!(ops.len(), ops1.len() + 2);
    }

    #[test]
    fn backward_has_dgrad_wgrad_pairs() {
        let fwd = layer_forward_ops(&model(), 2, &batch());
        let bwd = layer_backward_ops(&model(), 2, &batch());
        let fwd_gemms = fwd
            .iter()
            .filter(|o| matches!(o.body, OpBody::Gemm { .. }))
            .count();
        let bwd_gemms = bwd
            .iter()
            .filter(|o| matches!(o.body, OpBody::Gemm { .. }))
            .count();
        assert_eq!(bwd_gemms, 2 * fwd_gemms);
    }

    #[test]
    fn backward_flops_roughly_twice_forward() {
        let m = model();
        let b = batch();
        let fwd: u64 = layer_forward_ops(&m, 1, &b)
            .iter()
            .map(|o| o.body.flops())
            .sum();
        let bwd: u64 = layer_backward_ops(&m, 1, &b)
            .iter()
            .map(|o| o.body.flops())
            .sum();
        let ratio = bwd as f64 / fwd as f64;
        assert!((1.8..2.6).contains(&ratio), "bwd/fwd flop ratio {ratio}");
    }

    #[test]
    fn tp_shards_gemm_width() {
        let b = batch();
        let ops1 = layer_forward_ops(&model(), 1, &b);
        let ops4 = layer_forward_ops(&model(), 4, &b);
        let n_of =
            |ops: &[OpDesc]| match ops.iter().find(|o| o.name == "aten::mm_qkv").unwrap().body {
                OpBody::Gemm { n, .. } => n,
                _ => unreachable!(),
            };
        assert_eq!(n_of(&ops1), 4 * n_of(&ops4));
    }

    #[test]
    fn tp_allreduce_bytes_match_activation() {
        let m = model();
        let b = batch();
        assert_eq!(tp_allreduce_bytes(&m, &b), 2048 * m.hidden_size * 2);
        assert_eq!(pp_activation_bytes(&m, &b), tp_allreduce_bytes(&m, &b));
    }

    #[test]
    fn local_params_partition() {
        let m = model();
        // With pp=1, tp=1, a single rank holds everything except the
        // final layer norm (counted in num_params, not local shards).
        let lp = local_params(&m, 1, 1, 0);
        let total = m.num_params();
        assert!(lp <= total);
        assert!((total - lp) < total / 100);

        // Sharding by tp divides layer params.
        let lp_tp2 = local_params(&m, 2, 1, 0);
        assert!(lp_tp2 < lp);

        // Middle stages carry no embedding.
        let mid = local_params(&m, 1, 4, 1);
        let first = local_params(&m, 1, 4, 0);
        assert!(first > mid);
    }

    #[test]
    fn head_ops_shard_vocab() {
        let b = batch();
        let ops = head_forward_ops(&model(), 4, &b);
        match ops
            .iter()
            .find(|o| o.name == "aten::mm_lm_head")
            .unwrap()
            .body
        {
            OpBody::Gemm { n, .. } => assert_eq!(n, 51_200 / 4),
            _ => panic!("lm head is a gemm"),
        }
    }

    #[test]
    fn optimizer_flops_proportional_to_params() {
        let ops = optimizer_ops(1000);
        let flops: u64 = ops.iter().map(|o| o.body.flops()).sum();
        assert_eq!(flops, 12 * 1000 + 1000);
    }
}
