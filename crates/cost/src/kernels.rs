//! The full analytical kernel cost model: bandwidth models for
//! pointwise / normalization / softmax / embedding / optimizer
//! kernels, a FLOP model for fused attention, plus the GEMM and
//! collective sub-models.

use crate::collective::CollectiveModel;
use crate::gemm::GemmModel;
use crate::hardware::{ClusterSpec, GpuSpec};
use crate::CostModel;
use lumos_trace::{CollectiveKind, Dur, KernelClass};

/// First-principles cost model for every [`KernelClass`].
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticalCostModel {
    gpu: GpuSpec,
    gemm: GemmModel,
    collective: CollectiveModel,
    /// Achievable HBM fraction for streaming kernels.
    stream_efficiency: f64,
    /// Achievable peak fraction for fused attention kernels.
    attention_efficiency: f64,
    /// Fixed launch-to-finish floor for trivial kernels.
    min_kernel: Dur,
}

impl AnalyticalCostModel {
    /// Builds the model for a cluster (GPU taken from the node spec).
    pub fn new(cluster: ClusterSpec) -> Self {
        let gpu = cluster.node.gpu.clone();
        AnalyticalCostModel {
            gemm: GemmModel::new(gpu.clone()),
            collective: CollectiveModel::new(cluster),
            gpu,
            stream_efficiency: 0.75,
            attention_efficiency: 0.55,
            min_kernel: Dur::from_us(2),
        }
    }

    /// The paper's evaluation platform (H100 + RoCE).
    pub fn h100() -> Self {
        AnalyticalCostModel::new(ClusterSpec::h100_roce())
    }

    /// The A100 generation of the same platform.
    pub fn a100() -> Self {
        AnalyticalCostModel::new(ClusterSpec::a100_roce())
    }

    /// Resolves a hardware-preset name (`"h100"` / `"a100"`) — the
    /// names `lumos calibrate --hardware` records in artifacts, so
    /// query paths can rebuild the exact fallback a calibration
    /// assumed. `None` for unknown names.
    pub fn from_preset(name: &str) -> Option<Self> {
        match name {
            "h100" => Some(AnalyticalCostModel::h100()),
            "a100" => Some(AnalyticalCostModel::a100()),
            _ => None,
        }
    }

    /// The GEMM sub-model.
    pub fn gemm(&self) -> &GemmModel {
        &self.gemm
    }

    /// The collective sub-model.
    pub fn collective(&self) -> &CollectiveModel {
        &self.collective
    }

    /// Duration of a kernel that streams `bytes` through HBM.
    fn stream_cost(&self, bytes: u64) -> Dur {
        let t = bytes as f64 / (self.gpu.hbm_bytes_per_sec() * self.stream_efficiency);
        self.min_kernel + Dur::from_secs_f64(t)
    }

    /// Duration of fused attention given total FLOPs and streamed
    /// bytes (flash kernels are compute bound at long sequence, memory
    /// bound at short).
    fn attention_cost(&self, flops: f64, bytes: u64) -> Dur {
        let t_compute = flops / (self.gpu.peak_flops() * self.attention_efficiency);
        let t_mem = bytes as f64 / (self.gpu.hbm_bytes_per_sec() * self.stream_efficiency);
        self.min_kernel + Dur::from_secs_f64(t_compute.max(t_mem))
    }
}

impl CostModel for AnalyticalCostModel {
    fn compute_cost(&self, class: &KernelClass) -> Dur {
        match *class {
            KernelClass::Gemm { m, n, k } => self.gemm.duration(m, n, k),
            KernelClass::AttentionFwd {
                batch_heads,
                seq,
                head_dim,
            } => {
                let flops = 4.0 * batch_heads as f64 * (seq as f64).powi(2) * head_dim as f64;
                // Q, K, V, O in bf16.
                let bytes = 4 * batch_heads * seq * head_dim * 2;
                self.attention_cost(flops, bytes)
            }
            KernelClass::AttentionBwd {
                batch_heads,
                seq,
                head_dim,
            } => {
                let flops = 10.0 * batch_heads as f64 * (seq as f64).powi(2) * head_dim as f64;
                let bytes = 8 * batch_heads * seq * head_dim * 2;
                self.attention_cost(flops, bytes)
            }
            // Decode reads the whole K/V cache for one query token:
            // memory-bound streaming, linear in kv_len.
            KernelClass::AttentionDecode {
                batch_heads,
                kv_len,
                head_dim,
            } => {
                let flops = 4.0 * batch_heads as f64 * kv_len as f64 * head_dim as f64;
                let bytes = 2 * batch_heads * kv_len * head_dim * 2; // K + V in bf16
                self.attention_cost(flops, bytes)
            }
            // Read + write in bf16, ~1.5 passes for fused pointwise.
            KernelClass::Elementwise { elems } => self.stream_cost(elems * 3),
            // LayerNorm: two passes over input + write (bf16).
            KernelClass::Norm { elems } => self.stream_cost(elems * 6),
            // Softmax/cross-entropy: read, reduce, write.
            KernelClass::Softmax { elems } => self.stream_cost(elems * 6),
            // Gather: read indices + write rows (bf16 out).
            KernelClass::Embedding { elems } => self.stream_cost(elems * 4),
            // Adam fp32: read p/g/m/v, write p/m/v = 7 words/param.
            KernelClass::Optimizer { params } => self.stream_cost(params * 28),
            KernelClass::Memcpy { bytes } => self.stream_cost(bytes * 2),
            KernelClass::Memset { bytes } => self.stream_cost(bytes),
            KernelClass::Other => self.min_kernel + Dur::from_us(3),
            KernelClass::Collective(_) => {
                panic!("collective kernels are priced by collective_cost")
            }
        }
    }

    fn collective_cost(&self, kind: CollectiveKind, bytes: u64, members: &[u32]) -> Dur {
        self.collective.duration(kind, bytes, members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_trace::CommMeta;

    fn model() -> AnalyticalCostModel {
        AnalyticalCostModel::h100()
    }

    #[test]
    fn gpt3_gemm_magnitude_realistic() {
        // GPT-3 175B QKV projection at tp=8, tokens=2048:
        // m=2048, n=3*12288/8=4608, k=12288 -> ~232 GFLOP.
        let m = model();
        let d = m.compute_cost(&KernelClass::Gemm {
            m: 2048,
            n: 4608,
            k: 12288,
        });
        // Must land in the hundreds of microseconds on H100.
        let us = d.as_us_f64();
        assert!((100.0..2_000.0).contains(&us), "qkv gemm {us}us");
    }

    #[test]
    fn attention_scales_quadratically_in_seq() {
        let m = model();
        let t1 = m.compute_cost(&KernelClass::AttentionFwd {
            batch_heads: 12,
            seq: 2048,
            head_dim: 128,
        });
        let t2 = m.compute_cost(&KernelClass::AttentionFwd {
            batch_heads: 12,
            seq: 4096,
            head_dim: 128,
        });
        let ratio = t2.as_secs_f64() / t1.as_secs_f64();
        assert!((3.0..5.0).contains(&ratio), "seq scaling ratio {ratio}");
    }

    #[test]
    fn backward_attention_slower_than_forward() {
        let m = model();
        let fwd = m.compute_cost(&KernelClass::AttentionFwd {
            batch_heads: 12,
            seq: 2048,
            head_dim: 128,
        });
        let bwd = m.compute_cost(&KernelClass::AttentionBwd {
            batch_heads: 12,
            seq: 2048,
            head_dim: 128,
        });
        assert!(bwd > fwd);
    }

    #[test]
    fn optimizer_streams_many_bytes() {
        let m = model();
        // 1B params at 28 bytes/param over ~2.5TB/s: ~11ms.
        let d = m.compute_cost(&KernelClass::Optimizer {
            params: 1_000_000_000,
        });
        let ms = d.as_ms_f64();
        assert!((5.0..30.0).contains(&ms), "adam {ms}ms");
    }

    #[test]
    fn kernel_cost_dispatches_collectives() {
        let m = model();
        let meta = CommMeta {
            kind: CollectiveKind::AllReduce,
            group: 1,
            seq: 0,
            bytes: 1 << 24,
        };
        let via_dispatch = m.kernel_cost(&KernelClass::Collective(meta), &[0, 1, 2, 3]);
        let direct = m.collective_cost(CollectiveKind::AllReduce, 1 << 24, &[0, 1, 2, 3]);
        assert_eq!(via_dispatch, direct);
    }

    #[test]
    #[should_panic(expected = "collective")]
    fn compute_cost_rejects_collectives() {
        let m = model();
        let meta = CommMeta {
            kind: CollectiveKind::AllReduce,
            group: 1,
            seq: 0,
            bytes: 8,
        };
        let _ = m.compute_cost(&KernelClass::Collective(meta));
    }

    #[test]
    fn all_compute_classes_positive_and_deterministic() {
        let m = model();
        let classes = [
            KernelClass::Gemm {
                m: 64,
                n: 64,
                k: 64,
            },
            KernelClass::AttentionFwd {
                batch_heads: 4,
                seq: 128,
                head_dim: 64,
            },
            KernelClass::AttentionBwd {
                batch_heads: 4,
                seq: 128,
                head_dim: 64,
            },
            KernelClass::Elementwise { elems: 1000 },
            KernelClass::Norm { elems: 1000 },
            KernelClass::Softmax { elems: 1000 },
            KernelClass::Embedding { elems: 1000 },
            KernelClass::Optimizer { params: 1000 },
            KernelClass::Memcpy { bytes: 1000 },
            KernelClass::Memset { bytes: 1000 },
            KernelClass::Other,
        ];
        for c in &classes {
            let d = m.compute_cost(c);
            assert!(d > Dur::ZERO, "{c:?} must cost > 0");
            assert_eq!(d, m.compute_cost(c), "{c:?} must be deterministic");
        }
    }

    #[test]
    fn reference_costmodel_impl_works() {
        fn total<M: CostModel>(m: &M) -> Dur {
            m.compute_cost(&KernelClass::Other)
        }
        let m = model();
        assert_eq!(total(&&m), total(&m));
    }
}
