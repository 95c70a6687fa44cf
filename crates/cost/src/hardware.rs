//! GPU, node, and cluster hardware specifications.
//!
//! The defaults model the paper's evaluation platform: NVIDIA H100
//! SXM GPUs, 8 per server behind NVSwitch, servers interconnected by
//! 8× 400 Gbps RoCE per host (§4.1).

/// A GPU's performance envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name.
    pub name: String,
    /// Dense BF16 tensor-core peak, in TFLOP/s.
    pub peak_tflops_bf16: f64,
    /// HBM bandwidth, in GB/s.
    pub hbm_gbps: f64,
    /// Streaming multiprocessors.
    pub num_sms: u32,
    /// Per-GPU unidirectional NVLink bandwidth, in GB/s.
    pub nvlink_gbps: f64,
    /// HBM capacity, in GiB.
    pub memory_gib: u32,
}

impl GpuSpec {
    /// NVIDIA H100 SXM5: 989 TFLOP/s dense BF16, 3.35 TB/s HBM3,
    /// 132 SMs, 450 GB/s NVLink each way.
    pub fn h100_sxm() -> Self {
        GpuSpec {
            name: "H100-SXM5".to_string(),
            peak_tflops_bf16: 989.0,
            hbm_gbps: 3_350.0,
            num_sms: 132,
            nvlink_gbps: 450.0,
            memory_gib: 80,
        }
    }

    /// NVIDIA A100 SXM4 80GB: 312 TFLOP/s dense BF16, 2.04 TB/s HBM2e,
    /// 108 SMs, 300 GB/s NVLink each way. Used for cross-hardware
    /// what-if studies.
    pub fn a100_sxm() -> Self {
        GpuSpec {
            name: "A100-SXM4".to_string(),
            peak_tflops_bf16: 312.0,
            hbm_gbps: 2_039.0,
            num_sms: 108,
            nvlink_gbps: 300.0,
            memory_gib: 80,
        }
    }

    /// Peak FLOP/s as a plain number (not tera).
    pub fn peak_flops(&self) -> f64 {
        self.peak_tflops_bf16 * 1e12
    }

    /// HBM bandwidth in bytes/s.
    pub fn hbm_bytes_per_sec(&self) -> f64 {
        self.hbm_gbps * 1e9
    }

    /// NVLink bandwidth in bytes/s.
    pub fn nvlink_bytes_per_sec(&self) -> f64 {
        self.nvlink_gbps * 1e9
    }

    /// HBM capacity in bytes.
    pub fn memory_bytes(&self) -> u64 {
        self.memory_gib as u64 * (1 << 30)
    }
}

/// One server: several GPUs behind an all-to-all NVSwitch fabric.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// The GPU model installed.
    pub gpu: GpuSpec,
    /// GPUs per server (paper: 8, i.e. "512 GPUs on 32 servers").
    pub gpus_per_node: u32,
}

impl NodeSpec {
    /// An 8×H100 SXM server (DGX-H100-like).
    pub fn dgx_h100() -> Self {
        NodeSpec {
            gpu: GpuSpec::h100_sxm(),
            gpus_per_node: 8,
        }
    }

    /// An 8×A100 SXM server (DGX-A100-like).
    pub fn dgx_a100() -> Self {
        NodeSpec {
            gpu: GpuSpec::a100_sxm(),
            gpus_per_node: 8,
        }
    }
}

/// A multi-node training cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Server configuration.
    pub node: NodeSpec,
    /// Per-GPU network bandwidth to the fabric, in GB/s. The paper's
    /// hosts have 8× 400 Gbps (= 50 GB/s per GPU with one rail each).
    pub nic_gbps_per_gpu: f64,
    /// One-way latency between GPUs in the same node, in microseconds.
    pub intra_node_latency_us: f64,
    /// One-way latency between GPUs on different nodes (RoCE), in
    /// microseconds.
    pub inter_node_latency_us: f64,
}

impl ClusterSpec {
    /// The paper's platform: 8×H100 nodes, 8×400 Gbps RoCE per host.
    pub fn h100_roce() -> Self {
        ClusterSpec {
            node: NodeSpec::dgx_h100(),
            nic_gbps_per_gpu: 50.0,
            intra_node_latency_us: 1.5,
            inter_node_latency_us: 6.0,
        }
    }

    /// A100 generation of the same topology: 8×A100 nodes with
    /// 8×200 Gbps RoCE per host (DGX-A100 networking).
    pub fn a100_roce() -> Self {
        ClusterSpec {
            node: NodeSpec::dgx_a100(),
            nic_gbps_per_gpu: 25.0,
            intra_node_latency_us: 1.8,
            inter_node_latency_us: 6.5,
        }
    }

    /// The node index a global rank lives on (ranks are packed onto
    /// nodes in order).
    pub fn node_of(&self, rank: u32) -> u32 {
        rank / self.node.gpus_per_node
    }

    /// Returns `true` when all members live on a single node (so
    /// collectives ride NVLink only).
    pub fn is_intra_node(&self, members: &[u32]) -> bool {
        let mut nodes = members.iter().map(|&r| self.node_of(r));
        match nodes.next() {
            Some(first) => nodes.all(|n| n == first),
            None => true,
        }
    }

    /// NIC bandwidth in bytes/s per GPU.
    pub fn nic_bytes_per_sec(&self) -> f64 {
        self.nic_gbps_per_gpu * 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h100_spec_sanity() {
        let g = GpuSpec::h100_sxm();
        assert!(g.peak_flops() > 9e14);
        assert!(g.hbm_bytes_per_sec() > 3e12);
        assert!(g.nvlink_bytes_per_sec() > 4e11);
        assert_eq!(g.num_sms, 132);
    }

    #[test]
    fn a100_slower_than_h100() {
        let (a, h) = (GpuSpec::a100_sxm(), GpuSpec::h100_sxm());
        assert!(a.peak_flops() < h.peak_flops());
        assert!(a.hbm_bytes_per_sec() < h.hbm_bytes_per_sec());
    }

    #[test]
    fn node_mapping() {
        let c = ClusterSpec::h100_roce();
        assert_eq!(c.node_of(0), 0);
        assert_eq!(c.node_of(7), 0);
        assert_eq!(c.node_of(8), 1);
        assert!(c.is_intra_node(&[0, 3, 7]));
        assert!(!c.is_intra_node(&[0, 8]));
        assert!(c.is_intra_node(&[]));
        assert!(c.is_intra_node(&[12]));
    }

    #[test]
    fn nvlink_faster_than_nic() {
        let c = ClusterSpec::h100_roce();
        assert!(c.node.gpu.nvlink_bytes_per_sec() > c.nic_bytes_per_sec());
        assert!(c.inter_node_latency_us > c.intra_node_latency_us);
    }
}
