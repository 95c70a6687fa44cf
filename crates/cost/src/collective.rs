//! Latency–bandwidth model for NCCL-style collectives on a
//! hierarchical NVLink + RoCE fabric.
//!
//! Collectives are priced as NCCL's ring algorithms: an all-reduce of
//! `S` bytes over `n` ranks moves `2·S·(n−1)/n` bytes through the
//! slowest link on the ring and pays `2(n−1)` per-hop latencies
//! (bandwidth-optimal, latency-heavy), matching the calibrated
//! ground-truth substrate. When a communicator spans several nodes the
//! bottleneck is the NIC bandwidth apportioned to each GPU; fully
//! intra-node communicators ride NVLink/NVSwitch.

use crate::hardware::ClusterSpec;
use lumos_trace::{CollectiveKind, Dur};

/// Collective communication timing on a cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveModel {
    cluster: ClusterSpec,
    /// Fraction of nominal link bandwidth achieved by NCCL (protocol
    /// and framing overheads).
    bus_efficiency: f64,
    /// Fixed kernel setup cost per collective.
    base_overhead: Dur,
}

impl CollectiveModel {
    /// Creates a model with NCCL-calibrated constants.
    pub fn new(cluster: ClusterSpec) -> Self {
        CollectiveModel {
            cluster,
            bus_efficiency: 0.80,
            base_overhead: Dur::from_us(8),
        }
    }

    /// The cluster description this model prices against.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// The effective per-rank bus bandwidth (bytes/s) for a
    /// communicator with the given members.
    pub fn bus_bandwidth(&self, members: &[u32]) -> f64 {
        let link = if self.cluster.is_intra_node(members) {
            self.cluster.node.gpu.nvlink_bytes_per_sec()
        } else {
            self.cluster.nic_bytes_per_sec()
        };
        link * self.bus_efficiency
    }

    /// Per-hop one-way latency for the communicator.
    pub fn hop_latency(&self, members: &[u32]) -> Dur {
        let us = if self.cluster.is_intra_node(members) {
            self.cluster.intra_node_latency_us
        } else {
            self.cluster.inter_node_latency_us
        };
        Dur::from_secs_f64(us / 1e6)
    }

    /// Predicted duration of one collective instance. `bytes` is the
    /// payload contributed per rank (the full tensor for all-reduce,
    /// the local shard for all-gather / reduce-scatter, the message for
    /// send/recv).
    pub fn duration(&self, kind: CollectiveKind, bytes: u64, members: &[u32]) -> Dur {
        if members.len() <= 1 {
            // Single-member communicators are elided by NCCL.
            return Dur::from_us(2);
        }
        let (volume, hops) = ring_terms(kind, bytes, members.len());
        let bw = self.bus_bandwidth(members);
        let lat = self.hop_latency(members);
        self.base_overhead + Dur::from_secs_f64(volume / bw) + lat.scale(hops)
    }
}

/// Ring (volume, hops) terms for each collective kind.
fn ring_terms(kind: CollectiveKind, bytes: u64, members: usize) -> (f64, f64) {
    let n = members.max(1) as f64;
    match kind {
        // Ring all-reduce: reduce-scatter + all-gather phases.
        CollectiveKind::AllReduce => (2.0 * bytes as f64 * (n - 1.0) / n, 2.0 * (n - 1.0)),
        // Ring all-gather / reduce-scatter: (n-1) shard exchanges.
        CollectiveKind::AllGather | CollectiveKind::ReduceScatter => {
            (bytes as f64 * (n - 1.0), n - 1.0)
        }
        // Broadcast: pipeline through the ring once.
        CollectiveKind::Broadcast => (bytes as f64 * (n - 1.0) / n, n - 1.0),
        // Paired send/recv: one traversal of the link.
        CollectiveKind::SendRecv => (bytes as f64, 1.0),
        // Barrier: latency only.
        CollectiveKind::Barrier => (0.0, 2.0 * (n - 1.0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CollectiveModel {
        CollectiveModel::new(ClusterSpec::h100_roce())
    }

    const MB: u64 = 1 << 20;

    #[test]
    fn intra_node_faster_than_inter() {
        let m = model();
        let intra: Vec<u32> = (0..8).collect();
        let inter: Vec<u32> = (0..16).collect();
        let t_intra = m.duration(CollectiveKind::AllReduce, 64 * MB, &intra);
        let t_inter = m.duration(CollectiveKind::AllReduce, 64 * MB, &inter);
        assert!(
            t_inter > t_intra.scale(2.0),
            "inter {t_inter} should be much slower than intra {t_intra}"
        );
    }

    #[test]
    fn allreduce_volume_saturates_with_ranks() {
        // 2(n-1)/n approaches 2: doubling ranks beyond a few barely
        // moves large-payload cost (paper Fig. 7a: DP scaling changes
        // comm time modestly).
        let m = model();
        let t16 = m.duration(
            CollectiveKind::AllReduce,
            256 * MB,
            &(0..16).collect::<Vec<_>>(),
        );
        let t32 = m.duration(
            CollectiveKind::AllReduce,
            256 * MB,
            &(0..32).collect::<Vec<_>>(),
        );
        let ratio = t32.as_secs_f64() / t16.as_secs_f64();
        assert!((1.0..1.15).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn latency_dominates_small_messages() {
        let m = model();
        let members: Vec<u32> = (0..32).collect();
        let small = m.duration(CollectiveKind::AllReduce, 1024, &members);
        // 62 hops x 6us plus overhead: must exceed 350us.
        assert!(small > Dur::from_us(350));
        // And payload is irrelevant at this size.
        let small2 = m.duration(CollectiveKind::AllReduce, 2048, &members);
        let diff = small2.as_secs_f64() - small.as_secs_f64();
        assert!(diff < 1e-6);
    }

    #[test]
    fn sendrecv_is_single_hop() {
        let m = model();
        let t = m.duration(CollectiveKind::SendRecv, 50 * MB, &[0, 8]);
        // 50MB over 40GB/s effective ≈ 1.25ms + latency.
        let secs = t.as_secs_f64();
        assert!((0.001..0.002).contains(&secs), "sendrecv {secs}s");
    }

    #[test]
    fn single_member_elided() {
        let m = model();
        assert_eq!(
            m.duration(CollectiveKind::AllReduce, 1 << 30, &[3]),
            Dur::from_us(2)
        );
    }

    #[test]
    fn allgather_symmetric_with_reducescatter() {
        let m = model();
        let members: Vec<u32> = (0..8).collect();
        assert_eq!(
            m.duration(CollectiveKind::AllGather, MB, &members),
            m.duration(CollectiveKind::ReduceScatter, MB, &members)
        );
    }

    #[test]
    fn barrier_pays_latency_only() {
        let m = model();
        let members: Vec<u32> = (0..8).collect();
        let t = m.duration(CollectiveKind::Barrier, 0, &members);
        let with_payload = m.duration(CollectiveKind::Barrier, 1 << 30, &members);
        assert_eq!(t, with_payload);
    }

    #[test]
    fn duration_monotonic_in_bytes() {
        let m = model();
        let members: Vec<u32> = (0..16).collect();
        let mut prev = Dur::ZERO;
        for pow in 10..30 {
            let t = m.duration(CollectiveKind::AllReduce, 1 << pow, &members);
            assert!(t >= prev);
            prev = t;
        }
    }
}
