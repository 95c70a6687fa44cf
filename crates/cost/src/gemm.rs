//! Roofline GEMM cost model with tile/wave quantization.
//!
//! Duration is the maximum of a compute bound and a memory bound:
//!
//! * compute: `2·m·n·k / (peak · efficiency)`, where efficiency folds
//!   in (a) achievable tensor-core utilization, (b) *wave
//!   quantization* — output tiles are scheduled in waves across the
//!   SMs, so a final partial wave wastes throughput — and (c) a small-
//!   `k` penalty for mainloop-dominated shapes;
//! * memory: operand + output bytes over HBM bandwidth.
//!
//! A fixed per-kernel epilogue overhead bounds tiny GEMMs away from
//! zero.

use crate::hardware::GpuSpec;
use lumos_trace::Dur;

/// Analytical GEMM timing for one GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct GemmModel {
    gpu: GpuSpec,
    /// CUTLASS-style output tile edge (128×128 tiles).
    tile: u64,
    /// Peak fraction achievable by a well-tuned kernel on large
    /// shapes.
    max_efficiency: f64,
    /// Bytes per element (BF16).
    elem_bytes: u64,
    /// Fixed kernel overhead.
    overhead: Dur,
}

impl GemmModel {
    /// Creates a model for `gpu` with H100-calibrated constants.
    pub fn new(gpu: GpuSpec) -> Self {
        GemmModel {
            gpu,
            tile: 128,
            max_efficiency: 0.78,
            elem_bytes: 2,
            overhead: Dur::from_us(3),
        }
    }

    /// The modeled efficiency (fraction of peak) for an `m×n×k` GEMM.
    pub fn efficiency(&self, m: u64, n: u64, k: u64) -> f64 {
        if m == 0 || n == 0 || k == 0 {
            return self.max_efficiency;
        }
        // Wave quantization: tiles round up to whole waves over SMs.
        let tiles = m.div_ceil(self.tile) * n.div_ceil(self.tile);
        let sms = self.gpu.num_sms as u64;
        let waves = tiles.div_ceil(sms);
        let wave_eff = tiles as f64 / (waves * sms) as f64;
        // Small-k mainloop penalty: k below ~512 cannot hide operand
        // latency.
        let k_eff = k as f64 / (k as f64 + 256.0);
        // Small-tile penalty: partial edge tiles do redundant work.
        let mf = (m as f64 / self.tile as f64).min(1.0);
        let nf = (n as f64 / self.tile as f64).min(1.0);
        self.max_efficiency * wave_eff.min(1.0) * k_eff * mf * nf
    }

    /// Predicted duration of an `m×n×k` GEMM.
    pub fn duration(&self, m: u64, n: u64, k: u64) -> Dur {
        if m == 0 || n == 0 || k == 0 {
            return self.overhead;
        }
        let flops = 2.0 * m as f64 * n as f64 * k as f64;
        let eff = self.efficiency(m, n, k).max(1e-3);
        let t_compute = flops / (self.gpu.peak_flops() * eff);
        let bytes = (m * k + k * n + m * n) * self.elem_bytes;
        let t_mem = bytes as f64 / (self.gpu.hbm_bytes_per_sec() * 0.85);
        self.overhead + Dur::from_secs_f64(t_compute.max(t_mem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> GemmModel {
        GemmModel::new(GpuSpec::h100_sxm())
    }

    #[test]
    fn large_gemm_near_peak() {
        let m = model();
        // 8k^3 GEMM: compute bound, should run at >60% of peak.
        let d = m.duration(8192, 8192, 8192);
        let flops = 2.0 * 8192f64.powi(3);
        let achieved = flops / d.as_secs_f64();
        let frac = achieved / GpuSpec::h100_sxm().peak_flops();
        assert!((0.5..0.85).contains(&frac), "achieved fraction {frac}");
    }

    #[test]
    fn tiny_gemm_dominated_by_overhead() {
        let m = model();
        let d = m.duration(16, 16, 16);
        assert!(d >= Dur::from_us(3));
        assert!(d < Dur::from_us(5));
    }

    #[test]
    fn duration_monotonic_in_each_dim() {
        let m = model();
        let base = m.duration(2048, 4096, 4096);
        assert!(m.duration(4096, 4096, 4096) >= base);
        assert!(m.duration(2048, 8192, 4096) >= base);
        assert!(m.duration(2048, 4096, 8192) >= base);
    }

    #[test]
    fn skinny_gemm_memory_bound() {
        let m = model();
        // m=2048, n=64, k=64: tiny flops, bandwidth+overhead bound.
        let d = m.duration(2048, 64, 64);
        let flops = 2.0 * 2048.0 * 64.0 * 64.0;
        let achieved = flops / d.as_secs_f64();
        assert!(achieved < 0.05 * GpuSpec::h100_sxm().peak_flops());
    }

    #[test]
    fn wave_quantization_visible() {
        let m = model();
        // 132 SMs × 128-tiles: 16 tiles along m at n=128 → eff for a
        // shape with one extra tile beyond a full wave dips.
        let full_wave = m.efficiency(128 * 132, 128, 8192);
        let partial = m.efficiency(128 * 133, 128, 8192);
        assert!(partial < full_wave);
    }

    #[test]
    fn zero_dims_cost_overhead_only() {
        let m = model();
        assert_eq!(m.duration(0, 128, 128), Dur::from_us(3));
    }

    #[test]
    fn efficiency_bounded() {
        let m = model();
        for &(a, b, c) in &[(1u64, 1u64, 1u64), (512, 512, 512), (16384, 16384, 16384)] {
            let e = m.efficiency(a, b, c);
            assert!((0.0..=0.78).contains(&e), "eff {e} for {a}x{b}x{c}");
        }
    }
}
